//! Relation schemas.
//!
//! A [`Schema`] describes the attribute columns `A1..An` of the paper's
//! relation `R(t, f, A1..An)`. The system columns `t` (insertion tick) and
//! `f` (freshness) are *not* part of the schema — they live in
//! [`TupleMeta`](crate::tuple::TupleMeta) and are exposed to queries through
//! pseudo-columns in `fungus-query`.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::{FungusError, Result};
use crate::value::{DataType, Value};

/// A single column definition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnDef {
    /// Column name, unique within the schema.
    pub name: String,
    /// Column type.
    pub data_type: DataType,
    /// Whether NULL values are accepted.
    pub nullable: bool,
}

impl ColumnDef {
    /// A nullable column.
    pub fn nullable(name: impl Into<String>, data_type: DataType) -> Self {
        ColumnDef {
            name: name.into(),
            data_type,
            nullable: true,
        }
    }

    /// A NOT NULL column.
    pub fn required(name: impl Into<String>, data_type: DataType) -> Self {
        ColumnDef {
            name: name.into(),
            data_type,
            nullable: false,
        }
    }
}

/// An ordered set of named, typed columns.
///
/// ```
/// use fungus_types::{Schema, ColumnDef, DataType, Value};
///
/// let schema = Schema::new(vec![
///     ColumnDef::required("sensor", DataType::Int),
///     ColumnDef::nullable("reading", DataType::Float),
/// ]).unwrap();
///
/// assert_eq!(schema.index_of("reading"), Some(1));
/// schema.check_row(&[Value::Int(4), Value::Float(21.5)]).unwrap();
/// assert!(schema.check_row(&[Value::Int(4)]).is_err()); // wrong arity
/// ```
///
/// A schema is immutable once built and its columns sit behind one `Arc`,
/// so the copies every store, shard and sealed snapshot carries cost a
/// reference count, not a `String` per column.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    columns: Arc<[ColumnDef]>,
}

impl Schema {
    /// Builds a schema, validating that column names are unique and
    /// non-empty and that no column is typed `Null`.
    pub fn new(columns: Vec<ColumnDef>) -> Result<Self> {
        for (i, col) in columns.iter().enumerate() {
            if col.name.is_empty() {
                return Err(FungusError::InvalidConfig(format!(
                    "column {i} has an empty name"
                )));
            }
            if col.data_type == DataType::Null {
                return Err(FungusError::InvalidConfig(format!(
                    "column `{}` cannot be typed Null",
                    col.name
                )));
            }
            if columns[..i].iter().any(|c| c.name == col.name) {
                return Err(FungusError::InvalidConfig(format!(
                    "duplicate column name `{}`",
                    col.name
                )));
            }
        }
        Ok(Schema {
            columns: columns.into(),
        })
    }

    /// Convenience constructor from `(name, type)` pairs; all columns
    /// nullable.
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> Result<Self> {
        Schema::new(
            pairs
                .iter()
                .map(|(n, t)| ColumnDef::nullable(*n, *t))
                .collect(),
        )
    }

    /// The column definitions in declaration order.
    #[inline]
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of the column named `name`, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// The column named `name`, or an [`FungusError::UnknownColumn`] error.
    pub fn column(&self, name: &str) -> Result<&ColumnDef> {
        self.columns
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| FungusError::UnknownColumn(name.to_string()))
    }

    /// Validates a row of attribute values against this schema: arity,
    /// nullability, and type coercibility.
    pub fn check_row(&self, values: &[Value]) -> Result<()> {
        if values.len() != self.columns.len() {
            return Err(FungusError::ArityMismatch {
                expected: self.columns.len(),
                actual: values.len(),
            });
        }
        for (col, value) in self.columns.iter().zip(values) {
            if value.is_null() {
                if !col.nullable {
                    return Err(FungusError::TypeMismatch {
                        column: col.name.clone(),
                        expected: col.data_type,
                        actual: DataType::Null,
                    });
                }
                continue;
            }
            if !value.data_type().coercible_to(col.data_type) {
                return Err(FungusError::TypeMismatch {
                    column: col.name.clone(),
                    expected: col.data_type,
                    actual: value.data_type(),
                });
            }
        }
        Ok(())
    }

    /// Validates and normalises a row: performs the `Int → Float` widening
    /// the schema allows, returning the stored representation.
    pub fn normalise_row(&self, mut values: Vec<Value>) -> Result<Vec<Value>> {
        self.check_row(&values)?;
        for (col, value) in self.columns.iter().zip(values.iter_mut()) {
            if !value.is_null() && value.data_type() != col.data_type {
                *value = value.coerce_to(col.data_type)?;
            }
        }
        Ok(values)
    }

    /// Projects this schema onto the named columns, preserving request order.
    pub fn project(&self, names: &[&str]) -> Result<Schema> {
        let mut cols = Vec::with_capacity(names.len());
        for name in names {
            cols.push(self.column(name)?.clone());
        }
        Schema::new(cols)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, col) in self.columns.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{} {}", col.name, col.data_type)?;
            if !col.nullable {
                f.write_str(" NOT NULL")?;
            }
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sensor_schema() -> Schema {
        Schema::new(vec![
            ColumnDef::required("sensor", DataType::Int),
            ColumnDef::nullable("reading", DataType::Float),
            ColumnDef::nullable("tag", DataType::Str),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_duplicate_and_empty_names() {
        let err = Schema::from_pairs(&[("a", DataType::Int), ("a", DataType::Int)]).unwrap_err();
        assert!(err.to_string().contains("duplicate"));
        let err = Schema::from_pairs(&[("", DataType::Int)]).unwrap_err();
        assert!(err.to_string().contains("empty"));
    }

    #[test]
    fn rejects_null_typed_columns() {
        assert!(Schema::from_pairs(&[("a", DataType::Null)]).is_err());
    }

    #[test]
    fn lookup_by_name() {
        let s = sensor_schema();
        assert_eq!(s.index_of("tag"), Some(2));
        assert_eq!(s.index_of("nope"), None);
        assert!(s.column("nope").is_err());
        assert_eq!(s.arity(), 3);
    }

    #[test]
    fn row_validation() {
        let s = sensor_schema();
        s.check_row(&[Value::Int(1), Value::Float(2.0), Value::from("x")])
            .unwrap();
        // Int widens to Float.
        s.check_row(&[Value::Int(1), Value::Int(2), Value::Null])
            .unwrap();
        // NOT NULL violation.
        let err = s
            .check_row(&[Value::Null, Value::Null, Value::Null])
            .unwrap_err();
        assert!(matches!(err, FungusError::TypeMismatch { .. }));
        // Arity.
        let err = s.check_row(&[Value::Int(1)]).unwrap_err();
        assert!(matches!(err, FungusError::ArityMismatch { .. }));
        // Wrong type.
        let err = s
            .check_row(&[Value::from("s"), Value::Null, Value::Null])
            .unwrap_err();
        assert!(matches!(err, FungusError::TypeMismatch { .. }));
    }

    #[test]
    fn normalise_widens_ints() {
        let s = sensor_schema();
        let row = s
            .normalise_row(vec![Value::Int(1), Value::Int(7), Value::Null])
            .unwrap();
        assert_eq!(row[1], Value::Float(7.0));
        assert_eq!(row[1].data_type(), DataType::Float);
    }

    #[test]
    fn projection_preserves_request_order() {
        let s = sensor_schema();
        let p = s.project(&["tag", "sensor"]).unwrap();
        assert_eq!(p.columns()[0].name, "tag");
        assert_eq!(p.columns()[1].name, "sensor");
        assert!(s.project(&["missing"]).is_err());
    }

    #[test]
    fn display_shape() {
        let s = sensor_schema();
        let d = s.to_string();
        assert!(d.starts_with('('));
        assert!(d.contains("sensor Int NOT NULL"));
        assert!(d.contains("reading Float"));
    }
}
