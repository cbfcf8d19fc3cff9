//! Dynamically typed cell values.
//!
//! The paper's relation `R(t, f, A1..An)` leaves the attribute domains
//! abstract. The engine supports the usual analytic primitives: booleans,
//! 64-bit integers, 64-bit floats, UTF-8 strings, and raw byte strings, plus
//! SQL-style `NULL`.
//!
//! Comparison follows a pragmatic analytic-engine semantics: `Int` and
//! `Float` compare numerically across types; `Null` compares equal to itself
//! and less than everything else (so sorting is total); values of unrelated
//! types order by a fixed type rank. Predicate evaluation in `fungus-query`
//! layers SQL's three-valued logic on top where required.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};

use crate::error::{FungusError, Result};

/// The type of a [`Value`] and of a schema column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// SQL NULL's type; only the `Null` value inhabits it.
    Null,
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float.
    Float,
    /// UTF-8 string.
    Str,
    /// Raw byte string.
    Bytes,
}

impl DataType {
    /// True if a value of type `self` may be stored in a column of type
    /// `target` without loss of meaning.
    ///
    /// `Null` is storable anywhere (nullable columns); `Int` widens to
    /// `Float`.
    #[inline]
    pub fn coercible_to(self, target: DataType) -> bool {
        self == target
            || self == DataType::Null
            || (self == DataType::Int && target == DataType::Float)
    }

    /// Rank used to totally order values of distinct non-numeric types.
    #[inline]
    fn rank(self) -> u8 {
        match self {
            DataType::Null => 0,
            DataType::Bool => 1,
            DataType::Int | DataType::Float => 2,
            DataType::Str => 3,
            DataType::Bytes => 4,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Null => "Null",
            DataType::Bool => "Bool",
            DataType::Int => "Int",
            DataType::Float => "Float",
            DataType::Str => "Str",
            DataType::Bytes => "Bytes",
        };
        f.write_str(s)
    }
}

/// A single attribute value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. `NaN` is normalised to `Null` by [`Value::float`].
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
}

impl Value {
    /// Constructs a float value, normalising `NaN` to `Null` so that stored
    /// values always have a total order.
    #[inline]
    pub fn float(v: f64) -> Value {
        if v.is_nan() {
            Value::Null
        } else {
            Value::Float(v)
        }
    }

    /// The dynamic type of this value.
    #[inline]
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Bool(_) => DataType::Bool,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
            Value::Bytes(_) => DataType::Bytes,
        }
    }

    /// True for SQL NULL.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of this value, if it has one (`Int`, `Float`, `Bool`).
    ///
    /// Booleans read as 0/1 to support `SUM(flag)`-style aggregation.
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Integer view, if exact (`Int`, or `Float` with integral value).
    #[inline]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 && f.is_finite() => Some(*f as i64),
            _ => None,
        }
    }

    /// String view, if this is a `Str`.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Attempts to coerce this value into `target`, per
    /// [`DataType::coercible_to`].
    pub fn coerce_to(&self, target: DataType) -> Result<Value> {
        if self.data_type() == target {
            return Ok(self.clone());
        }
        match (self, target) {
            (Value::Null, _) => Ok(Value::Null),
            (Value::Int(i), DataType::Float) => Ok(Value::Float(*i as f64)),
            _ => Err(FungusError::TypeMismatch {
                column: String::new(),
                expected: target,
                actual: self.data_type(),
            }),
        }
    }

    /// SQL-style equality: `NULL = x` is unknown, encoded as `None`.
    #[inline]
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            None
        } else {
            Some(self.cmp_total(other) == Ordering::Equal)
        }
    }

    /// SQL-style ordering: `None` when either side is NULL.
    #[inline]
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            None
        } else {
            Some(self.cmp_total(other))
        }
    }

    /// Total order over all values (used for sorting and zone maps).
    ///
    /// Numeric types compare numerically with each other; distinct
    /// non-numeric types order by type rank; NULL sorts first.
    pub fn cmp_total(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal),
            _ => self.data_type().rank().cmp(&other.data_type().rank()),
        }
    }

    /// Addition with numeric promotion. Strings concatenate.
    pub fn add(&self, other: &Value) -> Result<Value> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Ok(Null),
            (Int(a), Int(b)) => Ok(a
                .checked_add(*b)
                .map(Int)
                .unwrap_or_else(|| Value::float(*a as f64 + *b as f64))),
            (Str(a), Str(b)) => {
                let mut s = String::with_capacity(a.len() + b.len());
                s.push_str(a);
                s.push_str(b);
                Ok(Str(s))
            }
            _ => self.numeric_binop(other, "+", |a, b| a + b),
        }
    }

    /// Subtraction with numeric promotion.
    pub fn sub(&self, other: &Value) -> Result<Value> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Ok(Null),
            (Int(a), Int(b)) => Ok(a
                .checked_sub(*b)
                .map(Int)
                .unwrap_or_else(|| Value::float(*a as f64 - *b as f64))),
            _ => self.numeric_binop(other, "-", |a, b| a - b),
        }
    }

    /// Multiplication with numeric promotion.
    pub fn mul(&self, other: &Value) -> Result<Value> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Ok(Null),
            (Int(a), Int(b)) => Ok(a
                .checked_mul(*b)
                .map(Int)
                .unwrap_or_else(|| Value::float(*a as f64 * *b as f64))),
            _ => self.numeric_binop(other, "*", |a, b| a * b),
        }
    }

    /// Division. Integer division by zero and float division by zero both
    /// yield NULL (the analytic-engine convention, avoiding poisoned scans).
    pub fn div(&self, other: &Value) -> Result<Value> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Ok(Null),
            (Int(a), Int(b)) => {
                if *b == 0 {
                    Ok(Null)
                } else if *a == i64::MIN && *b == -1 {
                    Ok(Value::float(*a as f64 / *b as f64))
                } else {
                    Ok(Int(a / b))
                }
            }
            _ => {
                let (a, b) = self.numeric_pair(other, "/")?;
                if b == 0.0 {
                    Ok(Null)
                } else {
                    Ok(Value::float(a / b))
                }
            }
        }
    }

    /// Remainder. Zero divisor yields NULL.
    pub fn rem(&self, other: &Value) -> Result<Value> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Ok(Null),
            (Int(a), Int(b)) => {
                if *b == 0 {
                    Ok(Null)
                } else if *a == i64::MIN && *b == -1 {
                    Ok(Int(0))
                } else {
                    Ok(Int(a % b))
                }
            }
            _ => {
                let (a, b) = self.numeric_pair(other, "%")?;
                if b == 0.0 {
                    Ok(Null)
                } else {
                    Ok(Value::float(a % b))
                }
            }
        }
    }

    /// Arithmetic negation.
    pub fn neg(&self) -> Result<Value> {
        match self {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(i
                .checked_neg()
                .map(Value::Int)
                .unwrap_or_else(|| Value::float(-(*i as f64)))),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(FungusError::EvalError(format!(
                "cannot negate {}",
                other.data_type()
            ))),
        }
    }

    fn numeric_pair(&self, other: &Value, op: &str) -> Result<(f64, f64)> {
        match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) => Ok((a, b)),
            _ => Err(FungusError::EvalError(format!(
                "operator `{op}` requires numeric operands, got {} and {}",
                self.data_type(),
                other.data_type()
            ))),
        }
    }

    fn numeric_binop(&self, other: &Value, op: &str, f: impl Fn(f64, f64) -> f64) -> Result<Value> {
        let (a, b) = self.numeric_pair(other, op)?;
        Ok(Value::float(f(a, b)))
    }

    /// An approximation of the value's in-memory footprint in bytes, used by
    /// the storage accountant and the health monitor.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Value>()
            + match self {
                Value::Str(s) => s.capacity(),
                Value::Bytes(b) => b.capacity(),
                _ => 0,
            }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_total(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_total(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float that compare equal must hash equal: hash the
            // float bit pattern of the numeric value for both.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                // Normalise -0.0 to 0.0 so equal values hash equally.
                let f = if *f == 0.0 { 0.0 } else { *f };
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Bytes(b) => {
                4u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bytes(b) => {
                f.write_str("x'")?;
                for byte in b {
                    write!(f, "{byte:02x}")?;
                }
                f.write_str("'")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(x) => x.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn nan_is_normalised_to_null() {
        assert!(Value::float(f64::NAN).is_null());
        assert!(Value::from(f64::NAN).is_null());
    }

    #[test]
    fn cross_type_numeric_comparison() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    #[test]
    fn equal_numerics_hash_equal() {
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Float(7.0)));
        assert_eq!(hash_of(&Value::Float(0.0)), hash_of(&Value::Float(-0.0)));
    }

    #[test]
    fn null_sorts_first_and_sql_compares_unknown() {
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Null < Value::Int(i64::MIN));
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
    }

    #[test]
    fn arithmetic_promotes_and_propagates_null() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(
            Value::Int(2).add(&Value::Float(0.5)).unwrap(),
            Value::Float(2.5)
        );
        assert!(Value::Null.add(&Value::Int(1)).unwrap().is_null());
        assert_eq!(
            Value::from("ab").add(&Value::from("cd")).unwrap(),
            Value::from("abcd")
        );
    }

    #[test]
    fn int_overflow_spills_to_float() {
        let v = Value::Int(i64::MAX).add(&Value::Int(1)).unwrap();
        assert_eq!(v.data_type(), DataType::Float);
        let v = Value::Int(i64::MIN).neg().unwrap();
        assert_eq!(v.data_type(), DataType::Float);
        let v = Value::Int(i64::MAX).mul(&Value::Int(2)).unwrap();
        assert_eq!(v.data_type(), DataType::Float);
    }

    #[test]
    fn division_by_zero_is_null() {
        assert!(Value::Int(1).div(&Value::Int(0)).unwrap().is_null());
        assert!(Value::Float(1.0).div(&Value::Int(0)).unwrap().is_null());
        assert!(Value::Int(1).rem(&Value::Int(0)).unwrap().is_null());
        assert_eq!(Value::Int(7).div(&Value::Int(2)).unwrap(), Value::Int(3));
        assert_eq!(Value::Int(7).rem(&Value::Int(2)).unwrap(), Value::Int(1));
    }

    #[test]
    fn int_min_div_neg_one_does_not_panic() {
        let v = Value::Int(i64::MIN).div(&Value::Int(-1)).unwrap();
        assert_eq!(v.data_type(), DataType::Float);
        assert_eq!(
            Value::Int(i64::MIN).rem(&Value::Int(-1)).unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn coercion_rules() {
        assert!(DataType::Int.coercible_to(DataType::Float));
        assert!(DataType::Null.coercible_to(DataType::Str));
        assert!(!DataType::Float.coercible_to(DataType::Int));
        assert_eq!(
            Value::Int(3).coerce_to(DataType::Float).unwrap(),
            Value::Float(3.0)
        );
        assert!(Value::from("x").coerce_to(DataType::Int).is_err());
    }

    #[test]
    fn type_errors_name_the_operator() {
        let err = Value::from("x").mul(&Value::Int(2)).unwrap_err();
        assert!(err.to_string().contains('*'));
    }

    #[test]
    fn display_round_trips_shape() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::from("hi").to_string(), "'hi'");
        assert_eq!(Value::Bytes(vec![0xde, 0xad]).to_string(), "x'dead'");
    }

    #[test]
    fn approx_bytes_counts_heap() {
        let small = Value::Int(1).approx_bytes();
        let big = Value::Str("x".repeat(100)).approx_bytes();
        assert!(big > small + 90);
    }

    #[test]
    fn option_conversion() {
        assert_eq!(Value::from(Some(3i64)), Value::Int(3));
        assert!(Value::from(Option::<i64>::None).is_null());
    }
}
