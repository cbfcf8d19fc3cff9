//! Binary encoding primitives for snapshots.
//!
//! A tiny, explicit little-endian codec: every field is written by hand so
//! the on-disk format is stable regardless of `serde` internals. All decode
//! paths return [`FungusError::CorruptSnapshot`] rather than panicking on
//! truncated or malformed input.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use fungus_types::{
    ColumnDef, DataType, Freshness, FungusError, Result, Schema, Tick, Tuple, TupleId, TupleMeta,
    Value,
};

use crate::segment::TombstoneReason;

fn corrupt(msg: impl Into<String>) -> FungusError {
    FungusError::CorruptSnapshot(msg.into())
}

/// Checks `buf` has at least `n` readable bytes.
fn need(buf: &impl Buf, n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        Err(corrupt(format!("truncated input reading {what}")))
    } else {
        Ok(())
    }
}

pub(crate) fn put_u8(buf: &mut BytesMut, v: u8) {
    buf.put_u8(v);
}

pub(crate) fn get_u8(buf: &mut Bytes, what: &str) -> Result<u8> {
    need(buf, 1, what)?;
    Ok(buf.get_u8())
}

pub(crate) fn put_u32(buf: &mut BytesMut, v: u32) {
    buf.put_u32_le(v);
}

pub(crate) fn get_u32(buf: &mut Bytes, what: &str) -> Result<u32> {
    need(buf, 4, what)?;
    Ok(buf.get_u32_le())
}

pub(crate) fn put_u64(buf: &mut BytesMut, v: u64) {
    buf.put_u64_le(v);
}

pub(crate) fn get_u64(buf: &mut Bytes, what: &str) -> Result<u64> {
    need(buf, 8, what)?;
    Ok(buf.get_u64_le())
}

pub(crate) fn put_f64(buf: &mut BytesMut, v: f64) {
    buf.put_f64_le(v);
}

pub(crate) fn get_f64(buf: &mut Bytes, what: &str) -> Result<f64> {
    need(buf, 8, what)?;
    Ok(buf.get_f64_le())
}

pub(crate) fn put_bytes(buf: &mut BytesMut, v: &[u8]) {
    put_u32(buf, v.len() as u32);
    buf.put_slice(v);
}

pub(crate) fn get_byte_vec(buf: &mut Bytes, what: &str) -> Result<Vec<u8>> {
    let len = get_u32(buf, what)? as usize;
    need(buf, len, what)?;
    let mut v = vec![0u8; len];
    buf.copy_to_slice(&mut v);
    Ok(v)
}

pub(crate) fn put_str(buf: &mut BytesMut, v: &str) {
    put_bytes(buf, v.as_bytes());
}

pub(crate) fn get_string(buf: &mut Bytes, what: &str) -> Result<String> {
    let bytes = get_byte_vec(buf, what)?;
    String::from_utf8(bytes).map_err(|_| corrupt(format!("invalid utf8 in {what}")))
}

// ---- domain types ----

pub(crate) fn put_data_type(buf: &mut BytesMut, dt: DataType) {
    let tag = match dt {
        DataType::Null => 0u8,
        DataType::Bool => 1,
        DataType::Int => 2,
        DataType::Float => 3,
        DataType::Str => 4,
        DataType::Bytes => 5,
    };
    put_u8(buf, tag);
}

pub(crate) fn get_data_type(buf: &mut Bytes) -> Result<DataType> {
    Ok(match get_u8(buf, "data type")? {
        0 => DataType::Null,
        1 => DataType::Bool,
        2 => DataType::Int,
        3 => DataType::Float,
        4 => DataType::Str,
        5 => DataType::Bytes,
        t => return Err(corrupt(format!("unknown data type tag {t}"))),
    })
}

pub(crate) fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Null => put_u8(buf, 0),
        Value::Bool(b) => {
            put_u8(buf, 1);
            put_u8(buf, u8::from(*b));
        }
        Value::Int(i) => {
            put_u8(buf, 2);
            put_u64(buf, *i as u64);
        }
        Value::Float(f) => {
            put_u8(buf, 3);
            put_f64(buf, *f);
        }
        Value::Str(s) => {
            put_u8(buf, 4);
            put_str(buf, s);
        }
        Value::Bytes(b) => {
            put_u8(buf, 5);
            put_bytes(buf, b);
        }
    }
}

pub(crate) fn get_value(buf: &mut Bytes) -> Result<Value> {
    Ok(match get_u8(buf, "value tag")? {
        0 => Value::Null,
        1 => Value::Bool(get_u8(buf, "bool")? != 0),
        2 => Value::Int(get_u64(buf, "int")? as i64),
        3 => Value::float(get_f64(buf, "float")?),
        4 => Value::Str(get_string(buf, "string")?),
        5 => Value::Bytes(get_byte_vec(buf, "bytes")?),
        t => return Err(corrupt(format!("unknown value tag {t}"))),
    })
}

pub(crate) fn put_schema(buf: &mut BytesMut, schema: &Schema) {
    put_u32(buf, schema.arity() as u32);
    for col in schema.columns() {
        put_str(buf, &col.name);
        put_data_type(buf, col.data_type);
        put_u8(buf, u8::from(col.nullable));
    }
}

pub(crate) fn get_schema(buf: &mut Bytes) -> Result<Schema> {
    let arity = get_u32(buf, "schema arity")? as usize;
    if arity > 1 << 16 {
        return Err(corrupt(format!("implausible schema arity {arity}")));
    }
    let mut cols = Vec::with_capacity(arity);
    for _ in 0..arity {
        let name = get_string(buf, "column name")?;
        let data_type = get_data_type(buf)?;
        let nullable = get_u8(buf, "nullable flag")? != 0;
        cols.push(ColumnDef {
            name,
            data_type,
            nullable,
        });
    }
    Schema::new(cols)
}

pub(crate) fn put_reason(buf: &mut BytesMut, reason: TombstoneReason) {
    let tag = match reason {
        TombstoneReason::Consumed => 0u8,
        TombstoneReason::Rotted => 1,
        TombstoneReason::Deleted => 2,
    };
    put_u8(buf, tag);
}

pub(crate) fn get_reason(buf: &mut Bytes) -> Result<TombstoneReason> {
    Ok(match get_u8(buf, "tombstone reason")? {
        0 => TombstoneReason::Consumed,
        1 => TombstoneReason::Rotted,
        2 => TombstoneReason::Deleted,
        t => return Err(corrupt(format!("unknown tombstone reason {t}"))),
    })
}

pub(crate) fn put_tuple(buf: &mut BytesMut, tuple: &Tuple) {
    let m = &tuple.meta;
    put_u64(buf, m.id.get());
    put_u64(buf, m.inserted_at.get());
    put_f64(buf, m.freshness.get());
    put_u8(buf, u8::from(m.infected));
    put_u64(buf, m.infected_at.map_or(u64::MAX, Tick::get));
    put_u64(buf, m.last_access.map_or(u64::MAX, Tick::get));
    put_u32(buf, m.access_count);
    put_u32(buf, tuple.values.len() as u32);
    for v in tuple.values.iter() {
        put_value(buf, v);
    }
}

pub(crate) fn get_tuple(buf: &mut Bytes) -> Result<Tuple> {
    let id = TupleId(get_u64(buf, "tuple id")?);
    let inserted_at = Tick(get_u64(buf, "inserted_at")?);
    let freshness = Freshness::new(get_f64(buf, "freshness")?);
    let infected = get_u8(buf, "infected")? != 0;
    let infected_at = match get_u64(buf, "infected_at")? {
        u64::MAX => None,
        t => Some(Tick(t)),
    };
    let last_access = match get_u64(buf, "last_access")? {
        u64::MAX => None,
        t => Some(Tick(t)),
    };
    let access_count = get_u32(buf, "access_count")?;
    let arity = get_u32(buf, "tuple arity")? as usize;
    if arity > 1 << 16 {
        return Err(corrupt(format!("implausible tuple arity {arity}")));
    }
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        values.push(get_value(buf)?);
    }
    let meta = TupleMeta {
        id,
        inserted_at,
        freshness,
        infected,
        infected_at,
        last_access,
        access_count,
    };
    Ok(Tuple {
        meta,
        values: values.into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_value(v: Value) {
        let mut buf = BytesMut::new();
        put_value(&mut buf, &v);
        let mut bytes = buf.freeze();
        assert_eq!(get_value(&mut bytes).unwrap(), v);
        assert_eq!(bytes.remaining(), 0, "no trailing bytes");
    }

    #[test]
    fn values_roundtrip() {
        roundtrip_value(Value::Null);
        roundtrip_value(Value::Bool(true));
        roundtrip_value(Value::Int(-42));
        roundtrip_value(Value::Int(i64::MIN));
        roundtrip_value(Value::Float(3.5));
        roundtrip_value(Value::from("héllo"));
        roundtrip_value(Value::Bytes(vec![0, 255, 7]));
    }

    #[test]
    fn schema_roundtrips() {
        let schema = Schema::new(vec![
            ColumnDef::required("a", DataType::Int),
            ColumnDef::nullable("b", DataType::Str),
        ])
        .unwrap();
        let mut buf = BytesMut::new();
        put_schema(&mut buf, &schema);
        let mut bytes = buf.freeze();
        assert_eq!(get_schema(&mut bytes).unwrap(), schema);
    }

    #[test]
    fn tuple_roundtrips_with_full_meta() {
        let mut t = Tuple::new(TupleId(7), Tick(3), vec![Value::Int(1), Value::Null]);
        t.meta.freshness = Freshness::new(0.25);
        t.meta.infect(Tick(5));
        t.meta.touch(Tick(6));
        let mut buf = BytesMut::new();
        put_tuple(&mut buf, &t);
        let mut bytes = buf.freeze();
        let back = get_tuple(&mut bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut buf = BytesMut::new();
        put_tuple(
            &mut buf,
            &Tuple::new(TupleId(0), Tick(0), vec![Value::Int(1)]),
        );
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut sliced = full.slice(..cut);
            let r = get_tuple(&mut sliced);
            assert!(r.is_err(), "cut at {cut} must fail cleanly");
        }
    }

    #[test]
    fn bad_tags_are_rejected() {
        let mut bytes = Bytes::from_static(&[9]);
        assert!(get_value(&mut bytes).is_err());
        let mut bytes = Bytes::from_static(&[7]);
        assert!(get_reason(&mut bytes).is_err());
        let mut bytes = Bytes::from_static(&[6]);
        assert!(get_data_type(&mut bytes).is_err());
    }

    #[test]
    fn reasons_roundtrip() {
        for r in [
            TombstoneReason::Consumed,
            TombstoneReason::Rotted,
            TombstoneReason::Deleted,
        ] {
            let mut buf = BytesMut::new();
            put_reason(&mut buf, r);
            let mut bytes = buf.freeze();
            assert_eq!(get_reason(&mut bytes).unwrap(), r);
        }
    }

    #[test]
    fn nan_float_decodes_as_null() {
        let mut buf = BytesMut::new();
        put_u8(&mut buf, 3);
        put_f64(&mut buf, f64::NAN);
        let mut bytes = buf.freeze();
        assert!(get_value(&mut bytes).unwrap().is_null());
    }
}
