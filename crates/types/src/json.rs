//! A minimal JSON codec over the serde data model.
//!
//! The workspace's dependency policy admits `serde` but no JSON crate, yet
//! checkpoint manifests and experiment configs want a human-readable
//! encoding of policy types. This module implements the required subset of
//! JSON — objects, arrays, strings, numbers, booleans, null, and serde's
//! externally-tagged enum convention — for any `Serialize`/`Deserialize`
//! type built from those pieces.
//!
//! It is not a general-purpose JSON library: map keys must be strings,
//! non-finite floats are rejected at serialisation (JSON has no NaN), and
//! byte strings encode as arrays of numbers.

use std::collections::BTreeMap;
use std::fmt;

use serde::de::{
    self, DeserializeOwned, EnumAccess, IntoDeserializer, MapAccess, SeqAccess, VariantAccess,
    Visitor,
};
use serde::ser::{self, Serialize};

use crate::error::{FungusError, Result};

fn err(msg: impl Into<String>) -> FungusError {
    FungusError::CorruptSnapshot(msg.into())
}

// ===================================================================
// Parsed JSON tree
// ===================================================================

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as f64; integers round-trip up to 2^53,
    /// which covers every config field in the workspace).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (sorted keys, deterministic output).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

// ===================================================================
// Text → tree
// ===================================================================

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, msg: &str) -> FungusError {
        err(format!("json parse error at byte {}: {msg}", self.pos))
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<()> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", c as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self
            .peek()
            .ok_or_else(|| self.error("unexpected end of input"))?
        {
            b'n' => {
                if self.eat_literal("null") {
                    Ok(Json::Null)
                } else {
                    Err(self.error("bad literal"))
                }
            }
            b't' => {
                if self.eat_literal("true") {
                    Ok(Json::Bool(true))
                } else {
                    Err(self.error("bad literal"))
                }
            }
            b'f' => {
                if self.eat_literal("false") {
                    Ok(Json::Bool(false))
                } else {
                    Err(self.error("bad literal"))
                }
            }
            b'"' => self.string().map(Json::Str),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.error("expected `,` or `]`")),
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    let value = self.value()?;
                    map.insert(key, value);
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(map));
                        }
                        _ => return Err(self.error("expected `,` or `}`")),
                    }
                }
            }
            c if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(self.error(&format!("unexpected `{}`", other as char))),
        }
    }

    fn string(&mut self) -> Result<String> {
        if self.peek() != Some(b'"') {
            return Err(self.error("expected string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let Some(&c) = self.bytes.get(self.pos) else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.error("dangling escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| self.error("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid codepoint"))?,
                            );
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                _ => {
                    // Copy the full UTF-8 character starting at c.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.error("invalid utf8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("bad number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error(&format!("bad number `{text}`")))
    }
}

/// Parses a JSON document into a [`Json`] tree.
pub fn parse(src: &str) -> Result<Json> {
    let mut p = Parser::new(src);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(v)
}

// ===================================================================
// Tree → text
// ===================================================================

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = String::new();
        render(self, &mut buf);
        f.write_str(&buf)
    }
}

fn render(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9.0e15 {
                out.push_str(&format!("{}", *n as i64));
            } else {
                out.push_str(&format!("{n}"));
            }
        }
        Json::Str(s) => write_escaped(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, out);
            }
            out.push(']');
        }
        Json::Obj(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                render(v, out);
            }
            out.push('}');
        }
    }
}

// ===================================================================
// Serialize → tree
// ===================================================================

impl ser::Error for FungusError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        err(format!("serialize: {msg}"))
    }
}

impl de::Error for FungusError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        err(format!("deserialize: {msg}"))
    }
}

struct JsonSer;

macro_rules! ser_num {
    ($method:ident, $ty:ty) => {
        fn $method(self, v: $ty) -> Result<Json> {
            Ok(Json::Num(v as f64))
        }
    };
}

impl ser::Serializer for JsonSer {
    type Ok = Json;
    type Error = FungusError;
    type SerializeSeq = SeqSer;
    type SerializeTuple = SeqSer;
    type SerializeTupleStruct = SeqSer;
    type SerializeTupleVariant = VariantSeqSer;
    type SerializeMap = MapSer;
    type SerializeStruct = MapSer;
    type SerializeStructVariant = VariantMapSer;

    fn serialize_bool(self, v: bool) -> Result<Json> {
        Ok(Json::Bool(v))
    }

    ser_num!(serialize_i8, i8);
    ser_num!(serialize_i16, i16);
    ser_num!(serialize_i32, i32);
    ser_num!(serialize_i64, i64);
    ser_num!(serialize_u8, u8);
    ser_num!(serialize_u16, u16);
    ser_num!(serialize_u32, u32);
    ser_num!(serialize_u64, u64);
    ser_num!(serialize_f32, f32);

    fn serialize_f64(self, v: f64) -> Result<Json> {
        if v.is_finite() {
            Ok(Json::Num(v))
        } else {
            Err(err("JSON cannot encode non-finite floats"))
        }
    }

    fn serialize_char(self, v: char) -> Result<Json> {
        Ok(Json::Str(v.to_string()))
    }

    fn serialize_str(self, v: &str) -> Result<Json> {
        Ok(Json::Str(v.to_string()))
    }

    fn serialize_bytes(self, v: &[u8]) -> Result<Json> {
        Ok(Json::Arr(
            v.iter().map(|b| Json::Num(f64::from(*b))).collect(),
        ))
    }

    fn serialize_none(self) -> Result<Json> {
        Ok(Json::Null)
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<Json> {
        value.serialize(JsonSer)
    }

    fn serialize_unit(self) -> Result<Json> {
        Ok(Json::Null)
    }

    fn serialize_unit_struct(self, _name: &'static str) -> Result<Json> {
        Ok(Json::Null)
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
    ) -> Result<Json> {
        Ok(Json::Str(variant.to_string()))
    }

    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<Json> {
        value.serialize(JsonSer)
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<Json> {
        let mut map = BTreeMap::new();
        map.insert(variant.to_string(), value.serialize(JsonSer)?);
        Ok(Json::Obj(map))
    }

    fn serialize_seq(self, len: Option<usize>) -> Result<SeqSer> {
        Ok(SeqSer {
            items: Vec::with_capacity(len.unwrap_or(0)),
        })
    }

    fn serialize_tuple(self, len: usize) -> Result<SeqSer> {
        self.serialize_seq(Some(len))
    }

    fn serialize_tuple_struct(self, _name: &'static str, len: usize) -> Result<SeqSer> {
        self.serialize_seq(Some(len))
    }

    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<VariantSeqSer> {
        Ok(VariantSeqSer {
            variant,
            items: Vec::with_capacity(len),
        })
    }

    fn serialize_map(self, _len: Option<usize>) -> Result<MapSer> {
        Ok(MapSer {
            map: BTreeMap::new(),
            pending: None,
        })
    }

    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<MapSer> {
        self.serialize_map(None)
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<VariantMapSer> {
        Ok(VariantMapSer {
            variant,
            map: BTreeMap::new(),
        })
    }
}

struct SeqSer {
    items: Vec<Json>,
}

impl ser::SerializeSeq for SeqSer {
    type Ok = Json;
    type Error = FungusError;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.items.push(value.serialize(JsonSer)?);
        Ok(())
    }

    fn end(self) -> Result<Json> {
        Ok(Json::Arr(self.items))
    }
}

impl ser::SerializeTuple for SeqSer {
    type Ok = Json;
    type Error = FungusError;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        ser::SerializeSeq::serialize_element(self, value)
    }

    fn end(self) -> Result<Json> {
        ser::SerializeSeq::end(self)
    }
}

impl ser::SerializeTupleStruct for SeqSer {
    type Ok = Json;
    type Error = FungusError;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        ser::SerializeSeq::serialize_element(self, value)
    }

    fn end(self) -> Result<Json> {
        ser::SerializeSeq::end(self)
    }
}

struct VariantSeqSer {
    variant: &'static str,
    items: Vec<Json>,
}

impl ser::SerializeTupleVariant for VariantSeqSer {
    type Ok = Json;
    type Error = FungusError;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.items.push(value.serialize(JsonSer)?);
        Ok(())
    }

    fn end(self) -> Result<Json> {
        let mut map = BTreeMap::new();
        map.insert(self.variant.to_string(), Json::Arr(self.items));
        Ok(Json::Obj(map))
    }
}

struct MapSer {
    map: BTreeMap<String, Json>,
    pending: Option<String>,
}

impl ser::SerializeMap for MapSer {
    type Ok = Json;
    type Error = FungusError;

    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<()> {
        match key.serialize(JsonSer)? {
            Json::Str(s) => {
                self.pending = Some(s);
                Ok(())
            }
            other => Err(err(format!(
                "map keys must be strings, got {}",
                other.type_name()
            ))),
        }
    }

    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        let key = self
            .pending
            .take()
            .ok_or_else(|| err("value without key"))?;
        self.map.insert(key, value.serialize(JsonSer)?);
        Ok(())
    }

    fn end(self) -> Result<Json> {
        Ok(Json::Obj(self.map))
    }
}

impl ser::SerializeStruct for MapSer {
    type Ok = Json;
    type Error = FungusError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<()> {
        self.map.insert(key.to_string(), value.serialize(JsonSer)?);
        Ok(())
    }

    fn end(self) -> Result<Json> {
        Ok(Json::Obj(self.map))
    }
}

struct VariantMapSer {
    variant: &'static str,
    map: BTreeMap<String, Json>,
}

impl ser::SerializeStructVariant for VariantMapSer {
    type Ok = Json;
    type Error = FungusError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<()> {
        self.map.insert(key.to_string(), value.serialize(JsonSer)?);
        Ok(())
    }

    fn end(self) -> Result<Json> {
        let mut outer = BTreeMap::new();
        outer.insert(self.variant.to_string(), Json::Obj(self.map));
        Ok(Json::Obj(outer))
    }
}

// ===================================================================
// Tree → Deserialize
// ===================================================================

impl<'de> de::Deserializer<'de> for Json {
    type Error = FungusError;

    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        match self {
            Json::Null => visitor.visit_unit(),
            Json::Bool(b) => visitor.visit_bool(b),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() <= 9.0e15 {
                    if n >= 0.0 {
                        visitor.visit_u64(n as u64)
                    } else {
                        visitor.visit_i64(n as i64)
                    }
                } else {
                    visitor.visit_f64(n)
                }
            }
            Json::Str(s) => visitor.visit_string(s),
            Json::Arr(items) => {
                let mut access = SeqDeser {
                    iter: items.into_iter(),
                };
                visitor.visit_seq(&mut access)
            }
            Json::Obj(map) => {
                let mut access = MapDeser {
                    iter: map.into_iter(),
                    pending: None,
                };
                visitor.visit_map(&mut access)
            }
        }
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        match self {
            Json::Null => visitor.visit_none(),
            other => visitor.visit_some(other),
        }
    }

    fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        match self {
            Json::Num(n) => visitor.visit_f64(n),
            other => Err(err(format!("expected number, got {}", other.type_name()))),
        }
    }

    fn deserialize_f32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        self.deserialize_f64(visitor)
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value> {
        match self {
            // Unit variant: "Name".
            Json::Str(s) => visitor.visit_enum(EnumDeser {
                variant: s,
                value: None,
            }),
            // Tagged variant: {"Name": payload}.
            Json::Obj(map) => {
                let mut iter = map.into_iter();
                let (variant, value) = iter.next().ok_or_else(|| err("empty enum object"))?;
                if iter.next().is_some() {
                    return Err(err("enum object must have exactly one key"));
                }
                visitor.visit_enum(EnumDeser {
                    variant,
                    value: Some(value),
                })
            }
            other => Err(err(format!("expected enum, got {}", other.type_name()))),
        }
    }

    serde::forward_to_deserialize_any! {
        bool i8 i16 i32 i64 i128 u8 u16 u32 u64 u128 char str string bytes
        byte_buf unit unit_struct seq tuple tuple_struct map struct
        identifier ignored_any
    }
}

struct SeqDeser {
    iter: std::vec::IntoIter<Json>,
}

impl<'de> SeqAccess<'de> for SeqDeser {
    type Error = FungusError;

    fn next_element_seed<T: de::DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>> {
        match self.iter.next() {
            Some(v) => seed.deserialize(v).map(Some),
            None => Ok(None),
        }
    }
}

struct MapDeser {
    iter: std::collections::btree_map::IntoIter<String, Json>,
    pending: Option<Json>,
}

impl<'de> MapAccess<'de> for MapDeser {
    type Error = FungusError;

    fn next_key_seed<K: de::DeserializeSeed<'de>>(&mut self, seed: K) -> Result<Option<K::Value>> {
        match self.iter.next() {
            Some((k, v)) => {
                self.pending = Some(v);
                seed.deserialize(Json::Str(k).into_deserializer()).map(Some)
            }
            None => Ok(None),
        }
    }

    fn next_value_seed<V: de::DeserializeSeed<'de>>(&mut self, seed: V) -> Result<V::Value> {
        let v = self
            .pending
            .take()
            .ok_or_else(|| err("value without key"))?;
        seed.deserialize(v)
    }
}

impl<'de> IntoDeserializer<'de, FungusError> for Json {
    type Deserializer = Json;

    fn into_deserializer(self) -> Json {
        self
    }
}

struct EnumDeser {
    variant: String,
    value: Option<Json>,
}

impl<'de> EnumAccess<'de> for EnumDeser {
    type Error = FungusError;
    type Variant = VariantDeser;

    fn variant_seed<V: de::DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, VariantDeser)> {
        let variant = seed.deserialize(Json::Str(self.variant).into_deserializer())?;
        Ok((variant, VariantDeser { value: self.value }))
    }
}

struct VariantDeser {
    value: Option<Json>,
}

impl<'de> VariantAccess<'de> for VariantDeser {
    type Error = FungusError;

    fn unit_variant(self) -> Result<()> {
        match self.value {
            None | Some(Json::Null) => Ok(()),
            Some(other) => Err(err(format!(
                "unit variant carries unexpected {} payload",
                other.type_name()
            ))),
        }
    }

    fn newtype_variant_seed<T: de::DeserializeSeed<'de>>(self, seed: T) -> Result<T::Value> {
        let value = self
            .value
            .ok_or_else(|| err("newtype variant missing payload"))?;
        seed.deserialize(value)
    }

    fn tuple_variant<V: Visitor<'de>>(self, _len: usize, visitor: V) -> Result<V::Value> {
        match self.value {
            Some(Json::Arr(items)) => {
                let mut access = SeqDeser {
                    iter: items.into_iter(),
                };
                visitor.visit_seq(&mut access)
            }
            _ => Err(err("tuple variant missing array payload")),
        }
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        _fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value> {
        match self.value {
            Some(Json::Obj(map)) => {
                let mut access = MapDeser {
                    iter: map.into_iter(),
                    pending: None,
                };
                visitor.visit_map(&mut access)
            }
            _ => Err(err("struct variant missing object payload")),
        }
    }
}

// ===================================================================
// Public API
// ===================================================================

/// Serialises any supported value to compact JSON text.
pub fn to_string<T: Serialize>(value: &T) -> Result<String> {
    Ok(value.serialize(JsonSer)?.to_string())
}

/// Deserialises a value from JSON text.
pub fn from_str<T: DeserializeOwned>(src: &str) -> Result<T> {
    T::deserialize(parse(src)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Fixture {
        Unit,
        Newtype(u64),
        Tuple(i32, String),
        Struct { a: f64, b: Option<bool>, c: Vec<u8> },
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Nested {
        name: String,
        items: Vec<Fixture>,
        lookup: BTreeMap<String, i64>,
        maybe: Option<Box<Nested>>,
    }

    fn roundtrip<T: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug>(v: &T) {
        let text = to_string(v).unwrap();
        let back: T = from_str(&text).unwrap();
        assert_eq!(&back, v, "via {text}");
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(&true);
        roundtrip(&42u64);
        roundtrip(&-42i64);
        roundtrip(&1.5f64);
        roundtrip(&"hé\"llo\n".to_string());
        roundtrip(&Option::<u32>::None);
        roundtrip(&Some(7u32));
        roundtrip(&vec![1u8, 2, 3]);
    }

    #[test]
    fn enums_roundtrip_in_every_shape() {
        roundtrip(&Fixture::Unit);
        roundtrip(&Fixture::Newtype(9));
        roundtrip(&Fixture::Tuple(-3, "x".into()));
        roundtrip(&Fixture::Struct {
            a: 0.5,
            b: Some(false),
            c: vec![1, 2],
        });
        assert_eq!(to_string(&Fixture::Unit).unwrap(), "\"Unit\"");
        assert_eq!(to_string(&Fixture::Newtype(9)).unwrap(), "{\"Newtype\":9}");
    }

    #[test]
    fn nested_structures_roundtrip() {
        let v = Nested {
            name: "outer".into(),
            items: vec![
                Fixture::Unit,
                Fixture::Struct {
                    a: 1.25,
                    b: None,
                    c: vec![],
                },
            ],
            lookup: [("k1".to_string(), 1i64), ("k2".to_string(), -2)]
                .into_iter()
                .collect(),
            maybe: Some(Box::new(Nested {
                name: "inner".into(),
                items: vec![],
                lookup: BTreeMap::new(),
                maybe: None,
            })),
        };
        roundtrip(&v);
    }

    #[test]
    fn real_policy_types_roundtrip() {
        // The actual use case: fungus/storage policy types.
        use crate::schema::{ColumnDef, Schema};
        use crate::value::DataType;
        let schema = Schema::new(vec![
            ColumnDef::required("a", DataType::Int),
            ColumnDef::nullable("b", DataType::Str),
        ])
        .unwrap();
        roundtrip(&schema);
        roundtrip(&crate::freshness::Freshness::new(0.5));
        roundtrip(&crate::time::Tick(42));
    }

    #[test]
    fn shared_slices_roundtrip_as_plain_sequences() {
        use crate::{Tick, Tuple, TupleId, Value};
        use std::sync::Arc;
        let shared: Arc<[i64]> = vec![3, -1, 4].into();
        assert_eq!(to_string(&shared).unwrap(), "[3,-1,4]");
        roundtrip(&shared);
        roundtrip(&Arc::<[String]>::from(Vec::new()));
        // The two `Arc<[T]>` fields the engine has: a tuple's attribute
        // values and a schema's columns (covered above).
        roundtrip(&Tuple::new(
            TupleId(7),
            Tick(3),
            vec![Value::Int(1), Value::from("a"), Value::Null],
        ));
    }

    #[test]
    fn parse_errors_are_clean() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("1 2").is_err(), "trailing content");
        assert!(parse("{\"a\" 1}").is_err(), "missing colon");
        assert!(parse("--3").is_err());
        assert!(from_str::<u64>("\"not a number\"").is_err());
        assert!(from_str::<Fixture>("{\"Unit\":1,\"Extra\":2}").is_err());
    }

    #[test]
    fn whitespace_and_escapes_parse() {
        let v = parse("  { \"a\" : [ 1 , true , null ] , \"b\\n\" : \"\\u0041\" } ").unwrap();
        match v {
            Json::Obj(map) => {
                assert_eq!(map.get("b\n"), Some(&Json::Str("A".into())));
                assert_eq!(
                    map.get("a"),
                    Some(&Json::Arr(vec![
                        Json::Num(1.0),
                        Json::Bool(true),
                        Json::Null
                    ]))
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn non_finite_floats_are_rejected() {
        assert!(to_string(&f64::NAN).is_err());
        assert!(to_string(&f64::INFINITY).is_err());
    }

    #[test]
    fn output_is_deterministic() {
        let v = Nested {
            name: "d".into(),
            items: vec![],
            lookup: [("z".to_string(), 1i64), ("a".to_string(), 2)]
                .into_iter()
                .collect(),
            maybe: None,
        };
        assert_eq!(to_string(&v).unwrap(), to_string(&v).unwrap());
        // Keys come out sorted.
        let text = to_string(&v).unwrap();
        assert!(text.find("\"a\"").unwrap() < text.find("\"z\"").unwrap());
    }
}
