//! A minimal JSON emitter over `serde::Serialize`, plus a parser.
//!
//! The approved dependency set includes `serde` but not `serde_json`;
//! this ~200-line serializer covers exactly the data model the report
//! types use. Non-finite floats serialize as `null`. The [`parse`]
//! half reads JSON back into a generic [`JsonValue`] tree — the
//! disk-persistent result cache and the [`crate::metric`] round-trip
//! path rebuild typed records from it.

use serde::ser::{self, Serialize};
use std::fmt;

/// Serialization failure (custom messages from Serialize impls).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json serialization error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl ser::Error for JsonError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        JsonError(msg.to_string())
    }
}

/// Serialize any `Serialize` value to a JSON string.
pub fn to_json_string<T: Serialize>(value: &T) -> Result<String, JsonError> {
    let mut out = String::new();
    value.serialize(&mut Emitter { out: &mut out })?;
    Ok(out)
}

pub(crate) fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Emitter<'a> {
    out: &'a mut String,
}

/// Compound-state helper shared by seq/map/struct serializers.
struct Compound<'a> {
    out: &'a mut String,
    first: bool,
    closer: char,
}

impl Compound<'_> {
    fn sep(&mut self) {
        if self.first {
            self.first = false;
        } else {
            self.out.push(',');
        }
    }
}

impl<'a> ser::Serializer for &'a mut Emitter<'_> {
    type Ok = ();
    type Error = JsonError;
    type SerializeSeq = Compound<'a>;
    type SerializeTuple = Compound<'a>;
    type SerializeTupleStruct = Compound<'a>;
    type SerializeTupleVariant = Compound<'a>;
    type SerializeMap = Compound<'a>;
    type SerializeStruct = Compound<'a>;
    type SerializeStructVariant = Compound<'a>;

    fn serialize_bool(self, v: bool) -> Result<(), JsonError> {
        self.out.push_str(if v { "true" } else { "false" });
        Ok(())
    }

    fn serialize_i8(self, v: i8) -> Result<(), JsonError> {
        self.serialize_i64(v as i64)
    }
    fn serialize_i16(self, v: i16) -> Result<(), JsonError> {
        self.serialize_i64(v as i64)
    }
    fn serialize_i32(self, v: i32) -> Result<(), JsonError> {
        self.serialize_i64(v as i64)
    }
    fn serialize_i64(self, v: i64) -> Result<(), JsonError> {
        self.out.push_str(&v.to_string());
        Ok(())
    }
    fn serialize_u8(self, v: u8) -> Result<(), JsonError> {
        self.serialize_u64(v as u64)
    }
    fn serialize_u16(self, v: u16) -> Result<(), JsonError> {
        self.serialize_u64(v as u64)
    }
    fn serialize_u32(self, v: u32) -> Result<(), JsonError> {
        self.serialize_u64(v as u64)
    }
    fn serialize_u64(self, v: u64) -> Result<(), JsonError> {
        self.out.push_str(&v.to_string());
        Ok(())
    }
    fn serialize_f32(self, v: f32) -> Result<(), JsonError> {
        self.serialize_f64(v as f64)
    }
    fn serialize_f64(self, v: f64) -> Result<(), JsonError> {
        if v.is_finite() {
            self.out.push_str(&format!("{v}"));
        } else {
            self.out.push_str("null");
        }
        Ok(())
    }
    fn serialize_char(self, v: char) -> Result<(), JsonError> {
        escape_into(self.out, &v.to_string());
        Ok(())
    }
    fn serialize_str(self, v: &str) -> Result<(), JsonError> {
        escape_into(self.out, v);
        Ok(())
    }
    fn serialize_bytes(self, v: &[u8]) -> Result<(), JsonError> {
        let parts: Vec<String> = v.iter().map(|b| b.to_string()).collect();
        self.out.push('[');
        self.out.push_str(&parts.join(","));
        self.out.push(']');
        Ok(())
    }
    fn serialize_none(self) -> Result<(), JsonError> {
        self.out.push_str("null");
        Ok(())
    }
    fn serialize_some<T: ?Sized + Serialize>(self, value: &T) -> Result<(), JsonError> {
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<(), JsonError> {
        self.out.push_str("null");
        Ok(())
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), JsonError> {
        self.serialize_unit()
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
    ) -> Result<(), JsonError> {
        escape_into(self.out, variant);
        Ok(())
    }
    fn serialize_newtype_struct<T: ?Sized + Serialize>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), JsonError> {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: ?Sized + Serialize>(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<(), JsonError> {
        self.out.push('{');
        escape_into(self.out, variant);
        self.out.push(':');
        value.serialize(&mut Emitter { out: self.out })?;
        self.out.push('}');
        Ok(())
    }
    fn serialize_seq(self, _len: Option<usize>) -> Result<Compound<'a>, JsonError> {
        self.out.push('[');
        Ok(Compound {
            out: self.out,
            first: true,
            closer: ']',
        })
    }
    fn serialize_tuple(self, len: usize) -> Result<Compound<'a>, JsonError> {
        self.serialize_seq(Some(len))
    }
    fn serialize_tuple_struct(
        self,
        _name: &'static str,
        len: usize,
    ) -> Result<Compound<'a>, JsonError> {
        self.serialize_seq(Some(len))
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'a>, JsonError> {
        self.out.push('{');
        escape_into(self.out, variant);
        self.out.push_str(":[");
        Ok(Compound {
            out: self.out,
            first: true,
            closer: '!',
        }) // '!' = ]}
    }
    fn serialize_map(self, _len: Option<usize>) -> Result<Compound<'a>, JsonError> {
        self.out.push('{');
        Ok(Compound {
            out: self.out,
            first: true,
            closer: '}',
        })
    }
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Compound<'a>, JsonError> {
        self.out.push('{');
        Ok(Compound {
            out: self.out,
            first: true,
            closer: '}',
        })
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'a>, JsonError> {
        self.out.push('{');
        escape_into(self.out, variant);
        self.out.push_str(":{");
        Ok(Compound {
            out: self.out,
            first: true,
            closer: '?',
        }) // '?' = }}
    }
}

impl ser::SerializeSeq for Compound<'_> {
    type Ok = ();
    type Error = JsonError;
    fn serialize_element<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), JsonError> {
        self.sep();
        value.serialize(&mut Emitter { out: self.out })
    }
    fn end(self) -> Result<(), JsonError> {
        finish(self)
    }
}

impl ser::SerializeTuple for Compound<'_> {
    type Ok = ();
    type Error = JsonError;
    fn serialize_element<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), JsonError> {
        ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result<(), JsonError> {
        finish(self)
    }
}

impl ser::SerializeTupleStruct for Compound<'_> {
    type Ok = ();
    type Error = JsonError;
    fn serialize_field<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), JsonError> {
        ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result<(), JsonError> {
        finish(self)
    }
}

impl ser::SerializeTupleVariant for Compound<'_> {
    type Ok = ();
    type Error = JsonError;
    fn serialize_field<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), JsonError> {
        ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result<(), JsonError> {
        finish(self)
    }
}

impl ser::SerializeMap for Compound<'_> {
    type Ok = ();
    type Error = JsonError;
    fn serialize_key<T: ?Sized + Serialize>(&mut self, key: &T) -> Result<(), JsonError> {
        self.sep();
        // JSON keys must be strings; serialize and trust the caller used a
        // string-like key (report types do).
        key.serialize(&mut Emitter { out: self.out })
    }
    fn serialize_value<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), JsonError> {
        self.out.push(':');
        value.serialize(&mut Emitter { out: self.out })
    }
    fn end(self) -> Result<(), JsonError> {
        finish(self)
    }
}

impl ser::SerializeStruct for Compound<'_> {
    type Ok = ();
    type Error = JsonError;
    fn serialize_field<T: ?Sized + Serialize>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), JsonError> {
        self.sep();
        escape_into(self.out, key);
        self.out.push(':');
        value.serialize(&mut Emitter { out: self.out })
    }
    fn end(self) -> Result<(), JsonError> {
        finish(self)
    }
}

impl ser::SerializeStructVariant for Compound<'_> {
    type Ok = ();
    type Error = JsonError;
    fn serialize_field<T: ?Sized + Serialize>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), JsonError> {
        ser::SerializeStruct::serialize_field(self, key, value)
    }
    fn end(self) -> Result<(), JsonError> {
        finish(self)
    }
}

fn finish(compound: Compound<'_>) -> Result<(), JsonError> {
    match compound.closer {
        ']' => compound.out.push(']'),
        '}' => compound.out.push('}'),
        '!' => compound.out.push_str("]}"),
        '?' => compound.out.push_str("}}"),
        other => unreachable!("unknown closer {other}"),
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------------

/// A parsed JSON document.
///
/// Objects preserve key order (a `Vec` of pairs, not a map): the emitter
/// writes struct fields in declaration order and round-trip tests compare
/// re-emitted text byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. The source text is kept verbatim so 64-bit integers
    /// round-trip exactly (an eager `f64` would silently lose precision
    /// past 2^53).
    Number(JsonNumber),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

/// A JSON number, kept as its (validated) source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonNumber(String);

impl JsonNumber {
    /// The number as `f64` (always valid — the parser checked it).
    pub fn as_f64(&self) -> f64 {
        self.0.parse().expect("validated at parse time")
    }

    /// The number as `u64`, exactly — `None` if it is negative,
    /// fractional, in exponent form, or out of range.
    pub fn as_u64(&self) -> Option<u64> {
        self.0.parse().ok()
    }

    /// The number as `i64`, exactly — `None` if it is fractional, in
    /// exponent form, or out of range.
    pub fn as_i64(&self) -> Option<i64> {
        self.0.parse().ok()
    }
}

impl JsonValue {
    /// A number value from an `f64`. Non-finite input becomes `null`,
    /// exactly as the serde emitter writes it: JSON has no NaN or
    /// infinity.
    pub fn number(value: f64) -> JsonValue {
        if value.is_finite() {
            JsonValue::Number(JsonNumber(format!("{value}")))
        } else {
            JsonValue::Null
        }
    }

    /// A number value from a `u64`, kept exact (no `f64` rounding).
    pub fn integer(value: u64) -> JsonValue {
        JsonValue::Number(JsonNumber(value.to_string()))
    }

    /// Re-emit this tree as JSON text. Numbers are written with their
    /// (validated) source text, so `parse` → `to_json_string` round-trips
    /// emitter output byte-for-byte — which is what lets wire envelopes
    /// carry embedded documents without perturbing value identity.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    pub(crate) fn emit_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Number(n) => out.push_str(&n.0),
            JsonValue::String(s) => escape_into(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.emit_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, key);
                    out.push(':');
                    value.emit_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The numeric payload as an exact `u64`, if this is a whole
    /// non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The numeric payload as an exact `i64`, if this is a whole number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }
}

/// Parse failure: what went wrong and the byte offset it went wrong at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

/// The deepest array/object nesting [`parse`] accepts. The parser
/// recurses once per level, so without a bound one hostile line of
/// `[[[[…` overflows the stack and aborts the process; every document
/// this workspace writes (cache files, specs, envelopes) nests fewer
/// than 16 levels.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected). Nesting deeper than [`MAX_DEPTH`] is an error.
pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err("trailing characters after document", pos));
    }
    Ok(value)
}

fn err(message: &str, offset: usize) -> JsonParseError {
    JsonParseError {
        message: message.to_string(),
        offset,
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), JsonParseError> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(err(&format!("expected '{}'", byte as char), *pos))
    }
}

/// `depth` counts the containers enclosing the value at `pos`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err("unexpected end of input", *pos)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'"') => Ok(JsonValue::String(parse_string(bytes, pos)?)),
        Some(b'[' | b'{') if depth == MAX_DEPTH => Err(err(
            &format!("nesting deeper than {MAX_DEPTH} levels"),
            *pos,
        )),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: JsonValue,
) -> Result<JsonValue, JsonParseError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(err(&format!("expected '{literal}'"), *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii digits");
    // Validate as f64; keep the exact text for lossless integer access.
    text.parse::<f64>()
        .map(|_| JsonValue::Number(JsonNumber(text.to_string())))
        .map_err(|_| err(&format!("invalid number '{text}'"), start))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonParseError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| err("truncated \\u escape", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err("invalid \\u escape", *pos))?;
                        // The emitter only writes \u for control chars; a
                        // lone surrogate is replaced rather than rejected.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err("invalid escape", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole contiguous unescaped span in one go.
                // The input came in as `&str` and `"`/`\` are ASCII, so
                // the span boundaries sit on char boundaries and the
                // slice is valid UTF-8 by construction.
                let start = *pos;
                while *pos < bytes.len() && bytes[*pos] != b'"' && bytes[*pos] != b'\\' {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&bytes[start..*pos]).expect("input is a valid &str"),
                );
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonParseError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(err("expected ',' or ']'", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonParseError> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(fields));
            }
            _ => return Err(err("expected ',' or '}'", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;
    use std::collections::BTreeMap;

    #[derive(Serialize)]
    struct Point {
        chip: String,
        n: u64,
        gflops: f64,
        verified: Option<bool>,
    }

    #[derive(Serialize)]
    enum Kind {
        Unit,
        Newtype(u32),
        Tuple(u32, u32),
        Struct { x: u32 },
    }

    #[test]
    fn structs_and_options() {
        let p = Point {
            chip: "M1".into(),
            n: 256,
            gflops: 123.5,
            verified: Some(true),
        };
        assert_eq!(
            to_json_string(&p).unwrap(),
            r#"{"chip":"M1","n":256,"gflops":123.5,"verified":true}"#
        );
        let p = Point {
            chip: "M2".into(),
            n: 1,
            gflops: f64::NAN,
            verified: None,
        };
        assert_eq!(
            to_json_string(&p).unwrap(),
            r#"{"chip":"M2","n":1,"gflops":null,"verified":null}"#
        );
    }

    #[test]
    fn sequences_and_maps() {
        assert_eq!(to_json_string(&vec![1, 2, 3]).unwrap(), "[1,2,3]");
        let mut map = BTreeMap::new();
        map.insert("a".to_string(), 1.5);
        map.insert("b".to_string(), 2.0);
        assert_eq!(to_json_string(&map).unwrap(), r#"{"a":1.5,"b":2}"#);
        assert_eq!(to_json_string(&(1, "two", 3.0)).unwrap(), r#"[1,"two",3]"#);
    }

    #[test]
    fn enum_variants() {
        assert_eq!(to_json_string(&Kind::Unit).unwrap(), r#""Unit""#);
        assert_eq!(
            to_json_string(&Kind::Newtype(5)).unwrap(),
            r#"{"Newtype":5}"#
        );
        assert_eq!(
            to_json_string(&Kind::Tuple(1, 2)).unwrap(),
            r#"{"Tuple":[1,2]}"#
        );
        assert_eq!(
            to_json_string(&Kind::Struct { x: 9 }).unwrap(),
            r#"{"Struct":{"x":9}}"#
        );
    }

    #[test]
    fn string_escaping() {
        assert_eq!(
            to_json_string(&"say \"hi\"\n").unwrap(),
            r#""say \"hi\"\n""#
        );
        assert_eq!(to_json_string(&'\t').unwrap(), r#""\t""#);
        assert_eq!(to_json_string(&"\u{1}").unwrap(), "\"\\u0001\"");
    }

    #[test]
    fn scalars() {
        assert_eq!(to_json_string(&true).unwrap(), "true");
        assert_eq!(to_json_string(&-42i32).unwrap(), "-42");
        assert_eq!(to_json_string(&3.25f32).unwrap(), "3.25");
        assert_eq!(to_json_string(&()).unwrap(), "null");
    }

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("-2.5e2").unwrap().as_f64(), Some(-250.0));
        let array = parse(r#"[1,"two",null]"#).unwrap();
        let items = array.as_array().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].as_f64(), Some(1.0));
        assert_eq!(items[1].as_str(), Some("two"));
        assert!(items[2].is_null());
        let object = parse(r#"{"a":1,"b":[true]}"#).unwrap();
        assert_eq!(object.get("a").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(
            object
                .get("b")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(1)
        );
        assert!(object.get("missing").is_none());
    }

    #[test]
    fn large_integers_survive_parsing_exactly() {
        let value = parse("12797480707342861577").unwrap();
        assert_eq!(value.as_u64(), Some(12797480707342861577));
        let value = parse("-9223372036854775807").unwrap();
        assert_eq!(value.as_i64(), Some(-9223372036854775807));
        // f64 access still works, merely rounded.
        assert!(value.as_f64().unwrap() < -9.2e18);
        // Fractional numbers refuse exact-integer access.
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn parses_escapes_and_unicode() {
        assert_eq!(
            parse(r#""say \"hi\"\nA tschüß""#).unwrap(),
            JsonValue::String("say \"hi\"\nA tschüß".into())
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\":}", "nul", "1 2", "\"open"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let shapes: [fn(usize) -> String; 2] = [
            |depth| format!("{}{}", "[".repeat(depth), "]".repeat(depth)),
            |depth| format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth)),
        ];
        for nested in shapes {
            assert!(parse(&nested(MAX_DEPTH)).is_ok());
            let error = parse(&nested(MAX_DEPTH + 1)).expect_err("one level too deep");
            assert!(error.message.contains("nesting"), "{error}");
        }
        // A depth bomb far past the bound stops at the first level too
        // deep instead of overflowing the stack.
        let error = parse(&"[".repeat(200_000)).expect_err("depth bomb");
        assert_eq!(error.offset, MAX_DEPTH);
    }

    #[test]
    fn reemission_round_trips_byte_for_byte() {
        for text in [
            "null",
            "true",
            r#"{"a":1.5,"b":[1,"two",null],"c":{"d":12797480707342861577}}"#,
            r#"["say \"hi\"\n",-2.5e2,0.1]"#,
        ] {
            assert_eq!(parse(text).unwrap().to_json_string(), text);
        }
        assert_eq!(
            JsonValue::integer(u64::MAX).to_json_string(),
            u64::MAX.to_string()
        );
    }

    #[test]
    fn emit_parse_round_trips_emitter_output() {
        let p = Point {
            chip: "M1 \"quoted\"\n".into(),
            n: 256,
            gflops: 123.456789,
            verified: None,
        };
        let text = to_json_string(&p).unwrap();
        let value = parse(&text).unwrap();
        assert_eq!(
            value.get("chip").and_then(JsonValue::as_str),
            Some("M1 \"quoted\"\n")
        );
        assert_eq!(
            value.get("gflops").and_then(JsonValue::as_f64),
            Some(123.456789)
        );
        assert!(value.get("verified").unwrap().is_null());
    }
}
