//! Hand-rolled JSON for the FedL workspace.
//!
//! A tiny reader/writer replacing `serde`/`serde_json` so the workspace
//! builds with zero registry dependencies (see `docs/BUILD.md`). It
//! covers exactly what the repo needs — learner checkpoints, run traces
//! (JSON lines), and the figure results pipeline — while keeping the
//! emitted bytes compatible with what `serde_json` produced:
//!
//! * objects preserve insertion order (serde emits struct fields in
//!   declaration order);
//! * [`Value::to_json_pretty`](Value::to_json_pretty) uses serde_json's pretty layout
//!   (two-space indent, `": "` separators);
//! * floats print in shortest-roundtrip form with a trailing `.0` for
//!   integral values, integers print without a fraction, and non-finite
//!   floats serialize as `null` — all serde_json behaviors.
//!
//! The conversion traits [`ToJson`]/[`FromJson`] play the role of
//! `Serialize`/`Deserialize`; types implement them by hand (the structs
//! involved are small and change rarely).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON document.
///
/// Objects are stored as insertion-ordered `(key, value)` pairs rather
/// than a map: the workspace writes small fixed-shape objects where
/// field order carries the serde struct-field order we want to
/// reproduce, and linear key lookup is faster than hashing at these
/// sizes anyway.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without a fractional part or exponent, e.g. `42`.
    Int(i64),
    /// Any other number, e.g. `0.5` or `1e-3`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (insertion-ordered key/value pairs).
    Obj(Vec<(String, Value)>),
}

/// Error produced by [`Value::parse`] or a [`FromJson`] conversion.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    msg: String,
    /// Byte offset in the input for parse errors; `None` for shape
    /// errors raised during conversion.
    offset: Option<usize>,
}

impl Error {
    /// A conversion ("wrong shape") error.
    pub fn msg(msg: impl Into<String>) -> Self {
        Self { msg: msg.into(), offset: None }
    }

    fn at(msg: impl Into<String>, offset: usize) -> Self {
        Self { msg: msg.into(), offset: Some(offset) }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(o) => write!(f, "{} at byte {o}", self.msg),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl std::error::Error for Error {}

// ---------------------------------------------------------------------------
// Construction and access helpers
// ---------------------------------------------------------------------------

impl Value {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member of an object by key (first match), or `None`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required object member, as an [`Error`] when absent.
    pub fn field(&self, key: &str) -> Result<&Value, Error> {
        self.get(key).ok_or_else(|| Error::msg(format!("missing field `{key}`")))
    }

    /// Numeric value as `f64` (`Int` and `Float` both qualify; `null`
    /// reads as NaN, the inverse of writing non-finite floats as null).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::Float(f) => Some(f),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// Integer value, if the number is integral.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(i) => Some(i),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < i64::MAX as f64 => Some(f as i64),
            _ => None,
        }
    }

    /// Non-negative integer as `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_i64().and_then(|i| usize::try_from(i).ok())
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// String contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<usize> for Value {
    fn from(u: usize) -> Self {
        Value::Int(u as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<f32> for Value {
    fn from(f: f32) -> Self {
        Value::Float(f as f64)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Writes a float the way serde_json does: shortest-roundtrip digits,
/// a trailing `.0` for integral finite values, `null` for NaN/inf.
fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    use fmt::Write as _;
    write!(out, "{v}").expect("write to String cannot fail");
    if !out[start..].bytes().any(|b| b == b'.' || b == b'e' || b == b'E') {
        out.push_str(".0");
    }
}

/// `0x01` in every byte of a word.
const LO: u64 = 0x0101_0101_0101_0101;

/// Eight bytes as one little-endian word.
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

/// Whether some byte of `word` is below `n`, by the classic SWAR test.
/// Exact for `n ≤ 128`: a borrow can only flag bytes above a true hit.
/// A byte equal to `c` is a zero byte of `word ^ c·LO`.
fn any_byte_below(word: u64, n: u8) -> bool {
    word.wrapping_sub(LO * u64::from(n)) & !word & (LO << 7) != 0
}

/// Whether any of the eight bytes packed in `word` needs escaping in a
/// JSON string: a control byte (< 0x20), `"` or `\`.
fn any_needs_escape(word: u64) -> bool {
    any_byte_below(word, 0x20) || any_quote_or_backslash(word)
}

/// Whether any of the eight bytes packed in `word` is `"` or `\`: the
/// bytes that end an unescaped run in both the writer and the parser.
fn any_quote_or_backslash(word: u64) -> bool {
    any_byte_below(word ^ (LO * u64::from(b'"')), 1)
        || any_byte_below(word ^ (LO * u64::from(b'\\')), 1)
}

/// Length of the longest prefix of `bytes` with no `"` or `\`, found
/// eight bytes at a time.
fn unescaped_run(bytes: &[u8]) -> usize {
    let clean = 8 * bytes.chunks_exact(8).take_while(|w| !any_quote_or_backslash(word(w))).count();
    clean
        + bytes[clean..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(bytes.len() - clean)
}

/// Writes `s` as a quoted JSON string. Each run of bytes that needs no
/// escaping is copied as one slice, found eight bytes at a time; every
/// escaped byte is ASCII, so the runs end on char boundaries.
fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    out.push('"');
    let (mut run, mut i) = (0, 0);
    while i < bytes.len() {
        if bytes.get(i..i + 8).is_some_and(|w| !any_needs_escape(word(w))) {
            i += 8;
            continue;
        }
        let b = bytes[i];
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "\\u00",
            _ => {
                i += 1;
                continue;
            }
        };
        out.push_str(&s[run..i]);
        out.push_str(escape);
        if escape == "\\u00" {
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        }
        i += 1;
        run = i;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

impl Value {
    /// Compact serialization (serde_json `to_string` layout: no spaces).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Pretty serialization (serde_json `to_string_pretty` layout:
    /// two-space indent, `": "` after keys, one element per line).
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::Float(f) => write_f64(out, *f),
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        const INDENT: &str = "  ";
        match self {
            Value::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    for _ in 0..=depth {
                        out.push_str(INDENT);
                    }
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                for _ in 0..depth {
                    out.push_str(INDENT);
                }
                out.push(']');
            }
            Value::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    for _ in 0..=depth {
                        out.push_str(INDENT);
                    }
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                for _ in 0..depth {
                    out.push_str(INDENT);
                }
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::at(format!("expected `{}`", b as char), self.pos))
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

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            None => Err(Error::at("unexpected end of input", self.pos)),
            Some(b'n') => {
                if self.eat_literal("null") {
                    Ok(Value::Null)
                } else {
                    Err(Error::at("invalid literal", self.pos))
                }
            }
            Some(b't') => {
                if self.eat_literal("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(Error::at("invalid literal", self.pos))
                }
            }
            Some(b'f') => {
                if self.eat_literal("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(Error::at("invalid literal", self.pos))
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(Error::at(format!("unexpected byte `{}`", b as char), self.pos)),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(Error::at("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(Error::at("expected `,` or `}`", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(Error::at("unterminated string", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| Error::at("bad escape", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| Error::at("bad \\u escape", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::at("bad \\u escape", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs: only the BMP subset the
                            // writer emits is needed, but decode pairs
                            // anyway for robustness.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if !self.eat_literal("\\u") {
                                    return Err(Error::at("lone surrogate", self.pos));
                                }
                                let hex2 = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .ok_or_else(|| Error::at("bad \\u escape", self.pos))?;
                                let low = u32::from_str_radix(hex2, 16)
                                    .map_err(|_| Error::at("bad \\u escape", self.pos))?;
                                self.pos += 4;
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                code
                            };
                            out.push(
                                char::from_u32(c)
                                    .ok_or_else(|| Error::at("invalid codepoint", self.pos))?,
                            );
                        }
                        _ => return Err(Error::at("unknown escape", self.pos)),
                    }
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or backslash
                    // as one slice. Both are ASCII, so the run ends on a
                    // char boundary of the input `&str`, and validating it
                    // costs only its own length.
                    let start = self.pos;
                    let run = unescaped_run(&self.bytes[start..]);
                    let text = std::str::from_utf8(&self.bytes[start..start + run])
                        .map_err(|_| Error::at("invalid utf-8", start))?;
                    out.push_str(text);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::at(format!("bad number `{text}`"), start))
        } else {
            match text.parse::<i64>() {
                Ok(i) => Ok(Value::Int(i)),
                // Out-of-range integers degrade to float, as serde_json
                // does with arbitrary_precision off.
                Err(_) => text
                    .parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| Error::at(format!("bad number `{text}`"), start)),
            }
        }
    }
}

impl Value {
    /// Parses one JSON document (rejecting trailing garbage).
    pub fn parse(text: &str) -> Result<Value, Error> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(Error::at("trailing characters", p.pos));
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------------------
// Conversion traits
// ---------------------------------------------------------------------------

/// Conversion into a [`Value`] (the workspace's `Serialize`).
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json_value(&self) -> Value;
}

/// Conversion out of a [`Value`] (the workspace's `Deserialize`).
pub trait FromJson: Sized {
    /// Reconstructs `Self`, with an [`Error`] on shape mismatch.
    fn from_json_value(v: &Value) -> Result<Self, Error>;
}

impl ToJson for f64 {
    fn to_json_value(&self) -> Value {
        Value::Float(*self)
    }
}
impl FromJson for f64 {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::msg("expected number"))
    }
}
impl ToJson for f32 {
    fn to_json_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}
impl FromJson for f32 {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        v.as_f64().map(|f| f as f32).ok_or_else(|| Error::msg("expected number"))
    }
}
impl ToJson for usize {
    fn to_json_value(&self) -> Value {
        Value::Int(*self as i64)
    }
}
impl FromJson for usize {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        v.as_usize().ok_or_else(|| Error::msg("expected non-negative integer"))
    }
}
impl ToJson for bool {
    fn to_json_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl FromJson for bool {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::msg("expected bool"))
    }
}
impl ToJson for String {
    fn to_json_value(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl FromJson for String {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        v.as_str().map(str::to_string).ok_or_else(|| Error::msg("expected string"))
    }
}
impl<T: ToJson> ToJson for Vec<T> {
    fn to_json_value(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json_value).collect())
    }
}
impl<T: FromJson> FromJson for Vec<T> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        v.as_arr()
            .ok_or_else(|| Error::msg("expected array"))?
            .iter()
            .map(T::from_json_value)
            .collect()
    }
}
impl<T: ToJson> ToJson for Option<T> {
    fn to_json_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_json_value(),
            None => Value::Null,
        }
    }
}
impl<T: FromJson> FromJson for Option<T> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_json_value(v).map(Some)
        }
    }
}
impl<K: Ord + ToString, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json_value(&self) -> Value {
        Value::Obj(self.iter().map(|(k, v)| (k.to_string(), v.to_json_value())).collect())
    }
}

/// Free-function form of [`Value::obj`] for terse call sites.
pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::obj(pairs)
}

/// Reads a required struct field of a [`FromJson`] type.
pub fn read_field<T: FromJson>(obj: &Value, key: &str) -> Result<T, Error> {
    T::from_json_value(obj.field(key)?).map_err(|e| Error::msg(format!("field `{key}`: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_compact() {
        let text = r#"{"a":1,"b":[true,null,-2.5],"c":"x\"y","d":{"e":0.1}}"#;
        let v = Value::parse(text).unwrap();
        assert_eq!(v.to_json(), text);
    }

    #[test]
    fn pretty_layout_matches_serde_json() {
        let v = Value::obj([
            ("policy", Value::from("FedL")),
            ("iid", Value::from(true)),
            ("budget", Value::Float(30000.0)),
            ("epochs", Value::Arr(vec![Value::obj([("epoch", Value::from(0usize))])])),
            ("empty", Value::Arr(vec![])),
        ]);
        let want = "{\n  \"policy\": \"FedL\",\n  \"iid\": true,\n  \"budget\": 30000.0,\n  \"epochs\": [\n    {\n      \"epoch\": 0\n    }\n  ],\n  \"empty\": []\n}";
        assert_eq!(v.to_json_pretty(), want);
    }

    #[test]
    fn float_formatting_matches_serde_json() {
        let mut out = String::new();
        write_f64(&mut out, 30000.0);
        assert_eq!(out, "30000.0");
        out.clear();
        write_f64(&mut out, 0.653145042139057);
        assert_eq!(out, "0.653145042139057");
        out.clear();
        write_f64(&mut out, -2.0);
        assert_eq!(out, "-2.0");
        out.clear();
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
        out.clear();
        write_f64(&mut out, f64::INFINITY);
        assert_eq!(out, "null");
    }

    #[test]
    fn integers_stay_integers() {
        let v = Value::parse("[0, 42, -7, 9223372036854775807]").unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0], Value::Int(0));
        assert_eq!(items[3], Value::Int(i64::MAX));
        assert_eq!(v.to_json(), "[0,42,-7,9223372036854775807]");
    }

    #[test]
    fn floats_parse_with_exponents() {
        let v = Value::parse("[1e3, -2.5E-2, 0.0]").unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_f64().unwrap(), 1000.0);
        assert_eq!(items[1].as_f64().unwrap(), -0.025);
        assert_eq!(items[2], Value::Float(0.0));
    }

    #[test]
    fn null_reads_as_nan() {
        let v = Value::parse("null").unwrap();
        assert!(v.as_f64().unwrap().is_nan());
        assert_eq!(Option::<f64>::from_json_value(&v).unwrap(), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" \\ slash \u{1F600} \u{1}";
        let v = Value::Str(original.to_string());
        let text = v.to_json();
        let back = Value::parse(&text).unwrap();
        assert_eq!(back.as_str().unwrap(), original);
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Each unescaped run is copied as one slice: a 4 MiB string (with
        // multi-byte characters and escapes mixed in) parses in well under
        // a second even unoptimized. Re-validating the rest of the input
        // per character, as a quadratic parser does, takes minutes here
        // even optimized.
        let chunk = "abcdefgh\u{e9}\u{1F600}\\\"xyz\n";
        let original = chunk.repeat((4 << 20) / chunk.len());
        let text = Value::Str(original.clone()).to_json();
        let start = std::time::Instant::now();
        let back = Value::parse(&text).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(back.as_str().unwrap(), original);
        assert!(elapsed < std::time::Duration::from_secs(10), "4 MiB string took {elapsed:?}");
    }

    #[test]
    fn run_copying_writer_matches_a_char_by_char_reference() {
        // The escaping rules, one char at a time: what the slice-copying
        // writer must reproduce byte for byte.
        fn reference(s: &str) -> String {
            let mut out = String::from('"');
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
            out
        }
        let pieces = [
            "a",
            "xyz",
            "\"",
            "\\",
            "\n",
            "\r",
            "\t",
            "\u{0}",
            "\u{1}",
            "\u{1f}",
            "\u{7f}",
            " ",
            "/",
            "\u{e9}",
            "\u{2028}",
            "\u{1F600}",
            "\u{ffff}",
            "+/=",
            "",
            "AAAAAAAA8D8=",
            "0123456789abcdefghij",
        ];
        // A seeded LCG: the corpus is the same on every run.
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for case in 0..2000 {
            let len = next() % 40;
            let s: String = (0..len).map(|_| pieces[next() % pieces.len()]).collect();
            let mut out = String::new();
            write_escaped(&mut out, &s);
            assert_eq!(out, reference(&s), "case {case}: {s:?}");
            assert_eq!(Value::parse(&out).unwrap().as_str(), Some(s.as_str()), "case {case}");
        }
    }

    #[test]
    fn word_at_a_time_byte_tests_are_exact() {
        for filler in [0x00u8, 0x1f, 0x20, b'A', 0x7f, 0x80, 0xff] {
            for v in 0..=255u8 {
                for at in 0..8 {
                    let mut bytes = [filler; 8];
                    bytes[at] = v;
                    let word = u64::from_le_bytes(bytes);
                    for n in [1, 0x20] {
                        assert_eq!(any_byte_below(word, n), bytes.iter().any(|&b| b < n));
                    }
                    let escapes = |b: u8| b < 0x20 || b == b'"' || b == b'\\';
                    assert_eq!(any_needs_escape(word), bytes.iter().any(|&b| escapes(b)));
                }
            }
        }
        let text = b"0123456789abcdef\"ghij\\klmnopqrstuvwxyz\x01\xff0123456789";
        for start in 0..=text.len() {
            let rest = &text[start..];
            let ends = |&b: &u8| b == b'"' || b == b'\\';
            assert_eq!(unescaped_run(rest), rest.iter().position(ends).unwrap_or(rest.len()));
        }
    }

    #[test]
    fn unicode_escape_parses() {
        let v = Value::parse(r#""A😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "A\u{1F600}");
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(Value::parse("not json").is_err());
        assert!(Value::parse("{\"a\":1,}").is_err());
        assert!(Value::parse("[1, 2").is_err());
        assert!(Value::parse("{} trailing").is_err());
        assert!(Value::parse("\"unterminated").is_err());
        assert!(Value::parse("").is_err());
    }

    #[test]
    fn object_order_and_lookup() {
        let v = Value::parse(r#"{"z":1,"a":2,"z":3}"#).unwrap();
        // First match wins on lookup; order is preserved on write.
        assert_eq!(v.get("z").unwrap(), &Value::Int(1));
        assert_eq!(v.to_json(), r#"{"z":1,"a":2,"z":3}"#);
        assert!(v.get("missing").is_none());
        assert!(v.field("missing").is_err());
    }

    #[test]
    fn conversion_traits_round_trip() {
        let xs = vec![1.5f64, -0.25, 3.0];
        let back = Vec::<f64>::from_json_value(&xs.to_json_value()).unwrap();
        assert_eq!(xs, back);
        let opt: Vec<Option<usize>> = vec![Some(3), None, Some(0)];
        let back = Vec::<Option<usize>>::from_json_value(&opt.to_json_value()).unwrap();
        assert_eq!(opt, back);
    }

    #[test]
    fn read_field_reports_key() {
        let v = Value::parse(r#"{"good": 1}"#).unwrap();
        let err = read_field::<f64>(&v, "bad").unwrap_err();
        assert!(err.to_string().contains("bad"));
        assert_eq!(read_field::<usize>(&v, "good").unwrap(), 1);
    }

    #[test]
    fn deep_nesting_parses() {
        let mut text = String::new();
        for _ in 0..64 {
            text.push('[');
        }
        text.push('1');
        for _ in 0..64 {
            text.push(']');
        }
        assert!(Value::parse(&text).is_ok());
    }
}
