//! A dependency-free JSON implementation.
//!
//! Object member order is preserved (insertion order) because Vega-Lite specs
//! and prompt serializations are compared textually in tests, and because the
//! paper's `Table2JSON` prompt format reads better with columns in schema
//! order.

use crate::error::DataError;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number (always stored as f64; integral values serialize without a
    /// decimal point).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered members.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from pairs.
    pub fn object(pairs: Vec<(&str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element lookup.
    pub fn at(&self, index: usize) -> Option<&Json> {
        match self {
            Json::Array(items) => items.get(index),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// Number view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Bool view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Inserts/replaces a member on an object; no-op on other variants.
    pub fn set(&mut self, key: &str, value: Json) {
        if let Json::Object(members) = self {
            if let Some(slot) = members.iter_mut().find(|(k, _)| k == key) {
                slot.1 = value;
            } else {
                members.push((key.to_string(), value));
            }
        }
    }

    /// Compact serialization.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization with 2-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(n) => write_number(out, *n),
            Json::String(s) => write_string(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Object(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    pub fn parse(input: &str) -> Result<Json, DataError> {
        let mut p = Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(n) = indent {
        out.push('\n');
        for _ in 0..n * depth {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    if n.is_nan() || n.is_infinite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

/// Index of the first byte at or after `from` that a JSON string must
/// escape (`"`, `\`, or a control byte below 0x20), or `bytes.len()`.
///
/// Scans eight bytes at a time: within a little-endian word, a byte that
/// equals `c` is a zero byte of `word ^ splat(c)`, and the classic
/// has-zero test `(x - 0x01..) & !x & 0x80..` flags it. The test can also
/// flag bytes *above* a true match (a borrow runs upward), never below
/// one, so the lowest flagged byte is always the first true match. Bytes
/// of a multi-byte UTF-8 character have their high bit set and are never
/// flagged, so every stop is an ASCII byte and a char boundary.
fn next_escape(bytes: &[u8], from: usize) -> usize {
    const LO: u64 = u64::from_ne_bytes([0x01; 8]);
    const HI: u64 = u64::from_ne_bytes([0x80; 8]);
    let zero = |x: u64| x.wrapping_sub(LO) & !x & HI;
    let mut i = from;
    while let Some(chunk) = bytes.get(i..i + 8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("an eight-byte chunk"));
        let hits = zero(word ^ (LO * u64::from(b'"')))
            | zero(word ^ (LO * u64::from(b'\\')))
            | word.wrapping_sub(LO * 0x20) & !word & HI;
        if hits != 0 {
            return i + (hits.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    bytes[i..]
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        .map_or(bytes.len(), |at| i + at)
}

/// Writes `s` as a JSON string literal: unescaped runs are pushed whole,
/// between the stops [`next_escape`] finds.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut start = 0;
    loop {
        let stop = next_escape(bytes, start);
        out.push_str(&s[start..stop]);
        let Some(&b) = bytes.get(stop) else { break };
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => out.push_str(&format!("\\u{:04x}", b)),
        }
        start = stop + 1;
    }
    out.push('"');
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> DataError {
        DataError::JsonParse {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), DataError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, DataError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, DataError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, DataError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, DataError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, DataError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Copy the run up to the next byte of interest whole. The input
            // is a `&str` and every stop is ASCII, so the run is already
            // valid UTF-8 on char boundaries.
            let start = self.pos;
            self.pos = next_escape(self.bytes, start);
            s.push_str(&self.input[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pair handling.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (low.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            s.push(ch.ok_or_else(|| self.err("invalid \\u escape"))?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, DataError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, DataError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::String(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::String(s)
    }
}
impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Number(n)
    }
}
impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Number(n as f64)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Number(n as f64)
    }
}
impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Array(v)
    }
}

impl From<&crate::value::Value> for Json {
    fn from(v: &crate::value::Value) -> Json {
        use crate::value::Value;
        match v {
            Value::Null => Json::Null,
            Value::Int(i) => Json::Number(*i as f64),
            Value::Float(f) => Json::Number(*f),
            Value::Text(s) => Json::String(s.clone()),
            Value::Bool(b) => Json::Bool(*b),
            Value::Date(d) => Json::String(d.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact() {
        let src = r#"{"a":[1,2.5,null,true,"x\ny"],"b":{"c":-3}}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.to_compact(), src);
    }

    #[test]
    fn pretty_printing() {
        let v = Json::object(vec![("k", Json::Array(vec![Json::from(1i64)]))]);
        assert_eq!(v.to_pretty(), "{\n  \"k\": [\n    1\n  ]\n}");
    }

    #[test]
    fn parse_rejects_trailing_garbage() {
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("{} x").is_err());
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in ["{", "[1,", "\"abc", "{\"a\"}", "tru", "01a", "- 1", ""] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn unicode_escapes() {
        let v = Json::parse(r#""é😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "é😀");
    }

    #[test]
    fn escape_roundtrip() {
        let original = Json::String("a\"b\\c\nd\te\u{1}".to_string());
        let reparsed = Json::parse(&original.to_compact()).unwrap();
        assert_eq!(original, reparsed);
    }

    /// The char-by-char writer [`write_string`] replaced: the reference
    /// its output must match byte for byte.
    fn write_string_by_char(out: &mut String, s: &str) {
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

    /// [`next_escape`] one byte at a time.
    fn next_escape_by_byte(bytes: &[u8], from: usize) -> usize {
        (from..bytes.len())
            .find(|&i| matches!(bytes[i], b'"' | b'\\') || bytes[i] < 0x20)
            .unwrap_or(bytes.len())
    }

    const ALPHABET: [&str; 9] = ["a", "é", "😀", "\"", "\\", "\n", "\0", "\x1f", "\x7f"];

    /// Checks the eight-byte scan against the byte loop from every start
    /// offset 0-7, the writer against the char-by-char reference, and the
    /// parse round trip, for one string.
    fn check_string(s: &str) {
        let bytes = s.as_bytes();
        for from in 0..=bytes.len().min(7) {
            assert_eq!(
                next_escape(bytes, from),
                next_escape_by_byte(bytes, from),
                "{s:?} from {from}"
            );
        }
        let (mut fast, mut reference) = (String::new(), String::new());
        write_string(&mut fast, s);
        write_string_by_char(&mut reference, s);
        assert_eq!(fast, reference, "{s:?}");
        assert_eq!(
            Json::parse(&fast).unwrap(),
            Json::String(s.to_string()),
            "{s:?}"
        );
    }

    #[test]
    fn string_scan_matches_the_byte_loop_on_every_short_string() {
        // Every string of up to six symbols (597,871 strings, up to 24
        // bytes, so every stop lands in a first, second or third word or
        // in the tail). Seven to ten symbols would be 3.9 billion
        // strings; those lengths are sampled below.
        let mut level = vec![String::new()];
        check_string("");
        for _ in 0..6 {
            let mut next = Vec::with_capacity(level.len() * ALPHABET.len());
            for prefix in &level {
                for symbol in ALPHABET {
                    let s = format!("{prefix}{symbol}");
                    check_string(&s);
                    next.push(s);
                }
            }
            level = next;
        }
    }

    #[test]
    fn string_scan_matches_the_byte_loop_on_sampled_longer_strings() {
        let mut rng = crate::Rng::new(23);
        for _ in 0..50_000 {
            let symbols = 7 + rng.below(4) as usize;
            let s: String = (0..symbols)
                .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
                .collect();
            check_string(&s);
        }
        // Every ASCII byte, so every escape the writer knows.
        check_string(&(0u8..0x80).map(char::from).collect::<String>());
        // Long runs between stops, as in a prompt.
        let prompt = "Database: cinema\nQ: Show a bar chart of \"films\" by year é😀\n".repeat(60);
        check_string(&prompt);
    }

    #[test]
    fn numbers() {
        assert_eq!(Json::parse("3.5e2").unwrap().as_f64(), Some(350.0));
        assert_eq!(Json::parse("-7").unwrap().as_f64(), Some(-7.0));
        assert_eq!(Json::Number(3.0).to_compact(), "3");
        assert_eq!(Json::Number(3.25).to_compact(), "3.25");
        assert_eq!(Json::Number(f64::NAN).to_compact(), "null");
    }

    #[test]
    fn object_access_and_set() {
        let mut v = Json::object(vec![("a", Json::from(1i64))]);
        assert_eq!(v.get("a").and_then(Json::as_f64), Some(1.0));
        assert!(v.get("zz").is_none());
        v.set("a", Json::from(2i64));
        v.set("b", Json::from("x"));
        assert_eq!(v.get("a").and_then(Json::as_f64), Some(2.0));
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
    }

    #[test]
    fn member_order_preserved() {
        let v = Json::parse(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        assert_eq!(v.to_compact(), r#"{"z":1,"a":2,"m":3}"#);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::parse("[]").unwrap().to_pretty(), "[]");
        assert_eq!(Json::parse("{}").unwrap().to_pretty(), "{}");
        assert_eq!(Json::parse("[ ]").unwrap(), Json::Array(vec![]));
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" {\n\t\"a\" :\r [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.to_compact(), r#"{"a":[1,2]}"#);
    }

    #[test]
    fn value_conversion() {
        use crate::value::{Date, Value};
        assert_eq!(Json::from(&Value::Null), Json::Null);
        assert_eq!(Json::from(&Value::Int(3)), Json::Number(3.0));
        assert_eq!(
            Json::from(&Value::Date(Date::new(2020, 1, 2).unwrap())),
            Json::String("2020-01-02".into())
        );
    }
}
