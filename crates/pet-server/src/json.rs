//! A minimal, strict JSON reader for the wire protocol.
//!
//! The workspace has no serde (offline build image), and the telemetry
//! crate's flat-object scanner is too loose for untrusted input: the server
//! faces arbitrary bytes from the network, so requests are parsed with a
//! real recursive-descent parser — bounded depth, bounded input length,
//! every failure a structured [`JsonError`], never a panic. The fuzz suite
//! (`tests/proto_fuzz.rs`) holds it to that.

use std::fmt;

/// Maximum input length the parser accepts. One request per line; anything
/// longer is hostile or broken and is rejected before allocation grows.
pub const MAX_INPUT_BYTES: usize = 64 * 1024;

/// Maximum nesting depth (objects/arrays). The protocol needs 2.
const MAX_DEPTH: u32 = 16;

/// A parsed JSON value.
///
/// Object entries are kept as a `Vec` in input order and looked up
/// linearly: protocol objects have a handful of keys, and a flat pair list
/// parses with one allocation where a tree map costs a node per insert —
/// this type sits on every request's path.
/// Duplicate keys are still rejected at parse time, so lookups are
/// unambiguous.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; integer accessors re-check range).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: `(key, value)` pairs in input order, keys unique.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one complete JSON value; trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] for malformed input, inputs longer than
    /// [`MAX_INPUT_BYTES`], or nesting deeper than the protocol bound.
    pub fn parse(input: &str) -> Result<Self, JsonError> {
        if input.len() > MAX_INPUT_BYTES {
            return Err(JsonError {
                at: MAX_INPUT_BYTES,
                msg: format!("input exceeds {MAX_INPUT_BYTES} bytes"),
            });
        }
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a `u64`, requiring an exact non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value back to compact JSON. Numbers render through
    /// Rust's shortest-round-trip `f64` display, so integers stay
    /// integer-shaped and `parse(render(v))` is value-identical to `v`.
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            Self::Null => "null".to_string(),
            Self::Bool(b) => b.to_string(),
            Self::Num(n) => format!("{n}"),
            Self::Str(s) => format!("\"{}\"", escape(s)),
            Self::Arr(items) => {
                let body: Vec<String> = items.iter().map(Self::render).collect();
                format!("[{}]", body.join(","))
            }
            Self::Obj(fields) => {
                let body: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{}", escape(k), v.render()))
                    .collect();
                format!("{{{}}}", body.join(","))
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.to_string(),
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

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn object(&mut self, depth: u32) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut entries: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            // Linear duplicate scan: key counts are small in practice and
            // bounded by MAX_INPUT_BYTES in the worst case.
            if entries.iter().any(|(k, _)| *k == key) {
                return Err(self.err("duplicate object key"));
            }
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: u32) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Bulk-copy the plain run up to the next quote, escape, control
            // byte, or non-ASCII byte; the match below handles the stopper.
            let start = self.pos;
            while matches!(self.peek(), Some(c) if (0x20..0x80).contains(&c) && c != b'"' && c != b'\\')
            {
                self.pos += 1;
            }
            if self.pos > start {
                out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii run"));
            }
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are rejected rather than paired —
                            // the protocol has no use for astral escapes.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 3; // the final +1 below covers the 4th
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Multi-byte UTF-8: the input is a &str, so the slice is
                    // valid; copy the whole scalar.
                    let s = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let ch = s.chars().next().ok_or_else(|| self.err("empty"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        let v: f64 = text.parse().map_err(|_| JsonError {
            at: start,
            msg: format!("bad number {text:?}"),
        })?;
        if !v.is_finite() {
            return Err(JsonError {
                at: start,
                msg: "number out of range".to_string(),
            });
        }
        Ok(Json::Num(v))
    }
}

/// Escapes `s` for embedding inside a JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shaped_objects() {
        let v = Json::parse(
            r#"{"id":"r-1","verb":"estimate","tags":5000,"rounds":16,"miss":0.05,"deterministic":true,"rates":[0,0.1]}"#,
        )
        .unwrap();
        assert_eq!(v.get("id").and_then(Json::as_str), Some("r-1"));
        assert_eq!(v.get("tags").and_then(Json::as_u64), Some(5000));
        assert_eq!(v.get("miss").and_then(Json::as_f64), Some(0.05));
        assert_eq!(v.get("deterministic").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("rates").and_then(Json::as_arr).unwrap().len(), 2);
        assert_eq!(v.get("absent"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "[1,2",
            "\"unterminated",
            "{\"a\":1}{\"b\":2}",
            "nul",
            "truex",
            "{\"a\":1e999}",
            "01a",
            "-",
            "{\"k\":\"\\q\"}",
            "{\"k\":\"\\u12\"}",
            "{\"k\":\"\\ud800\"}",
            "{\"dup\":1,\"dup\":2}",
            "\u{7}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_and_length_bounds_hold() {
        let deep = "[".repeat(64) + &"]".repeat(64);
        assert!(Json::parse(&deep).is_err(), "deep nesting must be rejected");
        let shallow = "[".repeat(8) + &"]".repeat(8);
        assert!(Json::parse(&shallow).is_ok());
        let long = format!("\"{}\"", "x".repeat(MAX_INPUT_BYTES + 8));
        assert!(Json::parse(&long).is_err(), "oversized input rejected");
    }

    #[test]
    fn integer_accessor_is_exact() {
        assert_eq!(Json::parse("17").unwrap().as_u64(), Some(17));
        assert_eq!(Json::parse("17.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1e100").unwrap().as_u64(), None);
        assert_eq!(Json::parse("0").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn strings_unescape_and_reescape() {
        let v = Json::parse(r#""a\"b\\c\nd\u0041""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}
