//! Minimal JSON tree, parser, and writer backing the scenario spec files.
//!
//! The workspace builds offline, and the vendored `serde` stand-in is annotation-only, so
//! this module carries the actual serialization machinery for scenario specs and reports:
//! a [`JsonValue`] tree, a recursive-descent parser, and a deterministic pretty writer.
//! Two properties matter for the scenario layer and are guaranteed here:
//!
//! * **Round-tripping is lossless.** Integers are kept as integers (so 64-bit seeds never
//!   pass through `f64`), and floats are written in Rust's shortest-round-trip form, so
//!   `parse(write(v))` reproduces every finite number bit-for-bit. The one exception:
//!   JSON cannot represent NaN/inf, so non-finite floats serialize as `null` — spec
//!   validation rejects them before they can reach a writer, and report statistics are
//!   finite by construction.
//! * **Writing is deterministic.** Object members keep their insertion order and the
//!   writer has a single canonical layout, so equal values always produce identical
//!   bytes — the report round-trip tests compare serialized reports byte-for-byte.
//!
//! As one extension over strict JSON, the parser skips `//` line comments, so the spec
//! files shipped under `examples/` can carry the header comments tying them to the paper
//! figures they reproduce.
//!
//! The parser recurses once per array or object level, and the same parser reads search
//! specs off the wire (`sfo-net`), where a stack overflow would abort the whole daemon.
//! So nesting is bounded: past [`MAX_NESTING`] levels the parse stops with
//! [`ScenarioError::NestingTooDeep`] at the offending bracket. No spec, report or
//! workload the workspace writes nests more than a handful of levels. For the same
//! reason the parser's cost stays near linear in the text: an object that names a key
//! twice is refused by sorting its keys once, not by comparing every pair.

use crate::ScenarioError;
use std::fmt;

/// The deepest nesting of arrays and objects [`JsonValue::parse`] accepts.
pub const MAX_NESTING: usize = 64;

/// A JSON number, kept in the narrowest faithful representation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JsonNumber {
    /// A non-negative integer (covers sizes, ticks, and 64-bit seeds exactly).
    Unsigned(u64),
    /// A negative integer.
    Signed(i64),
    /// Everything else (decimal point or exponent present).
    Float(f64),
}

impl JsonNumber {
    /// Returns the number as an `f64` (lossy only beyond 2^53).
    pub fn as_f64(&self) -> f64 {
        match *self {
            JsonNumber::Unsigned(u) => u as f64,
            JsonNumber::Signed(i) => i as f64,
            JsonNumber::Float(f) => f,
        }
    }

    /// Returns the number as a `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonNumber::Unsigned(u) => Some(u),
            JsonNumber::Signed(i) => u64::try_from(i).ok(),
            JsonNumber::Float(_) => None,
        }
    }
}

/// One node of a parsed or to-be-written JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (see [`JsonNumber`]).
    Number(JsonNumber),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; members keep insertion order so writing is deterministic.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds a number value from a `u64`.
    pub fn from_u64(value: u64) -> Self {
        JsonValue::Number(JsonNumber::Unsigned(value))
    }

    /// Builds a number value from a `usize`.
    pub fn from_usize(value: usize) -> Self {
        JsonValue::Number(JsonNumber::Unsigned(value as u64))
    }

    /// Builds a number value from an `f64`.
    ///
    /// The value is kept as [`JsonNumber::Float`] even when integral; an integral float
    /// prints without a decimal point ("3"), so it may re-parse as
    /// [`JsonNumber::Unsigned`] — the `f64` view is unchanged either way.
    pub fn from_f64(value: f64) -> Self {
        JsonValue::Number(JsonNumber::Float(value))
    }

    /// Builds a string value.
    pub fn from_str_value(value: &str) -> Self {
        JsonValue::String(value.to_string())
    }

    /// Builds `value` as a number or `null` when absent (the encoding used for optional
    /// knobs such as hard cutoffs).
    pub fn from_opt_usize(value: Option<usize>) -> Self {
        match value {
            Some(v) => JsonValue::from_usize(v),
            None => JsonValue::Null,
        }
    }

    /// Returns `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// Returns the boolean, if this value is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the number as `f64`, if this value is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// Returns the number as `u64`, if this value is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// Returns the number as `usize`, if this value is a non-negative integer that fits.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|u| usize::try_from(u).ok())
    }

    /// Returns the string slice, if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the elements, if this value is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Returns the members, if this value is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Looks up a member of an object by key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()
            .and_then(|members| members.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    /// Parses a JSON document (tolerating `//` line comments).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Parse`] with a line/column position on malformed input,
    /// and [`ScenarioError::NestingTooDeep`] when arrays and objects nest deeper than
    /// [`MAX_NESTING`] levels.
    pub fn parse(text: &str) -> Result<JsonValue, ScenarioError> {
        let mut parser = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws()?;
        let value = parser.parse_value()?;
        parser.skip_ws()?;
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the JSON document"));
        }
        Ok(value)
    }

    /// Serializes the value with the canonical two-space-indented layout.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => write_number(out, *n),
            JsonValue::String(s) => write_string(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                // Arrays of scalars stay on one line; nested structures get one element
                // per line so spec files remain readable.
                let scalar_only = items
                    .iter()
                    .all(|v| !matches!(v, JsonValue::Array(_) | JsonValue::Object(_)));
                if scalar_only {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        item.write(out, indent + 1);
                    }
                    out.push(']');
                } else {
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        push_indent(out, indent + 1);
                        item.write(out, indent + 1);
                        if i + 1 < items.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    push_indent(out, indent);
                    out.push(']');
                }
            }
            JsonValue::Object(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in members.iter().enumerate() {
                    push_indent(out, indent + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                    if i + 1 < members.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_pretty_string())
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, number: JsonNumber) {
    use std::fmt::Write as _;
    match number {
        JsonNumber::Unsigned(u) => {
            let _ = write!(out, "{u}");
        }
        JsonNumber::Signed(i) => {
            let _ = write!(out, "{i}");
        }
        JsonNumber::Float(f) => {
            if f.is_finite() {
                // Rust's Display for f64 is the shortest string that parses back to the
                // same bits, which is exactly the determinism the report round trip needs.
                let _ = write!(out, "{f}");
            } else {
                // JSON has no NaN/inf; null is the conventional degradation.
                out.push_str("null");
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> ScenarioError {
        let (line, column) = self.position();
        ScenarioError::Parse {
            message: message.to_string(),
            line,
            column,
        }
    }

    /// The 1-based line and column of `pos`.
    fn position(&self) -> (usize, usize) {
        let mut line = 1usize;
        let mut column = 1usize;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
        }
        (line, column)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) -> Result<(), ScenarioError> {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\n' | b'\r') => self.pos += 1,
                Some(b'/') => {
                    if self.bytes.get(self.pos + 1) == Some(&b'/') {
                        while let Some(b) = self.peek() {
                            self.pos += 1;
                            if b == b'\n' {
                                break;
                            }
                        }
                    } else {
                        return Err(self.error("unexpected '/' (only // comments are allowed)"));
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ScenarioError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, ScenarioError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_NESTING {
                    let (line, column) = self.position();
                    return Err(ScenarioError::NestingTooDeep {
                        limit: MAX_NESTING,
                        line,
                        column,
                    });
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.parse_object()
                } else {
                    self.parse_array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_keyword("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(self.error("unexpected character at start of a value")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_keyword(
        &mut self,
        keyword: &str,
        value: JsonValue,
    ) -> Result<JsonValue, ScenarioError> {
        if self.bytes[self.pos..].starts_with(keyword.as_bytes()) {
            self.pos += keyword.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{keyword}'")))
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, ScenarioError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws()?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws()?;
            let key = self.parse_string()?;
            self.skip_ws()?;
            self.expect(b':')?;
            self.skip_ws()?;
            let value = self.parse_value()?;
            members.push((key, value));
            self.skip_ws()?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    if let Some(key) = duplicate_key(&members) {
                        return Err(self.error(&format!("duplicate object key \"{key}\"")));
                    }
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, ScenarioError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws()?;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws()?;
            items.push(self.parse_value()?);
            self.skip_ws()?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, ScenarioError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(escape) = self.peek() else {
                        return Err(self.error("unterminated escape sequence"));
                    };
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.error("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by any spec the workspace
                            // writes; reject them instead of mis-decoding.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.error("\\u escape is not a scalar value"))?;
                            out.push(c);
                        }
                        _ => return Err(self.error("unknown escape sequence")),
                    }
                }
                _ => {
                    // Re-synchronize on UTF-8 boundaries: walk back one byte and take the
                    // full character from the source text. The text is a `str`, so this
                    // costs the character, not the rest of the document.
                    let start = self.pos - 1;
                    let c = self
                        .text
                        .get(start..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| self.error("invalid UTF-8 in string"))?;
                    if (c as u32) < 0x20 {
                        return Err(self.error("unescaped control character in string"));
                    }
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, ScenarioError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        let number = if is_float {
            JsonNumber::Float(
                text.parse::<f64>()
                    .map_err(|_| self.error("invalid number"))?,
            )
        } else if let Some(stripped) = text.strip_prefix('-') {
            JsonNumber::Signed(
                -stripped
                    .parse::<i64>()
                    .map_err(|_| self.error("integer out of range"))?,
            )
        } else {
            JsonNumber::Unsigned(
                text.parse::<u64>()
                    .map_err(|_| self.error("integer out of range"))?,
            )
        };
        Ok(JsonValue::Number(number))
    }
}

/// A key that occurs twice among `members`, found in O(k log k): a wire frame may carry
/// an object with millions of members, so the check must not compare every pair.
fn duplicate_key(members: &[(String, JsonValue)]) -> Option<&str> {
    if members.len() < 2 {
        return None;
    }
    let mut keys: Vec<&str> = members.iter().map(|(key, _)| key.as_str()).collect();
    keys.sort_unstable();
    keys.windows(2)
        .find(|pair| pair[0] == pair[1])
        .map(|pair| pair[0])
}

/// Conversion of a spec/report type into its JSON form.
pub trait ToJson {
    /// Builds the JSON tree for this value.
    fn to_json(&self) -> JsonValue;
}

/// Reconstruction of a spec/report type from its JSON form.
pub trait FromJson: Sized {
    /// Rebuilds the value from a JSON tree.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidSpec`] describing the offending field.
    fn from_json(value: &JsonValue) -> Result<Self, ScenarioError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &JsonValue) -> JsonValue {
        JsonValue::parse(&v.to_pretty_string()).expect("writer output parses")
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            JsonValue::Null,
            JsonValue::Bool(true),
            JsonValue::Bool(false),
            JsonValue::from_u64(u64::MAX),
            JsonValue::Number(JsonNumber::Signed(-42)),
            JsonValue::from_f64(2.2),
            JsonValue::from_f64(0.1 + 0.2),
            JsonValue::from_str_value("hello \"quoted\" \\ line\nbreak"),
        ] {
            assert_eq!(roundtrip(&v), v, "{v:?}");
        }
    }

    #[test]
    fn integral_floats_reparse_as_integers_with_equal_value() {
        // 3.0 prints as "3", which re-parses as Unsigned(3): the f64 view is unchanged.
        let v = JsonValue::from_f64(3.0);
        let back = roundtrip(&v);
        assert_eq!(back.as_f64(), Some(3.0));
    }

    #[test]
    fn nested_structures_round_trip_and_preserve_order() {
        let v = JsonValue::Object(vec![
            ("zulu".to_string(), JsonValue::from_u64(1)),
            (
                "alpha".to_string(),
                JsonValue::Array(vec![
                    JsonValue::Null,
                    JsonValue::Object(vec![("x".to_string(), JsonValue::from_f64(1.5))]),
                ]),
            ),
        ]);
        assert_eq!(roundtrip(&v), v);
        let text = v.to_pretty_string();
        assert!(text.find("zulu").unwrap() < text.find("alpha").unwrap());
        // Deterministic: writing twice yields identical bytes.
        assert_eq!(text, roundtrip(&v).to_pretty_string());
    }

    #[test]
    fn comments_are_skipped() {
        let text =
            "// header comment\n{\n  // inner\n  \"a\": [1, 2], // trailing\n  \"b\": null\n}\n";
        let v = JsonValue::parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert!(v.get("b").unwrap().is_null());
    }

    #[test]
    fn parse_errors_carry_positions() {
        let err = JsonValue::parse("{\n  \"a\": oops\n}").unwrap_err();
        match err {
            ScenarioError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(
            JsonValue::parse("{\"a\": 1, \"a\": 2}").is_err(),
            "duplicate keys"
        );
        assert!(JsonValue::parse("[1, 2,]").is_err(), "trailing comma");
        assert!(JsonValue::parse("{} extra").is_err(), "trailing garbage");
    }

    #[test]
    fn nesting_is_bounded_and_refused_at_the_bracket_past_the_limit() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(JsonValue::parse(&nested(MAX_NESTING)).is_ok());
        let mixed = "{\"a\": ".repeat(MAX_NESTING / 2) + &"[".repeat(MAX_NESTING / 2);
        let mixed = mixed + &"]".repeat(MAX_NESTING / 2) + &"}".repeat(MAX_NESTING / 2);
        assert!(JsonValue::parse(&mixed).is_ok());
        assert_eq!(
            JsonValue::parse(&nested(MAX_NESTING + 1)),
            Err(ScenarioError::NestingTooDeep {
                limit: MAX_NESTING,
                line: 1,
                column: MAX_NESTING + 1,
            })
        );
    }

    #[test]
    fn unicode_and_escapes_parse() {
        let v = JsonValue::parse("\"caf\\u00e9 naïve\"").unwrap();
        assert_eq!(v.as_str(), Some("café naïve"));
    }

    #[test]
    fn accessors_are_type_strict() {
        let v = JsonValue::parse("{\"n\": 3.5, \"u\": 7, \"s\": \"x\"}").unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), None);
        assert_eq!(v.get("n").unwrap().as_f64(), Some(3.5));
        assert_eq!(v.get("u").unwrap().as_usize(), Some(7));
        assert_eq!(v.get("u").unwrap().as_f64(), Some(7.0));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert!(v.get("missing").is_none());
    }
}
