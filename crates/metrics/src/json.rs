//! Minimal JSON support for the workspace's documents.
//!
//! The workspace builds without crates.io access, so instead of serde this
//! module hand-rolls the small amount of JSON it needs: [`parse`] reads a
//! document into a [`Value`] tree, and the streaming [`JsonWriter`]
//! writes every document the workspace emits, in the layout (2-space
//! indent, `\n` separators) of the seed's serde_json-produced
//! `results/*.json` files.

use std::fmt::{self, Write};

/// 2^53: every integer up to it has an exact `f64`.
const MAX_EXACT_INTEGER: f64 = 9_007_199_254_740_992.0;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers above 2^53 lose precision).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object's field `name`, if this is an object that has it.
    pub fn get(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer, if this is a finite,
    /// non-negative, integral number no larger than 2^53 (above it not
    /// every integer has an exact `f64`). Readers use it for counts and
    /// ids, so an out-of-range, negative or fractional value is an error
    /// rather than a silent cast.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Number(n) if (0.0..=MAX_EXACT_INTEGER).contains(&n) && n.fract() == 0.0 => {
                Some(n as u64)
            }
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Error produced by [`parse`]: what went wrong and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
    offset: usize,
}

impl JsonError {
    pub(crate) fn new(msg: impl Into<String>, offset: usize) -> Self {
        JsonError {
            msg: msg.into(),
            offset,
        }
    }

    /// Byte offset in the input where the error was detected.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::new("trailing characters", p.pos));
    }
    Ok(v)
}

/// A recursive-descent parser over `src`. Every token it consumes outside
/// a string is ASCII, and a string ends at an ASCII quote, so `pos` is
/// always a char boundary of `src`.
struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(
                format!("expected `{}`", char::from(b)),
                self.pos,
            ))
        }
    }

    fn expect_literal(&mut self, lit: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(JsonError::new(format!("expected `{lit}`"), self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.expect_literal("true", Value::Bool(true)),
            Some(b'f') => self.expect_literal("false", Value::Bool(false)),
            Some(b'n') => self.expect_literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(JsonError::new("expected a JSON value", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(JsonError::new("expected `,` or `}`", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(JsonError::new("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::new("unterminated string", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| JsonError::new("unterminated escape", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => {
                            return Err(JsonError::new("invalid escape", self.pos - 1));
                        }
                    }
                }
                Some(_) => {
                    // A run of plain characters up to the next quote or
                    // backslash, both ASCII and so on a char boundary.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.src[self.pos..run]);
                    self.pos = run;
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let u = self.hex4()?;
        // Surrogate pair handling for completeness.
        if (0xD800..0xDC00).contains(&u) {
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let c = 0x10000 + ((u - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(c)
                        .ok_or_else(|| JsonError::new("invalid surrogate pair", self.pos));
                }
            }
            return Err(JsonError::new("lone surrogate", self.pos));
        }
        char::from_u32(u).ok_or_else(|| JsonError::new("invalid \\u escape", self.pos))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| JsonError::new("truncated \\u escape", self.pos))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| JsonError::new("invalid hex digit", self.pos))?;
            v = v * 16 + digit;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        self.src[start..self.pos]
            .parse::<f64>()
            .map(Value::Number)
            .map_err(|_| JsonError::new("invalid number", start))
    }
}

impl Value {
    /// Serializes the value as pretty-printed JSON through [`JsonWriter`],
    /// such that [`parse`]`(v.to_json()?) == v` for every representable
    /// value.
    ///
    /// # Errors
    ///
    /// Returns an error if the tree contains a non-finite number (`NaN`,
    /// `±inf`) — JSON has no representation for those, and silently
    /// emitting `null` would break the round-trip guarantee.
    pub fn to_json(&self) -> Result<String, JsonError> {
        let mut w = JsonWriter::new();
        self.write(&mut w);
        w.finish()
    }

    fn write(&self, w: &mut JsonWriter) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Number(n) => w.number(*n),
            Value::String(s) => w.string(s),
            Value::Array(items) => {
                w.begin_array();
                for item in items {
                    item.write(w);
                }
                w.end()
            }
            Value::Object(fields) => {
                w.begin_object();
                for (key, val) in fields {
                    w.key(key);
                    val.write(w);
                }
                w.end()
            }
        };
    }
}

/// A streaming pretty-JSON writer: every document the workspace emits is
/// written through one of these, straight into one `String`.
///
/// The layout is serde_json's pretty form, which the seed's
/// `results/*.json` files fixed: a 2-space indent, one item per line,
/// `": "` after a key, and `[]` / `{}` for an empty container. Numbers
/// follow one rule (see [`JsonWriter::number`]), and [`JsonWriter::uint`]
/// writes an exact unsigned integer for the fields that want one.
///
/// Containers are opened with [`begin_object`](JsonWriter::begin_object)
/// or [`begin_array`](JsonWriter::begin_array) and closed with
/// [`end`](JsonWriter::end); inside an object, each value follows a
/// [`key`](JsonWriter::key). Keys, digits and indentation are appended
/// in place, so writing allocates nothing beyond the output's growth.
///
/// ```
/// use molcache_metrics::json::JsonWriter;
///
/// let mut w = JsonWriter::new();
/// w.begin_object();
/// w.key("id").string("table2");
/// w.key("references").uint(1_000_000);
/// w.key("rates").begin_array();
/// w.number(0.25).number(2.0);
/// w.end();
/// w.key("empty").begin_object().end();
/// w.end();
/// assert_eq!(
///     w.finish().unwrap(),
///     "{\n  \"id\": \"table2\",\n  \"references\": 1000000,\n  \"rates\": [\n    \
///      0.25,\n    2.0\n  ],\n  \"empty\": {}\n}"
/// );
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: its closing bracket, and whether it
    /// is still empty. The separator goes before each item, so an item
    /// never needs to know whether another follows it.
    containers: Vec<(char, bool)>,
    /// A key was just written: the next value goes on its line.
    after_key: bool,
    /// The first non-finite number written, if any.
    error: Option<JsonError>,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// Opens an object (as an array item, after a key, or as the root).
    pub fn begin_object(&mut self) -> &mut Self {
        self.begin('{', '}')
    }

    /// Opens an array (as an array item, after a key, or as the root).
    pub fn begin_array(&mut self) -> &mut Self {
        self.begin('[', ']')
    }

    /// Closes the innermost open container.
    ///
    /// # Panics
    ///
    /// Panics when no container is open.
    pub fn end(&mut self) -> &mut Self {
        let (close, empty) = self
            .containers
            .pop()
            .expect("end() closes an open container");
        if !empty {
            self.out.push('\n');
            self.indent();
        }
        self.out.push(close);
        self
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.item();
        escape_into(&mut self.out, key);
        self.out.push_str(": ");
        self.after_key = true;
        self
    }

    /// Writes a string value.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.item();
        escape_into(&mut self.out, s);
        self
    }

    /// Writes a number the way serde_json writes an `f64`: an integral
    /// value below 1e15 in magnitude keeps a trailing `.0` (`-0.0`
    /// included), anything else takes the shortest form that reads back
    /// as the same `f64`.
    ///
    /// A non-finite value has no JSON form: it is not written, and
    /// [`finish`](JsonWriter::finish) returns an error.
    pub fn number(&mut self, v: f64) -> &mut Self {
        self.item();
        if v.is_finite() {
            format_f64(&mut self.out, v);
        } else if self.error.is_none() {
            self.error = Some(JsonError::new(
                "non-finite number is not valid JSON",
                self.out.len(),
            ));
        }
        self
    }

    /// Writes an unsigned integer exactly, with no fraction.
    pub fn uint(&mut self, v: u64) -> &mut Self {
        self.item();
        push_uint(&mut self.out, v);
        self
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.item();
        self.out.push_str(if b { "true" } else { "false" });
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.item();
        self.out.push_str("null");
        self
    }

    /// The finished document.
    ///
    /// # Errors
    ///
    /// Returns an error when a non-finite number was written.
    ///
    /// # Panics
    ///
    /// Panics when a container is still open.
    pub fn finish(self) -> Result<String, JsonError> {
        assert!(
            self.containers.is_empty(),
            "finish() with an unclosed container"
        );
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.out),
        }
    }

    fn begin(&mut self, open: char, close: char) -> &mut Self {
        self.item();
        self.out.push(open);
        self.containers.push((close, true));
        self
    }

    /// Starts a value or key: the separator and indent of its line,
    /// unless it follows a key or is the root.
    fn item(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        if let Some((_, empty)) = self.containers.last_mut() {
            self.out
                .push_str(if std::mem::take(empty) { "\n" } else { ",\n" });
            self.indent();
        }
    }

    fn indent(&mut self) {
        for _ in 0..self.containers.len() {
            self.out.push_str("  ");
        }
    }
}

/// Appends `s` to `out` as a quoted JSON string with required escapes.
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs an escape is ASCII, so the plain runs between
    // them split `s` on char boundaries.
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[plain..i]);
        match esc {
            Some(esc) => out.push_str(esc),
            None => write!(out, "\\u{b:04x}").expect("writing to a String cannot fail"),
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// Appends a finite `v` to `out` by [`JsonWriter::number`]'s rule.
fn format_f64(out: &mut String, v: f64) {
    if v == v.trunc() && v.abs() < 1e15 {
        // Exact as an integer, whose digits are `{v:.1}`'s without the
        // formatting machinery; the sign test keeps -0.0's minus.
        if v.is_sign_negative() {
            out.push('-');
        }
        push_uint(out, v.abs() as u64);
        out.push_str(".0");
    } else {
        write!(out, "{v}").expect("writing to a String cannot fail");
    }
}

/// Appends the decimal digits of `n`.
fn push_uint(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn as_u64_accepts_only_exact_non_negative_integers() {
        let n = Value::Number;
        assert_eq!(n(0.0).as_u64(), Some(0));
        assert_eq!(n(-0.0).as_u64(), Some(0));
        assert_eq!(n(70000.0).as_u64(), Some(70000));
        assert_eq!(n(MAX_EXACT_INTEGER).as_u64(), Some(1 << 53));
        for bad in [-5.0, 1.5, 2f64.powi(53) + 2.0, f64::INFINITY, f64::NAN] {
            assert_eq!(n(bad).as_u64(), None, "{bad}");
        }
        assert_eq!(Value::String("3".into()).as_u64(), None);
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Value::Number(-1250.0));
        assert_eq!(parse(r#""a\nbA""#).unwrap(), Value::String("a\nbA".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, 2, {"b": "c"}], "d": null}"#).unwrap();
        assert_eq!(v.get("d"), Some(&Value::Null));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[1], Value::Number(2.0));
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("c"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{not json").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse(r#""unterminated"#).is_err());
        assert!(parse("").is_err());
        let err = parse("[1, x]").unwrap_err();
        assert!(err.to_string().contains("byte 4"), "{err}");
    }

    #[test]
    fn surrogate_pairs_round_trip() {
        assert_eq!(parse(r#""😀""#).unwrap(), Value::String("\u{1F600}".into()));
        assert!(parse(r#""\ud83d""#).is_err());
    }

    fn formatted(v: f64) -> String {
        let mut s = String::new();
        format_f64(&mut s, v);
        s
    }

    #[test]
    fn escape_and_format_helpers() {
        let mut s = String::new();
        escape_into(&mut s, "a\"b\\c\n\u{1}");
        assert_eq!(s, r#""a\"b\\c\n\u0001""#);
        assert_eq!(formatted(2.0), "2.0");
        assert_eq!(formatted(0.222), "0.222");
        assert_eq!(formatted(1_000_000.0), "1000000.0");
    }

    #[test]
    fn to_json_pretty_shape() {
        let v = Value::Object(vec![
            ("n".into(), Value::Number(1.5)),
            (
                "a".into(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
            ("e".into(), Value::Object(vec![])),
        ]);
        let expected = "{\n  \"n\": 1.5,\n  \"a\": [\n    true,\n    null\n  ],\n  \"e\": {}\n}";
        assert_eq!(v.to_json().unwrap(), expected);
        assert_eq!(Value::Array(vec![]).to_json().unwrap(), "[]");
        assert_eq!(Value::Object(vec![]).to_json().unwrap(), "{}");
        assert_eq!(Value::Number(-0.0).to_json().unwrap(), "-0.0");
    }

    #[test]
    fn writer_nests_containers_and_writes_exact_integers() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.begin_object().end();
        w.begin_array().begin_array().end().end();
        w.begin_object();
        w.key("n").uint(u64::MAX);
        w.key("f").number(1e15);
        w.end();
        w.end();
        assert_eq!(
            w.finish().unwrap(),
            "[\n  {},\n  [\n    []\n  ],\n  {\n    \"n\": 18446744073709551615,\n    \
             \"f\": 1000000000000000\n  }\n]"
        );
    }

    #[test]
    fn to_json_rejects_non_finite_floats() {
        assert!(Value::Number(f64::NAN).to_json().is_err());
        assert!(Value::Number(f64::INFINITY).to_json().is_err());
        let nested = Value::Object(vec![(
            "x".into(),
            Value::Array(vec![Value::Number(f64::NEG_INFINITY)]),
        )]);
        assert!(nested.to_json().is_err());
    }

    #[test]
    fn strings_with_escapes_between_multibyte_runs_parse() {
        let text = r#"["é\n😀\"λ\\", "\u00e9é", "plain ascii run", "ü"]"#;
        let v = parse(text).unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_str(), Some("é\n😀\"λ\\"));
        assert_eq!(items[1].as_str(), Some("éé"));
        assert_eq!(items[2].as_str(), Some("plain ascii run"));
        assert_eq!(items[3].as_str(), Some("ü"));
        assert!(parse("\"\\é\"").is_err());
        assert!(parse("\"\\u00é\"").is_err());
    }

    /// What the number rule promises: `{:.1}` for an integral value below
    /// 1e15 in magnitude, the shortest round-trip form otherwise.
    fn expected_number(v: f64) -> String {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{v:.1}")
        } else {
            format!("{v}")
        }
    }

    fn written(v: f64) -> String {
        let mut w = JsonWriter::new();
        w.number(v);
        w.finish().expect("finite")
    }

    #[test]
    fn tricky_strings_round_trip() {
        for s in [
            "quote\" backslash\\ slash/ newline\n tab\t",
            "control\u{0} \u{1f} high\u{7f}",
            "unicode é 😀 \u{2028} \u{fffd}",
            "",
        ] {
            let v = Value::String(s.into());
            assert_eq!(parse(&v.to_json().unwrap()).unwrap(), v);
        }
    }

    /// Deterministically expands one `u64` seed into an arbitrary JSON
    /// value tree (depth-bounded), covering every variant plus the nasty
    /// string and number corners.
    fn arbitrary_value(seed: u64) -> Value {
        // SplitMix64: cheap, and every step decorrelates from the seed.
        struct Mix(u64);
        impl Mix {
            fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }
        }

        const CHARS: &[char] = &[
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}',
            '\u{7f}', 'é', 'λ', '😀', '\u{2028}', '\u{fffd}',
        ];

        fn gen_string(rng: &mut Mix) -> String {
            let len = (rng.next() % 12) as usize;
            (0..len)
                .map(|_| CHARS[(rng.next() as usize) % CHARS.len()])
                .collect()
        }

        fn gen_number(rng: &mut Mix) -> f64 {
            match rng.next() % 4 {
                0 => rng.next() as i32 as f64,                // integral, any sign
                1 => (rng.next() % 1_000_000) as f64 / 997.0, // fractional
                2 => f64::from_bits(rng.next() % (1 << 52)),  // subnormal-ish
                _ => {
                    // Arbitrary bit pattern, rerolled until finite.
                    loop {
                        let v = f64::from_bits(rng.next());
                        if v.is_finite() {
                            return v;
                        }
                    }
                }
            }
        }

        fn gen_value(rng: &mut Mix, depth: u32) -> Value {
            let pick = if depth == 0 {
                rng.next() % 4 // leaves only
            } else {
                rng.next() % 6
            };
            match pick {
                0 => Value::Null,
                1 => Value::Bool(rng.next().is_multiple_of(2)),
                2 => Value::Number(gen_number(rng)),
                3 => Value::String(gen_string(rng)),
                4 => {
                    let len = (rng.next() % 4) as usize;
                    Value::Array((0..len).map(|_| gen_value(rng, depth - 1)).collect())
                }
                _ => {
                    let len = (rng.next() % 4) as usize;
                    Value::Object(
                        (0..len)
                            .map(|_| (gen_string(rng), gen_value(rng, depth - 1)))
                            .collect(),
                    )
                }
            }
        }

        let mut rng = Mix(seed);
        gen_value(&mut rng, 4)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `parse(to_json(x)) == x` for arbitrary value trees.
        #[test]
        fn serializer_round_trips(seed in proptest::num::u64::ANY) {
            let v = arbitrary_value(seed);
            let pretty = v.to_json().expect("finite by construction");
            prop_assert_eq!(&parse(&pretty).unwrap(), &v);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The writer's numbers equal the rule's for any finite `f64`:
        /// arbitrary bit patterns, integers on both sides of 1e15, and
        /// the corners of the rule.
        #[test]
        fn number_rule_holds_for_any_finite_f64(bits in proptest::num::u64::ANY, pick in 0u8..4) {
            const CORNERS: [f64; 13] = [
                0.0,
                -0.0,
                1e15 - 1.0,
                -(1e15 - 1.0),
                1e15,
                -1e15,
                9_007_199_254_740_992.0, // 2^53
                5e-324,
                f64::MIN_POSITIVE,
                f64::MAX,
                f64::MIN,
                0.1,
                -0.5,
            ];
            let v = match pick {
                0 => f64::from_bits(bits),
                // Integral, below and above 1e15, either sign.
                1 => (bits >> 11) as f64 * if bits & 1 == 0 { 1.0 } else { -1.0 },
                2 => (bits % 2_000_000_000_000_000) as f64 - 1e15,
                _ => CORNERS[(bits % 13) as usize],
            };
            prop_assume!(v.is_finite());
            prop_assert_eq!(written(v), expected_number(v));
        }
    }
}
