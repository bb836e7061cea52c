//! Minimal JSON reader/writer replacing `serde`/`serde_json`.
//!
//! A [`Value`] tree with a recursive-descent parser and a writer whose
//! `f64` output uses Rust's shortest round-trip formatting, so model
//! parameters survive a save/load cycle bit-exactly. Object key order is
//! preserved (insertion order), which keeps experiment JSON diffs stable.
//!
//! Structs that need serialisation implement [`ToJson`] by hand — the
//! workspace only serialises a handful of result/checkpoint types, so a
//! derive macro would cost more than it saves.

use std::fmt;

/// A parsed or constructed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion-ordered `(key, value)` pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Build an object from `(key, value)` pairs.
    pub fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // privim-lint: allow(float-eq, reason = "fract() == 0.0 is the exact integrality test; any epsilon would accept non-integers")
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as `usize`, if it is a non-negative integral number.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|x| x as usize)
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a slice of elements, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Parse a JSON document. Rejects trailing garbage.
    pub fn parse(input: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }

    /// Compact serialisation.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Append the compact serialisation to `out`.
    pub fn write_json(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    /// Pretty serialisation (2-space indent).
    pub fn to_json_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) => write_number(out, *x),
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Value::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

fn write_number(out: &mut String, x: f64) {
    if x.is_finite() {
        // Rust's Display for f64 is the shortest representation that
        // parses back to the same bits — exact round-trip.
        use fmt::Write;
        // privim-lint: allow(panic, reason = "write! into a String cannot fail; fmt::Write for String is infallible")
        write!(out, "{x}").unwrap();
    } else {
        // JSON has no NaN/Inf; match serde_json's lossy `null` fallback.
        out.push_str("null");
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
                use fmt::Write;
                // privim-lint: allow(panic, reason = "write! into a String cannot fail; fmt::Write for String is infallible")
                write!(out, "\\u{:04x}", c as u32).unwrap();
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON syntax error with a byte offset.
#[derive(Debug, Clone)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte position in the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
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

    fn expect_byte(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect_byte(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // surrogate pair handling for completeness
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xd800) << 10)
                                        + (lo.wrapping_sub(0xdc00) & 0x3ff);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            s.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
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
        // privim-lint: allow(panic, reason = "the scanned range contains only ASCII digit/sign/dot/exponent bytes, which are valid UTF-8")
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Hand-written serialisation to a [`Value`] tree.
pub trait ToJson {
    /// Convert to a JSON value.
    fn to_json(&self) -> Value;
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Value {
        Value::Str((*self).to_string())
    }
}

macro_rules! num_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
    )*};
}

num_to_json!(f64, f32, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(x) => x.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

/// Implement [`ToJson`] for a struct by listing its fields — the poor
/// man's derive. Field order in the macro call is the JSON key order.
///
/// ```
/// struct Row {
///     name: String,
///     score: f64,
/// }
/// privim_rt::impl_to_json_struct!(Row { name, score });
/// ```
#[macro_export]
macro_rules! impl_to_json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::Value::obj(vec![
                    $((stringify!($field), $crate::json::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse(" false ").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("3.25").unwrap(), Value::Num(3.25));
        assert_eq!(Value::parse("-1e3").unwrap(), Value::Num(-1000.0));
        assert_eq!(
            Value::parse("\"a\\nb\"").unwrap(),
            Value::Str("a\nb".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Value::parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[1].as_u64(), Some(2));
        assert_eq!(arr[2].get("b"), Some(&Value::Null));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("not json").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("{}extra").is_err());
        assert!(Value::parse("\"open").is_err());
        assert!(Value::parse("").is_err());
    }

    #[test]
    fn f64_round_trips_exactly() {
        let xs = [
            0.1,
            -1.0 / 3.0,
            f64::MIN_POSITIVE,
            1.7976931348623157e308,
            -0.0,
            123456789.123456789,
            2.0f64.powi(-52),
        ];
        for &x in &xs {
            let s = Value::Num(x).to_json_string();
            let back = Value::parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {s} -> {back}");
        }
    }

    #[test]
    fn non_finite_becomes_null() {
        assert_eq!(Value::Num(f64::NAN).to_json_string(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_json_string(), "null");
    }

    #[test]
    fn non_finite_round_trip_is_null_not_error() {
        // Pinned behavior: NaN/±inf serialise as `null` (JSON has no such
        // numbers; this matches serde_json's lossy default) and therefore
        // come back as `Value::Null`, NOT as a number and NOT as a parse
        // error. Metrics/results writers that may hold NaN sentinels rely
        // on the round trip staying total.
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = Value::obj(vec![("v", Value::Num(x))]);
            let s = doc.to_json_string();
            let back = Value::parse(&s).unwrap();
            assert_eq!(back.get("v"), Some(&Value::Null), "{x} -> {s}");
            // ...and the null reads as an absent number, never a panic.
            assert_eq!(back.get("v").unwrap().as_f64(), None);
            assert_eq!(back.get("v").unwrap().as_u64(), None);
        }
    }

    #[test]
    fn integer_counters_round_trip_exactly_up_to_2_pow_53() {
        // Metrics counters are u64 but JSON numbers are f64: every integer
        // with magnitude <= 2^53 is exactly representable and must survive
        // a write/parse cycle bit-exactly.
        const MAX_EXACT: u64 = 1 << 53;
        for v in [0u64, 1, 42, (1 << 32) + 3, MAX_EXACT - 1, MAX_EXACT] {
            let s = Value::Num(v as f64).to_json_string();
            assert_eq!(Value::parse(&s).unwrap().as_u64(), Some(v), "{v} -> {s}");
        }
    }

    #[test]
    fn integer_counters_above_2_pow_53_are_lossy_but_total() {
        // Pinned behavior: counters above 2^53 round to the nearest
        // representable f64 (here 2^53 + 1 -> 2^53). The encoding is lossy
        // but never fails, never goes negative, and stays monotone — a
        // serve process would need ~28 years at 10M requests/sec to get
        // there, so we document the cliff instead of inventing a string
        // encoding for counters. Identifiers that must be exact (e.g.
        // 64-bit graph fingerprints) are serialised as hex strings instead.
        const MAX_EXACT: u64 = 1 << 53;
        let above = MAX_EXACT + 1;
        let s = Value::Num(above as f64).to_json_string();
        let back = Value::parse(&s).unwrap().as_u64().unwrap();
        assert_eq!(back, MAX_EXACT, "2^53 + 1 rounds down to 2^53");
        // u64::MAX rounds up to 2^64; the saturating float->int cast clamps
        // the readback to u64::MAX rather than wrapping.
        let s = Value::Num(u64::MAX as f64).to_json_string();
        assert_eq!(Value::parse(&s).unwrap().as_u64(), Some(u64::MAX));
        // monotonicity across the cliff: readbacks never decrease
        let reads: Vec<u64> = [MAX_EXACT - 1, MAX_EXACT, above, u64::MAX]
            .iter()
            .map(|&v| {
                Value::parse(&Value::Num(v as f64).to_json_string())
                    .unwrap()
                    .as_u64()
                    .unwrap()
            })
            .collect();
        assert!(reads.windows(2).all(|w| w[0] <= w[1]), "{reads:?}");
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "quote\" back\\ nl\n tab\t unicode→ ctrl\u{1}";
        let json = Value::Str(s.to_string()).to_json_string();
        assert_eq!(Value::parse(&json).unwrap().as_str(), Some(s));
    }

    #[test]
    fn unicode_escape_parses() {
        assert_eq!(Value::parse(r#""é😀""#).unwrap().as_str(), Some("é😀"));
    }

    #[test]
    fn writer_round_trips_document() {
        let doc = Value::obj(vec![
            ("name", Value::Str("privim".into())),
            ("eps", Value::Arr(vec![Value::Num(1.0), Value::Num(2.5)])),
            ("private", Value::Bool(true)),
            ("note", Value::Null),
        ]);
        for s in [doc.to_json_string(), doc.to_json_string_pretty()] {
            assert_eq!(Value::parse(&s).unwrap(), doc);
        }
    }

    #[test]
    fn to_json_impls_compose() {
        let v = vec![Some(1.5f64), None];
        assert_eq!(v.to_json().to_json_string(), "[1.5,null]");
        assert_eq!("x".to_json(), Value::Str("x".into()));
        assert_eq!(42u64.to_json(), Value::Num(42.0));
    }
}
