//! A minimal JSON value: enough to write result and trace files and to
//! read result files back for `compare`. No dependency resolves offline,
//! and the benchmark's files use only this subset.

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order so files diff cleanly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; non-finite values are written as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[cfg(test)]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn members(&self) -> &[(String, Value)] {
        match self {
            Value::Obj(pairs) => pairs,
            _ => &[],
        }
    }

    /// Serialize on one line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // `{}` prints the shortest decimal that reads back to the
            // same f64 — every measured digit, no padding.
            Value::Num(n) if n.is_finite() => write!(out, "{n}").expect("write to String"),
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => write_str(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document.
    ///
    /// # Errors
    ///
    /// Returns the byte offset and a reason on malformed input.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting bound: result files are three levels deep; anything past
/// this is not one of ours and must not overflow the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("json: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end")),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Value::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(self.err("expected ',' or ']'"));
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Value::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) != Some(&b'"') {
                        return Err(self.err("expected a key"));
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.err("expected ':'"));
                    }
                    pairs.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Value::Obj(pairs));
                    }
                    if !self.eat(",") {
                        return Err(self.err("expected ',' or '}'"));
                    }
                }
            }
            Some(_) => {
                let start = self.pos;
                while matches!(
                    self.bytes.get(self.pos),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Value::Num)
                    .ok_or_else(|| self.err("expected a value"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening quote
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| self.err("invalid utf-8"));
                }
                Some(b'\\') => {
                    let esc = self.bytes.get(self.pos + 1).copied();
                    self.pos += 2;
                    let c = match esc {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // our writer only escapes control characters;
                            // surrogate pairs are not ours to decode
                            char::from_u32(hex).ok_or_else(|| self.err("bad \\u escape"))?
                        }
                        _ => return Err(self.err("bad escape")),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_kind_of_value() {
        let v = Value::obj([
            ("correct", Value::Bool(true)),
            ("attempted", Value::Num(1000.0)),
            ("ratio", Value::Num(0.1 + 0.2)),
            ("tiny", Value::Num(1.25e-9)),
            ("neg", Value::Num(-3.5)),
            ("name", Value::str("a \"quoted\" \\ line\nbreak \u{1} é")),
            ("none", Value::Null),
            (
                "nested",
                Value::Arr(vec![Value::Arr(vec![]), Value::obj::<&str>([])]),
            ),
        ]);
        let text = v.to_json();
        assert_eq!(Value::parse(&text).unwrap(), v);
        // shortest round-trip digits, not a fixed precision
        assert!(text.contains("0.30000000000000004"), "{text}");
        assert!(!text.contains('\n'));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Value::Num(f64::NAN).to_json(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn accessors() {
        let v = Value::parse(r#" {"a": {"value": 1.5, "unit": "ms"}, "b": [1, 2]} "#).unwrap();
        assert_eq!(
            v.get("a")
                .and_then(|a| a.get("value"))
                .and_then(Value::as_f64),
            Some(1.5)
        );
        assert_eq!(
            v.get("a")
                .and_then(|a| a.get("unit"))
                .and_then(Value::as_str),
            Some("ms")
        );
        assert_eq!(v.members().len(), 2);
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "\"abc",
            "{\"a\":1}x",
            "nul",
            "\"\\u12\"",
            "-",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} parsed");
        }
        let deep = "[".repeat(10_000);
        assert!(Value::parse(&deep).is_err());
    }
}
