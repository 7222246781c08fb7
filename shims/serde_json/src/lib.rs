//! Vendored stand-in for `serde_json`, scoped to what this workspace uses:
//! [`to_string`], [`to_string_pretty`], and [`from_str`] over the serde
//! stand-in's ordered value tree.
//!
//! Output is deterministic: object keys keep insertion (declaration) order
//! and numbers are printed canonically, so serializing the same value twice
//! yields byte-identical text.

pub use serde::{Error, Value};

/// Serializes a value to compact JSON.
///
/// # Errors
///
/// Infallible for the value shapes this workspace produces; the `Result`
/// mirrors the real `serde_json` signature.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes a value to two-space-indented JSON.
///
/// # Errors
///
/// Infallible for the value shapes this workspace produces.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some("  "), 0);
    Ok(out)
}

/// Parses JSON text into a deserializable type.
///
/// # Errors
///
/// Returns an [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_value(text)?;
    T::from_value(&value)
}

fn write_value(out: &mut String, value: &Value, indent: Option<&str>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::I64(x) => out.push_str(&x.to_string()),
        Value::U64(x) => out.push_str(&x.to_string()),
        Value::F64(x) => write_f64(out, *x),
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
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
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<&str>, depth: usize) {
    if let Some(unit) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str(unit);
        }
    }
}

fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        // JSON has no NaN/Infinity literal; match the permissive JS choice.
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 1e15 {
        // Keep a fractional marker so integral floats stay floats, the way
        // serde_json prints them.
        out.push_str(&format!("{x:.1}"));
    } else {
        // `{}` on f64 is the shortest representation that round-trips.
        out.push_str(&x.to_string());
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
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The deepest nesting of arrays and objects [`from_str`] accepts, as in
/// the real `serde_json`. The parser recurses once per level, so the bound
/// keeps hostile input from overflowing the stack; it also bounds the
/// recursive drop of the parsed tree.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

fn parse_value(text: &str) -> Result<Value, Error> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_whitespace();
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(Error::custom(format!(
            "trailing characters at offset {}",
            parser.pos
        )));
    }
    Ok(value)
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at offset {}",
                byte as char, self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(Error::custom(format!(
                        "recursion limit exceeded: more than {MAX_DEPTH} nested arrays \
                         and objects at offset {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error::custom(format!(
                "unexpected {:?} at offset {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(Error::custom(format!(
                "invalid literal at offset {}",
                self.pos
            )))
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::custom(format!(
                        "expected `,` or `]` at {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => {
                    return Err(Error::custom(format!(
                        "expected `,` or `}}` at {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::custom("invalid utf-8 in string"))?,
            );
            match self.peek() {
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let high = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&high) {
                                // Surrogate pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let low = self.hex4()?;
                                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                high
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::custom("invalid unicode escape"))?,
                            );
                            continue;
                        }
                        _ => return Err(Error::custom("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                _ => return Err(Error::custom("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| Error::custom("truncated unicode escape"))?;
        let text = std::str::from_utf8(slice).map_err(|_| Error::custom("bad unicode escape"))?;
        let code =
            u32::from_str_radix(text, 16).map_err(|_| Error::custom("bad unicode escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| Error::custom(format!("invalid number `{text}`")))
        } else if let Some(digits) = text.strip_prefix('-') {
            digits
                .parse::<u64>()
                .ok()
                .and_then(|_| text.parse::<i64>().ok())
                .map(Value::I64)
                .ok_or_else(|| Error::custom(format!("invalid number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|_| Error::custom(format!("invalid number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        for text in [
            "null",
            "true",
            "[1,2,3]",
            "{\"a\":1,\"b\":[2.5,-3],\"c\":\"x\\ny\"}",
        ] {
            let value: Value = from_str(text).unwrap();
            assert_eq!(to_string(&value).unwrap(), text);
        }
    }

    #[test]
    fn pretty_printing_indents() {
        let value: Value = from_str("{\"a\":[1]}").unwrap();
        assert_eq!(
            to_string_pretty(&value).unwrap(),
            "{\n  \"a\": [\n    1\n  ]\n}"
        );
    }

    #[test]
    fn floats_keep_fraction_marker() {
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string(&0.1f64).unwrap(), "0.1");
        let back: f64 = from_str("1.0").unwrap();
        assert_eq!(back, 1.0);
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested = |depth: usize, open: &str, close: &str| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(from_str::<Value>(&nested(MAX_DEPTH, "[", "]")).is_ok());
        assert!(from_str::<Value>(&nested(MAX_DEPTH, "{\"a\":", "}").replace(":}", ":1}")).is_ok());
        for text in [
            nested(MAX_DEPTH + 1, "[", "]"),
            nested(MAX_DEPTH + 1, "{\"a\":", "}"),
            "[".repeat(200_000),
        ] {
            let err = from_str::<Value>(&text).unwrap_err();
            assert!(err.to_string().contains("recursion limit"), "{err}");
        }
        // Siblings do not add depth.
        let wide = format!("[{}]", vec![nested(MAX_DEPTH - 1, "[", "]"); 3].join(","));
        assert!(from_str::<Value>(&wide).is_ok());
    }

    #[test]
    fn rejects_malformed() {
        assert!(from_str::<Value>("{\"a\":}").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("12 34").is_err());
    }
}
