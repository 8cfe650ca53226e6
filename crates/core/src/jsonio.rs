//! Minimal JSON reading/writing for persistence artifacts.
//!
//! The offline build environment has no `serde`/`serde_json`, so the two
//! places that need durable JSON — the shortcut-index persistence
//! ([`crate::fedch::FedChIndex::to_json`]) and the experiment reporter in
//! `fedroad-bench` — use this hand-rolled document model instead. It
//! supports exactly the JSON subset those artifacts emit: objects, arrays,
//! strings (with escapes), integers, floats, booleans and `null`.

use std::fmt;

/// A JSON document node.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (covers the full `u64`/`i64` ranges used here).
    Int(i128),
    /// A float; must be finite (JSON has no NaN/inf).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, with insertion-ordered keys.
    Obj(Vec<(String, Value)>),
}

/// Why encoding, decoding, or schema extraction failed.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonError {
    /// The input text is not valid JSON.
    Parse {
        /// Byte offset of the error.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// The document parsed, but does not have the expected shape.
    Schema(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Parse { offset, message } => {
                write!(f, "JSON parse error at byte {offset}: {message}")
            }
            JsonError::Schema(m) => write!(f, "JSON schema error: {m}"),
        }
    }
}

impl std::error::Error for JsonError {}

/// Appends `s` as a quoted JSON string.
fn quote_into(s: &str, out: &mut String) {
    out.push('"');
    out.push_str(&fedroad_obs::escape_json(s));
    out.push('"');
}

impl Value {
    /// Serializes the document to compact JSON text.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::Float(x) => {
                debug_assert!(x.is_finite(), "JSON cannot encode {x}");
                // `{:?}` keeps a decimal point / exponent so the value
                // re-parses as a float.
                out.push_str(&format!("{x:?}"));
            }
            Value::Str(s) => quote_into(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    quote_into(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text into a document.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing garbage"));
        }
        Ok(v)
    }

    // ---- schema-extraction accessors -----------------------------------

    /// The object's field `key`, or a schema error naming it.
    pub fn get(&self, key: &str) -> Result<&Value, JsonError> {
        match self {
            Value::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| JsonError::Schema(format!("missing field `{key}`"))),
            _ => Err(JsonError::Schema(format!(
                "expected object with field `{key}`"
            ))),
        }
    }

    /// The array elements, or a schema error.
    pub fn as_arr(&self) -> Result<&[Value], JsonError> {
        match self {
            Value::Arr(items) => Ok(items),
            _ => Err(JsonError::Schema("expected array".into())),
        }
    }

    /// The value as `u64`, or a schema error.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Value::Int(i) if *i >= 0 && *i <= u64::MAX as i128 => Ok(*i as u64),
            _ => Err(JsonError::Schema("expected unsigned integer".into())),
        }
    }

    /// The value as `u32`, or a schema error.
    pub fn as_u32(&self) -> Result<u32, JsonError> {
        match self {
            Value::Int(i) if *i >= 0 && *i <= u32::MAX as i128 => Ok(*i as u32),
            _ => Err(JsonError::Schema("expected u32".into())),
        }
    }

    /// The value as a string slice, or a schema error.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(JsonError::Schema("expected string".into())),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError::Parse {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{kw}`")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.eat_keyword("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat_keyword("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.eat_keyword("null").map(|()| Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.eat(b'[')?;
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a valid &str).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("bad UTF-8"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("empty"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("bad float"))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|_| self.err("bad integer"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested_document() {
        let doc = Value::Obj(vec![
            ("name".into(), Value::Str("CAL-S \"quoted\"\n".into())),
            (
                "rows".into(),
                Value::Arr(vec![
                    Value::Int(0),
                    Value::Int(u64::MAX as i128),
                    Value::Int(-12),
                    Value::Float(1.5),
                    Value::Null,
                    Value::Bool(true),
                ]),
            ),
            ("empty_arr".into(), Value::Arr(vec![])),
            ("empty_obj".into(), Value::Obj(vec![])),
        ]);
        let text = doc.to_json();
        assert_eq!(Value::parse(&text).unwrap(), doc);
    }

    #[test]
    fn floats_reparse_as_floats() {
        let text = Value::Float(2.0).to_json();
        assert_eq!(Value::parse(&text).unwrap(), Value::Float(2.0));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Value::parse("{\"a\": }").is_err());
        assert!(Value::parse("[1, 2,]").is_err());
        assert!(Value::parse("123 456").is_err());
        assert!(Value::parse("\"unterminated").is_err());
    }

    #[test]
    fn accessors_check_shape() {
        let doc = Value::parse("{\"a\": [1, 2], \"s\": \"x\"}").unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(doc.get("s").unwrap().as_str().unwrap(), "x");
        assert!(doc.get("missing").is_err());
        assert!(doc.get("s").unwrap().as_u64().is_err());
    }
}
