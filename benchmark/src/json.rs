//! A small JSON reader and writer for the benchmark's own files
//! (`BENCHMARK.json`, result sets). The repository has a well-formedness
//! checker (`analysis::validate_json`) but no parser, and `--agree` and the
//! spec test must read values back.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; key order is not kept.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The elements of an array (empty for anything else).
    pub fn items(&self) -> &[Value] {
        match self {
            Value::Array(items) => items,
            _ => &[],
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The members of an object (empty for anything else).
    pub fn members(&self) -> impl Iterator<Item = (&String, &Value)> {
        let map = match self {
            Value::Object(map) => Some(map),
            _ => None,
        };
        map.into_iter().flatten()
    }
}

/// Parse one JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    // The grammar check rejects everything the reader below does not
    // handle, so the reader can assume well-formed input.
    analysis::validate_json(text).map_err(|e| e.to_string())?;
    let mut reader = Reader {
        bytes: text.as_bytes(),
        pos: 0,
    };
    Ok(reader.value())
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Value {
        self.skip_ws();
        match self.bytes[self.pos] {
            b'{' => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                loop {
                    self.skip_ws();
                    if self.bytes[self.pos] == b'}' {
                        self.pos += 1;
                        return Value::Object(map);
                    }
                    if self.bytes[self.pos] == b',' {
                        self.pos += 1;
                        continue;
                    }
                    let key = self.string();
                    self.skip_ws();
                    self.pos += 1; // ':'
                    map.insert(key, self.value());
                }
            }
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    match self.bytes[self.pos] {
                        b']' => {
                            self.pos += 1;
                            return Value::Array(items);
                        }
                        b',' => self.pos += 1,
                        _ => items.push(self.value()),
                    }
                }
            }
            b'"' => Value::String(self.string()),
            b't' => {
                self.pos += 4;
                Value::Bool(true)
            }
            b'f' => {
                self.pos += 5;
                Value::Bool(false)
            }
            b'n' => {
                self.pos += 4;
                Value::Null
            }
            _ => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| b"+-.eE0123456789".contains(b))
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("0");
                Value::Number(text.parse().unwrap_or(f64::NAN))
            }
        }
    }

    fn string(&mut self) -> String {
        self.pos += 1; // opening quote
        let mut out = Vec::new();
        loop {
            let b = self.bytes[self.pos];
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8_lossy(&out).into_owned(),
                b'\\' => {
                    let escaped = self.bytes[self.pos];
                    self.pos += 1;
                    match escaped {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .unwrap_or("0");
                            self.pos += 4;
                            let c = u32::from_str_radix(hex, 16)
                                .ok()
                                .and_then(char::from_u32)
                                .unwrap_or('\u{FFFD}');
                            out.extend_from_slice(c.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }
}

/// Quote `text` as a JSON string.
pub fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a number with all its digits (JSON has no NaN or infinity; they
/// become 0 so the file stays well-formed).
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a":[1,2.5,{"b":"x\"y\n"}],"c":true,"d":null,"e":-1e-3}"#).unwrap();
        assert_eq!(v.get("a").unwrap().items()[1].as_f64(), Some(2.5));
        assert_eq!(
            v.get("a").unwrap().items()[2].get("b").unwrap().as_str(),
            Some("x\"y\n")
        );
        assert_eq!(v.get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("d"), Some(&Value::Null));
        assert_eq!(v.get("e").unwrap().as_f64(), Some(-1e-3));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{\"a\":").is_err());
        assert!(parse("[1,2] x").is_err());
    }

    #[test]
    fn quote_round_trips() {
        let text = "tab\there \"quoted\" \\ newline\n";
        assert_eq!(parse(&quote(text)).unwrap().as_str(), Some(text));
    }
}
