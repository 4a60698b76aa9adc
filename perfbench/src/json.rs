//! A small JSON reader for the daemon's responses, and the string escaping
//! the request lines need.  The benchmark reads the program's output with
//! its own parser, so a fault in the daemon's serializer shows as a failed
//! check instead of being read back by the same code.

use ss_interp::{ArrayVal, Heap};

/// A parsed JSON value.  Numbers keep their text so 64-bit integers
/// survive exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at offset {}",
                byte as char, self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > 64 {
            return Err("nesting too deep".to_string());
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.pos;
                while self.pos < self.bytes.len()
                    && matches!(
                        self.bytes[self.pos],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.pos += 1;
                }
                if start == self.pos {
                    return Err(format!("unexpected byte at offset {start}"));
                }
                let text =
                    std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
                text.parse::<f64>()
                    .map_err(|_| format!("bad number '{text}'"))?;
                Ok(Json::Num(text.to_string()))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected a string at offset {}", self.pos));
        }
        self.pos += 1;
        let mut out: Vec<u8> = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err("unterminated escape".to_string());
                    };
                    self.pos += 1;
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            char::from_u32(hex).unwrap_or('\u{fffd}')
                        }
                        _ => return Err("bad escape".to_string()),
                    };
                    let mut buf = [0u8; 4];
                    out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                }
                _ => out.push(b),
            }
        }
    }
}

/// Reads a heap in the daemon's `heap` schema:
/// `{"scalars":{name:int},"arrays":{name:{"dims":[..],"data":[..]}}}`.
pub fn heap_from_json(value: &Json) -> Result<Heap, String> {
    let mut heap = Heap::new();
    let Some(Json::Obj(scalars)) = value.get("scalars") else {
        return Err("heap has no 'scalars' object".to_string());
    };
    for (name, v) in scalars {
        let v = v
            .as_i64()
            .ok_or(format!("scalar '{name}' is not an integer"))?;
        heap.scalars.insert(name.clone(), v);
    }
    let Some(Json::Obj(arrays)) = value.get("arrays") else {
        return Err("heap has no 'arrays' object".to_string());
    };
    for (name, a) in arrays {
        let ints = |key: &str| -> Result<Vec<i64>, String> {
            a.get(key)
                .and_then(Json::as_array)
                .ok_or(format!("array '{name}' has no '{key}' list"))?
                .iter()
                .map(|v| {
                    v.as_i64()
                        .ok_or(format!("array '{name}': non-integer in '{key}'"))
                })
                .collect()
        };
        let dims = ints("dims")?.into_iter().map(|d| d as usize).collect();
        let data = ints("data")?;
        heap.arrays.insert(name.clone(), ArrayVal { dims, data });
    }
    Ok(heap)
}

/// A JSON string literal for `text`.
pub fn string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_values_and_keeps_integers_exact() {
        let v = parse(r#"{"a":[1,-9223372036854775808,{"b":"x\ny"}],"t":true,"n":null}"#).unwrap();
        let a = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a[1].as_i64(), Some(i64::MIN));
        assert_eq!(a[2].get("b"), Some(&Json::Str("x\ny".to_string())));
        assert_eq!(v.get("t"), Some(&Json::Bool(true)));
        assert!(parse("{\"a\":1").is_err());
        assert!(parse("[1] x").is_err());
    }

    #[test]
    fn string_escaping_round_trips() {
        let text = "for (i = 0; i < n; i++) {\n\t\"q\"\\ }";
        assert_eq!(parse(&string(text)).unwrap(), Json::Str(text.to_string()));
    }

    #[test]
    fn reads_heaps() {
        let v = parse(r#"{"scalars":{"n":4},"arrays":{"x":{"dims":[2],"data":[5,-6]}}}"#).unwrap();
        let heap = heap_from_json(&v).unwrap();
        assert_eq!(heap.scalars["n"], 4);
        assert_eq!(heap.arrays["x"].data, vec![5, -6]);
    }
}
