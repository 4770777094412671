//! Just enough JSON to read a run's result line back (`--aa` does, and
//! a test): objects of strings, numbers and booleans. The container
//! has no JSON crate. Everything the benchmark writes is made of names
//! that need no escaping (a test in `names.rs` holds them to that).

#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Bool(bool),
    Num(f64),
    Str(String),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
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

    fn eat(&mut self, lit: &str) -> bool {
        self.skip_ws();
        let found = self.bytes[self.pos..].starts_with(lit.as_bytes());
        if found {
            self.pos += lit.len();
        }
        found
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        if self.eat(lit) {
            Ok(())
        } else {
            Err(format!("expected '{lit}' at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        if self.eat("{") {
            let mut fields = Vec::new();
            if self.eat("}") {
                return Ok(Value::Obj(fields));
            }
            loop {
                let key = self.string()?;
                self.expect(":")?;
                fields.push((key, self.value()?));
                if self.eat("}") {
                    return Ok(Value::Obj(fields));
                }
                self.expect(",")?;
            }
        }
        if self.eat("true") {
            return Ok(Value::Bool(true));
        }
        if self.eat("false") {
            return Ok(Value::Bool(false));
        }
        if self.bytes.get(self.pos) == Some(&b'"') {
            return self.string().map(Value::Str);
        }
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad value at offset {start}"))
    }

    /// A string without escapes: the benchmark writes no others.
    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let start = self.pos;
        while let Some(&c) = self.bytes.get(self.pos) {
            self.pos += 1;
            match c {
                b'"' => {
                    return String::from_utf8(self.bytes[start..self.pos - 1].to_vec())
                        .map_err(|e| e.to_string())
                }
                b'\\' => return Err(format!("escape at offset {}", self.pos - 1)),
                _ => {}
            }
        }
        Err("unterminated string".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_result_line() {
        let v = parse(
            r#"{"correct": true, "attempted": 10, "failed": 0,
                "metrics": {"op_p50_ms": {"value": 1.25e0, "unit": "ms"}}}"#,
        )
        .unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(10.0));
        let m = v.get("metrics").and_then(|m| m.get("op_p50_ms")).unwrap();
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(m.get("unit"), Some(&Value::Str("ms".into())));
        assert_eq!(parse("{}"), Ok(Value::Obj(Vec::new())));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse(r#"{"a": 1,}"#).is_err());
        assert!(parse(r#"{"a\n": 1}"#).is_err());
        assert!(parse("1 2").is_err());
    }
}
