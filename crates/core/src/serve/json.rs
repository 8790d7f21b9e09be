//! The one JSON codec of the workspace: the [`Json`] value, its parser
//! and its two renderers — compact [`Json::render`] for the wire and
//! indented [`Json::render_pretty`] for the `BENCH_*.json` files. The
//! workspace vendors no serializer.

use std::fmt;

/// A parsed JSON value. Objects preserve insertion order (they are
/// association lists, not maps); duplicate keys keep the first.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON value; trailing non-whitespace is an
    /// error. Nesting depth is capped (anti-abuse; the protocol needs
    /// depth ≤ 3).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { b: text.as_bytes(), i: 0 };
        p.ws();
        let v = p.value(0)?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects and absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render to compact JSON text (the wire format).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Render to indented JSON text for files people read: two spaces
    /// per level, one object field or container element per line; an
    /// array of scalars stays on one line. No trailing newline.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(0, &mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, indent: usize, out: &mut String) {
        use fmt::Write as _;
        match self {
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    let _ = write!(out, "{:indent$}  ", "");
                    write_string(k, out);
                    out.push_str(": ");
                    v.write_pretty(indent + 2, out);
                }
                let _ = write!(out, "\n{:indent$}}}", "");
            }
            Json::Arr(items) if items.iter().any(|v| matches!(v, Json::Obj(_) | Json::Arr(_))) => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    let _ = write!(out, "{:indent$}  ", "");
                    v.write_pretty(indent + 2, out);
                }
                let _ = write!(out, "\n{:indent$}]", "");
            }
            other => other.write(out),
        }
    }

    /// Convenience constructor for an object literal.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Convenience constructor for an integer number.
    #[allow(clippy::cast_precision_loss)]
    pub fn num(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn write_number(n: f64, out: &mut String) {
    use fmt::Write as _;
    if !n.is_finite() {
        // JSON has no NaN/Infinity; the protocol renders them as
        // strings, spelled as XPath's string() spells them.
        write_string(&crate::value::number_to_string(n), out);
    } else if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

const MAX_JSON_DEPTH: u32 = 64;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", c as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at offset {}", self.i))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, String> {
        if depth > MAX_JSON_DEPTH {
            return Err("nesting too deep".to_owned());
        }
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.ws();
                    items.push(self.value(depth + 1)?);
                    self.ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                let mut fields: Vec<(String, Json)> = Vec::new();
                self.ws();
                if self.peek() == Some(b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    self.eat(b':')?;
                    self.ws();
                    let val = self.value(depth + 1)?;
                    if !fields.iter().any(|(k, _)| *k == key) {
                        fields.push((key, val));
                    }
                    self.ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.i)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("ASCII slice");
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("invalid number at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err("unterminated string".to_owned());
            };
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(e) = self.peek() else {
                        return Err("unterminated escape".to_owned());
                    };
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.peek() == Some(b'\\') {
                                    self.i += 1;
                                    self.eat(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err("invalid low surrogate".to_owned());
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err("lone surrogate".to_owned());
                                }
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "invalid codepoint".to_owned())?,
                            );
                        }
                        _ => return Err(format!("invalid escape at offset {}", self.i)),
                    }
                }
                c if c < 0x20 => return Err("control byte in string".to_owned()),
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Multi-byte UTF-8: the input is a &str, so the
                    // sequence is valid; re-decode from the byte slice.
                    let rest = std::str::from_utf8(&self.b[self.i - 1..])
                        .map_err(|_| "invalid UTF-8".to_owned())?;
                    let ch = rest.chars().next().ok_or_else(|| "empty".to_owned())?;
                    out.push(ch);
                    self.i += ch.len_utf8() - 1;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.i + 4;
        let s = self
            .b
            .get(self.i..end)
            .and_then(|s| std::str::from_utf8(s).ok())
            .ok_or_else(|| "truncated \\u escape".to_owned())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "invalid \\u escape".to_owned())?;
        self.i = end;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_and_errors() {
        let cases = [
            r#"{"a":1,"b":[true,false,null],"c":"x\"\\\n\u00e9\ud83d\ude00"}"#,
            "[]",
            "{}",
            "-1.5e3",
            r#""plain""#,
        ];
        for case in cases {
            let v = Json::parse(case).unwrap();
            let rendered = v.render();
            assert_eq!(Json::parse(&rendered).unwrap(), v, "{case}");
        }
        for bad in
            ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"\\ud800\"", "\"unterminated", "{1:2}"]
        {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        // Duplicate keys keep the first; numbers render integrally.
        assert_eq!(Json::parse(r#"{"k":1,"k":2}"#).unwrap().get("k"), Some(&Json::Num(1.0)));
        assert_eq!(Json::Num(3.0).render(), "3");
    }

    #[test]
    fn pretty_rendering_indents_containers_and_keeps_scalar_arrays_inline() {
        let v = Json::parse(r#"{"a":[1,2],"b":[{"c":"x\"y"}],"d":{},"e":[]}"#).unwrap();
        let want = "{\n  \"a\": [1,2],\n  \"b\": [\n    {\n      \"c\": \"x\\\"y\"\n    }\n  ],\n  \"d\": {},\n  \"e\": []\n}";
        assert_eq!(v.render_pretty(), want);
        assert_eq!(Json::parse(&v.render_pretty()).unwrap(), v);
    }
}
