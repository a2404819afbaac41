//! A minimal JSON value type, parser and string escaper.
//!
//! The workspace is offline-only (no crates.io), so the HTTP front end
//! carries its own JSON support: a strict recursive-descent parser for
//! request bodies and the small set of emission helpers the response
//! renderers need. Numbers are `f64` — node ids and walk budgets are exact
//! up to 2^53, far beyond any graph this engine serves — and float emission
//! uses Rust's shortest-round-trip `Display`, which is what makes HTTP
//! responses bit-identical to in-process values.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers are exact up to 2^53).
    Number(f64),
    /// A string (escapes already resolved).
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in source order (duplicate keys keep the last value on
    /// lookup, like most parsers).
    Object(Vec<(String, Json)>),
}

/// Maximum nesting depth accepted by [`Json::parse`]; deeper input is
/// rejected instead of risking stack exhaustion on adversarial bodies.
const MAX_DEPTH: usize = 64;

impl Json {
    /// Parses a complete JSON document; trailing non-whitespace is an error.
    ///
    /// ```
    /// use er_http::json::Json;
    ///
    /// let v = Json::parse(r#"{"query": {"type": "pair", "s": 0, "t": 7}}"#).unwrap();
    /// let query = v.get("query").unwrap();
    /// assert_eq!(query.get("type").and_then(Json::as_str), Some("pair"));
    /// assert_eq!(query.get("t").and_then(Json::as_u64), Some(7));
    /// assert!(Json::parse("{\"open\":").is_err());
    /// ```
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (last duplicate wins); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The number as a non-negative integer (rejects fractions, negatives
    /// and magnitudes beyond 2^53 where `f64` stops being exact).
    pub fn as_u64(&self) -> Option<u64> {
        let v = self.as_f64()?;
        if v.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&v) {
            Some(v as u64)
        } else {
            None
        }
    }

    /// [`Self::as_u64`] narrowed to `usize` (node ids, counts).
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items.as_slice()),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect_literal(bytes: &[u8], pos: &mut usize, literal: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect_literal(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect_literal(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect_literal(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::String),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            loop {
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b'"') {
                    return Err(format!("expected object key at byte {pos}"));
                }
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&c) = bytes.get(*pos) else {
            return Err("unterminated string".into());
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".into());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let first = parse_hex4(bytes, pos)?;
                        let code = if (0xD800..0xDC00).contains(&first) {
                            // Surrogate pair: expect \uDC00..DFFF next.
                            if bytes.get(*pos) == Some(&b'\\') && bytes.get(*pos + 1) == Some(&b'u')
                            {
                                *pos += 2;
                                let second = parse_hex4(bytes, pos)?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err("invalid low surrogate".into());
                                }
                                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                            } else {
                                return Err("lone high surrogate".into());
                            }
                        } else if (0xDC00..0xE000).contains(&first) {
                            return Err("lone low surrogate".into());
                        } else {
                            first
                        };
                        out.push(
                            char::from_u32(code).ok_or_else(|| "invalid codepoint".to_string())?,
                        );
                    }
                    other => return Err(format!("invalid escape '\\{}'", other as char)),
                }
            }
            0x00..=0x1F => return Err("raw control character in string".into()),
            _ => {
                // Re-validate multibyte UTF-8 by slicing from the source.
                let start = *pos - 1;
                let len = utf8_len(c);
                let end = start + len;
                if end > bytes.len() {
                    return Err("truncated UTF-8 sequence".into());
                }
                let s = std::str::from_utf8(&bytes[start..end])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?;
                out.push_str(s);
                *pos = end;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    if *pos + 4 > bytes.len() {
        return Err("truncated \\u escape".into());
    }
    let hex = std::str::from_utf8(&bytes[*pos..*pos + 4]).map_err(|_| "bad \\u escape")?;
    let v = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
    *pos += 4;
    Ok(v)
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_start = *pos;
    while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
        *pos += 1;
    }
    if *pos == digits_start {
        return Err(format!("expected a value at byte {start}"));
    }
    // Leading zeros are rejected (JSON forbids 007).
    if *pos - digits_start > 1 && bytes[digits_start] == b'0' {
        return Err(format!("leading zero at byte {digits_start}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_start = *pos;
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            *pos += 1;
        }
        if *pos == frac_start {
            return Err("digits required after decimal point".into());
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp_start = *pos;
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            *pos += 1;
        }
        if *pos == exp_start {
            return Err("digits required in exponent".into());
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII number");
    text.parse::<f64>()
        .map(Json::Number)
        .map_err(|_| format!("invalid number '{text}'"))
}

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
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
    out
}

/// Formats an `f64` as a JSON number using Rust's shortest-round-trip
/// `Display`, so a client that parses it back recovers the exact bits —
/// the property the HTTP-equals-in-process tests pin. Non-finite values
/// (which no healthy response carries) render as `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_objects() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Number(-250.0));
        assert_eq!(
            Json::parse(r#""a\"b\u0041\n""#).unwrap(),
            Json::String("a\"bA\n".into())
        );
        let v = Json::parse(r#"{"a": [1, 2], "b": {"c": "x"}, "a": 3}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(3), "last dup wins");
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x")
        );
        let arr = Json::parse("[0, 1.5, \"s\"]").unwrap();
        assert_eq!(arr.as_array().unwrap().len(), 3);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "nul",
            "01",
            "1.",
            "1e",
            "\"\\x\"",
            "\"",
            "[1] extra",
            "+1",
            "--1",
            "\"\\ud800\"",
            "{'a': 1}",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
        // Depth bomb: rejected, not a stack overflow.
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn surrogate_pairs_round_trip() {
        let v = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        let raw = Json::parse("\"😀\"").unwrap();
        assert_eq!(raw.as_str(), Some("😀"));
    }

    #[test]
    fn integer_accessors_guard_range_and_fractions() {
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(Json::parse("7.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-7").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1e300").unwrap().as_u64(), None);
    }

    #[test]
    fn number_emission_round_trips_bits() {
        for v in [
            0.25,
            1.0 / 3.0,
            6.02e23,
            1e-300,
            0.1 + 0.2,
            f64::MIN_POSITIVE,
        ] {
            let text = number(v);
            let back: f64 = match Json::parse(&text).unwrap() {
                Json::Number(b) => b,
                other => panic!("{other:?}"),
            };
            assert_eq!(back.to_bits(), v.to_bits(), "{text}");
        }
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }
}
