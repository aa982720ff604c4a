//! A minimal JSON value parser.
//!
//! The build environment has no serde; this module is the one *reader*
//! behind the service's wire protocol, journal and event log, the
//! benchmark's result files, and the tests that prove the hand-rolled
//! exporters' artifacts parse. Recursive descent (RFC 8259) into a [`Json`]
//! tree.

/// A parsed JSON value. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (None for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Parse one JSON value (with optional surrounding whitespace).
pub fn parse(text: &str) -> Result<Json, String> {
    let b = text.as_bytes();
    let mut pos = skip_ws(b, 0);
    let (value, next) = parse_value(b, pos, 0)?;
    pos = skip_ws(b, next);
    if pos != b.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

/// Parse line-delimited JSON: one value per non-blank line. An error names
/// the 1-based line it came from.
pub fn parse_lines(text: &str) -> Result<Vec<Json>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| parse(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

const MAX_DEPTH: usize = 64;

fn skip_ws(b: &[u8], mut pos: usize) -> usize {
    while pos < b.len() && matches!(b[pos], b' ' | b'\t' | b'\n' | b'\r') {
        pos += 1;
    }
    pos
}

fn parse_value(b: &[u8], pos: usize, depth: usize) -> Result<(Json, usize), String> {
    if depth > MAX_DEPTH {
        return Err("nesting too deep".to_string());
    }
    match b.get(pos) {
        None => Err(format!("unexpected end of input at byte {pos}")),
        Some(b'{') => parse_object(b, pos, depth),
        Some(b'[') => parse_array(b, pos, depth),
        Some(b'"') => parse_string(b, pos).map(|(s, p)| (Json::Str(s), p)),
        Some(b't') => parse_lit(b, pos, b"true").map(|p| (Json::Bool(true), p)),
        Some(b'f') => parse_lit(b, pos, b"false").map(|p| (Json::Bool(false), p)),
        Some(b'n') => parse_lit(b, pos, b"null").map(|p| (Json::Null, p)),
        Some(c) if *c == b'-' || c.is_ascii_digit() => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {pos}", *c as char)),
    }
}

fn parse_lit(b: &[u8], pos: usize, lit: &[u8]) -> Result<usize, String> {
    if b.len() >= pos + lit.len() && &b[pos..pos + lit.len()] == lit {
        Ok(pos + lit.len())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_string(b: &[u8], mut pos: usize) -> Result<(String, usize), String> {
    let start = pos;
    pos += 1; // opening quote
    let mut out = String::new();
    while pos < b.len() {
        match b[pos] {
            b'"' => return Ok((out, pos + 1)),
            b'\\' => match b.get(pos + 1) {
                Some(b'"') => {
                    out.push('"');
                    pos += 2;
                }
                Some(b'\\') => {
                    out.push('\\');
                    pos += 2;
                }
                Some(b'/') => {
                    out.push('/');
                    pos += 2;
                }
                Some(b'b') => {
                    out.push('\u{8}');
                    pos += 2;
                }
                Some(b'f') => {
                    out.push('\u{c}');
                    pos += 2;
                }
                Some(b'n') => {
                    out.push('\n');
                    pos += 2;
                }
                Some(b'r') => {
                    out.push('\r');
                    pos += 2;
                }
                Some(b't') => {
                    out.push('\t');
                    pos += 2;
                }
                Some(b'u') => {
                    if b.len() < pos + 6 || !b[pos + 2..pos + 6].iter().all(u8::is_ascii_hexdigit) {
                        return Err(format!("bad \\u escape at byte {pos}"));
                    }
                    let hex = std::str::from_utf8(&b[pos + 2..pos + 6]).unwrap();
                    let code = u32::from_str_radix(hex, 16).unwrap();
                    // Surrogates are accepted but rendered as the
                    // replacement character — the artifacts never emit them.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    pos += 6;
                }
                _ => return Err(format!("bad escape at byte {pos}")),
            },
            0x00..=0x1f => return Err(format!("raw control character in string at byte {pos}")),
            _ => {
                // Copy one UTF-8 scalar (the input is a &str, so this is
                // always a valid boundary walk).
                let ch_len = utf8_len(b[pos]);
                let s = std::str::from_utf8(&b[pos..pos + ch_len])
                    .map_err(|_| format!("bad utf-8 at byte {pos}"))?;
                out.push_str(s);
                pos += ch_len;
            }
        }
    }
    Err(format!("unterminated string starting at byte {start}"))
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_number(b: &[u8], mut pos: usize) -> Result<(Json, usize), String> {
    let start = pos;
    if b.get(pos) == Some(&b'-') {
        pos += 1;
    }
    let int_start = pos;
    while pos < b.len() && b[pos].is_ascii_digit() {
        pos += 1;
    }
    // RFC 8259 §6: the integer part is `0` or starts with a nonzero digit.
    if pos == int_start || (b[int_start] == b'0' && pos - int_start > 1) {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(pos) == Some(&b'.') {
        pos += 1;
        let frac_start = pos;
        while pos < b.len() && b[pos].is_ascii_digit() {
            pos += 1;
        }
        if pos == frac_start {
            return Err(format!("bad number at byte {start}"));
        }
    }
    if matches!(b.get(pos), Some(b'e' | b'E')) {
        pos += 1;
        if matches!(b.get(pos), Some(b'+' | b'-')) {
            pos += 1;
        }
        let exp_start = pos;
        while pos < b.len() && b[pos].is_ascii_digit() {
            pos += 1;
        }
        if pos == exp_start {
            return Err(format!("bad number at byte {start}"));
        }
    }
    let text = std::str::from_utf8(&b[start..pos]).unwrap();
    let n: f64 = text.parse().map_err(|_| format!("unparseable number at byte {start}"))?;
    Ok((Json::Num(n), pos))
}

fn parse_object(b: &[u8], mut pos: usize, depth: usize) -> Result<(Json, usize), String> {
    pos = skip_ws(b, pos + 1);
    let mut fields = Vec::new();
    if b.get(pos) == Some(&b'}') {
        return Ok((Json::Obj(fields), pos + 1));
    }
    loop {
        if b.get(pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        let (key, next) = parse_string(b, pos)?;
        pos = skip_ws(b, next);
        if b.get(pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        pos = skip_ws(b, pos + 1);
        let (value, next) = parse_value(b, pos, depth + 1)?;
        fields.push((key, value));
        pos = skip_ws(b, next);
        match b.get(pos) {
            Some(b',') => pos = skip_ws(b, pos + 1),
            Some(b'}') => return Ok((Json::Obj(fields), pos + 1)),
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(b: &[u8], mut pos: usize, depth: usize) -> Result<(Json, usize), String> {
    pos = skip_ws(b, pos + 1);
    let mut items = Vec::new();
    if b.get(pos) == Some(&b']') {
        return Ok((Json::Arr(items), pos + 1));
    }
    loop {
        let (value, next) = parse_value(b, pos, depth + 1)?;
        items.push(value);
        pos = skip_ws(b, next);
        match b.get(pos) {
            Some(b',') => pos = skip_ws(b, pos + 1),
            Some(b']') => return Ok((Json::Arr(items), pos + 1)),
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_envelope_shape() {
        let v = parse(
            r#"{"schema_version":1,"git_rev":"abc","config":{"jobs":24},
               "metrics":{"p99_ns":1.5e3,"ok":true,"note":null,"xs":[1,2]}}"#,
        )
        .unwrap();
        assert_eq!(v.get("schema_version").and_then(Json::as_f64), Some(1.0));
        assert_eq!(v.get("git_rev").and_then(Json::as_str), Some("abc"));
        let m = v.get("metrics").unwrap();
        assert_eq!(m.get("p99_ns").and_then(Json::as_f64), Some(1500.0));
        assert_eq!(m.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(m.get("note"), Some(&Json::Null));
        assert_eq!(m.get("xs"), Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])));
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\n\t\"\\é b""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"\\\u{e9} b"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "nul",
            "1.2.3",
            "\"x",
            "\"unterminated",
            "{} extra",
            "01a",
            "[1 2]",
            "{'a':1}",
            // Leading zeros are not JSON (python3's json.load rejects them).
            "01",
            "-01",
            "-007",
            "[00]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn accepts_every_value_form() {
        for good in [
            "{}",
            "[]",
            "null",
            "true",
            "-12.5e-3",
            "\"a\\u00e9\\n\"",
            "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\"}",
            "  [1, 2, 3]  ",
            "0",
            "-0",
            "0.5",
            "10",
            "1e05",
        ] {
            assert!(parse(good).is_ok(), "{good:?}");
        }
    }

    #[test]
    fn numbers_parse_exactly() {
        assert_eq!(parse("-12.5e-3").unwrap().as_f64(), Some(-0.0125));
        assert_eq!(parse("0").unwrap().as_f64(), Some(0.0));
        assert_eq!(parse("1e05").unwrap().as_f64(), Some(100_000.0));
    }

    #[test]
    fn parse_lines_skips_blanks_and_names_the_bad_line() {
        let docs = parse_lines("{\"a\":1}\n\n  \n{\"b\":2}\n").unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[1].get("b").and_then(Json::as_f64), Some(2.0));
        assert_eq!(parse_lines("").unwrap(), vec![]);
        let err = parse_lines("{\"a\":1}\noops\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
