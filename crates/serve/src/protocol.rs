//! The `pane serve` wire protocol: JSON-lines over TCP or stdio.
//!
//! One request per line, one response line per request, in order. The
//! grammar is a strict subset of JSON (objects, arrays, strings, finite
//! numbers, booleans, `null`) parsed by the hand-rolled reader below —
//! the workspace builds offline, so no serde. Requests:
//!
//! ```text
//! {"op":"similar-nodes","nodes":[0,1,2],"k":10}
//! {"op":"recommend-links","nodes":[0],"k":10,"exclude":[4,5]}
//! {"op":"top-attributes","nodes":[0,1],"k":10}
//! {"op":"insert","forward":[…k/2 floats…],"backward":[…k/2 floats…]}
//! {"op":"compact"}
//! {"op":"snapshot"}
//! {"op":"stats"}
//! {"op":"metrics"}
//! {"op":"query-vectors","space":"similar","nodes":[0,1]}
//! {"op":"search","space":"links","k":10,"queries":[[…floats…],…]}
//! {"op":"shutdown"}
//! ```
//!
//! `query-vectors` and `search` are the two halves of a *distributed*
//! query — what the `pane route` proxy speaks to shard daemons: the
//! owner daemon turns node ids into raw query vectors (`space` selects
//! the similar-node or link-recommendation vector form), and `search`
//! runs caller-supplied vectors against one index, unfiltered, in the
//! daemon's own id space. Floats cross the wire through the
//! shortest-roundtrip `f64` formatter, so composing the two ops over
//! TCP is bit-identical to the in-process query path.
//!
//! `snapshot` commits a new durable base generation (store-backed
//! daemons only): the grown embedding and rebuilt indexes are written to
//! disk and the insert-ahead log is truncated, so the next boot replays
//! nothing. `stats` responses of store-backed daemons carry a `store`
//! object (`generation`, `wal_records`, `wal_bytes`, `replayed`) and —
//! when serving a sharded root — a `shards` count; instrumented
//! endpoints add `uptime_secs` and `requests_total`. `metrics` (daemon
//! and router) returns the endpoint's metrics registry as a JSON object
//! plus a Prometheus-style `text` exposition (see `pane-obs` and the
//! `ARCHITECTURE.md` Observability section).
//!
//! Responses always carry `"ok"`: `{"ok":true,"op":…,…}` on success,
//! `{"ok":false,"error":"…"}` on failure. Search responses hold one
//! `[{"node":id,"score":s},…]` array per query node, in request order;
//! scores are on the unified scale documented in `pane-core`'s `query`
//! module (`cos_f + cos_b ∈ [-2,2]` for `similar-nodes`, the raw Eq. 22
//! inner product for `recommend-links`). `top-attributes` is attribute
//! inference: one `[{"attribute":r,"score":s},…]` array per node, the
//! exact top-`k` of the Eq. 21 score `X_f[v]·Y[r] + X_b[v]·Y[r]` over
//! every attribute (no index).

use std::fmt::Write as _;

/// A parsed JSON value (strict subset: no non-finite numbers).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys: last one wins on get).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object (last occurrence wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_index(&self) -> Option<usize> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= (1u64 << 53) as f64 => {
                Some(*x as usize)
            }
            _ => None,
        }
    }

    /// The value as a finite float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array of non-negative integers.
    pub fn as_index_array(&self) -> Option<Vec<usize>> {
        match self {
            Json::Arr(items) => items.iter().map(Json::as_index).collect(),
            _ => None,
        }
    }

    /// The value as an array of finite floats.
    pub fn as_f64_array(&self) -> Option<Vec<f64>> {
        match self {
            Json::Arr(items) => items.iter().map(Json::as_f64).collect(),
            _ => None,
        }
    }

    /// Serializes to a single-line JSON string.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out);
        out
    }

    fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                // `{}` on f64 prints the shortest string that parses back
                // to the same value; integers print without a dot.
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_to(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A protocol-level parse failure (position + message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset the parser stopped at.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON value, requiring the whole input to be consumed
/// (modulo surrounding whitespace).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

/// Parser depth cap: requests are flat, so anything deeper is hostile.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.eat("null").map(|_| Json::Null),
            Some(b't') => self.eat("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(":")?;
                    self.skip_ws();
                    let val = self.value(depth + 1)?;
                    pairs.push((key, val));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.err("expected '\"'"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
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
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                self.eat("\\u")
                                    .map_err(|_| self.err("lone high surrogate"))?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar (input is &str, so valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    if (c as u32) < 0x20 {
                        return Err(self.err("unescaped control character"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a value"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        let x: f64 = text
            .parse()
            .map_err(|_| self.err(&format!("invalid number '{text}'")))?;
        if !x.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Num(x))
    }
}

/// Convenience constructors for response assembly.
impl Json {
    /// An object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A number from an integer id.
    pub fn num(x: usize) -> Json {
        Json::Num(x as f64)
    }

    /// A string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_requests() {
        for line in [
            r#"{"op":"similar-nodes","nodes":[0,1,2],"k":10}"#,
            r#"{"op":"insert","forward":[0.5,-1.25e-3],"backward":[1,2]}"#,
            r#"{"op":"stats"}"#,
            r#"[true,false,null,"a\"b\\c\nd",1e9]"#,
        ] {
            let v = parse(line).unwrap();
            assert_eq!(parse(&v.to_line()).unwrap(), v);
        }
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"op":"x","nodes":[3,4],"k":7,"w":[0.5,1.5]}"#).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("nodes").unwrap().as_index_array(), Some(vec![3, 4]));
        assert_eq!(v.get("k").unwrap().as_index(), Some(7));
        assert_eq!(v.get("w").unwrap().as_f64_array(), Some(vec![0.5, 1.5]));
        assert_eq!(v.get("missing"), None);
        // Floats and negatives are not indices.
        assert_eq!(parse("3.5").unwrap().as_index(), None);
        assert_eq!(parse("-1").unwrap().as_index(), None);
    }

    #[test]
    fn unicode_escapes() {
        let v = parse(r#""é😀""#).unwrap();
        assert_eq!(v.as_str(), Some("é😀"));
        assert!(parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn malformed_inputs_are_errors_not_panics() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a"}"#,
            r#"{"a":}"#,
            "nul",
            "1e999",
            "NaN",
            "\"\u{1}\"",
            "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[1]]]",
            "1 2",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn escaped_output_reparses() {
        let s = Json::Str("a\"b\\c\nd\te\u{1}".to_string());
        assert_eq!(parse(&s.to_line()).unwrap(), s);
    }
}
