//! The workspace's one JSON codec. Every choice about how JSON is
//! encoded — escaping, number formatting, non-finite floats,
//! separators and nesting — is made here:
//!
//! * [`Json`] is a parsed document with typed field accessors, and
//!   [`Json::parse`] is the only parser. It refuses documents nested
//!   deeper than [`MAX_DEPTH`], so no input can exhaust its stack.
//! * [`ObjWriter`] is the only writer. It has two layouts: the compact
//!   one-line form of trace JSONL, the serve protocol, the access log
//!   and the cache's disk lines, and the two-space `BENCH_*.json`
//!   layout ([`ObjWriter::bench`]).
//! * [`parse_flat`] reads one object of scalars into [`Value`]s: the
//!   trace format and the serve protocol, both of which stay flat.

use crate::Value;
use std::fmt::Write as _;

/// The deepest nesting [`Json::parse`] accepts, counting every object
/// and array. The deepest committed document (`BENCH_compile.json`)
/// nests 4 levels.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Objects keep their fields in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number written without a fraction or exponent.
    Int(i64),
    /// Any other number.
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete document.
    ///
    /// # Errors
    ///
    /// Describes the first syntax error, or nesting past [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(value)
    }

    /// The first field named `key`, when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Field `key` when it is a string.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }

    /// Field `key` when it is a number.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key)?.as_f64()
    }

    /// Field `key` when it is an array.
    pub fn arr(&self, key: &str) -> Option<&[Json]> {
        self.get(key)?.as_arr()
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value of either kind of number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
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

/// Parses one flat JSON object into key/value pairs. Values must be
/// scalars (string, number, `true`, `false`, `null`); nested objects
/// or arrays are errors. Integers without fractional part parse as
/// [`Value::Int`], everything else numeric as [`Value::Float`];
/// booleans become 1/0, `null` becomes `Int(0)`.
pub fn parse_flat(line: &str) -> Result<Vec<(String, Value)>, String> {
    let mut p = Parser { text: line, pos: 0 };
    p.skip_ws();
    if p.peek() != Some(b'{') {
        return Err(format!("expected '{{', got {:?}", p.peek()));
    }
    let Json::Obj(fields) = Json::parse(line)? else {
        unreachable!("a document that opens with '{{' is an object");
    };
    fields
        .into_iter()
        .map(|(key, value)| {
            let value = match value {
                Json::Null => Value::Int(0),
                Json::Bool(b) => Value::Int(i64::from(b)),
                Json::Int(i) => Value::Int(i),
                Json::Float(f) => Value::Float(f),
                Json::Str(s) => Value::Str(s),
                Json::Arr(_) | Json::Obj(_) => {
                    return Err("nested values are not supported".to_string())
                }
            };
            Ok((key, value))
        })
        .collect()
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected {:?}, got {other:?}", want as char)),
        }
    }

    /// One value inside `depth` enclosing objects and arrays.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at offset {}",
                self.pos
            )),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("expected a value, got {other:?}")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value(depth)?));
            self.skip_ws();
            match self.next() {
                Some(b',') => {}
                Some(b'}') => return Ok(Json::Obj(fields)),
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.next() {
                Some(b',') => {}
                Some(b']') => return Ok(Json::Arr(items)),
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy everything up to the next quote or backslash at
            // once. Both are ASCII, so the run ends on a char boundary.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.next() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => return Ok(out),
                Some(_) => out.push(self.escape()?),
            }
        }
    }

    /// The character a backslash escape stands for.
    fn escape(&mut self) -> Result<char, String> {
        Ok(match self.next() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let mut code = 0u32;
                for _ in 0..4 {
                    let d = self.next().ok_or("truncated \\u escape")?;
                    code = code * 16
                        + (d as char)
                            .to_digit(16)
                            .ok_or_else(|| format!("bad hex digit {:?}", d as char))?;
                }
                // The writer never emits surrogates; a lone one reads
                // as U+FFFD.
                char::from_u32(code).unwrap_or('\u{FFFD}')
            }
            other => return Err(format!("bad escape {other:?}")),
        })
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if is_float {
            text.parse()
                .map(Json::Float)
                .map_err(|_| format!("bad number {text:?}"))
        } else {
            text.parse()
                .map(Json::Int)
                .map_err(|_| format!("bad integer {text:?}"))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected {word:?}"))
        }
    }
}

/// Escape `s` for inclusion in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_escaped(&mut out, s);
    out
}

fn push_escaped(out: &mut String, s: &str) {
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // `b` is ASCII, so `i` is a char boundary.
        out.push_str(&s[start..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
}

fn push_string(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// Where an [`ObjWriter`] puts its separators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// `{"k":v,"k":v}`.
    Compact,
    /// `{"k": v, "k": v}`: an object nested in a `BENCH_*.json` file.
    Spaced,
    /// The top level of a `BENCH_*.json` file: one field per line.
    Bench,
}

/// Incremental writer for one JSON object: the workspace's only JSON
/// writer. [`ObjWriter::new`] writes the compact one-line form.
/// [`ObjWriter::bench`] writes the `BENCH_*.json` layout: one top-level
/// field per line with a two-space indent, `"key": value`, and each
/// object of an [`ObjWriter::objs`] array on a line of its own.
///
/// Non-finite floats are written as `null`, since JSON has no NaN or
/// infinity; [`parse_flat`] reads them back as 0.
pub struct ObjWriter {
    buf: String,
    first: bool,
    layout: Layout,
}

impl ObjWriter {
    /// A compact one-line object.
    #[allow(clippy::new_without_default)]
    pub fn new() -> ObjWriter {
        ObjWriter::with(Layout::Compact)
    }

    /// A `BENCH_*.json` document.
    pub fn bench() -> ObjWriter {
        ObjWriter::with(Layout::Bench)
    }

    fn with(layout: Layout) -> ObjWriter {
        ObjWriter {
            buf: String::from("{"),
            first: true,
            layout,
        }
    }

    /// An empty object to nest in this one with [`ObjWriter::obj`] or
    /// [`ObjWriter::objs`]; it is written on one line.
    pub fn nested(&self) -> ObjWriter {
        ObjWriter::with(match self.layout {
            Layout::Compact => Layout::Compact,
            Layout::Spaced | Layout::Bench => Layout::Spaced,
        })
    }

    /// What goes before a field or an array item: a comma unless it is
    /// the first, then a new line at `indent` at the top level of a
    /// `BENCH_*.json` file, or a space in an object nested in one.
    fn separator(&mut self, first: bool, indent: &str) {
        if !first {
            self.buf.push(',');
        }
        match self.layout {
            Layout::Bench => {
                self.buf.push('\n');
                self.buf.push_str(indent);
            }
            Layout::Spaced if !first => self.buf.push(' '),
            Layout::Compact | Layout::Spaced => {}
        }
    }

    fn key(&mut self, key: &str) {
        self.separator(self.first, "  ");
        self.first = false;
        push_string(&mut self.buf, key);
        self.buf.push(':');
        if self.layout != Layout::Compact {
            self.buf.push(' ');
        }
    }

    pub fn str(&mut self, key: &str, value: &str) {
        self.key(key);
        push_string(&mut self.buf, value);
    }

    pub fn int(&mut self, key: &str, value: i64) {
        self.key(key);
        let _ = write!(self.buf, "{value}");
    }

    pub fn bool(&mut self, key: &str, value: bool) {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
    }

    /// A float with enough digits to read back exactly.
    pub fn float(&mut self, key: &str, value: f64) {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.buf, "{value:?}");
        } else {
            self.buf.push_str("null");
        }
    }

    /// A float with exactly `decimals` digits after the point.
    pub fn fixed(&mut self, key: &str, value: f64, decimals: usize) {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.buf, "{value:.decimals$}");
        } else {
            self.buf.push_str("null");
        }
    }

    /// Field `key` holds `value`, a writer from [`ObjWriter::nested`].
    pub fn obj(&mut self, key: &str, value: ObjWriter) {
        self.key(key);
        self.buf.push_str(&value.finish());
    }

    /// Field `key` holds an array of objects from [`ObjWriter::nested`].
    pub fn objs(&mut self, key: &str, items: impl IntoIterator<Item = ObjWriter>) {
        self.key(key);
        self.buf.push('[');
        let mut first = true;
        for item in items {
            self.separator(first, "    ");
            first = false;
            self.buf.push_str(&item.finish());
        }
        if !first && self.layout == Layout::Bench {
            self.buf.push_str("\n  ");
        }
        self.buf.push(']');
    }

    pub fn finish(mut self) -> String {
        self.buf.push_str(match self.layout {
            Layout::Bench => "\n}\n",
            Layout::Compact | Layout::Spaced => "}",
        });
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marion_rng::SplitMix64;

    #[test]
    fn writer_and_parser_round_trip() {
        let mut w = ObjWriter::new();
        w.str("t", "event");
        w.str("msg", "a \"quoted\"\nline\twith\\slashes");
        w.int("n", -42);
        w.float("x", 0.125);
        let line = w.finish();
        assert_eq!(
            line,
            r#"{"t":"event","msg":"a \"quoted\"\nline\twith\\slashes","n":-42,"x":0.125}"#
        );
        assert_eq!(escape("\u{1}\u{1f}\u{7f}é"), "\\u0001\\u001f\u{7f}é");
        let fields = parse_flat(&line).unwrap();
        assert_eq!(fields[0], ("t".to_string(), Value::Str("event".into())));
        assert_eq!(
            fields[1].1,
            Value::Str("a \"quoted\"\nline\twith\\slashes".into())
        );
        assert_eq!(fields[2].1, Value::Int(-42));
        assert_eq!(fields[3].1, Value::Float(0.125));
    }

    #[test]
    fn parses_unicode_and_escapes() {
        let fields = parse_flat(r#"{"k":"café — ✓"}"#).unwrap();
        assert_eq!(fields[0].1, Value::Str("café — ✓".into()));
    }

    #[test]
    fn accepts_booleans_null_and_empty_object() {
        let fields = parse_flat(r#"{"a":true,"b":false,"c":null}"#).unwrap();
        assert_eq!(fields[0].1, Value::Int(1));
        assert_eq!(fields[1].1, Value::Int(0));
        assert_eq!(fields[2].1, Value::Int(0));
        assert!(parse_flat("{}").unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":[1]}",
            "{} junk",
            "[1]",
        ] {
            assert!(parse_flat(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(
            parse_flat("{\"a\":{\"b\":1}}").unwrap_err(),
            "nested values are not supported"
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut w = ObjWriter::new();
        w.float("x", f64::NAN);
        w.fixed("y", f64::INFINITY, 2);
        let line = w.finish();
        assert_eq!(line, "{\"x\":null,\"y\":null}");
        assert_eq!(parse_flat(&line).unwrap()[0].1, Value::Int(0));
    }

    #[test]
    fn parser_handles_nesting_and_escapes() {
        let v = Json::parse(r#"{"a":[1,2,{"b":"x\ny"}],"c":null,"d":true}"#).unwrap();
        assert_eq!(v.as_obj().unwrap().len(), 3);
        assert_eq!(v.get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.arr("a").unwrap()[2].str("b"), Some("x\ny"));
    }

    #[test]
    fn malformed_input_is_an_error() {
        for bad in ["{", "[1,", "{\"a\":1} junk", "[1 2]", "\"open", "-", "tru"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_past_the_bound_is_an_error() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains(&MAX_DEPTH.to_string()), "{err}");
        // A flat reader never recurses far either.
        let line = format!("{{\"a\":{}}}", nest(200_000));
        assert!(parse_flat(&line).is_err());
    }

    #[test]
    fn bench_layout_puts_one_field_and_one_run_per_line() {
        let mut doc = ObjWriter::bench();
        doc.str("bench", "quality");
        doc.bool("smoke", false);
        let mut run = doc.nested();
        run.str("machine", "toyp");
        run.fixed("drift_pct", -2.2777, 2);
        let mut phases = run.nested();
        phases.fixed("glue", 0.091, 4);
        run.obj("phase_ms", phases);
        doc.objs("runs", [run, doc.nested()]);
        doc.objs("none", []);
        assert_eq!(
            doc.finish(),
            "{\n  \"bench\": \"quality\",\n  \"smoke\": false,\n  \"runs\": [\n    \
             {\"machine\": \"toyp\", \"drift_pct\": -2.28, \"phase_ms\": {\"glue\": 0.0910}},\n    \
             {}\n  ],\n  \"none\": []\n}\n"
        );
    }

    /// Text drawn from every escape class: quotes, backslashes, the
    /// named escapes, other control characters, DEL and non-ASCII.
    fn random_text(rng: &mut SplitMix64) -> String {
        const POOL: [char; 14] = [
            'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{7f}', 'é', '✓',
        ];
        (0..rng.index(8))
            .map(|_| match rng.index(4) {
                0 => char::from_u32(rng.below(0x20) as u32).unwrap(),
                1 => '😀',
                _ => POOL[rng.index(POOL.len())],
            })
            .collect()
    }

    /// Writes random fields into `w` and returns what they must parse
    /// back as.
    fn random_fields(rng: &mut SplitMix64, w: &mut ObjWriter, depth: usize) -> Json {
        let mut fields = Vec::new();
        for _ in 0..rng.index(6) {
            let key = random_text(rng);
            let value = match rng.index(if depth < 4 { 8 } else { 6 }) {
                0 => {
                    let b = rng.chance(0.5);
                    w.bool(&key, b);
                    Json::Bool(b)
                }
                1 => {
                    let i = [i64::MIN, i64::MAX, 0, -1, rng.next_u64() as i64][rng.index(5)];
                    w.int(&key, i);
                    Json::Int(i)
                }
                2 => {
                    let f = f64::from_bits(rng.next_u64());
                    w.float(&key, f);
                    if f.is_finite() {
                        Json::Float(f)
                    } else {
                        Json::Null
                    }
                }
                3 => {
                    w.float(
                        &key,
                        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.index(3)],
                    );
                    Json::Null
                }
                4 | 5 => {
                    let s = random_text(rng);
                    w.str(&key, &s);
                    Json::Str(s)
                }
                6 => {
                    let mut inner = w.nested();
                    let value = random_fields(rng, &mut inner, depth + 1);
                    w.obj(&key, inner);
                    value
                }
                _ => {
                    let mut items = Vec::new();
                    let mut rows = Vec::new();
                    for _ in 0..rng.index(4) {
                        let mut row = w.nested();
                        items.push(random_fields(rng, &mut row, depth + 1));
                        rows.push(row);
                    }
                    w.objs(&key, rows);
                    Json::Arr(items)
                }
            };
            fields.push((key, value));
        }
        Json::Obj(fields)
    }

    #[test]
    fn random_documents_round_trip_in_both_layouts() {
        let mut rng = SplitMix64::new(0x15_0C0DEC);
        for _ in 0..500 {
            let seed = rng.next_u64();
            for mut w in [ObjWriter::new(), ObjWriter::bench()] {
                let expected = random_fields(&mut SplitMix64::new(seed), &mut w, 0);
                let text = w.finish();
                assert_eq!(Json::parse(&text), Ok(expected), "{text}");
            }
        }
    }
}
