//! Minimal JSON support: a [`Value`] tree, a strict parser, compact and
//! pretty writers, and the [`ToJson`] / [`FromJson`] conversion traits.
//!
//! This replaces the `serde`/`serde_json` dependency for the handful of
//! report types the workspace persists (assessments, matcher rosters,
//! benchmark summaries, cached tasks). The subset is deliberate:
//!
//! - objects preserve insertion order (`Vec<(String, Value)>`), so written
//!   files are stable and diffable;
//! - numbers are `f64`; integers up to 2⁵³ round-trip exactly and are
//!   written without a fractional part (every count the workspace stores is
//!   far below that);
//! - non-finite floats serialize as `null`, mirroring `serde_json`;
//! - parsing is strict: trailing garbage, lone surrogates, control
//!   characters in strings and over-deep nesting are errors.
//!
//! Struct types opt in with the [`impl_json!`](crate::impl_json) macro,
//! which generates field-by-field `ToJson`/`FromJson` impls.

use std::fmt::Write as _;

/// Maximum nesting depth accepted by [`Value::parse`] (arrays + objects).
/// JSONL readers can tighten this per line via [`read_line`].
pub const MAX_DEPTH: usize = 128;

/// Default per-line byte cap for [`read_line`]: generous enough for any
/// request the workspace produces, small enough that a runaway producer
/// cannot balloon resident memory.
pub const DEFAULT_MAX_LINE_BYTES: usize = 4 * 1024 * 1024;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integers are written without a decimal point.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved on write.
    Obj(Vec<(String, Value)>),
}

/// Error raised by parsing or by [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into() }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// Parses a complete JSON document (rejecting trailing input).
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        Value::parse_with_depth(text, MAX_DEPTH)
    }

    /// [`Value::parse`] with an explicit nesting-depth cap — JSONL protocol
    /// readers use a tighter bound than the document default so one
    /// adversarial line cannot force deep recursion.
    pub fn parse_with_depth(text: &str, max_depth: usize) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            max_depth,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Member lookup on objects; `None` on missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Nested lookup along a `.`-separated path: object members by name,
    /// array elements by decimal index (`"profile.0.self_us"`). `None` as
    /// soon as a segment misses.
    ///
    /// Metric names themselves contain dots (`"counters.serve.link"` is the
    /// member `serve.link` of `counters`), so object navigation first tries
    /// the whole remaining path as one member name, then descends through
    /// the longest member that prefixes it — the resolution
    /// [`Value::flatten_numbers`] paths need to round-trip.
    pub fn get_path(&self, path: &str) -> Option<&Value> {
        if path.is_empty() {
            return Some(self);
        }
        match self {
            Value::Obj(fields) => {
                if let Some(v) = self.get(path) {
                    return Some(v);
                }
                fields
                    .iter()
                    .filter(|(k, _)| {
                        path.len() > k.len()
                            && path.starts_with(k.as_str())
                            && path.as_bytes()[k.len()] == b'.'
                    })
                    .max_by_key(|(k, _)| k.len())
                    .and_then(|(k, v)| v.get_path(&path[k.len() + 1..]))
            }
            Value::Arr(items) => {
                let (head, rest) = match path.split_once('.') {
                    Some((h, r)) => (h, r),
                    None => (path, ""),
                };
                items.get(head.parse::<usize>().ok()?)?.get_path(rest)
            }
            _ => None,
        }
    }

    /// Every numeric leaf under this value as `(dot-path, number)` pairs,
    /// in document order, with array elements addressed by index. The
    /// inverse view of [`Value::get_path`] over numbers — what a metrics
    /// diff walks to compare two artifacts without knowing their schema.
    pub fn flatten_numbers(&self) -> Vec<(String, f64)> {
        fn walk(v: &Value, prefix: &str, out: &mut Vec<(String, f64)>) {
            let join = |key: &str| {
                if prefix.is_empty() {
                    key.to_string()
                } else {
                    format!("{prefix}.{key}")
                }
            };
            match v {
                Value::Num(n) => out.push((prefix.to_string(), *n)),
                Value::Obj(fields) => {
                    for (k, child) in fields {
                        walk(child, &join(k), out);
                    }
                }
                Value::Arr(items) => {
                    for (i, child) in items.iter().enumerate() {
                        walk(child, &join(&i.to_string()), out);
                    }
                }
                _ => {}
            }
        }
        let mut out = Vec::new();
        walk(self, "", &mut out);
        out
    }

    /// Compact serialization (no whitespace).
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Pretty serialization (two-space indent, trailing newline).
    pub fn to_json_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_number(out, *n),
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_compact(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Value::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Value::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
        return;
    }
    // Integers in the exactly-representable range print without ".0" so the
    // files read as counts; everything else uses Rust's shortest
    // round-tripping float formatting.
    if n == n.trunc() && n.abs() < 9_007_199_254_740_992.0 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    max_depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError::new(format!("{msg} at byte {}", self.pos))
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > self.max_depth {
            return Err(self.err("document nests too deeply"));
        }
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.value(depth + 1)?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| JsonError::new(format!("invalid number `{text}` at byte {start}")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| self.err("unterminated string"))?;
            match b {
                b'"' => {
                    self.pos += 1;
                    return String::from_utf8(out)
                        .map_err(|_| JsonError::new("invalid UTF-8 in string"));
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0C),
                        b'u' => {
                            let c = self.unicode_escape()?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        }
                        other => {
                            return Err(self.err(&format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                0x00..=0x1F => return Err(self.err("control character in string")),
                _ => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let text = std::str::from_utf8(slice).map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        let code = if (0xD800..=0xDBFF).contains(&first) {
            // High surrogate: a low surrogate escape must follow.
            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err(self.err("lone high surrogate"));
            }
            self.pos += 2;
            let second = self.hex4()?;
            if !(0xDC00..=0xDFFF).contains(&second) {
                return Err(self.err("invalid low surrogate"));
            }
            0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
        } else if (0xDC00..=0xDFFF).contains(&first) {
            return Err(self.err("lone low surrogate"));
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))
    }
}

/// Conversion of a Rust value into a JSON [`Value`].
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Value;
}

/// Conversion of a JSON [`Value`] back into a Rust value.
pub trait FromJson: Sized {
    /// Converts from a parsed value.
    fn from_json(v: &Value) -> Result<Self, JsonError>;

    /// Converts an object member; the default errors on a missing field,
    /// while `Option<T>` treats it as `None`.
    #[doc(hidden)]
    fn from_json_field(v: Option<&Value>, name: &str) -> Result<Self, JsonError> {
        match v {
            Some(v) => {
                Self::from_json(v).map_err(|e| JsonError::new(format!("field `{name}`: {e}")))
            }
            None => Err(JsonError::new(format!("missing field `{name}`"))),
        }
    }
}

/// Serializes any [`ToJson`] value compactly.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_json_string()
}

/// Parses a document and converts it to `T`.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&Value::parse(text)?)
}

/// Outcome of reading one record from a JSON-lines stream via [`read_line`].
#[derive(Debug)]
pub enum JsonLine {
    /// A parsed record.
    Record(Value),
    /// The line was unusable (oversized, malformed, over-deep). The stream
    /// is still aligned on a line boundary, so the caller can report the
    /// error and keep reading.
    Bad(JsonError),
    /// End of stream.
    Eof,
}

/// Reads the next non-blank line from a JSON-lines stream and parses it.
///
/// Limits are enforced per line: a line longer than `max_bytes` is drained
/// to its trailing newline (keeping the stream aligned) and reported as
/// [`JsonLine::Bad`] with a clear oversize message; nesting beyond
/// `max_depth` is likewise a per-line error, never a stream abort. Only a
/// real I/O failure returns `Err`.
pub fn read_line<R: std::io::BufRead>(
    reader: &mut R,
    max_bytes: usize,
    max_depth: usize,
) -> std::io::Result<JsonLine> {
    use std::io::{BufRead as _, Read as _};
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // Read at most one byte past the cap so "exactly at the cap" and
        // "over the cap" are distinguishable.
        let mut limited = reader.take(max_bytes as u64 + 1);
        let n = limited.read_until(b'\n', &mut buf)?;
        if n == 0 {
            return Ok(JsonLine::Eof);
        }
        if buf.last() != Some(&b'\n') && n > max_bytes {
            // Oversized: discard the rest of the physical line in bounded
            // chunks so the next read starts on a fresh line, then fail
            // just this record.
            loop {
                buf.clear();
                let mut limited = reader.take(8192);
                let read = limited.read_until(b'\n', &mut buf)?;
                if read == 0 || buf.last() == Some(&b'\n') {
                    break;
                }
            }
            return Ok(JsonLine::Bad(JsonError::new(format!(
                "line exceeds the {max_bytes}-byte limit"
            ))));
        }
        let text = match std::str::from_utf8(&buf) {
            Ok(t) => t.trim_end_matches(['\n', '\r']).trim(),
            Err(_) => {
                return Ok(JsonLine::Bad(JsonError::new("line is not valid UTF-8")));
            }
        };
        if text.is_empty() {
            continue; // skip blank lines
        }
        return Ok(match Value::parse_with_depth(text, max_depth) {
            Ok(v) => JsonLine::Record(v),
            Err(e) => JsonLine::Bad(e),
        });
    }
}

/// Writes one record as a compact JSON line (record + `\n`, single
/// `write_all`). The JSONL twin of [`read_line`]; the `RLB_OBS_FILE` sink
/// and the `rlb-serve` protocol both emit through this.
pub fn write_line<W: std::io::Write>(writer: &mut W, record: &Value) -> std::io::Result<()> {
    let mut line = record.to_json_string();
    line.push('\n');
    writer.write_all(line.as_bytes())
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl FromJson for Value {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(JsonError::new("expected bool")),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(JsonError::new("expected string")),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| JsonError::new("expected number"))
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Value {
        Value::Num(f64::from(*self))
    }
}

impl FromJson for f32 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(f64::from_json(v)? as f32)
    }
}

macro_rules! impl_json_int {
    ($($t:ty),+) => {
        $(
            impl ToJson for $t {
                fn to_json(&self) -> Value {
                    Value::Num(*self as f64)
                }
            }

            impl FromJson for $t {
                fn from_json(v: &Value) -> Result<Self, JsonError> {
                    let n = v.as_f64().ok_or_else(|| JsonError::new("expected number"))?;
                    if n.fract() != 0.0 {
                        return Err(JsonError::new(format!("expected integer, got {n}")));
                    }
                    if n < <$t>::MIN as f64 || n > <$t>::MAX as f64 {
                        return Err(JsonError::new(format!(
                            "{n} out of range for {}",
                            stringify!($t)
                        )));
                    }
                    Ok(n as $t)
                }
            }
        )+
    };
}

impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(v) => v.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }

    fn from_json_field(v: Option<&Value>, name: &str) -> Result<Self, JsonError> {
        match v {
            None => Ok(None),
            Some(v) => {
                Self::from_json(v).map_err(|e| JsonError::new(format!("field `{name}`: {e}")))
            }
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Arr(items) => items.iter().map(T::from_json).collect(),
            _ => Err(JsonError::new("expected array")),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Arr(items) if items.len() == 2 => {
                Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
            }
            _ => Err(JsonError::new("expected two-element array")),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (*self).to_json()
    }
}

/// Generates [`ToJson`]/[`FromJson`] impls for a plain struct, serializing
/// the listed fields as a JSON object in declaration order — the in-tree
/// stand-in for `#[derive(Serialize, Deserialize)]`.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// struct Point {
///     x: f64,
///     y: f64,
/// }
/// rlb_util::impl_json!(Point { x, y });
///
/// let p = Point { x: 1.5, y: -2.0 };
/// let back: Point = rlb_util::json::from_str(&rlb_util::json::to_string(&p)).unwrap();
/// assert_eq!(back, p);
/// ```
#[macro_export]
macro_rules! impl_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::Value::Obj(vec![
                    $(
                        (
                            stringify!($field).to_string(),
                            $crate::json::ToJson::to_json(&self.$field),
                        ),
                    )+
                ])
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::Value,
            ) -> ::std::result::Result<Self, $crate::json::JsonError> {
                if !matches!(v, $crate::json::Value::Obj(_)) {
                    return Err($crate::json::JsonError::new(concat!(
                        "expected object for ",
                        stringify!($ty)
                    )));
                }
                Ok(Self {
                    $(
                        $field: $crate::json::FromJson::from_json_field(
                            v.get(stringify!($field)),
                            stringify!($field),
                        )?,
                    )+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("false").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("3.25").unwrap(), Value::Num(3.25));
        assert_eq!(Value::parse("-17").unwrap(), Value::Num(-17.0));
        assert_eq!(Value::parse("1e3").unwrap(), Value::Num(1000.0));
        assert_eq!(Value::parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Value::parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        let items = v
            .get("a")
            .and_then(Value::as_arr)
            .expect("\"a\" should parse as an array");
        assert_eq!(items[0], Value::Num(1.0));
        assert_eq!(items[1].get("b"), Some(&Value::Null));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "quote\" backslash\\ newline\n tab\t unicode é π control\u{01}";
        let json = Value::Str(original.into()).to_json_string();
        assert_eq!(Value::parse(&json).unwrap(), Value::Str(original.into()));
    }

    #[test]
    fn unicode_escapes_and_surrogate_pairs() {
        assert_eq!(Value::parse(r#""é""#).unwrap(), Value::Str("é".into()));
        assert_eq!(Value::parse(r#""😀""#).unwrap(), Value::Str("😀".into()));
        assert!(Value::parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(Value::parse(r#""\ude00""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "tru",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "[1] x",
            "\"unterminated",
            "{\"a\":1,}",
            "nan",
            "--1",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_over_deep_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Value::parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Value::parse(&ok).is_ok());
    }

    #[test]
    fn numbers_roundtrip_exactly() {
        for n in [
            0.0,
            -0.0,
            1.0,
            -1.5,
            0.1,
            1.0 / 3.0,
            1e-12,
            123456789.0,
            0.9999999999999999,
        ] {
            let json = Value::Num(n).to_json_string();
            let back = Value::parse(&json).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), (n + 0.0).to_bits(), "{n} via {json}");
        }
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Value::Num(42.0).to_json_string(), "42");
        assert_eq!(Value::Num(-7.0).to_json_string(), "-7");
        assert_eq!(Value::Num(2.5).to_json_string(), "2.5");
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(Value::Num(f64::NAN).to_json_string(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_json_string(), "null");
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = Value::parse(r#"{"name":"t","xs":[1,2,3],"empty":[],"obj":{}}"#).unwrap();
        let pretty = v.to_json_string_pretty();
        assert!(pretty.contains("\n  \"name\": \"t\""), "{pretty}");
        assert_eq!(Value::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn option_and_vec_conversions() {
        let some: Option<f64> = Some(1.5);
        let none: Option<f64> = None;
        assert_eq!(to_string(&some), "1.5");
        assert_eq!(to_string(&none), "null");
        assert_eq!(from_str::<Option<f64>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<f64>>("2.5").unwrap(), Some(2.5));
        let xs: Vec<u32> = from_str("[1,2,3]").unwrap();
        assert_eq!(xs, vec![1, 2, 3]);
        assert!(from_str::<Vec<u32>>("[1.5]").is_err());
        assert!(from_str::<u32>("-1").is_err());
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        name: String,
        count: usize,
        score: f64,
        maybe: Option<f64>,
        tags: Vec<String>,
    }
    crate::impl_json!(Demo {
        name,
        count,
        score,
        maybe,
        tags
    });

    #[test]
    fn struct_macro_roundtrips() {
        let d = Demo {
            name: "bench \"x\"".into(),
            count: 12,
            score: 0.8123456789012345,
            maybe: None,
            tags: vec!["a".into(), "b".into()],
        };
        let json = to_string(&d);
        assert!(json.contains("\"count\":12"), "{json}");
        let back: Demo = from_str(&json).unwrap();
        assert_eq!(back, d);
        // Pretty form parses identically.
        let back: Demo = from_str(&d.to_json().to_json_string_pretty()).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn struct_macro_reports_missing_fields() {
        let err = from_str::<Demo>(r#"{"name":"x"}"#).unwrap_err();
        assert!(err.to_string().contains("count"), "{err}");
    }

    #[test]
    fn tuple_pairs_roundtrip() {
        let pair = ("label".to_string(), 0.25f64);
        let back: (String, f64) = from_str(&to_string(&pair)).unwrap();
        assert_eq!(back, pair);
    }

    fn next_record(reader: &mut impl std::io::BufRead, max_bytes: usize) -> JsonLine {
        read_line(reader, max_bytes, MAX_DEPTH).unwrap()
    }

    #[test]
    fn jsonl_roundtrips_and_skips_blank_lines() {
        let mut out = Vec::new();
        write_line(
            &mut out,
            &Value::Obj(vec![("op".into(), Value::Str("a".into()))]),
        )
        .unwrap();
        out.extend_from_slice(b"\n  \n");
        write_line(&mut out, &Value::Num(2.0)).unwrap();
        let mut reader = std::io::BufReader::new(&out[..]);
        let first = next_record(&mut reader, 1024);
        match first {
            JsonLine::Record(v) => assert_eq!(v.get("op").and_then(Value::as_str), Some("a")),
            other => panic!("expected record, got {other:?}"),
        }
        assert!(matches!(
            next_record(&mut reader, 1024),
            JsonLine::Record(Value::Num(n)) if n == 2.0
        ));
        assert!(matches!(next_record(&mut reader, 1024), JsonLine::Eof));
    }

    #[test]
    fn jsonl_oversized_line_fails_without_losing_alignment() {
        let mut input = Vec::new();
        input.extend_from_slice(b"\"");
        input.extend(std::iter::repeat_n(b'x', 40_000));
        input.extend_from_slice(b"\"\n{\"ok\":true}\n");
        let mut reader = std::io::BufReader::new(&input[..]);
        match next_record(&mut reader, 64) {
            JsonLine::Bad(e) => assert!(e.to_string().contains("64-byte"), "{e}"),
            other => panic!("expected oversize error, got {other:?}"),
        }
        // The stream stayed aligned: the next line still parses.
        match next_record(&mut reader, 64) {
            JsonLine::Record(v) => assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true)),
            other => panic!("expected record after drain, got {other:?}"),
        }
        assert!(matches!(next_record(&mut reader, 64), JsonLine::Eof));
    }

    #[test]
    fn jsonl_line_exactly_at_limit_is_accepted() {
        // 12 bytes of JSON, cap of 12: must pass (the cap is on the line,
        // not the line plus its newline).
        let input = b"{\"ab\":12345}\n";
        assert_eq!(input.len() - 1, 12);
        let mut reader = std::io::BufReader::new(&input[..]);
        assert!(matches!(next_record(&mut reader, 12), JsonLine::Record(_)));
    }

    #[test]
    fn jsonl_depth_limit_is_per_line() {
        let mut reader = std::io::BufReader::new(&b"[[[1]]]\n[1]\n"[..]);
        assert!(matches!(
            read_line(&mut reader, 1024, 2).unwrap(),
            JsonLine::Bad(_)
        ));
        assert!(matches!(
            read_line(&mut reader, 1024, 2).unwrap(),
            JsonLine::Record(_)
        ));
    }

    #[test]
    fn jsonl_malformed_line_reports_bad_not_io_error() {
        let mut reader = std::io::BufReader::new(&b"{not json}\n3\n"[..]);
        assert!(matches!(next_record(&mut reader, 1024), JsonLine::Bad(_)));
        assert!(matches!(
            next_record(&mut reader, 1024),
            JsonLine::Record(Value::Num(n)) if n == 3.0
        ));
    }

    #[test]
    fn accessors_return_none_on_type_mismatch() {
        assert_eq!(Value::Num(1.0).as_arr(), None);
        assert_eq!(
            Value::Arr(vec![Value::Null]).as_arr().map(<[Value]>::len),
            Some(1)
        );
        assert_eq!(Value::Bool(false).as_bool(), Some(false));
        assert_eq!(Value::Str("true".into()).as_bool(), None);
    }

    #[test]
    fn get_path_navigates_objects_and_array_indices() {
        let v = Value::parse(r#"{"a":{"b":[{"c":7},{"c":8}]},"n":1}"#).unwrap();
        assert_eq!(v.get_path("n").and_then(Value::as_f64), Some(1.0));
        assert_eq!(v.get_path("a.b.0.c").and_then(Value::as_f64), Some(7.0));
        assert_eq!(v.get_path("a.b.1.c").and_then(Value::as_f64), Some(8.0));
        assert_eq!(v.get_path("a.b.2.c"), None);
        assert_eq!(v.get_path("a.missing"), None);
        assert_eq!(v.get_path("n.deeper"), None);
        assert_eq!(v.get_path("a.b.x"), None, "non-numeric array index");
    }

    #[test]
    fn get_path_resolves_dotted_member_names() {
        // Metric registries key objects by dotted names; navigation must
        // treat "serve.link" as one member of "counters".
        let v = Value::parse(
            r#"{"counters":{"serve.link":{"total":5},"serve":{"x":1},"serve.link.total":9}}"#,
        )
        .unwrap();
        // Exact member beats any decomposition.
        assert_eq!(
            v.get_path("counters.serve.link.total")
                .and_then(Value::as_f64),
            Some(9.0)
        );
        assert_eq!(
            v.get_path("counters.serve.x").and_then(Value::as_f64),
            Some(1.0)
        );
        let no_exact = Value::parse(r#"{"counters":{"serve.link":{"total":5}}}"#).unwrap();
        assert_eq!(
            no_exact
                .get_path("counters.serve.link.total")
                .and_then(Value::as_f64),
            Some(5.0),
            "longest dotted prefix descends"
        );
    }

    #[test]
    fn flatten_numbers_lists_numeric_leaves_in_document_order() {
        let v = Value::parse(r#"{"w":1.5,"h":{"p50":null,"sum":9},"arr":[2,{"x":3}],"s":"no"}"#)
            .unwrap();
        assert_eq!(
            v.flatten_numbers(),
            vec![
                ("w".to_string(), 1.5),
                ("h.sum".to_string(), 9.0),
                ("arr.0".to_string(), 2.0),
                ("arr.1.x".to_string(), 3.0),
            ]
        );
        // Every flattened path resolves back through get_path.
        for (path, n) in v.flatten_numbers() {
            assert_eq!(v.get_path(&path).and_then(Value::as_f64), Some(n), "{path}");
        }
        assert_eq!(
            Value::Num(4.0).flatten_numbers(),
            vec![("".to_string(), 4.0)]
        );
    }
}
