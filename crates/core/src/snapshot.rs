//! Checkpoint/restore substrate: the workspace's one JSON codec and the
//! JSONL snapshot document format (DESIGN.md §3g).
//!
//! A snapshot captures one site's complete mutable simulation state —
//! pending events, RNG streams, job table, queues, ledgers, fault and
//! quarantine machinery, sampler cursors — so a run can be stopped,
//! serialized, and resumed **bit-identically**: the resumed run's report
//! and telemetry bytes match an uninterrupted run of the same input.
//!
//! The codec is one [`Writer`] and one `Reader`, and no value tree sits
//! between them and the state:
//!
//! - **Writing.** [`ToVal`] types write themselves straight into a
//!   [`Writer`] over the output `String`. Integers are formatted from a
//!   stack buffer; floats use `Display`'s shortest-round-trip decimal form
//!   (plus `.0` when it shows no fraction), which parses back to the
//!   identical bits. Snapshots, the telemetry JSONL and every artifact the
//!   experiment harness writes (`results/`, `BENCH_sim.json`) go through
//!   it; result types derive [`ToVal`] from field lists
//!   ([`to_val!`](crate::to_val)).
//! - **Reading.** `Persist` and `Section` values read themselves from
//!   a `Reader`, a borrowed cursor over the text, with every type and
//!   range check of the field they fill. Keyed objects are read **in the
//!   order their field list writes them**: a missing, extra or
//!   out-of-order key is a [`SnapshotError::Parse`] that names the key.
//!   [`parse`] builds a [`Val`] tree on the same cursor, for readers that
//!   take keys in any order (the telemetry JSONL) and for tests.
//!
//! Encode → decode → encode is byte-stable, and the property tests below
//! pin that.
//!
//! Document layout: one JSON object per line, `{"section":"<name>",
//! "data":<value>}`. The first section is always `header` (version,
//! scheme, seed, clock, step and admission counters); the remaining
//! sections follow the field lists in `site/`, which own the
//! field-level schema. Each field is declared once, in a `section!` or
//! `persist_struct!` list built on the `Persist` / `Section` traits
//! below; `SiteState::capture` and `SiteState::restore_from` both expand
//! from those lists. Section order is fixed, so equal states produce
//! equal bytes; the reader finds sections by name.

use iscope_dcsim::{RngSnapshot, Sampler, SimDuration, SimRng, SimTime, TimeSeries};
use iscope_energy::{BatteryState, CostMeter, EnergyLedger, SignalMeter};
use iscope_scanner::{CampaignEstimate, ProfilingCost, WindowReport};
use iscope_workload::WorkloadStats;
use rayon::PoolStats;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt::{self, Write as _};

/// Current snapshot document version. Bumped on any schema change; the
/// decoder rejects versions it does not know. Version 4 saves a plan the
/// input built up front as the digest of its t = 0 rows plus the rows a
/// re-scan replaced, and a scanned plan whole, as before. Version 3 opens
/// the `faults` section with the t = 0 plan's safe re-profile interval,
/// so an adaptive re-profiling run resumes without a fleet scan. Version
/// 2 writes a finished job as `null` in the `jobs` array; version 1 wrote
/// its whole record. All three are still read.
pub const SNAPSHOT_VERSION: i64 = 4;

/// Why a snapshot could not be taken, parsed, or restored.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The live state uses a feature the format does not carry (in-situ
    /// profiling records, per-core operating plans, federations).
    Unsupported(String),
    /// The document is not valid snapshot JSONL.
    Parse(String),
    /// The document is well-formed but inconsistent with the inputs it is
    /// being restored against (wrong seed, fleet shape, counters out of
    /// range, packed-key overflow).
    Mismatch(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Unsupported(m) => write!(f, "snapshot unsupported: {m}"),
            SnapshotError::Parse(m) => write!(f, "snapshot parse error: {m}"),
            SnapshotError::Mismatch(m) => write!(f, "snapshot mismatch: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Returns early with a [`SnapshotError::Mismatch`] whose message is
/// `format!`ted from the arguments.
macro_rules! mismatch {
    ($($arg:tt)*) => {
        return Err($crate::snapshot::SnapshotError::Mismatch(format!($($arg)*)))
    };
}
pub(crate) use mismatch;

impl From<iscope_sched::KeyRangeError> for SnapshotError {
    fn from(e: iscope_sched::KeyRangeError) -> Self {
        SnapshotError::Mismatch(e.to_string())
    }
}

/// A parsed JSON value, for readers that take keys in any order. Integers
/// and floats are kept apart so integer state (times in ms, counters,
/// fixed-point µW) round-trips exactly without passing through f64.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// JSON `null`.
    Null,
    /// JSON `true` / `false`.
    Bool(bool),
    /// A number with no fraction or exponent in its rendered form.
    Int(i128),
    /// A finite floating-point number (the parser rejects overflow, and
    /// the writer refuses non-finite values).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Val>),
    /// An object with preserved key order (render order is authoring
    /// order, so equal trees render to equal bytes).
    Obj(Vec<(String, Val)>),
}

impl Val {
    fn kind(&self) -> &'static str {
        match self {
            Val::Null => "null",
            Val::Bool(_) => "bool",
            Val::Int(_) => "int",
            Val::Float(_) => "float",
            Val::Str(_) => "string",
            Val::Arr(_) => "array",
            Val::Obj(_) => "object",
        }
    }

    /// Looks up `key` in an object, with a path-carrying error.
    pub fn get(&self, key: &str) -> Result<&Val, SnapshotError> {
        let found = match self {
            Val::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        };
        found.ok_or_else(|| SnapshotError::Parse(format!("missing key {key:?}")))
    }

    pub(crate) fn as_u64(&self, what: &str) -> Result<u64, SnapshotError> {
        match self {
            Val::Int(v) => u64::try_from(*v)
                .map_err(|_| SnapshotError::Mismatch(format!("{what} out of u64 range"))),
            other => Err(type_err(what, "int", other.kind())),
        }
    }

    pub(crate) fn as_arr(&self, what: &str) -> Result<&[Val], SnapshotError> {
        match self {
            Val::Arr(items) => Ok(items),
            other => Err(type_err(what, "array", other.kind())),
        }
    }
}

fn type_err(what: &str, want: &str, got: &str) -> SnapshotError {
    SnapshotError::Parse(format!("{what}: expected {want}, found {got}"))
}

// ---------------------------------------------------------------------------
// The writer
// ---------------------------------------------------------------------------

/// Compact JSON output (no whitespace). Commas are placed by looking at
/// the last byte written: a value or key that does not open its container,
/// follow a key or start a line is preceded by one, so callers only open,
/// write and close.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
}

impl Writer {
    /// An empty writer.
    pub(crate) fn new() -> Writer {
        Writer::default()
    }

    /// The text written so far.
    pub(crate) fn finish(self) -> String {
        self.out
    }

    fn sep(&mut self) {
        if !matches!(
            self.out.as_bytes().last(),
            None | Some(b'[' | b'{' | b':' | b'\n')
        ) {
            self.out.push(',');
        }
    }

    /// Ends a line of a JSONL stream.
    pub(crate) fn newline(&mut self) {
        self.out.push('\n');
    }

    /// Opens an object.
    pub(crate) fn open_obj(&mut self) {
        self.sep();
        self.out.push('{');
    }

    /// Closes an object.
    pub(crate) fn close_obj(&mut self) {
        self.out.push('}');
    }

    /// Opens an array.
    pub(crate) fn open_arr(&mut self) {
        self.sep();
        self.out.push('[');
    }

    /// Closes an array.
    pub(crate) fn close_arr(&mut self) {
        self.out.push(']');
    }

    /// An object whose fields `f` writes.
    pub fn obj<T>(
        &mut self,
        f: impl FnOnce(&mut Writer) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError> {
        self.open_obj();
        let v = f(self)?;
        self.close_obj();
        Ok(v)
    }

    /// One `"key":value` field of an open object, its value written by `f`.
    pub fn entry<T>(
        &mut self,
        key: &str,
        f: impl FnOnce(&mut Writer) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError> {
        self.sep();
        self.quoted(key);
        self.out.push(':');
        f(self)
    }

    /// JSON `null`.
    pub(crate) fn null(&mut self) {
        self.sep();
        self.out.push_str("null");
    }

    /// JSON `true` / `false`.
    pub(crate) fn bool(&mut self, v: bool) {
        self.sep();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// An integer, formatted from a stack buffer.
    pub(crate) fn int(&mut self, v: i128) {
        self.sep();
        if v < 0 {
            self.out.push('-');
        }
        let mut n = v.unsigned_abs();
        let mut buf = [0u8; 40];
        let mut i = buf.len();
        // 128-bit division is a library call: peel the digits above the
        // u64 range first, then finish in native width.
        while n > u64::MAX as u128 {
            i -= 1;
            buf[i] = b'0' + (n % 10) as u8;
            n /= 10;
        }
        let mut m = n as u64;
        loop {
            i -= 1;
            buf[i] = b'0' + (m % 10) as u8;
            m /= 10;
            if m == 0 {
                break;
            }
        }
        // ASCII digits are always UTF-8.
        self.out
            .push_str(std::str::from_utf8(&buf[i..]).unwrap_or_default());
    }

    /// A finite float in shortest-round-trip form; an integral value keeps
    /// a `.0` so it reads back as a float. A non-finite value is an error
    /// naming `what` (JSON cannot carry it).
    pub(crate) fn float(&mut self, v: f64, what: &str) -> Result<(), SnapshotError> {
        if !v.is_finite() {
            return Err(SnapshotError::Unsupported(format!(
                "{what} is {v} (non-finite floats cannot be serialized)"
            )));
        }
        self.sep();
        let start = self.out.len();
        // Formatting into a `String` cannot fail.
        let _ = write!(self.out, "{v}");
        if !self.out.as_bytes()[start..]
            .iter()
            .any(|b| matches!(b, b'.' | b'e' | b'E'))
        {
            self.out.push_str(".0");
        }
        Ok(())
    }

    /// A string, escaped.
    pub(crate) fn str(&mut self, s: &str) {
        self.sep();
        self.quoted(s);
    }

    fn quoted(&mut self, s: &str) {
        self.out.push('"');
        let mut plain = 0;
        for (i, b) in s.bytes().enumerate() {
            let esc = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // Escaped bytes are ASCII, so `plain..i` is on char boundaries.
            self.out.push_str(&s[plain..i]);
            if esc.is_empty() {
                let _ = write!(self.out, "\\u{b:04x}");
            } else {
                self.out.push_str(esc);
            }
            plain = i + 1;
        }
        self.out.push_str(&s[plain..]);
        self.out.push('"');
    }
}

// ---------------------------------------------------------------------------
// The reader
// ---------------------------------------------------------------------------

/// Maximum nesting [`parse`] accepts; typed reads nest only as deep as
/// their types, so this guards the tree parser against hostile input.
const MAX_DEPTH: usize = 64;

/// A borrowed cursor over JSON text. Every token is read with its leading
/// whitespace skipped and its trailing whitespace left, so the byte before
/// the cursor always ends the last token read: `[` or `{` there means the
/// next entry is its container's first and takes no comma.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `text`.
    pub(crate) fn new(text: &'a str) -> Reader<'a> {
        Reader { text, pos: 0 }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn err(&self, msg: &str) -> SnapshotError {
        SnapshotError::Parse(format!("{msg} at byte {}", self.pos))
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), SnapshotError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {what}")))
        }
    }

    /// What the next token is, for type errors.
    fn next_kind(&mut self) -> &'static str {
        self.skip_ws();
        match self.peek() {
            None => "end of input",
            Some(b'n') => "null",
            Some(b't' | b'f') => "bool",
            Some(b'"') => "string",
            Some(b'[') => "array",
            Some(b'{') => "object",
            Some(b'-' | b'0'..=b'9') => "number",
            Some(_) => "an invalid byte",
        }
    }

    fn type_err(&mut self, what: &str, want: &str) -> SnapshotError {
        let got = self.next_kind();
        type_err(what, want, got)
    }

    /// Checks that only whitespace is left.
    pub(crate) fn end(&mut self) -> Result<(), SnapshotError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.err("trailing garbage"))
        }
    }

    fn open(&mut self, b: u8, what: &str, want: &str) -> Result<(), SnapshotError> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.type_err(what, want))
        }
    }

    /// Steps to the next entry of an open container: `false` (with the
    /// closing bracket consumed) when there is none.
    fn sep(&mut self, close: u8) -> Result<bool, SnapshotError> {
        let first = matches!(
            self.pos.checked_sub(1).map(|i| self.text.as_bytes()[i]),
            Some(b'[' | b'{')
        );
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(false);
        }
        if !first {
            self.eat(b',', "',' or a closing bracket")?;
        }
        Ok(true)
    }

    /// Opens an array.
    pub(crate) fn open_arr(&mut self, what: &str) -> Result<(), SnapshotError> {
        self.open(b'[', what, "array")
    }

    /// Steps to the next item of an open array: `false` at its end.
    pub(crate) fn next_item(&mut self) -> Result<bool, SnapshotError> {
        self.sep(b']')
    }

    /// Steps to the next item of an open array, which must exist.
    pub(crate) fn item(&mut self, what: &str, shape: &str) -> Result<(), SnapshotError> {
        match self.next_item()? {
            true => Ok(()),
            false => Err(SnapshotError::Parse(format!("{what} must be {shape}"))),
        }
    }

    /// Closes an open array, which must hold no more items.
    pub(crate) fn last_item(&mut self, what: &str, shape: &str) -> Result<(), SnapshotError> {
        match self.next_item()? {
            true => Err(SnapshotError::Parse(format!("{what} must be {shape}"))),
            false => Ok(()),
        }
    }

    /// Opens an object.
    pub(crate) fn open_obj(&mut self, what: &str) -> Result<(), SnapshotError> {
        self.open(b'{', what, "object")
    }

    /// The next key of an open object (its `:` consumed): `None` at its
    /// end.
    pub(crate) fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, SnapshotError> {
        if !self.sep(b'}')? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.eat(b':', "':'")?;
        Ok(Some(key))
    }

    /// Closes an object; a further key is an error naming it.
    pub(crate) fn close_obj(&mut self) -> Result<(), SnapshotError> {
        match self.next_key()? {
            None => Ok(()),
            Some(k) => Err(SnapshotError::Parse(format!("unexpected key {k:?}"))),
        }
    }

    /// An object whose fields `f` reads, in order.
    pub(crate) fn obj<T>(
        &mut self,
        what: &str,
        f: impl FnOnce(&mut Reader<'a>) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError> {
        self.open_obj(what)?;
        let v = f(self)?;
        self.close_obj()?;
        Ok(v)
    }

    /// The field `key`, which must be the next one, its value read by `f`.
    pub(crate) fn entry<T>(
        &mut self,
        key: &str,
        f: impl FnOnce(&mut Reader<'a>) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError> {
        match self.next_key()? {
            Some(k) if k == key => f(self),
            Some(k) => Err(SnapshotError::Parse(format!(
                "expected key {key:?}, found {k:?}"
            ))),
            None => Err(SnapshotError::Parse(format!("missing key {key:?}"))),
        }
    }

    /// Consumes a `null` if one is next.
    pub(crate) fn null(&mut self) -> bool {
        self.skip_ws();
        self.literal("null")
    }

    /// A `null`, which must be next.
    pub(crate) fn expect_null(&mut self, what: &str) -> Result<(), SnapshotError> {
        if self.null() {
            Ok(())
        } else {
            Err(self.type_err(what, "null"))
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        let hit = self.text.as_bytes()[self.pos..].starts_with(word.as_bytes());
        if hit {
            self.pos += word.len();
        }
        hit
    }

    /// `true` or `false`.
    pub(crate) fn bool(&mut self, what: &str) -> Result<bool, SnapshotError> {
        self.skip_ws();
        if self.literal("true") {
            Ok(true)
        } else if self.literal("false") {
            Ok(false)
        } else if let Some(b't' | b'f') = self.peek() {
            Err(self.err("invalid literal"))
        } else {
            Err(self.type_err(what, "bool"))
        }
    }

    /// A number token and whether it has a fraction or an exponent.
    fn number(&mut self) -> (&'a str, bool) {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {}
                // A sign only continues a number inside an exponent; a '-'
                // starting the next array element must not be swallowed.
                b'+' | b'-' if !matches!(bytes[self.pos - 1], b'e' | b'E') => break,
                b'+' | b'-' => {}
                b'.' | b'e' | b'E' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        // The token is ASCII, so both ends are char boundaries.
        (&self.text[start..self.pos], is_float)
    }

    /// An integer (no fraction or exponent), exactly.
    pub(crate) fn int(&mut self, what: &str) -> Result<i128, SnapshotError> {
        self.skip_ws();
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.type_err(what, "int"));
        }
        // The common case in one pass: up to 19 digits (no u64 overflow)
        // with no fraction or exponent after them. Anything else takes
        // the general path below.
        let bytes = self.text.as_bytes();
        let neg = bytes[self.pos] == b'-';
        let first = self.pos + neg as usize;
        let mut end = first;
        let mut v = 0u64;
        while let Some(&b @ b'0'..=b'9') = bytes.get(end).filter(|_| end - first < 19) {
            v = v * 10 + (b - b'0') as u64;
            end += 1;
        }
        if end > first && !matches!(bytes.get(end), Some(b'0'..=b'9' | b'.' | b'e' | b'E')) {
            self.pos = end;
            return Ok(if neg { -(v as i128) } else { v as i128 });
        }
        let (tok, is_float) = self.number();
        if is_float {
            return Err(type_err(what, "int", "float"));
        }
        parse_int(tok).ok_or_else(|| SnapshotError::Parse(format!("invalid integer {tok:?}")))
    }

    /// A finite float written with a fraction or an exponent.
    pub(crate) fn float(&mut self, what: &str) -> Result<f64, SnapshotError> {
        self.skip_ws();
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.type_err(what, "float"));
        }
        let (tok, is_float) = self.number();
        if !is_float {
            return Err(type_err(what, "float", "int"));
        }
        parse_float(tok)
    }

    /// A string; borrowed from the text unless it holds escapes.
    pub(crate) fn str(&mut self, what: &str) -> Result<Cow<'a, str>, SnapshotError> {
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return Err(self.type_err(what, "string"));
        }
        self.string()
    }

    fn string(&mut self) -> Result<Cow<'a, str>, SnapshotError> {
        self.eat(b'"', "'\"'")?;
        let bytes = self.text.as_bytes();
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            while let Some(&b) = bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The run stops at an ASCII byte or the end, so it is on char
            // boundaries.
            let run = &self.text[start..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(run);
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{0008}',
                        b'f' => '\u{000C}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.err("invalid escape")),
                    };
                    s.push(c);
                }
                _ => return Err(self.err("unterminated string or control byte")),
            }
        }
    }

    /// The code point of a `\u` escape (its `\u` consumed), joining a
    /// surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, SnapshotError> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            self.eat(b'\\', "'\\' of a surrogate pair")?;
            self.eat(b'u', "'u' of a surrogate pair")?;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, SnapshotError> {
        let mut v = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            v = v * 16 + digit;
            self.pos += 1;
        }
        Ok(v)
    }

    /// Any JSON value, as a tree.
    fn value(&mut self, depth: usize) -> Result<Val, SnapshotError> {
        if depth > MAX_DEPTH {
            return Err(SnapshotError::Parse("nesting too deep".into()));
        }
        match self.next_kind() {
            "null" if self.null() => Ok(Val::Null),
            "bool" => self.bool("value").map(Val::Bool),
            "string" => self.string().map(|s| Val::Str(s.into_owned())),
            "array" => {
                self.pos += 1;
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Val::Arr(items))
            }
            "object" => {
                self.pos += 1;
                let mut fields = Vec::new();
                while let Some(k) = self.next_key()? {
                    fields.push((k.into_owned(), self.value(depth + 1)?));
                }
                Ok(Val::Obj(fields))
            }
            "number" => match self.number() {
                (tok, true) => parse_float(tok).map(Val::Float),
                (tok, false) => parse_int(tok)
                    .map(Val::Int)
                    .ok_or_else(|| SnapshotError::Parse(format!("invalid integer {tok:?}"))),
            },
            _ => Err(self.err("unexpected byte")),
        }
    }
}

/// An optionally signed run of decimal digits, exactly; `None` when empty
/// or beyond `i128`.
fn parse_int(tok: &str) -> Option<i128> {
    let (neg, digits) = match tok.strip_prefix('-') {
        Some(d) => (true, d),
        None => (false, tok),
    };
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let magnitude = if digits.len() <= 19 {
        // Nineteen digits cannot overflow a u64.
        digits.bytes().fold(0u64, |v, b| v * 10 + (b - b'0') as u64) as u128
    } else {
        digits.bytes().try_fold(0u128, |v, b| {
            v.checked_mul(10)?.checked_add((b - b'0') as u128)
        })?
    };
    if neg {
        0i128.checked_sub_unsigned(magnitude)
    } else {
        i128::try_from(magnitude).ok()
    }
}

fn parse_float(tok: &str) -> Result<f64, SnapshotError> {
    let v: f64 = tok
        .parse()
        .map_err(|_| SnapshotError::Parse(format!("invalid float {tok:?}")))?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(SnapshotError::Parse(format!("float {tok:?} overflows f64")))
    }
}

/// Parses one JSON document into a tree (a full value; surrounding
/// whitespace allowed).
pub fn parse(text: &str) -> Result<Val, SnapshotError> {
    let mut r = Reader::new(text);
    let v = r.value(0)?;
    r.end()?;
    Ok(v)
}

/// Renders `value` as one line of compact JSON. A value JSON cannot carry
/// (a non-finite float) is an error naming its field; `what` names the
/// value itself.
pub fn render<T: ToVal + ?Sized>(value: &T, what: &str) -> Result<String, SnapshotError> {
    let mut w = Writer::new();
    value.write(&mut w, what)?;
    Ok(w.finish())
}

// ---------------------------------------------------------------------------
// Field-list persistence
//
// Every serialized field is declared exactly once, in a `"key" => field`
// list (`section!` / `persist_struct!`); capture and restore both expand
// from that list, so the two directions cannot drift apart.
// ---------------------------------------------------------------------------

/// A value that writes itself as JSON: snapshot state and result artifacts
/// alike.
pub trait ToVal {
    /// Writes the value. `what` labels errors (it is the field's key); a
    /// non-finite float is an error naming it.
    fn write(&self, w: &mut Writer, what: &str) -> Result<(), SnapshotError>;
}

/// A [`ToVal`] value that also reads back: leaf types and containers of
/// them.
pub(crate) trait Persist: ToVal + Sized {
    fn read(r: &mut Reader<'_>, what: &str) -> Result<Self, SnapshotError>;
}

/// State restored *in place*: a component rebuilt from the run input
/// whose snapshot fields are then overwritten, keeping whatever the input
/// configures and the snapshot does not carry (a meter's flat rate, a
/// component's config). Every [`Persist`] value is a `Section` that
/// restores by replacement.
pub(crate) trait Section {
    fn save_section(&self, w: &mut Writer, what: &str) -> Result<(), SnapshotError>;
    fn restore(&mut self, r: &mut Reader<'_>, what: &str) -> Result<(), SnapshotError>;
}

impl<T: Persist> Section for T {
    fn save_section(&self, w: &mut Writer, what: &str) -> Result<(), SnapshotError> {
        self.write(w, what)
    }

    fn restore(&mut self, r: &mut Reader<'_>, what: &str) -> Result<(), SnapshotError> {
        *self = T::read(r, what)?;
        Ok(())
    }
}

/// The fields of a [`section!`] object without its braces, so another
/// list can splice them into its own object (`..place`).
pub(crate) trait Fields {
    fn save_fields(&self, w: &mut Writer) -> Result<(), SnapshotError>;
    fn restore_fields(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError>;
}

/// Declares a component's snapshot object as one `"key" => place` list
/// and derives [`Fields`] and [`Section`] for it and [`Section`] for
/// `Option<T>` (see [`optional_section!`]). A value may be a nested
/// `{ ... }` list (an inline object of the same component) or
/// `[save_fn, restore_fn]` for a value computed from several fields, or
/// `[save_fn]` for one restored outside the list; `..place` splices
/// another component's fields into this object.
///
/// The `document` form declares the snapshot document itself: each key
/// is a section (one JSONL line) and the list derives
/// `save_document(&DocWriter)` and `restore_document(&Doc)`.
/// Expects `Writer`, `Reader`, `SnapshotError`, `Section` and `Fields`
/// in scope (the `document` form also `DocWriter` and `Doc`).
macro_rules! section {
    (document $ty:ty, |$s:ident| { $($body:tt)* }) => {
        impl $ty {
            fn save_document(&self, doc: &mut DocWriter) -> Result<(), SnapshotError> {
                let $s = self;
                $crate::snapshot::section!(@save $s doc $($body)*);
                Ok(())
            }

            fn restore_document(&mut self, doc: &Doc<'_>) -> Result<(), SnapshotError> {
                let $s = self;
                $crate::snapshot::section!(@restore $s doc $($body)*);
                Ok(())
            }
        }
    };
    ($ty:ty, |$s:ident| { $($body:tt)* }) => {
        impl Fields for $ty {
            fn save_fields(&self, w: &mut Writer) -> Result<(), SnapshotError> {
                let $s = self;
                $crate::snapshot::section!(@save $s w $($body)*);
                Ok(())
            }

            fn restore_fields(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
                let $s = self;
                $crate::snapshot::section!(@restore $s r $($body)*);
                Ok(())
            }
        }

        impl Section for $ty {
            fn save_section(&self, w: &mut Writer, _what: &str) -> Result<(), SnapshotError> {
                w.obj(|w| self.save_fields(w))
            }

            fn restore(&mut self, r: &mut Reader<'_>, what: &str) -> Result<(), SnapshotError> {
                r.obj(what, |r| self.restore_fields(r))
            }
        }

        $crate::snapshot::optional_section!($ty);
    };
    (@save $s:ident $w:ident) => {};
    (@save $s:ident $w:ident .. $e:expr $(, $($rest:tt)*)?) => {
        Fields::save_fields(&$e, $w)?;
        $crate::snapshot::section!(@save $s $w $($($rest)*)?);
    };
    (@save $s:ident $w:ident $key:literal => { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $w.entry($key, |w| w.obj(|w| {
            $crate::snapshot::section!(@save $s w $($inner)*);
            Ok(())
        }))?;
        $crate::snapshot::section!(@save $s $w $($($rest)*)?);
    };
    (@save $s:ident $w:ident $key:literal => [$save:path $(, $restore:path)?]
        $(, $($rest:tt)*)?) => {
        $w.entry($key, |w| $save($s, w))?;
        $crate::snapshot::section!(@save $s $w $($($rest)*)?);
    };
    (@save $s:ident $w:ident $key:literal => $e:expr $(, $($rest:tt)*)?) => {
        $w.entry($key, |w| Section::save_section(&$e, w, $key))?;
        $crate::snapshot::section!(@save $s $w $($($rest)*)?);
    };
    (@restore $s:ident $r:ident) => {};
    (@restore $s:ident $r:ident .. $e:expr $(, $($rest:tt)*)?) => {
        Fields::restore_fields(&mut $e, $r)?;
        $crate::snapshot::section!(@restore $s $r $($($rest)*)?);
    };
    (@restore $s:ident $r:ident $key:literal => { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $r.entry($key, |r| r.obj($key, |r| {
            $crate::snapshot::section!(@restore $s r $($inner)*);
            Ok(())
        }))?;
        $crate::snapshot::section!(@restore $s $r $($($rest)*)?);
    };
    (@restore $s:ident $r:ident $key:literal => [$save:path, $restore:path]
        $(, $($rest:tt)*)?) => {
        $r.entry($key, |r| $restore($s, r))?;
        $crate::snapshot::section!(@restore $s $r $($($rest)*)?);
    };
    (@restore $s:ident $r:ident $key:literal => [$save:path] $(, $($rest:tt)*)?) => {
        $crate::snapshot::section!(@restore $s $r $($($rest)*)?);
    };
    (@restore $s:ident $r:ident $key:literal => $e:expr $(, $($rest:tt)*)?) => {
        $r.entry($key, |r| Section::restore(&mut $e, r, $key))?;
        $crate::snapshot::section!(@restore $s $r $($($rest)*)?);
    };
}
pub(crate) use section;

/// Derives [`Section`] for an optional component: `None` saves as `null`
/// and restores from `null` (the header's presence flags have already
/// matched the input against the snapshot).
macro_rules! optional_section {
    ($ty:ty) => {
        impl Section for Option<$ty> {
            fn save_section(&self, w: &mut Writer, what: &str) -> Result<(), SnapshotError> {
                match self {
                    Some(c) => c.save_section(w, what),
                    None => {
                        w.null();
                        Ok(())
                    }
                }
            }

            fn restore(&mut self, r: &mut Reader<'_>, what: &str) -> Result<(), SnapshotError> {
                match self {
                    Some(c) => c.restore(r, what),
                    None => r.expect_null(what),
                }
            }
        }
    };
}
pub(crate) use optional_section;

/// Declares a type's JSON object as one `"key" => value` list over `|s|`
/// and derives [`ToVal`] for it: the save-only form, for result types
/// that are written but never read back. A value may be a nested
/// `{ ... }` list (an inline object).
#[macro_export]
macro_rules! to_val {
    ($ty:ty, |$s:ident| { $($body:tt)* }) => {
        impl $crate::snapshot::ToVal for $ty {
            fn write(
                &self,
                w: &mut $crate::snapshot::Writer,
                _what: &str,
            ) -> Result<(), $crate::snapshot::SnapshotError> {
                let $s = self;
                w.obj(|w| {
                    $crate::to_val!(@fields w $($body)*);
                    Ok(())
                })
            }
        }
    };
    (@fields $w:ident) => {};
    (@fields $w:ident $key:literal => { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $w.entry($key, |w| w.obj(|w| {
            $crate::to_val!(@fields w $($inner)*);
            Ok(())
        }))?;
        $crate::to_val!(@fields $w $($($rest)*)?);
    };
    (@fields $w:ident $key:literal => $e:expr $(, $($rest:tt)*)?) => {
        $w.entry($key, |w| $crate::snapshot::ToVal::write(&$e, w, $key))?;
        $crate::to_val!(@fields $w $($($rest)*)?);
    };
}

/// Declares a plain value struct's snapshot object as one
/// `"key" => field` list and derives [`ToVal`] and [`Persist`] for it
/// (every field is listed, so `read` builds the struct outright). Expects
/// `Reader`, `SnapshotError` and `Persist` in scope.
macro_rules! persist_struct {
    ($ty:ty { $($key:literal => $field:ident),* $(,)? }) => {
        $crate::to_val!($ty, |s| { $($key => s.$field),* });

        impl Persist for $ty {
            fn read(r: &mut Reader<'_>, what: &str) -> Result<Self, SnapshotError> {
                r.obj(what, |r| {
                    Ok(Self {
                        $($field: r.entry($key, |r| Persist::read(r, $key))?,)*
                    })
                })
            }
        }
    };
}
pub(crate) use persist_struct;

macro_rules! persist_int {
    ($($t:ty),*) => {$(
        impl ToVal for $t {
            fn write(&self, w: &mut Writer, _what: &str) -> Result<(), SnapshotError> {
                w.int(*self as i128);
                Ok(())
            }
        }

        impl Persist for $t {
            fn read(r: &mut Reader<'_>, what: &str) -> Result<Self, SnapshotError> {
                <$t>::try_from(r.int(what)?).map_err(|_| {
                    SnapshotError::Mismatch(format!(
                        "{what} out of {} range",
                        stringify!($t)
                    ))
                })
            }
        }
    )*};
}
persist_int!(u8, u32, u64, usize, i64);

/// Leaf values, each declared once as `Type => save, load`: `save` writes
/// the value `x` to `w`, `load` reads one from `r`, both naming the field
/// in errors through their last parameter.
macro_rules! persist_leaf {
    ($($t:ty => |$x:ident, $w:ident, $ws:pat_param| $save:expr,
        |$r:ident, $wl:pat_param| $load:expr;)*) => {$(
        impl ToVal for $t {
            fn write(&self, $w: &mut Writer, $ws: &str) -> Result<(), SnapshotError> {
                let $x = self;
                $save
            }
        }

        impl Persist for $t {
            fn read($r: &mut Reader<'_>, $wl: &str) -> Result<Self, SnapshotError> {
                $load
            }
        }
    )*};
}

// Times and durations are integer milliseconds.
persist_leaf! {
    bool => |x, w, _| { w.bool(*x); Ok(()) }, |r, what| r.bool(what);
    f64 => |x, w, what| w.float(*x, what), |r, what| r.float(what);
    String => |x, w, _| { w.str(x); Ok(()) }, |r, what| r.str(what).map(Cow::into_owned);
    SimTime => |x, w, what| x.as_millis().write(w, what),
        |r, what| u64::read(r, what).map(SimTime::from_millis);
    SimDuration => |x, w, what| x.as_millis().write(w, what),
        |r, what| u64::read(r, what).map(SimDuration::from_millis);
}

/// String literals, for fixed entries in [`to_val!`](crate::to_val) lists.
impl ToVal for str {
    fn write(&self, w: &mut Writer, _what: &str) -> Result<(), SnapshotError> {
        w.str(self);
        Ok(())
    }
}

impl<T: ToVal + ?Sized> ToVal for &T {
    fn write(&self, w: &mut Writer, what: &str) -> Result<(), SnapshotError> {
        (**self).write(w, what)
    }
}

/// A sequence is a JSON array.
impl<T: ToVal> ToVal for [T] {
    fn write(&self, w: &mut Writer, what: &str) -> Result<(), SnapshotError> {
        w.open_arr();
        for x in self {
            x.write(w, what)?;
        }
        w.close_arr();
        Ok(())
    }
}

fn read_all<T: Persist, C: Default + Extend<T>>(
    r: &mut Reader<'_>,
    what: &str,
) -> Result<C, SnapshotError> {
    r.open_arr(what)?;
    let mut items = C::default();
    while r.next_item()? {
        items.extend(Some(T::read(r, what)?));
    }
    Ok(items)
}

macro_rules! persist_seq {
    ($($seq:ident),*) => {$(
        impl<T: ToVal> ToVal for $seq<T> {
            fn write(&self, w: &mut Writer, what: &str) -> Result<(), SnapshotError> {
                w.open_arr();
                for x in self {
                    x.write(w, what)?;
                }
                w.close_arr();
                Ok(())
            }
        }

        impl<T: Persist> Persist for $seq<T> {
            fn read(r: &mut Reader<'_>, what: &str) -> Result<Self, SnapshotError> {
                read_all(r, what)
            }
        }
    )*};
}
persist_seq!(Vec, VecDeque);

impl<T: ToVal, const N: usize> ToVal for [T; N] {
    fn write(&self, w: &mut Writer, what: &str) -> Result<(), SnapshotError> {
        self.as_slice().write(w, what)
    }
}

/// A fixed-length array; any other length is a mismatch.
impl<T: Persist, const N: usize> Persist for [T; N] {
    fn read(r: &mut Reader<'_>, what: &str) -> Result<Self, SnapshotError> {
        let items: Vec<T> = read_all(r, what)?;
        let found = items.len();
        items.try_into().map_err(|_| {
            SnapshotError::Mismatch(format!("{what}: expected {N} entries, found {found}"))
        })
    }
}

/// A borrowed view writes like the value it borrows and reads back owned,
/// so capture serializes live state without copying it.
impl<B: ToVal + ToOwned + ?Sized> ToVal for Cow<'_, B> {
    fn write(&self, w: &mut Writer, what: &str) -> Result<(), SnapshotError> {
        (**self).write(w, what)
    }
}

impl Persist for Cow<'_, str> {
    fn read(r: &mut Reader<'_>, what: &str) -> Result<Self, SnapshotError> {
        String::read(r, what).map(Cow::Owned)
    }
}

impl<T: Persist + Clone> Persist for Cow<'_, [T]> {
    fn read(r: &mut Reader<'_>, what: &str) -> Result<Self, SnapshotError> {
        Vec::read(r, what).map(Cow::Owned)
    }
}

/// `None` is `null`.
impl<T: ToVal> ToVal for Option<T> {
    fn write(&self, w: &mut Writer, what: &str) -> Result<(), SnapshotError> {
        match self {
            Some(x) => x.write(w, what),
            None => {
                w.null();
                Ok(())
            }
        }
    }
}

impl<T: Persist> Persist for Option<T> {
    fn read(r: &mut Reader<'_>, what: &str) -> Result<Self, SnapshotError> {
        if r.null() {
            Ok(None)
        } else {
            T::read(r, what).map(Some)
        }
    }
}

/// A pair is a two-element array, a triple a three-element one.
impl<A: ToVal, B: ToVal> ToVal for (A, B) {
    fn write(&self, w: &mut Writer, what: &str) -> Result<(), SnapshotError> {
        w.open_arr();
        self.0.write(w, what)?;
        self.1.write(w, what)?;
        w.close_arr();
        Ok(())
    }
}

impl<A: ToVal, B: ToVal, C: ToVal> ToVal for (A, B, C) {
    fn write(&self, w: &mut Writer, what: &str) -> Result<(), SnapshotError> {
        w.open_arr();
        self.0.write(w, what)?;
        self.1.write(w, what)?;
        self.2.write(w, what)?;
        w.close_arr();
        Ok(())
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn read(r: &mut Reader<'_>, what: &str) -> Result<Self, SnapshotError> {
        const PAIR: &str = "a pair";
        r.open_arr(what)?;
        r.item(what, PAIR)?;
        let a = A::read(r, what)?;
        r.item(what, PAIR)?;
        let b = B::read(r, what)?;
        r.last_item(what, PAIR)?;
        Ok((a, b))
    }
}

/// The xoshiro state words plus the pending Box–Muller spare.
struct RngParts {
    words: [u64; 4],
    spare: Option<f64>,
}

persist_struct!(RngParts {
    "words" => words,
    "spare" => spare,
});

impl ToVal for SimRng {
    fn write(&self, w: &mut Writer, what: &str) -> Result<(), SnapshotError> {
        let s = self.snapshot();
        RngParts {
            words: s.words,
            spare: s.spare_normal,
        }
        .write(w, what)
    }
}

impl Persist for SimRng {
    fn read(r: &mut Reader<'_>, what: &str) -> Result<Self, SnapshotError> {
        let parts = RngParts::read(r, what)?;
        if parts.words == [0; 4] {
            mismatch!("{what}: all-zero xoshiro state is invalid");
        }
        Ok(SimRng::restore(&RngSnapshot {
            words: parts.words,
            spare_normal: parts.spare,
        }))
    }
}

/// A power sampler mid-stream.
struct SamplerParts<'a> {
    name: Cow<'a, str>,
    interval: SimDuration,
    next_tick: SimTime,
    current: f64,
    values: Cow<'a, [f64]>,
}

persist_struct!(SamplerParts<'_> {
    "name" => name,
    "interval_ms" => interval,
    "next_tick_ms" => next_tick,
    "current" => current,
    "values" => values,
});

impl ToVal for Sampler {
    fn write(&self, w: &mut Writer, what: &str) -> Result<(), SnapshotError> {
        let (name, interval, next_tick, current, values) = self.parts();
        SamplerParts {
            name: name.into(),
            interval,
            next_tick,
            current,
            values: values.into(),
        }
        .write(w, what)
    }
}

impl Persist for Sampler {
    fn read(r: &mut Reader<'_>, what: &str) -> Result<Self, SnapshotError> {
        let p = SamplerParts::read(r, what)?;
        if p.interval.is_zero() {
            mismatch!("{what}: sampler interval must be positive");
        }
        Ok(Sampler::from_parts(
            p.name.into_owned(),
            p.interval,
            p.next_tick,
            p.current,
            p.values.into_owned(),
        ))
    }
}

// A cost meter's open segment and total; its flat rate comes from the
// run input (a fork may change it).
section!(SignalMeter, |m| {
    "seg_value" => m.seg_value,
    "seg_j" => m.seg_j,
    "total" => m.total,
});

section!(CostMeter, |c| {
    "price_meter" => c.price,
    "carbon_meter" => c.carbon,
});

persist_struct!(EnergyLedger {
    "wind_j" => wind_j,
    "utility_j" => utility_j,
});

// The battery's charge; its ratings come from the run input.
section!(BatteryState, |b| {
    "stored_j" => b.stored_j,
});

// Result types of the model crates, as the experiment harness writes them
// to `results/`.
to_val!(TimeSeries, |t| {
    "name" => t.name,
    "interval" => t.interval,
    "values" => t.values,
});

to_val!(WorkloadStats, |w| {
    "jobs" => w.jobs,
    "core_hours" => w.core_hours,
    "runtime_quantiles_s" => w.runtime_quantiles_s,
    "cpus_quantiles" => w.cpus_quantiles,
    "size_histogram" => w.size_histogram,
    "mean_deadline_factor" => w.mean_deadline_factor,
    "hu_fraction" => w.hu_fraction,
    "span_hours" => w.span_hours,
});

to_val!(WindowReport, |w| {
    "fraction_below" => w.fraction_below,
    "window_lengths" => w.window_lengths,
    "idle_proc_seconds" => w.idle_proc_seconds,
});

to_val!(CampaignEstimate, |c| {
    "required_proc_seconds" => c.required_proc_seconds,
    "available_proc_seconds" => c.available_proc_seconds,
    "periods_to_complete" => c.periods_to_complete,
    "longest_window_fits_one_chip" => c.longest_window_fits_one_chip,
});

to_val!(ProfilingCost, |p| {
    "energy_kwh" => p.energy_kwh,
    "cost_wind_usd" => p.cost_wind_usd,
    "cost_utility_usd" => p.cost_utility_usd,
});

// The work-stealing pool's counters, reported in `BENCH_sim.json`.
to_val!(PoolStats, |p| {
    "par_calls" => p.par_calls,
    "seq_calls" => p.seq_calls,
    "tasks" => p.tasks,
    "steals" => p.steals,
    "splits" => p.splits,
    "max_workers" => p.max_workers,
});

/// A tree renders through the same writer as every typed value.
impl ToVal for Val {
    fn write(&self, w: &mut Writer, what: &str) -> Result<(), SnapshotError> {
        match self {
            Val::Null => w.null(),
            Val::Bool(b) => w.bool(*b),
            Val::Int(n) => w.int(*n),
            Val::Float(f) => return w.float(*f, what),
            Val::Str(s) => w.str(s),
            Val::Arr(items) => return items.write(w, what),
            Val::Obj(fields) => {
                return w.obj(|w| {
                    for (k, v) in fields {
                        w.entry(k, |w| v.write(w, k))?;
                    }
                    Ok(())
                })
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The document
// ---------------------------------------------------------------------------

/// A snapshot document being written: one `{"section":name,"data":value}`
/// line per section, each ending in a newline.
#[derive(Default)]
pub(crate) struct DocWriter {
    w: Writer,
}

impl DocWriter {
    /// Writes the section `name`, its value written by `f`.
    pub(crate) fn entry(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut Writer) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError> {
        let w = &mut self.w;
        w.obj(|w| {
            w.entry("section", |w| {
                w.str(name);
                Ok(())
            })?;
            w.entry("data", f)
        })?;
        w.newline();
        Ok(())
    }

    pub(crate) fn finish(self) -> String {
        self.w.finish()
    }
}

/// A snapshot document split into its sections, each kept as the text of
/// its value until a field list reads it.
#[derive(Debug)]
pub(crate) struct Doc<'a> {
    sections: Vec<(Cow<'a, str>, &'a str)>,
}

impl<'a> Doc<'a> {
    /// Reads the section `name` with `f`, which must consume all of it.
    pub(crate) fn entry<T>(
        &self,
        name: &str,
        f: impl FnOnce(&mut Reader<'a>) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError> {
        self.head(name, |r| {
            let v = f(r)?;
            r.end()?;
            Ok(v)
        })
    }

    /// Reads the start of the section `name` with `f`, leaving the rest
    /// unread.
    pub(crate) fn head<T>(
        &self,
        name: &str,
        f: impl FnOnce(&mut Reader<'a>) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError> {
        let (_, data) = self
            .sections
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| SnapshotError::Parse(format!("missing section {name:?}")))?;
        f(&mut Reader::new(data))
    }
}

/// Splits a snapshot JSONL document into its sections. Each line must be
/// `{"section":<name>,"data":<value>}` (keys in that order); blank lines
/// are skipped and section names must be unique. A value is only read
/// when its section is.
pub(crate) fn decode_lines(text: &str) -> Result<Doc<'_>, SnapshotError> {
    let mut sections: Vec<(Cow<'_, str>, &str)> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at_line = |e: SnapshotError| SnapshotError::Parse(format!("line {}: {e}", i + 1));
        let mut r = Reader::new(line);
        let name = r
            .open_obj("section line")
            .and_then(|()| r.entry("section", |r| r.str("section")))
            .and_then(|name| r.entry("data", |_| Ok(name)))
            .map_err(at_line)?;
        // The value runs from the cursor to the line's closing brace.
        let body = line.trim_end();
        let data = body
            .strip_suffix('}')
            .and_then(|b| b.get(r.pos..))
            .ok_or_else(|| at_line(SnapshotError::Parse("line must end with '}'".into())))?;
        if sections.iter().any(|(n, _)| *n == name) {
            return Err(at_line(SnapshotError::Parse(format!(
                "duplicate section {name:?}"
            ))));
        }
        sections.push((name, data));
    }
    if sections.is_empty() {
        return Err(SnapshotError::Parse("empty snapshot document".into()));
    }
    Ok(Doc { sections })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn render_str(v: &(impl ToVal + ?Sized)) -> String {
        render(v, "test").unwrap()
    }

    /// Reads one `T` from `text`, which it must consume.
    fn read<T: Persist>(text: &str) -> Result<T, SnapshotError> {
        let mut r = Reader::new(text);
        let v = T::read(&mut r, "test")?;
        r.end()?;
        Ok(v)
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Val::Null,
            Val::Bool(true),
            Val::Bool(false),
            Val::Int(0),
            Val::Int(-7),
            Val::Int(u64::MAX as i128),
            Val::Float(0.5),
            Val::Float(-0.0),
            Val::Float(1.0 / 3.0),
            Val::Float(1e-300),
            Val::Str("hello \"quoted\" \\ line\nbreak\ttab".into()),
            Val::Str("unicode: ✓ €".into()),
        ] {
            let s = render_str(&v);
            let back = parse(&s).unwrap();
            assert_eq!(back, v, "round trip of {s}");
            assert_eq!(render_str(&back), s, "re-render of {s}");
        }
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for f in [
            0.1,
            1.0 / 3.0,
            -98_765.432_1,
            1e300,
            5.0,
            -0.0,
            f64::MIN_POSITIVE,
        ] {
            let s = render_str(&f);
            match parse(&s).unwrap() {
                Val::Float(b) => assert_eq!(b.to_bits(), f.to_bits(), "bits of {s}"),
                other => panic!("{s} parsed as {other:?}"),
            }
            assert_eq!(read::<f64>(&s).unwrap().to_bits(), f.to_bits(), "{s}");
        }
    }

    #[test]
    fn integral_floats_stay_floats() {
        let s = render_str(&5.0);
        assert_eq!(s, "5.0");
        assert_eq!(parse(&s).unwrap(), Val::Float(5.0));
        // ... and integers stay integers.
        assert_eq!(parse("5").unwrap(), Val::Int(5));
    }

    /// Exact bytes of the integer edge cases, and their way back.
    #[test]
    fn integer_edges_render_pinned_bytes() {
        // `chain_limit`'s "no limit" sentinel is `SimTime::MAX`, u64::MAX ms.
        assert_eq!(render_str(&SimTime::MAX), "18446744073709551615");
        assert_eq!(
            read::<SimTime>("18446744073709551615").unwrap(),
            SimTime::MAX
        );
        assert_eq!(render_str(&i64::MIN), "-9223372036854775808");
        assert_eq!(read::<i64>("-9223372036854775808").unwrap(), i64::MIN);
        assert_eq!(render_str(&0u64), "0");
        // A tree integer beyond u64 renders exactly and reads back exactly,
        // but no u64 field accepts it.
        let wide = Val::Int(u64::MAX as i128 + 1);
        assert_eq!(render_str(&wide), "18446744073709551616");
        assert_eq!(parse("18446744073709551616").unwrap(), wide);
        assert_eq!(render_str(&Val::Int(i128::MIN)), i128::MIN.to_string());
        assert_eq!(parse(&i128::MIN.to_string()).unwrap(), Val::Int(i128::MIN));
        assert!(matches!(
            read::<u64>("18446744073709551616"),
            Err(SnapshotError::Mismatch(_))
        ));
        assert!(matches!(read::<u64>("-1"), Err(SnapshotError::Mismatch(_))));
        // Past i128, an integer is not a number this codec can carry.
        assert!(parse("999999999999999999999999999999999999999999").is_err());
        assert!(read::<u64>("1.0").is_err(), "a float is not an int");
        assert!(read::<u64>("\"x\"").is_err(), "a string is not an int");
    }

    /// Exact bytes of the float edge cases, and their bits on the way back.
    #[test]
    fn float_edges_render_pinned_bytes() {
        let subnormal = f64::from_bits(1);
        for (f, text) in [
            (2.0, "2.0".to_string()),
            (-0.0, "-0.0".to_string()),
            // Display never switches to an exponent: a subnormal is 323
            // zeros after the point, 1e300 a 1 and 300 zeros.
            (subnormal, format!("0.{}5", "0".repeat(323))),
            (1e300, format!("1{}.0", "0".repeat(300))),
        ] {
            assert_eq!(render_str(&f), text);
            assert_eq!(read::<f64>(&text).unwrap().to_bits(), f.to_bits(), "{text}");
        }
        assert!(read::<f64>("2").is_err(), "an int is not a float");
        assert!(matches!(read::<f64>("1e999"), Err(SnapshotError::Parse(_))));
    }

    #[test]
    fn non_finite_floats_are_rejected_on_write() {
        let err = render(&f64::NAN, "drift").unwrap_err();
        assert!(err.to_string().contains("drift"), "{err}");
        assert!(render(&f64::INFINITY, "x").is_err());
        assert!(render(&Val::Arr(vec![Val::Float(f64::NEG_INFINITY)]), "x").is_err());
        assert!(render(&1.5, "x").is_ok());
    }

    /// Exact bytes of the string edge cases, and the text on the way back.
    #[test]
    fn string_edges_render_pinned_bytes() {
        for (s, text) in [
            ("say \"hi\"", r#""say \"hi\"""#),
            ("a\\b", r#""a\\b""#),
            ("\u{0}\u{1f}\n\r\t", r#""\u0000\u001f\n\r\t""#),
            ("ünïcødé ✓ €", "\"ünïcødé ✓ €\""),
            ("😀", "\"😀\""),
        ] {
            assert_eq!(render_str(s), text);
            assert_eq!(read::<String>(text).unwrap(), s, "{text}");
        }
        // A surrogate-pair escape reads as the one character it encodes,
        // and renders back unescaped.
        let pair = read::<String>(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(pair, "😀");
        assert_eq!(render_str(&pair), "\"😀\"");
        assert!(
            read::<String>(r#""\ud83d""#).is_err(),
            "lone high surrogate"
        );
        assert!(
            read::<String>(r#""\u+041""#).is_err(),
            "sign in a \\u escape"
        );
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Val::Obj(vec![
            ("a".into(), Val::Arr(vec![Val::Int(1), Val::Null])),
            (
                "b".into(),
                Val::Obj(vec![("c".into(), Val::Arr(vec![Val::Float(2.5)]))]),
            ),
            ("empty_arr".into(), Val::Arr(vec![])),
            ("empty_obj".into(), Val::Obj(vec![])),
        ]);
        let s = render_str(&v);
        assert_eq!(
            s,
            r#"{"a":[1,null],"b":{"c":[2.5]},"empty_arr":[],"empty_obj":{}}"#
        );
        assert_eq!(parse(&s).unwrap(), v);
        assert_eq!(
            parse(" { \"a\" : [ 1 , null ] , \"empty_obj\" : { } } ").unwrap(),
            Val::Obj(vec![
                ("a".into(), Val::Arr(vec![Val::Int(1), Val::Null])),
                ("empty_obj".into(), Val::Obj(vec![])),
            ]),
            "whitespace between tokens"
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "[,1]",
            "[1,]",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "nul",
            "\"unterminated",
            "1 2",
            "[1]]",
            "{\"a\":1,}",
            "--1",
            "-",
            "1.2.3",
            "\"bad \\x escape\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err(), "nesting past the limit");
    }

    #[test]
    fn negative_numbers_in_arrays_do_not_merge() {
        assert_eq!(
            parse("[1,-2,-3.5]").unwrap(),
            Val::Arr(vec![Val::Int(1), Val::Int(-2), Val::Float(-3.5)])
        );
        assert_eq!(read::<Vec<i64>>("[1,-2,-3]").unwrap(), [1, -2, -3]);
    }

    #[test]
    fn exponent_signs_parse() {
        assert_eq!(parse("1e-3").unwrap(), Val::Float(1e-3));
        assert_eq!(parse("1E+3").unwrap(), Val::Float(1e3));
        assert_eq!(
            parse("[1e-3,2]").unwrap(),
            Val::Arr(vec![Val::Float(1e-3), Val::Int(2)])
        );
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse("\"\\u0041\"").unwrap(), Val::Str("A".into()));
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap(), Val::Str("😀".into()));
        assert!(parse("\"\\ud83d\"").is_err(), "lone high surrogate");
    }

    /// A two-key record for the keyed-object tests.
    struct Pair {
        a: u64,
        b: Option<f64>,
    }

    persist_struct!(Pair {
        "a" => a,
        "b" => b,
    });

    #[test]
    fn keyed_objects_are_read_in_declared_order() {
        let text = render_str(&Pair { a: 3, b: Some(0.5) });
        assert_eq!(text, r#"{"a":3,"b":0.5}"#);
        let back: Pair = read(&text).unwrap();
        assert_eq!((back.a, back.b), (3, Some(0.5)));
        for (bad, names) in [
            (r#"{"b":0.5,"a":3}"#, "\"a\""),
            (r#"{"a":3}"#, "\"b\""),
            (r#"{"a":3,"b":0.5,"c":1}"#, "\"c\""),
            (r#"{"a":3,"a":3,"b":0.5}"#, "\"b\""),
        ] {
            match read::<Pair>(bad) {
                Err(SnapshotError::Parse(m)) => assert!(m.contains(names), "{bad}: {m}"),
                other => panic!(
                    "{bad} must be a parse error naming {names}, got {:?}",
                    other.err()
                ),
            }
        }
    }

    #[test]
    fn document_sections_round_trip() {
        let mut doc = DocWriter::default();
        doc.entry("header", |w| {
            w.obj(|w| w.entry("version", |w| 1u64.write(w, "v")))
        })
        .unwrap();
        doc.entry("events", |w| [3u64].write(w, "events")).unwrap();
        let text = doc.finish();
        assert_eq!(
            text,
            "{\"section\":\"header\",\"data\":{\"version\":1}}\n\
             {\"section\":\"events\",\"data\":[3]}\n"
        );
        let back = decode_lines(&text).unwrap();
        let version = back
            .entry("header", |r| {
                r.obj("header", |r| r.entry("version", |r| u64::read(r, "v")))
            })
            .unwrap();
        assert_eq!(version, 1);
        assert_eq!(
            back.entry("events", |r| Vec::<u64>::read(r, "e")).unwrap(),
            [3]
        );
        assert!(back.entry("missing", |_| Ok(())).is_err());
        // A section must be read whole.
        assert!(back.entry("events", |_| Ok(())).is_err());
    }

    #[test]
    fn duplicate_sections_are_rejected() {
        let line = |name: &str| format!("{{\"section\":\"{name}\",\"data\":null}}\n");
        assert!(decode_lines(&(line("a") + &line("b"))).is_ok());
        assert!(decode_lines(&(line("a") + &line("b") + &line("a"))).is_err());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(decode_lines("\n  \n").is_err(), "empty document");
        assert!(
            decode_lines("{\"data\":null,\"section\":\"a\"}").is_err(),
            "key order"
        );
        assert!(
            decode_lines("{\"section\":\"a\",\"data\":null").is_err(),
            "no closing brace"
        );
        let doc = "{\"section\":\"a\",\"data\":1,\"x\":2}";
        let doc = decode_lines(doc).unwrap();
        assert!(
            doc.entry("a", |r| u64::read(r, "a")).is_err(),
            "extra key after data"
        );
    }

    /// Strategy over arbitrary JSON trees with finite floats — the value
    /// space the snapshot writer can emit.
    fn arb_val() -> impl Strategy<Value = Val> {
        let leaf = prop_oneof![
            Just(Val::Null),
            any::<bool>().prop_map(Val::Bool),
            // The writer's integer sources are u64/i64/usize counters.
            any::<i64>().prop_map(|v| Val::Int(v as i128)),
            any::<u64>().prop_map(|v| Val::Int(v as i128)),
            // Finite floats only; the writer rejects the rest.
            any::<f64>()
                .prop_filter("finite", |f| f.is_finite())
                .prop_map(Val::Float),
            "[ -~]*".prop_map(Val::Str),
            "\\PC*".prop_map(Val::Str),
        ];
        leaf.prop_recursive(4, 64, 8, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..8).prop_map(Val::Arr),
                prop::collection::vec(("[a-z_]{1,8}", inner), 0..8).prop_map(Val::Obj),
            ]
        })
    }

    proptest! {
        /// encode → decode → encode is byte-stable for every tree the
        /// writer can produce (the snapshot determinism contract).
        #[test]
        fn prop_encode_decode_encode_is_byte_stable(v in arb_val()) {
            let first = render_str(&v);
            let back = parse(&first).unwrap();
            prop_assert_eq!(&back, &v, "structural round trip");
            let second = render_str(&back);
            prop_assert_eq!(first, second, "byte-stable re-encode");
        }

        /// Float bits survive the decimal round trip exactly.
        #[test]
        fn prop_float_bits_survive(f in any::<f64>().prop_filter("finite", |f| f.is_finite())) {
            let s = render_str(&f);
            prop_assert_eq!(read::<f64>(&s).unwrap().to_bits(), f.to_bits());
        }
    }
}
