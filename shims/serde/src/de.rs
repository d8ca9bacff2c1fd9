//! The JSON reader every [`Deserialize`](crate::Deserialize) impl reads
//! itself from: the workspace's one JSON parser.
//!
//! Typed impls pull tokens (`u64`, `str`, `begin_object` / `key` / `more`, …)
//! straight off the input; [`Value`] is built by [`Reader::value`], which is
//! also what skips the value of an unknown key, so a skipped value is checked
//! against exactly the grammar a kept one is.
//!
//! The grammar is JSON, read leniently where the `Value`-tree parser this
//! replaced was lenient, so that the accepted set did not move: control
//! characters may appear raw inside strings; a number is any run of
//! `[0-9.eE+-]` that Rust's `u64`, `i64` or `f64` parser accepts (`07`, `7.`
//! and `-.5` included); `\u` takes what `u32::from_str_radix` takes.

use crate::value::{Number, Object, Value};
use crate::DeError;
use std::borrow::Cow;

/// Maximum container nesting depth, matching real serde_json's default
/// recursion limit. Without it a request body of a few KB of `[` bytes
/// overflows the parser's stack — an abort, not a catchable error — so
/// every service that parses untrusted bytes inherits this bound. Every
/// container is entered through [`Reader::begin_array`] or
/// [`Reader::begin_object`], typed, built or skipped, so the count is of
/// all open containers from the root.
pub const MAX_DEPTH: usize = 128;

/// A cursor over JSON text.
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Reader {
            src,
            pos: 0,
            depth: 0,
        }
    }

    /// Fails unless only whitespace is left.
    pub fn finish(mut self) -> Result<(), DeError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.err("trailing characters after value")),
        }
    }

    /// An error at the current position.
    pub fn err(&self, msg: &str) -> DeError {
        DeError(format!("json parse error at byte {}: {msg}", self.pos))
    }

    /// The error for a token of the wrong kind.
    pub fn expected(&self, what: &str, while_parsing: &str) -> DeError {
        self.err(&format!("expected {what} while parsing {while_parsing}"))
    }

    /// Skips whitespace and returns the first byte of the next token
    /// without consuming it.
    pub fn peek(&mut self) -> Option<u8> {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    fn expect(&mut self, b: u8) -> Result<(), DeError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), DeError> {
        if self.src.as_bytes()[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{kw}`")))
        }
    }

    /// Consumes `null` if that is the next token.
    pub fn null(&mut self) -> Result<bool, DeError> {
        if self.peek() != Some(b'n') {
            return Ok(false);
        }
        self.keyword("null").map(|()| true)
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, DeError> {
        match self.peek() {
            Some(b't') => self.keyword("true").map(|()| true),
            Some(b'f') => self.keyword("false").map(|()| false),
            _ => Err(self.expected("bool", "bool")),
        }
    }

    /// Reads a number for a value of type `ty`.
    pub fn number(&mut self, ty: &str) -> Result<Number, DeError> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.expected("number", ty));
        }
        let bytes = self.src.as_bytes();
        let start = self.pos;
        if bytes[self.pos] == b'-' {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        // The run is ASCII, so it is a slice of the `str` as well.
        let text = &self.src[start..self.pos];
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::I64(i));
            }
        }
        match text.parse::<f64>() {
            // Rust reads `1e400` as infinity, which the writer could only
            // give back as `null`.
            Ok(f) if f.is_finite() => Ok(Number::F64(f)),
            Ok(_) => Err(self.err("number out of range")),
            Err(_) => Err(self.err("bad number")),
        }
    }

    /// Reads a string for a value of type `ty`, borrowed from the input
    /// unless it contains an escape.
    pub fn str(&mut self, ty: &str) -> Result<Cow<'a, str>, DeError> {
        if self.peek() != Some(b'"') {
            return Err(self.expected("string", ty));
        }
        self.string(true)
    }

    /// Reads the string token at the cursor. With `keep` unset the token is
    /// only checked and the result is empty, so skipping a string never
    /// allocates.
    fn string(&mut self, keep: bool) -> Result<Cow<'a, str>, DeError> {
        self.expect(b'"')?;
        let bytes = self.src.as_bytes();
        // `"` and `\` are ASCII and the input is UTF-8, so neither can be
        // a byte of a longer character: every run cut at one is a `str`.
        let run_end = |from: usize| {
            bytes[from..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map(|n| from + n)
        };
        let start = self.pos;
        let Some(mut at) = run_end(start) else {
            self.pos = bytes.len();
            return Err(self.err("unterminated string"));
        };
        if bytes[at] == b'"' {
            self.pos = at + 1;
            return Ok(Cow::Borrowed(if keep { &self.src[start..at] } else { "" }));
        }
        let mut out = String::new();
        let mut run_start = start;
        loop {
            if keep {
                out.push_str(&self.src[run_start..at]);
            }
            self.pos = at + 1;
            if bytes[at] == b'"' {
                return Ok(Cow::Owned(out));
            }
            let c = self.escape()?;
            if keep {
                out.push(c);
            }
            run_start = self.pos;
            at = match run_end(run_start) {
                Some(at) => at,
                None => {
                    self.pos = bytes.len();
                    return Err(self.err("unterminated string"));
                }
            };
        }
    }

    /// Decodes one escape; the cursor is just past its backslash.
    fn escape(&mut self) -> Result<char, DeError> {
        let Some(&esc) = self.src.as_bytes().get(self.pos) else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{0008}',
            b'f' => '\u{000C}',
            b'u' => {
                let cp = self.hex4()?;
                let cp = if (0xD800..0xDC00).contains(&cp) {
                    // A high surrogate is half a character: the other
                    // half must follow, and must be a low surrogate.
                    if !self.src.as_bytes()[self.pos..].starts_with(b"\\u") {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..=0xDFFF).contains(&lo) {
                        return Err(self.err("unpaired surrogate"));
                    }
                    0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    cp
                };
                char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?
            }
            other => return Err(self.err(&format!("bad escape `\\{}`", other as char))),
        })
    }

    fn hex4(&mut self) -> Result<u32, DeError> {
        let hex = self
            .src
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn enter(&mut self) -> Result<(), DeError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("recursion limit exceeded"));
        }
        Ok(())
    }

    /// Enters an array for a value of type `ty`. Returns whether it has a
    /// first element; if not, it is already closed.
    pub fn begin_array(&mut self, ty: &str) -> Result<bool, DeError> {
        self.begin(b'[', b']', "array", ty)
    }

    /// Enters an object for a value of type `ty`. Returns whether it has a
    /// first member, whose [`key`](Self::key) is next; if not, it is
    /// already closed.
    pub fn begin_object(&mut self, ty: &str) -> Result<bool, DeError> {
        self.begin(b'{', b'}', "object", ty)
    }

    fn begin(&mut self, open: u8, close: u8, what: &str, ty: &str) -> Result<bool, DeError> {
        if self.peek() != Some(open) {
            return Err(self.expected(what, ty));
        }
        self.pos += 1;
        self.enter()?;
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        Ok(true)
    }

    /// After an element or member: consumes `,` and returns `true`, or
    /// consumes `close` (`]` or `}`), leaves the container and returns
    /// `false`.
    pub fn more(&mut self, close: u8) -> Result<bool, DeError> {
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(self.err(&format!("expected `,` or `{}`", close as char))),
        }
    }

    /// Reads a member's key and the colon after it.
    pub fn key(&mut self) -> Result<Cow<'a, str>, DeError> {
        let key = self.string(true)?;
        self.expect(b':')?;
        Ok(key)
    }

    /// Steps through an array of exactly `len` elements for a value of
    /// type `ty`: call with `at` = `k` before reading element `k`, for each
    /// `k` in `0..len`, then with `at` = `len` to close the array. Opens
    /// the array at 0, takes a `,` or the `]` otherwise, and fails as soon
    /// as the array turns out shorter or longer than `len`.
    pub fn tuple(&mut self, at: usize, len: usize, ty: &str) -> Result<(), DeError> {
        let more = if at == 0 {
            self.begin_array(ty)?
        } else {
            self.more(b']')?
        };
        if more == (at < len) {
            Ok(())
        } else {
            Err(self.expected(&format!("{len}-element array"), ty))
        }
    }

    /// Reads the object form of an externally tagged enum `ty` — a single
    /// member whose key names the variant — calling `variant` with the
    /// reader at that member's value. A repeated key is the same single
    /// member, last wins, as it is for any object.
    pub fn variant_object<T>(
        &mut self,
        ty: &str,
        mut variant: impl FnMut(&mut Self, &str) -> Result<T, DeError>,
    ) -> Result<T, DeError> {
        if !self.begin_object(ty)? {
            return Err(self.expected("variant string or single-key object", ty));
        }
        let tag = self.key()?;
        let mut out = variant(self, &tag)?;
        while self.more(b'}')? {
            if self.key()? != tag {
                return Err(self.expected("variant string or single-key object", ty));
            }
            out = variant(self, &tag)?;
        }
        Ok(out)
    }

    /// Checks and discards the next value, whatever it is, without
    /// allocating.
    pub fn skip_value(&mut self) -> Result<(), DeError> {
        self.value(false).map(drop)
    }

    /// Reads any value. With `keep` unset it is only checked, nothing is
    /// built and the result is `Null`.
    pub fn value(&mut self, keep: bool) -> Result<Value, DeError> {
        match self.peek() {
            Some(b'n') => self.keyword("null").map(|()| Value::Null),
            Some(b't' | b'f') => self.bool().map(Value::Bool),
            Some(b'"') => Ok(Value::String(self.string(keep)?.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                let mut more = self.begin_array("")?;
                while more {
                    let item = self.value(keep)?;
                    if keep {
                        items.push(item);
                    }
                    more = self.more(b']')?;
                }
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut obj = Object::new();
                let mut more = self.begin_object("")?;
                while more {
                    let key = self.string(keep)?;
                    self.expect(b':')?;
                    let value = self.value(keep)?;
                    if keep {
                        obj.insert(key, value);
                    }
                    more = self.more(b'}')?;
                }
                Ok(Value::Object(obj))
            }
            Some(b'-' | b'0'..=b'9') => self.number("").map(Value::Number),
            Some(b) => Err(self.err(&format!("unexpected byte `{}`", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }
}
