//! The JSON writer every [`Serialize`](crate::Serialize) impl writes itself
//! into: the workspace's one string escaper and one number formatter.

use std::io::Write;

/// Appends JSON text to a byte buffer, compact or 2-space indented.
///
/// Containers are written as `open`, then `element`/`field`/`key` before each
/// member, then `close`. The caller says which member is the first and
/// whether the container was empty — a derive knows both statically, a
/// collection knows its length — so the writer keeps no per-container state
/// and never allocates beyond the buffer's own growth.
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
    /// Current nesting level in the pretty form; `None` writes compact.
    indent: Option<usize>,
}

impl<'a> Writer<'a> {
    /// A writer of the compact form: no whitespace at all.
    pub fn compact(out: &'a mut Vec<u8>) -> Self {
        Writer { out, indent: None }
    }

    /// A writer of the pretty form: one member per line, 2-space indent,
    /// `": "` after keys, empty containers as `[]` / `{}`.
    pub fn pretty(out: &'a mut Vec<u8>) -> Self {
        Writer {
            out,
            indent: Some(0),
        }
    }

    fn newline(&mut self) {
        if let Some(level) = self.indent {
            self.out.push(b'\n');
            self.out.resize(self.out.len() + 2 * level, b' ');
        }
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.out.extend_from_slice(b"null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, v: bool) {
        self.out
            .extend_from_slice(if v { b"true" } else { b"false" });
    }

    /// Writes an unsigned integer in decimal.
    pub fn u64(&mut self, mut n: u64) {
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.out.extend_from_slice(&buf[at..]);
    }

    /// Writes a signed integer in decimal.
    pub fn i64(&mut self, n: i64) {
        if n < 0 {
            self.out.push(b'-');
        }
        self.u64(n.unsigned_abs());
    }

    /// Writes a float in Rust's shortest round-trip form (`{:?}`, which
    /// keeps a trailing `.0` on integral values, as serde_json does);
    /// non-finite values have no JSON form and are written as `null`.
    pub fn f64(&mut self, v: f64) {
        if v.is_finite() {
            write!(self.out, "{v:?}").expect("writing to a Vec cannot fail");
        } else {
            self.null();
        }
    }

    /// Writes a quoted string, escaping `"`, `\` and control characters
    /// (`\n`, `\r`, `\t` by name, the rest as `\u00XX`).
    pub fn str(&mut self, s: &str) {
        self.out.push(b'"');
        let bytes = s.as_bytes();
        let mut clean_from = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let named: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0..=0x1f => b"",
                _ => continue,
            };
            self.out.extend_from_slice(&bytes[clean_from..i]);
            if named.is_empty() {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                self.out.extend_from_slice(b"\\u00");
                self.out.push(HEX[usize::from(b >> 4)]);
                self.out.push(HEX[usize::from(b & 0xf)]);
            } else {
                self.out.extend_from_slice(named);
            }
            clean_from = i + 1;
        }
        self.out.extend_from_slice(&bytes[clean_from..]);
        self.out.push(b'"');
    }

    /// Opens a container with `[` or `{`.
    pub fn open(&mut self, bracket: u8) {
        self.out.push(bracket);
        if let Some(level) = &mut self.indent {
            *level += 1;
        }
    }

    /// Closes a container with `]` or `}`; `empty` is whether nothing was
    /// written since `open`.
    pub fn close(&mut self, bracket: u8, empty: bool) {
        if let Some(level) = &mut self.indent {
            *level -= 1;
        }
        if !empty {
            self.newline();
        }
        self.out.push(bracket);
    }

    /// Starts an array element: the separating comma unless it is the
    /// first, then the pretty form's line break.
    pub fn element(&mut self, first: bool) {
        if !first {
            self.out.push(b',');
        }
        self.newline();
    }

    /// Starts an object member whose name is known when the code is
    /// generated: `quoted` is the name already quoted and followed by its
    /// colon (`"name":`). Rust identifiers never need escaping.
    pub fn field(&mut self, first: bool, quoted: &str) {
        self.element(first);
        self.out.extend_from_slice(quoted.as_bytes());
        if self.indent.is_some() {
            self.out.push(b' ');
        }
    }

    /// Starts an object member under a run-time key.
    pub fn key(&mut self, first: bool, key: &str) {
        self.element(first);
        self.str(key);
        self.out.push(b':');
        if self.indent.is_some() {
            self.out.push(b' ');
        }
    }
}
