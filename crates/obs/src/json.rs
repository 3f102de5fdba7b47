//! Flat-JSON-object field walker for journal records.
//!
//! The journal writer (`capgpu_telemetry::journal`) only ever emits
//! one-level objects whose values are numbers, booleans, strings, or
//! `null` — so that is exactly what this walker accepts. Nested arrays
//! or objects are rejected as corruption rather than silently skipped:
//! a journal line that needs them is from a future schema the reader
//! must not guess at.
//!
//! [`walk_object`] validates the whole line in one pass and allocates
//! nothing: every field is handed to the caller as a key [`Span`] and a
//! [`Scalar`], strings as byte ranges of their (validated) bodies plus
//! a "has escapes" bit, so only a string that actually carries escapes
//! is ever copied, and only when someone reads it.
//!
//! Numbers round-trip exactly: the writer uses Rust's
//! shortest-roundtrip float formatting and `str::parse::<f64>` is
//! correctly rounded, so `parse(format(x)) == x` bit-for-bit. That is
//! what lets crash-recovery replay rebuild the *identical* power model
//! the dead daemon was running. (Runs of at most 15 digits skip
//! `str::parse`: such an integer is below 2^53, so converting it is
//! exact and equals the correctly rounded parse.)

use std::borrow::Cow;

/// Lines at or beyond this length are refused: [`Span`] packs offsets
/// into 31 bits.
const MAX_LINE_BYTES: usize = 1 << 31;

/// Byte range of one string body (the text between the quotes) inside
/// the line [`walk_object`] validated, and whether that body contains
/// backslash escapes. Only meaningful together with that line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    start: u32,
    /// Length in the low 31 bits, the "has escapes" bit on top.
    len_escaped: u32,
}

const ESCAPED_BIT: u32 = 1 << 31;

impl Span {
    /// `start..end` of a text shorter than 2 × [`MAX_LINE_BYTES`], the
    /// range itself shorter than [`MAX_LINE_BYTES`].
    pub(crate) fn new(start: usize, end: usize, escaped: bool) -> Span {
        Span {
            start: start as u32,
            len_escaped: (end - start) as u32 | if escaped { ESCAPED_BIT } else { 0 },
        }
    }

    /// The body's byte range in its line.
    pub(crate) fn range(self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + (self.len_escaped & !ESCAPED_BIT) as usize
    }

    /// Whether the body contains backslash escapes.
    pub(crate) fn escaped(self) -> bool {
        self.len_escaped & ESCAPED_BIT != 0
    }

    /// The string's text: borrowed from `line` unless the body has
    /// escapes to unwind.
    pub(crate) fn text(self, line: &str) -> Cow<'_, str> {
        let body = &line[self.range()];
        if self.escaped() {
            Cow::Owned(unescape(body))
        } else {
            Cow::Borrowed(body)
        }
    }
}

/// One field value as it sits in the line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Scalar {
    /// JSON `null` (the journal renders non-finite floats as null).
    Null,
    /// Boolean.
    Bool(bool),
    /// Any JSON number, held as `f64` (exact for the journal's u64
    /// counters up to 2^53, far beyond any period index).
    Num(f64),
    /// String body.
    Str(Span),
}

impl Scalar {
    /// The value as `f64`, if numeric.
    pub(crate) fn as_f64(self) -> Option<f64> {
        match self {
            Scalar::Num(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub(crate) fn as_u64(self) -> Option<u64> {
        match self {
            Scalar::Num(v) if v >= 0.0 && v.fract() == 0.0 && v <= 9.007_199_254_740_992e15 => {
                Some(v as u64)
            }
            _ => None,
        }
    }

    /// The value as a boolean, if boolean.
    pub(crate) fn as_bool(self) -> Option<bool> {
        match self {
            Scalar::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string body, if textual.
    pub(crate) fn as_span(self) -> Option<Span> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Validates `line` as one flat JSON object and calls `field` with
/// every `(key, value)` pair in document order. Duplicate keys are all
/// reported (callers use first-wins lookups). `field` may have been
/// called for leading pairs when an error is returned.
pub(crate) fn walk_object(line: &str, mut field: impl FnMut(Span, Scalar)) -> Result<(), String> {
    if line.len() >= MAX_LINE_BYTES {
        return Err("line of 2 GiB or more".into());
    }
    let mut w = Walker { line, pos: 0 };
    w.skip_ws();
    w.expect(b'{')?;
    w.skip_ws();
    if w.peek() == Some(b'}') {
        w.pos += 1;
    } else {
        loop {
            w.skip_ws();
            let key = w.string()?;
            w.skip_ws();
            w.expect(b':')?;
            w.skip_ws();
            let value = w.value()?;
            field(key, value);
            w.skip_ws();
            match w.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                Some(c) => return Err(format!("expected `,` or `}}`, found `{}`", c as char)),
                None => return Err("unterminated object".into()),
            }
        }
    }
    w.skip_ws();
    if w.pos != line.len() {
        return Err("trailing bytes after object".into());
    }
    Ok(())
}

struct Walker<'a> {
    line: &'a str,
    pos: usize,
}

impl Walker<'_> {
    fn peek(&self) -> Option<u8> {
        self.line.as_bytes().get(self.pos).copied()
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
            Some(b) => Err(format!(
                "expected `{}`, found `{}`",
                want as char, b as char
            )),
            None => Err(format!("expected `{}`, found end of input", want as char)),
        }
    }

    fn value(&mut self) -> Result<Scalar, String> {
        match self.peek() {
            Some(b'"') => Ok(Scalar::Str(self.string()?)),
            Some(b't') => self.literal("true", Scalar::Bool(true)),
            Some(b'f') => self.literal("false", Scalar::Bool(false)),
            Some(b'n') => self.literal("null", Scalar::Null),
            Some(b'{' | b'[') => Err("nested containers are not valid journal values".into()),
            Some(_) => self.number(),
            None => Err("expected a value, found end of input".into()),
        }
    }

    fn literal(&mut self, lit: &str, v: Scalar) -> Result<Scalar, String> {
        if self.line.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal (expected `{lit}`)"))
        }
    }

    fn number(&mut self) -> Result<Scalar, String> {
        let start = self.pos;
        let mut digits_only = true;
        let mut int = 0u64;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => int = int.wrapping_mul(10).wrapping_add(u64::from(b - b'0')),
                b'-' | b'+' | b'.' | b'e' | b'E' => digits_only = false,
                _ => break,
            }
            self.pos += 1;
        }
        // Up to 15 digits is below 2^53: `int` did not wrap and
        // converts exactly, which is what the correctly rounded parse
        // of the same digits returns.
        if digits_only && (1..=15).contains(&(self.pos - start)) {
            return Ok(Scalar::Num(int as f64));
        }
        // The charset above is ASCII, so both ends are char boundaries.
        let text = &self.line[start..self.pos];
        let v: f64 = text
            .parse()
            .map_err(|_| format!("unparseable number `{text}`"))?;
        if !v.is_finite() {
            return Err(format!("non-finite number `{text}`"));
        }
        Ok(Scalar::Num(v))
    }

    /// Validates one string in place: every escape well-formed, no raw
    /// control character. (`line` is a `str`, so multi-byte sequences
    /// are whole already and none of their bytes is below 0x80.)
    fn string(&mut self) -> Result<Span, String> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut escaped = false;
        loop {
            match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(Span::new(start, self.pos - 1, escaped)),
                Some(b'\\') => {
                    escaped = true;
                    match self.next() {
                        Some(b'"' | b'\\' | b'/' | b'n' | b'r' | b't' | b'b' | b'f') => {}
                        Some(b'u') => {
                            let hex = self
                                .line
                                .as_bytes()
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            decode_hex4(hex)?;
                            self.pos += 4;
                        }
                        Some(c) => return Err(format!("bad escape `\\{}`", c as char)),
                        None => return Err("unterminated escape".into()),
                    }
                }
                Some(b) if b < 0x20 => return Err("raw control character in string".into()),
                Some(_) => {}
            }
        }
    }
}

/// The character a `\uXXXX` escape's four bytes name. Each byte must be
/// an ASCII hex digit: `u32::from_str_radix` would also take a leading
/// `+`. The journal only escapes control characters, which are never
/// surrogates, so a surrogate half is refused rather than paired.
fn decode_hex4(hex: &[u8]) -> Result<char, &'static str> {
    let code = hex
        .iter()
        .try_fold(0, |code, &b| Some(code * 16 + char::from(b).to_digit(16)?))
        .ok_or("bad \\u escape digits")?;
    char::from_u32(code).ok_or("invalid \\u code point")
}

/// Unwinds the escapes of a string body [`walk_object`] accepted.
fn unescape(body: &str) -> String {
    let mut out = String::with_capacity(body.len());
    let mut rest = body;
    while let Some(i) = rest.find('\\') {
        out.push_str(&rest[..i]);
        let bytes = rest.as_bytes();
        let (c, used) = match bytes.get(i + 1) {
            Some(b'n') => ('\n', 2),
            Some(b'r') => ('\r', 2),
            Some(b't') => ('\t', 2),
            Some(b'b') => ('\u{8}', 2),
            Some(b'f') => ('\u{c}', 2),
            Some(b'u') => (
                bytes
                    .get(i + 2..i + 6)
                    .and_then(|hex| decode_hex4(hex).ok())
                    .unwrap_or(char::REPLACEMENT_CHARACTER),
                6,
            ),
            // `"`, `\` and `/` stand for themselves.
            Some(&b) => (char::from(b), 2),
            None => (char::REPLACEMENT_CHARACTER, 1),
        };
        out.push(c);
        rest = rest.get(i + used..).unwrap_or("");
    }
    out.push_str(rest);
    out
}

/// The allocating DOM parser this module used to be, kept as the
/// reference [`walk_object`] is tested against: same grammar, same
/// accept/reject set, same error texts.
#[cfg(test)]
pub(crate) mod oracle {
    /// A parsed JSON scalar.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) enum JsonValue {
        Null,
        Bool(bool),
        Num(f64),
        /// String (unescaped).
        Str(String),
    }

    /// Parses one flat JSON object into `(key, value)` pairs in document
    /// order. Duplicate keys are kept.
    pub(crate) fn parse_object(src: &str) -> Result<Vec<(String, JsonValue)>, String> {
        let mut p = Parser {
            bytes: src.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        p.expect(b'{')?;
        let mut out = Vec::new();
        p.skip_ws();
        if p.peek() == Some(b'}') {
            p.pos += 1;
        } else {
            loop {
                p.skip_ws();
                let key = p.parse_string()?;
                p.skip_ws();
                p.expect(b':')?;
                p.skip_ws();
                let value = p.parse_value()?;
                out.push((key, value));
                p.skip_ws();
                match p.next() {
                    Some(b',') => continue,
                    Some(b'}') => break,
                    Some(c) => return Err(format!("expected `,` or `}}`, found `{}`", c as char)),
                    None => return Err("unterminated object".into()),
                }
            }
        }
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err("trailing bytes after object".into());
        }
        Ok(out)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
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
                Some(b) => Err(format!(
                    "expected `{}`, found `{}`",
                    want as char, b as char
                )),
                None => Err(format!("expected `{}`, found end of input", want as char)),
            }
        }

        fn parse_value(&mut self) -> Result<JsonValue, String> {
            match self.peek() {
                Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
                Some(b't') => self.parse_lit("true", JsonValue::Bool(true)),
                Some(b'f') => self.parse_lit("false", JsonValue::Bool(false)),
                Some(b'n') => self.parse_lit("null", JsonValue::Null),
                Some(b'{' | b'[') => Err("nested containers are not valid journal values".into()),
                Some(_) => self.parse_number(),
                None => Err("expected a value, found end of input".into()),
            }
        }

        fn parse_lit(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(v)
            } else {
                Err(format!("bad literal (expected `{lit}`)"))
            }
        }

        fn parse_number(&mut self) -> Result<JsonValue, String> {
            let start = self.pos;
            while matches!(
                self.peek(),
                Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            ) {
                self.pos += 1;
            }
            let text =
                std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "bad utf-8")?;
            let v: f64 = text
                .parse()
                .map_err(|_| format!("unparseable number `{text}`"))?;
            if !v.is_finite() {
                return Err(format!("non-finite number `{text}`"));
            }
            Ok(JsonValue::Num(v))
        }

        fn parse_string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.next() {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => return Ok(out),
                    Some(b'\\') => match self.next() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = &self.bytes[self.pos..self.pos + 4];
                            if !hex.iter().all(u8::is_ascii_hexdigit) {
                                return Err("bad \\u escape digits".into());
                            }
                            let hex = std::str::from_utf8(hex).expect("ASCII");
                            let code = u32::from_str_radix(hex, 16).expect("hex digits");
                            self.pos += 4;
                            out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                        }
                        Some(c) => return Err(format!("bad escape `\\{}`", c as char)),
                        None => return Err("unterminated escape".into()),
                    },
                    Some(b) if b < 0x20 => return Err("raw control character in string".into()),
                    Some(b) => {
                        // Re-assemble UTF-8 multibyte sequences byte-wise.
                        let len = match b {
                            0x00..=0x7F => 1,
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            _ => 4,
                        };
                        let start = self.pos - 1;
                        if start + len > self.bytes.len() {
                            return Err("truncated utf-8 sequence".into());
                        }
                        let s = std::str::from_utf8(&self.bytes[start..start + len])
                            .map_err(|_| "bad utf-8 sequence")?;
                        out.push_str(s);
                        self.pos = start + len;
                    }
                }
            }
        }
    }

    /// A walked value in the oracle's shape.
    pub(crate) fn dom_value(value: super::Scalar, line: &str) -> JsonValue {
        use super::Scalar;
        match value {
            Scalar::Null => JsonValue::Null,
            Scalar::Bool(b) => JsonValue::Bool(b),
            Scalar::Num(v) => JsonValue::Num(v),
            Scalar::Str(s) => JsonValue::Str(s.text(line).into_owned()),
        }
    }

    /// What [`super::walk_object`] reports, gathered into the oracle's
    /// shape so the two can be compared.
    pub(crate) fn walk_to_dom(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
        let mut out = Vec::new();
        super::walk_object(line, |key, value| {
            out.push((key.text(line).into_owned(), dom_value(value, line)));
        })?;
        Ok(out)
    }

    /// `==` on two parse results, except that numbers must agree bit
    /// for bit (`-0.0` is not `0.0` here).
    pub(crate) fn same(
        a: &Result<Vec<(String, JsonValue)>, String>,
        b: &Result<Vec<(String, JsonValue)>, String>,
    ) -> bool {
        match (a, b) {
            (Ok(a), Ok(b)) => {
                a.len() == b.len()
                    && a.iter().zip(b).all(|((ka, va), (kb, vb))| {
                        ka == kb
                            && match (va, vb) {
                                (JsonValue::Num(x), JsonValue::Num(y)) => {
                                    x.to_bits() == y.to_bits()
                                }
                                _ => va == vb,
                            }
                    })
            }
            (Err(a), Err(b)) => a == b,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{parse_object, same, walk_to_dom, JsonValue};

    /// Parses with the walker, after checking that the oracle agrees.
    fn parse(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
        let got = walk_to_dom(line);
        let want = parse_object(line);
        assert!(
            same(&got, &want),
            "{line:?}: walker {got:?}, oracle {want:?}"
        );
        got
    }

    #[test]
    fn parses_journal_shaped_objects() {
        let fields = parse(
            r#"{"v":1,"period":3,"t_s":12.5,"kind":"tier_change","from":0,"to":1,"reason":"stale_meter","ok":true,"bad":null}"#,
        )
        .unwrap();
        let get = |k: &str| fields.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        assert_eq!(get("v"), Some(&JsonValue::Num(1.0)));
        assert_eq!(get("t_s"), Some(&JsonValue::Num(12.5)));
        assert_eq!(get("reason"), Some(&JsonValue::Str("stale_meter".into())));
        assert_eq!(get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(get("bad"), Some(&JsonValue::Null));
        assert_eq!(parse("{}").unwrap().len(), 0);
        assert_eq!(parse(" { \"a\" : 1 , \"a\" : 2 } ").unwrap().len(), 2);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for &x in &[
            441.348_230_213_280_5_f64,
            0.995_229_017_143_9,
            -1.5e-300,
            9.007_199_254_740_992e15,
            999_999_999_999_999.0,
            1_000_000_000_000_000.0,
            0.0,
        ] {
            let fields = parse(&format!("{{\"x\":{x}}}")).unwrap();
            assert_eq!(fields[0].1, JsonValue::Num(x));
        }
        // Digit runs on both sides of the integer short cut, spelled
        // the ways `str::parse` accepts.
        for text in [
            "007",
            "000000000000000",
            "0000000000000001",
            "123456789012345",
            "1234567890123456",
            "9007199254740993",
            "9999999999999999",
            "18446744073709551616",
            "-0",
            "+7",
            "1.",
            ".5",
            "1e3",
        ] {
            let fields = parse(&format!("{{\"x\":{text}}}")).unwrap();
            let want: f64 = text.parse().unwrap();
            assert_eq!(fields[0].1, JsonValue::Num(want), "{text}");
        }
    }

    #[test]
    fn rejects_torn_and_nested_input() {
        for bad in [
            r#"{"v":1,"per"#,
            r#"{"v":1}extra"#,
            r#"{"v":[1]}"#,
            r#"{"v":{"x":1}}"#,
            "",
            r#"{"v":1e999}"#,
            r#"{"v":-}"#,
            r#"{"v":x}"#,
            r#"{"v":nul}"#,
            r#"{"v":"a\qb"}"#,
            r#"{"v":"\ud800"}"#,
            r#"{"v":"\u12"#,
            r#"{"v":"\u12é"}"#,
            "{\"v\":\"a\tb\"}",
            "{\"v\":\"a\u{1f}b\"}",
            "{\"v\":\"a\u{0}b\"}",
            "{\"a\u{10}\":1}",
            r#"{"v":1,}"#,
            r#"{"v" 1}"#,
            r#"{"v":1 "w":2}"#,
            "é",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn hex_escapes_take_exactly_four_hex_digits() {
        // `u32::from_str_radix` accepts a leading sign; JSON does not.
        for bad in [
            r#"{"v":"\u+041"}"#,
            r#"{"v":"\u-041"}"#,
            r#"{"v":"\u 041"}"#,
        ] {
            assert_eq!(parse(bad).unwrap_err(), "bad \\u escape digits", "{bad}");
        }
    }

    #[test]
    fn escapes_unwind() {
        let fields = parse(r#"{"msg":"a\"b\\c\nd\/e\u0041\u00e9\b\f\r\té"}"#).unwrap();
        assert_eq!(
            fields[0].1,
            JsonValue::Str("a\"b\\c\nd/eA\u{e9}\u{8}\u{c}\r\té".into())
        );
        // Keys unwind too.
        let fields = parse(r#"{"k\"":1}"#).unwrap();
        assert_eq!(fields[0].0, "k\"");
    }
}
