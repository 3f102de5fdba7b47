//! The journal's wire format, both ways: the renderer's scalar
//! spellings and the flat-object field walker that reads them back.
//!
//! A record is one flat JSON object of numbers, booleans, strings and
//! `null`; [`walk_object`] accepts exactly that (a nested container is
//! corruption, or a future schema the reader must not guess at), in one
//! pass. The walker itself allocates nothing but an error's text: it
//! hands each field over as a key [`Span`] and a [`Scalar`] that point
//! into the line, skips string bodies eight bytes at a time, and takes a
//! number's charset run before converting it. What a decoded record
//! allocates is `Event::parse`'s affair (the record's own text, never a
//! field table; see `journal::Fields`). Numbers round-trip exactly:
//! [`push_json_f64`] spells a float as its shortest round trip and
//! `str::parse::<f64>` is correctly rounded, which is what lets recovery
//! rebuild the *identical* model the dead daemon ran. (Runs of at most
//! 15 digits skip `str::parse`: below 2^53 the conversion is exact.) A
//! `period` record's target list is read by the same number rule
//! ([`number_list`]).

use std::borrow::Cow;
use std::fmt::Write as _;

/// JSON-compatible float rendering, the journal's one float spelling:
/// the digits of Rust's `{}` (shortest round trip, no exponent), except
/// that `-0.0` is `0` and non-finite values — which valid events never
/// carry — degrade to `null`.
///
/// Integral values below 10^15 are rendered as integers. A normal value
/// below 2^54 whose multiplier `5^i` fits a `u128` (`i <= 55`, which
/// holds down to about 1e-38) takes a Ryu-style shortest-digit path with
/// exact 192-bit products; everything else falls back to `{}`. Like std,
/// and unlike Ryu, a tie between two shortest candidates rounds half
/// *up*.
pub fn push_json_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let int = v as i64;
    if v.abs() < 1e15 && int as f64 == v {
        if int < 0 {
            out.push('-');
        }
        return push_u64(out, int.unsigned_abs());
    }
    match shortest(v.abs().to_bits()) {
        Some((digits, exp10)) => push_decimal(out, v < 0.0, digits, exp10),
        None => {
            let _ = write!(out, "{v}");
        }
    }
}

/// `5^i` for every `i` whose power fits a `u128`: the only table the
/// shortest-digit path uses.
const POW5: [u128; 56] = {
    let mut t = [1u128; 56];
    let mut i = 1;
    while i < t.len() {
        t[i] = t[i - 1] * 5;
        i += 1;
    }
    t
};

/// `floor(log10(5^e))`, exact for `e <= 2620`.
fn log10_pow5(e: u32) -> u32 {
    (e * 732_923) >> 20
}

/// `floor(m * p / 2^q)`, with the product formed exactly in 192 bits.
/// The caller guarantees the quotient fits a `u64`.
fn mul_shift(m: u64, p: u128, q: u32) -> u64 {
    let m = u128::from(m);
    let lo = m * u128::from(p as u64);
    let hi = m * (p >> 64);
    // product = top * 2^64 + bottom
    let top = hi + (lo >> 64);
    let bottom = lo as u64;
    if q < 64 {
        ((top << (64 - q)) | u128::from(bottom >> q)) as u64
    } else {
        (top >> (q - 64)) as u64
    }
}

/// Shortest round-trip decimal of the positive finite `f64` with bits
/// `bits`, as `(digits, exp10)` meaning `digits * 10^exp10`: the fewest
/// digits that parse back to the same value, and of those the closest to
/// it, a tie rounding up. `None` for zero, subnormals, values of 2^54 and
/// above, and values so small that `5^i` overflows the table.
///
/// This is Ryu's `e2 < 0` branch (Adams, PLDI 2018) with its truncated
/// 5^-k table replaced by exact products, and without its round-half-even
/// rule, which std does not share.
fn shortest(bits: u64) -> Option<(u64, i32)> {
    let mant = bits & ((1 << 52) - 1);
    let exp = (bits >> 52) as u32;
    // Biased exponents 1077 and up are values of 2^54 and above.
    if exp == 0 || exp >= 1077 {
        return None;
    }
    // value = mv * 2^-k, with the interval of values that round to it
    // being (mm, mp) * 2^-k, inclusive when the mantissa is even.
    let k = 1077 - exp;
    let q = log10_pow5(k) - u32::from(k > 1);
    let p5 = *POW5.get((k - q) as usize)?;
    let m2 = mant | 1 << 52;
    let even = m2 & 1 == 0;
    let mv = 4 * m2;
    let mp = mv + 2;
    let mm = mv - 1 - u64::from(mant != 0 || exp <= 1);
    // v* = m* * 10^(k-q) / 2^k = m* * 5^(k-q) / 2^q, floored. 5^(k-q) is
    // odd, so a quotient is exact iff 2^q divides its m*.
    let mut vr = mul_shift(mv, p5, q);
    let mut vp = mul_shift(mp, p5, q) - u64::from(!even && mp.trailing_zeros() >= q);
    let mut vm = mul_shift(mm, p5, q);
    let mut vm_exact = mm.trailing_zeros() >= q;
    let mut removed = 0i32;
    let digits = if vm_exact {
        // The lower bound itself may be the answer: track whether the
        // digits removed from vm are all zeros.
        let mut last = 0;
        while vp / 10 > vm / 10 {
            vm_exact &= vm.is_multiple_of(10);
            last = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_exact {
            while vm.is_multiple_of(10) {
                last = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        vr + u64::from((vr == vm && (!even || !vm_exact)) || last >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    Some((digits, q as i32 - k as i32 + removed))
}

/// Writes `x`'s decimal digits into `buf` ending at `end`, returning
/// where they start. Four-digit limbs are split off first, so only the
/// divisions by 10^4 form a dependency chain.
fn digits_into(buf: &mut [u8], mut end: usize, mut x: u64) -> usize {
    while x >= 10_000 {
        let limb = (x % 10_000) as u32;
        x /= 10_000;
        let (hi, lo) = (limb / 100, limb % 100);
        buf[end - 1] = b'0' + (lo % 10) as u8;
        buf[end - 2] = b'0' + (lo / 10) as u8;
        buf[end - 3] = b'0' + (hi % 10) as u8;
        buf[end - 4] = b'0' + (hi / 10) as u8;
        end -= 4;
    }
    let mut x = x as u32;
    loop {
        end -= 1;
        buf[end] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            return end;
        }
    }
}

/// Appends `x` in decimal.
pub(crate) fn push_u64(out: &mut String, x: u64) {
    let mut buf = [0u8; 20];
    let start = digits_into(&mut buf, 20, x);
    out.push_str(std::str::from_utf8(&buf[start..]).expect("ASCII digits"));
}

/// Appends `±digits * 10^exp10` the way `{}` spells it: no exponent, no
/// trailing fractional zeros, a leading `0.` below one.
fn push_decimal(out: &mut String, negative: bool, digits: u64, exp10: i32) {
    // The longest spelling, `-0.` then 38 zeros and 17 digits, fits.
    let mut buf = [b'0'; 64];
    let end = buf.len();
    let mut start = if exp10 >= 0 {
        digits_into(&mut buf, end - exp10 as usize, digits)
    } else {
        let start = digits_into(&mut buf, end, digits);
        let point = end - exp10.unsigned_abs() as usize - 1;
        if start <= point {
            // The integer part moves one byte left, making room.
            buf.copy_within(start..=point, start - 1);
            buf[point] = b'.';
            start - 1
        } else {
            buf[point] = b'.';
            point - 1
        }
    };
    if negative {
        start -= 1;
        buf[start] = b'-';
    }
    out.push_str(std::str::from_utf8(&buf[start..]).expect("ASCII digits"));
}

/// Appends `s` with `"`, `\` and control characters escaped. Most
/// journal strings need none of that and are copied whole.
pub(crate) fn push_json_escaped(out: &mut String, s: &str) {
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        return;
    }
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
}

/// A string body (between the quotes) in the line [`walk_object`]
/// validated, and whether it has escapes. Meaningful only with that line.
///
/// Two words: the escape flag is the top bit of `end`, which a byte
/// offset into a `str` (shorter than `isize::MAX`) never sets. A `bool`
/// field would give the enums that hold a `Span` a spare byte to keep
/// their tag in, written a byte at a time and then read back a word at a
/// time, which stalls the read until the byte's store retires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Span {
    start: usize,
    end: usize,
}

impl Span {
    const ESCAPED: usize = 1 << (usize::BITS - 1);

    fn escaped(self) -> bool {
        self.end & Self::ESCAPED != 0
    }

    /// The body as it sits in `line`, escapes and all.
    fn raw(self, line: &str) -> &str {
        &line[self.start..self.end & !Self::ESCAPED]
    }

    /// The string's text: borrowed from `line` unless the body has
    /// escapes to unwind.
    pub(crate) fn text(self, line: &str) -> Cow<'_, str> {
        if self.escaped() {
            Cow::Owned(unescape(self.raw(line)))
        } else {
            Cow::Borrowed(self.raw(line))
        }
    }

    /// The string's text as bytes to match on: the body as it sits in
    /// `line` when it has no escapes, which is every key this build's
    /// writer spells. Inlined for [`Span::is`].
    #[inline(always)]
    pub(crate) fn bytes(self, line: &str) -> Cow<'_, [u8]> {
        if self.escaped() {
            Cow::Owned(unescape(self.raw(line)).into_bytes())
        } else {
            Cow::Borrowed(&line.as_bytes()[self.start..self.end])
        }
    }

    /// Whether the string's text is `want`. Inlined, so that a constant
    /// `want` is compared in place rather than by a call to `bcmp`.
    #[inline(always)]
    pub(crate) fn is(self, want: &str, line: &str) -> bool {
        *self.bytes(line) == *want.as_bytes()
    }
}

/// One field value as it sits in the line; a number is held as `f64`,
/// exact for integers up to 2^53.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) enum Scalar {
    #[default]
    Null,
    Bool(bool),
    Num(f64),
    Str(Span),
}

/// Validates `line` as one flat JSON object and calls `field` with
/// every `(key, value)` pair in document order. Duplicate keys are all
/// reported (callers use first-wins lookups). `field` may have been
/// called for leading pairs when an error is returned.
pub(crate) fn walk_object(line: &str, mut field: impl FnMut(Span, Scalar)) -> Result<(), String> {
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
            // Each arm builds its value where it is known: a `Result` of
            // one passed up from a helper goes through memory, and is read
            // back as the note on `Span` describes.
            let value = match w.peek() {
                Some(b'"') => Scalar::Str(w.string()?),
                Some(b't') => w.literal("true", Scalar::Bool(true))?,
                Some(b'f') => w.literal("false", Scalar::Bool(false))?,
                Some(b'n') => w.literal("null", Scalar::Null)?,
                Some(b'{' | b'[') => {
                    return Err("nested containers are not valid journal values".into())
                }
                Some(_) => Scalar::Num(w.number()?),
                None => return Err("expected a value, found end of input".into()),
            };
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

/// The journal's number rule, for `text` a run of the number charset
/// (`0-9 + - . e E`): a run of 1 to 15 digits is below 2^53 and converts
/// exactly, which is what the correctly rounded parse of the same digits
/// returns; anything else is `str::parse::<f64>`, and must be finite.
/// Inlined into both callers, which read its `Result` at once.
#[inline(always)]
fn number_value(text: &str) -> Result<f64, String> {
    let digits = text.as_bytes();
    if (1..=15).contains(&digits.len()) && digits.iter().all(u8::is_ascii_digit) {
        let int = digits
            .iter()
            .fold(0u64, |int, b| 10 * int + u64::from(b - b'0'));
        return Ok(int as f64);
    }
    let v: f64 = text
        .parse()
        .map_err(|_| format!("unparseable number `{text}`"))?;
    if !v.is_finite() {
        return Err(format!("non-finite number `{text}`"));
    }
    Ok(v)
}

/// The length of the number-charset run `bytes` starts with.
fn number_len(bytes: &[u8]) -> usize {
    bytes
        .iter()
        .position(|b| !matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        .unwrap_or(bytes.len())
}

/// Reads `text` as a comma-joined list of numbers, each by the rule
/// [`walk_object`] reads a number value with (the charset run, then
/// [`number_value`]), and hands them to `each` in order. `false` at the
/// first element that is not one (`each` has then had the elements
/// before it): an empty element, a byte outside the number charset, a
/// spelling `str::parse` refuses, or a value that is not finite.
pub(crate) fn number_list(text: &str, mut each: impl FnMut(f64)) -> bool {
    let mut at = 0;
    loop {
        let len = number_len(&text.as_bytes()[at..]);
        match number_value(&text[at..at + len]) {
            Ok(v) => each(v),
            Err(_) => return false,
        }
        at += len;
        match text.as_bytes().get(at) {
            None => return true,
            Some(b',') => at += 1,
            Some(_) => return false,
        }
    }
}

/// Index of the first byte of `bytes` that ends a plain run of string
/// body — `"`, `\` or a control character (below 0x20) — or its length,
/// eight bytes at a time.
fn string_stop(bytes: &[u8]) -> usize {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    const QUOTES: u64 = u64::from_le_bytes([b'"'; 8]);
    const BACKSLASHES: u64 = u64::from_le_bytes([b'\\'; 8]);
    const SPACES: u64 = u64::from_le_bytes([0x20; 8]);
    let mut words = bytes.chunks_exact(8);
    for (i, w) in (&mut words).enumerate() {
        let x = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
        let (q, s) = (x ^ QUOTES, x ^ BACKSLASHES);
        // Each term marks the bytes of `x` that are a `"`, a `\` or below
        // 0x20 (none at or above 0x80: `!` clears those). A borrow can
        // also mark a byte above a true mark of its own term, never one
        // below it, so the lowest mark of the three is the first stop.
        let marks =
            (q.wrapping_sub(ONES) & !q | s.wrapping_sub(ONES) & !s | x.wrapping_sub(SPACES) & !x)
                & HIGHS;
        if marks != 0 {
            return 8 * i + marks.trailing_zeros() as usize / 8;
        }
    }
    let done = bytes.len() - words.remainder().len();
    words
        .remainder()
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        .map_or(bytes.len(), |j| done + j)
}

struct Walker<'a> {
    line: &'a str,
    pos: usize,
}

// `number` and `string` are inlined into `walk_object`: a call passes
// the `Result` back through memory a word at a time, and the caller's
// wider read of it then waits for those stores to retire.
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

    fn literal(&mut self, lit: &str, v: Scalar) -> Result<Scalar, String> {
        if self.line.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal (expected `{lit}`)"))
        }
    }

    #[inline(always)]
    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        self.pos += number_len(&self.line.as_bytes()[start..]);
        // The charset is ASCII, so both ends are char boundaries.
        number_value(&self.line[start..self.pos])
    }

    /// Validates one string in place: every escape well-formed, no raw
    /// control character. (`line` is a `str`, so multi-byte sequences
    /// are whole already and none of their bytes is below 0x80.) Runs of
    /// plain bytes are skipped a word at a time.
    #[inline(always)]
    fn string(&mut self) -> Result<Span, String> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut escaped = false;
        loop {
            self.pos += string_stop(&self.line.as_bytes()[self.pos..]);
            match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    let end = self.pos - 1;
                    return Ok(Span {
                        start,
                        end: if escaped { end | Span::ESCAPED } else { end },
                    });
                }
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
                // `string_stop` stops at nothing else.
                Some(_) => return Err("raw control character in string".into()),
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

#[cfg(test)]
/// The allocating DOM parser the walker replaced, kept as the reference
/// [`walk_object`] is tested against: same grammar, same accept/reject
/// set, same error texts.
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
    use crate::journal::tests::Rng;
    use crate::journal::{Body, Event};
    use proptest::prelude::*;

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

    /// The walker skips string bodies and number runs a word at a time:
    /// every byte that ends one, at every offset of the first two words
    /// and the first byte past them, followed by nothing or by more than
    /// a word, gets the oracle's verdict, error text and numbers.
    #[test]
    fn special_bytes_at_every_offset_agree_with_the_oracle() {
        // Whole characters only (a line is a `str`): a multi-byte one
        // placed with its first byte, and then its last, at the offset.
        let specials = [
            "\"", "\\", "\u{0}", "\u{1f}", " ", "\u{7f}", "é", "电", "😀", ".", "e", "E", "+", "-",
            "x",
        ];
        let mut lines = 0;
        for special in specials {
            let starts = [0, special.len() - 1];
            for (k, back) in (0..=16usize).flat_map(|k| starts.map(|b| (k, b))) {
                let Some(pad) = k.checked_sub(back) else {
                    continue;
                };
                for tail in ["", "bbbbbbbbb"] {
                    // In mid-object a word of line follows the body;
                    // last, two bytes do, which the word-wide scan leaves
                    // to its byte loop.
                    let body = format!("{}{special}{tail}", "a".repeat(pad));
                    parse(&format!("{{\"k\":\"{body}\",\"n\":1}}")).ok();
                    parse(&format!("{{\"n\":1,\"k\":\"{body}\"}}")).ok();
                    // Nines: a run of 16 or more is past 2^53.
                    let digits =
                        format!("{}{special}{}", "9".repeat(pad), &"234567890"[..tail.len()]);
                    parse(&format!("{{\"k\":{digits}}}")).ok();
                    parse(&format!("{{\"k\":{digits},\"n\":1}}")).ok();
                    lines += 4;
                }
            }
        }
        assert!(lines > 1000, "{lines}");
    }

    /// One byte replaced, inserted or removed, or the line cut short.
    fn mutate(line: &str, rng: &mut Rng) -> String {
        const BYTES: &[u8] = b"\"\\{}[],:.-+eEun0179 \n\t\x00\x1f\x7f\xc3\xa9\xff";
        let mut bytes = line.as_bytes().to_vec();
        let at = rng.below(bytes.len().max(1));
        match rng.below(4) {
            0 if !bytes.is_empty() => bytes[at] = rng.pick(BYTES),
            1 => bytes.insert(at, rng.pick(BYTES)),
            2 if !bytes.is_empty() => drop(bytes.remove(at)),
            _ => bytes.truncate(at),
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    fn arbitrary_line(rng: &mut Rng) -> String {
        const PIECES: [&str; 24] = [
            "{",
            "}",
            "\"",
            ":",
            ",",
            " ",
            "\\",
            "\\u",
            "00e9",
            "[",
            "]",
            "v",
            "kind",
            "period",
            "t_s",
            "1",
            "-1.5e-300",
            "9007199254740992",
            "null",
            "true",
            "false",
            "é",
            "\n",
            "x",
        ];
        (0..rng.below(30)).map(|_| rng.pick(&PIECES)).collect()
    }

    #[test]
    fn pinned_lines_agree_with_the_oracle() {
        for line in [
            r#"{"v":1,"period":0,"t_s":0,"kind":"k","x":null,"y":-1.5e-300,"z":9007199254740992}"#,
            r#"{"v":1,"period":0,"t_s":0,"kind":"k","s":"é\u0000é电😀\"\\\/"}"#,
            r#"{"v":1,"v":2,"period":1,"period":"x","t_s":2,"t_s":null,"kind":"a","kind":7}"#,
            r#"{"v":1,"period":4,"t_s":0,"kind":"segment_seal","x":1}"#,
            r#"{"v":1,"period":18446744073709551616,"t_s":0,"kind":"k"}"#,
            r#"{"v":1,"period":0,"t_s":1e999,"kind":"k"}"#,
            "{\"v\":1,\"period\":0,\"t_s\":0,\"kind\":\"k\"}\u{e9}",
            "{\"v\":1\u{e9}",
            "{\"v\":1,\"period\":0,\"t_s\":0,\"kind\":\"k\",\"s\":\"a\u{7f}b\"}",
            "{}",
            "",
        ] {
            parse(line).ok();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The walker against the DOM parser on every rendered record
        /// kind, on one-byte mutations of those lines and on random
        /// token soup: same verdict, same error text, every key and
        /// value equal (numbers bit for bit).
        #[test]
        fn walker_agrees_with_the_dom_oracle(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            for body in Body::every_variant(&mut rng) {
                let line = Event { period: rng.next() >> 11, sim_time_s: 0.5, wall_unix_ms: None, body }.to_json();
                prop_assert!(parse_object(&line).is_ok(), "{line}");
                for candidate in [mutate(&line, &mut rng), arbitrary_line(&mut rng), line] {
                    let (got, want) = (walk_to_dom(&candidate), parse_object(&candidate));
                    prop_assert!(same(&got, &want), "{candidate:?}: walker {got:?}, oracle {want:?}");
                }
            }
        }
    }
}
