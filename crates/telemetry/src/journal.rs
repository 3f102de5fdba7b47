//! Structured event journal for discrete control-plane events.
//!
//! The journal records *what happened and when on the sim clock* —
//! supervisor tier changes, device quarantines, fault onsets/clears,
//! SLO-bound activations, RLS refit pushes, delta-sigma carry wraps —
//! as ordered [`Event`]s rendered to JSON Lines. Because every field is
//! derived from the seeded simulation (period index, sim seconds,
//! watts), the JSONL output is byte-identical across reruns and safe to
//! commit as a golden.

use std::fmt::Write as _;

/// Journal schema version, rendered as the leading `"v"` field of every
/// JSONL record. Bump the value on any change a version-1 reader would
/// misinterpret (renamed fields, changed units, re-keyed kinds);
/// readers (`capgpu-obs`) reject records whose version they do not
/// understand rather than guessing. Purely additive fields do **not**
/// require a bump — readers ignore keys they do not know.
pub const SCHEMA_VERSION: u32 = 1;

/// A journal field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Float (rendered with Rust's shortest-roundtrip formatting).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String (JSON-escaped on render).
    Str(String),
}

/// One discrete event, stamped with the deterministic sim clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Control period index at which the event fired.
    pub period: u64,
    /// Sim time in seconds.
    pub sim_time_s: f64,
    /// Wall-clock stamp (Unix milliseconds) for events produced by a
    /// live backend; `None` in simulation, where stamping wall time
    /// would break byte-identical reruns. Rendered as a `wall_ms` field
    /// only when present, so sim-mode JSONL output is unchanged.
    pub wall_unix_ms: Option<u64>,
    /// Event kind, e.g. `"tier_change"` or `"fault_onset"`.
    pub kind: &'static str,
    /// Additional key/value fields, in insertion order.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// A new event with no extra fields.
    pub fn new(period: u64, sim_time_s: f64, kind: &'static str) -> Self {
        Event {
            period,
            sim_time_s,
            wall_unix_ms: None,
            kind,
            fields: Vec::new(),
        }
    }

    /// Stamp the event with a live wall clock (Unix milliseconds).
    /// `None` is a no-op, so callers can pass a backend's
    /// `wall_clock_unix_ms()` straight through: deterministic backends
    /// keep the journal byte-stable, live ones get real timestamps.
    pub fn wall_ms(mut self, unix_ms: Option<u64>) -> Self {
        self.wall_unix_ms = unix_ms;
        self
    }

    /// Attach an unsigned-integer field.
    pub fn u64(mut self, key: &'static str, v: u64) -> Self {
        self.fields.push((key, Value::U64(v)));
        self
    }

    /// Attach a float field.
    pub fn f64(mut self, key: &'static str, v: f64) -> Self {
        self.fields.push((key, Value::F64(v)));
        self
    }

    /// Attach a boolean field.
    pub fn bool(mut self, key: &'static str, v: bool) -> Self {
        self.fields.push((key, Value::Bool(v)));
        self
    }

    /// Attach a string field.
    pub fn str(mut self, key: &'static str, v: &str) -> Self {
        self.fields.push((key, Value::Str(v.to_string())));
        self
    }

    /// Render this event as one JSON object (no trailing newline).
    ///
    /// Keys and the kind are written as they are (they are `'static`
    /// identifiers); string values are JSON-escaped; floats use Rust's
    /// shortest-roundtrip formatting (integral ones without a fraction,
    /// non-finite ones as `null`), so a reader that parses numbers
    /// correctly rounded gets every finite float back bit for bit.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends what [`Event::to_json`] returns to `out`, allocating
    /// nothing beyond `out`'s own growth: a caller that renders many
    /// events reuses one buffer. Literals are pushed whole and integers
    /// rendered by a digit loop; no `core::fmt` machinery runs on the
    /// common path.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"v\":");
        push_u64(out, u64::from(SCHEMA_VERSION));
        out.push_str(",\"period\":");
        push_u64(out, self.period);
        out.push_str(",\"t_s\":");
        push_json_f64(out, self.sim_time_s);
        out.push_str(",\"kind\":\"");
        out.push_str(self.kind);
        out.push('"');
        if let Some(ms) = self.wall_unix_ms {
            out.push_str(",\"wall_ms\":");
            push_u64(out, ms);
        }
        for (k, v) in &self.fields {
            out.push_str(",\"");
            out.push_str(k);
            out.push_str("\":");
            match v {
                Value::U64(x) => push_u64(out, *x),
                Value::F64(x) => push_json_f64(out, *x),
                Value::Bool(x) => out.push_str(if *x { "true" } else { "false" }),
                Value::Str(s) => {
                    out.push('"');
                    push_json_escaped(out, s);
                    out.push('"');
                }
            }
        }
        out.push('}');
    }
}

/// An append-only, sim-clock-ordered event log.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Journal {
    events: Vec<Event>,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Journal::default()
    }

    /// Append an event.
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    /// All recorded events, in append order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of one kind, in append order.
    pub fn of_kind<'a>(&'a self, kind: &str) -> impl Iterator<Item = &'a Event> {
        let kind = kind.to_string();
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Render the whole journal as JSON Lines (one event per line,
    /// trailing newline included when non-empty).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            e.write_json(&mut out);
            out.push('\n');
        }
        out
    }
}

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
        push_i64(out, int);
        return;
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
fn push_u64(out: &mut String, x: u64) {
    let mut buf = [0u8; 20];
    let start = digits_into(&mut buf, 20, x);
    out.push_str(std::str::from_utf8(&buf[start..]).expect("ASCII digits"));
}

/// Appends `x` in decimal.
fn push_i64(out: &mut String, x: i64) {
    if x < 0 {
        out.push('-');
    }
    push_u64(out, x.unsigned_abs());
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
fn push_json_escaped(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_as_jsonl_in_order() {
        let mut j = Journal::new();
        j.push(
            Event::new(3, 12.0, "tier_change")
                .u64("from", 0)
                .u64("to", 1)
                .str("reason", "stale_meter"),
        );
        j.push(
            Event::new(5, 20.0, "quarantine")
                .u64("device", 2)
                .bool("on", true),
        );
        let jsonl = j.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"v\":1,\"period\":3,\"t_s\":12,\"kind\":\"tier_change\",\"from\":0,\"to\":1,\"reason\":\"stale_meter\"}"
        );
        assert_eq!(
            lines[1],
            "{\"v\":1,\"period\":5,\"t_s\":20,\"kind\":\"quarantine\",\"device\":2,\"on\":true}"
        );
        assert_eq!(j.of_kind("tier_change").count(), 1);
    }

    #[test]
    fn wall_clock_stamp_is_opt_in() {
        // Sim mode: no stamp, rendering unchanged.
        let sim = Event::new(1, 4.0, "period").wall_ms(None);
        assert_eq!(
            sim.to_json(),
            "{\"v\":1,\"period\":1,\"t_s\":4,\"kind\":\"period\"}"
        );
        // Live mode: stamped right after the sim clock.
        let live = Event::new(1, 4.0, "period")
            .wall_ms(Some(1_754_000_000_123))
            .f64("watts", 900.0);
        assert_eq!(
            live.to_json(),
            "{\"v\":1,\"period\":1,\"t_s\":4,\"kind\":\"period\",\"wall_ms\":1754000000123,\"watts\":900}"
        );
    }

    #[test]
    fn json_strings_are_escaped() {
        let e = Event::new(0, 0.5, "note").str("msg", "a\"b\\c\nd");
        assert_eq!(
            e.to_json(),
            "{\"v\":1,\"period\":0,\"t_s\":0.5,\"kind\":\"note\",\"msg\":\"a\\\"b\\\\c\\nd\"}"
        );
    }

    /// The renderer's bytes, pinned: every `Value` arm, the float
    /// spellings, every escape, `wall_ms`. `capgpu-obs` reads these
    /// back; a drift here is a journal format change.
    #[test]
    fn rendering_is_pinned_byte_for_byte() {
        let e = Event::new(u64::MAX, 0.1 + 0.2, "period")
            .wall_ms(Some(0))
            .u64("u", 9_007_199_254_740_993)
            .f64("int", 48.0)
            .f64("neg_int", -48.0)
            .f64("neg_zero", -0.0)
            .f64("big", 1e15)
            .f64("tiny", -1.5e-7)
            .f64("nan", f64::NAN)
            .f64("inf", f64::NEG_INFINITY)
            .bool("b", false)
            .str("plain", "café/电源")
            .str("esc", "\"\\\n\r\t\u{0}\u{8}\u{c}\u{1f}\u{7f}")
            .str("u", "");
        let want = concat!(
            "{\"v\":1,\"period\":18446744073709551615,\"t_s\":0.30000000000000004,",
            "\"kind\":\"period\",\"wall_ms\":0,\"u\":9007199254740993,",
            "\"int\":48,\"neg_int\":-48,\"neg_zero\":0,",
            "\"big\":1000000000000000,\"tiny\":-0.00000015,",
            "\"nan\":null,\"inf\":null,\"b\":false,\"plain\":\"café/电源\",",
            "\"esc\":\"\\\"\\\\\\n\\r\\t\\u0000\\u0008\\u000c\\u001f\u{7f}\",\"u\":\"\"}",
        );
        assert_eq!(e.to_json(), want);
        // `write_json` appends exactly that, keeping what was there.
        let mut buf = String::from("x");
        e.write_json(&mut buf);
        e.write_json(&mut buf);
        assert_eq!(buf, format!("x{want}{want}"));
    }
}
