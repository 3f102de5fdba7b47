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
    /// Signed integer.
    I64(i64),
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

    /// Attach a signed-integer field.
    pub fn i64(mut self, key: &'static str, v: i64) -> Self {
        self.fields.push((key, Value::I64(v)));
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
    /// events reuses one buffer.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"v\":{},\"period\":{},\"t_s\":",
            SCHEMA_VERSION, self.period
        );
        push_json_f64(out, self.sim_time_s);
        let _ = write!(out, ",\"kind\":\"{}\"", self.kind);
        if let Some(ms) = self.wall_unix_ms {
            let _ = write!(out, ",\"wall_ms\":{ms}");
        }
        for (k, v) in &self.fields {
            let _ = write!(out, ",\"{k}\":");
            match v {
                Value::U64(x) => {
                    let _ = write!(out, "{x}");
                }
                Value::I64(x) => {
                    let _ = write!(out, "{x}");
                }
                Value::F64(x) => push_json_f64(out, *x),
                Value::Bool(x) => {
                    let _ = write!(out, "{x}");
                }
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

/// JSON-compatible float rendering: integral values stay integral
/// (JSON has no distinct int type, so `48` parses fine as a number),
/// non-finite values — which valid events never carry — degrade to
/// `null`.
fn push_json_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
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
            .i64("i", i64::MIN)
            .f64("int", 48.0)
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
            "\"i\":-9223372036854775808,\"int\":48,\"neg_zero\":0,",
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
