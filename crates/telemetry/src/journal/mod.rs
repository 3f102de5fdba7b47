//! Structured event journal for discrete control-plane events: *what
//! happened and when on the sim clock*, as ordered [`Event`]s rendered
//! to JSON Lines, byte-identical across reruns of a seeded simulation.
//!
//! The schema is declared once, in the `schema!` table below: every kind
//! with its keys (in rendering order) and their types. The table
//! generates [`Body`], one variant per kind, with its renderer and its
//! decoder ([`Event::write_json`], [`Event::parse`]); a reader that
//! matches [`Body`] exhaustively fails to compile when a kind is added.
//! Decoding follows DESIGN §19: unknown keys are ignored, the first of
//! duplicate keys wins, an unknown kind or a known one missing a
//! required field reads as [`Body::Unknown`], and a `"v"` other than
//! [`SCHEMA_VERSION`] is refused. The private `json` submodule holds the
//! wire format: scalar spellings and the field walker.

mod json;

pub use json::push_json_f64;
use json::{push_json_escaped, push_u64, walk_object, Scalar, Span};
use std::borrow::Cow;
use std::cell::RefCell;

/// Journal schema version, rendered as the leading `"v"` field of every
/// JSONL record. Bump the value on any change a version-1 reader would
/// misinterpret (renamed fields, changed units, re-keyed kinds);
/// readers (`capgpu-obs`) reject records whose version they do not
/// understand rather than guessing. Purely additive fields do **not**
/// require a bump — readers ignore keys they do not know.
pub const SCHEMA_VERSION: u32 = 1;

/// A schema field type: how a value renders after its key, and how the
/// first value under that key reads back. A plain type is required; an
/// `Option` renders only when `Some`, and reads absent or mistyped as `None`.
trait Field: Sized {
    /// Appends `key` (the `,"name":` prefix) and the value; an absent
    /// optional value appends nothing.
    fn write(&self, key: &str, out: &mut String);
    /// The value, or `None` when a required one is absent or mistyped.
    fn read(value: Option<Scalar>, line: &str) -> Option<Self>;
}

/// `Field` for the plain scalars: `$write` spells a value, `$read`
/// maps the scalar found under its key to one.
macro_rules! scalar_fields {
    ($($ty:ty: $write:expr, $read:expr;)*) => {$(
        impl Field for $ty {
            fn write(&self, key: &str, out: &mut String) {
                out.push_str(key);
                $write(out, *self);
            }
            fn read(value: Option<Scalar>, _: &str) -> Option<Self> {
                ($read)(value?)
            }
        }
    )*};
}

scalar_fields! {
    // Exact integers only, up to 2^53, where every integer is an f64.
    // (In that range `v as u64` truncates, so the round trip is exact
    // iff `v` is whole; `fract` would call out to libm's `trunc`.)
    u64: push_u64, |s| match s {
        Scalar::Num(v) if (0.0..=9.007_199_254_740_992e15).contains(&v) && (v as u64) as f64 == v => {
            Some(v as u64)
        }
        _ => None,
    };
    f64: push_json_f64, |s| match s { Scalar::Num(v) => Some(v), _ => None };
    bool: |out: &mut String, b| out.push_str(if b { "true" } else { "false" }),
        |s| match s { Scalar::Bool(b) => Some(b), _ => None };
}

/// Appends `key` and `s` as a JSON string.
fn write_str(key: &str, s: &str, out: &mut String) {
    out.push_str(key);
    out.push('"');
    push_json_escaped(out, s);
    out.push('"');
}

/// The schema's one string type: a writer holding a `&'static str` (a
/// detector, verdict, reason or phase name) passes it borrowed, and
/// allocates nothing for it; the decoder returns it owned.
impl Field for Cow<'static, str> {
    fn write(&self, key: &str, out: &mut String) {
        write_str(key, self, out);
    }
    fn read(value: Option<Scalar>, line: &str) -> Option<Self> {
        match value? {
            Scalar::Str(s) => Some(Cow::Owned(s.text(line).into_owned())),
            _ => None,
        }
    }
}

impl<T: Field> Field for Option<T> {
    fn write(&self, key: &str, out: &mut String) {
        if let Some(v) = self {
            v.write(key, out);
        }
    }
    fn read(value: Option<Scalar>, line: &str) -> Option<Self> {
        Some(T::read(value, line))
    }
}

/// Per-device frequency targets (MHz) as a `period` record carries them:
/// a comma-joined list of [`push_json_f64`] floats in a JSON string,
/// rendered once when the record is built, decoded by [`Targets::decode_into`].
/// The text is held at its exact length: a daemon keeps one per period.
#[derive(Debug, Clone, PartialEq)]
pub struct Targets(Box<str>);

thread_local! {
    /// What [`Targets::new`] and [`Event::to_json`] render into before
    /// copying the text out, so that a warm call allocates only its
    /// result, once, at its exact size.
    static SCRATCH: RefCell<String> = const { RefCell::new(String::new()) };
}

impl Targets {
    /// Renders `mhz`. A non-finite element, which no valid target is, is
    /// spelled `null`, and the list then decodes as malformed.
    pub fn new(mhz: &[f64]) -> Self {
        SCRATCH.with_borrow_mut(|out| {
            out.clear();
            for (i, t) in mhz.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_f64(out, *t);
            }
            Targets(Box::from(out.as_str()))
        })
    }

    /// Appends the list's elements to `out`. On any element that is not
    /// a float, `out` is left as it was and `false` returned: a
    /// half-applied target vector is worse than a stale one.
    pub fn decode_into(&self, out: &mut Vec<f64>) -> bool {
        let before = out.len();
        let whole = self.0.is_empty() || json::number_list(&self.0, |x| out.push(x));
        if !whole {
            out.truncate(before);
        }
        whole
    }
}

impl std::fmt::Display for Targets {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl Field for Targets {
    fn write(&self, key: &str, out: &mut String) {
        write_str(key, &self.0, out);
    }
    fn read(value: Option<Scalar>, line: &str) -> Option<Self> {
        Cow::read(value, line).map(|s| Targets(s.into()))
    }
}

/// Declares the schema: each kind's variant, kind string, and fields in
/// rendering order, each field's key being its name.
macro_rules! schema {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $kind:literal {
            $($(#[$field_doc:meta])* $field:ident: $ty:ty,)*
        }
    )*) => {
        /// What a record says: one variant per kind.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Body {
            $($(#[$doc])* $variant { $($(#[$field_doc])* $field: $ty,)* },)*
            /// A kind this build does not know, or a known kind missing a
            /// required field: replay counts it and otherwise ignores it.
            Unknown {
                /// The record's kind.
                kind: String,
            },
        }

        impl Body {
            /// The record's kind string.
            pub fn kind(&self) -> &str {
                match self {
                    $(Body::$variant { .. } => $kind,)*
                    Body::Unknown { kind } => kind,
                }
            }

            /// Appends every field, in schema order.
            fn write_fields(&self, out: &mut String) {
                match self {
                    $(Body::$variant { $($field,)* } => {
                        $(Field::write($field, concat!(",\"", stringify!($field), "\":"), out);)*
                    })*
                    Body::Unknown { .. } => {}
                }
            }

            /// The variant `kind` names, its fields taken from `fields`;
            /// [`Body::Unknown`] for an unknown kind or a missing
            /// required field.
            fn decode(kind: Cow<'_, str>, fields: &mut Fields, line: &str) -> Body {
                match &*kind {
                    $($kind => {
                        $(let $field = <$ty as Field>::read(fields.take(stringify!($field), line), line);)*
                        if let ($(Some($field),)*) = ($($field,)*) {
                            return Body::$variant { $($field,)* };
                        }
                    })*
                    _ => {}
                }
                Body::Unknown { kind: kind.into_owned() }
            }

            /// One value of every variant, its fields drawn from `rng`.
            #[cfg(test)]
            fn every_variant(rng: &mut tests::Rng) -> Vec<Body> {
                vec![$(Body::$variant { $($field: tests::Arbitrary::arbitrary(rng),)* },)*]
            }
        }
    };
}

schema! {
    /// A device's identified base gain (daemon).
    ModelGain = "model_gain" {
        #[doc = "Device index."] device: u64,
        #[doc = "Fitted gain (W/MHz)."] w_per_mhz: f64,
    }
    /// Identification finished (daemon).
    Identified = "identified" {
        #[doc = "Excitation points fitted."] points: u64,
        #[doc = "Fitted idle offset (W)."] offset_w: f64,
        #[doc = "Fit quality."] r_squared: f64,
    }
    /// A supervisor ladder transition (daemon and runner).
    TierChange = "tier_change" {
        #[doc = "Tier left (0 primary, 1 safe fallback, 2 park)."] from: u64,
        #[doc = "Tier entered."] to: u64,
        #[doc = "Meter-silent periods; older daemons omit it."] stale_periods: Option<u64>,
        #[doc = "Why: `stale_meter`, `authority_lost` or `recovered`."] reason: Cow<'static, str>,
    }
    /// A device entered or left quarantine (daemon and runner).
    Quarantine = "quarantine" {
        #[doc = "Device index."] device: u64,
        #[doc = "Entered (`true`) or left."] on: bool,
    }
    /// A refit pushed to the controller, pinning its model exactly (daemon and runner).
    Refit = "refit" {
        #[doc = "Gain scale relative to the identified gains."] scale: f64,
        #[doc = "Idle offset (W)."] offset_w: f64,
    }
    /// One control period (daemon); optional fields keep partial records readable.
    Period = "period" {
        #[doc = "Supervisor tier that acted."] tier: Option<u64>,
        #[doc = "Average power the controller acted on (W)."] watts: Option<f64>,
        #[doc = "Effective (possibly PSU-clamped) set-point (W)."] setpoint: Option<f64>,
        #[doc = "Consecutive meter-silent periods."] stale: Option<u64>,
        #[doc = "Summed commanded frequency move (MHz)."] delta_f_mhz: Option<f64>,
        #[doc = "Whether a target sits on a clock bound."] saturated: Option<bool>,
        #[doc = "Targets in force after the period."] targets: Option<Targets>,
    }
    /// A health-detector verdict edge (daemon).
    Health = "health" {
        #[doc = "Detector name."] detector: Cow<'static, str>,
        #[doc = "Verdict left."] from: Cow<'static, str>,
        #[doc = "Verdict entered."] to: Cow<'static, str>,
    }
    /// An operator set-point change (daemon and runner).
    SetpointChange = "setpoint_change" {
        #[doc = "Set-point before (W)."] from_w: f64,
        #[doc = "Set-point after (W)."] to_w: f64,
    }
    /// A daemon resumed from its journal.
    Recovered = "recovered" {
        #[doc = "Tier it resumed in."] tier: u64,
        #[doc = "Records it replayed."] records: u64,
    }
    /// A closed-loop run started (runner).
    RunStart = "run_start" {
        #[doc = "Controller name."] controller: Cow<'static, str>,
        #[doc = "Initial set-point (W)."] setpoint_w: f64,
        #[doc = "Periods scheduled."] periods: u64,
    }
    /// A run ended (runner); the RLS counters when tracking ran.
    RunEnd = "run_end" {
        #[doc = "Samples the tracker saw."] rls_samples: Option<u64>,
        #[doc = "Sample pairs it accepted."] rls_pairs_accepted: Option<u64>,
        #[doc = "Sample pairs it rejected."] rls_pairs_rejected: Option<u64>,
    }
    /// A scheduled fault became active (runner).
    FaultOnset = "fault_onset" {
        #[doc = "Index in the fault schedule."] spec: u64,
        #[doc = "Fault label."] fault: Cow<'static, str>,
        #[doc = "Device it targets, if one."] device: Option<u64>,
    }
    /// A scheduled fault cleared (runner).
    FaultClear = "fault_clear" {
        #[doc = "Index in the fault schedule."] spec: u64,
        #[doc = "Fault label."] fault: Cow<'static, str>,
        #[doc = "Device it targets, if one."] device: Option<u64>,
    }
    /// An LLM task's regime flipped (runner).
    PhaseTransition = "phase_transition" {
        #[doc = "Task index."] task: u64,
        #[doc = "`prefill` or `decode`."] to: Cow<'static, str>,
        #[doc = "Prefill share of the period."] prefill_share: f64,
    }
    /// An LLM task's KV cache entered or left the eviction-risk band (runner).
    KvPressure = "kv_pressure" {
        #[doc = "Task index."] task: u64,
        #[doc = "Entered (`true`) or left."] on: bool,
        #[doc = "KV-cache occupancy."] kv_occupancy: f64,
    }
    /// The meter went silent or came back (runner).
    MeterStale = "meter_stale" {
        #[doc = "Silent now."] stale: bool,
        #[doc = "Consecutive meter-silent periods."] stale_periods: u64,
    }
    /// An SLO frequency floor started or stopped binding (runner).
    SloFloorBinding = "slo_floor_binding" {
        #[doc = "Binding now."] active: bool,
    }
    /// Delta-sigma carry wraps over the period (runner).
    DsCarryWraps = "ds_carry_wraps" {
        #[doc = "Wraps counted."] wraps: u64,
    }
}

/// Why a line is not a journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// Not a flat JSON object, or `v`, `kind`, `period` or `t_s` is bad.
    Malformed(String),
    /// A schema version this build does not read.
    Version(u64),
}

/// One journal record, stamped with the deterministic sim clock.
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
    /// What happened.
    pub body: Body,
}

impl Event {
    /// Render this event as one JSON object (no trailing newline): string
    /// values JSON-escaped, floats as their shortest round trip (non-finite
    /// ones as `null`), so [`Event::parse`] reads every finite one back
    /// bit for bit.
    pub fn to_json(&self) -> String {
        SCRATCH.with_borrow_mut(|out| {
            out.clear();
            self.write_json(out);
            out.as_str().to_owned()
        })
    }

    /// Appends what [`Event::to_json`] returns to `out`, allocating
    /// nothing beyond `out`'s own growth and running no `core::fmt`
    /// machinery on the common path.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"v\":");
        push_u64(out, u64::from(SCHEMA_VERSION));
        out.push_str(",\"period\":");
        push_u64(out, self.period);
        out.push_str(",\"t_s\":");
        push_json_f64(out, self.sim_time_s);
        out.push_str(",\"kind\":\"");
        push_json_escaped(out, self.body.kind());
        out.push('"');
        self.wall_unix_ms.write(",\"wall_ms\":", out);
        self.body.write_fields(out);
        out.push('}');
    }

    /// Decodes one record line under the module's compatibility rules.
    /// It allocates only what the record owns: a string field's text, a
    /// `period` record's targets, an unknown kind's name (and an escaped
    /// string's unwound text on the way), so a record of numbers decodes
    /// with no heap call at all.
    ///
    /// # Errors
    /// [`DecodeError::Version`] on a `"v"` other than
    /// [`SCHEMA_VERSION`]; [`DecodeError::Malformed`] on anything that
    /// is not a flat JSON object with the four header fields.
    pub fn parse(line: &str) -> Result<Event, DecodeError> {
        let malformed = |m: &str| DecodeError::Malformed(m.to_string());
        // First occurrence of each header key; the rest are body fields.
        let (mut v, mut period, mut t_s, mut kind, mut wall_ms) = (None, None, None, None, None);
        let mut fields = Fields::default();
        walk_object(line, |key, value| {
            // One match on the key's bytes, unwound first only if escaped.
            let slot = match &*key.bytes(line) {
                b"v" => &mut v,
                b"period" => &mut period,
                b"t_s" => &mut t_s,
                b"kind" => &mut kind,
                b"wall_ms" => &mut wall_ms,
                _ => return fields.push((key, value)),
            };
            slot.get_or_insert(value);
        })
        .map_err(DecodeError::Malformed)?;
        let version =
            u64::read(v, line).ok_or_else(|| malformed("missing schema version field `v`"))?;
        if version != u64::from(SCHEMA_VERSION) {
            return Err(DecodeError::Version(version));
        }
        let Some(Scalar::Str(kind)) = kind else {
            return Err(malformed("missing `kind`"));
        };
        let kind = kind.text(line);
        let period = u64::read(period, line).ok_or_else(|| malformed("missing `period`"))?;
        let sim_time_s = f64::read(t_s, line).ok_or_else(|| malformed("missing `t_s`"))?;
        Ok(Event {
            period,
            sim_time_s,
            wall_unix_ms: u64::read(wall_ms, line),
            body: Body::decode(kind, &mut fields, line),
        })
    }
}

/// A line's body fields in document order: the first eight in a table on
/// the stack, so that decoding a record this build wrote allocates
/// nothing for them (the widest kind, `period`, declares seven), and any
/// further ones, which only a hand-made line has, in a `Vec`.
#[derive(Default)]
struct Fields {
    table: [(Span, Scalar); 8],
    len: usize,
    spill: Vec<(Span, Scalar)>,
    /// Where [`Fields::take`] looks first; `usize::MAX` once a line has
    /// departed from schema order.
    cursor: usize,
}

impl Fields {
    /// Inlined into the walk: called, it takes the field by reference and
    /// reads it back wider than the walker wrote it (the note on
    /// `json::Span` says what that costs).
    #[inline(always)]
    fn push(&mut self, field: (Span, Scalar)) {
        match self.table.get_mut(self.len) {
            Some(slot) => {
                *slot = field;
                self.len += 1;
            }
            None => self.spill.push(field),
        }
    }

    /// The first value under `key`. This build's writer renders a kind's
    /// keys in schema order, and a decoder takes them in that order: the
    /// field after the last one taken is tried first, and once a line
    /// departs from that order each key is searched from the start.
    /// Inlined, so that each call compares against a constant key.
    #[inline(always)]
    fn take(&mut self, key: &str, line: &str) -> Option<Scalar> {
        let at = self.cursor;
        let next = match at.checked_sub(self.len) {
            None => Some(&self.table[at]),
            Some(j) => self.spill.get(j),
        };
        match next {
            Some(f) if f.0.is(key, line) => {
                self.cursor += 1;
                Some(f.1)
            }
            _ => self.search(key, line),
        }
    }

    /// [`Fields::take`] once a line has departed from schema order.
    #[inline(never)]
    fn search(&mut self, key: &str, line: &str) -> Option<Scalar> {
        self.cursor = usize::MAX;
        self.table[..self.len]
            .iter()
            .chain(&self.spill)
            .find(|f| f.0.is(key, line))
            .map(|f| f.1)
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

#[cfg(test)]
mod tests {
    use super::json::walk_object;
    use super::*;
    use proptest::prelude::*;
    use std::fmt::Write as _;

    /// splitmix64: the proptest shim draws one seed per case, the
    /// generators below draw everything else from this.
    pub(super) struct Rng(pub(super) u64);

    impl Rng {
        pub(super) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub(super) fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        pub(super) fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len())]
        }
    }

    /// A field value `Body::every_variant` can draw: everything the
    /// codec promises to read back exactly — integers up to 2^53, finite
    /// floats other than `-0.0` (which reads back as `0`), any string.
    pub(super) trait Arbitrary {
        fn arbitrary(rng: &mut Rng) -> Self;
    }

    impl Arbitrary for u64 {
        fn arbitrary(rng: &mut Rng) -> Self {
            (rng.next() >> 11) >> rng.below(53)
        }
    }

    const FLOATS: [f64; 10] = [
        0.0,
        1.0,
        -1.5e-300,
        9_007_199_254_740_992.0,
        999_999_999_999_999.0,
        1e15,
        441.348_230_213_280_5,
        0.1 + 0.2,
        f64::MIN_POSITIVE,
        f64::MAX,
    ];

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut Rng) -> Self {
            if rng.below(3) == 0 {
                return rng.pick(&FLOATS);
            }
            loop {
                let x = f64::from_bits(rng.next());
                if x.is_finite() && x.to_bits() != (-0.0f64).to_bits() {
                    return x;
                }
            }
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut Rng) -> Self {
            rng.below(2) == 0
        }
    }

    const CHARS: [char; 24] = [
        'a', 'Z', '0', ' ', '"', '\\', '/', ',', ':', '{', '}', '[', 'u', 'n', '\n', '\t', '\r',
        '\u{0}', '\u{8}', '\u{1f}', '\u{7f}', 'é', '电', '😀',
    ];

    impl Arbitrary for String {
        fn arbitrary(rng: &mut Rng) -> Self {
            (0..rng.below(12)).map(|_| rng.pick(&CHARS)).collect()
        }
    }

    /// Strings a writer could hold as `&'static str`, escapes included.
    const STATIC_STRS: [&str; 5] = ["", "stale_meter", "ok", "电 \"q\"\n\\", "\u{0}\u{1f}😀"];

    /// Borrowed half the time, as a writer holding a name passes it, and
    /// owned otherwise, as the decoder returns it.
    impl Arbitrary for Cow<'static, str> {
        fn arbitrary(rng: &mut Rng) -> Self {
            if rng.below(2) == 0 {
                Cow::Borrowed(rng.pick(&STATIC_STRS))
            } else {
                Cow::Owned(String::arbitrary(rng))
            }
        }
    }

    impl Arbitrary for Targets {
        fn arbitrary(rng: &mut Rng) -> Self {
            let mhz: Vec<f64> = (0..rng.below(9)).map(|_| f64::arbitrary(rng)).collect();
            Targets::new(&mhz)
        }
    }

    impl<T: Arbitrary> Arbitrary for Option<T> {
        fn arbitrary(rng: &mut Rng) -> Self {
            (rng.below(4) != 0).then(|| T::arbitrary(rng))
        }
    }

    fn event(rng: &mut Rng, body: Body) -> Event {
        Event {
            period: u64::arbitrary(rng),
            sim_time_s: f64::arbitrary(rng),
            wall_unix_ms: Option::arbitrary(rng),
            body,
        }
    }

    fn parse(line: &str) -> Event {
        Event::parse(line).unwrap()
    }

    #[test]
    fn events_render_as_jsonl_in_order() {
        let mut j = Journal::new();
        j.push(Event {
            period: 3,
            sim_time_s: 12.0,
            wall_unix_ms: None,
            body: Body::TierChange {
                from: 0,
                to: 1,
                stale_periods: Some(2),
                reason: "stale_meter".into(),
            },
        });
        j.push(Event {
            period: 5,
            sim_time_s: 20.0,
            wall_unix_ms: None,
            body: Body::Quarantine {
                device: 2,
                on: true,
            },
        });
        let jsonl = j.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(
            lines,
            [
                "{\"v\":1,\"period\":3,\"t_s\":12,\"kind\":\"tier_change\",\"from\":0,\"to\":1,\"stale_periods\":2,\"reason\":\"stale_meter\"}",
                "{\"v\":1,\"period\":5,\"t_s\":20,\"kind\":\"quarantine\",\"device\":2,\"on\":true}",
            ]
        );
        assert_eq!((j.len(), j.events()[1].body.kind()), (2, "quarantine"));
    }

    #[test]
    fn wall_clock_stamp_and_optional_fields_are_opt_in() {
        let mut e = Event {
            period: 1,
            sim_time_s: 4.0,
            wall_unix_ms: None,
            body: Body::Period {
                tier: None,
                watts: None,
                setpoint: None,
                stale: None,
                delta_f_mhz: None,
                saturated: None,
                targets: None,
            },
        };
        // Sim mode, nothing set: the header alone.
        assert_eq!(
            e.to_json(),
            "{\"v\":1,\"period\":1,\"t_s\":4,\"kind\":\"period\"}"
        );
        // Live mode: stamped right after the kind.
        e.wall_unix_ms = Some(1_754_000_000_123);
        if let Body::Period { watts, .. } = &mut e.body {
            *watts = Some(900.0);
        }
        assert_eq!(
            e.to_json(),
            "{\"v\":1,\"period\":1,\"t_s\":4,\"kind\":\"period\",\"wall_ms\":1754000000123,\"watts\":900}"
        );
    }

    /// The renderer's bytes, pinned: every field type, the float
    /// spellings, every escape, `wall_ms`. `capgpu-obs` reads these
    /// back; a drift here is a journal format change.
    #[test]
    fn rendering_is_pinned_byte_for_byte() {
        let e = Event {
            period: u64::MAX,
            sim_time_s: 0.1 + 0.2,
            wall_unix_ms: Some(0),
            body: Body::Period {
                tier: Some(9_007_199_254_740_993),
                watts: Some(48.0),
                setpoint: Some(-48.0),
                stale: None,
                delta_f_mhz: Some(-0.0),
                saturated: Some(false),
                targets: Some(Targets::new(&[1e15, -1.5e-7, f64::NAN, f64::NEG_INFINITY])),
            },
        };
        let want = concat!(
            "{\"v\":1,\"period\":18446744073709551615,\"t_s\":0.30000000000000004,",
            "\"kind\":\"period\",\"wall_ms\":0,\"tier\":9007199254740993,",
            "\"watts\":48,\"setpoint\":-48,\"delta_f_mhz\":0,\"saturated\":false,",
            "\"targets\":\"1000000000000000,-0.00000015,null,null\"}",
        );
        assert_eq!(e.to_json(), want);
        // `write_json` appends exactly that, keeping what was there.
        let mut buf = String::from("x");
        e.write_json(&mut buf);
        e.write_json(&mut buf);
        assert_eq!(buf, format!("x{want}{want}"));
        let e = Event {
            period: 0,
            sim_time_s: 0.5,
            wall_unix_ms: None,
            body: Body::RunStart {
                controller: "café/电源\"\\\n\r\t\u{0}\u{8}\u{c}\u{1f}\u{7f}".into(),
                setpoint_w: f64::NAN,
                periods: 7,
            },
        };
        assert_eq!(
            e.to_json(),
            concat!(
                "{\"v\":1,\"period\":0,\"t_s\":0.5,\"kind\":\"run_start\",",
                "\"controller\":\"café/电源\\\"\\\\\\n\\r\\t\\u0000\\u0008\\u000c\\u001f\u{7f}\",",
                "\"setpoint_w\":null,\"periods\":7}",
            )
        );
    }

    #[test]
    fn decoding_follows_the_compatibility_rules() {
        // Unknown keys are ignored; of duplicates the first wins, header
        // keys included; a mistyped optional field reads as absent.
        let e = parse(
            concat!(
                r#"{"v":1,"period":3,"t_s":12.5,"kind":"refit","x":[],"scale":1.5,"#,
                r#""scale":2,"period":9,"offset_w":210,"wall_ms":"soon"}"#,
            )
            .replace("\"x\":[],", "\"x\":null,")
            .as_str(),
        );
        assert_eq!((e.period, e.sim_time_s, e.wall_unix_ms), (3, 12.5, None));
        assert_eq!(
            e.body,
            Body::Refit {
                scale: 1.5,
                offset_w: 210.0
            }
        );
        let e =
            parse(r#"{"v":1,"period":0,"t_s":0,"kind":"period","watts":"x","tier":1.5,"stale":2}"#);
        assert!(matches!(
            e.body,
            Body::Period {
                watts: None,
                tier: None,
                stale: Some(2),
                ..
            }
        ));
        // An unknown kind, and a known kind missing (or mistyping) a
        // required field, read as `Unknown`; escapes are unwound first.
        for (line, kind) in [
            (
                r#"{"v":1,"period":0,"t_s":0,"kind":"note","msg":"hi"}"#,
                "note",
            ),
            (
                r#"{"v":1,"period":0,"t_s":0,"kind":"refit","scale":1}"#,
                "refit",
            ),
            (
                r#"{"v":1,"period":0,"t_s":0,"kind":"refit","scale":1,"offset_w":true}"#,
                "refit",
            ),
            (
                r#"{"v":1,"period":0,"t_s":0,"kind":"model_gain","device":-1,"w_per_mhz":1}"#,
                "model_gain",
            ),
            (r#"{"v":1,"period":0,"t_s":0,"kind":"k\u00e9"}"#, "ké"),
        ] {
            assert_eq!(
                parse(line).body,
                Body::Unknown { kind: kind.into() },
                "{line}"
            );
        }
        let e = parse(
            r#"{"v":1,"period":0,"t_s":0,"kind":"s\u0065tpoint_change","to_w":1,"from_w":2}"#,
        );
        assert_eq!(
            e.body,
            Body::SetpointChange {
                from_w: 2.0,
                to_w: 1.0
            }
        );
        // A daemon `tier_change` written before `stale_periods` existed.
        let e = parse(
            r#"{"v":1,"period":4,"t_s":16,"kind":"tier_change","from":0,"to":1,"reason":"stale_meter"}"#,
        );
        assert!(matches!(
            e.body,
            Body::TierChange {
                to: 1,
                stale_periods: None,
                ..
            }
        ));
        // Strings decode owned, whatever the writer held.
        let Body::TierChange { reason, .. } = e.body else {
            unreachable!()
        };
        assert!(matches!(reason, Cow::Owned(r) if r == "stale_meter"));
        // Header faults are refused, the version first.
        for (line, want) in [
            (r#"{"v":2,"kind":"x"}"#, DecodeError::Version(2)),
            (
                r#"{"period":0,"t_s":0,"kind":"k"}"#,
                DecodeError::Malformed("missing schema version field `v`".into()),
            ),
            (
                r#"{"v":1,"period":0,"t_s":0,"kind":7}"#,
                DecodeError::Malformed("missing `kind`".into()),
            ),
            (
                r#"{"v":1,"kind":"segment_seal","records":2}"#,
                DecodeError::Malformed("missing `period`".into()),
            ),
            (
                r#"{"v":1,"period":0.5,"t_s":0,"kind":"k"}"#,
                DecodeError::Malformed("missing `period`".into()),
            ),
            (
                r#"{"v":1,"period":0,"t_s":null,"kind":"k"}"#,
                DecodeError::Malformed("missing `t_s`".into()),
            ),
            (
                r#"{"v":1,"period":0,"t_s":0,"kind":"k""#,
                DecodeError::Malformed("unterminated object".into()),
            ),
        ] {
            assert_eq!(Event::parse(line), Err(want), "{line}");
        }
        // `-0.0` is spelled `0` and reads back as `0`.
        let e = parse(r#"{"v":1,"period":0,"t_s":-0,"kind":"k"}"#);
        assert_eq!(e.to_json(), r#"{"v":1,"period":0,"t_s":0,"kind":"k"}"#);
    }

    #[test]
    fn targets_decode_whole_or_not_at_all() {
        let mut out = vec![7.0];
        assert!(Targets::new(&[1350.0, 1_425.517_230_981_2]).decode_into(&mut out));
        assert_eq!(out, [7.0, 1350.0, 1_425.517_230_981_2]);
        for bad in [
            "x,900",
            "900,x",
            "900,,875",
            "900,",
            " 900",
            "inf,1350",
            "NaN,1350",
            "1e999,1350",
            "infinity,-inf",
        ] {
            let mut out = vec![7.0];
            assert!(!Targets(bad.into()).decode_into(&mut out), "{bad}");
            assert_eq!(out, [7.0], "{bad}");
        }
        assert!(Targets::new(&[]).decode_into(&mut out));
        assert_eq!(Targets::new(&[]).to_string(), "");
        // An element reads as the walker reads the same spelling as a
        // value, bit for bit.
        for text in ["007", "+7", "1.", ".5", "-0", "1e3", "9007199254740993"] {
            let mut got = Vec::new();
            assert!(Targets(text.into()).decode_into(&mut got), "{text}");
            let line = format!("{{\"x\":{text}}}");
            let mut want = None;
            walk_object(&line, |_, v| want = Some(v)).unwrap();
            assert_eq!(want, Some(Scalar::Num(got[0])), "{text}");
            assert_eq!(got[0].to_bits(), text.parse::<f64>().unwrap().to_bits());
        }
    }

    /// Runs of random flat objects over `keys`, each value a scalar of a
    /// random type, `v` and `kind` kept most of the time.
    fn retyped(rng: &mut Rng, keys: &[(String, String)]) -> String {
        const SCALARS: [&str; 14] = [
            "null",
            "true",
            "false",
            "-1",
            "-0",
            "0.5",
            "1e300",
            "7",
            "9007199254740993",
            "18446744073709551616",
            "\"x\"",
            "\"\\u00e9\"",
            "\"1,2\"",
            "\"\"",
        ];
        let mut out = String::from("{");
        for (i, (key, value)) in keys.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let keep = matches!(key.as_str(), "v" | "kind") && rng.below(4) != 0;
            let value = if keep {
                value.as_str()
            } else {
                rng.pick(&SCALARS)
            };
            let _ = write!(out, "\"{key}\":{value}");
        }
        out.push('}');
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every variant survives the journal line: `parse(to_json(e))
        /// == e`, floats bit for bit (`Debug` spells every finite `f64`
        /// distinctly), strings with their escapes, and the `period`
        /// record's targets element by element.
        #[test]
        fn every_variant_round_trips(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            let mut bodies = Body::every_variant(&mut rng);
            bodies.push(Body::Unknown { kind: format!("x{}", String::arbitrary(&mut rng)) });
            for body in bodies {
                let e = event(&mut rng, body);
                let line = e.to_json();
                prop_assert!(!line.contains('\n'), "{line:?}");
                let back = Event::parse(&line).unwrap();
                prop_assert!(format!("{back:?}") == format!("{e:?}"), "{line}: {back:?}");
                prop_assert_eq!(&back, &e);
                if let Body::Period { targets: Some(t), .. } = &e.body {
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    prop_assert!(t.decode_into(&mut got));
                    Targets::new(&got).decode_into(&mut want);
                    prop_assert_eq!(got.len(), want.len());
                    for (a, b) in got.iter().zip(&want) {
                        prop_assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
            }
        }

        /// Known kinds whose fields carry values of the wrong types:
        /// `Ok` or `Err`, never a panic, and whatever decodes re-renders
        /// to a line that decodes to the same record.
        #[test]
        fn wrong_field_types_never_panic(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            for body in Body::every_variant(&mut rng) {
                let line = event(&mut rng, body).to_json();
                let mut keys = Vec::new();
                walk_object(&line, |k, _| keys.push(k.text(&line).into_owned())).unwrap();
                let kind = format!("\"{}\"", parse(&line).body.kind());
                let mut keys: Vec<(String, String)> = keys
                    .into_iter()
                    .map(|k| {
                        let v = match k.as_str() { "v" => "1".to_string(), "kind" => kind.clone(), _ => String::new() };
                        (k, v)
                    })
                    .collect();
                for _ in 0..rng.below(3) {
                    let dup = keys[rng.below(keys.len())].clone();
                    keys.insert(rng.below(keys.len() + 1), dup);
                }
                let hostile = retyped(&mut rng, &keys);
                if let Ok(e) = Event::parse(&hostile) {
                    let again = Event::parse(&e.to_json());
                    prop_assert!(again == Ok(e), "{hostile}: {again:?}");
                }
            }
        }
    }
}
