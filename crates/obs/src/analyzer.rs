//! Online control-loop health analyzer: streaming detectors over the
//! `period` records a running `capgpud` journals, read through
//! [`PeriodSample::from_period`] live and post-mortem alike.
//!
//! Detectors follow the SRE multi-window burn-rate pattern where it
//! applies: a *fast* window catches acute breaches, a *slow* window
//! catches sustained simmering ones, and the alert tier is the worse of
//! the two so that a short spike degrades before a long slow burn pages.
//! All state is a handful of ring buffers — O(window) memory, O(1)
//! amortized per period — and everything is driven off the record clock,
//! so verdicts are deterministic under the sim clock and identical when
//! recomputed offline from the journal.

use capgpu_telemetry::journal::Body;

/// Alert tier for one detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Healthy.
    Ok,
    /// One window breached, or a soft condition (e.g. saturated half
    /// the slow window).
    Warn,
    /// Fast and slow windows both breached, or a hard condition.
    Critical,
}

impl Verdict {
    /// Stable lowercase label (`ok` / `warn` / `critical`).
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Warn => "warn",
            Verdict::Critical => "critical",
        }
    }

    /// Numeric gauge encoding (0 / 1 / 2).
    pub fn gauge(self) -> f64 {
        match self {
            Verdict::Ok => 0.0,
            Verdict::Warn => 1.0,
            Verdict::Critical => 2.0,
        }
    }
}

/// Detector identifiers, in report order. A silent meter is the staleness
/// watchdog's to catch, and no record carries an SLO observation.
pub const DETECTORS: [&str; 3] = [
    "cap_violation_burn",
    "actuation_oscillation",
    "saturation_dwell",
];

/// Fast burn window (control periods).
const FAST_WINDOW: usize = 5;
/// Slow burn window (control periods); also the saturation-dwell window.
const SLOW_WINDOW: usize = 30;
/// Cap-violation burn threshold: mean overage (W) above the cap, per
/// period, that counts as burning in a window.
const CAP_BURN_W: f64 = 1.0;
/// Oscillation: fraction of periods in the fast window whose summed
/// frequency delta flips sign (with hysteresis) before Warn.
const FLIP_RATE_WARN: f64 = 0.35;
/// Oscillation flip-rate for Critical.
const FLIP_RATE_CRITICAL: f64 = 0.6;
/// Hysteresis floor (MHz): |Δf| below this does not count as a
/// direction, suppressing dither-driven false flips.
const FLIP_HYSTERESIS_MHZ: f64 = 1.0;
/// Fraction of the slow window spent with actuation saturated (targets
/// pinned at a bound) before Warn; Critical at 2× capped to 1.0.
const SATURATION_WARN_FRAC: f64 = 0.5;

/// The analyzer's former tuning record. Every threshold and window is
/// now a constant of this module; the empty type remains only as the
/// argument of [`HealthAnalyzer::new`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AnalyzerConfig;

/// One period's observables, as fed to [`HealthAnalyzer::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PeriodSample {
    /// Measured total power (W).
    pub power_w: f64,
    /// Active power cap (W).
    pub cap_w: f64,
    /// Sum of commanded frequency deltas across devices (MHz); sign
    /// flips feed the oscillation detector.
    pub delta_f_mhz: f64,
    /// Whether the power meter reading was stale this period (unread).
    pub meter_stale: bool,
    /// Whether actuation was saturated (some target pinned at a
    /// frequency bound).
    pub saturated: bool,
    /// Fraction of requests missing their SLO this period (0..=1;
    /// unread, and 0 from every `period` record).
    pub slo_miss_frac: f64,
}

impl PeriodSample {
    /// The sample a `period` record carries; `None` for any other kind.
    /// Missing fields degrade to benign defaults: no overage against an
    /// absent set-point, no move, not saturated.
    pub fn from_period(body: &Body) -> Option<Self> {
        let Body::Period {
            watts,
            setpoint,
            stale,
            delta_f_mhz,
            saturated,
            ..
        } = body
        else {
            return None;
        };
        Some(PeriodSample {
            power_w: watts.unwrap_or(0.0),
            cap_w: setpoint.unwrap_or(f64::INFINITY),
            delta_f_mhz: delta_f_mhz.unwrap_or(0.0),
            // Any consecutive-silent-period count means a silent meter.
            meter_stale: stale.is_some_and(|n| n > 0),
            saturated: saturated.unwrap_or(false),
            slo_miss_frac: 0.0,
        })
    }
}

/// An edge-triggered verdict change, for journaling.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthEdge {
    /// Which detector fired (one of [`DETECTORS`]).
    pub detector: &'static str,
    /// Verdict before the edge.
    pub from: Verdict,
    /// Verdict after the edge.
    pub to: Verdict,
}

/// The `health` record of an edge. Every name is a `&'static str`, so
/// the record borrows all three and allocates nothing.
impl From<&HealthEdge> for Body {
    fn from(e: &HealthEdge) -> Body {
        Body::Health {
            detector: e.detector.into(),
            from: e.from.label().into(),
            to: e.to.label().into(),
        }
    }
}

/// Fixed-capacity ring of per-period scalars with O(1) windowed sums.
#[derive(Debug, Clone)]
struct Ring {
    buf: Vec<f64>,
    head: usize,
    len: usize,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            buf: vec![0.0; cap.max(1)],
            head: 0,
            len: 0,
        }
    }

    fn push(&mut self, v: f64) {
        self.buf[self.head] = v;
        self.head = (self.head + 1) % self.buf.len();
        self.len = (self.len + 1).min(self.buf.len());
    }

    /// Sum of the most recent `n` values, or of all seen when fewer.
    fn sum_last(&self, n: usize) -> f64 {
        let cap = self.buf.len();
        (0..n.min(self.len)).fold(0.0, |sum, i| {
            sum + self.buf[(self.head + cap - 1 - i) % cap]
        })
    }

    /// Mean of the most recent `n` values (fewer while warming up).
    fn mean_last(&self, n: usize) -> f64 {
        let m = n.min(self.len);
        if m == 0 {
            return 0.0;
        }
        self.sum_last(m) / m as f64
    }

    /// Sum of the most recent `n` values divided by `n` itself —
    /// "fraction of the window", with not-yet-observed periods counting
    /// as zero (unlike [`Ring::mean_last`], which averages only what it
    /// has seen).
    fn frac_of(&self, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        self.sum_last(n) / n as f64
    }

    fn observed(&self) -> usize {
        self.len
    }
}

/// Streaming health analyzer; one instance per control loop.
#[derive(Debug, Clone)]
pub struct HealthAnalyzer {
    /// Per-period W over the cap (0 when under).
    over_w: Ring,
    /// Per-period flip indicator (1.0 when Δf changed sign).
    flips: Ring,
    /// Per-period saturation indicator.
    sat: Ring,
    last_dir: i8,
    verdicts: [Verdict; DETECTORS.len()],
    periods: u64,
}

impl Default for HealthAnalyzer {
    /// A fresh analyzer.
    fn default() -> Self {
        HealthAnalyzer {
            over_w: Ring::new(SLOW_WINDOW),
            flips: Ring::new(SLOW_WINDOW),
            sat: Ring::new(SLOW_WINDOW),
            last_dir: 0,
            verdicts: [Verdict::Ok; DETECTORS.len()],
            periods: 0,
        }
    }
}

impl HealthAnalyzer {
    /// A fresh analyzer, as [`HealthAnalyzer::default`].
    ///
    /// # Errors
    /// None: the analyzer has no tuning left to reject.
    pub fn new(_cfg: AnalyzerConfig) -> crate::Result<Self> {
        Ok(HealthAnalyzer::default())
    }

    /// Feeds one period and returns, in [`DETECTORS`] order, the verdict
    /// edge each detector took: `None` where its verdict held. The slots
    /// are inline, so a period allocates nothing.
    pub fn observe(&mut self, s: &PeriodSample) -> [Option<HealthEdge>; DETECTORS.len()] {
        self.periods += 1;
        self.over_w.push((s.power_w - s.cap_w).max(0.0));
        // Oscillation: a flip is a sign change of Δf between periods,
        // where |Δf| under the hysteresis floor carries no direction.
        let dir = if s.delta_f_mhz > FLIP_HYSTERESIS_MHZ {
            1i8
        } else if s.delta_f_mhz < -FLIP_HYSTERESIS_MHZ {
            -1
        } else {
            0
        };
        let flipped = dir != 0 && self.last_dir != 0 && dir != self.last_dir;
        self.flips.push(if flipped { 1.0 } else { 0.0 });
        if dir != 0 {
            self.last_dir = dir;
        }
        self.sat.push(if s.saturated { 1.0 } else { 0.0 });

        let next = [
            self.cap_burn_verdict(),
            self.oscillation_verdict(),
            self.saturation_verdict(),
        ];
        let edges = std::array::from_fn(|i| {
            let (from, to) = (self.verdicts[i], next[i]);
            (from != to).then_some(HealthEdge {
                detector: DETECTORS[i],
                from,
                to,
            })
        });
        self.verdicts = next;
        edges
    }

    /// Multi-window burn rate of the cap overage: fast window over the
    /// threshold alone is Warn; fast *and* slow both over is Critical
    /// (the SRE two-window AND — sustained burn, not a blip).
    fn cap_burn_verdict(&self) -> Verdict {
        let ring = &self.over_w;
        let fast = ring.mean_last(FAST_WINDOW);
        let slow = ring.mean_last(SLOW_WINDOW);
        if fast > CAP_BURN_W && slow > CAP_BURN_W && ring.observed() >= FAST_WINDOW {
            Verdict::Critical
        } else if fast > CAP_BURN_W && ring.observed() >= FAST_WINDOW {
            Verdict::Warn
        } else {
            Verdict::Ok
        }
    }

    fn oscillation_verdict(&self) -> Verdict {
        if self.flips.observed() < FAST_WINDOW {
            return Verdict::Ok;
        }
        let rate = self.flips.mean_last(FAST_WINDOW);
        if rate >= FLIP_RATE_CRITICAL {
            Verdict::Critical
        } else if rate >= FLIP_RATE_WARN {
            Verdict::Warn
        } else {
            Verdict::Ok
        }
    }

    fn saturation_verdict(&self) -> Verdict {
        if self.sat.observed() < FAST_WINDOW {
            return Verdict::Ok;
        }
        // Dwell is a fraction of the *full* slow window, so a freshly
        // started analyzer does not call five saturated periods
        // "saturated half the time".
        let frac = self.sat.frac_of(SLOW_WINDOW);
        if frac >= (2.0 * SATURATION_WARN_FRAC).min(1.0) {
            Verdict::Critical
        } else if frac >= SATURATION_WARN_FRAC {
            Verdict::Warn
        } else {
            Verdict::Ok
        }
    }

    /// Current verdicts, in [`DETECTORS`] order.
    pub fn verdicts(&self) -> [(&'static str, Verdict); DETECTORS.len()] {
        std::array::from_fn(|i| (DETECTORS[i], self.verdicts[i]))
    }

    /// Worst verdict across all detectors.
    pub fn overall(&self) -> Verdict {
        self.verdicts.iter().copied().max().unwrap_or(Verdict::Ok)
    }

    /// Periods observed so far.
    pub fn periods(&self) -> u64 {
        self.periods
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyzer() -> HealthAnalyzer {
        HealthAnalyzer::default()
    }

    fn quiet(cap_w: f64) -> PeriodSample {
        PeriodSample {
            power_w: cap_w - 20.0,
            cap_w,
            delta_f_mhz: 0.0,
            meter_stale: false,
            saturated: false,
            slo_miss_frac: 0.0,
        }
    }

    #[test]
    fn quiet_loop_stays_ok() {
        let mut a = analyzer();
        for _ in 0..100 {
            assert_eq!(a.observe(&quiet(900.0)), [None, None, None]);
        }
        assert_eq!(a.overall(), Verdict::Ok);
    }

    #[test]
    fn cap_burn_escalates_fast_then_critical_and_recovers() {
        let mut a = analyzer();
        for _ in 0..40 {
            a.observe(&quiet(900.0));
        }
        let mut hot = quiet(900.0);
        hot.power_w = 915.0;
        let mut saw_warn = false;
        let mut saw_critical = false;
        for _ in 0..40 {
            for e in a.observe(&hot).into_iter().flatten() {
                if e.detector == "cap_violation_burn" {
                    saw_warn |= e.to == Verdict::Warn;
                    saw_critical |= e.to == Verdict::Critical;
                }
            }
        }
        assert!(
            saw_warn && saw_critical,
            "warn={saw_warn} critical={saw_critical}"
        );
        assert_eq!(a.overall(), Verdict::Critical);
        // Sustained recovery clears it (slow window must drain).
        for _ in 0..60 {
            a.observe(&quiet(900.0));
        }
        assert_eq!(a.overall(), Verdict::Ok);
    }

    #[test]
    fn oscillation_counts_sign_flips_with_hysteresis() {
        let mut a = analyzer();
        // Dither under the hysteresis floor: no direction, no flips.
        let mut s = quiet(900.0);
        for i in 0..30 {
            s.delta_f_mhz = if i % 2 == 0 { 0.5 } else { -0.5 };
            a.observe(&s);
        }
        assert_eq!(a.verdicts()[1].1, Verdict::Ok);
        // Full-amplitude alternation: every period flips.
        for i in 0..10 {
            s.delta_f_mhz = if i % 2 == 0 { 30.0 } else { -30.0 };
            a.observe(&s);
        }
        assert_eq!(a.verdicts()[1].1, Verdict::Critical);
    }

    #[test]
    fn saturation_dwell_uses_the_slow_window() {
        let mut a = analyzer();
        let mut s = quiet(900.0);
        s.saturated = true;
        for _ in 0..16 {
            a.observe(&s);
        }
        // 16/30 of the slow window saturated: past the 0.5 Warn line.
        assert_eq!(a.verdicts()[2].1, Verdict::Warn);
        for _ in 0..14 {
            a.observe(&s);
        }
        assert_eq!(a.verdicts()[2].1, Verdict::Critical);
    }

    #[test]
    fn edges_are_edge_triggered() {
        let mut a = analyzer();
        let mut s = quiet(900.0);
        s.saturated = true;
        let mut edges = 0;
        for _ in 0..60 {
            edges += a
                .observe(&s)
                .iter()
                .flatten()
                .filter(|e| e.detector == "saturation_dwell")
                .count();
        }
        // Ok->Warn and Warn->Critical: exactly two edges, no repeats.
        assert_eq!(edges, 2);
    }

    #[test]
    fn a_period_record_is_the_sample_it_carries() {
        let body = Body::Period {
            tier: Some(0),
            watts: Some(905.5),
            setpoint: Some(900.0),
            stale: Some(2),
            delta_f_mhz: Some(-12.5),
            saturated: Some(true),
            targets: None,
        };
        let want = PeriodSample {
            power_w: 905.5,
            cap_w: 900.0,
            delta_f_mhz: -12.5,
            meter_stale: true,
            saturated: true,
            slo_miss_frac: 0.0,
        };
        assert_eq!(PeriodSample::from_period(&body), Some(want));
        // Missing fields: no overage, no move, not saturated.
        let bare = Body::Period {
            tier: None,
            watts: Some(905.5),
            setpoint: None,
            stale: None,
            delta_f_mhz: None,
            saturated: None,
            targets: None,
        };
        let s = PeriodSample::from_period(&bare).unwrap();
        assert_eq!((s.power_w - s.cap_w).max(0.0), 0.0);
        assert_eq!(
            (s.delta_f_mhz, s.saturated, s.meter_stale),
            (0.0, false, false)
        );
        let other = Body::Quarantine {
            device: 0,
            on: true,
        };
        assert_eq!(PeriodSample::from_period(&other), None);
    }
}
