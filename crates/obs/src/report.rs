//! Offline post-mortem: turn a scanned journal directory into a
//! deterministic human-readable report — tier-transition timeline,
//! detector firings (the online analyzer recomputed offline from the
//! same `period` records the live daemon fed it, which yields the
//! *same* verdicts because everything runs on the record clock), and a
//! power burn summary.

use std::fmt::Write as _;

use capgpu_telemetry::journal::{Body, Targets};

use crate::analyzer::{HealthAnalyzer, PeriodSample, Verdict, DETECTORS};
use crate::reader::JournalScan;
use crate::replay::ReplayState;

/// A rendered post-mortem.
#[derive(Debug, Clone, PartialEq)]
pub struct PostMortem {
    /// The report text (what `capgpu-obs` prints and the golden pins).
    pub text: String,
    /// Final detector verdicts, in [`DETECTORS`] order.
    pub verdicts: [(&'static str, Verdict); DETECTORS.len()],
    /// Worst final verdict.
    pub overall: Verdict,
    /// The replayed control state.
    pub state: ReplayState,
}

fn fmt_w(v: f64) -> String {
    format!("{v:.1}")
}

fn tier_name(t: u64) -> &'static str {
    match t {
        0 => "primary",
        1 => "safe-fallback",
        2 => "park",
        _ => "unknown",
    }
}

/// Renders the post-mortem for a scanned journal. One pass over the
/// records matches every kind: a kind added to the schema does not
/// compile here until the report shows or ignores it.
pub fn render(scan: &JournalScan) -> PostMortem {
    let mut analyzer = HealthAnalyzer::default();
    let state = ReplayState::replay(&scan.records);

    let mut out = String::new();
    let _ = writeln!(out, "capgpu-obs post-mortem");
    let _ = writeln!(out, "======================");
    let _ = writeln!(out);

    // --- journal shape ---
    let sealed = scan.segments.iter().filter(|s| s.sealed).count();
    let torn = scan.segments.iter().filter(|s| s.torn).count();
    let _ = writeln!(out, "journal");
    let _ = writeln!(
        out,
        "  segments={} sealed={} unsealed={} torn_tail={}",
        scan.segments.len(),
        sealed,
        scan.segments.len() - sealed,
        torn
    );
    let mut kinds: Vec<(String, u64)> = state.kind_counts.clone();
    kinds.sort();
    let kinds = kinds
        .iter()
        .map(|(k, n)| format!("{k}={n}"))
        .collect::<Vec<_>>()
        .join(" ");
    let _ = writeln!(out, "  records={} ({kinds})", scan.records.len());
    if let (Some(first), Some(last)) = (scan.records.first(), scan.records.last()) {
        let _ = writeln!(
            out,
            "  span: period {}..{} t_s {}..{}",
            first.period, last.period, first.sim_time_s, last.sim_time_s
        );
    }
    let _ = writeln!(out);

    // --- recovered state ---
    let _ = writeln!(out, "recovered state");
    let _ = writeln!(
        out,
        "  tier={} ({})",
        state.tier_or_primary(),
        tier_name(state.tier_or_primary())
    );
    match state.model() {
        Some((gains, offset)) => {
            let gains = gains
                .iter()
                .map(|g| format!("{g:.6}"))
                .collect::<Vec<_>>()
                .join(",");
            let _ = writeln!(
                out,
                "  model: gains_w_per_mhz=[{gains}] offset_w={} scale={}",
                fmt_w(offset),
                state
                    .scale
                    .map_or_else(|| "1".to_string(), |s| format!("{s:.6}")),
            );
        }
        None => {
            let _ = writeln!(out, "  model: <no identification replayed>");
        }
    }
    let quarantined = if state.quarantined.is_empty() {
        "none".to_string()
    } else {
        state
            .quarantined
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",")
    };
    let _ = writeln!(out, "  quarantined={quarantined}");
    if let Some(cap) = state.cap_w {
        let _ = writeln!(out, "  cap_w={}", fmt_w(cap));
    }
    if !state.last_targets_mhz.is_empty() {
        let _ = writeln!(
            out,
            "  last_targets_mhz=[{}]",
            Targets::new(&state.last_targets_mhz)
        );
    }
    let _ = writeln!(out);

    // --- one pass: the tier timeline, and the analyzer re-run over
    // the period records ---
    let (mut timeline, mut firings) = (String::new(), String::new());
    let mut n_periods = 0u64;
    let mut over_periods = 0u64;
    let mut max_over = 0.0f64;
    let mut sum_over = 0.0f64;
    for r in &scan.records {
        if let Some(s) = PeriodSample::from_period(&r.body) {
            n_periods += 1;
            let over = (s.power_w - s.cap_w).max(0.0);
            if over > 0.0 {
                over_periods += 1;
                sum_over += over;
                max_over = max_over.max(over);
            }
            for e in analyzer.observe(&s).into_iter().flatten() {
                let _ = writeln!(
                    firings,
                    "  period={} t_s={} {} {} -> {}",
                    r.period,
                    r.sim_time_s,
                    e.detector,
                    e.from.label(),
                    e.to.label()
                );
            }
        }
        match &r.body {
            Body::TierChange {
                from, to, reason, ..
            } => {
                let _ = writeln!(
                    timeline,
                    "  period={} t_s={} {} -> {} ({reason})",
                    r.period,
                    r.sim_time_s,
                    tier_name(*from),
                    tier_name(*to),
                );
            }
            // Sampled above, folded by replay, or not part of the report.
            Body::Period { .. }
            | Body::ModelGain { .. }
            | Body::Identified { .. }
            | Body::Quarantine { .. }
            | Body::Refit { .. }
            | Body::Health { .. }
            | Body::SetpointChange { .. }
            | Body::Recovered { .. }
            | Body::RunStart { .. }
            | Body::RunEnd { .. }
            | Body::FaultOnset { .. }
            | Body::FaultClear { .. }
            | Body::PhaseTransition { .. }
            | Body::KvPressure { .. }
            | Body::MeterStale { .. }
            | Body::SloFloorBinding { .. }
            | Body::DsCarryWraps { .. }
            | Body::Unknown { .. } => {}
        }
    }
    let _ = writeln!(out, "tier timeline");
    if timeline.is_empty() {
        timeline.push_str("  (no transitions: primary throughout)\n");
    }
    let _ = writeln!(out, "{timeline}");
    let _ = writeln!(out, "detector firings");
    if firings.is_empty() {
        firings.push_str("  (none)\n");
    }
    out.push_str(&firings);
    let verdicts = analyzer.verdicts();
    let finals = verdicts
        .iter()
        .map(|(name, v)| format!("{name}={}", v.label()))
        .collect::<Vec<_>>()
        .join(" ");
    let _ = writeln!(out, "  final: {finals}");
    let _ = writeln!(out, "  overall: {}", analyzer.overall().label());
    let _ = writeln!(out);

    // --- burn summary ---
    let _ = writeln!(out, "burn summary");
    let _ = writeln!(
        out,
        "  periods={} over_cap={} ({:.1}%)",
        n_periods,
        over_periods,
        if n_periods > 0 {
            100.0 * over_periods as f64 / n_periods as f64
        } else {
            0.0
        }
    );
    let _ = writeln!(
        out,
        "  overage: max={} W mean_over_violations={} W",
        fmt_w(max_over),
        fmt_w(if over_periods > 0 {
            sum_over / over_periods as f64
        } else {
            0.0
        })
    );
    // No record carries an SLO observation (ROADMAP 4).
    let _ = writeln!(out, "  slo_miss: mean={:.4}", 0.0);

    PostMortem {
        text: out,
        verdicts,
        overall: analyzer.overall(),
        state,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::parse_segment;

    fn scan_of(text: &str) -> JournalScan {
        let mut records = Vec::new();
        let torn_tail = parse_segment(text.as_bytes(), "<t>", true, &mut records)
            .unwrap()
            .torn_tail;
        JournalScan {
            records,
            segments: Vec::new(),
            torn_tail,
        }
    }

    #[test]
    fn report_is_deterministic_and_covers_sections() {
        let text = concat!(
            "{\"v\":1,\"period\":0,\"t_s\":0,\"kind\":\"model_gain\",\"device\":0,\"w_per_mhz\":0.35}\n",
            "{\"v\":1,\"period\":0,\"t_s\":0,\"kind\":\"identified\",\"offset_w\":210}\n",
            "{\"v\":1,\"period\":1,\"t_s\":4,\"kind\":\"period\",\"watts\":880,\"setpoint\":900,\"targets\":\"1350\"}\n",
            "{\"v\":1,\"period\":2,\"t_s\":8,\"kind\":\"tier_change\",\"from\":0,\"to\":1,\"reason\":\"stale_meter\"}\n",
            "{\"v\":1,\"period\":3,\"t_s\":12,\"kind\":\"period\",\"watts\":930,\"setpoint\":900,\"targets\":\"1300\"}\n",
        );
        let scan = scan_of(text);
        let a = render(&scan);
        let b = render(&scan);
        assert_eq!(a.text, b.text);
        for needle in [
            "capgpu-obs post-mortem",
            "tier timeline",
            "primary -> safe-fallback (stale_meter)",
            "detector firings",
            "burn summary",
            "over_cap=1",
            "last_targets_mhz=[1300]",
        ] {
            assert!(
                a.text.contains(needle),
                "missing {needle:?} in:\n{}",
                a.text
            );
        }
        assert_eq!(a.state.tier, Some(1));
    }

    #[test]
    fn empty_journal_renders_without_panicking() {
        let scan = JournalScan::default();
        let pm = render(&scan);
        assert!(pm.text.contains("records=0"));
        assert!(pm.text.contains("(no transitions"));
        assert_eq!(pm.overall, Verdict::Ok);
    }
}
