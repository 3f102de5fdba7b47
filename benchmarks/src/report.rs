//! What one workload run hands back: named metric values, the
//! operation count, and the outcome of its correctness checks.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::spec;
use crate::stats::{fast_decile, median};

/// Correctness checks of one run. A failed check fails the operations
/// it covers rather than passing silently: they are counted in
/// `failed` and the run reports `correct: false`.
#[derive(Debug, Default)]
pub struct Checks {
    pub failed_ops: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Records a check over `ops` operations.
    pub fn check(&mut self, ok: bool, ops: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed_ops += ops.max(1);
            self.failures.push(what());
        }
    }

    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// One finished workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: control periods, server-periods, journal
    /// records.
    pub attempted: u64,
    pub checks: Checks,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Digest of the reference pass's `(power, set-point)` stream.
    pub reference_digest: u64,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let prev = self.metrics.insert(name, value);
        assert!(prev.is_none(), "metric {name} set twice");
    }

    /// Sets a host-time metric to the fast decile of `times` (already
    /// in the metric's unit) and says on standard error what stands
    /// behind it: the median and the sample count.
    pub fn set_time(&mut self, name: &'static str, times: &[f64]) {
        let fast = fast_decile(times);
        eprintln!(
            "  {name}: {fast:.6} (fast decile; median {:.6}, {} samples)",
            median(times),
            times.len()
        );
        self.set(name, fast);
    }

    /// Sets a throughput metric: `work` units per sample, one sample
    /// per entry of `seconds`.
    pub fn set_rate(&mut self, name: &'static str, work: f64, seconds: &[f64]) {
        let fast = work / fast_decile(seconds);
        eprintln!(
            "  {name}: {fast:.3} (fast decile; median {:.3}, {} samples)",
            work / median(seconds),
            seconds.len()
        );
        self.set(name, fast);
    }
}

/// Completes the end-to-end family of `workload`. The driver's contract
/// has every workload print every end-to-end metric, and none may be
/// zero; the issue's table has each workload measure only the metrics
/// that mean something on it. A cell the workload did not measure is
/// filled: a host-time cell with the workload's own period rate in the
/// cell's unit — periods per second where the cell is a rate, one
/// thread's host time per period (`threads` ÷ `periods_per_s`) where it
/// is a time — and a simulated cell with zero (nothing to settle, no
/// SLO-bound request).
///
/// A fill cannot regress on its own and says nothing `periods_per_s`
/// does not. Simulated zeros, filled or measured, become
/// [`spec::SIMULATED_FLOOR`].
///
/// # Panics
/// If the workload measured a metric it is not declared to measure, or
/// skipped one it is: a bug in the benchmark.
pub fn fill_inapplicable(outcome: &mut Outcome, workload: &str, threads: usize) {
    for m in spec::END_TO_END {
        let declared = m.measured_on.contains(&workload);
        assert_eq!(
            declared,
            outcome.metrics.contains_key(m.name),
            "{workload}: {} measured against its declaration",
            m.name
        );
    }
    let periods_per_s = outcome.metrics["periods_per_s"];
    let period_s = threads as f64 / periods_per_s;
    for m in spec::END_TO_END {
        let value = outcome
            .metrics
            .entry(m.name)
            .or_insert_with(|| match (m.kind, m.name) {
                (spec::Kind::Simulated, _) => 0.0,
                (_, "step_p50_us") => period_s * 1e6,
                (_, "recover_ms") => period_s * 1e3,
                (_, "journal_write_records_per_s" | "journal_replay_records_per_s") => {
                    periods_per_s
                }
                (_, other) => panic!("no fill rule for {other}"),
            });
        if m.kind == spec::Kind::Simulated {
            *value = value.max(spec::SIMULATED_FLOOR);
        }
    }
}

/// Which of the two metric families a run prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `--trace 0`: every end-to-end metric.
    EndToEnd,
    /// `--trace 1`: every per-layer metric; a layer the workload
    /// bypasses reads 0.
    PerLayer,
}

impl Family {
    /// `(name, unit)` of every metric of the family, in declared order.
    pub fn declared(self) -> Vec<(&'static str, &'static str)> {
        match self {
            Family::EndToEnd => spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
            Family::PerLayer => spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect(),
        }
    }
}

/// Renders the result line the driver parses: exactly the keys
/// `correct`, `attempted`, `failed`, `metrics`, and under `metrics`
/// exactly the declared names of the family.
///
/// # Panics
/// If the run produced a name the spec does not declare, left an
/// end-to-end metric unset, or produced a non-finite value — each is a
/// bug in the benchmark, not a measurement.
pub fn result_line(outcome: &Outcome, family: Family) -> String {
    let declared = family.declared();
    for name in outcome.metrics.keys() {
        assert!(
            declared.iter().any(|(n, _)| n == name),
            "metric {name} is not declared for this family"
        );
    }
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.checks.all_passed(),
        outcome.attempted.max(1),
        outcome.checks.failed_ops.min(outcome.attempted.max(1)),
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = match (outcome.metrics.get(name), family) {
            (Some(v), _) => *v,
            (None, Family::PerLayer) => 0.0,
            (None, Family::EndToEnd) => panic!("end-to-end metric {name} was not measured"),
        };
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        if i > 0 {
            out.push_str(", ");
        }
        // `{}` on f64 prints the shortest digits that round-trip: the
        // value as measured, nothing rounded away.
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal structural JSON check: balanced braces/quotes outside
    /// strings, and the metric keys in order.
    fn metric_names(line: &str) -> Vec<String> {
        let metrics = line.split("\"metrics\": {").nth(1).expect("metrics key");
        metrics
            .split("\": {\"value\"")
            .filter_map(|chunk| chunk.rsplit('"').next())
            .filter(|s| !s.is_empty() && !s.contains('}'))
            .map(str::to_string)
            .collect()
    }

    fn full_outcome(family: Family) -> Outcome {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        match family {
            Family::EndToEnd => {
                for m in spec::END_TO_END {
                    o.set(m.name, 1.5);
                }
            }
            Family::PerLayer => o.set(spec::PER_LAYER[0].name, 2.0),
        }
        o
    }

    #[test]
    fn result_line_carries_exactly_the_declared_names() {
        for family in [Family::EndToEnd, Family::PerLayer] {
            let declared: Vec<&str> = family.declared().iter().map(|(n, _)| *n).collect();
            let line = result_line(&full_outcome(family), family);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
            assert_eq!(line.matches('{').count(), line.matches('}').count());
            assert_eq!(line.matches('"').count() % 2, 0);
            assert_eq!(metric_names(&line), declared);
        }
    }

    #[test]
    fn inapplicable_cells_are_filled_from_measured_ones() {
        let mut o = Outcome::default();
        for m in spec::END_TO_END {
            if m.measured_on.contains(&"fleet_mixed") {
                o.set(
                    m.name,
                    match m.name {
                        "periods_per_s" => 10_000.0,
                        "setup_s" => 0.013,
                        "slo_miss_pct" => 41.2,
                        _ => 7.0,
                    },
                );
            }
        }
        fill_inapplicable(&mut o, "fleet_mixed", 2);
        assert_eq!(o.metrics["step_p50_us"], 200.0);
        assert_eq!(o.metrics["recover_ms"], 0.2);
        assert_eq!(o.metrics["journal_write_records_per_s"], 10_000.0);
        assert_eq!(o.metrics["journal_replay_records_per_s"], 10_000.0);
        assert_eq!(o.metrics["settle_periods"], spec::SIMULATED_FLOOR);
        assert_eq!(o.metrics["cap_excess_ws"], spec::SIMULATED_FLOOR);
        // Measured cells stay as measured.
        assert_eq!(o.metrics["slo_miss_pct"], 41.2);
        assert_eq!(o.metrics.len(), spec::END_TO_END.len());
        assert!(o.metrics.values().all(|v| *v != 0.0));
    }

    #[test]
    #[should_panic(expected = "against its declaration")]
    fn a_cell_measured_against_its_declaration_is_refused() {
        let mut o = full_outcome(Family::EndToEnd);
        fill_inapplicable(&mut o, "runner_cnn", 1);
    }

    #[test]
    fn a_failed_check_fails_its_operations() {
        let mut o = full_outcome(Family::EndToEnd);
        o.checks.check(false, 4, || "segment 3 diverged".into());
        let line = result_line(&o, Family::EndToEnd);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 4,"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn an_undeclared_metric_is_refused() {
        let mut o = full_outcome(Family::EndToEnd);
        o.set("made_up", 1.0);
        let _ = result_line(&o, Family::EndToEnd);
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_end_to_end_metric_is_refused() {
        let o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        let _ = result_line(&o, Family::EndToEnd);
    }
}
