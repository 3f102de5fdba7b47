//! Performance invariants: four checks on the control loop's hot paths
//! that need no committed reference, because each compares two timings
//! taken in the same run or bounds a nanosecond-scale primitive by a
//! ceiling an order of magnitude above it.
//!
//! Two within-run ratio floors — the supervisor at most 5% of one MPC
//! control step, the journal's float renderer at most two thirds of
//! std's `{}` on the same values — and two absolute ceilings: 50 ns per
//! telemetry record, 500 ns per traced span pair. Every verdict is
//! printed and the process exits nonzero iff one says FAIL. There is one
//! mode, no input file and no environment knob; arguments are ignored.
//!
//! Host-time figures (what a solve, a tick or a period costs on this
//! machine, and whether that moved) are the repo benchmark's job: see
//! `benchmarks/` and its committed ledger `benchmarks/BASELINE.txt`.
//!
//! Run with: `cargo run --release -p capgpu-bench --bin perf_snapshot`

use capgpu::controllers::ControlInput;
use capgpu::prelude::*;
use std::process::ExitCode;
use std::time::Instant;

/// Absolute ceiling for one telemetry metric record (counter/gauge/
/// histogram), ns: a fully instrumented control period must stay
/// invisible next to the MPC solve it observes.
const TELEMETRY_RECORD_BUDGET_NS: f64 = 50.0;

/// Absolute ceiling for one traced span enter/exit pair (two
/// `Instant::now()` reads plus the stack bookkeeping), ns.
const SPAN_PAIR_BUDGET_NS: f64 = 500.0;

/// One invariant, `(name, measured_ns, limit_ns)`: the measured time
/// must not exceed the limit.
type Check = (&'static str, f64, f64);

/// Written as `<=` so that a NaN on either side fails the check instead
/// of slipping through a negated `>`.
fn within(measured_ns: f64, limit_ns: f64) -> bool {
    measured_ns <= limit_ns
}

/// Prints every verdict and returns whether all of them passed. The exit
/// status is derived from this alone, so a verdict cannot be printed
/// without also reaching it.
fn report(checks: &[Check]) -> bool {
    let mut all_ok = true;
    for &(name, measured_ns, limit_ns) in checks {
        let ok = within(measured_ns, limit_ns);
        all_ok &= ok;
        let detail = format!("measured {measured_ns:.1} ns, limit {limit_ns:.1} ns");
        capgpu_bench::fmt::check(name, ok, &detail);
    }
    all_ok
}

/// Best-of-`repeats` wall time of `f`, in ns per one of the `calls`
/// operations each invocation performs. Single-shot timings on a busy
/// host jitter by ±40% while minima are stable, and both sides of every
/// ratio floor use this same estimator.
fn best_ns_per_call(repeats: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best * 1e9 / calls as f64
}

/// One full `control()` call of the paper testbed's CapGPU controller
/// (weight assignment + MPC solve + modulation), ns: the yardstick the
/// supervisor's cost is held against, since the two run in series on
/// every period. Driven as the runner drives it — measured throughput,
/// and with it the weight vector, differs from one period to the next —
/// here from a mid-range operating point with no bound active.
fn control_step_ns() -> f64 {
    const CALLS: usize = 100;
    let mut runner = ExperimentRunner::new(Scenario::paper_testbed(42), 900.0).expect("runner");
    let mut controller = runner.build_capgpu_controller().expect("controller");
    let layout = runner.layout();
    let n = layout.len();
    let throughputs = [vec![0.8; n], (0..n).map(|j| 0.6 + 0.1 * j as f64).collect()];
    let dev_power = vec![150.0; n];
    let targets: Vec<f64> = (layout.f_min.iter().zip(&layout.f_max))
        .map(|(lo, hi)| 0.5 * (lo + hi))
        .collect();
    best_ns_per_call(3, CALLS, || {
        for call in 0..CALLS {
            let input = ControlInput {
                measured_power: 950.0,
                setpoint: 900.0,
                current_targets: &targets,
                normalized_throughput: &throughputs[call % 2],
                device_power: &dev_power,
                floors: &layout.f_min,
                phase_mix: None,
            };
            std::hint::black_box(controller.control(&input).expect("control"));
        }
    })
}

/// Supervisor hot path: one `step()` per control period, ingesting the
/// period's health evidence and returning the failover directive.
fn supervisor_overhead_ns() -> f64 {
    const STEPS: usize = 10_000;
    let gains = vec![0.035, 0.095, 0.095, 0.095];
    let mut sup = Supervisor::new(SupervisorConfig::default(), gains, 4).expect("supervisor");
    let applied = [2000.0, 900.0, 910.0, 920.0];
    let ejected = [false; 4];
    let mut round = 0usize;
    best_ns_per_call(3, STEPS, || {
        for i in 0..STEPS {
            // Alternate applied vectors so the residual window stays hot
            // (the realistic steady state) without tripping authority.
            let shift = ((round * STEPS + i) % 3) as f64;
            let obs = HealthSample {
                fresh_samples: 4,
                meter_age_s: Some(0),
                avg_power: 900.0 + shift,
                setpoint: 900.0,
                psu_limit: None,
                applied_mean: &[
                    applied[0] + shift,
                    applied[1],
                    applied[2] + shift,
                    applied[3],
                ],
                ejected: &ejected,
            };
            std::hint::black_box(sup.step(&obs));
        }
        round += 1;
    })
}

/// Telemetry record hot path: one fully labeled metric record (counter
/// increment + gauge set + histogram observe, averaged over the three).
fn telemetry_record_ns() -> f64 {
    use capgpu_telemetry::registry::Registry;
    const ROUNDS: usize = 300_000;
    let mut reg = Registry::new();
    let c = reg.counter("bench_records_total", &[("device", "gpu0")]);
    let g = reg.gauge("bench_power_watts", &[("device", "gpu0")]);
    let h = reg.histogram(
        "bench_error_watts",
        &[("device", "gpu0")],
        &[0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0],
    );
    // Three primitive records per loop iteration.
    best_ns_per_call(3, 3 * ROUNDS, || {
        for i in 0..ROUNDS {
            let v = (i % 128) as f64;
            reg.inc(c, 1);
            reg.set(g, v);
            reg.observe(h, v);
        }
        std::hint::black_box(&reg);
    })
}

/// Span enter/exit pair on the trace stack (wall-clock mode, the
/// expensive path — the deterministic default compiles the pair down to
/// two no-op calls).
fn span_enter_exit_ns() -> f64 {
    use capgpu_telemetry::spans::SpanStack;
    const PAIRS: usize = 100_000;
    let mut spans = SpanStack::new();
    let id = spans.span("bench_span");
    best_ns_per_call(3, PAIRS, || {
        for _ in 0..PAIRS {
            spans.enter(id);
            std::hint::black_box(spans.exit());
        }
    })
}

/// Per-value float render times `(journal, std)` in ns: the journal's
/// `push_json_f64` against `{}` on daemon-like values — clock targets
/// between 500 and 2000 MHz carrying 16–17 significant digits, as an
/// MPC solve leaves them — rendered into one reused buffer.
fn float_render_ns() -> (f64, f64) {
    use capgpu_telemetry::journal::push_json_f64;
    use std::fmt::Write as _;
    const VALUES: usize = 4_096;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let values: Vec<f64> = (0..VALUES)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            500.0 + 1500.0 * (state >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect();
    let mut out = String::with_capacity(24 * VALUES);
    // The two sides take turns, so that a host that changes speed partway
    // through shows both minima the same fast stretches.
    let (mut journal, mut std) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        journal = journal.min(best_ns_per_call(3, VALUES, || {
            out.clear();
            for &v in &values {
                push_json_f64(&mut out, v);
            }
            std::hint::black_box(&out);
        }));
        std = std.min(best_ns_per_call(3, VALUES, || {
            out.clear();
            for &v in &values {
                let _ = write!(out, "{v}");
            }
            std::hint::black_box(&out);
        }));
    }
    (journal, std)
}

fn main() -> ExitCode {
    let (render_journal, render_std) = float_render_ns();
    let control_ns = control_step_ns();
    let checks = [
        (
            "supervisor vs 5% of control step",
            supervisor_overhead_ns(),
            0.05 * control_ns,
        ),
        (
            "journal float render vs std {} / 1.5",
            render_journal,
            render_std / 1.5,
        ),
        (
            "telemetry record",
            telemetry_record_ns(),
            TELEMETRY_RECORD_BUDGET_NS,
        ),
        ("span enter+exit", span_enter_exit_ns(), SPAN_PAIR_BUDGET_NS),
    ];
    if report(&checks) {
        println!("perf invariants hold");
        ExitCode::SUCCESS
    } else {
        println!("perf invariants FAILED");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceiling_verdicts() {
        for (measured, limit, passes) in [
            (50.0, 50.0, true),
            (2.5, 50.0, true),
            (50.000_001, 50.0, false),
            (f64::INFINITY, 50.0, false),
            (f64::NAN, 50.0, false),
            (2.5, f64::NAN, false),
        ] {
            assert_eq!(within(measured, limit), passes, "{measured} vs {limit}");
        }
    }

    #[test]
    fn any_failed_verdict_fails_the_report() {
        let (ok, bad, nan) = (("t", 1.0, 2.0), ("t", 3.0, 2.0), ("t", f64::NAN, 2.0));
        assert!(report(&[]));
        assert!(report(&[ok, ok, ok]));
        for failing in [[bad, ok, ok], [ok, bad, ok], [ok, ok, bad], [ok, nan, ok]] {
            assert!(!report(&failing));
        }
    }
}
