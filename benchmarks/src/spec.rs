//! The benchmark's declarations: workloads, end-to-end metrics with
//! their regression bounds, and the names of the per-layer ledger.
//! `BENCHMARK.json` at the repository root is generated from these
//! tables (`--emit-spec`) and a test keeps the two in step. What each
//! ledger entry should move, on which workload, was written down before
//! measuring and is the interaction table in `README.md`.

use std::fmt::Write as _;

/// Seconds one run measures on the reference host.
pub const RUN_SECONDS: u64 = 10;

/// Seed of the reference pass every workload runs next to its timed
/// loop. The simulated metrics come from it, so they repeat to the bit
/// whatever `--seed` the timed loop was given.
pub const REFERENCE_SEED: u64 = 42;

/// The contract's bounds are relative, so a simulated metric that is
/// exactly zero (no excess, no misses) is reported as this instead.
pub const SIMULATED_FLOOR: f64 = 1e-9;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "runner_cnn",
        why: "paper_testbed closed loop via ExperimentRunner::run: workload::pipeline and sim tick dominate; MPC, journal and obs do almost nothing",
    },
    Workload {
        name: "runner_llm",
        why: "same runner loop on llm_testbed: LlmEngine and TTFT/ITL trackers replace the pipeline, so per-request bookkeeping cost shows here and not on runner_cnn",
    },
    Workload {
        name: "daemon_steady",
        why: "8-GPU Daemon::step_period with the durable journal on: MPC, supervisor, journal encoding and rotation dominate; workload/serve/llm are bypassed; the journal's write side",
    },
    Workload {
        name: "fleet_mixed",
        why: "48 mixed-generation serving servers in FleetSim: water-filling, reorder-window fold, balancer and the runner leaf over ServeEngine; the only multi-threaded workload",
    },
    Workload {
        name: "journal_recover",
        why: "journal read side: a 2-GPU daemon's events are appended, crashed unsealed, scanned, replayed and a daemon restarted from them; bypasses the plant-heavy layers",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host time or host memory: moves a little from run to run.
    Host,
    /// A statistic of the reference pass: repeats exactly.
    Simulated,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    pub kind: Kind,
    /// Workloads that measure this metric. The driver's contract has
    /// every workload print every metric, so the others print a fill
    /// (`report::fill_inapplicable`): a copy, in this metric's unit, of
    /// a figure the workload did measure, or zero for a simulated one.
    pub measured_on: &'static [&'static str],
}

const ALL: &[&str] = &[
    "runner_cnn",
    "runner_llm",
    "daemon_steady",
    "fleet_mixed",
    "journal_recover",
];
const DAEMONS: &[&str] = &["daemon_steady", "journal_recover"];
const JOURNAL: &[&str] = &["journal_recover"];
const SET_POINT_LOOPS: &[&str] = &[
    "runner_cnn",
    "runner_llm",
    "daemon_steady",
    "journal_recover",
];

/// Host-time bounds are three times the widest ten-seed interquartile
/// spread seen on the reference host (README, "Noise"), capped at the
/// contract's 25 %. A bound holds for every workload, fills included,
/// so the noisiest workload sets it. Simulated bounds are the issue's
/// 0.5 %, which on `settle_periods` (whole periods, below 200) means any
/// increase.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::Host,
        measured_on: ALL,
    },
    EndToEnd {
        name: "periods_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        kind: Kind::Host,
        measured_on: ALL,
    },
    EndToEnd {
        name: "step_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::Host,
        measured_on: DAEMONS,
    },
    EndToEnd {
        name: "journal_write_records_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        kind: Kind::Host,
        measured_on: JOURNAL,
    },
    EndToEnd {
        name: "journal_replay_records_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        kind: Kind::Host,
        measured_on: JOURNAL,
    },
    EndToEnd {
        name: "recover_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::Host,
        measured_on: JOURNAL,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.1,
        kind: Kind::Host,
        measured_on: ALL,
    },
    EndToEnd {
        name: "cap_err_w",
        unit: "W",
        better: Better::Lower,
        bound: 0.005,
        kind: Kind::Simulated,
        measured_on: ALL,
    },
    EndToEnd {
        name: "cap_excess_ws",
        unit: "W.s",
        better: Better::Lower,
        bound: 0.005,
        kind: Kind::Simulated,
        measured_on: SET_POINT_LOOPS,
    },
    EndToEnd {
        name: "settle_periods",
        unit: "periods",
        better: Better::Lower,
        bound: 0.005,
        kind: Kind::Simulated,
        measured_on: SET_POINT_LOOPS,
    },
    EndToEnd {
        name: "slo_miss_pct",
        unit: "%",
        better: Better::Lower,
        bound: 0.005,
        kind: Kind::Simulated,
        measured_on: &["runner_llm", "fleet_mixed"],
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

use Better::{Higher, Lower};

/// The ledger. A layer a workload bypasses reads 0 on that workload.
pub const PER_LAYER: &[Layer] = &[
    // core.runner — the experiment loop itself.
    layer("core.runner.span_period_us", "us", Lower),
    layer("core.runner.span_sense_us", "us", Lower),
    layer("core.runner.span_solve_us", "us", Lower),
    layer("core.runner.span_actuate_us", "us", Lower),
    layer("core.runner.span_serve_drain_us", "us", Lower),
    layer("core.runner.control_call_us", "us", Lower),
    layer("core.runner.outside_span_us", "us", Lower),
    layer("core.runner.identify_ms", "ms", Lower),
    layer("core.runner.long_run_ratio", "ratio", Lower),
    layer("core.runner.periods", "count", Higher),
    // core.daemon — one step_period.
    layer("core.daemon.step_p99_us", "us", Lower),
    layer("core.daemon.step_p999_us", "us", Lower),
    layer("core.daemon.self_us", "us", Lower),
    layer("core.daemon.journal_on_delta_us", "us", Lower),
    layer("core.daemon.events_per_period", "count", Lower),
    layer("core.daemon.refits", "count", Lower),
    layer("core.daemon.tier_changes", "count", Lower),
    layer("core.daemon.journal_events_resident", "count", Lower),
    // backend — the sense/actuate seam.
    layer("backend.advance_us", "us", Lower),
    layer("backend.actuate_us", "us", Lower),
    layer("backend.sense_us", "us", Lower),
    layer("backend.calls_per_period", "count", Lower),
    layer("backend.dyn_advance_ns", "ns", Lower),
    // sim — the plant tick.
    layer("sim.tick_second_ns", "ns", Lower),
    layer("sim.tick_share_pct", "%", Lower),
    layer("sim.ticks", "count", Higher),
    // workload — pipeline, monitors, SLO trackers.
    layer("workload.pipeline_advance_ns", "ns", Lower),
    layer("workload.pipeline_share_pct", "%", Lower),
    layer("workload.monitor_record_ns", "ns", Lower),
    layer("workload.slo_record_ns", "ns", Lower),
    layer("workload.slo_miss_rate_ns_at_100k", "ns", Lower),
    // control, optim, linalg, weights, supervisor — the control stack.
    layer("control.mpc_step_warm_ns_n4", "ns", Lower),
    layer("control.mpc_step_warm_ns_n9", "ns", Lower),
    layer("control.mpc_step_after_setpoint_ns_n4", "ns", Lower),
    layer("control.mpc_step_after_setpoint_ns_n9", "ns", Lower),
    layer("control.mpc_share_pct", "%", Lower),
    layer("control.qp_iterations_mean", "count", Lower),
    layer("control.modulator_next_level_ns", "ns", Lower),
    layer("control.sysid_fit_ms", "ms", Lower),
    layer("optim.boxqp_solve_ns_n9", "ns", Lower),
    layer("linalg.lstsq_fit_us", "us", Lower),
    layer("core.weights.penalties_ns", "ns", Lower),
    layer("core.supervisor.step_ns", "ns", Lower),
    // serve / llm — request-level plants.
    layer("serve.advance_second_us", "us", Lower),
    layer("serve.events", "count", Higher),
    layer("serve.events_per_s", "1/s", Higher),
    layer("serve.share_pct", "%", Lower),
    layer("llm.advance_second_us", "us", Lower),
    layer("llm.tokens", "count", Higher),
    layer("llm.tokens_per_s", "1/s", Higher),
    layer("llm.preemptions", "count", Lower),
    layer("llm.share_pct", "%", Lower),
    // telemetry — journal emission and the metric registry.
    layer("telemetry.event_to_json_ns", "ns", Lower),
    layer("telemetry.registry_set_ns", "ns", Lower),
    layer("telemetry.prometheus_text_us", "us", Lower),
    layer("telemetry.json_bytes_per_record", "B", Lower),
    // obs — journal consumption.
    layer("obs.writer_append_ns", "ns", Lower),
    layer("obs.writer_seal_us", "us", Lower),
    layer("obs.crc32_mib_per_s", "MiB/s", Higher),
    layer("obs.parse_record_ns", "ns", Lower),
    layer("obs.read_dir_records_per_s", "1/s", Higher),
    layer("obs.replay_apply_ns", "ns", Lower),
    layer("obs.analyzer_observe_ns", "ns", Lower),
    layer("obs.rss_bytes_per_record", "B", Lower),
    layer("obs.records_written", "count", Higher),
    layer("obs.segments_sealed", "count", Higher),
    layer("obs.records_read", "count", Higher),
    layer("obs.retained_pct", "%", Higher),
    layer("obs.journal_share_pct", "%", Lower),
    // fleet.
    layer("fleet.divide_us", "us", Lower),
    layer("fleet.plan_us", "us", Lower),
    layer("fleet.leaf_period_us", "us", Lower),
    layer("fleet.vs_runner_ratio", "ratio", Lower),
    layer("fleet.thread_scaling", "ratio", Higher),
    layer("fleet.peak_pending", "count", Lower),
    layer("fleet.sim_new_ms", "ms", Lower),
    // Per workload: what the ledger could not attribute, what tracing cost.
    layer("unattributed_pct", "%", Lower),
    layer("trace_overhead_pct", "%", Lower),
];

/// Where the benchmark lives, relative to the repository root.
pub const PATH: &str = "benchmarks";

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `BENCHMARK.json`: exactly the keys the driver's contract names.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmarks/Cargo.toml",
        "--",
    ];
    let quoted: Vec<String> = command.iter().map(|s| json_string(s)).collect();
    let _ = writeln!(out, "  \"command\": [{}],", quoted.join(", "));
    let _ = writeln!(out, "  \"paths\": [{}],", json_string(PATH));
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{sep}",
            json_string(w.name),
            json_string(w.why)
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}",
            json_string(m.name),
            json_string(m.unit),
            json_string(m.better.as_str()),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}",
            json_string(m.name),
            json_string(m.unit),
            json_string(m.better.as_str())
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn declarations_stay_within_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_unit(m.unit), "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn every_metric_is_explained_in_the_readme() {
        // BENCHMARK.json can carry names, units and bounds only; what a
        // ledger entry should move, and on which workload, is in the
        // README's tables.
        let readme = include_str!("../README.md");
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
        {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README.md does not mention `{name}`"
            );
        }
    }

    #[test]
    fn measured_on_names_real_workloads() {
        for m in END_TO_END {
            assert!(!m.measured_on.is_empty(), "{}", m.name);
            for w in m.measured_on {
                assert!(WORKLOADS.iter().any(|x| x.name == *w), "{}: {w}", m.name);
            }
        }
    }

    #[test]
    fn benchmark_json_at_the_root_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(
            on_disk == benchmark_json(),
            "regenerate with `cargo run --release -- --emit-spec > ../BENCHMARK.json`"
        );
    }
}
