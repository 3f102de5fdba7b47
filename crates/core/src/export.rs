//! Trace export: CSV serialization of [`RunTrace`] for re-plotting the
//! paper's figures with external tooling.
//!
//! Layout: one row per control period with flattened per-device and
//! per-task columns, so the file loads directly into pandas/gnuplot.

use std::fmt::Write as _;

use crate::runner::RunTrace;

/// Renders a trace as CSV (header + one row per period).
pub fn trace_to_csv(trace: &RunTrace) -> String {
    let mut out = String::new();
    let (n_dev, n_task) = trace
        .records
        .first()
        .map(|r| (r.targets.len(), r.gpu_throughput.len()))
        .unwrap_or((0, 0));

    // Supervisor/fault columns only appear when the trace carries fault
    // evidence — an all-healthy trace (every published figure) keeps the
    // exact pre-fault column set, byte for byte.
    let fault_cols = trace
        .records
        .iter()
        .any(|r| r.supervisor_tier != 0 || r.meter_stale);

    // Span-timing columns appear only when telemetry span tracing was on
    // (any nonzero wall time) — the default trace keeps the published
    // column set byte for byte, same gating idea as the fault columns.
    let span_cols = trace
        .records
        .iter()
        .any(|r| r.solve_ns != 0 || r.actuate_ns != 0);

    // Header.
    out.push_str("period,setpoint_w,power_w,cpu_throughput,mem_escape");
    for d in 0..n_dev {
        let _ = write!(out, ",target_mhz_{d},applied_mhz_{d}");
    }
    for t in 0..n_task {
        let _ = write!(
            out,
            ",thr_img_s_t{t},lat_s_t{t},slo_s_t{t},misses_t{t},batches_t{t},floor_mhz_t{t}"
        );
    }
    if fault_cols {
        out.push_str(",supervisor_tier,meter_stale");
    }
    if span_cols {
        out.push_str(",solve_ns,actuate_ns");
    }
    out.push('\n');

    for r in &trace.records {
        let _ = write!(
            out,
            "{},{:.3},{:.3},{:.3},{}",
            r.period, r.setpoint, r.avg_power, r.cpu_throughput, r.memory_escape_active as u8
        );
        for d in 0..n_dev {
            let _ = write!(out, ",{:.3},{:.3}", r.targets[d], r.applied_mean[d]);
        }
        for t in 0..n_task {
            let _ = write!(
                out,
                ",{:.4},{:.6},{},{},{},{:.1}",
                r.gpu_throughput[t],
                r.gpu_mean_latency[t],
                r.slo[t].map(|s| format!("{s:.6}")).unwrap_or_default(),
                r.slo_misses[t],
                r.batches[t],
                // Floors are per *device*; task t maps to GPU device — the
                // trace stores the full device vector, find the GPU slice
                // offset (devices = CPUs then GPUs by convention).
                r.floors[r.floors.len() - n_task + t],
            );
        }
        if fault_cols {
            let _ = write!(out, ",{},{}", r.supervisor_tier, r.meter_stale as u8);
        }
        if span_cols {
            let _ = write!(out, ",{},{}", r.solve_ns, r.actuate_ns);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scenario;
    use crate::runner::ExperimentRunner;

    #[test]
    fn csv_roundtrip_shape() {
        let mut runner = ExperimentRunner::new(Scenario::paper_testbed(3), 900.0).unwrap();
        let controller = runner.build_capgpu_controller().unwrap();
        let trace = runner.run(controller, 10).unwrap();
        let csv = trace_to_csv(&trace);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 11, "header + 10 periods");
        let header_cols = lines[0].split(',').count();
        for (i, line) in lines.iter().enumerate().skip(1) {
            assert_eq!(line.split(',').count(), header_cols, "row {i} column count");
        }
        assert!(lines[0].starts_with("period,setpoint_w,power_w"));
        assert!(lines[0].contains("floor_mhz_t2"));
        // First data row starts with period 0 and the 900 W set point.
        assert!(lines[1].starts_with("0,900.000"));
    }

    #[test]
    fn fault_columns_are_gated() {
        // Healthy trace: no supervisor columns (published CSVs are
        // byte-stable across the faults feature).
        let mut runner = ExperimentRunner::new(Scenario::paper_testbed(3), 900.0).unwrap();
        let controller = runner.build_capgpu_controller().unwrap();
        let healthy = runner.run(controller, 5).unwrap();
        assert!(!trace_to_csv(&healthy).contains("supervisor_tier"));

        // Storm trace: tier/stale columns appear on every row.
        let scenario = Scenario::fault_testbed(7)
            .with_supervisor(crate::supervisor::SupervisorConfig::default());
        let mut runner = ExperimentRunner::new(scenario, 1000.0).unwrap();
        let controller = runner.build_capgpu_controller().unwrap();
        let stormy = runner.run(controller, 30).unwrap();
        let csv = trace_to_csv(&stormy);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].ends_with(",supervisor_tier,meter_stale"));
        let header_cols = lines[0].split(',').count();
        assert!(lines[1..]
            .iter()
            .all(|l| l.split(',').count() == header_cols));
    }

    #[test]
    fn telemetry_keeps_csv_byte_identical_until_spans_opt_in() {
        use capgpu_telemetry::TelemetryConfig;

        // Telemetry on (deterministic config): published CSV bytes are
        // unchanged — recording must never perturb the simulation, and
        // the solve/actuate columns stay gated off while every span
        // timing is zero.
        let mut plain = ExperimentRunner::new(Scenario::paper_testbed(3), 900.0).unwrap();
        let controller = plain.build_capgpu_controller().unwrap();
        let off = plain.run(controller, 8).unwrap();

        let scenario = Scenario::paper_testbed(3).with_telemetry(TelemetryConfig::deterministic());
        let mut runner = ExperimentRunner::new(scenario, 900.0).unwrap();
        let controller = runner.build_capgpu_controller().unwrap();
        let on = runner.run(controller, 8).unwrap();
        assert_eq!(trace_to_csv(&off), trace_to_csv(&on));
        assert!(!trace_to_csv(&on).contains("solve_ns"));

        // Span tracing opted in: the gated columns appear on every row.
        let scenario = Scenario::paper_testbed(3).with_telemetry(TelemetryConfig::with_spans());
        let mut runner = ExperimentRunner::new(scenario, 900.0).unwrap();
        let controller = runner.build_capgpu_controller().unwrap();
        let traced = runner.run(controller, 8).unwrap();
        let csv = trace_to_csv(&traced);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].ends_with(",solve_ns,actuate_ns"));
        let header_cols = lines[0].split(',').count();
        assert!(lines[1..]
            .iter()
            .all(|l| l.split(',').count() == header_cols));
    }

    #[test]
    fn empty_trace() {
        let trace = RunTrace {
            controller: "x".into(),
            records: vec![],
            miss_rates: vec![],
            p99_latency_s: vec![],
            ttft_p99_s: vec![],
            itl_p99_s: vec![],
            ttft_miss_rates: vec![],
            itl_miss_rates: vec![],
        };
        let csv = trace_to_csv(&trace);
        assert_eq!(csv.lines().count(), 1); // header only
    }
}
