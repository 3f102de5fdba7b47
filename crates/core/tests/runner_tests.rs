//! Runner-level tests: identification quality, closed-loop convergence of
//! every controller, scheduled changes, determinism, fault injection.

use capgpu::config::ScheduledChange;
use capgpu::prelude::*;

fn runner(seed: u64, setpoint: f64) -> ExperimentRunner {
    ExperimentRunner::new(Scenario::paper_testbed(seed), setpoint).unwrap()
}

/// The server meter silent over `periods`.
fn meter_dropout(periods: std::ops::Range<usize>) -> FaultSchedule {
    FaultSchedule {
        specs: vec![FaultSpec {
            kind: FaultKind::MeterDropout,
            onset_period: periods.start,
            duration: Some(periods.len()),
            intermittency: None,
        }],
    }
}

#[test]
fn identification_reaches_paper_r2() {
    let mut r = runner(42, 900.0);
    let fitted = r.identify().unwrap();
    // Paper Fig. 2a: R² = 0.96. Noise + quadratic terms keep ours close.
    assert!(
        fitted.r_squared > 0.93,
        "identification R² = {}",
        fitted.r_squared
    );
    // GPU gains must dominate the CPU gain (premise of the paper).
    let gains = fitted.model.gains();
    assert!(gains[1] > gains[0] && gains[2] > gains[0] && gains[3] > gains[0]);
    // All gains positive, offset near platform + idle power.
    assert!(gains.iter().all(|g| *g > 0.0), "{gains:?}");
    assert!(
        fitted.model.offset() > 200.0,
        "offset {}",
        fitted.model.offset()
    );
}

#[test]
fn capgpu_converges_to_900w() {
    let mut r = runner(7, 900.0);
    let c = r.build_capgpu_controller().unwrap();
    let trace = r.run(c, 60).unwrap();
    let (mean, std) = trace.steady_state_power(0.5);
    assert!((mean - 900.0).abs() < 12.0, "mean {mean}");
    assert!(std < 15.0, "std {std}");
}

#[test]
fn gpu_only_converges_but_wiggles_more_than_capgpu() {
    let mut r = runner(8, 900.0);
    let c = r.build_gpu_only().unwrap();
    let trace = r.run(c, 60).unwrap();
    let (mean, _std) = trace.steady_state_power(0.5);
    assert!((mean - 900.0).abs() < 15.0, "GPU-Only mean {mean}");
}

#[test]
fn cpu_only_cannot_reach_the_cap() {
    let mut r = runner(9, 900.0);
    let c = r.build_cpu_only().unwrap();
    let trace = r.run(c, 40).unwrap();
    let (mean, _) = trace.steady_state_power(0.5);
    // GPUs pinned at max: the floor is ≈ 1150+ W, far above 900 W.
    assert!(mean > 1000.0, "CPU-Only should fail to cap: mean {mean}");
}

#[test]
fn split_misses_total_cap() {
    let mut r = runner(10, 900.0);
    let c = r.build_split(0.6).unwrap();
    let trace = r.run(c, 60).unwrap();
    let (mean, _) = trace.steady_state_power(0.5);
    assert!(
        (mean - 900.0).abs() > 25.0,
        "split control unexpectedly accurate: mean {mean}"
    );
}

#[test]
fn fixed_step_oscillates_more_than_capgpu() {
    let mut r1 = runner(11, 900.0);
    let fs = r1.build_fixed_step(5);
    let t1 = r1.run(fs, 80).unwrap();
    let (_, std_fs) = t1.steady_state_power(0.5);

    let mut r2 = runner(11, 900.0);
    let cg = r2.build_capgpu_controller().unwrap();
    let t2 = r2.run(cg, 80).unwrap();
    let (_, std_cg) = t2.steady_state_power(0.5);

    assert!(
        std_fs > std_cg,
        "fixed-step std {std_fs} should exceed CapGPU std {std_cg}"
    );
}

#[test]
fn safe_fixed_step_stays_below_cap() {
    let mut r = runner(12, 900.0);
    let c = r.build_safe_fixed_step(1).unwrap();
    let trace = r.run(c, 80).unwrap();
    // Steady-state mean sits below the cap by roughly the margin.
    let (mean, _) = trace.steady_state_power(0.5);
    assert!(mean < 900.0, "Safe Fixed-step mean {mean} above cap");
}

#[test]
fn setpoint_step_change_tracked() {
    let scenario = Scenario::paper_testbed(13).with_change(ScheduledChange::SetPoint {
        at_period: 30,
        watts: 1000.0,
    });
    let mut r = ExperimentRunner::new(scenario, 850.0).unwrap();
    let c = r.build_capgpu_controller().unwrap();
    let trace = r.run(c, 70).unwrap();
    // Before the change: near 850; after: near 1000.
    let before: Vec<f64> = trace.records[20..30].iter().map(|x| x.avg_power).collect();
    let after: Vec<f64> = trace.records[55..].iter().map(|x| x.avg_power).collect();
    let mb = capgpu_linalg::stats::mean(&before);
    let ma = capgpu_linalg::stats::mean(&after);
    assert!((mb - 850.0).abs() < 15.0, "before {mb}");
    assert!((ma - 1000.0).abs() < 15.0, "after {ma}");
}

#[test]
fn slo_floor_lifts_gpu_frequency() {
    // Tight SLO on task 0 (ResNet50, e_min 0.055 s): SLO 0.07 s forces the
    // GPU well above its minimum clock.
    let scenario = Scenario::paper_testbed(14).with_slos(vec![Some(0.07), None, None]);
    let mut r = ExperimentRunner::new(scenario, 1000.0).unwrap();
    let c = r.build_capgpu_controller().unwrap();
    let trace = r.run(c, 50).unwrap();
    let rec = trace.records.last().unwrap();
    // Floor for e_min=0.055, slo=0.07, γ=0.91, f_max=1350:
    // 1350·(0.055/0.07)^(1/0.91) ≈ 1038 MHz.
    assert!(rec.floors[1] > 1000.0, "floor {:?}", rec.floors);
    assert!(rec.targets[1] >= rec.floors[1] - 1.0, "{:?}", rec.targets);
    // And the SLO is essentially met.
    assert!(
        trace.miss_rates[0] < 0.05,
        "miss rate {}",
        trace.miss_rates[0]
    );
}

#[test]
fn meter_dropout_does_not_crash_the_loop() {
    let scenario = Scenario::paper_testbed(15).with_faults(meter_dropout(20..25));
    let mut r = ExperimentRunner::new(scenario, 900.0).unwrap();
    let c = r.build_capgpu_controller().unwrap();
    let trace = r.run(c, 50).unwrap();
    // Still converges after the meter recovers.
    let (mean, _) = trace.steady_state_power(0.3);
    assert!((mean - 900.0).abs() < 20.0, "mean {mean}");
}

#[test]
fn multi_period_dropout_flags_stale_and_holds_last_fresh_average() {
    // Regression for the stale-average hazard: a dropout spanning whole
    // control periods used to fall through to `average_last(t)`, which
    // silently blended pre-dropout ring-buffer samples into a "fresh"
    // reading. Silent periods must instead hold the previous measurement
    // and be flagged stale.
    let scenario = Scenario::paper_testbed(15).with_faults(meter_dropout(20..26));
    let mut r = ExperimentRunner::new(scenario, 900.0).unwrap();
    let c = r.build_capgpu_controller().unwrap();
    let trace = r.run(c, 40).unwrap();
    let held = trace.records[19].avg_power;
    for rec in &trace.records[20..26] {
        assert!(rec.meter_stale, "period {} should be stale", rec.period);
        assert_eq!(
            rec.avg_power, held,
            "stale period {} must hold the last fresh average",
            rec.period
        );
    }
    assert!(!trace.records[19].meter_stale);
    assert!(!trace.records[26].meter_stale);
    assert_ne!(trace.records[30].avg_power, held);
}

#[test]
fn supervisor_cuts_cap_violation_under_fault_storm() {
    // Acceptance check for the failover ladder: under the default fault
    // storm (meter dropout/bias, stuck clock, GPU ejection, PSU derate)
    // the supervised CapGPU run must accumulate strictly less
    // cap-violation energy than the unsupervised run, measured against
    // the instantaneous feasible budget min(setpoint, PSU limit).
    let setpoint = 1000.0;
    let periods = 60;
    let violation = |supervised: bool| -> f64 {
        let mut scenario = Scenario::fault_testbed(42);
        if supervised {
            scenario = scenario.with_supervisor(SupervisorConfig::default());
        }
        let schedule = scenario.faults.clone().unwrap();
        let t = scenario.control_period_s as f64;
        let mut r = ExperimentRunner::new(scenario, setpoint).unwrap();
        let c = r.build_capgpu_controller().unwrap();
        let trace = r.run(c, periods).unwrap();
        trace
            .records
            .iter()
            .map(|rec| {
                let budget = schedule
                    .feasible_limit(rec.period)
                    .map_or(setpoint, |l| l.min(setpoint));
                (rec.avg_power - budget).max(0.0) * t
            })
            .sum()
    };
    let unsupervised = violation(false);
    let supervised = violation(true);
    assert!(
        supervised < unsupervised,
        "supervised violation {supervised:.1} W·s must beat unsupervised {unsupervised:.1} W·s"
    );
}

#[test]
fn determinism_same_seed_same_trace() {
    let run = |seed| {
        let mut r = runner(seed, 900.0);
        let c = r.build_capgpu_controller().unwrap();
        r.run(c, 30).unwrap().power_series()
    };
    assert_eq!(run(99), run(99));
    assert_ne!(run(99), run(100));
}

#[test]
fn throughput_weighting_favors_busy_gpu() {
    // All three models run, but VGG16 (task 2) is the heaviest per batch;
    // weights only matter under power pressure. Just verify the weighted
    // run keeps every pipeline flowing (no starvation collapse).
    let mut r = runner(16, 950.0);
    let c = r.build_capgpu_controller().unwrap();
    let trace = r.run(c, 60).unwrap();
    let thr = trace.steady_gpu_throughput(0.5);
    for (i, t) in thr.iter().enumerate() {
        assert!(*t > 1.0, "task {i} starved: {t} img/s");
    }
}

#[test]
fn trace_tail_metrics_survive_edge_fractions() {
    // Empty traces and out-of-range tail fractions must degrade
    // gracefully instead of underflowing the skip index.
    let empty = RunTrace {
        controller: "empty".into(),
        records: Vec::new(),
        miss_rates: Vec::new(),
        p99_latency_s: Vec::new(),
        ttft_p99_s: Vec::new(),
        itl_p99_s: Vec::new(),
        ttft_miss_rates: Vec::new(),
        itl_miss_rates: Vec::new(),
    };
    for tf in [0.0, 0.8, 1.0, 2.0, -1.0] {
        assert!(empty.steady_gpu_latency(tf).is_empty());
        assert_eq!(empty.steady_state_power(tf), (0.0, 0.0));
        assert!(empty.steady_gpu_throughput(tf).is_empty());
    }

    let mut r = runner(18, 900.0);
    let c = r.build_fixed_step(1);
    let trace = r.run(c, 3).unwrap();
    for tf in [0.0, 0.5, 1.0, 2.0, -1.0] {
        assert_eq!(trace.steady_gpu_latency(tf).len(), 3);
        let (mean, std) = trace.steady_state_power(tf);
        assert!(mean.is_finite() && std.is_finite(), "tf {tf}: {mean}/{std}");
    }
    // Full-tail and over-range fractions agree (clamped to 1.0).
    assert_eq!(trace.steady_gpu_latency(1.0), trace.steady_gpu_latency(5.0));
}

#[test]
fn run_fixed_reports_table1_shape_metrics() {
    let mut r = ExperimentRunner::new(Scenario::motivation_testbed(17), 0.0).unwrap();
    let stats = r.run_fixed(&[1600.0, 660.0], 120, 30).unwrap();
    assert_eq!(stats.throughput_img_s.len(), 1);
    assert!(stats.mean_power > 100.0);
    assert!(stats.throughput_img_s[0] > 4.0);
    assert!(stats.mean_batch_latency_s[0] > 1.0);
    assert!(stats.mean_queue_delay_s[0] > 0.0);
    assert!(stats.preprocess_s_per_image[0] > 0.5);
}

#[test]
fn journal_captures_scripted_escalation_in_order() {
    // Satellite check for the telemetry journal: a scripted meter
    // dropout must produce the supervisor's full escalation/recovery
    // ladder as ordered journal events — stale onset, fallback, park,
    // then the two hysteretic recovery steps after the meter returns.
    use capgpu_telemetry::journal::Body;

    let scenario = Scenario::paper_testbed(15)
        .with_supervisor(SupervisorConfig::default())
        .with_telemetry(TelemetryConfig::deterministic())
        .with_faults(meter_dropout(10..20));
    let mut r = ExperimentRunner::new(scenario, 900.0).unwrap();
    let c = r.build_capgpu_controller().unwrap();
    r.run(c, 45).unwrap();

    let tm = r.telemetry().expect("telemetry enabled");
    let journal = tm.journal();

    // Journal is globally ordered by period.
    let periods: Vec<u64> = journal.events().iter().map(|e| e.period).collect();
    assert!(periods.windows(2).all(|w| w[0] <= w[1]), "{periods:?}");

    // The stale flag toggles exactly twice: on at the dropout, off after
    // the meter recovers.
    let stale: Vec<bool> = journal
        .events()
        .iter()
        .filter_map(|e| match e.body {
            Body::MeterStale { stale, .. } => Some(stale),
            _ => None,
        })
        .collect();
    assert_eq!(stale, vec![true, false]);

    // Full ladder, in order: 0→1 and 1→2 driven by the stale meter,
    // then single-step recoveries 2→1 and 1→0.
    let ladder: Vec<(u64, u64, String)> = journal
        .events()
        .iter()
        .filter_map(|e| match &e.body {
            Body::TierChange {
                from, to, reason, ..
            } => Some((*from, *to, reason.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(
        ladder,
        vec![
            (0, 1, "stale_meter".to_string()),
            (1, 2, "stale_meter".to_string()),
            (2, 1, "recovered".to_string()),
            (1, 0, "recovered".to_string()),
        ],
        "escalation ladder out of order: {ladder:?}"
    );

    // Metrics agree with the journal: two escalations + two recoveries.
    let snap = tm.snapshot();
    assert_eq!(
        snap.counter_value("capgpu_tier_changes_total", &[]),
        Some(4)
    );
    assert_eq!(snap.counter_value("capgpu_periods_total", &[]), Some(45));
}

/// The one per-second loop freezes an ejected GPU's engine whichever of
/// the three workload kinds the scenario runs: no work, no batches and no
/// new SLO misses for that task while it is out, the other tasks keep
/// going, and the task picks up again after re-admission.
#[test]
fn ejected_gpu_freezes_its_engine_on_every_plant_kind() {
    const EJECTED_TASK: usize = 1;
    const OUT: std::ops::Range<usize> = 5..10;
    for (kind, mut scenario) in [
        ("pipeline", Scenario::paper_testbed(42)),
        ("serving", Scenario::serving_testbed(42)),
        ("llm", Scenario::llm_testbed(42)),
    ] {
        // Tight enough that a running task does miss, so "no new misses
        // while ejected" is not a comparison of zeros.
        scenario.slos = (scenario.gpu_models.iter())
            .map(|m| Some(if kind == "llm" { 2.0 } else { 1.2 * m.e_min_s }))
            .collect();
        let scenario = scenario.with_faults(FaultSchedule {
            specs: vec![FaultSpec {
                // Device 0 is the CPU, so GPU task `t` is device `t + 1`.
                kind: FaultKind::Ejected {
                    device: EJECTED_TASK + 1,
                },
                onset_period: OUT.start,
                duration: Some(OUT.len()),
                intermittency: None,
            }],
        });
        let mut r = ExperimentRunner::new(scenario, 900.0).unwrap();
        let c = r.build_capgpu_controller().unwrap();
        let trace = r.run(c, 16).unwrap();
        for rec in &trace.records {
            let out = OUT.contains(&rec.period);
            for task in 0..3 {
                let frozen = out && task == EJECTED_TASK;
                assert_eq!(
                    rec.gpu_throughput[task] == 0.0 && rec.batches[task] == 0,
                    frozen,
                    "{kind}: period {} task {task}: {rec:?}",
                    rec.period
                );
                if frozen {
                    assert_eq!(rec.slo_misses[task], 0, "{kind}: period {}", rec.period);
                }
            }
        }
        let misses_while_running: usize = (trace.records.iter())
            .filter(|rec| !OUT.contains(&rec.period))
            .map(|rec| rec.slo_misses[EJECTED_TASK])
            .sum();
        assert!(misses_while_running > 0, "{kind}: the SLO never bit");
    }
}
