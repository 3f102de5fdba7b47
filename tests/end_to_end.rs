//! Cross-crate end-to-end integration tests: the full paper pipeline from
//! system identification through control to evaluation metrics.

use capgpu::config::ScheduledChange;
use capgpu::prelude::*;
use capgpu_control::stability;

/// The headline result: CapGPU beats every baseline on control accuracy
/// while delivering at-least-comparable inference throughput, on the same
/// testbed, same seed, same workloads.
#[test]
fn capgpu_beats_baselines_end_to_end() {
    let setpoint = 950.0;
    let run = |build: fn(&mut ExperimentRunner) -> Box<dyn PowerController>| -> RunSummary {
        let mut runner =
            ExperimentRunner::new(Scenario::paper_testbed(7), setpoint).expect("scenario");
        let controller = build(&mut runner);
        let trace = runner.run(controller, 80).expect("run");
        RunSummary::from_trace(&trace)
    };
    let capgpu = run(|r| Box::new(r.build_capgpu_controller().unwrap()));
    let gpu_only = run(|r| Box::new(r.build_gpu_only().unwrap()));
    let safe_fs = run(|r| Box::new(r.build_safe_fixed_step(1).unwrap()));
    let split = run(|r| Box::new(r.build_split(0.6).unwrap()));

    // Accuracy: CapGPU within noise of the set point and never worse than
    // any baseline.
    assert!(
        capgpu.tracking_error < 5.0,
        "CapGPU err {}",
        capgpu.tracking_error
    );
    assert!(capgpu.tracking_error <= gpu_only.tracking_error + 0.5);
    assert!(capgpu.tracking_error < safe_fs.tracking_error);
    assert!(capgpu.tracking_error < split.tracking_error);

    // Performance: highest total GPU throughput among cap-respecting
    // controllers.
    let total = |s: &RunSummary| s.gpu_throughput.iter().sum::<f64>();
    assert!(
        total(&capgpu) >= total(&gpu_only),
        "{} vs {}",
        total(&capgpu),
        total(&gpu_only)
    );
    assert!(total(&capgpu) >= total(&safe_fs));
}

/// Identification → stability analysis pipeline: the controller built from
/// the identified model must be provably stable for the *true* simulator
/// gains (which differ from the identified ones).
#[test]
fn identified_controller_is_stable_against_truth() {
    let mut runner = ExperimentRunner::new(Scenario::paper_testbed(21), 900.0).unwrap();
    let fitted = runner.identify().unwrap();
    let controller = runner.build_capgpu_controller().unwrap();
    let k_p = controller.mpc().unconstrained_gains();
    let a = controller.mpc().model().gains();

    // True small-signal gains of the simulator around the operating point
    // (utilization ≈ 0.92 busy): gain·(α + (1−α)·u).
    let true_gains: Vec<f64> = runner
        .server()
        .devices()
        .iter()
        .map(|d| d.power_law.gain_w_per_mhz * (0.35 + 0.65 * 0.9))
        .collect();
    let g: Vec<f64> = true_gains.iter().zip(a).map(|(t, a)| t / a).collect();
    let pole = stability::pole(a, &g, &k_p);
    assert!(
        pole.abs() < 1.0,
        "closed loop unstable against the true plant: π = {pole}"
    );
    // Identified gains should be within ~30% of truth.
    for (f, t) in fitted.model.gains().iter().zip(true_gains.iter()) {
        assert!(
            (f - t).abs() / t < 0.35,
            "identified {f} vs true {t} diverges"
        );
    }
}

/// Determinism across the whole stack: same seed, same trace, different
/// seed, different trace.
#[test]
fn full_stack_determinism() {
    let run = |seed: u64| {
        let mut runner = ExperimentRunner::new(Scenario::paper_testbed(seed), 900.0).unwrap();
        let controller = runner.build_capgpu_controller().unwrap();
        runner.run(controller, 25).unwrap().power_series()
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}

/// Infeasible set point: below the server's minimum busy power, the
/// controller saturates every knob at its floor and reports a steady
/// deficit rather than oscillating or crashing (paper §4.4's feasibility
/// assumption, handled gracefully).
#[test]
fn infeasible_low_setpoint_saturates_gracefully() {
    let mut runner = ExperimentRunner::new(Scenario::paper_testbed(8), 500.0).unwrap();
    let controller = runner.build_capgpu_controller().unwrap();
    let trace = runner.run(controller, 30).unwrap();
    let last = trace.records.last().unwrap();
    // All devices pinned at minimum frequency.
    for (t, lo) in last.targets.iter().zip(runner.layout().f_min.iter()) {
        assert!((t - lo).abs() < 16.0, "targets {:?}", last.targets);
    }
    let (mean, std) = trace.steady_state_power(0.5);
    assert!(mean > 500.0, "power floor sits above the infeasible cap");
    assert!(std < 10.0, "no oscillation at saturation: σ = {std}");
}

/// Infeasible high set point: above the achievable peak, everything
/// saturates at max and power settles at the peak.
#[test]
fn infeasible_high_setpoint_saturates_at_peak() {
    let mut runner = ExperimentRunner::new(Scenario::paper_testbed(9), 2000.0).unwrap();
    let controller = runner.build_capgpu_controller().unwrap();
    let trace = runner.run(controller, 30).unwrap();
    let last = trace.records.last().unwrap();
    for (t, hi) in last.targets.iter().zip(runner.layout().f_max.iter()) {
        assert!((t - hi).abs() < 16.0, "targets {:?}", last.targets);
    }
}

/// The §6.4 combined scenario: budget step and SLO change in one run.
#[test]
fn combined_setpoint_and_slo_changes() {
    let base = Scenario::paper_testbed(11);
    let e_min = base.gpu_models[0].e_min_s;
    let scenario = base
        .with_slos(vec![Some(e_min * 2.0), None, None])
        .with_change(ScheduledChange::SetPoint {
            at_period: 20,
            watts: 1000.0,
        })
        .with_change(ScheduledChange::Slo {
            at_period: 30,
            task: 0,
            slo_s: e_min * 1.3,
        });
    let mut runner = ExperimentRunner::new(scenario, 900.0).unwrap();
    let controller = runner.build_capgpu_controller().unwrap();
    let trace = runner.run(controller, 60).unwrap();
    let (mean, _) = trace.steady_state_power(0.4);
    assert!(
        (mean - 1000.0).abs() < 15.0,
        "tracks the raised budget: {mean}"
    );
    // Tighter SLO raised the first GPU's floor.
    let before = trace.records[29].floors[1];
    let after = trace.records.last().unwrap().floors[1];
    assert!(after > before, "floor {before} -> {after}");
}

/// GPU-Only applies one clock to all GPUs — verify it cannot satisfy
/// per-device SLO differentiation while CapGPU can (Fig. 8 vs Fig. 9
/// essence, as a single test).
#[test]
fn per_device_slo_needs_mimo_control() {
    // t3 = VGG16 is the slowest model; give it a tight SLO and t1/t2
    // loose ones — only per-device control can run GPU2 fast while the
    // others stay slow enough to hold the power cap.
    let base = Scenario::paper_testbed(13);
    let tight = base.gpu_models[2].e_min_s * 1.15;
    let loose1 = base.gpu_models[0].e_min_s * 2.5;
    let loose2 = base.gpu_models[1].e_min_s * 2.5;
    let scenario = base.with_slos(vec![Some(loose1), Some(loose2), Some(tight)]);
    let setpoint = 1050.0;

    let mut r1 = ExperimentRunner::new(scenario.clone(), setpoint).unwrap();
    let capgpu = r1.build_capgpu_controller().unwrap();
    let t_capgpu = r1.run(capgpu, 50).unwrap();

    let mut r2 = ExperimentRunner::new(scenario, setpoint).unwrap();
    let gpu_only = r2.build_gpu_only().unwrap();
    let t_gpu = r2.run(gpu_only, 50).unwrap();

    assert!(
        t_capgpu.miss_rates[2] < 0.05,
        "CapGPU misses tight SLO: {:?}",
        t_capgpu.miss_rates
    );
    assert!(
        t_gpu.miss_rates[2] > t_capgpu.miss_rates[2] + 0.10,
        "GPU-Only should miss the tight SLO far more: {:?} vs {:?}",
        t_gpu.miss_rates,
        t_capgpu.miss_rates
    );
}

/// A set point below the frequency-scaling floor is simply missed:
/// with every clock at its floor the server still draws more.
#[test]
fn cap_below_the_frequency_floor_is_missed() {
    let mut runner = ExperimentRunner::new(Scenario::paper_testbed(31), 742.0).unwrap();
    let controller = runner.build_capgpu_controller().unwrap();
    let trace = runner.run(controller, 40).unwrap();
    let (mean, _) = trace.steady_state_power(0.5);
    assert!(
        mean > 742.0 + 8.0,
        "frequency scaling alone should miss this cap: {mean} W"
    );
}

/// Open-loop demand surge (the §6.4 narrative made literal): task 0's
/// request traffic triples mid-run on the request-level serving plant;
/// under a fixed cap the controller absorbs the surge by letting
/// utilization-driven power rise push frequencies down, and task 0's
/// completed rate follows its offered load.
#[test]
fn open_loop_demand_surge_under_fixed_cap() {
    let burst = |at_period, factor| ScheduledChange::ServingBurst {
        at_period,
        task: 0,
        factor,
    };
    let scenario = Scenario::serving_testbed(61)
        .with_change(burst(0, 0.3))
        .with_change(burst(30, 0.9));
    // ≈ 218 rps nominal: ≈ 65 rps before the surge, ≈ 196 after.
    let nominal = scenario.serving.as_ref().unwrap().arrivals[0].mean_rate_rps();
    let mut runner = ExperimentRunner::new(scenario, 950.0).unwrap();
    let controller = runner.build_capgpu_controller().unwrap();
    let trace = runner.run(controller, 70).unwrap();

    let thr = |lo: usize, hi: usize| {
        let v: Vec<f64> = trace.records[lo..hi]
            .iter()
            .map(|r| r.gpu_throughput[0])
            .collect();
        capgpu_linalg::stats::mean(&v)
    };
    let (before, after) = (thr(15, 30), thr(45, 70));
    let (offered_before, offered_after) = (0.3 * nominal, 0.9 * nominal);
    assert!(
        (before - offered_before).abs() < 0.2 * offered_before,
        "pre-surge throughput {before} for {offered_before} offered"
    );
    assert!(
        (after - offered_after).abs() < 0.2 * offered_after,
        "surge not served: {after} for {offered_after} offered"
    );
    assert!(after > 2.0 * before, "surge not served: {before} → {after}");

    // The cap held throughout (±noise).
    let (mean, _) = trace.steady_state_power(0.5);
    assert!((mean - 950.0).abs() < 15.0, "cap drifted: {mean}");
}

/// Scale-out: the same stack handles an 8-GPU server (the paper's "up to
/// eight GPUs" form factor) — identification, control and SLO floors all
/// scale; CapGPU caps the bigger box as precisely as the 3-GPU one.
#[test]
fn eight_gpu_server_scales() {
    let scenario = Scenario::eight_gpu_testbed(71);
    scenario.validate().unwrap();
    let mut runner = ExperimentRunner::new(scenario, 2000.0).unwrap();
    let fitted = runner.identify().unwrap();
    assert_eq!(fitted.model.gains().len(), 9);
    assert!(fitted.r_squared > 0.9, "R² {}", fitted.r_squared);
    let controller = runner.build_capgpu_controller().unwrap();
    let trace = runner.run(controller, 40).unwrap();
    let (mean, std) = trace.steady_state_power(0.5);
    assert!((mean - 2000.0).abs() < 15.0, "mean {mean}");
    assert!(std < 15.0, "std {std}");
    // Every one of the eight pipelines keeps flowing.
    for (i, thr) in trace.steady_gpu_throughput(0.5).iter().enumerate() {
        assert!(*thr > 1.0, "task {i} starved: {thr}");
    }
}

/// Thermal robustness: one GPU has a tight thermal envelope and hard-
/// throttles under sustained load — an actuation disturbance the
/// controller never modeled. The loop must keep total power at the cap by
/// compensating with the remaining devices.
#[test]
fn capgpu_rides_through_thermal_throttling() {
    let mut scenario = Scenario::paper_testbed(81);
    scenario.devices[1].thermal = Some(capgpu_sim::ThermalSpec {
        ambient_c: 30.0,
        r_th_k_per_w: 0.35, // throttles near ~150 W dissipation
        tau_s: 20.0,
        t_throttle_c: 83.0,
        throttle_clock_mhz: 607.5,
        hysteresis_c: 5.0,
    });
    let mut runner = ExperimentRunner::new(scenario, 1000.0).unwrap();
    let controller = runner.build_capgpu_controller().unwrap();
    let trace = runner.run(controller, 80).unwrap();

    // The hot GPU did throttle at some point…
    assert!(
        runner.server().thermal_throttling(1).unwrap()
            || runner.server().temperature(1).unwrap().unwrap() > 70.0,
        "the tight envelope should have bitten"
    );
    // …and the loop still holds the cap at steady state.
    let (mean, std) = trace.steady_state_power(0.4);
    assert!((mean - 1000.0).abs() < 15.0, "mean {mean}");
    assert!(std < 20.0, "std {std}");
}

/// The daemon's control path against its committed dry-run golden: the
/// journal and the metrics of a default sim daemon after identification
/// and 12 periods are sections of `results/capgpud.txt`, byte for byte.
#[test]
fn daemon_reproduces_its_committed_golden() {
    use capgpu::daemon::{Daemon, DaemonConfig};
    let cfg = DaemonConfig::default_sim();
    let backend = cfg.build_backend().unwrap();
    let mut daemon = Daemon::new(cfg, backend).unwrap();
    daemon.identify().unwrap();
    daemon.run_periods(12).unwrap();
    let golden = include_str!("../results/capgpud.txt");
    assert!(
        golden.contains(&daemon.journal().to_jsonl()),
        "journal drifted from results/capgpud.txt"
    );
    assert!(
        golden.contains(&daemon.prometheus_text()),
        "metrics drifted from results/capgpud.txt"
    );
}
