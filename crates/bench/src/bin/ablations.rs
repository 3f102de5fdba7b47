//! **Ablations** — design-choice studies beyond the paper's figures,
//! quantifying what each CapGPU ingredient buys (DESIGN.md §8):
//!
//! 1. *Weight assignment on/off*: throughput-driven penalties vs uniform.
//! 2. *Prediction horizon*: no run. Every horizon with `M ≥ 2` applies
//!    the same move (DESIGN.md §15); the MPC's oracle test
//!    `step_matches_uncached_at_every_horizon` holds it to P ∈ {1, 2, 4,
//!    8, 16}. The numbering keeps 3–5 where EXPERIMENTS.md cites them.
//! 3. *Delta-sigma modulation vs plain rounding* for CapGPU's targets.
//! 4. *SLO safety margin sweep*: miss rate vs margin.
//! 5. *Model drift tracking*: one-shot identification vs continuous RLS
//!    under a mid-run plant gain drift (with a square-wave cap keeping
//!    the loop active), and under thermal throttling.
//!
//! Regenerate with: `cargo run --release -p capgpu-bench --bin ablations`

use capgpu::controllers::CapGpuController;
use capgpu::prelude::*;
use capgpu::weights::WeightAssigner;
use capgpu_bench::fmt;

const SETPOINT: f64 = 1000.0;
const PERIODS: usize = 80;

fn main() {
    weight_assignment();
    modulation();
    slo_margin_sweep();
    drift_tracking();
}

/// Weight assignment on vs off, in the regime the mechanism exists for:
/// one GPU's task is demand-starved (its preprocessing feed trickles), so
/// its measured throughput — and hence its weight — collapses. The
/// weighted controller parks that GPU near its floor and spends the freed
/// budget on the busy GPUs; the uniform controller wastes watts keeping
/// the starved GPU fast.
fn weight_assignment() {
    fmt::header("Ablation 1: throughput-driven weight assignment (starved t3)");
    let scenario = || {
        let mut s = Scenario::paper_testbed(42);
        // Task 3's images arrive ~20× slower: a demand-limited tenant.
        s.gpu_models[2].preprocess_s_per_image = 0.16;
        s
    };
    let weighted = |weights: WeightAssigner, label: &'static str| {
        ControllerSpec::custom(label, move |runner| {
            let model = runner.identified_model()?;
            let controller = CapGpuController::labelled(runner.layout(), model, weights, label)?;
            Ok(Box::new(controller) as Box<dyn PowerController>)
        })
    };
    let report = SweepSpec::new(scenario())
        .setpoint(SETPOINT)
        .periods(PERIODS)
        .controller(weighted(WeightAssigner::PhaseAware, "CapGPU (weights on)"))
        .controller(weighted(WeightAssigner::Uniform, "CapGPU (weights off)"))
        .run()
        .expect("sweep");
    let on = RunSummary::from_trace(&report.cells[0].trace);
    let off = RunSummary::from_trace(&report.cells[1].trace);
    for s in [&on, &off] {
        println!(
            "{:<24} power {:>7} W  GPU thr {:>6.1} img/s  CPU {:>6.1} subsets/s",
            s.controller,
            fmt::pm(s.power_mean, s.power_std),
            s.gpu_throughput.iter().sum::<f64>(),
            s.cpu_throughput
        );
    }
    fmt::check(
        "weighting raises total GPU throughput at equal power",
        on.gpu_throughput.iter().sum::<f64>() > off.gpu_throughput.iter().sum::<f64>()
            && (on.power_mean - off.power_mean).abs() < 10.0,
        &format!(
            "{:.1} vs {:.1} img/s at {:.0}/{:.0} W",
            on.gpu_throughput.iter().sum::<f64>(),
            off.gpu_throughput.iter().sum::<f64>(),
            on.power_mean,
            off.power_mean
        ),
    );
}

/// Delta-sigma vs plain rounding for CapGPU's fractional targets.
fn modulation() {
    fmt::header("Ablation 3: delta-sigma modulation vs nearest-level rounding");

    /// CapGPU with modulation disabled (overrides the trait hook).
    struct Rounded(CapGpuController);
    impl PowerController for Rounded {
        fn name(&self) -> &str {
            "CapGPU (rounded)"
        }
        fn control(
            &mut self,
            input: &capgpu::controllers::ControlInput<'_>,
        ) -> capgpu::Result<Vec<f64>> {
            self.0.control(input)
        }
        fn uses_delta_sigma(&self) -> bool {
            false
        }
    }

    let report = SweepSpec::new(Scenario::paper_testbed(42))
        .setpoint(SETPOINT)
        .periods(PERIODS)
        .controller(ControllerSpec::CapGpu)
        .controller(ControllerSpec::custom("CapGPU (rounded)", |runner| {
            let inner = runner.build_capgpu_controller()?;
            Ok(Box::new(Rounded(inner)) as Box<dyn PowerController>)
        }))
        .run()
        .expect("sweep");
    let s_mod = RunSummary::from_trace(&report.cells[0].trace);
    let s_round = RunSummary::from_trace(&report.cells[1].trace);

    println!(
        "delta-sigma: {}   rounded: {}",
        fmt::pm(s_mod.power_mean, s_mod.power_std),
        fmt::pm(s_round.power_mean, s_round.power_std)
    );
    fmt::check(
        "modulation does not hurt accuracy (and realizes fractional targets)",
        s_mod.tracking_error <= s_round.tracking_error + 1.5,
        &format!(
            "err {:.2} W (ΔΣ) vs {:.2} W (rounded)",
            s_mod.tracking_error, s_round.tracking_error
        ),
    );
}

/// SLO margin sweep: smaller margins risk misses, larger ones burn power.
fn slo_margin_sweep() {
    fmt::header("Ablation 4: SLO safety margin");
    println!(
        "{:>8} {:>16} {:>14}",
        "margin", "ss miss rate", "floor t1 (MHz)"
    );
    let margins = [1.0, 1.03, 1.06, 1.12];
    let variants = margins
        .iter()
        .map(|&margin| {
            let mut scenario = Scenario::paper_testbed(42);
            scenario.slo_margin = margin;
            let e_min = scenario.gpu_models[0].e_min_s;
            // Tight SLO + a budget that wants the GPU *below* its floor:
            // the floor binds, so the task runs exactly at SLO-critical
            // frequency and the margin is what absorbs jitter and model
            // error.
            let scenario = scenario.with_slos(vec![Some(e_min * 1.15), None, None]);
            (format!("margin {margin}"), scenario)
        })
        .collect();
    let report = SweepSpec::over_scenarios(variants)
        .setpoint(900.0)
        .periods(50)
        .controller(ControllerSpec::CapGpu)
        .run()
        .expect("sweep");
    let mut misses = Vec::new();
    for (margin, cell) in margins.into_iter().zip(&report.cells) {
        let trace = &cell.trace;
        let floor = trace.records.last().expect("records").floors[1];
        // Steady-state misses only: the first periods climb from f_min and
        // miss regardless of margin — that transient is not what the
        // margin controls.
        let ss_misses: usize = trace.records[5..].iter().map(|r| r.slo_misses[0]).sum();
        let ss_batches: usize = trace.records[5..].iter().map(|r| r.batches[0]).sum();
        let rate = ss_misses as f64 / ss_batches.max(1) as f64;
        println!("{margin:>8.2} {:>15.3}% {:>14.0}", 100.0 * rate, floor);
        misses.push((margin, rate));
    }
    let at = |m: f64| {
        misses
            .iter()
            .find(|(mm, _)| (*mm - m).abs() < 1e-9)
            .expect("swept")
            .1
    };
    fmt::check(
        "misses shrink monotonically with margin",
        at(1.0) >= at(1.06) && at(1.06) >= at(1.12),
        &format!(
            "{:.2}% → {:.2}% → {:.2}%",
            100.0 * at(1.0),
            100.0 * at(1.06),
            100.0 * at(1.12)
        ),
    );
    fmt::check(
        "default margin (1.06) keeps misses below 2%",
        at(1.06) < 0.02,
        &format!("{:.2}%", 100.0 * at(1.06)),
    );
}

/// One-shot identification vs continuous RLS tracking (the tentpole's
/// payoff study). Part A: an open-loop demand surge triples traffic
/// mid-run, shifting every device's utilization — and with it the
/// plant's effective W/MHz gains — away from what the identification
/// sweep measured. Part B: thermally marginal GPUs throttle under load,
/// clamping effective clocks so the one-shot model's gains overstate
/// the controller's authority.
fn drift_tracking() {
    fmt::header("Ablation 5: one-shot identification vs continuous RLS tracking");

    let post_err = |trace: &RunTrace, from: usize| {
        let vals: Vec<f64> = trace.records[from..]
            .iter()
            .map(|r| (r.avg_power - r.setpoint).abs())
            .collect();
        capgpu_linalg::stats::mean(&vals)
    };

    // Part A — plant gain drift. At period 30 every GPU's true W/MHz
    // gain scales by `factor` (aging / VR-efficiency style drift the
    // one-shot model cannot see), while the cap alternates 1000/900 W
    // every 8 periods so the loop keeps having to *use* its model. A
    // stale model whose gains are 2× low makes the MPC's feedback
    // correction chronically overshoot — the one-shot run rings around
    // the cap for the rest of the experiment; the tracked run re-scales
    // its anchor within a few settled periods and recovers. Factor 1.0
    // (no drift) is reported alongside to price the persistent-excitation
    // probe honestly: the displacement that carries gain information is
    // itself cap error, so tracking costs a couple of watts when nothing
    // drifts.
    let drift_variant = |rls: bool, factor: f64, label: &str| {
        let mut s = Scenario::paper_testbed(42);
        s.workers_per_pipeline = 8;
        s.rls_tracking = rls;
        if factor != 1.0 {
            for device in 1..=3 {
                s = s.with_change(ScheduledChange::GainDrift {
                    at_period: 30,
                    device,
                    factor,
                });
            }
        }
        for k in 1..12 {
            let watts = if k % 2 == 1 { 900.0 } else { SETPOINT };
            s = s.with_change(ScheduledChange::SetPoint {
                at_period: 8 * k,
                watts,
            });
        }
        (label.to_string(), s)
    };
    for factor in [1.0, 1.5, 2.0] {
        let report = SweepSpec::over_scenarios(vec![
            drift_variant(false, factor, "one-shot"),
            drift_variant(true, factor, "RLS-tracked"),
        ])
        .setpoint(SETPOINT)
        .periods(96)
        .controller(ControllerSpec::CapGpu)
        .run()
        .expect("sweep");
        let mut errs = Vec::new();
        for cell in &report.cells {
            let trace = &cell.trace;
            let err = post_err(trace, 45);
            let s = RunSummary::from_trace(trace);
            println!(
                "gain x{factor:<4} {:<12} post-drift err {err:>6.2} W   power {}",
                cell.cell.scenario_label,
                fmt::pm(s.power_mean, s.power_std),
            );
            errs.push(err);
        }
        if factor == 1.0 {
            fmt::check(
                "probe overhead on an undrifted plant stays under 3 W",
                errs[1] <= errs[0] + 3.0,
                &format!(
                    "steady err {:.2} W (one-shot) vs {:.2} W (RLS)",
                    errs[0], errs[1]
                ),
            );
        } else {
            fmt::check(
                &format!("RLS tracking holds the cap through {factor}x gain drift"),
                errs[1] < errs[0],
                &format!(
                    "post-drift err {:.2} W (one-shot) vs {:.2} W (RLS)",
                    errs[0], errs[1]
                ),
            );
        }
    }

    // Part B — thermal throttling. A tighter thermal resistance makes
    // the V100s throttle near full load; while clamped, core-clock
    // actuation loses authority and measured power decouples from the
    // one-shot model.
    let thermal_variant = |rls: bool, label: &str| {
        let mut s = Scenario::paper_testbed(42);
        let mut spec = capgpu_sim::thermal::v100_thermal();
        spec.r_th_k_per_w = 0.24;
        for d in s.devices.iter_mut().skip(1) {
            d.thermal = Some(spec);
        }
        s.rls_tracking = rls;
        (label.to_string(), s)
    };
    let report = SweepSpec::over_scenarios(vec![
        thermal_variant(false, "one-shot"),
        thermal_variant(true, "RLS-tracked"),
    ])
    .setpoint(1150.0)
    .periods(80)
    .controller(ControllerSpec::CapGpu)
    .run()
    .expect("sweep");
    let mut errs = Vec::new();
    for cell in &report.cells {
        let trace = &cell.trace;
        let err = post_err(trace, 40);
        let s = RunSummary::from_trace(trace);
        println!(
            "throttle {:<12} late-run err {err:>6.2} W   power {}",
            cell.cell.scenario_label,
            fmt::pm(s.power_mean, s.power_std),
        );
        errs.push(err);
    }
    fmt::check(
        "RLS tracking is no worse under thermal throttling",
        errs[1] <= errs[0] + 1.0,
        &format!(
            "late-run err {:.2} W (one-shot) vs {:.2} W (RLS)",
            errs[0], errs[1]
        ),
    );
}
