//! System identification walkthrough (paper §4.2 / Fig. 2): sweep each
//! frequency knob while holding the others, fit `p = A·F + C` by least
//! squares, and use the model's achievable power range to check set-point
//! feasibility. Also fits the frequency–latency power law (Eq. 8).
//!
//! Run with: `cargo run --release --example system_identification`

use capgpu::prelude::*;
use capgpu_control::latency::LatencyModel;
use capgpu_control::sysid::ExcitationPlan;
use capgpu_workload::models;
use capgpu_workload::pipeline::{ArrivalMode, PipelineConfig, PipelineSim};

fn main() {
    // --- Power-model identification -----------------------------------
    let mut runner = ExperimentRunner::new(Scenario::paper_testbed(42), 900.0).unwrap();
    println!("excitation: one-knob-at-a-time sweeps (paper §4.2)");
    let plan = ExcitationPlan::new(
        runner.layout().f_min.clone(),
        runner.layout().f_max.clone(),
        runner
            .layout()
            .f_min
            .iter()
            .zip(runner.layout().f_max.iter())
            .map(|(a, b)| 0.5 * (a + b))
            .collect(),
        8,
    )
    .unwrap();
    println!(
        "  {} excitation points across {} devices",
        plan.len(),
        plan.num_devices()
    );

    let fitted = runner.identify().expect("identification");
    println!("\nfitted linear power model:");
    println!("  p =");
    let names = [
        "Xeon Gold 5215",
        "Tesla V100 #0",
        "Tesla V100 #1",
        "Tesla V100 #2",
    ];
    for (name, g) in names.iter().zip(fitted.model.gains()) {
        println!("      {g:.4} W/MHz · f({name}) +");
    }
    println!("      {:.1} W", fitted.model.offset());
    println!(
        "  R² = {:.4}, RMSE = {:.2} W (paper Fig. 2a: R² = 0.96)",
        fitted.r_squared, fitted.rmse_watts
    );

    let (lo, hi) = fitted
        .model
        .achievable_range(&runner.layout().f_min, &runner.layout().f_max);
    println!("\nachievable power range per the model: {lo:.0} – {hi:.0} W");
    for sp in [800.0, 900.0, 1100.0, 1300.0] {
        let feasible = sp >= lo && sp <= hi;
        println!(
            "  set point {sp:>6.0} W: {}",
            if feasible {
                "feasible"
            } else {
                "INFEASIBLE (needs multi-layer adaptation, paper §4.4)"
            }
        );
    }

    // --- Latency-model fit (Eq. 8) -------------------------------------
    println!("\nlatency model fit for ResNet50 (paper Fig. 2b):");
    let model = models::resnet50();
    let mut freqs = Vec::new();
    let mut lats = Vec::new();
    for step in 0..10 {
        let f = 435.0 + step as f64 * 100.0;
        let mut pipe = PipelineSim::new(PipelineConfig {
            model: model.clone(),
            num_workers: 2,
            queue_capacity: 64,
            seed: step as u64,
            f_gpu_max_mhz: 1350.0,
            arrivals: ArrivalMode::Closed,
        })
        .unwrap();
        for _ in 0..10 {
            pipe.advance(1.0, 2200.0, f);
        }
        let mut samples = Vec::new();
        for _ in 0..20 {
            samples.extend(pipe.advance(1.0, 2200.0, f).batch_latencies);
        }
        freqs.push(f);
        lats.push(capgpu_linalg::stats::mean(&samples));
    }
    let (lat_model, r2) = LatencyModel::fit(&freqs, &lats, 1350.0).expect("fit");
    println!(
        "  e(f) = {:.4}·(1350/f)^{:.3}, R² = {r2:.4} (paper: γ = 0.91, R² ≈ 0.91)",
        lat_model.e_min, lat_model.gamma
    );
    let slo = 0.08;
    println!(
        "  frequency floor for an SLO of {slo} s/batch: {:.0} MHz",
        lat_model.frequency_floor(slo).unwrap()
    );
}
