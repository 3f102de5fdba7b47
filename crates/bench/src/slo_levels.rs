//! SLO level calibration for the Fig. 8/9 experiments.
//!
//! §6.4: "we calculate the 30%, 50%, and 80% tail latencies for three
//! workloads and **their corresponding GPU frequencies using Equation
//! (8)**." — i.e. the levels are taken from the latency-vs-frequency law,
//! not from a single operating point: the "q% tail" SLO of a task is the
//! latency Eq. 8 predicts at the frequency sitting q% of the way down the
//! GPU's frequency range. An 80%-tail SLO therefore requires running in
//! the top 20% of the frequency range (tight); a 30%-tail SLO is met by
//! the bottom 70% (loose).

use capgpu::prelude::*;
use capgpu_control::latency::LatencyModel;

/// Calibrated tail-latency levels for each GPU task.
#[derive(Debug, Clone)]
pub struct SloLevels {
    /// 30% tail (loose) per task.
    pub tail30: Vec<f64>,
    /// 50% tail (median) per task.
    pub tail50: Vec<f64>,
    /// 80% tail (tight) per task.
    pub tail80: Vec<f64>,
}

/// Latency at the frequency `q/100` of the way from `f_min` to `f_max`,
/// per Eq. 8 with the controller's fitted γ.
fn level_at(model: &LatencyModel, f_min: f64, f_max: f64, q: f64) -> f64 {
    let f = f_min + (q / 100.0) * (f_max - f_min);
    model.latency(f)
}

/// Computes the §6.4 SLO levels for a scenario's GPU tasks.
///
/// # Panics
/// Panics if the scenario is invalid (latency-model construction fails).
pub fn compute(scenario: &Scenario) -> SloLevels {
    let gpu_devices: Vec<usize> = scenario
        .devices
        .iter()
        .enumerate()
        .filter(|(_, d)| d.kind == capgpu_sim::DeviceKind::Gpu)
        .map(|(i, _)| i)
        .collect();
    let mut tail30 = Vec::new();
    let mut tail50 = Vec::new();
    let mut tail80 = Vec::new();
    for (task, model) in scenario.gpu_models.iter().enumerate() {
        let dev = gpu_devices[task];
        let f_min = scenario.devices[dev].freq_table.min();
        let f_max = scenario.devices[dev].freq_table.max();
        let lat = LatencyModel::new(model.e_min_s, GAMMA_FITTED, f_max).expect("latency model");
        tail30.push(level_at(&lat, f_min, f_max, 30.0));
        tail50.push(level_at(&lat, f_min, f_max, 50.0));
        tail80.push(level_at(&lat, f_min, f_max, 80.0));
    }
    SloLevels {
        tail30,
        tail50,
        tail80,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered_and_feasible() {
        let scenario = Scenario::paper_testbed(3);
        let levels = compute(&scenario);
        for t in 0..levels.tail50.len() {
            // Tighter tails are smaller latencies: 80% tail < 50% < 30%.
            assert!(levels.tail80[t] < levels.tail50[t], "task {t}: {levels:?}");
            assert!(levels.tail50[t] < levels.tail30[t], "task {t}: {levels:?}");
            // Every level stays above e_min: feasible below f_max even
            // with the runner's safety margin.
            assert!(
                levels.tail80[t] > scenario.gpu_models[t].e_min_s * 1.08,
                "task {t}: tail80 {} too close to e_min {}",
                levels.tail80[t],
                scenario.gpu_models[t].e_min_s
            );
        }
    }

    #[test]
    fn tail80_maps_to_top_of_frequency_range() {
        let scenario = Scenario::paper_testbed(3);
        let levels = compute(&scenario);
        // Required frequency for the tight SLO ≈ 80% up the range.
        let lat = capgpu_control::latency::LatencyModel::new(
            scenario.gpu_models[0].e_min_s,
            GAMMA_FITTED,
            1350.0,
        )
        .unwrap();
        let floor = lat.frequency_floor(levels.tail80[0]).unwrap();
        let expected = 435.0 + 0.8 * (1350.0 - 435.0);
        assert!(
            (floor - expected).abs() < 1.0,
            "floor {floor} vs {expected}"
        );
    }
}
