//! Device presets calibrated to the paper's hardware testbed.
//!
//! The parameters are chosen so that a server of one Xeon Gold 5215 plus
//! three Tesla V100s spans roughly 740–1220 W — covering the paper's set
//! points (800–1200 W) with the same qualitative structure: GPUs dominate
//! the controllable range, the CPU contributes a small slice, and a fixed
//! platform floor (fans pinned per §5, RAM, VRM losses) sits underneath.

use crate::device::{DeviceKind, DeviceSpec, PowerLaw};
use crate::freq::FrequencyTable;

/// Intel Xeon Gold 5215 package (the paper's host CPU): DVFS 1.0–2.4 GHz
/// in 100 MHz P-state steps, ~170 W package peak.
pub fn xeon_gold_5215() -> DeviceSpec {
    DeviceSpec {
        name: "Intel Xeon Gold 5215".to_string(),
        kind: DeviceKind::Cpu,
        freq_table: FrequencyTable::uniform(1000.0, 2400.0, 100.0).expect("static table is valid"),
        power_law: PowerLaw {
            idle_watts: 50.0,
            gain_w_per_mhz: 0.05,
            util_floor: 0.35,
            quad_w_per_mhz2: 2.0e-6,
            quad_ref_mhz: 1500.0,
        },
        thermal: None,
    }
}

/// NVIDIA Tesla V100-PCIE-16GB: core clock 435–1350 MHz in 15 MHz steps
/// (memory clock pinned at 877 MHz as in the paper's `nvidia-smi -ac`
/// command), ~250 W peak under inference load.
pub fn tesla_v100() -> DeviceSpec {
    DeviceSpec {
        name: "Tesla V100-PCIE-16GB".to_string(),
        kind: DeviceKind::Gpu,
        freq_table: FrequencyTable::uniform(435.0, 1350.0, 15.0).expect("static table is valid"),
        power_law: PowerLaw {
            idle_watts: 50.0,
            gain_w_per_mhz: 0.1475,
            util_floor: 0.35,
            quad_w_per_mhz2: 5.0e-6,
            quad_ref_mhz: 800.0,
        },
        // Disabled for paper reproduction: at the evaluated caps the V100s
        // stay far below their 83 °C throttle point. Enable with
        // `thermal::v100_thermal()` for robustness studies.
        thermal: None,
    }
}

/// NVIDIA A100-SXM4-40GB (Ampere, 2020): core clock 210–1410 MHz in
/// 15 MHz steps (base 1065, boost 1410), HBM2e pinned, ~400 W TDP under
/// inference load. Parameters follow the same calibration recipe as the
/// V100 preset — the linear gain carries most of the controllable range,
/// the quadratic term bends the curve near the boost clock — so
/// mixed-generation fleets see a realistically *steeper* W/MHz knob on
/// newer silicon.
pub fn a100() -> DeviceSpec {
    DeviceSpec {
        name: "NVIDIA A100-SXM4-40GB".to_string(),
        kind: DeviceKind::Gpu,
        freq_table: FrequencyTable::uniform(210.0, 1410.0, 15.0).expect("static table is valid"),
        power_law: PowerLaw {
            idle_watts: 55.0,
            gain_w_per_mhz: 0.24,
            util_floor: 0.35,
            quad_w_per_mhz2: 6.0e-6,
            quad_ref_mhz: 900.0,
        },
        thermal: None,
    }
}

/// NVIDIA H100 (Hopper, 2022, SXM): core clock 210–1980 MHz in 15 MHz
/// steps, HBM3 pinned, ~700 W TDP. The widest frequency range and the
/// largest controllable power slice of the three generations — a fleet
/// mixing H100 servers with V100 servers gives the hierarchical
/// allocator strongly asymmetric demand ceilings to divide against.
pub fn h100() -> DeviceSpec {
    DeviceSpec {
        name: "NVIDIA H100-SXM5-80GB".to_string(),
        kind: DeviceKind::Gpu,
        freq_table: FrequencyTable::uniform(210.0, 1980.0, 15.0).expect("static table is valid"),
        power_law: PowerLaw {
            idle_watts: 70.0,
            gain_w_per_mhz: 0.31,
            util_floor: 0.35,
            quad_w_per_mhz2: 4.0e-6,
            quad_ref_mhz: 1000.0,
        },
        thermal: None,
    }
}

/// NVIDIA GeForce RTX 3090 (the motivation experiment's GPU, §3.2):
/// core clock 210–2100 MHz in 15 MHz steps, ~350 W peak.
pub fn rtx_3090() -> DeviceSpec {
    DeviceSpec {
        name: "GeForce RTX 3090".to_string(),
        kind: DeviceKind::Gpu,
        freq_table: FrequencyTable::uniform(210.0, 2100.0, 15.0).expect("static table is valid"),
        power_law: PowerLaw {
            idle_watts: 35.0,
            gain_w_per_mhz: 0.145,
            util_floor: 0.30,
            quad_w_per_mhz2: 3.0e-6,
            quad_ref_mhz: 1200.0,
        },
        thermal: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for spec in [xeon_gold_5215(), tesla_v100(), a100(), h100(), rtx_3090()] {
            spec.validate().unwrap();
        }
    }

    #[test]
    fn a100_range() {
        let gpu = a100();
        assert_eq!(gpu.freq_table.min(), 210.0);
        assert_eq!(gpu.freq_table.max(), 1410.0);
        // Snippet-§2 base and boost clocks are reachable table levels.
        for f in [1065.0, 1410.0] {
            assert_eq!(gpu.freq_table.quantize(f), f);
        }
        let peak = gpu.peak_watts();
        assert!((370.0..420.0).contains(&peak), "peak {peak}");
    }

    #[test]
    fn h100_range() {
        let gpu = h100();
        assert_eq!(gpu.freq_table.min(), 210.0);
        assert_eq!(gpu.freq_table.max(), 1980.0);
        let peak = gpu.peak_watts();
        assert!((650.0..730.0).contains(&peak), "peak {peak}");
    }

    #[test]
    fn generations_order_by_peak_power() {
        // V100 (~250 W) < A100 (~400 W) < H100 (~700 W): the fleet's
        // mixed-generation servers must present genuinely different
        // demand ceilings to the hierarchical allocator.
        let v = tesla_v100().peak_watts();
        let a = a100().peak_watts();
        let h = h100().peak_watts();
        assert!(v < a && a < h, "V100 {v}, A100 {a}, H100 {h}");
    }

    #[test]
    fn newer_generations_widen_the_controllable_range() {
        // The controllable slice (peak − min busy) grows per generation,
        // so capping authority per server grows too.
        for (older, newer) in [(tesla_v100(), a100()), (a100(), h100())] {
            let o = older.peak_watts() - older.min_busy_watts();
            let n = newer.peak_watts() - newer.min_busy_watts();
            assert!(
                n > o,
                "{} range {o} vs {} range {n}",
                older.name,
                newer.name
            );
        }
    }

    #[test]
    fn xeon_range() {
        let cpu = xeon_gold_5215();
        assert_eq!(cpu.freq_table.min(), 1000.0);
        assert_eq!(cpu.freq_table.max(), 2400.0);
        let peak = cpu.peak_watts();
        assert!((150.0..190.0).contains(&peak), "peak {peak}");
    }

    #[test]
    fn v100_range() {
        let gpu = tesla_v100();
        assert_eq!(gpu.freq_table.min(), 435.0);
        assert_eq!(gpu.freq_table.max(), 1350.0);
        let peak = gpu.peak_watts();
        assert!((230.0..270.0).contains(&peak), "peak {peak}");
    }

    #[test]
    fn paper_server_power_envelope() {
        // Platform 300 W + Xeon + 3× V100 must bracket the paper's
        // 800–1200 W set-point sweep.
        let platform = 300.0;
        let cpu = xeon_gold_5215();
        let gpu = tesla_v100();
        let max = platform + cpu.peak_watts() + 3.0 * gpu.peak_watts();
        let min = platform + cpu.min_busy_watts() + 3.0 * gpu.min_busy_watts();
        assert!(max > 1200.0, "max {max} must exceed 1200 W");
        assert!(min < 800.0, "min {min} must be below 800 W");
    }

    #[test]
    fn rtx3090_covers_motivation_frequencies() {
        // §3.2 uses 495, 660 and 810 MHz on the RTX 3090.
        let gpu = rtx_3090();
        for f in [495.0, 660.0, 810.0] {
            assert_eq!(gpu.freq_table.quantize(f), f);
        }
    }

    #[test]
    fn gpu_dominates_controllable_range() {
        // The premise of the paper: CPU DVFS alone cannot cap a GPU server.
        let cpu = xeon_gold_5215();
        let gpu = tesla_v100();
        let cpu_range = cpu.peak_watts() - cpu.min_busy_watts();
        let gpu_range = 3.0 * (gpu.peak_watts() - gpu.min_busy_watts());
        assert!(
            gpu_range > 4.0 * cpu_range,
            "GPU range {gpu_range} vs CPU {cpu_range}"
        );
    }
}
