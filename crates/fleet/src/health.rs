//! Fleet health: the `capgpu-obs` control-loop analyzer lifted to fleet
//! scope — one streaming detector bank per rack, fed from the epoch
//! fold a [`FleetReport`] already carries, so
//! a completed fleet run can be triaged without re-simulating.
//!
//! Signal mapping (rack epoch → [`PeriodSample`]):
//! - power / cap: rack measured vs. assigned watts — cap-violation burn
//!   fires when a rack sustainedly draws past its allocated budget.
//! - actuation: the epoch-over-epoch change in the rack's assigned
//!   budget (W stands in for MHz; the oscillation detector only looks
//!   at sign flips above its hysteresis band, so the unit is free).
//! - meter silence: a rack that measured no power at all.
//! - saturation: every server in the rack pinned at its set point.
//! - SLO burn: rack misses over batches completed.

use crate::sim::FleetReport;
use crate::{CapGpuError, Result};
use capgpu_obs::analyzer::{AnalyzerConfig, HealthAnalyzer, PeriodSample, Verdict, DETECTORS};

/// Final detector verdicts for one rack.
#[derive(Debug, Clone, PartialEq)]
pub struct RackHealth {
    /// Rack index (topology order).
    pub rack: usize,
    /// Final verdict per detector, in [`DETECTORS`] order.
    pub verdicts: [(&'static str, Verdict); DETECTORS.len()],
    /// Worst final verdict.
    pub overall: Verdict,
    /// Verdict transitions observed across the epochs (edge count).
    pub edges: usize,
}

/// Fleet-wide health roll-up.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetHealth {
    /// Per-rack health, rack index order.
    pub racks: Vec<RackHealth>,
    /// Racks whose overall verdict is [`Verdict::Ok`].
    pub ok: usize,
    /// Racks at [`Verdict::Warn`].
    pub warn: usize,
    /// Racks at [`Verdict::Critical`].
    pub critical: usize,
}

impl FleetHealth {
    /// Worst overall verdict across racks ([`Verdict::Ok`] for an
    /// empty fleet).
    pub fn overall(&self) -> Verdict {
        self.racks
            .iter()
            .map(|r| r.overall)
            .max()
            .unwrap_or(Verdict::Ok)
    }
}

/// Runs one analyzer per rack over the report's epoch sequence.
///
/// # Errors
/// [`CapGpuError::BadConfig`] on invalid analyzer tuning.
pub fn analyze(report: &FleetReport, cfg: &AnalyzerConfig) -> Result<FleetHealth> {
    let n_racks = report.epochs.first().map_or(0, |e| e.racks.len());
    // Per-rack server counts, for the "fully pinned" saturation signal.
    let mut rack_servers = vec![0usize; n_racks];
    for s in &report.stats {
        if s.rack < n_racks {
            rack_servers[s.rack] += 1;
        }
    }
    let mut analyzers = Vec::with_capacity(n_racks);
    for _ in 0..n_racks {
        analyzers.push(
            HealthAnalyzer::new(cfg.clone())
                .map_err(|e| CapGpuError::BadConfig(format!("fleet health: {e}")))?,
        );
    }
    let mut edges = vec![0usize; n_racks];
    let mut prev_assigned: Vec<Option<f64>> = vec![None; n_racks];
    for epoch in &report.epochs {
        for (r, rack) in epoch.racks.iter().enumerate().take(n_racks) {
            let sample = PeriodSample {
                power_w: rack.measured,
                cap_w: rack.assigned,
                delta_f_mhz: prev_assigned[r].map_or(0.0, |p| rack.assigned - p),
                meter_stale: rack.measured <= 0.0,
                saturated: rack_servers[r] > 0 && rack.binding_servers == rack_servers[r],
                slo_miss_frac: if rack.completed > 0 {
                    rack.misses as f64 / rack.completed as f64
                } else {
                    0.0
                },
            };
            prev_assigned[r] = Some(rack.assigned);
            edges[r] += analyzers[r].observe(&sample).len();
        }
    }
    let racks: Vec<RackHealth> = analyzers
        .iter()
        .enumerate()
        .map(|(rack, a)| RackHealth {
            rack,
            verdicts: a.verdicts(),
            overall: a.overall(),
            edges: edges[rack],
        })
        .collect();
    let ok = racks.iter().filter(|r| r.overall == Verdict::Ok).count();
    let warn = racks.iter().filter(|r| r.overall == Verdict::Warn).count();
    let critical = racks
        .iter()
        .filter(|r| r.overall == Verdict::Critical)
        .count();
    Ok(FleetHealth {
        racks,
        ok,
        warn,
        critical,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{EpochReport, RackEpoch, ServerStat};

    fn rack_epoch(assigned: f64, measured: f64, misses: u64, binding: usize) -> RackEpoch {
        RackEpoch {
            assigned,
            measured,
            misses,
            completed: 100,
            binding_servers: binding,
            worst_p99_s: 0.1,
        }
    }

    fn stat(rack: usize) -> ServerStat {
        ServerStat {
            rack,
            class: 0,
            streams: 1,
            demand: 900.0,
            min_watts: 400.0,
            max_watts: 1200.0,
            assigned: 900.0,
            measured: 890.0,
            misses: 0,
            completed: 100,
        }
    }

    fn report(epochs: Vec<EpochReport>, stats: Vec<ServerStat>) -> FleetReport {
        let server_periods = stats.len() * epochs.len();
        FleetReport {
            epochs,
            stats,
            server_periods,
            reorder_window: 1,
            peak_pending: 1,
            peak_live_traces: 1,
        }
    }

    #[test]
    fn healthy_fleet_is_all_ok() {
        let epochs = (0..10)
            .map(|_| EpochReport {
                racks: vec![rack_epoch(1800.0, 1750.0, 0, 0); 2],
                migrations: Vec::new(),
            })
            .collect();
        let r = report(epochs, vec![stat(0), stat(0), stat(1), stat(1)]);
        let h = analyze(&r, &AnalyzerConfig::default()).unwrap();
        assert_eq!(h.racks.len(), 2);
        assert_eq!((h.ok, h.warn, h.critical), (2, 0, 0));
        assert_eq!(h.overall(), Verdict::Ok);
    }

    #[test]
    fn over_budget_rack_burns_while_others_stay_ok() {
        // Rack 0 draws 40 W over budget every epoch; rack 1 is healthy.
        let epochs: Vec<EpochReport> = (0..40)
            .map(|_| EpochReport {
                racks: vec![
                    rack_epoch(1800.0, 1840.0, 0, 0),
                    rack_epoch(1800.0, 1750.0, 0, 0),
                ],
                migrations: Vec::new(),
            })
            .collect();
        let r = report(epochs, vec![stat(0), stat(0), stat(1), stat(1)]);
        let h = analyze(&r, &AnalyzerConfig::default()).unwrap();
        assert_eq!(h.racks[0].overall, Verdict::Critical);
        assert_eq!(h.racks[1].overall, Verdict::Ok);
        assert_eq!(h.critical, 1);
        assert!(h.racks[0].edges >= 1, "burn must edge-trigger");
        let burn = h.racks[0]
            .verdicts
            .iter()
            .find(|(n, _)| *n == "cap_violation_burn")
            .unwrap()
            .1;
        assert_eq!(burn, Verdict::Critical);
    }

    #[test]
    fn fully_pinned_rack_trips_saturation_dwell() {
        // Both servers in rack 0 sit at their set point all run.
        let epochs: Vec<EpochReport> = (0..40)
            .map(|_| EpochReport {
                racks: vec![rack_epoch(1800.0, 1795.0, 0, 2)],
                migrations: Vec::new(),
            })
            .collect();
        let r = report(epochs, vec![stat(0), stat(0)]);
        let h = analyze(&r, &AnalyzerConfig::default()).unwrap();
        let dwell = h.racks[0]
            .verdicts
            .iter()
            .find(|(n, _)| *n == "saturation_dwell")
            .unwrap()
            .1;
        assert_ne!(dwell, Verdict::Ok, "sustained pinning must at least warn");
    }

    #[test]
    fn empty_report_yields_empty_health() {
        let h = analyze(&report(Vec::new(), Vec::new()), &AnalyzerConfig::default()).unwrap();
        assert!(h.racks.is_empty());
        assert_eq!(h.overall(), Verdict::Ok);
    }
}
