//! Crash-recovery replay: fold journal records back into the control
//! state a dead daemon was running, so a restarted `capgpud` resumes
//! instead of re-identifying from scratch.
//!
//! The journal carries everything needed for *bit-exact* recovery:
//! per-device base gains (`model_gain`), the tracker's scale and offset
//! at each refit push (`refit`), supervisor tier transitions
//! (`tier_change`), device quarantine edges (`quarantine`), setpoint
//! changes (`setpoint_change`), and per-period commanded targets
//! (`period`, as [`Targets`](capgpu_telemetry::journal::Targets)).
//! Floats round-trip exactly through the JSONL rendering, so the
//! recovered model equals the pushed one bit-for-bit.

use capgpu_telemetry::journal::Body;

use crate::reader::Record;

/// Control state re-derived from a journal.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplayState {
    /// Last supervisor tier observed (0 = Primary, 1 = SafeFallback,
    /// 2 = Park), or `None` when no tier event was journaled.
    pub tier: Option<u64>,
    /// Per-device base gains (W/MHz) from identification, device-index
    /// ordered.
    pub base_gains_w_per_mhz: Vec<f64>,
    /// Model idle offset at identification (W).
    pub base_offset_w: Option<f64>,
    /// Latest pushed tracker scale (multiplies the base gains).
    pub scale: Option<f64>,
    /// Latest pushed tracker offset (W); replaces the base offset once
    /// a refit lands.
    pub offset_w: Option<f64>,
    /// Devices currently quarantined (edge-folded from `quarantine`
    /// events).
    pub quarantined: Vec<usize>,
    /// Last commanded per-device frequency targets (MHz).
    pub last_targets_mhz: Vec<f64>,
    /// Last *operator* setpoint change (W), from `setpoint_change`
    /// events; `None` means the config-file setpoint was never changed
    /// at runtime, so the restarted daemon's own config is authoritative.
    pub cap_w: Option<f64>,
    /// Last period index seen.
    pub last_period: Option<u64>,
    /// Record clock of the last record seen.
    pub last_t_s: Option<f64>,
    /// Counts of each kind replayed, for diagnostics: `(kind, n)`.
    pub kind_counts: Vec<(String, u64)>,
}

impl ReplayState {
    /// Folds `records` (journal order) into a recovered state.
    pub fn replay<'a>(records: impl IntoIterator<Item = &'a Record>) -> Self {
        let mut s = ReplayState::default();
        for r in records {
            s.apply(r);
        }
        s
    }

    /// Applies one record. Every kind is named: a kind added to the
    /// schema does not compile here until replay folds or ignores it.
    pub fn apply(&mut self, r: &Record) {
        self.last_period = Some(r.period);
        self.last_t_s = Some(r.sim_time_s);
        let kind = r.body.kind();
        match self.kind_counts.iter_mut().find(|(k, _)| k == kind) {
            Some((_, n)) => *n += 1,
            None => self.kind_counts.push((kind.to_string(), 1)),
        }
        match &r.body {
            Body::ModelGain { device, w_per_mhz } => {
                let device = *device as usize;
                if self.base_gains_w_per_mhz.len() <= device {
                    self.base_gains_w_per_mhz.resize(device + 1, 0.0);
                }
                self.base_gains_w_per_mhz[device] = *w_per_mhz;
            }
            Body::Identified { offset_w, .. } => self.base_offset_w = Some(*offset_w),
            Body::Refit { scale, offset_w } => {
                self.scale = Some(*scale);
                self.offset_w = Some(*offset_w);
            }
            Body::TierChange { to, .. } => self.tier = Some(*to),
            Body::Quarantine { device, on } => {
                let device = *device as usize;
                if !on {
                    self.quarantined.retain(|&d| d != device);
                } else if !self.quarantined.contains(&device) {
                    self.quarantined.push(device);
                    self.quarantined.sort_unstable();
                }
            }
            Body::SetpointChange { to_w, .. } => self.cap_w = Some(*to_w),
            Body::Period {
                targets: Some(targets),
                ..
            } => {
                // Decoded behind the targets in force, which are dropped
                // only once every element parsed.
                let stale = self.last_targets_mhz.len();
                if targets.decode_into(&mut self.last_targets_mhz) {
                    self.last_targets_mhz.drain(..stale);
                }
            }
            // Diagnostics, the runner's kinds, and kinds this build does
            // not know: counted above, nothing to restore.
            Body::Period { targets: None, .. }
            | Body::Health { .. }
            | Body::Recovered { .. }
            | Body::RunStart { .. }
            | Body::RunEnd { .. }
            | Body::FaultOnset { .. }
            | Body::FaultClear { .. }
            | Body::PhaseTransition { .. }
            | Body::KvPressure { .. }
            | Body::SloFloorBinding { .. }
            | Body::DsCarryWraps { .. }
            | Body::Unknown { .. } => {}
        }
    }

    /// The recovered power model as `(per-device gains, offset)`:
    /// base gains scaled by the latest refit scale, with the latest
    /// refit offset (falling back to the identification offset). `None`
    /// until identification was replayed.
    pub fn model(&self) -> Option<(Vec<f64>, f64)> {
        if self.base_gains_w_per_mhz.is_empty() {
            return None;
        }
        let offset = self.offset_w.or(self.base_offset_w)?;
        let scale = self.scale.unwrap_or(1.0);
        let gains = self
            .base_gains_w_per_mhz
            .iter()
            .map(|g| g * scale)
            .collect();
        Some((gains, offset))
    }

    /// Supervisor tier to resume in, defaulting to Primary (0) when the
    /// journal never recorded a transition.
    pub fn tier_or_primary(&self) -> u64 {
        self.tier.unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::parse_segment;

    fn replay_text(text: &str) -> ReplayState {
        let mut records = Vec::new();
        parse_segment(text.as_bytes(), "<t>", true, &mut records).unwrap();
        ReplayState::replay(&records)
    }

    #[test]
    fn folds_model_tier_and_quarantine() {
        let s = replay_text(concat!(
            "{\"v\":1,\"period\":0,\"t_s\":0,\"kind\":\"model_gain\",\"device\":0,\"w_per_mhz\":0.35}\n",
            "{\"v\":1,\"period\":0,\"t_s\":0,\"kind\":\"model_gain\",\"device\":1,\"w_per_mhz\":0.4}\n",
            "{\"v\":1,\"period\":0,\"t_s\":0,\"kind\":\"identified\",\"offset_w\":210}\n",
            "{\"v\":1,\"period\":3,\"t_s\":12,\"kind\":\"refit\",\"scale\":1.0625,\"offset_w\":214.5}\n",
            "{\"v\":1,\"period\":4,\"t_s\":16,\"kind\":\"tier_change\",\"from\":0,\"to\":1,\"reason\":\"stale_meter\"}\n",
            "{\"v\":1,\"period\":5,\"t_s\":20,\"kind\":\"quarantine\",\"device\":1,\"on\":true}\n",
            "{\"v\":1,\"period\":6,\"t_s\":24,\"kind\":\"tier_change\",\"from\":1,\"to\":0,\"reason\":\"recovered\"}\n",
            "{\"v\":1,\"period\":7,\"t_s\":28,\"kind\":\"setpoint_change\",\"from_w\":900,\"to_w\":850}\n",
            "{\"v\":1,\"period\":8,\"t_s\":32,\"kind\":\"period\",\"targets\":\"1350,1425.5\"}\n",
        ));
        assert_eq!(s.tier_or_primary(), 0);
        assert_eq!(s.quarantined, vec![1]);
        assert_eq!(s.cap_w, Some(850.0));
        assert_eq!(s.last_targets_mhz, vec![1350.0, 1425.5]);
        assert_eq!(s.last_period, Some(8));
        let (gains, offset) = s.model().unwrap();
        assert_eq!(offset, 214.5);
        assert_eq!(gains, vec![0.35 * 1.0625, 0.4 * 1.0625]);
    }

    #[test]
    fn quarantine_edges_fold() {
        let s = replay_text(concat!(
            "{\"v\":1,\"period\":1,\"t_s\":4,\"kind\":\"quarantine\",\"device\":2,\"on\":true}\n",
            "{\"v\":1,\"period\":2,\"t_s\":8,\"kind\":\"quarantine\",\"device\":0,\"on\":true}\n",
            "{\"v\":1,\"period\":3,\"t_s\":12,\"kind\":\"quarantine\",\"device\":2,\"on\":false}\n",
        ));
        assert_eq!(s.quarantined, vec![0]);
    }

    #[test]
    fn a_bad_target_list_leaves_the_targets_in_force() {
        let period = |targets: &str| {
            format!("{{\"v\":1,\"period\":1,\"t_s\":4,\"kind\":\"period\",\"targets\":\"{targets}\"}}\n")
        };
        let good = period("1350,1425.5");
        assert_eq!(replay_text(&good).last_targets_mhz, vec![1350.0, 1425.5]);
        // Unparseable anywhere in the list, or not finite (which
        // `str::parse` alone would take): nothing of it is applied.
        for bad in [
            "x,900",
            "900,x",
            "900,,875",
            "900,",
            "inf,1350",
            "NaN,1350",
            "1e999,1350",
            "infinity,-inf",
        ] {
            let s = replay_text(&format!("{good}{}", period(bad)));
            assert_eq!(s.last_targets_mhz, vec![1350.0, 1425.5], "{bad}");
        }
        // A shorter, a longer and an empty list each replace it whole.
        for (next, want) in [
            ("990", vec![990.0]),
            ("1,2,3", vec![1.0, 2.0, 3.0]),
            ("", vec![]),
        ] {
            let s = replay_text(&format!("{good}{}", period(next)));
            assert_eq!(s.last_targets_mhz, want, "{next:?}");
        }
    }

    #[test]
    fn model_is_none_before_identification() {
        let s = replay_text("{\"v\":1,\"period\":0,\"t_s\":0,\"kind\":\"period\"}\n");
        assert_eq!(s.model(), None);
        assert_eq!(s.tier_or_primary(), 0);
    }
}
