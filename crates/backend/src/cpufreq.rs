//! [`CpufreqBackend`] — CPU packages through the Linux `cpufreq` sysfs
//! interface, with power sensed from RAPL energy counters.
//!
//! Actuation follows the paper's CPU capping mechanism: lowering a
//! package's ceiling by writing `scaling_max_freq` (kHz) per cpufreq
//! policy, exactly what `cpupower frequency-set --max` does. Sensing
//! derives watts from the monotonic `energy_uj` counters under
//! `powercap/intel-rapl`, differencing successive reads and handling
//! counter wrap via `max_energy_range_uj`.
//!
//! The whole backend is rooted at a configurable path (default `/sys`),
//! so the same code runs against real sysfs and against a fixture tree
//! in tests — no root privileges or Intel hardware needed to exercise
//! the parsing, quantization, and wrap logic.

use std::fs;
use std::path::{Path, PathBuf};

use capgpu_sim::{DeviceKind, METER_HISTORY_SAMPLES};

use crate::{BackendDevice, BackendError, BackendResult, Capabilities, PowerBackend};

/// One cpufreq policy directory.
#[derive(Debug, Clone)]
struct Policy {
    dir: PathBuf,
    levels_khz: Vec<u64>,
}

/// One RAPL package domain.
#[derive(Debug, Clone)]
struct RaplDomain {
    energy_path: PathBuf,
    max_range_uj: u64,
    last_uj: Option<u64>,
}

/// CPU packages behind the [`PowerBackend`] surface.
#[derive(Debug, Clone)]
pub struct CpufreqBackend {
    devices: Vec<BackendDevice>,
    policies: Vec<Policy>,
    rapl: Vec<RaplDomain>,
    /// Sleep inside `advance` (live mode). Fixture tests disable it.
    sleep: bool,
    history: Vec<f64>,
    last_per_domain_w: Vec<f64>,
    elapsed_s: u64,
    last_sample_at_s: Option<u64>,
}

impl CpufreqBackend {
    /// Enumerates cpufreq policies and RAPL domains under `root`
    /// (pass `"/sys"` for the live system).
    ///
    /// # Errors
    /// [`BackendError::Unavailable`] when no cpufreq policies exist
    /// under the root; [`BackendError::Io`] for unreadable attribute
    /// files.
    pub fn probe(root: impl Into<PathBuf>) -> BackendResult<Self> {
        let root = root.into();
        let policies = enumerate_policies(&root)?;
        if policies.is_empty() {
            return Err(BackendError::Unavailable(format!(
                "no cpufreq policies under {}",
                root.display()
            )));
        }
        let rapl = enumerate_rapl(&root)?;
        let mut devices = Vec::with_capacity(policies.len());
        for (index, p) in policies.iter().enumerate() {
            let min_khz: u64 = read_attr(&p.dir.join("cpuinfo_min_freq"))?;
            let max_khz: u64 = read_attr(&p.dir.join("cpuinfo_max_freq"))?;
            devices.push(BackendDevice {
                index,
                kind: DeviceKind::Cpu,
                name: p
                    .dir
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_else(|| format!("policy{index}")),
                f_min_mhz: min_khz as f64 / 1000.0,
                f_max_mhz: max_khz as f64 / 1000.0,
                levels_mhz: p.levels_khz.iter().map(|&k| k as f64 / 1000.0).collect(),
                power_limit_w: None,
            });
        }
        let n_rapl = rapl.len();
        Ok(CpufreqBackend {
            devices,
            policies,
            rapl,
            sleep: true,
            history: Vec::new(),
            last_per_domain_w: vec![0.0; n_rapl],
            elapsed_s: 0,
            last_sample_at_s: None,
        })
    }

    /// Disables the wall-clock sleep inside [`PowerBackend::advance`] —
    /// for fixture tests, where the "plant" is a directory tree.
    pub fn disable_sleep(&mut self) {
        self.sleep = false;
    }
}

fn enumerate_policies(root: &Path) -> BackendResult<Vec<Policy>> {
    let base = root.join("devices/system/cpu/cpufreq");
    let mut numbered: Vec<(u64, PathBuf)> = Vec::new();
    let entries = match fs::read_dir(&base) {
        Ok(e) => e,
        Err(_) => return Ok(Vec::new()),
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(num) = name.strip_prefix("policy").and_then(|s| s.parse().ok()) {
            numbered.push((num, entry.path()));
        }
    }
    numbered.sort_by_key(|(num, _)| *num);
    let mut out = Vec::with_capacity(numbered.len());
    for (_, dir) in numbered {
        // Optional attribute: absent with the intel_pstate driver.
        let levels_khz = fs::read_to_string(dir.join("scaling_available_frequencies"))
            .map(|s| {
                let mut v: Vec<u64> = s
                    .split_whitespace()
                    .filter_map(|t| t.parse().ok())
                    .collect();
                v.sort_unstable();
                v
            })
            .unwrap_or_default();
        out.push(Policy { dir, levels_khz });
    }
    Ok(out)
}

fn enumerate_rapl(root: &Path) -> BackendResult<Vec<RaplDomain>> {
    let base = root.join("class/powercap/intel-rapl");
    let mut numbered: Vec<(u64, PathBuf)> = Vec::new();
    let entries = match fs::read_dir(&base) {
        Ok(e) => e,
        Err(_) => return Ok(Vec::new()),
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        // Top-level package domains only (`intel-rapl:0`), not
        // subdomains (`intel-rapl:0:0` = core/dram).
        if let Some(rest) = name.strip_prefix("intel-rapl:") {
            if let Ok(num) = rest.parse::<u64>() {
                numbered.push((num, entry.path()));
            }
        }
    }
    numbered.sort_by_key(|(num, _)| *num);
    let mut out = Vec::with_capacity(numbered.len());
    for (_, dir) in numbered {
        let max_range_uj = read_attr(&dir.join("max_energy_range_uj")).unwrap_or(u64::MAX);
        out.push(RaplDomain {
            energy_path: dir.join("energy_uj"),
            max_range_uj,
            last_uj: None,
        });
    }
    Ok(out)
}

fn read_attr<T: std::str::FromStr>(path: &Path) -> BackendResult<T> {
    let raw = fs::read_to_string(path)
        .map_err(|e| BackendError::Io(format!("read {}: {e}", path.display())))?;
    raw.trim()
        .parse()
        .map_err(|_| BackendError::Io(format!("parse {}: `{}`", path.display(), raw.trim())))
}

impl PowerBackend for CpufreqBackend {
    fn name(&self) -> &str {
        "cpufreq"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            set_frequency: true,
            set_power_limit: false,
            server_power: !self.rapl.is_empty(),
            // Per-device attribution needs one package domain per
            // policy; a mismatch (e.g. SMT split across policies) falls
            // back to server-level sensing only.
            per_device_power: self.rapl.len() == self.policies.len(),
            throughput: false,
            wall_clock: true,
        }
    }

    fn devices(&self) -> &[BackendDevice] {
        &self.devices
    }

    fn set_frequencies(&mut self, targets_mhz: &[f64]) -> BackendResult<()> {
        if targets_mhz.len() != self.policies.len() {
            return Err(BackendError::WrongArity {
                expected: self.policies.len(),
                got: targets_mhz.len(),
            });
        }
        for (i, &t) in targets_mhz.iter().enumerate() {
            let khz = (t * 1000.0).round() as u64;
            // Snap to the driver's published grid when it has one;
            // otherwise the kernel clamps to [cpuinfo_min, cpuinfo_max].
            let snapped = self.policies[i]
                .levels_khz
                .iter()
                .copied()
                .min_by_key(|&l| l.abs_diff(khz))
                .unwrap_or(khz);
            // A rejected write leaves that policy's previous clock in
            // force and the rest still actuate (the trait contract); the
            // supervisor's authority detector notices a policy that
            // does not follow its targets.
            let _ = fs::write(
                self.policies[i].dir.join("scaling_max_freq"),
                format!("{snapped}\n"),
            );
        }
        Ok(())
    }

    fn effective_frequencies_into(&mut self, out: &mut Vec<f64>) -> BackendResult<()> {
        out.clear();
        for p in &self.policies {
            let khz: u64 = read_attr(&p.dir.join("scaling_cur_freq"))?;
            out.push(khz as f64 / 1000.0);
        }
        Ok(())
    }

    fn advance(&mut self, dt_s: f64) -> BackendResult<Option<f64>> {
        if !(dt_s > 0.0 && dt_s.is_finite()) {
            return Err(BackendError::Unsupported("advance requires dt_s > 0"));
        }
        if self.sleep {
            std::thread::sleep(std::time::Duration::from_secs_f64(dt_s));
        }
        self.elapsed_s += dt_s.round().max(1.0) as u64;
        if self.rapl.is_empty() {
            return Ok(None);
        }
        let mut total_w = 0.0;
        let mut fresh = true;
        for (i, dom) in self.rapl.iter_mut().enumerate() {
            // An unreadable counter is a silent meter this second, not a
            // failed period; dropping the baseline makes the next good
            // read re-baseline instead of differencing across the gap.
            let Ok(now_uj) = read_attr::<u64>(&dom.energy_path) else {
                dom.last_uj = None;
                fresh = false;
                continue;
            };
            match dom.last_uj.replace(now_uj) {
                Some(prev) => {
                    // Monotonic counter with wrap at max_energy_range_uj.
                    let delta_uj = if now_uj >= prev {
                        now_uj - prev
                    } else {
                        now_uj + (dom.max_range_uj - prev)
                    };
                    let watts = delta_uj as f64 / 1e6 / dt_s;
                    self.last_per_domain_w[i] = watts;
                    total_w += watts;
                }
                // First read only establishes the baseline.
                None => fresh = false,
            }
        }
        if !fresh {
            return Ok(None);
        }
        self.history.push(total_w);
        if self.history.len() > METER_HISTORY_SAMPLES {
            self.history.remove(0);
        }
        self.last_sample_at_s = Some(self.elapsed_s);
        Ok(Some(total_w))
    }

    fn average_power(&self, last_n: usize) -> Option<f64> {
        if last_n == 0 || self.history.is_empty() {
            return None;
        }
        let n = last_n.min(self.history.len());
        Some(self.history.iter().rev().take(n).sum::<f64>() / n as f64)
    }

    fn seconds_since_sample(&self) -> Option<u64> {
        self.last_sample_at_s.map(|at| self.elapsed_s - at)
    }

    fn per_device_power_into(&mut self, out: &mut Vec<f64>) -> BackendResult<()> {
        if self.rapl.len() != self.policies.len() {
            return Err(BackendError::Unsupported(
                "per-device power (RAPL/policy mismatch)",
            ));
        }
        out.clear();
        out.extend_from_slice(&self.last_per_domain_w);
        Ok(())
    }

    fn wall_clock_unix_ms(&self) -> Option<u64> {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .ok()
            .map(|d| d.as_millis() as u64)
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static FIXTURE_SEQ: AtomicU64 = AtomicU64::new(0);

    /// Builds a two-package fixture tree and returns its root.
    fn fixture() -> PathBuf {
        let seq = FIXTURE_SEQ.fetch_add(1, Ordering::SeqCst);
        let root = std::env::temp_dir().join(format!(
            "capgpu-cpufreq-fixture-{}-{seq}",
            std::process::id()
        ));
        for (i, cur) in [(0u64, 2_400_000u64), (1, 2_200_000)] {
            let p = root.join(format!("devices/system/cpu/cpufreq/policy{i}"));
            fs::create_dir_all(&p).unwrap();
            fs::write(p.join("cpuinfo_min_freq"), "1000000\n").unwrap();
            fs::write(p.join("cpuinfo_max_freq"), "2400000\n").unwrap();
            fs::write(p.join("scaling_max_freq"), "2400000\n").unwrap();
            fs::write(p.join("scaling_cur_freq"), format!("{cur}\n")).unwrap();
            fs::write(
                p.join("scaling_available_frequencies"),
                "1000000 1200000 1400000 1600000 1800000 2000000 2200000 2400000\n",
            )
            .unwrap();
            let r = root.join(format!("class/powercap/intel-rapl/intel-rapl:{i}"));
            fs::create_dir_all(&r).unwrap();
            fs::write(r.join("energy_uj"), "1000000000\n").unwrap();
            fs::write(r.join("max_energy_range_uj"), "262143328850\n").unwrap();
        }
        root
    }

    fn set_energy(root: &Path, domain: usize, uj: u64) {
        fs::write(
            root.join(format!(
                "class/powercap/intel-rapl/intel-rapl:{domain}/energy_uj"
            )),
            format!("{uj}\n"),
        )
        .unwrap();
    }

    #[test]
    fn enumerates_policies_and_quantizes_writes() {
        let root = fixture();
        let mut b = CpufreqBackend::probe(&root).unwrap();
        b.disable_sleep();
        assert_eq!(b.num_devices(), 2);
        assert_eq!(b.devices()[0].kind, DeviceKind::Cpu);
        assert_eq!(b.devices()[0].f_max_mhz, 2400.0);
        assert_eq!(b.devices()[0].levels_mhz.len(), 8);
        assert!(b.capabilities().per_device_power);
        // 1,530 MHz snaps to the 1,600,000 kHz grid point.
        b.set_frequencies(&[1530.0, 1000.0]).unwrap();
        let written =
            fs::read_to_string(root.join("devices/system/cpu/cpufreq/policy0/scaling_max_freq"))
                .unwrap();
        assert_eq!(written.trim(), "1600000");
        let mut eff = Vec::new();
        b.effective_frequencies_into(&mut eff).unwrap();
        assert_eq!(eff, vec![2400.0, 2200.0]);
        assert!(matches!(
            b.set_frequencies(&[1.0]),
            Err(BackendError::WrongArity {
                expected: 2,
                got: 1
            })
        ));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rapl_differencing_and_wrap() {
        let root = fixture();
        let mut b = CpufreqBackend::probe(&root).unwrap();
        b.disable_sleep();
        // First advance establishes baselines: no sample.
        assert_eq!(b.advance(1.0).unwrap(), None);
        // +45 J and +30 J over one second = 75 W total.
        set_energy(&root, 0, 1_045_000_000);
        set_energy(&root, 1, 1_030_000_000);
        assert_eq!(b.advance(1.0).unwrap(), Some(75.0));
        let mut per = Vec::new();
        b.per_device_power_into(&mut per).unwrap();
        assert_eq!(per, vec![45.0, 30.0]);
        assert_eq!(b.seconds_since_sample(), Some(0));
        // Counter wrap: domain 0 rolls past max_energy_range_uj.
        set_energy(&root, 0, 5_000_000);
        set_energy(&root, 1, 1_050_000_000);
        let wrapped = b.advance(1.0).unwrap().unwrap();
        let expected0 = (5_000_000u64 + (262_143_328_850 - 1_045_000_000)) as f64 / 1e6;
        assert!((wrapped - (expected0 + 20.0)).abs() < 1e-9);
        assert_eq!(b.average_power(2).unwrap(), (75.0 + wrapped) / 2.0);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn unreadable_counter_and_rejected_write_fail_nothing() {
        let root = fixture();
        let mut b = CpufreqBackend::probe(&root).unwrap();
        b.disable_sleep();
        assert_eq!(b.advance(1.0).unwrap(), None);
        let energy = root.join("class/powercap/intel-rapl/intel-rapl:1/energy_uj");
        fs::remove_file(&energy).unwrap();
        assert_eq!(b.advance(1.0).unwrap(), None);
        assert_eq!(b.seconds_since_sample(), None);
        // Restored: the first read re-baselines, the next one differences.
        set_energy(&root, 1, 5_000_000);
        assert_eq!(b.advance(1.0).unwrap(), None);
        set_energy(&root, 0, 1_010_000_000);
        set_energy(&root, 1, 5_020_000);
        let w = b.advance(1.0).unwrap().unwrap();
        assert!((w - 10.02).abs() < 1e-9, "{w}");

        let max0 = root.join("devices/system/cpu/cpufreq/policy0/scaling_max_freq");
        fs::remove_file(&max0).unwrap();
        fs::create_dir(&max0).unwrap();
        b.set_frequencies(&[1200.0, 1400.0]).unwrap();
        let written =
            fs::read_to_string(root.join("devices/system/cpu/cpufreq/policy1/scaling_max_freq"))
                .unwrap();
        assert_eq!(written.trim(), "1400000");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn missing_root_is_unavailable() {
        let err = CpufreqBackend::probe("/nonexistent-capgpu-root").unwrap_err();
        assert!(matches!(err, BackendError::Unavailable(_)));
    }
}
