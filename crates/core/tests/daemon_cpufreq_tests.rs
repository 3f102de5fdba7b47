//! The daemon over the real `CpufreqBackend` on a sysfs fixture tree:
//! what `daemon.backend = "cpufreq"` runs, minus the kernel. A
//! test-side wrapper plays the kernel and nothing else — it turns each
//! `scaling_max_freq` write into `scaling_cur_freq` and adds `P(f)·1 s`
//! to each RAPL `energy_uj` (wrapping at `max_energy_range_uj`) before
//! every second — so every byte the daemon reads or writes crosses the
//! production parser, kHz snapping and RAPL differencing.

use std::fs;
use std::path::{Path, PathBuf};

use capgpu::daemon::{Daemon, DaemonConfig, PeriodReport};
use capgpu::prelude::SupervisorTier;
use capgpu::CapGpuError;
use capgpu_backend::{BackendDevice, BackendResult, Capabilities, CpufreqBackend, PowerBackend};

const POLICIES: usize = 2;
/// Per-package power law of the fixture plant: `IDLE_W + W_PER_MHZ·f`,
/// so the two packages span 140–280 W.
const IDLE_W: f64 = 20.0;
const W_PER_MHZ: f64 = 0.05;
const SETPOINT_W: f64 = 200.0;
const MAX_RANGE_UJ: u64 = 262_143_328_850;
/// ~30 s of full power below the wrap, so every run crosses it.
const START_UJ: u64 = MAX_RANGE_UJ - 6_000_000_000;

fn policy(root: &Path, i: usize) -> PathBuf {
    root.join(format!("devices/system/cpu/cpufreq/policy{i}"))
}

fn energy(root: &Path, i: usize) -> PathBuf {
    root.join(format!(
        "class/powercap/intel-rapl/intel-rapl:{i}/energy_uj"
    ))
}

fn read_u64(path: &Path) -> Option<u64> {
    fs::read_to_string(path).ok()?.trim().parse().ok()
}

/// Two intel_pstate-style policies (no `scaling_available_frequencies`,
/// so writes snap to whole kHz) and one RAPL package domain each.
fn fixture(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("capgpu-cpufreq-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    for i in 0..POLICIES {
        let p = policy(&root, i);
        fs::create_dir_all(&p).unwrap();
        fs::write(p.join("cpuinfo_min_freq"), "1000000\n").unwrap();
        fs::write(p.join("cpuinfo_max_freq"), "2400000\n").unwrap();
        fs::write(p.join("scaling_max_freq"), "2400000\n").unwrap();
        fs::write(p.join("scaling_cur_freq"), "2400000\n").unwrap();
        let r = energy(&root, i);
        fs::create_dir_all(r.parent().unwrap()).unwrap();
        fs::write(&r, format!("{START_UJ}\n")).unwrap();
        fs::write(
            r.with_file_name("max_energy_range_uj"),
            format!("{MAX_RANGE_UJ}\n"),
        )
        .unwrap();
    }
    root
}

/// The kernel around the real backend, and nothing else.
struct Kernel {
    root: PathBuf,
    cpufreq: CpufreqBackend,
    /// Seconds until package 1's `energy_uj` vanishes, if it is due to.
    vanish_in: Option<usize>,
}

impl PowerBackend for Kernel {
    fn name(&self) -> &str {
        self.cpufreq.name()
    }

    fn capabilities(&self) -> Capabilities {
        self.cpufreq.capabilities()
    }

    fn devices(&self) -> &[BackendDevice] {
        self.cpufreq.devices()
    }

    fn set_frequencies(&mut self, targets_mhz: &[f64]) -> BackendResult<()> {
        self.cpufreq.set_frequencies(targets_mhz)?;
        for i in 0..POLICIES {
            // A rejected write leaves nothing to copy: the clock holds.
            if let Ok(khz) = fs::read_to_string(policy(&self.root, i).join("scaling_max_freq")) {
                fs::write(policy(&self.root, i).join("scaling_cur_freq"), khz).unwrap();
            }
        }
        Ok(())
    }

    fn effective_frequencies_into(&mut self, out: &mut Vec<f64>) -> BackendResult<()> {
        self.cpufreq.effective_frequencies_into(out)
    }

    fn advance(&mut self, dt_s: f64) -> BackendResult<Option<f64>> {
        match self.vanish_in {
            Some(0) => {
                fs::remove_file(energy(&self.root, 1)).unwrap();
                self.vanish_in = None;
            }
            Some(s) => self.vanish_in = Some(s - 1),
            None => {}
        }
        for i in 0..POLICIES {
            // A removed counter stays removed until the test restores it.
            let path = energy(&self.root, i);
            if let Some(uj) = read_u64(&path) {
                let khz = read_u64(&policy(&self.root, i).join("scaling_cur_freq")).unwrap();
                let watts = IDLE_W + W_PER_MHZ * khz as f64 / 1000.0;
                let next = (uj + (watts * dt_s * 1e6).round() as u64) % MAX_RANGE_UJ;
                fs::write(&path, format!("{next}\n")).unwrap();
            }
        }
        self.cpufreq.advance(dt_s)
    }

    fn average_power(&self, last_n: usize) -> Option<f64> {
        self.cpufreq.average_power(last_n)
    }

    fn seconds_since_sample(&self) -> Option<u64> {
        self.cpufreq.seconds_since_sample()
    }

    fn per_device_power_into(&mut self, out: &mut Vec<f64>) -> BackendResult<()> {
        self.cpufreq.per_device_power_into(out)
    }

    fn wall_clock_unix_ms(&self) -> Option<u64> {
        self.cpufreq.wall_clock_unix_ms()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// An identified daemon over the fixture tree at `root`.
fn daemon(root: &Path) -> Daemon {
    let mut cpufreq = CpufreqBackend::probe(root).unwrap();
    cpufreq.disable_sleep();
    let kernel = Kernel {
        root: root.to_path_buf(),
        cpufreq,
        vanish_in: None,
    };
    let mut cfg = DaemonConfig::default_sim();
    cfg.backend = "cpufreq".to_string();
    cfg.setpoint_watts = SETPOINT_W;
    let mut d = Daemon::new(cfg, Box::new(kernel)).unwrap();
    d.identify().unwrap();
    d
}

fn steps(d: &mut Daemon, n: usize) -> Vec<PeriodReport> {
    (0..n)
        .map(|_| d.step_period().expect("a period never fails"))
        .collect()
}

#[test]
fn daemon_holds_the_setpoint_on_a_cpufreq_fixture() {
    let root = fixture("hold");
    let mut d = daemon(&root);
    assert_eq!(d.backend().name(), "cpufreq");
    let reports = steps(&mut d, 30);
    for r in &reports {
        assert_eq!(r.tier, SupervisorTier::Primary, "period {}", r.period);
    }
    for r in &reports[5..] {
        assert!(
            (r.avg_power_watts - SETPOINT_W).abs() <= 0.02 * SETPOINT_W,
            "period {}: {} W",
            r.period,
            r.avg_power_watts
        );
    }
    // Both counters wrapped during the run and the loop never noticed.
    for i in 0..POLICIES {
        assert!(read_u64(&energy(&root, i)).unwrap() < START_UJ);
    }
    // A live backend stamps every journal event with the wall clock, in
    // order, and the stamp reaches the JSONL.
    let stamps: Vec<Option<u64>> = d
        .journal()
        .events()
        .iter()
        .map(|e| e.wall_unix_ms)
        .collect();
    assert!(stamps.iter().all(Option::is_some), "{stamps:?}");
    let stamps: Vec<u64> = stamps.into_iter().flatten().collect();
    assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "{stamps:?}");
    assert!(d.journal().to_jsonl().contains("\"wall_ms\":"));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn vanishing_rapl_counter_parks_without_an_err_and_climbs_back() {
    let root = fixture("vanish");
    let mut d = daemon(&root);
    steps(&mut d, 3);
    let sup = d.config().supervisor;
    let counter = energy(&root, 1);
    let saved = fs::read_to_string(&counter).unwrap();
    fs::remove_file(&counter).unwrap();
    let stale = steps(&mut d, sup.stale_park_periods);
    for (k, r) in stale.iter().enumerate() {
        let want = if k + 1 >= sup.stale_park_periods {
            SupervisorTier::Park
        } else if k + 1 >= sup.stale_fallback_periods {
            SupervisorTier::SafeFallback
        } else {
            SupervisorTier::Primary
        };
        assert_eq!(r.tier, want, "stale period {}", k + 1);
        assert_eq!(r.stale_periods, k + 1);
    }
    fs::write(&counter, saved).unwrap();
    let recovered = steps(&mut d, 14);
    assert_eq!(recovered.last().unwrap().tier, SupervisorTier::Primary);
    let _ = fs::remove_dir_all(&root);
}

/// Fixture power (W) at the clocks the policies run now.
fn fixture_power(root: &Path) -> f64 {
    (0..POLICIES)
        .map(|i| {
            let khz = read_u64(&policy(root, i).join("scaling_cur_freq")).unwrap();
            IDLE_W + W_PER_MHZ * khz as f64 / 1000.0
        })
        .sum()
}

#[test]
fn a_mid_period_dropout_reads_only_that_periods_fresh_samples() {
    let root = fixture("midperiod");
    let mut d = daemon(&root);
    steps(&mut d, 5);
    // A set-point step moves the clocks at the end of the next period,
    // so the meter's history then holds that period's samples at the
    // old clocks.
    d.set_setpoint(SETPOINT_W - 30.0);
    let previous = steps(&mut d, 1).pop().unwrap();
    let fresh_w = fixture_power(&root);
    assert!(
        (fresh_w - previous.avg_power_watts).abs() > 1.0,
        "no clock change: {fresh_w} W after {} W",
        previous.avg_power_watts
    );
    // Package 1's counter vanishes after two of the period's four seconds.
    let kernel = d.backend_mut().as_any_mut().downcast_mut::<Kernel>();
    kernel.unwrap().vanish_in = Some(2);
    let r = steps(&mut d, 1).pop().unwrap();
    assert_eq!(
        r.stale_periods, 0,
        "two fresh samples are not a silent period"
    );
    assert!(
        (r.avg_power_watts - fresh_w).abs() < 1e-6,
        "read {} W, the period's fresh samples are {fresh_w} W",
        r.avg_power_watts
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn rejected_scaling_max_freq_write_fails_neither_the_period_nor_the_other_policy() {
    let root = fixture("reject");
    let mut d = daemon(&root);
    steps(&mut d, 3);
    let mut before = Vec::new();
    d.backend_mut()
        .effective_frequencies_into(&mut before)
        .unwrap();
    // A directory, not a mode bit: root ignores file modes.
    let max0 = policy(&root, 0).join("scaling_max_freq");
    fs::remove_file(&max0).unwrap();
    fs::create_dir(&max0).unwrap();
    let mut eff = Vec::new();
    for _ in 0..10 {
        let r = d
            .step_period()
            .expect("a rejected write is not a failed period");
        d.backend_mut()
            .effective_frequencies_into(&mut eff)
            .unwrap();
        assert_eq!(eff[0], before[0], "period {}", r.period);
        assert_eq!(
            eff[1],
            (r.targets_mhz[1] * 1000.0).round() / 1000.0,
            "period {}",
            r.period
        );
    }
    let _ = fs::remove_dir_all(&root);
}

/// `daemon.backend = "cpufreq"` probes the host's `/sys`: a backend
/// named `"cpufreq"` where the host has cpufreq, a `BadConfig` naming
/// the path where it does not — never a panic.
#[test]
fn cpufreq_is_a_buildable_daemon_backend() {
    let mut cfg = DaemonConfig::default_sim();
    cfg.backend = "cpufreq".to_string();
    cfg.validate().unwrap();
    match cfg.build_backend() {
        Ok(b) => assert_eq!(b.name(), "cpufreq"),
        Err(CapGpuError::BadConfig(m)) => assert!(m.contains("/sys"), "{m}"),
        Err(e) => panic!("expected BadConfig, got {e:?}"),
    }
}
