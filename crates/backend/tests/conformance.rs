//! Backend conformance suite: the trait's documented contract, checked
//! against [`SimBackend`], with faults injected into the wrapped server
//! through [`SimBackend::server_mut`] — the path the runner's fault
//! schedule and the daemon tests use. The suite also pins the
//! refactor-safety property the seam rests on: a `SimBackend` is
//! *bit-identical* to driving the raw simulator `Server`.

use capgpu_backend::{BackendError, PowerBackend, SimBackend};
use capgpu_faults::FaultKind;
use capgpu_sim::{presets, Server, ServerBuilder};

fn sim_server(seed: u64) -> Server {
    ServerBuilder::new(seed)
        .add_device(presets::xeon_gold_5215())
        .add_device(presets::tesla_v100())
        .add_device(presets::tesla_v100())
        .build()
        .unwrap()
}

fn sim_backend(seed: u64) -> SimBackend {
    let mut b = SimBackend::new(sim_server(seed));
    b.stage_utilizations(&[0.8, 0.9, 0.6]).unwrap();
    b
}

/// Contract checks shared by every backend.
fn conformance(backend: &mut dyn PowerBackend) {
    // -- Enumeration is stable and self-consistent. --------------------
    let before: Vec<(usize, String, f64, f64)> = backend
        .devices()
        .iter()
        .map(|d| (d.index, d.name.clone(), d.f_min_mhz, d.f_max_mhz))
        .collect();
    assert!(!before.is_empty(), "{}: no devices", backend.name());
    assert_eq!(backend.num_devices(), before.len());
    for (i, d) in backend.devices().iter().enumerate() {
        assert_eq!(d.index, i, "{}: index gap", backend.name());
        assert!(d.f_min_mhz > 0.0 && d.f_max_mhz > d.f_min_mhz);
        for w in d.levels_mhz.windows(2) {
            assert!(w[0] < w[1], "{}: levels not ascending", backend.name());
        }
    }
    let caps = backend.capabilities();
    assert!(caps.set_frequency && caps.server_power);

    // -- Actuate-then-read round-trips through quantization. -----------
    let n = backend.num_devices();
    let mids: Vec<f64> = backend
        .devices()
        .iter()
        .map(|d| (d.f_min_mhz + d.f_max_mhz) / 2.0 + 1.0)
        .collect();
    backend.set_frequencies(&mids).unwrap();
    let mut eff = Vec::new();
    backend.effective_frequencies_into(&mut eff).unwrap();
    assert_eq!(eff.len(), n);
    for (d, &f) in backend.devices().iter().zip(eff.iter()) {
        assert!(
            d.levels_mhz.iter().any(|&l| (l - f).abs() < 1e-9),
            "{}: effective {f} MHz not on `{}`'s level grid",
            backend.name(),
            d.name
        );
    }

    // -- Arity is checked before any actuation. ------------------------
    let too_short = vec![mids[0] - 100.0];
    match backend.set_frequencies(&too_short) {
        Err(BackendError::WrongArity { expected, got }) => {
            assert_eq!((expected, got), (n, 1));
        }
        other => panic!("{}: expected WrongArity, got {other:?}", backend.name()),
    }
    let mut after = Vec::new();
    backend.effective_frequencies_into(&mut after).unwrap();
    assert_eq!(
        eff,
        after,
        "{}: failed call partially actuated",
        backend.name()
    );

    // -- advance produces samples; staleness resets on each. -----------
    let mut samples = 0;
    for _ in 0..4 {
        if backend.advance(1.0).unwrap().is_some() {
            samples += 1;
            assert_eq!(backend.seconds_since_sample(), Some(0));
        }
    }
    assert!(
        samples > 0,
        "{}: meter never produced a sample",
        backend.name()
    );
    assert!(backend.average_power(4).unwrap() > 0.0);

    // -- Per-device power attribution covers the device set. -----------
    if backend.capabilities().per_device_power {
        let mut per = Vec::new();
        backend.per_device_power_into(&mut per).unwrap();
        assert_eq!(per.len(), n);
        assert!(per.iter().all(|&w| w >= 0.0));
    }

    // -- Enumeration unchanged after actuation and time. ---------------
    let now: Vec<(usize, String, f64, f64)> = backend
        .devices()
        .iter()
        .map(|d| (d.index, d.name.clone(), d.f_min_mhz, d.f_max_mhz))
        .collect();
    assert_eq!(before, now, "{}: enumeration drifted", backend.name());
}

#[test]
fn sim_backend_conforms() {
    conformance(&mut sim_backend(42));
}

/// Meter dropout makes `advance` return `None` while staleness climbs —
/// the signal the supervisor's watchdog escalates on.
#[test]
fn staleness_climbs_through_dropout() {
    let mut sim = sim_backend(7);
    assert!(sim.advance(1.0).unwrap().is_some());
    FaultKind::MeterDropout.apply(sim.server_mut()).unwrap();
    for expect_age in 1..=3u64 {
        assert_eq!(sim.advance(1.0).unwrap(), None);
        assert_eq!(sim.seconds_since_sample(), Some(expect_age));
    }
    FaultKind::MeterDropout.clear(sim.server_mut()).unwrap();
    assert!(sim.advance(1.0).unwrap().is_some());
    assert_eq!(sim.seconds_since_sample(), Some(0));
}

/// Device ejection: zero attributed power and `is_ejected` raised, both
/// undone by clearing the fault.
#[test]
fn ejection_zeroes_the_device_until_cleared() {
    let mut sim = sim_backend(11);
    let fault = FaultKind::Ejected { device: 2 };
    fault.apply(sim.server_mut()).unwrap();
    assert!(sim.is_ejected(2) && !sim.is_ejected(1));
    let mut per = Vec::new();
    sim.per_device_power_into(&mut per).unwrap();
    assert_eq!(per[2], 0.0);
    assert!(per[1] > 0.0);
    fault.clear(sim.server_mut()).unwrap();
    assert!(!sim.is_ejected(2));
    sim.advance(1.0).unwrap();
    sim.per_device_power_into(&mut per).unwrap();
    assert!(per[2] > 0.0);
    // Device-scoped faults validate their target.
    assert!(FaultKind::Ejected { device: 9 }
        .apply(sim.server_mut())
        .is_err());
}

/// A PSU derate surfaces through `psu_limit` until cleared.
#[test]
fn psu_derate_surfaces_through_the_trait() {
    let mut sim = sim_backend(3);
    assert_eq!(sim.psu_limit(), None);
    let fault = FaultKind::PsuDerate { limit_watts: 650.0 };
    fault.apply(sim.server_mut()).unwrap();
    assert_eq!(sim.psu_limit(), Some(650.0));
    fault.clear(sim.server_mut()).unwrap();
    assert_eq!(sim.psu_limit(), None);
}

/// The refactor-safety pin: a `SimBackend` and a raw `Server` built
/// from the same seed, driven through the same command/tick sequence,
/// produce bit-identical meter samples, averages, and applied clocks.
#[test]
fn sim_backend_replays_raw_server_bit_identically() {
    let mut via_trait = SimBackend::new(sim_server(20250808));
    let mut raw = sim_server(20250808);

    let commands: [(u64, [f64; 3]); 4] = [
        (0, [2400.0, 1350.0, 1350.0]),
        (10, [1800.0, 1005.0, 1110.0]),
        (20, [1200.0, 735.0, 840.0]),
        (30, [2000.0, 1200.0, 900.0]),
    ];
    let utils = [0.85, 0.95, 0.75];
    via_trait.stage_utilizations(&utils).unwrap();

    let mut eff_trait = Vec::new();
    let mut eff_raw = Vec::new();
    for t in 0..40u64 {
        if let Some(&(_, targets)) = commands.iter().find(|&&(at, _)| at == t) {
            via_trait.set_frequencies(&targets).unwrap();
            raw.set_all_frequencies(&targets).unwrap();
        }
        let s_trait = via_trait.advance(1.0).unwrap();
        let s_raw = raw.tick_second(&utils).unwrap();
        assert_eq!(s_trait, s_raw, "sample diverged at t={t}");
        via_trait
            .effective_frequencies_into(&mut eff_trait)
            .unwrap();
        raw.effective_frequencies_into(&mut eff_raw);
        assert_eq!(eff_trait, eff_raw, "clocks diverged at t={t}");
    }
    assert_eq!(
        via_trait.average_power(30),
        raw.meter().average_last(30).ok()
    );
    let mut per_trait = Vec::new();
    let mut per_raw = Vec::new();
    via_trait.per_device_power_into(&mut per_trait).unwrap();
    raw.per_device_power_into(&utils, &mut per_raw).unwrap();
    assert_eq!(per_trait, per_raw);
}

/// `Clone` snapshots the full plant: a cloned `SimBackend` replays the
/// original's future exactly (the sweep engine's clone-replay contract).
#[test]
fn sim_backend_clone_replays_identically() {
    let mut a = sim_backend(99);
    for _ in 0..5 {
        a.advance(1.0).unwrap();
    }
    let mut b = a.clone();
    for _ in 0..10 {
        assert_eq!(a.advance(1.0).unwrap(), b.advance(1.0).unwrap());
    }
}
