//! Property tests for the discrete-event serving engine: request
//! conservation at every window boundary, monotone event timestamps,
//! bounded window statistics, and bit-identical replay per seed.

use capgpu_serve::{ArrivalGen, ArrivalProcess, ServeEngine, ServiceModel};
use proptest::prelude::*;

fn model(max_batch: usize, overhead: f64) -> ServiceModel {
    ServiceModel {
        e_min_s: 0.06,
        gamma: 0.91,
        f_max_mhz: 1380.0,
        max_batch,
        batch_overhead: overhead,
    }
}

fn poisson(seed: u64, rate: f64) -> ArrivalGen {
    ArrivalGen::new(ArrivalProcess::Poisson { rate_rps: rate }, seed).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conservation_and_bounds_hold_at_every_window(
        rate in 20.0..600.0f64,
        timeout in 0.0..0.2f64,
        max_batch in 1usize..32,
        overhead in 0.0..0.9f64,
        seed in 0u64..1000,
        f_lo in 400.0..900.0f64,
        f_hi in 900.0..1380.0f64,
    ) {
        let arrivals = poisson(seed, rate);
        let capacity = max_batch.max(64);
        let mut engine =
            ServeEngine::new(model(max_batch, overhead), timeout, capacity, arrivals).unwrap();
        for k in 0..40 {
            // Alternate frequencies so dispatches span service times.
            let f = if k % 2 == 0 { f_hi } else { f_lo };
            let s = engine.advance(1.0, f);
            // Conservation: arrivals == completions + dropped + queued
            // + in flight, at every window boundary.
            prop_assert!(engine.conserved(), "window {k}");
            prop_assert!((0.0..=1.0).contains(&s.busy_fraction));
            prop_assert!(s.queue_len_end <= capacity);
            prop_assert_eq!(s.request_latencies.len(), s.completions);
            for l in &s.request_latencies {
                prop_assert!(*l > 0.0 && l.is_finite());
            }
            prop_assert!(s.mean_batch_size() <= max_batch as f64 + 1e-9);
        }
        // Timestamps popped from the heap never went backwards.
        prop_assert!(engine.timestamps_monotone());
        prop_assert!(engine.events_total() > 0);
    }

    #[test]
    fn same_seed_replays_bit_identical(
        rate in 20.0..400.0f64,
        seed in 0u64..1000,
    ) {
        let run = || {
            let arrivals = poisson(seed, rate);
            let mut engine =
                ServeEngine::new(model(20, 0.3), 0.05, 128, arrivals).unwrap();
            let mut sig: Vec<(usize, usize, usize, Vec<f64>)> = Vec::new();
            for k in 0..25 {
                let f = if k % 3 == 0 { 700.0 } else { 1300.0 };
                let s = engine.advance(1.0, f);
                sig.push((s.arrivals, s.completions, s.batches, s.request_latencies));
            }
            (sig, engine.events_total(), engine.completions_total())
        };
        let a = run();
        let b = run();
        // Bit-identical: exact f64 equality on every latency.
        prop_assert_eq!(a, b);
    }

    #[test]
    fn drops_only_when_queue_caps(
        rate in 20.0..200.0f64,
        seed in 0u64..500,
    ) {
        // A queue big enough for the offered load never sheds.
        let mut engine = ServeEngine::new(model(20, 0.3), 0.05, 4096, poisson(seed, rate)).unwrap();
        for _ in 0..30 {
            engine.advance(1.0, 1380.0);
        }
        prop_assert_eq!(engine.dropped_total(), 0);
        prop_assert!(engine.conserved());
    }
}
