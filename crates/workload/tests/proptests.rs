//! Property tests for the workload layer: pipeline conservation laws,
//! monitor normalization bounds, SLO-tracker consistency.

use capgpu_workload::models;
use capgpu_workload::monitor::ThroughputMonitor;
use capgpu_workload::pipeline::{PipelineConfig, PipelineSim};
use capgpu_workload::slo::SloTracker;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pipeline_invariants_hold_for_any_frequencies(
        f_cpu in 1000.0..2400.0f64,
        f_gpu in 300.0..2100.0f64,
        seed in 0u64..1000,
    ) {
        let cfg = PipelineConfig {
            model: models::googlenet_wildlife(),
            num_workers: 10,
            queue_capacity: 20,
            seed,
            f_gpu_max_mhz: 2100.0,
            arrivals: capgpu_workload::pipeline::ArrivalMode::Closed,
        };
        let mut sim = PipelineSim::new(cfg).unwrap();
        let mut total_batches = 0usize;
        let mut total_images = 0usize;
        for _ in 0..30 {
            let s = sim.advance(1.0, f_cpu, f_gpu);
            total_batches += s.batches_completed;
            total_images += s.images_completed;
            prop_assert!((0.0..=1.0).contains(&s.gpu_busy_fraction));
            prop_assert!((0.0..=1.0).contains(&s.cpu_worker_util));
            prop_assert!(s.mean_queue_len >= 0.0 && s.mean_queue_len <= 20.0 + 1e-9);
            prop_assert_eq!(s.batch_latencies.len(), s.batches_completed);
            prop_assert_eq!(s.queue_delays.len(), s.images_completed);
            for d in &s.queue_delays {
                prop_assert!(*d >= 0.0);
            }
            for l in &s.batch_latencies {
                prop_assert!(*l > 0.0);
            }
        }
        // Images = batches × batch size, always.
        prop_assert_eq!(total_images, total_batches * 20);
    }

    #[test]
    fn monitor_normalization_bounded(
        readings in prop::collection::vec(0.0..1000.0f64, 1..100),
        alpha in 0.05..1.0f64,
    ) {
        let mut m = ThroughputMonitor::new(alpha);
        let mut observed_max = 0.0_f64;
        for r in readings {
            m.record(r);
            observed_max = observed_max.max(r);
            prop_assert!((0.0..=1.0).contains(&m.normalized()));
            prop_assert!(m.smoothed() <= observed_max + 1e-9);
        }
    }

    #[test]
    fn slo_miss_rate_matches_manual_count(
        lats in prop::collection::vec(0.001..2.0f64, 1..200),
        slo in 0.01..2.0f64,
    ) {
        let mut t = SloTracker::new(vec![slo]);
        let mut manual = 0usize;
        for &l in &lats {
            t.record(0, l);
            if l > slo {
                manual += 1;
            }
        }
        let expected = manual as f64 / lats.len() as f64;
        prop_assert!((t.miss_rate(0) - expected).abs() < 1e-12);
    }

    #[test]
    fn record_all_equals_record_in_a_loop(
        // The bottom of the range maps to the three non-finite values,
        // which count as misses and are not stored.
        batches in prop::collection::vec(
            prop::collection::vec(
                (-0.3..2.0f64).prop_map(|x| match x {
                    x if x < -0.2 => f64::NAN,
                    x if x < -0.1 => f64::INFINITY,
                    x if x < 0.0 => f64::NEG_INFINITY,
                    x => x,
                }),
                0..60,
            ),
            1..8,
        ),
        slo_a in 0.01..2.0f64,
        slo_b in 0.01..2.0f64,
    ) {
        let mut one_by_one = SloTracker::new(vec![slo_a, slo_b]);
        let mut bulk = SloTracker::new(vec![slo_a, slo_b]);
        for (k, batch) in batches.iter().enumerate() {
            let task = k % 2;
            for &l in batch {
                one_by_one.record(task, l);
            }
            bulk.record_all(task, batch);
            for t in 0..2 {
                prop_assert_eq!(bulk.latencies(t), one_by_one.latencies(t));
                prop_assert_eq!(bulk.misses(t), one_by_one.misses(t));
                prop_assert_eq!(bulk.miss_rate(t), one_by_one.miss_rate(t));
            }
        }
    }

    #[test]
    fn featsel_rate_monotone_in_frequency(
        f1 in 1000.0..2400.0f64,
        f2 in 1000.0..2400.0f64,
    ) {
        let m = capgpu_workload::featsel::FeatselRateModel::new(100.0, 2200.0, 0.0).unwrap();
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        prop_assert!(m.rate(lo, 0.0) <= m.rate(hi, 0.0));
    }
}
