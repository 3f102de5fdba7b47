//! Discrete-event simulation of the inference pipeline (§3.2).
//!
//! The paper's motivation setup: parallel CPU processes each preprocess
//! images (resize / normalize / tensor conversion) and push tensors into a
//! shared bounded queue; a GPU-bound consumer assembles batches of 20 and
//! runs inference. Throttling the CPU starves the GPU; throttling the GPU
//! backs the queue up and blocks the workers — the crossover Table 1
//! quantifies. This module reproduces that pipeline as an event-driven
//! simulation advanced in wall-clock windows (one window per power-meter
//! second), with the CPU and GPU frequencies in force during the window
//! setting the preprocessing and inference speeds.
//!
//! # Event model
//!
//! The state is one deadline per worker (∞ while it is blocked or idle),
//! the queue's ready timestamps, the in-flight batch's deadline (∞ while
//! the GPU is idle) and, in open loop, the next arrival. Whenever the GPU
//! is idle and a batch is queued, the batch starts: blocked workers push
//! their images into the freed room and restart, in index order, and then
//! the batch's own latency is drawn. Otherwise the earliest deadline is
//! the next event, and everything due at that instant is handled in a
//! fixed order: a finished batch first (the next batch starts at the same
//! instant, before anything else due), then arrivals, then every worker
//! due, in index order, each pushing its image and restarting, or blocking
//! on a full queue. The time integrals behind the window's utilizations
//! advance between events.
//!
//! Nearly every event is the fill phase: one worker finishing while the
//! GPU is busy, the queue has room and nothing else is due. An inner loop
//! runs only those, with the GPU, arrival and window-end deadlines folded
//! into one bound (none of them moves inside it), and leaves for the
//! general step on anything else. It takes events in the order the general
//! step would: the argmin keeps the lowest index on a tie, and a restarted
//! worker's deadline lies after the instant it restarts at, so tied
//! workers go in index order. With the same float operations in the same
//! order, every RNG draw and every statistic is bit-identical to a loop
//! that takes each event the general way (`oracle`, in the tests).

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::models::ModelProfile;
use crate::{Result, WorkloadError};

/// How images enter the pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalMode {
    /// Closed loop: every worker always has a next image (a saturating
    /// benchmark stream, the paper's evaluation default).
    Closed,
    /// Open loop: images arrive by a Poisson process at `rate_img_s`;
    /// workers idle when no request is waiting. Models interactive
    /// serving traffic and lets experiments replay demand surges
    /// (§6.4's "sudden surge in GPU inference requests").
    Open {
        /// Mean arrival rate (images/s).
        rate_img_s: f64,
    },
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// The inference model served by this pipeline.
    pub model: ModelProfile,
    /// Number of CPU preprocessing workers (paper motivation: 10; the
    /// 3-GPU evaluation dedicates 1 core per GPU).
    pub num_workers: usize,
    /// Bounded queue capacity in images (must hold at least one batch).
    pub queue_capacity: usize,
    /// RNG seed for latency jitter.
    pub seed: u64,
    /// Maximum GPU frequency (MHz) used in the latency law.
    pub f_gpu_max_mhz: f64,
    /// Arrival process (closed-loop saturation or open-loop Poisson).
    pub arrivals: ArrivalMode,
}

/// Statistics for one simulated window.
#[derive(Debug, Clone, Default)]
pub struct WindowStats {
    /// Images whose inference completed in the window.
    pub images_completed: usize,
    /// Batches completed in the window.
    pub batches_completed: usize,
    /// Window length (s).
    pub window_s: f64,
    /// Fraction of the window the GPU had a batch in flight.
    pub gpu_busy_fraction: f64,
    /// Effective GPU utilization for the power model (busy fraction ×
    /// the model's utilization while executing).
    pub gpu_util: f64,
    /// Mean fraction of workers actively preprocessing (not blocked).
    pub cpu_worker_util: f64,
    /// GPU execution time of every batch completed in the window (s).
    pub batch_latencies: Vec<f64>,
    /// Per-image queue delay (batch start − enqueue) of completed images.
    pub queue_delays: Vec<f64>,
    /// Time-averaged queue length over the window.
    pub mean_queue_len: f64,
    /// Requests that arrived during the window (open-loop mode).
    pub arrivals: usize,
    /// Requests waiting for a free worker at window end (open-loop mode).
    pub ingress_backlog: usize,
}

/// The pipeline simulator.
#[derive(Debug, Clone)]
pub struct PipelineSim {
    cfg: PipelineConfig,
    now: f64,
    /// Each worker's preprocessing deadline; ∞ while it is not busy.
    done: Vec<f64>,
    /// The ready time of the image each worker holds because the queue
    /// was full (the worker is blocked); `None` when it holds none.
    held: Vec<Option<f64>>,
    /// Ready-timestamps of images waiting in the shared queue, oldest
    /// first; never longer than `queue_capacity`.
    queue: Vec<f64>,
    /// When the in-flight batch completes; ∞ while the GPU is idle.
    gpu_done: f64,
    /// When the in-flight batch started.
    gpu_started: f64,
    /// Enqueue timestamps of the images in the in-flight batch.
    batch: Vec<f64>,
    rng: StdRng,
    /// Open-loop mode: current arrival rate (img/s).
    arrival_rate: Option<f64>,
    /// Open-loop mode: time of the next Poisson arrival (∞ in closed loop).
    next_arrival: f64,
    /// Open-loop mode: arrival timestamps waiting for a free worker.
    ingress: VecDeque<f64>,
}

/// A window's time integrals: GPU busy time, worker busy time and queue
/// length.
#[derive(Default)]
struct Integrals {
    gpu: f64,
    workers: f64,
    queue: f64,
}

impl Integrals {
    /// Adds the span `[from, to]`, with the GPU's batch due at `gpu_done`
    /// (∞ when idle), `busy` workers preprocessing and `queued` images
    /// waiting. `workers` advances by one `dt` addition per busy worker,
    /// not by `busy as f64 * dt`: the two differ in the last bits.
    #[inline(always)]
    fn add(&mut self, from: f64, to: f64, gpu_done: f64, busy: usize, queued: usize) {
        let dt = (to - from).max(0.0);
        if dt == 0.0 {
            return;
        }
        if gpu_done < f64::INFINITY {
            self.gpu += dt.min((gpu_done - from).max(0.0));
        }
        for _ in 0..busy {
            self.workers += dt;
        }
        self.queue += queued as f64 * dt;
    }
}

/// Multiplicative jitter factor drawn from `[1−j, 1+j]`; exactly 1, with
/// no draw, when `j` is 0.
#[inline(always)]
fn jitter_factor(rng: &mut StdRng, j: f64) -> f64 {
    if j == 0.0 {
        1.0
    } else {
        1.0 + rng.gen_range(-j..j)
    }
}

impl PipelineSim {
    /// Creates the pipeline; workers start preprocessing immediately.
    ///
    /// # Errors
    /// [`WorkloadError::BadConfig`] when there are no workers, the model
    /// fails [`ModelProfile::validate`], the queue cannot hold a batch, or
    /// the model's batch size is zero.
    pub fn new(cfg: PipelineConfig) -> Result<Self> {
        if cfg.num_workers == 0 {
            return Err(WorkloadError::BadConfig("pipeline needs >= 1 worker"));
        }
        cfg.model.validate()?;
        if cfg.model.batch_size == 0 {
            return Err(WorkloadError::BadConfig("batch size must be positive"));
        }
        if cfg.queue_capacity < cfg.model.batch_size {
            return Err(WorkloadError::BadConfig(
                "queue must hold at least one batch",
            ));
        }
        if cfg.f_gpu_max_mhz <= 0.0 {
            return Err(WorkloadError::BadConfig("f_gpu_max must be positive"));
        }
        let arrival_rate = match cfg.arrivals {
            ArrivalMode::Closed => None,
            ArrivalMode::Open { rate_img_s } => {
                if rate_img_s <= 0.0 {
                    return Err(WorkloadError::BadConfig("arrival rate must be positive"));
                }
                Some(rate_img_s)
            }
        };
        let n = cfg.num_workers;
        let done = match arrival_rate {
            // Closed loop: workers start preprocessing immediately, with
            // staggered completions so they don't fire in lockstep.
            None => (0..n)
                .map(|i| cfg.model.preprocess_s_per_image * (i as f64 + 1.0) / n as f64)
                .collect(),
            // Open loop: workers idle until the first arrival.
            Some(_) => vec![f64::INFINITY; n],
        };
        let mut sim = PipelineSim {
            now: 0.0,
            done,
            held: vec![None; n],
            queue: Vec::new(),
            gpu_done: f64::INFINITY,
            gpu_started: 0.0,
            batch: Vec::new(),
            rng: StdRng::seed_from_u64(cfg.seed),
            arrival_rate,
            next_arrival: f64::INFINITY,
            ingress: VecDeque::new(),
            cfg,
        };
        sim.next_arrival = sim.draw_arrival(0.0);
        Ok(sim)
    }

    /// Simulation clock (seconds).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Current queue length in images.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Changes the open-loop arrival rate mid-run (demand surge/ebb).
    ///
    /// # Errors
    /// [`WorkloadError::BadConfig`] when called on a closed-loop pipeline
    /// or with a non-positive rate.
    pub fn set_arrival_rate(&mut self, rate_img_s: f64) -> Result<()> {
        if self.arrival_rate.is_none() {
            return Err(WorkloadError::BadConfig(
                "closed-loop pipeline has no arrival rate",
            ));
        }
        if rate_img_s <= 0.0 {
            return Err(WorkloadError::BadConfig("arrival rate must be positive"));
        }
        self.arrival_rate = Some(rate_img_s);
        // Next arrival re-drawn at the new rate from now.
        self.next_arrival = self.draw_arrival(self.now);
        Ok(())
    }

    /// Draws the next Poisson arrival time after `t` (∞ in closed loop).
    fn draw_arrival(&mut self, t: f64) -> f64 {
        match self.arrival_rate {
            Some(rate) => {
                let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
                t - u.ln() / rate
            }
            None => f64::INFINITY,
        }
    }

    /// Starts worker `i` on its next image at `now` (`preprocess_s` at the
    /// window's CPU clock, before jitter), honoring the arrival mode:
    /// closed-loop always has work; open-loop takes from the ingress
    /// backlog or idles. Returns whether the worker went busy.
    fn start_next_image(&mut self, i: usize, now: f64, preprocess_s: f64) -> bool {
        let has_work = self.arrival_rate.is_none() || self.ingress.pop_front().is_some();
        self.done[i] = if has_work {
            now + preprocess_s * jitter_factor(&mut self.rng, self.cfg.model.jitter)
        } else {
            f64::INFINITY
        };
        has_work
    }

    /// Advances the pipeline by `window_s` seconds with the given CPU and
    /// GPU frequencies in force, returning the window's statistics.
    ///
    /// Allocating convenience wrapper over [`PipelineSim::advance_into`].
    ///
    /// # Panics
    /// Panics (debug) on non-positive frequencies or window.
    pub fn advance(&mut self, window_s: f64, f_cpu_mhz: f64, f_gpu_mhz: f64) -> WindowStats {
        let mut stats = WindowStats::default();
        self.advance_into(window_s, f_cpu_mhz, f_gpu_mhz, &mut stats);
        stats
    }

    /// Advances the pipeline by `window_s` seconds, writing the window's
    /// statistics into `stats` (cleared first, reusing its buffers). The
    /// hot path for per-second stepping: a caller-owned `WindowStats` is
    /// recycled across windows so no per-window heap allocation occurs.
    /// The module doc describes the event model and its two loops.
    ///
    /// # Panics
    /// Panics (debug) on non-positive frequencies or window.
    pub fn advance_into(
        &mut self,
        window_s: f64,
        f_cpu_mhz: f64,
        f_gpu_mhz: f64,
        stats: &mut WindowStats,
    ) {
        debug_assert!(window_s > 0.0 && f_cpu_mhz > 0.0 && f_gpu_mhz > 0.0);
        let mut now = self.now;
        let end = now + window_s;
        // Both clocks are fixed for the window, so the two latency laws
        // are evaluated once, not once per image and per batch.
        let model = &self.cfg.model;
        let preprocess_s = model.preprocess_time(f_cpu_mhz);
        let batch_s = model.true_batch_latency(f_gpu_mhz, self.cfg.f_gpu_max_mhz);
        let (batch_size, jitter) = (model.batch_size, model.jitter);
        let capacity = self.cfg.queue_capacity;
        let closed = self.arrival_rate.is_none();
        stats.images_completed = 0;
        stats.batches_completed = 0;
        stats.window_s = window_s;
        stats.batch_latencies.clear();
        stats.queue_delays.clear();
        stats.arrivals = 0;
        let mut area = Integrals::default();
        // Busy-worker count, kept at each transition.
        let mut busy = self.done.iter().filter(|d| d.is_finite()).count();

        loop {
            // A batch start: held workers push into the freed room and
            // restart, in index order, before the batch's latency is drawn.
            if self.gpu_done == f64::INFINITY && self.queue.len() >= batch_size {
                self.batch.clear();
                self.batch.extend(self.queue.drain(..batch_size));
                for i in 0..self.done.len() {
                    if self.queue.len() >= capacity {
                        break;
                    }
                    if let Some(ready) = self.held[i].take() {
                        self.queue.push(ready);
                        busy += usize::from(self.start_next_image(i, now, preprocess_s));
                    }
                }
                self.gpu_done = now + batch_s * jitter_factor(&mut self.rng, jitter);
                self.gpu_started = now;
            }

            // The fill phase (module doc), until its first other event.
            let gpu_done = self.gpu_done;
            if gpu_done < f64::INFINITY {
                let bound = gpu_done.min(self.next_arrival).min(end);
                let done = &mut self.done[..];
                loop {
                    let (mut i, mut t) = (0, done[0]);
                    for (k, &d) in done.iter().enumerate().skip(1) {
                        (i, t) = if d < t { (k, d) } else { (i, t) };
                    }
                    if t >= bound || self.queue.len() >= capacity {
                        break;
                    }
                    area.add(now, t, gpu_done, busy, self.queue.len());
                    now = t;
                    self.queue.push(t);
                    if closed || self.ingress.pop_front().is_some() {
                        done[i] = now + preprocess_s * jitter_factor(&mut self.rng, jitter);
                    } else {
                        done[i] = f64::INFINITY;
                        busy -= 1;
                    }
                }
            }

            // The general step: the next deadline, or the window's end.
            let worker_min = self.done.iter().fold(f64::INFINITY, |m, &d| m.min(d));
            let t_next = worker_min.min(self.gpu_done).min(self.next_arrival);
            let to = t_next.min(end);
            area.add(now, to, self.gpu_done, busy, self.queue.len());
            now = to;
            if t_next > end {
                break;
            }

            // A finished batch first: the next pass starts the following
            // one at this instant, before anything else due now is taken.
            if self.gpu_done <= now {
                stats.batches_completed += 1;
                stats.images_completed += self.batch.len();
                stats.batch_latencies.push(self.gpu_done - self.gpu_started);
                let started = self.gpu_started;
                let delays = self.batch.iter().map(|enq| (started - enq).max(0.0));
                stats.queue_delays.extend(delays);
                self.gpu_done = f64::INFINITY;
                continue;
            }

            while self.next_arrival <= now {
                stats.arrivals += 1;
                let idle = (0..self.done.len())
                    .find(|&i| self.done[i] == f64::INFINITY && self.held[i].is_none());
                match idle {
                    Some(i) => {
                        self.done[i] = now + preprocess_s * jitter_factor(&mut self.rng, jitter);
                        busy += 1;
                    }
                    None => self.ingress.push_back(now),
                }
                self.next_arrival = self.draw_arrival(self.next_arrival);
            }

            // Every worker due now, in index order: each pushes its image
            // and restarts, or blocks on a full queue.
            if worker_min <= now {
                for i in 0..self.done.len() {
                    let ready = self.done[i];
                    if ready > now {
                        continue;
                    }
                    if self.queue.len() < capacity {
                        self.queue.push(ready);
                        if !self.start_next_image(i, now, preprocess_s) {
                            busy -= 1;
                        }
                    } else {
                        self.held[i] = Some(ready);
                        self.done[i] = f64::INFINITY;
                        busy -= 1;
                    }
                }
            }
        }

        self.now = now;
        stats.gpu_busy_fraction = (area.gpu / window_s).clamp(0.0, 1.0);
        stats.gpu_util = stats.gpu_busy_fraction * self.cfg.model.gpu_util_busy;
        stats.cpu_worker_util =
            (area.workers / (window_s * self.done.len() as f64)).clamp(0.0, 1.0);
        stats.mean_queue_len = area.queue / window_s;
        stats.ingress_backlog = self.ingress.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    fn motivation_cfg(seed: u64) -> PipelineConfig {
        PipelineConfig {
            model: models::googlenet_wildlife(),
            num_workers: 10,
            queue_capacity: 20,
            seed,
            f_gpu_max_mhz: 2100.0,
            arrivals: ArrivalMode::Closed,
        }
    }

    #[test]
    fn validation() {
        let mut cfg = motivation_cfg(1);
        cfg.num_workers = 0;
        assert!(PipelineSim::new(cfg).is_err());

        let mut cfg = motivation_cfg(1);
        cfg.queue_capacity = 5; // < batch 20
        assert!(PipelineSim::new(cfg).is_err());

        let mut cfg = motivation_cfg(1);
        cfg.f_gpu_max_mhz = 0.0;
        assert!(PipelineSim::new(cfg).is_err());
    }

    /// `PipelineSim::new` with the motivation model edited by `edit`.
    fn new_with(edit: fn(&mut ModelProfile)) -> Result<PipelineSim> {
        let mut cfg = motivation_cfg(1);
        edit(&mut cfg.model);
        PipelineSim::new(cfg)
    }

    /// Zero batch latency and zero preprocessing: no deadline would ever
    /// pass the clock, and `advance` would never return.
    #[test]
    fn new_rejects_zero_latency_and_preprocessing() {
        assert!(new_with(|m| {
            m.e_min_s = 0.0;
            m.preprocess_s_per_image = 0.0;
        })
        .is_err());
    }

    /// A NaN latency compares false with every deadline: 0 images.
    #[test]
    fn new_rejects_nan_batch_latency() {
        assert!(new_with(|m| m.e_min_s = f64::NAN).is_err());
    }

    #[test]
    fn new_rejects_negative_preprocessing() {
        assert!(new_with(|m| m.preprocess_s_per_image = -0.5).is_err());
    }

    /// At jitter 1 a draw can make a time zero or negative.
    #[test]
    fn new_rejects_jitter_of_one() {
        assert!(new_with(|m| m.jitter = 1.0).is_err());
    }

    #[test]
    fn new_rejects_zero_reference_clock() {
        assert!(new_with(|m| m.preprocess_ref_mhz = 0.0).is_err());
    }

    #[test]
    fn new_rejects_nan_gamma() {
        assert!(new_with(|m| m.gamma_true = f64::NAN).is_err());
    }

    #[test]
    fn new_rejects_utilization_above_one() {
        assert!(new_with(|m| m.gpu_util_busy = 1.5).is_err());
    }

    #[test]
    fn conservation_no_images_lost() {
        // Over a long run: completed + queued + in-flight + per-worker
        // holding = produced. We check the weaker invariant that completed
        // image count is a multiple of the batch size and throughput > 0.
        let mut sim = PipelineSim::new(motivation_cfg(3)).unwrap();
        let mut total = 0;
        for _ in 0..120 {
            let s = sim.advance(1.0, 1600.0, 660.0);
            total += s.images_completed;
            assert_eq!(s.images_completed % 20, 0);
        }
        // Joint midpoint sustains ≈6.5 img/s → ≈780 images in 120 s.
        assert!(total > 500, "only {total} images in 120 s");
    }

    #[test]
    fn cpu_starves_gpu_at_low_cpu_frequency() {
        // CPU-only config of Table 1: CPU 1.1 GHz, GPU 810 MHz — the GPU
        // should be data-starved (low busy fraction) and the queue short.
        let mut sim = PipelineSim::new(motivation_cfg(5)).unwrap();
        let mut gpu_busy = 0.0;
        let mut n = 0.0;
        for _ in 0..90 {
            let s = sim.advance(1.0, 1100.0, 810.0);
            gpu_busy += s.gpu_busy_fraction;
            n += 1.0;
        }
        let avg_busy = gpu_busy / n;
        assert!(avg_busy < 0.9, "GPU should starve, busy = {avg_busy}");
    }

    #[test]
    fn gpu_bottleneck_at_low_gpu_frequency() {
        // GPU-only config: CPU 2.1 GHz, GPU 495 MHz — queue backs up and
        // the GPU saturates.
        let mut sim = PipelineSim::new(motivation_cfg(7)).unwrap();
        let mut last = WindowStats::default();
        for _ in 0..90 {
            last = sim.advance(1.0, 2100.0, 495.0);
        }
        assert!(last.gpu_busy_fraction > 0.95, "{}", last.gpu_busy_fraction);
        // Queue (capacity 20) backs up close to full.
        assert!(last.mean_queue_len > 12.0, "{}", last.mean_queue_len);
    }

    #[test]
    fn balanced_config_beats_both_extremes_on_throughput() {
        // The Table 1 claim: the coordinated midpoint outperforms both
        // single-knob extremes.
        let run = |f_cpu: f64, f_gpu: f64| {
            let mut sim = PipelineSim::new(motivation_cfg(11)).unwrap();
            // Warm up 30 s, measure 120 s.
            for _ in 0..30 {
                sim.advance(1.0, f_cpu, f_gpu);
            }
            let mut images = 0;
            for _ in 0..120 {
                images += sim.advance(1.0, f_cpu, f_gpu).images_completed;
            }
            images as f64 / 120.0
        };
        let cpu_only = run(1100.0, 810.0);
        let gpu_only = run(2100.0, 495.0);
        let joint = run(1600.0, 660.0);
        assert!(
            joint > cpu_only && joint > gpu_only,
            "joint {joint} vs cpu-only {cpu_only} / gpu-only {gpu_only}"
        );
    }

    #[test]
    fn batch_latency_tracks_frequency_law() {
        let mut cfg = motivation_cfg(13);
        cfg.model.jitter = 0.0;
        let mut sim = PipelineSim::new(cfg.clone()).unwrap();
        let mut lats = vec![];
        for _ in 0..60 {
            lats.extend(sim.advance(1.0, 2100.0, 660.0).batch_latencies);
        }
        let expected = cfg.model.true_batch_latency(660.0, 2100.0);
        for l in &lats {
            assert!((l - expected).abs() < 1e-9, "lat {l} vs {expected}");
        }
        assert!(!lats.is_empty());
    }

    #[test]
    fn queue_delays_nonnegative_and_bounded_by_time() {
        let mut sim = PipelineSim::new(motivation_cfg(17)).unwrap();
        for k in 0..60 {
            let s = sim.advance(1.0, 1600.0, 660.0);
            for d in &s.queue_delays {
                assert!(*d >= 0.0);
                assert!(*d <= (k + 1) as f64, "delay {d} exceeds elapsed time");
            }
        }
    }

    #[test]
    fn utilizations_in_unit_interval() {
        let mut sim = PipelineSim::new(motivation_cfg(19)).unwrap();
        for _ in 0..60 {
            let s = sim.advance(1.0, 1600.0, 660.0);
            assert!((0.0..=1.0).contains(&s.gpu_busy_fraction));
            assert!((0.0..=1.0).contains(&s.gpu_util));
            assert!((0.0..=1.0).contains(&s.cpu_worker_util));
        }
    }

    #[test]
    fn determinism() {
        let run = |seed| {
            let mut sim = PipelineSim::new(motivation_cfg(seed)).unwrap();
            (0..60)
                .map(|_| sim.advance(1.0, 1600.0, 660.0).images_completed)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(23), run(23));
    }

    #[test]
    fn raising_gpu_frequency_raises_throughput_when_gpu_bound() {
        let run = |f_gpu: f64| {
            let mut sim = PipelineSim::new(motivation_cfg(29)).unwrap();
            for _ in 0..30 {
                sim.advance(1.0, 2100.0, f_gpu);
            }
            let mut images = 0;
            for _ in 0..90 {
                images += sim.advance(1.0, 2100.0, f_gpu).images_completed;
            }
            images
        };
        assert!(run(900.0) > run(495.0));
    }
}

#[cfg(test)]
mod open_loop_tests {
    use super::*;
    use crate::models;

    fn open_cfg(rate: f64, seed: u64) -> PipelineConfig {
        PipelineConfig {
            model: models::resnet50(),
            num_workers: 2,
            queue_capacity: 64,
            seed,
            f_gpu_max_mhz: 1350.0,
            arrivals: ArrivalMode::Open { rate_img_s: rate },
        }
    }

    #[test]
    fn validation_rejects_bad_rate() {
        assert!(PipelineSim::new(open_cfg(0.0, 1)).is_err());
        assert!(PipelineSim::new(open_cfg(-5.0, 1)).is_err());
    }

    #[test]
    fn throughput_tracks_arrival_rate_when_underloaded() {
        // 50 img/s offered against ~300 img/s of GPU capacity: completed
        // throughput must track the offered rate, not capacity.
        let mut sim = PipelineSim::new(open_cfg(50.0, 3)).unwrap();
        let mut arrivals = 0usize;
        let mut completed = 0usize;
        for _ in 0..120 {
            let s = sim.advance(1.0, 2200.0, 1200.0);
            arrivals += s.arrivals;
            completed += s.images_completed;
        }
        let rate = completed as f64 / 120.0;
        assert!((rate - 50.0).abs() < 6.0, "completed rate {rate}");
        // Conservation: completed can't exceed arrivals.
        assert!(completed <= arrivals);
    }

    #[test]
    fn utilization_scales_with_offered_load() {
        let busy_frac = |rate: f64| {
            let mut sim = PipelineSim::new(open_cfg(rate, 5)).unwrap();
            let mut f = 0.0;
            for _ in 0..60 {
                f += sim.advance(1.0, 2200.0, 1200.0).gpu_busy_fraction;
            }
            f / 60.0
        };
        let low = busy_frac(30.0);
        let high = busy_frac(200.0);
        assert!(high > 2.0 * low, "low {low} vs high {high}");
    }

    #[test]
    fn overload_saturates_and_backlogs() {
        // Offered 500 img/s >> capacity at 435 MHz (~130 img/s): the GPU
        // saturates and the ingress backlog grows.
        let mut sim = PipelineSim::new(open_cfg(500.0, 7)).unwrap();
        let mut last = WindowStats::default();
        for _ in 0..60 {
            last = sim.advance(1.0, 2200.0, 435.0);
        }
        assert!(last.gpu_busy_fraction > 0.95);
        assert!(
            last.ingress_backlog > 100,
            "backlog {}",
            last.ingress_backlog
        );
    }

    #[test]
    fn rate_change_mid_run_shifts_throughput() {
        let mut sim = PipelineSim::new(open_cfg(40.0, 9)).unwrap();
        let mut before = 0usize;
        for _ in 0..60 {
            before += sim.advance(1.0, 2200.0, 1200.0).images_completed;
        }
        sim.set_arrival_rate(160.0).unwrap();
        let mut after = 0usize;
        for _ in 0..60 {
            after += sim.advance(1.0, 2200.0, 1200.0).images_completed;
        }
        assert!(
            after as f64 > 2.5 * before as f64,
            "before {before} after {after}"
        );
    }

    #[test]
    fn closed_loop_rejects_rate_change() {
        let mut sim = PipelineSim::new(PipelineConfig {
            model: models::resnet50(),
            num_workers: 2,
            queue_capacity: 64,
            seed: 1,
            f_gpu_max_mhz: 1350.0,
            arrivals: ArrivalMode::Closed,
        })
        .unwrap();
        assert!(sim.set_arrival_rate(100.0).is_err());
    }

    #[test]
    fn closed_mode_reports_no_arrivals() {
        let mut sim = PipelineSim::new(PipelineConfig {
            model: models::resnet50(),
            num_workers: 2,
            queue_capacity: 64,
            seed: 1,
            f_gpu_max_mhz: 1350.0,
            arrivals: ArrivalMode::Closed,
        })
        .unwrap();
        let s = sim.advance(5.0, 2200.0, 900.0);
        assert_eq!(s.arrivals, 0);
        assert_eq!(s.ingress_backlog, 0);
        assert!(s.images_completed > 0);
    }
}

/// The reference the shipped loop is held to: the same pipeline with
/// every event taken by one general step, its workers and GPU as enums and
/// the next deadline found by a scan. `oracle_tests` compares the two bit
/// for bit.
#[cfg(test)]
mod oracle {
    use std::collections::VecDeque;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::{ArrivalMode, PipelineConfig, WindowStats};
    use crate::{Result, WorkloadError};

    /// Worker state: preprocessing an image, blocked on a full queue, or (in
    /// open-loop mode) idle awaiting an arrival.
    #[derive(Debug, Clone, Copy)]
    enum Worker {
        /// Preprocessing; image ready at `done_at`.
        Busy { done_at: f64 },
        /// Finished an image at `ready_at` but the queue was full.
        Blocked { ready_at: f64 },
        /// No request waiting (open-loop mode only).
        Idle,
    }

    /// GPU state: idle or executing a batch.
    #[derive(Debug, Clone)]
    enum Gpu {
        Idle,
        Busy {
            done_at: f64,
            started_at: f64,
            /// Enqueue timestamps of the images in the in-flight batch.
            batch: Vec<f64>,
        },
    }

    /// The event loop as it was before the fill-phase inner loop: every
    /// event through one general step.
    #[derive(Debug, Clone)]
    pub struct Oracle {
        cfg: PipelineConfig,
        now: f64,
        workers: Vec<Worker>,
        /// Ready-timestamps of images waiting in the shared queue.
        queue: VecDeque<f64>,
        gpu: Gpu,
        rng: StdRng,
        /// Open-loop mode: current arrival rate (img/s).
        arrival_rate: Option<f64>,
        /// Open-loop mode: time of the next Poisson arrival.
        next_arrival: f64,
        /// Open-loop mode: arrival timestamps waiting for a free worker.
        ingress: VecDeque<f64>,
        /// Recycled batch buffer: avoids one heap allocation per batch start.
        spare_batch: Vec<f64>,
    }

    impl Oracle {
        /// Creates the pipeline; workers start preprocessing immediately.
        ///
        /// # Errors
        /// [`WorkloadError::BadConfig`] when there are no workers, the queue
        /// cannot hold a batch, or the model's batch size is zero.
        pub fn new(cfg: PipelineConfig) -> Result<Self> {
            if cfg.num_workers == 0 {
                return Err(WorkloadError::BadConfig("pipeline needs >= 1 worker"));
            }
            if cfg.model.batch_size == 0 {
                return Err(WorkloadError::BadConfig("batch size must be positive"));
            }
            if cfg.queue_capacity < cfg.model.batch_size {
                return Err(WorkloadError::BadConfig(
                    "queue must hold at least one batch",
                ));
            }
            if cfg.f_gpu_max_mhz <= 0.0 {
                return Err(WorkloadError::BadConfig("f_gpu_max must be positive"));
            }
            let arrival_rate = match cfg.arrivals {
                ArrivalMode::Closed => None,
                ArrivalMode::Open { rate_img_s } => {
                    if rate_img_s <= 0.0 {
                        return Err(WorkloadError::BadConfig("arrival rate must be positive"));
                    }
                    Some(rate_img_s)
                }
            };
            let workers = vec![Worker::Busy { done_at: 0.0 }; cfg.num_workers];
            let mut sim = Oracle {
                cfg,
                now: 0.0,
                workers,
                queue: VecDeque::new(),
                gpu: Gpu::Idle,
                rng: StdRng::seed_from_u64(0),
                arrival_rate,
                next_arrival: f64::INFINITY,
                ingress: VecDeque::new(),
                spare_batch: Vec::new(),
            };
            sim.rng = StdRng::seed_from_u64(sim.cfg.seed);
            match sim.arrival_rate {
                // Closed loop: workers start preprocessing immediately, with
                // staggered completions so they don't fire in lockstep.
                None => {
                    for i in 0..sim.workers.len() {
                        let jitterless = sim.cfg.model.preprocess_s_per_image;
                        sim.workers[i] = Worker::Busy {
                            done_at: jitterless * (i as f64 + 1.0) / sim.workers.len() as f64,
                        };
                    }
                }
                // Open loop: workers idle until the first arrival.
                Some(_) => {
                    sim.workers.iter_mut().for_each(|w| *w = Worker::Idle);
                    sim.next_arrival = sim.draw_arrival(0.0);
                }
            }
            Ok(sim)
        }

        /// Simulation clock (seconds).
        pub fn now(&self) -> f64 {
            self.now
        }

        /// Current queue length in images.
        pub fn queue_len(&self) -> usize {
            self.queue.len()
        }

        /// Changes the open-loop arrival rate mid-run (demand surge/ebb).
        ///
        /// # Errors
        /// [`WorkloadError::BadConfig`] when called on a closed-loop pipeline
        /// or with a non-positive rate.
        pub fn set_arrival_rate(&mut self, rate_img_s: f64) -> Result<()> {
            if self.arrival_rate.is_none() {
                return Err(WorkloadError::BadConfig(
                    "closed-loop pipeline has no arrival rate",
                ));
            }
            if rate_img_s <= 0.0 {
                return Err(WorkloadError::BadConfig("arrival rate must be positive"));
            }
            self.arrival_rate = Some(rate_img_s);
            // Next arrival re-drawn at the new rate from now.
            self.next_arrival = self.draw_arrival(self.now);
            Ok(())
        }

        /// Draws the next Poisson arrival time after `t`.
        fn draw_arrival(&mut self, t: f64) -> f64 {
            match self.arrival_rate {
                Some(rate) => {
                    let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
                    t - u.ln() / rate
                }
                None => f64::INFINITY,
            }
        }

        /// Starts a worker on its next image (`preprocess_s` at the window's
        /// CPU clock, before jitter), honoring the arrival mode: closed-loop
        /// always has work; open-loop takes from the ingress backlog or
        /// idles. Returns whether the worker went busy.
        fn start_next_image(&mut self, i: usize, preprocess_s: f64) -> bool {
            let has_work = self.arrival_rate.is_none() || self.ingress.pop_front().is_some();
            if has_work {
                let pre = preprocess_s * self.jitter();
                self.workers[i] = Worker::Busy {
                    done_at: self.now + pre,
                };
            } else {
                self.workers[i] = Worker::Idle;
            }
            has_work
        }

        /// Multiplicative jitter factor drawn from `[1−j, 1+j]`.
        fn jitter(&mut self) -> f64 {
            let j = self.cfg.model.jitter;
            if j == 0.0 {
                1.0
            } else {
                1.0 + self.rng.gen_range(-j..j)
            }
        }

        /// Advances the pipeline by `window_s` seconds, writing the window's
        /// statistics into `stats` (cleared first, reusing its buffers). The
        /// hot path for per-second stepping: a caller-owned `WindowStats` is
        /// recycled across windows so no per-window heap allocation occurs.
        ///
        /// # Panics
        /// Panics (debug) on non-positive frequencies or window.
        pub fn advance_into(
            &mut self,
            window_s: f64,
            f_cpu_mhz: f64,
            f_gpu_mhz: f64,
            stats: &mut WindowStats,
        ) {
            debug_assert!(window_s > 0.0 && f_cpu_mhz > 0.0 && f_gpu_mhz > 0.0);
            let end = self.now + window_s;
            // Both clocks are fixed for the window, so the two latency laws
            // are evaluated once, not once per image and per batch.
            let model = &self.cfg.model;
            let preprocess_s = model.preprocess_time(f_cpu_mhz);
            let batch_s = model.true_batch_latency(f_gpu_mhz, self.cfg.f_gpu_max_mhz);
            stats.images_completed = 0;
            stats.batches_completed = 0;
            stats.window_s = window_s;
            stats.gpu_busy_fraction = 0.0;
            stats.gpu_util = 0.0;
            stats.cpu_worker_util = 0.0;
            stats.batch_latencies.clear();
            stats.queue_delays.clear();
            stats.mean_queue_len = 0.0;
            stats.arrivals = 0;
            stats.ingress_backlog = 0;
            let mut gpu_busy_time = 0.0;
            let mut worker_busy_time = 0.0;
            let mut queue_len_integral = 0.0;
            let mut last_t = self.now;
            // Busy-worker count, maintained incrementally at state transitions
            // so the per-event integral update is O(busy) additions instead of
            // a full state scan.
            let mut busy_count = self
                .workers
                .iter()
                .filter(|w| matches!(w, Worker::Busy { .. }))
                .count();

            loop {
                // If the GPU is idle and a full batch is queued, start it now.
                if matches!(self.gpu, Gpu::Idle) && self.queue.len() >= self.cfg.model.batch_size {
                    let mut batch = std::mem::take(&mut self.spare_batch);
                    batch.clear();
                    batch.reserve(self.cfg.model.batch_size);
                    for _ in 0..self.cfg.model.batch_size {
                        batch.push(self.queue.pop_front().expect("len checked"));
                    }
                    // Queue space freed: resume blocked workers.
                    self.unblock_workers(preprocess_s, &mut busy_count);
                    let exec = batch_s * self.jitter();
                    self.gpu = Gpu::Busy {
                        done_at: self.now + exec,
                        started_at: self.now,
                        batch,
                    };
                }

                // Next event time; the worker minimum is kept separately so the
                // completion scan below can be skipped when no worker is due.
                let mut worker_min = f64::INFINITY;
                for w in &self.workers {
                    if let Worker::Busy { done_at } = w {
                        worker_min = worker_min.min(*done_at);
                    }
                }
                let mut t_next = worker_min;
                if let Gpu::Busy { done_at, .. } = &self.gpu {
                    t_next = t_next.min(*done_at);
                }
                if self.arrival_rate.is_some() {
                    t_next = t_next.min(self.next_arrival);
                }

                if t_next > end {
                    // Window ends before the next event: accumulate partial
                    // busy time and stop.
                    self.accumulate(
                        last_t,
                        end,
                        &mut gpu_busy_time,
                        &mut worker_busy_time,
                        &mut queue_len_integral,
                        busy_count,
                    );
                    self.now = end;
                    break;
                }

                self.accumulate(
                    last_t,
                    t_next,
                    &mut gpu_busy_time,
                    &mut worker_busy_time,
                    &mut queue_len_integral,
                    busy_count,
                );
                self.now = t_next;
                last_t = t_next;

                // GPU completion first (frees queue insight for workers at the
                // same instant via the loop's top-of-iteration batch start).
                if matches!(&self.gpu, Gpu::Busy { done_at, .. } if *done_at <= self.now) {
                    if let Gpu::Busy {
                        done_at,
                        started_at,
                        batch,
                    } = std::mem::replace(&mut self.gpu, Gpu::Idle)
                    {
                        stats.batches_completed += 1;
                        stats.images_completed += batch.len();
                        stats.batch_latencies.push(done_at - started_at);
                        for enq in &batch {
                            stats.queue_delays.push((started_at - enq).max(0.0));
                        }
                        // Recycle the batch buffer for the next batch start.
                        self.spare_batch = batch;
                    }
                    continue;
                }

                // Arrivals at this instant (open-loop mode).
                while self.arrival_rate.is_some() && self.next_arrival <= self.now {
                    stats.arrivals += 1;
                    let idle = self.workers.iter().position(|w| matches!(w, Worker::Idle));
                    match idle {
                        Some(i) => {
                            let pre = preprocess_s * self.jitter();
                            self.workers[i] = Worker::Busy {
                                done_at: self.now + pre,
                            };
                            busy_count += 1;
                        }
                        None => self.ingress.push_back(self.now),
                    }
                    self.next_arrival = self.draw_arrival(self.next_arrival);
                }

                // Worker completions at this instant (skipped when no worker
                // deadline has been reached — e.g. on GPU/arrival-only events).
                if worker_min <= self.now {
                    for i in 0..self.workers.len() {
                        if let Worker::Busy { done_at } = self.workers[i] {
                            if done_at <= self.now {
                                if self.queue.len() < self.cfg.queue_capacity {
                                    self.queue.push_back(done_at);
                                    if !self.start_next_image(i, preprocess_s) {
                                        busy_count -= 1;
                                    }
                                } else {
                                    self.workers[i] = Worker::Blocked { ready_at: done_at };
                                    busy_count -= 1;
                                }
                            }
                        }
                    }
                }
            }

            stats.gpu_busy_fraction = (gpu_busy_time / window_s).clamp(0.0, 1.0);
            stats.gpu_util = stats.gpu_busy_fraction * self.cfg.model.gpu_util_busy;
            stats.cpu_worker_util =
                (worker_busy_time / (window_s * self.workers.len() as f64)).clamp(0.0, 1.0);
            stats.mean_queue_len = queue_len_integral / window_s;
            stats.ingress_backlog = self.ingress.len();
        }

        /// Moves blocked workers' images into freed queue space and restarts
        /// them preprocessing.
        fn unblock_workers(&mut self, preprocess_s: f64, busy_count: &mut usize) {
            for i in 0..self.workers.len() {
                if self.queue.len() >= self.cfg.queue_capacity {
                    break;
                }
                if let Worker::Blocked { ready_at } = self.workers[i] {
                    self.queue.push_back(ready_at);
                    if self.start_next_image(i, preprocess_s) {
                        *busy_count += 1;
                    }
                }
            }
        }

        /// Accumulates busy-time integrals over `[from, to]`.
        ///
        /// `worker_busy` advances by one `dt` addition per busy worker — kept
        /// as repeated addition (not `busy_count as f64 * dt`) so the floating
        /// point result is bit-identical to the original per-worker scan.
        fn accumulate(
            &self,
            from: f64,
            to: f64,
            gpu_busy: &mut f64,
            worker_busy: &mut f64,
            queue_integral: &mut f64,
            busy_count: usize,
        ) {
            let dt = (to - from).max(0.0);
            if dt == 0.0 {
                return;
            }
            if let Gpu::Busy { done_at, .. } = &self.gpu {
                *gpu_busy += dt.min((done_at - from).max(0.0));
            }
            for _ in 0..busy_count {
                *worker_busy += dt;
            }
            *queue_integral += self.queue.len() as f64 * dt;
        }
    }
}

#[cfg(test)]
mod oracle_tests {
    use proptest::prelude::*;

    use super::oracle::Oracle;
    use super::*;
    use crate::models;

    /// Every field of `s`, floats by bit pattern, each list after its
    /// length; destructured without `..` so a new field cannot escape.
    fn bits(s: &WindowStats) -> Vec<u64> {
        let WindowStats {
            images_completed,
            batches_completed,
            window_s,
            gpu_busy_fraction,
            gpu_util,
            cpu_worker_util,
            batch_latencies,
            queue_delays,
            mean_queue_len,
            arrivals,
            ingress_backlog,
        } = s;
        let counts = [
            images_completed,
            batches_completed,
            arrivals,
            ingress_backlog,
        ];
        let mut v: Vec<u64> = counts.iter().map(|&&c| c as u64).collect();
        let floats = [
            window_s,
            gpu_busy_fraction,
            gpu_util,
            cpu_worker_util,
            mean_queue_len,
        ];
        v.extend(floats.iter().map(|x| x.to_bits()));
        for list in [batch_latencies, queue_delays] {
            v.push(list.len() as u64);
            v.extend(list.iter().map(|x| x.to_bits()));
        }
        v
    }

    /// A profile whose times are powers of two at the clocks
    /// [`clocks`] gives it, so worker, batch and window-end deadlines
    /// fall on the same instants and every tie rule is exercised.
    fn dyadic() -> ModelProfile {
        ModelProfile {
            name: "dyadic".to_string(),
            batch_size: 20,
            e_min_s: 0.5,
            gamma_true: 1.0,
            preprocess_s_per_image: 0.0625,
            preprocess_ref_mhz: 2000.0,
            gpu_util_busy: 0.9,
            jitter: 0.0,
        }
    }

    /// Window `w`'s CPU and GPU clocks (GPU maximum 1350 MHz), decoded
    /// from one plan word: exact halvings for the dyadic profile, any
    /// value in the evaluation servers' ranges otherwise.
    fn clocks(w: u64, dyadic: bool) -> (f64, f64) {
        if dyadic {
            let f_cpu = [1000.0, 2000.0, 4000.0][(w / 4 % 3) as usize];
            (f_cpu, [675.0, 1350.0][(w / 12 % 2) as usize])
        } else {
            let f_cpu = 1000.0 + (w >> 8) as f64 % 1400.0 + 0.25 * (w % 4) as f64;
            (f_cpu, 300.0 + (w >> 20) as f64 % 1050.0)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The shipped loop and the one-step-per-event oracle produce the
        /// same window statistics, clock and queue, bit for bit.
        #[test]
        fn advance_matches_the_oracle_bit_for_bit(
            num_workers in 1usize..13,
            batch_size in prop::sample::select(vec![1usize, 4, 20]),
            batches in 1usize..5,
            jitter in prop::sample::select(vec![0.0, 0.03, 0.3]),
            dyadic_times in prop::sample::select(vec![false, true]),
            rate in prop::sample::select(vec![None, Some(30.0), Some(300.0), Some(3000.0)]),
            surge in 10.0..3000.0f64,
            plan in prop::collection::vec(0u64..1 << 32, 1..24),
            seed in 0u64..1000,
        ) {
            let mut model = if dyadic_times { dyadic() } else { models::resnet50() };
            model.batch_size = batch_size;
            model.jitter = jitter;
            let cfg = PipelineConfig {
                model,
                num_workers,
                queue_capacity: batch_size * batches,
                seed,
                f_gpu_max_mhz: 1350.0,
                arrivals: match rate {
                    Some(rate_img_s) => ArrivalMode::Open { rate_img_s },
                    None => ArrivalMode::Closed,
                },
            };
            let mut sim = PipelineSim::new(cfg.clone()).unwrap();
            let mut oracle = Oracle::new(cfg).unwrap();
            let (mut got, mut want) = (WindowStats::default(), WindowStats::default());
            for (k, &w) in plan.iter().enumerate() {
                if rate.is_some() && k == plan.len() / 2 {
                    sim.set_arrival_rate(surge).unwrap();
                    oracle.set_arrival_rate(surge).unwrap();
                }
                let window_s = [0.01, 0.25, 1.0, 4.0][(w % 4) as usize];
                let (f_cpu, f_gpu) = clocks(w, dyadic_times);
                sim.advance_into(window_s, f_cpu, f_gpu, &mut got);
                oracle.advance_into(window_s, f_cpu, f_gpu, &mut want);
                prop_assert_eq!(bits(&got), bits(&want));
                prop_assert_eq!(sim.now().to_bits(), oracle.now().to_bits());
                prop_assert_eq!(sim.queue_len(), oracle.queue_len());
            }
        }
    }
}
