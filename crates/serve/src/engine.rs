//! The per-GPU discrete-event serving engine.
//!
//! One engine models one GPU's serving loop: requests arrive by a
//! pluggable [`ArrivalGen`], wait in a bounded FIFO queue, and are
//! dispatched by a dynamic batcher — a batch launches when `max_batch`
//! requests are queued, or when the oldest queued request has waited
//! `batch_timeout_s` (vLLM/Triton-style size-or-timeout batching). Batch
//! service time is the paper's γ latency law at the device's *effective*
//! frequency, scaled by a calibrated batch-efficiency curve so partial
//! batches run faster than full ones but pay a fixed launch overhead.
//!
//! The engine is driven in wall-clock windows (one per power-meter
//! second, matching `PipelineSim::advance`): the caller passes the
//! window length and the effective core clock in force, and receives
//! per-window statistics — completions, busy fraction, and every
//! completed request's end-to-end latency (queue wait + service), the
//! sample stream that feeds `SloTracker` for measured-p99 constraint
//! checking.
//!
//! Three event kinds can be pending — the next request arrival (always),
//! the in-flight batch's completion, and the armed batcher timers — and
//! the next event is the earliest of the three by [`Due::before`]. Timers
//! wait in a FIFO: every deadline armed is no earlier than the ones before
//! it, so the FIFO's front is the earliest timer and stale ones still fire
//! at their own time. The sequence number makes simultaneous events
//! resolve in scheduling order, so the engine is bit-reproducible per seed.

use std::cmp::Ordering;
use std::collections::VecDeque;

use crate::arrivals::ArrivalGen;
use crate::{Result, ServeError};

/// The batch service-time model: the γ frequency law times a linear
/// batch-efficiency curve.
///
/// A full batch (`b = max_batch`) at `f_max` takes exactly `e_min_s` —
/// consistent with the pipeline simulator's batch latency — and a
/// partial batch takes `overhead + (1 − overhead) · b / max_batch` of
/// the full-batch time: GPU kernels amortize launch and memory-movement
/// cost across the batch, so halving the batch does not halve the time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceModel {
    /// Full-batch service time at `f_max_mhz` (seconds).
    pub e_min_s: f64,
    /// Frequency-scaling exponent γ.
    pub gamma: f64,
    /// Maximum core frequency (MHz).
    pub f_max_mhz: f64,
    /// Maximum batch size the batcher will dispatch.
    pub max_batch: usize,
    /// Fixed fraction of the full-batch time a batch pays regardless of
    /// its size (`0` = perfectly linear, measured GPUs sit near 0.2–0.5).
    pub batch_overhead: f64,
}

impl ServiceModel {
    /// Validates the model parameters.
    ///
    /// # Errors
    /// [`ServeError::BadConfig`] describing the first inconsistency.
    pub fn validate(&self) -> Result<()> {
        let pos = |x: f64| x > 0.0 && x.is_finite();
        if !pos(self.e_min_s) {
            return Err(ServeError::BadConfig(
                "service model e_min must be positive and finite",
            ));
        }
        if !pos(self.gamma) {
            return Err(ServeError::BadConfig(
                "service model gamma must be positive and finite",
            ));
        }
        if !pos(self.f_max_mhz) {
            return Err(ServeError::BadConfig(
                "service model f_max must be positive and finite",
            ));
        }
        if self.max_batch == 0 {
            return Err(ServeError::BadConfig("max batch must be >= 1"));
        }
        if !self.batch_overhead.is_finite() || !(0.0..1.0).contains(&self.batch_overhead) {
            return Err(ServeError::BadConfig("batch overhead must be in [0, 1)"));
        }
        Ok(())
    }

    /// The γ frequency-law factor `(f_max / f)^γ` at effective frequency
    /// `f_eff_mhz`. Constant while the clock is: the engine evaluates it
    /// once per window, not once per batch.
    #[inline]
    pub fn freq_factor(&self, f_eff_mhz: f64) -> f64 {
        debug_assert!(f_eff_mhz > 0.0);
        (self.f_max_mhz / f_eff_mhz).powf(self.gamma)
    }

    /// Service time of a `batch`-request batch at effective frequency
    /// `f_eff_mhz`.
    pub fn batch_service_s(&self, batch: usize, f_eff_mhz: f64) -> f64 {
        self.batch_service_s_scaled(batch, self.freq_factor(f_eff_mhz))
    }

    /// [`ServiceModel::batch_service_s`] given the clock's
    /// [`ServiceModel::freq_factor`].
    #[inline]
    fn batch_service_s_scaled(&self, batch: usize, freq_factor: f64) -> f64 {
        debug_assert!(batch >= 1 && batch <= self.max_batch);
        let efficiency = self.batch_overhead
            + (1.0 - self.batch_overhead) * batch as f64 / self.max_batch as f64;
        self.e_min_s * freq_factor * efficiency
    }
}

/// What happens inside one simulated window.
#[derive(Debug, Clone, Default)]
pub struct ServeWindowStats {
    /// Window length (s).
    pub window_s: f64,
    /// Requests that arrived during the window.
    pub arrivals: usize,
    /// Requests whose inference completed during the window.
    pub completions: usize,
    /// Batches completed during the window.
    pub batches: usize,
    /// Requests shed because the queue was full.
    pub dropped: usize,
    /// Fraction of the window a batch was in flight.
    pub busy_fraction: f64,
    /// End-to-end latency (queue wait + service) of every request
    /// completed in the window (s).
    pub request_latencies: Vec<f64>,
    /// Queue length at window end.
    pub queue_len_end: usize,
    /// Events processed during the window, stale batcher timers
    /// included.
    pub events: usize,
    /// Size of every batch *completed* in the window, in completion
    /// order (telemetry: batch-size histograms). `len() == batches`.
    pub batch_sizes: Vec<usize>,
    /// Prefill (prompt) tokens processed during the window, including
    /// any recomputed after preemption. Zero for one-shot engines.
    pub prefill_tokens: usize,
    /// Decode tokens emitted during the window. Zero for one-shot
    /// engines, which model whole requests rather than token streams.
    pub decode_tokens: usize,
    /// Seconds of the window spent in prefill-dominated work.
    pub prefill_busy_s: f64,
    /// Seconds of the window spent in decode-dominated work.
    pub decode_busy_s: f64,
    /// KV-cache tokens resident at window end (0 without a KV cache).
    pub kv_used_tokens_end: usize,
    /// KV-cache budget in force (0 without a KV cache).
    pub kv_budget_tokens: usize,
    /// Requests preempted (evicted for recompute) during the window.
    pub preemptions: usize,
    /// Time-to-first-token of every request whose first decode token
    /// was emitted in the window (s). Empty for one-shot engines.
    pub ttft_s: Vec<f64>,
    /// Gap between consecutive decode tokens, one sample per emitted
    /// non-first token in the window (s). Empty for one-shot engines.
    pub inter_token_s: Vec<f64>,
}

impl ServeWindowStats {
    /// Mean dispatched batch size over the window (0 when no batch
    /// completed).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.completions as f64 / self.batches as f64
        }
    }

    /// KV-cache occupancy at window end as a fraction of the budget
    /// (0 without a KV cache).
    pub fn kv_occupancy(&self) -> f64 {
        if self.kv_budget_tokens == 0 {
            0.0
        } else {
            (self.kv_used_tokens_end as f64 / self.kv_budget_tokens as f64).clamp(0.0, 1.0)
        }
    }

    /// Resets every field for reuse as a scratch window, recycling the
    /// sample buffers. One-shot and token-level engines share this
    /// scratch, so each must start from a fully cleared window.
    pub fn clear_for_window(&mut self, window_s: f64) {
        self.window_s = window_s;
        self.arrivals = 0;
        self.completions = 0;
        self.batches = 0;
        self.dropped = 0;
        self.busy_fraction = 0.0;
        self.request_latencies.clear();
        self.queue_len_end = 0;
        self.events = 0;
        self.batch_sizes.clear();
        self.prefill_tokens = 0;
        self.decode_tokens = 0;
        self.prefill_busy_s = 0.0;
        self.decode_busy_s = 0.0;
        self.kv_used_tokens_end = 0;
        self.kv_budget_tokens = 0;
        self.preemptions = 0;
        self.ttft_s.clear();
        self.inter_token_s.clear();
    }
}

/// When a scheduled event is due: `(time, sequence)` is a strict total
/// order, the one both request-level engines schedule by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Due {
    /// Simulated time the event fires (s).
    pub at: f64,
    /// Scheduling sequence number, which orders simultaneous events.
    pub seq: u64,
}

impl Due {
    /// Whether `self` fires strictly before `other`.
    #[inline]
    pub fn before(self, other: Due) -> bool {
        self.at
            .partial_cmp(&other.at)
            .expect("event times are finite")
            .then_with(|| self.seq.cmp(&other.seq))
            == Ordering::Less
    }
}

/// The three event kinds of the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// A request arrives.
    Arrival,
    /// The front batcher timer fires; all but the last one armed are
    /// stale and do nothing.
    BatchTimeout,
    /// The in-flight batch completes.
    BatchDone,
}

/// The batch currently executing on the GPU.
#[derive(Debug, Clone)]
struct InFlight {
    started_at: f64,
    done: Due,
    /// Arrival timestamps of the batched requests.
    requests: Vec<f64>,
}

/// The deterministic discrete-event serving engine for one GPU.
#[derive(Debug, Clone)]
pub struct ServeEngine {
    model: ServiceModel,
    batch_timeout_s: f64,
    queue_capacity: usize,
    arrivals: ArrivalGen,
    now: f64,
    /// The one pending arrival.
    next_arrival: Due,
    /// Armed batcher timers in arming order, stale ones included.
    timers: VecDeque<Due>,
    /// Sequence number of the most recently scheduled event.
    seq: u64,
    /// Arrival timestamps of queued requests, FIFO.
    queue: VecDeque<f64>,
    in_flight: Option<InFlight>,
    /// Whether the last timer armed is still live.
    timer_armed: bool,
    /// Recycled batch buffer (no per-batch allocation).
    spare: Vec<f64>,
    // Lifetime conservation counters.
    arrivals_total: u64,
    completions_total: u64,
    dropped_total: u64,
    batches_total: u64,
    events_total: u64,
    /// Stays true while every popped event time is >= the previous one.
    monotone: bool,
    last_event_at: f64,
}

impl ServeEngine {
    /// Creates an engine and schedules the first arrival.
    ///
    /// # Errors
    /// [`ServeError::BadConfig`] on invalid model, timeout, or capacity
    /// (the queue must hold at least one full batch).
    pub fn new(
        model: ServiceModel,
        batch_timeout_s: f64,
        queue_capacity: usize,
        mut arrivals: ArrivalGen,
    ) -> Result<Self> {
        model.validate()?;
        if !(batch_timeout_s >= 0.0 && batch_timeout_s.is_finite()) {
            return Err(ServeError::BadConfig(
                "batch timeout must be finite and >= 0",
            ));
        }
        if queue_capacity < model.max_batch {
            return Err(ServeError::BadConfig("queue must hold one full batch"));
        }
        let first = arrivals.next_after(0.0);
        Ok(ServeEngine {
            model,
            batch_timeout_s,
            queue_capacity,
            arrivals,
            now: 0.0,
            next_arrival: Due { at: first, seq: 1 },
            timers: VecDeque::new(),
            seq: 1,
            queue: VecDeque::new(),
            in_flight: None,
            timer_armed: false,
            spare: Vec::new(),
            arrivals_total: 0,
            completions_total: 0,
            dropped_total: 0,
            batches_total: 0,
            events_total: 0,
            monotone: true,
            last_event_at: 0.0,
        })
    }

    /// Simulation clock (s).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Queued (not yet dispatched) requests.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Requests in the batch currently executing (0 when idle).
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.as_ref().map_or(0, |b| b.requests.len())
    }

    /// Lifetime arrivals.
    pub fn arrivals_total(&self) -> u64 {
        self.arrivals_total
    }

    /// Lifetime completions.
    pub fn completions_total(&self) -> u64 {
        self.completions_total
    }

    /// Lifetime load-shed (queue-full) drops.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_total
    }

    /// Lifetime dispatched batches.
    pub fn batches_total(&self) -> u64 {
        self.batches_total
    }

    /// Lifetime events processed, stale batcher timers included.
    pub fn events_total(&self) -> u64 {
        self.events_total
    }

    /// Whether every event processed so far carried a timestamp no
    /// earlier than its predecessor's (the event-order invariant).
    pub fn timestamps_monotone(&self) -> bool {
        self.monotone
    }

    /// Conservation invariant: every request that ever arrived is
    /// completed, dropped, queued, or in flight.
    pub fn conserved(&self) -> bool {
        self.arrivals_total
            == self.completions_total
                + self.dropped_total
                + self.queue.len() as u64
                + self.in_flight_len() as u64
    }

    /// Scales the arrival intensity (scheduled burst/ebb); takes effect
    /// from the next drawn arrival.
    ///
    /// # Errors
    /// [`ServeError::BadConfig`] on a non-positive scale.
    pub fn set_intensity_scale(&mut self, scale: f64) -> Result<()> {
        self.arrivals.set_intensity_scale(scale)
    }

    /// Stamps an event scheduled for `at` with the next sequence number.
    fn due(&mut self, at: f64) -> Due {
        self.seq += 1;
        Due { at, seq: self.seq }
    }

    /// Arms the batcher timer for the current queue front.
    fn arm_timer(&mut self, deadline: f64) {
        // Every deadline is the queue front's arrival plus the timeout, or
        // the current time, and both only grow: the FIFO stays sorted by
        // `(at, seq)`, so its front is the earliest pending timer.
        debug_assert!(self.timers.back().is_none_or(|last| last.at <= deadline));
        self.timer_armed = true;
        let due = self.due(deadline);
        self.timers.push_back(due);
    }

    /// The earliest of the three pending-event slots.
    fn next_event(&self) -> (f64, EventKind) {
        let mut next = (self.next_arrival, EventKind::Arrival);
        if let Some(batch) = &self.in_flight {
            if batch.done.before(next.0) {
                next = (batch.done, EventKind::BatchDone);
            }
        }
        if let Some(&timer) = self.timers.front() {
            if timer.before(next.0) {
                next = (timer, EventKind::BatchTimeout);
            }
        }
        (next.0.at, next.1)
    }

    /// Dispatches up to `max_batch` queued requests at time `t`, at the
    /// window's [`ServiceModel::freq_factor`].
    fn dispatch(&mut self, t: f64, freq_factor: f64) {
        debug_assert!(self.in_flight.is_none() && !self.queue.is_empty());
        self.timer_armed = false;
        let b = self.queue.len().min(self.model.max_batch);
        let mut requests = std::mem::take(&mut self.spare);
        requests.clear();
        requests.reserve(b);
        for _ in 0..b {
            requests.push(self.queue.pop_front().expect("len checked"));
        }
        let service = self.model.batch_service_s_scaled(b, freq_factor);
        self.batches_total += 1;
        let done = self.due(t + service);
        self.in_flight = Some(InFlight {
            started_at: t,
            done,
            requests,
        });
        // A remainder left behind a full-batch dispatch starts its own
        // timeout clock from its oldest request.
        if !self.queue.is_empty() {
            let deadline = self.queue.front().expect("non-empty") + self.batch_timeout_s;
            self.arm_timer(deadline.max(t));
        }
    }

    /// Advances the engine by `window_s` seconds with the effective core
    /// frequency `f_eff_mhz` in force, writing the window's statistics
    /// into `stats` (cleared first; its buffers are recycled). Batches
    /// dispatched during the window use the window's frequency; a batch
    /// already in flight keeps the service time it was launched with.
    pub fn advance_into(&mut self, window_s: f64, f_eff_mhz: f64, stats: &mut ServeWindowStats) {
        debug_assert!(window_s > 0.0 && f_eff_mhz > 0.0);
        let start = self.now;
        let end = start + window_s;
        stats.clear_for_window(window_s);
        let freq_factor = self.model.freq_factor(f_eff_mhz);
        let mut busy = 0.0;

        loop {
            let (at, kind) = self.next_event();
            if at > end {
                break;
            }
            self.events_total += 1;
            stats.events += 1;
            self.monotone &= at >= self.last_event_at;
            self.last_event_at = at;
            self.now = at.max(self.now);
            match kind {
                EventKind::Arrival => {
                    self.arrivals_total += 1;
                    stats.arrivals += 1;
                    let next = self.arrivals.next_after(at);
                    self.next_arrival = self.due(next);
                    if self.queue.len() >= self.queue_capacity {
                        self.dropped_total += 1;
                        stats.dropped += 1;
                    } else {
                        self.queue.push_back(at);
                        if self.in_flight.is_none() {
                            if self.queue.len() >= self.model.max_batch {
                                self.dispatch(at, freq_factor);
                            } else if !self.timer_armed {
                                self.arm_timer(at + self.batch_timeout_s);
                            }
                        }
                    }
                }
                EventKind::BatchTimeout => {
                    // Timers fire in arming order, so the one popped is
                    // the last armed iff none is left behind it. Earlier
                    // ones — re-armed since, or consumed by a
                    // size-triggered dispatch — are stale no-ops.
                    self.timers.pop_front();
                    if self.timer_armed && self.timers.is_empty() {
                        self.timer_armed = false;
                        if self.in_flight.is_none() && !self.queue.is_empty() {
                            self.dispatch(at, freq_factor);
                        }
                    }
                }
                EventKind::BatchDone => {
                    let batch = self.in_flight.take().expect("done event implies a batch");
                    busy += at - batch.started_at.max(start);
                    stats.batches += 1;
                    stats.batch_sizes.push(batch.requests.len());
                    stats.completions += batch.requests.len();
                    self.completions_total += batch.requests.len() as u64;
                    for &arrived in &batch.requests {
                        stats.request_latencies.push(at - arrived);
                    }
                    self.spare = batch.requests;
                    if !self.queue.is_empty() {
                        if self.queue.len() >= self.model.max_batch {
                            self.dispatch(at, freq_factor);
                        } else {
                            let deadline =
                                self.queue.front().expect("non-empty") + self.batch_timeout_s;
                            if deadline <= at {
                                // Oldest request already overdue (it
                                // waited out a long batch): go now.
                                self.dispatch(at, freq_factor);
                            } else {
                                self.arm_timer(deadline);
                            }
                        }
                    }
                }
            }
        }

        // Partial busy time of a batch still in flight at window end.
        if let Some(b) = &self.in_flight {
            busy += end.min(b.done.at) - b.started_at.max(start);
        }
        self.now = end;
        stats.busy_fraction = (busy / window_s).clamp(0.0, 1.0);
        stats.queue_len_end = self.queue.len();
    }

    /// Allocating convenience wrapper over
    /// [`ServeEngine::advance_into`].
    pub fn advance(&mut self, window_s: f64, f_eff_mhz: f64) -> ServeWindowStats {
        let mut stats = ServeWindowStats::default();
        self.advance_into(window_s, f_eff_mhz, &mut stats);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{ArrivalGen, ArrivalProcess};

    fn model() -> ServiceModel {
        // ResNet50-shaped: 55 ms full batch of 20 at 1380 MHz.
        ServiceModel {
            e_min_s: 0.055,
            gamma: 0.91,
            f_max_mhz: 1380.0,
            max_batch: 20,
            batch_overhead: 0.3,
        }
    }

    fn engine(rate: f64, seed: u64) -> ServeEngine {
        let arrivals = ArrivalGen::new(ArrivalProcess::Poisson { rate_rps: rate }, seed).unwrap();
        ServeEngine::new(model(), 0.05, 200, arrivals).unwrap()
    }

    #[test]
    fn validation() {
        let arr = || ArrivalGen::new(ArrivalProcess::Poisson { rate_rps: 10.0 }, 1).unwrap();
        let mut m = model();
        m.max_batch = 0;
        assert!(ServeEngine::new(m, 0.05, 200, arr()).is_err());
        let mut m = model();
        m.batch_overhead = 1.0;
        assert!(ServeEngine::new(m, 0.05, 200, arr()).is_err());
        assert!(ServeEngine::new(model(), -0.1, 200, arr()).is_err());
        assert!(ServeEngine::new(model(), 0.05, 5, arr()).is_err()); // < max_batch
    }

    #[test]
    fn validation_names_the_offending_field() {
        let msg = |m: ServiceModel| match m.validate() {
            Err(crate::ServeError::BadConfig(s)) => s,
            Ok(()) => panic!("expected a validation error"),
        };
        let mut m = model();
        m.e_min_s = 0.0;
        assert!(msg(m).contains("e_min"));
        let mut m = model();
        m.gamma = f64::NAN;
        assert!(msg(m).contains("gamma"));
        let mut m = model();
        m.f_max_mhz = -1.0;
        assert!(msg(m).contains("f_max"));
        let mut m = model();
        m.batch_overhead = f64::INFINITY;
        assert!(msg(m).contains("overhead"));
    }

    #[test]
    fn kv_occupancy_covers_one_shot_and_token_windows() {
        // A fresh (one-shot) window has no KV cache.
        let mut s = ServeWindowStats::default();
        assert_eq!(s.kv_occupancy(), 0.0);
        // Token-level window: occupancy follows the counters, and
        // clear_for_window resets all of them.
        s.window_s = 2.0;
        s.prefill_busy_s = 0.5;
        s.decode_busy_s = 1.5;
        s.prefill_tokens = 4000;
        s.decode_tokens = 100;
        s.kv_used_tokens_end = 30_000;
        s.kv_budget_tokens = 60_000;
        s.preemptions = 2;
        s.ttft_s.push(0.4);
        s.inter_token_s.push(0.03);
        assert!((s.kv_occupancy() - 0.5).abs() < 1e-12);
        s.clear_for_window(1.0);
        assert_eq!(s.prefill_tokens, 0);
        assert_eq!(s.decode_tokens, 0);
        assert_eq!(s.kv_budget_tokens, 0);
        assert_eq!(s.preemptions, 0);
        assert!(s.ttft_s.is_empty() && s.inter_token_s.is_empty());
        assert_eq!((s.prefill_busy_s, s.decode_busy_s), (0.0, 0.0));
        assert_eq!(s.kv_occupancy(), 0.0);
    }

    #[test]
    fn service_model_curve() {
        let m = model();
        // Full batch at f_max is exactly e_min.
        assert!((m.batch_service_s(20, 1380.0) - 0.055).abs() < 1e-12);
        // Partial batches are faster but pay the overhead floor.
        let b1 = m.batch_service_s(1, 1380.0);
        let b10 = m.batch_service_s(10, 1380.0);
        assert!(b1 < b10 && b10 < 0.055);
        assert!(b1 > 0.3 * 0.055);
        // Halving frequency follows the γ law.
        let slow = m.batch_service_s(20, 690.0);
        assert!((slow / 0.055 - 2.0_f64.powf(0.91)).abs() < 1e-9);
    }

    #[test]
    fn underload_completes_all_arrivals() {
        // 100 rps against ~300 rps of capacity: drain keeps up.
        let mut e = engine(100.0, 7);
        let mut arrivals = 0;
        let mut completions = 0;
        for _ in 0..120 {
            let s = e.advance(1.0, 1380.0);
            arrivals += s.arrivals;
            completions += s.completions;
            assert!(e.conserved(), "conservation broke");
        }
        assert!(arrivals > 10_000, "arrivals {arrivals}");
        // Everything but the residual queue/in-flight tail completed.
        assert!(arrivals - completions < 50, "{arrivals} vs {completions}");
        assert_eq!(e.dropped_total(), 0);
    }

    #[test]
    fn overload_saturates_and_sheds() {
        // ~364 rps full-batch capacity at 1380 MHz; offer 800 rps.
        let mut e = engine(800.0, 9);
        let mut last = ServeWindowStats::default();
        for _ in 0..60 {
            e.advance_into(1.0, 1380.0, &mut last);
        }
        assert!(last.busy_fraction > 0.95, "{}", last.busy_fraction);
        assert!(e.dropped_total() > 0, "queue never filled");
        assert!(e.conserved());
    }

    #[test]
    fn lower_frequency_inflates_tail_latency() {
        let p99 = |f_mhz: f64| {
            let mut e = engine(150.0, 11);
            let mut lats = Vec::new();
            for _ in 0..90 {
                let s = e.advance(1.0, f_mhz);
                lats.extend_from_slice(&s.request_latencies);
            }
            capgpu_linalg::stats::percentile(&lats, 99.0)
        };
        let fast = p99(1380.0);
        let slow = p99(700.0);
        assert!(
            slow > 1.5 * fast,
            "p99 {slow} at 700 MHz vs {fast} at 1380 MHz"
        );
    }

    #[test]
    fn batch_timeout_bounds_queue_wait_under_trickle() {
        // 5 rps against a 20-batch: without the timeout a batch would
        // wait ~4 s to fill; with a 50 ms timeout p99 stays near the
        // timeout + service scale.
        let mut e = engine(5.0, 13);
        let mut lats = Vec::new();
        for _ in 0..120 {
            lats.extend_from_slice(&e.advance(1.0, 1380.0).request_latencies);
        }
        assert!(!lats.is_empty());
        let worst = lats.iter().cloned().fold(0.0, f64::max);
        assert!(worst < 0.3, "worst latency {worst} s under trickle load");
    }

    #[test]
    fn zero_timeout_dispatches_immediately() {
        let arrivals = ArrivalGen::new(ArrivalProcess::Poisson { rate_rps: 30.0 }, 17).unwrap();
        let mut e = ServeEngine::new(model(), 0.0, 200, arrivals).unwrap();
        let mut batches = 0;
        let mut completions = 0;
        for _ in 0..30 {
            let s = e.advance(1.0, 1380.0);
            batches += s.batches;
            completions += s.completions;
        }
        // Mostly singleton batches: mean batch size stays small.
        assert!(batches > 0);
        assert!((completions as f64 / batches as f64) < 3.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = |seed| {
            let mut e = engine(200.0, seed);
            let mut sig = Vec::new();
            for k in 0..60 {
                // Vary frequency to exercise dispatch paths.
                let f = if k % 2 == 0 { 1380.0 } else { 900.0 };
                let s = e.advance(1.0, f);
                sig.push((
                    s.arrivals,
                    s.completions,
                    s.batches,
                    s.request_latencies.clone(),
                ));
            }
            (sig, e.events_total())
        };
        assert_eq!(run(23), run(23));
        assert_ne!(run(23).0, run(24).0);
    }

    #[test]
    fn monotone_timestamps_and_event_accounting() {
        let mut e = engine(300.0, 29);
        let mut events = 0;
        for _ in 0..60 {
            events += e.advance(1.0, 1100.0).events;
        }
        assert!(e.timestamps_monotone());
        assert_eq!(events as u64, e.events_total());
        assert!(e.events_total() > 0);
    }

    #[test]
    fn stale_timers_stack_in_the_fifo() {
        // A 0.3 s timeout outlives every batch: a size-triggered dispatch
        // consumes the armed timer, which stays pending behind the ones
        // armed after it. Sampled every 10 ms, the FIFO holds several.
        let arrivals = ArrivalGen::new(ArrivalProcess::Poisson { rate_rps: 200.0 }, 42).unwrap();
        let mut e = ServeEngine::new(model(), 0.3, 200, arrivals).unwrap();
        let mut stats = ServeWindowStats::default();
        let mut deepest = 0;
        for _ in 0..2000 {
            e.advance_into(0.01, 1100.0, &mut stats);
            deepest = deepest.max(e.timers.len());
        }
        assert!(deepest >= 3, "at most {deepest} timers pending at once");
        assert!(e.timestamps_monotone() && e.conserved());
    }

    #[test]
    fn burst_scale_shifts_load() {
        let mut e = engine(50.0, 31);
        let mut before = 0;
        for _ in 0..30 {
            before += e.advance(1.0, 1380.0).arrivals;
        }
        e.set_intensity_scale(4.0).unwrap();
        let mut after = 0;
        for _ in 0..30 {
            after += e.advance(1.0, 1380.0).arrivals;
        }
        assert!(
            after as f64 > 2.5 * before as f64,
            "before {before} after {after}"
        );
    }
}
