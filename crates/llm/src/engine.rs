//! The per-GPU continuous-batching LLM engine.
//!
//! One engine models one GPU running iteration-level (continuous)
//! batching: instead of dispatching fixed request batches, the scheduler
//! runs *steps*. Each step interleaves at most one prompt-chunk of
//! prefill with one decode token for every context-complete request in
//! the running set; requests join the running set between steps as KV
//! headroom allows and leave the moment their last token is emitted —
//! decodes never wait for a batch to re-form (vLLM/Orca-style in-flight
//! batching). Chunked prefill bounds the prompt work in any one step, so
//! a long prompt never stalls the resident decodes behind it.
//!
//! ## KV-cache accounting
//!
//! Admission reserves a request's full resident context (prompt plus
//! any tokens already generated before a preemption) up front, the
//! conservative watermark that prevents mid-stream exhaustion; each
//! decoded token grows the reservation by one. When a decode step would
//! exceed the budget, the *youngest* resident request is preempted for
//! recompute: its emitted tokens stand, its context is dropped from the
//! cache, and it re-queues at the front to re-prefill — so cache
//! pressure costs prefill work and token-latency stall, never
//! correctness. Validation guarantees the largest possible request fits
//! the budget alone, which makes admission deadlock-free.
//!
//! ## Events and determinism
//!
//! Exactly two events can be pending — the next request arrival (always)
//! and the completion of the step in flight (while there is one) — so
//! the queue is those two slots, and the earlier by `(time, sequence)`
//! is next; the sequence number, taken when an event is scheduled, makes
//! simultaneous events resolve in scheduling order. Prompt/output
//! lengths come from a second seeded stream drawn in arrival order. Same
//! seed, same token trace, bit-identical across runs and thread counts.
//!
//! The clock is fixed for a window, so the two frequency-law factors are
//! evaluated once per [`LlmEngine::advance_into`]. Launching a step costs
//! one pass over the running set — the decode-ready requests, the KV
//! tokens they will read and the oldest incomplete context, each of which
//! a preemption adjusts for its victim instead of rescanning. The running
//! set does not change while a step is in flight, so the step remembers
//! only *how many* requests decode: completing it finds them again by the
//! same test, in one more pass.

use std::cmp::Ordering;
use std::collections::VecDeque;

use capgpu_serve::{ArrivalGen, ServeWindowStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{LlmServiceModel, LlmTaskSpec};
use crate::Result;

/// One request's lifecycle state.
#[derive(Debug, Clone)]
struct Request {
    arrived_at: f64,
    /// Prompt length (tokens).
    prompt: usize,
    /// Output budget (tokens); the request completes at `generated ==
    /// output`.
    output: usize,
    /// Context tokens materialized in the KV cache so far; decode is
    /// eligible once the whole resident context (`prompt + generated`)
    /// is materialized. Reset to 0 by preemption (recompute).
    ctx_done: usize,
    /// Tokens emitted so far. Survives preemption — emitted tokens have
    /// already been streamed to the client.
    generated: usize,
    /// Whether the TTFT sample was recorded (first token emitted).
    ttft_recorded: bool,
    /// Emission time of the most recent token (ITL gaps).
    last_token_at: f64,
}

impl Request {
    /// Resident-context size: the KV tokens this request holds (or
    /// reserves) while running.
    fn context(&self) -> usize {
        self.prompt + self.generated
    }

    /// Prompt tokens still to materialize before decode can proceed.
    fn prefill_remaining(&self) -> usize {
        self.context() - self.ctx_done
    }
}

/// The two event kinds of the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// A request arrives.
    Arrival,
    /// The in-flight scheduler step completes.
    StepDone,
}

/// When a scheduled event is due: `(time, sequence)` is a strict total
/// order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Due {
    at: f64,
    seq: u64,
}

impl Due {
    fn before(self, other: Due) -> bool {
        self.at
            .partial_cmp(&other.at)
            .expect("event times are finite")
            .then_with(|| self.seq.cmp(&other.seq))
            == Ordering::Less
    }
}

/// The two frequency-law factors at a window's effective clock.
#[derive(Debug, Clone, Copy)]
struct FreqFactors {
    prefill: f64,
    decode: f64,
}

/// The scheduler step currently executing on the GPU.
#[derive(Debug, Clone, Copy)]
struct Step {
    started_at: f64,
    done: Due,
    /// Index into `running` of the request receiving prefill this step
    /// (`None` when the step is pure decode).
    prefill_req: Option<usize>,
    /// Prompt tokens materialized by this step.
    prefill_tokens: usize,
    /// Requests emitting one token each: every decode-ready request of
    /// `running`.
    decoders: usize,
    /// Fraction of the step's wall time attributed to prefill (busy-time
    /// split for the phase-mix signal).
    prefill_frac: f64,
}

/// The deterministic continuous-batching engine for one GPU.
#[derive(Debug, Clone)]
pub struct LlmEngine {
    model: LlmServiceModel,
    spec: LlmTaskSpec,
    queue_capacity: usize,
    arrivals: ArrivalGen,
    /// Prompt/output length stream, drawn once per arrival.
    len_rng: StdRng,
    now: f64,
    /// The one pending arrival; the other pending event, if any, is
    /// `step`'s completion.
    next_arrival: Due,
    /// Sequence number of the most recently scheduled event.
    seq: u64,
    /// Waiting requests, FIFO; preempted requests re-queue at the front.
    queue: VecDeque<Request>,
    /// The continuous batch resident on the GPU, in admission order.
    running: Vec<Request>,
    step: Option<Step>,
    /// KV tokens reserved by the running set (`Σ context()`).
    kv_used: usize,
    // Lifetime conservation counters.
    arrivals_total: u64,
    completions_total: u64,
    dropped_total: u64,
    preemptions_total: u64,
    steps_total: u64,
    events_total: u64,
    /// Prompt tokens materialized, including recompute after preemption.
    prefill_tokens_total: u64,
    /// Decode tokens emitted.
    decode_tokens_total: u64,
    /// Decode tokens carried out by requests that have completed.
    emitted_completed_total: u64,
    /// Stays true while every popped event time is >= its predecessor's.
    monotone: bool,
    last_event_at: f64,
}

impl LlmEngine {
    /// Creates an engine and schedules the first arrival. Length draws
    /// use a stream derived from `seed`, so one seed fixes the whole
    /// request trace.
    ///
    /// # Errors
    /// [`crate::LlmError::BadConfig`] on an invalid model, task spec or
    /// queue capacity.
    pub fn new(
        model: LlmServiceModel,
        spec: LlmTaskSpec,
        queue_capacity: usize,
        seed: u64,
    ) -> Result<Self> {
        model.validate()?;
        spec.validate(&model)?;
        if queue_capacity == 0 {
            return Err(crate::LlmError::BadConfig("queue_capacity must be >= 1"));
        }
        let mut arrivals = ArrivalGen::new(spec.arrival.clone(), seed)?;
        let first = arrivals.next_after(0.0);
        Ok(LlmEngine {
            model,
            spec,
            queue_capacity,
            arrivals,
            len_rng: StdRng::seed_from_u64(seed ^ 0x517c_c1b7_2722_0a95),
            now: 0.0,
            next_arrival: Due { at: first, seq: 1 },
            seq: 1,
            queue: VecDeque::new(),
            running: Vec::new(),
            step: None,
            kv_used: 0,
            arrivals_total: 0,
            completions_total: 0,
            dropped_total: 0,
            preemptions_total: 0,
            steps_total: 0,
            events_total: 0,
            prefill_tokens_total: 0,
            decode_tokens_total: 0,
            emitted_completed_total: 0,
            monotone: true,
            last_event_at: 0.0,
        })
    }

    /// Simulation clock (s).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Queued (not yet admitted) requests.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// KV tokens currently reserved.
    pub fn kv_used_tokens(&self) -> usize {
        self.kv_used
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

    /// Lifetime cache-pressure preemptions.
    pub fn preemptions_total(&self) -> u64 {
        self.preemptions_total
    }

    /// Lifetime scheduler steps executed.
    pub fn steps_total(&self) -> u64 {
        self.steps_total
    }

    /// Lifetime events processed.
    pub fn events_total(&self) -> u64 {
        self.events_total
    }

    /// Lifetime prompt tokens materialized (recompute included).
    pub fn prefill_tokens_total(&self) -> u64 {
        self.prefill_tokens_total
    }

    /// Lifetime decode tokens emitted.
    pub fn decode_tokens_total(&self) -> u64 {
        self.decode_tokens_total
    }

    /// Whether every event processed so far carried a timestamp no
    /// earlier than its predecessor's.
    pub fn timestamps_monotone(&self) -> bool {
        self.monotone
    }

    /// Request conservation: every arrival is completed, dropped,
    /// queued or resident.
    pub fn conserved(&self) -> bool {
        self.arrivals_total
            == self.completions_total
                + self.dropped_total
                + self.queue.len() as u64
                + self.running.len() as u64
    }

    /// Token conservation: every decode token ever emitted is held by a
    /// completed, resident or re-queued request — preemption must not
    /// create or destroy emitted tokens.
    pub fn tokens_conserved(&self) -> bool {
        let live: u64 = self
            .running
            .iter()
            .chain(self.queue.iter())
            .map(|r| r.generated as u64)
            .sum();
        self.decode_tokens_total == self.emitted_completed_total + live
    }

    /// KV accounting invariant: the reservation counter equals the sum
    /// of resident contexts and never exceeds the budget.
    pub fn kv_accounted(&self) -> bool {
        let sum: usize = self.running.iter().map(Request::context).sum();
        self.kv_used == sum && self.kv_used <= self.model.kv_budget_tokens
    }

    /// Scales the arrival intensity (scheduled burst/ebb); takes effect
    /// from the next drawn arrival.
    ///
    /// # Errors
    /// [`crate::LlmError::BadConfig`] on a non-positive scale.
    pub fn set_intensity_scale(&mut self, scale: f64) -> Result<()> {
        self.arrivals.set_intensity_scale(scale)?;
        Ok(())
    }

    /// Stamps an event scheduled for `at` with the next sequence number.
    fn due(&mut self, at: f64) -> Due {
        self.seq += 1;
        Due { at, seq: self.seq }
    }

    /// The earlier of the two pending events.
    fn next_event(&self) -> (f64, EventKind) {
        match &self.step {
            Some(step) if step.done.before(self.next_arrival) => {
                (step.done.at, EventKind::StepDone)
            }
            _ => (self.next_arrival.at, EventKind::Arrival),
        }
    }

    /// Admits queued requests, relieves KV pressure, assembles and
    /// launches the next scheduler step. No-op when there is no work.
    fn schedule_step(&mut self, t: f64, freq: FreqFactors, stats: &mut ServeWindowStats) {
        debug_assert!(self.step.is_none());
        // Admission: FIFO, blocked head-of-line — a request joins when
        // the batch has a slot and its full context fits the cache.
        while self.running.len() < self.model.max_batch {
            let Some(front) = self.queue.front() else {
                break;
            };
            if self.kv_used + front.context() > self.model.kv_budget_tokens {
                break;
            }
            let req = self.queue.pop_front().expect("front checked");
            self.kv_used += req.context();
            self.running.push(req);
        }
        if self.running.is_empty() {
            return;
        }
        // The one pass over the running set: how many requests are
        // decode-ready, the context they hold (the KV tokens a decode pass
        // reads), and the oldest request still owed prefill.
        let (mut ready, mut ready_context, mut first_pending) = (0, 0, None);
        for (i, r) in self.running.iter().enumerate() {
            if r.prefill_remaining() == 0 {
                ready += 1;
                ready_context += r.context();
            } else if first_pending.is_none() {
                first_pending = Some(i);
            }
        }
        // Cache-pressure relief: every decode-ready request grows its
        // context by one this step; preempt the youngest resident until
        // the growth fits (validation guarantees a lone request always
        // does).
        while self.kv_used + ready > self.model.kv_budget_tokens && self.running.len() > 1 {
            let mut victim = self.running.pop().expect("non-empty");
            if victim.prefill_remaining() == 0 {
                ready -= 1;
                ready_context -= victim.context();
            } else if first_pending == Some(self.running.len()) {
                first_pending = None;
            }
            self.kv_used -= victim.context();
            victim.ctx_done = 0;
            self.queue.push_front(victim);
            self.preemptions_total += 1;
            stats.preemptions += 1;
        }
        // Assemble the step: one prompt chunk (the oldest incomplete
        // context) plus a decode token for every context-complete
        // request. A non-empty running set always has one or the other.
        let prefill_tokens = first_pending.map_or(0, |i| {
            self.model
                .chunk_tokens
                .min(self.running[i].prefill_remaining())
        });
        let decoders = ready;
        debug_assert!(prefill_tokens > 0 || decoders > 0);
        let prefill_s = if prefill_tokens > 0 {
            self.model.prefill_s_scaled(prefill_tokens, freq.prefill)
        } else {
            0.0
        };
        let decode_s = if decoders == 0 {
            0.0
        } else {
            self.model.decode_step_s_scaled(ready_context, freq.decode)
        };
        let total = self.model.step_overhead_s + prefill_s + decode_s;
        let prefill_frac = prefill_s / (prefill_s + decode_s);
        self.steps_total += 1;
        self.step = Some(Step {
            started_at: t,
            done: self.due(t + total),
            prefill_req: first_pending,
            prefill_tokens,
            decoders,
            prefill_frac,
        });
    }

    /// Applies a completed step: materialized prefill, emitted tokens,
    /// completions, and the per-phase busy split.
    fn finish_step(&mut self, window_start: f64, stats: &mut ServeWindowStats) {
        let step = self.step.take().expect("step-done event implies a step");
        let done = step.done.at;
        let dur = done - step.started_at.max(window_start);
        stats.prefill_busy_s += step.prefill_frac * dur;
        stats.decode_busy_s += (1.0 - step.prefill_frac) * dur;
        // The decoders are the decode-ready requests, as when the step was
        // assembled: `running` has not changed since, and this step's
        // prefill lands only below.
        let mut completed = false;
        if step.decoders > 0 {
            let mut decoded = 0;
            for r in self
                .running
                .iter_mut()
                .filter(|r| r.prefill_remaining() == 0)
            {
                // The decode step writes the new token's KV entry as a side
                // effect of the attention pass: context and materialized
                // context grow together, so the request stays decode-ready.
                r.generated += 1;
                r.ctx_done += 1;
                if r.ttft_recorded {
                    stats.inter_token_s.push(done - r.last_token_at);
                } else {
                    stats.ttft_s.push(done - r.arrived_at);
                    r.ttft_recorded = true;
                }
                r.last_token_at = done;
                completed |= r.generated == r.output;
                decoded += 1;
            }
            debug_assert_eq!(decoded, step.decoders);
            self.kv_used += step.decoders;
            self.decode_tokens_total += step.decoders as u64;
            stats.decode_tokens += step.decoders;
        }
        if let Some(i) = step.prefill_req {
            let r = &mut self.running[i];
            debug_assert!(step.prefill_tokens <= r.prefill_remaining());
            r.ctx_done += step.prefill_tokens;
            self.prefill_tokens_total += step.prefill_tokens as u64;
            stats.prefill_tokens += step.prefill_tokens;
        }
        stats.batches += 1;
        stats
            .batch_sizes
            .push(step.decoders + usize::from(step.prefill_req.is_some()));
        // Only a request that just decoded can have reached its output
        // budget.
        if !completed {
            return;
        }
        let mut freed = 0;
        let completions = &mut self.completions_total;
        let emitted = &mut self.emitted_completed_total;
        self.running.retain(|r| {
            if r.generated == r.output {
                freed += r.context();
                stats.completions += 1;
                stats.request_latencies.push(done - r.arrived_at);
                *completions += 1;
                *emitted += r.generated as u64;
                false
            } else {
                true
            }
        });
        self.kv_used -= freed;
    }

    /// Advances the engine by `window_s` seconds with the effective core
    /// frequency `f_eff_mhz` in force, writing the window's statistics
    /// into `stats` (cleared first; its buffers are recycled). Steps
    /// launched during the window use the window's frequency; a step
    /// already in flight keeps the duration it was launched with.
    pub fn advance_into(&mut self, window_s: f64, f_eff_mhz: f64, stats: &mut ServeWindowStats) {
        debug_assert!(window_s > 0.0 && f_eff_mhz > 0.0);
        let start = self.now;
        let end = start + window_s;
        stats.clear_for_window(window_s);

        let freq = FreqFactors {
            prefill: self.model.prefill_freq_factor(f_eff_mhz),
            decode: self.model.decode_freq_factor(f_eff_mhz),
        };

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
                    // Lengths are drawn for every arrival, admitted or
                    // shed, so the trace is a pure function of the seed.
                    let prompt = self.spec.prompt.sample(&mut self.len_rng);
                    let output = self.spec.output.sample(&mut self.len_rng);
                    if self.queue.len() >= self.queue_capacity {
                        self.dropped_total += 1;
                        stats.dropped += 1;
                    } else {
                        self.queue.push_back(Request {
                            arrived_at: at,
                            prompt,
                            output,
                            ctx_done: 0,
                            generated: 0,
                            ttft_recorded: false,
                            last_token_at: at,
                        });
                        if self.step.is_none() {
                            self.schedule_step(at, freq, stats);
                        }
                    }
                }
                EventKind::StepDone => {
                    self.finish_step(start, stats);
                    self.schedule_step(at, freq, stats);
                }
            }
        }

        // Partial busy time of a step still in flight at window end.
        if let Some(s) = &self.step {
            let dur = end.min(s.done.at) - s.started_at.max(start);
            stats.prefill_busy_s += s.prefill_frac * dur;
            stats.decode_busy_s += (1.0 - s.prefill_frac) * dur;
        }
        self.now = end;
        stats.busy_fraction = ((stats.prefill_busy_s + stats.decode_busy_s) / window_s).min(1.0);
        stats.queue_len_end = self.queue.len();
        stats.kv_used_tokens_end = self.kv_used;
        stats.kv_budget_tokens = self.model.kv_budget_tokens;
    }

    /// Allocating convenience wrapper over
    /// [`LlmEngine::advance_into`].
    pub fn advance(&mut self, window_s: f64, f_eff_mhz: f64) -> ServeWindowStats {
        let mut stats = ServeWindowStats::default();
        self.advance_into(window_s, f_eff_mhz, &mut stats);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TokenRange;
    use capgpu_serve::ArrivalProcess;

    fn model() -> LlmServiceModel {
        LlmServiceModel {
            f_max_mhz: 1380.0,
            prefill_tok_s: 8000.0,
            gamma_prefill: 0.95,
            decode_base_s: 0.02,
            decode_kv_coeff_s: 1.5e-7,
            gamma_decode: 0.2,
            step_overhead_s: 5e-4,
            max_batch: 32,
            kv_budget_tokens: 60_000,
            chunk_tokens: 512,
            gpu_util_prefill: 0.95,
            gpu_util_decode: 0.55,
        }
    }

    fn spec(rate: f64) -> LlmTaskSpec {
        LlmTaskSpec {
            arrival: ArrivalProcess::Poisson { rate_rps: rate },
            prompt: TokenRange { lo: 200, hi: 600 },
            output: TokenRange { lo: 40, hi: 120 },
            ttft_slo_s: 0.6,
            itl_slo_s: 0.08,
        }
    }

    fn engine(rate: f64, seed: u64) -> LlmEngine {
        LlmEngine::new(model(), spec(rate), 256, seed).unwrap()
    }

    #[test]
    fn underload_completes_requests_and_conserves() {
        let mut e = engine(1.5, 7);
        let mut arrivals = 0;
        let mut completions = 0;
        for _ in 0..240 {
            let s = e.advance(1.0, 1380.0);
            arrivals += s.arrivals;
            completions += s.completions;
            assert!(e.conserved(), "request conservation broke");
            assert!(e.tokens_conserved(), "token conservation broke");
            assert!(e.kv_accounted(), "kv accounting broke");
        }
        assert!(arrivals > 250, "arrivals {arrivals}");
        assert!(
            arrivals - completions < 20,
            "{arrivals} vs {completions} completed"
        );
        assert_eq!(e.dropped_total(), 0);
        assert!(e.timestamps_monotone());
    }

    #[test]
    fn ttft_and_itl_samples_flow() {
        let mut e = engine(1.5, 11);
        let mut ttft = 0;
        let mut itl = 0;
        let mut decoded = 0u64;
        for _ in 0..120 {
            let s = e.advance(1.0, 1380.0);
            ttft += s.ttft_s.len();
            itl += s.inter_token_s.len();
            decoded += s.decode_tokens as u64;
            for &t in &s.ttft_s {
                assert!(t > 0.0);
            }
            for &g in &s.inter_token_s {
                assert!(g > 0.0);
            }
        }
        // Every decode token is exactly one TTFT or one ITL sample.
        assert_eq!(ttft as u64 + itl as u64, decoded);
        assert_eq!(decoded, e.decode_tokens_total());
        assert!(ttft > 50 && itl > 1000);
    }

    #[test]
    fn continuous_batching_keeps_decode_flowing_under_chunking() {
        // At a rate where prefills keep arriving, chunked mode still
        // emits decode tokens in nearly every step window.
        let mut e = engine(3.0, 13);
        for _ in 0..30 {
            e.advance(1.0, 1380.0);
        }
        let s = e.advance(10.0, 1380.0);
        assert!(s.prefill_tokens > 0 && s.decode_tokens > 0);
        assert!(s.prefill_busy_s > 0.0 && s.decode_busy_s > 0.0);
        assert!(s.busy_fraction > 0.5);
    }

    #[test]
    fn kv_pressure_preempts_and_recovers() {
        // Tiny cache: two mid-size requests cannot both finish resident.
        let mut m = model();
        m.kv_budget_tokens = 900;
        m.max_batch = 8;
        let sp = LlmTaskSpec {
            arrival: ArrivalProcess::Poisson { rate_rps: 4.0 },
            prompt: TokenRange { lo: 300, hi: 400 },
            output: TokenRange { lo: 200, hi: 400 },
            ttft_slo_s: 2.0,
            itl_slo_s: 0.2,
        };
        let mut e = LlmEngine::new(m, sp, 64, 17).unwrap();
        let mut preemptions = 0;
        for _ in 0..300 {
            let s = e.advance(1.0, 1380.0);
            preemptions += s.preemptions;
            assert!(e.kv_accounted(), "kv exceeded budget or drifted");
            assert!(e.tokens_conserved(), "preemption lost emitted tokens");
            assert!(e.conserved());
        }
        assert!(preemptions > 0, "tiny cache never preempted");
        // The cache bounds the batch to ~2 residents, so throughput is
        // KV-bound — but the oldest resident must keep finishing.
        assert!(e.completions_total() > 30, "pressure stalled the engine");
    }

    #[test]
    fn prefill_slows_with_frequency_decode_barely_does() {
        // Prefill-heavy workload: long prompts, one-token outputs.
        let share_and_tps = |prompt: TokenRange, output: TokenRange, f: f64| {
            let m = model();
            let sp = LlmTaskSpec {
                arrival: ArrivalProcess::Poisson { rate_rps: 1.0 },
                prompt,
                output,
                ttft_slo_s: 5.0,
                itl_slo_s: 1.0,
            };
            let mut e = LlmEngine::new(m, sp, 256, 23).unwrap();
            let mut pre = 0.0;
            let mut dec = 0.0;
            let mut toks = 0usize;
            for _ in 0..200 {
                let s = e.advance(1.0, f);
                pre += s.prefill_busy_s;
                dec += s.decode_busy_s;
                toks += s.prefill_tokens + s.decode_tokens;
            }
            (pre / (pre + dec), toks as f64 / 200.0)
        };
        let long_prompt = TokenRange { lo: 2000, hi: 3000 };
        let short_out = TokenRange { lo: 2, hi: 4 };
        let (share_fast, _) = share_and_tps(long_prompt, short_out, 1380.0);
        assert!(share_fast > 0.8, "prefill share {share_fast}");
        // Decode-heavy workload keeps a low prefill share.
        let short_prompt = TokenRange { lo: 30, hi: 60 };
        let long_out = TokenRange { lo: 250, hi: 400 };
        let (share_dec, tps_dec_fast) = share_and_tps(short_prompt, long_out, 1380.0);
        assert!(share_dec < 0.2, "prefill share {share_dec}");
        // Halving frequency barely dents decode-side token throughput.
        let (_, tps_dec_slow) = share_and_tps(short_prompt, long_out, 690.0);
        assert!(
            tps_dec_slow > 0.8 * tps_dec_fast,
            "decode throughput fell {tps_dec_fast} -> {tps_dec_slow}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = |seed| {
            let mut e = engine(2.0, seed);
            let mut sig = Vec::new();
            for k in 0..90 {
                let f = if k % 2 == 0 { 1380.0 } else { 900.0 };
                let s = e.advance(1.0, f);
                sig.push((
                    s.arrivals,
                    s.completions,
                    s.prefill_tokens,
                    s.decode_tokens,
                    s.ttft_s.clone(),
                    s.inter_token_s.clone(),
                ));
            }
            (sig, e.events_total(), e.kv_used_tokens())
        };
        assert_eq!(run(23), run(23));
        assert_ne!(run(23).0, run(24).0);
    }

    #[test]
    fn simultaneous_arrival_and_step_completion_resolve_in_scheduling_order() {
        // Every time below is exactly representable: at f_eff = f_max
        // both frequency factors are 1, a 2-token prompt prefills in
        // 0.25 s, a step costs 0.25 s of overhead and a decode pass 0.5 s.
        let m = LlmServiceModel {
            f_max_mhz: 1000.0,
            prefill_tok_s: 8.0,
            decode_base_s: 0.5,
            decode_kv_coeff_s: 0.0,
            step_overhead_s: 0.25,
            max_batch: 4,
            kv_budget_tokens: 100,
            ..model()
        };
        let sp = LlmTaskSpec {
            arrival: ArrivalProcess::Poisson { rate_rps: 1e-3 },
            prompt: TokenRange::fixed(2),
            output: TokenRange::fixed(2),
            ttft_slo_s: 5.0,
            itl_slo_s: 5.0,
        };
        let mut e = LlmEngine::new(m, sp, 8, 1).unwrap();
        // Poisson draws never tie, so each window first moves the pending
        // arrival to a chosen time, keeping the sequence number the engine
        // stamped on it when it was drawn. Arrivals land at 1.0 (A) and
        // 1.5 (B); the third is pushed past the horizon.
        let mut windows = Vec::new();
        for (arrival_at, until) in [(1.0, 1.0), (1.5, 1.5), (1000.0, 5.0)] {
            e.next_arrival.at = arrival_at;
            windows.push(e.advance(until - e.now(), 1000.0));
        }
        // Handling A at 1.0 draws B's arrival and *then* launches A's
        // prefill step, done at 1.0 + 0.25 + 0.25 = 1.5 as well. B's
        // arrival was scheduled first, so it is handled first and B is
        // queued when the completion launches the next step: that step
        // prefills B beside A's first decode (1.0 s, done 2.5), the one
        // after decodes both (0.75 s, done 3.25). Handled the other way
        // round, A would decode alone and see its first token at 2.25.
        let s = &windows[2];
        assert_eq!(s.ttft_s, vec![2.5 - 1.0, 3.25 - 1.5]);
        assert_eq!(s.inter_token_s, vec![0.75, 0.75]);
        assert_eq!(s.request_latencies, vec![3.25 - 1.0, 4.0 - 1.5]);
        let total = |f: fn(&ServeWindowStats) -> usize| windows.iter().map(f).sum::<usize>();
        assert_eq!(total(|w| w.arrivals), 2);
        assert_eq!(total(|w| w.completions), 2);
        assert_eq!(total(|w| w.batches), 4);
        assert!(e.timestamps_monotone());
    }

    #[test]
    fn overload_saturates_and_sheds() {
        let mut e = LlmEngine::new(model(), spec(200.0), 64, 29).unwrap();
        let mut last = ServeWindowStats::default();
        for _ in 0..60 {
            e.advance_into(1.0, 1380.0, &mut last);
        }
        assert!(last.busy_fraction > 0.95, "{}", last.busy_fraction);
        assert!(e.dropped_total() > 0, "queue never filled");
        assert!(e.conserved());
    }

    #[test]
    fn burst_scale_shifts_load() {
        let mut e = engine(1.0, 31);
        let mut before = 0;
        for _ in 0..60 {
            before += e.advance(1.0, 1380.0).arrivals;
        }
        e.set_intensity_scale(4.0).unwrap();
        let mut after = 0;
        for _ in 0..60 {
            after += e.advance(1.0, 1380.0).arrivals;
        }
        assert!(
            after as f64 > 2.5 * before as f64,
            "before {before} after {after}"
        );
    }
}
