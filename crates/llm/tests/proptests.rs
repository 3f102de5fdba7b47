//! Property tests for the continuous-batching LLM engine: request and
//! token conservation at every window boundary, KV occupancy bounded by
//! the budget, and bit-identical replay per seed.

use capgpu_llm::{LlmEngine, LlmServiceModel, LlmTaskSpec, TokenRange};
use capgpu_serve::ArrivalProcess;
use proptest::prelude::*;

/// Per-window replay signature: (arrivals, completions, prefill tokens,
/// decode tokens, TTFT samples, inter-token samples).
type WindowSig = (usize, usize, usize, usize, Vec<f64>, Vec<f64>);

fn model(kv_budget: usize, max_batch: usize, chunk: usize) -> LlmServiceModel {
    LlmServiceModel {
        f_max_mhz: 1380.0,
        prefill_tok_s: 8000.0,
        gamma_prefill: 0.95,
        decode_base_s: 0.02,
        decode_kv_coeff_s: 1.5e-7,
        gamma_decode: 0.2,
        step_overhead_s: 5e-4,
        max_batch,
        kv_budget_tokens: kv_budget,
        chunk_tokens: chunk,
        gpu_util_prefill: 0.95,
        gpu_util_decode: 0.55,
    }
}

fn spec(rate: f64, prompt_hi: usize, output_hi: usize) -> LlmTaskSpec {
    LlmTaskSpec {
        arrival: ArrivalProcess::Poisson { rate_rps: rate },
        prompt: TokenRange {
            lo: (prompt_hi / 4).max(1),
            hi: prompt_hi,
        },
        output: TokenRange {
            lo: (output_hi / 4).max(1),
            hi: output_hi,
        },
        ttft_slo_s: 2.0,
        itl_slo_s: 0.2,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conservation_and_kv_bounds_hold_at_every_window(
        rate in 0.5..6.0f64,
        prompt_hi in 50usize..1500,
        output_hi in 4usize..300,
        max_batch in 1usize..24,
        chunk in 1usize..1024,
        slack in 1usize..2000,
        seed in 0u64..1000,
        f_lo in 500.0..900.0f64,
        f_hi in 900.0..1380.0f64,
    ) {
        // The budget always admits the largest possible request (the
        // deadlock-freedom validation bound) plus a random slack, so
        // cache pressure ranges from constant thrash to none.
        let kv_budget = prompt_hi + output_hi + slack;
        let mut engine = LlmEngine::new(
            model(kv_budget, max_batch, chunk),
            spec(rate, prompt_hi, output_hi),
            128,
            seed,
        ).unwrap();
        for k in 0..40 {
            let f = if k % 2 == 0 { f_hi } else { f_lo };
            let s = engine.advance(1.0, f);
            // Request conservation: arrivals == completions + dropped +
            // queued + resident, at every window boundary.
            prop_assert!(engine.conserved(), "window {k}");
            // Token conservation: emitted tokens are never created or
            // destroyed by preemption/recompute.
            prop_assert!(engine.tokens_conserved(), "window {k}");
            // KV occupancy equals the resident-context sum and never
            // exceeds the budget.
            prop_assert!(engine.kv_accounted(), "window {k}");
            prop_assert!((0.0..=1.0).contains(&s.busy_fraction));
            prop_assert!(s.kv_used_tokens_end <= kv_budget);
            prop_assert_eq!(s.kv_budget_tokens, kv_budget);
            prop_assert_eq!(s.request_latencies.len(), s.completions);
            prop_assert!(s.prefill_busy_s + s.decode_busy_s <= s.window_s + 1e-9);
            for t in s.ttft_s.iter().chain(&s.inter_token_s) {
                prop_assert!(*t > 0.0 && t.is_finite());
            }
        }
        prop_assert!(engine.timestamps_monotone());
        prop_assert!(engine.events_total() > 0);
    }

    #[test]
    fn prompt_and_generated_tokens_account_exactly(
        rate in 0.5..4.0f64,
        seed in 0u64..1000,
        chunk in 1usize..512,
    ) {
        // With a roomy cache there are no preemptions, so lifetime
        // prefill work equals the prompt lengths of requests that
        // reached the GPU — checked via the per-window counters.
        let mut engine = LlmEngine::new(
            model(200_000, 16, chunk),
            spec(rate, 600, 120),
            256,
            seed,
        ).unwrap();
        let mut prefill = 0u64;
        let mut decode = 0u64;
        for _ in 0..40 {
            let s = engine.advance(1.0, 1200.0);
            prefill += s.prefill_tokens as u64;
            decode += s.decode_tokens as u64;
        }
        prop_assert_eq!(engine.preemptions_total(), 0);
        prop_assert_eq!(prefill, engine.prefill_tokens_total());
        prop_assert_eq!(decode, engine.decode_tokens_total());
        prop_assert!(engine.tokens_conserved());
    }

    #[test]
    fn same_seed_replays_bit_identical(
        rate in 0.5..4.0f64,
        kv_budget in 2000usize..20_000,
        seed in 0u64..1000,
    ) {
        let run = || {
            let mut engine = LlmEngine::new(
                model(kv_budget, 16, 256),
                spec(rate, 800, 200),
                128,
                seed,
            ).unwrap();
            let mut sig: Vec<WindowSig> = Vec::new();
            for k in 0..25 {
                let f = if k % 3 == 0 { 700.0 } else { 1300.0 };
                let s = engine.advance(1.0, f);
                sig.push((
                    s.arrivals,
                    s.completions,
                    s.prefill_tokens,
                    s.decode_tokens,
                    s.ttft_s,
                    s.inter_token_s,
                ));
            }
            (sig, engine.events_total(), engine.kv_used_tokens())
        };
        let a = run();
        let b = run();
        // Bit-identical: exact f64 equality on every token latency.
        prop_assert_eq!(a, b);
    }
}
