//! Nested wall-clock spans for the control loop.
//!
//! A [`SpanStack`] times nested scopes — the runner wraps each control
//! period in a `period` span containing `sense`/`identify`/`solve`/
//! `actuate`/`serve-drain` children — and accumulates per-phase totals.
//! Phases are pre-registered to a [`SpanId`] so `enter`/`exit` on the
//! hot path is an index push/pop plus one `Instant` read (the pair is
//! held under 500 ns by the `perf_snapshot` bin).
//!
//! Wall-clock nanoseconds are inherently non-deterministic: span data
//! must never feed a published number or a bit-identity-compared
//! artifact. Reports render them in a clearly separated section.

use std::fmt::Write as _;
use std::time::Instant;

/// Handle to a registered span phase (cheap `Copy` index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Slot {
    name: String,
    /// Stack depth observed at the phase's first entry, for report
    /// indentation.
    depth: usize,
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

/// A stack of nested timed scopes with per-phase accumulators.
#[derive(Debug, Clone, Default)]
pub struct SpanStack {
    slots: Vec<Slot>,
    active: Vec<(usize, Instant)>,
}

impl SpanStack {
    /// An empty stack.
    pub fn new() -> Self {
        SpanStack::default()
    }

    /// Register (or look up) a phase by name. Cold path.
    pub fn span(&mut self, name: &str) -> SpanId {
        if let Some(i) = self.slots.iter().position(|s| s.name == name) {
            return SpanId(i);
        }
        self.slots.push(Slot {
            name: name.to_string(),
            depth: usize::MAX,
            count: 0,
            total_ns: 0,
            max_ns: 0,
        });
        SpanId(self.slots.len() - 1)
    }

    /// Open a scope for `id`. Pairs with [`exit`](SpanStack::exit).
    #[inline]
    pub fn enter(&mut self, id: SpanId) {
        let slot = &mut self.slots[id.0];
        if slot.depth == usize::MAX {
            slot.depth = self.active.len();
        }
        self.active.push((id.0, Instant::now()));
    }

    /// Close the innermost open scope, folding its elapsed wall time
    /// into the phase accumulator and returning it (ns). No-op (0) on
    /// an empty stack.
    #[inline]
    pub fn exit(&mut self) -> u64 {
        if let Some((idx, start)) = self.active.pop() {
            let ns = start.elapsed().as_nanos() as u64;
            let slot = &mut self.slots[idx];
            slot.count += 1;
            slot.total_ns += ns;
            slot.max_ns = slot.max_ns.max(ns);
            ns
        } else {
            0
        }
    }

    /// Freeze the accumulated per-phase statistics.
    pub fn summary(&self) -> SpanSummary {
        SpanSummary {
            phases: self
                .slots
                .iter()
                .filter(|s| s.count > 0)
                .map(|s| SpanStat {
                    name: s.name.clone(),
                    depth: if s.depth == usize::MAX { 0 } else { s.depth },
                    count: s.count,
                    total_ns: s.total_ns,
                    max_ns: s.max_ns,
                })
                .collect(),
        }
    }
}

/// Accumulated statistics for one span phase.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Phase name.
    pub name: String,
    /// Nesting depth at first entry (0 = outermost).
    pub depth: usize,
    /// Number of completed scopes.
    pub count: u64,
    /// Total wall time across all scopes (ns).
    pub total_ns: u64,
    /// Longest single scope (ns).
    pub max_ns: u64,
}

impl SpanStat {
    /// Mean wall time per scope (ns).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Per-run span summary, phases in registration order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpanSummary {
    /// One entry per phase that completed at least one scope.
    pub phases: Vec<SpanStat>,
}

impl SpanSummary {
    /// Render an indented wall-clock table. Callers must keep this out
    /// of deterministic artifacts (the timings vary run to run).
    pub fn to_report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "span summary (wall clock, non-deterministic)");
        let width = self
            .phases
            .iter()
            .map(|p| 2 * p.depth + p.name.len())
            .max()
            .unwrap_or(0);
        for p in &self.phases {
            let indent = "  ".repeat(p.depth);
            let key = format!("{indent}{}", p.name);
            let _ = writeln!(
                out,
                "  {key:<width$}  count={:<6} total={:>10} ns  mean={:>9.1} ns  max={:>8} ns",
                p.count,
                p.total_ns,
                p.mean_ns(),
                p.max_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_accumulates_per_phase() {
        let mut spans = SpanStack::new();
        let period = spans.span("period");
        let solve = spans.span("solve");
        for _ in 0..3 {
            spans.enter(period);
            spans.enter(solve);
            spans.exit();
            spans.exit();
        }
        assert!(spans.active.is_empty());
        let sum = spans.summary();
        let p = sum.phases.iter().find(|p| p.name == "period").unwrap();
        let s = sum.phases.iter().find(|p| p.name == "solve").unwrap();
        assert_eq!((p.count, p.depth), (3, 0));
        assert_eq!((s.count, s.depth), (3, 1));
        // A parent scope encloses its children's wall time.
        assert!(p.total_ns >= s.total_ns);
        assert!(p.max_ns >= s.max_ns / 3);
        let report = sum.to_report();
        assert!(report.contains("period"));
        assert!(report.contains("  solve"));
    }

    #[test]
    fn exit_on_empty_stack_is_a_noop() {
        let mut spans = SpanStack::new();
        assert_eq!(spans.exit(), 0);
        assert_eq!(spans.summary().phases.len(), 0);
    }
}
