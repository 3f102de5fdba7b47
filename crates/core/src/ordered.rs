//! The one ordered-fold executor behind every parallel loop in the
//! workspace (both sweep executors and the fleet simulator's epoch).
//!
//! `work(i)` runs for `i` in `0..n` on up to `threads` OS threads, claimed
//! from an atomic index; `fold(i, value)` runs strictly in index order, on
//! whichever worker closes the gap at the fold frontier. Finished values
//! ahead of the frontier wait in a pending buffer, and a worker may only
//! *start* index `i` while `i < frontier + window`, which bounds that
//! buffer by `window`. The worker holding the frontier index is never
//! gated, so the frontier always advances.
//!
//! Because `fold` sees the values in the order a plain `for` loop would,
//! anything it accumulates (float sums, telemetry merges, pushes) is
//! bit-identical for every thread count and window.
//!
//! The first `Err` from `work` or `fold` aborts the run: no further index
//! is started or folded and that error is returned. A panic in either
//! closure also aborts — gated workers are released — and then propagates
//! to the caller out of the thread scope.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

use crate::{CapGpuError, Result};

/// The reorder window every production caller passes for a bounded fold:
/// `2·threads + 16` finished-but-unfolded values.
pub fn default_reorder_window(threads: usize) -> usize {
    2 * threads.max(1) + 16
}

/// What a finished [`ordered_fold`] reports about its own scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoldStats {
    /// Largest number of values the pending buffer ever held (the value
    /// being folded counts); never exceeds the window.
    pub peak_pending: usize,
}

struct Shared<T, F> {
    /// The fold frontier: the next index `fold` will see.
    next: usize,
    pending: BTreeMap<usize, T>,
    peak_pending: usize,
    fold: F,
    error: Option<CapGpuError>,
    abort: bool,
}

/// A peer that panicked while folding poisons the lock; the workers that
/// find it so panic in turn and the scope re-raises once all have stopped.
const POISONED: &str = "a fold worker panicked";

/// Releases the gated workers if the worker that owns it unwinds.
struct AbortOnUnwind<'a, T, F> {
    shared: &'a Mutex<Shared<T, F>>,
    gate: &'a Condvar,
}

impl<T, F> Drop for AbortOnUnwind<'_, T, F> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Setting a flag leaves `Shared` valid whatever state the
            // panic left it in, so a poisoned lock is recovered.
            self.shared
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .abort = true;
            self.gate.notify_all();
        }
    }
}

/// Runs `work` over `0..n` on up to `threads` threads and `fold`s the
/// results in index order, keeping at most `window` results pending (see
/// the module docs). `threads` and `window` are clamped to at least 1.
///
/// # Errors
/// The first error returned by `work` or `fold`.
///
/// # Panics
/// Re-raises a panic from `work` or `fold` once every worker has stopped.
pub fn ordered_fold<T, W, F>(
    n: usize,
    threads: usize,
    window: usize,
    work: W,
    fold: F,
) -> Result<FoldStats>
where
    T: Send,
    W: Fn(usize) -> Result<T> + Sync,
    F: FnMut(usize, T) -> Result<()> + Send,
{
    let window = window.max(1);
    let shared = Mutex::new(Shared {
        next: 0,
        pending: BTreeMap::new(),
        peak_pending: 0,
        fold,
        error: None,
        abort: false,
    });
    let gate = Condvar::new();
    let claim = AtomicUsize::new(0);
    let fail = |st: &mut Shared<T, F>, e: CapGpuError| {
        st.error.get_or_insert(e);
        st.abort = true;
        gate.notify_all();
    };

    std::thread::scope(|scope| {
        for _ in 0..threads.max(1).min(n) {
            scope.spawn(|| {
                let _release = AbortOnUnwind {
                    shared: &shared,
                    gate: &gate,
                };
                loop {
                    // Relaxed: the index publishes nothing but itself.
                    let i = claim.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    {
                        let mut st = shared.lock().expect(POISONED);
                        while !st.abort && st.next + window <= i {
                            st = gate.wait(st).expect(POISONED);
                        }
                        if st.abort {
                            break;
                        }
                    }
                    let value = work(i);
                    let mut st = shared.lock().expect(POISONED);
                    if st.abort {
                        break;
                    }
                    match value {
                        Ok(v) => {
                            st.pending.insert(i, v);
                            st.peak_pending = st.peak_pending.max(st.pending.len());
                            loop {
                                let at = st.next;
                                let Some(ready) = st.pending.remove(&at) else {
                                    break;
                                };
                                if let Err(e) = (st.fold)(at, ready) {
                                    fail(&mut st, e);
                                    break;
                                }
                                st.next += 1;
                            }
                            gate.notify_all();
                        }
                        Err(e) => fail(&mut st, e),
                    }
                }
            });
        }
    });

    let st = shared
        .into_inner()
        .expect("scope re-raises worker panics before this");
    match st.error {
        Some(e) => Err(e),
        None => {
            debug_assert_eq!(st.next, n, "every index folded");
            Ok(FoldStats {
                peak_pending: st.peak_pending,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    fn bad(msg: &str) -> CapGpuError {
        CapGpuError::BadConfig(msg.into())
    }

    #[test]
    fn folds_in_index_order_within_the_window() {
        let n = 97;
        for threads in [1, 2, 4, 8] {
            for window in [1, 2, default_reorder_window(threads), n] {
                let mut seen = Vec::new();
                let stats = ordered_fold(
                    n,
                    threads,
                    window,
                    |i| Ok(i * i),
                    |i, v| {
                        seen.push((i, v));
                        Ok(())
                    },
                )
                .expect("fold");
                let expect: Vec<_> = (0..n).map(|i| (i, i * i)).collect();
                assert_eq!(seen, expect, "threads {threads} window {window}");
                assert!(
                    (1..=window).contains(&stats.peak_pending),
                    "threads {threads} window {window}: peak {}",
                    stats.peak_pending
                );
            }
        }
    }

    #[test]
    fn empty_range_returns_without_calling_anything() {
        let stats = ordered_fold(
            0,
            4,
            1,
            |_| -> Result<()> { panic!("work on an empty range") },
            |_, ()| panic!("fold on an empty range"),
        )
        .expect("empty fold");
        assert_eq!(stats.peak_pending, 0);
    }

    #[test]
    fn work_error_is_returned_and_stops_the_fold_at_the_frontier() {
        let k = 20;
        for threads in [1, 2, 4, 8] {
            for window in [1, 3, 64] {
                let mut folded = Vec::new();
                let err = ordered_fold(
                    64,
                    threads,
                    window,
                    |i| if i == k { Err(bad("work")) } else { Ok(i) },
                    |i, _| {
                        folded.push(i);
                        Ok(())
                    },
                )
                .expect_err("index k fails");
                assert!(matches!(err, CapGpuError::BadConfig(m) if m == "work"));
                // A gap-free prefix that stops short of the failed index.
                assert!(folded.len() <= k, "threads {threads} window {window}");
                assert!(folded.iter().copied().eq(0..folded.len()));
            }
        }
    }

    #[test]
    fn fold_error_is_returned_and_nothing_past_it_is_folded() {
        let k = 11;
        for threads in [1, 2, 4, 8] {
            let mut folded = Vec::new();
            let err = ordered_fold(64, threads, 8, Ok, |i, _| {
                if i == k {
                    return Err(bad("fold"));
                }
                folded.push(i);
                Ok(())
            })
            .expect_err("fold fails at k");
            assert!(matches!(err, CapGpuError::BadConfig(m) if m == "fold"));
            assert!(folded.iter().copied().eq(0..k), "threads {threads}");
        }
    }

    #[test]
    fn first_of_several_errors_wins() {
        // Serial execution makes "first" unambiguous: index 3 fails before
        // index 5 is ever started.
        let err = ordered_fold(
            8,
            1,
            1,
            |i| match i {
                3 => Err(bad("three")),
                5 => Err(bad("five")),
                _ => Ok(()),
            },
            |_, ()| Ok(()),
        )
        .expect_err("fails");
        assert!(matches!(err, CapGpuError::BadConfig(m) if m == "three"));
    }

    #[test]
    fn panicking_worker_unwinds_instead_of_hanging() {
        // Index 0 is the frontier and never completes; with window 1 the
        // workers holding 1, 2 and 3 are gated on it whichever side gets
        // there first, so only the unwind guard can release them.
        let (done, outcome) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            let unwound = std::panic::catch_unwind(|| {
                ordered_fold(
                    64,
                    4,
                    1,
                    |i| {
                        if i == 0 {
                            panic!("frontier worker died");
                        }
                        Ok(i)
                    },
                    |_, _| Ok(()),
                )
            })
            .is_err();
            let _ = done.send(unwound);
        });
        assert_eq!(
            outcome.recv_timeout(Duration::from_secs(20)),
            Ok(true),
            "ordered_fold must unwind, not hang, when a worker panics"
        );
        helper.join().expect("helper thread");
    }
}
