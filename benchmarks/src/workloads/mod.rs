//! The five workloads. Each runs in a process of its own (so peak RSS
//! and set-up time are per workload), is a closed loop in simulated
//! time — the next period starts when the previous one returns, no
//! wall-clock pacing — and hands the program nothing but inputs
//! generated from `--seed`.
//!
//! A run times its period loop in equal segments at `--seed`, with a
//! fresh set-up timed after every segment so that the set-up samples
//! are spread over the whole run. Next to it every workload runs a
//! short *reference pass* at a fixed seed and size, twice: the simulated
//! metrics come from it, so they repeat to the bit from run to run and
//! from commit to commit unless the simulation itself changed.
//!
//! Work is a fixed function of `--seconds` (sized so that a run lasts
//! about that long on the reference host), never of elapsed time: the
//! memory high-water mark then depends on the seed and the size alone,
//! and faster code does not fit more periods into a run.

pub mod daemon;
pub mod fleet;
pub mod journal;
pub mod runner;

use crate::host::Scratch;
use crate::report::Outcome;

/// Host seconds a round spends timing fresh set-ups (at least one is
/// timed whatever it costs): a set-up far below a millisecond is
/// sampled many times per round, a slow one once.
const FRESH_BUDGET_S: f64 = 0.003;

/// Parsed run arguments.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub seed: u64,
    pub seconds: u64,
    /// `--trace 1`: print the per-layer ledger instead of the
    /// end-to-end metrics.
    pub traced: bool,
    /// `--quick`: about 1/20 of the periods per segment, same code
    /// paths. Smoke use only — results are not comparable.
    pub quick: bool,
}

impl Args {
    /// Measured segments for a workload that wants `per_10s` of them in
    /// a ten-second run: scaled with `--seconds`, never fewer than
    /// twelve.
    pub fn segments(&self, per_10s: usize) -> usize {
        ((per_10s as u64 * self.seconds + 5) / 10).max(12) as usize
    }

    /// `n` periods, or about a twentieth under `--quick`.
    pub fn periods(&self, n: usize) -> usize {
        if self.quick {
            (n / 20).max(1)
        } else {
            n
        }
    }
}

/// Error text of a program call that returned `Err`. The workloads are
/// chosen so that none does; one that does aborts the run.
pub type RunResult<T> = Result<T, String>;

pub fn err_text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Times `build` — something built from nothing: a set-up, a restart —
/// at least once and until the round's budget is spent, pushing the
/// host seconds of each build onto `samples`. Returns the last thing
/// built. Called once per round, so that a figure's samples are spread
/// over the whole run and a few seconds of interference cannot cover
/// them all.
pub fn sample_fresh<T>(
    samples: &mut Vec<f64>,
    mut build: impl FnMut() -> RunResult<T>,
) -> RunResult<T> {
    let mut spent = 0.0;
    loop {
        let (secs, built) = crate::host::timed(&mut build);
        samples.push(secs);
        spent += secs;
        let built = built?;
        if spent >= FRESH_BUDGET_S {
            return Ok(built);
        }
    }
}

/// Runs the named workload.
pub fn run(name: &str, args: &Args, scratch: &Scratch) -> RunResult<Outcome> {
    match name {
        "runner_cnn" => runner::run(runner::Kind::Cnn, args),
        "runner_llm" => runner::run(runner::Kind::Llm, args),
        "daemon_steady" => daemon::run(args, scratch),
        "fleet_mixed" => fleet::run(args),
        "journal_recover" => journal::run(args, scratch),
        other => Err(format!("unknown workload `{other}`")),
    }
}
