//! Power-aware request-stream migration.
//!
//! When a server's local budget binds — it sits pinned at its assigned
//! set point *and* misses SLOs — no amount of local control recovers the
//! lost latency: the power simply is not there. The fleet's second lever
//! is the request router: move one of the server's request streams to a
//! server with spare *power capacity* (headroom below its achievable
//! peak), where the hierarchical allocator can fund the displaced load
//! next epoch. This mirrors the joint capping-plus-routing control in
//! "Power Aware Dynamic Reallocation For Inference" (PAPERS.md): capping
//! decides how much power a server gets, routing decides how much work.
//!
//! The planner is deterministic: donors are ordered by (misses desc,
//! index asc), receivers by (capacity headroom desc, index asc), pairing
//! is greedy, one stream per pair, each server participates at most once
//! per epoch (hysteresis against ping-ponging).

use crate::sim::ServerStat;

/// Maximum migrations per allocator epoch.
const MAX_PER_EPOCH: usize = 8;
/// A server must miss at least this many SLOs in the epoch to shed load.
const MIN_MISSES: u64 = 1;
/// "Pinned at the cap" band (W): overloaded means
/// `measured ≥ assigned − band`.
const BINDING_BAND_WATTS: f64 = 12.0;
/// A receiver must have at least this much capacity headroom
/// (`max_watts − measured`) to accept a stream.
const HEADROOM_WATTS: f64 = 40.0;
/// A receiver's epoch miss rate (misses / (misses + completed)) must not
/// exceed this — occasional Poisson-burst misses do not disqualify an
/// otherwise healthy server.
const RECEIVER_MAX_MISS_RATE: f64 = 0.002;
/// Hard per-server stream ceiling for receivers.
const MAX_STREAMS: u32 = 16;

/// The planner's former policy record. Every knob is now a constant of
/// this module; the empty type remains only as the argument of
/// [`plan`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MigrationConfig;

/// One planned stream migration (always a single stream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Migration {
    /// Shedding server (index).
    pub from: usize,
    /// Receiving server (index).
    pub to: usize,
}

/// Plans this epoch's migrations from the epoch's per-server statistics.
///
/// Pure and deterministic: identical stats produce identical plans
/// regardless of thread count or call site.
pub fn plan(stats: &[ServerStat], _cfg: &MigrationConfig) -> Vec<Migration> {
    // Donors: binding budget, real misses, and at least one stream to
    // spare (never drain a server to zero offered load).
    let mut donors: Vec<usize> = (0..stats.len())
        .filter(|&i| {
            let s = &stats[i];
            s.streams >= 2
                && s.misses >= MIN_MISSES
                && s.measured >= s.assigned - BINDING_BAND_WATTS
        })
        .collect();
    donors.sort_by(|&a, &b| stats[b].misses.cmp(&stats[a].misses).then(a.cmp(&b)));

    // Receivers: (near) miss-free with spare power capacity the
    // allocator can still fund (power-aware: headroom is to the
    // server's achievable peak, not to its current assignment).
    let miss_rate = |i: usize| {
        let s = &stats[i];
        let total = s.misses + s.completed;
        if total == 0 {
            0.0
        } else {
            s.misses as f64 / total as f64
        }
    };
    let mut receivers: Vec<usize> = (0..stats.len())
        .filter(|&i| {
            let s = &stats[i];
            s.streams < MAX_STREAMS
                && miss_rate(i) <= RECEIVER_MAX_MISS_RATE
                && s.max_watts - s.measured >= HEADROOM_WATTS
        })
        .collect();
    receivers.sort_by(|&a, &b| {
        let ha = stats[a].max_watts - stats[a].measured;
        let hb = stats[b].max_watts - stats[b].measured;
        hb.total_cmp(&ha).then(a.cmp(&b))
    });

    let mut plans = Vec::new();
    let mut ri = 0;
    for &from in &donors {
        if plans.len() >= MAX_PER_EPOCH || ri >= receivers.len() {
            break;
        }
        let to = receivers[ri];
        if to == from {
            // A server passing both filters takes no part in migration —
            // possible when its few misses keep its miss rate under
            // RECEIVER_MAX_MISS_RATE.
            ri += 1;
            continue;
        }
        plans.push(Migration { from, to });
        ri += 1;
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(streams: u32, assigned: f64, measured: f64, max_watts: f64, misses: u64) -> ServerStat {
        ServerStat {
            rack: 0,
            class: 0,
            streams,
            demand: assigned,
            min_watts: 500.0,
            max_watts,
            assigned,
            measured,
            misses,
            completed: 100,
        }
    }

    #[test]
    fn overloaded_sheds_to_biggest_headroom() {
        let stats = vec![
            stat(6, 900.0, 898.0, 1200.0, 40), // pinned + missing → donor
            stat(4, 900.0, 700.0, 1200.0, 0),  // 500 W headroom
            stat(4, 900.0, 650.0, 1200.0, 0),  // 550 W headroom → first receiver
        ];
        let plans = plan(&stats, &MigrationConfig);
        assert_eq!(plans, vec![Migration { from: 0, to: 2 }]);
    }

    #[test]
    fn unpinned_or_missfree_servers_do_not_shed() {
        // Missing SLOs but *not* pinned: more power is still available
        // locally, migration is not the right lever.
        let stats = vec![
            stat(6, 900.0, 700.0, 1200.0, 40),
            stat(4, 900.0, 650.0, 1200.0, 0),
        ];
        assert!(plan(&stats, &MigrationConfig).is_empty());
        // Pinned but miss-free: the cap binds yet SLOs hold — no action.
        let stats = vec![
            stat(6, 900.0, 899.0, 1200.0, 0),
            stat(4, 900.0, 650.0, 1200.0, 0),
        ];
        assert!(plan(&stats, &MigrationConfig).is_empty());
    }

    #[test]
    fn single_stream_servers_never_drain() {
        let stats = vec![
            stat(1, 900.0, 899.0, 1200.0, 50),
            stat(4, 900.0, 650.0, 1200.0, 0),
        ];
        assert!(plan(&stats, &MigrationConfig).is_empty());
    }

    #[test]
    fn caps_and_ceilings_bound_the_plan() {
        // More donor/receiver pairs than one epoch may move.
        let pairs = MAX_PER_EPOCH + 2;
        let mut stats: Vec<ServerStat> = (0..pairs)
            .map(|k| stat(6, 900.0, 899.0, 1200.0, 40 + k as u64))
            .collect();
        stats.extend((0..pairs).map(|k| stat(4, 900.0, 650.0 - k as f64, 1200.0, 0)));
        assert_eq!(plan(&stats, &MigrationConfig).len(), MAX_PER_EPOCH);
        // Full receivers are skipped.
        let stats = vec![
            stat(6, 900.0, 899.0, 1200.0, 40),
            stat(16, 900.0, 650.0, 1200.0, 0),
        ];
        assert!(plan(&stats, &MigrationConfig).is_empty());
    }

    #[test]
    fn plan_is_deterministic_under_ties() {
        // Equal misses and equal headroom: index breaks both ties.
        let stats = vec![
            stat(6, 900.0, 899.0, 1200.0, 40),
            stat(6, 900.0, 899.0, 1200.0, 40),
            stat(4, 900.0, 650.0, 1200.0, 0),
            stat(4, 900.0, 650.0, 1200.0, 0),
        ];
        let a = plan(&stats, &MigrationConfig);
        let b = plan(&stats, &MigrationConfig);
        assert_eq!(a, b);
        assert_eq!(
            a,
            vec![Migration { from: 0, to: 2 }, Migration { from: 1, to: 3 }]
        );
    }
}
