//! **Contention policy** — the single source of truth for what happens
//! between two aborted attempts of the transaction driver
//! ([`crate::driver`]), shared by its two waiters: the synchronous
//! [`crate::driver::drive`] loop and the asynchronous park path
//! (`oftm-asyncrt`).
//!
//! The paper's own progress recipe (Section 1) is randomized bounded
//! exponential backoff: obstruction-free TMs guarantee nothing under
//! sustained step contention, but contention *spread out* by backoff
//! makes solo runs — and hence commits — overwhelmingly likely. The two
//! waiters consume that recipe differently:
//!
//! * the **sync** loop *spins* for [`backoff_micros`] microseconds and
//!   retries unconditionally ([`spin_backoff`]);
//! * the **async** future retries immediately a bounded number of times
//!   ([`retry_immediately`]), then *parks* on its footprint's commit
//!   notifications, with [`park_timeout`] (the same schedule, scaled) as
//!   the watchdog deadline that keeps mutually-aborting transactions from
//!   sleeping forever when neither ever commits.
//!
//! Keeping both on one schedule makes attempt accounting comparable:
//! the driver counts an attempt per `begin` either way, and the async
//! path's timeout-driven re-runs are bounded by the sync path's
//! spin-driven ones — which is what lets the harnesses claim "strictly
//! fewer wasted re-runs" as an apples-to-apples number.

use std::time::Duration;

/// Exponent cap of the randomized backoff: delays are drawn from
/// `[0, 2^min(attempt, 8))` µs.
pub const BACKOFF_CAP_EXP: u32 = 8;

/// Pseudo-random backoff duration in microseconds for the given
/// `(proc, attempt)` pair — `[0, 2^min(attempt, 8))` µs, seeded so threads
/// desynchronize deterministically. Both the sync spin and the async
/// park timeout derive from this one schedule.
pub fn backoff_micros(proc: u32, attempt: u32) -> u64 {
    let mut z = (u64::from(proc) << 32) ^ u64::from(attempt);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % (1u64 << attempt.min(BACKOFF_CAP_EXP))
}

/// Spins for [`backoff_micros`]`(proc, attempt)` — the sync loop's wait.
pub fn spin_backoff(proc: u32, attempt: u32) {
    let end = std::time::Instant::now() + Duration::from_micros(backoff_micros(proc, attempt));
    while std::time::Instant::now() < end {
        std::hint::spin_loop();
    }
}

/// Aborted attempts the async path re-runs immediately before it parks.
/// The first abort usually means the conflicting commit *just* landed —
/// an immediate re-run sees the new state and commonly succeeds; parking
/// that case would trade one cheap attempt for a context round-trip.
const IMMEDIATE_RETRIES: u32 = 1;

/// Multiplier from the backoff schedule to the park watchdog timeout: a
/// parked transaction sleeps this many times what its sync twin would
/// have spun (plus the floor below), because a wake normally arrives
/// from a commit much earlier — the timeout only exists so
/// mutually-aborting transactions (both parked, neither committed, nobody
/// left to publish) eventually re-run.
const PARK_SCALE: u64 = 8;

/// Minimum park timeout in microseconds (delays of 0–1 µs from the early
/// schedule would make the watchdog a busy loop).
const PARK_FLOOR_MICROS: u64 = 50;

/// The park floor as a duration: also how long a DSTM process whose
/// retired locators pile up behind a descheduled peer gives the CPU away.
pub(crate) const PARK_FLOOR: Duration = Duration::from_micros(PARK_FLOOR_MICROS);

/// True if the `n`-th consecutive abort (1-based) should re-run
/// immediately instead of parking.
pub fn retry_immediately(consecutive_aborts: u32) -> bool {
    consecutive_aborts <= IMMEDIATE_RETRIES
}

/// Watchdog deadline distance for a park after `consecutive_aborts`
/// aborts — the safety net, not the expected wake path. Between
/// 50 µs (the floor) and 8 × 255 µs (the scaled cap of the schedule).
pub fn park_timeout(proc: u32, consecutive_aborts: u32) -> Duration {
    let micros = backoff_micros(proc, consecutive_aborts) * PARK_SCALE;
    Duration::from_micros(micros.max(PARK_FLOOR_MICROS))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        for attempt in 0..20 {
            let a = backoff_micros(3, attempt);
            let b = backoff_micros(3, attempt);
            assert_eq!(a, b);
            assert!(a < (1 << attempt.min(BACKOFF_CAP_EXP)));
        }
    }

    #[test]
    fn procs_desynchronize() {
        // Not all-equal across procs for a mid-schedule attempt.
        let vals: Vec<u64> = (0..8).map(|p| backoff_micros(p, 6)).collect();
        assert!(vals.iter().any(|&v| v != vals[0]), "{vals:?}");
    }

    #[test]
    fn park_schedule() {
        assert!(retry_immediately(1));
        assert!(!retry_immediately(2));
        // The whole reachable range: the floor below, the scaled cap of
        // the backoff schedule above.
        let most = Duration::from_micros(PARK_SCALE * ((1 << BACKOFF_CAP_EXP) - 1));
        assert_eq!(most, Duration::from_micros(8 * 255));
        for proc in 0..8 {
            for aborts in 1..32 {
                let t = park_timeout(proc, aborts);
                assert!(Duration::from_micros(50) <= t && t <= most, "{t:?}");
            }
        }
    }
}
