//! Lint oracle: a clock read outside the wait/diagnostic allowlist must
//! trip `clock-read`; a test module's clock reads do not.

use std::time::{Duration, Instant};

pub fn attempt(stats: &Stats) -> u64 {
    let started = Instant::now();
    run_body();
    let wall = std::time::SystemTime::now();
    stats.record(started.elapsed(), wall)
}

// A mention in a comment is no read: Instant::now()
pub fn spin(d: Duration) {
    let _ = d;
    let _ = "Instant::now";
    let _ = MyInstant::now();
}

#[cfg(test)]
mod tests {
    #[test]
    fn timed() {
        let _ = std::time::Instant::now();
    }
}
