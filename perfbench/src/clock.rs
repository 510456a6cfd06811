//! The benchmark's only reads of the host clock.
//!
//! The simulator itself must never read wall time (its results are a pure
//! function of scenario and seed, which `rtmac-lint`'s `wall-clock` rule
//! enforces); a benchmark exists to read it. Keeping every read behind
//! [`Stopwatch`] keeps the waivers for that rule in this one file.

use std::time::Duration;
// lint: allow(wall-clock) — the benchmark measures host time by design
use std::time::Instant;

/// A running timer.
#[derive(Debug, Clone, Copy)]
// lint: allow(wall-clock) — the benchmark measures host time by design
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts a timer now.
    #[must_use]
    pub fn start() -> Self {
        // lint: allow(wall-clock) — the benchmark measures host time by design
        Stopwatch(Instant::now())
    }

    /// Time since the timer started.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }

    /// Time from `earlier`'s start to this timer's start (zero if
    /// `earlier` started later).
    #[must_use]
    pub fn started_after(&self, earlier: Stopwatch) -> Duration {
        self.0.saturating_duration_since(earlier.0)
    }
}
