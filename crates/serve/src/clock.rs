//! Time sources for the scoring service.
//!
//! Deadline shedding is inherently wall-clock-dependent, which would make
//! the shed set non-deterministic and untestable. The service therefore
//! reads time only through the [`Clock`] trait: production uses
//! [`SystemClock`]; tests use [`ManualClock`], advanced explicitly, so
//! the set of shed requests becomes a pure function of the submitted
//! arrival trace.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic time source the service consults for admission
/// timestamps, deadline checks, and latency telemetry.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Milliseconds elapsed since the clock's epoch (monotonic). Every
    /// *decision* the service makes (deadlines, the shed set) reads this.
    fn now_millis(&self) -> u64;

    /// Microseconds elapsed since the clock's epoch (monotonic) — the
    /// resolution of [`ServeReport`](crate::ServeReport)'s latency
    /// percentiles, never of a decision. The provided body is
    /// `now_millis() * 1000`, so a millisecond clock stays consistent
    /// with itself; [`SystemClock`] overrides it with real microseconds.
    fn now_micros(&self) -> u64 {
        self.now_millis().saturating_mul(1000)
    }

    /// Blocks the calling thread for roughly `window`. The dispatcher is
    /// work-conserving and calls this only when someone set a non-zero
    /// [`ServeConfig::batch_window`](crate::ServeConfig::batch_window) as
    /// an explicit extra delay; with the default it is never called.
    /// Manual clocks make it a no-op.
    fn sleep(&self, window: Duration);
}

/// Wall-clock time relative to the clock's construction instant.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// A clock whose epoch is "now".
    pub fn new() -> Self {
        SystemClock {
            origin: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now_millis(&self) -> u64 {
        self.origin.elapsed().as_millis() as u64
    }

    fn now_micros(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    fn sleep(&self, window: Duration) {
        std::thread::sleep(window);
    }
}

/// A clock that only moves when told to — the deterministic time source
/// for shed-set and latency tests. `sleep` is a no-op, so a service on a
/// manual clock should be stepped with
/// [`ScoreService::process_once`](crate::ScoreService::process_once)
/// rather than a background dispatcher.
#[derive(Debug, Default)]
pub struct ManualClock {
    millis: AtomicU64,
}

impl ManualClock {
    /// A clock frozen at 0 ms.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `ms` milliseconds.
    pub fn advance(&self, ms: u64) {
        self.millis.fetch_add(ms, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_millis(&self) -> u64 {
        self.millis.load(Ordering::SeqCst)
    }

    fn sleep(&self, _window: Duration) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_moves_only_when_advanced() {
        let clock = ManualClock::new();
        assert_eq!(clock.now_millis(), 0);
        clock.sleep(Duration::from_secs(3600));
        assert_eq!(clock.now_millis(), 0);
        clock.advance(250);
        assert_eq!(clock.now_millis(), 250);
        assert_eq!(clock.now_micros(), 250_000);
    }

    #[test]
    fn system_clock_is_monotonic() {
        let clock = SystemClock::new();
        let a = clock.now_millis();
        clock.sleep(Duration::from_millis(2));
        assert!(clock.now_millis() >= a);
        // Both readings come off one origin.
        assert!(clock.now_micros() >= 2_000);
    }

    #[test]
    fn manual_micros_saturate_instead_of_wrapping() {
        let clock = ManualClock::new();
        clock.advance(u64::MAX / 1000);
        assert_eq!(clock.now_micros(), (u64::MAX / 1000) * 1000);
        clock.advance(1);
        assert_eq!(clock.now_micros(), u64::MAX);
    }
}
