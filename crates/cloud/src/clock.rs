//! Virtual time for the discrete-event simulation.
//!
//! All durations in the simulated cloud are *virtual*: they are computed
//! from work metrics (bytes parsed, capacity units consumed, …) by the
//! service and work models, never from wall-clock measurements, so every
//! simulation run is bit-for-bit reproducible on any machine.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time (microseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct SimTime(pub u64);

/// A span of virtual time (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Microseconds since the epoch.
    pub const fn micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch (lossy, for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000)
    }

    /// From microseconds.
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us)
    }

    /// From fractional seconds, rounding up to a microsecond so that
    /// nonzero work always advances time.
    pub fn from_secs_f64(s: f64) -> SimDuration {
        assert!(s >= 0.0 && s.is_finite(), "durations are non-negative: {s}");
        SimDuration((s * 1e6).ceil() as u64)
    }

    /// Microseconds in the span.
    pub const fn micros(self) -> u64 {
        self.0
    }

    /// Seconds (lossy, for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(earlier.0).expect("time went backwards"))
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(d.0).expect("time before the epoch"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_secs = self.0 / 1_000_000;
        let (h, m, s) = (total_secs / 3600, (total_secs / 60) % 60, total_secs % 60);
        if h > 0 {
            write!(f, "{h}:{m:02}:{s:02}")
        } else if m > 0 {
            write!(f, "{m}:{s:02}")
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_secs(2) + SimDuration::from_millis(500);
        assert_eq!(t.micros(), 2_500_000);
        assert_eq!((t - SimTime(500_000)).micros(), 2_000_000);
    }

    #[test]
    fn from_secs_f64_rounds_up() {
        assert_eq!(SimDuration::from_secs_f64(1e-9).micros(), 1);
        assert_eq!(SimDuration::from_secs_f64(0.0).micros(), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_secs(7266).to_string(), "2:01:06");
        assert_eq!(SimDuration::from_secs(75).to_string(), "1:15");
        assert_eq!(SimDuration::from_millis(250).to_string(), "0.250s");
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn negative_spans_panic() {
        let _ = SimTime(1) - SimTime(2);
    }
}
