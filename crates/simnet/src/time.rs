//! Virtual time for the discrete-event simulation.
//!
//! Time is measured in integer **microseconds** since the start of the run.
//! Using integers keeps the simulation deterministic across platforms (no
//! floating-point rounding in the event queue ordering).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time (microseconds since simulation start).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of virtual time (microseconds).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The origin of virtual time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct a time from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Construct a time from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct a time from microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Microseconds since the start of the simulation.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since the start of the simulation (truncating).
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Duration elapsed since `earlier`, saturating at zero if `earlier` is
    /// in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Construct a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct a duration from microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// The duration in microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in seconds (truncating).
    pub fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Multiply the duration by an integer factor, saturating.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:06}s", self.0 / 1_000_000, self.0 % 1_000_000)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:06}s", self.0 / 1_000_000, self.0 % 1_000_000)
    }
}

#[cfg(test)]
impl SimTime {
    /// `self + d`, saturating at [`SimTime::MAX`].
    pub(crate) fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

#[cfg(test)]
impl SimDuration {
    /// The duration in milliseconds (truncating).
    pub(crate) fn as_millis(self) -> u64 {
        self.0 / 1_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_micros(7).as_micros(), 7);
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimDuration::from_millis(1_500).as_secs(), 1);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10);
        let d = SimDuration::from_millis(5);
        assert_eq!((t + d).as_millis(), 15);
        assert_eq!(((t + d) - t).as_millis(), 5);
        let mut t2 = t;
        t2 += d;
        assert_eq!(t2.as_millis(), 15);
    }

    #[test]
    fn saturating_behaviour() {
        let early = SimTime::from_millis(1);
        let late = SimTime::from_millis(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early).as_millis(), 1);
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(SimDuration(u64::MAX).saturating_mul(5).0, u64::MAX);
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::ZERO < SimTime::from_micros(1));
        assert!(SimTime::from_secs(1) < SimTime::MAX);
        assert_eq!(format!("{}", SimTime::from_micros(1_500_000)), "1.500000s");
        assert_eq!(format!("{}", SimDuration::from_micros(42)), "0.000042s");
    }
}
