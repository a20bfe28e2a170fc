//! Virtual time for the discrete-event simulator.
//!
//! The paper's network delays are specified in milliseconds (one-way delays
//! of 70/150/300 ms) while experiments span days (4 simulated days, hourly
//! reporting), so a `u64` millisecond clock covers the full range with room
//! to spare (≈ 584 million years).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in milliseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; useful as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000)
    }

    /// Construct from whole minutes.
    #[inline]
    pub const fn from_mins(m: u64) -> Self {
        SimTime(m * 60_000)
    }

    /// Construct from whole hours.
    #[inline]
    pub const fn from_hours(h: u64) -> Self {
        SimTime(h * 3_600_000)
    }

    /// Raw millisecond count since the epoch.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole hours since the epoch (truncating). The paper reports all
    /// series per one-hour bucket, so this doubles as the bucket index.
    #[inline]
    pub const fn as_hours(self) -> u64 {
        self.0 / 3_600_000
    }

    /// Duration elapsed since `earlier`. Saturates at zero instead of
    /// panicking so that metric code can be sloppy about ordering.
    #[inline]
    pub const fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000)
    }

    /// Construct from whole minutes.
    #[inline]
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60_000)
    }

    /// Construct from whole hours.
    #[inline]
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600_000)
    }

    /// Raw millisecond count.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Multiply by an integer factor, saturating on overflow.
    #[inline]
    pub const fn saturating_mul(self, k: u64) -> Self {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds if `rhs > self`; use
    /// [`SimTime::saturating_since`] when ordering is not guaranteed.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0 % 1_000;
        let s = (self.0 / 1_000) % 60;
        let m = (self.0 / 60_000) % 60;
        let h = self.0 / 3_600_000;
        write!(f, "{h:02}:{m:02}:{s:02}.{ms:03}")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ms", self.0)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_mins(1), SimTime::from_secs(60));
        assert_eq!(SimTime::from_hours(1), SimTime::from_mins(60));
        assert_eq!(SimDuration::from_hours(2).as_millis(), 7_200_000);
    }

    #[test]
    fn hour_bucketing_matches_paper_reporting() {
        // The paper buckets by hour: hour index 12 covers [12:00, 13:00).
        let t = SimTime::from_hours(12) + SimDuration::from_mins(59);
        assert_eq!(t.as_hours(), 12);
        let t2 = SimTime::from_hours(13);
        assert_eq!(t2.as_hours(), 13);
    }

    #[test]
    fn arithmetic_roundtrips() {
        let a = SimTime::from_millis(500);
        let d = SimDuration::from_millis(1_700);
        let b = a + d;
        assert_eq!(b - a, d);
        assert_eq!(b.saturating_since(a), d);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        let t = SimTime::from_hours(27) + SimDuration::from_millis(61_005);
        assert_eq!(format!("{t}"), "27:01:01.005");
        assert_eq!(format!("{}", SimDuration::from_millis(70)), "70ms");
        assert_eq!(format!("{}", SimDuration::from_millis(1_500)), "1.500s");
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(SimTime::MAX
            .checked_add(SimDuration::from_millis(1))
            .is_none());
        assert_eq!(
            SimTime::ZERO.checked_add(SimDuration::from_millis(7)),
            Some(SimTime::from_millis(7))
        );
    }

    #[test]
    fn saturating_mul_saturates() {
        let d = SimDuration::from_millis(u64::MAX / 2 + 1);
        assert_eq!(d.saturating_mul(3).as_millis(), u64::MAX);
        assert_eq!(
            SimDuration::from_millis(3).saturating_mul(4).as_millis(),
            12
        );
    }
}
