//! Integer time representation.
//!
//! The whole workspace uses discrete, unit-less integer ticks for time. The
//! paper's constructions occasionally use rational durations (e.g. jobs of
//! length `1/k` in Proposition 2); those are scaled to integers exactly as the
//! paper itself does in Figure 3 (where the `α = 1/3` instance is drawn with
//! `C*_max = 6` instead of `1`). Using integers keeps feasibility checking,
//! exact solving and property testing free of floating-point tolerance issues.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in time, measured in ticks since the schedule origin (time 0).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Time(pub u64);

/// A duration, measured in ticks. Durations are always strictly positive for
/// jobs and reservations; `Dur(0)` is permitted only as an additive identity.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Dur(pub u64);

impl Time {
    /// The schedule origin.
    pub const ZERO: Time = Time(0);
    /// The largest representable time; used as "never" / horizon sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Raw tick count.
    #[inline]
    pub fn ticks(self) -> u64 {
        self.0
    }

    /// Saturating addition of a duration.
    #[inline]
    pub fn saturating_add(self, d: Dur) -> Time {
        Time(self.0.saturating_add(d.0))
    }

    /// Duration elapsed from `earlier` to `self`.
    ///
    /// # Panics
    /// Panics in debug builds if `earlier > self`.
    #[inline]
    pub fn since(self, earlier: Time) -> Dur {
        debug_assert!(earlier <= self, "Time::since with later origin");
        Dur(self.0 - earlier.0)
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }
}

impl Dur {
    /// Zero-length duration (additive identity).
    pub const ZERO: Dur = Dur(0);
    /// One tick.
    pub const ONE: Dur = Dur(1);
    /// The largest representable duration.
    pub const MAX: Dur = Dur(u64::MAX);

    /// Raw tick count.
    #[inline]
    pub fn ticks(self) -> u64 {
        self.0
    }

    /// Whether this duration is zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, other: Dur) -> Dur {
        Dur(self.0.saturating_add(other.0))
    }

    /// Area (processor x time product) occupied by `width` processors for this
    /// duration. Returned as `u128` so that very large instances cannot
    /// overflow.
    #[inline]
    pub fn area(self, width: u32) -> u128 {
        self.0 as u128 * width as u128
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Dur) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Dur) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0 - rhs.0)
    }
}

impl SubAssign for Dur {
    #[inline]
    fn sub_assign(&mut self, rhs: Dur) {
        self.0 -= rhs.0;
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Time {
    fn from(v: u64) -> Self {
        Time(v)
    }
}

impl From<u64> for Dur {
    fn from(v: u64) -> Self {
        Dur(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_plus_duration() {
        assert_eq!(Time(3) + Dur(4), Time(7));
        let mut t = Time(1);
        t += Dur(2);
        assert_eq!(t, Time(3));
    }

    #[test]
    fn time_since() {
        assert_eq!(Time(10).since(Time(4)), Dur(6));
    }

    #[test]
    fn saturating_operations() {
        assert_eq!(Time::MAX.saturating_add(Dur(5)), Time::MAX);
        assert_eq!(Dur::MAX.saturating_add(Dur(5)), Dur::MAX);
    }

    #[test]
    fn duration_arithmetic() {
        assert_eq!(Dur(3) + Dur(4), Dur(7));
        assert_eq!(Dur(7) - Dur(4), Dur(3));
        let mut d = Dur(5);
        d += Dur(1);
        d -= Dur(2);
        assert_eq!(d, Dur(4));
    }

    #[test]
    fn duration_sum() {
        let total: Dur = [Dur(1), Dur(2), Dur(3)].into_iter().sum();
        assert_eq!(total, Dur(6));
    }

    #[test]
    fn area_does_not_overflow_u64() {
        let d = Dur(u64::MAX / 2);
        let a = d.area(8);
        assert_eq!(a, (u64::MAX / 2) as u128 * 8);
    }

    #[test]
    fn ordering_and_minmax() {
        assert!(Time(3) < Time(5));
        assert_eq!(Time(3).max(Time(5)), Time(5));
        assert_eq!(Time(3).min(Time(5)), Time(3));
        assert!(Dur(2) < Dur(9));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Time(12).to_string(), "t12");
        assert_eq!(Dur(12).to_string(), "12");
    }

    #[test]
    fn conversions() {
        let t: Time = 9u64.into();
        let d: Dur = 9u64.into();
        assert_eq!(t.ticks(), 9);
        assert_eq!(d.ticks(), 9);
        assert!(Dur::ZERO.is_zero());
        assert!(!Dur::ONE.is_zero());
    }
}
