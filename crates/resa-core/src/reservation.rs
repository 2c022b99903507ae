//! Advance reservations and the unavailability function `U(t)`.
//!
//! A reservation `R_j` withdraws `q_j` processors from the cluster during the
//! half-open window `[r_j, r_j + p_j)`. The paper models the set of
//! reservations through the piecewise-constant *unavailability function*
//! `U(t) = Σ_{j running at t} q_j`; an instance is feasible iff
//! `∀t, U(t) ≤ m`.

use crate::time::{Dur, Time};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a reservation inside an instance.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct ReservationId(pub usize);

impl fmt::Display for ReservationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl From<usize> for ReservationId {
    fn from(v: usize) -> Self {
        ReservationId(v)
    }
}

/// An advance reservation: `width` processors are unavailable during
/// `[start, start + duration)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Reservation {
    /// Reservation identifier, unique within an instance.
    pub id: ReservationId,
    /// Number of processors withdrawn (`q_j` in the paper).
    pub width: u32,
    /// Length of the reservation window (`p_j` in the paper), strictly positive.
    pub duration: Dur,
    /// Start of the reservation window (`r_j` in the paper).
    pub start: Time,
}

impl Reservation {
    /// Create a reservation.
    pub fn new(
        id: impl Into<ReservationId>,
        width: u32,
        duration: impl Into<Dur>,
        start: impl Into<Time>,
    ) -> Self {
        Reservation {
            id: id.into(),
            width,
            duration: duration.into(),
            start: start.into(),
        }
    }

    /// End of the reservation window (exclusive).
    #[inline]
    pub fn end(&self) -> Time {
        self.start + self.duration
    }

    /// Area (processor x time) withheld by the reservation.
    #[inline]
    pub fn area(&self) -> u128 {
        self.duration.area(self.width)
    }

    /// Whether the reservation respects the α-restriction
    /// `q_j ≤ (1 − α)·m` individually. Note the paper's restriction is on the
    /// *sum* of concurrent reservations; see
    /// [`crate::instance::ResaInstance::check_alpha_restricted`].
    pub fn respects_alpha(&self, alpha: crate::instance::Alpha, machines: u32) -> bool {
        // width ≤ (1 - num/denom) m  ⇔  width·denom ≤ (denom − num)·m
        (self.width as u64) * alpha.denom() <= (alpha.denom() - alpha.num()) * machines as u64
    }
}

impl fmt::Display for Reservation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}(q={}, [{}, {}))",
            self.id,
            self.width,
            self.start,
            self.end()
        )
    }
}

/// Compute the unavailability function `U(t)` of a set of reservations as a
/// sorted list of `(time, unavailable)` breakpoints. The value at a breakpoint
/// holds until the next breakpoint; the function is 0 before the first
/// breakpoint and after the last window ends.
pub fn unavailability_breakpoints(reservations: &[Reservation]) -> Vec<(Time, u32)> {
    if reservations.is_empty() {
        return vec![(Time::ZERO, 0)];
    }
    // Sweep line over start (+width) and end (-width) events.
    let mut events: Vec<(Time, i64)> = Vec::with_capacity(reservations.len() * 2);
    for r in reservations {
        events.push((r.start, r.width as i64));
        events.push((r.end(), -(r.width as i64)));
    }
    events.sort();
    let mut out: Vec<(Time, u32)> = vec![(Time::ZERO, 0)];
    let mut current: i64 = 0;
    let mut i = 0;
    while i < events.len() {
        let t = events[i].0;
        while i < events.len() && events[i].0 == t {
            current += events[i].1;
            i += 1;
        }
        debug_assert!(current >= 0, "sweep went negative");
        if out.last().map(|&(bt, _)| bt) == Some(t) {
            out.last_mut().unwrap().1 = current as u32;
        } else if out.last().map(|&(_, v)| v) != Some(current as u32) {
            out.push((t, current as u32));
        }
    }
    out
}

/// Maximum value of the unavailability function `U(t)`.
pub fn peak_unavailability(reservations: &[Reservation]) -> u32 {
    unavailability_breakpoints(reservations)
        .iter()
        .map(|&(_, u)| u)
        .max()
        .unwrap_or(0)
}

/// Whether the unavailability function is non-increasing over time, the
/// restriction studied in §4.1 of the paper (equivalently: availability
/// `m(t) = m − U(t)` is non-decreasing).
///
/// A set of reservations is non-increasing iff every value in the breakpoint
/// list is ≤ the previous one *and* the function starts at its maximum (i.e.
/// all reservations start at time 0 or are nested so that unavailability only
/// ever decreases).
pub fn is_nonincreasing(reservations: &[Reservation]) -> bool {
    let bps = unavailability_breakpoints(reservations);
    bps.windows(2).all(|w| w[1].1 <= w[0].1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(id: usize, width: u32, dur: u64, start: u64) -> Reservation {
        Reservation::new(id, width, dur, start)
    }

    #[test]
    fn reservation_window() {
        let res = r(0, 2, 5, 10);
        assert_eq!(res.end(), Time(15));
        assert_eq!(res.area(), 10);
    }

    #[test]
    fn empty_unavailability() {
        assert_eq!(unavailability_breakpoints(&[]), vec![(Time::ZERO, 0)]);
        assert_eq!(peak_unavailability(&[]), 0);
        assert!(is_nonincreasing(&[]));
    }

    #[test]
    fn single_reservation_breakpoints() {
        let bps = unavailability_breakpoints(&[r(0, 3, 4, 2)]);
        assert_eq!(bps, vec![(Time(0), 0), (Time(2), 3), (Time(6), 0)]);
        assert_eq!(peak_unavailability(&[r(0, 3, 4, 2)]), 3);
    }

    #[test]
    fn overlapping_reservations_sum() {
        let rs = [r(0, 3, 10, 0), r(1, 2, 4, 5)];
        let bps = unavailability_breakpoints(&rs);
        assert_eq!(
            bps,
            vec![(Time(0), 3), (Time(5), 5), (Time(9), 3), (Time(10), 0)]
        );
        assert_eq!(peak_unavailability(&rs), 5);
    }

    #[test]
    fn adjacent_reservations_do_not_overlap() {
        // [0,5) and [5,10): at t=5 only the second is active.
        let rs = [r(0, 4, 5, 0), r(1, 4, 5, 5)];
        assert_eq!(peak_unavailability(&rs), 4);
        let bps = unavailability_breakpoints(&rs);
        assert_eq!(bps, vec![(Time(0), 4), (Time(10), 0)]);
    }

    #[test]
    fn nonincreasing_detection() {
        // Staircase going down: 5 procs until 10, 2 procs until 20.
        let down = [r(0, 3, 10, 0), r(1, 2, 20, 0)];
        assert!(is_nonincreasing(&down));
        // A reservation starting later makes U increase.
        let up = [r(0, 2, 5, 3)];
        assert!(!is_nonincreasing(&up));
    }

    #[test]
    fn alpha_on_reservations() {
        use crate::instance::Alpha;
        // alpha = 1/2, m = 10 ⇒ reservations individually up to 5.
        let a = Alpha::new(1, 2).unwrap();
        assert!(r(0, 5, 1, 0).respects_alpha(a, 10));
        assert!(!r(0, 6, 1, 0).respects_alpha(a, 10));
    }

    #[test]
    fn display() {
        assert_eq!(r(1, 2, 3, 4).to_string(), "R1(q=2, [t4, t7))");
    }
}
