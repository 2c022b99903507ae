//! Piecewise-constant resource availability profile.
//!
//! [`ResourceProfile`] is the central substrate of the reproduction: it maps
//! every instant to the number of processors available at that instant
//! (`m(t) = m − U(t)` in the paper). Every scheduling algorithm in
//! `resa-algos` is written against this structure: list scheduling and the
//! back-filling variants repeatedly query the earliest window in which a job
//! fits and then reserve it, exactly like production batch schedulers maintain
//! their availability timeline.
//!
//! The profile is represented as a normalized list of breakpoints
//! `(time, capacity)`: the capacity value holds from its breakpoint (inclusive)
//! until the next breakpoint (exclusive); the last value extends to infinity.
//! The first breakpoint is always at time 0 and adjacent breakpoints always
//! carry different capacities.

use crate::error::ProfileError;
use crate::reservation::{unavailability_breakpoints, Reservation};
use crate::time::{Dur, Time};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Piecewise-constant map from time to available processor count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceProfile {
    /// Total number of machines in the cluster (`m`). Capacity never exceeds
    /// this value.
    base: u32,
    /// Normalized breakpoints: sorted by time, first at `Time::ZERO`,
    /// adjacent capacities distinct.
    steps: Vec<(Time, u32)>,
}

impl ResourceProfile {
    /// A profile with constant capacity `machines` (no reservations).
    pub fn constant(machines: u32) -> Self {
        ResourceProfile {
            base: machines,
            steps: vec![(Time::ZERO, machines)],
        }
    }

    /// Build the availability profile `m(t) = m − U(t)` induced by a set of
    /// reservations on a cluster of `machines` processors.
    ///
    /// Returns the time and deficit of the first violation if the
    /// reservations are infeasible (`U(t) > m` somewhere).
    pub fn from_reservations(
        machines: u32,
        reservations: &[Reservation],
    ) -> Result<Self, (Time, u32)> {
        let bps = unavailability_breakpoints(reservations);
        let mut steps = Vec::with_capacity(bps.len());
        for (t, u) in bps {
            if u > machines {
                return Err((t, u));
            }
            steps.push((t, machines - u));
        }
        let mut p = ResourceProfile {
            base: machines,
            steps,
        };
        p.normalize();
        Ok(p)
    }

    /// Build a profile from raw `(time, capacity)` breakpoints, normalizing
    /// them (sorting, anchoring the first breakpoint at zero, merging equal
    /// adjacent capacities). Used by
    /// [`crate::timeline::AvailabilityTimeline::to_profile`] to collapse the
    /// indexed timeline back into the canonical representation.
    ///
    /// # Panics
    /// Panics in debug builds if a capacity exceeds `base`.
    pub fn from_steps(base: u32, steps: Vec<(Time, u32)>) -> Self {
        debug_assert!(steps.iter().all(|&(_, c)| c <= base));
        let mut p = ResourceProfile { base, steps };
        if p.steps.is_empty() {
            p.steps.push((Time::ZERO, base));
        }
        p.normalize();
        p
    }

    /// Total number of machines in the cluster.
    #[inline]
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Breakpoints `(time, capacity)` of the profile, normalized.
    #[inline]
    pub fn steps(&self) -> &[(Time, u32)] {
        &self.steps
    }

    /// Capacity available at time `t`.
    pub fn capacity_at(&self, t: Time) -> u32 {
        match self.steps.binary_search_by_key(&t, |&(bt, _)| bt) {
            Ok(i) => self.steps[i].1,
            Err(0) => self.steps[0].1,
            Err(i) => self.steps[i - 1].1,
        }
    }

    /// Minimum capacity over the half-open window `[start, start + dur)`.
    /// Returns the capacity at `start` when `dur` is zero.
    pub fn min_capacity_in(&self, start: Time, dur: Dur) -> u32 {
        if dur.is_zero() {
            return self.capacity_at(start);
        }
        let end = start + dur;
        let mut min = self.capacity_at(start);
        let from = match self.steps.binary_search_by_key(&start, |&(bt, _)| bt) {
            Ok(i) => i,
            Err(i) => i,
        };
        for &(bt, cap) in &self.steps[from..] {
            if bt >= end {
                break;
            }
            if bt >= start {
                min = min.min(cap);
            }
        }
        min
    }

    /// Minimum capacity over the whole (infinite) horizon.
    pub fn min_capacity(&self) -> u32 {
        self.steps
            .iter()
            .map(|&(_, c)| c)
            .min()
            .unwrap_or(self.base)
    }

    /// Time of the last capacity change. `Time::ZERO` for a constant profile.
    pub fn last_change(&self) -> Time {
        self.steps.last().map(|&(t, _)| t).unwrap_or(Time::ZERO)
    }

    /// The first breakpoint strictly after `t`, if any.
    pub fn next_change_after(&self, t: Time) -> Option<Time> {
        let idx = match self.steps.binary_search_by_key(&t, |&(bt, _)| bt) {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        self.steps.get(idx).map(|&(bt, _)| bt)
    }

    /// Earliest time `t ≥ not_before` such that at least `width` processors
    /// are available throughout `[t, t + dur)`.
    ///
    /// Returns `None` only if no such time exists, which can happen only when
    /// the capacity after the last breakpoint is smaller than `width`
    /// (an infinite reservation tail).
    pub fn earliest_fit(&self, width: u32, dur: Dur, not_before: Time) -> Option<Time> {
        if width == 0 {
            return Some(not_before);
        }
        if width > self.base {
            return None;
        }
        let mut t = not_before;
        loop {
            // Find the first instant in [t, t+dur) with insufficient capacity.
            let end = t.saturating_add(dur);
            let mut violation: Option<Time> = None;
            if self.capacity_at(t) < width {
                violation = Some(t);
            } else {
                let from = match self.steps.binary_search_by_key(&t, |&(bt, _)| bt) {
                    Ok(i) => i,
                    Err(i) => i,
                };
                for &(bt, cap) in &self.steps[from..] {
                    if bt >= end {
                        break;
                    }
                    if bt > t && cap < width {
                        violation = Some(bt);
                        break;
                    }
                }
            }
            match violation {
                None => return Some(t),
                Some(v) => {
                    // Jump to the next breakpoint after the violation with
                    // enough capacity.
                    let idx = match self.steps.binary_search_by_key(&v, |&(bt, _)| bt) {
                        Ok(i) => i,
                        Err(i) => i.saturating_sub(1),
                    };
                    let mut next = None;
                    for &(bt, cap) in &self.steps[idx + 1..] {
                        if cap >= width {
                            next = Some(bt);
                            break;
                        }
                    }
                    match next {
                        Some(nt) => t = t.max(nt),
                        None => return None,
                    }
                }
            }
        }
    }

    /// Withdraw `width` processors during `[start, start + dur)`.
    ///
    /// Fails (leaving the profile untouched) if the window has zero length or
    /// if fewer than `width` processors are available somewhere in the window.
    pub fn reserve(&mut self, start: Time, dur: Dur, width: u32) -> Result<(), ProfileError> {
        if dur.is_zero() {
            return Err(ProfileError::EmptyWindow);
        }
        if width == 0 {
            return Ok(());
        }
        let end = start + dur;
        // Check first so failure never leaves a partial modification.
        let min = self.min_capacity_in(start, dur);
        if min < width {
            // Locate the first violating instant for the error message.
            let mut at = start;
            if self.capacity_at(start) >= width {
                let from = match self.steps.binary_search_by_key(&start, |&(bt, _)| bt) {
                    Ok(i) => i,
                    Err(i) => i,
                };
                for &(bt, cap) in &self.steps[from..] {
                    if bt >= end {
                        break;
                    }
                    if cap < width {
                        at = bt;
                        break;
                    }
                }
            }
            return Err(ProfileError::InsufficientCapacity {
                at,
                requested: width,
                available: min,
            });
        }
        self.ensure_breakpoint(start);
        self.ensure_breakpoint(end);
        for step in &mut self.steps {
            if step.0 >= start && step.0 < end {
                step.1 -= width;
            }
        }
        self.normalize();
        Ok(())
    }

    /// Return `width` processors during `[start, start + dur)`.
    ///
    /// Fails (leaving the profile untouched) if the release would raise the
    /// capacity above the base cluster size anywhere in the window.
    pub fn release(&mut self, start: Time, dur: Dur, width: u32) -> Result<(), ProfileError> {
        if dur.is_zero() {
            return Err(ProfileError::EmptyWindow);
        }
        if width == 0 {
            return Ok(());
        }
        let end = start + dur;
        // Check: max capacity in window + width must stay <= base.
        let mut max = self.capacity_at(start);
        let from = match self.steps.binary_search_by_key(&start, |&(bt, _)| bt) {
            Ok(i) => i,
            Err(i) => i,
        };
        for &(bt, cap) in &self.steps[from..] {
            if bt >= end {
                break;
            }
            if bt >= start {
                max = max.max(cap);
            }
        }
        if max + width > self.base {
            return Err(ProfileError::ReleaseAboveBase {
                at: start,
                capacity: max + width,
                base: self.base,
            });
        }
        self.ensure_breakpoint(start);
        self.ensure_breakpoint(end);
        for step in &mut self.steps {
            if step.0 >= start && step.0 < end {
                step.1 += width;
            }
        }
        self.normalize();
        Ok(())
    }

    /// Processor·time area available in `[0, until)`.
    pub fn available_area(&self, until: Time) -> u128 {
        let mut area: u128 = 0;
        for (i, &(bt, cap)) in self.steps.iter().enumerate() {
            if bt >= until {
                break;
            }
            let seg_end = self
                .steps
                .get(i + 1)
                .map(|&(nt, _)| nt)
                .unwrap_or(Time::MAX)
                .min(until);
            area += seg_end.since(bt).area(cap);
        }
        area
    }

    /// Smallest time `T` such that the area available in `[0, T)` is at least
    /// `area`. Returns `None` if the area can never be reached (final capacity
    /// zero and remaining demand positive).
    pub fn earliest_time_with_area(&self, area: u128) -> Option<Time> {
        if area == 0 {
            return Some(Time::ZERO);
        }
        let mut acc: u128 = 0;
        for (i, &(bt, cap)) in self.steps.iter().enumerate() {
            let seg_end = self.steps.get(i + 1).map(|&(nt, _)| nt);
            let remaining = area - acc;
            match seg_end {
                Some(end) => {
                    let seg_area = end.since(bt).area(cap);
                    if acc + seg_area >= area {
                        let extra = div_ceil_u128(remaining, cap as u128);
                        return Some(bt + Dur(extra as u64));
                    }
                    acc += seg_area;
                }
                None => {
                    if cap == 0 {
                        return None;
                    }
                    let extra = div_ceil_u128(remaining, cap as u128);
                    return Some(bt + Dur(extra as u64));
                }
            }
        }
        None
    }

    /// A copy of this profile where every capacity value is clamped to at most
    /// `cap` (used when restricting list scheduling to `αm` processors).
    pub fn clamped(&self, cap: u32) -> ResourceProfile {
        let mut p = ResourceProfile {
            base: self.base.min(cap),
            steps: self.steps.iter().map(|&(t, c)| (t, c.min(cap))).collect(),
        };
        p.normalize();
        p
    }

    /// Forget the capacity function before `t`: the step containing `t` is
    /// extended back to time zero and all earlier breakpoints are dropped.
    /// The represented function is unchanged on `[t, ∞)`; values before `t`
    /// are unspecified afterwards. Streaming consumers call this as virtual
    /// time advances, so the breakpoint count tracks the active scheduling
    /// horizon instead of the whole simulated history.
    pub fn retire_before(&mut self, t: Time) {
        let idx = self.steps.partition_point(|&(bt, _)| bt <= t) - 1;
        if idx > 0 {
            self.steps.drain(..idx);
            self.steps[0].0 = Time::ZERO;
        }
    }

    /// Insert a breakpoint at `t` (splitting the enclosing step) if one is not
    /// already present. No-op on the semantics of the profile.
    fn ensure_breakpoint(&mut self, t: Time) {
        match self.steps.binary_search_by_key(&t, |&(bt, _)| bt) {
            Ok(_) => {}
            Err(i) => {
                if i == 0 {
                    // t is before the first breakpoint; the first breakpoint is
                    // always Time::ZERO so this cannot happen for valid times.
                    self.steps.insert(0, (t, self.steps[0].1));
                } else {
                    let cap = self.steps[i - 1].1;
                    self.steps.insert(i, (t, cap));
                }
            }
        }
    }

    /// Re-establish the normalization invariant: sorted, first breakpoint at
    /// zero, adjacent capacities distinct.
    fn normalize(&mut self) {
        self.steps.sort_by_key(|&(t, _)| t);
        if self.steps.first().map(|&(t, _)| t) != Some(Time::ZERO) {
            let first_cap = self.steps.first().map(|&(_, c)| c).unwrap_or(self.base);
            self.steps.insert(0, (Time::ZERO, first_cap));
        }
        let mut merged: Vec<(Time, u32)> = Vec::with_capacity(self.steps.len());
        for &(t, c) in &self.steps {
            match merged.last_mut() {
                Some(last) if last.0 == t => last.1 = c,
                Some(last) if last.1 == c => {}
                _ => merged.push((t, c)),
            }
        }
        self.steps = merged;
    }
}

#[inline]
fn div_ceil_u128(a: u128, b: u128) -> u128 {
    debug_assert!(b > 0);
    a.div_ceil(b)
}

impl fmt::Display for ResourceProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "profile(m={}; ", self.base)?;
        for (i, &(t, c)) in self.steps.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}:{c}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reservation::Reservation;

    fn r(id: usize, width: u32, dur: u64, start: u64) -> Reservation {
        Reservation::new(id, width, dur, start)
    }

    #[test]
    fn constant_profile() {
        let p = ResourceProfile::constant(8);
        assert_eq!(p.capacity_at(Time(0)), 8);
        assert_eq!(p.capacity_at(Time(1_000_000)), 8);
        assert_eq!(p.min_capacity(), 8);
    }

    #[test]
    fn from_reservations_subtracts() {
        let p = ResourceProfile::from_reservations(10, &[r(0, 4, 5, 2)]).unwrap();
        assert_eq!(p.capacity_at(Time(0)), 10);
        assert_eq!(p.capacity_at(Time(2)), 6);
        assert_eq!(p.capacity_at(Time(6)), 6);
        assert_eq!(p.capacity_at(Time(7)), 10);
        assert_eq!(p.min_capacity(), 6);
    }

    #[test]
    fn from_reservations_detects_infeasible() {
        let err = ResourceProfile::from_reservations(4, &[r(0, 3, 5, 0), r(1, 2, 5, 2)]);
        let (at, req) = err.unwrap_err();
        assert_eq!(at, Time(2));
        assert_eq!(req, 5);
    }

    #[test]
    fn min_capacity_in_window() {
        let p = ResourceProfile::from_reservations(10, &[r(0, 4, 5, 2), r(1, 2, 2, 8)]).unwrap();
        assert_eq!(p.min_capacity_in(Time(0), Dur(2)), 10);
        assert_eq!(p.min_capacity_in(Time(0), Dur(3)), 6);
        assert_eq!(p.min_capacity_in(Time(7), Dur(1)), 10);
        assert_eq!(p.min_capacity_in(Time(7), Dur(3)), 8);
        assert_eq!(p.min_capacity_in(Time(3), Dur(0)), 6);
    }

    #[test]
    fn earliest_fit_simple() {
        let p = ResourceProfile::from_reservations(10, &[r(0, 8, 4, 2)]).unwrap();
        // A 4-wide job of length 3 cannot fit across [2,6): earliest start 6.
        assert_eq!(p.earliest_fit(4, Dur(3), Time(0)), Some(Time(6)));
        // A 2-wide job fits at 0.
        assert_eq!(p.earliest_fit(2, Dur(3), Time(0)), Some(Time(0)));
        // A 4-wide job of length 2 fits at 0 (window [0,2) is before the hole).
        assert_eq!(p.earliest_fit(4, Dur(2), Time(0)), Some(Time(0)));
        // not_before is respected.
        assert_eq!(p.earliest_fit(2, Dur(1), Time(5)), Some(Time(5)));
        assert_eq!(p.earliest_fit(4, Dur(3), Time(3)), Some(Time(6)));
    }

    #[test]
    fn earliest_fit_too_wide() {
        let p = ResourceProfile::constant(4);
        assert_eq!(p.earliest_fit(5, Dur(1), Time(0)), None);
        assert_eq!(p.earliest_fit(4, Dur(1), Time(0)), Some(Time(0)));
    }

    #[test]
    fn earliest_fit_with_long_tail() {
        // A very long reservation: a 3-wide job that does not fit before it
        // must wait until the reservation ends.
        let tail = 1_000_000u64;
        let p = ResourceProfile::from_reservations(4, &[r(0, 2, tail, 10)]).unwrap();
        assert_eq!(p.earliest_fit(3, Dur(5), Time(0)), Some(Time(0)));
        assert_eq!(p.earliest_fit(3, Dur(11), Time(0)), Some(Time(10 + tail)));
        assert_eq!(p.earliest_fit(2, Dur(100), Time(0)), Some(Time(0)));
    }

    #[test]
    fn earliest_fit_multiple_holes() {
        let p =
            ResourceProfile::from_reservations(6, &[r(0, 4, 2, 2), r(1, 4, 2, 6), r(2, 5, 2, 10)])
                .unwrap();
        // 3-wide, length 3: [0,2) too short before first hole, between holes
        // windows [4,6) and [8,10) are length 2 (too short), so first fit is 12.
        assert_eq!(p.earliest_fit(3, Dur(3), Time(0)), Some(Time(12)));
        // length 2 fits immediately in [0,2).
        assert_eq!(p.earliest_fit(3, Dur(2), Time(0)), Some(Time(0)));
        // starting from t=1 the window [1,3) hits the first hole: next fit is 4.
        assert_eq!(p.earliest_fit(3, Dur(2), Time(1)), Some(Time(4)));
    }

    #[test]
    fn reserve_and_release_roundtrip() {
        let mut p = ResourceProfile::constant(8);
        let original = p.clone();
        p.reserve(Time(3), Dur(4), 5).unwrap();
        assert_eq!(p.capacity_at(Time(3)), 3);
        assert_eq!(p.capacity_at(Time(6)), 3);
        assert_eq!(p.capacity_at(Time(7)), 8);
        p.release(Time(3), Dur(4), 5).unwrap();
        assert_eq!(p, original);
    }

    #[test]
    fn reserve_insufficient_is_atomic() {
        let mut p = ResourceProfile::from_reservations(8, &[r(0, 6, 4, 2)]).unwrap();
        let before = p.clone();
        let err = p.reserve(Time(0), Dur(4), 4).unwrap_err();
        assert!(matches!(err, ProfileError::InsufficientCapacity { .. }));
        assert_eq!(p, before, "failed reserve must not modify the profile");
    }

    #[test]
    fn release_above_base_rejected() {
        let mut p = ResourceProfile::constant(8);
        let err = p.release(Time(0), Dur(1), 1).unwrap_err();
        assert!(matches!(err, ProfileError::ReleaseAboveBase { .. }));
    }

    #[test]
    fn zero_duration_window_rejected() {
        let mut p = ResourceProfile::constant(8);
        assert_eq!(
            p.reserve(Time(0), Dur(0), 1).unwrap_err(),
            ProfileError::EmptyWindow
        );
        assert_eq!(
            p.release(Time(0), Dur(0), 1).unwrap_err(),
            ProfileError::EmptyWindow
        );
    }

    #[test]
    fn zero_width_is_noop() {
        let mut p = ResourceProfile::constant(8);
        let before = p.clone();
        p.reserve(Time(0), Dur(5), 0).unwrap();
        p.release(Time(0), Dur(5), 0).unwrap();
        assert_eq!(p, before);
        assert_eq!(p.earliest_fit(0, Dur(3), Time(7)), Some(Time(7)));
    }

    #[test]
    fn available_area() {
        let p = ResourceProfile::from_reservations(10, &[r(0, 4, 5, 2)]).unwrap();
        // [0,2): 10*2=20, [2,7): 6*5=30, [7,10): 10*3=30.
        assert_eq!(p.available_area(Time(2)), 20);
        assert_eq!(p.available_area(Time(7)), 50);
        assert_eq!(p.available_area(Time(10)), 80);
        assert_eq!(p.available_area(Time(0)), 0);
    }

    #[test]
    fn earliest_time_with_area() {
        let p = ResourceProfile::from_reservations(10, &[r(0, 4, 5, 2)]).unwrap();
        assert_eq!(p.earliest_time_with_area(0), Some(Time(0)));
        assert_eq!(p.earliest_time_with_area(20), Some(Time(2)));
        assert_eq!(p.earliest_time_with_area(26), Some(Time(3)));
        assert_eq!(p.earliest_time_with_area(50), Some(Time(7)));
        assert_eq!(p.earliest_time_with_area(60), Some(Time(8)));
    }

    #[test]
    fn earliest_time_with_area_skips_blocked_window() {
        // The whole machine is reserved during [10, 20): demand beyond the
        // first 40 units of area must wait until the reservation ends.
        let p = ResourceProfile::from_reservations(4, &[r(0, 4, 10, 10)]).unwrap();
        assert_eq!(p.earliest_time_with_area(40), Some(Time(10)));
        assert_eq!(p.earliest_time_with_area(41), Some(Time(21)));
        assert_eq!(p.earliest_time_with_area(44), Some(Time(21)));
        assert_eq!(p.earliest_time_with_area(45), Some(Time(22)));
    }

    #[test]
    fn clamped_profile() {
        let p = ResourceProfile::from_reservations(10, &[r(0, 4, 5, 2)]).unwrap();
        let c = p.clamped(5);
        assert_eq!(c.base(), 5);
        assert_eq!(c.capacity_at(Time(0)), 5);
        assert_eq!(c.capacity_at(Time(3)), 5);
        let c2 = p.clamped(3);
        assert_eq!(c2.capacity_at(Time(3)), 3);
    }

    #[test]
    fn next_change_after() {
        let p = ResourceProfile::from_reservations(10, &[r(0, 4, 5, 2)]).unwrap();
        assert_eq!(p.next_change_after(Time(0)), Some(Time(2)));
        assert_eq!(p.next_change_after(Time(2)), Some(Time(7)));
        assert_eq!(p.next_change_after(Time(7)), None);
        assert_eq!(p.last_change(), Time(7));
    }

    #[test]
    fn display_contains_steps() {
        let p = ResourceProfile::from_reservations(10, &[r(0, 4, 5, 2)]).unwrap();
        let s = p.to_string();
        assert!(s.contains("m=10"));
        assert!(s.contains("t2:6"));
    }

    #[test]
    fn normalization_merges_equal_caps() {
        let mut p = ResourceProfile::constant(8);
        p.reserve(Time(2), Dur(2), 3).unwrap();
        p.reserve(Time(4), Dur(2), 3).unwrap();
        // [2,6) at capacity 5 should be a single step.
        assert_eq!(p.steps().len(), 3);
        assert_eq!(p.capacity_at(Time(5)), 5);
    }
}
