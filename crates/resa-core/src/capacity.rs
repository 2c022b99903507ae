//! The [`CapacityQuery`] abstraction over availability substrates.
//!
//! Every scheduler of the workspace asks the same five questions of the
//! cluster's availability timeline `m(t) = m − U(t)` (§2 of the paper):
//! *how much capacity is there at `t`*, *what is the minimum over a window*,
//! *where is the earliest window that fits a job*, *when does availability
//! change next*, and *withdraw/return processors over a window*. This trait
//! captures exactly that contract so algorithms can be written once and run
//! against either backend:
//!
//! * [`crate::profile::ResourceProfile`] — the canonical normalized
//!   breakpoint list; linear-scan queries, the reference implementation;
//! * [`crate::timeline::AvailabilityTimeline`] — the chunked timeline under
//!   a directory of per-chunk summaries; queries skip whole chunks and a
//!   write costs what it changes, the production backend.
//!
//! The two are interconvertible without loss (see
//! [`crate::timeline::AvailabilityTimeline::to_profile`]) and the property
//! tests in this crate assert query-for-query agreement between them.

use crate::error::ProfileError;
use crate::profile::ResourceProfile;
use crate::time::{Dur, Time};

/// Query/update interface over a piecewise-constant availability function.
///
/// Semantics mirror the documented behaviour of
/// [`ResourceProfile`]: windows are
/// half-open `[start, start + dur)`, `reserve`/`release` are atomic (a failed
/// call leaves the substrate untouched), and `earliest_fit` returns the first
/// instant `t ≥ not_before` such that `width` processors are available
/// throughout `[t, t + dur)`.
pub trait CapacityQuery {
    /// Total number of machines in the cluster (`m`).
    fn base(&self) -> u32;

    /// Capacity available at time `t`.
    fn capacity_at(&self, t: Time) -> u32;

    /// Minimum capacity over the half-open window `[start, start + dur)`;
    /// the capacity at `start` when `dur` is zero.
    fn min_capacity_in(&self, start: Time, dur: Dur) -> u32;

    /// Earliest `t ≥ not_before` with at least `width` processors available
    /// throughout `[t, t + dur)`, or `None` if no such time exists.
    fn earliest_fit(&self, width: u32, dur: Dur, not_before: Time) -> Option<Time>;

    /// The first instant strictly after `t` at which the capacity changes.
    fn next_change_after(&self, t: Time) -> Option<Time>;

    /// Materialize the free-capacity step function over `[start, end)` into
    /// `out` (cleared first): normalized `(time, capacity)` breakpoints whose
    /// first entry sits at `start` and whose adjacent capacities are
    /// distinct. Empty output iff `end ≤ start`.
    ///
    /// This reads the whole window in one pass (the service's derived-state
    /// oracle compares overlays this way).
    fn capacity_profile_in(&self, start: Time, end: Time, out: &mut Vec<(Time, u32)>) {
        out.clear();
        if end <= start {
            return;
        }
        let mut cap = self.capacity_at(start);
        out.push((start, cap));
        let mut t = start;
        while let Some(next) = self.next_change_after(t) {
            if next >= end {
                break;
            }
            let c = self.capacity_at(next);
            if c != cap {
                out.push((next, c));
                cap = c;
            }
            t = next;
        }
    }

    /// Forget the availability function before `t`: queries at instants
    /// `≥ t` answer exactly as before, values before `t` become unspecified,
    /// and the substrate may drop every breakpoint that only the past
    /// needed. Streaming engines call this as virtual time advances so a
    /// substrate's live state tracks the *active* horizon instead of growing
    /// with the whole simulated history. Default: no-op (keeping history is
    /// always correct, just larger).
    fn retire_before(&mut self, _t: Time) {}

    /// Withdraw `width` processors during `[start, start + dur)`.
    fn reserve(&mut self, start: Time, dur: Dur, width: u32) -> Result<(), ProfileError>;

    /// Return `width` processors during `[start, start + dur)`.
    fn release(&mut self, start: Time, dur: Dur, width: u32) -> Result<(), ProfileError>;
}

/// Substrates that can run a *speculative* probe: mutate freely inside the
/// closure, with the guarantee that every mutation is undone before the call
/// returns.
///
/// This is the capability the what-if paths of `resa serve` (drain
/// injection, deadline admission) need from their availability substrate:
///
/// * [`crate::timeline::AvailabilityTimeline`] implements it through the
///   transactional layer — `checkpoint` → probe → `rollback_to` — so the
///   restore costs `O(ops · chunk)`, proportional to what the probe actually
///   touched;
/// * [`ResourceProfile`] implements it by clone-and-restore (`O(B)`), the
///   reference semantics the timeline's rollback is property-tested against.
///
/// The closure must leave no transaction marks of its own outstanding (on
/// the timeline, marks taken inside the probe are consumed by the enclosing
/// rollback, which is exactly the nested-mark stack discipline).
pub trait Speculate: CapacityQuery {
    /// Run `probe` with mutable access to the substrate and undo all of its
    /// mutations before returning its result.
    fn speculate<T>(&mut self, probe: impl FnOnce(&mut Self) -> T) -> T;
}

impl Speculate for ResourceProfile {
    fn speculate<T>(&mut self, probe: impl FnOnce(&mut Self) -> T) -> T {
        let saved = self.clone();
        let out = probe(self);
        *self = saved;
        out
    }
}

impl Speculate for crate::timeline::AvailabilityTimeline {
    fn speculate<T>(&mut self, probe: impl FnOnce(&mut Self) -> T) -> T {
        let mark = self.checkpoint();
        let out = probe(self);
        self.rollback_to(mark);
        out
    }
}

impl CapacityQuery for ResourceProfile {
    fn base(&self) -> u32 {
        ResourceProfile::base(self)
    }

    fn capacity_at(&self, t: Time) -> u32 {
        ResourceProfile::capacity_at(self, t)
    }

    fn min_capacity_in(&self, start: Time, dur: Dur) -> u32 {
        ResourceProfile::min_capacity_in(self, start, dur)
    }

    fn earliest_fit(&self, width: u32, dur: Dur, not_before: Time) -> Option<Time> {
        ResourceProfile::earliest_fit(self, width, dur, not_before)
    }

    fn next_change_after(&self, t: Time) -> Option<Time> {
        ResourceProfile::next_change_after(self, t)
    }

    fn capacity_profile_in(&self, start: Time, end: Time, out: &mut Vec<(Time, u32)>) {
        out.clear();
        if end <= start {
            return;
        }
        // The steps are already normalized; emit the step covering `start`
        // (clamped to it) plus every breakpoint strictly inside the window.
        out.push((start, self.capacity_at(start)));
        let from = self.steps().partition_point(|&(bt, _)| bt <= start);
        for &(bt, cap) in &self.steps()[from..] {
            if bt >= end {
                break;
            }
            out.push((bt, cap));
        }
    }

    fn retire_before(&mut self, t: Time) {
        ResourceProfile::retire_before(self, t)
    }

    fn reserve(&mut self, start: Time, dur: Dur, width: u32) -> Result<(), ProfileError> {
        ResourceProfile::reserve(self, start, dur, width)
    }

    fn release(&mut self, start: Time, dur: Dur, width: u32) -> Result<(), ProfileError> {
        ResourceProfile::release(self, start, dur, width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::AvailabilityTimeline;

    fn exercise<C: CapacityQuery>(c: &mut C) -> Vec<u64> {
        let mut log = vec![c.base() as u64, c.capacity_at(Time(3)) as u64];
        log.push(c.min_capacity_in(Time(1), Dur(5)) as u64);
        log.push(
            c.earliest_fit(3, Dur(4), Time::ZERO)
                .map_or(u64::MAX, Time::ticks),
        );
        c.reserve(Time(2), Dur(2), 1).unwrap();
        log.push(c.capacity_at(Time(2)) as u64);
        log.push(
            c.next_change_after(Time::ZERO)
                .map_or(u64::MAX, Time::ticks),
        );
        c.release(Time(2), Dur(2), 1).unwrap();
        log.push(c.capacity_at(Time(2)) as u64);
        log
    }

    /// Both implementors answer an interleaved query/update sequence
    /// identically through the trait.
    #[test]
    fn backends_agree_through_the_trait() {
        let mut profile = ResourceProfile::constant(4);
        let mut timeline = AvailabilityTimeline::constant(4);
        assert_eq!(exercise(&mut profile), exercise(&mut timeline));
    }

    fn staircase() -> ResourceProfile {
        let mut p = ResourceProfile::constant(8);
        p.reserve(Time(2), Dur(3), 3).unwrap();
        p.reserve(Time(5), Dur(4), 6).unwrap();
        p.reserve(Time(12), Dur(2), 1).unwrap();
        p
    }

    #[test]
    fn capacity_profile_in_is_normalized_and_agrees() {
        let p = staircase();
        let tl = AvailabilityTimeline::from(&p);
        let mut from_profile = Vec::new();
        let mut from_timeline = Vec::new();
        for (s, e) in [(0u64, 20u64), (3, 6), (2, 5), (6, 6), (4, 30), (13, 14)] {
            CapacityQuery::capacity_profile_in(&p, Time(s), Time(e), &mut from_profile);
            tl.capacity_profile_in(Time(s), Time(e), &mut from_timeline);
            assert_eq!(from_profile, from_timeline, "window [{s}, {e})");
            if s < e {
                assert_eq!(from_profile[0].0, Time(s));
                assert!(from_profile
                    .windows(2)
                    .all(|w| w[0].1 != w[1].1 && w[0].0 < w[1].0));
                for t in s..e {
                    let cap =
                        from_profile[from_profile.partition_point(|&(bt, _)| bt <= Time(t)) - 1].1;
                    assert_eq!(cap, p.capacity_at(Time(t)), "t={t}");
                }
            } else {
                assert!(from_profile.is_empty());
            }
        }
    }

    /// `retire_before(t)` must leave every query at an instant `≥ t`
    /// untouched on both backends while actually shedding the breakpoints
    /// only the past needed.
    #[test]
    fn retire_before_preserves_the_future_and_sheds_history() {
        let mut p = staircase();
        let mut tl = AvailabilityTimeline::from(&p);
        let horizon = Time(7);
        let caps: Vec<u32> = (7..20).map(|t| p.capacity_at(Time(t))).collect();
        let fits: Vec<Option<Time>> = (1..=8)
            .map(|w| p.earliest_fit(w, Dur(3), horizon))
            .collect();
        let steps_before = p.steps().len();

        p.retire_before(horizon);
        tl.retire_before(horizon);

        assert!(p.steps().len() < steps_before, "no history was shed");
        for (i, t) in (7..20).enumerate() {
            assert_eq!(p.capacity_at(Time(t)), caps[i], "profile at t={t}");
            assert_eq!(tl.capacity_at(Time(t)), caps[i], "timeline at t={t}");
        }
        for (i, w) in (1..=8).enumerate() {
            assert_eq!(p.earliest_fit(w, Dur(3), horizon), fits[i], "width {w}");
            assert_eq!(tl.earliest_fit(w, Dur(3), horizon), fits[i], "width {w}");
        }
        assert_eq!(
            p.min_capacity_in(Time(8), Dur(5)),
            tl.min_capacity_in(Time(8), Dur(5))
        );
        // New capacity can still be taken and returned at the horizon.
        p.reserve(Time(8), Dur(2), 2).unwrap();
        tl.reserve(Time(8), Dur(2), 2).unwrap();
        assert_eq!(p.capacity_at(Time(8)), tl.capacity_at(Time(8)));

        // Under an outstanding mark the timeline must refuse to retire:
        // the undo log re-derives leaf ranges from breakpoint times.
        let mut txn = AvailabilityTimeline::from(&staircase());
        let pristine = txn.to_profile();
        let mark = txn.checkpoint();
        txn.reserve(Time(6), Dur(4), 1).unwrap();
        txn.retire_before(Time(10));
        txn.rollback_to(mark);
        assert_eq!(txn.to_profile(), pristine);
    }

    #[test]
    fn speculate_restores_both_backends() {
        fn exercise<C: Speculate + Clone + PartialEq + std::fmt::Debug>(c: &mut C) {
            let before = c.clone();
            let fit = c.speculate(|s| {
                s.reserve(Time(2), Dur(5), 3).unwrap();
                s.release(Time(4), Dur(1), 1).unwrap();
                s.earliest_fit(4, Dur(3), Time::ZERO)
            });
            assert_eq!(&before, c, "speculation must leave no trace");
            // The probe saw its own mutations.
            assert_eq!(fit, Some(Time(7)));
        }
        let mut profile = ResourceProfile::constant(4);
        let mut timeline = AvailabilityTimeline::constant(4);
        exercise(&mut profile);
        exercise(&mut timeline);
        assert_eq!(timeline.to_profile(), profile);
    }

    #[test]
    fn speculate_nests() {
        let mut tl = AvailabilityTimeline::constant(8);
        let min = tl.speculate(|s| {
            s.reserve(Time(0), Dur(4), 2).unwrap();
            let inner = s.speculate(|s2| {
                s2.reserve(Time(0), Dur(4), 4).unwrap();
                s2.min_capacity_in(Time(0), Dur(4))
            });
            assert_eq!(inner, 2);
            s.min_capacity_in(Time(0), Dur(4))
        });
        assert_eq!(min, 6);
        assert_eq!(tl.min_capacity_in(Time(0), Dur(4)), 8);
        assert!(!tl.in_transaction());
    }
}
