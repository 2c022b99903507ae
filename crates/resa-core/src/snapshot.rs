//! Frozen, generation-stamped snapshots of an availability substrate.
//!
//! The concurrent service architecture (`resa-sim`'s `ConcurrentService`)
//! is a batched single writer plus any number of lock-free readers: the
//! writer applies mutating requests to the live substrate and, at every
//! transaction boundary, *publishes* an immutable view of the availability
//! function; `query`/`stats` probes then run on the callers' threads
//! against the latest published view, never touching the writer's state.
//! [`TimelineSnapshot`] is that view, and [`Snapshotable`] is the one extra
//! capability the writer needs from its substrate to produce it.
//!
//! # Design
//!
//! A snapshot is the *normalized* step function of the substrate at freeze
//! time — exactly what [`AvailabilityTimeline::to_profile`] already
//! computes: the flat SoA lanes of the PR 6 layout make materializing every
//! leaf capacity a memcpy-class sweep (`O(B)`), after which the snapshot is
//! plain immutable data. Freezing deliberately produces an independent copy
//! rather than a persistent shared structure: `B` is small — the resident
//! service calls [`CapacityQuery::retire_before`] as its clock advances, so
//! the substrate it freezes holds the breakpoints of running jobs and of
//! windows reaching past `now` (plus at most 64 completions' worth not yet
//! dropped), however long the session has run; compaction alone only
//! removes the splits speculation leaves behind, not history. A copy of
//! that is cheaper than the pointer-chasing a chunk-sharing variant would
//! reintroduce on every read descent, and immutability by construction
//! means readers need no synchronization at all once they hold the
//! snapshot.
//!
//! Every snapshot carries the **generation** the writer stamped it with — a
//! monotone counter incremented per published batch — so readers can reason
//! about staleness ("answers reflect generation `g`") and the service can
//! guarantee read-your-writes by ordering publication before reply
//! delivery.
//!
//! # Probing a snapshot
//!
//! Read-only queries ([`TimelineSnapshot::earliest_fit`] & friends)
//! delegate to the inner normalized profile. For probes that want the full
//! *speculative* semantics of [`Speculate`] — mutate freely, observe, undo
//! — [`TimelineSnapshot::probe`] runs the closure on a scratch clone of the
//! profile, which is the same clone-and-restore contract
//! `ResourceProfile::speculate` provides on the live path. Property tests
//! below pin snapshot answers query-for-query to the live substrate they
//! were frozen from.

use crate::capacity::{CapacityQuery, Speculate};
use crate::profile::ResourceProfile;
use crate::time::{Dur, Time};
use crate::timeline::AvailabilityTimeline;

/// An immutable, generation-stamped view of an availability function,
/// frozen from a live substrate by [`Snapshotable::freeze`].
///
/// All queries are `&self` and the type is `Send + Sync`, so a snapshot
/// behind an `Arc` can be read from any number of threads concurrently
/// with zero coordination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineSnapshot {
    generation: u64,
    profile: ResourceProfile,
}

impl TimelineSnapshot {
    /// Wrap an already-normalized profile as a snapshot stamped with
    /// `generation`. Prefer [`Snapshotable::freeze`] on a live substrate.
    pub fn new(generation: u64, profile: ResourceProfile) -> Self {
        TimelineSnapshot {
            generation,
            profile,
        }
    }

    /// The writer-assigned publication generation: answers from this
    /// snapshot reflect every batch up to and including this one.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The frozen availability function, normalized.
    #[inline]
    pub fn profile(&self) -> &ResourceProfile {
        &self.profile
    }

    /// Total number of machines in the cluster (`m`).
    #[inline]
    pub fn base(&self) -> u32 {
        self.profile.base()
    }

    /// Capacity available at time `t`.
    #[inline]
    pub fn capacity_at(&self, t: Time) -> u32 {
        self.profile.capacity_at(t)
    }

    /// Minimum capacity over the half-open window `[start, start + dur)`.
    #[inline]
    pub fn min_capacity_in(&self, start: Time, dur: Dur) -> u32 {
        self.profile.min_capacity_in(start, dur)
    }

    /// Earliest `t ≥ not_before` with `width` processors available
    /// throughout `[t, t + dur)`, or `None` if no such time exists.
    #[inline]
    pub fn earliest_fit(&self, width: u32, dur: Dur, not_before: Time) -> Option<Time> {
        self.profile.earliest_fit(width, dur, not_before)
    }

    /// The first instant strictly after `t` at which capacity changes.
    #[inline]
    pub fn next_change_after(&self, t: Time) -> Option<Time> {
        self.profile.next_change_after(t)
    }

    /// Run a speculative probe against the frozen function with the same
    /// contract as [`Speculate::speculate`] on a live substrate: the
    /// closure may mutate freely and every mutation is discarded. The
    /// snapshot itself is untouched (it is immutable); the probe runs on a
    /// scratch clone, `O(B)` to set up.
    pub fn probe<T>(&self, probe: impl FnOnce(&mut ResourceProfile) -> T) -> T {
        let mut scratch = self.profile.clone();
        probe(&mut scratch)
    }
}

/// Substrates a single-writer service can publish immutable views of.
///
/// `freeze` must capture the *currently represented* availability function;
/// the writer calls it at transaction boundaries only (no mark
/// outstanding), stamping each snapshot with the publication generation of
/// the batch that produced it.
pub trait Snapshotable: CapacityQuery + Speculate {
    /// Freeze the current availability function into an immutable snapshot
    /// stamped with `generation`.
    fn freeze(&self, generation: u64) -> TimelineSnapshot;
}

impl Snapshotable for AvailabilityTimeline {
    /// One sweep over the flat lanes (`to_profile`): materialize every leaf
    /// capacity, normalize, done. The compaction trigger bounds the splits
    /// probe-heavy workloads leave behind and the caller's `retire_before`
    /// bounds history, so this stays cheap for the lifetime of the service.
    fn freeze(&self, generation: u64) -> TimelineSnapshot {
        TimelineSnapshot::new(generation, self.to_profile())
    }
}

impl Snapshotable for ResourceProfile {
    /// The reference substrate is already its own normal form; freezing is
    /// a straight clone.
    fn freeze(&self, generation: u64) -> TimelineSnapshot {
        TimelineSnapshot::new(generation, self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reservation::Reservation;

    fn staircase() -> AvailabilityTimeline {
        let rs = [
            Reservation::new(0, 3, 5u64, 2u64),
            Reservation::new(1, 6, 4u64, 8u64),
            Reservation::new(2, 1, 2u64, 20u64),
        ];
        AvailabilityTimeline::from_reservations(8, &rs).unwrap()
    }

    #[test]
    fn freeze_captures_the_current_function() {
        let tl = staircase();
        let snap = tl.freeze(7);
        assert_eq!(snap.generation(), 7);
        assert_eq!(snap.base(), 8);
        assert_eq!(*snap.profile(), tl.to_profile());
        for t in 0..25 {
            assert_eq!(snap.capacity_at(Time(t)), tl.capacity_at(Time(t)), "t={t}");
        }
    }

    #[test]
    fn both_substrates_freeze_identically() {
        let tl = staircase();
        let p = tl.to_profile();
        assert_eq!(tl.freeze(1), p.freeze(1));
        assert_ne!(tl.freeze(1), p.freeze(2), "generation is part of identity");
    }

    #[test]
    fn snapshot_queries_match_the_live_substrate() {
        let mut tl = staircase();
        // Dirty the live timeline with speculative churn first: the frozen
        // view must reflect the committed function, splits and all.
        tl.speculate(|s| {
            s.reserve(Time(3), Dur(9), 2).unwrap();
            s.earliest_fit(4, Dur(6), Time::ZERO)
        });
        let snap = tl.freeze(0);
        for width in 1..=8 {
            for dur in 1..=6u64 {
                for from in 0..24 {
                    assert_eq!(
                        snap.earliest_fit(width, Dur(dur), Time(from)),
                        tl.earliest_fit(width, Dur(dur), Time(from)),
                        "earliest_fit({width}, {dur}, {from})"
                    );
                }
            }
        }
        for t in 0..24 {
            assert_eq!(
                snap.min_capacity_in(Time(t), Dur(5)),
                tl.min_capacity_in(Time(t), Dur(5))
            );
            assert_eq!(
                snap.next_change_after(Time(t)),
                tl.next_change_after(Time(t))
            );
        }
    }

    #[test]
    fn freeze_is_independent_of_later_writes() {
        let mut tl = AvailabilityTimeline::constant(4);
        let snap = tl.freeze(0);
        tl.reserve(Time(0), Dur(10), 4).unwrap();
        assert_eq!(snap.capacity_at(Time(0)), 4, "snapshot must not alias");
        assert_eq!(tl.capacity_at(Time(0)), 0);
    }

    #[test]
    fn probe_has_speculate_semantics() {
        let tl = staircase();
        let snap = tl.freeze(0);
        let before = snap.profile().clone();
        // The probe sees its own mutations...
        let fit = snap.probe(|p| {
            p.reserve(Time(0), Dur(30), 2).unwrap();
            p.earliest_fit(4, Dur(2), Time::ZERO)
        });
        // ...and matches what the live speculate path would answer.
        let mut live = staircase();
        let live_fit = live.speculate(|s| {
            s.reserve(Time(0), Dur(30), 2).unwrap();
            s.earliest_fit(4, Dur(2), Time::ZERO)
        });
        assert_eq!(fit, live_fit);
        assert_eq!(*snap.profile(), before, "probe must leave no trace");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::reservation::Reservation;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A snapshot frozen from a randomly built timeline answers every
        /// query exactly like the live substrate at freeze time.
        #[test]
        fn snapshot_agrees_with_live(
            m in 2u32..=10,
            res in proptest::collection::vec((1u32..=4, 1u64..=8, 0u64..=30), 0usize..=6),
            queries in proptest::collection::vec((1u32..=10, 1u64..=8, 0u64..=40), 1usize..=20),
        ) {
            let rs: Vec<Reservation> = res
                .iter()
                .enumerate()
                .map(|(i, &(w, d, s))| Reservation::new(i, w.min(m), d, s))
                .collect();
            // Infeasible overlays are skipped: nothing to compare.
            if let Ok(tl) = AvailabilityTimeline::from_reservations(m, &rs) {
                let snap = tl.freeze(42);
                prop_assert_eq!(snap.generation(), 42);
                for &(w, d, from) in &queries {
                    prop_assert_eq!(
                        snap.earliest_fit(w, Dur(d), Time(from)),
                        tl.earliest_fit(w, Dur(d), Time(from))
                    );
                    prop_assert_eq!(snap.capacity_at(Time(from)), tl.capacity_at(Time(from)));
                    prop_assert_eq!(
                        snap.min_capacity_in(Time(from), Dur(d)),
                        tl.min_capacity_in(Time(from), Dur(d))
                    );
                    prop_assert_eq!(
                        snap.next_change_after(Time(from)),
                        tl.next_change_after(Time(from))
                    );
                }
            }
        }
    }
}
