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
//! A snapshot is the live timeline's chunk **directory** with every leaf
//! block shared: `freeze` clones the contiguous array of 32-byte chunk heads
//! and bumps the blocks' reference counts — `O(B / C)` for `B` breakpoints in
//! chunks of `C` (see [`crate::timeline`]) — and the writer's next mutation
//! copies only the blocks it touches. Readers run the *same* read code as
//! the live timeline (head summaries skip whole chunks, scans stay inside
//! one), on plain immutable data: no synchronization once they hold the
//! snapshot.
//!
//! An earlier revision froze an independent normalized copy (`to_profile`,
//! `O(B)`) on the argument that `B` is small because the service retires
//! availability behind its clock. Retirement bounds *history*, not the
//! standing overlay: on the one benchmark workload built to test it
//! (`serve-probe`, 2 000 standing reservations, `B` ≈ 4 026,
//! `sim.concurrent.ops_per_batch` = 1.0) the copy read
//! `core.snapshot.freeze_us` = 42.4 µs — three times per
//! reserve/cancel/advance round, next to a 127.8 µs `reserve` and a 36.2 µs
//! `cancel` that rebuilt state they had not touched — 53 % of the server's
//! CPU per session. Sharing blocks costs the reader one pointer per chunk
//! it actually scans.
//!
//! Every snapshot carries the **generation** the writer stamped it with — a
//! monotone counter incremented per published batch — so readers can reason
//! about staleness ("answers reflect generation `g`") and the service can
//! guarantee read-your-writes by ordering publication before reply
//! delivery.
//!
//! [`TimelineSnapshot::profile`] still hands out the normalized step
//! function — materialized on first use (`O(B)`), off the serving path.
//! Property tests below pin snapshot answers query-for-query to the live
//! substrate they were frozen from, and every snapshot of a mutation script
//! to the profile taken at its own instant (the copy-on-write oracle).

use crate::capacity::{CapacityQuery, Speculate};
use crate::profile::ResourceProfile;
use crate::time::{Dur, Time};
use crate::timeline::{AvailabilityTimeline, Directory};
use std::sync::OnceLock;

/// An immutable, generation-stamped view of an availability function,
/// frozen from a live substrate by [`Snapshotable::freeze`].
///
/// All queries are `&self` and the type is `Send + Sync`, so a snapshot
/// behind an `Arc` can be read from any number of threads concurrently
/// with zero coordination.
#[derive(Debug, Clone)]
pub struct TimelineSnapshot {
    generation: u64,
    frozen: Directory,
    /// The normalized step function, materialized by the first
    /// [`TimelineSnapshot::profile`] call.
    profile: OnceLock<ResourceProfile>,
}

impl PartialEq for TimelineSnapshot {
    /// Snapshots compare by generation and by the function they froze, not
    /// by how it is chunked.
    fn eq(&self, other: &Self) -> bool {
        self.generation == other.generation && self.profile() == other.profile()
    }
}

impl Eq for TimelineSnapshot {}

impl TimelineSnapshot {
    /// Wrap an already-normalized profile as a snapshot stamped with
    /// `generation`. Prefer [`Snapshotable::freeze`] on a live substrate.
    pub fn new(generation: u64, profile: ResourceProfile) -> Self {
        TimelineSnapshot {
            generation,
            frozen: Directory::from_steps(profile.base(), profile.steps()),
            profile: OnceLock::from(profile),
        }
    }

    /// The writer-assigned publication generation: answers from this
    /// snapshot reflect every batch up to and including this one.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The frozen availability function, normalized. `O(B)` on the first
    /// call, which materializes it; the queries below never need it.
    pub fn profile(&self) -> &ResourceProfile {
        self.profile.get_or_init(|| self.frozen.to_profile())
    }

    /// Total number of machines in the cluster (`m`).
    #[inline]
    pub fn base(&self) -> u32 {
        self.frozen.base()
    }

    /// Capacity available at time `t`.
    #[inline]
    pub fn capacity_at(&self, t: Time) -> u32 {
        self.frozen.capacity_at(t)
    }

    /// Minimum capacity over the half-open window `[start, start + dur)`.
    #[inline]
    pub fn min_capacity_in(&self, start: Time, dur: Dur) -> u32 {
        self.frozen.min_capacity_in(start, dur)
    }

    /// Earliest `t ≥ not_before` with `width` processors available
    /// throughout `[t, t + dur)`, or `None` if no such time exists.
    #[inline]
    pub fn earliest_fit(&self, width: u32, dur: Dur, not_before: Time) -> Option<Time> {
        self.frozen.earliest_fit(width, dur, not_before)
    }

    /// The first instant strictly after `t` at which capacity changes.
    #[inline]
    pub fn next_change_after(&self, t: Time) -> Option<Time> {
        self.frozen.next_change_after(t)
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
    /// Clone the chunk directory and share every leaf block: `O(B / C)`,
    /// no leaf is read.
    fn freeze(&self, generation: u64) -> TimelineSnapshot {
        TimelineSnapshot {
            generation,
            frozen: self.freeze_directory(),
            profile: OnceLock::new(),
        }
    }
}

impl Snapshotable for ResourceProfile {
    /// The reference substrate is already its own normal form; it is
    /// chunked once (`from_profile`) so its snapshots read like any other.
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
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::reservation::Reservation;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The copy-on-write oracle: freeze after every op of a 64-op
        /// script — reserves, releases, retirement, nested transactions,
        /// frozen mid-transaction too — and keep each snapshot beside the
        /// profile taken at that instant. After the last op every snapshot
        /// must still be its own profile, query for query: no later write
        /// may have reached a block an earlier snapshot shares.
        #[test]
        fn snapshots_survive_every_later_write(
            m in 2u32..=10,
            ops in proptest::collection::vec((0u32..=6, 0u64..120, 1u64..=20, 1u32..=6), 64usize),
            queries in proptest::collection::vec((1u32..=10, 1u64..=12, 0u64..=150), 1usize..=8),
        ) {
            let mut tl = AvailabilityTimeline::constant(m);
            let mut marks = Vec::new();
            let mut frozen: Vec<(TimelineSnapshot, ResourceProfile)> = Vec::new();
            for (generation, &(kind, s, d, w)) in (0u64..).zip(&ops) {
                match kind {
                    0 | 1 => drop(tl.reserve(Time(s), Dur(d), w.min(m))),
                    2 => drop(tl.release(Time(s), Dur(d), w.min(m))),
                    3 => tl.retire_before(Time(s / 4)),
                    4 => marks.push(tl.checkpoint()),
                    5 => marks.pop().into_iter().for_each(|mark| tl.rollback_to(mark)),
                    _ => marks.pop().into_iter().for_each(|mark| tl.commit(mark)),
                }
                frozen.push((tl.freeze(generation), tl.to_profile()));
            }
            for (snap, profile) in &frozen {
                let generation = snap.generation();
                prop_assert_eq!(snap.profile(), profile, "generation {}", generation);
                for &(w, d, from) in &queries {
                    prop_assert_eq!(
                        snap.earliest_fit(w, Dur(d), Time(from)),
                        profile.earliest_fit(w, Dur(d), Time(from)),
                        "generation {}", generation
                    );
                    prop_assert_eq!(snap.capacity_at(Time(from)), profile.capacity_at(Time(from)));
                    prop_assert_eq!(
                        snap.min_capacity_in(Time(from), Dur(d)),
                        profile.min_capacity_in(Time(from), Dur(d))
                    );
                    prop_assert_eq!(
                        snap.next_change_after(Time(from)),
                        profile.next_change_after(Time(from))
                    );
                }
            }
        }

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
