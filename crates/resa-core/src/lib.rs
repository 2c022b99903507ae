//! # resa-core
//!
//! Model substrate for the reproduction of *"Analysis of Scheduling Algorithms
//! with Reservations"* (Eyraud-Dubois, Mounié, Trystram — IPDPS 2007).
//!
//! The crate defines the two scheduling problems studied by the paper and the
//! data structures every other crate of the workspace builds on:
//!
//! * [`RigidInstance`](prelude::RigidInstance) — RIGIDSCHEDULING
//!   (`P | p_j, size_j | C_max`): `n` rigid parallel jobs on `m` identical
//!   machines;
//! * [`ResaInstance`](prelude::ResaInstance) — RESASCHEDULING: the same
//!   problem with advance reservations that withdraw processors during fixed
//!   windows;
//! * [`Alpha`](prelude::Alpha) — the exact rational `α` of the α-restricted
//!   problem of §4.2 (`U(t) ≤ (1−α)m`, `q_i ≤ αm`);
//! * [`ResourceProfile`](prelude::ResourceProfile) — the piecewise-constant
//!   availability function `m(t) = m − U(t)` as a normalized breakpoint list,
//!   with linear-scan earliest-fit queries and reserve/release updates (the
//!   canonical representation and the oracle of the timeline's proptests);
//! * [`AvailabilityTimeline`](prelude::AvailabilityTimeline) — the same
//!   function in chunks of breakpoints under a directory of per-chunk
//!   summaries: reads skip whole chunks, a write costs what it changes,
//!   snapshots share the chunks; the backend every scheduler in `resa-algos`
//!   and `resa-sim` runs on;
//! * [`CapacityQuery`](capacity::CapacityQuery) — the trait both implement,
//!   so every algorithm is generic over the substrate;
//! * [`decision`] — the FCFS, EASY and greedy (LSRC) rules of §2.2, one
//!   decision each over a [`WaitList`](prelude::WaitList), run by the on-line
//!   policies and the off-line schedulers alike;
//! * [`Schedule`](prelude::Schedule) — start-time assignments, feasibility
//!   validation, makespan/utilization metrics and concrete processor
//!   assignments;
//! * [`lower_bound`](prelude::lower_bound) — a certified lower bound on the
//!   optimal makespan;
//! * [`io`] — the instance text format and the framed, checksummed record
//!   files under the service journal and the sweep shard logs;
//! * [`reservation`] — reservation windows and the unavailability function
//!   `U(t)` (its breakpoints, its peak, whether it is non-increasing).
//!
//! ## Quick example
//!
//! ```
//! use resa_core::prelude::*;
//!
//! // A 8-machine cluster, three jobs, one reservation taking 6 machines
//! // during [3, 7).
//! let instance = ResaInstanceBuilder::new(8)
//!     .job(4, 10u64)
//!     .job(2, 5u64)
//!     .job(8, 2u64)
//!     .reservation(6, 4u64, 3u64)
//!     .build()
//!     .unwrap();
//!
//! assert_eq!(instance.machines(), 8);
//! assert_eq!(instance.profile().capacity_at(Time(4)), 2);
//!
//! // Hand-build a schedule and validate it.
//! let mut schedule = Schedule::new();
//! schedule.place(JobId(1), Time(0)); // 2 procs for 5 ticks
//! schedule.place(JobId(0), Time(7)); // 4 procs after the reservation
//! schedule.place(JobId(2), Time(17)); // whole machine afterwards
//! assert!(schedule.is_valid(&instance));
//! assert_eq!(schedule.makespan(&instance), Time(19));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
pub mod capacity;
pub mod decision;
mod error;
mod gantt;
mod instance;
pub mod io;
mod job;
mod moldable;
mod profile;
pub mod reservation;
mod schedule;
mod snapshot;
mod time;
mod timeline;
mod waitlist;

/// Convenient glob import of the most frequently used items.
pub mod prelude {
    pub use crate::bounds::lower_bound;
    pub use crate::capacity::{CapacityQuery, Speculate};
    pub use crate::error::{ModelError, ProfileError};
    pub use crate::gantt::render_gantt;
    pub use crate::instance::{Alpha, ResaInstance, ResaInstanceBuilder, RigidInstance};
    pub use crate::io::{parse_instance, write_instance};
    pub use crate::job::{Job, JobId};
    pub use crate::moldable::{best_width, WidthChoice};
    pub use crate::profile::ResourceProfile;
    pub use crate::reservation::Reservation;
    pub use crate::schedule::{Placement, Schedule};
    pub use crate::snapshot::{Snapshotable, TimelineSnapshot};
    pub use crate::time::{Dur, Time};
    pub use crate::timeline::AvailabilityTimeline;
    pub use crate::waitlist::WaitList;
}

#[cfg(test)]
mod proptests {
    use crate::prelude::*;
    use crate::timeline::TxnMark;
    use proptest::prelude::*;

    /// Strategy: a small feasible ResaInstance.
    fn arb_instance() -> impl Strategy<Value = ResaInstance> {
        (2u32..=16, 1usize..=10, 0usize..=4).prop_flat_map(|(m, n_jobs, n_res)| {
            let jobs = proptest::collection::vec((1u32..=m, 1u64..=20), n_jobs);
            let reservations = proptest::collection::vec((1u32..=m, 1u64..=10), n_res);
            (Just(m), jobs, reservations).prop_map(|(m, jobs, reservations)| {
                let mut b = ResaInstanceBuilder::new(m);
                for (w, p) in jobs {
                    b = b.job(w, p);
                }
                for (i, (w, p)) in reservations.into_iter().enumerate() {
                    // Pairwise-disjoint windows (start every 11 ticks, length
                    // at most 10) keep any combination feasible.
                    b = b.reservation(w, p, (i as u64) * 11);
                }
                b.build().expect("constructed instances are feasible")
            })
        })
    }

    proptest! {
        /// The availability profile never exceeds the cluster size and the
        /// area function is monotone.
        #[test]
        fn profile_invariants(inst in arb_instance(), t1 in 0u64..100, t2 in 0u64..100) {
            let p = inst.profile();
            prop_assert!(p.capacity_at(Time(t1)) <= inst.machines());
            let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            prop_assert!(p.available_area(Time(lo)) <= p.available_area(Time(hi)));
        }

        /// earliest_fit returns a window that indeed has enough capacity, and
        /// no earlier profile breakpoint would fit.
        #[test]
        fn earliest_fit_is_correct(inst in arb_instance(), w in 1u32..=8, d in 1u64..=15) {
            let p = inst.profile();
            if let Some(t) = p.earliest_fit(w, Dur(d), Time::ZERO) {
                prop_assert!(p.min_capacity_in(t, Dur(d)) >= w);
                // Minimality at breakpoints before t.
                for &(bt, _) in p.steps() {
                    if bt < t {
                        prop_assert!(p.min_capacity_in(bt, Dur(d)) < w);
                    }
                }
            } else {
                prop_assert!(w > p.base());
            }
        }

        /// reserve followed by release restores the profile exactly.
        #[test]
        fn reserve_release_roundtrip(
            m in 2u32..=16, start in 0u64..=50, d in 1u64..=20, w in 1u32..=16
        ) {
            let mut p = ResourceProfile::constant(m);
            let before = p.clone();
            if w <= m {
                p.reserve(Time(start), Dur(d), w).unwrap();
                p.release(Time(start), Dur(d), w).unwrap();
                prop_assert_eq!(p, before);
            } else {
                prop_assert!(p.reserve(Time(start), Dur(d), w).is_err());
                prop_assert_eq!(p, before);
            }
        }

        /// A schedule placing every job at the end of everything else (pure
        /// sequential tail) is always feasible, and its makespan is at least
        /// the certified lower bound.
        #[test]
        fn sequential_schedule_is_feasible(inst in arb_instance()) {
            let p = inst.profile();
            let mut s = Schedule::new();
            let mut t = Time::ZERO;
            for j in inst.jobs() {
                let start = p.earliest_fit(j.width, j.duration, t).unwrap();
                s.place(j.id, start);
                t = start + j.duration;
            }
            prop_assert!(s.is_valid(&inst));
            let lb = lower_bound(&inst).unwrap();
            prop_assert!(s.makespan(&inst) >= lb);
        }

        /// The indexed timeline and the naive profile answer every read-only
        /// query identically on reservation-induced availability functions.
        #[test]
        fn timeline_agrees_with_profile_on_queries(
            inst in arb_instance(), t in 0u64..80, w in 1u32..=16, d in 1u64..=25
        ) {
            let p = inst.profile();
            let tl = inst.timeline();
            prop_assert_eq!(CapacityQuery::capacity_at(&tl, Time(t)), p.capacity_at(Time(t)));
            prop_assert_eq!(
                CapacityQuery::min_capacity_in(&tl, Time(t), Dur(d)),
                p.min_capacity_in(Time(t), Dur(d))
            );
            prop_assert_eq!(
                CapacityQuery::min_capacity_in(&tl, Time(t), Dur(0)),
                p.min_capacity_in(Time(t), Dur(0))
            );
            prop_assert_eq!(
                CapacityQuery::earliest_fit(&tl, w, Dur(d), Time(t)),
                p.earliest_fit(w, Dur(d), Time(t))
            );
            prop_assert_eq!(
                CapacityQuery::next_change_after(&tl, Time(t)),
                p.next_change_after(Time(t))
            );
        }

        /// Random interleaved reserve/release sequences keep the two backends
        /// in lock-step: same errors, same resulting availability function,
        /// and the conversion back to a profile stays lossless.
        #[test]
        fn timeline_agrees_with_profile_under_updates(
            inst in arb_instance(),
            ops in proptest::collection::vec((0u64..60, 1u64..=20, 1u32..=16, 0u32..=1), 1usize..=12)
        ) {
            let mut p = inst.profile();
            let mut tl = inst.timeline();
            prop_assert_eq!(tl.to_profile(), p.clone());
            for (s, d, w, kind) in ops {
                let (rp, rt) = if kind == 0 {
                    (
                        p.reserve(Time(s), Dur(d), w),
                        CapacityQuery::reserve(&mut tl, Time(s), Dur(d), w),
                    )
                } else {
                    (
                        p.release(Time(s), Dur(d), w),
                        CapacityQuery::release(&mut tl, Time(s), Dur(d), w),
                    )
                };
                prop_assert_eq!(rp, rt);
                prop_assert_eq!(tl.to_profile(), p.clone());
                tl.check_layout();
            }
            // Round-trip through the timeline is lossless at every point.
            prop_assert_eq!(AvailabilityTimeline::from(&p).to_profile(), p.clone());
        }

        /// The spare-capacity window API answers identically through both
        /// backends on random windows, after random mutations: the
        /// materialized `capacity_profile_in` step function (which must also
        /// agree pointwise with `capacity_at`).
        #[test]
        fn spare_capacity_queries_agree(
            inst in arb_instance(),
            ops in proptest::collection::vec((0u64..60, 1u64..=20, 1u32..=4), 0usize..=6),
            s in 0u64..=80, len in 0u64..=40,
        ) {
            let mut p = inst.profile();
            let mut tl = inst.timeline();
            for (os, od, ow) in ops {
                let _ = p.reserve(Time(os), Dur(od), ow);
                let _ = CapacityQuery::reserve(&mut tl, Time(os), Dur(od), ow);
            }
            let e = s + len;
            let mut wp = Vec::new();
            let mut wt = Vec::new();
            CapacityQuery::capacity_profile_in(&p, Time(s), Time(e), &mut wp);
            tl.capacity_profile_in(Time(s), Time(e), &mut wt);
            prop_assert_eq!(&wp, &wt);
            for t in s..e {
                let cap = wp[wp.partition_point(|&(bt, _)| bt <= Time(t)) - 1].1;
                prop_assert_eq!(cap, p.capacity_at(Time(t)), "t = {}", t);
            }
        }

        /// (a) Any interleaving of reserve / release / checkpoint / rollback
        /// / commit leaves the timeline query-identical to a naive
        /// `ResourceProfile` that replays the same history: mutations are
        /// applied to both, a rollback rewinds the profile to a snapshot
        /// taken at the matching checkpoint. Marks are resolved in random
        /// stack order, so nesting and the normalization at the outermost
        /// resolution are both exercised. Same errors, same availability function, same
        /// earliest-fit and area answers after every step.
        #[test]
        fn transactional_timeline_matches_replayed_profile(
            inst in arb_instance(),
            ops in proptest::collection::vec(
                (0u32..=4, 0u64..60, 1u64..=20, 1u32..=8), 1usize..=32
            ),
            probe_w in 1u32..=8, probe_d in 1u64..=20, probe_area in 0u64..3000,
        ) {
            let mut tl = inst.timeline();
            let mut p = inst.profile();
            // Outstanding checkpoints with the profile snapshot each took.
            let mut stack: Vec<(TxnMark, ResourceProfile)> = Vec::new();
            for (kind, s, d, w) in ops {
                match kind {
                    0 => {
                        let (rt, rp) = (
                            CapacityQuery::reserve(&mut tl, Time(s), Dur(d), w),
                            p.reserve(Time(s), Dur(d), w),
                        );
                        prop_assert_eq!(rt, rp);
                    }
                    1 => {
                        let (rt, rp) = (
                            CapacityQuery::release(&mut tl, Time(s), Dur(d), w),
                            p.release(Time(s), Dur(d), w),
                        );
                        prop_assert_eq!(rt, rp);
                    }
                    2 => stack.push((tl.checkpoint(), p.clone())),
                    3 => {
                        // Roll back to a random outstanding mark (possibly
                        // skipping inner ones — they are consumed with it).
                        if !stack.is_empty() {
                            let at = (s as usize) % stack.len();
                            let (mark, snapshot) = stack[at].clone();
                            stack.truncate(at);
                            tl.rollback_to(mark);
                            p = snapshot;
                        }
                    }
                    _ => {
                        if !stack.is_empty() {
                            let at = (s as usize) % stack.len();
                            let (mark, _) = stack[at].clone();
                            stack.truncate(at);
                            tl.commit(mark);
                        }
                    }
                }
                prop_assert_eq!(tl.to_profile(), p.clone());
                tl.check_layout();
                prop_assert_eq!(
                    CapacityQuery::earliest_fit(&tl, probe_w, Dur(probe_d), Time(s)),
                    p.earliest_fit(probe_w, Dur(probe_d), Time(s))
                );
                prop_assert_eq!(
                    tl.earliest_time_with_area(probe_area as u128),
                    p.earliest_time_with_area(probe_area as u128)
                );
            }
            // Unwind whatever is still open, innermost first.
            while let Some((mark, snapshot)) = stack.pop() {
                tl.rollback_to(mark);
                p = snapshot;
                prop_assert_eq!(tl.to_profile(), p.clone());
            }
            prop_assert!(!tl.in_transaction());
        }

        /// (b) Rollback after a random batch of reserves restores every
        /// breakpoint of the availability function exactly — value-for-value
        /// at every pre-existing breakpoint and as a whole normalized
        /// profile — and the area query agrees with the naive profile
        /// throughout.
        #[test]
        fn rollback_restores_every_breakpoint(
            inst in arb_instance(),
            batch in proptest::collection::vec((0u64..60, 1u64..=20, 1u32..=4), 1usize..=10),
            probe in 0u64..2000,
        ) {
            let probe = probe as u128;
            let mut tl = inst.timeline();
            let before = tl.to_profile();
            let mark = tl.checkpoint();
            for (s, d, w) in batch {
                let _ = CapacityQuery::reserve(&mut tl, Time(s), Dur(d), w);
            }
            prop_assert_eq!(
                tl.earliest_time_with_area(probe),
                tl.to_profile().earliest_time_with_area(probe)
            );
            tl.rollback_to(mark);
            let after = tl.to_profile();
            for &(t, cap) in before.steps() {
                prop_assert_eq!(after.capacity_at(t), cap, "breakpoint at {}", t);
            }
            prop_assert_eq!(
                tl.earliest_time_with_area(probe),
                before.earliest_time_with_area(probe)
            );
            prop_assert_eq!(after, before);
        }

        /// (c) The bulk `from_placements` builder produces the same
        /// availability function as sequential reserves of the same
        /// placements.
        #[test]
        fn from_placements_equals_sequential_reserves(inst in arb_instance()) {
            // A feasible schedule: sequential earliest-fit tail.
            let mut sequential = inst.timeline();
            let mut s = Schedule::new();
            let mut t = Time::ZERO;
            for j in inst.jobs() {
                let start = sequential.earliest_fit(j.width, j.duration, t).unwrap();
                CapacityQuery::reserve(&mut sequential, start, j.duration, j.width).unwrap();
                s.place(j.id, start);
                t = start + j.duration;
            }
            let bulk = AvailabilityTimeline::from_placements(&inst, s.placements()).unwrap();
            prop_assert_eq!(bulk.to_profile(), sequential.to_profile());
        }

        /// Extreme horizons: the same reserve/release script executed near
        /// time 0 and shifted to completion times near `i64::MAX` yields a
        /// capacity function that is an exact translate — no overflow in the
        /// lazy-delta `i64`s, the area `i128`s, or the window arithmetic.
        #[test]
        fn timeline_is_translation_invariant_at_extreme_horizons(
            m in 2u32..=16,
            ops in proptest::collection::vec((0u64..60, 1u64..=20, 1u32..=16, 0u32..=1), 1usize..=12),
            probes in proptest::collection::vec((0u64..100, 1u64..=30, 1u32..=16), 1usize..=8),
        ) {
            let offset = i64::MAX as u64 - 200;
            let mut near = AvailabilityTimeline::constant(m);
            let mut far = AvailabilityTimeline::constant(m);
            for (s, d, w, kind) in ops {
                let (rn, rf) = if kind == 0 {
                    (
                        CapacityQuery::reserve(&mut near, Time(s), Dur(d), w),
                        CapacityQuery::reserve(&mut far, Time(offset + s), Dur(d), w),
                    )
                } else {
                    (
                        CapacityQuery::release(&mut near, Time(s), Dur(d), w),
                        CapacityQuery::release(&mut far, Time(offset + s), Dur(d), w),
                    )
                };
                prop_assert_eq!(rn.is_ok(), rf.is_ok());
            }
            for (t, d, w) in probes {
                prop_assert_eq!(
                    CapacityQuery::capacity_at(&near, Time(t)),
                    CapacityQuery::capacity_at(&far, Time(offset + t))
                );
                prop_assert_eq!(
                    CapacityQuery::min_capacity_in(&near, Time(t), Dur(d)),
                    CapacityQuery::min_capacity_in(&far, Time(offset + t), Dur(d))
                );
                prop_assert_eq!(
                    CapacityQuery::earliest_fit(&near, w, Dur(d), Time(t)).map(|x| x.ticks()),
                    CapacityQuery::earliest_fit(&far, w, Dur(d), Time(offset + t))
                        .map(|x| x.ticks() - offset)
                );
            }
        }

        /// The transactional layer stays exact at extreme horizons: rollback
        /// after reserves whose completion times sit near `i64::MAX` restores
        /// the availability function bit for bit.
        #[test]
        fn rollback_is_exact_at_extreme_horizons(
            m in 2u32..=16,
            batch in proptest::collection::vec((0u64..150, 1u64..=40, 1u32..=8), 1usize..=10),
        ) {
            let offset = i64::MAX as u64 - 500;
            let mut tl = AvailabilityTimeline::constant(m);
            let _ = CapacityQuery::reserve(&mut tl, Time(offset), Dur(3), 1);
            let before = tl.to_profile();
            let mark = tl.checkpoint();
            for (s, d, w) in batch {
                let _ = CapacityQuery::reserve(&mut tl, Time(offset + s), Dur(d), w);
            }
            tl.rollback_to(mark);
            prop_assert_eq!(tl.to_profile(), before);
        }

        /// Timeline vs the linear profile at `i64::MAX`-scale horizons: the
        /// same shifted script leaves both representations agreeing on every
        /// probe, including the area scan (PR 5 overflow audit, replayed
        /// against the chunked layout).
        #[test]
        fn flat_matches_reference_at_extreme_horizons(
            m in 2u32..=16,
            ops in proptest::collection::vec((0u64..60, 1u64..=20, 1u32..=16, 0u32..=1), 1usize..=12),
            probes in proptest::collection::vec((0u64..100, 1u64..=30, 1u32..=16), 1usize..=8),
        ) {
            let offset = i64::MAX as u64 - 200;
            let mut flat = AvailabilityTimeline::constant(m);
            let mut p = ResourceProfile::constant(m);
            for (s, d, w, kind) in ops {
                let (rf, rp) = if kind == 0 {
                    (
                        CapacityQuery::reserve(&mut flat, Time(offset + s), Dur(d), w),
                        p.reserve(Time(offset + s), Dur(d), w),
                    )
                } else {
                    (
                        CapacityQuery::release(&mut flat, Time(offset + s), Dur(d), w),
                        p.release(Time(offset + s), Dur(d), w),
                    )
                };
                prop_assert_eq!(rf, rp);
            }
            for (t, d, w) in probes {
                prop_assert_eq!(
                    CapacityQuery::capacity_at(&flat, Time(offset + t)),
                    p.capacity_at(Time(offset + t))
                );
                prop_assert_eq!(
                    CapacityQuery::earliest_fit(&flat, w, Dur(d), Time(offset + t)),
                    p.earliest_fit(w, Dur(d), Time(offset + t))
                );
                let area = (t as u128 + 1) * (d as u128) * (m as u128);
                prop_assert_eq!(
                    flat.earliest_time_with_area(area),
                    p.earliest_time_with_area(area)
                );
            }
            flat.check_layout();
            prop_assert_eq!(flat.to_profile(), p);
        }

        /// Processor assignment of a feasible schedule always verifies.
        #[test]
        fn assignment_verifies(inst in arb_instance()) {
            let p = inst.profile();
            let mut s = Schedule::new();
            let mut t = Time::ZERO;
            for j in inst.jobs() {
                let start = p.earliest_fit(j.width, j.duration, t).unwrap();
                s.place(j.id, start);
                t = start + j.duration;
            }
            let asg = s.assign_processors(&inst).unwrap();
            prop_assert!(asg.verify(&inst, &s).is_ok());
        }
    }
}
