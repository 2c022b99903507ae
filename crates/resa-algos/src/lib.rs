//! # resa-algos
//!
//! Scheduling algorithms for the RESASCHEDULING problem, as analysed in
//! *"Analysis of Scheduling Algorithms with Reservations"* (IPDPS 2007):
//!
//! * [`list_scheduling::Lsrc`] — list scheduling with resource constraints
//!   (Garey & Graham), the algorithm of the paper's Theorem 2 and
//!   Propositions 1–3, with pluggable [`priority::ListOrder`]s;
//! * [`fcfs::Fcfs`] — strict First-Come First-Served;
//! * [`backfilling::ConservativeBackfilling`] and
//!   [`backfilling::EasyBackfilling`] — the two classical back-filling
//!   variants discussed in §2.2;
//! * [`shelf::ShelfScheduler`] — shelf/packing heuristics (the "further
//!   direction" of the conclusion);
//! * [`local_search::LocalSearch`] — a guarantee-preserving improvement pass
//!   on top of any list scheduler (the other "further direction");
//! * [`online::BatchScheduler`] — the batch-doubling on-line wrapper of §2.1;
//! * [`transform`] — the Proposition-1 reduction of non-increasing
//!   reservations to head-of-list rigid tasks.
//!
//! Every algorithm implements [`traits::Scheduler`] and always returns a
//! feasible schedule for a valid instance.
//!
//! Every scheduler is generic over the availability substrate through
//! `resa_core::capacity::CapacityQuery`: `Scheduler::schedule` runs on the
//! chunk-indexed `AvailabilityTimeline` (summary-skipping queries), while the
//! per-scheduler `schedule_with` methods also accept the naive
//! `ResourceProfile` — the produced schedules are identical either way
//! (property-tested below), only the complexity differs.
//!
//! ```
//! use resa_algos::prelude::*;
//! use resa_core::prelude::*;
//!
//! let instance = ResaInstanceBuilder::new(8)
//!     .job(4, 10u64)
//!     .job(2, 5u64)
//!     .job(8, 2u64)
//!     .reservation(6, 4u64, 3u64)
//!     .build()
//!     .unwrap();
//!
//! let lsrc = Lsrc::new().schedule(&instance);
//! assert!(lsrc.is_valid(&instance));
//! let fcfs = Fcfs::new().schedule(&instance);
//! assert!(fcfs.is_valid(&instance));
//! // Naive profile and indexed timeline backends agree schedule-for-schedule.
//! assert_eq!(
//!     Lsrc::new().schedule_with(&instance, instance.profile()),
//!     Lsrc::new().schedule_with(&instance, instance.timeline()),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backfilling;
pub mod fcfs;
pub mod list_scheduling;
pub mod local_search;
pub mod online;
pub mod priority;
pub mod shelf;
pub mod traits;
pub mod transform;

/// Convenient glob import of every scheduler and the [`traits::Scheduler`] trait.
pub mod prelude {
    pub use crate::backfilling::{
        ConservativeBackfilling, EasyBackfilling, EasyBackfillingReference, EasyStats,
    };
    pub use crate::fcfs::Fcfs;
    pub use crate::list_scheduling::Lsrc;
    pub use crate::local_search::{LocalMove, LocalSearch, LocalSearchReference};
    pub use crate::online::BatchScheduler;
    pub use crate::priority::ListOrder;
    pub use crate::shelf::ShelfScheduler;
    pub use crate::traits::Scheduler;
    pub use crate::transform::{head_list_order, nonincreasing_to_rigid, RigidTransform};
}

/// All the off-line schedulers of this crate, boxed, for sweep experiments.
pub fn all_schedulers() -> Vec<Box<dyn traits::Scheduler>> {
    vec![
        Box::new(fcfs::Fcfs::new()),
        Box::new(backfilling::ConservativeBackfilling::new()),
        Box::new(backfilling::EasyBackfilling::new()),
        Box::new(list_scheduling::Lsrc::new()),
        Box::new(list_scheduling::Lsrc::with_order(priority::ListOrder::Lpt)),
        Box::new(shelf::ShelfScheduler::nfdh()),
        Box::new(shelf::ShelfScheduler::ffdh()),
        Box::new(local_search::LocalSearch::new(
            list_scheduling::Lsrc::with_order(priority::ListOrder::Lpt),
        )),
    ]
}

#[cfg(test)]
mod proptests {
    use crate::prelude::*;
    use proptest::prelude::*;
    use resa_core::prelude::*;

    fn arb_instance() -> impl Strategy<Value = ResaInstance> {
        (2u32..=12, 1usize..=12, 0usize..=3).prop_flat_map(|(m, n_jobs, n_res)| {
            let jobs = proptest::collection::vec((1u32..=m, 1u64..=15), n_jobs);
            let reservations = proptest::collection::vec((1u32..=m, 1u64..=8), n_res);
            (Just(m), jobs, reservations).prop_map(|(m, jobs, reservations)| {
                let mut b = ResaInstanceBuilder::new(m);
                for (w, p) in jobs {
                    b = b.job(w, p);
                }
                for (i, (w, p)) in reservations.into_iter().enumerate() {
                    // Pairwise-disjoint reservation windows keep the set feasible.
                    b = b.reservation(w, p, (i as u64) * 9);
                }
                b.build().expect("constructed instances are feasible")
            })
        })
    }

    /// Like [`arb_instance`] but with release dates, so the EASY event loop
    /// exercises the release-driven decision points too.
    fn arb_released_instance() -> impl Strategy<Value = ResaInstance> {
        (2u32..=12, 1usize..=12, 0usize..=3).prop_flat_map(|(m, n_jobs, n_res)| {
            let jobs = proptest::collection::vec((1u32..=m, 1u64..=15, 0u64..=25), n_jobs);
            let reservations = proptest::collection::vec((1u32..=m, 1u64..=8), n_res);
            (Just(m), jobs, reservations).prop_map(|(m, jobs, reservations)| {
                let mut b = ResaInstanceBuilder::new(m);
                for (w, p, r) in jobs {
                    b = b.job_released_at(w, p, r);
                }
                for (i, (w, p)) in reservations.into_iter().enumerate() {
                    b = b.reservation(w, p, (i as u64) * 9);
                }
                b.build().expect("constructed instances are feasible")
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The spare-capacity EASY loop produces the *identical* schedule to
        /// the classical probing reference, on random instances with
        /// reservations and release dates, through either substrate.
        #[test]
        fn easy_matches_probing_reference(inst in arb_released_instance()) {
            let optimized = EasyBackfilling::new();
            let reference = EasyBackfillingReference::new();
            let via_timeline = optimized.schedule_with(&inst, inst.timeline());
            prop_assert_eq!(
                via_timeline.clone(),
                reference.schedule_with(&inst, inst.timeline()),
                "optimized EASY diverged from the probing reference (timeline)"
            );
            prop_assert_eq!(
                optimized.schedule_with(&inst, inst.profile()),
                reference.schedule_with(&inst, inst.profile()),
                "optimized EASY diverged from the probing reference (profile)"
            );
            prop_assert!(via_timeline.is_valid(&inst));
        }

        /// Every scheduler produces a feasible, complete schedule whose
        /// makespan is at least the certified lower bound.
        #[test]
        fn all_schedulers_are_feasible(inst in arb_instance()) {
            let lb = lower_bound(&inst).unwrap();
            for s in crate::all_schedulers() {
                let sched = s.schedule(&inst);
                prop_assert!(sched.is_valid(&inst), "{} invalid", s.name());
                prop_assert_eq!(sched.len(), inst.n_jobs());
                prop_assert!(sched.makespan(&inst) >= lb, "{} beats the lower bound", s.name());
            }
        }

        /// The batch wrapper is feasible too and never beats the lower bound.
        #[test]
        fn batch_wrapper_is_feasible(inst in arb_instance()) {
            let s = BatchScheduler::new(Lsrc::new());
            let sched = s.schedule(&inst);
            prop_assert!(sched.is_valid(&inst));
            prop_assert!(sched.makespan(&inst) >= lower_bound(&inst).unwrap());
        }

        /// Every scheduler produces the *identical* schedule whether it runs
        /// on the naive `ResourceProfile` or on the chunk-indexed
        /// `AvailabilityTimeline` — the substrate is a pure performance
        /// choice, never a behavioural one.
        #[test]
        fn schedulers_identical_through_either_backend(inst in arb_instance()) {
            for order in ListOrder::DETERMINISTIC {
                let lsrc = Lsrc::with_order(order);
                prop_assert_eq!(
                    lsrc.schedule_with(&inst, inst.profile()),
                    lsrc.schedule_with(&inst, inst.timeline()),
                    "LSRC({}) diverged between backends", order
                );
            }
            let fcfs = Fcfs::new();
            prop_assert_eq!(
                fcfs.schedule_with(&inst, inst.profile()),
                fcfs.schedule_with(&inst, inst.timeline())
            );
            let cons = ConservativeBackfilling::new();
            prop_assert_eq!(
                cons.schedule_with(&inst, inst.profile()),
                cons.schedule_with(&inst, inst.timeline())
            );
            let easy = EasyBackfilling::new();
            prop_assert_eq!(
                easy.schedule_with(&inst, inst.profile()),
                easy.schedule_with(&inst, inst.timeline())
            );
            for shelf in [ShelfScheduler::nfdh(), ShelfScheduler::ffdh()] {
                prop_assert_eq!(
                    shelf.schedule_with(&inst, inst.profile()),
                    shelf.schedule_with(&inst, inst.timeline())
                );
            }
        }

        /// The incremental local search (persistent transactional timeline,
        /// delta moves, incremental makespan) accepts the *identical* move
        /// sequence and returns the *identical* schedule as the retained
        /// copy-on-probe reference, on random instances with reservations
        /// and release dates, across neighborhood widths.
        #[test]
        fn local_search_matches_reference_move_for_move(inst in arb_released_instance()) {
            for (rounds, top_k) in [(16usize, 1usize), (16, 4), (8, 8)] {
                let fast = LocalSearch::with_neighborhood(Lsrc::new(), rounds, top_k);
                let slow = LocalSearchReference::with_neighborhood(Lsrc::new(), rounds, top_k);
                let (fast_schedule, fast_moves) = fast.schedule_with_moves(&inst);
                let (slow_schedule, slow_moves) = slow.schedule_with_moves(&inst);
                prop_assert_eq!(
                    &fast_moves, &slow_moves,
                    "move sequences diverged (rounds={}, top_k={})", rounds, top_k
                );
                prop_assert_eq!(
                    &fast_schedule, &slow_schedule,
                    "schedules diverged (rounds={}, top_k={})", rounds, top_k
                );
                prop_assert!(fast_schedule.is_valid(&inst));
                prop_assert!(
                    fast_schedule.makespan(&inst) <= Lsrc::new().makespan(&inst),
                    "local search must never hurt"
                );
            }
        }

        /// Without reservations, LSRC satisfies Graham's bound relative to the
        /// best schedule found by any scheduler (an upper bound on OPT):
        /// `C_LSRC ≤ (2 − 1/m)·OPT ≤ (2 − 1/m)·C_best`.
        #[test]
        fn lsrc_graham_bound_vs_best_known(inst in arb_instance()) {
            if inst.n_reservations() == 0 {
                let lsrc = Lsrc::new().makespan(&inst).ticks() as f64;
                let m = inst.machines() as f64;
                let best = crate::all_schedulers()
                    .iter()
                    .map(|s| s.makespan(&inst).ticks())
                    .min()
                    .unwrap() as f64;
                prop_assert!(lsrc <= (2.0 - 1.0 / m) * best + 1e-9);
            }
        }
    }
}
