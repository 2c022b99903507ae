//! # resa-sim
//!
//! Discrete-event simulator for *on-line* rigid-job scheduling with advance
//! reservations. The paper analyses the off-line problem but explicitly frames
//! it as the building block of on-line batch schedulers (§2.1); this crate
//! provides the on-line side so the batch-doubling argument and the
//! average-case experiments can be evaluated end to end:
//!
//! One loop, two drivers, one oracle:
//!
//! * [`policy`] — on-line decision policies: FCFS, EASY back-filling and the
//!   greedy LSRC-like policy;
//! * [`stream::run_stream`] — the event loop: jobs pulled from a source as
//!   virtual time reaches them, one policy consultation per event instant,
//!   completions retired into a sink, live state O(active jobs);
//! * [`engine::Simulator`] — the loop driven over a whole instance,
//!   producing a feasible [`resa_core::schedule::Schedule`] and per-run
//!   [`metrics::SimMetrics`] (`resa replay` is the other driver, over an
//!   SWF stream);
//! * [`reference::simulate_reference`] — an independent clone-and-probe
//!   implementation of the same rule on its own [`event`] queue, kept as the
//!   loop's test oracle;
//! * [`trace::RunTrace`] — per-job lifecycle records (arrival, start,
//!   completion, overtaking) for post-mortem analysis of a run;
//! * [`service::ScheduleService`] — the *resident* scheduler: one live
//!   substrate, requests (submit / reserve / cancel / query / advance)
//!   processed in arrival order, deciding through the loop's own decision
//!   step — the library core of `resa serve`;
//! * [`op`] — those requests as data: one [`op::Op`] / [`op::Reply`] pair
//!   that the protocol parses, [`service::ScheduleService::apply`] executes,
//!   [`journal`] records and replays, and [`concurrent`] queues.
//!
//! ```
//! use resa_core::prelude::*;
//! use resa_sim::prelude::*;
//!
//! let instance = ResaInstanceBuilder::new(8)
//!     .job(4, 10u64)
//!     .job_released_at(2, 5u64, 3u64)
//!     .job_released_at(8, 2u64, 4u64)
//!     .reservation(6, 4u64, 20u64)
//!     .build()
//!     .unwrap();
//!
//! let result = Simulator::new(instance.clone()).run(&GreedyPolicy);
//! assert!(result.schedule.is_valid(&instance));
//! assert_eq!(result.metrics.jobs, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concurrent;
pub mod engine;
pub mod event;
pub mod journal;
pub mod metrics;
pub mod op;
pub mod policy;
pub mod reference;
pub mod service;
pub mod stream;
pub mod trace;

/// Convenient glob import.
pub mod prelude {
    pub use crate::concurrent::{AppliedOp, ConcurrentService, ServiceClient, ServiceSnapshot};
    pub use crate::engine::{SimResult, Simulator};
    pub use crate::journal::{
        FsyncPolicy, JournalCfg, JournaledService, OpJournal, Recovered, TornTail,
    };
    pub use crate::metrics::{MetricsAccumulator, SimMetrics};
    pub use crate::op::{Horizon, Op, Reply, Session, SessionRecords, WriteReply};
    pub use crate::policy::{EasyPolicy, FcfsPolicy, GreedyPolicy, OnlinePolicy, ReferencePolicy};
    pub use crate::reference::simulate_reference;
    pub use crate::service::{
        AdmissionPolicy, DeadlineOutcome, DrainMode, Effects, JobFlags, ScheduleService,
        ServiceError, ServiceState, ServiceStats, ServiceWindow, WindowKind,
    };
    pub use crate::stream::{
        run_stream, DiscardSink, InstanceSource, JobSource, RecordSink, StreamOutcome, VecSink,
    };
    pub use crate::trace::{JobRecord, RunTrace};
}

/// The scripted-op vocabulary shared with the integration suites, which name
/// this crate from outside.
#[cfg(test)]
extern crate self as resa_sim;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod test_ops;

#[cfg(test)]
mod proptests {
    use crate::prelude::*;
    use proptest::prelude::*;
    use resa_core::prelude::*;

    const POLICIES: [ReferencePolicy; 3] = [
        ReferencePolicy::Fcfs,
        ReferencePolicy::Easy,
        ReferencePolicy::Greedy,
    ];

    fn arb_online_instance() -> impl Strategy<Value = ResaInstance> {
        (2u32..=12, 1usize..=15, 0usize..=3).prop_flat_map(|(m, n_jobs, n_res)| {
            let jobs = proptest::collection::vec((1u32..=m, 1u64..=10, 0u64..=30), n_jobs);
            let reservations = proptest::collection::vec((1u32..=m, 1u64..=6), n_res);
            (Just(m), jobs, reservations).prop_map(|(m, jobs, reservations)| {
                let mut b = ResaInstanceBuilder::new(m);
                for (w, p, r) in jobs {
                    b = b.job_released_at(w, p, r);
                }
                for (i, (w, p)) in reservations.into_iter().enumerate() {
                    b = b.reservation(w, p, (i as u64) * 7);
                }
                b.build().expect("constructed instances are feasible")
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every policy completes every job with a feasible schedule, and
        /// respects release dates (the engine enforces it structurally, this
        /// re-checks through the validator).
        #[test]
        fn policies_produce_feasible_complete_schedules(inst in arb_online_instance()) {
            let sim = Simulator::new(inst.clone());
            for result in [sim.run(&FcfsPolicy), sim.run(&EasyPolicy), sim.run(&GreedyPolicy)] {
                prop_assert!(result.schedule.is_valid(&inst));
                prop_assert_eq!(result.schedule.len(), inst.n_jobs());
                prop_assert!(result.metrics.makespan >= lower_bound(&inst).unwrap_or(Time::ZERO));
            }
        }

        /// The loop, driven over a whole instance, replays exactly the
        /// clone-based oracle: identical schedules and identical
        /// decision-point counts for all three policies.
        #[test]
        fn optimized_engine_matches_reference_path(inst in arb_online_instance()) {
            let sim = Simulator::new(inst.clone());
            for kind in POLICIES {
                let res = sim.run(&kind);
                let reference = simulate_reference(&inst, kind);
                prop_assert_eq!(&reference.schedule, &res.schedule, "{} diverged", kind.name());
                prop_assert_eq!(reference.decisions, res.decisions);
            }
        }

        /// The loop matches the oracle on random instances, on BOTH
        /// substrates: identical placement sequences, identical decision
        /// counts, and metrics bit-identical to `from_schedule` on the
        /// oracle's schedule (the f64 fields included — the accumulator
        /// folds in the same order `from_schedule` does).
        #[test]
        fn streaming_matches_batch_on_both_substrates(inst in arb_online_instance()) {
            crate::stream::tests::check_equivalence(&inst);
        }

        /// The greedy on-line policy can never finish before the certified
        /// off-line lower bound, and FCFS is never better than the greedy
        /// policy's own lower bound on total work (sanity cross-check of the
        /// metrics plumbing).
        #[test]
        fn metrics_are_consistent(inst in arb_online_instance()) {
            let sim = Simulator::new(inst.clone());
            let res = sim.run(&GreedyPolicy);
            prop_assert_eq!(res.metrics.jobs, inst.n_jobs());
            prop_assert!(res.metrics.utilization <= 1.0 + 1e-9);
            prop_assert!(res.metrics.mean_wait <= res.metrics.max_wait as f64 + 1e-9);
            prop_assert!(res.metrics.mean_flow + 1e-9 >= res.metrics.mean_wait);
        }
    }
}
