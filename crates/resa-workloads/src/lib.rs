//! # resa-workloads
//!
//! Workload and reservation generators for the reproduction of *"Analysis of
//! Scheduling Algorithms with Reservations"* (IPDPS 2007).
//!
//! * [`UniformWorkload`](prelude::UniformWorkload) — neutral uniform random
//!   rigid jobs;
//! * [`FeitelsonWorkload`](prelude::FeitelsonWorkload) — power-of-two widths,
//!   heavy-tailed durations, optional on-line arrivals (the standard synthetic
//!   substitute for production batch-scheduler traces);
//! * [`LublinWorkload`](prelude::LublinWorkload) — a second synthetic model
//!   with a bimodal interactive/batch split and a large serial-job
//!   population;
//! * the paper's worst-case families: the Proposition-2 / Figure-3 instance
//!   ([`proposition2_instance`](prelude::proposition2_instance)), the
//!   Graham-tightness family and a FCFS head-of-line-blocking family;
//! * [`AlphaReservations`](prelude::AlphaReservations) and
//!   [`NonIncreasingReservations`](prelude::NonIncreasingReservations) —
//!   random α-restricted and non-increasing reservation sets (§4.1 and §4.2);
//! * [`swf`] — a Standard-Workload-Format-style trace codec and synthetic
//!   trace writer, including the streaming [`swf::SwfStream`] parser for
//!   archive-scale (optionally gzipped) logs;
//! * [`gzip`] — a vendored streaming gzip inflater/stored-block writer so
//!   compressed archives decode with no external dependency;
//! * [`store`] — a checksum-pinned on-disk trace cache behind `trace:`
//!   references (`resa fetch`).
//!
//! ```
//! use resa_workloads::prelude::*;
//! use resa_algos::prelude::*;
//! use resa_core::prelude::*;
//!
//! // The Figure-3 instance for alpha = 1/3 (k = 6): LSRC is 31/6 off.
//! let adv = proposition2_instance(6);
//! let lsrc = Lsrc::new().schedule(&adv.instance);
//! assert_eq!(lsrc.makespan(&adv.instance), Time(31));
//! assert_eq!(adv.optimal_makespan, Time(6));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversarial;
mod feitelson;
pub mod gzip;
mod lublin;
mod reservations;
pub mod store;
pub mod swf;
mod uniform;

/// Convenient glob import.
pub mod prelude {
    pub use crate::adversarial::{
        fcfs_pathological_instance, graham_tight_instance, proposition2_alpha,
        proposition2_instance, proposition2_optimal_schedule,
    };
    pub use crate::feitelson::FeitelsonWorkload;
    pub use crate::lublin::LublinWorkload;
    pub use crate::reservations::{AlphaReservations, NonIncreasingReservations};
    pub use crate::store::{StoreError, TraceRef, TraceStore};
    pub use crate::swf::{
        open_trace, parse_trace, read_trace_text, write_trace, SwfReadError, SwfStream,
    };
    pub use crate::uniform::UniformWorkload;
}

#[cfg(test)]
mod proptests {
    use crate::prelude::*;
    use proptest::prelude::*;
    use resa_core::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Generated Feitelson instances are valid and α=1/2-restricted when
        /// configured with the default half-machine cap.
        #[test]
        fn feitelson_instances_are_valid(machines in 4u32..=128, jobs in 1usize..=80, seed in 0u64..1000) {
            let w = FeitelsonWorkload::for_cluster(machines, jobs);
            let inst = w.instance(seed);
            prop_assert_eq!(inst.n_jobs(), jobs);
            prop_assert!(inst.is_alpha_restricted(Alpha::HALF));
        }

        /// SWF round-trip preserves jobs exactly.
        #[test]
        fn swf_roundtrip(machines in 4u32..=64, jobs in 1usize..=40, seed in 0u64..500) {
            let w = FeitelsonWorkload::for_cluster(machines, jobs).with_arrivals(5);
            let generated = w.generate(seed);
            let text = write_trace(&generated, machines);
            let parsed = parse_trace(&text).unwrap();
            prop_assert_eq!(parsed, generated);
        }

        /// α-restricted reservation generators always honour the α bound.
        #[test]
        fn alpha_reservations_always_restricted(
            machines in 4u32..=64,
            num in 1u64..=3,
            denom_extra in 1u64..=3,
            count in 0usize..=8,
            seed in 0u64..500,
        ) {
            let denom = num + denom_extra;
            let alpha = Alpha::new(num, denom).unwrap();
            let gen = AlphaReservations {
                machines,
                alpha,
                count,
                horizon: 300,
                max_duration: 40,
            };
            let inst = gen.instance(vec![Job::new(0usize, machines, 5u64)], seed);
            prop_assert!(inst.is_alpha_restricted(alpha));
        }

        /// The non-increasing generator always produces Proposition-1-eligible
        /// instances.
        #[test]
        fn nonincreasing_generator(machines in 2u32..=64, steps in 0usize..=8, seed in 0u64..500) {
            let gen = NonIncreasingReservations {
                machines,
                steps,
                max_initial_unavailable: machines / 2,
                max_duration: 30,
            };
            let inst = gen.instance(vec![Job::new(0usize, 1, 3u64)], seed);
            prop_assert!(inst.has_nonincreasing_reservations());
            prop_assert!(inst.profile().min_capacity() >= machines - machines / 2);
        }
    }
}
