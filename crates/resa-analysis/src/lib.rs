//! # resa-analysis
//!
//! The measurement and theory layer of the reproduction of *"Analysis of
//! Scheduling Algorithms with Reservations"* (IPDPS 2007):
//!
//! * `guarantees` — the closed-form bounds of the paper (Graham `2 − 1/m`,
//!   non-increasing `2 − 1/m(C*)`, the α upper bound `2/α`, the lower bounds
//!   `2/α − 1 + α/2`, `B1` and `B2`), e.g. [`graham_bound`](prelude::graham_bound);
//! * [`RatioHarness`](prelude::RatioHarness) — measured performance ratios of
//!   any scheduler against the true optimum (small instances) or a certified
//!   lower bound (large ones);
//! * [`ExperimentRunner`](prelude::ExperimentRunner) — the data series behind
//!   Figures 1–3 of the paper, cell by cell, sequentially or in parallel
//!   (Figure 4 is the closed-form [`figure4_series`](prelude::figure4_series));
//! * [`Table`](prelude::Table) — text/CSV rendering used by the experiment
//!   commands, built from rows through a list of [`Column`](prelude::Column)s;
//! * [`verify_schedule`](prelude::verify_schedule) — automatic checking of a
//!   schedule against every bound of the paper that applies to its instance
//!   class.
//!
//! ```
//! use resa_analysis::prelude::*;
//!
//! // Figure 4: for α = 1/2 the guarantee of LSRC sits between 3.25 and 4.
//! assert!((alpha_upper_bound(0.5) - 4.0).abs() < 1e-12);
//! assert!((proposition2_lower_bound(0.5) - 3.25).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod figures;
mod guarantees;
mod ratio;
mod report;
mod runner;
mod scenarios;
mod verification;

/// Convenient glob import.
pub mod prelude {
    pub use crate::figures::{figure4_series, Fig1Row, Fig2Row, Fig3Row, Fig4Row};
    pub use crate::guarantees::{
        alpha_upper_bound, graham_bound, lower_bound_b1, lower_bound_b2, nonincreasing_bound,
        proposition2_lower_bound,
    };
    pub use crate::ratio::{RatioHarness, ReferenceKind};
    pub use crate::report::{fmt_f64, to_json, Column, Table};
    pub use crate::runner::ExperimentRunner;
    pub use crate::scenarios::{
        deadlines_met, drain_invariant, job_windows, StreamValidator, Window,
    };
    pub use crate::verification::{
        classify, report_for_stream, verify_schedule, GuaranteeReport, InstanceClass, StreamFacts,
    };
}

#[cfg(test)]
mod proptests {
    use crate::prelude::*;
    use proptest::prelude::*;
    use resa_algos::prelude::*;
    use resa_core::prelude::*;

    fn arb_instance() -> impl Strategy<Value = ResaInstance> {
        (2u32..=6, 1usize..=7, 0usize..=2).prop_flat_map(|(m, n_jobs, n_res)| {
            let jobs = proptest::collection::vec((1u32..=m, 1u64..=8), n_jobs);
            let reservations = proptest::collection::vec((1u32..=m, 1u64..=5), n_res);
            (Just(m), jobs, reservations).prop_map(|(m, jobs, reservations)| {
                let mut b = ResaInstanceBuilder::new(m);
                for (w, p) in jobs {
                    b = b.job(w, p);
                }
                for (i, (w, p)) in reservations.into_iter().enumerate() {
                    b = b.reservation(w, p, (i as u64) * 6);
                }
                b.build().expect("constructed instances are feasible")
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Measured ratios are always at least 1 when the reference is the
        /// true optimum, and finite in all cases.
        #[test]
        fn ratios_are_sane(inst in arb_instance()) {
            let harness = RatioHarness::new();
            for m in harness.measure_all(&resa_algos::all_schedulers(), &inst) {
                prop_assert!(m.ratio.is_finite());
                if m.reference_kind == ReferenceKind::Optimal {
                    prop_assert!(m.ratio >= 1.0 - 1e-12, "{} ratio {}", m.algorithm, m.ratio);
                }
            }
        }

        /// On reservation-free instances the measured LSRC ratio never exceeds
        /// Graham's bound (Theorem 2), whatever the list order.
        #[test]
        fn graham_bound_never_violated(inst in arb_instance(), order_idx in 0usize..6) {
            if inst.n_reservations() == 0 {
                let order = ListOrder::DETERMINISTIC[order_idx];
                let harness = RatioHarness::new();
                let m = harness.measure(&Lsrc::with_order(order), &inst);
                if m.reference_kind == ReferenceKind::Optimal {
                    prop_assert!(m.ratio <= graham_bound(inst.machines()) + 1e-9);
                }
            }
        }
    }
}
