//! # resa-analysis
//!
//! The measurement and theory layer of the reproduction of *"Analysis of
//! Scheduling Algorithms with Reservations"* (IPDPS 2007):
//!
//! * [`GUARANTEES`](prelude::GUARANTEES) — the paper's upper bounds (Graham
//!   `2 − 1/m`, non-increasing `2 − 1/m(C*)`, the α upper bound `2/α`), one
//!   row per statement, beside the lower bounds `2/α − 1 + α/2`, `B1` and
//!   `B2`; every bound is an exact [`Ratio`](prelude::Ratio);
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
//! use resa_core::prelude::Alpha;
//!
//! // Figure 4: for α = 1/2 the guarantee of LSRC sits between 13/4 and 4.
//! let half = (8, 8, Some(Alpha::HALF)); // (m, m(C*), α)
//! assert_eq!(PROPOSITION_3.at(half), Ratio::new(4, 1));
//! assert_eq!(lower_proposition2(Alpha::HALF), Ratio::new(13, 4));
//! // A makespan of 4·OPT respects the bound; one tick more does not.
//! assert!(PROPOSITION_3.admits(half, 40, 10));
//! assert!(!PROPOSITION_3.admits(half, 41, 10));
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
        lower_b1, lower_b2, lower_proposition2, Guarantee, Params, Ratio, GUARANTEES,
        PROPOSITION_1, PROPOSITION_3, THEOREM_2,
    };
    pub use crate::ratio::{RatioHarness, RatioMeasurement, ReferenceKind};
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
                    let p = (inst.machines(), inst.machines(), None);
                    prop_assert!(THEOREM_2.admits(p, m.makespan, m.reference));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The exact verdicts agree with the float ones they replaced
        /// (`ratio ≤ bound + 1e-9` on f64 values) wherever the two values
        /// lie more than 1e-6 apart: exactness only moves verdicts inside
        /// the float noise.
        #[test]
        fn exact_verdicts_agree_with_float_ones_outside_the_noise(
            machines in 1u32..=2048,
            available in 1u32..=2048,
            d in 1u64..=1000,
            n in 1u64..=1000,
            reference in 1u64..=1_000_000,
            excess_permille in 0u64..=1000
        ) {
            let available = available.min(machines);
            let alpha = Alpha::new(1 + n % d, d).unwrap();
            let p = (machines, available, Some(alpha));
            let floats = [
                2.0 - 1.0 / machines as f64,
                2.0 - 1.0 / available as f64,
                2.0 / alpha.as_f64(),
            ];
            let excess = (excess_permille as f64 - 500.0) / 1000.0;
            for (g, float_bound) in GUARANTEES.iter().zip(floats) {
                let makespan = ((float_bound + excess) * reference as f64).round() as u64;
                let ratio = makespan as f64 / reference as f64;
                if (ratio - float_bound).abs() > 1e-6 {
                    prop_assert_eq!(
                        g.admits(p, makespan, reference),
                        ratio <= float_bound + 1e-9,
                        "{} at {}/{}", g.statement, makespan, reference
                    );
                }
            }
        }
    }
}
