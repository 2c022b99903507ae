//! # resa-exact
//!
//! Exact solvers and complexity reductions supporting the reproduction of
//! *"Analysis of Scheduling Algorithms with Reservations"* (IPDPS 2007):
//!
//! * [`ExactSolver`](prelude::ExactSolver) — optimal makespan for small
//!   RIGID/RESASCHEDULING instances by branch-and-bound over earliest-fit
//!   insertion orders; used to measure true performance ratios in the
//!   benchmark harness;
//! * [`ThreePartition`](prelude::ThreePartition) — 3-PARTITION instances, an
//!   exact backtracking solver and a generator of yes-instances;
//! * [`three_partition_to_resa`](prelude::three_partition_to_resa) and
//!   [`rigid_to_single_reservation`](prelude::rigid_to_single_reservation) —
//!   the Theorem-1 constructions: 3-PARTITION → RESASCHEDULING with one
//!   machine (Figure 1), and RIGIDSCHEDULING → RESASCHEDULING with a single
//!   huge reservation.
//!
//! The pseudo-polynomial subset-sum algorithm for two-machine sequential
//! scheduling (footnote 1 of the paper) is compiled for tests only: it is
//! the independent optimum `ExactSolver` is checked against on two-machine
//! instances past brute-force size.
//!
//! ```
//! use resa_core::prelude::*;
//! use resa_exact::prelude::ExactSolver;
//!
//! let instance = ResaInstanceBuilder::new(4)
//!     .job(3, 2u64)
//!     .job(2, 2u64)
//!     .job(1, 2u64)
//!     .job(2, 2u64)
//!     .build()
//!     .unwrap();
//! let result = ExactSolver::new().solve(&instance);
//! assert!(result.optimal);
//! assert_eq!(result.makespan, Time(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch_bound;
#[cfg(test)]
mod partition;
mod reduction;
mod three_partition;

/// Convenient glob import.
pub mod prelude {
    pub use crate::branch_bound::ExactSolver;
    pub use crate::reduction::{
        extract_partition, rigid_to_single_reservation, three_partition_to_resa,
    };
    pub use crate::three_partition::{satisfiable_instance, ThreePartition};
}

#[cfg(test)]
mod proptests {
    use crate::branch_bound::ExactSolver;
    use proptest::prelude::*;
    use resa_algos::prelude::*;
    use resa_core::prelude::*;

    fn arb_small_instance() -> impl Strategy<Value = ResaInstance> {
        (2u32..=5, 1usize..=6, 0usize..=2).prop_flat_map(|(m, n_jobs, n_res)| {
            let jobs = proptest::collection::vec((1u32..=m, 1u64..=6), n_jobs);
            let reservations = proptest::collection::vec((1u32..=m, 1u64..=4), n_res);
            (Just(m), jobs, reservations).prop_map(|(m, jobs, reservations)| {
                let mut b = ResaInstanceBuilder::new(m);
                for (w, p) in jobs {
                    b = b.job(w, p);
                }
                for (i, (w, p)) in reservations.into_iter().enumerate() {
                    b = b.reservation(w, p, (i as u64) * 5);
                }
                b.build().expect("constructed instances are feasible")
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The exact solver is sandwiched between the certified lower bound
        /// and every heuristic, and its schedule is feasible.
        #[test]
        fn exact_is_between_lower_bound_and_heuristics(inst in arb_small_instance()) {
            let result = ExactSolver::new().solve(&inst);
            prop_assert!(result.optimal);
            prop_assert!(result.schedule.is_valid(&inst));
            let lb = lower_bound(&inst).unwrap();
            prop_assert!(result.makespan >= lb);
            for s in resa_algos::all_schedulers() {
                prop_assert!(
                    s.makespan(&inst) >= result.makespan,
                    "{} beat the optimum",
                    s.name()
                );
            }
        }

        /// Node-for-node equivalence: the clone-free transactional search
        /// expands exactly the same number of nodes to the same peak depth
        /// and returns the same schedule as the retained clone-per-node
        /// reference, on random instances with reservations — under both
        /// an unlimited and a tight node budget.
        #[test]
        fn transactional_search_matches_reference_node_for_node(
            inst in arb_small_instance(),
            budget in 1u64..200,
        ) {
            for solver in [ExactSolver::new(), ExactSolver::with_node_budget(budget)] {
                let fast = solver.solve(&inst);
                let slow = solver.solve_reference(&inst);
                prop_assert!(fast.schedule.is_valid(&inst));
                prop_assert_eq!(fast, slow);
            }
        }

        /// On reservation-free instances LSRC respects Graham's bound w.r.t.
        /// the true optimum: C_LSRC ≤ (2 − 1/m)·C*.
        #[test]
        fn graham_bound_vs_true_optimum(inst in arb_small_instance()) {
            if inst.n_reservations() == 0 {
                let opt = ExactSolver::new().solve(&inst);
                prop_assert!(opt.optimal);
                let lsrc = u128::from(Lsrc::new().makespan(&inst).ticks());
                let m = u128::from(inst.machines());
                // C_LSRC · m ≤ (2m − 1) · C*, in integers.
                prop_assert!(lsrc * m <= (2 * m - 1) * u128::from(opt.makespan.ticks()));
            }
        }
    }
}
