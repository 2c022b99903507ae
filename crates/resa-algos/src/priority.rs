//! Priority (list) orders for list scheduling.
//!
//! The paper analyses the *general* list algorithm, i.e. its guarantees hold
//! for every ordering of the list; its conclusion suggests studying orders
//! such as "decreasing durations" (LPT) as a way to improve the bound. This
//! module provides the classical orders so the ablation experiment (E8 in
//! DESIGN.md) can compare them.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use resa_core::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An ordering rule for the job list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ListOrder {
    /// Jobs in submission order (their order in the instance). This is the
    /// order used by FCFS-like policies and by the paper's adversarial
    /// constructions ("the list ordered by increasing i").
    Submission,
    /// Longest Processing Time first (decreasing `p_j`), the improvement the
    /// paper's conclusion proposes to study.
    Lpt,
    /// Shortest Processing Time first (increasing `p_j`).
    Spt,
    /// Widest job first (decreasing `q_j`).
    WidestFirst,
    /// Narrowest job first (increasing `q_j`).
    NarrowestFirst,
    /// Largest work (`p_j·q_j`) first.
    LargestWorkFirst,
    /// A deterministic pseudo-random shuffle of the submission order.
    Random(u64),
}

impl ListOrder {
    /// All deterministic orders (used by sweeps; excludes `Random`).
    pub const DETERMINISTIC: [ListOrder; 6] = [
        ListOrder::Submission,
        ListOrder::Lpt,
        ListOrder::Spt,
        ListOrder::WidestFirst,
        ListOrder::NarrowestFirst,
        ListOrder::LargestWorkFirst,
    ];

    /// Return the job ids of `jobs` arranged according to this order.
    ///
    /// All comparisons break ties by submission order, so every order is a
    /// deterministic total order.
    pub fn arrange(&self, jobs: &[Job]) -> Vec<JobId> {
        self.rank(jobs).into_iter().map(|i| jobs[i].id).collect()
    }

    /// [`ListOrder::arrange`] as positions into `jobs`.
    pub fn rank(&self, jobs: &[Job]) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..jobs.len()).collect();
        match self {
            ListOrder::Submission => {}
            ListOrder::Lpt => {
                idx.sort_by_key(|&i| (std::cmp::Reverse(jobs[i].duration), i));
            }
            ListOrder::Spt => {
                idx.sort_by_key(|&i| (jobs[i].duration, i));
            }
            ListOrder::WidestFirst => {
                idx.sort_by_key(|&i| (std::cmp::Reverse(jobs[i].width), i));
            }
            ListOrder::NarrowestFirst => {
                idx.sort_by_key(|&i| (jobs[i].width, i));
            }
            ListOrder::LargestWorkFirst => {
                idx.sort_by_key(|&i| (std::cmp::Reverse(jobs[i].work()), i));
            }
            ListOrder::Random(seed) => {
                let mut rng = StdRng::seed_from_u64(*seed);
                idx.shuffle(&mut rng);
            }
        }
        idx
    }
}

impl fmt::Display for ListOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ListOrder::Submission => write!(f, "submission"),
            ListOrder::Lpt => write!(f, "LPT"),
            ListOrder::Spt => write!(f, "SPT"),
            ListOrder::WidestFirst => write!(f, "widest-first"),
            ListOrder::NarrowestFirst => write!(f, "narrowest-first"),
            ListOrder::LargestWorkFirst => write!(f, "largest-work-first"),
            ListOrder::Random(seed) => write!(f, "random({seed})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs() -> Vec<Job> {
        vec![
            Job::new(0usize, 2, 5u64),
            Job::new(1usize, 4, 2u64),
            Job::new(2usize, 1, 9u64),
            Job::new(3usize, 4, 2u64),
        ]
    }

    #[test]
    fn submission_keeps_order() {
        let order = ListOrder::Submission.arrange(&jobs());
        assert_eq!(order, vec![JobId(0), JobId(1), JobId(2), JobId(3)]);
    }

    #[test]
    fn lpt_sorts_by_decreasing_duration() {
        let order = ListOrder::Lpt.arrange(&jobs());
        assert_eq!(order, vec![JobId(2), JobId(0), JobId(1), JobId(3)]);
    }

    #[test]
    fn spt_sorts_by_increasing_duration() {
        let order = ListOrder::Spt.arrange(&jobs());
        assert_eq!(order, vec![JobId(1), JobId(3), JobId(0), JobId(2)]);
    }

    #[test]
    fn width_orders() {
        assert_eq!(
            ListOrder::WidestFirst.arrange(&jobs()),
            vec![JobId(1), JobId(3), JobId(0), JobId(2)]
        );
        assert_eq!(
            ListOrder::NarrowestFirst.arrange(&jobs()),
            vec![JobId(2), JobId(0), JobId(1), JobId(3)]
        );
    }

    #[test]
    fn largest_work_first() {
        // works: 10, 8, 9, 8 → order 0, 2, 1, 3.
        assert_eq!(
            ListOrder::LargestWorkFirst.arrange(&jobs()),
            vec![JobId(0), JobId(2), JobId(1), JobId(3)]
        );
    }

    #[test]
    fn random_is_deterministic_per_seed_and_is_a_permutation() {
        let a = ListOrder::Random(7).arrange(&jobs());
        let b = ListOrder::Random(7).arrange(&jobs());
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, vec![JobId(0), JobId(1), JobId(2), JobId(3)]);
    }

    #[test]
    fn display_names() {
        assert_eq!(ListOrder::Lpt.to_string(), "LPT");
        assert_eq!(ListOrder::Random(3).to_string(), "random(3)");
        assert_eq!(ListOrder::DETERMINISTIC.len(), 6);
    }

    #[test]
    fn ties_broken_by_submission() {
        // Jobs 1 and 3 are identical: 1 must precede 3 in every deterministic order.
        for order in ListOrder::DETERMINISTIC {
            let arranged = order.arrange(&jobs());
            let pos1 = arranged.iter().position(|&j| j == JobId(1)).unwrap();
            let pos3 = arranged.iter().position(|&j| j == JobId(3)).unwrap();
            assert!(pos1 < pos3, "{order}: {arranged:?}");
        }
    }
}
