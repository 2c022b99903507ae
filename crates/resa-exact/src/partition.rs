//! PARTITION and the pseudo-polynomial algorithm for two-machine scheduling.
//!
//! Footnote 1 of the paper recalls that RIGIDSCHEDULING restricted to
//! sequential jobs on two processors *is exactly PARTITION*, hence weakly
//! NP-hard and optimally solvable in pseudo-polynomial time. This module
//! provides that algorithm:
//!
//! * [`partition_exists`] — subset-sum DP deciding whether a multiset of
//!   positive integers can be split into two halves of equal sum;
//! * [`best_split`] — the largest achievable subset sum not exceeding half of
//!   the total (with a witness subset), which directly gives the optimal
//!   two-machine makespan;
//! * [`optimal_two_machine_makespan`] — the optimal `P2 || C_max` value of a
//!   set of sequential jobs, plus a schedule builder
//!   [`optimal_two_machine_schedule`] usable as an independent oracle against
//!   the branch-and-bound solver.

use resa_core::prelude::*;

/// Decide PARTITION: can `items` be split into two subsets of equal sum?
pub fn partition_exists(items: &[u64]) -> bool {
    let total: u64 = items.iter().sum();
    if !total.is_multiple_of(2) {
        return false;
    }
    best_split(items).0 == total / 2
}

/// The largest subset sum not exceeding `⌊Σ/2⌋`, with the indices of one
/// subset achieving it. Classic subset-sum dynamic program in
/// `O(n · Σ/2)` time and `O(n · Σ/2)` bits of witness storage.
pub fn best_split(items: &[u64]) -> (u64, Vec<usize>) {
    let total: u64 = items.iter().sum();
    let half = (total / 2) as usize;
    if items.is_empty() || half == 0 {
        return (0, Vec::new());
    }
    // reachable[s] = true if sum s is achievable; choice[i][s] = item i was
    // used to reach s for the first time (for witness reconstruction).
    let mut reachable = vec![false; half + 1];
    reachable[0] = true;
    let mut used_at: Vec<Vec<bool>> = vec![vec![false; half + 1]; items.len()];
    for (i, &x) in items.iter().enumerate() {
        let x = x as usize;
        if x > half {
            continue;
        }
        // Iterate downwards so each item is used at most once.
        for s in (x..=half).rev() {
            if !reachable[s] && reachable[s - x] {
                reachable[s] = true;
                used_at[i][s] = true;
            }
        }
    }
    let best = (0..=half).rev().find(|&s| reachable[s]).unwrap_or(0);
    // Reconstruct a witness.
    let mut witness = Vec::new();
    let mut s = best;
    while s > 0 {
        let i = (0..items.len())
            .rev()
            .find(|&i| used_at[i][s])
            .expect("every reachable non-zero sum has a last item");
        witness.push(i);
        s -= items[i] as usize;
    }
    witness.reverse();
    (best as u64, witness)
}

/// Optimal makespan of sequential jobs (each of width 1) on two machines:
/// `max(Σ − best_split, best_split)` = `Σ − best_split`.
pub fn optimal_two_machine_makespan(durations: &[u64]) -> u64 {
    let total: u64 = durations.iter().sum();
    let (best, _) = best_split(durations);
    total - best
}

/// Build an optimal two-machine schedule for the given sequential jobs
/// (returned as a [`Schedule`] on the corresponding 2-machine
/// [`ResaInstance`], so it can be validated by the shared machinery).
pub fn optimal_two_machine_schedule(durations: &[u64]) -> (ResaInstance, Schedule) {
    let jobs: Vec<Job> = durations
        .iter()
        .enumerate()
        .map(|(i, &p)| Job::new(i, 1, p.max(1)))
        .collect();
    let instance = ResaInstance::new(2, jobs, Vec::new()).expect("two machines, unit widths");
    let (_, first_machine) = best_split(durations);
    let mut schedule = Schedule::new();
    let mut t_first = Time::ZERO;
    let mut t_second = Time::ZERO;
    for (i, &p) in durations.iter().enumerate() {
        if first_machine.contains(&i) {
            schedule.place(JobId(i), t_first);
            t_first += Dur(p.max(1));
        } else {
            schedule.place(JobId(i), t_second);
            t_second += Dur(p.max(1));
        }
    }
    (instance, schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch_bound::ExactSolver;

    #[test]
    fn partition_decision() {
        assert!(partition_exists(&[1, 5, 11, 5]));
        assert!(!partition_exists(&[1, 2, 3, 5]));
        assert!(partition_exists(&[2, 2]));
        assert!(!partition_exists(&[3]));
        assert!(partition_exists(&[]));
    }

    #[test]
    fn best_split_witness_is_consistent() {
        let items = [7u64, 3, 2, 5, 8];
        let (best, witness) = best_split(&items);
        let total: u64 = items.iter().sum();
        assert!(best <= total / 2);
        let witness_sum: u64 = witness.iter().map(|&i| items[i]).sum();
        assert_eq!(witness_sum, best);
        // Indices are unique.
        let mut sorted = witness.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), witness.len());
        // Σ = 25 → best half ≤ 12, and {7,3,2} = 12 achieves it.
        assert_eq!(best, 12);
    }

    #[test]
    fn two_machine_makespan_examples() {
        assert_eq!(optimal_two_machine_makespan(&[1, 5, 11, 5]), 11);
        assert_eq!(optimal_two_machine_makespan(&[3, 3, 2, 2, 2]), 6);
        assert_eq!(optimal_two_machine_makespan(&[10]), 10);
        assert_eq!(optimal_two_machine_makespan(&[]), 0);
    }

    #[test]
    fn schedule_builder_is_feasible_and_optimal() {
        let durations = [4u64, 7, 1, 3, 3, 6];
        let (inst, sched) = optimal_two_machine_schedule(&durations);
        assert!(sched.is_valid(&inst));
        assert_eq!(
            sched.makespan(&inst).ticks(),
            optimal_two_machine_makespan(&durations)
        );
    }

    #[test]
    fn agrees_with_branch_and_bound() {
        // The DP and the generic branch-and-bound must agree on P2 instances.
        let cases: [&[u64]; 5] = [
            &[1, 5, 11, 5],
            &[3, 3, 2, 2, 2],
            &[9, 7, 5, 3, 1],
            &[6, 6, 6],
            &[2, 2, 2, 2, 2, 2, 2],
        ];
        for durations in cases {
            let (inst, _) = optimal_two_machine_schedule(durations);
            let bb = ExactSolver::new().solve(&inst);
            assert!(bb.optimal);
            assert_eq!(
                bb.makespan.ticks(),
                optimal_two_machine_makespan(durations),
                "durations {durations:?}"
            );
        }
    }

    /// `ExactSolver` ≡ the DP on seeded two-machine sequential instances,
    /// reservation-free, at sizes far past brute force: whenever the search
    /// finishes its makespan is the DP's optimum, and a search cut short by
    /// its node budget never reports better than that optimum. At every
    /// size some instance is decided by a real search (nodes expanded), not
    /// by the incumbent meeting the lower bound at the root.
    #[test]
    fn exact_solver_matches_the_dp_whenever_it_finishes() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let solver = ExactSolver::with_node_budget(5_000);
        for n in [10, 20, 30, 40] {
            let mut searched = 0;
            for _ in 0..16 {
                let durations: Vec<u64> = (0..n).map(|_| 1 + next() % 100).collect();
                let (instance, _) = optimal_two_machine_schedule(&durations);
                let optimum = optimal_two_machine_makespan(&durations);
                let result = solver.solve(&instance);
                if result.optimal {
                    assert_eq!(result.makespan.ticks(), optimum, "{durations:?}");
                    searched += usize::from(result.nodes > 0);
                } else {
                    assert!(result.makespan.ticks() >= optimum, "{durations:?}");
                }
            }
            assert!(searched > 0, "n = {n}: no instance finished after a search");
        }
    }

    #[test]
    fn dp_matches_brute_force_on_small_sets() {
        // Exhaustive check against 2^n enumeration for n ≤ 10.
        let sets: [&[u64]; 4] = [
            &[1, 2, 3, 4, 5],
            &[10, 1, 1, 1],
            &[4, 4, 4, 3, 3, 3, 2],
            &[1, 1, 1, 1, 1, 1, 1, 1, 1],
        ];
        for items in sets {
            let total: u64 = items.iter().sum();
            let mut brute_best = 0u64;
            for mask in 0u32..(1 << items.len()) {
                let s: u64 = items
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &x)| x)
                    .sum();
                if s <= total / 2 {
                    brute_best = brute_best.max(s);
                }
            }
            assert_eq!(best_split(items).0, brute_best, "items {items:?}");
        }
    }
}
