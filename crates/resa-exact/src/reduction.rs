//! The Theorem-1 reductions (inapproximability of RESASCHEDULING).
//!
//! Theorem 1 of the paper: unless P = NP there is no polynomial algorithm with
//! a finite performance ratio for RESASCHEDULING, even with `m = 1` or with a
//! single reservation. The `m = 1` proof reduces from 3-PARTITION (Figure 1):
//!
//! * one machine;
//! * `n = 3k` unit-width jobs with `p_i = x_i`;
//! * `k` reservations carving the timeline into `k` gaps of length exactly
//!   `B`, the last reservation being enormous (length `ρ·k(B+1) + 1`) so that
//!   any ρ-approximate schedule that fails to pack the jobs into the gaps is
//!   pushed beyond ratio ρ.
//!
//! If (and only if) the 3-PARTITION instance is a yes-instance, the jobs fit
//! exactly into the gaps and `C*_max = k(B+1) − 1`; a ρ-approximation would
//! therefore have to find that packing, i.e. solve 3-PARTITION.
//!
//! [`three_partition_to_resa`] builds this instance, [`extract_partition`]
//! maps a schedule of makespan `< k(B+1)` back to a 3-PARTITION witness, and
//! [`rigid_to_single_reservation`] builds the `n' = 1` variant (a huge
//! reservation placed right after a target makespan of a RIGIDSCHEDULING
//! instance).

use crate::three_partition::{Partition, ThreePartition};
use resa_core::prelude::*;

/// Outcome of [`three_partition_to_resa`]: the scheduling instance plus the
/// quantities needed to interpret schedules on it.
#[derive(Debug, Clone)]
pub struct ThreePartitionReduction {
    /// The RESASCHEDULING instance of Figure 1 (one machine).
    pub instance: ResaInstance,
    /// The gap length `B`.
    pub target: u64,
    /// The number of gaps `k`.
    pub k: usize,
    /// The optimal makespan when the 3-PARTITION instance is satisfiable:
    /// `k(B+1) − 1`.
    pub yes_makespan: Time,
    /// The end of the last (huge) reservation: `(ρ+1)·k(B+1)`.
    pub barrier_end: Time,
}

/// Build the Figure-1 instance for a 3-PARTITION instance and a claimed
/// approximation ratio `rho ≥ 1` (the length of the final blocking reservation
/// grows with `rho`).
pub fn three_partition_to_resa(tp: &ThreePartition, rho: u64) -> ThreePartitionReduction {
    assert!(rho >= 1, "the approximation ratio is at least 1");
    let b = tp.target();
    let k = tp.k();
    let ku = k as u64;
    // Jobs: unit width, duration x_i.
    let jobs: Vec<Job> = tp
        .items()
        .iter()
        .enumerate()
        .map(|(i, &x)| Job::new(i, 1, x))
        .collect();
    // Reservations: r_j = (j − n)(B+1) − 1 for the j-th reservation
    // (1-indexed over reservations), each of length 1 except the last one.
    let mut reservations = Vec::with_capacity(k);
    for j in 1..=ku {
        let start = j * (b + 1) - 1;
        let duration = if j == ku { rho * ku * (b + 1) + 1 } else { 1 };
        reservations.push(Reservation::new((j - 1) as usize, 1, duration, start));
    }
    let instance = ResaInstance::new(1, jobs, reservations)
        .expect("the Figure-1 construction is always feasible");
    ThreePartitionReduction {
        instance,
        target: b,
        k,
        yes_makespan: Time(ku * (b + 1) - 1),
        barrier_end: Time((rho + 1) * ku * (b + 1)),
    }
}

/// Interpret a schedule of the reduced instance as a 3-PARTITION witness: if
/// its makespan is at most `k(B+1) − 1`, every job runs inside one of the `k`
/// gaps, and grouping jobs by gap yields a valid partition.
///
/// Returns `None` if the makespan exceeds the yes-threshold (the schedule does
/// not certify anything) or if the grouping is not a partition into triples
/// (cannot happen for a feasible schedule within the threshold — the gaps are
/// exactly `B` long — but checked defensively).
pub fn extract_partition(
    reduction: &ThreePartitionReduction,
    schedule: &Schedule,
) -> Option<Partition> {
    let b = reduction.target;
    if schedule.makespan(&reduction.instance) > reduction.yes_makespan {
        return None;
    }
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); reduction.k];
    for placement in schedule.placements() {
        // Gap g spans [g(B+1), g(B+1) + B).
        let gap = (placement.start.ticks() / (b + 1)) as usize;
        if gap >= reduction.k {
            return None;
        }
        groups[gap].push(placement.job.0);
    }
    let mut partition = Vec::with_capacity(reduction.k);
    for g in groups {
        if g.len() != 3 {
            return None;
        }
        partition.push([g[0], g[1], g[2]]);
    }
    Some(partition)
}

/// The `n' = 1` variant of Theorem 1: given a RIGIDSCHEDULING instance and a
/// target makespan `c` (typically a guess of its optimum), add a single huge
/// reservation of the whole machine starting at `c` and lasting
/// `rho · c + 1`. Any schedule of ratio ≤ ρ on the resulting instance must
/// finish by `c` — i.e. decide whether the rigid instance has makespan ≤ `c`.
pub fn rigid_to_single_reservation(rigid: &RigidInstance, c: Time, rho: u64) -> ResaInstance {
    assert!(rho >= 1, "the approximation ratio is at least 1");
    assert!(c > Time::ZERO, "the target makespan must be positive");
    let reservation = Reservation::new(0usize, rigid.machines(), Dur(rho * c.ticks() + 1), c);
    ResaInstance::new(rigid.machines(), rigid.jobs().to_vec(), vec![reservation])
        .expect("a single full-width reservation is always feasible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch_bound::ExactSolver;
    use crate::three_partition::satisfiable_instance;
    use resa_algos::prelude::*;

    #[test]
    fn reduction_shape_matches_figure_1() {
        let tp = ThreePartition::new(vec![1, 2, 3], 6).unwrap();
        let red = three_partition_to_resa(&tp, 2);
        let inst = &red.instance;
        assert_eq!(inst.machines(), 1);
        assert_eq!(inst.n_jobs(), 3);
        assert_eq!(inst.n_reservations(), 1);
        // Single gap [0, 6), then the huge reservation starts at B = 6.
        assert_eq!(inst.reservations()[0].start, Time(6));
        assert_eq!(red.yes_makespan, Time(6));
        assert_eq!(red.barrier_end, Time(3 * 7));
        // The last reservation ends at (ρ+1)·k(B+1).
        assert_eq!(inst.reservations()[0].end(), red.barrier_end);
    }

    #[test]
    fn reduction_with_two_groups_has_unit_separators() {
        let tp = ThreePartition::new(vec![4, 2, 3, 2, 1, 4], 8).unwrap();
        let red = three_partition_to_resa(&tp, 1);
        let inst = &red.instance;
        assert_eq!(inst.n_reservations(), 2);
        // First separator: [8, 9) of length 1; second starts at 17.
        assert_eq!(inst.reservations()[0].start, Time(8));
        assert_eq!(inst.reservations()[0].duration, Dur(1));
        assert_eq!(inst.reservations()[1].start, Time(17));
        assert_eq!(red.yes_makespan, Time(17));
    }

    #[test]
    fn optimal_schedule_of_yes_instance_reaches_yes_makespan() {
        let tp = satisfiable_instance(2, 10, 3);
        let red = three_partition_to_resa(&tp, 2);
        let result = ExactSolver::new().solve(&red.instance);
        assert!(result.optimal);
        assert_eq!(result.makespan, red.yes_makespan);
        // And the optimal schedule is a 3-PARTITION witness.
        let partition = extract_partition(&red, &result.schedule).unwrap();
        assert!(tp.verify(&partition));
    }

    #[test]
    fn no_instance_forces_schedule_past_the_barrier() {
        // Unsatisfiable 3-PARTITION → any schedule must put some job after the
        // last (huge) reservation, so C_max > barrier_end ≫ yes_makespan.
        let tp = ThreePartition::new(vec![1, 1, 1, 5, 5, 5], 9).unwrap();
        assert!(!tp.is_satisfiable());
        let red = three_partition_to_resa(&tp, 2);
        let result = ExactSolver::new().solve(&red.instance);
        assert!(result.optimal);
        assert!(result.makespan > red.yes_makespan);
        assert!(result.makespan > red.barrier_end);
        assert!(extract_partition(&red, &result.schedule).is_none());
    }

    #[test]
    fn lsrc_on_yes_instance_may_miss_the_packing() {
        // LSRC is a heuristic: on the reduction it either finds the packing
        // (ratio 1) or overshoots past the barrier (unbounded ratio). Both are
        // feasible; we only check feasibility and the dichotomy.
        let tp = satisfiable_instance(3, 12, 1);
        let red = three_partition_to_resa(&tp, 2);
        let sched = Lsrc::new().schedule(&red.instance);
        assert!(sched.is_valid(&red.instance));
        let cmax = sched.makespan(&red.instance);
        assert!(cmax == red.yes_makespan || cmax > red.barrier_end || cmax >= red.yes_makespan);
    }

    #[test]
    fn single_reservation_reduction() {
        let rigid = ResaInstanceBuilder::new(2)
            .job(1, 3u64)
            .job(1, 3u64)
            .job(2, 2u64)
            .build_rigid()
            .unwrap();
        // This rigid instance has optimal makespan 5.
        let resa = rigid_to_single_reservation(&rigid, Time(5), 3);
        assert_eq!(resa.n_reservations(), 1);
        assert_eq!(resa.reservations()[0].start, Time(5));
        assert_eq!(resa.reservations()[0].width, 2);
        assert_eq!(resa.reservations()[0].duration, Dur(16));
        let result = ExactSolver::new().solve(&resa);
        assert!(result.optimal);
        assert_eq!(result.makespan, Time(5));
    }

    #[test]
    #[should_panic(expected = "ratio is at least 1")]
    fn rho_must_be_positive() {
        let tp = ThreePartition::new(vec![1, 2, 3], 6).unwrap();
        let _ = three_partition_to_resa(&tp, 0);
    }
}
