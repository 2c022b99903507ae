//! Data series behind each figure of the paper.
//!
//! The paper has four figures; every function here regenerates the data one
//! would plot (`resa figure <n>` prints / persists them):
//!
//! * **Figure 1** — the 3-PARTITION reduction picture. [`figure1_series`]
//!   builds reduced instances and reports, per instance, the optimal makespan
//!   against the makespan any schedule must reach when the packing is missed.
//! * **Figure 2** — the non-increasing-reservations transformation.
//!   [`figure2_series`] measures LSRC against the Proposition-1 bound
//!   `2 − 1/m(C*)` on random non-increasing staircases.
//! * **Figure 3** — the Proposition-2 adversarial instance.
//!   [`figure3_series`] runs LSRC on the instance for a range of `k` and
//!   compares the measured ratio with `2/α − 1 + α/2`.
//! * **Figure 4** — upper and lower bounds as functions of α.
//!   [`figure4_series`] evaluates `2/α`, `B1` and `B2` on an α grid.

use crate::guarantees;
use crate::ratio::{RatioHarness, ReferenceKind};
use resa_algos::prelude::*;
use resa_core::prelude::*;
use resa_exact::prelude::*;
use resa_workloads::prelude::*;
use serde::{Deserialize, Serialize};

/// One row of the Figure-1 experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig1Row {
    /// Number of 3-PARTITION groups.
    pub k: usize,
    /// Group target `B`.
    pub target: u64,
    /// Claimed approximation ratio ρ used to size the blocking reservation.
    pub rho: u64,
    /// Whether the underlying 3-PARTITION instance is satisfiable.
    pub satisfiable: bool,
    /// Optimal makespan of the reduced instance (exact solver).
    pub optimal: u64,
    /// Makespan of the optimal packing when it exists: `k(B+1) − 1`.
    pub yes_makespan: u64,
    /// End of the blocking reservation: `(ρ+1)·k(B+1)`.
    pub barrier_end: u64,
    /// Makespan of LSRC (submission order) on the reduced instance.
    pub lsrc: u64,
    /// Whether the exact schedule was converted back into a valid partition.
    pub partition_recovered: bool,
}

/// Build the Figure-1 series: for each `k`, one satisfiable instance (from the
/// generator) and the hard-coded unsatisfiable witness for contrast.
pub fn figure1_series(ks: &[usize], target: u64, rho: u64, seed: u64) -> Vec<Fig1Row> {
    crate::runner::ExperimentRunner::sequential().figure1(ks, target, rho, seed)
}

/// One satisfiable Figure-1 cell: reduce a generated 3-PARTITION instance for
/// `k` groups and solve it. Self-contained per `(k, seed)`, so the parallel
/// runner can fan the cells out.
pub(crate) fn figure1_cell(k: usize, target: u64, rho: u64, seed: u64) -> Fig1Row {
    let tp = satisfiable_instance(k, target, seed + k as u64);
    figure1_row(&tp, rho)
}

/// The hard-coded unsatisfiable Figure-1 witness (three 5s cannot be split
/// across two bins of 9), appended after the satisfiable cells.
pub(crate) fn figure1_witness(rho: u64) -> Option<Fig1Row> {
    ThreePartition::new(vec![1, 1, 1, 5, 5, 5], 9)
        .ok()
        .map(|tp| figure1_row(&tp, rho))
}

fn figure1_row(tp: &ThreePartition, rho: u64) -> Fig1Row {
    let red = three_partition_to_resa(tp, rho);
    let exact = ExactSolver::new().solve(&red.instance);
    let lsrc = Lsrc::new().schedule(&red.instance);
    let partition_recovered = extract_partition(&red, &exact.schedule)
        .map(|p| tp.verify(&p))
        .unwrap_or(false);
    Fig1Row {
        k: tp.k(),
        target: tp.target(),
        rho,
        satisfiable: tp.is_satisfiable(),
        optimal: exact.makespan.ticks(),
        yes_makespan: red.yes_makespan.ticks(),
        barrier_end: red.barrier_end.ticks(),
        lsrc: lsrc.makespan(&red.instance).ticks(),
        partition_recovered,
    }
}

/// One row of the Figure-2 experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2Row {
    /// Cluster size.
    pub machines: u32,
    /// Number of jobs.
    pub jobs: usize,
    /// Machines available at the reference makespan, `m(C*)`.
    pub available_at_reference: u32,
    /// The reference makespan (optimum or lower bound).
    pub reference: u64,
    /// Whether the reference is the true optimum.
    pub reference_is_optimal: bool,
    /// LSRC makespan on the original instance.
    pub lsrc: u64,
    /// LSRC makespan on the transformed instance (surrogate head tasks).
    pub lsrc_transformed: u64,
    /// Measured ratio `lsrc / reference`.
    pub ratio: f64,
    /// The Proposition-1 guarantee `2 − 1/m(C*)`.
    pub bound: f64,
}

/// Build the Figure-2 series on random non-increasing staircases.
pub fn figure2_series(
    machines_list: &[u32],
    jobs_per_instance: usize,
    seeds: &[u64],
) -> Vec<Fig2Row> {
    crate::runner::ExperimentRunner::sequential().figure2(machines_list, jobs_per_instance, seeds)
}

/// One Figure-2 cell: a random non-increasing staircase instance for
/// `(machines, seed)`, measured against the Proposition-1 bound. The RNG
/// stream is derived from the cell's own seed, so cells are order- and
/// thread-independent.
pub(crate) fn figure2_cell(m: u32, jobs_per_instance: usize, seed: u64) -> Fig2Row {
    let harness = RatioHarness::new();
    let workload = UniformWorkload::for_cluster(m, jobs_per_instance);
    let staircase = NonIncreasingReservations {
        machines: m,
        steps: 3,
        max_initial_unavailable: m / 2,
        max_duration: 40,
    };
    let inst = staircase.instance(workload.generate(seed), seed);
    let (reference, kind) = harness.reference(&inst);
    let available = inst.profile().capacity_at(reference);
    let lsrc = Lsrc::new().schedule(&inst);
    // The Proposition-1 transformation, truncated at the reference.
    let lsrc_transformed = nonincreasing_to_rigid(&inst, reference)
        .ok()
        .map(|tr| {
            let rigid_resa = tr.instance.clone().into_resa();
            // Surrogates at the head of the list = submission order of
            // the transformed instance with surrogates re-inserted
            // first; we emulate it by scheduling the surrogate jobs
            // first through a custom instance ordering.
            let order = head_list_order(&tr);
            lsrc_with_explicit_order(&rigid_resa, &order)
        })
        .unwrap_or_else(|| lsrc.makespan(&inst));
    let ratio = lsrc.makespan(&inst).ticks() as f64 / reference.ticks().max(1) as f64;
    Fig2Row {
        machines: m,
        jobs: jobs_per_instance,
        available_at_reference: available,
        reference: reference.ticks(),
        reference_is_optimal: kind == ReferenceKind::Optimal,
        lsrc: lsrc.makespan(&inst).ticks(),
        lsrc_transformed: lsrc_transformed.ticks(),
        ratio,
        bound: guarantees::nonincreasing_bound(available.max(1)),
    }
}

/// Run LSRC with an explicit job-id list order (used by the Figure-2
/// transformation, whose head tasks must be scanned first).
fn lsrc_with_explicit_order(instance: &ResaInstance, order: &[JobId]) -> Time {
    // Re-index jobs so that submission order equals the requested order, then
    // run the stock LSRC(submission).
    let mut jobs = Vec::with_capacity(instance.n_jobs());
    for (new_id, &old_id) in order.iter().enumerate() {
        let j = instance
            .job(old_id)
            .expect("order references instance jobs");
        jobs.push(Job::released_at(new_id, j.width, j.duration, j.release));
    }
    let reordered = ResaInstance::new(instance.machines(), jobs, instance.reservations().to_vec())
        .expect("reordering preserves validity");
    Lsrc::new().schedule(&reordered).makespan(&reordered)
}

/// One row of the Figure-3 experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3Row {
    /// The parameter `k` (α = 2/k).
    pub k: u32,
    /// α as a float (for plotting).
    pub alpha: f64,
    /// Cluster size `m = k²(k−1)`.
    pub machines: u32,
    /// Optimal makespan (scaled): `k`.
    pub optimal: u64,
    /// LSRC makespan with the adversarial submission order.
    pub lsrc: u64,
    /// Measured ratio.
    pub measured_ratio: f64,
    /// Predicted ratio `2/α − 1 + α/2`.
    pub predicted_ratio: f64,
}

/// Build the Figure-3 series for the given values of `k ≥ 3`.
pub fn figure3_series(ks: &[u32]) -> Vec<Fig3Row> {
    crate::runner::ExperimentRunner::sequential().figure3(ks)
}

/// One Figure-3 cell: the Proposition-2 adversarial instance for `k`.
pub(crate) fn figure3_cell(k: u32) -> Fig3Row {
    let adv = proposition2_instance(k);
    let alpha = proposition2_alpha(k).as_f64();
    let lsrc = Lsrc::new().schedule(&adv.instance);
    let optimal = proposition2_optimal_schedule(k);
    debug_assert!(optimal.is_valid(&adv.instance));
    debug_assert_eq!(optimal.makespan(&adv.instance), adv.optimal_makespan);
    let measured =
        lsrc.makespan(&adv.instance).ticks() as f64 / adv.optimal_makespan.ticks() as f64;
    Fig3Row {
        k,
        alpha,
        machines: adv.instance.machines(),
        optimal: adv.optimal_makespan.ticks(),
        lsrc: lsrc.makespan(&adv.instance).ticks(),
        measured_ratio: measured,
        predicted_ratio: guarantees::proposition2_lower_bound(alpha),
    }
}

/// One row of the Figure-4 series.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Fig4Row {
    /// The α value.
    pub alpha: f64,
    /// Upper bound `2/α` (Proposition 3).
    pub upper_bound: f64,
    /// Lower bound `B1`.
    pub b1: f64,
    /// Lower bound `B2`.
    pub b2: f64,
}

/// Evaluate the Figure-4 curves on a uniform α grid of `points` values in
/// `[min_alpha, 1]`.
pub fn figure4_series(min_alpha: f64, points: usize) -> Vec<Fig4Row> {
    assert!(points >= 2);
    assert!(min_alpha > 0.0 && min_alpha < 1.0);
    (0..points)
        .map(|i| {
            let alpha = min_alpha + (1.0 - min_alpha) * i as f64 / (points - 1) as f64;
            Fig4Row {
                alpha,
                upper_bound: guarantees::alpha_upper_bound(alpha),
                b1: guarantees::lower_bound_b1(alpha),
                b2: guarantees::lower_bound_b2(alpha),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_yes_and_no_instances() {
        let rows = figure1_series(&[2], 10, 2, 1);
        assert_eq!(rows.len(), 2);
        let yes = &rows[0];
        assert!(yes.satisfiable);
        assert_eq!(yes.optimal, yes.yes_makespan);
        assert!(yes.partition_recovered);
        let no = &rows[1];
        assert!(!no.satisfiable);
        assert!(no.optimal > no.barrier_end);
        assert!(!no.partition_recovered);
        // LSRC either finds the packing or overshoots the barrier — never in
        // between (there is nothing to schedule between the yes-makespan and
        // the end of the blocking reservation).
        for row in &rows {
            assert!(row.lsrc <= row.yes_makespan || row.lsrc > row.barrier_end);
        }
    }

    #[test]
    fn figure2_respects_proposition1_bound() {
        let rows = figure2_series(&[6, 10], 8, &[1, 2]);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.ratio >= 1.0 - 1e-9);
            if row.reference_is_optimal {
                assert!(
                    row.ratio <= row.bound + 1e-9,
                    "ratio {} exceeds bound {}",
                    row.ratio,
                    row.bound
                );
            }
            assert!(row.bound < 2.0);
            assert!(row.available_at_reference >= row.machines / 2);
        }
    }

    #[test]
    fn figure3_matches_the_formula() {
        let rows = figure3_series(&[3, 4, 5, 6]);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(
                (row.measured_ratio - row.predicted_ratio).abs() < 1e-9,
                "k = {}",
                row.k
            );
        }
        // The k = 6 row is the printed Figure-3 picture: m = 180, 6 vs 31.
        let k6 = rows.iter().find(|r| r.k == 6).unwrap();
        assert_eq!(k6.machines, 180);
        assert_eq!(k6.optimal, 6);
        assert_eq!(k6.lsrc, 31);
    }

    #[test]
    fn figure4_grid_is_monotone_in_alpha() {
        let rows = figure4_series(0.1, 50);
        assert_eq!(rows.len(), 50);
        assert!((rows[0].alpha - 0.1).abs() < 1e-12);
        assert!((rows[49].alpha - 1.0).abs() < 1e-12);
        for row in &rows {
            assert!(row.b2 <= row.b1 + 1e-9);
            assert!(row.b1 <= row.upper_bound + 1e-9);
        }
        // The upper bound decreases with α.
        assert!(rows.first().unwrap().upper_bound > rows.last().unwrap().upper_bound);
    }
}
