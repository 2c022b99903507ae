//! Optimized ≡ reference on *loaded* instances.
//!
//! The proptests that own these equivalences (`easy_matches_probing_reference`
//! and `local_search_matches_reference_move_for_move` in `resa-algos`,
//! `transactional_search_matches_reference_node_for_node` in `resa-exact`)
//! draw small random instances. These three deterministic cases run the same
//! comparisons at the shapes the retired `decision_points` and `search`
//! bench targets checked before timing anything: queues deep enough to
//! backfill thousands of times, a round loop that accepts moves, a
//! branch-and-bound tree that exhausts its budget behind a 1 200-reservation
//! comb. Full schedules, move lists and node counts are compared, not
//! makespans alone.

use resa_repro::prelude::*;

/// A Feitelson workload under α = ½ reservations, seed 42.
fn loaded_instance(machines: u32, jobs: usize, reservations: usize, horizon: u64) -> ResaInstance {
    let jobs = FeitelsonWorkload::for_cluster(machines, jobs).generate(42);
    AlphaReservations {
        machines,
        alpha: Alpha::HALF,
        count: reservations,
        horizon,
        max_duration: 2_000,
    }
    .instance(jobs, 42)
}

#[test]
fn easy_matches_the_probing_reference_on_a_loaded_instance() {
    let inst = loaded_instance(128, 1_500, 150, 4_000_000);
    let (optimized, stats) = EasyBackfilling::new().schedule_with_stats(&inst, inst.timeline());
    let reference = EasyBackfillingReference::new().schedule_with(&inst, inst.timeline());
    assert_eq!(optimized, reference);
    assert!(optimized.is_valid(&inst));
    // The case must stay loaded: a queue that never backfills compares
    // nothing the small proptest instances do not.
    assert!(stats.decision_points > 1_000, "{stats:?}");
    assert!(stats.backfills > 1_000, "{stats:?}");
}

/// Replays a precomputed schedule, so both local searches start from the
/// same base without computing it twice.
#[derive(Debug, Clone)]
struct Precomputed(Schedule);

impl Scheduler for Precomputed {
    fn name(&self) -> String {
        "precomputed".into()
    }
    fn schedule(&self, _: &ResaInstance) -> Schedule {
        self.0.clone()
    }
}

#[test]
fn local_search_matches_the_copy_on_probe_reference_move_for_move() {
    let inst = loaded_instance(64, 300, 30, 1_000_000);
    // FCFS base: head-of-line blocking leaves earlier holes the moves can
    // pull critical jobs into, so the round loop does real work.
    let base = Precomputed(Fcfs::new().schedule(&inst));
    let (opt_schedule, opt_moves) =
        LocalSearch::with_neighborhood(base.clone(), 8, 8).schedule_with_moves(&inst);
    let (ref_schedule, ref_moves) =
        LocalSearchReference::with_neighborhood(base, 8, 8).schedule_with_moves(&inst);
    assert_eq!(opt_moves, ref_moves);
    assert_eq!(opt_schedule, ref_schedule);
    assert!(opt_schedule.is_valid(&inst));
    assert!(!opt_moves.is_empty(), "no move was accepted");
}

/// Thirteen wide jobs behind a 2 400-tick comb of alternating 6- and 7-wide
/// reservations on 8 machines: nothing fits inside the comb, so every
/// node's bound and branching query must get past ~2 400 breakpoints, and
/// the tree is dense enough to exhaust any realistic node budget.
fn comb_instance() -> ResaInstance {
    let mut b = ResaInstanceBuilder::new(8);
    for i in 0..13u64 {
        b = b.job(3 + (i % 5) as u32, 1 + (i * 3) % 9);
    }
    for t in 0..1_200u64 {
        b = b.reservation(6 + (t % 2) as u32, 2u64, 2 * t);
    }
    b.build().unwrap()
}

#[test]
fn branch_and_bound_matches_the_clone_per_node_reference_node_for_node() {
    const BUDGET: u64 = 5_000;
    let inst = comb_instance();
    let solver = ExactSolver::with_node_budget(BUDGET);
    let fast = solver.solve(&inst);
    let slow = solver.solve_reference(&inst);
    assert_eq!(fast.nodes, slow.nodes);
    assert_eq!(fast.makespan, slow.makespan);
    assert_eq!(fast.peak_depth, slow.peak_depth);
    assert_eq!(fast.schedule, slow.schedule);
    assert!(fast.schedule.is_valid(&inst));
    // Both sides stopped on the budget, not on a proof of optimality: the
    // comparison covers a truncated search, the state a rollback bug
    // would corrupt.
    assert!(!fast.optimal && fast.nodes >= BUDGET, "{}", fast.nodes);
}
