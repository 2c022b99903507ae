//! Local-search improvement of list schedules, as a *persistent incremental
//! optimizer* over the transactional availability timeline.
//!
//! The conclusion of the paper asks whether *variants of list scheduling can
//! improve the upper bound*. This module implements a guarantee-preserving
//! improvement pass on top of any base scheduler. Its neighborhood has two
//! move kinds, tried in this order each round:
//!
//! 1. **Delta moves** — for each of the `top_k` *critical* jobs (latest
//!    completion, ties by latest start), speculatively `release` the job
//!    from the shared timeline, re-insert it at its earliest fit, and keep
//!    the move only if the job moved strictly earlier — otherwise
//!    `rollback_to` the checkpoint. A delta move costs `O(log B)` against
//!    the `O(n log B)` full rebuild it replaces; makespan is tracked
//!    incrementally through an ordered completion set instead of a full
//!    `makespan(instance)` rescan.
//! 2. **Promote-to-front rebuild** — when the delta moves leave the makespan
//!    unchanged, fall back to the classical move: re-insert *every* job
//!    earliest-fit with the critical job promoted to the front of the list,
//!    and keep the rebuilt schedule only if the makespan strictly
//!    decreased. The accepted rebuild re-anchors the persistent timeline in
//!    one bulk [`AvailabilityTimeline::from_placements`] pass.
//!
//! The search stops at a fixed point (no delta move accepted and the
//! rebuild does not improve) or after [`LocalSearch::max_rounds`] rounds.
//! Every accepted move only ever lowers (or preserves) the makespan of the
//! base schedule, so all the worst-case guarantees of the paper still apply
//! to the improved schedule — the pass can only help.
//!
//! [`LocalSearchReference`] keeps the previous-generation formulation of the
//! *same* neighborhood — a fresh naive [`ResourceProfile`] rebuilt from
//! scratch for every candidate evaluation, full makespan rescans, no undo
//! log — as the oracle: the property tests in this module prove the two
//! accept the identical move sequence and return the identical schedule on
//! random instances (`move-for-move` equivalence), and
//! `tests/reference_equivalence.rs` repeats the comparison on a loaded
//! instance.

use crate::traits::Scheduler;
use resa_core::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// One accepted local-search step, recorded for the move-for-move
/// equivalence tests and the ablation experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalMove {
    /// A critical job was released and re-inserted strictly earlier.
    Delta {
        /// The job that moved.
        job: JobId,
        /// Its start before the move.
        from: Time,
        /// Its start after the move.
        to: Time,
    },
    /// A full promote-to-front rebuild was accepted.
    Rebuild {
        /// The critical job promoted to the front of the list.
        critical: JobId,
        /// Makespan of the rebuilt schedule.
        makespan: Time,
    },
}

/// A guarantee-preserving improvement wrapper around any scheduler,
/// implemented incrementally on the transactional timeline.
#[derive(Debug, Clone)]
pub struct LocalSearch<S> {
    base: S,
    /// Maximum number of improvement rounds.
    pub max_rounds: usize,
    /// Number of critical jobs probed with delta moves per round.
    pub top_k: usize,
}

impl<S: Scheduler> LocalSearch<S> {
    /// Wrap `base` with the default budgets (16 rounds, top-4 neighborhood).
    pub fn new(base: S) -> Self {
        LocalSearch {
            base,
            max_rounds: 16,
            top_k: 4,
        }
    }

    /// Wrap `base` with explicit round and neighborhood budgets.
    pub fn with_neighborhood(base: S, max_rounds: usize, top_k: usize) -> Self {
        LocalSearch {
            base,
            max_rounds,
            top_k,
        }
    }

    /// Run the improvement and return the accepted move sequence (the
    /// equivalence witness against [`LocalSearchReference`]).
    pub fn schedule_with_moves(&self, instance: &ResaInstance) -> (Schedule, Vec<LocalMove>) {
        let base_schedule = self.base.schedule(instance);
        improve(instance, base_schedule, self.max_rounds, self.top_k)
    }
}

/// State shared by one improvement run: current starts (indexed by job
/// position, not by `O(n)` id lookups), and the completion order statistics.
struct SearchState {
    /// Current start of job `i` (position in `instance.jobs()`).
    starts: Vec<Time>,
    /// `(completion, start, index)` of every job, ordered; the last element
    /// is the critical job and its completion is the makespan.
    criticality: BTreeSet<(Time, Time, usize)>,
}

impl SearchState {
    fn from_starts(instance: &ResaInstance, starts: Vec<Time>) -> Self {
        let criticality = instance
            .jobs()
            .iter()
            .enumerate()
            .map(|(i, j)| (starts[i] + j.duration, starts[i], i))
            .collect();
        SearchState {
            starts,
            criticality,
        }
    }

    /// Incremental makespan: the largest completion in the ordered set.
    fn makespan(&self) -> Time {
        self.criticality
            .iter()
            .next_back()
            .map_or(Time::ZERO, |&(c, _, _)| c)
    }

    /// The `k` most critical job indices, most critical first.
    fn top_critical(&self, k: usize) -> Vec<usize> {
        self.criticality
            .iter()
            .rev()
            .take(k)
            .map(|&(_, _, i)| i)
            .collect()
    }

    fn move_job(&mut self, instance: &ResaInstance, i: usize, to: Time) {
        let dur = instance.jobs()[i].duration;
        let removed = self
            .criticality
            .remove(&(self.starts[i] + dur, self.starts[i], i));
        debug_assert!(removed);
        self.criticality.insert((to + dur, to, i));
        self.starts[i] = to;
    }

    fn into_schedule(self, instance: &ResaInstance) -> Schedule {
        let mut s = Schedule::new();
        for (i, j) in instance.jobs().iter().enumerate() {
            s.place(j.id, self.starts[i]);
        }
        s
    }
}

/// Starts of `schedule` indexed by job position. One indexed lookup per
/// placement (a map built once), never a per-placement `instance.job` scan.
fn starts_by_position(instance: &ResaInstance, schedule: &Schedule) -> Vec<Time> {
    let index_of: HashMap<JobId, usize> = instance
        .jobs()
        .iter()
        .enumerate()
        .map(|(i, j)| (j.id, i))
        .collect();
    let mut starts = vec![Time::ZERO; instance.n_jobs()];
    for p in schedule.placements() {
        starts[index_of[&p.job]] = p.start;
    }
    starts
}

/// The incremental improvement loop (see the module docs for the
/// neighborhood). Returns the improved schedule and the accepted moves.
fn improve(
    instance: &ResaInstance,
    base: Schedule,
    max_rounds: usize,
    top_k: usize,
) -> (Schedule, Vec<LocalMove>) {
    let mut moves = Vec::new();
    if base.is_empty() {
        return (base, moves);
    }
    let jobs = instance.jobs();
    let mut state = SearchState::from_starts(instance, starts_by_position(instance, &base));
    // The persistent timeline, alive across every round; bulk-indexed once.
    let mut timeline = AvailabilityTimeline::from_placements(instance, base.placements())
        .expect("base schedulers produce feasible schedules");
    for _ in 0..max_rounds {
        let makespan_before = state.makespan();
        let mut moved = false;
        for c in state.top_critical(top_k) {
            let job = &jobs[c];
            let mark = timeline.checkpoint();
            timeline
                .release(state.starts[c], job.duration, job.width)
                .expect("the timeline contains every current placement");
            let refit = timeline
                .earliest_fit(job.width, job.duration, job.release)
                .expect("releasing a job cannot make the instance infeasible");
            if refit < state.starts[c] {
                timeline
                    .reserve(refit, job.duration, job.width)
                    .expect("earliest_fit guarantees capacity");
                timeline.commit(mark);
                moves.push(LocalMove::Delta {
                    job: job.id,
                    from: state.starts[c],
                    to: refit,
                });
                state.move_job(instance, c, refit);
                moved = true;
            } else {
                timeline.rollback_to(mark);
            }
        }
        if state.makespan() < makespan_before {
            continue;
        }
        // Delta moves stalled on the makespan: classical promote-to-front
        // rebuild of the whole list, accepted only on strict improvement.
        let &(_, _, critical) = state
            .criticality
            .iter()
            .next_back()
            .expect("non-empty schedule");
        if let Some(rebuilt) = rebuild_promoting(instance, &state.starts, critical) {
            let candidate = SearchState::from_starts(instance, rebuilt);
            if candidate.makespan() < state.makespan() {
                moves.push(LocalMove::Rebuild {
                    critical: jobs[critical].id,
                    makespan: candidate.makespan(),
                });
                state = candidate;
                // Re-anchor the persistent timeline in one bulk pass.
                let placements: Vec<Placement> = jobs
                    .iter()
                    .enumerate()
                    .map(|(i, j)| Placement {
                        job: j.id,
                        start: state.starts[i],
                    })
                    .collect();
                timeline = AvailabilityTimeline::from_placements(instance, &placements)
                    .expect("rebuilt schedules are feasible");
                continue;
            }
        }
        if !moved {
            break;
        }
    }
    (state.into_schedule(instance), moves)
}

/// Earliest-fit re-insertion of every job with `critical` promoted to the
/// front and the rest ordered by current start (ties by position). Returns
/// the new starts, or `None` if some job cannot fit (impossible on valid
/// instances).
///
/// Runs on the naive profile: a full rebuild is a sequential burst of `n`
/// reserves at `n` fresh breakpoints, the one access pattern where the
/// normalized list's contiguous inserts beat the tree's rebuild-on-split
/// (measured when the timeline landed in PR 1) — and both backends produce
/// identical schedules, so this is purely a constant-factor choice. The
/// *speculative* per-candidate work stays on the transactional timeline.
fn rebuild_promoting(
    instance: &ResaInstance,
    starts: &[Time],
    critical: usize,
) -> Option<Vec<Time>> {
    let jobs = instance.jobs();
    let mut order: Vec<(Time, usize)> = (0..jobs.len())
        .filter(|&i| i != critical)
        .map(|i| (starts[i], i))
        .collect();
    order.sort_unstable();
    let mut profile = instance.profile();
    let mut rebuilt = vec![Time::ZERO; jobs.len()];
    for i in std::iter::once(critical).chain(order.into_iter().map(|(_, i)| i)) {
        let job = &jobs[i];
        let start = profile.earliest_fit(job.width, job.duration, job.release)?;
        profile
            .reserve(start, job.duration, job.width)
            .expect("earliest_fit guarantees capacity");
        rebuilt[i] = start;
    }
    Some(rebuilt)
}

impl<S: Scheduler> Scheduler for LocalSearch<S> {
    fn name(&self) -> String {
        format!("local-search({})", self.base.name())
    }

    fn schedule(&self, instance: &ResaInstance) -> Schedule {
        self.schedule_with_moves(instance).0
    }
}

/// The previous-generation formulation of the same neighborhood, retained as
/// the correctness oracle: every candidate evaluation rebuilds a fresh naive
/// [`ResourceProfile`] from all current placements (`O(n · B)`), the critical
/// scan re-sorts completions from scratch, and makespans come from full
/// rescans — no persistent state, no undo log.
#[derive(Debug, Clone)]
pub struct LocalSearchReference<S> {
    base: S,
    /// Maximum number of improvement rounds.
    pub max_rounds: usize,
    /// Number of critical jobs probed with delta moves per round.
    pub top_k: usize,
}

impl<S: Scheduler> LocalSearchReference<S> {
    /// Wrap `base` with the default budgets (16 rounds, top-4 neighborhood).
    pub fn new(base: S) -> Self {
        LocalSearchReference {
            base,
            max_rounds: 16,
            top_k: 4,
        }
    }

    /// Wrap `base` with explicit round and neighborhood budgets.
    pub fn with_neighborhood(base: S, max_rounds: usize, top_k: usize) -> Self {
        LocalSearchReference {
            base,
            max_rounds,
            top_k,
        }
    }

    /// Run the improvement and return the accepted move sequence.
    pub fn schedule_with_moves(&self, instance: &ResaInstance) -> (Schedule, Vec<LocalMove>) {
        let base_schedule = self.base.schedule(instance);
        improve_reference(instance, base_schedule, self.max_rounds, self.top_k)
    }
}

/// Naive availability of the current placements, rebuilt from scratch:
/// the reservation profile plus one sequential reserve per placed job,
/// excluding job `skip` (pass `usize::MAX` to keep every job).
fn naive_profile_excluding(
    instance: &ResaInstance,
    starts: &[Time],
    skip: usize,
) -> ResourceProfile {
    let mut profile = instance.profile();
    for (i, j) in instance.jobs().iter().enumerate() {
        if i != skip {
            profile
                .reserve(starts[i], j.duration, j.width)
                .expect("current placements are feasible");
        }
    }
    profile
}

/// Critical order, recomputed from scratch: job indices by descending
/// `(completion, start, index)`.
fn critical_order_rescan(instance: &ResaInstance, starts: &[Time]) -> Vec<usize> {
    let mut order: Vec<(Time, Time, usize)> = instance
        .jobs()
        .iter()
        .enumerate()
        .map(|(i, j)| (starts[i] + j.duration, starts[i], i))
        .collect();
    order.sort_unstable();
    order.into_iter().rev().map(|(_, _, i)| i).collect()
}

/// Full makespan rescan.
fn makespan_rescan(instance: &ResaInstance, starts: &[Time]) -> Time {
    instance
        .jobs()
        .iter()
        .enumerate()
        .map(|(i, j)| starts[i] + j.duration)
        .max()
        .unwrap_or(Time::ZERO)
}

fn improve_reference(
    instance: &ResaInstance,
    base: Schedule,
    max_rounds: usize,
    top_k: usize,
) -> (Schedule, Vec<LocalMove>) {
    let mut moves = Vec::new();
    if base.is_empty() {
        return (base, moves);
    }
    let jobs = instance.jobs();
    let mut starts = starts_by_position(instance, &base);
    for _ in 0..max_rounds {
        let makespan_before = makespan_rescan(instance, &starts);
        let mut moved = false;
        for c in critical_order_rescan(instance, &starts)
            .into_iter()
            .take(top_k)
        {
            let job = &jobs[c];
            // Copy-on-probe: a fresh profile without the candidate.
            let probe = naive_profile_excluding(instance, &starts, c);
            let refit = probe
                .earliest_fit(job.width, job.duration, job.release)
                .expect("releasing a job cannot make the instance infeasible");
            if refit < starts[c] {
                moves.push(LocalMove::Delta {
                    job: job.id,
                    from: starts[c],
                    to: refit,
                });
                starts[c] = refit;
                moved = true;
            }
        }
        if makespan_rescan(instance, &starts) < makespan_before {
            continue;
        }
        let critical = critical_order_rescan(instance, &starts)[0];
        if let Some(rebuilt) = rebuild_promoting_reference(instance, &starts, critical) {
            let rebuilt_makespan = makespan_rescan(instance, &rebuilt);
            if rebuilt_makespan < makespan_rescan(instance, &starts) {
                moves.push(LocalMove::Rebuild {
                    critical: jobs[critical].id,
                    makespan: rebuilt_makespan,
                });
                starts = rebuilt;
                continue;
            }
        }
        if !moved {
            break;
        }
    }
    let mut schedule = Schedule::new();
    for (i, j) in jobs.iter().enumerate() {
        schedule.place(j.id, starts[i]);
    }
    (schedule, moves)
}

/// [`rebuild_promoting`] on the naive profile backend.
fn rebuild_promoting_reference(
    instance: &ResaInstance,
    starts: &[Time],
    critical: usize,
) -> Option<Vec<Time>> {
    let jobs = instance.jobs();
    let mut order: Vec<(Time, usize)> = (0..jobs.len())
        .filter(|&i| i != critical)
        .map(|i| (starts[i], i))
        .collect();
    order.sort_unstable();
    let mut profile = instance.profile();
    let mut rebuilt = vec![Time::ZERO; jobs.len()];
    for i in std::iter::once(critical).chain(order.into_iter().map(|(_, i)| i)) {
        let job = &jobs[i];
        let start = profile.earliest_fit(job.width, job.duration, job.release)?;
        profile
            .reserve(start, job.duration, job.width)
            .expect("earliest_fit guarantees capacity");
        rebuilt[i] = start;
    }
    Some(rebuilt)
}

impl<S: Scheduler> Scheduler for LocalSearchReference<S> {
    fn name(&self) -> String {
        format!("local-search-reference({})", self.base.name())
    }

    fn schedule(&self, instance: &ResaInstance) -> Schedule {
        self.schedule_with_moves(instance).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list_scheduling::Lsrc;

    #[test]
    fn improves_the_graham_tightness_pattern() {
        // The classical 2 − 1/m pattern: LSRC(submission) is fooled, the
        // local search promotes the long job to the front and recovers the
        // optimum.
        let m = 4u32;
        let mut b = ResaInstanceBuilder::new(m);
        b = b.jobs((m * (m - 1)) as usize, 1, 1u64);
        b = b.job(1, m as u64);
        let inst = b.build().unwrap();
        let base = Lsrc::new();
        let improved = LocalSearch::new(base);
        let before = base.makespan(&inst);
        let after = improved.schedule(&inst);
        assert!(after.is_valid(&inst));
        assert_eq!(before, Time(2 * m as u64 - 1));
        assert_eq!(after.makespan(&inst), Time(m as u64));
    }

    #[test]
    fn never_hurts() {
        for seed in 0..20u64 {
            // Pseudo-random small instances via a deterministic pattern.
            let mut b = ResaInstanceBuilder::new(6);
            for i in 0..8u64 {
                let w = 1 + ((seed + i * 7) % 5) as u32;
                let p = 1 + (seed * 3 + i) % 9;
                b = b.job(w, p);
            }
            if seed % 3 == 0 {
                b = b.reservation(3, 4u64, 5u64);
            }
            let inst = b.build().unwrap();
            let base = Lsrc::new();
            let wrapped = LocalSearch::new(base);
            let sched = wrapped.schedule(&inst);
            assert!(sched.is_valid(&inst), "seed {seed}");
            assert!(
                sched.makespan(&inst) <= base.makespan(&inst),
                "seed {seed}: local search must never hurt"
            );
        }
    }

    #[test]
    fn preserves_release_dates_and_reservations() {
        let inst = ResaInstanceBuilder::new(4)
            .job_released_at(2, 5u64, 10u64)
            .job(4, 3u64)
            .job(2, 8u64)
            .reservation(2, 6u64, 4u64)
            .build()
            .unwrap();
        let sched = LocalSearch::new(Lsrc::new()).schedule(&inst);
        assert!(sched.is_valid(&inst));
        assert!(sched.start_of(JobId(0)).unwrap() >= Time(10));
    }

    #[test]
    fn zero_rounds_is_the_base_schedule() {
        let inst = ResaInstanceBuilder::new(4)
            .job(2, 3u64)
            .job(2, 5u64)
            .build()
            .unwrap();
        let base = Lsrc::new();
        let wrapped = LocalSearch {
            max_rounds: 0,
            ..LocalSearch::new(base)
        };
        assert_eq!(
            wrapped.schedule(&inst).makespan(&inst),
            base.schedule(&inst).makespan(&inst)
        );
    }

    #[test]
    fn empty_instance() {
        let inst = ResaInstanceBuilder::new(4).build().unwrap();
        let sched = LocalSearch::new(Lsrc::new()).schedule(&inst);
        assert!(sched.is_empty());
    }

    #[test]
    fn name_mentions_base() {
        assert_eq!(
            LocalSearch::new(Lsrc::new()).name(),
            "local-search(LSRC(submission))"
        );
        assert_eq!(
            LocalSearchReference::new(Lsrc::new()).name(),
            "local-search-reference(LSRC(submission))"
        );
    }

    #[test]
    fn delta_move_fills_a_hole_without_a_rebuild() {
        // One wide job blocks [0,4); a narrow late job fits in the leftover
        // width — the delta move pulls it left without touching the rest.
        let inst = ResaInstanceBuilder::new(4)
            .job(3, 4u64) // J0 at 0
            .job(1, 2u64) // J1: LSRC puts it at 0; leave a hole by hand
            .build()
            .unwrap();
        // Hand-build a suboptimal but feasible base: J1 after J0.
        struct Fixed;
        impl Scheduler for Fixed {
            fn name(&self) -> String {
                "fixed".into()
            }
            fn schedule(&self, _: &ResaInstance) -> Schedule {
                let mut s = Schedule::new();
                s.place(JobId(0), Time(0));
                s.place(JobId(1), Time(4));
                s
            }
        }
        let (sched, moves) = LocalSearch::new(Fixed).schedule_with_moves(&inst);
        assert_eq!(sched.start_of(JobId(1)), Some(Time(0)));
        assert!(matches!(
            moves.as_slice(),
            [LocalMove::Delta {
                job: JobId(1),
                from: Time(4),
                to: Time(0),
            }]
        ));
        assert_eq!(sched.makespan(&inst), Time(4));
    }

    /// Satellite regression: a 10k-job instance with *non-dense* job ids.
    /// Before the rewrite, the critical-job scan and the re-insertion loop
    /// resolved each placement through `instance.job(id)`, whose fallback is
    /// a linear scan for non-dense ids — `O(n²)` per round. The rewrite
    /// indexes placements by position once per run, so this completes in
    /// well under a second even in debug builds.
    #[test]
    fn ten_thousand_jobs_with_non_dense_ids() {
        // Unit jobs on a wide cluster keep the breakpoint count tiny, so the
        // only O(n²) hazard left is per-placement id resolution — which is
        // exactly what this test pins down (a reintroduced linear fallback
        // costs ~10⁸ id comparisons here and times the test out).
        let n = 10_000usize;
        let jobs: Vec<Job> = (0..n).map(|i| Job::new(2 * i + 7, 1, 1u64)).collect();
        let inst = ResaInstance::new(512, jobs, Vec::new()).unwrap();
        let base = Lsrc::new();
        let wrapped = LocalSearch::with_neighborhood(base, 2, 4);
        let (sched, _) = wrapped.schedule_with_moves(&inst);
        assert_eq!(sched.len(), n);
        assert!(sched.is_valid(&inst));
        assert!(sched.makespan(&inst) <= base.makespan(&inst));
    }

    #[test]
    fn reference_matches_on_the_graham_pattern() {
        let m = 4u32;
        let mut b = ResaInstanceBuilder::new(m);
        b = b.jobs((m * (m - 1)) as usize, 1, 1u64);
        b = b.job(1, m as u64);
        let inst = b.build().unwrap();
        let fast = LocalSearch::new(Lsrc::new()).schedule_with_moves(&inst);
        let slow = LocalSearchReference::new(Lsrc::new()).schedule_with_moves(&inst);
        assert_eq!(fast, slow);
    }
}
