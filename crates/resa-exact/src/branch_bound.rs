//! Exact branch-and-bound solver for RESASCHEDULING.
//!
//! The solver enumerates permutations of the jobs and, for each permutation,
//! inserts the jobs one at a time at their earliest feasible start given the
//! already-placed jobs and the reservations. This is complete: for any
//! feasible schedule, inserting the jobs in non-decreasing order of their
//! start times at earliest fit yields a schedule that is nowhere later
//! (jobs can only move left, and moving a job earlier never increases the
//! processor usage at or after the start of a later-started job). Hence the
//! best earliest-fit insertion order achieves the optimal makespan.
//!
//! The search is pruned by:
//! * an incumbent obtained greedily (earliest-fit in LPT order);
//! * the certified lower bounds of [`resa_core::bounds`] applied to the
//!   remaining work on the remaining availability;
//! * symmetry breaking between identical jobs (the one with the smaller id is
//!   always inserted first);
//! * an optional node budget, after which the best schedule found so far is
//!   returned and flagged as possibly sub-optimal.
//!
//! # Clone-free speculation
//!
//! [`ExactSolver::solve`] explores the tree on **one shared transactional
//! [`AvailabilityTimeline`]**: each branch is `checkpoint` → `reserve` →
//! recurse → `rollback_to`, so the per-node cost is proportional to the
//! touched breakpoints (`O(log B)` plus the undo of one reserve) instead of
//! the `O(B)` profile clone per node the previous generation paid. The
//! partial schedule is likewise unwound with [`Schedule::pop`] instead of
//! being re-cloned. The previous clone-per-node formulation is retained as
//! [`ExactSolver::solve_reference`]; property tests in this crate prove the
//! two expand the *same number of nodes to the same peak depth* and return
//! the same result (node-for-node equivalence), and
//! `tests/reference_equivalence.rs` repeats the comparison on a truncated
//! search behind a 1 200-reservation comb.

use resa_core::prelude::*;

/// Result of an exact (or budget-truncated) solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactResult {
    /// Best makespan found.
    pub makespan: Time,
    /// A schedule achieving [`ExactResult::makespan`].
    pub schedule: Schedule,
    /// Whether the search completed (result proven optimal) or was cut short
    /// by the node budget.
    pub optimal: bool,
    /// Number of search nodes expanded.
    pub nodes: u64,
    /// Deepest DFS level reached (number of jobs placed along the deepest
    /// explored branch).
    pub peak_depth: usize,
}

/// Branch-and-bound solver.
#[derive(Debug, Clone, Copy)]
pub struct ExactSolver {
    /// Maximum number of search nodes to expand before giving up on
    /// optimality (the best incumbent is still returned).
    pub max_nodes: u64,
}

impl Default for ExactSolver {
    fn default() -> Self {
        ExactSolver {
            max_nodes: 2_000_000,
        }
    }
}

struct SearchCtx<'a> {
    instance: &'a ResaInstance,
    max_nodes: u64,
    nodes: u64,
    budget_exhausted: bool,
    best_makespan: Time,
    best_schedule: Schedule,
    peak_depth: usize,
}

impl ExactSolver {
    /// Create a solver with the default node budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a solver with an explicit node budget.
    pub fn with_node_budget(max_nodes: u64) -> Self {
        ExactSolver { max_nodes }
    }

    /// Solve `instance` to optimality (or to the node budget) on the shared
    /// transactional timeline (clone-free speculation).
    pub fn solve(&self, instance: &ResaInstance) -> ExactResult {
        let (mut ctx, global_lb, order) = self.prepare(instance);
        if let Some(order) = order {
            let mut placed = vec![false; instance.n_jobs()];
            let mut partial = Schedule::new();
            let mut timeline = instance.timeline();
            dfs(
                &mut ctx,
                &order,
                &mut placed,
                &mut partial,
                &mut timeline,
                Time::ZERO,
                global_lb,
                0,
            );
        }
        finish(ctx)
    }

    /// The previous-generation search — a fresh [`ResourceProfile`] clone at
    /// every node, schedule undo by re-cloning the placement list — retained
    /// as the equivalence oracle. Expands the same nodes in the same order as
    /// [`ExactSolver::solve`].
    pub fn solve_reference(&self, instance: &ResaInstance) -> ExactResult {
        let (mut ctx, global_lb, order) = self.prepare(instance);
        if let Some(order) = order {
            let mut placed = vec![false; instance.n_jobs()];
            let mut partial = Schedule::new();
            let profile = instance.profile();
            dfs_reference(
                &mut ctx,
                &order,
                &mut placed,
                &mut partial,
                profile,
                Time::ZERO,
                global_lb,
                0,
            );
        }
        finish(ctx)
    }

    /// Shared setup: greedy incumbent, the global lower bound (with an early
    /// exit when the incumbent already matches it), and the branching order
    /// (long/wide jobs first).
    fn prepare<'a>(&self, instance: &'a ResaInstance) -> (SearchCtx<'a>, Time, Option<Vec<usize>>) {
        let (inc_makespan, inc_schedule) = greedy_incumbent(instance);
        let ctx = SearchCtx {
            instance,
            max_nodes: self.max_nodes,
            nodes: 0,
            budget_exhausted: false,
            best_makespan: inc_makespan,
            best_schedule: inc_schedule,
            peak_depth: 0,
        };
        let global_lb = lower_bound(instance).unwrap_or(Time::ZERO);
        if ctx.best_makespan <= global_lb {
            return (ctx, global_lb, None);
        }
        let mut order: Vec<usize> = (0..instance.n_jobs()).collect();
        order.sort_by_key(|&i| {
            let j = &instance.jobs()[i];
            (std::cmp::Reverse(j.work()), std::cmp::Reverse(j.width), i)
        });
        (ctx, global_lb, Some(order))
    }
}

fn finish(ctx: SearchCtx<'_>) -> ExactResult {
    ExactResult {
        makespan: ctx.best_makespan,
        schedule: ctx.best_schedule,
        optimal: !ctx.budget_exhausted,
        nodes: ctx.nodes,
        peak_depth: ctx.peak_depth,
    }
}

/// Greedy earliest-fit insertion in LPT (then widest) order: a good incumbent.
fn greedy_incumbent(instance: &ResaInstance) -> (Time, Schedule) {
    let mut order: Vec<usize> = (0..instance.n_jobs()).collect();
    order.sort_by_key(|&i| {
        let j = &instance.jobs()[i];
        (std::cmp::Reverse(j.duration), std::cmp::Reverse(j.width), i)
    });
    let mut profile = instance.profile();
    let mut schedule = Schedule::new();
    let mut cmax = Time::ZERO;
    for &i in &order {
        let job = &instance.jobs()[i];
        let start = profile
            .earliest_fit(job.width, job.duration, job.release)
            .expect("feasible instances always admit a fit");
        profile
            .reserve(start, job.duration, job.width)
            .expect("earliest_fit guarantees capacity");
        schedule.place(job.id, start);
        cmax = cmax.max(start + job.duration);
    }
    (cmax, schedule)
}

/// Node entry bookkeeping shared by both DFS variants: budget check and node
/// / depth accounting. Returns `false` when the search must stop.
fn enter_node(ctx: &mut SearchCtx<'_>, depth: usize, global_lb: Time) -> bool {
    if ctx.budget_exhausted || ctx.best_makespan == global_lb {
        return false;
    }
    ctx.nodes += 1;
    ctx.peak_depth = ctx.peak_depth.max(depth);
    if ctx.nodes > ctx.max_nodes {
        ctx.budget_exhausted = true;
        return false;
    }
    true
}

/// Whether an identical unplaced job appears before position `pos` in the
/// branching order (symmetry breaking: only the first may branch).
fn symmetric_earlier(ctx: &SearchCtx<'_>, order: &[usize], placed: &[bool], pos: usize) -> bool {
    let job = &ctx.instance.jobs()[order[pos]];
    order[..pos].iter().any(|&k| {
        !placed[k] && {
            let other = &ctx.instance.jobs()[k];
            other.width == job.width
                && other.duration == job.duration
                && other.release == job.release
        }
    })
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    ctx: &mut SearchCtx<'_>,
    order: &[usize],
    placed: &mut Vec<bool>,
    partial: &mut Schedule,
    timeline: &mut AvailabilityTimeline,
    partial_cmax: Time,
    global_lb: Time,
    depth: usize,
) {
    if !enter_node(ctx, depth, global_lb) {
        return;
    }
    let n = ctx.instance.n_jobs();
    if partial.len() == n {
        if partial_cmax < ctx.best_makespan {
            ctx.best_makespan = partial_cmax;
            ctx.best_schedule = partial.clone();
        }
        return;
    }
    // Lower bound for this node: remaining work must fit in the remaining
    // availability, and every remaining job must complete after its own
    // earliest possible fit.
    let mut remaining_work: u128 = 0;
    let mut per_job_lb = Time::ZERO;
    for (i, job) in ctx.instance.jobs().iter().enumerate() {
        if !placed[i] {
            remaining_work += job.work();
            if let Some(s) = timeline.earliest_fit(job.width, job.duration, job.release) {
                per_job_lb = per_job_lb.max(s + job.duration);
            }
        }
    }
    // The timeline already excludes the placed jobs, so the remaining work
    // just has to fit somewhere in it (holes before the current makespan
    // included).
    let area_lb = timeline
        .earliest_time_with_area(remaining_work)
        .unwrap_or(Time::ZERO);
    let node_lb = partial_cmax.max(per_job_lb).max(area_lb);
    if node_lb >= ctx.best_makespan {
        return;
    }
    // Branch: choose the next unplaced job (symmetry: identical jobs only in
    // id order).
    for (pos, &i) in order.iter().enumerate() {
        if placed[i] || symmetric_earlier(ctx, order, placed, pos) {
            continue;
        }
        let job = &ctx.instance.jobs()[i];
        let start = match timeline.earliest_fit(job.width, job.duration, job.release) {
            Some(s) => s,
            None => continue,
        };
        let completion = start + job.duration;
        if completion >= ctx.best_makespan {
            // Placing this job now already matches or exceeds the incumbent;
            // delaying it can only make its earliest fit later, so no schedule
            // in which it is placed after this point can improve either — but
            // that case is caught by the per-job lower bound at the child
            // node. Here we only skip this particular placement.
            continue;
        }
        // Clone-free speculation: reserve on the shared timeline, recurse,
        // roll the undo log back to the checkpoint.
        let mark = timeline.checkpoint();
        timeline
            .reserve(start, job.duration, job.width)
            .expect("earliest_fit guarantees capacity");
        placed[i] = true;
        partial.place(job.id, start);
        dfs(
            ctx,
            order,
            placed,
            partial,
            timeline,
            partial_cmax.max(completion),
            global_lb,
            depth + 1,
        );
        placed[i] = false;
        partial.pop();
        timeline.rollback_to(mark);
        if ctx.budget_exhausted {
            return;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn dfs_reference(
    ctx: &mut SearchCtx<'_>,
    order: &[usize],
    placed: &mut Vec<bool>,
    partial: &mut Schedule,
    profile: ResourceProfile,
    partial_cmax: Time,
    global_lb: Time,
    depth: usize,
) {
    if !enter_node(ctx, depth, global_lb) {
        return;
    }
    let n = ctx.instance.n_jobs();
    if partial.len() == n {
        if partial_cmax < ctx.best_makespan {
            ctx.best_makespan = partial_cmax;
            ctx.best_schedule = partial.clone();
        }
        return;
    }
    let mut remaining_work: u128 = 0;
    let mut per_job_lb = Time::ZERO;
    for (i, job) in ctx.instance.jobs().iter().enumerate() {
        if !placed[i] {
            remaining_work += job.work();
            if let Some(s) = profile.earliest_fit(job.width, job.duration, job.release) {
                per_job_lb = per_job_lb.max(s + job.duration);
            }
        }
    }
    let area_lb = profile
        .earliest_time_with_area(remaining_work)
        .unwrap_or(Time::ZERO);
    let node_lb = partial_cmax.max(per_job_lb).max(area_lb);
    if node_lb >= ctx.best_makespan {
        return;
    }
    for (pos, &i) in order.iter().enumerate() {
        if placed[i] || symmetric_earlier(ctx, order, placed, pos) {
            continue;
        }
        let job = &ctx.instance.jobs()[i];
        let start = match profile.earliest_fit(job.width, job.duration, job.release) {
            Some(s) => s,
            None => continue,
        };
        let completion = start + job.duration;
        if completion >= ctx.best_makespan {
            continue;
        }
        // Copy-on-probe: clone the whole profile for the child node.
        let mut next_profile = profile.clone();
        next_profile
            .reserve(start, job.duration, job.width)
            .expect("earliest_fit guarantees capacity");
        placed[i] = true;
        partial.place(job.id, start);
        dfs_reference(
            ctx,
            order,
            placed,
            partial,
            next_profile,
            partial_cmax.max(completion),
            global_lb,
            depth + 1,
        );
        // Undo by re-cloning the placement list (the previous generation's
        // cost model, kept verbatim for the baseline).
        placed[i] = false;
        let placements = partial.placements().to_vec();
        *partial = Schedule::from_placements(placements[..placements.len() - 1].to_vec());
        if ctx.budget_exhausted {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_single_job() {
        let inst = ResaInstanceBuilder::new(4).job(2, 5u64).build().unwrap();
        let r = ExactSolver::new().solve(&inst);
        assert!(r.optimal);
        assert_eq!(r.makespan, Time(5));
        assert!(r.schedule.is_valid(&inst));
    }

    #[test]
    fn packs_two_jobs_in_parallel() {
        let inst = ResaInstanceBuilder::new(4)
            .job(2, 5u64)
            .job(2, 5u64)
            .build()
            .unwrap();
        let r = ExactSolver::new().solve(&inst);
        assert_eq!(r.makespan, Time(5));
    }

    #[test]
    fn finds_nontrivial_packing() {
        // m=4: jobs (3,2), (2,2), (1,2), (2,2): optimal is 4 (pair 3+1 and 2+2),
        // while a bad order (3,2 then 2,2 sequentially) would give more.
        let inst = ResaInstanceBuilder::new(4)
            .job(3, 2u64)
            .job(2, 2u64)
            .job(1, 2u64)
            .job(2, 2u64)
            .build()
            .unwrap();
        let r = ExactSolver::new().solve(&inst);
        assert!(r.optimal);
        assert_eq!(r.makespan, Time(4));
        assert!(r.schedule.is_valid(&inst));
    }

    #[test]
    fn partition_like_instance() {
        // Sequential jobs on 2 machines: durations 3,3,2,2,2 → optimal 6.
        let inst = ResaInstanceBuilder::new(2)
            .job(1, 3u64)
            .job(1, 3u64)
            .job(1, 2u64)
            .job(1, 2u64)
            .job(1, 2u64)
            .build()
            .unwrap();
        let r = ExactSolver::new().solve(&inst);
        assert!(r.optimal);
        assert_eq!(r.makespan, Time(6));
    }

    #[test]
    fn respects_reservations() {
        // One machine, jobs 2+3, reservation [2,4): optimal packs the 2-job
        // before the reservation and the 3-job after → makespan 7.
        let inst = ResaInstanceBuilder::new(1)
            .job(1, 3u64)
            .job(1, 2u64)
            .reservation(1, 2u64, 2u64)
            .build()
            .unwrap();
        let r = ExactSolver::new().solve(&inst);
        assert!(r.optimal);
        assert_eq!(r.makespan, Time(7));
        assert!(r.schedule.is_valid(&inst));
    }

    #[test]
    fn reservation_forces_gap() {
        // The greedy LPT incumbent is suboptimal here; the solver must find
        // the packing that uses the hole before the reservation.
        let inst = ResaInstanceBuilder::new(2)
            .job(2, 3u64)
            .job(1, 2u64)
            .job(1, 2u64)
            .reservation(2, 3u64, 2u64)
            .build()
            .unwrap();
        // Optimal: the two 1-wide 2-long jobs run side by side in [0,2),
        // the 2-wide job runs [5,8) → makespan 8.
        let r = ExactSolver::new().solve(&inst);
        assert!(r.optimal);
        assert_eq!(r.makespan, Time(8));
    }

    #[test]
    fn node_budget_returns_incumbent() {
        let inst = ResaInstanceBuilder::new(3)
            .jobs(8, 1, 3u64)
            .job(2, 2u64)
            .build()
            .unwrap();
        let r = ExactSolver::with_node_budget(1).solve(&inst);
        assert!(!r.optimal || r.nodes <= 1);
        assert!(r.schedule.is_valid(&inst));
        // The returned makespan is still a feasible upper bound.
        assert!(r.makespan >= lower_bound(&inst).unwrap());
    }

    #[test]
    fn matches_lower_bound_when_tight() {
        // Perfect packing: 4 unit jobs of width 2 on 4 machines → 2 ticks.
        let inst = ResaInstanceBuilder::new(4)
            .jobs(4, 2, 1u64)
            .build()
            .unwrap();
        let r = ExactSolver::new().solve(&inst);
        assert_eq!(r.makespan, Time(2));
        assert_eq!(r.makespan, lower_bound(&inst).unwrap());
    }

    #[test]
    fn empty_instance() {
        let inst = ResaInstanceBuilder::new(4).build().unwrap();
        let r = ExactSolver::new().solve(&inst);
        assert_eq!(r.makespan, Time::ZERO);
        assert!(r.optimal);
        assert_eq!(r.peak_depth, 0);
    }

    #[test]
    fn reference_expands_identical_nodes() {
        let inst = ResaInstanceBuilder::new(4)
            .job(3, 2u64)
            .job(2, 2u64)
            .job(1, 2u64)
            .job(2, 4u64)
            .job(1, 5u64)
            .reservation(2, 3u64, 2u64)
            .build()
            .unwrap();
        let fast = ExactSolver::new().solve(&inst);
        let slow = ExactSolver::new().solve_reference(&inst);
        assert_eq!(fast, slow);
        // The reservation forces a real search (the greedy incumbent neither
        // matches the lower bound nor survives unbeaten).
        assert!(fast.nodes > 0 && fast.peak_depth > 0);
        assert!(fast.peak_depth <= inst.n_jobs());
    }
}
