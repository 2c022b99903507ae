//! Back-filling variants of FCFS.
//!
//! * [`ConservativeBackfilling`] — every job receives, in submission order,
//!   the earliest start time that does not delay any previously considered
//!   job (§2.2: "conservative back-filling considers all tasks, and greedily
//!   schedules each task at the earliest possible date, without delaying any
//!   previously scheduled task").
//! * [`EasyBackfilling`] — the EASY (aggressive) variant: only the job at the
//!   head of the queue holds a guaranteed start time; a later job may jump the
//!   queue if starting it now does not delay that guaranteed start. Admission
//!   is decided by O(log B) scalar checks against the spare-capacity API;
//!   [`EasyBackfillingReference`] keeps the classical probing formulation as
//!   the (property-tested) equivalence oracle.
//!
//! The paper notes that the *most* aggressive variant — any job may delay any
//! other as long as it starts earlier — is exactly LSRC
//! (see [`crate::list_scheduling::Lsrc`]).

use crate::traits::Scheduler;
use resa_core::decision;
use resa_core::prelude::*;
use std::collections::BTreeSet;

/// Conservative backfilling: earliest fit in submission order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConservativeBackfilling;

impl ConservativeBackfilling {
    /// Create a conservative backfilling scheduler.
    pub fn new() -> Self {
        ConservativeBackfilling
    }

    /// Run conservative backfilling against an explicit availability
    /// substrate (naive profile or indexed timeline).
    pub fn schedule_with<C: CapacityQuery>(
        &self,
        instance: &ResaInstance,
        mut profile: C,
    ) -> Schedule {
        let mut schedule = Schedule::new();
        for job in instance.jobs() {
            let start = profile
                .earliest_fit(job.width, job.duration, job.release)
                .expect("feasible instances always admit a fit");
            profile
                .reserve(start, job.duration, job.width)
                .expect("earliest_fit guarantees capacity");
            schedule.place(job.id, start);
        }
        schedule
    }
}

impl Scheduler for ConservativeBackfilling {
    fn name(&self) -> String {
        "conservative-backfilling".to_string()
    }

    fn schedule(&self, instance: &ResaInstance) -> Schedule {
        self.schedule_with(instance, instance.timeline())
    }
}

/// Counters exposed by [`EasyBackfilling::schedule_with_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EasyStats {
    /// Decision points taken (clock instants at which the queue was scanned).
    pub decision_points: u64,
    /// Jobs started by jumping the queue (not as the head).
    pub backfills: u64,
}

/// EASY (aggressive) backfilling.
///
/// Event-driven formulation: at every decision point the head of the waiting
/// queue is started if it fits now; otherwise its *shadow time* (the earliest
/// time at which it will fit given the jobs currently running and the
/// reservations) is computed, and any other queued job is allowed to start now
/// provided doing so does not push the head job past its shadow time.
///
/// Each decision point is the shared EASY decision
/// ([`resa_core::decision::easy`], also run by the on-line `EasyPolicy`);
/// this loop only moves the clock. The decision admits backfill candidates
/// with O(log B) scalar checks instead of the classical tentative
/// *reserve → recompute shadow → release* round trip (kept as
/// [`EasyBackfillingReference`], which is property-tested to produce
/// identical schedules). Once per decision point it computes the head's
/// shadow time and the spare ("extra") capacity left over the head's shadow
/// window; a candidate that finishes before the shadow, or that is narrower
/// than the spare capacity, is admitted without any further query, and the
/// remaining cases need exactly one more range-minimum. The candidate delays
/// the head iff its execution overlaps the head's shadow window
/// `[shadow, shadow + p_head)` with less than `q_head + q_cand` processors
/// free there — reserving it can only push the shadow *later*, so "the
/// shadow does not move" and "the head still fits at the shadow" are the
/// same condition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EasyBackfilling;

impl EasyBackfilling {
    /// Create an EASY backfilling scheduler.
    pub fn new() -> Self {
        EasyBackfilling
    }

    /// Run EASY backfilling against an explicit availability substrate
    /// (naive profile or indexed timeline).
    pub fn schedule_with<C: CapacityQuery>(&self, instance: &ResaInstance, profile: C) -> Schedule {
        self.schedule_with_stats(instance, profile).0
    }

    /// [`Self::schedule_with`] plus decision-loop counters, used by the
    /// regression tests.
    pub fn schedule_with_stats<C: CapacityQuery>(
        &self,
        instance: &ResaInstance,
        mut profile: C,
    ) -> (Schedule, EasyStats) {
        let jobs = instance.jobs();
        let mut schedule = Schedule::new();
        let mut stats = EasyStats::default();
        let n = jobs.len();
        if n == 0 {
            return (schedule, stats);
        }
        // Arrival-order queue with O(1) removal; job i sits at index i.
        let mut queue = WaitList::with_capacity(n);
        for i in 0..n {
            queue.push_back(i);
        }
        // Sorted distinct release instants with a monotone cursor: every
        // release still ahead of the clock belongs to a job still queued
        // (jobs cannot start before their release), so this is exactly the
        // set of future arrival events.
        let mut releases: Vec<Time> = jobs.iter().map(|j| j.release).collect();
        releases.sort_unstable();
        releases.dedup();
        let mut rel_cursor = 0usize;
        let mut now = releases[0];

        loop {
            stats.decision_points += 1;
            // 1.–3. Start successive heads while they fit; once the head is
            //    blocked, its shadow and the scalar backfill checks (the
            //    shared EASY decision, which reserves what it starts).
            let pass = decision::easy(&mut profile, now, jobs, &mut queue, |i| {
                schedule.place(jobs[i].id, now)
            });
            let Some(shadow) = pass.shadow else { break };
            stats.backfills += pass.backfills;
            // 4. Jump to the next actionable instant. The head cannot start
            //    before its shadow and new candidates appear only at release
            //    instants; capacity changes in between matter only while a
            //    released candidate is still waiting (a refused candidate can
            //    start to fit only where the availability function rises).
            while rel_cursor < releases.len() && releases[rel_cursor] <= now {
                rel_cursor += 1;
            }
            let mut next = shadow;
            if let Some(&r) = releases.get(rel_cursor) {
                next = next.min(r);
            }
            if pass.candidate_left {
                if let Some(c) = profile.next_change_after(now) {
                    next = next.min(c);
                }
            }
            debug_assert!(next > now, "the decision clock must advance");
            now = next;
        }
        (schedule, stats)
    }
}

impl Scheduler for EasyBackfilling {
    fn name(&self) -> String {
        "EASY-backfilling".to_string()
    }

    fn schedule(&self, instance: &ResaInstance) -> Schedule {
        self.schedule_with(instance, instance.timeline())
    }
}

/// The classical probing formulation of EASY backfilling, kept verbatim as
/// the equivalence oracle for [`EasyBackfilling`].
///
/// Per candidate it performs a tentative `reserve`, recomputes the head's
/// shadow with a full `earliest_fit`, and `release`s on refusal — three
/// substrate mutations/queries where the optimized loop needs at most one
/// range-minimum — and it wakes at every completion and profile breakpoint
/// even when no queued job could possibly start there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EasyBackfillingReference;

impl EasyBackfillingReference {
    /// Create the reference EASY backfilling scheduler.
    pub fn new() -> Self {
        EasyBackfillingReference
    }

    /// Run the reference formulation against an explicit substrate.
    pub fn schedule_with<C: CapacityQuery>(
        &self,
        instance: &ResaInstance,
        mut profile: C,
    ) -> Schedule {
        let jobs = instance.jobs();
        let mut schedule = Schedule::new();
        let mut queue: Vec<&Job> = jobs.iter().collect();
        if queue.is_empty() {
            return schedule;
        }
        let mut now = jobs.iter().map(|j| j.release).min().unwrap_or(Time::ZERO);
        let mut completions: BTreeSet<Time> = BTreeSet::new();
        let releases: BTreeSet<Time> = jobs.iter().map(|j| j.release).collect();

        while !queue.is_empty() {
            // 1. Start the head of the queue (and successive heads) while they fit.
            while let Some(&head) = queue.first() {
                if head.release <= now && profile.min_capacity_in(now, head.duration) >= head.width
                {
                    profile
                        .reserve(now, head.duration, head.width)
                        .expect("capacity just checked");
                    schedule.place(head.id, now);
                    completions.insert(now + head.duration);
                    queue.remove(0);
                } else {
                    break;
                }
            }
            if queue.is_empty() {
                break;
            }
            // 2. The head does not fit now: compute its shadow start on a
            //    snapshot of the current profile.
            let head = queue[0];
            let shadow = profile
                .earliest_fit(head.width, head.duration, now.max(head.release))
                .expect("feasible instances always admit a fit");
            // 3. Backfill: start any later job that fits now without delaying
            //    the shadow start of the head job.
            let mut i = 1;
            while i < queue.len() {
                let job = queue[i];
                let fits_now =
                    job.release <= now && profile.min_capacity_in(now, job.duration) >= job.width;
                if fits_now {
                    // Tentatively reserve and re-check the head's shadow time.
                    profile
                        .reserve(now, job.duration, job.width)
                        .expect("capacity just checked");
                    let new_shadow = profile
                        .earliest_fit(head.width, head.duration, now.max(head.release))
                        .expect("feasible instances always admit a fit");
                    if new_shadow <= shadow {
                        schedule.place(job.id, now);
                        completions.insert(now + job.duration);
                        queue.remove(i);
                        continue; // same index now holds the next job
                    } else {
                        profile
                            .release(now, job.duration, job.width)
                            .expect("undoing a reservation we just made");
                    }
                }
                i += 1;
            }
            // 4. Advance the clock, one event at a time.
            let next_completion = completions
                .range((std::ops::Bound::Excluded(now), std::ops::Bound::Unbounded))
                .next()
                .copied();
            let next_release = releases
                .range((std::ops::Bound::Excluded(now), std::ops::Bound::Unbounded))
                .next()
                .copied();
            let next_profile_change = profile.next_change_after(now);
            let candidates = [
                next_completion,
                next_release,
                next_profile_change,
                Some(shadow),
            ];
            let next = candidates.into_iter().flatten().filter(|&t| t > now).min();
            match next {
                Some(t) => now = t,
                None => now = shadow.max(now + Dur::ONE),
            }
        }
        schedule
    }
}

impl Scheduler for EasyBackfillingReference {
    fn name(&self) -> String {
        "EASY-backfilling-reference".to_string()
    }

    fn schedule(&self, instance: &ResaInstance) -> Schedule {
        self.schedule_with(instance, instance.timeline())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fcfs::Fcfs;
    use crate::list_scheduling::Lsrc;
    use resa_core::instance::ResaInstanceBuilder;

    fn blocked_head_instance() -> ResaInstance {
        // J0 (3 wide) runs first; J1 (4 wide) blocks; J2 (1 wide, short) can
        // backfill beside J0 without delaying J1; J3 (1 wide, long) would
        // delay J1 and must not be backfilled by EASY.
        ResaInstanceBuilder::new(4)
            .job(3, 4u64) // J0
            .job(4, 2u64) // J1 (head once J0 is running)
            .job(1, 4u64) // J2: finishes exactly when J0 does → no delay
            .job(1, 6u64) // J3: would push J1 from t=4 to t=6
            .build()
            .unwrap()
    }

    #[test]
    fn conservative_backfills_without_delaying() {
        let inst = blocked_head_instance();
        let s = ConservativeBackfilling::new().schedule(&inst);
        assert!(s.is_valid(&inst));
        assert_eq!(s.start_of(JobId(0)), Some(Time(0)));
        // J1's earliest fit given J0 is t=4.
        assert_eq!(s.start_of(JobId(1)), Some(Time(4)));
        // J2 fits at 0 beside J0 without moving J1 (profile insertion).
        assert_eq!(s.start_of(JobId(2)), Some(Time(0)));
        // J3 (length 6) cannot fit at 0 (it would collide with J1 at [4,6)),
        // so conservative places it at its earliest true fit: t=6.
        assert_eq!(s.start_of(JobId(3)), Some(Time(6)));
    }

    #[test]
    fn easy_backfills_only_when_head_not_delayed() {
        let inst = blocked_head_instance();
        let s = EasyBackfilling::new().schedule(&inst);
        assert!(s.is_valid(&inst));
        assert_eq!(s.start_of(JobId(0)), Some(Time(0)));
        assert_eq!(
            s.start_of(JobId(2)),
            Some(Time(0)),
            "harmless backfill allowed"
        );
        assert_eq!(s.start_of(JobId(1)), Some(Time(4)), "head not delayed");
        assert!(
            s.start_of(JobId(3)).unwrap() >= Time(4),
            "delaying backfill refused"
        );
    }

    #[test]
    fn all_policies_feasible_with_reservations() {
        let inst = ResaInstanceBuilder::new(8)
            .job(5, 6u64)
            .job(3, 2u64)
            .job(8, 1u64)
            .job(2, 9u64)
            .job(1, 3u64)
            .reservation(4, 5u64, 3u64)
            .reservation(2, 3u64, 12u64)
            .build()
            .unwrap();
        let schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(Fcfs::new()),
            Box::new(ConservativeBackfilling::new()),
            Box::new(EasyBackfilling::new()),
            Box::new(Lsrc::new()),
        ];
        let mut makespans = Vec::new();
        for s in &schedulers {
            let sched = s.schedule(&inst);
            assert!(
                sched.is_valid(&inst),
                "{} produced invalid schedule",
                s.name()
            );
            assert_eq!(sched.len(), inst.n_jobs());
            makespans.push(sched.makespan(&inst));
        }
        // Aggressiveness ordering usually (not always) helps; at minimum the
        // most aggressive policy is never worse than strict FCFS here.
        assert!(makespans[3] <= makespans[0]);
    }

    #[test]
    fn conservative_equals_fcfs_on_sequential_chain() {
        // When every job needs the whole machine there is nothing to backfill.
        let inst = ResaInstanceBuilder::new(4)
            .jobs(3, 4, 2u64)
            .build()
            .unwrap();
        let c = ConservativeBackfilling::new().schedule(&inst);
        let f = Fcfs::new().schedule(&inst);
        assert_eq!(c.makespan(&inst), f.makespan(&inst));
        assert_eq!(c.makespan(&inst), Time(6));
    }

    #[test]
    fn easy_empty_instance() {
        let inst = ResaInstanceBuilder::new(4).build().unwrap();
        assert!(EasyBackfilling::new().schedule(&inst).is_empty());
        assert!(ConservativeBackfilling::new().schedule(&inst).is_empty());
    }

    #[test]
    fn easy_respects_release_dates() {
        let inst = ResaInstanceBuilder::new(2)
            .job_released_at(2, 2u64, 4u64)
            .job(1, 1u64)
            .build()
            .unwrap();
        let s = EasyBackfilling::new().schedule(&inst);
        assert!(s.is_valid(&inst));
        assert_eq!(s.start_of(JobId(0)), Some(Time(4)));
        assert_eq!(s.start_of(JobId(1)), Some(Time(0)));
    }

    /// Regression for the clock-advance fallback: a lone head blocked behind
    /// a comb of reservations used to wake at every one of the ~100
    /// intervening profile breakpoints (stepping event by event, each with a
    /// full queue re-scan); with no released candidate waiting, the loop must
    /// jump straight from the first decision point to the shadow time.
    #[test]
    fn lone_blocked_head_jumps_to_its_shadow() {
        // Width-1 reservations at [2i, 2i+1) for i < 50: a 4-wide job of
        // length 2 first fits at t = 99 (gaps before are 1 tick long).
        let mut b = ResaInstanceBuilder::new(4).job(4, 2u64);
        for i in 0..50u64 {
            b = b.reservation(1, 1u64, 2 * i);
        }
        let inst = b.build().unwrap();
        let (schedule, stats) = EasyBackfilling::new().schedule_with_stats(&inst, inst.timeline());
        assert_eq!(schedule.start_of(JobId(0)), Some(Time(99)));
        assert_eq!(
            stats.decision_points, 2,
            "one decision point to compute the shadow, one to start the head"
        );
        // Schedule-identical with the event-by-event reference.
        assert_eq!(
            schedule,
            EasyBackfillingReference::new().schedule_with(&inst, inst.timeline())
        );
    }

    /// With a released candidate still waiting, the optimized loop must keep
    /// waking at capacity changes (that is where a refused candidate can
    /// start to fit) — and still match the reference schedule-for-schedule.
    #[test]
    fn waiting_candidate_keeps_capacity_change_wakeups() {
        // Head (4 wide) blocked until the staircase clears; a 2-wide
        // candidate of length 3 only starts fitting at t = 4 (a capacity
        // rise), strictly between decision-relevant release instants.
        let inst = ResaInstanceBuilder::new(4)
            .job(4, 2u64) // head, blocked
            .job(2, 3u64) // candidate, fits from t = 4
            .reservation(3, 4u64, 0u64) // cap 1 on [0, 4)
            .reservation(1, 6u64, 4u64) // cap 3 on [4, 10)
            .reservation(1, 2u64, 10u64) // cap 3 on [10, 12)
            .build()
            .unwrap();
        let easy = EasyBackfilling::new().schedule_with(&inst, inst.timeline());
        let reference = EasyBackfillingReference::new().schedule_with(&inst, inst.timeline());
        assert_eq!(easy, reference);
        assert_eq!(
            easy.start_of(JobId(1)),
            Some(Time(4)),
            "backfilled at the rise"
        );
    }

    #[test]
    fn reference_and_optimized_agree_on_fixture() {
        let inst = blocked_head_instance();
        assert_eq!(
            EasyBackfilling::new().schedule(&inst),
            EasyBackfillingReference::new().schedule(&inst)
        );
    }

    #[test]
    fn names() {
        assert_eq!(
            ConservativeBackfilling::new().name(),
            "conservative-backfilling"
        );
        assert_eq!(EasyBackfilling::new().name(), "EASY-backfilling");
        assert_eq!(
            EasyBackfillingReference::new().name(),
            "EASY-backfilling-reference"
        );
    }
}
