//! LSRC — list scheduling with resource constraints (Garey & Graham), the
//! algorithm whose guarantees the paper analyses.
//!
//! The algorithm maintains a priority list of jobs and never leaves processors
//! idle when some listed job could use them: at the current time it scans the
//! list and starts every job that *fits now* (enough processors are available
//! during its whole execution window, accounting for reservations and for the
//! jobs already running); when nothing more fits it advances time to the next
//! event (a job completion, an availability change, or a release date).
//!
//! This is exactly the most aggressive variant of back-filling described in
//! §2.2 of the paper, and the algorithm of Theorem 2 / Propositions 1–3.

use crate::priority::ListOrder;
use crate::traits::Scheduler;
use resa_core::decision;
use resa_core::prelude::*;

/// List Scheduling with Resource Constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lsrc {
    /// The order in which the list is scanned.
    pub order: ListOrder,
}

impl Lsrc {
    /// LSRC scanning the list in submission order (the paper's default).
    pub fn new() -> Self {
        Lsrc {
            order: ListOrder::Submission,
        }
    }

    /// LSRC scanning the list in the given order.
    pub fn with_order(order: ListOrder) -> Self {
        Lsrc { order }
    }

    /// Run LSRC on `instance` but restricted to a clamped availability profile
    /// (at most `cap` processors usable at any time). Used by the analysis of
    /// the simple `2/α` upper-bound argument, which schedules on `αm`
    /// processors only.
    pub fn schedule_clamped(&self, instance: &ResaInstance, cap: u32) -> Schedule {
        let profile = instance.profile().clamped(cap);
        self.schedule_with(instance, AvailabilityTimeline::from(&profile))
    }

    /// Run LSRC against an explicit availability substrate. The substrate may
    /// be the naive [`ResourceProfile`] or the indexed
    /// [`AvailabilityTimeline`]; the produced schedule is identical either
    /// way (property-tested), only the query complexity differs.
    ///
    /// Each instant runs the shared greedy decision
    /// ([`resa_core::decision::greedy`]) over the list in rank order, which
    /// skips jobs not yet released. The clock then moves to the next release
    /// or the next change of the substrate, whichever comes first: between
    /// two such instants a job that did not fit cannot start to fit.
    pub fn schedule_with<C: CapacityQuery>(
        &self,
        instance: &ResaInstance,
        mut profile: C,
    ) -> Schedule {
        let jobs = instance.jobs();
        let mut schedule = Schedule::new();
        let mut list = WaitList::with_capacity(jobs.len());
        for i in self.order.rank(jobs) {
            list.push_back(i);
        }
        // Release instants, ascending, behind a monotone cursor.
        let mut releases: Vec<Time> = jobs.iter().map(|j| j.release).collect();
        releases.sort_unstable();
        let mut next_release = releases.into_iter().peekable();
        let Some(mut now) = next_release.next() else {
            return schedule;
        };
        loop {
            decision::greedy(&mut profile, now, jobs, &mut list, |i| {
                schedule.place(jobs[i].id, now)
            });
            if list.is_empty() {
                return schedule;
            }
            while next_release.next_if(|&r| r <= now).is_some() {}
            now = [next_release.peek().copied(), profile.next_change_after(now)]
                .into_iter()
                .flatten()
                .min()
                .expect("feasible instances always admit a fit");
        }
    }
}

impl Default for Lsrc {
    fn default() -> Self {
        Lsrc::new()
    }
}

impl Scheduler for Lsrc {
    fn name(&self) -> String {
        format!("LSRC({})", self.order)
    }

    fn schedule(&self, instance: &ResaInstance) -> Schedule {
        self.schedule_with(instance, instance.timeline())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_instance() {
        let inst = ResaInstanceBuilder::new(4).build().unwrap();
        let s = Lsrc::new().schedule(&inst);
        assert!(s.is_empty());
        assert_eq!(s.makespan(&inst), Time::ZERO);
    }

    #[test]
    fn packs_parallel_jobs() {
        // Two 2-wide jobs fit side by side on 4 machines.
        let inst = ResaInstanceBuilder::new(4)
            .job(2, 5u64)
            .job(2, 5u64)
            .build()
            .unwrap();
        let s = Lsrc::new().schedule(&inst);
        assert!(s.is_valid(&inst));
        assert_eq!(s.makespan(&inst), Time(5));
        assert_eq!(s.start_of(JobId(0)), Some(Time(0)));
        assert_eq!(s.start_of(JobId(1)), Some(Time(0)));
    }

    #[test]
    fn aggressive_backfilling_behaviour() {
        // Submission order: wide job first (needs 4), then narrow ones.
        // LSRC starts the narrow jobs immediately even though the wide job is
        // first in the list and cannot start (this is what distinguishes it
        // from FCFS).
        let inst = ResaInstanceBuilder::new(4)
            .job(3, 4u64) // J0 head of list
            .job(4, 2u64) // J1 cannot start with J0
            .job(1, 4u64) // J2 can run beside J0
            .build()
            .unwrap();
        let s = Lsrc::new().schedule(&inst);
        assert!(s.is_valid(&inst));
        assert_eq!(s.start_of(JobId(0)), Some(Time(0)));
        assert_eq!(s.start_of(JobId(2)), Some(Time(0)));
        assert_eq!(s.start_of(JobId(1)), Some(Time(4)));
        assert_eq!(s.makespan(&inst), Time(6));
    }

    #[test]
    fn respects_reservations() {
        // One machine, one job of length 3, reservation [2, 4).
        // The job cannot straddle the reservation, so it starts at 4.
        let inst = ResaInstanceBuilder::new(1)
            .job(1, 3u64)
            .reservation(1, 2u64, 2u64)
            .build()
            .unwrap();
        let s = Lsrc::new().schedule(&inst);
        assert!(s.is_valid(&inst));
        assert_eq!(s.start_of(JobId(0)), Some(Time(4)));
    }

    #[test]
    fn short_job_fits_before_reservation() {
        let inst = ResaInstanceBuilder::new(1)
            .job(1, 2u64)
            .reservation(1, 2u64, 2u64)
            .build()
            .unwrap();
        let s = Lsrc::new().schedule(&inst);
        assert_eq!(s.start_of(JobId(0)), Some(Time(0)));
        assert_eq!(s.makespan(&inst), Time(2));
    }

    #[test]
    fn respects_release_dates() {
        let inst = ResaInstanceBuilder::new(4)
            .job_released_at(2, 3u64, 10u64)
            .job(2, 2u64)
            .build()
            .unwrap();
        let s = Lsrc::new().schedule(&inst);
        assert!(s.is_valid(&inst));
        assert_eq!(s.start_of(JobId(1)), Some(Time(0)));
        assert_eq!(s.start_of(JobId(0)), Some(Time(10)));
    }

    #[test]
    fn graham_bound_holds_on_small_cases() {
        // A classical bad case for list scheduling: many small jobs then a long one.
        let inst = ResaInstanceBuilder::new(3)
            .jobs(6, 1, 1u64)
            .job(1, 3u64)
            .build()
            .unwrap();
        let s = Lsrc::new().schedule(&inst);
        assert!(s.is_valid(&inst));
        let cmax = s.makespan(&inst).ticks();
        // LB: W = 9, m = 3 → 3; Graham bound (2 − 1/3)·OPT with OPT = 3 → 5,
        // i.e. C_max · m ≤ (2m − 1) · OPT.
        assert!(cmax * 3 <= 5 * 3);
    }

    #[test]
    fn clamped_schedule_uses_fewer_processors() {
        let inst = ResaInstanceBuilder::new(8)
            .jobs(4, 2, 1u64)
            .build()
            .unwrap();
        let full = Lsrc::new().schedule(&inst);
        assert_eq!(full.makespan(&inst), Time(1));
        let clamped = Lsrc::new().schedule_clamped(&inst, 4);
        assert!(clamped.is_valid(&inst));
        assert_eq!(clamped.makespan(&inst), Time(2));
    }

    #[test]
    fn different_orders_give_feasible_schedules() {
        let inst = ResaInstanceBuilder::new(6)
            .job(3, 4u64)
            .job(2, 7u64)
            .job(6, 1u64)
            .job(1, 9u64)
            .reservation(3, 5u64, 2u64)
            .build()
            .unwrap();
        for order in ListOrder::DETERMINISTIC {
            let s = Lsrc::with_order(order).schedule(&inst);
            assert!(s.is_valid(&inst), "order {order} produced invalid schedule");
            assert_eq!(s.len(), inst.n_jobs());
        }
        let s = Lsrc::with_order(ListOrder::Random(42)).schedule(&inst);
        assert!(s.is_valid(&inst));
    }

    #[test]
    fn never_starts_inside_insufficient_window() {
        // Reservation of 3 of 4 machines during [5, 15): a 2-wide job of
        // length 10 cannot overlap it at all.
        let inst = ResaInstanceBuilder::new(4)
            .job(2, 10u64)
            .reservation(3, 10u64, 5u64)
            .build()
            .unwrap();
        let s = Lsrc::new().schedule(&inst);
        assert!(s.is_valid(&inst));
        assert_eq!(s.start_of(JobId(0)), Some(Time(15)));
    }

    #[test]
    fn scheduler_name() {
        assert_eq!(Lsrc::new().name(), "LSRC(submission)");
        assert_eq!(Lsrc::with_order(ListOrder::Lpt).name(), "LSRC(LPT)");
        assert_eq!(Lsrc::default(), Lsrc::new());
    }
}
