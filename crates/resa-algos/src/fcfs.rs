//! Strict First-Come First-Served.
//!
//! FCFS considers jobs in submission order and never lets a job start before
//! a job submitted earlier: job `i+1` starts at the earliest time `≥ σ_i` at
//! which it fits in what is left of the availability profile. This is the
//! "very popular technique" of §2.2, and — as the paper points out — it has
//! no constant performance guarantee for the makespan (a single wide job can
//! leave almost the whole machine idle while narrow jobs queue behind it).

use crate::traits::Scheduler;
use resa_core::prelude::*;

/// Strict FCFS (no back-filling of any kind).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fcfs;

impl Fcfs {
    /// Create a strict FCFS scheduler.
    pub fn new() -> Self {
        Fcfs
    }

    /// Run FCFS against an explicit availability substrate (naive profile or
    /// indexed timeline); the schedule is identical either way.
    pub fn schedule_with<C: CapacityQuery>(
        &self,
        instance: &ResaInstance,
        mut profile: C,
    ) -> Schedule {
        let mut schedule = Schedule::new();
        // No job may start before the start time of any earlier-submitted job.
        let mut frontier = Time::ZERO;
        for job in instance.jobs() {
            let not_before = frontier.max(job.release);
            let start = profile
                .earliest_fit(job.width, job.duration, not_before)
                .expect("feasible instances always admit a fit");
            profile
                .reserve(start, job.duration, job.width)
                .expect("earliest_fit guarantees capacity");
            schedule.place(job.id, start);
            frontier = start;
        }
        schedule
    }
}

impl Scheduler for Fcfs {
    fn name(&self) -> String {
        "FCFS".to_string()
    }

    fn schedule(&self, instance: &ResaInstance) -> Schedule {
        self.schedule_with(instance, instance.timeline())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list_scheduling::Lsrc;

    #[test]
    fn fcfs_does_not_overtake() {
        // A wide job at the head of the queue blocks everything behind it.
        let inst = ResaInstanceBuilder::new(4)
            .job(3, 4u64) // J0 runs [0,4)
            .job(4, 2u64) // J1 must wait for J0, runs [4,6)
            .job(1, 4u64) // J2 could run beside J0 but FCFS won't overtake J1
            .build()
            .unwrap();
        let s = Fcfs::new().schedule(&inst);
        assert!(s.is_valid(&inst));
        assert_eq!(s.start_of(JobId(0)), Some(Time(0)));
        assert_eq!(s.start_of(JobId(1)), Some(Time(4)));
        // J2 cannot start before J1 (no overtaking) and nothing is free while
        // the full-width J1 runs, so it starts at 6.
        assert_eq!(s.start_of(JobId(2)), Some(Time(6)));
        assert_eq!(s.makespan(&inst), Time(10));
        // LSRC on the same instance finishes at 6.
        assert_eq!(Lsrc::new().makespan(&inst), Time(6));
    }

    #[test]
    fn fcfs_with_reservation() {
        let inst = ResaInstanceBuilder::new(2)
            .job(2, 3u64)
            .job(1, 1u64)
            .reservation(2, 4u64, 1u64)
            .build()
            .unwrap();
        let s = Fcfs::new().schedule(&inst);
        assert!(s.is_valid(&inst));
        // Full-width job cannot start before the reservation ends at 5.
        assert_eq!(s.start_of(JobId(0)), Some(Time(5)));
        // Second job starts no earlier than the first (strict FCFS), at 5 too
        // is impossible (only 0 processors left? no: width 1 beside width 2 on
        // 2 machines is impossible), so it waits until 8.
        assert_eq!(s.start_of(JobId(1)), Some(Time(8)));
    }

    #[test]
    fn fcfs_can_be_m_times_worse() {
        // The classical bad family: m−1 unit narrow jobs, then one full-width
        // unit job, repeated — FCFS serialises, OPT packs.
        let m = 6u32;
        let mut b = ResaInstanceBuilder::new(m);
        // n rounds of: one (m)-wide job queued first, then m narrow long jobs.
        b = b.job(m, 1u64);
        b = b.jobs(m as usize, 1, 1u64);
        let inst = b.build().unwrap();
        let fcfs = Fcfs::new().makespan(&inst);
        let lsrc = Lsrc::new().makespan(&inst);
        assert!(fcfs >= lsrc);
        assert_eq!(fcfs, Time(2));
    }

    #[test]
    fn respects_release_dates() {
        let inst = ResaInstanceBuilder::new(2)
            .job_released_at(1, 2u64, 5u64)
            .job(1, 2u64)
            .build()
            .unwrap();
        let s = Fcfs::new().schedule(&inst);
        assert!(s.is_valid(&inst));
        assert_eq!(s.start_of(JobId(0)), Some(Time(5)));
        // J1 was submitted after J0, so it cannot start before J0's start.
        assert_eq!(s.start_of(JobId(1)), Some(Time(5)));
    }

    #[test]
    fn name() {
        assert_eq!(Fcfs::new().name(), "FCFS");
    }
}
