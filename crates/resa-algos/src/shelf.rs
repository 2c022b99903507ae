//! Shelf-based (strip-packing) heuristics.
//!
//! The conclusion of the paper names "heuristics based on packing (partition
//! on shelves) algorithms" as a further direction. This module implements the
//! classical *Next-Fit Decreasing Height* (NFDH) and *First-Fit Decreasing
//! Height* (FFDH) shelf algorithms adapted to rigid jobs: jobs are sorted by
//! decreasing duration and grouped into shelves whose total width never
//! exceeds the cluster size; each shelf is then placed, in order, at the
//! earliest time at which its full width fits in the availability profile for
//! the whole shelf height.

use crate::traits::Scheduler;
use resa_core::prelude::*;

/// Which shelf-filling rule to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShelfRule {
    /// Next-Fit: only the most recently opened shelf may receive a job.
    NextFit,
    /// First-Fit: a job goes to the first (oldest) shelf where it fits.
    FirstFit,
}

/// Shelf-based scheduler (NFDH / FFDH adapted to reservations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShelfScheduler {
    /// The shelf-filling rule.
    pub rule: ShelfRule,
}

/// One shelf: a set of jobs started simultaneously.
#[derive(Debug, Clone)]
struct Shelf {
    jobs: Vec<JobId>,
    used_width: u32,
    height: Dur,
}

impl ShelfScheduler {
    /// NFDH-style scheduler.
    pub fn nfdh() -> Self {
        ShelfScheduler {
            rule: ShelfRule::NextFit,
        }
    }

    /// FFDH-style scheduler.
    pub fn ffdh() -> Self {
        ShelfScheduler {
            rule: ShelfRule::FirstFit,
        }
    }

    /// Partition jobs (sorted by decreasing duration) into shelves.
    fn build_shelves(&self, instance: &ResaInstance) -> Vec<Shelf> {
        let m = instance.machines();
        let mut jobs: Vec<&Job> = instance.jobs().iter().collect();
        jobs.sort_by_key(|j| (std::cmp::Reverse(j.duration), j.id));
        let mut shelves: Vec<Shelf> = Vec::new();
        for job in jobs {
            let target = match self.rule {
                ShelfRule::NextFit => shelves.last_mut().filter(|s| s.used_width + job.width <= m),
                ShelfRule::FirstFit => shelves.iter_mut().find(|s| s.used_width + job.width <= m),
            };
            match target {
                Some(shelf) => {
                    shelf.jobs.push(job.id);
                    shelf.used_width += job.width;
                    // Jobs are sorted by decreasing duration, so the shelf
                    // height (set by its first job) never grows.
                    debug_assert!(job.duration <= shelf.height);
                }
                None => shelves.push(Shelf {
                    jobs: vec![job.id],
                    used_width: job.width,
                    height: job.duration,
                }),
            }
        }
        shelves
    }

    /// Place the shelves against an explicit availability substrate (naive
    /// profile or indexed timeline).
    pub fn schedule_with<C: CapacityQuery>(
        &self,
        instance: &ResaInstance,
        mut profile: C,
    ) -> Schedule {
        let shelves = self.build_shelves(instance);
        let mut schedule = Schedule::new();
        let mut earliest = instance.max_release();
        for shelf in shelves {
            // The whole shelf starts together: it needs `used_width`
            // processors for `height` ticks.
            let start = profile
                .earliest_fit(shelf.used_width, shelf.height, earliest)
                .expect("feasible instances always admit a fit");
            profile
                .reserve(start, shelf.height, shelf.used_width)
                .expect("earliest_fit guarantees capacity");
            for id in shelf.jobs {
                schedule.place(id, start);
            }
            // Shelves are stacked: the next shelf starts no earlier than this
            // one (keeps the classical shelf structure).
            earliest = start;
        }
        schedule
    }
}

impl Scheduler for ShelfScheduler {
    fn name(&self) -> String {
        match self.rule {
            ShelfRule::NextFit => "shelf-NFDH".to_string(),
            ShelfRule::FirstFit => "shelf-FFDH".to_string(),
        }
    }

    fn schedule(&self, instance: &ResaInstance) -> Schedule {
        self.schedule_with(instance, instance.timeline())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_shelves_by_decreasing_duration() {
        let inst = ResaInstanceBuilder::new(4)
            .job(2, 3u64) // J0
            .job(2, 5u64) // J1
            .job(2, 5u64) // J2
            .job(2, 1u64) // J3
            .build()
            .unwrap();
        let s = ShelfScheduler::nfdh().schedule(&inst);
        assert!(s.is_valid(&inst));
        // Shelf 1: J1, J2 (height 5); shelf 2: J0, J3 (height 3).
        assert_eq!(s.start_of(JobId(1)), Some(Time(0)));
        assert_eq!(s.start_of(JobId(2)), Some(Time(0)));
        assert_eq!(s.start_of(JobId(0)), Some(Time(5)));
        assert_eq!(s.start_of(JobId(3)), Some(Time(5)));
        assert_eq!(s.makespan(&inst), Time(8));
    }

    #[test]
    fn first_fit_packs_better_than_next_fit() {
        // Widths 3, 3, 1, 1 on m=4: NFDH opens a new shelf for each width-3
        // job and cannot go back; FFDH can put a width-1 job on the first shelf.
        let inst = ResaInstanceBuilder::new(4)
            .job(3, 4u64)
            .job(3, 3u64)
            .job(1, 2u64)
            .job(1, 2u64)
            .build()
            .unwrap();
        let nfdh = ShelfScheduler::nfdh().schedule(&inst);
        let ffdh = ShelfScheduler::ffdh().schedule(&inst);
        assert!(nfdh.is_valid(&inst));
        assert!(ffdh.is_valid(&inst));
        assert!(ffdh.makespan(&inst) <= nfdh.makespan(&inst));
    }

    #[test]
    fn shelves_respect_reservations() {
        let inst = ResaInstanceBuilder::new(4)
            .job(4, 3u64)
            .job(2, 2u64)
            .reservation(4, 5u64, 1u64)
            .build()
            .unwrap();
        let s = ShelfScheduler::nfdh().schedule(&inst);
        assert!(s.is_valid(&inst));
        // The 4-wide shelf cannot start before the reservation ends at 6.
        assert_eq!(s.start_of(JobId(0)), Some(Time(6)));
    }

    #[test]
    fn empty_instance() {
        let inst = ResaInstanceBuilder::new(4).build().unwrap();
        assert!(ShelfScheduler::nfdh().schedule(&inst).is_empty());
        assert!(ShelfScheduler::ffdh().schedule(&inst).is_empty());
    }

    #[test]
    fn names() {
        assert_eq!(ShelfScheduler::nfdh().name(), "shelf-NFDH");
        assert_eq!(ShelfScheduler::ffdh().name(), "shelf-FFDH");
    }
}
