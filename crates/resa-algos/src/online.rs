//! On-line batch scheduling by the doubling argument of §2.1.
//!
//! The paper recalls (citing Shmoys, Wein and Williamson) that any off-line
//! algorithm can be used on-line with only a factor-2 loss on the makespan:
//! jobs are grouped into successive *batches*; all jobs that arrive while a
//! batch is running are withheld and only considered once the whole current
//! batch has completed.
//!
//! [`BatchScheduler`] wraps any off-line [`Scheduler`] this way. Given an
//! instance with release dates, it repeatedly:
//! 1. waits until at least one unscheduled job has been released;
//! 2. forms a batch with every job released so far;
//! 3. runs the inner scheduler on the batch, restricted to start after the end
//!    of the previous batch, and commits the resulting placements.

use crate::traits::Scheduler;
use resa_core::prelude::*;

/// The batch-doubling on-line wrapper.
#[derive(Debug, Clone)]
pub struct BatchScheduler<S> {
    inner: S,
}

impl<S: Scheduler> BatchScheduler<S> {
    /// Wrap an off-line scheduler.
    pub fn new(inner: S) -> Self {
        BatchScheduler { inner }
    }
}

impl<S: Scheduler> Scheduler for BatchScheduler<S> {
    fn name(&self) -> String {
        format!("batch({})", self.inner.name())
    }

    fn schedule(&self, instance: &ResaInstance) -> Schedule {
        let mut schedule = Schedule::new();
        let mut pending: Vec<Job> = instance.jobs().to_vec();
        pending.sort_by_key(|j| (j.release, j.id));
        // The next batch may start only after the previous batch has finished.
        let mut batch_floor = Time::ZERO;
        while !pending.is_empty() {
            // 1. Batch formation time: when the first pending job is released,
            //    but never before the previous batch finished.
            let formation = batch_floor.max(pending[0].release);
            let batch: Vec<Job> = pending
                .iter()
                .filter(|j| j.release <= formation)
                .cloned()
                .collect();
            pending.retain(|j| j.release > formation);
            // 2. Build a sub-instance for the batch: same machines and
            //    reservations, jobs re-released at the formation time.
            let batch_jobs: Vec<Job> = batch
                .iter()
                .map(|j| Job::released_at(j.id.0, j.width, j.duration, formation))
                .collect();
            let sub = ResaInstance::new(
                instance.machines(),
                batch_jobs,
                instance.reservations().to_vec(),
            )
            .expect("sub-instance of a valid instance is valid");
            // 3. Run the off-line scheduler on the batch and commit.
            let batch_schedule = self.inner.schedule(&sub);
            let mut batch_end = formation;
            for p in batch_schedule.placements() {
                let job = sub.job(p.job).expect("inner scheduler places known jobs");
                schedule.place(p.job, p.start);
                batch_end = batch_end.max(p.start + job.duration);
            }
            batch_floor = batch_end;
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list_scheduling::Lsrc;

    #[test]
    fn offline_jobs_form_a_single_batch() {
        let inst = ResaInstanceBuilder::new(4)
            .job(2, 3u64)
            .job(2, 3u64)
            .job(4, 1u64)
            .build()
            .unwrap();
        let batched = BatchScheduler::new(Lsrc::new()).schedule(&inst);
        let direct = Lsrc::new().schedule(&inst);
        assert!(batched.is_valid(&inst));
        assert_eq!(batched.makespan(&inst), direct.makespan(&inst));
    }

    #[test]
    fn later_arrivals_wait_for_the_current_batch() {
        // J0 long job released at 0; J1 released at 1 must wait until the
        // first batch (J0 alone) completes at 10.
        let inst = ResaInstanceBuilder::new(2)
            .job(1, 10u64)
            .job_released_at(1, 1u64, 1u64)
            .build()
            .unwrap();
        let s = BatchScheduler::new(Lsrc::new()).schedule(&inst);
        assert!(s.is_valid(&inst));
        assert_eq!(s.start_of(JobId(0)), Some(Time(0)));
        assert_eq!(s.start_of(JobId(1)), Some(Time(10)));
        // Direct (clairvoyant off-line) LSRC would have run J1 at time 1.
        let direct = Lsrc::new().schedule(&inst);
        assert_eq!(direct.start_of(JobId(1)), Some(Time(1)));
    }

    #[test]
    fn doubling_guarantee_holds_empirically() {
        // On-line makespan ≤ 2 × off-line makespan for a staggered workload.
        let inst = ResaInstanceBuilder::new(4)
            .job(2, 4u64)
            .job_released_at(2, 4u64, 1u64)
            .job_released_at(4, 2u64, 2u64)
            .job_released_at(1, 6u64, 3u64)
            .build()
            .unwrap();
        let online = BatchScheduler::new(Lsrc::new()).schedule(&inst);
        let offline = Lsrc::new().schedule(&inst);
        assert!(online.is_valid(&inst));
        assert!(
            online.makespan(&inst).ticks() <= 2 * offline.makespan(&inst).ticks(),
            "online {} vs offline {}",
            online.makespan(&inst),
            offline.makespan(&inst)
        );
    }

    #[test]
    fn batches_respect_reservations() {
        let inst = ResaInstanceBuilder::new(2)
            .job(2, 2u64)
            .job_released_at(2, 2u64, 1u64)
            .reservation(2, 3u64, 2u64)
            .build()
            .unwrap();
        let s = BatchScheduler::new(Lsrc::new()).schedule(&inst);
        assert!(s.is_valid(&inst));
    }

    #[test]
    fn name_mentions_inner() {
        let b = BatchScheduler::new(Lsrc::new());
        assert_eq!(b.name(), "batch(LSRC(submission))");
    }

    #[test]
    fn empty_instance() {
        let inst = ResaInstanceBuilder::new(2).build().unwrap();
        assert!(BatchScheduler::new(Lsrc::new()).schedule(&inst).is_empty());
    }
}
