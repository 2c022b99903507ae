//! Execution traces of simulated runs.
//!
//! [`JobRecord`] is when one job arrived, started and completed: what the
//! loop retires into a sink and the service reports. The test-only
//! `RunTrace` collects the records of a whole schedule to cross-check the
//! metrics.

use resa_core::prelude::*;
use serde::{Deserialize, Serialize};

/// The lifecycle of one job in a simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobRecord {
    /// The job.
    pub job: JobId,
    /// Processors requested.
    pub width: u32,
    /// Execution time.
    pub duration: Dur,
    /// When the scheduler first saw the job.
    pub arrived: Time,
    /// When the job started.
    pub started: Time,
    /// When the job completed.
    pub completed: Time,
}

impl JobRecord {
    /// Waiting time of the job (start − arrival).
    pub fn wait(&self) -> Dur {
        self.started.since(self.arrived)
    }

    /// Flow time of the job (completion − arrival).
    pub fn flow(&self) -> Dur {
        self.completed.since(self.arrived)
    }
}

/// A complete trace of one simulated run.
#[cfg(test)]
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    records: Vec<JobRecord>,
}

#[cfg(test)]
impl RunTrace {
    /// Build the trace of a finished schedule on its instance.
    pub fn from_schedule(instance: &ResaInstance, schedule: &Schedule) -> RunTrace {
        let mut records: Vec<JobRecord> = schedule
            .placements()
            .iter()
            .filter_map(|p| {
                instance.job(p.job).map(|j| JobRecord {
                    job: p.job,
                    width: j.width,
                    duration: j.duration,
                    arrived: j.release,
                    started: p.start,
                    completed: p.start + j.duration,
                })
            })
            .collect();
        records.sort_by_key(|r| (r.started, r.job));
        RunTrace { records }
    }

    /// Per-job records, ordered by start time.
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Number of recorded jobs.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::policy::{FcfsPolicy, GreedyPolicy};

    fn instance() -> ResaInstance {
        ResaInstanceBuilder::new(4)
            .job(3, 4u64)
            .job_released_at(4, 2u64, 1u64)
            .job_released_at(1, 3u64, 2u64)
            .build()
            .unwrap()
    }

    #[test]
    fn records_lifecycle() {
        let inst = instance();
        let result = Simulator::new(inst.clone()).run(&GreedyPolicy);
        let trace = RunTrace::from_schedule(&inst, &result.schedule);
        assert_eq!(trace.len(), 3);
        assert!(!trace.is_empty());
        for r in trace.records() {
            assert!(r.started >= r.arrived);
            assert_eq!(r.completed, r.started + r.duration);
            assert_eq!(r.flow(), r.wait() + r.duration);
        }
        let last = trace.records().iter().map(|r| r.completed).max();
        assert_eq!(last, Some(result.metrics.makespan));
    }

    #[test]
    fn total_wait_matches_metrics() {
        let inst = instance();
        let result = Simulator::new(inst.clone()).run(&FcfsPolicy);
        let trace = RunTrace::from_schedule(&inst, &result.schedule);
        let expected = result.metrics.mean_wait * inst.n_jobs() as f64;
        let total: Dur = trace.records().iter().map(|r| r.wait()).sum();
        assert!((total.ticks() as f64 - expected).abs() < 1e-9);
    }

    #[test]
    fn empty_trace() {
        let inst = ResaInstanceBuilder::new(2).build().unwrap();
        let trace = RunTrace::from_schedule(&inst, &Schedule::new());
        assert!(trace.is_empty());
        assert!(trace.records().is_empty());
    }
}
