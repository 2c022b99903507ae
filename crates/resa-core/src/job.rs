//! Rigid parallel jobs.
//!
//! In the parallel-tasks (rigid) model of the paper, each job `j` requires a
//! fixed number of processors `q_j` (its *width*) for a fixed duration `p_j`,
//! without preemption, on any subset of the cluster's processors
//! (non-contiguous allocation is allowed).

use crate::time::{Dur, Time};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a job inside an instance. Ids are dense indices `0..n` in
/// instances built by [`crate::instance::ResaInstanceBuilder`], but the model
/// only requires uniqueness.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct JobId(pub usize);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "J{}", self.0)
    }
}

impl From<usize> for JobId {
    fn from(v: usize) -> Self {
        JobId(v)
    }
}

/// A rigid parallel job: `q_j` processors for `p_j` ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Job {
    /// Job identifier, unique within an instance.
    pub id: JobId,
    /// Number of processors required (`q_j` in the paper), `1 ≤ width ≤ m`.
    pub width: u32,
    /// Execution time (`p_j` in the paper), strictly positive.
    pub duration: Dur,
    /// Release date: the job cannot start before this time. The paper's
    /// off-line model has all jobs available at time 0; the on-line simulator
    /// (resa-sim) and the batch-doubling wrapper use non-zero release dates.
    pub release: Time,
}

impl Job {
    /// Create an off-line job (release date 0).
    pub fn new(id: impl Into<JobId>, width: u32, duration: impl Into<Dur>) -> Self {
        Job {
            id: id.into(),
            width,
            duration: duration.into(),
            release: Time::ZERO,
        }
    }

    /// Create a job released at `release`.
    pub fn released_at(
        id: impl Into<JobId>,
        width: u32,
        duration: impl Into<Dur>,
        release: impl Into<Time>,
    ) -> Self {
        Job {
            id: id.into(),
            width,
            duration: duration.into(),
            release: release.into(),
        }
    }

    /// Work (area) of the job: `p_j * q_j`.
    #[inline]
    pub fn work(&self) -> u128 {
        self.duration.area(self.width)
    }

    /// Whether the job respects the α-restriction `q_j ≤ α·m`.
    ///
    /// The comparison is done in exact integer arithmetic:
    /// `q_j ≤ α·m  ⇔  q_j·denom ≤ num·m` for `α = num/denom`.
    pub fn respects_alpha(&self, alpha: crate::instance::Alpha, machines: u32) -> bool {
        (self.width as u64) * alpha.denom() <= alpha.num() * machines as u64
    }
}

impl fmt::Display for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}(q={}, p={}, r={})",
            self.id, self.width, self.duration, self.release
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Alpha;

    #[test]
    fn job_construction() {
        let j = Job::new(3usize, 4, 10u64);
        assert_eq!(j.id, JobId(3));
        assert_eq!(j.width, 4);
        assert_eq!(j.duration, Dur(10));
        assert_eq!(j.release, Time::ZERO);
    }

    #[test]
    fn job_released_at() {
        let j = Job::released_at(1usize, 2, 5u64, 7u64);
        assert_eq!(j.release, Time(7));
    }

    #[test]
    fn work_is_area() {
        let j = Job::new(0usize, 3, 7u64);
        assert_eq!(j.work(), 21);
    }

    #[test]
    fn alpha_restriction_exact() {
        // alpha = 1/2, m = 10: jobs up to width 5 are allowed.
        let a = Alpha::new(1, 2).unwrap();
        assert!(Job::new(0usize, 5, 1u64).respects_alpha(a, 10));
        assert!(!Job::new(0usize, 6, 1u64).respects_alpha(a, 10));
        // alpha = 2/3, m = 9: widths up to 6.
        let a = Alpha::new(2, 3).unwrap();
        assert!(Job::new(0usize, 6, 1u64).respects_alpha(a, 9));
        assert!(!Job::new(0usize, 7, 1u64).respects_alpha(a, 9));
    }

    #[test]
    fn display_is_compact() {
        let j = Job::new(2usize, 4, 10u64);
        assert_eq!(j.to_string(), "J2(q=4, p=10, r=t0)");
    }

    #[test]
    fn job_id_ordering() {
        assert!(JobId(1) < JobId(2));
        let id: JobId = 5usize.into();
        assert_eq!(id.to_string(), "J5");
    }
}
