//! Problem instances: RIGIDSCHEDULING and RESASCHEDULING.
//!
//! * [`RigidInstance`] — the paper's basic problem `P | p_j, size_j | C_max`:
//!   `m` identical machines and `n` rigid jobs, no reservations.
//! * [`ResaInstance`] — the RESASCHEDULING problem of §3: the same, plus a set
//!   of advance reservations inducing an unavailability function `U(t)`.
//! * [`Alpha`] — the exact rational parameter `α ∈ (0, 1]` of the
//!   α-RESASCHEDULING restriction of §4.2.

use crate::error::ModelError;
use crate::job::{Job, JobId};
use crate::profile::ResourceProfile;
use crate::reservation::{is_nonincreasing, unavailability_breakpoints, Reservation};
use crate::time::{Dur, Time};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// Exact rational `α = num / denom` with `0 < num ≤ denom`.
///
/// The α-restriction of the paper requires, for every time `t`,
/// `U(t) ≤ (1 − α)·m` and, for every job, `q_i ≤ α·m`. Keeping α as an exact
/// rational lets all checks be done in integer arithmetic (the paper's own
/// constructions use α = 2/k).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Alpha {
    num: u64,
    denom: u64,
}

impl Alpha {
    /// `α = 1`: no restriction on job widths, no reservations allowed at any
    /// instant where a full-width job might need the whole machine.
    pub const ONE: Alpha = Alpha { num: 1, denom: 1 };
    /// `α = 1/2`: the "common" restriction quoted by the paper (reservations
    /// may never take more than half the cluster).
    pub const HALF: Alpha = Alpha { num: 1, denom: 2 };

    /// Create `α = num/denom`. Returns `None` unless `0 < num ≤ denom`.
    pub fn new(num: u64, denom: u64) -> Option<Alpha> {
        if num == 0 || denom == 0 || num > denom {
            None
        } else {
            let g = gcd(num, denom);
            Some(Alpha {
                num: num / g,
                denom: denom / g,
            })
        }
    }

    /// `α = 2/k`, the shape used by Proposition 2. Requires `k ≥ 2`.
    pub fn two_over(k: u64) -> Option<Alpha> {
        Alpha::new(2, k)
    }

    /// Numerator of the reduced fraction.
    #[inline]
    pub fn num(self) -> u64 {
        self.num
    }

    /// Denominator of the reduced fraction.
    #[inline]
    pub fn denom(self) -> u64 {
        self.denom
    }

    /// The value as `f64` (for reporting only; all checks are exact).
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.num as f64 / self.denom as f64
    }

    /// Largest job width allowed on `m` machines: `⌊α·m⌋`.
    #[inline]
    pub fn max_job_width(self, machines: u32) -> u32 {
        ((self.num * machines as u64) / self.denom) as u32
    }

    /// Largest total reservation width allowed at any instant: `⌊(1−α)·m⌋`.
    #[inline]
    pub fn max_reserved_width(self, machines: u32) -> u32 {
        (((self.denom - self.num) * machines as u64) / self.denom) as u32
    }
}

impl fmt::Display for Alpha {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.denom)
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// An instance of the basic RIGIDSCHEDULING problem (no reservations).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RigidInstance {
    machines: u32,
    jobs: Vec<Job>,
}

impl RigidInstance {
    /// Build and validate an instance.
    pub fn new(machines: u32, jobs: Vec<Job>) -> Result<Self, ModelError> {
        validate_cluster_and_jobs(machines, &jobs)?;
        Ok(RigidInstance { machines, jobs })
    }

    /// Number of machines `m`.
    #[inline]
    pub fn machines(&self) -> u32 {
        self.machines
    }

    /// The jobs of the instance.
    #[inline]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs `n`.
    #[inline]
    pub fn n_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Total work `W(I) = Σ p_j·q_j`.
    pub fn total_work(&self) -> u128 {
        self.jobs.iter().map(Job::work).sum()
    }

    /// Largest execution time `p_max`.
    pub fn pmax(&self) -> Dur {
        self.jobs
            .iter()
            .map(|j| j.duration)
            .max()
            .unwrap_or(Dur::ZERO)
    }

    /// Largest job width.
    pub fn qmax(&self) -> u32 {
        self.jobs.iter().map(|j| j.width).max().unwrap_or(0)
    }

    /// Look up a job by id. O(1) for dense ids (id == position), with a
    /// linear fallback otherwise.
    pub fn job(&self, id: JobId) -> Option<&Job> {
        match self.jobs.get(id.0) {
            Some(j) if j.id == id => Some(j),
            _ => self.jobs.iter().find(|j| j.id == id),
        }
    }

    /// Promote this instance to a RESASCHEDULING instance with no reservation.
    pub fn into_resa(self) -> ResaInstance {
        ResaInstance {
            machines: self.machines,
            jobs: self.jobs,
            reservations: Vec::new(),
        }
    }
}

/// An instance of the RESASCHEDULING problem of §3 of the paper.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResaInstance {
    machines: u32,
    jobs: Vec<Job>,
    reservations: Vec<Reservation>,
}

impl ResaInstance {
    /// Build and validate an instance (jobs fit the cluster, reservations are
    /// feasible: `∀t, U(t) ≤ m`).
    pub fn new(
        machines: u32,
        jobs: Vec<Job>,
        reservations: Vec<Reservation>,
    ) -> Result<Self, ModelError> {
        validate_cluster_and_jobs(machines, &jobs)?;
        for (idx, r) in reservations.iter().enumerate() {
            if r.width == 0 {
                return Err(ModelError::ZeroWidthReservation { reservation: idx });
            }
            if r.duration.is_zero() {
                return Err(ModelError::ZeroDurationReservation { reservation: idx });
            }
            if r.width > machines {
                return Err(ModelError::ReservationTooWide {
                    reservation: idx,
                    width: r.width,
                    machines,
                });
            }
        }
        for (t, u) in unavailability_breakpoints(&reservations) {
            if u > machines {
                return Err(ModelError::InfeasibleReservations {
                    at: t,
                    required: u,
                    machines,
                });
            }
        }
        Ok(ResaInstance {
            machines,
            jobs,
            reservations,
        })
    }

    /// Number of machines `m`.
    #[inline]
    pub fn machines(&self) -> u32 {
        self.machines
    }

    /// The jobs of the instance.
    #[inline]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// The reservations of the instance.
    #[inline]
    pub fn reservations(&self) -> &[Reservation] {
        &self.reservations
    }

    /// Number of jobs `n`.
    #[inline]
    pub fn n_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Number of reservations `n'`.
    #[inline]
    pub fn n_reservations(&self) -> usize {
        self.reservations.len()
    }

    /// Look up a job by id. O(1) for the dense ids produced by
    /// [`ResaInstanceBuilder`] (id == position), with a linear fallback for
    /// instances built with arbitrary unique ids.
    pub fn job(&self, id: JobId) -> Option<&Job> {
        match self.jobs.get(id.0) {
            Some(j) if j.id == id => Some(j),
            _ => self.jobs.iter().find(|j| j.id == id),
        }
    }

    /// Total work of the jobs `W(I) = Σ p_j·q_j` (reservations excluded).
    pub fn total_work(&self) -> u128 {
        self.jobs.iter().map(Job::work).sum()
    }

    /// Largest job width.
    pub fn qmax(&self) -> u32 {
        self.jobs.iter().map(|j| j.width).max().unwrap_or(0)
    }

    /// Latest release date among jobs.
    pub fn max_release(&self) -> Time {
        self.jobs
            .iter()
            .map(|j| j.release)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// The availability profile `m(t) = m − U(t)` induced by the reservations.
    pub fn profile(&self) -> ResourceProfile {
        // Feasibility was checked at construction time.
        ResourceProfile::from_reservations(self.machines, &self.reservations)
            .expect("instance invariant: reservations are feasible")
    }

    /// The availability profile as an indexed
    /// [`AvailabilityTimeline`](crate::timeline::AvailabilityTimeline) — the
    /// fast [`crate::capacity::CapacityQuery`] backend the schedulers use.
    pub fn timeline(&self) -> crate::timeline::AvailabilityTimeline {
        crate::timeline::AvailabilityTimeline::from_reservations(self.machines, &self.reservations)
            .expect("instance invariant: reservations are feasible")
    }

    /// Whether the reservations are non-increasing (availability
    /// non-decreasing), the hypothesis of Proposition 1.
    pub fn has_nonincreasing_reservations(&self) -> bool {
        is_nonincreasing(&self.reservations)
    }

    /// Check the α-restriction of §4.2: every job uses at most `α·m`
    /// processors and, at every instant, reservations use at most `(1 − α)·m`.
    pub fn check_alpha_restricted(&self, alpha: Alpha) -> Result<(), ModelError> {
        for j in &self.jobs {
            if !j.respects_alpha(alpha, self.machines) {
                return Err(ModelError::AlphaViolation {
                    detail: format!(
                        "job {} has width {} > α·m = {}·{}/{}",
                        j.id, j.width, alpha.num, self.machines, alpha.denom
                    ),
                });
            }
        }
        for (t, u) in unavailability_breakpoints(&self.reservations) {
            // u ≤ (1 − α)m  ⇔  u·denom ≤ (denom − num)·m
            if (u as u64) * alpha.denom() > (alpha.denom() - alpha.num()) * self.machines as u64 {
                return Err(ModelError::AlphaViolation {
                    detail: format!(
                        "reservations use {} processors at {}, more than (1−α)·m = ({}−{})·{}/{}",
                        u, t, alpha.denom, alpha.num, self.machines, alpha.denom
                    ),
                });
            }
        }
        Ok(())
    }

    /// Whether the instance satisfies the α-restriction.
    pub fn is_alpha_restricted(&self, alpha: Alpha) -> bool {
        self.check_alpha_restricted(alpha).is_ok()
    }

    /// The largest `α` (as an exact rational with denominator `m`) for which
    /// the instance is α-restricted, or `None` if no α ∈ (0,1] works (which
    /// happens when reservations leave fewer processors free than the widest
    /// job needs).
    pub fn max_alpha(&self) -> Option<Alpha> {
        let m = self.machines as u64;
        // α must satisfy:  qmax ≤ α·m   and   peak_U ≤ (1−α)·m
        // i.e.  qmax/m ≤ α ≤ (m − peak_U)/m.
        let lo = self.qmax().max(1) as u64; // numerator over m
        let peak = crate::reservation::peak_unavailability(&self.reservations) as u64;
        let hi = m - peak;
        if lo <= hi {
            Alpha::new(hi, m)
        } else {
            None
        }
    }
}

fn validate_cluster_and_jobs(machines: u32, jobs: &[Job]) -> Result<(), ModelError> {
    if machines == 0 {
        return Err(ModelError::NoMachines);
    }
    let mut seen: HashSet<JobId> = HashSet::with_capacity(jobs.len());
    for (idx, j) in jobs.iter().enumerate() {
        if j.width == 0 {
            return Err(ModelError::ZeroWidthJob { job: idx });
        }
        if j.duration.is_zero() {
            return Err(ModelError::ZeroDurationJob { job: idx });
        }
        if j.width > machines {
            return Err(ModelError::JobTooWide {
                job: idx,
                width: j.width,
                machines,
            });
        }
        if !seen.insert(j.id) {
            return Err(ModelError::DuplicateJobId { id: j.id.0 });
        }
    }
    Ok(())
}

/// Convenience builder for [`ResaInstance`]; assigns dense job and reservation
/// ids automatically.
#[derive(Debug, Clone, Default)]
pub struct ResaInstanceBuilder {
    machines: u32,
    jobs: Vec<Job>,
    reservations: Vec<Reservation>,
}

impl ResaInstanceBuilder {
    /// Start building an instance on `machines` processors.
    pub fn new(machines: u32) -> Self {
        ResaInstanceBuilder {
            machines,
            jobs: Vec::new(),
            reservations: Vec::new(),
        }
    }

    /// Add a job with the next dense id, released at time 0.
    pub fn job(mut self, width: u32, duration: impl Into<Dur>) -> Self {
        let id = self.jobs.len();
        self.jobs.push(Job::new(id, width, duration));
        self
    }

    /// Add a job with the next dense id and an explicit release date.
    pub fn job_released_at(
        mut self,
        width: u32,
        duration: impl Into<Dur>,
        release: impl Into<Time>,
    ) -> Self {
        let id = self.jobs.len();
        self.jobs
            .push(Job::released_at(id, width, duration, release));
        self
    }

    /// Add a reservation with the next dense id.
    pub fn reservation(
        mut self,
        width: u32,
        duration: impl Into<Dur>,
        start: impl Into<Time>,
    ) -> Self {
        let id = self.reservations.len();
        self.reservations
            .push(Reservation::new(id, width, duration, start));
        self
    }

    /// Add many identical jobs.
    pub fn jobs(mut self, count: usize, width: u32, duration: impl Into<Dur>) -> Self {
        let d = duration.into();
        for _ in 0..count {
            let id = self.jobs.len();
            self.jobs.push(Job::new(id, width, d));
        }
        self
    }

    /// Finish building, validating the instance.
    pub fn build(self) -> Result<ResaInstance, ModelError> {
        ResaInstance::new(self.machines, self.jobs, self.reservations)
    }

    /// Finish building a reservation-free instance.
    pub fn build_rigid(self) -> Result<RigidInstance, ModelError> {
        assert!(
            self.reservations.is_empty(),
            "build_rigid called on a builder with reservations"
        );
        RigidInstance::new(self.machines, self.jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_construction() {
        assert_eq!(Alpha::new(2, 4), Alpha::new(1, 2));
        assert!(Alpha::new(0, 3).is_none());
        assert!(Alpha::new(3, 2).is_none());
        assert!(Alpha::new(3, 0).is_none());
        assert_eq!(Alpha::new(1, 1), Some(Alpha::ONE));
        assert_eq!(Alpha::two_over(4), Alpha::new(1, 2));
        assert!(Alpha::two_over(1).is_none());
    }

    #[test]
    fn alpha_widths() {
        let a = Alpha::new(1, 3).unwrap();
        assert_eq!(a.max_job_width(9), 3);
        assert_eq!(a.max_reserved_width(9), 6);
        assert_eq!(Alpha::HALF.max_job_width(7), 3);
        assert_eq!(Alpha::HALF.max_reserved_width(7), 3);
        assert_eq!(Alpha::ONE.max_job_width(7), 7);
        assert_eq!(Alpha::ONE.max_reserved_width(7), 0);
        assert!((Alpha::new(1, 3).unwrap().as_f64() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(Alpha::new(1, 3).unwrap().to_string(), "1/3");
    }

    #[test]
    fn rigid_instance_validation() {
        assert!(matches!(
            RigidInstance::new(0, vec![]),
            Err(ModelError::NoMachines)
        ));
        assert!(matches!(
            RigidInstance::new(4, vec![Job::new(0usize, 0, 3u64)]),
            Err(ModelError::ZeroWidthJob { job: 0 })
        ));
        assert!(matches!(
            RigidInstance::new(4, vec![Job::new(0usize, 2, 0u64)]),
            Err(ModelError::ZeroDurationJob { job: 0 })
        ));
        assert!(matches!(
            RigidInstance::new(4, vec![Job::new(0usize, 5, 1u64)]),
            Err(ModelError::JobTooWide { job: 0, .. })
        ));
        assert!(matches!(
            RigidInstance::new(
                4,
                vec![Job::new(0usize, 1, 1u64), Job::new(0usize, 1, 1u64)]
            ),
            Err(ModelError::DuplicateJobId { id: 0 })
        ));
        let ok = RigidInstance::new(
            4,
            vec![Job::new(0usize, 2, 3u64), Job::new(1usize, 4, 1u64)],
        )
        .unwrap();
        assert_eq!(ok.n_jobs(), 2);
        assert_eq!(ok.total_work(), 10);
        assert_eq!(ok.pmax(), Dur(3));
        assert_eq!(ok.qmax(), 4);
        assert_eq!(ok.job(JobId(1)).unwrap().width, 4);
        assert!(ok.job(JobId(7)).is_none());
    }

    #[test]
    fn resa_instance_validation() {
        // Infeasible reservations.
        let err = ResaInstance::new(
            4,
            vec![],
            vec![
                Reservation::new(0usize, 3, 5u64, 0u64),
                Reservation::new(1usize, 2, 5u64, 2u64),
            ],
        );
        assert!(matches!(
            err,
            Err(ModelError::InfeasibleReservations { .. })
        ));
        // Too-wide reservation.
        assert!(matches!(
            ResaInstance::new(4, vec![], vec![Reservation::new(0usize, 5, 1u64, 0u64)]),
            Err(ModelError::ReservationTooWide { .. })
        ));
        // Zero-width / zero-duration reservations.
        assert!(matches!(
            ResaInstance::new(4, vec![], vec![Reservation::new(0usize, 0, 1u64, 0u64)]),
            Err(ModelError::ZeroWidthReservation { .. })
        ));
        assert!(matches!(
            ResaInstance::new(4, vec![], vec![Reservation::new(0usize, 2, 0u64, 0u64)]),
            Err(ModelError::ZeroDurationReservation { .. })
        ));
    }

    #[test]
    fn builder_and_profile() {
        let inst = ResaInstanceBuilder::new(8)
            .job(4, 10u64)
            .job(2, 5u64)
            .reservation(6, 4u64, 3u64)
            .build()
            .unwrap();
        assert_eq!(inst.n_jobs(), 2);
        assert_eq!(inst.n_reservations(), 1);
        assert_eq!(inst.total_work(), 50);
        let p = inst.profile();
        assert_eq!(p.capacity_at(Time(0)), 8);
        assert_eq!(p.capacity_at(Time(3)), 2);
        assert_eq!(p.capacity_at(Time(7)), 8);
    }

    #[test]
    fn builder_many_jobs_and_release_dates() {
        let inst = ResaInstanceBuilder::new(8)
            .jobs(3, 2, 4u64)
            .job_released_at(1, 2u64, 9u64)
            .build()
            .unwrap();
        assert_eq!(inst.n_jobs(), 4);
        assert_eq!(inst.max_release(), Time(9));
        // Dense ids.
        let ids: Vec<usize> = inst.jobs().iter().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn alpha_restriction_check() {
        let inst = ResaInstanceBuilder::new(12)
            .job(6, 1u64)
            .job(4, 2u64)
            .reservation(6, 3u64, 1u64)
            .build()
            .unwrap();
        // α = 1/2: jobs ≤ 6 ok, reservations ≤ 6 ok.
        assert!(inst.is_alpha_restricted(Alpha::HALF));
        // α = 2/3: jobs ≤ 8 ok, but reservations must be ≤ 4 — violated.
        assert!(!inst.is_alpha_restricted(Alpha::new(2, 3).unwrap()));
        // α = 1/3: jobs must be ≤ 4 — violated by the width-6 job.
        assert!(!inst.is_alpha_restricted(Alpha::new(1, 3).unwrap()));
        assert_eq!(inst.max_alpha(), Alpha::new(6, 12));
    }

    #[test]
    fn max_alpha_none_when_impossible() {
        // Widest job needs 6, but reservations leave only 4 free at peak.
        let inst = ResaInstanceBuilder::new(8)
            .job(6, 1u64)
            .reservation(4, 3u64, 0u64)
            .build()
            .unwrap();
        assert_eq!(inst.max_alpha(), None);
    }

    #[test]
    fn max_alpha_no_reservations_is_one() {
        let inst = ResaInstanceBuilder::new(8).job(8, 1u64).build().unwrap();
        assert_eq!(inst.max_alpha(), Some(Alpha::ONE));
    }

    #[test]
    fn nonincreasing_detection() {
        let inc = ResaInstanceBuilder::new(8)
            .job(1, 1u64)
            .reservation(4, 2u64, 5u64)
            .build()
            .unwrap();
        assert!(!inc.has_nonincreasing_reservations());
        let dec = ResaInstanceBuilder::new(8)
            .job(1, 1u64)
            .reservation(4, 2u64, 0u64)
            .reservation(2, 5u64, 0u64)
            .build()
            .unwrap();
        assert!(dec.has_nonincreasing_reservations());
    }

    #[test]
    fn rigid_into_resa_roundtrip() {
        let rigid = RigidInstance::new(4, vec![Job::new(0usize, 2, 3u64)]).unwrap();
        let resa = rigid.clone().into_resa();
        assert_eq!(resa.n_reservations(), 0);
        assert_eq!(resa.jobs(), rigid.jobs());
        assert_eq!(resa.profile().capacity_at(Time(0)), 4);
    }
}
