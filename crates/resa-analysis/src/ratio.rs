//! Measured performance ratios.
//!
//! The paper's statements are about the worst-case ratio `C_A / C*`; the
//! experiments measure that quantity on concrete instances. For small
//! instances the reference is the true optimum (branch-and-bound); for larger
//! ones it falls back to the certified lower bound of
//! [`resa_core::prelude::lower_bound`], in which case the reported ratio is an
//! *upper* estimate of the true ratio (the conservative direction when
//! checking an upper-bound guarantee).

use crate::guarantees::Ratio;
use resa_algos::prelude::Scheduler;
use resa_core::prelude::*;
use resa_exact::prelude::ExactSolver;
use serde::{Deserialize, Serialize};

/// How the reference value (denominator of the ratio) was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReferenceKind {
    /// The true optimal makespan, proven by branch-and-bound.
    Optimal,
    /// A certified lower bound on the optimal makespan.
    LowerBound,
}

/// One measured ratio.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RatioMeasurement {
    /// The algorithm that was measured.
    pub algorithm: String,
    /// Its makespan on the instance.
    pub makespan: u64,
    /// The reference value (optimum or lower bound).
    pub reference: u64,
    /// How the reference was obtained.
    pub reference_kind: ReferenceKind,
    /// `makespan / reference` (∞ is impossible: references are ≥ 1 for
    /// non-empty instances; 1.0 for empty instances).
    pub ratio: f64,
}

/// Configuration of the ratio harness.
#[derive(Debug, Clone, Copy)]
pub struct RatioHarness {
    /// Use the exact solver when the instance has at most this many jobs.
    pub exact_job_limit: usize,
    /// Node budget handed to the exact solver.
    pub exact_node_budget: u64,
}

impl Default for RatioHarness {
    fn default() -> Self {
        RatioHarness {
            exact_job_limit: 12,
            exact_node_budget: 2_000_000,
        }
    }
}

impl RatioHarness {
    /// A harness with the default limits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compute the reference value for `instance`: the optimum when the
    /// instance is small enough (and the search completes), the certified
    /// lower bound otherwise.
    pub fn reference(&self, instance: &ResaInstance) -> (Time, ReferenceKind) {
        if instance.n_jobs() <= self.exact_job_limit {
            let result = ExactSolver::with_node_budget(self.exact_node_budget).solve(instance);
            if result.optimal {
                return (result.makespan, ReferenceKind::Optimal);
            }
        }
        (
            lower_bound(instance).unwrap_or(Time::ZERO),
            ReferenceKind::LowerBound,
        )
    }

    /// Measure one scheduler against the reference.
    pub fn measure<S: Scheduler>(
        &self,
        scheduler: &S,
        instance: &ResaInstance,
    ) -> RatioMeasurement {
        let (reference, reference_kind) = self.reference(instance);
        self.measure_against(scheduler, instance, reference, reference_kind)
    }

    /// Measure several schedulers against a single shared reference
    /// (computing the optimum once per instance).
    pub fn measure_all(
        &self,
        schedulers: &[Box<dyn Scheduler>],
        instance: &ResaInstance,
    ) -> Vec<RatioMeasurement> {
        let (reference, kind) = self.reference(instance);
        schedulers
            .iter()
            .map(|s| self.measure_against(s, instance, reference, kind))
            .collect()
    }

    fn measure_against<S: Scheduler + ?Sized>(
        &self,
        scheduler: &S,
        instance: &ResaInstance,
        reference: Time,
        reference_kind: ReferenceKind,
    ) -> RatioMeasurement {
        let schedule = scheduler.schedule(instance);
        debug_assert!(
            schedule.is_valid(instance),
            "{} is broken",
            scheduler.name()
        );
        let (makespan, reference) = (schedule.makespan(instance).ticks(), reference.ticks());
        RatioMeasurement {
            algorithm: scheduler.name(),
            makespan,
            reference,
            reference_kind,
            ratio: Ratio::measured(makespan, reference).as_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resa_algos::prelude::*;

    fn small_instance() -> ResaInstance {
        ResaInstanceBuilder::new(3)
            .jobs(6, 1, 1u64)
            .job(1, 3u64)
            .build()
            .unwrap()
    }

    #[test]
    fn exact_reference_for_small_instances() {
        let h = RatioHarness::new();
        let inst = small_instance();
        let (r, kind) = h.reference(&inst);
        assert_eq!(kind, ReferenceKind::Optimal);
        assert_eq!(r, Time(3));
    }

    #[test]
    fn lower_bound_reference_for_large_instances() {
        let h = RatioHarness {
            exact_job_limit: 2,
            ..RatioHarness::default()
        };
        let inst = small_instance();
        let (r, kind) = h.reference(&inst);
        assert_eq!(kind, ReferenceKind::LowerBound);
        assert_eq!(r, Time(3)); // work bound: 9/3
    }

    #[test]
    fn measured_ratio_respects_graham() {
        let h = RatioHarness::new();
        let inst = small_instance();
        let m = h.measure(&Lsrc::new(), &inst);
        assert_eq!(m.reference_kind, ReferenceKind::Optimal);
        assert!(m.ratio >= 1.0);
        let graham = crate::guarantees::THEOREM_2;
        assert!(graham.admits((3, 3, None), m.makespan, m.reference));
        assert_eq!(m.makespan, 5);
        assert_eq!(m.algorithm, "LSRC(submission)");
    }

    #[test]
    fn measure_all_shares_the_reference() {
        let h = RatioHarness::new();
        let inst = small_instance();
        let ms = h.measure_all(&resa_algos::all_schedulers(), &inst);
        assert_eq!(ms.len(), resa_algos::all_schedulers().len());
        assert!(ms.windows(2).all(|w| w[0].reference == w[1].reference));
        assert!(ms.iter().all(|m| m.ratio >= 1.0 - 1e-12));
    }

    #[test]
    fn empty_instance_ratio_is_one() {
        let h = RatioHarness::new();
        let inst = ResaInstanceBuilder::new(2).build().unwrap();
        let m = h.measure(&Lsrc::new(), &inst);
        assert_eq!(m.ratio, 1.0);
        assert_eq!(m.makespan, 0);
    }
}
