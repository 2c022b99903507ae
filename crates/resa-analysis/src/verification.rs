//! Guarantee verification: which of the paper's bounds apply to an instance,
//! and does a given schedule respect them?
//!
//! [`GuaranteeReport`] is the programmatic form of the checklist a reviewer
//! would run on a claimed result: identify the instance class (reservation
//! free / non-increasing / α-restricted / unrestricted), derive every bound
//! the paper proves for that class, and compare a schedule's makespan against
//! each bound relative to a reference (optimum or certified lower bound).
//!
//! The checks are *one-sided*: exceeding a bound relative to a mere lower
//! bound of the optimum is not a violation (the reference may simply be
//! loose), so each check carries the reference kind it was made against.

use crate::guarantees::{Ratio, GUARANTEES};
use crate::ratio::{RatioHarness, ReferenceKind};
use resa_core::prelude::*;
use serde::{Deserialize, Serialize};

/// The instance class, in the paper's taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InstanceClass {
    /// No reservation at all: RIGIDSCHEDULING (Theorem 2 applies).
    ReservationFree,
    /// Non-increasing reservations (§4.1, Proposition 1 applies).
    NonIncreasing,
    /// α-restricted reservations for the reported α (§4.2, Propositions 2–3).
    AlphaRestricted,
    /// Unrestricted reservations (Theorem 1: no finite guarantee exists).
    Unrestricted,
}

/// One guarantee check: a row of [`GUARANTEES`] applied to a schedule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GuaranteeCheck {
    /// Human-readable name of the bound (e.g. "Graham 2 - 1/m").
    pub bound_name: String,
    /// The numeric value of the bound (for display: the verdict compares
    /// the exact fraction).
    pub bound: f64,
    /// The measured ratio `C_max / reference` (for display).
    pub measured_ratio: f64,
    /// How the reference was obtained.
    pub reference_kind: ReferenceKind,
    /// Whether the check is conclusive (a violation against a true optimum,
    /// of a bound that covers the schedule's algorithm) or informational
    /// (measured against a lower bound, or of an algorithm the bound does
    /// not cover).
    pub conclusive: bool,
    /// Whether the measured ratio respects the bound, decided in integers.
    pub satisfied: bool,
}

/// The full report for one (instance, schedule) pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GuaranteeReport {
    /// The detected instance class.
    pub class: InstanceClass,
    /// The largest α for which the instance is α-restricted, if any.
    pub max_alpha: Option<(u64, u64)>,
    /// The schedule's makespan.
    pub makespan: u64,
    /// The reference value used for the ratios.
    pub reference: u64,
    /// How the reference was obtained.
    pub reference_kind: ReferenceKind,
    /// Individual bound checks.
    pub checks: Vec<GuaranteeCheck>,
}

impl GuaranteeReport {
    /// Whether any *conclusive* check failed (a bound violated against a true
    /// optimum) — this would contradict the paper and indicates a bug.
    pub fn has_conclusive_violation(&self) -> bool {
        self.checks.iter().any(|c| c.conclusive && !c.satisfied)
    }
}

/// Classify an instance in the paper's taxonomy.
pub fn classify(instance: &ResaInstance) -> InstanceClass {
    if instance.n_reservations() == 0 {
        InstanceClass::ReservationFree
    } else if instance.has_nonincreasing_reservations() {
        InstanceClass::NonIncreasing
    } else if instance.max_alpha().is_some() {
        InstanceClass::AlphaRestricted
    } else {
        InstanceClass::Unrestricted
    }
}

/// Verify a schedule of `instance` against every guarantee of the paper that
/// applies to its class, using `harness` to obtain the reference.
/// `lsrc_class` says whether the schedule comes from list scheduling (LSRC
/// in any order): the only schedules the paper's upper bounds cover, so the
/// only ones whose checks can be conclusive.
pub fn verify_schedule(
    harness: &RatioHarness,
    instance: &ResaInstance,
    schedule: &Schedule,
    lsrc_class: bool,
) -> GuaranteeReport {
    let (reference, reference_kind) = harness.reference(instance);
    let makespan = schedule.makespan(instance);
    report_from_reference(instance, makespan, reference, reference_kind, lsrc_class)
}

/// Build the guarantee report for a known makespan against a known
/// reference: one check per row of [`GUARANTEES`] that covers the
/// instance's class. This is the class-dependent half of
/// [`verify_schedule`], shared with the streaming replay path (which never
/// materializes a schedule and derives its reference from streamed
/// [`StreamFacts`]).
pub fn report_from_reference(
    instance: &ResaInstance,
    makespan: Time,
    reference: Time,
    reference_kind: ReferenceKind,
    lsrc_class: bool,
) -> GuaranteeReport {
    let class = classify(instance);
    let measured = Ratio::measured(makespan.ticks(), reference.ticks());
    let available = instance.profile().capacity_at(reference).max(1);
    let params = (instance.machines(), available, instance.max_alpha());
    let checks = GUARANTEES
        .iter()
        .filter(|g| g.covers.contains(&class))
        .filter_map(|g| (g.bound)(params).map(|bound| (g, bound)))
        .map(|(g, bound)| GuaranteeCheck {
            bound_name: (g.name)(params),
            bound: bound.as_f64(),
            measured_ratio: measured.as_f64(),
            reference_kind,
            conclusive: reference_kind == ReferenceKind::Optimal && (lsrc_class || !g.lsrc_only),
            satisfied: measured <= bound,
        })
        .collect();
    GuaranteeReport {
        class,
        max_alpha: params.2.map(|a| (a.num(), a.denom())),
        makespan: makespan.ticks(),
        reference: reference.ticks(),
        reference_kind,
        checks,
    }
}

/// Per-job facts folded while a trace streams past — everything the
/// certified lower bound and [`report_for_stream`] need, without holding
/// the job vector.
///
/// [`StreamFacts::certified_lower_bound`] reproduces
/// `lower_bound(instance).unwrap_or(Time::ZERO)` exactly:
/// the area bound folds total work, the per-job bound folds each job's
/// earliest standalone completion against the pristine overlay profile, and
/// an unfittable job poisons the bound to `Time::ZERO` the way the
/// materialized computation's `None` does.
#[derive(Debug, Clone, Default)]
pub struct StreamFacts {
    total_work: u128,
    qmax: u32,
    per_job: Time,
    unfit: bool,
}

impl StreamFacts {
    /// A fresh fold (no jobs observed).
    pub fn new() -> Self {
        StreamFacts::default()
    }

    /// Fold one job. `profile` is the reservation-only overlay profile (no
    /// job usage), matching `per_job_bound` in `resa-core`.
    pub fn observe(&mut self, job: &Job, profile: &ResourceProfile) {
        self.total_work += job.work();
        self.qmax = self.qmax.max(job.width);
        if !self.unfit {
            match profile.earliest_fit(job.width, job.duration, job.release) {
                Some(start) => self.per_job = self.per_job.max(start + job.duration),
                None => self.unfit = true,
            }
        }
    }

    /// The certified lower bound of the folded jobs on `profile` — equal to
    /// `lower_bound(instance).unwrap_or(Time::ZERO)` of the materialized
    /// instance.
    pub fn certified_lower_bound(&self, profile: &ResourceProfile) -> Time {
        if self.unfit {
            return Time::ZERO;
        }
        match profile.earliest_time_with_area(self.total_work) {
            Some(area) => area.max(self.per_job),
            None => Time::ZERO,
        }
    }
}

/// Guarantee report for a streamed replay.
///
/// Classification, `max_alpha` and every bound formula depend on the
/// instance only through `(machines, reservations, qmax)`, so a *surrogate*
/// instance holding a single job of width `qmax` over the real overlay
/// reproduces [`verify_schedule`]'s report exactly — provided the reference
/// is the certified lower bound, which is what [`verify_schedule`] itself
/// uses past the exact-solver job limit (streaming callers fall back to the
/// materialized path below that limit precisely so the exact reference is
/// never bypassed).
pub fn report_for_stream(
    machines: u32,
    reservations: &[Reservation],
    facts: &StreamFacts,
    makespan: Time,
    lsrc_class: bool,
) -> GuaranteeReport {
    let surrogate_job = Job::released_at(0usize, facts.qmax.max(1).min(machines), 1u64, 0u64);
    let surrogate = ResaInstance::new(machines, vec![surrogate_job], reservations.to_vec())
        .expect("surrogate mirrors an overlay that already validated");
    let reference = facts.certified_lower_bound(&surrogate.profile());
    report_from_reference(
        &surrogate,
        makespan,
        reference,
        ReferenceKind::LowerBound,
        lsrc_class,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use resa_algos::prelude::*;

    #[test]
    fn classification() {
        let free = ResaInstanceBuilder::new(4).job(2, 3u64).build().unwrap();
        assert_eq!(classify(&free), InstanceClass::ReservationFree);

        let nonincr = ResaInstanceBuilder::new(4)
            .job(2, 3u64)
            .reservation(2, 5u64, 0u64)
            .build()
            .unwrap();
        assert_eq!(classify(&nonincr), InstanceClass::NonIncreasing);

        let alpha = ResaInstanceBuilder::new(4)
            .job(2, 3u64)
            .reservation(2, 5u64, 3u64)
            .build()
            .unwrap();
        assert_eq!(classify(&alpha), InstanceClass::AlphaRestricted);

        // Widest job needs the whole machine while a reservation exists and
        // starts later: no alpha works and the reservations are increasing.
        let unrestricted = ResaInstanceBuilder::new(4)
            .job(4, 3u64)
            .reservation(2, 5u64, 3u64)
            .build()
            .unwrap();
        assert_eq!(classify(&unrestricted), InstanceClass::Unrestricted);
    }

    #[test]
    fn reservation_free_report() {
        let inst = ResaInstanceBuilder::new(3)
            .jobs(6, 1, 1u64)
            .job(1, 3u64)
            .build()
            .unwrap();
        let schedule = Lsrc::new().schedule(&inst);
        let report = verify_schedule(&RatioHarness::new(), &inst, &schedule, true);
        assert_eq!(report.class, InstanceClass::ReservationFree);
        assert_eq!(report.reference_kind, ReferenceKind::Optimal);
        assert_eq!(report.checks.len(), 1);
        assert!(report.checks[0].satisfied);
        assert!(!report.has_conclusive_violation());
    }

    #[test]
    fn alpha_restricted_report() {
        let inst = ResaInstanceBuilder::new(8)
            .job(4, 3u64)
            .job(2, 5u64)
            .reservation(4, 4u64, 2u64)
            .build()
            .unwrap();
        assert_eq!(classify(&inst), InstanceClass::AlphaRestricted);
        let schedule = Lsrc::new().schedule(&inst);
        let report = verify_schedule(&RatioHarness::new(), &inst, &schedule, true);
        assert_eq!(report.max_alpha, Some((1, 2)));
        assert!(report
            .checks
            .iter()
            .any(|c| c.bound_name.contains("2/alpha")));
        assert!(!report.has_conclusive_violation());
    }

    #[test]
    fn nonincreasing_report_has_two_checks() {
        let inst = ResaInstanceBuilder::new(8)
            .job(3, 4u64)
            .job(2, 2u64)
            .reservation(4, 3u64, 0u64)
            .build()
            .unwrap();
        let schedule = Lsrc::new().schedule(&inst);
        let report = verify_schedule(&RatioHarness::new(), &inst, &schedule, true);
        assert_eq!(report.class, InstanceClass::NonIncreasing);
        assert_eq!(report.checks.len(), 2);
        assert!(!report.has_conclusive_violation());
    }

    #[test]
    fn unrestricted_report_has_no_checks() {
        let inst = ResaInstanceBuilder::new(4)
            .job(4, 3u64)
            .reservation(2, 5u64, 3u64)
            .build()
            .unwrap();
        let schedule = Lsrc::new().schedule(&inst);
        let report = verify_schedule(&RatioHarness::new(), &inst, &schedule, true);
        assert_eq!(report.class, InstanceClass::Unrestricted);
        assert!(report.checks.is_empty());
        assert!(!report.has_conclusive_violation());
    }

    #[test]
    fn violations_are_detected() {
        // A deliberately terrible (but feasible) schedule: everything
        // sequential at the far end.
        let inst = ResaInstanceBuilder::new(4)
            .jobs(4, 1, 1u64)
            .build()
            .unwrap();
        let mut schedule = Schedule::new();
        for (i, j) in inst.jobs().iter().enumerate() {
            schedule.place(j.id, Time(100 * (i as u64 + 1)));
        }
        assert!(schedule.is_valid(&inst));
        let report = verify_schedule(&RatioHarness::new(), &inst, &schedule, true);
        assert!(report.has_conclusive_violation());
    }

    /// The paper's upper bounds cover list scheduling only: the same
    /// schedule from any other algorithm keeps its checks and verdicts, but
    /// none of them is conclusive.
    #[test]
    fn bounds_are_conclusive_for_lsrc_class_schedules_only() {
        let inst = ResaInstanceBuilder::new(4)
            .jobs(4, 1, 1u64)
            .build()
            .unwrap();
        let mut schedule = Schedule::new();
        for (i, j) in inst.jobs().iter().enumerate() {
            schedule.place(j.id, Time(100 * (i as u64 + 1)));
        }
        let lsrc = verify_schedule(&RatioHarness::new(), &inst, &schedule, true);
        let other = verify_schedule(&RatioHarness::new(), &inst, &schedule, false);
        assert_eq!(other.checks.len(), lsrc.checks.len());
        assert!(other.checks.iter().all(|c| !c.conclusive && !c.satisfied));
        assert!(lsrc.has_conclusive_violation());
        assert!(!other.has_conclusive_violation());
    }

    /// Graham's bound at m = 1024 is 2047/1024. A makespan of 1 999 921
    /// against an optimum of 1 000 449 exceeds it by 9.8e-10
    /// (1 999 921 × 1024 = 2 047 919 104 > 2047 × 1 000 449), which a float
    /// slack of 1e-9 would forgive; one tick less respects it.
    #[test]
    fn verdicts_are_decided_in_integers() {
        let inst = ResaInstanceBuilder::new(1024).job(1, 1u64).build().unwrap();
        let verdict = |makespan| {
            let report = report_from_reference(
                &inst,
                Time(makespan),
                Time(1_000_449),
                ReferenceKind::Optimal,
                true,
            );
            assert_eq!(report.checks.len(), 1);
            report.checks[0].satisfied
        };
        assert!(!verdict(1_999_921), "violated by 9.8e-10");
        assert!(verdict(1_999_920));
    }

    /// The streaming surrogate report is indistinguishable from the
    /// materialized `verify_schedule` once the instance is past the exact
    /// solver's job limit (the only regime streaming callers use it in) —
    /// across every instance class, including the α and non-increasing
    /// branches whose bounds consult the profile and qmax.
    #[test]
    fn stream_report_matches_verify_schedule_past_the_exact_limit() {
        let overlays: [(&str, Vec<Reservation>); 4] = [
            ("free", vec![]),
            ("nonincreasing", vec![Reservation::new(0, 4, 6u64, 0u64)]),
            ("alpha", vec![Reservation::new(0, 3, 5u64, 4u64)]),
            // A full-width job below makes no α work: unrestricted.
            ("unrestricted", vec![Reservation::new(0, 3, 5u64, 4u64)]),
        ];
        for (name, overlay) in overlays {
            let mut b = ResaInstanceBuilder::new(8);
            for i in 0..14u64 {
                b = b.job_released_at(1 + (i % 4) as u32, 1 + (i * 3) % 9, i % 5);
            }
            if name == "unrestricted" {
                b = b.job(8, 2u64);
            }
            for r in &overlay {
                b = b.reservation(r.width, r.duration, r.start);
            }
            let inst = b.build().unwrap();
            assert!(inst.n_jobs() > 12, "must exceed the exact-solver limit");
            let schedule = Lsrc::new().schedule(&inst);

            let materialized = verify_schedule(&RatioHarness::new(), &inst, &schedule, true);
            let mut facts = StreamFacts::new();
            let profile = inst.profile();
            for j in inst.jobs() {
                facts.observe(j, &profile);
            }
            let streamed = report_for_stream(
                inst.machines(),
                inst.reservations(),
                &facts,
                schedule.makespan(&inst),
                true,
            );
            assert_eq!(
                crate::report::to_json(&streamed),
                crate::report::to_json(&materialized),
                "{name}: streamed report diverged"
            );
        }
    }

    #[test]
    fn stream_facts_reproduce_the_certified_lower_bound() {
        let inst = ResaInstanceBuilder::new(4)
            .job(4, 3u64)
            .job(2, 1u64)
            .reservation(2, 5u64, 1u64)
            .build()
            .unwrap();
        let mut facts = StreamFacts::new();
        let profile = inst.profile();
        for j in inst.jobs() {
            facts.observe(j, &profile);
        }
        assert_eq!(
            facts.certified_lower_bound(&profile),
            lower_bound(&inst).unwrap()
        );
        assert_eq!(facts.qmax, 4);
    }

    #[test]
    fn lsrc_passes_verification_on_a_batch() {
        // The paper's guarantees are about list scheduling: LSRC (any order)
        // and its guarantee-preserving local-search wrapper must always pass.
        for seed in 0..5u64 {
            let mut b = ResaInstanceBuilder::new(6);
            for i in 0..6u64 {
                b = b.job(1 + ((seed + i) % 3) as u32, 1 + (seed * 2 + i) % 7);
            }
            let inst = b.reservation(3, 3u64, 0u64).build().unwrap();
            let mut schedulers: Vec<Box<dyn Scheduler>> = ListOrder::DETERMINISTIC
                .iter()
                .map(|&o| Box::new(Lsrc::with_order(o)) as Box<dyn Scheduler>)
                .collect();
            schedulers.push(Box::new(LocalSearch::new(Lsrc::new())));
            for s in schedulers {
                let schedule = s.schedule(&inst);
                let report = verify_schedule(&RatioHarness::new(), &inst, &schedule, true);
                assert!(
                    !report.has_conclusive_violation(),
                    "{} violates a paper bound on seed {seed}",
                    s.name()
                );
            }
        }
    }
}
