//! Certified lower bounds on the optimal makespan `C*_max`.
//!
//! The exact branch-and-bound solver in `resa-exact` is only tractable for
//! small instances; for larger ones the measured performance ratios in the
//! benchmark harness are computed against the *maximum of several certified
//! lower bounds*, which over-estimates the true ratio (the conservative
//! direction when checking an upper-bound guarantee).
//!
//! The bounds are:
//! * **work/area bound** — the smallest `T` such that the processor area
//!   available in `[0, T)` (according to the availability profile) is at
//!   least the total work `W(I) = Σ p_j q_j`;
//! * **per-job bound** — every job must complete no earlier than the earliest
//!   completion it could achieve if it were alone on the machine
//!   (its earliest fit in the availability profile plus its duration).
//!
//! On a reservation-free instance the two reduce to `max(⌈W/m⌉, p_max)`,
//! which the tests compute independently.

use crate::instance::ResaInstance;
use crate::time::Time;

/// Work/area lower bound for a RESASCHEDULING instance: the smallest `T` such
/// that the area available under the profile in `[0, T)` is at least the total
/// work. Returns `None` when the work can never be accommodated (possible only
/// with an infinite tail of zero availability, which feasible instances built
/// from finite reservations never have).
pub fn area_bound(instance: &ResaInstance) -> Option<Time> {
    instance
        .profile()
        .earliest_time_with_area(instance.total_work())
}

/// Per-job lower bound: the maximum over jobs of the earliest completion time
/// the job could achieve if scheduled alone (respecting its release date and
/// the availability profile).
pub fn per_job_bound(instance: &ResaInstance) -> Option<Time> {
    let profile = instance.profile();
    let mut best = Time::ZERO;
    for j in instance.jobs() {
        let start = profile.earliest_fit(j.width, j.duration, j.release)?;
        best = best.max(start + j.duration);
    }
    Some(best)
}

/// Combined certified lower bound for a RESASCHEDULING instance:
/// `max(area bound, per-job bound)`.
///
/// Returns `None` if either component is undefined (see `area_bound`).
pub fn lower_bound(instance: &ResaInstance) -> Option<Time> {
    let a = area_bound(instance)?;
    let p = per_job_bound(instance)?;
    Some(a.max(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{ResaInstanceBuilder, RigidInstance};

    /// Lower bound on `C*_max` of a reservation-free instance from the total work:
    /// `⌈W / m⌉`.
    fn work_bound_rigid(instance: &RigidInstance) -> Time {
        let w = instance.total_work();
        let m = instance.machines() as u128;
        Time(w.div_ceil(m) as u64)
    }

    /// Lower bound on `C*_max` of a reservation-free instance: `max(⌈W/m⌉, p_max)`.
    fn lower_bound_rigid(instance: &RigidInstance) -> Time {
        let work = work_bound_rigid(instance);
        let pmax = Time(instance.pmax().ticks());
        work.max(pmax)
    }

    #[test]
    fn rigid_bounds() {
        let inst = ResaInstanceBuilder::new(4)
            .job(2, 3u64)
            .job(2, 3u64)
            .job(4, 2u64)
            .build_rigid()
            .unwrap();
        // W = 20, m = 4 → work bound 5; pmax = 3.
        assert_eq!(work_bound_rigid(&inst), Time(5));
        assert_eq!(lower_bound_rigid(&inst), Time(5));
        let tall = ResaInstanceBuilder::new(4)
            .job(1, 10u64)
            .job(1, 1u64)
            .build_rigid()
            .unwrap();
        // W = 11 → ⌈11/4⌉ = 3, pmax = 10.
        assert_eq!(work_bound_rigid(&tall), Time(3));
        assert_eq!(lower_bound_rigid(&tall), Time(10));
    }

    #[test]
    fn area_bound_with_reservations() {
        let inst = ResaInstanceBuilder::new(4)
            .job(2, 4u64)
            .job(2, 4u64)
            .reservation(4, 2u64, 2u64)
            .build()
            .unwrap();
        // W = 16. Area: [0,2): 8, [2,4): 0, then 4/tick.
        // Need 16 → 8 by t=2, remaining 8 needs 2 more ticks after t=4 → T=6.
        assert_eq!(area_bound(&inst), Some(Time(6)));
    }

    #[test]
    fn per_job_bound_respects_profile_and_release() {
        let inst = ResaInstanceBuilder::new(4)
            .job(4, 3u64) // needs the whole machine: cannot straddle the reservation
            .job_released_at(1, 1u64, 20u64)
            .reservation(2, 5u64, 1u64)
            .build()
            .unwrap();
        // Full-width job: earliest window of length 3 with 4 procs starts at 6 → completes 9.
        // Released job: starts at 20, completes 21.
        assert_eq!(per_job_bound(&inst), Some(Time(21)));
    }

    #[test]
    fn combined_lower_bound() {
        let inst = ResaInstanceBuilder::new(4)
            .job(4, 3u64)
            .job(2, 1u64)
            .reservation(2, 5u64, 1u64)
            .build()
            .unwrap();
        let lb = lower_bound(&inst).unwrap();
        let area = area_bound(&inst).unwrap();
        let per_job = per_job_bound(&inst).unwrap();
        assert_eq!(lb, area.max(per_job));
        assert!(lb >= Time(9));
    }

    #[test]
    fn lower_bound_no_reservations_matches_rigid() {
        let builder = || {
            ResaInstanceBuilder::new(8)
                .job(3, 5u64)
                .job(5, 2u64)
                .job(8, 1u64)
        };
        let resa = builder().build().unwrap();
        let rigid = builder().build_rigid().unwrap();
        assert_eq!(lower_bound(&resa), Some(lower_bound_rigid(&rigid)));
    }
}
