//! The Proposition-1 transformation.
//!
//! For instances with *non-increasing* reservations (availability
//! `m(t)` non-decreasing), the paper proves the `(2 − 1/m(C*_max))`
//! guarantee for LSRC by transforming the reservations into ordinary rigid
//! tasks placed at the head of the list:
//!
//! 1. truncate the instance at the optimal makespan: the machine count of the
//!    transformed instance is `m' = m(C*_max)` and the availability for
//!    `t ≤ C*_max` is unchanged (instance `I'`);
//! 2. if the unavailability of `I'` takes values `U_1 > U_2 > … > U_k = 0`
//!    with `U(t) = U_j` on `[t_j, t_{j+1})`, replace the reservations by
//!    `k − 1` tasks `T_{n+j}` with `q_{n+j} = U_j − U_{j+1}` and
//!    `p_{n+j} = t_{j+1}` (instance `I''`);
//! 3. running LSRC on `I''` with the new tasks at the head of the list yields
//!    exactly the same schedule as LSRC on `I'`.
//!
//! [`nonincreasing_to_rigid`] performs step 2 and [`head_list_order`] builds
//! the corresponding list; the experiment `fig2_nonincreasing` verifies the
//! schedule equality and the resulting bound.

use resa_core::prelude::*;

/// The result of transforming a non-increasing-reservation instance into a
/// reservation-free rigid instance (the `I''` of Proposition 1).
#[derive(Debug, Clone)]
pub struct RigidTransform {
    /// The transformed instance: original jobs plus one surrogate task per
    /// unavailability level.
    pub instance: RigidInstance,
    /// Ids of the surrogate tasks (to be placed at the head of the list).
    pub surrogate_ids: Vec<JobId>,
}

/// Error returned when the transformation does not apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// The instance's reservations are not non-increasing.
    NotNonIncreasing,
    /// The truncated availability is zero at the horizon, so no machine count
    /// can be assigned to the transformed instance.
    NoMachinesAtHorizon,
}

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformError::NotNonIncreasing => {
                write!(f, "reservations are not non-increasing")
            }
            TransformError::NoMachinesAtHorizon => {
                write!(f, "no machine is available at the truncation horizon")
            }
        }
    }
}

impl std::error::Error for TransformError {}

/// Apply the Proposition-1 transformation to `instance`, truncating at
/// `horizon` (in the proof, the optimal makespan `C*_max`; any upper bound on
/// it gives a valid — if weaker — transformed instance).
pub fn nonincreasing_to_rigid(
    instance: &ResaInstance,
    horizon: Time,
) -> Result<RigidTransform, TransformError> {
    if !instance.has_nonincreasing_reservations() {
        return Err(TransformError::NotNonIncreasing);
    }
    let profile = instance.profile();
    // Step 1: m' = m(horizon).
    let m_prime = profile.capacity_at(horizon);
    if m_prime == 0 {
        return Err(TransformError::NoMachinesAtHorizon);
    }
    // Unavailability of I' relative to m': U'(t) = m' − min(m(t), m').
    // Collect the decreasing levels U_1 > … > U_k = 0 and their breakpoints.
    let mut levels: Vec<(Time, u32)> = Vec::new(); // (t_j, U_j)
    for &(t, cap) in profile.steps() {
        if t >= horizon {
            break;
        }
        let capped = cap.min(m_prime);
        let u = m_prime - capped;
        if levels.last().map(|&(_, lu)| lu) != Some(u) {
            levels.push((t, u));
        }
    }
    if levels.is_empty() {
        levels.push((Time::ZERO, 0));
    }
    // If the last level is not 0, it drops to 0 at the horizon.
    let mut boundaries: Vec<Time> = levels.iter().skip(1).map(|&(t, _)| t).collect();
    if levels.last().map(|&(_, u)| u) != Some(0) {
        boundaries.push(horizon);
    }
    // Step 2: one surrogate task per level drop.
    let n = instance.n_jobs();
    let mut jobs: Vec<Job> = instance.jobs().to_vec();
    let mut surrogate_ids = Vec::new();
    for (j, (&(_, u_j), &t_next)) in levels.iter().zip(boundaries.iter()).enumerate() {
        let u_next = levels.get(j + 1).map(|&(_, u)| u).unwrap_or(0);
        debug_assert!(u_j > u_next, "levels are strictly decreasing");
        let width = u_j - u_next;
        let duration = Dur(t_next.ticks());
        let id = JobId(n + j);
        jobs.push(Job::new(id, width, duration));
        surrogate_ids.push(id);
    }
    let instance =
        RigidInstance::new(m_prime, jobs).map_err(|_| TransformError::NoMachinesAtHorizon)?;
    Ok(RigidTransform {
        instance,
        surrogate_ids,
    })
}

/// The list order that places the surrogate tasks at the head (in decreasing
/// width, i.e. longest-unavailability-first) followed by the original jobs in
/// their submission order. Running LSRC with this list on the transformed
/// instance reproduces the schedule of LSRC on the original instance.
pub fn head_list_order(transform: &RigidTransform) -> Vec<JobId> {
    let mut order: Vec<JobId> = transform.surrogate_ids.clone();
    for j in transform.instance.jobs() {
        if !transform.surrogate_ids.contains(&j.id) {
            order.push(j.id);
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The example of Figure 2: a staircase of reservations decreasing in two
    /// steps, transformed into two head tasks.
    fn staircase_instance() -> ResaInstance {
        // m = 6; U = 4 on [0,2), 2 on [2,5), 0 afterwards.
        ResaInstanceBuilder::new(6)
            .job(2, 3u64)
            .job(3, 2u64)
            .job(1, 6u64)
            .reservation(2, 2u64, 0u64) // contributes to U on [0,2)
            .reservation(2, 5u64, 0u64) // contributes to U on [0,5)
            .build()
            .unwrap()
    }

    #[test]
    fn transformation_builds_surrogates() {
        let inst = staircase_instance();
        assert!(inst.has_nonincreasing_reservations());
        let horizon = Time(10);
        let tr = nonincreasing_to_rigid(&inst, horizon).unwrap();
        // m(horizon) = 6: unchanged machine count.
        assert_eq!(tr.instance.machines(), 6);
        // Two levels: U_1 = 4 on [0,2), U_2 = 2 on [2,5) → surrogates
        // (q=2, p=2) and (q=2, p=5).
        assert_eq!(tr.surrogate_ids.len(), 2);
        let s1 = tr.instance.job(tr.surrogate_ids[0]).unwrap();
        let s2 = tr.instance.job(tr.surrogate_ids[1]).unwrap();
        assert_eq!((s1.width, s1.duration), (2, Dur(2)));
        assert_eq!((s2.width, s2.duration), (2, Dur(5)));
        // Original jobs preserved.
        assert_eq!(tr.instance.n_jobs(), inst.n_jobs() + 2);
    }

    #[test]
    fn surrogates_reproduce_unavailability_area() {
        let inst = staircase_instance();
        let tr = nonincreasing_to_rigid(&inst, Time(10)).unwrap();
        let surrogate_work: u128 = tr
            .surrogate_ids
            .iter()
            .map(|&id| tr.instance.job(id).unwrap().work())
            .sum();
        // Reservation area below the horizon: 4·2 + 2·3 = 14.
        assert_eq!(surrogate_work, 14);
    }

    #[test]
    fn truncation_reduces_machines() {
        // Availability: 2 on [0,3), 6 afterwards. Truncating at horizon 2
        // yields m' = 2 and no surrogate (U' ≡ 0 relative to m' = 2).
        let inst = ResaInstanceBuilder::new(6)
            .job(1, 1u64)
            .reservation(4, 3u64, 0u64)
            .build()
            .unwrap();
        let tr = nonincreasing_to_rigid(&inst, Time(2)).unwrap();
        assert_eq!(tr.instance.machines(), 2);
        assert!(tr.surrogate_ids.is_empty());
    }

    #[test]
    fn rejects_increasing_reservations() {
        let inst = ResaInstanceBuilder::new(4)
            .job(1, 1u64)
            .reservation(2, 2u64, 5u64)
            .build()
            .unwrap();
        assert_eq!(
            nonincreasing_to_rigid(&inst, Time(10)).unwrap_err(),
            TransformError::NotNonIncreasing
        );
    }

    #[test]
    fn rejects_zero_capacity_horizon() {
        let inst = ResaInstanceBuilder::new(4)
            .job(1, 1u64)
            .reservation(4, 10u64, 0u64)
            .build()
            .unwrap();
        assert_eq!(
            nonincreasing_to_rigid(&inst, Time(5)).unwrap_err(),
            TransformError::NoMachinesAtHorizon
        );
    }

    #[test]
    fn head_list_order_puts_surrogates_first() {
        let inst = staircase_instance();
        let tr = nonincreasing_to_rigid(&inst, Time(10)).unwrap();
        let order = head_list_order(&tr);
        assert_eq!(order.len(), tr.instance.n_jobs());
        assert_eq!(&order[..2], tr.surrogate_ids.as_slice());
        assert_eq!(&order[2..], &[JobId(0), JobId(1), JobId(2)]);
    }

    #[test]
    fn no_reservations_means_no_surrogates() {
        let inst = ResaInstanceBuilder::new(4).job(2, 2u64).build().unwrap();
        let tr = nonincreasing_to_rigid(&inst, Time(5)).unwrap();
        assert!(tr.surrogate_ids.is_empty());
        assert_eq!(tr.instance.machines(), 4);
    }
}
