//! The independent oracle of the event loop.
//!
//! [`simulate_reference`] is a second, deliberately naive implementation of
//! the on-line rule [`crate::stream::run_stream`] implements: its own event
//! queue ([`crate::event`]), a waiting queue cloned into a fresh `Vec<Job>`
//! at every decision point, started jobs removed with `O(n)` `Vec::remove`,
//! same-instant events batched through a temporary buffer, and policies
//! that clone the whole availability substrate to probe tentative starts
//! (EASY re-derives the head's shadow with a full `earliest_fit` per
//! candidate). It shares no code with the loop or the policies (nor with
//! `resa_core::decision`, which they call), which is its whole value: the property tests in this crate
//! assert that the loop — on both substrates — produces its placements, its
//! decision count and `SimMetrics::from_schedule` of its schedule. Nothing
//! outside tests calls it.

use crate::engine::SimResult;
use crate::event::{Event, EventQueue};
use crate::metrics::SimMetrics;
use crate::policy::ReferencePolicy;
use resa_core::prelude::*;
use std::collections::HashSet;

/// One decision of the clone-based policies: which waiting jobs start `now`.
fn decide(
    policy: ReferencePolicy,
    now: Time,
    queue: &[Job],
    profile: &AvailabilityTimeline,
) -> Vec<JobId> {
    let mut profile = profile.clone();
    let mut started = Vec::new();
    match policy {
        ReferencePolicy::Fcfs => {
            for job in queue {
                if profile.min_capacity_in(now, job.duration) >= job.width {
                    profile
                        .reserve(now, job.duration, job.width)
                        .expect("capacity just checked");
                    started.push(job.id);
                } else {
                    break;
                }
            }
        }
        ReferencePolicy::Greedy => {
            for job in queue {
                if profile.min_capacity_in(now, job.duration) >= job.width {
                    profile
                        .reserve(now, job.duration, job.width)
                        .expect("capacity just checked");
                    started.push(job.id);
                }
            }
        }
        ReferencePolicy::Easy => {
            let mut idx = 0;
            while idx < queue.len() {
                let job = &queue[idx];
                if profile.min_capacity_in(now, job.duration) >= job.width {
                    profile
                        .reserve(now, job.duration, job.width)
                        .expect("capacity just checked");
                    started.push(job.id);
                    idx += 1;
                } else {
                    break;
                }
            }
            if idx < queue.len() {
                let head = &queue[idx];
                let shadow = profile
                    .earliest_fit(head.width, head.duration, now)
                    .expect("feasible instances always admit a fit");
                for job in &queue[idx + 1..] {
                    if profile.min_capacity_in(now, job.duration) >= job.width {
                        profile
                            .reserve(now, job.duration, job.width)
                            .expect("capacity just checked");
                        let new_shadow = profile
                            .earliest_fit(head.width, head.duration, now)
                            .expect("feasible instances always admit a fit");
                        if new_shadow <= shadow {
                            started.push(job.id);
                        } else {
                            profile
                                .release(now, job.duration, job.width)
                                .expect("undoing our own reservation");
                        }
                    }
                }
            }
        }
    }
    started
}

/// Run the oracle's event loop to completion under `policy`.
pub fn simulate_reference(instance: &ResaInstance, policy: ReferencePolicy) -> SimResult {
    let mut events = EventQueue::new();
    for job in instance.jobs() {
        events.push(job.release, Event::JobArrival(job.id));
    }
    let reservation_profile = instance.profile();
    for &(t, _) in reservation_profile.steps() {
        if t > Time::ZERO {
            events.push(t, Event::AvailabilityChange);
        }
    }
    let mut profile = AvailabilityTimeline::from(&reservation_profile);
    let mut waiting: Vec<JobId> = Vec::new(); // arrival order
    let mut arrived: HashSet<JobId> = HashSet::new();
    let mut schedule = Schedule::new();
    let mut decisions = 0u64;

    while let Some(first) = events.pop() {
        let now = first.at;
        // Drain every event at this instant through a temporary batch.
        let mut batch = vec![first];
        while events.peek_time() == Some(now) {
            batch.push(events.pop().expect("peeked"));
        }
        let mut new_arrivals: Vec<JobId> = batch
            .iter()
            .filter_map(|te| match te.event {
                Event::JobArrival(id) => Some(id),
                _ => None,
            })
            .collect();
        new_arrivals.sort();
        for id in new_arrivals {
            if arrived.insert(id) {
                waiting.push(id);
            }
        }
        if waiting.is_empty() {
            continue;
        }
        decisions += 1;
        let queue: Vec<Job> = waiting
            .iter()
            .map(|&id| *instance.job(id).expect("waiting jobs exist"))
            .collect();
        let to_start = decide(policy, now, &queue, &profile);
        for id in to_start {
            let Some(pos) = waiting.iter().position(|&w| w == id) else {
                continue;
            };
            let job = instance.job(id).expect("waiting jobs exist");
            if profile.min_capacity_in(now, job.duration) < job.width {
                continue;
            }
            profile
                .reserve(now, job.duration, job.width)
                .expect("capacity just checked");
            schedule.place(id, now);
            events.push(now + job.duration, Event::JobCompletion(id));
            waiting.remove(pos);
        }
    }
    debug_assert_eq!(schedule.len(), instance.n_jobs(), "every job must run");
    let metrics = SimMetrics::from_schedule(instance, &schedule);
    SimResult {
        schedule,
        metrics,
        decisions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn reference_matches_optimized_on_fixture() {
        let inst = ResaInstanceBuilder::new(4)
            .job(3, 4u64)
            .job_released_at(4, 2u64, 1u64)
            .job_released_at(1, 3u64, 1u64)
            .job_released_at(2, 2u64, 6u64)
            .reservation(2, 3u64, 8u64)
            .build()
            .unwrap();
        let sim = Simulator::new(inst.clone());
        for kind in [
            ReferencePolicy::Fcfs,
            ReferencePolicy::Easy,
            ReferencePolicy::Greedy,
        ] {
            let res = sim.run(&kind);
            let reference = simulate_reference(&inst, kind);
            assert_eq!(reference.schedule, res.schedule, "{}", kind.name());
            assert_eq!(reference.decisions, res.decisions, "{}", kind.name());
        }
    }
}
