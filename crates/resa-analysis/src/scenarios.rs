//! Scenario-level guarantee checks: drained windows and deadline SLAs.
//!
//! The scenario engine (`resa-sim`'s inject/revoke drains and deadline-gated
//! admission) makes two promises that are cheap to state and easy to break
//! silently: capacity subtracted by a drain window is *never* double-booked
//! by the schedule, and a job the service *committed* to a deadline finishes
//! by it. These checks re-derive both from first principles — an event sweep
//! over raw `(width, start, end)` windows, not the substrate's own
//! bookkeeping — so a bug in the timeline, the profile, or the service's
//! preemption logic cannot also hide the evidence. They feed the CLI's
//! violation count, which maps conclusive failures to exit code 2.

use resa_core::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One occupancy window: `width` processors held during `[start, end)`.
pub type Window = (u32, Time, Time);

/// Check the drained-window invariant: at every instant, the processors
/// held by running jobs plus the processors subtracted by active drains
/// (and reservations, if included in `drains`) stay within `machines`.
///
/// Windows are half-open, so a job completing exactly when a drain starts
/// does not conflict with it. Zero-length windows contribute nothing.
/// Returns `true` when the invariant holds everywhere.
pub fn drain_invariant(machines: u32, jobs: &[Window], drains: &[Window]) -> bool {
    // Event sweep: +width at start, -width at end, processed end-first at
    // equal instants (half-open windows release before the next acquires).
    let mut events: Vec<(u64, i64)> = Vec::with_capacity(2 * (jobs.len() + drains.len()));
    for &(width, start, end) in jobs.iter().chain(drains) {
        if end > start {
            events.push((start.ticks(), i64::from(width)));
            events.push((end.ticks(), -i64::from(width)));
        }
    }
    events.sort_unstable_by_key(|&(t, delta)| (t, delta > 0));
    let mut load = 0i64;
    for (_, delta) in events {
        load += delta;
        if load > i64::from(machines) {
            return false;
        }
    }
    true
}

/// The occupancy window of every job of `jobs` that `schedule` places, the
/// job side of [`drain_invariant`].
pub fn job_windows(jobs: &[Job], schedule: &Schedule) -> Vec<Window> {
    jobs.iter()
        .filter_map(|job| {
            let start = schedule.start_of(job.id)?;
            Some((job.width, start, start.saturating_add(job.duration)))
        })
        .collect()
}

/// Check the admission guarantee: every `(completion, deadline)` pair of a
/// committed job satisfies `completion ≤ deadline` (half-open run windows —
/// a job completing exactly at its deadline has met it).
pub fn deadlines_met(commitments: &[(Time, Time)]) -> bool {
    commitments
        .iter()
        .all(|&(completion, deadline)| completion <= deadline)
}

/// Verdicts of a finished [`StreamValidator`] sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamVerdicts {
    /// Job load never exceeded the overlay profile's available capacity and
    /// no job started before its release — the streaming counterpart of
    /// `Schedule::is_valid`.
    pub schedule_valid: bool,
    /// Job load plus raw overlay occupancy never exceeded the cluster size —
    /// [`drain_invariant`] re-derived online.
    pub drains_respected: bool,
    /// How many starts were observed (callers compare against the number of
    /// jobs submitted: a feasible run starts every job exactly once).
    pub starts: usize,
}

/// Online counterpart of [`drain_invariant`] and the capacity sweep of
/// `Schedule::validate`, for replays that never materialize a schedule.
///
/// Job windows are fed one at a time in non-decreasing *start* order (the
/// order any event engine starts them) and retired as soon as they complete;
/// live state is the still-running window set plus the overlay breakpoints,
/// never the whole schedule. Both verdicts are re-derived from raw windows,
/// independent of the substrate's own capacity bookkeeping — same
/// first-principles stance as the batch checks above.
#[derive(Debug, Clone)]
pub struct StreamValidator {
    machines: u32,
    profile: ResourceProfile,
    /// Overlay occupancy deltas `(t, ±width)`, sorted by time.
    overlay_events: Vec<(u64, i64)>,
    overlay_cursor: usize,
    overlay_load: i64,
    /// Still-running job windows, keyed by completion time.
    running: BinaryHeap<Reverse<(u64, u32)>>,
    job_load: i64,
    last_start: u64,
    schedule_valid: bool,
    drains_respected: bool,
    starts: usize,
}

impl StreamValidator {
    /// A validator for a cluster of `machines` processors whose reservations
    /// induce `profile` and occupy the `overlay` windows.
    pub fn new(machines: u32, profile: ResourceProfile, overlay: &[Window]) -> Self {
        let mut overlay_events = Vec::with_capacity(2 * overlay.len());
        for &(width, start, end) in overlay {
            if end > start {
                overlay_events.push((start.ticks(), i64::from(width)));
                overlay_events.push((end.ticks(), -i64::from(width)));
            }
        }
        overlay_events.sort_unstable();
        StreamValidator {
            machines,
            profile,
            overlay_events,
            overlay_cursor: 0,
            overlay_load: 0,
            running: BinaryHeap::new(),
            job_load: 0,
            last_start: 0,
            schedule_valid: true,
            drains_respected: true,
            starts: 0,
        }
    }

    /// Apply completions and overlay deltas up to and including `t`, checking
    /// both invariants at every instant the load or the capacity changes.
    /// Checking once per instant, after all of its deltas, is equivalent to
    /// the per-event checks of the batch sweeps: releases within an instant
    /// only lower the load, so the post-instant level is the binding one.
    fn advance(&mut self, t: u64) {
        loop {
            let next_completion = self.running.peek().map(|r| r.0 .0);
            let next_overlay = self.overlay_events.get(self.overlay_cursor).map(|e| e.0);
            let next = match (next_completion, next_overlay) {
                (Some(c), Some(o)) => c.min(o),
                (Some(c), None) => c,
                (None, Some(o)) => o,
                (None, None) => break,
            };
            if next > t {
                break;
            }
            while let Some(&Reverse((end, width))) = self.running.peek() {
                if end != next {
                    break;
                }
                self.job_load -= i64::from(width);
                self.running.pop();
            }
            while let Some(&(at, delta)) = self.overlay_events.get(self.overlay_cursor) {
                if at != next {
                    break;
                }
                self.overlay_load += delta;
                self.overlay_cursor += 1;
            }
            self.check(next);
        }
    }

    fn check(&mut self, t: u64) {
        if self.job_load > i64::from(self.profile.capacity_at(Time(t))) {
            self.schedule_valid = false;
        }
        if self.job_load + self.overlay_load > i64::from(self.machines) {
            self.drains_respected = false;
        }
    }

    /// Observe one job start. Starts must arrive in non-decreasing time
    /// order.
    ///
    /// # Panics
    /// Panics if `start` precedes an already-observed start.
    pub fn observe_start(&mut self, job: &Job, start: Time) {
        assert!(
            start.ticks() >= self.last_start,
            "starts must be fed in non-decreasing order"
        );
        self.last_start = start.ticks();
        self.starts += 1;
        if start < job.release {
            self.schedule_valid = false;
        }
        self.advance(start.ticks());
        if !job.duration.is_zero() {
            self.job_load += i64::from(job.width);
            self.running
                .push(Reverse(((start + job.duration).ticks(), job.width)));
        }
        self.check(start.ticks());
    }

    /// Drain the remaining completions and overlay breakpoints and return
    /// the verdicts.
    pub fn finish(mut self) -> StreamVerdicts {
        self.advance(u64::MAX);
        StreamVerdicts {
            schedule_valid: self.schedule_valid,
            drains_respected: self.drains_respected,
            starts: self.starts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_windows_always_fit() {
        let jobs = [(3, Time(0), Time(5)), (3, Time(5), Time(9))];
        let drains = [(2, Time(9), Time(12))];
        assert!(drain_invariant(4, &jobs, &drains));
    }

    #[test]
    fn overlapping_overload_is_caught() {
        // Jobs fit alone (3 ≤ 4) but not under the drain (3 + 2 > 4).
        let jobs = [(3, Time(0), Time(10))];
        let drains = [(2, Time(4), Time(6))];
        assert!(!drain_invariant(4, &jobs, &drains));
        assert!(drain_invariant(5, &jobs, &drains));
    }

    #[test]
    fn half_open_windows_touch_without_conflict() {
        // The job completes exactly when the full-cluster drain begins.
        let jobs = [(4, Time(0), Time(5))];
        let drains = [(4, Time(5), Time(8))];
        assert!(drain_invariant(4, &jobs, &drains));
        // And a job starting exactly at the drain's end is equally fine.
        let jobs = [(4, Time(8), Time(10))];
        assert!(drain_invariant(4, &jobs, &drains));
    }

    #[test]
    fn zero_length_windows_are_inert() {
        let drains = [(4, Time(3), Time(3))];
        let jobs = [(4, Time(0), Time(10))];
        assert!(drain_invariant(4, &jobs, &drains));
    }

    #[test]
    fn deadline_equality_counts_as_met() {
        assert!(deadlines_met(&[(Time(5), Time(5)), (Time(3), Time(9))]));
        assert!(!deadlines_met(&[(Time(6), Time(5))]));
        assert!(deadlines_met(&[]));
    }

    fn validator(machines: u32, reservations: &[Reservation]) -> StreamValidator {
        let profile = ResourceProfile::from_reservations(machines, reservations).unwrap();
        let overlay: Vec<Window> = reservations
            .iter()
            .map(|r| (r.width, r.start, r.end()))
            .collect();
        StreamValidator::new(machines, profile, &overlay)
    }

    #[test]
    fn stream_validator_accepts_a_feasible_run() {
        let res = [Reservation::new(0, 2, 2u64, 4u64)];
        let mut v = validator(4, &res);
        v.observe_start(&Job::released_at(0usize, 2, 4u64, 0u64), Time(0));
        v.observe_start(&Job::released_at(1usize, 4, 4u64, 0u64), Time(6));
        let verdicts = v.finish();
        assert!(verdicts.schedule_valid);
        assert!(verdicts.drains_respected);
        assert_eq!(verdicts.starts, 2);
    }

    #[test]
    fn stream_validator_catches_overlap_with_a_drain() {
        // Same shape as `overlapping_overload_is_caught`, fed online: a
        // width-3 job runs through a width-2 drain on 4 machines.
        let res = [Reservation::new(0, 2, 2u64, 4u64)];
        let mut v = validator(4, &res);
        v.observe_start(&Job::released_at(0usize, 3, 10u64, 0u64), Time(0));
        let verdicts = v.finish();
        assert!(!verdicts.schedule_valid);
        assert!(!verdicts.drains_respected);
    }

    #[test]
    fn stream_validator_catches_a_violation_after_the_last_start() {
        // The breach only materializes at t = 50, long after the lone start
        // at t = 0 — the `finish` sweep must keep probing breakpoints.
        let res = [Reservation::new(0, 2, 10u64, 50u64)];
        let mut v = validator(4, &res);
        v.observe_start(&Job::released_at(0usize, 4, 100u64, 0u64), Time(0));
        let verdicts = v.finish();
        assert!(!verdicts.schedule_valid);
        assert!(!verdicts.drains_respected);
    }

    #[test]
    fn stream_validator_checks_release_dates() {
        let mut v = validator(4, &[]);
        v.observe_start(&Job::released_at(0usize, 1, 2u64, 5u64), Time(3));
        let verdicts = v.finish();
        assert!(!verdicts.schedule_valid);
        assert!(verdicts.drains_respected);
    }

    #[test]
    fn stream_validator_honors_half_open_windows() {
        // A job completing exactly when a full-cluster drain begins, and
        // another starting exactly when it ends.
        let res = [Reservation::new(0, 4, 3u64, 5u64)];
        let mut v = validator(4, &res);
        v.observe_start(&Job::released_at(0usize, 4, 5u64, 0u64), Time(0));
        v.observe_start(&Job::released_at(1usize, 4, 2u64, 0u64), Time(8));
        let verdicts = v.finish();
        assert!(verdicts.schedule_valid);
        assert!(verdicts.drains_respected);
    }

    /// The online drain verdict agrees with the batch [`drain_invariant`]
    /// sweep on assorted window sets (fed in start order, as the engine
    /// produces them).
    #[test]
    fn stream_validator_matches_drain_invariant() {
        type RawCase = (u32, Vec<(u32, u64, u64)>, Vec<(u32, u64, u64)>);
        let cases: Vec<RawCase> = vec![
            (4, vec![(3, 0, 5), (3, 5, 9)], vec![(2, 9, 12)]),
            (4, vec![(3, 0, 10)], vec![(2, 4, 6)]),
            (5, vec![(3, 0, 10)], vec![(2, 4, 6)]),
            (8, vec![(4, 0, 6), (4, 2, 5), (2, 5, 9)], vec![(2, 3, 7)]),
            (6, vec![(2, 0, 4), (2, 1, 3), (2, 2, 6)], vec![(1, 0, 10)]),
        ];
        for (machines, jobs, drains) in cases {
            let job_windows: Vec<Window> = jobs
                .iter()
                .map(|&(w, s, e)| (w, Time(s), Time(e)))
                .collect();
            let drain_windows: Vec<Window> = drains
                .iter()
                .map(|&(w, s, e)| (w, Time(s), Time(e)))
                .collect();
            let expected = drain_invariant(machines, &job_windows, &drain_windows);
            let reservations: Vec<Reservation> = drains
                .iter()
                .enumerate()
                .map(|(i, &(w, s, e))| Reservation::new(i, w, e - s, s))
                .collect();
            let mut v = validator(machines, &reservations);
            for (id, &(w, s, e)) in jobs.iter().enumerate() {
                v.observe_start(&Job::released_at(id, w, e - s, 0u64), Time(s));
            }
            assert_eq!(
                v.finish().drains_respected,
                expected,
                "diverged on m={machines} jobs={jobs:?} drains={drains:?}"
            );
        }
    }
}
