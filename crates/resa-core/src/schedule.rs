//! Schedules and their validation.
//!
//! A solution of RIGIDSCHEDULING / RESASCHEDULING is a set of starting times
//! `(σ_i)` such that at every instant the jobs running simultaneously use at
//! most `m − U(t)` processors. [`Schedule`] stores those starting times;
//! [`Schedule::validate`] checks feasibility against an instance, and
//! [`Schedule::assign_processors`] materializes a concrete (non-contiguous)
//! processor assignment as an additional witness of feasibility.

use crate::error::ScheduleError;
use crate::instance::ResaInstance;
use crate::job::JobId;
use crate::time::Time;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// The placement of one job: which time it starts at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// The job being placed.
    pub job: JobId,
    /// Its starting time `σ_j`.
    pub start: Time,
}

/// A complete schedule: one placement per job of the instance.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Schedule {
    placements: Vec<Placement>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Schedule {
            placements: Vec::new(),
        }
    }

    /// Build a schedule from explicit placements.
    pub fn from_placements(placements: Vec<Placement>) -> Self {
        Schedule { placements }
    }

    /// Record that `job` starts at `start`.
    pub fn place(&mut self, job: JobId, start: Time) {
        self.placements.push(Placement { job, start });
    }

    /// Remove and return the most recently recorded placement — the `O(1)`
    /// inverse of [`Schedule::place`], used by speculative searches that
    /// place/unplace jobs along a DFS path instead of cloning the schedule.
    pub fn pop(&mut self) -> Option<Placement> {
        self.placements.pop()
    }

    /// Remove the placement of `job`, returning its start time if it was
    /// placed. The relative order of the remaining placements is preserved,
    /// so a later re-`place` appends at the end — exactly the history a
    /// kill-and-resubmit drain produces.
    pub fn remove(&mut self, job: JobId) -> Option<Time> {
        let at = self.placements.iter().position(|p| p.job == job)?;
        Some(self.placements.remove(at).start)
    }

    /// All placements, in insertion order (which for list algorithms is the
    /// order in which jobs were started).
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Remove every placement matching `pred`, preserving the relative order
    /// of the survivors, and return the removed placements in their original
    /// insertion order. This is the retirement path of streaming replays and
    /// long-running services: completed jobs leave the live schedule so its
    /// size tracks *active* jobs, not every job ever seen.
    pub fn retire_where<F: FnMut(&Placement) -> bool>(&mut self, mut pred: F) -> Vec<Placement> {
        let mut retired = Vec::new();
        self.placements.retain(|p| {
            if pred(p) {
                retired.push(*p);
                false
            } else {
                true
            }
        });
        retired
    }

    /// Reserve room for at least `additional` more placements, so a loop
    /// staying under a known job count never reallocates mid-run.
    pub fn reserve(&mut self, additional: usize) {
        self.placements.reserve(additional);
    }

    /// Number of placed jobs.
    pub fn len(&self) -> usize {
        self.placements.len()
    }

    /// Whether no job has been placed.
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// The starting time of `job`, if placed.
    pub fn start_of(&self, job: JobId) -> Option<Time> {
        self.placements
            .iter()
            .find(|p| p.job == job)
            .map(|p| p.start)
    }

    /// Makespan of the schedule on `instance`: the largest completion time of
    /// the *jobs* (reservations do not count, matching the paper's
    /// definition `C_max = max_i (σ_i + p_i)`).
    ///
    /// Returns `Time::ZERO` for an empty schedule.
    pub fn makespan(&self, instance: &ResaInstance) -> Time {
        self.placements
            .iter()
            .filter_map(|p| instance.job(p.job).map(|j| p.start + j.duration))
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Validate the schedule against `instance`:
    /// every job placed exactly once, no unknown jobs, release dates
    /// respected, and at every instant the running jobs fit within the
    /// available capacity `m − U(t)`.
    pub fn validate(&self, instance: &ResaInstance) -> Result<(), ScheduleError> {
        // Exactly-once placement.
        let mut seen: HashMap<JobId, Time> = HashMap::with_capacity(self.placements.len());
        for p in &self.placements {
            if instance.job(p.job).is_none() {
                return Err(ScheduleError::UnknownJob { job: p.job.0 });
            }
            if seen.insert(p.job, p.start).is_some() {
                return Err(ScheduleError::DuplicateJob { job: p.job.0 });
            }
        }
        for j in instance.jobs() {
            match seen.get(&j.id) {
                None => return Err(ScheduleError::MissingJob { job: j.id.0 }),
                Some(&start) => {
                    if start < j.release {
                        return Err(ScheduleError::StartsBeforeRelease {
                            job: j.id.0,
                            start,
                            release: j.release,
                        });
                    }
                }
            }
        }
        // Capacity check by sweep over job start/end events.
        let profile = instance.profile();
        let mut events: BTreeMap<Time, i64> = BTreeMap::new();
        for p in &self.placements {
            let job = instance.job(p.job).expect("checked above");
            *events.entry(p.start).or_insert(0) += job.width as i64;
            *events.entry(p.start + job.duration).or_insert(0) -= job.width as i64;
        }
        // Also break at every availability change so the capacity comparison
        // is done on every relevant segment.
        for &(t, _) in profile.steps() {
            events.entry(t).or_insert(0);
        }
        let mut running: i64 = 0;
        let times: Vec<Time> = events.keys().copied().collect();
        for (idx, &t) in times.iter().enumerate() {
            running += events[&t];
            debug_assert!(running >= 0);
            // The usage level `running` holds on [t, next_t); compare against
            // the minimum capacity on that segment (capacity is constant there
            // because we inserted all profile breakpoints).
            if idx + 1 < times.len() || running > 0 {
                let available = profile.capacity_at(t);
                if running as u64 > available as u64 {
                    return Err(ScheduleError::CapacityExceeded {
                        at: t,
                        required: running as u32,
                        available,
                    });
                }
            }
        }
        Ok(())
    }

    /// Whether the schedule is feasible for `instance`.
    pub fn is_valid(&self, instance: &ResaInstance) -> bool {
        self.validate(instance).is_ok()
    }

    /// Total work of the placed jobs (processor·time).
    pub fn scheduled_work(&self, instance: &ResaInstance) -> u128 {
        self.placements
            .iter()
            .filter_map(|p| instance.job(p.job).map(|j| j.work()))
            .sum()
    }

    /// Utilization of the schedule: scheduled work divided by the processor
    /// area available (according to the instance profile) between time 0 and
    /// the makespan. Returns 0.0 for an empty schedule.
    pub fn utilization(&self, instance: &ResaInstance) -> f64 {
        let cmax = self.makespan(instance);
        if cmax == Time::ZERO {
            return 0.0;
        }
        let area = instance.profile().available_area(cmax);
        if area == 0 {
            return 0.0;
        }
        self.scheduled_work(instance) as f64 / area as f64
    }

    /// Materialize a concrete processor assignment: each job (and each
    /// reservation) receives an explicit set of processor indices, constant
    /// for its whole execution, with no two concurrent activities sharing a
    /// processor. Fails if the schedule itself is infeasible.
    ///
    /// The assignment is built greedily by start time (lowest-numbered free
    /// processors first); since the model allows non-contiguous allocations
    /// this always succeeds on a feasible schedule.
    pub fn assign_processors(
        &self,
        instance: &ResaInstance,
    ) -> Result<ProcessorAssignment, ScheduleError> {
        self.validate(instance)?;
        #[derive(Debug)]
        struct Activity {
            start: Time,
            end: Time,
            width: u32,
            kind: ActivityKind,
        }
        let mut acts: Vec<Activity> = Vec::new();
        for r in instance.reservations() {
            acts.push(Activity {
                start: r.start,
                end: r.end(),
                width: r.width,
                kind: ActivityKind::Reservation(r.id),
            });
        }
        for p in &self.placements {
            let j = instance.job(p.job).expect("validated");
            acts.push(Activity {
                start: p.start,
                end: p.start + j.duration,
                width: j.width,
                kind: ActivityKind::Job(p.job),
            });
        }
        // Sort by start time; ties: reservations first (they were there first).
        acts.sort_by_key(|a| (a.start, matches!(a.kind, ActivityKind::Job(_))));
        let m = instance.machines() as usize;
        let mut busy_until: Vec<Time> = vec![Time::ZERO; m];
        let mut assignment: HashMap<ActivityKind, Vec<u32>> = HashMap::new();
        for act in &acts {
            let mut procs = Vec::with_capacity(act.width as usize);
            for (idx, until) in busy_until.iter_mut().enumerate() {
                if *until <= act.start {
                    procs.push(idx as u32);
                    if procs.len() == act.width as usize {
                        break;
                    }
                }
            }
            if procs.len() < act.width as usize {
                // Cannot happen on a validated schedule, but surface it
                // defensively rather than panicking.
                return Err(ScheduleError::CapacityExceeded {
                    at: act.start,
                    required: act.width,
                    available: procs.len() as u32,
                });
            }
            for &p in &procs {
                busy_until[p as usize] = act.end;
            }
            assignment.insert(act.kind, procs);
        }
        Ok(ProcessorAssignment { assignment })
    }
}

/// Identifies either a job or a reservation in a processor assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivityKind {
    /// A scheduled job.
    Job(JobId),
    /// An advance reservation.
    Reservation(crate::reservation::ReservationId),
}

/// Concrete processor sets for every job and reservation of a schedule.
#[derive(Debug, Clone, Default)]
pub struct ProcessorAssignment {
    assignment: HashMap<ActivityKind, Vec<u32>>,
}

impl ProcessorAssignment {
    /// Processors assigned to `job`.
    pub fn of_job(&self, job: JobId) -> Option<&[u32]> {
        self.assignment
            .get(&ActivityKind::Job(job))
            .map(Vec::as_slice)
    }

    /// Processors assigned to `reservation`.
    pub fn of_reservation(&self, id: crate::reservation::ReservationId) -> Option<&[u32]> {
        self.assignment
            .get(&ActivityKind::Reservation(id))
            .map(Vec::as_slice)
    }

    /// Number of assigned activities (jobs + reservations).
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Whether the assignment is empty.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Check the assignment against the schedule and the instance: correct
    /// widths and no processor used by two concurrent activities.
    pub fn verify(
        &self,
        instance: &ResaInstance,
        schedule: &Schedule,
    ) -> Result<(), ScheduleError> {
        // widths
        for p in schedule.placements() {
            let j = instance
                .job(p.job)
                .ok_or(ScheduleError::UnknownJob { job: p.job.0 })?;
            let procs = self
                .of_job(p.job)
                .ok_or(ScheduleError::MissingJob { job: p.job.0 })?;
            if procs.len() != j.width as usize {
                return Err(ScheduleError::WrongAssignmentWidth {
                    job: p.job.0,
                    expected: j.width,
                    got: procs.len() as u32,
                });
            }
        }
        // pairwise overlap check (activities are few enough in tests; this is
        // a verification helper, not a hot path).
        #[derive(Clone)]
        struct Span {
            start: Time,
            end: Time,
            procs: Vec<u32>,
        }
        let mut spans: Vec<Span> = Vec::new();
        for r in instance.reservations() {
            if let Some(procs) = self.of_reservation(r.id) {
                spans.push(Span {
                    start: r.start,
                    end: r.end(),
                    procs: procs.to_vec(),
                });
            }
        }
        for p in schedule.placements() {
            let j = instance.job(p.job).expect("checked above");
            spans.push(Span {
                start: p.start,
                end: p.start + j.duration,
                procs: self.of_job(p.job).expect("checked above").to_vec(),
            });
        }
        for i in 0..spans.len() {
            for k in (i + 1)..spans.len() {
                let (a, b) = (&spans[i], &spans[k]);
                let overlap_start = a.start.max(b.start);
                let overlap_end = a.end.min(b.end);
                if overlap_start < overlap_end {
                    for pa in &a.procs {
                        if b.procs.contains(pa) {
                            return Err(ScheduleError::ProcessorConflict {
                                processor: *pa,
                                at: overlap_start,
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::ResaInstanceBuilder;

    fn simple_instance() -> ResaInstance {
        ResaInstanceBuilder::new(4)
            .job(2, 3u64) // J0
            .job(2, 3u64) // J1
            .job(4, 2u64) // J2
            .reservation(2, 2u64, 3u64) // R0: [3,5), 2 procs
            .build()
            .unwrap()
    }

    #[test]
    fn makespan_and_starts() {
        let inst = simple_instance();
        let mut s = Schedule::new();
        s.place(JobId(0), Time(0));
        s.place(JobId(1), Time(0));
        s.place(JobId(2), Time(5));
        assert_eq!(s.makespan(&inst), Time(7));
        assert_eq!(s.start_of(JobId(2)), Some(Time(5)));
        assert_eq!(s.start_of(JobId(9)), None);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn remove_unplaces_one_job_and_keeps_order() {
        let mut s = Schedule::new();
        s.place(JobId(0), Time(0));
        s.place(JobId(1), Time(2));
        s.place(JobId(2), Time(5));
        assert_eq!(s.remove(JobId(1)), Some(Time(2)));
        assert_eq!(s.remove(JobId(1)), None, "already removed");
        assert_eq!(s.remove(JobId(9)), None, "never placed");
        assert_eq!(
            s.placements(),
            &[
                Placement {
                    job: JobId(0),
                    start: Time(0)
                },
                Placement {
                    job: JobId(2),
                    start: Time(5)
                },
            ]
        );
        s.place(JobId(1), Time(7)); // re-placement appends
        assert_eq!(s.placements().last().unwrap().job, JobId(1));
    }

    #[test]
    fn empty_schedule() {
        let inst = simple_instance();
        let s = Schedule::new();
        assert_eq!(s.makespan(&inst), Time::ZERO);
        assert!(s.is_empty());
        assert_eq!(s.utilization(&inst), 0.0);
        // Empty schedule misses jobs, so it is invalid.
        assert!(matches!(
            s.validate(&inst),
            Err(ScheduleError::MissingJob { .. })
        ));
    }

    #[test]
    fn valid_schedule_accepted() {
        let inst = simple_instance();
        let mut s = Schedule::new();
        s.place(JobId(0), Time(0));
        s.place(JobId(1), Time(0));
        s.place(JobId(2), Time(5));
        assert!(s.is_valid(&inst));
    }

    #[test]
    fn capacity_violation_with_reservation() {
        let inst = simple_instance();
        // J2 (width 4) overlaps the reservation window [3,5): only 2 procs free.
        let mut s = Schedule::new();
        s.place(JobId(0), Time(0));
        s.place(JobId(1), Time(0));
        s.place(JobId(2), Time(3));
        assert!(matches!(
            s.validate(&inst),
            Err(ScheduleError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn capacity_violation_between_jobs() {
        let inst = simple_instance();
        // Three activities of width 2+2+4 at time 0 exceed 4 machines.
        let mut s = Schedule::new();
        s.place(JobId(0), Time(0));
        s.place(JobId(1), Time(0));
        s.place(JobId(2), Time(0));
        assert!(matches!(
            s.validate(&inst),
            Err(ScheduleError::CapacityExceeded { at, .. }) if at == Time(0)
        ));
    }

    #[test]
    fn duplicate_and_unknown_jobs_rejected() {
        let inst = simple_instance();
        let mut s = Schedule::new();
        s.place(JobId(0), Time(0));
        s.place(JobId(0), Time(5));
        assert!(matches!(
            s.validate(&inst),
            Err(ScheduleError::DuplicateJob { job: 0 })
        ));
        let mut s = Schedule::new();
        s.place(JobId(42), Time(0));
        assert!(matches!(
            s.validate(&inst),
            Err(ScheduleError::UnknownJob { job: 42 })
        ));
    }

    #[test]
    fn release_dates_respected() {
        let inst = ResaInstanceBuilder::new(4)
            .job_released_at(2, 2u64, 5u64)
            .build()
            .unwrap();
        let mut s = Schedule::new();
        s.place(JobId(0), Time(3));
        assert!(matches!(
            s.validate(&inst),
            Err(ScheduleError::StartsBeforeRelease { .. })
        ));
        let mut s = Schedule::new();
        s.place(JobId(0), Time(5));
        assert!(s.is_valid(&inst));
    }

    #[test]
    fn metrics() {
        let inst = simple_instance();
        let mut s = Schedule::new();
        s.place(JobId(0), Time(0));
        s.place(JobId(1), Time(0));
        s.place(JobId(2), Time(5));
        // Work = 2*3 + 2*3 + 4*2 = 20.
        assert_eq!(s.scheduled_work(&inst), 20);
        // Available area up to C_max=7: 4*7 − reservation area 2*2 = 24.
        assert!((s.utilization(&inst) - 20.0 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn processor_assignment_valid_schedule() {
        let inst = simple_instance();
        let mut s = Schedule::new();
        s.place(JobId(0), Time(0));
        s.place(JobId(1), Time(0));
        s.place(JobId(2), Time(5));
        let asg = s.assign_processors(&inst).unwrap();
        assert_eq!(asg.of_job(JobId(0)).unwrap().len(), 2);
        assert_eq!(asg.of_job(JobId(2)).unwrap().len(), 4);
        assert_eq!(asg.of_reservation(0usize.into()).unwrap().len(), 2);
        asg.verify(&inst, &s).unwrap();
        assert_eq!(asg.len(), 4);
        assert!(!asg.is_empty());
    }

    #[test]
    fn processor_assignment_rejects_invalid() {
        let inst = simple_instance();
        let mut s = Schedule::new();
        s.place(JobId(0), Time(0));
        s.place(JobId(1), Time(0));
        s.place(JobId(2), Time(0));
        assert!(s.assign_processors(&inst).is_err());
    }

    #[test]
    fn retire_where_splits_preserving_order() {
        let mut s = Schedule::new();
        s.place(JobId(0), Time(0));
        s.place(JobId(2), Time(1));
        s.place(JobId(1), Time(2));
        s.place(JobId(3), Time(3));
        let retired = s.retire_where(|p| p.job.0 < 2);
        assert_eq!(
            retired.iter().map(|p| p.job.0).collect::<Vec<_>>(),
            vec![0, 1],
            "retired placements keep insertion order"
        );
        assert_eq!(
            s.placements().iter().map(|p| p.job.0).collect::<Vec<_>>(),
            vec![2, 3],
            "survivors keep insertion order"
        );
        assert!(s.retire_where(|_| false).is_empty());
    }

    #[test]
    fn from_placements_roundtrip() {
        let ps = vec![
            Placement {
                job: JobId(0),
                start: Time(1),
            },
            Placement {
                job: JobId(1),
                start: Time(2),
            },
        ];
        let s = Schedule::from_placements(ps.clone());
        assert_eq!(s.placements(), ps.as_slice());
    }
}
