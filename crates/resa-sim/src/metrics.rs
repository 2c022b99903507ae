//! Per-run simulation metrics.
//!
//! The paper's criterion is the makespan; production batch schedulers also
//! report waiting time, flow time, bounded slowdown and utilization, so the
//! average-case experiments (E7/E9 in DESIGN.md) collect those too.

use resa_core::prelude::*;
use serde::{Deserialize, Serialize};

/// Aggregate metrics of one simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimMetrics {
    /// Largest completion time of the jobs.
    pub makespan: Time,
    /// Mean waiting time (start − release).
    pub mean_wait: f64,
    /// Largest waiting time.
    pub max_wait: u64,
    /// Mean flow time (completion − release).
    pub mean_flow: f64,
    /// Mean bounded slowdown: `max(1, flow / max(duration, bound))` with the
    /// customary 10-tick bound shielding tiny jobs.
    pub mean_bounded_slowdown: f64,
    /// Scheduled work divided by the processor area available up to the
    /// makespan.
    pub utilization: f64,
    /// Number of jobs in the run.
    pub jobs: usize,
}

/// The classical bounded-slowdown threshold.
pub const SLOWDOWN_BOUND: u64 = 10;

impl SimMetrics {
    /// Compute the metrics of a finished schedule on its instance.
    pub fn from_schedule(instance: &ResaInstance, schedule: &Schedule) -> SimMetrics {
        let n = schedule.len();
        if n == 0 {
            return SimMetrics {
                makespan: Time::ZERO,
                mean_wait: 0.0,
                max_wait: 0,
                mean_flow: 0.0,
                mean_bounded_slowdown: 0.0,
                utilization: 0.0,
                jobs: 0,
            };
        }
        let mut total_wait = 0u128;
        let mut max_wait = 0u64;
        let mut total_flow = 0u128;
        let mut total_bsld = 0.0f64;
        for p in schedule.placements() {
            let job = instance
                .job(p.job)
                .expect("schedules only reference instance jobs");
            let wait = p.start.since(job.release).ticks();
            let flow = wait + job.duration.ticks();
            total_wait += wait as u128;
            max_wait = max_wait.max(wait);
            total_flow += flow as u128;
            let denom = job.duration.ticks().max(SLOWDOWN_BOUND) as f64;
            total_bsld += (flow as f64 / denom).max(1.0);
        }
        SimMetrics {
            makespan: schedule.makespan(instance),
            mean_wait: total_wait as f64 / n as f64,
            max_wait,
            mean_flow: total_flow as f64 / n as f64,
            mean_bounded_slowdown: total_bsld / n as f64,
            utilization: schedule.utilization(instance),
            jobs: n,
        }
    }
}

/// Incremental accumulator producing the exact [`SimMetrics`] of
/// [`SimMetrics::from_schedule`] without holding the schedule.
///
/// [`SimMetrics::from_schedule`] folds placements in insertion order, which
/// for engine-produced schedules is the order jobs were started. Feeding
/// [`MetricsAccumulator::record`] one `(job, start)` pair per start, in that
/// same order, therefore reproduces its integer totals exactly and its `f64`
/// bounded-slowdown sum *bit for bit* (floating-point addition is not
/// associative, so the matching order is what makes streamed and
/// materialized reports byte-identical). Proven by the loop-vs-oracle
/// proptest in `lib.rs`.
///
/// Equality is bit-exact (the `f64` sum compares by its IEEE bits), which
/// makes it the `Eq` a persisted [`crate::service::ServiceState`] needs.
/// The fields are visible to the journal codec, which stores them as
/// little-endian integers.
#[derive(Debug, Clone, Default)]
pub struct MetricsAccumulator {
    pub(crate) jobs: usize,
    pub(crate) total_wait: u128,
    pub(crate) max_wait: u64,
    pub(crate) total_flow: u128,
    pub(crate) total_bsld: f64,
    pub(crate) work: u128,
    pub(crate) makespan: Time,
}

impl PartialEq for MetricsAccumulator {
    fn eq(&self, other: &Self) -> bool {
        let bits = |a: &Self| {
            let (sums, bsld) = ((a.total_wait, a.total_flow, a.work), a.total_bsld.to_bits());
            (a.jobs, a.max_wait, a.makespan, sums, bsld)
        };
        bits(self) == bits(other)
    }
}

impl Eq for MetricsAccumulator {}

impl MetricsAccumulator {
    /// A fresh accumulator (all totals zero).
    pub fn new() -> Self {
        MetricsAccumulator::default()
    }

    /// Fold one job start, in the order starts were decided.
    pub fn record(&mut self, job: &Job, start: Time) {
        let wait = start.since(job.release).ticks();
        let flow = wait + job.duration.ticks();
        self.total_wait += wait as u128;
        self.max_wait = self.max_wait.max(wait);
        self.total_flow += flow as u128;
        let denom = job.duration.ticks().max(SLOWDOWN_BOUND) as f64;
        self.total_bsld += (flow as f64 / denom).max(1.0);
        self.work += job.work();
        self.makespan = self.makespan.max(start + job.duration);
        self.jobs += 1;
    }

    /// Jobs folded so far.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Largest completion time folded so far.
    pub fn makespan(&self) -> Time {
        self.makespan
    }

    /// Finalize against the availability profile the run was scheduled on
    /// (reservations only — job usage is not part of it, matching
    /// [`resa_core::prelude::Schedule::utilization`]).
    pub fn finish(&self, profile: &ResourceProfile) -> SimMetrics {
        if self.jobs == 0 {
            return SimMetrics {
                makespan: Time::ZERO,
                mean_wait: 0.0,
                max_wait: 0,
                mean_flow: 0.0,
                mean_bounded_slowdown: 0.0,
                utilization: 0.0,
                jobs: 0,
            };
        }
        let utilization = if self.makespan == Time::ZERO {
            0.0
        } else {
            let area = profile.available_area(self.makespan);
            if area == 0 {
                0.0
            } else {
                self.work as f64 / area as f64
            }
        };
        let n = self.jobs as f64;
        SimMetrics {
            makespan: self.makespan,
            mean_wait: self.total_wait as f64 / n,
            max_wait: self.max_wait,
            mean_flow: self.total_flow as f64 / n,
            mean_bounded_slowdown: self.total_bsld / n,
            utilization,
            jobs: self.jobs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_matches_from_schedule_in_placement_order() {
        let inst = ResaInstanceBuilder::new(2)
            .job(1, 2u64)
            .job(1, 20u64)
            .job_released_at(2, 7u64, 3u64)
            .build()
            .unwrap();
        let mut s = Schedule::new();
        s.place(JobId(1), Time(0));
        s.place(JobId(0), Time(20));
        s.place(JobId(2), Time(22));
        let reference = SimMetrics::from_schedule(&inst, &s);
        let mut acc = MetricsAccumulator::new();
        for p in s.placements() {
            acc.record(inst.job(p.job).unwrap(), p.start);
        }
        let streamed = acc.finish(&inst.profile());
        assert_eq!(
            streamed, reference,
            "bit-exact equality, f64 fields included"
        );
    }

    #[test]
    fn empty_accumulator_is_the_zero_metrics() {
        let inst = ResaInstanceBuilder::new(1).build().unwrap();
        let zero = SimMetrics::from_schedule(&inst, &Schedule::new());
        assert_eq!(MetricsAccumulator::new().finish(&inst.profile()), zero);
    }

    #[test]
    fn metrics_of_simple_schedule() {
        let inst = ResaInstanceBuilder::new(2)
            .job(1, 10u64)
            .job_released_at(1, 10u64, 5u64)
            .build()
            .unwrap();
        let mut s = Schedule::new();
        s.place(JobId(0), Time(0));
        s.place(JobId(1), Time(5));
        let m = SimMetrics::from_schedule(&inst, &s);
        assert_eq!(m.makespan, Time(15));
        assert_eq!(m.jobs, 2);
        assert_eq!(m.mean_wait, 0.0);
        assert_eq!(m.max_wait, 0);
        assert_eq!(m.mean_flow, 10.0);
        assert_eq!(m.mean_bounded_slowdown, 1.0);
        // Work 20, area 2·15 = 30.
        assert!((m.utilization - 20.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn waiting_and_slowdown() {
        let inst = ResaInstanceBuilder::new(1)
            .job(1, 2u64)
            .job(1, 20u64)
            .build()
            .unwrap();
        let mut s = Schedule::new();
        s.place(JobId(1), Time(0));
        s.place(JobId(0), Time(20));
        let m = SimMetrics::from_schedule(&inst, &s);
        assert_eq!(m.max_wait, 20);
        assert_eq!(m.mean_wait, 10.0);
        // Flow of J0 = 22, duration 2 → bounded by 10 → 2.2; J1 → 1.0.
        assert!((m.mean_bounded_slowdown - (2.2 + 1.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_schedule() {
        let inst = ResaInstanceBuilder::new(1).build().unwrap();
        let m = SimMetrics::from_schedule(&inst, &Schedule::new());
        assert_eq!(m.jobs, 0);
        assert_eq!(m.makespan, Time::ZERO);
        assert_eq!(m.utilization, 0.0);
    }
}
