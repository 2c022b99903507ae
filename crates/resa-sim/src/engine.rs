//! The whole-instance driver of the event loop.
//!
//! [`Simulator`] replays an instance with release dates against an on-line
//! [`crate::policy::OnlinePolicy`]: the policy only ever sees jobs that have
//! already been released, which is exactly the informational restriction the
//! paper's §2.1 discusses when contrasting off-line analysis with production
//! schedulers.
//!
//! The loop itself is [`crate::stream::run_stream`]; this module feeds it
//! the instance's jobs in arrival order and collects the placements into a
//! [`Schedule`].

use crate::metrics::SimMetrics;
use crate::policy::OnlinePolicy;
use crate::stream::{run_stream, InstanceSource, RecordSink};
use crate::trace::JobRecord;
use resa_core::prelude::*;

/// Result of one simulated run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The schedule actually executed.
    pub schedule: Schedule,
    /// Aggregate metrics of the run.
    pub metrics: SimMetrics,
    /// Number of decision points at which the policy was consulted.
    pub decisions: u64,
}

/// The simulation engine.
#[derive(Debug, Clone)]
pub struct Simulator {
    instance: ResaInstance,
}

/// Collects placements in decision order; completion records are dropped.
struct ScheduleSink(Schedule);

impl RecordSink for ScheduleSink {
    fn record(&mut self, _rec: JobRecord) {}

    fn on_start(&mut self, job: &Job, start: Time) {
        self.0.place(job.id, start);
    }
}

impl Simulator {
    /// Create a simulator for `instance` (jobs may carry release dates).
    pub fn new(instance: ResaInstance) -> Self {
        Simulator { instance }
    }

    /// The instance being simulated.
    pub fn instance(&self) -> &ResaInstance {
        &self.instance
    }

    /// Run the simulation to completion under `policy`, on the indexed
    /// availability timeline.
    pub fn run<P: OnlinePolicy>(&self, policy: &P) -> SimResult {
        self.run_on(self.instance.timeline(), policy)
    }

    /// [`Simulator::run`] on a substrate of the caller's choice, which must
    /// be freshly built from the instance's reservations.
    pub fn run_on<C: CapacityQuery, P: OnlinePolicy>(
        &self,
        mut substrate: C,
        policy: &P,
    ) -> SimResult {
        let mut sink = ScheduleSink(Schedule::new());
        let outcome = run_stream(
            &mut substrate,
            &self.instance.profile(),
            policy,
            &mut InstanceSource::new(&self.instance),
            &mut sink,
        );
        debug_assert_eq!(sink.0.len(), self.instance.n_jobs(), "every job must run");
        SimResult {
            schedule: sink.0,
            metrics: outcome.metrics,
            decisions: outcome.decisions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{EasyPolicy, FcfsPolicy, GreedyPolicy};

    fn online_instance() -> ResaInstance {
        ResaInstanceBuilder::new(4)
            .job(3, 4u64) // J0 at t=0
            .job_released_at(4, 2u64, 1u64) // J1 at t=1 (blocked behind J0)
            .job_released_at(1, 3u64, 1u64) // J2 at t=1 (can backfill)
            .job_released_at(2, 2u64, 6u64) // J3 at t=6
            .build()
            .unwrap()
    }

    #[test]
    fn greedy_simulation_is_feasible_and_complete() {
        let sim = Simulator::new(online_instance());
        let res = sim.run(&GreedyPolicy);
        assert!(res.schedule.is_valid(sim.instance()));
        assert_eq!(res.schedule.len(), 4);
        assert!(res.decisions >= 3);
        assert_eq!(res.metrics.jobs, 4);
    }

    #[test]
    fn fcfs_blocks_behind_wide_job() {
        let sim = Simulator::new(online_instance());
        let res = sim.run(&FcfsPolicy);
        assert!(res.schedule.is_valid(sim.instance()));
        // J2 arrived after J1 and FCFS will not let it pass: it waits for J1.
        let s1 = res.schedule.start_of(JobId(1)).unwrap();
        let s2 = res.schedule.start_of(JobId(2)).unwrap();
        assert!(s2 >= s1);
        // Greedy lets J2 run during J0.
        let greedy = sim.run(&GreedyPolicy);
        assert_eq!(greedy.schedule.start_of(JobId(2)), Some(Time(1)));
    }

    #[test]
    fn easy_between_fcfs_and_greedy_on_makespan() {
        let sim = Simulator::new(online_instance());
        let fcfs = sim.run(&FcfsPolicy).metrics.makespan;
        let easy = sim.run(&EasyPolicy).metrics.makespan;
        let greedy = sim.run(&GreedyPolicy).metrics.makespan;
        assert!(easy <= fcfs);
        assert!(greedy <= fcfs);
    }

    #[test]
    fn reservations_are_respected_online() {
        let inst = ResaInstanceBuilder::new(2)
            .job(2, 3u64)
            .job_released_at(1, 2u64, 1u64)
            .reservation(2, 4u64, 3u64)
            .build()
            .unwrap();
        let sim = Simulator::new(inst);
        for policy_result in [
            sim.run(&FcfsPolicy),
            sim.run(&EasyPolicy),
            sim.run(&GreedyPolicy),
        ] {
            assert!(policy_result.schedule.is_valid(sim.instance()));
            assert_eq!(policy_result.schedule.len(), 2);
        }
    }

    #[test]
    fn empty_instance() {
        let inst = ResaInstanceBuilder::new(2).build().unwrap();
        let res = Simulator::new(inst).run(&GreedyPolicy);
        assert_eq!(res.schedule.len(), 0);
        assert_eq!(res.decisions, 0);
    }
}
