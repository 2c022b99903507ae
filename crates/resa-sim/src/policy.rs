//! On-line scheduling policies.
//!
//! At every decision point the simulation engine hands the policy the current
//! time, the waiting queue (positions of released, not yet started jobs, in
//! arrival order) and the availability substrate (reservations *and* running
//! jobs already subtracted). The policy starts what its rule admits itself:
//! each start is reserved on the substrate in place, unlinked from the queue
//! and reported back to the engine, which does the rest of the bookkeeping.
//!
//! The three policies are the rules of §2.2, each a call to its decision in
//! [`resa_core::decision`] — the same code the off-line schedulers of
//! `resa-algos` run:
//! * [`FcfsPolicy`] — start queued jobs strictly in order, stop at the first
//!   that does not fit;
//! * [`EasyPolicy`] — like FCFS, but allow later jobs to start now when doing
//!   so does not delay the earliest possible start of the queue head;
//! * [`GreedyPolicy`] — start *every* waiting job that fits now, i.e. the
//!   on-line incarnation of LSRC (the most aggressive back-filling).
//!
//! A decision asks the substrate scalar questions only (capacity at `now`,
//! a range minimum per candidate narrow enough to fit, one earliest fit for
//! EASY's blocked head) and allocates nothing.

use resa_core::decision;
use resa_core::prelude::*;

/// The scheduling decision interface used by the simulation engine.
///
/// `decide` is generic over the availability substrate: the engine hands the
/// policy the indexed [`AvailabilityTimeline`], while tests may pass the
/// naive [`ResourceProfile`] — both answer identically through
/// [`CapacityQuery`].
pub trait OnlinePolicy {
    /// Human-readable name for reports.
    fn name(&self) -> String;

    /// Start, at `now`, the waiting jobs the rule admits. `waiting` queues
    /// positions into `jobs` in arrival order and holds released jobs only;
    /// `substrate` already excludes running jobs and reservations. Each
    /// start is reserved on `substrate`, unlinked from `waiting` and
    /// reported to `on_start` with its position, in the order of starting.
    fn decide<C: CapacityQuery>(
        &self,
        now: Time,
        jobs: &[Job],
        waiting: &mut WaitList,
        substrate: &mut C,
        on_start: impl FnMut(usize),
    );
}

/// Strict FCFS: start the head of the queue while it fits, never look past
/// the first job that does not fit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FcfsPolicy;

impl OnlinePolicy for FcfsPolicy {
    fn name(&self) -> String {
        "FCFS".to_string()
    }

    fn decide<C: CapacityQuery>(
        &self,
        now: Time,
        jobs: &[Job],
        waiting: &mut WaitList,
        substrate: &mut C,
        on_start: impl FnMut(usize),
    ) {
        decision::fcfs(substrate, now, jobs, waiting, on_start);
    }
}

/// Greedy (LSRC-like): start every waiting job that fits now, scanning the
/// queue in arrival order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreedyPolicy;

impl OnlinePolicy for GreedyPolicy {
    fn name(&self) -> String {
        "greedy-LSRC".to_string()
    }

    fn decide<C: CapacityQuery>(
        &self,
        now: Time,
        jobs: &[Job],
        waiting: &mut WaitList,
        substrate: &mut C,
        on_start: impl FnMut(usize),
    ) {
        decision::greedy(substrate, now, jobs, waiting, on_start);
    }
}

/// EASY backfilling: the queue head is started if possible; otherwise later
/// jobs may start provided they do not delay the head's earliest possible
/// start (its shadow). Admission is a scalar check against the shadow
/// window, so no tentative reservation is ever taken.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EasyPolicy;

impl OnlinePolicy for EasyPolicy {
    fn name(&self) -> String {
        "EASY".to_string()
    }

    fn decide<C: CapacityQuery>(
        &self,
        now: Time,
        jobs: &[Job],
        waiting: &mut WaitList,
        substrate: &mut C,
        on_start: impl FnMut(usize),
    ) {
        decision::easy(substrate, now, jobs, waiting, on_start);
    }
}

/// Which of the three policies to run, as a value: what `--policy` parses
/// into, what the journal header records, and what the reference oracle is
/// told to replay. Implements `OnlinePolicy` by forwarding — the one place
/// a policy name becomes a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReferencePolicy {
    /// Strict FCFS.
    Fcfs,
    /// EASY backfilling.
    Easy,
    /// Greedy LSRC-like.
    Greedy,
}

impl ReferencePolicy {
    /// Display name, matching the policy structs' names.
    pub fn name(self) -> &'static str {
        match self {
            ReferencePolicy::Fcfs => "FCFS",
            ReferencePolicy::Easy => "EASY",
            ReferencePolicy::Greedy => "greedy-LSRC",
        }
    }
}

impl OnlinePolicy for ReferencePolicy {
    fn name(&self) -> String {
        ReferencePolicy::name(*self).to_string()
    }

    fn decide<C: CapacityQuery>(
        &self,
        now: Time,
        jobs: &[Job],
        waiting: &mut WaitList,
        substrate: &mut C,
        on_start: impl FnMut(usize),
    ) {
        match self {
            ReferencePolicy::Fcfs => FcfsPolicy.decide(now, jobs, waiting, substrate, on_start),
            ReferencePolicy::Easy => EasyPolicy.decide(now, jobs, waiting, substrate, on_start),
            ReferencePolicy::Greedy => GreedyPolicy.decide(now, jobs, waiting, substrate, on_start),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(m: u32) -> ResourceProfile {
        ResourceProfile::constant(m)
    }

    fn queue() -> Vec<Job> {
        vec![
            Job::new(0usize, 3, 4u64), // fits
            Job::new(1usize, 4, 2u64), // blocked behind J0
            Job::new(2usize, 1, 4u64), // harmless backfill
            Job::new(3usize, 1, 6u64), // would delay J1
        ]
    }

    /// Drive a policy once over an ad-hoc queue (what the engine does each
    /// decision point). Checks the contract on the way: the substrate after
    /// the decision is the substrate before minus exactly the named starts,
    /// and exactly those left the queue.
    fn decide<P: OnlinePolicy>(
        policy: &P,
        now: Time,
        jobs: &[Job],
        p: &ResourceProfile,
    ) -> Vec<JobId> {
        let mut order = WaitList::with_capacity(jobs.len());
        for i in 0..jobs.len() {
            order.push_back(i);
        }
        let mut substrate = p.clone();
        let mut started = Vec::new();
        policy.decide(now, jobs, &mut order, &mut substrate, |i| started.push(i));
        let mut expected = p.clone();
        for &i in &started {
            expected
                .reserve(now, jobs[i].duration, jobs[i].width)
                .expect("a start fits the substrate before the decision");
            assert!(!order.contains(i), "a started job left the queue");
        }
        assert_eq!(substrate, expected, "the substrate minus the starts");
        assert_eq!(order.len() + started.len(), jobs.len());
        started.into_iter().map(|i| jobs[i].id).collect()
    }

    #[test]
    fn fcfs_stops_at_first_blocker() {
        let d = decide(&FcfsPolicy, Time::ZERO, &queue(), &profile(4));
        assert_eq!(d, vec![JobId(0)]);
    }

    #[test]
    fn greedy_starts_everything_that_fits() {
        let d = decide(&GreedyPolicy, Time::ZERO, &queue(), &profile(4));
        assert_eq!(d, vec![JobId(0), JobId(2)]);
    }

    #[test]
    fn easy_backfills_without_delaying_head() {
        let d = decide(&EasyPolicy, Time::ZERO, &queue(), &profile(4));
        // J0 starts, J1 blocked (shadow 4), J2 backfills (completes at 4),
        // J3 would complete at 6 > 4 and is refused.
        assert_eq!(d, vec![JobId(0), JobId(2)]);
    }

    #[test]
    fn easy_equals_fcfs_when_nothing_backfills() {
        let q = vec![Job::new(0usize, 4, 3u64), Job::new(1usize, 4, 3u64)];
        let e = decide(&EasyPolicy, Time::ZERO, &q, &profile(4));
        let f = decide(&FcfsPolicy, Time::ZERO, &q, &profile(4));
        assert_eq!(e, f);
        assert_eq!(e, vec![JobId(0)]);
    }

    #[test]
    fn empty_queue() {
        assert!(decide(&FcfsPolicy, Time::ZERO, &[], &profile(4)).is_empty());
        assert!(decide(&EasyPolicy, Time::ZERO, &[], &profile(4)).is_empty());
        assert!(decide(&GreedyPolicy, Time::ZERO, &[], &profile(4)).is_empty());
    }

    #[test]
    fn respects_reduced_profile() {
        // Only 2 processors free: nothing of width 3+ can start.
        let mut p = profile(4);
        p.reserve(Time::ZERO, Dur(10), 2).unwrap();
        let d = decide(&GreedyPolicy, Time::ZERO, &queue(), &p);
        assert_eq!(d, vec![JobId(2), JobId(3)]);
    }

    #[test]
    fn decisions_reserve_exactly_their_starts() {
        // `decide` checks the contract for every policy, here with starts
        // at a later instant over a reservation.
        let mut p = profile(6);
        p.reserve(Time(3), Dur(4), 2).unwrap();
        let q = vec![
            Job::new(0usize, 2, 5u64),
            Job::new(1usize, 6, 1u64),
            Job::new(2usize, 1, 2u64),
            Job::new(3usize, 1, 9u64),
        ];
        assert_eq!(decide(&FcfsPolicy, Time(2), &q, &p), vec![JobId(0)]);
        assert_eq!(
            decide(&EasyPolicy, Time(2), &q, &p),
            vec![JobId(0), JobId(2)]
        );
        assert_eq!(
            decide(&GreedyPolicy, Time(2), &q, &p),
            vec![JobId(0), JobId(2), JobId(3)]
        );
    }

    #[test]
    fn full_cluster_starts_nothing_and_leaves_the_substrate_alone() {
        // Running jobs hold all 4 processors until 3 and 5: the blocked
        // head's shadow (t = 5) lies past every running job, and no
        // candidate, however narrow, fits now.
        let mut p = profile(4);
        p.reserve(Time::ZERO, Dur(3), 2).unwrap();
        p.reserve(Time::ZERO, Dur(5), 2).unwrap();
        let q = vec![
            Job::new(0usize, 4, 2u64),
            Job::new(1usize, 1, 1u64),
            Job::new(2usize, 1, 9u64),
        ];
        for d in [
            decide(&FcfsPolicy, Time(1), &q, &p),
            decide(&EasyPolicy, Time(1), &q, &p),
            decide(&GreedyPolicy, Time(1), &q, &p),
        ] {
            assert!(d.is_empty());
        }
        assert_eq!(p.earliest_fit(4, Dur(2), Time(1)), Some(Time(5)));
        // Once the first running job ends, J1 backfills before the shadow
        // and J2, which would overlap it, does not.
        assert_eq!(decide(&EasyPolicy, Time(3), &q, &p), vec![JobId(1)]);
    }

    #[test]
    fn easy_shadow_straddles_the_decision_window() {
        // Head (4 wide, long) fits only past a far reservation; its shadow
        // lies beyond the longest waiting run, so the no-delay checks read
        // the substrate past every candidate's end.
        let mut p = profile(4);
        p.reserve(Time(0), Dur(20), 2).unwrap(); // cap 2 on [0, 20)
        let q = vec![
            Job::new(0usize, 4, 5u64), // head: first fits at t = 20
            Job::new(1usize, 2, 3u64), // finishes at 3 < 20: harmless
            Job::new(2usize, 1, 2u64), // would need spare capacity at 20
        ];
        let d = decide(&EasyPolicy, Time::ZERO, &q, &p);
        // J1 fits now and ends before the shadow at t = 20. It takes both
        // free processors, so J2 no longer fits now and is refused.
        assert_eq!(d, vec![JobId(1)]);
    }

    #[test]
    fn names() {
        assert_eq!(FcfsPolicy.name(), "FCFS");
        assert_eq!(EasyPolicy.name(), "EASY");
        assert_eq!(GreedyPolicy.name(), "greedy-LSRC");
    }
}
