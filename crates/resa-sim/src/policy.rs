//! On-line scheduling policies.
//!
//! At every decision point the simulation engine hands the policy the current
//! time, a borrowed view of the waiting queue (jobs released but not yet
//! started, in arrival order) and the current availability profile
//! (reservations *and* running jobs already subtracted). The policy writes
//! the subset of waiting jobs to start right now into a caller-owned buffer;
//! the engine performs the starts and keeps simulating.
//!
//! The three policies mirror §2.2 of the paper:
//! * [`FcfsPolicy`] — start queued jobs strictly in order, stop at the first
//!   that does not fit;
//! * [`EasyPolicy`] — like FCFS, but allow later jobs to start now when doing
//!   so does not delay the earliest possible start of the queue head;
//! * [`GreedyPolicy`] — start *every* waiting job that fits now, i.e. the
//!   on-line incarnation of LSRC (the most aggressive back-filling).
//!
//! None of them touches the shared substrate: a decision point materializes
//! the free-capacity step function over its horizon once
//! ([`resa_core::capacity::CapacityQuery::capacity_profile_in`] into the
//! reusable [`DecisionScratch`]) and every fit check / tentative start is a
//! local window operation — no per-decision substrate clone, no
//! reserve/rollback probing, no steady-state allocation.

use resa_core::prelude::*;
use resa_core::waitlist::WaitList;

/// Borrowed, arrival-ordered view of the waiting queue.
///
/// `jobs` is the instance's job slice; `order` holds the waiting slice
/// indices in arrival order. The engine keeps `order` incrementally, so
/// building a view is free.
#[derive(Debug, Clone, Copy)]
pub struct WaitingJobs<'a> {
    jobs: &'a [Job],
    order: &'a WaitList,
}

impl<'a> WaitingJobs<'a> {
    /// View `order` (indices into `jobs`) as a queue of jobs.
    pub fn new(jobs: &'a [Job], order: &'a WaitList) -> Self {
        WaitingJobs { jobs, order }
    }

    /// Number of waiting jobs.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether no job is waiting.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Iterate the waiting jobs in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &'a Job> + '_ {
        self.order.iter().map(|i| &self.jobs[i])
    }

    /// Longest duration among the waiting jobs (`Dur::ZERO` when empty):
    /// every start decided now finishes within `now + max_duration()`, which
    /// bounds the decision window the policies materialize.
    pub fn max_duration(&self) -> Dur {
        self.iter().map(|j| j.duration).max().unwrap_or(Dur::ZERO)
    }
}

/// Reusable per-decision buffers, owned by the engine and threaded through
/// [`OnlinePolicy::decide`] so the steady state allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct DecisionScratch {
    /// The materialized decision window.
    pub window: WindowProfile,
}

/// The scheduling decision interface used by the simulation engine.
///
/// `decide` is generic over the availability substrate: the engine hands the
/// policy the indexed [`AvailabilityTimeline`], while tests may pass the
/// naive [`ResourceProfile`] — both answer identically through
/// [`CapacityQuery`]. The substrate is only ever *read*; tentative state
/// lives in `scratch`.
pub trait OnlinePolicy {
    /// Human-readable name for reports.
    fn name(&self) -> String;

    /// Write the ids of the waiting jobs to start at `now` into `out`
    /// (cleared first), in the order in which they should be started.
    /// `queue` is in arrival order and contains only released jobs;
    /// `profile` already excludes running jobs and reservations.
    fn decide<C: CapacityQuery>(
        &self,
        now: Time,
        queue: &WaitingJobs<'_>,
        profile: &C,
        scratch: &mut DecisionScratch,
        out: &mut Vec<JobId>,
    );
}

/// Minimum free capacity over `[s, s + d)` of the *current* decision state:
/// the window view inside its horizon combined with the untouched substrate
/// past it (local subtractions never reach beyond the horizon).
fn combined_min<C: CapacityQuery>(profile: &C, window: &WindowProfile, s: Time, d: Dur) -> u32 {
    debug_assert!(s >= window.start());
    let mut min = window.min_in(s, d).unwrap_or(u32::MAX);
    let end = s.saturating_add(d);
    let tail_start = s.max(window.end());
    if end > tail_start {
        min = min.min(profile.min_capacity_in(tail_start, end.since(tail_start)));
    }
    min
}

/// Earliest `t ≥ from` at which `width` processors stay free for `dur` under
/// the combined decision state. The raw substrate's `earliest_fit` provides
/// a monotone lower bound (the window only subtracts); each round either
/// validates it against the window or advances past one exhausted window
/// region, so the loop runs at most once per window step.
fn combined_earliest_fit<C: CapacityQuery>(
    profile: &C,
    window: &WindowProfile,
    width: u32,
    dur: Dur,
    from: Time,
) -> Option<Time> {
    let mut t = from;
    loop {
        t = profile.earliest_fit(width, dur, t)?;
        if t >= window.end() {
            return Some(t);
        }
        match window.min_in(t, dur) {
            None => return Some(t),
            Some(m) if m >= width => return Some(t),
            Some(_) => {
                let violation = window
                    .first_below(t, width)
                    .expect("a window minimum below width implies a violating step");
                t = window
                    .next_at_least(violation, width)
                    .unwrap_or_else(|| window.end());
            }
        }
    }
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
        queue: &WaitingJobs<'_>,
        profile: &C,
        scratch: &mut DecisionScratch,
        out: &mut Vec<JobId>,
    ) {
        out.clear();
        if queue.is_empty() {
            return;
        }
        let window = &mut scratch.window;
        window.refill(profile, now, now + queue.max_duration());
        for job in queue.iter() {
            let fits = window
                .min_in(now, job.duration)
                .expect("the window covers every waiting job's run")
                >= job.width;
            if fits {
                window.subtract(now, job.duration, job.width);
                out.push(job.id);
            } else {
                break;
            }
        }
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
        queue: &WaitingJobs<'_>,
        profile: &C,
        scratch: &mut DecisionScratch,
        out: &mut Vec<JobId>,
    ) {
        out.clear();
        if queue.is_empty() {
            return;
        }
        let window = &mut scratch.window;
        window.refill(profile, now, now + queue.max_duration());
        for job in queue.iter() {
            let fits = window
                .min_in(now, job.duration)
                .expect("the window covers every waiting job's run")
                >= job.width;
            if fits {
                window.subtract(now, job.duration, job.width);
                out.push(job.id);
            }
        }
    }
}

/// EASY backfilling: the queue head is started if possible; otherwise later
/// jobs may start provided they do not delay the head's earliest possible
/// start. Like the off-line rewrite in `resa-algos`, admission is a scalar
/// check — a candidate delays the head iff its run overlaps the head's
/// shadow window with less than `q_head + q_cand` processors free there —
/// so no tentative reservation is ever taken.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EasyPolicy;

impl OnlinePolicy for EasyPolicy {
    fn name(&self) -> String {
        "EASY".to_string()
    }

    fn decide<C: CapacityQuery>(
        &self,
        now: Time,
        queue: &WaitingJobs<'_>,
        profile: &C,
        scratch: &mut DecisionScratch,
        out: &mut Vec<JobId>,
    ) {
        out.clear();
        if queue.is_empty() {
            return;
        }
        let window = &mut scratch.window;
        window.refill(profile, now, now + queue.max_duration());
        // Start successive heads while they fit.
        let mut iter = queue.iter();
        let mut blocked = None;
        for job in iter.by_ref() {
            let fits = window
                .min_in(now, job.duration)
                .expect("the window covers every waiting job's run")
                >= job.width;
            if fits {
                window.subtract(now, job.duration, job.width);
                out.push(job.id);
            } else {
                blocked = Some(job);
                break;
            }
        }
        let Some(head) = blocked else { return };
        // The head is blocked: its shadow start and the spare capacity over
        // its shadow window, computed once. The admission rule itself is the
        // shared [`ShadowGuard`], fed combined window + substrate minima.
        let shadow = combined_earliest_fit(profile, window, head.width, head.duration, now)
            .expect("feasible instances always admit a fit");
        let mut guard = ShadowGuard::new(shadow, head.width, head.duration, |s, d| {
            combined_min(profile, window, s, d)
        });
        for job in iter {
            let fits = window
                .min_in(now, job.duration)
                .expect("the window covers every waiting job's run")
                >= job.width;
            if !fits {
                continue;
            }
            if guard.admits(now, job.width, job.duration, |s, d| {
                combined_min(profile, window, s, d)
            }) {
                window.subtract(now, job.duration, job.width);
                out.push(job.id);
                guard.on_admit(now, job.duration, |s, d| {
                    combined_min(profile, window, s, d)
                });
            }
        }
    }
}

/// Which of the three policies to run, as a value: what `--policy` parses
/// into, what the journal header records, and what the reference oracle is
/// told to replay. Implements [`OnlinePolicy`] by forwarding — the one place
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
        queue: &WaitingJobs<'_>,
        profile: &C,
        scratch: &mut DecisionScratch,
        out: &mut Vec<JobId>,
    ) {
        match self {
            ReferencePolicy::Fcfs => FcfsPolicy.decide(now, queue, profile, scratch, out),
            ReferencePolicy::Easy => EasyPolicy.decide(now, queue, profile, scratch, out),
            ReferencePolicy::Greedy => GreedyPolicy.decide(now, queue, profile, scratch, out),
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
    /// decision point).
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
        let view = WaitingJobs::new(jobs, &order);
        let mut scratch = DecisionScratch::default();
        let mut out = Vec::new();
        policy.decide(now, &view, p, &mut scratch, &mut out);
        out
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
    fn decisions_leave_the_substrate_untouched() {
        let p = profile(4);
        let before = p.clone();
        let _ = decide(&EasyPolicy, Time::ZERO, &queue(), &p);
        assert_eq!(p, before, "policies must only read the substrate");
    }

    #[test]
    fn easy_shadow_straddles_the_decision_window() {
        // Head (4 wide, long) fits only past a far reservation; its shadow
        // lies beyond the decision horizon (longest waiting duration), so the
        // no-delay checks must combine the local window with substrate reads.
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
