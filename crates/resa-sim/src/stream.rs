//! The event loop: bounded-memory simulation over a pulled job stream.
//!
//! [`run_stream`] is the crate's one batch event loop — the on-line rule of
//! the paper's §2.1–2.2: at every event instant drain the events
//! (completions, availability changes, then arrivals in source order) and
//! consult the list policy once. The policy starts what its rule admits
//! itself — it reserves each start on the substrate and unlinks it from the
//! waiting list — and the loop books the starts it reports.
//!
//! * a [`JobSource`] is *pulled* as virtual time advances, so only jobs at
//!   or before the current instant ever enter memory;
//! * completed jobs are *retired* into a [`RecordSink`] the moment they
//!   finish, freeing their catalog slot (a slab with a free list — sparse or
//!   enormous external job ids from real traces never inflate the waitlist,
//!   which queues compact slot indices);
//! * metrics fold through [`crate::metrics::MetricsAccumulator`] in decision
//!   order, reproducing [`crate::metrics::SimMetrics::from_schedule`] bit
//!   for bit.
//!
//! Live state is O(active jobs + overlay), independent of trace length.
//! Two drivers run on it: [`crate::engine::Simulator::run`] (an
//! [`InstanceSource`] and a schedule-collecting sink) and `resa replay` (an
//! SWF stream and a validating sink). The resident
//! [`crate::service::ScheduleService`] walks time by its own rules — ops
//! instead of a source — but borrows the part that is the same code,
//! `DecisionStep`. The independent oracle of all of it is
//! [`crate::reference::simulate_reference`] (property-tested in this crate
//! on both substrates, metrics bit-exact).

use crate::metrics::{MetricsAccumulator, SimMetrics};
use crate::policy::OnlinePolicy;
use crate::trace::JobRecord;
use resa_core::prelude::*;
use resa_core::waitlist::WaitList;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A pull-based job stream, consumed as virtual time advances.
///
/// Contract: releases are non-decreasing, and jobs sharing a release instant
/// arrive in ascending id order (the order the reference oracle's event
/// queue yields same-instant arrivals). Sources carrying real traces should
/// pre-sort or verify sortedness before handing the stream to the engine.
pub trait JobSource {
    /// The next job, or `None` when the stream is exhausted.
    fn next_job(&mut self) -> Option<Job>;
}

/// [`JobSource`] over a materialized instance: jobs sorted by
/// `(release, id)` — the arrival order for *any* instance, sorted or not.
pub struct InstanceSource {
    jobs: std::vec::IntoIter<Job>,
}

impl InstanceSource {
    /// Stream the jobs of `instance` in arrival order.
    pub fn new(instance: &ResaInstance) -> Self {
        let mut jobs = instance.jobs().to_vec();
        jobs.sort_by_key(|j| (j.release, j.id));
        InstanceSource {
            jobs: jobs.into_iter(),
        }
    }
}

impl JobSource for InstanceSource {
    fn next_job(&mut self) -> Option<Job> {
        self.jobs.next()
    }
}

/// Where retired jobs go. `record` receives each job exactly once, at its
/// completion instant, ordered by `(completion, id)`; `on_start` fires at
/// placement time in decision order, for sinks that need the placement
/// sequence.
pub trait RecordSink {
    /// A job completed and left the live state.
    fn record(&mut self, rec: JobRecord);

    /// A job started (decision order). Default: ignored.
    fn on_start(&mut self, job: &Job, start: Time) {
        let _ = (job, start);
    }

    /// Make the records received so far durable where the sink keeps them.
    /// The concurrent front calls this once per batch that retired
    /// anything, after the batch's journal seal and before its replies.
    /// Default: nothing to do.
    fn flush(&mut self) {}
}

/// Sink that drops records, keeping only the count — the bounded-memory
/// default when only aggregate metrics are wanted.
#[derive(Debug, Default)]
pub struct DiscardSink {
    /// Number of records retired into this sink.
    pub completed: usize,
}

impl RecordSink for DiscardSink {
    fn record(&mut self, _rec: JobRecord) {
        self.completed += 1;
    }
}

/// Sink that collects every record (tests and small interactive runs; this
/// reintroduces O(trace) memory by construction).
#[derive(Debug, Default)]
pub struct VecSink {
    /// Retired records in `(completion, id)` order.
    pub records: Vec<JobRecord>,
}

impl RecordSink for VecSink {
    fn record(&mut self, rec: JobRecord) {
        self.records.push(rec);
    }
}

/// Aggregate outcome of a streaming run.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// Metrics, equal to `SimMetrics::from_schedule` on the materialized run.
    pub metrics: SimMetrics,
    /// Decision points at which the policy was consulted.
    pub decisions: u64,
    /// Jobs pulled from the source.
    pub submitted: usize,
    /// Jobs retired into the sink. Less than `submitted` only if some job
    /// could never be placed (an infeasible stream).
    pub completed: usize,
    /// Peak number of simultaneously live jobs (waiting + running) — the
    /// quantity the bounded-memory guarantee is about.
    pub peak_active: usize,
    /// High-water mark of the job slab (slots are reused after retirement,
    /// so this tracks `peak_active`, not the trace length).
    pub peak_slots: usize,
}

/// Substrate garbage collection cadence, in drained completions: every
/// placement adds breakpoints the substrate would otherwise keep forever, so
/// the availability function before `now` is periodically forgotten
/// (`CapacityQuery::retire_before` — queries never look behind the clock).
/// The cadence amortizes the O(live breakpoints) compaction to O(1) per
/// completion and caps the substrate at O(active jobs + RETIRE_EVERY)
/// breakpoints.
const RETIRE_EVERY: usize = 64;

/// What [`run_stream`] and the resident [`crate::service::ScheduleService`]
/// do identically at a decision instant: consult the policy once, which
/// starts what it admits, and forget the substrate's past every
/// [`RETIRE_EVERY`] completions. How time reaches the instant, and what a
/// start means beyond the substrate and the waiting list, is the caller's.
#[derive(Debug, Clone, Default)]
pub(crate) struct DecisionStep {
    /// Policy consultations so far.
    pub(crate) decisions: u64,
    completions_since_retire: usize,
}

impl DecisionStep {
    /// One decision at `now`; no-op when nothing waits. `waiting` queues
    /// positions into `jobs`. The policy reserves each start on `substrate`
    /// and unlinks it from `waiting`; `on_start` then hears its position,
    /// job and completion instant.
    pub(crate) fn decide<C: CapacityQuery, P: OnlinePolicy>(
        &mut self,
        policy: &P,
        now: Time,
        jobs: &[Job],
        waiting: &mut WaitList,
        substrate: &mut C,
        mut on_start: impl FnMut(usize, &Job, Time),
    ) {
        if waiting.is_empty() {
            return;
        }
        self.decisions += 1;
        policy.decide(now, jobs, waiting, substrate, |pos| {
            let job = &jobs[pos];
            on_start(pos, job, now.saturating_add(job.duration));
        });
    }

    /// `completions` more jobs were drained: forget `substrate`'s
    /// availability before `now` if the cadence is due. Call between
    /// decisions only (no transaction mark outstanding).
    pub(crate) fn retire<C: CapacityQuery>(
        &mut self,
        completions: usize,
        substrate: &mut C,
        now: Time,
    ) {
        self.completions_since_retire += completions;
        if self.completions_since_retire >= RETIRE_EVERY {
            substrate.retire_before(now);
            self.completions_since_retire = 0;
        }
    }
}

/// Run a streaming simulation of `source` under `policy` on `substrate`.
///
/// `substrate` must be freshly built from `overlay` (the reservations-only
/// profile): the run reserves job capacity on it in place. `overlay`
/// additionally supplies the availability-change instants and the area
/// denominator for utilization.
pub fn run_stream<C, P, S, K>(
    substrate: &mut C,
    overlay: &ResourceProfile,
    policy: &P,
    source: &mut S,
    sink: &mut K,
) -> StreamOutcome
where
    C: CapacityQuery,
    P: OnlinePolicy,
    S: JobSource,
    K: RecordSink,
{
    // Job slab: slot-indexed live catalog with a free list. The waitlist
    // and heaps hold compact slots, never external ids (arbitrarily sparse
    // in real traces), so they stay O(active jobs).
    let mut slots: Vec<Job> = Vec::new();
    let mut start_of: Vec<Time> = Vec::new();
    let mut free: Vec<u32> = Vec::new();
    let mut waiting = WaitList::with_capacity(0);
    // Running jobs keyed by (completion, id, slot): pops in completion order
    // with deterministic id tie-break.
    let mut running: BinaryHeap<Reverse<(Time, JobId, u32)>> = BinaryHeap::new();
    // Availability-change instants, consumed in order (t > 0).
    let mut bp_iter = overlay
        .steps()
        .iter()
        .map(|&(t, _)| t)
        .filter(|&t| t > Time::ZERO);
    let mut next_bp = bp_iter.next();

    let mut pending = source.next_job();
    let mut acc = MetricsAccumulator::new();
    let mut step = DecisionStep::default();
    let mut submitted = 0usize;
    let mut completed = 0usize;
    let mut peak_active = 0usize;

    loop {
        // The next instant: earliest of pending arrival, completion, and
        // availability change. Breakpoints alone can unblock a waiting job
        // (capacity rises when a reservation ends), so they count as
        // instants while anything is waiting; with nothing live and nothing
        // pending they are irrelevant.
        if pending.is_none() && running.is_empty() && (waiting.is_empty() || next_bp.is_none()) {
            break;
        }
        let mut now: Option<Time> = None;
        let consider = |t: Time, now: &mut Option<Time>| {
            *now = Some(now.map_or(t, |n| n.min(t)));
        };
        if let Some(job) = &pending {
            consider(job.release, &mut now);
        }
        if let Some(&Reverse((t, _, _))) = running.peek() {
            consider(t, &mut now);
        }
        if let Some(bp) = next_bp {
            consider(bp, &mut now);
        }
        let Some(now) = now else { break };

        // 1. Completions at `now`: retire out of the live state.
        let before = completed;
        while let Some(&Reverse((t, _, _))) = running.peek() {
            if t != now {
                break;
            }
            let Reverse((_, _, slot)) = running.pop().expect("peeked");
            let job = slots[slot as usize];
            sink.record(JobRecord {
                job: job.id,
                width: job.width,
                duration: job.duration,
                arrived: job.release,
                started: start_of[slot as usize],
                completed: now,
            });
            free.push(slot);
            completed += 1;
        }
        step.retire(completed - before, substrate, now);
        // 2. Availability changes at (or skipped before) `now`.
        while let Some(bp) = next_bp {
            if bp > now {
                break;
            }
            next_bp = bp_iter.next();
        }
        // 3. Arrivals at `now`, in source order.
        while let Some(job) = &pending {
            if job.release > now {
                break;
            }
            let job = pending.take().expect("checked");
            debug_assert!(job.release == now, "source releases must not decrease");
            let slot = match free.pop() {
                Some(slot) => {
                    slots[slot as usize] = job;
                    start_of[slot as usize] = Time::ZERO;
                    slot
                }
                None => {
                    slots.push(job);
                    start_of.push(Time::ZERO);
                    (slots.len() - 1) as u32
                }
            };
            waiting.ensure_capacity(slots.len());
            waiting.push_back(slot as usize);
            submitted += 1;
            pending = source.next_job();
        }
        peak_active = peak_active.max(waiting.len() + running.len());

        // One decision per instant.
        step.decide(
            policy,
            now,
            &slots,
            &mut waiting,
            substrate,
            |slot, job, completion| {
                acc.record(job, now);
                sink.on_start(job, now);
                start_of[slot] = now;
                running.push(Reverse((completion, job.id, slot as u32)));
            },
        );
    }

    StreamOutcome {
        metrics: acc.finish(overlay),
        decisions: step.decisions,
        submitted,
        completed,
        peak_active,
        peak_slots: slots.len(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::policy::{FcfsPolicy, GreedyPolicy, ReferencePolicy};
    use crate::reference::simulate_reference;
    use resa_core::instance::ResaInstanceBuilder;

    /// The loop over a materialized instance on the indexed timeline.
    fn run_stream_on_instance<P: OnlinePolicy, K: RecordSink>(
        instance: &ResaInstance,
        policy: &P,
        sink: &mut K,
    ) -> StreamOutcome {
        let overlay = instance.profile();
        let mut substrate = AvailabilityTimeline::from(&overlay);
        let mut source = InstanceSource::new(instance);
        run_stream(&mut substrate, &overlay, policy, &mut source, sink)
    }

    /// Sink that rebuilds the placement sequence, for equivalence checks.
    #[derive(Default)]
    struct PlacementSink {
        placements: Vec<Placement>,
        records: Vec<JobRecord>,
    }

    impl RecordSink for PlacementSink {
        fn record(&mut self, rec: JobRecord) {
            self.records.push(rec);
        }

        fn on_start(&mut self, job: &Job, start: Time) {
            self.placements.push(Placement { job: job.id, start });
        }
    }

    /// The loop against the oracle, on both substrates (also the body of
    /// the crate-level proptest).
    pub(crate) fn check_equivalence(inst: &ResaInstance) {
        fn check<C: CapacityQuery>(mut substrate: C, inst: &ResaInstance, kind: ReferencePolicy) {
            let name = kind.name();
            let oracle = simulate_reference(inst, kind);
            let mut sink = PlacementSink::default();
            let mut source = InstanceSource::new(inst);
            let outcome = run_stream(
                &mut substrate,
                &inst.profile(),
                &kind,
                &mut source,
                &mut sink,
            );
            assert_eq!(
                Schedule::from_placements(sink.placements.clone()),
                oracle.schedule,
                "{name}: placement sequence diverged"
            );
            assert_eq!(outcome.decisions, oracle.decisions, "{name}");
            assert_eq!(
                outcome.metrics,
                SimMetrics::from_schedule(inst, &oracle.schedule),
                "{name}: metrics (f64 bit-exact)"
            );
            assert_eq!(outcome.submitted, inst.n_jobs(), "{name}");
            assert_eq!(outcome.completed, inst.n_jobs(), "{name}");
            assert_eq!(sink.records.len(), inst.n_jobs(), "{name}");
            for r in &sink.records {
                assert_eq!(r.completed, r.started + r.duration);
            }
            // Records arrive in completion order with id tie-break.
            for pair in sink.records.windows(2) {
                assert!((pair[0].completed, pair[0].job) < (pair[1].completed, pair[1].job));
            }
        }
        for kind in [
            ReferencePolicy::Fcfs,
            ReferencePolicy::Easy,
            ReferencePolicy::Greedy,
        ] {
            check(AvailabilityTimeline::from(&inst.profile()), inst, kind);
            check(inst.profile(), inst, kind);
        }
    }

    #[test]
    fn matches_batch_engine_on_reserved_instance() {
        let inst = ResaInstanceBuilder::new(4)
            .job(3, 4u64)
            .job_released_at(4, 2u64, 1u64)
            .job_released_at(1, 3u64, 1u64)
            .job_released_at(2, 2u64, 6u64)
            .reservation(2, 3u64, 5u64)
            .build()
            .unwrap();
        check_equivalence(&inst);
    }

    #[test]
    fn breakpoint_alone_unblocks_a_waiting_job() {
        // One job too wide to run while the reservation holds: the only
        // instant that can start it is the reservation's *end* breakpoint.
        let inst = ResaInstanceBuilder::new(4)
            .job(4, 2u64)
            .reservation(2, 5u64, 0u64)
            .build()
            .unwrap();
        check_equivalence(&inst);
        let mut sink = DiscardSink::default();
        let outcome = run_stream_on_instance(&inst, &GreedyPolicy, &mut sink);
        assert_eq!(outcome.metrics.makespan, Time(7));
        assert_eq!(sink.completed, 1);
    }

    #[test]
    fn empty_source() {
        let inst = ResaInstanceBuilder::new(2).build().unwrap();
        let mut sink = DiscardSink::default();
        let outcome = run_stream_on_instance(&inst, &GreedyPolicy, &mut sink);
        assert_eq!(outcome.decisions, 0);
        assert_eq!(outcome.submitted, 0);
        assert_eq!(outcome.metrics.jobs, 0);
        assert_eq!(outcome.peak_active, 0);
    }

    /// The slab + slot indirection keeps live state O(active) even when
    /// external job ids start at 10^7 (the sparse-id regression of real
    /// traces: a raw-id waitlist would allocate tens of millions of slots).
    #[test]
    fn sparse_huge_job_ids_stay_compact() {
        struct SparseSource {
            next: usize,
            count: usize,
        }
        impl JobSource for SparseSource {
            fn next_job(&mut self) -> Option<Job> {
                if self.count == 0 {
                    return None;
                }
                self.count -= 1;
                let id = self.next;
                self.next += 13;
                // Release = sequential instants, short jobs: ≤ 2 live at once.
                Some(Job::released_at(
                    id,
                    1,
                    2u64,
                    (10_000_000usize.abs_diff(id)) as u64,
                ))
            }
        }
        let overlay = ResourceProfile::constant(4);
        let mut substrate = AvailabilityTimeline::from(&overlay);
        let mut source = SparseSource {
            next: 10_000_000,
            count: 500,
        };
        let mut sink = DiscardSink::default();
        let outcome = run_stream(
            &mut substrate,
            &overlay,
            &GreedyPolicy,
            &mut source,
            &mut sink,
        );
        assert_eq!(outcome.submitted, 500);
        assert_eq!(outcome.completed, 500);
        assert!(
            outcome.peak_slots <= 4,
            "slab grew to {} slots for ids starting at 10^7",
            outcome.peak_slots
        );
        assert!(outcome.peak_active <= 4);
    }

    #[test]
    fn retirement_reuses_slots() {
        // 100 sequential jobs, each finishing before the next arrives: the
        // slab should never need more than one slot.
        let mut b = ResaInstanceBuilder::new(2);
        for i in 0..100u64 {
            b = b.job_released_at(1, 1u64, i * 2);
        }
        let inst = b.build().unwrap();
        let mut sink = DiscardSink::default();
        let outcome = run_stream_on_instance(&inst, &FcfsPolicy, &mut sink);
        assert_eq!(outcome.completed, 100);
        assert_eq!(outcome.peak_slots, 1);
        assert_eq!(outcome.peak_active, 1);
    }
}
