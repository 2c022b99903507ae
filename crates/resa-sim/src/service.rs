//! The resident scheduling service behind `resa serve`.
//!
//! The paper's model is inherently on-line (§2.1): jobs arrive over time and
//! the scheduler answers earliest-fit queries against a changing availability
//! profile `m(t)`. The batch [`crate::engine::Simulator`] replays a complete
//! instance; [`ScheduleService`] is the *incremental* counterpart a
//! long-running daemon needs — one availability substrate stays resident
//! while requests arrive in adversarial order:
//!
//! * [`ScheduleService::submit`] — a job arrives (optionally with a future
//!   release date) and is routed through the configured on-line policy;
//! * [`ScheduleService::reserve`] / [`ScheduleService::cancel`] — advance
//!   reservations join or leave the overlay; both are applied
//!   *transactionally* through [`Speculate`]-compatible substrates, so a
//!   rejected request rolls back without a trace;
//! * [`ScheduleService::query`] — an earliest-fit probe, a pure read of the
//!   substrate;
//! * [`ScheduleService::advance`] — virtual time moves forward, draining
//!   completions and waking the policy at each event instant;
//! * [`ScheduleService::stats`] / [`ScheduleService::snapshot`] — aggregate
//!   counters and the current schedule in the shapes `resa replay` reports.
//!
//! These typed methods hand back effects borrowed from a reused buffer (the
//! zero-allocation steady path). Requests arriving as data go through
//! [`ScheduleService::apply`] ([`crate::op`]), which admits the op — shape
//! and overflow guard — and dispatches to the method it names; that entry
//! is what `resa serve`, the journal and the concurrent front all call.
//!
//! # Replay equivalence
//!
//! The service walks time by its own rules — arrivals come from a heap of
//! future submissions, breakpoints from an edge list each overlay change
//! updates in place, preemption leaves ghost completions — but what it does
//! *at* a decision instant is the event loop's own code,
//! `stream::DecisionStep`. It makes scheduling decisions at exactly the
//! instants the batch engine would: job arrivals, job completions, and the
//! *normalized* availability breakpoints of the reservation overlay
//! (equal-capacity boundaries produce no decision point, mirroring
//! `ResourceProfile::from_reservations`). As a consequence, a session whose
//! reservation overlay is fixed up front and then drained to completion
//! produces bit-for-bit the schedule of [`crate::engine::Simulator`] run on
//! the equivalent off-line instance — property-tested below on both
//! substrates. This is the strongest cheap correctness oracle a resident
//! scheduler can have: every latent state bug shows up as a divergence from
//! the batch engine.
//!
//! # Cost follows the live state
//!
//! Every decision looks at `[now, ∞)` only, so what a request costs depends
//! on the running and waiting jobs and on the windows reaching past `now`,
//! not on how long the session has run: the substrate forgets availability
//! behind the clock (`CapacityQuery::retire_before`, every 64 drained
//! completions — unobservable, see `tests/retirement.rs`), and an overlay
//! change touches the two edges of its own window, not the other windows.
//! The job catalog, the schedule and the reservation/drain lists
//! do keep the whole session — ids stay dense and `snapshot`/`state` report
//! all of it — but only those two reads and an `inject` that actually
//! preempts (it re-derives the makespan) walk them.

mod admission;
mod derived;
mod drain;
mod types;

pub use types::{
    AdmissionPolicy, DeadlineOutcome, DrainMode, Effects, JobFlags, ServiceError, ServiceState,
    ServiceStats, ServiceWindow, WindowKind,
};

use crate::metrics::{MetricsAccumulator, SimMetrics};
use crate::op::{check_shape, Horizon};
use crate::policy::ReferencePolicy;
use crate::stream::{DecisionStep, RecordSink};
use crate::trace::{JobRecord, RunTrace};
use derived::Derived;
use resa_core::capacity::Speculate;
use resa_core::prelude::*;

/// Per-job lifecycle records plus run metrics of `schedule` on `instance` —
/// what [`ScheduleService::snapshot`] reports for a session nothing was
/// retired from, and what the concurrent front computes on the reader's
/// thread from a copy of the two.
pub(crate) fn records_of(
    instance: &ResaInstance,
    schedule: &Schedule,
) -> (Vec<JobRecord>, SimMetrics) {
    let trace = RunTrace::from_schedule(instance, schedule);
    let metrics = SimMetrics::from_schedule(instance, schedule);
    (trace.records().to_vec(), metrics)
}

/// What a session *is*: the contents of a [`ServiceState`] in their live
/// containers, plus what catalog retirement folded away. Everything else
/// the service keeps is a function of this (`Derived`).
#[derive(Debug, Clone, Default)]
struct Authoritative {
    now: Time,
    /// Every job not yet compacted away; ids are dense, and catalog position
    /// `pos` holds id `base + pos`.
    jobs: Vec<Job>,
    /// Per-job scenario flags, parallel to `jobs`.
    flags: Vec<JobFlags>,
    /// The overlay, one table per [`WindowKind`] (id == index).
    windows: [Vec<ServiceWindow>; 2],
    /// Every placement not yet retired, in decision order.
    schedule: Schedule,
    /// Released-but-not-started job positions, in queue order.
    waiting: WaitList,
    /// Ids below `base` have been retired: their catalog entries were
    /// compacted away. Stays `0` until
    /// [`ScheduleService::retire_completed`] compacts.
    base: usize,
    /// Metrics of the placements retired into a [`RecordSink`] so far,
    /// folded in decision order so merging with the live placements
    /// reproduces `SimMetrics::from_schedule` bit-for-bit.
    retired_metrics: MetricsAccumulator,
    /// Parallel to `jobs`: `true` once the position's placement has been
    /// retired, making the catalog entry eligible for compaction.
    retired_placement: Vec<bool>,
}

impl Authoritative {
    /// The catalog position of a live job id.
    #[inline]
    fn pos_of(&self, id: JobId) -> usize {
        id.0 - self.base
    }

    /// The job id stored at catalog position `pos`.
    #[inline]
    fn id_at(&self, pos: usize) -> JobId {
        JobId(self.base + pos)
    }

    /// When the run `p` records ends.
    fn completion(&self, p: &Placement) -> Time {
        p.start
            .saturating_add(self.jobs[self.pos_of(p.job)].duration)
    }

    /// The lifecycle record of the run `p` records.
    fn record_of(&self, p: &Placement) -> JobRecord {
        let job = self.jobs[self.pos_of(p.job)];
        JobRecord {
            job: p.job,
            width: job.width,
            duration: job.duration,
            arrived: job.release,
            started: p.start,
            completed: self.completion(p),
        }
    }

    /// Largest completion time among started jobs. Retired placements left
    /// the schedule but their high-water mark survives in the accumulator.
    fn makespan(&self) -> Time {
        let live = self.schedule.placements().iter();
        live.map(|p| self.completion(p))
            .fold(self.retired_metrics.makespan(), Time::max)
    }

    /// The reservation-and-drain overlay as it is actually in effect:
    /// withdrawn windows truncated to their elapsed prefix, zero-length
    /// windows dropped, ids re-densified across the two namespaces
    /// (reservations first). The single source of truth for the
    /// replay-equivalence instance. Windows committed by deadline admission
    /// are deliberately absent: they occupy the substrate through their own
    /// placements, and the oracle view ([`ScheduleService::oracle_parts`])
    /// appends them separately.
    fn effective_overlay(&self) -> Vec<Reservation> {
        self.windows
            .iter()
            .flatten()
            .filter(|w| w.is_effective())
            .enumerate()
            .map(|(i, w)| Reservation::new(i, w.width, w.end.since(w.start), w.start))
            .collect()
    }
}

/// The resident scheduling service: a live availability substrate plus the
/// incremental decision loop of the batch engine.
///
/// Generic over the availability substrate exactly like the schedulers: the
/// indexed [`AvailabilityTimeline`] is the production backend (checkpoint /
/// rollback speculation) and the only one `resa serve` runs on, the naive
/// [`ResourceProfile`] the clone-based oracle the equivalence tests run
/// the same sessions on, byte for byte.
///
/// Beside configuration and reused scratch buffers the service is two
/// things: the *authoritative state* requests change and
/// [`ScheduleService::state`] persists, and a *derived index* — heaps,
/// overlay edges, counters, the substrate's availability function — that is
/// a function of it: kept incrementally by the transitions of `Derived`,
/// rebuilt from scratch by [`ScheduleService::restore`], and compared with
/// that rebuild after every op of the crate's randomized tests.
#[derive(Debug, Clone)]
pub struct ScheduleService<C: CapacityQuery + Speculate> {
    // -- configuration
    machines: u32,
    policy: ReferencePolicy,
    /// What happens to jobs a drain preempts.
    drain_mode: DrainMode,
    // -- authoritative state (with `step.decisions`)
    auth: Authoritative,
    // -- derived index
    derived: Derived,
    substrate: C,
    // -- scratch
    /// The decide-and-place step and retire cadence shared with
    /// [`crate::stream::run_stream`], with its reused buffers and the
    /// decision count.
    step: DecisionStep,
    /// Reused effects buffer handed back by reference from every mutating
    /// request.
    fx_buf: Effects,
    /// Victims of the most recent [`ScheduleService::inject`], in re-queue
    /// (ascending id) order. Reused across requests.
    preempted_buf: Vec<JobId>,
}

impl<C: CapacityQuery + Speculate> ScheduleService<C> {
    /// Create a service on `substrate`, which must represent an empty
    /// cluster (constant capacity `substrate.base()`).
    ///
    /// # Panics
    /// Panics if the substrate has no machines.
    pub fn new(policy: ReferencePolicy, substrate: C) -> Self {
        let machines = substrate.base();
        assert!(machines > 0, "a cluster needs at least one machine");
        ScheduleService {
            machines,
            policy,
            drain_mode: DrainMode::default(),
            auth: Authoritative::default(),
            derived: Derived::default(),
            substrate,
            step: DecisionStep::default(),
            fx_buf: Effects::default(),
            preempted_buf: Vec::new(),
        }
    }

    /// Append a job to the catalog and its parallel tables; returns its
    /// position and id.
    fn enroll(
        &mut self,
        width: u32,
        duration: Dur,
        release: Time,
        flags: JobFlags,
    ) -> (usize, JobId) {
        let pos = self.auth.jobs.len();
        let id = self.auth.id_at(pos);
        let job = Job::released_at(id.0, width, duration, release);
        self.auth.jobs.push(job);
        self.auth.flags.push(flags);
        self.auth.retired_placement.push(false);
        self.auth.waiting.ensure_capacity(pos + 1);
        self.derived.enrolled(&job);
        (pos, id)
    }

    /// Pre-size every container for `jobs` more jobs and `windows` more
    /// overlay windows of either kind, so a steady-state loop staying under
    /// these bounds allocates nothing per request (pinned by the
    /// allocation-regression test in `tests/alloc_regression.rs`).
    pub fn ensure_capacity(&mut self, jobs: usize, windows: usize) {
        let auth = &mut self.auth;
        auth.jobs.reserve(jobs);
        auth.flags.reserve(jobs);
        auth.retired_placement.reserve(jobs);
        auth.waiting.ensure_capacity(auth.jobs.len() + jobs);
        auth.schedule.reserve(jobs);
        for table in &mut auth.windows {
            table.reserve(windows);
        }
        self.derived.reserve(jobs, 2 * windows);
        self.fx_buf.started.reserve(jobs);
        self.fx_buf.completed.reserve(jobs);
        self.preempted_buf.reserve(jobs);
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.auth.now
    }

    /// The cluster size.
    pub fn machines(&self) -> u32 {
        self.machines
    }

    /// The configured on-line policy.
    pub fn policy(&self) -> ReferencePolicy {
        self.policy
    }

    /// What [`crate::op::Op::validate`] guards against overflow: no instant
    /// this service computes from here on exceeds `anchor + work`.
    pub fn horizon(&self) -> Horizon {
        self.derived.horizon(self.auth.now)
    }

    /// The schedule of every job started so far, in decision order.
    pub fn schedule(&self) -> &Schedule {
        &self.auth.schedule
    }

    /// Number of decision points so far.
    pub fn decisions(&self) -> u64 {
        self.step.decisions
    }

    /// All windows of `kind` ever accepted (including withdrawn ones,
    /// truncated), in id order.
    pub fn windows(&self, kind: WindowKind) -> &[ServiceWindow] {
        &self.auth.windows[kind as usize]
    }

    /// Per-job scenario flags, parallel to the job catalog.
    pub fn job_flags(&self) -> &[JobFlags] {
        &self.auth.flags
    }

    /// Configure what happens to jobs a drain preempts. Construction-time
    /// configuration, not persisted state: journal recovery re-applies the
    /// flag it was launched with before replaying ops.
    pub fn set_drain_mode(&mut self, mode: DrainMode) {
        self.drain_mode = mode;
    }

    /// Capture the decided state of the session as a [`ServiceState`] —
    /// everything [`ScheduleService::restore`] needs to rebuild an
    /// equivalent live service. Cheap relative to a snapshot record write
    /// (a handful of `Vec` clones), called by the journal layer at
    /// compaction points only.
    pub fn state(&self) -> ServiceState {
        let auth = &self.auth;
        assert!(
            auth.retired_metrics.jobs() == 0,
            "a retiring session cannot be checkpointed: retired records left \
             the process, so the captured state would be partial (the serve \
             front rejects --retire alongside --journal)"
        );
        ServiceState {
            machines: self.machines,
            now: auth.now,
            decisions: self.step.decisions,
            makespan: self.stats().makespan,
            jobs: auth.jobs.clone(),
            flags: auth.flags.clone(),
            windows: auth.windows.clone(),
            placements: auth.schedule.placements().to_vec(),
            queue: auth.waiting.iter().collect(),
        }
    }

    /// Rebuild a live service from a captured [`ServiceState`] on a fresh
    /// `substrate` (an empty cluster of `state.machines` machines): the
    /// authoritative state is copied — the waiting list verbatim from the
    /// persisted queue order, see [`ServiceState::queue`] — and the rest is
    /// derived from it.
    ///
    /// A state captured between requests (services are quiescent there — the
    /// concurrent front and the sequential transports never snapshot mid-request)
    /// restores to a service that answers every future request identically;
    /// the `state_restore_roundtrip` proptest pins this.
    ///
    /// # Panics
    /// Panics if `substrate` is not an empty cluster of `state.machines`
    /// machines, or if `state` is internally inconsistent (a placement for
    /// an unknown job, a window the fresh substrate rejects).
    pub fn restore(policy: ReferencePolicy, state: &ServiceState, substrate: C) -> Self {
        assert_eq!(
            substrate.base(),
            state.machines,
            "restore substrate must match the captured cluster size"
        );
        let mut svc = ScheduleService::new(policy, substrate);
        svc.step.decisions = state.decisions;
        let auth = &mut svc.auth;
        auth.now = state.now;
        auth.jobs = state.jobs.clone();
        auth.flags = state.flags.clone();
        auth.windows = state.windows.clone();
        auth.schedule = Schedule::from_placements(state.placements.clone());
        auth.retired_placement = vec![false; state.jobs.len()];
        auth.waiting.ensure_capacity(state.jobs.len());
        for &pos in &state.queue {
            auth.waiting.push_back(pos);
        }
        svc.derived = Derived::rebuild(&svc.auth, &mut svc.substrate);
        svc
    }

    // -- requests -----------------------------------------------------------

    /// `at` — a release, a window start, an advance target — must not lie
    /// behind the clock.
    fn not_past(&self, at: Time) -> Result<(), ServiceError> {
        let now = self.auth.now;
        if at < now {
            return Err(ServiceError::InThePast { at, now });
        }
        Ok(())
    }

    /// What every sized request anchored at an instant checks first.
    fn admit(&self, width: u32, duration: Dur, at: Time) -> Result<(), ServiceError> {
        check_shape(width, duration, self.machines)?;
        self.not_past(at)
    }

    /// Consult the policy into a cleared effects buffer: how every request
    /// that changes the waiting set or the overlay, not the clock, ends.
    fn decide_fresh(&mut self) -> &Effects {
        self.fx_buf.clear();
        self.decide_now();
        &self.fx_buf
    }

    /// The job just enrolled at `pos` either arrives right now — an event at
    /// the current instant: enqueue and decide, exactly like the batch
    /// engine's arrival handling — or waits for the clock.
    fn arrive(&mut self, pos: usize, release: Time) -> &Effects {
        self.fx_buf.clear();
        if release == self.auth.now {
            self.enqueue(pos);
            self.decide_now();
        } else {
            self.derived.arrives_later(pos, release);
        }
        &self.fx_buf
    }

    /// A released job joins the queue; [`AdmissionPolicy::Boost`] jumps it.
    fn enqueue(&mut self, pos: usize) {
        if self.auth.flags[pos].boosted {
            self.auth.waiting.push_front(pos);
        } else {
            self.auth.waiting.push_back(pos);
        }
    }

    /// Submit a job of `width` processors for `duration` ticks, arriving at
    /// `release` (the current virtual time when `None`). Returns the new
    /// job's id and the starts the arrival decision triggered (borrowed from
    /// the reused effects buffer — valid until the next request).
    pub fn submit(
        &mut self,
        width: u32,
        duration: Dur,
        release: Option<Time>,
    ) -> Result<(JobId, &Effects), ServiceError> {
        let release = release.unwrap_or(self.auth.now);
        self.admit(width, duration, release)?;
        let (pos, id) = self.enroll(width, duration, release, JobFlags::default());
        Ok((id, self.arrive(pos, release)))
    }

    /// Reserve `width` processors during `[start, start + duration)`.
    /// Applied transactionally: a reservation that does not fit the
    /// availability left by running jobs and earlier reservations is
    /// rejected and the substrate is untouched.
    pub fn reserve(
        &mut self,
        width: u32,
        duration: Dur,
        start: Time,
    ) -> Result<(usize, &Effects), ServiceError> {
        self.admit(width, duration, start)?;
        self.substrate
            .reserve(start, duration, width)
            .map_err(|e| ServiceError::ReservationRejected {
                reason: e.to_string(),
            })?;
        let id = self.open_window(WindowKind::Reservation, width, duration, start);
        // The overlay changed: a window starting now changes capacity at the
        // current instant, and even a future window can alter an EASY
        // decision at `now` (the blocked head's shadow moves later, which
        // may newly admit a backfill candidate). Consult the policy — a
        // no-op when nothing waits, which keeps replayable sessions
        // (overlay fixed before the first submission) decision-identical to
        // the batch engine.
        Ok((id, self.decide_fresh()))
    }

    /// Record a window the substrate already holds; returns its id.
    fn open_window(&mut self, kind: WindowKind, width: u32, duration: Dur, start: Time) -> usize {
        let table = &mut self.auth.windows[kind as usize];
        let window = ServiceWindow {
            id: table.len(),
            width,
            start,
            end: start.saturating_add(duration),
            released: false,
        };
        table.push(window);
        self.derived.window_opened(kind, &window, self.auth.now);
        window.id
    }

    /// Cancel reservation `id`, releasing its not-yet-elapsed window
    /// `[max(now, start), end)`. The elapsed prefix stays in effect — the
    /// past cannot be rewritten. Applied transactionally.
    pub fn cancel(&mut self, id: usize) -> Result<&Effects, ServiceError> {
        self.withdraw(WindowKind::Reservation, id)
    }

    /// Revoke drain `id` (the failure healed / maintenance finished early),
    /// releasing its not-yet-elapsed window `[max(now, start), end)`. The
    /// elapsed prefix stays in effect, exactly like
    /// [`ScheduleService::cancel`] — and jobs the drain already preempted
    /// stay preempted (the past cannot be rewritten).
    pub fn revoke(&mut self, id: usize) -> Result<&Effects, ServiceError> {
        self.withdraw(WindowKind::Drain, id)
    }

    /// Withdraw window `id` of `kind`: the body of `cancel` and `revoke`.
    fn withdraw(&mut self, kind: WindowKind, id: usize) -> Result<&Effects, ServiceError> {
        let now = self.auth.now;
        let entry = self.auth.windows[kind as usize]
            .get_mut(id)
            .ok_or_else(|| kind.unknown(id))?;
        let w = *entry;
        if w.released || w.end <= now {
            return Err(kind.inactive(id));
        }
        let from = w.start.max(now);
        entry.released = true;
        entry.end = from;
        let remaining = w.end.since(from);
        if !remaining.is_zero() {
            self.substrate
                .release(from, remaining, w.width)
                .expect("releasing an active window's own remainder");
        }
        self.derived.window_withdrawn(kind, &w, from, now);
        // Capacity grew — at the current instant if the window had started,
        // in the future otherwise. Both can unblock a waiting job's run
        // (which extends into the future), and a job blocked *only* by the
        // withdrawn window would otherwise be stranded forever: with the
        // window gone there may be no future event left to wake the policy.
        // Deciding unconditionally closes that hole and is a no-op when
        // nothing waits.
        Ok(self.decide_fresh())
    }

    /// Earliest-fit probe: the earliest start a `width × duration` job would
    /// get if submitted now (or at `not_before`), or `None` if it can never
    /// fit. A pure read of the substrate.
    pub fn query(
        &self,
        width: u32,
        duration: Dur,
        not_before: Option<Time>,
    ) -> Result<Option<Time>, ServiceError> {
        check_shape(width, duration, self.machines)?;
        let from = not_before.unwrap_or(self.auth.now).max(self.auth.now);
        Ok(self.substrate.earliest_fit(width, duration, from))
    }

    /// Advance virtual time to `to`, draining completions, releasing pending
    /// arrivals and consulting the policy at every event instant on the way
    /// (completion, arrival, or reservation breakpoint), in time order.
    pub fn advance(&mut self, to: Time) -> Result<&Effects, ServiceError> {
        self.not_past(to)?;
        Ok(self.advance_clamped(to))
    }

    /// Advance virtual time to `max(now, to)`: the clock-driven variant of
    /// [`ScheduleService::advance`] that treats a stale target as "no time
    /// passed" instead of rejecting it. `resa serve --realtime` ticks the
    /// session with this before every request, so a wall-clock reading
    /// raced by another session's write batch can never poison the session
    /// with an [`ServiceError::InThePast`] rejection.
    pub fn advance_clamped(&mut self, to: Time) -> &Effects {
        self.fx_buf.clear();
        self.advance_into(to.max(self.auth.now));
        &self.fx_buf
    }

    /// Advance until no event is outstanding (all submitted jobs completed),
    /// leaving `now` at the last event instant.
    pub fn drain(&mut self) -> &Effects {
        self.fx_buf.clear();
        while let Some(at) = self.derived.next_event() {
            self.advance_into(at);
        }
        &self.fx_buf
    }

    /// Aggregate counters of the session so far.
    pub fn stats(&self) -> ServiceStats {
        self.derived
            .stats(&self.auth, self.machines, self.step.decisions)
    }

    /// The current schedule as per-job lifecycle records plus run metrics —
    /// the same shapes `resa replay` reports. Jobs still running carry their
    /// scheduled completion time.
    pub fn snapshot(&self) -> (Vec<JobRecord>, SimMetrics) {
        let auth = &self.auth;
        if auth.retired_metrics.jobs() == 0 {
            return records_of(&self.to_instance(), &auth.schedule);
        }
        // Retired placements already left the schedule (and the process, via
        // the record sink): report the live ones in the same `(started, id)`
        // order and merge the retired accumulator, so the metrics equal what
        // a never-retired twin reports bit for bit — the retired prefix was
        // a decision-order prefix, and the live placements continue that
        // order (pinned by `retirement_preserves_snapshot_and_stats`).
        let placements = auth.schedule.placements();
        let mut records: Vec<JobRecord> = placements.iter().map(|p| auth.record_of(p)).collect();
        records.sort_unstable_by_key(|r| (r.started, r.job));
        let mut acc = auth.retired_metrics.clone();
        for p in placements {
            acc.record(&auth.jobs[auth.pos_of(p.job)], p.start);
        }
        let profile = ResourceProfile::from_reservations(self.machines, &auth.effective_overlay())
            .expect("the live substrate accepted every window");
        (records, acc.finish(&profile))
    }

    /// Retire every *leading* completed placement into `sink`, then compact
    /// the job catalog, so a long-running session's resident set tracks the
    /// active jobs instead of the whole history. Returns how many records
    /// were written.
    ///
    /// Only a decision-order *prefix* of the schedule is retired — that is
    /// what keeps the merged metrics of [`ScheduleService::snapshot`]
    /// bit-identical to a never-retired twin (the bounded-slowdown sum is a
    /// non-associative `f64` fold). A completed placement behind a still-live
    /// one simply waits its turn; with FIFO-ish completion orders the prefix
    /// covers almost everything.
    ///
    /// Catalog compaction has the same prefix shape: positions are freed
    /// once every earlier position is also retired. A drain-preempted job
    /// re-queues under its original id (both [`DrainMode`]s), so its entry
    /// blocks compaction only until it re-runs and completes. Retiring
    /// sessions cannot be checkpointed ([`ScheduleService::state`] panics)
    /// or oracle-compared.
    pub fn retire_completed<K: RecordSink>(&mut self, sink: &mut K) -> usize {
        let auth = &mut self.auth;
        // 1. The longest leading run of completed placements (between
        //    requests a run that ended by `now` has been drained).
        let placements = auth.schedule.placements().iter();
        let n = placements
            .take_while(|p| auth.completion(p) <= auth.now)
            .count();
        if n == 0 {
            return 0;
        }
        // 2. Retire it: fold metrics in decision order, emit records, mark
        //    the catalog entries.
        let mut i = 0usize;
        let retired = auth.schedule.retire_where(|_| {
            i += 1;
            i <= n
        });
        for p in &retired {
            let pos = auth.pos_of(p.job);
            auth.retired_metrics.record(&auth.jobs[pos], p.start);
            auth.retired_placement[pos] = true;
            sink.record(auth.record_of(p));
        }
        // 3. Compact the leading fully-retired run of the catalog; no queue
        //    and no heap names a retired position.
        let k = auth.retired_placement.iter().take_while(|&&r| r).count();
        if k > 0 {
            let gone = auth.jobs.drain(..k).map(|j| u128::from(j.duration.0)).sum();
            auth.flags.drain(..k);
            auth.retired_placement.drain(..k);
            auth.base += k;
            auth.waiting.rebase(k);
            self.derived.compacted(k, gone);
        }
        n
    }

    /// Freeze the availability substrate into an immutable,
    /// generation-stamped [`TimelineSnapshot`] (see
    /// [`resa_core::snapshot`]). The write-lock holder of
    /// [`crate::concurrent::ConcurrentService`] calls this at every batch
    /// boundary — no transaction mark is ever outstanding between requests,
    /// so the frozen function is exactly the committed state.
    pub fn freeze_timeline(&self, generation: u64) -> TimelineSnapshot
    where
        C: Snapshotable,
    {
        self.substrate.freeze(generation)
    }

    /// The session so far as an equivalent off-line instance: every
    /// submitted job with its release date, plus the effective (possibly
    /// cancellation-truncated) reservation windows. Replaying this instance
    /// through the batch [`crate::engine::Simulator`] under the same policy
    /// reproduces the service's schedule whenever the overlay was fixed
    /// before the first submission (see the module docs).
    pub fn to_instance(&self) -> ResaInstance {
        let (jobs, overlay) = (self.auth.jobs.clone(), self.auth.effective_overlay());
        ResaInstance::new(self.machines, jobs, overlay)
            .expect("the live substrate accepted every window")
    }

    /// The oracle view of the session: the off-line instance and schedule
    /// the batch [`crate::engine::Simulator`] must be compared against when
    /// the session contains deadline-committed jobs.
    ///
    /// Committed jobs are placed by admission, not by the on-line policy, so
    /// the off-line engine cannot re-derive them — they become overlay
    /// windows (capacity withdrawn at their committed placement) instead of
    /// instance jobs, and both the remaining jobs and the service's
    /// placements are re-densified over the non-committed population. For a
    /// session without committed jobs this degenerates to
    /// `(to_instance(), schedule().clone())`.
    pub fn oracle_parts(&self) -> (ResaInstance, Schedule) {
        let auth = &self.auth;
        assert!(
            auth.base == 0,
            "the off-line oracle needs the full job catalog; retiring \
             sessions are excluded from oracle comparisons"
        );
        let mut remap = vec![usize::MAX; auth.jobs.len()];
        let mut jobs = Vec::new();
        for (pos, job) in auth.jobs.iter().enumerate() {
            if auth.flags[pos].guaranteed {
                continue;
            }
            remap[pos] = jobs.len();
            let id = JobId(jobs.len());
            jobs.push(Job { id, ..*job });
        }
        let mut overlay = auth.effective_overlay();
        let mut placements = Vec::new();
        for p in auth.schedule.placements() {
            let job = auth.jobs[p.job.0];
            if auth.flags[p.job.0].guaranteed {
                let id = overlay.len();
                overlay.push(Reservation::new(id, job.width, job.duration, p.start));
            } else {
                placements.push(Placement {
                    job: JobId(remap[p.job.0]),
                    start: p.start,
                });
            }
        }
        let instance = ResaInstance::new(self.machines, jobs, overlay)
            .expect("the live substrate accepted every window");
        (instance, Schedule::from_placements(placements))
    }

    // -- internals ----------------------------------------------------------

    /// Walk virtual time forward to `to` (not in the past), appending starts
    /// and completions to the effects buffer.
    fn advance_into(&mut self, to: Time) {
        let before = self.fx_buf.completed.len();
        while let Some(at) = self.derived.next_event() {
            if at > to {
                break;
            }
            self.auth.now = at;
            // Drain every event at this instant, then decide once —
            // completions and availability changes act only through the
            // substrate (job windows end by themselves), arrivals join the
            // waiting set in id order. Only *batch-engine-visible* events
            // earn the decision: ordinary completions, arrivals and
            // normalized breakpoints. A committed (deadline-guaranteed)
            // job's completion is an overlay-window edge to the off-line
            // engine — its committed window participates in breakpoint
            // normalization instead, so an edge cancelled by an
            // equal-capacity boundary triggers no decision on either side.
            let mut decide = false;
            while let Some(pos) = self.derived.pop_completion(at) {
                self.fx_buf.completed.push((self.auth.id_at(pos), at));
                decide |= !self.auth.flags[pos].guaranteed;
            }
            while let Some(pos) = self.derived.pop_arrival(at) {
                self.enqueue(pos);
                decide = true;
            }
            decide |= self.derived.pop_edge(at);
            if decide {
                self.decide_now();
            }
        }
        self.auth.now = to;
        // Forget the availability function behind the clock: nothing reads
        // it again (every substrate mutation starts at `max(now, ·)`, every
        // probe clamps to `now`), and without this each finished run would
        // leave its two breakpoints in the substrate for the life of the
        // session. Always between requests, so no transaction mark is
        // outstanding.
        let drained = self.fx_buf.completed.len() - before;
        self.step.retire(drained, &mut self.substrate, to);
    }

    /// Consult the policy at the current instant and apply its starts (the
    /// shared [`DecisionStep`]), appending them to the effects buffer; the
    /// bookkeeping of a start beyond substrate and waiting list is the
    /// service's own.
    fn decide_now(&mut self) {
        let now = self.auth.now;
        self.step.decide(
            &self.policy,
            now,
            &self.auth.jobs,
            &mut self.auth.waiting,
            &mut self.substrate,
            |pos, job, completion| {
                self.auth.schedule.place(job.id, now);
                self.derived.started(pos, completion);
                self.fx_buf.started.push(Placement {
                    job: job.id,
                    start: now,
                });
            },
        );
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;

    fn timeline_service(m: u32, policy: ReferencePolicy) -> ScheduleService<AvailabilityTimeline> {
        ScheduleService::new(policy, AvailabilityTimeline::constant(m))
    }

    fn profile_service(m: u32, policy: ReferencePolicy) -> ScheduleService<ResourceProfile> {
        ScheduleService::new(policy, ResourceProfile::constant(m))
    }

    #[test]
    fn submit_starts_immediately_when_it_fits() {
        let mut svc = timeline_service(4, ReferencePolicy::Easy);
        let (id, fx) = svc.submit(2, Dur(5), None).unwrap();
        assert_eq!(id, JobId(0));
        assert_eq!(
            fx.started,
            vec![Placement {
                job: id,
                start: Time(0)
            }]
        );
        assert_eq!(svc.stats().running, 1);
        assert_eq!(svc.decisions(), 1);
    }

    #[test]
    fn blocked_submission_waits_for_completion() {
        let mut svc = timeline_service(4, ReferencePolicy::Fcfs);
        svc.submit(4, Dur(10), None).unwrap();
        let (j1, fx) = svc.submit(2, Dur(3), None).unwrap();
        assert!(fx.started.is_empty(), "no room while J0 runs");
        let fx = svc.advance(Time(10)).unwrap();
        assert_eq!(fx.completed, vec![(JobId(0), Time(10))]);
        assert_eq!(
            fx.started,
            vec![Placement {
                job: j1,
                start: Time(10)
            }]
        );
    }

    #[test]
    fn future_release_arrives_during_advance() {
        let mut svc = timeline_service(4, ReferencePolicy::Greedy);
        let (id, fx) = svc.submit(1, Dur(2), Some(Time(7))).unwrap();
        assert!(fx.started.is_empty());
        assert_eq!(svc.stats().pending, 1);
        let fx = svc.advance(Time(8)).unwrap();
        assert_eq!(
            fx.started,
            vec![Placement {
                job: id,
                start: Time(7)
            }]
        );
        assert_eq!(svc.now(), Time(8));
    }

    #[test]
    fn reservation_blocks_and_cancellation_frees() {
        let mut svc = timeline_service(4, ReferencePolicy::Fcfs);
        let (rid, _) = svc.reserve(4, Dur(100), Time(0)).unwrap();
        let (id, fx) = svc.submit(2, Dur(5), None).unwrap();
        assert!(fx.started.is_empty(), "cluster fully reserved");
        // Cancelling at t=0 frees the whole window (nothing elapsed)...
        svc.advance(Time(1)).unwrap();
        let fx = svc.cancel(rid).unwrap();
        // ...at t=1 the elapsed prefix [0,1) stays, the rest is released and
        // the capacity change wakes the policy.
        assert_eq!(
            fx.started,
            vec![Placement {
                job: id,
                start: Time(1)
            }]
        );
        assert!(matches!(
            svc.cancel(rid),
            Err(ServiceError::ReservationInactive { .. })
        ));
    }

    /// Regression: a job blocked *only* by a not-yet-started reservation
    /// must start when that reservation is cancelled — with the window gone
    /// there is no future event left to wake the policy, so the cancel
    /// itself has to.
    #[test]
    fn cancelling_a_future_reservation_unblocks_waiting_jobs() {
        let mut svc = timeline_service(4, ReferencePolicy::Fcfs);
        let (rid, _) = svc.reserve(4, Dur(10), Time(10)).unwrap();
        let (id, fx) = svc.submit(4, Dur(15), None).unwrap();
        assert!(fx.started.is_empty(), "run overlaps the future window");
        let fx = svc.cancel(rid).unwrap();
        assert_eq!(
            fx.started,
            vec![Placement {
                job: id,
                start: Time(0)
            }]
        );
        let fx = svc.drain();
        assert_eq!(fx.completed, vec![(id, Time(15))]);
        assert_eq!(svc.stats().waiting, 0);
    }

    #[test]
    fn rejected_reservation_rolls_back_cleanly() {
        let mut svc = timeline_service(4, ReferencePolicy::Easy);
        svc.submit(3, Dur(10), None).unwrap();
        let before = svc.substrate.to_profile();
        let err = svc.reserve(2, Dur(5), Time(3)).unwrap_err();
        assert!(matches!(err, ServiceError::ReservationRejected { .. }));
        assert_eq!(svc.substrate.to_profile(), before, "rejection left a trace");
        assert!(svc.windows(WindowKind::Reservation).is_empty());
    }

    #[test]
    fn query_probe_does_not_mutate_state() {
        let mut svc = timeline_service(4, ReferencePolicy::Easy);
        svc.reserve(3, Dur(10), Time(2)).unwrap();
        svc.submit(2, Dur(4), None).unwrap();
        let before = (svc.substrate.to_profile(), svc.snapshot());
        let probe = svc.query(4, Dur(5), None).unwrap().unwrap();
        assert_eq!(probe, Time(12), "behind the reservation and J0");
        let after = (svc.substrate.to_profile(), svc.snapshot());
        assert_eq!(before, after, "query mutated observable state");
        assert!(!svc.substrate.in_transaction());
        // A probe is a read: no number of them grows the substrate.
        let breakpoints = svc.substrate.breakpoints();
        for i in 0..1_000u64 {
            let (width, duration) = (1 + (i % 4) as u32, Dur(1 + i % 9));
            svc.query(width, duration, Some(Time(i % 40))).unwrap();
        }
        assert_eq!(svc.substrate.breakpoints(), breakpoints);
        // Degenerate probes are answered, not executed.
        assert_eq!(
            svc.query(4, Dur(1), Some(Time(50))).unwrap(),
            Some(Time(50))
        );
        assert!(matches!(
            svc.query(5, Dur(1), None),
            Err(ServiceError::BadWidth { .. })
        ));
    }

    #[test]
    fn validation_errors() {
        let mut svc = timeline_service(4, ReferencePolicy::Fcfs);
        assert!(matches!(
            svc.submit(0, Dur(1), None),
            Err(ServiceError::BadWidth { .. })
        ));
        assert!(matches!(
            svc.submit(1, Dur(0), None),
            Err(ServiceError::ZeroDuration)
        ));
        svc.advance(Time(5)).unwrap();
        assert!(matches!(
            svc.submit(1, Dur(1), Some(Time(3))),
            Err(ServiceError::InThePast { .. })
        ));
        assert!(matches!(
            svc.reserve(1, Dur(1), Time(3)),
            Err(ServiceError::InThePast { .. })
        ));
        assert!(matches!(
            svc.advance(Time(4)),
            Err(ServiceError::InThePast { .. })
        ));
        assert!(matches!(
            svc.cancel(7),
            Err(ServiceError::UnknownReservation { id: 7 })
        ));
    }

    #[test]
    fn stats_and_snapshot_track_the_session() {
        let mut svc = timeline_service(4, ReferencePolicy::Greedy);
        svc.submit(2, Dur(4), None).unwrap();
        svc.submit(2, Dur(2), None).unwrap();
        svc.submit(4, Dur(1), None).unwrap(); // blocked
        svc.advance(Time(2)).unwrap();
        let stats = svc.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.running, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.waiting, 1);
        assert_eq!(stats.makespan, Time(4));
        let (records, metrics) = svc.snapshot();
        assert_eq!(records.len(), 2, "snapshot lists started jobs");
        assert_eq!(metrics.jobs, 2);
        let fx = svc.drain();
        assert_eq!(fx.completed.len(), 2);
        assert_eq!(svc.stats().completed, 3);
        assert_eq!(svc.stats().makespan, Time(5));
    }

    // -- scenario semantics --------------------------------------------------

    #[test]
    fn inject_preempts_overlapping_jobs_and_restarts_them() {
        let mut svc = timeline_service(4, ReferencePolicy::Fcfs);
        let (j0, _) = svc.submit(4, Dur(10), None).unwrap();
        svc.advance(Time(2)).unwrap();
        // The whole cluster fails during [2, 7): J0 must die.
        let (d, fx) = svc.inject(4, Dur(5), Time(2)).unwrap();
        assert_eq!(d, 0);
        assert!(
            fx.started.is_empty(),
            "nothing can restart inside the drain"
        );
        assert_eq!(svc.last_preempted(), &[j0]);
        assert_eq!(svc.schedule().len(), 0, "the placement was revoked");
        let stats = svc.stats();
        assert_eq!((stats.running, stats.waiting), (0, 1));
        assert_eq!(stats.makespan, Time::ZERO, "makespan recomputed downward");
        // Restart mode: the victim redoes its full 10 ticks after the drain.
        let fx = svc.drain();
        assert_eq!(fx.completed, vec![(j0, Time(17))]);
        assert_eq!(svc.schedule().start_of(j0), Some(Time(7)));
        assert!(svc.schedule().is_valid(&svc.to_instance()));
    }

    #[test]
    fn checkpoint_mode_requeues_only_the_remaining_duration() {
        let mut svc = timeline_service(4, ReferencePolicy::Fcfs);
        svc.set_drain_mode(DrainMode::Checkpoint);
        let (j0, _) = svc.submit(4, Dur(10), None).unwrap();
        svc.advance(Time(2)).unwrap();
        svc.inject(4, Dur(5), Time(2)).unwrap();
        // 2 of 10 ticks were banked; 8 remain, restarting at 7.
        let fx = svc.drain();
        assert_eq!(fx.completed, vec![(j0, Time(15))]);
        assert_eq!(svc.schedule().start_of(j0), Some(Time(7)));
    }

    #[test]
    fn drain_at_a_completion_instant_preempts_nothing() {
        let mut svc = timeline_service(4, ReferencePolicy::Fcfs);
        let (j0, _) = svc.submit(4, Dur(5), None).unwrap();
        // J0 runs [0, 5); a full-cluster drain starting exactly at its
        // completion instant touches no half-open run window.
        let (_, _) = svc.inject(4, Dur(3), Time(5)).unwrap();
        assert!(svc.last_preempted().is_empty());
        let fx = svc.drain();
        assert_eq!(fx.completed, vec![(j0, Time(5))]);
        assert_eq!(svc.schedule().start_of(j0), Some(Time(0)));
    }

    #[test]
    fn inject_kills_the_minimal_most_recent_prefix() {
        // 4 machines: J0 (2 wide) starts at 0, J1 (2 wide) starts at 0.
        // A 2-wide drain needs only one victim — the most recently started
        // (highest id on the tie), J1.
        let mut svc = timeline_service(4, ReferencePolicy::Fcfs);
        let (j0, _) = svc.submit(2, Dur(10), None).unwrap();
        let (j1, _) = svc.submit(2, Dur(10), None).unwrap();
        svc.advance(Time(1)).unwrap();
        let (_, fx) = svc.inject(2, Dur(4), Time(1)).unwrap();
        assert!(fx.started.is_empty());
        assert_eq!(svc.last_preempted(), &[j1]);
        assert_eq!(svc.schedule().start_of(j0), Some(Time(0)), "J0 survives");
        let fx = svc.drain();
        assert!(fx.completed.contains(&(j0, Time(10))));
        assert_eq!(svc.schedule().start_of(j1), Some(Time(5)));
    }

    #[test]
    fn drains_never_preempt_guaranteed_jobs() {
        let mut svc = timeline_service(4, ReferencePolicy::Fcfs);
        let (j0, outcome, _) = svc
            .submit_deadline(4, Dur(10), None, Time(10), AdmissionPolicy::Reject)
            .unwrap();
        assert_eq!(
            outcome,
            DeadlineOutcome::Committed {
                start: Time(0),
                completion: Time(10)
            }
        );
        let before = svc.substrate.to_profile();
        let err = svc.inject(1, Dur(2), Time(3)).unwrap_err();
        assert!(matches!(err, ServiceError::ReservationRejected { .. }));
        assert_eq!(svc.substrate.to_profile(), before, "rejection left a trace");
        assert!(svc.windows(WindowKind::Drain).is_empty());
        let fx = svc.drain();
        assert_eq!(fx.completed, vec![(j0, Time(10))], "the guarantee held");
    }

    #[test]
    fn revoke_of_a_partially_elapsed_drain_frees_only_the_future() {
        let mut svc = timeline_service(4, ReferencePolicy::Fcfs);
        let (d, _) = svc.inject(4, Dur(10), Time(0)).unwrap();
        let (j0, fx) = svc.submit(4, Dur(2), None).unwrap();
        assert!(fx.started.is_empty(), "cluster fully drained");
        svc.advance(Time(3)).unwrap();
        // The failure heals at t = 3: [3, 10) is released, [0, 3) stands.
        let fx = svc.revoke(d).unwrap();
        assert_eq!(
            fx.started,
            vec![Placement {
                job: j0,
                start: Time(3)
            }]
        );
        let drain = svc.windows(WindowKind::Drain)[0];
        assert_eq!((drain.end, drain.released), (Time(3), true));
        assert!(matches!(
            svc.revoke(d),
            Err(ServiceError::DrainInactive { .. })
        ));
        assert!(matches!(
            svc.revoke(9),
            Err(ServiceError::UnknownDrain { id: 9 })
        ));
    }

    #[test]
    fn deadline_exactly_at_the_bound_admits() {
        let mut svc = timeline_service(4, ReferencePolicy::Easy);
        // Earliest completion of a 2×5 job on a free cluster is 5: a due
        // date of exactly 5 admits (half-open windows — the job has finished
        // *by* instant 5), one tick earlier rejects.
        let err = svc
            .submit_deadline(2, Dur(5), None, Time(4), AdmissionPolicy::Reject)
            .unwrap_err();
        assert_eq!(
            err,
            ServiceError::DeadlineUnmet {
                deadline: Time(4),
                bound: Some(Time(5)),
            }
        );
        assert_eq!(svc.stats().submitted, 0, "a rejected job leaves no trace");
        let (_, outcome, _) = svc
            .submit_deadline(2, Dur(5), None, Time(5), AdmissionPolicy::Reject)
            .unwrap();
        assert_eq!(
            outcome,
            DeadlineOutcome::Committed {
                start: Time(0),
                completion: Time(5)
            }
        );
    }

    #[test]
    fn boosted_jobs_jump_the_waiting_queue() {
        let mut svc = timeline_service(4, ReferencePolicy::Fcfs);
        svc.submit(4, Dur(10), None).unwrap();
        let (j1, _) = svc.submit(4, Dur(5), None).unwrap();
        // J2's bound (completion 25 at the earliest) misses its due date;
        // Boost admits it at the *front* of the queue, ahead of J1.
        let (j2, outcome, _) = svc
            .submit_deadline(4, Dur(5), None, Time(12), AdmissionPolicy::Boost)
            .unwrap();
        assert_eq!(outcome, DeadlineOutcome::Boosted);
        assert!(svc.job_flags()[j2.0].boosted);
        assert!(!svc.job_flags()[j2.0].guaranteed);
        svc.drain();
        assert_eq!(svc.schedule().start_of(j2), Some(Time(10)));
        assert_eq!(svc.schedule().start_of(j1), Some(Time(15)));
    }

    #[test]
    fn moldable_submission_concretizes_and_schedules() {
        let mut svc = timeline_service(8, ReferencePolicy::Easy);
        let (id, choice, fx) = svc.submit_moldable(&[1, 2, 4], 12).unwrap();
        assert_eq!((choice.width, choice.duration), (4, Dur(3)));
        assert_eq!(
            fx.started,
            vec![Placement {
                job: id,
                start: Time(0)
            }]
        );
        // The concretized job is an ordinary rigid job from here on.
        assert_eq!(svc.to_instance().jobs()[id.0].width, 4);
        assert!(matches!(
            svc.submit_moldable(&[], 4),
            Err(ServiceError::Moldable { .. })
        ));
        assert!(matches!(
            svc.submit_moldable(&[9], 4),
            Err(ServiceError::Moldable { .. })
        ));
    }

    #[test]
    fn scenario_state_snapshot_roundtrips() {
        let mut svc = timeline_service(4, ReferencePolicy::Fcfs);
        svc.submit(4, Dur(10), None).unwrap();
        svc.submit(2, Dur(3), None).unwrap();
        svc.advance(Time(2)).unwrap();
        svc.inject(4, Dur(3), Time(2)).unwrap();
        svc.submit_deadline(1, Dur(2), Some(Time(20)), Time(30), AdmissionPolicy::Reject)
            .unwrap();
        svc.submit_deadline(4, Dur(9), None, Time(10), AdmissionPolicy::Boost)
            .unwrap();
        let state = svc.state();
        let restored = ScheduleService::restore(
            ReferencePolicy::Fcfs,
            &state,
            AvailabilityTimeline::constant(4),
        );
        assert_eq!(restored.state(), state, "restore must be idempotent");
        let mut live = svc;
        let mut restored = restored;
        live.drain();
        restored.drain();
        assert_eq!(live.schedule(), restored.schedule());
        assert_eq!(live.stats(), restored.stats());
    }

    /// The scripted session of the golden CLI tests, driven through the
    /// library API on both substrates: identical schedules, and the session
    /// replayed off-line through the batch engine reproduces them.
    #[test]
    fn scripted_session_replays_offline_on_both_substrates() {
        fn script<C: CapacityQuery + Speculate>(svc: &mut ScheduleService<C>) {
            svc.reserve(2, Dur(6), Time(4)).unwrap();
            svc.reserve(1, Dur(3), Time(20)).unwrap();
            svc.submit(3, Dur(5), None).unwrap();
            svc.submit(2, Dur(4), None).unwrap();
            svc.query(4, Dur(2), None).unwrap();
            svc.advance(Time(5)).unwrap();
            svc.submit(4, Dur(3), None).unwrap();
            svc.submit(1, Dur(8), Some(Time(9))).unwrap();
            svc.advance(Time(12)).unwrap();
            svc.submit(2, Dur(2), None).unwrap();
            svc.drain();
        }
        for policy in [
            ReferencePolicy::Fcfs,
            ReferencePolicy::Easy,
            ReferencePolicy::Greedy,
        ] {
            let mut tl = timeline_service(4, policy);
            let mut pf = profile_service(4, policy);
            script(&mut tl);
            script(&mut pf);
            assert_eq!(
                tl.schedule(),
                pf.schedule(),
                "substrates diverged under {}",
                policy.name()
            );
            let offline = Simulator::new(tl.to_instance()).run(&policy);
            assert_eq!(
                offline.schedule,
                *tl.schedule(),
                "off-line replay diverged under {}",
                policy.name()
            );
            assert!(tl.schedule().is_valid(&tl.to_instance()));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::engine::Simulator;
    use crate::op::Op;
    use crate::test_ops::{op_spec, OpSpec, View};
    use proptest::prelude::*;

    const POLICIES: [ReferencePolicy; 3] = [
        ReferencePolicy::Fcfs,
        ReferencePolicy::Easy,
        ReferencePolicy::Greedy,
    ];

    /// A generated session: machines, drain-mode bit, ops declared up front
    /// (at t = 0), then the session's traffic. Both lists draw from the
    /// whole op surface; each test keeps the kinds its oracle admits.
    type RawSession = (u32, u32, Vec<OpSpec>, Vec<OpSpec>);

    fn arb_session() -> impl Strategy<Value = RawSession> {
        let upfront = proptest::collection::vec(op_spec(), 0usize..=40);
        let reqs = proptest::collection::vec(op_spec(), 1usize..=40);
        (2u32..=8, 0u32..=1, upfront, reqs)
    }

    fn drain_mode(bit: u32) -> DrainMode {
        if bit == 0 {
            DrainMode::Restart
        } else {
            DrainMode::Checkpoint
        }
    }

    /// Submits, probes and time advances: with the overlay fixed up front,
    /// what an off-line replay of the session reproduces (see the module
    /// docs for why mid-run overlay changes legitimately diverge from a
    /// replay that knows them from t = 0).
    fn basic(op: &Op) -> bool {
        matches!(
            op,
            Op::Submit { .. } | Op::Query { .. } | Op::Advance { .. }
        )
    }

    /// Overlay mutations the scenario oracle accepts up front: windows,
    /// their revocation, and deadline submissions that either commit or
    /// leave no trace.
    fn overlay(op: &Op) -> bool {
        let reject = AdmissionPolicy::Reject;
        matches!(
            op,
            Op::Reserve { .. } | Op::Inject { .. } | Op::Revoke { .. }
        ) || matches!(op, Op::SubmitDeadline { admission, .. } if *admission == reject)
    }

    /// Decode `spec` against the service and, if `keep` admits the op, apply
    /// it; returns a comparable digest of the response.
    fn step<C: CapacityQuery + Speculate>(
        svc: &mut ScheduleService<C>,
        spec: &OpSpec,
        keep: fn(&Op) -> bool,
    ) -> String {
        let op = spec.decode(&View::of(svc));
        if keep(&op) {
            let reply = format!("{op:?} -> {:?}", svc.apply(&op));
            svc.assert_derived_matches_rebuild();
            reply
        } else {
            String::new()
        }
    }

    /// Drive one phased session — `upfront` ops of the `declared` kinds at
    /// t = 0, then `reqs` of the `traffic` kinds — on both substrates,
    /// lock-step comparing every response, then drain and replay off-line
    /// through the batch engine via [`ScheduleService::oracle_parts`]
    /// (which, without committed jobs, is the session's own instance and
    /// schedule). Returns a description of the first divergence, if any.
    fn check_session(
        m: u32,
        (upfront, declared): (&[OpSpec], fn(&Op) -> bool),
        (reqs, traffic): (&[OpSpec], fn(&Op) -> bool),
        policy: ReferencePolicy,
    ) -> Result<(), String> {
        let mut tl = ScheduleService::new(policy, AvailabilityTimeline::constant(m));
        let mut pf = ScheduleService::new(policy, ResourceProfile::constant(m));
        let phases = [(upfront, declared), (reqs, traffic)];
        for (i, (spec, keep)) in phases
            .iter()
            .flat_map(|(specs, keep)| specs.iter().map(move |s| (s, *keep)))
            .enumerate()
        {
            let (a, b) = (step(&mut tl, spec, keep), step(&mut pf, spec, keep));
            if a != b {
                return Err(format!("op {i} diverged: {a} vs {b}"));
            }
        }
        tl.drain();
        pf.drain();
        if tl.schedule() != pf.schedule() {
            return Err("substrates diverged after drain".to_string());
        }
        let (instance, schedule) = tl.oracle_parts();
        let offline = Simulator::new(instance.clone()).run(&policy);
        if offline.schedule != schedule {
            return Err(format!(
                "off-line replay diverged under {}: {:?} vs {:?}",
                policy.name(),
                offline.schedule,
                schedule
            ));
        }
        if !schedule.is_valid(&instance) {
            return Err("service schedule is infeasible".to_string());
        }
        Ok(())
    }

    /// Capture [`ServiceState`] after `cut` of `reqs`, restore it onto a
    /// fresh substrate, and check the restored service answers every
    /// remaining request identically and drains to the identical schedule.
    fn check_restore(
        m: u32,
        mode: DrainMode,
        (upfront, declared): (&[OpSpec], fn(&Op) -> bool),
        (reqs, traffic): (&[OpSpec], fn(&Op) -> bool),
        cut: usize,
        policy: ReferencePolicy,
    ) -> Result<(), String> {
        let mut live = ScheduleService::new(policy, AvailabilityTimeline::constant(m));
        live.set_drain_mode(mode);
        for spec in upfront {
            step(&mut live, spec, declared);
        }
        for spec in &reqs[..cut] {
            step(&mut live, spec, traffic);
        }
        let state = live.state();
        let mut restored =
            ScheduleService::restore(policy, &state, AvailabilityTimeline::constant(m));
        restored.set_drain_mode(mode);
        restored.assert_derived_matches_rebuild();
        if restored.state() != state {
            return Err("restore must be idempotent".to_string());
        }
        for (i, spec) in reqs[cut..].iter().enumerate() {
            let a = step(&mut live, spec, traffic);
            let b = step(&mut restored, spec, traffic);
            if a != b {
                return Err(format!(
                    "request {} diverged after restore: {a} vs {b}",
                    cut + i
                ));
            }
        }
        live.drain();
        restored.drain();
        if live.schedule() != restored.schedule() || live.stats() != restored.stats() {
            return Err("drained sessions diverged after restore".to_string());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any generated session (overlay fixed up front, then submits /
        /// probes / time advances in adversarial order), drained and
        /// replayed as an off-line instance through the batch engine,
        /// yields the identical schedule — on both substrates, under every
        /// policy.
        #[test]
        fn sessions_replay_offline_identically(session in arb_session()) {
            let (m, _, upfront, reqs) = session;
            let reservations = |op: &Op| matches!(op, Op::Reserve { .. });
            for policy in POLICIES {
                let outcome = check_session(m, (&upfront, reservations), (&reqs, basic), policy);
                prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
            }
        }

        /// Capturing [`ServiceState`] at *any* request boundary and
        /// restoring it onto a fresh substrate yields a service that answers
        /// every remaining request identically and drains to the identical
        /// schedule — the foundation the journal's snapshot compaction
        /// stands on.
        #[test]
        fn state_restore_roundtrip(session in arb_session(), cut in 0usize..=40) {
            let (m, _, upfront, reqs) = session;
            let reservations = |op: &Op| matches!(op, Op::Reserve { .. });
            let cut = cut.min(reqs.len());
            for policy in POLICIES {
                let outcome = check_restore(
                    m,
                    DrainMode::Restart,
                    (&upfront, reservations),
                    (&reqs, basic),
                    cut,
                    policy,
                );
                prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
            }
        }

        /// Scenario sessions whose overlay mutations (reservations, drains,
        /// revokes, committed deadline jobs) are declared up front reproduce
        /// the off-line batch engine bit for bit on both substrates, under
        /// every policy — the PR 5 / PR 7 oracle extended to drains,
        /// guarantees, and moldable jobs.
        #[test]
        fn scenario_sessions_replay_offline_identically(session in arb_session()) {
            let (m, _, upfront, reqs) = session;
            // Phase 2 sticks to submit / query / advance / moldable so the
            // overlay stays as declared at t = 0 (the oracle's contract).
            let traffic = |op: &Op| basic(op) || matches!(op, Op::SubmitMoldable { .. });
            for policy in POLICIES {
                let outcome = check_session(m, (&upfront, overlay), (&reqs, traffic), policy);
                prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
            }
        }

        /// Free interleavings of every service op — including mid-run
        /// drains, revokes, deadline admission under both policies, and
        /// moldable submissions — stay lock-step identical across
        /// substrates, drain to a feasible schedule, and never miss an
        /// accepted deadline. (Mid-run preemption legitimately diverges from
        /// an up-front off-line replay, so the oracle here is the *other
        /// substrate* plus the guarantees themselves.)
        #[test]
        fn scenario_interleavings_agree_and_keep_guarantees(session in arb_session()) {
            let (m, mode, upfront, reqs) = session;
            for policy in POLICIES {
                let mut tl = ScheduleService::new(policy, AvailabilityTimeline::constant(m));
                let mut pf = ScheduleService::new(policy, ResourceProfile::constant(m));
                tl.set_drain_mode(drain_mode(mode));
                pf.set_drain_mode(drain_mode(mode));
                for (i, spec) in upfront.iter().chain(&reqs).enumerate() {
                    let a = step(&mut tl, spec, |_| true);
                    let b = step(&mut pf, spec, |_| true);
                    prop_assert_eq!(a, b, "op {} diverged", i);
                }
                tl.drain();
                pf.drain();
                prop_assert_eq!(tl.schedule(), pf.schedule());
                prop_assert_eq!(tl.stats(), pf.stats());
                let instance = tl.to_instance();
                prop_assert!(
                    tl.schedule().is_valid(&instance),
                    "drained scenario schedule is infeasible"
                );
                // The admission guarantee: every committed job finished by
                // its due date, no matter what failed around it.
                for (pos, flags) in tl.job_flags().iter().enumerate() {
                    if flags.guaranteed {
                        let deadline = flags.deadline.expect("guaranteed implies a deadline");
                        let start = tl
                            .schedule()
                            .start_of(JobId(pos))
                            .expect("guaranteed job must stay placed");
                        let completion = start.saturating_add(instance.jobs()[pos].duration);
                        prop_assert!(
                            completion <= deadline,
                            "guaranteed job {} missed its deadline: {:?} > {:?}",
                            pos, completion, deadline
                        );
                    }
                }
            }
        }

        /// [`ServiceState`] round-trips at any boundary of a full scenario
        /// session: drains, flags, and the persisted waiting-queue order all
        /// survive, and the restored service answers every remaining request
        /// identically under both drain modes.
        #[test]
        fn scenario_state_restore_roundtrip(session in arb_session(), cut in 0usize..=40) {
            let (m, mode, upfront, reqs) = session;
            let cut = cut.min(reqs.len());
            for policy in POLICIES {
                let outcome = check_restore(
                    m,
                    drain_mode(mode),
                    (&upfront, |_| true),
                    (&reqs, |_| true),
                    cut,
                    policy,
                );
                prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
            }
        }
    }
}

#[cfg(test)]
mod retirement_tests {
    use super::*;
    use crate::stream::VecSink;

    fn service(m: u32) -> ScheduleService<AvailabilityTimeline> {
        ScheduleService::new(ReferencePolicy::Easy, AvailabilityTimeline::constant(m))
    }

    /// `retire_completed`, then the derived index — the rebased heaps
    /// included — is held against a rebuild from what is left.
    fn retire(svc: &mut ScheduleService<AvailabilityTimeline>, sink: &mut VecSink) -> usize {
        let n = svc.retire_completed(sink);
        svc.assert_derived_matches_rebuild();
        n
    }

    #[test]
    fn retire_with_nothing_completed_returns_zero() {
        let mut svc = service(4);
        let mut sink = VecSink::default();
        assert_eq!(retire(&mut svc, &mut sink), 0);
        svc.submit(2, Dur(5), None).unwrap();
        assert_eq!(retire(&mut svc, &mut sink), 0, "the job is still running");
        assert!(sink.records.is_empty());
        assert_eq!(svc.auth.retired_metrics.jobs(), 0);
    }

    /// A retiring session reports the same stats and *bit-identical* snapshot
    /// metrics as a never-retired twin fed the same requests, and the sink
    /// records plus the live snapshot records reassemble the twin's full
    /// record set — on every policy.
    #[test]
    fn retirement_preserves_snapshot_and_stats() {
        for policy in [
            ReferencePolicy::Fcfs,
            ReferencePolicy::Easy,
            ReferencePolicy::Greedy,
        ] {
            let mut retiring = ScheduleService::new(policy, AvailabilityTimeline::constant(4));
            let mut twin = ScheduleService::new(policy, AvailabilityTimeline::constant(4));
            let mut sink = VecSink::default();
            // A saturating mix: widths cycle so jobs queue up, durations
            // stagger so completions interleave with arrivals.
            for i in 0..40u64 {
                let width = 1 + (i % 4) as u32;
                let duration = Dur(1 + (i * 7) % 9);
                let release = Some(Time(i));
                retiring.submit(width, duration, release).unwrap();
                twin.submit(width, duration, release).unwrap();
                if i % 5 == 4 {
                    retiring.advance(Time(i)).unwrap();
                    twin.advance(Time(i)).unwrap();
                    retire(&mut retiring, &mut sink);
                }
            }
            retiring.drain();
            twin.drain();
            retire(&mut retiring, &mut sink);
            assert!(
                retiring.auth.retired_metrics.jobs() > 0,
                "the mix must retire something"
            );
            assert_eq!(retiring.stats(), twin.stats(), "{policy:?}");
            let (live_records, metrics) = retiring.snapshot();
            let (twin_records, twin_metrics) = twin.snapshot();
            assert_eq!(
                metrics, twin_metrics,
                "{policy:?}: merged metrics must match"
            );
            let mut all = sink.records.clone();
            all.extend(live_records);
            all.sort_unstable_by_key(|r| (r.started, r.job));
            assert_eq!(all, twin_records, "{policy:?}: records must reassemble");
        }
    }

    #[test]
    fn compaction_shrinks_the_catalog_and_rebases_the_queue() {
        let mut svc = service(2);
        let mut sink = VecSink::default();
        // Width-2 jobs serialize: one runs, the rest wait in the queue.
        for _ in 0..6 {
            svc.submit(2, Dur(3), None).unwrap();
        }
        svc.advance(Time(6)).unwrap();
        assert_eq!(retire(&mut svc, &mut sink), 2);
        assert_eq!(svc.auth.retired_metrics.jobs(), 2);
        assert_eq!(
            sink.records.iter().map(|r| r.job).collect::<Vec<_>>(),
            vec![JobId(0), JobId(1)]
        );
        // The catalog now holds only the four live jobs; the waiting queue
        // was rebased across the compaction and keeps scheduling correctly.
        assert_eq!(svc.auth.jobs.len(), 4);
        svc.drain();
        assert_eq!(retire(&mut svc, &mut sink), 4);
        assert_eq!(
            svc.auth.jobs.len(),
            0,
            "a fully drained session compacts to empty"
        );
        let (records, metrics) = svc.snapshot();
        assert!(records.is_empty());
        assert_eq!(metrics.jobs, 6);
        assert_eq!(metrics.makespan, Time(18));
        assert_eq!(svc.stats().submitted, 6);
        let ids: Vec<JobId> = sink.records.iter().map(|r| r.job).collect();
        assert_eq!(ids, (0..6).map(JobId).collect::<Vec<_>>());
    }

    #[test]
    fn ids_keep_counting_past_compaction() {
        let mut svc = service(2);
        let mut sink = VecSink::default();
        svc.submit(2, Dur(2), None).unwrap();
        svc.submit(2, Dur(2), None).unwrap();
        svc.advance(Time(2)).unwrap();
        assert_eq!(retire(&mut svc, &mut sink), 1);
        let (id, _) = svc.submit(1, Dur(1), None).unwrap();
        assert_eq!(id, JobId(2), "ids are global, not catalog positions");
        svc.drain();
        retire(&mut svc, &mut sink);
        let ids: Vec<usize> = sink.records.iter().map(|r| r.job.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    /// A drain preemption leaves a stale ghost entry in the running heap;
    /// retirement after the re-run must still be correct in both modes.
    #[test]
    fn retirement_after_a_drain_preemption() {
        for mode in [DrainMode::Restart, DrainMode::Checkpoint] {
            let mut svc = service(2);
            svc.set_drain_mode(mode);
            let mut sink = VecSink::default();
            svc.submit(2, Dur(10), None).unwrap();
            svc.advance(Time(2)).unwrap();
            svc.inject(2, Dur(3), Time(2)).unwrap();
            svc.drain();
            assert_eq!(retire(&mut svc, &mut sink), 1, "{mode:?}");
            let (records, metrics) = svc.snapshot();
            assert!(records.is_empty());
            assert_eq!(metrics.jobs, 1);
            assert_eq!(sink.records[0].job, JobId(0));
            assert_eq!(
                svc.auth.jobs.len(),
                0,
                "{mode:?}: catalog compacts after the re-run"
            );
        }
    }

    /// The oracle has teeth: one miscounted cache and it fires.
    #[test]
    #[should_panic(expected = "running / makespan")]
    fn a_broken_cache_fails_the_rebuild_oracle() {
        let mut svc = service(4);
        svc.submit(2, Dur(5), None).unwrap();
        svc.assert_derived_matches_rebuild();
        svc.derived.miscount_running();
        svc.assert_derived_matches_rebuild();
    }

    #[test]
    #[should_panic(expected = "retiring session cannot be checkpointed")]
    fn state_refuses_a_retiring_session() {
        let mut svc = service(2);
        let mut sink = VecSink::default();
        svc.submit(1, Dur(1), None).unwrap();
        svc.drain();
        assert_eq!(retire(&mut svc, &mut sink), 1);
        let _ = svc.state();
    }
}
