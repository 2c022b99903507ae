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

use crate::metrics::{MetricsAccumulator, SimMetrics};
use crate::op::{check_shape, Horizon};
use crate::policy::ReferencePolicy;
use crate::stream::{DecisionStep, RecordSink};
use crate::trace::{JobRecord, RunTrace};
use resa_core::capacity::Speculate;
use resa_core::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Errors a service request can be rejected with. The service state is
/// unchanged by a rejected request (transactional semantics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// A width of zero or wider than the cluster.
    BadWidth {
        /// The requested width.
        width: u32,
        /// The cluster size.
        machines: u32,
    },
    /// A zero duration.
    ZeroDuration,
    /// A release/start/advance instant before the current virtual time.
    InThePast {
        /// The requested instant.
        at: Time,
        /// The current virtual time.
        now: Time,
    },
    /// A reservation that does not fit the availability left by running jobs
    /// and earlier reservations.
    ReservationRejected {
        /// The underlying capacity error.
        reason: String,
    },
    /// A reservation id that does not exist.
    UnknownReservation {
        /// The offending id.
        id: usize,
    },
    /// A reservation that was already cancelled or has already ended.
    ReservationInactive {
        /// The offending id.
        id: usize,
    },
    /// A drain id that does not exist.
    UnknownDrain {
        /// The offending id.
        id: usize,
    },
    /// A drain that was already revoked or has already ended.
    DrainInactive {
        /// The offending id.
        id: usize,
    },
    /// A deadline submission whose speculative completion bound misses the
    /// due date under [`AdmissionPolicy::Reject`]. The job was not accepted
    /// and no state changed.
    DeadlineUnmet {
        /// The requested due date.
        deadline: Time,
        /// The earliest completion the speculative probe could certify
        /// (`None` when the shape never fits the availability function).
        bound: Option<Time>,
    },
    /// A moldable submission with an invalid width menu, zero area, or no
    /// shape that ever fits the availability function.
    Moldable {
        /// Human-readable cause.
        reason: String,
    },
    /// An instant or duration so large that accepting the op could make a
    /// `Time + Dur` the service or a policy computes overflow (see
    /// [`crate::op::Horizon`]). Refused at admission: nothing was journaled
    /// and no state changed.
    HorizonOverflow,
    /// The single-writer loop of a [`crate::concurrent::ConcurrentService`]
    /// has shut down; no further mutating requests can be applied.
    ServiceStopped,
    /// The write-ahead journal of a durable service rejected the record for
    /// this op (see [`crate::journal`]); the op was **not** applied — a
    /// mutation that cannot be made durable is refused rather than silently
    /// volatile.
    Journal {
        /// The underlying I/O error.
        message: String,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::BadWidth { width, machines } => {
                write!(f, "width {width} outside 1..={machines}")
            }
            ServiceError::ZeroDuration => write!(f, "duration must be positive"),
            ServiceError::InThePast { at, now } => {
                write!(f, "{at} is in the past (virtual time is {now})")
            }
            ServiceError::ReservationRejected { reason } => {
                write!(f, "reservation rejected: {reason}")
            }
            ServiceError::UnknownReservation { id } => write!(f, "unknown reservation {id}"),
            ServiceError::ReservationInactive { id } => {
                write!(f, "reservation {id} is cancelled or already over")
            }
            ServiceError::UnknownDrain { id } => write!(f, "unknown drain {id}"),
            ServiceError::DrainInactive { id } => {
                write!(f, "drain {id} is revoked or already over")
            }
            ServiceError::DeadlineUnmet { deadline, bound } => match bound {
                Some(b) => write!(f, "deadline {deadline} unmet: earliest completion is {b}"),
                None => write!(f, "deadline {deadline} unmet: the shape never fits"),
            },
            ServiceError::Moldable { reason } => {
                write!(f, "moldable submission rejected: {reason}")
            }
            ServiceError::HorizonOverflow => write!(
                f,
                "instants and durations this large overflow the time axis \
                 (the scheduling horizon must stay below 2^64 ticks)"
            ),
            ServiceError::ServiceStopped => write!(f, "service writer has shut down"),
            ServiceError::Journal { message } => {
                write!(f, "journal append failed, op not applied: {message}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// One reservation held by the service, with its live window. A cancelled
/// reservation keeps the elapsed prefix `[start, cancelled_at)` (capacity it
/// blocked in the past cannot be given back retroactively).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceReservation {
    /// Dense id handed out by [`ScheduleService::reserve`].
    pub id: usize,
    /// Processors withdrawn.
    pub width: u32,
    /// Start of the window.
    pub start: Time,
    /// Exclusive end of the *effective* window (truncated by cancellation).
    pub end: Time,
    /// Whether [`ScheduleService::cancel`] resolved this reservation.
    pub cancelled: bool,
}

/// One failure/maintenance drain held by the service: `width` machines
/// withdrawn during `[start, end)`, injected mid-run. A revoked drain keeps
/// its elapsed prefix, exactly like a cancelled [`ServiceReservation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceDrain {
    /// Dense id handed out by [`ScheduleService::inject`] (a namespace
    /// separate from reservation ids).
    pub id: usize,
    /// Machines withdrawn.
    pub width: u32,
    /// Start of the drained window.
    pub start: Time,
    /// Exclusive end of the *effective* window (truncated by revocation).
    pub end: Time,
    /// Whether [`ScheduleService::revoke`] resolved this drain.
    pub revoked: bool,
}

/// What happens to a running job preempted by an injected drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DrainMode {
    /// Kill-and-resubmit: the victim loses all progress and re-queues with
    /// its full duration.
    #[default]
    Restart,
    /// Checkpoint-requeue: the victim re-queues with only its not-yet-elapsed
    /// duration (`completion − now`).
    Checkpoint,
}

impl DrainMode {
    /// Canonical lowercase name (CLI flag value / protocol field).
    pub fn name(self) -> &'static str {
        match self {
            DrainMode::Restart => "restart",
            DrainMode::Checkpoint => "checkpoint",
        }
    }

    /// Parse a canonical name back into a mode.
    pub fn parse(s: &str) -> Option<DrainMode> {
        match s {
            "restart" => Some(DrainMode::Restart),
            "checkpoint" => Some(DrainMode::Checkpoint),
            _ => None,
        }
    }
}

/// How [`ScheduleService::submit_deadline`] treats a job whose speculative
/// completion bound misses the due date. A job whose bound *meets* the due
/// date is always admitted — committed to its probed placement, which makes
/// "no accepted deadline is ever missed" hold by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Refuse the job; the service state is unchanged.
    #[default]
    Reject,
    /// Accept the job *without* a guarantee, letting it jump the waiting
    /// queue (front of the list instead of the back).
    Boost,
}

impl AdmissionPolicy {
    /// Canonical lowercase name (protocol field value).
    pub fn name(self) -> &'static str {
        match self {
            AdmissionPolicy::Reject => "reject",
            AdmissionPolicy::Boost => "boost",
        }
    }

    /// Parse a canonical name back into a policy.
    pub fn parse(s: &str) -> Option<AdmissionPolicy> {
        match s {
            "reject" => Some(AdmissionPolicy::Reject),
            "boost" => Some(AdmissionPolicy::Boost),
            _ => None,
        }
    }
}

/// How a deadline submission was resolved by [`ScheduleService::submit_deadline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineOutcome {
    /// The speculative bound met the due date: the job is committed to the
    /// probed placement (reserved on the substrate, guaranteed against
    /// drains) and will complete at `completion ≤ deadline`.
    Committed {
        /// The committed start.
        start: Time,
        /// The committed completion (`start + duration`).
        completion: Time,
    },
    /// The bound missed the due date and [`AdmissionPolicy::Boost`] accepted
    /// the job anyway, un-guaranteed, at the front of the waiting queue.
    Boosted,
}

/// Per-job scenario flags, parallel to the job catalog (index == job id).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobFlags {
    /// The due date a deadline submission asked for, if any.
    pub deadline: Option<Time>,
    /// Whether the job is committed to a placement that drains must not
    /// preempt (set by the admitting path of `submit_deadline`).
    pub guaranteed: bool,
    /// Whether the job jumped the waiting queue under
    /// [`AdmissionPolicy::Boost`]. Cleared if the job is later preempted by
    /// a drain (a killed job re-queues at the back, demoted).
    pub boosted: bool,
}

/// What one request changed: jobs started by the decision(s) it triggered
/// and jobs that completed while time advanced.
///
/// Mutating requests hand back `&Effects` borrowed from a buffer the service
/// reuses across requests (part of the PR 6 zero-allocation steady path);
/// clone it if the effects must outlive the next request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Effects {
    /// Jobs started, in decision order, with their start times.
    pub started: Vec<Placement>,
    /// Jobs whose completion was drained, with their completion times.
    pub completed: Vec<(JobId, Time)>,
}

impl Effects {
    /// Reset for reuse, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.started.clear();
        self.completed.clear();
    }

    /// Whether the request changed nothing.
    pub fn is_empty(&self) -> bool {
        self.started.is_empty() && self.completed.is_empty()
    }
}

/// Aggregate counters of a service session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// Current virtual time.
    pub now: Time,
    /// Cluster size.
    pub machines: u32,
    /// Jobs submitted so far.
    pub submitted: usize,
    /// Jobs not yet released (future release dates).
    pub pending: usize,
    /// Jobs released but not yet started.
    pub waiting: usize,
    /// Jobs started but not yet completed.
    pub running: usize,
    /// Jobs completed.
    pub completed: usize,
    /// Reservations currently active or scheduled (accepted minus cancelled).
    pub reservations: usize,
    /// Decision points at which the policy was consulted.
    pub decisions: u64,
    /// Largest completion time among started jobs (the paper's `C_max` so
    /// far).
    pub makespan: Time,
}

/// A portable snapshot of everything a [`ScheduleService`] has decided: the
/// state a journal snapshot record persists (see [`crate::journal`]) and
/// [`ScheduleService::restore`] rebuilds a live service from.
///
/// Mostly *derived-state-free*: the pending/running heaps, the decision
/// breakpoints and the substrate's availability function are all
/// reconstructible from the jobs, the reservations, the drains and the
/// placements (restore proves it). The one exception is the waiting-queue
/// *order*: boosts jump the queue and drain preemptions re-queue victims at
/// the instant they were killed, so the order stopped being a pure function
/// of release dates — it is persisted verbatim in `queue` instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceState {
    /// Cluster size (the substrate handed to restore must match).
    pub machines: u32,
    /// Virtual time at capture.
    pub now: Time,
    /// Decision points taken so far.
    pub decisions: u64,
    /// Largest completion time among started jobs.
    pub makespan: Time,
    /// Every job ever submitted, in id order (ids are dense). A job
    /// checkpoint-requeued by a drain carries its *remaining* duration.
    pub jobs: Vec<Job>,
    /// Per-job scenario flags, parallel to `jobs`.
    pub flags: Vec<JobFlags>,
    /// Every reservation ever accepted, in id order, cancellation-truncated.
    pub reservations: Vec<ServiceReservation>,
    /// Every drain ever injected, in id order, revocation-truncated.
    pub drains: Vec<ServiceDrain>,
    /// Every placement decided so far, in decision order.
    pub placements: Vec<Placement>,
    /// The waiting queue (job positions) in queue order, front first.
    pub queue: Vec<usize>,
}

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

/// The resident scheduling service: a live availability substrate plus the
/// incremental decision loop of the batch engine.
///
/// Generic over the availability substrate exactly like the schedulers: the
/// indexed [`AvailabilityTimeline`] is the production backend (checkpoint /
/// rollback speculation) and the only one `resa serve` runs on, the naive
/// [`ResourceProfile`] the clone-based oracle the equivalence tests run
/// the same sessions on, byte for byte.
#[derive(Debug, Clone)]
pub struct ScheduleService<C: CapacityQuery + Speculate> {
    machines: u32,
    policy: ReferencePolicy,
    substrate: C,
    now: Time,
    /// Every job ever submitted; ids are dense (id == index).
    jobs: Vec<Job>,
    /// Released-but-not-started job positions, in arrival order.
    waiting: WaitList,
    /// Future arrivals `(release, position)` as a min-heap; entries are
    /// unique, so the pop order equals the sorted order of the old
    /// `BTreeSet` — `O(log n)` push/pop with no per-node allocation, and the
    /// batch engine's tie-break (job id) is the second component.
    pending: BinaryHeap<Reverse<(Time, usize)>>,
    /// Outstanding completions `(completion, position)` as a min-heap.
    running: BinaryHeap<Reverse<(Time, usize)>>,
    /// Future decision instants induced by the overlay (reservations,
    /// drains, deadline-committed placements): `(instant, net width
    /// change)` over the effective windows, time-ordered, instants after
    /// `now` with a non-zero net only — exactly the *normalized* breakpoints
    /// of the overlay profile, the availability-change events of the batch
    /// engine (edges that cancel produce no decision point). A window that
    /// joins or leaves the overlay updates its own two edges
    /// ([`ScheduleService::shift_overlay`]), the clock pops the front, and
    /// the last edge is the latest end among the live windows.
    edges: VecDeque<(Time, i64)>,
    reservations: Vec<ServiceReservation>,
    /// Failure/maintenance drains, in injection order (id == index).
    drains: Vec<ServiceDrain>,
    /// Accepted, not cancelled reservations: `stats().reservations`.
    active_reservations: usize,
    /// Latest release date among the jobs in the catalog and their total
    /// duration: with the last overlay edge, the overflow guard's
    /// [`Horizon`]. All functions of the persisted state, so a restored
    /// service admits exactly what the live one would.
    latest_release: Time,
    work: u128,
    /// Per-job scenario flags, parallel to `jobs`.
    flags: Vec<JobFlags>,
    /// `Some(completion)` while the job occupies the substrate (committed or
    /// running), `None` otherwise. Doubles as the staleness guard for the
    /// running heap: a drain preemption cannot cheaply delete the victim's
    /// heap entry, so completions are only honoured when they match this
    /// table (see `advance_into`).
    completion_of: Vec<Option<Time>>,
    /// Jobs occupying the substrate right now (running or committed); kept
    /// explicitly because the running heap may hold stale entries.
    running_count: usize,
    /// Jobs whose completion event has been drained.
    completed_count: usize,
    /// What happens to jobs a drain preempts.
    drain_mode: DrainMode,
    /// Victims of the most recent [`ScheduleService::inject`], in re-queue
    /// (ascending id) order. Reused across requests.
    preempted_buf: Vec<JobId>,
    schedule: Schedule,
    /// Largest completion time among started jobs, maintained incrementally
    /// at every start so `stats` never re-scans the schedule — the
    /// concurrent front publishes stats once per write batch.
    makespan: Time,
    /// The decide-and-place step and retire cadence shared with
    /// [`crate::stream::run_stream`], with its reused buffers and the
    /// decision count.
    step: DecisionStep,
    /// Reused effects buffer handed back by reference from every mutating
    /// request.
    fx_buf: Effects,
    /// Ids below `base` have been retired: their catalog entries were
    /// compacted away and catalog position `pos` now holds id `base + pos`.
    /// Stays `0` until [`ScheduleService::retire_completed`] compacts.
    base: usize,
    /// Metrics of retired placements, folded in decision order so merging
    /// with the live placements reproduces `SimMetrics::from_schedule`
    /// bit-for-bit.
    retired_metrics: MetricsAccumulator,
    /// Completed-job records handed to a [`RecordSink`] so far.
    retired_records: usize,
    /// Parallel to `jobs`: `true` once the position's placement has been
    /// retired, making the catalog entry eligible for compaction.
    retired_placement: Vec<bool>,
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
            substrate,
            now: Time::ZERO,
            jobs: Vec::new(),
            waiting: WaitList::with_capacity(0),
            pending: BinaryHeap::new(),
            running: BinaryHeap::new(),
            edges: VecDeque::new(),
            reservations: Vec::new(),
            drains: Vec::new(),
            active_reservations: 0,
            latest_release: Time::ZERO,
            work: 0,
            flags: Vec::new(),
            completion_of: Vec::new(),
            running_count: 0,
            completed_count: 0,
            drain_mode: DrainMode::default(),
            preempted_buf: Vec::new(),
            schedule: Schedule::new(),
            makespan: Time::ZERO,
            step: DecisionStep::default(),
            fx_buf: Effects::default(),
            base: 0,
            retired_metrics: MetricsAccumulator::new(),
            retired_records: 0,
            retired_placement: Vec::new(),
        }
    }

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

    /// Append a job to the catalog and its parallel tables; returns its
    /// position and id.
    fn enroll(
        &mut self,
        width: u32,
        duration: Dur,
        release: Time,
        flags: JobFlags,
        completion: Option<Time>,
    ) -> (usize, JobId) {
        let pos = self.jobs.len();
        let id = self.id_at(pos);
        self.jobs
            .push(Job::released_at(id.0, width, duration, release));
        self.flags.push(flags);
        self.completion_of.push(completion);
        self.retired_placement.push(false);
        self.waiting.ensure_capacity(pos + 1);
        self.latest_release = self.latest_release.max(release);
        self.work += u128::from(duration.0);
        (pos, id)
    }

    /// Pre-size every per-job container for a session expected to hold up to
    /// `jobs` jobs and `reservations` reservations, so a steady-state loop
    /// staying under these bounds allocates nothing per request (pinned by
    /// the allocation-regression test in `tests/alloc_regression.rs`).
    pub fn ensure_capacity(&mut self, jobs: usize, reservations: usize) {
        self.jobs.reserve(jobs.saturating_sub(self.jobs.len()));
        self.waiting.ensure_capacity(jobs);
        self.pending
            .reserve(jobs.saturating_sub(self.pending.len()));
        self.running
            .reserve(jobs.saturating_sub(self.running.len()));
        self.step.reserve(jobs);
        self.schedule
            .reserve(jobs.saturating_sub(self.schedule.len()));
        self.fx_buf.started.reserve(jobs);
        self.fx_buf.completed.reserve(jobs);
        self.flags.reserve(jobs.saturating_sub(self.flags.len()));
        self.completion_of
            .reserve(jobs.saturating_sub(self.completion_of.len()));
        self.retired_placement
            .reserve(jobs.saturating_sub(self.retired_placement.len()));
        self.preempted_buf
            .reserve(jobs.saturating_sub(self.preempted_buf.len()));
        self.reservations
            .reserve(reservations.saturating_sub(self.reservations.len()));
        self.edges
            .reserve((2 * reservations).saturating_sub(self.edges.len()));
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
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
        Horizon {
            anchor: self
                .now
                .max(self.latest_release)
                .max(self.edges.back().map_or(Time::ZERO, |&(t, _)| t)),
            work: self.work,
        }
    }

    /// The schedule of every job started so far, in decision order.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Number of decision points so far.
    pub fn decisions(&self) -> u64 {
        self.step.decisions
    }

    /// All reservations ever accepted (including cancelled ones, truncated).
    pub fn reservations(&self) -> &[ServiceReservation] {
        &self.reservations
    }

    /// All drains ever injected (including revoked ones, truncated).
    pub fn drains(&self) -> &[ServiceDrain] {
        &self.drains
    }

    /// Per-job scenario flags, parallel to the job catalog.
    pub fn job_flags(&self) -> &[JobFlags] {
        &self.flags
    }

    /// Configure what happens to jobs a drain preempts. Construction-time
    /// configuration, not persisted state: journal recovery re-applies the
    /// flag it was launched with before replaying ops.
    pub fn set_drain_mode(&mut self, mode: DrainMode) {
        self.drain_mode = mode;
    }

    /// Victims of the most recent [`ScheduleService::inject`], in re-queue
    /// (ascending id) order; empty when it preempted nothing. Valid until
    /// the next inject.
    pub fn last_preempted(&self) -> &[JobId] {
        &self.preempted_buf
    }

    /// Capture the decided state of the session as a [`ServiceState`] —
    /// everything [`ScheduleService::restore`] needs to rebuild an
    /// equivalent live service. Cheap relative to a snapshot record write
    /// (three `Vec` clones), called by the journal layer at compaction
    /// points only.
    pub fn state(&self) -> ServiceState {
        assert!(
            self.base == 0 && self.retired_records == 0,
            "a retiring session cannot be checkpointed: retired records left \
             the process, so the captured state would be partial (the serve \
             front rejects --retire alongside --journal)"
        );
        ServiceState {
            machines: self.machines,
            now: self.now,
            decisions: self.step.decisions,
            makespan: self.makespan,
            jobs: self.jobs.clone(),
            flags: self.flags.clone(),
            reservations: self.reservations.clone(),
            drains: self.drains.clone(),
            placements: self.schedule.placements().to_vec(),
            queue: self.waiting.iter().collect(),
        }
    }

    /// Rebuild a live service from a captured [`ServiceState`] on a fresh
    /// `substrate` (which must be an empty cluster of `state.machines`
    /// machines). The derived structures are reconstructed, not persisted:
    ///
    /// * the substrate re-reserves the *future suffix* of every effective
    ///   reservation and drain window and every unfinished placement —
    ///   capacity before `now` is never consulted again (queries clamp to
    ///   `now`, policies decide at `now`), so the availability function
    ///   agrees with the original on all of `[now, ∞)`, which is everything
    ///   observable;
    /// * the waiting list is rebuilt verbatim from the persisted queue order
    ///   (boosts and drain preemptions made the order part of the state —
    ///   see [`ServiceState::queue`]);
    /// * pending/running heaps and the overlay edge list are re-derived from
    ///   release dates, completion times and the effective windows — the
    ///   edges through the same insert step the live requests use.
    ///
    /// A state captured between requests (services are quiescent there — the
    /// writer loop and the sequential transports never snapshot mid-request)
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
        svc.now = state.now;
        svc.step.decisions = state.decisions;
        svc.makespan = state.makespan;
        svc.jobs = state.jobs.clone();
        svc.latest_release = state
            .jobs
            .iter()
            .map(|j| j.release)
            .max()
            .unwrap_or_default();
        svc.work = state.jobs.iter().map(|j| u128::from(j.duration.0)).sum();
        svc.flags = state.flags.clone();
        svc.reservations = state.reservations.clone();
        svc.drains = state.drains.clone();
        svc.active_reservations = state
            .reservations
            .iter()
            .filter(|r| !r.cancelled && r.end > r.start)
            .count();
        svc.completion_of = vec![None; state.jobs.len()];
        svc.retired_placement = vec![false; state.jobs.len()];
        // Future suffixes of the effective reservation and drain windows.
        // Cancelled/revoked windows released their suffix at resolution time
        // (which was <= now), and windows wholly in the past never get
        // consulted again — only live windows reaching past `now` still
        // occupy the substrate.
        let reservation_windows = state
            .reservations
            .iter()
            .filter(|r| !r.cancelled)
            .map(|r| (r.width, r.start, r.end));
        let drain_windows = state
            .drains
            .iter()
            .filter(|d| !d.revoked)
            .map(|d| (d.width, d.start, d.end));
        for (width, start, end) in reservation_windows.chain(drain_windows) {
            svc.shift_overlay(start, end, i64::from(width));
            let from = start.max(state.now);
            if end > from {
                svc.substrate
                    .reserve(from, end.since(from), width)
                    .expect("the original substrate accepted this window");
            }
        }
        // Placements: re-occupy unfinished runs, rebuild the schedule and
        // the running heap. Completions strictly after `now` are still
        // running or committed (the live service drains completions at their
        // instant, so an occupying entry's completion is always > now).
        svc.schedule = Schedule::from_placements(state.placements.clone());
        for p in &state.placements {
            let job = state.jobs[p.job.0];
            let completion = p.start.saturating_add(job.duration);
            if completion > state.now {
                let from = p.start.max(state.now);
                svc.substrate
                    .reserve(from, completion.since(from), job.width)
                    .expect("the original substrate accepted this run");
                svc.running.push(Reverse((completion, p.job.0)));
                svc.completion_of[p.job.0] = Some(completion);
                svc.running_count += 1;
                if state.flags[p.job.0].guaranteed {
                    svc.shift_overlay(p.start, completion, i64::from(job.width));
                }
            } else {
                svc.completed_count += 1;
            }
        }
        // Waiting = the persisted queue, verbatim; pending = everything
        // unplaced and unqueued (necessarily released strictly after now).
        let mut accounted: Vec<bool> = vec![false; state.jobs.len()];
        for p in &state.placements {
            accounted[p.job.0] = true;
        }
        svc.waiting.ensure_capacity(state.jobs.len());
        for &pos in &state.queue {
            svc.waiting.push_back(pos);
            accounted[pos] = true;
        }
        for (pos, job) in state.jobs.iter().enumerate() {
            if !accounted[pos] {
                debug_assert!(job.release > state.now, "unqueued job must be pending");
                svc.pending.push(Reverse((job.release, pos)));
            }
        }
        svc
    }

    // -- requests -----------------------------------------------------------

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
        check_shape(width, duration, self.machines)?;
        let release = release.unwrap_or(self.now);
        if release < self.now {
            return Err(ServiceError::InThePast {
                at: release,
                now: self.now,
            });
        }
        let (pos, id) = self.enroll(width, duration, release, JobFlags::default(), None);
        let mut effects = std::mem::take(&mut self.fx_buf);
        effects.clear();
        if release == self.now {
            // The arrival is an event at the current instant: enqueue and
            // decide, exactly like the batch engine's arrival handling.
            self.waiting.push_back(pos);
            self.decide_now(&mut effects);
        } else {
            self.pending.push(Reverse((release, pos)));
        }
        self.fx_buf = effects;
        Ok((id, &self.fx_buf))
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
        check_shape(width, duration, self.machines)?;
        if start < self.now {
            return Err(ServiceError::InThePast {
                at: start,
                now: self.now,
            });
        }
        self.substrate
            .reserve(start, duration, width)
            .map_err(|e| ServiceError::ReservationRejected {
                reason: e.to_string(),
            })?;
        let id = self.reservations.len();
        let end = start.saturating_add(duration);
        self.reservations.push(ServiceReservation {
            id,
            width,
            start,
            end,
            cancelled: false,
        });
        self.active_reservations += usize::from(end > start);
        self.shift_overlay(start, end, i64::from(width));
        let mut effects = std::mem::take(&mut self.fx_buf);
        effects.clear();
        // The overlay changed: a window starting now changes capacity at the
        // current instant, and even a future window can alter an EASY
        // decision at `now` (the blocked head's shadow moves later, which
        // may newly admit a backfill candidate). Consult the policy — a
        // no-op when nothing waits, which keeps replayable sessions
        // (overlay fixed before the first submission) decision-identical to
        // the batch engine.
        self.decide_now(&mut effects);
        self.fx_buf = effects;
        Ok((id, &self.fx_buf))
    }

    /// Cancel reservation `id`, releasing its not-yet-elapsed window
    /// `[max(now, start), end)`. The elapsed prefix stays in effect — the
    /// past cannot be rewritten. Applied transactionally.
    pub fn cancel(&mut self, id: usize) -> Result<&Effects, ServiceError> {
        let r = *self
            .reservations
            .get(id)
            .ok_or(ServiceError::UnknownReservation { id })?;
        if r.cancelled || r.end <= self.now {
            return Err(ServiceError::ReservationInactive { id });
        }
        let from = r.start.max(self.now);
        let remaining = r.end.since(from);
        if !remaining.is_zero() {
            self.substrate
                .release(from, remaining, r.width)
                .expect("releasing an active reservation's own window");
        }
        let entry = &mut self.reservations[id];
        entry.cancelled = true;
        entry.end = from;
        self.active_reservations -= usize::from(r.end > r.start);
        self.shift_overlay(from, r.end, -i64::from(r.width));
        let mut effects = std::mem::take(&mut self.fx_buf);
        effects.clear();
        // Capacity grew — at the current instant if the window had started,
        // in the future otherwise. Both can unblock a waiting job's run
        // (which extends into the future), and a job blocked *only* by the
        // cancelled window would otherwise be stranded forever: with the
        // window gone there may be no future event left to wake the policy.
        // Deciding unconditionally closes that hole and is a no-op when
        // nothing waits.
        self.decide_now(&mut effects);
        self.fx_buf = effects;
        Ok(&self.fx_buf)
    }

    /// Inject a failure or maintenance *drain*: `width` machines withdrawn
    /// during `[start, start + duration)`, inserted mid-run. Unlike
    /// [`ScheduleService::reserve`], a drain does not take "no" for an
    /// answer from running jobs: when the window does not fit the remaining
    /// capacity, the *minimal* set of non-guaranteed running jobs whose runs
    /// overlap the window (half-open — a job completing exactly at `start`
    /// is untouched, most-recently-started killed first) is preempted to
    /// make room, each victim re-queued per the configured [`DrainMode`].
    /// Jobs committed by deadline admission are never preempted; a drain
    /// that cannot fit without killing one is rejected transactionally.
    ///
    /// Returns the drain id and the effects of the decision the capacity
    /// change triggered; the preempted job ids are available from
    /// [`ScheduleService::last_preempted`] until the next inject.
    pub fn inject(
        &mut self,
        width: u32,
        duration: Dur,
        start: Time,
    ) -> Result<(usize, &Effects), ServiceError> {
        check_shape(width, duration, self.machines)?;
        if start < self.now {
            return Err(ServiceError::InThePast {
                at: start,
                now: self.now,
            });
        }
        let end = start.saturating_add(duration);
        self.preempted_buf.clear();
        if self.substrate.reserve(start, duration, width).is_err() {
            // Candidate victims: non-guaranteed jobs occupying the substrate
            // whose run `[run start, completion)` overlaps the drained
            // window. `(pos, width, run start, completion)`, killed in
            // most-recently-started-first order so long-running work is
            // disturbed last.
            //
            // The running heap holds every occupying job, so the search is
            // O(running). Entries that disagree with the completion table
            // are ghosts of earlier preemptions; a checkpointed victim
            // restarted at the instant it was killed completes when its
            // ghost would have and matches twice, hence the `dedup`.
            let mut victims: Vec<(usize, u32, Time, Time)> = Vec::new();
            for &Reverse((completion, pos)) in &self.running {
                if self.completion_of[pos] != Some(completion) || self.flags[pos].guaranteed {
                    continue;
                }
                let job = self.jobs[pos];
                // The substrate holds `[run start, completion)` for this
                // job, a window of exactly its (current) duration.
                let run_start = completion - job.duration;
                if run_start < end && completion > start {
                    victims.push((pos, job.width, run_start, completion));
                }
            }
            victims.sort_unstable_by_key(|v| std::cmp::Reverse((v.2, v.0)));
            victims.dedup();
            // Minimal victim prefix whose release makes the window fit,
            // found under speculation so a rejection leaves no trace.
            let now = self.now;
            let needed = self.substrate.speculate(|s| {
                for (k, &(_, w, run_start, completion)) in victims.iter().enumerate() {
                    let from = run_start.max(now);
                    s.release(from, completion.since(from), w)
                        .expect("releasing a running job's own window");
                    if s.reserve(start, duration, width).is_ok() {
                        return Some(k + 1);
                    }
                }
                None
            });
            let Some(k) = needed else {
                return Err(ServiceError::ReservationRejected {
                    reason: format!(
                        "drain [{start}, {end})x{width} does not fit even after \
                         preempting every non-guaranteed job overlapping it"
                    ),
                });
            };
            let mut kill = victims[..k].to_vec();
            kill.sort_unstable_by_key(|&(pos, ..)| pos);
            for &(pos, w, run_start, completion) in &kill {
                let from = run_start.max(self.now);
                self.substrate
                    .release(from, completion.since(from), w)
                    .expect("releasing a running job's own window");
                self.schedule.remove(self.id_at(pos));
                self.completion_of[pos] = None;
                self.running_count -= 1;
                if self.drain_mode == DrainMode::Checkpoint {
                    // Only the not-yet-elapsed work remains to be redone.
                    let remaining = completion.since(self.now);
                    self.work -= u128::from((self.jobs[pos].duration - remaining).0);
                    self.jobs[pos].duration = remaining;
                }
                self.flags[pos].boosted = false;
                self.waiting.push_back(pos);
                self.preempted_buf.push(self.id_at(pos));
            }
            self.recompute_makespan();
            self.substrate
                .reserve(start, duration, width)
                .expect("speculation certified the drain window");
        }
        let id = self.drains.len();
        self.drains.push(ServiceDrain {
            id,
            width,
            start,
            end,
            revoked: false,
        });
        self.shift_overlay(start, end, i64::from(width));
        let mut effects = std::mem::take(&mut self.fx_buf);
        effects.clear();
        // The overlay changed, and preemption may have re-queued work that
        // can restart immediately on the surviving machines.
        self.decide_now(&mut effects);
        self.fx_buf = effects;
        Ok((id, &self.fx_buf))
    }

    /// Revoke drain `id` (the failure healed / maintenance finished early),
    /// releasing its not-yet-elapsed window `[max(now, start), end)`. The
    /// elapsed prefix stays in effect, exactly like
    /// [`ScheduleService::cancel`] — and jobs the drain already preempted
    /// stay preempted (the past cannot be rewritten).
    pub fn revoke(&mut self, id: usize) -> Result<&Effects, ServiceError> {
        let d = *self
            .drains
            .get(id)
            .ok_or(ServiceError::UnknownDrain { id })?;
        if d.revoked || d.end <= self.now {
            return Err(ServiceError::DrainInactive { id });
        }
        let from = d.start.max(self.now);
        let remaining = d.end.since(from);
        if !remaining.is_zero() {
            self.substrate
                .release(from, remaining, d.width)
                .expect("releasing an active drain's own window");
        }
        let entry = &mut self.drains[id];
        entry.revoked = true;
        entry.end = from;
        self.shift_overlay(from, d.end, -i64::from(d.width));
        let mut effects = std::mem::take(&mut self.fx_buf);
        effects.clear();
        // Capacity grew; same wake-up obligation as cancel.
        self.decide_now(&mut effects);
        self.fx_buf = effects;
        Ok(&self.fx_buf)
    }

    /// Submit a job with a due date. The speculative earliest-fit bound
    /// gates admission: when `start + duration ≤ deadline` for the earliest
    /// probed start, the job is **committed** to that placement — reserved
    /// on the substrate immediately, guaranteed against drains — so an
    /// accepted deadline can never be missed. Equality admits: windows are
    /// half-open, so a job completing exactly *at* the deadline instant has
    /// finished by it.
    ///
    /// When the bound misses the due date, `admission` decides:
    /// [`AdmissionPolicy::Reject`] refuses the job without a state change
    /// ([`ServiceError::DeadlineUnmet`]); [`AdmissionPolicy::Boost`] accepts
    /// it un-guaranteed at the *front* of the waiting queue.
    pub fn submit_deadline(
        &mut self,
        width: u32,
        duration: Dur,
        release: Option<Time>,
        deadline: Time,
        admission: AdmissionPolicy,
    ) -> Result<(JobId, DeadlineOutcome, &Effects), ServiceError> {
        check_shape(width, duration, self.machines)?;
        let release = release.unwrap_or(self.now);
        if release < self.now {
            return Err(ServiceError::InThePast {
                at: release,
                now: self.now,
            });
        }
        let probe = self.substrate.speculate(|s| {
            let start = s.earliest_fit(width, duration, release)?;
            s.reserve(start, duration, width)
                .expect("earliest_fit certified the window");
            Some(start)
        });
        let committed = probe.filter(|&s| s.saturating_add(duration) <= deadline);
        if let Some(start) = committed {
            let completion = start.saturating_add(duration);
            self.substrate
                .reserve(start, duration, width)
                .expect("the speculative probe certified this window");
            let flags = JobFlags {
                deadline: Some(deadline),
                guaranteed: true,
                boosted: false,
            };
            let (pos, id) = self.enroll(width, duration, release, flags, Some(completion));
            self.schedule.place(id, start);
            self.running.push(Reverse((completion, pos)));
            self.running_count += 1;
            self.makespan = self.makespan.max(completion);
            // A committed window is an overlay window to the off-line
            // engine (committed jobs are never preempted, so it never
            // changes); it must normalize together with the rest so both
            // sides agree on which instants are decision points.
            self.shift_overlay(start, completion, i64::from(width));
            let mut effects = std::mem::take(&mut self.fx_buf);
            effects.clear();
            effects.started.push(Placement { job: id, start });
            // The committed window shrank future capacity — which, like a
            // reservation, can move an EASY head's shadow later and newly
            // admit a backfill candidate. Consult the policy.
            self.decide_now(&mut effects);
            self.fx_buf = effects;
            return Ok((
                id,
                DeadlineOutcome::Committed { start, completion },
                &self.fx_buf,
            ));
        }
        match admission {
            AdmissionPolicy::Reject => Err(ServiceError::DeadlineUnmet {
                deadline,
                bound: probe.map(|s| s.saturating_add(duration)),
            }),
            AdmissionPolicy::Boost => {
                let flags = JobFlags {
                    deadline: Some(deadline),
                    guaranteed: false,
                    boosted: true,
                };
                let (pos, id) = self.enroll(width, duration, release, flags, None);
                let mut effects = std::mem::take(&mut self.fx_buf);
                effects.clear();
                if release == self.now {
                    self.waiting.push_front(pos);
                    self.decide_now(&mut effects);
                } else {
                    self.pending.push(Reverse((release, pos)));
                }
                self.fx_buf = effects;
                Ok((id, DeadlineOutcome::Boosted, &self.fx_buf))
            }
        }
    }

    /// Submit a *moldable* job: a total work `area` (processor×ticks) plus a
    /// menu of admissible widths. The service concretizes the shape with
    /// [`best_width`] — the width whose `(⌈area/width⌉)`-tick rigid form has
    /// the earliest probed completion, ties to the narrowest — and routes it
    /// through the ordinary [`ScheduleService::submit`] path, so a moldable
    /// job is indistinguishable from a rigid one once admitted (which keeps
    /// the off-line replay oracle intact).
    pub fn submit_moldable(
        &mut self,
        widths: &[u32],
        area: u64,
    ) -> Result<(JobId, WidthChoice, &Effects), ServiceError> {
        let choice = best_width(&self.substrate, widths, area, self.now)
            .map_err(|e| ServiceError::Moldable {
                reason: e.to_string(),
            })?
            .ok_or_else(|| ServiceError::Moldable {
                reason: "no admissible width ever fits the availability function".into(),
            })?;
        let id = self.submit(choice.width, choice.duration, None)?.0;
        Ok((id, choice, &self.fx_buf))
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
        let from = not_before.unwrap_or(self.now).max(self.now);
        Ok(self.substrate.earliest_fit(width, duration, from))
    }

    /// Advance virtual time to `to`, draining completions, releasing pending
    /// arrivals and consulting the policy at every event instant on the way
    /// (completion, arrival, or reservation breakpoint), in time order.
    pub fn advance(&mut self, to: Time) -> Result<&Effects, ServiceError> {
        if to < self.now {
            return Err(ServiceError::InThePast {
                at: to,
                now: self.now,
            });
        }
        let mut effects = std::mem::take(&mut self.fx_buf);
        effects.clear();
        self.advance_into(to, &mut effects);
        self.fx_buf = effects;
        Ok(&self.fx_buf)
    }

    /// Advance virtual time to `max(now, to)`: the clock-driven variant of
    /// [`ScheduleService::advance`] that treats a stale target as "no time
    /// passed" instead of rejecting it. `resa serve --realtime` ticks the
    /// session with this before every request, so a wall-clock reading
    /// raced by a concurrent writer batch can never poison the session
    /// with an [`ServiceError::InThePast`] rejection.
    pub fn advance_clamped(&mut self, to: Time) -> &Effects {
        let to = to.max(self.now);
        let mut effects = std::mem::take(&mut self.fx_buf);
        effects.clear();
        self.advance_into(to, &mut effects);
        self.fx_buf = effects;
        &self.fx_buf
    }

    /// Advance until no event is outstanding (all submitted jobs completed),
    /// leaving `now` at the last event instant.
    pub fn drain(&mut self) -> &Effects {
        let mut effects = std::mem::take(&mut self.fx_buf);
        effects.clear();
        while let Some(at) = self.next_event() {
            self.advance_into(at, &mut effects);
        }
        self.fx_buf = effects;
        &self.fx_buf
    }

    /// Aggregate counters of the session so far.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            now: self.now,
            machines: self.machines,
            submitted: self.base + self.jobs.len(),
            pending: self.pending.len(),
            waiting: self.waiting.len(),
            running: self.running_count,
            completed: self.completed_count,
            reservations: self.active_reservations,
            decisions: self.step.decisions,
            makespan: self.makespan,
        }
    }

    /// The current schedule as per-job lifecycle records plus run metrics —
    /// the same shapes `resa replay` reports. Jobs still running carry their
    /// scheduled completion time.
    pub fn snapshot(&self) -> (Vec<JobRecord>, SimMetrics) {
        if self.retired_records == 0 {
            return records_of(&self.to_instance(), &self.schedule);
        }
        // Retired placements already left the schedule (and the process, via
        // the record sink): report the live ones in the same `(started, id)`
        // order and merge the retired accumulator, so the metrics equal what
        // a never-retired twin reports bit for bit — the retired prefix was
        // a decision-order prefix, and the live placements continue that
        // order (pinned by `retirement_preserves_snapshot_and_stats`).
        let mut records: Vec<JobRecord> = self
            .schedule
            .placements()
            .iter()
            .map(|p| {
                let job = self.jobs[self.pos_of(p.job)];
                JobRecord {
                    job: p.job,
                    width: job.width,
                    duration: job.duration,
                    arrived: job.release,
                    started: p.start,
                    completed: p.start.saturating_add(job.duration),
                }
            })
            .collect();
        records.sort_unstable_by_key(|r| (r.started, r.job));
        let mut acc = self.retired_metrics.clone();
        for p in self.schedule.placements() {
            acc.record(&self.jobs[self.pos_of(p.job)], p.start);
        }
        let profile = ResourceProfile::from_reservations(self.machines, &self.effective_overlay())
            .expect("the live substrate accepted every window");
        (records, acc.finish(&profile))
    }

    /// Completed-job records handed to a [`RecordSink`] by
    /// [`ScheduleService::retire_completed`] so far.
    pub fn retired_records(&self) -> usize {
        self.retired_records
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
        // 1. The longest leading run of completed placements.
        let mut n = 0usize;
        for p in self.schedule.placements() {
            let pos = self.pos_of(p.job);
            let done = self.completion_of[pos].is_none()
                && p.start.saturating_add(self.jobs[pos].duration) <= self.now;
            if !done {
                break;
            }
            n += 1;
        }
        if n == 0 {
            return 0;
        }
        // 2. Retire it: fold metrics in decision order, emit records, mark
        //    the catalog entries.
        let mut i = 0usize;
        let retired = self.schedule.retire_where(|_| {
            i += 1;
            i <= n
        });
        for p in &retired {
            let pos = self.pos_of(p.job);
            let job = self.jobs[pos];
            self.retired_metrics.record(&job, p.start);
            self.retired_placement[pos] = true;
            sink.record(JobRecord {
                job: p.job,
                width: job.width,
                duration: job.duration,
                arrived: job.release,
                started: p.start,
                completed: p.start.saturating_add(job.duration),
            });
        }
        self.retired_records += n;
        // 3. Compact the leading fully-retired run of the catalog. Retired
        //    positions are in no heap and no queue: their completions
        //    drained (that is what made them retirable), and any stale ghost
        //    entry a preemption left in the running heap sits at a time no
        //    later than the job's eventual completion, hence also drained.
        let k = self.retired_placement.iter().take_while(|&&r| r).count();
        if k > 0 {
            let gone: u128 = self.jobs.drain(..k).map(|j| u128::from(j.duration.0)).sum();
            self.work -= gone;
            self.flags.drain(..k);
            self.completion_of.drain(..k);
            self.retired_placement.drain(..k);
            self.base += k;
            self.waiting.rebase(k);
            let running = std::mem::take(&mut self.running);
            self.running = running
                .into_iter()
                .map(|Reverse((t, pos))| Reverse((t, pos - k)))
                .collect();
            let pending = std::mem::take(&mut self.pending);
            self.pending = pending
                .into_iter()
                .map(|Reverse((t, pos))| Reverse((t, pos - k)))
                .collect();
        }
        n
    }

    /// Freeze the availability substrate into an immutable,
    /// generation-stamped [`TimelineSnapshot`] (see
    /// [`resa_core::snapshot`]). The writer loop of
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
        ResaInstance::new(self.machines, self.jobs.clone(), self.effective_overlay())
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
        assert!(
            self.base == 0,
            "the off-line oracle needs the full job catalog; retiring \
             sessions are excluded from oracle comparisons"
        );
        let mut remap = vec![usize::MAX; self.jobs.len()];
        let mut jobs = Vec::new();
        for (pos, job) in self.jobs.iter().enumerate() {
            if self.flags[pos].guaranteed {
                continue;
            }
            remap[pos] = jobs.len();
            jobs.push(Job::released_at(
                jobs.len(),
                job.width,
                job.duration,
                job.release,
            ));
        }
        let mut overlay = self.effective_overlay();
        for p in self.schedule.placements() {
            let pos = p.job.0;
            if !self.flags[pos].guaranteed {
                continue;
            }
            let job = self.jobs[pos];
            overlay.push(Reservation::new(
                overlay.len(),
                job.width,
                job.duration,
                p.start,
            ));
        }
        let instance = ResaInstance::new(self.machines, jobs, overlay)
            .expect("the live substrate accepted every window");
        let placements = self
            .schedule
            .placements()
            .iter()
            .filter(|p| remap[p.job.0] != usize::MAX)
            .map(|p| Placement {
                job: JobId(remap[p.job.0]),
                start: p.start,
            })
            .collect();
        (instance, Schedule::from_placements(placements))
    }

    // -- internals ----------------------------------------------------------

    /// The reservation-and-drain overlay as it is actually in effect:
    /// cancelled/revoked windows truncated to their elapsed prefix,
    /// zero-length windows dropped, ids re-densified across the two
    /// namespaces (reservations first). The single source of truth for both
    /// the replay-equivalence instance and the decision breakpoints — the
    /// two must never diverge. Windows committed by deadline admission are
    /// deliberately absent: they occupy the substrate through their own
    /// placements, and the oracle view ([`ScheduleService::oracle_parts`])
    /// appends them separately.
    fn effective_overlay(&self) -> Vec<Reservation> {
        let reservations = self
            .reservations
            .iter()
            .filter(|r| r.end > r.start)
            .map(|r| (r.width, r.start, r.end));
        let drains = self
            .drains
            .iter()
            .filter(|d| d.end > d.start)
            .map(|d| (d.width, d.start, d.end));
        reservations
            .chain(drains)
            .enumerate()
            .map(|(i, (w, s, e))| Reservation::new(i, w, e.since(s), s))
            .collect()
    }

    /// Recompute the makespan high-water mark from the current placements —
    /// needed after a drain preemption revokes a start (the only operation
    /// that can move `C_max` *down*).
    fn recompute_makespan(&mut self) {
        self.makespan = self
            .schedule
            .placements()
            .iter()
            .map(|p| {
                p.start
                    .saturating_add(self.jobs[self.pos_of(p.job)].duration)
            })
            .max()
            .unwrap_or(Time::ZERO)
            // Retired placements left the schedule but their high-water mark
            // must survive: a preemption can only revoke *live* starts.
            .max(self.retired_metrics.makespan());
    }

    /// Walk virtual time forward to `to`, appending starts and completions
    /// to `effects`. Shared by [`ScheduleService::advance`] and
    /// [`ScheduleService::drain`], which differ only in how they obtain the
    /// (reused) effects buffer. `to` must not be in the past.
    fn advance_into(&mut self, to: Time, effects: &mut Effects) {
        let before = effects.completed.len();
        while let Some(at) = self.next_event() {
            if at > to {
                break;
            }
            self.now = at;
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
            while let Some(&Reverse((t, pos))) = self.running.peek() {
                if t != at {
                    break;
                }
                self.running.pop();
                // A drain preemption cannot cheaply delete the victim's heap
                // entry; the completion table is the source of truth, so a
                // mismatching entry is a stale ghost to discard.
                if self.completion_of[pos] == Some(t) {
                    self.completion_of[pos] = None;
                    self.running_count -= 1;
                    self.completed_count += 1;
                    effects.completed.push((self.id_at(pos), t));
                    decide |= !self.flags[pos].guaranteed;
                }
            }
            while let Some(&Reverse((t, pos))) = self.pending.peek() {
                if t != at {
                    break;
                }
                self.pending.pop();
                if self.flags[pos].boosted {
                    self.waiting.push_front(pos);
                } else {
                    self.waiting.push_back(pos);
                }
                decide = true;
            }
            while self.edges.front().is_some_and(|&(t, _)| t == at) {
                self.edges.pop_front();
                decide = true;
            }
            if decide {
                self.decide_now(effects);
            }
        }
        self.now = to;
        // Forget the availability function behind the clock: nothing reads
        // it again (every substrate mutation starts at `max(now, ·)`, every
        // probe clamps to `now`), and without this each finished run would
        // leave its two breakpoints in the substrate for the life of the
        // session. Always between requests, so no transaction mark is
        // outstanding.
        let drained = effects.completed.len() - before;
        self.step.retire(drained, &mut self.substrate, self.now);
    }

    /// The earliest outstanding event instant, if any.
    fn next_event(&self) -> Option<Time> {
        let mut next: Option<Time> = None;
        let mut consider = |t: Option<Time>| {
            next = match (next, t) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        };
        consider(self.running.peek().map(|&Reverse((t, _))| t));
        consider(self.pending.peek().map(|&Reverse((t, _))| t));
        // Breakpoints only matter while someone could be woken by them —
        // but filtering on non-empty waiting here would diverge from the
        // batch engine only in *skipped no-op decisions*, not in schedules;
        // keeping them unconditional also pops the edges as time passes.
        consider(self.edges.front().map(|&(t, _)| t));
        next
    }

    /// Consult the policy at the current instant and apply its starts (the
    /// shared [`DecisionStep`]); the bookkeeping of a start beyond substrate
    /// and waiting list is the service's own.
    fn decide_now(&mut self, effects: &mut Effects) {
        let (now, base) = (self.now, self.base);
        self.step.decide(
            &self.policy,
            now,
            &self.jobs,
            &mut self.waiting,
            &mut self.substrate,
            |id| Some(id.0 - base),
            |pos, job, completion| {
                self.schedule.place(job.id, now);
                self.makespan = self.makespan.max(completion);
                self.running.push(Reverse((completion, pos)));
                self.completion_of[pos] = Some(completion);
                self.running_count += 1;
                effects.started.push(Placement {
                    job: job.id,
                    start: now,
                });
            },
        );
    }

    /// A window `[start, end)` of `width` processors joins the overlay
    /// (`width > 0`) or leaves it (`width < 0`): two insert-or-cancel steps
    /// on the edge list. Edges at or before `now` are never kept — the
    /// clock has popped them, and no decision is owed in the past.
    fn shift_overlay(&mut self, start: Time, end: Time, width: i64) {
        for (at, delta) in [(start, -width), (end, width)] {
            if at <= self.now {
                continue;
            }
            let i = self.edges.partition_point(|&(t, _)| t < at);
            match self.edges.get_mut(i) {
                Some(edge) if edge.0 == at => {
                    edge.1 += delta;
                    if edge.1 == 0 {
                        self.edges.remove(i);
                    }
                }
                _ => self.edges.insert(i, (at, delta)),
            }
        }
    }
}

#[cfg(test)]
impl<C: CapacityQuery + Speculate> ScheduleService<C> {
    /// The from-scratch sweep the incremental edge list replaced, kept as
    /// its oracle: derived state checked against authoritative state. Every
    /// effective window of [`ScheduleService::state`] — reservations,
    /// drains, deadline-committed placements — contributes `(start, −width)`
    /// and `(end, +width)`; an instant after `now` is an edge iff its net is
    /// non-zero.
    fn assert_edges_match_a_fresh_sweep(&self) {
        let state = self.state();
        let reservations = state.reservations.iter().map(|r| (r.start, r.end, r.width));
        let drains = state.drains.iter().map(|d| (d.start, d.end, d.width));
        let committed = state.placements.iter().filter_map(|p| {
            let job = state.jobs[p.job.0];
            let end = p.start.saturating_add(job.duration);
            state.flags[p.job.0]
                .guaranteed
                .then_some((p.start, end, job.width))
        });
        let mut events: Vec<(Time, i64)> = reservations
            .chain(drains)
            .chain(committed)
            .flat_map(|(s, e, w)| [(s, -i64::from(w)), (e, i64::from(w))])
            .collect();
        events.sort_unstable();
        let mut swept: Vec<(Time, i64)> = Vec::new();
        for (t, delta) in events {
            match swept.last_mut() {
                Some(last) if last.0 == t => last.1 += delta,
                _ => swept.push((t, delta)),
            }
        }
        swept.retain(|&(t, net)| net != 0 && t > state.now);
        let edges: Vec<(Time, i64)> = self.edges.iter().copied().collect();
        assert_eq!(
            edges, swept,
            "edge list diverged from the sweep at {}",
            state.now
        );
        let horizon = swept.last().map_or(Time::ZERO, |&(t, _)| t);
        assert_eq!(
            self.horizon().anchor,
            state.now.max(self.latest_release).max(horizon)
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
        assert_eq!(svc.reservations().len(), 0);
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
        assert!(svc.drains().is_empty());
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
        assert_eq!(svc.drains()[0].end, Time(3));
        assert!(svc.drains()[0].revoked);
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
            svc.assert_edges_match_a_fresh_sweep();
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
        restored.assert_edges_match_a_fresh_sweep();
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

    #[test]
    fn retire_with_nothing_completed_returns_zero() {
        let mut svc = service(4);
        let mut sink = VecSink::default();
        assert_eq!(svc.retire_completed(&mut sink), 0);
        svc.submit(2, Dur(5), None).unwrap();
        assert_eq!(
            svc.retire_completed(&mut sink),
            0,
            "the job is still running"
        );
        assert!(sink.records.is_empty());
        assert_eq!(svc.retired_records(), 0);
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
                    retiring.retire_completed(&mut sink);
                }
            }
            retiring.drain();
            twin.drain();
            retiring.retire_completed(&mut sink);
            assert!(
                retiring.retired_records() > 0,
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
        assert_eq!(svc.retire_completed(&mut sink), 2);
        assert_eq!(svc.retired_records(), 2);
        assert_eq!(
            sink.records.iter().map(|r| r.job).collect::<Vec<_>>(),
            vec![JobId(0), JobId(1)]
        );
        // The catalog now holds only the four live jobs; the waiting queue
        // was rebased across the compaction and keeps scheduling correctly.
        assert_eq!(svc.jobs.len(), 4);
        svc.drain();
        assert_eq!(svc.retire_completed(&mut sink), 4);
        assert_eq!(
            svc.jobs.len(),
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
        assert_eq!(svc.retire_completed(&mut sink), 1);
        let (id, _) = svc.submit(1, Dur(1), None).unwrap();
        assert_eq!(id, JobId(2), "ids are global, not catalog positions");
        svc.drain();
        svc.retire_completed(&mut sink);
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
            assert_eq!(svc.retire_completed(&mut sink), 1, "{mode:?}");
            let (records, metrics) = svc.snapshot();
            assert!(records.is_empty());
            assert_eq!(metrics.jobs, 1);
            assert_eq!(sink.records[0].job, JobId(0));
            assert_eq!(
                svc.jobs.len(),
                0,
                "{mode:?}: catalog compacts after the re-run"
            );
        }
    }

    #[test]
    #[should_panic(expected = "retiring session cannot be checkpointed")]
    fn state_refuses_a_retiring_session() {
        let mut svc = service(2);
        let mut sink = VecSink::default();
        svc.submit(1, Dur(1), None).unwrap();
        svc.drain();
        assert_eq!(svc.retire_completed(&mut sink), 1);
        let _ = svc.state();
    }
}
