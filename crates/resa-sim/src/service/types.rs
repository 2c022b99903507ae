//! The vocabulary of the resident service: refusals, windows, per-job flags,
//! scenario knobs, and the shapes `stats` / `state` report.

#[cfg(doc)]
use super::ScheduleService;
use crate::metrics::MetricsAccumulator;
use resa_core::prelude::*;
use serde::{DeError, Deserialize, Serialize, Value};

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
    /// `Horizon` in `op.rs`). Refused at admission: nothing was journaled
    /// and no state changed.
    HorizonOverflow,
    /// The [`crate::concurrent::ConcurrentService`] has been shut down; no
    /// further mutating requests can be applied.
    ServiceStopped,
    /// The write-ahead journal of a durable service rejected the record for
    /// this op (see [`OpJournal`](crate::prelude::OpJournal)); the op was
    /// **not** applied — a mutation that cannot be made durable is refused
    /// rather than silently volatile.
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

/// Which overlay table a `ServiceWindow` lives in. The kinds differ in how
/// a window gets *in* — [`ScheduleService::reserve`] refuses one that does
/// not fit, [`ScheduleService::inject`] preempts running jobs to make room —
/// and share everything after; each numbers its windows densely from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// An advance reservation; withdrawn by `cancel`.
    Reservation,
    /// A failure/maintenance drain; withdrawn by `revoke`.
    Drain,
}

impl WindowKind {
    /// Both kinds, in table order (effective overlay, persisted state).
    pub const ALL: [WindowKind; 2] = [WindowKind::Reservation, WindowKind::Drain];

    /// The refusal for an id this kind never handed out.
    pub(super) fn unknown(self, id: usize) -> ServiceError {
        match self {
            WindowKind::Reservation => ServiceError::UnknownReservation { id },
            WindowKind::Drain => ServiceError::UnknownDrain { id },
        }
    }

    /// The refusal for a window already withdrawn or already over.
    pub(super) fn inactive(self, id: usize) -> ServiceError {
        match self {
            WindowKind::Reservation => ServiceError::ReservationInactive { id },
            WindowKind::Drain => ServiceError::DrainInactive { id },
        }
    }
}

/// One overlay window: `width` processors withdrawn during `[start, end)`. A
/// window withdrawn early (cancelled reservation, revoked drain) keeps its
/// elapsed prefix — capacity blocked in the past cannot be given back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceWindow {
    /// Dense id within the window's [`WindowKind`].
    pub id: usize,
    /// Processors withdrawn.
    pub width: u32,
    /// Start of the window.
    pub start: Time,
    /// Exclusive end of the *effective* window (truncated by withdrawal).
    pub end: Time,
    /// Whether `cancel` / `revoke` resolved this window.
    pub released: bool,
}

impl ServiceWindow {
    /// Whether the window blocks (or blocked) any capacity at all: one
    /// withdrawn before it started collapsed to zero length, one withdrawn
    /// midway still counts with its elapsed prefix.
    pub fn is_effective(&self) -> bool {
        self.end > self.start
    }
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
    /// Parse the canonical lowercase name (the CLI flag value).
    pub fn parse(s: &str) -> Option<DrainMode> {
        match s {
            "restart" => Some(DrainMode::Restart),
            "checkpoint" => Some(DrainMode::Checkpoint),
            _ => None,
        }
    }
}

/// How a deadline submission
/// ([`Op::SubmitDeadline`](crate::op::Op::SubmitDeadline)) treats a job
/// whose speculative completion bound misses the due date. A job whose bound *meets* the due
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

/// The policy as the protocol spells it: its lowercase name.
impl Serialize for AdmissionPolicy {
    fn to_value(&self) -> Value {
        let name = match self {
            AdmissionPolicy::Reject => "reject",
            AdmissionPolicy::Boost => "boost",
        };
        Value::Str(name.to_string())
    }
}

impl Deserialize for AdmissionPolicy {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match String::from_value(value)?.as_str() {
            "reject" => Ok(AdmissionPolicy::Reject),
            "boost" => Ok(AdmissionPolicy::Boost),
            other => Err(DeError::custom(format!(
                "unknown admission policy '{other}' (reject|boost)"
            ))),
        }
    }
}

/// How a deadline submission
/// ([`Op::SubmitDeadline`](crate::op::Op::SubmitDeadline)) was resolved.
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
/// state a journal snapshot record persists (see
/// [`OpJournal`](crate::prelude::OpJournal)) and
/// [`ScheduleService::restore`] rebuilds a live service from.
///
/// *Derived-state-free*: the pending/running heaps, the decision
/// breakpoints, the counters and the substrate's availability function are
/// all rebuilt from the jobs, the windows and the placements. The
/// waiting-queue *order* is state, not a cache — boosts jump the queue and
/// drain preemptions re-queue victims at the instant they were killed — and
/// is persisted verbatim in `queue`. `makespan` is the one derived value the
/// record carries (the format predates the split); restore re-derives it.
///
/// A session that retires completed jobs
/// ([`ScheduleService::retire_completed`]) has compacted a prefix of its
/// catalog away: `base` says how many ids went, `retired_placement` which
/// live positions already left the schedule, and `retired` carries their
/// folded metrics, so a restored session reports whole-run metrics bit for
/// bit.
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
    /// Ids below this were retired and compacted out of `jobs`; `0` for a
    /// session that never retired anything.
    pub base: usize,
    /// Every job not compacted away, in id order (ids are dense, position
    /// `pos` holds id `base + pos`). A job checkpoint-requeued by a drain
    /// carries its *remaining* duration.
    pub jobs: Vec<Job>,
    /// Per-job scenario flags, parallel to `jobs`.
    pub flags: Vec<JobFlags>,
    /// Every window ever accepted, one table per [`WindowKind`] (in
    /// [`WindowKind::ALL`] order), each in id order, withdrawal-truncated.
    pub windows: [Vec<ServiceWindow>; 2],
    /// Every placement decided and not retired, in decision order.
    pub placements: Vec<Placement>,
    /// The waiting queue (job positions) in queue order, front first.
    pub queue: Vec<usize>,
    /// Parallel to `jobs`: whether the position's placement was retired.
    pub retired_placement: Vec<bool>,
    /// Metrics of the retired placements, folded in decision order.
    pub retired: MetricsAccumulator,
}
