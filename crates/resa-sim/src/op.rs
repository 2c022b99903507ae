//! Ops as data: the one request/response vocabulary of the resident service.
//!
//! Every layer of `resa serve` speaks [`Op`] and [`Reply`]: the protocol
//! parses a request line into an `Op`, [`ScheduleService::apply`] is the
//! **only** place an op is mapped onto a service method, the journal
//! ([`crate::journal`]) records the `Op` write-ahead and replays it through
//! the same call, the concurrent front ([`crate::concurrent`]) carries it
//! through its queue, and the protocol renders the `Reply` that comes back.
//! The layers above the sequential service are wrappers behind the
//! one-method [`Session`] trait.
//!
//! Admission is decided here too, before anything is journaled or mutated:
//! [`Op::validate`] rejects malformed shapes (`width ∉ 1..=m`, zero
//! durations) and any op whose instants or durations could make a
//! `Time + Dur` the service or a policy computes pass `u64::MAX` (see
//! [`Horizon`]).

use crate::metrics::SimMetrics;
use crate::policy::ReferencePolicy;
use crate::service::{
    AdmissionPolicy, DeadlineOutcome, Effects, ScheduleService, ServiceError, ServiceStats,
};
use crate::trace::JobRecord;
use resa_core::capacity::Speculate;
use resa_core::prelude::*;

/// One request to the resident service: the ten writes, then the three
/// reads. Writes are journaled and recorded in the serial log; reads are
/// neither.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// [`ScheduleService::submit`].
    Submit {
        /// Processors requested.
        width: u32,
        /// Run time.
        duration: Dur,
        /// Release date (`None` = on arrival).
        release: Option<Time>,
    },
    /// [`ScheduleService::reserve`].
    Reserve {
        /// Processors withdrawn.
        width: u32,
        /// Window length.
        duration: Dur,
        /// Window start.
        start: Time,
    },
    /// [`ScheduleService::cancel`].
    Cancel {
        /// Reservation id.
        id: usize,
    },
    /// [`ScheduleService::advance`].
    Advance {
        /// Target instant.
        to: Time,
    },
    /// Advance the clock to `max(now, to)`: [`ScheduleService::advance`]
    /// treating a stale target as "no time passed" instead of rejecting it.
    AdvanceClamped {
        /// Target instant (clamped to `now`).
        to: Time,
    },
    /// [`ScheduleService::drain`].
    Drain,
    /// [`ScheduleService::inject`].
    Inject {
        /// Machines withdrawn by the failure/maintenance window.
        width: u32,
        /// Window length.
        duration: Dur,
        /// Window start.
        start: Time,
    },
    /// [`ScheduleService::revoke`].
    Revoke {
        /// Drain id.
        id: usize,
    },
    /// A deadline-gated submission: committed when its speculative
    /// completion meets `deadline`, otherwise handled per `admission`.
    SubmitDeadline {
        /// Processors requested.
        width: u32,
        /// Run time.
        duration: Dur,
        /// Release date (`None` = on arrival).
        release: Option<Time>,
        /// Due date the completion must not exceed.
        deadline: Time,
        /// What to do when the speculative bound misses the due date.
        admission: AdmissionPolicy,
    },
    /// A moldable submission: the service picks the width from `widths`
    /// ([`best_width`]) and submits the job rigidly.
    SubmitMoldable {
        /// Admissible width menu.
        widths: Vec<u32>,
        /// Total work (processor×ticks).
        area: u64,
    },
    /// [`ScheduleService::query`].
    Query {
        /// Processors the probed job would need.
        width: u32,
        /// Its run time.
        duration: Dur,
        /// Earliest admissible start (clamped to `now`).
        not_before: Option<Time>,
    },
    /// [`ScheduleService::stats`].
    Stats,
    /// [`ScheduleService::snapshot`], with the clock and cluster size of the
    /// same instant.
    Records {
        /// Only list records of job ids strictly greater than this (a poller
        /// passes the largest id it has seen). The metrics always cover the
        /// whole run.
        since: Option<u64>,
    },
}

/// The payload of a successful [`Op`], mirroring the sequential return
/// shapes. `Effects` are owned clones of the service's reused buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A submitted job: its id plus the starts/completions it triggered.
    Job {
        /// The new job's id.
        id: JobId,
        /// What the arrival decision changed.
        effects: Effects,
    },
    /// An accepted reservation: its id plus triggered effects.
    Reservation {
        /// The new reservation's id.
        id: usize,
        /// What the overlay change triggered.
        effects: Effects,
    },
    /// Effects only (cancel / revoke / advance / drain).
    Effects(Effects),
    /// An injected drain: its id, the jobs it preempted, and the effects of
    /// the decision the capacity change triggered.
    Drained {
        /// The new drain's id.
        id: usize,
        /// Victims killed-and-requeued, in re-queue order.
        preempted: Vec<JobId>,
        /// What the overlay change triggered.
        effects: Effects,
    },
    /// A resolved deadline submission: the job id and how admission landed.
    Deadline {
        /// The new job's id.
        id: JobId,
        /// Committed placement or boosted acceptance.
        outcome: DeadlineOutcome,
        /// What the admission triggered.
        effects: Effects,
    },
    /// A concretized moldable submission: the job id and the chosen shape.
    Moldable {
        /// The new job's id.
        id: JobId,
        /// The width/duration/placement [`best_width`] settled on.
        choice: WidthChoice,
        /// What the arrival decision changed.
        effects: Effects,
    },
    /// The earliest start the probed job would get (`None`: never fits).
    Query(Option<Time>),
    /// Aggregate counters.
    Stats(ServiceStats),
    /// Per-job records and run metrics.
    Records(SessionRecords),
}

/// Per-job lifecycle records plus run metrics of a session, with the clock
/// and cluster size of the same point of the serial order — the answer to
/// [`Op::Records`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRecords {
    /// Virtual time at that point.
    pub now: Time,
    /// Cluster size.
    pub machines: u32,
    /// One record per started job — the shape
    /// [`ScheduleService::snapshot`] returns.
    pub records: Vec<JobRecord>,
    /// Run metrics of the schedule so far.
    pub metrics: SimMetrics,
}

impl SessionRecords {
    /// Keep only the records of job ids strictly greater than `since`.
    pub fn page(mut self, since: Option<u64>) -> Self {
        if let Some(since) = since {
            self.records.retain(|r| r.job.0 as u64 > since);
        }
        self
    }
}

/// A [`Session`]'s answer to one op.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteReply {
    /// The op's outcome, identical to what the sequential service would
    /// have returned at the same point of the serial order.
    pub result: Result<Reply, ServiceError>,
    /// Virtual time after the op was applied.
    pub now: Time,
    /// The publication generation covering this op (see
    /// [`ConcurrentService`](crate::prelude::ConcurrentService)); `0` from a
    /// sequential session.
    pub generation: u64,
}

/// The two accumulators of the overflow guard. No instant the service will
/// ever compute — a start, a completion, a policy's look-ahead — exceeds
/// `anchor + work`: past `anchor` no window is left and every job is
/// released, so the cluster never idles while work remains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Horizon {
    /// The latest instant anything accepted is anchored at: the clock, the
    /// release dates, the ends of the live windows.
    pub anchor: Time,
    /// Total duration of the jobs in the catalog.
    pub work: u128,
}

/// The stateless shape check every sized op shares.
pub(crate) fn check_shape(width: u32, duration: Dur, machines: u32) -> Result<(), ServiceError> {
    if width == 0 || width > machines {
        return Err(ServiceError::BadWidth { width, machines });
    }
    if duration.is_zero() {
        return Err(ServiceError::ZeroDuration);
    }
    Ok(())
}

impl Op {
    /// Whether the op mutates the service (and is therefore journaled and
    /// recorded in the serial log).
    pub fn is_write(&self) -> bool {
        !matches!(self, Op::Query { .. } | Op::Stats | Op::Records { .. })
    }

    /// Whether the op moves the clock — the only ops after which jobs can
    /// have completed, so the only ones catalog retirement follows
    /// ([`ScheduleService::retire_after`]), live and at journal replay.
    pub fn moves_clock(&self) -> bool {
        matches!(
            self,
            Op::Advance { .. } | Op::AdvanceClamped { .. } | Op::Drain
        )
    }

    /// Admission, run once before the op is journaled or applied: the shape
    /// must be valid on a cluster of `machines` processors, and accepting
    /// the op must keep `horizon` — extended by the instant the op names
    /// and the work it adds — within `u64`, so that no `Time + Dur` the
    /// service or a policy computes afterwards can overflow.
    pub fn validate(&self, machines: u32, horizon: Horizon) -> Result<(), ServiceError> {
        let at = |t: Time| u128::from(t.ticks());
        // The latest instant the op names, and the work it adds.
        let (anchor, work) = match *self {
            Op::Submit {
                width,
                duration,
                release,
            }
            | Op::SubmitDeadline {
                width,
                duration,
                release,
                ..
            } => {
                check_shape(width, duration, machines)?;
                (release.map_or(0, at), duration.0)
            }
            Op::Reserve {
                width,
                duration,
                start,
            }
            | Op::Inject {
                width,
                duration,
                start,
            } => {
                check_shape(width, duration, machines)?;
                (at(start) + u128::from(duration.0), 0)
            }
            Op::Query {
                width,
                duration,
                not_before,
            } => {
                check_shape(width, duration, machines)?;
                (not_before.map_or(0, at), duration.0)
            }
            Op::Advance { to } | Op::AdvanceClamped { to } => (at(to), 0),
            // Whatever width is picked, the rigid form is no longer than this.
            Op::SubmitMoldable { area, .. } => (0, area),
            Op::Cancel { .. } | Op::Revoke { .. } | Op::Drain | Op::Stats | Op::Records { .. } => {
                (0, 0)
            }
        };
        let reach = anchor.max(at(horizon.anchor)) + horizon.work;
        if reach + u128::from(work) > u128::from(u64::MAX) {
            return Err(ServiceError::HorizonOverflow);
        }
        Ok(())
    }
}

impl Reply {
    /// The starts and completions a write triggered (`None` for a read).
    pub fn effects(&self) -> Option<&Effects> {
        match self {
            Reply::Job { effects, .. }
            | Reply::Reservation { effects, .. }
            | Reply::Effects(effects)
            | Reply::Drained { effects, .. }
            | Reply::Deadline { effects, .. }
            | Reply::Moldable { effects, .. } => Some(effects),
            Reply::Query(_) | Reply::Stats(_) | Reply::Records(_) => None,
        }
    }

    /// The id a write created — job, reservation or drain; 0 when it
    /// created none — and its effects (none for a read). What the typed
    /// shims kept for `benchmark/layers` unpack; it goes when they do.
    pub fn into_parts(self) -> (usize, Effects) {
        match self {
            Reply::Job { id, effects }
            | Reply::Deadline { id, effects, .. }
            | Reply::Moldable { id, effects, .. } => (id.0, effects),
            Reply::Reservation { id, effects } | Reply::Drained { id, effects, .. } => {
                (id, effects)
            }
            Reply::Effects(effects) => (0, effects),
            Reply::Query(_) | Reply::Stats(_) | Reply::Records(_) => (0, Effects::default()),
        }
    }
}

impl<C: CapacityQuery + Speculate> ScheduleService<C> {
    /// Apply one op: admission ([`Op::validate`]), then the typed method it
    /// names. The only place an op kind is mapped onto a service method;
    /// every other layer wraps this call.
    pub fn apply(&mut self, op: &Op) -> Result<Reply, ServiceError> {
        self.apply_after(op, || Ok(()))
    }

    /// [`ScheduleService::apply`] with a write-ahead step between admission
    /// and mutation: `write_ahead` runs once the op is known to be
    /// admissible and before any state changes, and its error refuses the
    /// op. The journal appends its record there.
    pub fn apply_after(
        &mut self,
        op: &Op,
        write_ahead: impl FnOnce() -> Result<(), ServiceError>,
    ) -> Result<Reply, ServiceError> {
        op.validate(self.machines(), self.horizon())?;
        write_ahead()?;
        match *op {
            Op::Submit {
                width,
                duration,
                release,
            } => self
                .submit(width, duration, release)
                .map(|(id, fx)| Reply::Job {
                    id,
                    effects: fx.clone(),
                }),
            Op::Reserve {
                width,
                duration,
                start,
            } => self
                .reserve(width, duration, start)
                .map(|(id, fx)| Reply::Reservation {
                    id,
                    effects: fx.clone(),
                }),
            Op::Cancel { id } => self.cancel(id).map(|fx| Reply::Effects(fx.clone())),
            Op::Advance { to } => self.advance(to).map(|fx| Reply::Effects(fx.clone())),
            Op::AdvanceClamped { to } => Ok(Reply::Effects(self.advance_clamped(to).clone())),
            Op::Drain => Ok(Reply::Effects(self.drain().clone())),
            Op::Inject {
                width,
                duration,
                start,
            } => {
                let (id, effects) = self
                    .inject(width, duration, start)
                    .map(|(id, fx)| (id, fx.clone()))?;
                Ok(Reply::Drained {
                    id,
                    preempted: self.last_preempted().to_vec(),
                    effects,
                })
            }
            Op::Revoke { id } => self.revoke(id).map(|fx| Reply::Effects(fx.clone())),
            Op::SubmitDeadline {
                width,
                duration,
                release,
                deadline,
                admission,
            } => self
                .submit_deadline(width, duration, release, deadline, admission)
                .map(|(id, outcome, fx)| Reply::Deadline {
                    id,
                    outcome,
                    effects: fx.clone(),
                }),
            Op::SubmitMoldable { ref widths, area } => {
                self.submit_moldable(widths, area)
                    .map(|(id, choice, fx)| Reply::Moldable {
                        id,
                        choice,
                        effects: fx.clone(),
                    })
            }
            Op::Query {
                width,
                duration,
                not_before,
            } => self.query(width, duration, not_before).map(Reply::Query),
            Op::Stats => Ok(Reply::Stats(self.stats())),
            Op::Records { since } => Ok(Reply::Records(
                self.snapshot_parts().into_records().page(since),
            )),
        }
    }
}

/// Anything ops can be applied to: one session of a concurrent front
/// ([`crate::concurrent::ServiceClient`]) — what every `resa serve`
/// transport drives — and the sequential [`ScheduleService`] itself.
pub trait Session {
    /// Apply one op and report its outcome with the clock after it.
    fn apply(&mut self, op: &Op) -> WriteReply;
    /// The policy the service decides with.
    fn policy(&self) -> ReferencePolicy;
}

impl<C: CapacityQuery + Speculate> Session for ScheduleService<C> {
    fn apply(&mut self, op: &Op) -> WriteReply {
        let result = ScheduleService::apply(self, op);
        WriteReply {
            result,
            now: self.now(),
            generation: 0,
        }
    }

    fn policy(&self) -> ReferencePolicy {
        ScheduleService::policy(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Magnitudes from harmless to the edge of `u64`.
    const PALETTE: [u64; 8] = [0, 1, 9, 1 << 32, 1 << 62, 1 << 63, u64::MAX - 5, u64::MAX];

    fn hostile_op((kind, width, a, b, c): (u8, u32, usize, usize, usize)) -> Op {
        let (duration, at, other) = (Dur(PALETTE[a]), Time(PALETTE[b]), PALETTE[c]);
        match kind % 12 {
            0 | 1 => Op::Submit {
                width,
                duration,
                release: (b > 0).then_some(at),
            },
            2 => Op::Reserve {
                width,
                duration,
                start: at,
            },
            3 => Op::Inject {
                width,
                duration,
                start: at,
            },
            4 => Op::Advance { to: at },
            5 => Op::AdvanceClamped { to: at },
            6 => Op::SubmitDeadline {
                width,
                duration,
                release: (b > 0).then_some(at),
                deadline: Time(other),
                admission: if c % 2 == 0 {
                    AdmissionPolicy::Reject
                } else {
                    AdmissionPolicy::Boost
                },
            },
            7 => Op::SubmitMoldable {
                widths: vec![1, width],
                area: other,
            },
            8 => Op::Query {
                width,
                duration,
                not_before: (b > 0).then_some(at),
            },
            9 => Op::Cancel { id: c },
            10 => Op::Revoke { id: c },
            _ => Op::Drain,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever instants and durations a session is fed, every op is
        /// answered — accepted or refused — and the clock can always be run
        /// to the end: no `Time + Dur` overflows (this build panics on
        /// one), on either substrate, under any policy. A service restored
        /// from the state admits exactly what the live one does.
        #[test]
        fn hostile_magnitudes_are_refused_not_computed(
            policy in 0usize..3,
            raw in proptest::collection::vec((0u8..12, 0u32..6, 0usize..8, 0usize..8, 0usize..8), 1..24),
        ) {
            let policy = [ReferencePolicy::Fcfs, ReferencePolicy::Easy, ReferencePolicy::Greedy][policy];
            let mut tl = ScheduleService::new(policy, AvailabilityTimeline::constant(4));
            let mut pf = ScheduleService::new(policy, ResourceProfile::constant(4));
            for op in raw.into_iter().map(hostile_op) {
                let mut restored =
                    ScheduleService::restore(policy, &tl.state(), AvailabilityTimeline::constant(4));
                let answer = tl.apply(&op);
                prop_assert_eq!(&answer, &pf.apply(&op), "{:?}", op);
                prop_assert_eq!(&answer, &restored.apply(&op), "restored: {:?}", op);
            }
            prop_assert_eq!(tl.apply(&Op::Drain), pf.apply(&Op::Drain));
        }
    }
}
