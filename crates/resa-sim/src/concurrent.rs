//! Multi-tenant front for [`ScheduleService`]: one writer, snapshot readers.
//!
//! [`ScheduleService`] is inherently single-threaded — every request mutates
//! (or speculates against) one live substrate. A service shared by many
//! sessions therefore runs the classic read-mostly architecture:
//!
//! * **One writer thread** owns the `ScheduleService`. Mutating ops
//!   (`submit` / `reserve` / `cancel` / `advance` / `drain`) funnel through
//!   an [`mpsc`] channel; the writer dequeues them in **batches** (up to
//!   [`BATCH_MAX`]), applies them in arrival order, and then *publishes* an
//!   immutable [`ServiceSnapshot`] — the counters and the frozen
//!   [`TimelineSnapshot`] of the availability function from `now` on — by
//!   swapping an `Arc` behind an [`RwLock`] (held only for the duration of
//!   a pointer swap or clone, never across any computation).
//! * **Readers never queue behind writes.** `query` / `stats` run on the
//!   calling thread against the latest published `Arc<ServiceSnapshot>`;
//!   the only shared access is cloning the `Arc` out of the slot. Read
//!   throughput scales with cores — pinned by the concurrent-clients
//!   benchmark in `resa-bench`.
//! * **A published snapshot holds live state only.** Its size follows the
//!   running jobs and the windows reaching past `now`, never the session's
//!   length: the service drops availability behind the clock, and the job
//!   catalog and schedule — which do grow with the session — are not
//!   published at all. The one reader of those, [`ServiceClient::records`],
//!   asks the writer for a copy through the same queue as the writes, so
//!   only that (rare) request pays for the history it reads.
//!
//! # Consistency model
//!
//! The writer publishes the post-batch snapshot **before** delivering the
//! batch's replies. A client that has received the reply to its own write
//! therefore always observes a published generation that *includes* that
//! write — read-your-writes per session, which is exactly what makes a
//! single-session conversation over [`ConcurrentService`] indistinguishable
//! from one over a private sequential [`ScheduleService`] (the golden CLI
//! transcripts rely on this). Reads may lag concurrent *other-session*
//! writes by at most one batch; every answer is stamped with the
//! [`ServiceSnapshot::generation`] it was computed from, so staleness is
//! observable, never silent. [`ServiceClient::records`] is answered in
//! queue order — everything dequeued ahead of it is applied first — so it
//! is a point of the serial order and covers the caller's own writes too.
//!
//! # Serial equivalence
//!
//! The dequeue order of the writer defines a total *serial order* over all
//! sessions' ops. [`ConcurrentService::with_recording`] keeps that order as
//! a log of [`AppliedOp`]s; replaying the log on a fresh sequential
//! [`ScheduleService`] must reproduce the concurrent service's final state
//! bit for bit — the oracle behind the multi-client stress tests and the
//! serial-equivalence proptests (`tests/concurrent_stress.rs`).

use crate::journal::OpJournal;
use crate::metrics::SimMetrics;
use crate::reference::ReferencePolicy;
use crate::service::{
    records_of, AdmissionPolicy, DeadlineOutcome, Effects, ScheduleService, ServiceError,
    ServiceStats,
};
use crate::trace::JobRecord;
use resa_core::capacity::Speculate;
use resa_core::prelude::*;
use resa_core::snapshot::Snapshotable;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{mpsc, Arc, RwLock};
use std::thread::JoinHandle;

/// Most ops the writer applies between two snapshot publications. A larger
/// batch amortizes the publication cost — one freeze of the live
/// availability function, `O(B)` over breakpoints from `now` on — under
/// write bursts; a smaller one tightens reader staleness. 64 keeps
/// worst-case staleness at one sub-millisecond batch while collapsing
/// publication cost under load.
pub const BATCH_MAX: usize = 64;

/// One mutating request, as carried through the writer channel and recorded
/// in the serial log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOp {
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
    /// [`ScheduleService::advance_clamped`].
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
    /// [`ScheduleService::submit_deadline`].
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
    /// [`ScheduleService::submit_moldable`].
    SubmitMoldable {
        /// Admissible width menu.
        widths: Vec<u32>,
        /// Total work (processor×ticks).
        area: u64,
    },
}

/// One entry of the serial log: which session issued which op, in the order
/// the writer applied them. Replaying a log through a sequential
/// [`ScheduleService`] reproduces the concurrent run (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedOp {
    /// The issuing session (see [`ServiceClient::session`]).
    pub session: u64,
    /// The op, exactly as applied.
    pub op: WriteOp,
}

impl AppliedOp {
    /// Apply this op to a sequential service, discarding the outcome. The
    /// serial-equivalence oracle replays a recorded log with this;
    /// rejected ops leave no trace on either side, so outcomes need no
    /// reconciliation — final states are compared instead.
    pub fn replay<C: CapacityQuery + Speculate>(&self, svc: &mut ScheduleService<C>) {
        let _ = apply(svc, &self.op);
    }
}

/// The payload of a successful write, mirroring the sequential return
/// shapes. `Effects` are owned clones — the reused buffer of the writer's
/// service never crosses the channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Applied {
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
}

/// The writer's answer to one op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteReply {
    /// The op's outcome, identical to what the sequential service would
    /// have returned at the same point of the serial order.
    pub result: Result<Applied, ServiceError>,
    /// Virtual time after the op was applied.
    pub now: Time,
    /// The publication generation covering this op: the snapshot slot held
    /// a generation `>=` this before the reply was sent (read-your-writes).
    pub generation: u64,
}

/// An immutable view of the service's live state, published by the writer at
/// every batch boundary and read lock-free by any number of threads. What
/// grows with the session (job catalog, schedule) is deliberately absent —
/// see [`ServiceClient::records`].
#[derive(Debug, Clone)]
pub struct ServiceSnapshot {
    /// Monotone publication counter; generation 0 is the pre-write state.
    pub generation: u64,
    /// The policy the service decides with.
    pub policy: ReferencePolicy,
    /// Aggregate counters at publication time.
    pub stats: ServiceStats,
    /// The frozen availability function, stamped with the same generation.
    pub timeline: TimelineSnapshot,
}

/// Per-job lifecycle records plus run metrics of a session, with the clock
/// and cluster size of the same point of the serial order — what
/// [`ServiceClient::records`] answers.
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

/// The writer's answer to a records request: copies of what the records are
/// computed from, taken between two ops.
struct SessionCopy {
    now: Time,
    instance: ResaInstance,
    schedule: Schedule,
}

impl ServiceSnapshot {
    fn capture<C>(svc: &ScheduleService<C>, generation: u64) -> Self
    where
        C: Snapshotable,
    {
        ServiceSnapshot {
            generation,
            policy: svc.policy(),
            stats: svc.stats(),
            timeline: svc.freeze_timeline(generation),
        }
    }

    /// The speculative earliest-fit probe of [`ScheduleService::query`],
    /// answered from the frozen availability function: the earliest start a
    /// `width × duration` job would get, as of this snapshot's generation.
    /// Same validation, same clamping of `not_before` to the (snapshot)
    /// current time, same answer as the live probe at the generation the
    /// snapshot was frozen from.
    pub fn query(
        &self,
        width: u32,
        duration: Dur,
        not_before: Option<Time>,
    ) -> Result<Option<Time>, ServiceError> {
        let machines = self.stats.machines;
        if width == 0 || width > machines {
            return Err(ServiceError::BadWidth { width, machines });
        }
        if duration.is_zero() {
            return Err(ServiceError::ZeroDuration);
        }
        let from = not_before.unwrap_or(self.stats.now).max(self.stats.now);
        Ok(self.timeline.earliest_fit(width, duration, from))
    }
}

enum Request {
    Op {
        session: u64,
        op: WriteOp,
        reply: Sender<WriteReply>,
    },
    /// Copy the session out at this point of the queue. A read: neither
    /// journaled nor recorded in the serial log.
    Records {
        reply: Sender<SessionCopy>,
    },
    Stop,
}

/// Shared slot the writer publishes into; the lock guards a pointer swap
/// only, never any computation.
type Published = Arc<RwLock<Arc<ServiceSnapshot>>>;

/// The concurrent front: spawns the writer thread at construction, hands
/// out [`ServiceClient`]s, and returns the final sequential state (plus the
/// serial log, if recording) at [`ConcurrentService::shutdown`].
pub struct ConcurrentService<C>
where
    C: Snapshotable + Send + 'static,
{
    tx: Sender<Request>,
    published: Published,
    writer: Option<JoinHandle<(ScheduleService<C>, Vec<AppliedOp>)>>,
    sessions: AtomicU64,
}

impl<C> ConcurrentService<C>
where
    C: Snapshotable + Send + 'static,
{
    /// Wrap `svc` and start the writer thread. The pre-write state is
    /// published immediately as generation 0, so readers are never without
    /// a snapshot.
    pub fn new(svc: ScheduleService<C>) -> Self {
        Self::start(svc, false, None)
    }

    /// Like [`ConcurrentService::new`], but additionally record every
    /// applied op in dequeue order — the serial log handed back by
    /// [`ConcurrentService::shutdown`] for the equivalence oracle. The log
    /// grows without bound; production daemons use [`ConcurrentService::new`].
    pub fn with_recording(svc: ScheduleService<C>) -> Self {
        Self::start(svc, true, None)
    }

    /// Like [`ConcurrentService::new`], but write-ahead journal every
    /// applied op into `journal` (see [`crate::journal`]): each op is
    /// journaled *before* it is applied, the batch is synced per the
    /// journal's [`crate::journal::FsyncPolicy`] *before* the post-batch
    /// snapshot publishes and replies are delivered, and compaction runs at
    /// batch boundaries. An op whose journal append fails is **not**
    /// applied; its reply carries [`ServiceError::Journal`]. Pass a
    /// service rebuilt by [`crate::journal::Recovered::restore_service`]
    /// to resume a crashed session.
    pub fn with_journal(svc: ScheduleService<C>, journal: OpJournal) -> Self {
        Self::start(svc, false, Some(journal))
    }

    fn start(svc: ScheduleService<C>, record: bool, journal: Option<OpJournal>) -> Self {
        let published: Published =
            Arc::new(RwLock::new(Arc::new(ServiceSnapshot::capture(&svc, 0))));
        let (tx, rx) = mpsc::channel();
        let slot = Arc::clone(&published);
        let writer = std::thread::spawn(move || writer_loop(svc, rx, slot, record, journal));
        ConcurrentService {
            tx,
            published,
            writer: Some(writer),
            sessions: AtomicU64::new(0),
        }
    }

    /// Open a new session: a handle that submits writes to the writer
    /// thread and answers reads from the latest published snapshot. Clients
    /// are independent (`Send`); give each session thread its own.
    pub fn client(&self) -> ServiceClient {
        let session = self.sessions.fetch_add(1, Ordering::Relaxed);
        ServiceClient {
            session,
            tx: self.tx.clone(),
            published: Arc::clone(&self.published),
        }
    }

    /// The latest published snapshot (an `Arc` clone; never blocks on the
    /// writer).
    pub fn latest(&self) -> Arc<ServiceSnapshot> {
        Arc::clone(&self.published.read().expect("publish slot poisoned"))
    }

    /// Stop the writer and hand back the final sequential service plus the
    /// serial log (empty unless constructed with
    /// [`ConcurrentService::with_recording`]). Ops still queued behind the
    /// stop request are answered with [`ServiceError::ServiceStopped`];
    /// clients sending afterwards get the same error from the closed
    /// channel.
    pub fn shutdown(mut self) -> (ScheduleService<C>, Vec<AppliedOp>) {
        let _ = self.tx.send(Request::Stop);
        let writer = self.writer.take().expect("writer taken only here");
        writer.join().expect("writer thread panicked")
    }
}

impl<C> Drop for ConcurrentService<C>
where
    C: Snapshotable + Send + 'static,
{
    fn drop(&mut self) {
        if let Some(writer) = self.writer.take() {
            let _ = self.tx.send(Request::Stop);
            let _ = writer.join();
        }
    }
}

/// One session's handle onto a [`ConcurrentService`]: the mutating API of
/// [`ScheduleService`] (round-tripped through the writer, owned `Effects`
/// back) plus lock-free reads from the latest published snapshot.
pub struct ServiceClient {
    session: u64,
    tx: Sender<Request>,
    published: Published,
}

impl ServiceClient {
    /// The dense session id this client tags its ops with in the serial
    /// log.
    pub fn session(&self) -> u64 {
        self.session
    }

    fn roundtrip(&self, op: WriteOp) -> Result<WriteReply, ServiceError> {
        let (reply_tx, reply_rx) = mpsc::channel();
        self.tx
            .send(Request::Op {
                session: self.session,
                op,
                reply: reply_tx,
            })
            .map_err(|_| ServiceError::ServiceStopped)?;
        reply_rx.recv().map_err(|_| ServiceError::ServiceStopped)
    }

    /// [`ScheduleService::submit`], applied in the writer's serial order.
    pub fn submit(
        &self,
        width: u32,
        duration: Dur,
        release: Option<Time>,
    ) -> Result<(JobId, Effects), ServiceError> {
        let reply = self.roundtrip(WriteOp::Submit {
            width,
            duration,
            release,
        })?;
        match reply.result? {
            Applied::Job { id, effects } => Ok((id, effects)),
            _ => unreachable!("writer answered submit with a non-job payload"),
        }
    }

    /// [`ScheduleService::reserve`], applied in the writer's serial order.
    pub fn reserve(
        &self,
        width: u32,
        duration: Dur,
        start: Time,
    ) -> Result<(usize, Effects), ServiceError> {
        let reply = self.roundtrip(WriteOp::Reserve {
            width,
            duration,
            start,
        })?;
        match reply.result? {
            Applied::Reservation { id, effects } => Ok((id, effects)),
            _ => unreachable!("writer answered reserve with a non-reservation payload"),
        }
    }

    /// [`ScheduleService::cancel`], applied in the writer's serial order.
    pub fn cancel(&self, id: usize) -> Result<Effects, ServiceError> {
        match self.roundtrip(WriteOp::Cancel { id })?.result? {
            Applied::Effects(fx) => Ok(fx),
            _ => unreachable!("writer answered cancel with an id payload"),
        }
    }

    /// [`ScheduleService::advance`]; returns the new virtual time with the
    /// effects (the caller cannot peek at the writer's `now`).
    pub fn advance(&self, to: Time) -> Result<(Time, Effects), ServiceError> {
        let reply = self.roundtrip(WriteOp::Advance { to })?;
        let now = reply.now;
        match reply.result? {
            Applied::Effects(fx) => Ok((now, fx)),
            _ => unreachable!("writer answered advance with an id payload"),
        }
    }

    /// [`ScheduleService::advance_clamped`]; never `InThePast`, but still
    /// fallible with [`ServiceError::ServiceStopped`].
    pub fn advance_clamped(&self, to: Time) -> Result<(Time, Effects), ServiceError> {
        let reply = self.roundtrip(WriteOp::AdvanceClamped { to })?;
        let now = reply.now;
        match reply.result? {
            Applied::Effects(fx) => Ok((now, fx)),
            _ => unreachable!("writer answered advance with an id payload"),
        }
    }

    /// [`ScheduleService::inject`], through the writer; returns the drain
    /// id, the preempted job ids and the triggered effects.
    pub fn inject(
        &self,
        width: u32,
        duration: Dur,
        start: Time,
    ) -> Result<(usize, Vec<JobId>, Effects), ServiceError> {
        let reply = self.roundtrip(WriteOp::Inject {
            width,
            duration,
            start,
        })?;
        match reply.result? {
            Applied::Drained {
                id,
                preempted,
                effects,
            } => Ok((id, preempted, effects)),
            other => unreachable!("inject answered with {other:?}"),
        }
    }

    /// [`ScheduleService::revoke`], through the writer.
    pub fn revoke(&self, id: usize) -> Result<Effects, ServiceError> {
        match self.roundtrip(WriteOp::Revoke { id })?.result? {
            Applied::Effects(fx) => Ok(fx),
            other => unreachable!("revoke answered with {other:?}"),
        }
    }

    /// [`ScheduleService::submit_deadline`], through the writer.
    pub fn submit_deadline(
        &self,
        width: u32,
        duration: Dur,
        release: Option<Time>,
        deadline: Time,
        admission: AdmissionPolicy,
    ) -> Result<(JobId, DeadlineOutcome, Effects), ServiceError> {
        let reply = self.roundtrip(WriteOp::SubmitDeadline {
            width,
            duration,
            release,
            deadline,
            admission,
        })?;
        match reply.result? {
            Applied::Deadline {
                id,
                outcome,
                effects,
            } => Ok((id, outcome, effects)),
            other => unreachable!("submit_deadline answered with {other:?}"),
        }
    }

    /// [`ScheduleService::submit_moldable`], through the writer.
    pub fn submit_moldable(
        &self,
        widths: Vec<u32>,
        area: u64,
    ) -> Result<(JobId, WidthChoice, Effects), ServiceError> {
        let reply = self.roundtrip(WriteOp::SubmitMoldable { widths, area })?;
        match reply.result? {
            Applied::Moldable {
                id,
                choice,
                effects,
            } => Ok((id, choice, effects)),
            other => unreachable!("submit_moldable answered with {other:?}"),
        }
    }

    /// [`ScheduleService::drain`]; returns the final virtual time with the
    /// effects.
    pub fn drain(&self) -> Result<(Time, Effects), ServiceError> {
        let reply = self.roundtrip(WriteOp::Drain)?;
        let now = reply.now;
        match reply.result? {
            Applied::Effects(fx) => Ok((now, fx)),
            _ => unreachable!("writer answered drain with an id payload"),
        }
    }

    /// The latest published snapshot (an `Arc` clone; never blocks on the
    /// writer). Guaranteed to include every write this client has received
    /// a reply for.
    pub fn snapshot(&self) -> Arc<ServiceSnapshot> {
        Arc::clone(&self.published.read().expect("publish slot poisoned"))
    }

    /// [`ScheduleService::query`] against the latest snapshot — runs
    /// entirely on this thread, no writer involvement.
    pub fn query(
        &self,
        width: u32,
        duration: Dur,
        not_before: Option<Time>,
    ) -> Result<Option<Time>, ServiceError> {
        self.snapshot().query(width, duration, not_before)
    }

    /// [`ScheduleService::stats`] as of the latest snapshot.
    pub fn stats(&self) -> ServiceStats {
        self.snapshot().stats.clone()
    }

    /// [`ScheduleService::snapshot`] (records + metrics), with the clock
    /// and cluster size of the same instant. Unlike the other reads this is
    /// a round trip through the writer, which copies the job catalog,
    /// overlay and schedule out between two ops — in queue order, so every
    /// write this client has a reply for is covered. Records and metrics
    /// are then computed on this thread. Fails with
    /// [`ServiceError::ServiceStopped`] once the writer is gone.
    pub fn records(&self) -> Result<SessionRecords, ServiceError> {
        let (reply_tx, reply_rx) = mpsc::channel();
        self.tx
            .send(Request::Records { reply: reply_tx })
            .map_err(|_| ServiceError::ServiceStopped)?;
        let copy = reply_rx.recv().map_err(|_| ServiceError::ServiceStopped)?;
        let (records, metrics) = records_of(&copy.instance, &copy.schedule);
        Ok(SessionRecords {
            now: copy.now,
            machines: copy.instance.machines(),
            records,
            metrics,
        })
    }
}

fn apply<C: CapacityQuery + Speculate>(
    svc: &mut ScheduleService<C>,
    op: &WriteOp,
) -> Result<Applied, ServiceError> {
    match *op {
        WriteOp::Submit {
            width,
            duration,
            release,
        } => svc
            .submit(width, duration, release)
            .map(|(id, fx)| Applied::Job {
                id,
                effects: fx.clone(),
            }),
        WriteOp::Reserve {
            width,
            duration,
            start,
        } => svc
            .reserve(width, duration, start)
            .map(|(id, fx)| Applied::Reservation {
                id,
                effects: fx.clone(),
            }),
        WriteOp::Cancel { id } => svc.cancel(id).map(|fx| Applied::Effects(fx.clone())),
        WriteOp::Advance { to } => svc.advance(to).map(|fx| Applied::Effects(fx.clone())),
        WriteOp::AdvanceClamped { to } => Ok(Applied::Effects(svc.advance_clamped(to).clone())),
        WriteOp::Drain => Ok(Applied::Effects(svc.drain().clone())),
        WriteOp::Inject {
            width,
            duration,
            start,
        } => {
            let res = svc
                .inject(width, duration, start)
                .map(|(id, fx)| (id, fx.clone()));
            res.map(|(id, effects)| Applied::Drained {
                id,
                preempted: svc.last_preempted().to_vec(),
                effects,
            })
        }
        WriteOp::Revoke { id } => svc.revoke(id).map(|fx| Applied::Effects(fx.clone())),
        WriteOp::SubmitDeadline {
            width,
            duration,
            release,
            deadline,
            admission,
        } => svc
            .submit_deadline(width, duration, release, deadline, admission)
            .map(|(id, outcome, fx)| Applied::Deadline {
                id,
                outcome,
                effects: fx.clone(),
            }),
        WriteOp::SubmitMoldable { ref widths, area } => {
            svc.submit_moldable(widths, area)
                .map(|(id, choice, fx)| Applied::Moldable {
                    id,
                    choice,
                    effects: fx.clone(),
                })
        }
    }
}

/// The single-writer loop: batch-dequeue, apply in order, publish, reply —
/// in exactly that order, so a delivered reply proves the snapshot slot
/// already covers the write.
fn writer_loop<C>(
    mut svc: ScheduleService<C>,
    rx: Receiver<Request>,
    slot: Published,
    record: bool,
    mut journal: Option<OpJournal>,
) -> (ScheduleService<C>, Vec<AppliedOp>)
where
    C: Snapshotable + Send + 'static,
{
    let mut generation = 0u64;
    let mut log: Vec<AppliedOp> = Vec::new();
    let mut batch: Vec<(u64, WriteOp, Sender<WriteReply>)> = Vec::with_capacity(BATCH_MAX);
    let mut replies: Vec<(Sender<WriteReply>, Result<Applied, ServiceError>, Time)> =
        Vec::with_capacity(BATCH_MAX);
    'serve: loop {
        batch.clear();
        let mut stopping = false;
        // A records request closes the batch it was dequeued behind: the
        // ops ahead of it are applied, then it is answered.
        let mut records: Option<Sender<SessionCopy>> = None;
        match rx.recv() {
            Ok(Request::Op { session, op, reply }) => batch.push((session, op, reply)),
            Ok(Request::Records { reply }) => records = Some(reply),
            Ok(Request::Stop) => stopping = true,
            // Every handle dropped without an explicit stop: we are done.
            Err(_) => break 'serve,
        }
        while !stopping && records.is_none() && batch.len() < BATCH_MAX {
            match rx.try_recv() {
                Ok(Request::Op { session, op, reply }) => batch.push((session, op, reply)),
                Ok(Request::Records { reply }) => records = Some(reply),
                Ok(Request::Stop) => stopping = true,
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }
        if !batch.is_empty() {
            replies.clear();
            for (session, op, reply) in batch.drain(..) {
                // Write-ahead: the record must be journaled before the op
                // mutates the service; an op that cannot be made durable
                // is refused rather than applied volatile.
                let journaled = match &mut journal {
                    Some(j) => j
                        .append_op(&AppliedOp {
                            session,
                            op: op.clone(),
                        })
                        .map_err(|e| ServiceError::Journal {
                            message: e.to_string(),
                        }),
                    None => Ok(()),
                };
                let result = match journaled {
                    Ok(()) => apply(&mut svc, &op),
                    Err(e) => Err(e),
                };
                if record {
                    log.push(AppliedOp { session, op });
                }
                replies.push((reply, result, svc.now()));
            }
            if let Some(j) = &mut journal {
                // Durability point: acknowledged ops are on disk (per the
                // fsync policy) before the snapshot publishes and any
                // reply is delivered.
                if let Err(e) = j.batch_sync() {
                    eprintln!("resa journal: batch sync failed: {e}");
                }
                if let Err(e) = j.maybe_snapshot(|| svc.state()) {
                    eprintln!("resa journal: compaction failed: {e}");
                }
            }
            generation += 1;
            let snap = Arc::new(ServiceSnapshot::capture(&svc, generation));
            *slot.write().expect("publish slot poisoned") = snap;
            for (reply, result, now) in replies.drain(..) {
                // A client that gave up waiting is not an error.
                let _ = reply.send(WriteReply {
                    result,
                    now,
                    generation,
                });
            }
        }
        if let Some(reply) = records {
            let _ = reply.send(SessionCopy {
                now: svc.now(),
                instance: svc.to_instance(),
                schedule: svc.schedule().clone(),
            });
        }
        if stopping {
            // Answer everything still queued so no client blocks forever
            // (a queued records request is answered by dropping its reply
            // channel), then exit; later sends fail at the (closed) channel.
            while let Ok(req) = rx.try_recv() {
                if let Request::Op { reply, .. } = req {
                    let _ = reply.send(WriteReply {
                        result: Err(ServiceError::ServiceStopped),
                        now: svc.now(),
                        generation,
                    });
                }
            }
            break 'serve;
        }
    }
    (svc, log)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn concurrent(m: u32, policy: ReferencePolicy) -> ConcurrentService<AvailabilityTimeline> {
        ConcurrentService::with_recording(ScheduleService::new(
            policy,
            AvailabilityTimeline::constant(m),
        ))
    }

    #[test]
    fn single_session_matches_the_sequential_service() {
        let svc = concurrent(4, ReferencePolicy::Easy);
        let client = svc.client();
        let mut seq =
            ScheduleService::new(ReferencePolicy::Easy, AvailabilityTimeline::constant(4));

        let (rid, rfx) = client.reserve(2, Dur(6), Time(4)).unwrap();
        let (srid, sfx) = seq.reserve(2, Dur(6), Time(4)).unwrap();
        assert_eq!((rid, &rfx), (srid, sfx));

        let (jid, jfx) = client.submit(3, Dur(5), None).unwrap();
        let (sjid, sfx) = seq.submit(3, Dur(5), None).unwrap();
        assert_eq!((jid, &jfx), (sjid, sfx));

        // Read-your-writes: the snapshot already covers the submit.
        assert_eq!(client.query(2, Dur(3), None), seq.query(2, Dur(3), None));
        assert_eq!(client.stats(), seq.stats());

        let (now, afx) = client.advance(Time(9)).unwrap();
        let sfx = seq.advance(Time(9)).unwrap();
        assert_eq!(&afx, sfx);
        assert_eq!(now, seq.now());

        let (_, dfx) = client.drain().unwrap();
        let sfx = seq.drain();
        assert_eq!(&dfx, sfx);
        assert_eq!(client.stats(), seq.stats());
        let at = client.records().unwrap();
        assert_eq!((at.now, at.machines), (seq.now(), seq.machines()));
        assert_eq!((at.records, at.metrics), seq.snapshot());

        let (fin, log) = svc.shutdown();
        assert_eq!(fin.schedule(), seq.schedule());
        assert_eq!(log.len(), 4, "every applied op was recorded");
        assert!(log.iter().all(|a| a.session == client.session()));
    }

    #[test]
    fn errors_cross_the_channel_intact() {
        let svc = concurrent(4, ReferencePolicy::Fcfs);
        let client = svc.client();
        assert_eq!(
            client.submit(9, Dur(1), None),
            Err(ServiceError::BadWidth {
                width: 9,
                machines: 4
            })
        );
        assert_eq!(
            client.query(0, Dur(1), None),
            Err(ServiceError::BadWidth {
                width: 0,
                machines: 4
            })
        );
        assert_eq!(
            client.query(1, Dur(0), None),
            Err(ServiceError::ZeroDuration)
        );
        client.advance(Time(5)).unwrap();
        assert_eq!(
            client.advance(Time(3)),
            Err(ServiceError::InThePast {
                at: Time(3),
                now: Time(5)
            })
        );
        // The clamped variant treats the same target as a no-op.
        let (now, fx) = client.advance_clamped(Time(3)).unwrap();
        assert_eq!(now, Time(5));
        assert!(fx.is_empty());
        assert_eq!(
            client.cancel(0),
            Err(ServiceError::UnknownReservation { id: 0 })
        );
    }

    #[test]
    fn clients_outlive_the_service_gracefully() {
        let svc = concurrent(2, ReferencePolicy::Greedy);
        let client = svc.client();
        client.submit(1, Dur(2), None).unwrap();
        let (_, log) = svc.shutdown();
        assert_eq!(log.len(), 1);
        // Writes after shutdown fail cleanly; snapshot reads still work.
        assert_eq!(
            client.submit(1, Dur(2), None),
            Err(ServiceError::ServiceStopped)
        );
        assert_eq!(client.stats().submitted, 1);
        assert!(client.query(1, Dur(1), None).is_ok());
        // `records` needs the writer: a structured error, not a hang.
        assert_eq!(client.records(), Err(ServiceError::ServiceStopped));
    }

    #[test]
    fn generations_are_monotone_and_cover_replied_writes() {
        let svc = concurrent(4, ReferencePolicy::Fcfs);
        let client = svc.client();
        let mut last = client.snapshot().generation;
        assert_eq!(last, 0, "pre-write state is generation 0");
        for i in 0..10 {
            client.submit(1, Dur(3), Some(Time(i + 1))).unwrap();
            let snap = client.snapshot();
            assert!(snap.generation > last || snap.stats.submitted as u64 > i);
            assert!(
                snap.stats.submitted as u64 > i,
                "reply delivered but write not visible"
            );
            last = snap.generation;
        }
    }

    /// Two threads hammer one service; afterwards the recorded serial order
    /// replayed on a fresh sequential service reproduces the final state.
    #[test]
    fn serial_log_replays_to_the_same_state() {
        let svc = concurrent(6, ReferencePolicy::Easy);
        let mut handles = Vec::new();
        for t in 0..2u64 {
            let client = svc.client();
            handles.push(std::thread::spawn(move || {
                for i in 0..20u64 {
                    let w = 1 + ((t + i) % 3) as u32;
                    client.submit(w, Dur(2 + i % 4), None).unwrap();
                    if i % 5 == 4 {
                        let target = client.stats().now.saturating_add(Dur(3));
                        client.advance_clamped(target).unwrap();
                    }
                    client.query(2, Dur(5), None).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let (fin, log) = svc.shutdown();
        assert_eq!(log.len(), 48, "40 submits + 8 advances, none lost");
        let mut replay =
            ScheduleService::new(ReferencePolicy::Easy, AvailabilityTimeline::constant(6));
        for entry in &log {
            entry.replay(&mut replay);
        }
        assert_eq!(replay.schedule(), fin.schedule());
        assert_eq!(replay.stats(), fin.stats());
    }
}
