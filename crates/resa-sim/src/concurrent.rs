//! Multi-tenant front for [`ScheduleService`]: a combining write lock,
//! snapshot readers.
//!
//! [`ScheduleService`] is inherently single-threaded — every request mutates
//! (or speculates against) one live substrate. A service shared by many
//! sessions therefore runs the classic read-mostly architecture, with no
//! thread of its own:
//!
//! * **The session that holds the write lock is the writer.** A write —
//!   every [`Op`] with [`Op::is_write`] — is pushed onto a shared pending
//!   queue as data, and its session then takes the write lock. If an
//!   earlier holder has already answered the request, the session releases
//!   the lock and returns. Otherwise it *combines* (flat combining, Hendler
//!   et al., SPAA 2010): it takes up to [`BATCH_MAX`] queued requests of any
//!   session in queue order, applies them through [`ScheduleService::apply`]
//!   (or, journaled, [`OpJournal::apply`] — the same call behind a
//!   write-ahead record), seals the batch, and *publishes* an immutable
//!   [`ServiceSnapshot`] — the counters and the frozen
//!   [`TimelineSnapshot`] of the availability function from `now` on, which
//!   shares every chunk of the live timeline the batch did not touch
//!   (`O(B / C)` to take, see [`resa_core::snapshot`]) — by swapping an
//!   `Arc` behind an [`RwLock`] (held only for the duration of a pointer
//!   swap or clone, never across any computation: the snapshot it replaces
//!   is dropped after the guard). Only then does it fill the reply slot of
//!   every request it took, and it repeats until its own slot is filled.
//!   Each client owns one reply slot for its whole life, so a write
//!   allocates no channel; no socket or pipe is touched under the lock.
//! * **Group commit comes for free.** Whatever queues while one batch is
//!   applied and synced is the next holder's batch, so a journal under
//!   [`crate::journal::FsyncPolicy::Batch`] syncs once per batch.
//! * **Readers never queue behind writes.** `Query` / `Stats` run on the
//!   calling thread against the latest published `Arc<ServiceSnapshot>`;
//!   the only shared access is cloning the `Arc` out of the slot.
//! * **A published snapshot holds live state only.** Its size follows the
//!   running jobs and the windows reaching past `now`, never the session's
//!   length: the service drops availability behind the clock, and the job
//!   catalog and schedule — which do grow with the session — are not
//!   published at all. The one reader of those, [`ServiceClient::records`],
//!   is answered with a copy through the same queue as the writes, so only
//!   that (rare) request pays for the history it reads.
//! * **Retirement rides the combining pass.** A front given a record sink
//!   ([`ConcurrentService::retiring`]) retires completed jobs out of the
//!   catalog after every op that moves the clock
//!   ([`ScheduleService::retire_after`]) and flushes the sink once per
//!   batch, after the journal seal and before any reply, so a record
//!   reaches the sink only once the op that retired it is durable.
//!
//! # Consistency model
//!
//! A batch's snapshot is published **before** any of its replies is
//! delivered. A client that has received the reply to its own write
//! therefore always observes a published generation that *includes* that
//! write — read-your-writes per session, which is exactly what makes a
//! single-session conversation over [`ConcurrentService`] indistinguishable
//! from one over a private sequential [`ScheduleService`] (the golden CLI
//! transcripts rely on this). Reads may lag concurrent *other-session*
//! writes by at most one batch; every answer is stamped with the
//! [`ServiceSnapshot::generation`] it was computed from, so staleness is
//! observable, never silent. [`ServiceClient::records`] is answered in
//! queue order — everything queued ahead of it is applied first — so it
//! is a point of the serial order and covers the caller's own writes too.
//!
//! # Serial equivalence
//!
//! The order in which requests leave the pending queue defines a total
//! *serial order* over all sessions' ops: it is the order they are applied
//! in, journaled in, and recorded in.
//! [`ConcurrentService::with_recording`] keeps that order as a log of
//! [`AppliedOp`]s; replaying the log on a fresh sequential
//! [`ScheduleService`] must reproduce the concurrent service's final state
//! bit for bit — the oracle behind the multi-client stress tests and the
//! serial-equivalence proptests (`tests/concurrent_stress.rs`).

use crate::journal::OpJournal;
use crate::op::{Horizon, Op, Reply, Session, SessionRecords, WriteReply};
use crate::policy::ReferencePolicy;
use crate::service::{Effects, ScheduleService, ServiceError, ServiceStats, SnapshotParts};
use crate::stream::RecordSink;
use resa_core::prelude::*;
use resa_core::snapshot::Snapshotable;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

/// Most ops one lock holder applies between two snapshot publications. A
/// larger batch amortizes the publication cost — one freeze of the live
/// availability function, a copy of its chunk directory (`O(B / C)` over
/// the breakpoints from `now` on), plus one copied chunk per chunk the
/// next batch then writes to — under write bursts; a smaller one tightens
/// reader staleness. 64 keeps worst-case staleness at one sub-millisecond
/// batch.
pub const BATCH_MAX: usize = 64;

/// One entry of the serial log and one op record of the journal: which
/// session issued which write, in the order the service applied them.
/// Applying a log's ops in order to a sequential [`ScheduleService`]
/// reproduces the concurrent run (see the module docs); rejected ops leave
/// no trace on either side, so outcomes need no reconciliation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedOp {
    /// The issuing session (see [`ServiceClient::session`]).
    pub session: u64,
    /// The op, exactly as applied.
    pub op: Op,
}

/// An immutable view of the service's live state, published at every batch
/// boundary and read lock-free by any number of threads. What grows with
/// the session (job catalog, schedule) is deliberately absent — see
/// [`ServiceClient::records`].
#[derive(Debug, Clone)]
pub struct ServiceSnapshot {
    /// Monotone publication counter; generation 0 is the pre-write state.
    pub generation: u64,
    /// The policy the service decides with.
    pub policy: ReferencePolicy,
    /// Aggregate counters at publication time.
    pub stats: ServiceStats,
    /// The overflow guard's accumulators at publication time.
    pub horizon: Horizon,
    /// The frozen availability function, stamped with the same generation.
    pub timeline: TimelineSnapshot,
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
            horizon: svc.horizon(),
            timeline: svc.freeze_timeline(generation),
        }
    }

    /// The speculative earliest-fit probe of [`ScheduleService::query`],
    /// answered from the frozen availability function: the earliest start a
    /// `width × duration` job would get, as of this snapshot's generation.
    /// Same admission ([`Op::validate`]), same clamping of `not_before` to
    /// the (snapshot) current time, same answer as the live probe at the
    /// generation the snapshot was frozen from.
    pub fn query(
        &self,
        width: u32,
        duration: Dur,
        not_before: Option<Time>,
    ) -> Result<Option<Time>, ServiceError> {
        let op = Op::Query {
            width,
            duration,
            not_before,
        };
        op.validate(self.stats.machines, self.horizon)?;
        let from = not_before.unwrap_or(self.stats.now).max(self.stats.now);
        Ok(self.timeline.earliest_fit(width, duration, from))
    }
}

enum Request {
    Op {
        session: u64,
        op: Op,
    },
    /// Copy the session out at this point of the queue. A read: neither
    /// journaled nor recorded in the serial log.
    Records,
}

enum Answer {
    Write(WriteReply),
    /// What the records are computed from, copied between two ops.
    Records(SnapshotParts),
    Stopped,
}

/// A client's reply slot, allocated once per client. It is filled and read
/// only under the write lock, so its own mutex is never contended.
type Slot = Arc<Mutex<Option<Answer>>>;

/// One queued request and the slot its answer goes to.
struct Pending {
    request: Request,
    slot: Slot,
}

/// Shared slot the snapshots are published into; the lock guards a pointer
/// swap only, never any computation.
type Published = Arc<RwLock<Arc<ServiceSnapshot>>>;

/// Everything only the write-lock holder touches.
struct Writer<C: Snapshotable> {
    /// `None` once the front is shut down (or a write panicked under the
    /// lock): every request is then answered [`ServiceError::ServiceStopped`].
    svc: Option<ScheduleService<C>>,
    generation: u64,
    /// The serial log, when recording.
    log: Option<Vec<AppliedOp>>,
    journal: Option<OpJournal>,
    /// Where retired jobs go, when the front retires.
    sink: Option<Box<dyn RecordSink + Send>>,
    /// The requests taken off the queue by the current combining pass.
    batch: Vec<Pending>,
    /// Their op outcomes, with the clock after each.
    results: Vec<(Result<Reply, ServiceError>, Time)>,
}

/// What a [`ConcurrentService`] and its clients share.
struct Shared<C: Snapshotable> {
    pending: Mutex<VecDeque<Pending>>,
    writer: Mutex<Writer<C>>,
    published: Published,
}

/// The client's view of [`Shared`], with the substrate type erased so
/// [`ServiceClient`] is one type for every front.
trait Combine: Send + Sync {
    /// Queue `request`, then hold the write lock until `slot` is answered.
    fn call(&self, request: Request, slot: &Slot) -> Answer;
}

/// Lock a mutex whose data no panic can leave half-updated.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<C: Snapshotable> Shared<C> {
    /// The write lock. A write that panicked under it may have left the
    /// service half-applied, so a poisoned lock stops the service: from
    /// then on every request — including those the panicking pass had
    /// taken off the queue — is answered as stopped.
    fn write_lock(&self) -> MutexGuard<'_, Writer<C>> {
        self.writer.lock().unwrap_or_else(|poisoned| {
            let mut writer = poisoned.into_inner();
            writer.svc = None;
            writer.journal = None;
            self.writer.clear_poison();
            writer
        })
    }
}

impl<C> Combine for Shared<C>
where
    C: Snapshotable + Send,
{
    fn call(&self, request: Request, slot: &Slot) -> Answer {
        lock(&self.pending).push_back(Pending {
            request,
            slot: Arc::clone(slot),
        });
        let mut writer = self.write_lock();
        loop {
            // Whoever took the request off the queue filled its slot before
            // releasing the lock.
            if let Some(answer) = lock(slot).take() {
                return answer;
            }
            writer.combine(&self.pending, &self.published);
        }
    }
}

impl<C: Snapshotable> Writer<C> {
    /// One combining pass: take up to [`BATCH_MAX`] queued requests in
    /// queue order (a records request closes the batch), apply the ops,
    /// seal, publish, and only then answer every request taken — in
    /// exactly that order, so a delivered reply proves the op is as durable
    /// as the journal promises and the snapshot slot already covers it.
    fn combine(&mut self, pending: &Mutex<VecDeque<Pending>>, published: &Published) {
        let Writer {
            svc,
            generation,
            log,
            journal,
            sink,
            batch,
            results,
        } = self;
        {
            let mut queue = lock(pending);
            while batch.len() < BATCH_MAX {
                let Some(next) = queue.pop_front() else {
                    break;
                };
                let closes = matches!(next.request, Request::Records);
                batch.push(next);
                if closes {
                    break;
                }
            }
        }
        let Some(svc) = svc else {
            for taken in batch.drain(..) {
                *lock(&taken.slot) = Some(Answer::Stopped);
            }
            return;
        };
        results.clear();
        let mut retired = 0;
        for taken in batch.iter() {
            if let Request::Op { session, op } = &taken.request {
                let result = match journal {
                    Some(j) => j.apply(svc, *session, op),
                    None => svc.apply(op),
                };
                if let Some(sink) = sink.as_mut() {
                    retired += svc.retire_after(op, &mut **sink);
                }
                results.push((result, svc.now()));
            }
        }
        if !results.is_empty() {
            // Durability point: a batch that cannot be sealed is not
            // acknowledged, whatever its ops answered — and the records it
            // retired stay in the sink until a later seal covers them.
            let sealed = journal.as_mut().map_or(Ok(()), |j| j.seal(svc));
            match (sealed, sink) {
                (Err(unsealed), _) => {
                    for (result, _) in results.iter_mut() {
                        *result = Err(unsealed.clone());
                    }
                }
                (Ok(()), Some(sink)) if retired > 0 => sink.flush(),
                _ => {}
            }
            *generation += 1;
            let snap = Arc::new(ServiceSnapshot::capture(svc, *generation));
            // Swap under the guard, drop after it: releasing the previous
            // snapshot walks its chunk directory, and readers must not wait
            // on `read()` for that.
            let previous = std::mem::replace(
                &mut *published.write().expect("publish slot poisoned"),
                snap,
            );
            drop(previous);
        }
        let mut outcomes = results.drain(..);
        for Pending { request, slot } in batch.drain(..) {
            let answer = match request {
                Request::Op { session, op } => {
                    let (result, now) = outcomes.next().expect("one outcome per op");
                    if let Some(log) = log.as_mut() {
                        log.push(AppliedOp { session, op });
                    }
                    Answer::Write(WriteReply {
                        result,
                        now,
                        generation: *generation,
                    })
                }
                Request::Records => Answer::Records(svc.snapshot_parts()),
            };
            *lock(&slot) = Some(answer);
        }
    }
}

/// The concurrent front: holds the service behind the write lock, hands
/// out [`ServiceClient`]s, and returns the final sequential state (plus the
/// serial log, if recording) at [`ConcurrentService::shutdown`].
pub struct ConcurrentService<C>
where
    C: Snapshotable + Send + 'static,
{
    shared: Arc<Shared<C>>,
    sessions: AtomicU64,
}

impl<C> ConcurrentService<C>
where
    C: Snapshotable + Send + 'static,
{
    /// Wrap `svc`. The pre-write state is published immediately as
    /// generation 0, so readers are never without a snapshot.
    pub fn new(svc: ScheduleService<C>) -> Self {
        Self::start(svc, false, None)
    }

    /// Like [`ConcurrentService::new`], but additionally record every
    /// applied op in serial order — the log handed back by
    /// [`ConcurrentService::shutdown`] for the equivalence oracle. The log
    /// grows without bound; production daemons use [`ConcurrentService::new`].
    pub fn with_recording(svc: ScheduleService<C>) -> Self {
        Self::start(svc, true, None)
    }

    /// Like [`ConcurrentService::new`], but durable: every op runs
    /// [`OpJournal::apply`] (admission, record, mutation — an op whose
    /// record cannot be appended is **not** applied), and each batch is
    /// sealed ([`OpJournal::seal`]) *before* the post-batch snapshot
    /// publishes and replies are delivered. A batch that cannot be sealed
    /// is answered with [`ServiceError::Journal`], every op of it. Pass a
    /// service rebuilt by [`crate::journal::Recovered::restore_service`] to
    /// resume a crashed session.
    pub fn with_journal(svc: ScheduleService<C>, journal: OpJournal) -> Self {
        Self::start(svc, false, Some(journal))
    }

    fn start(svc: ScheduleService<C>, record: bool, journal: Option<OpJournal>) -> Self {
        let published = Arc::new(RwLock::new(Arc::new(ServiceSnapshot::capture(&svc, 0))));
        let writer = Writer {
            svc: Some(svc),
            generation: 0,
            log: record.then(Vec::new),
            journal,
            sink: None,
            batch: Vec::with_capacity(BATCH_MAX),
            results: Vec::with_capacity(BATCH_MAX),
        };
        ConcurrentService {
            shared: Arc::new(Shared {
                pending: Mutex::new(VecDeque::new()),
                writer: Mutex::new(writer),
                published,
            }),
            sessions: AtomicU64::new(0),
        }
    }

    /// Retire completed jobs into `sink` after every op that moves the
    /// clock, so the resident catalog follows the active jobs rather than
    /// the session's length; snapshot metrics stay those of the whole run.
    /// Composes with every constructor. A journaled front must have been
    /// restored with the same choice
    /// ([`crate::journal::Recovered::restore_service_with_mode`]'s
    /// `retire`), so replay retires where the live session did.
    pub fn retiring(self, sink: Box<dyn RecordSink + Send>) -> Self {
        self.shared.write_lock().sink = Some(sink);
        self
    }

    /// Open a new session: a handle whose writes are applied under the
    /// write lock and whose reads are answered from the latest published
    /// snapshot. Clients are independent (`Send`, not `Sync`); give each
    /// session thread its own.
    pub fn client(&self) -> ServiceClient {
        let session = self.sessions.fetch_add(1, Ordering::Relaxed);
        let shared: Arc<dyn Combine> = self.shared.clone();
        ServiceClient {
            session,
            shared,
            published: Arc::clone(&self.shared.published),
            slot: Arc::new(Mutex::new(None)),
            _one_thread: PhantomData,
        }
    }

    /// The latest published snapshot (an `Arc` clone; never waits for a
    /// write).
    pub fn latest(&self) -> Arc<ServiceSnapshot> {
        Arc::clone(&self.shared.published.read().expect("publish slot poisoned"))
    }

    /// Take the service out from under the write lock and hand back the
    /// final sequential service plus the serial log (empty unless
    /// constructed with [`ConcurrentService::with_recording`]). Requests
    /// still queued, and every request after, are answered with
    /// [`ServiceError::ServiceStopped`].
    pub fn shutdown(self) -> (ScheduleService<C>, Vec<AppliedOp>) {
        let mut writer = self.shared.write_lock();
        let svc = writer.svc.take().expect("a write panicked under the lock");
        let log = writer.log.take().unwrap_or_default();
        writer.journal = None;
        writer.sink = None;
        (svc, log)
    }
}

impl<C> Drop for ConcurrentService<C>
where
    C: Snapshotable + Send + 'static,
{
    /// Stop the service (and flush its journal, close its record sink)
    /// even while clients live on; they are answered as after [`ConcurrentService::shutdown`].
    fn drop(&mut self) {
        let mut writer = self.shared.write_lock();
        writer.svc = None;
        writer.journal = None;
        writer.sink = None;
    }
}

/// One session's handle onto a [`ConcurrentService`]: a [`Session`] whose
/// writes are applied under the write lock and whose reads are answered
/// from the latest published snapshot. It owns one reply slot, so it is
/// `Send` but not `Sync`: a session is one thread's sequence of requests.
pub struct ServiceClient {
    session: u64,
    shared: Arc<dyn Combine>,
    published: Published,
    slot: Slot,
    _one_thread: PhantomData<Cell<()>>,
}

impl ServiceClient {
    /// The dense session id this client tags its ops with in the serial
    /// log.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Apply one op: `Query` and `Stats` are answered on this thread from
    /// the latest snapshot, `Records` by [`ServiceClient::records`], and
    /// every write is queued as it is and its [`WriteReply`] handed back
    /// untouched. Once the service is shut down, what needs it is answered
    /// with [`ServiceError::ServiceStopped`].
    pub fn apply(&self, op: &Op) -> WriteReply {
        let answer = |result, snap: &ServiceSnapshot| WriteReply {
            result,
            now: snap.stats.now,
            generation: snap.generation,
        };
        match *op {
            Op::Query {
                width,
                duration,
                not_before,
            } => {
                let snap = self.snapshot();
                let start = snap.query(width, duration, not_before);
                answer(start.map(Reply::Query), &snap)
            }
            Op::Stats => {
                let snap = self.snapshot();
                answer(Ok(Reply::Stats(snap.stats.clone())), &snap)
            }
            Op::Records { since } => {
                let records = self.records().map(|r| Reply::Records(r.page(since)));
                answer(records, &self.snapshot())
            }
            _ => {
                let request = Request::Op {
                    session: self.session,
                    op: op.clone(),
                };
                match self.shared.call(request, &self.slot) {
                    Answer::Write(reply) => reply,
                    _ => answer(Err(ServiceError::ServiceStopped), &self.snapshot()),
                }
            }
        }
    }

    /// The latest published snapshot (an `Arc` clone; never waits for a
    /// write). Guaranteed to include every write this client has received
    /// a reply for.
    pub fn snapshot(&self) -> Arc<ServiceSnapshot> {
        Arc::clone(&self.published.read().expect("publish slot poisoned"))
    }

    /// [`ScheduleService::snapshot`] (records + metrics), with the clock
    /// and cluster size of the same instant. Unlike the other reads this
    /// goes through the write queue: the job catalog, overlay and schedule
    /// are copied out between two ops — in queue order, so every write this
    /// client has a reply for is covered. Records and metrics are then
    /// computed on this thread, outside the lock, by the same code as the
    /// sequential service's (retired metrics included). Fails with
    /// [`ServiceError::ServiceStopped`] once the service is shut down.
    pub fn records(&self) -> Result<SessionRecords, ServiceError> {
        match self.shared.call(Request::Records, &self.slot) {
            Answer::Records(parts) => Ok(parts.into_records()),
            _ => Err(ServiceError::ServiceStopped),
        }
    }

    /// Shim over [`ServiceClient::apply`], kept for `benchmark/layers`.
    pub fn submit(
        &self,
        width: u32,
        duration: Dur,
        release: Option<Time>,
    ) -> Result<(JobId, Effects), ServiceError> {
        let op = Op::Submit {
            width,
            duration,
            release,
        };
        let (id, fx) = self.apply(&op).result?.into_parts();
        Ok((JobId(id), fx))
    }

    /// Shim over [`ServiceClient::apply`], kept for `benchmark/layers`.
    pub fn reserve(
        &self,
        width: u32,
        duration: Dur,
        start: Time,
    ) -> Result<(usize, Effects), ServiceError> {
        let op = Op::Reserve {
            width,
            duration,
            start,
        };
        Ok(self.apply(&op).result?.into_parts())
    }

    /// Shim over [`ServiceClient::apply`], kept for `benchmark/layers`.
    pub fn cancel(&self, id: usize) -> Result<Effects, ServiceError> {
        Ok(self.apply(&Op::Cancel { id }).result?.into_parts().1)
    }

    /// Shim over [`ServiceClient::apply`], kept for `benchmark/layers`.
    pub fn advance(&self, to: Time) -> Result<(Time, Effects), ServiceError> {
        let reply = self.apply(&Op::Advance { to });
        Ok((reply.now, reply.result?.into_parts().1))
    }

    /// Shim kept for `benchmark/layers`: the snapshot's probe.
    pub fn query(
        &self,
        width: u32,
        duration: Dur,
        not_before: Option<Time>,
    ) -> Result<Option<Time>, ServiceError> {
        self.snapshot().query(width, duration, not_before)
    }

    /// Shim kept for `benchmark/layers`: the snapshot's counters.
    pub fn stats(&self) -> ServiceStats {
        self.snapshot().stats.clone()
    }
}

impl Session for ServiceClient {
    fn apply(&mut self, op: &Op) -> WriteReply {
        ServiceClient::apply(self, op)
    }

    fn policy(&self) -> ReferencePolicy {
        self.snapshot().policy
    }
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

    fn submit(width: u32, duration: u64, release: Option<u64>) -> Op {
        Op::Submit {
            width,
            duration: Dur(duration),
            release: release.map(Time),
        }
    }

    fn query(width: u32, duration: u64) -> Op {
        Op::Query {
            width,
            duration: Dur(duration),
            not_before: None,
        }
    }

    #[test]
    fn single_session_matches_the_sequential_service() {
        let svc = concurrent(4, ReferencePolicy::Easy);
        let client = svc.client();
        let mut seq =
            ScheduleService::new(ReferencePolicy::Easy, AvailabilityTimeline::constant(4));
        let reserve = Op::Reserve {
            width: 2,
            duration: Dur(6),
            start: Time(4),
        };
        // Read-your-writes: the snapshot behind each read covers the
        // writes before it.
        let script = [
            reserve,
            submit(3, 5, None),
            query(2, 3),
            Op::Stats,
            Op::Advance { to: Time(9) },
            Op::Drain,
            Op::Stats,
            Op::Records { since: None },
        ];
        for op in &script {
            let reply = client.apply(op);
            assert_eq!(reply.result, seq.apply(op), "{op:?}");
            assert_eq!(reply.now, seq.now(), "{op:?}");
        }

        let (fin, log) = svc.shutdown();
        assert_eq!(fin.schedule(), seq.schedule());
        assert_eq!(log.len(), 4, "every applied write was recorded");
        assert!(log.iter().all(|a| a.session == client.session()));
    }

    #[test]
    fn errors_cross_the_channel_intact() {
        let svc = concurrent(4, ReferencePolicy::Fcfs);
        let client = svc.client();
        let bad_width = |width| ServiceError::BadWidth { width, machines: 4 };
        assert_eq!(client.apply(&submit(9, 1, None)).result, Err(bad_width(9)));
        assert_eq!(client.apply(&query(0, 1)).result, Err(bad_width(0)));
        assert_eq!(
            client.apply(&query(1, 0)).result,
            Err(ServiceError::ZeroDuration)
        );
        client.apply(&Op::Advance { to: Time(5) }).result.unwrap();
        assert_eq!(
            client.apply(&Op::Advance { to: Time(3) }).result,
            Err(ServiceError::InThePast {
                at: Time(3),
                now: Time(5)
            })
        );
        // The clamped variant treats the same target as a no-op.
        let reply = client.apply(&Op::AdvanceClamped { to: Time(3) });
        assert_eq!(reply.now, Time(5));
        assert_eq!(reply.result, Ok(Reply::Effects(Effects::default())));
        assert_eq!(
            client.apply(&Op::Cancel { id: 0 }).result,
            Err(ServiceError::UnknownReservation { id: 0 })
        );
    }

    #[test]
    fn clients_outlive_the_service_gracefully() {
        let svc = concurrent(2, ReferencePolicy::Greedy);
        let client = svc.client();
        client.apply(&submit(1, 2, None)).result.unwrap();
        let (_, log) = svc.shutdown();
        assert_eq!(log.len(), 1);
        // Writes after shutdown fail cleanly; snapshot reads still work.
        let stopped = client.apply(&submit(1, 2, None));
        assert_eq!(stopped.result, Err(ServiceError::ServiceStopped));
        assert_eq!(client.stats().submitted, 1);
        assert!(client.apply(&query(1, 1)).result.is_ok());
        // `Records` needs the writer: a structured error, not a hang.
        assert_eq!(
            client.apply(&Op::Records { since: None }).result,
            Err(ServiceError::ServiceStopped)
        );
    }

    #[test]
    fn generations_are_monotone_and_cover_replied_writes() {
        let svc = concurrent(4, ReferencePolicy::Fcfs);
        let client = svc.client();
        let mut last = client.snapshot().generation;
        assert_eq!(last, 0, "pre-write state is generation 0");
        for i in 0..10 {
            let reply = client.apply(&submit(1, 3, Some(i + 1)));
            let snap = client.snapshot();
            assert!(snap.generation >= reply.generation && snap.generation > last);
            assert!(
                snap.stats.submitted as u64 > i,
                "reply delivered but write not visible"
            );
            last = snap.generation;
        }
    }

    /// Hold the write lock (the test seam: the field is private to this
    /// module) until `writers` client threads have each queued one submit,
    /// then release it and collect every reply's generation.
    fn queued_behind_the_lock<C>(front: &ConcurrentService<C>, writers: usize) -> Vec<u64>
    where
        C: Snapshotable + Send + 'static,
    {
        let held = front.shared.write_lock();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..writers)
                .map(|i| {
                    let client = front.client();
                    scope.spawn(move || {
                        let reply = client.apply(&submit(1, 1 + i as u64 % 5, None));
                        reply.result.expect("a unit submit fits");
                        reply.generation
                    })
                })
                .collect();
            while lock(&front.shared.pending).len() < writers {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            drop(held);
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// Group commit: writes that queue while the lock is held are applied
    /// as one batch — one generation, one seal of the journal (one sync
    /// under `--fsync batch`).
    #[test]
    fn writes_queued_behind_the_lock_share_one_seal() {
        use crate::journal::{FsyncPolicy, JournalCfg};
        let path = std::env::temp_dir().join(format!(
            "resa-concurrent-{}-group-commit.jrn",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let cfg = JournalCfg {
            fsync: FsyncPolicy::Batch,
            snapshot_every: 1024,
        };
        let (journal, _) =
            OpJournal::open(&path, 8, ReferencePolicy::Easy, cfg).expect("temp journal");
        let front = ConcurrentService::with_journal(
            ScheduleService::new(ReferencePolicy::Easy, AvailabilityTimeline::constant(8)),
            journal,
        );
        let generations = queued_behind_the_lock(&front, 6);
        assert_eq!(generations, vec![1; 6], "one batch, one publication");
        let seals = front.shared.write_lock().journal.as_ref().unwrap().seals;
        assert_eq!(seals, 1, "one seal for the whole batch");
        let (svc, _) = front.shutdown();
        assert_eq!(svc.stats().submitted, 6);
        let _ = std::fs::remove_file(&path);
    }

    /// A queue longer than [`BATCH_MAX`] is applied in batches of at most
    /// [`BATCH_MAX`], in queue order.
    #[test]
    fn sixty_five_queued_writes_form_two_batches() {
        let front = concurrent(8, ReferencePolicy::Fcfs);
        let mut generations = queued_behind_the_lock(&front, BATCH_MAX + 1);
        generations.sort_unstable();
        let mut expected = vec![1; BATCH_MAX];
        expected.push(2);
        assert_eq!(generations, expected);
        let (fin, log) = front.shutdown();
        assert_eq!(log.len(), BATCH_MAX + 1);
        let mut replay =
            ScheduleService::new(ReferencePolicy::Fcfs, AvailabilityTimeline::constant(8));
        for entry in &log {
            replay.apply(&entry.op).unwrap();
        }
        assert_eq!(replay.schedule(), fin.schedule());
    }

    /// A request queued when the service stops is answered as stopped, not
    /// left waiting.
    #[test]
    fn a_request_queued_at_shutdown_is_answered_stopped() {
        let front = concurrent(4, ReferencePolicy::Easy);
        let client = front.client();
        let mut held = front.shared.write_lock();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(move || client.apply(&submit(1, 2, None)).result);
            while lock(&front.shared.pending).is_empty() {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            // What `shutdown` does under the lock.
            held.svc = None;
            drop(held);
            assert_eq!(waiter.join().unwrap(), Err(ServiceError::ServiceStopped));
        });
        assert_eq!(
            front.client().apply(&Op::Records { since: None }).result,
            Err(ServiceError::ServiceStopped)
        );
    }

    /// A panic under the write lock stops the service: the requests the
    /// panicking pass had taken off the queue, and every later one, are
    /// answered as stopped instead of waiting forever.
    #[test]
    fn a_panic_under_the_lock_stops_the_service() {
        let front = concurrent(4, ReferencePolicy::Easy);
        let shared = &front.shared;
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let panicker = scope.spawn(move || {
                let mut held = shared.write_lock();
                held_tx.send(()).unwrap();
                let taken = loop {
                    if let Some(taken) = lock(&shared.pending).pop_front() {
                        break taken;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                };
                held.batch.push(taken);
                panic!("a write panicked mid-batch");
            });
            held_rx.recv().unwrap();
            let client = front.client();
            let waiter = scope.spawn(move || client.apply(&submit(1, 2, None)).result);
            assert!(panicker.join().is_err());
            assert_eq!(waiter.join().unwrap(), Err(ServiceError::ServiceStopped));
        });
        let client = front.client();
        assert_eq!(
            client.apply(&submit(1, 2, None)).result,
            Err(ServiceError::ServiceStopped)
        );
        assert_eq!(client.stats().submitted, 0, "snapshot reads still work");
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
                    client.apply(&submit(w, 2 + i % 4, None)).result.unwrap();
                    if i % 5 == 4 {
                        let to = client.stats().now.saturating_add(Dur(3));
                        client.apply(&Op::AdvanceClamped { to }).result.unwrap();
                    }
                    client.apply(&query(2, 5)).result.unwrap();
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
            let _ = replay.apply(&entry.op);
        }
        assert_eq!(replay.schedule(), fin.schedule());
        assert_eq!(replay.stats(), fin.stats());
    }
}
