//! Multi-tenant front for [`ScheduleService`]: one writer, snapshot readers.
//!
//! [`ScheduleService`] is inherently single-threaded — every request mutates
//! (or speculates against) one live substrate. A service shared by many
//! sessions therefore runs the classic read-mostly architecture:
//!
//! * **One writer thread** owns the `ScheduleService`. Writes — every
//!   [`Op`] with [`Op::is_write`] — funnel through an [`mpsc`] channel as
//!   data; the writer dequeues them in **batches** (up to [`BATCH_MAX`]),
//!   applies them in arrival order through [`ScheduleService::apply`] (or,
//!   journaled, [`OpJournal::apply`] — the same call behind a write-ahead
//!   record), and then *publishes* an immutable [`ServiceSnapshot`] — the
//!   counters and the frozen [`TimelineSnapshot`] of the availability
//!   function from `now` on, which shares every chunk of the live timeline
//!   the batch did not touch (`O(B / C)` to take, see
//!   [`resa_core::snapshot`]) — by swapping an `Arc` behind an [`RwLock`]
//!   (held only for the duration of a pointer swap or clone, never across
//!   any computation: the snapshot it replaces is dropped after the guard).
//! * **Readers never queue behind writes.** `Query` / `Stats` run on the
//!   calling thread against the latest published `Arc<ServiceSnapshot>`;
//!   the only shared access is cloning the `Arc` out of the slot.
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
use crate::op::{Horizon, Op, Reply, Session, SessionRecords, WriteReply};
use crate::policy::ReferencePolicy;
use crate::service::{records_of, Effects, ScheduleService, ServiceError, ServiceStats};
use resa_core::prelude::*;
use resa_core::snapshot::Snapshotable;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{mpsc, Arc, RwLock};
use std::thread::JoinHandle;

/// Most ops the writer applies between two snapshot publications. A larger
/// batch amortizes the publication cost — one freeze of the live
/// availability function, a copy of its chunk directory (`O(B / C)` over
/// the breakpoints from `now` on), plus one copied chunk per chunk the
/// next batch then writes to — under write bursts; a smaller one tightens
/// reader staleness. 64 keeps worst-case staleness at one sub-millisecond
/// batch.
pub const BATCH_MAX: usize = 64;

/// One entry of the serial log and one op record of the journal: which
/// session issued which write, in the order the writer applied them.
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
    /// The overflow guard's accumulators at publication time.
    pub horizon: Horizon,
    /// The frozen availability function, stamped with the same generation.
    pub timeline: TimelineSnapshot,
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

    /// Like [`ConcurrentService::new`], but durable: every op runs
    /// [`OpJournal::apply`] (admission, record, mutation — an op whose
    /// record cannot be appended is **not** applied), and each dequeue
    /// batch is sealed ([`OpJournal::seal`]) *before* the post-batch
    /// snapshot publishes and replies are delivered. A batch that cannot be
    /// sealed is answered with [`ServiceError::Journal`], every op of it.
    /// Pass a service rebuilt by
    /// [`crate::journal::Recovered::restore_service`] to resume a crashed
    /// session.
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

/// One session's handle onto a [`ConcurrentService`]: a [`Session`] whose
/// writes round-trip through the writer and whose reads are answered from
/// the latest published snapshot.
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

    /// Apply one op: `Query` and `Stats` are answered on this thread from
    /// the latest snapshot, `Records` by [`ServiceClient::records`], and
    /// every write is sent to the writer as it is and its [`WriteReply`]
    /// handed back untouched. Once the writer is gone, what needs it is
    /// answered with [`ServiceError::ServiceStopped`].
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
            _ => self
                .roundtrip(op.clone())
                .unwrap_or_else(|stopped| answer(Err(stopped), &self.snapshot())),
        }
    }

    fn roundtrip(&self, op: Op) -> Result<WriteReply, ServiceError> {
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

    /// The latest published snapshot (an `Arc` clone; never blocks on the
    /// writer). Guaranteed to include every write this client has received
    /// a reply for.
    pub fn snapshot(&self) -> Arc<ServiceSnapshot> {
        Arc::clone(&self.published.read().expect("publish slot poisoned"))
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

/// The single-writer loop: batch-dequeue, apply in order, seal, publish,
/// reply — in exactly that order, so a delivered reply proves the op is as
/// durable as the journal promises and the snapshot slot already covers it.
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
    let mut batch: Vec<(u64, Op, Sender<WriteReply>)> = Vec::with_capacity(BATCH_MAX);
    let mut replies: Vec<(Sender<WriteReply>, Result<Reply, ServiceError>, Time)> =
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
                let result = match &mut journal {
                    Some(j) => j.apply(&mut svc, session, &op),
                    None => svc.apply(&op),
                };
                if record {
                    log.push(AppliedOp { session, op });
                }
                replies.push((reply, result, svc.now()));
            }
            // Durability point: a batch that cannot be sealed is not
            // acknowledged, whatever its ops answered.
            if let Some(Err(unsealed)) = journal.as_mut().map(|j| j.seal(&svc)) {
                for (_, result, _) in &mut replies {
                    *result = Err(unsealed.clone());
                }
            }
            generation += 1;
            let snap = Arc::new(ServiceSnapshot::capture(&svc, generation));
            // Swap under the guard, drop after it: releasing the previous
            // snapshot walks its chunk directory, and readers must not wait
            // on `read()` for that.
            let previous =
                std::mem::replace(&mut *slot.write().expect("publish slot poisoned"), snap);
            drop(previous);
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
