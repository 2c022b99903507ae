//! Crash-safe durability for the resident service: a write-ahead op journal.
//!
//! [`crate::concurrent::ConcurrentService`] already proves (via its serial
//! log of [`AppliedOp`]s) that replaying its serial order on a
//! fresh sequential [`ScheduleService`] reproduces the live state bit for
//! bit. This module persists that log: an [`OpJournal`] appends one
//! length-prefixed, CRC-checksummed record per applied op **before** the op
//! is applied (write-ahead), so a process killed at any instant can be
//! rebuilt by replaying the journal's valid prefix.
//!
//! # One sequence
//!
//! A durable service is a wrapper around [`ScheduleService::apply`], and
//! there is one such wrapper: [`OpJournal::apply`] (admission → record →
//! mutation; an op refused at admission leaves no record, so a hostile
//! request can never poison a restart) and, at the end of a batch,
//! [`OpJournal::seal`] (sync per the fsync policy, then compaction). The
//! concurrent front's lock holder — behind every `resa serve` transport —
//! runs them per batch and acknowledges no op of a batch that could not be
//! sealed. Recovery replays the recorded [`Op`]s through the same `apply`,
//! and a retiring session's recovery retires after the same ops the live
//! front did ([`Recovered::restore_service_with_mode`]).
//!
//! # Record format
//!
//! A journal file starts with a 13-byte header — the magic `RESAJRN1`, the
//! cluster size as a little-endian `u32`, and a one-byte policy code — so a
//! journal can never be replayed against a differently-shaped service.
//! Every record after the header is one frame of the workspace's record
//! log, `[len][crc32][payload]` ([`resa_core::io`] defines the framing, the
//! CRC and the torn-tail scan; sweep shard logs use the same). The first
//! payload byte is the record kind: `1` = op record (an [`AppliedOp`]: the
//! session id, the op's tag byte, its fields), `2` = snapshot record (a
//! serialized [`ServiceState`] — see *Compaction*), `3` = snapshot record
//! of a session that has retired jobs: the kind-`2` fields followed by the
//! retirement fields (`base`, the retired-placement flags, the retired
//! metrics). A session that never retired anything writes kind `2` only,
//! so its journal is byte for byte what it was before retirement existed.
//! All integers are fixed-width little-endian, and the one float — the
//! retired metrics' bounded-slowdown sum — is stored as its IEEE-754 bits,
//! so the format round-trips exactly.
//!
//! # Torn tails
//!
//! A crash mid-append leaves a *torn tail*: a final record whose length
//! prefix, payload, or CRC is incomplete or wrong, or whose payload does
//! not decode. Recovery scans records from the front and stops at the
//! **first** invalid one, truncating the file back to the last valid
//! boundary and reporting the discarded bytes
//! in [`Recovered::torn`] — never silently. Because records are written
//! before their op is applied, a torn record corresponds to an op whose
//! outcome was never acknowledged; dropping it yields a state equal to some
//! prefix of the serial order, which is exactly the contract the
//! corruption proptests in `tests/journal_recovery.rs` enforce.
//!
//! # Fsync policy
//!
//! [`FsyncPolicy`] trades durability for throughput: `Every` syncs each op
//! record, `Batch` syncs once per batch (before the batch's replies
//! are delivered, so an acknowledged op is always durable), and `Off`
//! buffers in memory and lets the OS decide — the cheapest option, with the
//! weakest guarantee (a crash can lose acknowledged ops, but recovery still
//! yields a valid serial prefix).
//!
//! # Compaction
//!
//! Replay cost is bounded by periodic snapshot records: once
//! [`JournalCfg::snapshot_every`] ops have accumulated, the journal is
//! rewritten atomically ([`resa_core::io::stage`]) as a single snapshot
//! record of the current [`ServiceState`], and subsequent ops append after
//! it. Recovery restores the last snapshot and replays only the ops behind
//! it.
//!
//! # Fault injection
//!
//! A torn tail is only bytes on disk, so the crash tests write it
//! themselves: `resa-cli/tests/serve_crash.rs` appends half of a frame
//! taken from an uninterrupted run's journal, or kills a live server with
//! `SIGKILL`. Short writes and disk-full errors at the framing layer are
//! tested in [`resa_core::io`].

use crate::concurrent::AppliedOp;
use crate::metrics::MetricsAccumulator;
use crate::op::{Op, Reply};
use crate::policy::ReferencePolicy;
use crate::service::{
    AdmissionPolicy, DrainMode, Effects, ScheduleService, ServiceError, ServiceState, ServiceStats,
};
use crate::stream::DiscardSink;
use resa_core::capacity::Speculate;
use resa_core::io::{
    frame_record, open_log, put_opt_time, put_u128, put_u32, put_u64, stage, Cursor, Frames,
    FRAME_HEADER,
};
use resa_core::prelude::*;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// File magic: identifies a resa op journal, version 1.
pub const MAGIC: [u8; 8] = *b"RESAJRN1";
/// Header length: magic + machines (`u32`) + policy code (`u8`).
const HEADER_LEN: u64 = 13;
/// Payload kind byte of an op record.
const KIND_OP: u8 = 1;
/// Payload kind byte of a snapshot record.
const KIND_SNAPSHOT: u8 = 2;
/// Payload kind byte of a snapshot record of a session that has retired
/// jobs: a [`KIND_SNAPSHOT`] payload followed by the retirement fields.
const KIND_RETIRED_SNAPSHOT: u8 = 3;
/// `Off`-policy write-behind buffer: queued bytes are handed to the OS
/// (without syncing) once they exceed this.
const OFF_FLUSH_BYTES: usize = 64 * 1024;

fn policy_code(policy: ReferencePolicy) -> u8 {
    match policy {
        ReferencePolicy::Fcfs => 0,
        ReferencePolicy::Easy => 1,
        ReferencePolicy::Greedy => 2,
    }
}

fn policy_from(code: u8) -> Option<ReferencePolicy> {
    match code {
        0 => Some(ReferencePolicy::Fcfs),
        1 => Some(ReferencePolicy::Easy),
        2 => Some(ReferencePolicy::Greedy),
        _ => None,
    }
}

/// Encode a write as its tag byte and fields. Reads are not journaled:
/// `false`, nothing written.
fn encode_op(buf: &mut Vec<u8>, op: &Op) -> bool {
    match *op {
        Op::Query { .. } | Op::Stats | Op::Records { .. } => return false,
        Op::Submit {
            width,
            duration,
            release,
        } => {
            buf.push(1);
            put_u32(buf, width);
            put_u64(buf, duration.0);
            put_opt_time(buf, release);
        }
        // The twin ops of the two window kinds differ in their tag only.
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
            buf.push(if matches!(op, Op::Reserve { .. }) {
                2
            } else {
                7
            });
            put_u32(buf, width);
            put_u64(buf, duration.0);
            put_u64(buf, start.ticks());
        }
        Op::Cancel { id } | Op::Revoke { id } => {
            buf.push(if matches!(op, Op::Cancel { .. }) {
                3
            } else {
                8
            });
            put_u64(buf, id as u64);
        }
        Op::Advance { to } | Op::AdvanceClamped { to } => {
            buf.push(if matches!(op, Op::Advance { .. }) {
                4
            } else {
                5
            });
            put_u64(buf, to.ticks());
        }
        Op::Drain => buf.push(6),
        Op::SubmitDeadline {
            width,
            duration,
            release,
            deadline,
            admission,
        } => {
            buf.push(9);
            put_u32(buf, width);
            put_u64(buf, duration.0);
            put_opt_time(buf, release);
            put_u64(buf, deadline.ticks());
            buf.push(match admission {
                AdmissionPolicy::Reject => 0,
                AdmissionPolicy::Boost => 1,
            });
        }
        Op::SubmitMoldable { ref widths, area } => {
            buf.push(10);
            put_u64(buf, widths.len() as u64);
            for &w in widths {
                put_u32(buf, w);
            }
            put_u64(buf, area);
        }
    }
    true
}

fn decode_op(cur: &mut Cursor<'_>) -> Option<Op> {
    Some(match cur.take_u8()? {
        1 => {
            let width = cur.take_u32()?;
            let duration = Dur(cur.take_u64()?);
            let release = cur.take_opt_time()?;
            Op::Submit {
                width,
                duration,
                release,
            }
        }
        2 => Op::Reserve {
            width: cur.take_u32()?,
            duration: Dur(cur.take_u64()?),
            start: Time(cur.take_u64()?),
        },
        3 => Op::Cancel {
            id: usize::try_from(cur.take_u64()?).ok()?,
        },
        4 => Op::Advance {
            to: Time(cur.take_u64()?),
        },
        5 => Op::AdvanceClamped {
            to: Time(cur.take_u64()?),
        },
        6 => Op::Drain,
        7 => Op::Inject {
            width: cur.take_u32()?,
            duration: Dur(cur.take_u64()?),
            start: Time(cur.take_u64()?),
        },
        8 => Op::Revoke {
            id: usize::try_from(cur.take_u64()?).ok()?,
        },
        9 => {
            let width = cur.take_u32()?;
            let duration = Dur(cur.take_u64()?);
            let release = cur.take_opt_time()?;
            let deadline = Time(cur.take_u64()?);
            let admission = match cur.take_u8()? {
                0 => AdmissionPolicy::Reject,
                1 => AdmissionPolicy::Boost,
                _ => return None,
            };
            Op::SubmitDeadline {
                width,
                duration,
                release,
                deadline,
                admission,
            }
        }
        10 => {
            let n = usize::try_from(cur.take_u64()?).ok()?;
            let mut widths = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                widths.push(cur.take_u32()?);
            }
            Op::SubmitMoldable {
                widths,
                area: cur.take_u64()?,
            }
        }
        _ => return None,
    })
}

/// Encode `state` under its kind byte: [`KIND_SNAPSHOT`] until something
/// was retired — byte for byte the format of a never-retiring session —
/// then [`KIND_RETIRED_SNAPSHOT`] with the retirement fields appended.
fn encode_state(buf: &mut Vec<u8>, state: &ServiceState) {
    let retired = state.base > 0 || state.retired.jobs() > 0;
    buf.push(if retired {
        KIND_RETIRED_SNAPSHOT
    } else {
        KIND_SNAPSHOT
    });
    put_u32(buf, state.machines);
    put_u64(buf, state.now.ticks());
    put_u64(buf, state.decisions);
    put_u64(buf, state.makespan.ticks());
    put_u64(buf, state.jobs.len() as u64);
    for job in &state.jobs {
        put_u32(buf, job.width);
        put_u64(buf, job.duration.0);
        put_u64(buf, job.release.ticks());
    }
    // Scenario flags, parallel to the job catalog.
    for flags in &state.flags {
        put_opt_time(buf, flags.deadline);
        buf.push(u8::from(flags.guaranteed) | (u8::from(flags.boosted) << 1));
    }
    // Reservations, then drains: one table per window kind.
    for table in &state.windows {
        put_u64(buf, table.len() as u64);
        for w in table {
            put_u32(buf, w.width);
            put_u64(buf, w.start.ticks());
            put_u64(buf, w.end.ticks());
            buf.push(u8::from(w.released));
        }
    }
    put_u64(buf, state.placements.len() as u64);
    for p in &state.placements {
        put_u64(buf, p.job.0 as u64);
        put_u64(buf, p.start.ticks());
    }
    put_u64(buf, state.queue.len() as u64);
    for &pos in &state.queue {
        put_u64(buf, pos as u64);
    }
    if retired {
        put_u64(buf, state.base as u64);
        // Parallel to the job catalog.
        buf.extend(state.retired_placement.iter().map(|&r| u8::from(r)));
        let acc = &state.retired;
        put_u64(buf, acc.jobs as u64);
        put_u128(buf, acc.total_wait);
        put_u64(buf, acc.max_wait);
        put_u128(buf, acc.total_flow);
        // The `f64` as its IEEE-754 bits: the sum round-trips exactly.
        put_u64(buf, acc.total_bsld.to_bits());
        put_u128(buf, acc.work);
        put_u64(buf, acc.makespan.ticks());
    }
}

/// Decode the payload of a snapshot record of `kind` (after its kind byte).
fn decode_state(kind: u8, cur: &mut Cursor<'_>) -> Option<ServiceState> {
    let machines = cur.take_u32()?;
    let now = Time(cur.take_u64()?);
    let decisions = cur.take_u64()?;
    let makespan = Time(cur.take_u64()?);
    let n_jobs = usize::try_from(cur.take_u64()?).ok()?;
    let mut jobs = Vec::with_capacity(n_jobs.min(1 << 20));
    for id in 0..n_jobs {
        let width = cur.take_u32()?;
        let duration = cur.take_u64()?;
        let release = cur.take_u64()?;
        jobs.push(Job::released_at(id, width, duration, release));
    }
    let mut flags = Vec::with_capacity(n_jobs.min(1 << 20));
    for _ in 0..n_jobs {
        let deadline = cur.take_opt_time()?;
        let bits = cur.take_u8()?;
        if bits > 0b11 {
            return None;
        }
        flags.push(crate::service::JobFlags {
            deadline,
            guaranteed: bits & 1 != 0,
            boosted: bits & 2 != 0,
        });
    }
    let mut windows = [Vec::new(), Vec::new()];
    for table in &mut windows {
        let n = usize::try_from(cur.take_u64()?).ok()?;
        table.reserve(n.min(1 << 20));
        for id in 0..n {
            table.push(crate::service::ServiceWindow {
                id,
                width: cur.take_u32()?,
                start: Time(cur.take_u64()?),
                end: Time(cur.take_u64()?),
                released: match cur.take_u8()? {
                    0 => false,
                    1 => true,
                    _ => return None,
                },
            });
        }
    }
    let n_place = usize::try_from(cur.take_u64()?).ok()?;
    let mut placements = Vec::with_capacity(n_place.min(1 << 20));
    for _ in 0..n_place {
        placements.push(Placement {
            job: JobId(usize::try_from(cur.take_u64()?).ok()?),
            start: Time(cur.take_u64()?),
        });
    }
    let n_queue = usize::try_from(cur.take_u64()?).ok()?;
    let mut queue = Vec::with_capacity(n_queue.min(1 << 20));
    for _ in 0..n_queue {
        let pos = usize::try_from(cur.take_u64()?).ok()?;
        if pos >= jobs.len() {
            return None;
        }
        queue.push(pos);
    }
    let (base, retired_placement, retired) = if kind == KIND_RETIRED_SNAPSHOT {
        let base = usize::try_from(cur.take_u64()?).ok()?;
        let mut retired_placement = Vec::with_capacity(n_jobs.min(1 << 20));
        for _ in 0..n_jobs {
            retired_placement.push(cur.take_bool()?);
        }
        let retired = MetricsAccumulator {
            jobs: usize::try_from(cur.take_u64()?).ok()?,
            total_wait: cur.take_u128()?,
            max_wait: cur.take_u64()?,
            total_flow: cur.take_u128()?,
            total_bsld: f64::from_bits(cur.take_u64()?),
            work: cur.take_u128()?,
            makespan: Time(cur.take_u64()?),
        };
        (base, retired_placement, retired)
    } else {
        (0, vec![false; n_jobs], MetricsAccumulator::default())
    };
    // Position `pos` holds id `base + pos`; a placement names a held id.
    let held = base..base.checked_add(n_jobs)?;
    for (job, id) in jobs.iter_mut().zip(held.clone()) {
        job.id = JobId(id);
    }
    if !placements.iter().all(|p| held.contains(&p.job.0)) {
        return None;
    }
    Some(ServiceState {
        machines,
        now,
        decisions,
        makespan,
        base,
        jobs,
        flags,
        windows,
        placements,
        queue,
        retired_placement,
        retired,
    })
}

// -- configuration -----------------------------------------------------------

/// When journal bytes reach stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fdatasync` after every op record: an op is durable before it is
    /// applied. Slowest; survives power loss per op.
    Every,
    /// `fdatasync` once per batch, before the batch's replies are
    /// delivered: an *acknowledged* op is always durable. The default.
    #[default]
    Batch,
    /// Buffer in memory, hand bytes to the OS opportunistically, never
    /// sync: near-volatile speed, and a crash may lose acknowledged ops —
    /// but recovery still yields a valid serial prefix.
    Off,
}

impl FsyncPolicy {
    /// Parse the CLI spelling (`every` / `batch` / `off`).
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "every" => Some(FsyncPolicy::Every),
            "batch" => Some(FsyncPolicy::Batch),
            "off" => Some(FsyncPolicy::Off),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            FsyncPolicy::Every => "every",
            FsyncPolicy::Batch => "batch",
            FsyncPolicy::Off => "off",
        }
    }
}

/// Journal tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalCfg {
    /// When appended records reach stable storage.
    pub fsync: FsyncPolicy,
    /// Compact (rewrite the journal as one snapshot record) once this many
    /// op records have accumulated since the last snapshot. Bounds replay
    /// cost at recovery.
    pub snapshot_every: u64,
}

impl Default for JournalCfg {
    fn default() -> Self {
        JournalCfg {
            fsync: FsyncPolicy::default(),
            snapshot_every: 1024,
        }
    }
}

// -- recovery report ---------------------------------------------------------

/// A torn tail found (and truncated away) during recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// File offset of the first invalid byte — the journal was truncated
    /// back to this length.
    pub at_byte: u64,
    /// How many trailing bytes were discarded.
    pub dropped_bytes: u64,
    /// Why the tail failed validation.
    pub reason: String,
}

/// What [`OpJournal::open`] found in an existing journal file.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// The last snapshot record, if the journal has been compacted.
    pub snapshot: Option<ServiceState>,
    /// Op records after the last snapshot, in serial order.
    pub ops: Vec<AppliedOp>,
    /// Number of op records recovered (i.e. `ops.len()`).
    pub op_records: usize,
    /// Number of snapshot records seen (only the last one matters).
    pub snapshot_records: usize,
    /// The torn tail, if the file ended mid-record.
    pub torn: Option<TornTail>,
    /// `true` when the file existed with a valid header (a resumed
    /// session), `false` when this open created it.
    pub resumed: bool,
}

impl Recovered {
    /// Rebuild the live service this journal describes: restore the
    /// snapshot (or start fresh) and replay the remaining ops in order.
    ///
    /// # Panics
    ///
    /// Panics if `substrate.base()` disagrees with the journal's recorded
    /// cluster size ([`OpJournal::open`] already validates the header, so
    /// passing a matching substrate is the caller's only obligation).
    pub fn restore_service<C: CapacityQuery + Speculate>(
        &self,
        policy: ReferencePolicy,
        substrate: C,
    ) -> ScheduleService<C> {
        self.restore_service_with_mode(policy, substrate, DrainMode::Restart, false)
    }

    /// Like [`Recovered::restore_service`], but configures the drain mode
    /// *before* replaying the op tail, so a session recorded under
    /// [`DrainMode::Checkpoint`] re-preempts during replay exactly as it
    /// did live, and — with `retire` — retires completed jobs after the
    /// same ops a retiring front did ([`ScheduleService::retire_after`]),
    /// into a sink that discards them: the live session already handed
    /// those records out. Both are construction-time configuration, not
    /// journaled state: the operator re-supplies them at recovery (the
    /// CLI's `--drain-mode` and `--retire` flags), just like the substrate
    /// itself.
    pub fn restore_service_with_mode<C: CapacityQuery + Speculate>(
        &self,
        policy: ReferencePolicy,
        substrate: C,
        mode: DrainMode,
        retire: bool,
    ) -> ScheduleService<C> {
        let mut svc = match &self.snapshot {
            Some(state) => ScheduleService::restore(policy, state, substrate),
            None => ScheduleService::new(policy, substrate),
        };
        svc.set_drain_mode(mode);
        for entry in &self.ops {
            // Outcomes are not compared: an op the live service refused is
            // refused again.
            let _ = svc.apply(&entry.op);
            if retire {
                svc.retire_after(&entry.op, &mut DiscardSink::default());
            }
        }
        svc
    }
}

// -- the journal -------------------------------------------------------------

/// A write-ahead journal of `AppliedOp` records backed by one file. See
/// the module docs of `journal.rs` for the format and guarantees.
#[derive(Debug)]
pub struct OpJournal {
    path: PathBuf,
    file: File,
    cfg: JournalCfg,
    machines: u32,
    policy: ReferencePolicy,
    /// Encode scratch for one record's payload.
    payload: Vec<u8>,
    /// Framed bytes not yet handed to the OS (`Batch` / `Off` policies).
    queued: Vec<u8>,
    /// Op records in the file since the last snapshot record — the replay
    /// cost a crash right now would incur.
    ops_since_snapshot: u64,
    /// Calls to [`OpJournal::seal`], for the group-commit tests.
    #[cfg(test)]
    pub(crate) seals: u64,
}

impl OpJournal {
    /// Open (or create) the journal at `path` for a service of `machines`
    /// processors deciding with `policy`, recovering whatever valid prefix
    /// the file already holds.
    ///
    /// A fresh file gets a header and an empty [`Recovered`]. An existing
    /// file is validated — magic, cluster size, and policy must match, a
    /// torn tail is truncated away — and its snapshot + ops are returned
    /// for [`Recovered::restore_service`].
    pub fn open(
        path: impl AsRef<Path>,
        machines: u32,
        policy: ReferencePolicy,
        cfg: JournalCfg,
    ) -> io::Result<(OpJournal, Recovered)> {
        let path = path.as_ref().to_path_buf();
        let (mut file, bytes) = open_log(&path)?;
        let recovered = if bytes.is_empty() {
            file.write_all(&header_bytes(machines, policy))?;
            file.sync_data()?;
            Recovered {
                snapshot: None,
                ops: Vec::new(),
                op_records: 0,
                snapshot_records: 0,
                torn: None,
                resumed: false,
            }
        } else {
            let (recovered, valid_len) = scan(&bytes, machines, policy)?;
            if valid_len < bytes.len() as u64 {
                file.set_len(valid_len)?;
                file.sync_data()?;
            }
            recovered
        };
        let ops_since_snapshot = recovered.op_records as u64;
        Ok((
            OpJournal {
                path,
                file,
                cfg,
                machines,
                policy,
                payload: Vec::new(),
                queued: Vec::new(),
                ops_since_snapshot,
                #[cfg(test)]
                seals: 0,
            },
            recovered,
        ))
    }

    /// Append one op record (write-ahead: call this *before* applying the
    /// op; reads are skipped). Durability depends on the [`FsyncPolicy`];
    /// an error means the record may not survive a crash, and the caller
    /// must **not** apply the op.
    pub fn append_op(&mut self, session: u64, op: &Op) -> io::Result<()> {
        self.payload.clear();
        self.payload.push(KIND_OP);
        put_u64(&mut self.payload, session);
        if !encode_op(&mut self.payload, op) {
            return Ok(());
        }
        self.ops_since_snapshot += 1;
        match self.cfg.fsync {
            FsyncPolicy::Every => {
                let mut framed = Vec::with_capacity(8 + self.payload.len());
                frame_record(&mut framed, &self.payload);
                self.file.write_all(&framed)?;
                self.file.sync_data()
            }
            policy => {
                frame_record(&mut self.queued, &self.payload);
                if policy == FsyncPolicy::Off && self.queued.len() >= OFF_FLUSH_BYTES {
                    self.file.write_all(&self.queued)?;
                    self.queued.clear();
                }
                Ok(())
            }
        }
    }

    /// Atomically rewrite the journal as `header + one snapshot record` of
    /// `state`: written to a temp file, synced, then renamed over the
    /// journal path — a crash anywhere leaves either the old journal or
    /// the new one, never a mixture. Queued-but-unwritten op records are
    /// dropped: the snapshot covers them (they were already applied).
    pub fn compact(&mut self, state: &ServiceState) -> io::Result<()> {
        self.payload.clear();
        encode_state(&mut self.payload, state);
        let mut image = header_bytes(self.machines, self.policy);
        frame_record(&mut image, &self.payload);
        // The committed handle names the file now at the journal path,
        // positioned at end-of-file.
        self.file = stage(&self.path, |tmp| tmp.write_all(&image))?.commit()?;
        self.queued.clear();
        self.ops_since_snapshot = 0;
        Ok(())
    }

    /// The write-ahead sequence for one op, shared by [`JournaledService`]
    /// and the concurrent writer: admission, then the record, then the
    /// mutation ([`ScheduleService::apply_after`]). An op that is refused at
    /// admission leaves no record; one whose record cannot be appended is
    /// not applied.
    pub fn apply<C: CapacityQuery + Speculate>(
        &mut self,
        svc: &mut ScheduleService<C>,
        session: u64,
        op: &Op,
    ) -> Result<Reply, ServiceError> {
        svc.apply_after(op, || self.append_op(session, op).map_err(journal_err))
    }

    /// End a batch of [`OpJournal::apply`] calls; until this returns `Ok`,
    /// none of the batch's ops may be acknowledged. Queued records are
    /// written (`Batch`, `Off`) and synced (`Batch`; `Every` synced each on
    /// append). Then, once [`JournalCfg::snapshot_every`] op records have
    /// accumulated, the journal is compacted to a snapshot of `svc` — which
    /// by now has applied the whole batch.
    pub fn seal<C: CapacityQuery + Speculate>(
        &mut self,
        svc: &ScheduleService<C>,
    ) -> Result<(), ServiceError> {
        #[cfg(test)]
        {
            self.seals += 1;
        }
        let mut durable = || {
            if !self.queued.is_empty() {
                self.file.write_all(&self.queued)?;
                self.queued.clear();
            }
            if self.cfg.fsync == FsyncPolicy::Batch {
                self.file.sync_data()?;
            }
            if self.ops_since_snapshot >= self.cfg.snapshot_every {
                self.compact(&svc.state())?;
            }
            Ok(())
        };
        durable().map_err(journal_err)
    }
}

impl Drop for OpJournal {
    /// Best-effort flush of queued records on clean shutdown; errors are
    /// ignored (the process is exiting, and `Off` never promised
    /// durability).
    fn drop(&mut self) {
        if !self.queued.is_empty() {
            let _ = self.file.write_all(&self.queued);
        }
        let _ = self.file.sync_data();
    }
}

fn journal_err(e: io::Error) -> ServiceError {
    ServiceError::Journal {
        message: e.to_string(),
    }
}

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

fn header_bytes(machines: u32, policy: ReferencePolicy) -> Vec<u8> {
    let mut h = Vec::with_capacity(HEADER_LEN as usize);
    h.extend_from_slice(&MAGIC);
    h.extend_from_slice(&machines.to_le_bytes());
    h.push(policy_code(policy));
    h
}

/// Scan a journal image: validate the header against the expected shape,
/// walk records until the first invalid one, and return what was recovered
/// plus the valid byte length.
fn scan(bytes: &[u8], machines: u32, policy: ReferencePolicy) -> io::Result<(Recovered, u64)> {
    if bytes.len() < HEADER_LEN as usize || bytes[..8] != MAGIC {
        return Err(invalid("not a resa op journal (bad magic)"));
    }
    let file_machines = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let file_policy = policy_from(bytes[12]).ok_or_else(|| invalid("unknown policy code"))?;
    if file_machines != machines || file_policy != policy {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "journal was written for {} machines / policy {}, not {} / {}",
                file_machines,
                file_policy.name(),
                machines,
                policy.name()
            ),
        ));
    }
    let mut snapshot = None;
    let mut snapshot_records = 0usize;
    let mut ops: Vec<AppliedOp> = Vec::new();
    let mut frames = Frames::new(&bytes[HEADER_LEN as usize..]);
    let mut reason = None;
    let mut at = HEADER_LEN as usize;
    for payload in frames.by_ref() {
        let Some((&kind, body)) = payload.split_first() else {
            reason = Some("undecodable record payload");
            break;
        };
        let mut cur = Cursor::new(body);
        let decoded = match kind {
            KIND_OP => cur
                .take_u64()
                .zip(decode_op(&mut cur))
                .filter(|_| cur.done())
                .map(|(session, op)| ops.push(AppliedOp { session, op })),
            KIND_SNAPSHOT | KIND_RETIRED_SNAPSHOT => decode_state(kind, &mut cur)
                .filter(|_| cur.done())
                .map(|state| {
                    snapshot = Some(state);
                    snapshot_records += 1;
                    ops.clear();
                }),
            _ => None,
        };
        if decoded.is_none() {
            reason = Some("undecodable record payload");
            break;
        }
        at += FRAME_HEADER + payload.len();
    }
    let torn = reason.or(frames.torn()).map(|reason| TornTail {
        at_byte: at as u64,
        dropped_bytes: (bytes.len() - at) as u64,
        reason: reason.into(),
    });
    let op_records = ops.len();
    Ok((
        Recovered {
            snapshot,
            ops,
            op_records,
            snapshot_records,
            torn,
            resumed: true,
        },
        at as u64,
    ))
}

// -- sequential journaled service --------------------------------------------

/// A [`ScheduleService`] paired with an [`OpJournal`], without a concurrent
/// front: every write runs [`OpJournal::apply`] and is sealed at once —
/// each request is its own batch, so `Batch` behaves like `Every` here.
/// Kept for `benchmark/layers`, which times the journal without the front;
/// every `resa serve` transport runs the same two calls per batch through
/// [`crate::concurrent::ConcurrentService::with_journal`].
#[derive(Debug)]
pub struct JournaledService<C: CapacityQuery + Speculate> {
    svc: ScheduleService<C>,
    journal: OpJournal,
}

impl<C: CapacityQuery + Speculate> JournaledService<C> {
    /// Pair a (possibly just-recovered) service with its journal.
    pub fn new(svc: ScheduleService<C>, journal: OpJournal) -> Self {
        JournaledService { svc, journal }
    }

    /// The wrapped service, read-only.
    pub fn service(&self) -> &ScheduleService<C> {
        &self.svc
    }

    /// Unpair, handing both halves back.
    pub fn into_parts(self) -> (ScheduleService<C>, OpJournal) {
        let JournaledService { svc, journal } = self;
        (svc, journal)
    }

    /// Apply one op durably: a write that cannot be journaled or sealed is
    /// answered with [`ServiceError::Journal`]; reads pass through.
    pub fn apply(&mut self, op: &Op) -> Result<Reply, ServiceError> {
        let result = self.journal.apply(&mut self.svc, 0, op);
        if op.is_write() {
            self.journal.seal(&self.svc)?;
        }
        result
    }

    /// Shim over [`JournaledService::apply`], kept for `benchmark/layers`.
    pub fn submit(
        &mut self,
        width: u32,
        duration: Dur,
        release: Option<Time>,
    ) -> Result<(JobId, Effects), ServiceError> {
        let op = Op::Submit {
            width,
            duration,
            release,
        };
        let (id, fx) = self.apply(&op)?.into_parts();
        Ok((JobId(id), fx))
    }

    /// Shim over [`JournaledService::apply`], kept for `benchmark/layers`.
    pub fn reserve(
        &mut self,
        width: u32,
        duration: Dur,
        start: Time,
    ) -> Result<(usize, Effects), ServiceError> {
        let op = Op::Reserve {
            width,
            duration,
            start,
        };
        Ok(self.apply(&op)?.into_parts())
    }

    /// Shim over [`JournaledService::apply`], kept for `benchmark/layers`.
    pub fn cancel(&mut self, id: usize) -> Result<Effects, ServiceError> {
        Ok(self.apply(&Op::Cancel { id })?.into_parts().1)
    }

    /// Shim over [`JournaledService::apply`], kept for `benchmark/layers`.
    pub fn advance(&mut self, to: Time) -> Result<(Time, Effects), ServiceError> {
        let fx = self.apply(&Op::Advance { to })?.into_parts().1;
        Ok((self.svc.now(), fx))
    }

    /// Shim kept for `benchmark/layers`: reads are not journaled.
    pub fn query(
        &mut self,
        width: u32,
        duration: Dur,
        not_before: Option<Time>,
    ) -> Result<Option<Time>, ServiceError> {
        self.svc.query(width, duration, not_before)
    }

    /// Shim kept for `benchmark/layers`: reads are not journaled.
    pub fn stats(&self) -> ServiceStats {
        self.svc.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServiceStats, WindowKind};
    use crate::test_ops::{op_spec, View};
    use proptest::prelude::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("resa-journal-{}-{name}.jrn", std::process::id()));
        p
    }

    fn cfg(fsync: FsyncPolicy, snapshot_every: u64) -> JournalCfg {
        JournalCfg {
            fsync,
            snapshot_every,
        }
    }

    fn submit(width: u32, duration: u64, release: Option<u64>) -> Op {
        Op::Submit {
            width,
            duration: Dur(duration),
            release: release.map(Time),
        }
    }

    fn drive(j: &mut JournaledService<AvailabilityTimeline>) -> ServiceStats {
        let reserve = Op::Reserve {
            width: 1,
            duration: Dur(3),
            start: Time(4),
        };
        for op in [
            submit(2, 5, None),
            reserve,
            submit(3, 2, Some(6)),
            Op::Advance { to: Time(5) },
            submit(1, 4, None),
            Op::Drain,
        ] {
            j.apply(&op).unwrap();
        }
        j.stats()
    }

    /// Round trips the generator below cannot draw: an empty width menu
    /// and magnitudes at the top of each field's range.
    #[test]
    fn ops_roundtrip_through_the_codec() {
        let ops = [
            Op::Submit {
                width: u32::MAX,
                duration: Dur(u64::MAX),
                release: Some(Time(u64::MAX - 1)),
            },
            Op::Cancel { id: usize::MAX },
            Op::Advance { to: Time(u64::MAX) },
            Op::SubmitDeadline {
                width: 1,
                duration: Dur(u64::MAX),
                release: None,
                deadline: Time(u64::MAX),
                admission: AdmissionPolicy::Boost,
            },
            Op::SubmitMoldable {
                widths: vec![],
                area: 0,
            },
            Op::SubmitMoldable {
                widths: vec![u32::MAX],
                area: u64::MAX,
            },
        ];
        for op in ops {
            let mut buf = Vec::new();
            assert!(encode_op(&mut buf, &op), "{op:?} is a write");
            let mut cur = Cursor::new(&buf);
            let back = decode_op(&mut cur).expect("decodes");
            assert!(cur.done());
            assert_eq!(back, op);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every write the shared op generator draws decodes back to
        /// itself; the reads leave no record.
        #[test]
        fn generated_ops_roundtrip_through_the_codec(
            spec in op_spec(),
            now in 0u64..1000,
            machines in 1u32..32,
            windows in 0usize..4,
        ) {
            let view = View { now: Time(now), machines, reservations: windows, drains: windows };
            let op = spec.decode(&view);
            let mut buf = Vec::new();
            if encode_op(&mut buf, &op) {
                let mut cur = Cursor::new(&buf);
                prop_assert_eq!(decode_op(&mut cur), Some(op));
                prop_assert!(cur.done());
            } else {
                prop_assert!(buf.is_empty());
                prop_assert!(matches!(op, Op::Query { .. } | Op::Stats | Op::Records { .. }));
            }
        }
    }

    #[test]
    fn recovery_reproduces_the_journaled_session_for_each_fsync_policy() {
        for fsync in [FsyncPolicy::Every, FsyncPolicy::Batch, FsyncPolicy::Off] {
            let path = tmp(&format!("roundtrip-{}", fsync.name()));
            let _ = std::fs::remove_file(&path);
            let (journal, rec) =
                OpJournal::open(&path, 8, ReferencePolicy::Easy, cfg(fsync, 1024)).unwrap();
            assert!(!rec.resumed);
            let svc =
                ScheduleService::new(ReferencePolicy::Easy, AvailabilityTimeline::constant(8));
            let mut live = JournaledService::new(svc, journal);
            let stats = drive(&mut live);
            let (fin, journal) = live.into_parts();
            drop(journal); // flush queued records

            let (_, rec) =
                OpJournal::open(&path, 8, ReferencePolicy::Easy, cfg(fsync, 1024)).unwrap();
            assert!(rec.resumed);
            assert!(rec.torn.is_none());
            assert_eq!(rec.op_records, 6, "five mutators + drain");
            let replayed =
                rec.restore_service(ReferencePolicy::Easy, AvailabilityTimeline::constant(8));
            assert_eq!(replayed.stats(), stats);
            assert_eq!(replayed.schedule(), fin.schedule());
            assert_eq!(replayed.state(), fin.state());
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn scenario_session_recovers_identically_under_checkpoint_mode() {
        let path = tmp("scenario");
        let _ = std::fs::remove_file(&path);
        let (journal, _) = OpJournal::open(
            &path,
            8,
            ReferencePolicy::Fcfs,
            cfg(FsyncPolicy::Every, 1024),
        )
        .unwrap();
        let mut svc =
            ScheduleService::new(ReferencePolicy::Fcfs, AvailabilityTimeline::constant(8));
        svc.set_drain_mode(DrainMode::Checkpoint);
        let mut live = JournaledService::new(svc, journal);
        live.apply(&submit(8, 10, None)).unwrap();
        live.apply(&Op::Advance { to: Time(2) }).unwrap();
        // The drain preempts the full-width job; Checkpoint mode banks its
        // two elapsed ticks, which replay must reproduce.
        let inject = Op::Inject {
            width: 8,
            duration: Dur(3),
            start: Time(2),
        };
        let Ok(Reply::Drained { id, preempted, .. }) = live.apply(&inject) else {
            panic!("the drain fits once the job is preempted");
        };
        assert_eq!(preempted.len(), 1);
        let deadline = |width, duration, release, deadline, admission| Op::SubmitDeadline {
            width,
            duration: Dur(duration),
            release,
            deadline: Time(deadline),
            admission,
        };
        live.apply(&deadline(2, 2, Some(Time(30)), 40, AdmissionPolicy::Reject))
            .unwrap();
        live.apply(&deadline(8, 4, None, 5, AdmissionPolicy::Boost))
            .unwrap();
        let moldable = Op::SubmitMoldable {
            widths: vec![1, 2, 4],
            area: 8,
        };
        live.apply(&moldable).unwrap();
        live.apply(&Op::Revoke { id }).unwrap();
        let (fin, journal) = live.into_parts();
        drop(journal);

        let (_, rec) = OpJournal::open(
            &path,
            8,
            ReferencePolicy::Fcfs,
            cfg(FsyncPolicy::Every, 1024),
        )
        .unwrap();
        assert!(rec.resumed);
        assert!(rec.torn.is_none());
        let replayed = rec.restore_service_with_mode(
            ReferencePolicy::Fcfs,
            AvailabilityTimeline::constant(8),
            DrainMode::Checkpoint,
            false,
        );
        assert_eq!(replayed.state(), fin.state());
        assert_eq!(
            replayed.windows(WindowKind::Drain),
            fin.windows(WindowKind::Drain)
        );
        assert_eq!(replayed.job_flags(), fin.job_flags());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_bounds_replay_and_survives_recovery() {
        let path = tmp("compact");
        let _ = std::fs::remove_file(&path);
        let (journal, _) =
            OpJournal::open(&path, 4, ReferencePolicy::Fcfs, cfg(FsyncPolicy::Batch, 3)).unwrap();
        let svc = ScheduleService::new(ReferencePolicy::Fcfs, AvailabilityTimeline::constant(4));
        let mut live = JournaledService::new(svc, journal);
        for i in 0..10u64 {
            live.apply(&submit(1 + (i % 3) as u32, 2 + i % 4, None))
                .unwrap();
        }
        live.apply(&Op::Drain).unwrap();
        let (fin, journal) = live.into_parts();
        drop(journal);

        let (_, rec) =
            OpJournal::open(&path, 4, ReferencePolicy::Fcfs, cfg(FsyncPolicy::Batch, 3)).unwrap();
        assert!(rec.snapshot.is_some(), "compaction wrote a snapshot record");
        assert!(
            (rec.op_records as u64) < 3,
            "replay debt stays under the threshold, got {}",
            rec.op_records
        );
        let replayed =
            rec.restore_service(ReferencePolicy::Fcfs, AvailabilityTimeline::constant(4));
        assert_eq!(replayed.state(), fin.state());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let (journal, _) = OpJournal::open(
            &path,
            8,
            ReferencePolicy::Greedy,
            cfg(FsyncPolicy::Every, 1024),
        )
        .unwrap();
        let svc = ScheduleService::new(ReferencePolicy::Greedy, AvailabilityTimeline::constant(8));
        let mut live = JournaledService::new(svc, journal);
        live.apply(&submit(2, 5, None)).unwrap();
        live.apply(&submit(4, 2, None)).unwrap();
        drop(live);

        // Tear the file mid-way through the last record.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();

        let (_, rec) = OpJournal::open(
            &path,
            8,
            ReferencePolicy::Greedy,
            cfg(FsyncPolicy::Every, 1024),
        )
        .unwrap();
        let torn = rec.torn.as_ref().expect("tail reported");
        assert_eq!(rec.op_records, 1, "only the intact record survives");
        assert!(torn.dropped_bytes > 0);
        // The truncation is persistent: reopening again finds a clean file.
        let (_, rec2) = OpJournal::open(
            &path,
            8,
            ReferencePolicy::Greedy,
            cfg(FsyncPolicy::Every, 1024),
        )
        .unwrap();
        assert!(rec2.torn.is_none());
        assert_eq!(rec2.op_records, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mismatched_shape_is_refused() {
        let path = tmp("shape");
        let _ = std::fs::remove_file(&path);
        let (journal, _) =
            OpJournal::open(&path, 8, ReferencePolicy::Easy, JournalCfg::default()).unwrap();
        drop(journal);
        let err = OpJournal::open(&path, 4, ReferencePolicy::Easy, JournalCfg::default())
            .expect_err("different cluster size");
        assert!(err.to_string().contains("8 machines"));
        let err = OpJournal::open(&path, 8, ReferencePolicy::Fcfs, JournalCfg::default())
            .expect_err("different policy");
        assert!(err.to_string().contains("EASY"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn garbage_files_are_refused_not_replayed() {
        let path = tmp("garbage");
        std::fs::write(&path, b"definitely not a journal").unwrap();
        let err = OpJournal::open(&path, 8, ReferencePolicy::Easy, JournalCfg::default())
            .expect_err("bad magic");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    /// A tail of zeros (a file extended past its last write) frames an
    /// empty payload with a valid CRC: a torn tail, never a replayed record
    /// or a panic.
    #[test]
    fn an_empty_record_is_a_torn_tail() {
        let path = tmp("zeros");
        let mut image = header_bytes(8, ReferencePolicy::Easy);
        image.extend_from_slice(&[0u8; 8]);
        std::fs::write(&path, &image).unwrap();
        let (_, recovered) =
            OpJournal::open(&path, 8, ReferencePolicy::Easy, JournalCfg::default()).unwrap();
        let torn = recovered.torn.expect("the zeros are torn");
        assert_eq!((torn.at_byte, torn.dropped_bytes), (HEADER_LEN, 8));
        assert_eq!(torn.reason, "undecodable record payload");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), HEADER_LEN);
        std::fs::remove_file(&path).unwrap();
    }

    /// A batch that cannot be made durable is not acknowledged — by the
    /// sequential wrapper and by the concurrent front alike. The journal
    /// sits on a read-only handle, so appends queue up (`Batch`) and the
    /// seal's write fails.
    #[test]
    fn an_unsealed_batch_is_answered_with_a_journal_error_on_both_paths() {
        let path = tmp("unsealed");
        let _ = std::fs::remove_file(&path);
        let cfg = cfg(FsyncPolicy::Batch, 1024);
        drop(OpJournal::open(&path, 4, ReferencePolicy::Easy, cfg).unwrap());
        let read_only = || {
            let (mut journal, _) = OpJournal::open(&path, 4, ReferencePolicy::Easy, cfg).unwrap();
            journal.file = File::open(&path).unwrap();
            journal
        };
        let fresh =
            || ScheduleService::new(ReferencePolicy::Easy, AvailabilityTimeline::constant(4));
        let is_journal_error = |result: Result<Reply, ServiceError>| {
            matches!(result, Err(ServiceError::Journal { .. }))
        };

        let mut sequential = JournaledService::new(fresh(), read_only());
        assert!(is_journal_error(sequential.apply(&submit(2, 5, None))));
        assert!(sequential.apply(&Op::Stats).is_ok(), "reads need no seal");

        let front = crate::concurrent::ConcurrentService::with_journal(fresh(), read_only());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let client = front.client();
                scope.spawn(move || {
                    let reply = client.apply(&submit(1, 3, None));
                    assert!(
                        is_journal_error(reply.result),
                        "acknowledged an unsealed op"
                    );
                });
            }
        });
        drop(front);
        std::fs::remove_file(&path).unwrap();
    }
}
