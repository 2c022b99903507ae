//! `resa serve` — the resident scheduling service.
//!
//! The on-line counterpart of `resa replay`: instead of replaying a complete
//! trace, the process keeps a [`ScheduleService`] (a live
//! `Simulator`-equivalent decision loop over a resident availability
//! substrate) and answers a line-delimited JSON request protocol — over
//! stdin/stdout by default, over a TCP or Unix socket with `--listen` /
//! `--unix`, or against a checked-in script with `--script` (which is how
//! the golden tests and the CI smoke drive it deterministically).
//!
//! One request per line, one JSON response per line:
//!
//! ```text
//! {"op":"submit","width":2,"duration":10}        job arrival (optional "release";
//!                                                optional "deadline" + "admission"
//!                                                for SLA-gated submission)
//! {"op":"reserve","width":2,"duration":6,"start":4}
//! {"op":"cancel","reservation":0}
//! {"op":"query","width":4,"duration":5}          speculative earliest-fit probe
//! {"op":"inject","width":4,"duration":6,"start":9}   mid-run failure/maintenance
//! {"op":"revoke","drain":0}                      heal an injected drain early
//! {"op":"submit_moldable","widths":[1,2,4],"area":12} scheduler picks the width
//! {"op":"advance","to":20}                       move virtual time
//! {"op":"drain"}                                 run until every job completed
//! {"op":"stats"}                                 aggregate counters
//! {"op":"snapshot"}                              current schedule + metrics
//!                                                (optional "since" paginates
//!                                                records by job id)
//! {"op":"shutdown"}                              end the session
//! ```
//!
//! Unknown operations, unknown/misspelled fields (with a did-you-mean
//! suggestion), missing fields and infeasible requests are answered with
//! `{"ok":false,…}` without disturbing the resident state — rejected
//! reservation requests roll back transactionally through the substrate's
//! checkpoint marks. Blank lines and `#` comments are ignored, so request
//! scripts can be annotated.
//!
//! # Concurrency
//!
//! The socket transports (`--listen` / `--unix`) accept any number of
//! concurrent connections, one thread per session, all sharing one
//! resident state through [`ConcurrentService`]: mutating ops funnel into
//! the single writer thread (which applies them in batches — the arrival
//! order at the writer is the serial order of the service), while `query` /
//! `stats` / `snapshot` are answered on the session's own thread from the
//! latest published snapshot. Snapshots are republished *before* write
//! replies are delivered, so every session reads its own writes — a
//! single-client conversation is byte-identical to a sequential one, which
//! is what keeps the golden transcripts substrate- and
//! transport-independent. Stdin and `--script` sessions are single-client
//! by construction and run the sequential service directly.
//!
//! Two socket-facing options ride along: `--token <secret>` demands a
//! `{"op":"auth","token":…}` first request per connection (anything else is
//! answered with a structured error and the connection is closed), and
//! `--realtime` ticks virtual time to the wall clock (1 tick = 1 ms since
//! server start) before each request — `--script` rejects `--realtime`, so
//! checked-in transcripts stay deterministic.

use crate::fields::check_fields;
use crate::opts::CommonOpts;
use crate::replay::Substrate;
use crate::{CliError, Outcome};
use resa_core::capacity::Speculate;
use resa_core::prelude::*;
use resa_sim::prelude::*;
use serde::{Deserialize, Serialize, Value};
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Help text for `resa serve --help`.
pub const SERVE_HELP: &str = "\
resa serve — resident scheduling service over a line-delimited JSON protocol

USAGE:
    resa serve [OPTIONS]

OPTIONS:
    --machines <m>        cluster size                              [default: 16]
    --policy <name>       on-line decision policy: fcfs|easy|greedy [default: easy]
    --substrate <s>       availability backend: timeline | profile  [default: timeline]
                          (timeline = indexed segment tree with checkpoint/rollback
                          speculation; profile = the clone-based reference — responses
                          are identical, which is what the golden tests assert)
    --script <file>       read requests from <file> instead of stdin and print
                          the transcript (one response line per request line)
    --listen <addr>       serve a TCP socket (e.g. 127.0.0.1:7077); concurrent
                          sessions share the same resident state (single-writer
                          batching, snapshot-isolated reads)
    --unix <path>         serve a Unix domain socket at <path>, same concurrency
    --token <secret>      require {\"op\":\"auth\",\"token\":<secret>} as the first
                          request of every socket session (--listen/--unix only)
    --realtime            tick virtual time to the wall clock (1 tick = 1 ms
                          since server start) before each request; incompatible
                          with --script, whose transcripts stay deterministic
    --journal <file>      write-ahead journal every mutating op to <file> and
                          auto-recover from it on startup (recovered op/snapshot
                          counts are reported on stderr); a torn tail from a
                          crash is truncated and reported, never replayed
    --fsync <policy>      journal durability: every | batch | off
                          (every = fdatasync per op; batch = per batch, before
                          replies; off = OS-buffered)           [default: batch]
    --snapshot-every <n>  compact the journal to one snapshot record after <n>
                          ops, bounding recovery replay cost     [default: 1024]
    --idle-timeout <s>    close a socket session after <s> seconds without a
                          request (0 disables; --listen/--unix) [default: 600]
    --drain-mode <m>      what happens to jobs preempted by an injected drain:
                          restart (redo from scratch) | checkpoint (requeue the
                          remaining work only); re-supply at recovery — the
                          mode is configuration, not journaled state
                                                               [default: restart]
    --retire              retire completed jobs out of the resident state after
                          every time-advancing request, so a long-running
                          session's memory tracks the *active* jobs; snapshot
                          metrics still describe the whole run (merged
                          bit-exactly). Sequential transports only; incompatible
                          with --journal
    --records-out <file>  with --retire, append each retired job record to
                          <file> as one JSON line

REQUESTS (one JSON object per line; blank lines and # comments are ignored):
    {\"op\":\"submit\",\"width\":W,\"duration\":D[,\"release\":T]}   job arrival
        [,\"deadline\":T,\"admission\":\"reject\"|\"boost\"]  SLA gate: commit the job
        (guaranteed start reservation) iff it provably completes by T;
        otherwise reject the submission, or admit it queue-boosted
    {\"op\":\"reserve\",\"width\":W,\"duration\":D,\"start\":T}     add a reservation
    {\"op\":\"cancel\",\"reservation\":ID}                      cancel a reservation
    {\"op\":\"query\",\"width\":W,\"duration\":D[,\"not_before\":T]} earliest-fit probe
    {\"op\":\"inject\",\"width\":W,\"duration\":D,\"start\":T}  mid-run failure drain;
        running jobs in the window are preempted per --drain-mode (guaranteed
        jobs never are; the drain is rejected if it cannot fit without them)
    {\"op\":\"revoke\",\"drain\":ID}    heal an injected drain early (frees the
        not-yet-elapsed remainder of its window)
    {\"op\":\"submit_moldable\",\"widths\":[W,...],\"area\":A}  moldable job: the
        service picks the completion-minimizing width and submits rigidly
    {\"op\":\"advance\",\"to\":T}      move virtual time, draining completions
    {\"op\":\"drain\"}                 run until every submitted job completed
    {\"op\":\"stats\"}                 aggregate counters
    {\"op\":\"snapshot\"[,\"since\":ID]}  current schedule + metrics (replay shapes);
        \"since\" paginates the record list to job ids strictly greater than ID
        (pass the largest id already seen; metrics always cover the whole run)
    {\"op\":\"shutdown\"}              end the session

plus the common options: --seed --threads --format --quick --out
(--out persists the --script transcript; the other common flags are accepted
for CLI uniformity and do not affect the protocol)
";

/// One parsed protocol request.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Request {
    Submit {
        width: u32,
        duration: u64,
        release: Option<u64>,
        deadline: Option<u64>,
        admission: AdmissionPolicy,
    },
    Reserve {
        width: u32,
        duration: u64,
        start: u64,
    },
    Cancel {
        reservation: usize,
    },
    Inject {
        width: u32,
        duration: u64,
        start: u64,
    },
    Revoke {
        drain: usize,
    },
    SubmitMoldable {
        widths: Vec<u32>,
        area: u64,
    },
    Query {
        width: u32,
        duration: u64,
        not_before: Option<u64>,
    },
    Advance {
        to: u64,
    },
    Drain,
    Stats,
    Snapshot {
        since: Option<u64>,
    },
    Shutdown,
}

/// Parse one request line. Errors are protocol-level strings (the session
/// answers them with `{"ok":false,…}` and keeps serving).
fn parse_request(line: &str) -> Result<Request, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("bad JSON: {e}"))?;
    if value.as_object().is_none() {
        return Err("request must be a JSON object".to_string());
    }
    let op: String = required(&value, "request", "op")?;
    let ctx = format!("{op} request");
    let strict = |allowed: &[&str]| -> Result<(), String> {
        check_fields(&value, &ctx, allowed).map_err(|e| e.to_string())
    };
    match op.as_str() {
        "submit" => {
            strict(&[
                "op",
                "width",
                "duration",
                "release",
                "deadline",
                "admission",
            ])?;
            let deadline: Option<u64> = optional(&value, &ctx, "deadline")?;
            let admission = match optional::<String>(&value, &ctx, "admission")? {
                None => AdmissionPolicy::default(),
                Some(_) if deadline.is_none() => {
                    return Err(format!("field 'admission' in {ctx} requires 'deadline'"))
                }
                Some(text) => AdmissionPolicy::parse(&text)
                    .ok_or_else(|| format!("unknown admission policy '{text}' (reject|boost)"))?,
            };
            Ok(Request::Submit {
                width: required(&value, &ctx, "width")?,
                duration: required(&value, &ctx, "duration")?,
                release: optional(&value, &ctx, "release")?,
                deadline,
                admission,
            })
        }
        "reserve" => {
            strict(&["op", "width", "duration", "start"])?;
            Ok(Request::Reserve {
                width: required(&value, &ctx, "width")?,
                duration: required(&value, &ctx, "duration")?,
                start: required(&value, &ctx, "start")?,
            })
        }
        "cancel" => {
            strict(&["op", "reservation"])?;
            Ok(Request::Cancel {
                reservation: required(&value, &ctx, "reservation")?,
            })
        }
        "query" => {
            strict(&["op", "width", "duration", "not_before"])?;
            Ok(Request::Query {
                width: required(&value, &ctx, "width")?,
                duration: required(&value, &ctx, "duration")?,
                not_before: optional(&value, &ctx, "not_before")?,
            })
        }
        "advance" => {
            strict(&["op", "to"])?;
            Ok(Request::Advance {
                to: required(&value, &ctx, "to")?,
            })
        }
        "inject" => {
            strict(&["op", "width", "duration", "start"])?;
            Ok(Request::Inject {
                width: required(&value, &ctx, "width")?,
                duration: required(&value, &ctx, "duration")?,
                start: required(&value, &ctx, "start")?,
            })
        }
        "revoke" => {
            strict(&["op", "drain"])?;
            Ok(Request::Revoke {
                drain: required(&value, &ctx, "drain")?,
            })
        }
        "submit_moldable" => {
            strict(&["op", "widths", "area"])?;
            Ok(Request::SubmitMoldable {
                widths: required(&value, &ctx, "widths")?,
                area: required(&value, &ctx, "area")?,
            })
        }
        "drain" => strict(&["op"]).map(|()| Request::Drain),
        "stats" => strict(&["op"]).map(|()| Request::Stats),
        "snapshot" => {
            strict(&["op", "since"])?;
            Ok(Request::Snapshot {
                since: optional(&value, &ctx, "since")?,
            })
        }
        "shutdown" => strict(&["op"]).map(|()| Request::Shutdown),
        other => Err(format!(
            "unknown op '{other}' (submit|reserve|cancel|query|inject|revoke|submit_moldable|\
             advance|drain|stats|snapshot|shutdown)"
        )),
    }
}

fn required<T: Deserialize>(value: &Value, ctx: &str, name: &str) -> Result<T, String> {
    optional(value, ctx, name)?.ok_or_else(|| format!("missing required field '{name}' in {ctx}"))
}

fn optional<T: Deserialize>(value: &Value, ctx: &str, name: &str) -> Result<Option<T>, String> {
    match value.get(name) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => T::from_value(v)
            .map(Some)
            .map_err(|e| format!("field '{name}' in {ctx}: {e}")),
    }
}

// -- responses --------------------------------------------------------------

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn render(value: &Value) -> String {
    serde_json::to_string(value).expect("responses are serializable")
}

fn ok_response(op: &str, mut rest: Vec<(&str, Value)>) -> String {
    let mut fields = vec![("ok", Value::Bool(true)), ("op", Value::Str(op.into()))];
    fields.append(&mut rest);
    render(&object(fields))
}

fn error_response(op: Option<&str>, message: &str) -> String {
    let mut fields = vec![("ok", Value::Bool(false))];
    if let Some(op) = op {
        fields.push(("op", Value::Str(op.to_string())));
    }
    fields.push(("error", Value::Str(message.to_string())));
    render(&object(fields))
}

fn placements_value(started: &[Placement]) -> Value {
    Value::Array(
        started
            .iter()
            .map(|p| {
                object(vec![
                    ("job", Value::UInt(p.job.0 as u64)),
                    ("start", Value::UInt(p.start.ticks())),
                ])
            })
            .collect(),
    )
}

fn completions_value(completed: &[(JobId, Time)]) -> Value {
    Value::Array(
        completed
            .iter()
            .map(|&(id, at)| {
                object(vec![
                    ("job", Value::UInt(id.0 as u64)),
                    ("at", Value::UInt(at.ticks())),
                ])
            })
            .collect(),
    )
}

fn effects_fields(effects: &Effects) -> Vec<(&'static str, Value)> {
    vec![
        ("started", placements_value(&effects.started)),
        ("completed", completions_value(&effects.completed)),
    ]
}

// -- backends ---------------------------------------------------------------

/// `(now, machines, records, metrics)`: what a `snapshot` response is built
/// from.
type SnapshotParts = (Time, u32, Vec<JobRecord>, SimMetrics);

/// The service face the protocol loop drives: implemented by the sequential
/// [`ScheduleService`] (stdin / `--script` sessions own their service) and
/// by [`ServiceClient`] (socket sessions share one [`ConcurrentService`]).
/// Methods return owned values because the concurrent client cannot borrow
/// from the writer thread's state — the sequential impl clones its reused
/// effects buffer, a per-request cost the protocol already pays in response
/// allocation.
trait Backend {
    fn submit(
        &mut self,
        width: u32,
        duration: Dur,
        release: Option<Time>,
    ) -> Result<(JobId, Effects), ServiceError>;
    fn reserve(
        &mut self,
        width: u32,
        duration: Dur,
        start: Time,
    ) -> Result<(usize, Effects), ServiceError>;
    fn cancel(&mut self, id: usize) -> Result<Effects, ServiceError>;
    /// Injects a drain window; returns its id and the jobs it preempted.
    fn inject(
        &mut self,
        width: u32,
        duration: Dur,
        start: Time,
    ) -> Result<(usize, Vec<JobId>, Effects), ServiceError>;
    fn revoke(&mut self, id: usize) -> Result<Effects, ServiceError>;
    fn submit_deadline(
        &mut self,
        width: u32,
        duration: Dur,
        release: Option<Time>,
        deadline: Time,
        admission: AdmissionPolicy,
    ) -> Result<(JobId, DeadlineOutcome, Effects), ServiceError>;
    fn submit_moldable(
        &mut self,
        widths: &[u32],
        area: u64,
    ) -> Result<(JobId, WidthChoice, Effects), ServiceError>;
    fn query(
        &mut self,
        width: u32,
        duration: Dur,
        not_before: Option<Time>,
    ) -> Result<Option<Time>, ServiceError>;
    /// Returns the virtual time after advancing together with the effects.
    fn advance(&mut self, to: Time) -> Result<(Time, Effects), ServiceError>;
    /// Clock-driven advance: clamps a stale target instead of rejecting it.
    fn advance_clamped(&mut self, to: Time) -> Result<(Time, Effects), ServiceError>;
    fn drain(&mut self) -> Result<(Time, Effects), ServiceError>;
    fn stats(&mut self) -> ServiceStats;
    fn policy(&self) -> ReferencePolicy;
    /// All four parts from one point of the session. Only the concurrent
    /// backend can fail (its writer may be gone).
    fn snapshot_parts(&mut self) -> Result<SnapshotParts, ServiceError>;
}

impl<C: CapacityQuery + Speculate> Backend for ScheduleService<C> {
    fn submit(
        &mut self,
        width: u32,
        duration: Dur,
        release: Option<Time>,
    ) -> Result<(JobId, Effects), ServiceError> {
        ScheduleService::submit(self, width, duration, release).map(|(id, fx)| (id, fx.clone()))
    }

    fn reserve(
        &mut self,
        width: u32,
        duration: Dur,
        start: Time,
    ) -> Result<(usize, Effects), ServiceError> {
        ScheduleService::reserve(self, width, duration, start).map(|(id, fx)| (id, fx.clone()))
    }

    fn cancel(&mut self, id: usize) -> Result<Effects, ServiceError> {
        ScheduleService::cancel(self, id).cloned()
    }

    fn inject(
        &mut self,
        width: u32,
        duration: Dur,
        start: Time,
    ) -> Result<(usize, Vec<JobId>, Effects), ServiceError> {
        let res =
            ScheduleService::inject(self, width, duration, start).map(|(id, fx)| (id, fx.clone()));
        res.map(|(id, fx)| (id, self.last_preempted().to_vec(), fx))
    }

    fn revoke(&mut self, id: usize) -> Result<Effects, ServiceError> {
        ScheduleService::revoke(self, id).cloned()
    }

    fn submit_deadline(
        &mut self,
        width: u32,
        duration: Dur,
        release: Option<Time>,
        deadline: Time,
        admission: AdmissionPolicy,
    ) -> Result<(JobId, DeadlineOutcome, Effects), ServiceError> {
        ScheduleService::submit_deadline(self, width, duration, release, deadline, admission)
            .map(|(id, outcome, fx)| (id, outcome, fx.clone()))
    }

    fn submit_moldable(
        &mut self,
        widths: &[u32],
        area: u64,
    ) -> Result<(JobId, WidthChoice, Effects), ServiceError> {
        ScheduleService::submit_moldable(self, widths, area)
            .map(|(id, choice, fx)| (id, choice, fx.clone()))
    }

    fn query(
        &mut self,
        width: u32,
        duration: Dur,
        not_before: Option<Time>,
    ) -> Result<Option<Time>, ServiceError> {
        ScheduleService::query(self, width, duration, not_before)
    }

    fn advance(&mut self, to: Time) -> Result<(Time, Effects), ServiceError> {
        let fx = ScheduleService::advance(self, to)?.clone();
        Ok((self.now(), fx))
    }

    fn advance_clamped(&mut self, to: Time) -> Result<(Time, Effects), ServiceError> {
        let fx = ScheduleService::advance_clamped(self, to).clone();
        Ok((self.now(), fx))
    }

    fn drain(&mut self) -> Result<(Time, Effects), ServiceError> {
        let fx = ScheduleService::drain(self).clone();
        Ok((self.now(), fx))
    }

    fn stats(&mut self) -> ServiceStats {
        ScheduleService::stats(self)
    }

    fn policy(&self) -> ReferencePolicy {
        ScheduleService::policy(self)
    }

    fn snapshot_parts(&mut self) -> Result<SnapshotParts, ServiceError> {
        let (records, metrics) = ScheduleService::snapshot(self);
        Ok((self.now(), self.machines(), records, metrics))
    }
}

impl Backend for ServiceClient {
    fn submit(
        &mut self,
        width: u32,
        duration: Dur,
        release: Option<Time>,
    ) -> Result<(JobId, Effects), ServiceError> {
        ServiceClient::submit(self, width, duration, release)
    }

    fn reserve(
        &mut self,
        width: u32,
        duration: Dur,
        start: Time,
    ) -> Result<(usize, Effects), ServiceError> {
        ServiceClient::reserve(self, width, duration, start)
    }

    fn cancel(&mut self, id: usize) -> Result<Effects, ServiceError> {
        ServiceClient::cancel(self, id)
    }

    fn inject(
        &mut self,
        width: u32,
        duration: Dur,
        start: Time,
    ) -> Result<(usize, Vec<JobId>, Effects), ServiceError> {
        ServiceClient::inject(self, width, duration, start)
    }

    fn revoke(&mut self, id: usize) -> Result<Effects, ServiceError> {
        ServiceClient::revoke(self, id)
    }

    fn submit_deadline(
        &mut self,
        width: u32,
        duration: Dur,
        release: Option<Time>,
        deadline: Time,
        admission: AdmissionPolicy,
    ) -> Result<(JobId, DeadlineOutcome, Effects), ServiceError> {
        ServiceClient::submit_deadline(self, width, duration, release, deadline, admission)
    }

    fn submit_moldable(
        &mut self,
        widths: &[u32],
        area: u64,
    ) -> Result<(JobId, WidthChoice, Effects), ServiceError> {
        ServiceClient::submit_moldable(self, widths.to_vec(), area)
    }

    fn query(
        &mut self,
        width: u32,
        duration: Dur,
        not_before: Option<Time>,
    ) -> Result<Option<Time>, ServiceError> {
        ServiceClient::query(self, width, duration, not_before)
    }

    fn advance(&mut self, to: Time) -> Result<(Time, Effects), ServiceError> {
        ServiceClient::advance(self, to)
    }

    fn advance_clamped(&mut self, to: Time) -> Result<(Time, Effects), ServiceError> {
        ServiceClient::advance_clamped(self, to)
    }

    fn drain(&mut self) -> Result<(Time, Effects), ServiceError> {
        ServiceClient::drain(self)
    }

    fn stats(&mut self) -> ServiceStats {
        ServiceClient::stats(self)
    }

    fn policy(&self) -> ReferencePolicy {
        self.snapshot().policy
    }

    fn snapshot_parts(&mut self) -> Result<SnapshotParts, ServiceError> {
        // One round trip through the writer: every field of the response
        // comes from the same point of the serial order.
        let at = self.records()?;
        Ok((at.now, at.machines, at.records, at.metrics))
    }
}

/// Durable sequential sessions (`--journal` over stdio / `--script`): every
/// mutating op is write-ahead journaled; an op whose record cannot be made
/// durable is answered with a structured error and not applied.
impl<C: CapacityQuery + Speculate> Backend for JournaledService<C> {
    fn submit(
        &mut self,
        width: u32,
        duration: Dur,
        release: Option<Time>,
    ) -> Result<(JobId, Effects), ServiceError> {
        JournaledService::submit(self, width, duration, release)
    }

    fn reserve(
        &mut self,
        width: u32,
        duration: Dur,
        start: Time,
    ) -> Result<(usize, Effects), ServiceError> {
        JournaledService::reserve(self, width, duration, start)
    }

    fn cancel(&mut self, id: usize) -> Result<Effects, ServiceError> {
        JournaledService::cancel(self, id)
    }

    fn inject(
        &mut self,
        width: u32,
        duration: Dur,
        start: Time,
    ) -> Result<(usize, Vec<JobId>, Effects), ServiceError> {
        JournaledService::inject(self, width, duration, start)
    }

    fn revoke(&mut self, id: usize) -> Result<Effects, ServiceError> {
        JournaledService::revoke(self, id)
    }

    fn submit_deadline(
        &mut self,
        width: u32,
        duration: Dur,
        release: Option<Time>,
        deadline: Time,
        admission: AdmissionPolicy,
    ) -> Result<(JobId, DeadlineOutcome, Effects), ServiceError> {
        JournaledService::submit_deadline(self, width, duration, release, deadline, admission)
    }

    fn submit_moldable(
        &mut self,
        widths: &[u32],
        area: u64,
    ) -> Result<(JobId, WidthChoice, Effects), ServiceError> {
        JournaledService::submit_moldable(self, widths, area)
    }

    fn query(
        &mut self,
        width: u32,
        duration: Dur,
        not_before: Option<Time>,
    ) -> Result<Option<Time>, ServiceError> {
        JournaledService::query(self, width, duration, not_before)
    }

    fn advance(&mut self, to: Time) -> Result<(Time, Effects), ServiceError> {
        JournaledService::advance(self, to)
    }

    fn advance_clamped(&mut self, to: Time) -> Result<(Time, Effects), ServiceError> {
        JournaledService::advance_clamped(self, to)
    }

    fn drain(&mut self) -> Result<(Time, Effects), ServiceError> {
        JournaledService::drain(self)
    }

    fn stats(&mut self) -> ServiceStats {
        JournaledService::stats(self)
    }

    fn policy(&self) -> ReferencePolicy {
        JournaledService::policy(self)
    }

    fn snapshot_parts(&mut self) -> Result<SnapshotParts, ServiceError> {
        let (records, metrics) = JournaledService::snapshot(self);
        Ok((self.now(), self.service().machines(), records, metrics))
    }
}

/// Record sink of a `--retire` session: counts every retired record and,
/// with `--records-out`, appends each as one JSON line. A write error is
/// reported once on stderr and disables the writer — the session keeps
/// serving (the records were already applied to the merged metrics).
struct FileRecordSink {
    out: Option<std::io::BufWriter<std::fs::File>>,
    path: String,
    written: usize,
}

impl FileRecordSink {
    fn new(path: Option<&str>) -> Result<Self, CliError> {
        let out = path
            .map(|p| {
                std::fs::File::create(p)
                    .map(std::io::BufWriter::new)
                    .map_err(|e| CliError::Io {
                        path: p.to_string(),
                        message: e.to_string(),
                    })
            })
            .transpose()?;
        Ok(FileRecordSink {
            out,
            path: path.unwrap_or_default().to_string(),
            written: 0,
        })
    }

    fn flush(&mut self) {
        if let Some(w) = &mut self.out {
            let _ = w.flush();
        }
    }
}

impl RecordSink for FileRecordSink {
    fn record(&mut self, rec: JobRecord) {
        self.written += 1;
        if let Some(w) = &mut self.out {
            if let Err(e) = writeln!(w, "{}", render(&rec.to_value())) {
                eprintln!(
                    "--records-out {}: {e}; further records are dropped",
                    self.path
                );
                self.out = None;
            }
        }
    }
}

/// A sequential [`ScheduleService`] that retires completed jobs into a
/// [`FileRecordSink`] after every time-advancing request (`--retire`), so a
/// long-running session's resident set tracks the *active* jobs. Snapshot
/// metrics stay bit-identical to a never-retired session; the retired
/// records leave through the sink and via `snapshot`+`since` pagination
/// before they go.
struct RetiringService<C: CapacityQuery + Speculate> {
    svc: ScheduleService<C>,
    sink: FileRecordSink,
}

impl<C: CapacityQuery + Speculate> RetiringService<C> {
    fn retire(&mut self) {
        if self.svc.retire_completed(&mut self.sink) > 0 {
            self.sink.flush();
        }
    }
}

impl<C: CapacityQuery + Speculate> Backend for RetiringService<C> {
    fn submit(
        &mut self,
        width: u32,
        duration: Dur,
        release: Option<Time>,
    ) -> Result<(JobId, Effects), ServiceError> {
        Backend::submit(&mut self.svc, width, duration, release)
    }

    fn reserve(
        &mut self,
        width: u32,
        duration: Dur,
        start: Time,
    ) -> Result<(usize, Effects), ServiceError> {
        Backend::reserve(&mut self.svc, width, duration, start)
    }

    fn cancel(&mut self, id: usize) -> Result<Effects, ServiceError> {
        Backend::cancel(&mut self.svc, id)
    }

    fn inject(
        &mut self,
        width: u32,
        duration: Dur,
        start: Time,
    ) -> Result<(usize, Vec<JobId>, Effects), ServiceError> {
        Backend::inject(&mut self.svc, width, duration, start)
    }

    fn revoke(&mut self, id: usize) -> Result<Effects, ServiceError> {
        Backend::revoke(&mut self.svc, id)
    }

    fn submit_deadline(
        &mut self,
        width: u32,
        duration: Dur,
        release: Option<Time>,
        deadline: Time,
        admission: AdmissionPolicy,
    ) -> Result<(JobId, DeadlineOutcome, Effects), ServiceError> {
        Backend::submit_deadline(&mut self.svc, width, duration, release, deadline, admission)
    }

    fn submit_moldable(
        &mut self,
        widths: &[u32],
        area: u64,
    ) -> Result<(JobId, WidthChoice, Effects), ServiceError> {
        Backend::submit_moldable(&mut self.svc, widths, area)
    }

    fn query(
        &mut self,
        width: u32,
        duration: Dur,
        not_before: Option<Time>,
    ) -> Result<Option<Time>, ServiceError> {
        Backend::query(&mut self.svc, width, duration, not_before)
    }

    fn advance(&mut self, to: Time) -> Result<(Time, Effects), ServiceError> {
        let res = Backend::advance(&mut self.svc, to);
        self.retire();
        res
    }

    fn advance_clamped(&mut self, to: Time) -> Result<(Time, Effects), ServiceError> {
        let res = Backend::advance_clamped(&mut self.svc, to);
        self.retire();
        res
    }

    fn drain(&mut self) -> Result<(Time, Effects), ServiceError> {
        let res = Backend::drain(&mut self.svc);
        self.retire();
        res
    }

    fn stats(&mut self) -> ServiceStats {
        Backend::stats(&mut self.svc)
    }

    fn policy(&self) -> ReferencePolicy {
        Backend::policy(&self.svc)
    }

    fn snapshot_parts(&mut self) -> Result<SnapshotParts, ServiceError> {
        Backend::snapshot_parts(&mut self.svc)
    }
}

/// Execute one request against the resident service, producing the response
/// line (without trailing newline) and whether the session should end.
fn handle<B: Backend>(svc: &mut B, line: &str) -> (String, bool) {
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(e) => return (error_response(None, &e), false),
    };
    let response = match request {
        Request::Submit {
            width,
            duration,
            release,
            deadline: None,
            admission: _,
        } => match svc.submit(width, Dur(duration), release.map(Time)) {
            Ok((id, fx)) => {
                let mut fields = vec![("job", Value::UInt(id.0 as u64))];
                fields.extend(effects_fields(&fx));
                ok_response("submit", fields)
            }
            Err(e) => error_response(Some("submit"), &e.to_string()),
        },
        Request::Submit {
            width,
            duration,
            release,
            deadline: Some(deadline),
            admission,
        } => match svc.submit_deadline(
            width,
            Dur(duration),
            release.map(Time),
            Time(deadline),
            admission,
        ) {
            Ok((id, outcome, fx)) => {
                let mut fields = vec![("job", Value::UInt(id.0 as u64))];
                match outcome {
                    DeadlineOutcome::Committed { start, completion } => {
                        fields.push(("outcome", Value::Str("committed".into())));
                        fields.push(("start", Value::UInt(start.ticks())));
                        fields.push(("completion", Value::UInt(completion.ticks())));
                    }
                    DeadlineOutcome::Boosted => {
                        fields.push(("outcome", Value::Str("boosted".into())));
                    }
                }
                fields.extend(effects_fields(&fx));
                ok_response("submit", fields)
            }
            Err(e) => error_response(Some("submit"), &e.to_string()),
        },
        Request::Reserve {
            width,
            duration,
            start,
        } => match svc.reserve(width, Dur(duration), Time(start)) {
            Ok((id, fx)) => {
                let mut fields = vec![("reservation", Value::UInt(id as u64))];
                fields.extend(effects_fields(&fx));
                ok_response("reserve", fields)
            }
            Err(e) => error_response(Some("reserve"), &e.to_string()),
        },
        Request::Cancel { reservation } => match svc.cancel(reservation) {
            Ok(fx) => {
                let mut fields = vec![("reservation", Value::UInt(reservation as u64))];
                fields.extend(effects_fields(&fx));
                ok_response("cancel", fields)
            }
            Err(e) => error_response(Some("cancel"), &e.to_string()),
        },
        Request::Inject {
            width,
            duration,
            start,
        } => match svc.inject(width, Dur(duration), Time(start)) {
            Ok((id, preempted, fx)) => {
                let mut fields = vec![
                    ("drain", Value::UInt(id as u64)),
                    (
                        "preempted",
                        Value::Array(preempted.iter().map(|j| Value::UInt(j.0 as u64)).collect()),
                    ),
                ];
                fields.extend(effects_fields(&fx));
                ok_response("inject", fields)
            }
            Err(e) => error_response(Some("inject"), &e.to_string()),
        },
        Request::Revoke { drain } => match svc.revoke(drain) {
            Ok(fx) => {
                let mut fields = vec![("drain", Value::UInt(drain as u64))];
                fields.extend(effects_fields(&fx));
                ok_response("revoke", fields)
            }
            Err(e) => error_response(Some("revoke"), &e.to_string()),
        },
        Request::SubmitMoldable { widths, area } => match svc.submit_moldable(&widths, area) {
            Ok((id, choice, fx)) => {
                let mut fields = vec![
                    ("job", Value::UInt(id.0 as u64)),
                    ("width", Value::UInt(choice.width as u64)),
                    ("duration", Value::UInt(choice.duration.0)),
                ];
                fields.extend(effects_fields(&fx));
                ok_response("submit_moldable", fields)
            }
            Err(e) => error_response(Some("submit_moldable"), &e.to_string()),
        },
        Request::Query {
            width,
            duration,
            not_before,
        } => match svc.query(width, Dur(duration), not_before.map(Time)) {
            Ok(Some(start)) => ok_response(
                "query",
                vec![
                    ("start", Value::UInt(start.ticks())),
                    (
                        "completion",
                        Value::UInt(start.saturating_add(Dur(duration)).ticks()),
                    ),
                ],
            ),
            Ok(None) => ok_response("query", vec![("start", Value::Null)]),
            Err(e) => error_response(Some("query"), &e.to_string()),
        },
        Request::Advance { to } => match svc.advance(Time(to)) {
            Ok((now, fx)) => {
                let mut fields = vec![("now", Value::UInt(now.ticks()))];
                fields.extend(effects_fields(&fx));
                ok_response("advance", fields)
            }
            Err(e) => error_response(Some("advance"), &e.to_string()),
        },
        Request::Drain => match svc.drain() {
            Ok((now, fx)) => {
                let mut fields = vec![("now", Value::UInt(now.ticks()))];
                fields.extend(effects_fields(&fx));
                ok_response("drain", fields)
            }
            Err(e) => error_response(Some("drain"), &e.to_string()),
        },
        Request::Stats => {
            let s = svc.stats();
            ok_response(
                "stats",
                vec![
                    ("now", Value::UInt(s.now.ticks())),
                    ("machines", Value::UInt(s.machines as u64)),
                    ("policy", Value::Str(svc.policy().name().to_string())),
                    ("submitted", Value::UInt(s.submitted as u64)),
                    ("pending", Value::UInt(s.pending as u64)),
                    ("waiting", Value::UInt(s.waiting as u64)),
                    ("running", Value::UInt(s.running as u64)),
                    ("completed", Value::UInt(s.completed as u64)),
                    ("reservations", Value::UInt(s.reservations as u64)),
                    ("decisions", Value::UInt(s.decisions)),
                    ("makespan", Value::UInt(s.makespan.ticks())),
                ],
            )
        }
        Request::Snapshot { since } => match svc.snapshot_parts() {
            Ok((now, machines, mut records, metrics)) => {
                // `since` paginates the record list by job id (strictly
                // greater, so a poller passes the largest id it has seen).
                // The metrics still describe the whole run. Absent `since`,
                // the response is byte-identical to the pre-pagination
                // protocol.
                if let Some(since) = since {
                    records.retain(|r| r.job.0 as u64 > since);
                }
                ok_response(
                    "snapshot",
                    vec![
                        ("now", Value::UInt(now.ticks())),
                        ("machines", Value::UInt(machines as u64)),
                        ("policy", Value::Str(svc.policy().name().to_string())),
                        ("schedule", records.to_value()),
                        ("metrics", metrics.to_value()),
                    ],
                )
            }
            Err(e) => error_response(Some("snapshot"), &e.to_string()),
        },
        Request::Shutdown => return (ok_response("shutdown", Vec::new()), true),
    };
    (response, false)
}

// -- sessions ---------------------------------------------------------------

/// Per-session policy knobs shared by every transport.
#[derive(Default)]
struct SessionCfg {
    /// When set, the first request of the session must be
    /// `{"op":"auth","token":<token>}`; anything else is answered with a
    /// structured error and the connection is closed.
    token: Option<String>,
    /// When set, virtual time is advanced (clamped) to the elapsed wall
    /// clock in milliseconds since this instant before each request.
    realtime: Option<std::time::Instant>,
}

/// Validate the first request of a token-guarded session. Returns the
/// response line and whether the session may proceed.
fn check_auth(expected: &str, line: &str) -> (String, bool) {
    let auth = (|| -> Result<String, String> {
        let value: Value = serde_json::from_str(line).map_err(|e| format!("bad JSON: {e}"))?;
        if value.as_object().is_none() {
            return Err("request must be a JSON object".to_string());
        }
        let op: String = required(&value, "request", "op")?;
        if op != "auth" {
            return Err(format!(
                "authentication required: the first request must be an auth op, got '{op}'"
            ));
        }
        check_fields(&value, "auth request", &["op", "token"]).map_err(|e| e.to_string())?;
        required(&value, "auth request", "token")
    })();
    match auth {
        Ok(token) if token == expected => (ok_response("auth", Vec::new()), true),
        Ok(_) => (error_response(Some("auth"), "invalid token"), false),
        Err(e) => (error_response(Some("auth"), &e), false),
    }
}

/// Longest accepted request line, in bytes (including the newline). A peer
/// streaming an endless line used to grow `read_line`'s buffer without
/// bound; now the line is discarded as it arrives and answered with a
/// structured error, and the session keeps serving.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// What one bounded line read produced.
enum LineRead {
    /// A complete line (possibly the final unterminated one) is in the
    /// buffer.
    Line,
    /// The line exceeded [`MAX_LINE_BYTES`]; all of it was discarded.
    Overflow {
        /// Total bytes the oversized line occupied.
        discarded: u64,
    },
    /// Clean end of input.
    Eof,
    /// The socket's read timeout expired between requests.
    TimedOut,
}

/// Read one `\n`-terminated line into `buf` without ever holding more than
/// [`MAX_LINE_BYTES`] of it. Oversized lines are consumed (so the stream
/// stays line-synchronized) but not stored. A read timeout configured on
/// the underlying socket surfaces as [`LineRead::TimedOut`].
fn read_bounded_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<LineRead> {
    use std::io::ErrorKind;
    buf.clear();
    let mut discarded = 0u64;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Ok(LineRead::TimedOut)
            }
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            // EOF. A trailing unterminated line is processed like
            // `read_line` would have.
            return Ok(if discarded > 0 {
                LineRead::Overflow { discarded }
            } else if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line
            });
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.map_or(chunk.len(), |i| i + 1);
        if discarded > 0 {
            discarded += take as u64;
        } else if buf.len() + take > MAX_LINE_BYTES {
            // The whole line is oversized: switch to discard mode.
            discarded = (buf.len() + take) as u64;
            buf.clear();
        } else {
            buf.extend_from_slice(&chunk[..take]);
        }
        reader.consume(take);
        if newline.is_some() {
            return Ok(if discarded > 0 {
                LineRead::Overflow { discarded }
            } else {
                LineRead::Line
            });
        }
    }
}

fn send_line(writer: &mut impl Write, line: &str) -> std::io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Serve one session: read request lines from `reader`, write one response
/// line per request to `writer` (flushed per line, so socket and pipe peers
/// see answers immediately). Returns whether a `shutdown` request ended the
/// session (as opposed to EOF, an auth rejection, or an idle timeout).
///
/// Oversized (> [`MAX_LINE_BYTES`]) and non-UTF-8 lines are answered with a
/// structured error and the session keeps serving; an expired socket read
/// timeout is answered with a structured close line and ends the session.
fn serve_session<B: Backend>(
    svc: &mut B,
    cfg: &SessionCfg,
    mut reader: impl BufRead,
    mut writer: impl Write,
) -> std::io::Result<bool> {
    // One raw-line buffer for the whole session instead of a fresh `String`
    // per request (`BufRead::lines` allocates one per iteration).
    let mut raw: Vec<u8> = Vec::new();
    let mut authed = cfg.token.is_none();
    loop {
        match read_bounded_line(&mut reader, &mut raw)? {
            LineRead::Eof => return Ok(false),
            LineRead::TimedOut => {
                // Best-effort close line: the peer may already be gone.
                let _ = send_line(
                    &mut writer,
                    &error_response(None, "idle timeout: closing session"),
                );
                return Ok(false);
            }
            LineRead::Overflow { discarded } => {
                send_line(
                    &mut writer,
                    &error_response(
                        None,
                        &format!(
                            "request line exceeds {MAX_LINE_BYTES} bytes \
                             ({discarded} bytes discarded)"
                        ),
                    ),
                )?;
                continue;
            }
            LineRead::Line => {}
        }
        let Ok(text) = std::str::from_utf8(&raw) else {
            send_line(
                &mut writer,
                &error_response(None, "request line is not valid UTF-8"),
            )?;
            continue;
        };
        let trimmed = text.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if !authed {
            let (response, pass) = check_auth(cfg.token.as_deref().unwrap_or(""), trimmed);
            send_line(&mut writer, &response)?;
            if !pass {
                return Ok(false);
            }
            authed = true;
            continue;
        }
        if let Some(base) = cfg.realtime {
            // Tick the session's virtual clock to the wall clock. Starts
            // and completions the tick triggers surface through later
            // `stats` / `snapshot` responses, not through this request's.
            let ms = u64::try_from(base.elapsed().as_millis()).unwrap_or(u64::MAX);
            let _ = svc.advance_clamped(Time(ms));
        }
        let (response, done) = handle(svc, trimmed);
        send_line(&mut writer, &response)?;
        if done {
            return Ok(true);
        }
    }
}

/// Drive a whole request script in-process and return the transcript. This
/// is the deterministic face the golden tests and the CI smoke use: always
/// the sequential service, never realtime, never token-guarded.
pub fn run_script(
    script: &str,
    machines: u32,
    policy: ReferencePolicy,
    substrate: Substrate,
) -> String {
    run_script_with_mode(script, machines, policy, substrate, DrainMode::Restart)
}

/// [`run_script`] with an explicit drain preemption mode (`--drain-mode`).
pub fn run_script_with_mode(
    script: &str,
    machines: u32,
    policy: ReferencePolicy,
    substrate: Substrate,
    mode: DrainMode,
) -> String {
    let mut out = Vec::new();
    let cfg = SessionCfg::default();
    match substrate {
        Substrate::Timeline => {
            let mut svc = ScheduleService::new(policy, AvailabilityTimeline::constant(machines));
            svc.set_drain_mode(mode);
            serve_session(&mut svc, &cfg, script.as_bytes(), &mut out).expect("in-memory I/O");
        }
        Substrate::Profile => {
            let mut svc = ScheduleService::new(policy, ResourceProfile::constant(machines));
            svc.set_drain_mode(mode);
            serve_session(&mut svc, &cfg, script.as_bytes(), &mut out).expect("in-memory I/O");
        }
    }
    String::from_utf8(out).expect("responses are UTF-8")
}

/// [`run_script`], but with `--retire`: completed jobs are retired out of
/// the resident state after every time-advancing request, optionally
/// streamed to a `--records-out` file as JSON lines.
fn run_script_retiring(
    script: &str,
    machines: u32,
    policy: ReferencePolicy,
    substrate: Substrate,
    mode: DrainMode,
    records_out: Option<&str>,
) -> Result<String, CliError> {
    let cfg = SessionCfg::default();
    let mut out = Vec::new();
    let sink = FileRecordSink::new(records_out)?;
    match substrate {
        Substrate::Timeline => {
            let mut svc = ScheduleService::new(policy, AvailabilityTimeline::constant(machines));
            svc.set_drain_mode(mode);
            let mut retiring = RetiringService { svc, sink };
            serve_session(&mut retiring, &cfg, script.as_bytes(), &mut out).expect("in-memory I/O");
            retiring.sink.flush();
        }
        Substrate::Profile => {
            let mut svc = ScheduleService::new(policy, ResourceProfile::constant(machines));
            svc.set_drain_mode(mode);
            let mut retiring = RetiringService { svc, sink };
            serve_session(&mut retiring, &cfg, script.as_bytes(), &mut out).expect("in-memory I/O");
            retiring.sink.flush();
        }
    }
    Ok(String::from_utf8(out).expect("responses are UTF-8"))
}

/// Journal configuration as parsed from the CLI.
struct JournalOpts {
    path: String,
    fsync: FsyncPolicy,
    snapshot_every: u64,
}

/// Open (or create) the journal, recovering whatever it holds, and report
/// the recovery on **stderr** — stdout carries only protocol responses, so
/// golden transcripts stay byte-stable whether or not a journal rides
/// along.
fn open_journal(
    jo: &JournalOpts,
    machines: u32,
    policy: ReferencePolicy,
) -> Result<(OpJournal, Recovered), CliError> {
    let cfg = JournalCfg {
        fsync: jo.fsync,
        snapshot_every: jo.snapshot_every,
    };
    let (journal, recovered) =
        OpJournal::open(&jo.path, machines, policy, cfg).map_err(|e| CliError::Io {
            path: jo.path.clone(),
            message: e.to_string(),
        })?;
    if recovered.resumed {
        let torn = recovered
            .torn
            .as_ref()
            .map(|t| {
                format!(
                    " (torn tail of {} bytes discarded: {})",
                    t.dropped_bytes, t.reason
                )
            })
            .unwrap_or_default();
        eprintln!(
            "journal {}: recovered {} op record(s), {} snapshot record(s){torn}",
            jo.path, recovered.op_records, recovered.snapshot_records
        );
    }
    Ok((journal, recovered))
}

/// [`run_script`], but durable: recover the journal, replay it, serve the
/// script through a [`JournaledService`], and leave the journal ready for
/// the next resume.
fn run_script_journaled(
    script: &str,
    machines: u32,
    policy: ReferencePolicy,
    substrate: Substrate,
    mode: DrainMode,
    jo: &JournalOpts,
) -> Result<String, CliError> {
    let (journal, recovered) = open_journal(jo, machines, policy)?;
    let cfg = SessionCfg::default();
    let mut out = Vec::new();
    match substrate {
        Substrate::Timeline => {
            let svc = recovered.restore_service_with_mode(
                policy,
                AvailabilityTimeline::constant(machines),
                mode,
            );
            let mut journaled = JournaledService::new(svc, journal);
            serve_session(&mut journaled, &cfg, script.as_bytes(), &mut out)
                .expect("in-memory I/O");
        }
        Substrate::Profile => {
            let svc = recovered.restore_service_with_mode(
                policy,
                ResourceProfile::constant(machines),
                mode,
            );
            let mut journaled = JournaledService::new(svc, journal);
            serve_session(&mut journaled, &cfg, script.as_bytes(), &mut out)
                .expect("in-memory I/O");
        }
    }
    Ok(String::from_utf8(out).expect("responses are UTF-8"))
}

/// How the session's bytes reach the service.
enum Transport {
    Stdio,
    Script(String),
    Tcp(String),
    #[cfg(unix)]
    Unix(String),
}

/// `resa serve [options]`.
pub fn run(args: &[&str]) -> Result<Outcome, CliError> {
    if args.first() == Some(&"--help") {
        return Ok(Outcome {
            stdout: SERVE_HELP.to_string(),
            violations: 0,
        });
    }
    let mut machines: u32 = 16;
    let mut policy = ReferencePolicy::Easy;
    let mut substrate = Substrate::Timeline;
    let mut transport = Transport::Stdio;
    let mut token: Option<String> = None;
    let mut realtime = false;
    let mut journal_path: Option<String> = None;
    let mut fsync: Option<FsyncPolicy> = None;
    let mut snapshot_every: Option<u64> = None;
    let mut idle_timeout: Option<u64> = None;
    let mut drain_mode = DrainMode::Restart;
    let mut retire = false;
    let mut records_out: Option<String> = None;
    let opts = CommonOpts::parse(args, &mut |flag, value| {
        let take = |name: &str| -> Result<&str, CliError> {
            value.ok_or_else(|| CliError::Usage(format!("{name} expects a value")))
        };
        match flag {
            "--machines" => {
                machines = take("--machines")?
                    .parse()
                    .map_err(|_| CliError::Usage("--machines expects a positive integer".into()))?;
                if machines == 0 {
                    return Err(CliError::Usage("--machines must be at least 1".into()));
                }
                Ok(1)
            }
            "--policy" => {
                policy = match take("--policy")? {
                    "fcfs" => ReferencePolicy::Fcfs,
                    "easy" => ReferencePolicy::Easy,
                    "greedy" => ReferencePolicy::Greedy,
                    other => {
                        return Err(CliError::Usage(format!(
                            "unknown policy '{other}' (fcfs|easy|greedy)"
                        )))
                    }
                };
                Ok(1)
            }
            "--substrate" => {
                substrate = match take("--substrate")? {
                    "timeline" => Substrate::Timeline,
                    "profile" => Substrate::Profile,
                    other => {
                        return Err(CliError::Usage(format!(
                            "unknown substrate '{other}' (timeline|profile)"
                        )))
                    }
                };
                Ok(1)
            }
            "--script" => {
                transport = Transport::Script(take("--script")?.to_string());
                Ok(1)
            }
            "--listen" => {
                transport = Transport::Tcp(take("--listen")?.to_string());
                Ok(1)
            }
            "--unix" => {
                #[cfg(unix)]
                {
                    transport = Transport::Unix(take("--unix")?.to_string());
                    Ok(1)
                }
                #[cfg(not(unix))]
                Err(CliError::Usage(
                    "--unix is only available on Unix platforms".into(),
                ))
            }
            "--token" => {
                token = Some(take("--token")?.to_string());
                Ok(1)
            }
            "--realtime" => {
                realtime = true;
                Ok(0)
            }
            "--journal" => {
                journal_path = Some(take("--journal")?.to_string());
                Ok(1)
            }
            "--fsync" => {
                let text = take("--fsync")?;
                fsync = Some(FsyncPolicy::parse(text).ok_or_else(|| {
                    CliError::Usage(format!("unknown fsync policy '{text}' (every|batch|off)"))
                })?);
                Ok(1)
            }
            "--snapshot-every" => {
                let n: u64 = take("--snapshot-every")?.parse().map_err(|_| {
                    CliError::Usage("--snapshot-every expects a positive integer".into())
                })?;
                if n == 0 {
                    return Err(CliError::Usage(
                        "--snapshot-every must be at least 1".into(),
                    ));
                }
                snapshot_every = Some(n);
                Ok(1)
            }
            "--idle-timeout" => {
                idle_timeout = Some(take("--idle-timeout")?.parse().map_err(|_| {
                    CliError::Usage("--idle-timeout expects seconds (0 disables)".into())
                })?);
                Ok(1)
            }
            "--drain-mode" => {
                let text = take("--drain-mode")?;
                drain_mode = DrainMode::parse(text).ok_or_else(|| {
                    CliError::Usage(format!("unknown drain mode '{text}' (restart|checkpoint)"))
                })?;
                Ok(1)
            }
            "--retire" => {
                retire = true;
                Ok(0)
            }
            "--records-out" => {
                records_out = Some(take("--records-out")?.to_string());
                Ok(1)
            }
            other => Err(CliError::Usage(format!(
                "unknown option '{other}' (see `resa serve --help`)"
            ))),
        }
    })?;
    let socket_transport = match &transport {
        Transport::Tcp(_) => true,
        #[cfg(unix)]
        Transport::Unix(_) => true,
        _ => false,
    };
    if token.is_some() && !socket_transport {
        return Err(CliError::Usage(
            "--token requires a socket transport (--listen or --unix)".into(),
        ));
    }
    if realtime && matches!(transport, Transport::Script(_)) {
        return Err(CliError::Usage(
            "--realtime is incompatible with --script (script transcripts are deterministic)"
                .into(),
        ));
    }
    if journal_path.is_none() && (fsync.is_some() || snapshot_every.is_some()) {
        return Err(CliError::Usage(
            "--fsync and --snapshot-every require --journal".into(),
        ));
    }
    if idle_timeout.is_some() && !socket_transport {
        return Err(CliError::Usage(
            "--idle-timeout requires a socket transport (--listen or --unix)".into(),
        ));
    }
    if retire && socket_transport {
        return Err(CliError::Usage(
            "--retire requires a sequential transport (stdin or --script): the \
             concurrent backend publishes whole-history snapshots"
                .into(),
        ));
    }
    if retire && journal_path.is_some() {
        return Err(CliError::Usage(
            "--retire is incompatible with --journal: retired records leave the \
             process, so a recovery checkpoint could not capture the session"
                .into(),
        ));
    }
    if records_out.is_some() && !retire {
        return Err(CliError::Usage("--records-out requires --retire".into()));
    }
    let journal = journal_path.map(|path| JournalOpts {
        path,
        fsync: fsync.unwrap_or_default(),
        snapshot_every: snapshot_every.unwrap_or(1024),
    });
    let idle = match idle_timeout.unwrap_or(600) {
        0 => None,
        secs => Some(Duration::from_secs(secs)),
    };
    let cfg = SessionCfg {
        token,
        realtime: realtime.then(std::time::Instant::now),
    };
    match transport {
        Transport::Script(path) => {
            let script = std::fs::read_to_string(&path).map_err(|e| CliError::Io {
                path: path.clone(),
                message: e.to_string(),
            })?;
            let transcript = match (&journal, retire) {
                (None, false) => {
                    run_script_with_mode(&script, machines, policy, substrate, drain_mode)
                }
                (None, true) => run_script_retiring(
                    &script,
                    machines,
                    policy,
                    substrate,
                    drain_mode,
                    records_out.as_deref(),
                )?,
                (Some(jo), _) => {
                    run_script_journaled(&script, machines, policy, substrate, drain_mode, jo)?
                }
            };
            let mut stdout = transcript.clone();
            if let Some(note) = opts.persist(&transcript)? {
                stdout.push_str(&note);
                stdout.push('\n');
            }
            Ok(Outcome {
                stdout,
                violations: 0,
            })
        }
        Transport::Stdio => {
            let io_err = |e: std::io::Error| CliError::Io {
                path: "<session>".to_string(),
                message: e.to_string(),
            };
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            if retire {
                let sink = FileRecordSink::new(records_out.as_deref())?;
                match substrate {
                    Substrate::Timeline => {
                        let mut svc =
                            ScheduleService::new(policy, AvailabilityTimeline::constant(machines));
                        svc.set_drain_mode(drain_mode);
                        let mut retiring = RetiringService { svc, sink };
                        serve_session(&mut retiring, &cfg, stdin.lock(), stdout.lock())
                            .map_err(io_err)?;
                        retiring.sink.flush();
                    }
                    Substrate::Profile => {
                        let mut svc =
                            ScheduleService::new(policy, ResourceProfile::constant(machines));
                        svc.set_drain_mode(drain_mode);
                        let mut retiring = RetiringService { svc, sink };
                        serve_session(&mut retiring, &cfg, stdin.lock(), stdout.lock())
                            .map_err(io_err)?;
                        retiring.sink.flush();
                    }
                }
                return Ok(Outcome {
                    stdout: String::new(),
                    violations: 0,
                });
            }
            match (substrate, &journal) {
                (Substrate::Timeline, None) => {
                    let mut svc =
                        ScheduleService::new(policy, AvailabilityTimeline::constant(machines));
                    svc.set_drain_mode(drain_mode);
                    serve_session(&mut svc, &cfg, stdin.lock(), stdout.lock()).map_err(io_err)?;
                }
                (Substrate::Profile, None) => {
                    let mut svc = ScheduleService::new(policy, ResourceProfile::constant(machines));
                    svc.set_drain_mode(drain_mode);
                    serve_session(&mut svc, &cfg, stdin.lock(), stdout.lock()).map_err(io_err)?;
                }
                (Substrate::Timeline, Some(jo)) => {
                    let (j, rec) = open_journal(jo, machines, policy)?;
                    let svc = rec.restore_service_with_mode(
                        policy,
                        AvailabilityTimeline::constant(machines),
                        drain_mode,
                    );
                    let mut journaled = JournaledService::new(svc, j);
                    serve_session(&mut journaled, &cfg, stdin.lock(), stdout.lock())
                        .map_err(io_err)?;
                }
                (Substrate::Profile, Some(jo)) => {
                    let (j, rec) = open_journal(jo, machines, policy)?;
                    let svc = rec.restore_service_with_mode(
                        policy,
                        ResourceProfile::constant(machines),
                        drain_mode,
                    );
                    let mut journaled = JournaledService::new(svc, j);
                    serve_session(&mut journaled, &cfg, stdin.lock(), stdout.lock())
                        .map_err(io_err)?;
                }
            }
            Ok(Outcome {
                stdout: String::new(),
                violations: 0,
            })
        }
        Transport::Tcp(addr) => {
            let listener = std::net::TcpListener::bind(&addr).map_err(|e| CliError::Io {
                path: addr.clone(),
                message: e.to_string(),
            })?;
            serve_listener(
                machines,
                policy,
                substrate,
                drain_mode,
                cfg,
                AnyListener::Tcp(listener),
                journal,
                idle,
            )?;
            Ok(Outcome {
                stdout: String::new(),
                violations: 0,
            })
        }
        #[cfg(unix)]
        Transport::Unix(path) => {
            let _ = std::fs::remove_file(&path);
            let listener =
                std::os::unix::net::UnixListener::bind(&path).map_err(|e| CliError::Io {
                    path: path.clone(),
                    message: e.to_string(),
                })?;
            serve_listener(
                machines,
                policy,
                substrate,
                drain_mode,
                cfg,
                AnyListener::Unix(listener),
                journal,
                idle,
            )?;
            Ok(Outcome {
                stdout: String::new(),
                violations: 0,
            })
        }
    }
}

/// A buffered reader / writer pair for one accepted connection, `Send` so
/// the session can move to its own thread.
type BoxedSession = (Box<dyn BufRead + Send>, Box<dyn Write + Send>);

/// The socket listeners behind `--listen` / `--unix`, polled non-blocking
/// so the accept loop can observe the shutdown flag.
enum AnyListener {
    Tcp(std::net::TcpListener),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener),
}

impl AnyListener {
    fn set_nonblocking(&self) -> std::io::Result<()> {
        match self {
            AnyListener::Tcp(l) => l.set_nonblocking(true),
            #[cfg(unix)]
            AnyListener::Unix(l) => l.set_nonblocking(true),
        }
    }

    /// Accept one connection. `idle` becomes the socket's read timeout: a
    /// session that sends nothing for that long is closed with a
    /// structured timeout line instead of pinning its thread forever.
    fn accept(&self, idle: Option<Duration>) -> std::io::Result<BoxedSession> {
        match self {
            AnyListener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                // Accepted sockets must block normally regardless of what
                // the platform inherits from the listener.
                stream.set_nonblocking(false)?;
                stream.set_read_timeout(idle)?;
                let reader = std::io::BufReader::new(stream.try_clone()?);
                Ok((Box::new(reader), Box::new(stream)))
            }
            #[cfg(unix)]
            AnyListener::Unix(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(false)?;
                stream.set_read_timeout(idle)?;
                let reader = std::io::BufReader::new(stream.try_clone()?);
                Ok((Box::new(reader), Box::new(stream)))
            }
        }
    }
}

/// Instantiate the resident service on the chosen substrate — recovering
/// from and journaling into `journal` when given — and serve the listener
/// concurrently until a session issues `shutdown`.
#[allow(clippy::too_many_arguments)]
fn serve_listener(
    machines: u32,
    policy: ReferencePolicy,
    substrate: Substrate,
    mode: DrainMode,
    cfg: SessionCfg,
    listener: AnyListener,
    journal: Option<JournalOpts>,
    idle: Option<Duration>,
) -> Result<(), CliError> {
    match substrate {
        Substrate::Timeline => {
            let front = match &journal {
                Some(jo) => {
                    let (j, rec) = open_journal(jo, machines, policy)?;
                    let svc = rec.restore_service_with_mode(
                        policy,
                        AvailabilityTimeline::constant(machines),
                        mode,
                    );
                    ConcurrentService::with_journal(svc, j)
                }
                None => {
                    let mut svc =
                        ScheduleService::new(policy, AvailabilityTimeline::constant(machines));
                    svc.set_drain_mode(mode);
                    ConcurrentService::new(svc)
                }
            };
            serve_concurrent(front, cfg, listener, idle)
        }
        Substrate::Profile => {
            let front = match &journal {
                Some(jo) => {
                    let (j, rec) = open_journal(jo, machines, policy)?;
                    let svc = rec.restore_service_with_mode(
                        policy,
                        ResourceProfile::constant(machines),
                        mode,
                    );
                    ConcurrentService::with_journal(svc, j)
                }
                None => {
                    let mut svc = ScheduleService::new(policy, ResourceProfile::constant(machines));
                    svc.set_drain_mode(mode);
                    ConcurrentService::new(svc)
                }
            };
            serve_concurrent(front, cfg, listener, idle)
        }
    }
}

/// Accept connections concurrently against one shared [`ConcurrentService`],
/// one thread per session. A client that drops mid-session (broken pipe,
/// connection reset) ends only its own session; a failing `accept` (e.g. fd
/// exhaustion) backs off briefly instead of spinning hot. Returns once any
/// session issues `shutdown`: the listener stops accepting, the writer
/// thread is joined, and remaining sessions die with the process.
fn serve_concurrent<C>(
    service: ConcurrentService<C>,
    cfg: SessionCfg,
    listener: AnyListener,
    idle: Option<Duration>,
) -> Result<(), CliError>
where
    C: Snapshotable + Send + 'static,
{
    listener.set_nonblocking().map_err(|e| CliError::Io {
        path: "<listener>".to_string(),
        message: e.to_string(),
    })?;
    let stop = Arc::new(AtomicBool::new(false));
    let cfg = Arc::new(cfg);
    while !stop.load(Ordering::SeqCst) {
        match listener.accept(idle) {
            Ok((mut reader, mut writer)) => {
                let mut client = service.client();
                let stop = Arc::clone(&stop);
                let cfg = Arc::clone(&cfg);
                std::thread::spawn(move || {
                    // Err means the client dropped mid-session: that ends
                    // its own session only.
                    if let Ok(true) = serve_session(&mut client, &cfg, &mut reader, &mut writer) {
                        stop.store(true, Ordering::SeqCst);
                    }
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(50)),
        }
    }
    // Dropping the front stops and joins the single writer; the final state
    // dies with the process, like the sequential transports.
    drop(service);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A session that outlives the writer (another session's `shutdown`
    /// raced its request) gets a structured error for `snapshot`, the one
    /// read that needs the writer — never a panic or a hang.
    #[test]
    fn snapshot_after_the_writer_stopped_is_a_structured_error() {
        let front = ConcurrentService::new(ScheduleService::new(
            ReferencePolicy::Easy,
            AvailabilityTimeline::constant(4),
        ));
        let mut client = front.client();
        handle(&mut client, r#"{"op":"submit","width":2,"duration":3}"#);
        let (line, _) = handle(&mut client, r#"{"op":"snapshot"}"#);
        assert!(line.starts_with(r#"{"ok":true,"op":"snapshot","now":0,"#));
        front.shutdown();
        let (line, done) = handle(&mut client, r#"{"op":"snapshot","since":0}"#);
        assert_eq!(
            line,
            r#"{"ok":false,"op":"snapshot","error":"service writer has shut down"}"#
        );
        assert!(!done);
    }
}
