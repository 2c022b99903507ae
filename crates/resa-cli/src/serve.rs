//! `resa serve` — the resident scheduling service.
//!
//! The on-line counterpart of `resa replay`: instead of replaying a complete
//! trace, the process keeps a [`ScheduleService`] (a live
//! `Simulator`-equivalent decision loop over a resident
//! [`AvailabilityTimeline`]) and answers a line-delimited JSON request
//! protocol — over stdin/stdout by default, over a TCP or Unix socket with
//! `--listen` / `--unix`, or against a checked-in script with `--script`
//! (which is how the golden tests and the CI smoke drive it
//! deterministically).
//!
//! # One path
//!
//! A request line is parsed into an [`Op`] ([`protocol`]), applied through
//! the one-method [`Session`] trait, and its [`Reply`] rendered back. What
//! a transport and its options choose is only *which* session that is: the
//! sequential [`ScheduleService`] itself, wrapped by a [`JournaledService`]
//! under `--journal` or by the `RetiringService` under `--retire`, or —
//! on the socket transports — one [`ServiceClient`] per connection. All of
//! them end in [`ScheduleService::apply`], the only place an op is mapped
//! onto a service method. Blank lines and `#` comments are ignored, so
//! request scripts can be annotated.
//!
//! # Concurrency
//!
//! The socket transports (`--listen` / `--unix`) accept any number of
//! concurrent connections, one thread per session, all sharing one
//! resident state through [`ConcurrentService`]: mutating ops funnel into
//! the single writer thread (which applies them in batches — the arrival
//! order at the writer is the serial order of the service), while `query` /
//! `stats` are answered on the session's own thread from the latest
//! published snapshot. Snapshots are republished *before* write replies
//! are delivered, so every session reads its own writes — a single-client
//! conversation is byte-identical to a sequential one, which is what keeps
//! the golden transcripts transport-independent. Stdin and
//! `--script` sessions are single-client by construction and run the
//! sequential service directly.
//!
//! Two socket-facing options ride along: `--token <secret>` demands a
//! `{"op":"auth","token":…}` first request per connection (anything else is
//! answered with a structured error and the connection is closed), and
//! `--realtime` ticks virtual time to the wall clock (1 tick = 1 ms since
//! server start) before each request — `--script` rejects `--realtime`, so
//! checked-in transcripts stay deterministic.

pub mod protocol;

use crate::opts::CommonOpts;
use crate::{CliError, Outcome};
use protocol::{check_auth, error_response, handle, to_line};
use resa_core::prelude::*;
use resa_sim::prelude::*;
use serde::Serialize;
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
    --script <file>       read requests from <file> instead of stdin and print
                          the transcript (one response line per request line)
    --listen <addr>       serve a TCP socket (e.g. 127.0.0.1:7077); concurrent
                          sessions share the same resident state (single-writer
                          batching, snapshot-isolated reads)
    --unix <path>         serve a Unix domain socket at <path>, same concurrency;
                          a stale socket left by a killed server is replaced,
                          anything else already at <path> is an error
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
                          request, or blocked on a peer that does not read its
                          answers (0 disables; --listen/--unix) [default: 600]
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

/// Record sink of a `--retire` session: counts every retired record and,
/// with `--records-out`, appends each as one JSON line. A write or flush
/// error is reported once on stderr and disables the writer — the session
/// keeps serving (the records were already applied to the merged metrics).
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

    /// Run one write step against the file, if it is still open; its first
    /// error is reported and closes the file.
    fn write(
        &mut self,
        step: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
    ) {
        if let Some(Err(e)) = self.out.as_mut().map(step) {
            eprintln!(
                "--records-out {}: {e}; further records are dropped",
                self.path
            );
            self.out = None;
        }
    }

    /// `BufWriter` surfaces most write failures only here.
    fn flush(&mut self) {
        self.write(|w| w.flush());
    }
}

impl RecordSink for FileRecordSink {
    fn record(&mut self, rec: JobRecord) {
        self.written += 1;
        self.write(|w| writeln!(w, "{}", to_line(&rec.to_value())));
    }
}

/// A sequential [`ScheduleService`] that retires completed jobs into a
/// [`FileRecordSink`] after every time-advancing request (`--retire`), so a
/// long-running session's resident set tracks the *active* jobs. Snapshot
/// metrics stay bit-identical to a never-retired session; the retired
/// records leave through the sink and via `snapshot`+`since` pagination
/// before they go.
struct RetiringService {
    svc: ScheduleService<AvailabilityTimeline>,
    sink: FileRecordSink,
}

impl Session for RetiringService {
    fn apply(&mut self, op: &Op) -> WriteReply {
        let reply = Session::apply(&mut self.svc, op);
        // Completions only drain when an op moves the clock.
        let clock = matches!(
            op,
            Op::Advance { .. } | Op::AdvanceClamped { .. } | Op::Drain
        );
        if clock && self.svc.retire_completed(&mut self.sink) > 0 {
            self.sink.flush();
        }
        reply
    }

    fn policy(&self) -> ReferencePolicy {
        self.svc.policy()
    }
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
fn serve_session<S: Session + ?Sized>(
    svc: &mut S,
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
            let _ = svc.apply(&Op::AdvanceClamped { to: Time(ms) });
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
// Kept with this signature for `benchmark/layers`.
pub fn run_script(
    script: &str,
    machines: u32,
    policy: ReferencePolicy,
    _substrate: crate::replay::Substrate,
) -> String {
    let plan = Plan {
        machines,
        policy,
        drain_mode: DrainMode::default(),
        journal: None,
        retire: false,
        records_out: None,
        cfg: SessionCfg::default(),
        idle: None,
    };
    plan.serve(Io::Script(script))
        .expect("a plain script session touches no file")
}

/// Everything `resa serve` was asked for except where the bytes come from.
struct Plan {
    machines: u32,
    policy: ReferencePolicy,
    drain_mode: DrainMode,
    /// `--journal <file>` with its `--fsync` / `--snapshot-every`.
    journal: Option<(String, JournalCfg)>,
    retire: bool,
    records_out: Option<String>,
    cfg: SessionCfg,
    idle: Option<Duration>,
}

/// Where a session's bytes come from, once files are read and sockets bound.
enum Io<'a> {
    Stdio,
    Script(&'a str),
    Listener(AnyListener),
}

impl Plan {
    /// Build the resident service on the timeline — recovered from the
    /// journal when one is given — pick the [`Session`] the options ask
    /// for, and run the transport against it. Returns the transcript of a
    /// script session (empty for the other transports).
    fn serve(self, io: Io<'_>) -> Result<String, CliError> {
        let substrate = AvailabilityTimeline::constant(self.machines);
        let (svc, journal) = match &self.journal {
            Some((path, cfg)) => {
                let (journal, recovered) = open_journal(path, *cfg, self.machines, self.policy)?;
                let svc =
                    recovered.restore_service_with_mode(self.policy, substrate, self.drain_mode);
                (svc, Some(journal))
            }
            None => {
                let mut svc = ScheduleService::new(self.policy, substrate);
                svc.set_drain_mode(self.drain_mode);
                (svc, None)
            }
        };
        // The session the options ask for, on the sequential transports.
        let sequential = |svc, journal| -> Result<Box<dyn Session>, CliError> {
            Ok(match journal {
                Some(journal) => Box::new(JournaledService::new(svc, journal)),
                None if self.retire => Box::new(RetiringService {
                    svc,
                    sink: FileRecordSink::new(self.records_out.as_deref())?,
                }),
                None => Box::new(svc),
            })
        };
        match io {
            Io::Listener(listener) => {
                let front = match journal {
                    Some(journal) => ConcurrentService::with_journal(svc, journal),
                    None => ConcurrentService::new(svc),
                };
                serve_concurrent(front, self.cfg, listener, self.idle)?;
                Ok(String::new())
            }
            Io::Script(script) => {
                let (mut session, mut transcript) = (sequential(svc, journal)?, Vec::new());
                serve_session(&mut *session, &self.cfg, script.as_bytes(), &mut transcript)
                    .expect("in-memory I/O");
                Ok(String::from_utf8(transcript).expect("responses are UTF-8"))
            }
            Io::Stdio => {
                let mut session = sequential(svc, journal)?;
                let (stdin, stdout) = (std::io::stdin().lock(), std::io::stdout().lock());
                serve_session(&mut *session, &self.cfg, stdin, stdout).map_err(|e| {
                    CliError::Io {
                        path: "<session>".to_string(),
                        message: e.to_string(),
                    }
                })?;
                Ok(String::new())
            }
        }
    }
}

/// Open (or create) the journal, recovering whatever it holds, and report
/// the recovery on **stderr** — stdout carries only protocol responses, so
/// golden transcripts stay byte-stable whether or not a journal rides
/// along.
fn open_journal(
    path: &str,
    cfg: JournalCfg,
    machines: u32,
    policy: ReferencePolicy,
) -> Result<(OpJournal, Recovered), CliError> {
    let (journal, recovered) =
        OpJournal::open(path, machines, policy, cfg).map_err(|e| CliError::Io {
            path: path.to_string(),
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
            "journal {path}: recovered {} op record(s), {} snapshot record(s){torn}",
            recovered.op_records, recovered.snapshot_records
        );
    }
    Ok((journal, recovered))
}

/// The transport the command line names.
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
             shared writer of the socket transports has no record sink to retire into"
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
    let plan = Plan {
        machines,
        policy,
        drain_mode,
        journal: journal_path.map(|path| {
            let cfg = JournalCfg {
                fsync: fsync.unwrap_or_default(),
                snapshot_every: snapshot_every.unwrap_or(1024),
            };
            (path, cfg)
        }),
        retire,
        records_out,
        cfg: SessionCfg {
            token,
            realtime: realtime.then(std::time::Instant::now),
        },
        idle: match idle_timeout.unwrap_or(600) {
            0 => None,
            secs => Some(Duration::from_secs(secs)),
        },
    };
    let bind_err = |path: &str, e: std::io::Error| CliError::Io {
        path: path.to_string(),
        message: e.to_string(),
    };
    let mut stdout = String::new();
    match transport {
        Transport::Script(path) => {
            let script = std::fs::read_to_string(&path).map_err(|e| bind_err(&path, e))?;
            stdout = plan.serve(Io::Script(&script))?;
            if let Some(note) = opts.persist(&stdout)? {
                stdout.push_str(&note);
                stdout.push('\n');
            }
        }
        Transport::Stdio => {
            plan.serve(Io::Stdio)?;
        }
        Transport::Tcp(addr) => {
            let listener = std::net::TcpListener::bind(&addr).map_err(|e| bind_err(&addr, e))?;
            plan.serve(Io::Listener(AnyListener::Tcp(listener)))?;
        }
        #[cfg(unix)]
        Transport::Unix(path) => {
            let listener = bind_unix(&path).map_err(|e| bind_err(&path, e))?;
            let served = plan.serve(Io::Listener(AnyListener::Unix(listener)));
            // The socket file is this process's: leave none behind.
            let _ = std::fs::remove_file(&path);
            served?;
        }
    }
    Ok(Outcome {
        stdout,
        violations: 0,
    })
}

/// Bind `--unix <path>` without destroying what is already there. Only a
/// *stale* socket — one nobody answers on, as a killed server leaves behind
/// — is unlinked and replaced; a socket another process still serves, or
/// anything that is not a socket, is an error and stays untouched.
#[cfg(unix)]
fn bind_unix(path: &str) -> std::io::Result<std::os::unix::net::UnixListener> {
    use std::io::{Error, ErrorKind};
    use std::os::unix::fs::FileTypeExt;
    use std::os::unix::net::{UnixListener, UnixStream};
    match std::fs::symlink_metadata(path) {
        Err(e) if e.kind() == ErrorKind::NotFound => {}
        Err(e) => return Err(e),
        Ok(meta) if !meta.file_type().is_socket() => {
            return Err(Error::new(
                ErrorKind::AlreadyExists,
                "exists and is not a socket",
            ));
        }
        Ok(_) => match UnixStream::connect(path) {
            Ok(_) => {
                return Err(Error::new(
                    ErrorKind::AddrInUse,
                    "another process is serving this socket",
                ));
            }
            Err(e) if e.kind() == ErrorKind::ConnectionRefused => std::fs::remove_file(path)?,
            Err(e) => return Err(e),
        },
    }
    UnixListener::bind(path)
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

    /// Accept one connection. `idle` becomes the socket's read timeout — a
    /// session that sends nothing for that long is closed with a
    /// structured timeout line instead of pinning its thread forever — and
    /// its write timeout: a peer that stops reading its answers fails the
    /// blocked `send_line` after that long, which ends that session only.
    fn accept(&self, idle: Option<Duration>) -> std::io::Result<BoxedSession> {
        match self {
            AnyListener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                // Accepted sockets must block normally regardless of what
                // the platform inherits from the listener.
                stream.set_nonblocking(false)?;
                stream.set_read_timeout(idle)?;
                stream.set_write_timeout(idle)?;
                let reader = std::io::BufReader::new(stream.try_clone()?);
                Ok((Box::new(reader), Box::new(stream)))
            }
            #[cfg(unix)]
            AnyListener::Unix(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(false)?;
                stream.set_read_timeout(idle)?;
                stream.set_write_timeout(idle)?;
                let reader = std::io::BufReader::new(stream.try_clone()?);
                Ok((Box::new(reader), Box::new(stream)))
            }
        }
    }
}

/// Accept connections concurrently against one shared [`ConcurrentService`],
/// one thread per session. A client that drops mid-session (broken pipe,
/// connection reset) ends only its own session; a failing `accept` (e.g. fd
/// exhaustion) backs off briefly instead of spinning hot. Returns once any
/// session issues `shutdown`: the listener stops accepting, the writer
/// thread is joined, and remaining sessions die with the process.
fn serve_concurrent(
    service: ConcurrentService<AvailabilityTimeline>,
    cfg: SessionCfg,
    listener: AnyListener,
    idle: Option<Duration>,
) -> Result<(), CliError> {
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
    use crate::replay::Substrate;

    /// The transcript of `script` served by the sequential service on the
    /// naive `ResourceProfile` — the substrate `run_script` never builds.
    fn profile_transcript(script: &str, machines: u32, policy: ReferencePolicy) -> String {
        let mut svc = ScheduleService::new(policy, ResourceProfile::constant(machines));
        let mut transcript = Vec::new();
        serve_session(
            &mut svc,
            &SessionCfg::default(),
            script.as_bytes(),
            &mut transcript,
        )
        .expect("in-memory I/O");
        String::from_utf8(transcript).expect("responses are UTF-8")
    }

    /// The checked-in session `name` answers byte for byte the same on the
    /// timeline (`run_script`) and on the profile, under every policy: the
    /// serve-side face of the substrate equivalence properties.
    fn assert_byte_stable_across_substrates(name: &str) {
        let path = format!("{}/../../examples/{name}", env!("CARGO_MANIFEST_DIR"));
        let script = std::fs::read_to_string(path).expect("checked-in session script");
        for policy in [
            ReferencePolicy::Fcfs,
            ReferencePolicy::Easy,
            ReferencePolicy::Greedy,
        ] {
            assert_eq!(
                run_script(&script, 8, policy, Substrate::Timeline),
                profile_transcript(&script, 8, policy),
                "{name} diverged between substrates under {}",
                policy.name()
            );
        }
    }

    #[test]
    fn session_transcript_is_byte_stable_across_substrates() {
        assert_byte_stable_across_substrates("serve_session.jsonl");
    }

    #[test]
    fn scenario_transcript_is_byte_stable_across_substrates() {
        assert_byte_stable_across_substrates("scenario_session.jsonl");
    }

    /// snapshot → query → snapshot on the profile: the probe must not change
    /// the snapshot or the stats (`tests/serve_session.rs` pins the same on
    /// the timeline).
    #[test]
    fn query_probe_is_pure_on_the_profile() {
        let script = "\
{\"op\":\"reserve\",\"width\":3,\"duration\":10,\"start\":2}\n\
{\"op\":\"submit\",\"width\":2,\"duration\":4}\n\
{\"op\":\"snapshot\"}\n{\"op\":\"stats\"}\n\
{\"op\":\"query\",\"width\":4,\"duration\":5}\n\
{\"op\":\"snapshot\"}\n{\"op\":\"stats\"}\n";
        let transcript = profile_transcript(script, 4, ReferencePolicy::Easy);
        let lines: Vec<&str> = transcript.lines().collect();
        assert_eq!(lines.len(), 7, "{transcript}");
        assert_eq!(lines[2], lines[5], "query mutated the snapshot");
        assert_eq!(lines[3], lines[6], "query mutated the stats");
        assert!(lines[4].contains("\"start\":12"), "{}", lines[4]);
    }

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
