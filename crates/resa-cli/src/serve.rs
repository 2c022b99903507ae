//! `resa serve` — the resident scheduling service.
//!
//! The on-line counterpart of `resa replay`: instead of replaying a complete
//! trace, the process keeps a [`ScheduleService`] (a live
//! `Simulator`-equivalent decision loop over a resident
//! [`AvailabilityTimeline`]) and answers a line-delimited JSON request
//! protocol — over stdin/stdout by default, over a TCP or Unix socket with
//! `--listen` / `--unix`, or against a checked-in script with `--script`
//! (which is how the golden tests drive it deterministically).
//!
//! # One path
//!
//! A request line is parsed into an [`Op`] (`protocol`), applied through
//! the one-method [`Session`] trait, and its [`Reply`] rendered back. Every
//! transport runs the same stack: one [`ConcurrentService`] — journaled
//! under `--journal`, retiring into a record sink under `--retire` — and
//! one [`ServiceClient`] of it per session: the single session of stdin or
//! `--script`, or each socket connection. The front ends in
//! [`ScheduleService::apply`], the only place an op is mapped onto a
//! service method. Blank lines and `#` comments are ignored, so request
//! scripts can be annotated.
//!
//! # Concurrency
//!
//! The socket transports (`--listen` / `--unix`) accept any number of
//! concurrent connections, one thread per session, all sharing the one
//! front: mutating ops join one pending queue, and the session thread
//! holding the write lock applies them in batches (the queue order is the
//! serial order of the service; each thread writes its own reply after
//! releasing the lock), while `query` / `stats` are answered on the
//! session's own thread from the latest published snapshot. Snapshots are
//! republished *before* write replies are delivered, so every session reads
//! its own writes — a single-client conversation, which is all stdin and
//! `--script` ever hold, answers byte for byte like the sequential service,
//! which is what keeps the golden transcripts transport-independent.
//!
//! Two socket-facing options ride along: `--token <secret>` demands a
//! `{"op":"auth","token":…}` first request per connection (anything else is
//! answered with a structured error and the connection is closed), and
//! `--realtime` ticks virtual time to the wall clock (1 tick = 1 ms since
//! server start) before each request — `--script` rejects `--realtime`, so
//! checked-in transcripts stay deterministic.

pub(crate) mod protocol;

use crate::opts::{Command, CommonOpts, Parsed, Switch, Text};
use crate::replay::PolicyArg;
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
                          bit-exactly). Every transport; with --journal,
                          re-supply it at recovery like --drain-mode
    --records-out <file>  with --retire, write each retired job record to
                          <file> as one JSON line; a --journal restart appends
                          to it, and it holds each retired job at most once
                          across a crash

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

/// The `--records-out` sink of a `--retire` session: each retired record
/// becomes one JSON line, held in memory until the front flushes the batch
/// that retired it — after the batch's journal seal — so the file never
/// holds a record whose retirement a crash could undo. A write error is
/// reported once on stderr and closes the file; the session keeps serving
/// (the records were already folded into the merged metrics).
struct FileRecordSink {
    out: Option<std::fs::File>,
    path: String,
    pending: Vec<u8>,
}

impl FileRecordSink {
    /// Open `path`, appending when a journal resumed the session (the file
    /// holds the records retired before the restart), truncating otherwise.
    fn open(path: &str, resumed: bool) -> Result<Self, CliError> {
        let out = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .append(resumed)
            .truncate(!resumed)
            .open(path)
            .map_err(|e| CliError::io(path, e))?;
        Ok(FileRecordSink {
            out: Some(out),
            path: path.to_string(),
            pending: Vec::new(),
        })
    }
}

impl RecordSink for FileRecordSink {
    fn record(&mut self, rec: JobRecord) {
        if self.out.is_some() {
            self.pending
                .extend_from_slice(to_line(&rec.to_value()).as_bytes());
            self.pending.push(b'\n');
        }
    }

    fn flush(&mut self) {
        if let Some(Err(e)) = self.out.as_mut().map(|f| f.write_all(&self.pending)) {
            eprintln!(
                "--records-out {}: {e}; further records are dropped",
                self.path
            );
            self.out = None;
        }
        self.pending.clear();
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

/// Write `line` and its newline in one `write` (a socket is unbuffered: two
/// writes would be two syscalls, and the peer could wake on half a line).
fn send_line(writer: &mut impl Write, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())?;
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
                    error_response(None, "idle timeout: closing session"),
                );
                return Ok(false);
            }
            LineRead::Overflow { discarded } => {
                send_line(
                    &mut writer,
                    error_response(
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
                error_response(None, "request line is not valid UTF-8"),
            )?;
            continue;
        };
        let trimmed = text.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if !authed {
            let (response, pass) = check_auth(cfg.token.as_deref().unwrap_or(""), trimmed);
            send_line(&mut writer, response)?;
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
        send_line(&mut writer, response)?;
        if done {
            return Ok(true);
        }
    }
}

/// Drive a whole request script in-process and return the transcript. This
/// is the deterministic face the golden tests use: one
/// client of a fresh front, never realtime, never token-guarded.
// Kept with this signature for `benchmark/layers`.
pub fn run_script(
    script: &str,
    machines: u32,
    policy: ReferencePolicy,
    _substrate: crate::replay::Substrate,
) -> String {
    let plan = Plan {
        machines: Some(machines),
        policy: Some(policy),
        ..Plan::default()
    };
    plan.serve(Io::Script(script))
        .expect("a plain script session touches no file")
}

/// Everything `resa serve` was asked for: what its option table sets.
#[derive(Default)]
pub(crate) struct Plan {
    machines: Option<u32>,
    policy: Option<ReferencePolicy>,
    drain_mode: DrainMode,
    transport: Transport,
    /// `--journal <file>`, with its `--fsync` / `--snapshot-every`.
    journal: Option<String>,
    fsync: Option<FsyncPolicy>,
    snapshot_every: Option<u64>,
    retire: bool,
    records_out: Option<String>,
    token: Option<String>,
    realtime: bool,
    idle_timeout: Option<u64>,
}

/// Where a session's bytes come from, once files are read and sockets bound.
enum Io<'a> {
    Stdio,
    Script(&'a str),
    Listener(AnyListener),
}

impl Plan {
    /// Build the one [`ConcurrentService`] on the timeline — recovered
    /// from the journal when one is given, retiring under `--retire` — and
    /// run the transport against it: stdin and a script are one client of
    /// it, a listener one client per connection. Returns the transcript of
    /// a script session (empty for the other transports).
    fn serve(self, io: Io<'_>) -> Result<String, CliError> {
        let machines = self.machines.unwrap_or(16);
        let policy = self.policy.unwrap_or(ReferencePolicy::Easy);
        let substrate = AvailabilityTimeline::constant(machines);
        let (front, resumed) = match &self.journal {
            Some(path) => {
                let cfg = JournalCfg {
                    fsync: self.fsync.unwrap_or_default(),
                    snapshot_every: self.snapshot_every.unwrap_or(1024),
                };
                let (journal, recovered) = open_journal(path, cfg, machines, policy)?;
                let svc = recovered.restore_service_with_mode(
                    policy,
                    substrate,
                    self.drain_mode,
                    self.retire,
                );
                (
                    ConcurrentService::with_journal(svc, journal),
                    recovered.resumed,
                )
            }
            None => {
                let mut svc = ScheduleService::new(policy, substrate);
                svc.set_drain_mode(self.drain_mode);
                (ConcurrentService::new(svc), false)
            }
        };
        let front = match (self.retire, &self.records_out) {
            (false, _) => front,
            (true, Some(path)) => front.retiring(Box::new(FileRecordSink::open(path, resumed)?)),
            (true, None) => front.retiring(Box::new(DiscardSink::default())),
        };
        let cfg = SessionCfg {
            token: self.token,
            realtime: self.realtime.then(std::time::Instant::now),
        };
        let mut transcript = Vec::new();
        let served = match io {
            Io::Listener(listener) => {
                let idle = Some(self.idle_timeout.unwrap_or(600)).filter(|&secs| secs > 0);
                serve_concurrent(front, cfg, listener, idle.map(Duration::from_secs))?;
                return Ok(String::new());
            }
            Io::Script(script) => serve_session(
                &mut front.client(),
                &cfg,
                script.as_bytes(),
                &mut transcript,
            ),
            Io::Stdio => {
                let (stdin, stdout) = (std::io::stdin().lock(), std::io::stdout().lock());
                serve_session(&mut front.client(), &cfg, stdin, stdout)
            }
        };
        served.map_err(|e| CliError::io("<session>", e))?;
        Ok(String::from_utf8(transcript).expect("responses are UTF-8"))
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
        OpJournal::open(path, machines, policy, cfg).map_err(|e| CliError::io(path, e))?;
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
#[derive(Default)]
enum Transport {
    #[default]
    Stdio,
    Script(String),
    Tcp(String),
    #[cfg(unix)]
    Unix(String),
}

/// `resa serve`'s option table.
pub(crate) const SERVE: Command<Plan> = Command {
    help: SERVE_HELP,
    page: Some("serve"),
    positional: None,
    missing: None,
    flags: &[
        Parsed("--machines <m>", |a, v| {
            v.positive().map(|m| a.machines = Some(m))
        }),
        Parsed("--policy <name>", |a, v| {
            let Ok(PolicyArg::Online(kind)) = PolicyArg::parse(v.text) else {
                let name = v.text;
                return Err(CliError::Usage(format!(
                    "unknown policy '{name}' (fcfs|easy|greedy)"
                )));
            };
            a.policy = Some(kind);
            Ok(())
        }),
        Parsed("--script <file>", |a, v| {
            a.transport = Transport::Script(v.text.to_string());
            Ok(())
        }),
        Parsed("--listen <addr>", |a, v| {
            a.transport = Transport::Tcp(v.text.to_string());
            Ok(())
        }),
        Parsed("--unix <path>", |a, v| {
            #[cfg(unix)]
            {
                a.transport = Transport::Unix(v.text.to_string());
                Ok(())
            }
            #[cfg(not(unix))]
            Err(CliError::Usage(
                "--unix is only available on Unix platforms".into(),
            ))
        }),
        Text("--token <secret>", |a| &mut a.token),
        Switch("--realtime", |a| &mut a.realtime),
        Text("--journal <file>", |a| &mut a.journal),
        Parsed("--fsync <policy>", |a, v| {
            let text = v.text;
            a.fsync = Some(FsyncPolicy::parse(text).ok_or_else(|| {
                CliError::Usage(format!("unknown fsync policy '{text}' (every|batch|off)"))
            })?);
            Ok(())
        }),
        Parsed("--snapshot-every <n>", |a, v| {
            v.positive().map(|n| a.snapshot_every = Some(n))
        }),
        Parsed("--idle-timeout <s>", |a, v| {
            v.parse("seconds (0 disables)")
                .map(|s| a.idle_timeout = Some(s))
        }),
        Parsed("--drain-mode <m>", |a, v| {
            let text = v.text;
            a.drain_mode = DrainMode::parse(text).ok_or_else(|| {
                CliError::Usage(format!("unknown drain mode '{text}' (restart|checkpoint)"))
            })?;
            Ok(())
        }),
        Switch("--retire", |a| &mut a.retire),
        Text("--records-out <file>", |a| &mut a.records_out),
    ],
};

/// `resa serve [options]`.
pub fn run(args: &[&str]) -> Result<Outcome, CliError> {
    SERVE.run(args, serve)
}

fn serve(mut plan: Plan, opts: CommonOpts) -> Result<Outcome, CliError> {
    let socket = !matches!(plan.transport, Transport::Stdio | Transport::Script(_));
    if plan.token.is_some() && !socket {
        return Err(CliError::Usage(
            "--token requires a socket transport (--listen or --unix)".into(),
        ));
    }
    if plan.realtime && matches!(plan.transport, Transport::Script(_)) {
        return Err(CliError::Usage(
            "--realtime is incompatible with --script (script transcripts are deterministic)"
                .into(),
        ));
    }
    if plan.journal.is_none() && (plan.fsync.is_some() || plan.snapshot_every.is_some()) {
        return Err(CliError::Usage(
            "--fsync and --snapshot-every require --journal".into(),
        ));
    }
    if plan.idle_timeout.is_some() && !socket {
        return Err(CliError::Usage(
            "--idle-timeout requires a socket transport (--listen or --unix)".into(),
        ));
    }
    if plan.records_out.is_some() && !plan.retire {
        return Err(CliError::Usage("--records-out requires --retire".into()));
    }
    match std::mem::take(&mut plan.transport) {
        Transport::Script(path) => {
            let script = std::fs::read_to_string(&path).map_err(|e| CliError::io(&path, e))?;
            return opts.finish(plan.serve(Io::Script(&script))?, 0);
        }
        Transport::Stdio => {
            plan.serve(Io::Stdio)?;
        }
        Transport::Tcp(addr) => {
            let listener =
                std::net::TcpListener::bind(&addr).map_err(|e| CliError::io(&addr, e))?;
            plan.serve(Io::Listener(AnyListener::Tcp(listener)))?;
        }
        #[cfg(unix)]
        Transport::Unix(path) => {
            let listener = bind_unix(&path).map_err(|e| CliError::io(&path, e))?;
            let served = plan.serve(Io::Listener(AnyListener::Unix(listener)));
            // The socket file is this process's: leave none behind.
            let _ = std::fs::remove_file(&path);
            served?;
        }
    }
    Ok(Outcome::printed(""))
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

/// The socket listeners behind `--listen` / `--unix`. `accept` blocks; the
/// session that ends the server wakes it through [`WakeAddr`].
enum AnyListener {
    Tcp(std::net::TcpListener),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener),
}

/// Where to connect to wake a listener blocked in `accept`: its own
/// address.
enum WakeAddr {
    Tcp(std::net::SocketAddr),
    #[cfg(unix)]
    Unix(std::path::PathBuf),
}

impl WakeAddr {
    /// Connect once and hang up. A failed connect is ignored: the next
    /// client to connect wakes the listener instead.
    fn wake(&self) {
        match self {
            WakeAddr::Tcp(addr) => drop(std::net::TcpStream::connect(addr)),
            #[cfg(unix)]
            WakeAddr::Unix(path) => drop(std::os::unix::net::UnixStream::connect(path)),
        }
    }
}

impl AnyListener {
    /// The address a connect reaches this listener at: the bound one, with
    /// a wildcard IP replaced by the loopback of its family.
    fn wake_addr(&self) -> std::io::Result<WakeAddr> {
        match self {
            AnyListener::Tcp(l) => {
                let mut addr = l.local_addr()?;
                if addr.ip().is_unspecified() {
                    addr.set_ip(match addr {
                        std::net::SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                        std::net::SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
                    });
                }
                Ok(WakeAddr::Tcp(addr))
            }
            #[cfg(unix)]
            AnyListener::Unix(l) => l
                .local_addr()?
                .as_pathname()
                .map(|path| WakeAddr::Unix(path.to_path_buf()))
                .ok_or_else(|| std::io::Error::other("the socket has no path")),
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
                stream.set_read_timeout(idle)?;
                stream.set_write_timeout(idle)?;
                let reader = std::io::BufReader::new(stream.try_clone()?);
                Ok((Box::new(reader), Box::new(stream)))
            }
            #[cfg(unix)]
            AnyListener::Unix(l) => {
                let (stream, _) = l.accept()?;
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
/// session issues `shutdown`: that session sets the stop flag and connects
/// to the listener to wake the blocked `accept`, the service is stopped, and
/// remaining sessions die with the process.
fn serve_concurrent(
    service: ConcurrentService<AvailabilityTimeline>,
    cfg: SessionCfg,
    listener: AnyListener,
    idle: Option<Duration>,
) -> Result<(), CliError> {
    let wake = Arc::new(
        listener
            .wake_addr()
            .map_err(|e| CliError::io("<listener>", e))?,
    );
    let stop = Arc::new(AtomicBool::new(false));
    let cfg = Arc::new(cfg);
    loop {
        let accepted = listener.accept(idle);
        // Whatever woke us after a shutdown — the wake-up connection or a
        // late client — is not served.
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((mut reader, mut writer)) => {
                let mut client = service.client();
                let (stop, wake, cfg) = (Arc::clone(&stop), Arc::clone(&wake), Arc::clone(&cfg));
                std::thread::spawn(move || {
                    // Err means the client dropped mid-session: that ends
                    // its own session only.
                    if let Ok(true) = serve_session(&mut client, &cfg, &mut reader, &mut writer) {
                        stop.store(true, Ordering::SeqCst);
                        wake.wake();
                    }
                });
            }
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    // Dropping the front stops the service (and flushes its journal); the
    // final state dies with the process, as on the other transports.
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

    /// A session that outlives the service (another session's `shutdown`
    /// raced its request) gets a structured error for `snapshot`, the one
    /// read that needs the write queue — never a panic or a hang.
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
