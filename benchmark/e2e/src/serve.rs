//! One fresh `resa serve --unix` session, driven over the socket by
//! closed-loop client threads: each connection sends its next request only
//! after the previous reply arrived.

use crate::affinity::OneCpu;
use crate::procwatch;
use crate::Session;
use benchkit::gen::{Input, LAST_RESERVATION};
use benchkit::reply::{is_ok, uint_field};
use benchkit::stats::Latency;
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Longest a single reply may take before the op counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Longest the server may take to accept its first connection.
const READY_TIMEOUT: Duration = Duration::from_secs(20);

/// Flush policy and compaction period of `serve-durable`: fixed, and stated
/// in every report, because they decide what the journal costs.
pub const DURABLE_FLAGS: [&str; 4] = ["--fsync", "off", "--snapshot-every", "1024"];

/// Socket-client figures of one session, beyond the end-to-end four.
#[derive(Debug, Clone)]
pub struct Client {
    pub ops_per_s: f64,
    pub first_tenth_ops_per_s: f64,
    pub last_tenth_ops_per_s: f64,
    pub mean_roundtrip_us: f64,
    pub write: Latency,
    pub read: Latency,
    /// `serve-durable`: SIGKILL → restart on the same journal → first `stats`.
    pub recovery_s: Option<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Write,
    Read,
    Other,
}

fn kind_of(line: &str) -> Kind {
    const WRITES: [&str; 4] = ["submit", "reserve", "cancel", "advance"];
    let op = line
        .split_once("\"op\":\"")
        .and_then(|(_, rest)| rest.split('"').next())
        .unwrap_or("");
    if op == "query" {
        Kind::Read
    } else if WRITES.contains(&op) {
        Kind::Write
    } else {
        Kind::Other
    }
}

struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    request: String,
    reply: String,
}

impl Conn {
    /// Connect, retrying until the server listens.
    fn connect(path: &Path, deadline: Instant) -> std::io::Result<Conn> {
        loop {
            match UnixStream::connect(path) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
                    stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
                    return Ok(Conn {
                        reader: BufReader::new(stream.try_clone()?),
                        writer: stream,
                        request: String::new(),
                        reply: String::new(),
                    });
                }
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// Send one request line, wait for its reply line.
    fn roundtrip(&mut self, request: &str) -> std::io::Result<&str> {
        self.request.clear();
        self.request.push_str(request);
        self.request.push('\n');
        self.writer.write_all(self.request.as_bytes())?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.reply.trim_end())
    }

    /// A request that must succeed for the session to mean anything.
    fn must(&mut self, request: &str) -> Result<String, String> {
        match self.roundtrip(request) {
            Ok(reply) if is_ok(reply) => Ok(reply.to_string()),
            Ok(reply) => Err(format!("{request} answered {reply}")),
            Err(e) => Err(format!("{request}: {e}")),
        }
    }
}

/// What one connection measured.
#[derive(Default)]
struct ConnLog {
    write_us: Vec<f64>,
    read_us: Vec<f64>,
    /// Completion time of every acknowledged op, since the session start.
    done_ns: Vec<u64>,
    latency_sum_us: f64,
    attempted: u64,
    failed: u64,
    acked_submits: u64,
}

/// Run a whole script closed-loop. A transport error ends the connection and
/// counts every op not yet acknowledged as failed.
fn drive(conn: &mut Conn, script: &str, start: Instant) -> ConnLog {
    let mut log = ConnLog::default();
    let lines: Vec<&str> = script.lines().collect();
    log.attempted = lines.len() as u64;
    let mut last_reservation = String::new();
    let mut line_buf = String::new();
    for (i, line) in lines.iter().enumerate() {
        let kind = kind_of(line);
        let request: &str = if line.contains(LAST_RESERVATION) {
            line_buf.clear();
            line_buf.push_str(&line.replace(LAST_RESERVATION, &last_reservation));
            &line_buf
        } else {
            line
        };
        let sent = Instant::now();
        let reply = match conn.roundtrip(request) {
            Ok(reply) => reply,
            Err(_) => {
                log.failed += (lines.len() - i) as u64;
                return log;
            }
        };
        let took = sent.elapsed().as_nanos() as f64 / 1e3;
        if !is_ok(reply) {
            log.failed += 1;
            continue;
        }
        match kind {
            Kind::Write => log.write_us.push(took),
            Kind::Read => log.read_us.push(took),
            Kind::Other => {}
        }
        log.latency_sum_us += took;
        log.done_ns.push(start.elapsed().as_nanos() as u64);
        if line.contains("\"op\":\"reserve\"") {
            if let Some(id) = uint_field(reply, "reservation") {
                last_reservation = id.to_string();
            }
        } else if line.contains("\"op\":\"submit\"") {
            log.acked_submits += 1;
        }
    }
    log
}

fn spawn_server(
    resa: &Path,
    sock: &Path,
    journal: Option<&Path>,
    log: &Path,
) -> std::io::Result<Child> {
    let mut cmd = Command::new(resa);
    cmd.arg("serve")
        .arg("--unix")
        .arg(sock)
        .args(["--machines", &benchkit::gen::SERVE_MACHINES.to_string()])
        .args(["--policy", "easy"]);
    if let Some(journal) = journal {
        cmd.arg("--journal").arg(journal).args(DURABLE_FLAGS);
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(log)?,
        )
        .spawn()
}

/// Kills the server if the session ends early, so no process outlives a run.
struct ServerGuard(Child);

impl ServerGuard {
    /// Ask for shutdown over `conn`, then wait; kill if it does not comply.
    fn shutdown(mut self, conn: &mut Conn) {
        let _ = conn.roundtrip("{\"op\":\"shutdown\"}");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.0.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// `(width, start, end)` of the standing reservations a preload script adds.
fn standing_windows(preload: &str) -> Vec<(u64, u64, u64)> {
    preload
        .lines()
        .filter(|l| l.contains("\"op\":\"reserve\""))
        .filter_map(|l| {
            let width = uint_field(l, "width")?;
            let start = uint_field(l, "start")?;
            Some((width, start, start + uint_field(l, "duration")?))
        })
        .collect()
}

/// The capacity check: at no instant do the jobs of the final snapshot plus
/// the standing reservations use more than `machines` processors. Returns the
/// peak usage, or an error naming the malformed record.
pub fn peak_usage(snapshot: &Value, standing: &[(u64, u64, u64)]) -> Result<u64, String> {
    let records = snapshot
        .get("schedule")
        .and_then(Value::as_array)
        .ok_or("snapshot has no schedule array")?;
    let mut events: Vec<(u64, i64)> = Vec::with_capacity((records.len() + standing.len()) * 2);
    let field = |rec: &Value, name: &str| match rec.get(name) {
        Some(Value::UInt(v)) => Ok(*v),
        _ => Err(format!("snapshot record lacks '{name}'")),
    };
    for rec in records {
        let width = field(rec, "width")? as i64;
        events.push((field(rec, "started")?, width));
        events.push((field(rec, "completed")?, -width));
    }
    for &(width, start, end) in standing {
        events.push((start, width as i64));
        events.push((end, -(width as i64)));
    }
    // Releases sort before claims at the same instant: windows are half-open.
    events.sort_unstable();
    let (mut used, mut peak) = (0i64, 0i64);
    for (_, delta) in events {
        used += delta;
        peak = peak.max(used);
    }
    Ok(peak as u64)
}

fn rate(ops: usize, ns: u64) -> f64 {
    ops as f64 / (ns.max(1) as f64 / 1e9)
}

fn io_err(what: &str, e: std::io::Error) -> String {
    format!("{what}: {e}")
}

/// Run one session: fresh server, fresh socket, fresh journal.
///
/// `inputs` are the workload's generated files: an optional `preload.jsonl`
/// (sent before the clock starts) and one `connN.jsonl` per client
/// connection. At most `cores` connections are driven.
pub fn session(
    resa: &Path,
    dir: &Path,
    inputs: &[Input],
    durable: bool,
    cores: usize,
) -> Result<Session, String> {
    let setup_started = Instant::now();
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| io_err("create session dir", e))?;
    let sock = dir.join("s.sock");
    let journal = durable.then(|| dir.join("journal.bin"));
    let server_log = dir.join("server.log");

    let preload = inputs
        .iter()
        .find(|i| i.name == "preload.jsonl")
        .map_or("", |i| i.text.as_str());
    let scripts: Vec<&str> = inputs
        .iter()
        .filter(|i| i.name.starts_with("conn"))
        .map(|i| i.text.as_str())
        .take(cores.max(1))
        .collect();

    // Server and clients share one CPU until this drops (see `affinity`).
    let _one_cpu = OneCpu::pin();
    let server = spawn_server(resa, &sock, journal.as_deref(), &server_log)
        .map_err(|e| io_err("spawn resa serve", e))?;
    let server = ServerGuard(server);
    let ready_by = Instant::now() + READY_TIMEOUT;
    let mut control = Conn::connect(&sock, ready_by).map_err(|e| io_err("connect", e))?;
    for line in preload.lines() {
        control.must(line)?;
    }
    let mut conns = Vec::new();
    for _ in &scripts {
        conns.push(Conn::connect(&sock, ready_by).map_err(|e| io_err("connect", e))?);
    }
    // One throwaway request per connection, so the server has accepted it and
    // started its session thread before the clock starts.
    for conn in &mut conns {
        conn.must("{\"op\":\"stats\"}")?;
    }
    let setup_s = setup_started.elapsed().as_secs_f64();
    let pid = server.0.id();

    let mut meter = procwatch::CpuMeter::new(pid);
    let cpu_before = meter.sample().ok_or("server /proc entry unreadable")?;
    let barrier = Barrier::new(conns.len());
    let start = Instant::now();
    let logs: Vec<ConnLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&scripts)
            .map(|(conn, script)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    drive(conn, script, start)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_after = meter.sample().ok_or("server /proc entry unreadable")?;
    let peak_rss_kb = procwatch::peak_rss_kb(pid).ok_or("server VmHWM unreadable")?;

    let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    let acked_submits: u64 = logs.iter().map(|l| l.acked_submits).sum();
    let mut write_us: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.write_us.iter().copied())
        .collect();
    let mut read_us: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.read_us.iter().copied())
        .collect();
    let mut done_ns: Vec<u64> = logs
        .iter()
        .flat_map(|l| l.done_ns.iter().copied())
        .collect();
    done_ns.sort_unstable();
    let acked = done_ns.len();
    if acked < 20 || write_us.is_empty() || read_us.is_empty() {
        return Err(format!("only {acked} of {attempted} ops were acknowledged"));
    }
    let tenth = acked / 10;
    let mut client = Client {
        ops_per_s: acked as f64 / wall_s,
        first_tenth_ops_per_s: rate(tenth, done_ns[tenth - 1]),
        last_tenth_ops_per_s: rate(tenth, done_ns[acked - 1] - done_ns[acked - 1 - tenth]),
        mean_roundtrip_us: logs.iter().map(|l| l.latency_sum_us).sum::<f64>() / acked as f64,
        write: Latency::of(&mut write_us),
        read: Latency::of(&mut read_us),
        recovery_s: None,
    };

    // Output checks, after a final drain.
    let mut check_errors = Vec::new();
    let preloaded_submits = preload
        .lines()
        .filter(|l| l.contains("\"op\":\"submit\""))
        .count();
    control.must("{\"op\":\"drain\"}")?;
    let stats = control.must("{\"op\":\"stats\"}")?;
    let snapshot = control.must("{\"op\":\"snapshot\"}")?;
    let submitted = uint_field(&stats, "submitted");
    if submitted != Some(acked_submits + preloaded_submits as u64) {
        check_errors.push(format!(
            "stats.submitted is {submitted:?}, {acked_submits} submits were acknowledged \
             (+{preloaded_submits} preloaded)"
        ));
    }
    if uint_field(&stats, "completed") != submitted {
        check_errors.push(format!("after drain completed != submitted: {stats}"));
    }
    let machines = u64::from(benchkit::gen::SERVE_MACHINES);
    match serde_json::from_str::<Value>(&snapshot)
        .map_err(|e| e.to_string())
        .and_then(|v| peak_usage(&v, &standing_windows(preload)))
    {
        Ok(peak) if peak <= machines => {}
        Ok(peak) => check_errors.push(format!("{peak} processors in use on {machines} machines")),
        Err(e) => check_errors.push(e),
    }

    let server = if let Some(journal) = &journal {
        // Durability: every acknowledged write survives a kill -9. (The kill
        // leaves the page cache intact, so this checks the journal's content
        // and recovery, not the device flush — see the README.)
        drop(server);
        let killed_at = Instant::now();
        let restarted = spawn_server(resa, &sock, Some(journal), &server_log)
            .map_err(|e| io_err("respawn resa serve", e))?;
        let restarted = ServerGuard(restarted);
        control = Conn::connect(&sock, Instant::now() + READY_TIMEOUT)
            .map_err(|e| io_err("reconnect", e))?;
        let stats_after = control.must("{\"op\":\"stats\"}")?;
        client.recovery_s = Some(killed_at.elapsed().as_secs_f64());
        let snapshot_after = control.must("{\"op\":\"snapshot\"}")?;
        if stats_after != stats {
            check_errors.push(format!(
                "stats changed across kill -9 + recovery:\n  before {stats}\n  after  {stats_after}"
            ));
        }
        if snapshot_after != snapshot {
            check_errors.push("snapshot changed across kill -9 + recovery".to_string());
        }
        restarted
    } else {
        server
    };
    server.shutdown(&mut control);

    Ok(Session {
        setup_s,
        work: acked as u64,
        attempted,
        failed,
        wall_s,
        cpu_s: cpu_after - cpu_before,
        peak_rss_kb,
        client: Some(client),
        output_hash: None,
        check_errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_kinds() {
        assert_eq!(
            kind_of("{\"op\":\"query\",\"width\":2,\"duration\":3}"),
            Kind::Read
        );
        assert_eq!(kind_of("{\"op\":\"advance\",\"to\":4}"), Kind::Write);
        assert_eq!(
            kind_of("{\"op\":\"cancel\",\"reservation\":$R}"),
            Kind::Write
        );
        assert_eq!(kind_of("{\"op\":\"stats\"}"), Kind::Other);
        assert_eq!(kind_of("garbage"), Kind::Other);
    }

    #[test]
    fn capacity_check_on_the_golden_snapshot() {
        let golden = include_str!("../../../examples/serve_session.golden");
        let line = golden
            .lines()
            .find(|l| l.contains("\"op\":\"snapshot\""))
            .unwrap();
        let snapshot: Value = serde_json::from_str(line).unwrap();
        // Jobs 0 (5 wide) and 2 (2 wide) overlap on 0..4: seven processors.
        assert_eq!(peak_usage(&snapshot, &[]), Ok(7));
        // A standing reservation over the same instants adds to the peak, one
        // that starts exactly when job 0 ends does not stack on it.
        assert_eq!(peak_usage(&snapshot, &[(4, 1, 3)]), Ok(11));
        assert_eq!(peak_usage(&snapshot, &[(5, 4, 5)]), Ok(7));
        assert!(peak_usage(&Value::Null, &[]).is_err());
    }

    #[test]
    fn standing_windows_come_from_preload_reserves() {
        let preload = "{\"op\":\"reserve\",\"width\":3,\"duration\":5,\"start\":100}\n\
                       {\"op\":\"submit\",\"width\":4,\"duration\":9}\n";
        assert_eq!(standing_windows(preload), vec![(3, 100, 105)]);
    }
}
