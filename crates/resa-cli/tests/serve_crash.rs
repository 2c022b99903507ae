//! Crash-recovery tests of `resa serve --journal`.
//!
//! A crash leaves a journal whose last record may be torn. Each case makes
//! that state for real and restarts the binary on it: either it writes the
//! torn tail itself — a clean run of the first ops, then half of the next
//! record cut from an uninterrupted run's journal — or it kills a live
//! server with `SIGKILL` once some ops are acknowledged. The restarted
//! session resubmits only what was not acknowledged, and its final `stats`
//! and `snapshot` replies must be byte-for-byte those of an uninterrupted
//! run. (Recovery onto the naive `ResourceProfile` is pinned in the library:
//! `resa-sim/tests/journal_recovery.rs::truncation_recovers_a_serial_prefix`.)

use resa_core::io::{Frames, FRAME_HEADER};
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The mutating ops of the session, one journal record each.
const OPS: &[&str] = &[
    r#"{"op":"submit","width":2,"duration":7}"#,
    r#"{"op":"submit","width":3,"duration":4,"release":2}"#,
    r#"{"op":"reserve","width":2,"duration":6,"start":5}"#,
    r#"{"op":"advance","to":4}"#,
    r#"{"op":"submit","width":1,"duration":9}"#,
    r#"{"op":"cancel","reservation":0}"#,
    r#"{"op":"advance","to":9}"#,
    r#"{"op":"submit","width":4,"duration":3}"#,
];

/// Read-only probes whose responses summarize the full session state.
const FINAL: &[&str] = &[r#"{"op":"stats"}"#, r#"{"op":"snapshot"}"#];

/// Tear the journal in the record of this op: the ones before it are
/// durable and applied, this one is half written.
const CRASH_AT: usize = 5;

fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("resa-crash-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn write_script(path: &Path, lines: &[&str]) {
    let mut text = lines.join("\n");
    text.push('\n');
    std::fs::write(path, text).expect("script written");
}

fn run_serve(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_resa"))
        .arg("serve")
        .args(args)
        .output()
        .expect("resa binary runs")
}

/// The last two response lines — the `stats` and `snapshot` replies.
fn final_lines(stdout: &[u8]) -> Vec<String> {
    let text = String::from_utf8_lossy(stdout);
    let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
    assert!(
        lines.len() >= 2,
        "expected stats + snapshot replies:\n{text}"
    );
    lines[lines.len() - 2..]
        .iter()
        .map(|l| l.to_string())
        .collect()
}

/// `serve` arguments for a session of 8 machines journaled to `journal`
/// under `fsync`, retiring into `records` when given.
fn serve_args(journal: &Path, fsync: &str, records: Option<&Path>) -> Vec<String> {
    let mut args: Vec<String> = vec![
        "--machines".into(),
        "8".into(),
        "--policy".into(),
        "easy".into(),
        "--journal".into(),
        journal.display().to_string(),
        "--fsync".into(),
        fsync.into(),
    ];
    if let Some(records) = records {
        args.extend(["--retire".into(), "--records-out".into()]);
        args.push(records.display().to_string());
    }
    args
}

/// Run `lines` as a `--script` session with `args`.
fn run_script(dir: &Path, name: &str, lines: &[&str], args: &[String]) -> std::process::Output {
    let script = dir.join(name);
    write_script(&script, lines);
    let mut args: Vec<&str> = args.iter().map(String::as_str).collect();
    let script = script.display().to_string();
    args.extend(["--script", &script]);
    run_serve(&args)
}

/// Tear the journal in op `crash_at`'s record, restart it on the
/// unacknowledged tail, and compare its final probes with an uninterrupted
/// run. With `--retire --records-out`, the records files must match too:
/// each retired job exactly once across the crash.
#[test]
fn killed_session_recovers_bit_for_bit_on_the_timeline() {
    // Op 7 follows the advance that retires jobs 0 and 1.
    for (crash_at, retire) in [(CRASH_AT, false), (7, true)] {
        killed_session_recovers(crash_at, retire);
    }
}

fn killed_session_recovers(crash_at: usize, retire: bool) {
    let dir = work_dir(if retire { "script-retire" } else { "script" });
    let (j_full, j_crash) = (dir.join("full.jrn"), dir.join("crash.jrn"));
    let records = |journal: &Path| retire.then(|| journal.with_extension("records"));

    // Reference: the uninterrupted session.
    let full_ops: Vec<&str> = OPS.iter().chain(FINAL).copied().collect();
    let args = serve_args(&j_full, "every", records(&j_full).as_deref());
    let reference = run_script(&dir, "full.jsonl", &full_ops, &args);
    assert!(reference.status.success(), "uninterrupted run failed");
    let expected = final_lines(&reference.stdout);

    // The crash: the ops before `crash_at` run and exit cleanly, then half
    // of op `crash_at`'s record lands behind them, cut from the reference
    // journal (the same ops journal the same bytes).
    let args = serve_args(&j_crash, "every", records(&j_crash).as_deref());
    let head = run_script(&dir, "head.jsonl", &OPS[..crash_at], &args);
    assert!(head.status.success(), "{head:?}");
    let full = std::fs::read(&j_full).unwrap();
    let mut torn = std::fs::read(&j_crash).unwrap();
    assert!(
        full.starts_with(&torn),
        "the journal of a prefix of the ops is a prefix of the journal"
    );
    let payload = Frames::new(&full[torn.len()..]).next().expect("record");
    let frame = &full[torn.len()..torn.len() + FRAME_HEADER + payload.len()];
    torn.extend_from_slice(&frame[..frame.len() / 2]);
    std::fs::write(&j_crash, torn).unwrap();

    // Restart on the torn journal and replay the unacknowledged tail.
    let tail_ops: Vec<&str> = OPS[crash_at..].iter().chain(FINAL).copied().collect();
    let recovered = run_script(&dir, "tail.jsonl", &tail_ops, &args);
    let stderr = String::from_utf8_lossy(&recovered.stderr);
    assert!(recovered.status.success(), "recovery failed: {stderr}");
    assert!(
        stderr.contains("recovered") && stderr.contains("torn tail"),
        "recovery must report what it replayed and what it dropped: {stderr}"
    );
    assert_eq!(
        final_lines(&recovered.stdout),
        expected,
        "recovered session diverged from the uninterrupted run"
    );
    if retire {
        let got = std::fs::read_to_string(records(&j_crash).unwrap()).unwrap();
        assert!(got.starts_with(r#"{"job":0,"#), "{got}");
        assert_eq!(
            got,
            std::fs::read_to_string(records(&j_full).unwrap()).unwrap(),
            "each retired job once, across the crash"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Lines a child writes to stdout, one message each, read on a thread so a
/// hung server fails the test instead of blocking it. The thread ends at
/// the child's end of output.
fn stdout_lines(child: &mut Child) -> (mpsc::Receiver<String>, JoinHandle<()>) {
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            if tx.send(line.expect("utf-8 reply")).is_err() {
                break;
            }
        }
    });
    (rx, reader)
}

/// A stdio session `SIGKILL`ed once its first three ops are acknowledged
/// recovers them, under `--fsync every` and under the default `batch`
/// (acknowledged ⇒ durable under both). The retiring leg kills the session
/// after the advance that retires jobs 0 and 1; its restart retires job 2
/// into the appended records file, which ends up equal to the
/// uninterrupted run's with no job id twice.
#[test]
fn sigkilled_stdio_session_recovers_under_every_and_batch() {
    let plain: &[&str] = &[
        r#"{"op":"submit","width":2,"duration":7}"#,
        r#"{"op":"submit","width":3,"duration":4,"release":2}"#,
        r#"{"op":"reserve","width":2,"duration":6,"start":5}"#,
        r#"{"op":"advance","to":4}"#,
        r#"{"op":"submit","width":1,"duration":9}"#,
    ];
    let retiring: &[&str] = &[
        r#"{"op":"submit","width":2,"duration":3}"#,
        r#"{"op":"submit","width":3,"duration":4,"release":2}"#,
        r#"{"op":"advance","to":8}"#,
        r#"{"op":"submit","width":1,"duration":9}"#,
        r#"{"op":"advance","to":12}"#,
        r#"{"op":"drain"}"#,
    ];
    for fsync in ["every", "batch"] {
        for (ops, retire) in [(plain, false), (retiring, true)] {
            let dir = work_dir(&format!("stdio-{fsync}-{retire}"));
            let (j_full, j_crash) = (dir.join("full.jrn"), dir.join("crash.jrn"));
            let records = |journal: &Path| retire.then(|| journal.with_extension("records"));

            let full_ops: Vec<&str> = ops.iter().chain(FINAL).copied().collect();
            let args = serve_args(&j_full, fsync, records(&j_full).as_deref());
            let reference = run_script(&dir, "full.jsonl", &full_ops, &args);
            assert!(reference.status.success(), "{fsync}: {reference:?}");
            let expected = final_lines(&reference.stdout);

            let args = serve_args(&j_crash, fsync, records(&j_crash).as_deref());
            let mut child = Command::new(env!("CARGO_BIN_EXE_resa"))
                .arg("serve")
                .args(&args)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .expect("resa binary runs");
            let (replies, reader) = stdout_lines(&mut child);
            let mut stdin = child.stdin.take().expect("piped stdin");
            for op in &ops[..3] {
                writeln!(stdin, "{op}").unwrap();
            }
            stdin.flush().unwrap();
            for _ in 0..3 {
                let reply = replies
                    .recv_timeout(Duration::from_secs(10))
                    .expect("an acknowledgement within 10 s");
                assert!(reply.starts_with(r#"{"ok":true"#), "{fsync}: {reply}");
            }
            child.kill().expect("SIGKILL");
            child.wait().expect("killed server is reaped");
            reader.join().expect("reader thread");
            drop(stdin);
            if retire {
                let got = std::fs::read_to_string(records(&j_crash).unwrap()).unwrap();
                assert_eq!(got.matches(r#""job""#).count(), 2, "{fsync}: {got}");
            }

            let rest: Vec<&str> = ops[3..].iter().chain(FINAL).copied().collect();
            let recovered = run_script(&dir, "rest.jsonl", &rest, &args);
            assert!(recovered.status.success(), "{fsync}: {recovered:?}");
            assert_eq!(final_lines(&recovered.stdout), expected, "{fsync}");
            if retire {
                let got = std::fs::read_to_string(records(&j_crash).unwrap()).unwrap();
                let mut ids: Vec<&str> =
                    got.lines().map(|l| l.split(',').next().unwrap()).collect();
                let n = ids.len();
                ids.sort_unstable();
                ids.dedup();
                assert_eq!(ids.len(), n, "{fsync}: a job id twice: {got}");
                assert_eq!(
                    got,
                    std::fs::read_to_string(records(&j_full).unwrap()).unwrap(),
                    "{fsync}: records diverged from the uninterrupted run"
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// The two scripts that used to panic the process — and, journaled
/// write-ahead, every restart after it: a duration, and a release date, next
/// to `u64::MAX`. Both are answered with a structured error and leave the
/// session serving, without a journal and with one, and the journaled
/// transcript is byte-equal to the plain one; the journal that received
/// them reopens.
#[test]
fn hostile_magnitudes_are_refused_and_never_reach_the_journal() {
    let dir = work_dir("hostile");
    let probes = dir.join("probes.jsonl");
    write_script(&probes, FINAL);
    for (tag, hostile) in [
        (
            "duration",
            r#"{"op":"submit","width":2,"duration":18446744073709551610}"#,
        ),
        (
            "release",
            r#"{"op":"submit","width":2,"duration":5,"release":18446744073709551615}"#,
        ),
    ] {
        let script = dir.join(format!("{tag}.jsonl"));
        let lines = [
            r#"{"op":"submit","width":4,"duration":10}"#,
            hostile,
            r#"{"op":"advance","to":10}"#,
            r#"{"op":"drain"}"#,
        ];
        write_script(&script, &lines);
        let journal = dir.join(format!("{tag}.jrn"));
        let (script, journal) = (script.display().to_string(), journal.display().to_string());
        let plain = ["--machines", "4", "--script", &script];
        let journaled = [
            "--machines",
            "4",
            "--script",
            &script,
            "--journal",
            &journal,
        ];
        let mut transcripts = Vec::new();
        for args in [&plain[..], &journaled[..]] {
            let out = run_serve(args);
            assert!(out.status.success(), "{tag}: {out:?}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let replies: Vec<&str> = stdout.lines().collect();
            assert_eq!(replies.len(), lines.len(), "{tag}: {stdout}");
            assert!(
                replies[1].starts_with(r#"{"ok":false,"op":"submit","error":"#),
                "{tag}: {stdout}"
            );
            assert_eq!(
                stdout.matches(r#""ok":false"#).count(),
                1,
                "{tag}: {stdout}"
            );
            assert!(
                replies[2].contains(r#""completed":[{"job":0,"at":10}]"#),
                "{tag}: {stdout}"
            );
            assert!(
                replies[3].starts_with(r#"{"ok":true,"op":"drain","now":10"#),
                "{tag}: {stdout}"
            );
            transcripts.push(out.stdout);
        }
        assert_eq!(
            transcripts[0], transcripts[1],
            "{tag}: journaling changed the transcript"
        );
        // The refused op left no record: a second start replays the others.
        let probes = probes.display().to_string();
        let reopened = run_serve(&[
            "--machines",
            "4",
            "--script",
            &probes,
            "--journal",
            &journal,
        ]);
        assert!(reopened.status.success(), "{tag}: {reopened:?}");
        let stderr = String::from_utf8_lossy(&reopened.stderr);
        assert!(
            stderr.contains("recovered 3 op record(s)"),
            "{tag}: {stderr}"
        );
        assert!(
            final_lines(&reopened.stdout)[0].contains(r#""submitted":1,"#),
            "{tag}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A journal written by the parent of the ops-as-data change (PR 13's binary:
/// one snapshot record, then op records of all ten write kinds, among them
/// ops that binary journaled write-ahead and then rejected) recovers under
/// this code to the `stats` and `snapshot` the parent itself recovered —
/// the record format did not move.
#[test]
fn a_journal_written_before_ops_were_data_recovers_identically() {
    use resa_sim::prelude::*;
    let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/../resa-sim/tests/fixtures");
    let dir = work_dir("fixture");
    let journal = dir.join("parent.jrn");
    std::fs::copy(format!("{fixtures}/parent_pr13.jrn"), &journal).unwrap();
    let probes = dir.join("probes.jsonl");
    write_script(&probes, FINAL);

    let (_, recovered) = OpJournal::open(&journal, 8, ReferencePolicy::Easy, JournalCfg::default())
        .expect("the fixture opens");
    assert_eq!((recovered.snapshot_records, recovered.op_records), (1, 25));
    assert!(recovered.torn.is_none());
    let kinds: std::collections::HashSet<_> = recovered
        .ops
        .iter()
        .map(|a| std::mem::discriminant(&a.op))
        .collect();
    assert_eq!(kinds.len(), 10, "every write kind has a record");

    let (probes, journal) = (probes.display().to_string(), journal.display().to_string());
    let out = run_serve(&[
        "--machines",
        "8",
        "--policy",
        "easy",
        "--script",
        &probes,
        "--journal",
        &journal,
    ]);
    assert!(out.status.success(), "{out:?}");
    let expected =
        std::fs::read_to_string(format!("{fixtures}/parent_pr13.recovered.golden")).unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
    std::fs::remove_dir_all(&dir).ok();
}

fn free_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .expect("ephemeral bind")
        .local_addr()
        .expect("bound address")
        .port()
}

/// A `--listen` server journaled to `journal` under `--fsync every`, and a
/// connection to it.
fn tcp_server(journal: &Path) -> (Child, std::net::TcpStream) {
    let port = free_port();
    let mut args = serve_args(journal, "every", None);
    args.extend(["--listen".into(), format!("127.0.0.1:{port}")]);
    let child = Command::new(env!("CARGO_BIN_EXE_resa"))
        .arg("serve")
        .args(&args)
        .stderr(Stdio::null())
        .spawn()
        .expect("resa binary runs");
    let stream = (0..100)
        .find_map(|_| {
            std::thread::sleep(Duration::from_millis(20));
            std::net::TcpStream::connect(("127.0.0.1", port)).ok()
        })
        .expect("service came up within 2s");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    (child, stream)
}

/// Send `ops` one at a time and return their replies.
fn converse(stream: std::net::TcpStream, ops: &[&str]) -> Vec<String> {
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    ops.iter()
        .map(|op| {
            writeln!(writer, "{op}").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).expect("a reply");
            line.trim_end().to_string()
        })
        .collect()
}

/// A socket server `SIGKILL`ed after its third acknowledgement recovers on
/// restart: a client resubmits only the unacknowledged ops and the final
/// probes match an uninterrupted reference run byte for byte.
#[test]
fn killed_tcp_server_recovers_acknowledged_ops() {
    let dir = work_dir("tcp");
    const ACKED: usize = 3;

    // Reference run in script mode — same session code, same responses.
    let full_ops: Vec<&str> = OPS.iter().chain(FINAL).copied().collect();
    let args = serve_args(&dir.join("full.jrn"), "every", None);
    let reference = run_script(&dir, "full.jsonl", &full_ops, &args);
    assert!(reference.status.success());
    let expected = final_lines(&reference.stdout);

    // Acknowledged under `--fsync every` means durable: kill the server
    // once three ops are answered.
    let journal = dir.join("tcp.jrn");
    let (mut child, stream) = tcp_server(&journal);
    let acked = converse(stream, &OPS[..ACKED]);
    assert!(
        acked.iter().all(|r| r.starts_with(r#"{"ok":true"#)),
        "{acked:?}"
    );
    child.kill().expect("SIGKILL");
    child.wait().expect("killed server is reaped");

    // Restart on the same journal, resubmit everything unacknowledged.
    let (mut child, stream) = tcp_server(&journal);
    let rest: Vec<&str> = OPS[ACKED..].iter().chain(FINAL).copied().collect();
    let finals = converse(stream, &rest);
    assert_eq!(
        finals[finals.len() - 2..],
        expected[..],
        "recovered TCP session diverged from the reference"
    );
    child.kill().ok();
    child.wait().ok();
    std::fs::remove_dir_all(&dir).ok();
}
