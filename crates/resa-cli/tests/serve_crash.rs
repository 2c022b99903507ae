//! Crash-recovery tests of `resa serve --journal` (ISSUE 8 tentpole).
//!
//! Each case runs the real binary twice against the same journal file: once
//! with the `RESA_FAIL_AFTER_RECORD` failpoint armed — the process aborts
//! mid-append, leaving a torn record on disk — and once more to recover and
//! finish the session. The recovered session's final `stats` and `snapshot`
//! responses must be byte-for-byte identical to an uninterrupted run.
//! (Recovery onto the naive `ResourceProfile` is pinned in the library:
//! `resa-sim/tests/journal_recovery.rs::truncation_recovers_a_serial_prefix`.)

use std::io::{BufRead, BufReader, Write as _};
use std::path::PathBuf;
use std::process::Command;

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

/// Crash after this many journal appends: CRASH_AT records are durable and
/// applied, the next one is torn mid-write.
const CRASH_AT: usize = 5;

fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("resa-crash-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn write_script(path: &PathBuf, lines: &[&str]) {
    let mut text = lines.join("\n");
    text.push('\n');
    std::fs::write(path, text).expect("script written");
}

fn run_serve(args: &[&str], fail_after: Option<usize>) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_resa"));
    cmd.arg("serve").args(args);
    if let Some(n) = fail_after {
        cmd.env("RESA_FAIL_AFTER_RECORD", n.to_string());
    }
    cmd.output().expect("resa binary runs")
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

/// Kill the session at journal append `crash_at`, restart it on the torn
/// journal with the unacknowledged tail, and compare its final probes with
/// an uninterrupted run. With `--retire --records-out`, the records files
/// must match too: each retired job exactly once across the crash.
#[test]
fn killed_session_recovers_bit_for_bit_on_the_timeline() {
    // Append 7 follows the advance that retires jobs 0 and 1.
    for (crash_at, retire) in [(CRASH_AT, false), (7, true)] {
        killed_session_recovers(crash_at, retire);
    }
}

fn killed_session_recovers(crash_at: usize, retire: bool) {
    let dir = work_dir(if retire { "script-retire" } else { "script" });
    let full_script = dir.join("full.jsonl");
    let tail_script = dir.join("tail.jsonl");
    let full_ops: Vec<&str> = OPS.iter().chain(FINAL.iter()).copied().collect();
    write_script(&full_script, &full_ops);
    // Everything from the torn record on must be resubmitted after recovery.
    let tail_ops: Vec<&str> = OPS[crash_at..]
        .iter()
        .chain(FINAL.iter())
        .copied()
        .collect();
    write_script(&tail_script, &tail_ops);

    let run = |script: &PathBuf, journal: &PathBuf, fail_after: Option<usize>| {
        let records = journal.with_extension("records");
        let mut args: Vec<String> = vec![
            "--machines".into(),
            "8".into(),
            "--script".into(),
            script.display().to_string(),
            "--journal".into(),
            journal.display().to_string(),
            "--fsync".into(),
            "every".into(),
        ];
        if retire {
            args.extend(["--retire".into(), "--records-out".into()]);
            args.push(records.display().to_string());
        }
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        (run_serve(&args, fail_after), records)
    };

    // Reference: the uninterrupted session.
    let (reference, reference_records) = run(&full_script, &dir.join("full.jrn"), None);
    assert!(reference.status.success(), "uninterrupted run failed");
    let expected = final_lines(&reference.stdout);

    // Crash mid-append: the failpoint writes half a record and aborts.
    let j_crash = dir.join("crash.jrn");
    let (crashed, crash_records) = run(&full_script, &j_crash, Some(crash_at));
    assert!(
        !crashed.status.success(),
        "the failpoint must abort the process"
    );

    // Restart on the torn journal and replay the unacknowledged tail.
    let (recovered, _) = run(&tail_script, &j_crash, None);
    assert!(
        recovered.status.success(),
        "recovery failed: {}",
        String::from_utf8_lossy(&recovered.stderr)
    );
    let stderr = String::from_utf8_lossy(&recovered.stderr);
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
        let records = std::fs::read_to_string(&crash_records).unwrap();
        assert!(records.starts_with(r#"{"job":0,"#), "{records}");
        assert_eq!(
            records,
            std::fs::read_to_string(&reference_records).unwrap(),
            "each retired job once, across the crash"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
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
            let out = run_serve(args, None);
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
        let reopened = run_serve(
            &[
                "--machines",
                "4",
                "--script",
                &probes,
                "--journal",
                &journal,
            ],
            None,
        );
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
    let out = run_serve(
        &[
            "--machines",
            "8",
            "--policy",
            "easy",
            "--script",
            &probes,
            "--journal",
            &journal,
        ],
        None,
    );
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

fn connect_tcp(port: u16) -> std::net::TcpStream {
    (0..100)
        .find_map(|_| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            std::net::TcpStream::connect(("127.0.0.1", port)).ok()
        })
        .expect("service came up within 2s")
}

/// A socket server killed mid-session recovers on restart: a client
/// resubmits only the unacknowledged ops and the final probes match an
/// uninterrupted reference run byte for byte.
#[test]
fn killed_tcp_server_recovers_acknowledged_ops() {
    let dir = work_dir("tcp");
    const TCP_CRASH_AT: usize = 3;

    // Reference run in script mode — same session code, same responses.
    let full_script = dir.join("full.jsonl");
    let full_ops: Vec<&str> = OPS.iter().chain(FINAL.iter()).copied().collect();
    write_script(&full_script, &full_ops);
    let j_full = dir.join("full.jrn");
    let reference = run_serve(
        &[
            "--machines",
            "8",
            "--script",
            &full_script.display().to_string(),
            "--journal",
            &j_full.display().to_string(),
            "--fsync",
            "every",
        ],
        None,
    );
    assert!(reference.status.success());
    let expected = final_lines(&reference.stdout);

    // Server with the failpoint armed: acknowledged ops are durable, the op
    // in flight at the crash is torn away.
    let journal = dir.join("tcp.jrn");
    let port = free_port();
    let mut child = Command::new(env!("CARGO_BIN_EXE_resa"))
        .args([
            "serve",
            "--machines",
            "8",
            "--listen",
            &format!("127.0.0.1:{port}"),
            "--journal",
            &journal.display().to_string(),
            "--fsync",
            "every",
        ])
        .env("RESA_FAIL_AFTER_RECORD", TCP_CRASH_AT.to_string())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("resa binary runs");
    let stream = connect_tcp(port);
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut acked = 0usize;
    for op in OPS {
        if writer.write_all(format!("{op}\n").as_bytes()).is_err() {
            break;
        }
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => acked += 1,
            _ => break,
        }
    }
    assert!(
        acked < OPS.len(),
        "the server must die before the session completes"
    );
    assert!(
        !child.wait().expect("server exits").success(),
        "the failpoint must abort the server"
    );

    // Restart on the same journal, resubmit everything unacknowledged.
    let port = free_port();
    let mut child = Command::new(env!("CARGO_BIN_EXE_resa"))
        .args([
            "serve",
            "--machines",
            "8",
            "--listen",
            &format!("127.0.0.1:{port}"),
            "--journal",
            &journal.display().to_string(),
            "--fsync",
            "every",
        ])
        .spawn()
        .expect("resa binary runs");
    let stream = connect_tcp(port);
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut finals = Vec::new();
    for op in OPS[acked..].iter().chain(FINAL.iter()) {
        writer.write_all(format!("{op}\n").as_bytes()).unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        finals.push(line.trim_end().to_string());
    }
    let got: Vec<String> = finals[finals.len() - 2..].to_vec();
    assert_eq!(
        got, expected,
        "recovered TCP session diverged from the reference"
    );
    drop(writer);
    drop(reader);
    child.kill().ok();
    child.wait().ok();
    std::fs::remove_dir_all(&dir).ok();
}
