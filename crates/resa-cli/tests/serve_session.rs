//! Golden session tests of `resa serve`.
//!
//! Two families of assertions (the same sessions on the naive
//! `ResourceProfile` are pinned byte for byte by `serve.rs`'s unit tests):
//!
//! * **golden transcript** — the checked-in request script replayed through
//!   the in-process service must reproduce `examples/serve_session.golden`
//!   byte for byte;
//! * **probe purity** — a `query` between two `snapshot`s leaves the
//!   resident state untouched (snapshot-before == snapshot-after), end to
//!   end through the protocol.

use resa_cli::replay::Substrate;
use resa_cli::serve::run_script;
use resa_sim::prelude::ReferencePolicy;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root exists")
}

fn session_script() -> String {
    std::fs::read_to_string(repo_root().join("examples/serve_session.jsonl"))
        .expect("checked-in session script")
}

#[test]
fn session_transcript_matches_the_golden_file() {
    let golden = std::fs::read_to_string(repo_root().join("examples/serve_session.golden"))
        .expect("checked-in golden transcript");
    let transcript = run_script(
        &session_script(),
        8,
        ReferencePolicy::Easy,
        Substrate::Timeline,
    );
    assert_eq!(
        transcript, golden,
        "serve transcript drifted from the golden file"
    );
}

fn scenario_script() -> String {
    std::fs::read_to_string(repo_root().join("examples/scenario_session.jsonl"))
        .expect("checked-in scenario script")
}

#[test]
fn scenario_transcript_matches_the_golden_file() {
    // The scenario ops end to end: inject/revoke with a mid-run preemption,
    // deadline admission at the exact bound (committed), past it (rejected
    // and boosted), and a moldable submission.
    let golden = std::fs::read_to_string(repo_root().join("examples/scenario_session.golden"))
        .expect("checked-in scenario golden");
    let transcript = run_script(
        &scenario_script(),
        8,
        ReferencePolicy::Easy,
        Substrate::Timeline,
    );
    assert_eq!(
        transcript, golden,
        "scenario transcript drifted from the golden file"
    );
}

#[test]
fn query_probe_is_pure_through_the_protocol() {
    // snapshot → query → snapshot: the probe must not change the snapshot,
    // the stats, or any later answer.
    let script = "\
{\"op\":\"reserve\",\"width\":3,\"duration\":10,\"start\":2}\n\
{\"op\":\"submit\",\"width\":2,\"duration\":4}\n\
{\"op\":\"snapshot\"}\n{\"op\":\"stats\"}\n\
{\"op\":\"query\",\"width\":4,\"duration\":5}\n\
{\"op\":\"snapshot\"}\n{\"op\":\"stats\"}\n";
    let transcript = run_script(script, 4, ReferencePolicy::Easy, Substrate::Timeline);
    let lines: Vec<&str> = transcript.lines().collect();
    assert_eq!(lines.len(), 7, "{transcript}");
    assert_eq!(lines[2], lines[5], "query mutated the snapshot");
    assert_eq!(lines[3], lines[6], "query mutated the stats");
    assert!(lines[4].contains("\"start\":12"), "{}", lines[4]);
}

#[test]
fn serve_cli_surface() {
    // --help is served in-process; unknown flags and bad values are usage
    // errors, mirroring the other subcommands.
    let help = resa_cli::run(&["serve", "--help"]).unwrap();
    assert!(help.stdout.contains("resident scheduling service"));
    assert!(matches!(
        resa_cli::run(&["serve", "--machines", "0", "--script", "x"]),
        Err(resa_cli::CliError::Usage(_))
    ));
    assert!(matches!(
        resa_cli::run(&["serve", "--policy", "sjf", "--script", "x"]),
        Err(resa_cli::CliError::Usage(_))
    ));
    // `--substrate` is gone: the service runs on the timeline.
    match resa_cli::run(&["serve", "--substrate", "profile", "--script", "x"]) {
        Err(resa_cli::CliError::Usage(msg)) => assert!(msg.contains("unknown option"), "{msg}"),
        other => panic!("expected a usage error, got {other:?}"),
    }
    assert!(matches!(
        resa_cli::run(&["serve", "--script", "/nonexistent/session.jsonl"]),
        Err(resa_cli::CliError::Io { .. })
    ));
    // A script run through the public CLI face returns the transcript.
    let script_path = repo_root().join("examples/serve_session.jsonl");
    let script_path = script_path.display().to_string();
    let out = resa_cli::run(&["serve", "--machines", "8", "--script", &script_path]).unwrap();
    assert_eq!(out.violations, 0);
    assert!(out.stdout.ends_with("{\"ok\":true,\"op\":\"shutdown\"}\n"));
}

#[cfg(unix)]
#[test]
fn serve_binary_answers_over_a_unix_socket() {
    use std::io::{BufRead, BufReader, Write as _};
    use std::os::unix::net::UnixStream;
    use std::process::Command;
    let sock = std::env::temp_dir().join(format!("resa-serve-test-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let mut child = Command::new(env!("CARGO_BIN_EXE_resa"))
        .args(["serve", "--machines", "4", "--unix", sock.to_str().unwrap()])
        .spawn()
        .expect("resa binary runs");
    // Wait for the listener to come up.
    let stream = (0..100)
        .find_map(|_| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            UnixStream::connect(&sock).ok()
        })
        .expect("service came up within 2s");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    writer
        .write_all(b"{\"op\":\"submit\",\"width\":2,\"duration\":3}\n")
        .unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"job\":0"), "{line}");
    line.clear();
    writer.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"op\":\"shutdown\""), "{line}");
    let status = child.wait().unwrap();
    assert!(status.success());
}

#[test]
fn serve_binary_smoke_over_stdin() {
    // Drive the real binary once over a pipe: stdin protocol, exit 0.
    use std::io::Write as _;
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_resa"))
        .args(["serve", "--machines", "4", "--policy", "fcfs"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("resa binary runs");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"{\"op\":\"submit\",\"width\":2,\"duration\":3}\n{\"op\":\"shutdown\"}\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"op\":\"submit\",\"job\":0"), "{stdout}");
    assert!(
        stdout.ends_with("{\"ok\":true,\"op\":\"shutdown\"}\n"),
        "{stdout}"
    );
}

#[test]
fn snapshot_since_paginates_records_by_job_id() {
    // Three jobs complete; `since` trims the record list to ids strictly
    // greater than the given one, while the metrics stay whole-run.
    let script = "\
{\"op\":\"submit\",\"width\":2,\"duration\":3}\n\
{\"op\":\"submit\",\"width\":2,\"duration\":3}\n\
{\"op\":\"submit\",\"width\":2,\"duration\":3}\n\
{\"op\":\"drain\"}\n\
{\"op\":\"snapshot\"}\n\
{\"op\":\"snapshot\",\"since\":0}\n\
{\"op\":\"snapshot\",\"since\":2}\n";
    let transcript = run_script(script, 4, ReferencePolicy::Easy, Substrate::Timeline);
    let lines: Vec<&str> = transcript.lines().collect();
    assert_eq!(lines.len(), 7, "{transcript}");
    let full = lines[4];
    let after0 = lines[5];
    let after2 = lines[6];
    assert!(
        full.contains("\"job\":0") && full.contains("\"job\":2"),
        "{full}"
    );
    assert!(
        !after0.contains("\"job\":0")
            && after0.contains("\"job\":1")
            && after0.contains("\"job\":2"),
        "{after0}"
    );
    assert!(!after2.contains("\"job\":"), "{after2}");
    // Pagination filters records only — the metrics objects are identical.
    let metrics = |line: &str| {
        let at = line.find("\"metrics\":").expect("snapshot carries metrics");
        line[at..].to_string()
    };
    assert_eq!(metrics(full), metrics(after0));
    assert_eq!(metrics(full), metrics(after2));
}

#[test]
fn retiring_session_preserves_stats_and_metrics() {
    // The same session with and without --retire: stats answers are
    // byte-identical, snapshot metrics are byte-identical, and the retired
    // records land in --records-out as JSON lines carrying the original ids.
    let dir = std::env::temp_dir();
    let tag = std::process::id();
    let script_path = dir.join(format!("resa-retire-script-{tag}.jsonl"));
    let records_path = dir.join(format!("resa-retire-records-{tag}.jsonl"));
    let script = "\
{\"op\":\"submit\",\"width\":4,\"duration\":5}\n\
{\"op\":\"submit\",\"width\":4,\"duration\":5}\n\
{\"op\":\"submit\",\"width\":2,\"duration\":7}\n\
{\"op\":\"advance\",\"to\":6}\n\
{\"op\":\"stats\"}\n\
{\"op\":\"drain\"}\n\
{\"op\":\"stats\"}\n\
{\"op\":\"snapshot\"}\n\
{\"op\":\"shutdown\"}\n";
    std::fs::write(&script_path, script).unwrap();
    let script_arg = script_path.display().to_string();
    let records_arg = records_path.display().to_string();
    let plain = resa_cli::run(&["serve", "--machines", "4", "--script", &script_arg])
        .unwrap()
        .stdout;
    let retired = resa_cli::run(&[
        "serve",
        "--machines",
        "4",
        "--script",
        &script_arg,
        "--retire",
        "--records-out",
        &records_arg,
    ])
    .unwrap()
    .stdout;
    let plain_lines: Vec<&str> = plain.lines().collect();
    let retired_lines: Vec<&str> = retired.lines().collect();
    assert_eq!(plain_lines.len(), retired_lines.len());
    // Every non-snapshot response is byte-identical (retirement is invisible
    // to the protocol except through the snapshot record list).
    for (p, r) in plain_lines.iter().zip(&retired_lines) {
        if !p.contains("\"op\":\"snapshot\"") {
            assert_eq!(p, r);
        }
    }
    // Snapshot: records drained into the sink, metrics merged bit-exactly.
    let snap_plain = plain_lines[7];
    let snap_retired = retired_lines[7];
    assert!(snap_retired.contains("\"schedule\":[]"), "{snap_retired}");
    let metrics = |line: &str| {
        let at = line.find("\"metrics\":").expect("snapshot carries metrics");
        line[at..].to_string()
    };
    assert_eq!(metrics(snap_plain), metrics(snap_retired));
    // The sink holds all three records, in retirement order, original ids.
    let records = std::fs::read_to_string(&records_path).unwrap();
    let ids: Vec<&str> = records
        .lines()
        .map(|l| {
            assert!(l.starts_with('{') && l.contains("\"started\":"), "{l}");
            &l[..l.find(',').unwrap()]
        })
        .collect();
    assert_eq!(ids, vec!["{\"job\":0", "{\"job\":1", "{\"job\":2"]);
    let _ = std::fs::remove_file(&script_path);
    let _ = std::fs::remove_file(&records_path);
}

/// `--records-out` without `--retire` has nothing to write. (`--retire`
/// composes with every transport and with `--journal`.)
#[test]
fn retire_flag_combinations_are_usage_errors() {
    let args = ["serve", "--records-out", "r.jsonl", "--script", "x"];
    assert!(
        matches!(resa_cli::run(&args), Err(resa_cli::CliError::Usage(_))),
        "{args:?} must be rejected"
    );
}

/// A `--records-out` file that cannot take the records (`BufWriter` reports
/// the failure at flush time) is said so once on stderr; the session itself
/// answers exactly as it would have.
#[cfg(target_os = "linux")]
#[test]
fn unwritable_records_out_is_reported_not_swallowed() {
    use std::process::Command;
    let script_path =
        std::env::temp_dir().join(format!("resa-devfull-script-{}.jsonl", std::process::id()));
    let script = "\
{\"op\":\"submit\",\"width\":2,\"duration\":3}\n\
{\"op\":\"advance\",\"to\":5}\n\
{\"op\":\"submit\",\"width\":1,\"duration\":1}\n\
{\"op\":\"drain\"}\n\
{\"op\":\"stats\"}\n";
    std::fs::write(&script_path, script).unwrap();
    let serve = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_resa"))
            .args(["serve", "--machines", "4", "--retire", "--script"])
            .arg(&script_path)
            .args(extra)
            .output()
            .expect("spawn resa serve")
    };
    let reference = serve(&[]);
    let full = serve(&["--records-out", "/dev/full"]);
    let _ = std::fs::remove_file(&script_path);
    assert!(full.status.success(), "{full:?}");
    assert_eq!(full.stdout, reference.stdout, "the transcript changed");
    let stderr = String::from_utf8_lossy(&full.stderr);
    let reports: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("--records-out /dev/full: "))
        .collect();
    assert_eq!(reports.len(), 1, "stderr: {stderr}");
    assert!(
        reports[0].ends_with("; further records are dropped"),
        "{stderr}"
    );
}
