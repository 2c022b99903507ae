//! Golden-output tests of the `resa` CLI.
//!
//! **Golden files** — `resa figure 3 --quick --format json` must reproduce
//! the checked-in payload byte for byte (the Figure-3 numbers are the
//! paper's closed-form adversarial family, so any drift is a regression).

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root exists")
}

fn fixture() -> String {
    repo_root()
        .join("examples/fixture.swf")
        .display()
        .to_string()
}

#[test]
fn figure3_quick_json_matches_the_golden_file() {
    let golden = include_str!("golden/figure3_quick.json");
    let out = resa_cli::run(&["figure", "3", "--quick", "--format", "json"]).unwrap();
    assert_eq!(out.violations, 0);
    assert_eq!(
        out.stdout, golden,
        "figure 3 JSON drifted from the golden file"
    );
}

#[test]
fn deadline_sweep_matches_the_golden_file() {
    // The checked-in 2-cell scenario sweep (deadline admission + failure
    // drains + labeled jobs dimension) — CI additionally pipes it through
    // the release binary. Exit code 2 territory (violations > 0) would mean
    // a committed deadline was missed or a job overlapped a drain.
    let golden = std::fs::read_to_string(repo_root().join("examples/sweep_deadline.golden"))
        .expect("checked-in sweep golden");
    let spec = repo_root().join("examples/sweep_deadline.json");
    let out = resa_cli::run(&[
        "sweep",
        &spec.display().to_string(),
        "--threads",
        "1",
        "--format",
        "json",
    ])
    .unwrap();
    assert_eq!(out.violations, 0);
    assert_eq!(
        out.stdout, golden,
        "deadline sweep drifted from the golden file"
    );
}

#[test]
fn figure_json_is_byte_stable_across_runner_modes() {
    for which in ["1", "2", "3", "4"] {
        let parallel = resa_cli::run(&["figure", which, "--quick", "--format", "json"]).unwrap();
        let sequential = resa_cli::run(&[
            "figure",
            which,
            "--quick",
            "--format",
            "json",
            "--threads",
            "1",
        ])
        .unwrap();
        assert_eq!(
            parallel.stdout, sequential.stdout,
            "figure {which} diverged between parallel and sequential runners"
        );
    }
}

#[test]
fn replay_applies_warmup_and_overlays() {
    let trace = fixture();
    let out = resa_cli::run(&[
        "replay", &trace, "--warmup", "10", "--policy", "greedy", "--format", "json",
    ])
    .unwrap();
    assert!(out.stdout.contains("\"dropped_by_warmup\": 5"));
    assert!(out.stdout.contains("\"jobs\": 5"));

    let with_stairs = resa_cli::run(&[
        "replay",
        &trace,
        "--reservations",
        "nonincreasing:3",
        "--format",
        "json",
    ])
    .unwrap();
    assert!(with_stairs.stdout.contains("\"class\": \"NonIncreasing\""));
}

#[test]
fn replay_rejects_bad_inputs() {
    assert!(matches!(
        resa_cli::run(&["replay", "/nonexistent/trace.swf"]),
        Err(resa_cli::CliError::Io { .. })
    ));
    let trace = fixture();
    assert!(matches!(
        resa_cli::run(&["replay", &trace, "--policy", "sjf"]),
        Err(resa_cli::CliError::Usage(_))
    ));
    // The fixture declares MaxProcs: 16; a smaller forced cluster must be
    // rejected by the strict SWF width validation, with the line number.
    let err = resa_cli::run(&["replay", &trace, "--machines", "8"]).unwrap_err();
    match err {
        resa_cli::CliError::Parse(msg) => {
            assert!(msg.contains("16 processors"), "{msg}");
            assert!(msg.contains("line"), "{msg}");
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
}

#[test]
fn sweep_quick_spec_runs_clean() {
    let spec = repo_root().join("examples/sweep_quick.json");
    let spec = spec.display().to_string();
    let out = resa_cli::run(&["sweep", &spec, "--format", "json"]).unwrap();
    assert_eq!(out.violations, 0);
    assert!(out.stdout.contains("\"policy\": \"easy\""));
    // Runner-mode determinism, end to end through the CLI.
    let seq = resa_cli::run(&["sweep", &spec, "--format", "json", "--threads", "1"]).unwrap();
    assert_eq!(out.stdout, seq.stdout);
}

#[test]
fn resa_binary_smoke() {
    // Drive the real binary once: `resa figure 3 --quick --format json`
    // must exit 0 and print the golden payload.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_resa"))
        .args(["figure", "3", "--quick", "--format", "json"])
        .output()
        .expect("resa binary runs");
    assert!(output.status.success());
    assert_eq!(
        String::from_utf8_lossy(&output.stdout),
        include_str!("golden/figure3_quick.json")
    );
    // Usage errors exit with code 1.
    let bad = std::process::Command::new(env!("CARGO_BIN_EXE_resa"))
        .args(["figure", "9"])
        .output()
        .expect("resa binary runs");
    assert_eq!(bad.status.code(), Some(1));
}
