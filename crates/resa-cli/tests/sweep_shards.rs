//! Sharded-sweep tests: shard + merge reproduces the unsharded report byte
//! for byte, each shard's record log says which cells are done, a sweep
//! killed mid-run — a log cut to a few cells and half a frame, the bytes a
//! crash leaves — reruns only the cells its logs lack, and a shard dir
//! written by an older resa is refused.

use resa_core::io::{frame_record, Frames, FRAME_HEADER};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// 2 machine sizes × 2 policies × 3 seeds = 12 cells.
const SPEC: &str = r#"{
    "name": "shard-test",
    "machines": [4, 8],
    "jobs": 5,
    "seeds": 3,
    "workload": "feitelson",
    "arrivals": 4,
    "policies": ["fcfs", "easy"],
    "reservations": { "family": "alpha", "alpha": "1/2", "count": 2,
                      "horizon": 200, "max_duration": 40 }
}"#;

fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("resa-shards-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn write_spec(dir: &Path) -> String {
    let path = dir.join("spec.json");
    std::fs::write(&path, SPEC).expect("spec written");
    path.display().to_string()
}

fn resa(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_resa"))
        .args(args)
        .output()
        .expect("resa binary runs")
}

/// The payloads of a shard log: its header, then one per logged cell.
fn log_payloads(path: &Path) -> Vec<Vec<u8>> {
    let bytes = std::fs::read(path).expect("shard log");
    Frames::new(&bytes).map(<[u8]>::to_vec).collect()
}

/// Rewrite a shard log from payloads, every frame with a valid CRC.
fn write_log(path: &Path, payloads: &[Vec<u8>]) {
    let mut image = Vec::new();
    for payload in payloads {
        frame_record(&mut image, payload);
    }
    std::fs::write(path, image).expect("shard log written");
}

#[test]
fn sharded_run_all_matches_unsharded_byte_for_byte() {
    let dir = work_dir("runall");
    let spec = write_spec(&dir);
    let shard_dir = dir.join("shards");

    let unsharded = resa_cli::run(&["sweep", &spec, "--format", "json"]).unwrap();
    let sharded = resa_cli::run(&[
        "sweep",
        &spec,
        "--format",
        "json",
        "--shards",
        "3",
        "--shard-dir",
        &shard_dir.display().to_string(),
    ])
    .unwrap();
    assert_eq!(
        sharded.stdout, unsharded.stdout,
        "merged shard output must be byte-identical to the unsharded run"
    );
    assert_eq!(sharded.violations, unsharded.violations);
    // The table format merges identically too.
    let unsharded = resa_cli::run(&["sweep", &spec]).unwrap();
    let sharded = resa_cli::run(&[
        "sweep",
        &spec,
        "--shards",
        "3",
        "--shard-dir",
        &shard_dir.display().to_string(),
    ])
    .unwrap();
    assert_eq!(
        sharded.stdout, unsharded.stdout,
        "a rerun over complete logs renders the same report"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn worker_shards_plus_merge_match_unsharded() {
    let dir = work_dir("workers");
    let spec = write_spec(&dir);
    let shard_dir = dir.join("shards");
    let sd = shard_dir.display().to_string();

    // Each worker runs one shard, as separate hosts would.
    for i in 0..4 {
        let out = resa_cli::run(&[
            "sweep",
            &spec,
            "--shards",
            "4",
            "--shard",
            &i.to_string(),
            "--shard-dir",
            &sd,
        ])
        .unwrap();
        assert!(
            out.stdout.contains(&format!("shard {i}/4 complete")),
            "{}",
            out.stdout
        );
        assert!(
            out.stdout.contains("0 already logged, 3 run"),
            "{}",
            out.stdout
        );
    }
    // A worker rerun trusts its log and runs nothing.
    let out = resa_cli::run(&[
        "sweep",
        &spec,
        "--shards",
        "4",
        "--shard",
        "2",
        "--shard-dir",
        &sd,
    ])
    .unwrap();
    assert!(
        out.stdout.contains("3 already logged, 0 run"),
        "{}",
        out.stdout
    );

    let merged = resa_cli::run(&[
        "sweep",
        &spec,
        "--format",
        "json",
        "--shard-dir",
        &sd,
        "--merge",
    ])
    .unwrap();
    let unsharded = resa_cli::run(&["sweep", &spec, "--format", "json"]).unwrap();
    assert_eq!(merged.stdout, unsharded.stdout);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn foreign_or_tampered_shard_dirs_are_refused() {
    let dir = work_dir("tamper");
    let spec = write_spec(&dir);
    let shard_dir = dir.join("shards");
    let sd = shard_dir.display().to_string();

    resa_cli::run(&["sweep", &spec, "--shards", "2", "--shard-dir", &sd]).unwrap();

    // A different seed is a different sweep: the manifest refuses the dir.
    let err = resa_cli::run(&[
        "sweep",
        &spec,
        "--shards",
        "2",
        "--shard-dir",
        &sd,
        "--seed",
        "7",
    ])
    .unwrap_err();
    assert!(
        err.to_string()
            .contains("different spec, seed or shard split"),
        "{err}"
    );
    // So is a different shard split.
    let err = resa_cli::run(&["sweep", &spec, "--shards", "3", "--shard-dir", &sd]).unwrap_err();
    assert!(
        err.to_string()
            .contains("different spec, seed or shard split"),
        "{err}"
    );

    // A record whose CRC no longer matches ends the log's valid prefix:
    // --merge refuses the shard as incomplete, and a plain rerun truncates
    // the torn record and runs the cells it lost.
    let log = shard_dir.join("shard_0001.log");
    let mut bytes = std::fs::read(&log).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&log, &bytes).unwrap();
    let err = resa_cli::run(&["sweep", &spec, "--shard-dir", &sd, "--merge"]).unwrap_err();
    assert!(err.to_string().contains("not complete"), "{err}");
    assert!(err.to_string().contains("checksum mismatch"), "{err}");

    let healed = resa_cli::run(&[
        "sweep",
        &spec,
        "--format",
        "json",
        "--shards",
        "2",
        "--shard-dir",
        &sd,
    ])
    .unwrap();
    let unsharded = resa_cli::run(&["sweep", &spec, "--format", "json"]).unwrap();
    assert_eq!(healed.stdout, unsharded.stdout);

    // A cell logged twice, or one outside the shard's range (each record
    // with a valid CRC), is refused by --merge too; a rerun cuts the bad
    // record off and runs nothing.
    let mut outside = log_payloads(&log)[1].clone();
    outside[..8].copy_from_slice(&0u64.to_le_bytes());
    for (extra, needle) in [
        (log_payloads(&log)[1].clone(), "logged twice"),
        (outside, "out of range"),
    ] {
        let mut payloads = log_payloads(&log);
        payloads.push(extra);
        write_log(&log, &payloads);
        let err = resa_cli::run(&["sweep", &spec, "--shard-dir", &sd, "--merge"]).unwrap_err();
        assert!(err.to_string().contains(needle), "{err}");
        let out = resa_cli::run(&[
            "sweep",
            &spec,
            "--shards",
            "2",
            "--shard",
            "1",
            "--shard-dir",
            &sd,
        ])
        .unwrap();
        assert!(
            out.stdout.contains("6 already logged, 0 run"),
            "{}",
            out.stdout
        );
    }
    let merged = resa_cli::run(&[
        "sweep",
        &spec,
        "--format",
        "json",
        "--shard-dir",
        &sd,
        "--merge",
    ])
    .unwrap();
    assert_eq!(merged.stdout, unsharded.stdout);
    std::fs::remove_dir_all(&dir).ok();
}

/// A finished shard's worker reports the violations its log records: a
/// rerun that runs no cell still exits 2.
#[test]
fn a_finished_worker_reports_the_violations_its_log_records() {
    let dir = work_dir("violation");
    let spec = write_spec(&dir);
    let shard_dir = dir.join("shards");
    let sd = shard_dir.display().to_string();
    let worker = [
        "sweep",
        &spec,
        "--shards",
        "2",
        "--shard",
        "0",
        "--shard-dir",
        &sd,
    ];
    assert_eq!(resa(&worker).status.code(), Some(0));

    // Set the violation flag (after the cell index and the four floats) of
    // one record, re-framed with a valid CRC.
    let log = shard_dir.join("shard_0000.log");
    let mut payloads = log_payloads(&log);
    assert_eq!(payloads.len(), 7, "a header and six cells");
    assert_eq!(payloads[3][40], 0);
    payloads[3][40] = 1;
    write_log(&log, &payloads);

    let rerun = resa(&worker);
    assert_eq!(rerun.status.code(), Some(2), "{rerun:?}");
    let stdout = String::from_utf8_lossy(&rerun.stdout);
    assert!(stdout.contains("6 already logged, 0 run"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Shard dirs are scratch: one in the format of an older resa — JSON rows
/// files and done markers, a manifest with an FNV-1a fingerprint, or a
/// `RESASHD1` log whose cell records carry an exact-probe field — is
/// refused with exit 1, never merged or extended.
#[test]
fn shard_dirs_of_an_older_resa_are_refused() {
    let dir = work_dir("older");
    let spec = write_spec(&dir);
    let old_manifest = r#"{"name":"shard-test","fingerprint":"0123456789abcdef","seed":0,"total_cells":12,"shards":[[0,6],[6,12]]}"#;
    for (file, body) in [
        ("manifest.json", old_manifest),
        ("shard_0000.rows.json", "{}"),
        ("shard_0000.done.json", "{}"),
    ] {
        let shard_dir = dir.join(format!("shards-{file}"));
        std::fs::create_dir_all(&shard_dir).unwrap();
        std::fs::write(shard_dir.join(file), body).unwrap();
        let sd = shard_dir.display().to_string();
        for args in [
            vec!["sweep", &spec, "--shards", "2", "--shard-dir", &sd],
            vec!["sweep", &spec, "--shard-dir", &sd, "--merge"],
        ] {
            let out = resa(&args);
            assert_eq!(out.status.code(), Some(1), "{file}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("written by an older resa; rerun the shard"),
                "{file}: {stderr}"
            );
        }
        assert!(!shard_dir.join("shard_0000.log").exists(), "{file}");
    }

    // A finished dir rewritten the way the previous log format framed it:
    // a `RESASHD1` header, and each cell record followed by an absent-probe
    // flag byte.
    let shard_dir = dir.join("shards-resashd1");
    let sd = shard_dir.display().to_string();
    assert_eq!(
        resa(&["sweep", &spec, "--shards", "2", "--shard-dir", &sd])
            .status
            .code(),
        Some(0)
    );
    let logs = [
        shard_dir.join("shard_0000.log"),
        shard_dir.join("shard_0001.log"),
    ];
    for log in &logs {
        let mut payloads = log_payloads(log);
        payloads[0][..8].copy_from_slice(b"RESASHD1");
        for record in &mut payloads[1..] {
            record.push(0);
        }
        write_log(log, &payloads);
    }
    let before: Vec<Vec<u8>> = logs.iter().map(|l| std::fs::read(l).unwrap()).collect();
    for args in [
        vec!["sweep", &spec, "--shards", "2", "--shard-dir", &sd],
        vec![
            "sweep",
            &spec,
            "--shards",
            "2",
            "--shard",
            "1",
            "--shard-dir",
            &sd,
        ],
        vec!["sweep", &spec, "--shard-dir", &sd, "--merge"],
    ] {
        let out = resa(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("written by an older resa; rerun the shard"),
            "{args:?}: {stderr}"
        );
    }
    let after: Vec<Vec<u8>> = logs.iter().map(|l| std::fs::read(l).unwrap()).collect();
    assert_eq!(before, after, "a RESASHD1 log was resumed");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shard_flag_validation() {
    let dir = work_dir("flags");
    let spec = write_spec(&dir);
    for (args, needle) in [
        (vec!["sweep", &spec, "--shards", "2"], "--shard-dir"),
        (vec!["sweep", &spec, "--shard", "0"], "--shard-dir"),
        (vec!["sweep", &spec, "--merge"], "--shard-dir"),
        (
            vec!["sweep", &spec, "--resume"],
            "unknown option '--resume'",
        ),
        (
            vec![
                "sweep",
                &spec,
                "--shards",
                "2",
                "--shard",
                "5",
                "--shard-dir",
                "x",
            ],
            "out of range",
        ),
        (
            vec![
                "sweep",
                &spec,
                "--shard-dir",
                "x",
                "--merge",
                "--shard",
                "0",
            ],
            "drop --shard",
        ),
        (
            vec!["sweep", &spec, "--shards", "0", "--shard-dir", "x"],
            "at least 1",
        ),
    ] {
        let err = resa_cli::run(&args).unwrap_err();
        assert!(err.to_string().contains(needle), "{args:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The binary, killed mid-sweep, resumes to exactly the uninterrupted
/// result: a rerun keeps every cell the logs hold and runs only the ones
/// they lack, and `--merge` of the resumed logs prints the uninterrupted
/// result too.
#[test]
fn killed_sweep_resumes_to_the_uninterrupted_result() {
    let dir = work_dir("kill");
    let spec = write_spec(&dir);
    let shard_dir = dir.join("shards");
    let sd = shard_dir.display().to_string();
    let args = [
        "sweep",
        &spec,
        "--format",
        "json",
        "--threads",
        "1",
        "--shards",
        "2",
        "--shard-dir",
        &sd,
    ];

    // 12 cells in 2 shards of 6. The crash leaves shard 0 complete and
    // shard 1 with its header, two cells and half of its third cell's
    // frame.
    assert!(resa(&args).status.success());
    let log = shard_dir.join("shard_0001.log");
    let bytes = std::fs::read(&log).unwrap();
    let kept: usize = log_payloads(&log)[..3]
        .iter()
        .map(|p| FRAME_HEADER + p.len())
        .sum();
    let third = FRAME_HEADER + Frames::new(&bytes[kept..]).next().unwrap().len();
    std::fs::write(&log, &bytes[..kept + third / 2]).unwrap();
    assert_eq!(log_payloads(&shard_dir.join("shard_0000.log")).len(), 7);
    assert_eq!(log_payloads(&log).len(), 3);

    let resumed = resa(&args);
    assert!(resumed.status.success());
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("shard 0/2 complete — cells [0, 6): 6 already logged, 0 run"),
        "{stderr}"
    );
    assert!(
        stderr.contains("shard 1/2 complete — cells [6, 12): 2 already logged, 4 run"),
        "the rerun runs only the cells missing from the log: {stderr}"
    );

    let uninterrupted = resa(&["sweep", &spec, "--format", "json", "--threads", "1"]);
    assert!(uninterrupted.status.success());
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&uninterrupted.stdout),
        "resumed sweep diverged from the uninterrupted run"
    );

    let merged = resa(&[
        "sweep",
        &spec,
        "--format",
        "json",
        "--threads",
        "1",
        "--shard-dir",
        &sd,
        "--merge",
    ]);
    assert!(merged.status.success());
    assert_eq!(
        String::from_utf8_lossy(&merged.stdout),
        String::from_utf8_lossy(&uninterrupted.stdout),
        "merged logs diverged from the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}
