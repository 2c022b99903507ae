//! One `resa replay` or `resa sweep` process, run to its own exit and
//! checked on its JSON output.

use crate::procwatch;
use crate::Session;
use serde::Value;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Longest one CLI run may take.
const RUN_LIMIT: Duration = Duration::from_secs(150);

/// Compress `plain` to `gz` with the system `gzip` (dynamic-Huffman deflate
/// blocks, as archive logs are), falling back to `python3 -m gzip`. Never the
/// repository's own `write_gz`: it only emits stored blocks, which would
/// leave the inflater out of the measurement.
pub fn gzip(plain: &Path, gz: &Path) -> Result<(), String> {
    let out = std::fs::File::create(gz).map_err(|e| format!("{}: {e}", gz.display()))?;
    let system = Command::new("gzip")
        .arg("-c")
        .arg(plain)
        .stdin(Stdio::null())
        .stdout(out)
        .status();
    if matches!(system, Ok(s) if s.success()) {
        return Ok(());
    }
    // `python3 -m gzip <file>` writes <file>.gz next to it and keeps <file>.
    let python = Command::new("python3")
        .args(["-m", "gzip"])
        .arg(plain)
        .stdin(Stdio::null())
        .status();
    if matches!(python, Ok(s) if s.success()) {
        let made = std::path::PathBuf::from(format!("{}.gz", plain.display()));
        if made != gz {
            std::fs::rename(&made, gz).map_err(|e| format!("{}: {e}", made.display()))?;
        }
        return Ok(());
    }
    Err("neither `gzip` nor `python3 -m gzip` is available to compress the trace".to_string())
}

/// Run the binary once on nothing, so that it is paged in before a timed run
/// (users do not pay a cold page cache on every run). Returns the time taken,
/// which is set-up.
pub fn warm_up(resa: &Path) -> Result<f64, String> {
    let started = Instant::now();
    let status = Command::new(resa)
        .arg("help")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawn {}: {e}", resa.display()))?;
    if !status.success() {
        return Err(format!("`resa help` exited with {status}"));
    }
    Ok(started.elapsed().as_secs_f64())
}

/// Run `resa <args>` with stdout captured to `out_file`; return what it cost
/// and its stdout.
fn run(resa: &Path, args: &[&str], out_file: &Path) -> Result<(procwatch::Exited, String), String> {
    let stdout =
        std::fs::File::create(out_file).map_err(|e| format!("{}: {e}", out_file.display()))?;
    let started = Instant::now();
    let child = Command::new(resa)
        .args(args)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn resa {}: {e}", args[0]))?;
    let exited = procwatch::watch(child, started, RUN_LIMIT).map_err(|e| e.to_string())?;
    let text =
        std::fs::read_to_string(out_file).map_err(|e| format!("{}: {e}", out_file.display()))?;
    Ok((exited, text))
}

fn session(
    setup_s: f64,
    exited: procwatch::Exited,
    units: u64,
    output: &str,
    check_errors: Vec<String>,
) -> Session {
    Session {
        setup_s,
        work: if check_errors.is_empty() { units } else { 0 },
        attempted: units,
        failed: if check_errors.is_empty() { 0 } else { units },
        wall_s: exited.wall_s,
        cpu_s: exited.cpu_s,
        peak_rss_kb: exited.peak_rss_kb,
        client: None,
        output_hash: Some(benchkit::hash::fnv1a_hex(output.as_bytes())),
        check_errors,
    }
}

/// `resa replay <trace>.swf.gz --policy easy --reservations alpha:0.5
/// --format json`: exit code 0, every trace job replayed, schedule valid.
pub fn replay(resa: &Path, trace_gz: &Path, out_file: &Path, jobs: u64) -> Result<Session, String> {
    let trace = trace_gz.to_str().ok_or("trace path is not UTF-8")?;
    let args = [
        "replay",
        trace,
        "--policy",
        "easy",
        "--reservations",
        "alpha:0.5",
        "--format",
        "json",
    ];
    let setup_s = warm_up(resa)?;
    let (exited, output) = run(resa, &args, out_file)?;
    let mut errors = Vec::new();
    if exited.status.code() != Some(0) {
        errors.push(format!("resa replay exited with {}", exited.status));
    }
    match serde_json::from_str::<Value>(&output) {
        Ok(report) => {
            if report.get("jobs") != Some(&Value::UInt(jobs)) {
                errors.push(format!(
                    "report counts {:?} jobs, trace has {jobs}",
                    report.get("jobs")
                ));
            }
            if report.get("schedule_valid") != Some(&Value::Bool(true)) {
                errors.push("report says schedule_valid is not true".to_string());
            }
            if report.get("violations") != Some(&Value::UInt(0)) {
                errors.push(format!(
                    "report counts violations: {:?}",
                    report.get("violations")
                ));
            }
        }
        Err(e) => errors.push(format!("replay output is not JSON: {e}")),
    }
    Ok(session(setup_s, exited, jobs, &output, errors))
}

/// `resa sweep <spec> --threads <cores> --format json --seed <seed>`: exit
/// code 0 (2 would be a violated paper guarantee or a sanity violation), one
/// row per policy, every row aggregating all its seeds.
pub fn sweep(
    resa: &Path,
    spec: &Path,
    out_file: &Path,
    seed: u64,
    threads: usize,
    policies: usize,
    seeds: usize,
) -> Result<Session, String> {
    let spec = spec.to_str().ok_or("spec path is not UTF-8")?;
    let (threads, seed) = (threads.to_string(), seed.to_string());
    let args = [
        "sweep",
        spec,
        "--threads",
        &threads,
        "--format",
        "json",
        "--seed",
        &seed,
    ];
    let setup_s = warm_up(resa)?;
    let (exited, output) = run(resa, &args, out_file)?;
    let mut errors = Vec::new();
    if exited.status.code() != Some(0) {
        errors.push(format!("resa sweep exited with {}", exited.status));
    }
    match serde_json::from_str::<Value>(&output) {
        Ok(rows) => {
            let rows = rows.as_array().unwrap_or(&[]);
            if rows.len() != policies {
                errors.push(format!("{} rows for {policies} policies", rows.len()));
            }
            if rows
                .iter()
                .any(|r| r.get("cells") != Some(&Value::UInt(seeds as u64)))
            {
                errors.push(format!("a row does not aggregate {seeds} cells"));
            }
        }
        Err(e) => errors.push(format!("sweep output is not JSON: {e}")),
    }
    Ok(session(
        setup_s,
        exited,
        (policies * seeds) as u64,
        &output,
        errors,
    ))
}
