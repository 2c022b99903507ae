//! End-to-end benchmark driver for `resa`.
//!
//! Drives the release `resa` binary from outside — sockets and the CLI — on
//! inputs generated from a seed, checks its outputs, and reports what a user
//! of the binary sees. Links no `resa-*` crate. See `../README.md`.
//!
//! ```text
//! e2e --workload W --seed S --seconds N --trace 0|1   one run; last line is JSON
//! e2e [--seed S] [--quick]                            every workload, both modes
//! e2e set <out.json> [--seeds 1,2,…] [--seconds N]    a set of runs for compare
//! e2e compare <a.json> <b.json>                       the regression rule
//! ```

mod affinity;
mod cli;
mod compare;
mod procwatch;
mod serve;

use benchkit::gen::{self, Input, Sizes, WORKLOADS};
use benchkit::metrics::{END_TO_END, PER_LAYER};
use benchkit::stats::{median, quartiles};
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Fresh sessions every run takes at least, whatever `--seconds` says: every
/// reported value is a median over them.
const MIN_SESSIONS: usize = 3;

/// What one fresh session of any workload measured.
#[derive(Debug, Clone)]
pub struct Session {
    /// Set-up paid before the clock started: server start to ready,
    /// connections and preload, or paging the binary in. The caller adds the
    /// input generation and the build.
    pub setup_s: f64,
    /// Units of work acknowledged: ops, trace jobs or cells.
    pub work: u64,
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    /// CPU seconds (user + system) of the process under test over the session.
    pub cpu_s: f64,
    pub peak_rss_kb: u64,
    pub client: Option<serve::Client>,
    /// Hash of the program's stdout, where it must repeat across sessions.
    pub output_hash: Option<String>,
    pub check_errors: Vec<String>,
}

struct Ctx {
    resa: PathBuf,
    layers: PathBuf,
    out: PathBuf,
    cores: usize,
    /// What `run.sh` spent in its two `cargo build`s before this process
    /// started; part of every `setup_s`. 0 when `e2e` is started by hand.
    build_s: f64,
}

impl Ctx {
    fn from_env() -> Ctx {
        let var = |name: &str, default: &str| {
            PathBuf::from(std::env::var(name).unwrap_or_else(|_| default.to_string()))
        };
        Ctx {
            resa: var("BENCH_RESA", "target/release/resa"),
            layers: var("BENCH_LAYERS", "benchmark/target/release/layers"),
            out: var("BENCH_OUT", "benchmark/out"),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            build_s: std::env::var("BENCH_BUILD_S")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0.0),
        }
    }
}

/// The generated inputs of one workload, written where the program reads them.
struct Prepared {
    inputs: Vec<Input>,
    dir: PathBuf,
    /// `(file name, FNV-1a of its bytes)`.
    hashes: Vec<(String, String)>,
    /// Compressed ÷ plain size of the trace (`replay-archive` only).
    gz_ratio: Option<f64>,
}

fn prepare(ctx: &Ctx, workload: &str, seed: u64, sizes: &Sizes) -> Result<Prepared, String> {
    let inputs = gen::inputs(workload, seed, sizes)
        .ok_or_else(|| format!("unknown workload '{workload}' (one of {WORKLOADS:?})"))?;
    let dir = ctx
        .out
        .join("inputs")
        .join(format!("{workload}-seed{seed}-{}", sizes.label));
    // Start from an empty directory: `layers` replays every file it finds.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut hashes = Vec::new();
    for input in &inputs {
        let path = dir.join(input.name);
        std::fs::write(&path, &input.text).map_err(|e| format!("{}: {e}", path.display()))?;
        hashes.push((
            input.name.to_string(),
            benchkit::hash::fnv1a_hex(input.text.as_bytes()),
        ));
    }
    let mut gz_ratio = None;
    if workload == "replay-archive" {
        let (plain, gz) = (dir.join("trace.swf"), dir.join("trace.swf.gz"));
        cli::gzip(&plain, &gz)?;
        let size = |p: &Path| {
            std::fs::metadata(p)
                .map(|m| m.len())
                .map_err(|e| e.to_string())
        };
        let ratio = size(&gz)? as f64 / size(&plain)? as f64;
        // A stored-block (or failed) compression would leave the Huffman
        // inflater out of the replay: refuse to measure that. (Real deflate
        // takes these traces to 36-40 %; stored blocks leave them at 100 %.)
        if ratio >= 0.5 {
            return Err(format!(
                "trace.swf.gz is {:.0}% of the plain size",
                ratio * 100.0
            ));
        }
        gz_ratio = Some(ratio);
    }
    Ok(Prepared {
        inputs,
        dir,
        hashes,
        gz_ratio,
    })
}

fn one_session(
    ctx: &Ctx,
    workload: &str,
    seed: u64,
    sizes: &Sizes,
    p: &Prepared,
) -> Result<Session, String> {
    let run_dir = ctx.out.join("run");
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    match workload {
        "serve-mix" | "serve-durable" | "serve-probe" => serve::session(
            &ctx.resa,
            &run_dir,
            &p.inputs,
            workload == "serve-durable",
            ctx.cores,
        ),
        "replay-archive" => cli::replay(
            &ctx.resa,
            &p.dir.join("trace.swf.gz"),
            &run_dir.join("replay.json"),
            sizes.replay_jobs as u64,
        ),
        "sweep-grid" => cli::sweep(
            &ctx.resa,
            &p.dir.join("spec.json"),
            &run_dir.join("sweep.json"),
            seed,
            ctx.cores,
            gen::SWEEP_POLICIES.len(),
            sizes.sweep_seeds,
        ),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// Everything an untraced run of one workload produced.
struct Measured {
    sessions: Vec<Session>,
    /// Jobs or cells the traced in-process replay put through its checks,
    /// where that replay is all the run did (`--trace 1` on a CLI workload).
    traced_units: u64,
    hashes: Vec<(String, String)>,
    errors: Vec<String>,
}

/// Run fresh sessions — each with its own set-up, input generation included —
/// until `seconds` of measured session time have accumulated, and at least
/// [`MIN_SESSIONS`].
fn measure(
    ctx: &Ctx,
    workload: &str,
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
) -> Result<Measured, String> {
    let mut sessions: Vec<Session> = Vec::new();
    let mut first: Option<Prepared> = None;
    let mut errors = Vec::new();
    let mut measured_s = 0.0;
    while sessions.len() < MIN_SESSIONS || measured_s < seconds {
        let generate_started = Instant::now();
        let prepared = prepare(ctx, workload, seed, sizes)?;
        let generate_s = generate_started.elapsed().as_secs_f64();
        let mut session = one_session(ctx, workload, seed, sizes, &prepared)?;
        session.setup_s += ctx.build_s + generate_s;
        measured_s += session.wall_s;
        for e in &session.check_errors {
            errors.push(format!("session {}: {e}", sessions.len()));
        }
        match &first {
            None => first = Some(prepared),
            Some(f) => {
                if f.hashes != prepared.hashes {
                    errors.push("the same seed generated different inputs".to_string());
                }
                let first_output = &sessions[0].output_hash;
                if first_output.is_some() && *first_output != session.output_hash {
                    errors.push(format!(
                        "session {} printed different output bytes",
                        sessions.len()
                    ));
                }
            }
        }
        eprintln!(
            "  session {}: {:.4} work/s over {:.3} s, cpu {:.3} s, peak rss {} KiB, setup {:.4} s",
            sessions.len(),
            session.work as f64 / session.wall_s,
            session.wall_s,
            session.cpu_s,
            session.peak_rss_kb,
            session.setup_s
        );
        sessions.push(session);
    }
    let first = first.expect("at least one session ran");
    Ok(Measured {
        sessions,
        traced_units: 0,
        hashes: first.hashes,
        errors,
    })
}

/// Per-session values of each end-to-end metric.
fn end_to_end_values(measured: &Measured) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out = BTreeMap::new();
    let sessions = &measured.sessions;
    let col = |f: &dyn Fn(&Session) -> f64| sessions.iter().map(f).collect::<Vec<f64>>();
    out.insert("setup_s", col(&|s| s.setup_s));
    out.insert("work_per_s", col(&|s| s.work as f64 / s.wall_s));
    out.insert(
        "cpu_us_per_work",
        col(&|s| s.cpu_s * 1e6 / s.work.max(1) as f64),
    );
    out.insert("peak_rss_mb", col(&|s| s.peak_rss_kb as f64 / 1024.0));
    out
}

/// Units of work attempted and failed over a run.
fn totals(measured: &Measured) -> (u64, u64) {
    measured
        .sessions
        .iter()
        .fold((measured.traced_units, 0), |(a, f), s| {
            (a + s.attempted, f + s.failed)
        })
}

/// A JSON number of any of the three kinds the parser produces.
pub fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn metric_value(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".to_string(), Value::Float(value)),
        ("unit".to_string(), Value::Str(unit.to_string())),
    ])
}

/// The line the contract asks for: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, Value)>,
) -> String {
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::UInt(attempted.max(1))),
        ("failed".to_string(), Value::UInt(failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("values render")
}

/// The client-side figures of the serve sessions, as per-layer metrics.
fn client_metrics(measured: &Measured, out: &mut BTreeMap<String, f64>) {
    let clients: Vec<&serve::Client> = measured
        .sessions
        .iter()
        .filter_map(|s| s.client.as_ref())
        .collect();
    if clients.is_empty() {
        return;
    }
    let med = |f: &dyn Fn(&serve::Client) -> f64| {
        median(&clients.iter().map(|c| f(c)).collect::<Vec<_>>())
    };
    out.insert("client.ops_per_s".into(), med(&|c| c.ops_per_s));
    out.insert(
        "client.ops_per_s_first_tenth".into(),
        med(&|c| c.first_tenth_ops_per_s),
    );
    out.insert(
        "client.ops_per_s_last_tenth".into(),
        med(&|c| c.last_tenth_ops_per_s),
    );
    out.insert(
        "client.mean_roundtrip_us".into(),
        med(&|c| c.mean_roundtrip_us),
    );
    out.insert("client.write_p50_us".into(), med(&|c| c.write.p50));
    out.insert("client.write_p99_us".into(), med(&|c| c.write.p99));
    out.insert("client.read_p50_us".into(), med(&|c| c.read.p50));
    out.insert("client.read_p99_us".into(), med(&|c| c.read.p99));
    // p99.9 only where every session has ten samples beyond it (session
    // sizes are fixed, so the sessions agree); elsewhere it is not reported.
    let p999 = |of: &dyn Fn(&serve::Client) -> Option<f64>| {
        let values: Option<Vec<f64>> = clients.iter().map(|c| of(c)).collect();
        values.map(|v| median(&v))
    };
    if let Some(v) = p999(&|c| c.write.p999) {
        out.insert("client.write_p999_us".into(), v);
    }
    if let Some(v) = p999(&|c| c.read.p999) {
        out.insert("client.read_p999_us".into(), v);
    }
    if clients.iter().all(|c| c.recovery_s.is_some()) {
        out.insert(
            "client.recovery_ms".into(),
            med(&|c| c.recovery_s.unwrap_or(0.0) * 1e3),
        );
    }
    let (attempted, failed) = totals(measured);
    out.insert(
        "client.failed_frac".into(),
        failed as f64 / attempted.max(1) as f64,
    );
}

/// Run the traced in-process replay (`layers`) on the prepared inputs and
/// return the metrics it printed, `_`-prefixed helper values included.
fn run_layers(
    ctx: &Ctx,
    workload: &str,
    seed: u64,
    sizes: &Sizes,
    p: &Prepared,
) -> Result<BTreeMap<String, f64>, String> {
    // The in-process serve replay runs where the socket sessions run: on one
    // CPU, client and writer threads together (see `affinity`).
    let _one_cpu = workload.starts_with("serve-").then(affinity::OneCpu::pin);
    let output = Command::new(&ctx.layers)
        .args(["--workload", workload])
        .arg("--inputs")
        .arg(&p.dir)
        .arg("--out")
        .arg(&ctx.out)
        .args(["--seed", &seed.to_string(), "--sizes", sizes.label])
        .args(["--cores", &ctx.cores.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", ctx.layers.display()))?;
    if !output.status.success() {
        return Err(format!("layers exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("layers printed nothing")?;
    let value: Value = serde_json::from_str(last).map_err(|e| format!("layers output: {e}"))?;
    let mut out = BTreeMap::new();
    for (name, v) in value.as_object().ok_or("layers output is not an object")? {
        let v = number(v).ok_or_else(|| format!("layers metric {name} is not a number"))?;
        out.insert(name.clone(), v);
    }
    Ok(out)
}

/// The `--trace 1` run: per-layer metrics from the traced in-process replay,
/// plus — for the serve workloads — the socket-client figures of untraced
/// sessions (which `cli.transport.us_per_op` is derived from). The CLI
/// workloads have no client figures and run no session here.
fn per_layer(
    ctx: &Ctx,
    workload: &str,
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
) -> Result<(BTreeMap<String, f64>, Measured), String> {
    let prepared = prepare(ctx, workload, seed, sizes)?;
    let mut values = run_layers(ctx, workload, seed, sizes, &prepared)?;
    let measured = if workload.starts_with("serve-") {
        // The socket sessions share the run's time budget with the traced replay.
        measure(ctx, workload, seed, seconds / 2.0, sizes)?
    } else {
        Measured {
            sessions: Vec::new(),
            traced_units: match workload {
                "replay-archive" => sizes.replay_jobs as u64,
                _ => sizes.sweep_cells() as u64,
            },
            hashes: prepared.hashes.clone(),
            errors: Vec::new(),
        }
    };
    client_metrics(&measured, &mut values);
    if let (Some(&e2e_mean), Some(&inproc_mean), Some(&protocol)) = (
        values.get("client.mean_roundtrip_us"),
        values.get("_inproc_mean_roundtrip_us"),
        values.get("cli.protocol.us_per_op"),
    ) {
        values.insert(
            "cli.transport.us_per_op".into(),
            e2e_mean - inproc_mean - protocol,
        );
    }
    values.insert("env.cores".into(), ctx.cores as f64);
    if let Some(ratio) = prepared.gz_ratio {
        values.insert("env.gz_ratio".into(), ratio);
    }
    values.retain(|name, _| !name.starts_with('_'));
    if let Some(unknown) = values
        .keys()
        .find(|k| !PER_LAYER.iter().any(|m| m.name == k.as_str()))
    {
        return Err(format!("'{unknown}' is not a listed per-layer metric"));
    }
    Ok((values, measured))
}

fn command_text(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `dir`, from `/proc/mounts`.
fn filesystem_of(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_ascii_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

/// Environment record written into every result file.
fn env_record(ctx: &Ctx, sizes: &Sizes) -> Vec<(String, Value)> {
    let s = |v: String| Value::Str(v);
    vec![
        (
            "commit".into(),
            s(command_text("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc".into(), s(command_text("rustc", &["-V"]))),
        ("cores".into(), Value::UInt(ctx.cores as u64)),
        ("connections".into(), Value::UInt(ctx.cores.min(2) as u64)),
        ("sizes".into(), s(sizes.label.to_string())),
        ("min_sessions".into(), Value::UInt(MIN_SESSIONS as u64)),
        (
            "journal_dir".into(),
            s(ctx.out.join("run").display().to_string()),
        ),
        ("journal_dir_fs".into(), s(filesystem_of(&ctx.out))),
        ("durable_flags".into(), s(serve::DURABLE_FLAGS.join(" "))),
        (
            "serve_placement".into(),
            s(affinity::OneCpu::pin().map_or_else(
                || "unpinned (sched_setaffinity refused)".to_string(),
                |one| format!("server and clients on cpu {}", one.cpu),
            )),
        ),
    ]
}

fn hashes_value(hashes: &[(String, String)]) -> Value {
    Value::Object(
        hashes
            .iter()
            .map(|(n, h)| (n.clone(), Value::Str(h.clone())))
            .collect(),
    )
}

fn quartile_text(values: &[f64]) -> String {
    if values.len() >= 2 {
        let (q1, q3) = quartiles(values);
        format!("[q1 {q1:.4}, q3 {q3:.4}]")
    } else {
        String::new()
    }
}

/// The human-readable full run: every workload, untraced then traced, every
/// metric by name with its unit and sample count. Writes `report-seed<S>.json`.
fn full_report(ctx: &Ctx, seed: u64, seconds: f64, sizes: &Sizes) -> Result<bool, String> {
    let mut ok = true;
    let mut report = vec![
        ("env".to_string(), Value::Object(env_record(ctx, sizes))),
        ("seed".to_string(), Value::UInt(seed)),
    ];
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        println!("== {workload} (seed {seed}, {} sizes) ==", sizes.label);
        let measured = measure(ctx, workload, seed, seconds, sizes)?;
        let values = end_to_end_values(&measured);
        let mut entry = Vec::new();
        for m in END_TO_END {
            let v = &values[m.name];
            println!(
                "  {:<44} {:>14.4} {:<6} median of {} sessions {}",
                m.name,
                median(v),
                m.unit,
                v.len(),
                quartile_text(v)
            );
            entry.push((
                m.name.to_string(),
                Value::Array(v.iter().map(|x| Value::Float(*x)).collect()),
            ));
        }
        let (attempted, failed) = totals(&measured);
        println!(
            "  attempted {attempted}, failed {failed}; input hashes {:?}",
            measured.hashes
        );
        if let Some(c) = measured
            .sessions
            .iter()
            .filter_map(|s| s.client.as_ref())
            .next()
        {
            println!(
                "  latency samples per session: {} writes, {} reads \
                 (p99 has {} / {} samples beyond it)",
                c.write.samples,
                c.read.samples,
                benchkit::stats::samples_beyond(c.write.samples, 0.99),
                benchkit::stats::samples_beyond(c.read.samples, 0.99),
            );
        }
        let (layer_values, traced_sessions) = per_layer(ctx, workload, seed, seconds, sizes)?;
        for m in PER_LAYER {
            if let Some(v) = layer_values.get(m.name) {
                println!("  {:<44} {:>14.4} {}", m.name, v, m.unit);
            }
        }
        // Scaling figures mean nothing on one core: say so instead.
        if ctx.cores == 1 {
            println!("  (1 core: analysis.runner.parallel_efficiency and other scaling figures withheld)");
        }
        for e in measured.errors.iter().chain(&traced_sessions.errors) {
            println!("  CHECK FAILED: {e}");
            ok = false;
        }
        if failed > 0 {
            ok = false;
        }
        entry.push(("input_hashes".to_string(), hashes_value(&measured.hashes)));
        entry.push((
            "per_layer".to_string(),
            Value::Object(
                layer_values
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Float(*v)))
                    .collect(),
            ),
        ));
        workloads.push((workload.to_string(), Value::Object(entry)));
    }
    report.push(("workloads".to_string(), Value::Object(workloads)));
    let path = ctx
        .out
        .join(format!("report-seed{seed}-{}.json", sizes.label));
    let text = serde_json::to_string_pretty(&Value::Object(report)).expect("values render");
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ok)
}

/// A set of runs for `compare`: every workload once per seed, untraced.
fn run_set(
    ctx: &Ctx,
    out_file: &Path,
    seeds: &[u64],
    seconds: f64,
    sizes: &Sizes,
) -> Result<bool, String> {
    let mut ok = true;
    let mut table: BTreeMap<&str, BTreeMap<&str, Vec<f64>>> = BTreeMap::new();
    let mut hashes = Vec::new();
    // Workload by workload, its seeds back to back: the runs that are
    // compared with each other then share the narrowest window of host time.
    for workload in WORKLOADS {
        for &seed in seeds {
            let measured = measure(ctx, workload, seed, seconds, sizes)?;
            for e in &measured.errors {
                eprintln!("{workload} seed {seed}: CHECK FAILED: {e}");
                ok = false;
            }
            ok &= measured.sessions.iter().all(|s| s.failed == 0);
            let values = end_to_end_values(&measured);
            let line: Vec<String> = END_TO_END
                .iter()
                .map(|m| format!("{} {:.4}", m.name, median(&values[m.name])))
                .collect();
            eprintln!("{workload} seed {seed}: {}", line.join(", "));
            for m in END_TO_END {
                table
                    .entry(workload)
                    .or_default()
                    .entry(m.name)
                    .or_default()
                    .push(median(&values[m.name]));
            }
            hashes.push((
                format!("{workload}-seed{seed}"),
                hashes_value(&measured.hashes),
            ));
        }
    }
    let workloads = table
        .into_iter()
        .map(|(w, metrics)| {
            let metrics = metrics
                .into_iter()
                .map(|(m, v)| {
                    (
                        m.to_string(),
                        Value::Array(v.into_iter().map(Value::Float).collect()),
                    )
                })
                .collect();
            (w.to_string(), Value::Object(metrics))
        })
        .collect();
    let set = Value::Object(vec![
        ("env".to_string(), Value::Object(env_record(ctx, sizes))),
        (
            "seeds".to_string(),
            Value::Array(seeds.iter().map(|s| Value::UInt(*s)).collect()),
        ),
        ("seconds".to_string(), Value::Float(seconds)),
        ("input_hashes".to_string(), Value::Object(hashes)),
        ("workloads".to_string(), Value::Object(workloads)),
    ]);
    let text = serde_json::to_string_pretty(&set).expect("values render");
    std::fs::write(out_file, text + "\n").map_err(|e| format!("{}: {e}", out_file.display()))?;
    eprintln!("wrote {}", out_file.display());
    Ok(ok)
}

/// One run under the driver's contract. Prints the result line last.
fn driver_run(
    ctx: &Ctx,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: &Sizes,
) -> Result<bool, String> {
    if !trace {
        let measured = measure(ctx, workload, seed, seconds, sizes)?;
        let values = end_to_end_values(&measured);
        let metrics = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    metric_value(median(&values[m.name]), m.unit),
                )
            })
            .collect();
        return Ok(finish(&measured, metrics));
    }
    let (values, measured) = per_layer(ctx, workload, seed, seconds, sizes)?;
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let v = values.get(m.name).copied().unwrap_or(0.0);
            (m.name.to_string(), metric_value(v, m.unit))
        })
        .collect();
    Ok(finish(&measured, metrics))
}

fn finish(measured: &Measured, metrics: Vec<(String, Value)>) -> bool {
    let (attempted, failed) = totals(measured);
    for e in &measured.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    let correct = measured.errors.is_empty();
    eprintln!(
        "{} sessions, input hashes {:?}",
        measured.sessions.len(),
        measured.hashes
    );
    println!("{}", result_line(correct, attempted, failed, metrics));
    correct
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// `--flag value` pairs and bare flags after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    /// Refuses a `--flag` that is not one of `known`: a mistyped flag would
    /// otherwise fall back to a full-size default run.
    fn new(args: &[String], known: &[&str]) -> Result<Flags, String> {
        match args
            .iter()
            .find(|a| a.starts_with("--") && !known.contains(&a.as_str()))
        {
            Some(unknown) => Err(format!("unknown flag {unknown} (known: {known:?})")),
            None => Ok(Flags(args.to_vec())),
        }
    }

    fn value(&self, name: &str) -> Result<Option<&str>, String> {
        match self.0.iter().position(|a| a == name) {
            None => Ok(None),
            Some(i) => self
                .0
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or_else(|| format!("{name} expects a value")),
        }
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name)? {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name}: '{v}' is not a number")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

fn run(args: Vec<String>) -> Result<bool, String> {
    let ctx = Ctx::from_env();
    match args.first().map(String::as_str) {
        Some("compare") => {
            let (a, b) = match &args[1..] {
                [a, b] => (a, b),
                _ => return Err("usage: compare <a.json> <b.json>".to_string()),
            };
            let (table, regressed) = compare::compare(
                &read_json(a)?,
                &read_json(b)?,
                &read_json("BENCHMARK.json")?,
            )?;
            print!("{table}");
            Ok(!regressed)
        }
        Some("set") => {
            let out_file = args
                .get(1)
                .ok_or("usage: set <out.json> [--seeds 1,2,…] [--seconds N] [--quick]")?;
            let flags = Flags::new(&args[2..], &["--seeds", "--seconds", "--quick"])?;
            let seeds: Vec<u64> = flags
                .value("--seeds")?
                .unwrap_or("1,2,3,4,5,6,7,8,9,10")
                .split(',')
                .map(|s| {
                    s.parse()
                        .map_err(|_| format!("--seeds: '{s}' is not a number"))
                })
                .collect::<Result<_, _>>()?;
            let (sizes, default_seconds) = sizes_of(&flags);
            let seconds = flags.number("--seconds", default_seconds)?;
            run_set(&ctx, Path::new(out_file), &seeds, seconds, &sizes)
        }
        _ => {
            let known = ["--workload", "--seed", "--seconds", "--trace", "--quick"];
            let flags = Flags::new(&args, &known)?;
            let seed = flags.number("--seed", 1u64)?;
            let (sizes, default_seconds) = sizes_of(&flags);
            let seconds = flags.number("--seconds", default_seconds)?;
            match flags.value("--workload")? {
                Some(workload) => {
                    let trace = flags.number("--trace", 0u8)? != 0;
                    driver_run(&ctx, workload, seed, seconds, trace, &sizes)
                }
                None => full_report(&ctx, seed, seconds, &sizes),
            }
        }
    }
}

/// `--quick` selects the reduced sizes and a one-second budget per workload.
fn sizes_of(flags: &Flags) -> (Sizes, f64) {
    if flags.has("--quick") {
        (Sizes::quick(), 1.0)
    } else {
        (Sizes::full(), 10.0)
    }
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the code must name the same metrics, units and
    /// workloads: the file is what the driver reads, the code what it runs.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let file = read_json(path).unwrap();
        let names = |key: &str| -> Vec<(String, String, String)> {
            file.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| match m.get(k) {
                        Some(Value::Str(s)) => s.clone(),
                        _ => String::new(),
                    };
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let listed = |ms: &[benchkit::metrics::Metric]| -> Vec<(String, String, String)> {
            ms.iter()
                .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), listed(&END_TO_END));
        assert_eq!(names("per_layer"), listed(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        let bounds = compare::bounds(&file).unwrap();
        assert!(bounds.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 0, 0, vec![("m".to_string(), metric_value(1.5, "s"))]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"m":{"value":1.5,"unit":"s"}}}"#
        );
    }

    #[test]
    fn flags_parse() {
        let f = Flags(
            ["--seed", "7", "--quick"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        assert_eq!(f.number("--seed", 1u64), Ok(7));
        assert_eq!(f.number("--seconds", 2.5f64), Ok(2.5));
        assert!(f.has("--quick") && !f.has("--trace"));
        assert!(Flags(vec!["--seed".to_string()]).value("--seed").is_err());
        assert!(Flags::new(&["--sed".to_string()], &["--seed"]).is_err());
        assert!(Flags::new(&["--seed".to_string()], &["--seed"]).is_ok());
        assert!(Flags(vec!["--seed".into(), "x".into()])
            .number("--seed", 1u64)
            .is_err());
    }
}
