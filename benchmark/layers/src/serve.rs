//! The three `serve-*` workloads, in-process: the same generated op scripts
//! replayed through `ScheduleService` directly, through the protocol layer
//! (`run_script`), through a `ServiceClient`, and — `serve-durable` — through
//! a `JournaledService` at each fsync policy.

use crate::ops::{
    interleave, parse_script, resolved_script, Replayer, ScriptOp, CLIENT_SPANS, JOURNAL_SPANS,
    SERVICE_SPANS,
};
use crate::{timeline, Collector};
use benchkit::gen::SERVE_MACHINES;
use benchkit::spans::Tracer;
use benchkit::stats::median;
use resa_cli::replay::Substrate;
use resa_core::prelude::*;
use resa_sim::prelude::*;
use std::time::Instant;

type Service = ScheduleService<AvailabilityTimeline>;

const POLICY: ReferencePolicy = ReferencePolicy::Easy;

/// Ops after which the first `capture` is timed (`capture_us_first`).
const FIRST_CAPTURE_AT: usize = 1_000;
/// Captures timed at each point; the figure is their median.
const CAPTURES: usize = 7;
/// Ops replayed at the `batch` and `every` fsync policies. Each mutating op
/// costs a device flush there, so the whole script would take minutes.
const FSYNC_OPS: usize = 2_000;

fn fresh() -> Service {
    ScheduleService::new(POLICY, AvailabilityTimeline::constant(SERVE_MACHINES))
}

/// What the writer thread does after every batch, through public functions:
/// counters, frozen timeline, instance and schedule of the session so far.
/// Returns the median time of [`CAPTURES`] captures in microseconds.
fn capture_us(c: &mut Collector, svc: &Service, request: u64) -> f64 {
    let times: Vec<f64> = (0..CAPTURES)
        .map(|i| {
            let ns = c.span("sim.concurrent.capture", request, || {
                std::hint::black_box((
                    svc.stats(),
                    svc.freeze_timeline(i as u64),
                    svc.to_instance(),
                    svc.schedule().clone(),
                ));
            });
            ns as f64 / 1e3
        })
        .collect();
    median(&times)
}

fn read_scripts(c: &Collector) -> Result<(Vec<ScriptOp>, Vec<Vec<ScriptOp>>), String> {
    let preload = match std::fs::read_to_string(c.inputs.join("preload.jsonl")) {
        Ok(text) => parse_script(0, &text)?,
        Err(_) => Vec::new(),
    };
    let mut conns = Vec::new();
    for conn in 0.. {
        let path = c.inputs.join(format!("conn{conn}.jsonl"));
        match std::fs::read_to_string(&path) {
            Ok(text) => conns.push(parse_script(conn, &text)?),
            Err(_) if conn > 0 => break,
            Err(e) => return Err(format!("{}: {e}", path.display())),
        }
    }
    Ok((preload, conns))
}

/// Bytes this process has asked the kernel to write so far.
fn written_bytes() -> Option<u64> {
    let io = std::fs::read_to_string("/proc/self/io").ok()?;
    let line = io.lines().find(|l| l.starts_with("wchar:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

fn sum(v: &[f64]) -> f64 {
    v.iter().sum()
}

pub fn run(c: &mut Collector, workload: &str) -> Result<(), String> {
    let (preload, conns) = read_scripts(c)?;
    let ops = interleave(&conns);
    let n_ops = ops.len() as f64;
    let writes = ops.iter().filter(|o| o.op.is_write()).count() as f64;

    // Before the root span opens: the same direct replay with the tracer off
    // and on, alternately, keeping the faster of each. Their difference is
    // what recording the spans costs. (Identical passes differ by tens of
    // percent on a shared host, so single passes cannot be compared.)
    let direct_pass_s = |tracer: &mut Tracer| {
        let mut svc = fresh();
        let mut replayer = Replayer::default();
        replayer.run(&mut svc, &preload, &SERVICE_SPANS, &mut Tracer::new(false));
        let started = Instant::now();
        replayer.run(&mut svc, &ops, &SERVICE_SPANS, tracer);
        started.elapsed().as_secs_f64()
    };
    let (mut untraced_s, mut traced_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..2 {
        untraced_s = untraced_s.min(direct_pass_s(&mut Tracer::new(false)));
        traced_s = traced_s.min(direct_pass_s(&mut Tracer::new(true)));
    }

    c.open_root();

    // 1. Direct `ScheduleService` calls, one span each.
    let mut svc = fresh();
    let mut replayer = Replayer::default();
    c.span("sim.service.preload", 0, || {
        replayer.run(&mut svc, &preload, &SERVICE_SPANS, &mut Tracer::new(false))
    });
    let preloaded = (!preload.is_empty()).then(|| svc.state());
    let first_span = c.tracer.spans().len();
    let split = FIRST_CAPTURE_AT.min(ops.len());
    replayer.run(&mut svc, &ops[..split], &SERVICE_SPANS, &mut c.tracer);
    let capture_first = capture_us(c, &svc, split as u64);
    replayer.run(&mut svc, &ops[split..], &SERVICE_SPANS, &mut c.tracer);
    let capture_last = capture_us(c, &svc, ops.len() as u64);
    let reserved = std::mem::take(&mut replayer.reserved);

    let mut service_ns = 0.0;
    let mut service_write_ns = Vec::new();
    for name in SERVICE_SPANS {
        let durations = c.tracer.durations_ns(first_span, name);
        service_ns += sum(&durations);
        if durations.is_empty() {
            continue;
        }
        let is_read = ["sim.service.query", "sim.service.stats"].contains(&name);
        if !is_read {
            service_write_ns.extend_from_slice(&durations);
        }
        // `stats` is a field copy; it has no metric of its own.
        if name != "sim.service.stats" {
            c.set(&format!("{name}_ns"), median(&durations));
        }
    }
    c.set(
        "sim.service.decisions_per_op",
        svc.decisions() as f64 / (preload.len() as f64 + n_ops),
    );
    c.set("sim.concurrent.capture_us_first", capture_first);
    c.set("sim.concurrent.capture_us_last", capture_last);
    c.set(
        "sim.concurrent.capture_growth",
        capture_last / capture_first,
    );
    c.set("trace.overhead_frac", (traced_s - untraced_s) / untraced_s);

    // 2. The protocol layer: the same ops as one static script through
    // `run_script` (parse, dispatch to the same service calls, encode).
    // `run_script` starts from an empty service, so the preload goes through
    // it too; a preload-only run measures that share (nothing, without one).
    let preload_reserves = preload.iter().filter(|o| o.op.kind() == 2).count();
    let preload_text = resolved_script(&preload, &reserved);
    let full_text = preload_text.clone() + &resolved_script(&ops, &reserved[preload_reserves..]);
    let (_, preload_only_ns) = c.timed("cli.serve.run_script", 0, || {
        resa_cli::serve::run_script(&preload_text, SERVE_MACHINES, POLICY, Substrate::Timeline)
    });
    let (transcript, full_ns) = c.timed("cli.serve.run_script", 1, || {
        resa_cli::serve::run_script(&full_text, SERVE_MACHINES, POLICY, Substrate::Timeline)
    });
    if transcript.lines().count() != preload.len() + ops.len()
        || !transcript.lines().all(|l| l.starts_with("{\"ok\":true"))
    {
        return Err("run_script did not acknowledge every op".to_string());
    }
    c.set(
        "cli.protocol.us_per_op",
        ((full_ns - preload_only_ns) as f64 - service_ns) / n_ops / 1e3,
    );

    // 3. One in-process `ServiceClient`: writes round-trip through the writer
    // thread (per-request reply channel, queue hop, capture, reply), reads
    // are answered from the published snapshot.
    let restored = || match &preloaded {
        Some(state) => ScheduleService::restore(
            POLICY,
            state,
            AvailabilityTimeline::constant(SERVE_MACHINES),
        ),
        None => fresh(),
    };
    let front = ConcurrentService::new(restored());
    let mut client = front.client();
    let first_span = c.tracer.spans().len();
    Replayer::default().run(&mut client, &ops, &CLIENT_SPANS, &mut c.tracer);
    drop(client);
    let (final_svc, _) = front.shutdown();
    let roundtrips = c
        .tracer
        .durations_ns(first_span, "sim.concurrent.roundtrip");
    let queries = c
        .tracer
        .durations_ns(first_span, "sim.concurrent.snapshot_query");
    let stats_reads = c
        .tracer
        .durations_ns(first_span, "sim.concurrent.snapshot_stats");
    c.set("sim.concurrent.roundtrip_us", median(&roundtrips) / 1e3);
    c.set(
        "sim.concurrent.queue_publish_us",
        (median(&roundtrips) - median(&service_write_ns)) / 1e3,
    );
    c.set("sim.concurrent.snapshot_query_ns", median(&queries));
    c.set(
        "_inproc_mean_roundtrip_us",
        (sum(&roundtrips) + sum(&queries) + sum(&stats_reads)) / n_ops / 1e3,
    );

    // What `ServiceClient` pays per write before any work happens: a fresh
    // reply channel — create, one send, one receive, drop — on one thread.
    const CHANNELS: usize = 10_000;
    let ns = c.span("sim.concurrent.reply_channel", 0, || {
        for generation in 0..CHANNELS as u64 {
            let (tx, rx) = std::sync::mpsc::channel::<WriteReply>();
            tx.send(WriteReply {
                result: Err(ServiceError::ServiceStopped),
                now: Time::ZERO,
                generation,
            })
            .expect("the receiver is alive");
            std::hint::black_box(rx.recv().expect("one reply was sent"));
        }
    });
    c.set(
        "sim.concurrent.reply_channel_ns",
        ns as f64 / CHANNELS as f64,
    );

    // 4. As many client threads as the socket run has connections: how many
    // writes the writer folds into one published snapshot.
    let front = ConcurrentService::new(restored());
    let before = front.latest().generation;
    let threads = conns.len().min(c.cores.max(1));
    c.span("sim.concurrent.clients", 0, || {
        std::thread::scope(|scope| {
            for script in conns.iter().take(threads) {
                let mut client = front.client();
                scope.spawn(move || {
                    Replayer::default().run(
                        &mut client,
                        script,
                        &CLIENT_SPANS,
                        &mut Tracer::new(false),
                    );
                });
            }
        });
    });
    let generations = front.latest().generation - before;
    let threaded_writes: usize = conns
        .iter()
        .take(threads)
        .map(|s| s.iter().filter(|o| o.op.is_write()).count())
        .sum();
    c.set(
        "sim.concurrent.ops_per_batch",
        threaded_writes as f64 / generations.max(1) as f64,
    );
    drop(front);

    // 5. The substrate under this workload's end state.
    let frozen = final_svc.freeze_timeline(0);
    let now = final_svc.now().ticks();
    let until = frozen
        .profile()
        .last_change()
        .ticks()
        .min(benchkit::gen::FAR_EDGE);
    timeline::measure(c, frozen.profile(), now, until, SERVE_MACHINES);

    // 6. Freezing and probing the published view of that end state.
    let freezes: Vec<f64> = (0..CAPTURES as u64)
        .map(|g| {
            c.span("core.snapshot.freeze", g, || {
                drop(std::hint::black_box(final_svc.freeze_timeline(g)))
            }) as f64
        })
        .collect();
    c.set("core.snapshot.freeze_us", median(&freezes) / 1e3);
    let probes: Vec<(u32, Dur, Time)> = ops
        .iter()
        .filter_map(|o| match o.op {
            crate::ops::Op::Query {
                width,
                duration,
                not_before,
            } => Some((
                width,
                Dur(duration),
                Time(not_before.unwrap_or(now).max(now)),
            )),
            _ => None,
        })
        .collect();
    let ns = c.span("core.snapshot.earliest_fit", 0, || {
        for &(width, dur, from) in &probes {
            std::hint::black_box(frozen.earliest_fit(width, dur, from));
        }
    });
    c.set(
        "core.snapshot.earliest_fit_ns",
        ns as f64 / probes.len().max(1) as f64,
    );

    if workload == "serve-durable" {
        journal(c, &ops, service_ns, writes)?;
    }
    Ok(())
}

/// One journaled session on a fresh journal file. Returns the per-op span
/// durations and leaves the session's parts to the caller.
fn journaled_session(
    c: &mut Collector,
    ops: &[ScriptOp],
    fsync: FsyncPolicy,
) -> Result<(Vec<f64>, Service, OpJournal, std::path::PathBuf), String> {
    let dir = c.out.join("run");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("layers-journal-{}.bin", fsync.name()));
    let _ = std::fs::remove_file(&path);
    let cfg = JournalCfg {
        fsync,
        snapshot_every: 1024,
    };
    let (journal, _) = OpJournal::open(&path, SERVE_MACHINES, POLICY, cfg)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let mut journaled = JournaledService::new(fresh(), journal);
    let first_span = c.tracer.spans().len();
    Replayer::default().run(&mut journaled, ops, &JOURNAL_SPANS, &mut c.tracer);
    let durations = c.tracer.durations_ns(first_span, "sim.journal.op");
    let (svc, journal) = journaled.into_parts();
    Ok((durations, svc, journal, path))
}

/// `sim.journal.*`: the sequential journaled mix at each fsync policy, the
/// bytes it writes, compaction and recovery.
fn journal(
    c: &mut Collector,
    ops: &[ScriptOp],
    service_ns: f64,
    writes: f64,
) -> Result<(), String> {
    // fsync off, the whole script — the policy the socket workload runs at.
    let bytes_before = written_bytes();
    let (off_ns, svc, mut journal, path) = journaled_session(c, ops, FsyncPolicy::Off)?;
    let bytes_after = written_bytes();
    c.set(
        "sim.journal.ops_per_s.off",
        ops.len() as f64 / (sum(&off_ns) / 1e9),
    );
    c.set(
        "sim.journal.append_us",
        (sum(&off_ns) - service_ns) / writes / 1e3,
    );
    if let (Some(before), Some(after)) = (bytes_before, bytes_after) {
        c.set("sim.journal.bytes_per_op", (after - before) as f64 / writes);
    }
    let state = svc.state();
    let ns = c.span("sim.journal.compact", 0, || {
        journal
            .compact(&state)
            .expect("compaction of the finished journal");
    });
    c.set("sim.journal.compact_ms", ns as f64 / 1e6);
    drop(journal);
    let (recovered, ns) = c.timed("sim.journal.recover", 0, || {
        let (journal, recovered) =
            OpJournal::open(&path, SERVE_MACHINES, POLICY, JournalCfg::default())
                .expect("journal reopens");
        let svc = recovered.restore_service(POLICY, AvailabilityTimeline::constant(SERVE_MACHINES));
        drop(journal);
        svc
    });
    if recovered.state() != state {
        return Err(
            "the recovered service differs from the one that wrote the journal".to_string(),
        );
    }
    c.set("sim.journal.recover_ms", ns as f64 / 1e6);
    let _ = std::fs::remove_file(&path);

    // batch and every, on a prefix; `off` over the same prefix is the base.
    let prefix = &ops[..FSYNC_OPS.min(ops.len())];
    let prefix_writes = prefix.iter().filter(|o| o.op.is_write()).count() as f64;
    let off_prefix_ns = sum(&off_ns[..prefix.len()]);
    for (fsync, metric) in [
        (FsyncPolicy::Batch, "sim.journal.ops_per_s.batch"),
        (FsyncPolicy::Every, "sim.journal.ops_per_s.every"),
    ] {
        let (ns, _, journal, path) = journaled_session(c, prefix, fsync)?;
        drop(journal);
        let _ = std::fs::remove_file(&path);
        c.set(metric, prefix.len() as f64 / (sum(&ns) / 1e9));
        if fsync == FsyncPolicy::Every {
            c.set(
                "sim.journal.fsync_us",
                (sum(&ns) - off_prefix_ns) / prefix_writes / 1e3,
            );
        }
    }
    Ok(())
}
