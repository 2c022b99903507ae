//! `replay-archive`, in-process: the whole `resa_cli::replay::run` on the
//! generated `.swf.gz`, and each of its children on its own — the inflater,
//! the SWF parser, the streaming loop — so that the command's self time
//! (prescan bookkeeping, overlay generation, guarantee checks, rendering) is
//! what remains.

use crate::{timeline, Collector};
use benchkit::gen::REPLAY_MACHINES;
use resa_core::prelude::*;
use resa_sim::prelude::*;
use resa_workloads::gzip::GzipReader;
use resa_workloads::prelude::AlphaReservations;
use resa_workloads::swf::SwfStream;
use std::io::Read;

/// A [`JobSource`] over jobs already parsed: the streaming loop alone.
struct Parsed(std::vec::IntoIter<Job>);

impl JobSource for Parsed {
    fn next_job(&mut self) -> Option<Job> {
        self.0.next()
    }
}

pub fn run(c: &mut Collector) -> Result<(), String> {
    let gz_path = c.inputs.join("trace.swf.gz");
    let plain_path = c.inputs.join("trace.swf");
    let gz = std::fs::read(&gz_path).map_err(|e| format!("{}: {e}", gz_path.display()))?;
    let plain = std::fs::read(&plain_path).map_err(|e| format!("{}: {e}", plain_path.display()))?;
    let gz_arg = gz_path
        .to_str()
        .ok_or("trace path is not UTF-8")?
        .to_string();
    let args = [
        gz_arg.as_str(),
        "--policy",
        "easy",
        "--reservations",
        "alpha:0.5",
        "--format",
        "json",
    ];

    // Untraced reference: the same command with no span around it.
    let started = std::time::Instant::now();
    let reference = resa_cli::replay::run(&args).map_err(|e| e.to_string())?;
    let untraced_s = started.elapsed().as_secs_f64();

    c.open_root();

    let (outcome, whole_ns) = c.timed("cli.replay.run", 0, || resa_cli::replay::run(&args));
    let outcome = outcome.map_err(|e| e.to_string())?;
    if outcome.stdout != reference.stdout || outcome.violations != 0 {
        return Err("in-process replay is not deterministic or reports violations".to_string());
    }
    c.set(
        "trace.overhead_frac",
        (whole_ns as f64 / 1e9 - untraced_s) / untraced_s,
    );

    // The inflater alone: real deflate blocks into a sink.
    let mut buf = vec![0u8; 64 * 1024];
    let (inflated, inflate_ns) = c.timed("workloads.gzip.inflate", 0, || {
        let mut reader = GzipReader::new(gz.as_slice());
        let mut total = 0usize;
        loop {
            match reader.read(&mut buf) {
                Ok(0) => break Ok(total),
                Ok(n) => total += n,
                Err(e) => break Err(e.to_string()),
            }
        }
    });
    if inflated? != plain.len() {
        return Err("the inflater did not reproduce the plain trace".to_string());
    }
    c.set(
        "workloads.gzip.inflate_mb_per_s",
        plain.len() as f64 / 1e6 / (inflate_ns as f64 / 1e9),
    );

    // The parser alone: the plain text, held in memory.
    let (jobs, parse_ns) = c.timed("workloads.swf.parse", 0, || {
        SwfStream::new(plain.as_slice(), None).collect::<Result<Vec<Job>, _>>()
    });
    let jobs = jobs.map_err(|e| e.to_string())?;
    let lines = plain.iter().filter(|&&b| b == b'\n').count();
    c.set(
        "workloads.swf.parse_lines_per_s",
        lines as f64 / (parse_ns as f64 / 1e9),
    );

    // The streaming loop alone: pre-parsed jobs, records discarded. The
    // overlay is the one `--reservations alpha:0.5` generates by default.
    let max_release = jobs.iter().map(|j| j.release.ticks()).max().unwrap_or(0);
    let overlay = AlphaReservations {
        machines: REPLAY_MACHINES,
        alpha: Alpha::new(1, 2).expect("1/2 is a valid alpha"),
        count: 4,
        horizon: (2 * max_release).max(2000),
        max_duration: 300,
    }
    .instance(Vec::new(), 0)
    .profile();
    let n_jobs = jobs.len();
    let mut substrate = AvailabilityTimeline::from_profile(&overlay);
    let mut source = Parsed(jobs.clone().into_iter());
    let mut sink = DiscardSink::default();
    let (streamed, stream_ns) = c.timed("sim.stream.run_stream", 0, || {
        run_stream(
            &mut substrate,
            &overlay,
            &EasyPolicy,
            &mut source,
            &mut sink,
        )
    });
    if streamed.completed != n_jobs {
        return Err(format!(
            "run_stream retired {} of {n_jobs} jobs",
            streamed.completed
        ));
    }
    // The overlay above is rebuilt from constants that mirror resa-cli
    // internals. The stream must be the one the command ran, or the
    // per-layer figures describe another instance than the end-to-end run.
    let report: serde::Value =
        serde_json::from_str(&outcome.stdout).map_err(|e| format!("replay report: {e}"))?;
    let reported = |path: &[&str]| path.iter().try_fold(&report, |v, key| v.get(key));
    let same = reported(&["decisions"]) == Some(&serde::Value::UInt(streamed.decisions))
        && reported(&["metrics", "makespan"])
            == Some(&serde::Value::UInt(streamed.metrics.makespan.ticks()))
        && reported(&["metrics", "mean_wait"])
            == Some(&serde::Value::Float(streamed.metrics.mean_wait));
    if !same {
        return Err(format!(
            "the rebuilt stream took {} decisions to makespan {} (mean wait {}); \
             `replay::run` reported {:?}, {:?}, {:?}",
            streamed.decisions,
            streamed.metrics.makespan.ticks(),
            streamed.metrics.mean_wait,
            reported(&["decisions"]),
            reported(&["metrics", "makespan"]),
            reported(&["metrics", "mean_wait"]),
        ));
    }
    c.set(
        "sim.stream.jobs_per_s",
        n_jobs as f64 / (stream_ns as f64 / 1e9),
    );
    c.set("sim.stream.peak_active", streamed.peak_active as f64);
    c.set("sim.stream.peak_slots", streamed.peak_slots as f64);

    // The command reads the trace twice (prescan, then the replay proper),
    // so inflater and parser are its children twice over.
    let children_ns = 2 * (inflate_ns + parse_ns) + stream_ns;
    c.set(
        "cli.replay.self_s",
        (whole_ns as f64 - children_ns as f64) / 1e9,
    );

    // The substrate in the state the streaming loop keeps it in: the first
    // jobs of the trace placed where they fit, nothing retired yet.
    let mut loaded = AvailabilityTimeline::from_profile(&overlay);
    let window = &jobs[..jobs.len().min(4_000)];
    c.span("core.timeline.rebuild", 0, || {
        for job in window {
            if let Some(start) = loaded.earliest_fit(job.width, job.duration, job.release) {
                loaded
                    .reserve(start, job.duration, job.width)
                    .expect("earliest_fit certified the window");
            }
        }
    });
    let until = window.last().map_or(1, |j| j.release.ticks());
    timeline::measure(c, &loaded.to_profile(), 0, until, REPLAY_MACHINES / 2);
    Ok(())
}
