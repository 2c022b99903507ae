//! Seeded input generators. Every byte the program under test receives —
//! socket op streams, the SWF trace, the sweep spec — comes from here and is a
//! pure function of `(seed, Sizes)`; the program never sees the seed itself
//! except where its own CLI takes one (`resa sweep --seed`).

use crate::rng::Rng;
use std::fmt::Write as _;

/// The workloads, in the order reports list them.
pub const WORKLOADS: [&str; 5] = [
    "serve-mix",
    "serve-durable",
    "serve-probe",
    "replay-archive",
    "sweep-grid",
];

/// Where a script line carries the id its connection's latest `reserve` was
/// answered with. Reservation ids are assigned by the server in arrival
/// order across connections, so a `cancel` can only be completed at run time.
pub const LAST_RESERVATION: &str = "$R";

/// Cluster size of the three `serve-*` workloads.
pub const SERVE_MACHINES: u32 = 16;
/// Cluster size of the replayed trace.
pub const REPLAY_MACHINES: u32 = 64;
/// Cluster size of the sweep.
pub const SWEEP_MACHINES: u32 = 128;
/// Policies of the sweep grid; with `sweep_seeds` they span the cells.
pub const SWEEP_POLICIES: [&str; 5] = [
    "fcfs",
    "easy",
    "offline:lsrc",
    "offline:easy",
    "offline:conservative",
];

/// "Far" reservation windows start here: beyond anything a session's jobs or
/// standing reservations reach, so a far `reserve` always fits and never
/// changes where a job runs.
pub const FAR_EDGE: u64 = 10_000_000;

/// Every fixed size of the benchmark. Work per session is a constant of the
/// benchmark, never a duration: the serve path is not stationary (each write
/// costs more the longer the session has run), so only fixed-length sessions
/// compare across commits. `--seconds` decides how many fresh sessions run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sizes {
    pub label: &'static str,
    /// Five-request rounds per connection in `serve-mix` / `serve-durable`.
    pub serve_rounds: usize,
    /// Standing reservations preloaded by `serve-probe` (two breakpoints each).
    pub probe_reservations: usize,
    /// Jobs preloaded by `serve-probe` so that EASY has a real queue.
    pub probe_backlog: usize,
    /// `query` ops on the read connection of `serve-probe`.
    pub probe_reads: usize,
    /// reserve/cancel/advance rounds on the write connection of `serve-probe`.
    pub probe_write_rounds: usize,
    /// Jobs in the replayed trace.
    pub replay_jobs: usize,
    /// Jobs per sweep cell.
    pub sweep_jobs: usize,
    /// Seeds per sweep group (cells = policies × seeds).
    pub sweep_seeds: usize,
}

impl Sizes {
    /// The sizes every reported number is taken at.
    pub fn full() -> Sizes {
        Sizes {
            label: "full",
            serve_rounds: 2_000,
            probe_reservations: 2_000,
            probe_backlog: 400,
            probe_reads: 24_000,
            probe_write_rounds: 2_000,
            replay_jobs: 400_000,
            sweep_jobs: 2_500,
            sweep_seeds: 4,
        }
    }

    /// Reduced sizes for `--quick`: every workload and check, under a minute.
    pub fn quick() -> Sizes {
        Sizes {
            label: "quick",
            serve_rounds: 300,
            probe_reservations: 300,
            probe_backlog: 60,
            probe_reads: 1_500,
            probe_write_rounds: 150,
            replay_jobs: 40_000,
            sweep_jobs: 400,
            sweep_seeds: 2,
        }
    }

    /// Reservations of the sweep's α overlay: a tenth of the jobs.
    pub fn sweep_reservations(&self) -> usize {
        self.sweep_jobs / 10
    }

    /// Cells of the sweep grid.
    pub fn sweep_cells(&self) -> usize {
        SWEEP_POLICIES.len() * self.sweep_seeds
    }
}

/// One generated input file: name inside the workload's input directory and
/// its exact bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Input {
    pub name: &'static str,
    pub text: String,
}

/// The op streams of `serve-mix` — and, byte for byte, of `serve-durable`.
/// Each connection runs the five-request round of the repository's PR 6
/// service mix: `submit`, `query`, `reserve` a far window, `cancel` it, then
/// `advance` (connection 0, which owns the clock) or `stats` (connection 1).
/// Offered load is about 0.6 of the cluster, so EASY keeps a short queue.
pub fn serve_mix(seed: u64, sizes: &Sizes) -> Vec<Input> {
    let mut out = Vec::new();
    for (conn, name) in ["conn0.jsonl", "conn1.jsonl"].into_iter().enumerate() {
        let mut rng = Rng::new(seed, name);
        let mut text = String::with_capacity(sizes.serve_rounds * 220);
        let mut now = 0u64;
        for _ in 0..sizes.serve_rounds {
            let _ = writeln!(
                text,
                "{{\"op\":\"submit\",\"width\":{},\"duration\":{}}}",
                rng.range(1, 6),
                rng.range(1, 7)
            );
            let _ = writeln!(
                text,
                "{{\"op\":\"query\",\"width\":{},\"duration\":{}}}",
                rng.range(2, 5),
                rng.range(1, 8)
            );
            let _ = writeln!(
                text,
                "{{\"op\":\"reserve\",\"width\":{},\"duration\":4,\"start\":{}}}",
                rng.range(1, 3),
                FAR_EDGE + rng.range(0, 999)
            );
            let _ = writeln!(
                text,
                "{{\"op\":\"cancel\",\"reservation\":{LAST_RESERVATION}}}"
            );
            if conn == 0 {
                now += rng.range(2, 4);
                let _ = writeln!(text, "{{\"op\":\"advance\",\"to\":{now}}}");
            } else {
                text.push_str("{\"op\":\"stats\"}\n");
            }
        }
        out.push(Input { name, text });
    }
    out
}

/// First start of the standing reservations of `serve-probe`; the backlog
/// runs before it, the write connection's clock stays far below it.
pub const PROBE_RESERVED_FROM: u64 = 20_000;
/// Distance between consecutive standing reservations; they last less, so
/// they are disjoint and each contributes two breakpoints.
pub const PROBE_RESERVED_STEP: u64 = 10;

/// The op streams of `serve-probe`: a preload (sent on one connection before
/// the timed session, part of set-up) that leaves a large frozen timeline and
/// a waiting queue, a read connection that only issues `query`, and a write
/// connection that churns `reserve`/`cancel` at the far edge and ticks the
/// clock.
pub fn serve_probe(seed: u64, sizes: &Sizes) -> Vec<Input> {
    let mut rng = Rng::new(seed, "probe.preload");
    let mut preload = String::new();
    for k in 0..sizes.probe_reservations as u64 {
        let _ = writeln!(
            preload,
            "{{\"op\":\"reserve\",\"width\":{},\"duration\":{},\"start\":{}}}",
            rng.range(1, 4),
            rng.range(2, PROBE_RESERVED_STEP - 2),
            PROBE_RESERVED_FROM + PROBE_RESERVED_STEP * k
        );
    }
    for _ in 0..sizes.probe_backlog {
        let _ = writeln!(
            preload,
            "{{\"op\":\"submit\",\"width\":{},\"duration\":{}}}",
            rng.range(3, 8),
            rng.range(20, 100)
        );
    }

    let mut rng = Rng::new(seed, "probe.reads");
    let reserved_until =
        PROBE_RESERVED_FROM + PROBE_RESERVED_STEP * sizes.probe_reservations as u64;
    let mut reads = String::with_capacity(sizes.probe_reads * 64);
    for _ in 0..sizes.probe_reads {
        let width = rng.range(1, u64::from(SERVE_MACHINES));
        let duration = rng.range(1, 60);
        if rng.range(0, 1) == 0 {
            let _ = writeln!(
                reads,
                "{{\"op\":\"query\",\"width\":{width},\"duration\":{duration}}}"
            );
        } else {
            let _ = writeln!(
                reads,
                "{{\"op\":\"query\",\"width\":{width},\"duration\":{duration},\"not_before\":{}}}",
                rng.range(0, reserved_until)
            );
        }
    }

    let mut rng = Rng::new(seed, "probe.writes");
    let mut writes = String::with_capacity(sizes.probe_write_rounds * 160);
    for round in 1..=sizes.probe_write_rounds {
        let _ = writeln!(
            writes,
            "{{\"op\":\"reserve\",\"width\":{},\"duration\":4,\"start\":{}}}",
            rng.range(1, 3),
            FAR_EDGE + rng.range(0, 999)
        );
        let _ = writeln!(
            writes,
            "{{\"op\":\"cancel\",\"reservation\":{LAST_RESERVATION}}}"
        );
        let _ = writeln!(writes, "{{\"op\":\"advance\",\"to\":{round}}}");
    }

    vec![
        Input {
            name: "preload.jsonl",
            text: preload,
        },
        Input {
            name: "conn0.jsonl",
            text: reads,
        },
        Input {
            name: "conn1.jsonl",
            text: writes,
        },
    ]
}

/// Offered load of the replayed trace: a queue forms but stays bounded.
const REPLAY_LOAD: f64 = 0.7;

/// A release-sorted SWF trace shaped like the repository's Lublin model
/// (55 % interactive jobs of 1–30 ticks, batch jobs of 50–3 000 ticks, a
/// quarter strictly serial, widths up to half the cluster favouring powers of
/// two), with exponential interarrival gaps scaled so the offered load is
/// [`REPLAY_LOAD`]. Four fields per line — the subset `resa replay` reads.
pub fn replay_trace(seed: u64, sizes: &Sizes) -> Vec<Input> {
    let mut rng = Rng::new(seed, "replay.trace");
    let max_width = u64::from(REPLAY_MACHINES / 2);
    let width_of = |rng: &mut Rng, cap: u64| {
        if rng.unit() < 0.7 {
            let max_exp = 63 - cap.leading_zeros() as u64;
            (1u64 << rng.range(0, max_exp)).min(cap)
        } else {
            rng.range(1, cap)
        }
    };
    let log_uniform = |rng: &mut Rng, lo: f64, hi: f64| {
        ((lo.ln() + rng.unit() * (hi.ln() - lo.ln())).exp().round() as u64).max(1)
    };
    let mut shapes = Vec::with_capacity(sizes.replay_jobs);
    let mut area = 0u64;
    for _ in 0..sizes.replay_jobs {
        let interactive = rng.unit() < 0.55;
        let serial = rng.unit() < 0.25;
        let width = match (serial, interactive) {
            (true, _) => 1,
            (false, true) => width_of(&mut rng, max_width / 4),
            (false, false) => width_of(&mut rng, max_width),
        };
        let duration = if interactive {
            log_uniform(&mut rng, 1.0, 30.0)
        } else {
            log_uniform(&mut rng, 50.0, 3000.0)
        };
        area += width * duration;
        shapes.push((width, duration));
    }
    let mean_gap =
        area as f64 / (sizes.replay_jobs as f64 * REPLAY_LOAD * f64::from(REPLAY_MACHINES));

    let mut text = String::with_capacity(sizes.replay_jobs * 24);
    let _ = writeln!(text, "; MaxProcs: {REPLAY_MACHINES}");
    let _ = writeln!(
        text,
        "; resa benchmark trace: {} jobs, offered load {REPLAY_LOAD}",
        sizes.replay_jobs
    );
    let mut release = 0u64;
    for (i, (width, duration)) in shapes.into_iter().enumerate() {
        let _ = writeln!(text, "{} {release} {duration} {width}", i + 1);
        release += (-(1.0 - rng.unit()).ln() * mean_gap) as u64;
    }
    vec![Input {
        name: "trace.swf",
        text,
    }]
}

/// The sweep spec. The grid is fixed; the seed reaches the program through
/// `resa sweep --seed`, the spec's name records it.
pub fn sweep_spec(seed: u64, sizes: &Sizes) -> Vec<Input> {
    let policies: Vec<String> = SWEEP_POLICIES.iter().map(|p| format!("\"{p}\"")).collect();
    let text = format!(
        "{{\n  \"name\": \"benchmark-grid-seed{seed}\",\n  \"machines\": [{SWEEP_MACHINES}],\n  \
         \"jobs\": {},\n  \"seeds\": {},\n  \"workload\": \"lublin\",\n  \"policies\": [{}],\n  \
         \"reservations\": {{ \"family\": \"alpha\", \"alpha\": \"1/2\", \"count\": {} }}\n}}\n",
        sizes.sweep_jobs,
        sizes.sweep_seeds,
        policies.join(", "),
        sizes.sweep_reservations()
    );
    vec![Input {
        name: "spec.json",
        text,
    }]
}

/// The generated inputs of `workload`, or `None` for an unknown name.
pub fn inputs(workload: &str, seed: u64, sizes: &Sizes) -> Option<Vec<Input>> {
    Some(match workload {
        "serve-mix" | "serve-durable" => serve_mix(seed, sizes),
        "serve-probe" => serve_probe(seed, sizes),
        "replay-archive" => replay_trace(seed, sizes),
        "sweep-grid" => sweep_spec(seed, sizes),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let sizes = Sizes::quick();
        for w in WORKLOADS {
            let a = inputs(w, 11, &sizes).unwrap();
            let b = inputs(w, 11, &sizes).unwrap();
            let c = inputs(w, 12, &sizes).unwrap();
            assert_eq!(a, b, "{w}");
            assert_ne!(a, c, "{w}");
        }
        assert!(inputs("nope", 1, &sizes).is_none());
    }

    #[test]
    fn durable_streams_are_the_mix_streams() {
        let sizes = Sizes::quick();
        assert_eq!(
            inputs("serve-mix", 5, &sizes),
            inputs("serve-durable", 5, &sizes)
        );
    }

    #[test]
    fn serve_scripts_have_the_fixed_op_counts() {
        let sizes = Sizes::quick();
        let mix = serve_mix(3, &sizes);
        assert_eq!(mix.len(), 2);
        for conn in &mix {
            assert_eq!(conn.text.lines().count(), sizes.serve_rounds * 5);
        }
        assert!(mix[0].text.contains("\"op\":\"advance\""));
        assert!(!mix[1].text.contains("\"op\":\"advance\""));

        let probe = serve_probe(3, &sizes);
        assert_eq!(
            probe[0].text.lines().count(),
            sizes.probe_reservations + sizes.probe_backlog
        );
        assert_eq!(probe[1].text.lines().count(), sizes.probe_reads);
        assert!(probe[1]
            .text
            .lines()
            .all(|l| l.contains("\"op\":\"query\"")));
        assert_eq!(probe[2].text.lines().count(), sizes.probe_write_rounds * 3);
    }

    #[test]
    fn trace_is_release_sorted_and_fits_the_cluster() {
        let sizes = Sizes::quick();
        let trace = &replay_trace(9, &sizes)[0].text;
        let mut last = 0u64;
        let mut jobs = 0usize;
        for line in trace.lines().filter(|l| !l.starts_with(';')) {
            let f: Vec<u64> = line.split(' ').map(|x| x.parse().unwrap()).collect();
            assert_eq!(f.len(), 4);
            assert!(f[1] >= last, "release dates must not decrease");
            last = f[1];
            assert!(f[2] >= 1 && (1..=u64::from(REPLAY_MACHINES / 2)).contains(&f[3]));
            jobs += 1;
        }
        assert_eq!(jobs, sizes.replay_jobs);
    }

    #[test]
    fn sweep_spec_spans_the_grid() {
        let sizes = Sizes::full();
        let spec = &sweep_spec(4, &sizes)[0].text;
        let value: serde::Value = serde_json::from_str(spec).expect("spec is JSON");
        assert_eq!(
            value.get("policies").unwrap().as_array().unwrap().len() * sizes.sweep_seeds,
            sizes.sweep_cells()
        );
        assert_eq!(sizes.sweep_cells(), 20);
    }
}
