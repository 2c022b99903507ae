//! The benchmark's metric names and units: the one list both binaries, the
//! comparer and `BENCHMARK.json` agree on (a test in `e2e` checks the file).
//!
//! Every workload reports every metric. A per-layer metric of a layer that a
//! workload bypasses reads 0 there — "this layer did no work" is itself the
//! measurement the bypassing workload exists to show.

/// One metric: its name, its unit, and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "higher",
    }
}

/// What a user of the release binary sees, on every workload; measured by
/// `e2e` from outside the process with tracing off. "Work" is an acknowledged
/// op (`serve-*`), a trace job (`replay-archive`) or a cell (`sweep-grid`).
pub const END_TO_END: [Metric; 4] = [
    lower("setup_s", "s"),
    higher("work_per_s", "1/s"),
    lower("cpu_us_per_work", "us"),
    lower("peak_rss_mb", "MiB"),
];

/// Single-layer figures. `client.*` are taken by `e2e` over the socket in an
/// untraced session; everything else by `layers`, in-process, around calls
/// into each crate's public functions.
pub const PER_LAYER: [Metric; 75] = [
    // What a socket client sees beyond the end-to-end four. They are kept
    // out of the bounded set because only the serve workloads have them.
    higher("client.ops_per_s", "1/s"),
    higher("client.ops_per_s_first_tenth", "1/s"),
    higher("client.ops_per_s_last_tenth", "1/s"),
    lower("client.mean_roundtrip_us", "us"),
    lower("client.write_p50_us", "us"),
    lower("client.write_p99_us", "us"),
    lower("client.write_p999_us", "us"),
    lower("client.read_p50_us", "us"),
    lower("client.read_p99_us", "us"),
    lower("client.read_p999_us", "us"),
    lower("client.recovery_ms", "ms"),
    lower("client.failed_frac", "ratio"),
    // resa-cli
    lower("cli.protocol.us_per_op", "us"),
    lower("cli.transport.us_per_op", "us"),
    lower("cli.replay.self_s", "s"),
    // resa-sim: service
    lower("sim.service.submit_ns", "ns"),
    lower("sim.service.query_ns", "ns"),
    lower("sim.service.reserve_ns", "ns"),
    lower("sim.service.cancel_ns", "ns"),
    lower("sim.service.advance_ns", "ns"),
    lower("sim.service.decisions_per_op", "ratio"),
    // resa-sim: concurrent front
    lower("sim.concurrent.roundtrip_us", "us"),
    lower("sim.concurrent.queue_publish_us", "us"),
    lower("sim.concurrent.capture_us_first", "us"),
    lower("sim.concurrent.capture_us_last", "us"),
    lower("sim.concurrent.capture_growth", "ratio"),
    higher("sim.concurrent.ops_per_batch", "ratio"),
    lower("sim.concurrent.snapshot_query_ns", "ns"),
    lower("sim.concurrent.reply_channel_ns", "ns"),
    // resa-sim: journal
    lower("sim.journal.append_us", "us"),
    lower("sim.journal.fsync_us", "us"),
    higher("sim.journal.ops_per_s.every", "1/s"),
    higher("sim.journal.ops_per_s.batch", "1/s"),
    higher("sim.journal.ops_per_s.off", "1/s"),
    lower("sim.journal.bytes_per_op", "B"),
    lower("sim.journal.compact_ms", "ms"),
    lower("sim.journal.recover_ms", "ms"),
    // resa-sim: streaming loop, engine, policy
    higher("sim.stream.jobs_per_s", "1/s"),
    lower("sim.stream.peak_active", "count"),
    lower("sim.stream.peak_slots", "count"),
    higher("sim.engine.jobs_per_s", "1/s"),
    lower("sim.policy.easy.decisions", "count"),
    higher("sim.policy.easy.backfills", "count"),
    // resa-core
    lower("core.timeline.breakpoints", "count"),
    lower("core.timeline.earliest_fit_ns", "ns"),
    lower("core.timeline.reserve_ns", "ns"),
    lower("core.timeline.release_ns", "ns"),
    lower("core.timeline.speculate_ns", "ns"),
    lower("core.timeline.retire_before_ns", "ns"),
    lower("core.snapshot.freeze_us", "us"),
    lower("core.snapshot.earliest_fit_ns", "ns"),
    lower("core.bounds.lower_bound_ms", "ms"),
    lower("core.schedule.validate_ms", "ms"),
    // resa-algos
    higher("algos.fcfs.jobs_per_s", "1/s"),
    higher("algos.lsrc.jobs_per_s", "1/s"),
    higher("algos.easy.jobs_per_s", "1/s"),
    higher("algos.conservative.jobs_per_s", "1/s"),
    // resa-workloads
    higher("workloads.gzip.inflate_mb_per_s", "MB/s"),
    higher("workloads.swf.parse_lines_per_s", "1/s"),
    higher("workloads.lublin.generate_jobs_per_s", "1/s"),
    lower("workloads.reservations.alpha_ms", "ms"),
    // resa-analysis
    higher("analysis.runner.parallel_efficiency", "ratio"),
    lower("analysis.metrics.from_schedule_ms", "ms"),
    // The traced run itself: its wall time, each crate's self time in it, the
    // remainder no span covers, and what recording the spans cost.
    lower("trace.wall_s", "s"),
    lower("trace.self_s.cli", "s"),
    lower("trace.self_s.sim", "s"),
    lower("trace.self_s.core", "s"),
    lower("trace.self_s.algos", "s"),
    lower("trace.self_s.workloads", "s"),
    lower("trace.self_s.analysis", "s"),
    lower("trace.unattributed_frac", "ratio"),
    lower("trace.overhead_frac", "ratio"),
    lower("trace.spans", "count"),
    // Environment facts a reader needs beside the numbers.
    higher("env.cores", "count"),
    lower("env.gz_ratio", "ratio"),
];

/// Look a metric up by name in either list.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(m
                .name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
            assert!(m
                .unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)));
            assert!(["lower", "higher"].contains(&m.better));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(PER_LAYER.len() <= 128);
        assert_eq!(find("work_per_s").unwrap().better, "higher");
        assert!(find("nope").is_none());
    }
}
