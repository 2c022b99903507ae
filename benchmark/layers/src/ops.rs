//! The generated socket op scripts, parsed into typed ops and replayed through
//! the public API of each in-process face of the service.

use benchkit::gen::LAST_RESERVATION;
use benchkit::spans::Tracer;
use resa_core::prelude::*;
use resa_sim::prelude::*;
use serde::Value;

/// One request of a generated script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Submit {
        width: u32,
        duration: u64,
    },
    Query {
        width: u32,
        duration: u64,
        not_before: Option<u64>,
    },
    Reserve {
        width: u32,
        duration: u64,
        start: u64,
    },
    /// `cancel` of the reservation this connection's latest `reserve` made.
    CancelLast,
    Advance {
        to: u64,
    },
    Stats,
}

/// Span name of each op kind on each face, and which ops mutate.
impl Op {
    pub fn kind(&self) -> usize {
        match self {
            Op::Submit { .. } => 0,
            Op::Query { .. } => 1,
            Op::Reserve { .. } => 2,
            Op::CancelLast => 3,
            Op::Advance { .. } => 4,
            Op::Stats => 5,
        }
    }

    pub fn is_write(&self) -> bool {
        !matches!(self, Op::Query { .. } | Op::Stats)
    }
}

pub const KINDS: usize = 6;
/// Span names of direct [`ScheduleService`] calls, by [`Op::kind`].
pub const SERVICE_SPANS: [&str; KINDS] = [
    "sim.service.submit",
    "sim.service.query",
    "sim.service.reserve",
    "sim.service.cancel",
    "sim.service.advance",
    "sim.service.stats",
];
/// Span names of [`ServiceClient`] calls: writes round-trip through the
/// writer thread, reads are answered from the published snapshot.
pub const CLIENT_SPANS: [&str; KINDS] = [
    "sim.concurrent.roundtrip",
    "sim.concurrent.snapshot_query",
    "sim.concurrent.roundtrip",
    "sim.concurrent.roundtrip",
    "sim.concurrent.roundtrip",
    "sim.concurrent.snapshot_stats",
];
/// Span names of [`JournaledService`] calls.
pub const JOURNAL_SPANS: [&str; KINDS] = ["sim.journal.op"; KINDS];

fn uint(value: &Value, key: &str) -> Result<u64, String> {
    match value.get(key) {
        Some(Value::UInt(v)) => Ok(*v),
        _ => Err(format!("op lacks integer '{key}'")),
    }
}

/// Parse one script line.
pub fn parse_line(line: &str) -> Result<Op, String> {
    // The placeholder is not JSON; a cancel line carries nothing else.
    if line.contains(LAST_RESERVATION) {
        return if line.contains("\"op\":\"cancel\"") {
            Ok(Op::CancelLast)
        } else {
            Err(format!("placeholder outside a cancel: {line}"))
        };
    }
    let value: Value = serde_json::from_str(line).map_err(|e| format!("{line}: {e}"))?;
    let op = match value.get("op") {
        Some(Value::Str(op)) => op.as_str(),
        _ => return Err(format!("no op in {line}")),
    };
    let width = || uint(&value, "width").map(|w| w as u32);
    Ok(match op {
        "submit" => Op::Submit {
            width: width()?,
            duration: uint(&value, "duration")?,
        },
        "query" => Op::Query {
            width: width()?,
            duration: uint(&value, "duration")?,
            not_before: uint(&value, "not_before").ok(),
        },
        "reserve" => Op::Reserve {
            width: width()?,
            duration: uint(&value, "duration")?,
            start: uint(&value, "start")?,
        },
        "advance" => Op::Advance {
            to: uint(&value, "to")?,
        },
        "stats" => Op::Stats,
        other => return Err(format!("unexpected op '{other}'")),
    })
}

/// An op and the connection it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptOp {
    pub conn: usize,
    pub op: Op,
}

pub fn parse_script(conn: usize, text: &str) -> Result<Vec<ScriptOp>, String> {
    text.lines()
        .map(|l| parse_line(l).map(|op| ScriptOp { conn, op }))
        .collect()
}

/// One serial order for several connections' scripts: each op is placed at
/// its relative position in its own script, so connections interleave in
/// proportion to their lengths (round-robin when they are equally long).
pub fn interleave(scripts: &[Vec<ScriptOp>]) -> Vec<ScriptOp> {
    let mut keyed: Vec<(f64, usize, ScriptOp)> = Vec::new();
    for (c, script) in scripts.iter().enumerate() {
        for (i, op) in script.iter().enumerate() {
            keyed.push(((i as f64 + 0.5) / script.len() as f64, c, *op));
        }
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    keyed.into_iter().map(|(_, _, op)| op).collect()
}

/// The in-process faces a script can be replayed through.
pub trait Backend {
    fn submit(&mut self, width: u32, duration: Dur);
    fn query(&mut self, width: u32, duration: Dur, not_before: Option<Time>);
    fn reserve(&mut self, width: u32, duration: Dur, start: Time) -> usize;
    fn cancel(&mut self, id: usize);
    fn advance(&mut self, to: Time);
    fn stats(&mut self);
}

/// The benchmark's workloads are built so that no op fails; a failure here is
/// a broken generator or a changed service, and must stop the run.
const NO_FAIL: &str = "the benchmark's ops never fail";

impl Backend for ScheduleService<AvailabilityTimeline> {
    fn submit(&mut self, width: u32, duration: Dur) {
        ScheduleService::submit(self, width, duration, None).expect(NO_FAIL);
    }
    fn query(&mut self, width: u32, duration: Dur, not_before: Option<Time>) {
        std::hint::black_box(
            ScheduleService::query(self, width, duration, not_before).expect(NO_FAIL),
        );
    }
    fn reserve(&mut self, width: u32, duration: Dur, start: Time) -> usize {
        ScheduleService::reserve(self, width, duration, start)
            .expect(NO_FAIL)
            .0
    }
    fn cancel(&mut self, id: usize) {
        ScheduleService::cancel(self, id).expect(NO_FAIL);
    }
    fn advance(&mut self, to: Time) {
        ScheduleService::advance(self, to).expect(NO_FAIL);
    }
    fn stats(&mut self) {
        std::hint::black_box(ScheduleService::stats(self));
    }
}

impl Backend for ServiceClient {
    fn submit(&mut self, width: u32, duration: Dur) {
        ServiceClient::submit(self, width, duration, None).expect(NO_FAIL);
    }
    fn query(&mut self, width: u32, duration: Dur, not_before: Option<Time>) {
        std::hint::black_box(
            ServiceClient::query(self, width, duration, not_before).expect(NO_FAIL),
        );
    }
    fn reserve(&mut self, width: u32, duration: Dur, start: Time) -> usize {
        ServiceClient::reserve(self, width, duration, start)
            .expect(NO_FAIL)
            .0
    }
    fn cancel(&mut self, id: usize) {
        ServiceClient::cancel(self, id).expect(NO_FAIL);
    }
    fn advance(&mut self, to: Time) {
        ServiceClient::advance(self, to).expect(NO_FAIL);
    }
    fn stats(&mut self) {
        std::hint::black_box(ServiceClient::stats(self));
    }
}

impl Backend for JournaledService<AvailabilityTimeline> {
    fn submit(&mut self, width: u32, duration: Dur) {
        JournaledService::submit(self, width, duration, None).expect(NO_FAIL);
    }
    fn query(&mut self, width: u32, duration: Dur, not_before: Option<Time>) {
        std::hint::black_box(
            JournaledService::query(self, width, duration, not_before).expect(NO_FAIL),
        );
    }
    fn reserve(&mut self, width: u32, duration: Dur, start: Time) -> usize {
        JournaledService::reserve(self, width, duration, start)
            .expect(NO_FAIL)
            .0
    }
    fn cancel(&mut self, id: usize) {
        JournaledService::cancel(self, id).expect(NO_FAIL);
    }
    fn advance(&mut self, to: Time) {
        JournaledService::advance(self, to).expect(NO_FAIL);
    }
    fn stats(&mut self) {
        std::hint::black_box(JournaledService::stats(self));
    }
}

/// Replays scripts through a [`Backend`], remembering each connection's
/// latest reservation so that `cancel` ops resolve, across several calls.
#[derive(Debug, Default)]
pub struct Replayer {
    last: Vec<usize>,
    /// The id each `reserve` got, in replay order.
    pub reserved: Vec<usize>,
    /// Ops replayed so far: the request id of the next span.
    pub done: u64,
}

impl Replayer {
    /// Replay `ops` in order, one span per call, named by `spans[op.kind()]`.
    pub fn run<B: Backend>(
        &mut self,
        backend: &mut B,
        ops: &[ScriptOp],
        spans: &[&'static str; KINDS],
        tracer: &mut Tracer,
    ) {
        let conns = ops.iter().map(|o| o.conn).max().map_or(0, |c| c + 1);
        if self.last.len() < conns {
            self.last.resize(conns, usize::MAX);
        }
        let (last, reserved) = (&mut self.last, &mut self.reserved);
        tracer.reserve(ops.len());
        for sop in ops {
            let open = tracer.enter(spans[sop.op.kind()], self.done);
            self.done += 1;
            match sop.op {
                Op::Submit { width, duration } => backend.submit(width, Dur(duration)),
                Op::Query {
                    width,
                    duration,
                    not_before,
                } => backend.query(width, Dur(duration), not_before.map(Time)),
                Op::Reserve {
                    width,
                    duration,
                    start,
                } => {
                    let id = backend.reserve(width, Dur(duration), Time(start));
                    last[sop.conn] = id;
                    reserved.push(id);
                }
                Op::CancelLast => backend.cancel(last[sop.conn]),
                Op::Advance { to } => backend.advance(Time(to)),
                Op::Stats => backend.stats(),
            }
            tracer.exit(open);
        }
    }
}

/// The script as static protocol text for `resa_cli::serve::run_script`:
/// every `cancel` names the id its `reserve` got in the serial order.
pub fn resolved_script(ops: &[ScriptOp], reserved: &[usize]) -> String {
    use std::fmt::Write as _;
    let conns = ops.iter().map(|o| o.conn).max().map_or(0, |c| c + 1);
    let mut last = vec![usize::MAX; conns];
    let mut ids = reserved.iter();
    let mut out = String::with_capacity(ops.len() * 48);
    for sop in ops {
        let _ = match sop.op {
            Op::Submit { width, duration } => {
                writeln!(
                    out,
                    "{{\"op\":\"submit\",\"width\":{width},\"duration\":{duration}}}"
                )
            }
            Op::Query {
                width,
                duration,
                not_before: None,
            } => writeln!(
                out,
                "{{\"op\":\"query\",\"width\":{width},\"duration\":{duration}}}"
            ),
            Op::Query {
                width,
                duration,
                not_before: Some(nb),
            } => writeln!(
                out,
                "{{\"op\":\"query\",\"width\":{width},\"duration\":{duration},\"not_before\":{nb}}}"
            ),
            Op::Reserve {
                width,
                duration,
                start,
            } => {
                last[sop.conn] = *ids.next().expect("one recorded id per reserve");
                writeln!(
                    out,
                    "{{\"op\":\"reserve\",\"width\":{width},\"duration\":{duration},\"start\":{start}}}"
                )
            }
            Op::CancelLast => writeln!(
                out,
                "{{\"op\":\"cancel\",\"reservation\":{}}}",
                last[sop.conn]
            ),
            Op::Advance { to } => writeln!(out, "{{\"op\":\"advance\",\"to\":{to}}}"),
            Op::Stats => writeln!(out, "{{\"op\":\"stats\"}}"),
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchkit::gen::{serve_mix, serve_probe, Sizes};

    #[test]
    fn parses_every_generated_line() {
        let sizes = Sizes::quick();
        for input in serve_mix(3, &sizes)
            .iter()
            .chain(serve_probe(3, &sizes).iter())
        {
            let ops = parse_script(0, &input.text).unwrap();
            assert_eq!(ops.len(), input.text.lines().count(), "{}", input.name);
        }
        assert_eq!(
            parse_line("{\"op\":\"query\",\"width\":3,\"duration\":9,\"not_before\":40}"),
            Ok(Op::Query {
                width: 3,
                duration: 9,
                not_before: Some(40)
            })
        );
        assert_eq!(
            parse_line("{\"op\":\"cancel\",\"reservation\":$R}"),
            Ok(Op::CancelLast)
        );
        assert!(parse_line("{\"op\":\"drain\"}").is_err());
        assert!(parse_line("{\"op\":\"submit\",\"width\":3}").is_err());
    }

    #[test]
    fn interleave_is_proportional_and_keeps_each_script_in_order() {
        let a: Vec<ScriptOp> = (0..4)
            .map(|i| ScriptOp {
                conn: 0,
                op: Op::Advance { to: i },
            })
            .collect();
        let b: Vec<ScriptOp> = (0..2)
            .map(|_| ScriptOp {
                conn: 1,
                op: Op::Stats,
            })
            .collect();
        let merged = interleave(&[a.clone(), b]);
        let conns: Vec<usize> = merged.iter().map(|o| o.conn).collect();
        assert_eq!(conns, vec![0, 1, 0, 0, 1, 0]);
        let from_a: Vec<ScriptOp> = merged.iter().filter(|o| o.conn == 0).copied().collect();
        assert_eq!(from_a, a);
        let equal = interleave(&[
            a.clone(),
            a.iter().map(|o| ScriptOp { conn: 1, ..*o }).collect(),
        ]);
        assert_eq!(
            equal.iter().map(|o| o.conn).collect::<Vec<_>>(),
            vec![0, 1, 0, 1, 0, 1, 0, 1]
        );
    }

    #[test]
    fn replay_resolves_cancels_and_the_static_script_matches() {
        let sizes = Sizes::quick();
        let scripts: Vec<Vec<ScriptOp>> = serve_mix(5, &sizes)
            .iter()
            .enumerate()
            .map(|(c, i)| parse_script(c, &i.text).unwrap())
            .collect();
        let ops = interleave(&scripts);
        let mut svc = ScheduleService::new(
            ReferencePolicy::Easy,
            AvailabilityTimeline::constant(benchkit::gen::SERVE_MACHINES),
        );
        let mut tracer = Tracer::new(true);
        let mut replayer = Replayer::default();
        // In two parts, split mid-round: the pending reservation carries over.
        replayer.run(&mut svc, &ops[..13], &SERVICE_SPANS, &mut tracer);
        replayer.run(&mut svc, &ops[13..], &SERVICE_SPANS, &mut tracer);
        let reserved = replayer.reserved;
        assert_eq!(reserved.len(), sizes.serve_rounds * 2);
        assert_eq!(tracer.spans().len(), ops.len());
        assert_eq!(svc.stats().submitted, sizes.serve_rounds * 2);
        assert_eq!(
            svc.stats().reservations,
            0,
            "every far reservation was cancelled"
        );

        let script = resolved_script(&ops, &reserved);
        assert!(!script.contains(LAST_RESERVATION));
        let transcript = resa_cli::serve::run_script(
            &script,
            benchkit::gen::SERVE_MACHINES,
            ReferencePolicy::Easy,
            resa_cli::replay::Substrate::Timeline,
        );
        assert_eq!(transcript.lines().count(), ops.len());
        assert!(transcript.lines().all(|l| l.starts_with("{\"ok\":true")));
    }
}
