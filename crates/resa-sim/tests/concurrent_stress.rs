//! Multi-client stress tests for [`ConcurrentService`]: N threads of mixed
//! operations against one single-writer service, checked against the two
//! properties the concurrent front promises.
//!
//! 1. **Serial equivalence** — the writer's dequeue order *is* the serial
//!    order: replaying the recorded [`AppliedOp`] log on a fresh sequential
//!    [`ScheduleService`] reproduces the final schedule, stats, reservations
//!    and trace bit for bit, for any thread interleaving.
//! 2. **No lost or duplicated effects** — every write issued by any session
//!    appears in the log exactly once, and the job ids handed back across
//!    all sessions are dense (`0..n`): nothing dropped, nothing double-run.
//!
//! Both properties are exercised on both substrates (the indexed
//! [`AvailabilityTimeline`] and the reference [`ResourceProfile`]), first
//! with a fixed heavy mix, then property-tested over random scripts and
//! policies. The mix is the shared one of `tests/common`: all thirteen op
//! kinds, including failure/maintenance `Inject` and `Revoke` (with mid-run
//! preemptions), deadline-gated submission under both admission policies,
//! and moldable submission.

mod common;

use common::{op_spec, OpSpec, View};
use proptest::prelude::*;
use resa_core::prelude::*;
use resa_sim::prelude::*;

/// Run each script in its own thread against one recording service, then
/// check both stress properties. Returns nothing: failure is a panic (which
/// proptest reports as a counterexample).
fn run_stress<C>(m: u32, substrate: C, policy: ReferencePolicy, scripts: &[Vec<OpSpec>])
where
    C: Snapshotable + Clone + Send + 'static,
{
    let replay_substrate = substrate.clone();
    let svc = ConcurrentService::with_recording(ScheduleService::new(policy, substrate));
    let mut handles = Vec::new();
    for script in scripts.iter().cloned() {
        let client = svc.client();
        handles.push(std::thread::spawn(move || {
            let mut jobs = Vec::new();
            let mut writes = 0u64;
            // Each op is decoded against what this session knows: a stale
            // `now` (a concurrent advance can turn a target into an
            // `InThePast` rejection) and the ids its own accepted windows
            // prove to exist (one past them is the bogus id). Every
            // outcome — accepted, rejected, preempting — is part of the
            // serial history and must replay identically.
            let mut view = View {
                now: Time::ZERO,
                machines: m,
                reservations: 0,
                drains: 0,
            };
            for spec in script {
                view.now = client.snapshot().stats.now;
                let op = spec.decode(&view);
                let reply = client.apply(&op);
                writes += u64::from(op.is_write());
                match (&op, &reply.result) {
                    // A clamped width and an on-arrival release never fail;
                    // nor does a clamped advance, under any interleaving.
                    (Op::Submit { release: None, .. } | Op::AdvanceClamped { .. }, result) => {
                        assert!(result.is_ok(), "{op:?} answered {result:?}")
                    }
                    // Reads: snapshot coherence + a speculative probe.
                    (Op::Stats, Ok(Reply::Stats(stats))) => assert_eq!(stats.machines, m),
                    (Op::Query { .. }, result) => assert!(result.is_ok(), "valid probe"),
                    _ => {}
                }
                match reply.result {
                    Ok(
                        Reply::Job { id, .. }
                        | Reply::Deadline { id, .. }
                        | Reply::Moldable { id, .. },
                    ) => jobs.push(id),
                    Ok(Reply::Reservation { .. }) => view.reservations += 1,
                    Ok(Reply::Drained { .. }) => view.drains += 1,
                    _ => {}
                }
            }
            (jobs, writes)
        }));
    }
    let results: Vec<(Vec<JobId>, u64)> = handles
        .into_iter()
        .map(|h| h.join().expect("stress thread panicked"))
        .collect();
    let (fin, log) = svc.shutdown();

    // Property 2a: the log holds exactly the writes issued — none lost to a
    // dropped batch, none applied twice.
    let total_writes: u64 = results.iter().map(|(_, w)| *w).sum();
    assert_eq!(log.len() as u64, total_writes, "write log is lossless");

    // Property 2b: job ids are dense across sessions, and the final state
    // accounts for every one of them.
    let mut ids: Vec<usize> = results
        .iter()
        .flat_map(|(jobs, _)| jobs.iter().map(|j| j.0))
        .collect();
    ids.sort_unstable();
    assert_eq!(
        ids,
        (0..ids.len()).collect::<Vec<_>>(),
        "job ids are dense across sessions"
    );
    assert_eq!(fin.stats().submitted, ids.len());

    // Property 1: replaying the serial log on a fresh sequential service
    // reproduces the final state exactly.
    let mut replay = ScheduleService::new(policy, replay_substrate);
    for entry in &log {
        let _ = replay.apply(&entry.op);
    }
    assert_eq!(replay.schedule(), fin.schedule());
    assert_eq!(replay.stats(), fin.stats());
    assert_eq!(
        replay.windows(WindowKind::Reservation),
        fin.windows(WindowKind::Reservation)
    );
    assert_eq!(replay.snapshot(), fin.snapshot());
}

/// A fixed heavy mix: deterministic scripts with enough collisions (shared
/// time advances, overlapping reservations) to shake out batching bugs.
fn heavy_scripts(threads: u64, ops: u64) -> Vec<Vec<OpSpec>> {
    (0..threads)
        .map(|t| {
            (0..ops)
                .map(|i| OpSpec {
                    kind: ((t * 31 + i * 7) % 16) as u8,
                    width: ((i * 3 + t) % 5) as u32,
                    dur: (i * 5 + t * 13) % 9,
                    t: (i * 11 + t * 3) % 17,
                })
                .collect()
        })
        .collect()
}

#[test]
fn eight_threads_are_serially_equivalent_on_the_timeline() {
    run_stress(
        6,
        AvailabilityTimeline::constant(6),
        ReferencePolicy::Easy,
        &heavy_scripts(8, 60),
    );
}

#[test]
fn eight_threads_are_serially_equivalent_on_the_profile() {
    run_stress(
        6,
        ResourceProfile::constant(6),
        ReferencePolicy::Greedy,
        &heavy_scripts(8, 60),
    );
}

fn arb_scripts() -> impl Strategy<Value = Vec<Vec<OpSpec>>> {
    proptest::collection::vec(proptest::collection::vec(op_spec(), 1..=12), 2..=4)
}

fn policy_from(idx: u8) -> ReferencePolicy {
    match idx % 3 {
        0 => ReferencePolicy::Fcfs,
        1 => ReferencePolicy::Easy,
        _ => ReferencePolicy::Greedy,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any interleaving of random concurrent scripts is equivalent to the
    /// serial order the writer dequeued, on the indexed timeline.
    #[test]
    fn random_interleavings_are_serial_on_the_timeline(
        m in 2u32..=8,
        p in 0u8..3,
        scripts in arb_scripts(),
    ) {
        run_stress(m, AvailabilityTimeline::constant(m), policy_from(p), &scripts);
    }

    /// The same property on the reference profile substrate.
    #[test]
    fn random_interleavings_are_serial_on_the_profile(
        m in 2u32..=8,
        p in 0u8..3,
        scripts in arb_scripts(),
    ) {
        run_stress(m, ResourceProfile::constant(m), policy_from(p), &scripts);
    }
}

/// Snapshot reads answer like the live service: reader threads probing one
/// published snapshot get, query for query, what the sequential service
/// answers by speculating on its live substrate. (Asserted with 1–8 readers
/// by the `--bench service` run this suite replaced.)
#[test]
fn snapshot_probes_answer_like_the_sequential_service() {
    const MACHINES: u32 = 16;
    let mut seq = ScheduleService::new(
        ReferencePolicy::Easy,
        AvailabilityTimeline::constant(MACHINES),
    );
    let mix: Vec<OpSpec> = heavy_scripts(1, 600).remove(0);
    for spec in &mix {
        let _ = seq.apply(&spec.decode(&View::of(&seq)));
    }
    let now = seq.now();
    let probe = move |i: u64| Op::Query {
        width: 1 + (i % u64::from(MACHINES)) as u32,
        duration: Dur(1 + i % 13),
        not_before: i.is_multiple_of(3).then(|| now.saturating_add(Dur(i % 40))),
    };
    let expected: Vec<_> = (0..500).map(|i| seq.apply(&probe(i))).collect();
    assert!(expected.iter().all(Result::is_ok));

    let front = ConcurrentService::new(seq);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let (client, expected) = (front.client(), &expected);
            scope.spawn(move || {
                for (i, seq_answer) in (0..).zip(expected) {
                    assert_eq!(&client.apply(&probe(i)).result, seq_answer, "probe {i}");
                }
            });
        }
    });
}

/// Copy-on-write under a live writer, two threads in forced lock-step: the
/// reader takes the published snapshot and notes what it answers, the writer
/// then churns the chunks that snapshot shares (cancel and re-reserve inside
/// the standing overlay, a window across all of it, the far edge, the
/// clock), and only afterwards does the reader materialize
/// `snapshot.timeline.profile()` — from blocks the writer has since written
/// copies of. It must be a valid normalized profile, still answer what the
/// snapshot answered, and generations must never run backwards.
#[test]
fn held_snapshots_are_immune_to_the_writer() {
    use std::sync::mpsc;
    const MACHINES: u32 = 16;
    const STANDING: u64 = 300;
    const ROUNDS: u64 = 120;
    let front = ConcurrentService::new(ScheduleService::new(
        ReferencePolicy::Easy,
        AvailabilityTimeline::constant(MACHINES),
    ));
    let writer = front.client();
    let reserve = |width: u32, duration: u64, start: u64| Op::Reserve {
        width,
        duration: Dur(duration),
        start: Time(start),
    };
    for k in 0..STANDING {
        let op = reserve(1 + (k % 4) as u32, 2 + k % 6, 1_000 + 10 * k);
        writer.apply(&op).result.expect("disjoint windows fit");
    }
    let (snapshot_held, writer_go) = mpsc::channel::<()>();
    let (round_done, reader_go) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let reader = front.client();
        scope.spawn(move || {
            let mut last_generation = 0;
            for _ in 0..ROUNDS {
                let snap = reader.snapshot();
                assert!(
                    snap.generation > last_generation,
                    "generations ran backwards"
                );
                last_generation = snap.generation;
                let noted: Vec<(Time, u32)> = (0..=STANDING * 10 + 100)
                    .step_by(3)
                    .map(|dt| Time(950 + dt))
                    .map(|t| (t, snap.timeline.capacity_at(t)))
                    .collect();
                snapshot_held.send(()).expect("the writer is waiting");
                reader_go.recv().expect("the writer finished its round");
                let profile = snap.timeline.profile();
                let steps = profile.steps();
                assert_eq!(steps[0].0, Time::ZERO);
                assert!(steps
                    .windows(2)
                    .all(|w| w[0].0 < w[1].0 && w[0].1 != w[1].1));
                assert!(steps.iter().all(|&(_, cap)| cap <= MACHINES));
                for &(t, cap) in &noted {
                    assert_eq!(profile.capacity_at(t), cap, "generation {last_generation}");
                }
            }
        });
        for round in 0..ROUNDS {
            writer_go.recv().expect("the reader holds a snapshot");
            let k = (round * 7) % STANDING;
            let applied = |op: Op| writer.apply(&op).result.expect("the churn is valid");
            // Standing window `k` (ids are dense, 7 and 300 coprime: no
            // repeats) gives way to a short one in the gap behind it.
            applied(Op::Cancel { id: k as usize });
            applied(reserve(1, 2, 1_002 + 10 * k + 6));
            let Reply::Reservation { id: across, .. } = applied(reserve(1, 10 * STANDING, 995))
            else {
                panic!("a reserve answers with its id");
            };
            applied(Op::Cancel { id: across });
            applied(reserve(2, 4, 10_000_000 + round));
            applied(Op::Advance {
                to: Time(round + 1),
            });
            round_done.send(()).expect("the reader is waiting");
        }
    });
}
