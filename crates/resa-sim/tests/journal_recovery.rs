//! Corruption-model proptests for the op journal (ISSUE 8, satellite 3).
//!
//! The contract under test: whatever happens to a journal file's *tail* —
//! truncation at an arbitrary byte, bit-flips from a dying disk — recovery
//! yields the state of some **prefix** of the serial op order (never a
//! corrupted or interpolated state), and a torn tail is *reported*, not
//! silently eaten.

mod common;

use common::{op_spec, OpSpec, View};
use proptest::prelude::*;
use resa_core::prelude::*;
use resa_sim::prelude::*;

const MACHINES: u32 = 6;

fn fresh() -> ScheduleService<AvailabilityTimeline> {
    ScheduleService::new(
        ReferencePolicy::Easy,
        AvailabilityTimeline::constant(MACHINES),
    )
}

/// Make a program concrete: decode each entry against a scratch service as
/// the program runs.
fn concrete(specs: &[OpSpec]) -> Vec<Op> {
    let mut svc = fresh();
    let decode = |spec: &OpSpec| {
        let op = spec.decode(&View::of(&svc));
        let _ = svc.apply(&op);
        op
    };
    specs.iter().map(decode).collect()
}

/// Random programs over the whole op surface.
fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(op_spec(), 1..24).prop_map(|specs| concrete(&specs))
}

/// Journal `ops` through a live service and return the file's bytes. With
/// `snapshot_every` large the file is pure op records; small values
/// exercise snapshot records under the same corruption model. A `retire`
/// session runs through a retiring concurrent front, whose snapshot records
/// carry what retirement folded away.
fn journaled_bytes(
    path: &std::path::Path,
    ops: &[Op],
    snapshot_every: u64,
    retire: bool,
) -> Vec<u8> {
    let _ = std::fs::remove_file(path);
    let cfg = JournalCfg {
        fsync: FsyncPolicy::Every,
        snapshot_every,
    };
    let (journal, _) = OpJournal::open(path, MACHINES, ReferencePolicy::Easy, cfg).unwrap();
    if retire {
        let front = ConcurrentService::with_journal(fresh(), journal)
            .retiring(Box::new(DiscardSink::default()));
        let client = front.client();
        for op in ops {
            client.apply(op);
        }
    } else {
        let mut live = JournaledService::new(fresh(), journal);
        for op in ops {
            let _ = live.apply(op);
        }
    }
    std::fs::read(path).unwrap()
}

/// Every state reachable by replaying a prefix of `ops` on a fresh
/// sequential service — retiring after each op that moves the clock when
/// `retire` — in prefix-length order (index 0 = empty prefix).
fn prefix_states(ops: &[Op], retire: bool) -> Vec<ServiceState> {
    let mut svc = fresh();
    let mut states = vec![svc.state()];
    for op in ops {
        let _ = svc.apply(op);
        if retire {
            svc.retire_after(op, &mut DiscardSink::default());
        }
        states.push(svc.state());
    }
    states
}

/// The service `rec` describes, retiring during replay when `retire`.
fn restore<C: CapacityQuery + Speculate>(
    rec: &Recovered,
    substrate: C,
    retire: bool,
) -> ScheduleService<C> {
    rec.restore_service_with_mode(ReferencePolicy::Easy, substrate, DrainMode::Restart, retire)
}

fn recover(path: &std::path::Path) -> std::io::Result<Recovered> {
    OpJournal::open(path, MACHINES, ReferencePolicy::Easy, JournalCfg::default())
        .map(|(_, rec)| rec)
}

fn tmp(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "resa-jrec-{}-{}-{tag}.jrn",
        std::process::id(),
        std::thread::current()
            .name()
            .unwrap_or("t")
            .replace("::", "-")
    ));
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncating a valid journal at ANY byte recovers a state equal to
    /// replaying some prefix of the op sequence — restored onto the naive
    /// `ResourceProfile` just as onto the timeline, retiring or not — and
    /// any mid-record cut is reported as a torn tail.
    #[test]
    fn truncation_recovers_a_serial_prefix(
        ops in arb_ops(),
        cut_pm in 0u32..=1000,
        compacting in 0u8..2,
        retiring in 0u8..2,
    ) {
        let retire = retiring == 1;
        // Small thresholds put snapshot records under the same knife.
        let snapshot_every = if compacting == 1 { 3 } else { 1024 };
        let path = tmp("trunc");
        let bytes = journaled_bytes(&path, &ops, snapshot_every, retire);
        let header = 13usize;
        prop_assert!(bytes.len() >= header);
        // Cut anywhere from "just the header" to "the full file".
        let cut = header + (bytes.len() - header) * cut_pm as usize / 1000;
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let rec = recover(&path).expect("a truncated journal is recoverable");
        if cut < bytes.len() {
            // Some suffix is gone; if the cut fell mid-record the tail
            // must be reported.
            let torn_expected = rec.torn.is_some();
            if !torn_expected {
                // Cut landed exactly on a record boundary — fine, but then
                // recovery must simply have fewer records.
                prop_assert!(rec.op_records <= ops.len());
            }
        } else {
            prop_assert!(rec.torn.is_none(), "an intact file has no torn tail");
        }
        let restored = restore(&rec, AvailabilityTimeline::constant(MACHINES), retire).state();
        prop_assert_eq!(
            &restore(&rec, ResourceProfile::constant(MACHINES), retire).state(),
            &restored,
            "recovery diverged between substrates"
        );
        let prefixes = prefix_states(&ops, retire);
        prop_assert!(
            prefixes.contains(&restored),
            "recovered state is not a prefix of the serial order (cut {cut}/{})",
            bytes.len()
        );
        if cut == bytes.len() {
            prop_assert_eq!(
                &restored,
                &prefixes[ops.len()],
                "an intact journal must recover the FULL run"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Flipping a random bit in the body either refuses recovery (header
    /// damage) or still yields a serial prefix — never a corrupted state —
    /// and damage before the end is never silent when records are lost.
    #[test]
    fn bitflips_recover_a_serial_prefix_or_refuse(
        ops in arb_ops(),
        flip_pm in 0u32..=1000,
        bit in 0u8..8,
    ) {
        let path = tmp("flip");
        let bytes = journaled_bytes(&path, &ops, 1024, false);
        let at = (bytes.len() - 1) * flip_pm as usize / 1000;
        let mut corrupt = bytes.clone();
        corrupt[at] ^= 1 << bit;
        std::fs::write(&path, &corrupt).unwrap();

        match recover(&path) {
            Err(_) => {
                // Header damage (magic / shape byte): refusal is correct —
                // nothing was silently replayed.
                prop_assert!(at < 13, "body damage must be recoverable, byte {at} was not");
            }
            Ok(rec) => {
                let restored = rec
                    .restore_service(
                        ReferencePolicy::Easy,
                        AvailabilityTimeline::constant(MACHINES),
                    )
                    .state();
                let prefixes = prefix_states(&ops, false);
                prop_assert!(
                    prefixes.contains(&restored),
                    "recovered state is not a serial prefix (flip at byte {at} bit {bit})"
                );
                // CRC protection: the flip damages exactly one record;
                // everything before it is intact, everything from it on is
                // discarded. If that discard loses state, the torn tail
                // must be reported — never silent.
                if restored != prefixes[ops.len()] {
                    prop_assert!(
                        rec.torn.is_some(),
                        "records were dropped without reporting a torn tail"
                    );
                }
            }
        }
        std::fs::remove_file(&path).unwrap();
    }
}

/// Deterministic companion: a journal torn exactly at a record boundary
/// reports nothing, one byte past it reports a torn tail of one byte.
#[test]
fn boundary_cuts_are_clean_and_off_boundary_cuts_are_reported() {
    let path = tmp("boundary");
    let ops = vec![
        Op::Submit {
            width: 2,
            duration: Dur(5),
            release: None,
        },
        Op::Advance { to: Time(3) },
    ];
    let bytes = journaled_bytes(&path, &ops, 1024, false);

    std::fs::write(&path, &bytes[..bytes.len()]).unwrap();
    let rec = recover(&path).unwrap();
    assert!(rec.torn.is_none());
    assert_eq!(rec.op_records, 2);

    std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
    let rec = recover(&path).unwrap();
    let torn = rec.torn.expect("mid-record cut is reported");
    assert_eq!(rec.op_records, 1);
    assert!(torn.dropped_bytes > 0);
    assert!(!torn.reason.is_empty());
    std::fs::remove_file(&path).unwrap();
}

/// Journaling changes nothing a client can see: at every fsync policy a
/// journaled session answers each op of a long mixed program exactly like a
/// volatile one and ends in the same state. (Asserted on the five-request
/// mix by the `--bench service` run this suite replaced.)
/// A long program over the whole op surface.
fn long_program() -> Vec<Op> {
    let specs: Vec<OpSpec> = (0..400u64)
        .map(|i| OpSpec {
            kind: (i * 7 % 16) as u8,
            width: (i * 3 % 5) as u32,
            dur: i * 5 % 9,
            t: i * 11 % 17,
        })
        .collect();
    concrete(&specs)
}

#[test]
fn a_journaled_session_answers_like_a_volatile_one() {
    let ops = long_program();
    for fsync in [FsyncPolicy::Every, FsyncPolicy::Batch, FsyncPolicy::Off] {
        let path = tmp(fsync.name());
        let _ = std::fs::remove_file(&path);
        let cfg = JournalCfg {
            fsync,
            snapshot_every: 64,
        };
        let (journal, _) = OpJournal::open(&path, MACHINES, ReferencePolicy::Easy, cfg).unwrap();
        let mut journaled = JournaledService::new(fresh(), journal);
        let mut volatile = fresh();
        for op in &ops {
            assert_eq!(journaled.apply(op), volatile.apply(op), "{op:?}");
        }
        assert_eq!(journaled.service().state(), volatile.state());
        drop(journaled);
        std::fs::remove_file(&path).unwrap();
    }
}

/// A sink the test can read after handing it to a front.
#[derive(Clone, Default)]
struct SharedSink(std::sync::Arc<std::sync::Mutex<Vec<JobRecord>>>);

impl RecordSink for SharedSink {
    fn record(&mut self, rec: JobRecord) {
        self.0.lock().unwrap().push(rec);
    }
}

/// A journaled, retiring front stopped halfway and recovered answers the
/// second half exactly like an uninterrupted retiring front, and ends in
/// the same state; its compactions happen after retirements, so recovery
/// starts from a snapshot of a retired catalog. Across the restart the
/// sinks receive every retired job exactly once.
#[test]
fn a_retiring_journaled_front_recovers_like_an_uninterrupted_one() {
    let ops = long_program();
    let (first, second) = ops.split_at(ops.len() / 2);
    let retiring = |front: ConcurrentService<AvailabilityTimeline>, sink: &SharedSink| {
        front.retiring(Box::new(sink.clone()))
    };
    let uninterrupted_sink = SharedSink::default();
    let uninterrupted = retiring(ConcurrentService::new(fresh()), &uninterrupted_sink);
    let reference = uninterrupted.client();
    for op in first {
        reference.apply(op);
    }

    let path = tmp("retiring");
    let _ = std::fs::remove_file(&path);
    let cfg = JournalCfg {
        fsync: FsyncPolicy::Batch,
        snapshot_every: 100,
    };
    let sink = SharedSink::default();
    let (journal, _) = OpJournal::open(&path, MACHINES, ReferencePolicy::Easy, cfg).unwrap();
    let front = retiring(ConcurrentService::with_journal(fresh(), journal), &sink);
    let client = front.client();
    for op in first {
        client.apply(op);
    }
    drop(front);

    let (journal, rec) = OpJournal::open(&path, MACHINES, ReferencePolicy::Easy, cfg).unwrap();
    let snapshot = rec.snapshot.as_ref().expect("the first half compacted");
    assert!(
        snapshot.base > 0,
        "the compaction recovery starts from follows a retirement"
    );
    let svc = restore(&rec, AvailabilityTimeline::constant(MACHINES), true);
    let unretired = restore(&rec, AvailabilityTimeline::constant(MACHINES), false);
    assert!(
        svc.job_flags().len() < unretired.job_flags().len(),
        "the replayed tail retires jobs too"
    );
    let front = retiring(ConcurrentService::with_journal(svc, journal), &sink);
    let client = front.client();
    for op in second {
        assert_eq!(
            client.apply(op).result,
            reference.apply(op).result,
            "{op:?}"
        );
    }
    for probe in [Op::Stats, Op::Records { since: None }] {
        let answer = client.apply(&probe).result;
        assert_eq!(answer, reference.apply(&probe).result, "{probe:?}");
    }
    let (recovered, _) = front.shutdown();
    let (expected, _) = uninterrupted.shutdown();
    assert_eq!(recovered.state(), expected.state());
    let ids = |sink: &SharedSink| -> Vec<JobId> {
        sink.0.lock().unwrap().iter().map(|r| r.job).collect()
    };
    assert!(!ids(&sink).is_empty());
    assert_eq!(
        ids(&sink),
        ids(&uninterrupted_sink),
        "each retired job once"
    );
    std::fs::remove_file(&path).unwrap();
}
