//! The resident [`ScheduleService`] forgets the availability function behind
//! its clock (`CapacityQuery::retire_before`, every 64 drained completions).
//! Two properties make that safe to leave on unconditionally:
//!
//! 1. **Retirement is unobservable.** A twin service on a [`NoRetire`]
//!    substrate — every call forwarded, `retire_before` left the default
//!    no-op — answers every request, `stats()`, `snapshot()` and `state()`
//!    identically, its frozen timeline agrees on all of `[now, ∞)`, and a
//!    service restored mid-session from the retiring twin's state continues
//!    in lockstep. Property-tested over random interleavings of the whole
//!    op surface, both substrates, all policies, both drain modes.
//! 2. **The substrate is stationary.** After 20 000 requests its breakpoint
//!    count is bounded by the live state (running jobs, windows reaching
//!    past `now`) plus the retirement slack — counted, not timed — while
//!    the non-retiring twin's grows with the session.
//!
//! The catalog's own retirement (`ScheduleService::retire_completed`,
//! run by a retiring `ConcurrentService`) closes the loop: with it the job
//! catalog and the journal of a long session stay bounded as well.

mod common;

use common::{op_spec, OpSpec, View};
use proptest::prelude::*;
use resa_core::error::ProfileError;
use resa_core::prelude::*;
use resa_sim::prelude::*;

/// A substrate that never forgets: forwards the whole query/update surface
/// to `C` and keeps the trait's default (no-op) `retire_before`.
#[derive(Debug, Clone)]
struct NoRetire<C>(C);

impl<C: CapacityQuery> CapacityQuery for NoRetire<C> {
    fn base(&self) -> u32 {
        self.0.base()
    }
    fn capacity_at(&self, t: Time) -> u32 {
        self.0.capacity_at(t)
    }
    fn min_capacity_in(&self, start: Time, dur: Dur) -> u32 {
        self.0.min_capacity_in(start, dur)
    }
    fn earliest_fit(&self, width: u32, dur: Dur, not_before: Time) -> Option<Time> {
        self.0.earliest_fit(width, dur, not_before)
    }
    fn next_change_after(&self, t: Time) -> Option<Time> {
        self.0.next_change_after(t)
    }
    fn capacity_profile_in(&self, start: Time, end: Time, out: &mut Vec<(Time, u32)>) {
        self.0.capacity_profile_in(start, end, out)
    }
    fn reserve(&mut self, start: Time, dur: Dur, width: u32) -> Result<(), ProfileError> {
        self.0.reserve(start, dur, width)
    }
    fn release(&mut self, start: Time, dur: Dur, width: u32) -> Result<(), ProfileError> {
        self.0.release(start, dur, width)
    }
}

// `Speculate::speculate` hands the probe `&mut Self`, so it cannot be
// forwarded through the inner substrate's own `speculate`; each wrapper
// repeats its substrate's (three-line) implementation instead.
impl Speculate for NoRetire<AvailabilityTimeline> {
    fn speculate<T>(&mut self, probe: impl FnOnce(&mut Self) -> T) -> T {
        let mark = self.0.checkpoint();
        let out = probe(self);
        self.0.rollback_to(mark);
        out
    }
}

impl Speculate for NoRetire<ResourceProfile> {
    fn speculate<T>(&mut self, probe: impl FnOnce(&mut Self) -> T) -> T {
        let saved = self.0.clone();
        let out = probe(self);
        self.0 = saved;
        out
    }
}

impl<C: Snapshotable> Snapshotable for NoRetire<C>
where
    NoRetire<C>: Speculate,
{
    fn freeze(&self, generation: u64) -> TimelineSnapshot {
        self.0.freeze(generation)
    }
}

/// Apply `spec` and render the reply. The op is decoded against the
/// service's own state, so twins in lockstep derive the same request.
fn apply<C: CapacityQuery + Speculate>(svc: &mut ScheduleService<C>, spec: &OpSpec) -> String {
    let op = spec.decode(&View::of(svc));
    format!("{:?}", svc.apply(&op))
}

/// Everything a client can see of a service, minus the reply to the op
/// itself: counters, records and metrics, the persisted state, a probe.
fn observe<C: Snapshotable>(
    svc: &mut ScheduleService<C>,
) -> (
    ServiceStats,
    (Vec<JobRecord>, SimMetrics),
    ServiceState,
    Option<Time>,
) {
    let probe = svc.query(1 + svc.machines() / 2, Dur(3), None).unwrap();
    (svc.stats(), svc.snapshot(), svc.state(), probe)
}

/// The frozen availability functions of two services agree on `[now, ∞)`.
fn assert_same_future<A: Snapshotable, B: Snapshotable>(
    a: &ScheduleService<A>,
    b: &ScheduleService<B>,
) {
    let (fa, fb) = (a.freeze_timeline(0), b.freeze_timeline(0));
    let now = a.now().ticks();
    for t in (now..now + 32).map(Time) {
        assert_eq!(fa.capacity_at(t), fb.capacity_at(t), "capacity_at({t})");
        assert_eq!(
            fa.next_change_after(t),
            fb.next_change_after(t),
            "next_change_after({t})"
        );
        for (w, d) in [(1, 1), (2, 5), (a.machines(), 3)] {
            assert_eq!(
                fa.earliest_fit(w, Dur(d), t),
                fb.earliest_fit(w, Dur(d), t),
                "earliest_fit({w}, {d}, {t})"
            );
        }
    }
}

/// Completions both twins drain before the random script starts: four short
/// of the cadence, so the first retirement lands inside the script.
const WARM_UP_JOBS: u64 = 60;

fn run_differential<C>(
    substrate: C,
    policy: ReferencePolicy,
    mode: DrainMode,
    ops: &[OpSpec],
    restore_at: usize,
) where
    C: Snapshotable + Clone,
    NoRetire<C>: Snapshotable,
{
    let mut live = ScheduleService::new(policy, substrate.clone());
    let mut twin = ScheduleService::new(policy, NoRetire(substrate.clone()));
    live.set_drain_mode(mode);
    twin.set_drain_mode(mode);
    for i in 0..WARM_UP_JOBS {
        live.submit(1, Dur(1), None).unwrap();
        twin.submit(1, Dur(1), None).unwrap();
        live.advance(Time(i + 1)).unwrap();
        twin.advance(Time(i + 1)).unwrap();
    }
    assert_eq!(live.stats().completed as u64, WARM_UP_JOBS);

    let mut restored: Option<ScheduleService<C>> = None;
    for (i, op) in ops.iter().enumerate() {
        if i == restore_at {
            let mut svc = ScheduleService::restore(policy, &live.state(), substrate.clone());
            svc.set_drain_mode(mode);
            restored = Some(svc);
        }
        let reply = apply(&mut live, op);
        assert_eq!(reply, apply(&mut twin, op), "reply to op {i} {op:?}");
        let seen = observe(&mut live);
        assert_eq!(seen, observe(&mut twin), "after op {i} {op:?}");
        assert_same_future(&live, &twin);
        if let Some(svc) = &mut restored {
            assert_eq!(reply, apply(svc, op), "restored: reply to op {i} {op:?}");
            assert_eq!(seen, observe(svc), "restored: after op {i} {op:?}");
            assert_same_future(&live, svc);
        }
    }
    assert!(
        live.stats().completed >= 64,
        "the script never reached the retirement cadence"
    );
}

const POLICIES: [ReferencePolicy; 3] = [
    ReferencePolicy::Fcfs,
    ReferencePolicy::Easy,
    ReferencePolicy::Greedy,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn retirement_is_unobservable(
        m in 3u32..=8,
        policy in 0usize..3,
        checkpoint in 0u8..2,
        ops in proptest::collection::vec(op_spec(), 80usize..=240),
        restore_frac in 0usize..100,
    ) {
        let policy = POLICIES[policy];
        let mode = if checkpoint == 1 { DrainMode::Checkpoint } else { DrainMode::Restart };
        let restore_at = ops.len() * restore_frac / 100;
        run_differential(AvailabilityTimeline::constant(m), policy, mode, &ops, restore_at);
        run_differential(ResourceProfile::constant(m), policy, mode, &ops, restore_at);
    }
}

const MACHINES: u32 = 16;

/// One round of the five-request mix: submit, query, reserve, cancel (every
/// other window; the rest run their course), advance.
fn mix_round<C: CapacityQuery + Speculate>(svc: &mut ScheduleService<C>, i: usize) {
    svc.submit(1 + (i % 6) as u32, Dur(1 + (i % 7) as u64), None)
        .unwrap();
    svc.query(2 + (i % 4) as u32, Dur(3), None).unwrap();
    let start = Time(svc.now().ticks() + 8 + (i % 5) as u64);
    let (rid, _) = svc.reserve(1 + (i % 3) as u32, Dur(4), start).unwrap();
    if i.is_multiple_of(2) {
        svc.cancel(rid).unwrap();
    }
    let to = Time(svc.now().ticks() + 1 + (i % 3) as u64);
    svc.advance(to).unwrap();
}

/// Breakpoints of the substrate's (normalized) availability function.
fn breakpoints<C: Snapshotable>(svc: &ScheduleService<C>) -> usize {
    svc.freeze_timeline(0).profile().steps().len()
}

/// Windows that still shape the future: running jobs plus reservations
/// reaching past `now`.
fn live_windows<C: CapacityQuery + Speculate>(svc: &ScheduleService<C>) -> usize {
    let now = svc.now();
    let reservations = svc
        .windows(WindowKind::Reservation)
        .iter()
        .filter(|r| r.is_effective() && r.end > now)
        .count();
    svc.stats().running + reservations
}

#[test]
fn substrate_size_follows_live_state_not_session_length() {
    const ROUND_OPS: usize = 5;
    // A window contributes two breakpoints; so does each of the up to 64
    // runs (and the windows that expired beside them) not yet retired.
    let bound = |live: usize| 4 * (live + 64);

    let mut svc = ScheduleService::new(
        ReferencePolicy::Easy,
        AvailabilityTimeline::constant(MACHINES),
    );
    let mut twin = ScheduleService::new(
        ReferencePolicy::Easy,
        NoRetire(AvailabilityTimeline::constant(MACHINES)),
    );
    let mut early = 0;
    for i in 0..20_000 / ROUND_OPS {
        mix_round(&mut svc, i);
        mix_round(&mut twin, i);
        if (i + 1) * ROUND_OPS == 2_000 {
            early = breakpoints(&svc);
            assert!(
                early <= bound(live_windows(&svc)),
                "{early} breakpoints for {} live windows at op 2000",
                live_windows(&svc)
            );
        }
    }
    assert_eq!(svc.stats(), twin.stats());
    let late = breakpoints(&svc);
    assert!(
        late <= bound(live_windows(&svc)),
        "{late} breakpoints for {} live windows at op 20000",
        live_windows(&svc)
    );
    assert!(
        late <= 2 * early.max(32),
        "breakpoints grew with the session: {early} at op 2000, {late} at op 20000"
    );
    // The mix does leave history behind: without retirement it is all kept.
    assert!(
        breakpoints(&twin) > 10 * bound(live_windows(&twin)),
        "the non-retiring twin kept only {} breakpoints",
        breakpoints(&twin)
    );
}

/// Catalog retirement keeps the rest of a long session the size of its
/// live state too: a journaled, retiring session through the library front
/// (restarted from its journal at op 10 000), where every op is a write so
/// both checkpoints fall right after a compaction. At op 100 000 neither
/// the resident catalog nor the journal is larger than at op 10 000, up to
/// a constant.
#[test]
fn a_retiring_journaled_front_keeps_catalog_and_journal_bounded() {
    const SNAPSHOT_EVERY: u64 = 1_000;
    // Two unit-to-four-wide jobs of one to three ticks per tick: about ten
    // of the sixteen processors' work arrives per tick.
    let op = |i: u64| match i % 3 {
        2 => Op::AdvanceClamped {
            to: Time(i / 3 + 1),
        },
        _ => Op::Submit {
            width: 1 + (i % 4) as u32,
            duration: Dur(1 + i % 3),
            release: None,
        },
    };
    let path = std::env::temp_dir().join(format!("resa-retire-{}.jrn", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cfg = JournalCfg {
        fsync: FsyncPolicy::Off,
        snapshot_every: SNAPSHOT_EVERY,
    };
    let mut i = 0;
    let mut sizes = Vec::new();
    for checkpoint in [10_000, 100_000] {
        let (journal, rec) = OpJournal::open(&path, MACHINES, ReferencePolicy::Easy, cfg).unwrap();
        let svc = rec.restore_service_with_mode(
            ReferencePolicy::Easy,
            AvailabilityTimeline::constant(MACHINES),
            DrainMode::Restart,
            true,
        );
        let front = ConcurrentService::with_journal(svc, journal)
            .retiring(Box::new(DiscardSink::default()));
        let client = front.client();
        while i < checkpoint {
            client
                .apply(&op(i))
                .result
                .expect("every op of the mix is valid");
            i += 1;
        }
        let (svc, _) = front.shutdown();
        assert_eq!(svc.stats().submitted as u64, 2 * checkpoint / 3 + 1);
        let journal_bytes = std::fs::metadata(&path).unwrap().len();
        sizes.push((svc.job_flags().len(), journal_bytes));
    }
    let [(early_jobs, early_bytes), (late_jobs, late_bytes)] = sizes[..] else {
        unreachable!("two checkpoints")
    };
    assert!(
        late_jobs <= early_jobs + 64,
        "the catalog grew with the session: {early_jobs} jobs at op 10 000, {late_jobs} at op 100 000"
    );
    assert!(
        late_bytes <= early_bytes + 4_096,
        "the journal grew with the session: {early_bytes} bytes at op 10 000, {late_bytes} at op 100 000"
    );
    std::fs::remove_file(&path).unwrap();
}
