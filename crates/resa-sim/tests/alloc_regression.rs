//! Allocation-regression pin for the steady-state serve/engine loops (PR 6).
//!
//! PRs 2/3 made the batch decision loop allocation-free and PR 6 extends the
//! guarantee to the resident [`ScheduleService`]: after warm-up (and with
//! containers pre-sized via `ensure_capacity` / `reserve_capacity`), a
//! sustained submit/query/reserve/cancel/inject/revoke/advance mix must
//! perform **zero** heap allocations per request. A counting global
//! allocator makes the claim checkable, so a future PR reintroducing a
//! per-op `Vec`/`String`/clone on the hot path fails here instead of
//! silently regressing throughput.
//!
//! The same allocator also pins what one snapshot *publication* of the
//! concurrent front costs: bytes proportional to the live state, the same at
//! op 1 000 and at op 20 000 of a session — and, on a large standing
//! overlay, a write plus its publication copies the chunks the write touched
//! and a 32-byte head per chunk, not the availability function.
//!
//! The allocator wrapper lives in this integration test only — the library
//! crates stay `#![forbid(unsafe_code)]`; an integration test is a separate
//! crate, so the `unsafe` needed to implement [`GlobalAlloc`] is confined to
//! test code.
//!
//! Everything runs inside one `#[test]` so no sibling test thread can
//! allocate concurrently and pollute the counters.

use resa_core::prelude::*;
use resa_sim::policy::EasyPolicy;
use resa_sim::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of heap acquisitions (`alloc` + `realloc`) since process start.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes those acquisitions asked for.
static BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates verbatim to `System`; the counters are relaxed atomic
// increments with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

const MACHINES: u32 = 16;
/// Requests per mix round: submit, query, reserve, cancel, inject, revoke,
/// advance.
const ROUND_OPS: usize = 7;

/// One round of the steady-state request mix. Every request is valid (error
/// responses legitimately allocate their message), and every reservation and
/// drain is withdrawn before its window starts, so its effective span
/// collapses to zero length and the breakpoint sweep stays bounded. The
/// drain fits the free capacity: a preempting `inject` builds a victim list.
fn mix_round(svc: &mut ScheduleService<AvailabilityTimeline>, i: usize) {
    let width = 1 + (i % 6) as u32;
    let dur = 1 + (i % 7) as u64;
    svc.submit(width, Dur(dur), None).expect("valid submission");
    svc.query(2 + (i % 4) as u32, Dur(3), None)
        .expect("valid probe");
    let start = Time(svc.now().ticks() + 16 + (i % 5) as u64);
    let (rid, _) = svc
        .reserve(1 + (i % 3) as u32, Dur(4), start)
        .expect("a narrow future window always fits");
    svc.cancel(rid).expect("the reservation is still pending");
    let (did, _) = svc
        .inject(1 + (i % 2) as u32, Dur(3), start)
        .expect("no job runs that far ahead");
    assert!(svc.last_preempted().is_empty());
    svc.revoke(did).expect("the drain is still pending");
    let to = Time(svc.now().ticks() + 1 + (i % 3) as u64);
    svc.advance(to).expect("time only moves forward");
}

/// The resident service performs zero heap allocations per request once
/// warmed up, and the batch engine's event loop allocates only amortized
/// container growth (independent of the per-event count).
#[test]
fn steady_state_loops_do_not_allocate() {
    // -- service half -------------------------------------------------------
    let warmup = 128usize;
    let measured = 256usize;
    let total_jobs = warmup + measured + 1;
    let total_reservations = warmup + measured + 1;

    let mut timeline = AvailabilityTimeline::constant(MACHINES);
    // Breakpoints stay bounded (cancelled-before-start reservations collapse;
    // job windows compact away as capacity re-merges), but pre-size for the
    // worst case anyway: the point of this test is per-op behaviour, not
    // sizing arithmetic.
    timeline.reserve_capacity(4096, 4096);
    let mut svc = ScheduleService::new(ReferencePolicy::Easy, timeline);
    svc.ensure_capacity(total_jobs, total_reservations);

    for i in 0..warmup {
        mix_round(&mut svc, i);
    }

    let before = allocations();
    for i in warmup..warmup + measured {
        mix_round(&mut svc, i);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state service mix allocated ({} allocations over {} requests)",
        after - before,
        measured * ROUND_OPS
    );
    // The mix really exercised the decision loop.
    let stats = svc.stats();
    assert_eq!(stats.submitted, warmup + measured);
    assert!(stats.decisions > 0);

    // -- publication half ---------------------------------------------------
    // What the concurrent front allocates to publish one
    // snapshot must follow the live state, not the session's length: the
    // same session measured after 1 000 and after 20 000 requests.
    let svc = ScheduleService::new(
        ReferencePolicy::Easy,
        AvailabilityTimeline::constant(MACHINES),
    );
    let (early, svc) = publication_bytes(svc, 0, 1_000 / ROUND_OPS);
    let (late, _) = publication_bytes(svc, 1_000 / ROUND_OPS, 20_000 / ROUND_OPS);
    assert!(
        late.abs_diff(early) <= 16 * 1024,
        "one publication allocated {early} B at op 1000 but {late} B at op 20000"
    );

    // The same on a large standing overlay: a far `reserve` and the freeze
    // that publishes it copy the one chunk the reserve wrote to plus the
    // chunk directory — not the 4 001 breakpoints (the pre-chunk substrate
    // materialized, converted and normalized all of them: ≈ 145 KiB).
    let small = far_reserve_bytes(2_000);
    assert!(
        small <= 8 * 1024,
        "a far reserve and its publication allocated {small} B at 2 000 standing reservations"
    );
    // Four times the overlay adds the heads of the extra chunks and nothing
    // else: 2 KiB per 64 of them (64 breakpoints to a chunk, two per window).
    let large = far_reserve_bytes(8_000);
    let extra_chunks = 2 * (8_000 - 2_000) / 64u64;
    assert!(
        large <= small + 2 * 1024 * extra_chunks.div_ceil(64),
        "a far reserve and its publication allocated {small} B at 2 000 standing \
         reservations but {large} B at 8 000"
    );

    // -- engine half --------------------------------------------------------
    // The batch event loop may allocate amortized container growth (event
    // queue doubling, the schedule's placement vector, the position map) but
    // nothing per event: doubling the job count must add at most a handful
    // of allocations, never O(jobs) of them.
    let small = engine_run_allocations(500);
    let large = engine_run_allocations(1000);
    assert!(
        large <= small + 64,
        "engine allocations scale with the event count: {small} for 500 jobs \
         vs {large} for 1000 jobs"
    );
}

/// Run mix rounds `from..to` on `svc`, then hand it to a concurrent front
/// and count the bytes allocated — by any thread — while one write that
/// changes nothing (an advance to the current instant) round-trips: one
/// published snapshot.
fn publication_bytes(
    mut svc: ScheduleService<AvailabilityTimeline>,
    from: usize,
    to: usize,
) -> (u64, ScheduleService<AvailabilityTimeline>) {
    for i in from..to {
        mix_round(&mut svc, i);
    }
    let now = svc.now();
    let front = ConcurrentService::new(svc);
    let client = front.client();
    // Once unmeasured: the pending queue and thread-locals allocate lazily.
    let tick = Op::AdvanceClamped { to: now };
    client.apply(&tick).result.expect("the writer is up");
    let before = BYTES.load(Ordering::Relaxed);
    client.apply(&tick).result.expect("the writer is up");
    let after = BYTES.load(Ordering::Relaxed);
    drop(client);
    (after - before, front.shutdown().0)
}

/// Bytes allocated by one far `reserve` and the freeze that would publish
/// it, on a service holding `standing` disjoint reservations whose previous
/// snapshot is still held (as a reader would): the chunks the reserve
/// un-shares plus the new snapshot's chunk directory.
fn far_reserve_bytes(standing: u64) -> u64 {
    let mut svc = ScheduleService::new(
        ReferencePolicy::Easy,
        AvailabilityTimeline::constant(MACHINES),
    );
    for k in 0..standing {
        svc.reserve(1 + (k % 4) as u32, Dur(2 + k % 7), Time(20_000 + 10 * k))
            .expect("disjoint windows fit");
    }
    let far = |i: u64| Time(10_000_000 + 10 * i);
    // Once unmeasured: the service's own containers grow lazily.
    svc.reserve(1, Dur(4), far(0))
        .expect("the far edge is free");
    let held = svc.freeze_timeline(0);
    let before = BYTES.load(Ordering::Relaxed);
    svc.reserve(1, Dur(4), far(1))
        .expect("the far edge is free");
    let published = svc.freeze_timeline(1);
    let after = BYTES.load(Ordering::Relaxed);
    assert!(published.generation() > held.generation());
    after - before
}

/// Allocations performed by one `Simulator::run` over `n` jobs (instance
/// construction excluded).
fn engine_run_allocations(n: usize) -> u64 {
    let jobs: Vec<Job> = (0..n)
        .map(|i| Job::released_at(i, 1 + (i % 5) as u32, 1 + (i % 9) as u64, (i as u64) / 2))
        .collect();
    let reservations = vec![
        Reservation::new(0, 3, Dur(40), Time(10)),
        Reservation::new(1, 2, Dur(25), Time(100)),
    ];
    let instance =
        ResaInstance::new(MACHINES, jobs, reservations).expect("the instance is feasible");
    let sim = Simulator::new(instance);
    let before = allocations();
    let result = sim.run(&EasyPolicy);
    let after = allocations();
    assert_eq!(result.schedule.len(), n, "every job must run");
    after - before
}
