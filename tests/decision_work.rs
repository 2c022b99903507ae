//! Work pin for the §2.2 decisions (`resa_core::decision`): the range
//! minima a schedule costs, counted rather than timed.
//!
//! One seeded Lublin instance of the benchmark grid's shape (m = 128, an
//! α = ½ overlay, released at 0, so the queue is long and the cluster
//! saturated) is scheduled by [`Lsrc`], [`EasyBackfilling`] and
//! [`EasyPolicy`] through [`run_stream`], each on a substrate that counts
//! its `min_capacity_in` calls. Within one pass a read minimum stays an
//! upper bound, so a decision answers most failing fit checks from the
//! minima it has already read; a change that brings back one query per
//! waiting job multiplies these counts and fails here. A second test pins
//! the decision points and backfills of `EasyBackfilling` on that instance
//! and on a release-dated one. The schedules themselves are pinned by
//! `rule_equivalence.rs` and the goldens.

use resa_repro::prelude::*;
use std::cell::Cell;

/// A substrate that forwards every call to `C` and counts the
/// `min_capacity_in` calls into `min_queries` (outside it: the off-line
/// schedulers take their substrate by value).
struct Counting<'a, C> {
    inner: C,
    min_queries: &'a Cell<u64>,
}

impl<C: CapacityQuery> CapacityQuery for Counting<'_, C> {
    fn base(&self) -> u32 {
        self.inner.base()
    }
    fn capacity_at(&self, t: Time) -> u32 {
        self.inner.capacity_at(t)
    }
    fn min_capacity_in(&self, start: Time, dur: Dur) -> u32 {
        self.min_queries.set(self.min_queries.get() + 1);
        self.inner.min_capacity_in(start, dur)
    }
    fn earliest_fit(&self, width: u32, dur: Dur, not_before: Time) -> Option<Time> {
        self.inner.earliest_fit(width, dur, not_before)
    }
    fn next_change_after(&self, t: Time) -> Option<Time> {
        self.inner.next_change_after(t)
    }
    fn capacity_profile_in(&self, start: Time, end: Time, out: &mut Vec<(Time, u32)>) {
        self.inner.capacity_profile_in(start, end, out)
    }
    fn retire_before(&mut self, t: Time) {
        self.inner.retire_before(t)
    }
    fn reserve(&mut self, start: Time, dur: Dur, width: u32) -> Result<(), ProfileError> {
        self.inner.reserve(start, dur, width)
    }
    fn release(&mut self, start: Time, dur: Dur, width: u32) -> Result<(), ProfileError> {
        self.inner.release(start, dur, width)
    }
}

/// The instance: 1 000 Lublin jobs on 128 machines under 100 α = ½
/// reservations, as `resa sweep` decorates a grid cell.
fn instance() -> ResaInstance {
    let machines = 128;
    let jobs = LublinWorkload::for_cluster(machines, 1_000).generate(1);
    AlphaReservations {
        machines,
        alpha: Alpha::HALF,
        count: 100,
        horizon: 2_000,
        max_duration: 300,
    }
    .instance(jobs, 1)
}

/// `min_capacity_in` calls of each scheduler on the instance, and the
/// makespan it reached (the same for both EASY schedulers).
#[test]
fn decisions_answer_failing_fits_from_the_minima_they_read() {
    let inst = instance();
    let overlay = inst.profile();
    let [lsrc, easy, online] = [(); 3].map(|_| Cell::new(0));
    let counting = |min_queries| Counting {
        inner: AvailabilityTimeline::from(&overlay),
        min_queries,
    };

    let lsrc_schedule = Lsrc::new().schedule_with(&inst, counting(&lsrc));
    assert!(lsrc_schedule.is_valid(&inst));

    let easy_schedule = EasyBackfilling::new().schedule_with(&inst, counting(&easy));
    assert!(easy_schedule.is_valid(&inst));

    let outcome = run_stream(
        &mut counting(&online),
        &overlay,
        &EasyPolicy,
        &mut InstanceSource::new(&inst),
        &mut DiscardSink::default(),
    );
    assert_eq!(outcome.metrics.makespan, easy_schedule.makespan(&inst));

    // Counted with one query per fit check that passed the `free_now`
    // filter: 81 905, 103 341 and 103 360; with the per-pass staircase:
    // 4 411, 34 641 and 34 660 (EASY's rest is mostly its shadow guard);
    // with the guard's own staircase, asked before the fit query, and the
    // walk ending at zero free capacity: 4 411, 5 821 and 5 840.
    let counts = [
        ("Lsrc", lsrc.get(), 5_500),
        ("EasyBackfilling", easy.get(), 6_500),
        ("EasyPolicy", online.get(), 6_500),
    ];
    for (scheduler, calls, ceiling) in counts {
        println!("{scheduler}: {calls} min_capacity_in calls");
        assert!(
            calls <= ceiling,
            "{scheduler} made {calls} min_capacity_in calls, above its pin of {ceiling}"
        );
    }
}

/// The same jobs arriving over time (mean gap `gap`), so the queue's tail
/// is still unreleased at most decision points.
fn released_instance(gap: u64) -> ResaInstance {
    let machines = 128;
    let jobs = LublinWorkload::for_cluster(machines, 1_000)
        .with_arrivals(gap)
        .generate(1);
    AlphaReservations {
        machines,
        alpha: Alpha::HALF,
        count: 100,
        horizon: 2_000,
        max_duration: 300,
    }
    .instance(jobs, 1)
}

/// The decision points and backfills of [`EasyBackfilling`], as they were
/// while its walk still visited the whole list: a pass that stops at zero
/// free capacity must still report a released job left behind its cursor,
/// and only such a job, or the loop wakes at other instants. At gap 80 the
/// list's tail is unreleased at many of those stops; a walk that reported
/// every early stop as a candidate left wakes 8 more times there, one that
/// reported none changes both schedules.
#[test]
fn easy_wakes_where_the_whole_list_walk_woke() {
    for (name, inst, expected) in [
        ("released at 0", instance(), (816, 879)),
        ("release-dated", released_instance(80), (1_293, 265)),
    ] {
        let (schedule, stats) = EasyBackfilling::new().schedule_with_stats(&inst, inst.timeline());
        assert!(schedule.is_valid(&inst), "{name}");
        assert_eq!((stats.decision_points, stats.backfills), expected, "{name}");
    }
}
