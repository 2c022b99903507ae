//! `core.timeline.*`: the substrate's operations on a timeline rebuilt to the
//! state a workload left it in, with seeded shapes. One span covers a batch
//! of calls (a single call is shorter than recording a span around it costs);
//! the figure is the batch time divided by the calls.

use crate::Collector;
use benchkit::rng::Rng;
use resa_core::capacity::Speculate;
use resa_core::prelude::*;

/// Calls per batch.
const CALLS: usize = 2_000;

/// Measure on `profile` (the workload's end state); shapes start within
/// `[from, until]` and are at most `max_width` wide.
pub fn measure(
    c: &mut Collector,
    profile: &ResourceProfile,
    from: u64,
    until: u64,
    max_width: u32,
) {
    let (mut timeline, _) = c.timed("core.timeline.from_profile", 0, || {
        AvailabilityTimeline::from_profile(profile)
    });
    c.set("core.timeline.breakpoints", timeline.breakpoints() as f64);

    let mut rng = Rng::new(c.seed, "core.timeline");
    let until = until.max(from + 1);
    let shapes: Vec<(u32, Dur, Time)> = (0..CALLS)
        .map(|_| {
            (
                rng.range(1, u64::from(max_width)) as u32,
                Dur(rng.range(1, 60)),
                Time(rng.range(from, until)),
            )
        })
        .collect();
    let per_call = |ns: u64| ns as f64 / CALLS as f64;

    let ns = c.span("core.timeline.earliest_fit", 0, || {
        for &(width, dur, not_before) in &shapes {
            std::hint::black_box(timeline.earliest_fit(width, dur, not_before));
        }
    });
    c.set("core.timeline.earliest_fit_ns", per_call(ns));

    let ns = c.span("core.timeline.speculate", 0, || {
        for &(width, dur, not_before) in &shapes {
            std::hint::black_box(timeline.speculate(|s| {
                let start = s.earliest_fit(width, dur, not_before)?;
                s.reserve(start, dur, width).ok()?;
                Some(start)
            }));
        }
    });
    c.set("core.timeline.speculate_ns", per_call(ns));

    // Find where each shape fits, in sequence, on a scratch copy; the same
    // sequence of reserves is then valid — and timed alone — on the original.
    let mut scratch = timeline.clone();
    let (placed, _) = c.timed("core.timeline.place", 0, || {
        shapes
            .iter()
            .filter_map(|&(width, dur, not_before)| {
                let start = scratch.earliest_fit(width, dur, not_before)?;
                scratch.reserve(start, dur, width).ok()?;
                Some((start, dur, width))
            })
            .collect::<Vec<(Time, Dur, u32)>>()
    });
    let ns = c.span("core.timeline.reserve", 0, || {
        for &(start, dur, width) in &placed {
            timeline
                .reserve(start, dur, width)
                .expect("placed on the scratch copy");
        }
    });
    c.set(
        "core.timeline.reserve_ns",
        ns as f64 / placed.len().max(1) as f64,
    );
    let ns = c.span("core.timeline.release", 0, || {
        for &(start, dur, width) in placed.iter().rev() {
            timeline
                .release(start, dur, width)
                .expect("reserved just above");
        }
    });
    c.set(
        "core.timeline.release_ns",
        ns as f64 / placed.len().max(1) as f64,
    );

    // Sweep the retirement frontier across the whole state.
    let step = ((until - from) / CALLS as u64).max(1);
    let ns = c.span("core.timeline.retire_before", 0, || {
        for i in 1..=CALLS as u64 {
            scratch.retire_before(Time(from + i * step));
        }
    });
    c.set("core.timeline.retire_before_ns", per_call(ns));
}
