//! The chunked timeline at production chunk capacity.
//!
//! The crate's unit and property tests compile the library under
//! `cfg(test)`, where a chunk holds four breakpoints so that a few dozen of
//! them already split, merge and cross chunks. An integration test links the
//! library as shipped, so this is where the real capacity meets a state of
//! the size it was chosen for: the `serve-probe` shape — 2 000 disjoint
//! standing windows, a placed backlog, then reserve / release / retire churn
//! at the far edge — checked against a [`ResourceProfile`] driven by the
//! same calls after every step.

use resa_core::prelude::*;

/// xorshift64*: the probes only need to be seeded and spread out.
struct Rng(u64);

impl Rng {
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        lo + self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % (hi - lo + 1)
    }
}

const MACHINES: u32 = 16;
const RESERVED_FROM: u64 = 20_000;
const RESERVED_UNTIL: u64 = RESERVED_FROM + 10 * 2_000;
const FAR_EDGE: u64 = 10_000_000;

/// Every answer the two substrates can be asked for, on one state.
fn assert_same(tl: &AvailabilityTimeline, p: &ResourceProfile, rng: &mut Rng, step: &str) {
    assert_eq!(tl.to_profile(), *p, "{step}");
    assert_eq!(tl.breakpoints(), p.steps().len(), "{step}: not normalized");
    for _ in 0..200 {
        let width = rng.range(1, u64::from(MACHINES)) as u32;
        let dur = Dur(rng.range(1, 120));
        // Among the backlog, inside the standing overlay, across its end,
        // around the far edge.
        let from = Time(match rng.range(0, 3) {
            0 => rng.range(0, 2_000),
            1 => rng.range(RESERVED_FROM - 100, RESERVED_UNTIL),
            2 => rng.range(RESERVED_UNTIL - 500, RESERVED_UNTIL + 100),
            _ => rng.range(FAR_EDGE - 10, FAR_EDGE + 1_100),
        });
        assert_eq!(
            tl.earliest_fit(width, dur, from),
            p.earliest_fit(width, dur, from),
            "{step}: earliest_fit({width}, {dur:?}, {from:?})"
        );
        assert_eq!(
            tl.min_capacity_in(from, dur),
            p.min_capacity_in(from, dur),
            "{step}: min_capacity_in({from:?}, {dur:?})"
        );
        assert_eq!(
            CapacityQuery::next_change_after(tl, from),
            p.next_change_after(from),
            "{step}: next_change_after({from:?})"
        );
    }
    for area in [1, 50_000, 300_000, 5_000_000, u128::from(u64::MAX)] {
        assert_eq!(
            tl.earliest_time_with_area(area),
            p.earliest_time_with_area(area),
            "{step}: earliest_time_with_area({area})"
        );
    }
}

#[test]
fn serve_probe_shape_agrees_with_the_profile_after_every_step() {
    let mut rng = Rng(0x5EED_CAFE);
    let mut tl = AvailabilityTimeline::constant(MACHINES);
    let mut p = ResourceProfile::constant(MACHINES);

    // 2 000 disjoint standing windows: ten ticks apart, shorter than that.
    for k in 0..2_000u64 {
        let (start, dur) = (Time(RESERVED_FROM + 10 * k), Dur(rng.range(2, 8)));
        let width = rng.range(1, 4) as u32;
        tl.reserve(start, dur, width).unwrap();
        p.reserve(start, dur, width).unwrap();
    }
    assert_same(&tl, &p, &mut rng, "standing overlay");

    // 400 jobs, each placed where it first fits behind the ones before it.
    for job in 0..400 {
        let (width, dur) = (rng.range(3, 8) as u32, Dur(rng.range(20, 100)));
        let start = tl.earliest_fit(width, dur, Time::ZERO);
        assert_eq!(start, p.earliest_fit(width, dur, Time::ZERO), "job {job}");
        let start = start.expect("the tail is free");
        tl.reserve(start, dur, width).unwrap();
        p.reserve(start, dur, width).unwrap();
    }
    assert_same(&tl, &p, &mut rng, "placed backlog");

    // The write connection's round: a far reserve, its release, the clock.
    for round in 1..=500u64 {
        let (start, width) = (Time(FAR_EDGE + rng.range(0, 999)), rng.range(1, 3) as u32);
        assert_eq!(
            tl.reserve(start, Dur(4), width),
            p.reserve(start, Dur(4), width)
        );
        assert_same(&tl, &p, &mut rng, &format!("round {round}: reserve"));
        assert_eq!(
            tl.release(start, Dur(4), width),
            p.release(start, Dur(4), width)
        );
        assert_same(&tl, &p, &mut rng, &format!("round {round}: release"));
        tl.retire_before(Time(round));
        p.retire_before(Time(round));
        assert_same(&tl, &p, &mut rng, &format!("round {round}: retire"));
    }
}
