//! One rule, one schedule: the on-line policies of `resa-sim` and the
//! off-line schedulers of `resa-algos` run the same §2.2 decisions
//! (`resa_core::decision`), so on an instance whose job slice is already in
//! arrival order each pair must produce the *same schedule*, not merely the
//! same makespan:
//!
//! * on-line `easy` ≡ [`EasyBackfilling`];
//! * on-line `greedy` ≡ [`Lsrc::new`];
//! * on-line `fcfs` ≡ [`Fcfs`].
//!
//! The second half pins [`Lsrc`] itself against its former loop, kept below
//! verbatim as the oracle: a full list rescan, `Vec::remove` per start and a
//! clock that visits every completion. It runs on unsorted slices with
//! shuffled ids, under every [`ListOrder`] and under
//! [`Lsrc::schedule_clamped`].
//!
//! Instances are drawn from a seeded generator covering every reservation
//! class of the paper (none, non-increasing, α-restricted, unrestricted).

use resa_repro::prelude::*;
use std::collections::BTreeSet;

/// SplitMix64: a seeded stream, enough for instance shapes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

const CLASSES: [InstanceClass; 4] = [
    InstanceClass::ReservationFree,
    InstanceClass::NonIncreasing,
    InstanceClass::AlphaRestricted,
    InstanceClass::Unrestricted,
];

/// An instance of `class`. With `arrival_order` the job slice is sorted by
/// `(release, id)` with dense ids; otherwise releases are drawn
/// independently and ids are a permutation, so neither the slice order nor
/// the ids follow the releases.
fn instance(rng: &mut Rng, class: InstanceClass, arrival_order: bool) -> ResaInstance {
    let m = rng.range(2, 12) as u32;
    let n = rng.range(0, 24) as usize;
    let (max_width, reservation_width) = match class {
        InstanceClass::ReservationFree | InstanceClass::NonIncreasing => (m, m - 1),
        // q_j ≤ m/2 and U(t) ≤ m − m/2: α = ½ holds.
        InstanceClass::AlphaRestricted => (m / 2, m - m / 2),
        InstanceClass::Unrestricted => (m, m),
    };
    let mut release = 0u64;
    let mut jobs: Vec<Job> = (0..n)
        .map(|i| {
            let r = if arrival_order {
                release += rng.range(0, 3).saturating_sub(1);
                release
            } else {
                rng.range(0, 30)
            };
            let width = rng.range(1, u64::from(max_width)) as u32;
            Job::released_at(i, width, rng.range(1, 15), r)
        })
        .collect();
    if class == InstanceClass::Unrestricted {
        // A full-width job makes every reservation an obstruction.
        jobs.push(Job::released_at(n, m, rng.range(1, 15), release));
    }
    if !arrival_order {
        for i in (1..jobs.len()).rev() {
            let j = rng.range(0, i as u64) as usize;
            let id = jobs[i].id;
            jobs[i].id = jobs[j].id;
            jobs[j].id = id;
        }
    }
    let reservations: Vec<Reservation> = match class {
        InstanceClass::ReservationFree => Vec::new(),
        // All at time 0 and side by side: U only ever falls.
        InstanceClass::NonIncreasing => {
            let k = rng.range(1, u64::from(reservation_width.min(3)));
            (0..k)
                .map(|i| {
                    let w = rng.range(1, u64::from((reservation_width / k as u32).max(1)));
                    Reservation::new(i as usize, w as u32, rng.range(1, 25), 0u64)
                })
                .collect()
        }
        // Two or more disjoint windows after time 0: U rises again.
        _ => (0..rng.range(2, 4))
            .map(|i| {
                let w = rng.range(1, u64::from(reservation_width));
                Reservation::new(i as usize, w as u32, rng.range(1, 10), 1 + 11 * i)
            })
            .collect(),
    };
    let inst = ResaInstance::new(m, jobs, reservations).expect("generated instances are valid");
    assert_eq!(classify(&inst), class, "generator drew the wrong class");
    inst
}

#[test]
fn online_policies_equal_their_offline_schedulers() {
    let mut rng = Rng(0x5eed_0001);
    for case in 0..240 {
        let class = CLASSES[case % CLASSES.len()];
        let inst = instance(&mut rng, class, true);
        let sim = Simulator::new(inst.clone());
        let pairs = [
            (
                "easy",
                sim.run(&EasyPolicy).schedule,
                EasyBackfilling::new().schedule(&inst),
            ),
            (
                "greedy",
                sim.run(&GreedyPolicy).schedule,
                Lsrc::new().schedule(&inst),
            ),
            (
                "fcfs",
                sim.run(&FcfsPolicy).schedule,
                Fcfs::new().schedule(&inst),
            ),
        ];
        for (rule, online, offline) in pairs {
            assert_eq!(online, offline, "{rule}, case {case} ({class:?})");
            assert!(offline.is_valid(&inst), "{rule}, case {case}");
        }
        // The naive profile substrate decides identically.
        assert_eq!(
            sim.run_on(inst.profile(), &EasyPolicy).schedule,
            EasyBackfilling::new().schedule_with(&inst, inst.profile()),
            "easy on the profile, case {case}"
        );
    }
}

/// With every job released at 0, the greedy policy is exactly LSRC.
#[test]
fn offline_instance_greedy_matches_lsrc() {
    let inst = ResaInstanceBuilder::new(6)
        .job(3, 4u64)
        .job(2, 7u64)
        .job(6, 1u64)
        .job(1, 9u64)
        .reservation(3, 5u64, 2u64)
        .build()
        .unwrap();
    let online = Simulator::new(inst.clone()).run(&GreedyPolicy);
    assert_eq!(online.schedule, Lsrc::new().schedule(&inst));
}

/// `Lsrc::schedule_with` as it was before the shared decision, verbatim
/// but for `self.order` becoming `order`.
fn lsrc_reference<C: CapacityQuery>(
    order: ListOrder,
    instance: &ResaInstance,
    mut profile: C,
) -> Schedule {
    let jobs = instance.jobs();
    let list = order.arrange(jobs);
    let mut remaining: Vec<&Job> = list
        .iter()
        .map(|&id| {
            instance
                .job(id)
                .expect("arranged ids come from the instance")
        })
        .collect();
    let mut schedule = Schedule::new();
    if remaining.is_empty() {
        return schedule;
    }

    // Event times to visit: start at the earliest release date.
    let mut now = jobs.iter().map(|j| j.release).min().unwrap_or(Time::ZERO);
    // Completion times of running jobs (and future release dates) drive
    // the clock forward when nothing fits.
    let mut completions: BTreeSet<Time> = BTreeSet::new();
    let releases: BTreeSet<Time> = jobs.iter().map(|j| j.release).collect();

    while !remaining.is_empty() {
        // Greedy pass: start every job (in list order) that fits now.
        let mut progressed = true;
        while progressed {
            progressed = false;
            let mut i = 0;
            while i < remaining.len() {
                let job = remaining[i];
                if job.release <= now && profile.min_capacity_in(now, job.duration) >= job.width {
                    profile
                        .reserve(now, job.duration, job.width)
                        .expect("capacity was just checked");
                    schedule.place(job.id, now);
                    completions.insert(now + job.duration);
                    remaining.remove(i);
                    progressed = true;
                } else {
                    i += 1;
                }
            }
        }
        if remaining.is_empty() {
            break;
        }
        // Advance the clock to the next event strictly after `now`.
        let next_completion = completions
            .range((std::ops::Bound::Excluded(now), std::ops::Bound::Unbounded))
            .next()
            .copied();
        let next_release = releases
            .range((std::ops::Bound::Excluded(now), std::ops::Bound::Unbounded))
            .next()
            .copied();
        let next_profile_change = profile.next_change_after(now);
        let next = [next_completion, next_release, next_profile_change]
            .into_iter()
            .flatten()
            .min();
        match next {
            Some(t) => now = t,
            None => {
                // No more events: everything remaining fits at `now` in a
                // constant-capacity tail, so the greedy pass above would
                // have scheduled it — unless a job is wider than the tail
                // capacity, which cannot happen on a validated instance.
                // Defensive fallback: place jobs sequentially.
                let tail: Vec<&Job> = std::mem::take(&mut remaining);
                for job in tail {
                    let start = profile
                        .earliest_fit(job.width, job.duration, now)
                        .expect("feasible instances always admit a fit");
                    profile
                        .reserve(start, job.duration, job.width)
                        .expect("earliest_fit guarantees capacity");
                    schedule.place(job.id, start);
                }
            }
        }
    }
    schedule
}

#[test]
fn lsrc_equals_its_former_loop_under_every_order() {
    let mut rng = Rng(0x5eed_0002);
    for case in 0..160 {
        let class = CLASSES[case % CLASSES.len()];
        let inst = instance(&mut rng, class, false);
        let orders = ListOrder::DETERMINISTIC
            .into_iter()
            .chain([ListOrder::Random(case as u64)]);
        for order in orders {
            let lsrc = Lsrc::with_order(order);
            assert_eq!(
                lsrc.schedule(&inst),
                lsrc_reference(order, &inst, inst.timeline()),
                "{order}, case {case} ({class:?})"
            );
        }
        // The clamped run of the 2/α argument: at most `cap` processors.
        let cap = rng.range(u64::from(inst.qmax().max(1)), u64::from(inst.machines())) as u32;
        let clamped = AvailabilityTimeline::from(&inst.profile().clamped(cap));
        assert_eq!(
            Lsrc::new().schedule_clamped(&inst, cap),
            lsrc_reference(ListOrder::Submission, &inst, clamped),
            "clamped to {cap}, case {case} ({class:?})"
        );
        assert_eq!(
            Lsrc::new().schedule_with(&inst, inst.profile()),
            lsrc_reference(ListOrder::Submission, &inst, inst.profile()),
            "profile substrate, case {case}"
        );
    }
}
