//! Stress test of the guarantee-verification layer across workloads, list
//! orders and instance classes: no list schedule may ever conclusively
//! violate a bound the paper proves for its instance class.

use resa_repro::prelude::*;

fn list_schedulers() -> Vec<Box<dyn Scheduler>> {
    let mut v: Vec<Box<dyn Scheduler>> = ListOrder::DETERMINISTIC
        .iter()
        .map(|&o| Box::new(Lsrc::with_order(o)) as Box<dyn Scheduler>)
        .collect();
    v.push(Box::new(LocalSearch::new(Lsrc::new())));
    v.push(Box::new(Lsrc::with_order(ListOrder::Random(17))));
    v
}

/// Reservation-free instances from both workload models: Theorem 2 applies.
#[test]
fn reservation_free_instances_never_violate_graham() {
    let harness = RatioHarness::new();
    for seed in 0..6u64 {
        for instance in [
            UniformWorkload::for_cluster(5, 8).instance(seed),
            FeitelsonWorkload::for_cluster(6, 8).instance(seed),
            LublinWorkload::for_cluster(6, 8).instance(seed),
        ] {
            assert_eq!(classify(&instance), InstanceClass::ReservationFree);
            for s in list_schedulers() {
                let schedule = s.schedule(&instance);
                let report = verify_schedule(&harness, &instance, &schedule, true);
                assert!(
                    !report.has_conclusive_violation(),
                    "{} violated Graham's bound (seed {seed})",
                    s.name()
                );
            }
        }
    }
}

/// Non-increasing staircases: Proposition 1 applies (and the α bound too).
#[test]
fn nonincreasing_instances_never_violate_proposition1() {
    let harness = RatioHarness::new();
    for seed in 0..6u64 {
        let machines = 6u32;
        let jobs = UniformWorkload::for_cluster(machines, 7).generate(seed);
        let instance = NonIncreasingReservations {
            machines,
            steps: 2,
            max_initial_unavailable: machines / 2,
            max_duration: 15,
        }
        .instance(jobs, seed);
        if instance.n_reservations() == 0 {
            continue;
        }
        assert_eq!(classify(&instance), InstanceClass::NonIncreasing);
        for s in list_schedulers() {
            let schedule = s.schedule(&instance);
            let report = verify_schedule(&harness, &instance, &schedule, true);
            assert!(
                !report.has_conclusive_violation(),
                "{} violated a bound (seed {seed}): {report:?}",
                s.name()
            );
        }
    }
}

/// α-restricted random instances: Proposition 3 applies.
#[test]
fn alpha_restricted_instances_never_violate_proposition3() {
    let harness = RatioHarness::new();
    for seed in 0..6u64 {
        let machines = 8u32;
        let alpha = Alpha::HALF;
        let jobs = UniformWorkload {
            machines,
            jobs: 7,
            min_width: 1,
            max_width: alpha.max_job_width(machines),
            min_duration: 1,
            max_duration: 9,
        }
        .generate(seed);
        let instance = AlphaReservations {
            machines,
            alpha,
            count: 2,
            horizon: 30,
            max_duration: 8,
        }
        .instance(jobs, seed);
        for s in list_schedulers() {
            let schedule = s.schedule(&instance);
            let report = verify_schedule(&harness, &instance, &schedule, true);
            assert!(
                !report.has_conclusive_violation(),
                "{} violated a bound (seed {seed})",
                s.name()
            );
        }
    }
}

/// The adversarial Proposition-2 instances sit between the B1 lower bound and
/// the 2/α upper bound, i.e. they do not violate Proposition 3 either.
#[test]
fn proposition2_instances_respect_the_upper_bound() {
    for k in 3..=8u32 {
        let adv = proposition2_instance(k);
        let alpha = proposition2_alpha(k);
        let (cmax, opt) = (
            Lsrc::new().makespan(&adv.instance).ticks(),
            adv.optimal_makespan.ticks(),
        );
        let m = adv.instance.machines();
        assert!(
            PROPOSITION_3.admits((m, m, Some(alpha)), cmax, opt),
            "k = {k}"
        );
        let ratio = Ratio::new(cmax, opt);
        assert!(ratio >= lower_b2(alpha), "k = {k}");
        assert!(ratio >= lower_b1(alpha), "k = {k}");
    }
}

/// Instance round-trips through the textual format preserve every verdict.
#[test]
fn io_roundtrip_preserves_classification_and_ratios() {
    let harness = RatioHarness::new();
    for seed in 0..4u64 {
        let jobs = FeitelsonWorkload::for_cluster(8, 6).generate(seed);
        let instance = AlphaReservations {
            machines: 8,
            alpha: Alpha::new(2, 3).unwrap(),
            count: 2,
            horizon: 40,
            max_duration: 10,
        }
        .instance(jobs, seed);
        let text = write_instance(&instance);
        let reparsed = parse_instance(&text).unwrap();
        assert_eq!(reparsed, instance);
        assert_eq!(classify(&reparsed), classify(&instance));
        let a = harness.measure(&Lsrc::new(), &instance);
        let b = harness.measure(&Lsrc::new(), &reparsed);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.reference, b.reference);
    }
}
