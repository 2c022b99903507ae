//! End-to-end integration tests asserting the paper's results across crates.
//!
//! Each test corresponds to one of the result rows R1–R5 of DESIGN.md and
//! exercises the full pipeline: workload/adversarial generators → algorithms →
//! exact solver / certified bounds → analysis.

use resa_repro::prelude::*;

/// R1 / Theorem 1: on the 3-PARTITION reduction, deciding whether a schedule
/// achieves the yes-makespan is exactly deciding the 3-PARTITION instance.
#[test]
fn r1_theorem1_reduction_yes_and_no() {
    // Yes-instance: the exact schedule packs into the gaps and yields a witness.
    let yes = satisfiable_instance(3, 16, 5);
    let reduction = three_partition_to_resa(&yes, 3);
    let solved = ExactSolver::new().solve(&reduction.instance);
    assert!(solved.optimal);
    assert_eq!(solved.makespan, reduction.yes_makespan);
    let witness = extract_partition(&reduction, &solved.schedule).unwrap();
    assert!(yes.verify(&witness));

    // No-instance: every schedule is pushed past the blocking reservation, so
    // the gap between the yes-makespan and any achievable makespan exceeds the
    // claimed ratio ρ.
    let no = ThreePartition::new(vec![1, 1, 1, 5, 5, 5], 9).unwrap();
    assert!(!no.is_satisfiable());
    let rho = 4;
    let reduction = three_partition_to_resa(&no, rho);
    let solved = ExactSolver::new().solve(&reduction.instance);
    assert!(solved.optimal);
    assert!(solved.makespan > reduction.barrier_end);
    let ratio = solved.makespan.ticks() as f64 / reduction.yes_makespan.ticks() as f64;
    assert!(
        ratio > rho as f64,
        "on a no-instance even the optimum exceeds ρ times the yes-threshold (got {ratio})"
    );
}

/// R1 (second form): the single-reservation variant. A huge reservation right
/// after the optimum of a rigid instance does not disturb the optimum.
#[test]
fn r1_single_reservation_variant() {
    let rigid = ResaInstanceBuilder::new(3)
        .job(2, 4u64)
        .job(1, 4u64)
        .job(3, 2u64)
        .job(1, 2u64)
        .build_rigid()
        .unwrap();
    let opt_rigid = ExactSolver::new()
        .solve(&rigid.clone().into_resa())
        .makespan;
    let resa = rigid_to_single_reservation(&rigid, opt_rigid, 2);
    let opt_resa = ExactSolver::new().solve(&resa);
    assert!(opt_resa.optimal);
    assert_eq!(opt_resa.makespan, opt_rigid);
}

/// R2 / Proposition 1: under non-increasing reservations LSRC stays within
/// (2 − 1/m(C*))·C*, and the transformation into head-of-list rigid tasks
/// reproduces the unavailability area.
#[test]
fn r2_proposition1_bound_holds() {
    for seed in 0..10u64 {
        let machines = 8u32;
        let jobs = UniformWorkload::for_cluster(machines, 7).generate(seed);
        let inst = NonIncreasingReservations {
            machines,
            steps: 3,
            max_initial_unavailable: machines / 2,
            max_duration: 20,
        }
        .instance(jobs, seed);
        assert!(inst.has_nonincreasing_reservations());
        let exact = ExactSolver::new().solve(&inst);
        assert!(exact.optimal, "seed {seed}");
        let available = inst.profile().capacity_at(exact.makespan).max(1);
        let params = (machines, available, None);
        let lsrc = Lsrc::new().makespan(&inst);
        assert!(
            PROPOSITION_1.admits(params, lsrc.ticks(), exact.makespan.ticks()),
            "seed {seed}: LSRC {lsrc} vs bound {:?} × OPT {}",
            PROPOSITION_1.at(params),
            exact.makespan
        );
        // Transformation sanity: surrogate work equals reservation area below
        // the horizon.
        let tr = nonincreasing_to_rigid(&inst, exact.makespan).unwrap();
        let surrogate_work: u128 = tr
            .surrogate_ids
            .iter()
            .map(|&id| tr.instance.job(id).unwrap().work())
            .sum();
        let m_prime = tr.instance.machines();
        let reserved_area: u128 = (0..exact.makespan.ticks())
            .map(|t| {
                let cap = inst.profile().capacity_at(Time(t)).min(m_prime);
                (m_prime - cap) as u128
            })
            .sum();
        assert_eq!(surrogate_work, reserved_area, "seed {seed}");
    }
}

/// R3 / Proposition 2: the adversarial family realises the ratio
/// 2/α − 1 + α/2 exactly, and the instance is α-restricted.
#[test]
fn r3_proposition2_family() {
    for k in 3..=8u32 {
        let adv = proposition2_instance(k);
        let alpha = proposition2_alpha(k);
        assert!(adv.instance.is_alpha_restricted(alpha));
        // The optimum is certified by the lower bound.
        assert_eq!(lower_bound(&adv.instance), Some(adv.optimal_makespan));
        let opt_schedule = proposition2_optimal_schedule(k);
        assert!(opt_schedule.is_valid(&adv.instance));
        assert_eq!(opt_schedule.makespan(&adv.instance), adv.optimal_makespan);
        // LSRC with the submission order hits the predicted ratio.
        let lsrc = Lsrc::new().makespan(&adv.instance);
        let measured = Ratio::new(lsrc.ticks(), adv.optimal_makespan.ticks());
        assert_eq!(measured, lower_proposition2(alpha), "k = {k}");
    }
}

/// R4 / Proposition 3: on α-restricted instances solved to optimality, LSRC
/// never exceeds 2/α times the optimum — whatever list order is used.
#[test]
fn r4_proposition3_upper_bound() {
    let machines = 8u32;
    for seed in 0..12u64 {
        for (num, denom) in [(1u64, 2u64), (1, 4), (3, 4)] {
            let alpha = Alpha::new(num, denom).unwrap();
            let jobs = UniformWorkload {
                machines,
                jobs: 7,
                min_width: 1,
                max_width: alpha.max_job_width(machines).max(1),
                min_duration: 1,
                max_duration: 8,
            }
            .generate(seed);
            let inst = AlphaReservations {
                machines,
                alpha,
                count: 2,
                horizon: 24,
                max_duration: 6,
            }
            .instance(jobs, seed);
            assert!(inst.is_alpha_restricted(alpha));
            let exact = ExactSolver::new().solve(&inst);
            assert!(exact.optimal);
            let params = (machines, machines, Some(alpha));
            for order in ListOrder::DETERMINISTIC {
                let cmax = Lsrc::with_order(order).makespan(&inst);
                assert!(
                    PROPOSITION_3.admits(params, cmax.ticks(), exact.makespan.ticks()),
                    "seed {seed}, α {alpha}, order {order}"
                );
            }
        }
    }
}

/// R5 / Theorem 2: LSRC never exceeds (2 − 1/m)·OPT on reservation-free
/// instances, and the tightness family matches the bound exactly.
#[test]
fn r5_graham_bound_and_tightness() {
    // Random instances, exact optimum.
    for seed in 0..15u64 {
        let inst = UniformWorkload::for_cluster(6, 8).instance(seed);
        let exact = ExactSolver::new().solve(&inst);
        assert!(exact.optimal);
        let params = (6, 6, None);
        for order in ListOrder::DETERMINISTIC {
            let cmax = Lsrc::with_order(order).makespan(&inst);
            assert!(
                THEOREM_2.admits(params, cmax.ticks(), exact.makespan.ticks()),
                "seed {seed}, order {order}"
            );
        }
    }
    // Tightness.
    for m in 2..=10u32 {
        let adv = graham_tight_instance(m);
        let cmax = Lsrc::new().makespan(&adv.instance).ticks();
        let ratio = Ratio::new(cmax, adv.optimal_makespan.ticks());
        assert_eq!(ratio, THEOREM_2.at((m, m, None)), "m = {m}");
    }
}

/// Figure 4 consistency: B2 ≤ B1 ≤ 2/α over the plotted range, and B1
/// coincides with the Proposition-2 value at every α = 2/k.
#[test]
fn figure4_series_consistency() {
    let rows = figure4_series(Alpha::new(1, 20).unwrap(), 200);
    assert_eq!(rows.len(), 200);
    for r in &rows {
        assert!(r.b2 <= r.b1 && r.b1 <= r.upper_bound, "alpha = {}", r.alpha);
    }
    for k in 2..=20u64 {
        let alpha = Alpha::two_over(k).unwrap();
        assert_eq!(lower_b1(alpha), lower_proposition2(alpha), "k = {k}");
    }
}
