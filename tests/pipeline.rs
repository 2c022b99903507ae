//! Cross-crate pipeline tests: workload generation → trace round-trip →
//! off-line scheduling → on-line simulation → metrics → reporting.

use resa_repro::prelude::*;

/// A full "deployment" pipeline: generate a trace, write and re-read it, add
/// reservations, schedule it off-line with every algorithm and on-line with
/// every policy, and cross-check the numbers.
#[test]
fn full_pipeline_offline_and_online_agree_on_feasibility() {
    let machines = 32u32;
    let workload = FeitelsonWorkload::for_cluster(machines, 60).with_arrivals(4);
    let jobs = workload.generate(99);

    // Trace round-trip.
    let text = write_trace(&jobs, machines);
    let parsed = parse_trace(&text).unwrap();
    assert_eq!(parsed, jobs);

    // Add α-restricted reservations.
    let instance = AlphaReservations {
        machines,
        alpha: Alpha::HALF,
        count: 3,
        horizon: 1500,
        max_duration: 200,
    }
    .instance(parsed, 99);
    assert!(instance.is_alpha_restricted(Alpha::HALF));
    let lb = lower_bound(&instance).unwrap();

    // Off-line algorithms.
    for s in resa_algos::all_schedulers() {
        let schedule = s.schedule(&instance);
        assert!(schedule.is_valid(&instance), "{}", s.name());
        assert!(schedule.makespan(&instance) >= lb);
        let assignment = schedule.assign_processors(&instance).unwrap();
        assignment.verify(&instance, &schedule).unwrap();
    }

    // On-line policies.
    let sim = Simulator::new(instance.clone());
    for metrics in [
        sim.run(&FcfsPolicy).metrics,
        sim.run(&EasyPolicy).metrics,
        sim.run(&GreedyPolicy).metrics,
    ] {
        assert_eq!(metrics.jobs, instance.n_jobs());
        assert!(metrics.makespan >= lb);
        assert!(metrics.utilization > 0.0 && metrics.utilization <= 1.0 + 1e-9);
    }
}

/// The off-line LSRC and the on-line greedy policy coincide when every job is
/// released at time 0 (the paper's off-line model), even with reservations.
#[test]
fn offline_lsrc_equals_online_greedy_without_arrivals() {
    for seed in 0..8u64 {
        let machines = 16u32;
        let jobs = FeitelsonWorkload::for_cluster(machines, 40).generate(seed);
        let instance = AlphaReservations {
            machines,
            alpha: Alpha::new(2, 3).unwrap(),
            count: 3,
            horizon: 800,
            max_duration: 120,
        }
        .instance(jobs, seed);
        let offline = Lsrc::new().schedule(&instance);
        let online = Simulator::new(instance.clone()).run(&GreedyPolicy);
        assert_eq!(
            offline.makespan(&instance),
            online.schedule.makespan(&instance),
            "seed {seed}"
        );
    }
}

/// The ratio harness, the exact solver and the heuristics tell a consistent
/// story on a batch of small instances: optimum ≤ every heuristic, harness
/// ratios ≥ 1, and the report renders every measurement.
#[test]
fn ratio_harness_and_reporting_consistency() {
    let harness = RatioHarness::new();
    let mut measurements = Vec::new();
    for seed in 0..6u64 {
        let inst = UniformWorkload::for_cluster(6, 7).instance(seed);
        let exact = ExactSolver::new().solve(&inst);
        assert!(exact.optimal);
        for m in harness.measure_all(&resa_algos::all_schedulers(), &inst) {
            assert_eq!(m.reference, exact.makespan.ticks());
            assert!(m.makespan >= m.reference);
            assert!(m.ratio >= 1.0 - 1e-12);
            measurements.push((m.algorithm, m.ratio));
        }
    }
    const COLUMNS: [Column<(String, f64)>; 2] =
        [("algorithm", |m| m.0.clone()), ("ratio", |m| fmt_f64(m.1))];
    let table = Table::of("integration", &COLUMNS, &measurements);
    assert!(table.to_text().contains("LSRC"));
    let rows = table.to_csv().lines().count() - 1;
    assert_eq!(rows, 6 * resa_algos::all_schedulers().len());
}

/// Batch-doubling wrapper: feasible, complete, and — the empirical face of the
/// §2.1 doubling argument — its makespan stays within twice the clairvoyant
/// off-line LSRC makespan plus the arrival horizon on staggered workloads.
#[test]
fn batch_doubling_stays_near_offline() {
    for seed in 0..6u64 {
        let machines = 24u32;
        let inst = FeitelsonWorkload::for_cluster(machines, 50)
            .with_arrivals(3)
            .instance(seed);
        let batched = BatchScheduler::new(Lsrc::new()).schedule(&inst);
        assert!(batched.is_valid(&inst));
        assert_eq!(batched.len(), inst.n_jobs());
        let offline = Lsrc::new().schedule(&inst).makespan(&inst).ticks();
        let horizon = inst.max_release().ticks();
        assert!(
            batched.makespan(&inst).ticks() <= 2 * offline + horizon,
            "seed {seed}: batched {} vs offline {offline} (+ horizon {horizon})",
            batched.makespan(&inst)
        );
    }
}

/// Gantt rendering works end to end on a scheduled instance (it needs the
/// processor-assignment machinery underneath).
#[test]
fn gantt_rendering_of_scheduled_instance() {
    let inst = ResaInstanceBuilder::new(6)
        .job(3, 4u64)
        .job(2, 7u64)
        .job(6, 1u64)
        .reservation(3, 5u64, 2u64)
        .build()
        .unwrap();
    let schedule = Lsrc::new().schedule(&inst);
    let txt = render_gantt(&inst, &schedule, 1);
    assert!(txt.contains("m=6 machines"));
    assert!(txt.contains('#'));
    assert_eq!(txt.lines().count(), 6 + 2);
}
