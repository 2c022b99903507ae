//! # resa-bench
//!
//! The experiment pipelines reproducing every figure of *"Analysis of
//! Scheduling Algorithms with Reservations"* (IPDPS 2007), plus the extension
//! tables E5–E9.
//!
//! The functions in this library compute the rows and build the tables; the
//! [`experiments`] module packages each of the nine figure/table pipelines
//! as a self-contained [`experiments::ExperimentReport`] builder. The `resa`
//! CLI (`crates/resa-cli`: `resa figure|table|graham`) is the one front-end
//! that prints and persists them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

use resa_algos::prelude::*;
use resa_analysis::prelude::*;
use resa_core::prelude::*;
use resa_sim::prelude::*;
use resa_workloads::prelude::*;
use serde::Serialize;

/// One row of the Graham-bound experiment (E5).
#[derive(Debug, Clone, Serialize)]
pub struct GrahamRow {
    /// Cluster size.
    pub machines: u32,
    /// Number of random instances measured.
    pub instances: usize,
    /// Largest measured ratio `C_LSRC / reference`.
    pub worst_ratio: f64,
    /// Mean measured ratio.
    pub mean_ratio: f64,
    /// Ratio reached by the adversarial tightness family.
    pub tight_family_ratio: f64,
    /// The theoretical bound `2 − 1/m`.
    pub bound: f64,
    /// Fraction of instances whose reference was the true optimum.
    pub exact_fraction: f64,
}

/// E5: empirical verification of Theorem 2 (Graham's bound) — random rigid
/// workloads plus the tightness family, swept over cluster sizes. Machine
/// `m`, repetition `i` draws its workload from seed `base_seed + i`; rows are
/// identical in either runner mode (one cell per machine size).
pub fn graham_experiment_seeded(
    runner: ExperimentRunner,
    machines_list: &[u32],
    seeds_per_m: u64,
    jobs: usize,
    base_seed: u64,
) -> Vec<GrahamRow> {
    runner.map(machines_list, |&m| {
        let harness = RatioHarness::new();
        let mut worst: f64 = 1.0;
        let mut sum = 0.0;
        let mut exact = 0usize;
        for s in 0..seeds_per_m {
            let seed = base_seed + s;
            let inst = UniformWorkload::for_cluster(m, jobs).instance(seed);
            let measurement = harness.measure(&Lsrc::new(), &inst);
            worst = worst.max(measurement.ratio);
            sum += measurement.ratio;
            if measurement.reference_kind == ReferenceKind::Optimal {
                exact += 1;
            }
        }
        let adv = graham_tight_instance(m);
        let tight = Lsrc::new().makespan(&adv.instance).ticks() as f64
            / adv.optimal_makespan.ticks() as f64;
        GrahamRow {
            machines: m,
            instances: seeds_per_m as usize,
            worst_ratio: worst,
            mean_ratio: sum / seeds_per_m as f64,
            tight_family_ratio: tight,
            bound: graham_bound(m),
            exact_fraction: exact as f64 / seeds_per_m as f64,
        }
    })
}

/// Render the Graham experiment as a [`Table`].
pub fn graham_table(rows: &[GrahamRow]) -> Table {
    let mut t = Table::new(
        "E5 / Theorem 2 — Graham bound for LSRC without reservations",
        &[
            "m",
            "instances",
            "worst ratio",
            "mean ratio",
            "tight family",
            "bound 2-1/m",
            "exact refs",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.machines.to_string(),
            r.instances.to_string(),
            fmt_f64(r.worst_ratio),
            fmt_f64(r.mean_ratio),
            fmt_f64(r.tight_family_ratio),
            fmt_f64(r.bound),
            fmt_f64(r.exact_fraction),
        ]);
    }
    t
}

/// One row of the FCFS-degradation experiment (E6).
#[derive(Debug, Clone, Serialize)]
pub struct FcfsRow {
    /// Cluster size.
    pub machines: u32,
    /// Number of alternating rounds in the adversarial family.
    pub rounds: u32,
    /// FCFS makespan.
    pub fcfs: u64,
    /// Conservative backfilling makespan.
    pub conservative: u64,
    /// EASY backfilling makespan.
    pub easy: u64,
    /// LSRC makespan.
    pub lsrc: u64,
    /// Constructive optimal upper bound.
    pub optimal_upper: u64,
    /// FCFS / LSRC ratio.
    pub fcfs_over_lsrc: f64,
}

/// E6: the FCFS head-of-line-blocking family — FCFS degrades linearly with the
/// number of rounds while LSRC stays near the optimum.
pub fn fcfs_ratio_experiment(machines_list: &[u32], long_duration: u64) -> Vec<FcfsRow> {
    machines_list
        .iter()
        .map(|&m| {
            let rounds = m / 2;
            let adv = fcfs_pathological_instance(m, rounds, long_duration);
            let fcfs = Fcfs::new().makespan(&adv.instance).ticks();
            let conservative = ConservativeBackfilling::new()
                .makespan(&adv.instance)
                .ticks();
            let easy = EasyBackfilling::new().makespan(&adv.instance).ticks();
            let lsrc = Lsrc::new().makespan(&adv.instance).ticks();
            FcfsRow {
                machines: m,
                rounds,
                fcfs,
                conservative,
                easy,
                lsrc,
                optimal_upper: adv.optimal_makespan.ticks(),
                fcfs_over_lsrc: fcfs as f64 / lsrc as f64,
            }
        })
        .collect()
}

/// Render the FCFS experiment as a [`Table`].
pub fn fcfs_table(rows: &[FcfsRow]) -> Table {
    let mut t = Table::new(
        "E6 / §2.2 — FCFS has no constant guarantee (head-of-line blocking family)",
        &[
            "m",
            "rounds",
            "FCFS",
            "conservative",
            "EASY",
            "LSRC",
            "OPT (ub)",
            "FCFS/LSRC",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.machines.to_string(),
            r.rounds.to_string(),
            r.fcfs.to_string(),
            r.conservative.to_string(),
            r.easy.to_string(),
            r.lsrc.to_string(),
            r.optimal_upper.to_string(),
            fmt_f64(r.fcfs_over_lsrc),
        ]);
    }
    t
}

/// Per-algorithm sample accumulator: `(name, [(cmax, cmax/lb, util)])`.
type AlgoSamples = Vec<(String, Vec<(f64, f64, f64)>)>;

/// One row of the average-case comparison (E7).
#[derive(Debug, Clone, Serialize)]
pub struct AverageCaseRow {
    /// Cluster size.
    pub machines: u32,
    /// α restriction applied to the reservations (1 = no reservations).
    pub alpha: f64,
    /// Scheduler name.
    pub algorithm: String,
    /// Mean makespan over the seeds.
    pub mean_makespan: f64,
    /// Mean ratio to the certified lower bound.
    pub mean_ratio_to_lb: f64,
    /// Worst ratio to the certified lower bound.
    pub worst_ratio_to_lb: f64,
    /// Mean utilization.
    pub mean_utilization: f64,
}

/// E7: average-case comparison of every scheduler on Feitelson-style
/// workloads, with α-restricted reservations swept over α. Repetition `i` of
/// every `(machines, α)` cell draws its workload from seed `base_seed + i`;
/// rows are identical in either runner mode (one cell per `(machines, α)`
/// pair, folded in pair order).
pub fn average_case_experiment_seeded(
    runner: ExperimentRunner,
    machines_list: &[u32],
    alphas: &[(u64, u64)],
    jobs: usize,
    seeds: u64,
    base_seed: u64,
) -> Vec<AverageCaseRow> {
    let combos: Vec<(u32, (u64, u64))> = machines_list
        .iter()
        .flat_map(|&m| alphas.iter().map(move |&a| (m, a)))
        .collect();
    let cells: Vec<Vec<AverageCaseRow>> = runner.map(&combos, |&(m, (num, denom))| {
        let alpha = Alpha::new(num, denom).expect("valid alpha parameters");
        let mut per_algo: AlgoSamples = resa_algos::all_schedulers()
            .iter()
            .map(|s| (s.name(), Vec::new()))
            .collect();
        for s in 0..seeds {
            let seed = base_seed + s;
            let workload = FeitelsonWorkload::for_cluster(m, jobs);
            let jobs_vec = workload.generate(seed);
            let inst = if alpha == Alpha::ONE {
                ResaInstance::new(m, jobs_vec, Vec::new()).expect("valid")
            } else {
                AlphaReservations {
                    machines: m,
                    alpha,
                    count: 4,
                    horizon: 2000,
                    max_duration: 300,
                }
                .instance(jobs_vec, seed)
            };
            let lb = lower_bound(&inst)
                .expect("finite lower bound")
                .ticks()
                .max(1) as f64;
            for (i, s) in resa_algos::all_schedulers().iter().enumerate() {
                let sched = s.schedule(&inst);
                let cmax = sched.makespan(&inst).ticks() as f64;
                let util = sched.utilization(&inst);
                per_algo[i].1.push((cmax, cmax / lb, util));
            }
        }
        per_algo
            .into_iter()
            .map(|(name, samples)| {
                let n = samples.len() as f64;
                AverageCaseRow {
                    machines: m,
                    alpha: alpha.as_f64(),
                    algorithm: name,
                    mean_makespan: samples.iter().map(|s| s.0).sum::<f64>() / n,
                    mean_ratio_to_lb: samples.iter().map(|s| s.1).sum::<f64>() / n,
                    worst_ratio_to_lb: samples.iter().map(|s| s.1).fold(0.0, f64::max),
                    mean_utilization: samples.iter().map(|s| s.2).sum::<f64>() / n,
                }
            })
            .collect::<Vec<_>>()
    });
    cells.into_iter().flatten().collect()
}

/// Render the average-case experiment as a [`Table`].
pub fn average_case_table(rows: &[AverageCaseRow]) -> Table {
    let mut t = Table::new(
        "E7 — average-case comparison on Feitelson-style workloads with α-restricted reservations",
        &[
            "m",
            "alpha",
            "algorithm",
            "mean Cmax",
            "mean Cmax/LB",
            "worst Cmax/LB",
            "mean util",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.machines.to_string(),
            fmt_f64(r.alpha),
            r.algorithm.clone(),
            fmt_f64(r.mean_makespan),
            fmt_f64(r.mean_ratio_to_lb),
            fmt_f64(r.worst_ratio_to_lb),
            fmt_f64(r.mean_utilization),
        ]);
    }
    t
}

/// Node budget of the per-cell exact-solver throughput probe in the E8/E9
/// sweeps: large enough for a stable nodes/sec estimate, small enough to
/// stay a negligible fraction of a cell.
const EXACT_PROBE_BUDGET: u64 = 20_000;

/// One row of the priority-order ablation (E8).
#[derive(Debug, Clone, Serialize)]
pub struct PriorityRow {
    /// List order used by LSRC.
    pub order: String,
    /// Mean makespan ratio to the certified lower bound.
    pub mean_ratio_to_lb: f64,
    /// Worst makespan ratio to the certified lower bound.
    pub worst_ratio_to_lb: f64,
    /// Mean makespan ratio relative to LSRC(submission) on the same instance.
    pub mean_vs_submission: f64,
    /// Exact-solver throughput: one budget-bounded probe on the sweep's
    /// first instance, run sequentially *outside* the parallel fan-out so
    /// the wall-clock rate is not diluted by core contention and does not
    /// depend on the runner mode. Identical across the orders of a sweep
    /// (the probe is order-independent).
    pub exact_nodes_per_sec: f64,
    /// Deepest branch-and-bound level the probe reached.
    pub exact_peak_depth: usize,
}

/// E8: ablation of the list order used by LSRC (the improvement direction the
/// paper's conclusion suggests). Repetition `i` draws its instance from seed
/// `base_seed + i`; rows are identical in either runner mode (each seed is one
/// self-contained cell and the aggregation folds the cells in seed order).
pub fn priority_ablation_experiment_seeded(
    runner: ExperimentRunner,
    machines: u32,
    jobs: usize,
    seeds: u64,
    alpha: (u64, u64),
    base_seed: u64,
) -> Vec<PriorityRow> {
    let alpha = Alpha::new(alpha.0, alpha.1).expect("valid alpha");
    let orders = ListOrder::DETERMINISTIC;
    let seed_list: Vec<u64> = (base_seed..base_seed + seeds).collect();
    let make_instance = |seed: u64| {
        let jobs_vec = FeitelsonWorkload::for_cluster(machines, jobs).generate(seed);
        AlphaReservations {
            machines,
            alpha,
            count: 4,
            horizon: 2000,
            max_duration: 300,
        }
        .instance(jobs_vec, seed)
    };
    // One cell per seed: that instance's per-order samples
    // `(ratio to lower bound, ratio to LSRC(submission))`.
    let cells: Vec<Vec<(f64, f64)>> = runner.map_seeds(&seed_list, |seed| {
        let inst = make_instance(seed);
        let lb = lower_bound(&inst)
            .expect("finite lower bound")
            .ticks()
            .max(1) as f64;
        let submission = Lsrc::new().makespan(&inst).ticks() as f64;
        orders
            .iter()
            .map(|&order| {
                let cmax = Lsrc::with_order(order).makespan(&inst).ticks() as f64;
                (cmax / lb, cmax / submission)
            })
            .collect()
    });
    // Exact throughput probe: sequential and outside the fan-out, so the
    // wall-clock nodes/sec is measured solo (see the row field docs).
    let probe = seed_list.first().map(|&seed| {
        RatioHarness {
            exact_node_budget: EXACT_PROBE_BUDGET,
            ..RatioHarness::default()
        }
        .probe_exact(&make_instance(seed))
    });
    let exact_nodes_per_sec = probe.map_or(0.0, |p| p.nodes_per_sec);
    let exact_peak_depth = probe.map_or(0, |p| p.peak_depth);
    let n = cells.len() as f64;
    orders
        .iter()
        .enumerate()
        .map(|(i, order)| PriorityRow {
            order: order.to_string(),
            mean_ratio_to_lb: cells.iter().map(|c| c[i].0).sum::<f64>() / n,
            worst_ratio_to_lb: cells.iter().map(|c| c[i].0).fold(0.0, f64::max),
            mean_vs_submission: cells.iter().map(|c| c[i].1).sum::<f64>() / n,
            exact_nodes_per_sec,
            exact_peak_depth,
        })
        .collect()
}

/// Render the ablation as a [`Table`].
pub fn priority_table(rows: &[PriorityRow]) -> Table {
    let mut t = Table::new(
        "E8 — LSRC list-order ablation (conclusion of the paper)",
        &[
            "order",
            "mean Cmax/LB",
            "worst Cmax/LB",
            "vs submission",
            "exact nodes/s",
            "exact depth",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.order.clone(),
            fmt_f64(r.mean_ratio_to_lb),
            fmt_f64(r.worst_ratio_to_lb),
            fmt_f64(r.mean_vs_submission),
            format!("{:.0}", r.exact_nodes_per_sec),
            r.exact_peak_depth.to_string(),
        ]);
    }
    t
}

/// One row of the on-line batch experiment (E9).
#[derive(Debug, Clone, Serialize)]
pub struct OnlineRow {
    /// On-line policy or wrapper.
    pub policy: String,
    /// Mean makespan over the seeds.
    pub mean_makespan: f64,
    /// Mean makespan normalized by the clairvoyant off-line LSRC makespan.
    pub mean_vs_offline: f64,
    /// Worst makespan normalized by the clairvoyant off-line LSRC makespan.
    pub worst_vs_offline: f64,
    /// Mean waiting time.
    pub mean_wait: f64,
    /// Exact-solver throughput: one budget-bounded probe on the sweep's
    /// first instance, run sequentially *outside* the parallel fan-out so
    /// the wall-clock rate is not diluted by core contention and does not
    /// depend on the runner mode. Identical across the policies of a sweep
    /// (the probe is policy-independent).
    pub exact_nodes_per_sec: f64,
    /// Deepest branch-and-bound level the probe reached.
    pub exact_peak_depth: usize,
}

/// Names of the four policies/wrappers measured by the E9 experiment.
const ONLINE_POLICIES: [&str; 4] = [
    "FCFS (online)",
    "EASY (online)",
    "greedy-LSRC (online)",
    "batch(LSRC) wrapper",
];

/// E9: on-line policies and the batch-doubling wrapper against the clairvoyant
/// off-line LSRC (the §2.1 argument: the batched on-line loss stays within a
/// factor 2 of the off-line *guarantee*). Repetition `i` draws its instance
/// from seed `base_seed + i`; every seed is one self-contained simulation cell
/// (its own instance, its own RNG stream), so the parallel and sequential
/// runners produce identical rows.
pub fn online_batch_experiment_seeded(
    runner: ExperimentRunner,
    machines: u32,
    jobs: usize,
    mean_interarrival: u64,
    seeds: u64,
    base_seed: u64,
) -> Vec<OnlineRow> {
    let seed_list: Vec<u64> = (base_seed..base_seed + seeds).collect();
    let make_instance = |seed: u64| {
        FeitelsonWorkload::for_cluster(machines, jobs)
            .with_arrivals(mean_interarrival)
            .instance(seed)
    };
    // Per seed, per policy: (makespan, makespan / offline, mean wait).
    let cells: Vec<[(f64, f64, f64); 4]> = runner.map_seeds(&seed_list, |seed| {
        let inst = make_instance(seed);
        // Clairvoyant off-line reference: LSRC that knows all jobs in advance
        // (still respecting release dates).
        let offline = Lsrc::new().schedule(&inst).makespan(&inst).ticks().max(1) as f64;
        let sim = Simulator::new(inst.clone());
        let batched = BatchScheduler::new(Lsrc::new()).schedule(&inst);
        let sample = |m: &SimMetrics| {
            (
                m.makespan.ticks() as f64,
                m.makespan.ticks() as f64 / offline,
                m.mean_wait,
            )
        };
        [
            sample(&sim.run(&FcfsPolicy).metrics),
            sample(&sim.run(&EasyPolicy).metrics),
            sample(&sim.run(&GreedyPolicy).metrics),
            sample(&SimMetrics::from_schedule(&inst, &batched)),
        ]
    });
    // Exact throughput probe: sequential and outside the fan-out, so the
    // wall-clock nodes/sec is measured solo (see the row field docs).
    let probe = seed_list.first().map(|&seed| {
        RatioHarness {
            exact_node_budget: EXACT_PROBE_BUDGET,
            ..RatioHarness::default()
        }
        .probe_exact(&make_instance(seed))
    });
    let exact_nodes_per_sec = probe.map_or(0.0, |p| p.nodes_per_sec);
    let exact_peak_depth = probe.map_or(0, |p| p.peak_depth);
    let n = cells.len() as f64;
    ONLINE_POLICIES
        .iter()
        .enumerate()
        .map(|(i, policy)| OnlineRow {
            policy: policy.to_string(),
            mean_makespan: cells.iter().map(|c| c[i].0).sum::<f64>() / n,
            mean_vs_offline: cells.iter().map(|c| c[i].1).sum::<f64>() / n,
            worst_vs_offline: cells.iter().map(|c| c[i].1).fold(0.0, f64::max),
            mean_wait: cells.iter().map(|c| c[i].2).sum::<f64>() / n,
            exact_nodes_per_sec,
            exact_peak_depth,
        })
        .collect()
}

/// Render the on-line experiment as a [`Table`].
pub fn online_table(rows: &[OnlineRow]) -> Table {
    let mut t = Table::new(
        "E9 / §2.1 — on-line policies and the batch-doubling wrapper vs clairvoyant off-line LSRC",
        &[
            "policy",
            "mean Cmax",
            "mean vs offline",
            "worst vs offline",
            "mean wait",
            "exact nodes/s",
            "exact depth",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.policy.clone(),
            fmt_f64(r.mean_makespan),
            fmt_f64(r.mean_vs_offline),
            fmt_f64(r.worst_vs_offline),
            fmt_f64(r.mean_wait),
            format!("{:.0}", r.exact_nodes_per_sec),
            r.exact_peak_depth.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graham_experiment_respects_bound() {
        let rows = graham_experiment_seeded(ExperimentRunner::parallel(), &[3, 4], 4, 6, 0);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            // Ratios against the optimum (exact references) never exceed the
            // bound; lower-bound references can only inflate the ratio, so we
            // only assert the bound when every reference was exact.
            if (r.exact_fraction - 1.0).abs() < 1e-9 {
                assert!(r.worst_ratio <= r.bound + 1e-9);
            }
            assert!((r.tight_family_ratio - r.bound).abs() < 1e-9);
            assert!(r.mean_ratio >= 1.0 - 1e-9);
        }
        assert!(!graham_table(&rows).is_empty());
    }

    #[test]
    fn fcfs_experiment_shows_degradation() {
        let rows = fcfs_ratio_experiment(&[8, 16], 40);
        assert_eq!(rows.len(), 2);
        assert!(rows[1].fcfs_over_lsrc > rows[0].fcfs_over_lsrc);
        assert!(rows.iter().all(|r| r.lsrc <= r.fcfs));
        assert!(!fcfs_table(&rows).is_empty());
    }

    #[test]
    fn average_case_smoke() {
        let rows = average_case_experiment_seeded(
            ExperimentRunner::parallel(),
            &[16],
            &[(1, 2), (1, 1)],
            12,
            2,
            0,
        );
        // 2 alphas × all schedulers.
        assert_eq!(rows.len(), 2 * resa_algos::all_schedulers().len());
        assert!(rows.iter().all(|r| r.mean_ratio_to_lb >= 1.0 - 1e-9));
        assert!(rows.iter().all(|r| r.mean_utilization <= 1.0 + 1e-9));
        assert!(!average_case_table(&rows).is_empty());
    }

    #[test]
    fn priority_ablation_smoke() {
        let rows =
            priority_ablation_experiment_seeded(ExperimentRunner::parallel(), 16, 10, 2, (1, 2), 0);
        assert_eq!(rows.len(), ListOrder::DETERMINISTIC.len());
        let submission = rows.iter().find(|r| r.order == "submission").unwrap();
        assert!((submission.mean_vs_submission - 1.0).abs() < 1e-9);
        // The exact-solver throughput probe is visible in every row.
        assert!(rows.iter().all(|r| r.exact_nodes_per_sec > 0.0));
        assert!(rows.iter().all(|r| r.exact_peak_depth <= 10));
        assert!(!priority_table(&rows).is_empty());
    }

    #[test]
    fn online_experiment_smoke() {
        let rows = online_batch_experiment_seeded(ExperimentRunner::parallel(), 16, 15, 5, 2, 0);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(
                r.mean_vs_offline.is_finite() && r.mean_vs_offline > 0.0,
                "{}",
                r.policy
            );
        }
        // The on-line greedy policy is exactly the off-line LSRC (it never
        // uses future knowledge), so its normalized makespan is 1.
        let greedy = rows
            .iter()
            .find(|r| r.policy.starts_with("greedy"))
            .unwrap();
        assert!((greedy.worst_vs_offline - 1.0).abs() < 1e-9);
        // The batch wrapper stays within twice the off-line guarantee
        // (2·ρ with ρ = 2 − 1/m < 2) of the clairvoyant off-line makespan.
        let batch = rows.iter().find(|r| r.policy.starts_with("batch")).unwrap();
        assert!(batch.worst_vs_offline <= 4.0 + 1e-9);
        assert!(rows.iter().all(|r| r.exact_nodes_per_sec > 0.0));
        assert!(!online_table(&rows).is_empty());
    }
}
