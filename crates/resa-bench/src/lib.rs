//! # resa-bench
//!
//! The experiment pipelines reproducing every figure of *"Analysis of
//! Scheduling Algorithms with Reservations"* (IPDPS 2007), plus the extension
//! tables E5–E9.
//!
//! The functions in this library compute the rows of E5–E9; the
//! [`experiments`] module declares the columns of all nine figure/table
//! pipelines and packages each as a self-contained
//! [`experiments::ExperimentReport`] builder. The `resa`
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
    pub worst_ratio: Ratio,
    /// Mean measured ratio.
    pub mean_ratio: f64,
    /// Ratio reached by the adversarial tightness family.
    pub tight_family_ratio: Ratio,
    /// The theoretical bound `2 − 1/m`.
    pub bound: Ratio,
    /// Fraction of instances whose reference was the true optimum.
    pub exact_fraction: Ratio,
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
        let runs: Vec<RatioMeasurement> = (base_seed..base_seed + seeds_per_m)
            .map(|seed| {
                let inst = UniformWorkload::for_cluster(m, jobs).instance(seed);
                harness.measure(&Lsrc::new(), &inst)
            })
            .collect();
        let exact = runs
            .iter()
            .filter(|r| r.reference_kind == ReferenceKind::Optimal);
        let adv = graham_tight_instance(m);
        let tight = Lsrc::new().makespan(&adv.instance).ticks();
        GrahamRow {
            machines: m,
            instances: runs.len(),
            worst_ratio: runs
                .iter()
                .map(|r| Ratio::measured(r.makespan, r.reference))
                .fold(Ratio::new(1, 1), Ord::max),
            mean_ratio: runs.iter().map(|r| r.ratio).sum::<f64>() / seeds_per_m as f64,
            tight_family_ratio: Ratio::new(tight, adv.optimal_makespan.ticks()),
            bound: THEOREM_2.at((m, m, None)),
            exact_fraction: Ratio::new(exact.count() as u64, seeds_per_m),
        }
    })
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

/// One E7 run: `(C_max, certified lower bound, scheduled work, processor
/// area available until C_max)`.
pub type AverageCaseRun = (u64, u64, u128, u128);

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
    /// Every run the means are taken over.
    #[serde(skip)]
    pub runs: Vec<AverageCaseRun>,
}

/// `jobs` Feitelson-style jobs on `m` machines under four random
/// α-restricted reservations (none at α = 1), both drawn from `seed`.
fn feitelson_under_alpha(m: u32, jobs: usize, alpha: Alpha, seed: u64) -> ResaInstance {
    let jobs = FeitelsonWorkload::for_cluster(m, jobs).generate(seed);
    if alpha == Alpha::ONE {
        return ResaInstance::new(m, jobs, Vec::new()).expect("valid");
    }
    let reservations = AlphaReservations {
        machines: m,
        alpha,
        count: 4,
        horizon: 2000,
        max_duration: 300,
    };
    reservations.instance(jobs, seed)
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
        let mut per_algo: Vec<(String, Vec<AverageCaseRun>)> = resa_algos::all_schedulers()
            .iter()
            .map(|s| (s.name(), Vec::new()))
            .collect();
        for seed in base_seed..base_seed + seeds {
            let inst = feitelson_under_alpha(m, jobs, alpha, seed);
            let lb = lower_bound(&inst).expect("finite lower bound").ticks();
            let profile = inst.profile();
            for (i, s) in resa_algos::all_schedulers().iter().enumerate() {
                let sched = s.schedule(&inst);
                let cmax = sched.makespan(&inst);
                let area = profile.available_area(cmax);
                let work = sched.scheduled_work(&inst);
                per_algo[i].1.push((cmax.ticks(), lb.max(1), work, area));
            }
        }
        per_algo
            .into_iter()
            .map(|(name, runs)| {
                let n = runs.len() as f64;
                let ratio = |&(cmax, lb, ..): &AverageCaseRun| cmax as f64 / lb as f64;
                // `Schedule::utilization`: 0 where nothing was available.
                let util = |&(.., work, area): &AverageCaseRun| match area {
                    0 => 0.0,
                    _ => work as f64 / area as f64,
                };
                AverageCaseRow {
                    machines: m,
                    alpha: alpha.as_f64(),
                    algorithm: name,
                    mean_makespan: runs.iter().map(|r| r.0 as f64).sum::<f64>() / n,
                    mean_ratio_to_lb: runs.iter().map(ratio).sum::<f64>() / n,
                    worst_ratio_to_lb: runs.iter().map(ratio).fold(0.0, f64::max),
                    mean_utilization: runs.iter().map(util).sum::<f64>() / n,
                    runs,
                }
            })
            .collect::<Vec<_>>()
    });
    cells.into_iter().flatten().collect()
}

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
    // One cell per seed: that instance's per-order samples
    // `(ratio to lower bound, ratio to LSRC(submission))`.
    let cells: Vec<Vec<(f64, f64)>> = runner.map(&seed_list, |&seed| {
        let inst = feitelson_under_alpha(machines, jobs, alpha, seed);
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
    let n = cells.len() as f64;
    orders
        .iter()
        .enumerate()
        .map(|(i, order)| PriorityRow {
            order: order.to_string(),
            mean_ratio_to_lb: cells.iter().map(|c| c[i].0).sum::<f64>() / n,
            worst_ratio_to_lb: cells.iter().map(|c| c[i].0).fold(0.0, f64::max),
            mean_vs_submission: cells.iter().map(|c| c[i].1).sum::<f64>() / n,
        })
        .collect()
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
    pub worst_vs_offline: Ratio,
    /// Mean waiting time.
    pub mean_wait: f64,
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
    // Per seed, per policy: (makespan, off-line makespan, mean wait).
    let cells: Vec<[(u64, u64, f64); 4]> = runner.map(&seed_list, |&seed| {
        let inst = FeitelsonWorkload::for_cluster(machines, jobs)
            .with_arrivals(mean_interarrival)
            .instance(seed);
        // Clairvoyant off-line reference: LSRC that knows all jobs in advance
        // (still respecting release dates).
        let offline = Lsrc::new().schedule(&inst).makespan(&inst).ticks().max(1);
        let sim = Simulator::new(inst.clone());
        let batched = BatchScheduler::new(Lsrc::new()).schedule(&inst);
        let sample = |m: &SimMetrics| (m.makespan.ticks(), offline, m.mean_wait);
        [
            sample(&sim.run(&FcfsPolicy).metrics),
            sample(&sim.run(&EasyPolicy).metrics),
            sample(&sim.run(&GreedyPolicy).metrics),
            sample(&SimMetrics::from_schedule(&inst, &batched)),
        ]
    });
    let n = cells.len() as f64;
    ONLINE_POLICIES
        .iter()
        .enumerate()
        .map(|(i, policy)| {
            let vs_offline = cells.iter().map(|c| Ratio::new(c[i].0, c[i].1));
            OnlineRow {
                policy: policy.to_string(),
                mean_makespan: cells.iter().map(|c| c[i].0 as f64).sum::<f64>() / n,
                mean_vs_offline: vs_offline.clone().map(Ratio::as_f64).sum::<f64>() / n,
                worst_vs_offline: vs_offline.fold(Ratio::new(0, 1), Ord::max),
                mean_wait: cells.iter().map(|c| c[i].2).sum::<f64>() / n,
            }
        })
        .collect()
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
            if r.exact_fraction == Ratio::new(1, 1) {
                assert!(r.worst_ratio <= r.bound);
            }
            let graham = THEOREM_2.at((r.machines, r.machines, None));
            assert_eq!(r.tight_family_ratio, graham);
            assert!(r.mean_ratio >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn fcfs_experiment_shows_degradation() {
        let rows = fcfs_ratio_experiment(&[8, 16], 40);
        assert_eq!(rows.len(), 2);
        assert!(rows[1].fcfs_over_lsrc > rows[0].fcfs_over_lsrc);
        assert!(rows.iter().all(|r| r.lsrc <= r.fcfs));
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
    }

    #[test]
    fn priority_ablation_smoke() {
        let rows =
            priority_ablation_experiment_seeded(ExperimentRunner::parallel(), 16, 10, 2, (1, 2), 0);
        assert_eq!(rows.len(), ListOrder::DETERMINISTIC.len());
        let submission = rows.iter().find(|r| r.order == "submission").unwrap();
        assert!((submission.mean_vs_submission - 1.0).abs() < 1e-9);
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
        assert_eq!(greedy.worst_vs_offline, Ratio::new(1, 1));
        // The batch wrapper stays within twice the off-line guarantee
        // (2·ρ with ρ = 2 − 1/m < 2) of the clairvoyant off-line makespan.
        let batch = rows.iter().find(|r| r.policy.starts_with("batch")).unwrap();
        assert!(batch.worst_vs_offline <= Ratio::new(4, 1));
    }
}
