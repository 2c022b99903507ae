//! The nine paper experiments as reusable library pipelines.
//!
//! Each `*_report` function runs one figure/table experiment end to end and
//! returns an [`ExperimentReport`]: the rendered [`Table`], the pretty-JSON
//! payload of the underlying rows, human-readable reading notes (including
//! the Figure-3 Gantt charts and the Figure-4 ASCII plot), and a count of
//! **paper-guarantee violations** — conclusive contradictions of the bound
//! or identity the experiment reproduces (expected to be zero; a non-zero
//! count means the reproduction is broken, and the `resa` CLI turns it into
//! a dedicated exit code). Each table is one `const` list of [`Column`]s,
//! declared next to the report that renders it.
//!
//! `resa figure|table|graham` is the one front-end: it renders a report per
//! `--format` and persists it with `--out`.

use crate::{
    average_case_experiment_seeded, fcfs_ratio_experiment, graham_experiment_seeded,
    online_batch_experiment_seeded, priority_ablation_experiment_seeded, AverageCaseRow, FcfsRow,
    GrahamRow, OnlineRow, PriorityRow,
};
use resa_algos::prelude::*;
use resa_analysis::prelude::*;
use resa_core::prelude::*;
use resa_workloads::prelude::*;
use serde::Serialize;

/// Shared knobs of every experiment pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentOptions {
    /// Base seed added to the experiment's default root seeds, so sweeps can
    /// be re-rolled on fresh randomness (`0` reproduces the published
    /// defaults; the closed-form Figure-4 curves ignore it).
    pub seed: u64,
    /// Shrink every sweep to a few cells — for CI smokes and golden tests.
    pub quick: bool,
    /// Fan cells out in parallel or run them sequentially. Rows are
    /// identical either way (see `resa_analysis::runner`). The E6 FCFS
    /// family ([`fcfs_report`]) is a handful of closed-form cells and always
    /// runs sequentially; every other pipeline honors the choice.
    pub runner: ExperimentRunner,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            seed: 0,
            quick: false,
            runner: ExperimentRunner::parallel(),
        }
    }
}

/// The result of one experiment pipeline: everything a front-end (CLI
/// subcommand, CI job) needs to print, persist, or gate on.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Stable experiment name.
    pub name: &'static str,
    /// The rendered table.
    pub table: Table,
    /// Pretty JSON of the row payload.
    pub json: String,
    /// Free-form reading notes printed after the table.
    pub notes: Vec<String>,
    /// Number of conclusive paper-guarantee violations (expected 0).
    pub violations: usize,
}

impl ExperimentReport {
    /// The report whose table (`title` over `columns`), JSON payload and
    /// violation count (the rows `violated` holds for) are all read from
    /// `rows`.
    fn new<R: Serialize>(
        name: &'static str,
        (title, columns): (&str, &[Column<R>]),
        rows: &[R],
        violated: fn(&R) -> bool,
        notes: &[&str],
    ) -> Self {
        ExperimentReport {
            name,
            table: Table::of(title, columns, rows),
            json: to_json(&rows),
            notes: notes.iter().map(|note| note.to_string()).collect(),
            violations: rows.iter().filter(|r| violated(r)).count(),
        }
    }
}

const FIG1: (&str, &[Column<Fig1Row>]) = (
    "E1 / Figure 1 — 3-PARTITION reduction (m = 1)",
    &[
        ("k", |r| r.k.to_string()),
        ("B", |r| r.target.to_string()),
        ("rho", |r| r.rho.to_string()),
        ("satisfiable", |r| r.satisfiable.to_string()),
        ("OPT", |r| r.optimal.to_string()),
        ("yes-makespan", |r| r.yes_makespan.to_string()),
        ("barrier end", |r| r.barrier_end.to_string()),
        ("LSRC", |r| r.lsrc.to_string()),
        ("partition recovered", |r| r.partition_recovered.to_string()),
    ],
);

/// E1 / Figure 1 + Theorem 1: the 3-PARTITION reduction. A violation is a
/// satisfiable instance whose optimum misses the packing (or fails to yield
/// a 3-PARTITION witness), or an unsatisfiable one whose optimum beats the
/// blocking barrier.
pub fn fig1_report(opts: &ExperimentOptions) -> ExperimentReport {
    let (ks, target): (&[usize], u64) = if opts.quick {
        (&[2, 3], 10)
    } else {
        (&[2, 3, 4], 12)
    };
    let rows = opts.runner.figure1(ks, target, 2, 42 + opts.seed);
    ExperimentReport::new(
        "fig1_inapprox",
        FIG1,
        &rows,
        |r| {
            if r.satisfiable {
                r.optimal != r.yes_makespan || !r.partition_recovered
            } else {
                r.optimal <= r.barrier_end
            }
        },
        &["Reading: on satisfiable instances OPT = yes-makespan and the optimal schedule is a\n\
           3-PARTITION witness; on the unsatisfiable instance every schedule overshoots the barrier,\n\
           so a finite-ratio approximation would decide 3-PARTITION (Theorem 1)."],
    )
}

const FIG2: (&str, &[Column<Fig2Row>]) = (
    "E2 / Figure 2 — LSRC under non-increasing reservations vs the 2 - 1/m(C*) bound",
    &[
        ("m", |r| r.machines.to_string()),
        ("jobs", |r| r.jobs.to_string()),
        ("m(C*)", |r| r.available_at_reference.to_string()),
        ("reference", |r| r.reference.to_string()),
        ("ref optimal", |r| r.reference_is_optimal.to_string()),
        ("LSRC", |r| r.lsrc.to_string()),
        ("LSRC (transformed)", |r| r.lsrc_transformed.to_string()),
        ("ratio", |r| fmt_f64(r.ratio)),
        ("bound", |r| fmt_f64(r.bound.as_f64())),
    ],
);

/// E2 / Figure 2 + Proposition 1: non-increasing reservations. A violation
/// is a ratio above the `2 − 1/m(C*)` bound measured against a true optimum.
pub fn fig2_report(opts: &ExperimentOptions) -> ExperimentReport {
    let (machines, jobs, base_seeds): (&[u32], usize, &[u64]) = if opts.quick {
        (&[8], 6, &[1, 2])
    } else {
        (&[8, 16, 32], 10, &[1, 2, 3, 4, 5])
    };
    let seeds: Vec<u64> = base_seeds.iter().map(|s| s + opts.seed).collect();
    let rows = opts.runner.figure2(machines, jobs, &seeds);
    let mut report = ExperimentReport::new(
        "fig2_nonincreasing",
        FIG2,
        &rows,
        |r| r.reference_is_optimal && !r.bound.admits(r.lsrc, r.reference),
        &[],
    );
    report.notes.push(format!(
        "Proposition-1 bound violations (against exact optima): {} (expected 0)",
        report.violations
    ));
    report
}

const FIG3: (&str, &[Column<Fig3Row>]) = (
    "E3 / Figure 3 — Proposition-2 adversarial instances (alpha = 2/k)",
    &[
        ("k", |r| r.k.to_string()),
        ("alpha", |r| fmt_f64(r.alpha)),
        ("m", |r| r.machines.to_string()),
        ("OPT", |r| r.optimal.to_string()),
        ("LSRC", |r| r.lsrc.to_string()),
        ("measured ratio", |r| fmt_f64(r.measured_ratio.as_f64())),
        ("2/a - 1 + a/2", |r| fmt_f64(r.predicted_ratio.as_f64())),
    ],
);

/// E3 / Figure 3 + Proposition 2: the adversarial α-restricted family. A
/// violation is a measured ratio that misses the closed form
/// `2/α − 1 + α/2`, which at `α = 2/k` is `(k² − k + 1)/k`: decided exactly
/// on the two fractions.
pub fn fig3_report(opts: &ExperimentOptions) -> ExperimentReport {
    let ks: &[u32] = if opts.quick {
        &[3, 4, 5, 6]
    } else {
        &[3, 4, 5, 6, 7, 8, 10, 12]
    };
    let rows = opts.runner.figure3(ks);
    // Draw the k = 6 case the way the paper does (Figure 3).
    let adv = proposition2_instance(6);
    let optimal = proposition2_optimal_schedule(6);
    let lsrc = Lsrc::new().schedule(&adv.instance);
    ExperimentReport::new(
        "fig3_adversarial",
        FIG3,
        &rows,
        |r| r.measured_ratio != r.predicted_ratio,
        &[
            &format!(
                "Optimal schedule of the k = 6 instance (C*max = {}):\n{}",
                optimal.makespan(&adv.instance),
                render_gantt(&adv.instance, &optimal, 1)
            ),
            &format!(
                "LSRC schedule of the same instance (Cmax = {}):\n{}",
                lsrc.makespan(&adv.instance),
                render_gantt(&adv.instance, &lsrc, 1)
            ),
        ],
    )
}

const FIG4: (&str, &[Column<Fig4Row>]) = (
    "E4 / Figure 4 — performance bounds for LSRC as a function of alpha",
    &[
        ("alpha", |r| fmt_f64(r.alpha)),
        ("upper bound 2/a", |r| fmt_f64(r.upper_bound.as_f64())),
        ("B1", |r| fmt_f64(r.b1.as_f64())),
        ("B2", |r| fmt_f64(r.b2.as_f64())),
    ],
);

/// E4 / Figure 4: the closed-form bound curves. A violation is an inverted
/// sandwich (`B2 ≤ B1 ≤ 2/α` must hold pointwise).
pub fn fig4_report(opts: &ExperimentOptions) -> ExperimentReport {
    let (denom, points) = if opts.quick { (10, 10) } else { (20, 40) };
    let min_alpha = Alpha::new(1, denom).expect("α in (0, 1]");
    let rows = figure4_series(min_alpha, points);
    let min_alpha = min_alpha.as_f64();
    let mut plot = format!(
        "ASCII plot (x: alpha in [{min_alpha}, 1], y: guarantee clipped at 10; U = 2/a, 1 = B1, 2 = B2)\n",
    );
    let height = 20usize;
    for level in (0..=height).rev() {
        let y = level as f64 * 10.0 / height as f64;
        let mut line = format!("{y:5.1} |");
        for r in &rows {
            let curves = [(r.upper_bound, 'U'), (r.b1, '1'), (r.b2, '2')]
                .map(|(bound, mark)| (bound.as_f64(), mark));
            let hit = curves.iter().find(|(v, _)| (v.min(10.0) - y).abs() < 0.25);
            line.push(hit.map_or(' ', |&(_, mark)| mark));
        }
        plot.push_str(&line);
        plot.push('\n');
    }
    plot.push_str(&format!("      +{}\n", "-".repeat(rows.len())));
    plot.push_str(&format!("       alpha = {min_alpha} .. 1.0"));
    ExperimentReport::new(
        "fig4_bounds",
        FIG4,
        &rows,
        |r| r.b2 > r.b1 || r.b1 > r.upper_bound,
        &[&plot],
    )
}

const GRAHAM: (&str, &[Column<GrahamRow>]) = (
    "E5 / Theorem 2 — Graham bound for LSRC without reservations",
    &[
        ("m", |r| r.machines.to_string()),
        ("instances", |r| r.instances.to_string()),
        ("worst ratio", |r| fmt_f64(r.worst_ratio.as_f64())),
        ("mean ratio", |r| fmt_f64(r.mean_ratio)),
        ("tight family", |r| fmt_f64(r.tight_family_ratio.as_f64())),
        ("bound 2-1/m", |r| fmt_f64(r.bound.as_f64())),
        ("exact refs", |r| fmt_f64(r.exact_fraction.as_f64())),
    ],
);

/// E5 / Theorem 2: Graham's bound. A violation is a worst measured ratio
/// above `2 − 1/m` on a machine size where every reference was exact, or a
/// tightness family that misses the bound.
pub fn graham_report(opts: &ExperimentOptions) -> ExperimentReport {
    let (machines, seeds, jobs): (&[u32], u64, usize) = if opts.quick {
        (&[2, 4], 4, 6)
    } else {
        (&[2, 4, 8, 16, 32], 30, 9)
    };
    let rows = graham_experiment_seeded(opts.runner, machines, seeds, jobs, opts.seed);
    ExperimentReport::new(
        "graham_bound",
        GRAHAM,
        &rows,
        |r| {
            (r.exact_fraction == Ratio::new(1, 1) && r.worst_ratio > r.bound)
                || r.tight_family_ratio != r.bound
        },
        &[
            "Reading: worst measured ratios stay below 2 - 1/m; the tightness family reaches the\n\
           bound exactly, so Theorem 2 is tight.",
        ],
    )
}

const FCFS: (&str, &[Column<FcfsRow>]) = (
    "E6 / §2.2 — FCFS has no constant guarantee (head-of-line blocking family)",
    &[
        ("m", |r| r.machines.to_string()),
        ("rounds", |r| r.rounds.to_string()),
        ("FCFS", |r| r.fcfs.to_string()),
        ("conservative", |r| r.conservative.to_string()),
        ("EASY", |r| r.easy.to_string()),
        ("LSRC", |r| r.lsrc.to_string()),
        ("OPT (ub)", |r| r.optimal_upper.to_string()),
        ("FCFS/LSRC", |r| fmt_f64(r.fcfs_over_lsrc)),
    ],
);

/// E6: the FCFS head-of-line-blocking family. A violation is LSRC losing to
/// FCFS on its own adversarial family.
pub fn fcfs_report(opts: &ExperimentOptions) -> ExperimentReport {
    let (machines, long): (&[u32], u64) = if opts.quick {
        (&[8, 16], 40)
    } else {
        (&[8, 16, 32, 64], 200)
    };
    ExperimentReport::new(
        "table_fcfs_ratio",
        FCFS,
        &fcfs_ratio_experiment(machines, long),
        |r| r.lsrc > r.fcfs,
        &[
            "Reading: the FCFS/LSRC ratio grows roughly like m/2 (the number of rounds), while\n\
           conservative and EASY backfilling recover part of the loss and LSRC stays near OPT.",
        ],
    )
}

const AVERAGE_CASE: (&str, &[Column<AverageCaseRow>]) = (
    "E7 — average-case comparison on Feitelson-style workloads with α-restricted reservations",
    &[
        ("m", |r| r.machines.to_string()),
        ("alpha", |r| fmt_f64(r.alpha)),
        ("algorithm", |r| r.algorithm.clone()),
        ("mean Cmax", |r| fmt_f64(r.mean_makespan)),
        ("mean Cmax/LB", |r| fmt_f64(r.mean_ratio_to_lb)),
        ("worst Cmax/LB", |r| fmt_f64(r.worst_ratio_to_lb)),
        ("mean util", |r| fmt_f64(r.mean_utilization)),
    ],
);

/// E7: the average-case comparison. A violation is a run whose makespan is
/// below the certified lower bound or whose work exceeds the processor area
/// available until its makespan (impossible unless the bound or a scheduler
/// is broken).
pub fn average_case_report(opts: &ExperimentOptions) -> ExperimentReport {
    let rows = if opts.quick {
        average_case_experiment_seeded(opts.runner, &[16], &[(1, 2), (1, 1)], 12, 2, opts.seed)
    } else {
        average_case_experiment_seeded(
            opts.runner,
            &[32, 128],
            &[(3, 10), (1, 2), (7, 10), (1, 1)],
            120,
            8,
            opts.seed,
        )
    };
    ExperimentReport::new(
        "table_average_case",
        AVERAGE_CASE,
        &rows,
        |r| r.runs.iter().any(|&(cmax, lb, work, area)| cmax < lb || work > area),
        &["Reading: average-case ratios sit far below the worst-case guarantees of the paper;\n\
           LSRC and EASY dominate FCFS, and tighter alpha (more reservation mass) degrades everyone."],
    )
}

const PRIORITY: (&str, &[Column<PriorityRow>]) = (
    "E8 — LSRC list-order ablation (conclusion of the paper)",
    &[
        ("order", |r| r.order.clone()),
        ("mean Cmax/LB", |r| fmt_f64(r.mean_ratio_to_lb)),
        ("worst Cmax/LB", |r| fmt_f64(r.worst_ratio_to_lb)),
        ("vs submission", |r| fmt_f64(r.mean_vs_submission)),
    ],
);

/// E8: the LSRC list-order ablation. A violation is the submission order
/// disagreeing with itself (`vs submission ≠ 1` on its own row; a mean of
/// `x / x` is exactly 1.0 in IEEE-754, so the test is exact).
pub fn priority_report(opts: &ExperimentOptions) -> ExperimentReport {
    let rows = if opts.quick {
        priority_ablation_experiment_seeded(opts.runner, 16, 10, 2, (1, 2), opts.seed)
    } else {
        priority_ablation_experiment_seeded(opts.runner, 64, 150, 10, (1, 2), opts.seed)
    };
    ExperimentReport::new(
        "table_priority_ablation",
        PRIORITY,
        &rows,
        |r| r.order == "submission" && r.mean_vs_submission != 1.0,
        &["Reading: LPT (decreasing durations) is the strongest simple order on average, which is\n\
           exactly the refinement the paper's conclusion proposes to analyse."],
    )
}

const ONLINE: (&str, &[Column<OnlineRow>]) = (
    "E9 / §2.1 — on-line policies and the batch-doubling wrapper vs clairvoyant off-line LSRC",
    &[
        ("policy", |r| r.policy.clone()),
        ("mean Cmax", |r| fmt_f64(r.mean_makespan)),
        ("mean vs offline", |r| fmt_f64(r.mean_vs_offline)),
        ("worst vs offline", |r| fmt_f64(r.worst_vs_offline.as_f64())),
        ("mean wait", |r| fmt_f64(r.mean_wait)),
    ],
);

/// E9: on-line policies and the batch-doubling wrapper. A violation is the
/// greedy policy diverging from the off-line LSRC it provably equals, or the
/// batch wrapper exceeding twice the off-line guarantee (`2·(2 − 1/m) < 4`),
/// both decided on the exact worst ratio.
pub fn online_report(opts: &ExperimentOptions) -> ExperimentReport {
    let rows = if opts.quick {
        online_batch_experiment_seeded(opts.runner, 16, 15, 5, 2, opts.seed)
    } else {
        online_batch_experiment_seeded(opts.runner, 64, 200, 8, 6, opts.seed)
    };
    ExperimentReport::new(
        "table_online_batch",
        ONLINE,
        &rows,
        |r| {
            (r.policy.starts_with("greedy") && r.worst_vs_offline != Ratio::new(1, 1))
                || (r.policy.starts_with("batch") && r.worst_vs_offline > Ratio::new(4, 1))
        },
        &["Reading: the batch-doubling wrapper stays well within twice the clairvoyant off-line\n\
           makespan, the empirical face of the doubling argument recalled in §2.1."],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentOptions {
        ExperimentOptions {
            quick: true,
            ..ExperimentOptions::default()
        }
    }

    #[test]
    fn every_report_runs_clean_in_quick_mode() {
        for report in [
            fig1_report(&quick()),
            fig2_report(&quick()),
            fig3_report(&quick()),
            fig4_report(&quick()),
            graham_report(&quick()),
            fcfs_report(&quick()),
            average_case_report(&quick()),
            priority_report(&quick()),
            online_report(&quick()),
        ] {
            assert!(
                report.json.starts_with('['),
                "{} payload must be a JSON array",
                report.name
            );
            assert_eq!(report.violations, 0, "{} violated a guarantee", report.name);
        }
    }

    #[test]
    fn reports_are_deterministic_across_runner_modes() {
        let seq = ExperimentOptions {
            runner: ExperimentRunner::sequential(),
            ..quick()
        };
        assert_eq!(fig3_report(&quick()).json, fig3_report(&seq).json);
        assert_eq!(fig2_report(&quick()).json, fig2_report(&seq).json);
        assert_eq!(priority_report(&quick()).json, priority_report(&seq).json);
        assert_eq!(online_report(&quick()).json, online_report(&seq).json);
    }

    #[test]
    fn seed_offset_changes_random_experiments() {
        let shifted = ExperimentOptions { seed: 1, ..quick() };
        // Figure 2 draws random staircases: a shifted base seed must produce
        // a different payload. Figure 4 is closed-form: seed-independent.
        assert_ne!(fig2_report(&quick()).json, fig2_report(&shifted).json);
        assert_eq!(fig4_report(&quick()).json, fig4_report(&shifted).json);
    }
}
