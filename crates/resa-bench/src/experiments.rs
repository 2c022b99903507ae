//! The nine paper experiments as reusable library pipelines.
//!
//! Each `*_report` function runs one figure/table experiment end to end and
//! returns an [`ExperimentReport`]: the rendered [`Table`], the pretty-JSON
//! payload of the underlying rows, human-readable reading notes (including
//! the Figure-3 Gantt charts and the Figure-4 ASCII plot), and a count of
//! **paper-guarantee violations** — conclusive contradictions of the bound
//! or identity the experiment reproduces (expected to be zero; a non-zero
//! count means the reproduction is broken, and the `resa` CLI turns it into
//! a dedicated exit code).
//!
//! `resa figure|table|graham` is the one front-end: it renders a report per
//! `--format` and persists it with `--out`.

use crate::{
    average_case_experiment_seeded, average_case_table, fcfs_ratio_experiment, fcfs_table,
    graham_experiment_seeded, graham_table, online_batch_experiment_seeded, online_table,
    priority_ablation_experiment_seeded, priority_table,
};
use resa_algos::prelude::*;
use resa_analysis::prelude::*;
use resa_core::prelude::*;
use resa_workloads::prelude::*;

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
    let mut table = Table::new(
        "E1 / Figure 1 — 3-PARTITION reduction (m = 1)",
        &[
            "k",
            "B",
            "rho",
            "satisfiable",
            "OPT",
            "yes-makespan",
            "barrier end",
            "LSRC",
            "partition recovered",
        ],
    );
    for r in &rows {
        table.push_row(vec![
            r.k.to_string(),
            r.target.to_string(),
            r.rho.to_string(),
            r.satisfiable.to_string(),
            r.optimal.to_string(),
            r.yes_makespan.to_string(),
            r.barrier_end.to_string(),
            r.lsrc.to_string(),
            r.partition_recovered.to_string(),
        ]);
    }
    let violations = rows
        .iter()
        .filter(|r| {
            if r.satisfiable {
                r.optimal != r.yes_makespan || !r.partition_recovered
            } else {
                r.optimal <= r.barrier_end
            }
        })
        .count();
    ExperimentReport {
        name: "fig1_inapprox",
        table,
        json: to_json(&rows),
        notes: vec![
            "Reading: on satisfiable instances OPT = yes-makespan and the optimal schedule is a\n\
             3-PARTITION witness; on the unsatisfiable instance every schedule overshoots the barrier,\n\
             so a finite-ratio approximation would decide 3-PARTITION (Theorem 1)."
                .to_string(),
        ],
        violations,
    }
}

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
    let mut table = Table::new(
        "E2 / Figure 2 — LSRC under non-increasing reservations vs the 2 - 1/m(C*) bound",
        &[
            "m",
            "jobs",
            "m(C*)",
            "reference",
            "ref optimal",
            "LSRC",
            "LSRC (transformed)",
            "ratio",
            "bound",
        ],
    );
    for r in &rows {
        table.push_row(vec![
            r.machines.to_string(),
            r.jobs.to_string(),
            r.available_at_reference.to_string(),
            r.reference.to_string(),
            r.reference_is_optimal.to_string(),
            r.lsrc.to_string(),
            r.lsrc_transformed.to_string(),
            fmt_f64(r.ratio),
            fmt_f64(r.bound),
        ]);
    }
    let violations = rows
        .iter()
        .filter(|r| r.reference_is_optimal && r.ratio > r.bound + 1e-9)
        .count();
    ExperimentReport {
        name: "fig2_nonincreasing",
        table,
        json: to_json(&rows),
        notes: vec![format!(
            "Proposition-1 bound violations (against exact optima): {violations} (expected 0)"
        )],
        violations,
    }
}

/// E3 / Figure 3 + Proposition 2: the adversarial α-restricted family. A
/// violation is a measured ratio that misses the closed form
/// `2/α − 1 + α/2`.
pub fn fig3_report(opts: &ExperimentOptions) -> ExperimentReport {
    let ks: &[u32] = if opts.quick {
        &[3, 4, 5, 6]
    } else {
        &[3, 4, 5, 6, 7, 8, 10, 12]
    };
    let rows = opts.runner.figure3(ks);
    let mut table = Table::new(
        "E3 / Figure 3 — Proposition-2 adversarial instances (alpha = 2/k)",
        &[
            "k",
            "alpha",
            "m",
            "OPT",
            "LSRC",
            "measured ratio",
            "2/a - 1 + a/2",
        ],
    );
    for r in &rows {
        table.push_row(vec![
            r.k.to_string(),
            fmt_f64(r.alpha),
            r.machines.to_string(),
            r.optimal.to_string(),
            r.lsrc.to_string(),
            fmt_f64(r.measured_ratio),
            fmt_f64(r.predicted_ratio),
        ]);
    }
    let violations = rows
        .iter()
        .filter(|r| (r.measured_ratio - r.predicted_ratio).abs() > 1e-9)
        .count();

    // Draw the k = 6 case the way the paper does (Figure 3).
    let adv = proposition2_instance(6);
    let optimal = proposition2_optimal_schedule(6);
    let lsrc = Lsrc::new().schedule(&adv.instance);
    let notes = vec![
        format!(
            "Optimal schedule of the k = 6 instance (C*max = {}):\n{}",
            optimal.makespan(&adv.instance),
            render_gantt(&adv.instance, &optimal, 1)
        ),
        format!(
            "LSRC schedule of the same instance (Cmax = {}):\n{}",
            lsrc.makespan(&adv.instance),
            render_gantt(&adv.instance, &lsrc, 1)
        ),
    ];
    ExperimentReport {
        name: "fig3_adversarial",
        table,
        json: to_json(&rows),
        notes,
        violations,
    }
}

/// E4 / Figure 4: the closed-form bound curves. A violation is an inverted
/// sandwich (`B2 ≤ B1 ≤ 2/α` must hold pointwise).
pub fn fig4_report(opts: &ExperimentOptions) -> ExperimentReport {
    let (min_alpha, points) = if opts.quick { (0.1, 10) } else { (0.05, 40) };
    let rows = opts.runner.figure4(min_alpha, points);
    let mut table = Table::new(
        "E4 / Figure 4 — performance bounds for LSRC as a function of alpha",
        &["alpha", "upper bound 2/a", "B1", "B2"],
    );
    for r in &rows {
        table.push_row(vec![
            fmt_f64(r.alpha),
            fmt_f64(r.upper_bound),
            fmt_f64(r.b1),
            fmt_f64(r.b2),
        ]);
    }
    let violations = rows
        .iter()
        .filter(|r| r.b2 > r.b1 + 1e-9 || r.b1 > r.upper_bound + 1e-9)
        .count();
    let mut plot = String::from(
        "ASCII plot (x: alpha in [0.05, 1], y: guarantee clipped at 10; U = 2/a, 1 = B1, 2 = B2)\n",
    );
    let height = 20usize;
    for level in (0..=height).rev() {
        let y = level as f64 * 10.0 / height as f64;
        let mut line = format!("{y:5.1} |");
        for r in &rows {
            let cell = if (r.upper_bound.min(10.0) - y).abs() < 0.25 {
                'U'
            } else if (r.b1.min(10.0) - y).abs() < 0.25 {
                '1'
            } else if (r.b2.min(10.0) - y).abs() < 0.25 {
                '2'
            } else {
                ' '
            };
            line.push(cell);
        }
        plot.push_str(&line);
        plot.push('\n');
    }
    plot.push_str(&format!("      +{}\n", "-".repeat(rows.len())));
    plot.push_str("       alpha = 0.05 .. 1.0");
    ExperimentReport {
        name: "fig4_bounds",
        table,
        json: to_json(&rows),
        notes: vec![plot],
        violations,
    }
}

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
    let violations = rows
        .iter()
        .filter(|r| {
            ((r.exact_fraction - 1.0).abs() < 1e-9 && r.worst_ratio > r.bound + 1e-9)
                || (r.tight_family_ratio - r.bound).abs() > 1e-9
        })
        .count();
    ExperimentReport {
        name: "graham_bound",
        table: graham_table(&rows),
        json: to_json(&rows),
        notes: vec![
            "Reading: worst measured ratios stay below 2 - 1/m; the tightness family reaches the\n\
             bound exactly, so Theorem 2 is tight."
                .to_string(),
        ],
        violations,
    }
}

/// E6: the FCFS head-of-line-blocking family. A violation is LSRC losing to
/// FCFS on its own adversarial family.
pub fn fcfs_report(opts: &ExperimentOptions) -> ExperimentReport {
    let (machines, long): (&[u32], u64) = if opts.quick {
        (&[8, 16], 40)
    } else {
        (&[8, 16, 32, 64], 200)
    };
    let rows = fcfs_ratio_experiment(machines, long);
    let violations = rows.iter().filter(|r| r.lsrc > r.fcfs).count();
    ExperimentReport {
        name: "table_fcfs_ratio",
        table: fcfs_table(&rows),
        json: to_json(&rows),
        notes: vec![
            "Reading: the FCFS/LSRC ratio grows roughly like m/2 (the number of rounds), while\n\
             conservative and EASY backfilling recover part of the loss and LSRC stays near OPT."
                .to_string(),
        ],
        violations,
    }
}

/// E7: the average-case comparison. A violation is a mean ratio below the
/// certified lower bound (impossible unless the bound or a scheduler is
/// broken).
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
    let violations = rows
        .iter()
        .filter(|r| r.mean_ratio_to_lb < 1.0 - 1e-9 || r.mean_utilization > 1.0 + 1e-9)
        .count();
    ExperimentReport {
        name: "table_average_case",
        table: average_case_table(&rows),
        json: to_json(&rows),
        notes: vec![
            "Reading: average-case ratios sit far below the worst-case guarantees of the paper;\n\
             LSRC and EASY dominate FCFS, and tighter alpha (more reservation mass) degrades everyone."
                .to_string(),
        ],
        violations,
    }
}

/// E8: the LSRC list-order ablation. A violation is the submission order
/// disagreeing with itself (`vs submission ≠ 1` on its own row).
pub fn priority_report(opts: &ExperimentOptions) -> ExperimentReport {
    let rows = if opts.quick {
        priority_ablation_experiment_seeded(opts.runner, 16, 10, 2, (1, 2), opts.seed)
    } else {
        priority_ablation_experiment_seeded(opts.runner, 64, 150, 10, (1, 2), opts.seed)
    };
    let violations = rows
        .iter()
        .filter(|r| r.order == "submission" && (r.mean_vs_submission - 1.0).abs() > 1e-9)
        .count();
    ExperimentReport {
        name: "table_priority_ablation",
        table: priority_table(&rows),
        json: to_json(&rows),
        notes: vec![
            "Reading: LPT (decreasing durations) is the strongest simple order on average, which is\n\
             exactly the refinement the paper's conclusion proposes to analyse."
                .to_string(),
        ],
        violations,
    }
}

/// E9: on-line policies and the batch-doubling wrapper. A violation is the
/// greedy policy diverging from the off-line LSRC it provably equals, or the
/// batch wrapper exceeding twice the off-line guarantee (`2·(2 − 1/m) < 4`).
pub fn online_report(opts: &ExperimentOptions) -> ExperimentReport {
    let rows = if opts.quick {
        online_batch_experiment_seeded(opts.runner, 16, 15, 5, 2, opts.seed)
    } else {
        online_batch_experiment_seeded(opts.runner, 64, 200, 8, 6, opts.seed)
    };
    let violations = rows
        .iter()
        .filter(|r| {
            (r.policy.starts_with("greedy") && (r.worst_vs_offline - 1.0).abs() > 1e-9)
                || (r.policy.starts_with("batch") && r.worst_vs_offline > 4.0 + 1e-9)
        })
        .count();
    ExperimentReport {
        name: "table_online_batch",
        table: online_table(&rows),
        json: to_json(&rows),
        notes: vec![
            "Reading: the batch-doubling wrapper stays well within twice the clairvoyant off-line\n\
             makespan, the empirical face of the doubling argument recalled in §2.1."
                .to_string(),
        ],
        violations,
    }
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
            assert!(!report.table.is_empty(), "{} table empty", report.name);
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
        // The E8 payload embeds a wall-clock throughput probe; everything
        // else about the rows is runner-independent.
        let strip = |json: &str| {
            json.lines()
                .filter(|l| !l.contains("nodes_per_sec"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            strip(&priority_report(&quick()).json),
            strip(&priority_report(&seq).json)
        );
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
