//! `sweep-grid`, in-process: the whole `resa_cli::sweep::execute` (sequential
//! and at `--threads <cores>`), and every cell of the same grid rebuilt
//! through the public generators, schedulers, engine and checks — what
//! `execute` does per cell, one span per layer.

use crate::{timeline, Collector};
use benchkit::gen::{SWEEP_MACHINES, SWEEP_POLICIES};
use benchkit::stats::median;
use resa_algos::prelude::*;
use resa_cli::opts::CommonOpts;
use resa_cli::sweep::{execute, SweepSpec};
use resa_core::prelude::*;
use resa_sim::prelude::*;
use resa_workloads::prelude::{AlphaReservations, LublinWorkload};
use serde::{Deserialize, Value};
use std::collections::BTreeMap;

/// Jobs that started before some job ahead of them in the queue did. The
/// queue order is `(release, id)`.
fn backfills(instance: &ResaInstance, schedule: &Schedule) -> u64 {
    let mut jobs: Vec<&Job> = instance.jobs().iter().collect();
    jobs.sort_by_key(|j| (j.release, j.id));
    let mut latest_start_ahead = Time::ZERO;
    let mut count = 0;
    for job in jobs {
        let Some(start) = schedule.start_of(job.id) else {
            continue;
        };
        if start < latest_start_ahead {
            count += 1;
        }
        latest_start_ahead = latest_start_ahead.max(start);
    }
    count
}

pub fn run(c: &mut Collector) -> Result<(), String> {
    let spec_path = c.inputs.join("spec.json");
    let text =
        std::fs::read_to_string(&spec_path).map_err(|e| format!("{}: {e}", spec_path.display()))?;
    let value: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let spec = SweepSpec::from_value(&value).map_err(|e| e.to_string())?;
    let base_seed = c.seed;
    let opts = |threads: usize| CommonOpts {
        seed: base_seed,
        threads: Some(threads),
        ..CommonOpts::default()
    };

    // Untraced reference: the sequential sweep with no span around it.
    let started = std::time::Instant::now();
    let (reference_rows, _) = execute(&spec, &opts(1)).map_err(|e| e.to_string())?;
    let untraced_s = started.elapsed().as_secs_f64();

    c.open_root();

    let (sequential, sequential_ns) = c.timed("cli.sweep.execute", 1, || execute(&spec, &opts(1)));
    let (rows, violations) = sequential.map_err(|e| e.to_string())?;
    if violations != 0 || rows.len() != reference_rows.len() {
        return Err(format!("sweep reports {violations} sanity violations"));
    }
    c.set(
        "trace.overhead_frac",
        (sequential_ns as f64 / 1e9 - untraced_s) / untraced_s,
    );

    // A scaling figure means nothing on one core: it is not computed there.
    if c.cores > 1 {
        let cores = c.cores;
        let (parallel, parallel_ns) = c.timed("cli.sweep.execute", cores as u64, || {
            execute(&spec, &opts(cores))
        });
        parallel.map_err(|e| e.to_string())?;
        c.set(
            "analysis.runner.parallel_efficiency",
            sequential_ns as f64 / parallel_ns as f64 / cores as f64,
        );
    }

    // The grid, cell by cell, through the public functions `execute` calls.
    let jobs = c.sizes.sweep_jobs;
    let mut figures: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut last_instance = None;
    let mut cell = 0u64;
    for policy in SWEEP_POLICIES {
        // (makespan, makespan ÷ lower bound, mean wait) of this policy's cells.
        let mut samples: Vec<[f64; 3]> = Vec::new();
        for s in 0..c.sizes.sweep_seeds as u64 {
            let seed = c.seed + s;
            cell += 1;
            let (generated, ns) = c.timed("workloads.lublin.generate", cell, || {
                LublinWorkload::for_cluster(SWEEP_MACHINES, jobs).generate(seed)
            });
            figures
                .entry("workloads.lublin.generate_jobs_per_s")
                .or_default()
                .push(jobs as f64 / (ns as f64 / 1e9));

            // Release-at-0 jobs: the overlay horizon is the CLI's floor.
            let overlay = AlphaReservations {
                machines: SWEEP_MACHINES,
                alpha: Alpha::HALF,
                count: c.sizes.sweep_reservations(),
                horizon: 2000,
                max_duration: 300,
            };
            let (instance, ns) = c.timed("workloads.reservations.alpha", cell, || {
                overlay.instance(generated, seed)
            });
            figures
                .entry("workloads.reservations.alpha_ms")
                .or_default()
                .push(ns as f64 / 1e6);

            let (bound, ns) = c.timed("core.bounds.lower_bound", cell, || lower_bound(&instance));
            figures
                .entry("core.bounds.lower_bound_ms")
                .or_default()
                .push(ns as f64 / 1e6);
            let bound = bound.ok_or("a cell has no finite lower bound")?;

            let (schedule, ns, metric) = match policy {
                "fcfs" => {
                    let (r, ns) = c.timed("sim.engine.run", cell, || {
                        Simulator::new(instance.clone()).run(&FcfsPolicy)
                    });
                    (r.schedule, ns, "_sim.engine.fcfs")
                }
                "easy" => {
                    let (r, ns) = c.timed("sim.engine.run", cell, || {
                        Simulator::new(instance.clone()).run(&EasyPolicy)
                    });
                    figures
                        .entry("sim.policy.easy.decisions")
                        .or_default()
                        .push(r.decisions as f64);
                    figures
                        .entry("sim.policy.easy.backfills")
                        .or_default()
                        .push(backfills(&instance, &r.schedule) as f64);
                    (r.schedule, ns, "sim.engine.jobs_per_s")
                }
                "offline:lsrc" => {
                    let (s, ns) = c.timed("algos.lsrc", cell, || {
                        Lsrc::new().schedule_with(&instance, instance.timeline())
                    });
                    (s, ns, "algos.lsrc.jobs_per_s")
                }
                "offline:easy" => {
                    let (s, ns) = c.timed("algos.easy", cell, || {
                        EasyBackfilling::new().schedule_with(&instance, instance.timeline())
                    });
                    (s, ns, "algos.easy.jobs_per_s")
                }
                "offline:conservative" => {
                    let (s, ns) = c.timed("algos.conservative", cell, || {
                        ConservativeBackfilling::new().schedule_with(&instance, instance.timeline())
                    });
                    (s, ns, "algos.conservative.jobs_per_s")
                }
                other => return Err(format!("no in-process counterpart for policy '{other}'")),
            };
            figures
                .entry(metric)
                .or_default()
                .push(jobs as f64 / (ns as f64 / 1e9));

            let (metrics, ns) = c.timed("analysis.metrics.from_schedule", cell, || {
                SimMetrics::from_schedule(&instance, &schedule)
            });
            figures
                .entry("analysis.metrics.from_schedule_ms")
                .or_default()
                .push(ns as f64 / 1e6);
            let (valid, ns) = c.timed("core.schedule.validate", cell, || {
                schedule.is_valid(&instance)
            });
            figures
                .entry("core.schedule.validate_ms")
                .or_default()
                .push(ns as f64 / 1e6);
            if !valid || metrics.makespan < bound {
                return Err(format!(
                    "cell {cell} ({policy}) is invalid or beats its lower bound"
                ));
            }
            let makespan = metrics.makespan.ticks() as f64;
            samples.push([
                makespan,
                makespan / bound.ticks().max(1) as f64,
                metrics.mean_wait,
            ]);
            last_instance = Some((instance, schedule));
        }
        // The cells above are rebuilt from constants (overlay horizon and
        // duration, per-cell seed) that mirror resa-cli internals. They must
        // be the cells `execute` ran, or the per-layer figures describe
        // another instance than the end-to-end run.
        let row = rows
            .iter()
            .find(|r| r.policy == policy)
            .ok_or_else(|| format!("the sweep has no row for '{policy}'"))?;
        let mean = |i: usize| samples.iter().map(|s| s[i]).sum::<f64>() / samples.len() as f64;
        let rebuilt = [mean(0), mean(1), mean(2)];
        let executed = [row.mean_makespan, row.mean_ratio_to_lb, row.mean_wait];
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
        if row.cells != samples.len() || !(0..3).all(|i| close(rebuilt[i], executed[i])) {
            return Err(format!(
                "'{policy}': the rebuilt cells give (makespan, ratio, wait) {rebuilt:?}, \
                 `execute` reported {executed:?}"
            ));
        }
    }
    // The off-line FCFS scheduler is not on the grid (`fcfs` there is the
    // on-line policy); it runs on the last cell's instance for its figure.
    let (instance, schedule) = last_instance.ok_or("the grid has no cells")?;
    let (_, ns) = c.timed("algos.fcfs", 0, || {
        Fcfs::new().schedule_with(&instance, instance.timeline())
    });
    figures
        .entry("algos.fcfs.jobs_per_s")
        .or_default()
        .push(jobs as f64 / (ns as f64 / 1e9));

    for (name, values) in &figures {
        c.set(name, median(values));
    }

    // The substrate with one cell's whole schedule on it: the large-`B` case.
    let mut loaded = instance.timeline();
    c.span("core.timeline.rebuild", 0, || {
        for job in instance.jobs() {
            if let Some(start) = schedule.start_of(job.id) {
                loaded
                    .reserve(start, job.duration, job.width)
                    .expect("a valid schedule fits its instance");
            }
        }
    });
    let until = schedule.makespan(&instance).ticks();
    timeline::measure(c, &loaded.to_profile(), 0, until, SWEEP_MACHINES / 2);
    Ok(())
}
