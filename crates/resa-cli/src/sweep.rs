//! `resa sweep` — declarative experiment sweeps.
//!
//! A sweep spec is a JSON file describing a cross product *workload model ×
//! cluster size × policy × reservation family × seeds*. Every cell of the
//! product is self-contained (its own instance, its own RNG stream), so the
//! whole sweep fans out through the parallel
//! [`ExperimentRunner`] and still
//! produces rows that are identical to a sequential run.
//!
//! ```json
//! {
//!   "name": "alpha-half-easy",
//!   "machines": [16, 32],
//!   "jobs": 40,
//!   "seeds": 4,
//!   "workload": "feitelson",
//!   "arrivals": 5,
//!   "policies": ["easy", "offline:lsrc"],
//!   "reservations": { "family": "alpha", "alpha": "1/2" }
//! }
//! ```
//!
//! `workload` is `uniform`, `feitelson` (default), `lublin`, or a cached
//! trace reference `trace:<name>[@sha256:<hex>]` (see `resa fetch`): the
//! first `jobs` records of the trace become a batch workload, widths clamped
//! into each swept cluster — `arrivals` and per-seed workload variation do
//! not apply to traces. For the generator workloads, `arrivals` (mean
//! interarrival) is optional — without it all jobs are released at 0.
//! `policies` accepts the same names as `resa replay --policy`.
//! `reservations` is optional; `family` is `alpha` (fields `alpha`, `count`,
//! `horizon`, `max_duration`) or `nonincreasing` (fields `steps`,
//! `max_initial`, `max_duration`).
//!
//! Two residue knobs make the paper's E7/E8 cell shapes expressible
//! declaratively: the alpha family accepts `alphas` (a *list* of α values
//! that becomes one more dimension of the cross product, each row labeled
//! with its α) in place of the single `alpha`, and the top-level
//! `exact_probe` (a branch-and-bound node budget) runs a budgeted exact
//! probe per cell and reports its mean nodes/sec per row — the same
//! per-cell probe `RatioHarness` uses, so sweep rows and the E8/E9 tables
//! measure the identical code path. `jobs` likewise accepts either
//! a single count or a list swept as one more labeled dimension.
//!
//! # Scenario dimensions
//!
//! Three further knobs turn cells into *resident-service* sessions instead
//! of batch simulator runs (they require on-line policies):
//!
//! * `deadline_frac` — every job is submitted through deadline-gated
//!   admission with due date `release + ⌈frac · duration⌉` under the
//!   reject policy; rows then count a *committed* job finishing past its
//!   deadline as a sanity violation (it never should).
//! * `widths` — every job is molded: its rigid shape is discarded and the
//!   service picks the completion-minimizing width from this menu for the
//!   job's work area `width × duration`.
//! * `failures` — `{count, width, max_duration, horizon}`: per-seed random
//!   drain windows injected up front (a window the remaining capacity
//!   cannot honor is rejected, not force-fitted); rows check the
//!   drained-window invariant independently of the substrate.
//!
//! `widths` and `deadline_frac` are mutually exclusive (a moldable job has
//! no fixed shape to deadline up front), and `exact_probe` does not apply
//! to scenario cells. Violations feed the usual exit-code-2 path.
//!
//! # Sharding and resume
//!
//! The flat cell list is deterministic, so a sweep splits into contiguous
//! shard ranges (`--shards`/`--shard`/`--shard-dir`). Each shard keeps one
//! append-only record log, `shard_NNNN.log`, framed like the service
//! journal ([`resa_core::io`]): a header naming sweep, shard and range, then
//! one record per finished cell, floats as IEEE-754 bits. The log alone
//! says what is done: a rerun truncates a torn tail and runs only the cells
//! the log lacks, and `--merge` places records by cell index, so every mode
//! renders byte-identical output to the unsharded run. A killed run is only
//! a log cut short, so the crash tests in `resa-cli/tests/sweep_shards.rs`
//! cut one themselves.

use crate::fields::{anchor_line, put, Optional, Required, Section};
use crate::opts::{Command, CommonOpts, Parsed, Switch, Text};
use crate::replay::{
    parse_alpha, read_error, resolve_trace, Decoration, PolicyArg, ReservationArg,
};
use crate::{CliError, Outcome};
use resa_analysis::prelude::*;
use resa_core::io::{atomic_write, frame_record, open_log, put_u64, Cursor, Frames, FRAME_HEADER};
use resa_core::prelude::*;
use resa_sim::prelude::{
    AdmissionPolicy, DeadlineOutcome, Op, ReferencePolicy, Reply, ScheduleService, ServiceError,
    SimMetrics, WindowKind,
};
use resa_workloads::prelude::*;
use resa_workloads::store::sha256;
use serde::{DeError, Deserialize, Serialize, Value};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Help text for `resa sweep --help`.
pub const SWEEP_HELP: &str = "\
resa sweep — run a declarative experiment sweep

USAGE:
    resa sweep <spec.json> [OPTIONS]

The spec is a JSON object:
    name          string (optional)       label for the report
    machines      [int, ...]              cluster sizes to sweep
    jobs          int | [int, ...]        jobs per generated instance; a list
                  is swept as an extra product dimension with labeled rows
    seeds         int                     repetitions per cell
    workload      uniform|feitelson|lublin|trace:<name>  (default feitelson)
                  a trace: reference sweeps the first 'jobs' records of a
                  fetched trace as a batch workload (widths clamped to each
                  cluster; arrivals and seed variation do not apply)
    arrivals      int (optional)          mean interarrival; omit for release-at-0
    policies      [name, ...]             resa replay policy names
    reservations  object (optional)       { family: alpha|nonincreasing, ... }
                  the alpha family takes either 'alpha' (one value) or
                  'alphas' (a list swept as an extra product dimension),
                  plus count, horizon and max_duration; the nonincreasing
                  family takes steps, max_initial and max_duration
    exact_probe   int (optional)          per-cell exact branch-and-bound
                  probe budget (nodes); rows gain mean exact nodes/sec

Scenario knobs (cells become resident-service sessions; on-line policies
only, exact_probe does not apply):
    deadline_frac number (optional)       deadline-gated admission with due
                  date release + ceil(frac * duration), reject policy; a
                  committed job past its deadline is a sanity violation
    widths        [int, ...] (optional)   mold every job: pick the
                  completion-minimizing width from this menu for the job's
                  area (mutually exclusive with deadline_frac)
    failures      object (optional)       { count, width, max_duration,
                  horizon }: per-seed random drain windows injected up
                  front, checked against the drained-window invariant

Every (machines x jobs x alpha x policy x seed) cell is an independent
simulation; cells run in parallel unless --threads 1. Rows aggregate the
seeds per (machines, jobs, alpha, policy) group and report ratios against
the certified lower bound.

Sharding (resumable and distributable sweeps):
    --shards N        split the cell list into N contiguous ranges
    --shard-dir DIR   where the manifest and the per-shard logs live
    --shard I         run only shard I (0-based)
    --merge           only merge previously completed shards and render

With --shards but no --shard, every shard runs and the merged result is
rendered, byte-identical to the unsharded run. Each shard appends one record
per finished cell to shard_NNNN.log; a rerun runs only the cells the log
lacks, so a killed sweep resumes by running the same command again. The
manifest pins spec, seed and shard count. Shard dirs are scratch: one
written by an older resa is refused.

plus the common options: --seed --threads --format --quick --out
";

/// A parsed sweep specification.
#[derive(Debug, Clone, Default)]
pub struct SweepSpec {
    /// Label used in the report title.
    pub name: String,
    /// Cluster sizes to sweep.
    pub machines: Vec<u32>,
    /// Job counts per generated instance; more than one entry is one more
    /// dimension of the cross product.
    pub jobs: Vec<usize>,
    /// Whether `jobs` was written as a list (labels rows with the count).
    pub jobs_labeled: bool,
    /// Repetitions per cell.
    pub seeds: u64,
    /// Workload model: `uniform`, `feitelson` or `lublin`.
    pub workload: String,
    /// Mean interarrival of on-line releases (`None` = all jobs at 0).
    pub arrivals: Option<u64>,
    /// Policies, by `resa replay --policy` name.
    pub policies: Vec<String>,
    /// Optional reservation overlay, as the α dimension of the sweep: one
    /// `(label, overlay)` variant per α value. A single `alpha` (and the
    /// nonincreasing family) is one unlabeled variant, so specs without an
    /// `alphas` list keep their rows unlabeled.
    pub(crate) reservations: Option<Vec<(Option<String>, Decoration)>>,
    /// Per-cell exact branch-and-bound probe budget in nodes (`None` = no
    /// exact probe).
    pub exact_probe: Option<u64>,
    /// Deadline scenario: submit every job with due date `release +
    /// ⌈frac · duration⌉` under reject admission.
    pub deadline_frac: Option<f64>,
    /// Moldable scenario: the width menu every job is molded against.
    pub widths: Option<Vec<u32>>,
    /// Failure scenario: per-seed random drain windows injected up front.
    pub failures: Option<FailureSpec>,
}

/// The `failures` object of a sweep spec: `count` drain windows of `width`
/// processors, each lasting `1..=max_duration` ticks and starting in
/// `0..=horizon`, drawn deterministically from the cell's seed.
#[derive(Debug, Clone, Default)]
pub struct FailureSpec {
    /// Number of drain windows attempted per cell.
    pub count: usize,
    /// Processors each drain subtracts.
    pub width: u32,
    /// Longest drain window.
    pub max_duration: u64,
    /// Latest admissible drain start.
    pub horizon: u64,
}

/// The sweep spec's fields, in the order they are read.
const SPEC_FIELDS: Section<SweepSpec> = Section {
    context: "sweep spec",
    fields: &[
        Required("jobs", |s, v| {
            // A count, or a list of counts: one more labeled dimension of
            // the cross product, mirroring `alphas`.
            (s.jobs, s.jobs_labeled) = match usize::from_value(v) {
                Ok(n) => (vec![n], false),
                Err(_) => (
                    Vec::<usize>::from_value(v)
                        .map_err(|_| "expected a job count or a list of job counts")?,
                    true,
                ),
            };
            Ok(())
        }),
        Optional("name", |s, v| put(&mut s.name, v)),
        Required("machines", |s, v| put(&mut s.machines, v)),
        Required("seeds", |s, v| put(&mut s.seeds, v)),
        Optional("workload", |s, v| put(&mut s.workload, v)),
        Optional("arrivals", |s, v| put(&mut s.arrivals, v)),
        Required("policies", |s, v| put(&mut s.policies, v)),
        Optional("reservations", |s, v| {
            reservation_variants(v).map(|variants| s.reservations = Some(variants))
        }),
        Optional("exact_probe", |s, v| put(&mut s.exact_probe, v)),
        Optional("deadline_frac", |s, v| put(&mut s.deadline_frac, v)),
        Optional("widths", |s, v| put(&mut s.widths, v)),
        Optional("failures", |s, v| {
            FAILURE_FIELDS
                .read(v, FailureSpec::default())
                .map(|failures| s.failures = Some(failures))
        }),
    ],
};

/// The `failures` object's fields.
const FAILURE_FIELDS: Section<FailureSpec> = Section {
    context: "the 'failures' section",
    fields: &[
        Required("count", |f, v| put(&mut f.count, v)),
        Required("width", |f, v| put(&mut f.width, v)),
        Required("max_duration", |f, v| put(&mut f.max_duration, v)),
        Required("horizon", |f, v| put(&mut f.horizon, v)),
    ],
};

/// The `reservations` object as written, before it becomes α variants.
#[derive(Default)]
struct ReservationFields {
    family: String,
    alpha: Option<String>,
    alphas: Option<Vec<String>>,
    count: Option<usize>,
    horizon: Option<u64>,
    max_duration: Option<u64>,
    steps: Option<usize>,
    max_initial: Option<u32>,
}

/// The `reservations` object's fields.
const RESERVATION_FIELDS: Section<ReservationFields> = Section {
    context: "the 'reservations' section",
    fields: &[
        Required("family", |r, v| put(&mut r.family, v)),
        Optional("alpha", |r, v| put(&mut r.alpha, v)),
        Optional("alphas", |r, v| put(&mut r.alphas, v)),
        Optional("count", |r, v| put(&mut r.count, v)),
        Optional("horizon", |r, v| put(&mut r.horizon, v)),
        Optional("max_duration", |r, v| put(&mut r.max_duration, v)),
        Optional("steps", |r, v| put(&mut r.steps, v)),
        Optional("max_initial", |r, v| put(&mut r.max_initial, v)),
    ],
};

impl Deserialize for SweepSpec {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        // A `DeError` prints its own prefix.
        SweepSpec::parse(value)
            .map_err(|e| DeError::custom(e.trim_start_matches("deserialization error: ")))
    }
}

impl SweepSpec {
    /// Read a spec object, strictly: unknown/misspelled keys are errors,
    /// not silently dropped sections (a spec with `reservation` instead of
    /// `reservations` used to run a reservation-free sweep without a word).
    pub fn parse(value: &Value) -> Result<SweepSpec, String> {
        let defaults = SweepSpec {
            name: "sweep".to_string(),
            workload: "feitelson".to_string(),
            ..SweepSpec::default()
        };
        SPEC_FIELDS.read(value, defaults)
    }

    /// Whether any scenario knob (`deadline_frac` / `widths` / `failures`)
    /// turns cells into resident-service sessions.
    pub fn is_scenario(&self) -> bool {
        self.deadline_frac.is_some() || self.widths.is_some() || self.failures.is_some()
    }
}

/// Parse the `reservations` object of a sweep spec into its α variants
/// (see [`SweepSpec::reservations`]).
fn reservation_variants(value: &Value) -> Result<Vec<(Option<String>, Decoration)>, String> {
    let r = RESERVATION_FIELDS.read(value, ReservationFields::default())?;
    let variant = |label: Option<String>, reservations| {
        let decoration = Decoration {
            reservations,
            ..Decoration::default()
        };
        (label, decoration)
    };
    match r.family.as_str() {
        "alpha" => {
            let (texts, labeled) = match (r.alpha, r.alphas) {
                (Some(_), Some(_)) => {
                    return Err("reservations: give either 'alpha' or 'alphas', not both".into())
                }
                (Some(a), None) => (vec![a], false),
                (None, Some(list)) if !list.is_empty() => (list, true),
                _ => {
                    return Err("reservations.family 'alpha' needs an 'alpha' value or a \
                                non-empty 'alphas' list"
                        .into())
                }
            };
            texts
                .into_iter()
                .map(|text| {
                    let arg = ReservationArg::Alpha {
                        alpha: parse_alpha(&text)?,
                        count: r.count,
                        horizon: r.horizon,
                        max_duration: r.max_duration,
                    };
                    Ok(variant(labeled.then_some(text), arg))
                })
                .collect()
        }
        "nonincreasing" if r.alphas.is_some() => {
            Err("'alphas' only applies to the alpha family".into())
        }
        "nonincreasing" => Ok(vec![variant(
            None,
            ReservationArg::NonIncreasing {
                steps: r.steps,
                max_initial: r.max_initial,
                max_duration: r.max_duration,
            },
        )]),
        other => Err(format!(
            "unknown reservation family '{other}' (alpha|nonincreasing)"
        )),
    }
}

/// One aggregated sweep row (per machines × α × policy group).
#[derive(Debug, Clone, Serialize)]
pub struct SweepRow {
    /// Cluster size of the cells behind this row.
    pub machines: u32,
    /// Job count when the spec sweeps a `jobs` list; `None` otherwise.
    pub jobs: Option<usize>,
    /// α label when the spec sweeps an `alphas` list; `None` otherwise.
    pub alpha: Option<String>,
    /// Policy name.
    pub policy: String,
    /// Number of seeds aggregated.
    pub cells: usize,
    /// Mean makespan over the seeds.
    pub mean_makespan: f64,
    /// Mean makespan / certified lower bound.
    pub mean_ratio_to_lb: f64,
    /// Worst makespan / certified lower bound.
    pub worst_ratio_to_lb: f64,
    /// Mean waiting time.
    pub mean_wait: f64,
    /// Mean utilization.
    pub mean_utilization: f64,
    /// Mean exact branch-and-bound probe throughput in nodes/sec, when the
    /// spec set `exact_probe`.
    pub mean_exact_nodes_per_sec: Option<f64>,
}

/// `resa sweep`'s option table.
pub(crate) const SWEEP: Command<SweepArgs> = Command {
    help: SWEEP_HELP,
    page: Some("sweep"),
    positional: Some(|a, path| a.spec = path.to_string()),
    missing: Some("sweep expects a spec path"),
    flags: &[
        Parsed("--shards N", |a, v| {
            v.at_least_one(v.integer()?).map(|n| a.shards = Some(n))
        }),
        Text("--shard-dir DIR", |a| &mut a.dir),
        Parsed("--shard I", |a, v| v.integer().map(|i| a.shard = Some(i))),
        Switch("--merge", |a| &mut a.merge),
    ],
};

/// `resa sweep <spec.json> [options]`.
pub fn run(args: &[&str]) -> Result<Outcome, CliError> {
    SWEEP.run(args, sweep)
}

fn sweep(args: SweepArgs, opts: CommonOpts) -> Result<Outcome, CliError> {
    args.validate()?;
    let path = args.spec.as_str();
    let text = std::fs::read_to_string(path).map_err(|e| CliError::io(path, e))?;
    let spec = serde_json::from_str(&text)
        .map_err(|e| e.to_string())
        .and_then(|value| SweepSpec::parse(&value))
        // Anchor field-level errors to the offending line of the spec.
        .map_err(|e| CliError::Parse(format!("{path}: {}", anchor_line(&text, &e))))?;
    if args.dir.is_some() {
        run_sharded(&spec, &opts, &text, &args)
    } else {
        let (rows, violations) = execute(&spec, &opts)?;
        render(&spec, &rows, violations, &opts)
    }
}

/// One cell's measurements: makespan, ratio to the certified lower bound,
/// mean wait, utilization, violation flag and exact-probe nodes/sec.
type Sample = (f64, f64, f64, f64, bool, Option<f64>);

/// The expanded execution plan of a sweep: reservation variants, parsed
/// policies and the flat deterministic cell list that every run — sharded
/// or not — walks in the same order.
struct SweepPlan {
    variants: Vec<(Option<String>, Decoration)>,
    policies: Vec<PolicyArg>,
    /// For a `trace:<name>` workload: the job prefix loaded (once, at plan
    /// time) from the checksum-pinned cache. Cells reuse its widths and
    /// durations as a batch workload.
    trace_pool: Option<Vec<Job>>,
    /// `(machines, jobs index, α-variant index, policy index, seed)` per cell.
    cells: Vec<(u32, usize, usize, usize, u64)>,
}

/// Validate the spec and expand it into a [`SweepPlan`].
fn plan(spec: &SweepSpec) -> Result<SweepPlan, CliError> {
    if spec.machines.is_empty() || spec.policies.is_empty() || spec.seeds == 0 {
        return Err(CliError::Parse(
            "sweep spec needs at least one machine size, one policy and one seed".into(),
        ));
    }
    if spec.jobs.is_empty() || spec.jobs.contains(&0) {
        return Err(CliError::Parse(
            "'jobs' needs at least one positive job count".into(),
        ));
    }
    let trace_pool = if TraceRef::is_trace_ref(&spec.workload) {
        let wanted = spec
            .jobs
            .iter()
            .copied()
            .max()
            .expect("jobs checked non-empty");
        Some(load_trace_pool(&spec.workload, wanted)?)
    } else if matches!(spec.workload.as_str(), "uniform" | "feitelson" | "lublin") {
        None
    } else {
        return Err(CliError::Parse(format!(
            "unknown workload '{}' (uniform|feitelson|lublin|trace:<name>)",
            spec.workload
        )));
    };
    check_scenario(spec)?;
    let variants = spec
        .reservations
        .clone()
        .unwrap_or_else(|| vec![Default::default()]);
    let policies: Vec<PolicyArg> = spec
        .policies
        .iter()
        .map(|name| PolicyArg::parse(name))
        .collect::<Result<_, _>>()?;
    let offline = policies.iter().find(|p| matches!(p, PolicyArg::Offline(_)));
    if let Some(policy) = offline.filter(|_| spec.is_scenario()) {
        return Err(CliError::Parse(format!(
            "scenario sweeps run the resident service; policy '{}' is \
             off-line (use fcfs|easy|greedy)",
            policy.name()
        )));
    }
    let cells: Vec<(u32, usize, usize, usize, u64)> = spec
        .machines
        .iter()
        .flat_map(|&m| {
            let n_jobs = spec.jobs.len();
            let n_variants = variants.len();
            let n_policies = policies.len();
            (0..n_jobs).flat_map(move |j| {
                (0..n_variants).flat_map(move |v| {
                    (0..n_policies).flat_map(move |p| (0..spec.seeds).map(move |s| (m, j, v, p, s)))
                })
            })
        })
        .collect();
    Ok(SweepPlan {
        variants,
        policies,
        trace_pool,
        cells,
    })
}

/// Resolve a `trace:` workload reference through the cache and stream the
/// first `wanted` jobs out of it — the sweep never materializes the rest of
/// an archive-scale log. The pool is loaded once per plan, not per cell.
fn load_trace_pool(reference: &str, wanted: usize) -> Result<Vec<Job>, CliError> {
    let file = resolve_trace(reference)?;
    let stream = open_trace(&file, None).map_err(|e| CliError::io(reference, e))?;
    let pool = stream
        .take(wanted)
        .collect::<Result<Vec<Job>, _>>()
        .map_err(|e| read_error(reference, e))?;
    if pool.len() < wanted {
        return Err(CliError::Parse(format!(
            "{reference}: trace has {} jobs but the sweep asks for {wanted}",
            pool.len()
        )));
    }
    Ok(pool)
}

/// Shape one cell's workload out of the trace pool: the first `jobs`
/// records, widths clamped into the swept cluster, submissions treated as a
/// batch (sweeps compare policies across machine counts the trace was never
/// recorded on, so its arrival clock is deliberately ignored — `arrivals`
/// and per-seed workload variation do not apply to `trace:` workloads).
fn trace_cell_jobs(pool: &[Job], machines: u32, jobs: usize) -> Vec<Job> {
    pool[..jobs]
        .iter()
        .enumerate()
        .map(|(id, j)| Job::new(id, j.width.min(machines).max(1), j.duration))
        .collect()
}

/// Validate the scenario knobs against each other and against the smallest
/// swept cluster (widths are probed on every machine size, so the menu must
/// fit them all).
fn check_scenario(spec: &SweepSpec) -> Result<(), CliError> {
    if spec.deadline_frac.is_some() && spec.widths.is_some() {
        return Err(CliError::Parse(
            "give either 'deadline_frac' or 'widths', not both (a moldable job \
             has no fixed shape to deadline up front)"
                .into(),
        ));
    }
    if spec.is_scenario() && spec.exact_probe.is_some() {
        return Err(CliError::Parse(
            "'exact_probe' does not apply to scenario sweeps \
             (deadline_frac/widths/failures)"
                .into(),
        ));
    }
    if let Some(frac) = spec.deadline_frac {
        if !frac.is_finite() || frac <= 0.0 {
            return Err(CliError::Parse(
                "'deadline_frac' must be a positive finite number".into(),
            ));
        }
    }
    let min_m = *spec
        .machines
        .iter()
        .min()
        .expect("machines checked non-empty");
    if let Some(widths) = &spec.widths {
        if widths.is_empty() {
            return Err(CliError::Parse("'widths' must be a non-empty menu".into()));
        }
        if let Some(&w) = widths.iter().find(|&&w| w == 0 || w > min_m) {
            return Err(CliError::Parse(format!(
                "moldable width {w} not in 1..={min_m} (the smallest swept cluster)"
            )));
        }
    }
    if let Some(f) = &spec.failures {
        if f.width == 0 || f.width > min_m {
            return Err(CliError::Parse(format!(
                "failure width {} not in 1..={min_m} (the smallest swept cluster)",
                f.width
            )));
        }
        if f.max_duration == 0 {
            return Err(CliError::Parse(
                "'failures.max_duration' must be positive".into(),
            ));
        }
    }
    Ok(())
}

/// Cell `cell` of the plan: its cluster size, its instance, and its seed
/// (`base_seed` plus the cell's repetition).
fn cell_instance(
    spec: &SweepSpec,
    plan: &SweepPlan,
    cell: usize,
    base_seed: u64,
) -> (u32, ResaInstance, u64) {
    let (m, j, v, _, s) = plan.cells[cell];
    let seed = base_seed + s;
    let jobs = match &plan.trace_pool {
        Some(pool) => trace_cell_jobs(pool, m, spec.jobs[j]),
        None => generate_jobs(&spec.workload, m, spec.jobs[j], spec.arrivals, seed),
    };
    let max_release = jobs.iter().map(|j| j.release.ticks()).max().unwrap_or(0);
    let (instance, _clamped) = plan.variants[v]
        .1
        .build(m, jobs, max_release, seed)
        .expect("sweep instances are feasible by construction");
    (m, instance, seed)
}

/// Run the plan's cells at the indices `cells` and return one sample per
/// cell, in that order (parallel execution is order-preserving). Each
/// sample is handed to `done` with its cell index as soon as it is
/// computed — a shard appends it to its log there.
fn run_cells(
    spec: &SweepSpec,
    plan: &SweepPlan,
    opts: &CommonOpts,
    cells: &[usize],
    done: &(dyn Fn(usize, &Sample) + Sync),
) -> Result<Vec<Sample>, CliError> {
    let runner = opts.runner();
    let samples = runner.map(cells, |&cell| {
        let p = plan.cells[cell].3;
        let (m, instance, seed) = cell_instance(spec, plan, cell, opts.seed);
        let sample = if spec.is_scenario() {
            run_scenario_cell(spec, m, &instance, plan.policies[p], seed)?
        } else {
            let (schedule, _) = crate::replay::run_policy(plan.policies[p], &instance);
            let metrics = SimMetrics::from_schedule(&instance, &schedule);
            let exact_nodes_per_sec = spec.exact_probe.map(|budget| {
                let harness = RatioHarness {
                    exact_node_budget: budget,
                    ..RatioHarness::default()
                };
                harness.probe_exact(&instance).nodes_per_sec
            });
            let broken = !schedule.is_valid(&instance);
            to_sample(&metrics, &instance, broken, exact_nodes_per_sec)
        };
        done(cell, &sample);
        Ok(sample)
    });
    samples.into_iter().collect()
}

/// Deterministic per-cell stream for the failure windows (xorshift64; the
/// state is seeded off the cell seed and kept non-zero).
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A scenario knob whose value the time axis cannot hold: a spec error
/// naming the knob (exit 1), never a wrapped instant or a dropped op.
fn knob_error(knob: &str, why: impl std::fmt::Display) -> CliError {
    CliError::Parse(format!("'{knob}' {why}"))
}

/// Compile one scenario cell into the ops of a resident session: the
/// overlay reserved up front, the seeded failure drains injected, then every
/// job submitted in release order (deadline-gated or molded per the spec)
/// and the session drained.
fn scenario_ops(spec: &SweepSpec, instance: &ResaInstance, seed: u64) -> Result<Vec<Op>, CliError> {
    let overflow = |knob| knob_error(knob, "overflows the time axis");
    let mut ops: Vec<Op> = instance
        .reservations()
        .iter()
        .map(|r| Op::Reserve {
            width: r.width,
            duration: r.duration,
            start: r.start,
        })
        .collect();
    if let Some(f) = &spec.failures {
        let mut rng = seed.wrapping_add(0x9e37_79b9_7f4a_7c15) | 1;
        let starts = f
            .horizon
            .checked_add(1)
            .ok_or_else(|| overflow("failures"))?;
        for _ in 0..f.count {
            let duration = Dur(1 + xorshift(&mut rng) % f.max_duration);
            let start = Time(xorshift(&mut rng) % starts);
            ops.push(Op::Inject {
                width: f.width,
                duration,
                start,
            });
        }
    }
    let mut order: Vec<&Job> = instance.jobs().iter().collect();
    order.sort_by_key(|job| (job.release, job.id));
    for job in order {
        let (width, duration, release) = (job.width, job.duration, Some(job.release));
        if let Some(widths) = &spec.widths {
            // Mold the job at its release instant: same work area, width
            // chosen by the service.
            ops.push(Op::Advance { to: job.release });
            ops.push(Op::SubmitMoldable {
                widths: widths.clone(),
                area: u64::from(width)
                    .checked_mul(duration.ticks())
                    .ok_or_else(|| overflow("widths"))?,
            });
        } else if let Some(frac) = spec.deadline_frac {
            let slack = (duration.ticks() as f64 * frac).ceil() as u64;
            let deadline = job.release.ticks().checked_add(slack);
            ops.push(Op::SubmitDeadline {
                width,
                duration,
                release,
                deadline: Time(deadline.ok_or_else(|| overflow("deadline_frac"))?),
                admission: AdmissionPolicy::Reject,
            });
        } else {
            ops.push(Op::Submit {
                width,
                duration,
                release,
            });
        }
    }
    ops.push(Op::Drain);
    Ok(ops)
}

/// A committed deadline job: `(id, duration, deadline)`.
type Commitment = (JobId, Dur, Time);

/// Apply one scenario cell's [`scenario_ops`] to a fresh resident
/// [`ScheduleService`] through [`ScheduleService::apply`] — the op path of
/// `resa serve` — and return it with the committed deadline jobs. A drain
/// the remaining capacity cannot honor and a deadline the service cannot
/// meet are refused transactionally and dropped, as a live session would
/// see them; any other refusal means a knob put an op outside what the
/// service accepts, and is a spec error.
fn scenario_session(
    spec: &SweepSpec,
    machines: u32,
    instance: &ResaInstance,
    policy: ReferencePolicy,
    seed: u64,
) -> Result<(ScheduleService<AvailabilityTimeline>, Vec<Commitment>), CliError> {
    let mut svc = ScheduleService::new(policy, AvailabilityTimeline::constant(machines));
    let mut committed = Vec::new();
    for op in scenario_ops(spec, instance, seed)? {
        match (svc.apply(&op), op) {
            (
                Ok(Reply::Deadline {
                    id,
                    outcome: DeadlineOutcome::Committed { .. },
                    ..
                }),
                Op::SubmitDeadline {
                    duration, deadline, ..
                },
            ) => committed.push((id, duration, deadline)),
            (Ok(_), _)
            | (Err(ServiceError::ReservationRejected { .. }), Op::Inject { .. })
            | (Err(ServiceError::DeadlineUnmet { .. }), Op::SubmitDeadline { .. }) => {}
            (Err(e), op) => {
                let knob = match op {
                    Op::Inject { .. } => "failures",
                    Op::SubmitDeadline { .. } => "deadline_frac",
                    Op::SubmitMoldable { .. } => "widths",
                    Op::Reserve { .. } => "reservations",
                    _ => "workload",
                };
                return Err(knob_error(
                    knob,
                    format!("puts an op the service refuses: {e}"),
                ));
            }
        }
    }
    Ok((svc, committed))
}

/// Run one scenario cell: its [`scenario_session`] instead of the batch
/// simulator. The violation flag re-derives the scenario guarantees from
/// first principles: schedule validity on the off-line oracle instance, no
/// committed deadline missed, and the drained-window invariant.
fn run_scenario_cell(
    spec: &SweepSpec,
    machines: u32,
    instance: &ResaInstance,
    policy: PolicyArg,
    seed: u64,
) -> Result<Sample, CliError> {
    let PolicyArg::Online(policy) = policy else {
        unreachable!("plan() rejects off-line policies for scenario sweeps")
    };
    let (svc, committed) = scenario_session(spec, machines, instance, policy, seed)?;

    // Guarantee checks, re-derived independently of the substrate.
    let live = svc.to_instance();
    let job_windows = job_windows(live.jobs(), svc.schedule());
    let blocked: Vec<Window> = WindowKind::ALL
        .iter()
        .flat_map(|&kind| svc.windows(kind))
        .filter(|w| w.is_effective())
        .map(|w| (w.width, w.start, w.end))
        .collect();
    // Every committed job is placed, and completes by its deadline.
    let commitments: Option<Vec<(Time, Time)>> = committed
        .iter()
        .map(|&(id, duration, deadline)| {
            let start = svc.schedule().start_of(id)?;
            Some((start.saturating_add(duration), deadline))
        })
        .collect();
    let (oracle_instance, oracle_schedule) = svc.oracle_parts();
    let broken = !oracle_schedule.is_valid(&oracle_instance)
        || !commitments.is_some_and(|c| deadlines_met(&c))
        || !drain_invariant(machines, &job_windows, &blocked);
    // The ratio baseline is the certified lower bound of the *live*
    // instance (every submitted job plus the drain/reservation overlay):
    // the oracle instance excludes committed jobs, so its bound can
    // degenerate to zero when admission commits everything.
    Ok(to_sample(&svc.snapshot().1, &live, broken, None))
}

/// A cell's sample from its metrics: the ratio is taken against the
/// certified lower bound of `instance`, and a makespan below that bound is
/// a violation like `broken`.
fn to_sample(m: &SimMetrics, instance: &ResaInstance, broken: bool, probe: Option<f64>) -> Sample {
    let lb = lower_bound(instance).unwrap_or(Time::ZERO).ticks().max(1);
    let makespan = m.makespan.ticks();
    let ratio = makespan as f64 / lb as f64;
    let violation = broken || makespan < lb;
    (
        makespan as f64,
        ratio,
        m.mean_wait,
        m.utilization,
        violation,
        probe,
    )
}

/// Aggregate the full sample list (one per cell, in cell order) into the
/// per-(machines, jobs, α, policy) rows, preserving spec order. Returns the
/// rows and the number of sanity violations.
fn aggregate(spec: &SweepSpec, plan: &SweepPlan, samples: &[Sample]) -> (Vec<SweepRow>, usize) {
    let mut rows = Vec::new();
    let mut violations = 0usize;
    let per_group = spec.seeds as usize;
    for (group_idx, chunk) in samples.chunks(per_group).enumerate() {
        let (m, j, v, p, _) = plan.cells[group_idx * per_group];
        let n = chunk.len() as f64;
        violations += chunk.iter().filter(|c| c.4).count();
        rows.push(SweepRow {
            machines: m,
            jobs: spec.jobs_labeled.then(|| spec.jobs[j]),
            alpha: plan.variants[v].0.clone(),
            policy: plan.policies[p].name().to_string(),
            cells: chunk.len(),
            mean_makespan: chunk.iter().map(|c| c.0).sum::<f64>() / n,
            mean_ratio_to_lb: chunk.iter().map(|c| c.1).sum::<f64>() / n,
            worst_ratio_to_lb: chunk.iter().map(|c| c.1).fold(0.0, f64::max),
            mean_wait: chunk.iter().map(|c| c.2).sum::<f64>() / n,
            mean_utilization: chunk.iter().map(|c| c.3).sum::<f64>() / n,
            mean_exact_nodes_per_sec: spec
                .exact_probe
                .map(|_| chunk.iter().filter_map(|c| c.5).sum::<f64>() / n),
        });
    }
    (rows, violations)
}

/// Run the cross product and aggregate it into rows. Returns the rows and
/// the number of sanity violations (a schedule beating the certified lower
/// bound or failing validation — both impossible unless something is
/// broken).
pub fn execute(spec: &SweepSpec, opts: &CommonOpts) -> Result<(Vec<SweepRow>, usize), CliError> {
    let plan = plan(spec)?;
    let cells: Vec<usize> = (0..plan.cells.len()).collect();
    let samples = run_cells(spec, &plan, opts, &cells, &|_, _| {})?;
    Ok(aggregate(spec, &plan, &samples))
}

// -- sharded execution: a manifest plus one record log per shard (module docs)

/// `resa sweep`'s arguments: the spec path and the shard flags.
#[derive(Debug, Clone, Default)]
pub(crate) struct SweepArgs {
    spec: String,
    shards: Option<usize>,
    shard: Option<usize>,
    dir: Option<String>,
    merge: bool,
}

impl SweepArgs {
    fn validate(&self) -> Result<(), CliError> {
        let usage = |message: String| Err(CliError::Usage(message));
        match (self.dir.is_some(), self.merge, self.shards, self.shard) {
            (false, false, None, None) => Ok(()),
            (false, ..) => usage("--shards/--shard/--merge require --shard-dir".into()),
            (true, true, _, Some(_)) => usage("--merge runs no cells; drop --shard".into()),
            (true, false, None, _) => usage("--shard-dir requires --shards (or --merge)".into()),
            (true, false, Some(n), Some(i)) if i >= n => {
                usage(format!("--shard {i} is out of range for --shards {n}"))
            }
            _ => Ok(()),
        }
    }
}

/// Split `total` items into `shards` contiguous half-open ranges
/// `(start, end)`, balanced to within one item, earlier shards taking the
/// extra. `shards` is clamped to at least 1; empty ranges are produced when
/// `shards > total` (a shard with nothing to do is still a valid shard).
fn contiguous_ranges(total: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.max(1);
    let start = |i: usize| i * (total / shards) + i.min(total % shards);
    (0..shards).map(|i| (start(i), start(i + 1))).collect()
}

/// Verify the dir's manifest is `manifest` byte for byte (a shard dir holds
/// one spec, seed and split, never another), or write a missing one if `create`.
fn check_manifest(dir: &Path, manifest: &[u8], create: bool) -> Result<(), CliError> {
    let path = dir.join("manifest");
    match std::fs::read(&path) {
        Err(e) if create && e.kind() == std::io::ErrorKind::NotFound => {
            atomic_write(&path, manifest).map_err(|e| CliError::io(path.display(), e))
        }
        Err(e) => Err(CliError::io(path.display(), e)),
        Ok(found) if found != manifest => Err(CliError::Parse(format!(
            "{}: shard dir was built from a different spec, seed or shard split — \
             use a fresh --shard-dir",
            path.display()
        ))),
        Ok(_) => Ok(()),
    }
}

/// One finished cell as a log record: its index, the four floats as
/// IEEE-754 bits (so a merge aggregates exactly the numbers the shard
/// computed), the violation flag and the optional probe.
fn cell_record(cell: usize, sample: &Sample) -> Vec<u8> {
    let mut payload = (cell as u64).to_le_bytes().to_vec();
    for v in [sample.0, sample.1, sample.2, sample.3] {
        put_u64(&mut payload, v.to_bits());
    }
    payload.extend([u8::from(sample.4), u8::from(sample.5.is_some())]);
    if let Some(probe) = sample.5 {
        put_u64(&mut payload, probe.to_bits());
    }
    let mut framed = Vec::new();
    frame_record(&mut framed, &payload);
    framed
}

fn decode_cell(payload: &[u8]) -> Option<(usize, Sample)> {
    let mut cur = Cursor::new(payload);
    let cell = usize::try_from(cur.take_u64()?).ok()?;
    let mut float = || cur.take_u64().map(f64::from_bits);
    let (a, b, c, d) = (float()?, float()?, float()?, float()?);
    let violation = cur.take_bool()?;
    let probe = match cur.take_bool()? {
        true => Some(f64::from_bits(cur.take_u64()?)),
        false => None,
    };
    cur.done().then_some((cell, (a, b, c, d, violation, probe)))
}

/// A shard log read back: the samples of its range by position, the length
/// of the valid prefix, and why the scan stopped short of the end, if it did.
type ShardLog = (Vec<Option<Sample>>, usize, Option<&'static str>);

/// Read a shard log image. A missing or torn header reads as an empty log;
/// a header for another sweep, shard or range is an error. Cell records are
/// kept up to the first one that is torn, undecodable, out of range or a
/// repeat.
fn read_log(bytes: &[u8], header: &[u8], range: (usize, usize)) -> Result<ShardLog, String> {
    let mut samples = vec![None; range.1 - range.0];
    let mut frames = Frames::new(bytes);
    match frames.next() {
        Some(found) if found != header => return Err("its header is another shard's".into()),
        Some(_) => {}
        None => return Ok((samples, 0, None)),
    }
    let mut valid_len = frames.valid_len();
    for payload in frames.by_ref() {
        let slot = decode_cell(payload)
            .filter(|(cell, _)| (range.0..range.1).contains(cell))
            .map(|(cell, sample)| (&mut samples[cell - range.0], sample));
        let why = match slot {
            Some((slot @ None, sample)) => {
                *slot = Some(sample);
                valid_len += FRAME_HEADER + payload.len();
                continue;
            }
            Some((Some(_), _)) => "a cell is logged twice",
            None => "a record is undecodable or out of range",
        };
        return Ok((samples, valid_len, Some(why)));
    }
    Ok((samples, valid_len, frames.torn()))
}

/// A finished shard's samples in cell order, for `--merge`: a log that is
/// short, repeats a cell or holds one outside its range is refused.
fn merge_shard(path: &Path, header: &[u8], range: (usize, usize)) -> Result<Vec<Sample>, CliError> {
    let bytes = std::fs::read(path).map_err(|e| CliError::io(path.display(), e))?;
    let (samples, _, stop) =
        read_log(&bytes, header, range).map_err(|e| CliError::io(path.display(), e))?;
    let logged = samples.iter().flatten().count();
    if stop.is_some() || logged < samples.len() {
        let why = stop.map_or_else(String::new, |why| format!(", {why}"));
        return Err(CliError::Parse(format!(
            "{}: shard is not complete ({logged} of {} cells logged{why}); run it again \
             before merging",
            path.display(),
            samples.len()
        )));
    }
    Ok(samples.into_iter().flatten().collect())
}

/// Run one shard: reopen its log (or start it), truncate a torn tail, run
/// only the cells the log lacks — appending each as it finishes — and sync
/// the log once the range is full. Returns the range's samples in cell
/// order and how many cells were already logged.
fn run_shard(
    spec: &SweepSpec,
    plan: &SweepPlan,
    opts: &CommonOpts,
    path: &Path,
    header: &[u8],
    range: (usize, usize),
) -> Result<(Vec<Sample>, usize), CliError> {
    let io_err = |e: std::io::Error| CliError::io(path.display(), e);
    let (mut file, bytes) = open_log(path).map_err(io_err)?;
    let (mut samples, valid_len, _) =
        read_log(&bytes, header, range).map_err(|e| CliError::io(path.display(), e))?;
    file.set_len(valid_len as u64).map_err(io_err)?;
    let mut head = Vec::new();
    if valid_len == 0 {
        frame_record(&mut head, header);
    }
    file.write_all(&head).map_err(io_err)?;
    let missing: Vec<usize> = (range.0..range.1)
        .filter(|&cell| samples[cell - range.0].is_none())
        .collect();
    let appender = std::sync::Mutex::new((file, Ok(())));
    let ran = run_cells(spec, plan, opts, &missing, &|cell, sample| {
        let (file, status) = &mut *appender.lock().expect("no append panics");
        if status.is_ok() {
            *status = file.write_all(&cell_record(cell, sample));
        }
    })?;
    let (file, status) = appender.into_inner().expect("no append panics");
    status.and_then(|()| file.sync_data()).map_err(io_err)?;
    let logged = samples.len() - missing.len();
    for (cell, sample) in missing.into_iter().zip(ran) {
        samples[cell - range.0] = Some(sample);
    }
    Ok((samples.into_iter().flatten().collect(), logged))
}

/// The sharded `resa sweep` driver: single-shard worker, run-all, and merge
/// modes. `text` is the raw spec file, fingerprinted (SHA-256 of the spec
/// bytes plus the seed) into the manifest and every log header: editing the
/// spec — even only whitespace — retires the dir.
fn run_sharded(
    spec: &SweepSpec,
    opts: &CommonOpts,
    text: &str,
    sh: &SweepArgs,
) -> Result<Outcome, CliError> {
    let dir = PathBuf::from(sh.dir.as_deref().expect("validated by SweepArgs"));
    std::fs::create_dir_all(&dir).map_err(|e| CliError::io(dir.display(), e))?;
    let plan = plan(spec)?;
    let total = plan.cells.len();
    let fingerprint = sha256(format!("{text}\u{1f}seed={}", opts.seed).as_bytes());
    // Shard dirs are scratch: one written by an older resa (a JSON
    // manifest, JSON rows files, `*.done.json` markers) is refused.
    let json = |entry: std::fs::DirEntry| entry.path().extension() == Some("json".as_ref());
    let entries = std::fs::read_dir(&dir).map_err(|e| CliError::io(dir.display(), e))?;
    if entries.flatten().any(json) {
        return Err(CliError::Parse(format!(
            "{}: written by an older resa; rerun the shard in a fresh --shard-dir",
            dir.display()
        )));
    }
    // The manifest is one framed record: the shard count, then the
    // fingerprint. A merge without --shards takes the count it records.
    let n = sh.shards.unwrap_or_else(|| {
        let bytes = std::fs::read(dir.join("manifest")).unwrap_or_default();
        let mut frames = Frames::new(&bytes);
        frames
            .next()
            .and_then(|p| Cursor::new(p).take_u64())
            .unwrap_or(0) as usize
    });
    let mut manifest = Vec::new();
    let count = (n as u64).to_le_bytes();
    frame_record(&mut manifest, &[&count[..], &fingerprint].concat());
    check_manifest(&dir, &manifest, !sh.merge)?;
    let ranges = contiguous_ranges(total, n);
    let mut samples = Vec::with_capacity(total);
    for i in sh.shard.map_or(0..n, |i| i..i + 1) {
        let (s, e) = ranges[i];
        let mut header = [&b"RESASHD1"[..], &fingerprint].concat();
        for v in [i, s, e] {
            put_u64(&mut header, v as u64);
        }
        let path = dir.join(format!("shard_{i:04}.log"));
        let (shard, logged) = if sh.merge {
            (merge_shard(&path, &header, (s, e))?, e - s)
        } else {
            run_shard(spec, &plan, opts, &path, &header, (s, e))?
        };
        let line = format!(
            "shard {i}/{n} complete — cells [{s}, {e}): {logged} already logged, {} run",
            e - s - logged
        );
        if sh.shard.is_some() {
            // Worker mode: the violations are all those the log records.
            return Ok(Outcome {
                stdout: format!("sweep '{}': {line}\n", spec.name),
                violations: shard.iter().filter(|c: &&Sample| c.4).count(),
            });
        }
        if logged > 0 && !sh.merge {
            // Progress goes to stderr so stdout stays byte-identical to the
            // unsharded run.
            eprintln!("resa sweep: {line}");
        }
        samples.extend(shard);
    }
    let (rows, violations) = aggregate(spec, &plan, &samples);
    render(spec, &rows, violations, opts)
}

/// Generate one cell's job list.
fn generate_jobs(
    workload: &str,
    machines: u32,
    jobs: usize,
    arrivals: Option<u64>,
    seed: u64,
) -> Vec<Job> {
    match workload {
        "uniform" => UniformWorkload::for_cluster(machines, jobs).generate(seed),
        "lublin" => {
            let mut w = LublinWorkload::for_cluster(machines, jobs);
            if let Some(a) = arrivals {
                w = w.with_arrivals(a);
            }
            w.generate(seed)
        }
        _ => {
            let mut w = FeitelsonWorkload::for_cluster(machines, jobs);
            if let Some(a) = arrivals {
                w = w.with_arrivals(a);
            }
            w.generate(seed)
        }
    }
}

/// A column of the rendered table: header, whether it is shown, cell.
type Column = (&'static str, bool, fn(&SweepRow) -> String);

/// Render the aggregated rows.
fn render(
    spec: &SweepSpec,
    rows: &[SweepRow],
    violations: usize,
    opts: &CommonOpts,
) -> Result<Outcome, CliError> {
    // The jobs, α and exact-probe columns only appear when the spec asked
    // for those dimensions, so plain sweeps keep their previous table shape.
    let any = |has: fn(&SweepRow) -> bool| rows.iter().any(has);
    let columns: [Column; 11] = [
        ("m", true, |r| r.machines.to_string()),
        ("jobs", any(|r| r.jobs.is_some()), |r| {
            r.jobs.map_or_else(|| "-".to_string(), |j| j.to_string())
        }),
        ("alpha", any(|r| r.alpha.is_some()), |r| {
            r.alpha.clone().unwrap_or_else(|| "-".to_string())
        }),
        ("policy", true, |r| r.policy.clone()),
        ("cells", true, |r| r.cells.to_string()),
        ("mean Cmax", true, |r| fmt_f64(r.mean_makespan)),
        ("mean Cmax/LB", true, |r| fmt_f64(r.mean_ratio_to_lb)),
        ("worst Cmax/LB", true, |r| fmt_f64(r.worst_ratio_to_lb)),
        ("mean wait", true, |r| fmt_f64(r.mean_wait)),
        ("mean util", true, |r| fmt_f64(r.mean_utilization)),
        (
            "exact nodes/s",
            any(|r| r.mean_exact_nodes_per_sec.is_some()),
            |r| fmt_f64(r.mean_exact_nodes_per_sec.unwrap_or(0.0)),
        ),
    ];
    let columns: Vec<_> = columns.iter().filter(|column| column.1).collect();
    let headers: Vec<&str> = columns.iter().map(|column| column.0).collect();
    let mut table = Table::new(
        format!(
            "sweep '{}' — {} on {:?} machines, {} seeds per cell",
            spec.name, spec.workload, spec.machines, spec.seeds
        ),
        &headers,
    );
    for r in rows {
        table.push_row(columns.iter().map(|column| (column.2)(r)).collect());
    }
    let notes = format!(
        "\nsanity violations: {violations} {}\n",
        if violations == 0 {
            "(all schedules feasible and above the certified lower bound)"
        } else {
            "(REPRODUCTION BROKEN)"
        }
    );
    opts.emit(&to_json(&rows.to_vec()), &table, &notes, violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_exactly_once_and_balance() {
        for total in [0usize, 1, 7, 100, 101, 1024] {
            for shards in [1usize, 2, 3, 7, 16, 200] {
                let ranges = contiguous_ranges(total, shards);
                assert_eq!(ranges.len(), shards);
                let mut next = 0;
                for &(start, end) in &ranges {
                    assert_eq!(start, next, "contiguous");
                    assert!(end >= start);
                    next = end;
                }
                assert_eq!(next, total, "full coverage");
                let sizes: Vec<usize> = ranges.iter().map(|&(s, e)| e - s).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "balanced to within one item");
            }
        }
    }

    #[test]
    fn zero_shards_is_clamped() {
        assert_eq!(contiguous_ranges(5, 0), vec![(0, 5)]);
    }

    const SPEC: &str = r#"{
        "name": "unit",
        "machines": [8],
        "jobs": 6,
        "seeds": 2,
        "workload": "feitelson",
        "arrivals": 4,
        "policies": ["easy", "offline:lsrc"],
        "reservations": { "family": "alpha", "alpha": "1/2", "count": 2, "horizon": 200, "max_duration": 40 }
    }"#;

    #[test]
    fn spec_parses_with_optional_fields_missing() {
        let spec: SweepSpec = serde_json::from_str(SPEC).unwrap();
        assert_eq!(spec.machines, vec![8]);
        assert_eq!(spec.policies.len(), 2);
        assert!(spec.reservations.is_some());

        let minimal: SweepSpec = serde_json::from_str(
            r#"{"machines": [4], "jobs": 3, "seeds": 1, "policies": ["fcfs"]}"#,
        )
        .unwrap();
        assert_eq!(minimal.name, "sweep");
        assert_eq!(minimal.workload, "feitelson");
        assert!(minimal.arrivals.is_none());
        assert!(minimal.reservations.is_none());

        assert!(serde_json::from_str::<SweepSpec>(r#"{"jobs": 3}"#).is_err());
    }

    #[test]
    fn unknown_top_level_field_is_rejected_with_suggestion() {
        // `reservation` for `reservations` used to run a reservation-free
        // sweep silently; now it is a hard parse error with a hint.
        let err = serde_json::from_str::<SweepSpec>(
            r#"{"machines": [4], "jobs": 3, "seeds": 1, "policies": ["fcfs"],
                "reservation": {"family": "alpha", "alpha": "1/2"}}"#,
        )
        .unwrap_err()
        .to_string();
        assert!(
            err.contains("unknown field 'reservation' in sweep spec"),
            "{err}"
        );
        assert!(err.contains("did you mean 'reservations'?"), "{err}");
        // Misspelled known sections are caught the same way.
        let err = serde_json::from_str::<SweepSpec>(
            r#"{"machines": [4], "jobs": 3, "seeds": 1, "polices": ["fcfs"]}"#,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("unknown field 'polices'"), "{err}");
        assert!(err.contains("did you mean 'policies'?"), "{err}");
    }

    #[test]
    fn unknown_reservation_field_is_rejected() {
        let err = serde_json::from_str::<SweepSpec>(
            r#"{"machines": [4], "jobs": 3, "seeds": 1, "policies": ["fcfs"],
                "reservations": {"family": "alpha", "alpha": "1/2", "maxdur": 10}}"#,
        )
        .unwrap_err()
        .to_string();
        assert!(
            err.contains("unknown field 'maxdur' in the 'reservations' section"),
            "{err}"
        );
    }

    #[test]
    fn spec_errors_are_line_anchored_through_the_cli() {
        let dir = std::env::temp_dir().join("resa-sweep-strict-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad_spec.json");
        std::fs::write(
            &path,
            "{\n  \"machines\": [4],\n  \"jobs\": 3,\n  \"seeds\": 1,\n  \"policies\": [\"fcfs\"],\n  \"reservation\": {}\n}\n",
        )
        .unwrap();
        let err = crate::run(&["sweep", path.to_str().unwrap()]).unwrap_err();
        match err {
            CliError::Parse(msg) => {
                assert!(msg.contains("line 6:"), "{msg}");
                assert!(msg.contains("unknown field 'reservation'"), "{msg}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// An error inside a section prints the `DeError` prefix at most once
    /// (only a serde error carries it), and is anchored to the line of the
    /// innermost field it names: the section's line when the section sits
    /// on one line or the field is missing, the bad field's own line in a
    /// multi-line section.
    #[test]
    fn section_errors_print_their_prefix_once() {
        let dir = std::env::temp_dir().join(format!("resa-sweep-prefix-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let head = "{\n  \"machines\": [4],\n  \"jobs\": 3,\n  \"seeds\": 1,\n  \"policies\": [\"fcfs\"],\n";
        for (section, line, needle) in [
            (
                r#""reservations": {"family": "alpha", "alpha": "1/2", "maxdur": 10}"#,
                6,
                "field 'reservations' in sweep spec: deserialization error: unknown field \
                 'maxdur' in the 'reservations' section",
            ),
            (
                r#""failures": {"count": 1, "max_duration": 5, "horizon": 10}"#,
                6,
                "field 'failures' in sweep spec: missing required field 'width' in the \
                 'failures' section",
            ),
            (
                r#""reservations": {"family": "alpha", "alpha": "1/2", "alphas": ["1/4"]}"#,
                6,
                "field 'reservations' in sweep spec: reservations: give either 'alpha' or \
                 'alphas'",
            ),
            (
                r#""failures": {
    "width": 1,
    "max_duration": 5,
    "horizon": 10,
    "count": "x"
  }"#,
                10,
                "field 'failures' in sweep spec: field 'count' in the 'failures' section",
            ),
            (
                r#""failures": {
    "count": 1,
    "max_duration": 5,
    "horizon": 10
  }"#,
                6,
                "field 'failures' in sweep spec: missing required field 'width'",
            ),
            (
                r#""reservations": {
    "family": "alpha",
    "alpha": "1/2",
    "maxdur": 10
  }"#,
                9,
                "field 'reservations' in sweep spec: deserialization error: unknown field \
                 'maxdur'",
            ),
        ] {
            let path = dir.join("bad.json");
            std::fs::write(&path, format!("{head}  {section}\n}}\n")).unwrap();
            let msg = match crate::run(&["sweep", path.to_str().unwrap()]) {
                Err(CliError::Parse(msg)) => msg,
                other => panic!("expected a parse error, got {other:?}"),
            };
            assert!(msg.matches("deserialization error:").count() <= 1, "{msg}");
            assert!(msg.contains(&format!("line {line}: {needle}")), "{msg}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every field of the three spec tables is named in `SWEEP_HELP`.
    #[test]
    fn every_spec_field_is_documented() {
        let words: Vec<&str> = SWEEP_HELP
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .collect();
        let names = (SPEC_FIELDS.fields.iter().map(|f| ("", f.name())))
            .chain(
                FAILURE_FIELDS
                    .fields
                    .iter()
                    .map(|f| ("failures.", f.name())),
            )
            .chain(
                RESERVATION_FIELDS
                    .fields
                    .iter()
                    .map(|f| ("reservations.", f.name())),
            );
        let undocumented: Vec<String> = names
            .filter(|(_, name)| !words.contains(name))
            .map(|(section, name)| format!("{section}{name}"))
            .collect();
        assert_eq!(undocumented, Vec::<String>::new());
    }

    #[test]
    fn near_miss_flags_get_a_suggestion() {
        match crate::run(&["sweep", "spec.json", "--shrads", "2"]) {
            Err(CliError::Usage(msg)) => assert_eq!(
                msg,
                "unknown option '--shrads' (did you mean '--shards'?) (see `resa sweep --help`)"
            ),
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn alphas_list_sweeps_an_extra_dimension() {
        let spec: SweepSpec = serde_json::from_str(
            r#"{
                "machines": [8], "jobs": 5, "seeds": 2, "policies": ["fcfs", "easy"],
                "reservations": { "family": "alpha", "alphas": ["1/4", "1/2"],
                                  "count": 2, "horizon": 200, "max_duration": 40 }
            }"#,
        )
        .unwrap();
        let (rows, violations) = execute(&spec, &CommonOpts::default()).unwrap();
        assert_eq!(violations, 0);
        // 1 machine size × 2 alphas × 2 policies.
        assert_eq!(rows.len(), 4);
        let labels: Vec<_> = rows.iter().map(|r| r.alpha.as_deref()).collect();
        assert_eq!(
            labels,
            vec![Some("1/4"), Some("1/4"), Some("1/2"), Some("1/2")]
        );
        // A single 'alpha' keeps rows unlabeled (the previous shape).
        let spec: SweepSpec = serde_json::from_str(SPEC).unwrap();
        let (rows, _) = execute(&spec, &CommonOpts::default()).unwrap();
        assert!(rows.iter().all(|r| r.alpha.is_none()));
    }

    #[test]
    fn alpha_and_alphas_together_are_rejected() {
        // The `reservations` object parses straight into its α variants, so
        // its family rules are spec parse errors.
        let err = |text: &str| {
            serde_json::from_str::<SweepSpec>(text)
                .unwrap_err()
                .to_string()
        };
        let e = err(r#"{
                "machines": [8], "jobs": 5, "seeds": 1, "policies": ["fcfs"],
                "reservations": { "family": "alpha", "alpha": "1/2", "alphas": ["1/4"] }
            }"#);
        assert!(e.contains("either 'alpha' or 'alphas'"), "{e}");
        let e = err(r#"{
                "machines": [8], "jobs": 5, "seeds": 1, "policies": ["fcfs"],
                "reservations": { "family": "nonincreasing", "alphas": ["1/4"], "steps": 2 }
            }"#);
        assert!(
            e.contains("'alphas' only applies to the alpha family"),
            "{e}"
        );
        let e = err(r#"{
                "machines": [8], "jobs": 5, "seeds": 1, "policies": ["fcfs"],
                "reservations": { "family": "alpha", "alphas": [] }
            }"#);
        assert!(e.contains("non-empty 'alphas'"), "{e}");
    }

    #[test]
    fn exact_probe_budget_reports_mean_throughput() {
        let spec: SweepSpec = serde_json::from_str(
            r#"{
                "machines": [4], "jobs": 5, "seeds": 2, "policies": ["fcfs"],
                "exact_probe": 500
            }"#,
        )
        .unwrap();
        assert_eq!(spec.exact_probe, Some(500));
        let (rows, violations) = execute(&spec, &CommonOpts::default()).unwrap();
        assert_eq!(violations, 0);
        assert_eq!(rows.len(), 1);
        // 0.0 is legitimate (the greedy incumbent can match the lower bound,
        // leaving no tree to expand) — the knob's contract is that the
        // column is populated and finite.
        let nps = rows[0].mean_exact_nodes_per_sec.expect("probe ran");
        assert!(nps.is_finite() && nps >= 0.0, "bad throughput {nps}");
        // Without the knob the column stays off.
        let spec: SweepSpec = serde_json::from_str(SPEC).unwrap();
        let (rows, _) = execute(&spec, &CommonOpts::default()).unwrap();
        assert!(rows.iter().all(|r| r.mean_exact_nodes_per_sec.is_none()));
    }

    #[test]
    fn misspelled_residue_knobs_are_rejected() {
        let err = serde_json::from_str::<SweepSpec>(
            r#"{"machines": [4], "jobs": 3, "seeds": 1, "policies": ["fcfs"],
                "exactprobe": 100}"#,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("unknown field 'exactprobe'"), "{err}");
        let err = serde_json::from_str::<SweepSpec>(
            r#"{"machines": [4], "jobs": 3, "seeds": 1, "policies": ["fcfs"],
                "reservations": {"family": "alpha", "alphass": ["1/2"]}}"#,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("unknown field 'alphass'"), "{err}");
        assert!(err.contains("did you mean 'alphas'?"), "{err}");
    }

    #[test]
    fn jobs_list_sweeps_a_labeled_dimension() {
        // A `jobs` list becomes one more product dimension, labeled per row
        // — the same pattern as `alphas`.
        let spec: SweepSpec = serde_json::from_str(
            r#"{
                "machines": [8], "jobs": [4, 8], "seeds": 2, "policies": ["fcfs", "easy"]
            }"#,
        )
        .unwrap();
        assert!(spec.jobs_labeled);
        let (rows, violations) = execute(&spec, &CommonOpts::default()).unwrap();
        assert_eq!(violations, 0);
        // 1 machine size × 2 job counts × 2 policies.
        assert_eq!(rows.len(), 4);
        let labels: Vec<_> = rows.iter().map(|r| r.jobs).collect();
        assert_eq!(labels, vec![Some(4), Some(4), Some(8), Some(8)]);
        // A scalar `jobs` keeps rows unlabeled (the previous shape).
        let spec: SweepSpec = serde_json::from_str(SPEC).unwrap();
        assert!(!spec.jobs_labeled);
        let (rows, _) = execute(&spec, &CommonOpts::default()).unwrap();
        assert!(rows.iter().all(|r| r.jobs.is_none()));
        // A one-element list still labels: the user asked for the dimension.
        let spec: SweepSpec = serde_json::from_str(
            r#"{"machines": [4], "jobs": [3], "seeds": 1, "policies": ["fcfs"]}"#,
        )
        .unwrap();
        let (rows, _) = execute(&spec, &CommonOpts::default()).unwrap();
        assert_eq!(rows[0].jobs, Some(3));
        // Zero or empty job counts are plan-time errors.
        for bad in [
            r#"{"machines": [4], "jobs": [], "seeds": 1, "policies": ["fcfs"]}"#,
            r#"{"machines": [4], "jobs": [3, 0], "seeds": 1, "policies": ["fcfs"]}"#,
        ] {
            let spec: SweepSpec = serde_json::from_str(bad).unwrap();
            let err = execute(&spec, &CommonOpts::default()).unwrap_err();
            assert!(err.to_string().contains("positive job count"), "{err}");
        }
        // And non-integer shapes are parse errors, not silent defaults.
        let err = serde_json::from_str::<SweepSpec>(
            r#"{"machines": [4], "jobs": "many", "seeds": 1, "policies": ["fcfs"]}"#,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("job count or a list of job counts"), "{err}");
    }

    #[test]
    fn misspelled_scenario_knobs_get_suggestions() {
        let err = serde_json::from_str::<SweepSpec>(
            r#"{"machines": [4], "jobs": 3, "seeds": 1, "policies": ["fcfs"],
                "deadline_frak": 2.0}"#,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("unknown field 'deadline_frak'"), "{err}");
        assert!(err.contains("did you mean 'deadline_frac'?"), "{err}");
        let err = serde_json::from_str::<SweepSpec>(
            r#"{"machines": [4], "jobs": 3, "seeds": 1, "policies": ["fcfs"],
                "failure": {"count": 1, "width": 2, "max_duration": 5, "horizon": 10}}"#,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("did you mean 'failures'?"), "{err}");
        // Inside the failures object the same strictness applies.
        let err = serde_json::from_str::<SweepSpec>(
            r#"{"machines": [4], "jobs": 3, "seeds": 1, "policies": ["fcfs"],
                "failures": {"count": 1, "width": 2, "maxduration": 5, "horizon": 10}}"#,
        )
        .unwrap_err()
        .to_string();
        assert!(
            err.contains("unknown field 'maxduration' in the 'failures' section"),
            "{err}"
        );
        assert!(err.contains("did you mean 'max_duration'?"), "{err}");
    }

    #[test]
    fn scenario_knob_combinations_are_validated() {
        let parse = |text: &str| serde_json::from_str::<SweepSpec>(text).unwrap();
        let cases: &[(&str, &str)] = &[
            (
                r#"{"machines": [4], "jobs": 3, "seeds": 1, "policies": ["fcfs"],
                    "deadline_frac": 2.0, "widths": [1, 2]}"#,
                "either 'deadline_frac' or 'widths'",
            ),
            (
                r#"{"machines": [4], "jobs": 3, "seeds": 1, "policies": ["fcfs"],
                    "deadline_frac": 2.0, "exact_probe": 100}"#,
                "'exact_probe' does not apply to scenario sweeps",
            ),
            (
                r#"{"machines": [4], "jobs": 3, "seeds": 1, "policies": ["offline:lsrc"],
                    "deadline_frac": 2.0}"#,
                "off-line",
            ),
            (
                r#"{"machines": [4], "jobs": 3, "seeds": 1, "policies": ["fcfs"],
                    "deadline_frac": 0.0}"#,
                "'deadline_frac' must be a positive finite number",
            ),
            (
                r#"{"machines": [4, 8], "jobs": 3, "seeds": 1, "policies": ["fcfs"],
                    "widths": [2, 6]}"#,
                "moldable width 6 not in 1..=4",
            ),
            (
                r#"{"machines": [4], "jobs": 3, "seeds": 1, "policies": ["fcfs"],
                    "widths": []}"#,
                "'widths' must be a non-empty menu",
            ),
            (
                r#"{"machines": [4], "jobs": 3, "seeds": 1, "policies": ["fcfs"],
                    "failures": {"count": 1, "width": 5, "max_duration": 4, "horizon": 10}}"#,
                "failure width 5 not in 1..=4",
            ),
            (
                r#"{"machines": [4], "jobs": 3, "seeds": 1, "policies": ["fcfs"],
                    "failures": {"count": 1, "width": 2, "max_duration": 0, "horizon": 10}}"#,
                "'failures.max_duration' must be positive",
            ),
        ];
        for (text, needle) in cases {
            let err = execute(&parse(text), &CommonOpts::default()).unwrap_err();
            assert!(err.to_string().contains(needle), "{needle}: {err}");
        }
    }

    #[test]
    fn deadline_cells_never_miss_a_committed_deadline() {
        let spec: SweepSpec = serde_json::from_str(
            r#"{
                "machines": [8], "jobs": 8, "seeds": 3, "arrivals": 4,
                "policies": ["fcfs", "easy", "greedy"], "deadline_frac": 3.0
            }"#,
        )
        .unwrap();
        let (rows, violations) = execute(&spec, &CommonOpts::default()).unwrap();
        assert_eq!(violations, 0, "a committed deadline was missed");
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!(r.cells, 3);
            assert!(r.mean_makespan > 0.0);
            assert!(r.mean_exact_nodes_per_sec.is_none());
        }
    }

    #[test]
    fn failure_cells_respect_the_drained_window_invariant() {
        let spec: SweepSpec = serde_json::from_str(
            r#"{
                "machines": [8], "jobs": [6, 10], "seeds": 3, "arrivals": 5,
                "policies": ["easy"],
                "reservations": { "family": "alpha", "alpha": "1/2",
                                  "count": 1, "horizon": 100, "max_duration": 20 },
                "failures": { "count": 3, "width": 3, "max_duration": 12, "horizon": 60 }
            }"#,
        )
        .unwrap();
        let (rows, violations) = execute(&spec, &CommonOpts::default()).unwrap();
        assert_eq!(violations, 0, "a job overlapped an active drain");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].jobs, Some(6));
        assert_eq!(rows[1].jobs, Some(10));
    }

    #[test]
    fn moldable_cells_run_and_stay_feasible() {
        let spec: SweepSpec = serde_json::from_str(
            r#"{
                "machines": [8], "jobs": 7, "seeds": 2, "arrivals": 3,
                "policies": ["easy", "greedy"], "widths": [1, 2, 4, 8],
                "failures": { "count": 2, "width": 2, "max_duration": 8, "horizon": 40 }
            }"#,
        )
        .unwrap();
        let (rows, violations) = execute(&spec, &CommonOpts::default()).unwrap();
        assert_eq!(violations, 0);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.mean_utilization <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn scenario_cells_are_runner_deterministic() {
        let spec: SweepSpec = serde_json::from_str(
            r#"{
                "machines": [8], "jobs": [5, 9], "seeds": 2, "arrivals": 4,
                "policies": ["easy"], "deadline_frac": 2.5,
                "failures": { "count": 2, "width": 2, "max_duration": 10, "horizon": 50 }
            }"#,
        )
        .unwrap();
        let par = execute(&spec, &CommonOpts::default()).unwrap();
        let seq = execute(
            &spec,
            &CommonOpts {
                threads: Some(1),
                ..CommonOpts::default()
            },
        )
        .unwrap();
        assert_eq!(to_json(&par.0.to_vec()), to_json(&seq.0.to_vec()));
    }

    #[test]
    fn execute_produces_one_row_per_machine_policy_pair() {
        let spec: SweepSpec = serde_json::from_str(SPEC).unwrap();
        let (rows, violations) = execute(&spec, &CommonOpts::default()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(violations, 0);
        for r in &rows {
            assert_eq!(r.cells, 2);
            assert!(r.mean_ratio_to_lb >= 1.0 - 1e-9);
            assert!(r.mean_utilization <= 1.0 + 1e-9);
        }
    }

    /// A `trace:` workload sweeps the cached trace's job prefix: widths are
    /// clamped into each swept cluster, over-long requests and unfetched
    /// references fail at plan time with actionable errors.
    #[test]
    fn trace_workloads_sweep_the_cached_prefix() {
        let _env = crate::trace_cache_env_lock();
        let cache =
            std::env::temp_dir().join(format!("resa-sweep-trace-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&cache).ok();
        let src = cache.with_extension("src.swf");
        // 12 jobs with widths up to 8, so the m=4 cluster exercises the clamp.
        let mut text = String::from("; MaxProcs: 8\n");
        for i in 0..12u64 {
            text.push_str(&format!(
                "{} {} {} {}\n",
                i + 1,
                2 * i,
                3 + i % 5,
                1 + i % 8
            ));
        }
        std::fs::write(&src, &text).unwrap();
        TraceStore::at(cache.clone())
            .import("swept", &src, None)
            .unwrap();
        std::env::set_var("RESA_TRACE_CACHE", &cache);

        let spec: SweepSpec = serde_json::from_str(
            r#"{
                "machines": [4, 8], "jobs": [6, 12], "seeds": 2,
                "workload": "trace:swept", "policies": ["easy"]
            }"#,
        )
        .unwrap();
        let (rows, violations) = execute(&spec, &CommonOpts::default()).unwrap();
        assert_eq!(violations, 0);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert_eq!(r.cells, 2);
            assert!(r.mean_makespan > 0.0);
        }

        // Asking for more jobs than the trace holds is a plan-time error...
        let too_many: SweepSpec = serde_json::from_str(
            r#"{ "machines": [4], "jobs": 50, "seeds": 1,
                 "workload": "trace:swept", "policies": ["easy"] }"#,
        )
        .unwrap();
        let err = execute(&too_many, &CommonOpts::default()).unwrap_err();
        assert!(matches!(err, CliError::Parse(_)), "{err:?}");

        // ...and an unfetched reference degrades with the fetch hint.
        let missing: SweepSpec = serde_json::from_str(
            r#"{ "machines": [4], "jobs": 3, "seeds": 1,
                 "workload": "trace:absent", "policies": ["easy"] }"#,
        )
        .unwrap();
        let err = execute(&missing, &CommonOpts::default()).unwrap_err();
        assert!(err.to_string().contains("resa fetch absent"), "{err}");

        std::env::remove_var("RESA_TRACE_CACHE");
        std::fs::remove_dir_all(&cache).ok();
        std::fs::remove_file(&src).ok();
    }

    #[test]
    fn execute_is_runner_deterministic() {
        let spec: SweepSpec = serde_json::from_str(SPEC).unwrap();
        let par = execute(&spec, &CommonOpts::default()).unwrap();
        let seq = execute(
            &spec,
            &CommonOpts {
                threads: Some(1),
                ..CommonOpts::default()
            },
        )
        .unwrap();
        assert_eq!(to_json(&par.0.to_vec()), to_json(&seq.0.to_vec()));
    }

    /// sweep ≡ serve: every cell of the example scenario sweeps, written
    /// down as a request session and served through `resa serve
    /// --script`'s path, ends in the same `snapshot` reply as the cell's
    /// own in-process service.
    #[test]
    fn scenario_cells_replay_as_served_sessions() {
        use crate::serve::protocol::{handle, request_line};
        const SNAPSHOT: &str = r#"{"op":"snapshot"}"#;
        let mut cells = 0;
        for name in ["sweep_deadline", "sweep_moldable"] {
            let path = format!("{}/../../examples/{name}.json", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap();
            let spec = SweepSpec::parse(&serde_json::from_str(&text).unwrap()).unwrap();
            let plan = plan(&spec).unwrap();
            for cell in 0..plan.cells.len() {
                let (machines, instance, seed) =
                    cell_instance(&spec, &plan, cell, CommonOpts::default().seed);
                let PolicyArg::Online(policy) = plan.policies[plan.cells[cell].3] else {
                    unreachable!("scenario sweeps run on-line policies")
                };
                let mut script = String::new();
                for op in scenario_ops(&spec, &instance, seed).unwrap() {
                    script += &request_line(&op).expect("every scenario op has a wire name");
                    script.push('\n');
                }
                script += SNAPSHOT;
                let served = crate::serve::run_script(
                    &script,
                    machines,
                    policy,
                    crate::replay::Substrate::Timeline,
                );
                let (mut svc, _) =
                    scenario_session(&spec, machines, &instance, policy, seed).unwrap();
                assert_eq!(
                    served.lines().last(),
                    Some(handle(&mut svc, SNAPSHOT).0.as_str()),
                    "{name} cell {cell}"
                );
                cells += 1;
            }
        }
        assert_eq!(cells, 10);
    }

    /// A scenario knob that puts an op past the time axis is a spec error
    /// naming the knob: a failure horizon of `u64::MAX` used to divide by
    /// zero, and a deadline past the axis used to wrap and be dropped as if
    /// admission had rejected the job (an all-zero row, exit 2).
    #[test]
    fn scenario_knobs_past_the_time_axis_are_spec_errors() {
        for (spec, knob) in [
            (
                r#"{"machines":[4],"jobs":3,"seeds":1,"policies":["easy"],"failures":
                    {"count":1,"width":1,"max_duration":5,"horizon":18446744073709551615}}"#,
                "'failures'",
            ),
            (
                r#"{"machines":[4],"jobs":3,"seeds":1,"arrivals":5,"policies":["easy"],
                    "deadline_frac":1e300}"#,
                "'deadline_frac'",
            ),
        ] {
            let spec: SweepSpec = serde_json::from_str(spec).unwrap();
            match execute(&spec, &CommonOpts::default()) {
                Err(CliError::Parse(msg)) => assert!(msg.starts_with(knob), "{msg}"),
                other => panic!("expected a spec error naming {knob}, got {other:?}"),
            }
        }
    }
}
