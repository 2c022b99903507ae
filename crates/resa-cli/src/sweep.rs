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
//! Because the flat cell list is deterministic, a sweep can be split into
//! contiguous shard ranges (`--shards`/`--shard`/`--shard-dir`), each shard
//! persisting its per-cell samples (`shard_NNNN.rows.json`, floats encoded
//! bit-exactly) plus an atomically written completion record
//! (`shard_NNNN.done.json` carrying an FNV-1a checksum of the rows bytes).
//! `--resume` re-runs only shards whose completion record does not verify,
//! and `--merge` re-assembles the samples in cell order and aggregates them
//! exactly as an unsharded run would — the rendered output is byte-for-byte
//! identical. A `manifest.json` pins spec text, seed and shard count so a
//! shard dir can never be silently reused for a different sweep.
//!
//! For crash testing, the environment variable named by
//! [`FAIL_AFTER_CELL_ENV`] aborts the process after that many completed
//! cells — between cell completion and the shard's rows hitting disk — so
//! a killed sweep leaves no completion record for the shard in flight.

use crate::fields::{anchor_line, check_fields};
use crate::opts::{CommonOpts, OutputFormat};
use crate::replay::{parse_alpha, PolicyArg, ReservationArg};
use crate::{CliError, Outcome};
use resa_analysis::prelude::*;
use resa_core::prelude::*;
use resa_sim::prelude::{AdmissionPolicy, DeadlineOutcome, ScheduleService, WindowKind};
use resa_workloads::prelude::*;
use serde::{DeError, Deserialize, Serialize, Value};
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
                  'alphas' (a list swept as an extra product dimension)
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
    --shard-dir DIR   where the manifest and per-shard files live
    --shard I         run only shard I (0-based) and write its files
    --resume          skip shards whose completion records verify
    --merge           only merge previously completed shards and render

With --shards but no --shard, every shard runs (in order) and the merged
result is rendered — byte-identical to the unsharded run. A shard worker
writes shard_NNNN.rows.json plus an atomic shard_NNNN.done.json completion
record; --resume trusts a record only when its checksum matches the rows
file. manifest.json pins the spec + seed + shard count, so mixing shard
dirs across different sweeps is an error, not silent garbage.

plus the common options: --seed --threads --format --quick --out
";

/// A parsed sweep specification.
#[derive(Debug, Clone)]
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
    /// Optional reservation overlay.
    pub reservations: Option<ReservationSpec>,
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
#[derive(Debug, Clone)]
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

/// The `reservations` object of a sweep spec.
#[derive(Debug, Clone)]
pub struct ReservationSpec {
    /// `alpha` or `nonincreasing`.
    pub family: String,
    /// α as `"1/2"` or `"0.5"` (alpha family).
    pub alpha: Option<String>,
    /// A *list* of α values swept as one more dimension of the cross
    /// product (alpha family; mutually exclusive with `alpha`).
    pub alphas: Option<Vec<String>>,
    /// Number of reservations (alpha family).
    pub count: Option<usize>,
    /// Placement horizon (alpha family).
    pub horizon: Option<u64>,
    /// Longest reservation.
    pub max_duration: Option<u64>,
    /// Staircase steps (nonincreasing family).
    pub steps: Option<usize>,
    /// Peak unavailability (nonincreasing family).
    pub max_initial: Option<u32>,
}

fn get_field<T: Deserialize>(value: &Value, name: &str) -> Result<Option<T>, DeError> {
    match value.get(name) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => T::from_value(v)
            .map(Some)
            .map_err(|e| DeError::custom(format!("field '{name}': {e}"))),
    }
}

fn require<T>(field: Option<T>, name: &str) -> Result<T, DeError> {
    field.ok_or_else(|| DeError::custom(format!("missing required field '{name}'")))
}

impl Deserialize for SweepSpec {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        if value.as_object().is_none() {
            return Err(DeError::custom("sweep spec must be a JSON object"));
        }
        // Unknown/misspelled keys are errors, not silently dropped sections:
        // a spec with `reservation` instead of `reservations` used to run a
        // reservation-free sweep without a word.
        check_fields(
            value,
            "sweep spec",
            &[
                "name",
                "machines",
                "jobs",
                "seeds",
                "workload",
                "arrivals",
                "policies",
                "reservations",
                "exact_probe",
                "deadline_frac",
                "widths",
                "failures",
            ],
        )?;
        // `jobs` is a count or a list of counts — a list becomes one more
        // labeled dimension of the cross product, mirroring `alphas`.
        let (jobs, jobs_labeled) = match value.get("jobs") {
            None | Some(Value::Null) => {
                return Err(DeError::custom("missing required field 'jobs'"))
            }
            Some(raw) => match usize::from_value(raw) {
                Ok(n) => (vec![n], false),
                Err(_) => (
                    Vec::<usize>::from_value(raw).map_err(|_| {
                        DeError::custom(
                            "field 'jobs': expected a job count or a list of job counts",
                        )
                    })?,
                    true,
                ),
            },
        };
        Ok(SweepSpec {
            name: get_field(value, "name")?.unwrap_or_else(|| "sweep".to_string()),
            machines: require(get_field(value, "machines")?, "machines")?,
            jobs,
            jobs_labeled,
            seeds: require(get_field(value, "seeds")?, "seeds")?,
            workload: get_field(value, "workload")?.unwrap_or_else(|| "feitelson".to_string()),
            arrivals: get_field(value, "arrivals")?,
            policies: require(get_field(value, "policies")?, "policies")?,
            reservations: get_field(value, "reservations")?,
            exact_probe: get_field(value, "exact_probe")?,
            deadline_frac: get_field(value, "deadline_frac")?,
            widths: get_field(value, "widths")?,
            failures: get_field(value, "failures")?,
        })
    }
}

impl Deserialize for FailureSpec {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        if value.as_object().is_none() {
            return Err(DeError::custom("'failures' must be a JSON object"));
        }
        check_fields(
            value,
            "the 'failures' section",
            &["count", "width", "max_duration", "horizon"],
        )?;
        Ok(FailureSpec {
            count: require(get_field(value, "count")?, "failures.count")?,
            width: require(get_field(value, "width")?, "failures.width")?,
            max_duration: require(get_field(value, "max_duration")?, "failures.max_duration")?,
            horizon: require(get_field(value, "horizon")?, "failures.horizon")?,
        })
    }
}

impl SweepSpec {
    /// Whether any scenario knob (`deadline_frac` / `widths` / `failures`)
    /// turns cells into resident-service sessions.
    pub fn is_scenario(&self) -> bool {
        self.deadline_frac.is_some() || self.widths.is_some() || self.failures.is_some()
    }
}

impl Deserialize for ReservationSpec {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        if value.as_object().is_none() {
            return Err(DeError::custom("'reservations' must be a JSON object"));
        }
        check_fields(
            value,
            "the 'reservations' section",
            &[
                "family",
                "alpha",
                "alphas",
                "count",
                "horizon",
                "max_duration",
                "steps",
                "max_initial",
            ],
        )?;
        Ok(ReservationSpec {
            family: require(get_field(value, "family")?, "reservations.family")?,
            alpha: get_field(value, "alpha")?,
            alphas: get_field(value, "alphas")?,
            count: get_field(value, "count")?,
            horizon: get_field(value, "horizon")?,
            max_duration: get_field(value, "max_duration")?,
            steps: get_field(value, "steps")?,
            max_initial: get_field(value, "max_initial")?,
        })
    }
}

impl ReservationSpec {
    /// Expand the spec into the α dimension of the sweep: one `(label,
    /// argument)` variant per α value. A single `alpha` (and the
    /// nonincreasing family) yields one unlabeled variant, so specs without
    /// an `alphas` list keep their exact previous row shape.
    fn to_args(&self) -> Result<Vec<(Option<String>, ReservationArg)>, CliError> {
        match self.family.as_str() {
            "alpha" => {
                let (texts, labeled): (Vec<String>, bool) = match (&self.alpha, &self.alphas) {
                    (Some(_), Some(_)) => {
                        return Err(CliError::Parse(
                            "reservations: give either 'alpha' or 'alphas', not both".into(),
                        ))
                    }
                    (Some(a), None) => (vec![a.clone()], false),
                    (None, Some(list)) if !list.is_empty() => (list.clone(), true),
                    _ => {
                        return Err(CliError::Parse(
                            "reservations.family 'alpha' needs an 'alpha' value or a \
                             non-empty 'alphas' list"
                                .into(),
                        ))
                    }
                };
                texts
                    .iter()
                    .map(|text| {
                        Ok((
                            labeled.then(|| text.clone()),
                            ReservationArg::Alpha {
                                alpha: parse_alpha(text)?,
                                count: self.count,
                                horizon: self.horizon,
                                max_duration: self.max_duration,
                            },
                        ))
                    })
                    .collect()
            }
            "nonincreasing" => {
                if self.alphas.is_some() {
                    return Err(CliError::Parse(
                        "'alphas' only applies to the alpha family".into(),
                    ));
                }
                Ok(vec![(
                    None,
                    ReservationArg::NonIncreasing {
                        steps: self.steps,
                        max_initial: self.max_initial,
                        max_duration: self.max_duration,
                    },
                )])
            }
            other => Err(CliError::Parse(format!(
                "unknown reservation family '{other}' (alpha|nonincreasing)"
            ))),
        }
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

/// `resa sweep <spec.json> [options]`.
pub fn run(args: &[&str]) -> Result<Outcome, CliError> {
    if args.first() == Some(&"--help") {
        return Ok(Outcome {
            stdout: SWEEP_HELP.to_string(),
            violations: 0,
        });
    }
    let (spec_path, rest) = match args.split_first() {
        Some((p, rest)) if !p.starts_with("--") => (*p, rest),
        _ => return Err(CliError::Usage("sweep expects a spec path".into())),
    };
    let mut sharding = ShardOpts::default();
    let opts = CommonOpts::parse(rest, &mut |flag, value| {
        let take =
            |name: &str| value.ok_or_else(|| CliError::Usage(format!("{name} expects a value")));
        match flag {
            "--shards" => {
                let n: usize = take("--shards")?
                    .parse()
                    .map_err(|_| CliError::Usage("--shards expects an integer".into()))?;
                if n == 0 {
                    return Err(CliError::Usage("--shards must be at least 1".into()));
                }
                sharding.shards = Some(n);
                Ok(1)
            }
            "--shard" => {
                sharding.shard = Some(
                    take("--shard")?
                        .parse()
                        .map_err(|_| CliError::Usage("--shard expects an integer".into()))?,
                );
                Ok(1)
            }
            "--shard-dir" => {
                sharding.dir = Some(take("--shard-dir")?.to_string());
                Ok(1)
            }
            "--resume" => {
                sharding.resume = true;
                Ok(0)
            }
            "--merge" => {
                sharding.merge = true;
                Ok(0)
            }
            other => Err(CliError::Usage(format!(
                "unknown option '{other}' (see `resa sweep --help`)"
            ))),
        }
    })?;
    sharding.validate()?;
    let text = std::fs::read_to_string(spec_path).map_err(|e| CliError::Io {
        path: spec_path.to_string(),
        message: e.to_string(),
    })?;
    let spec: SweepSpec = serde_json::from_str(&text).map_err(|e| {
        // Anchor field-level errors to the offending line of the spec.
        CliError::Parse(format!(
            "{spec_path}: {}",
            anchor_line(&text, &e.to_string())
        ))
    })?;
    if sharding.dir.is_some() {
        run_sharded(&spec, &opts, &text, &sharding)
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
    variants: Vec<(Option<String>, ReservationArg)>,
    policies: Vec<(String, PolicyArg)>,
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
    let variants: Vec<(Option<String>, ReservationArg)> = match &spec.reservations {
        None => vec![(None, ReservationArg::None)],
        Some(r) => r.to_args()?,
    };
    let policies: Vec<(String, PolicyArg)> = spec
        .policies
        .iter()
        .map(|name| PolicyArg::parse(name).map(|p| (name.clone(), p)))
        .collect::<Result<_, _>>()?;
    if spec.is_scenario() {
        if let Some((name, _)) = policies
            .iter()
            .find(|(_, p)| !matches!(p, PolicyArg::Online(_)))
        {
            return Err(CliError::Parse(format!(
                "scenario sweeps run the resident service; policy '{name}' is \
                 off-line (use fcfs|easy|greedy)"
            )));
        }
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
    let path = TraceStore::open_default()
        .resolve_ref(reference)
        .map_err(|e| CliError::Parse(e.to_string()))?;
    let stream = open_trace(&path, None).map_err(|e| CliError::Io {
        path: reference.to_string(),
        message: e.to_string(),
    })?;
    let mut pool = Vec::with_capacity(wanted);
    for item in stream {
        if pool.len() == wanted {
            break;
        }
        match item {
            Ok(job) => pool.push(job),
            Err(SwfReadError::Swf(e)) => return Err(CliError::Parse(format!("{reference}: {e}"))),
            Err(SwfReadError::Io(e)) => {
                return Err(CliError::Io {
                    path: reference.to_string(),
                    message: e.to_string(),
                })
            }
        }
    }
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

/// Environment variable of the sweep crash failpoint: when set to `n`, the
/// process aborts after `n` cells have completed — before the shard in
/// flight writes its rows or completion record. Crash-recovery tests use
/// it to kill a sharded sweep at a deterministic point and assert that
/// `--resume` reproduces the uninterrupted run.
pub const FAIL_AFTER_CELL_ENV: &str = "RESA_FAIL_AFTER_CELL";

/// Cells completed process-wide, for the [`FAIL_AFTER_CELL_ENV`] failpoint.
static CELLS_DONE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Run the cells in `[start, end)` of the plan's cell list and return one
/// sample per cell, in cell order (parallel execution is order-preserving).
fn run_cells(
    spec: &SweepSpec,
    plan: &SweepPlan,
    opts: &CommonOpts,
    start: usize,
    end: usize,
) -> Vec<Sample> {
    let fail_after: Option<u64> = std::env::var(FAIL_AFTER_CELL_ENV)
        .ok()
        .and_then(|v| v.parse().ok());
    let runner = opts.runner();
    runner.map(&plan.cells[start..end], |&(m, j, v, p, s)| {
        let seed = opts.seed + s;
        let jobs = match &plan.trace_pool {
            Some(pool) => trace_cell_jobs(pool, m, spec.jobs[j]),
            None => generate_jobs(&spec.workload, m, spec.jobs[j], spec.arrivals, seed),
        };
        let max_release = jobs.iter().map(|j| j.release.ticks()).max().unwrap_or(0);
        let (instance, _clamped) =
            crate::replay::build_instance(m, jobs, &plan.variants[v].1, max_release, seed, 0)
                .expect("sweep instances are feasible by construction");
        let sample = if spec.is_scenario() {
            run_scenario_cell(spec, m, &instance, plan.policies[p].1, seed)
        } else {
            let lb = lower_bound(&instance).unwrap_or(Time::ZERO).ticks().max(1);
            let (schedule, _) = crate::replay::run_policy(plan.policies[p].1, &instance);
            let metrics = resa_sim::prelude::SimMetrics::from_schedule(&instance, &schedule);
            let makespan = metrics.makespan.ticks();
            let violation = !schedule.is_valid(&instance) || makespan < lb;
            let exact_nodes_per_sec = spec.exact_probe.map(|budget| {
                let harness = RatioHarness {
                    exact_node_budget: budget,
                    ..RatioHarness::default()
                };
                harness.probe_exact(&instance).nodes_per_sec
            });
            (
                makespan as f64,
                makespan as f64 / lb as f64,
                metrics.mean_wait,
                metrics.utilization,
                violation,
                exact_nodes_per_sec,
            )
        };
        if let Some(limit) = fail_after {
            let done = CELLS_DONE.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
            if done == limit.max(1) {
                eprintln!("resa sweep: injected crash after {done} completed cell(s)");
                std::process::abort();
            }
        }
        sample
    })
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

/// Run one scenario cell: the generated instance driven through a resident
/// [`ScheduleService`] session instead of the batch simulator — overlay
/// reserved up front, seeded failure drains injected, then every job
/// submitted (deadline-gated or molded per the spec) and the session
/// drained. The violation flag re-derives the scenario guarantees from
/// first principles: schedule validity on the off-line oracle instance, no
/// committed deadline missed, and the drained-window invariant.
fn run_scenario_cell(
    spec: &SweepSpec,
    machines: u32,
    instance: &ResaInstance,
    policy: PolicyArg,
    seed: u64,
) -> Sample {
    let PolicyArg::Online(policy) = policy else {
        unreachable!("plan() rejects off-line policies for scenario sweeps")
    };
    let mut svc = ScheduleService::new(policy, AvailabilityTimeline::constant(machines));
    for r in instance.reservations() {
        svc.reserve(r.width, r.duration, r.start)
            .expect("build_instance certified the overlay");
    }
    if let Some(f) = &spec.failures {
        let mut rng = seed.wrapping_add(0x9e37_79b9_7f4a_7c15) | 1;
        for _ in 0..f.count {
            let duration = 1 + xorshift(&mut rng) % f.max_duration;
            let start = xorshift(&mut rng) % (f.horizon + 1);
            // A window the remaining capacity cannot honor is rejected by
            // the service, transactionally — drop it rather than force it.
            let _ = svc.inject(f.width, Dur(duration), Time(start));
        }
    }
    let mut order: Vec<&Job> = instance.jobs().iter().collect();
    order.sort_by_key(|job| (job.release, job.id));
    let mut committed: Vec<(JobId, Dur, Time)> = Vec::new();
    for job in order {
        if let Some(menu) = &spec.widths {
            // Mold the job: same work area, width chosen by the service.
            // Moldable submission happens at the job's release instant.
            svc.advance_clamped(job.release);
            let area = u64::from(job.width) * job.duration.ticks();
            svc.submit_moldable(menu, area)
                .expect("the menu was validated against the smallest cluster");
        } else if let Some(frac) = spec.deadline_frac {
            let slack = (job.duration.ticks() as f64 * frac).ceil() as u64;
            let deadline = job.release + Dur(slack);
            // Reject-mode admission: a rejected job simply never exists in
            // this cell; a committed one joins the checked commitments.
            if let Ok((id, DeadlineOutcome::Committed { .. }, _)) = svc.submit_deadline(
                job.width,
                job.duration,
                Some(job.release),
                deadline,
                AdmissionPolicy::Reject,
            ) {
                committed.push((id, job.duration, deadline));
            }
        } else {
            svc.submit(job.width, job.duration, Some(job.release))
                .expect("generated jobs fit their cluster");
        }
    }
    svc.drain();

    // Guarantee checks, re-derived independently of the substrate.
    let live = svc.to_instance();
    let job_windows: Vec<Window> = live
        .jobs()
        .iter()
        .filter_map(|job| {
            svc.schedule()
                .start_of(job.id)
                .map(|s| (job.width, s, s.saturating_add(job.duration)))
        })
        .collect();
    let blocked: Vec<Window> = WindowKind::ALL
        .iter()
        .flat_map(|&kind| svc.windows(kind))
        .filter(|w| w.is_effective())
        .map(|w| (w.width, w.start, w.end))
        .collect();
    let mut all_committed_placed = true;
    let commitments: Vec<(Time, Time)> = committed
        .iter()
        .filter_map(
            |&(id, duration, deadline)| match svc.schedule().start_of(id) {
                Some(s) => Some((s.saturating_add(duration), deadline)),
                None => {
                    all_committed_placed = false;
                    None
                }
            },
        )
        .collect();
    let (oracle_instance, oracle_schedule) = svc.oracle_parts();
    // The ratio baseline is the certified lower bound of the *live*
    // instance (every submitted job plus the drain/reservation overlay):
    // the oracle instance excludes committed jobs, so its bound can
    // degenerate to zero when admission commits everything.
    let lb = lower_bound(&live).unwrap_or(Time::ZERO).ticks().max(1);
    let (_, metrics) = svc.snapshot();
    let makespan = metrics.makespan.ticks();
    let violation = !oracle_schedule.is_valid(&oracle_instance)
        || !all_committed_placed
        || !deadlines_met(&commitments)
        || !drain_invariant(machines, &job_windows, &blocked)
        || makespan < lb;
    (
        makespan as f64,
        makespan as f64 / lb as f64,
        metrics.mean_wait,
        metrics.utilization,
        violation,
        None,
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
            policy: plan.policies[p].0.clone(),
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
    let n_cells = plan.cells.len();
    let samples = run_cells(spec, &plan, opts, 0, n_cells);
    Ok(aggregate(spec, &plan, &samples))
}

// ---------------------------------------------------------------------------
// Sharded execution: manifest, per-shard rows + completion records, resume
// and merge. See the module docs for the file layout and guarantees.
// ---------------------------------------------------------------------------

/// The shard flag set of `resa sweep`.
#[derive(Debug, Clone, Default)]
struct ShardOpts {
    shards: Option<usize>,
    shard: Option<usize>,
    dir: Option<String>,
    resume: bool,
    merge: bool,
}

impl ShardOpts {
    fn validate(&self) -> Result<(), CliError> {
        let active = self.shards.is_some() || self.shard.is_some() || self.resume || self.merge;
        if !active && self.dir.is_none() {
            return Ok(());
        }
        if self.dir.is_none() {
            return Err(CliError::Usage(
                "--shards/--shard/--resume/--merge require --shard-dir".into(),
            ));
        }
        if self.merge {
            if self.shard.is_some() {
                return Err(CliError::Usage(
                    "--merge runs no cells; drop --shard".into(),
                ));
            }
            return Ok(());
        }
        let n = self
            .shards
            .ok_or_else(|| CliError::Usage("--shard-dir requires --shards (or --merge)".into()))?;
        if let Some(i) = self.shard {
            if i >= n {
                return Err(CliError::Usage(format!(
                    "--shard {i} is out of range for --shards {n}"
                )));
            }
        }
        Ok(())
    }
}

/// The fingerprint pinning a shard dir to one (spec text, base seed) pair:
/// hex FNV-1a of the raw spec bytes plus the seed. Editing the spec file —
/// even only whitespace — retires the dir, which errs on the side of
/// re-running cells over silently merging rows from a different sweep.
fn spec_fingerprint(text: &str, seed: u64) -> String {
    format!(
        "{:016x}",
        fnv1a64(format!("{text}\u{1f}seed={seed}").as_bytes())
    )
}

fn shard_io_err(path: &Path, e: impl std::fmt::Display) -> CliError {
    CliError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

fn rows_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("shard_{i:04}.rows.json"))
}

fn done_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("shard_{i:04}.done.json"))
}

fn manifest_value(
    spec: &SweepSpec,
    fingerprint: &str,
    seed: u64,
    total: usize,
    ranges: &[(usize, usize)],
) -> Value {
    Value::Object(vec![
        ("name".into(), Value::Str(spec.name.clone())),
        ("fingerprint".into(), Value::Str(fingerprint.into())),
        ("seed".into(), Value::UInt(seed)),
        ("total_cells".into(), Value::UInt(total as u64)),
        (
            "shards".into(),
            Value::Array(
                ranges
                    .iter()
                    .map(|&(s, e)| Value::Array(vec![Value::UInt(s as u64), Value::UInt(e as u64)]))
                    .collect(),
            ),
        ),
    ])
}

fn render_json_line(value: &Value) -> Vec<u8> {
    let mut text = serde_json::to_string(value).expect("value trees always render");
    text.push('\n');
    text.into_bytes()
}

fn read_json_file(path: &Path) -> Result<Value, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| shard_io_err(path, e))?;
    serde_json::from_str(&text).map_err(|e| shard_io_err(path, e))
}

/// Create the manifest, or verify an existing one matches exactly — a shard
/// dir belongs to ONE (spec, seed, shard split) and is never silently
/// repurposed.
fn write_or_verify_manifest(dir: &Path, expected: &Value) -> Result<(), CliError> {
    let path = dir.join("manifest.json");
    if path.exists() {
        let found = read_json_file(&path)?;
        if &found != expected {
            return Err(CliError::Parse(format!(
                "{}: shard dir was built from a different spec, seed or shard split — \
                 use a fresh --shard-dir",
                path.display()
            )));
        }
        return Ok(());
    }
    atomic_write(&path, &render_json_line(expected)).map_err(|e| shard_io_err(&path, e))
}

/// Encode one shard's samples. Floats travel as their IEEE-754 bit patterns
/// (`u64`), so a merge aggregates *exactly* the numbers the shard computed
/// and the merged report is byte-identical to an unsharded run.
fn rows_value(i: usize, range: (usize, usize), samples: &[Sample]) -> Value {
    Value::Object(vec![
        ("shard".into(), Value::UInt(i as u64)),
        ("start".into(), Value::UInt(range.0 as u64)),
        ("end".into(), Value::UInt(range.1 as u64)),
        (
            "samples".into(),
            Value::Array(
                samples
                    .iter()
                    .map(|&(mk, ratio, wait, util, viol, probe)| {
                        Value::Array(vec![
                            Value::UInt(mk.to_bits()),
                            Value::UInt(ratio.to_bits()),
                            Value::UInt(wait.to_bits()),
                            Value::UInt(util.to_bits()),
                            Value::Bool(viol),
                            probe.map_or(Value::Null, |p| Value::UInt(p.to_bits())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn decode_samples(
    rows: &Value,
    path: &Path,
    range: (usize, usize),
) -> Result<Vec<Sample>, CliError> {
    let bad = |what: &str| {
        CliError::Parse(format!(
            "{}: malformed shard rows file ({what})",
            path.display()
        ))
    };
    let field = |name: &str| -> Result<u64, CliError> {
        match rows.get(name) {
            Some(Value::UInt(v)) => Ok(*v),
            _ => Err(bad(&format!("missing field '{name}'"))),
        }
    };
    if field("start")? != range.0 as u64 || field("end")? != range.1 as u64 {
        return Err(bad("cell range does not match the manifest"));
    }
    let arr = rows
        .get("samples")
        .and_then(Value::as_array)
        .ok_or_else(|| bad("missing 'samples' array"))?;
    if arr.len() != range.1 - range.0 {
        return Err(bad("sample count does not match the shard's cell range"));
    }
    let bits = |v: &Value| match v {
        Value::UInt(b) => Some(f64::from_bits(*b)),
        _ => None,
    };
    arr.iter()
        .map(|entry| match entry.as_array() {
            Some([mk, ratio, wait, util, Value::Bool(viol), probe]) => {
                let probe = match probe {
                    Value::Null => None,
                    other => Some(bits(other).ok_or_else(|| bad("bad probe encoding"))?),
                };
                Ok((
                    bits(mk).ok_or_else(|| bad("bad float encoding"))?,
                    bits(ratio).ok_or_else(|| bad("bad float encoding"))?,
                    bits(wait).ok_or_else(|| bad("bad float encoding"))?,
                    bits(util).ok_or_else(|| bad("bad float encoding"))?,
                    *viol,
                    probe,
                ))
            }
            _ => Err(bad("a sample must be a six-element array")),
        })
        .collect()
}

/// Verify shard `i`'s completion record against its rows file. On success
/// returns the rows bytes the record's checksum vouches for; the error
/// string says what failed (missing record, mismatched range, checksum).
fn verify_shard(dir: &Path, i: usize, range: (usize, usize)) -> Result<Vec<u8>, String> {
    let done_p = done_path(dir, i);
    let text =
        std::fs::read_to_string(&done_p).map_err(|e| format!("{}: {e}", done_p.display()))?;
    let done: Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", done_p.display()))?;
    let field = |name: &str| -> Result<u64, String> {
        match done.get(name) {
            Some(Value::UInt(v)) => Ok(*v),
            _ => Err(format!("{}: missing field '{name}'", done_p.display())),
        }
    };
    if field("shard")? != i as u64
        || field("start")? != range.0 as u64
        || field("end")? != range.1 as u64
    {
        return Err(format!(
            "{}: completion record does not match the manifest range",
            done_p.display()
        ));
    }
    let checksum = match done.get("rows_checksum") {
        Some(Value::Str(s)) => s.clone(),
        _ => {
            return Err(format!(
                "{}: missing field 'rows_checksum'",
                done_p.display()
            ))
        }
    };
    let rows_p = rows_path(dir, i);
    let bytes = std::fs::read(&rows_p).map_err(|e| format!("{}: {e}", rows_p.display()))?;
    if format!("{:016x}", fnv1a64(&bytes)) != checksum {
        return Err(format!(
            "{}: rows checksum mismatch (file changed after completion)",
            rows_p.display()
        ));
    }
    Ok(bytes)
}

/// Run shard `i`'s cells and persist rows + completion record. The rows go
/// first, then the record atomically — a crash between the two leaves an
/// unrecorded rows file that `--resume` correctly re-runs.
fn run_one_shard(
    spec: &SweepSpec,
    plan: &SweepPlan,
    opts: &CommonOpts,
    dir: &Path,
    i: usize,
    range: (usize, usize),
) -> Result<(usize, String), CliError> {
    let samples = run_cells(spec, plan, opts, range.0, range.1);
    let violations = samples.iter().filter(|c| c.4).count();
    let rows_bytes = render_json_line(&rows_value(i, range, &samples));
    let rows_p = rows_path(dir, i);
    atomic_write(&rows_p, &rows_bytes).map_err(|e| shard_io_err(&rows_p, e))?;
    let checksum = format!("{:016x}", fnv1a64(&rows_bytes));
    let done = Value::Object(vec![
        ("shard".into(), Value::UInt(i as u64)),
        ("start".into(), Value::UInt(range.0 as u64)),
        ("end".into(), Value::UInt(range.1 as u64)),
        ("cells".into(), Value::UInt((range.1 - range.0) as u64)),
        ("rows_checksum".into(), Value::Str(checksum.clone())),
    ]);
    let done_p = done_path(dir, i);
    atomic_write(&done_p, &render_json_line(&done)).map_err(|e| shard_io_err(&done_p, e))?;
    Ok((violations, checksum))
}

/// Load and verify every shard's rows, concatenated in cell order — the
/// exact sample sequence an unsharded run would have produced in memory.
fn collect_samples(dir: &Path, ranges: &[(usize, usize)]) -> Result<Vec<Sample>, CliError> {
    let mut samples = Vec::new();
    for (i, &range) in ranges.iter().enumerate() {
        let bytes = verify_shard(dir, i, range).map_err(|reason| {
            CliError::Parse(format!(
                "shard {i}/{} is not complete — {reason}; run it (or the whole sweep with \
                 --resume) before merging",
                ranges.len()
            ))
        })?;
        let text = String::from_utf8(bytes)
            .map_err(|_| CliError::Parse(format!("shard {i}: rows file is not UTF-8")))?;
        let rows: Value =
            serde_json::from_str(&text).map_err(|e| shard_io_err(&rows_path(dir, i), e))?;
        samples.extend(decode_samples(&rows, &rows_path(dir, i), range)?);
    }
    Ok(samples)
}

/// The sharded `resa sweep` driver: single-shard worker, resumable run-all,
/// and merge modes. `text` is the raw spec file (fingerprinted into the
/// manifest).
fn run_sharded(
    spec: &SweepSpec,
    opts: &CommonOpts,
    text: &str,
    sh: &ShardOpts,
) -> Result<Outcome, CliError> {
    let dir = PathBuf::from(sh.dir.as_deref().expect("validated by ShardOpts"));
    std::fs::create_dir_all(&dir).map_err(|e| shard_io_err(&dir, e))?;
    let plan = plan(spec)?;
    let total = plan.cells.len();
    let fingerprint = spec_fingerprint(text, opts.seed);

    if sh.merge {
        let manifest_p = dir.join("manifest.json");
        let manifest = read_json_file(&manifest_p)?;
        match manifest.get("fingerprint") {
            Some(Value::Str(found)) if *found == fingerprint => {}
            _ => {
                return Err(CliError::Parse(format!(
                    "{}: manifest fingerprint does not match this spec and seed",
                    manifest_p.display()
                )))
            }
        }
        let ranges: Vec<(usize, usize)> = manifest
            .get("shards")
            .map(Vec::<(u64, u64)>::from_value)
            .transpose()
            .ok()
            .flatten()
            .map(|rs| {
                rs.into_iter()
                    .map(|(s, e)| (s as usize, e as usize))
                    .collect()
            })
            .ok_or_else(|| {
                CliError::Parse(format!(
                    "{}: malformed 'shards' ranges",
                    manifest_p.display()
                ))
            })?;
        if let Some(n) = sh.shards {
            if ranges.len() != n {
                return Err(CliError::Usage(format!(
                    "--shards {n} does not match the manifest's {} shards",
                    ranges.len()
                )));
            }
        }
        if ranges.last().map(|r| r.1) != Some(total) && total != 0 {
            return Err(CliError::Parse(format!(
                "{}: manifest covers a different cell count than this spec",
                manifest_p.display()
            )));
        }
        let samples = collect_samples(&dir, &ranges)?;
        let (rows, violations) = aggregate(spec, &plan, &samples);
        return render(spec, &rows, violations, opts);
    }

    let n = sh.shards.expect("validated by ShardOpts");
    let ranges = contiguous_ranges(total, n);
    let expected = manifest_value(spec, &fingerprint, opts.seed, total, &ranges);
    write_or_verify_manifest(&dir, &expected)?;

    match sh.shard {
        // Worker mode: run exactly one shard and report its completion.
        Some(i) => {
            let range = ranges[i];
            if sh.resume && verify_shard(&dir, i, range).is_ok() {
                return Ok(Outcome {
                    stdout: format!(
                        "sweep '{}': shard {i}/{n} already complete — cells [{}, {}) skipped\n",
                        spec.name, range.0, range.1
                    ),
                    violations: 0,
                });
            }
            let (violations, checksum) = run_one_shard(spec, &plan, opts, &dir, i, range)?;
            Ok(Outcome {
                stdout: format!(
                    "sweep '{}': shard {i}/{n} complete — cells [{}, {}), rows checksum {checksum}\n",
                    spec.name, range.0, range.1
                ),
                violations,
            })
        }
        // Run-all mode: every shard in order (skipping verified ones under
        // --resume), then merge. Progress goes to stderr so stdout stays
        // byte-identical to the unsharded run.
        None => {
            for (i, &range) in ranges.iter().enumerate() {
                if sh.resume && verify_shard(&dir, i, range).is_ok() {
                    eprintln!("resa sweep: shard {i}/{n} already complete, skipped");
                    continue;
                }
                run_one_shard(spec, &plan, opts, &dir, i, range)?;
            }
            let samples = collect_samples(&dir, &ranges)?;
            let (rows, violations) = aggregate(spec, &plan, &samples);
            render(spec, &rows, violations, opts)
        }
    }
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

/// Render the aggregated rows.
fn render(
    spec: &SweepSpec,
    rows: &[SweepRow],
    violations: usize,
    opts: &CommonOpts,
) -> Result<Outcome, CliError> {
    // The jobs, α and exact-probe columns only appear when the spec asked
    // for those dimensions, so plain sweeps keep their previous table shape.
    let has_jobs = rows.iter().any(|r| r.jobs.is_some());
    let has_alpha = rows.iter().any(|r| r.alpha.is_some());
    let has_exact = rows.iter().any(|r| r.mean_exact_nodes_per_sec.is_some());
    let mut headers = vec!["m"];
    if has_jobs {
        headers.push("jobs");
    }
    if has_alpha {
        headers.push("alpha");
    }
    headers.extend([
        "policy",
        "cells",
        "mean Cmax",
        "mean Cmax/LB",
        "worst Cmax/LB",
        "mean wait",
        "mean util",
    ]);
    if has_exact {
        headers.push("exact nodes/s");
    }
    let mut table = Table::new(
        format!(
            "sweep '{}' — {} on {:?} machines, {} seeds per cell",
            spec.name, spec.workload, spec.machines, spec.seeds
        ),
        &headers,
    );
    for r in rows {
        let mut row = vec![r.machines.to_string()];
        if has_jobs {
            row.push(r.jobs.map_or_else(|| "-".to_string(), |j| j.to_string()));
        }
        if has_alpha {
            row.push(r.alpha.clone().unwrap_or_else(|| "-".to_string()));
        }
        row.extend([
            r.policy.clone(),
            r.cells.to_string(),
            fmt_f64(r.mean_makespan),
            fmt_f64(r.mean_ratio_to_lb),
            fmt_f64(r.worst_ratio_to_lb),
            fmt_f64(r.mean_wait),
            fmt_f64(r.mean_utilization),
        ]);
        if has_exact {
            row.push(fmt_f64(r.mean_exact_nodes_per_sec.unwrap_or(0.0)));
        }
        table.push_row(row);
    }
    let rendered = match opts.format {
        OutputFormat::Json => format!("{}\n", to_json(&rows.to_vec())),
        OutputFormat::Csv => table.to_csv(),
        OutputFormat::Table => {
            let mut out = table.to_text();
            out.push_str(&format!(
                "\nsanity violations: {violations} {}\n",
                if violations == 0 {
                    "(all schedules feasible and above the certified lower bound)"
                } else {
                    "(REPRODUCTION BROKEN)"
                }
            ));
            out
        }
    };
    let mut stdout = rendered.clone();
    if let Some(note) = opts.persist(&rendered)? {
        stdout.push_str(&note);
        stdout.push('\n');
    }
    Ok(Outcome { stdout, violations })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let spec: SweepSpec = serde_json::from_str(
            r#"{
                "machines": [8], "jobs": 5, "seeds": 1, "policies": ["fcfs"],
                "reservations": { "family": "alpha", "alpha": "1/2", "alphas": ["1/4"] }
            }"#,
        )
        .unwrap();
        let err = execute(&spec, &CommonOpts::default()).unwrap_err();
        assert!(
            err.to_string().contains("either 'alpha' or 'alphas'"),
            "{err}"
        );
        let spec: SweepSpec = serde_json::from_str(
            r#"{
                "machines": [8], "jobs": 5, "seeds": 1, "policies": ["fcfs"],
                "reservations": { "family": "nonincreasing", "alphas": ["1/4"], "steps": 2 }
            }"#,
        )
        .unwrap();
        let err = execute(&spec, &CommonOpts::default()).unwrap_err();
        assert!(
            err.to_string()
                .contains("'alphas' only applies to the alpha family"),
            "{err}"
        );
        let spec: SweepSpec = serde_json::from_str(
            r#"{
                "machines": [8], "jobs": 5, "seeds": 1, "policies": ["fcfs"],
                "reservations": { "family": "alpha", "alphas": [] }
            }"#,
        )
        .unwrap();
        let err = execute(&spec, &CommonOpts::default()).unwrap_err();
        assert!(err.to_string().contains("non-empty 'alphas'"), "{err}");
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
}
