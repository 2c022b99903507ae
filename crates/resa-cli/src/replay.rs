//! `resa replay` — end-to-end SWF trace replay.
//!
//! The pipeline the paper motivates but never shows: a production trace in
//! the Standard Workload Format (plain or gzipped, a file path or a cached
//! `trace:` reference) is parsed (`resa_workloads::swf`), optionally
//! truncated past a warm-up horizon, decorated with a reservation overlay
//! (α-restricted, non-increasing, or loaded from an instance file), and
//! replayed — either through the on-line event loop under a decision
//! policy, or through an off-line scheduler — on the indexed availability
//! timeline. The resulting schedule is validated and checked against every
//! paper guarantee that applies to the instance class; a conclusive
//! violation flips the process exit code to 2.
//!
//! On-line replays of release-sorted traces **stream** by default: the trace
//! is parsed incrementally, jobs enter the engine as virtual time reaches
//! their warmed-up submission instant, and completed jobs retire
//! immediately, so live memory is O(active jobs + overlay) — independent of
//! the trace length. Validation, the drained-window invariant and the
//! guarantee report are all derived online ([`StreamValidator`],
//! [`StreamFacts`]). What cannot stream — off-line schedulers, unsorted
//! submissions, traces small enough for the exact solver — is replayed from
//! the whole trace in memory, through the same loop; which of the two runs
//! is read off the trace, and a trace both can serve gets byte-identical
//! reports from either (tests below, across policies and overlays).

use crate::opts::{CommonOpts, OutputFormat};
use crate::{CliError, Outcome};
use resa_algos::prelude::*;
use resa_analysis::prelude::*;
use resa_core::prelude::*;
use resa_sim::prelude::*;
use resa_workloads::prelude::*;
use serde::Serialize;
use std::path::PathBuf;

/// Help text for `resa replay --help`.
pub const REPLAY_HELP: &str = "\
resa replay — replay a Standard Workload Format trace end to end

USAGE:
    resa replay <trace> [OPTIONS]

    <trace> is a Standard Workload Format file — plain or gzipped — or a
    cached archive reference `trace:<name>[@sha256:<hex>]` imported with
    `resa fetch`. On-line replays of release-sorted traces stream with
    bounded memory; off-line policies, unsorted traces and tiny traces are
    replayed from memory (the reports do not differ).

OPTIONS:
    --machines <m>        cluster size (default: the trace's MaxProcs header,
                          else the widest job)
    --policy <name>       how to schedule the trace                [default: easy]
                            on-line (event simulator): fcfs | easy | greedy
                            off-line (whole trace known): offline:lsrc |
                            offline:lsrc-lpt | offline:fcfs |
                            offline:conservative | offline:easy
    --reservations <spec> reservation overlay                      [default: none]
                            alpha:<a>[:count[:horizon[:maxdur]]]   e.g. alpha:0.5
                              (jobs wider than a*m are narrowed to a*m, as the
                              alpha-restricted model requires; the report's
                              'clamped jobs' field counts them)
                            nonincreasing[:steps[:maxinit[:maxdur]]]
                            file:<path>  (reservations of a textual instance file)
    --warmup <t>          drop jobs submitted before <t> and shift the kept
                          submissions down by <t>
    --failures <spec>     failure/maintenance drains declared up front and
                          merged into the overlay: w:d:s[,w:d:s]* — each takes
                          <w> processors during [s, s+d); the report checks the
                          drained-window invariant independently of the
                          substrate and counts breaches as violations

plus the common options: --seed --threads --format --quick --out
";

/// The availability substrate the CLI runs on: there is one.
// Kept, with `serve::run_script`'s fourth parameter, for `benchmark/layers`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    /// The indexed (chunked) timeline.
    Timeline,
}

/// The `substrate` field of every report: the CLI runs on the timeline, and
/// the field stays so reports keep their shape.
const SUBSTRATE_NAME: &str = "timeline";

/// The scheduling policy applied to the replayed trace (shared with the
/// sweep driver, whose `policies` list uses the same names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PolicyArg {
    /// An on-line simulator policy.
    Online(ReferencePolicy),
    /// An off-line scheduler run with full knowledge of the trace.
    Offline(OfflineKind),
}

/// The off-line schedulers `--policy offline:<name>` can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OfflineKind {
    Lsrc,
    LsrcLpt,
    Fcfs,
    Conservative,
    Easy,
}

impl PolicyArg {
    pub(crate) fn parse(name: &str) -> Result<Self, CliError> {
        Ok(match name {
            "fcfs" => PolicyArg::Online(ReferencePolicy::Fcfs),
            "easy" => PolicyArg::Online(ReferencePolicy::Easy),
            "greedy" => PolicyArg::Online(ReferencePolicy::Greedy),
            "offline:lsrc" => PolicyArg::Offline(OfflineKind::Lsrc),
            "offline:lsrc-lpt" => PolicyArg::Offline(OfflineKind::LsrcLpt),
            "offline:fcfs" => PolicyArg::Offline(OfflineKind::Fcfs),
            "offline:conservative" => PolicyArg::Offline(OfflineKind::Conservative),
            "offline:easy" => PolicyArg::Offline(OfflineKind::Easy),
            other => {
                return Err(CliError::Usage(format!(
                    "unknown policy '{other}' (see `resa replay --help`)"
                )))
            }
        })
    }

    /// The name in `--policy` input form, so report fields round-trip back
    /// into the CLI (and match the sweep rows' `policy` column).
    fn name(self) -> String {
        match self {
            PolicyArg::Online(ReferencePolicy::Fcfs) => "fcfs".to_string(),
            PolicyArg::Online(ReferencePolicy::Easy) => "easy".to_string(),
            PolicyArg::Online(ReferencePolicy::Greedy) => "greedy".to_string(),
            PolicyArg::Offline(k) => format!(
                "offline:{}",
                match k {
                    OfflineKind::Lsrc => "lsrc",
                    OfflineKind::LsrcLpt => "lsrc-lpt",
                    OfflineKind::Fcfs => "fcfs",
                    OfflineKind::Conservative => "conservative",
                    OfflineKind::Easy => "easy",
                }
            ),
        }
    }
}

/// A reservation overlay, parsed but not yet generated (defaults that
/// depend on the trace — horizon, cluster size — are filled in later).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ReservationArg {
    /// No reservations.
    None,
    /// Random α-restricted reservations (§4.2).
    Alpha {
        /// The α restriction.
        alpha: Alpha,
        /// How many reservations (default 4).
        count: Option<usize>,
        /// Placement horizon (default scaled to the trace).
        horizon: Option<u64>,
        /// Longest reservation (default 300).
        max_duration: Option<u64>,
    },
    /// A random non-increasing staircase (§4.1).
    NonIncreasing {
        /// Staircase steps (default 4).
        steps: Option<usize>,
        /// Peak unavailability (default m/2).
        max_initial: Option<u32>,
        /// Longest step (default scaled to the trace).
        max_duration: Option<u64>,
    },
    /// Reservations taken from a textual instance file.
    File(String),
}

/// Parse an α value written as a fraction (`1/2`) or a decimal (`0.5`).
pub(crate) fn parse_alpha(text: &str) -> Result<Alpha, CliError> {
    let bad = || CliError::Usage(format!("invalid alpha '{text}' (use e.g. 0.5 or 1/2)"));
    let (num, denom) = if let Some((n, d)) = text.split_once('/') {
        (
            n.parse::<u64>().map_err(|_| bad())?,
            d.parse::<u64>().map_err(|_| bad())?,
        )
    } else if let Some((int, frac)) = text.split_once('.') {
        let int: u64 = if int.is_empty() {
            0
        } else {
            int.parse().map_err(|_| bad())?
        };
        if frac.is_empty() || frac.len() > 9 || !frac.bytes().all(|b| b.is_ascii_digit()) {
            return Err(bad());
        }
        let scale = 10u64.pow(frac.len() as u32);
        (int * scale + frac.parse::<u64>().map_err(|_| bad())?, scale)
    } else {
        (text.parse::<u64>().map_err(|_| bad())?, 1)
    };
    Alpha::new(num, denom).ok_or_else(bad)
}

/// Parse a `--failures` spec: `w:d:s[,w:d:s]*`, each a drain of `w`
/// processors during the half-open window `[s, s+d)`.
pub(crate) fn parse_failures(spec: &str) -> Result<Vec<(u32, u64, u64)>, CliError> {
    let bad = |part: &str| {
        CliError::Usage(format!(
            "invalid failure '{part}' (expected width:duration:start, e.g. 4:60:100)"
        ))
    };
    spec.split(',')
        .map(|part| {
            let fields: Vec<&str> = part.split(':').collect();
            let [w, d, s] = fields.as_slice() else {
                return Err(bad(part));
            };
            let width: u32 = w.parse().map_err(|_| bad(part))?;
            let duration: u64 = d.parse().map_err(|_| bad(part))?;
            let start: u64 = s.parse().map_err(|_| bad(part))?;
            if width == 0 || duration == 0 {
                return Err(bad(part));
            }
            Ok((width, duration, start))
        })
        .collect()
}

impl ReservationArg {
    fn parse(spec: &str) -> Result<Self, CliError> {
        let mut parts = spec.split(':');
        let family = parts.next().unwrap_or_default();
        let rest: Vec<&str> = parts.collect();
        let num = |idx: usize, name: &str| -> Result<Option<u64>, CliError> {
            rest.get(idx)
                .map(|s| {
                    s.parse::<u64>().map_err(|_| {
                        CliError::Usage(format!("reservation spec: '{name}' must be an integer"))
                    })
                })
                .transpose()
        };
        Ok(match family {
            "none" => ReservationArg::None,
            "alpha" => {
                let alpha = parse_alpha(rest.first().ok_or_else(|| {
                    CliError::Usage("alpha spec needs a value, e.g. alpha:0.5".into())
                })?)?;
                ReservationArg::Alpha {
                    alpha,
                    count: num(1, "count")?.map(|v| v as usize),
                    horizon: num(2, "horizon")?,
                    max_duration: num(3, "maxdur")?,
                }
            }
            "nonincreasing" => ReservationArg::NonIncreasing {
                steps: num(0, "steps")?.map(|v| v as usize),
                max_initial: num(1, "maxinit")?.map(|v| v as u32),
                max_duration: num(2, "maxdur")?,
            },
            "file" => {
                if rest.is_empty() {
                    return Err(CliError::Usage(
                        "file spec needs a path, e.g. file:reservations.txt".into(),
                    ));
                }
                ReservationArg::File(rest.join(":"))
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unknown reservation family '{other}' (alpha|nonincreasing|file|none)"
                )))
            }
        })
    }
}

/// Everything `resa replay` reports; serialized verbatim in `--format json`.
#[derive(Debug, Clone, Serialize)]
struct ReplayReport {
    trace: String,
    machines: u32,
    jobs: usize,
    dropped_by_warmup: usize,
    clamped_jobs: usize,
    reservations: usize,
    /// Failure drains merged into the overlay by `--failures`.
    failures: usize,
    policy: String,
    substrate: String,
    schedule_valid: bool,
    /// The drained-window invariant, re-derived by an event sweep that is
    /// independent of the substrate (`resa_analysis::scenarios`); a breach
    /// counts as a violation like a failed validity check.
    drained_windows_respected: bool,
    decisions: u64,
    metrics: SimMetrics,
    guarantees: GuaranteeReport,
    /// Conclusive paper-guarantee violations plus validation failures — the
    /// count the process maps to exit code 2, carried in the payload so the
    /// JSON and CSV modes are as self-describing as the rendered table.
    violations: usize,
}

/// Job counts at or below this make the materialized guarantee checker
/// consult the exact solver (`RatioHarness::exact_job_limit`), which needs
/// the whole job catalog — streaming replays fall back to the materialized
/// pipeline there so the reports stay byte-identical.
const STREAM_MIN_JOBS: usize = 12;

/// One replay request — the trace and its decorations — as both pipelines
/// read it.
struct Replay {
    /// The trace as the user named it (what reports and errors show)…
    trace: String,
    /// …and the file it resolves to.
    file: PathBuf,
    machines: Option<u32>,
    reservations: ReservationArg,
    failures: Vec<(u32, u64, u64)>,
    warmup: u64,
    seed: u64,
}

impl Replay {
    fn io_error(&self, err: std::io::Error) -> CliError {
        CliError::Io {
            path: self.trace.clone(),
            message: err.to_string(),
        }
    }

    /// The generated overlay plus the `--failures` drains: up-front declared
    /// capacity losses, merged into the overlay the schedulers already
    /// respect (a drain *is* a reservation to an off-line engine). The
    /// second component counts the jobs the α-restriction narrowed.
    fn instance(
        &self,
        machines: u32,
        jobs: Vec<Job>,
        max_release: u64,
    ) -> Result<(ResaInstance, usize), CliError> {
        let (instance, clamped) = build_instance(
            machines,
            jobs,
            &self.reservations,
            max_release,
            self.seed,
            self.warmup,
        )?;
        if self.failures.is_empty() {
            return Ok((instance, clamped));
        }
        let mut overlay = instance.reservations().to_vec();
        for &(width, duration, start) in &self.failures {
            overlay.push(Reservation::new(overlay.len(), width, duration, start));
        }
        ResaInstance::new(machines, instance.jobs().to_vec(), overlay)
            .map(|merged| (merged, clamped))
            .map_err(|e| CliError::Usage(format!("failure overlay rejected: {e}")))
    }
}

/// `resa replay <trace> [options]`.
pub fn run(args: &[&str]) -> Result<Outcome, CliError> {
    if args.first() == Some(&"--help") {
        return Ok(Outcome {
            stdout: REPLAY_HELP.to_string(),
            violations: 0,
        });
    }
    let (trace_path, rest) = match args.split_first() {
        Some((p, rest)) if !p.starts_with("--") => (*p, rest),
        _ => return Err(CliError::Usage("replay expects a trace path".into())),
    };
    let mut policy = PolicyArg::Online(ReferencePolicy::Easy);
    let mut req = Replay {
        trace: trace_path.to_string(),
        file: PathBuf::new(),
        machines: None,
        reservations: ReservationArg::None,
        failures: Vec::new(),
        warmup: 0,
        seed: 0,
    };
    let opts = CommonOpts::parse(rest, &mut |flag, value| {
        let take = |name: &str| -> Result<&str, CliError> {
            value.ok_or_else(|| CliError::Usage(format!("{name} expects a value")))
        };
        match flag {
            "--machines" => {
                req.machines = Some(take("--machines")?.parse().map_err(|_| {
                    CliError::Usage("--machines expects a positive integer".into())
                })?);
                Ok(1)
            }
            "--policy" => {
                policy = PolicyArg::parse(take("--policy")?)?;
                Ok(1)
            }
            "--reservations" => {
                req.reservations = ReservationArg::parse(take("--reservations")?)?;
                Ok(1)
            }
            "--warmup" => {
                req.warmup = take("--warmup")?
                    .parse()
                    .map_err(|_| CliError::Usage("--warmup expects an integer".into()))?;
                Ok(1)
            }
            "--failures" => {
                req.failures = parse_failures(take("--failures")?)?;
                Ok(1)
            }
            other => Err(CliError::Usage(format!(
                "unknown option '{other}' (see `resa replay --help`)"
            ))),
        }
    })?;
    opts.runner(); // export the thread cap before any parallel work

    req.seed = opts.seed;
    req.file = resolve_trace(trace_path)?;
    // On-line policies stream when a bounded-memory prescan finds the trace
    // qualifies: sorted submissions, enough jobs to clear the exact-solver
    // regime.
    let report = match policy {
        PolicyArg::Online(kind) => {
            let scan = prescan(&req)?;
            if scan.sorted && scan.kept > STREAM_MIN_JOBS {
                run_streaming(&req, &scan, kind)?
            } else {
                run_materialized(&req, policy)?
            }
        }
        PolicyArg::Offline(_) => run_materialized(&req, policy)?,
    };
    render(&report, &opts)
}

/// Resolve a `trace:` cache reference to its on-disk file (re-verifying any
/// pinned digest); plain paths pass through untouched.
fn resolve_trace(trace: &str) -> Result<PathBuf, CliError> {
    if TraceRef::is_trace_ref(trace) {
        TraceStore::open_default()
            .resolve_ref(trace)
            .map_err(|e| CliError::Io {
                path: trace.to_string(),
                message: e.to_string(),
            })
    } else {
        Ok(PathBuf::from(trace))
    }
}

/// Map a streaming read error onto the error the materialized parser raises
/// for the same trace (same line-anchored message for validation failures).
fn read_error(display: &str, err: SwfReadError) -> CliError {
    match err {
        SwfReadError::Io(e) => CliError::Io {
            path: display.to_string(),
            message: e.to_string(),
        },
        SwfReadError::Swf(e) => CliError::Parse(format!("{display}: {e}")),
    }
}

/// What one bounded-memory pass over the trace establishes before replaying:
/// the cluster size (resolved exactly like the materialized path resolves
/// it), how many jobs survive the warm-up cut, the warmed-up release
/// horizon, and whether the kept submissions are release-sorted (the
/// streaming engine's source contract).
struct Prescan {
    machines: u32,
    kept: usize,
    max_release: u64,
    sorted: bool,
}

fn prescan(req: &Replay) -> Result<Prescan, CliError> {
    let (display, warmup) = (req.trace.as_str(), req.warmup);
    let mut stream = open_trace(&req.file, req.machines).map_err(|e| req.io_error(e))?;
    let mut kept = 0usize;
    let mut max_release = 0u64;
    let mut last_release = 0u64;
    let mut sorted = true;
    let mut max_width = 0u32;
    for item in stream.by_ref() {
        let job = item.map_err(|e| read_error(display, e))?;
        max_width = max_width.max(job.width);
        let release = job.release.ticks();
        if release < warmup {
            continue;
        }
        if kept > 0 && release < last_release {
            sorted = false;
        }
        last_release = release;
        kept += 1;
        max_release = max_release.max(release - warmup);
    }
    let machines = req
        .machines
        .or(stream.max_procs())
        .or((max_width > 0).then_some(max_width))
        .ok_or_else(|| CliError::Parse(format!("{display}: trace has no jobs")))?;
    Ok(Prescan {
        machines,
        kept,
        max_release,
        sorted,
    })
}

/// The whole-trace pipeline: parse everything, build a [`ResaInstance`],
/// simulate or schedule it, and check the materialized schedule. The only
/// path that can serve off-line schedulers (they need the full catalog up
/// front), unsorted submissions (the instance source sorts them) and the
/// exact-solver regime.
fn run_materialized(req: &Replay, policy: PolicyArg) -> Result<ReplayReport, CliError> {
    let (display, warmup) = (req.trace.as_str(), req.warmup);
    // 1. Ingest the trace (inflating gzip transparently).
    let text = read_trace_text(&req.file).map_err(|e| req.io_error(e))?;
    let parsed = resa_workloads::swf::parse_trace_full(&text, req.machines)
        .map_err(|e| CliError::Parse(format!("{display}: {e}")))?;
    let machines = req
        .machines
        .or(parsed.max_procs)
        .or_else(|| parsed.jobs.iter().map(|j| j.width).max())
        .ok_or_else(|| CliError::Parse(format!("{display}: trace has no jobs")))?;

    // 2. Warm-up truncation: drop the ramp-up prefix, shift time to 0.
    let total = parsed.jobs.len();
    let mut jobs: Vec<Job> = parsed
        .jobs
        .into_iter()
        .filter(|j| j.release.ticks() >= warmup)
        .collect();
    for (id, job) in jobs.iter_mut().enumerate() {
        *job = Job::released_at(
            id,
            job.width,
            job.duration.ticks(),
            job.release.ticks() - warmup,
        );
    }
    let dropped = total - jobs.len();

    // 3. Reservation overlay (file overlays live on the same warmed-up
    // clock as the truncated jobs — see `build_instance`) and failure drains.
    let max_release = jobs.iter().map(|j| j.release.ticks()).max().unwrap_or(0);
    let (instance, clamped_jobs) = req.instance(machines, jobs, max_release)?;

    // 4. Replay.
    let (schedule, decisions) = run_policy(policy, &instance);

    // 5. Validate and check the paper's guarantees.
    let schedule_valid = schedule.is_valid(&instance);
    // The drained-window invariant, re-derived by the scenario sweep —
    // independent of the substrate's own capacity bookkeeping.
    let job_windows: Vec<Window> = instance
        .jobs()
        .iter()
        .filter_map(|j| {
            schedule
                .start_of(j.id)
                .map(|s| (j.width, s, s.saturating_add(j.duration)))
        })
        .collect();
    let overlay_windows: Vec<Window> = instance
        .reservations()
        .iter()
        .map(|r| (r.width, r.start, r.end()))
        .collect();
    let drained_windows_respected = drain_invariant(machines, &job_windows, &overlay_windows);
    let metrics = SimMetrics::from_schedule(&instance, &schedule);
    let guarantees = verify_schedule(&RatioHarness::new(), &instance, &schedule);
    let violations = usize::from(guarantees.has_conclusive_violation())
        + usize::from(!schedule_valid)
        + usize::from(!drained_windows_respected);

    Ok(ReplayReport {
        trace: display.to_string(),
        machines,
        jobs: instance.n_jobs(),
        dropped_by_warmup: dropped,
        clamped_jobs,
        reservations: instance.n_reservations(),
        failures: req.failures.len(),
        policy: policy.name(),
        substrate: SUBSTRATE_NAME.to_string(),
        schedule_valid,
        drained_windows_respected,
        decisions,
        metrics,
        guarantees,
        violations,
    })
}

/// The streaming replay pipeline. The trace is parsed incrementally
/// ([`SwfSource`]), jobs enter the engine as virtual time reaches their
/// warmed-up submission instant, completed jobs retire the moment they
/// finish, and everything the report needs — metrics, validity, the
/// drained-window invariant, the guarantee bounds — folds online through
/// [`StreamValidator`] and [`StreamFacts`]. Live state is O(active jobs +
/// overlay); the emitted report is byte-identical to
/// [`run_materialized`]'s (asserted by the tests below across policies and
/// overlay families).
fn run_streaming(
    req: &Replay,
    scan: &Prescan,
    kind: ReferencePolicy,
) -> Result<ReplayReport, CliError> {
    let machines = scan.machines;
    // The overlay is generated exactly like the materialized path generates
    // it (same RNG stream, same warm-up shifting of file overlays), just
    // over an empty job list: the workload itself is never materialized.
    let (overlay_inst, _) = req.instance(machines, Vec::new(), scan.max_release)?;
    let overlay_res: Vec<Reservation> = overlay_inst.reservations().to_vec();
    let profile = overlay_inst.profile();

    // The α-restricted model narrows jobs wider than α·m, exactly as
    // `AlphaReservations::instance` does on the materialized path.
    let width_cap = match &req.reservations {
        ReservationArg::Alpha { alpha, .. } => alpha.max_job_width(machines).max(1),
        _ => u32::MAX,
    };
    let mut source = SwfSource {
        stream: open_trace(&req.file, req.machines).map_err(|e| req.io_error(e))?,
        warmup: req.warmup,
        width_cap,
        profile: &profile,
        facts: StreamFacts::new(),
        total: 0,
        kept: 0,
        clamped: 0,
        error: None,
    };
    let overlay_windows: Vec<Window> = overlay_res
        .iter()
        .map(|r| (r.width, r.start, r.end()))
        .collect();
    let mut sink = ValidatingSink {
        validator: StreamValidator::new(machines, profile.clone(), &overlay_windows),
    };
    let mut timeline = AvailabilityTimeline::from(&profile);
    let outcome = run_stream(&mut timeline, &profile, &kind, &mut source, &mut sink);
    if let Some(err) = source.error.take() {
        return Err(read_error(&req.trace, err));
    }
    let verdicts = sink.validator.finish();
    // The streaming counterpart of `Schedule::is_valid`: capacity and
    // release respected at every start, and every submitted job both
    // started and finished.
    let schedule_valid = verdicts.schedule_valid
        && verdicts.starts == outcome.submitted
        && outcome.completed == outcome.submitted;
    let guarantees = report_for_stream(
        machines,
        &overlay_res,
        &source.facts,
        outcome.metrics.makespan,
    );
    let violations = usize::from(guarantees.has_conclusive_violation())
        + usize::from(!schedule_valid)
        + usize::from(!verdicts.drains_respected);
    Ok(ReplayReport {
        trace: req.trace.clone(),
        machines,
        jobs: source.kept,
        dropped_by_warmup: source.total - source.kept,
        clamped_jobs: source.clamped,
        reservations: overlay_res.len(),
        failures: req.failures.len(),
        policy: PolicyArg::Online(kind).name(),
        substrate: SUBSTRATE_NAME.to_string(),
        schedule_valid,
        drained_windows_respected: verdicts.drains_respected,
        decisions: outcome.decisions,
        metrics: outcome.metrics,
        guarantees,
        violations,
    })
}

/// Incremental [`JobSource`] over an SWF stream: warm-up filtering and
/// clock-shifting, dense re-identification, α width clamping and the
/// guarantee-fact fold all happen per record, so no job list ever exists in
/// memory. A read error ends the stream and is surfaced by the caller after
/// the run (the prescan has already validated the records, so only I/O can
/// fail here).
struct SwfSource<'a> {
    stream: SwfStream<resa_workloads::swf::TraceReader>,
    warmup: u64,
    width_cap: u32,
    profile: &'a ResourceProfile,
    facts: StreamFacts,
    total: usize,
    kept: usize,
    clamped: usize,
    error: Option<SwfReadError>,
}

impl JobSource for SwfSource<'_> {
    fn next_job(&mut self) -> Option<Job> {
        if self.error.is_some() {
            return None;
        }
        loop {
            match self.stream.next()? {
                Err(err) => {
                    self.error = Some(err);
                    return None;
                }
                Ok(job) => {
                    self.total += 1;
                    if job.release.ticks() < self.warmup {
                        continue;
                    }
                    let width = job.width.min(self.width_cap);
                    if width < job.width {
                        self.clamped += 1;
                    }
                    let job = Job::released_at(
                        self.kept,
                        width,
                        job.duration.ticks(),
                        job.release.ticks() - self.warmup,
                    );
                    self.kept += 1;
                    self.facts.observe(&job, self.profile);
                    return Some(job);
                }
            }
        }
    }
}

/// [`RecordSink`] that feeds every placement to the online validator and
/// lets the retired records go (the engine already counts them).
struct ValidatingSink {
    validator: StreamValidator,
}

impl RecordSink for ValidatingSink {
    fn record(&mut self, _rec: JobRecord) {}

    fn on_start(&mut self, job: &Job, start: Time) {
        self.validator.observe_start(job, start);
    }
}

/// Run a policy on an instance through the default (timeline) substrate,
/// returning the schedule and the decision-point count (0 for off-line
/// schedulers). This is the sweep driver's per-cell engine.
pub(crate) fn run_policy(policy: PolicyArg, instance: &ResaInstance) -> (Schedule, u64) {
    run_policy_on(policy, instance, instance.timeline())
}

/// [`run_policy`] on `substrate`, freshly built from the instance's
/// reservations.
fn run_policy_on<C: CapacityQuery>(
    policy: PolicyArg,
    instance: &ResaInstance,
    substrate: C,
) -> (Schedule, u64) {
    match policy {
        PolicyArg::Online(kind) => {
            let result = Simulator::new(instance.clone()).run_on(substrate, &kind);
            (result.schedule, result.decisions)
        }
        PolicyArg::Offline(kind) => (offline_schedule(kind, instance, substrate), 0),
    }
}

/// Apply the reservation overlay and build the final instance. The second
/// component counts the jobs whose width the α-restriction narrowed to
/// `α·m` (the §4.2 model requires `q_i ≤ αm`, so an α overlay modifies the
/// workload — the count makes that visible in every report).
///
/// `warmup` is the truncation horizon already applied to the jobs: file
/// overlays carry absolute trace times and are shifted onto the same
/// warmed-up clock, window for window — a reservation ending at or before
/// the warm-up boundary is dropped (like a job released strictly before
/// it), one straddling the boundary keeps its remaining window, and one
/// starting exactly at the boundary starts at the new time 0 (like a job
/// released exactly at the boundary). Generated overlays (alpha,
/// nonincreasing) are already expressed on the warmed-up clock.
pub(crate) fn build_instance(
    machines: u32,
    jobs: Vec<Job>,
    reservations: &ReservationArg,
    max_release: u64,
    seed: u64,
    warmup: u64,
) -> Result<(ResaInstance, usize), CliError> {
    let model = |e: ModelError| CliError::Parse(format!("instance construction failed: {e}"));
    match reservations {
        ReservationArg::None => ResaInstance::new(machines, jobs, Vec::new())
            .map(|i| (i, 0))
            .map_err(model),
        ReservationArg::Alpha {
            alpha,
            count,
            horizon,
            max_duration,
        } => {
            let generator = AlphaReservations {
                machines,
                alpha: *alpha,
                count: count.unwrap_or(4),
                horizon: horizon.unwrap_or_else(|| (2 * max_release).max(2000)),
                max_duration: max_duration.unwrap_or(300),
            };
            // `instance` clamps job widths to α·m, as the α-restricted model
            // of §4.2 requires; count the jobs it narrows.
            let width_cap = alpha.max_job_width(machines).max(1);
            let clamped = jobs.iter().filter(|j| j.width > width_cap).count();
            Ok((generator.instance(jobs, seed), clamped))
        }
        ReservationArg::NonIncreasing {
            steps,
            max_initial,
            max_duration,
        } => {
            let generator = NonIncreasingReservations {
                machines,
                steps: steps.unwrap_or(4),
                max_initial_unavailable: max_initial.unwrap_or(machines / 2),
                max_duration: max_duration.unwrap_or_else(|| (max_release / 2).max(100)),
            };
            Ok((generator.instance(jobs, seed), 0))
        }
        ReservationArg::File(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| CliError::Io {
                path: path.clone(),
                message: e.to_string(),
            })?;
            let donor = resa_core::io::parse_instance(&text)
                .map_err(|e| CliError::Parse(format!("{path}: {e}")))?;
            // Shift the donor windows onto the warmed-up clock, clipping the
            // part consumed by the warm-up (half-open windows, so a window
            // ending exactly at the boundary is gone and one starting
            // exactly there is kept whole at the new time 0 — consistent
            // with the job truncation above).
            let shifted: Vec<Reservation> = donor
                .reservations()
                .iter()
                .filter(|r| r.end().ticks() > warmup)
                .enumerate()
                .map(|(id, r)| {
                    let start = r.start.ticks().max(warmup) - warmup;
                    let end = r.end().ticks() - warmup;
                    Reservation::new(id, r.width, end - start, start)
                })
                .collect();
            ResaInstance::new(machines, jobs, shifted)
                .map(|i| (i, 0))
                .map_err(model)
        }
    }
}

/// Run one off-line scheduler on a concrete availability substrate.
fn offline_schedule<C: CapacityQuery>(
    kind: OfflineKind,
    instance: &ResaInstance,
    substrate: C,
) -> Schedule {
    match kind {
        OfflineKind::Lsrc => Lsrc::new().schedule_with(instance, substrate),
        OfflineKind::LsrcLpt => Lsrc::with_order(ListOrder::Lpt).schedule_with(instance, substrate),
        OfflineKind::Fcfs => Fcfs::new().schedule_with(instance, substrate),
        OfflineKind::Conservative => {
            ConservativeBackfilling::new().schedule_with(instance, substrate)
        }
        OfflineKind::Easy => EasyBackfilling::new().schedule_with(instance, substrate),
    }
}

/// Render a replay report in the requested format. The violation count is
/// part of the report itself, so every format — table, JSON, CSV — carries
/// it and the returned [`Outcome`] (hence exit code 2) is identical across
/// formats.
fn render(report: &ReplayReport, opts: &CommonOpts) -> Result<Outcome, CliError> {
    let violations = report.violations;
    let table = report_table(report);
    let rendered = match opts.format {
        OutputFormat::Json => format!("{}\n", to_json(report)),
        OutputFormat::Csv => table.to_csv(),
        OutputFormat::Table => {
            let mut out = table.to_text();
            out.push('\n');
            for check in &report.guarantees.checks {
                out.push_str(&format!(
                    "{} [{}]: measured {} vs bound {} -> {}\n",
                    check.bound_name,
                    if check.conclusive {
                        "conclusive"
                    } else {
                        "informational"
                    },
                    fmt_f64(check.measured_ratio),
                    fmt_f64(check.bound),
                    if check.satisfied { "ok" } else { "VIOLATED" }
                ));
            }
            out.push_str(&format!(
                "paper-guarantee violations: {violations} {}\n",
                if violations == 0 {
                    "(all bounds held)"
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

/// The replay summary as a two-column table.
fn report_table(report: &ReplayReport) -> Table {
    let mut t = Table::new(
        format!(
            "replay {} — {} on {} ({} machines)",
            report.trace, report.policy, report.substrate, report.machines
        ),
        &["metric", "value"],
    );
    let mut push = |k: &str, v: String| t.push_row(vec![k.to_string(), v]);
    push("jobs", report.jobs.to_string());
    push("dropped by warm-up", report.dropped_by_warmup.to_string());
    push("clamped jobs (alpha)", report.clamped_jobs.to_string());
    push("reservations", report.reservations.to_string());
    push("failure drains", report.failures.to_string());
    push("schedule valid", report.schedule_valid.to_string());
    push(
        "drained windows respected",
        report.drained_windows_respected.to_string(),
    );
    push("violations", report.violations.to_string());
    push("decision points", report.decisions.to_string());
    push("makespan", report.metrics.makespan.ticks().to_string());
    push("mean wait", fmt_f64(report.metrics.mean_wait));
    push("max wait", report.metrics.max_wait.to_string());
    push("mean flow", fmt_f64(report.metrics.mean_flow));
    push(
        "mean bounded slowdown",
        fmt_f64(report.metrics.mean_bounded_slowdown),
    );
    push("utilization", fmt_f64(report.metrics.utilization));
    push("instance class", format!("{:?}", report.guarantees.class));
    push(
        "reference makespan",
        report.guarantees.reference.to_string(),
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_parsing_accepts_fractions_and_decimals() {
        assert_eq!(parse_alpha("1/2").unwrap(), Alpha::new(1, 2).unwrap());
        assert_eq!(parse_alpha("0.5").unwrap(), Alpha::new(5, 10).unwrap());
        assert_eq!(parse_alpha("1").unwrap(), Alpha::ONE);
        assert!(parse_alpha("x").is_err());
        assert!(parse_alpha("3/2").is_err());
        assert!(parse_alpha("0.").is_err());
    }

    #[test]
    fn reservation_spec_parsing() {
        assert_eq!(ReservationArg::parse("none").unwrap(), ReservationArg::None);
        assert_eq!(
            ReservationArg::parse("alpha:0.5:2:100:10").unwrap(),
            ReservationArg::Alpha {
                alpha: Alpha::new(5, 10).unwrap(),
                count: Some(2),
                horizon: Some(100),
                max_duration: Some(10),
            }
        );
        assert_eq!(
            ReservationArg::parse("nonincreasing").unwrap(),
            ReservationArg::NonIncreasing {
                steps: None,
                max_initial: None,
                max_duration: None,
            }
        );
        assert_eq!(
            ReservationArg::parse("file:a/b.txt").unwrap(),
            ReservationArg::File("a/b.txt".into())
        );
        assert!(ReservationArg::parse("alpha").is_err());
        assert!(ReservationArg::parse("martian").is_err());
    }

    /// A conclusive guarantee violation must flip the outcome (and hence
    /// exit code 2) in *every* output format, not just the rendered table.
    #[test]
    fn violations_propagate_in_every_format() {
        // A feasible but terrible schedule on a reservation-free instance:
        // the Graham bound check is conclusive and violated.
        let inst = ResaInstanceBuilder::new(4)
            .jobs(4, 1, 1u64)
            .build()
            .unwrap();
        let mut schedule = Schedule::new();
        for (i, j) in inst.jobs().iter().enumerate() {
            schedule.place(j.id, Time(100 * (i as u64 + 1)));
        }
        let guarantees = verify_schedule(&RatioHarness::new(), &inst, &schedule);
        assert!(guarantees.has_conclusive_violation());
        let violations = usize::from(guarantees.has_conclusive_violation());
        let report = ReplayReport {
            trace: "synthetic".into(),
            machines: 4,
            jobs: 4,
            dropped_by_warmup: 0,
            clamped_jobs: 0,
            reservations: 0,
            failures: 0,
            policy: "fcfs".into(),
            substrate: "timeline".into(),
            schedule_valid: true,
            drained_windows_respected: true,
            decisions: 0,
            metrics: SimMetrics::from_schedule(&inst, &schedule),
            guarantees,
            violations,
        };
        for format in [OutputFormat::Table, OutputFormat::Json, OutputFormat::Csv] {
            let opts = CommonOpts {
                format,
                ..CommonOpts::default()
            };
            let outcome = render(&report, &opts).unwrap();
            assert_eq!(outcome.violations, 1, "{format:?} swallowed the violation");
            assert!(
                outcome.stdout.contains("violations"),
                "{format:?} payload does not carry the count"
            );
        }
    }

    /// Warm-up truncation treats jobs and file-overlay reservations
    /// consistently at the boundary: both live on half-open windows, both
    /// are shifted onto the warmed-up clock.
    #[test]
    fn warmup_shifts_file_reservations_onto_the_truncated_clock() {
        let dir = std::env::temp_dir().join("resa-replay-warmup-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("donor.txt");
        // Donor reservations: one fully before the warm-up boundary (10),
        // one ending exactly at it, one straddling it, one starting exactly
        // at it, one entirely after it.
        let donor = ResaInstanceBuilder::new(8)
            .reservation(1, 5u64, 2u64) // [2, 7)   — gone
            .reservation(2, 4u64, 6u64) // [6, 10)  — gone (half-open)
            .reservation(3, 6u64, 8u64) // [8, 14)  — clipped to [0, 4)
            .reservation(4, 3u64, 10u64) // [10, 13) — shifted to [0, 3)
            .reservation(5, 2u64, 20u64) // [20, 22) — shifted to [10, 12)
            .build()
            .unwrap();
        std::fs::write(&path, resa_core::io::write_instance(&donor)).unwrap();

        let jobs = vec![Job::released_at(0usize, 1, 2u64, 12u64)];
        let arg = ReservationArg::File(path.display().to_string());
        let (inst, _) = build_instance(8, jobs, &arg, 2, 0, 10).unwrap();
        let windows: Vec<(u64, u64, u32)> = inst
            .reservations()
            .iter()
            .map(|r| (r.start.ticks(), r.end().ticks(), r.width))
            .collect();
        assert_eq!(windows, vec![(0, 4, 3), (0, 3, 4), (10, 12, 5)]);
        // Without warm-up the donor windows pass through untouched.
        let jobs = vec![Job::released_at(0usize, 1, 2u64, 12u64)];
        let (inst, _) = build_instance(8, jobs, &arg, 2, 0, 0).unwrap();
        assert_eq!(inst.n_reservations(), 5);
        std::fs::remove_file(&path).ok();
    }

    /// A job submitted exactly at the warm-up boundary is kept (shifted to
    /// release 0), one submitted just before it is dropped.
    #[test]
    fn warmup_boundary_job_is_kept() {
        let dir = std::env::temp_dir().join("resa-replay-warmup-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("boundary.swf");
        // Fields: job_id submit_time run_time processors (see resa-workloads).
        std::fs::write(&path, "; MaxProcs: 4\n1 9 5 2\n2 10 5 2\n3 11 5 2\n").unwrap();
        let out = crate::run(&[
            "replay",
            path.to_str().unwrap(),
            "--warmup",
            "10",
            "--format",
            "json",
        ])
        .unwrap();
        assert!(
            out.stdout.contains("\"dropped_by_warmup\": 1"),
            "{}",
            out.stdout
        );
        assert!(out.stdout.contains("\"jobs\": 2"), "{}", out.stdout);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failure_spec_parsing() {
        assert_eq!(parse_failures("4:60:100").unwrap(), vec![(4, 60, 100)]);
        assert_eq!(
            parse_failures("4:60:100,2:5:0").unwrap(),
            vec![(4, 60, 100), (2, 5, 0)]
        );
        for bad in ["", "4:60", "4:60:100:7", "x:1:2", "0:5:0", "2:0:3"] {
            assert!(parse_failures(bad).is_err(), "'{bad}' should be rejected");
        }
    }

    /// `--failures` merges drains into the overlay: the scheduler routes
    /// around them, the report counts them, and the independently-derived
    /// drained-window invariant holds (exit code stays 0).
    #[test]
    fn failures_overlay_is_respected_end_to_end() {
        let dir = std::env::temp_dir().join("resa-replay-failures-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("failures.swf");
        std::fs::write(&path, "; MaxProcs: 4\n1 0 10 4\n2 0 10 4\n").unwrap();
        let out = crate::run(&[
            "replay",
            path.to_str().unwrap(),
            "--failures",
            "4:20:10,2:5:40",
            "--format",
            "json",
        ])
        .unwrap();
        assert_eq!(out.violations, 0, "{}", out.stdout);
        assert!(out.stdout.contains("\"failures\": 2"), "{}", out.stdout);
        assert!(
            out.stdout.contains("\"drained_windows_respected\": true"),
            "{}",
            out.stdout
        );
        std::fs::remove_file(&path).ok();
    }

    /// Write a release-sorted synthetic trace of `n` jobs with mixed widths
    /// and durations (wide enough to exceed the exact-solver fallback).
    fn sorted_trace(n: usize) -> String {
        let mut text = String::from("; MaxProcs: 8\n");
        for i in 0..n {
            text.push_str(&format!(
                "{} {} {} {}\n",
                i + 1,
                3 * i,
                3 + (i * 7) % 11,
                1 + (i % 5)
            ));
        }
        text
    }

    fn json() -> CommonOpts {
        CommonOpts {
            format: OutputFormat::Json,
            ..CommonOpts::default()
        }
    }

    fn request(path: &str, decoration: (&str, &str, u64)) -> Replay {
        let (reservations, failures, warmup) = decoration;
        Replay {
            trace: path.to_string(),
            file: PathBuf::from(path),
            machines: None,
            reservations: ReservationArg::parse(reservations).unwrap(),
            failures: parse_failures(failures).unwrap_or_default(),
            warmup,
            seed: json().seed,
        }
    }

    /// Both pipelines called directly on one request, rendered as JSON:
    /// `(streamed, whole-trace)`.
    fn both_pipelines(req: &Replay, kind: ReferencePolicy) -> (Outcome, Outcome) {
        let scan = prescan(req).unwrap();
        assert!(scan.sorted && scan.kept > STREAM_MIN_JOBS);
        let streamed = run_streaming(req, &scan, kind).unwrap();
        let whole = run_materialized(req, PolicyArg::Online(kind)).unwrap();
        (
            render(&streamed, &json()).unwrap(),
            render(&whole, &json()).unwrap(),
        )
    }

    const ONLINE: [(&str, ReferencePolicy); 3] = [
        ("fcfs", ReferencePolicy::Fcfs),
        ("easy", ReferencePolicy::Easy),
        ("greedy", ReferencePolicy::Greedy),
    ];

    /// The streaming pipeline emits a report byte-identical to the
    /// whole-trace pipeline — across every on-line policy, and with warm-up
    /// truncation, α clamping and failure drains layered on. The CLI, which
    /// picks the pipeline itself, prints the same bytes. (The loop itself is
    /// pinned on a `ResourceProfile` too by `resa_sim::stream::tests`.)
    #[test]
    fn streaming_report_is_byte_identical_to_materialized() {
        let dir = std::env::temp_dir().join("resa-replay-streaming-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream-vs-mat.swf");
        std::fs::write(&path, sorted_trace(40)).unwrap();
        let path = path.to_str().unwrap().to_string();
        // (reservations, failures, warm-up)
        let decorations = [
            ("none", "", 0u64),
            ("alpha:0.5", "", 30),
            ("nonincreasing:3", "2:9:25", 0),
        ];
        for (policy, kind) in ONLINE {
            for decoration in decorations {
                let (streamed, materialized) = both_pipelines(&request(&path, decoration), kind);
                assert_eq!(
                    streamed.stdout, materialized.stdout,
                    "streaming diverged for {policy} {decoration:?}"
                );
                assert_eq!(streamed.violations, materialized.violations);
                let (reservations, failures, warmup) = decoration;
                let warmup = warmup.to_string();
                let mut args = vec![
                    "replay",
                    &path,
                    "--policy",
                    policy,
                    "--format",
                    "json",
                    "--reservations",
                    reservations,
                    "--warmup",
                    &warmup,
                ];
                if !failures.is_empty() {
                    args.extend(["--failures", failures]);
                }
                assert_eq!(crate::run(&args).unwrap().stdout, streamed.stdout);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Gzipped traces replay through both pipelines, with identical output.
    #[test]
    fn gzipped_traces_replay_in_both_pipelines() {
        let dir = std::env::temp_dir().join("resa-replay-streaming-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("compressed.swf.gz");
        resa_workloads::gzip::write_gz(&path, sorted_trace(30).as_bytes()).unwrap();
        let path = path.to_str().unwrap().to_string();
        let req = request(&path, ("none", "", 0));
        let (streamed, materialized) = both_pipelines(&req, ReferencePolicy::Easy);
        assert_eq!(streamed.stdout, materialized.stdout);
        assert!(
            streamed.stdout.contains("\"jobs\": 30"),
            "{}",
            streamed.stdout
        );
        std::fs::remove_file(&path).ok();
    }

    /// `cat a.swf.gz b.swf.gz` is a gzip file of two members and replays
    /// like `cat a.swf b.swf`, in both pipelines — not, as it once did,
    /// like `a.swf` alone.
    #[test]
    fn concatenated_gzip_members_replay_like_the_concatenated_trace() {
        let dir = std::env::temp_dir().join("resa-replay-streaming-test");
        std::fs::create_dir_all(&dir).unwrap();
        let whole = sorted_trace(40);
        let (a, b) = whole.split_at(whole.match_indices('\n').nth(20).unwrap().0 + 1);
        let gz = [a, b].map(|part| resa_workloads::gzip::compress_stored(part.as_bytes()));
        let (gz_path, plain_path) = (dir.join("cat.swf.gz"), dir.join("cat.swf"));
        std::fs::write(&gz_path, gz.concat()).unwrap();
        std::fs::write(&plain_path, &whole).unwrap();
        let reports = [&gz_path, &plain_path].map(|file| {
            let mut req = request("cat.swf", ("alpha:0.5", "", 0));
            req.file = file.clone();
            both_pipelines(&req, ReferencePolicy::Easy)
        });
        let (streamed, materialized) = &reports[0];
        assert_eq!(streamed.stdout, materialized.stdout);
        assert_eq!(streamed.stdout, reports[1].0.stdout);
        assert!(
            streamed.stdout.contains("\"jobs\": 40"),
            "{}",
            streamed.stdout
        );
        std::fs::remove_file(&gz_path).ok();
        std::fs::remove_file(&plain_path).ok();
    }

    /// Unsorted submissions break the streaming source contract: the
    /// prescan sees it and the replay runs from the whole trace.
    #[test]
    fn unsorted_traces_fall_back_to_the_materialized_pipeline() {
        let dir = std::env::temp_dir().join("resa-replay-streaming-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unsorted.swf");
        let mut text = sorted_trace(20);
        text.push_str("21 5 4 2\n"); // release jumps backwards
        std::fs::write(&path, text).unwrap();
        let path = path.to_str().unwrap().to_string();
        let req = request(&path, ("none", "", 0));
        assert!(!prescan(&req).unwrap().sorted);
        let implicit = crate::run(&["replay", &path, "--format", "json"]).unwrap();
        let whole = run_materialized(&req, PolicyArg::Online(ReferencePolicy::Easy)).unwrap();
        assert_eq!(implicit.stdout, render(&whole, &json()).unwrap().stdout);
        assert!(
            implicit.stdout.contains("\"jobs\": 21"),
            "{}",
            implicit.stdout
        );
        std::fs::remove_file(&path).ok();
    }

    /// `--materialize` is gone — the pipeline is read off the trace — and so
    /// is `--substrate`: the CLI runs on the timeline.
    #[test]
    fn materialize_is_an_unknown_option() {
        for args in [
            &["replay", "x.swf", "--materialize"][..],
            &["replay", "x.swf", "--substrate", "profile"][..],
        ] {
            match crate::run(args) {
                Err(CliError::Usage(msg)) => assert!(msg.contains("unknown option"), "{msg}"),
                other => panic!("expected a usage error, got {other:?}"),
            }
        }
    }

    /// The instance the whole-trace pipeline builds for `req` (no warm-up).
    fn whole_instance(req: &Replay) -> ResaInstance {
        let text = read_trace_text(&req.file).unwrap();
        let parsed = resa_workloads::swf::parse_trace_full(&text, req.machines).unwrap();
        let machines = parsed.max_procs.expect("a MaxProcs header");
        let max_release = parsed.jobs.iter().map(|j| j.release.ticks()).max();
        let (instance, _) = req
            .instance(machines, parsed.jobs, max_release.unwrap_or(0))
            .unwrap();
        instance
    }

    /// Every `--policy` run on the naive `ResourceProfile` places every job
    /// where the CLI's timeline run places it, in as many decisions.
    fn assert_profile_agrees(instance: &ResaInstance) {
        for name in POLICY_NAMES {
            let policy = PolicyArg::parse(name).unwrap();
            assert_eq!(
                run_policy_on(policy, instance, instance.profile()),
                run_policy(policy, instance),
                "replay --policy {name} diverged between substrates"
            );
        }
    }

    /// On-line policies (the one loop) and off-line schedulers alike answer
    /// identically on the chunked timeline and the breakpoint-list
    /// profile, on the checked-in fixture under an α overlay.
    #[test]
    fn replay_is_stable_across_substrates() {
        let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fixture.swf");
        assert_profile_agrees(&whole_instance(&request(fixture, ("alpha:0.5", "", 0))));
    }

    /// A well-formed trace whose durations leave the time axis is refused
    /// where its records are parsed, so every replay path — streaming,
    /// whole-trace, off-line — answers the same line-numbered parse error
    /// (exit 1) instead of wrapping a policy's `now + max_duration` and
    /// panicking; the last trace inside the horizon still replays clean, and
    /// identically on the profile.
    #[test]
    fn traces_past_the_time_axis_are_a_parse_error_on_every_path() {
        let dir = std::env::temp_dir().join("resa-replay-horizon-test");
        std::fs::create_dir_all(&dir).unwrap();
        let long = i64::MAX as u64 - 7;
        let hostile = dir.join("hostile.swf");
        let text = format!(
            "{}21 70 {long} 2\n22 75 {long} 2\n23 80 {long} 8\n",
            sorted_trace(20)
        );
        std::fs::write(&hostile, text).unwrap();
        let hostile = hostile.to_str().unwrap().to_string();
        // Short variant (≤ STREAM_MIN_JOBS): whole-trace for on-line too.
        let short = dir.join("short.swf");
        std::fs::write(&short, format!("; MaxProcs: 8\n1 0 5 2\n2 70 {long} 2\n")).unwrap();
        let short = short.to_str().unwrap().to_string();
        for (trace, line) in [(&hostile, "line 22: "), (&short, "line 3: ")] {
            for policy in ["fcfs", "easy", "greedy", "offline:lsrc", "offline:easy"] {
                match crate::run(&["replay", trace, "--policy", policy]) {
                    Err(CliError::Parse(msg)) => assert!(
                        msg.starts_with(&format!("{trace}: {line}")) && msg.contains("time axis"),
                        "{policy}: {msg}"
                    ),
                    other => panic!("{policy}: expected a parse error, got {other:?}"),
                }
            }
        }
        // Just inside: the 20 ordinary jobs plus one that uses up the axis
        // exactly (latest submit 70 + total run time = i64::MAX).
        let ordinary: u64 = (0..20).map(|i| 3 + (i * 7) % 11).sum();
        let inside = dir.join("inside.swf");
        let last = i64::MAX as u64 - 70 - ordinary;
        std::fs::write(&inside, format!("{}21 70 {last} 2\n", sorted_trace(20))).unwrap();
        let inside = inside.to_str().unwrap().to_string();
        for policy in ["fcfs", "easy", "greedy", "offline:lsrc"] {
            let out =
                crate::run(&["replay", &inside, "--policy", policy, "--format", "json"]).unwrap();
            assert_eq!(out.violations, 0, "{policy}: {}", out.stdout);
            assert!(out.stdout.contains("\"jobs\": 21"), "{}", out.stdout);
        }
        assert_profile_agrees(&whole_instance(&request(&inside, ("none", "", 0))));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `trace:` references resolve through the checksum-pinned cache; a
    /// missing entry degrades with the exact fetch command to run.
    #[test]
    fn trace_refs_resolve_through_the_cache() {
        let _env = crate::trace_cache_env_lock();
        let cache =
            std::env::temp_dir().join(format!("resa-replay-trace-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&cache).ok();
        let src = cache.with_extension("src.swf");
        std::fs::write(&src, sorted_trace(20)).unwrap();
        let store = TraceStore::at(cache.clone());
        let digest = store.import("synthetic", &src, None).unwrap();
        std::env::set_var("RESA_TRACE_CACHE", &cache);
        let pinned = format!("trace:synthetic@sha256:{digest}");
        let out = crate::run(&["replay", &pinned, "--format", "json"]).unwrap();
        // The report names the reference the user typed, not the cache path.
        assert!(
            out.stdout.contains(&format!("\"trace\": \"{pinned}\"")),
            "{}",
            out.stdout
        );
        assert!(out.stdout.contains("\"jobs\": 20"), "{}", out.stdout);
        let err = crate::run(&["replay", "trace:never-fetched"]).unwrap_err();
        match err {
            CliError::Io { path, message } => {
                assert_eq!(path, "trace:never-fetched");
                assert!(message.contains("resa fetch never-fetched"), "{message}");
            }
            other => panic!("expected an I/O error, got {other:?}"),
        }
        std::env::remove_var("RESA_TRACE_CACHE");
        std::fs::remove_dir_all(&cache).ok();
        std::fs::remove_file(&src).ok();
    }

    const POLICY_NAMES: [&str; 8] = [
        "fcfs",
        "easy",
        "greedy",
        "offline:lsrc",
        "offline:lsrc-lpt",
        "offline:fcfs",
        "offline:conservative",
        "offline:easy",
    ];

    #[test]
    fn policy_parsing_roundtrips() {
        for name in POLICY_NAMES {
            // Every policy name round-trips: parse(name).name() == name, so
            // report fields can be fed back into --policy (and match the
            // sweep rows' policy column).
            let p = PolicyArg::parse(name).unwrap();
            assert_eq!(p.name(), name);
        }
        assert!(PolicyArg::parse("sjf").is_err());
    }
}
