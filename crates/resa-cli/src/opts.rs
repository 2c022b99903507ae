//! The option surface shared by every `resa` subcommand.

use crate::{CliError, Outcome};
use resa_analysis::prelude::{ExperimentRunner, Table};
use resa_bench::experiments::ExperimentOptions;

/// How a subcommand renders its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Aligned plain-text table plus reading notes (the default).
    #[default]
    Table,
    /// The machine-readable JSON payload, byte-stable for a given seed.
    Json,
    /// The table as CSV (header row first).
    Csv,
}

/// Handler for subcommand-specific flags: receives the flag and a peek at
/// the next argument, returns how many extra arguments it consumed (0 or 1).
pub type ExtraFlagHandler<'a> = dyn FnMut(&str, Option<&str>) -> Result<usize, CliError> + 'a;

/// Options accepted by every subcommand.
#[derive(Debug, Clone, Default)]
pub struct CommonOpts {
    /// Base seed offset for the randomized sweeps (`--seed`).
    pub seed: u64,
    /// Explicit worker-thread count (`--threads`; 1 = sequential).
    pub threads: Option<usize>,
    /// Output format (`--format json|csv|table`).
    pub format: OutputFormat,
    /// Shrink the experiment to a few cells (`--quick`).
    pub quick: bool,
    /// Also write the rendered output to this path (`--out`).
    pub out: Option<String>,
}

impl CommonOpts {
    /// Parse the common flags out of `args`. Flags the common set does not
    /// know are handed to `extra` together with a peek at the following
    /// argument; `extra` returns how many extra arguments it consumed (0 or
    /// 1) or an error for genuinely unknown flags.
    pub fn parse(args: &[&str], extra: &mut ExtraFlagHandler<'_>) -> Result<CommonOpts, CliError> {
        let mut opts = CommonOpts::default();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i];
            let value = args.get(i + 1).copied();
            let take = |name: &str| -> Result<&str, CliError> {
                value.ok_or_else(|| CliError::Usage(format!("{name} expects a value")))
            };
            match flag {
                "--seed" => {
                    opts.seed = take("--seed")?
                        .parse()
                        .map_err(|_| CliError::Usage("--seed expects an integer".into()))?;
                    i += 2;
                }
                "--threads" => {
                    let n: usize = take("--threads")?
                        .parse()
                        .map_err(|_| CliError::Usage("--threads expects an integer".into()))?;
                    if n == 0 {
                        return Err(CliError::Usage("--threads must be at least 1".into()));
                    }
                    opts.threads = Some(n);
                    i += 2;
                }
                "--format" => {
                    opts.format = match take("--format")? {
                        "table" => OutputFormat::Table,
                        "json" => OutputFormat::Json,
                        "csv" => OutputFormat::Csv,
                        other => {
                            return Err(CliError::Usage(format!(
                                "unknown format '{other}' (expected table|json|csv)"
                            )))
                        }
                    };
                    i += 2;
                }
                "--quick" => {
                    opts.quick = true;
                    i += 1;
                }
                "--out" => {
                    opts.out = Some(take("--out")?.to_string());
                    i += 2;
                }
                other => {
                    let consumed = extra(other, value)?;
                    i += 1 + consumed;
                }
            }
        }
        Ok(opts)
    }

    /// Materialize the thread choice: export `RAYON_NUM_THREADS` for the
    /// vendored rayon's internal fan-outs and return the matching
    /// [`ExperimentRunner`] for the sweeps that take one explicitly.
    ///
    /// An explicit `--threads` is **process-global and sticky**: the
    /// environment variable stays set for the rest of the process, so later
    /// in-process invocations without `--threads` inherit the cap (results
    /// are unaffected — every pipeline is runner-deterministic — only the
    /// degree of parallelism is). A value already present in the
    /// environment is respected when `--threads` is not given. The `resa`
    /// binary runs one invocation per process, where this is invisible;
    /// library callers who need isolation should pass `--threads`
    /// explicitly on every invocation.
    pub fn runner(&self) -> ExperimentRunner {
        match self.threads {
            Some(1) => {
                std::env::set_var("RAYON_NUM_THREADS", "1");
                ExperimentRunner::sequential()
            }
            Some(n) => {
                std::env::set_var("RAYON_NUM_THREADS", n.to_string());
                ExperimentRunner::parallel()
            }
            None => ExperimentRunner::parallel(),
        }
    }

    /// The equivalent [`ExperimentOptions`] for the resa-bench pipelines.
    pub fn experiment_options(&self) -> ExperimentOptions {
        ExperimentOptions {
            seed: self.seed,
            quick: self.quick,
            runner: self.runner(),
        }
    }

    /// Render a result in `--format` — `json` as is, `table` as CSV, or
    /// `table` as text followed by `notes` — and [`finish`](Self::finish) it.
    pub(crate) fn emit(
        &self,
        json: &str,
        table: &Table,
        notes: &str,
        violations: usize,
    ) -> Result<Outcome, CliError> {
        let rendered = match self.format {
            OutputFormat::Json => format!("{json}\n"),
            OutputFormat::Csv => table.to_csv(),
            OutputFormat::Table => table.to_text() + notes,
        };
        self.finish(rendered, violations)
    }

    /// The outcome of a command that printed `rendered`: written to `--out`
    /// too when set, with a `[saved <path>]` line appended to stdout.
    pub(crate) fn finish(&self, rendered: String, violations: usize) -> Result<Outcome, CliError> {
        let mut stdout = rendered;
        if let Some(path) = &self.out {
            std::fs::write(path, &stdout).map_err(|e| CliError::io(path, e))?;
            stdout.push_str(&format!("[saved {path}]\n"));
        }
        Ok(Outcome { stdout, violations })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_extra(flag: &str, _next: Option<&str>) -> Result<usize, CliError> {
        Err(CliError::Usage(format!("unknown option '{flag}'")))
    }

    #[test]
    fn parses_all_common_flags() {
        let opts = CommonOpts::parse(
            &[
                "--seed",
                "7",
                "--threads",
                "2",
                "--format",
                "json",
                "--quick",
                "--out",
                "x.json",
            ],
            &mut no_extra,
        )
        .unwrap();
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.threads, Some(2));
        assert_eq!(opts.format, OutputFormat::Json);
        assert!(opts.quick);
        assert_eq!(opts.out.as_deref(), Some("x.json"));
    }

    #[test]
    fn rejects_bad_values() {
        assert!(CommonOpts::parse(&["--seed"], &mut no_extra).is_err());
        assert!(CommonOpts::parse(&["--seed", "x"], &mut no_extra).is_err());
        assert!(CommonOpts::parse(&["--threads", "0"], &mut no_extra).is_err());
        assert!(CommonOpts::parse(&["--format", "xml"], &mut no_extra).is_err());
        assert!(CommonOpts::parse(&["--wat"], &mut no_extra).is_err());
    }

    #[test]
    fn extra_flags_are_routed() {
        let mut seen = Vec::new();
        let opts = CommonOpts::parse(&["--policy", "easy", "--quick"], &mut |flag, next| {
            seen.push((flag.to_string(), next.map(str::to_string)));
            Ok(1)
        })
        .unwrap();
        assert!(opts.quick);
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].0, "--policy");
        assert_eq!(seen[0].1.as_deref(), Some("easy"));
    }
}
