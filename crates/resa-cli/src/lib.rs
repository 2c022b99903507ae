//! # resa-cli
//!
//! The unified `resa` command line of the reproduction of *"Analysis of
//! Scheduling Algorithms with Reservations"* (IPDPS 2007): one binary that
//! reproduces every figure and table of the paper, replays Standard Workload
//! Format traces through the on-line simulator, and drives declarative
//! experiment sweeps across the parallel runner.
//!
//! ```text
//! resa figure <1|2|3|4>         reproduce one of the paper's figures
//! resa table <fcfs|average|online|priority>
//!                               reproduce one of the extension tables (E6-E9)
//! resa graham                   the Theorem-2 Graham-bound experiment (E5)
//! resa replay <trace>           replay an SWF trace (policies, reservation
//!                               overlays, warm-up truncation; streams
//!                               archive-scale logs with bounded memory)
//! resa fetch <name>             import an archive trace into the local
//!                               checksum-pinned cache (`trace:` references)
//! resa sweep <spec.json>        run a declarative experiment sweep
//! resa serve                    resident scheduling service (line-delimited
//!                               JSON over stdin/stdout, TCP or Unix socket)
//! ```
//!
//! Every subcommand accepts `--seed <n>`, `--threads <n>`, `--quick` and
//! `--format json|csv|table`; `--out <file>` additionally persists the
//! rendered output. The process exit code distinguishes *ran* (0) from
//! *paper-guarantee violated* (2) from *usage or I/O error* (1), so the CLI
//! doubles as an acceptance harness in CI.
//!
//! The library face exists so integration tests (and other tools) can run
//! commands in-process and capture the output:
//!
//! ```
//! // Figure 4 is the closed-form bound chart: cheap and deterministic.
//! let outcome = resa_cli::run(&["figure", "4", "--quick", "--format", "csv"]).unwrap();
//! assert!(outcome.stdout.starts_with("alpha,"));
//! assert_eq!(outcome.violations, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bench_cmds;
mod fetch;
mod fields;
pub mod opts;
pub mod replay;
pub mod serve;
pub mod sweep;

/// The scripted-op generator of the service suites, shared by path.
#[cfg(test)]
#[path = "../../resa-sim/tests/common/mod.rs"]
mod test_ops;

use opts::Command;

/// Serializes tests that set `RESA_TRACE_CACHE` — the variable is process
/// global, so concurrent test threads would otherwise race on it.
#[cfg(test)]
pub(crate) fn trace_cache_env_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The result of a successfully executed subcommand.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Everything the command would print on stdout.
    pub stdout: String,
    /// Number of conclusive paper-guarantee violations detected while
    /// running (0 means every reproduced bound held; the binary maps any
    /// non-zero count to exit code 2).
    pub violations: usize,
}

impl Outcome {
    /// A clean run that printed `stdout`.
    pub(crate) fn printed(stdout: impl Into<String>) -> Self {
        Outcome {
            stdout: stdout.into(),
            violations: 0,
        }
    }
}

/// Errors a subcommand can fail with (mapped to exit code 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The arguments do not form a valid invocation.
    Usage(String),
    /// A file could not be read or written.
    Io {
        /// The offending path.
        path: String,
        /// The underlying error message.
        message: String,
    },
    /// An input file (trace, reservation file, sweep spec) failed to parse.
    Parse(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Io { path, message } => write!(f, "{path}: {message}"),
            CliError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl CliError {
    /// An I/O failure on `path`.
    pub(crate) fn io(path: impl std::fmt::Display, err: impl std::fmt::Display) -> Self {
        CliError::Io {
            path: path.to_string(),
            message: err.to_string(),
        }
    }
}

/// The top-level help text.
pub const HELP: &str = "\
resa — reproduction driver for 'Analysis of Scheduling Algorithms with Reservations' (IPDPS 2007)

USAGE:
    resa <SUBCOMMAND> [OPTIONS]

SUBCOMMANDS:
    figure <1|2|3|4>     reproduce Figure 1 (3-PARTITION), 2 (non-increasing),
                         3 (Prop.-2 adversary) or 4 (bound curves)
    table <name>         reproduce an extension table: fcfs (E6), average (E7),
                         online (E9) or priority (E8)
    graham               the Theorem-2 Graham-bound experiment (E5)
    replay <trace>       replay an SWF trace end to end (see `resa replay --help`)
    fetch <name>         import an archive trace into the checksum-pinned local
                         cache, usable everywhere as `trace:<name>`
    sweep <spec.json>    run a declarative experiment sweep (see `resa sweep --help`)
    serve                resident scheduling service over a line-delimited JSON
                         protocol (see `resa serve --help`)
    help                 print this message

COMMON OPTIONS (every subcommand):
    --seed <n>           base seed offset for randomized sweeps        [default: 0]
    --threads <n>        worker threads (1 = sequential)               [default: all cores]
    --format <fmt>       output format: table | json | csv             [default: table]
    --quick              shrink the experiment to a few cells (CI smokes)
    --out <file>         also write the rendered output to <file>

EXIT CODES:
    0  the command ran and every reproduced paper guarantee held
    1  usage, I/O or parse error
    2  the command ran but a paper guarantee was conclusively violated
";

/// Execute one `resa` invocation given its arguments (without the program
/// name). Returns the rendered stdout and the violation count; the binary
/// wrapper turns those into the documented exit codes.
pub fn run(args: &[&str]) -> Result<Outcome, CliError> {
    let (sub, rest) = match args.split_first() {
        None => return Err(CliError::Usage("missing subcommand".into())),
        Some((s, rest)) => (*s, rest),
    };
    let Some((_, command)) = SUBCOMMANDS.iter().find(|(name, _)| *name == sub) else {
        return Err(CliError::Usage(format!(
            "unknown subcommand '{sub}' (try `resa help`)"
        )));
    };
    command(rest)
}

/// A subcommand: its arguments after the subcommand word to its outcome.
type Subcommand = fn(&[&str]) -> Result<Outcome, CliError>;

/// Every subcommand by name; `--help` and `-h` are `help`.
const SUBCOMMANDS: [(&str, Subcommand); 10] = [
    ("figure", |args| {
        FIGURE.run(args, |which, opts| bench_cmds::run("figure", &which, &opts))
    }),
    ("table", |args| {
        TABLE.run(args, |which, opts| bench_cmds::run("table", &which, &opts))
    }),
    ("graham", |args| {
        GRAHAM.run(args, |which, opts| bench_cmds::run("graham", &which, &opts))
    }),
    ("replay", replay::run),
    ("fetch", fetch::run),
    ("sweep", sweep::run),
    ("serve", serve::run),
    ("help", |_| Ok(Outcome::printed(HELP))),
    ("--help", |_| Ok(Outcome::printed(HELP))),
    ("-h", |_| Ok(Outcome::printed(HELP))),
];

/// `figure` and `table` take the common options after one positional
/// argument, `graham` only the options; [`HELP`] documents all three.
const FIGURE: Command<String> = experiment(Some("figure expects a number 1..4"));
const TABLE: Command<String> = experiment(Some("table expects fcfs|average|online|priority"));
const GRAHAM: Command<String> = experiment(None);

const fn experiment(missing: Option<&'static str>) -> Command<String> {
    Command {
        help: HELP,
        page: None,
        positional: match missing {
            Some(_) => Some(|which, arg| *which = arg.to_string()),
            None => None,
        },
        missing,
        flags: &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_and_usage_errors() {
        assert!(run(&["help"]).unwrap().stdout.contains("SUBCOMMANDS"));
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
        assert!(matches!(run(&["frobnicate"]), Err(CliError::Usage(_))));
        assert!(matches!(run(&["figure"]), Err(CliError::Usage(_))));
        assert!(matches!(run(&["figure", "9"]), Err(CliError::Usage(_))));
        assert!(matches!(run(&["table", "nope"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&["figure", "4", "--format", "yaml"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn figure4_runs_in_every_format() {
        for fmt in ["table", "json", "csv"] {
            let out = run(&["figure", "4", "--quick", "--format", fmt]).unwrap();
            assert_eq!(out.violations, 0, "{fmt}");
            assert!(!out.stdout.is_empty());
        }
    }

    #[test]
    fn graham_quick_runs_sequentially() {
        let out = run(&["graham", "--quick", "--threads", "1", "--format", "csv"]).unwrap();
        assert_eq!(out.violations, 0);
        assert!(out.stdout.starts_with("m,"));
    }

    /// `--help` anywhere in a subcommand's arguments prints that
    /// subcommand's help; `figure`, `table` and `graham` are documented by
    /// the top-level one.
    #[test]
    fn help_anywhere_prints_the_subcommands_help() {
        for (args, help) in [
            (&["figure", "--help"][..], HELP),
            (&["figure", "4", "--quick", "--help"], HELP),
            (&["table", "fcfs", "--help"], HELP),
            (&["graham", "--threads", "1", "--help"], HELP),
            (&["replay", "x.swf", "--help"], replay::REPLAY_HELP),
            (&["serve", "--machines", "4", "--help"], serve::SERVE_HELP),
            (&["fetch", "x", "--from", "f", "--help"], fetch::FETCH_HELP),
            (
                &["sweep", "spec.json", "--shards", "2", "--help"],
                sweep::SWEEP_HELP,
            ),
        ] {
            let out = run(args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
            assert_eq!(out.stdout, help, "{args:?}");
            assert_eq!(out.violations, 0);
        }
    }
}
