//! The option surface shared by every `resa` subcommand: the common flags,
//! and the one parser that reads each subcommand's flag table next to them
//! (`--help`, the leading positional, values and unknown-option errors).

use crate::{CliError, Outcome};
use resa_analysis::prelude::{ExperimentRunner, Table};
use resa_bench::experiments::ExperimentOptions;
use std::str::FromStr;

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

/// The flags every subcommand accepts, parsed next to its own table.
const COMMON: &[Flag<CommonOpts>] = &[
    Parsed("--seed <n>", |o, v| v.integer().map(|n| o.seed = n)),
    Parsed("--threads <n>", |o, v| {
        v.at_least_one(v.integer()?).map(|n| o.threads = Some(n))
    }),
    Parsed("--format <fmt>", |o, v| {
        o.format = match v.text {
            "table" => OutputFormat::Table,
            "json" => OutputFormat::Json,
            "csv" => OutputFormat::Csv,
            other => {
                return Err(CliError::Usage(format!(
                    "unknown format '{other}' (expected table|json|csv)"
                )))
            }
        };
        Ok(())
    }),
    Switch("--quick", |o| &mut o.quick),
    Text("--out <file>", |o| &mut o.out),
];

/// One row of a subcommand's flag table: the flag as `--help` shows it
/// (`--shards N`, a switch bare), and where it puts what it takes into the
/// command's arguments `T`.
pub(crate) enum Flag<T: 'static> {
    /// Takes nothing and turns this `bool` on.
    Switch(&'static str, fn(&mut T) -> &mut bool),
    /// Takes a value and keeps it as text.
    Text(&'static str, fn(&mut T) -> &mut Option<String>),
    /// Takes a value the setter reads.
    Parsed(&'static str, fn(&mut T, Arg<'_>) -> Result<(), CliError>),
}

pub(crate) use Flag::{Parsed, Switch, Text};

impl<T> Flag<T> {
    fn usage(&self) -> &'static str {
        match self {
            Switch(usage, _) | Text(usage, _) | Parsed(usage, _) => usage,
        }
    }

    fn name(&self) -> &'static str {
        self.usage().split(' ').next().unwrap_or_default()
    }

    /// Apply the flag to `out`, given the argument after it; returns how
    /// many arguments past the flag it consumed.
    fn apply(&self, out: &mut T, next: Option<&str>) -> Result<usize, CliError> {
        let flag = self.name();
        let text = next.ok_or_else(|| CliError::Usage(format!("{flag} expects a value")));
        match self {
            Switch(_, on) => *on(out) = true,
            Text(_, slot) => *slot(out) = Some(text?.to_string()),
            Parsed(_, set) => set(out, Arg { flag, text: text? })?,
        }
        Ok(usize::from(!matches!(self, Switch(..))))
    }
}

/// A flag's value, as its setter sees it; the typed readers name the flag
/// in their errors.
pub(crate) struct Arg<'a> {
    flag: &'static str,
    pub(crate) text: &'a str,
}

impl Arg<'_> {
    /// The value parsed as `N`, or the usage error `<flag> expects <what>`.
    pub(crate) fn parse<N: FromStr>(&self, what: &str) -> Result<N, CliError> {
        let flag = self.flag;
        self.text
            .parse()
            .map_err(|_| CliError::Usage(format!("{flag} expects {what}")))
    }

    pub(crate) fn integer<N: FromStr>(&self) -> Result<N, CliError> {
        self.parse("an integer")
    }

    pub(crate) fn positive<N: FromStr + From<u8> + PartialOrd>(&self) -> Result<N, CliError> {
        self.at_least_one(self.parse("a positive integer")?)
    }

    pub(crate) fn at_least_one<N: From<u8> + PartialOrd>(&self, n: N) -> Result<N, CliError> {
        if n < N::from(1) {
            return Err(CliError::Usage(format!("{} must be at least 1", self.flag)));
        }
        Ok(n)
    }
}

/// A subcommand's option table. [`Command::run`] parses it next to the
/// common flags.
pub(crate) struct Command<T: 'static> {
    /// What `--help`, anywhere in the arguments, prints.
    pub(crate) help: &'static str,
    /// The subcommand whose `--help` an unknown-option error points at;
    /// `None` for those the top-level help documents.
    pub(crate) page: Option<&'static str>,
    /// Takes the leading argument, when it does not start with `--`…
    pub(crate) positional: Option<fn(&mut T, &str)>,
    /// …and the usage error when there is none (`None`: it is optional).
    pub(crate) missing: Option<&'static str>,
    pub(crate) flags: &'static [Flag<T>],
}

impl<T: Default> Command<T> {
    /// Answer `--help` with the help text, or parse `args` and hand the
    /// command's arguments and the common options to `body`.
    pub(crate) fn run(
        &self,
        args: &[&str],
        body: impl FnOnce(T, CommonOpts) -> Result<Outcome, CliError>,
    ) -> Result<Outcome, CliError> {
        if args.contains(&"--help") {
            return Ok(Outcome::printed(self.help));
        }
        let (parsed, opts) = self.parse(args)?;
        body(parsed, opts)
    }

    /// The positional, then every flag: the common ones into
    /// [`CommonOpts`], the command's own into `T`.
    pub(crate) fn parse(&self, mut args: &[&str]) -> Result<(T, CommonOpts), CliError> {
        let (mut parsed, mut opts) = (T::default(), CommonOpts::default());
        match (self.positional, args.split_first()) {
            (Some(set), Some((first, rest))) if !first.starts_with("--") => {
                set(&mut parsed, first);
                args = rest;
            }
            _ => {
                if let Some(missing) = self.missing {
                    return Err(CliError::Usage(missing.to_string()));
                }
            }
        }
        let mut i = 0;
        while let Some(&flag) = args.get(i) {
            let next = args.get(i + 1).copied();
            let common = COMMON.iter().find(|f| f.name() == flag);
            i += 1 + match (common, self.flags.iter().find(|f| f.name() == flag)) {
                (Some(common), _) => common.apply(&mut opts, next)?,
                (None, Some(own)) => own.apply(&mut parsed, next)?,
                (None, None) => return Err(self.unknown(flag)),
            };
        }
        Ok((parsed, opts))
    }

    /// The unknown-option error, with the nearest flag as a suggestion.
    fn unknown(&self, flag: &str) -> CliError {
        // Compared without the `--` every name shares, which would make any
        // short typo look near.
        let names: Vec<&str> = COMMON
            .iter()
            .map(|f| &f.name()[2..])
            .chain(self.flags.iter().map(|f| &f.name()[2..]))
            .collect();
        let hint = crate::fields::nearest(flag.trim_start_matches('-'), &names)
            .map(|near| format!(" (did you mean '--{near}'?)"))
            .unwrap_or_default();
        let see = self
            .page
            .map(|page| format!(" (see `resa {page} --help`)"))
            .unwrap_or_default();
        CliError::Usage(format!("unknown option '{flag}'{hint}{see}"))
    }
}

impl CommonOpts {
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

    /// A command with one flag of each kind and an optional positional.
    #[derive(Debug, Default)]
    struct Args {
        name: Option<String>,
        list: bool,
        from: Option<String>,
        shards: Option<u32>,
    }

    const CMD: Command<Args> = Command {
        help: "HELP",
        page: Some("cmd"),
        positional: Some(|a, p| a.name = Some(p.to_string())),
        missing: None,
        flags: &[
            Switch("--list", |a| &mut a.list),
            Text("--from <file>", |a| &mut a.from),
            Parsed("--shards N", |a, v| {
                v.positive().map(|n| a.shards = Some(n))
            }),
        ],
    };

    fn parse(args: &[&str]) -> Result<(Args, CommonOpts), CliError> {
        CMD.parse(args)
    }

    fn usage(args: &[&str]) -> String {
        match parse(args) {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("{args:?}: expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn parses_all_common_flags() {
        let (_, opts) = parse(&[
            "--seed",
            "7",
            "--threads",
            "2",
            "--format",
            "json",
            "--quick",
            "--out",
            "x.json",
        ])
        .unwrap();
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.threads, Some(2));
        assert_eq!(opts.format, OutputFormat::Json);
        assert!(opts.quick);
        assert_eq!(opts.out.as_deref(), Some("x.json"));
    }

    #[test]
    fn rejects_bad_values() {
        for (args, message) in [
            (&["--seed"][..], "--seed expects a value"),
            (&["--seed", "x"], "--seed expects an integer"),
            (&["--threads", "0"], "--threads must be at least 1"),
            (
                &["--format", "xml"],
                "unknown format 'xml' (expected table|json|csv)",
            ),
            (&["--shards", "-1"], "--shards expects a positive integer"),
            (&["--shards", "0"], "--shards must be at least 1"),
            (&["--from"], "--from expects a value"),
            (&["--wat"], "unknown option '--wat' (see `resa cmd --help`)"),
        ] {
            assert_eq!(usage(args), message);
        }
    }

    #[test]
    fn extra_flags_are_routed() {
        let (args, opts) =
            parse(&["x", "--from", "f", "--quick", "--list", "--shards", "3"]).unwrap();
        assert!(opts.quick);
        assert_eq!(args.name.as_deref(), Some("x"));
        assert_eq!(args.from.as_deref(), Some("f"));
        assert!(args.list);
        assert_eq!(args.shards, Some(3));
        // The positional is optional here and only leads: later, a bare
        // word is an unknown option.
        assert!(parse(&["--list"]).unwrap().0.name.is_none());
        assert!(usage(&["--list", "y"]).starts_with("unknown option 'y'"));
    }

    #[test]
    fn help_anywhere_and_required_positionals() {
        for args in [
            &["--help"][..],
            &["x", "--list", "--help"],
            &["--wat", "--help"],
        ] {
            let out = CMD.run(args, |_, _| panic!("{args:?} ran")).unwrap();
            assert_eq!(out.stdout, "HELP");
        }
        let required = Command::<Args> {
            page: None,
            missing: Some("cmd expects a name"),
            ..CMD
        };
        assert!(
            matches!(required.parse(&["--quick"]), Err(CliError::Usage(m)) if m == "cmd expects a name")
        );
        // No help page of its own: no pointer to one.
        assert!(
            matches!(required.parse(&["x", "--wat"]), Err(CliError::Usage(m)) if m == "unknown option '--wat'")
        );
    }

    #[test]
    fn near_misses_get_a_suggestion() {
        assert_eq!(
            usage(&["--shard", "2"]),
            "unknown option '--shard' (did you mean '--shards'?) (see `resa cmd --help`)"
        );
        assert!(usage(&["--quik"]).contains("(did you mean '--quick'?)"));
        assert!(!usage(&["--zzzzzz"]).contains("did you mean"));
    }

    /// The `--words` of `help`.
    fn documented_flags(help: &str) -> Vec<&str> {
        let flag = |c: char| c.is_ascii_alphanumeric() || c == '-';
        help.match_indices("--")
            .map(|(at, _)| &help[at..])
            .map(|tail| {
                &tail[..tail[2..]
                    .find(|c| !flag(c))
                    .map_or(tail.len(), |end| end + 2)]
            })
            .filter(|word| word.len() > 2 && !word.starts_with("---"))
            .collect()
    }

    /// Each table row appears in `help` as `--help` shows it (`--shards N`),
    /// and each `--word` of `help` names a row, a common flag or `--help`.
    fn check_documented<T>(help: &str, flags: &[Flag<T>]) {
        for flag in flags {
            assert!(
                help.contains(flag.usage()),
                "'{}' is not in the help",
                flag.usage()
            );
        }
        for word in documented_flags(help) {
            let names = COMMON.iter().map(Flag::name);
            let known = names.chain(flags.iter().map(Flag::name)).any(|f| f == word);
            assert!(
                word == "--help" || known,
                "the help documents '{word}', which is no flag"
            );
        }
    }

    #[test]
    fn every_table_flag_is_documented_and_every_documented_flag_exists() {
        check_documented(crate::HELP, COMMON);
        check_documented(crate::replay::REPLAY_HELP, crate::replay::REPLAY.flags);
        check_documented(crate::serve::SERVE_HELP, crate::serve::SERVE.flags);
        check_documented(crate::fetch::FETCH_HELP, crate::fetch::FETCH.flags);
        check_documented(crate::sweep::SWEEP_HELP, crate::sweep::SWEEP.flags);
        assert_eq!(
            documented_flags("a --b-c, --d/--e --- -- x"),
            ["--b-c", "--d", "--e"]
        );
    }
}
