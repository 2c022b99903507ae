//! The figure/table/graham subcommands: thin renderers over
//! [`resa_bench::experiments`].

use crate::opts::CommonOpts;
use crate::{CliError, Outcome};
use resa_bench::experiments::{
    average_case_report, fcfs_report, fig1_report, fig2_report, fig3_report, fig4_report,
    graham_report, online_report, priority_report, ExperimentOptions, ExperimentReport,
};

/// An experiment pipeline.
type Report = fn(&ExperimentOptions) -> ExperimentReport;

/// Every experiment by subcommand and argument (`graham` takes none).
const REPORTS: [(&str, &str, Report); 9] = [
    ("figure", "1", fig1_report),
    ("figure", "2", fig2_report),
    ("figure", "3", fig3_report),
    ("figure", "4", fig4_report),
    ("table", "fcfs", fcfs_report),
    ("table", "average", average_case_report),
    ("table", "online", online_report),
    ("table", "priority", priority_report),
    ("graham", "", graham_report),
];

/// `resa figure <1|2|3|4>`, `resa table <fcfs|average|online|priority>` and
/// `resa graham`: run the experiment `command` and `which` name.
pub fn run(command: &str, which: &str, opts: &CommonOpts) -> Result<Outcome, CliError> {
    let Some((.., report)) = REPORTS.iter().find(|r| (r.0, r.1) == (command, which)) else {
        return Err(CliError::Usage(if command == "figure" {
            format!("unknown figure '{which}' (the paper has figures 1..4)")
        } else {
            format!("unknown table '{which}' (expected fcfs|average|online|priority)")
        }));
    };
    render(&report(&opts.experiment_options()), opts)
}

/// Render a report in the requested format, persist `--out`, and map the
/// violation count into the outcome.
fn render(report: &ExperimentReport, opts: &CommonOpts) -> Result<Outcome, CliError> {
    let mut notes = String::new();
    for note in &report.notes {
        notes.push_str(&format!("\n{note}\n"));
    }
    notes.push_str(&format!(
        "\npaper-guarantee violations: {} {}\n",
        report.violations,
        if report.violations == 0 {
            "(all bounds held)"
        } else {
            "(REPRODUCTION BROKEN)"
        }
    ));
    opts.emit(&report.json, &report.table, &notes, report.violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::OutputFormat;

    fn quick() -> CommonOpts {
        CommonOpts {
            quick: true,
            ..CommonOpts::default()
        }
    }

    #[test]
    fn figure_dispatch_covers_all_four() {
        for which in ["1", "2", "3", "4"] {
            let out = run("figure", which, &quick()).unwrap();
            assert_eq!(out.violations, 0, "figure {which}");
        }
        assert!(run("figure", "5", &quick()).is_err());
    }

    #[test]
    fn json_format_is_the_raw_payload() {
        let opts = CommonOpts {
            format: OutputFormat::Json,
            ..quick()
        };
        let out = run("figure", "3", &opts).unwrap();
        assert!(out.stdout.trim_start().starts_with('['));
        // Byte-stable: the same invocation renders identical bytes.
        assert_eq!(out.stdout, run("figure", "3", &opts).unwrap().stdout);
    }

    #[test]
    fn out_writes_the_rendered_output() {
        let path = std::env::temp_dir().join("resa_cli_fig4_test.csv");
        let opts = CommonOpts {
            format: OutputFormat::Csv,
            out: Some(path.display().to_string()),
            ..quick()
        };
        let out = run("figure", "4", &opts).unwrap();
        assert!(out.stdout.contains("[saved"));
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.starts_with("alpha,"));
        let _ = std::fs::remove_file(&path);
    }
}
