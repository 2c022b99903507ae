//! The figure/table/graham subcommands: thin renderers over
//! [`resa_bench::experiments`].

use crate::opts::CommonOpts;
use crate::{CliError, Outcome};
use resa_bench::experiments::{
    average_case_report, fcfs_report, fig1_report, fig2_report, fig3_report, fig4_report,
    graham_report, online_report, priority_report, ExperimentReport,
};

/// `resa figure <1|2|3|4>`.
pub fn figure(which: String, opts: CommonOpts) -> Result<Outcome, CliError> {
    let exp = opts.experiment_options();
    let report = match which.as_str() {
        "1" => fig1_report(&exp),
        "2" => fig2_report(&exp),
        "3" => fig3_report(&exp),
        "4" => fig4_report(&exp),
        other => {
            return Err(CliError::Usage(format!(
                "unknown figure '{other}' (the paper has figures 1..4)"
            )))
        }
    };
    render(&report, &opts)
}

/// `resa table <fcfs|average|online|priority>`.
pub fn table(which: String, opts: CommonOpts) -> Result<Outcome, CliError> {
    let exp = opts.experiment_options();
    let report = match which.as_str() {
        "fcfs" => fcfs_report(&exp),
        "average" => average_case_report(&exp),
        "online" => online_report(&exp),
        "priority" => priority_report(&exp),
        other => {
            return Err(CliError::Usage(format!(
                "unknown table '{other}' (expected fcfs|average|online|priority)"
            )))
        }
    };
    render(&report, &opts)
}

/// `resa graham`.
pub fn graham(opts: &CommonOpts) -> Result<Outcome, CliError> {
    render(&graham_report(&opts.experiment_options()), opts)
}

/// Render a report in the requested format, persist `--out`, and map the
/// violation count into the outcome.
pub fn render(report: &ExperimentReport, opts: &CommonOpts) -> Result<Outcome, CliError> {
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
            let out = figure(which.to_string(), quick()).unwrap();
            assert_eq!(out.violations, 0, "figure {which}");
        }
        assert!(figure("5".into(), quick()).is_err());
    }

    #[test]
    fn json_format_is_the_raw_payload() {
        let opts = CommonOpts {
            format: OutputFormat::Json,
            ..quick()
        };
        let out = figure("3".into(), opts.clone()).unwrap();
        assert!(out.stdout.trim_start().starts_with('['));
        // Byte-stable: the same invocation renders identical bytes.
        assert_eq!(out.stdout, figure("3".into(), opts).unwrap().stdout);
    }

    #[test]
    fn out_writes_the_rendered_output() {
        let path = std::env::temp_dir().join("resa_cli_fig4_test.csv");
        let opts = CommonOpts {
            format: OutputFormat::Csv,
            out: Some(path.display().to_string()),
            ..quick()
        };
        let out = figure("4".into(), opts).unwrap();
        assert!(out.stdout.contains("[saved"));
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.starts_with("alpha,"));
        let _ = std::fs::remove_file(&path);
    }
}
