//! `compare <a.json> <b.json>`: the regression rule, applied to two sets of
//! runs. For every end-to-end metric × workload it prints both medians, the
//! change, the bound, and a verdict; `regressed` makes the command fail.

use benchkit::metrics::END_TO_END;
use benchkit::stats::{median, spread};
use serde::Value;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread of a side is wider than the bound, and B's runs
    /// do not all read better than A's: the data cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of A's median B's median is worse (negative: better).
pub fn worse_by(a: &[f64], b: &[f64], higher_is_better: bool) -> f64 {
    let (ma, mb) = (median(a), median(b));
    if higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    }
}

/// The verdict for one metric on one workload.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let noisy = a.len() >= 2 && b.len() >= 2 && (spread(a) > bound || spread(b) > bound);
    if noisy {
        let every_b_better = if higher_is_better {
            b.iter().copied().fold(f64::INFINITY, f64::min)
                > a.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        } else {
            b.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                < a.iter().copied().fold(f64::INFINITY, f64::min)
        };
        return if every_b_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by(a, b, higher_is_better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn values(set: &Value, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    let list = set
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(metric))
        .and_then(Value::as_array)
        .ok_or_else(|| format!("no values for {workload} / {metric}"))?;
    let out: Vec<f64> = list.iter().filter_map(crate::number).collect();
    if out.is_empty() {
        return Err(format!("no values for {workload} / {metric}"));
    }
    Ok(out)
}

/// The bound of each end-to-end metric, from `BENCHMARK.json`.
pub fn bounds(benchmark_json: &Value) -> Result<Vec<(String, f64)>, String> {
    let list = benchmark_json
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| match (m.get("name"), m.get("bound")) {
            (Some(Value::Str(name)), Some(Value::Float(bound))) => Ok((name.clone(), *bound)),
            _ => Err("an end_to_end entry lacks name or bound".to_string()),
        })
        .collect()
}

/// Compare two result sets; returns the table and whether anything regressed.
pub fn compare(a: &Value, b: &Value, benchmark_json: &Value) -> Result<(String, bool), String> {
    let bounds = bounds(benchmark_json)?;
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "worse by", "bound"
    );
    let mut regressed = false;
    for workload in benchkit::gen::WORKLOADS {
        for metric in END_TO_END {
            let bound = bounds
                .iter()
                .find(|(n, _)| n == metric.name)
                .map(|(_, b)| *b)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", metric.name))?;
            let (va, vb) = (
                values(a, workload, metric.name)?,
                values(b, workload, metric.name)?,
            );
            let higher = metric.better == "higher";
            let v = verdict(&va, &vb, higher, bound);
            regressed |= v == Verdict::Regressed;
            let _ = writeln!(
                table,
                "{:<16} {:<16} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%  {}  ({} {}, spread A {:.1}% B {:.1}%)",
                workload,
                metric.name,
                median(&va),
                median(&vb),
                worse_by(&va, &vb, higher) * 100.0,
                bound * 100.0,
                v.name(),
                va.len().min(vb.len()),
                metric.unit,
                if va.len() >= 2 { spread(&va) * 100.0 } else { 0.0 },
                if vb.len() >= 2 { spread(&vb) * 100.0 } else { 0.0 },
            );
        }
    }
    Ok((table, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_three_verdicts() {
        let steady_a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound, either direction: ok.
        let slower = [104.0, 105.0, 103.0, 104.5, 103.5];
        assert_eq!(verdict(&steady_a, &slower, false, 0.1), Verdict::Ok);
        let faster = [90.0, 91.0, 89.0, 90.5, 89.5];
        assert_eq!(verdict(&steady_a, &faster, false, 0.1), Verdict::Ok);
        // Worse than the bound: regressed — lower-is-better and higher-is-better.
        let much_more = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(
            verdict(&steady_a, &much_more, false, 0.1),
            Verdict::Regressed
        );
        let much_less = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(
            verdict(&steady_a, &much_less, true, 0.1),
            Verdict::Regressed
        );
        assert_eq!(verdict(&steady_a, &much_more, true, 0.1), Verdict::Ok);
        // Spread wider than the bound: unresolved, whatever the medians say…
        let noisy_b = [70.0, 130.0, 100.0, 160.0, 90.0];
        assert_eq!(
            verdict(&steady_a, &noisy_b, false, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy_b, &steady_a, false, 0.1),
            Verdict::Unresolved
        );
        // …unless every run of B reads better than every run of A.
        let noisy_better = [40.0, 70.0, 50.0, 90.0, 60.0];
        assert_eq!(verdict(&steady_a, &noisy_better, false, 0.1), Verdict::Ok);
    }

    #[test]
    fn worse_by_is_signed_by_direction() {
        assert!((worse_by(&[100.0], &[110.0], false) - 0.1).abs() < 1e-12);
        assert!((worse_by(&[100.0], &[110.0], true) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn compares_whole_sets() {
        let set = |scale: f64| {
            let mut workloads = Vec::new();
            for w in benchkit::gen::WORKLOADS {
                let metrics: Vec<(String, Value)> = END_TO_END
                    .iter()
                    .map(|m| {
                        let vals = [1.0, 1.01, 0.99]
                            .iter()
                            .map(|v| {
                                Value::Float(v * if m.name == "work_per_s" { scale } else { 1.0 })
                            })
                            .collect();
                        (m.name.to_string(), Value::Array(vals))
                    })
                    .collect();
                workloads.push((w.to_string(), Value::Object(metrics)));
            }
            Value::Object(vec![("workloads".to_string(), Value::Object(workloads))])
        };
        let bench: Value = serde_json::from_str(
            r#"{"end_to_end":[{"name":"setup_s","bound":0.25},{"name":"work_per_s","bound":0.1},
                {"name":"cpu_us_per_work","bound":0.1},{"name":"peak_rss_mb","bound":0.1}]}"#,
        )
        .unwrap();
        let (table, regressed) = compare(&set(1.0), &set(1.0), &bench).unwrap();
        assert!(!regressed && !table.contains("regressed") && !table.contains("unresolved"));
        assert_eq!(table.lines().count(), 1 + 5 * END_TO_END.len());
        let (table, regressed) = compare(&set(1.0), &set(0.5), &bench).unwrap();
        assert!(regressed && table.matches("regressed").count() == 5);
        assert!(compare(&set(1.0), &Value::Null, &bench).is_err());
    }
}
