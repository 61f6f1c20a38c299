//! `compare`: apply the end-to-end bounds to two sets of result files,
//! one row per (workload, metric).

use crate::json::Value;
use crate::metrics::{Better, END_TO_END};
use crate::stats::{median, quartile_spread};

/// What the bound says about one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The new median is no worse than the base's by more than the bound.
    Ok,
    /// It is worse by more than the bound.
    Regression,
    /// The base's run-to-run spread is wider than the bound, so the
    /// bound cannot tell (and not every new run beat every base run).
    Unresolved,
}

impl Verdict {
    /// The word printed in the table.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (workload, metric) comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Median over the base files.
    pub base: f64,
    /// Median over the new files.
    pub new: f64,
    /// Share of `base` by which `new` is worse (negative = better).
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// Quartile spread of the base values as a share of their median;
    /// `None` with fewer than two base files.
    pub spread: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

fn values(files: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    files
        .iter()
        .filter_map(|f| {
            f.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Share of attempted ops that failed, per file.
fn failed_shares(files: &[Value], workload: &str) -> Vec<f64> {
    files
        .iter()
        .filter_map(|f| {
            let w = f.get("workloads")?.get(workload)?;
            let attempted = w.get("attempted")?.as_f64()?;
            Some(w.get("failed")?.as_f64()? / attempted.max(1.0))
        })
        .collect()
}

fn judge(
    metric: &'static str,
    better: Better,
    bound: f64,
    base: &[f64],
    new: &[f64],
) -> Option<Row> {
    let (b, n) = (median(base)?, median(new)?);
    let worse_by = match better {
        Better::Lower => (n - b) / b.abs(),
        Better::Higher => (b - n) / b.abs(),
    };
    let spread = quartile_spread(base);
    let every_new_run_better = base.iter().all(|&x| {
        new.iter().all(|&y| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    let verdict = if spread.is_some_and(|s| s > bound) && !every_new_run_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    Some(Row {
        workload: String::new(),
        metric,
        base: b,
        new: n,
        worse_by,
        bound,
        spread,
        verdict,
    })
}

/// Compare `new` against `base` (each one or more result files of
/// `run --all`). Every end-to-end metric of every workload the base
/// names gets a row, plus a `failed_share` row whose bound is zero.
pub fn compare(base: &[Value], new: &[Value]) -> Vec<Row> {
    let mut rows = Vec::new();
    let Some(first) = base.first().and_then(|f| f.get("workloads")) else {
        return rows;
    };
    for (workload, _) in first.members() {
        for m in END_TO_END {
            let (b, n) = (
                values(base, workload, m.name),
                values(new, workload, m.name),
            );
            if let Some(row) = judge(m.name, m.better, m.bound, &b, &n) {
                rows.push(Row {
                    workload: workload.clone(),
                    ..row
                });
            }
        }
        let (b, n) = (failed_shares(base, workload), failed_shares(new, workload));
        if let (Some(b), Some(n)) = (median(&b), median(&n)) {
            rows.push(Row {
                workload: workload.clone(),
                metric: "failed_share",
                base: b,
                new: n,
                worse_by: n - b, // absolute: the base is 0 on a healthy commit
                bound: 0.0,
                spread: None,
                verdict: if n > b {
                    Verdict::Regression
                } else {
                    Verdict::Ok
                },
            });
        }
    }
    rows
}

/// Print the rows as a table; every ratio is given with its base.
pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<22} {:<16} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "base", "new", "worse_by", "bound", "spread"
    );
    for r in rows {
        println!(
            "{:<22} {:<16} {:>14.6} {:>14.6} {:>+8.2}% {:>6.1}% {:>8}  {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.spread
                .map_or("n/a".into(), |s| format!("{:.2}%", s * 100.0)),
            r.verdict.word(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(latency: f64, rows: f64, failed: f64) -> Value {
        let metric = |v: f64| Value::obj([("value", Value::Num(v)), ("unit", Value::str("x"))]);
        Value::obj([(
            "workloads",
            Value::obj([(
                "w",
                Value::obj([
                    ("attempted", Value::Num(100.0)),
                    ("failed", Value::Num(failed)),
                    (
                        "metrics",
                        Value::obj([
                            ("latency_ms_p50", metric(latency)),
                            ("rows_per_s", metric(rows)),
                        ]),
                    ),
                ]),
            )]),
        )])
    }

    fn verdict(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn bound_applies_in_the_metrics_direction() {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "latency_ms_p50")
            .unwrap()
            .bound;
        let base = [file(10.0, 1000.0, 0.0)];
        // slower and fewer rows, both past the bound
        let rows = compare(
            &base,
            &[file(
                10.0 * (1.0 + 2.0 * bound),
                1000.0 * (1.0 - 2.0 * bound),
                0.0,
            )],
        );
        assert_eq!(verdict(&rows, "latency_ms_p50"), Verdict::Regression);
        assert_eq!(verdict(&rows, "rows_per_s"), Verdict::Regression);
        // within the bound, and better
        let rows = compare(&base, &[file(10.0 * (1.0 + 0.5 * bound), 2000.0, 0.0)]);
        assert_eq!(verdict(&rows, "latency_ms_p50"), Verdict::Ok);
        assert_eq!(verdict(&rows, "rows_per_s"), Verdict::Ok);
        assert!(rows.iter().all(|r| r.workload == "w" && r.spread.is_none()));
    }

    #[test]
    fn any_new_failure_is_a_regression() {
        let rows = compare(&[file(1.0, 1.0, 0.0)], &[file(1.0, 1.0, 1.0)]);
        assert_eq!(verdict(&rows, "failed_share"), Verdict::Regression);
        let rows = compare(&[file(1.0, 1.0, 0.0)], &[file(1.0, 1.0, 0.0)]);
        assert_eq!(verdict(&rows, "failed_share"), Verdict::Ok);
    }

    #[test]
    fn wide_base_spread_is_unresolved_unless_every_run_wins() {
        let base: Vec<Value> = [8.0, 10.0, 12.0, 14.0, 9.0, 13.0]
            .iter()
            .map(|&l| file(l, 1000.0, 0.0))
            .collect();
        let new: Vec<Value> = [11.0, 12.0, 13.0]
            .iter()
            .map(|&l| file(l, 1000.0, 0.0))
            .collect();
        assert_eq!(
            verdict(&compare(&base, &new), "latency_ms_p50"),
            Verdict::Unresolved
        );
        let wins: Vec<Value> = [5.0, 6.0, 7.0]
            .iter()
            .map(|&l| file(l, 1000.0, 0.0))
            .collect();
        assert_eq!(
            verdict(&compare(&base, &wins), "latency_ms_p50"),
            Verdict::Ok
        );
    }
}
