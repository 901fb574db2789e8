//! `gm-perf compare A.json B.json`: do two sets of runs agree?
//!
//! A set is what `gm-perf run` writes: for every workload, one or more
//! runs with their end-to-end metrics and exact counts. The comparison
//! prints one row per workload × end-to-end metric with both medians, the
//! ratio B/A, and whether B is within the metric's bound of A. A metric
//! whose own run-to-run spread in either set exceeds its bound is
//! *unresolved*, not within.

use crate::catalog::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{iqr_share, median};
use gm_obs::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Outside,
    /// The sets' own spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Outside => "OUTSIDE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: f64,
    pub b: f64,
    /// `b / a`.
    pub ratio: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// By what share of `a` the value `b` is worse (negative when better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Judges one metric from the samples of both sets.
pub fn judge(e: &EndToEnd, a: &[f64], b: &[f64]) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let spread = |v: &[f64]| iqr_share(v).unwrap_or(0.0);
    let verdict = if spread(a) > e.bound || spread(b) > e.bound {
        Verdict::Unresolved
    } else if ma > 0.0 && worse_by(e.metric.better, ma, mb) <= e.bound {
        Verdict::Within
    } else {
        Verdict::Outside
    };
    (ma, mb, verdict)
}

/// The values of `metric` over the runs of `workload` in a set.
fn samples(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    runs(set, workload)
        .iter()
        .filter_map(|run| run.get("metrics")?.get(metric)?.as_f64())
        .collect()
}

fn runs<'a>(set: &'a Json, workload: &str) -> &'a [Json] {
    set.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("runs"))
        .and_then(Json::as_arr)
        .unwrap_or(&[])
}

/// The comparison of two sets: the rows, and what else disagrees (failed
/// jobs, exact counts that differ between sets of one seed).
pub fn compare(a: &Json, b: &Json) -> (Vec<Row>, Vec<String>) {
    let mut rows = Vec::new();
    let mut problems = Vec::new();
    let same_seed = a.get("seed").and_then(Json::as_u64) == b.get("seed").and_then(Json::as_u64);
    for (workload, _) in WORKLOADS {
        for (label, set) in [("A", a), ("B", b)] {
            if runs(set, workload).is_empty() {
                problems.push(format!("{workload}: set {label} has no run"));
            }
            for run in runs(set, workload) {
                if run.get("correct") != Some(&Json::Bool(true)) {
                    problems.push(format!("{workload}: a run of set {label} is not correct"));
                }
            }
        }
        for e in &END_TO_END {
            let (sa, sb) = (
                samples(a, workload, e.metric.name),
                samples(b, workload, e.metric.name),
            );
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let (ma, mb, verdict) = judge(e, &sa, &sb);
            rows.push(Row {
                workload,
                metric: e.metric.name,
                unit: e.metric.unit,
                a: ma,
                b: mb,
                ratio: mb / ma,
                bound: e.bound,
                verdict,
            });
        }
        if same_seed {
            let exact = |set: &Json| {
                runs(set, workload)
                    .iter()
                    .filter_map(|r| r.get("exact"))
                    .map(Json::to_string)
                    .collect::<Vec<_>>()
            };
            let mut all = exact(a);
            all.extend(exact(b));
            if all.windows(2).any(|w| w[0] != w[1]) {
                problems.push(format!(
                    "{workload}: exact counts differ between runs of one seed: {}",
                    all.join(" vs ")
                ));
            }
        }
    }
    (rows, problems)
}

/// The table `gm-perf compare` prints.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<17} {:<12} {:>12} {:>12} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<17} {:<12} {:>12.4} {:>12.4} {:>8.3} {:>5.0}%  {} ({})\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.ratio,
            r.bound * 100.0,
            r.verdict.as_str(),
            r.unit,
        ));
    }
    out
}
