//! `--compare A.json B.json`: one verdict per workload and end-to-end
//! metric, judged against the bounds `BENCHMARK.json` fixes, with the
//! parent `A` and the change `B`.

use crate::json::{get_array, get_entries, get_f64, get_str, Value};
use crate::stats::Summary;

/// How a change's metric compares with its parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the parent by more than the bound and by more than the
    /// parent's own spread.
    Improved,
    /// Within the bound of the parent, not clearly better.
    NoWorse,
    /// Worse than the parent by more than the bound.
    Regressed,
    /// Either side has fewer than [`MIN_SAMPLES`] samples, or the parent's
    /// own quartile spread is wider than the bound and not every sample of
    /// the change beats every sample of the parent.
    Unresolved,
}

/// Fewer samples than this on either side leave no spread to judge by.
pub const MIN_SAMPLES: usize = 4;

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no worse",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's samples of one metric.
#[derive(Debug, Clone)]
pub struct Side {
    /// Median and quartiles.
    pub summary: Summary,
    /// Every sample.
    pub samples: Vec<f64>,
}

/// Judges `change` against `parent` for a metric where `lower_is_better`
/// and a regression is a median worse by more than `bound` (a share of
/// the parent's median).
///
/// The spread comes from the samples of one run, which are tighter than
/// the run-to-run drift the bound allows for, so a gain must exceed the
/// bound as well as the spread.
pub fn verdict(parent: &Side, change: &Side, lower_is_better: bool, bound: f64) -> Verdict {
    if parent.samples.len() < MIN_SAMPLES || change.samples.len() < MIN_SAMPLES {
        return Verdict::Unresolved;
    }
    let (a, b) = (parent.summary.median, change.summary.median);
    // Positive when the change is worse.
    let worse = if a == 0.0 {
        0.0
    } else if lower_is_better {
        (b - a) / a.abs()
    } else {
        (a - b) / a.abs()
    };
    let beats = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let all_better = change
        .samples
        .iter()
        .all(|&c| parent.samples.iter().all(|&p| beats(c, p)));
    let spread = parent.summary.spread();
    if spread > bound && !all_better {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if -worse > spread.max(bound) {
        Verdict::Improved
    } else {
        Verdict::NoWorse
    }
}

/// An end-to-end metric's definition from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// The share of the parent's median it may worsen by.
    pub bound: f64,
}

/// The end-to-end metric definitions of a parsed `BENCHMARK.json`.
pub fn bounds(benchmark: &Value) -> Vec<Bound> {
    get_array(benchmark, "end_to_end")
        .iter()
        .filter_map(|m| {
            Some(Bound {
                name: get_str(m, "name")?.to_string(),
                lower_is_better: get_str(m, "better")? == "lower",
                bound: get_f64(m, "bound")?,
            })
        })
        .collect()
}

fn side(metric: &Value) -> Option<Side> {
    let samples: Vec<f64> = get_array(metric, "samples")
        .iter()
        .filter_map(|v| match v {
            Value::Number(n) => n.parse().ok(),
            _ => None,
        })
        .collect();
    Some(Side {
        summary: Summary {
            median: get_f64(metric, "median")?,
            q1: get_f64(metric, "q1")?,
            q3: get_f64(metric, "q3")?,
            n: samples.len(),
        },
        samples,
    })
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name (`fail_ratio` and `output_digest` included).
    pub metric: String,
    /// Parent's median (or value).
    pub parent: String,
    /// Change's median (or value).
    pub change: String,
    /// The verdict's label.
    pub verdict: &'static str,
}

/// Compares two `result.json` documents workload by workload.
pub fn compare(benchmark: &Value, parent: &Value, change: &Value) -> Vec<Row> {
    let bounds = bounds(benchmark);
    let mut rows = Vec::new();
    for (workload, a) in get_entries(parent, "workloads") {
        let Some(b) = change.get("workloads").and_then(|w| w.get(workload)) else {
            continue;
        };
        for bound in &bounds {
            let metric = |r: &Value| {
                r.get("metrics")
                    .and_then(|m| m.get(&bound.name))
                    .and_then(side)
            };
            let (Some(pa), Some(pb)) = (metric(a), metric(b)) else {
                continue;
            };
            let v = verdict(&pa, &pb, bound.lower_is_better, bound.bound);
            rows.push(Row {
                workload: workload.clone(),
                metric: bound.name.clone(),
                parent: format!("{:.6}", pa.summary.median),
                change: format!("{:.6}", pb.summary.median),
                verdict: v.label(),
            });
        }
        let ratio = |r: &Value| {
            get_f64(r, "failed").unwrap_or(0.0) / get_f64(r, "attempted").unwrap_or(1.0).max(1.0)
        };
        let (fa, fb) = (ratio(a), ratio(b));
        rows.push(Row {
            workload: workload.clone(),
            metric: String::from("fail_ratio"),
            parent: format!("{fa}"),
            change: format!("{fb}"),
            verdict: if fb > fa { "regressed" } else { "no worse" },
        });
        let (da, db) = (get_str(a, "output_digest"), get_str(b, "output_digest"));
        rows.push(Row {
            workload: workload.clone(),
            metric: String::from("output_digest"),
            parent: da.unwrap_or("-").to_string(),
            change: db.unwrap_or("-").to_string(),
            verdict: if da == db { "identical" } else { "changed" },
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(samples: &[f64]) -> Side {
        Side {
            summary: Summary::of(samples).expect("samples"),
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn a_slower_change_beyond_the_bound_regresses() {
        let parent = side(&[100.0, 101.0, 99.0, 100.0, 100.5]);
        let change = side(&[115.0, 116.0, 114.0, 115.0, 115.5]);
        assert_eq!(verdict(&parent, &change, true, 0.10), Verdict::Regressed);
        // The same numbers as a throughput got better.
        assert_eq!(verdict(&parent, &change, false, 0.10), Verdict::Improved);
    }

    #[test]
    fn a_small_difference_is_no_worse() {
        let parent = side(&[100.0, 101.0, 99.0, 100.0]);
        let change = side(&[104.0, 105.0, 103.0, 104.0]);
        assert_eq!(verdict(&parent, &change, true, 0.10), Verdict::NoWorse);
        // Better, but by less than the parent's own spread: not a gain.
        let noisy = side(&[90.0, 100.0, 110.0, 100.0]);
        let slightly = side(&[97.0, 98.0, 99.0, 98.0]);
        assert_eq!(verdict(&noisy, &slightly, true, 0.25), Verdict::NoWorse);
        // Better by more than a tight spread but less than the bound: the
        // bound allows for drift between runs, so still not a gain.
        let tight = side(&[100.0, 100.5, 99.5, 100.0]);
        let faster = side(&[94.0, 94.5, 93.5, 94.0]);
        assert_eq!(verdict(&tight, &faster, true, 0.10), Verdict::NoWorse);
    }

    #[test]
    fn a_parent_noisier_than_the_bound_is_unresolved() {
        let parent = side(&[80.0, 100.0, 130.0, 90.0, 120.0]);
        let change = side(&[101.0, 99.0, 100.0, 100.0]);
        assert_eq!(verdict(&parent, &change, true, 0.10), Verdict::Unresolved);
        // Unless every change sample beats every parent sample.
        let clearly = side(&[50.0, 51.0, 52.0, 51.0]);
        assert_eq!(verdict(&parent, &clearly, true, 0.10), Verdict::Improved);
    }

    #[test]
    fn too_few_samples_are_unresolved() {
        // One sample a side has a spread of 0, which must not let any
        // difference count as a gain or a regression.
        let parent = side(&[100.0]);
        for change in [50.0, 100.0, 200.0] {
            let change = side(&[change]);
            assert_eq!(verdict(&parent, &change, true, 0.10), Verdict::Unresolved);
            assert_eq!(verdict(&parent, &change, false, 0.10), Verdict::Unresolved);
        }
        let many = side(&[50.0, 50.0, 50.0, 50.0]);
        assert_eq!(verdict(&parent, &many, true, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(&many, &parent, true, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn compare_reads_result_documents() {
        let benchmark = crate::json::parse(
            r#"{"end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .expect("valid");
        let doc = |median: f64, failed: u64, digest: &str| {
            crate::json::parse(&format!(
                r#"{{"workloads": {{"w": {{"attempted": 10, "failed": {failed}, "output_digest": "{digest}",
                    "metrics": {{"latency_ms": {{"median": {median}, "q1": {median}, "q3": {median},
                    "samples": [{median}, {median}, {median}, {median}]}}}}}}}}}}"#
            ))
            .expect("valid")
        };
        let rows = compare(&benchmark, &doc(10.0, 0, "aa"), &doc(12.0, 1, "bb"));
        let verdicts: Vec<(&str, &str)> = rows
            .iter()
            .map(|r| (r.metric.as_str(), r.verdict))
            .collect();
        assert_eq!(
            verdicts,
            vec![
                ("latency_ms", "regressed"),
                ("fail_ratio", "regressed"),
                ("output_digest", "changed")
            ]
        );
        let same = compare(&benchmark, &doc(10.0, 0, "aa"), &doc(10.2, 0, "aa"));
        assert!(same
            .iter()
            .all(|r| r.verdict == "no worse" || r.verdict == "identical"));
    }
}
