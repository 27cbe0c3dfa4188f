//! Renderings of a run: the one-line result object of the acceptance
//! contract, the result file `compare` reads, and the table a person
//! reads.

use crate::e2e::{EndToEnd, Operations};
use crate::json::Json;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::traced::Traced;
use crate::workloads::Workload;

/// Identifies the layout of a result file.
pub const SCHEMA: &str = "perfbench-result-1";

fn metric_value(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

pub fn summary_json(s: &Summary, value: f64, unit: &str) -> Json {
    Json::obj([
        ("unit", Json::str(unit)),
        ("value", Json::Num(value)),
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("min", Json::Num(s.min)),
        ("max", Json::Num(s.max)),
        ("n", Json::Num(s.n as f64)),
    ])
}

impl EndToEnd {
    /// Each end-to-end metric with its samples and the one number that
    /// stands for the run, in `END_TO_END` order.
    ///
    /// `wall_s` is the *fastest* sample, not the median: the sizing box
    /// alternates between an uncontended and a ~1.35× slower mode in
    /// phases longer than a run, interference only ever adds time, and
    /// over two sets of ten runs per workload the fastest sample spread
    /// 2.6–15.6 % where the median spread 7.5–22.2 % (README, "Steadiness").
    /// The set-up time is the median of its three repetitions, as the
    /// acceptance contract asks; resident size is not a timing.
    pub fn headlines(&self) -> [(&'static Metric, &Summary, f64); 3] {
        [
            (&END_TO_END[0], &self.wall_s, self.wall_s.min),
            (&END_TO_END[1], &self.peak_rss_mb, self.peak_rss_mb.median),
            (&END_TO_END[2], &self.setup_s, self.setup_s.median),
        ]
    }
}

/// The contract's result object: `correct`, `attempted`, `failed` and
/// one `{value, unit}` per metric.
pub fn contract_line(
    ops: &Operations,
    metrics: impl IntoIterator<Item = (&'static str, f64, &'static str)>,
) -> Json {
    Json::obj([
        ("correct", Json::Bool(ops.failed == 0)),
        ("attempted", Json::Num(ops.attempted as f64)),
        ("failed", Json::Num(ops.failed as f64)),
        (
            "metrics",
            Json::obj(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| (name, metric_value(value, unit))),
            ),
        ),
    ])
}

pub fn end_to_end_line(run: &EndToEnd) -> Json {
    contract_line(
        &run.ops,
        run.headlines().map(|(m, _, value)| (m.name, value, m.unit)),
    )
}

pub fn traced_line(run: &Traced) -> Json {
    contract_line(
        &run.ops,
        PER_LAYER
            .iter()
            .map(|m| (m.name, run.metrics[m.name], m.unit)),
    )
}

/// Both halves of one workload's result, as stored in a result file.
pub fn workload_json(e2e: &EndToEnd, traced: &Traced) -> Json {
    let attempted = e2e.ops.attempted + traced.ops.attempted;
    let failed = e2e.ops.failed + traced.ops.failed;
    let failures = e2e.ops.failures.iter().chain(&traced.ops.failures);
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("fail_share", Json::Num(failed as f64 / attempted as f64)),
        ("failures", Json::Arr(failures.map(Json::str).collect())),
        (
            "end_to_end",
            Json::obj(
                e2e.headlines()
                    .map(|(m, s, value)| (m.name, summary_json(s, value, m.unit))),
            ),
        ),
        (
            "per_layer",
            Json::obj(
                PER_LAYER
                    .iter()
                    .map(|m| (m.name, metric_value(traced.metrics[m.name], m.unit))),
            ),
        ),
        (
            "spans",
            Json::obj([
                ("pipeline_s", Json::Num(traced.pipeline_s)),
                ("replays", Json::Num(traced.reps as f64)),
                ("coverage", Json::Num(traced.coverage)),
                (
                    "self_s",
                    Json::obj(
                        traced
                            .self_s
                            .iter()
                            .map(|(layer, s)| (*layer, Json::Num(*s))),
                    ),
                ),
                (
                    "attributed_s",
                    Json::obj(
                        traced
                            .attributed_s
                            .iter()
                            .map(|(layer, s)| (*layer, Json::Num(*s))),
                    ),
                ),
            ]),
        ),
    ])
}

/// Every metric by name with its unit, for a person.
pub fn print_workload(workload: &Workload, e2e: Option<&EndToEnd>, traced: Option<&Traced>) {
    println!("== {}: {}", workload.name, workload.why);
    if let Some(run) = e2e {
        for (m, s, value) in run.headlines() {
            println!(
                "  {:<28} {:>14.6} {:<5} {} is better (median {:.6}, q1 {:.6}, q3 {:.6}, min {:.6}, max {:.6}, n {})",
                m.name, value, m.unit, m.better, s.median, s.q1, s.q3, s.min, s.max, s.n
            );
        }
        print_ops(&run.ops);
    }
    if let Some(run) = traced {
        for m in &PER_LAYER {
            println!(
                "  {:<28} {:>14.6} {:<5} {} is better",
                m.name, run.metrics[m.name], m.unit, m.better
            );
        }
        println!(
            "  spans: pipeline {:.6} s over {} replays, children cover {:.1}% of it",
            run.pipeline_s,
            run.reps,
            run.coverage * 100.0
        );
        for (layer, s) in &run.self_s {
            println!(
                "    self time {:<12} {:>10.6} s ({:.1}%)",
                layer,
                s,
                s / run.pipeline_s * 100.0
            );
        }
        for (layer, s) in &run.attributed_s {
            println!(
                "    attributed {:<11} {:>10.6} s ({:.1}%)",
                layer,
                s,
                s / run.pipeline_s * 100.0
            );
        }
        print_ops(&run.ops);
    }
}

fn print_ops(ops: &Operations) {
    println!(
        "  {:<28} {:>14.6} ratio ({} failed of {} operations)",
        "fail_share",
        ops.failed as f64 / ops.attempted as f64,
        ops.failed,
        ops.attempted
    );
    for failure in &ops.failures {
        println!("    FAILED {failure}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn ops(attempted: u64, failed: u64) -> Operations {
        Operations {
            attempted,
            failed,
            failures: vec!["why".into(); failed as usize],
        }
    }

    fn end_to_end() -> EndToEnd {
        EndToEnd {
            wall_s: Summary::of(&[1.25, 1.5, 1.75]),
            peak_rss_mb: Summary::of(&[12.0, 12.5]),
            setup_s: Summary::of(&[1.6]),
            ops: ops(6, 0),
        }
    }

    fn traced() -> Traced {
        Traced {
            metrics: PER_LAYER
                .iter()
                .enumerate()
                .map(|(i, m)| (m.name, i as f64 * 0.5))
                .collect(),
            pipeline_s: 1.2,
            coverage: 0.99,
            self_s: [("core", 0.2), ("spmd-rt", 1.0)].into_iter().collect(),
            attributed_s: vec![("mpi2", 0.7)],
            reps: 3,
            ops: ops(4, 1),
        }
    }

    #[test]
    fn contract_lines_parse_and_hold_exactly_the_declared_metrics() {
        let line = end_to_end_line(&end_to_end()).to_line();
        assert!(!line.contains('\n'));
        let doc = parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["wall_s", "peak_rss_mb", "setup_s"]);
        // wall_s is the fastest sample, the others are medians.
        assert_eq!(metrics[0].1.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(
            metrics[1].1.get("value").and_then(Json::as_f64),
            Some(12.25)
        );
        assert_eq!(metrics[0].1.get("unit").and_then(Json::as_str), Some("s"));

        let doc = parse(&traced_line(&traced()).to_line()).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            doc.get("metrics").and_then(Json::as_obj).unwrap().len(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn workload_json_parses_and_sums_both_halves() {
        let doc = parse(&workload_json(&end_to_end(), &traced()).to_pretty()).unwrap();
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(10.0));
        assert_eq!(doc.get("fail_share").and_then(Json::as_f64), Some(0.1));
        let wall = doc.get("end_to_end").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(wall.get("median").and_then(Json::as_f64), Some(1.5));
        assert_eq!(
            doc.get("spans")
                .unwrap()
                .get("replays")
                .and_then(Json::as_f64),
            Some(3.0)
        );
    }
}
