//! `perfbench compare A.json B.json`: hold result file B against
//! result file A (the base of every ratio) under the bounds fixed in
//! `BENCHMARK.json` — times by their bound, counts exactly.

use std::fmt::Write as _;

use crate::json::Json;
use crate::metrics::{Kind, PER_LAYER};
use crate::report::SCHEMA;
use crate::stats::Summary;

/// An end-to-end metric's direction and the share of A's median by
/// which B may be worse.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` bounds of a `BENCHMARK.json` document.
pub fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or_else(|| format!("end_to_end entry without `{k}`"))
            };
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                lower_is_better: match field("better")?.as_str() {
                    Some("lower") => true,
                    Some("higher") => false,
                    _ => return Err("better is neither lower nor higher".to_string()),
                },
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// One side's end-to-end entry: the value that stands for the run, and
/// the samples it was taken from.
fn entry(doc: &Json) -> Result<(f64, Summary), String> {
    let value = doc
        .get("value")
        .and_then(Json::as_f64)
        .ok_or("summary without `value`")?;
    Ok((value, summary(doc)?))
}

fn summary(doc: &Json) -> Result<Summary, String> {
    let num = |k: &str| {
        doc.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("summary without `{k}`"))
    };
    Ok(Summary {
        median: num("median")?,
        q1: num("q1")?,
        q3: num("q3")?,
        min: num("min")?,
        max: num("max")?,
        n: num("n")? as usize,
    })
}

fn workloads(doc: &Json) -> Result<&[(String, Json)], String> {
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} file"));
    }
    doc.get("workloads")
        .and_then(Json::as_obj)
        .ok_or_else(|| "no workloads object".to_string())
}

/// The comparison table and whether B regressed.
pub struct Comparison {
    pub table: String,
    pub regressed: bool,
}

/// Compare two parsed result files under `bounds`.
pub fn compare(a: &Json, b: &Json, bounds: &[Bound]) -> Result<Comparison, String> {
    let (wa, wb) = (
        workloads(a).map_err(|e| format!("A: {e}"))?,
        workloads(b).map_err(|e| format!("B: {e}"))?,
    );
    let mut table = String::new();
    let mut regressed = false;
    let _ = writeln!(
        table,
        "{:<10} {:<28} {:>44} {:>44} {:>8}  verdict",
        "workload", "metric", "A value (median [q1, q3])", "B value (median [q1, q3])", "B/A"
    );
    for (name, ra) in wa {
        let rb = &wb
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| format!("B has no workload `{name}`"))?
            .1;
        for bound in bounds {
            let side = |r: &Json| {
                r.get("end_to_end")
                    .and_then(|e| e.get(&bound.name))
                    .ok_or_else(|| format!("{name}: no end-to-end metric `{}`", bound.name))
                    .and_then(entry)
            };
            let ((va, sa), (vb, sb)) = (side(ra)?, side(rb)?);
            // Positive when B is worse, as a share of A's value.
            let worse_by = if bound.lower_is_better {
                vb - va
            } else {
                va - vb
            } / va.abs();
            let b_always_better = if bound.lower_is_better {
                sb.max < sa.min
            } else {
                sb.min > sa.max
            };
            let verdict =
                if (sa.spread() > bound.bound || sb.spread() > bound.bound) && !b_always_better {
                    format!(
                        "unresolved (spread A {:.1}%, B {:.1}% > bound {:.0}%)",
                        sa.spread() * 100.0,
                        sb.spread() * 100.0,
                        bound.bound * 100.0
                    )
                } else if worse_by > bound.bound {
                    regressed = true;
                    format!(
                        "REGRESSION (worse by {:.1}% > bound {:.0}%)",
                        worse_by * 100.0,
                        bound.bound * 100.0
                    )
                } else {
                    format!("ok (bound {:.0}%)", bound.bound * 100.0)
                };
            let cell = |v: f64, s: &Summary| {
                format!("{v:.6} ({:.6} [{:.6}, {:.6}])", s.median, s.q1, s.q3)
            };
            let _ = writeln!(
                table,
                "{:<10} {:<28} {:>44} {:>44} {:>8.4}  {verdict}",
                name,
                bound.name,
                cell(va, &sa),
                cell(vb, &sb),
                vb / va,
            );
        }
        let fail = |r: &Json| {
            r.get("fail_share")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: no fail_share"))
        };
        let (fa, fb) = (fail(ra)?, fail(rb)?);
        let verdict = if fa == 0.0 && fb == 0.0 {
            "ok (must be 0)"
        } else {
            regressed = true;
            "REGRESSION (must be 0)"
        };
        let _ = writeln!(
            table,
            "{:<10} {:<28} {:>44.6} {:>44.6} {:>8}  {verdict}",
            name, "fail_share", fa, fb, ""
        );
        for metric in &PER_LAYER {
            let value = |r: &Json| {
                r.get("per_layer")
                    .and_then(|p| p.get(metric.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{name}: no per-layer metric `{}`", metric.name))
            };
            let (va, vb) = (value(ra)?, value(rb)?);
            let ratio = if va != 0.0 {
                format!("{:.4}", vb / va)
            } else {
                "-".to_string()
            };
            let verdict = match metric.kind {
                Kind::Measured => "",
                Kind::Exact if va == vb => "identical",
                Kind::Exact => {
                    regressed = true;
                    "COUNT DIFFERS"
                }
            };
            let _ = writeln!(
                table,
                "{:<10} {:<28} {:>44.6} {:>44.6} {:>8}  {verdict}",
                name, metric.name, va, vb, ratio
            );
        }
    }
    Ok(Comparison { table, regressed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn bounds_doc() -> Vec<Bound> {
        let doc = parse(
            r#"{"end_to_end": [
                {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        bounds(&doc).unwrap()
    }

    /// A result file with one workload whose wall samples are `wall`
    /// and whose exact counts all read `count`.
    fn result(wall: &[f64], count: f64, fail_share: f64) -> Json {
        let s = |v: &[f64]| {
            let s = Summary::of(v);
            crate::report::summary_json(&s, s.min, "s")
        };
        let per_layer = PER_LAYER.iter().map(|m| {
            let v = if m.kind == Kind::Exact { count } else { 0.5 };
            (
                m.name,
                Json::obj([("value", Json::Num(v)), ("unit", Json::str(m.unit))]),
            )
        });
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            (
                "workloads",
                Json::obj([(
                    "mm_full",
                    Json::obj([
                        ("fail_share", Json::Num(fail_share)),
                        (
                            "end_to_end",
                            Json::obj([("wall_s", s(wall)), ("setup_s", s(&[2.0, 2.0, 2.0]))]),
                        ),
                        ("per_layer", Json::obj(per_layer)),
                    ]),
                )]),
            ),
        ])
    }

    const STEADY: [f64; 5] = [1.0, 1.01, 1.0, 0.99, 1.0];

    #[test]
    fn reads_bounds_from_the_benchmark_file() {
        let b = bounds_doc();
        assert_eq!(b.len(), 2);
        assert_eq!(
            b[0],
            Bound {
                name: "wall_s".into(),
                lower_is_better: true,
                bound: 0.1
            }
        );
        assert!(bounds(&parse("{}").unwrap()).is_err());
    }

    #[test]
    fn same_numbers_agree() {
        let a = result(&STEADY, 7.0, 0.0);
        let c = compare(&a, &a, &bounds_doc()).unwrap();
        assert!(!c.regressed, "{}", c.table);
        assert!(c.table.contains("identical") && c.table.contains("ok (bound 10%)"));
    }

    #[test]
    fn slower_than_the_bound_is_a_regression_and_within_it_is_not() {
        let a = result(&STEADY, 7.0, 0.0);
        let within = result(&STEADY.map(|v| v * 1.08), 7.0, 0.0);
        assert!(!compare(&a, &within, &bounds_doc()).unwrap().regressed);
        let beyond = result(&STEADY.map(|v| v * 1.2), 7.0, 0.0);
        let c = compare(&a, &beyond, &bounds_doc()).unwrap();
        assert!(
            c.regressed && c.table.contains("REGRESSION (worse by 20.0%"),
            "{}",
            c.table
        );
        // Faster is never a regression.
        assert!(!compare(&beyond, &a, &bounds_doc()).unwrap().regressed);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_one_side_always_wins() {
        let a = result(&STEADY, 7.0, 0.0);
        let noisy = result(&[0.9, 1.3, 1.0, 1.6, 1.2], 7.0, 0.0);
        let c = compare(&a, &noisy, &bounds_doc()).unwrap();
        assert!(
            !c.regressed && c.table.contains("unresolved"),
            "{}",
            c.table
        );
        // Noisy but every run faster than every run of A: resolved.
        let fast = result(&[0.5, 0.7, 0.6, 0.8, 0.9], 7.0, 0.0);
        let c = compare(&a, &fast, &bounds_doc()).unwrap();
        assert!(
            !c.regressed && !c.table.contains("unresolved"),
            "{}",
            c.table
        );
    }

    #[test]
    fn a_moved_count_or_a_failure_is_a_regression() {
        let a = result(&STEADY, 7.0, 0.0);
        let c = compare(&a, &result(&STEADY, 8.0, 0.0), &bounds_doc()).unwrap();
        assert!(c.regressed && c.table.contains("COUNT DIFFERS"));
        let c = compare(&a, &result(&STEADY, 7.0, 0.25), &bounds_doc()).unwrap();
        assert!(c.regressed && c.table.contains("REGRESSION (must be 0)"));
    }

    #[test]
    fn malformed_files_are_errors_not_verdicts() {
        let a = result(&STEADY, 7.0, 0.0);
        assert!(compare(&a, &parse("{}").unwrap(), &bounds_doc()).is_err());
        let other = parse(&a.to_line().replace("mm_full", "mm_wire")).unwrap();
        assert!(compare(&a, &other, &bounds_doc()).is_err());
    }
}
