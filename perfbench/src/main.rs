//! `perfbench` — the host-time benchmark of the vpce stack.
//!
//! ```text
//! perfbench [run] [--workload W] [--seed S] [--seconds T] [--trace 0|1]
//! perfbench bless
//! perfbench compare A.json B.json
//! ```
//!
//! `run` measures one workload (or all six): `--trace 0` the
//! end-to-end half (the real `vpcec`, spawned), `--trace 1` the
//! per-layer half (the traced replay), neither flag both halves plus
//! `perfbench/out/result.json`. With `--workload` and `--trace` the
//! last line of stdout is the acceptance contract's result object.
//! `perfbench/run.sh` builds both binaries and forwards its arguments
//! here; see `perfbench/README.md`.

mod check;
mod child;
mod compare;
mod e2e;
mod env;
mod json;
mod layers;
mod metrics;
mod report;
mod rng;
mod span;
mod stats;
mod traced;
mod workloads;

use std::process::ExitCode;

use env::Env;
use json::Json;
use workloads::{Workload, WORKLOADS};

/// Default `--seconds`; `BENCHMARK.json`'s `run_seconds`.
const RUN_SECONDS: f64 = 14.0;
/// The seed `bless` pins seed-dependent reports at, and the default
/// `--seed`.
const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "\
usage: perfbench [run] [--workload W] [--seed S] [--seconds T] [--trace 0|1]
       perfbench bless
       perfbench compare A.json B.json
";

#[derive(Debug)]
struct RunArgs {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    /// `Some(false)`: end-to-end half only; `Some(true)`: traced half
    /// only; `None`: both.
    trace: Option<bool>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                out.workload = Some(
                    workloads::find(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => out.seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                out.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(out)
}

fn run(args: &RunArgs) -> Result<(), String> {
    let env = Env::locate()?;
    let selected: Vec<&Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    // Every end-to-end half runs before the first traced half: a
    // replay grows this process, and a child's `ru_maxrss` is never
    // below the harness's own size at spawn (see `child::Finished`).
    let mut end_to_end = Vec::new();
    if args.trace != Some(true) {
        for workload in &selected {
            let run = e2e::run(&env, workload, args.seed, args.seconds)?;
            report::print_workload(workload, Some(&run), None);
            if args.trace.is_some() {
                println!("{}", report::end_to_end_line(&run).to_line());
            }
            end_to_end.push(run);
        }
    }
    let mut results = Vec::new();
    if args.trace != Some(false) {
        for (i, workload) in selected.iter().enumerate() {
            let run = traced::run(&env, workload, args.seed, args.seconds)?;
            report::print_workload(workload, None, Some(&run));
            match end_to_end.get(i) {
                Some(e2e) => results.push((workload.name, report::workload_json(e2e, &run))),
                None => println!("{}", report::traced_line(&run).to_line()),
            }
        }
    }
    if !results.is_empty() {
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        let doc = Json::obj([
            ("schema", Json::str(report::SCHEMA)),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("cores", Json::Num(cores as f64)),
            ("workloads", Json::obj(results)),
        ]);
        let path = env.out.join("result.json");
        env::write(&path, &doc.to_pretty())?;
        println!("result written to {}", path.display());
    }
    Ok(())
}

/// Pin the report digests of this commit's `vpcec` under
/// `perfbench/expected/`. Refuses a report that fails its exit code or
/// hand-written expectation: only a passing state is a reference.
fn bless() -> Result<(), String> {
    let env = Env::locate()?;
    let mut run_dir = env.run_dir("bless")?;
    for workload in &WORKLOADS {
        let inputs = workload.inputs(DEFAULT_SEED);
        let dir = run_dir.fresh(&inputs)?;
        let mut ops = e2e::Operations::default();
        let (_, finished) = e2e::execute(&env.vpcec, workload, &inputs, None, &dir, &mut ops)?;
        if ops.failed > 0 {
            return Err(format!("refusing to bless: {}", ops.failures.join("\n")));
        }
        let pinned = check::Pinned {
            seed: (!workload.seed_independent()).then_some(DEFAULT_SEED),
            pins: finished
                .iter()
                .map(|f| check::Pin::of(f.exit, &f.stdout))
                .collect(),
        };
        let path = env.expected.join(format!("{}.digest", workload.name));
        env::write(&path, &pinned.render(workload.name))?;
        println!("blessed {}", path.display());
    }
    Ok(())
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `Ok(true)` when B regressed against A.
fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let bounds = compare::bounds(&read_json("BENCHMARK.json")?)?;
    let verdict = compare::compare(&read_json(a)?, &read_json(b)?, &bounds)?;
    print!("{}", verdict.table);
    println!("ratios are B/A: base A = {a}, B = {b}");
    Ok(verdict.regressed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("bless") if argv.len() == 1 => bless().map(|()| false),
        Some("compare") if argv.len() == 3 => compare_files(&argv[1], &argv[2]),
        Some("bless" | "compare" | "--help" | "-h") => Err(USAGE.to_string()),
        first => {
            let flags = if first == Some("run") {
                &argv[1..]
            } else {
                &argv[..]
            };
            parse_run_args(flags).and_then(|a| run(&a)).map(|()| false)
        }
    };
    match outcome {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => {
            eprintln!("perfbench: regression");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{is_valid_name, END_TO_END, PER_LAYER};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_contract_flags() {
        let a = parse_run_args(&argv("--workload mm_wire --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(a.workload.map(|w| w.name), Some("mm_wire"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3.0, Some(true)));
        let d = parse_run_args(&[]).unwrap();
        assert!(d.workload.is_none());
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (DEFAULT_SEED, RUN_SECONDS, None)
        );
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds nan",
            "--trace 2",
            "--seed",
            "--bogus 1",
        ] {
            assert!(parse_run_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// `BENCHMARK.json` is what the acceptance driver reads; the tables
    /// in `metrics` and `workloads` are what the code measures. They
    /// must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables_in_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS)
        );
        let strs = |k: &str| -> Vec<&str> {
            doc.get(k)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|v| v.as_str().unwrap())
                .collect()
        };
        assert_eq!(strs("command"), ["bash", "perfbench/run.sh"]);
        assert_eq!(strs("paths"), ["perfbench"]);

        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();
        let listed = doc.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (entry, w) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(
                (field(entry, "name"), field(entry, "why")),
                (w.name.to_string(), w.why.to_string())
            );
        }
        let listed = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, m) in listed.iter().zip(&END_TO_END) {
            assert_eq!(
                (
                    field(entry, "name"),
                    field(entry, "unit"),
                    field(entry, "better")
                ),
                (m.name.to_string(), m.unit.to_string(), m.better.to_string())
            );
            let bound = entry.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(listed.iter().any(|e| field(e, "name") == "setup_s"));
        let listed = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, m) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(
                (
                    field(entry, "name"),
                    field(entry, "unit"),
                    field(entry, "better")
                ),
                (m.name.to_string(), m.unit.to_string(), m.better.to_string())
            );
            assert!(is_valid_name(m.name));
            assert_eq!(
                entry.as_obj().unwrap().len(),
                3,
                "{}: exactly name, unit, better",
                m.name
            );
        }
    }

    /// Every workload has a pinned reference, and it parses.
    #[test]
    fn every_workload_has_a_pinned_digest_file() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("expected");
        for w in &WORKLOADS {
            let pinned = check::Pinned::load(&dir, w).unwrap();
            assert_eq!(
                pinned.pins.len(),
                w.inputs(DEFAULT_SEED).invocations.len(),
                "{}",
                w.name
            );
            assert_eq!(pinned.seed.is_none(), w.seed_independent(), "{}", w.name);
        }
    }
}
