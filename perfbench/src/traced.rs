//! The traced run: the per-layer ledger. The workload's pipeline is
//! replayed in this process through `layers`, one span per layer call,
//! and the spawned binary's report is held against the replay's, so
//! the per-layer numbers provably describe the work `wall_s` times.
//! End-to-end metrics never come from here.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::check::Pinned;
use crate::e2e::{self, Operations};
use crate::env::{self, Env};
use crate::layers::{self, Observed, ProgramRun, Rendered};
use crate::metrics::PER_LAYER;
use crate::span::{chrome_trace, Spans};
use crate::stats::median;
use crate::workloads::{self, Inputs, Workload};

/// Fewest pipeline replays per run: two, so every run checks that the
/// counts repeat.
const MIN_REPS: usize = 2;
/// Largest error tolerated between the replay's `C` and the native MM
/// reference (the differential tests' own tolerance).
const MM_TOLERANCE: f64 = 1e-12;

/// The per-layer result of one run of one workload.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Every per-layer metric, by name; a layer that does no work in
    /// this workload reads 0.
    pub metrics: BTreeMap<&'static str, f64>,
    /// In-process time of the whole command sequence (median replay).
    pub pipeline_s: f64,
    /// Share of the pipeline root spans their child spans account for.
    pub coverage: f64,
    /// Self time per layer inside the pipeline (median replay).
    pub self_s: BTreeMap<&'static str, f64>,
    /// Seconds of the pipeline attributed to layers that only run
    /// nested inside another layer's span: exact count × microkernel
    /// unit cost.
    pub attributed_s: Vec<(&'static str, f64)>,
    pub reps: usize,
    pub ops: Operations,
}

/// One replay of the whole command sequence.
struct Replay {
    rendered: Vec<Rendered>,
    observed: Vec<Observed>,
    /// The single-program pipeline's artifacts, for the probes.
    program: Option<ProgramRun>,
}

fn replay(inputs: &Inputs, dir: &Path, spans: &mut Spans) -> Result<Replay, String> {
    let mut out = Replay {
        rendered: Vec::new(),
        observed: Vec::new(),
        program: None,
    };
    for inv in &inputs.invocations {
        let input_text = |name: &str| {
            inputs
                .files
                .iter()
                .find(|(file, _)| *file == name)
                .map(|(_, text)| text.as_str())
                .ok_or_else(|| format!("`vpcec {}` names no generated file", inv.argv.join(" ")))
        };
        let (rendered, observed) = match inv.argv[0].as_str() {
            "--batch" => layers::batch_pipeline(spans, input_text(&inv.argv[1])?, &inv.argv)?,
            "--serve" => layers::serve_pipeline(spans, input_text(&inv.argv[1])?, &inv.argv, dir)?,
            file => {
                let run = layers::program_pipeline(spans, input_text(file)?, &inv.argv)?;
                let pair = (run.rendered.clone(), run.observed.clone());
                out.program = Some(run);
                pair
            }
        };
        out.rendered.push(rendered);
        out.observed.push(observed);
    }
    Ok(out)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One traced run: the binary once (for the cross-check and its
/// rusage), the microkernels, then the pipeline replayed for `seconds`
/// seconds (at least `MIN_REPS` times) with the probes after the first
/// replay. Writes `<out>/<workload>.trace.json`.
pub fn run(env: &Env, workload: &Workload, seed: u64, seconds: f64) -> Result<Traced, String> {
    let measuring = Instant::now();
    let mut ops = Operations::default();
    let inputs = workload.inputs(seed);
    let pinned = Pinned::load(&env.expected, workload)?;
    let mut run_dir = env.run_dir(&format!("{}-traced", workload.name))?;

    // The binary goes first, while this process is still small.
    let dir = run_dir.fresh(&inputs)?;
    let (binary, finished) = e2e::execute(
        &env.vpcec,
        workload,
        &inputs,
        pinned.for_seed(seed),
        &dir,
        &mut ops,
    )?;
    run_dir.discard(&dir);

    // Root spans outside any pipeline: microkernels, then probes.
    let mut aux = Spans::default();
    let mut aux_observed = vec![layers::microkernels(
        &mut aux,
        &workloads::p2p_pattern(seed),
        &workloads::bcast_pattern(seed),
        &workloads::put_offsets(seed),
    )];

    let mut reps: Vec<(Spans, Vec<Observed>)> = Vec::new();
    let mut durations = Vec::new();
    while reps.len() < MIN_REPS || measuring.elapsed().as_secs_f64() + median(&durations) <= seconds
    {
        let mut spans = Spans::default();
        let dir = run_dir.fresh(&inputs)?;
        let replayed = replay(&inputs, &dir, &mut spans)?;
        run_dir.discard(&dir);

        let mut why = Vec::new();
        for ((inv, rendered), bin) in inputs
            .invocations
            .iter()
            .zip(&replayed.rendered)
            .zip(&finished)
        {
            if rendered.exit != bin.exit || rendered.text != bin.stdout {
                why.push(format!(
                    "in-process `vpcec {}` rendered a different report than the binary (exit {} vs {})",
                    inv.argv.join(" "),
                    rendered.exit,
                    bin.exit
                ));
            }
        }
        if let (Some(n), Some(program)) = (workload.mm_order(), &replayed.program) {
            match program.mm_reference_error(n) {
                Some(err) if err < MM_TOLERANCE => {}
                other => why.push(format!("C against mm::reference({n}): max error {other:?}")),
            }
        }
        if let Some((_, first)) = reps.first() {
            let same = first
                .iter()
                .zip(&replayed.observed)
                .all(|(a, b)| a.counts == b.counts);
            if !same {
                why.push("counts differ from the first replay".into());
            }
        }
        ops.record(&format!("{} traced pipeline", workload.name), &why);

        if reps.is_empty() {
            aux_observed.push(match &replayed.program {
                Some(program) => program.probes(&mut aux),
                None => layers::storm_probes(&mut aux, &inputs.files[0].1)?,
            });
        }
        durations.push(spans.total("core.pipeline"));
        reps.push((spans, replayed.observed));
    }

    // Assemble every per-layer metric.
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    for observed in reps[0].1.iter().chain(&aux_observed) {
        // A count several invocations report is the sequence's total.
        for &(name, value) in &observed.counts {
            *values.entry(name).or_insert(0.0) += value;
        }
        values.extend(observed.times.iter().copied());
    }
    let aux_totals = aux.totals();
    // Median over the replays of a pipeline span, else the one
    // measurement of a probe or microkernel span; `None` if no span of
    // that name was recorded.
    let seconds_of = |span: &str| -> Option<f64> {
        let per_rep: Vec<f64> = reps.iter().map(|(s, _)| s.total(span)).collect();
        if per_rep.iter().any(|&t| t > 0.0) {
            Some(median(&per_rep))
        } else {
            aux_totals.get(span).copied()
        }
    };
    for metric in &PER_LAYER {
        if let Some(seconds) = metric.name.strip_suffix("_s").and_then(seconds_of) {
            values.insert(metric.name, seconds);
        }
    }
    // The median replay stands for the run in the span summaries and
    // in the trace file.
    let mid = {
        let mut order: Vec<usize> = (0..reps.len()).collect();
        order.sort_by(|&a, &b| durations[a].total_cmp(&durations[b]));
        order[order.len() / 2]
    };
    let pipeline_s = durations[mid];
    let v = |name: &str| values.get(name).copied().unwrap_or(0.0);
    let iters = workload.mm_order().map_or(0.0, |n| (n as f64).powi(3));
    let submitted = inputs.files[0]
        .1
        .lines()
        .filter(|l| !l.starts_with('#'))
        .count() as f64;
    let derived = [
        ("core.cpu_s", binary.cpu_s),
        ("core.ctx_switches", binary.ctx_switches),
        (
            "core.trace_overhead_ratio",
            ratio(pipeline_s, binary.wall_s),
        ),
        (
            "polaris-be.us_per_transfer",
            ratio(v("polaris-be.plan_s") * 1e6, v("polaris-be.transfers")),
        ),
        (
            "rmacheck.us_per_event",
            ratio(v("rmacheck.lint_s") * 1e6, v("rmacheck.events")),
        ),
        ("spmd-rt.inner_iters", iters),
        (
            "spmd-rt.seq_ns_per_iter",
            ratio(v("spmd-rt.seq_s") * 1e9, iters),
        ),
        (
            "spmd-rt.par_ns_per_iter",
            ratio(v("spmd-rt.exec_s") * 1e9, iters),
        ),
        (
            "mpi2.exec_us_per_msg",
            ratio(v("spmd-rt.exec_s") * 1e6, v("vbus-sim.p2p_messages")),
        ),
        (
            "sched.us_per_job",
            ratio(v("sched.batch_s") * 1e6, v("sched.jobs")),
        ),
        ("serve.submits_per_s", ratio(submitted, v("serve.ingest_s"))),
        (
            "trace.exec_ratio",
            ratio(
                seconds_of("trace.exec_live").unwrap_or(0.0),
                v("spmd-rt.exec_s"),
            ),
        ),
    ];
    // `mpi2`, `vbus-sim` and `lmad` cannot be spanned from outside
    // while nested in `exec`, `plan` or `lint`; their share is their
    // exact count times the unit cost the microkernels measured. A PUT's
    // unit cost includes the wire simulation it triggers, and the lmad
    // figure is one sweep over the plan's footprints, a lower bound on
    // what the planner and the checker spend there.
    let attributed_s = vec![
        ("mpi2", v("mpi2.put_fence_us") * 1e-6 * v("mpi2.rma_ops")),
        (
            "vbus-sim",
            v("vbus-sim.p2p_ns") * 1e-9 * v("vbus-sim.p2p_messages")
                + v("vbus-sim.bcast_ns") * 1e-9 * v("vbus-sim.broadcasts"),
        ),
        (
            "lmad",
            v("lmad.overlap_ns") * 1e-9 * v("lmad.pair_tests")
                + v("lmad.any_overlap_s")
                + v("lmad.lower_s"),
        ),
    ];
    values.extend(derived);
    let metrics = PER_LAYER
        .iter()
        .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0)))
        .collect();

    let spans = &reps[mid].0;
    let mut events = spans.chrome_events(workload.name, 1, "pipeline");
    events.extend(aux.chrome_events(workload.name, 2, "microkernels and probes"));
    let trace = chrome_trace(events);
    env::write(
        &env.out.join(format!("{}.trace.json", workload.name)),
        &trace.to_pretty(),
    )?;

    Ok(Traced {
        metrics,
        pipeline_s,
        coverage: spans.coverage("core.pipeline"),
        self_s: spans.self_time_by_layer(),
        attributed_s,
        reps: reps.len(),
        ops,
    })
}
