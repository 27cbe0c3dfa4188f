//! The end-to-end run: what a user of `vpcec` would see. Every number
//! comes from spawning the real binary with the argv a user types, one
//! fresh process per invocation, in a fresh directory with an empty
//! environment, tracing off. Nothing of the stack runs in this
//! process, so the harness stays a few megabytes small (see
//! `child::Finished::peak_rss_mb` for why that matters).

use std::path::Path;
use std::time::Instant;

use crate::check::{self, Pinned};
use crate::child::{self, Finished};
use crate::env::Env;
use crate::stats::{median, Summary};
use crate::workloads::{Inputs, Workload};

/// Complete set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed samples a run reports on, however short `--seconds`.
const MIN_SAMPLES: usize = 3;

/// Operations attempted and failed, with the reasons.
#[derive(Debug, Default, Clone)]
pub struct Operations {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Operations {
    /// Count one operation; `why` non-empty means it failed.
    pub fn record(&mut self, what: &str, why: &[String]) {
        self.attempted += 1;
        if !why.is_empty() {
            self.failed += 1;
            self.failures.push(format!("{what}: {}", why.join("; ")));
        }
    }
}

/// Cost of one execution of a workload's whole command sequence.
#[derive(Debug, Clone)]
pub struct SequenceCost {
    /// Spawn → exit of every invocation, summed.
    pub wall_s: f64,
    /// Largest `ru_maxrss` among the invocations.
    pub peak_rss_mb: f64,
    pub cpu_s: f64,
    pub ctx_switches: f64,
}

/// Run `inputs`' invocations in `dir`, one process each, and hold the
/// outputs against the expectations and the pinned digests. Every
/// invocation is one operation.
pub fn execute(
    vpcec: &Path,
    workload: &Workload,
    inputs: &Inputs,
    pins: Option<&[check::Pin]>,
    dir: &Path,
    ops: &mut Operations,
) -> Result<(SequenceCost, Vec<Finished>), String> {
    let finished = inputs
        .invocations
        .iter()
        .map(|inv| child::run(vpcec, &inv.argv, dir))
        .collect::<Result<Vec<Finished>, String>>()?;
    let outputs: Vec<(i32, &str)> = finished
        .iter()
        .map(|f| (f.exit, f.stdout.as_str()))
        .collect();
    for (inv, why) in inputs
        .invocations
        .iter()
        .zip(check::verify(inputs, &outputs, pins))
    {
        ops.record(
            &format!("{} `vpcec {}`", workload.name, inv.argv.join(" ")),
            &why,
        );
    }
    let cost = SequenceCost {
        wall_s: finished.iter().map(|f| f.wall_s).sum(),
        peak_rss_mb: finished.iter().map(|f| f.peak_rss_mb).fold(0.0, f64::max),
        cpu_s: finished.iter().map(|f| f.cpu_s).sum(),
        ctx_switches: finished.iter().map(|f| f.ctx_switches as f64).sum(),
    };
    Ok((cost, finished))
}

/// The end-to-end result of one run of one workload.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    pub wall_s: Summary,
    pub peak_rss_mb: Summary,
    pub setup_s: Summary,
    pub ops: Operations,
}

/// One run: `SETUPS` complete set-ups, then timed samples for
/// `seconds` seconds (at least `MIN_SAMPLES`).
///
/// A set-up is everything a run needs before its first timed sample:
/// generating the inputs from the seed, loading the pinned references,
/// and one cold execution of the command sequence in a fresh directory
/// (checked like any other; an on-disk cache a later change adds is
/// filled, and paid for, here).
pub fn run(env: &Env, workload: &Workload, seed: u64, seconds: f64) -> Result<EndToEnd, String> {
    let mut ops = Operations::default();
    let mut run_dir = env.run_dir(workload.name)?;

    let mut setups = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let inputs = workload.inputs(seed);
        let pinned = Pinned::load(&env.expected, workload)?;
        let dir = run_dir.fresh(&inputs)?;
        execute(
            &env.vpcec,
            workload,
            &inputs,
            pinned.for_seed(seed),
            &dir,
            &mut ops,
        )?;
        setups.push(start.elapsed().as_secs_f64());
        run_dir.discard(&dir);
        ready = Some((inputs, pinned));
    }
    let (inputs, pinned) = ready.expect("SETUPS is at least one");

    let (mut walls, mut rss) = (Vec::new(), Vec::new());
    let measuring = Instant::now();
    // Stop when another sample of typical length would overrun the window.
    while walls.len() < MIN_SAMPLES || measuring.elapsed().as_secs_f64() + median(&walls) <= seconds
    {
        let dir = run_dir.fresh(&inputs)?;
        let (cost, _) = execute(
            &env.vpcec,
            workload,
            &inputs,
            pinned.for_seed(seed),
            &dir,
            &mut ops,
        )?;
        walls.push(cost.wall_s);
        rss.push(cost.peak_rss_mb);
        run_dir.discard(&dir);
    }
    Ok(EndToEnd {
        wall_s: Summary::of(&walls),
        peak_rss_mb: Summary::of(&rss),
        setup_s: Summary::of(&setups),
        ops,
    })
}
