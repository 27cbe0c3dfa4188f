//! Rollback-recovery benchmark — what does the insurance premium cost,
//! and how fast is a claim? For each workload the sweep measures:
//!
//! * **checkpoint overhead** — the virtual time spent replicating
//!   fence-boundary snapshots to buddy ranks on a crash-free run, as a
//!   percentage of the run itself (the always-on premium);
//! * **time-to-recover** — the mean virtual time charged to the
//!   `Recovery` critical-path class per absorbed crash schedule
//!   (quiesce + respawn + replay, on top of the premium);
//! * **replay amplification** — total compute done over compute
//!   needed, `(run + replayed regions) / run`, averaged across the
//!   absorbed schedules.
//!
//! Every absorbed schedule is also cross-checked byte-for-byte against
//! the crash-free run — a divergence is a hard failure, not a data
//! point. Every figure is virtual time or a count; `vpce-bench
//! recover` prints the table and its document is the committed
//! `BENCH_recovery.json`.

use spmd_rt::{ExecMode, FaultSpec};
use vpce::{compile, BackendOptions, ClusterConfig, Granularity, Tracer};
use vpce_diag::json::{self, Layout};
use vpce_recover::{run_recovering, RecoverSpec};
use vpce_workloads::{mm, swim};

/// One workload's row in the recovery sweep.
#[derive(Debug, Clone)]
pub(crate) struct RecoverRow {
    pub workload: &'static str,
    /// Per-rank-per-region crash probability driven through the sweep.
    pub crash_rate: f64,
    /// Fence-boundary checkpoints taken on a crash-free run.
    pub checkpoints: usize,
    /// Bytes shipped to buddy replicas per crash-free run.
    pub replicated_bytes: usize,
    /// Crash-free virtual elapsed time (the denominator).
    pub baseline_s: f64,
    /// ckpt_time / baseline, in percent — the always-on premium.
    pub ckpt_overhead_pct: f64,
    /// Seeds whose schedule actually fired (failed without recovery).
    pub crashing: usize,
    /// Schedules the default RecoverSpec absorbed (byte-identical).
    pub recovered: usize,
    /// Schedules typed out as VPCE402/403/404.
    pub unsurvivable: usize,
    /// Mean Recovery-class charge per absorbed schedule.
    pub mean_time_to_recover_s: f64,
    /// Mean (baseline + replay_time) / baseline over absorbed runs.
    pub replay_amplification: f64,
}

/// The whole sweep: one row per workload.
#[derive(Debug, Clone)]
pub(crate) struct RecoverBench {
    pub seeds: u64,
    pub rows: Vec<RecoverRow>,
}

/// Crash schedules per workload in the committed sweep.
pub(crate) const SEEDS: u64 = 32;

fn sweep(workload: &'static str, source: &str, n: i64, rate: f64, seeds: u64) -> RecoverRow {
    let opts = BackendOptions::new(4).granularity(Granularity::Fine);
    let compiled = compile(source, &[("N", n)], &opts).expect("workload compiles");
    let cluster = ClusterConfig::paper_4node();
    let spec = RecoverSpec::default();
    let clean = spmd_rt::execute(&compiled.program, &cluster, ExecMode::Full);

    // The premium: recovery armed, no crash schedule. The run must
    // stay byte-identical and the ledger must stay claim-free.
    let (idle_rep, idle) = run_recovering(
        &compiled.program,
        &cluster,
        ExecMode::Full,
        Tracer::disabled(),
        FaultSpec::off(),
        &spec,
    )
    .expect("crash-free run never needs a claim");
    assert_eq!(idle_rep.arrays, clean.arrays, "{workload}: idle recovery perturbed the run");
    assert!(!idle.absorbed(), "{workload}: phantom rollback on a crash-free run");

    let mut crashing = 0usize;
    let mut recovered = 0usize;
    let mut unsurvivable = 0usize;
    let mut recover_s = 0.0f64;
    let mut amplification = 0.0f64;
    for seed in 0..seeds {
        let faults = FaultSpec::parse(&format!("crash={rate},seed={seed}"))
            .expect("crash spec parses");
        if spmd_rt::try_execute(&compiled.program, &cluster, ExecMode::Full, faults.clone())
            .is_ok()
        {
            continue; // the schedule never fired — not a claim
        }
        crashing += 1;
        match run_recovering(
            &compiled.program,
            &cluster,
            ExecMode::Full,
            Tracer::disabled(),
            faults,
            &spec,
        ) {
            Ok((rep, ledger)) => {
                assert_eq!(
                    rep.arrays, clean.arrays,
                    "{workload} seed {seed}: recovered run diverged"
                );
                assert!(ledger.absorbed());
                recovered += 1;
                recover_s += ledger.recovery_total();
                amplification += (rep.elapsed + ledger.replay_time) / rep.elapsed;
            }
            Err(e) => {
                assert!(e.is_injected(), "{workload} seed {seed}: non-typed failure {e}");
                unsurvivable += 1;
            }
        }
    }

    RecoverRow {
        workload,
        crash_rate: rate,
        checkpoints: idle.checkpoints,
        replicated_bytes: idle.replicated_bytes,
        baseline_s: clean.elapsed,
        ckpt_overhead_pct: 100.0 * idle.ckpt_time / clean.elapsed,
        crashing,
        recovered,
        unsurvivable,
        mean_time_to_recover_s: recover_s / (recovered.max(1) as f64),
        replay_amplification: amplification / (recovered.max(1) as f64),
    }
}

/// Run the sweep: `seeds` crash-only schedules per workload, at the
/// hottest rate each workload still frequently survives.
pub(crate) fn run(seeds: u64) -> RecoverBench {
    let rows = vec![
        sweep("mm", mm::SOURCE, 12, 0.5, seeds),
        sweep("swim", swim::SOURCE, 8, 0.2, seeds),
    ];
    RecoverBench { seeds, rows }
}

/// The sweep's invariants, one line per workload that breaks them:
/// every workload must have exercised real recoveries, paid a real
/// (finite, positive) premium, and replayed at least as much as it ran.
pub(crate) fn failures(b: &RecoverBench) -> Vec<String> {
    b.rows
        .iter()
        .filter(|r| {
            !(r.recovered > 0
                && r.crashing == r.recovered + r.unsurvivable
                && r.ckpt_overhead_pct.is_finite()
                && r.ckpt_overhead_pct > 0.0
                && r.mean_time_to_recover_s > 0.0
                && r.replay_amplification >= 1.0)
        })
        .map(|r| format!("{}: recovery row unhealthy: {r:?}", r.workload))
        .collect()
}

/// Print the table.
pub(crate) fn print(b: &RecoverBench) {
    println!("\n== rollback recovery: {} seeds per workload ==", b.seeds);
    for r in &b.rows {
        println!(
            "  {:<6} crash={:<4} | {} ckpts, {} replica bytes | premium {:.2}% of {}",
            r.workload,
            r.crash_rate,
            r.checkpoints,
            r.replicated_bytes,
            r.ckpt_overhead_pct,
            crate::fmt_secs(r.baseline_s),
        );
        println!(
            "         {} crashing: {} recovered, {} unsurvivable | \
             time-to-recover {} | replay x{:.3}",
            r.crashing,
            r.recovered,
            r.unsurvivable,
            crate::fmt_secs(r.mean_time_to_recover_s),
            r.replay_amplification,
        );
    }
}

/// The committed `BENCH_recovery.json` (at [`SEEDS`] seeds).
pub(crate) fn json_doc(b: &RecoverBench) -> String {
    json::document(Layout::Block(2), |o| {
        o.int("seeds", b.seeds);
        let mut rows = o.array("workloads", Layout::Block(4));
        for r in &b.rows {
            rows.object(Layout::Block(6))
                .str("workload", r.workload)
                .num("crash_rate", r.crash_rate)
                .int("checkpoints", r.checkpoints)
                .int("replicated_bytes", r.replicated_bytes)
                .num("baseline_s", r.baseline_s)
                .num("ckpt_overhead_pct", r.ckpt_overhead_pct)
                .int("crashing", r.crashing)
                .int("recovered", r.recovered)
                .int("unsurvivable", r.unsurvivable)
                .num("mean_time_to_recover_s", r.mean_time_to_recover_s)
                .num("replay_amplification", r.replay_amplification);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_healthy_and_exports_wellformed_json() {
        let b = run(16);
        assert_eq!(failures(&b), Vec::<String>::new());
        assert_eq!(b.rows.len(), 2);
        let json = json_doc(&b);
        assert!(json.contains("\"ckpt_overhead_pct\""), "{json}");
        assert!(json.contains("\"replay_amplification\""), "{json}");
        assert!(!json.contains("inf") && !json.contains("NaN"), "{json}");
    }

    #[test]
    fn sweep_is_deterministic_in_virtual_time() {
        // `f64`'s `Display` round-trips, so equal documents are equal
        // bits in every figure.
        assert_eq!(json_doc(&run(8)), json_doc(&run(8)));
    }
}
