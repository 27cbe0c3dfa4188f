//! `vpced` service benchmark — what does crash-safety cost in journal
//! bytes, and does the daemon always come back? A synthetic two-tenant
//! storm is driven through a journaled daemon three ways:
//!
//! * **ingest + drain** — every submission applied and journaled, the
//!   machine drained, the journal sealed (its size is the durability
//!   bill);
//! * **recovery** — the sealed journal reopened: every input replayed,
//!   every derived record cross-checked, the report re-derived (a
//!   crash at the worst offset: the very end);
//! * **kill matrix** — the full seeded murder sweep: every kill point
//!   must fire and every restart must converge to the baseline bytes.
//!
//! Every number here is a count, so the run is deterministic:
//! `vpce-bench serve` prints the table and its document is the
//! committed `BENCH_serve.json`. How long the *host* takes to
//! ingest, drain and recover is `perfbench`'s to measure
//! (`serve.ingest_s`, `serve.submits_per_s`, `serve.drain_s`,
//! `serve.recover_s`).

use spmd_rt::ExecMode;
use vpce_diag::json::{self, Layout};
use vpce_serve::{kill_matrix, Daemon, MemStorage, Runner};

/// Submissions and kill points of the committed run.
pub(crate) const JOBS: usize = 24;
pub(crate) const KILL_POINTS: usize = 64;

/// Headline numbers of one service benchmark run.
#[derive(Debug, Clone)]
pub(crate) struct ServeBench {
    pub jobs: usize,
    /// Input lines journaled (directives + submissions).
    pub inputs: usize,
    /// Sealed journal size in bytes.
    pub journal_bytes: u64,
    pub kill_points: usize,
    pub kill_restarts: u64,
    pub kill_divergent: usize,
}

/// The benchmark script: two tenants (one quota-throttled), `jobs`
/// alternating 1-/2-rank submissions with staggered arrivals.
pub(crate) fn storm_script(jobs: usize) -> Vec<String> {
    let mut lines = vec![
        "nodes=16".to_string(),
        "seed=1".to_string(),
        "tenant name=acme share=2 quota=8".to_string(),
        "tenant name=beta share=1".to_string(),
    ];
    for i in 0..jobs {
        let tenant = if i % 2 == 0 { "acme" } else { "beta" };
        lines.push(format!(
            "job name=j{i} tenant={tenant} workload=mm ranks={} param:N=8 arrive={}",
            1 + i % 2,
            (i as f64) * 2e-5,
        ));
    }
    lines
}

/// Run the benchmark: ingest + drain a fresh daemon, recover from the
/// sealed journal, then sweep `kill_points` seeded kills.
pub(crate) fn run(jobs: usize, kill_points: usize) -> ServeBench {
    let runner = Runner::new(ExecMode::Full);
    let script = storm_script(jobs);

    let mut storage = MemStorage::default();
    {
        let (mut daemon, _) = Daemon::open(&mut storage, &runner).expect("fresh journal opens");
        for line in &script {
            daemon.submit(line).expect("benchmark submissions are valid");
        }
        daemon.drain().expect("benchmark batch drains");
    }
    let journal_bytes = storage.bytes.len() as u64;

    // A daemon that died right after sealing must come back.
    {
        let (mut daemon, recovery) =
            Daemon::open(&mut storage, &runner).expect("sealed journal recovers");
        assert!(recovery.finished, "journal must be sealed");
        daemon.drain().expect("replay drains");
        assert!(!daemon.report_json().is_empty());
    }

    let summary = kill_matrix(&runner, &script, kill_points).expect("kill matrix completes");

    ServeBench {
        jobs,
        inputs: script.len(),
        journal_bytes,
        kill_points: summary.points,
        kill_restarts: summary.restarts,
        kill_divergent: summary.divergent.len(),
    }
}

/// The run's invariant: the journal holds the run, and the kill matrix
/// fires everywhere and never diverges.
pub(crate) fn failures(b: &ServeBench) -> Vec<String> {
    let (divergent, restarts, points) = (b.kill_divergent, b.kill_restarts, b.kill_points);
    if divergent == 0 && restarts >= points as u64 && b.journal_bytes > 0 {
        return Vec::new();
    }
    vec![format!(
        "{divergent} divergent, {restarts} restarts over {points} kill points, {} journal bytes",
        b.journal_bytes
    )]
}

/// Print the table.
pub(crate) fn print(b: &ServeBench) {
    println!("\n== vpced service benchmark: {} jobs, {} inputs ==", b.jobs, b.inputs);
    println!("  journal           {:>10} bytes (sealed)", b.journal_bytes);
    println!(
        "  kill matrix       {} points, {} restarts, {} divergent",
        b.kill_points, b.kill_restarts, b.kill_divergent,
    );
}

/// The committed `BENCH_serve.json` (at [`JOBS`], [`KILL_POINTS`]).
pub(crate) fn json_doc(b: &ServeBench) -> String {
    json::document(Layout::Block(2), |o| {
        o.int("jobs", b.jobs)
            .int("inputs", b.inputs)
            .int("journal_bytes", b.journal_bytes)
            .int("kill_points", b.kill_points)
            .int("kill_restarts", b.kill_restarts)
            .int("kill_divergent", b.kill_divergent);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpce_serve::{run_session, KillStorage};

    #[test]
    fn bench_runs_and_exports_wellformed_json() {
        let b = run(6, 8);
        assert_eq!(failures(&b), Vec::<String>::new());
        assert_eq!(b.jobs, 6);
        assert_eq!(b.inputs, 10, "4 directives + 6 jobs");
        let json = json_doc(&b);
        assert!(json.contains("\"journal_bytes\""), "{json}");
        assert!(!json.contains("wall"), "host time is perfbench's: {json}");
    }

    #[test]
    fn storm_script_replays_deterministically() {
        let runner = Runner::new(ExecMode::Full);
        let script = storm_script(4);
        let mut a = MemStorage::default();
        let mut b = MemStorage::default();
        let ra = run_session(&runner, &mut a, &script).unwrap();
        let rb = run_session(&runner, &mut b, &script).unwrap();
        assert_eq!(ra.report_json, rb.report_json);
        assert_eq!(a.bytes, b.bytes);
        // And a killed session converges to the same bytes.
        let mut k = KillStorage::new(MemStorage::default(), Some(64)).unwrap();
        let rk = run_session(&runner, &mut k, &script).unwrap();
        assert!(rk.restarts >= 1);
        assert_eq!(rk.report_json, ra.report_json);
    }
}
