//! Scheduler sweep — batch throughput over arrival rate × machine
//! size × policy. Each cell submits the same seeded traffic storm (a
//! half-machine-wide low-priority job plus two narrow storms) to
//! `vpce_sched::run_batch` and records the report's headline numbers:
//! utilization, peak gang concurrency, queue-wait and makespan
//! percentiles. `vpce-bench sched` prints the grid; its document is
//! the committed `BENCH_sched.json`. The interesting
//! comparison is fcfs vs backfill under heavy load, where backfill
//! fills the holes in front of the wide job's reservation.

use vpce_diag::json::{self, Layout};
use vpce_sched::{
    run_batch, BatchOptions, BatchReport, BatchSpec, JobSource, JobSpec, Policy, StormSpec,
};

/// One (machine, load, policy) cell of the scheduler sweep.
#[derive(Debug, Clone)]
pub(crate) struct Cell {
    pub nodes: usize,
    pub mesh: String,
    pub load: &'static str,
    pub mean_gap_s: f64,
    pub policy: &'static str,
    pub jobs: usize,
    pub done: usize,
    pub failed: usize,
    pub rejected: usize,
    pub peak_concurrent: usize,
    pub utilization: f64,
    pub horizon_s: f64,
    pub throughput_jobs_per_s: f64,
    pub queue_p50_s: f64,
    pub queue_p99_s: f64,
    pub makespan_p50_s: f64,
    pub makespan_p99_s: f64,
}

/// The arrival-rate axis: mean inter-arrival gap of the storms, from
/// saturating (every job queues) to sparse (the machine drains
/// between arrivals).
pub(crate) fn loads() -> Vec<(&'static str, f64)> {
    vec![("heavy", 5e-5), ("medium", 2e-4), ("light", 1e-3)]
}

/// The seeded storm submitted to every cell: one half-machine wide
/// job arriving mid-storm (it blocks the queue head while narrow jobs
/// hold the mesh — the case that separates fcfs from backfill), plus
/// `per_storm` single-rank and `per_storm` two-rank jobs with
/// exponential arrivals.
fn storm_batch(nodes: usize, policy: Policy, mean_gap_s: f64, per_storm: usize) -> BatchSpec {
    let job = |name: &str, ranks: usize, prio: i64| {
        let mut j = JobSpec::new(name, JobSource::Workload("mm".into()), ranks);
        j.priority = prio;
        j.params = vec![("N".into(), 8)];
        j.granularity = Some(lmad::Granularity::Fine);
        j
    };
    let storm = |prefix: &str, ranks: usize| StormSpec {
        prefix: prefix.into(),
        count: per_storm,
        mean_gap_s,
        start_s: 0.0,
        template: job("", ranks, 1),
    };
    let mut wide = job("wide", nodes / 2, 2);
    // Arrive a few gaps into the storm: the mesh is already occupied,
    // so the wide job becomes the blocked head of the queue.
    wide.arrival = 2.0 * mean_gap_s;
    BatchSpec {
        nodes: Some(nodes),
        policy: Some(policy),
        seed: None, // the sweep seed decides
        probation: None,
        machine: None,
        tenants: Vec::new(),
        jobs: vec![wide],
        storms: vec![storm("a", 1), storm("b", 2)],
    }
}

fn cell(rep: &BatchReport, load: &'static str, mean_gap_s: f64) -> Cell {
    let (queue_p50_s, queue_p99_s) = rep.queue_wait_percentiles();
    let (makespan_p50_s, makespan_p99_s) = rep.makespan_percentiles();
    Cell {
        nodes: rep.nodes,
        mesh: format!("{}x{}", rep.mesh.cols, rep.mesh.rows),
        load,
        mean_gap_s,
        policy: rep.policy.name(),
        jobs: rep.records.len(),
        done: rep.done(),
        failed: rep.failed(),
        rejected: rep.rejected(),
        peak_concurrent: rep.peak_concurrent,
        utilization: rep.utilization,
        horizon_s: rep.horizon,
        throughput_jobs_per_s: rep.throughput(),
        queue_p50_s,
        queue_p99_s,
        makespan_p50_s,
        makespan_p99_s,
    }
}

/// Batch seed and jobs per storm of the committed sweep.
pub(crate) const SEED: u64 = 1;
pub(crate) const JOBS_PER_STORM: usize = 6;

/// Run the sweep: machine sizes × loads × policies, `per_storm` jobs
/// per storm (two storms per cell, plus the wide job).
pub(crate) fn sweep(seed: u64, per_storm: usize) -> Vec<Cell> {
    let loader = |p: &str| Err(format!("sweep jobs are self-contained: `{p}`"));
    let mut out = Vec::new();
    for &nodes in &[8usize, 16] {
        for (load, mean_gap_s) in loads() {
            for policy in [Policy::Fcfs, Policy::Backfill] {
                let spec = storm_batch(nodes, policy, mean_gap_s, per_storm);
                let opts = BatchOptions { seed: Some(seed), ..BatchOptions::default() };
                let rep = run_batch(&spec, &opts, &loader).expect("sweep batch runs");
                out.push(cell(&rep, load, mean_gap_s));
            }
        }
    }
    out
}

/// The sweep's liveness invariant: every fault-free storm completes
/// every job.
pub(crate) fn failures(cells: &[Cell]) -> Vec<String> {
    cells
        .iter()
        .filter(|c| c.done != c.jobs)
        .map(|c| {
            let (n, load, policy) = (c.nodes, c.load, c.policy);
            format!(
                "{n} nodes, {load} load, {policy}: {} of {} jobs finished",
                c.done, c.jobs
            )
        })
        .collect()
}

/// Print the grid and how many cells completed.
pub(crate) fn print_sweep(title: &str, cells: &[Cell]) {
    println!("\n== Scheduler sweep: storm throughput by policy ({title}) ==");
    println!(
        "{:>5} {:>5} {:>7} {:>9} {:>5} {:>5} {:>5} {:>6} {:>10} {:>12} {:>12}",
        "nodes", "mesh", "load", "policy", "jobs", "done", "peak", "util", "horizon", "queue p99", "mkspan p99"
    );
    for c in cells {
        println!(
            "{:>5} {:>5} {:>7} {:>9} {:>5} {:>5} {:>5} {:>5.0}% {:>10} {:>12} {:>12}",
            c.nodes,
            c.mesh,
            c.load,
            c.policy,
            c.jobs,
            c.done,
            c.peak_concurrent,
            c.utilization * 100.0,
            crate::fmt_secs(c.horizon_s),
            crate::fmt_secs(c.queue_p99_s),
            crate::fmt_secs(c.makespan_p99_s),
        );
    }
    let incomplete = failures(cells).len();
    println!(
        "\n{} cells: {} completed every job, {incomplete} incomplete",
        cells.len(),
        cells.len() - incomplete,
    );
}

/// The committed `BENCH_sched.json` (at [`SEED`], [`JOBS_PER_STORM`]).
pub(crate) fn json_doc(cells: &[Cell]) -> String {
    json::document(Layout::Block(2), |o| {
        let mut rows = o.array("cells", Layout::Block(4));
        for c in cells {
            rows.object(Layout::Inline)
                .int("nodes", c.nodes)
                .str("mesh", &c.mesh)
                .str("load", c.load)
                .num("mean_gap_s", c.mean_gap_s)
                .str("policy", c.policy)
                .int("jobs", c.jobs)
                .int("done", c.done)
                .int("failed", c.failed)
                .int("rejected", c.rejected)
                .int("peak_concurrent", c.peak_concurrent)
                .num("utilization", c.utilization)
                .num("horizon_s", c.horizon_s)
                .num("throughput_jobs_per_s", c.throughput_jobs_per_s)
                .num("queue_p50_s", c.queue_p50_s)
                .num("queue_p99_s", c.queue_p99_s)
                .num("makespan_p50_s", c.makespan_p50_s)
                .num("makespan_p99_s", c.makespan_p99_s);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_completes_every_job_and_is_deterministic() {
        let cells = sweep(1, 4);
        assert_eq!(cells.len(), 2 * 3 * 2);
        for c in &cells {
            assert_eq!(c.jobs, 9, "wide + two 4-job storms");
            assert_eq!(c.done, c.jobs, "fault-free storms complete: {c:?}");
            assert_eq!(c.failed + c.rejected, 0, "{c:?}");
            assert!(c.horizon_s > 0.0 && c.utilization > 0.0, "{c:?}");
        }
        let again = sweep(1, 4);
        assert_eq!(json_doc(&cells), json_doc(&again), "sweep must be seed-deterministic");
    }

    #[test]
    fn heavy_load_gangs_more_jobs_than_it_has_room_for_serially() {
        let cells = sweep(1, 4);
        let heavy16 = cells
            .iter()
            .find(|c| c.nodes == 16 && c.load == "heavy" && c.policy == "backfill")
            .unwrap();
        assert!(
            heavy16.peak_concurrent >= 3,
            "heavy storm must gang-schedule: {heavy16:?}"
        );
    }

    #[test]
    fn json_export_is_wellformed() {
        let cells = sweep(1, 2);
        let json = json_doc(&cells);
        assert_eq!(json.matches('{').count(), cells.len() + 1);
        assert!(json.contains("\"queue_p99_s\""), "{json}");
        assert!(!json.contains("inf") && !json.contains("NaN"), "{json}");
    }
}
