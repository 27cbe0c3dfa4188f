//! Chaos matrix — the fault-injection counterpart of the paper's
//! tables: run the evaluated workloads under seeded fault schedules
//! and record what the self-healing transport did (retransmits,
//! backoff, V-Bus degradation, NIC retries), together with the
//! headline invariant: survivable schedules leave workload results
//! byte-identical to the fault-free run.
//!
//! `vpce-bench chaos` prints the grid; its document is the committed
//! `BENCH_chaos.json`.

use cluster_sim::ClusterConfig;
use lmad::Granularity;
use polaris_be::BackendOptions;
use spmd_rt::{ExecMode, FaultSpec};
use vpce_diag::json::{self, Layout};
use vpce_workloads::{mm, swim};

/// One (workload, schedule, seed) cell of the chaos matrix.
#[derive(Debug, Clone, Default)]
pub(crate) struct Cell {
    pub workload: String,
    pub schedule: &'static str,
    pub seed: u64,
    /// The run completed (no typed error).
    pub survived: bool,
    /// Survived AND produced byte-identical arrays/scalars to the
    /// fault-free run. `false` on a survived run is a bug.
    pub identical: bool,
    /// Typed error kind for unsurvivable schedules, empty otherwise.
    pub error: String,
    pub elapsed: f64,
    pub crc_failures: u64,
    pub packets_dropped: u64,
    pub link_stalls: u64,
    pub retransmits: u64,
    pub backoff_s: f64,
    pub recovery_s: f64,
    pub bus_degraded: u64,
    pub nic_retries: u64,
    pub nic_stalls: u64,
}

/// Workloads evaluated at chaos-matrix size (Full mode, small N —
/// byte-identity needs real numerics).
fn workloads() -> Vec<(&'static str, &'static str, (&'static str, i64))> {
    vec![
        ("MM(16)", mm::SOURCE, ("N", 16)),
        ("SWIM(12)", swim::SOURCE, ("N", 12)),
    ]
}

/// The schedule axis: base presets the matrix sweeps seeds over.
fn schedules() -> Vec<(&'static str, FaultSpec)> {
    vec![
        ("light", FaultSpec::light()),
        ("heavy", FaultSpec::heavy()),
        ("crashy", FaultSpec::crashy()),
    ]
}

/// Seeds per (workload, schedule) pair in the committed matrix.
pub(crate) const SEEDS: u64 = 5;

/// Run the full matrix on `cluster` with `seeds` seeds per
/// (workload, schedule) pair.
pub(crate) fn sweep(cluster: &ClusterConfig, seeds: u64) -> Vec<Cell> {
    let mut out = Vec::new();
    for (name, source, params) in workloads() {
        let opts = BackendOptions::new(cluster.num_nodes()).granularity(Granularity::Fine);
        let compiled = vpce::compile(source, &[params], &opts).expect("workload compiles");
        let clean = spmd_rt::execute(&compiled.program, cluster, ExecMode::Full);
        for (sched_name, base) in schedules() {
            for seed in 1..=seeds {
                let spec = FaultSpec { seed, ..base.clone() };
                let mut cell = Cell {
                    workload: name.to_string(),
                    schedule: sched_name,
                    seed,
                    ..Cell::default()
                };
                match spmd_rt::try_execute(&compiled.program, cluster, ExecMode::Full, spec) {
                    Ok(rep) => {
                        cell.survived = true;
                        cell.identical = spmd_rt::same_bits(&rep.arrays, &clean.arrays)
                            && spmd_rt::same_bits(&rep.scalars, &clean.scalars);
                        cell.elapsed = rep.elapsed;
                        cell.crc_failures = rep.net.crc_failures;
                        cell.packets_dropped = rep.net.packets_dropped;
                        cell.link_stalls = rep.net.link_stalls;
                        cell.retransmits = rep.net.retransmits;
                        cell.backoff_s = rep.net.backoff_time;
                        cell.recovery_s = rep.net.recovery_time;
                        cell.bus_degraded = rep.net.bus_degraded;
                        for s in &rep.rank_stats {
                            cell.nic_retries += s.nic_retries;
                            cell.nic_stalls += s.nic_stalls;
                        }
                    }
                    Err(e) => {
                        cell.error = e.kind().to_string();
                    }
                }
                out.push(cell);
            }
        }
    }
    out
}

/// The matrix's one invariant: a run that survived its schedule left
/// results byte-identical to the fault-free run.
pub(crate) fn failures(cells: &[Cell]) -> Vec<String> {
    cells
        .iter()
        .filter(|c| c.survived && !c.identical)
        .map(|c| {
            let (w, s, seed) = (&c.workload, c.schedule, c.seed);
            format!("{w} {s} seed {seed}: survived but diverged from the fault-free results")
        })
        .collect()
}

/// Print the matrix and its outcome counts.
pub(crate) fn print_sweep(title: &str, cells: &[Cell]) {
    println!("\n== Chaos matrix: self-healing under injected faults ({title}) ==");
    println!(
        "{:>10} {:>7} {:>5} {:>9} {:>10} {:>6} {:>6} {:>6} {:>7} {:>12}",
        "workload", "sched", "seed", "outcome", "elapsed", "crc", "drop", "rexmt", "degrade", "error"
    );
    for c in cells {
        let outcome = if !c.survived {
            "error"
        } else if c.identical {
            "ok"
        } else {
            "DIVERGED"
        };
        println!(
            "{:>10} {:>7} {:>5} {:>9} {:>10} {:>6} {:>6} {:>6} {:>7} {:>12}",
            c.workload,
            c.schedule,
            c.seed,
            outcome,
            crate::fmt_secs(c.elapsed),
            c.crc_failures,
            c.packets_dropped,
            c.retransmits,
            c.bus_degraded,
            if c.error.is_empty() { "-" } else { &c.error },
        );
    }
    let survived = cells.iter().filter(|c| c.survived).count();
    println!(
        "\n{} cells: {survived} survived byte-identical, {} typed errors, {} diverged",
        cells.len(),
        cells.len() - survived,
        failures(cells).len()
    );
}

/// The committed `BENCH_chaos.json` (at [`SEEDS`] seeds).
pub(crate) fn json_doc(cells: &[Cell]) -> String {
    json::document(Layout::Block(2), |o| {
        let mut rows = o.array("cells", Layout::Block(4));
        for c in cells {
            rows.object(Layout::Inline)
                .str("workload", &c.workload)
                .str("schedule", c.schedule)
                .int("seed", c.seed)
                .bool("survived", c.survived)
                .bool("identical", c.identical)
                .str("error", &c.error)
                .num("elapsed", c.elapsed)
                .int("crc_failures", c.crc_failures)
                .int("packets_dropped", c.packets_dropped)
                .int("link_stalls", c.link_stalls)
                .int("retransmits", c.retransmits)
                .num("backoff_s", c.backoff_s)
                .num("recovery_s", c.recovery_s)
                .int("bus_degraded", c.bus_degraded)
                .int("nic_retries", c.nic_retries)
                .int("nic_stalls", c.nic_stalls);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_holds_the_invariant_and_counts_recovery() {
        let cells = sweep(&ClusterConfig::paper_4node(), 3);
        assert_eq!(cells.len(), 2 * 3 * 3);
        let mut recovery = 0u64;
        for c in &cells {
            assert!(
                !c.survived || c.identical,
                "{} {} seed {}: survived but diverged",
                c.workload,
                c.schedule,
                c.seed
            );
            assert!(c.survived || !c.error.is_empty(), "errors carry a kind");
            recovery += c.retransmits + c.bus_degraded + c.nic_retries + c.link_stalls;
        }
        assert!(recovery > 0, "matrix exercised no recovery machinery");
        // Non-crashy schedules are survivable at these sizes.
        assert!(cells
            .iter()
            .filter(|c| c.schedule != "crashy")
            .all(|c| c.survived));
    }

    #[test]
    fn json_export_is_wellformed() {
        let cells = sweep(&ClusterConfig::paper_4node(), 1);
        let json = json_doc(&cells);
        assert_eq!(json.matches('{').count(), cells.len() + 1);
        assert!(json.contains("\"retransmits\""), "{json}");
        assert!(!json.contains("inf") && !json.contains("NaN"), "{json}");
    }
}
