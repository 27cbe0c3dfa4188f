//! Table 1 — "Total execution time of the MM code": speedups of the
//! compiled parallel MM over the sequential original, for matrix
//! sizes 256²/512²/1024² on 1/2/4 nodes.
//!
//! Two hardware variants are reported: the nominal card (§2.1 specs:
//! 50 MB/s SKWP links) and the calibrated prototype
//! ([`vpce_machine::MachineSpec::prototype`]), whose ≈6 MB/s
//! achieved bandwidth reconciles the paper's own speedup numbers.

use lmad::Granularity;
use polaris_be::BackendOptions;
use spmd_rt::ExecMode;
use vpce_diag::json::{self, Layout};
use vpce_machine::MachineSpec;

/// The paper's Table 1 values, `paper[size][nodes]` with
/// sizes = [256, 512, 1024] and nodes = [1, 2, 4].
pub(crate) const PAPER: [[f64; 3]; 3] = [
    [0.96, 1.086, 1.75],
    [0.96, 1.53, 2.74],
    [0.96, 1.60, 3.033],
];

/// Sizes and node counts of the sweep.
pub(crate) const SIZES: [i64; 3] = [256, 512, 1024];
pub(crate) const NODES: [usize; 3] = [1, 2, 4];

/// One measured cell.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cell {
    pub size: i64,
    pub nodes: usize,
    pub seq_time: f64,
    pub par_time: f64,
    pub speedup: f64,
    pub comm_time: f64,
}

/// Speedups of `source` (parameter `N` ∈ `sizes`) on each node count
/// of `nodes`, on one machine (e.g. the `paper` or the `prototype`
/// preset). Table 1 is MM at [`SIZES`] ×
/// [`NODES`]; the scaling table takes MM and SWIM past the paper's
/// four nodes.
///
/// Uses coarse granularity (the fewest-setup plan — what a user would
/// pick for MM per §5.6) and analytic execution (identical virtual
/// times to full execution; see `spmd-rt` docs).
pub(crate) fn speedups(
    source: &str,
    sizes: &[i64],
    nodes: &[usize],
    machine: &MachineSpec,
) -> Vec<Cell> {
    let cluster_of = |n| {
        machine
            .lower(n)
            .expect("a sweep's machine holds its node counts")
    };
    let mut out = Vec::new();
    for &size in sizes {
        // The sequential baseline does not depend on the node count.
        let opts = BackendOptions::new(1).granularity(Granularity::Coarse);
        let compiled = vpce::compile(source, &[("N", size)], &opts).expect("workload compiles");
        let seq = spmd_rt::execute_sequential(
            &compiled.program,
            &cluster_of(1).node.cpu,
            ExecMode::Analytic,
        );
        for &nodes in nodes {
            let opts = BackendOptions::new(nodes).granularity(Granularity::Coarse);
            let compiled = vpce::compile(source, &[("N", size)], &opts).expect("workload compiles");
            let rep = spmd_rt::execute(&compiled.program, &cluster_of(nodes), ExecMode::Analytic);
            out.push(Cell {
                size,
                nodes,
                seq_time: seq.elapsed,
                par_time: rep.elapsed,
                speedup: seq.elapsed / rep.elapsed,
                comm_time: rep.comm_time,
            });
        }
    }
    out
}

/// Pretty-print one Table 1 sweep next to the paper's numbers.
pub(crate) fn print_sweep(title: &str, cells: &[Cell]) {
    println!("\n== Table 1: MM speedups ({title}) ==");
    println!(
        "{:>10} {:>6} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "size", "nodes", "T_seq", "T_par", "speedup", "paper", "comm"
    );
    for c in cells {
        let si = SIZES.iter().position(|&s| s == c.size).unwrap();
        let ni = NODES.iter().position(|&n| n == c.nodes).unwrap();
        println!(
            "{:>7}^2 {:>6} {:>10} {:>10} {:>9.3} {:>9.3} {:>9}",
            c.size,
            c.nodes,
            crate::fmt_secs(c.seq_time),
            crate::fmt_secs(c.par_time),
            c.speedup,
            PAPER[si][ni],
            crate::fmt_secs(c.comm_time),
        );
    }
}

/// Print the paper's Table 1 as published.
pub(crate) fn print_paper() {
    println!("\npaper Table 1 for reference:");
    println!(
        "{:>10} {:>8} {:>8} {:>8}",
        "size", "1 node", "2 nodes", "4 nodes"
    );
    for (i, &size) in SIZES.iter().enumerate() {
        println!(
            "{:>7}^2 {:>8} {:>8} {:>8}",
            size, PAPER[i][0], PAPER[i][1], PAPER[i][2]
        );
    }
}

/// Print one scaling sweep: speedup and parallel efficiency per node
/// count.
pub(crate) fn print_scaling(title: &str, cells: &[Cell]) {
    println!("\n== {title} ==");
    println!(
        "{:>6} {:>12} {:>12} {:>9} {:>12} {:>10}",
        "nodes", "T_seq", "T_par", "speedup", "comm", "eff"
    );
    for c in cells {
        println!(
            "{:>6} {:>12} {:>12} {:>9.3} {:>12} {:>9.1}%",
            c.nodes,
            crate::fmt_secs(c.seq_time),
            crate::fmt_secs(c.par_time),
            c.speedup,
            crate::fmt_secs(c.comm_time),
            100.0 * c.speedup / c.nodes as f64
        );
    }
}

/// One document of named sweeps: `BENCH_table1.json` (`nominal`,
/// `prototype`) and `BENCH_scaling.json`.
pub(crate) fn json_doc(sweeps: &[(&str, &[Cell])]) -> String {
    json::document(Layout::Block(2), |o| {
        for (name, cells) in sweeps {
            let mut rows = o.array(name, Layout::Block(4));
            for c in *cells {
                rows.object(Layout::Inline)
                    .int("size", c.size)
                    .int("nodes", c.nodes)
                    .num("seq_time", c.seq_time)
                    .num("par_time", c.par_time)
                    .num("speedup", c.speedup)
                    .num("comm_time", c.comm_time);
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpce_workloads::mm;

    fn small_sweep(machine: MachineSpec, size: i64) -> Vec<Cell> {
        speedups(mm::SOURCE, &[size], &NODES, &machine)
    }

    #[test]
    fn json_export_is_wellformed() {
        let cells = small_sweep(MachineSpec::paper(), 64);
        let json = json_doc(&[("nominal", &cells), ("prototype", &[])]);
        assert_eq!(json.matches('{').count(), cells.len() + 1);
        assert_eq!(json.matches('}').count(), cells.len() + 1);
        assert!(json.contains("\"speedup\": "));
        assert!(!json.contains("inf") && !json.contains("NaN"), "{json}");
    }

    #[test]
    fn single_node_speedup_is_the_calibrated_0_96() {
        let cells = small_sweep(MachineSpec::paper(), 64);
        assert!(
            (cells[0].speedup - 0.96).abs() < 0.01,
            "got {}",
            cells[0].speedup
        );
    }

    #[test]
    fn speedup_monotone_in_nodes() {
        let cells = small_sweep(MachineSpec::paper(), 128);
        assert!(cells[0].speedup < cells[1].speedup);
        assert!(cells[1].speedup < cells[2].speedup);
    }

    #[test]
    fn larger_matrices_scale_better() {
        // The paper's key Table-1 shape: speedup at 4 nodes grows with
        // the matrix size (compute grows N^3, communication N^2).
        let s64 = small_sweep(MachineSpec::prototype(), 64)[2].speedup;
        let s256 = small_sweep(MachineSpec::prototype(), 256)[2].speedup;
        assert!(
            s256 > s64,
            "4-node speedup should grow with N: {s64} vs {s256}"
        );
    }
}
