//! Machines × workloads sweep — every built-in machine description of
//! the zoo runs every example workload end to end, recording the
//! makespan, communication time, speedup over the same machine's
//! sequential execution, and the byte-identity invariant (numerics
//! must never depend on the fabric).
//!
//! `vpce-bench machine` prints the table; its document is the
//! committed `BENCH_machine.json`.

use lmad::Granularity;
use polaris_be::BackendOptions;
use spmd_rt::ExecMode;
use vpce_diag::json::{self, Layout};
use vpce_machine::MachineSpec;

/// One cell of the sweep.
#[derive(Debug, Clone)]
pub(crate) struct MachinePoint {
    pub machine: String,
    pub topology: String,
    pub workload: String,
    pub nodes: usize,
    pub elapsed_s: f64,
    pub comm_s: f64,
    pub speedup: f64,
    pub identical: bool,
}

/// The default machine set: the paper baseline, its conventional-link
/// and Fast-Ethernet ablations, and the non-mesh topology zoo.
pub(crate) const MACHINES: &[&str] = &[
    "paper",
    "conventional",
    "fast-ethernet",
    "torus",
    "torus3d",
    "crossbar",
    "fattree",
    "hypercube",
];

/// PCs per machine in the committed sweep.
pub(crate) const NODES: usize = 8;

const WORKLOADS: &[(&str, &str, i64)] = &[
    ("mm", vpce_workloads::mm::SOURCE, 32),
    ("swim", vpce_workloads::swim::SOURCE, 32),
];

/// Run the sweep: every machine in `machines` × every example
/// workload, on `nodes` PCs. Each workload compiles once; only the
/// lowered cluster varies across machines.
pub(crate) fn sweep(machines: &[&str], nodes: usize) -> Vec<MachinePoint> {
    let mut out = Vec::new();
    for &(name, source, n) in WORKLOADS {
        let opts = BackendOptions::new(nodes).granularity(Granularity::Coarse);
        let compiled = vpce::compile(source, &[("N", n)], &opts).expect("workloads compile");
        for &machine in machines {
            let spec = MachineSpec::builtin(machine)
                .unwrap_or_else(|| panic!("unknown built-in machine `{machine}`"));
            let cluster = spec
                .lower(nodes)
                .unwrap_or_else(|e| panic!("machine `{machine}` lowers at {nodes} nodes: {e}"));
            let prog = &compiled.program;
            let (par, seq) =
                spmd_rt::with_reference(prog, &cluster.node.cpu, ExecMode::Full, || {
                    spmd_rt::try_execute(prog, &cluster, ExecMode::Full, spmd_rt::FaultSpec::off())
                })
                .unwrap_or_else(|e| panic!("{e}"));
            out.push(MachinePoint {
                machine: machine.to_string(),
                topology: spec.topology.kind.name().to_string(),
                workload: name.to_string(),
                nodes,
                elapsed_s: par.elapsed,
                comm_s: par.comm_time,
                speedup: seq.elapsed / par.elapsed,
                identical: spmd_rt::same_bits(&par.arrays, &seq.arrays),
            });
        }
    }
    out
}

/// The sweep's invariants: every cell finished with fabric-independent
/// numerics, and the zoo really exercised at least three non-mesh
/// fabrics end to end.
pub(crate) fn failures(points: &[MachinePoint]) -> Vec<String> {
    let mut out: Vec<String> = points
        .iter()
        .filter(|p| !(p.identical && p.elapsed_s > 0.0))
        .map(|p| {
            format!(
                "{} {}: numerics diverged from sequential",
                p.machine, p.workload
            )
        })
        .collect();
    let non_mesh: std::collections::BTreeSet<&str> = points
        .iter()
        .filter(|p| p.topology != "mesh" && p.topology != "torus")
        .map(|p| p.topology.as_str())
        .collect();
    if non_mesh.len() < 3 {
        out.push(format!(
            "the zoo ran {} non-mesh fabrics, not 3",
            non_mesh.len()
        ));
    }
    out
}

/// Print the paper-style table.
pub(crate) fn print(points: &[MachinePoint]) {
    println!(
        "{:>14} {:>9} {:>8} {:>6} {:>12} {:>12} {:>8} {:>6}",
        "machine", "topology", "workload", "nodes", "elapsed", "comm", "speedup", "ident"
    );
    for p in points {
        println!(
            "{:>14} {:>9} {:>8} {:>6} {:>10} {:>10} {:>7.2}x {:>6}",
            p.machine,
            p.topology,
            p.workload,
            p.nodes,
            crate::fmt_secs(p.elapsed_s),
            crate::fmt_secs(p.comm_s),
            p.speedup,
            p.identical
        );
    }
}

/// The committed `BENCH_machine.json` (at [`NODES`] nodes).
pub(crate) fn json_doc(points: &[MachinePoint]) -> String {
    json::document(Layout::Block(2), |o| {
        let mut rows = o.array("points", Layout::Block(4));
        for p in points {
            rows.object(Layout::Inline)
                .str("machine", &p.machine)
                .str("topology", &p.topology)
                .str("workload", &p.workload)
                .int("nodes", p.nodes)
                .num("elapsed_s", p.elapsed_s)
                .num("comm_s", p.comm_s)
                .num("speedup", p.speedup)
                .bool("identical", p.identical);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_the_zoo_and_stays_numerics_identical() {
        let points = sweep(MACHINES, 8);
        assert_eq!(points.len(), MACHINES.len() * 2);
        assert_eq!(failures(&points), Vec::<String>::new());
        // The conventional links must visibly slow communication on
        // the same workload.
        let comm = |m: &str, w: &str| {
            points
                .iter()
                .find(|p| p.machine == m && p.workload == w)
                .unwrap()
                .comm_s
        };
        assert!(
            comm("conventional", "mm") > 2.0 * comm("paper", "mm"),
            "conventional links should cost >2x comm: {} vs {}",
            comm("conventional", "mm"),
            comm("paper", "mm")
        );
        let json = json_doc(&points);
        assert!(json.contains("\"crossbar\""), "{json}");
        assert!(json.contains("\"fattree\""), "{json}");
        assert!(json.contains("\"torus3d\""), "{json}");
    }
}
