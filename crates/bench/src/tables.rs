//! The registry of the paper's evidence: one entry per table, read by
//! both `vpce-bench <table>` and the golden test.

use cluster_sim::ClusterConfig;
use vpce_machine::MachineSpec;
use vpce_workloads::{mm, swim};

use crate::{ablation, chaos, hwclaims, machine, recover, sched, serve, table1, table2, transport};

/// One table of the evidence.
pub struct Table {
    /// The command-line name: `vpce-bench <name>`.
    pub name: &'static str,
    /// The committed document at the repository root.
    pub golden: &'static str,
    /// Run the sweep once at its committed constants and print its rows.
    /// Returns the golden document's bytes and the invariants the run
    /// broke, one line each (none on a healthy run).
    pub run: fn() -> (String, Vec<String>),
}

#[rustfmt::skip]
pub const TABLES: &[Table] = &[
    Table { name: "table1", golden: "BENCH_table1.json", run: table1 },
    Table { name: "table2", golden: "BENCH_table2.json", run: table2 },
    Table { name: "hwclaims", golden: "BENCH_claims.json", run: hwclaims },
    Table { name: "ablation", golden: "BENCH_ablation.json", run: ablation },
    Table { name: "scaling", golden: "BENCH_scaling.json", run: scaling },
    Table { name: "chaos", golden: "BENCH_chaos.json", run: chaos },
    Table { name: "sched", golden: "BENCH_sched.json", run: sched },
    Table { name: "serve", golden: "BENCH_serve.json", run: serve },
    Table { name: "recover", golden: "BENCH_recovery.json", run: recover },
    Table { name: "machine", golden: "BENCH_machine.json", run: machine },
    Table { name: "transport", golden: "BENCH_transport.json", run: transport },
];

/// The table called `name`.
pub fn find(name: &str) -> Option<&'static Table> {
    TABLES.iter().find(|t| t.name == name)
}

/// Table 1: MM speedups on the nominal card and the calibrated
/// prototype.
fn table1() -> (String, Vec<String>) {
    let sweep = |machine: MachineSpec| {
        table1::speedups(mm::SOURCE, &table1::SIZES, &table1::NODES, &machine)
    };
    let nominal = sweep(MachineSpec::paper());
    table1::print_sweep("nominal card: 50 MB/s SKWP links", &nominal);
    let prototype = sweep(MachineSpec::prototype());
    table1::print_sweep("calibrated prototype: ~6 MB/s achieved", &prototype);
    table1::print_paper();
    let sweeps = [("nominal", &nominal[..]), ("prototype", &prototype[..])];
    (table1::json_doc(&sweeps), vec![])
}

/// Table 2: communication time at each grain, 4 nodes.
fn table2() -> (String, Vec<String>) {
    let cells = table2::sweep(&ClusterConfig::paper_4node());
    table2::print_sweep("nominal card, 4 nodes", &cells);
    table2::print_paper();
    (table2::json_doc(&cells), vec![])
}

fn hwclaims() -> (String, Vec<String>) {
    (hwclaims::table(), vec![])
}

fn ablation() -> (String, Vec<String>) {
    (ablation::table(), vec![])
}

/// Beyond the paper's four nodes ("we plan to extend our experiment",
/// §7): MM and SWIM on 1–16 nodes.
fn scaling() -> (String, Vec<String>) {
    const NODES: [usize; 5] = [1, 2, 4, 8, 16];
    println!("scaling sweeps (coarse granularity, analytic mode)");
    let (paper, prototype) = (MachineSpec::paper(), MachineSpec::prototype());
    let mm_nominal = table1::speedups(mm::SOURCE, &[512], &NODES, &paper);
    table1::print_scaling("MM 512^2, nominal card", &mm_nominal);
    let mm_prototype = table1::speedups(mm::SOURCE, &[512], &NODES, &prototype);
    table1::print_scaling("MM 512^2, calibrated prototype", &mm_prototype);
    let swim_nominal = table1::speedups(swim::SOURCE, &[256], &NODES, &paper);
    table1::print_scaling("SWIM 256, nominal card", &swim_nominal);
    let sweeps = [
        ("mm_nominal", &mm_nominal[..]),
        ("mm_prototype", &mm_prototype[..]),
        ("swim_nominal", &swim_nominal[..]),
    ];
    (table1::json_doc(&sweeps), vec![])
}

fn chaos() -> (String, Vec<String>) {
    let cells = chaos::sweep(&ClusterConfig::paper_4node(), chaos::SEEDS);
    chaos::print_sweep("nominal card, 4 nodes", &cells);
    (chaos::json_doc(&cells), chaos::failures(&cells))
}

fn sched() -> (String, Vec<String>) {
    let (seed, per_storm) = (sched::SEED, sched::JOBS_PER_STORM);
    let cells = sched::sweep(seed, per_storm);
    sched::print_sweep(&format!("seed {seed}, {per_storm} jobs per storm"), &cells);
    (sched::json_doc(&cells), sched::failures(&cells))
}

fn serve() -> (String, Vec<String>) {
    let bench = serve::run(serve::JOBS, serve::KILL_POINTS);
    serve::print(&bench);
    (serve::json_doc(&bench), serve::failures(&bench))
}

fn recover() -> (String, Vec<String>) {
    let bench = recover::run(recover::SEEDS);
    recover::print(&bench);
    (recover::json_doc(&bench), recover::failures(&bench))
}

fn machine() -> (String, Vec<String>) {
    let points = machine::sweep(machine::MACHINES, machine::NODES);
    machine::print(&points);
    (machine::json_doc(&points), machine::failures(&points))
}

fn transport() -> (String, Vec<String>) {
    let cells = transport::sweep(&ClusterConfig::paper_n(4), transport::EPOCHS);
    transport::print_sweep("nominal card, 4-rank ring", &cells);
    (transport::json_doc(&cells), transport::failures(&cells))
}
