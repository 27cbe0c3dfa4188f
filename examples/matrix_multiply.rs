//! The paper's MM benchmark end-to-end: Table-1 rows for one matrix
//! size (default 256; pass another as argv[1]) on 1, 2 and 4 nodes of
//! the nominal card and of the calibrated prototype, every cell
//! executed in full. Each run must reproduce the analytic cell bit for
//! bit — sequential, parallel and communication time, which
//! `BENCH_table1.json` pins — and leave C bit-equal to the native
//! reference (`mm::reference`).
//!
//! ```sh
//! cargo run --release -p vpce --example matrix_multiply -- 1024
//! ```

use vpce::{compile, BackendOptions, CompiledProgram, ExecMode, Granularity};
use vpce_machine::MachineSpec;
use vpce_workloads::mm;

fn main() {
    let n: i64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(256);
    let (_, _, c_ref) = mm::reference(n as usize);
    let compiled = |nodes: usize| {
        let opts = BackendOptions::new(nodes).granularity(Granularity::Coarse);
        compile(mm::SOURCE, &[("N", n)], &opts).expect("MM compiles")
    };
    // C as a run left it, checked against the native reference.
    let check_c = |what: &str, program: &CompiledProgram, arrays: &[Vec<f64>]| {
        let c = program
            .program
            .arrays
            .iter()
            .position(|(name, _)| name == "C")
            .unwrap();
        assert!(
            spmd_rt::same_bits(&arrays[c], &c_ref),
            "{what}: C differs from mm::reference({n})"
        );
    };
    let same = |what: &str, full: f64, analytic: f64| {
        assert_eq!(
            full.to_bits(),
            analytic.to_bits(),
            "{what}: Full {full} vs Analytic {analytic}"
        );
    };

    for (family, machine) in [
        ("nominal", MachineSpec::paper()),
        ("prototype", MachineSpec::prototype()),
    ] {
        let cluster_of = |n| machine.lower(n).expect("a mesh holds 1, 2 and 4 nodes");
        println!("\nMM {n}x{n}, {family} V-Bus cluster, coarse granularity, full execution:");
        println!(
            "{:>6} {:>12} {:>12} {:>9} {:>12}",
            "nodes", "T_seq", "T_par", "speedup", "comm"
        );
        let one = compiled(1);
        let cpu = cluster_of(1).node.cpu;
        let seq = spmd_rt::execute_sequential(&one.program, &cpu, ExecMode::Full);
        let priced = spmd_rt::execute_sequential(&one.program, &cpu, ExecMode::Analytic);
        same("sequential time", seq.elapsed, priced.elapsed);
        check_c("sequential", &one, &seq.arrays);
        for nodes in [1usize, 2, 4] {
            let program = compiled(nodes);
            let cluster = cluster_of(nodes);
            let full = spmd_rt::execute(&program.program, &cluster, ExecMode::Full);
            let priced = spmd_rt::execute(&program.program, &cluster, ExecMode::Analytic);
            same(
                &format!("{nodes} nodes, parallel time"),
                full.elapsed,
                priced.elapsed,
            );
            same(
                &format!("{nodes} nodes, communication time"),
                full.comm_time,
                priced.comm_time,
            );
            check_c(&format!("{nodes} nodes"), &program, &full.arrays);
            println!(
                "{:>6} {:>11.3}s {:>11.3}s {:>9.3} {:>11.4}s",
                nodes,
                seq.elapsed,
                full.elapsed,
                seq.elapsed / full.elapsed,
                full.comm_time
            );
        }
    }
    println!("\nevery cell: Full = Analytic bit for bit, C = mm::reference({n}) bit for bit");
}
