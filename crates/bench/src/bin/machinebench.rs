//! Run the machines × workloads sweep: every built-in machine
//! description (the paper baseline, its link ablations, and the
//! non-mesh topology zoo) executes every example workload end to end.
//! With `--json PATH` writes the JSON committed as
//! `BENCH_machine.json`. Exits nonzero if any cell's
//! numerics diverged from sequential execution or the zoo lost its
//! non-mesh coverage — fabric choice must never change results.

use vpce_bench::machine;

fn main() {
    let (json_path, [nodes]) = vpce_bench::sweep_args([("--nodes", machine::NODES as u64)]);
    let points = machine::sweep(machine::MACHINES, nodes as usize);
    machine::print(&points);
    vpce_bench::write_json(json_path, &machine::json_doc(&points));
    if !machine::healthy(&points) {
        eprintln!("FAIL: a sweep cell diverged from sequential numerics or the zoo lost coverage");
        std::process::exit(1);
    }
}
