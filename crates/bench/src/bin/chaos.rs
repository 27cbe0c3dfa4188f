//! Run the chaos matrix: the paper workloads under seeded fault
//! schedules on 4 nodes, printing the self-healing counters and, with
//! `--json PATH`, writing the fault-counter JSON committed as
//! `BENCH_chaos.json`. Exits nonzero if any survived run diverged
//! from its fault-free results — the one outcome the fault plane must
//! never produce.

use cluster_sim::ClusterConfig;
use vpce_bench::chaos;

fn main() {
    let (json_path, [seeds]) = vpce_bench::sweep_args([("--seeds", chaos::SEEDS)]);
    let cells = chaos::sweep(&ClusterConfig::paper_4node(), seeds);
    chaos::print_sweep("nominal card, 4 nodes", &cells);
    vpce_bench::write_json(json_path, &chaos::json_doc(&cells));
    let diverged: Vec<_> = cells.iter().filter(|c| c.survived && !c.identical).collect();
    let survived = cells.iter().filter(|c| c.survived).count();
    let typed_errors = cells.len() - survived;
    println!(
        "\n{} cells: {survived} survived byte-identical, {typed_errors} typed errors, {} diverged",
        cells.len(),
        diverged.len()
    );
    if !diverged.is_empty() {
        eprintln!("FAIL: survived runs diverged from fault-free results");
        std::process::exit(1);
    }
}
