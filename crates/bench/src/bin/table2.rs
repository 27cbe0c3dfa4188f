//! Regenerate Table 2: communication time at fine/middle/coarse for
//! MM(1024), SWIM(512, ITMAX=1) and CFFT2INIT(M=11) on 4 nodes.
//! `--json PATH` additionally writes the grid as JSON — the committed
//! `BENCH_table2.json`.

use cluster_sim::ClusterConfig;
use vpce_bench::table2;

fn main() {
    let (json_path, []) = vpce_bench::sweep_args([]);
    let cells = table2::sweep(&ClusterConfig::paper_4node());
    table2::print_sweep("nominal card, 4 nodes", &cells);
    vpce_bench::write_json(json_path, &table2::json_doc(&cells));
    println!("\npaper Table 2 for reference (seconds; * = not reported):");
    println!("{:>18} {:>10} {:>10} {:>10}", "workload", "fine", "middle", "coarse");
    for row in table2::PAPER {
        let f = |v: Option<f64>| v.map_or("*".to_string(), |x| format!("{x}"));
        println!(
            "{:>18} {:>10} {:>10} {:>10}",
            row.name,
            f(row.fine),
            f(row.middle),
            f(row.coarse)
        );
    }
    println!("\nSee EXPERIMENTS.md for the shape analysis (the paper's MM row");
    println!("is internally inconsistent with its own link-rate claims).");
}
