//! Regenerate Table 1: MM speedups for 256^2/512^2/1024^2 on 1/2/4
//! nodes, on the nominal card and on the calibrated prototype.
//! `--json PATH` additionally writes both sweeps as JSON — the
//! committed `BENCH_table1.json`.

use cluster_sim::ClusterConfig;
use vpce_bench::table1;

fn main() {
    let (json_path, []) = vpce_bench::sweep_args([]);
    let nominal = table1::sweep(ClusterConfig::paper_n);
    table1::print_sweep("nominal card: 50 MB/s SKWP links", &nominal);
    let proto = table1::sweep(ClusterConfig::prototype_n);
    table1::print_sweep("calibrated prototype: ~6 MB/s achieved", &proto);
    vpce_bench::write_json(json_path, &table1::json_doc(&nominal, &proto));
    println!("\npaper Table 1 for reference:");
    println!("{:>10} {:>8} {:>8} {:>8}", "size", "1 node", "2 nodes", "4 nodes");
    for (i, &size) in table1::SIZES.iter().enumerate() {
        println!(
            "{:>7}^2 {:>8} {:>8} {:>8}",
            size,
            table1::PAPER[i][0],
            table1::PAPER[i][1],
            table1::PAPER[i][2]
        );
    }
}
