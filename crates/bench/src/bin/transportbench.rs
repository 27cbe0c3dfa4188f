//! Run the transport sweep: a neighbour ring of one-sided PUTs over
//! message size × protocol mode (auto / forced-eager /
//! forced-rendezvous) × registered pool size, printing the crossover
//! grid and, with `--json PATH`, writing the JSON committed as
//! `BENCH_transport.json`.
//! Exits nonzero if the policy's auto mode ever loses to *both* forced
//! modes at the same size — the one outcome a cost-model threshold
//! must never produce.

use cluster_sim::ClusterConfig;
use vpce_bench::transport;

fn main() {
    let (json_path, [epochs]) = vpce_bench::sweep_args([("--epochs", transport::EPOCHS as u64)]);
    let cells = transport::sweep(&ClusterConfig::paper_n(4), epochs as usize);
    transport::print_sweep("nominal card, 4-rank ring", &cells);
    vpce_bench::write_json(json_path, &transport::json_doc(&cells));
    let mut regressions = 0;
    for bytes in transport::SWEEP_BYTES {
        for slots in transport::POOL_SIZES {
            let by = |m: &str| {
                cells
                    .iter()
                    .find(|c| c.bytes == bytes && c.slots == slots && c.mode == m)
                    .expect("full grid")
            };
            let worst = by("eager").elapsed.max(by("rendezvous").elapsed);
            if by("auto").elapsed > worst + 1e-12 {
                eprintln!("FAIL: auto slower than both forced modes at {bytes} B, {slots} slots");
                regressions += 1;
            }
        }
    }
    let both = cells.iter().any(|c| c.mode == "auto" && c.eager_ops > 0)
        && cells.iter().any(|c| c.mode == "auto" && c.rdvz_ops > 0);
    if !both {
        eprintln!("FAIL: auto mode did not exercise both protocols across the sweep");
        regressions += 1;
    }
    if regressions > 0 {
        std::process::exit(1);
    }
}
