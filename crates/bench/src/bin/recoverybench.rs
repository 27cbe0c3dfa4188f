//! Run the rollback-recovery benchmark: checkpoint premium on a
//! crash-free run, time-to-recover and replay amplification across
//! seeded crash schedules, per workload. With `--json PATH` writes the
//! JSON committed as `BENCH_recovery.json`.
//! Exits nonzero if any recovered run diverged from the crash-free
//! baseline or a workload absorbed no crashes at all.

use vpce_bench::recover;

fn main() {
    let (json_path, [seeds]) = vpce_bench::sweep_args([("--seeds", recover::SEEDS)]);
    let bench = recover::run(seeds);
    recover::print(&bench);
    vpce_bench::write_json(json_path, &recover::json_doc(&bench));
    if !recover::healthy(&bench) {
        eprintln!("FAIL: recovery sweep unhealthy: {bench:?}");
        std::process::exit(1);
    }
}
