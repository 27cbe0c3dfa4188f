//! Run the `vpced` service benchmark: submission ingest, recovery
//! from a sealed journal, and the seeded kill/restart matrix. With
//! `--json PATH` writes the JSON committed as `BENCH_serve.json`.
//! Exits nonzero if any kill point failed to fire or any recovered run
//! diverged from the baseline — the crash-safety outcome the daemon
//! must never produce.

use vpce_bench::serve;

fn main() {
    let (json_path, [jobs, points]) = vpce_bench::sweep_args([
        ("--jobs", serve::JOBS as u64),
        ("--points", serve::KILL_POINTS as u64),
    ]);
    let bench = serve::run(jobs as usize, points as usize);
    serve::print(&bench);
    vpce_bench::write_json(json_path, &serve::json_doc(&bench));
    if !serve::healthy(&bench) {
        eprintln!(
            "FAIL: kill matrix unhealthy ({} divergent, {} restarts over {} points)",
            bench.kill_divergent, bench.kill_restarts, bench.kill_points
        );
        std::process::exit(1);
    }
}
