//! Run the scheduler sweep: seeded traffic storms over machine size ×
//! arrival rate × policy (fcfs vs backfill), printing the throughput
//! grid and, with `--json PATH`, writing the JSON committed as
//! `BENCH_sched.json`. Exits nonzero if any fault-free storm fails
//! to complete every job — the liveness outcome the gang scheduler
//! must never produce.

use vpce_bench::sched;

fn main() {
    let (json_path, [seed, per_storm]) = vpce_bench::sweep_args([
        ("--seed", sched::SEED),
        ("--jobs", sched::JOBS_PER_STORM as u64),
    ]);
    let per_storm = per_storm as usize;
    let cells = sched::sweep(seed, per_storm);
    sched::print_sweep(&format!("seed {seed}, {per_storm} jobs per storm"), &cells);
    vpce_bench::write_json(json_path, &sched::json_doc(&cells));
    let incomplete: Vec<_> = cells.iter().filter(|c| c.done != c.jobs).collect();
    println!(
        "\n{} cells: {} completed every job, {} incomplete",
        cells.len(),
        cells.len() - incomplete.len(),
        incomplete.len()
    );
    if !incomplete.is_empty() {
        eprintln!("FAIL: fault-free storms left jobs unfinished");
        std::process::exit(1);
    }
}
