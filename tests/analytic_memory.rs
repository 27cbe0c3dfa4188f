//! Deterministic memory gate for `ExecMode::Analytic`: what a run
//! allocates follows one rank's arrays, not `ranks ×` them.
//!
//! Own test binary on purpose: it installs the counting allocator as
//! the process-wide `#[global_allocator]`.
//!
//! Analytic slaves create their windows length-only (sizes, not
//! payloads); only the master, whose sequential sections execute
//! numerically, has storage. So the bytes requested while executing MM
//! at size N are `a + b·N + c·N²` with `c` one rank's arrays — 3 arrays
//! × 8 B: `a` is the fixed per-run cost (16 registered pools, thread
//! state, the plan walk); `b·N` is the traffic, because on 16 ranks
//! MM's plan issues ≈ 45·N one-sided operations at every grain (§5.6
//! makes the coarse collect fall back to per-column pieces) and each
//! costs 262–281 requested bytes — its 96-byte descriptor in a queue
//! that doubles as it grows, a 16-byte order key and a conflict-scan
//! effect; no route, no copy of the epoch (`tests/fence_memory.rs`
//! gates that figure at 300). The second difference over N, 2N, 4N cancels `a` and `b` and leaves
//! `6·c·N²`. A per-rank full-size allocation coming back adds 16 to
//! `c / 24`, an exit-path clone of the master's arrays 1 each.

use spmd_rt::FaultSpec;
use vpce::{compile, BackendOptions, ClusterConfig, ExecMode, Granularity};
use vpce_testkit::alloc::CountingAlloc;
use vpce_workloads::mm;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const RANKS: usize = 16;

/// Bytes requested from the allocator while executing MM at size `n`.
fn execution_bytes(n: usize) -> i64 {
    let opts = BackendOptions::new(RANKS).granularity(Granularity::Coarse);
    let prog = compile(mm::SOURCE, &[("N", n as i64)], &opts).unwrap().program;
    let cluster = ClusterConfig::paper_n(RANKS);
    let before = ALLOC.allocated_bytes();
    let rep = spmd_rt::try_execute(&prog, &cluster, ExecMode::Analytic, FaultSpec::off()).unwrap();
    let during = ALLOC.allocated_bytes() - before;
    assert_eq!(rep.arrays.iter().map(Vec::len).collect::<Vec<_>>(), [n * n; 3]);
    during as i64
}

#[test]
fn analytic_slaves_cost_nothing_in_n() {
    let n = 64;
    let [f1, f2, f4] = [n, 2 * n, 4 * n].map(execution_bytes);
    let quadratic = (f4 - f2) - 2 * (f2 - f1);
    let one_rank = (6 * 3 * 8 * n * n) as i64;
    assert!(
        quadratic <= 2 * one_rank,
        "bytes requested at N = {n}, {}, {}: {f1}, {f2}, {f4}; their N² term is {:.2}x one rank's arrays",
        2 * n,
        4 * n,
        quadratic as f64 / one_rank as f64
    );
}
