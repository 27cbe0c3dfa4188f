//! Deterministic memory gate for the fence: what a one-sided operation
//! costs the allocator between issue and apply.
//!
//! Own test binary on purpose: it installs the counting allocator as
//! the process-wide `#[global_allocator]`.
//!
//! A pending operation is a 96-byte descriptor in its origin's queue,
//! and it stays there: the closing fence orders all queues through one
//! 16-byte key per operation, scans and books them by reference, and
//! keeps every buffer it filled for the next fence. So the bytes a run
//! requests *per operation* are the growth of those few vectors — each
//! doubling re-requests the whole buffer, which is what the allocator
//! is asked for and what this test counts — and nothing per wire leg:
//! 262–281 B here. Before the queues were per rank the same arithmetic
//! read 576–638 B: the epoch was drained into a fresh vector, the
//! conflict scan built four more, and every leg allocated its route.
//!
//! Measured on MM `Analytic`, 16 ranks (≈ 45·N operations at every
//! grain): bytes requested while executing, minus the master's three
//! `N × N` arrays, divided by the operations the ranks' ledgers count.

use spmd_rt::FaultSpec;
use vpce::{compile, BackendOptions, ClusterConfig, ExecMode, Granularity};
use vpce_testkit::alloc::CountingAlloc;
use vpce_workloads::mm;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const RANKS: usize = 16;

/// The gate: bytes requested per one-sided operation.
const BYTES_PER_OP: f64 = 300.0;

/// `(bytes requested while executing, one-sided operations)` of MM at
/// size `n`, the bytes net of the master's arrays.
fn execution_bytes(n: usize, grain: Granularity) -> (i64, u64) {
    let opts = BackendOptions::new(RANKS).granularity(grain);
    let prog = compile(mm::SOURCE, &[("N", n as i64)], &opts).unwrap().program;
    let cluster = ClusterConfig::paper_n(RANKS);
    let before = ALLOC.allocated_bytes();
    let rep = spmd_rt::try_execute(&prog, &cluster, ExecMode::Analytic, FaultSpec::off()).unwrap();
    let during = (ALLOC.allocated_bytes() - before) as i64;
    let ops = rep.rank_stats.iter().map(|s| s.rma_contiguous + s.rma_strided).sum();
    (during - (3 * 8 * n * n) as i64, ops)
}

/// One test, because the counter is the process's: two tests would run
/// on two threads and count each other's requests.
#[test]
fn an_operation_costs_its_descriptor_and_its_key_not_a_copy_of_the_epoch() {
    for grain in [Granularity::Fine, Granularity::Coarse] {
        for n in [320, 640] {
            let (bytes, ops) = execution_bytes(n, grain);
            assert!(ops > 40 * n as u64, "{grain:?} N={n}: only {ops} operations");
            let per_op = bytes as f64 / ops as f64;
            assert!(
                per_op <= BYTES_PER_OP,
                "{grain:?} N={n}: {bytes} B over {ops} operations = {per_op:.0} B per operation"
            );
        }
    }
    // Nothing a run sizes by its traffic outlives it (a universe's
    // queues and fence scratch die with the universe), and nothing
    // process-wide grows with it either.
    let (first, ops) = execution_bytes(320, Granularity::Fine);
    let (second, again) = execution_bytes(320, Granularity::Fine);
    assert_eq!(ops, again);
    assert!(second <= first, "first run {first} B, second {second} B");
}
