//! Deterministic memory gate for the fence: what a wire message costs
//! the allocator between issue and apply.
//!
//! Own test binary on purpose: it installs the counting allocator as
//! the process-wide `#[global_allocator]`.
//!
//! A planned op is one call and one entry in its origin's queue — a
//! series: its window, target, direction and `TransferPlan`, plus per
//! wire message a 16-byte record of what the plan cannot give back
//! (issue time and eager slot) — and it stays there: the closing fence
//! merges the queues' messages through a heap of one head per rank,
//! asks the conflict question once per op, and books every message by
//! reference. So the bytes a run requests *per wire message* are that
//! record plus its op's and its fence's share of a few per-op and
//! per-rank buffers, and nothing per wire leg. Each doubling of a
//! growing vector re-requests the whole buffer, which is what the
//! allocator is asked for and what this test counts. While each
//! message was its own 96-byte queue entry with a 16-byte sort key and
//! a conflict-scan effect the same arithmetic read 262–281 B, and
//! 576–638 B before the queues were per rank.
//!
//! Measured on MM `Analytic`, 16 ranks (≈ 45·N wire messages at every
//! grain): bytes requested while executing, minus the master's three
//! `N × N` arrays, divided by the wire messages the ranks' ledgers
//! count.

use spmd_rt::FaultSpec;
use vpce::{compile, BackendOptions, ClusterConfig, ExecMode, Granularity};
use vpce_testkit::alloc::CountingAlloc;
use vpce_workloads::mm;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const RANKS: usize = 16;

/// The gate: bytes requested per wire message.
const BYTES_PER_MESSAGE: f64 = 48.0;

/// `(bytes requested while executing, wire messages)` of MM at size
/// `n`, the bytes net of the master's arrays.
fn execution_bytes(n: usize, grain: Granularity) -> (i64, u64) {
    let opts = BackendOptions::new(RANKS).granularity(grain);
    let prog = compile(mm::SOURCE, &[("N", n as i64)], &opts).unwrap().program;
    let cluster = ClusterConfig::paper_n(RANKS);
    let before = ALLOC.allocated_bytes();
    let rep = spmd_rt::try_execute(&prog, &cluster, ExecMode::Analytic, FaultSpec::off()).unwrap();
    let during = (ALLOC.allocated_bytes() - before) as i64;
    let messages = rep.rank_stats.iter().map(|s| s.rma_contiguous + s.rma_strided).sum();
    (during - (3 * 8 * n * n) as i64, messages)
}

/// One test, because the counter is the process's: two tests would run
/// on two threads and count each other's requests.
#[test]
fn a_wire_message_costs_its_issue_record_not_a_descriptor() {
    for grain in [Granularity::Fine, Granularity::Coarse] {
        for n in [320, 640] {
            let (bytes, messages) = execution_bytes(n, grain);
            assert!(messages > 40 * n as u64, "{grain:?} N={n}: only {messages} wire messages");
            let per_message = bytes as f64 / messages as f64;
            assert!(
                per_message <= BYTES_PER_MESSAGE,
                "{grain:?} N={n}: {bytes} B over {messages} wire messages = {per_message:.0} B per message"
            );
        }
    }
    // Nothing a run sizes by its traffic outlives it (a universe's
    // queues and fence scratch die with the universe), and nothing
    // process-wide grows with it either.
    let (first, messages) = execution_bytes(320, Granularity::Fine);
    let (second, again) = execution_bytes(320, Granularity::Fine);
    assert_eq!(messages, again);
    assert!(second <= first, "first run {first} B, second {second} B");
}
