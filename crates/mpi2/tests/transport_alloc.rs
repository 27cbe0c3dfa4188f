//! Bench-guarded zero-allocation assertion on the transport data path.
//!
//! Own test binary on purpose: it installs the counting allocator as
//! the process-wide `#[global_allocator]`, which would skew any other
//! test sharing the binary.
//!
//! The promise under test: after a warm-up epoch (pool arenas built,
//! pending buffer at capacity, link-simulator state allocated), a
//! steady-state `put_region` / `put_region_strided` issues **zero**
//! heap allocations — eager payloads stage into pre-registered slots,
//! rendezvous reads straight from the window shard at the fence, and
//! drained `Vec`s reuse their capacity.

use cluster_sim::ClusterConfig;
use mpi2::Universe;
use vpce_testkit::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn steady_state_region_transfers_do_not_allocate() {
    // Single rank: the measured region must not race other rank
    // threads' own allocations (collective plumbing, thread wake-ups).
    // A self-put exercises the full issue path — staging, protocol
    // choice, host charge, pending push — which is exactly the
    // per-transfer code shared with the multi-rank case.
    let uni = Universe::new(ClusterConfig::paper_n(1));
    let out = uni.run(|mpi| {
        let w = mpi.win_create(4096);

        // Warm-up: touch every path with at least as many ops per
        // epoch as the measured region, so one-time growth (pending
        // buffer capacity, lazy pool state) happens before measuring.
        for epoch in 0..4 {
            for i in 0..16 {
                mpi.put_region(&w, 0, (epoch * 64 + i * 8) % 2048, 8).unwrap();
                mpi.put_region_strided(&w, 0, i * 16, 2, 8).unwrap();
                mpi.put_region(&w, 0, 2048, 2048).unwrap(); // rendezvous-sized
            }
            mpi.fence_all();
        }

        // Steady state: eager (small), rendezvous (large), strided.
        let before = ALLOC.allocations();
        for i in 0..16 {
            mpi.put_region(&w, 0, (i * 8) % 2048, 8).unwrap();
            mpi.put_region_strided(&w, 0, (i * 4) % 512, 4, 8).unwrap();
            mpi.put_region(&w, 0, 2048, 2048).unwrap();
        }
        let during = ALLOC.allocations() - before;
        mpi.fence_all();
        during
    });
    assert_eq!(
        out.results[0], 0,
        "steady-state region transfers must not touch the heap"
    );
    // Sanity: the run really exercised both protocols.
    let s = out.total_stats();
    assert!(s.eager_ops > 0 && s.rdvz_ops > 0);
}
