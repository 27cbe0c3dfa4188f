//! Strided (PIO) versus contiguous (DMA) one-sided transfers: the two
//! §2.2 paths must deposit byte-identical window contents, while the
//! stats ledger tells them apart — contiguous puts count as DMA
//! operations with no PIO elements, strided puts count as PIO with
//! per-element copies, and both account the same payload bytes.

use cluster_sim::ClusterConfig;
use mpi2::{Universe, ELEM_BYTES};
use vpce_testkit::prelude::*;

const WIN: usize = 96;

/// One strided write: `data[i]` lands at `off + i*stride`.
#[derive(Debug, Clone)]
struct Xfer {
    off: usize,
    stride: usize,
    len: usize,
}

fn arb_xfer() -> Gen<Xfer> {
    zip3(usize_in(0, 15), usize_in(1, 5), usize_in(1, 16)).map(|(off, stride, len)| {
        let len = len.min((WIN - off).div_ceil(stride));
        Xfer { off, stride, len }
    })
}

/// Run rank 0 writing `xfers` into rank 1's window element-wise via
/// `put` (`contiguous`) or in one `put_strided` call, then return
/// (window snapshots, rank-0 stats).
fn run(xfers: &[Xfer], strided: bool) -> (Vec<Vec<f64>>, mpi2::RankStats) {
    let uni = Universe::new(ClusterConfig::paper_n(2));
    let xfers = xfers.to_vec();
    let out = uni.run(move |mpi| {
        let w = mpi.win_create(WIN);
        if mpi.rank() == 0 {
            for (tag, x) in xfers.iter().enumerate() {
                let data: Vec<f64> = (0..x.len).map(|i| (tag * 100 + i + 1) as f64).collect();
                if strided {
                    mpi.put_strided(&w, 1, x.off, x.stride, data).unwrap();
                } else {
                    for (i, v) in data.into_iter().enumerate() {
                        mpi.put(&w, 1, x.off + i * x.stride, vec![v]).unwrap();
                    }
                }
            }
        }
        mpi.fence_all();
        w.snapshot()
    });
    (out.results.clone(), out.rank_stats[0].clone())
}

#[test]
fn both_paths_deposit_identical_windows() {
    Check::new("mpi2::both_paths_deposit_identical_windows")
        .cases(32)
        .run(&vec_of(arb_xfer(), 1, 6), |xfers| {
            // Overlapping writes apply in issue order on both paths
            // (same origin, same program order), so no filtering is
            // needed.
            let (dma_wins, dma_stats) = run(xfers, false);
            let (pio_wins, pio_stats) = run(xfers, true);
            prop_assert_eq!(&dma_wins, &pio_wins, "window contents diverge");

            let elems: usize = xfers.iter().map(|x| x.len).sum();
            // Same payload volume either way…
            prop_assert_eq!(dma_stats.bytes_put, (elems * ELEM_BYTES) as u64);
            prop_assert_eq!(pio_stats.bytes_put, (elems * ELEM_BYTES) as u64);
            // …but the op mix differs: element-wise is one contiguous
            // op per element, strided is one op per transfer.
            prop_assert_eq!(dma_stats.rma_contiguous, elems as u64);
            prop_assert_eq!(dma_stats.rma_strided, 0);
            prop_assert_eq!(dma_stats.pio_elems, 0);
            prop_assert_eq!(pio_stats.rma_contiguous, 0);
            prop_assert_eq!(pio_stats.rma_strided, xfers.len() as u64);
            // These payloads sit far below the eager threshold: they
            // ride the staging memcpy, not the per-element PIO gather
            // (only a rendezvous strided op pays PIO).
            prop_assert_eq!(pio_stats.pio_elems, 0);
            prop_assert_eq!(pio_stats.eager_ops, xfers.len() as u64);
            prop_assert_eq!(pio_stats.rdvz_ops, 0);
            // Element-wise puts can exhaust the 16-slot pool inside one
            // epoch; the overflow falls back to rendezvous, but every
            // op is carried by exactly one protocol.
            prop_assert_eq!(dma_stats.eager_ops + dma_stats.rdvz_ops, elems as u64);
            prop_assert_eq!(dma_stats.rdvz_ops, dma_stats.eager_fallbacks);
            Ok(())
        });
}

#[test]
fn unit_stride_strided_put_equals_contiguous_put() {
    let uni = Universe::new(ClusterConfig::paper_n(2));
    let contig = uni.run(move |mpi| {
        let w = mpi.win_create(WIN);
        if mpi.rank() == 0 {
            mpi.put(&w, 1, 8, (1..=12).map(f64::from).collect()).unwrap();
        }
        mpi.fence_all();
        w.snapshot()
    });
    let uni = Universe::new(ClusterConfig::paper_n(2));
    let strided = uni.run(move |mpi| {
        let w = mpi.win_create(WIN);
        if mpi.rank() == 0 {
            mpi.put_strided(&w, 1, 8, 1, (1..=12).map(f64::from).collect()).unwrap();
        }
        mpi.fence_all();
        w.snapshot()
    });
    assert_eq!(contig.results, strided.results);
    // Both paths charge the host something, and PIO's copy term grows
    // per element while a DMA descriptor's setup does not.
    assert!(contig.rank_stats[0].comm_host > 0.0);
    assert!(strided.rank_stats[0].comm_host > 0.0);
}

#[test]
fn one_pio_op_beats_one_dma_descriptor_per_element() {
    // §2.2's motivation for the PIO path: for a small strided region,
    // one programmed-I/O put (one post + per-element copies) costs the
    // host less than a separate DMA descriptor per element.
    let elems = 24usize;
    let uni = Universe::new(ClusterConfig::paper_n(2));
    let elementwise = uni.run(move |mpi| {
        let w = mpi.win_create(WIN);
        if mpi.rank() == 0 {
            for i in 0..elems {
                mpi.put(&w, 1, i * 3, vec![(i + 1) as f64]).unwrap();
            }
        }
        mpi.fence_all();
        w.snapshot()
    });
    let uni = Universe::new(ClusterConfig::paper_n(2));
    let pio = uni.run(move |mpi| {
        let w = mpi.win_create(WIN);
        if mpi.rank() == 0 {
            let data = (1..=elems).map(|i| i as f64).collect();
            mpi.put_strided(&w, 1, 0, 3, data).unwrap();
        }
        mpi.fence_all();
        w.snapshot()
    });
    assert_eq!(elementwise.results, pio.results, "same deposited bytes");
    assert!(
        pio.rank_stats[0].comm_host < elementwise.rank_stats[0].comm_host,
        "one PIO op ({:.2e}s) should beat {} DMA descriptors ({:.2e}s)",
        pio.rank_stats[0].comm_host,
        elems,
        elementwise.rank_stats[0].comm_host
    );
}
