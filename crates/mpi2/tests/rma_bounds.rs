//! One-sided bounds: a footprint that leaves a shard it touches — the
//! target's, or the origin's own for region PUTs and GETs — is a typed
//! [`VpceError::RmaBounds`] raised at issue time, before any staging
//! copy, and never a slice-index or arithmetic-overflow panic in the
//! issuing rank or the fence leader. Bounds bind the *declared* length:
//! every case runs on backed and on length-only windows alike.

use cluster_sim::ClusterConfig;
use mpi2::{AccumulateOp, Mpi, Universe, VpceError, WindowRef};

type Call = fn(&mut Mpi, &WindowRef) -> Result<(), VpceError>;

/// A stride whose second multiple wraps a `usize`.
const HUGE: usize = usize::MAX / 2 + 1;

/// Rank 0 issues `call` against rank 1 on a window with `lens[r]`
/// elements on rank `r` — declared only, never allocated, when
/// `length_only` — then everyone fences.
fn issue(lens: [usize; 2], length_only: bool, call: Call) -> Result<(), VpceError> {
    Universe::new(ClusterConfig::paper_n(2))
        .run_on(2, async move |mpi: &mut Mpi| {
            let len = lens[mpi.rank()];
            let w = if length_only {
                mpi.win_create_length_only_async(len).await?
            } else {
                mpi.win_create_async(len).await?
            };
            assert_eq!((w.len(), w.lock().capacity()), (len, if length_only { 0 } else { len }));
            if mpi.rank() == 0 {
                call(mpi, &w)?;
            }
            mpi.fence_all_async().await
        })
        .map(|_| ())
}

#[test]
fn out_of_range_and_overflowing_footprints_are_typed_errors() {
    // (window lengths, call, expected (target, offset, len, size))
    let table: [([usize; 2], Call, (usize, usize, usize, usize)); 9] = [
        // Read from the origin's own shard past its end: staging must
        // not run before the check.
        ([16, 16], |m, w| m.put_region(w, 1, 100, 8), (1, 100, 8, 16)),
        ([16, 16], |m, w| m.put_region_strided(w, 1, 4, 4, 5), (1, 4, 17, 16)),
        // `off + len` wraps.
        (
            [16, 16],
            |m, w| m.put(w, 1, usize::MAX - 1, vec![0.0; 3]),
            (1, usize::MAX - 1, usize::MAX, 16),
        ),
        // `stride * (count - 1)` wraps.
        ([16, 16], |m, w| m.get_strided(w, 1, 1, HUGE, 3), (1, 1, usize::MAX, 16)),
        ([16, 16], |m, w| m.put_strided(w, 1, 1, HUGE, vec![0.0; 3]), (1, 1, usize::MAX, 16)),
        ([16, 16], |m, w| m.get(w, 1, 15, 2), (1, 15, 2, 16)),
        (
            [16, 16],
            |m, w| m.accumulate(w, 1, 16, vec![1.0], AccumulateOp::Sum),
            (1, 16, 1, 16),
        ),
        // Ranks may create shards of different lengths: in range on the
        // target, past the end of the origin's own shard.
        ([4, 16], |m, w| m.put_region(w, 1, 8, 4), (0, 8, 4, 4)),
        ([4, 16], |m, w| m.get(w, 1, 2, 3), (0, 2, 3, 4)),
    ];
    for (case, (lens, call, (target, offset, len, size))) in table.into_iter().enumerate() {
        for length_only in [false, true] {
            match issue(lens, length_only, call) {
                Err(VpceError::RmaBounds {
                    target: t,
                    offset: o,
                    len: l,
                    size: s,
                }) => assert_eq!(
                    (t, o, l, s),
                    (target, offset, len, size),
                    "case {case}, length-only {length_only}"
                ),
                other => panic!("case {case}, length-only {length_only}: expected RmaBounds, got {other:?}"),
            }
        }
    }
}

#[test]
fn footprints_ending_exactly_at_the_shard_end_are_accepted() {
    let table: [Call; 4] = [
        |m, w| m.put_region(w, 1, 8, 8),
        |m, w| m.put_region_strided(w, 1, 3, 4, 4),
        |m, w| m.get_strided(w, 1, 15, 7, 1),
        // A caller buffer is not the origin's shard: only the target's
        // length binds.
        |m, w| m.put(w, 1, 12, vec![1.0; 4]),
    ];
    for (case, call) in table.into_iter().enumerate() {
        let lens = if case == 3 { [4, 16] } else { [16, 16] };
        for length_only in [false, true] {
            issue(lens, length_only, call)
                .unwrap_or_else(|e| panic!("case {case}, length-only {length_only}: {e}"));
        }
    }
}
