//! Dynamic epoch-conflict ledger — the *runtime* ground truth the
//! static `vpce-rmacheck` pass is validated against.
//!
//! MPI-2's RMA rules make the outcome of an access epoch undefined
//! when two operations touch the same window location without an
//! intervening fence: concurrent PUTs from different origins,
//! PUT-vs-GET on the same element, or mixed-operator ACCUMULATEs. The
//! simulator happens to resolve them deterministically (sorted
//! application order), which *hides* such bugs. This ledger records
//! them instead: every closing fence scans the operations it completes
//! — exactly one access epoch per window — through [`lmad::epoch`],
//! the scanner the static checker uses, and appends a
//! [`ConflictRecord`] per colliding pair.
//!
//! The footprint test is **exact** (closed-form progression
//! intersection, no enumeration, no approximation in either
//! direction). That exactness is what makes the differential soundness
//! property meaningful: a recorded conflict is a true element-level
//! collision, so a static checker that stays green on a flagged run
//! has a genuine soundness hole.
//!
//! Scope: active-target (fence) epochs only. Passive-target
//! `put_now`/`accumulate_now` apply immediately under an exclusive
//! per-shard lock, which serialises them by construction.

use lmad::epoch::{Access, EpochScan, Footprint};
use lmad::progressions_intersect;

pub use lmad::epoch::ConflictKind;

use crate::rma::{AccumulateOp, PendingRma, RmaDir};

/// The element footprint of one side of an RMA operation on one
/// window shard: `{off + i*stride : 0 <= i < count}` with
/// `stride >= 1` (degenerate inputs are normalised on construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessSet {
    pub off: usize,
    pub stride: usize,
    pub count: usize,
}

impl AccessSet {
    /// Normalising constructor: a zero stride or a count below two
    /// collapses to a single-element (or empty) set — which is exactly
    /// what such an operation touches.
    pub fn new(off: usize, stride: usize, count: usize) -> Self {
        if stride == 0 || count <= 1 {
            AccessSet {
                off,
                stride: 1,
                count: count.min(1),
            }
        } else {
            AccessSet { off, stride, count }
        }
    }
}

/// A ledger set lies inside a shard (its operation passed the bounds
/// check when it was issued), so every element fits an `i64`.
impl Footprint for AccessSet {
    fn extent(&self) -> (i64, i64) {
        match self.count.checked_sub(1) {
            None => (1, 0),
            Some(last) => (self.off as i64, (self.off + self.stride * last) as i64),
        }
    }

    fn meets(&self, other: &AccessSet) -> bool {
        let side = |s: &AccessSet| (s.off as i64, s.stride as i64, s.count as u64);
        let ((o1, s1, c1), (o2, s2, c2)) = (side(self), side(other));
        progressions_intersect(o1, s1, c1, o2, s2, c2)
    }
}

/// One undefined-outcome pair detected at a closing fence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictRecord {
    /// Window index (`WinId.0`).
    pub win: usize,
    /// Rank owning the shard on which the footprints collide.
    pub shard: usize,
    pub kind: ConflictKind,
    /// Origin ranks of the two colliding operations.
    pub ranks: (usize, usize),
    /// True when a single rank raced against itself (still undefined
    /// under MPI-2 for non-accumulate ops, but a distinct diagnostic
    /// class for the static checker).
    pub same_origin: bool,
    /// One footprint of the colliding pair, as a debugging hint.
    pub set: AccessSet,
}

/// The working memory of [`scan_epoch`]. A universe keeps one beside
/// the fence order, so a fence the size of an earlier one scans
/// without allocating.
pub(crate) type ScanScratch = EpochScan<AccessSet, AccumulateOp>;

/// Scan one fence batch (= one access epoch per window) for
/// undefined-outcome pairs, appending them to `found`. Operations
/// arrive in the fence's order, filtered to the fenced window(s).
pub(crate) fn scan_epoch<'a>(
    ops: impl ExactSizeIterator<Item = &'a PendingRma>,
    scan: &mut ScanScratch,
    found: &mut Vec<ConflictRecord>,
) {
    scan.begin(ops.len());
    for op in ops {
        let k = &op.kind;
        let access = match k.dir {
            RmaDir::Put => Access::Put,
            RmaDir::Get => Access::Get,
            RmaDir::Acc(a) => Access::Acc(a),
        };
        let set = AccessSet::new(k.off, k.stride, k.count);
        scan.push(op.win.0, op.origin, op.target, access, set);
    }
    found.extend(scan.conflicts().map(|(kind, a, b)| ConflictRecord {
        win: a.win,
        shard: a.shard,
        kind,
        ranks: (a.origin, b.origin),
        same_origin: a.origin == b.origin,
        set: a.op,
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rma::{RmaKind, RmaSrc};
    use crate::window::WinId;
    use cluster_sim::Protocol;

    /// A pending `dir` op from `origin` on `target`'s shard of window
    /// 0, touching `off + i*stride`, `i < count`.
    fn pending(
        origin: usize,
        target: usize,
        dir: RmaDir,
        (off, stride, count): (usize, usize, usize),
    ) -> PendingRma {
        let src = match dir {
            RmaDir::Get => RmaSrc::Shard,
            _ => RmaSrc::Pinned(vec![0.0; count]),
        };
        PendingRma {
            origin,
            target,
            win: WinId(0),
            issue: 0.0,
            proto: Protocol::Eager,
            kind: RmaKind {
                dir,
                off,
                stride,
                count,
                src,
            },
        }
    }

    /// [`scan_epoch`] with memory of its own.
    fn scan_epoch(ops: &[PendingRma]) -> Vec<ConflictRecord> {
        let mut found = Vec::new();
        super::scan_epoch(ops.iter(), &mut ScanScratch::default(), &mut found);
        found
    }

    /// The work bound, on a deterministic counter: a fence batch of
    /// 19 200 disjoint contiguous PUTs (MM's fine-grain collect at
    /// `mm_wire`'s size: 15 slaves × 1 280 column pieces, in issue
    /// order) hands the exact test **no** pair at all, where the
    /// all-pairs scan visited 184 million.
    #[test]
    fn disjoint_put_batch_hands_the_exact_test_nothing() {
        let (slaves, pieces, len) = (15, 1280, 40);
        let mut ops = Vec::new();
        for piece in 0..pieces {
            for slave in 0..slaves {
                let off = (piece * slaves + slave) * len;
                ops.push(pending(slave + 1, 0, RmaDir::Put, (off, 1, len)));
            }
        }
        let (mut scan, mut found) = (ScanScratch::default(), Vec::new());
        super::scan_epoch(ops.iter(), &mut scan, &mut found);
        assert_eq!(scan.effects().len(), 19_200);
        assert!(scan.candidates().is_empty());
        assert!(found.is_empty());
    }

    #[test]
    fn disjoint_puts_are_clean() {
        let ops = vec![
            pending(1, 0, RmaDir::Put, (0, 1, 4)),
            pending(2, 0, RmaDir::Put, (4, 1, 4)),
        ];
        assert!(scan_epoch(&ops).is_empty());
    }

    #[test]
    fn overlapping_puts_from_two_origins_flagged() {
        let ops = vec![
            pending(1, 0, RmaDir::Put, (0, 1, 4)),
            pending(2, 0, RmaDir::Put, (3, 1, 4)),
        ];
        let c = scan_epoch(&ops);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].kind, ConflictKind::WriteWrite);
        assert_eq!(c[0].ranks, (1, 2));
        assert!(!c[0].same_origin);
    }

    #[test]
    fn put_vs_get_read_flagged() {
        let ops = vec![
            pending(1, 0, RmaDir::Put, (2, 1, 2)),
            pending(2, 0, RmaDir::Get, (3, 1, 4)),
        ];
        let c = scan_epoch(&ops);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].kind, ConflictKind::WriteRead);
    }

    #[test]
    fn get_origin_side_write_can_conflict() {
        // Rank 2 gets [0,4) from rank 0 (writing its own shard), while
        // rank 1 puts into rank 2's shard at the same offsets.
        let ops = vec![
            pending(2, 0, RmaDir::Get, (0, 1, 4)),
            pending(1, 2, RmaDir::Put, (2, 1, 2)),
        ];
        let c = scan_epoch(&ops);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].shard, 2);
        assert_eq!(c[0].kind, ConflictKind::WriteWrite);
    }

    #[test]
    fn accumulates_same_op_commute_mixed_ops_flagged() {
        let acc = |origin, op| {
            pending(origin, 0, RmaDir::Acc(op), (0, 1, 3))
        };
        assert!(scan_epoch(&[acc(1, AccumulateOp::Sum), acc(2, AccumulateOp::Sum)]).is_empty());
        let c = scan_epoch(&[acc(1, AccumulateOp::Sum), acc(2, AccumulateOp::Max)]);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].kind, ConflictKind::AccMixed);
    }

    #[test]
    fn self_get_is_inert() {
        let ops = vec![
            pending(1, 1, RmaDir::Get, (0, 1, 8)),
            pending(2, 1, RmaDir::Put, (0, 1, 8)),
        ];
        assert!(scan_epoch(&ops).is_empty());
    }

    #[test]
    fn interleaved_strided_puts_are_clean() {
        let ops = vec![
            pending(1, 0, RmaDir::Put, (0, 2, 8)),
            pending(2, 0, RmaDir::Put, (1, 2, 8)),
        ];
        assert!(scan_epoch(&ops).is_empty());
    }
}
