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
//! — exactly one access epoch per window — for overlapping element
//! footprints and appends a [`ConflictRecord`] per offending pair.
//!
//! The footprint intersection here is **exact** (closed-form
//! arithmetic-progression intersection, no enumeration, no
//! approximation in either direction). That exactness is what makes
//! the differential soundness property meaningful: a recorded conflict
//! is a true element-level collision, so a static checker that stays
//! green on a flagged run has a genuine soundness hole.
//!
//! Scope: active-target (fence) epochs only. Passive-target
//! `put_now`/`accumulate_now` apply immediately under an exclusive
//! per-shard lock, which serialises them by construction.

use lmad::sweep::PairJoin;

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

    /// First and last element touched; `None` for the empty set.
    fn extent(&self) -> Option<(u128, u128)> {
        let last = self.count.checked_sub(1)?;
        let off = self.off as u128;
        Some((off, off + self.stride as u128 * last as u128))
    }

    /// Exact intersection test of two positive-stride progressions:
    /// solve `off1 + i*s1 == off2 + j*s2` over the index boxes via the
    /// linear Diophantine solution family. Never approximates.
    pub fn intersects(&self, other: &AccessSet) -> bool {
        if self.count == 0 || other.count == 0 {
            return false;
        }
        let (o1, s1, c1) = (self.off as i128, self.stride as i128, self.count as i128);
        let (o2, s2, c2) = (other.off as i128, other.stride as i128, other.count as i128);
        // Cheap extent rejection.
        let (a_lo, a_hi) = (o1, o1 + s1 * (c1 - 1));
        let (b_lo, b_hi) = (o2, o2 + s2 * (c2 - 1));
        if a_hi < b_lo || b_hi < a_lo {
            return false;
        }
        let d = o2 - o1;
        let (g, x, _) = ext_gcd(s1, s2);
        if d % g != 0 {
            return false;
        }
        let step_i = s2 / g;
        let i0 = (x.rem_euclid(step_i) * (d / g).rem_euclid(step_i)).rem_euclid(step_i);
        let j0 = (i0 * s1 - d) / s2;
        let step_j = s1 / g;
        let t_lo = div_ceil(-i0, step_i).max(div_ceil(-j0, step_j));
        let t_hi = div_floor(c1 - 1 - i0, step_i).min(div_floor(c2 - 1 - j0, step_j));
        t_lo <= t_hi
    }
}

fn div_floor(a: i128, b: i128) -> i128 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

fn div_ceil(a: i128, b: i128) -> i128 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

fn ext_gcd(a: i128, b: i128) -> (i128, i128, i128) {
    if b == 0 {
        (a, 1, 0)
    } else {
        let (g, x, y) = ext_gcd(b, a % b);
        (g, y, x - (a / b) * y)
    }
}

/// How two operations collided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictKind {
    /// Two writes to the same element (PUT/PUT, PUT/ACC, or the
    /// origin-side write of a GET against another write).
    WriteWrite,
    /// A write and a read of the same element (PUT vs the target-side
    /// read of a GET).
    WriteRead,
    /// Two ACCUMULATEs with *different* operators on the same element
    /// (same-operator accumulates commute and are permitted).
    AccMixed,
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

/// How one side of an op touches a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Write,
    Read,
    Acc(AccumulateOp),
}

/// Append the flattened shard effects of one op into `eff`.
fn push_effects(op: &PendingRma, eff: &mut Vec<Effect>) {
    let mk = |shard, role, set| Effect {
        win: op.win.0,
        shard,
        origin: op.origin,
        role,
        set,
    };
    let k = &op.kind;
    let set = AccessSet::new(k.off, k.stride, k.count);
    match k.dir {
        RmaDir::Put => eff.push(mk(op.target, Role::Write, set)),
        RmaDir::Acc(a) => eff.push(mk(op.target, Role::Acc(a), set)),
        // Symmetric layout: a self-get is the identity.
        RmaDir::Get if op.origin == op.target => {}
        RmaDir::Get => {
            eff.push(mk(op.target, Role::Read, set));
            eff.push(mk(op.origin, Role::Write, set));
        }
    }
}

/// Classify a pair of roles; `None` means the pair is permitted.
fn classify(a: Role, b: Role) -> Option<ConflictKind> {
    use Role::*;
    match (a, b) {
        (Read, Read) => None,
        (Acc(x), Acc(y)) if x == y => None,
        (Acc(_), Acc(_)) => Some(ConflictKind::AccMixed),
        (Read, _) | (_, Read) => Some(ConflictKind::WriteRead),
        _ => Some(ConflictKind::WriteWrite),
    }
}

/// One flattened shard effect: (window, shard, origin, role, set).
struct Effect {
    win: usize,
    shard: usize,
    origin: usize,
    role: Role,
    set: AccessSet,
}

/// The working memory of [`scan_epoch`]: the flattened effects and the
/// interval join over them. A universe keeps one beside the fence
/// order, so a fence the size of an earlier one scans without
/// allocating.
#[derive(Default)]
pub(crate) struct ScanScratch {
    eff: Vec<Effect>,
    join: PairJoin,
}

/// Scan one fence batch (= one access epoch per window) for
/// undefined-outcome pairs, appending them to `found`. Operations
/// arrive in the fence's order, filtered to the fenced window(s); empty
/// effect lists (self-gets) drop out naturally.
pub(crate) fn scan_epoch<'a>(
    ops: impl ExactSizeIterator<Item = &'a PendingRma>,
    scratch: &mut ScanScratch,
    found: &mut Vec<ConflictRecord>,
) {
    let ScanScratch { eff, join } = scratch;
    eff.clear();
    // One effect per operation, a GET's second aside.
    eff.reserve(ops.len());
    for op in ops {
        push_effects(op, eff);
    }
    found.extend(
        candidate_pairs(eff, join)
            .iter()
            .filter_map(|&(i, j)| conflict(&eff[i], &eff[j])),
    );
}

/// The pairs of one batch that can collide at all: same (window,
/// shard) and intersecting first..last element intervals, found by an
/// interval join per bucket instead of a visit to every pair. The join
/// only drops pairs [`conflict`] drops itself (its shard test, and the
/// extent rejection that opens [`AccessSet::intersects`]), and returns
/// the rest in the all-pairs loop's `(i, j)` order, so the ledger
/// keeps its record order.
fn candidate_pairs<'j>(eff: &[Effect], join: &'j mut PairJoin) -> &'j [(usize, usize)] {
    join.pairs_by_key(eff.len(), |i| {
        let e = &eff[i];
        // An empty set meets nothing: give it an empty interval.
        ((e.win, e.shard), e.set.extent().unwrap_or((1, 0)))
    })
}

/// The ledger record for one pair of effects, if they collide.
fn conflict(a: &Effect, b: &Effect) -> Option<ConflictRecord> {
    if a.win != b.win || a.shard != b.shard {
        return None;
    }
    let kind = classify(a.role, b.role)?;
    if !a.set.intersects(&b.set) {
        return None;
    }
    Some(ConflictRecord {
        win: a.win,
        shard: a.shard,
        kind,
        ranks: (a.origin, b.origin),
        same_origin: a.origin == b.origin,
        set: a.set,
    })
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

    /// The all-pairs scan the interval join replaced, kept as the
    /// oracle: same effects, same `conflict`, every pair visited.
    fn scan_epoch_all_pairs(ops: &[PendingRma]) -> Vec<ConflictRecord> {
        let mut eff = Vec::new();
        for op in ops {
            push_effects(op, &mut eff);
        }
        let mut out = Vec::new();
        for (i, a) in eff.iter().enumerate() {
            for b in &eff[i + 1..] {
                out.extend(conflict(a, b));
            }
        }
        out
    }

    /// `scan_epoch` ≡ the all-pairs oracle **including record order**,
    /// over random PUT/GET/ACC batches on two windows: strided sets,
    /// zero strides, zero-count ops, self-gets.
    #[test]
    fn scan_epoch_matches_all_pairs_oracle_in_order() {
        use vpce_testkit::prelude::*;
        let op = zip4(
            zip3(usize_in(0, 3), usize_in(0, 3), usize_in(0, 1)),
            usize_in(0, 5),
            zip3(usize_in(0, 40), usize_in(0, 5), usize_in(0, 8)),
            elem_of(vec![AccumulateOp::Sum, AccumulateOp::Max]),
        );
        Check::new("mpi2::scan_epoch_matches_all_pairs_oracle_in_order")
            .cases(512)
            .run(&vec_of(op, 0, 24), |batch| {
                let ops: Vec<PendingRma> = batch
                    .iter()
                    .map(|&((origin, target, win), shape, (off, stride, count), acc)| {
                        let (dir, stride) = match shape {
                            0 | 1 => (RmaDir::Put, 1),
                            2 => (RmaDir::Put, stride),
                            3 => (RmaDir::Get, 1),
                            4 => (RmaDir::Get, stride),
                            _ => (RmaDir::Acc(acc), 1),
                        };
                        PendingRma {
                            win: WinId(win),
                            ..pending(origin, target, dir, (off, stride, count))
                        }
                    })
                    .collect();
                prop_assert_eq!(scan_epoch(&ops), scan_epoch_all_pairs(&ops));
                Ok(())
            });
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
        let mut eff = Vec::new();
        for op in &ops {
            push_effects(op, &mut eff);
        }
        assert_eq!(eff.len(), 19_200);
        assert!(candidate_pairs(&eff, &mut PairJoin::default()).is_empty());
        assert!(scan_epoch(&ops).is_empty());
    }

    #[test]
    fn access_set_intersection_exact() {
        let evens = AccessSet::new(0, 2, 10);
        let odds = AccessSet::new(1, 2, 10);
        assert!(!evens.intersects(&odds));
        assert!(evens.intersects(&AccessSet::new(4, 6, 3)));
        // Touching-but-disjoint.
        let a = AccessSet::new(0, 1, 5);
        let b = AccessSet::new(5, 1, 5);
        assert!(!a.intersects(&b));
        assert!(a.intersects(&AccessSet::new(4, 1, 1)));
        // Degenerate normalisation.
        let single = AccessSet::new(7, 0, 9);
        assert_eq!(single, AccessSet::new(7, 1, 1));
        assert!(single.intersects(&AccessSet::new(7, 3, 2)));
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
