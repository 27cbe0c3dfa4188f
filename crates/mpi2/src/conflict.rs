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
//! [`ConflictRecord`] per colliding pair of wire messages.
//!
//! It asks planned ops first, as the static checker does: one
//! footprint per pending series, the union of its messages
//! ([`lmad::OpForm`]), and the questions [`OpForm::meets`] (two ops)
//! and [`OpForm::meets_itself`] (two messages of one op). Those
//! answers are exact — a union meets a footprint exactly when one of
//! its messages does — so an epoch whose ops collide nowhere has no
//! colliding message pair, and nothing is walked. Only the ops that
//! collide are expanded, message by message in the fence's order, into
//! the same scanner, which records each colliding pair in the order a
//! visit to every pair of the epoch's messages meets them: the other
//! ops' messages collide with none of these, so leaving them out moves
//! no record.
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
use lmad::{progressions_intersect, Normal, OpForm, RegionTransfer};

pub use lmad::epoch::ConflictKind;

use crate::rma::{AccumulateOp, Message, PendingSeries, RmaDir};
use crate::window::WinId;

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

/// One pending series as the op-level scan asks it, with its place in
/// the batch: a series of one is its message's progression; a longer
/// one is the union of its messages.
#[derive(Debug, Clone, Copy)]
enum OpSet<'n> {
    Message(AccessSet, usize),
    Union(OpForm<'n>, usize),
}

impl OpSet<'_> {
    fn at(self) -> usize {
        match self {
            OpSet::Message(_, at) | OpSet::Union(_, at) => at,
        }
    }
}

/// A message met against a union: its own one-message footprint asked
/// [`OpForm::meets`].
fn message_meets(m: &AccessSet, union: OpForm) -> bool {
    let t = RegionTransfer { offset: m.off as i64, stride: m.stride as u64, count: m.count as u64 };
    let n = Normal::of_transfer(&t);
    OpForm::new(n.view(), None).meets(union)
}

impl Footprint for OpSet<'_> {
    fn extent(&self) -> (i64, i64) {
        match self {
            OpSet::Message(m, _) => m.extent(),
            OpSet::Union(u, _) => u.extent(),
        }
    }

    fn meets(&self, other: &Self) -> bool {
        match (self, other) {
            (OpSet::Message(a, _), OpSet::Message(b, _)) => a.meets(b),
            (OpSet::Union(a, _), OpSet::Union(b, _)) => a.meets(*b),
            (OpSet::Message(m, _), OpSet::Union(u, _)) | (OpSet::Union(u, _), OpSet::Message(m, _)) => message_meets(m, *u),
        }
    }

    fn meets_itself(&self) -> bool {
        matches!(self, OpSet::Union(u, _) if u.meets_itself())
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

/// The working memory of the message-level half of an
/// [`EpochLedger`]. A universe keeps one beside the fence order, so a
/// fence that walks as many messages as an earlier one scans without
/// allocating.
pub(crate) type ScanScratch = EpochScan<AccessSet, AccumulateOp>;

fn access(dir: RmaDir) -> Access<AccumulateOp> {
    match dir {
        RmaDir::Put => Access::Put,
        RmaDir::Get => Access::Get,
        RmaDir::Acc(a) => Access::Acc(a),
    }
}

/// Which ops of a batch the ledger walks message by message.
enum Walk {
    /// None collides: nothing to walk.
    Nothing,
    /// A batch of series of one is its messages: all are walked.
    Everything,
    /// The ops that collide, by address, sorted.
    Ops(Vec<*const PendingSeries>),
}

/// The conflict ledger of one fence batch — the series of `queues`
/// (rank `r`'s at index `r`) on window `filter`, or all of them: one
/// access epoch per window. [`EpochLedger::open`] asks the ops; the
/// fence then shows it every message in the fence's order
/// ([`EpochLedger::see`]) as it books them, and [`EpochLedger::close`]
/// appends the colliding message pairs in that order's `(i, j)` order.
/// A fence whose booking fails never closes its ledger: the run ends
/// in that error, and no ledger is read.
pub(crate) struct EpochLedger<'s> {
    walk: Walk,
    scan: &'s mut ScanScratch,
}

impl<'s> EpochLedger<'s> {
    pub(crate) fn open(queues: &[Vec<PendingSeries>], filter: Option<WinId>, scan: &'s mut ScanScratch) -> Self {
        let ops = || {
            let by_origin = queues.iter().enumerate();
            by_origin.flat_map(|(origin, queue)| queue.iter().map(move |op| (origin, op))).filter(|(_, op)| op.admitted(filter))
        };
        let walk = if ops().all(|(_, op)| op.sent.len() == 1) {
            if ops().next().is_none() { Walk::Nothing } else { Walk::Everything }
        } else {
            let mut colliding = colliding_ops(&ops().collect::<Vec<_>>());
            colliding.sort_unstable();
            colliding.dedup();
            if colliding.is_empty() { Walk::Nothing } else { Walk::Ops(colliding) }
        };
        scan.begin(0);
        EpochLedger { walk, scan }
    }

    /// The next message of the batch, in the fence's order.
    pub(crate) fn see(&mut self, m: &Message) {
        let walked = match &self.walk {
            Walk::Nothing => false,
            Walk::Everything => true,
            Walk::Ops(colliding) => colliding.binary_search(&std::ptr::from_ref(m.op)).is_ok(),
        };
        if walked {
            let set = AccessSet::new(m.off, m.op.stride, m.count);
            self.scan.push(m.op.win.0, m.origin, m.op.target, access(m.op.dir), set);
        }
    }

    /// Append the batch's colliding message pairs to `found`.
    pub(crate) fn close(self, found: &mut Vec<ConflictRecord>) {
        found.extend(self.scan.conflicts().map(|(kind, a, b)| ConflictRecord {
            win: a.win,
            shard: a.shard,
            kind,
            ranks: (a.origin, b.origin),
            same_origin: a.origin == b.origin,
            set: a.op,
        }));
    }
}

/// The ops of a batch (with their origins) that collide with an op of
/// it, themselves included — one footprint per op through the epoch
/// scanner: each pair whose extents meet is asked [`OpForm::meets`]
/// once, each op [`OpForm::meets_itself`].
fn colliding_ops(ops: &[(usize, &PendingSeries)]) -> Vec<*const PendingSeries> {
    let unions: Vec<Option<Normal>> = ops
        .iter()
        .map(|(_, op)| (op.sent.len() > 1).then(|| Normal::of_plan(&op.plan)))
        .collect();
    let mut scan = EpochScan::<OpSet, AccumulateOp>::default();
    scan.begin(ops.len());
    for (at, ((origin, op), union)) in ops.iter().zip(&unions).enumerate() {
        let set = match union {
            Some(n) => OpSet::Union(OpForm::new(n.view(), Some(&op.plan)), at),
            None => {
                let (start, count) = (op.plan.starts().0 as usize, op.plan.shape().1 as usize);
                OpSet::Message(AccessSet::new(start, op.stride, count), at)
            }
        };
        scan.push(op.win.0, *origin, op.target, access(op.dir), set);
    }
    let pairs = scan.conflicts().flat_map(|(_, a, b)| [a.op.at(), b.op.at()]);
    let mut colliding: Vec<usize> = pairs.collect();
    colliding.extend(scan.self_conflicts().map(|(_, e)| e.op.at()));
    colliding.into_iter().map(|at| std::ptr::from_ref(ops[at].1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rma::{FenceOrder, Sent};
    use cluster_sim::Protocol;
    use lmad::{Dim, Granularity, Lmad, RegionTransfer, TransferPlan};

    /// A pending `dir` series from `origin` on `target`'s shard of
    /// window 0 over `plan`'s messages, issued from time `at` on.
    fn series(origin: usize, target: usize, dir: RmaDir, plan: TransferPlan, at: f64) -> (usize, PendingSeries) {
        let (stride, count) = plan.shape();
        let stride = if stride == 1 || count <= 1 { 1 } else { stride as usize };
        let data = (dir != RmaDir::Get).then(|| vec![0.0; plan.total_elems() as usize]);
        let sent = (0..plan.num_messages()).map(|_| Sent { issue: at, slot: None }).collect();
        let op = PendingSeries { target, win: WinId(0), dir, plan, stride, proto: Protocol::Rendezvous, data, sent };
        (origin, op)
    }

    /// A series of one message touching `off + i*stride`, `i < count`.
    fn pending(origin: usize, target: usize, dir: RmaDir, (off, stride, count): (usize, usize, usize)) -> (usize, PendingSeries) {
        let plan = TransferPlan::from(RegionTransfer { offset: off as i64, stride: stride as u64, count: count as u64 });
        series(origin, target, dir, plan, 0.0)
    }

    /// The batch `ops` as the fence sees it: each origin's series in
    /// list order, the list issued one time step apart, so the fence's
    /// order is the list's.
    fn batch(ops: Vec<(usize, PendingSeries)>) -> Vec<Vec<PendingSeries>> {
        let mut queues: Vec<Vec<PendingSeries>> = Vec::new();
        for (at, (origin, mut op)) in ops.into_iter().enumerate() {
            for sent in op.sent.iter_mut() {
                sent.issue += at as f64;
            }
            queues.resize_with(queues.len().max(origin + 1), Vec::new);
            queues[origin].push(op);
        }
        queues
    }

    /// What a fence over `queues` records: its ledger shown the
    /// messages in the fence's order.
    fn fence(queues: &[Vec<PendingSeries>], scan: &mut ScanScratch, found: &mut Vec<ConflictRecord>) {
        let mut ledger = EpochLedger::open(queues, None, scan);
        for m in FenceOrder::default().merge(queues, None) {
            ledger.see(&m);
        }
        ledger.close(found);
    }

    /// The records of a fence over `ops`, with memory of its own.
    fn scan_epoch(ops: Vec<(usize, PendingSeries)>) -> Vec<ConflictRecord> {
        let mut found = Vec::new();
        fence(&batch(ops), &mut ScanScratch::default(), &mut found);
        found
    }

    /// `(exact pair tests, op pairs decided on their unions or by their
    /// messages)` so far on this thread.
    #[cfg(debug_assertions)]
    fn exact_work() -> (u64, u64) {
        let ops = lmad::work::UNIONS.with(|c| c.get()) + lmad::work::WALKED.with(|c| c.get());
        (lmad::work::read().1, ops)
    }

    /// The work bound, on a deterministic counter: a fence batch of
    /// 19 200 disjoint contiguous PUTs, each a series of one (MM's
    /// fine-grain collect at `mm_wire`'s size as 15 slaves × 1 280
    /// column pieces, in issue order) is scanned as its messages and
    /// hands the exact test **no** pair at all, where the all-pairs
    /// scan visited 184 million.
    #[test]
    #[cfg(debug_assertions)]
    fn disjoint_put_batch_hands_the_exact_test_nothing() {
        let (slaves, pieces, len) = (15, 1280, 40);
        let mut ops = Vec::new();
        for piece in 0..pieces {
            for slave in 0..slaves {
                let off = (piece * slaves + slave) * len;
                ops.push(pending(slave + 1, 0, RmaDir::Put, (off, 1, len)));
            }
        }
        let queues = batch(ops);
        let (mut scan, mut found) = (ScanScratch::default(), Vec::new());
        let before = exact_work();
        fence(&queues, &mut scan, &mut found);
        assert_eq!(exact_work(), before);
        assert_eq!(scan.effects().len(), 19_200);
        assert!(scan.candidates().is_empty());
        assert!(found.is_empty());
    }

    /// The same batch as the runtime issues it since a planned op is one
    /// call: 15 series of 1 280 messages, one per slave. Their extents
    /// all meet, so the exact test is handed every op pair — 105 of
    /// them, each decided on the two unions as translates of one shape
    /// — and never one of the 1.6 billion message pairs; no message is
    /// walked.
    #[test]
    #[cfg(debug_assertions)]
    fn disjoint_series_batch_hands_the_exact_test_one_pair_per_op_pair() {
        let (slaves, pieces, len) = (15, 1280, 40);
        let ops = (0..slaves)
            .map(|slave| {
                let region = Lmad::new((slave * len) as i64, vec![Dim::new(1, len as u64), Dim::new((slaves * len) as i64, pieces)]);
                series(slave + 1, 0, RmaDir::Put, TransferPlan::lower(&region, Granularity::Fine, 0), 0.0)
            })
            .collect();
        let queues = batch(ops);
        assert_eq!(queues.iter().flatten().map(|op| op.plan.num_messages()).sum::<usize>(), 19_200);
        let (mut scan, mut found) = (ScanScratch::default(), Vec::new());
        let (tests, pairs) = exact_work();
        fence(&queues, &mut scan, &mut found);
        let (tests_after, pairs_after) = exact_work();
        assert_eq!(pairs_after - pairs, (slaves * (slaves - 1) / 2) as u64);
        assert!(tests_after - tests <= pairs_after - pairs);
        assert!(scan.effects().is_empty());
        assert!(found.is_empty());
        // One slave's pieces shifted onto another's: every message of
        // the two collides, and only those two ops are walked.
        let mut ops: Vec<_> = queues.into_iter().flatten().enumerate().map(|(s, op)| (s + 1, op)).collect();
        let region = Lmad::new(len as i64, vec![Dim::new(1, len as u64), Dim::new((slaves * len) as i64, pieces)]);
        ops[0] = series(1, 0, RmaDir::Put, TransferPlan::lower(&region, Granularity::Fine, 0), 0.0);
        let queues = batch(ops);
        fence(&queues, &mut scan, &mut found);
        assert_eq!(found.len(), pieces as usize);
        assert_eq!(scan.effects().len(), 2 * pieces as usize);
        assert!(found.iter().all(|c| c.ranks == (1, 2) && c.kind == ConflictKind::WriteWrite));
    }

    #[test]
    fn disjoint_puts_are_clean() {
        let ops = vec![
            pending(1, 0, RmaDir::Put, (0, 1, 4)),
            pending(2, 0, RmaDir::Put, (4, 1, 4)),
        ];
        assert!(scan_epoch(ops).is_empty());
    }

    #[test]
    fn overlapping_puts_from_two_origins_flagged() {
        let ops = vec![
            pending(1, 0, RmaDir::Put, (0, 1, 4)),
            pending(2, 0, RmaDir::Put, (3, 1, 4)),
        ];
        let c = scan_epoch(ops);
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
        let c = scan_epoch(ops);
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
        let c = scan_epoch(ops);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].shard, 2);
        assert_eq!(c[0].kind, ConflictKind::WriteWrite);
    }

    #[test]
    fn accumulates_same_op_commute_mixed_ops_flagged() {
        let acc = |origin, op| {
            pending(origin, 0, RmaDir::Acc(op), (0, 1, 3))
        };
        assert!(scan_epoch(vec![acc(1, AccumulateOp::Sum), acc(2, AccumulateOp::Sum)]).is_empty());
        let c = scan_epoch(vec![acc(1, AccumulateOp::Sum), acc(2, AccumulateOp::Max)]);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].kind, ConflictKind::AccMixed);
    }

    #[test]
    fn self_get_is_inert() {
        let ops = vec![
            pending(1, 1, RmaDir::Get, (0, 1, 8)),
            pending(2, 1, RmaDir::Put, (0, 1, 8)),
        ];
        assert!(scan_epoch(ops).is_empty());
    }

    #[test]
    fn interleaved_strided_puts_are_clean() {
        let ops = vec![
            pending(1, 0, RmaDir::Put, (0, 2, 8)),
            pending(2, 0, RmaDir::Put, (1, 2, 8)),
        ];
        assert!(scan_epoch(ops).is_empty());
    }
}
