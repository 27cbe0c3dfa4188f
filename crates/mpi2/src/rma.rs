//! One-sided operations: one series from issue to apply.
//!
//! The paper's MPI-2 library (§2.2) has a single one-sided operation
//! family — PUT, GET, ACCUMULATE over a constant-stride region — and
//! the compiler lowers each communication region to §5.4's splitted
//! LMAD: `A_offsets` × one `A_mapping` shape, an [`lmad::TransferPlan`].
//! This module carries that plan whole, as MPI-2 carries a derived
//! datatype: one call ([`Mpi::put_series`], [`Mpi::get_series`]) issues
//! every message of the plan and leaves **one** record, a
//! [`PendingSeries`], in the rank's queue. The single-message entry
//! points ([`Mpi::put`], [`Mpi::put_region`], [`Mpi::get`],
//! [`Mpi::accumulate`], …) are series of one through the same path.
//! Stride is data, not a variant: a contiguous message is simply
//! `stride == 1`. The one fork the paper does describe — "contiguous
//! transfers using DMA and strided transfers using programmed I/O" — is
//! a host **cost** decision fixed by the entry point the caller chose
//! ([`Mpi::put`] prices as DMA, [`Mpi::put_strided`] as PIO, whatever
//! the stride; a plan's messages are PIO when they are strided), not a
//! property of the record.
//!
//! Inside an access epoch every active-target call goes through
//! [`Mpi::issue`]: check bounds once on the op's extent, then walk the
//! messages in the plan's order — stage each payload, charge the origin
//! CPU each message's host-side initiation cost — and append the series
//! to the rank's own queue, where it stays. The series keeps, per
//! message, only what its plan cannot give back ([`Sent`]: the issue
//! time and the registered slot of an eager payload). The closing fence
//! merges the queues' messages in one deterministic order
//! ([`FenceOrder`]), schedules every wire transfer on the link
//! simulator, and materialises the memory effects through
//! [`apply_memory`] — the MPI-2 rule that RMA results become visible
//! only when the epoch closes. Passive-target (`*_now`) calls build a
//! series of one and apply it immediately.
//!
//! A pending payload does not always own a heap copy of its data: a
//! message's payload lives in a registered eager slot (staged at issue
//! time), in the caller's buffer the series holds, or in the **sending
//! side's own window shard** (zero-copy, read at apply time under the
//! symmetric layout). The sending side is the origin for PUT and the
//! target for GET, so a GET always reads the target's shard.
//!
//! Whether it holds data at all is a separate question with one answer
//! (`WindowTable::moves_values`): **an operation moves values iff both
//! the origin's and the target's shard of its window are backed.**
//! With a length-only shard (see [`crate::window`]) on either side the
//! series, the protocol, the registered slot, the wire legs and every
//! fault draw are unchanged and the two copies — the staging copy in
//! [`Mpi::stage`], the landing in [`apply_memory`] — are skipped: what
//! a transfer costs never depended on its bytes.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use cluster_sim::{HostCostBreakdown, Protocol, TransferKind};
use lmad::{RegionTransfer, TransferPlan, Transfers};
use vpce_faults::VpceError;
use vpce_trace::{CallOp, Dominator, EventKind, Lane};

use crate::pool::BufferPool;
use crate::sync::Mutex;
use crate::universe::{transfer_info, Mpi};
use crate::window::{WinId, WindowRef, WindowTable};
use crate::Elem;

/// Reduction operator for `MPI_ACCUMULATE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccumulateOp {
    Sum,
    Prod,
    Max,
    Min,
}

impl AccumulateOp {
    /// Apply the operator.
    pub fn apply(self, a: Elem, b: Elem) -> Elem {
        match self {
            AccumulateOp::Sum => a + b,
            AccumulateOp::Prod => a * b,
            AccumulateOp::Max => a.max(b),
            AccumulateOp::Min => a.min(b),
        }
    }
}

/// Which way the data flows, and how it lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RmaDir {
    /// Origin → target, overwriting.
    Put,
    /// Target → origin, overwriting.
    Get,
    /// Origin → target, combined into the target with the operator.
    Acc(AccumulateOp),
}

/// What one message of a series keeps from its issue: everything else
/// about it is its plan's. 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Sent {
    /// Origin virtual time when the message left the host (after its
    /// host overhead was charged).
    pub issue: f64,
    /// The registered slot of the origin's pool its payload is staged
    /// in (eager protocol). The slot stays pinned — retransmits replay
    /// out of it — until the fence releases it. `None`: the message
    /// goes rendezvous, or is a GET.
    pub slot: Option<u32>,
}

/// A buffered planned op awaiting the closing fence: one series of
/// messages of one shape, `plan`'s, between this rank and one target's
/// shard of one window, each touching elements `off + i*stride`,
/// `i < count`, for its start `off`.
///
/// Offsets are in elements. Layouts are symmetric: the scatter/collect
/// scheme keeps every rank's copy of an array at full size, so a region
/// lives at the same offsets on both sides (see `spmd-rt`).
#[derive(Debug, Clone)]
pub(crate) struct PendingSeries {
    pub target: usize,
    pub win: WinId,
    pub dir: RmaDir,
    /// The messages: their starts, in issue order
    /// ([`TransferPlan::transfers`]), and their one shape.
    pub plan: TransferPlan,
    /// Every message's element stride as issued: the plan's on the PIO
    /// path, 1 on DMA.
    pub stride: usize,
    /// The protocol the message size picks. A PUT or ACCUMULATE message
    /// that found the eager pool drained went rendezvous instead — its
    /// [`Sent::slot`] is empty.
    pub proto: Protocol,
    /// The caller's payload, every message's elements end to end;
    /// `None` when each message moves the sending side's own shard
    /// region.
    pub data: Option<Vec<Elem>>,
    /// One per message issued, in issue order. Shorter than the plan
    /// only when the issue stopped at an error.
    pub sent: Sents,
}

/// The [`Sent`] records of one series: a series of one — every
/// single-message entry point's — keeps its record in place and
/// allocates nothing.
#[derive(Debug, Clone)]
pub(crate) enum Sents {
    One(Option<Sent>),
    Many(Vec<Sent>),
}

impl Default for Sents {
    fn default() -> Self {
        Sents::One(None)
    }
}

impl Sents {
    /// Room for `n` records.
    pub(crate) fn with_capacity(n: usize) -> Self {
        if n > 1 {
            Sents::Many(Vec::with_capacity(n))
        } else {
            Sents::default()
        }
    }

    pub(crate) fn push(&mut self, sent: Sent) {
        match self {
            Sents::One(one @ None) => *one = Some(sent),
            Sents::One(Some(first)) => *self = Sents::Many(vec![*first, sent]),
            Sents::Many(all) => all.push(sent),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Sents::One(one) => usize::from(one.is_some()),
            Sents::Many(all) => all.len(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `nth` record.
    pub(crate) fn get(&self, nth: usize) -> Option<Sent> {
        match self {
            Sents::One(one) => one.filter(|_| nth == 0),
            Sents::Many(all) => all.get(nth).copied(),
        }
    }

    #[cfg(test)]
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut Sent> + '_ {
        match self {
            Sents::One(one) => one.as_mut_slice().iter_mut(),
            Sents::Many(all) => all.iter_mut(),
        }
    }
}

#[cfg(test)]
impl FromIterator<Sent> for Sents {
    fn from_iter<I: IntoIterator<Item = Sent>>(iter: I) -> Self {
        let mut sents = Sents::default();
        iter.into_iter().for_each(|s| sents.push(s));
        sents
    }
}

impl PendingSeries {
    /// The messages `origin` issued, in issue order.
    #[cfg(test)]
    pub(crate) fn messages(&self, origin: usize) -> impl Iterator<Item = Message<'_>> + '_ {
        Run { origin, filter: None, ops: std::slice::from_ref(self).iter(), walk: None }
    }

    /// Is this op one the fence over window `filter` (all, for `None`)
    /// completes?
    pub(crate) fn admitted(&self, filter: Option<WinId>) -> bool {
        filter.is_none_or(|win| self.win == win)
    }
}

/// The protocol a `dir` message of a series whose size picks `proto`
/// went under, given its eager slot: a GET stages nothing, a PUT or
/// ACCUMULATE without a slot went rendezvous.
fn message_proto(dir: RmaDir, proto: Protocol, slot: Option<u32>) -> Protocol {
    match (dir, slot) {
        (RmaDir::Get, _) => proto,
        (_, Some(_)) => Protocol::Eager,
        (_, None) => Protocol::Rendezvous,
    }
}

/// The host charges of one op's messages, by `[eager][batched]`.
type OpCharges = [[Option<HostCostBreakdown>; 2]; 2];

/// One wire message of a pending series, as the fence reads it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Message<'q> {
    pub origin: usize,
    pub op: &'q PendingSeries,
    /// Its place in the series' issue order.
    pub nth: usize,
    /// First element touched.
    pub off: usize,
    pub count: usize,
    pub sent: Sent,
}

impl<'q> Message<'q> {
    fn of(origin: usize, op: &'q PendingSeries, nth: usize, t: RegionTransfer, sent: Sent) -> Self {
        Message {
            origin,
            op,
            nth,
            off: t.offset as usize,
            count: t.count as usize,
            sent,
        }
    }

    /// True when data flows target → origin.
    pub(crate) fn is_get(&self) -> bool {
        self.op.dir == RmaDir::Get
    }

    /// `(sending, receiving)` rank of the payload: origin → target,
    /// reversed for a GET.
    pub(crate) fn flow(&self) -> (usize, usize) {
        if self.is_get() {
            (self.op.target, self.origin)
        } else {
            (self.origin, self.op.target)
        }
    }

    /// Which transport protocol the fence schedules this message under.
    pub(crate) fn proto(&self) -> Protocol {
        message_proto(self.op.dir, self.op.proto, self.sent.slot)
    }

    /// Payload bytes crossing the wire (protocol headers excluded).
    pub(crate) fn wire_bytes(&self) -> usize {
        self.count * crate::ELEM_BYTES
    }

    /// The registered eager slot holding this payload, if any — the
    /// fence releases it once the wire transfer has drained.
    pub(crate) fn eager_slot(&self) -> Option<usize> {
        self.sent.slot.map(|slot| slot as usize)
    }

    /// The deterministic scheduling order: issue time, then origin.
    /// Messages one origin issued at one time keep their issue order
    /// — their order in the origin's queue, see [`FenceOrder`].
    pub(crate) fn sort_key(&self) -> (u64, usize) {
        (f64_order_key(self.sent.issue), self.origin)
    }
}

/// One past the highest element of `{off + i*stride : i < count}`;
/// `None` when that does not fit a `usize` (which no shard can hold).
fn extent(off: usize, stride: usize, count: usize) -> Option<usize> {
    match count.checked_sub(1) {
        None => Some(off),
        Some(last) => stride.checked_mul(last)?.checked_add(1)?.checked_add(off),
    }
}

/// The order a closing fence completes messages in — ascending
/// [`Message::sort_key`] over every rank's queue, an origin's ties in
/// issue order — as a merge: nothing is listed or sorted.
///
/// Each queue is already a sorted run of messages: a rank pushes its
/// series in issue order, walks a series' messages in issue order, and
/// its clock never goes back; a queue only ever loses series from its
/// middle (`retain` at a filtered fence), so what is left is still in
/// issue order. So the order is a merge of the runs, one head per
/// origin in a heap keyed `(issue bits, origin)` — the key of the
/// sort it replaces, the origin breaking ties in rank order, and the
/// run itself the issue order within one origin. The heap keeps its
/// capacity between fences.
#[derive(Default)]
pub(crate) struct FenceOrder {
    /// `(issue bits, run)` of every unfinished run's next message;
    /// runs are numbered in origin order.
    heads: BinaryHeap<Reverse<(u64, usize)>>,
}

impl FenceOrder {
    /// The messages of `queues` — rank `r`'s at index `r` — on window
    /// `filter`, or all of them, in the fence's order, read where they
    /// were issued.
    pub(crate) fn merge<'q>(
        &'q mut self,
        queues: &'q [Vec<PendingSeries>],
        filter: Option<WinId>,
    ) -> impl Iterator<Item = Message<'q>> + 'q {
        // Each run with its next message read ahead.
        let mut runs: Vec<(Run<'q>, Message<'q>)> = Vec::with_capacity(queues.len());
        runs.extend(queues.iter().enumerate().filter_map(|(origin, queue)| {
            let mut run = Run { origin, filter, ops: queue.iter(), walk: None };
            let first = run.next()?;
            Some((run, first))
        }));
        self.heads.clear();
        let firsts = runs.iter().enumerate();
        self.heads.extend(firsts.map(|(at, (_, first))| Reverse((first.sort_key().0, at))));
        let heads = &mut self.heads;
        std::iter::from_fn(move || {
            let mut head = heads.peek_mut()?;
            let (run, ahead) = &mut runs[head.0 .1];
            Some(match run.next() {
                Some(after) => {
                    debug_assert!(after.sent.issue >= ahead.sent.issue, "a run is sorted");
                    head.0 .0 = after.sort_key().0;
                    std::mem::replace(ahead, after)
                }
                None => {
                    PeekMut::pop(head);
                    *ahead
                }
            })
        })
    }
}

/// One origin's admitted messages, in issue order: its queue's series
/// on the fenced window(s), each walked message by message.
struct Run<'q> {
    origin: usize,
    filter: Option<WinId>,
    ops: std::slice::Iter<'q, PendingSeries>,
    /// The series being walked, its messages, and the next one's place.
    walk: Option<(&'q PendingSeries, Transfers<'q>, usize)>,
}

impl<'q> Iterator for Run<'q> {
    type Item = Message<'q>;

    fn next(&mut self) -> Option<Message<'q>> {
        loop {
            if let Some((op, transfers, nth)) = &mut self.walk {
                if let Some(sent) = op.sent.get(*nth) {
                    if let Some(t) = transfers.next() {
                        *nth += 1;
                        return Some(Message::of(self.origin, op, *nth - 1, t, sent));
                    }
                }
            }
            let filter = self.filter;
            let op = self.ops.find(|op| op.admitted(filter))?;
            self.walk = Some((op, op.plan.transfers(), 0));
        }
    }
}

/// Monotone map from non-negative finite f64 to u64 preserving order.
pub(crate) fn f64_order_key(x: f64) -> u64 {
    debug_assert!(x >= 0.0 && x.is_finite(), "virtual time must be finite+");
    x.to_bits()
}

impl Mpi {
    /// Reject a message whose footprint leaves a shard it touches —
    /// the target's always, and this rank's own when the operation
    /// reads or writes it (`own_shard`; ranks may create windows of
    /// different lengths). Runs before any staging or host charge.
    fn check_bounds(
        &self,
        win: &WindowRef,
        target: usize,
        (off, stride, count): (usize, usize, usize),
        own_shard: bool,
    ) -> Result<(), VpceError> {
        self.check_rank("target", target)?;
        let end = extent(off, stride, count);
        for rank in std::iter::once(target).chain(own_shard.then_some(self.rank)) {
            let size = win.shard_len(rank);
            if end.is_none_or(|e| e > size) {
                return Err(VpceError::RmaBounds {
                    target: rank,
                    offset: off,
                    len: end.map_or(usize::MAX, |e| e - off),
                    size,
                });
            }
        }
        Ok(())
    }

    /// Does every message of `plan`, each `(stride, count)`, pass
    /// [`Mpi::check_bounds`]? Asked once, of the op's extent: no start
    /// below 0 and the highest-starting message inside every shard.
    /// `false` when that cannot be shown — the walk then checks message
    /// by message, and fails where and as a message-by-message issue
    /// does.
    fn series_in_bounds(
        &self,
        win: &WindowRef,
        target: usize,
        plan: &TransferPlan,
        (stride, count): (usize, usize),
        own_shard: bool,
    ) -> Result<bool, VpceError> {
        self.check_rank("target", target)?;
        let (lo, hi) = plan.starts();
        let end = usize::try_from(hi)
            .ok()
            .filter(|_| lo >= 0)
            .and_then(|hi| extent(hi, stride, count));
        let shards = std::iter::once(target).chain(own_shard.then_some(self.rank));
        Ok(end.is_some_and(|e| shards.into_iter().all(|rank| e <= win.shard_len(rank))))
    }

    /// Retire the open descriptor ring: one doorbell event covering
    /// every descriptor that batched onto it.
    pub(crate) fn flush_ring(&mut self) {
        if let Some((_, n)) = self.ring.take() {
            if self.shared.tracer.is_enabled() {
                self.shared.tracer.push(
                    Lane::Rank(self.rank),
                    self.clock,
                    self.clock,
                    EventKind::Doorbell {
                        rank: self.rank,
                        descs: n as u64,
                    },
                );
            }
        }
    }

    /// Protocol-aware host charge for one active-target transfer:
    /// descriptor-ring batching (consecutive same-window descriptors
    /// share a doorbell), the eager/rendezvous cost split, and the NIC
    /// fault plane (eager retries replay from the registered slot).
    /// `charges` holds what this op's earlier messages of the same
    /// protocol and batching paid, when that is all a charge depends on.
    fn charge_host_proto(
        &mut self,
        kind: TransferKind,
        proto: Protocol,
        win: WinId,
        charges: &mut Option<OpCharges>,
    ) -> Result<HostCostBreakdown, VpceError> {
        let depth = self.shared.policy.ring_depth.max(1);
        let batched = matches!(self.ring, Some((w, n)) if w == win && n < depth);
        if batched {
            if let Some((_, n)) = self.ring.as_mut() {
                *n += 1;
                self.stats.ring_batch_max = self.stats.ring_batch_max.max(*n as u64);
            }
            self.stats.ring_batched += 1;
        } else {
            self.flush_ring();
            self.ring = Some((win, 1));
            self.stats.doorbells += 1;
            self.stats.ring_batch_max = self.stats.ring_batch_max.max(1);
        }
        let known = charges.as_mut().map(|c| &mut c[usize::from(proto == Protocol::Eager)][usize::from(batched)]);
        let b = match known {
            Some(Some(b)) => {
                self.nic_seq += 1;
                *b
            }
            Some(slot) => *slot.insert(self.host_breakdown_checked(kind, Some((proto, batched)))?),
            None => self.host_breakdown_checked(kind, Some((proto, batched)))?,
        };
        self.clock += b.total();
        self.stats.comm_host += b.total();
        let wire = kind.wire_bytes() as u64;
        match kind {
            TransferKind::Contiguous { .. } => self.stats.rma_contiguous += 1,
            TransferKind::Strided { elems, .. } => {
                self.stats.rma_strided += 1;
                // Only rendezvous gathers element-by-element over PIO;
                // an eager strided payload rides the staging memcpy.
                if proto == Protocol::Rendezvous {
                    self.stats.pio_elems += elems as u64;
                }
            }
        }
        match proto {
            Protocol::Eager => {
                self.stats.eager_ops += 1;
                self.stats.eager_bytes += wire;
                self.stats.eager_copy_s += b.copy_s;
            }
            Protocol::Rendezvous => {
                self.stats.rdvz_ops += 1;
                self.stats.rdvz_bytes += wire;
            }
        }
        Ok(b)
    }

    /// Stage an eager message's payload: gather it densely into a
    /// registered slot (stalling in virtual time if the pool is drained
    /// but a pin is scheduled to expire) and return the slot, or — the
    /// pool exhausted with nothing scheduled to free — `None`: the
    /// message falls back to rendezvous. `data` is the caller's payload;
    /// without one it is elements `off + i*stride` of this rank's own
    /// shard, staged without allocating. A message that moves no values
    /// acquires, pins and releases its slot all the same; only the copy
    /// is skipped.
    fn stage(
        &mut self,
        win: &WindowRef,
        target: usize,
        (off, stride, count): (usize, usize, usize),
        data: Option<&[Elem]>,
    ) -> Option<u32> {
        let moves = win.moves_values(self.rank, target);
        let mut pool = self.shared.pools[self.rank].lock();
        let Some((slot, wait)) = pool.acquire(self.clock) else {
            // Every slot held by this same epoch: fall back to
            // rendezvous.
            self.stats.eager_fallbacks += 1;
            return None;
        };
        if wait > 0.0 {
            self.stats.pool_waits += 1;
            self.stats.pool_wait_s += wait;
            self.stats.comm_wait += wait;
            if self.shared.tracer.is_enabled() {
                self.shared.tracer.push(
                    Lane::Rank(self.rank),
                    self.clock,
                    self.clock + wait,
                    EventKind::PoolWait { rank: self.rank },
                );
            }
            self.clock += wait;
        }
        self.stats.pool_hwm = self.stats.pool_hwm.max(pool.hwm() as u64);
        if moves {
            let dst = pool.slot_mut(slot, count);
            match data {
                Some(d) => dst.copy_from_slice(d),
                None if stride == 1 => dst.copy_from_slice(&win.lock()[off..off + count]),
                None => {
                    let m = win.lock();
                    for (i, d) in dst.iter_mut().enumerate() {
                        *d = m[off + i * stride];
                    }
                }
            }
        }
        Some(u32::try_from(slot).expect("pool slots fit 32 bits"))
    }

    /// The one active-target issue path behind every PUT/GET/ACCUMULATE
    /// entry point: one series over `plan`'s messages. Bounds are
    /// checked once; then, message by message in the plan's order,
    /// staging, the protocol-aware host charge and the call trace —
    /// the sequence of clock additions a call per message makes — and
    /// the series the closing fence completes goes on the queue, with
    /// the messages issued before an error if one stops the walk.
    /// `pio` is the entry point's NIC path (§2.2: strided calls use
    /// programmed I/O); `data` is the caller's payload, or `None` when
    /// the messages move this rank's own shard region.
    fn issue(
        &mut self,
        dir: RmaDir,
        win: &WindowRef,
        target: usize,
        plan: TransferPlan,
        pio: bool,
        data: Option<Vec<Elem>>,
    ) -> Result<(), VpceError> {
        let (stride, count) = plan.shape();
        let (stride, count) = (if pio { stride as usize } else { 1 }, count as usize);
        if plan.num_messages() == 0 {
            return Ok(());
        }
        if stride < 1 {
            return Err(VpceError::InvalidArgument {
                msg: "stride must be positive".into(),
            });
        }
        let checked = self.series_in_bounds(win, target, &plan, (stride, count), data.is_none())?;
        let mut op = PendingSeries {
            target,
            win: win.id(),
            dir,
            sent: Sents::with_capacity(plan.num_messages()),
            plan,
            stride,
            // Sizes past any shard saturate; no such message passes
            // its bounds check.
            proto: self.shared.policy.choose(count.saturating_mul(crate::ELEM_BYTES)),
            data,
        };
        let issued = self.issue_messages(&mut op, win, pio, checked);
        if !op.sent.is_empty() {
            self.queue.push(op);
        }
        issued
    }

    /// Walk `op`'s messages for [`Mpi::issue`], recording each in
    /// `op.sent`; `checked` when the whole op passed its bounds check.
    fn issue_messages(
        &mut self,
        op: &mut PendingSeries,
        win: &WindowRef,
        pio: bool,
        checked: bool,
    ) -> Result<(), VpceError> {
        let PendingSeries { target, dir, stride, proto, ref plan, ref data, ref mut sent, .. } = *op;
        let count = plan.shape().1 as usize;
        let call = match dir {
            RmaDir::Put => CallOp::Put,
            RmaDir::Get => CallOp::Get,
            RmaDir::Acc(_) => CallOp::Accumulate,
        };
        // With the NIC fault plane off, a charge depends only on the
        // op's one transfer kind, the protocol and the batching.
        let mut charges = (!self.shared.faults.spec().nic_armed()).then(OpCharges::default);
        for (nth, t) in plan.transfers().enumerate() {
            let off = t.offset as usize;
            if !checked {
                self.check_bounds(win, target, (off, stride, count), data.is_none())?;
            }
            let bytes = count * crate::ELEM_BYTES;
            let kind = if pio {
                TransferKind::Strided {
                    elems: count,
                    elem_bytes: crate::ELEM_BYTES,
                }
            } else {
                TransferKind::Contiguous { bytes }
            };
            let t0 = self.clock;
            let slot = if dir == RmaDir::Get {
                self.stats.bytes_got += bytes as u64;
                // The payload is the target's shard: nothing to stage here.
                None
            } else {
                self.stats.bytes_put += bytes as u64;
                let payload = data.as_deref().map(|d| &d[nth * count..][..count]);
                (proto == Protocol::Eager)
                    .then(|| self.stage(win, target, (off, stride, count), payload))
                    .flatten()
            };
            let b = self.charge_host_proto(kind, message_proto(dir, proto, slot), win.id(), &mut charges)?;
            if self.shared.tracer.is_enabled() {
                let lane = Lane::Rank(self.rank);
                let info = transfer_info(call, kind, &b);
                self.shared
                    .tracer
                    .push(lane, t0, self.clock, EventKind::Call(info));
                if let Some(slot) = slot {
                    self.shared.tracer.push(
                        lane,
                        self.clock - b.copy_s,
                        self.clock,
                        EventKind::EagerCopy {
                            rank: self.rank,
                            bytes: bytes as u64,
                            slot: u64::from(slot),
                        },
                    );
                }
            }
            sent.push(Sent { issue: self.clock, slot });
        }
        Ok(())
    }

    /// `MPI_PUT` of a planned op: every message of `plan` — a region of
    /// *this rank's own shard* at each start — to the same offsets of
    /// `target`'s shard, as one call and one queue entry. Messages go
    /// on the DMA path when contiguous and on programmed I/O when
    /// strided; each is staged and priced exactly as a
    /// [`Mpi::put_region`] / [`Mpi::put_region_strided`] of it would be,
    /// in the plan's order. Allocation-free per message: eager stages
    /// straight from the shard into a registered slot, rendezvous DMAs
    /// from the shard itself at the fence.
    pub fn put_series(
        &mut self,
        win: &WindowRef,
        target: usize,
        plan: &TransferPlan,
    ) -> Result<(), VpceError> {
        let pio = plan.strided_messages() != 0;
        self.issue(RmaDir::Put, win, target, plan.clone(), pio, None)
    }

    /// `MPI_GET` of a planned op: every message of `plan` fetched from
    /// `target`'s shard into the same offsets of this rank's, as one
    /// call — each message priced as a [`Mpi::get`] /
    /// [`Mpi::get_strided`] of it. Completes at the closing fence.
    pub fn get_series(
        &mut self,
        win: &WindowRef,
        target: usize,
        plan: &TransferPlan,
    ) -> Result<(), VpceError> {
        let pio = plan.strided_messages() != 0;
        self.issue(RmaDir::Get, win, target, plan.clone(), pio, None)
    }

    /// Contiguous `MPI_PUT`: write `data` at element offset `off` of
    /// `target`'s shard. Small payloads go eager (staged into a
    /// registered slot, completion piggybacked); large ones go
    /// rendezvous (zero-copy DMA at the closing fence).
    pub fn put(
        &mut self,
        win: &WindowRef,
        target: usize,
        off: usize,
        data: Vec<Elem>,
    ) -> Result<(), VpceError> {
        let plan = one_message(off, 1, data.len());
        self.issue(RmaDir::Put, win, target, plan, false, Some(data))
    }

    /// Strided `MPI_PUT`: write `data[i]` to `off + i*stride` of the
    /// target shard. Under rendezvous this is the programmed-I/O path —
    /// the host gathers element by element (§2.2); a small strided
    /// payload rides the eager staging memcpy instead.
    pub fn put_strided(
        &mut self,
        win: &WindowRef,
        target: usize,
        off: usize,
        stride: usize,
        data: Vec<Elem>,
    ) -> Result<(), VpceError> {
        let plan = one_message(off, stride, data.len());
        self.issue(RmaDir::Put, win, target, plan, true, Some(data))
    }

    /// Contiguous PUT of a region of *this rank's own shard* to the
    /// same offsets of `target`'s shard — the symmetric-layout transfer
    /// the data-scattering/collecting scheme uses. Allocation-free:
    /// eager stages straight from the shard into a registered slot,
    /// rendezvous DMAs from the shard itself at the fence.
    pub fn put_region(
        &mut self,
        win: &WindowRef,
        target: usize,
        off: usize,
        count: usize,
    ) -> Result<(), VpceError> {
        self.issue(RmaDir::Put, win, target, one_message(off, 1, count), false, None)
    }

    /// Strided PUT of a region of this rank's own shard (elements
    /// `off + i*stride`, `i < count`) to the same locations on
    /// `target`. Allocation-free, like [`Mpi::put_region`].
    pub fn put_region_strided(
        &mut self,
        win: &WindowRef,
        target: usize,
        off: usize,
        stride: usize,
        count: usize,
    ) -> Result<(), VpceError> {
        let plan = one_message(off, stride, count);
        self.issue(RmaDir::Put, win, target, plan, true, None)
    }

    /// Contiguous `MPI_GET`: fetch `count` elements at `off` from
    /// `target`'s shard into the same offsets of this rank's shard.
    /// Completes at the closing fence.
    pub fn get(
        &mut self,
        win: &WindowRef,
        target: usize,
        off: usize,
        count: usize,
    ) -> Result<(), VpceError> {
        self.issue(RmaDir::Get, win, target, one_message(off, 1, count), false, None)
    }

    /// Strided `MPI_GET`: fetch elements `off + i*stride` from the
    /// target into the same locations locally. PIO path.
    pub fn get_strided(
        &mut self,
        win: &WindowRef,
        target: usize,
        off: usize,
        stride: usize,
        count: usize,
    ) -> Result<(), VpceError> {
        let plan = one_message(off, stride, count);
        self.issue(RmaDir::Get, win, target, plan, true, None)
    }

    /// `MPI_ACCUMULATE` (contiguous): combine `data` into the target
    /// shard at `off` with `op`, at the closing fence, in deterministic
    /// order.
    pub fn accumulate(
        &mut self,
        win: &WindowRef,
        target: usize,
        off: usize,
        data: Vec<Elem>,
        op: AccumulateOp,
    ) -> Result<(), VpceError> {
        let plan = one_message(off, 1, data.len());
        self.issue(RmaDir::Acc(op), win, target, plan, false, Some(data))
    }

    /// The one passive-target path: inside a lock epoch the transfer is
    /// scheduled and applied now, and the origin blocks until it
    /// completes. Priced on the legacy chunked host model — passive
    /// transfers bypass the eager pool and the descriptor ring.
    fn rma_now(
        &mut self,
        dir: RmaDir,
        win: &WindowRef,
        target: usize,
        off: usize,
        data: Vec<Elem>,
    ) -> Result<(), VpceError> {
        let call = match dir {
            RmaDir::Acc(_) => CallOp::AccumulateNow,
            _ => CallOp::PutNow,
        };
        if !self.shared.blocking.holds(self.rank, win.id().0, target) {
            return Err(VpceError::LockState {
                msg: format!("{} outside a lock epoch", call.name()),
            });
        }
        self.check_bounds(win, target, (off, 1, data.len()), false)?;
        let count = data.len();
        let bytes = count * crate::ELEM_BYTES;
        let kind = TransferKind::Contiguous { bytes };
        let entry = self.clock;
        self.stats.bytes_put += bytes as u64;
        let b = self.host_breakdown_checked(kind, None)?;
        self.clock += b.total();
        self.stats.comm_host += b.total();
        self.stats.rma_contiguous += 1;
        let wire = {
            let mut net = self.shared.net.lock();
            net.try_p2p(self.rank, target, bytes, self.clock)?
        };
        let op = PendingSeries {
            target,
            win: win.id(),
            dir,
            plan: one_message(off, 1, count),
            stride: 1,
            // Completes synchronously, so it schedules as rendezvous.
            proto: Protocol::Rendezvous,
            data: Some(data),
            sent: Sents::default(),
        };
        let sent = Sent {
            issue: self.clock,
            slot: None,
        };
        let msg = Message {
            origin: self.rank,
            op: &op,
            nth: 0,
            off,
            count,
            sent,
        };
        apply_memory(&self.shared.table.lock(), &self.shared.pools, &msg);
        self.stats.comm_wait += wire.end - self.clock;
        self.clock = wire.end;
        if self.shared.tracer.is_enabled() {
            let mut info = transfer_info(call, kind, &b);
            info.dom = Some(Dominator {
                rank: self.rank,
                t: entry,
            });
            info.net = Some((wire.start, wire.end));
            info.recovery_s = wire.recovery;
            self.shared
                .tracer
                .push(Lane::Rank(self.rank), entry, wire.end, EventKind::Call(info));
        }
        Ok(())
    }

    /// Immediate contiguous PUT inside a lock epoch: the transfer is
    /// scheduled and applied now, and the origin blocks until it
    /// completes.
    ///
    /// Note on determinism: "now" is host order. The links are booked
    /// when this call happens, not by a fence, so a program in which
    /// two ranks do this (or [`Mpi::accumulate_now`], or
    /// [`Mpi::recv`]) over shared links has host-order-dependent
    /// *clocks*; memory results of the lock-serialised updates do not
    /// depend on it. Compiled programs do neither: their transfers are
    /// buffered ([`Mpi::put_series`] et al.) and booked by the closing
    /// fence in `(issue time, origin, issue order)` order.
    pub fn put_now(
        &mut self,
        win: &WindowRef,
        target: usize,
        off: usize,
        data: Vec<Elem>,
    ) -> Result<(), VpceError> {
        self.rma_now(RmaDir::Put, win, target, off, data)
    }

    /// Immediate accumulate inside a lock epoch (the §3 "global
    /// operations using shared variables, such as reduction
    /// operations").
    ///
    /// Booked on its links when it happens, in host order, like
    /// [`Mpi::put_now`] — see the note there: clocks of a program in
    /// which two ranks do this depend on host order, sums do not. The
    /// compiler backend reduces through [`Mpi::accumulate`] + fence.
    pub fn accumulate_now(
        &mut self,
        win: &WindowRef,
        target: usize,
        off: usize,
        data: Vec<Elem>,
        op: AccumulateOp,
    ) -> Result<(), VpceError> {
        self.rma_now(RmaDir::Acc(op), win, target, off, data)
    }
}

/// The plan of one message: `count` elements from `off`, every
/// `stride`. An offset past `i64` wraps and is unwrapped at issue, so
/// the bounds check sees the caller's offset.
fn one_message(off: usize, stride: usize, count: usize) -> TransferPlan {
    TransferPlan::from(RegionTransfer {
        offset: off as i64,
        stride: stride as u64,
        count: count as u64,
    })
}

/// Land `m.count` payload elements, element `i` read from
/// `data[i * data_stride]`, onto `off + i*stride` of `dst` —
/// overwriting, or combining under [`RmaDir::Acc`].
fn land(dst: &mut [Elem], m: &Message, data: &[Elem], data_stride: usize) {
    let (off, stride, count) = (m.off, m.op.stride, m.count);
    let payload = data.iter().step_by(data_stride).take(count).enumerate();
    match (m.op.dir, stride) {
        (RmaDir::Acc(op), _) => {
            for (i, v) in payload {
                let d = &mut dst[off + i * stride];
                *d = op.apply(*d, *v);
            }
        }
        // A dense payload, or a stride-1 shard region: one memcpy.
        (_, 1) => dst[off..off + count].copy_from_slice(&data[..count]),
        _ => {
            for (i, v) in payload {
                dst[off + i * stride] = *v;
            }
        }
    }
}

/// Materialise the memory effect of one message: the payload is read
/// from wherever it was pinned — its eager slot, the caller's buffer
/// the series holds, or the sending side's shard — and landed on the
/// receiving side's shard — the target's, or the origin's for a GET.
/// Nothing lands unless both sides' shards are backed.
pub(crate) fn apply_memory(table: &WindowTable, pools: &[Mutex<BufferPool>], m: &Message) {
    let op = m.op;
    let (from, to) = m.flow();
    if !table.moves_values(op.win, from, to) {
        return;
    }
    let dst = table.mem(op.win, to);
    // Lock ordering everywhere: pools before shard memory, the sending
    // shard before the receiving one.
    match (m.eager_slot(), &op.data) {
        (Some(slot), _) => {
            let pool = pools[m.origin].lock();
            land(&mut dst.lock(), m, pool.slot_data(slot, m.count), 1);
        }
        (None, Some(data)) => land(&mut dst.lock(), m, &data[m.nth * m.count..], 1),
        (None, None) => {
            debug_assert!(!matches!(op.dir, RmaDir::Acc(_)), "accumulate payloads are buffers");
            if from == to {
                return; // symmetric layout: a self-put or self-get is the identity
            }
            let src = table.mem(op.win, from).lock();
            land(&mut dst.lock(), m, &src[m.off..], op.stride);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmad::{Dim, Granularity, Lmad};

    /// A `dir` series of one message of `count` elements, `stride`
    /// apart, from offset 0, issued at time 0 with eager slot `slot`.
    fn one(dir: RmaDir, stride: usize, count: usize, slot: Option<u32>) -> PendingSeries {
        PendingSeries {
            target: 1,
            win: WinId(0),
            dir,
            plan: one_message(0, stride, count),
            stride,
            proto: Protocol::Eager,
            data: None,
            sent: [Sent { issue: 0.0, slot }].into_iter().collect(),
        }
    }

    fn only(op: &PendingSeries) -> Message<'_> {
        op.messages(0).next().expect("one message")
    }

    #[test]
    fn accumulate_ops() {
        assert_eq!(AccumulateOp::Sum.apply(2.0, 3.0), 5.0);
        assert_eq!(AccumulateOp::Prod.apply(2.0, 3.0), 6.0);
        assert_eq!(AccumulateOp::Max.apply(2.0, 3.0), 3.0);
        assert_eq!(AccumulateOp::Min.apply(2.0, 3.0), 2.0);
    }

    #[test]
    fn wire_bytes_per_kind() {
        for slot in [Some(2), None] {
            assert_eq!(only(&one(RmaDir::Put, 1, 4, slot)).wire_bytes(), 32);
        }
        assert_eq!(only(&one(RmaDir::Get, 3, 5, None)).wire_bytes(), 40);
    }

    #[test]
    fn target_extent_strided() {
        // Elements at 10, 14, 18 -> extent 19.
        assert_eq!(extent(10, 4, 3), Some(19));
        assert_eq!(extent(10, 1, 3), Some(13));
        // An empty operation touches nothing past its offset.
        assert_eq!(extent(10, 4, 0), Some(10));
        // Footprints that wrap a usize are out of every shard's range.
        assert_eq!(extent(usize::MAX - 1, 1, 3), None);
        assert_eq!(extent(1, usize::MAX / 2 + 1, 3), None);
    }

    /// A message's slot is what the fence releases, and what decides
    /// its protocol: a PUT that found no slot went rendezvous; a GET's
    /// protocol is its size's.
    #[test]
    fn eager_slot_is_surfaced_for_release() {
        let staged = one(RmaDir::Put, 1, 2, Some(7));
        assert_eq!(only(&staged).eager_slot(), Some(7));
        assert_eq!(only(&staged).proto(), Protocol::Eager);
        let fell_back = one(RmaDir::Put, 1, 2, None);
        assert_eq!(only(&fell_back).eager_slot(), None);
        assert_eq!(only(&fell_back).proto(), Protocol::Rendezvous);
        let get = one(RmaDir::Get, 1, 1, None);
        assert_eq!(only(&get).eager_slot(), None);
        assert_eq!(only(&get).proto(), Protocol::Eager);
        assert_eq!(only(&get).flow(), (1, 0));
    }

    #[test]
    fn f64_order_key_monotone() {
        let xs = [0.0, 1e-12, 3.5e-6, 0.1, 1.0, 1e9];
        for w in xs.windows(2) {
            assert!(f64_order_key(w[0]) < f64_order_key(w[1]));
        }
    }

    /// A series of `issues.len()` two-element messages on window `win`,
    /// issued at `issues`; message `k` starts at `first + 10 k`, so a
    /// test can read its place in program order back from `off`.
    fn issued(win: usize, first: usize, issues: &[f64]) -> PendingSeries {
        let region = Lmad::new(first as i64, vec![Dim::new(1, 2), Dim::new(10, issues.len() as u64)]);
        PendingSeries {
            target: 0,
            win: WinId(win),
            dir: RmaDir::Get,
            plan: TransferPlan::lower(&region, Granularity::Fine, 0),
            stride: 1,
            proto: Protocol::Eager,
            data: None,
            sent: issues.iter().map(|&issue| Sent { issue, slot: None }).collect(),
        }
    }

    #[test]
    fn fence_order_breaks_ties_by_origin_then_issue_order() {
        let queues = vec![
            vec![issued(0, 0, &[1.0, 1.0]), issued(0, 100, &[2.0])],
            vec![issued(0, 0, &[0.5]), issued(0, 100, &[1.0])],
        ];
        let mut order = FenceOrder::default();
        let seen: Vec<_> = order.merge(&queues, None).map(|m| (m.origin, m.off)).collect();
        assert_eq!(seen, [(1, 0), (0, 0), (0, 10), (1, 100), (0, 100)]);
    }

    /// The order is a property of the queues, not of how it is found:
    /// it equals a stable sort by [`Message::sort_key`] of the queues'
    /// messages laid end to end in rank order — on epochs where issue
    /// times collide across and within origins and within a series
    /// (where a merge goes wrong), with and without a window filter,
    /// one `FenceOrder` reused from epoch to epoch.
    #[test]
    fn fence_order_is_the_stable_sort_of_the_concatenated_queues() {
        use vpce_testkit::prelude::*;
        // Per series: its window, and per message how far the origin's
        // clock moved since its last message (mostly not at all).
        let series = zip2(usize_in(0, 1), vec_of(usize_in(0, 2), 1, 4));
        let epoch = zip2(vec_of(vec_of(series, 0, 5), 1, 6), usize_in(0, 2));
        let order = std::cell::RefCell::new(FenceOrder::default());
        Check::new("mpi2::fence_order_is_the_stable_sort_of_the_concatenated_queues")
            .cases(1000)
            .run(&epoch, |(ranks, filter)| {
                let queues: Vec<Vec<PendingSeries>> = ranks
                    .iter()
                    .map(|ops| {
                        let mut clock = 0;
                        ops.iter()
                            .enumerate()
                            .map(|(nth, (win, ticks))| {
                                let issues: Vec<f64> = ticks
                                    .iter()
                                    .map(|tick| {
                                        clock += tick / 2; // 0, 0 or 1
                                        clock as f64
                                    })
                                    .collect();
                                issued(*win, 100 * nth, &issues)
                            })
                            .collect()
                    })
                    .collect();
                let filter = filter.checked_sub(1).map(WinId);
                let mut want: Vec<Message> = queues
                    .iter()
                    .enumerate()
                    .flat_map(|(origin, queue)| queue.iter().map(move |op| (origin, op)))
                    .filter(|(_, op)| op.admitted(filter))
                    .flat_map(|(origin, op)| op.messages(origin))
                    .collect();
                want.sort_by_key(Message::sort_key);
                let place = |m: Message| (m.origin, m.off);
                let mut order = order.borrow_mut();
                prop_assert_eq!(
                    order.merge(&queues, filter).map(place).collect::<Vec<_>>(),
                    want.into_iter().map(place).collect::<Vec<_>>()
                );
                Ok(())
            });
    }
}
