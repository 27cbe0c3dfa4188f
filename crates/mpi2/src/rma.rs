//! One-sided operations: one descriptor from issue to apply.
//!
//! The paper's MPI-2 library (§2.2) has a single one-sided operation
//! family — PUT, GET, ACCUMULATE over a constant-stride region — and
//! this module carries it on a single descriptor, [`RmaKind`]
//! `{ dir, off, stride, count, src }`. Stride is data, not a variant:
//! a contiguous transfer is simply `stride == 1`. The one fork the
//! paper does describe — "contiguous transfers using DMA and strided
//! transfers using programmed I/O" — is a host **cost** decision fixed
//! by the entry point the caller chose ([`Mpi::put`] prices as DMA,
//! [`Mpi::put_strided`] as PIO, whatever the stride), not a property
//! of the descriptor.
//!
//! Inside an access epoch every active-target call goes through
//! [`Mpi::issue`]: check bounds, stage the payload, charge the origin
//! CPU the host-side initiation cost, and append a [`PendingRma`] to
//! the rank's own queue, where it stays. The closing fence walks all
//! queues in one deterministic order ([`FenceOrder`]), schedules every
//! wire transfer on the link simulator, and materialises the memory
//! effects through [`apply_memory`] — the MPI-2 rule that RMA results
//! become visible only when the epoch closes. Passive-target (`*_now`)
//! calls build the same descriptor and apply it immediately.
//!
//! A pending payload does not always own a heap copy of its data:
//! [`RmaSrc`] records *where* it lives — a registered eager slot
//! (staged at issue time), a caller-pinned buffer, or the **sending
//! side's own window shard** (zero-copy, read at apply time under the
//! symmetric layout). The sending side is the origin for PUT and the
//! target for GET, so a GET is always `RmaSrc::Shard`.
//!
//! Whether it holds data at all is a separate question with one answer
//! (`WindowTable::moves_values`): **an operation moves values iff both
//! the origin's and the target's shard of its window are backed.**
//! With a length-only shard (see [`crate::window`]) on either side the
//! descriptor, the protocol, the registered slot, the wire legs and
//! every fault draw are unchanged and the two copies — the staging
//! copy in [`Mpi::stage`], the landing in [`apply_memory`] — are
//! skipped: what a transfer costs never depended on its bytes.

use cluster_sim::{HostCostBreakdown, Protocol, TransferKind};
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

/// Where a pending payload lives until it is applied.
#[derive(Debug, Clone)]
pub(crate) enum RmaSrc {
    /// Staged densely in this slot of the origin rank's registered
    /// pool (eager protocol). The slot stays pinned — retransmits
    /// replay out of it — until the fence releases it.
    Slot(usize),
    /// Pinned densely in a caller-provided buffer (`put(data)` hands
    /// ownership over); rendezvous DMAs it without any further copy.
    Pinned(Vec<Elem>),
    /// Zero-copy from the *sending* side's own window shard — the
    /// origin's for PUT, the target's for GET: the symmetric layout
    /// means the elements sit at the same offsets the operation
    /// touches on the other side. Valid for race-free programs only —
    /// the MPI-2 rule that a local buffer handed to PUT must not
    /// change before the epoch closes. Never paired with
    /// [`RmaDir::Acc`]: accumulate payloads are caller buffers.
    Shard,
}

/// The descriptor of a one-sided operation: elements
/// `off + i*stride`, `i < count`, of the target shard.
///
/// Offsets are in elements. Layouts are symmetric: the scatter/collect
/// scheme keeps every rank's copy of an array at full size, so a region
/// lives at the same offsets on both sides (see `spmd-rt`).
#[derive(Debug, Clone)]
pub(crate) struct RmaKind {
    pub dir: RmaDir,
    pub off: usize,
    /// Positive; 1 = contiguous.
    pub stride: usize,
    pub count: usize,
    pub src: RmaSrc,
}

impl RmaKind {
    /// Payload bytes crossing the wire (protocol headers excluded).
    pub fn wire_bytes(&self) -> usize {
        self.count * crate::ELEM_BYTES
    }

    /// True when data flows target → origin.
    pub fn is_get(&self) -> bool {
        self.dir == RmaDir::Get
    }

    /// The registered eager slot holding this payload, if any — the
    /// fence releases it once the wire transfer has drained.
    pub fn eager_slot(&self) -> Option<usize> {
        match self.src {
            RmaSrc::Slot(slot) => Some(slot),
            _ => None,
        }
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

/// A buffered one-sided operation awaiting the closing fence.
#[derive(Debug, Clone)]
pub(crate) struct PendingRma {
    pub origin: usize,
    pub target: usize,
    pub win: WinId,
    /// Origin virtual time when the op left the host (after host
    /// overhead was charged).
    pub issue: f64,
    /// Which transport protocol the fence schedules this op under.
    pub proto: Protocol,
    pub kind: RmaKind,
}

impl PendingRma {
    /// `(sending, receiving)` rank of the payload: origin → target,
    /// reversed for a GET.
    pub fn flow(&self) -> (usize, usize) {
        if self.kind.is_get() {
            (self.target, self.origin)
        } else {
            (self.origin, self.target)
        }
    }

    /// The deterministic scheduling order: issue time, then origin.
    /// Operations one origin issued at one time keep their issue order
    /// — their order in the origin's queue, see [`FenceOrder`].
    pub fn sort_key(&self) -> (u64, usize) {
        // Total order on non-NaN f64 via bit tricks is overkill here:
        // issue times are products of deterministic arithmetic, so we
        // order by their bit pattern after a monotone map.
        (f64_order_key(self.issue), self.origin)
    }
}

/// The order a closing fence completes operations in — ascending
/// [`PendingRma::sort_key`] over every rank's queue, an origin's ties
/// in issue order — as a list of places, not of operations: one
/// 16-byte `(issue, origin, index)` key per operation, the operation
/// itself staying where it was issued.
///
/// The queue index is the per-origin issue number the order needs: a
/// rank pushes in issue order and a queue only ever loses operations
/// from its middle (`retain` at a filtered fence), so what is left is
/// still in issue order. For the same reason every queue is a sorted
/// run (a rank's clock never goes back), and an epoch issued by one
/// origin — a scatter — is recognised as sorted in one pass. The key
/// list keeps its capacity between fences.
#[derive(Default)]
pub(crate) struct FenceOrder {
    /// `issue bits << 64 | origin << 32 | index`.
    keys: Vec<u128>,
}

impl FenceOrder {
    /// Order the operations of `queues` — rank `r`'s at index `r` —
    /// that are on window `filter`, or all of them.
    pub fn build(&mut self, queues: &[Vec<PendingRma>], filter: Option<WinId>) {
        self.keys.clear();
        // Asked for at once, so the first epoch is requested once, not
        // doubling by doubling.
        self.keys.reserve(queues.iter().map(Vec::len).sum());
        for (rank, queue) in queues.iter().enumerate() {
            debug_assert!(queue.iter().all(|op| op.origin == rank));
            debug_assert!(queue.is_sorted_by_key(PendingRma::sort_key));
            let origin = u32::try_from(rank).expect("ranks fit 32 bits");
            assert!(u32::try_from(queue.len()).is_ok(), "a queue's indices fit 32 bits");
            let admitted = queue
                .iter()
                .enumerate()
                .filter(|(_, op)| filter.is_none_or(|win| op.win == win));
            self.keys.extend(admitted.map(|(index, op)| {
                u128::from(op.sort_key().0) << 64 | u128::from(origin) << 32 | index as u128
            }));
        }
        self.keys.sort_unstable();
    }

    /// Operations ordered by the last [`build`](Self::build).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// The ordered operations, read where they are: `queues` is what
    /// the order was built over.
    pub fn iter<'q>(
        &'q self,
        queues: &'q [Vec<PendingRma>],
    ) -> impl ExactSizeIterator<Item = &'q PendingRma> + 'q {
        self.keys
            .iter()
            .map(|key| &queues[(key >> 32) as u32 as usize][*key as u32 as usize])
    }
}

/// Monotone map from non-negative finite f64 to u64 preserving order.
pub(crate) fn f64_order_key(x: f64) -> u64 {
    debug_assert!(x >= 0.0 && x.is_finite(), "virtual time must be finite+");
    x.to_bits()
}

impl Mpi {
    /// Reject an operation whose footprint leaves a shard it touches —
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
    fn charge_host_proto(
        &mut self,
        kind: TransferKind,
        proto: Protocol,
        win: WinId,
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
        let b = self.host_breakdown_checked(kind, Some((proto, batched)))?;
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

    /// Stage an origin-side payload: pick the protocol for its size,
    /// gather it densely into a registered slot when it goes eager
    /// (stalling in virtual time if the pool is drained but a pin is
    /// scheduled to expire), or pin it in place for rendezvous. `data`
    /// is the caller's buffer; without one the payload is elements
    /// `off + i*stride` of this rank's own shard, staged without
    /// allocating. An operation that moves no values acquires, pins
    /// and releases its slot all the same; only the copy is skipped.
    fn stage(
        &mut self,
        win: &WindowRef,
        target: usize,
        (off, stride, count): (usize, usize, usize),
        data: Option<Vec<Elem>>,
    ) -> (Protocol, RmaSrc) {
        if self.shared.policy.choose(count * crate::ELEM_BYTES) == Protocol::Eager {
            let moves = win.moves_values(self.rank, target);
            let mut pool = self.shared.pools[self.rank].lock();
            if let Some((slot, wait)) = pool.acquire(self.clock) {
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
                    let dst = &mut pool.slot_mut(slot)[..count];
                    match &data {
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
                return (Protocol::Eager, RmaSrc::Slot(slot));
            }
            // Pool exhausted with nothing scheduled to free (every slot
            // held by this same epoch): fall back to rendezvous.
            self.stats.eager_fallbacks += 1;
        }
        (Protocol::Rendezvous, data.map_or(RmaSrc::Shard, RmaSrc::Pinned))
    }

    /// The one active-target issue path behind every PUT/GET/ACCUMULATE
    /// entry point: bounds, staging, the protocol-aware host charge,
    /// the call trace, and the pending record the closing fence
    /// completes. `pio` is the entry point's NIC path (§2.2: strided
    /// calls use programmed I/O); `data` is the caller's buffer, or
    /// `None` when the operation moves this rank's own shard region.
    fn issue(
        &mut self,
        dir: RmaDir,
        win: &WindowRef,
        target: usize,
        shape: (usize, usize, usize),
        pio: bool,
        data: Option<Vec<Elem>>,
    ) -> Result<(), VpceError> {
        let (off, stride, count) = shape;
        if stride < 1 {
            return Err(VpceError::InvalidArgument {
                msg: "stride must be positive".into(),
            });
        }
        self.check_bounds(win, target, shape, data.is_none())?;
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
        let (proto, src) = if dir == RmaDir::Get {
            self.stats.bytes_got += bytes as u64;
            // The payload is the target's shard: nothing to stage here.
            (self.shared.policy.choose(bytes), RmaSrc::Shard)
        } else {
            self.stats.bytes_put += bytes as u64;
            self.stage(win, target, shape, data)
        };
        let b = self.charge_host_proto(kind, proto, win.id())?;
        if self.shared.tracer.is_enabled() {
            let lane = Lane::Rank(self.rank);
            let call = match dir {
                RmaDir::Put => CallOp::Put,
                RmaDir::Get => CallOp::Get,
                RmaDir::Acc(_) => CallOp::Accumulate,
            };
            let info = transfer_info(call, kind, &b);
            self.shared
                .tracer
                .push(lane, t0, self.clock, EventKind::Call(info));
            if let RmaSrc::Slot(slot) = src {
                self.shared.tracer.push(
                    lane,
                    self.clock - b.copy_s,
                    self.clock,
                    EventKind::EagerCopy {
                        rank: self.rank,
                        bytes: bytes as u64,
                        slot: slot as u64,
                    },
                );
            }
        }
        self.queue.push(PendingRma {
            origin: self.rank,
            target,
            win: win.id(),
            issue: self.clock,
            proto,
            kind: RmaKind {
                dir,
                off,
                stride,
                count,
                src,
            },
        });
        Ok(())
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
        let shape = (off, 1, data.len());
        self.issue(RmaDir::Put, win, target, shape, false, Some(data))
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
        let shape = (off, stride, data.len());
        self.issue(RmaDir::Put, win, target, shape, true, Some(data))
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
        self.issue(RmaDir::Put, win, target, (off, 1, count), false, None)
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
        self.issue(RmaDir::Put, win, target, (off, stride, count), true, None)
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
        self.issue(RmaDir::Get, win, target, (off, 1, count), false, None)
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
        self.issue(RmaDir::Get, win, target, (off, stride, count), true, None)
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
        let shape = (off, 1, data.len());
        self.issue(RmaDir::Acc(op), win, target, shape, false, Some(data))
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
        let bytes = data.len() * crate::ELEM_BYTES;
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
        let op = PendingRma {
            origin: self.rank,
            target,
            win: win.id(),
            issue: self.clock,
            // Completes synchronously, so it schedules as rendezvous.
            proto: Protocol::Rendezvous,
            kind: RmaKind {
                dir,
                off,
                stride: 1,
                count: data.len(),
                src: RmaSrc::Pinned(data),
            },
        };
        apply_memory(&self.shared.table.lock(), &self.shared.pools, &op);
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
    /// buffered ([`Mpi::put_region`] et al.) and booked by the closing
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

/// Land `k.count` payload elements, element `i` read from
/// `data[i * data_stride]`, onto `off + i*stride` of `dst` —
/// overwriting, or combining under [`RmaDir::Acc`].
fn land(dst: &mut [Elem], k: &RmaKind, data: &[Elem], data_stride: usize) {
    let payload = data.iter().step_by(data_stride).take(k.count).enumerate();
    match (k.dir, k.stride) {
        (RmaDir::Acc(op), _) => {
            for (i, v) in payload {
                let d = &mut dst[k.off + i * k.stride];
                *d = op.apply(*d, *v);
            }
        }
        // A dense payload, or a stride-1 shard region: one memcpy.
        (_, 1) => dst[k.off..k.off + k.count].copy_from_slice(&data[..k.count]),
        _ => {
            for (i, v) in payload {
                dst[k.off + i * k.stride] = *v;
            }
        }
    }
}

/// Materialise the memory effect of one RMA operation: the payload is
/// read from wherever its [`RmaSrc`] pinned it and landed on the
/// receiving side's shard — the target's, or the origin's for a GET.
/// Nothing lands unless both sides' shards are backed.
pub(crate) fn apply_memory(table: &WindowTable, pools: &[Mutex<BufferPool>], op: &PendingRma) {
    let k = &op.kind;
    let (from, to) = op.flow();
    if !table.moves_values(op.win, from, to) {
        return;
    }
    let dst = table.mem(op.win, to);
    // Lock ordering everywhere: pools before shard memory, the sending
    // shard before the receiving one.
    match &k.src {
        RmaSrc::Slot(slot) => {
            let pool = pools[op.origin].lock();
            land(&mut dst.lock(), k, pool.slot_data(*slot, k.count), 1);
        }
        RmaSrc::Pinned(data) => land(&mut dst.lock(), k, data, 1),
        RmaSrc::Shard => {
            debug_assert!(!matches!(k.dir, RmaDir::Acc(_)), "accumulate payloads are buffers");
            if from == to {
                return; // symmetric layout: a self-put or self-get is the identity
            }
            let src = table.mem(op.win, from).lock();
            land(&mut dst.lock(), k, &src[k.off..], k.stride);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind(dir: RmaDir, stride: usize, count: usize, src: RmaSrc) -> RmaKind {
        RmaKind {
            dir,
            off: 0,
            stride,
            count,
            src,
        }
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
        for src in [
            RmaSrc::Pinned(vec![0.0; 4]),
            RmaSrc::Slot(2),
            RmaSrc::Shard,
        ] {
            assert_eq!(kind(RmaDir::Put, 1, 4, src).wire_bytes(), 32);
        }
        assert_eq!(kind(RmaDir::Get, 3, 5, RmaSrc::Shard).wire_bytes(), 40);
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

    #[test]
    fn eager_slot_is_surfaced_for_release() {
        assert_eq!(kind(RmaDir::Put, 1, 2, RmaSrc::Slot(7)).eager_slot(), Some(7));
        assert_eq!(kind(RmaDir::Put, 1, 2, RmaSrc::Shard).eager_slot(), None);
        assert_eq!(kind(RmaDir::Get, 1, 1, RmaSrc::Shard).eager_slot(), None);
    }

    #[test]
    fn f64_order_key_monotone() {
        let xs = [0.0, 1e-12, 3.5e-6, 0.1, 1.0, 1e9];
        for w in xs.windows(2) {
            assert!(f64_order_key(w[0]) < f64_order_key(w[1]));
        }
    }

    /// An op of `origin` on window `win`, issued at `issue`, its place
    /// in program order written where a test can read it back (`off`).
    fn issued(origin: usize, win: usize, issue: f64, nth: usize) -> PendingRma {
        PendingRma {
            origin,
            target: 0,
            win: WinId(win),
            issue,
            proto: Protocol::Eager,
            kind: RmaKind { off: nth, ..kind(RmaDir::Get, 1, 1, RmaSrc::Shard) },
        }
    }

    #[test]
    fn fence_order_breaks_ties_by_origin_then_issue_order() {
        let queues = vec![
            vec![issued(0, 0, 1.0, 0), issued(0, 0, 1.0, 1), issued(0, 0, 2.0, 2)],
            vec![issued(1, 0, 0.5, 0), issued(1, 0, 1.0, 1)],
        ];
        let mut order = FenceOrder::default();
        order.build(&queues, None);
        let seen: Vec<_> = order.iter(&queues).map(|op| (op.origin, op.kind.off)).collect();
        assert_eq!(seen, [(1, 0), (0, 0), (0, 1), (1, 1), (0, 2)]);
    }

    /// The order is a property of the queues, not of how it is found:
    /// it equals a stable sort by [`PendingRma::sort_key`] of the
    /// queues laid end to end in rank order — on epochs where issue
    /// times collide across and within origins (where a merge goes
    /// wrong), with and without a window filter, one `FenceOrder`
    /// reused from epoch to epoch.
    #[test]
    fn fence_order_is_the_stable_sort_of_the_concatenated_queues() {
        use vpce_testkit::prelude::*;
        // Per op: how far the origin's clock moved since its last op
        // (mostly not at all), and its window.
        let queue = vec_of(zip2(usize_in(0, 2), usize_in(0, 1)), 0, 12);
        let epoch = zip2(vec_of(queue, 1, 6), usize_in(0, 2));
        let order = std::cell::RefCell::new(FenceOrder::default());
        Check::new("mpi2::fence_order_is_the_stable_sort_of_the_concatenated_queues")
            .cases(1000)
            .run(&epoch, |(ranks, filter)| {
                let queues: Vec<Vec<PendingRma>> = ranks
                    .iter()
                    .enumerate()
                    .map(|(origin, ops)| {
                        let mut clock = 0;
                        ops.iter()
                            .enumerate()
                            .map(|(nth, &(tick, win))| {
                                clock += tick / 2; // 0, 0 or 1
                                issued(origin, win, clock as f64, nth)
                            })
                            .collect()
                    })
                    .collect();
                let filter = filter.checked_sub(1).map(WinId);
                let mut want: Vec<&PendingRma> = queues
                    .iter()
                    .flatten()
                    .filter(|op| filter.is_none_or(|w| op.win == w))
                    .collect();
                want.sort_by_key(|op| op.sort_key());
                let mut order = order.borrow_mut();
                order.build(&queues, filter);
                prop_assert_eq!(order.len(), want.len());
                let place = |op: &PendingRma| (op.origin, op.kind.off);
                prop_assert_eq!(
                    order.iter(&queues).map(place).collect::<Vec<_>>(),
                    want.into_iter().map(place).collect::<Vec<_>>()
                );
                Ok(())
            });
    }
}
