//! Network-interface model: DMA vs. programmed I/O, and the software
//! stack between a user buffer and the wire.
//!
//! §2.2 of the paper:
//!
//! > "Contiguous MPI_PUT/MPI_GET use DMA so that data from the user
//! > buffer can be copied into the device driver buffer without
//! > interrupting the processor. But stride MPI_PUT/MPI_GET use
//! > programmed I/O where data in the user buffer is copied into the
//! > device driver buffer one-element by one-element. So, stride
//! > MPI_PUT/MPI_GET are generally less efficient … because they
//! > increase communication setup time significantly."
//!
//! and:
//!
//! > "Our MPI-2 library reduces the communication overheads by sharing
//! > a message queue between device driver … and a MPI-2 daemon
//! > process, and by transferring data directly from a user buffer to a
//! > device drive buffer."
//!
//! [`NicModel::host_overhead`] turns a transfer description into the
//! CPU-side cost; the wire time itself is the network simulator's job.

use crate::cpu::CpuModel;
use vpce_faults::{site, FaultInjector, VpceError};

/// Which transport protocol carries a one-sided transfer.
///
/// The split follows the MPICH2-over-InfiniBand design: small messages
/// go **eager** — the payload is staged into a pre-registered slot and
/// sent immediately, completion piggybacked on the data header — while
/// large messages go **rendezvous** — an RTS/CTS handshake pins the
/// receive side, then the NIC DMAs straight out of the source region
/// with no staging copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Copy into a registered slot, one message, piggybacked completion.
    Eager,
    /// RTS/CTS handshake, then zero-copy DMA from the source region.
    Rendezvous,
}

impl Protocol {
    /// Stable lowercase name (reports, benches, traces).
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Eager => "eager",
            Protocol::Rendezvous => "rendezvous",
        }
    }
}

/// Shape of a one-sided transfer as seen by the NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferKind {
    /// One contiguous region: DMA path.
    Contiguous {
        bytes: usize,
    },
    /// A constant-stride region of `elems` elements of `elem_bytes`
    /// each: programmed-I/O path.
    Strided {
        elems: usize,
        elem_bytes: usize,
    },
}

impl TransferKind {
    /// Payload bytes that cross the wire.
    pub fn wire_bytes(&self) -> usize {
        match *self {
            TransferKind::Contiguous { bytes } => bytes,
            TransferKind::Strided { elems, elem_bytes } => elems * elem_bytes,
        }
    }
}

/// Decomposition of [`NicModel::host_overhead`] into its mechanisms —
/// the queue hops, the DMA descriptor programming, and the
/// programmed-I/O element copies — so a trace can show *which* part of
/// §2.2's "communication setup time" a transfer paid.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostCostBreakdown {
    /// Message-queue hops: descriptor posts, plus (on the conventional
    /// kernel stack) context switches and staging copies.
    pub queue_s: f64,
    /// DMA descriptor programming time (contiguous path only).
    pub dma_setup_s: f64,
    /// Element-by-element programmed-I/O copy time (strided path only).
    pub pio_copy_s: f64,
    /// Eager staging-copy time: gathering the payload into a
    /// pre-registered slot at the machine's memcpy rate (eager protocol
    /// only; 0 on the legacy and rendezvous paths).
    pub copy_s: f64,
    /// Driver-buffer chunks the transfer was split into.
    pub chunks: usize,
    /// Extra host seconds spent on fault recovery: re-posting rejected
    /// DMA descriptors, redoing corrupted PIO copies, and riding out
    /// injected driver-queue stalls. Always 0 without fault injection.
    pub retry_s: f64,
    /// DMA descriptor re-posts plus PIO copy re-dos performed.
    pub retries: u64,
    /// Injected shared-queue stalls ridden out.
    pub stalls: u64,
}

impl HostCostBreakdown {
    /// Total host seconds — identical to what
    /// [`NicModel::host_overhead`] returns (which never pays retries),
    /// plus any fault-recovery cost on the injected path.
    pub fn total(&self) -> f64 {
        self.queue_s + self.dma_setup_s + self.pio_copy_s + self.copy_s + self.retry_s
    }
}

/// Cost parameters of one network card plus its driver stack.
#[derive(Debug, Clone, PartialEq)]
pub struct NicModel {
    /// CPU time to post one message descriptor (queue entry, doorbell).
    pub post_s: f64,
    /// CPU time to program one DMA descriptor for a contiguous region.
    pub dma_setup_s: f64,
    /// CPU time per element for the programmed-I/O element-by-element
    /// copy into the device-driver buffer.
    pub pio_per_elem_s: f64,
    /// `true` for the paper's optimized stack: the driver and the MPI
    /// daemon share a message queue and data moves directly from the
    /// user buffer to the driver buffer.
    pub shared_queue: bool,
    /// Context-switch cost into the kernel per message when the shared
    /// queue is absent (conventional system-level stack).
    pub context_switch_s: f64,
    /// Rate of the extra staging copy when data cannot go directly
    /// from the user buffer (conventional stack), bytes/s. The copy
    /// costs `1.0 / staging_copy_bps` seconds per byte.
    pub staging_copy_bps: f64,
    /// Device-driver buffer size; a transfer larger than this is split
    /// into buffer-sized chunks, each paying the post cost.
    pub driver_buf_bytes: usize,
    /// Registered eager slots per rank: the pre-posted buffer arena the
    /// eager protocol stages small payloads into.
    pub eager_slots: usize,
    /// Bytes per registered eager slot — the hard cap on eager payloads.
    pub eager_slot_bytes: usize,
    /// Descriptor-ring depth: consecutive same-window transfers share
    /// one doorbell until this many descriptors are batched.
    pub ring_depth: usize,
    /// CPU time to append one descriptor to an already-open ring
    /// (cheap WQE write, no doorbell).
    pub ring_entry_s: f64,
}

impl NicModel {
    /// The paper's V-Bus card with the user-level stack: cheap posts
    /// (shared queue), ~10 µs DMA setup, ~0.6 µs per PIO element
    /// (an uncached device-register write plus driver-loop overhead
    /// per element on the 300 MHz host).
    pub fn vbus_card() -> Self {
        NicModel {
            post_s: 3.0e-6,
            dma_setup_s: 10.0e-6,
            pio_per_elem_s: 0.6e-6,
            shared_queue: true,
            context_switch_s: 15.0e-6,
            // The staging copy runs at the host's memcpy rate.
            staging_copy_bps: CpuModel::pentium_ii_300().memcpy_bps,
            driver_buf_bytes: 256 << 10,
            eager_slots: 16,
            eager_slot_bytes: 16 << 10,
            ring_depth: 8,
            ring_entry_s: 0.3e-6,
        }
    }

    /// The same silicon behind a conventional kernel-level stack
    /// (ablation A2): every message context-switches and pays a staging
    /// copy.
    pub fn vbus_card_kernel_stack() -> Self {
        NicModel {
            shared_queue: false,
            ..NicModel::vbus_card()
        }
    }

    /// A Fast-Ethernet NIC of the era: kernel sockets, interrupt-driven,
    /// staging copies — the reference point for the paper's "about four
    /// times lower latency" claim.
    pub fn fast_ethernet_card() -> Self {
        NicModel {
            post_s: 10.0e-6,
            dma_setup_s: 15.0e-6,
            shared_queue: false,
            context_switch_s: 25.0e-6,
            driver_buf_bytes: 64 << 10,
            eager_slots: 8,
            eager_slot_bytes: 8 << 10,
            ring_depth: 4,
            ring_entry_s: 1.0e-6,
            ..NicModel::vbus_card()
        }
    }

    /// Number of driver-buffer chunks a transfer needs.
    pub fn chunks(&self, wire_bytes: usize) -> usize {
        wire_bytes.div_ceil(self.driver_buf_bytes).max(1)
    }

    /// CPU (host) seconds consumed to *initiate* the transfer. This is
    /// the "communication setup time" of §2.2 — the part the
    /// granularity optimization of §5.6 trades against redundant data.
    ///
    /// The DMA path blocks the host only for descriptor programming;
    /// the PIO path blocks it for the whole element-by-element copy.
    pub fn host_overhead(&self, kind: TransferKind, cpu: &CpuModel) -> f64 {
        self.host_breakdown(kind, cpu).total()
    }

    /// [`host_overhead`](Self::host_overhead) with the cost split by
    /// mechanism — what the tracer records per transfer.
    pub fn host_breakdown(&self, kind: TransferKind, cpu: &CpuModel) -> HostCostBreakdown {
        let wire = kind.wire_bytes();
        let per_msg = if self.shared_queue {
            self.post_s
        } else {
            // Conventional stack: kernel entry per chunk plus one
            // staging copy of the payload, amortised over the chunks.
            self.post_s
                + self.context_switch_s
                + wire as f64 * (1.0 / self.staging_copy_bps) / self.chunks(wire) as f64
        };
        let n_chunks = self.chunks(wire);
        let mut out = HostCostBreakdown {
            queue_s: per_msg * n_chunks as f64,
            chunks: n_chunks,
            ..HostCostBreakdown::default()
        };
        match kind {
            TransferKind::Contiguous { .. } => {
                out.dma_setup_s = self.dma_setup_s * n_chunks as f64;
            }
            TransferKind::Strided { elems, .. } => {
                // Element-by-element copy by the CPU, plus one DMA-less
                // descriptor per chunk. The per-element cost includes
                // address generation, bounded below by the raw copy
                // speed.
                out.pio_copy_s = elems as f64 * self.pio_per_elem_s.max(
                    // never cheaper than the machine's memcpy rate
                    kind.wire_bytes() as f64 / elems.max(1) as f64 / cpu.memcpy_bps,
                );
            }
        }
        out
    }

    /// Protocol-aware host cost: what the eager/rendezvous transport
    /// pays to *initiate* one transfer from inside a registered region.
    ///
    /// Unlike the legacy [`host_breakdown`](Self::host_breakdown) path
    /// there is no driver-buffer chunking — eager payloads fit one
    /// registered slot by construction, and rendezvous transfers DMA
    /// straight out of the (already registered) source window with a
    /// single descriptor. The doorbell cost drops to
    /// [`ring_entry_s`](Self::ring_entry_s) when `batched` — the
    /// descriptor rides an already-open same-window ring.
    ///
    /// - **Eager**: doorbell + staging copy into the pre-posted slot at
    ///   the machine's memcpy rate. The slot's DMA descriptor was built
    ///   once at pool registration, so no `dma_setup_s` is paid.
    /// - **Rendezvous, contiguous**: doorbell + one DMA descriptor.
    /// - **Rendezvous, strided**: doorbell + the element-by-element PIO
    ///   gather (same per-element cost as the legacy path).
    pub fn host_breakdown_proto(
        &self,
        kind: TransferKind,
        proto: Protocol,
        batched: bool,
        cpu: &CpuModel,
    ) -> HostCostBreakdown {
        let wire = kind.wire_bytes();
        let doorbell = if batched { self.ring_entry_s } else { self.post_s };
        let per_msg = if self.shared_queue {
            doorbell
        } else {
            // Conventional stack: kernel entry plus a staging copy of
            // the payload on top of the doorbell.
            doorbell + self.context_switch_s + wire as f64 * (1.0 / self.staging_copy_bps)
        };
        let mut out = HostCostBreakdown {
            queue_s: per_msg,
            chunks: 1,
            ..HostCostBreakdown::default()
        };
        match proto {
            Protocol::Eager => {
                out.copy_s = wire as f64 / cpu.memcpy_bps;
            }
            Protocol::Rendezvous => match kind {
                TransferKind::Contiguous { .. } => {
                    out.dma_setup_s = self.dma_setup_s;
                }
                TransferKind::Strided { elems, .. } => {
                    out.pio_copy_s = elems as f64 * self.pio_per_elem_s.max(
                        wire as f64 / elems.max(1) as f64 / cpu.memcpy_bps,
                    );
                }
            },
        }
        out
    }

    /// [`host_breakdown_proto`](Self::host_breakdown_proto) under an
    /// armed fault plane. The key transport property: an eager
    /// retransmit replays *out of the registered slot* — the payload is
    /// already staged, so recovery costs one doorbell re-post plus
    /// backoff, never a second copy. A rendezvous retry re-programs its
    /// single descriptor (contiguous) or redoes the PIO gather
    /// (strided), exactly like the legacy path but without chunking.
    #[allow(clippy::too_many_arguments)]
    pub fn host_breakdown_proto_faulty(
        &self,
        kind: TransferKind,
        proto: Protocol,
        batched: bool,
        cpu: &CpuModel,
        inj: &FaultInjector,
        rank: usize,
        seq: u64,
    ) -> Result<HostCostBreakdown, VpceError> {
        let mut out = self.host_breakdown_proto(kind, proto, batched, cpu);
        let Some(plane) = NicFaults::arm(inj, rank, seq, &mut out) else {
            return Ok(out);
        };
        let spec = inj.spec();
        let (dma, pio) = ((spec.dma_err, site::DMA_ERR), (spec.pio_err, site::PIO_ERR));
        let backoff = |attempt| inj.backoff_delay(attempt);
        match (proto, kind) {
            // The slot holds the staged payload across attempts:
            // recovery is a doorbell re-post, never a re-copy.
            (Protocol::Eager, _) => {
                plane.retry(&mut out, dma, 0, "eager doorbell", |a| self.post_s + backoff(a))?
            }
            (Protocol::Rendezvous, TransferKind::Contiguous { .. }) => {
                plane.retry(&mut out, dma, 0, "DMA descriptor", |a| self.dma_setup_s + backoff(a))?
            }
            (Protocol::Rendezvous, TransferKind::Strided { .. }) => {
                let copy_s = out.pio_copy_s;
                plane.retry(&mut out, pio, 0, "PIO copy", |_| copy_s)?
            }
        }
        Ok(out)
    }

    /// [`host_breakdown`](Self::host_breakdown) under an armed fault
    /// plane: the shared driver queue may stall, each chunk's DMA
    /// descriptor may be rejected and re-programmed, and the PIO copy
    /// may be detected corrupt and redone — every recovery bounded by
    /// the spec's retry budget, every draw a pure hash of
    /// `(rank, seq, chunk, attempt)` so the cost is deterministic.
    /// `seq` is the caller's per-rank host-operation counter.
    pub fn host_breakdown_faulty(
        &self,
        kind: TransferKind,
        cpu: &CpuModel,
        inj: &FaultInjector,
        rank: usize,
        seq: u64,
    ) -> Result<HostCostBreakdown, VpceError> {
        let mut out = self.host_breakdown(kind, cpu);
        let Some(plane) = NicFaults::arm(inj, rank, seq, &mut out) else {
            return Ok(out);
        };
        let spec = inj.spec();
        let (dma, pio) = ((spec.dma_err, site::DMA_ERR), (spec.pio_err, site::PIO_ERR));
        match kind {
            TransferKind::Contiguous { .. } => {
                // Each chunk programs its own descriptor; a rejected
                // descriptor is re-programmed after a short backoff.
                let redo_s = |a| self.dma_setup_s + inj.backoff_delay(a);
                for chunk in 0..out.chunks as u64 {
                    plane.retry(&mut out, dma, chunk << 8, "DMA descriptor", redo_s)?;
                }
            }
            TransferKind::Strided { .. } => {
                // A corrupted element batch is detected at the end of
                // the copy and the whole copy redone.
                let copy_s = out.pio_copy_s;
                plane.retry(&mut out, pio, 0, "PIO copy", |_| copy_s)?;
            }
        }
        Ok(out)
    }
}

/// One transfer's view of the armed NIC fault plane: the injector and
/// the `(rank, seq)` key every draw for this transfer hashes on.
struct NicFaults<'a> {
    inj: &'a FaultInjector,
    rank: usize,
    key: u64,
}

impl<'a> NicFaults<'a> {
    /// `None` when injection is off; otherwise draws the shared-queue
    /// stall for this transfer into `out`.
    fn arm(
        inj: &'a FaultInjector,
        rank: usize,
        seq: u64,
        out: &mut HostCostBreakdown,
    ) -> Option<Self> {
        if !inj.enabled() {
            return None;
        }
        let key = ((rank as u64) << 32) ^ seq;
        if inj.hits(inj.spec().nic_stall, site::NIC_STALL, key, 0) {
            out.retry_s += inj.spec().nic_stall_s;
            out.stalls += 1;
        }
        Some(NicFaults { inj, rank, key })
    }

    /// The one bounded-retry loop: redo the host operation `what`
    /// while the draw at `(site, key, salt | attempt)` keeps failing
    /// it, booking `redo_s(attempt)` per redo into `out`, until the
    /// spec's retry budget is spent — then the typed failure.
    fn retry(
        &self,
        out: &mut HostCostBreakdown,
        (rate, fault_site): (f64, u64),
        salt: u64,
        what: &'static str,
        redo_s: impl Fn(u32) -> f64,
    ) -> Result<(), VpceError> {
        let mut attempt: u32 = 1;
        while self.inj.hits(rate, fault_site, self.key, salt | attempt as u64) {
            if attempt >= self.inj.spec().max_retries.saturating_add(1) {
                return Err(VpceError::NicFailure {
                    rank: self.rank,
                    what,
                    attempts: attempt,
                });
            }
            out.retry_s += redo_s(attempt);
            out.retries += 1;
            attempt += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> CpuModel {
        CpuModel::pentium_ii_300()
    }

    #[test]
    fn strided_setup_dwarfs_contiguous_for_same_payload() {
        // 8192 f64 elements: contiguous pays one DMA setup; strided
        // pays 8192 PIO element copies.
        let nic = NicModel::vbus_card();
        let cont = nic.host_overhead(
            TransferKind::Contiguous { bytes: 8192 * 8 },
            &cpu(),
        );
        let strided = nic.host_overhead(
            TransferKind::Strided {
                elems: 8192,
                elem_bytes: 8,
            },
            &cpu(),
        );
        assert!(
            strided > 10.0 * cont,
            "strided {strided} should dwarf contiguous {cont}"
        );
    }

    #[test]
    fn small_strided_beats_padded_contiguous() {
        // The flip side that makes "fine" the right answer sometimes:
        // a few strided elements cost less host time than DMA-ing a
        // large bounding region would add in wire time. At the host
        // level alone, 8 PIO elements are cheaper than a DMA setup.
        let nic = NicModel::vbus_card();
        let strided = nic.host_overhead(
            TransferKind::Strided {
                elems: 8,
                elem_bytes: 8,
            },
            &cpu(),
        );
        let cont = nic.host_overhead(TransferKind::Contiguous { bytes: 64 }, &cpu());
        assert!(strided < cont);
    }

    #[test]
    fn kernel_stack_costs_more_per_message() {
        let user = NicModel::vbus_card();
        let kernel = NicModel::vbus_card_kernel_stack();
        let kind = TransferKind::Contiguous { bytes: 4096 };
        assert!(kernel.host_overhead(kind, &cpu()) > user.host_overhead(kind, &cpu()));
    }

    #[test]
    fn vbus_vs_fast_ethernet_small_message_host_cost_about_4x() {
        // Claim C2, host-side component: the user-level V-Bus stack vs
        // the kernel Fast-Ethernet stack on a small message.
        let vb = NicModel::vbus_card();
        let fe = NicModel::fast_ethernet_card();
        let kind = TransferKind::Contiguous { bytes: 1024 };
        let ratio = fe.host_overhead(kind, &cpu()) / vb.host_overhead(kind, &cpu());
        assert!(
            (2.5..8.0).contains(&ratio),
            "FE/V-Bus host cost ratio should be a few x, got {ratio}"
        );
    }

    #[test]
    fn large_transfers_split_into_driver_buffer_chunks() {
        let nic = NicModel::vbus_card();
        assert_eq!(nic.chunks(1), 1);
        assert_eq!(nic.chunks(256 << 10), 1);
        assert_eq!(nic.chunks((256 << 10) + 1), 2);
        assert_eq!(nic.chunks(1 << 20), 4);
        // Cost grows with chunk count.
        let small = nic.host_overhead(TransferKind::Contiguous { bytes: 256 << 10 }, &cpu());
        let big = nic.host_overhead(TransferKind::Contiguous { bytes: 1 << 20 }, &cpu());
        assert!(big > 3.0 * small);
    }

    #[test]
    fn breakdown_totals_match_host_overhead() {
        for nic in [
            NicModel::vbus_card(),
            NicModel::vbus_card_kernel_stack(),
            NicModel::fast_ethernet_card(),
        ] {
            for kind in [
                TransferKind::Contiguous { bytes: 4096 },
                TransferKind::Contiguous { bytes: 1 << 20 },
                TransferKind::Strided {
                    elems: 512,
                    elem_bytes: 8,
                },
            ] {
                let b = nic.host_breakdown(kind, &cpu());
                assert!((b.total() - nic.host_overhead(kind, &cpu())).abs() < 1e-15);
                match kind {
                    TransferKind::Contiguous { .. } => {
                        assert!(b.dma_setup_s > 0.0);
                        assert_eq!(b.pio_copy_s, 0.0);
                    }
                    TransferKind::Strided { .. } => {
                        assert!(b.pio_copy_s > 0.0);
                        assert_eq!(b.dma_setup_s, 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn faulty_breakdown_with_off_spec_is_identical() {
        use vpce_faults::FaultSpec;
        let nic = NicModel::vbus_card();
        let inj = FaultInjector::new(FaultSpec::off());
        for kind in [
            TransferKind::Contiguous { bytes: 1 << 20 },
            TransferKind::Strided { elems: 512, elem_bytes: 8 },
        ] {
            let plain = nic.host_breakdown(kind, &cpu());
            let faulty = nic.host_breakdown_faulty(kind, &cpu(), &inj, 0, 7).unwrap();
            assert_eq!(plain, faulty);
            assert_eq!(faulty.retry_s, 0.0);
        }
    }

    #[test]
    fn dma_and_pio_retries_cost_deterministic_host_time() {
        use vpce_faults::FaultSpec;
        let nic = NicModel::vbus_card();
        let inj = FaultInjector::new(FaultSpec {
            seed: 3,
            dma_err: 0.4,
            pio_err: 0.4,
            nic_stall: 0.3,
            ..FaultSpec::off()
        });
        let mut saw_retry = false;
        let mut saw_stall = false;
        for seq in 0..40u64 {
            for kind in [
                TransferKind::Contiguous { bytes: 1 << 20 },
                TransferKind::Strided { elems: 256, elem_bytes: 8 },
            ] {
                let a = nic.host_breakdown_faulty(kind, &cpu(), &inj, 1, seq).unwrap();
                let b = nic.host_breakdown_faulty(kind, &cpu(), &inj, 1, seq).unwrap();
                assert_eq!(a, b, "same (rank, seq) must cost the same");
                assert!(a.total() >= nic.host_overhead(kind, &cpu()));
                saw_retry |= a.retries > 0;
                saw_stall |= a.stalls > 0;
            }
        }
        assert!(saw_retry, "0.4 error rates must fire in 80 ops");
        assert!(saw_stall);
    }

    #[test]
    fn exhausted_nic_budget_is_a_typed_error() {
        use vpce_faults::FaultSpec;
        let nic = NicModel::vbus_card();
        let inj = FaultInjector::new(FaultSpec {
            seed: 0,
            dma_err: 1.0,
            max_retries: 2,
            ..FaultSpec::off()
        });
        let err = nic
            .host_breakdown_faulty(TransferKind::Contiguous { bytes: 64 }, &cpu(), &inj, 3, 0)
            .unwrap_err();
        match err {
            VpceError::NicFailure { rank: 3, what, attempts: 3 } => {
                assert_eq!(what, "DMA descriptor");
            }
            other => panic!("expected NicFailure, got {other:?}"),
        }
    }

    #[test]
    fn eager_pays_copy_not_dma_setup() {
        let nic = NicModel::vbus_card();
        let kind = TransferKind::Contiguous { bytes: 2048 };
        let b = nic.host_breakdown_proto(kind, Protocol::Eager, false, &cpu());
        assert_eq!(b.dma_setup_s, 0.0);
        assert_eq!(b.pio_copy_s, 0.0);
        assert!((b.copy_s - 2048.0 / cpu().memcpy_bps).abs() < 1e-15);
        assert_eq!(b.chunks, 1);
        assert!((b.total() - (nic.post_s + b.copy_s)).abs() < 1e-15);
    }

    #[test]
    fn rendezvous_contiguous_pays_one_descriptor_no_chunking() {
        // 1 MiB would be 4 driver-buffer chunks on the legacy path;
        // rendezvous DMAs straight from the registered window with a
        // single descriptor.
        let nic = NicModel::vbus_card();
        let kind = TransferKind::Contiguous { bytes: 1 << 20 };
        let b = nic.host_breakdown_proto(kind, Protocol::Rendezvous, false, &cpu());
        assert_eq!(b.chunks, 1);
        assert!((b.total() - (nic.post_s + nic.dma_setup_s)).abs() < 1e-15);
        assert!(b.total() < nic.host_overhead(kind, &cpu()));
    }

    #[test]
    fn rendezvous_strided_matches_legacy_pio_cost() {
        let nic = NicModel::vbus_card();
        let kind = TransferKind::Strided { elems: 512, elem_bytes: 8 };
        let proto = nic.host_breakdown_proto(kind, Protocol::Rendezvous, false, &cpu());
        let legacy = nic.host_breakdown(kind, &cpu());
        assert_eq!(proto.pio_copy_s, legacy.pio_copy_s);
        assert_eq!(proto.copy_s, 0.0);
    }

    #[test]
    fn batched_doorbell_is_cheaper_than_posted() {
        let nic = NicModel::vbus_card();
        let kind = TransferKind::Contiguous { bytes: 256 };
        for proto in [Protocol::Eager, Protocol::Rendezvous] {
            let posted = nic.host_breakdown_proto(kind, proto, false, &cpu());
            let batched = nic.host_breakdown_proto(kind, proto, true, &cpu());
            assert!(
                (posted.total() - batched.total() - (nic.post_s - nic.ring_entry_s)).abs()
                    < 1e-15,
                "{} batching should save exactly one doorbell",
                proto.name()
            );
        }
    }

    #[test]
    fn eager_retry_replays_from_slot_without_recopy() {
        use vpce_faults::FaultSpec;
        let nic = NicModel::vbus_card();
        let inj = FaultInjector::new(FaultSpec {
            seed: 11,
            dma_err: 0.5,
            ..FaultSpec::off()
        });
        // Large-ish eager payload: a re-copy would dwarf the doorbell.
        let kind = TransferKind::Contiguous { bytes: 16 << 10 };
        let base = nic.host_breakdown_proto(kind, Protocol::Eager, false, &cpu());
        let mut saw_retry = false;
        for seq in 0..60u64 {
            let b = nic
                .host_breakdown_proto_faulty(kind, Protocol::Eager, false, &cpu(), &inj, 0, seq)
                .unwrap();
            if b.retries > 0 {
                saw_retry = true;
                // Each retry costs a doorbell + backoff; never the
                // staging copy again.
                let per_retry = b.retry_s / b.retries as f64;
                assert!(
                    per_retry < base.copy_s,
                    "retry {per_retry} must be cheaper than re-copying {}",
                    base.copy_s
                );
            }
            // The staged copy is paid exactly once regardless of faults.
            assert_eq!(b.copy_s, base.copy_s);
        }
        assert!(saw_retry, "0.5 dma_err must fire in 60 ops");
    }

    #[test]
    fn proto_faulty_off_spec_is_identical_and_deterministic() {
        use vpce_faults::FaultSpec;
        let nic = NicModel::vbus_card();
        let off = FaultInjector::new(FaultSpec::off());
        let on = FaultInjector::new(FaultSpec {
            seed: 5,
            dma_err: 0.3,
            pio_err: 0.3,
            nic_stall: 0.2,
            ..FaultSpec::off()
        });
        for kind in [
            TransferKind::Contiguous { bytes: 4096 },
            TransferKind::Strided { elems: 128, elem_bytes: 8 },
        ] {
            for proto in [Protocol::Eager, Protocol::Rendezvous] {
                let plain = nic.host_breakdown_proto(kind, proto, false, &cpu());
                let quiet = nic
                    .host_breakdown_proto_faulty(kind, proto, false, &cpu(), &off, 0, 3)
                    .unwrap();
                assert_eq!(plain, quiet);
                let a = nic
                    .host_breakdown_proto_faulty(kind, proto, false, &cpu(), &on, 1, 9)
                    .unwrap();
                let b = nic
                    .host_breakdown_proto_faulty(kind, proto, false, &cpu(), &on, 1, 9)
                    .unwrap();
                assert_eq!(a, b, "same (rank, seq) must cost the same");
            }
        }
    }

    #[test]
    fn protocol_names_are_stable() {
        assert_eq!(Protocol::Eager.name(), "eager");
        assert_eq!(Protocol::Rendezvous.name(), "rendezvous");
    }

    #[test]
    fn wire_bytes() {
        assert_eq!(TransferKind::Contiguous { bytes: 10 }.wire_bytes(), 10);
        assert_eq!(
            TransferKind::Strided {
                elems: 4,
                elem_bytes: 8
            }
            .wire_bytes(),
            32
        );
    }
}
