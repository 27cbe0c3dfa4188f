//! Protocol selection: the eager/rendezvous switchover, derived from
//! the machine cost model.
//!
//! Following the MPICH2-over-InfiniBand design, a one-sided transfer of
//! `n` payload bytes can go one of two ways:
//!
//! * **eager** — the origin stages the payload into a pre-registered
//!   slot (one memcpy at `memcpy_bps`) and fires a single message with
//!   the completion header piggybacked on the data. Cost: one doorbell
//!   plus `n / memcpy_bps`; no descriptor programming (the slot's
//!   descriptor was built once at pool registration) and no handshake.
//! * **rendezvous** — an RTS/CTS control round trip pins the receive
//!   side, then the NIC DMAs straight out of the (registered) source
//!   region: one doorbell plus one `dma_setup_s`, plus the RTT of the
//!   handshake on the wire — but **zero** copies.
//!
//! Equating the two gives the crossover: eager wins while the staging
//! copy is cheaper than the descriptor + handshake it avoids,
//!
//! ```text
//! n* = (dma_setup_s + rtt) * memcpy_bps
//! ```
//!
//! capped by the registered slot size. On the paper's machine
//! (10 µs DMA setup, ~µs-scale RTT, 180 MB/s memcpy) this lands in the
//! few-KB range — the same order as MVAPICH's classic 8 KB default.

use cluster_sim::{ClusterConfig, Protocol};

/// Bytes of one RTS/CTS/GET-request control message on the wire.
pub const CTRL_BYTES: usize = 16;

/// Header bytes piggybacked onto an eager data message (carries the
/// completion notification, so no separate ack message exists).
pub const HDR_BYTES: usize = 16;

/// The resolved protocol-choice policy of one universe.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportPolicy {
    /// Largest payload that goes eager, bytes.
    pub eager_max_bytes: usize,
    /// Registered slots per rank.
    pub slots: usize,
    /// Bytes per registered slot.
    pub slot_bytes: usize,
    /// Descriptor-ring depth (same-window doorbell batching).
    pub ring_depth: usize,
}

impl TransportPolicy {
    /// Derive the switchover from the machine cost model: the control
    /// round trip uses the mesh diameter (worst-case pair), and the
    /// threshold is capped by the slot size — an eager payload must fit
    /// one registered slot.
    pub fn from_config(cfg: &ClusterConfig) -> Self {
        let nic = &cfg.node.nic;
        let link = cfg.net.link;
        let rtt = 2.0
            * (link.per_hop_s * cfg.net.topology.diameter() as f64
                + link.transfer_time(CTRL_BYTES))
            + nic.post_s;
        let crossover = ((nic.dma_setup_s + rtt) * cfg.node.cpu.memcpy_bps) as usize;
        TransportPolicy {
            eager_max_bytes: crossover.min(nic.eager_slot_bytes),
            slots: nic.eager_slots,
            slot_bytes: nic.eager_slot_bytes,
            ring_depth: nic.ring_depth,
        }
    }

    /// A policy that forces every transfer onto one protocol — the
    /// bench harness uses this to sweep both paths across the same
    /// message sizes.
    pub fn forced(proto: Protocol, max_bytes: usize, slots: usize) -> Self {
        match proto {
            Protocol::Eager => TransportPolicy {
                eager_max_bytes: usize::MAX,
                slots,
                slot_bytes: max_bytes.max(1),
                ring_depth: 8,
            },
            Protocol::Rendezvous => TransportPolicy {
                eager_max_bytes: 0,
                slots,
                slot_bytes: max_bytes.max(1),
                ring_depth: 8,
            },
        }
    }

    /// Which protocol carries a transfer of `bytes` payload.
    pub fn choose(&self, bytes: usize) -> Protocol {
        if bytes <= self.eager_max_bytes && bytes <= self.slot_bytes {
            Protocol::Eager
        } else {
            Protocol::Rendezvous
        }
    }
}

/// Virtual-time cost of PUTting one checkpoint replica of `bytes`
/// payload to a buddy rank, costed through the same eager/rendezvous
/// model as any other one-sided transfer: eager stages the payload
/// into a registered slot and fires one message; rendezvous pays the
/// RTS/CTS handshake and DMA setup, then streams with zero copies.
/// Diskless checkpointing rides the existing transport for free — this
/// is the MPICH2-over-InfiniBand observation the recovery layer banks
/// on.
pub fn replica_put_cost(cfg: &ClusterConfig, policy: &TransportPolicy, bytes: usize) -> f64 {
    let nic = &cfg.node.nic;
    let link = cfg.net.link;
    let hops = link.per_hop_s * cfg.net.topology.diameter() as f64;
    match policy.choose(bytes) {
        Protocol::Eager => {
            nic.post_s
                + bytes as f64 / cfg.node.cpu.memcpy_bps
                + hops
                + link.transfer_time(bytes + HDR_BYTES)
        }
        Protocol::Rendezvous => {
            let rtt = 2.0 * (hops + link.transfer_time(CTRL_BYTES)) + nic.post_s;
            nic.dma_setup_s + rtt + hops + link.transfer_time(bytes)
        }
    }
}

/// Virtual-time cost of quiescing every surviving rank before a
/// rollback: one full-cluster synchronisation that drains in-flight
/// traffic, using the same software/V-Bus model as a barrier release
/// (see `Shared::barrier_cost`).
pub fn quiesce_cost(cfg: &ClusterConfig) -> f64 {
    let p = cfg.num_nodes();
    if p == 1 {
        return cfg.node.nic.post_s;
    }
    let link = cfg.net.link;
    let small = link.per_hop_s * cfg.net.topology.diameter() as f64
        + link.transfer_time(64)
        + cfg.node.nic.post_s;
    match cfg.net.vbus {
        Some(vb) => vb.arbitration_s + vb.per_node_config_s * p as f64 + small,
        None => 2.0 * (p as f64).log2().ceil() * small,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpce_machine::MachineSpec;

    #[test]
    fn paper_machine_crossover_is_a_few_kb() {
        let p = TransportPolicy::from_config(&ClusterConfig::paper_n(4));
        assert!(
            (1 << 10..=16 << 10).contains(&p.eager_max_bytes),
            "crossover {} should land in the few-KB range",
            p.eager_max_bytes
        );
        assert_eq!(p.slots, 16);
        assert_eq!(p.slot_bytes, 16 << 10);
        assert_eq!(p.ring_depth, 8);
    }

    #[test]
    fn choose_splits_at_the_threshold() {
        let p = TransportPolicy::from_config(&ClusterConfig::paper_n(4));
        assert_eq!(p.choose(64), Protocol::Eager);
        assert_eq!(p.choose(p.eager_max_bytes), Protocol::Eager);
        assert_eq!(p.choose(p.eager_max_bytes + 1), Protocol::Rendezvous);
        assert_eq!(p.choose(1 << 20), Protocol::Rendezvous);
    }

    #[test]
    fn threshold_never_exceeds_slot_size() {
        for cfg in [
            ClusterConfig::paper_n(2),
            ClusterConfig::paper_n(16),
            MachineSpec::fast_ethernet().lower(4).unwrap(),
            MachineSpec::prototype().lower(4).unwrap(),
        ] {
            let p = TransportPolicy::from_config(&cfg);
            assert!(p.eager_max_bytes <= p.slot_bytes);
        }
    }

    #[test]
    fn forced_policies_pin_the_protocol() {
        let e = TransportPolicy::forced(Protocol::Eager, 1 << 20, 4);
        let r = TransportPolicy::forced(Protocol::Rendezvous, 1 << 20, 4);
        for bytes in [1, 4096, 1 << 20] {
            assert_eq!(e.choose(bytes), Protocol::Eager);
            assert_eq!(r.choose(bytes), Protocol::Rendezvous);
        }
    }

    #[test]
    fn replica_put_cost_is_positive_monotone_and_protocol_aware() {
        let cfg = ClusterConfig::paper_n(4);
        let p = TransportPolicy::from_config(&cfg);
        let small = replica_put_cost(&cfg, &p, 256);
        let eager_edge = replica_put_cost(&cfg, &p, p.eager_max_bytes);
        let large = replica_put_cost(&cfg, &p, 1 << 20);
        assert!(small > 0.0);
        assert!(eager_edge >= small);
        assert!(large > eager_edge);
        // Determinism: same inputs, same bits.
        assert_eq!(small, replica_put_cost(&cfg, &p, 256));
    }

    #[test]
    fn quiesce_cost_is_positive_and_grows_with_the_machine() {
        let small = quiesce_cost(&ClusterConfig::paper_n(4));
        let large = quiesce_cost(&ClusterConfig::paper_n(16));
        assert!(small > 0.0);
        assert!(large > small);
        assert!(quiesce_cost(&ClusterConfig::paper_n(1)) > 0.0);
    }

    #[test]
    fn slower_wire_raises_the_crossover() {
        // A slower link stretches the handshake RTT, making rendezvous
        // dearer — eager should stay attractive for larger messages
        // (until the slot cap bites).
        let fast = TransportPolicy::from_config(&ClusterConfig::paper_n(4));
        let slow = TransportPolicy::from_config(&MachineSpec::prototype().lower(4).unwrap());
        assert!(slow.eager_max_bytes >= fast.eager_max_bytes);
    }
}
