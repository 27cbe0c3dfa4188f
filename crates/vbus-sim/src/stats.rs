//! Network statistics: the aggregate counters of one simulation run.
//!
//! The paper argues the V-Bus achieves "more efficient bandwidth
//! utilization" than dedicated broadcast wires; [`NetStats`] exposes the
//! utilization numbers that back that comparison in our benches.

/// Aggregate counters for one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetStats {
    /// Point-to-point messages scheduled.
    pub p2p_messages: u64,
    /// Bytes moved by point-to-point messages.
    pub p2p_bytes: u64,
    /// Virtual-bus broadcasts performed.
    pub broadcasts: u64,
    /// Bytes moved by broadcasts (payload, counted once per broadcast).
    pub broadcast_bytes: u64,
    /// Loopback (same-node) transfers that never touched the wire.
    pub loopbacks: u64,
    /// Total extra delay injected into in-flight p2p messages by
    /// virtual-bus freezes, in link·seconds.
    pub frozen_time: f64,
    /// Number of link schedules extended by a freeze.
    pub frozen_links: u64,
    /// Sum over messages of time spent waiting to acquire a path
    /// (contention).
    pub contention_wait: f64,
    /// Latest completion time observed on any link.
    pub horizon: f64,
    /// Packet attempts whose CRC check failed at the receiver
    /// (injected flit corruption; every one triggered a retransmit).
    pub crc_failures: u64,
    /// Packet attempts lost outright (detected by ack timeout).
    pub packets_dropped: u64,
    /// Injected link stalls (packet held in a router buffer).
    pub link_stalls: u64,
    /// Extra seconds packets spent stalled in buffers.
    pub stall_time: f64,
    /// Retransmissions performed (= crc_failures + packets_dropped on
    /// survivable runs).
    pub retransmits: u64,
    /// Seconds spent in exponential backoff before retransmits.
    pub backoff_time: f64,
    /// Total fault-recovery seconds across transfers (failed attempts,
    /// detection turnarounds, backoff) — the sum of `Transfer::recovery`.
    pub recovery_time: f64,
    /// Rendezvous RTS/CTS handshakes completed (one per rendezvous
    /// transfer; the control legs themselves ride the normal p2p path).
    pub rdvz_handshakes: u64,
    /// Control bytes spent on those handshakes (RTS + CTS headers).
    pub rdvz_handshake_bytes: u64,
    /// V-Bus construction attempts that failed arbitration.
    pub bus_fail_attempts: u64,
    /// Broadcasts that gave up on the hardware bus and degraded to the
    /// software multicast tree.
    pub bus_degraded: u64,
}
