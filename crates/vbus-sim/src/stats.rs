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

impl NetStats {
    /// Total bytes moved over the network (p2p + broadcast payloads).
    pub fn total_bytes(&self) -> u64 {
        self.p2p_bytes + self.broadcast_bytes
    }

    /// Total messages of any kind.
    pub fn total_messages(&self) -> u64 {
        self.p2p_messages + self.broadcasts
    }

    /// Did any injected fault fire during the run? All-zero whenever
    /// injection is off, which is what keeps fault-free reports
    /// byte-identical to the pre-fault code.
    pub fn faults_seen(&self) -> bool {
        self.crc_failures != 0
            || self.packets_dropped != 0
            || self.link_stalls != 0
            || self.retransmits != 0
            || self.bus_fail_attempts != 0
            || self.bus_degraded != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_combine_p2p_and_broadcast() {
        let s = NetStats {
            p2p_messages: 3,
            p2p_bytes: 100,
            broadcasts: 2,
            broadcast_bytes: 50,
            ..NetStats::default()
        };
        assert_eq!(s.total_bytes(), 150);
        assert_eq!(s.total_messages(), 5);
    }

    #[test]
    fn fault_free_stats_report_no_faults() {
        assert!(!NetStats::default().faults_seen());
        let s = NetStats {
            retransmits: 1,
            ..NetStats::default()
        };
        assert!(s.faults_seen());
        let s = NetStats {
            bus_degraded: 2,
            ..NetStats::default()
        };
        assert!(s.faults_seen());
    }
}
