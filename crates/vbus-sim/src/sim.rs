//! The deterministic link-schedule simulator.
//!
//! Every directed link carries a `busy_until` virtual time. A wormhole
//! point-to-point message acquires its entire route at
//! `max(ready, busy_until of every path link)` — the worm's header
//! cannot advance into a held channel, and once it advances the body
//! flits occupy the whole path until the tail drains (a standard
//! single-virtual-channel wormhole approximation). A virtual-bus
//! broadcast instead *preempts*: it starts immediately after bus
//! arbitration, and every link schedule that extends past the bus
//! interval is pushed back by the bus duration — the paper's "on-going
//! point-to-point messages are frozen in buffers".
//!
//! Determinism: results are a pure function of the sequence of calls.
//! Callers that batch messages (the MPI-2 fence does) sort them by
//! `(ready, src, seq)` before submission, so the whole stack is
//! bit-reproducible.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::link::LinkRate;
use crate::stats::NetStats;
use crate::topology::{LinkId, NodeId, Topology};
use crate::Time;
use vpce_faults::{site, FaultInjector, FaultSpec, VpceError};
use vpce_trace::{EventKind, Lane, Tracer};

/// Virtual-bus parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VBusConfig {
    /// Bus arbitration latency before the bus exists, seconds.
    pub arbitration_s: f64,
    /// Router reconfiguration cost per node on the bus, seconds.
    pub per_node_config_s: f64,
    /// Derating of link bandwidth when driven as a bus (the bus spans
    /// many segments; the slowest segment clocks it).
    pub bandwidth_derate: f64,
}

impl VBusConfig {
    /// Parameters matching the paper's card: a few microseconds to
    /// erect the bus, near-full link bandwidth once established.
    pub fn paper() -> Self {
        VBusConfig {
            arbitration_s: 2.0e-6,
            per_node_config_s: 0.5e-6,
            bandwidth_derate: 0.9,
        }
    }
}

/// Complete network configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    pub topology: Topology,
    pub link: LinkRate,
    /// `Some` iff the card supports hardware (virtual-bus) broadcast.
    pub vbus: Option<VBusConfig>,
}

impl NetConfig {
    /// The paper's machine: `n` nodes, near-square mesh, SKWP links,
    /// virtual-bus broadcast.
    pub fn vbus_skwp(n: usize) -> Self {
        NetConfig {
            topology: Topology::mesh_for(n),
            link: LinkRate::vbus_skwp(),
            vbus: Some(VBusConfig::paper()),
        }
    }

    /// The same card on a 2-D torus (§2.1 lists mesh, torus and
    /// hypercube as V-Bus targets): wraparound links halve the
    /// diameter.
    pub fn vbus_skwp_torus(n: usize) -> Self {
        NetConfig {
            topology: Topology::torus_for(n),
            link: LinkRate::vbus_skwp(),
            vbus: Some(VBusConfig::paper()),
        }
    }

    /// Fast-Ethernet reference cluster: shared segment, no hardware
    /// broadcast.
    pub fn fast_ethernet(n: usize) -> Self {
        NetConfig {
            topology: Topology::shared_for(n),
            link: LinkRate::fast_ethernet(),
            vbus: None,
        }
    }

    /// Number of nodes on the network.
    pub fn num_nodes(&self) -> usize {
        self.topology.num_nodes()
    }
}

/// The outcome of scheduling one transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    /// When the message started moving (path acquired / bus erected).
    pub start: Time,
    /// When the tail flit drained at the destination.
    pub end: Time,
    /// Router hops traversed (0 for loopback).
    pub hops: usize,
    /// Time spent blocked waiting for contended links.
    pub waited: Time,
    /// Time spent recovering from injected faults before the successful
    /// attempt began: failed transmissions, CRC-NACK/ack-timeout
    /// detection, exponential backoff, failed bus arbitrations. Always
    /// 0 when fault injection is off.
    pub recovery: Time,
}

/// How a broadcast request was served — or not — by the virtual bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BusOutcome {
    /// The card has no hardware broadcast; the caller must lower to a
    /// software tree (the pre-existing no-V-Bus path).
    NoHardware,
    /// The bus was erected and the broadcast completed.
    Granted(Transfer),
    /// Bus construction failed `attempts` times (injected faults) and
    /// the request degraded: the caller must fall back to the software
    /// multicast tree, starting no earlier than `ready` (the failed
    /// arbitrations and backoffs already cost that much virtual time).
    Degraded { ready: Time, attempts: u32 },
}

/// The hasher of [`NetSim`]'s pair counters: one folded multiply of the
/// `u64` key — both halves of the 128-bit product, so the low bits a
/// table indexes by depend on every key bit (`src·n` with `n` a power
/// of two has none of its own). The keys are rank pairs this simulator
/// computes, never outside input: nothing to defend with SipHash, which
/// cost more per message than the link bookkeeping it fed.
#[derive(Debug, Clone, Copy, Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("pair keys are hashed as one u64");
    }

    fn write_u64(&mut self, key: u64) {
        let wide = u128::from(key) * 0x9E37_79B9_7F4A_7C15_u128;
        self.0 = wide as u64 ^ (wide >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The network simulator. One instance models the whole interconnect.
#[derive(Debug, Clone)]
pub struct NetSim {
    cfg: NetConfig,
    /// `busy_until` per directed link.
    link_busy: Vec<Time>,
    stats: NetStats,
    /// Trace sink — the no-op tracer by default; link-occupancy and
    /// virtual-bus events are emitted only when enabled.
    tracer: Tracer,
    /// Deterministic fault oracle (all-zero spec by default).
    injector: FaultInjector,
    /// Whether a link-level fault rate (corruption, drop, stall) is
    /// armed: only then does a leg read its pair's attempt counter.
    link_faults: bool,
    /// Per-(src,dst) packet attempt counters, keyed `src·n + dst`: the
    /// deterministic keys the link fault draws hash, independent of
    /// cross-pair interleaving. Kept only while `link_faults` — the
    /// draws are their only reader — and then only for the pairs that
    /// have talked (master↔slave traffic is `O(n)` of the `n²`
    /// possible).
    pair_seq: HashMap<u64, u64, BuildHasherDefault<PairHasher>>,
    /// Whether a point-to-point leg has been booked since construction
    /// or the last [`reset`](Self::reset): the fault plane is fixed from
    /// then on, so a count skipped while it was off is never read.
    booked: bool,
    /// Bus-acquisition attempt counter (bus calls are leader-ordered).
    bus_seq: u64,
    /// The last two routes booked, most recent first. A message's legs
    /// run between one pair of nodes (RTS and data one way, CTS the
    /// other), and an op's messages all share that pair, so a leg
    /// mostly finds its route here; [`Topology::route_into`] runs only
    /// for a pair that is in neither. Two buffers, refilled in place:
    /// bounded whatever the machine size.
    routes: [Route; 2],
    /// Links whose trace lane has been named on the attached tracer.
    lane_named: Vec<bool>,
}

/// One stored route: the directed links from `pair.0` to `pair.1`.
#[derive(Debug, Clone, Default)]
struct Route {
    pair: Option<(NodeId, NodeId)>,
    links: Vec<LinkId>,
}

impl NetSim {
    /// Build a simulator for the given configuration.
    pub fn new(cfg: NetConfig) -> Self {
        let n_links = cfg.topology.num_links();
        NetSim {
            cfg,
            link_busy: vec![0.0; n_links],
            stats: NetStats::default(),
            tracer: Tracer::disabled(),
            injector: FaultInjector::new(FaultSpec::off()),
            link_faults: false,
            pair_seq: HashMap::default(),
            booked: false,
            bus_seq: 0,
            routes: Default::default(),
            lane_named: vec![false; n_links],
        }
    }

    /// Arm (or disarm, with [`FaultSpec::off`]) the fault-injection
    /// plane for this simulator.
    ///
    /// # Panics
    /// Panics once a point-to-point leg has been booked (until
    /// [`reset`](Self::reset)): the pair attempt counters are kept only
    /// while a link fault rate is armed, so arming one mid-run would
    /// draw from counts that were never made.
    pub fn set_faults(&mut self, spec: FaultSpec) {
        assert!(
            !self.booked,
            "NetSim::set_faults after traffic was booked: arm the fault plane before the first message, or reset the simulator"
        );
        self.link_faults = spec.link_armed();
        self.injector = FaultInjector::new(spec);
    }

    /// The active fault schedule.
    pub fn fault_spec(&self) -> &FaultSpec {
        self.injector.spec()
    }

    /// Attach a trace sink. Links that carry traffic get their own
    /// lanes; the virtual bus draws on the shared bus lane.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        if tracer.is_enabled() {
            tracer.register_lane(Lane::Bus, "virtual bus".to_string());
        }
        self.lane_named.fill(false);
        self.tracer = tracer;
    }

    /// The configuration this simulator was built with.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Record one completed rendezvous RTS/CTS handshake of `bytes`
    /// control traffic. The control legs themselves are scheduled as
    /// ordinary p2p messages by the transport; this just keeps the
    /// protocol ledger so reports can show handshake overhead.
    pub fn note_handshake(&mut self, bytes: u64) {
        self.stats.rdvz_handshakes += 1;
        self.stats.rdvz_handshake_bytes += bytes;
    }

    /// Take the accumulated network counters, leaving a zeroed ledger
    /// behind — the scoping primitive for multiplexed runs: callers
    /// that reuse one simulator for several logical runs snapshot each
    /// run's traffic without the totals bleeding together. Link
    /// schedules (`busy_until`) are untouched; time keeps flowing.
    pub fn take_stats(&mut self) -> NetStats {
        std::mem::take(&mut self.stats)
    }

    /// Reset schedules and statistics (new experiment, same network).
    /// The fault schedule stays armed; its draw counters restart so a
    /// reset simulator replays the same faults.
    pub fn reset(&mut self) {
        self.link_busy.fill(0.0);
        self.stats = NetStats::default();
        self.pair_seq.clear();
        self.booked = false;
        self.bus_seq = 0;
        self.lane_named.fill(false);
    }

    /// Schedule a point-to-point wormhole message of `bytes` payload,
    /// ready to leave `src` for `dst` at time `ready`.
    ///
    /// Loopback (`src == dst`) completes instantly at the network level;
    /// the memory-copy cost of a local transfer is charged by the node
    /// model, not the wire.
    /// Infallible wrapper over [`try_p2p`](Self::try_p2p): with fault
    /// injection off it can never fail; with it on, an exhausted
    /// retransmit budget panics with the typed error's message.
    /// Fault-aware callers (the MPI library) use `try_p2p` instead.
    pub fn p2p(&mut self, src: NodeId, dst: NodeId, bytes: usize, ready: Time) -> Transfer {
        self.try_p2p(src, dst, bytes, ready)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`p2p`](Self::p2p) with the link layer's CRC/ack/retransmit
    /// protocol made visible. Each attempt occupies the path like any
    /// worm; a corrupted attempt is detected by the receiver's CRC and
    /// NACKed back, a dropped attempt by the sender's ack timeout.
    /// Retransmits wait out a bounded exponential backoff (virtual
    /// time). An exhausted budget returns [`VpceError::LinkFailure`].
    pub fn try_p2p(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        ready: Time,
    ) -> Result<Transfer, VpceError> {
        let n = self.cfg.num_nodes();
        assert!(src < n && dst < n, "rank out of range: {src}->{dst} of {n}");
        if src == dst {
            self.stats.loopbacks += 1;
            return Ok(Transfer {
                start: ready,
                end: ready,
                hops: 0,
                waited: 0.0,
                recovery: 0.0,
            });
        }
        self.booked = true;
        // The pair's route is one of the last two booked, or it
        // replaces the older of them.
        let pair = Some((src, dst));
        if self.routes[0].pair != pair {
            self.routes.swap(0, 1);
            if self.routes[0].pair != pair {
                self.cfg.topology.route_into(src, dst, &mut self.routes[0].links);
                self.routes[0].pair = pair;
            }
        }
        let path = &self.routes[0].links;
        let hops = path.len();
        let head = self.cfg.link.per_hop_s * hops as f64;
        let body = self.cfg.link.transfer_time(bytes);
        let spec = self.injector.spec();
        let pair_key = (src * n + dst) as u64;
        let mut attempt_ready = ready;
        let mut first_start: Option<Time> = None;
        let mut attempt: u32 = 1;
        loop {
            // Unarmed, every draw below misses whatever its salt: no
            // counter to keep.
            let seq = if self.link_faults {
                let next = self.pair_seq.entry(pair_key).or_default();
                *next += 1;
                *next - 1
            } else {
                0
            };
            let start = path.iter().map(|&l| self.link_busy[l]).fold(attempt_ready, f64::max);
            let first = *first_start.get_or_insert(start);
            let mut end = start + head + body;
            if self.injector.hits(spec.link_stall, site::LINK_STALL, pair_key, seq) {
                // The worm is held in a router buffer mid-flight; the
                // whole path stays occupied for the extra time.
                end += spec.stall_s;
                self.stats.link_stalls += 1;
                self.stats.stall_time += spec.stall_s;
            }
            for &l in path {
                self.link_busy[l] = end;
            }
            self.stats.horizon = self.stats.horizon.max(end);
            if self.tracer.is_enabled() {
                // A wormhole holds its whole path for [start, end]: one
                // occupancy span per traversed link — failed attempts
                // occupy the wire exactly like successful ones. A lane
                // is named the first time its link carries anything.
                for &l in path {
                    if !std::mem::replace(&mut self.lane_named[l], true) {
                        self.tracer.register_lane(Lane::Link(l), format!("link {l}"));
                    }
                    self.tracer.push(
                        Lane::Link(l),
                        start,
                        end,
                        EventKind::LinkBusy {
                            src,
                            dst,
                            bytes: bytes as u64,
                            wait: start - attempt_ready,
                        },
                    );
                }
            }
            let corrupt = self
                .injector
                .hits(spec.flit_corrupt, site::FLIT_CORRUPT, pair_key, seq);
            let dropped = !corrupt
                && self
                    .injector
                    .hits(spec.link_drop, site::LINK_DROP, pair_key, seq);
            if !corrupt && !dropped {
                let waited = first - ready;
                let recovery = start - first;
                self.stats.p2p_messages += 1;
                self.stats.p2p_bytes += bytes as u64;
                self.stats.contention_wait += waited;
                self.stats.recovery_time += recovery;
                return Ok(Transfer {
                    start: first,
                    end,
                    hops,
                    waited,
                    recovery,
                });
            }
            // This attempt is lost. Corruption is detected when the
            // receiver's CRC verdict (a NACK) gets back; a drop only
            // when the sender's ack timer expires.
            let detect = if corrupt {
                self.stats.crc_failures += 1;
                end + self.cfg.link.ack_turnaround(hops)
            } else {
                self.stats.packets_dropped += 1;
                end + self.cfg.link.drop_timeout(hops)
            };
            if attempt >= spec.max_retries.saturating_add(1) {
                return Err(VpceError::LinkFailure {
                    src,
                    dst,
                    attempts: attempt,
                });
            }
            let backoff = self.injector.backoff_delay(attempt);
            self.stats.retransmits += 1;
            self.stats.backoff_time += backoff;
            if self.tracer.is_enabled() {
                self.tracer.push(
                    Lane::Link(path[0]),
                    start,
                    detect,
                    EventKind::Retransmit {
                        src,
                        dst,
                        attempt,
                        bytes: bytes as u64,
                    },
                );
                self.tracer.push(
                    Lane::Link(path[0]),
                    detect,
                    detect + backoff,
                    EventKind::BackoffWait {
                        src,
                        dst,
                        delay: backoff,
                    },
                );
            }
            attempt_ready = detect + backoff;
            attempt += 1;
        }
    }

    /// Broadcast `bytes` from `src` to every node.
    ///
    /// With a [`VBusConfig`] present this uses the hardware virtual bus:
    /// arbitration, router reconfiguration along the bus, a
    /// single bus-rate transfer, and a *freeze* of every in-flight p2p
    /// message (their link reservations are pushed back by the bus
    /// occupancy). Without V-Bus hardware the caller (e.g. the MPI
    /// library) must lower the broadcast to a software tree of `p2p`
    /// calls — see `mpi2::coll`.
    ///
    /// Returns `None` when the card has no hardware broadcast — and,
    /// with fault injection armed, when bus construction degraded (the
    /// caller's software-tree fallback is exactly the right response
    /// in both cases, though fault-aware callers should prefer
    /// [`vbus_broadcast_checked`](Self::vbus_broadcast_checked), which
    /// also reports the virtual time the failed arbitrations cost).
    pub fn vbus_broadcast(&mut self, src: NodeId, bytes: usize, ready: Time) -> Option<Transfer> {
        match self.vbus_broadcast_checked(src, bytes, ready) {
            BusOutcome::Granted(t) => Some(t),
            BusOutcome::NoHardware | BusOutcome::Degraded { .. } => None,
        }
    }

    /// [`vbus_broadcast`](Self::vbus_broadcast) with the construction
    /// protocol visible: each acquisition attempt may fail (injected
    /// fault), costing one arbitration plus a backoff; when the attempt
    /// budget is exhausted the broadcast *degrades* — the caller lowers
    /// it to a software multicast tree over p2p, starting at the
    /// returned `ready` time, and the degradation is counted in stats.
    pub fn vbus_broadcast_checked(
        &mut self,
        src: NodeId,
        bytes: usize,
        ready: Time,
    ) -> BusOutcome {
        let Some(vb) = self.cfg.vbus else {
            return BusOutcome::NoHardware;
        };
        let n = self.cfg.num_nodes();
        assert!(src < n, "rank out of range: {src} of {n}");
        if n == 1 {
            self.stats.loopbacks += 1;
            return BusOutcome::Granted(Transfer {
                start: ready,
                end: ready,
                hops: 0,
                waited: 0.0,
                recovery: 0.0,
            });
        }
        let spec = self.injector.spec().clone();
        let mut t_ready = ready;
        let mut recovery = 0.0;
        let mut attempts: u32 = 0;
        loop {
            let seq = self.bus_seq;
            self.bus_seq += 1;
            attempts += 1;
            if !self.injector.hits(spec.bus_fail, site::BUS_FAIL, src as u64, seq) {
                return BusOutcome::Granted(self.erect_bus(vb, src, bytes, t_ready, recovery));
            }
            self.stats.bus_fail_attempts += 1;
            let backoff = self.injector.backoff_delay(attempts);
            self.stats.backoff_time += backoff;
            recovery += vb.arbitration_s + backoff;
            t_ready += vb.arbitration_s + backoff;
            if attempts >= spec.bus_attempts {
                self.stats.bus_degraded += 1;
                self.stats.recovery_time += recovery;
                if self.tracer.is_enabled() {
                    self.tracer.push(
                        Lane::Bus,
                        ready,
                        t_ready,
                        EventKind::BusDegraded {
                            root: src,
                            attempts,
                        },
                    );
                }
                return BusOutcome::Degraded {
                    ready: t_ready,
                    attempts,
                };
            }
        }
    }

    /// Erect the bus and drain the broadcast (construction already
    /// granted). `ready` includes any failed-arbitration penalty, which
    /// `recovery` records.
    fn erect_bus(
        &mut self,
        vb: VBusConfig,
        src: NodeId,
        bytes: usize,
        ready: Time,
        recovery: Time,
    ) -> Transfer {
        let n = self.cfg.num_nodes();
        let setup = vb.arbitration_s + vb.per_node_config_s * n as f64;
        let start = ready + setup;
        let bus_bw = self.cfg.link.bandwidth_bps * vb.bandwidth_derate;
        // The header still crosses the bus diameter once.
        let head = self.cfg.link.per_hop_s * self.cfg.topology.diameter() as f64;
        let duration = head + bytes as f64 / bus_bw;
        let end = start + duration;
        // Freeze: any reservation extending past the bus start is pushed
        // back by the bus duration ("frozen in buffers"); and the bus
        // itself occupies every channel until it is torn down, so
        // traffic scheduled later waits for `end`.
        let mut frozen_here = 0u64;
        for busy in self.link_busy.iter_mut() {
            if *busy > start {
                *busy += duration;
                self.stats.frozen_time += duration;
                self.stats.frozen_links += 1;
                frozen_here += 1;
            } else {
                *busy = end;
            }
        }
        self.stats.broadcasts += 1;
        self.stats.broadcast_bytes += bytes as u64;
        self.stats.recovery_time += recovery;
        self.stats.horizon = self.stats.horizon.max(end);
        if self.tracer.is_enabled() {
            self.tracer.push(
                Lane::Bus,
                ready,
                end,
                EventKind::BusBroadcast {
                    root: src,
                    bytes: bytes as u64,
                    setup,
                },
            );
            if frozen_here > 0 {
                self.tracer.push(
                    Lane::Bus,
                    start,
                    start,
                    EventKind::BusFreeze {
                        links: frozen_here,
                        pushback: duration,
                    },
                );
            }
        }
        Transfer {
            start,
            end,
            hops: self.cfg.topology.diameter(),
            waited: setup,
            recovery,
        }
    }

    /// Earliest time at which all links are idle at or after `t` — used
    /// by tests and by quiescence assertions.
    pub fn quiescent_after(&self, t: Time) -> Time {
        self.link_busy.iter().cloned().fold(t, f64::max)
    }
}

#[cfg(test)]
mod leg_tests;

#[cfg(test)]
mod tests {
    use super::*;

    fn sim4() -> NetSim {
        NetSim::new(NetConfig::vbus_skwp(4))
    }

    #[test]
    fn loopback_is_free_on_the_wire() {
        let mut s = sim4();
        let t = s.p2p(1, 1, 1 << 20, 5.0);
        assert_eq!(t.start, 5.0);
        assert_eq!(t.end, 5.0);
        assert_eq!(s.stats().loopbacks, 1);
        assert_eq!(s.stats().p2p_messages, 0);
    }

    #[test]
    fn single_message_latency_decomposes() {
        let mut s = sim4();
        let bytes = 4096;
        let t = s.p2p(0, 3, bytes, 0.0);
        let link = LinkRate::vbus_skwp();
        let expect = 2.0 * link.per_hop_s + link.transfer_time(bytes);
        assert!((t.end - expect).abs() < 1e-12, "{} vs {}", t.end, expect);
        assert_eq!(t.hops, 2);
        assert_eq!(t.waited, 0.0);
    }

    #[test]
    fn contention_serialises_messages_on_shared_links() {
        let mut s = sim4();
        // 0->1 and 0->1 again: second waits for the first.
        let a = s.p2p(0, 1, 1 << 16, 0.0);
        let b = s.p2p(0, 1, 1 << 16, 0.0);
        assert!(b.start >= a.end - 1e-15);
        assert!(b.waited > 0.0);
        assert!(s.stats().contention_wait > 0.0);
    }

    #[test]
    fn disjoint_paths_do_not_contend() {
        let mut s = sim4();
        // In the 2x2 mesh, 0->1 (east on row 0) and 2->3 (east on row 1)
        // use disjoint links.
        let a = s.p2p(0, 1, 1 << 16, 0.0);
        let b = s.p2p(2, 3, 1 << 16, 0.0);
        assert_eq!(a.waited, 0.0);
        assert_eq!(b.waited, 0.0);
        assert!((a.end - b.end).abs() < 1e-15);
    }

    #[test]
    fn determinism_same_sequence_same_schedule() {
        let run = || {
            let mut s = sim4();
            let mut ends = Vec::new();
            for i in 0..20 {
                let src = i % 4;
                let dst = (i * 7 + 1) % 4;
                ends.push(s.p2p(src, dst, 1000 + i * 37, i as f64 * 1e-5).end);
            }
            ends
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn broadcast_freezes_inflight_p2p() {
        let mut s = sim4();
        let big = 1 << 20;
        let p = s.p2p(0, 1, big, 0.0); // long-running worm
        let b = s.vbus_broadcast(2, 4096, 0.0).unwrap();
        assert!(b.start < p.end, "broadcast must preempt, not queue");
        // The frozen worm's link reservation was extended.
        let resumed = s.p2p(0, 1, 16, 0.0);
        assert!(
            resumed.start > p.end,
            "second worm should see the pushed-back schedule"
        );
        assert!(s.stats().frozen_links > 0);
        assert!(s.stats().frozen_time > 0.0);
    }

    #[test]
    fn broadcast_needs_vbus_hardware() {
        let mut s = NetSim::new(NetConfig::fast_ethernet(4));
        assert!(s.vbus_broadcast(0, 100, 0.0).is_none());
    }

    #[test]
    fn broadcast_on_single_node_is_trivial() {
        let mut s = NetSim::new(NetConfig::vbus_skwp(1));
        let b = s.vbus_broadcast(0, 1 << 20, 3.0).unwrap();
        assert_eq!(b.end, 3.0);
    }

    #[test]
    fn vbus_broadcast_beats_sequential_unicasts_for_large_payloads() {
        // The hardware bus sends the payload once; p2p to 3 peers sends
        // it three times (and serialises on the source's links).
        let bytes = 1 << 20;
        let mut hw = sim4();
        let b = hw.vbus_broadcast(0, bytes, 0.0).unwrap();
        let mut sw = sim4();
        let mut end: f64 = 0.0;
        for dst in 1..4 {
            end = end.max(sw.p2p(0, dst, bytes, 0.0).end);
        }
        assert!(
            b.end < end,
            "vbus {} should beat unicast sweep {}",
            b.end,
            end
        );
    }

    #[test]
    fn fast_ethernet_serialises_disjoint_pairs() {
        let mut s = NetSim::new(NetConfig::fast_ethernet(4));
        let a = s.p2p(0, 1, 1 << 16, 0.0);
        let b = s.p2p(2, 3, 1 << 16, 0.0);
        assert!(
            b.start >= a.end - 1e-15,
            "shared segment must serialise all traffic"
        );
    }

    #[test]
    fn reset_clears_schedule_and_stats() {
        let mut s = sim4();
        s.p2p(0, 3, 1 << 20, 0.0);
        s.vbus_broadcast(1, 1 << 10, 0.0);
        s.reset();
        assert_eq!(*s.stats(), NetStats::default());
        assert_eq!(s.quiescent_after(0.0), 0.0);
        let t = s.p2p(0, 3, 16, 0.0);
        assert_eq!(t.waited, 0.0);
    }

    #[test]
    fn pair_counters_hold_only_the_pairs_that_talk() {
        // 100 000 nodes: an n × n counter table would be 80 GB. A stall
        // rate arms the link plane without a retransmit, so every leg is
        // one attempt.
        let n = 100_000;
        let mut s = NetSim::new(NetConfig::vbus_skwp(n));
        s.set_faults(FaultSpec { seed: 3, link_stall: 1e-9, ..FaultSpec::off() });
        for _ in 0..3 {
            s.p2p(0, n - 1, 64, 0.0);
        }
        s.p2p(n - 1, 0, 64, 0.0);
        let seq = |s: &NetSim, src: usize, dst: usize| s.pair_seq.get(&((src * n + dst) as u64)).copied();
        assert_eq!(seq(&s, 0, n - 1), Some(3));
        assert_eq!(seq(&s, n - 1, 0), Some(1));
        assert_eq!(s.pair_seq.len(), 2);
        s.reset();
        assert!(s.pair_seq.is_empty(), "reset restarts the counters");
        s.p2p(0, n - 1, 64, 0.0);
        assert_eq!(seq(&s, 0, n - 1), Some(1));
    }

    #[test]
    #[should_panic(expected = "NetSim::set_faults after traffic was booked")]
    fn faults_cannot_be_armed_after_traffic() {
        let mut s = sim4();
        s.p2p(0, 3, 64, 0.0);
        s.set_faults(FaultSpec::light());
    }

    #[test]
    fn faults_can_be_armed_after_a_loopback_a_broadcast_or_a_reset() {
        let mut s = sim4();
        s.p2p(2, 2, 64, 0.0);
        s.vbus_broadcast(0, 64, 0.0);
        s.set_faults(FaultSpec::light());
        s.p2p(0, 3, 64, 0.0);
        s.reset();
        s.set_faults(FaultSpec::off());
        s.p2p(0, 3, 64, 0.0);
    }

    #[test]
    fn torus_shortens_long_routes() {
        // Corner-to-corner on 16 nodes: 6 hops on the mesh, 2 on the
        // torus — lower latency for the same payload.
        let bytes = 4096;
        let mesh_t = NetSim::new(NetConfig::vbus_skwp(16)).p2p(0, 15, bytes, 0.0).end;
        let torus_t = NetSim::new(NetConfig::vbus_skwp_torus(16))
            .p2p(0, 15, bytes, 0.0)
            .end;
        assert!(torus_t < mesh_t, "torus {torus_t} vs mesh {mesh_t}");
    }

    #[test]
    fn horizon_tracks_latest_completion() {
        let mut s = sim4();
        let a = s.p2p(0, 1, 1 << 20, 0.0);
        assert!((s.stats().horizon - a.end).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn p2p_rejects_bad_rank() {
        sim4().p2p(0, 9, 1, 0.0);
    }

    #[test]
    fn faults_off_is_byte_identical_to_unarmed() {
        // Arming the injector with the all-zero schedule must not
        // change a single scheduled time or counter.
        let drive = |s: &mut NetSim| {
            let mut ends = Vec::new();
            for i in 0..30 {
                ends.push(s.p2p(i % 4, (i * 3 + 1) % 4, 512 + i * 11, i as f64 * 1e-6).end);
            }
            ends.push(s.vbus_broadcast(0, 4096, 0.0).unwrap().end);
            ends
        };
        let mut plain = sim4();
        let mut armed = sim4();
        armed.set_faults(FaultSpec::off());
        assert_eq!(drive(&mut plain), drive(&mut armed));
        assert_eq!(plain.stats().retransmits, 0);
        assert_eq!(plain.stats(), armed.stats());
    }

    #[test]
    fn retransmits_recover_and_are_counted() {
        let mut s = sim4();
        s.set_faults(FaultSpec {
            seed: 11,
            flit_corrupt: 0.4,
            link_drop: 0.2,
            ..FaultSpec::off()
        });
        let mut clean = sim4();
        let mut saw_recovery = false;
        for i in 0..40 {
            let t = s.try_p2p(0, 3, 2048, i as f64 * 1e-3).unwrap();
            let c = clean.p2p(0, 3, 2048, i as f64 * 1e-3);
            assert!(t.end >= c.end - 1e-15, "faults can only delay");
            if t.recovery > 0.0 {
                saw_recovery = true;
            }
        }
        assert!(saw_recovery, "0.52 failure rate must fire in 40 packets");
        let st = s.stats();
        assert!(st.crc_failures + st.packets_dropped > 0);
        assert_eq!(st.retransmits, st.crc_failures + st.packets_dropped);
        assert!(st.backoff_time > 0.0);
        assert!(st.recovery_time > 0.0);
        assert_eq!(st.p2p_messages, 40, "every packet eventually delivered");
    }

    #[test]
    fn retransmit_schedule_is_deterministic() {
        let run = || {
            let mut s = sim4();
            s.set_faults(FaultSpec {
                seed: 5,
                flit_corrupt: 0.3,
                link_stall: 0.2,
                ..FaultSpec::off()
            });
            (0..25)
                .map(|i| s.try_p2p(i % 4, (i + 1) % 4, 1024, 0.0).unwrap().end)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn exhausted_retry_budget_is_a_typed_error() {
        let mut s = sim4();
        s.set_faults(FaultSpec {
            seed: 1,
            link_drop: 1.0,
            max_retries: 3,
            ..FaultSpec::off()
        });
        match s.try_p2p(0, 1, 64, 0.0) {
            Err(VpceError::LinkFailure { src: 0, dst: 1, attempts: 4 }) => {}
            other => panic!("expected LinkFailure after 4 attempts, got {other:?}"),
        }
        assert_eq!(s.stats().packets_dropped, 4);
        assert_eq!(s.stats().retransmits, 3);
    }

    #[test]
    fn bus_failure_degrades_to_software_path() {
        let mut s = sim4();
        s.set_faults(FaultSpec {
            seed: 2,
            bus_fail: 1.0,
            bus_attempts: 3,
            ..FaultSpec::off()
        });
        match s.vbus_broadcast_checked(0, 4096, 1.0) {
            BusOutcome::Degraded { ready, attempts: 3 } => {
                assert!(ready > 1.0, "failed arbitrations must cost time");
            }
            other => panic!("expected degradation, got {other:?}"),
        }
        assert_eq!(s.stats().bus_degraded, 1);
        assert_eq!(s.stats().bus_fail_attempts, 3);
        assert_eq!(s.stats().broadcasts, 0, "no hardware broadcast happened");
        // The Option wrapper maps degradation to the software-tree path.
        assert!(s.vbus_broadcast(0, 4096, 1.0).is_none());
    }

    #[test]
    fn bus_faults_below_budget_still_grant() {
        // One failure then success: granted, later, with recovery > 0.
        let mut s = sim4();
        s.set_faults(FaultSpec {
            seed: 40,
            bus_fail: 0.5,
            bus_attempts: 10,
            ..FaultSpec::off()
        });
        let mut granted = 0;
        let mut recovered = 0;
        for i in 0..20 {
            match s.vbus_broadcast_checked(i % 4, 1024, 0.0) {
                BusOutcome::Granted(t) => {
                    granted += 1;
                    if t.recovery > 0.0 {
                        recovered += 1;
                    }
                }
                BusOutcome::Degraded { .. } => {}
                BusOutcome::NoHardware => panic!("card has a bus"),
            }
        }
        assert!(granted > 0);
        assert!(recovered > 0, "a 0.5 fail rate must cost some arbitration");
        assert!(s.stats().bus_fail_attempts > 0);
    }

    #[test]
    fn link_stalls_extend_occupancy() {
        let spec = FaultSpec {
            seed: 9,
            link_stall: 1.0,
            ..FaultSpec::off()
        };
        let mut s = sim4();
        s.set_faults(spec.clone());
        let stalled = s.try_p2p(0, 1, 256, 0.0).unwrap();
        let plain = sim4().p2p(0, 1, 256, 0.0);
        assert!((stalled.end - plain.end - spec.stall_s).abs() < 1e-12);
        assert_eq!(s.stats().link_stalls, 1);
    }

    #[test]
    fn pair_hasher_spreads_the_keys_a_power_of_two_machine_makes() {
        // Every slave -> master pair of a 256-rank machine is `src·256`:
        // no low bit of its own. A table indexes by the low bits of the
        // hash, its control bytes by the top seven: both must spread.
        use std::collections::HashSet;
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<PairHasher>::default();
        let hashes: Vec<u64> = (1..256u64).map(|src| build.hash_one(src * 256)).collect();
        let low: HashSet<u64> = hashes.iter().map(|h| h & 0xff).collect();
        let top: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(low.len() > 128, "{} distinct low bytes of 255", low.len());
        assert!(top.len() > 100, "{} distinct top-7 of 128", top.len());
    }

    #[test]
    fn a_link_lane_is_named_once_and_again_after_reset() {
        let tracer = Tracer::enabled();
        let mut s = sim4();
        s.set_tracer(tracer.clone());
        for _ in 0..3 {
            s.p2p(0, 3, 64, 0.0);
        }
        // Two links, three occupancy spans each, one label each (plus
        // the bus lane's).
        let lanes = tracer.lanes();
        assert_eq!(lanes.len(), 3, "{lanes:?}");
        assert!(s.lane_named.iter().filter(|&&named| named).count() == 2);
        assert_eq!(tracer.events().len(), 6);
        let before = tracer.to_chrome_json();
        // A reset simulator names its lanes again — the same names.
        s.reset();
        assert!(s.lane_named.iter().all(|&named| !named));
        s.p2p(0, 3, 64, 0.0);
        assert_eq!(tracer.lanes(), lanes);
        assert_ne!(tracer.to_chrome_json(), before, "the new spans are recorded");
    }

    #[test]
    fn the_route_buffer_is_reused_from_leg_to_leg() {
        let mut s = sim4();
        s.p2p(0, 3, 64, 0.0);
        s.p2p(3, 0, 64, 0.0);
        let buffers = |s: &NetSim| {
            let mut b = s.routes.each_ref().map(|r| (r.links.as_ptr(), r.links.capacity()));
            b.sort_unstable();
            b
        };
        let before = buffers(&s);
        for (src, dst) in [(0, 3), (3, 0), (0, 3), (1, 2), (0, 1), (2, 2)] {
            s.p2p(src, dst, 64, 0.0);
        }
        assert_eq!(buffers(&s), before, "two buffers, refilled in place");
        // Most recent first; loopback books no route.
        let pairs = s.routes.each_ref().map(|r| r.pair);
        assert_eq!(pairs, [Some((0, 1)), Some((1, 2))]);
        for r in &s.routes {
            let (src, dst) = r.pair.unwrap();
            assert_eq!(r.links, s.config().topology.route(src, dst));
        }
    }
}
