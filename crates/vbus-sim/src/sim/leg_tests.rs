//! A leg booked through the route store is a leg booked from scratch.
//!
//! [`NetSim::try_p2p`] finds a leg's route among the last two it
//! booked, and keeps a pair's attempt counter only while a link fault
//! rate is armed. The reference here books every leg as the simulator
//! did before either: a fresh `route_into` per leg, and every pair's
//! counter bumped on every attempt. On every topology, seeded
//! sequences of legs — single legs, rendezvous triples, runs of one
//! pair, loopbacks and resets — must give equal transfers and errors,
//! `NetStats`, link schedules and trace bytes, and with link faults
//! armed equal attempt counters.

use std::cell::Cell;
use std::collections::BTreeMap;

use vpce_faults::{site, FaultInjector, FaultSpec, VpceError};
use vpce_testkit::prelude::*;
use vpce_trace::{EventKind, Lane, Tracer};

use super::{NetConfig, NetSim, Transfer};
use crate::link::LinkRate;
use crate::stats::NetStats;
use crate::topology::Topology;
use crate::Time;

/// The booking before the route store: a route built for every leg,
/// every pair's attempt counter bumped on every attempt.
struct Reference {
    cfg: NetConfig,
    link_busy: Vec<Time>,
    stats: NetStats,
    tracer: Tracer,
    injector: FaultInjector,
    pair_seq: BTreeMap<u64, u64>,
    lane_named: Vec<bool>,
}

impl Reference {
    fn new(cfg: NetConfig, spec: FaultSpec, tracer: Tracer) -> Self {
        if tracer.is_enabled() {
            tracer.register_lane(Lane::Bus, "virtual bus".to_string());
        }
        let n_links = cfg.topology.num_links();
        Reference {
            cfg,
            link_busy: vec![0.0; n_links],
            stats: NetStats::default(),
            tracer,
            injector: FaultInjector::new(spec),
            pair_seq: BTreeMap::new(),
            lane_named: vec![false; n_links],
        }
    }

    fn reset(&mut self) {
        self.link_busy.fill(0.0);
        self.stats = NetStats::default();
        self.pair_seq.clear();
        self.lane_named.fill(false);
    }

    fn try_p2p(&mut self, src: usize, dst: usize, bytes: usize, ready: Time) -> Result<Transfer, VpceError> {
        let n = self.cfg.num_nodes();
        if src == dst {
            self.stats.loopbacks += 1;
            return Ok(Transfer { start: ready, end: ready, hops: 0, waited: 0.0, recovery: 0.0 });
        }
        let mut path = Vec::new();
        self.cfg.topology.route_into(src, dst, &mut path);
        let hops = path.len();
        let head = self.cfg.link.per_hop_s * hops as f64;
        let body = self.cfg.link.transfer_time(bytes);
        let spec = self.injector.spec().clone();
        let pair_key = (src * n + dst) as u64;
        let mut attempt_ready = ready;
        let mut first_start: Option<Time> = None;
        let mut attempt: u32 = 1;
        loop {
            let next = self.pair_seq.entry(pair_key).or_default();
            let seq = *next;
            *next += 1;
            let start = path.iter().map(|&l| self.link_busy[l]).fold(attempt_ready, f64::max);
            let first = *first_start.get_or_insert(start);
            let mut end = start + head + body;
            if self.injector.hits(spec.link_stall, site::LINK_STALL, pair_key, seq) {
                end += spec.stall_s;
                self.stats.link_stalls += 1;
                self.stats.stall_time += spec.stall_s;
            }
            for &l in &path {
                self.link_busy[l] = end;
            }
            self.stats.horizon = self.stats.horizon.max(end);
            if self.tracer.is_enabled() {
                for &l in &path {
                    if !std::mem::replace(&mut self.lane_named[l], true) {
                        self.tracer.register_lane(Lane::Link(l), format!("link {l}"));
                    }
                    let wait = start - attempt_ready;
                    let kind = EventKind::LinkBusy { src, dst, bytes: bytes as u64, wait };
                    self.tracer.push(Lane::Link(l), start, end, kind);
                }
            }
            let corrupt = self.injector.hits(spec.flit_corrupt, site::FLIT_CORRUPT, pair_key, seq);
            let dropped = !corrupt && self.injector.hits(spec.link_drop, site::LINK_DROP, pair_key, seq);
            if !corrupt && !dropped {
                let (waited, recovery) = (first - ready, start - first);
                self.stats.p2p_messages += 1;
                self.stats.p2p_bytes += bytes as u64;
                self.stats.contention_wait += waited;
                self.stats.recovery_time += recovery;
                return Ok(Transfer { start: first, end, hops, waited, recovery });
            }
            let detect = if corrupt {
                self.stats.crc_failures += 1;
                end + self.cfg.link.ack_turnaround(hops)
            } else {
                self.stats.packets_dropped += 1;
                end + self.cfg.link.drop_timeout(hops)
            };
            if attempt >= spec.max_retries.saturating_add(1) {
                return Err(VpceError::LinkFailure { src, dst, attempts: attempt });
            }
            let backoff = self.injector.backoff_delay(attempt);
            self.stats.retransmits += 1;
            self.stats.backoff_time += backoff;
            if self.tracer.is_enabled() {
                let kind = EventKind::Retransmit { src, dst, attempt, bytes: bytes as u64 };
                self.tracer.push(Lane::Link(path[0]), start, detect, kind);
                let kind = EventKind::BackoffWait { src, dst, delay: backoff };
                self.tracer.push(Lane::Link(path[0]), detect, detect + backoff, kind);
            }
            attempt_ready = detect + backoff;
            attempt += 1;
        }
    }
}

/// One step of a generated sequence. Nodes are taken modulo the
/// machine's size; `ready_us` is in microseconds.
#[derive(Debug, Clone)]
enum Step {
    /// One leg.
    Leg { src: usize, dst: usize, bytes: usize, ready_us: u32 },
    /// A rendezvous message: request, clear-to-send and data legs, each
    /// ready when the one before it ends.
    Rendezvous { origin: usize, target: usize, bytes: usize, ready_us: u32 },
    /// `k` legs of one pair, all ready at once (an op's messages).
    Run { src: usize, dst: usize, k: usize, ready_us: u32 },
    /// A new experiment on the same network.
    Reset,
}

fn step() -> Gen<Step> {
    let node = || usize_in(0, 15);
    let leg = zip4(node(), node(), usize_in(0, 1 << 14), u32_in(0, 400))
        .map(|(src, dst, bytes, ready_us)| Step::Leg { src, dst, bytes, ready_us });
    let rdvz = zip4(node(), node(), usize_in(1, 1 << 16), u32_in(0, 400))
        .map(|(origin, target, bytes, ready_us)| Step::Rendezvous { origin, target, bytes, ready_us });
    let run = zip4(node(), node(), usize_in(1, 12), u32_in(0, 400))
        .map(|(src, dst, k, ready_us)| Step::Run { src, dst, k, ready_us });
    weighted(vec![(4, leg), (4, rdvz), (2, run), (1, just(Step::Reset))])
}

/// Steps, then the link faults (`(seed, retry budget)`, or `None` for
/// every other fault plane) and whether a tracer is attached.
type Script = (Vec<Step>, Option<(u64, u32)>, bool);

fn script() -> Gen<Script> {
    let faults = weighted(vec![(1, just(None)), (1, zip2(u64_in(0, 1 << 20), u32_in(0, 3)).map(Some))]);
    zip3(vec_of(step(), 1, 30), faults, bool_any())
}

/// Every topology the simulator routes, at a size that is not its
/// smallest.
fn machines() -> Vec<NetConfig> {
    let topologies = [
        Topology::mesh_for(6),
        Topology::torus_for(9),
        Topology::hypercube_for(8),
        Topology::torus3d_for(12),
        Topology::crossbar_for(5),
        Topology::fattree_for(10),
        Topology::shared_for(4),
    ];
    topologies.into_iter().map(|topology| NetConfig { topology, link: LinkRate::vbus_skwp(), vbus: None }).collect()
}

/// What a sequence of steps drives: the simulator, or the reference.
trait Legs {
    fn leg(&mut self, src: usize, dst: usize, bytes: usize, ready: Time) -> Result<Transfer, VpceError>;
    fn restart(&mut self);
}

impl Legs for Reference {
    fn leg(&mut self, src: usize, dst: usize, bytes: usize, ready: Time) -> Result<Transfer, VpceError> {
        self.try_p2p(src, dst, bytes, ready)
    }

    fn restart(&mut self) {
        self.reset();
    }
}

impl Legs for NetSim {
    fn leg(&mut self, src: usize, dst: usize, bytes: usize, ready: Time) -> Result<Transfer, VpceError> {
        self.try_p2p(src, dst, bytes, ready)
    }

    fn restart(&mut self) {
        self.reset();
    }
}

/// Play `steps` on a machine of `n` nodes; every leg's outcome.
fn play(steps: &[Step], n: usize, net: &mut impl Legs) -> Vec<Result<Transfer, VpceError>> {
    let mut out = Vec::new();
    let mut leg = |net: &mut _, src: usize, dst: usize, bytes, ready| {
        let t = Legs::leg(net, src % n, dst % n, bytes, ready);
        out.push(t.clone());
        t.ok().map(|t| t.end)
    };
    for step in steps {
        match *step {
            Step::Leg { src, dst, bytes, ready_us } => {
                leg(net, src, dst, bytes, f64::from(ready_us) * 1e-6);
            }
            Step::Rendezvous { origin, target, bytes, ready_us } => {
                let _ = leg(net, origin, target, 32, f64::from(ready_us) * 1e-6)
                    .and_then(|at| leg(net, target, origin, 32, at))
                    .and_then(|at| leg(net, origin, target, bytes, at));
            }
            Step::Run { src, dst, k, ready_us } => {
                for i in 0..k {
                    leg(net, src, dst, 64 + 512 * i, f64::from(ready_us) * 1e-6);
                }
            }
            Step::Reset => net.restart(),
        }
    }
    out
}

#[test]
fn legs_through_the_route_store_equal_legs_routed_from_scratch() {
    // Coverage floor: retransmits, exhausted budgets, traced cases,
    // resets.
    let seen = [(); 4].map(|()| Cell::new(0u32));
    let count = |i: usize| seen[i].set(seen[i].get() + 1);
    Check::new("vbus_sim::legs_through_the_route_store_equal_legs_routed_from_scratch").cases(96).run(
        &script(),
        |(steps, faults, traced)| {
            let spec = match *faults {
                Some((seed, max_retries)) => FaultSpec {
                    seed,
                    flit_corrupt: 0.15,
                    link_drop: 0.10,
                    link_stall: 0.10,
                    max_retries,
                    ..FaultSpec::off()
                },
                // Every plane but the links armed: no link draw can hit,
                // so no pair counter is kept.
                None => FaultSpec { flit_corrupt: 0.0, link_drop: 0.0, link_stall: 0.0, ..FaultSpec::heavy() },
            };
            let tracer = || if *traced { Tracer::enabled() } else { Tracer::disabled() };
            for cfg in machines() {
                let n = cfg.num_nodes();
                let mut reference = Reference::new(cfg.clone(), spec.clone(), tracer());
                let want = play(steps, n, &mut reference);
                let mut sim = NetSim::new(cfg.clone());
                sim.set_faults(spec.clone());
                sim.set_tracer(tracer());
                let got = play(steps, n, &mut sim);
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(sim.stats(), &reference.stats);
                prop_assert_eq!(&sim.link_busy, &reference.link_busy);
                prop_assert_eq!(sim.tracer.to_chrome_json(), reference.tracer.to_chrome_json());
                // The draws' counters: equal when armed, not kept when not.
                let counters: BTreeMap<u64, u64> = sim.pair_seq.iter().map(|(&k, &v)| (k, v)).collect();
                let want_counters = if faults.is_some() { reference.pair_seq.clone() } else { BTreeMap::new() };
                prop_assert_eq!(counters, want_counters);
                for r in &sim.routes {
                    if let Some((src, dst)) = r.pair {
                        prop_assert_eq!(&r.links, &cfg.topology.route(src, dst));
                    }
                }
                if reference.stats.retransmits > 0 {
                    count(0);
                }
                if want.iter().any(Result::is_err) {
                    count(1);
                }
                if *traced && reference.stats.p2p_messages > 0 {
                    count(2);
                }
                if steps.iter().any(|s| matches!(s, Step::Reset)) {
                    count(3);
                }
            }
            Ok(())
        },
    );
    let seen = seen.map(Cell::into_inner);
    assert!(seen.iter().all(|&n| n >= 20), "coverage {seen:?}");
}
