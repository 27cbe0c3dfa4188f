//! # vpce-trace — structured event tracing for the simulated stack
//!
//! The evaluation of the CLUSTER'01 paper lives and dies by *where
//! virtual time goes*: DMA setup vs. programmed I/O, link occupancy
//! vs. fence waits, broadcast freezes vs. compute. End-of-run
//! aggregates (`mpi2::RankStats`, `vbus_sim::NetStats`) say *how
//! much*; this crate records *when and why* — a stream of typed events
//! with per-rank virtual timestamps that every execution-path crate
//! emits into:
//!
//! * `vbus-sim` — per-link wormhole occupancy, blocking waits,
//!   virtual-bus construction and the p2p freeze/thaw;
//! * `mpi2` — call spans for PUT/GET/fence/barrier/collectives with
//!   DMA/PIO setup breakdowns, epoch open/close markers, and the
//!   *dominator* edges (which remote event a blocking call's exit was
//!   waiting on);
//! * `spmd-rt` — phase spans (scatter/compute/reduce/collect, serial
//!   sections) per parallel region.
//!
//! On top of the stream sit three consumers:
//!
//! * `chrome::to_chrome_json` — a Chrome trace-event exporter (one
//!   lane per rank plus per-link lanes; load the file in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev));
//! * `summary::rollup` — per-phase metric rollups (bytes moved DMA
//!   vs. PIO, setup counts, fence-wait per rank);
//! * [`critical::critical_path`] — a backwards walk over the event
//!   dependency graph (message completions, fence joins, collective
//!   rendezvous) attributing end-to-end time to
//!   compute / setup / network occupancy / wait. The four components
//!   tile `[0, elapsed]` exactly, so a Table-2 row can be *explained*,
//!   not just timed.
//!
//! ## Cost when disabled
//!
//! A [`Tracer`] is either live (an `Arc<Mutex<_>>` buffer) or
//! disabled (`None`). The disabled tracer is the [`Default`]; every
//! emission site checks [`Tracer::is_enabled`] (one branch on an
//! `Option`) before formatting anything, so the instrumented stack
//! runs at its old speed when nobody is tracing — mirroring how
//! `mpi2::conflict` hangs off the universe.
//!
//! ## Determinism
//!
//! Events carry a per-lane sequence number assigned at emission.
//! Per-rank events are emitted by that rank's thread in program
//! order; link/bus events are emitted inside collective leader
//! closures, which the rendezvous serialises. Sorting by
//! `(lane, seq)` therefore yields the same byte stream on every run
//! of the same program — the property the golden-trace tests pin.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

mod chrome;
pub mod critical;
mod event;
mod summary;

pub use critical::{Breakdown, CritSegment, CriticalPath, TimeClass};
pub use event::{CallInfo, CallOp, DataPath, Dominator, Event, EventKind, Lane, SetupParts};
pub use summary::{PhaseRollup, TraceSummary};

#[derive(Debug, Default)]
struct TraceLog {
    events: Vec<Event>,
    labels: BTreeMap<Lane, String>,
    next_seq: HashMap<Lane, u64>,
}

/// Handle to a trace buffer — or to nothing at all.
///
/// Cloning is cheap (an `Arc` bump / a no-op); every layer of the
/// stack holds its own clone of the same buffer.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<TraceLog>>>,
}

impl Tracer {
    /// A tracer that records into a fresh buffer.
    pub fn enabled() -> Self {
        Tracer {
            inner: Some(Arc::new(Mutex::new(TraceLog::default()))),
        }
    }

    /// The no-op tracer (same as [`Default`]).
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// Is anything listening? Emission sites gate all argument
    /// construction on this.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one event. No-op when disabled.
    pub fn push(&self, lane: Lane, t0: f64, t1: f64, kind: EventKind) {
        let Some(log) = &self.inner else { return };
        let mut log = log.lock().expect("trace log poisoned");
        let seq = log.next_seq.entry(lane).or_insert(0);
        let seq_now = *seq;
        *seq += 1;
        log.events.push(Event {
            lane,
            seq: seq_now,
            t0,
            t1,
            kind,
        });
    }

    /// Attach a human-readable label to a lane (exported as Chrome
    /// thread names). No-op when disabled.
    pub fn register_lane(&self, lane: Lane, label: String) {
        let Some(log) = &self.inner else { return };
        log.lock().expect("trace log poisoned").labels.insert(lane, label);
    }

    /// `f` over all events, sorted by `(lane, seq)` — the
    /// deterministic export order. The buffer is sorted in place under
    /// its lock and lent to `f`, never copied.
    pub fn with_events<T>(&self, f: impl FnOnce(&[Event]) -> T) -> T {
        let Some(log) = &self.inner else {
            return f(&[]);
        };
        let mut log = log.lock().expect("trace log poisoned");
        log.events.sort_by_key(|a| (a.lane, a.seq));
        f(&log.events)
    }

    /// Copy of all events, in [`Tracer::with_events`] order.
    pub fn events(&self) -> Vec<Event> {
        self.with_events(<[Event]>::to_vec)
    }

    /// Registered lane labels, in lane order.
    pub fn lanes(&self) -> Vec<(Lane, String)> {
        let Some(log) = &self.inner else {
            return Vec::new();
        };
        let log = log.lock().expect("trace log poisoned");
        log.labels.iter().map(|(l, s)| (*l, s.clone())).collect()
    }

    /// Export the whole buffer as Chrome trace-event JSON.
    pub fn to_chrome_json(&self) -> String {
        let lanes = self.lanes();
        self.with_events(|events| chrome::to_chrome_json(events, &lanes))
    }
}

/// Everything the analyses derive from one traced run: rollups plus
/// the critical-path attribution. Built once the run's final per-rank
/// clocks are known.
#[derive(Debug, Clone)]
pub struct TraceReport {
    pub summary: TraceSummary,
    pub critical: CriticalPath,
}

impl TraceReport {
    /// Analyze a finished run: `clocks` are the final virtual clocks
    /// of every rank (`RunOutcome::clocks`).
    pub fn build(tracer: &Tracer, clocks: &[f64]) -> TraceReport {
        tracer.with_events(|events| TraceReport {
            summary: summary::rollup(events, clocks.len()),
            critical: critical::critical_path(events, clocks),
        })
    }

    /// Human-readable rendering (the `--trace-summary` text).
    pub fn render(&self) -> String {
        let mut out = self.summary.render();
        out.push_str(&self.critical.render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.push(Lane::Rank(0), 0.0, 1.0, EventKind::Phase { name: "x".into() });
        t.register_lane(Lane::Rank(0), "rank 0".into());
        assert!(t.events().is_empty());
        assert!(t.lanes().is_empty());
    }

    #[test]
    fn events_sorted_by_lane_then_seq() {
        let t = Tracer::enabled();
        t.push(Lane::Bus, 5.0, 5.0, EventKind::EpochClose { ops: 1 });
        t.push(Lane::Rank(1), 0.0, 1.0, EventKind::Phase { name: "a".into() });
        t.push(Lane::Rank(0), 2.0, 3.0, EventKind::Phase { name: "b".into() });
        t.push(Lane::Rank(0), 0.0, 1.0, EventKind::Phase { name: "c".into() });
        let ev = t.events();
        let lanes: Vec<Lane> = ev.iter().map(|e| e.lane).collect();
        assert_eq!(
            lanes,
            vec![Lane::Rank(0), Lane::Rank(0), Lane::Rank(1), Lane::Bus]
        );
        // Within a lane, emission order wins (not timestamps).
        assert_eq!(ev[0].kind.name(), "b");
        assert_eq!(ev[1].kind.name(), "c");
    }

    #[test]
    fn per_lane_seq_is_independent() {
        let t = Tracer::enabled();
        t.push(Lane::Rank(0), 0.0, 1.0, EventKind::Phase { name: "a".into() });
        t.push(Lane::Rank(1), 0.0, 1.0, EventKind::Phase { name: "b".into() });
        t.push(Lane::Rank(0), 1.0, 2.0, EventKind::Phase { name: "c".into() });
        let ev = t.events();
        assert_eq!(ev[0].seq, 0);
        assert_eq!(ev[1].seq, 1);
        assert_eq!(ev[2].seq, 0); // rank 1's own counter
    }

    #[test]
    fn clones_share_the_buffer() {
        let t = Tracer::enabled();
        let c = t.clone();
        c.push(Lane::Rank(0), 0.0, 0.0, EventKind::EpochClose { ops: 0 });
        assert_eq!(t.events().len(), 1);
    }
}
