//! Critical-path analysis.
//!
//! Walks the event dependency graph *backwards* from the run's end:
//! start at the rank whose final clock equals the elapsed time, find
//! the call span it was in, and — when that span was blocking — jump
//! along its [`Dominator`](crate::Dominator) edge to the remote event that determined
//! its exit (the origin of the latest transfer a fence drained, the
//! slowest entrant of a barrier, the root of a broadcast, the sender
//! of a receive). Every step classifies the interval it walked over:
//!
//! * **compute** — gaps between call spans (partitioned loop work,
//!   serial sections, `SPMD_OVERHEAD` bookkeeping);
//! * **setup** — non-blocking call spans (host-side queue hops, DMA
//!   descriptor programming, PIO element copies) and the
//!   post-transfer tail of blocking spans;
//! * **occupancy** — the wire interval of the dominating transfer
//!   (the network was genuinely busy; adding NICs wouldn't help,
//!   faster links would);
//! * **wait** — the rest of a blocking span: pure dependency stall
//!   (the remote side hadn't produced the data yet).
//!
//! The walk *tiles* `[0, elapsed]`: each step consumes the suffix of
//! the remaining interval, so the four component sums add up to the
//! run's elapsed time exactly (modulo floating-point summation) — the
//! invariant the golden test asserts. Termination: every step strictly
//! lowers the cursor, and a step cap guards against degenerate input.

use crate::event::{CallInfo, Event, EventKind, Lane};
use std::fmt::Write as _;

/// Which bucket a critical-path segment's time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeClass {
    Compute,
    Setup,
    Occupancy,
    Wait,
    /// Time the dominating transfer spent recovering from injected
    /// faults: failed attempts, ack/timeout turnarounds, backoff.
    /// Never appears when fault injection is off.
    Recovery,
    /// Time the job sat in a scheduler queue before its partition was
    /// allocated. Never produced by the walk itself (a single run
    /// starts at t = 0 by construction); a batch scheduler charges it
    /// via [`Breakdown::with_queue_wait`] so a job's turnaround tiles
    /// into queue + run components exactly like a run tiles into the
    /// other five.
    Queue,
}

impl TimeClass {
    pub fn name(self) -> &'static str {
        match self {
            TimeClass::Compute => "compute",
            TimeClass::Setup => "setup",
            TimeClass::Occupancy => "occupancy",
            TimeClass::Wait => "wait",
            TimeClass::Recovery => "recovery",
            TimeClass::Queue => "queue",
        }
    }
}

/// One tile of the critical path: `[t0, t1]` spent on `rank`, charged
/// to `class`, caused by `what`.
#[derive(Debug, Clone, PartialEq)]
pub struct CritSegment {
    pub rank: usize,
    pub t0: f64,
    pub t1: f64,
    pub class: TimeClass,
    pub what: String,
}

impl CritSegment {
    pub fn dur(&self) -> f64 {
        self.t1 - self.t0
    }
}

/// End-to-end time attribution. The four components tile the run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Breakdown {
    pub compute: f64,
    pub setup: f64,
    pub occupancy: f64,
    pub wait: f64,
    /// Fault-recovery time on the critical path (0 without injection).
    pub recovery: f64,
    /// Scheduler queue wait preceding the run (0 outside batch mode).
    pub queue: f64,
}

impl Breakdown {
    pub fn total(&self) -> f64 {
        self.compute + self.setup + self.occupancy + self.wait + self.recovery + self.queue
    }

    /// This breakdown with `queue` seconds of scheduler wait charged
    /// in front of it — the batch scheduler's view of a job: the
    /// components then tile `[0, queue + elapsed]` (turnaround).
    pub fn with_queue_wait(mut self, queue: f64) -> Self {
        self.queue += queue;
        self
    }

    /// This breakdown with `recovery` seconds of rollback-recovery
    /// work charged on top — checkpoint replication, quiesce, respawn
    /// and replay time attributed by the recovery ledger. The
    /// components then tile `[0, elapsed + recovery]` exactly, the
    /// same contract as [`Breakdown::with_queue_wait`].
    pub fn with_recovery(mut self, recovery: f64) -> Self {
        self.recovery += recovery;
        self
    }

    fn charge(&mut self, class: TimeClass, dur: f64) {
        match class {
            TimeClass::Compute => self.compute += dur,
            TimeClass::Setup => self.setup += dur,
            TimeClass::Occupancy => self.occupancy += dur,
            TimeClass::Wait => self.wait += dur,
            TimeClass::Recovery => self.recovery += dur,
            TimeClass::Queue => self.queue += dur,
        }
    }
}

/// The result of one critical-path walk.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Run end-to-end time (max final rank clock).
    pub elapsed: f64,
    /// The rank the walk started from (the one that finished last).
    pub end_rank: usize,
    /// Path tiles in walk order (latest first).
    pub segments: Vec<CritSegment>,
    pub breakdown: Breakdown,
}

const TINY: f64 = 1e-15;

struct Walk {
    segments: Vec<CritSegment>,
    breakdown: Breakdown,
}

impl Walk {
    fn tile(&mut self, rank: usize, t0: f64, t1: f64, class: TimeClass, what: &str) {
        if t1 - t0 <= TINY {
            return;
        }
        self.breakdown.charge(class, t1 - t0);
        self.segments.push(CritSegment {
            rank,
            t0,
            t1,
            class,
            what: what.to_string(),
        });
    }
}

/// Charge the part of a blocking span between the dominating event and
/// the cursor. Layout (latest to earliest): post-transfer tail →
/// wire occupancy → fault recovery → dependency wait. The recovery
/// carve-out is the leading `recovery_s` seconds of the (clamped) wire
/// interval — the failed attempts and backoffs that preceded the
/// successful transmission; with injection off it is empty and the
/// layout is exactly the pre-fault one.
fn tile_blocking(walk: &mut Walk, rank: usize, info: &CallInfo, lo: f64, t: f64, what: &str) {
    match info.net {
        Some((n0, n1)) => {
            let n1 = n1.clamp(lo, t);
            let n0 = n0.clamp(lo, n1);
            let r1 = (n0 + info.recovery_s).clamp(n0, n1);
            walk.tile(rank, n1, t, TimeClass::Setup, what);
            walk.tile(rank, r1, n1, TimeClass::Occupancy, what);
            walk.tile(rank, n0, r1, TimeClass::Recovery, what);
            walk.tile(rank, lo, n0, TimeClass::Wait, what);
        }
        None => walk.tile(rank, lo, t, TimeClass::Wait, what),
    }
}

/// Walk the critical path of a finished run. `clocks` are the final
/// per-rank virtual clocks; the trace's call spans supply the
/// dependency edges.
pub fn critical_path(events: &[Event], clocks: &[f64]) -> CriticalPath {
    let n = clocks.len();
    // Call spans per rank, in emission (= program, = time) order.
    let mut spans: Vec<Vec<(f64, f64, &CallInfo)>> = vec![Vec::new(); n];
    for ev in events {
        if let (Lane::Rank(r), EventKind::Call(info)) = (ev.lane, &ev.kind) {
            if r < n && ev.t1 - ev.t0 > TINY {
                spans[r].push((ev.t0, ev.t1, info));
            }
        }
    }

    let mut elapsed = 0.0f64;
    let mut rank = 0usize;
    for (r, c) in clocks.iter().enumerate() {
        if *c > elapsed {
            elapsed = *c;
            rank = r;
        }
    }
    let end_rank = rank;

    let mut walk = Walk {
        segments: Vec::new(),
        breakdown: Breakdown::default(),
    };
    let mut t = elapsed;
    // Each step strictly lowers `t`; the cap only matters for
    // malformed traces (overlapping spans, dominator cycles).
    let cap = 4 * events.len() + 16;
    for _ in 0..cap {
        if t <= TINY {
            break;
        }
        // The latest span on this rank starting before the cursor.
        let Some(&(s0, s1, info)) = spans[rank].iter().rev().find(|(s0, _, _)| *s0 < t) else {
            // Nothing earlier: leading compute/serial section.
            walk.tile(rank, 0.0, t, TimeClass::Compute, "serial");
            t = 0.0;
            break;
        };
        if s1 < t {
            // Gap between the span's end and the cursor: local work.
            walk.tile(rank, s1, t, TimeClass::Compute, "compute");
            t = s1;
            continue;
        }
        // Cursor is inside (s0, s1]. Consume (part of) the span.
        let what = info.op.name();
        match info.dom {
            Some(dom) if info.op.is_blocking() && dom.t < t - TINY => {
                // Charge [dom.t, cursor] here, then hop to the rank
                // whose event determined this span's exit and keep
                // walking backwards from the dominating time.
                let lo = dom.t.max(0.0);
                tile_blocking(&mut walk, rank, info, lo, t, what);
                rank = dom.rank.min(n.saturating_sub(1));
                t = lo;
            }
            _ => {
                // Non-blocking host work, or a blocking span with no
                // (usable) remote dependency: charge it locally and
                // continue on the same rank.
                let class = if info.op.is_blocking() {
                    TimeClass::Wait
                } else {
                    TimeClass::Setup
                };
                walk.tile(rank, s0, t, class, what);
                t = s0;
            }
        }
    }
    if t > TINY {
        // Cap hit — account the remainder so the invariant holds.
        walk.tile(rank, 0.0, t, TimeClass::Compute, "unattributed");
    }

    CriticalPath {
        elapsed,
        end_rank,
        segments: walk.segments,
        breakdown: walk.breakdown,
    }
}

fn pct(part: f64, total: f64) -> f64 {
    if total > 0.0 {
        100.0 * part / total
    } else {
        0.0
    }
}

impl CriticalPath {
    /// Human-readable attribution (part of `--trace-summary`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let b = &self.breakdown;
        let _ = writeln!(
            out,
            "critical path: {:.1} us end-to-end (finishes on rank {}, {} segments)",
            self.elapsed * 1e6,
            self.end_rank,
            self.segments.len()
        );
        for (name, v) in [
            ("compute", b.compute),
            ("setup", b.setup),
            ("occupancy", b.occupancy),
            ("wait", b.wait),
        ] {
            let _ = writeln!(
                out,
                "  {:<10} {:>12.1} us  {:>5.1}%",
                name,
                v * 1e6,
                pct(v, self.elapsed)
            );
        }
        // Only faulted runs have a recovery component, and only batch
        // jobs a queue component; keeping the lines out otherwise
        // preserves the plain summary byte-for-byte.
        if b.recovery > 0.0 {
            let _ = writeln!(
                out,
                "  {:<10} {:>12.1} us  {:>5.1}%",
                "recovery",
                b.recovery * 1e6,
                pct(b.recovery, self.elapsed)
            );
        }
        if b.queue > 0.0 {
            let _ = writeln!(
                out,
                "  {:<10} {:>12.1} us  {:>5.1}%",
                "queue",
                b.queue * 1e6,
                pct(b.queue, self.elapsed)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CallOp, Dominator};

    fn call_ev(r: usize, op: CallOp, t0: f64, t1: f64, dom: Option<Dominator>, net: Option<(f64, f64)>) -> Event {
        let mut info = CallInfo::new(op);
        info.dom = dom;
        info.net = net;
        Event {
            lane: Lane::Rank(r),
            seq: 0,
            t0,
            t1,
            kind: EventKind::Call(info),
        }
    }

    #[test]
    fn pure_compute_run() {
        let cp = critical_path(&[], &[3.0, 5.0]);
        assert_eq!(cp.end_rank, 1);
        assert!((cp.breakdown.compute - 5.0).abs() < 1e-12);
        assert!((cp.breakdown.total() - cp.elapsed).abs() < 1e-12);
    }

    #[test]
    fn fence_hop_attributes_wire_and_wait() {
        // Rank 1: compute to 1.0, issues put (setup) 1.0..1.2.
        // Rank 0: fence 0.5..3.0 dominated by rank 1's put at 1.0;
        //         wire 1.2..2.8, post 2.8..3.0.
        let events = vec![
            call_ev(1, CallOp::Put, 1.0, 1.2, None, None),
            call_ev(
                0,
                CallOp::Fence,
                0.5,
                3.0,
                Some(Dominator { rank: 1, t: 1.0 }),
                Some((1.2, 2.8)),
            ),
        ];
        let cp = critical_path(&events, &[3.0, 1.2]);
        assert_eq!(cp.end_rank, 0);
        // Tail 2.8..3.0 = setup, wire 1.2..2.8 = occupancy, 1.0..1.2
        // = wait; hop to rank 1 at t=1.0: its put span 1.0..1.2 starts
        // at the cursor, so next is the gap/leading compute 0..1.0.
        assert!((cp.breakdown.occupancy - 1.6).abs() < 1e-12);
        assert!((cp.breakdown.wait - 0.2).abs() < 1e-12);
        assert!((cp.breakdown.compute - 1.0).abs() < 1e-12);
        assert!((cp.breakdown.setup - 0.2).abs() < 1e-12);
        assert!((cp.breakdown.total() - cp.elapsed).abs() < 1e-12);
    }

    #[test]
    fn barrier_hops_to_slowest_rank() {
        let events = vec![
            call_ev(
                0,
                CallOp::Barrier,
                1.0,
                4.1,
                Some(Dominator { rank: 1, t: 4.0 }),
                None,
            ),
        ];
        let cp = critical_path(&events, &[4.1, 4.05]);
        // 4.0..4.1 wait on rank 0, then rank 1 computes 0..4.0.
        assert!((cp.breakdown.wait - 0.1).abs() < 1e-12);
        assert!((cp.breakdown.compute - 4.0).abs() < 1e-12);
        assert!((cp.breakdown.total() - cp.elapsed).abs() < 1e-12);
    }

    #[test]
    fn components_always_tile_elapsed() {
        // A chain with nested dominators and gaps.
        let events = vec![
            call_ev(0, CallOp::Put, 0.5, 0.7, None, None),
            call_ev(
                1,
                CallOp::Fence,
                0.2,
                2.0,
                Some(Dominator { rank: 0, t: 0.5 }),
                Some((0.7, 1.8)),
            ),
            call_ev(
                2,
                CallOp::Barrier,
                1.0,
                2.5,
                Some(Dominator { rank: 1, t: 2.0 }),
                None,
            ),
        ];
        let cp = critical_path(&events, &[0.7, 2.0, 2.5]);
        assert!((cp.breakdown.total() - cp.elapsed).abs() < 1e-9);
        // Segments are disjoint and abut when sorted by time.
        let mut segs = cp.segments.clone();
        segs.sort_by(|a, b| a.t0.partial_cmp(&b.t0).unwrap());
        for w in segs.windows(2) {
            assert!(w[0].t1 <= w[1].t0 + 1e-12);
        }
    }

    #[test]
    fn recovery_carves_out_of_occupancy_and_still_tiles() {
        // Same shape as fence_hop_attributes_wire_and_wait, but the
        // dominating transfer spent its first 0.6 s recovering from
        // retransmits: that slice moves from occupancy to recovery and
        // the total still tiles elapsed exactly.
        let mut info = CallInfo::new(CallOp::Fence);
        info.dom = Some(Dominator { rank: 1, t: 1.0 });
        info.net = Some((1.2, 2.8));
        info.recovery_s = 0.6;
        let events = vec![
            call_ev(1, CallOp::Put, 1.0, 1.2, None, None),
            Event {
                lane: Lane::Rank(0),
                seq: 0,
                t0: 0.5,
                t1: 3.0,
                kind: EventKind::Call(info),
            },
        ];
        let cp = critical_path(&events, &[3.0, 1.2]);
        assert!((cp.breakdown.recovery - 0.6).abs() < 1e-12);
        assert!((cp.breakdown.occupancy - 1.0).abs() < 1e-12);
        assert!((cp.breakdown.total() - cp.elapsed).abs() < 1e-12);
        assert!(cp.render().contains("recovery"));
        // Without recovery, the render has no recovery line.
        let plain = critical_path(
            &[call_ev(0, CallOp::Put, 0.0, 1.0, None, None)],
            &[1.0],
        );
        assert!(!plain.render().contains("recovery"));
    }

    #[test]
    fn recovery_charge_extends_the_tiling_like_queue_wait() {
        // A run that computed for 1 s and then spent 0.125 s in
        // rollback recovery: the charged breakdown tiles the extended
        // interval and the render grows a recovery line.
        let cp = critical_path(&[], &[1.0]);
        let charged = cp.breakdown.with_recovery(0.125);
        assert!((charged.recovery - 0.125).abs() < 1e-12);
        assert!((charged.total() - (cp.elapsed + 0.125)).abs() < 1e-12);
        let mut with_rec = cp.clone();
        with_rec.breakdown = charged;
        assert!(with_rec.render().contains("recovery"));
        assert!(!cp.render().contains("recovery"));
    }

    #[test]
    fn queue_wait_extends_the_tiling_to_turnaround() {
        // A batch job that computed for 1 s after waiting 0.25 s in
        // the queue: the queued breakdown tiles [0, turnaround].
        let cp = critical_path(&[], &[1.0]);
        let queued = cp.breakdown.with_queue_wait(0.25);
        assert!((queued.queue - 0.25).abs() < 1e-12);
        assert!((queued.total() - (cp.elapsed + 0.25)).abs() < 1e-12);
        // The render shows a queue line iff the component is nonzero.
        let mut with_queue = cp.clone();
        with_queue.breakdown = queued;
        assert!(with_queue.render().contains("queue"));
        assert!(!cp.render().contains("queue"));
    }

    #[test]
    fn degenerate_dominator_does_not_loop() {
        // Dominator at (or after) the cursor must not recurse forever.
        let events = vec![call_ev(
            0,
            CallOp::Fence,
            0.0,
            1.0,
            Some(Dominator { rank: 0, t: 1.0 }),
            None,
        )];
        let cp = critical_path(&events, &[1.0]);
        assert!((cp.breakdown.total() - cp.elapsed).abs() < 1e-12);
    }
}
