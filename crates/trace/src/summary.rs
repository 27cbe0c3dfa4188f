//! Per-phase metric rollups.
//!
//! `spmd-rt` brackets each stage of a parallel region (scatter,
//! compute, reduce, collect, serial sections) with
//! [`EventKind::Phase`] spans on every rank lane. This module folds
//! the MPI call spans back into their enclosing phases, answering the
//! questions the paper's tables raise: how many bytes moved over the
//! DMA path vs. the programmed-I/O path in *this* phase, how many
//! descriptor setups were paid, and how long each rank sat in
//! fences/barriers.

use crate::event::{DataPath, Event, EventKind, Lane};
use std::fmt::Write as _;

/// Aggregated metrics for one phase name (summed over every rank and
/// every repetition of the phase).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseRollup {
    pub name: String,
    /// Total MPI call spans folded into this phase.
    pub calls: u64,
    /// Payload bytes moved by contiguous (DMA-path) transfers.
    pub bytes_dma: u64,
    /// Payload bytes moved by strided (PIO-path) transfers.
    pub bytes_pio: u64,
    /// Transfers that programmed a DMA descriptor.
    pub dma_setups: u64,
    /// Transfers that fell back to element-wise programmed I/O.
    pub pio_transfers: u64,
    /// Host-side setup seconds (queue hops + descriptor programming +
    /// element copies) summed over all calls in the phase.
    pub setup_s: f64,
    /// Seconds spent inside blocking calls (fences, barriers,
    /// collectives, receives) in this phase, summed over ranks.
    pub blocked_s: f64,
}

/// The rollup of one traced run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Per-phase aggregates, in first-appearance order; calls emitted
    /// outside any phase span land in a `"-"` bucket.
    pub phases: Vec<PhaseRollup>,
    /// Seconds each rank spent inside fence/barrier spans.
    pub fence_wait: Vec<f64>,
    /// Total events in the trace (all lanes).
    pub events: usize,
}

fn enclosing_phase(phases: &[(String, f64, f64)], t: f64) -> Option<&str> {
    // Innermost = the latest-starting phase whose span contains t.
    phases
        .iter()
        .filter(|(_, p0, p1)| *p0 <= t && t <= *p1)
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("phase times are finite"))
        .map(|(name, _, _)| name.as_str())
}

/// Fold the sorted event stream into per-phase aggregates.
pub(crate) fn rollup(events: &[Event], n_ranks: usize) -> TraceSummary {
    let mut summary = TraceSummary {
        fence_wait: vec![0.0; n_ranks],
        events: events.len(),
        ..TraceSummary::default()
    };
    // Phase spans per rank, in emission (program) order.
    let mut phase_spans: Vec<Vec<(String, f64, f64)>> = vec![Vec::new(); n_ranks];
    for ev in events {
        if let (Lane::Rank(r), EventKind::Phase { name }) = (ev.lane, &ev.kind) {
            if r < n_ranks {
                phase_spans[r].push((name.clone(), ev.t0, ev.t1));
            }
        }
    }

    let find_or_insert = |phases: &mut Vec<PhaseRollup>, name: &str| -> usize {
        match phases.iter().position(|p| p.name == name) {
            Some(i) => i,
            None => {
                phases.push(PhaseRollup {
                    name: name.to_string(),
                    ..PhaseRollup::default()
                });
                phases.len() - 1
            }
        }
    };

    // Every phase that appeared gets a row, even when no MPI call fell
    // inside it (pure-compute phases are part of the story too).
    for spans in &phase_spans {
        for (name, _, _) in spans {
            find_or_insert(&mut summary.phases, name);
        }
    }

    for ev in events {
        let (Lane::Rank(r), EventKind::Call(c)) = (ev.lane, &ev.kind) else {
            continue;
        };
        if r >= n_ranks {
            continue;
        }
        let name = enclosing_phase(&phase_spans[r], ev.t0).unwrap_or("-");
        let i = find_or_insert(&mut summary.phases, name);
        let p = &mut summary.phases[i];
        p.calls += 1;
        match c.path {
            DataPath::Dma => {
                p.bytes_dma += c.bytes;
                p.dma_setups += 1;
            }
            DataPath::Pio => {
                p.bytes_pio += c.bytes;
                p.pio_transfers += 1;
            }
            DataPath::None => {}
        }
        if let Some(parts) = &c.parts {
            p.setup_s += parts.queue_s + parts.dma_s + parts.pio_s + parts.copy_s;
        }
        if c.op.is_blocking() {
            p.blocked_s += ev.dur();
            if matches!(c.op, crate::event::CallOp::Fence | crate::event::CallOp::Barrier) {
                summary.fence_wait[r] += ev.dur();
            }
        }
    }
    summary
}

fn fmt_us(s: f64) -> String {
    format!("{:.1}", s * 1e6)
}

impl TraceSummary {
    /// Human-readable phase table (part of `--trace-summary`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace summary ({} events)", self.events);
        let _ = writeln!(
            out,
            "  {:<12} {:>6} {:>12} {:>12} {:>6} {:>6} {:>12} {:>12}",
            "phase", "calls", "dma-bytes", "pio-bytes", "dma#", "pio#", "setup-us", "blocked-us"
        );
        for p in &self.phases {
            let _ = writeln!(
                out,
                "  {:<12} {:>6} {:>12} {:>12} {:>6} {:>6} {:>12} {:>12}",
                p.name,
                p.calls,
                p.bytes_dma,
                p.bytes_pio,
                p.dma_setups,
                p.pio_transfers,
                fmt_us(p.setup_s),
                fmt_us(p.blocked_s)
            );
        }
        let _ = writeln!(
            out,
            "  fence/barrier wait per rank (us): [{}]",
            self.fence_wait
                .iter()
                .map(|w| fmt_us(*w))
                .collect::<Vec<_>>()
                .join(", ")
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CallInfo, CallOp, SetupParts};

    fn phase(r: usize, name: &str, t0: f64, t1: f64) -> Event {
        Event {
            lane: Lane::Rank(r),
            seq: 0,
            t0,
            t1,
            kind: EventKind::Phase {
                name: name.to_string(),
            },
        }
    }

    fn call(r: usize, op: CallOp, path: DataPath, bytes: u64, t0: f64, t1: f64) -> Event {
        let mut info = CallInfo::new(op);
        info.bytes = bytes;
        info.path = path;
        Event {
            lane: Lane::Rank(r),
            seq: 0,
            t0,
            t1,
            kind: EventKind::Call(info),
        }
    }

    #[test]
    fn calls_fold_into_enclosing_phase() {
        let events = vec![
            phase(0, "scatter", 0.0, 10.0),
            phase(0, "compute", 10.0, 20.0),
            call(0, CallOp::Put, DataPath::Dma, 512, 1.0, 2.0),
            call(0, CallOp::Get, DataPath::Pio, 64, 11.0, 12.0),
            call(0, CallOp::Fence, DataPath::None, 0, 12.0, 15.0),
        ];
        let s = rollup(&events, 1);
        assert_eq!(s.phases.len(), 2);
        let scatter = &s.phases[0];
        assert_eq!(scatter.name, "scatter");
        assert_eq!(scatter.bytes_dma, 512);
        assert_eq!(scatter.dma_setups, 1);
        let compute = &s.phases[1];
        assert_eq!(compute.bytes_pio, 64);
        assert_eq!(compute.pio_transfers, 1);
        assert!((compute.blocked_s - 3.0).abs() < 1e-12);
        assert!((s.fence_wait[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn orphan_calls_land_in_dash_bucket() {
        let events = vec![call(0, CallOp::WinCreate, DataPath::None, 0, 0.0, 1.0)];
        let s = rollup(&events, 1);
        assert_eq!(s.phases[0].name, "-");
        assert_eq!(s.phases[0].calls, 1);
    }

    #[test]
    fn setup_parts_are_summed() {
        let mut info = CallInfo::new(CallOp::Put);
        info.parts = Some(SetupParts {
            queue_s: 1.0,
            dma_s: 2.0,
            pio_s: 3.0,
            copy_s: 0.5,
            chunks: 1,
        });
        let events = vec![Event {
            lane: Lane::Rank(0),
            seq: 0,
            t0: 0.0,
            t1: 0.5,
            kind: EventKind::Call(info),
        }];
        let s = rollup(&events, 1);
        assert!((s.phases[0].setup_s - 6.5).abs() < 1e-12);
    }
}
