//! Lower a compiled SPMD program plus its communication plan into an
//! [`RmaTrace`]: a projection of the one §3 walk
//! ([`spmd_rt::protocol`], where the protocol listing lives) that keeps
//! the synchronisations and one-sided transfers and adds, at the
//! compute step, the backend's per-rank footprints — the local
//! loads/stores that share the collect epoch with incoming PUTs.
//!
//! A planned op is one event, whatever its message count: its
//! footprint is its split descriptor's union
//! ([`lmad::TransferPlan::footprint`]) and the event keeps the
//! descriptor, so the checker walks messages only where an answer
//! needs them (`crate::check`). MM on 16 ranks at N = 160 is 268
//! events, not one per each of its 7 215 wire messages.
//!
//! Master-only sequential sections emit no events: they run strictly
//! between regions (barrier-ordered) with no epoch open, so they can
//! never participate in an RMA conflict. Their interaction with the
//! plan is checked separately by the AVPG staleness pass
//! ([`crate::stale`]).

use polaris_be::{PlanReport, RegionPlanInfo};
use spmd_rt::ir::{ParRegion, SpmdProgram};
use spmd_rt::protocol::{self, Phase, Step};

use crate::trace::{AccessKind, Event, Op, RmaTrace, Site};

/// Build the per-rank event streams for `prog`. `report` supplies the
/// compute-phase footprints (local accesses that share the collect
/// epoch); when a region has no matching report entry the local
/// accesses are simply absent from the trace (communication events
/// are still complete).
pub fn lower(prog: &SpmdProgram, report: &PlanReport) -> RmaTrace {
    let win_names = prog.arrays.iter().map(|(name, _)| name.clone()).collect();
    let mut trace = RmaTrace::new(prog.nprocs, win_names);
    for (serial, _, region) in prog.numbered_regions() {
        let info = report.regions.get(serial as usize);
        for (rank, events) in trace.ranks.iter_mut().enumerate() {
            lower_region(events, region, info, rank);
        }
    }
    trace
}

fn lower_region(
    events: &mut Vec<Event>,
    region: &ParRegion,
    info: Option<&RegionPlanInfo>,
    rank: usize,
) {
    let line = region.line;
    for step in protocol::steps(region, rank) {
        match step {
            Step::Sync(kind) => events.push(Event::Sync(kind)),
            Step::Rma { site, op, target, get } => events.push(Event::Rma(Op {
                win: op.array,
                target,
                kind: if get { AccessKind::Get } else { AccessKind::Put },
                region: op.descriptor.footprint(),
                messages: Some(op.descriptor.clone()),
                line,
                site: if site == Phase::Scatter { Site::Scatter } else { Site::Collect },
            })),
            // Every rank's local loads/stores hit its own shard while
            // the collect epoch is open (the interpreter holds the
            // window locks). These can collide with incoming collect
            // PUTs on the master's shard.
            Step::Compute => {
                let Some(info) = info else { continue };
                for (accesses, kind) in [
                    (&info.rank_writes, AccessKind::LocalWrite),
                    (&info.rank_reads, AccessKind::LocalRead),
                ] {
                    for (win, lm) in accesses.get(rank).into_iter().flatten() {
                        events.push(Event::Rma(Op {
                            win: *win,
                            target: rank,
                            kind,
                            region: lm.clone(),
                            messages: None,
                            line,
                            site: Site::Compute,
                        }));
                    }
                }
            }
            // A crashed rank is a liveness matter (commcheck's); the
            // lock/accumulate critical sections are passive-target
            // epochs serialised by the exclusive lock — not traced.
            Step::CrashPoint
            | Step::LockSeed
            | Step::LockAccumulate
            | Step::LockCombine
            | Step::End(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SyncKind;
    use lmad::Lmad;
    use spmd_rt::ir::Block;

    fn program(blocks: Vec<Block>) -> SpmdProgram {
        SpmdProgram {
            name: "t".into(),
            nprocs: 2,
            arrays: vec![("A".into(), 16)],
            scalars: Vec::new(),
            blocks,
            sequential: Default::default(),
        }
    }

    #[test]
    fn compute_footprints_land_in_collect_epoch() {
        let prog = program(vec![Block::Parallel(ParRegion::blank(2, 7))]);
        let mut report = PlanReport::default();
        report.regions.push(RegionPlanInfo {
            rank_writes: vec![
                vec![(0, Lmad::contiguous(0, 8))],
                vec![(0, Lmad::contiguous(8, 8))],
            ],
            rank_reads: vec![Vec::new(), Vec::new()],
            ..Default::default()
        });
        let trace = lower(&prog, &report);
        // Master: barrier, fence, LocalWrite, fence, barrier — the
        // local write sits strictly between the two fences.
        let m = &trace.ranks[0];
        assert!(matches!(&m[1], Event::Sync(SyncKind::Fence)));
        assert!(matches!(
            &m[2],
            Event::Rma(Op { kind: AccessKind::LocalWrite, target: 0, site: Site::Compute, .. })
        ));
        assert!(matches!(&m[3], Event::Sync(SyncKind::Fence)));
    }

    #[test]
    fn master_seq_blocks_emit_nothing() {
        let prog = program(vec![Block::MasterSeq(Default::default())]);
        let trace = lower(&prog, &PlanReport::default());
        assert!(trace.ranks.iter().all(Vec::is_empty));
    }
}
