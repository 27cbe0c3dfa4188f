//! The §3 region protocol, written once.
//!
//! Every parallel region runs the paper's master/slave protocol. Seen
//! from one rank, in program order:
//!
//! ```text
//! crash point                              (rank-level fault draw)
//! barrier                                  (slaves released)
//! [bcast]                                  (shared scalars in)       -- join
//! scatter  PUTs (push) / GETs (pull)
//! fence                                                              -- scatter
//! compute  local loads/stores              (collect epoch opens)     -- compute
//! [reduce.. | seed,barrier,lock/accumulate,barrier,combine]          -- reduce
//! collect  PUTs (slaves -> master)
//! fence                                    (collect epoch closes)
//! barrier                                                            -- collect
//! ```
//!
//! [`steps`] is that listing as a borrowing iterator; nothing else in
//! the workspace spells the order out. A scatter or collect step is one
//! planned op, a split descriptor: `exec::run_region` interprets the
//! walk against `Mpi` and `commcheck::lower` projects it to blockable
//! ops, each expanding an op into its messages ([`CommOp::transfers`])
//! where it issues them; `rmacheck::lower` projects it to RMA events,
//! one per op; `vpce-recover` shares the crash key and the region
//! numbering ([`SpmdProgram::numbered_regions`]).
//! Master-only sequential sections sit strictly between regions with no
//! epoch open and are no part of the protocol.
//!
//! [`SpmdProgram::numbered_regions`]: crate::ir::SpmdProgram::numbered_regions

use std::iter::{once, repeat_n};
use std::ops::Range;

use crate::ir::{CommOp, CommPlan, ParRegion};

/// A global synchronisation: every live rank must arrive at the same
/// kind for it to complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncKind {
    /// `MPI_WIN_FENCE` over all windows — the only event that closes an
    /// access epoch; it also drains every rank's registered eager pool.
    Fence,
    Barrier,
    /// A value-carrying collective (broadcast of shared scalars).
    Bcast,
    /// A reduction tree combine.
    Reduce,
}

impl SyncKind {
    pub fn as_str(self) -> &'static str {
        match self {
            SyncKind::Fence => "fence",
            SyncKind::Barrier => "barrier",
            SyncKind::Bcast => "bcast",
            SyncKind::Reduce => "reduce",
        }
    }
}

/// The five spans a region's time divides into (the `name@Lline` phase
/// events of a trace) — and, for a transfer, which batch it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Join,
    Scatter,
    Compute,
    Reduce,
    Collect,
}

impl Phase {
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Join => "join",
            Phase::Scatter => "scatter",
            Phase::Compute => "compute",
            Phase::Reduce => "reduce",
            Phase::Collect => "collect",
        }
    }
}

/// One step of one rank's walk through a region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step<'a> {
    /// The rank-level fault draws, keyed by [`crash_key`]. A crash
    /// unwinds here, before the entry barrier; the rank never rejoins.
    CrashPoint,
    Sync(SyncKind),
    /// A planned op the walking rank originates, each of its messages
    /// ([`CommOp::transfers`]) an `MPI_GET` from `target` when `get`,
    /// else an `MPI_PUT` to it. `site` is [`Phase::Scatter`] or
    /// [`Phase::Collect`].
    Rma { site: Phase, op: &'a CommOp, target: usize, get: bool },
    /// This rank's share of the iterations.
    Compute,
    /// §3's lock-based reduction combine, bracketed by two barriers:
    /// the master seeds the shared accumulator with the identities,
    LockSeed,
    /// every rank adds its partials under `MPI_WIN_LOCK` (passive-target
    /// epochs, serialised by the exclusive lock),
    LockAccumulate,
    /// and the master folds the accumulator into its running values.
    LockCombine,
    /// The named phase ends here.
    End(Phase),
}

/// Key of the `(rank, region serial)` fault draws — pure hashes, so a
/// crash schedule can be predicted, replayed and masked by key.
pub fn crash_key(rank: usize, serial: u64) -> u64 {
    ((rank as u64) << 32) ^ serial
}

/// The planned transfers of `ranks`, each with its rank.
fn of(plan: &CommPlan, ranks: Range<usize>) -> impl Iterator<Item = (usize, &Vec<CommOp>)> {
    plan.per_rank.iter().enumerate().skip(ranks.start).take(ranks.len())
}

/// `rank`'s walk through `region`, one step per planned op. Borrows
/// the plan and allocates nothing.
pub fn steps(region: &ParRegion, rank: usize) -> impl Iterator<Item = Step<'_>> + '_ {
    use Step::{Compute, CrashPoint, End, LockAccumulate, LockCombine, LockSeed, Sync};
    let master = rank == 0;
    let pull = region.pull_scatter;
    // Whose planned transfers this rank issues, as a range of ranks: a
    // slave its own, the master nobody's — or, pushing, everybody's.
    // (A range, not a filter over all ranks: 16 384 slaves each looking
    // for their one entry is a quadratic walk.)
    let own = if master { 0..0 } else { rank..rank + 1 };
    // Push: the master PUTs every rank's regions (its host pays all
    // setup costs, serially). Pull: each slave GETs its own from the
    // master (setup paid in parallel) — one-sided communication makes
    // the initiator a free choice (§2.2).
    let pushed = if master { 0..usize::MAX } else { 0..0 };
    let scatter = of(&region.scatter, if pull { own.clone() } else { pushed }).flat_map(move |(r, ops)| {
        let target = if pull { 0 } else { r };
        ops.iter().map(move |op| Step::Rma { site: Phase::Scatter, op, target, get: pull })
    });
    // Slaves PUT their write-first/read-write regions back.
    let collect = of(&region.collect, own)
        .flat_map(|(_, ops)| ops)
        .map(|op| Step::Rma { site: Phase::Collect, op, target: 0, get: false });
    let reds = region.reductions.len();
    let lock = region.lock_reductions && reds > 0;
    let lock_bracket = [
        LockSeed,
        Sync(SyncKind::Barrier),
        LockAccumulate,
        Sync(SyncKind::Barrier),
        LockCombine,
    ];
    once(CrashPoint)
        .chain([Sync(SyncKind::Barrier)])
        .chain((!region.scalars_in.is_empty()).then_some(Sync(SyncKind::Bcast)))
        .chain([End(Phase::Join)])
        .chain(scatter)
        .chain([Sync(SyncKind::Fence), End(Phase::Scatter), Compute, End(Phase::Compute)])
        .chain(lock.then_some(lock_bracket).into_iter().flatten())
        .chain(repeat_n(Sync(SyncKind::Reduce), if lock { 0 } else { reds }))
        .chain((reds > 0).then_some(End(Phase::Reduce)))
        .chain(collect)
        .chain([Sync(SyncKind::Fence), Sync(SyncKind::Barrier), End(Phase::Collect)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{try_execute_traced, ExecMode};
    use crate::ir::{Block, RedOp, Reduction, SpmdProgram};
    use cluster_sim::ClusterConfig;
    use lmad::RegionTransfer;
    use mpi2::ELEM_BYTES;
    use vpce_faults::{FaultSpec, VpceError};
    use vpce_trace::{EventKind, Lane, Tracer};

    /// What a step looks like from outside: the MPI calls and phase
    /// spans it leaves on the rank's trace lane.
    fn footprint(step: Step, region: &ParRegion, out: &mut Vec<String>) {
        match step {
            Step::Sync(kind) => out.push(kind.as_str().into()),
            Step::Rma { op, get, .. } => {
                for (_, t) in op.transfers() {
                    let bytes = t.count as usize * ELEM_BYTES;
                    out.push(format!("{} {bytes}B", if get { "get" } else { "put" }));
                }
            }
            Step::LockAccumulate => {
                for _ in &region.reductions {
                    out.extend(["win_lock", "accumulate_now", "win_unlock"].map(String::from));
                }
            }
            Step::End(ph) => out.push(format!("{}@L{}", ph.as_str(), region.line)),
            Step::CrashPoint | Step::Compute | Step::LockSeed | Step::LockCombine => {}
        }
    }

    /// The same, read back from a live run's trace (start-up excluded).
    fn observed(tracer: &Tracer, rank: usize) -> Vec<String> {
        tracer
            .events()
            .into_iter()
            .filter(|e| e.lane == Lane::Rank(rank))
            .filter_map(|e| match e.kind {
                EventKind::Call(c) if matches!(c.op.name(), "put" | "get") => {
                    Some(format!("{} {}B", c.op.name(), c.bytes))
                }
                EventKind::Call(c) if c.op.name() != "win_create" => Some(c.op.name().into()),
                EventKind::Phase { name } if name != "init" => Some(name),
                _ => None,
            })
            .collect()
    }

    /// The test that fails if `exec` or the walk is edited alone: for
    /// every region shape, what each rank of a live two-rank run did —
    /// read back from the trace — is the walk's footprint, and a rank
    /// that crashes does nothing past its crash point.
    #[test]
    fn the_live_machine_follows_the_walk() {
        let op = |count: u64| CommOp {
            array: 0,
            descriptor: RegionTransfer { offset: 8, stride: 1, count }.into(),
        };
        let sum = Reduction { scalar: 0, op: RedOp::Sum, identity: 0.0 };
        let mut shapes = Vec::new();
        for pull_scatter in [false, true] {
            for scalars_in in [vec![], vec![0]] {
                for (reductions, lock_reductions) in [
                    (vec![], false),
                    (vec![sum.clone(), sum.clone()], false),
                    (vec![sum.clone(), sum.clone()], true),
                ] {
                    for collect in [vec![], vec![op(8), op(4)]] {
                        let mut region = ParRegion {
                            pull_scatter,
                            lock_reductions,
                            scalars_in: scalars_in.clone(),
                            reductions: reductions.clone(),
                            ..ParRegion::blank(2, 7)
                        };
                        region.scatter.per_rank[1] = vec![op(8)];
                        region.collect.per_rank[1] = collect;
                        shapes.push((region, 0.0));
                    }
                }
            }
        }
        shapes.push((shapes[0].0.clone(), 1.0));
        for (region, rank_crash) in shapes {
            let prog = SpmdProgram {
                name: "t".into(),
                nprocs: 2,
                arrays: vec![("A".into(), 16)],
                scalars: vec![("S".into(), false)],
                blocks: vec![Block::Parallel(region.clone())],
                sequential: Default::default(),
            };
            let tracer = Tracer::enabled();
            let run = try_execute_traced(
                &prog,
                &ClusterConfig::paper_n(2),
                ExecMode::Full,
                tracer.clone(),
                FaultSpec { rank_crash, ..FaultSpec::off() },
            );
            let crashes = rank_crash > 0.0;
            assert_eq!(matches!(run, Err(VpceError::RankCrash { .. })), crashes);
            assert_eq!(run.is_ok(), !crashes);
            for rank in 0..2 {
                let mut expect = Vec::new();
                steps(&region, rank)
                    .take_while(|s| !(crashes && *s == Step::CrashPoint))
                    .for_each(|s| footprint(s, &region, &mut expect));
                assert_eq!(observed(&tracer, rank), expect, "rank {rank} of {region:?}");
            }
        }
    }
}
