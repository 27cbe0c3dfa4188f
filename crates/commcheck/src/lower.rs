//! Lower a compiled SPMD program into its communication [`Skeleton`]:
//! a projection of the one §3 walk ([`spmd_rt::protocol`], where the
//! protocol listing lives) onto what can block. It adds two things:
//!
//! * every PUT is resolved through the [`TransportPolicy`] into its
//!   actual protocol — an eager transfer pins a registered pool slot
//!   until the origin's next fence, a rendezvous transfer does not —
//!   because pool pressure is what turns a legal plan into a deadlock;
//! * the deterministic rank-crash draw of the fault schedule is made at
//!   the walk's crash point with the runtime's own key, so the skeleton
//!   predicts the *scheduled* crash set, not a probabilistic
//!   abstraction of it. A crashed rank emits [`Op::Crash`] and nothing
//!   else: dead ranks never rejoin.
//!
//! Master-only sequential sections lower to nothing: they run strictly
//! between regions with no communication epoch open.

use mpi2::{Protocol, TransportPolicy, ELEM_BYTES};
use spmd_rt::ir::{ParRegion, SpmdProgram};
use spmd_rt::protocol::{self, Step};
use vpce_faults::{FaultInjector, FaultSpec};

use crate::skeleton::{Op, Skeleton};

/// Lower `prog` into the per-rank skeleton under `policy`'s protocol
/// switchover and `faults`' deterministic crash schedule.
pub fn lower(prog: &SpmdProgram, policy: &TransportPolicy, faults: &FaultSpec) -> Skeleton {
    let mut sk = Skeleton::new(prog.name.clone(), prog.nprocs);
    sk.pool_slots = policy.slots;
    let inj = FaultInjector::new(faults.clone());
    for rank in 0..prog.nprocs {
        for (serial, _, region) in prog.numbered_regions() {
            if !lower_region(&mut sk, region, policy, &inj, rank, serial) {
                break;
            }
        }
    }
    sk
}

/// Append `rank`'s acts for one region; `false` when the rank crashed
/// in it.
fn lower_region(
    sk: &mut Skeleton,
    region: &ParRegion,
    policy: &TransportPolicy,
    inj: &FaultInjector,
    rank: usize,
    serial: u64,
) -> bool {
    let line = region.line;
    for step in protocol::steps(region, rank) {
        match step {
            Step::CrashPoint => {
                if inj.crash_hits(protocol::crash_key(rank, serial)) {
                    sk.push(rank, Op::Crash, line, "crash");
                    return false;
                }
            }
            Step::Sync(kind) => sk.push(rank, Op::Sync(kind), line, "sync"),
            // One act per wire message of the planned op.
            Step::Rma { site, op, target, get } => {
                for (_, t) in op.transfers() {
                    let bytes = t.count as usize * ELEM_BYTES;
                    let act = match (get, policy.choose(bytes)) {
                        (true, _) => Op::Get { from: target, bytes },
                        (false, Protocol::Eager) => Op::EagerPut { to: target, bytes },
                        (false, Protocol::Rendezvous) => Op::RdvzPut { to: target, bytes },
                    };
                    sk.push(rank, act, line, site.as_str());
                }
            }
            // Local work and the lock/accumulate critical sections
            // (serialised by the exclusive lock) never block.
            Step::Compute
            | Step::LockSeed
            | Step::LockAccumulate
            | Step::LockCombine
            | Step::End(_) => {}
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::ClusterConfig;
    use lmad::RegionTransfer;
    use spmd_rt::ir::{Block, CommOp};

    fn lower_one(region: ParRegion, faults: &FaultSpec) -> Skeleton {
        let prog = SpmdProgram {
            name: "t".into(),
            nprocs: 2,
            arrays: vec![("A".into(), 64)],
            scalars: Vec::new(),
            blocks: vec![Block::Parallel(region)],
            sequential: Default::default(),
        };
        lower(&prog, &policy(), faults)
    }

    fn policy() -> TransportPolicy {
        TransportPolicy::from_config(&ClusterConfig::paper_n(2))
    }

    #[test]
    fn protocol_switchover_splits_puts_by_size() {
        let p = policy();
        let small = p.eager_max_bytes / ELEM_BYTES; // fits eager
        let large = p.eager_max_bytes / ELEM_BYTES + 1; // forced rendezvous
        let op = |count: usize| CommOp {
            array: 0,
            descriptor: RegionTransfer { offset: 0, stride: 1, count: count as u64 }.into(),
        };
        let mut r = ParRegion::blank(2, 7);
        r.scatter.per_rank[1].push(op(small));
        r.collect.per_rank[1].push(op(large));
        let sk = lower_one(r, &FaultSpec::off());
        assert!(sk.ranks[0]
            .iter()
            .any(|a| matches!(a.op, Op::EagerPut { to: 1, .. }) && a.site == "scatter"));
        assert!(sk.ranks[1]
            .iter()
            .any(|a| matches!(a.op, Op::RdvzPut { to: 0, .. }) && a.site == "collect"));
        assert_eq!(sk.pool_slots, p.slots);
    }

    #[test]
    fn certain_crash_replays_the_runtime_draw() {
        // rank_crash = 1.0: every rank draws a crash in region 0, the
        // same draw spmd-rt::exec makes. All ranks emit Crash and
        // nothing else.
        let spec = FaultSpec {
            rank_crash: 1.0,
            ..FaultSpec::off()
        };
        let sk = lower_one(ParRegion::blank(2, 7), &spec);
        for r in 0..2 {
            assert_eq!(sk.ranks[r].len(), 1, "rank {r}");
            assert!(matches!(sk.ranks[r][0].op, Op::Crash));
            assert_eq!(sk.ranks[r][0].line, 7);
        }
    }

    #[test]
    fn crash_free_schedule_emits_no_crash_acts() {
        let sk = lower_one(ParRegion::blank(2, 7), &FaultSpec::off());
        assert!(sk
            .ranks
            .iter()
            .flatten()
            .all(|a| !matches!(a.op, Op::Crash)));
    }
}
