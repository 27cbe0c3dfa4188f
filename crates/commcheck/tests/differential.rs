//! Differential ground truth: the *static* verifier (exhaustive
//! small-scope exploration over the skeleton) against the *dynamic*
//! wait-for-graph detector inside `mpi2`.
//!
//! The contract is one-directional and sound in that direction:
//!
//! > If commcheck declares a skeleton clean (and the exploration was
//! > not truncated), then no execution of the equivalent MPI program
//! > may ever end in [`VpceError::DeadlockStall`].
//!
//! A scheduled crash is allowed to surface as [`VpceError::RankCrash`]
//! — the dynamic runtime reports the root cause, not a hang — but a
//! stall after a static pass is a verifier bug, full stop. The reverse
//! direction is deliberately not asserted case-by-case here (the
//! dynamic run sees only one interleaving; the static verifier
//! quantifies over all of them), but the pinned cases at the bottom
//! fix both verdicts for one canonical skeleton per deadlock class.
//!
//! The dynamic interpretation maps each skeleton op onto real `mpi2`
//! calls: syncs become the matching collectives, two-sided p2p keeps
//! its user tag (always < 1000), and an RTS/CTS handshake `hs` becomes
//! a send/recv pair on reserved tags `1000 + 2*hs` / `1001 + 2*hs`.
//! One-sided puts/gets and scheduler reservations have no blocking
//! dynamic counterpart in this harness — dropping them only *removes*
//! blocking from the dynamic side, which keeps the one-directional
//! property sound.

use cluster_sim::ClusterConfig;
use commcheck::skeleton::{Op, Skeleton, SyncKind};
use commcheck::{verify_skeleton, VerifyOptions, VerifyReport};
use mpi2::{AccumulateOp, Mpi, Universe, VpceError};
use vpce_diag::DiagCode;
use vpce_testkit::prelude::*;

fn rts_tag(hs: usize) -> i32 {
    1000 + 2 * hs as i32
}

fn cts_tag(hs: usize) -> i32 {
    1001 + 2 * hs as i32
}

/// Execute the skeleton for real on the mpi2 runtime with the dynamic
/// deadlock detector armed.
fn run_dynamic(sk: &Skeleton) -> Result<(), VpceError> {
    let uni = Universe::new(ClusterConfig::paper_n(sk.nranks));
    uni.run_on(2, async |mpi: &mut Mpi| {
        let r = mpi.rank();
        for act in &sk.ranks[r] {
            match act.op {
                Op::Sync(SyncKind::Barrier) => mpi.barrier_async().await?,
                Op::Sync(SyncKind::Fence) => mpi.fence_all_async().await?,
                Op::Sync(SyncKind::Bcast) => {
                    let data = (r == 0).then(|| vec![1.0]);
                    mpi.bcast_async(0, data).await?;
                }
                Op::Sync(SyncKind::Reduce) => {
                    mpi.reduce_async(0, vec![1.0], AccumulateOp::Sum).await?;
                }
                Op::Send { to, tag } => mpi.send(to, tag, vec![1.0])?,
                Op::Recv { from, tag } => {
                    mpi.recv_async(from, tag).await?;
                }
                Op::RdvzSend { to, hs } => {
                    mpi.send(to, rts_tag(hs), vec![1.0])?;
                    mpi.recv_async(to, cts_tag(hs)).await?;
                }
                Op::RdvzRecv { from, hs } => {
                    mpi.recv_async(from, rts_tag(hs)).await?;
                    mpi.send(from, cts_tag(hs), vec![2.0])?;
                }
                Op::Crash => {
                    return Err(VpceError::RankCrash {
                        rank: r,
                        region: "differential".into(),
                    })
                }
                // No blocking dynamic counterpart (see module docs).
                Op::EagerPut { .. }
                | Op::RdvzPut { .. }
                | Op::Get { .. }
                | Op::Acquire { .. }
                | Op::Release { .. } => {}
            }
        }
        Ok(())
    })
    .map(|_| ())
}

fn verify(sk: &Skeleton) -> VerifyReport {
    verify_skeleton(sk, &VerifyOptions::default()).unwrap()
}

fn codes(rep: &VerifyReport) -> Vec<&'static str> {
    rep.report.diags.iter().map(|d| d.code.as_str()).collect()
}

// ---------------------------------------------------------------------------
// Random plan generator
// ---------------------------------------------------------------------------

fn pick_live(src: &mut Source, live: &[bool]) -> usize {
    let alive: Vec<usize> = (0..live.len()).filter(|&r| live[r]).collect();
    alive[src.next_below(alive.len() as u64) as usize]
}

/// A distinct live pair, if two ranks are still alive.
fn pick_live_pair(src: &mut Source, live: &[bool]) -> Option<(usize, usize)> {
    let alive: Vec<usize> = (0..live.len()).filter(|&r| live[r]).collect();
    if alive.len() < 2 {
        return None;
    }
    let a = alive[src.next_below(alive.len() as u64) as usize];
    let mut b = alive[src.next_below(alive.len() as u64) as usize];
    while b == a {
        b = alive[src.next_below(alive.len() as u64) as usize];
    }
    Some((a, b))
}

/// Random communication plans: mostly well-formed pattern blocks
/// (matched syncs, matched p2p, complete rendezvous handshakes),
/// salted with the broken shapes the verifier exists to catch
/// (unmatched receives, sync divergence, orphaned handshake halves,
/// scheduled crashes). Dead ranks never receive further acts, matching
/// the lowering's crash semantics.
fn plan_gen() -> Gen<Skeleton> {
    Gen::new(|src| {
        let n = 2 + src.next_below(2) as usize; // 2..=3 ranks
        let mut sk = Skeleton::new("differential", n);
        let mut live = vec![true; n];
        let mut hs = 0usize;
        let npat = 1 + src.next_below(6) as usize;
        for _ in 0..npat {
            match src.next_below(12) {
                // Matched global sync across the live set.
                0 | 1 => {
                    let k = match src.next_below(4) {
                        0 => SyncKind::Barrier,
                        1 => SyncKind::Fence,
                        2 => SyncKind::Reduce,
                        _ => SyncKind::Bcast,
                    };
                    // Bcast needs a live root in the dynamic run.
                    if k == SyncKind::Bcast && !live[0] {
                        continue;
                    }
                    sk.sync_all(k, 0, &live);
                }
                // Matched two-sided pair, sender first.
                2..=4 => {
                    if let Some((a, b)) = pick_live_pair(src, &live) {
                        let tag = src.next_below(100) as i32;
                        sk.push(a, Op::Send { to: b, tag }, 0, "p2p");
                        sk.push(b, Op::Recv { from: a, tag }, 0, "p2p");
                    }
                }
                // Complete rendezvous handshake.
                5 | 6 => {
                    if let Some((a, b)) = pick_live_pair(src, &live) {
                        sk.push(a, Op::RdvzSend { to: b, hs }, 0, "rdvz");
                        sk.push(b, Op::RdvzRecv { from: a, hs }, 0, "rdvz");
                        hs += 1;
                    }
                }
                // One-sided traffic: never blocks dynamically.
                7 => {
                    if let Some((a, b)) = pick_live_pair(src, &live) {
                        let op = match src.next_below(3) {
                            0 => Op::EagerPut { to: b, bytes: 64 },
                            1 => Op::RdvzPut { to: b, bytes: 64 },
                            _ => Op::Get { from: b, bytes: 64 },
                        };
                        sk.push(a, op, 0, "rma");
                    }
                }
                // Broken: a receive nothing will ever match.
                8 => {
                    if let Some((a, b)) = pick_live_pair(src, &live) {
                        sk.push(a, Op::Recv { from: b, tag: 999 }, 0, "broken");
                    }
                }
                // Broken: one rank runs a sync on its own.
                9 => {
                    let a = pick_live(src, &live);
                    sk.push(a, Op::Sync(SyncKind::Barrier), 0, "broken");
                }
                // Broken: an orphaned origin half (the target may never
                // post, or may already be dead).
                10 => {
                    let a = pick_live(src, &live);
                    let mut b = src.next_below(n as u64) as usize;
                    while b == a {
                        b = src.next_below(n as u64) as usize;
                    }
                    sk.push(a, Op::RdvzSend { to: b, hs }, 0, "orphan");
                    hs += 1;
                }
                // Scheduled crash (keep at least one rank alive).
                _ => {
                    if live.iter().filter(|&&l| l).count() > 1 {
                        let a = pick_live(src, &live);
                        sk.push(a, Op::Crash, 0, "crash");
                        live[a] = false;
                    }
                }
            }
        }
        sk
    })
}

/// The headline property, over 1000+ seeded random plans: a static
/// pass is a *guarantee*. Cases the verifier flags are vacuous here
/// (the dynamic run would rightly stall on many of them); cases it
/// passes must never stall dynamically.
#[test]
fn static_clean_implies_no_dynamic_stall() {
    Check::new("static_clean_implies_no_dynamic_stall")
        .cases(1000)
        .run(&plan_gen(), |sk| {
            let rep = verify(sk);
            if !rep.is_clean() || rep.truncated {
                return Ok(()); // one-directional: nothing to check
            }
            match run_dynamic(sk) {
                Err(VpceError::DeadlockStall { graph }) => Err(PropError::fail(format!(
                    "static verifier passed but the dynamic detector stalled:\n{graph}"
                ))),
                _ => Ok(()),
            }
        });
}

// ---------------------------------------------------------------------------
// Pinned cases: one canonical skeleton per deadlock class, with BOTH
// verdicts fixed — the static codes and the dynamic outcome.
// ---------------------------------------------------------------------------

#[test]
fn pinned_recv_cycle_agrees() {
    let mut sk = Skeleton::new("pin-cycle", 2);
    sk.push(0, Op::Recv { from: 1, tag: 0 }, 1, "p2p");
    sk.push(0, Op::Send { to: 1, tag: 0 }, 2, "p2p");
    sk.push(1, Op::Recv { from: 0, tag: 0 }, 1, "p2p");
    sk.push(1, Op::Send { to: 0, tag: 0 }, 2, "p2p");
    let rep = verify(&sk);
    // A plain receive wait cycle is the VPCE201 headline alone.
    assert_eq!(codes(&rep), vec!["VPCE201"]);
    let err = run_dynamic(&sk).unwrap_err();
    assert!(
        matches!(err, VpceError::DeadlockStall { .. }),
        "dynamic verdict: {err:?}"
    );
}

#[test]
fn pinned_sync_divergence_agrees() {
    // Rank 0 runs a barrier no one else will ever join.
    let mut sk = Skeleton::new("pin-sync", 2);
    sk.push(0, Op::Sync(SyncKind::Barrier), 1, "sync");
    let rep = verify(&sk);
    assert!(codes(&rep).contains(&"VPCE202"), "{:?}", codes(&rep));
    let err = run_dynamic(&sk).unwrap_err();
    assert!(
        matches!(err, VpceError::DeadlockStall { .. }),
        "dynamic verdict: {err:?}"
    );
}

#[test]
fn pinned_crossed_rendezvous_agrees() {
    // Both ranks post their origin half first: the RTS/CTS cycle.
    let mut sk = Skeleton::new("pin-rdvz", 2);
    sk.push(0, Op::RdvzSend { to: 1, hs: 0 }, 1, "rdvz");
    sk.push(0, Op::RdvzRecv { from: 1, hs: 1 }, 2, "rdvz");
    sk.push(1, Op::RdvzSend { to: 0, hs: 1 }, 1, "rdvz");
    sk.push(1, Op::RdvzRecv { from: 0, hs: 0 }, 2, "rdvz");
    let rep = verify(&sk);
    assert!(codes(&rep).contains(&"VPCE203"), "{:?}", codes(&rep));
    let err = run_dynamic(&sk).unwrap_err();
    assert!(
        matches!(err, VpceError::DeadlockStall { .. }),
        "dynamic verdict: {err:?}"
    );
}

/// The chaos-crash satellite, differentially: a rank dies between RTS
/// and CTS. The static verifier must predict the orphaned handshake
/// (VPCE205); the dynamic runtime must surface the crash as the root
/// cause — never a hang.
#[test]
fn pinned_crash_mid_rendezvous_agrees() {
    let mut sk = Skeleton::new("pin-crash", 2);
    sk.push(0, Op::RdvzSend { to: 1, hs: 0 }, 1, "rdvz");
    sk.push(1, Op::Crash, 1, "crash");
    let rep = verify(&sk);
    assert!(codes(&rep).contains(&"VPCE205"), "{:?}", codes(&rep));
    let err = run_dynamic(&sk).unwrap_err();
    assert!(
        matches!(err, VpceError::RankCrash { rank: 1, .. }),
        "crash must be the root cause, got {err:?}"
    );
}

#[test]
fn pinned_unmatched_recv_agrees() {
    // Rank 1 waits on a message rank 0 never sends.
    let mut sk = Skeleton::new("pin-recv", 2);
    sk.push(1, Op::Recv { from: 0, tag: 7 }, 1, "p2p");
    let rep = verify(&sk);
    assert!(codes(&rep).contains(&"VPCE207"), "{:?}", codes(&rep));
    let err = run_dynamic(&sk).unwrap_err();
    assert!(
        matches!(err, VpceError::DeadlockStall { .. }),
        "dynamic verdict: {err:?}"
    );
}
