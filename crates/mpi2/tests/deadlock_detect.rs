//! The dynamic deadlock detector: programs that would hang forever
//! must instead end in a typed [`VpceError::DeadlockStall`] (or the
//! crash or misuse that caused the orphaning), and programs that merely
//! *look* slow must never be flagged. Detection is exact and has no
//! timer to tune; the programs that used to hang outright run under a
//! wall-clock watchdog so a regression fails instead of hanging CI.

use std::time::Duration;

use std::ops::AsyncFn;

use cluster_sim::{ClusterConfig, Protocol};
use mpi2::{Mpi, TransportPolicy, Universe, VpceError};
use vpce_faults::FaultSpec;
use vpce_testkit::prelude::*;

mod scripts;
use scripts::{contended, epoch_script_gen, play, script_gen, within_watchdog, Op};

fn uni(n: usize) -> Universe {
    Universe::new(ClusterConfig::paper_n(n))
}

/// Run `body` on `n` ranks from a helper thread and hand back the run's
/// verdict; panics if the run is still going when the watchdog expires
/// or dies of an untyped panic.
fn run_within_watchdog<R: Send + 'static>(
    n: usize,
    body: impl AsyncFn(&mut Mpi) -> Result<R, VpceError> + Send + Sync + 'static,
) -> Result<(), VpceError> {
    within_watchdog(move || uni(n).run_on(2, body).map(|_| ()))
}

#[test]
fn head_to_head_recv_cycle_is_a_typed_stall() {
    // Both ranks receive first: the classic two-rank deadlock.
    let err = uni(2)
        .run_on(2, async |mpi: &mut Mpi| {
            let peer = 1 - mpi.rank();
            let got = mpi.recv_async(peer, 0).await?;
            mpi.send(peer, 0, vec![1.0])?;
            Ok(got)
        })
        .unwrap_err();
    match err {
        VpceError::DeadlockStall { graph } => {
            assert!(graph.contains("rank 0: blocked in recv(src=1, tag=0)"), "{graph}");
            assert!(graph.contains("rank 1: blocked in recv(src=0, tag=0)"), "{graph}");
        }
        other => panic!("expected DeadlockStall, got {other:?}"),
    }
}

#[test]
fn unmatched_recv_after_peer_finishes_is_a_typed_stall() {
    // Rank 0 exits without ever sending: rank 1's receive can never be
    // satisfied (the orphaned-handshake shape).
    let err = uni(2)
        .run_on(2, async |mpi: &mut Mpi| {
            if mpi.rank() == 1 {
                mpi.recv_async(0, 7).await?;
            }
            Ok(())
        })
        .unwrap_err();
    match err {
        VpceError::DeadlockStall { graph } => {
            assert!(graph.contains("rank 0: finished"), "{graph}");
            assert!(graph.contains("rank 1: blocked in recv(src=0, tag=7)"), "{graph}");
        }
        other => panic!("expected DeadlockStall, got {other:?}"),
    }
}

#[test]
fn missing_collective_participant_is_a_typed_stall() {
    // Rank 0 skips the barrier and returns; the other ranks wait for a
    // generation that can never complete.
    let err = uni(3)
        .run_on(2, async |mpi: &mut Mpi| {
            if mpi.rank() != 0 {
                mpi.barrier_async().await?;
            }
            Ok(())
        })
        .unwrap_err();
    match err {
        VpceError::DeadlockStall { graph } => {
            assert!(graph.contains("rank 0: finished"), "{graph}");
            assert!(graph.contains("blocked in collective"), "{graph}");
        }
        other => panic!("expected DeadlockStall, got {other:?}"),
    }
}

#[test]
fn crash_mid_rendezvous_orphans_the_peer_with_a_typed_error() {
    // The satellite chaos case: rank 0 opens a rendezvous handshake
    // (RTS), rank 1 accepts it and then dies before answering (CTS).
    // The run must end in the crash as root cause — never a hang, and
    // never an untyped panic.
    const RTS: i32 = 1000;
    const CTS: i32 = 1001;
    let err = uni(2)
        .run_on(2, async |mpi: &mut Mpi| {
            if mpi.rank() == 0 {
                mpi.send(1, RTS, vec![0.0])?;
                mpi.recv_async(1, CTS).await?; // orphaned: the CTS never comes
                Ok(())
            } else {
                mpi.recv_async(0, RTS).await?;
                Err(VpceError::RankCrash {
                    rank: 1,
                    region: "mid-rendezvous".into(),
                })
            }
        })
        .unwrap_err();
    assert!(
        matches!(err, VpceError::RankCrash { rank: 1, .. }),
        "crash must be the root cause, got {err:?}"
    );
}

#[test]
fn slow_but_progressing_runs_are_never_flagged() {
    // The receiver sleeps for real while the sender dawdles in
    // (wall-clock) compute; a slow peer is not a stalled one.
    let out = uni(2).run(|mpi| {
        if mpi.rank() == 0 {
            for _ in 0..4 {
                std::thread::sleep(Duration::from_millis(20));
                mpi.send(1, 0, vec![1.0]).unwrap();
            }
            0.0
        } else {
            (0..4).map(|_| mpi.recv(0, 0)[0]).sum()
        }
    });
    assert_eq!(out.results[1], 4.0);
}

#[test]
fn eager_retransmit_under_saturated_pool_never_double_acquires() {
    // Regression: a link-level retransmit replays an eager message out
    // of its registered slot. While the pool is saturated (every slot
    // pinned until the fence) the replay must reuse that pinned slot —
    // re-acquiring would either deadlock on a full pool or corrupt the
    // free list. Leak/high-water accounting and payload bytes must
    // all come out exact under heavy drop noise.
    let policy = TransportPolicy::forced(Protocol::Eager, 256, 4);
    let slots = policy.slots;
    for seed in 0..8u64 {
        let uni = Universe::new(ClusterConfig::paper_n(2))
            .with_transport(policy.clone())
            .with_faults(FaultSpec {
                seed,
                link_drop: 0.25,
                flit_corrupt: 0.15,
                ..FaultSpec::off()
            });
        let out = uni.run(move |mpi| {
            let w = mpi.win_create(64);
            w.fill_from(&vec![0.0; 64]);
            mpi.barrier();
            if mpi.rank() == 0 {
                // 2x oversubscribed: slots stay pinned to the fence,
                // the overflow falls back to rendezvous.
                for i in 0..2 * slots {
                    mpi.put(&w, 1, i, vec![(i + 1) as f64]).unwrap();
                }
            }
            mpi.fence_all();
            w.snapshot()
        });
        let want: Vec<f64> = (0..64)
            .map(|i| if i < 2 * slots { (i + 1) as f64 } else { 0.0 })
            .collect();
        assert_eq!(out.results[1], want, "seed {seed}: payload corrupted");
        let s = &out.rank_stats[0];
        assert_eq!(s.eager_ops, slots as u64, "seed {seed}");
        assert_eq!(s.eager_fallbacks, slots as u64, "seed {seed}");
        let p = &out.pool[0];
        assert_eq!(p.leaked, 0, "seed {seed}: slot leaked across retransmits");
        assert_eq!(p.hwm, slots, "seed {seed}: high-water must cap at capacity");
    }
}

// ---------------------------------------------------------------------------
// Passive-target locks: three programs that used to hang outright
// ---------------------------------------------------------------------------

#[test]
fn relocking_a_held_shard_is_a_typed_lock_state_error() {
    let err = run_within_watchdog(2, async |mpi: &mut Mpi| {
        let w = mpi.win_create_async(4).await?;
        if mpi.rank() == 0 {
            mpi.win_lock_async(&w, 1).await?;
            mpi.win_lock_async(&w, 1).await?;
        }
        Ok(())
    })
    .unwrap_err();
    assert!(matches!(err, VpceError::LockState { .. }), "got {err:?}");
    assert!(err.to_string().contains("already locked by this rank"), "{err}");
}

#[test]
fn lock_held_across_a_barrier_a_peer_needs_is_a_typed_stall() {
    // Rank 0 enters the barrier inside its epoch; rank 1 wants the same
    // shard before it can reach the barrier. The send/recv pair orders
    // the two lock calls.
    let err = run_within_watchdog(2, async |mpi: &mut Mpi| {
        let w = mpi.win_create_async(4).await?;
        if mpi.rank() == 0 {
            mpi.win_lock_async(&w, 1).await?;
            mpi.send(1, 0, vec![0.0])?;
            mpi.barrier_async().await?;
            mpi.win_unlock(&w, 1)
        } else {
            mpi.recv_async(0, 0).await?;
            mpi.win_lock_async(&w, 1).await?;
            mpi.win_unlock(&w, 1)?;
            mpi.barrier_async().await
        }
    })
    .unwrap_err();
    match err {
        VpceError::DeadlockStall { graph } => {
            assert!(graph.contains("rank 0: blocked in collective"), "{graph}");
            let lock = "rank 1: blocked in win_lock(win=0, target=1) - held by rank 0";
            assert!(graph.contains(lock), "{graph}");
        }
        other => panic!("expected DeadlockStall, got {other:?}"),
    }
}

#[test]
fn ab_ba_lock_cycle_is_a_typed_stall() {
    // Each rank takes its own shard's lock, then (after the exchange
    // that makes sure both hold one) wants the other's.
    let err = run_within_watchdog(2, async |mpi: &mut Mpi| {
        let w = mpi.win_create_async(4).await?;
        let (me, peer) = (mpi.rank(), 1 - mpi.rank());
        mpi.win_lock_async(&w, me).await?;
        mpi.sendrecv_async(peer, 0, vec![0.0], peer, 0).await?;
        mpi.win_lock_async(&w, peer).await?;
        mpi.win_unlock(&w, peer)?;
        mpi.win_unlock(&w, me)
    })
    .unwrap_err();
    match err {
        VpceError::DeadlockStall { graph } => {
            assert!(graph.contains("win_lock(win=0, target=1) - held by rank 1"), "{graph}");
            assert!(graph.contains("win_lock(win=0, target=0) - held by rank 0"), "{graph}");
        }
        other => panic!("expected DeadlockStall, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// No script hangs
// ---------------------------------------------------------------------------

/// The verdict kind of one execution: `ok`, or the typed error's kind.
fn execute(script: &[Vec<Op>]) -> &'static str {
    let ranks = script.to_vec();
    let verdict = run_within_watchdog(script.len(), async move |mpi: &mut Mpi| {
        play(mpi, &ranks[mpi.rank()]).await
    });
    verdict.map_or_else(|e| e.kind(), |()| "ok")
}

/// Every script of `scripts` ends — twice — in `ok` or a typed error,
/// and in the same one unless ranks contend for a lock.
fn always_a_typed_verdict(name: &str, cases: u32, scripts: Gen<Vec<Vec<Op>>>) {
    Check::new(name).cases(cases).run(&scripts, |script| {
        let first = execute(script);
        let known = ["ok", "lock-state", "deadlock-stall"];
        prop_assert!(known.contains(&first), "unexpected verdict `{first}`");
        let second = execute(script);
        prop_assert!(known.contains(&second), "unexpected verdict `{second}`");
        if !contended(script) {
            prop_assert_eq!(first, second);
        }
        Ok(())
    });
}

#[test]
fn random_blocking_scripts_always_end_in_a_typed_verdict() {
    always_a_typed_verdict(
        "mpi2::random_blocking_scripts_always_end_in_a_typed_verdict",
        320,
        script_gen(),
    );
}

/// The same with access epochs: operations left pending across a
/// filtered fence, or by a rank that returns early, strand nobody.
#[test]
fn random_epoch_scripts_always_end_in_a_typed_verdict() {
    always_a_typed_verdict(
        "mpi2::random_epoch_scripts_always_end_in_a_typed_verdict",
        160,
        epoch_script_gen(),
    );
}
