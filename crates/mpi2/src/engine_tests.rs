//! One engine, any worker count, same bytes.
//!
//! [`Universe::run_on`] is the one engine: the closure entry (`run`)
//! is it on as many workers as ranks, and compiled programs call it
//! with one worker or with as many as the host has cores. These tests
//! call it with every worker count that matters — one per rank, one,
//! two, a count that does not divide the ranks — and hold the outcomes
//! equal to each other: results, clocks, ledgers, network counters,
//! conflicts, pools, trace bytes, or the typed error. Everything that
//! could hang runs under the watchdog.

use std::collections::HashSet;
use std::ops::AsyncFn;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::available_parallelism;

use cluster_sim::ClusterConfig;
use vpce_faults::VpceError;
use vpce_testkit::prelude::*;
use vpce_trace::Tracer;

use crate::{Elem, Mpi, RunOutcome, Universe};

#[path = "../tests/scripts/mod.rs"]
mod scripts;
use scripts::{contended, epoch_script_gen, play, script_gen, within_watchdog, Op};

/// Everything a run leaves behind that a worker count must not change.
type Verdict = Result<String, VpceError>;

fn verdict<R: std::fmt::Debug>(out: Result<RunOutcome<R>, VpceError>, tracer: &Tracer) -> Verdict {
    out.map(|o| {
        format!(
            "{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{}",
            o.results,
            o.clocks,
            o.rank_stats,
            o.net,
            o.rma_conflicts,
            o.pool,
            tracer.to_chrome_json()
        )
    })
}

/// `body` on `n` ranks through the engine on `workers` threads.
fn run<R, F>(n: usize, workers: usize, body: F) -> Verdict
where
    R: Send + std::fmt::Debug + 'static,
    F: AsyncFn(&mut Mpi) -> Result<R, VpceError> + Send + Sync + 'static,
{
    within_watchdog(move || {
        let tracer = Tracer::enabled();
        let uni = Universe::new(ClusterConfig::paper_n(n)).with_tracer(tracer.clone());
        verdict(uni.run_on(workers, body), &tracer)
    })
}

/// Every way to run `n` ranks: a thread per rank — the closure entry's
/// count — then 1, 2 and 3 workers.
fn every_entry(n: usize) -> impl Iterator<Item = usize> {
    [n, 1, 2, 3].into_iter()
}

/// Whether two ranks use the wire outside a collective: a matched
/// receive and a `put_now` each book their links at once, so two such
/// ranks book shared links in host order and clocks may differ between
/// executions — as with contended locks, every verdict is typed, only
/// its bytes vary. (Compiled programs do neither: their transfers are
/// buffered and booked by a fence leader, in sorted order.)
fn wire_races(script: &[Vec<Op>]) -> bool {
    let books = |ops: &&Vec<Op>| {
        ops.iter()
            .any(|op| matches!(op, Op::Recv { .. } | Op::PutNow { .. }))
    };
    script.iter().filter(books).count() > 1
}

/// What two runs of one script must agree on: success byte for byte;
/// of an error, the kind — two ranks that each misuse a lock race for
/// root cause.
fn kind(v: &Verdict) -> Result<&str, &str> {
    match v {
        Ok(bytes) => Ok(bytes),
        Err(e) => Err(e.kind()),
    }
}

#[test]
fn random_scripts_end_the_same_on_every_worker_count() {
    // Blocking scripts and access-epoch scripts, half and half: the
    // latter leave operations pending across filtered fences, so the
    // order a later fence completes them in is held to be a function of
    // the program, not of which worker carried which rank.
    let scripts = weighted(vec![(1, script_gen()), (1, epoch_script_gen())]);
    Check::new("mpi2::random_scripts_end_the_same_on_every_worker_count")
        .cases(320)
        .run(&scripts, |script| {
            let n = script.len();
            let mut verdicts = every_entry(n).map(|workers| {
                let ranks = script.clone();
                (
                    workers,
                    run(n, workers, async move |mpi: &mut Mpi| {
                        play(mpi, &ranks[mpi.rank()]).await
                    }),
                )
            });
            let (_, closure_entry) = verdicts.next().expect("a thread per rank comes first");
            let known = ["lock-state", "deadlock-stall"];
            for (workers, v) in verdicts {
                if let Err(e) = &v {
                    prop_assert!(
                        known.contains(&e.kind()),
                        "{workers} workers: unexpected `{e}`"
                    );
                }
                if contended(script) || wire_races(script) {
                    continue;
                }
                prop_assert!(
                    kind(&v) == kind(&closure_entry),
                    "{workers} workers:\n{v:?}\na thread per rank:\n{closure_entry:?}"
                );
            }
            Ok(())
        });
}

/// The error a program must end in, through every entry.
fn ends_in(
    n: usize,
    body: impl AsyncFn(&mut Mpi) -> Result<(), VpceError> + Clone + Send + Sync + 'static,
) -> Vec<VpceError> {
    every_entry(n)
        .map(|workers| run(n, workers, body.clone()).expect_err("the program cannot finish"))
        .collect()
}

#[test]
fn lock_misuse_and_lock_deadlocks_stay_typed_on_every_worker_count() {
    // The three passive-lock programs of `tests/deadlock_detect.rs`.
    for err in ends_in(2, async |mpi: &mut Mpi| {
        let w = mpi.win_create_async(4).await?;
        if mpi.rank() == 0 {
            mpi.win_lock_async(&w, 1).await?;
            mpi.win_lock_async(&w, 1).await?;
        }
        Ok(())
    }) {
        assert!(
            err.to_string().contains("already locked by this rank"),
            "{err}"
        );
    }
    for err in ends_in(2, async |mpi: &mut Mpi| {
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
    }) {
        let graph = err.to_string();
        assert!(matches!(err, VpceError::DeadlockStall { .. }), "{err:?}");
        assert!(graph.contains("rank 0: blocked in collective"), "{graph}");
        assert!(
            graph.contains("rank 1: blocked in win_lock(win=0, target=1) - held by rank 0"),
            "{graph}"
        );
    }
    for err in ends_in(2, async |mpi: &mut Mpi| {
        let w = mpi.win_create_async(4).await?;
        let (me, peer) = (mpi.rank(), 1 - mpi.rank());
        mpi.win_lock_async(&w, me).await?;
        mpi.sendrecv_async(peer, 0, vec![0.0], peer, 0).await?;
        mpi.win_lock_async(&w, peer).await?;
        mpi.win_unlock(&w, peer)?;
        mpi.win_unlock(&w, me)
    }) {
        let graph = err.to_string();
        assert!(matches!(err, VpceError::DeadlockStall { .. }), "{err:?}");
        assert!(
            graph.contains("win_lock(win=0, target=1) - held by rank 1"),
            "{graph}"
        );
        assert!(
            graph.contains("win_lock(win=0, target=0) - held by rank 0"),
            "{graph}"
        );
    }
}

#[test]
fn recv_cycles_and_orphans_are_typed_stalls_on_every_worker_count() {
    for err in ends_in(2, async |mpi: &mut Mpi| {
        let peer = 1 - mpi.rank();
        mpi.recv_async(peer, 0).await?;
        mpi.send(peer, 0, vec![1.0])
    }) {
        let graph = err.to_string();
        assert!(
            graph.contains("rank 0: blocked in recv(src=1, tag=0)"),
            "{graph}"
        );
        assert!(
            graph.contains("rank 1: blocked in recv(src=0, tag=0)"),
            "{graph}"
        );
    }
    for err in ends_in(3, async |mpi: &mut Mpi| {
        if mpi.rank() != 0 {
            mpi.barrier_async().await?;
        }
        Ok(())
    }) {
        let graph = err.to_string();
        assert!(graph.contains("rank 0: finished"), "{graph}");
        assert!(graph.contains("blocked in collective"), "{graph}");
    }
}

#[test]
fn a_yielded_rank_that_is_ready_vetoes_the_stall_report() {
    // On one worker every rank but the one being polled has yielded.
    // Rank 1 posts to rank 0 — yielded in its receive, ready from that
    // moment, not polled again yet — and then waits for the answer:
    // nobody is `Running`, and only rank 0's true condition stands
    // between this run and a false `DeadlockStall`.
    for workers in every_entry(3) {
        let out = run(3, workers, async |mpi: &mut Mpi| {
            mpi.barrier_async().await?;
            Ok(match mpi.rank() {
                0 => {
                    let got = mpi.recv_async(1, 0).await?;
                    mpi.send(1, 1, vec![got[0] + 1.0])?;
                    got[0]
                }
                1 => {
                    mpi.send(0, 0, vec![4.0])?;
                    mpi.recv_async(0, 1).await?[0]
                }
                _ => 0.0,
            })
        });
        let bytes = out.unwrap_or_else(|e| panic!("{workers} workers: {e}"));
        assert!(bytes.starts_with("[4.0, 5.0, 0.0]"), "{bytes}");
    }
}

#[test]
fn ranks_outnumber_threads_through_the_task_entry() {
    let cores = available_parallelism().map_or(1, usize::from);
    let ids = |n: usize| -> HashSet<std::thread::ThreadId> {
        let out = Universe::new(ClusterConfig::paper_n(n))
            .run_on(cores, async |mpi: &mut Mpi| {
                mpi.barrier_async().await?;
                let total = mpi
                    .allreduce_async(vec![1.0], crate::AccumulateOp::Sum)
                    .await?;
                assert_eq!(total, vec![mpi.size() as Elem]);
                Ok(std::thread::current().id())
            })
            .expect("a barrier and an allreduce");
        out.results.into_iter().collect()
    };
    let seen = ids(64);
    assert!(
        seen.len() <= cores,
        "{} threads on {cores} cores",
        seen.len()
    );
    assert_eq!(
        ids(1),
        HashSet::from([std::thread::current().id()]),
        "one rank runs on the caller"
    );
}

/// The message a run that must panic panics with, re-raised by the
/// engine once every rank has ended.
fn panic_message<R>(run: impl FnOnce() -> R + Send + 'static) -> String {
    let payload = within_watchdog(|| catch_unwind(AssertUnwindSafe(run)).map(drop))
        .expect_err("the run must panic");
    match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => payload.downcast_ref::<&str>().copied().unwrap_or_default().to_string(),
    }
}

#[test]
fn a_synchronous_wait_on_a_shared_worker_is_refused_not_hung() {
    // A worker that slept in rank 0's barrier would never poll rank 2.
    let msg = panic_message(|| {
        Universe::new(ClusterConfig::paper_n(4)).run_on(2, async |mpi: &mut Mpi| {
            mpi.barrier();
            Ok(())
        })
    });
    assert!(msg.starts_with("internal error: rank "), "{msg}");
    assert!(msg.contains("`_async`"), "{msg}");
}

// ---------------------------------------------------------------------------
// A rank that dies mid-poll
// ---------------------------------------------------------------------------

#[test]
fn a_crash_is_the_root_cause_while_its_worker_carries_the_others_out() {
    // Eight ranks on two workers: rank 2 shares worker 0 with ranks 0,
    // 4 and 6, all alive and waiting in the barrier when it dies.
    for workers in [2, 1, 3, 8] {
        let err = run(8, workers, async |mpi: &mut Mpi| {
            mpi.barrier_async().await?;
            if mpi.rank() == 2 {
                return Err(VpceError::RankCrash {
                    rank: 2,
                    region: "mid-poll".into(),
                });
            }
            mpi.barrier_async().await?;
            Ok(mpi.rank())
        })
        .expect_err("rank 2 dies");
        assert!(
            matches!(err, VpceError::RankCrash { rank: 2, .. }),
            "{workers} workers: {err:?}"
        );
    }
}

#[test]
fn a_plain_panic_on_a_shared_worker_is_re_raised_not_hung() {
    for workers in [2, 1, 8] {
        let msg = panic_message(move || {
            Universe::new(ClusterConfig::paper_n(8)).run_on(workers, async |mpi: &mut Mpi| {
                mpi.barrier_async().await?;
                if mpi.rank() == 2 {
                    panic!("plain bug");
                }
                mpi.barrier_async().await
            })
        });
        assert_eq!(msg, "plain bug", "{workers} workers: original payload re-raised");
    }
}

#[test]
fn the_closure_entry_panics_with_the_root_cause_not_its_echo() {
    // Rank 3 fails in a synchronous call while its peers wait in a
    // barrier: they leave with `PeerFailure` and panic too, and lower
    // ranks end first — the first failure's panic is the one that goes
    // on.
    let msg = panic_message(|| {
        Universe::new(ClusterConfig::paper_n(4)).run(|mpi| {
            if mpi.rank() == 3 {
                mpi.bcast(7, None);
            }
            mpi.barrier();
        })
    });
    assert_eq!(msg, "bcast root rank out of range: 7 >= 4");
}
