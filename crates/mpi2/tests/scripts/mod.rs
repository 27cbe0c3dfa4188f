//! The random blocking scripts of the no-script-hangs property, the
//! rank body that plays them, and the watchdog they run under — shared
//! by `tests/deadlock_detect.rs` (the task entry, from outside the
//! crate) and the in-crate engine tests (`src/engine_tests.rs`: every
//! worker count).

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use vpce_testkit::prelude::*;

use super::{Mpi, VpceError};

/// How long a program that must *end* may take before it counts as
/// hung. Every program here finishes in milliseconds.
const WATCHDOG: Duration = Duration::from_secs(20);

/// `run` on a helper thread; panics if it is still going when the
/// watchdog expires or dies of an untyped panic.
pub(super) fn within_watchdog<T: Send + 'static>(run: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(run());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(verdict) => verdict,
        Err(RecvTimeoutError::Timeout) => panic!("still running after {WATCHDOG:?}: a hang"),
        Err(RecvTimeoutError::Disconnected) => panic!("the run died of an untyped panic"),
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(super) enum Op {
    Barrier,
    Send {
        to: usize,
        tag: i32,
    },
    Recv {
        from: usize,
        tag: i32,
    },
    Lock {
        target: usize,
    },
    Unlock {
        target: usize,
    },
    PutNow {
        target: usize,
    },
    /// Buffered one-element PUT into `target`'s shard of window `win`
    /// (0 or 1): pending until a fence that covers the window.
    Put {
        win: usize,
        target: usize,
    },
    /// `fence_all`, or `win_fence` on one window — which leaves the
    /// other window's pending operations where they are.
    Fence {
        win: Option<usize>,
    },
    /// Return from the SPMD closure here, whatever is still open.
    Finish,
}

/// One rank of a script: its ops against two four-element windows
/// (locks and `put_now` use the first). The result is how many it got
/// through (the windows' contents would not do: a script may end a rank
/// while a peer still puts into it).
pub(super) async fn play(mpi: &mut Mpi, ops: &[Op]) -> Result<usize, VpceError> {
    let wins = [mpi.win_create_async(4).await?, mpi.win_create_async(4).await?];
    let w = &wins[0];
    for (done, op) in ops.iter().enumerate() {
        match *op {
            Op::Barrier => mpi.barrier_async().await?,
            Op::Send { to, tag } => mpi.send(to, tag, vec![1.0])?,
            Op::Recv { from, tag } => drop(mpi.recv_async(from, tag).await?),
            Op::Lock { target } => mpi.win_lock_async(w, target).await?,
            Op::Unlock { target } => mpi.win_unlock(w, target)?,
            Op::PutNow { target } => mpi.put_now(w, target, 0, vec![2.0])?,
            // Every origin writes element 0: racing PUTs, so the
            // conflict ledger's record order is under test as well.
            Op::Put { win, target } => mpi.put(&wins[win], target, 0, vec![3.0])?,
            Op::Fence { win: None } => mpi.fence_all_async().await?,
            Op::Fence { win: Some(win) } => mpi.win_fence_async(wins[win].id()).await?,
            Op::Finish => return Ok(done),
        }
    }
    Ok(ops.len())
}

/// One op list per rank, 2–4 ranks, every rank index in range. Built
/// from moves that keep most scripts *nearly* right — a barrier on
/// every rank, a matched send/recv pair, a whole lock epoch — plus
/// stray single ops that unbalance them: all the ways to block, matched
/// or not, and every lock misuse.
pub(super) fn script_gen() -> Gen<Vec<Vec<Op>>> {
    scripts(false)
}

/// [`script_gen`] with access epochs: buffered PUTs on two windows, and
/// `fence_all` / `win_fence(0)` / `win_fence(1)` on every rank, in any
/// order — so filtered and unfiltered fences interleave and a filtered
/// one leaves the other window's operations pending across it. No stray
/// barrier here: every rank's collectives are a prefix of one sequence,
/// as MPI requires of a program (a stray receive, lock or early return
/// still strands the peers at the next one).
pub(super) fn epoch_script_gen() -> Gen<Vec<Vec<Op>>> {
    scripts(true)
}

fn scripts(epochs: bool) -> Gen<Vec<Vec<Op>>> {
    usize_in(2, 4).flat_map(move |n| {
        let rank = usize_in(0, n - 1);
        let tag = i64_in(0, 1).map(|t| t as i32);
        let mut strays = vec![
            zip2(rank.clone(), tag.clone()).map(|(to, tag)| Op::Send { to, tag }),
            zip2(rank.clone(), tag.clone()).map(|(from, tag)| Op::Recv { from, tag }),
            rank.clone().map(|target| Op::Lock { target }),
            rank.clone().map(|target| Op::Unlock { target }),
            rank.clone().map(|target| Op::PutNow { target }),
            just(Op::Finish),
        ];
        if !epochs {
            strays.insert(0, just(Op::Barrier));
        }
        let on_every_rank = move |op: Op| just((0..n).map(|r| (r, op.clone())).collect::<Vec<_>>());
        let mut steps: Vec<(u32, Gen<Vec<(usize, Op)>>)> = vec![
            (3, on_every_rank(Op::Barrier)),
            (
                3,
                zip3(rank.clone(), rank.clone(), tag).map(|(from, to, tag)| {
                    vec![(from, Op::Send { to, tag }), (to, Op::Recv { from, tag })]
                }),
            ),
            (
                3,
                zip2(rank.clone(), rank.clone()).map(|(r, target)| {
                    vec![
                        (r, Op::Lock { target }),
                        (r, Op::PutNow { target }),
                        (r, Op::Unlock { target }),
                    ]
                }),
            ),
            (4, zip2(rank.clone(), one_of(strays)).map(|placed| vec![placed])),
        ];
        if epochs {
            let win = usize_in(0, 1);
            steps.push((
                8,
                zip3(rank.clone(), win.clone(), rank).map(|(r, win, target)| vec![(r, Op::Put { win, target })]),
            ));
            steps.push((3, on_every_rank(Op::Fence { win: None })));
            steps.push((4, win.flat_map(move |w| on_every_rank(Op::Fence { win: Some(w) }))));
        }
        vec_of(weighted(steps), 0, if epochs { 14 } else { 8 }).map(move |steps| {
            let mut ranks = vec![Vec::new(); n];
            for (r, op) in steps.into_iter().flatten() {
                ranks[r].push(op);
            }
            ranks
        })
    })
}

/// Whether two ranks ask for the same shard. Which of them is granted
/// first is OS order (documented on `Mpi::win_lock`), so such a
/// script's verdict may legitimately differ between executions — every
/// one of them typed.
pub(super) fn contended(script: &[Vec<Op>]) -> bool {
    let wants = |ops: &[Op], target| ops.contains(&Op::Lock { target });
    (0..script.len()).any(|t| script.iter().filter(|ops| wants(ops, t)).count() > 1)
}
