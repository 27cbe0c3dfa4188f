//! The random blocking scripts of the no-script-hangs property, and
//! the watchdog they run under — shared by `tests/deadlock_detect.rs`
//! (the closure entry, from outside the crate) and the in-crate engine
//! tests (`src/engine_tests.rs`: every worker count, both entries).

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use vpce_testkit::prelude::*;

/// How long a program that must *end* may take before it counts as
/// hung. Every program here finishes in milliseconds.
const WATCHDOG: Duration = Duration::from_secs(20);

/// `run` on a helper thread; panics if it is still going when the
/// watchdog expires or dies of an untyped panic.
pub fn within_watchdog<T: Send + 'static>(run: impl FnOnce() -> T + Send + 'static) -> T {
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
pub enum Op {
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
    /// Return from the SPMD closure here, whatever is still open.
    Finish,
}

/// One op list per rank, 2–4 ranks, every rank index in range. Built
/// from moves that keep most scripts *nearly* right — a barrier on
/// every rank, a matched send/recv pair, a whole lock epoch — plus
/// stray single ops that unbalance them: all the ways to block, matched
/// or not, and every lock misuse.
pub fn script_gen() -> Gen<Vec<Vec<Op>>> {
    usize_in(2, 4).flat_map(|n| {
        let rank = usize_in(0, n - 1);
        let tag = i64_in(0, 1).map(|t| t as i32);
        let stray = one_of(vec![
            just(Op::Barrier),
            zip2(rank.clone(), tag.clone()).map(|(to, tag)| Op::Send { to, tag }),
            zip2(rank.clone(), tag.clone()).map(|(from, tag)| Op::Recv { from, tag }),
            rank.clone().map(|target| Op::Lock { target }),
            rank.clone().map(|target| Op::Unlock { target }),
            rank.clone().map(|target| Op::PutNow { target }),
            just(Op::Finish),
        ]);
        let step: Gen<Vec<(usize, Op)>> = weighted(vec![
            (3, just((0..n).map(|r| (r, Op::Barrier)).collect())),
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
            (4, zip2(rank, stray).map(|placed| vec![placed])),
        ]);
        vec_of(step, 0, 8).map(move |steps| {
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
pub fn contended(script: &[Vec<Op>]) -> bool {
    let wants = |ops: &[Op], target| ops.contains(&Op::Lock { target });
    (0..script.len()).any(|t| script.iter().filter(|ops| wants(ops, t)).count() > 1)
}
