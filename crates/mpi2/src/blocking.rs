//! The one place a rank can block.
//!
//! §2.2 gives a rank three ways to wait — a fence / barrier /
//! collective, a two-sided receive, and `MPI_WIN_LOCK` — and all three
//! stop in [`Blocking::wait`], under the one mutex that guards
//! everything a rank can wait *for*: the leader rendezvous every
//! collective is built on, the `(src, dst, tag)` message queues, and
//! the passive-target lock epochs, which are plain data (`holder`,
//! `last_release`) rather than an OS lock held across calls.
//!
//! ## Poll and park
//!
//! Waiting is split in two. The *poll* ([`Blocking::wait`] is a future
//! over it) never sleeps: ready — go on; otherwise mark the rank
//! `Waiting(reason)`, evaluate the stall rule, and yield. Between two
//! polls a rank is data — a suspended future and one `Status` entry —
//! so one OS thread can carry any number of them. The *park*
//! ([`Blocking::park`]) is where a thread sleeps, on the one condition
//! variable, until one of the ranks it carries can go on or the run
//! has failed. No waker is involved: readiness is read from the state
//! under its lock, by the stall rule and by the park alike, and every
//! change that can make a rank ready already notifies the condvar.
//!
//! ## The rendezvous
//!
//! All ranks arrive with an input value, the *last* arriver runs a
//! leader closure over the full input vector (scheduling network
//! transfers, moving memory), and every rank leaves with its slot of
//! the leader's output vector. The leader runs under the lock while
//! every peer waits for it, only once all inputs are present, and
//! processes them in rank order — the outcome is independent of OS
//! scheduling.
//!
//! ## Deadlock detection: exact, and without a timer
//!
//! Each rank is `Running`, `Waiting(reason)` or `Done`, and a waiting
//! rank's wake condition ([`State::ready`]) is read from the real
//! state, under its lock. The universe is stalled when the run has not
//! failed, no rank is `Running`, some rank is `Waiting`, and every
//! waiter's condition is false.
//!
//! Only a `Running` rank can change guarded state (post a message,
//! complete a generation, release a lock), so that conjunction can only
//! *become* true at the two transitions that take a rank out of
//! `Running`: it starts to wait, or it finishes. The rule is evaluated
//! there and nowhere else, by the rank making the transition, which
//! ends in [`VpceError::DeadlockStall`] itself.
//!
//! There are no false positives: every wake source updates the state
//! under the lock *before* the waking rank can leave `Running`, so a
//! notified-but-unscheduled waiter — a sleeping thread, or a yielded
//! rank its worker has not polled again yet — still reads `Waiting`
//! with a true condition and vetoes the report; a rank that was never
//! polled at all still reads `Running`. And none are missed: once the
//! conjunction holds nothing can change the state again, and the rank
//! whose transition completed it was looking.
//!
//! ## Failure
//!
//! A rank that fails — its task ends in an error, or panics — sets the
//! one `failed` flag ([`Blocking::fail`]) and wakes everybody; a waiter
//! whose condition is still false leaves with
//! [`VpceError::PeerFailure`], and stall reports are suppressed — the
//! run is already ending with its root cause.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::future::poll_fn;
use std::sync::{Condvar, MutexGuard};
use std::task::Poll;

use vpce_faults::VpceError;

use crate::sync::{wait, Mutex};
use crate::Elem;

pub(crate) struct Message {
    pub data: Vec<Elem>,
    /// Sender virtual time at which the payload had left the host.
    pub ready: f64,
}

type Slot = Option<Box<dyn Any + Send>>;

/// What a waiting rank waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reason {
    /// In `MPI_RECV`, for a message from `src` with `tag`.
    Recv { src: usize, tag: i32 },
    /// In a collective, for generation `gen` to complete.
    Collective { gen: u64 },
    /// In `MPI_WIN_LOCK`, for `target`'s shard of `win` to be released.
    Lock { win: usize, target: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Running,
    Waiting(Reason),
    Done,
}

/// Passive-target lock state of one shard.
#[derive(Default)]
struct Epoch {
    holder: Option<usize>,
    /// Virtual time at which the previous epoch on this shard closed.
    last_release: f64,
}

struct State {
    status: Vec<Status>,
    /// A rank died: waiters leave instead of sleeping on.
    failed: bool,
    generation: u64,
    arrived: usize,
    inputs: Vec<Slot>,
    outputs: Vec<Slot>,
    /// Mailboxes keyed by `(src, dst, tag)`.
    queues: HashMap<(usize, usize, i32), VecDeque<Message>>,
    /// Lock epochs keyed by `(window, target)`.
    epochs: HashMap<(usize, usize), Epoch>,
}

impl State {
    fn holder(&self, win: usize, target: usize) -> Option<usize> {
        self.epochs.get(&(win, target)).and_then(|e| e.holder)
    }

    /// Whether `rank`, waiting for `reason`, can proceed.
    fn ready(&self, rank: usize, reason: Reason) -> bool {
        match reason {
            Reason::Recv { src, tag } => {
                self.queues.get(&(src, rank, tag)).is_some_and(|q| !q.is_empty())
            }
            Reason::Collective { gen } => self.generation != gen,
            Reason::Lock { win, target } => self.holder(win, target).is_none(),
        }
    }

    /// Whether polling `rank` again can get it anywhere.
    fn runnable(&self, rank: usize) -> bool {
        match self.status[rank] {
            Status::Running => true,
            Status::Waiting(reason) => self.ready(rank, reason),
            Status::Done => false,
        }
    }

    /// The rendered wait-for graph when the universe is stalled (see
    /// the module docs), `None` otherwise. `from` is the rank asking:
    /// the scan starts behind it, where a veto is closest — the next
    /// ranks of a worker's sweep are the ones that have not looked at
    /// the new state yet — so a rendezvous of `n` ranks costs `n` short
    /// scans, not `n²/2` steps.
    fn stalled(&self, from: usize) -> Option<String> {
        if self.failed {
            return None;
        }
        let n = self.status.len();
        let mut waiting = false;
        for rank in (from + 1..n).chain(0..=from) {
            match self.status[rank] {
                Status::Running => return None,
                Status::Done => {}
                Status::Waiting(reason) if self.ready(rank, reason) => return None,
                Status::Waiting(_) => waiting = true,
            }
        }
        waiting.then(|| self.render())
    }

    fn render(&self) -> String {
        let mut out = String::from("wait-for graph at stall:\n");
        for (rank, st) in self.status.iter().enumerate() {
            let what = match *st {
                Status::Running => "running".to_string(),
                Status::Done => "finished".to_string(),
                Status::Waiting(Reason::Recv { src, tag }) => {
                    format!("blocked in recv(src={src}, tag={tag}) - no matching message posted")
                }
                Status::Waiting(Reason::Collective { gen }) => {
                    format!("blocked in collective (generation {gen}) - peers never arrive")
                }
                Status::Waiting(Reason::Lock { win, target }) => {
                    let h = self.holder(win, target).expect("an unready lock waiter has a holder");
                    format!("blocked in win_lock(win={win}, target={target}) - held by rank {h}")
                }
            };
            out.push_str(&format!("  rank {rank}: {what}\n"));
        }
        out
    }
}

/// Everything the `n` ranks of one running universe can wait on.
pub(crate) struct Blocking {
    state: Mutex<State>,
    cv: Condvar,
}

impl Blocking {
    pub(crate) fn new(n: usize) -> Self {
        assert!(n > 0);
        Blocking {
            state: Mutex::new(State {
                status: vec![Status::Running; n],
                failed: false,
                generation: 0,
                arrived: 0,
                inputs: (0..n).map(|_| None).collect(),
                outputs: (0..n).map(|_| None).collect(),
                queues: HashMap::new(),
                epochs: HashMap::new(),
            }),
            cv: Condvar::new(),
        }
    }

    /// One look at `rank` waiting for `reason`: the guard when the
    /// condition holds; otherwise the rank is marked waiting and the
    /// caller yields. `DeadlockStall` if starting to wait stalls the
    /// universe, `PeerFailure` if a rank died and the condition is
    /// still false.
    fn poll(&self, rank: usize, reason: Reason) -> Poll<Result<MutexGuard<'_, State>, VpceError>> {
        let mut st = self.state.lock();
        if st.ready(rank, reason) {
            st.status[rank] = Status::Running;
            return Poll::Ready(Ok(st));
        }
        if st.failed {
            let site = match reason {
                Reason::Recv { .. } => "recv",
                Reason::Collective { .. } => "collective",
                Reason::Lock { .. } => "win_lock",
            };
            return Poll::Ready(Err(VpceError::PeerFailure {
                msg: format!("{site} poisoned: a peer rank panicked"),
            }));
        }
        if st.status[rank] == Status::Running {
            st.status[rank] = Status::Waiting(reason);
            if let Some(graph) = st.stalled(rank) {
                return Poll::Ready(Err(VpceError::DeadlockStall { graph }));
            }
        }
        Poll::Pending
    }

    /// Stop as `rank` until `reason` is ready; the guard it comes back
    /// with is the one the condition was read under. No lock is held
    /// while the rank is suspended.
    async fn wait(&self, rank: usize, reason: Reason) -> Result<MutexGuard<'_, State>, VpceError> {
        poll_fn(|_| self.poll(rank, reason)).await
    }

    /// Sleep until one of `ranks` (the ranks this thread carries, all of
    /// them pending) can be polled to some effect, or the run failed.
    pub(crate) fn park(&self, ranks: &[usize]) {
        let mut st = self.state.lock();
        while !st.failed && !ranks.iter().any(|&r| st.runnable(r)) {
            st = wait(&self.cv, st);
        }
    }

    /// `rank`'s SPMD closure returned: it will never wait again, and it
    /// will never wake anyone either.
    pub(crate) fn finish(&self, rank: usize) -> Result<(), VpceError> {
        let mut st = self.state.lock();
        if st.epochs.values().any(|e| e.holder == Some(rank)) {
            return Err(VpceError::LockState {
                msg: format!("rank {rank} finished holding window locks"),
            });
        }
        st.status[rank] = Status::Done;
        st.stalled(rank).map_or(Ok(()), |graph| Err(VpceError::DeadlockStall { graph }))
    }

    /// A rank died: wake every waiter, which then leaves with
    /// `PeerFailure` instead of sleeping forever. True for the run's
    /// first failure — the root cause; every later one can be its echo.
    pub(crate) fn fail(&self) -> bool {
        let first = !std::mem::replace(&mut self.state.lock().failed, true);
        self.cv.notify_all();
        first
    }

    /// Enter the rendezvous as `rank` with `input`. When the last rank
    /// arrives, its `leader` closure maps the full input vector to one
    /// output per rank; every rank returns its own output.
    ///
    /// All ranks must pass behaviourally identical leaders (the code is
    /// SPMD, so they do).
    pub(crate) async fn run<T, R, F>(
        &self,
        rank: usize,
        input: T,
        leader: F,
    ) -> Result<R, VpceError>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: FnOnce(Vec<T>) -> Result<Vec<R>, VpceError>,
    {
        // Arrive in the current generation; the last arriver completes
        // it. Then everyone — the leader at once — leaves when it is
        // complete.
        let gen = {
            let mut st = self.state.lock();
            debug_assert!(st.inputs[rank].is_none(), "rank {rank} re-entered");
            st.inputs[rank] = Some(Box::new(input));
            st.arrived += 1;
            let (n, gen) = (st.status.len(), st.generation);
            if st.arrived == n {
                // Leader: drain inputs in rank order, produce outputs.
                let inputs: Vec<T> = st
                    .inputs
                    .iter_mut()
                    .map(|s| *s.take().unwrap().downcast::<T>().expect("input type"))
                    .collect();
                let outputs = leader(inputs)?;
                if outputs.len() != n {
                    return Err(VpceError::Internal {
                        msg: format!("leader must emit one output per rank: {} != {n}", outputs.len()),
                    });
                }
                for (slot, out) in st.outputs.iter_mut().zip(outputs) {
                    *slot = Some(Box::new(out));
                }
                st.arrived = 0;
                st.generation = gen.wrapping_add(1);
                self.cv.notify_all();
            }
            gen
        };
        let mut st = self.wait(rank, Reason::Collective { gen }).await?;
        Ok(*st.outputs[rank]
            .take()
            .expect("output present")
            .downcast::<R>()
            .expect("output type"))
    }

    /// Enqueue a message (eager send: the sender does not wait).
    pub(crate) fn post(&self, src: usize, dst: usize, tag: i32, msg: Message) {
        self.state.lock().queues.entry((src, dst, tag)).or_default().push_back(msg);
        self.cv.notify_all();
    }

    /// Dequeue the oldest `(src, dst, tag)` message, waiting for one.
    pub(crate) async fn take(
        &self,
        src: usize,
        dst: usize,
        tag: i32,
    ) -> Result<Message, VpceError> {
        let mut st = self.wait(dst, Reason::Recv { src, tag }).await?;
        Ok(st
            .queues
            .get_mut(&(src, dst, tag))
            .and_then(VecDeque::pop_front)
            .expect("a ready receive has a queued message"))
    }

    /// Open `rank`'s exclusive epoch on `target`'s shard of `win`,
    /// waiting for the current holder to release it; which of several
    /// waiters is granted next is scheduling order. Returns the virtual time
    /// the previous epoch closed at.
    pub(crate) async fn lock(
        &self,
        rank: usize,
        win: usize,
        target: usize,
    ) -> Result<f64, VpceError> {
        if self.holds(rank, win, target) {
            return Err(VpceError::LockState {
                msg: "window already locked by this rank".into(),
            });
        }
        let mut st = self.wait(rank, Reason::Lock { win, target }).await?;
        let epoch = st.epochs.entry((win, target)).or_default();
        epoch.holder = Some(rank);
        Ok(epoch.last_release)
    }

    /// Close the epoch at virtual time `now`.
    pub(crate) fn unlock(&self, rank: usize, win: usize, target: usize, now: f64) -> Result<(), VpceError> {
        let mut st = self.state.lock();
        let Some(epoch) = st.epochs.get_mut(&(win, target)).filter(|e| e.holder == Some(rank)) else {
            return Err(VpceError::LockState { msg: "unlock without lock".into() });
        };
        *epoch = Epoch { holder: None, last_release: now };
        drop(st);
        self.cv.notify_all();
        Ok(())
    }

    /// Whether `rank` is inside a lock epoch on `target`'s shard.
    pub(crate) fn holds(&self, rank: usize, win: usize, target: usize) -> bool {
        self.state.lock().holder(win, target) == Some(rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::future::Future;
    use std::pin::Pin;
    use std::task::{Context, Waker};

    /// Poll `ranks` round-robin on this thread until every one is done:
    /// the whole rendezvous on one OS thread.
    fn drive<'a, T>(ranks: Vec<Pin<Box<dyn Future<Output = T> + 'a>>>) -> Vec<T> {
        let mut cx = Context::from_waker(Waker::noop());
        let mut ranks: Vec<_> = ranks.into_iter().map(Some).collect();
        let mut outs: Vec<Option<T>> = ranks.iter().map(|_| None).collect();
        while outs.iter().any(Option::is_none) {
            for (slot, out) in ranks.iter_mut().zip(&mut outs) {
                if let Some(Poll::Ready(v)) = slot.as_mut().map(|f| f.as_mut().poll(&mut cx)) {
                    (*slot, *out) = (None, Some(v));
                }
            }
        }
        outs.into_iter().flatten().collect()
    }

    /// The value of an operation that must neither wait nor fail.
    fn now<T>(op: impl Future<Output = Result<T, VpceError>>) -> T {
        drive(vec![Box::pin(op)]).pop().unwrap().unwrap()
    }

    fn msg() -> Message {
        Message { data: vec![1.0], ready: 0.0 }
    }

    /// Put `rank` in `status` without sleeping a thread on it.
    fn set(b: &Blocking, rank: usize, status: Status) {
        b.state.lock().status[rank] = status;
    }

    fn stalled(b: &Blocking) -> Option<String> {
        b.state.lock().stalled(0)
    }

    #[test]
    fn running_rank_vetoes_stall() {
        let b = Blocking::new(2);
        set(&b, 0, Status::Waiting(Reason::Recv { src: 1, tag: 0 }));
        assert!(stalled(&b).is_none(), "rank 1 still running");
    }

    #[test]
    fn satisfied_condition_vetoes_stall() {
        let b = Blocking::new(2);
        b.post(1, 0, 7, msg());
        let waiting = Status::Waiting(Reason::Recv { src: 1, tag: 7 });
        set(&b, 0, waiting);
        set(&b, 1, Status::Done);
        assert!(stalled(&b).is_none(), "message is available");
        now(b.take(1, 0, 7));
        set(&b, 0, waiting);
        assert!(stalled(&b).is_some(), "now genuinely stuck");
    }

    #[test]
    fn done_plus_blocked_is_a_stall() {
        let b = Blocking::new(2);
        set(&b, 0, Status::Done);
        set(&b, 1, Status::Waiting(Reason::Recv { src: 0, tag: 3 }));
        let g = stalled(&b).expect("stalled");
        assert!(g.contains("rank 0: finished"), "{g}");
        assert!(g.contains("rank 1: blocked in recv(src=0, tag=3)"), "{g}");
    }

    #[test]
    fn collective_generation_advance_vetoes_stall() {
        let b = Blocking::new(2);
        set(&b, 0, Status::Waiting(Reason::Collective { gen: 0 }));
        set(&b, 1, Status::Done);
        assert!(stalled(&b).is_some(), "generation 0 never completes");
        b.state.lock().generation = 1;
        assert!(stalled(&b).is_none(), "rank 0 was woken, not scheduled yet");
    }

    #[test]
    fn released_lock_vetoes_stall_and_a_held_one_names_its_holder() {
        let b = Blocking::new(2);
        assert_eq!(now(b.lock(1, 4, 0)), 0.0, "a fresh shard was never released");
        assert!(b.holds(1, 4, 0) && !b.holds(0, 4, 0));
        set(&b, 0, Status::Waiting(Reason::Lock { win: 4, target: 0 }));
        set(&b, 1, Status::Waiting(Reason::Collective { gen: 0 }));
        let g = stalled(&b).expect("holder waits in a collective");
        assert!(g.contains("rank 0: blocked in win_lock(win=4, target=0) - held by rank 1"), "{g}");
        set(&b, 1, Status::Running);
        b.unlock(1, 4, 0, 2.5).unwrap();
        set(&b, 1, Status::Done);
        assert!(stalled(&b).is_none(), "rank 0 was woken, not scheduled yet");
        assert_eq!(now(b.lock(0, 4, 0)), 2.5, "the grant carries the release time");
    }

    #[test]
    fn failure_suppresses_stall_reports() {
        let b = Blocking::new(1);
        set(&b, 0, Status::Waiting(Reason::Recv { src: 0, tag: 0 }));
        assert!(stalled(&b).is_some());
        assert!(b.fail(), "the first failure is the root cause");
        assert!(stalled(&b).is_none());
        assert!(!b.fail(), "a second one is not");
    }

    #[test]
    fn all_done_is_not_a_stall() {
        let b = Blocking::new(2);
        b.finish(0).unwrap();
        b.finish(1).unwrap();
        assert!(stalled(&b).is_none());
    }

    #[test]
    fn sums_inputs_for_everyone() {
        let c = Blocking::new(4);
        let ranks = (0..4).map(|r| {
            Box::pin(c.run(r, r as u64 + 1, |xs| Ok(vec![xs.iter().sum::<u64>(); 4])))
                as Pin<Box<dyn Future<Output = Result<u64, VpceError>>>>
        });
        assert_eq!(drive(ranks.collect()), vec![Ok(10); 4]);
    }

    #[test]
    fn per_rank_outputs_routed_correctly() {
        let c = Blocking::new(3);
        let ranks = (0..3).map(|r| {
            Box::pin(c.run(r, r, |xs| Ok(xs.iter().map(|x| x * 10).collect())))
                as Pin<Box<dyn Future<Output = Result<usize, VpceError>>>>
        });
        assert_eq!(drive(ranks.collect()), vec![Ok(0), Ok(10), Ok(20)]);
    }

    #[test]
    fn reusable_across_generations() {
        let c = Blocking::new(2);
        let rank = |r: usize| {
            let c = &c;
            Box::pin(async move {
                let mut acc = 0u64;
                for round in 0..100u64 {
                    let leader = |xs: Vec<u64>| Ok(vec![(xs[0] + xs[1]) % 1_000_003; 2]);
                    acc = c.run(r, (acc + round) % 1_000_003, leader).await.unwrap();
                }
                acc
            }) as Pin<Box<dyn Future<Output = u64> + '_>>
        };
        let a = drive(vec![rank(0), rank(1)]);
        assert_eq!(a[0], a[1]);
    }

    #[test]
    fn single_participant_runs_leader_inline() {
        let c = Blocking::new(1);
        let out = now(c.run(0, 7, |xs| Ok(vec![xs[0] * 2])));
        assert_eq!(out, 14);
    }

    #[test]
    fn a_pending_rank_is_parked_until_it_is_runnable_or_the_run_failed() {
        let b = Blocking::new(2);
        let mut cx = Context::from_waker(Waker::noop());
        let mut recv = Box::pin(b.take(1, 0, 3));
        assert!(recv.as_mut().poll(&mut cx).is_pending());
        assert!(!b.state.lock().runnable(0), "nothing posted yet");
        b.post(1, 0, 3, msg());
        b.park(&[0]); // returns: the message is there
        assert!(recv.as_mut().poll(&mut cx).is_ready());
        let mut again = Box::pin(b.take(1, 0, 3));
        assert!(again.as_mut().poll(&mut cx).is_pending());
        b.fail();
        b.park(&[0]); // returns: the run failed
    }
}
