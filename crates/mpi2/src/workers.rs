//! The host's worker threads: how many cores there are, and the one
//! place that starts threads.
//!
//! Three things run on more than one OS thread: the rank tasks of a
//! universe ([`crate::Universe::run_on`]), the job scheduler's
//! admission pass (`vpce_sched::Runner::prepare_all`), which compiles
//! and dry-runs a session's distinct jobs side by side, and the
//! sequential reference of a `Full` run (`spmd_rt::with_reference`),
//! which [`join`]s the parallel run on a host of two or more cores. All
//! start their threads through [`scoped`] and size themselves from
//! [`cores`]. None lets the count reach a result: the rank engine folds
//! every collective in rank order, [`map`] hands its results back in
//! item order, and [`join`] returns its pair in argument order.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Cores this process may run on. The one place that asks the host.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `work(w)` for every worker `w` in `0..workers`, each on its own
/// thread, the calling thread being worker 0 (one worker spawns
/// nothing). Returns the results in worker order once every worker is
/// done; a worker's panic goes on unwinding on the calling thread.
pub fn scoped<T: Send>(workers: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let work = &work;
        let spawned: Vec<_> = (1..workers).map(|w| scope.spawn(move || work(w))).collect();
        let mut out = vec![work(0)];
        out.extend(
            spawned
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| resume_unwind(p))),
        );
        out
    })
}

/// `f` over every item of `items` on up to `workers` threads
/// ([`scoped`]): each takes the next unclaimed item until none is left,
/// so a slow item holds up one thread, not a share of the list. The
/// results come back in item order, whichever thread computed them.
pub fn map<T: Sync, U: Send>(workers: usize, items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, U)> = scoped(workers.clamp(1, items.len().max(1)), |_| {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return mine;
            };
            mine.push((i, f(item)));
        }
    })
    .into_iter()
    .flatten()
    .collect();
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, u)| u).collect()
}

/// `a()` on the calling thread and `b()` on a second worker
/// ([`scoped`]), at the same time; returns `(a(), b())` once both are
/// done. A panic on either side goes on unwinding on the calling
/// thread, after the other side has finished.
pub fn join<A: Send, B: Send>(
    a: impl FnOnce() -> A + Send,
    b: impl FnOnce() -> B + Send,
) -> (A, B) {
    fn take<F>(side: &Mutex<Option<F>>) -> F {
        let mut side = side.lock().expect("no panic happens while a side is locked");
        side.take().expect("each side is taken once, by the worker that runs it")
    }
    let (a, b) = (Mutex::new(Some(a)), Mutex::new(Some(b)));
    let mut out = scoped(2, |w| {
        if w == 0 {
            (Some(take(&a)()), None)
        } else {
            (None, Some(take(&b)()))
        }
    })
    .into_iter();
    let (Some((Some(a), _)), Some((_, Some(b)))) = (out.next(), out.next()) else {
        unreachable!("scoped returns one result per worker, in worker order")
    };
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn map_returns_item_order_on_any_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        for workers in [0, 1, 2, 3, 200] {
            let out = map(workers, &items, |&x| x * x);
            assert_eq!(
                out,
                items.iter().map(|x| x * x).collect::<Vec<_>>(),
                "{workers}"
            );
        }
        assert!(map(2, &[] as &[u8], |_| ()).is_empty());
    }

    #[test]
    fn one_worker_is_the_calling_thread() {
        let me = std::thread::current().id();
        let ids = map(1, &[(); 8], |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == me));
        let ids: BTreeSet<_> = scoped(3, |_| format!("{:?}", std::thread::current().id()))
            .into_iter()
            .collect();
        assert_eq!(ids.len(), 3, "one thread per worker");
    }

    #[test]
    #[should_panic(expected = "item 5")]
    fn a_workers_panic_reaches_the_caller() {
        map(2, &[0, 1, 2, 3, 4, 5, 6], |&i| assert_ne!(i, 5, "item {i}"));
    }

    #[test]
    fn join_returns_both_results_in_argument_order() {
        let me = std::thread::current().id();
        let (a, b) = join(
            || (std::thread::current().id(), "a"),
            || (std::thread::current().id(), 2_u8),
        );
        assert_eq!(a, (me, "a"), "the first side runs on the calling thread");
        assert_eq!(b.1, 2);
        assert_ne!(b.0, me, "the second side runs on a worker of its own");
    }

    #[test]
    #[should_panic(expected = "first side")]
    fn a_panic_on_the_calling_side_of_a_join_reaches_the_caller() {
        join(|| panic!("first side"), || ());
    }

    #[test]
    #[should_panic(expected = "second side")]
    fn a_panic_on_the_worker_side_of_a_join_reaches_the_caller() {
        join(|| (), || panic!("second side"));
    }
}
