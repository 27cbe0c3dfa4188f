//! Poison-transparent locking over `std::sync`.
//!
//! Poisoning is deliberately ignored: when a rank panics, the universe
//! sets the one `failed` flag of [`crate::blocking`] so peers leave *at
//! their next blocking call* with a meaningful error, and the first
//! failure's payload is re-raised once every rank has ended. A second,
//! uninformative `PoisonError` panic on an unrelated lock would only
//! obscure that.

use std::sync::{Condvar, MutexGuard, PoisonError};

/// A mutex whose `lock` never fails.
#[derive(Debug, Default)]
pub(crate) struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub(crate) fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquire the lock, ignoring poisoning.
    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Block on `cv` until notified (spurious wakeups possible — call in a
/// loop), releasing the guarded mutex meanwhile. Ignores poisoning.
pub(crate) fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn mutex_and_condvar_coordinate_threads() {
        let pair = Arc::new((Mutex::new(0usize), Condvar::new()));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let pair = Arc::clone(&pair);
            handles.push(std::thread::spawn(move || {
                let (m, cv) = &*pair;
                let mut g = m.lock();
                *g += 1;
                cv.notify_all();
                while *g < 4 {
                    g = wait(cv, g);
                }
                *g
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 4);
        }
    }

    #[test]
    fn poisoned_lock_is_transparent() {
        static ENTERED: AtomicUsize = AtomicUsize::new(0);
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        // Silence the expected panic's default report.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            ENTERED.fetch_add(1, Ordering::SeqCst);
            panic!("poison it");
        })
        .join();
        std::panic::set_hook(prev);
        assert_eq!(ENTERED.load(Ordering::SeqCst), 1);
        assert_eq!(*m.lock(), 7, "lock after poisoning still works");
    }
}
