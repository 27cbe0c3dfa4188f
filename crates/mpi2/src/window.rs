//! Memory windows (`MPI_WIN_CREATE`).
//!
//! A window exposes a per-rank `Vec<f64>` to remote PUT/GET. The owning
//! rank computes on its portion directly through [`WindowRef`]; remote
//! ranks reach it only through RMA calls, whose effects materialise at
//! the closing fence (active target) or under a lock (passive target).
//!
//! §5.1: "we create a memory window … which is a portion of the private
//! memory of a local process that can be accessed by remote processes
//! without intervention of the local process."
//!
//! A shard comes in two forms. A **backed** shard owns `len` zeroed
//! elements. A **length-only** shard (`Mpi::win_create_length_only`)
//! has the same declared `len` — so bounds checks, the conflict ledger,
//! pricing, protocol choice and every wire leg are those of a backed
//! shard — and no storage: it is what a run that simulates the traffic
//! without computing on the data creates. The one rule, asked through
//! [`WindowTable::moves_values`]: a one-sided operation moves values
//! iff both the origin's and the target's shard are backed. Ranks may
//! mix forms in one collective, as they may pass different lengths.

use std::sync::{Arc, MutexGuard};

use crate::sync::Mutex;
use crate::Elem;

/// Identifier of a window, dense from zero in creation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WinId(pub usize);

/// A window: one shard per rank.
pub(crate) struct Window {
    /// `(len, backed)` of every rank's shard — the declared length, and
    /// whether storage stands behind it. Fixed when the window is
    /// created and shared with every [`WindowRef`] to it, so the issue
    /// path reads a peer's form without asking the table.
    forms: Arc<[(usize, bool)]>,
    /// Every rank's storage: `len` elements, or none at all on a
    /// length-only shard.
    mems: Vec<Arc<Mutex<Vec<Elem>>>>,
}

/// The registry of all windows in a universe.
#[derive(Default)]
pub(crate) struct WindowTable {
    pub windows: Vec<Window>,
}

impl WindowTable {
    /// Register a window from one `(len, backed)` per rank: rank `r`'s
    /// shard declares `len` elements and, when backed, holds them
    /// zero-initialised.
    pub(crate) fn create(&mut self, forms: &[(usize, bool)]) -> WinId {
        let mems = forms
            .iter()
            .map(|&(len, backed)| Arc::new(Mutex::new(if backed { vec![0.0; len] } else { Vec::new() })))
            .collect();
        self.windows.push(Window { forms: forms.into(), mems });
        WinId(self.windows.len() - 1)
    }

    /// The storage of rank `rank`'s shard.
    pub(crate) fn mem(&self, win: WinId, rank: usize) -> &Mutex<Vec<Elem>> {
        &self.windows[win.0].mems[rank]
    }

    /// The owner's handle to rank `rank`'s shard.
    pub(crate) fn window_ref(&self, win: WinId, rank: usize) -> WindowRef {
        let window = &self.windows[win.0];
        WindowRef {
            win,
            rank,
            mem: Arc::clone(&window.mems[rank]),
            forms: Arc::clone(&window.forms),
        }
    }

    /// Whether a one-sided operation between ranks `a` and `b` on
    /// `win` moves values: both shards must be backed. Otherwise it is
    /// checked, priced, scheduled and traced all the same, and copies
    /// nothing.
    pub(crate) fn moves_values(&self, win: WinId, a: usize, b: usize) -> bool {
        let forms = &self.windows[win.0].forms;
        forms[a].1 && forms[b].1
    }
}

/// A handle to one rank's local shard of a window, used by the owning
/// rank for direct computation.
///
/// Locking is per *region of work*, not per element: the interpreter
/// acquires the guard once around a loop nest. Between fences only the
/// owner touches the shard, so the lock is uncontended.
#[derive(Clone)]
pub struct WindowRef {
    win: WinId,
    rank: usize,
    mem: Arc<Mutex<Vec<Elem>>>,
    /// `(len, backed)` of every rank's shard of this window.
    forms: Arc<[(usize, bool)]>,
}

impl WindowRef {
    /// The window this shard belongs to.
    pub fn id(&self) -> WinId {
        self.win
    }

    /// The owning rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of elements in this shard.
    pub fn len(&self) -> usize {
        self.shard_len(self.rank)
    }

    /// True if the shard holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Declared length of `rank`'s shard of this window.
    pub(crate) fn shard_len(&self, rank: usize) -> usize {
        self.forms[rank].0
    }

    /// [`WindowTable::moves_values`] of this window, without the table.
    pub(crate) fn moves_values(&self, a: usize, b: usize) -> bool {
        self.forms[a].1 && self.forms[b].1
    }

    /// Lock the shard for direct access by the owner. A length-only
    /// shard declares [`len`](Self::len) elements and stores none: its
    /// vector is empty. The interpreter holds one guard per array for
    /// the duration of a compute region; it MUST be dropped before any
    /// fence or collective (the fence leader locks shards to apply
    /// transfers).
    pub fn lock(&self) -> MutexGuard<'_, Vec<Elem>> {
        self.mem.lock()
    }

    /// Copy the whole shard out (convenience for tests). Empty for a
    /// length-only shard.
    pub fn snapshot(&self) -> Vec<Elem> {
        self.mem.lock().clone()
    }

    /// Move the contents out without copying them — result extraction
    /// from a dead window: the caller guarantees no operation touches
    /// this shard again. Empty for a length-only shard.
    pub fn take(&self) -> Vec<Elem> {
        std::mem::take(&mut self.mem.lock())
    }

    /// Overwrite the shard contents (convenience for initialisation).
    /// A length-only shard checks the length and keeps nothing.
    ///
    /// # Panics
    /// Panics if `data` does not match the shard length.
    pub fn fill_from(&self, data: &[Elem]) {
        assert_eq!(data.len(), self.len(), "fill_from length mismatch");
        if self.forms[self.rank].1 {
            self.mem.lock().copy_from_slice(data);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_assigns_dense_ids() {
        let mut t = WindowTable::default();
        let a = t.create(&[(4, true), (4, true)]);
        let b = t.create(&[(0, true), (8, true)]);
        assert_eq!(a, WinId(0));
        assert_eq!(b, WinId(1));
        assert_eq!(t.windows.len(), 2);
        assert_eq!(t.window_ref(b, 0).len(), 0);
        assert_eq!(t.window_ref(b, 1).len(), 8);
        // Every handle knows every rank's declared length.
        assert_eq!(t.window_ref(b, 0).shard_len(1), 8);
    }

    #[test]
    fn shards_zero_initialised() {
        let mut t = WindowTable::default();
        let w = t.create(&[(3, true)]);
        assert_eq!(&*t.mem(w, 0).lock(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn length_only_shard_keeps_its_length_and_no_storage() {
        let mut t = WindowTable::default();
        let w = t.create(&[(4, true), (1 << 40, false)]);
        assert_eq!(t.mem(w, 1).lock().capacity(), 0);
        assert!(t.moves_values(w, 0, 0));
        assert!(!t.moves_values(w, 0, 1) && !t.moves_values(w, 1, 0));
        let r = t.window_ref(w, 1);
        assert!(r.moves_values(0, 0) && !r.moves_values(0, 1) && !r.moves_values(1, 0));
        assert_eq!(r.len(), 1 << 40);
        assert!(!r.is_empty() && r.lock().is_empty());
        assert!(r.snapshot().is_empty() && r.take().is_empty());
    }

    #[test]
    fn length_only_fill_from_checks_length_and_keeps_nothing() {
        let mut t = WindowTable::default();
        let w = t.create(&[(2, false)]);
        let r = t.window_ref(w, 0);
        r.fill_from(&[1.0, 2.0]);
        assert!(r.lock().is_empty());
        let short = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.fill_from(&[1.0])));
        assert!(short.is_err(), "length is checked in both forms");
    }

    #[test]
    fn take_moves_the_contents_out() {
        let mut t = WindowTable::default();
        let w = t.create(&[(2, true)]);
        let r = t.window_ref(w, 0);
        r.fill_from(&[1.5, 2.5]);
        let ptr = r.lock().as_ptr();
        let out = r.take();
        assert_eq!(out, vec![1.5, 2.5]);
        assert_eq!(out.as_ptr(), ptr, "moved, not copied");
    }

    #[test]
    fn window_ref_roundtrip() {
        let mut t = WindowTable::default();
        let w = t.create(&[(2, true), (2, true)]);
        let r = t.window_ref(w, 1);
        r.fill_from(&[1.5, 2.5]);
        assert_eq!(r.snapshot(), vec![1.5, 2.5]);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn fill_from_checks_length() {
        let mut t = WindowTable::default();
        let w = t.create(&[(2, true)]);
        t.window_ref(w, 0).fill_from(&[1.0]);
    }
}
