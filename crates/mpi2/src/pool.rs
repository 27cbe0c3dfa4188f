//! Per-rank registered buffer pools for the eager protocol.
//!
//! Each rank owns a fixed arena of pre-registered slots (the MPICH2-
//! over-InfiniBand "pre-posted RDMA buffers"). An eager PUT stages its
//! payload into a slot at issue time; the slot stays pinned — so a
//! retransmit can replay straight out of it — until the closing fence
//! has drained the wire transfer *and* the piggy-backed ack window has
//! passed. All bookkeeping is allocation-free after construction: the
//! free list is a pre-sized LIFO, in-flight slots are tracked in a
//! pre-sized vector, and a slot buffer is allocated at its first staging
//! copy and grows only to the longest payload staged into it — so a rank
//! that never sends eagerly (most of a 16 384-rank run) registers
//! nothing, and one that stages a few hundred bytes touches a few
//! hundred bytes. Virtual time charges the registered slot size all the
//! same ([`PoolSnapshot::slot_bytes`]).
//!
//! Pools are **per origin rank** on purpose: a shared cross-rank pool
//! would hand out slots in OS-scheduling order and break virtual-time
//! determinism. Per-rank pools see only their own rank's deterministic
//! acquire/release sequence.

use crate::Elem;

/// One rank's registered slot arena.
pub(crate) struct BufferPool {
    /// Slot storage, each as long as the longest payload staged into
    /// it (at most `slot_elems`).
    slots: Vec<Vec<Elem>>,
    /// Free slot indices, LIFO.
    free: Vec<usize>,
    /// Slots drained onto the wire but still pinned until `free_at`
    /// (retransmit window): `(free_at, slot)`.
    inflight: Vec<(f64, usize)>,
    /// Most slots simultaneously out of the free list.
    hwm: usize,
    slot_elems: usize,
}

/// End-of-run pool accounting, one per rank in
/// [`crate::RunOutcome::pool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Registered slots in the arena.
    pub slots: usize,
    /// Bytes per slot.
    pub slot_bytes: usize,
    /// High-water mark: most slots simultaneously in use.
    pub hwm: usize,
    /// Slots that never returned to the free list (0 for any program
    /// that fences its pending operations).
    pub leaked: usize,
}

impl BufferPool {
    pub(crate) fn new(slots: usize, slot_elems: usize) -> Self {
        BufferPool {
            slots: vec![Vec::new(); slots],
            free: (0..slots).rev().collect(),
            inflight: Vec::with_capacity(slots),
            hwm: 0,
            slot_elems,
        }
    }

    /// Move every in-flight slot whose pin window has passed back to
    /// the free list.
    pub(crate) fn reclaim(&mut self, now: f64) {
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].0 <= now {
                let (_, slot) = self.inflight.swap_remove(i);
                self.free.push(slot);
            } else {
                i += 1;
            }
        }
    }

    /// Acquire a slot at virtual time `now`. Returns `(slot, wait_s)`:
    /// `wait_s` is 0 when a slot was free, or the backpressure stall
    /// until the earliest in-flight slot unpins. `None` means the pool
    /// is exhausted with nothing scheduled to free — the caller falls
    /// back to rendezvous.
    pub(crate) fn acquire(&mut self, now: f64) -> Option<(usize, f64)> {
        self.reclaim(now);
        if let Some(slot) = self.free.pop() {
            self.note_hwm();
            return Some((slot, 0.0));
        }
        // Backpressure: wait for the earliest unpin.
        let best = self
            .inflight
            .iter()
            .enumerate()
            .min_by(|a, b| {
                (a.1 .0, a.1 .1)
                    .partial_cmp(&(b.1 .0, b.1 .1))
                    .expect("pin times are finite")
            })
            .map(|(i, _)| i)?;
        let (free_at, slot) = self.inflight.swap_remove(best);
        self.note_hwm();
        Some((slot, free_at - now))
    }

    fn note_hwm(&mut self) {
        let in_use = self.slots.len() - self.free.len() - self.inflight.len();
        self.hwm = self.hwm.max(in_use);
    }

    /// Return a drained slot to the pool, pinned until `free_at`.
    pub(crate) fn release(&mut self, slot: usize, free_at: f64) {
        debug_assert!(slot < self.slots.len());
        self.inflight.push((free_at, slot));
    }

    /// The staged payload of a held slot.
    pub(crate) fn slot_data(&self, slot: usize, len: usize) -> &[Elem] {
        &self.slots[slot][..len]
    }

    /// The first `len` elements of a held slot, for the issue-time
    /// staging copy. The slot grows to `len` if it is shorter.
    pub(crate) fn slot_mut(&mut self, slot: usize, len: usize) -> &mut [Elem] {
        assert!(
            len <= self.slot_elems,
            "{len} elements overflow a {}-element slot",
            self.slot_elems
        );
        let buf = &mut self.slots[slot];
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        &mut buf[..len]
    }

    /// Slots currently out of the free list (held or pinned).
    #[cfg(test)]
    pub(crate) fn in_use(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    pub(crate) fn hwm(&self) -> usize {
        self.hwm
    }

    #[cfg(test)]
    pub(crate) fn slot_elems(&self) -> usize {
        self.slot_elems
    }

    /// Final accounting: reclaim everything whose pin window ever
    /// expires, then report what never came back.
    pub(crate) fn snapshot_final(&mut self) -> PoolSnapshot {
        self.reclaim(f64::MAX);
        PoolSnapshot {
            slots: self.slots.len(),
            slot_bytes: self.slot_elems * crate::ELEM_BYTES,
            hwm: self.hwm,
            leaked: self.slots.len() - self.free.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_roundtrip_returns_to_full() {
        let mut p = BufferPool::new(4, 8);
        let mut held = Vec::new();
        for _ in 0..4 {
            let (s, w) = p.acquire(0.0).expect("free slot");
            assert_eq!(w, 0.0);
            held.push(s);
        }
        assert_eq!(p.in_use(), 4);
        assert_eq!(p.hwm(), 4);
        for s in held {
            p.release(s, 1.0);
        }
        let snap = p.snapshot_final();
        assert_eq!(snap.leaked, 0);
        assert_eq!(snap.hwm, 4);
        assert_eq!(snap.slots, 4);
        assert_eq!(snap.slot_bytes, 64);
    }

    #[test]
    fn exhausted_pool_waits_for_earliest_unpin() {
        let mut p = BufferPool::new(2, 4);
        let (a, _) = p.acquire(0.0).unwrap();
        let (b, _) = p.acquire(0.0).unwrap();
        p.release(a, 5.0);
        p.release(b, 3.0);
        // Nothing free at t=1: backpressure until the earliest unpin.
        let (slot, wait) = p.acquire(1.0).expect("inflight slot to wait on");
        assert_eq!(slot, b);
        assert!((wait - 2.0).abs() < 1e-12);
        // Next acquire waits on the remaining pin.
        let (slot, wait) = p.acquire(1.0).expect("second inflight slot");
        assert_eq!(slot, a);
        assert!((wait - 4.0).abs() < 1e-12);
        // Truly empty now.
        assert!(p.acquire(1.0).is_none());
    }

    #[test]
    fn expired_pins_are_free_without_wait() {
        let mut p = BufferPool::new(1, 4);
        let (s, _) = p.acquire(0.0).unwrap();
        p.release(s, 2.0);
        let (s2, wait) = p.acquire(10.0).unwrap();
        assert_eq!(s2, s);
        assert_eq!(wait, 0.0);
    }

    #[test]
    fn zero_slot_pool_always_falls_back() {
        let mut p = BufferPool::new(0, 4);
        assert!(p.acquire(0.0).is_none());
        assert_eq!(p.snapshot_final().leaked, 0);
    }

    #[test]
    fn staging_copy_is_visible_through_slot_data() {
        let mut p = BufferPool::new(1, 8);
        let (s, _) = p.acquire(0.0).unwrap();
        p.slot_mut(s, 3).copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(p.slot_data(s, 3), &[1.0, 2.0, 3.0]);
        assert_eq!(p.slot_elems(), 8);
    }

    #[test]
    fn staging_k_elements_materialises_k() {
        let mut p = BufferPool::new(2, 2048);
        let (s, _) = p.acquire(0.0).unwrap();
        assert_eq!(p.slot_mut(s, 3).len(), 3);
        assert_eq!(p.slots[s].len(), 3, "three staged, three touched");
        p.slot_mut(s, 100);
        assert_eq!(p.slots[s].len(), 100);
        // A shorter payload reuses what the slot already holds.
        assert_eq!(p.slot_mut(s, 5).len(), 5);
        assert_eq!(p.slots[s].len(), 100);
        assert!(p.slots[1 - s].is_empty(), "an unstaged slot holds nothing");
        let snap = p.snapshot_final();
        assert_eq!(
            snap.slot_bytes,
            2048 * crate::ELEM_BYTES,
            "virtual time charges the registered size"
        );
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn a_payload_longer_than_a_slot_is_refused() {
        let mut p = BufferPool::new(1, 8);
        let (s, _) = p.acquire(0.0).unwrap();
        p.slot_mut(s, 9);
    }
}
