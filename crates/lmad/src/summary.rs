//! Summary sets: classified access regions per program section (§4.2).
//!
//! "A summary set is a symbolic description of a set of memory
//! locations that are accessed in a certain program section. … we
//! group them according to their access types and add each group to
//! the appropriate summary set."
//!
//! The three classes drive the whole scatter/collect scheme of §5.4:
//!
//! * `ReadOnly`   → data-scattering only;
//! * `WriteFirst` → data-collecting only;
//! * `ReadWrite`  → both.
//!
//! Classification is conservative: when the region algebra cannot
//! prove a `WriteFirst`, the region degrades to `ReadWrite`, which
//! costs extra communication but never correctness.

use std::collections::BTreeMap;
use std::fmt;

use crate::descriptor::Lmad;

/// Identifier of an array symbol (assigned by the front-end).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub usize);

/// The §4.2 access classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessClass {
    /// "Regions accessed by only read operations."
    ReadOnly,
    /// "Regions accessed by a write operation first and then … read or
    /// write."
    WriteFirst,
    /// "Regions accessed by a read operation first and then … read or
    /// write."
    ReadWrite,
}

impl AccessClass {
    /// Does this class require data-scattering (master → slaves) at
    /// region entry?
    pub fn needs_scatter(self) -> bool {
        matches!(self, AccessClass::ReadOnly | AccessClass::ReadWrite)
    }

    /// Does this class require data-collecting (slaves → master) at
    /// region exit?
    pub fn needs_collect(self) -> bool {
        matches!(self, AccessClass::WriteFirst | AccessClass::ReadWrite)
    }
}

impl fmt::Display for AccessClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessClass::ReadOnly => "ReadOnly",
            AccessClass::WriteFirst => "WriteFirst",
            AccessClass::ReadWrite => "ReadWrite",
        };
        f.write_str(s)
    }
}

/// One classified region of one array.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryEntry {
    pub lmad: Lmad,
    pub class: AccessClass,
}

/// The summary set of a program section: classified LMADs per array.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SummarySet {
    entries: BTreeMap<ArrayId, Vec<SummaryEntry>>,
}

impl SummarySet {
    /// Empty set.
    pub fn new() -> Self {
        SummarySet::default()
    }

    /// Arrays mentioned by the section.
    pub fn arrays(&self) -> impl Iterator<Item = ArrayId> + '_ {
        self.entries.keys().copied()
    }

    /// Entries for one array (empty slice if untouched).
    pub fn of(&self, a: ArrayId) -> &[SummaryEntry] {
        self.entries.get(&a).map(Vec::as_slice).unwrap_or(&[])
    }

    /// True when the section touches no arrays.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Record a read of `region` on array `a`, sequenced *after*
    /// everything already in this set.
    ///
    /// A read fully covered by an earlier `WriteFirst` region reads
    /// locally produced values and adds nothing; an uncovered read is
    /// `ReadOnly`.
    pub fn add_read(&mut self, a: ArrayId, region: Lmad) {
        let list = self.entries.entry(a).or_default();
        let covered = list.iter().any(|e| {
            e.class == AccessClass::WriteFirst && e.lmad.contains_all(&region, 4096)
        });
        if covered {
            return;
        }
        list.push(SummaryEntry {
            lmad: region,
            class: AccessClass::ReadOnly,
        });
    }

    /// Record a write of `region` on array `a`, sequenced after
    /// everything already in the set.
    ///
    /// Earlier reads overlapping the write promote to `ReadWrite`; the
    /// written region itself is `WriteFirst` unless it was read
    /// earlier.
    pub fn add_write(&mut self, a: ArrayId, region: Lmad) {
        let list = self.entries.entry(a).or_default();
        let mut read_before = false;
        for e in list.iter_mut() {
            if e.lmad.overlaps(&region) {
                if e.class == AccessClass::ReadOnly {
                    e.class = AccessClass::ReadWrite;
                }
                if e.class != AccessClass::WriteFirst && e.lmad.contains_all(&region, 4096) {
                    read_before = true;
                }
            }
        }
        if read_before {
            // The covering entry is already ReadWrite; no new entry.
            return;
        }
        list.push(SummaryEntry {
            lmad: region,
            class: AccessClass::WriteFirst,
        });
    }

    /// Expansion with regard to a loop index (§4.2): every LMAD gains
    /// a dimension of `per_iter` stride over `count` iterations.
    /// Classification is preserved — the per-iteration classes remain
    /// correct summaries of the whole loop when iterations touch
    /// disjoint regions, and conservatively degrade is handled by the
    /// dependence test before this is used across iterations.
    pub fn expanded(&self, per_iter_of: impl Fn(ArrayId) -> i64, count: u64) -> SummarySet {
        let mut out = SummarySet::new();
        for (&a, list) in &self.entries {
            let per = per_iter_of(a);
            out.entries.insert(
                a,
                list.iter()
                    .map(|e| SummaryEntry {
                        lmad: e.lmad.expanded(per, count),
                        class: e.class,
                    })
                    .collect(),
            );
        }
        out
    }

    /// Sequential composition: `self` then `later` (integrating the
    /// summary sets of consecutive statements into the enclosing
    /// section's set, §4.2).
    pub fn then(&self, later: &SummarySet) -> SummarySet {
        let mut out = self.clone();
        for (&a, list) in &later.entries {
            for e in list {
                match e.class {
                    AccessClass::ReadOnly => out.add_read(a, e.lmad.clone()),
                    AccessClass::WriteFirst => out.add_write(a, e.lmad.clone()),
                    AccessClass::ReadWrite => {
                        out.add_read(a, e.lmad.clone());
                        out.add_write(a, e.lmad.clone());
                    }
                }
            }
        }
        out
    }

    /// The effective class of array `a` over the whole section,
    /// folding its entries: any `ReadWrite` (or a mix of reads and
    /// writes of distinct overlap-free regions) dominates.
    pub fn class_of(&self, a: ArrayId) -> Option<AccessClass> {
        let list = self.entries.get(&a)?;
        let mut any_read = false;
        let mut any_write = false;
        for e in list {
            match e.class {
                AccessClass::ReadOnly => any_read = true,
                AccessClass::WriteFirst => any_write = true,
                AccessClass::ReadWrite => return Some(AccessClass::ReadWrite),
            }
        }
        Some(match (any_read, any_write) {
            (true, false) => AccessClass::ReadOnly,
            (false, true) => AccessClass::WriteFirst,
            // Disjoint read and write regions: scatter the read part,
            // collect the written part — summarised as ReadWrite at
            // the array granularity.
            (true, true) => AccessClass::ReadWrite,
            (false, false) => unreachable!("entry lists are non-empty"),
        })
    }

    /// Regions of `a` that need scattering / collecting.
    pub fn scatter_regions(&self, a: ArrayId) -> Vec<&Lmad> {
        self.of(a)
            .iter()
            .filter(|e| e.class.needs_scatter())
            .map(|e| &e.lmad)
            .collect()
    }

    /// See [`SummarySet::scatter_regions`].
    pub fn collect_regions(&self, a: ArrayId) -> Vec<&Lmad> {
        self.of(a)
            .iter()
            .filter(|e| e.class.needs_collect())
            .map(|e| &e.lmad)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::Dim;

    const A: ArrayId = ArrayId(0);
    const B: ArrayId = ArrayId(1);

    #[test]
    fn figure5_statement_summaries() {
        // Statement (1): A(I,J,K) written -> WriteFirst.
        // Statement (2): B(I,2*J,K+1) read -> ReadOnly.
        let mut s1 = SummarySet::new();
        s1.add_write(A, Lmad::scalar(0));
        assert_eq!(s1.class_of(A), Some(AccessClass::WriteFirst));
        let mut s2 = SummarySet::new();
        s2.add_read(B, Lmad::scalar(0));
        assert_eq!(s2.class_of(B), Some(AccessClass::ReadOnly));
    }

    #[test]
    fn write_then_read_stays_writefirst() {
        // X(i) = ...; ... = X(i): the read sees the local write.
        let mut s = SummarySet::new();
        s.add_write(A, Lmad::contiguous(0, 10));
        s.add_read(A, Lmad::contiguous(0, 10));
        assert_eq!(s.class_of(A), Some(AccessClass::WriteFirst));
        assert_eq!(s.of(A).len(), 1);
    }

    #[test]
    fn read_then_write_becomes_readwrite() {
        // s = X(i); X(i) = s + 1.
        let mut s = SummarySet::new();
        s.add_read(A, Lmad::contiguous(0, 10));
        s.add_write(A, Lmad::contiguous(0, 10));
        assert_eq!(s.class_of(A), Some(AccessClass::ReadWrite));
    }

    #[test]
    fn disjoint_read_and_write_regions() {
        // Read the top half, write the bottom half.
        let mut s = SummarySet::new();
        s.add_read(A, Lmad::contiguous(0, 5));
        s.add_write(A, Lmad::contiguous(5, 5));
        // Array-level summary is ReadWrite, but the per-region plans
        // stay tight:
        assert_eq!(s.class_of(A), Some(AccessClass::ReadWrite));
        assert_eq!(s.scatter_regions(A), vec![&Lmad::contiguous(0, 5)]);
        assert_eq!(s.collect_regions(A), vec![&Lmad::contiguous(5, 5)]);
    }

    #[test]
    fn read_covered_by_earlier_write_adds_nothing() {
        let mut s = SummarySet::new();
        s.add_write(A, Lmad::contiguous(0, 100));
        s.add_read(A, Lmad::strided(0, 2, 50));
        assert_eq!(s.of(A).len(), 1);
        assert_eq!(s.class_of(A), Some(AccessClass::WriteFirst));
    }

    #[test]
    fn partial_write_over_read_keeps_both() {
        let mut s = SummarySet::new();
        s.add_read(A, Lmad::contiguous(0, 4));
        s.add_write(A, Lmad::contiguous(2, 6)); // overlaps the tail
        assert_eq!(s.class_of(A), Some(AccessClass::ReadWrite));
    }

    #[test]
    fn expansion_matches_figure5_loop_i() {
        // Per-iteration (I fixed): A written at I-dependent offset with
        // unit stride contribution, 100 iterations.
        let mut stmt = SummarySet::new();
        stmt.add_write(A, Lmad::scalar(0));
        stmt.add_read(B, Lmad::scalar(0));
        let loop_i = stmt.expanded(|_| 1, 100);
        assert_eq!(loop_i.of(A)[0].lmad, Lmad::contiguous(0, 100));
        assert_eq!(loop_i.of(A)[0].class, AccessClass::WriteFirst);
        assert_eq!(loop_i.of(B)[0].class, AccessClass::ReadOnly);
    }

    #[test]
    fn expansion_with_per_array_strides() {
        let mut stmt = SummarySet::new();
        stmt.add_write(A, Lmad::scalar(0));
        stmt.add_read(B, Lmad::scalar(0));
        let per = |a: ArrayId| if a == A { 1 } else { 2 };
        let l = stmt.expanded(per, 10);
        assert_eq!(l.of(A)[0].lmad, Lmad::contiguous(0, 10));
        assert_eq!(l.of(B)[0].lmad, Lmad::strided(0, 2, 10));
    }

    #[test]
    fn then_composes_sequences() {
        // Loop 1 writes A; loop 2 reads A: across the section, A's
        // written region covers the read -> WriteFirst overall.
        let mut l1 = SummarySet::new();
        l1.add_write(A, Lmad::contiguous(0, 50));
        let mut l2 = SummarySet::new();
        l2.add_read(A, Lmad::contiguous(0, 50));
        l2.add_read(B, Lmad::contiguous(0, 8));
        let seq = l1.then(&l2);
        assert_eq!(seq.class_of(A), Some(AccessClass::WriteFirst));
        assert_eq!(seq.class_of(B), Some(AccessClass::ReadOnly));
    }

    #[test]
    fn then_promotes_read_write_across_sections() {
        let mut l1 = SummarySet::new();
        l1.add_read(A, Lmad::contiguous(0, 10));
        let mut l2 = SummarySet::new();
        l2.add_write(A, Lmad::contiguous(0, 10));
        assert_eq!(l1.then(&l2).class_of(A), Some(AccessClass::ReadWrite));
    }

    #[test]
    fn class_flags_drive_scatter_collect() {
        assert!(AccessClass::ReadOnly.needs_scatter());
        assert!(!AccessClass::ReadOnly.needs_collect());
        assert!(!AccessClass::WriteFirst.needs_scatter());
        assert!(AccessClass::WriteFirst.needs_collect());
        assert!(AccessClass::ReadWrite.needs_scatter());
        assert!(AccessClass::ReadWrite.needs_collect());
    }

    #[test]
    fn multi_dim_entries_roundtrip() {
        let region = Lmad::new(5, vec![Dim::new(1, 4), Dim::new(14, 3)]);
        let mut s = SummarySet::new();
        s.add_write(A, region.clone());
        assert_eq!(s.collect_regions(A), vec![&region]);
        assert_eq!(s.arrays().collect::<Vec<_>>(), vec![A]);
    }
}
