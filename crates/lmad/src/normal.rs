//! A descriptor in normal form, computed once.
//!
//! Every exact question the crate answers — overlap, coverage, the
//! run walk — is asked of a descriptor's *normal form*
//! ([`Lmad::normalized`]: positive strides, ascending, coalesced),
//! while the cheap rejections and the proof budgets read its *raw*
//! extent and access count. A [`Normal`] owns both, taken from the raw
//! descriptor once, so a caller that asks many questions of one region
//! (the §5.6 check, the coverage proofs) pays for one normalisation,
//! not one per pair. The questions themselves are asked of a [`Form`]:
//! a normal form and its raw extent, borrowed — from a [`Normal`], or
//! from a descriptor that already is its own normal form, which then
//! costs neither a normalisation nor an allocation (the static
//! checker's transfers). [`Lmad::overlaps`] and friends are thin
//! wrappers that build two and ask once.

use crate::descriptor::{progressions_intersect, Dim, Lmad};
use crate::transfer::{RegionTransfer, TransferPlan};

/// The access budget of [`Lmad::overlaps`]: a pair is decided by the
/// run walk (or, both sides aliasing, by listing both) when a side's
/// normal form has at most this many accesses. Two such sides always
/// get an exact answer.
pub const OVERLAP_LIMIT: u64 = 4096;

/// A descriptor's normal form with what the budgets read of its raw
/// form. Built only from a raw descriptor ([`Normal::of`]) or from a
/// wire transfer, whose region is already in normal form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Normal {
    form: Lmad,
    /// The raw descriptor's [`Lmad::extent`]. Equal to the form's for
    /// every descriptor whose offsets fit `i64`; past that the two
    /// saturate differently, and the raw one is what the rejections
    /// have always read.
    extent: (i64, i64),
    /// The raw [`Lmad::num_accesses`] (with multiplicity, saturating).
    accesses: u64,
    /// Does every raw offset fit `i64`?
    fits: bool,
}

impl Normal {
    /// Normalise `raw` once.
    pub fn of(raw: &Lmad) -> Normal {
        Normal {
            form: raw.normalized(),
            extent: raw.extent(),
            accesses: raw.num_accesses(),
            fits: raw.enumerable(u64::MAX),
        }
    }

    /// The region one wire transfer covers
    /// (`Lmad::strided(offset, stride, count)`), in normal form: a
    /// transfer of positive stride is its own, and is not normalised.
    pub fn of_transfer(t: &RegionTransfer) -> Normal {
        Normal::of_owned(Lmad::strided(t.offset, t.stride as i64, t.count))
    }

    /// The union of a plan's messages ([`TransferPlan::footprint`]) in
    /// normal form: a footprint that is its own (every fine-grain
    /// plan's) is not normalised.
    pub fn of_plan(plan: &TransferPlan) -> Normal {
        Normal::of_owned(plan.footprint())
    }

    /// `region`, kept as its own normal form when it is one.
    fn of_owned(region: Lmad) -> Normal {
        if !region.is_normal() {
            return Normal::of(&region);
        }
        Normal {
            extent: region.extent(),
            accesses: region.num_accesses(),
            fits: region.enumerable(u64::MAX),
            form: region,
        }
    }

    /// The form the exact questions are asked of.
    pub fn view(&self) -> Form<'_> {
        Form {
            lmad: &self.form,
            extent: self.extent,
        }
    }

    /// The normal form.
    pub fn form(&self) -> &Lmad {
        &self.form
    }

    /// The raw descriptor's lowest and highest offset
    /// ([`Lmad::extent`]).
    pub fn extent(&self) -> (i64, i64) {
        self.extent
    }

    /// The raw descriptor's [`Lmad::enumerable`]: the budget coverage
    /// proofs keep, in accesses of the region as written.
    pub(crate) fn enumerable(&self, limit: u64) -> bool {
        self.fits && self.accesses <= limit
    }

    /// [`Lmad::distinct_elements`] of the raw descriptor.
    pub fn distinct_elements(&self, limit: u64) -> u64 {
        self.view()
            .distinct_elements_exact(limit)
            .unwrap_or_else(|| {
                let (lo, hi) = self.extent;
                let len = u64::try_from(hi as i128 - lo as i128 + 1).unwrap_or(u64::MAX);
                self.accesses.min(len)
            })
    }
}

/// A descriptor in normal form and the raw extent it was written with,
/// borrowed: what every exact question reads. From [`Normal::view`],
/// or from a descriptor that is its own normal form
/// ([`Form::of_normal`]).
#[derive(Debug, Clone, Copy)]
pub struct Form<'a> {
    lmad: &'a Lmad,
    /// The raw extent (see [`Normal`]).
    extent: (i64, i64),
}

impl<'a> Form<'a> {
    /// `raw` itself, when it is already its own normal form
    /// ([`Lmad::normalized`] would return it unchanged): no
    /// normalisation, no allocation.
    pub fn of_normal(raw: &'a Lmad) -> Option<Form<'a>> {
        raw.is_normal().then(|| Form {
            lmad: raw,
            extent: raw.extent(),
        })
    }

    /// `form`, the normal form of `raw`, with `raw`'s extent.
    pub(crate) fn of(form: &'a Lmad, raw: &Lmad) -> Form<'a> {
        Form {
            lmad: form,
            extent: raw.extent(),
        }
    }

    /// The normal form.
    pub fn lmad(self) -> &'a Lmad {
        self.lmad
    }

    /// The raw descriptor's lowest and highest offset.
    pub fn extent(self) -> (i64, i64) {
        self.extent
    }

    /// Is the normal form within [`Lmad::overlaps`]' budget? The same
    /// predicate [`Form::overlaps_exact`] reads at that budget.
    pub(crate) fn listable(self) -> bool {
        self.lmad.enumerable(OVERLAP_LIMIT)
    }

    /// Can a sweep over runs take this footprint? When it is listable
    /// and its elements lie inside its raw extent — the normal form's
    /// extent is the raw one, as it is unless the raw descriptor
    /// reaches past `i64`.
    pub(crate) fn sweepable(self) -> bool {
        self.listable() && self.lmad.extent() == self.extent
    }

    /// [`Lmad::overlaps_exact`] of the two raw descriptors.
    pub fn overlaps_exact(self, other: Form<'_>, limit: u64) -> Option<bool> {
        #[cfg(debug_assertions)]
        crate::work::count(&crate::work::PAIR_TESTS);
        // Rung 1 on the raw extents.
        let (alo, ahi) = self.extent;
        let (blo, bhi) = other.extent;
        if ahi < blo || bhi < alo {
            return Some(false);
        }
        let (a, b) = (self.lmad, other.lmad);
        if a.dims.len() <= 1 && b.dims.len() <= 1 {
            let (s1, c1) = a.dims.first().map_or((1, 1), |d| (d.stride, d.count));
            let (s2, c2) = b.dims.first().map_or((1, 1), |d| (d.stride, d.count));
            return Some(progressions_intersect(a.base, s1, c1, b.base, s2, c2));
        }
        let meets = |walked: Form, probed: Form| {
            walked
                .runs()
                .any(|(first, last)| probed.next_at_or_after(first).is_some_and(|o| o <= last))
        };
        let (a_listable, b_listable) = (a.enumerable(limit), b.enumerable(limit));
        let a_walks = a_listable && b.is_non_aliasing();
        let b_walks = b_listable && a.is_non_aliasing();
        match (a_walks, b_walks) {
            (true, true) if other.num_runs() < self.num_runs() => Some(meets(other, self)),
            (true, _) => Some(meets(self, other)),
            (false, true) => Some(meets(other, self)),
            (false, false) if !(a_listable && b_listable) => None,
            // Both listable and neither walkable: both sides alias.
            (false, false) => {
                let (ao, bo) = (a.offsets(limit)?, b.offsets(limit)?);
                let (mut i, mut j) = (0, 0);
                while i < ao.len() && j < bo.len() {
                    match ao[i].cmp(&bo[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => return Some(true),
                    }
                }
                Some(false)
            }
        }
    }

    /// Do two translates of one shape meet? When the two normal forms
    /// have the same dimensions, which do not alias, and different
    /// bases (the row bands of a block distribution), the answer in
    /// `O(dims)` whatever their size; `None` for any other pair. They
    /// meet iff the bases differ by `Σ d_k·stride_k` with
    /// `|d_k| < count_k`, and since each stride passes the span of the
    /// dims inside it, at most two digits fit at each level.
    pub fn translates_meet(self, other: Form<'_>) -> Option<bool> {
        let (a, b) = (self.lmad, other.lmad);
        let fits = |l: &Lmad| l.enumerable(u64::MAX);
        if a.dims != b.dims || !a.is_non_aliasing() || !fits(a) || !fits(b) {
            return None;
        }
        Some(difference_holds(&a.dims, b.base as i128 - a.base as i128))
    }

    /// [`Lmad::may_overlap`] of the two raw descriptors.
    pub fn may_overlap(self, other: Form<'_>) -> bool {
        let (alo, ahi) = self.extent;
        let (blo, bhi) = other.extent;
        if ahi < blo || bhi < alo {
            return false;
        }
        // Refinement for a pair of single-dimension strided accesses:
        // offsets a.base + i*s and b.base + j*t intersect only if
        // gcd(s, t) divides the base difference.
        let (a, b) = (self.lmad, other.lmad);
        if a.dims.len() == 1 && b.dims.len() == 1 {
            let g = gcd(
                a.dims[0].stride.unsigned_abs(),
                b.dims[0].stride.unsigned_abs(),
            );
            let diff = (a.base as i128 - b.base as i128).unsigned_abs();
            if g > 0 && diff % g as u128 != 0 {
                return false;
            }
        }
        true
    }

    /// [`Lmad::overlaps`] of the two raw descriptors. Two descriptors
    /// of one normal form meet wherever their raw extents do: every
    /// rung past the first would find their first element shared, and
    /// the fallback agrees.
    pub fn overlaps(self, other: Form<'_>) -> bool {
        if self.lmad == other.lmad {
            let ((alo, ahi), (blo, bhi)) = (self.extent, other.extent);
            return alo <= bhi && blo <= ahi;
        }
        match self.overlaps_exact(other, OVERLAP_LIMIT) {
            Some(exact) => exact,
            None => self.may_overlap(other),
        }
    }

    /// [`Lmad::distinct_elements_exact`] of the raw descriptor.
    pub fn distinct_elements_exact(self, limit: u64) -> Option<u64> {
        let n = self.lmad;
        if n.is_non_aliasing() {
            return Some(n.num_accesses());
        }
        n.offsets(limit).map(|mut offs| {
            offs.dedup();
            offs.len() as u64
        })
    }
}

/// Is `delta` = `Σ d_k·stride_k` for digits `|d_k| < count_k`? From
/// the outermost dimension in: the dimensions inside reach at most
/// their spans' sum either way, which bounds the outer digit.
fn difference_holds(dims: &[Dim], delta: i128) -> bool {
    let Some((outer, inside)) = dims.split_last() else {
        return delta == 0;
    };
    let reach: i128 = inside.iter().map(|d| d.span() as i128).sum();
    let (s, c) = (outer.stride as i128, outer.count as i128);
    let lo = (delta - reach).div_euclid(s) + i128::from((delta - reach).rem_euclid(s) != 0);
    let hi = (delta + reach).div_euclid(s);
    (lo.max(1 - c)..=hi.min(c - 1)).any(|d| difference_holds(inside, delta - d * s))
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}
