//! The LMAD itself: dimensions, simplification, enumeration, overlap
//! (decided by the run algebra in `crate::runs`).

use std::fmt;

use crate::normal::Form;

/// One access dimension: a consistent stride walked `count` times.
///
/// The paper characterises a dimension by (stride, span); we store
/// (stride, count) with `span = stride * (count - 1)`, which keeps the
/// element count explicit and makes degenerate dimensions
/// (`count == 1`) unambiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim {
    /// Distance in elements between consecutive accesses of this
    /// dimension. May be negative for descending loops.
    pub stride: i64,
    /// Number of accesses the dimension generates (≥ 1).
    pub count: u64,
}

impl Dim {
    /// Construct a dimension.
    ///
    /// # Panics
    /// Panics if `count == 0`.
    pub fn new(stride: i64, count: u64) -> Self {
        assert!(count >= 1, "a dimension makes at least one access");
        Dim { stride, count }
    }

    /// The paper's *span*: `offset(last) - offset(first)`.
    ///
    /// Saturates at the `i64` range instead of wrapping: a saturated
    /// span only ever *widens* the extent, which keeps every
    /// conservative consumer (extent tests, `may_overlap`) sound in
    /// the over-approximating direction.
    pub fn span(&self) -> i64 {
        let steps = i64::try_from(self.count - 1).unwrap_or(i64::MAX);
        self.stride.saturating_mul(steps)
    }
}

/// A Linear Memory Access Descriptor: `base` plus a set of dimensions.
///
/// The empty-dimension LMAD denotes the single element at `base`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Lmad {
    pub base: i64,
    pub dims: Vec<Dim>,
}

impl fmt::Display for Lmad {
    /// The paper's notation: strides as superscripts, spans as
    /// subscripts, base after a plus: `A^{s1,s2}_{p1,p2} + b` rendered
    /// as `A[s1,s2 / p1,p2] + b`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", d.stride)?;
        }
        write!(f, " / ")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", d.span())?;
        }
        write!(f, "] + {}", self.base)
    }
}

impl Lmad {
    /// The single element at `base`.
    pub fn scalar(base: i64) -> Self {
        Lmad {
            base,
            dims: Vec::new(),
        }
    }

    /// A contiguous run of `count` elements starting at `base`.
    pub fn contiguous(base: i64, count: u64) -> Self {
        if count == 1 {
            return Lmad::scalar(base);
        }
        Lmad {
            base,
            dims: vec![Dim::new(1, count)],
        }
    }

    /// A one-dimensional strided access.
    pub fn strided(base: i64, stride: i64, count: u64) -> Self {
        if count == 1 {
            return Lmad::scalar(base);
        }
        Lmad {
            base,
            dims: vec![Dim::new(stride, count)],
        }
    }

    /// Build from explicit dimensions.
    pub fn new(base: i64, dims: Vec<Dim>) -> Self {
        Lmad { base, dims }
    }

    /// Number of accesses described (with multiplicity — aliasing
    /// dimensions may revisit an element). Saturates at `u64::MAX`;
    /// a saturated count only makes enumeration limits trip earlier,
    /// which is the conservative direction.
    pub fn num_accesses(&self) -> u64 {
        self.dims
            .iter()
            .fold(1u64, |acc, d| acc.saturating_mul(d.count))
    }

    /// Number of *distinct* elements touched, or `None` when it cannot
    /// be established exactly (dimensions may alias and the access is
    /// too large to enumerate within `limit`).
    pub fn distinct_elements_exact(&self, limit: u64) -> Option<u64> {
        self.with_form(|f| f.distinct_elements_exact(limit))
    }

    /// True when (on the *normalised* form) each dimension's stride
    /// jumps past the combined extent of all inner dimensions, so the
    /// digit decomposition of an offset is unique: every access hits a
    /// distinct element and [`Lmad::contains`] is exact.
    ///
    /// Callers must pass a normalised LMAD (sorted positive strides).
    pub(crate) fn is_non_aliasing(&self) -> bool {
        let mut inner_span: i64 = 0;
        for d in &self.dims {
            if d.stride <= inner_span {
                return false;
            }
            inner_span = inner_span.saturating_add(d.span());
        }
        true
    }

    /// Number of *distinct* elements touched. Exact when
    /// [`Lmad::distinct_elements_exact`] succeeds; otherwise an upper
    /// bound (compiler-generated subscripts are non-aliasing, so the
    /// bound is only reached on adversarial inputs).
    pub fn distinct_elements(&self, limit: u64) -> u64 {
        self.distinct_elements_exact(limit)
            .unwrap_or_else(|| self.num_accesses().min(self.bounding_len()))
    }

    /// Expansion across an enclosing loop (§4.2): the loop contributes
    /// `per_iter` elements of movement per iteration, `count`
    /// iterations. A zero contribution leaves the descriptor invariant
    /// in that loop.
    pub fn expanded(&self, per_iter: i64, count: u64) -> Lmad {
        assert!(count >= 1);
        if per_iter == 0 || count == 1 {
            return self.clone();
        }
        let mut dims = self.dims.clone();
        dims.push(Dim::new(per_iter, count));
        Lmad {
            base: self.base,
            dims,
        }
    }

    /// Lowest and highest element offset touched (inclusive).
    /// Saturates at the `i64` range (widening only — conservative).
    pub fn extent(&self) -> (i64, i64) {
        let mut lo = self.base;
        let mut hi = self.base;
        for d in &self.dims {
            let s = d.span();
            if s >= 0 {
                hi = hi.saturating_add(s);
            } else {
                lo = lo.saturating_add(s);
            }
        }
        (lo, hi)
    }

    /// Number of elements in the bounding contiguous region
    /// (saturating — an extent spanning most of the `i64` range
    /// reports `u64::MAX` rather than wrapping).
    pub fn bounding_len(&self) -> u64 {
        let (lo, hi) = self.extent();
        let len = hi as i128 - lo as i128 + 1;
        u64::try_from(len).unwrap_or(u64::MAX)
    }

    /// The bounding contiguous LMAD — §5.6's "approximate region" at
    /// its coarsest.
    pub fn bounding_contiguous(&self) -> Lmad {
        let (lo, _) = self.extent();
        Lmad::contiguous(lo, self.bounding_len())
    }

    /// Normalise: drop degenerate dimensions, flip negative strides
    /// (adjusting the base), sort by increasing |stride|, and coalesce
    /// adjacent dimensions where the outer stride equals the inner
    /// stride times the inner count (PLDI'98 "contiguous aggregation").
    ///
    /// Normalisation preserves the *set* of touched offsets (it may
    /// drop multiplicity of revisits, which no consumer depends on).
    pub fn normalized(&self) -> Lmad {
        #[cfg(debug_assertions)]
        crate::work::count(&crate::work::NORMALISED);
        let mut base = self.base;
        let mut dims: Vec<Dim> = Vec::with_capacity(self.dims.len());
        for d in &self.dims {
            if d.count == 1 || d.stride == 0 {
                continue; // degenerate: contributes nothing to movement
            }
            if d.stride < 0 {
                // Walk the dimension backwards: same offsets.
                base = base.saturating_add(d.span());
                dims.push(Dim::new(-d.stride, d.count));
            } else {
                dims.push(*d);
            }
        }
        dims.sort_by_key(|d| d.stride);
        // Coalesce inner->outer while profitable.
        let mut out: Vec<Dim> = Vec::with_capacity(dims.len());
        for d in dims {
            let coalesces = out.last().is_some_and(|prev| {
                i64::try_from(prev.count)
                    .ok()
                    .and_then(|c| prev.stride.checked_mul(c))
                    == Some(d.stride)
            });
            match out.last_mut() {
                Some(prev) if coalesces => {
                    prev.count = prev.count.saturating_mul(d.count);
                }
                _ => out.push(d),
            }
        }
        Lmad { base, dims: out }
    }

    /// Ask `f` of this descriptor's normal form, built for the one
    /// question (a caller asking many keeps a [`crate::Normal`]).
    fn with_form<R>(&self, f: impl FnOnce(Form) -> R) -> R {
        let form = self.normalized();
        f(Form::of(&form, self))
    }

    /// Is this descriptor its own normal form — would
    /// [`Lmad::normalized`] return it unchanged? Every dimension moves
    /// (count above one, positive stride), the strides ascend, and no
    /// two neighbours coalesce. `O(dims)`, building nothing.
    pub(crate) fn is_normal(&self) -> bool {
        self.dims.iter().all(|d| d.count > 1 && d.stride > 0)
            && self.dims.windows(2).all(|w| {
                let coalesces = i64::try_from(w[0].count)
                    .ok()
                    .and_then(|c| w[0].stride.checked_mul(c))
                    == Some(w[1].stride);
                w[0].stride <= w[1].stride && !coalesces
            })
    }

    /// True when the (normalised) access is one contiguous run.
    pub fn is_contiguous(&self) -> bool {
        self.normalized().is_contiguous_normalized()
    }

    /// [`Lmad::is_contiguous`] for a descriptor already in normal form.
    pub(crate) fn is_contiguous_normalized(&self) -> bool {
        self.dims.is_empty() || (self.dims.len() == 1 && self.dims[0].stride == 1)
    }

    /// Enumerate every touched offset (with multiplicity), smallest
    /// dimension varying fastest. Returns `None` when the access count
    /// exceeds `limit` — or when an offset would overflow `i64` —
    /// callers must then fall back to conservative reasoning.
    pub fn offsets(&self, limit: u64) -> Option<Vec<i64>> {
        if self.num_accesses() > limit {
            return None;
        }
        let mut out = vec![self.base];
        for d in &self.dims {
            let mut next = Vec::with_capacity(out.len() * d.count as usize);
            for i in 0..d.count as i64 {
                let step = i.checked_mul(d.stride)?;
                for &o in &out {
                    next.push(o.checked_add(step)?);
                }
            }
            out = next;
        }
        out.sort_unstable();
        Some(out)
    }

    /// Exact containment of one element offset, by digit decomposition
    /// over the normalised sorted dims (`Form::run_end`): one
    /// candidate digit per dimension when the dims do not alias, a
    /// backtracking search over the feasible digits when they do.
    pub fn contains(&self, offset: i64) -> bool {
        // The extent does not depend on the normal form (test
        // `extent_is_normalisation_invariant`), so reject on it before
        // paying for one.
        let (lo, hi) = self.extent();
        if offset < lo || offset > hi {
            return false;
        }
        self.with_form(|f| f.run_end(offset).is_some())
    }

    /// Conservative overlap: do the bounding extents intersect?
    ///
    /// **Soundness direction: over-approximates.** May report `true`
    /// for a pair of disjoint accesses (the interval/gcd abstraction
    /// loses precision), but never reports `false` when a true overlap
    /// exists. Race-checking consumers (`vpce-rmacheck`) rely on this:
    /// a spurious `true` yields a false alarm, a spurious `false`
    /// would hide a race.
    pub fn may_overlap(&self, other: &Lmad) -> bool {
        self.with_form(|a| other.with_form(|b| a.may_overlap(b)))
    }

    /// Exact overlap decision; `None` only when undecidable within a
    /// budget of `limit` accesses. A `Some(_)` answer is *exact* —
    /// never an approximation in either direction.
    ///
    /// Decision ladder, cheapest first:
    /// 1. disjoint bounding extents — exact `false`;
    /// 2. both sides (normalised) at most one dimension — closed-form
    ///    arithmetic-progression intersection, exact at any size;
    /// 3. one side within `limit` accesses and the other non-aliasing —
    ///    walk the runs of the first (`Form::runs`) and ask the
    ///    second for its first element at or after each run's start
    ///    (`Form::next_at_or_after`, `O(dims)`): they meet iff it
    ///    falls inside the run. With both sides eligible either way,
    ///    the side with fewer runs is walked;
    /// 4. both sides within `limit` and both aliasing — no closed form:
    ///    enumerate both and merge-scan, the one enumeration left.
    ///
    /// `limit` is a budget on *accesses*, kept from when rungs 3–4
    /// enumerated them: a side is "within `limit`" exactly when
    /// [`Lmad::offsets`]`(limit)` would list it, so the answer is
    /// `None` on exactly the inputs it always was.
    ///
    /// Rung 1 reads the raw extents, rungs 2–4 the normal forms
    /// ([`crate::Form::overlaps_exact`], which a caller holding normal forms
    /// asks directly).
    pub fn overlaps_exact(&self, other: &Lmad, limit: u64) -> Option<bool> {
        if extents_apart(self, other) {
            return Some(false);
        }
        self.with_form(|a| other.with_form(|b| a.overlaps_exact(b, limit)))
    }

    /// Best-effort overlap: the [`Lmad::overlaps_exact`] answer
    /// whenever one exists (it is exact and is always honoured),
    /// falling back to [`Lmad::may_overlap`] only when exact
    /// reasoning is infeasible.
    ///
    /// **Soundness direction: over-approximates.** Inherits exactness
    /// from `overlaps_exact` where decidable and conservatism from
    /// `may_overlap` elsewhere — it may report `true` for disjoint
    /// accesses but never `false` for overlapping ones.
    pub fn overlaps(&self, other: &Lmad) -> bool {
        !extents_apart(self, other) && self.with_form(|a| other.with_form(|b| a.overlaps(b)))
    }

    /// True when every offset of `other` is an offset of `self`: exact
    /// when `other` is within `limit` accesses (each of its runs is
    /// walked through `self`'s, stopping at the first offset `self`
    /// lacks); conservative `false` when it is larger, unless `self`
    /// is one contiguous run holding `other`'s extent.
    pub fn contains_all(&self, other: &Lmad, limit: u64) -> bool {
        let (olo, ohi) = other.extent();
        self.with_form(|n| {
            if other.enumerable(limit) {
                // Nothing outside `self`'s bounding interval is in it;
                // a descriptor of `self`'s normal form is all in it.
                let (lo, hi) = self.extent();
                lo <= olo
                    && ohi <= hi
                    && other.with_form(|o| o.lmad() == n.lmad() || o.covered_by(|x| n.run_end(x)))
            } else {
                // Cheap sufficient condition: self is one contiguous
                // run and other's extent is inside it.
                let (lo, hi) = n.lmad().extent();
                n.lmad().is_contiguous_normalized() && lo <= olo && ohi <= hi
            }
        })
    }
}

/// Rung 1 of every overlap test, asked of the raw descriptors before
/// either is normalised: disjoint bounding extents, as most pairs have.
fn extents_apart(a: &Lmad, b: &Lmad) -> bool {
    let ((alo, ahi), (blo, bhi)) = (a.extent(), b.extent());
    ahi < blo || bhi < alo
}

/// Floor division on i128 (Rust `/` truncates toward zero).
fn div_floor(a: i128, b: i128) -> i128 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// Ceiling division on i128.
fn div_ceil(a: i128, b: i128) -> i128 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

/// Extended Euclid: returns `(g, x, y)` with `a*x + b*y == g` and
/// `g == gcd(a, b)` for `a, b >= 0`.
fn ext_gcd(a: i128, b: i128) -> (i128, i128, i128) {
    if b == 0 {
        (a, 1, 0)
    } else {
        let (g, x, y) = ext_gcd(b, a % b);
        (g, y, x - (a / b) * y)
    }
}

/// Exact intersection test of two arithmetic progressions
/// `{o1 + i*s1 : 0 <= i < c1}` and `{o2 + j*s2 : 0 <= j < c2}` with
/// positive strides, in closed form (no enumeration): solve the
/// linear Diophantine equation `i*s1 - j*s2 = o2 - o1` and check the
/// solution family against both index ranges.
///
/// Exact at any size — this is what lets [`Lmad::overlaps_exact`]
/// decide same- or mixed-stride descriptor pairs far beyond the
/// enumeration limit.
pub fn progressions_intersect(o1: i64, s1: i64, c1: u64, o2: i64, s2: i64, c2: u64) -> bool {
    debug_assert!(s1 > 0 && s2 > 0, "normalised strides are positive");
    let (s1, s2) = (s1 as i128, s2 as i128);
    let d = o2 as i128 - o1 as i128;
    let (g, x, _) = ext_gcd(s1, s2);
    if d % g != 0 {
        return false;
    }
    // Particular solution of i*s1 ≡ d (mod s2): scale Bézout's x,
    // reduced modulo the solution period so later products stay well
    // inside i128.
    let step_i = s2 / g;
    let i0 = (x.rem_euclid(step_i) * (d / g).rem_euclid(step_i)).rem_euclid(step_i);
    // Constrain 0 <= i <= c1-1.
    let mut t_lo = div_ceil(-i0, step_i);
    let mut t_hi = div_floor(c1 as i128 - 1 - i0, step_i);
    // Constrain 0 <= j <= c2-1, where j = (i0 + t*step_i)*s1/s2 - d/s2
    // = (i0*s1 - d)/s2 + t*(s1/g).
    let j0_num = i0 * s1 - d; // divisible by s2 by construction
    let j0 = j0_num / s2;
    let step_j = s1 / g;
    t_lo = t_lo.max(div_ceil(-j0, step_j));
    t_hi = t_hi.min(div_floor(c2 as i128 - 1 - j0, step_j));
    t_lo <= t_hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transfer::{Granularity, RegionTransfer, TransferPlan};

    /// The paper's Figure 4 access: `REAL A(14,*)`, loops I=1,2 /
    /// J=1,2 / K=1,10,3 over `A(K, J+2*(I-1))` (column-major):
    /// offsets = (K-1) + 14*(J-1) + 28*(I-1) → LMAD
    /// A[3,14,28 / 9,14,28] + 0.
    fn figure4() -> Lmad {
        Lmad::new(
            0,
            vec![Dim::new(3, 4), Dim::new(14, 2), Dim::new(28, 2)],
        )
    }

    #[test]
    fn figure4_offsets() {
        let offs = figure4().offsets(1000).unwrap();
        // K dim: 0,3,6,9; J adds +14; I adds +28.
        let mut expect = Vec::new();
        for i in [0i64, 28] {
            for j in [0i64, 14] {
                for k in [0i64, 3, 6, 9] {
                    expect.push(i + j + k);
                }
            }
        }
        expect.sort_unstable();
        assert_eq!(offs, expect);
    }

    #[test]
    fn figure2_stride2() {
        // DO i=1,11,2 over A(i): 6 accesses at stride 2.
        let l = Lmad::strided(0, 2, 6);
        assert_eq!(l.num_accesses(), 6);
        assert_eq!(l.extent(), (0, 10));
        assert_eq!(l.dims[0].span(), 10);
    }

    #[test]
    fn display_uses_paper_notation() {
        let s = figure4().to_string();
        assert_eq!(s, "A[3,14,28 / 9,14,28] + 0");
    }

    #[test]
    fn expansion_adds_a_dimension() {
        // Statement-level access A(I) expanded over DO I=1,100.
        let stmt = Lmad::scalar(0);
        let loop_l = stmt.expanded(1, 100);
        assert_eq!(loop_l, Lmad::contiguous(0, 100));
        // Invariant in the loop: unchanged.
        assert_eq!(stmt.expanded(0, 100), stmt);
    }

    #[test]
    fn normalize_flips_negative_strides() {
        // DO i=10,1,-1 over A(i): stride -1 from base 9.
        let l = Lmad::strided(9, -1, 10);
        let n = l.normalized();
        assert_eq!(n, Lmad::contiguous(0, 10));
        assert_eq!(
            l.offsets(100).unwrap(),
            n.offsets(100).unwrap(),
            "normalisation preserves the offset set"
        );
    }

    #[test]
    fn normalize_coalesces_contiguous_dims() {
        // Rows of 5 contiguous elements, stride 5 between rows: one
        // contiguous run of 20.
        let l = Lmad::new(0, vec![Dim::new(1, 5), Dim::new(5, 4)]);
        assert_eq!(l.normalized(), Lmad::contiguous(0, 20));
        assert!(l.is_contiguous());
    }

    #[test]
    fn normalize_keeps_gaps() {
        // Rows of 4 of 5: gap of one element per row.
        let l = Lmad::new(0, vec![Dim::new(1, 4), Dim::new(5, 4)]);
        let n = l.normalized();
        assert_eq!(n.dims.len(), 2);
        assert!(!l.is_contiguous());
    }

    #[test]
    fn contains_matches_enumeration() {
        let l = figure4();
        let offs = l.offsets(1000).unwrap();
        for o in -5..60 {
            assert_eq!(
                l.contains(o),
                offs.contains(&o),
                "offset {o} disagreement"
            );
        }
    }

    #[test]
    fn overlap_exact_and_conservative_agree_when_enumerable() {
        let a = Lmad::strided(0, 2, 10); // evens 0..18
        let b = Lmad::strided(1, 2, 10); // odds 1..19
        assert_eq!(a.overlaps_exact(&b, 100), Some(false));
        // may_overlap's gcd refinement also proves it:
        assert!(!a.may_overlap(&b));
        let c = Lmad::strided(4, 2, 3);
        assert_eq!(a.overlaps_exact(&c, 100), Some(true));
        assert!(a.may_overlap(&c));
    }

    #[test]
    fn may_overlap_is_conservative_not_exact() {
        // Same parity classes, disjoint by range interleaving the gcd
        // test can't see: stride 6 {0,6} vs stride 6 {3,9} share gcd 6,
        // base diff 3 not divisible -> provably disjoint.
        let a = Lmad::strided(0, 6, 2);
        let b = Lmad::strided(3, 6, 2);
        assert!(!a.may_overlap(&b));
        // Multi-dim: falls back to extent intersection (true even when
        // actually disjoint).
        let c = Lmad::new(0, vec![Dim::new(2, 3), Dim::new(12, 2)]);
        let d = Lmad::strided(1, 16, 2);
        assert!(c.may_overlap(&d));
        assert_eq!(c.overlaps_exact(&d, 100), Some(false));
    }

    #[test]
    fn bounding_contiguous_covers_everything() {
        let l = figure4();
        let b = l.bounding_contiguous();
        assert_eq!(b, Lmad::contiguous(0, 52));
        for o in l.offsets(1000).unwrap() {
            assert!(b.contains(o));
        }
    }

    #[test]
    fn split_figure8() {
        // §5.4's example: offsets {0,14,24,38}-ish from the two outer
        // dims, mapping = the K dimension (stride 3, count 4).
        let l = Lmad::new(
            0,
            vec![Dim::new(3, 4), Dim::new(14, 2), Dim::new(24, 2)],
        );
        let s = TransferPlan::lower(&l, Granularity::Fine, 0);
        assert_eq!(s.num_messages(), 4);
        let shapes: Vec<(i64, u64, u64)> = s.transfers().map(|t| (t.offset, t.stride, t.count)).collect();
        assert_eq!(shapes, vec![(0, 3, 4), (14, 3, 4), (24, 3, 4), (38, 3, 4)]);
    }

    #[test]
    fn split_scalar() {
        let s = TransferPlan::lower(&Lmad::scalar(7), Granularity::Fine, 0);
        let one = RegionTransfer { offset: 7, stride: 1, count: 1 };
        assert_eq!(s.transfers().collect::<Vec<_>>(), vec![one]);
    }

    #[test]
    fn contains_all_for_bounding_regions() {
        let l = Lmad::strided(0, 2, 8);
        assert!(l.bounding_contiguous().contains_all(&l, 1000));
        assert!(!l.contains_all(&l.bounding_contiguous(), 1000));
    }

    #[test]
    fn offsets_respects_limit() {
        let big = Lmad::contiguous(0, 1_000_000);
        assert!(big.offsets(1000).is_none());
        assert!(big.offsets(1_000_000).is_some());
    }

    #[test]
    #[should_panic(expected = "at least one access")]
    fn zero_count_dim_rejected() {
        Dim::new(1, 0);
    }

    #[test]
    fn exact_overlap_decides_huge_one_dim_pairs() {
        // Far beyond any enumeration limit: 10^12 accesses each.
        let evens = Lmad::strided(0, 2, 1_000_000_000_000);
        let odds = Lmad::strided(1, 2, 1_000_000_000_000);
        assert_eq!(evens.overlaps_exact(&odds, 16), Some(false));
        assert!(!evens.overlaps(&odds));
        let shifted = Lmad::strided(6, 2, 1_000_000_000_000);
        assert_eq!(evens.overlaps_exact(&shifted, 16), Some(true));
        assert!(evens.overlaps(&shifted));
    }

    #[test]
    fn exact_overlap_mixed_strides_closed_form() {
        // stride 6 from 0 vs stride 10 from 3: 6i = 10j + 3 has no
        // solution (parity), so disjoint at any length.
        let a = Lmad::strided(0, 6, u64::MAX / 8);
        let b = Lmad::strided(3, 10, u64::MAX / 16);
        assert_eq!(a.overlaps_exact(&b, 16), Some(false));
        // stride 6 from 0 vs stride 10 from 2: 6*2 = 10*1 + 2 → meet
        // at offset 12.
        let c = Lmad::strided(2, 10, 1 << 40);
        assert_eq!(a.overlaps_exact(&c, 16), Some(true));
    }

    #[test]
    fn exact_overlap_one_sided_membership() {
        // Small multi-dim side vs a non-aliasing side too big to
        // enumerate: decided by membership, not given up on.
        let small = Lmad::new(0, vec![Dim::new(2, 3), Dim::new(100, 2)]);
        let big = Lmad::new(1, vec![Dim::new(2, 50), Dim::new(1000, 1 << 40)]);
        // big touches odd offsets in [1, 99] (mod 1000 blocks);
        // small touches {0,2,4,100,102,104} — all even → disjoint.
        assert_eq!(small.overlaps_exact(&big, 64), Some(false));
        let big_even = Lmad::new(0, vec![Dim::new(2, 50), Dim::new(1000, 1 << 40)]);
        assert_eq!(small.overlaps_exact(&big_even, 64), Some(true));
    }

    #[test]
    fn overlaps_honours_exact_answer_over_interval_fallback() {
        // Bounding extents intersect and gcd can't help (multi-dim),
        // but the exact path proves disjointness — overlaps() must
        // return the exact answer, not the conservative one.
        let a = Lmad::new(0, vec![Dim::new(2, 3), Dim::new(12, 2)]);
        let b = Lmad::strided(1, 16, 2);
        assert!(a.may_overlap(&b), "interval abstraction can't refute");
        assert!(!a.overlaps(&b), "exact answer must win");
    }

    #[test]
    fn saturating_extents_do_not_wrap() {
        let huge = Lmad::strided(i64::MAX - 10, 4, u64::MAX / 2);
        let (lo, hi) = huge.extent();
        assert_eq!(lo, i64::MAX - 10);
        assert_eq!(hi, i64::MAX, "saturates instead of wrapping");
        assert!(huge.bounding_len() >= 11);
        assert!(huge.may_overlap(&huge), "self-overlap stays true");
        let far = Lmad::contiguous(i64::MIN, 100);
        assert!(!huge.may_overlap(&far));
    }

    /// What lets `contains` and `overlaps_exact` reject on the raw
    /// extent *before* normalising: flipping negative strides into the
    /// base, dropping degenerate dimensions, sorting and coalescing
    /// leave the extent where it was — for every descriptor whose
    /// spans and ends fit `i64`, i.e. every descriptor an array can
    /// hold, so the reorder preserves every answer there. A descriptor
    /// reaching outside the offset space saturates differently in the
    /// two forms; for those only panic-freedom is pinned.
    #[test]
    fn extent_is_normalisation_invariant() {
        use vpce_testkit::prelude::*;
        let stride = weighted(vec![
            (4, i64_in(-40, 40)),
            (1, just(0)),
            (1, i64_in(-(1 << 40), 1 << 40)),
            (1, elem_of(vec![i64::MIN + 1, -(1 << 62), 1 << 62, i64::MAX])),
        ]);
        let count = weighted(vec![
            (4, u64_in(1, 12)),
            (1, just(1)),
            (1, u64_in(1, 1 << 24)),
            (1, elem_of(vec![1 << 40, u64::MAX >> 1, u64::MAX])),
        ]);
        let base = weighted(vec![
            (4, i64_in(-1000, 1000)),
            (1, i64_in(i64::MIN, i64::MIN + 4096)),
            (1, i64_in(i64::MAX - 4096, i64::MAX)),
        ]);
        let dim = zip2(stride, count).map(|(s, c)| Dim::new(s, c));
        // Coalescible pairs (outer stride = inner stride × inner count)
        // so the merge path is exercised, not just the sort.
        let nest = zip3(i64_in(1, 6), u64_in(2, 6), u64_in(2, 6)).map(|(s, c1, c2)| {
            vec![Dim::new(s * c1 as i64, c2), Dim::new(s, c1)]
        });
        let dims = weighted(vec![(3, vec_of(dim, 0, 4)), (1, nest)]);
        let g = zip2(base, dims);
        Check::new("lmad::extent_is_normalisation_invariant")
            .cases(1024)
            .run(&g, |(base, dims)| {
                let l = Lmad::new(*base, dims.clone());
                // The extent in exact arithmetic.
                let (mut lo, mut hi) = (*base as i128, *base as i128);
                let mut exact = true;
                for d in dims {
                    let span = d.stride as i128 * (d.count as i128 - 1);
                    exact &= i64::try_from(span).is_ok();
                    if span >= 0 {
                        hi += span;
                    } else {
                        lo += span;
                    }
                }
                exact &= i64::try_from(lo).is_ok() && i64::try_from(hi).is_ok();
                let (elo, ehi) = l.extent();
                if exact {
                    prop_assert_eq!((elo as i128, ehi as i128), (lo, hi));
                    prop_assert_eq!(l.normalized().extent(), (elo, ehi));
                } else {
                    let (nlo, nhi) = l.normalized().extent();
                    prop_assert!(elo <= ehi && nlo <= nhi);
                }
                Ok(())
            });
    }

    #[test]
    fn offsets_refuses_overflowing_enumeration() {
        let l = Lmad::strided(i64::MAX - 2, 3, 4);
        assert!(l.offsets(100).is_none(), "would overflow i64");
    }
}
