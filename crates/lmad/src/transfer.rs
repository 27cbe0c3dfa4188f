//! Communication granularity (§5.6): lowering an access region to
//! PUT/GET-shaped transfers at fine, middle or coarse grain, kept as a
//! descriptor ([`TransferPlan`]) and listed only where they are issued.
//!
//! * **Fine** — exact regions: one transfer per `A_offsets` entry with
//!   the `A_mapping` shape (strided PUT/GET when the mapping stride
//!   exceeds 1, contiguous otherwise).
//! * **Middle** — per-offset approximate regions: "exact regions are
//!   converted into approximate regions by setting the stride of
//!   `A_mapping` 1", i.e. each offset transfers the bounding
//!   contiguous run of its mapping dimension. Same message count as
//!   fine, but always on the DMA path, at the price of redundant
//!   bytes.
//! * **Coarse** — one approximate region: a single contiguous transfer
//!   bounding the whole descriptor, reducing the message count to
//!   `δp/αp + 1`-independent *one* per (array, slave) pair.

use crate::descriptor::{Dim, Lmad};
use crate::normal::{Form, Normal, OVERLAP_LIMIT};
use crate::sweep;

/// The three §5.6 communication granularities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    Fine,
    Middle,
    Coarse,
}

impl Granularity {
    /// All levels, for sweeps.
    pub const ALL: [Granularity; 3] = [Granularity::Fine, Granularity::Middle, Granularity::Coarse];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Granularity::Fine => "fine",
            Granularity::Middle => "middle",
            Granularity::Coarse => "coarse",
        }
    }
}

/// One wire transfer: `count` elements starting at `offset`, every
/// `stride` elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionTransfer {
    pub offset: i64,
    pub stride: u64,
    pub count: u64,
}

impl RegionTransfer {
    /// Contiguous transfers ride the DMA engine; strided ones pay
    /// programmed I/O.
    pub fn is_contiguous(&self) -> bool {
        self.stride == 1 || self.count <= 1
    }

    /// Elements crossing the wire.
    pub fn elems(&self) -> u64 {
        self.count
    }

    /// Highest element offset touched, exclusive.
    pub fn end(&self) -> i64 {
        self.offset + (self.stride * (self.count - 1) + 1) as i64
    }
}

/// A lowered communication plan for one access region, kept as the
/// splitted LMAD of §5.4, Definition 2: `A_mapping`, the lowest
/// (fastest-varying) dimension of the normal form, maps onto one
/// PUT/GET, and `A_offsets`, the rest, enumerates the messages' start
/// offsets. The plan holds `A_offsets` and one message shape — the
/// mapping at fine grain, its bounding run at middle, the region's
/// bounding run at coarse — so it is `O(dims)` whatever its message
/// count; only [`TransferPlan::transfers`] lists the messages, for the
/// walk that issues them.
#[derive(Debug, Clone)]
pub struct TransferPlan {
    /// Start offsets: strides positive and ascending, counts above one.
    offsets: Lmad,
    stride: u64,
    count: u64,
}

impl TransferPlan {
    /// Lower `region` at `granularity`. Lowering lists nothing, so no
    /// budget is read: `_limit` is kept for callers that pass one.
    pub fn lower(region: &Lmad, granularity: Granularity, _limit: u64) -> TransferPlan {
        let form = region.normalized();
        TransferPlan::lower_normal(Form::of(&form, region), granularity)
    }

    /// [`TransferPlan::lower`] of a region already in normal form
    /// (lowering reads nothing but the normal form).
    pub fn lower_normal(region: Form, granularity: Granularity) -> TransferPlan {
        let n = region.lmad();
        if granularity == Granularity::Coarse {
            let (lo, hi) = n.extent();
            return TransferPlan::from(RegionTransfer { offset: lo, stride: 1, count: (hi - lo + 1) as u64 });
        }
        // A dimensionless region's mapping is a single element.
        let (mapping, offsets) = n.dims.split_first().map_or((Dim::new(1, 1), &[][..]), |(m, rest)| (*m, rest));
        let (stride, count) = match granularity {
            Granularity::Fine => (mapping.stride as u64, mapping.count),
            // Stride forced to 1: the bounding run of the mapping
            // dimension.
            _ => (1, mapping.span() as u64 + 1),
        };
        TransferPlan { offsets: Lmad::new(n.base, offsets.to_vec()), stride, count }
    }

    /// The messages in ascending order of start offset, repeats
    /// included (aliasing `A_offsets` dims start two messages at one
    /// offset). When every offsets dim's stride exceeds the reach of
    /// the dims inside it, the odometer — innermost dim fastest —
    /// already ascends and is walked in place; otherwise the offsets
    /// are listed and sorted, afresh on each call. Offsets past `i64`
    /// wrap: a plan of an array's footprint has none.
    pub fn transfers(&self) -> Transfers<'_> {
        let sorted = (!self.offsets.is_non_aliasing()).then(|| {
            let mut all: Vec<i64> = self.odometer().collect();
            all.sort_unstable();
            all.into_iter()
        });
        Transfers { sorted, walk: self.odometer(), stride: self.stride, count: self.count }
    }

    /// Every start offset, innermost dim fastest.
    fn odometer(&self) -> Odometer<'_> {
        let (stride, row) = self.offsets.dims.first().map_or((0, 1), |d| (d.stride, d.count));
        Odometer { offsets: &self.offsets, stride, row, k: 0, n: self.offsets.num_accesses(), offset: 0, left_in_row: 0 }
    }

    /// The lowest and highest message start, saturating at the `i64`
    /// range (widening only).
    pub fn starts(&self) -> (i64, i64) {
        self.offsets.extent()
    }

    /// Every message's `(stride, count)`: one shape, `A_mapping`'s.
    pub fn shape(&self) -> (u64, u64) {
        (self.stride, self.count)
    }

    /// The messages as one descriptor: the message shape as the lowest
    /// dimension under `A_offsets`. Its accesses are those of every
    /// message of [`TransferPlan::transfers`], repeats included, so a
    /// question about the messages' union — do they meet a footprint,
    /// do they cover one — is asked of it once. At fine grain it is
    /// the region's normal form.
    pub fn footprint(&self) -> Lmad {
        let mut dims = Vec::with_capacity(self.offsets.dims.len() + 1);
        if self.count > 1 {
            dims.push(Dim::new(self.stride as i64, self.count));
        }
        dims.extend_from_slice(&self.offsets.dims);
        Lmad::new(self.offsets.base, dims)
    }

    /// Do two of the messages share an element (two repeats of one
    /// message do)? When the footprint does not alias, every access is
    /// to a distinct element and the answer is no, in `O(dims)`.
    /// Otherwise one walk of the sorted messages: two messages of one
    /// shape meet exactly when their starts lie in one residue class
    /// of the stride at most a message's reach apart, so each is
    /// compared with the last start of its class.
    pub fn messages_meet(&self) -> bool {
        if self.num_messages() < 2 || self.footprint().is_non_aliasing() {
            return false;
        }
        // A message of one element (or of stride 0) reaches nothing
        // past its start.
        let (step, reach) = match i64::try_from(self.stride) {
            Ok(s) if s > 0 && self.count > 1 => (s, s as i128 * (self.count as i128 - 1)),
            _ => (1, 0),
        };
        let mut last = std::collections::HashMap::new();
        self.transfers().any(|t| {
            let prev = last.insert(t.offset.rem_euclid(step), t.offset);
            prev.is_some_and(|p| t.offset as i128 - p as i128 <= reach)
        })
    }

    /// Is [`Form::overlaps`] of `region` and each single message
    /// decided by an exact rung, never by the conservative fallback?
    /// Both sides of at most one dimension always are; past that, a
    /// message is one progression without repeats, so the fallback is
    /// reached only when `region` is past [`Lmad::overlaps`]' budget
    /// and a message cannot be walked against it (more than 4096
    /// elements, or `region` aliases).
    pub fn meets_exactly(&self, region: Form<'_>) -> bool {
        let r = region.lmad();
        r.dims.len() <= 1
            || region.listable()
            || (r.is_non_aliasing() && self.count <= OVERLAP_LIMIT && self.footprint().enumerable(u64::MAX))
    }

    /// Does one message hold every element of `needed` — is it
    /// contiguous and spans `needed`'s extent, or is its region
    /// `needed`'s normal form? These are what a cover index whose
    /// members are single messages proves past its proof budget
    /// ([`crate::CoverIndex::covered`], rungs 3 and 1), decided on the
    /// descriptor: only a message starting in `hi − reach ..= lo` spans
    /// `lo..=hi`.
    pub fn one_message_holds(&self, needed: &Normal) -> bool {
        let (lo, hi) = needed.extent();
        let contiguous = self.stride <= 1 || self.count <= 1;
        if !contiguous {
            let n = needed.form();
            let shape = n.dims.first().map(|d| (d.stride as u64, d.count));
            let end = n.base as i128 + self.stride as i128 * (self.count as i128 - 1);
            return n.dims.len() == 1
                && shape == Some((self.stride, self.count))
                && n.base <= lo
                && end >= hi as i128
                && self.offsets.contains(n.base);
        }
        let reach = if self.stride == 0 { 0 } else { self.count as i128 - 1 };
        let Ok(from) = i64::try_from(hi as i128 - reach) else {
            return false;
        };
        if from > lo {
            return false;
        }
        match Form::of_normal(&self.offsets).filter(|f| f.lmad().is_non_aliasing()) {
            Some(starts) => starts.next_at_or_after(from).is_some_and(|o| o <= lo),
            None => self.odometer().any(|o| (from..=lo).contains(&o)),
        }
    }

    /// Number of PUT/GET messages (communication setups): the paper's
    /// `(δ2/α2) × … × (δp/αp)` at fine and middle grain, one at coarse.
    pub fn num_messages(&self) -> usize {
        self.offsets.num_accesses() as usize
    }

    /// Elements crossing the wire in total.
    pub fn total_elems(&self) -> u64 {
        self.offsets.num_accesses().saturating_mul(self.count)
    }

    /// Number of strided (programmed-I/O) messages in the plan.
    pub fn strided_messages(&self) -> usize {
        let first = RegionTransfer { offset: self.offsets.base, stride: self.stride, count: self.count };
        if first.is_contiguous() {
            0
        } else {
            self.num_messages()
        }
    }
}

/// A plan's messages, in the order [`TransferPlan::transfers`] gives.
#[derive(Debug, Clone)]
pub struct Transfers<'a> {
    /// The sorted starts of a plan whose offsets alias; `None` walks
    /// the odometer.
    sorted: Option<std::vec::IntoIter<i64>>,
    walk: Odometer<'a>,
    stride: u64,
    count: u64,
}

impl Iterator for Transfers<'_> {
    type Item = RegionTransfer;

    fn next(&mut self) -> Option<RegionTransfer> {
        let offset = match &mut self.sorted {
            Some(all) => all.next(),
            None => self.walk.next(),
        }?;
        Some(RegionTransfer { offset, stride: self.stride, count: self.count })
    }
}

/// The start offsets of `A_offsets`, innermost dim fastest. Along the
/// innermost dim a start is the last one plus its stride; only where
/// that dim wraps is the offset decomposed afresh, so a message costs
/// an addition, not a division per dim, and the walk allocates nothing.
#[derive(Debug, Clone)]
struct Odometer<'a> {
    offsets: &'a Lmad,
    /// The innermost dim's stride and count.
    stride: i64,
    row: u64,
    /// Offsets given, of `n`.
    k: u64,
    n: u64,
    offset: i64,
    left_in_row: u64,
}

impl Odometer<'_> {
    /// The `k`-th offset, decomposed.
    fn at(&self, mut k: u64) -> i64 {
        let mut offset = self.offsets.base;
        for d in &self.offsets.dims {
            offset = offset.wrapping_add(((k % d.count) as i64).wrapping_mul(d.stride));
            k /= d.count;
        }
        offset
    }
}

impl Iterator for Odometer<'_> {
    type Item = i64;

    fn next(&mut self) -> Option<i64> {
        if self.k == self.n {
            return None;
        }
        if self.left_in_row == 0 {
            (self.offset, self.left_in_row) = (self.at(self.k), self.row);
        } else {
            self.offset = self.offset.wrapping_add(self.stride);
        }
        self.left_in_row -= 1;
        self.k += 1;
        Some(self.offset)
    }
}

impl From<RegionTransfer> for TransferPlan {
    /// The plan of one message.
    fn from(t: RegionTransfer) -> TransferPlan {
        TransferPlan { offsets: Lmad::scalar(t.offset), stride: t.stride, count: t.count }
    }
}

impl PartialEq for TransferPlan {
    /// Two plans are equal when they issue the same messages in the
    /// same order, however their offsets are written.
    fn eq(&self, other: &TransferPlan) -> bool {
        (self.stride, self.count) == (other.stride, other.count)
            && (self.offsets == other.offsets
                || self.num_messages() == other.num_messages() && self.transfers().eq(other.transfers()))
    }
}

impl Eq for TransferPlan {}

/// A footprint the op questions are asked of: a region — one access,
/// its own one message — or a planned op, the union of its messages
/// ([`TransferPlan::footprint`]) with the plan they are read from.
/// Each is held as the [`Form`] its caller took once, so a question
/// normalises nothing.
#[derive(Debug, Clone, Copy)]
pub struct OpForm<'a> {
    form: Form<'a>,
    plan: Option<&'a TransferPlan>,
}

impl<'a> OpForm<'a> {
    /// A region's `form`, or — with `plan` — the form of
    /// `plan.footprint()`.
    pub fn new(form: Form<'a>, plan: Option<&'a TransferPlan>) -> Self {
        OpForm { form, plan }
    }

    /// The raw extent of the region or union.
    pub fn extent(self) -> (i64, i64) {
        self.form.extent()
    }

    /// Does a message of `self` meet a message of `other` (a region is
    /// its own one message), each pair asked [`Form::overlaps`]? A
    /// union of messages meets a footprint exactly when one of its
    /// messages does, and two messages always meet or miss exactly, so
    /// an exact answer on the unions is that answer: two translates of
    /// one shape (two row bands) in `O(dims)`, else the exact test
    /// within its budget. The messages are walked when the unions are
    /// past that budget, and on a `false` where a region's test against
    /// one message could have taken the interval fallback, which
    /// answers `true` where the exact test says `false`.
    pub fn meets(self, other: OpForm<'_>) -> bool {
        if self.plan.is_none() && other.plan.is_none() {
            return self.form.overlaps(other.form);
        }
        let per_message_exact = || match (self.plan, other.plan) {
            (Some(p), None) => p.meets_exactly(other.form),
            (None, Some(p)) => p.meets_exactly(self.form),
            _ => true,
        };
        let exact = self.form.translates_meet(other.form).or_else(|| self.form.overlaps_exact(other.form, OVERLAP_LIMIT));
        let decided = exact.filter(|&meet| meet || per_message_exact());
        #[cfg(debug_assertions)]
        crate::work::count(if decided.is_some() { &crate::work::UNIONS } else { &crate::work::WALKED });
        decided.unwrap_or_else(|| self.meets_by_message(other))
    }

    /// [`OpForm::meets`] message by message: every pair of a message
    /// of `self` and one of `other` whose extents meet, asked
    /// [`Form::overlaps`].
    fn meets_by_message(self, other: OpForm<'_>) -> bool {
        let listed = |fp: OpForm| Some(fp.plan?.transfers().map(|t| Normal::of_transfer(&t)).collect::<Vec<_>>());
        let (la, lb) = (listed(self), listed(other));
        let fa: Vec<Form> = la.as_ref().map_or_else(|| vec![self.form], |l| l.iter().map(Normal::view).collect());
        let fb: Vec<Form> = lb.as_ref().map_or_else(|| vec![other.form], |l| l.iter().map(Normal::view).collect());
        let extents: Vec<(i64, i64)> = fa.iter().chain(&fb).map(|f| f.extent()).collect();
        let n = fa.len();
        sweep::any_overlapping_pair(&extents, |i, j| i < n && n <= j && fa[i].overlaps(fb[j - n]))
    }

    /// Do two of the messages meet ([`TransferPlan::messages_meet`])?
    /// A region is one access and never does.
    pub fn meets_itself(self) -> bool {
        let meets = self.plan.is_some_and(TransferPlan::messages_meet);
        #[cfg(debug_assertions)]
        if meets {
            crate::work::count(&crate::work::INTRA);
        }
        meets
    }
}

/// §5.6 safety check for coarse/middle data collection: when the
/// approximate regions of different slaves overlap, contiguous
/// collection would let one slave's redundant bytes overwrite
/// another's fresh values ("a race condition"), so collection must
/// fall back to the fine grain.
///
/// Takes each slave's *approximate* (bounding) collected region, and
/// asks whether any two of them meet ([`cross_rank_overlap`] with one
/// region per rank).
pub fn any_overlap(regions: &[Lmad]) -> bool {
    let normals: Vec<Normal> = regions.iter().map(Normal::of).collect();
    let tagged: Vec<(usize, OpForm)> = normals.iter().map(|n| OpForm::new(n.view(), None)).enumerate().collect();
    cross_rank_overlap(&tagged)
}

/// Do two footprints of *different* ranks meet? The footprints —
/// regions, and ops read as the union of their messages — are each
/// paired with a rank; the verdict is the OR, over every cross-rank
/// pair of a region or message and a region or message, of
/// [`Form::overlaps`]. One interval sweep over the footprints' extents
/// offers the cross-rank pairs that can meet, and each is asked
/// [`OpForm::meets`] once: MM's row bands, one op a rank, are decided
/// as translates, not message by message.
pub fn cross_rank_overlap(footprints: &[(usize, OpForm)]) -> bool {
    let extents: Vec<(i64, i64)> = footprints.iter().map(|(_, f)| f.extent()).collect();
    sweep::any_overlapping_pair(&extents, |i, j| {
        let ((ri, a), (rj, b)) = (footprints[i], footprints[j]);
        ri != rj && a.meets(b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A slave's stride-2 footprint (the CFFT2INIT shape): elements
    /// 0,2,4,...,14.
    fn stride2() -> Lmad {
        Lmad::strided(0, 2, 8)
    }

    /// A slave's block-of-rows footprint in a column-major matrix:
    /// 4 contiguous elements per column, 6 columns of height 16.
    fn row_block() -> Lmad {
        Lmad::new(0, vec![Dim::new(1, 4), Dim::new(16, 6)])
    }

    #[test]
    fn fine_on_stride2_uses_one_strided_message() {
        let p = TransferPlan::lower(&stride2(), Granularity::Fine, 1 << 20);
        assert_eq!(p.num_messages(), 1);
        assert_eq!(p.strided_messages(), 1);
        assert_eq!(p.total_elems(), 8);
    }

    #[test]
    fn middle_on_stride2_doubles_the_data_but_goes_contiguous() {
        // The paper's CFFT2INIT observation: stride-2 LMADs at middle
        // grain move 50% redundant data on the DMA path.
        let p = TransferPlan::lower(&stride2(), Granularity::Middle, 1 << 20);
        assert_eq!(p.num_messages(), 1);
        assert_eq!(p.strided_messages(), 0);
        assert_eq!(p.total_elems(), 15);
    }

    #[test]
    fn coarse_is_one_bounding_message() {
        let p = TransferPlan::lower(&row_block(), Granularity::Coarse, 1 << 20);
        assert_eq!(p.num_messages(), 1);
        assert_eq!(p.strided_messages(), 0);
        // Extent: 0 ..= 3 + 16*5 = 83 -> 84 elements.
        assert_eq!(p.total_elems(), 84);
    }

    #[test]
    fn fine_on_row_block_is_one_message_per_column() {
        let p = TransferPlan::lower(&row_block(), Granularity::Fine, 1 << 20);
        assert_eq!(p.num_messages(), 6);
        assert_eq!(p.strided_messages(), 0, "unit-stride mapping is DMA");
        assert_eq!(p.total_elems(), 24);
        assert_eq!(
            p.transfers().map(|t| t.offset).collect::<Vec<_>>(),
            vec![0, 16, 32, 48, 64, 80]
        );
    }

    #[test]
    fn middle_equals_fine_when_mapping_already_contiguous() {
        let f = TransferPlan::lower(&row_block(), Granularity::Fine, 1 << 20);
        let m = TransferPlan::lower(&row_block(), Granularity::Middle, 1 << 20);
        assert!(f.transfers().eq(m.transfers()));
        assert_eq!(f, m);
        // Equality is of the messages, however the offsets are written.
        let split = |dims| TransferPlan { offsets: Lmad::new(16, dims), stride: 1, count: 4 };
        assert_eq!(split(vec![Dim::new(2, 2), Dim::new(4, 2)]), split(vec![Dim::new(2, 4)]));
        assert_ne!(split(vec![Dim::new(2, 2), Dim::new(4, 2)]), split(vec![Dim::new(2, 3)]));
    }

    #[test]
    fn message_counts_match_paper_formula() {
        // Paper: fine/middle messages = product of outer dim counts;
        // coarse = 1.
        let l = Lmad::new(
            0,
            vec![Dim::new(3, 4), Dim::new(14, 2), Dim::new(28, 5)],
        );
        let fine = TransferPlan::lower(&l, Granularity::Fine, 1 << 20);
        assert_eq!(fine.num_messages(), 2 * 5);
        let coarse = TransferPlan::lower(&l, Granularity::Coarse, 1 << 20);
        assert_eq!(coarse.num_messages(), 1);
    }

    #[test]
    fn scalar_region_plans() {
        let l = Lmad::scalar(5);
        for g in Granularity::ALL {
            let p = TransferPlan::lower(&l, g, 16);
            assert_eq!(p.num_messages(), 1, "{g:?}");
            assert_eq!(p.total_elems(), 1, "{g:?}");
            assert!(p.transfers().all(|t| t.is_contiguous()));
        }
    }

    #[test]
    fn transfers_cover_the_exact_region() {
        // Every exact offset must fall inside some transfer of every
        // granularity.
        for region in [stride2(), row_block()] {
            let offs = region.offsets(1 << 20).unwrap();
            for g in Granularity::ALL {
                let p = TransferPlan::lower(&region, g, 1 << 20);
                for &o in &offs {
                    let covered = p.transfers().any(|t| {
                        o >= t.offset
                            && o < t.end()
                            && (o - t.offset) as u64 % t.stride == 0
                    });
                    assert!(covered, "{g:?} misses offset {o}");
                }
            }
        }
    }

    #[test]
    fn overlap_check_detects_collision() {
        // Two slaves' coarse bounding regions interleave.
        let s0 = Lmad::strided(0, 4, 8).bounding_contiguous();
        let s1 = Lmad::strided(2, 4, 8).bounding_contiguous();
        assert!(any_overlap(&[s0, s1]));
        // Block-disjoint slaves are safe.
        let b0 = Lmad::contiguous(0, 16);
        let b1 = Lmad::contiguous(16, 16);
        assert!(!any_overlap(&[b0, b1]));
        assert!(!any_overlap(&[]));
    }

    /// A plan is its descriptor whatever its message count: 1.21 M
    /// messages are counted, not listed, and the walk is lazy.
    #[test]
    fn a_plan_past_any_limit_is_a_descriptor() {
        let l = Lmad::new(0, vec![Dim::new(1, 2), Dim::new(1100, 1100), Dim::new(1100 * 1100, 1100)]);
        let p = TransferPlan::lower(&l, Granularity::Fine, 10);
        assert_eq!(p.num_messages(), 1_210_000);
        assert_eq!(p.total_elems(), 2_420_000);
        let first: Vec<i64> = p.transfers().take(3).map(|t| t.offset).collect();
        assert_eq!(first, vec![0, 1100, 2200]);
    }

    #[test]
    fn granularity_names() {
        assert_eq!(Granularity::Fine.name(), "fine");
        assert_eq!(Granularity::Middle.name(), "middle");
        assert_eq!(Granularity::Coarse.name(), "coarse");
    }
}
