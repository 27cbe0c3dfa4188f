//! The footprint join: which pairs of footprints can possibly meet,
//! and which members of a list can possibly hold an offset — answered
//! by sorting bounding intervals instead of visiting every pair.
//!
//! Every consumer of the algebra asks one of two questions about a
//! *list* of footprints: "which pairs overlap?" (the §5.6 safety
//! check, the static and the dynamic epoch-conflict scans) or "is this
//! region inside the union of those?" (AVPG elision, coverage proofs).
//! Both reject on the bounding interval before any exact reasoning —
//! [`Lmad::overlaps`] and [`Lmad::contains`] answer `false` outright
//! when the intervals are disjoint — so the exact tests only ever
//! matter for interval-overlapping candidates. This module finds the
//! candidates in `O(n log n + k)` and leaves every decision to the
//! exact tests: it **prunes, it never decides**. What decides is the
//! run algebra (`crate::runs`) — a walk over stride-1 runs, not over
//! elements — so neither half of a footprint question enumerates.

use std::cell::OnceCell;

use crate::descriptor::Lmad;
use crate::normal::{Form, Normal};
use crate::transfer::TransferPlan;

/// Sweep the `members` (indices into whatever `extent` describes) in
/// order of their low ends, calling `hit(i, j)` with `i < j` for every
/// pair whose closed intervals intersect, until it returns `true`.
/// Returns whether it did. An interval with `lo > hi` is empty and
/// meets nothing. Visit order is the sweep's, not lexicographic.
/// `active` is working memory: cleared here, its capacity the caller's
/// to keep.
fn sweep<T: Ord + Copy>(
    members: &mut [usize],
    active: &mut Vec<usize>,
    extent: impl Fn(usize) -> (T, T),
    mut hit: impl FnMut(usize, usize) -> bool,
) -> bool {
    members.sort_unstable_by_key(|&i| extent(i).0);
    // Members seen so far whose interval reaches the sweep line. Each
    // survivor of the `retain` starts at or before `lo` and ends at or
    // after it, so it is a reported pair: the work is O(out + pairs).
    active.clear();
    for &k in members.iter() {
        let (lo, hi) = extent(k);
        if lo > hi {
            continue;
        }
        active.retain(|&a| extent(a).1 >= lo);
        for &a in active.iter() {
            if hit(a.min(k), a.max(k)) {
                return true;
            }
        }
        active.push(k);
    }
    false
}

/// Does `hit(i, j)` hold for some index pair `i < j` whose closed
/// bounding intervals intersect? Stops at the first pair that does;
/// pairs with disjoint intervals are never offered. Intervals with
/// `lo > hi` are empty.
pub fn any_overlapping_pair<T: Ord + Copy>(
    intervals: &[(T, T)],
    hit: impl FnMut(usize, usize) -> bool,
) -> bool {
    let mut members: Vec<usize> = (0..intervals.len()).collect();
    sweep(&mut members, &mut Vec::new(), |i| intervals[i], hit)
}

/// Runs ascending and apart: sorted unless already in order, and runs
/// that overlap or abut joined in place — so an interval inside their
/// union is inside one of them.
fn joined(mut runs: Vec<(i64, i64)>) -> Vec<(i64, i64)> {
    if !runs.is_sorted_by_key(|r| r.0) {
        runs.sort_unstable_by_key(|r| r.0);
    }
    let mut kept: usize = 0;
    for k in 0..runs.len() {
        match kept.checked_sub(1) {
            Some(last) if runs[k].0 <= runs[last].1.saturating_add(1) => {
                runs[last].1 = runs[last].1.max(runs[k].1);
            }
            _ => {
                runs[kept] = runs[k];
                kept += 1;
            }
        }
    }
    runs.truncate(kept);
    runs
}

/// Add one run to runs kept as [`joined`] leaves them.
fn insert_run(runs: &mut Vec<(i64, i64)>, (lo, hi): (i64, i64)) {
    // The runs that overlap or abut `lo..=hi` are `from..to`.
    let from = runs.partition_point(|r| r.1.saturating_add(1) < lo);
    let to = runs.partition_point(|r| r.0 <= hi.saturating_add(1));
    if from == to {
        runs.insert(from, (lo, hi));
    } else {
        let joined = (lo.min(runs[from].0), hi.max(runs[to - 1].1));
        runs.splice(from..to, [joined]);
    }
}

/// The keyed interval join, with its working memory, for a caller
/// that joins batch after batch (the epoch scanner, at every closing
/// fence of a run and every epoch of a trace): the bucket order, the
/// sweep line and the answer keep their capacity from one join to the
/// next, so a join the size of an earlier one allocates nothing.
#[derive(Debug, Default)]
pub struct PairJoin {
    order: Vec<usize>,
    active: Vec<usize>,
    pairs: Vec<(usize, usize)>,
}

impl PairJoin {
    /// Every index pair `i < j` of items `0..n` with *equal keys* and
    /// intersecting closed intervals, item `i` read as
    /// `item(i) = (key, (lo, hi))` wherever the caller keeps it — no
    /// list of footprints is built to ask. The pairs come in
    /// lexicographic order over the whole list, so a caller that
    /// replays them visits them in exactly the order a
    /// `for i { for j in i+1.. }` loop would. An interval with
    /// `lo > hi` is empty and meets nothing. The answer is valid until
    /// the next join.
    pub fn pairs_by_key<K: Ord + Copy, T: Ord + Copy>(
        &mut self,
        n: usize,
        item: impl Fn(usize) -> (K, (T, T)),
    ) -> &[(usize, usize)] {
        let PairJoin { order, active, pairs } = self;
        pairs.clear();
        if n < 2 {
            return pairs;
        }
        order.clear();
        order.extend(0..n);
        order.sort_unstable_by_key(|&i| item(i).0);
        for bucket in order.chunk_by_mut(|&a, &b| item(a).0 == item(b).0) {
            if bucket.len() >= 2 {
                sweep(bucket, active, |i| item(i).1, |i, j| {
                    pairs.push((i, j));
                    false
                });
            }
        }
        pairs.sort_unstable();
        pairs
    }
}

/// The budget every coverage proof of the pipeline runs under, in
/// accesses of the region to cover. One constant: `vpce-rmacheck`
/// re-proves the elisions `polaris-be` planned, and a checker with a
/// smaller budget than the planner reports each proof it cannot afford
/// as a stale master copy (`VPCE006`) that is not there.
pub const COVER_LIMIT: u64 = 1 << 21;

/// "Is every element of `needed` inside the union of these regions and
/// ops?" — the coverage proof behind AVPG scatter elision,
/// approximate-collect coherence and the VPCE006 staleness pass — over
/// a list that is normalised and sorted **once**, not once per
/// question.
///
/// Members are [`Normal`]s kept sorted by the low end of their raw
/// extent with a running maximum of high ends, so the members that can
/// hold an offset (or a whole interval) are found by one binary search
/// and a backward walk that stops as soon as nothing earlier reaches
/// far enough. A planned op is one member, the union of its messages
/// ([`CoverIndex::extend_ops`]), not one a message. No answer depends
/// on the members' order or on a member appearing twice.
#[derive(Debug, Clone, Default)]
pub struct CoverIndex {
    /// Sorted by `extent().0`.
    members: Vec<Normal>,
    /// The ops whose unions are members, kept for the proofs past the
    /// budget ([`CoverIndex::covered`]).
    ops: Vec<TransferPlan>,
    /// `max_hi[i]` = the largest high end among `members[..=i]`.
    max_hi: Vec<i64>,
    /// The runs of every member within the overlap budget whose
    /// elements lie inside its raw extent ([`Form::sweepable`]),
    /// [`joined`]: built at the first question that needs them, kept
    /// up by `push`.
    runs: OnceCell<Vec<(i64, i64)>>,
}

impl CoverIndex {
    /// Index `have` (normalising each member once).
    pub fn new<'a>(have: impl IntoIterator<Item = &'a Lmad>) -> Self {
        CoverIndex::of_normals(have.into_iter().map(Normal::of))
    }

    /// Index regions already in normal form.
    pub fn of_normals(have: impl IntoIterator<Item = Normal>) -> Self {
        let mut idx = CoverIndex::default();
        idx.extend(have);
        idx
    }

    /// Add one more region to the union.
    pub fn push(&mut self, region: Normal) {
        if let Some(runs) = self.runs.get_mut().filter(|_| region.view().sweepable()) {
            for run in region.view().runs() {
                insert_run(runs, run);
            }
        }
        let lo = region.extent().0;
        let at = self.members.partition_point(|x| x.extent().0 <= lo);
        self.members.insert(at, region);
        self.rebuild_max_hi(at);
    }

    /// Add many more regions to the union: one sort, not one insertion
    /// each.
    pub fn extend(&mut self, more: impl IntoIterator<Item = Normal>) {
        self.members.extend(more);
        self.members.sort_by_key(|m| m.extent().0);
        self.rebuild_max_hi(0);
        self.runs = OnceCell::new();
    }

    /// Add the messages of `ops` to the union: one member an op, the
    /// union of its messages ([`Normal::of_plan`]).
    pub fn extend_ops<'p>(&mut self, ops: impl IntoIterator<Item = &'p TransferPlan>) {
        let start = self.ops.len();
        self.ops.extend(ops.into_iter().cloned());
        let unions: Vec<Normal> = self.ops[start..].iter().map(Normal::of_plan).collect();
        self.extend(unions);
    }

    fn rebuild_max_hi(&mut self, from: usize) {
        self.max_hi.truncate(from);
        let mut running = self.max_hi.last().copied().unwrap_or(i64::MIN);
        for m in &self.members[from..] {
            running = running.max(m.extent().1);
            self.max_hi.push(running);
        }
    }

    /// The members whose bounding interval contains `[lo, hi]`.
    fn spanning(&self, lo: i64, hi: i64) -> impl Iterator<Item = &Normal> {
        let end = self.members.partition_point(|m| m.extent().0 <= lo);
        (0..end)
            .rev()
            .take_while(move |&i| self.max_hi[i] >= hi)
            .map(|i| &self.members[i])
            .filter(move |m| m.extent().1 >= hi)
    }

    /// [`CoverIndex::runs`], built if this is the first question.
    fn small_runs(&self) -> &[(i64, i64)] {
        self.runs.get_or_init(|| {
            let small = self.members.iter().map(Normal::view).filter(|m| m.sweepable());
            joined(small.flat_map(Form::runs).collect())
        })
    }

    /// The furthest any member's run holding `o` reaches, `None` when
    /// no member holds `o`: [`Form::run_end`] of the union. A run
    /// ends with its member's bounding interval (they part only when
    /// the region leaves `i64` and its normal form saturates).
    fn run_end(&self, o: i64) -> Option<i64> {
        self.spanning(o, o).filter_map(|m| Some(m.view().run_end(o)?.min(m.extent().1))).max()
    }

    /// Is every element of `needed` provably inside the union of the
    /// indexed regions and ops? A ladder, cheapest first, each rung
    /// sufficient:
    ///
    /// 1. some member has `needed`'s normal form;
    /// 2. (at most 4096 accesses, within the budget) every run of
    ///    `needed` lies inside one of the joined runs of the small
    ///    members (`CoverIndex::runs`) — a binary search a run. Rung 4
    ///    answers "is every element inside the union" exactly on such a
    ///    `needed`, so this claims nothing rung 4 would not;
    /// 3. some single member contains all of it (run by run when it
    ///    has at most 4096 accesses, else "contiguous member spans the
    ///    extent");
    /// 4. every one of its runs is inside the union of the members;
    /// 5. (past the budget, where rung 4 is not asked) some member holds
    ///    it column by column (`holds_columns`): a middle-grain op's
    ///    union of bounding runs holds a strided store of any size.
    ///
    /// Rungs 3–4 walk `needed`'s runs and carry a cursor through each
    /// on the members' `Form::run_end`s (`Form::covered_by`):
    /// whole runs are skipped in one step and the walk stops at the
    /// first uncovered element, so a failing proof costs what it takes
    /// to find the hole, not the size of `needed`.
    ///
    /// `limit` is the caller's proof budget in *accesses of `needed`*
    /// as written (its raw form) — what an element-by-element proof
    /// would have enumerated — and it is kept to the letter: beyond it
    /// (or past `i64`) the answer is `false` however cheap the walk
    /// would be, so coverage is claimed on exactly the inputs it always
    /// was. The 4096 of rungs 2 and 3 reads the same raw form.
    ///
    /// An op is one member, so its answer is the one an index with a
    /// member per message gives, for any `limit` of at least 4096:
    /// within the budget rung 4 decides on the union of the elements
    /// either way, and past it the rungs that read one member at a
    /// time (1 and 3) are asked of each op's messages as well
    /// ([`TransferPlan::one_message_holds`]). Past the budget the op's
    /// union may prove by rung 1, 3 or 5 what none of its messages
    /// would.
    pub fn covered(&self, needed: &Normal, limit: u64) -> bool {
        if self.members.is_empty() {
            return false;
        }
        const SINGLE_MEMBER_LIMIT: u64 = 4096;
        let small = needed.enumerable(SINGLE_MEMBER_LIMIT);
        let within = needed.enumerable(limit);
        let by_runs = small && within;
        let in_runs = |runs: &[(i64, i64)]| needed.view().runs().all(|run| inside(runs, run));
        // Every rung is a sufficient condition, so their order is free:
        // rung 2 goes first once the runs are built (an index asked
        // many questions), rung 1 before building them.
        if by_runs && self.runs.get().is_some_and(|runs| in_runs(runs)) {
            return true;
        }
        let (lo, hi) = needed.extent();
        let n = needed.form();
        if self.spanning(lo, hi).any(|m| m.form() == n) {
            return true;
        }
        if by_runs && self.runs.get().is_none() && in_runs(self.small_runs()) {
            return true;
        }
        let inside_one = self.spanning(lo, hi).any(|m| {
            if small {
                needed.view().covered_by(|o| m.view().run_end(o))
            } else {
                // A contiguous member spanning the extent holds
                // everything in it (`spanning` established the span).
                m.form().is_contiguous_normalized()
            }
        });
        inside_one
            || (within && needed.view().covered_by(|o| self.run_end(o)))
            || (!within && self.spanning(lo, hi).any(|m| holds_columns(m, needed)))
            || self.ops.iter().any(|op| op.one_message_holds(needed))
    }
}

/// Does `member` hold `needed` column by column: the two normal forms
/// agree in every dimension above the innermost, and the member's
/// innermost progression holds `needed`'s? Then each access of
/// `needed` is the member's access with the same outer digits, whatever
/// the sizes — `O(dims)`, no walk.
fn holds_columns(member: &Normal, needed: &Normal) -> bool {
    let (m, n) = (member.form(), needed.form());
    let (Some(inner), Some(col)) = (m.dims.first(), n.dims.first()) else {
        return false;
    };
    if m.dims[1..] != n.dims[1..] || !member.enumerable(u64::MAX) || !needed.enumerable(u64::MAX) {
        return false;
    }
    let stride = inner.stride as i128;
    let first = n.base as i128 - m.base as i128;
    let last = first + col.stride as i128 * (col.count as i128 - 1);
    first >= 0 && first % stride == 0 && col.stride as i128 % stride == 0 && last <= stride * (inner.count as i128 - 1)
}

/// Is the run `first..=last` inside one of `runs` ([`joined`])?
fn inside(runs: &[(i64, i64)], (first, last): (i64, i64)) -> bool {
    let at = runs.partition_point(|r| r.0 <= first);
    at > 0 && runs[at - 1].1 >= last
}

#[cfg(test)]
impl CoverIndex {
    /// [`CoverIndex::covered`] as it enumerated — `needed`'s offsets
    /// into a list, each probed against the members — kept as the
    /// reference the run walk is held to (`crate::oracle`).
    pub(crate) fn covered_enumerating(&self, needed: &Lmad, limit: u64) -> bool {
        if self.members.is_empty() {
            return false;
        }
        let (lo, hi) = needed.extent();
        let n = needed.normalized();
        if self.spanning(lo, hi).any(|m| *m.form() == n) {
            return true;
        }
        let holds = |m: &Normal, o: i64| m.view().run_end(o).is_some();
        let small = needed.offsets(4096);
        let inside_one = self.spanning(lo, hi).any(|m| match &small {
            Some(offs) => offs.iter().all(|&o| holds(m, o)),
            None => m.form().is_contiguous_normalized(),
        });
        if inside_one {
            return true;
        }
        let all = match small {
            Some(offs) if limit >= 4096 => Some(offs),
            _ => needed.offsets(limit),
        };
        all.is_some_and(|offs| offs.iter().all(|&o| self.spanning(o, o).any(|m| holds(m, o))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::Dim;
    use crate::oracle::ladder_oracle;
    use vpce_testkit::prelude::*;

    /// The all-pairs interval test the sweep replaces.
    fn all_pairs<T: Ord + Copy>(iv: &[(T, T)]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (i, a) in iv.iter().enumerate() {
            for (j, b) in iv.iter().enumerate().skip(i + 1) {
                if a.0 <= a.1 && b.0 <= b.1 && a.0 <= b.1 && b.0 <= a.1 {
                    out.push((i, j));
                }
            }
        }
        out
    }

    /// A fresh [`PairJoin::pairs_by_key`] over a list.
    fn join<K: Ord + Copy, T: Ord + Copy>(items: &[(K, (T, T))]) -> Vec<(usize, usize)> {
        PairJoin::default().pairs_by_key(items.len(), |i| items[i]).to_vec()
    }

    /// The same intervals, all in one bucket.
    fn one_bucket<T: Copy>(iv: &[(T, T)]) -> Vec<((), (T, T))> {
        iv.iter().map(|&e| ((), e)).collect()
    }

    #[test]
    fn pairs_of_a_small_set() {
        //            0        1       2        3 (empty)  4
        let iv = [(0, 4), (4, 6), (10, 12), (3, 2), (-5, 20)];
        assert_eq!(join(&one_bucket(&iv)), vec![(0, 1), (0, 4), (1, 4), (2, 4)]);
        assert!(join::<(), i64>(&[]).is_empty());
        assert!(join(&one_bucket(&[(1, 1)])).is_empty());
    }

    #[test]
    fn any_pair_stops_early_and_skips_disjoint_pairs() {
        let iv = [(0, 1), (2, 3), (4, 5), (5, 9)];
        let mut offered = Vec::new();
        assert!(!any_overlapping_pair(&iv, |i, j| {
            offered.push((i, j));
            false
        }));
        assert_eq!(offered, vec![(2, 3)]);
        let all_meet = [(0, 9); 50];
        let mut calls = 0;
        assert!(any_overlapping_pair(&all_meet, |_, _| {
            calls += 1;
            true
        }));
        assert_eq!(calls, 1);
    }

    #[test]
    fn keyed_join_keeps_buckets_apart_and_global_order() {
        let items = [
            (1u8, (0, 9)),
            (0, (0, 9)),
            (1, (5, 6)),
            (0, (9, 9)),
            (1, (6, 7)),
            (2, (0, 9)),
        ];
        assert_eq!(
            join(&items),
            vec![(0, 2), (0, 4), (1, 3), (2, 4)]
        );
    }

    #[test]
    fn a_reused_join_answers_like_a_fresh_one() {
        // A large join, then a smaller one over other buckets, then an
        // empty one: nothing of an earlier answer survives into a later.
        let wide: Vec<(u8, (i64, i64))> = (0..40).map(|i| (i % 3, (i as i64, i as i64 + 4))).collect();
        let small = [(7u8, (0, 9)), (7, (5, 6)), (8, (5, 6))];
        let mut reused = PairJoin::default();
        for items in [&wide[..], &small[..], &[][..], &wide[..]] {
            assert_eq!(reused.pairs_by_key(items.len(), |i| items[i]), join(items));
        }
    }

    /// (a) of the oracle suite: the sweep ≡ the all-pairs interval
    /// test, on interval sets with duplicates, nesting, touching ends
    /// (`hi == lo`), empties and ends at the `i64` limits.
    #[test]
    fn sweep_matches_all_pairs_on_random_intervals() {
        let end = weighted(vec![
            (6, i64_in(-12, 12)),
            (1, elem_of(vec![i64::MIN, i64::MIN + 1, i64::MAX - 1, i64::MAX])),
            (1, i64_in(i64::MIN, i64::MAX)),
        ]);
        let g = vec_of(zip3(end.clone(), end, u64_in(0, 2)), 0, 40);
        Check::new("lmad::sweep_matches_all_pairs_on_random_intervals")
            .cases(512)
            .run(&g, |raw| {
                // Mostly well-formed (lo <= hi), a few left as drawn.
                let iv: Vec<(i64, i64)> = raw
                    .iter()
                    .map(|&(a, b, keep)| if keep == 0 { (a, b) } else { (a.min(b), a.max(b)) })
                    .collect();
                let want = all_pairs(&iv);
                prop_assert_eq!(&join(&one_bucket(&iv)), &want);
                let mut seen = Vec::new();
                any_overlapping_pair(&iv, |i, j| {
                    seen.push((i, j));
                    false
                });
                seen.sort_unstable();
                prop_assert_eq!(&seen, &want);
                // Keyed: the same join per bucket, one global order.
                let keyed: Vec<(u64, (i64, i64))> =
                    raw.iter().zip(&iv).map(|(r, &e)| (r.2, e)).collect();
                let want_keyed: Vec<(usize, usize)> = want
                    .iter()
                    .copied()
                    .filter(|&(i, j)| keyed[i].0 == keyed[j].0)
                    .collect();
                prop_assert_eq!(&join(&keyed), &want_keyed);
                Ok(())
            });
    }

    fn small_lmad() -> Gen<Lmad> {
        let dim = weighted(vec![
            (6, zip2(i64_in(1, 9), u64_in(2, 6))),
            (1, zip2(i64_in(-6, -1), u64_in(2, 5))),
            (1, zip2(i64_in(-3, 3), u64_in(1, 1))),
            (1, zip2(just(0), u64_in(1, 4))),
        ])
        .map(|(s, c)| Dim::new(s, c));
        zip2(i64_in(-20, 60), vec_of(dim, 0, 3)).map(|(b, d)| Lmad::new(b, d))
    }

    /// (b) of the oracle suite: the cover index ≡ the old ladder, at
    /// both proof budgets the workspace uses (the planner's 2²¹, the
    /// staleness pass's 2¹⁶) and at budgets small enough to trip, with
    /// members pushed after construction and after questions.
    #[test]
    fn cover_index_matches_the_old_ladder() {
        let limit = elem_of(vec![1u64 << 21, 1 << 16, 4096, 64, 8]);
        let g = zip4(
            vec_of(small_lmad(), 0, 8),
            vec_of(small_lmad(), 0, 3),
            vec_of(small_lmad(), 1, 6),
            limit,
        );
        Check::new("lmad::cover_index_matches_the_old_ladder")
            .cases(512)
            .run(&g, |(have, pushed, needed, limit)| {
                let mut all = have.clone();
                let mut idx = CoverIndex::new(have);
                // Asked before and after each push: a push lands in an
                // index that has already answered.
                for p in pushed.iter().map(Some).chain([None]) {
                    for n in needed {
                        prop_assert_eq!(
                            idx.covered(&Normal::of(n), *limit),
                            ladder_oracle(n, &all, *limit),
                            "needed {} have {:?}",
                            n,
                            all
                        );
                    }
                    if let Some(p) = p {
                        idx.push(Normal::of(p));
                        all.push(p.clone());
                    }
                }
                // Every member is covered by the union it belongs to.
                for h in &all {
                    prop_assert!(idx.covered(&Normal::of(h), *limit));
                }
                Ok(())
            });
    }

    /// The same equivalence on the shapes the planner produces: long
    /// contiguous runs (beyond the 4096-access single-member budget,
    /// so the "contiguous member spans the extent" rung decides),
    /// column pieces, and their unions.
    #[test]
    fn cover_index_matches_the_old_ladder_on_long_runs() {
        let run = zip2(i64_in(0, 40_000), u64_in(1, 30_000)).map(|(b, c)| Lmad::contiguous(b, c));
        let comb = zip3(i64_in(0, 20_000), i64_in(2, 5), u64_in(2, 9_000))
            .map(|(b, s, c)| Lmad::strided(b, s, c));
        let piece = zip4(i64_in(0, 2_000), u64_in(1, 40), i64_in(50, 400), u64_in(1, 120))
            .map(|(b, w, ld, cols)| Lmad::new(b, vec![Dim::new(1, w), Dim::new(ld, cols)]));
        let any = weighted(vec![(3, run), (1, comb), (2, piece)]);
        let g = zip3(
            vec_of(any.clone(), 0, 6),
            vec_of(any, 1, 4),
            elem_of(vec![1u64 << 21, 1 << 16]),
        );
        Check::new("lmad::cover_index_matches_the_old_ladder_on_long_runs")
            .cases(192)
            .run(&g, |(have, needed, limit)| {
                let idx = CoverIndex::new(have);
                for n in needed {
                    prop_assert_eq!(idx.covered(&Normal::of(n), *limit), ladder_oracle(n, have, *limit));
                }
                Ok(())
            });
    }

    /// Rung 5 is sound: whenever a member holds `needed` column by
    /// column, enumerating both agrees — on columns of every stride
    /// ratio under shared outer dimensions, and with one of the
    /// member's outer dimensions a column short (where it must not
    /// fire).
    #[test]
    fn columns_hold_what_enumeration_holds() {
        let column = zip3(i64_in(0, 12), i64_in(1, 4), u64_in(2, 8));
        let outer = vec_of(zip2(i64_in(40, 90), u64_in(2, 4)).map(|(s, c)| Dim::new(s, c)), 0, 2);
        let g = zip4(column.clone(), column, outer, elem_of(vec![None, Some(0), Some(1)]));
        let fired = std::cell::Cell::new(0);
        Check::new("lmad::columns_hold_what_enumeration_holds")
            .cases(2000)
            .run(&g, |((nb, ns, nc), (mb, ms, mc), outer, perturb)| {
                let needed = Lmad::new(*nb, [Dim::new(*ns, *nc)].into_iter().chain(outer.iter().copied()).collect());
                let mut member_outer = outer.clone();
                if let Some(d) = perturb.and_then(|k| member_outer.get_mut(k)) {
                    d.count -= 1;
                }
                let member = Lmad::new(*mb, [Dim::new(*ms, *mc * 3)].into_iter().chain(member_outer).collect());
                if holds_columns(&Normal::of(&member), &Normal::of(&needed)) {
                    fired.set(fired.get() + 1);
                    let have = member.offsets(1 << 16).expect("small");
                    let want = needed.offsets(1 << 16).expect("small");
                    prop_assert!(want.iter().all(|o| have.contains(o)), "{} does not hold {}", member, needed);
                }
                Ok(())
            });
        assert!(fired.get() > 100, "rung 5 fired {} times", fired.get());
    }

    /// The stride-2 store of `X(2*N+2,N,N)` over the upper half of the
    /// cube at N=200 (4 000 000 accesses), and its middle-grain collect
    /// union — one bounding run a column: past the budget the union
    /// holds the store (rung 5), and not the other way round.
    #[test]
    fn a_union_of_column_runs_holds_a_strided_store_past_the_budget() {
        let n = 200;
        let ld = 2 * n as i64 + 2;
        let base = 1 + 100 * ld * n as i64;
        let outer = [Dim::new(ld, n), Dim::new(ld * n as i64, n / 2)];
        let store = Lmad::new(base, [Dim::new(2, n)].into_iter().chain(outer).collect());
        let runs = Lmad::new(base, [Dim::new(1, 2 * n - 1)].into_iter().chain(outer).collect());
        assert!(store.num_accesses() > COVER_LIMIT);
        assert!(CoverIndex::new([&runs]).covered(&Normal::of(&store), COVER_LIMIT));
        assert!(!CoverIndex::new([&store]).covered(&Normal::of(&runs), COVER_LIMIT));
    }

    #[test]
    fn cover_index_edges() {
        // Rung 1 decides at any size; the empty union covers nothing.
        let huge = Lmad::strided(3, 7, 1 << 40);
        assert!(CoverIndex::new([&huge]).covered(&Normal::of(&huge), 8));
        assert!(!CoverIndex::default().covered(&Normal::of(&Lmad::scalar(0)), 1 << 16));
        // A proof over budget is not a proof.
        let mut halves = CoverIndex::new([&Lmad::contiguous(0, 50)]);
        let whole = Normal::of(&Lmad::contiguous(0, 100));
        assert!(!halves.covered(&whole, 100));
        halves.push(Normal::of(&Lmad::contiguous(50, 50)));
        assert!(halves.covered(&whole, 100));
        assert!(!halves.covered(&whole, 99));
    }
}
