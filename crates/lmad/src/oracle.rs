//! Reference implementations the run algebra is held to: the proofs as
//! they were when they enumerated — every element offset into a
//! `Vec<i64>`, sorted, probed one by one — kept verbatim for tests
//! only, plus the pinned-seed properties that compare. The contract is
//! *cost changes, answers do not*: equal on every input, `None`-ness
//! and budget refusals included. The same holds for the epoch scanner
//! against a visit to every pair, and for the progression kernel
//! against listing both progressions.

use crate::descriptor::{progressions_intersect, Dim, Lmad};
use crate::epoch::{Access, ConflictKind, Effect, EpochScan, Footprint};
use crate::sweep::CoverIndex;
use vpce_testkit::prelude::*;

/// `Lmad::overlaps_exact` as it enumerated (rungs 3–4 by offset list).
pub(crate) fn overlaps_exact_enumerating(x: &Lmad, y: &Lmad, limit: u64) -> Option<bool> {
    let (alo, ahi) = x.extent();
    let (blo, bhi) = y.extent();
    if ahi < blo || bhi < alo {
        return Some(false);
    }
    let a = x.normalized();
    let b = y.normalized();
    if a.dims.len() <= 1 && b.dims.len() <= 1 {
        let (s1, c1) = a.dims.first().map_or((1, 1), |d| (d.stride, d.count));
        let (s2, c2) = b.dims.first().map_or((1, 1), |d| (d.stride, d.count));
        return Some(progressions_intersect(a.base, s1, c1, b.base, s2, c2));
    }
    match (a.offsets(limit), b.offsets(limit)) {
        (Some(ao), Some(bo)) => {
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
        (Some(ao), None) if b.is_non_aliasing() => Some(ao.iter().any(|&o| b.contains(o))),
        (None, Some(bo)) if a.is_non_aliasing() => Some(bo.iter().any(|&o| a.contains(o))),
        _ => None,
    }
}

/// `Lmad::contains_all` as it enumerated.
pub(crate) fn contains_all_enumerating(this: &Lmad, other: &Lmad, limit: u64) -> bool {
    match other.offsets(limit) {
        Some(offs) => offs.iter().all(|&o| this.contains(o)),
        None => {
            let n = this.normalized();
            if n.is_contiguous() {
                let (lo, hi) = n.extent();
                let (olo, ohi) = other.extent();
                lo <= olo && ohi <= hi
            } else {
                false
            }
        }
    }
}

/// The `covered` ladder as `polaris-be` and `rmacheck` each carried
/// it (they differed only in `limit`).
pub(crate) fn ladder_oracle(needed: &Lmad, have: &[Lmad], limit: u64) -> bool {
    if have.is_empty() {
        return false;
    }
    let n = needed.normalized();
    if have.iter().any(|h| h.normalized() == n) {
        return true;
    }
    if have.iter().any(|h| contains_all_enumerating(h, needed, 4096)) {
        return true;
    }
    match needed.offsets(limit) {
        Some(offs) => offs.iter().all(|&o| have.iter().any(|h| h.contains(o))),
        None => false,
    }
}

/// Descriptors from every corner the proofs must agree in: 0–3 dims;
/// negative, zero and repeated strides; `count == 1`; dims that alias;
/// unit-stride inner runs; counts on both sides of the 4096 rung and
/// far past any budget; bases and spans at the `i64` limits. Anything
/// a budget of 2²¹ admits stays small enough to enumerate 2 000 times.
///
/// One corner is left out: dims that alias *and* count past every
/// budget. Membership in such a descriptor is a backtracking search
/// over its digits with no bound but the counts — it was before the
/// run algebra and it is after, in the reference and in the code
/// under test alike — so a draw there is a hung test, not a verdict.
/// Their counts are capped instead (the strides, and so the aliasing,
/// stay).
pub(crate) fn wild_lmad() -> Gen<Lmad> {
    let stride = weighted(vec![
        (3, just(1)),
        (5, i64_in(1, 9)),
        (2, i64_in(-6, -1)),
        (1, just(0)),
        (1, i64_in(10, 300)),
        (1, elem_of(vec![1 << 40, (1 << 62) - 1, 1 << 62, i64::MAX, i64::MIN + 1])),
    ]);
    let count = weighted(vec![
        (2, just(1)),
        (8, u64_in(2, 6)),
        (2, u64_in(7, 70)),
        (1, elem_of(vec![1 << 22, 1 << 40, u64::MAX >> 1, u64::MAX])),
    ]);
    let base = weighted(vec![
        (8, i64_in(-20, 60)),
        (1, i64_in(i64::MIN, i64::MIN + 64)),
        (1, i64_in(i64::MAX - 64, i64::MAX)),
    ]);
    let dim = zip2(stride, count).map(|(s, c)| Dim::new(s, c));
    zip2(base, vec_of(dim, 0, 3)).map(|(b, d)| {
        let mut l = Lmad::new(b, d);
        let n = l.normalized();
        if !n.is_non_aliasing() && n.num_accesses() > 1 << 21 {
            for d in &mut l.dims {
                d.count = d.count.min(24);
            }
        }
        l
    })
}

/// Two of them, half the time rebased next to each other so that the
/// bounding extents meet and the rungs past the first decide.
fn wild_pair() -> Gen<(Lmad, Lmad)> {
    let near = weighted(vec![(1, just(None)), (1, i64_in(-30, 30).map(Some))]);
    zip3(wild_lmad(), wild_lmad(), near).map(|(a, mut b, near)| {
        if let Some(delta) = near {
            b.base = a.base.saturating_add(delta);
        }
        (a, b)
    })
}

/// Does every offset fit `i64`, so that extents and normal forms are
/// exact? (Past it they saturate, and the enumerating references stop
/// agreeing *with each other*: the old `covered` is the one to match.)
fn fits(l: &Lmad) -> bool {
    l.enumerable(u64::MAX)
}

/// Budgets on both sides of a descriptor's access count, plus the
/// three the workspace uses and ones small enough to trip.
fn limits_around(l: &Lmad) -> Vec<u64> {
    let n = l.num_accesses();
    let mut v = vec![0, 1, 8, 64, 4096, 1 << 16, 1 << 21];
    if n <= 1 << 21 {
        v.extend([n.saturating_sub(1), n, n + 1]);
    }
    v
}

/// A region with a unit-stride inner run, cut into two members at a
/// random point of the run: neither holds a whole run of `needed`,
/// the two jointly hold all of it.
fn jointly_covered() -> Gen<(Lmad, Vec<Lmad>)> {
    zip4(i64_in(-20, 60), u64_in(2, 40), zip2(i64_in(41, 90), u64_in(1, 8)), u64_in(1, 39)).map(
        |(base, width, (ld, cols), cut)| {
            let cut = cut.min(width - 1);
            let piece = |b: i64, w: u64| Lmad::new(b, vec![Dim::new(1, w), Dim::new(ld, cols)]);
            (
                piece(base, width),
                vec![piece(base, cut), piece(base + cut as i64, width - cut)],
            )
        },
    )
}

#[test]
fn overlaps_exact_matches_the_enumerating_proof() {
    Check::new("lmad::overlaps_exact_matches_the_enumerating_proof")
        .cases(3000)
        .run(&wild_pair(), |(a, b)| {
            let mut limits = limits_around(&a.normalized());
            limits.extend(limits_around(&b.normalized()));
            for limit in limits {
                let want = overlaps_exact_enumerating(a, b, limit);
                prop_assert_eq!(a.overlaps_exact(b, limit), want, "limit {}", limit);
                prop_assert_eq!(b.overlaps_exact(a, limit), want, "flipped, limit {}", limit);
            }
            Ok(())
        });
}

#[test]
fn covered_matches_the_enumerating_ladder() {
    let plain = zip2(wild_lmad(), vec_of(wild_lmad(), 0, 6));
    let joint = zip2(jointly_covered(), vec_of(wild_lmad(), 0, 3)).map(
        |((needed, mut halves), more)| {
            halves.extend(more);
            (needed, halves)
        },
    );
    let g = zip2(weighted(vec![(3, plain), (1, joint)]), usize_in(0, 6));
    Check::new("lmad::covered_matches_the_enumerating_ladder")
        .cases(2500)
        .run(&g, |((needed, have), pushed)| {
            // The same union, partly indexed up front and partly pushed.
            let split = (*pushed).min(have.len());
            let mut idx = CoverIndex::new(&have[split..]);
            for h in &have[..split] {
                idx.push(h);
            }
            let exact = fits(needed) && have.iter().all(fits);
            for limit in limits_around(needed) {
                let got = idx.covered(needed, limit);
                prop_assert_eq!(got, idx.covered_enumerating(needed, limit), "limit {}", limit);
                if exact {
                    prop_assert_eq!(got, ladder_oracle(needed, have, limit), "ladder, {}", limit);
                }
            }
            Ok(())
        });
}

#[test]
fn jointly_covered_runs_are_proved() {
    Check::new("lmad::jointly_covered_runs_are_proved")
        .cases(256)
        .run(&jointly_covered(), |(needed, halves)| {
            let idx = CoverIndex::new(halves);
            prop_assert!(idx.covered(needed, 1 << 16));
            prop_assert!(!CoverIndex::new(&halves[..1]).covered(needed, 1 << 16));
            prop_assert!(!CoverIndex::new(&halves[1..]).covered(needed, 1 << 16));
            Ok(())
        });
}

#[test]
fn contains_all_and_distinct_elements_match_enumeration() {
    Check::new("lmad::contains_all_and_distinct_elements_match_enumeration")
        .cases(2500)
        .run(&wild_pair(), |(a, b)| {
            for limit in limits_around(b) {
                prop_assert_eq!(
                    a.contains_all(b, limit),
                    contains_all_enumerating(a, b, limit),
                    "limit {}",
                    limit
                );
            }
            // A descriptor holds itself whenever the question is
            // within budget.
            if a.offsets(1 << 21).is_some() {
                prop_assert!(a.contains_all(a, 1 << 21));
            }
            // The distinct-element count against the raw list.
            for limit in limits_around(a) {
                if let Some(mut offs) = a.offsets(limit) {
                    offs.dedup();
                    prop_assert_eq!(a.distinct_elements_exact(limit), Some(offs.len() as u64));
                }
            }
            Ok(())
        });
}

/// Base, stride and count of one progression for the kernel: strides
/// of 1, small coprime and shared-factor ones, and ones far past any
/// array; counts of 0, 1 and more; bases near both ends of `i64`.
fn progression() -> Gen<(i64, i64, u64)> {
    let stride = weighted(vec![
        (3, just(1)),
        (4, i64_in(2, 9)),
        (3, i64_in(1, 8).map(|k| 6 * k)),
        (1, elem_of(vec![97, 1 << 40, i64::MAX])),
    ]);
    let count = weighted(vec![(1, just(0)), (2, just(1)), (6, u64_in(2, 24))]);
    let base = weighted(vec![
        (6, i64_in(-40, 40)),
        (1, i64_in(i64::MIN, i64::MIN + 64)),
        (1, i64_in(i64::MAX - 64, i64::MAX)),
    ]);
    zip3(base, stride, count)
}

#[test]
fn progressions_intersect_matches_enumeration() {
    // Half the pairs start next to each other, so they can meet.
    let near = weighted(vec![(1, just(None)), (1, i64_in(-30, 30).map(Some))]);
    let (met, missed) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
    Check::new("lmad::progressions_intersect_matches_enumeration")
        .cases(4000)
        .run(&zip3(progression(), progression(), near), |&(a, mut b, near)| {
            if let Some(delta) = near {
                b.0 = a.0.saturating_add(delta);
            }
            // Listed in i128: the elements of a progression based near
            // an end of `i64` may leave it.
            let list = |(o, s, c): (i64, i64, u64)| -> Vec<i128> {
                (0..c as i128).map(|i| o as i128 + i * s as i128).collect()
            };
            let other = list(b);
            let want = list(a).iter().any(|x| other.contains(x));
            let got = progressions_intersect(a.0, a.1, a.2, b.0, b.1, b.2);
            prop_assert_eq!(got, want, "{:?} vs {:?}", a, b);
            prop_assert_eq!(progressions_intersect(b.0, b.1, b.2, a.0, a.1, a.2), want, "flipped");
            let tally = if want { &met } else { &missed };
            tally.set(tally.get() + 1);
            Ok(())
        });
    let (met, missed) = (met.get(), missed.get());
    assert!(met > 400 && missed > 400, "{met} meeting pairs, {missed} disjoint");
}

/// A one-dimensional progression with the runtime ledger's
/// normalisation (a zero stride or a count below two is one element,
/// or none), answering through the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Progression {
    off: i64,
    stride: i64,
    count: u64,
}

impl Progression {
    fn new(off: i64, stride: i64, count: u64) -> Self {
        if stride == 0 || count <= 1 {
            Progression { off, stride: 1, count: count.min(1) }
        } else {
            Progression { off, stride, count }
        }
    }
}

impl Footprint for Progression {
    fn extent(&self) -> (i64, i64) {
        match self.count.checked_sub(1) {
            None => (1, 0),
            Some(last) => (self.off, self.off + self.stride * last as i64),
        }
    }

    fn meets(&self, other: &Self) -> bool {
        let (a, b) = (self, other);
        progressions_intersect(a.off, a.stride, a.count, b.off, b.stride, b.count)
    }
}

impl Footprint for &Lmad {
    fn extent(&self) -> (i64, i64) {
        Lmad::extent(self)
    }

    fn meets(&self, other: &Self) -> bool {
        self.overlaps(other)
    }
}

/// One operation as an epoch receives it: window, origin, target,
/// access, footprint.
type EpochOp<O, A> = (usize, usize, usize, Access<A>, O);

/// The epoch scan as it visited every pair: the same effects, every
/// pair `i < j` judged by the same rule and the same footprint test.
fn conflicts_all_pairs<O, A>(eff: &[Effect<O, A>]) -> Vec<(ConflictKind, Effect<O, A>, Effect<O, A>)>
where
    O: Footprint + Copy,
    A: Copy + Eq,
{
    let mut out = Vec::new();
    for (i, a) in eff.iter().enumerate() {
        for b in &eff[i + 1..] {
            out.extend(a.conflict(b).map(|kind| (kind, *a, *b)));
        }
    }
    out
}

/// The scanner ≡ the all-pairs visit, **including order**, on one
/// epoch — scanned with a scanner that may hold an earlier one.
fn scan_matches_all_pairs<O, A>(scan: &mut EpochScan<O, A>, ops: &[EpochOp<O, A>]) -> PropResult
where
    O: Footprint + Copy + PartialEq + std::fmt::Debug,
    A: Copy + Eq + std::fmt::Debug,
{
    scan.begin(ops.len());
    for &(win, origin, target, access, op) in ops {
        scan.push(win, origin, target, access, op);
    }
    let want = conflicts_all_pairs(scan.effects());
    let got: Vec<_> = scan.conflicts().map(|(kind, a, b)| (kind, *a, *b)).collect();
    prop_assert_eq!(got, want);
    Ok(())
}

/// The runtime ledger's fence batches: PUT / GET / ACC (two operators)
/// from four ranks on two windows — strided sets, zero strides,
/// zero-count operations and self-gets.
#[test]
fn epoch_scan_matches_all_pairs_on_ledger_batches() {
    let op = zip4(
        zip3(usize_in(0, 3), usize_in(0, 3), usize_in(0, 1)),
        usize_in(0, 5),
        zip3(i64_in(0, 40), i64_in(0, 5), u64_in(0, 8)),
        elem_of(vec!['+', 'M']),
    );
    let scan = std::cell::RefCell::new(EpochScan::default());
    Check::new("lmad::epoch_scan_matches_all_pairs_on_ledger_batches")
        .cases(512)
        .run(&vec_of(op, 0, 24), |batch| {
            let ops: Vec<EpochOp<Progression, char>> = batch
                .iter()
                .map(|&((origin, target, win), shape, (off, stride, count), acc)| {
                    let (access, stride) = match shape {
                        0 | 1 => (Access::Put, 1),
                        2 => (Access::Put, stride),
                        3 => (Access::Get, 1),
                        4 => (Access::Get, stride),
                        _ => (Access::Acc(acc), 1),
                    };
                    (win, origin, target, access, Progression::new(off, stride, count))
                })
                .collect();
            scan_matches_all_pairs(&mut scan.borrow_mut(), &ops)
        });
}

/// The static checker's traces: four ranks' PUTs, GETs and local
/// accesses with contiguous, strided and two-dimensional footprints on
/// two windows, cut into epochs at fences — a barrier does not cut one,
/// an epoch may be empty — and handed over rank by rank, as a trace
/// is walked.
#[test]
fn epoch_scan_matches_all_pairs_on_checker_traces() {
    let region = weighted(vec![
        (3, zip2(i64_in(0, 30), u64_in(1, 8)).map(|(b, c)| Lmad::contiguous(b, c))),
        (2, zip3(i64_in(0, 30), i64_in(2, 4), u64_in(1, 6)).map(|(b, s, c)| Lmad::strided(b, s, c))),
        (1, zip3(i64_in(0, 12), u64_in(1, 3), u64_in(2, 3))
            .map(|(b, w, c)| Lmad::new(b, vec![Dim::new(1, w), Dim::new(8, c)]))),
    ]);
    let access = elem_of(vec![
        Access::Put,
        Access::Put,
        Access::Get,
        Access::LocalWrite,
        Access::LocalRead,
    ]);
    // (rank, access, window, target, footprint)
    let op = zip4(zip2(usize_in(0, 3), access), usize_in(0, 1), usize_in(0, 3), region);
    let fence = elem_of(vec![true, true, false]);
    Check::new("lmad::epoch_scan_matches_all_pairs_on_checker_traces")
        .cases(384)
        .run(&vec_of(zip2(vec_of(op, 0, 10), fence), 0, 6), |segments| {
            // One scanner for the trace's epochs, as a check keeps one.
            let mut scan = EpochScan::default();
            let mut epoch: Vec<EpochOp<&Lmad, ()>> = Vec::new();
            for (ops, fence) in segments {
                for ((rank, access), win, target, region) in ops {
                    let local = matches!(access, Access::LocalWrite | Access::LocalRead);
                    let target = if local { *rank } else { *target };
                    epoch.push((*win, *rank, target, *access, region));
                }
                if *fence {
                    epoch.sort_by_key(|op| op.1);
                    scan_matches_all_pairs(&mut scan, &epoch)?;
                    epoch.clear();
                }
            }
            Ok(())
        });
}
