//! Reference implementations the run algebra is held to: the proofs as
//! they were when they enumerated — every element offset into a
//! `Vec<i64>`, sorted, probed one by one — kept verbatim for tests
//! only, plus the pinned-seed properties that compare. The contract is
//! *cost changes, answers do not*: equal on every input, `None`-ness
//! and budget refusals included.

use crate::descriptor::{progressions_intersect, Dim, Lmad};
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
