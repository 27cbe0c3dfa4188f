//! Reference implementations the run algebra is held to: the proofs as
//! they were when they enumerated — every element offset into a
//! `Vec<i64>`, sorted, probed one by one — kept verbatim for tests
//! only, plus the pinned-seed properties that compare. The contract is
//! *cost changes, answers do not*: equal on every input, `None`-ness
//! and budget refusals included. The same holds for the epoch scanner
//! against a visit to every pair, and for the progression kernel
//! against listing both progressions.

use crate::descriptor::{progressions_intersect, Dim, Lmad};
use crate::normal::{Form, Normal};
use crate::epoch::{Access, ConflictKind, Effect, EpochScan, Footprint};
use crate::sweep::{self, CoverIndex};
use crate::transfer::{cross_rank_overlap, Granularity, OpForm, RegionTransfer, TransferPlan};
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

/// `is_normal` is "normalising changes nothing": true of every normal
/// form, and of a descriptor only when its normal form is itself.
#[test]
fn is_normal_is_what_normalising_keeps() {
    let seen = std::cell::Cell::new(0);
    Check::new("lmad::is_normal_is_what_normalising_keeps")
        .cases(3000)
        .run(&wild_lmad(), |l| {
            let n = l.normalized();
            prop_assert!(n.is_normal(), "{:?} normalises to {:?}", l, n);
            prop_assert_eq!(l.is_normal(), n == *l, "{:?}", l);
            prop_assert_eq!(Form::of_normal(l).is_some(), l.is_normal());
            seen.set(seen.get() + u32::from(l.is_normal() && !l.dims.is_empty()));
            Ok(())
        });
    assert!(seen.get() > 300, "{} descriptors already normal", seen.get());
}

/// The §5.6 check as it asked every pair: each cross-rank pair whose
/// raw extents meet, one [`Lmad::overlaps`] each.
pub(crate) fn cross_rank_overlap_pairwise(per_rank: &[Vec<Lmad>]) -> bool {
    let regions: Vec<(usize, &Lmad)> = per_rank
        .iter()
        .enumerate()
        .flat_map(|(r, rs)| rs.iter().map(move |lm| (r, lm)))
        .collect();
    let extents: Vec<(i64, i64)> = regions.iter().map(|(_, lm)| lm.extent()).collect();
    sweep::any_overlapping_pair(&extents, |i, j| {
        let ((ri, x), (rj, y)) = (regions[i], regions[j]);
        ri != rj && x.overlaps(y)
    })
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
/// One pair in four is one descriptor written twice: the second
/// reversed, with a degenerate dimension added, or rebased by a span —
/// the same normal form from another raw form.
fn wild_pair() -> Gen<(Lmad, Lmad)> {
    let near = weighted(vec![(2, just(None)), (2, i64_in(-30, 30).map(Some)), (1, just(Some(0)))]);
    let again = weighted(vec![(3, just(None)), (1, u64_in(0, 2).map(Some))]);
    zip4(wild_lmad(), wild_lmad(), near, again).map(|(a, mut b, near, again)| {
        if let Some(delta) = near {
            b.base = a.base.saturating_add(delta);
        }
        match again {
            Some(0) => b = Lmad::new(a.base, a.dims.iter().rev().copied().collect()),
            Some(1) => {
                b = a.clone();
                b.dims.push(Dim::new(0, 3));
            }
            Some(_) => {
                // Walk the outermost dimension backwards from its end.
                b = a.clone();
                if let Some(d) = b.dims.last_mut() {
                    b.base = b.base.saturating_add(d.span());
                    d.stride = d.stride.saturating_neg();
                }
            }
            None => {}
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
            // `overlaps`: the exact answer at its budget, else the
            // interval-and-gcd fallback.
            let want = overlaps_exact_enumerating(a, b, 4096).unwrap_or_else(|| a.may_overlap(b));
            prop_assert_eq!(a.overlaps(b), want);
            prop_assert_eq!(b.overlaps(a), want, "flipped");
            Ok(())
        });
}

/// [`TransferPlan::lower`] as it listed: the split's start offsets
/// through [`Lmad::offsets`] (sorted, repeats kept), each with the
/// grain's `(stride, count)`; `None` past `limit` offsets or `i64`.
fn lowered_by_listing(region: &Lmad, g: Granularity, limit: u64) -> Option<Vec<RegionTransfer>> {
    let n = region.normalized();
    let (mapping, rest) = n.dims.split_first().map_or((Dim::new(1, 1), &[][..]), |(m, r)| (*m, r));
    let starts = || Lmad::new(n.base, rest.to_vec()).offsets(limit);
    let (offsets, stride, count) = match g {
        Granularity::Coarse => {
            let (lo, hi) = n.extent();
            (vec![lo], 1, (hi - lo + 1) as u64)
        }
        Granularity::Fine => (starts()?, mapping.stride as u64, mapping.count),
        Granularity::Middle => (starts()?, 1, mapping.span() as u64 + 1),
    };
    Some(offsets.into_iter().map(|offset| RegionTransfer { offset, stride, count }).collect())
}

/// The lazy walk of a plan is the list it replaced, order and repeats
/// included, at every grain; and the counts read off the descriptor
/// are the list's. Wild descriptors (aliasing, stride-0 and count-1
/// dims, no dims at all) plus three-dim ones whose two outer dims
/// interleave, so that the sorted path is taken as often as the
/// nested one.
#[test]
fn transfer_walk_is_the_sorted_offset_list() {
    let interleaved = zip4(i64_in(-20, 60), zip2(i64_in(1, 3), u64_in(2, 5)), zip2(i64_in(4, 12), u64_in(2, 6)), zip2(i64_in(1, 30), u64_in(2, 6)))
        .map(|(b, (s1, c1), (s2, c2), (s3, c3))| Lmad::new(b, vec![Dim::new(s1, c1), Dim::new(s2, c2), Dim::new(s3, c3)]));
    let region = weighted(vec![(3, wild_lmad()), (1, interleaved)]);
    let (sorted, nested) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
    Check::new("lmad::transfer_walk_is_the_sorted_offset_list")
        .cases(3000)
        .run(&zip2(region, elem_of(Granularity::ALL.to_vec())), |(l, g)| {
            let (lo, hi) = l.normalized().extent();
            if *g == Granularity::Coarse && i64::try_from(hi as i128 - lo as i128 + 1).is_err() {
                return Ok(()); // no one-message bound in `i64`
            }
            let Some(want) = lowered_by_listing(l, *g, 1 << 16) else {
                return Ok(()); // too many offsets to list, or past `i64`
            };
            let p = TransferPlan::lower(l, *g, 0);
            let got: Vec<RegionTransfer> = p.transfers().collect();
            prop_assert_eq!(&got, &want, "{:?} of {}", g, l);
            prop_assert_eq!(p.num_messages(), want.len());
            if let (Some(first), Some(last)) = (want.first(), want.last()) {
                prop_assert_eq!(p.starts(), (first.offset, last.offset));
            }
            prop_assert_eq!(p.total_elems(), want.iter().map(RegionTransfer::elems).sum::<u64>());
            prop_assert_eq!(p.strided_messages(), want.iter().filter(|t| !t.is_contiguous()).count());
            prop_assert!(p == p.clone());
            let n = l.normalized();
            let offsets = Lmad::new(0, n.dims.iter().skip(1).copied().collect());
            if *g != Granularity::Coarse && offsets.dims.len() > 1 {
                let c = if offsets.is_non_aliasing() { &nested } else { &sorted };
                c.set(c.get() + 1);
            }
            Ok(())
        });
    assert!(sorted.get() > 200 && nested.get() > 200, "{} sorted, {} nested", sorted.get(), nested.get());
}

/// The questions a plan answers on its descriptor, held to its listed
/// messages ([`lowered_by_listing`]): the footprint is their union
/// (repeats included); two of them meet (`messages_meet`) exactly when
/// some pair does; `one_message_holds` is rungs 1 and 3 of a cover
/// index with one member a message, past its budget; and where
/// `meets_exactly` holds, a region's test against every message is
/// decided exactly. `needed` is cut around a message, or is one.
#[test]
fn plan_questions_match_the_listed_messages() {
    let interleaved = zip3(i64_in(-20, 60), zip2(i64_in(1, 3), u64_in(2, 9)), zip2(i64_in(1, 12), u64_in(2, 9)))
        .map(|(b, (s1, c1), (s2, c2))| Lmad::new(b, vec![Dim::new(s1, c1), Dim::new(s2, c2), Dim::new(41, 3)]));
    let region = weighted(vec![(2, wild_lmad()), (2, interleaved)]);
    let cut = zip4(u64_in(0, 1 << 20), i64_in(-3, 3), i64_in(-3, 3), u64_in(0, 3));
    let probe = weighted(vec![(3, wild_lmad()), (1, budget_edge_lmad(0))]);
    let (met, held, exact) = (std::cell::Cell::new(0), std::cell::Cell::new(0), std::cell::Cell::new(0));
    Check::new("lmad::plan_questions_match_the_listed_messages")
        .cases(3000)
        .run(&zip4(region, elem_of(Granularity::ALL.to_vec()), cut, probe), |(l, g, (pick, dlo, dhi, form), probe)| {
            let (lo, hi) = l.normalized().extent();
            if !fits(&l.normalized()) || lo < -(1 << 40) || hi > 1 << 40 {
                return Ok(()); // cuts around a message would leave `i64`
            }
            let Some(msgs) = lowered_by_listing(l, *g, 400) else {
                return Ok(()); // too many to list, or past `i64`
            };
            let p = TransferPlan::lower(l, *g, 0);
            let fp = p.footprint();
            if !fits(&fp) || msgs.is_empty() {
                return Ok(());
            }
            let region = |t: &RegionTransfer| Lmad::strided(t.offset, t.stride as i64, t.count);
            if let Some(mut all) = fp.offsets(1 << 14) {
                let mut want: Vec<i64> = msgs.iter().flat_map(|t| region(t).offsets(1 << 14).unwrap()).collect();
                want.sort_unstable();
                all.sort_unstable();
                prop_assert_eq!(all, want, "footprint of {:?} {}", g, l);
            }
            let meet = msgs.iter().enumerate().any(|(i, a)| {
                msgs[i + 1..].iter().any(|b| {
                    progressions_intersect(a.offset, a.stride as i64, a.count, b.offset, b.stride as i64, b.count)
                })
            });
            prop_assert_eq!(p.messages_meet(), meet, "{:?} {}", g, l);
            met.set(met.get() + u64::from(meet));

            let m = msgs[(*pick % msgs.len() as u64) as usize];
            let needed = if *form == 0 {
                region(&m)
            } else {
                let (lo, hi) = (m.offset + dlo, m.end() - 1 + dhi);
                Lmad::contiguous(lo, (hi - lo + 1).max(1) as u64)
            };
            let needed = Normal::of(&needed);
            let (lo, hi) = needed.extent();
            let one = msgs.iter().any(|t| {
                let n = Normal::of_transfer(t);
                let (mlo, mhi) = n.extent();
                mlo <= lo && hi <= mhi && (n.form() == needed.form() || n.form().is_contiguous_normalized())
            });
            prop_assert_eq!(p.one_message_holds(&needed), one, "{} in {:?} {}", needed.form(), g, l);
            held.set(held.get() + u64::from(one));

            let probe = Normal::of(probe);
            if fits(probe.form()) && p.meets_exactly(probe.view()) {
                for t in &msgs {
                    let n = Normal::of_transfer(t);
                    let decided = probe.view().overlaps_exact(n.view(), 4096).is_some();
                    prop_assert!(decided, "{} against {:?} of {:?} {}", probe.form(), t, g, l);
                }
                exact.set(exact.get() + 1);
            }
            Ok(())
        });
    assert!(met.get() > 300 && held.get() > 300 && exact.get() > 300, "{} met, {} held, {} exact", met.get(), held.get(), exact.get());
}

/// Two translates of one shape meet where the enumerating proof says
/// they do; `translates_meet` answers exactly the non-aliasing pairs of
/// equal dimensions, at any size.
#[test]
fn translates_meet_matches_the_enumerating_proof() {
    let dims = vec_of(zip2(i64_in(1, 40), u64_in(2, 7)).map(|(s, c)| Dim::new(s, c)), 1, 3);
    let (met, missed) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
    Check::new("lmad::translates_meet_matches_the_enumerating_proof")
        .cases(3000)
        .run(&zip3(dims, i64_in(-50, 50), i64_in(-12, 12)), |(dims, base, delta)| {
            let a = Lmad::new(*base, dims.clone()).normalized();
            let b = Lmad::new(base + delta, a.dims.clone());
            let (na, nb) = (Normal::of(&a), Normal::of(&b));
            let got = na.view().translates_meet(nb.view());
            if !a.is_non_aliasing() {
                prop_assert_eq!(got, None);
                return Ok(());
            }
            let want = overlaps_exact_enumerating(&a, &b, 1 << 16);
            prop_assert_eq!(got, want, "{} and {}", a, b);
            let c = if want == Some(true) { &met } else { &missed };
            c.set(c.get() + 1);
            Ok(())
        });
    assert!(met.get() > 150 && missed.get() > 300, "{} met, {} missed", met.get(), missed.get());
}

/// A comb around the 4096-access budget of [`Lmad::overlaps`]: `cols`
/// columns of `w` elements at stride 2, `ld` apart, with `w × cols`
/// just under, at or just over 4096. Every element has the parity of
/// `base` (`ld` is even), so two combs based one apart interleave
/// without meeting: past the budget the conservative fallback answers
/// `true` where the exact test would answer `false`. Sometimes
/// aliasing (the next column starts inside this one) or flipped.
fn budget_edge_lmad(base: i64) -> Gen<Lmad> {
    let shape = elem_of(vec![(64u64, 64u64), (63, 65), (65, 63), (64, 65), (65, 64), (4096, 1), (4097, 1)]);
    zip2(shape, elem_of(vec![0u8, 0, 1, 2])).map(move |((w, cols), twist)| {
        let ld = if twist == 1 { 6 } else { 2 * w as i64 + 4 };
        let inner = if twist == 2 { Dim::new(-2, w) } else { Dim::new(2, w) };
        Lmad::new(base, vec![inner, Dim::new(ld, cols)])
    })
}

/// Per-rank region lists for the §5.6 check. Three in five cases: 0–5
/// ranks (empty ones included) of wild descriptors, budget-edge combs,
/// progressions far past any budget and the planner's shapes (a row
/// band and its column transfers), with a region now and then repeated
/// inside its rank (a same-rank overlap the check must ignore) or
/// copied to another (a cross-rank one it must see). One in five: two
/// ranks (and an empty one) holding one budget-edge comb each, of
/// opposite parity and based next to each other, so that the verdict
/// rests on the budget alone. One in five: a few small regions based
/// just above `i64::MIN`, where a negative stride saturates the
/// normal form's base away from the raw extent — the one place the
/// sweep's raw-extent test decides.
fn rank_lists() -> Gen<Vec<Vec<Lmad>>> {
    let huge = zip3(i64_in(-20, 60), i64_in(1, 9), elem_of(vec![1u64 << 22, 1 << 40]))
        .map(|(b, s, c)| Lmad::strided(b, s, c));
    let band = zip3(i64_in(0, 40), u64_in(1, 12), u64_in(1, 40))
        .map(|(b, w, cols)| Lmad::new(b, vec![Dim::new(40, cols), Dim::new(1, w)]));
    let column = zip2(i64_in(0, 1600), u64_in(1, 12)).map(|(b, c)| Lmad::contiguous(b, c));
    let region = weighted(vec![
        (4, wild_lmad()),
        (2, budget_edge_lmad(0)),
        (2, budget_edge_lmad(1)),
        (1, huge),
        (1, band),
        (2, column),
    ]);
    let twist = elem_of(vec![0u8, 0, 0, 1, 2]);
    let mixed = zip2(vec_of(vec_of(region, 0, 4), 0, 5), twist).map(|(mut ranks, twist)| {
        let n = ranks.len();
        if let Some(first) = ranks.iter().position(|rs| !rs.is_empty()) {
            let lm = ranks[first][0].clone();
            match twist {
                1 => ranks[first].push(lm),
                2 => ranks[(first + 1) % n].push(lm),
                _ => {}
            }
        }
        ranks
    });
    let combs = zip3(i64_in(-3, 3), budget_edge_lmad(0), budget_edge_lmad(1)).map(|(k, a, mut b)| {
        b.base += 2 * k; // still odd: interleaved with `a`, never meeting it
        vec![vec![a], vec![], vec![b]]
    });
    let dim = zip2(i64_in(-12, 12), u64_in(1, 6)).map(|(s, c)| Dim::new(s, c));
    let low = zip2(i64_in(i64::MIN, i64::MIN + 40), vec_of(dim, 0, 2)).map(|(b, d)| Lmad::new(b, d));
    let at_floor = vec_of(vec_of(low, 0, 2), 2, 3);
    weighted(vec![(3, mixed), (1, combs), (1, at_floor)])
}

/// Wire transfers for the §5.6 check, each with a rank in `0..4`:
/// contiguous column pieces (the planner's middle grain), strided ones,
/// bounding runs past the 4096 budget, spans and ends past `i64`, a
/// stride that is no `i64` and single elements.
fn rank_transfers() -> Gen<Vec<(usize, RegionTransfer)>> {
    let stride = weighted(vec![(6, just(1u64)), (2, u64_in(2, 5)), (1, elem_of(vec![1 << 40, 1 << 62, u64::MAX]))]);
    let count = weighted(vec![(6, u64_in(1, 12)), (1, elem_of(vec![4096, 4097, 1 << 22, 1 << 40]))]);
    let offset = weighted(vec![
        (8, i64_in(-20, 1600)),
        (1, i64_in(i64::MAX - 64, i64::MAX)),
        (1, i64_in(i64::MIN, i64::MIN + 64)),
    ]);
    let t = zip4(usize_in(0, 3), offset, stride, count)
        .map(|(r, offset, stride, count)| (r, RegionTransfer { offset, stride, count }));
    vec_of(t, 0, 10)
}

/// Planned ops for the §5.6 check, each with a rank in `0..4`: wild
/// regions, budget-edge combs and row bands lowered at a grain. Kept
/// by [`listed_op`] when their messages can be listed.
fn rank_ops() -> Gen<Vec<(usize, Lmad, Granularity)>> {
    let band = zip3(i64_in(0, 40), u64_in(1, 12), u64_in(1, 40))
        .map(|(b, w, cols)| Lmad::new(b, vec![Dim::new(40, cols), Dim::new(1, w)]));
    let region = weighted(vec![(3, wild_lmad()), (1, budget_edge_lmad(0)), (1, budget_edge_lmad(1)), (2, band)]);
    vec_of(zip3(usize_in(0, 3), region, elem_of(Granularity::ALL.to_vec())), 0, 4)
}

/// `region` lowered at `g`, with its messages listed; `None` past 400
/// messages or `i64` (no plan of an array's footprint is).
fn listed_op(region: &Lmad, g: Granularity) -> Option<(TransferPlan, Vec<RegionTransfer>)> {
    let (lo, hi) = region.normalized().extent();
    if g == Granularity::Coarse && i64::try_from(hi as i128 - lo as i128 + 1).is_err() {
        return None;
    }
    let listed = lowered_by_listing(region, g, 400)?;
    Some((TransferPlan::lower(region, g, 0), listed))
}

/// The region a transfer covers, as the pairwise check built it.
fn transfer_region(t: &RegionTransfer) -> Lmad {
    Lmad::strided(t.offset, t.stride as i64, t.count)
}

/// The §5.6 check on regions and ops ≡ the pairwise check on regions
/// and the ops' listed messages, on every case; ops are asked as ops
/// (one union, one descriptor) and as single-message plans.
#[test]
fn cross_rank_sweep_matches_the_pairwise_check() {
    let (met, missed) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
    let ops = zip2(weighted(vec![(2, just(Vec::new())), (1, rank_transfers())]), rank_ops());
    let g = zip2(rank_lists(), ops);
    Check::new("lmad::cross_rank_sweep_matches_the_pairwise_check")
        .cases(1500)
        .run(&g, |(ranks, (transfers, lowered))| {
            let mut plans: Vec<(usize, TransferPlan, Vec<RegionTransfer>)> =
                transfers.iter().map(|&(r, t)| (r, TransferPlan::from(t), vec![t])).collect();
            for (r, l, g) in lowered {
                if let Some((p, listed)) = listed_op(l, *g) {
                    plans.push((*r, p, listed));
                }
            }
            let normals: Vec<Vec<Normal>> =
                ranks.iter().map(|rs| rs.iter().map(Normal::of).collect()).collect();
            let unions: Vec<Normal> = plans.iter().map(|(_, p, _)| Normal::of_plan(p)).collect();
            let regions = normals.iter().enumerate().flat_map(|(r, ns)| ns.iter().map(move |n| (r, OpForm::new(n.view(), None))));
            let ops = plans.iter().zip(&unions).map(|((r, p, _), u)| (*r, OpForm::new(u.view(), Some(p))));
            let tagged: Vec<(usize, OpForm)> = regions.chain(ops).collect();
            let mut all = ranks.clone();
            for (r, _, listed) in &plans {
                if all.len() <= *r {
                    all.resize(r + 1, Vec::new());
                }
                all[*r].extend(listed.iter().map(transfer_region));
            }
            let want = cross_rank_overlap_pairwise(&all);
            prop_assert_eq!(cross_rank_overlap(&tagged), want, "{:?} {:?} {:?}", ranks, transfers, lowered);
            let tally = if want { &met } else { &missed };
            tally.set(tally.get() + 1);
            Ok(())
        });
    let (met, missed) = (met.get(), missed.get());
    assert!(met > 200 && missed > 200, "{met} overlapping cases, {missed} clean");
}

/// An op is one member of a cover index, the union of its messages,
/// and answers as a member per message does at the budgets the
/// workspace uses: always within the budget, and past it wherever a
/// message proves — the union may prove more there (rung 1 or 3 on
/// the whole op), never less.
#[test]
fn op_members_cover_as_their_messages() {
    let band = zip3(i64_in(0, 40), u64_in(1, 12), u64_in(1, 40))
        .map(|(b, w, cols)| Lmad::new(b, vec![Dim::new(40, cols), Dim::new(1, w)]));
    let region = weighted(vec![(2, wild_lmad()), (2, band), (1, budget_edge_lmad(0))]);
    let op = zip2(region.clone(), elem_of(Granularity::ALL.to_vec()));
    let cut = zip3(u64_in(0, 1 << 20), i64_in(-3, 3), i64_in(-3, 3));
    // A drawn region, one cut around a message (`Some(None)`), or the
    // union of an op (`None`: what coherence asks).
    let needed = weighted(vec![(2, region.clone().map(|l| Some(Some(l)))), (2, just(Some(None))), (1, just(None))]);
    let g = zip4(vec_of(region, 0, 2), vec_of(op, 1, 3), zip2(needed, cut), elem_of(vec![1u64 << 21, 1 << 16, 4096]));
    let (held, past, more) = (std::cell::Cell::new(0), std::cell::Cell::new(0), std::cell::Cell::new(0));
    Check::new("lmad::op_members_cover_as_their_messages")
        .cases(1500)
        .run(&g, |(have, ops, (needed, (pick, dlo, dhi)), limit)| {
            let listed: Vec<(TransferPlan, Vec<RegionTransfer>)> =
                ops.iter().filter_map(|(l, g)| listed_op(l, *g)).collect();
            let messages: Vec<RegionTransfer> = listed.iter().flat_map(|(_, ts)| ts.iter().copied()).collect();
            if messages.is_empty() {
                return Ok(());
            }
            let pick = *pick as usize;
            let needed = match needed {
                Some(Some(l)) => l.clone(),
                Some(None) => {
                    let (lo, hi) = Normal::of_transfer(&messages[pick % messages.len()]).extent();
                    let (lo, hi) = (lo.saturating_add(*dlo), hi.saturating_add(*dhi));
                    Lmad::contiguous(lo, (hi as i128 - lo as i128 + 1).clamp(1, 1 << 40) as u64)
                }
                None => listed[pick % listed.len()].0.footprint(),
            };
            let mut by_op = CoverIndex::new(have);
            by_op.extend_ops(listed.iter().map(|(p, _)| p));
            let mut by_message = CoverIndex::new(have);
            by_message.extend(messages.iter().map(Normal::of_transfer));
            let needed = Normal::of(&needed);
            let (got, want) = (by_op.covered(&needed, *limit), by_message.covered(&needed, *limit));
            if needed.enumerable(*limit) {
                prop_assert_eq!(got, want, "{} within {}", needed.form(), limit);
            } else {
                prop_assert!(got || !want, "{} past {}: a message proves it, the op does not", needed.form(), limit);
                past.set(past.get() + 1);
                more.set(more.get() + u64::from(got && !want));
            }
            held.set(held.get() + u64::from(want));
            Ok(())
        });
    let (held, past, more) = (held.get(), past.get(), more.get());
    assert!(held > 300 && past > 100 && more > 0, "{held} covered, {past} past the budget, {more} proved by a union only");
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
            // The same union, partly indexed up front and partly pushed —
            // after a first question, so that the pushes land in the
            // index's runs as well.
            let split = (*pushed).min(have.len());
            let mut idx = CoverIndex::new(&have[split..]);
            idx.covered(&Normal::of(needed), 1 << 21);
            for h in &have[..split] {
                idx.push(Normal::of(h));
            }
            let exact = fits(needed) && have.iter().all(fits);
            for limit in limits_around(needed) {
                let got = idx.covered(&Normal::of(needed), limit);
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
            let needed = Normal::of(needed);
            prop_assert!(idx.covered(&needed, 1 << 16));
            prop_assert!(!CoverIndex::new(&halves[..1]).covered(&needed, 1 << 16));
            prop_assert!(!CoverIndex::new(&halves[1..]).covered(&needed, 1 << 16));
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
