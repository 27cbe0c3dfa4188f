//! Property-based tests on the LMAD algebra: the invariants every
//! consumer (dependence test, scatter/collect planner, granularity
//! lowering) relies on.

use lmad::{any_overlap, Dim, Granularity, Lmad, TransferPlan};
use vpce_testkit::prelude::*;

const LIMIT: u64 = 1 << 14;
const CASES: u32 = 256;

/// Random small LMADs: up to 3 dimensions, strides in ±12, counts ≤ 8,
/// base in 0..64.
fn arb_lmad() -> Gen<Lmad> {
    let stride = one_of(vec![i64_in(1, 12), i64_in(-12, -1)]);
    let dim = zip2(stride, u64_in(1, 8)).map(|(stride, count)| Dim::new(stride, count));
    zip2(i64_in(0, 63), vec_of(dim, 0, 3)).map(|(base, dims)| Lmad::new(base, dims))
}

/// LMADs guaranteed non-negative offsets (for transfer lowering).
fn arb_positive_lmad() -> Gen<Lmad> {
    let dim = zip2(i64_in(1, 12), u64_in(1, 8)).map(|(stride, count)| Dim::new(stride, count));
    zip2(i64_in(0, 63), vec_of(dim, 0, 3)).map(|(base, dims)| Lmad::new(base, dims))
}

fn arb_granularity() -> Gen<Granularity> {
    elem_of(vec![
        Granularity::Fine,
        Granularity::Middle,
        Granularity::Coarse,
    ])
}

fn offset_set(l: &Lmad) -> Vec<i64> {
    let mut v = l.offsets(LIMIT).expect("small by construction");
    v.dedup();
    v
}

#[test]
fn normalization_preserves_offset_set() {
    Check::new("lmad::normalization_preserves_offset_set")
        .cases(CASES)
        .run(&arb_lmad(), |l| {
            prop_assert_eq!(offset_set(l), offset_set(&l.normalized()));
            Ok(())
        });
}

#[test]
fn normalization_is_idempotent() {
    Check::new("lmad::normalization_is_idempotent")
        .cases(CASES)
        .run(&arb_lmad(), |l| {
            let n = l.normalized();
            prop_assert_eq!(n.normalized(), n);
            Ok(())
        });
}

#[test]
fn normalized_strides_positive_sorted() {
    Check::new("lmad::normalized_strides_positive_sorted")
        .cases(CASES)
        .run(&arb_lmad(), |l| {
            let n = l.normalized();
            let strides: Vec<i64> = n.dims.iter().map(|d| d.stride).collect();
            prop_assert!(strides.iter().all(|&s| s > 0));
            prop_assert!(strides.windows(2).all(|w| w[0] <= w[1]));
            Ok(())
        });
}

#[test]
fn extent_bounds_all_offsets() {
    Check::new("lmad::extent_bounds_all_offsets")
        .cases(CASES)
        .run(&arb_lmad(), |l| {
            let (lo, hi) = l.extent();
            for o in offset_set(l) {
                prop_assert!(o >= lo && o <= hi);
            }
            // And the bounds are attained.
            let offs = offset_set(l);
            prop_assert_eq!(*offs.first().unwrap(), lo);
            prop_assert_eq!(*offs.last().unwrap(), hi);
            Ok(())
        });
}

#[test]
fn bounding_contiguous_contains_everything() {
    Check::new("lmad::bounding_contiguous_contains_everything")
        .cases(CASES)
        .run(&arb_lmad(), |l| {
            let b = l.bounding_contiguous();
            for o in offset_set(l) {
                prop_assert!(b.contains(o));
            }
            prop_assert!(b.is_contiguous());
            Ok(())
        });
}

#[test]
fn contains_agrees_with_enumeration() {
    Check::new("lmad::contains_agrees_with_enumeration")
        .cases(CASES)
        .run(&arb_lmad(), |l| {
            let offs = offset_set(l);
            let (lo, hi) = l.extent();
            for o in (lo - 2)..=(hi + 2) {
                prop_assert!(
                    l.contains(o) == offs.binary_search(&o).is_ok(),
                    "offset {} of {}",
                    o,
                    l
                );
            }
            Ok(())
        });
}

#[test]
fn overlap_exact_matches_set_intersection() {
    Check::new("lmad::overlap_exact_matches_set_intersection")
        .cases(CASES)
        .run(&zip2(arb_lmad(), arb_lmad()), |(a, b)| {
            let sa = offset_set(a);
            let sb = offset_set(b);
            let truth = sa.iter().any(|o| sb.binary_search(o).is_ok());
            prop_assert_eq!(a.overlaps_exact(b, LIMIT), Some(truth));
            // Symmetry.
            prop_assert_eq!(b.overlaps_exact(a, LIMIT), Some(truth));
            // may_overlap is never falsely negative.
            if truth {
                prop_assert!(a.may_overlap(b));
            }
            Ok(())
        });
}

#[test]
fn split_reconstructs_offsets() {
    Check::new("lmad::split_reconstructs_offsets")
        .cases(CASES)
        .run(&arb_positive_lmad(), |l| {
            let mut rebuilt = Vec::new();
            for t in TransferPlan::lower(l, Granularity::Fine, LIMIT).transfers() {
                for i in 0..t.count as i64 {
                    rebuilt.push(t.offset + i * t.stride as i64);
                }
            }
            rebuilt.sort_unstable();
            rebuilt.dedup();
            prop_assert_eq!(rebuilt, offset_set(l));
            Ok(())
        });
}

#[test]
fn plans_cover_exact_region() {
    Check::new("lmad::plans_cover_exact_region").cases(CASES).run(
        &zip2(arb_positive_lmad(), arb_granularity()),
        |(l, g)| {
            let p = TransferPlan::lower(l, *g, LIMIT);
            for o in offset_set(l) {
                let covered = p.transfers().any(|t| {
                    o >= t.offset && o < t.end() && (o - t.offset) as u64 % t.stride == 0
                });
                prop_assert!(covered, "{:?} misses {} of {}", g, o, l);
            }
            // Plans may only add data.
            prop_assert!(p.total_elems() >= l.distinct_elements(LIMIT));
            Ok(())
        },
    );
}

#[test]
fn coarse_is_single_contiguous_message() {
    Check::new("lmad::coarse_is_single_contiguous_message")
        .cases(CASES)
        .run(&arb_positive_lmad(), |l| {
            let p = TransferPlan::lower(l, Granularity::Coarse, LIMIT);
            prop_assert_eq!(p.num_messages(), 1);
            prop_assert!(p.transfers().all(|t| t.is_contiguous()));
            Ok(())
        });
}

#[test]
fn middle_never_uses_pio() {
    Check::new("lmad::middle_never_uses_pio")
        .cases(CASES)
        .run(&arb_positive_lmad(), |l| {
            let p = TransferPlan::lower(l, Granularity::Middle, LIMIT);
            prop_assert_eq!(p.strided_messages(), 0);
            Ok(())
        });
}

#[test]
fn middle_and_fine_have_same_message_count() {
    Check::new("lmad::middle_and_fine_have_same_message_count")
        .cases(CASES)
        .run(&arb_positive_lmad(), |l| {
            let f = TransferPlan::lower(l, Granularity::Fine, LIMIT);
            let m = TransferPlan::lower(l, Granularity::Middle, LIMIT);
            prop_assert_eq!(f.num_messages(), m.num_messages());
            // Middle moves at least as much data.
            prop_assert!(m.total_elems() >= f.total_elems());
            Ok(())
        });
}

#[test]
fn overlap_check_is_symmetric_under_permutation() {
    Check::new("lmad::overlap_check_is_symmetric_under_permutation")
        .cases(CASES)
        .run(
            &zip3(arb_lmad(), arb_lmad(), arb_lmad()),
            |(a, b, c)| {
                let abc = any_overlap(&[a.clone(), b.clone(), c.clone()]);
                let cba = any_overlap(&[c.clone(), b.clone(), a.clone()]);
                prop_assert_eq!(abc, cba);
                Ok(())
            },
        );
}

/// Regression pinned from a pre-testkit `.proptest-regressions` entry:
/// a two-dim unit-stride LMAD whose coarse plan once failed coverage.
#[test]
fn regression_coarse_plan_covers_overlapping_unit_strides() {
    let l = Lmad::new(0, vec![Dim::new(1, 3), Dim::new(1, 2)]);
    for g in [Granularity::Fine, Granularity::Middle, Granularity::Coarse] {
        let p = TransferPlan::lower(&l, g, LIMIT);
        for o in offset_set(&l) {
            assert!(
                p.transfers().any(|t| {
                    o >= t.offset && o < t.end() && (o - t.offset) as u64 % t.stride == 0
                }),
                "{g:?} misses {o} of {l}"
            );
        }
        assert!(p.total_elems() >= l.distinct_elements(LIMIT));
    }
}
