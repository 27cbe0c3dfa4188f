//! The run algebra: exact questions about a *normalised* descriptor
//! answered from its strides and counts, never from a list of its
//! elements.
//!
//! §5.4's splitted LMADs read a region as `A_offsets` × one
//! `A_mapping` run. The proofs in this crate read it the same way: a
//! normalised descriptor *is* its stride-1 runs (single elements when
//! the lowest stride is not 1), and the three questions a proof asks of
//! one — "what are your runs?" ([`Form::runs`]), "how far does the
//! run holding `o` reach?" ([`Form::run_end`]) and "what is your
//! first element at or after `o`?" ([`Form::next_at_or_after`]) —
//! have answers in `O(dims)` arithmetic. [`crate::CoverIndex::covered`],
//! [`Form::overlaps_exact`] and [`Lmad::contains_all`] are built from
//! these three ([`Form::covered_by`] is the walk the two coverage
//! questions share); none of them materialises, sorts or probes an
//! offset list.
//!
//! Every method here is asked of a [`Form`] — a normal form computed
//! once, when the caller built its [`crate::Normal`], or a descriptor
//! that already was one. Intermediate
//! arithmetic is `i128`, so descriptors reaching past the `i64` offset
//! space stay panic-free; their elements are the ones inside the normal
//! form's [`Lmad::extent`] — saturating, so such a descriptor is
//! clipped where every extent test in the crate already clips it.

use crate::descriptor::{Dim, Lmad};
use crate::normal::Form;

/// A dimension's span in exact arithmetic (the product fits `i128`
/// for any `i64` stride and `u64` count).
fn exact_span(d: &Dim) -> i128 {
    d.stride as i128 * (d.count as i128 - 1)
}

/// [`exact_span`] capped far above any distance between two `i64`
/// offsets (2⁶⁴) — every use below compares a sum of spans with such a
/// distance, so the cap changes no answer and keeps the sums inside
/// `i128`.
fn span(d: &Dim) -> i128 {
    exact_span(d).min(1 << 66)
}

/// `a / b` for `a >= 0` and `b > 0`: the quotient of the `i128`
/// arithmetic, taken by 64-bit division whenever both fit — offsets
/// inside an array always do, and the 128-bit division is a library
/// call several times slower.
fn div(a: i128, b: i128) -> i128 {
    match (i64::try_from(a), i64::try_from(b)) {
        (Ok(a), Ok(b)) => (a / b) as i128,
        _ => a / b,
    }
}

/// The digit of `dims[0]` in some decomposition
/// `rem = Σ digit_k · stride_k` (`0` for no dims), or `None` when there
/// is none. `total` is the sum of the dims' spans. Greedy from the
/// largest stride down, trying only the digits that leave a remainder
/// the inner dims can reach (one candidate per level when the dims do
/// not alias, so `O(dims)`; a backtracking search when they do).
fn lowest_digit(dims: &[Dim], rem: i128, total: i128) -> Option<i128> {
    if rem < 0 || rem > total {
        return None;
    }
    let Some((d, rest)) = dims.split_last() else {
        return Some(0); // 0 <= rem <= total == 0
    };
    let inner = total - span(d);
    let s = d.stride as i128; // > 0 in normal form
    let hi = div(rem, s).min(d.count as i128 - 1);
    let lo = div((rem - inner).max(0) + s - 1, s);
    (lo..=hi).find_map(|i| match lowest_digit(rest, rem - i * s, inner) {
        Some(_) if rest.is_empty() => Some(i),
        found => found,
    })
}

impl Lmad {
    /// Would [`Lmad::offsets`]`(limit)` return a list? The same two
    /// refusals — more than `limit` accesses, or an offset outside
    /// `i64` — evaluated arithmetically. This is how a proof keeps its
    /// enumeration budget without enumerating: it answers within
    /// `limit` exactly when the enumerating proof did. Valid on raw
    /// descriptors too (the budget counts accesses with multiplicity,
    /// as `offsets` does).
    pub(crate) fn enumerable(&self, limit: u64) -> bool {
        if self.num_accesses() > limit {
            return false;
        }
        // `offsets` adds each dimension's steps onto every partial sum
        // so far, so it overflows iff a span or an end of the extent
        // does.
        let (mut lo, mut hi) = (self.base as i128, self.base as i128);
        for d in &self.dims {
            let s = exact_span(d);
            if i64::try_from(s).is_err() {
                return false;
            }
            if s >= 0 {
                hi += s;
            } else {
                lo += s;
            }
        }
        i64::try_from(lo).is_ok() && i64::try_from(hi).is_ok()
    }
}

impl<'a> Form<'a> {
    /// §5.4's split of a normal form: the length of one run (the
    /// `A_mapping` dimension when its stride is 1, else a single
    /// element) and the dimensions that place the runs (`A_offsets`).
    fn run_shape(self) -> (u64, &'a [Dim]) {
        match self.lmad().dims.split_first() {
            Some((d, rest)) if d.stride == 1 => (d.count, rest),
            _ => (1, &self.lmad().dims),
        }
    }

    /// How many runs [`Form::runs`] yields.
    pub(crate) fn num_runs(self) -> u64 {
        let (_, outer) = self.run_shape();
        outer.iter().fold(1u64, |n, d| n.saturating_mul(d.count))
    }

    /// The stride-1 runs `(first, last)` of the descriptor, lowest
    /// dimension varying fastest — ascending and disjoint when the
    /// dimensions do not alias, otherwise in odometer order with
    /// repeats. Together they hold exactly the descriptor's elements.
    /// Lazy and allocation-free; never more runs than
    /// [`Lmad::num_accesses`].
    ///
    /// # Panics
    /// Panics unless every offset fits `i64` (callers establish
    /// [`Lmad::enumerable`] first — the proof budget implies it).
    pub(crate) fn runs(self) -> impl Iterator<Item = (i64, i64)> + 'a {
        assert!(self.lmad().enumerable(u64::MAX), "run walk of {}: offsets leave i64", self.lmad());
        let (len, outer) = self.run_shape();
        (0..self.num_runs()).map(move |mut k| {
            let mut first = self.lmad().base;
            for d in outer {
                first += (k % d.count) as i64 * d.stride;
                k /= d.count;
            }
            (first, first + (len - 1) as i64)
        })
    }

    /// Is every element of the descriptor accepted by `run_end`, where
    /// `run_end(o)` is the end of a run of accepted offsets holding `o`
    /// and `None` when `o` is not accepted? A cursor goes through each
    /// run of `self` on the answers, so whole runs are skipped in one
    /// step and the walk stops at the first element that is refused.
    /// Same precondition as [`Form::runs`].
    pub(crate) fn covered_by(self, run_end: impl Fn(i64) -> Option<i64>) -> bool {
        self.runs().all(|(first, last)| {
            let mut at = first;
            loop {
                match run_end(at) {
                    None => return false,
                    Some(end) if end >= last => return true,
                    Some(end) => at = end + 1,
                }
            }
        })
    }

    /// The last offset of a stride-1 run of the descriptor that holds
    /// `o` (clipped to the extent) — `o` itself when the lowest stride is
    /// not 1 — or `None` when `o` is not an element. Exact for any
    /// normal form; for aliasing dimensions the run is the one of the
    /// first decomposition found, which need not be the longest.
    pub(crate) fn run_end(self, o: i64) -> Option<i64> {
        let (_, hi) = self.lmad().extent();
        if o > hi {
            return None;
        }
        let total = self.lmad().dims.iter().map(span).sum();
        let digit = lowest_digit(&self.lmad().dims, o as i128 - self.lmad().base as i128, total)?;
        Some(match self.lmad().dims.first() {
            Some(d) if d.stride == 1 => {
                let end = o as i128 + (d.count as i128 - 1 - digit);
                i64::try_from(end).map_or(hi, |end| end.min(hi))
            }
            _ => o,
        })
    }

    /// The least element at or after `o`, or `None` when there is none
    /// inside the extent. One pass from the largest stride down: take the
    /// digit `o` falls under; when the remainder lands in the gap past
    /// the inner dimensions' span, the answer is the start of the next
    /// block at the nearest level that has one (the carry).
    ///
    /// Requires [`Lmad::is_non_aliasing`]: blocks of a dimension must
    /// not interleave for "next block" to mean "next element".
    pub(crate) fn next_at_or_after(self, o: i64) -> Option<i64> {
        debug_assert!(self.lmad().is_non_aliasing(), "{} aliases", self.lmad());
        let mut rem = o as i128 - self.lmad().base as i128;
        if rem <= 0 {
            return Some(self.lmad().base);
        }
        let (_, hi) = self.lmad().extent();
        let in_extent = |n: Option<i128>| n.and_then(|n| i64::try_from(n).ok()).filter(|&n| n <= hi);
        let mut inner: i128 = self.lmad().dims.iter().map(span).sum();
        let mut at = self.lmad().base as i128;
        let mut carry: Option<i128> = None;
        for d in self.lmad().dims.iter().rev() {
            inner -= span(d);
            let s = d.stride as i128;
            let digit = div(rem, s);
            if digit >= d.count as i128 {
                return in_extent(carry);
            }
            if digit + 1 < d.count as i128 {
                carry = Some(at + (digit + 1) * s);
            }
            at += digit * s;
            rem -= digit * s;
            if rem > inner {
                return in_extent(carry);
            }
        }
        in_extent((rem == 0).then_some(o as i128))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normal::Normal;
    use crate::oracle::wild_lmad;
    use vpce_testkit::prelude::*;

    const BUDGET: u64 = 1 << 12;

    #[test]
    fn next_at_or_after_carries_across_levels() {
        // Rows 0..=2 of a 5-wide, 3-deep, 2-plane block: 0,1,2 5,6,7
        // 10,11,12 | 40,41,42 …
        let n = Normal::of(&Lmad::new(0, vec![Dim::new(1, 3), Dim::new(5, 3), Dim::new(40, 2)]));
        let l = n.view();
        assert_eq!(l.next_at_or_after(-7), Some(0));
        assert_eq!(l.next_at_or_after(2), Some(2));
        assert_eq!(l.next_at_or_after(3), Some(5), "carry into the row dimension");
        assert_eq!(l.next_at_or_after(13), Some(40), "carry past the last row into the plane");
        assert_eq!(l.next_at_or_after(52), Some(52));
        assert_eq!(l.next_at_or_after(53), None, "past the last element");
        assert_eq!(l.run_end(5), Some(7));
        assert_eq!(l.run_end(7), Some(7));
        assert_eq!(l.run_end(8), None);
        let scalar = Normal::of(&Lmad::scalar(4));
        assert_eq!(scalar.view().next_at_or_after(5), None);
        assert_eq!(scalar.view().run_end(4), Some(4));
        // Elements past `i64` are not offsets.
        let top = Normal::of(&Lmad::strided(i64::MAX - 1, 4, 3));
        assert_eq!(top.view().next_at_or_after(i64::MAX), None);
        let near_top = Normal::of(&Lmad::contiguous(i64::MAX - 1, 9));
        assert_eq!(near_top.view().run_end(i64::MAX - 1), Some(i64::MAX));
    }

    /// `enumerable` is `offsets(..).is_some()` without the list — on
    /// raw descriptors, at budgets on both sides of the access count,
    /// with spans and bases that leave `i64`.
    #[test]
    fn enumerable_is_what_offsets_refuses() {
        Check::new("lmad::enumerable_is_what_offsets_refuses")
            .cases(2000)
            .run(&wild_lmad(), |l| {
                let n = l.num_accesses();
                for limit in [0, 1, 64, BUDGET, n.saturating_sub(1), n, n.saturating_add(1)] {
                    if limit <= 1 << 21 {
                        prop_assert_eq!(l.enumerable(limit), l.offsets(limit).is_some(), "{}", limit);
                    }
                }
                Ok(())
            });
    }

    /// The algebra against a scan of the enumerated list: the runs
    /// concatenate to the offsets as a set, never outnumber the
    /// accesses, and `run_end` / `next_at_or_after` answer what a scan
    /// of the sorted list answers at every offset in and around the
    /// extent.
    #[test]
    fn runs_match_a_scan_of_the_enumerated_list() {
        Check::new("lmad::runs_match_a_scan_of_the_enumerated_list")
            .cases(2000)
            .run(&wild_lmad(), |raw| {
                let n = Normal::of(raw);
                let l = n.view();
                let Some(mut list) = l.lmad().offsets(BUDGET) else {
                    return Ok(()); // over budget or past i64: no walk is made
                };
                list.dedup();
                let has = |o: i64| list.binary_search(&o).is_ok();

                let runs: Vec<(i64, i64)> = l.runs().collect();
                prop_assert_eq!(runs.len() as u64, l.num_runs());
                prop_assert!(l.num_runs() <= l.lmad().num_accesses());
                let mut from_runs: Vec<i64> = runs.iter().flat_map(|&(f, t)| f..=t).collect();
                from_runs.sort_unstable();
                from_runs.dedup();
                prop_assert_eq!(&from_runs, &list);

                let (lo, hi) = l.lmad().extent();
                let probes = (lo.saturating_sub(2)..=lo.saturating_add(70))
                    .chain(hi.saturating_sub(70)..=hi.saturating_add(2));
                for o in probes {
                    match l.run_end(o) {
                        None => prop_assert!(!has(o), "run_end misses element {}", o),
                        Some(end) => {
                            prop_assert!(end >= o && (o..=end).all(has), "run {}..={}", o, end);
                            if l.lmad().is_non_aliasing() {
                                // Runs are disjoint: the one holding `o`.
                                let run = runs.iter().find(|&&(f, t)| f <= o && o <= t);
                                prop_assert_eq!(Some(end), run.map(|r| r.1));
                            }
                        }
                    }
                    if l.lmad().is_non_aliasing() {
                        let next = list.get(list.partition_point(|&x| x < o)).copied();
                        prop_assert_eq!(l.next_at_or_after(o), next, "at {}", o);
                    }
                }
                Ok(())
            });
    }
}
