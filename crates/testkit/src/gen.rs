//! Generator combinators over a recorded choice stream.
//!
//! A [`Gen<T>`] is a function from a [`Source`] of u64 "choices" to a
//! value. In random mode the source draws fresh choices from the
//! [`Rng`] and records them; in replay mode it plays
//! back a prior recording (padding with zeros past the end). Shrinking
//! never touches values directly — it edits the *choice stream* and
//! re-runs the generator, so every combinator (map, one_of, vectors,
//! recursion) shrinks automatically: smaller choices generate
//! structurally smaller values.

use std::rc::Rc;

use crate::rng::Rng;

/// Where a [`Source`] gets its choices from.
enum Mode {
    /// Draw fresh randomness.
    Random(Rng),
    /// Replay a prior recording; reads past the end yield 0.
    Replay(Vec<u64>),
}

/// A stream of u64 choices feeding a generator, recording everything
/// it hands out so the run can be replayed and shrunk.
pub struct Source {
    mode: Mode,
    pos: usize,
    record: Vec<u64>,
}

impl Source {
    /// A recording source drawing from the RNG seeded with `seed`.
    pub fn random(seed: u64) -> Self {
        Source {
            mode: Mode::Random(Rng::seed_from_u64(seed)),
            pos: 0,
            record: Vec::new(),
        }
    }

    /// A replay source for a previously recorded choice stream.
    pub fn replay(choices: Vec<u64>) -> Self {
        Source {
            mode: Mode::Replay(choices),
            pos: 0,
            record: Vec::new(),
        }
    }

    /// The next raw choice. (Not an `Iterator`: the stream is
    /// infinite by construction and the receiver records every draw.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let v = match &mut self.mode {
            Mode::Random(rng) => rng.next_u64(),
            Mode::Replay(tape) => tape.get(self.pos).copied().unwrap_or(0),
        };
        self.pos += 1;
        self.record.push(v);
        v
    }

    /// A choice reduced to `[0, bound)`. `bound == 0` returns 0.
    ///
    /// The reduction is by modulo, deliberately: a choice of 0 always
    /// maps to the low end of the range, which is what gives the
    /// shrinker its "smaller choices ⇒ smaller values" lever.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        self.next() % bound
    }

    /// Everything handed out so far.
    pub fn recording(self) -> Vec<u64> {
        self.record
    }
}

/// A composable value generator. Cheap to clone (shared function).
pub struct Gen<T> {
    f: Rc<dyn Fn(&mut Source) -> T>,
}

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Self {
        Gen { f: Rc::clone(&self.f) }
    }
}

impl<T: 'static> Gen<T> {
    /// Wrap a raw generation function.
    pub fn new(f: impl Fn(&mut Source) -> T + 'static) -> Self {
        Gen { f: Rc::new(f) }
    }

    /// Produce one value from the source.
    pub fn generate(&self, src: &mut Source) -> T {
        (self.f)(src)
    }

    /// Transform generated values.
    pub fn map<U: 'static>(&self, g: impl Fn(T) -> U + 'static) -> Gen<U> {
        let f = Rc::clone(&self.f);
        Gen::new(move |src| g(f(src)))
    }

    /// Generate a `U` whose generator depends on the generated `T`.
    pub fn flat_map<U: 'static>(&self, g: impl Fn(T) -> Gen<U> + 'static) -> Gen<U> {
        let f = Rc::clone(&self.f);
        Gen::new(move |src| g(f(src)).generate(src))
    }
}

/// Always the same value.
pub fn just<T: Clone + 'static>(v: T) -> Gen<T> {
    Gen::new(move |_| v.clone())
}

/// Uniform `i64` in `[lo, hi]` (shrinks toward `lo`).
pub fn i64_in(lo: i64, hi: i64) -> Gen<i64> {
    assert!(lo <= hi, "empty range {lo}..={hi}");
    let span = (hi as i128 - lo as i128 + 1) as u64;
    Gen::new(move |src| (lo as i128 + src.next_below(span) as i128) as i64)
}

/// Uniform `u64` in `[lo, hi]` (shrinks toward `lo`).
pub fn u64_in(lo: u64, hi: u64) -> Gen<u64> {
    assert!(lo <= hi, "empty range {lo}..={hi}");
    let span = hi - lo + 1;
    Gen::new(move |src| lo + src.next_below(span))
}

/// Uniform `u32` in `[lo, hi]` (shrinks toward `lo`).
pub fn u32_in(lo: u32, hi: u32) -> Gen<u32> {
    u64_in(lo as u64, hi as u64).map(|v| v as u32)
}

/// Uniform `usize` in `[lo, hi]` (shrinks toward `lo`).
pub fn usize_in(lo: usize, hi: usize) -> Gen<usize> {
    u64_in(lo as u64, hi as u64).map(|v| v as usize)
}

/// `f64` in `[lo, hi)` on a dense dyadic grid (shrinks toward `lo`).
pub fn f64_in(lo: f64, hi: f64) -> Gen<f64> {
    assert!(lo < hi, "empty range {lo}..{hi}");
    const GRID: u64 = 1 << 32;
    Gen::new(move |src| lo + (src.next_below(GRID) as f64 / GRID as f64) * (hi - lo))
}

/// A fair coin (shrinks toward `false`).
pub fn bool_any() -> Gen<bool> {
    Gen::new(|src| src.next_below(2) == 1)
}

/// One of the alternatives, uniformly (shrinks toward the first).
pub fn one_of<T: 'static>(alts: Vec<Gen<T>>) -> Gen<T> {
    assert!(!alts.is_empty(), "one_of with no alternatives");
    Gen::new(move |src| {
        let i = src.next_below(alts.len() as u64) as usize;
        alts[i].generate(src)
    })
}

/// One of the alternatives with integer weights (shrinks toward the
/// first). Mirrors `prop_oneof![w1 => g1, ...]`.
pub fn weighted<T: 'static>(alts: Vec<(u32, Gen<T>)>) -> Gen<T> {
    assert!(!alts.is_empty(), "weighted with no alternatives");
    let total: u64 = alts.iter().map(|(w, _)| *w as u64).sum();
    assert!(total > 0, "weighted with zero total weight");
    Gen::new(move |src| {
        let mut ticket = src.next_below(total);
        for (w, g) in &alts {
            if ticket < *w as u64 {
                return g.generate(src);
            }
            ticket -= *w as u64;
        }
        unreachable!("ticket exceeded total weight")
    })
}

/// A uniformly chosen element of `items` (shrinks toward the first).
pub fn elem_of<T: Clone + 'static>(items: Vec<T>) -> Gen<T> {
    assert!(!items.is_empty(), "elem_of with no items");
    Gen::new(move |src| items[src.next_below(items.len() as u64) as usize].clone())
}

/// A vector of `elem`s with a length in `[min_len, max_len]`
/// (shrinks toward shorter vectors of smaller elements).
pub fn vec_of<T: 'static>(elem: Gen<T>, min_len: usize, max_len: usize) -> Gen<Vec<T>> {
    assert!(min_len <= max_len, "empty length range");
    Gen::new(move |src| {
        let len = min_len + src.next_below((max_len - min_len + 1) as u64) as usize;
        (0..len).map(|_| elem.generate(src)).collect()
    })
}

/// Pair of independent generators.
pub fn zip2<A: 'static, B: 'static>(a: Gen<A>, b: Gen<B>) -> Gen<(A, B)> {
    Gen::new(move |src| (a.generate(src), b.generate(src)))
}

/// Triple of independent generators.
pub fn zip3<A: 'static, B: 'static, C: 'static>(
    a: Gen<A>,
    b: Gen<B>,
    c: Gen<C>,
) -> Gen<(A, B, C)> {
    Gen::new(move |src| (a.generate(src), b.generate(src), c.generate(src)))
}

/// Quadruple of independent generators.
pub fn zip4<A: 'static, B: 'static, C: 'static, D: 'static>(
    a: Gen<A>,
    b: Gen<B>,
    c: Gen<C>,
    d: Gen<D>,
) -> Gen<(A, B, C, D)> {
    Gen::new(move |src| {
        (
            a.generate(src),
            b.generate(src),
            c.generate(src),
            d.generate(src),
        )
    })
}

/// A printable character: mostly ASCII, with occasional non-ASCII
/// code points to keep lexers honest (shrinks toward `' '`).
pub fn char_printable() -> Gen<char> {
    Gen::new(|src| {
        match src.next_below(8) {
            // 7-in-8 ASCII printable.
            0..=6 => char::from_u32(0x20 + src.next_below(0x5F) as u32).unwrap(),
            // Latin-1 supplement / general punctuation / a CJK char.
            _ => {
                const EXOTIC: [char; 8] = ['µ', 'é', 'Ø', '—', '…', '√', '日', '\u{a0}'];
                EXOTIC[src.next_below(8) as usize]
            }
        }
    })
}

/// A string of printable characters with length in `[min_len, max_len]`.
pub fn string_printable(min_len: usize, max_len: usize) -> Gen<String> {
    vec_of(char_printable(), min_len, max_len).map(|cs| cs.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run<T: 'static>(g: &Gen<T>, seed: u64) -> T {
        g.generate(&mut Source::random(seed))
    }

    #[test]
    fn replay_reproduces_random_generation() {
        let g = vec_of(zip2(i64_in(-12, 12), usize_in(0, 9)), 0, 10);
        let mut src = Source::random(123);
        let v1 = g.generate(&mut src);
        let tape = src.recording();
        let v2 = g.generate(&mut Source::replay(tape));
        assert_eq!(v1, v2);
    }

    #[test]
    fn zero_tape_generates_minimal_values() {
        let g = vec_of(i64_in(5, 20), 1, 8);
        let v = g.generate(&mut Source::replay(vec![]));
        assert_eq!(v, vec![5], "all-zero choices hit every range's low end");
        let first = one_of(vec![just(1), just(2)]).generate(&mut Source::replay(vec![]));
        assert_eq!(first, 1, "zero choice selects the first alternative");
    }

    #[test]
    fn ranges_hold_over_many_seeds() {
        let g = zip3(i64_in(-12, -1), f64_in(-4.0, 4.0), usize_in(1, 8));
        for seed in 0..200 {
            let (a, b, c) = run(&g, seed);
            assert!((-12..=-1).contains(&a));
            assert!((-4.0..4.0).contains(&b));
            assert!((1..=8).contains(&c));
        }
    }

    #[test]
    fn weighted_respects_weights_roughly() {
        let g = weighted(vec![(4, just(0u32)), (1, just(1u32))]);
        let mut ones = 0;
        for seed in 0..1000 {
            ones += run(&g, seed);
        }
        assert!((100..400).contains(&ones), "got {ones} ones out of 1000");
    }

    #[test]
    fn vec_lengths_cover_range() {
        let g = vec_of(just(0u8), 2, 5);
        let mut seen = std::collections::HashSet::new();
        for seed in 0..200 {
            let len = run(&g, seed).len();
            assert!((2..=5).contains(&len));
            seen.insert(len);
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn strings_are_printable() {
        let g = string_printable(0, 40);
        for seed in 0..100 {
            for c in run(&g, seed).chars() {
                assert!(!c.is_control() || c == '\u{a0}', "control char {c:?}");
            }
        }
    }
}
