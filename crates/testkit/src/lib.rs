//! # vpce-testkit — hermetic deterministic test harness
//!
//! The workspace's only testing infrastructure, with **zero external
//! dependencies**, so `cargo build --offline` and `cargo test
//! --offline` work against an empty registry forever. It times
//! nothing: host time is `perfbench`'s, virtual time is the committed
//! `BENCH_*.json` (`crates/bench/tests/bench_golden.rs`). Three pieces:
//!
//! * [`rng`] — SplitMix64-seeded xoshiro256++, the deterministic PRNG
//!   behind every random draw in the suites (replaces `rand`);
//! * `gen` (in the [`prelude`]) + [`prop`] — property-based testing: generator
//!   combinators over a recorded choice stream, automatic shrinking,
//!   seed reporting (`VPCE_TESTKIT_SEED`), and regression-seed files
//!   (replaces `proptest`);
//! * [`alloc`] — a counting global allocator for the zero-allocation
//!   and bytes-requested gates.
//!
//! ## Writing a property
//!
//! ```
//! use vpce_testkit::prelude::*;
//!
//! let pairs = vec_of(zip2(i64_in(0, 100), i64_in(0, 100)), 0, 16);
//! check("doc::sum_is_commutative", &pairs, |ps| {
//!     for &(a, b) in ps {
//!         prop_assert_eq!(a + b, b + a);
//!     }
//!     Ok(())
//! });
//! ```
//!
//! A failing property panics with its case seed and the shrunken
//! counterexample; `VPCE_TESTKIT_SEED=0x…` replays it exactly.

pub mod alloc;
mod gen;
pub mod prop;
pub mod rng;

/// Everything a test module usually wants.
pub mod prelude {
    pub use crate::gen::{
        bool_any, char_printable, elem_of, f64_in, i64_in, just, one_of, string_printable,
        u32_in, u64_in, usize_in, vec_of, weighted, zip2, zip3, zip4, Gen, Source,
    };
    pub use crate::prop::{check, Check, PropError, PropResult};
    pub use crate::rng::{Rng, SplitMix64};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume};
}
