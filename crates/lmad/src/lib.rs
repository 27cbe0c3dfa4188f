//! # lmad — Linear Memory Access Descriptors and summary sets
//!
//! The array-access representation at the heart of the paper's
//! compiler (§4): a **LMAD** describes "access movement through memory
//! in terms of a series of dimensions", each dimension a consistent
//! *stride* plus a *span*, with one common *base offset*. The paper's
//! written form
//!
//! ```text
//!      stride_1, stride_2, ..., stride_d
//!     A                                   + base
//!      span_1,   span_2,   ..., span_d
//! ```
//!
//! maps to [`Lmad`] with `dims[k] = Dim { stride, count }` where
//! `span = stride * (count - 1)`.
//!
//! The crate provides the algebra the front- and back-end need:
//!
//! * construction and *expansion* across enclosing loop indices (§4.2);
//! * simplification (coalescing contiguous dimensions, normalising
//!   negative strides) following Paek/Hoeflinger/Padua, *Simplification
//!   of Array Access Patterns for Compiler Optimizations* (PLDI'98);
//! * exact and conservative **overlap** tests (the dependence test of
//!   the Access Region Test, and the §5.6 safety check on coarse-grain
//!   data collection);
//! * access classification (`ReadOnly` / `WriteFirst` / `ReadWrite`)
//!   and **summary sets** per program section (§4.2);
//! * the **splitted LMADs** of §5.4 (`A_offsets` × `A_mapping`) and the
//!   fine / middle / coarse transfer plans of §5.6;
//! * the **op questions** ([`OpForm`], [`CoverIndex`]): does a planned
//!   op's messages meet a footprint, and do these regions and ops
//!   cover one — asked once per op, of the union of its messages, and
//!   answered as the messages one by one would be;
//! * the **footprint join** ([`sweep`]): an interval sweep that hands
//!   the exact tests only the pairs whose bounding intervals meet, and
//!   a cover index for "is this region inside the union of those?";
//! * the **run algebra** (`runs`) that decides what the join lets
//!   through: a normalised descriptor is its stride-1 runs, and
//!   overlap, containment and coverage are answered by walking runs
//!   and decomposing offsets in `O(dims)` — never by listing elements.
//!
//! Strides, spans and offsets are concrete `i64` element counts: the
//! front-end substitutes `PARAMETER` constants before analysis, exactly
//! as Fortran 77 fixes array dimensions at compile time (documented in
//! `DESIGN.md`).

#![forbid(unsafe_code)]

mod descriptor;
pub mod epoch;
mod normal;
#[cfg(test)]
mod oracle;
mod runs;
mod summary;
pub mod sweep;
mod transfer;

pub use descriptor::{progressions_intersect, Dim, Lmad};
pub use normal::{Form, Normal, OVERLAP_LIMIT};
pub use summary::{AccessClass, ArrayId, SummaryEntry, SummarySet};
pub use sweep::{CoverIndex, COVER_LIMIT};
pub use transfer::{any_overlap, cross_rank_overlap, Granularity, OpForm, RegionTransfer, TransferPlan, Transfers};

/// Work counts of the exact tests on the calling thread, so a test can
/// pin how much work a caller makes (`spmd-rt`'s `STREAMED` /
/// `NESTED` are the same idea). Debug builds only — the dependent
/// crates' tests read them, and a `cfg(test)` item of this crate is not
/// compiled for those — and release builds carry none.
#[cfg(debug_assertions)]
pub mod work {
    use std::cell::Cell;
    use std::thread::LocalKey;

    thread_local! {
        /// Calls of [`crate::Lmad::normalized`].
        pub static NORMALISED: Cell<u64> = const { Cell::new(0) };
        /// Exact pair tests ([`crate::Form::overlaps_exact`], which
        /// every overlap question of the crate ends in).
        pub static PAIR_TESTS: Cell<u64> = const { Cell::new(0) };
        /// Op pairs [`crate::OpForm::meets`] decided on their unions.
        pub static UNIONS: Cell<u64> = const { Cell::new(0) };
        /// Op pairs it decided by walking their messages.
        pub static WALKED: Cell<u64> = const { Cell::new(0) };
        /// Ops two of whose messages meet ([`crate::OpForm::meets_itself`]).
        pub static INTRA: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn count(c: &'static LocalKey<Cell<u64>>) {
        c.with(|c| c.set(c.get() + 1));
    }

    /// `(NORMALISED, PAIR_TESTS)` so far on this thread.
    pub fn read() -> (u64, u64) {
        (NORMALISED.with(Cell::get), PAIR_TESTS.with(Cell::get))
    }
}
