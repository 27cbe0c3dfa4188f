//! # spmd-rt — the SPMD target program and its runtime
//!
//! §3 of the paper describes the code the compiler emits: "a single
//! program multiple data (SPMD) form using the master/slave model of
//! execution, where one of the parallel processes (the master)
//! executes all sequential sections and the other processes (the
//! slaves) participate only in the computations of parallel sections",
//! with explicit barriers, fences and one-sided communication. This
//! crate defines that target form ([`SpmdProgram`]) and executes it on
//! the simulated cluster through the `mpi2` library.
//!
//! ## Execution modes
//!
//! * [`ExecMode::Full`] — every assignment runs numerically; results
//!   are bit-comparable against the sequential reference
//!   ([`execute_sequential`]). Used by all correctness tests.
//! * [`ExecMode::Analytic`] — loop bodies inside compute regions are
//!   *not* executed; their cycle cost is charged from iteration counts
//!   and per-iteration operation counts. Communication carries sizes,
//!   not payloads: the slaves' windows are length-only
//!   (`mpi2::Mpi::win_create_length_only`), so every transfer is
//!   bounds-checked, priced, scheduled on the simulated network and
//!   traced exactly as in `Full` mode — communication times are
//!   identical — and no byte is allocated, zeroed or copied for it.
//!   Only the master, whose sequential sections execute numerically
//!   in both modes, keeps storage. Used for the paper-scale
//!   (1024x1024) timing runs where full interpretation is needlessly
//!   slow. See `DESIGN.md` §2.
//!
//! Both modes, and the sequential baseline, walk one executable form:
//! [`lowered`] turns each statement list of the tree IR ([`ir`]) into
//! statically typed, pre-resolved, priced-once code, once per
//! execution. The tree IR remains the compiler's output and the cost
//! model's input.
//!
//! Master copies of all program data live on rank 0 (the paper: "the
//! master initially holds all program data objects"). Every rank's
//! copy of every array is declared full-size, so a region occupies the
//! same element offsets on master and slaves and scatter/collect
//! transfers are offset-preserving (`mpi2::Mpi::put_series` et al.).

#![forbid(unsafe_code)]

pub mod checkpoint;
mod cost;
pub mod exec;
pub mod ir;
pub mod lowered;
#[cfg(test)]
mod oracle;
pub mod protocol;
mod value;

pub use checkpoint::Snapshot;
pub use exec::{
    execute, execute_sequential, execute_traced, rank_body, same_bits, try_execute,
    try_execute_suppressed, try_execute_sequential, try_execute_traced, with_reference,
    with_reference_on, ExecMode, RankOutput, RunReport, SeqReport,
};
pub use vpce_faults::{FaultSpec, VpceError};
pub use ir::{
    Block, CommOp, CommPlan, Expr, Instr, Instrs, IntrinsicOp, ParRegion, RedOp, Schedule, SpmdProgram,
};
pub use value::Value;
