//! # vpce-rmacheck — static RMA race & epoch-safety checker
//!
//! The paper's MPI-2 postpass (§5) emits one-sided `MPI_PUT`/`MPI_GET`
//! from splitted LMADs and elides scatter/collect traffic through the
//! AVPG — correctness silently depends on the generated transfers
//! being conflict-free within each synchronisation epoch. This crate
//! proves (or refutes) that property *before* execution:
//!
//! 1. the lowered SPMD program and its communication plan are lowered
//!    once more into per-rank event streams ([`trace::RmaTrace`]),
//!    mirroring the runtime's emission order exactly ([`lower`]): one
//!    event per planned op, whose footprint is the union of its wire
//!    messages and which keeps its split descriptor, so a plan is read
//!    as descriptors and its messages are walked only where an answer
//!    needs them (`check`);
//! 2. the epoch analysis (`check`) verifies that every footprint
//!    stays inside its window's declared length (VPCE007),
//!    synchronisation alignment (VPCE005), epoch closure (VPCE004) and
//!    scans each fence-delimited epoch for undefined-outcome pairs
//!    (VPCE001/002/003, warnings VPCE101/102) through [`lmad::epoch`],
//!    the scanner the runtime ledger uses too;
//! 3. the AVPG staleness pass (`stale`) re-derives the soundness of
//!    every elided collect from the plan timeline (VPCE006), one cover
//!    index member per collect op.
//!
//! The analysis **over-approximates**: descriptor pairs the algebra
//! cannot decide exactly fall back to conservative interval tests, so
//! the checker may flag a conflict that cannot occur but never stays
//! green on a real one. The differential suite in `tests/` pits it
//! against the *dynamic* epoch-conflict ledger in `mpi2::conflict`
//! (exact, element-level, recorded at every closing fence) to hold
//! that soundness direction over thousands of random plans — with one
//! scanner on both sides, it compares the lowering against the runtime.

#![forbid(unsafe_code)]

mod check;
mod diag;
mod lower;
#[cfg(test)]
mod oracle;
mod stale;
mod trace;

pub use diag::{Code, Diagnostic, LintReport, Severity};
pub use lower::lower;
pub use trace::{AccessKind, Event, Op, RmaTrace, Site, SyncKind};

use polaris_be::PlanReport;
use spmd_rt::ir::SpmdProgram;

/// Lint configuration.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Treat every array as live at program exit (the master's final
    /// copies are the program output). Must match the backend's
    /// `outputs_live` setting for the VPCE006 pass to agree with the
    /// AVPG's own liveness argument.
    pub outputs_live: bool,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions { outputs_live: true }
    }
}

/// Run the full static check over a compiled program.
pub fn lint(prog: &SpmdProgram, report: &PlanReport, opts: &LintOptions) -> LintReport {
    let mut out = diag::new_report(prog.name.clone());
    let trace = lower::lower(prog, report);
    let lens: Vec<usize> = prog.arrays.iter().map(|(_, len)| *len).collect();
    check::check_bounds(&trace, &lens, &mut out);
    check::check_trace(&trace, &mut out);
    stale::check_elisions(prog, report, opts, &mut out);
    out.sort();
    out
}

/// Check a hand-built trace (no plan-level passes) — the entry point
/// the differential harness uses.
pub fn lint_trace(trace: &RmaTrace, program: &str) -> LintReport {
    let mut out = diag::new_report(program);
    check::check_trace(trace, &mut out);
    out.sort();
    out
}
