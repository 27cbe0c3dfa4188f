//! # polaris-fe — the Polaris-style front-end
//!
//! §3 of the paper: "In the FE, parallelism detection is applied to a
//! sequential program to identify parallel loops. The techniques
//! implemented in Polaris to detect parallelism include: dependence
//! analysis, inlining, induction variable substitution, reduction
//! recognition and privatization."
//!
//! The real Polaris is ~170k lines of C++ over full Fortran 77; this
//! front-end accepts **F77-mini**, the Fortran 77 subset the paper's
//! three benchmarks (MM, SWIM, CFFT2INIT) are written in:
//!
//! * `PROGRAM`/`SUBROUTINE` … `END` units (free-form, case-insensitive,
//!   `!` and `C`-column comments);
//! * `INTEGER` / `REAL` declarations, `DIMENSION`, `PARAMETER`;
//! * `DO v = lo, hi [, step]` … `ENDDO`, `IF/THEN/ELSE/ENDIF`,
//!   assignments, `CONTINUE`;
//! * arithmetic expressions with `**` and the intrinsics
//!   `SQRT ABS MOD MIN MAX SIN COS EXP REAL INT`;
//! * arrays of up to three dimensions, column-major, unit lower bounds.
//!
//! The pipeline is [`compile`]: lex → parse → semantic analysis
//! (symbols, `PARAMETER` folding, array layout) → induction-variable
//! substitution → per-loop analysis (reduction recognition, scalar
//! privatization, affine access extraction, LMAD summary sets,
//! dependence testing) → parallel-loop marking. The result — loops
//! annotated `parallel` together with their classified access
//! descriptors — is exactly the interface the paper's MPI-2 postpass
//! (crate `polaris-be`) consumes.

#![forbid(unsafe_code)]

mod affine;
pub mod analysis;
pub mod ast;
mod inline;
pub mod lexer;
pub mod parser;
#[cfg(test)]
mod printer;
pub mod sema;

pub use analysis::{analyze, AnalyzedProgram, LoopAnalysis, Reduction, ReductionOp, RefAccess};
pub use ast::{BinOp, Expr, Intrinsic, Program, Stmt, UnOp};
pub use sema::{ArrayInfo, ScalarType, Symbols};

/// Front-end error: lexing, parsing or semantic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontError {
    pub line: usize,
    pub message: String,
}

impl FrontError {
    pub fn new(line: usize, message: impl Into<String>) -> Self {
        FrontError {
            line,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for FrontError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for FrontError {}

/// Run the whole front-end on F77-mini source, with optional
/// `PARAMETER` overrides (name → value) applied before folding — the
/// mechanism the benchmark harness uses to sweep problem sizes without
/// editing source.
pub fn compile(
    source: &str,
    param_overrides: &[(&str, i64)],
) -> Result<AnalyzedProgram, FrontError> {
    let tokens = lexer::lex(source)?;
    let units = parser::parse_units(&tokens)?;
    let unit = inline::inline_calls(units)?;
    let (program, symbols) = sema::resolve(unit, param_overrides)?;
    Ok(analysis::analyze(program, symbols))
}
