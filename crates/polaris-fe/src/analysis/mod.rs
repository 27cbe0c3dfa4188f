//! Parallelism detection: the FE's analysis pipeline.
//!
//! For every outermost `DO` loop the analyser runs, in order:
//! induction-variable substitution (already applied program-wide),
//! reduction recognition, scalar privatization, affine access
//! extraction, and the LMAD-based dependence test. Loops that pass are
//! marked parallel — the paper's "loops … marked with parallel
//! directive" — and carry everything the MPI-2 postpass needs:
//! per-reference access descriptors, the loop summary set, reductions
//! and private scalars.

pub mod access;
pub mod dependence;
pub mod induction;
pub mod scalars;

use std::collections::BTreeSet;

use lmad::{ArrayId, Dim, Lmad, SummarySet};

use crate::ast::{Expr, Program, Stmt};
use crate::sema::Symbols;

pub use scalars::{Reduction, ReductionOp};

/// One array reference of a parallel loop, normalised against the
/// parallel index.
///
/// Iteration `t ∈ [0, trips)` of the parallel loop touches
/// `base + t·coeff + Σ inner-dim offsets`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefAccess {
    pub array: ArrayId,
    pub is_write: bool,
    /// Element offset at iteration 0 with all inner loops at their
    /// first values.
    pub base: i64,
    /// Offset change per parallel-loop iteration.
    pub coeff: i64,
    /// Dimensions contributed by inner loops (stride, trip count).
    pub inner: Vec<Dim>,
    /// True when the reference sits under an `IF` (conservative for
    /// dependences; irrelevant for region shape).
    pub conditional: bool,
}

impl RefAccess {
    /// Footprint of a block of `trips` consecutive iterations starting
    /// at iteration `t0`.
    pub fn footprint(&self, t0: u64, trips: u64) -> Lmad {
        assert!(trips >= 1);
        let base = self.base + t0 as i64 * self.coeff;
        let mut dims = self.inner.clone();
        if trips > 1 && self.coeff != 0 {
            dims.push(Dim::new(self.coeff, trips));
        }
        Lmad::new(base, dims)
    }

    /// Footprint of one iteration.
    pub fn per_iter(&self) -> Lmad {
        Lmad::new(self.base, self.inner.clone())
    }

    /// Footprint of a cyclic block: iterations `t0, t0+p, t0+2p, …`
    /// (`count` of them).
    pub fn footprint_cyclic(&self, t0: u64, every: u64, count: u64) -> Lmad {
        assert!(count >= 1 && every >= 1);
        let base = self.base + t0 as i64 * self.coeff;
        let mut dims = self.inner.clone();
        if count > 1 && self.coeff != 0 {
            dims.push(Dim::new(self.coeff * every as i64, count));
        }
        Lmad::new(base, dims)
    }
}

/// Everything the analyser learned about one parallel loop.
#[derive(Debug, Clone)]
pub struct LoopAnalysis {
    pub reductions: Vec<Reduction>,
    pub private_scalars: BTreeSet<usize>,
    /// Scalars read (but never written) inside the loop — the master
    /// must ship their values to the slaves at region entry.
    pub shared_scalars: BTreeSet<usize>,
    /// Array references in program order.
    pub refs: Vec<RefAccess>,
    /// Whole-loop summary set (classified regions).
    pub summary: SummarySet,
    /// Some inner loop's trip count varies with the parallel index —
    /// §5.3 prescribes cyclic scheduling for such (triangular) loops.
    pub triangular: bool,
    pub reads: BTreeSet<ArrayId>,
    pub writes: BTreeSet<ArrayId>,
}

/// A loop the analyser proved parallel.
#[derive(Debug, Clone)]
pub struct ParallelLoop {
    /// Scalar id of the parallel index variable.
    pub var: usize,
    pub lo: i64,
    pub hi: i64,
    pub step: i64,
    pub trips: u64,
    pub body: Vec<Stmt>,
    pub analysis: LoopAnalysis,
    pub line: usize,
}

/// A maximal run of statements the analyser left sequential.
#[derive(Debug, Clone)]
pub struct SeqRegion {
    pub stmts: Vec<Stmt>,
    pub reads: BTreeSet<ArrayId>,
    pub writes: BTreeSet<ArrayId>,
}

/// One top-level program region.
#[derive(Debug, Clone)]
pub enum Region {
    Seq(SeqRegion),
    Parallel(ParallelLoop),
}

impl Region {
    /// Arrays read in the region.
    pub fn reads(&self) -> &BTreeSet<ArrayId> {
        match self {
            Region::Seq(s) => &s.reads,
            Region::Parallel(p) => &p.analysis.reads,
        }
    }

    /// Arrays written in the region.
    pub fn writes(&self) -> &BTreeSet<ArrayId> {
        match self {
            Region::Seq(s) => &s.writes,
            Region::Parallel(p) => &p.analysis.writes,
        }
    }
}

/// The front-end's final product.
#[derive(Debug, Clone)]
pub struct AnalyzedProgram {
    pub name: String,
    pub symbols: Symbols,
    pub regions: Vec<Region>,
    /// Why each non-parallel top-level loop stayed serial (line →
    /// reason) — Polaris-style listing for the user.
    pub serial_reasons: Vec<(usize, String)>,
}

impl AnalyzedProgram {
    /// Number of loops marked parallel.
    pub fn num_parallel(&self) -> usize {
        self.regions
            .iter()
            .filter(|r| matches!(r, Region::Parallel(_)))
            .count()
    }
}

/// Fortran trip count: `max(0, (hi - lo + step) / step)`.
pub fn trip_count(lo: i64, hi: i64, step: i64) -> u64 {
    assert!(step != 0, "zero DO step");
    let t = (hi - lo + step) / step;
    t.max(0) as u64
}

/// Run the analysis pipeline on a resolved program.
pub fn analyze(program: Program, symbols: Symbols) -> AnalyzedProgram {
    let body = induction::substitute_inductions(program.body);
    let mut regions: Vec<Region> = Vec::new();
    let mut serial_reasons = Vec::new();
    let mut pending_seq: Vec<Stmt> = Vec::new();

    let flush_seq = |pending: &mut Vec<Stmt>, regions: &mut Vec<Region>, symbols: &Symbols| {
        if pending.is_empty() {
            return;
        }
        let stmts = std::mem::take(pending);
        let (reads, writes) = access::array_use_sets(&stmts, symbols);
        regions.push(Region::Seq(SeqRegion {
            stmts,
            reads,
            writes,
        }));
    };

    for stmt in body {
        match try_parallelize(&stmt, &symbols) {
            Ok(p) => {
                flush_seq(&mut pending_seq, &mut regions, &symbols);
                regions.push(Region::Parallel(p));
            }
            Err(reason) => {
                if let Stmt::Do { line, .. } = &stmt {
                    serial_reasons.push((*line, reason));
                }
                pending_seq.push(stmt);
            }
        }
    }
    flush_seq(&mut pending_seq, &mut regions, &symbols);

    AnalyzedProgram {
        name: program.name,
        symbols,
        regions,
        serial_reasons,
    }
}

/// Attempt to prove the outermost loop of `stmt` parallel.
fn try_parallelize(stmt: &Stmt, symbols: &Symbols) -> Result<ParallelLoop, String> {
    let (header, body, line) = match stmt {
        Stmt::Do { header, body, line } => (header, body, *line),
        _ => return Err("not a loop".into()),
    };
    let lo = match &header.lo {
        Expr::IntLit(v) => *v,
        _ => return Err("non-constant lower bound".into()),
    };
    let hi = match &header.hi {
        Expr::IntLit(v) => *v,
        _ => return Err("non-constant upper bound".into()),
    };
    let step = match &header.step {
        None => 1,
        Some(Expr::IntLit(v)) if *v != 0 => *v,
        _ => return Err("non-constant step".into()),
    };
    let trips = trip_count(lo, hi, step);
    if trips < 2 {
        return Err(format!("trivial trip count {trips}"));
    }
    let var = header.var.id();

    // Scalar side: reductions, privatization, loop-carried scalars.
    let scal = scalars::analyze_scalars(var, body)?;

    // Array side: affine reference extraction. Coefficients come back
    // per unit of the index; fold in the step to get per-iteration.
    let mut scan = access::scan_parallel_body(var, lo, hi, step, body, symbols, &scal)?;
    access::apply_step(&mut scan.refs, step);

    // Dependence test over array references.
    dependence::check_independent(&scan.refs, trips)?;

    // Whole-loop summary: replay references in program order.
    let mut summary = SummarySet::new();
    let mut reads = BTreeSet::new();
    let mut writes = BTreeSet::new();
    for r in &scan.refs {
        let whole = r.footprint(0, trips);
        if r.is_write {
            writes.insert(r.array);
            summary.add_write(r.array, whole);
        } else {
            reads.insert(r.array);
            summary.add_read(r.array, whole);
        }
    }

    Ok(ParallelLoop {
        var,
        lo,
        hi,
        step,
        trips,
        body: body.clone(),
        analysis: LoopAnalysis {
            reductions: scal.reductions,
            private_scalars: scal.private_scalars,
            shared_scalars: scal.shared_scalars,
            refs: scan.refs,
            summary,
            triangular: scan.triangular,
            reads,
            writes,
        },
        line,
    })
}
