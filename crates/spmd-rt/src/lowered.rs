//! The executable form of a statement list: statically typed,
//! pre-resolved, priced once.
//!
//! The tree IR ([`crate::ir`]) is what the compiler emits and what the
//! cost model reads. It is not what runs. [`lower`] turns a statement
//! list into this form once per execution, and the two walks below —
//! `State::run` (`Full`) and `State::price` (`Analytic`) — are the
//! only code that executes or prices loop bodies, for rank threads and
//! for the sequential baseline alike.
//!
//! **Declared type is the runtime type.** A scalar slot holds the type
//! it was declared with (`SpmdProgram::scalars[slot].1`), always:
//! every store into a slot converts to the slot's type (F77
//! assignment: `INTEGER ← REAL` truncates toward zero, `REAL ←
//! INTEGER` converts), on every rank. So an expression's type is known
//! when it is lowered: expressions split into [`IExpr`] and [`RExpr`],
//! the scalars live in an `i64` bank and an `f64` bank, and the
//! conversions the tree walker discovered through a `Value` tag on
//! every node are explicit nodes ([`IExpr::Exact`], [`IExpr::Trunc`],
//! [`RExpr::FromInt`]) placed here. [`Value`] survives at the API
//! boundary only.
//!
//! **Affine folding is exact.** INTEGER `+`, `-`, unary `-` and `*` all
//! wrap, and wrapping arithmetic is the ring ℤ/2⁶⁴: any rearrangement
//! of a polynomial over it has the same value. A tree built from those
//! operators over INTEGER scalars and constants in which every product
//! has a constant factor therefore folds into one [`Affine`] node
//! `c0 + Σ kᵢ·scalar[sᵢ]`. Affine nodes cannot fail, so no error moves.
//!
//! **Block-summed costs are exact.** Each [`Block`] carries the sum of
//! its statements' shallow costs (`instr_cycles`: the tree's
//! operation counts priced by the P-II table) and a loop charges `trips × (2 + body)` on
//! entry. Every entry of that table is a multiple of half a cycle
//! (pinned by `cost::tests::cycle_table_entries_are_half_integers`), so
//! every partial sum, in any order, is a half-integer far below 2⁵² —
//! exactly representable — and f64 addition over such values is
//! associative. The total is bit-identical to charging statement by
//! statement.
//!
//! **Innermost loops run as streams.** A loop body of array and
//! REAL-scalar stores whose subscripts are all [`Affine`] nodes over an
//! INTEGER loop variable cannot fail, and each subscript is linear in
//! the variable — an LMAD walk: a base fixed on loop entry and a
//! constant stride per trip. Such a body gets a [`Stream`]: every
//! affine node is a [`Cursor`]; every maximal subtree that reads
//! nothing the body stores — so that no trip can change what another
//! trip's evaluation of it sees — is hoisted and evaluated a strip of
//! `STRIP` trips at a time, one lane-wise loop per operator. Operands
//! are read where they live: a load is a strided view of its array
//! (`View`: start and delta of its cursor, any sign), a constant or a
//! scalar a view of one element, and only an operator's result fills a
//! strip buffer. The rest runs per trip, in statement order, over those
//! strips; a leaf under it is not hoisted, just read. The sole
//! statement `X[c] = X[c] ⊕ t`, `c` invariant and `t` free, is folded
//! in trip order — `((X[c] ⊕ t₀) ⊕ t₁) ⊕ …`, the association the
//! per-trip walk has, hence its bits; when `t = a ⊗ b` the fold applies
//! `⊗` trip by trip over the two operands, `acc ⊕ (aᵢ ⊗ bᵢ)`, and no
//! buffer holds the `tᵢ`. `State::run_trips` proves every subscript
//! cursor's first and last index in range on entry (linear, so every
//! index between is too) and otherwise leaves the entry to the per-trip
//! walk, which reports the first bad access as a typed `SubscriptRange`.
//! A view is still read with bounds-checked indexing. Costs are charged
//! on entry either way; `Analytic` never sees a stream.
//!
//! **Fold nests run as lanes.** A loop whose body is a rectangular nest
//! ending in such a fold, with prologue stores to the fold's `X[c]`
//! before its loop and nothing else stored, gets a [`Nest`]: its
//! elements are independent once `c` is proven injective over the loops
//! outside the fold and every cursor in range at the box's corners
//! (`State::nest_box`; the walk runs the entry otherwise). The non-fold
//! loop along `c`'s smallest stride becomes lanes, the others keep their
//! order outside, and the fold's trips run over a chunk of lanes at a
//! time: each element still takes its prologue value, then `⊕ term` in
//! trip order, so it gets the walk's bits. MM's `DO I / DO J / DO K`
//! runs as `J`, `K`, then a column of `I`.
//!
//! **Errors are one word.** The per-trip walk returns `Eval`, its
//! error boxed, so a value comes back in registers; streams have no
//! error path at all, and what `Analytic` cannot price is refused
//! before anything runs (`check_priceable`).

use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering::Relaxed;

use mpi2::Elem;
use vpce_faults::VpceError;

use crate::cost::{instr_cycles, TRIP_CYCLES};
use crate::ir::{self, BinOp, Expr, Instr, IntrinsicOp, SpmdProgram};
use crate::value::{exact_int, Value};

/// `c0 + Σ k·ints[slot]`, wrapping. No terms: a constant; one term
/// with `k = 1`, `c0 = 0`: a plain scalar read.
#[derive(Debug, Clone, PartialEq)]
pub struct Affine {
    pub c0: i64,
    /// `(k, slot)`; every slot is INTEGER, no `k` is zero, no slot
    /// repeats.
    pub terms: Vec<(i64, usize)>,
}

impl Affine {
    #[inline]
    fn value(&self, ints: &[i64]) -> i64 {
        self.terms.iter().fold(self.c0, |acc, &(k, s)| {
            acc.wrapping_add(k.wrapping_mul(ints[s]))
        })
    }

    /// The coefficient of `slot`; 0 when the node does not read it.
    fn coef(&self, slot: usize) -> i64 {
        self.terms.iter().find(|t| t.1 == slot).map_or(0, |t| t.0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IUn {
    Neg,
    Abs,
    /// `.NOT.`: 1 when the operand is zero.
    Not,
}

/// INTEGER × INTEGER → INTEGER. `And`/`Or` read their operands as
/// truth values (non-zero) and evaluate both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IBin {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Mod,
    Min,
    Max,
    And,
    Or,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

/// An INTEGER-valued expression.
#[derive(Debug, Clone, PartialEq)]
pub enum IExpr {
    Affine(Affine),
    Un(IUn, Box<IExpr>),
    Bin(IBin, Box<IExpr>, Box<IExpr>),
    /// Relational operators compare as REAL (both operand types) and
    /// yield 0 or 1.
    Cmp(Cmp, Box<RExpr>, Box<RExpr>),
    /// REAL used where INTEGER is required (subscript, loop bound):
    /// exact for an integral value, `TypeViolation` otherwise.
    Exact(Box<RExpr>),
    /// REAL → INTEGER truncation toward zero: `INT()`, and the store of
    /// a REAL value into an INTEGER slot.
    Trunc(Box<RExpr>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RUn {
    Neg,
    Abs,
    Sqrt,
    Sin,
    Cos,
    Exp,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RBin {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Mod,
    Min,
    Max,
}

/// A REAL-valued expression.
#[derive(Debug, Clone, PartialEq)]
pub enum RExpr {
    Const(f64),
    /// A REAL scalar slot.
    Scalar(usize),
    Load {
        array: usize,
        index: Box<IExpr>,
    },
    Un(RUn, Box<RExpr>),
    Bin(RBin, Box<RExpr>, Box<RExpr>),
    /// INTEGER → REAL conversion (`REAL()`, mixed-mode promotion, the
    /// store of an INTEGER value into a REAL slot).
    FromInt(Box<IExpr>),
}

/// A statement list and the cycles one pass over it costs, nested
/// bodies excluded.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    pub cost: f64,
    pub stmts: Vec<Stmt>,
}

/// What a counted loop repeats; the iteration set comes from outside
/// (a `Loop` statement's bounds, or a rank's share of a parallel
/// region).
#[derive(Debug, Clone, PartialEq)]
pub struct LoopBody {
    pub var: usize,
    pub block: Block,
    /// A nested loop bound or condition reads `var`, so trips of this
    /// loop may cost differently and `Analytic` must price each one.
    pub shape_reads_var: bool,
    /// The strip-at-a-time form of `block`, when it has one.
    pub stream: Option<Stream>,
    /// The lane form of `block`, when it is a fold nest.
    pub nest: Option<Box<Nest>>,
}

/// Trips a stream evaluates per strip: wide enough that an operator's
/// dispatch is noise against its lanes, narrow enough that a rank's
/// buffers (one per hoisted subtree, and [`Stream::scratch`] more for
/// the computed operands of the one being evaluated) stay a few KB.
pub(crate) const STRIP: usize = 64;

/// Lanes a [`Nest`] runs at once, each fold trip over all of them: a
/// column of MM at the paper's largest size, its accumulators and a
/// column of each operand well inside L1. With `STRIP` lanes every fold
/// trip jumped to another page of A (N=1024: 4.8 s against 0.7 s).
pub(crate) const LANES: usize = 16 * STRIP;

/// One affine node of a stream body, as a walk: its value at the first
/// trip is computed on loop entry, every later trip adds
/// `k_var · step`.
#[derive(Debug, Clone, PartialEq)]
pub struct Cursor {
    pub affine: Affine,
    /// Coefficient of the loop variable in `affine`; 0 for a
    /// loop-invariant node.
    pub k_var: i64,
    /// The array it subscripts. `None` for a `REAL()` conversion, whose
    /// value is unconstrained.
    pub array: Option<usize>,
}

/// A subtree evaluated for a whole strip of trips at once. It reads no
/// array and no REAL slot the body stores, so no trip of this loop can
/// change what any other trip's evaluation of it sees. Its leaves
/// (`Const`, `Scalar`, `Load`) are read where they live; the other
/// nodes compute a strip buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum SExpr {
    Const(f64),
    Scalar(usize),
    Load { array: usize, cursor: usize },
    FromInt(usize),
    Un(RUn, Box<SExpr>),
    Bin(RBin, Box<SExpr>, Box<SExpr>),
}

/// What is left to evaluate trip by trip, in statement order: reads of
/// what the body itself stores, over strip buffers and free leaves.
#[derive(Debug, Clone, PartialEq)]
pub enum TExpr {
    /// The current lane of `Stream::hoisted[i]`'s buffer.
    Strip(usize),
    Const(f64),
    Scalar(usize),
    Load {
        array: usize,
        cursor: usize,
    },
    Un(RUn, Box<TExpr>),
    Bin(RBin, Box<TExpr>, Box<TExpr>),
}

#[derive(Debug, Clone, PartialEq)]
pub enum Place {
    Elem { array: usize, cursor: usize },
    Real(usize),
}

#[derive(Debug, Clone, PartialEq)]
pub enum Residual {
    /// The body is the one statement `X[c] = X[c] ⊕ term` with `c`
    /// loop-invariant and `term` reading nothing the body stores: an
    /// in-order fold of `term` into `X[c]`.
    Fold {
        array: usize,
        cursor: usize,
        op: RBin,
        term: SExpr,
    },
    Trips(Vec<(Place, TExpr)>),
}

/// A loop body of array and REAL-scalar stores whose every subscript
/// (and `REAL()` operand) is affine over an INTEGER loop variable:
/// once every cursor's first and last index are proven in range,
/// nothing in it can fail.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    pub cursors: Vec<Cursor>,
    /// The maximal computed subtrees the body cannot affect.
    pub hoisted: Vec<SExpr>,
    pub residual: Residual,
    /// Strip buffers the computed operands inside one hoisted subtree,
    /// or the fold's term, take at most. 0 when every operand is a leaf.
    pub scratch: usize,
}

/// One loop of a [`Nest`], inside the loop that carries the nest.
#[derive(Debug, Clone, PartialEq)]
pub struct Level {
    pub var: usize,
    /// Affine over no variable of the nest: fixed for the whole nest,
    /// and unable to fail.
    pub lo: Affine,
    pub hi: Affine,
    /// Constant and non-zero.
    pub step: i64,
    /// One pass over the loop's body, nested bodies excluded
    /// ([`Block::cost`]).
    pub cost: f64,
}

/// A rectangular loop nest that ends in a fold: under the carrying loop
/// and `levels`, the innermost loop's body is `X[c] = X[c] ⊕ term`
/// ([`Residual::Fold`]), its parent stores to that `X[c]` first (the
/// prologue) and nothing else is stored. Every other array is read
/// only. Once `c` is proven to name a different element at every point
/// of the loops outside the fold, each element's computation is its own
/// — its prologue value, then `⊕ term` in fold-trip order — and the
/// points may run in any order.
#[derive(Debug, Clone, PartialEq)]
pub struct Nest {
    /// The loops inside the carrying loop, outermost first; the last is
    /// the fold's.
    pub levels: Vec<Level>,
    /// The affine nodes of the fold's body, then those of `init`.
    pub cursors: Vec<Cursor>,
    /// `X` and `c`, as in [`Residual::Fold`].
    pub array: usize,
    pub cursor: usize,
    pub op: RBin,
    pub term: SExpr,
    /// What the prologue leaves in `X[c]` before the fold: its last
    /// store's value, which reads neither `X` nor the fold's variable.
    /// `None`: no prologue, the fold starts from `X[c]` as it is.
    pub init: Option<SExpr>,
    /// Lane buffers `term` or `init` take when computed, their computed
    /// operands' included.
    pub scratch: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    StoreArray {
        array: usize,
        index: IExpr,
        value: RExpr,
    },
    StoreInt {
        slot: usize,
        value: IExpr,
    },
    StoreReal {
        slot: usize,
        value: RExpr,
    },
    Loop {
        lo: IExpr,
        hi: IExpr,
        step: i64,
        /// A bound loads from an array: `Analytic`, which executes no
        /// numerics, cannot know the trip count.
        bounds_read_memory: bool,
        body: LoopBody,
    },
    /// `cond` is a truth value: non-zero takes `then_body`.
    If {
        cond: IExpr,
        then_body: Block,
        else_body: Block,
    },
}

/// One top-level block of an SPMD program, lowered.
pub(crate) enum Code {
    MasterSeq(Block),
    Parallel(LoopBody),
}

/// Lower every block of `prog` (not its sequential form: a parallel
/// execution never runs it).
pub(crate) fn lower_program(prog: &ir::SpmdProgram) -> Vec<Code> {
    let lowerer = Lowerer::new(&prog.scalars);
    prog.blocks
        .iter()
        .map(|b| match b {
            ir::Block::MasterSeq(instrs) => Code::MasterSeq(lowerer.block(instrs)),
            ir::Block::Parallel(r) => Code::Parallel(lowerer.loop_body(r.var, &r.body)),
        })
        .collect()
}

/// Lower a statement list against the program's scalar table
/// (`(name, is_integer)` per slot).
pub fn lower(instrs: &[Instr], scalars: &[(String, bool)]) -> Block {
    Lowerer::new(scalars).block(instrs)
}

/// A lowered expression of either type.
enum Typed {
    I(IExpr),
    R(RExpr),
}

impl Typed {
    /// Fortran implicit conversion (`Value::as_real`).
    fn real(self) -> RExpr {
        match self {
            Typed::I(e) => RExpr::FromInt(Box::new(e)),
            Typed::R(e) => e,
        }
    }

    /// Integer position (`Value::as_int`).
    fn exact(self) -> IExpr {
        match self {
            Typed::I(e) => e,
            Typed::R(e) => IExpr::Exact(Box::new(e)),
        }
    }

    /// Truth position: INTEGER non-zero, REAL `!= 0.0`.
    fn truth(self) -> IExpr {
        match self {
            Typed::I(e) => e,
            Typed::R(e) => IExpr::Cmp(Cmp::Ne, Box::new(e), Box::new(RExpr::Const(0.0))),
        }
    }
}

fn constant(c0: i64) -> Affine {
    Affine {
        c0,
        terms: Vec::new(),
    }
}

/// `a + kb·b`, terms merged per slot.
fn combine(mut a: Affine, b: Affine, kb: i64) -> IExpr {
    a.c0 = a.c0.wrapping_add(kb.wrapping_mul(b.c0));
    for (k, slot) in b.terms {
        let k = kb.wrapping_mul(k);
        match a.terms.iter_mut().find(|t| t.1 == slot) {
            Some(t) => t.0 = t.0.wrapping_add(k),
            None => a.terms.push((k, slot)),
        }
    }
    a.terms.retain(|t| t.0 != 0);
    IExpr::Affine(a)
}

fn ibin(op: IBin, a: IExpr, b: IExpr) -> IExpr {
    match (op, a, b) {
        (IBin::Add, IExpr::Affine(a), IExpr::Affine(b)) => combine(a, b, 1),
        (IBin::Sub, IExpr::Affine(a), IExpr::Affine(b)) => combine(a, b, -1),
        (IBin::Mul, IExpr::Affine(a), IExpr::Affine(b)) if b.terms.is_empty() => {
            combine(constant(0), a, b.c0)
        }
        (IBin::Mul, IExpr::Affine(a), IExpr::Affine(b)) if a.terms.is_empty() => {
            combine(constant(0), b, a.c0)
        }
        (op, a, b) => IExpr::Bin(op, Box::new(a), Box::new(b)),
    }
}

/// A binary operator on like types stays INTEGER; mixed operands
/// promote to REAL.
fn promote(i: IBin, r: RBin, a: Typed, b: Typed) -> Typed {
    match (a, b) {
        (Typed::I(a), Typed::I(b)) => Typed::I(ibin(i, a, b)),
        (a, b) => Typed::R(RExpr::Bin(r, Box::new(a.real()), Box::new(b.real()))),
    }
}

struct Lowerer {
    /// INTEGER-ness per scalar slot.
    int_scalars: Vec<bool>,
}

impl Lowerer {
    fn new(scalars: &[(String, bool)]) -> Lowerer {
        Lowerer {
            int_scalars: scalars.iter().map(|s| s.1).collect(),
        }
    }

    fn block(&self, instrs: &[Instr]) -> Block {
        Block {
            cost: instrs
                .iter()
                .map(|i| instr_cycles(i, &self.int_scalars))
                .sum(),
            stmts: instrs.iter().map(|i| self.stmt(i)).collect(),
        }
    }

    fn loop_body(&self, var: usize, body: &[Instr]) -> LoopBody {
        let block = self.block(body);
        let int = self.int_scalars[var];
        LoopBody {
            var,
            stream: int.then(|| StreamBuilder::build(var, &block.stmts)).flatten(),
            nest: int.then(|| Nest::build(var, &block.stmts).map(Box::new)).flatten(),
            block,
            shape_reads_var: shape_reads(body, var),
        }
    }

    fn stmt(&self, i: &Instr) -> Stmt {
        match i {
            Instr::StoreArray {
                array,
                index,
                value,
            } => Stmt::StoreArray {
                array: *array,
                index: self.expr(index).exact(),
                value: self.expr(value).real(),
            },
            Instr::StoreScalar { slot, value } => match (self.int_scalars[*slot], self.expr(value))
            {
                (true, Typed::I(value)) => Stmt::StoreInt { slot: *slot, value },
                (true, Typed::R(v)) => Stmt::StoreInt {
                    slot: *slot,
                    value: IExpr::Trunc(Box::new(v)),
                },
                (false, v) => Stmt::StoreReal {
                    slot: *slot,
                    value: v.real(),
                },
            },
            Instr::Loop {
                var,
                lo,
                hi,
                step,
                body,
            } => Stmt::Loop {
                lo: self.expr(lo).exact(),
                hi: self.expr(hi).exact(),
                step: *step,
                bounds_read_memory: reads_memory(lo) || reads_memory(hi),
                body: self.loop_body(*var, body),
            },
            Instr::If {
                cond,
                then_body,
                else_body,
            } => Stmt::If {
                cond: self.expr(cond).truth(),
                then_body: self.block(then_body),
                else_body: self.block(else_body),
            },
        }
    }

    /// The static type of each node is the tag the tree walker would
    /// have computed at run time, given that scalar slots hold their
    /// declared type. (`cost::is_int` is a pricing heuristic and
    /// disagrees on `ABS`/`MIN`/`MAX`/`MOD`/logicals; costs keep using
    /// it, semantics use this.)
    fn expr(&self, e: &Expr) -> Typed {
        match e {
            Expr::IConst(v) => Typed::I(IExpr::Affine(constant(*v))),
            Expr::RConst(v) => Typed::R(RExpr::Const(*v)),
            Expr::Scalar(slot) if self.int_scalars[*slot] => Typed::I(IExpr::Affine(Affine {
                c0: 0,
                terms: vec![(1, *slot)],
            })),
            Expr::Scalar(slot) => Typed::R(RExpr::Scalar(*slot)),
            Expr::Load { array, index } => Typed::R(RExpr::Load {
                array: *array,
                index: Box::new(self.expr(index).exact()),
            }),
            Expr::Neg(a) => match self.expr(a) {
                Typed::I(IExpr::Affine(a)) => Typed::I(combine(constant(0), a, -1)),
                Typed::I(a) => Typed::I(IExpr::Un(IUn::Neg, Box::new(a))),
                Typed::R(a) => Typed::R(RExpr::Un(RUn::Neg, Box::new(a))),
            },
            Expr::Not(a) => Typed::I(IExpr::Un(IUn::Not, Box::new(self.expr(a).truth()))),
            Expr::Bin(op, a, b) => {
                let (a, b) = (self.expr(a), self.expr(b));
                let cmp = |op, a: Typed, b: Typed| {
                    Typed::I(IExpr::Cmp(op, Box::new(a.real()), Box::new(b.real())))
                };
                match op {
                    BinOp::Add => promote(IBin::Add, RBin::Add, a, b),
                    BinOp::Sub => promote(IBin::Sub, RBin::Sub, a, b),
                    BinOp::Mul => promote(IBin::Mul, RBin::Mul, a, b),
                    BinOp::Div => promote(IBin::Div, RBin::Div, a, b),
                    BinOp::Pow => promote(IBin::Pow, RBin::Pow, a, b),
                    BinOp::And => Typed::I(ibin(IBin::And, a.truth(), b.truth())),
                    BinOp::Or => Typed::I(ibin(IBin::Or, a.truth(), b.truth())),
                    BinOp::Lt => cmp(Cmp::Lt, a, b),
                    BinOp::Le => cmp(Cmp::Le, a, b),
                    BinOp::Gt => cmp(Cmp::Gt, a, b),
                    BinOp::Ge => cmp(Cmp::Ge, a, b),
                    BinOp::Eq => cmp(Cmp::Eq, a, b),
                    BinOp::Ne => cmp(Cmp::Ne, a, b),
                }
            }
            Expr::Intr(op, args) => {
                let a0 = self.expr(&args[0]);
                let real = |f, a: Typed| Typed::R(RExpr::Un(f, Box::new(a.real())));
                match op {
                    IntrinsicOp::Sqrt => real(RUn::Sqrt, a0),
                    IntrinsicOp::Sin => real(RUn::Sin, a0),
                    IntrinsicOp::Cos => real(RUn::Cos, a0),
                    IntrinsicOp::Exp => real(RUn::Exp, a0),
                    IntrinsicOp::Abs => match a0 {
                        Typed::I(a) => Typed::I(IExpr::Un(IUn::Abs, Box::new(a))),
                        Typed::R(a) => Typed::R(RExpr::Un(RUn::Abs, Box::new(a))),
                    },
                    IntrinsicOp::ToReal => Typed::R(a0.real()),
                    IntrinsicOp::ToInt => Typed::I(IExpr::Trunc(Box::new(a0.real()))),
                    IntrinsicOp::Mod => promote(IBin::Mod, RBin::Mod, a0, self.expr(&args[1])),
                    IntrinsicOp::Min => promote(IBin::Min, RBin::Min, a0, self.expr(&args[1])),
                    IntrinsicOp::Max => promote(IBin::Max, RBin::Max, a0, self.expr(&args[1])),
                }
            }
        }
    }
}

/// A stream subtree while it is being built: still free of the body's
/// own effects, or already bound to them (its free parts cut out).
enum Built {
    Free(SExpr),
    Bound(TExpr),
}

#[derive(Clone)]
struct StreamBuilder {
    var: usize,
    /// Arrays and REAL slots the body stores.
    arrays: Vec<usize>,
    slots: Vec<usize>,
    cursors: Vec<Cursor>,
    hoisted: Vec<SExpr>,
}

impl StreamBuilder {
    /// The stream form of a loop body over INTEGER `var`, if it has one.
    fn build(var: usize, stmts: &[Stmt]) -> Option<Stream> {
        let mut b = StreamBuilder {
            var,
            arrays: Vec::new(),
            slots: Vec::new(),
            cursors: Vec::new(),
            hoisted: Vec::new(),
        };
        for s in stmts {
            match s {
                Stmt::StoreArray { array, .. } => b.arrays.push(*array),
                Stmt::StoreReal { slot, .. } => b.slots.push(*slot),
                Stmt::StoreInt { .. } | Stmt::Loop { .. } | Stmt::If { .. } => return None,
            }
        }
        b.clone().fold(stmts).or_else(|| b.trips(stmts))
    }

    /// The body `X[c] = X[c] ⊕ term`, `c` loop-invariant and `term`
    /// free of the body's stores: a fold of `term` into `X[c]`.
    fn fold(mut self, stmts: &[Stmt]) -> Option<Stream> {
        let [Stmt::StoreArray {
            array,
            index,
            value: RExpr::Bin(op, x, term),
        }] = stmts
        else {
            return None;
        };
        let RExpr::Load {
            array: xa,
            index: xi,
        } = &**x
        else {
            return None;
        };
        let cursor = self.cursor(index, Some(*array))?;
        self.cursor(xi, Some(*xa))?;
        let Built::Free(term) = self.expr(term)? else {
            return None;
        };
        (xa == array && **xi == *index && self.cursors[cursor].k_var == 0).then(|| {
            self.stream(Residual::Fold {
                array: *array,
                cursor,
                op: *op,
                term,
            })
        })
    }

    /// Any other body: its statements trip by trip over the hoisted
    /// strips.
    fn trips(mut self, stmts: &[Stmt]) -> Option<Stream> {
        let mut trips = Vec::new();
        for s in stmts {
            let (place, value) = match s {
                Stmt::StoreArray {
                    array,
                    index,
                    value,
                } => {
                    let cursor = self.cursor(index, Some(*array))?;
                    let array = *array;
                    (Place::Elem { array, cursor }, value)
                }
                Stmt::StoreReal { slot, value } => (Place::Real(*slot), value),
                _ => unreachable!("rejected by `build`"),
            };
            let value = self.expr(value)?;
            trips.push((place, self.cut(value)));
        }
        Some(self.stream(Residual::Trips(trips)))
    }

    fn stream(self, residual: Residual) -> Stream {
        // A fold computes the operands of a term `a ⊗ b`, or the term
        // itself as one operand.
        let fold = match &residual {
            Residual::Fold {
                term: term @ SExpr::Bin(..),
                ..
            } => scratch(term),
            Residual::Fold { term, .. } => operand_scratch(term),
            Residual::Trips(_) => 0,
        };
        let scratch = self.hoisted.iter().map(scratch).fold(fold, usize::max);
        Stream {
            cursors: self.cursors,
            hoisted: self.hoisted,
            residual,
            scratch,
        }
    }

    fn cursor(&mut self, e: &IExpr, array: Option<usize>) -> Option<usize> {
        let IExpr::Affine(affine) = e else {
            return None;
        };
        self.cursors.push(Cursor {
            affine: affine.clone(),
            k_var: affine.coef(self.var),
            array,
        });
        Some(self.cursors.len() - 1)
    }

    fn expr(&mut self, e: &RExpr) -> Option<Built> {
        Some(match e {
            RExpr::Const(v) => Built::Free(SExpr::Const(*v)),
            RExpr::Scalar(slot) if self.slots.contains(slot) => Built::Bound(TExpr::Scalar(*slot)),
            RExpr::Scalar(slot) => Built::Free(SExpr::Scalar(*slot)),
            RExpr::Load { array, index } => {
                let (array, cursor) = (*array, self.cursor(index, Some(*array))?);
                if self.arrays.contains(&array) {
                    Built::Bound(TExpr::Load { array, cursor })
                } else {
                    Built::Free(SExpr::Load { array, cursor })
                }
            }
            RExpr::FromInt(a) => Built::Free(SExpr::FromInt(self.cursor(a, None)?)),
            RExpr::Un(op, a) => match self.expr(a)? {
                Built::Free(a) => Built::Free(SExpr::Un(*op, Box::new(a))),
                Built::Bound(a) => Built::Bound(TExpr::Un(*op, Box::new(a))),
            },
            RExpr::Bin(op, a, b) => match (self.expr(a)?, self.expr(b)?) {
                (Built::Free(a), Built::Free(b)) => {
                    Built::Free(SExpr::Bin(*op, Box::new(a), Box::new(b)))
                }
                (a, b) => Built::Bound(TExpr::Bin(
                    *op,
                    Box::new(self.cut(a)),
                    Box::new(self.cut(b)),
                )),
            },
        })
    }

    /// A free subtree under a bound parent is maximal: hoist it, unless
    /// it is a leaf, which the trip reads where it lives.
    fn cut(&mut self, e: Built) -> TExpr {
        match e {
            Built::Free(SExpr::Const(v)) => TExpr::Const(v),
            Built::Free(SExpr::Scalar(slot)) => TExpr::Scalar(slot),
            Built::Free(SExpr::Load { array, cursor }) => TExpr::Load { array, cursor },
            Built::Free(e) => {
                self.hoisted.push(e);
                TExpr::Strip(self.hoisted.len() - 1)
            }
            Built::Bound(e) => e,
        }
    }
}

impl Nest {
    /// The nest form of a loop body over INTEGER `var`, if it has one:
    /// the body is one loop that carries a nest, or prologue stores and
    /// a loop whose body is a fold. Every variable of the nest is
    /// distinct and no bound reads one.
    fn build(var: usize, stmts: &[Stmt]) -> Option<Nest> {
        let (
            Stmt::Loop {
                lo: IExpr::Affine(lo),
                hi: IExpr::Affine(hi),
                step,
                body,
                ..
            },
            prologue,
        ) = stmts.split_last()?
        else {
            return None;
        };
        let mut nest = match (&body.stream, &body.nest) {
            (
                Some(Stream {
                    cursors,
                    residual: Residual::Fold { array, cursor, op, term },
                    ..
                }),
                _,
            ) => {
                // The prologue's values are read like a fold's term: free
                // of X, the one array the nest stores.
                let mut b = StreamBuilder {
                    var: body.var,
                    arrays: vec![*array],
                    slots: Vec::new(),
                    cursors: cursors.clone(),
                    hoisted: Vec::new(),
                };
                let c = IExpr::Affine(cursors[*cursor].affine.clone());
                let mut init = None;
                for s in prologue {
                    let Stmt::StoreArray { array: a, index, value } = s else { return None };
                    let Built::Free(value) = b.expr(value)? else { return None };
                    if a != array || *index != c {
                        return None;
                    }
                    init = Some(value);
                }
                // The prologue runs before the fold's loop sets its
                // variable, so it must not read it.
                if b.cursors[cursors.len()..].iter().any(|c| c.k_var != 0) {
                    return None;
                }
                Nest {
                    levels: Vec::new(),
                    scratch: init.as_ref().map_or(0, operand_scratch).max(operand_scratch(term)),
                    init,
                    cursors: b.cursors,
                    array: *array,
                    cursor: *cursor,
                    op: *op,
                    term: term.clone(),
                }
            }
            (None, Some(inner)) if prologue.is_empty() => Nest::clone(inner),
            _ => return None,
        };
        nest.levels.insert(
            0,
            Level {
                var: body.var,
                lo: lo.clone(),
                hi: hi.clone(),
                step: *step,
                cost: body.block.cost,
            },
        );
        let vars: Vec<usize> = std::iter::once(var).chain(nest.levels.iter().map(|l| l.var)).collect();
        let distinct = vars.iter().enumerate().all(|(i, v)| !vars[..i].contains(v));
        let fixed = nest.levels.iter().all(|l| {
            [&l.lo, &l.hi].iter().all(|b| b.terms.iter().all(|t| !vars.contains(&t.1)))
        });
        (*step != 0 && distinct && fixed).then_some(nest)
    }
}

/// The strip buffers `State::strip` takes from scratch for the computed
/// operands of `e`, theirs included. A bound: it sums what the
/// evaluation reuses.
fn scratch(e: &SExpr) -> usize {
    match e {
        SExpr::Un(_, a) => operand_scratch(a),
        SExpr::Bin(_, a, b) => operand_scratch(a) + operand_scratch(b),
        SExpr::Const(_) | SExpr::Scalar(_) | SExpr::Load { .. } | SExpr::FromInt(_) => 0,
    }
}

/// [`scratch`] for `e` as an operand: none for a leaf, read where it
/// lives; else its own buffer too.
fn operand_scratch(e: &SExpr) -> usize {
    match e {
        SExpr::Const(_) | SExpr::Scalar(_) | SExpr::Load { .. } => 0,
        e => 1 + scratch(e),
    }
}

/// Refuse, before anything runs, what `Analytic` cannot price: the
/// first loop of `blocks`, in program order, with a bound that reads
/// array memory — which only full execution computes.
pub(crate) fn check_priceable<'b>(
    blocks: impl IntoIterator<Item = &'b Block>,
    scalars: &[(String, bool)],
) -> Result<(), VpceError> {
    fn first(stmts: &[Stmt]) -> Option<usize> {
        stmts.iter().find_map(|s| match s {
            Stmt::Loop { bounds_read_memory: true, body, .. } => Some(body.var),
            Stmt::Loop { body, .. } => first(&body.block.stmts),
            Stmt::If { then_body: t, else_body: e, .. } => first(&t.stmts).or_else(|| first(&e.stmts)),
            Stmt::StoreArray { .. } | Stmt::StoreInt { .. } | Stmt::StoreReal { .. } => None,
        })
    }
    let Some(var) = blocks.into_iter().find_map(|b| first(&b.stmts)) else { return Ok(()) };
    Err(VpceError::InvalidArgument {
        msg: format!(
            "analytic mode cannot price loop DO {}: a bound reads array memory, which only full \
             execution computes",
            scalars[var].0
        ),
    })
}

fn reads_memory(e: &Expr) -> bool {
    match e {
        Expr::Load { .. } => true,
        Expr::IConst(_) | Expr::RConst(_) | Expr::Scalar(_) => false,
        Expr::Neg(a) | Expr::Not(a) => reads_memory(a),
        Expr::Bin(_, a, b) => reads_memory(a) || reads_memory(b),
        Expr::Intr(_, args) => args.iter().any(reads_memory),
    }
}

/// Does scalar `var` shape the cost of `instrs` — is it read by a
/// nested loop bound or a condition? (Store costs are static.)
fn shape_reads(instrs: &[Instr], var: usize) -> bool {
    fn mentions(e: &Expr, var: usize) -> bool {
        match e {
            Expr::Scalar(s) => *s == var,
            Expr::IConst(_) | Expr::RConst(_) => false,
            Expr::Load { index, .. } => mentions(index, var),
            Expr::Neg(a) | Expr::Not(a) => mentions(a, var),
            Expr::Bin(_, a, b) => mentions(a, var) || mentions(b, var),
            Expr::Intr(_, args) => args.iter().any(|a| mentions(a, var)),
        }
    }
    instrs.iter().any(|i| match i {
        Instr::Loop { lo, hi, body, .. } => {
            mentions(lo, var) || mentions(hi, var) || shape_reads(body, var)
        }
        Instr::If {
            cond,
            then_body,
            else_body,
        } => mentions(cond, var) || shape_reads(then_body, var) || shape_reads(else_body, var),
        Instr::StoreArray { .. } | Instr::StoreScalar { .. } => false,
    })
}

/// F77 iteration count of `DO v = lo, hi, step`, fixed on entry. A zero
/// step runs no trip.
fn trips(lo: i64, hi: i64, step: i64) -> u64 {
    if step == 0 {
        return 0;
    }
    let (lo, hi, step) = (lo as i128, hi as i128, step as i128);
    ((hi - lo + step) / step).clamp(0, u64::MAX as i128) as u64
}

/// What the per-trip walk evaluates to: a value, or the boxed error
/// that ends the run.
pub(crate) type Eval<T> = Result<T, Box<VpceError>>;

#[cold]
#[inline(never)]
pub(crate) fn division_by_zero<T>() -> Eval<T> {
    Err(Box::new(VpceError::TypeViolation {
        msg: "integer division by zero".into(),
    }))
}

/// Fortran INTEGER `**`. A negative exponent is the truncated
/// reciprocal: 0 unless the base is ±1 (or 0, which divides by zero).
fn ipow(a: i64, b: i64) -> Eval<i64> {
    Ok(match (a, b) {
        (_, 0..=i64::MAX) => a.wrapping_pow(b.min(62) as u32),
        (1, _) => 1,
        (-1, _) => 1 - 2 * (b & 1),
        (0, _) => return division_by_zero(),
        _ => 0,
    })
}

/// The REAL operator tables, written once. `$body` is expanded in the
/// arm of the selected operator with `$f` bound to its function, so a
/// per-trip walk applies it once and a strip applies it across its
/// lanes — one dispatch either way.
macro_rules! bind {
    ($f:ident = $g:expr, $body:expr) => {{
        let $f = $g;
        $body
    }};
}

macro_rules! with_run {
    ($op:expr, $f:ident => $body:expr) => {
        match $op {
            RUn::Neg => bind!($f = |a: f64| -a, $body),
            RUn::Abs => bind!($f = f64::abs, $body),
            RUn::Sqrt => bind!($f = f64::sqrt, $body),
            RUn::Sin => bind!($f = f64::sin, $body),
            RUn::Cos => bind!($f = f64::cos, $body),
            RUn::Exp => bind!($f = f64::exp, $body),
        }
    };
}

macro_rules! with_rbin {
    ($op:expr, $f:ident => $body:expr) => {
        match $op {
            RBin::Add => bind!($f = |a: f64, b: f64| a + b, $body),
            RBin::Sub => bind!($f = |a: f64, b: f64| a - b, $body),
            RBin::Mul => bind!($f = |a: f64, b: f64| a * b, $body),
            RBin::Div => bind!($f = |a: f64, b: f64| a / b, $body),
            RBin::Pow => bind!($f = f64::powf, $body),
            RBin::Mod => bind!($f = |a: f64, b: f64| a % b, $body),
            RBin::Min => bind!($f = f64::min, $body),
            RBin::Max => bind!($f = f64::max, $body),
        }
    };
}

/// A cursor on loop entry: its value at the first trip and what each
/// trip adds.
type Walk = (i64, i64);

/// Value of a cursor at trip `t`. Wrapping, like the affine node it
/// stands for; a subscript cursor proven in range never wraps.
#[inline(always)]
fn at((start, delta): Walk, t: u64) -> i64 {
    start.wrapping_add(delta.wrapping_mul(t as i64))
}

/// A strip operand where it lives: lane `l` is `m[start + l·delta]`. A
/// load is a view of its array at its cursor's stride, a constant or a
/// scalar one element at delta 0, a computed subtree its buffer at
/// delta 1.
#[derive(Clone, Copy)]
struct View<'a> {
    m: &'a [f64],
    start: i64,
    delta: i64,
}

impl<'a> View<'a> {
    fn one(v: &'a f64) -> View<'a> {
        View {
            m: std::slice::from_ref(v),
            start: 0,
            delta: 0,
        }
    }

    #[inline(always)]
    fn at(self, lane: usize) -> f64 {
        self.m[at((self.start, self.delta), lane as u64) as usize]
    }

    /// Lanes `0 .. w` as a slice, when they are contiguous.
    fn run(self, w: usize) -> Option<&'a [f64]> {
        (self.delta == 1).then(|| &self.m[self.start as usize..][..w])
    }

    /// The view `t` steps of `d` on.
    #[inline(always)]
    fn on(self, d: i64, t: u64) -> View<'a> {
        View {
            start: at((self.start, d), t),
            ..self
        }
    }
}

/// `out[l] = f(a[l])`. Contiguous lanes go through a slice, so the
/// loop has no index arithmetic and vectorizes.
#[inline(always)]
fn map_lanes(out: &mut [f64], a: View, f: impl Fn(f64) -> f64) {
    match a.run(out.len()) {
        Some(a) => out.iter_mut().zip(a).for_each(|(o, a)| *o = f(*a)),
        None => out
            .iter_mut()
            .enumerate()
            .for_each(|(l, o)| *o = f(a.at(l))),
    }
}

/// `acc[l] += h(a[l], b[l])` for `n` fold trips, trip `t` reading each
/// operand `t` fold steps (`da`, `db`) on: a sum of products in one
/// pass, no buffer holding the terms. Each operand is contiguous (delta
/// 1, a slice) or one element (delta 0, read once a trip), not both one
/// element, so the lane loop vectorizes.
#[inline(always)]
fn sum_lanes(
    acc: &mut [f64],
    a: View,
    b: View,
    (da, db): (i64, i64),
    n: u64,
    h: impl Fn(f64, f64) -> f64,
) {
    let w = acc.len();
    for t in 0..n {
        let (a, b) = (a.on(da, t), b.on(db, t));
        match (a.run(w), b.run(w)) {
            (Some(a), Some(b)) => acc
                .iter_mut()
                .zip(a)
                .zip(b)
                .for_each(|((x, a), b)| *x += h(*a, *b)),
            (Some(a), None) => {
                let b = b.at(0);
                acc.iter_mut().zip(a).for_each(|(x, a)| *x += h(*a, b))
            }
            (None, Some(b)) => {
                let a = a.at(0);
                acc.iter_mut().zip(b).for_each(|(x, b)| *x += h(a, *b))
            }
            (None, None) => unreachable!("the caller passes one contiguous operand"),
        }
    }
}

/// `acc[l] = f(acc[l], t[l])`, with [`zip_lanes`]' fast paths.
#[inline(always)]
fn fold_lanes(acc: &mut [f64], t: View, f: impl Fn(f64, f64) -> f64) {
    match t.run(acc.len()) {
        Some(t) => acc.iter_mut().zip(t).for_each(|(x, t)| *x = f(*x, *t)),
        None if t.delta == 0 => {
            let t = t.at(0);
            acc.iter_mut().for_each(|x| *x = f(*x, t))
        }
        None => acc
            .iter_mut()
            .enumerate()
            .for_each(|(l, x)| *x = f(*x, t.at(l))),
    }
}

/// `out[l] = f(a[l], b[l])`, with [`map_lanes`]' fast path when each
/// operand is contiguous or one element (delta 0, read once).
#[inline(always)]
fn zip_lanes(out: &mut [f64], a: View, b: View, f: impl Fn(f64, f64) -> f64) {
    let w = out.len();
    match (a.run(w), b.run(w)) {
        (Some(a), Some(b)) => out
            .iter_mut()
            .zip(a)
            .zip(b)
            .for_each(|((o, a), b)| *o = f(*a, *b)),
        (Some(a), None) if b.delta == 0 => {
            let b = b.at(0);
            out.iter_mut().zip(a).for_each(|(o, a)| *o = f(*a, b))
        }
        (None, Some(b)) if a.delta == 0 => {
            let a = a.at(0);
            out.iter_mut().zip(b).for_each(|(o, b)| *o = f(a, *b))
        }
        _ => out
            .iter_mut()
            .enumerate()
            .for_each(|(l, o)| *o = f(a.at(l), b.at(l))),
    }
}

/// One executor's scalar banks and un-flushed compute cycles. Both
/// banks are indexed by slot; a slot lives in the bank of its declared
/// type and its entry in the other bank is never read.
pub(crate) struct State<'p> {
    scalars: &'p [(String, bool)],
    /// `(name, len)` per array, for naming an access out of range.
    arrays: &'p [(String, usize)],
    ints: Vec<i64>,
    reals: Vec<f64>,
    pub cycles: f64,
    /// Stream scratch, reused across loop entries: the walks of the
    /// running stream's cursors, then one `STRIP`-wide buffer per
    /// hoisted subtree and `Stream::scratch` more.
    walks: Vec<Walk>,
    strips: Vec<f64>,
    /// Set when nobody will read this executor's results: the walk
    /// then ends at its next loop trip or nest row ([`Self::stopping_at`]).
    stop: &'p AtomicBool,
}

/// What a proven nest entry runs over: per level, outermost first, its
/// variable, first value, step and trips; per cursor its value at the
/// nest's first point, and what one trip of each level adds to it
/// (`deltas[cursor * levels + level]`); and the level whose trips are
/// the lanes.
struct NestBox {
    levels: Vec<(usize, i64, i64, u64)>,
    bases: Vec<i64>,
    deltas: Vec<i64>,
    lane: usize,
}

/// The error of a walk stopped from outside; never reported.
#[cold]
#[inline(never)]
fn stopped<T>() -> Eval<T> {
    Err(Box::new(VpceError::PeerFailure {
        msg: "the sequential reference stopped: its parallel run failed".into(),
    }))
}

#[cfg(test)]
thread_local! {
    /// Loop entries this thread ran as a stream (the oracle property
    /// checks that its programs reach that path).
    pub(crate) static STREAMED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Of those, the entries that folded a term `a ⊗ b` trip by trip
    /// over its operands.
    pub(crate) static FUSED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Loop entries this thread ran as a fold nest, in lanes.
    pub(crate) static NESTED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl<'p> State<'p> {
    /// All of `prog`'s scalars zero.
    pub(crate) fn new(prog: &'p SpmdProgram) -> State<'p> {
        let scalars = &prog.scalars;
        State {
            scalars,
            arrays: &prog.arrays,
            ints: vec![0; scalars.len()],
            reals: vec![0.0; scalars.len()],
            cycles: 0.0,
            walks: Vec::new(),
            strips: Vec::new(),
            stop: {
                static NEVER: AtomicBool = AtomicBool::new(false);
                &NEVER
            },
        }
    }

    /// This executor, ending its walk with an error once `stop` is
    /// raised.
    pub(crate) fn stopping_at(self, stop: &'p AtomicBool) -> State<'p> {
        State { stop, ..self }
    }

    /// The typed store: `v` converted to the slot's declared type.
    pub(crate) fn store_real(&mut self, slot: usize, v: f64) {
        if self.scalars[slot].1 {
            self.ints[slot] = v as i64;
        } else {
            self.reals[slot] = v;
        }
    }

    fn store_int(&mut self, slot: usize, v: i64) {
        if self.scalars[slot].1 {
            self.ints[slot] = v;
        } else {
            self.reals[slot] = v as f64;
        }
    }

    /// Numeric view of a slot (`Value::as_real`).
    pub(crate) fn real_of(&self, slot: usize) -> f64 {
        if self.scalars[slot].1 {
            self.ints[slot] as f64
        } else {
            self.reals[slot]
        }
    }

    /// Every slot as a tagged [`Value`] (the API boundary).
    pub(crate) fn values(&self) -> Vec<Value> {
        (0..self.scalars.len())
            .map(|s| {
                if self.scalars[s].1 {
                    Value::I(self.ints[s])
                } else {
                    Value::R(self.reals[s])
                }
            })
            .collect()
    }

    /// Seed every slot from tagged values, through the typed store.
    pub(crate) fn load_values(&mut self, values: &[Value]) {
        for (slot, v) in values.iter().enumerate() {
            match *v {
                Value::I(v) => self.store_int(slot, v),
                Value::R(v) => self.store_real(slot, v),
            }
        }
    }

    /// `Full`: execute `block` once against `mem` (one slice per
    /// program array).
    pub(crate) fn run(&mut self, block: &Block, mem: &mut [&mut [Elem]]) -> Eval<()> {
        self.cycles += block.cost;
        self.exec(&block.stmts, mem)
    }

    /// `Full`: execute `n` trips of a loop, `var = first, first + step,
    /// …`. Charges all trips' bookkeeping and shallow body cost on
    /// entry.
    pub(crate) fn run_trips(
        &mut self,
        l: &LoopBody,
        first: i64,
        step: i64,
        n: u64,
        mem: &mut [&mut [Elem]],
    ) -> Eval<()> {
        self.cycles += n as f64 * (TRIP_CYCLES + l.block.cost);
        if let Some(s) = &l.stream {
            if n > 0 && self.run_stream(s, l.var, first, step, n, mem) {
                return Ok(());
            }
        }
        if let Some(nest) = &l.nest {
            if let Some(b) = self.nest_box(nest, l.var, first, step, n, mem) {
                return self.run_nest(nest, &b, mem);
            }
        }
        let mut v = first;
        for _ in 0..n {
            if self.stop.load(Relaxed) {
                return stopped();
            }
            self.store_int(l.var, v);
            self.exec(&l.block.stmts, mem)?;
            v = v.wrapping_add(step);
        }
        Ok(())
    }

    /// Run `n >= 1` trips of a stream body, provided every subscript
    /// cursor's first and last index are in range — a cursor is linear,
    /// so every index between them is. `false`, with nothing executed:
    /// some access is out of range (or too far to tell), and the
    /// per-trip walk will find the first one and name it.
    fn run_stream(
        &mut self,
        s: &Stream,
        var: usize,
        first: i64,
        step: i64,
        n: u64,
        mem: &mut [&mut [Elem]],
    ) -> bool {
        self.ints[var] = first;
        let mut walks = std::mem::take(&mut self.walks);
        walks.clear();
        walks.extend(
            s.cursors
                .iter()
                .map(|c| (c.affine.value(&self.ints), c.k_var.wrapping_mul(step))),
        );
        let in_range = s.cursors.iter().zip(&walks).all(|(c, &(start, delta))| {
            let Some(array) = c.array else { return true };
            let len = mem[array].len() as i128;
            let last = (delta as i128)
                .checked_mul(n as i128 - 1)
                .map(|d| d + start as i128);
            (0..len).contains(&(start as i128)) && last.is_some_and(|l| (0..len).contains(&l))
        });
        if in_range {
            let mut strips = std::mem::take(&mut self.strips);
            let len = (s.hoisted.len() + s.scratch) * STRIP;
            if strips.len() < len {
                strips.resize(len, 0.0);
            }
            let (bufs, scratch) = strips.split_at_mut(s.hoisted.len() * STRIP);
            match &s.residual {
                Residual::Fold {
                    array,
                    cursor,
                    op,
                    term,
                } => {
                    let c = walks[*cursor].0 as usize;
                    let acc = self.fold(*op, term, mem[*array][c], &walks, n, mem, scratch);
                    mem[*array][c] = acc;
                    #[cfg(test)]
                    FUSED.set(FUSED.get() + matches!(term, SExpr::Bin(..)) as u64);
                }
                Residual::Trips(stmts) => {
                    for t0 in (0..n).step_by(STRIP) {
                        let w = (n - t0).min(STRIP as u64) as usize;
                        for (h, buf) in s.hoisted.iter().zip(bufs.chunks_exact_mut(STRIP)) {
                            self.strip(h, &walks, t0, mem, &mut buf[..w], scratch);
                        }
                        for lane in 0..w {
                            let t = t0 + lane as u64;
                            for (place, value) in stmts {
                                let v = self.trip(value, &walks, t, bufs, mem);
                                match place {
                                    Place::Elem { array, cursor } => {
                                        mem[*array][at(walks[*cursor], t) as usize] = v
                                    }
                                    Place::Real(slot) => self.reals[*slot] = v,
                                }
                            }
                        }
                    }
                }
            }
            self.ints[var] = at((first, step), n - 1);
            self.strips = strips;
            #[cfg(test)]
            STREAMED.set(STREAMED.get() + 1);
        }
        self.walks = walks;
        in_range
    }

    /// The box a nest entry of `n` trips of the carrying loop runs over,
    /// provided every trip count is positive, every cursor's least and
    /// greatest value over the box — at its corners, in `i128` — lie in
    /// its array, and `c` names a different element at every point of
    /// the loops outside the fold: sorted by stride, each of their
    /// strides must exceed the reach of the smaller ones (a mixed-radix
    /// test). `None`: the walk runs the entry, and names the first bad
    /// access if there is one.
    fn nest_box(
        &self,
        nest: &Nest,
        var: usize,
        first: i64,
        step: i64,
        n: u64,
        mem: &[&mut [Elem]],
    ) -> Option<NestBox> {
        let mut levels = vec![(var, first, step, n)];
        for l in &nest.levels {
            let (lo, hi) = (l.lo.value(&self.ints), l.hi.value(&self.ints));
            levels.push((l.var, lo, l.step, trips(lo, hi, l.step)));
        }
        // The box's size bounds every count below.
        levels.iter().try_fold(1u64, |size, l| size.checked_mul(l.3).filter(|&s| s > 0))?;
        // Every cursor with each nest variable at its first value.
        let bases: Vec<i64> = nest
            .cursors
            .iter()
            .map(|c| {
                levels.iter().fold(c.affine.value(&self.ints), |v, l| {
                    v.wrapping_add(c.affine.coef(l.0).wrapping_mul(l.1.wrapping_sub(self.ints[l.0])))
                })
            })
            .collect();
        let d = levels.len();
        let deltas: Vec<i64> = nest
            .cursors
            .iter()
            .flat_map(|c| levels.iter().map(|l| c.affine.coef(l.0).wrapping_mul(l.2)))
            .collect();
        let reach = |c: usize, i: usize| (deltas[c * d + i] as i128) * (levels[i].3 as i128 - 1);
        for (c, cursor) in nest.cursors.iter().enumerate() {
            let Some(array) = cursor.array else { continue };
            let (mut least, mut most) = (bases[c] as i128, bases[c] as i128);
            for i in 0..d {
                let r = reach(c, i);
                if r < 0 {
                    least = least.checked_add(r)?;
                } else {
                    most = most.checked_add(r)?;
                }
            }
            if least < 0 || most >= mem[array].len() as i128 {
                return None;
            }
        }
        let x = nest.cursor;
        let mut strides: Vec<(u128, i128)> = (0..d - 1)
            .filter(|&i| levels[i].3 > 1)
            .map(|i| (deltas[x * d + i].unsigned_abs() as u128, reach(x, i).abs()))
            .collect();
        strides.sort_unstable();
        let mut span = 0i128;
        for (stride, r) in strides {
            if stride as i128 <= span {
                return None;
            }
            span = span.checked_add(r)?;
        }
        // Lanes along X's smallest stride, then the operands'.
        let operands = |i: usize| -> u128 {
            (0..nest.cursors.len()).map(|c| deltas[c * d + i].unsigned_abs() as u128).sum()
        };
        let lane = (0..d - 1)
            .min_by_key(|&i| (levels[i].3 < 2, deltas[x * d + i].unsigned_abs(), operands(i)))?;
        Some(NestBox { levels, bases, deltas, lane })
    }

    /// Run a proven nest entry. The loops outside the fold but the lane
    /// loop run in source order; at each of their points, the lanes run
    /// `LANES` at a time, every fold trip over the whole chunk. Lane
    /// `l`'s accumulator starts from its element's prologue value (or
    /// the element) and takes `⊕ term` for the fold's trips in order:
    /// the sequence the per-trip walk applies to that element, hence its
    /// bits. Cycles are the walk's: each inner level charges its trips
    /// on every entry of it. Polls the stop flag once per row.
    fn run_nest(&mut self, nest: &Nest, b: &NestBox, mem: &mut [&mut [Elem]]) -> Eval<()> {
        let d = b.levels.len();
        let mut entries = b.levels[0].3;
        for (l, &(.., n)) in nest.levels.iter().zip(&b.levels[1..]) {
            entries *= n;
            self.cycles += entries as f64 * (TRIP_CYCLES + l.cost);
        }
        let (fold, lane) = (d - 1, b.lane);
        let outer: Vec<usize> = (0..fold).filter(|&i| i != lane).collect();
        let ncur = nest.cursors.len();
        let delta = |c: usize, i: usize| b.deltas[c * d + i];
        let steps: Vec<i64> = (0..ncur).map(|c| delta(c, fold)).collect();
        let x = (nest.array, nest.cursor);
        // Buffers as wide as the widest chunk: the accumulators, then
        // scratch.
        let width = b.levels[lane].3.min(LANES as u64) as usize;
        let mut strips = std::mem::take(&mut self.strips);
        let len = (1 + nest.scratch) * width;
        if strips.len() < len {
            strips.resize(len, 0.0);
        }
        let (acc, scratch) = strips.split_at_mut(width);
        let mut walks = std::mem::take(&mut self.walks);
        let mut point = vec![0u64; d];
        let mut done = Ok(());
        'rows: loop {
            if self.stop.load(Relaxed) {
                done = stopped();
                break;
            }
            // Every cursor at this row's first lane and first fold trip.
            let row = |c: usize| {
                outer.iter().fold(b.bases[c], |v, &i| {
                    v.wrapping_add(delta(c, i).wrapping_mul(point[i] as i64))
                })
            };
            let xs = (row(x.1), delta(x.1, lane));
            for t0 in (0..b.levels[lane].3).step_by(LANES) {
                let w = (b.levels[lane].3 - t0).min(LANES as u64) as usize;
                let acc = &mut acc[..w];
                walks.clear();
                walks.extend((0..ncur).map(|c| (row(c), delta(c, lane))));
                let start = at(xs, t0);
                let from = match &nest.init {
                    Some(e) => self.operand(e, &walks, t0, w, mem, scratch).0,
                    None => View { m: &*mem[x.0], start, delta: xs.1 },
                };
                match from.run(w) {
                    Some(v) => acc.copy_from_slice(v),
                    None => acc.iter_mut().enumerate().for_each(|(l, a)| *a = from.at(l)),
                }
                let n = b.levels[fold].3;
                self.fold_strip(nest, acc, &mut walks, &steps, t0, n, mem, scratch);
                let m = &mut *mem[x.0];
                match xs.1 {
                    1 => m[start as usize..][..w].copy_from_slice(acc),
                    _ => acc.iter().enumerate().for_each(|(l, a)| m[at(xs, t0 + l as u64) as usize] = *a),
                }
            }
            // The next point of the outer loops, innermost first.
            for &i in outer.iter().rev() {
                point[i] += 1;
                if point[i] < b.levels[i].3 {
                    continue 'rows;
                }
                point[i] = 0;
            }
            break;
        }
        self.strips = strips;
        self.walks = walks;
        done?;
        // Every variable of the nest holds its last trip's value.
        for &(var, first, step, n) in &b.levels {
            self.ints[var] = at((first, step), n - 1);
        }
        #[cfg(test)]
        NESTED.set(NESTED.get() + 1);
        Ok(())
    }

    /// The fold's `n` trips over a chunk of lanes, in trip order: the
    /// term at every lane — read where it lives, or computed into
    /// scratch one lane-wise loop per operator — then `acc[l] = acc[l] ⊕
    /// term[l]`. A sum of products of leaves over contiguous or
    /// one-element lanes (MM's `+ A(I,K)·B(K,J)`, any dot product) takes
    /// one pass instead, each view moving by its step. `walks` holds
    /// every cursor at the first trip and `steps` what a trip adds.
    #[allow(clippy::too_many_arguments)]
    fn fold_strip(
        &self,
        nest: &Nest,
        acc: &mut [f64],
        walks: &mut [Walk],
        steps: &[i64],
        t0: u64,
        n: u64,
        mem: &[&mut [Elem]],
        scratch: &mut [f64],
    ) {
        let w = acc.len();
        if let (RBin::Add, SExpr::Bin(g, a, b)) = (nest.op, &nest.term) {
            let step = |e: &SExpr| match e {
                SExpr::Load { cursor, .. } => Some(steps[*cursor]),
                SExpr::Const(_) | SExpr::Scalar(_) => Some(0),
                SExpr::FromInt(_) | SExpr::Un(..) | SExpr::Bin(..) => None,
            };
            if let (Some(da), Some(db)) = (step(a), step(b)) {
                let (x, rest) = self.operand(a, walks, t0, w, mem, scratch);
                let (y, _) = self.operand(b, walks, t0, w, mem, rest);
                if matches!((x.delta, y.delta), (1, 0 | 1) | (0, 1)) {
                    return with_rbin!(g, h => sum_lanes(acc, x, y, (da, db), n, h));
                }
            }
        }
        for _ in 0..n {
            let (t, _) = self.operand(&nest.term, walks, t0, w, mem, scratch);
            with_rbin!(nest.op, f => fold_lanes(acc, t, f));
            for (walk, s) in walks.iter_mut().zip(steps) {
                walk.0 = walk.0.wrapping_add(*s);
            }
        }
    }

    /// `acc` folded with `op` over trips `0 .. n` of `term`, a strip at
    /// a time. A term `a ⊗ b` is applied inside the fold, trip by trip,
    /// to its operands where they live: no buffer holds its values.
    fn fold(
        &self,
        op: RBin,
        term: &SExpr,
        mut acc: f64,
        walks: &[Walk],
        n: u64,
        mem: &[&mut [Elem]],
        scratch: &mut [f64],
    ) -> f64 {
        for t0 in (0..n).step_by(STRIP) {
            let w = (n - t0).min(STRIP as u64) as usize;
            acc = match term {
                SExpr::Bin(g, a, b) => {
                    let (a, rest) = self.operand(a, walks, t0, w, mem, scratch);
                    let (b, _) = self.operand(b, walks, t0, w, mem, rest);
                    with_rbin!(op, f => with_rbin!(g, h =>
                        (0..w).fold(acc, |acc, l| f(acc, h(a.at(l), b.at(l))))))
                }
                _ => {
                    let (x, _) = self.operand(term, walks, t0, w, mem, scratch);
                    with_rbin!(op, f => (0..w).fold(acc, |acc, l| f(acc, x.at(l))))
                }
            };
        }
        acc
    }

    /// Lanes `t0 .. t0 + w` of a strip operand: a leaf where it lives,
    /// any other subtree computed into the first strip of `scratch`.
    /// Returns the rest of `scratch` with it.
    fn operand<'a>(
        &'a self,
        e: &'a SExpr,
        walks: &[Walk],
        t0: u64,
        w: usize,
        mem: &'a [&mut [Elem]],
        scratch: &'a mut [f64],
    ) -> (View<'a>, &'a mut [f64]) {
        match e {
            SExpr::Const(v) => (View::one(v), scratch),
            SExpr::Scalar(slot) => (View::one(&self.reals[*slot]), scratch),
            SExpr::Load { array, cursor } => {
                let (m, delta) = (&*mem[*array], walks[*cursor].1);
                let start = at(walks[*cursor], t0);
                (View { m, start, delta }, scratch)
            }
            SExpr::FromInt(_) | SExpr::Un(..) | SExpr::Bin(..) => {
                let (buf, rest) = scratch.split_at_mut(w);
                self.strip(e, walks, t0, mem, &mut buf[..w], rest);
                let view = View {
                    m: buf,
                    start: 0,
                    delta: 1,
                };
                (view, rest)
            }
        }
    }

    /// A computed subtree over the `out.len()` trips from `t0`, one lane
    /// each; its computed operands take their buffers from `scratch`.
    fn strip(
        &self,
        e: &SExpr,
        walks: &[Walk],
        t0: u64,
        mem: &[&mut [Elem]],
        out: &mut [f64],
        scratch: &mut [f64],
    ) {
        let w = out.len();
        match e {
            SExpr::FromInt(cursor) => {
                for (lane, o) in out.iter_mut().enumerate() {
                    *o = at(walks[*cursor], t0 + lane as u64) as f64;
                }
            }
            SExpr::Un(op, a) => {
                let (a, _) = self.operand(a, walks, t0, w, mem, scratch);
                with_run!(op, f => map_lanes(out, a, f));
            }
            SExpr::Bin(op, a, b) => {
                let (a, rest) = self.operand(a, walks, t0, w, mem, scratch);
                let (b, _) = self.operand(b, walks, t0, w, mem, rest);
                with_rbin!(op, f => zip_lanes(out, a, b, f));
            }
            SExpr::Const(_) | SExpr::Scalar(_) | SExpr::Load { .. } => {
                unreachable!("a leaf is read where it lives, never hoisted")
            }
        }
    }

    /// The residual of one statement at trip `t`. Strips start at
    /// multiples of `STRIP`, so `bufs[i * STRIP + t % STRIP]` is this
    /// trip's lane of hoisted subtree `i`.
    fn trip(&self, e: &TExpr, walks: &[Walk], t: u64, bufs: &[f64], mem: &[&mut [Elem]]) -> f64 {
        match e {
            TExpr::Strip(i) => bufs[i * STRIP + t as usize % STRIP],
            TExpr::Const(v) => *v,
            TExpr::Scalar(slot) => self.reals[*slot],
            TExpr::Load { array, cursor } => mem[*array][at(walks[*cursor], t) as usize],
            TExpr::Un(op, a) => {
                let a = self.trip(a, walks, t, bufs, mem);
                with_run!(op, f => f(a))
            }
            TExpr::Bin(op, a, b) => {
                let (a, b) = (
                    self.trip(a, walks, t, bufs, mem),
                    self.trip(b, walks, t, bufs, mem),
                );
                with_rbin!(op, f => f(a, b))
            }
        }
    }

    fn exec(&mut self, stmts: &[Stmt], mem: &mut [&mut [Elem]]) -> Eval<()> {
        for s in stmts {
            match s {
                Stmt::StoreArray {
                    array,
                    index,
                    value,
                } => {
                    let idx = self.index(index, mem)?;
                    let v = self.real(value, mem)?;
                    let m = &mut *mem[*array];
                    match m.get_mut(idx as usize) {
                        Some(elem) => *elem = v,
                        None => return Err(self.out_of_bounds("store", *array, idx, m.len())),
                    }
                }
                Stmt::StoreInt { slot, value } => self.ints[*slot] = self.int(value, mem)?,
                Stmt::StoreReal { slot, value } => self.reals[*slot] = self.real(value, mem)?,
                Stmt::Loop {
                    lo, hi, step, body, ..
                } => {
                    let lo = self.int(lo, mem)?;
                    let hi = self.int(hi, mem)?;
                    self.run_trips(body, lo, *step, trips(lo, hi, *step), mem)?;
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    if self.int(cond, mem)? != 0 {
                        self.run(then_body, mem)?;
                    } else {
                        self.run(else_body, mem)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// The error of an array access out of range.
    #[cold]
    #[inline(never)]
    fn out_of_bounds(&self, op: &'static str, array: usize, at: i64, len: usize) -> Box<VpceError> {
        let array = self.arrays[array].0.clone();
        Box::new(VpceError::SubscriptRange { access: op, array, index: at, len })
    }

    /// `Analytic`: cycle cost of executing `block` once, evaluating
    /// loop bounds through the current scalar state but skipping all
    /// numeric work — no bound reads memory ([`check_priceable`]).
    /// Conditionals are priced as condition + the dearer branch (a
    /// documented approximation; the evaluated benchmarks have no
    /// data-dependent branches in hot regions).
    pub(crate) fn price(&mut self, block: &Block) -> Eval<f64> {
        let mut total = block.cost;
        for s in &block.stmts {
            match s {
                Stmt::StoreArray { .. } | Stmt::StoreInt { .. } | Stmt::StoreReal { .. } => {}
                Stmt::Loop {
                    lo, hi, step, body, ..
                } => {
                    let lo = self.int(lo, &[])?;
                    let hi = self.int(hi, &[])?;
                    total += self.price_trips(body, lo, *step, trips(lo, hi, *step))?;
                }
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    let t = self.price(then_body)?;
                    let e = self.price(else_body)?;
                    total += t.max(e);
                }
            }
        }
        Ok(total)
    }

    /// `Analytic`: cost of `n` trips of a loop. When nothing inside is
    /// shaped by the loop variable, one trip prices them all.
    pub(crate) fn price_trips(&mut self, l: &LoopBody, first: i64, step: i64, n: u64) -> Eval<f64> {
        if n == 0 {
            return Ok(0.0);
        }
        if !l.shape_reads_var {
            self.store_int(l.var, first);
            return Ok((self.price(&l.block)? + TRIP_CYCLES) * n as f64);
        }
        let mut total = 0.0;
        let mut v = first;
        for _ in 0..n {
            self.store_int(l.var, v);
            total += self.price(&l.block)? + TRIP_CYCLES;
            v = v.wrapping_add(step);
        }
        Ok(total)
    }

    /// A subscript. Nearly always one affine node: evaluating it here,
    /// not through a call into [`Self::int`], is a third of MM's time.
    #[inline(always)]
    fn index(&self, e: &IExpr, mem: &[&mut [Elem]]) -> Eval<i64> {
        match e {
            IExpr::Affine(a) => Ok(a.value(&self.ints)),
            e => self.int(e, mem),
        }
    }

    fn int(&self, e: &IExpr, mem: &[&mut [Elem]]) -> Eval<i64> {
        Ok(match e {
            IExpr::Affine(a) => a.value(&self.ints),
            IExpr::Un(op, a) => {
                let a = self.int(a, mem)?;
                match op {
                    IUn::Neg => a.wrapping_neg(),
                    IUn::Abs => a.wrapping_abs(),
                    IUn::Not => (a == 0) as i64,
                }
            }
            IExpr::Bin(op, a, b) => {
                let (a, b) = (self.int(a, mem)?, self.int(b, mem)?);
                match op {
                    IBin::Add => a.wrapping_add(b),
                    IBin::Sub => a.wrapping_sub(b),
                    IBin::Mul => a.wrapping_mul(b),
                    IBin::Div | IBin::Mod if b == 0 => return division_by_zero(),
                    IBin::Div => a.wrapping_div(b),
                    IBin::Mod => a.wrapping_rem(b),
                    IBin::Pow => ipow(a, b)?,
                    IBin::Min => a.min(b),
                    IBin::Max => a.max(b),
                    IBin::And => (a != 0 && b != 0) as i64,
                    IBin::Or => (a != 0 || b != 0) as i64,
                }
            }
            IExpr::Cmp(op, a, b) => {
                let (a, b) = (self.real(a, mem)?, self.real(b, mem)?);
                (match op {
                    Cmp::Lt => a < b,
                    Cmp::Le => a <= b,
                    Cmp::Gt => a > b,
                    Cmp::Ge => a >= b,
                    Cmp::Eq => a == b,
                    Cmp::Ne => a != b,
                }) as i64
            }
            IExpr::Exact(a) => exact_int(self.real(a, mem)?)?,
            IExpr::Trunc(a) => self.real(a, mem)? as i64,
        })
    }

    fn real(&self, e: &RExpr, mem: &[&mut [Elem]]) -> Eval<f64> {
        Ok(match e {
            RExpr::Const(v) => *v,
            RExpr::Scalar(slot) => self.reals[*slot],
            RExpr::Load { array, index } => {
                let idx = self.index(index, mem)?;
                let m = &*mem[*array];
                match m.get(idx as usize) {
                    Some(v) => *v,
                    None => return Err(self.out_of_bounds("load", *array, idx, m.len())),
                }
            }
            RExpr::Un(op, a) => {
                let a = self.real(a, mem)?;
                with_run!(op, f => f(a))
            }
            RExpr::Bin(op, a, b) => {
                let (a, b) = (self.real(a, mem)?, self.real(b, mem)?);
                with_rbin!(op, f => f(a, b))
            }
            RExpr::FromInt(a) => self.int(a, mem)? as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_sequential, try_execute, ExecMode};
    use crate::ir::{Block as IrBlock, ParRegion, SpmdProgram};
    use cluster_sim::ClusterConfig;
    use vpce_faults::FaultSpec;

    fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }

    /// INTEGER M, REAL X, and array A(4); `body` as the sequential form.
    fn prog(body: Vec<Instr>) -> SpmdProgram {
        SpmdProgram {
            name: "T".into(),
            nprocs: 1,
            arrays: vec![("A".into(), 4)],
            scalars: vec![("M".into(), true), ("X".into(), false), ("K".into(), true)],
            blocks: Vec::new(),
            sequential: body.into(),
        }
    }

    /// `M = e`, executed: the value, or the typed error it ended in.
    fn int_value(e: Expr) -> Result<i64, VpceError> {
        let p = prog(vec![Instr::StoreScalar { slot: 0, value: e }]);
        let (_, _, scalars) = run_sequential(&p, ExecMode::Full)?;
        Ok(scalars[0].as_int()?)
    }

    #[test]
    fn integer_edge_cases_wrap_or_raise_typed() {
        const MIN: i64 = i64::MIN;
        let c = Expr::IConst;
        let intr = |op, a, b| Expr::Intr(op, vec![c(a), c(b)]);
        let div_by_zero = Err(VpceError::TypeViolation {
            msg: "integer division by zero".into(),
        });
        let table = [
            (Expr::Neg(Box::new(c(MIN))), Ok(MIN)),
            (intr(IntrinsicOp::Abs, MIN, 0), Ok(MIN)),
            (bin(BinOp::Div, c(MIN), c(-1)), Ok(MIN)),
            (intr(IntrinsicOp::Mod, MIN, -1), Ok(0)),
            (bin(BinOp::Pow, c(MIN), c(2)), Ok(0)),
            (bin(BinOp::Pow, c(3), c(62)), Ok(3i64.wrapping_pow(62))),
            (bin(BinOp::Pow, c(0), c(0)), Ok(1)),
            (bin(BinOp::Pow, c(2), c(-1)), Ok(0)),
            (bin(BinOp::Pow, c(MIN), c(-1)), Ok(0)),
            (bin(BinOp::Pow, c(-1), c(-1)), Ok(-1)),
            (bin(BinOp::Pow, c(-1), c(MIN)), Ok(1)),
            (bin(BinOp::Pow, c(0), c(-1)), div_by_zero.clone()),
            (intr(IntrinsicOp::Mod, MIN, 0), div_by_zero.clone()),
            (intr(IntrinsicOp::Mod, -1, 0), div_by_zero.clone()),
            (intr(IntrinsicOp::Mod, 0, 0), div_by_zero.clone()),
            (bin(BinOp::Div, c(MIN), c(0)), div_by_zero.clone()),
            (bin(BinOp::Div, c(-1), c(0)), div_by_zero.clone()),
            (bin(BinOp::Div, c(0), c(0)), div_by_zero),
        ];
        for (e, want) in table {
            assert_eq!(int_value(e.clone()), want, "{e:?}");
        }
    }

    #[test]
    fn loop_counter_wraps_past_the_last_trip_without_running_it() {
        // Counting in INTEGER M is the per-trip walk; counting in REAL
        // X is a stream.
        let count = |slot, lo, hi, step| {
            let p = prog(vec![Instr::Loop {
                var: 2,
                lo: Expr::IConst(lo),
                hi: Expr::IConst(hi),
                step,
                body: vec![Instr::StoreScalar {
                    slot,
                    value: bin(BinOp::Add, Expr::Scalar(slot), Expr::IConst(1)),
                }],
            }]);
            let before = STREAMED.get();
            let (_, _, scalars) = run_sequential(&p, ExecMode::Full).unwrap();
            let trips = scalars[slot].as_real() as i64;
            assert_eq!(STREAMED.get() - before, (slot == 1 && trips > 0) as u64);
            (trips, scalars[2].as_int().unwrap())
        };
        for slot in [0, 1] {
            assert_eq!(count(slot, i64::MAX - 1, i64::MAX, 1), (2, i64::MAX));
            assert_eq!(count(slot, i64::MIN + 1, i64::MIN, -1), (2, i64::MIN));
            assert_eq!(count(slot, i64::MIN, i64::MAX, i64::MAX), (3, i64::MAX - 1));
            assert_eq!(count(slot, 1, 0, 1), (0, 0));
            assert_eq!(count(slot, 1, 5, 0), (0, 0));
        }
    }

    #[test]
    fn a_stream_loop_names_the_first_access_out_of_range() {
        // DO K = lo, hi: A(K) = A(K + shift), or = 1.0, on A(4). The
        // stream cannot prove its cursors in range, so the walk runs
        // and ends in a typed error that names the array.
        let message = |lo, hi, step, shift: Option<i64>| {
            let p = prog(vec![Instr::Loop {
                var: 2,
                lo: Expr::IConst(lo),
                hi: Expr::IConst(hi),
                step,
                body: vec![Instr::StoreArray {
                    array: 0,
                    index: Expr::Scalar(2),
                    value: shift.map_or(Expr::RConst(1.0), |shift| Expr::Load {
                        array: 0,
                        index: Box::new(bin(BinOp::Add, Expr::Scalar(2), Expr::IConst(shift))),
                    }),
                }],
            }]);
            let before = STREAMED.get();
            let err = run_sequential(&p, ExecMode::Full).unwrap_err();
            assert_eq!(STREAMED.get(), before);
            assert_eq!(err.kind(), "subscript-range");
            err.to_string()
        };
        let oob = |what, idx| format!("{what} out of bounds: array A index {idx} len 4");
        assert_eq!(message(0, 4, 1, None), oob("store", 4));
        assert_eq!(message(3, -1, -1, None), oob("store", -1));
        assert_eq!(message(0, 4, 1, Some(0)), oob("load", 4));
        assert_eq!(message(0, 3, 1, Some(1)), oob("load", 4));
        assert_eq!(message(0, 3, 1, Some(-1)), oob("load", -1));
        assert_eq!(message(2, 2, 1, Some(i64::MAX)), oob("load", i64::MIN + 1));
    }

    #[test]
    fn a_stream_that_hoists_nothing_runs_first() {
        // A(0) = 2.0, then DO K = 1, 3: A(K) = A(K - 1) — every read is
        // of what the body stores, so no strip is computed. As the first
        // stream of a fresh state it used to index an empty strip
        // buffer at its second trip (exit 101).
        let a = |index| Expr::Load {
            array: 0,
            index: Box::new(index),
        };
        let p = prog(vec![
            Instr::StoreArray {
                array: 0,
                index: Expr::IConst(0),
                value: Expr::RConst(2.0),
            },
            Instr::Loop {
                var: 2,
                lo: Expr::IConst(1),
                hi: Expr::IConst(3),
                step: 1,
                body: vec![Instr::StoreArray {
                    array: 0,
                    index: Expr::Scalar(2),
                    value: a(bin(BinOp::Sub, Expr::Scalar(2), Expr::IConst(1))),
                }],
            },
        ]);
        let before = STREAMED.get();
        let (_, arrays, _) = run_sequential(&p, ExecMode::Full).unwrap();
        assert_eq!(STREAMED.get() - before, 1);
        assert_eq!(arrays[0], [2.0; 4]);
    }

    #[test]
    fn every_entry_of_mm_inner_loop_folds_its_product_in_place() {
        // MM as the front end emits it, subscripts `(R-1) + (C-1)·N`:
        // A(I,J) = REAL(I+J) / REAL(N), B(I,J) = REAL(I-J) / REAL(N),
        // then C(I,J) = 0.0 and DO K: C(I,J) = C(I,J) + A(I,K) * B(K,J).
        // N = 70 spans a strip and a bit.
        const N: i64 = 70;
        let (i, j, k) = (Expr::Scalar(0), Expr::Scalar(1), Expr::Scalar(2));
        let minus_one = |e: &Expr| bin(BinOp::Sub, e.clone(), Expr::IConst(1));
        let at = |array, r: &Expr, c: &Expr| {
            let index = bin(
                BinOp::Add,
                minus_one(r),
                bin(BinOp::Mul, minus_one(c), Expr::IConst(N)),
            );
            (array, index)
        };
        let store = |(array, index), value| Instr::StoreArray {
            array,
            index,
            value,
        };
        let load = |(array, index)| Expr::Load {
            array,
            index: Box::new(index),
        };
        let real = |e| Expr::Intr(IntrinsicOp::ToReal, vec![e]);
        let over = |var, body| Instr::Loop {
            var,
            lo: Expr::IConst(1),
            hi: Expr::IConst(N),
            step: 1,
            body,
        };
        let ratio = |op| {
            let sum = bin(op, i.clone(), j.clone());
            bin(BinOp::Div, real(sum), real(Expr::IConst(N)))
        };
        let fill = vec![
            store(at(0, &i, &j), ratio(BinOp::Add)),
            store(at(1, &i, &j), ratio(BinOp::Sub)),
        ];
        let product = bin(BinOp::Mul, load(at(0, &i, &k)), load(at(1, &k, &j)));
        let dot = store(at(2, &i, &j), bin(BinOp::Add, load(at(2, &i, &j)), product));
        let mm = vec![store(at(2, &i, &j), Expr::RConst(0.0)), over(2, vec![dot])];
        let p = SpmdProgram {
            name: "MM".into(),
            nprocs: 1,
            arrays: ["A", "B", "C"]
                .map(|a| (a.to_string(), (N * N) as usize))
                .to_vec(),
            scalars: ["I", "J", "K"].map(|s| (s.to_string(), true)).to_vec(),
            blocks: Vec::new(),
            sequential: vec![over(0, vec![over(1, fill)]), over(0, vec![over(1, mm)])].into(),
        };
        let (streamed, fused, nested) = (STREAMED.get(), FUSED.get(), NESTED.get());
        let (_, arrays, _) = run_sequential(&p, ExecMode::Full).unwrap();
        let n = N as u64;
        // The fill's inner loop streams once per I; the product nest
        // runs once, in lanes, so no (I, J) entry folds on its own.
        assert_eq!(NESTED.get() - nested, 1);
        assert_eq!(FUSED.get() - fused, 0);
        assert_eq!(STREAMED.get() - streamed, n);

        let (a, b) = (
            |i: i64, j: i64| (i + j) as f64 / N as f64,
            |i: i64, j: i64| (i - j) as f64 / N as f64,
        );
        for i in 1..=N {
            for j in 1..=N {
                let want = (1..=N).fold(0.0, |s, k| s + a(i, k) * b(k, j));
                let got = arrays[2][((i - 1) + (j - 1) * N) as usize];
                assert_eq!(got.to_bits(), want.to_bits(), "C({i},{j})");
            }
        }
    }

    #[test]
    fn stores_convert_to_the_declared_type() {
        // INTEGER M = 7.9 truncates; REAL X = 1 converts, so X / 2 is a
        // REAL division.
        let p = prog(vec![
            Instr::StoreScalar {
                slot: 0,
                value: Expr::RConst(-7.9),
            },
            Instr::StoreScalar {
                slot: 1,
                value: Expr::IConst(1),
            },
            Instr::StoreScalar {
                slot: 1,
                value: bin(BinOp::Div, Expr::Scalar(1), Expr::IConst(2)),
            },
        ]);
        let (_, _, scalars) = run_sequential(&p, ExecMode::Full).unwrap();
        assert_eq!(scalars[..2], [Value::I(-7), Value::R(0.5)]);
    }

    #[test]
    fn subscripts_fold_to_one_affine_node() {
        // (M - 1) + (K - 1) * 4, as `polaris_be::translate::linearize`
        // emits it, and -(M - K) * 3 + M.
        let (m, k) = (Expr::Scalar(0), Expr::Scalar(2));
        let linear = bin(
            BinOp::Add,
            bin(BinOp::Sub, m.clone(), Expr::IConst(1)),
            bin(
                BinOp::Mul,
                bin(BinOp::Sub, k.clone(), Expr::IConst(1)),
                Expr::IConst(4),
            ),
        );
        let scalars = prog(Vec::new()).scalars;
        let index_of = |e: Expr| {
            let block = lower(
                &[Instr::StoreArray {
                    array: 0,
                    index: e,
                    value: Expr::RConst(0.0),
                }],
                &scalars,
            );
            match &block.stmts[0] {
                Stmt::StoreArray { index, .. } => index.clone(),
                other => panic!("{other:?}"),
            }
        };
        assert_eq!(
            index_of(linear),
            IExpr::Affine(Affine {
                c0: -5,
                terms: vec![(1, 0), (4, 2)]
            })
        );
        let cancels = bin(
            BinOp::Add,
            bin(
                BinOp::Mul,
                Expr::Neg(Box::new(bin(BinOp::Sub, m.clone(), k))),
                Expr::IConst(3),
            ),
            bin(BinOp::Mul, m.clone(), Expr::IConst(3)),
        );
        assert_eq!(
            index_of(cancels),
            IExpr::Affine(Affine {
                c0: 0,
                terms: vec![(3, 2)]
            })
        );
        // A product of scalars and a REAL operand do not fold.
        assert!(matches!(
            index_of(bin(BinOp::Mul, m.clone(), m.clone())),
            IExpr::Bin(IBin::Mul, ..)
        ));
        assert!(matches!(
            index_of(bin(BinOp::Add, m, Expr::Scalar(1))),
            IExpr::Exact(_)
        ));
    }

    #[test]
    fn analytic_refuses_a_loop_bound_that_reads_memory() {
        // DO K = 1, A(M) inside a parallel region.
        let body = vec![Instr::Loop {
            var: 2,
            lo: Expr::IConst(1),
            hi: Expr::Load {
                array: 0,
                index: Box::new(Expr::IConst(0)),
            },
            step: 1,
            body: Vec::new(),
        }];
        let mut p = prog(Vec::new());
        p.blocks = vec![IrBlock::Parallel(ParRegion {
            body: body.into(),
            ..ParRegion::blank(1, 7)
        })];
        let cluster = ClusterConfig::paper_n(1);
        assert!(try_execute(&p, &cluster, ExecMode::Full, FaultSpec::off()).is_ok());
        match try_execute(&p, &cluster, ExecMode::Analytic, FaultSpec::off()) {
            Err(VpceError::InvalidArgument { msg }) => {
                assert!(msg.contains("DO K") && !msg.contains('\n'), "{msg}")
            }
            other => panic!("expected a typed refusal, got {other:?}"),
        }
    }
}
