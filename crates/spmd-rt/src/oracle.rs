//! The retained tree walker — the differential oracle for
//! [`crate::lowered`], compiled for tests only.
//!
//! This is the interpreter the lowered form replaced: it walks the tree
//! IR, prices every executed statement with [`instr_cycles`] as it
//! goes, and carries a [`Value`] tag through every node. Against the
//! parent commit's walker it differs only where the specification
//! moved: stores convert to the slot's declared type, `MOD` by zero and
//! `0 ** negative` fail, INTEGER `**` stays INTEGER, the remaining
//! INTEGER operators wrap, and an access out of range is a typed error
//! that names the array. `tests/differential_proptest.rs` and
//! `tests/workload_differential.rs` compare the executor with itself
//! (parallel vs sequential) and cannot see a slip both sides share;
//! the properties below can.

use mpi2::Elem;
use vpce_faults::VpceError;

use crate::cost::{instr_cycles, TRIP_CYCLES};
use crate::ir::*;
use crate::lowered::division_by_zero;
use crate::value::Value;

/// A relational operator's truth value, `I(1)` or `I(0)`: both
/// operands compare as REALs (Fortran implicit conversion).
pub(crate) fn relational(op: BinOp, x: Value, y: Value) -> Value {
    let (a, b) = (x.as_real(), y.as_real());
    Value::I(match op {
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::Gt => a > b,
        BinOp::Ge => a >= b,
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        _ => unreachable!("{op:?} is not relational"),
    } as i64)
}

pub(crate) struct Oracle {
    /// INTEGER-ness per scalar slot.
    int_scalars: Vec<bool>,
    array_names: Vec<String>,
    pub scalars: Vec<Value>,
    pub cycles: f64,
}

impl Oracle {
    /// All of `prog`'s scalars zero.
    pub(crate) fn new(prog: &SpmdProgram) -> Oracle {
        let int_scalars: Vec<bool> = prog.scalars.iter().map(|t| t.1).collect();
        let scalars = int_scalars
            .iter()
            .map(|&int| if int { Value::I(0) } else { Value::R(0.0) })
            .collect();
        Oracle {
            int_scalars,
            array_names: prog.arrays.iter().map(|a| a.0.clone()).collect(),
            scalars,
            cycles: 0.0,
        }
    }

    /// Element `idx` of `mem[array]`, or the typed error naming both.
    fn check(&self, access: &'static str, array: usize, idx: i64, len: usize) -> Result<usize, VpceError> {
        if (idx as usize) < len {
            return Ok(idx as usize);
        }
        Err(VpceError::SubscriptRange {
            access,
            array: self.array_names[array].clone(),
            index: idx,
            len,
        })
    }

    /// The typed store (F77 assignment conversion).
    fn store(&mut self, slot: usize, v: Value) {
        self.scalars[slot] = match (self.int_scalars[slot], v) {
            (true, Value::R(v)) => Value::I(v as i64),
            (false, Value::I(v)) => Value::R(v as f64),
            (_, v) => v,
        };
    }

    pub(crate) fn run_generic(&mut self, instrs: &[Instr], mem: &mut [Vec<Elem>]) -> Result<(), VpceError> {
        for i in instrs {
            self.cycles += instr_cycles(i, &self.int_scalars);
            match i {
                Instr::StoreArray {
                    array,
                    index,
                    value,
                } => {
                    let idx = self.eval(index, mem)?.as_int()?;
                    let v = self.eval(value, mem)?.as_real();
                    let at = self.check("store", *array, idx, mem[*array].len())?;
                    mem[*array][at] = v;
                }
                Instr::StoreScalar { slot, value } => {
                    let v = self.eval(value, mem)?;
                    self.store(*slot, v);
                }
                Instr::Loop {
                    var,
                    lo,
                    hi,
                    step,
                    body,
                } => {
                    let lo = self.eval(lo, mem)?.as_int()?;
                    let hi = self.eval(hi, mem)?.as_int()?;
                    let step = *step;
                    let mut v = lo;
                    while (step > 0 && v <= hi) || (step < 0 && v >= hi) {
                        self.store(*var, Value::I(v));
                        self.cycles += TRIP_CYCLES;
                        self.run_generic(body, mem)?;
                        v = v.wrapping_add(step);
                    }
                }
                Instr::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    if self.eval(cond, mem)?.is_true() {
                        self.run_generic(then_body, mem)?;
                    } else {
                        self.run_generic(else_body, mem)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn eval(&self, e: &Expr, mem: &[Vec<Elem>]) -> Result<Value, VpceError> {
        Ok(match e {
            Expr::IConst(v) => Value::I(*v),
            Expr::RConst(v) => Value::R(*v),
            Expr::Scalar(slot) => self.scalars[*slot],
            Expr::Load { array, index } => {
                let idx = self.eval(index, mem)?.as_int()?;
                Value::R(mem[*array][self.check("load", *array, idx, mem[*array].len())?])
            }
            Expr::Neg(a) => self.eval(a, mem)?.neg(),
            Expr::Not(a) => self.eval(a, mem)?.not(),
            Expr::Bin(op, a, b) => {
                let x = self.eval(a, mem)?;
                let y = self.eval(b, mem)?;
                match op {
                    BinOp::Add => x.add(y),
                    BinOp::Sub => x.sub(y),
                    BinOp::Mul => x.mul(y),
                    BinOp::Div => x.div(y)?,
                    BinOp::Pow => x.pow(y)?,
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => {
                        relational(*op, x, y)
                    }
                    BinOp::And => x.and(y),
                    BinOp::Or => x.or(y),
                }
            }
            Expr::Intr(op, args) => {
                let a0 = self.eval(&args[0], mem)?;
                match op {
                    IntrinsicOp::Sqrt => Value::R(a0.as_real().sqrt()),
                    IntrinsicOp::Abs => match a0 {
                        Value::I(v) => Value::I(v.wrapping_abs()),
                        Value::R(v) => Value::R(v.abs()),
                    },
                    IntrinsicOp::Sin => Value::R(a0.as_real().sin()),
                    IntrinsicOp::Cos => Value::R(a0.as_real().cos()),
                    IntrinsicOp::Exp => Value::R(a0.as_real().exp()),
                    IntrinsicOp::ToReal => Value::R(a0.as_real()),
                    IntrinsicOp::ToInt => Value::I(a0.as_real().trunc() as i64),
                    IntrinsicOp::Mod => {
                        let a1 = self.eval(&args[1], mem)?;
                        match (a0, a1) {
                            (Value::I(_), Value::I(0)) => division_by_zero()?,
                            (Value::I(x), Value::I(y)) => Value::I(x.wrapping_rem(y)),
                            (x, y) => Value::R(x.as_real() % y.as_real()),
                        }
                    }
                    IntrinsicOp::Min => {
                        let a1 = self.eval(&args[1], mem)?;
                        match (a0, a1) {
                            (Value::I(x), Value::I(y)) => Value::I(x.min(y)),
                            (x, y) => Value::R(x.as_real().min(y.as_real())),
                        }
                    }
                    IntrinsicOp::Max => {
                        let a1 = self.eval(&args[1], mem)?;
                        match (a0, a1) {
                            (Value::I(x), Value::I(y)) => Value::I(x.max(y)),
                            (x, y) => Value::R(x.as_real().max(y.as_real())),
                        }
                    }
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use vpce_testkit::prelude::*;

    use super::*;
    use crate::exec::{run_sequential, ExecMode};
    use crate::lowered::{FUSED, LANES, NESTED, STREAMED, STRIP};

    // Scalar slots of every generated program: three INTEGER loop
    // variables, one INTEGER and two REAL temporaries.
    const SCALARS: [(&str, bool); 6] = [
        ("I", true),
        ("J", true),
        ("K", true),
        ("M", true),
        ("X", false),
        ("Y", false),
    ];
    const ARRAY_LEN: usize = 9;
    /// Most trips a generated stream loop runs: two strips and a bit.
    const LONG_TRIPS: u64 = 2 * STRIP as u64 + 3;
    /// Length of C, which the stream loops subscript: room for
    /// `LONG_TRIPS` trips at their widest stride, `2 · 3`.
    const LONG_LEN: usize = 6 * LONG_TRIPS as usize;

    fn program(body: Vec<Instr>) -> SpmdProgram {
        // A holds halves (a loaded subscript is fractional half the
        // time), B holds integers (a loaded subscript converts), C
        // quarters, D negative halves (for `**`: see `stream_loop`).
        let fill = |array, len: usize, scale| Instr::Loop {
            var: 0,
            lo: Expr::IConst(0),
            hi: Expr::IConst(len as i64 - 1),
            step: 1,
            body: vec![Instr::StoreArray {
                array,
                index: Expr::Scalar(0),
                value: bin(BinOp::Mul, Expr::Scalar(0), Expr::RConst(scale)),
            }],
        };
        let mut sequential = vec![
            fill(0, ARRAY_LEN, 0.5),
            fill(1, ARRAY_LEN, 1.0),
            fill(2, LONG_LEN, 0.25),
            fill(3, ARRAY_LEN, -0.5),
        ];
        sequential.extend(body);
        SpmdProgram {
            name: "ORACLE".into(),
            nprocs: 1,
            arrays: vec![
                ("A".into(), ARRAY_LEN),
                ("B".into(), ARRAY_LEN),
                ("C".into(), LONG_LEN),
                ("D".into(), ARRAY_LEN),
            ],
            scalars: SCALARS.iter().map(|(n, i)| (n.to_string(), *i)).collect(),
            blocks: Vec::new(),
            sequential: sequential.into(),
        }
    }

    fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        let a = if op == BinOp::Pow { no_nan(a) } else { a };
        Expr::Bin(op, Box::new(a), Box::new(b))
    }

    const BIN_OPS: [BinOp; 13] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Pow,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::And,
        BinOp::Or,
    ];
    const INTRINSICS: [IntrinsicOp; 10] = [
        IntrinsicOp::Sqrt,
        IntrinsicOp::Abs,
        IntrinsicOp::Mod,
        IntrinsicOp::Min,
        IntrinsicOp::Max,
        IntrinsicOp::Sin,
        IntrinsicOp::Cos,
        IntrinsicOp::Exp,
        IntrinsicOp::ToReal,
        IntrinsicOp::ToInt,
    ];
    const EDGE_INTS: [i64; 6] = [i64::MIN, i64::MAX, -1, 0, 1, 62];

    fn pick<T: Copy>(src: &mut Source, items: &[T]) -> T {
        items[src.next_below(items.len() as u64) as usize]
    }

    // Which operand's NaN `a + b` returns when both are NaN is left to
    // the compiler, which may swap a commutative operator's operands;
    // two correct evaluations of one program can differ there. So the
    // programs hold one NaN: the one the hardware makes from non-NaN
    // operands (`0/0`, `SQRT(-1.0)`, `inf - inf`; the libm functions
    // return it too). Only `NEG`, `ABS` and `**` on a NaN make another
    // — `**` flips its sign at an odd exponent — so those take NaN-free
    // operands, but for `X = X ** t` into D, which nothing else reads.
    // Two NaNs that meet are then the same bits, and arrays and scalars
    // compare bit for bit, NaNs included.

    /// A REAL operand on which `MIN` / `MAX` order, and every operator's
    /// propagation, are easiest to get wrong.
    fn special(src: &mut Source) -> f64 {
        let nan = std::hint::black_box(0.0f64) / 0.0;
        pick(src, &[nan, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY])
    }

    /// `e` where it cannot be NaN, else `MAX(e, -inf)`: `e` but for a
    /// NaN, which becomes -inf.
    fn no_nan(e: Expr) -> Expr {
        match e {
            Expr::IConst(_) => e,
            Expr::RConst(v) if !v.is_nan() => e,
            Expr::Scalar(slot) if SCALARS[slot].1 => e,
            _ => Expr::Intr(IntrinsicOp::Max, vec![e, Expr::RConst(f64::NEG_INFINITY)]),
        }
    }

    fn intrinsic(op: IntrinsicOp, a: Expr, b: Expr) -> Expr {
        let a = if op == IntrinsicOp::Abs { no_nan(a) } else { a };
        Expr::Intr(op, vec![a, b])
    }

    /// Index of `**` among the REAL operators of [`real_op`].
    const POW: u64 = 4;

    /// `a ⊕ b` for REAL operator `i` of the eight (`RBin`): `+ - * /
    /// **`, then `MOD`, `MIN`, `MAX`.
    fn real_op(i: u64, a: Expr, b: Expr) -> Expr {
        match i {
            0..=POW => bin(BIN_OPS[i as usize], a, b),
            _ => intrinsic(INTRINSICS[i as usize - 3], a, b),
        }
    }

    /// Two stream loops that write a [`special`] into every few
    /// elements of C, and one REAL scalar set to another.
    fn specials(src: &mut Source) -> Vec<Instr> {
        let mut out: Vec<Instr> = (0..2)
            .map(|_| {
                let step = 5 + src.next_below(19) as i64;
                Instr::Loop {
                    var: 0,
                    lo: Expr::IConst(src.next_below(step as u64) as i64),
                    hi: Expr::IConst(LONG_LEN as i64 - 1),
                    step,
                    body: vec![Instr::StoreArray {
                        array: 2,
                        index: Expr::Scalar(0),
                        value: Expr::RConst(special(src)),
                    }],
                }
            })
            .collect();
        out.push(Instr::StoreScalar {
            slot: 4 + src.next_below(2) as usize,
            value: Expr::RConst(special(src)),
        });
        out
    }

    /// An in-range subscript that folds to one affine node.
    fn affine_index(src: &mut Source) -> Expr {
        // MAX(0, MIN(2*v + 1, len-1)): the inner part folds, the clamp
        // keeps it in range whatever `v` holds.
        let v = Expr::Scalar(src.next_below(4) as usize);
        let inner = bin(
            BinOp::Add,
            bin(BinOp::Mul, v, Expr::IConst(2)),
            Expr::IConst(1),
        );
        Expr::Intr(
            IntrinsicOp::Max,
            vec![
                Expr::IConst(0),
                Expr::Intr(
                    IntrinsicOp::Min,
                    vec![inner, Expr::IConst(ARRAY_LEN as i64 - 1)],
                ),
            ],
        )
    }

    fn expr(src: &mut Source, depth: u32) -> Expr {
        let leaf = depth == 0 || src.next_below(3) == 0;
        if leaf {
            return match src.next_below(8) {
                0 | 1 => Expr::IConst(src.next_below(9) as i64 - 3),
                2 => Expr::IConst(pick(src, &EDGE_INTS)),
                // Quarters: fractional half the time.
                3 => Expr::RConst((src.next_below(33) as f64 - 16.0) / 4.0),
                _ => Expr::Scalar(src.next_below(SCALARS.len() as u64) as usize),
            };
        }
        match src.next_below(10) {
            0 => Expr::Neg(Box::new(no_nan(expr(src, depth - 1)))),
            1 => Expr::Not(Box::new(expr(src, depth - 1))),
            2 => Expr::Load {
                array: src.next_below(2) as usize,
                index: Box::new(affine_index(src)),
            },
            // Subscripts that do not fold (products of scalars, loaded
            // indices) and may be out of range or fractional.
            3 => Expr::Load {
                array: src.next_below(2) as usize,
                index: Box::new(expr(src, depth - 1)),
            },
            4 | 5 => intrinsic(
                pick(src, &INTRINSICS),
                expr(src, depth - 1),
                expr(src, depth - 1),
            ),
            _ => bin(
                pick(src, &BIN_OPS),
                expr(src, depth - 1),
                expr(src, depth - 1),
            ),
        }
    }

    /// A loop bound: any expression, clamped to `-2..=6` so every loop
    /// is short whatever it computes.
    fn bound(src: &mut Source) -> Expr {
        Expr::Intr(
            IntrinsicOp::Max,
            vec![
                Expr::IConst(-2),
                Expr::Intr(IntrinsicOp::Min, vec![expr(src, 1), Expr::IConst(6)]),
            ],
        )
    }

    /// A loop the lowered form runs as a stream: 1–3 stores whose
    /// subscripts are bare affine nodes — in range, or one element
    /// outside at either end — over 0 to `LONG_TRIPS` trips.
    fn stream_loop(src: &mut Source) -> Instr {
        let var = src.next_below(3) as usize;
        let step = pick(src, &[-2, -1, 1, 2, 3]);
        let n = match src.next_below(3) {
            0 => src.next_below(4),
            1 => STRIP as u64 - 2 + src.next_below(5),
            _ => src.next_below(LONG_TRIPS + 1),
        } as i64;
        let lo = src.next_below(7) as i64 - 3;
        let hi = lo + step * (n - 1);

        // `k·var + b·other + c` into an array of `len` elements; `c`
        // puts the lowest index of the `n` trips at -1 ..= slack + 1,
        // so both ends are sometimes one element out. `other` holds
        // whatever the program left there.
        let subscript = |src: &mut Source, len: usize, k: i64| {
            let (first, last) = (k * lo, k * hi);
            let slack = (len as i64 - 1 - (last - first).abs()).max(0) as u64;
            let c = src.next_below(slack + 3) as i64 - 1 - first.min(last);
            let other = (var + 1 + src.next_below(3) as usize) % 4;
            let b = pick(src, &[0, 0, 0, 1, -1]);
            let term = |k, slot| bin(BinOp::Mul, Expr::IConst(k), Expr::Scalar(slot));
            bin(
                BinOp::Add,
                bin(BinOp::Add, term(k, var), term(b, other)),
                Expr::IConst(c),
            )
        };
        // Mostly C at a coefficient of -2..=2 on the loop variable;
        // sometimes an invariant element of A or B.
        let element = |src: &mut Source| match src.next_below(4) {
            0 => (src.next_below(2) as usize, subscript(src, ARRAY_LEN, 0)),
            _ => {
                let k = src.next_below(5) as i64 - 2;
                (2, subscript(src, LONG_LEN, k))
            }
        };
        fn value(
            src: &mut Source,
            depth: u32,
            element: &impl Fn(&mut Source) -> (usize, Expr),
        ) -> Expr {
            if depth == 0 || src.next_below(3) == 0 {
                return match src.next_below(6) {
                    0 => Expr::RConst((src.next_below(33) as f64 - 16.0) / 4.0),
                    1 => Expr::RConst(special(src)),
                    2 => Expr::Scalar(4 + src.next_below(2) as usize),
                    3 => Expr::Intr(IntrinsicOp::ToReal, vec![element(src).1]),
                    _ => {
                        let (array, index) = element(src);
                        Expr::Load {
                            array,
                            index: Box::new(index),
                        }
                    }
                };
            }
            let (a, b) = (
                value(src, depth - 1, element),
                value(src, depth - 1, element),
            );
            match src.next_below(4) {
                0 => Expr::Neg(Box::new(no_nan(a))),
                1 => intrinsic(pick(src, &INTRINSICS[..8]), a, b),
                _ => real_op(src.next_below(8), a, b),
            }
        }
        // X[c] = X[c] ⊕ t, `c` invariant: alone in the body (and `t`
        // not reading X), the fold. X is an element of C, or of A or B
        // so that `t` may read C at any stride; for `**`, of D. Sometimes
        // X[d] ⊕ t, with `d` invariant too, which is not one.
        let fold = |src: &mut Source, t: Expr| {
            let op = src.next_below(8);
            let (array, len) = match src.next_below(2) {
                _ if op == POW => (3, ARRAY_LEN),
                0 => (2, LONG_LEN),
                _ => (src.next_below(2) as usize, ARRAY_LEN),
            };
            let index = subscript(src, len, 0);
            let x = Expr::Load {
                array,
                index: Box::new(match src.next_below(4) {
                    0 => subscript(src, len, 0),
                    _ => index.clone(),
                }),
            };
            let value = match op {
                // D may hold a NaN of either sign: no `bin`, which
                // would clear it.
                POW => Expr::Bin(BinOp::Pow, Box::new(x), Box::new(t)),
                _ => real_op(op, x, t),
            };
            Instr::StoreArray {
                array,
                index,
                value,
            }
        };

        let body = match src.next_below(6) {
            // X[c] = X[c] ⊕ (a ⊗ b) over two leaves — views of C at a
            // negative, zero or positive stride, constants, scalars, a
            // `REAL()` — with ⊕ and ⊗ any REAL operator: the fold that
            // applies ⊗ trip by trip.
            0 => {
                let (a, b) = (value(src, 0, &element), value(src, 0, &element));
                let t = real_op(src.next_below(8), a, b);
                vec![fold(src, t)]
            }
            _ => (0..1 + src.next_below(3))
                .map(|_| {
                    let t = value(src, 2, &element);
                    match src.next_below(4) {
                        // Y = Y ⊕ t: a REAL slot the body stores and
                        // reads.
                        0 => {
                            let slot = 4 + src.next_below(2) as usize;
                            Instr::StoreScalar {
                                slot,
                                value: real_op(src.next_below(8), Expr::Scalar(slot), t),
                            }
                        }
                        1 => fold(src, t),
                        // `t` loads C at its own subscripts: the array
                        // the body stores, at a shifted one.
                        _ => {
                            let (array, index) = element(src);
                            Instr::StoreArray {
                                array,
                                index,
                                value: t,
                            }
                        }
                    }
                })
                .collect(),
        };
        Instr::Loop {
            var,
            lo: Expr::IConst(lo),
            hi: Expr::IConst(hi),
            step,
            body,
        }
    }

    fn stmts(src: &mut Source, depth: u32, branches: bool) -> Vec<Instr> {
        let n = 1 + src.next_below(3);
        (0..n)
            .map(|_| match src.next_below(if depth == 0 { 7 } else { 10 }) {
                0 | 1 => Instr::StoreArray {
                    array: src.next_below(2) as usize,
                    index: affine_index(src),
                    value: expr(src, 2),
                },
                2 => Instr::StoreArray {
                    array: src.next_below(2) as usize,
                    index: expr(src, 1),
                    value: expr(src, 2),
                },
                // Loop variables are assignable too: the trip sequence
                // is fixed on entry either way.
                3 | 4 => Instr::StoreScalar {
                    slot: src.next_below(SCALARS.len() as u64) as usize,
                    value: expr(src, 2),
                },
                5 | 6 => stream_loop(src),
                7 if branches => Instr::If {
                    cond: expr(src, 2),
                    then_body: stmts(src, depth - 1, branches),
                    else_body: if src.next_below(2) == 0 {
                        Vec::new()
                    } else {
                        stmts(src, depth - 1, branches)
                    },
                },
                _ => Instr::Loop {
                    var: src.next_below(3) as usize,
                    lo: bound(src),
                    hi: bound(src),
                    step: pick(src, &[-2, -1, 1, 1, 2, 3]),
                    body: stmts(src, depth - 1, branches),
                },
            })
            .collect()
    }

    /// What one execution produced: state and cycles down to the bit,
    /// the typed error that stopped it, or a panic — a bug.
    #[derive(Debug, PartialEq)]
    enum Outcome {
        Done {
            arrays: Vec<Vec<u64>>,
            scalars: Vec<(bool, u64)>,
            cycles: u64,
        },
        Failed(VpceError),
        Panicked(String),
    }

    type Run = Result<(f64, Vec<Vec<Elem>>, Vec<Value>), VpceError>;

    fn outcome(run: impl FnOnce() -> Run) -> Outcome {
        match catch_unwind(AssertUnwindSafe(run)) {
            Ok(Ok((cycles, arrays, scalars))) => Outcome::Done {
                arrays: arrays
                    .iter()
                    .map(|a| a.iter().map(|v| v.to_bits()).collect())
                    .collect(),
                scalars: scalars
                    .iter()
                    .map(|v| match v {
                        Value::I(v) => (true, *v as u64),
                        Value::R(v) => (false, v.to_bits()),
                    })
                    .collect(),
                cycles: cycles.to_bits(),
            },
            Ok(Err(e)) => Outcome::Failed(e),
            Err(payload) => Outcome::Panicked(
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default(),
            ),
        }
    }

    fn oracle_run(prog: &SpmdProgram) -> Run {
        let mut mem: Vec<Vec<Elem>> = prog.arrays.iter().map(|(_, n)| vec![0.0; *n]).collect();
        let mut o = Oracle::new(prog);
        o.run_generic(&prog.sequential, &mut mem)?;
        Ok((o.cycles, mem, o.scalars))
    }

    #[test]
    fn lowered_form_agrees_with_the_tree_walker() {
        // Special values in C and a scalar, then one stream loop, where
        // nothing has failed yet.
        let programs = Gen::new(|src| {
            let mut body = specials(src);
            body.push(stream_loop(src));
            body.extend(stmts(src, 3, true));
            program(body)
        });
        let [cases, streamed, fused] = [(); 3].map(|_| Cell::new(0u32));
        Check::new("spmd_rt::lowered_form_agrees_with_the_tree_walker")
            .cases(1500)
            .run(&programs, |prog| {
                let (before, fused_before) = (STREAMED.get(), FUSED.get());
                let lowered = outcome(|| run_sequential(prog, ExecMode::Full));
                cases.set(cases.get() + 1);
                // The four fills of `program` and the two loops of
                // `specials` always stream.
                streamed.set(streamed.get() + (STREAMED.get() - before > 6) as u32);
                fused.set(fused.get() + (FUSED.get() > fused_before) as u32);
                let oracle = outcome(|| oracle_run(prog));
                // Every failure of a generated program is typed.
                prop_assert!(!matches!(lowered, Outcome::Panicked(_)), "{lowered:?}");
                prop_assert_eq!(lowered, oracle);
                Ok(())
            });
        // The comparison is only worth its name if the stream path ran,
        // and the fold that applies its term trip by trip with it.
        assert!(
            streamed.get() * 2 >= cases.get(),
            "{} of {} cases ran a generated loop as a stream",
            streamed.get(),
            cases.get()
        );
        assert!(
            fused.get() * 20 >= cases.get(),
            "{} of {} cases ran a fused fold",
            fused.get(),
            cases.get()
        );
    }

    /// How a generated fold nest misses the nest form, if it does. Each
    /// miss also denies it to the nest under the outermost loop.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Miss {
        Qualifies,
        /// The term reads X at another index: no fold.
        TermReadsX,
        /// X's subscript skips the fold's parent, which runs ≥ 2 trips.
        NotInjective,
        /// The prologue stores to an operand.
        StoresOperand,
        /// The fold's upper bound reads its parent's variable.
        BoundReadsVar,
    }

    /// The loops of a generated nest, outermost first.
    struct Shape {
        vars: Vec<usize>,
        lo: Vec<i64>,
        step: Vec<i64>,
        /// Trips each loop may reach: the fold's grows with its parent
        /// under `BoundReadsVar`.
        reach: Vec<i64>,
        /// The value of M, which subscripts and bounds may read.
        m: i64,
    }

    const M: usize = 3;

    impl Shape {
        /// `Σ k·var + km·M + c0` with `c0` putting its least value over
        /// the loops at `low`, and its greatest value.
        fn subscript(&self, k: &[i64], km: i64, low: i64) -> (Expr, i64) {
            let mut least = km * self.m;
            let mut most = least;
            for (i, k) in k.iter().enumerate() {
                least += k * self.lo[i];
                let r = k * self.step[i] * (self.reach[i] - 1).max(0);
                most += k * self.lo[i] + r.max(0);
                least += r.min(0);
            }
            let c0 = low - least;
            let term = |k, slot| bin(BinOp::Mul, Expr::IConst(k), Expr::Scalar(slot));
            let e = (0..k.len()).fold(term(km, M), |e, i| bin(BinOp::Add, e, term(k[i], self.vars[i])));
            (bin(BinOp::Add, e, Expr::IConst(c0)), most + c0)
        }
    }

    /// A fold nest in the form of MM's product nest, or one of its
    /// near-misses: 2 or 3 loops over I, J, K in any source order, steps
    /// ±1 / ±2, one non-fold loop's trips sometimes across a strip or a
    /// lane chunk; 0–2 prologue stores to X(c); X(c) = X(c) ⊕ t over
    /// every REAL operator, `t` reading P and Q at strides -2..2 in every
    /// variable, constants, scalars and `REAL()`; and now and then one
    /// element out of range at a corner of the loops.
    fn fold_nest(src: &mut Source) -> (SpmdProgram, Miss) {
        let depth = 2 + src.next_below(2) as usize;
        let (fold, parent) = (depth - 1, depth - 2);
        let mut vars = vec![0, 1, 2];
        for i in (1..3).rev() {
            vars.swap(i, src.next_below(i as u64 + 1) as usize);
        }
        vars.truncate(depth);
        // MM's own shape, X ⊕ P·Q with ⊕ = +, one time in three.
        let mm = src.next_below(3) == 0;
        let op = if mm { 0 } else { src.next_below(8) };
        let miss = match src.next_below(10) {
            0 if op != POW => Miss::TermReadsX,
            1 => Miss::NotInjective,
            2 => Miss::StoresOperand,
            3 => Miss::BoundReadsVar,
            _ => Miss::Qualifies,
        };
        let long = src.next_below(fold as u64) as usize;
        let mut trips: Vec<i64> = (0..depth)
            .map(|i| match src.next_below(8) {
                0 if i == long => (LANES - 2) as i64 + src.next_below(5) as i64,
                1 | 2 if i == long => (STRIP - 2) as i64 + src.next_below(5) as i64,
                _ => src.next_below(5) as i64,
            })
            .collect();
        match miss {
            Miss::NotInjective => trips[parent] = trips[parent].max(2),
            // The fold's trips grow with its parent's: keep both short.
            Miss::BoundReadsVar => trips[parent] = trips[parent].min(4),
            _ => {}
        }
        let step: Vec<i64> = (0..depth).map(|_| pick(src, &[-2, -1, 1, 2])).collect();
        let lo: Vec<i64> = (0..depth).map(|_| src.next_below(7) as i64 - 3).collect();
        let grow = match miss {
            Miss::BoundReadsVar => step[fold] * step[parent],
            _ => 0,
        };
        let mut reach = trips.clone();
        reach[fold] += grow.abs() * step[parent].abs() * (trips[parent] - 1).max(0);
        let s = Shape {
            vars: vars.clone(),
            lo: lo.clone(),
            step: step.clone(),
            reach,
            m: src.next_below(7) as i64 - 3,
        };

        // X's subscript: injective by construction, its strides grown
        // as mixed-radix digits over the loops outside the fold.
        let mut kx = vec![0; depth];
        let mut radix = 1;
        let mut order: Vec<usize> = (0..fold).collect();
        if src.next_below(2) == 0 {
            order.reverse();
        }
        let lane = order[0];
        for i in order {
            kx[i] = radix * pick(src, &[1, -1]);
            radix *= step[i].abs() * trips[i].max(1) + src.next_below(2) as i64;
        }
        if miss == Miss::NotInjective {
            kx[parent] = 0;
        }
        let out = src.next_below(8);
        let (c, x_most) = s.subscript(&kx, 0, -((out == 0) as i64));
        let x_len = x_most + (out != 1) as i64;

        // Operands: P and Q at strides -2..2 in every variable, the
        // fold's excepted where the prologue reads them.
        let mut most = [0i64; 2];
        let strides = |src: &mut Source, fold_free: bool| -> Vec<i64> {
            let mut k: Vec<i64> = (0..depth).map(|_| src.next_below(5) as i64 - 2).collect();
            if fold_free {
                k[fold] = 0;
            }
            k
        };
        let load = |src: &mut Source, k: &[i64], most: &mut [i64; 2]| {
            let array = 1 + src.next_below(2) as usize;
            let (index, top) = s.subscript(k, src.next_below(3) as i64 - 1, 0);
            most[array - 1] = most[array - 1].max(top);
            (array, index)
        };
        let leaf = |src: &mut Source, fold_free: bool, most: &mut [i64; 2]| match src.next_below(8) {
            0 => Expr::RConst((src.next_below(33) as f64 - 16.0) / 4.0),
            1 => Expr::RConst(special(src)),
            2 => Expr::Scalar(4 + src.next_below(2) as usize),
            3 => Expr::Intr(IntrinsicOp::ToReal, vec![s.subscript(&strides(src, fold_free), 1, 0).0]),
            _ => {
                let k = strides(src, fold_free);
                let (array, index) = load(src, &k, most);
                Expr::Load { array, index: Box::new(index) }
            }
        };
        let x_at = |index: Expr| Expr::Load { array: 0, index: Box::new(index) };
        let mut t = match src.next_below(6) {
            // P along X's smallest stride, likely the lanes, and Q across
            // them, as A(I,K) and B(K,J) are; either operand first.
            _ if mm => {
                let mut kp = strides(src, false);
                let mut kq = strides(src, false);
                for i in 0..fold {
                    kp[i] = if i == lane { step[i].signum() } else { 0 };
                }
                kq[lane] = 0;
                let [p, q] = [kp, kq].map(|k| {
                    let (array, index) = load(src, &k, &mut most);
                    Expr::Load { array, index: Box::new(index) }
                });
                let (a, b) = if src.next_below(2) == 0 { (p, q) } else { (q, p) };
                real_op(pick(src, &[2, 2, 0, 1, 3, 5, 6, 7]), a, b)
            }
            0 => leaf(src, false, &mut most),
            1 => {
                let inner = real_op(src.next_below(8), leaf(src, false, &mut most), leaf(src, false, &mut most));
                real_op(src.next_below(8), inner, leaf(src, false, &mut most))
            }
            _ => real_op(src.next_below(8), leaf(src, false, &mut most), leaf(src, false, &mut most)),
        };
        if miss == Miss::TermReadsX {
            t = real_op(src.next_below(8), t, x_at(Expr::IConst(src.next_below(x_len.max(1) as u64) as i64)));
        }
        let x = x_at(c.clone());
        let value = match op {
            // X may hold a NaN of either sign: no `bin`, which would
            // clear it.
            POW => Expr::Bin(BinOp::Pow, Box::new(x), Box::new(t)),
            _ => real_op(op, x, t),
        };
        let mut body = vec![Instr::StoreArray { array: 0, index: c.clone(), value }];
        let bound = |src: &mut Source, v: i64| match src.next_below(3) {
            0 => bin(BinOp::Add, Expr::Scalar(M), Expr::IConst(v - s.m)),
            _ => Expr::IConst(v),
        };
        let last = |i: usize| lo[i] + step[i] * (trips[i] - 1);
        let mut hi = bound(src, last(fold));
        if grow != 0 {
            let by = bin(BinOp::Sub, Expr::Scalar(vars[parent]), Expr::IConst(lo[parent]));
            hi = bin(BinOp::Add, hi, bin(BinOp::Mul, Expr::IConst(grow), by));
        }
        body = vec![Instr::Loop { var: vars[fold], lo: bound(src, lo[fold]), hi, step: step[fold], body }];
        let mut prologue: Vec<Instr> = (0..src.next_below(3))
            .map(|_| {
                let value = match src.next_below(3) {
                    0 => real_op(src.next_below(8), leaf(src, true, &mut most), leaf(src, true, &mut most)),
                    _ => leaf(src, true, &mut most),
                };
                Instr::StoreArray { array: 0, index: c.clone(), value }
            })
            .collect();
        if miss == Miss::StoresOperand {
            let k = strides(src, true);
            let (array, index) = load(src, &k, &mut most);
            let value = leaf(src, true, &mut most);
            let at = src.next_below(prologue.len() as u64 + 1) as usize;
            prologue.insert(at, Instr::StoreArray { array, index, value });
        }
        prologue.extend(body);
        body = prologue;
        for i in (0..fold).rev() {
            body = vec![Instr::Loop { var: vars[i], lo: bound(src, lo[i]), hi: bound(src, last(i)), step: step[i], body }];
        }
        (nest_program(s, x_len, most, body, src), miss)
    }

    /// X, P and Q filled with quarters and a few [`special`]s, M and the
    /// REAL scalars set, then `body`. P or Q is sometimes one element
    /// short of its greatest subscript.
    fn nest_program(
        s: Shape,
        x_len: i64,
        most: [i64; 2],
        body: Vec<Instr>,
        src: &mut Source,
    ) -> SpmdProgram {
        let short = src.next_below(12);
        let lens = [x_len, most[0] + (short != 1) as i64, most[1] + (short != 2) as i64]
            .map(|n| n.max(1) as usize);
        let mut sequential = Vec::new();
        for (array, &len) in lens.iter().enumerate() {
            sequential.push(Instr::Loop {
                var: 0,
                lo: Expr::IConst(0),
                hi: Expr::IConst(len as i64 - 1),
                step: 1,
                body: vec![Instr::StoreArray {
                    array,
                    index: Expr::Scalar(0),
                    value: bin(BinOp::Mul, Expr::Scalar(0), Expr::RConst(0.25 - array as f64)),
                }],
            });
            let every = 3 + src.next_below(9) as i64;
            sequential.push(Instr::Loop {
                var: 0,
                lo: Expr::IConst(src.next_below(every as u64) as i64),
                hi: Expr::IConst(len as i64 - 1),
                step: every,
                body: vec![Instr::StoreArray {
                    array,
                    index: Expr::Scalar(0),
                    value: Expr::RConst(special(src)),
                }],
            });
        }
        sequential.push(Instr::StoreScalar { slot: M, value: Expr::IConst(s.m) });
        for slot in [4, 5] {
            let v = match src.next_below(3) {
                0 => special(src),
                _ => (src.next_below(33) as f64 - 16.0) / 4.0,
            };
            sequential.push(Instr::StoreScalar { slot, value: Expr::RConst(v) });
        }
        sequential.extend(body);
        SpmdProgram {
            name: "NEST".into(),
            nprocs: 1,
            arrays: ["X", "P", "Q"].iter().zip(lens).map(|(n, len)| (n.to_string(), len)).collect(),
            scalars: SCALARS.iter().map(|(n, i)| (n.to_string(), *i)).collect(),
            blocks: Vec::new(),
            sequential: sequential.into(),
        }
    }

    #[test]
    fn fold_nests_agree_with_the_tree_walker() {
        let [cases, qualifying, nested] = [(); 3].map(|_| Cell::new(0u32));
        Check::new("spmd_rt::fold_nests_agree_with_the_tree_walker")
            .cases(400)
            .run(&Gen::new(fold_nest), |(prog, miss)| {
                let before = NESTED.get();
                let lowered = outcome(|| run_sequential(prog, ExecMode::Full));
                let took = NESTED.get() > before;
                let oracle = outcome(|| oracle_run(prog));
                prop_assert!(!matches!(lowered, Outcome::Panicked(_)), "{lowered:?}");
                prop_assert_eq!(lowered, oracle);
                prop_assert!(*miss == Miss::Qualifies || !took, "{miss:?} ran as a nest");
                cases.set(cases.get() + 1);
                qualifying.set(qualifying.get() + (*miss == Miss::Qualifies) as u32);
                nested.set(nested.get() + took as u32);
                Ok(())
            });
        assert!(
            nested.get() * 4 >= qualifying.get(),
            "{} of {} qualifying cases ({} in all) ran as a nest",
            nested.get(),
            qualifying.get(),
            cases.get()
        );
    }

    /// No `If`, no subscript or bound that can fail, no loop bound that
    /// depends on a stored scalar: everything `Analytic` prices exactly.
    fn branch_free(src: &mut Source, depth: u32, enclosing: &[usize]) -> Vec<Instr> {
        let n = 1 + src.next_below(3);
        (0..n)
            .map(|_| {
                if depth > 0 && src.next_below(2) == 0 {
                    let free: Vec<usize> = (0..3).filter(|v| !enclosing.contains(v)).collect();
                    let var = pick(src, &free);
                    // Rectangular or triangular (bound reads an
                    // enclosing loop variable).
                    let limit = |src: &mut Source| match enclosing {
                        [.., outer] if src.next_below(2) == 0 => Expr::Scalar(*outer),
                        _ => Expr::IConst(src.next_below(7) as i64 - 1),
                    };
                    let inner: Vec<usize> = enclosing.iter().copied().chain([var]).collect();
                    Instr::Loop {
                        var,
                        lo: limit(src),
                        hi: limit(src),
                        step: pick(src, &[-2, -1, 1, 1, 2]),
                        body: branch_free(src, depth - 1, &inner),
                    }
                } else if src.next_below(4) == 0 {
                    Instr::StoreScalar {
                        slot: 3 + src.next_below(3) as usize,
                        value: bin(BinOp::Add, Expr::Scalar(4), Expr::RConst(0.25)),
                    }
                } else {
                    Instr::StoreArray {
                        array: src.next_below(2) as usize,
                        index: affine_index(src),
                        value: bin(
                            BinOp::Mul,
                            Expr::Load {
                                array: 0,
                                index: Box::new(affine_index(src)),
                            },
                            Expr::Intr(IntrinsicOp::Cos, vec![Expr::Scalar(5)]),
                        ),
                    }
                }
            })
            .collect()
    }

    #[test]
    fn analytic_cycles_equal_full_cycles_on_branch_free_programs() {
        Check::new("spmd_rt::analytic_cycles_equal_full_cycles_on_branch_free_programs")
            .cases(500)
            .run(&Gen::new(|src| program(branch_free(src, 3, &[]))), |prog| {
                let (full, ..) = run_sequential(prog, ExecMode::Full).unwrap();
                let (analytic, ..) = run_sequential(prog, ExecMode::Analytic).unwrap();
                prop_assert_eq!(full.to_bits(), analytic.to_bits());
                Ok(())
            });
    }
}
