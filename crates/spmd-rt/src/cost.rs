//! Static operation counting: per-statement [`OpCounts`] used both to
//! charge virtual CPU time in `Full` mode and to price whole loop
//! nests analytically.

use cluster_sim::{CpuModel, OpCounts};

use crate::ir::{BinOp, Expr, Instr, IntrinsicOp};

/// Add the operation counts of evaluating `e` once to `ops`.
/// `int_scalars[slot]` marks INTEGER scalars so index arithmetic is
/// priced as integer ALU work, not floating point.
fn collect_expr(e: &Expr, int_scalars: &[bool], ops: &mut OpCounts) {
    match e {
        Expr::IConst(_) | Expr::RConst(_) => {}
        Expr::Scalar(_) => {
            // Register-resident in practice; free.
        }
        Expr::Load { index, .. } => {
            ops.loads += 1;
            collect_expr(index, int_scalars, ops);
        }
        Expr::Neg(a) | Expr::Not(a) => {
            ops.int_ops += 1;
            collect_expr(a, int_scalars, ops);
        }
        Expr::Bin(op, a, b) => {
            collect_expr(a, int_scalars, ops);
            collect_expr(b, int_scalars, ops);
            let int = is_int(a, int_scalars) && is_int(b, int_scalars);
            match op {
                BinOp::Add | BinOp::Sub => {
                    if int {
                        ops.int_ops += 1;
                    } else {
                        ops.fadd += 1;
                    }
                }
                BinOp::Mul => {
                    if int {
                        ops.int_ops += 1;
                    } else {
                        ops.fmul += 1;
                    }
                }
                BinOp::Div => {
                    if int {
                        ops.int_ops += 1;
                    } else {
                        ops.fdiv += 1;
                    }
                }
                BinOp::Pow => ops.transcendental += 1,
                _ => ops.int_ops += 1, // relational/logical
            }
        }
        Expr::Intr(op, args) => {
            for a in args {
                collect_expr(a, int_scalars, ops);
            }
            match op {
                IntrinsicOp::Sqrt
                | IntrinsicOp::Sin
                | IntrinsicOp::Cos
                | IntrinsicOp::Exp => ops.transcendental += 1,
                IntrinsicOp::Abs | IntrinsicOp::Min | IntrinsicOp::Max => ops.fadd += 1,
                IntrinsicOp::Mod | IntrinsicOp::ToReal | IntrinsicOp::ToInt => ops.int_ops += 1,
            }
        }
    }
}

/// Does the expression produce an integer?
fn is_int(e: &Expr, int_scalars: &[bool]) -> bool {
    match e {
        Expr::IConst(_) => true,
        Expr::RConst(_) => false,
        Expr::Scalar(s) => int_scalars.get(*s).copied().unwrap_or(false),
        Expr::Load { .. } => false,
        Expr::Neg(a) => is_int(a, int_scalars),
        Expr::Not(_) => true,
        Expr::Bin(BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne, _, _) => {
            true
        }
        Expr::Bin(_, a, b) => is_int(a, int_scalars) && is_int(b, int_scalars),
        Expr::Intr(IntrinsicOp::ToInt | IntrinsicOp::Mod, _) => true,
        Expr::Intr(_, _) => false,
    }
}

/// Operation counts of executing `i` once, *excluding* loop bodies
/// (the interpreter charges bodies per executed iteration; the
/// analytic path multiplies by trip counts itself).
pub(crate) fn instr_ops_shallow(i: &Instr, int_scalars: &[bool]) -> OpCounts {
    let mut ops = OpCounts::default();
    match i {
        Instr::StoreArray { index, value, .. } => {
            collect_expr(index, int_scalars, &mut ops);
            collect_expr(value, int_scalars, &mut ops);
            ops.stores += 1;
        }
        Instr::StoreScalar { value, .. } => {
            collect_expr(value, int_scalars, &mut ops);
        }
        Instr::Loop { lo, hi, .. } => {
            collect_expr(lo, int_scalars, &mut ops);
            collect_expr(hi, int_scalars, &mut ops);
        }
        Instr::If { cond, .. } => {
            collect_expr(cond, int_scalars, &mut ops);
        }
    }
    ops
}

/// Loop bookkeeping per executed trip (the P-II table's `cyc_loop`).
pub(crate) const TRIP_CYCLES: f64 = 2.0;

/// Cycles [`instr_ops_shallow`] of `i` cost on the P-II table. The
/// interpreter always charges this table — the conversion to seconds
/// uses the cluster's CPU clock — so `Full`, `Analytic` and the
/// sequential baseline agree on any machine.
pub(crate) fn instr_cycles(i: &Instr, int_scalars: &[bool]) -> f64 {
    CpuModel::pentium_ii_300().cycles(&instr_ops_shallow(i, int_scalars))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What closed-form charging rests on (`crate::lowered`): every
    /// amount the interpreter ever adds to its cycle counter is a whole
    /// number of half cycles, so every partial sum is one too. Below
    /// 2⁵² all of those are exactly representable f64s; adding exactly
    /// representable values whose sum is exactly representable is
    /// exact, hence associative and commutative — a block may charge its
    /// statements' sum at once, a loop `trips × (2 + body)`, and the
    /// total is bit-identical to charging statement by statement. A
    /// table entry of, say, 1.3 cycles would break this silently.
    #[test]
    fn cycle_table_entries_are_half_integers() {
        let cpu = CpuModel::pentium_ii_300();
        assert_eq!(TRIP_CYCLES, cpu.cyc_loop);
        for cycles in [
            cpu.cyc_fadd,
            cpu.cyc_fmul,
            cpu.cyc_fdiv,
            cpu.cyc_transcendental,
            cpu.cyc_load,
            cpu.cyc_store,
            cpu.cyc_int,
            cpu.cyc_loop,
        ] {
            assert_eq!((cycles * 2.0).fract(), 0.0, "{cycles} is not a multiple of 0.5");
        }
    }

    /// Counts of evaluating `e` once, as a scalar assignment prices it.
    fn expr_ops(value: Expr) -> OpCounts {
        instr_ops_shallow(&Instr::StoreScalar { slot: 0, value }, &[])
    }

    fn load(array: usize) -> Expr {
        Expr::Load {
            array,
            index: Box::new(Expr::IConst(0)),
        }
    }

    #[test]
    fn madd_statement_counts() {
        // C[i] = C[i] + A[i] * B[i]
        let value = Expr::Bin(
            BinOp::Add,
            Box::new(load(2)),
            Box::new(Expr::Bin(BinOp::Mul, Box::new(load(0)), Box::new(load(1)))),
        );
        let instr = Instr::StoreArray {
            array: 2,
            index: Expr::IConst(0),
            value,
        };
        let ops = instr_ops_shallow(&instr, &[]);
        assert_eq!(ops.loads, 3);
        assert_eq!(ops.stores, 1);
        assert_eq!(ops.fadd, 1);
        assert_eq!(ops.fmul, 1);
    }

    #[test]
    fn index_arithmetic_counts_as_int_ops() {
        // (I-1) + N*(J-1) with I, J integer scalars: the heuristic
        // treats scalars as real, so verify via constants.
        let idx = Expr::Bin(
            BinOp::Add,
            Box::new(Expr::IConst(0)),
            Box::new(Expr::Bin(
                BinOp::Mul,
                Box::new(Expr::IConst(8)),
                Box::new(Expr::IConst(3)),
            )),
        );
        let ops = expr_ops(idx);
        assert_eq!(ops.int_ops, 2);
        assert_eq!(ops.fadd + ops.fmul, 0);
    }

    #[test]
    fn transcendental_counted() {
        let e = Expr::Intr(IntrinsicOp::Cos, vec![Expr::Scalar(0)]);
        assert_eq!(expr_ops(e).transcendental, 1);
    }
}
