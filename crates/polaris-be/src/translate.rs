//! AST → SPMD-IR translation: resolved front-end statements become
//! runtime instructions with pre-linearised (column-major) array
//! indices.

use polaris_fe::ast::{BinOp as FeBin, Expr as FeExpr, Intrinsic, Stmt, UnOp};
use polaris_fe::sema::Symbols;
use spmd_rt::ir::{BinOp, Expr, Instr, IntrinsicOp};

/// Translate a top-level statement list ([`crate::Translated::new`]
/// translates each of a program's once).
pub(crate) fn translate_stmts(stmts: &[Stmt], symbols: &Symbols) -> Vec<Instr> {
    translate_block(stmts, symbols)
}

fn translate_block(stmts: &[Stmt], symbols: &Symbols) -> Vec<Instr> {
    stmts.iter().filter_map(|s| translate_stmt(s, symbols)).collect()
}

fn translate_stmt(s: &Stmt, symbols: &Symbols) -> Option<Instr> {
    Some(match s {
        Stmt::Assign {
            target,
            subscripts,
            value,
            ..
        } => {
            let value = translate_expr(value, symbols);
            if subscripts.is_empty() {
                Instr::StoreScalar {
                    slot: target.id(),
                    value,
                }
            } else {
                let array = target.id();
                Instr::StoreArray {
                    array,
                    index: linearize(array, subscripts, symbols),
                    value,
                }
            }
        }
        Stmt::Do { header, body, .. } => Instr::Loop {
            var: header.var.id(),
            lo: translate_expr(&header.lo, symbols),
            hi: translate_expr(&header.hi, symbols),
            step: match &header.step {
                None => 1,
                Some(FeExpr::IntLit(v)) => *v,
                Some(other) => panic!("non-constant DO step survived sema: {other:?}"),
            },
            body: translate_block(body, symbols),
        },
        Stmt::If {
            cond,
            then_body,
            else_body,
            ..
        } => Instr::If {
            cond: translate_expr(cond, symbols),
            then_body: translate_block(then_body, symbols),
            else_body: translate_block(else_body, symbols),
        },
        Stmt::Continue { .. } => return None,
        Stmt::Call { name, .. } => {
            unreachable!("CALL {name} must be inlined before codegen")
        }
    })
}

/// Column-major linearisation: `Σ (sub_j - 1) * mult_j`, folding
/// constants so `A(1,1)` compiles to index `0` outright.
pub(crate) fn linearize(array: usize, subs: &[FeExpr], symbols: &Symbols) -> Expr {
    let info = &symbols.arrays[array];
    let mut acc: Option<Expr> = None;
    for (j, sub) in subs.iter().enumerate() {
        let sub = translate_expr(sub, symbols);
        // (sub - 1) * mult
        let term = fold_mul(fold_sub(sub, 1), info.mult[j]);
        acc = Some(match acc {
            None => term,
            Some(a) => fold_add(a, term),
        });
    }
    acc.unwrap_or(Expr::IConst(0))
}

fn fold_sub(e: Expr, k: i64) -> Expr {
    if k == 0 {
        return e;
    }
    match e {
        Expr::IConst(v) => Expr::IConst(v - k),
        other => Expr::Bin(BinOp::Sub, Box::new(other), Box::new(Expr::IConst(k))),
    }
}

fn fold_mul(e: Expr, k: i64) -> Expr {
    match (e, k) {
        (_, 0) => Expr::IConst(0),
        (e, 1) => e,
        (Expr::IConst(v), k) => Expr::IConst(v * k),
        (e, k) => Expr::Bin(BinOp::Mul, Box::new(e), Box::new(Expr::IConst(k))),
    }
}

fn fold_add(a: Expr, b: Expr) -> Expr {
    match (a, b) {
        (Expr::IConst(0), b) => b,
        (a, Expr::IConst(0)) => a,
        (Expr::IConst(x), Expr::IConst(y)) => Expr::IConst(x + y),
        (a, b) => Expr::Bin(BinOp::Add, Box::new(a), Box::new(b)),
    }
}

fn translate_expr(e: &FeExpr, symbols: &Symbols) -> Expr {
    match e {
        FeExpr::IntLit(v) => Expr::IConst(*v),
        FeExpr::RealLit(v) => Expr::RConst(*v),
        FeExpr::Var(sym) => Expr::Scalar(sym.id()),
        FeExpr::ArrayRef(sym, subs) => Expr::Load {
            array: sym.id(),
            index: Box::new(linearize(sym.id(), subs, symbols)),
        },
        FeExpr::Un(UnOp::Neg, inner) => Expr::Neg(Box::new(translate_expr(inner, symbols))),
        FeExpr::Un(UnOp::Not, inner) => Expr::Not(Box::new(translate_expr(inner, symbols))),
        FeExpr::Bin(op, a, b) => Expr::Bin(
            translate_binop(*op),
            Box::new(translate_expr(a, symbols)),
            Box::new(translate_expr(b, symbols)),
        ),
        FeExpr::Call(intr, args) => Expr::Intr(
            translate_intrinsic(*intr),
            args.iter().map(|a| translate_expr(a, symbols)).collect(),
        ),
    }
}

fn translate_binop(op: FeBin) -> BinOp {
    match op {
        FeBin::Add => BinOp::Add,
        FeBin::Sub => BinOp::Sub,
        FeBin::Mul => BinOp::Mul,
        FeBin::Div => BinOp::Div,
        FeBin::Pow => BinOp::Pow,
        FeBin::Lt => BinOp::Lt,
        FeBin::Le => BinOp::Le,
        FeBin::Gt => BinOp::Gt,
        FeBin::Ge => BinOp::Ge,
        FeBin::Eq => BinOp::Eq,
        FeBin::Ne => BinOp::Ne,
        FeBin::And => BinOp::And,
        FeBin::Or => BinOp::Or,
    }
}

fn translate_intrinsic(i: Intrinsic) -> IntrinsicOp {
    match i {
        Intrinsic::Sqrt => IntrinsicOp::Sqrt,
        Intrinsic::Abs => IntrinsicOp::Abs,
        Intrinsic::Mod => IntrinsicOp::Mod,
        Intrinsic::Min => IntrinsicOp::Min,
        Intrinsic::Max => IntrinsicOp::Max,
        Intrinsic::Sin => IntrinsicOp::Sin,
        Intrinsic::Cos => IntrinsicOp::Cos,
        Intrinsic::Exp => IntrinsicOp::Exp,
        Intrinsic::Real => IntrinsicOp::ToReal,
        Intrinsic::Int => IntrinsicOp::ToInt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_fe::{lexer::lex, parser::parse, sema::resolve};

    fn front(src: &str) -> (Vec<Stmt>, Symbols) {
        let (p, s) = resolve(parse(&lex(src).unwrap()).unwrap(), &[]).unwrap();
        (p.body, s)
    }

    #[test]
    fn constant_subscripts_fold_to_constant_index() {
        let (body, sy) = front("PROGRAM T\nREAL A(8,8)\nA(1,1) = 5.0\nA(3,2) = 1.0\nEND\n");
        let instrs = translate_stmts(&body, &sy);
        match &instrs[0] {
            Instr::StoreArray { index, .. } => assert_eq!(*index, Expr::IConst(0)),
            other => panic!("unexpected {other:?}"),
        }
        match &instrs[1] {
            // (3-1)*1 + (2-1)*8 = 10
            Instr::StoreArray { index, .. } => assert_eq!(*index, Expr::IConst(10)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn variable_subscripts_linearise_column_major() {
        let (body, sy) = front(
            "PROGRAM T\nREAL A(8,8)\nDO J = 1, 8\nDO I = 1, 8\nA(I,J) = 0.0\nENDDO\nENDDO\nEND\n",
        );
        let instrs = translate_stmts(&body, &sy);
        // Dig to the innermost store.
        let Instr::Loop { body: jb, .. } = &instrs[0] else {
            panic!()
        };
        let Instr::Loop { body: ib, .. } = &jb[0] else {
            panic!()
        };
        let Instr::StoreArray { index, .. } = &ib[0] else {
            panic!()
        };
        // (I-1) + (J-1)*8
        let s = format!("{index:?}");
        assert!(s.contains("Mul"), "column stride multiply present: {s}");
        assert!(s.contains("IConst(8)"), "{s}");
    }

    #[test]
    fn continue_disappears() {
        let (body, sy) = front("PROGRAM T\nCONTINUE\nX = 1.0\nEND\n");
        let instrs = translate_stmts(&body, &sy);
        assert_eq!(instrs.len(), 1);
    }

    #[test]
    fn intrinsics_translate() {
        let (body, sy) = front("PROGRAM T\nX = COS(1.0) + MOD(5, 3)\nEND\n");
        let instrs = translate_stmts(&body, &sy);
        let s = format!("{instrs:?}");
        assert!(s.contains("Cos") && s.contains("Mod"));
    }
}
