//! Pretty-printer: parsed ASTs back to F77-mini source, for the
//! parse∘print round-trip property that pins the parser and the printer
//! to each other. Test code only: nothing else prints source.

use crate::ast::*;

/// Render a statement list as F77-mini source. A reference sema has
/// resolved prints as `SYM<id>`.
pub(crate) fn print_stmts(stmts: &[Stmt]) -> String {
    let mut out = String::new();
    for s in stmts {
        print_stmt(s, 6, &mut out);
    }
    out
}

fn sym_name(sym: &SymRef) -> String {
    match sym {
        SymRef::Named(n) => n.clone(),
        SymRef::Resolved(id) => format!("SYM{id}"),
    }
}

fn print_stmt(s: &Stmt, indent: usize, out: &mut String) {
    let pad = " ".repeat(indent);
    match s {
        Stmt::Assign {
            target,
            subscripts,
            value,
            ..
        } => {
            if subscripts.is_empty() {
                out.push_str(&format!(
                    "{pad}{} = {}\n",
                    sym_name(target),
                    print_expr(value)
                ));
            } else {
                let subs: Vec<String> = subscripts.iter().map(print_expr).collect();
                out.push_str(&format!(
                    "{pad}{}({}) = {}\n",
                    sym_name(target),
                    subs.join(", "),
                    print_expr(value)
                ));
            }
        }
        Stmt::Do { header, body, .. } => {
            let step = match &header.step {
                None => String::new(),
                Some(e) => format!(", {}", print_expr(e)),
            };
            out.push_str(&format!(
                "{pad}DO {} = {}, {}{step}\n",
                sym_name(&header.var),
                print_expr(&header.lo),
                print_expr(&header.hi)
            ));
            for b in body {
                print_stmt(b, indent + 2, out);
            }
            out.push_str(&format!("{pad}ENDDO\n"));
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
            ..
        } => {
            out.push_str(&format!("{pad}IF ({}) THEN\n", print_expr(cond)));
            for b in then_body {
                print_stmt(b, indent + 2, out);
            }
            if !else_body.is_empty() {
                out.push_str(&format!("{pad}ELSE\n"));
                for b in else_body {
                    print_stmt(b, indent + 2, out);
                }
            }
            out.push_str(&format!("{pad}ENDIF\n"));
        }
        Stmt::Continue { .. } => out.push_str(&format!("{pad}CONTINUE\n")),
        Stmt::Call { name, args, .. } => {
            let a: Vec<String> = args.iter().map(print_expr).collect();
            if a.is_empty() {
                out.push_str(&format!("{pad}CALL {name}\n"));
            } else {
                out.push_str(&format!("{pad}CALL {name}({})\n", a.join(", ")));
            }
        }
    }
}

/// Render an expression (fully parenthesised — unambiguous under
/// re-parsing regardless of precedence).
fn print_expr(e: &Expr) -> String {
    match e {
        Expr::IntLit(v) => {
            if *v < 0 {
                format!("({v})")
            } else {
                v.to_string()
            }
        }
        Expr::RealLit(v) => {
            // Exact round-trip via Rust's shortest representation,
            // forced to look like a Fortran real.
            let s = format!("{v:?}");
            let s = if s.contains('.') || s.contains('e') || s.contains('E') {
                s
            } else {
                format!("{s}.0")
            };
            if *v < 0.0 {
                format!("({s})")
            } else {
                s
            }
        }
        Expr::Var(sym) => sym_name(sym),
        Expr::ArrayRef(sym, subs) => {
            let s: Vec<String> = subs.iter().map(print_expr).collect();
            format!("{}({})", sym_name(sym), s.join(", "))
        }
        Expr::Un(UnOp::Neg, a) => format!("(-{})", print_expr(a)),
        Expr::Un(UnOp::Not, a) => format!("(.NOT. {})", print_expr(a)),
        Expr::Bin(op, a, b) => {
            let o = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Pow => "**",
                BinOp::Lt => ".LT.",
                BinOp::Le => ".LE.",
                BinOp::Gt => ".GT.",
                BinOp::Ge => ".GE.",
                BinOp::Eq => ".EQ.",
                BinOp::Ne => ".NE.",
                BinOp::And => ".AND.",
                BinOp::Or => ".OR.",
            };
            format!("({} {o} {})", print_expr(a), print_expr(b))
        }
        Expr::Call(intr, args) => {
            let name = match intr {
                Intrinsic::Sqrt => "SQRT",
                Intrinsic::Abs => "ABS",
                Intrinsic::Mod => "MOD",
                Intrinsic::Min => "MIN",
                Intrinsic::Max => "MAX",
                Intrinsic::Sin => "SIN",
                Intrinsic::Cos => "COS",
                Intrinsic::Exp => "EXP",
                Intrinsic::Real => "REAL",
                Intrinsic::Int => "INT",
            };
            let a: Vec<String> = args.iter().map(print_expr).collect();
            format!("{name}({})", a.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lexer::lex, parser::parse};
    use vpce_testkit::prelude::*;

    #[test]
    fn prints_readable_source() {
        let unit = parse(&lex(
            "PROGRAM T\nDO I = 1, 4\nIF (I .LT. 3) THEN\nX = I * 2\nELSE\nX = 0\nENDIF\nENDDO\nEND\n",
        )
        .unwrap())
        .unwrap();
        let s = print_stmts(&unit.body);
        assert!(s.contains("DO I = 1, 4"));
        assert!(s.contains("IF ((I .LT. 3)) THEN"));
        assert!(s.contains("ELSE"));
        assert!(s.contains("ENDDO"));
    }

    #[test]
    fn roundtrip_parses_to_the_same_ast() {
        let src = "PROGRAM T\nREAL A(4,4)\nDO I = 1, 4, 2\nA(I,1) = COS(1.5) + MOD(I, 2)\nCONTINUE\nENDDO\nEND\n";
        let unit = parse(&lex(src).unwrap()).unwrap();
        let printed = format!("PROGRAM T\nREAL A(4,4)\n{}END\n", print_stmts(&unit.body));
        let reparsed = parse(&lex(&printed).unwrap()).unwrap();
        // Compare modulo line numbers by re-printing.
        assert_eq!(print_stmts(&unit.body), print_stmts(&reparsed.body));
    }

    fn arb_name() -> Gen<String> {
        // Avoid keywords and intrinsic names.
        elem_of(
            ["X", "Y", "ALPHA", "K2", "IVAR"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        )
    }

    fn arb_expr(depth: u32) -> Gen<Expr> {
        let leaf = one_of(vec![
            i64_in(0, 999).map(Expr::IntLit),
            u32_in(0, 999).map(|v| Expr::RealLit(v as f64 / 8.0)),
            arb_name().map(|n| Expr::Var(SymRef::Named(n))),
        ]);
        if depth == 0 {
            return leaf;
        }
        let inner = arb_expr(depth - 1);
        let inner2 = arb_expr(depth - 1);
        let inner3 = arb_expr(depth - 1);
        let inner4 = arb_expr(depth - 1);
        one_of(vec![
            leaf,
            zip3(
                elem_of(vec![
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Pow,
                ]),
                inner,
                inner2,
            )
            .map(|(op, a, b)| Expr::Bin(op, Box::new(a), Box::new(b))),
            inner3.map(|a| Expr::Un(UnOp::Neg, Box::new(a))),
            inner4.map(|a| Expr::Call(Intrinsic::Sqrt, vec![a])),
        ])
    }

    fn arb_stmt(depth: u32) -> Gen<Stmt> {
        let assign = zip2(arb_name(), arb_expr(2)).map(|(n, value)| Stmt::Assign {
            target: SymRef::Named(n),
            subscripts: Vec::new(),
            value,
            line: 0,
        });
        let array_assign = zip2(arb_expr(1), arb_expr(1)).map(|(sub, value)| Stmt::Assign {
            target: SymRef::Named("ARR".to_string()),
            subscripts: vec![sub],
            value,
            line: 0,
        });
        if depth == 0 {
            return one_of(vec![assign, array_assign, just(Stmt::Continue { line: 0 })]);
        }
        let body = vec_of(arb_stmt(depth - 1), 1, 2);
        let body2 = vec_of(arb_stmt(depth - 1), 0, 1);
        let body3 = vec_of(arb_stmt(depth - 1), 1, 2);
        one_of(vec![
            assign,
            array_assign,
            zip3(arb_expr(1), arb_expr(1), body).map(|(lo, hi, body)| Stmt::Do {
                header: DoHeader {
                    var: SymRef::Named("I".to_string()),
                    lo,
                    hi,
                    step: Some(Expr::IntLit(2)),
                },
                body,
                line: 0,
            }),
            zip4(arb_expr(1), arb_expr(1), body3, body2).map(|(a, b, t, e)| Stmt::If {
                cond: Expr::Bin(BinOp::Lt, Box::new(a), Box::new(b)),
                then_body: t,
                else_body: e,
                line: 0,
            }),
        ])
    }

    #[test]
    fn print_parse_print_is_identity() {
        Check::new("polaris_fe::print_parse_print_is_identity")
            .cases(64)
            .run(&vec_of(arb_stmt(2), 1, 4), |stmts| {
                let printed = print_stmts(stmts);
                let src = format!("PROGRAM T\n{printed}END\n");
                let unit = parse(&lex(&src).unwrap())
                    .unwrap_or_else(|e| panic!("printed source failed to parse: {e}\n{src}"));
                let reprinted = print_stmts(&unit.body);
                prop_assert_eq!(printed, reprinted, "source:\n{}", src);
                Ok(())
            });
    }
}
