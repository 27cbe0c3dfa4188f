//! Pretty-printer: parsed ASTs back to F77-mini source, for the
//! parse∘print round-trip property test that pins the parser and the
//! printer to each other.

use crate::ast::*;

/// Render a statement list as F77-mini source. A reference sema has
/// resolved prints as `SYM<id>`.
pub fn print_stmts(stmts: &[Stmt]) -> String {
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
}
