//! Parser ↔ printer round-trip: for random well-formed statement
//! trees, `parse(print(ast))` prints back identically. This pins the
//! grammar, the precedence rules, and the printer to each other.

use polaris_fe::ast::*;
use polaris_fe::lexer::lex;
use polaris_fe::parser::parse;
use polaris_fe::printer::print_stmts;
use vpce_testkit::prelude::*;

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
        return one_of(vec![
            assign,
            array_assign,
            just(Stmt::Continue { line: 0 }),
        ]);
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

#[test]
fn lexer_never_panics_on_arbitrary_text() {
    Check::new("polaris_fe::lexer_never_panics_on_arbitrary_text")
        .cases(256)
        .run(&string_printable(0, 200), |src| {
            // Errors are fine; panics are not.
            let _ = lex(src);
            Ok(())
        });
}

#[test]
fn parser_never_panics_on_arbitrary_token_soup() {
    let words = vec_of(
        elem_of(vec![
            "PROGRAM", "DO", "ENDDO", "IF", "THEN", "ELSE", "ENDIF", "END", "CALL", "CONTINUE",
            "X", "=", "1", "2.5", "(", ")", ",", "+", "*", "\n", ".LT.",
        ]),
        0,
        59,
    );
    Check::new("polaris_fe::parser_never_panics_on_arbitrary_token_soup")
        .cases(256)
        .run(&words, |words| {
            let src = words.join(" ");
            if let Ok(tokens) = lex(&src) {
                let _ = parse(&tokens);
            }
            Ok(())
        });
}
