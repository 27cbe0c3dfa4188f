//! Subroutine inlining — one of the FE techniques §3 lists ("the
//! techniques implemented in Polaris to detect parallelism include:
//! dependence analysis, **inlining**, …").
//!
//! F77-mini subroutines are pass-by-reference with static locals, so
//! inlining is name substitution:
//!
//! * dummy arguments are replaced by the caller's actual names (bare
//!   variables/arrays) — a literal actual gets a temporary;
//! * subroutine locals and parameters are renamed `__<SUB>_<NAME>`
//!   once per subroutine (shared across call sites, like Fortran's
//!   static storage);
//! * the subroutine's declarations (minus dummy-argument
//!   declarations, whose shape the actual's declaration governs) merge
//!   into the caller's declaration list.
//!
//! Limitations (documented, checked): actual arguments must be bare
//! identifiers or numeric literals (no expressions, no array
//! elements — F77 sequence association is out of scope), and calls
//! may not recurse.

use std::collections::HashMap;

use crate::ast::{Decl, DeclItem, DoHeader, Expr, Stmt, SymRef, Unit};
use crate::FrontError;

/// Maximum transitive inlining depth (recursion guard).
const MAX_DEPTH: usize = 16;

/// Inline every `CALL` in the `PROGRAM` unit, consuming the
/// subroutine units. Returns the self-contained main unit.
pub(crate) fn inline_calls(units: Vec<Unit>) -> Result<Unit, FrontError> {
    let mut main = None;
    let mut subs: HashMap<String, Unit> = HashMap::new();
    for u in units {
        if u.is_subroutine {
            if subs.insert(u.name.clone(), u).is_some() {
                return Err(FrontError::new(1, "duplicate SUBROUTINE name"));
            }
        } else if main.replace(u).is_some() {
            return Err(FrontError::new(1, "more than one PROGRAM unit"));
        }
    }
    let mut main = main.ok_or_else(|| FrontError::new(1, "no PROGRAM unit"))?;

    // Pre-rename every subroutine's locals once.
    let renamed: HashMap<String, Unit> = subs
        .iter()
        .map(|(name, u)| (name.clone(), rename_locals(u)))
        .collect();

    let mut merged_decl_for: Vec<String> = Vec::new();
    let mut depth = 0;
    while body_has_call(&main.body) {
        depth += 1;
        if depth > MAX_DEPTH {
            return Err(FrontError::new(
                1,
                "CALL nesting exceeds the inlining depth limit (recursion?)",
            ));
        }
        main.body = inline_in_stmts(
            std::mem::take(&mut main.body),
            &renamed,
            &mut main.decls,
            &mut merged_decl_for,
        )?;
    }
    Ok(main)
}

fn body_has_call(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Call { .. } => true,
        Stmt::Do { body, .. } => body_has_call(body),
        Stmt::If {
            then_body,
            else_body,
            ..
        } => body_has_call(then_body) || body_has_call(else_body),
        _ => false,
    })
}

/// Expand one level of calls in a statement list.
fn inline_in_stmts(
    stmts: Vec<Stmt>,
    subs: &HashMap<String, Unit>,
    main_decls: &mut Vec<Decl>,
    merged: &mut Vec<String>,
) -> Result<Vec<Stmt>, FrontError> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        match s {
            Stmt::Call { name, args, line } => {
                let sub = subs.get(&name).ok_or_else(|| {
                    FrontError::new(line, format!("CALL {name}: no such SUBROUTINE"))
                })?;
                if sub.args.len() != args.len() {
                    return Err(FrontError::new(
                        line,
                        format!(
                            "CALL {name}: {} arguments for {} dummies",
                            args.len(),
                            sub.args.len()
                        ),
                    ));
                }
                // Merge the subroutine's (already renamed) non-dummy
                // declarations into the caller, once.
                if !merged.contains(&name) {
                    let dummies: Vec<String> =
                        sub.args.iter().map(|a| mangle(&sub.name, a)).collect();
                    for d in &sub.decls {
                        if let Some(kept) = strip_dummy_items(d, &dummies) {
                            main_decls.push(kept);
                        }
                    }
                    merged.push(name.clone());
                }
                // Build the dummy → actual substitution.
                let mut map: HashMap<String, String> = HashMap::new();
                for (dummy, actual) in sub.args.iter().zip(&args) {
                    let mangled = mangle(&sub.name, dummy);
                    match actual {
                        Expr::Var(SymRef::Named(v)) => {
                            map.insert(mangled, v.clone());
                        }
                        Expr::IntLit(_) | Expr::RealLit(_) => {
                            // Literal actual: bind through a fresh temp.
                            let tmp = format!("__{}_ARG_{}", sub.name, dummy);
                            out.push(Stmt::Assign {
                                target: SymRef::Named(tmp.clone()),
                                subscripts: Vec::new(),
                                value: actual.clone(),
                                line,
                            });
                            map.insert(mangled, tmp);
                        }
                        other => {
                            return Err(FrontError::new(
                                line,
                                format!(
                                    "CALL {name}: argument for `{dummy}` must be a bare \
                                     variable or literal, got {other:?}"
                                ),
                            ));
                        }
                    }
                }
                for st in &sub.body {
                    out.push(substitute_stmt(st.clone(), &map));
                }
            }
            Stmt::Do { header, body, line } => out.push(Stmt::Do {
                header,
                body: inline_in_stmts(body, subs, main_decls, merged)?,
                line,
            }),
            Stmt::If {
                cond,
                then_body,
                else_body,
                line,
            } => out.push(Stmt::If {
                cond,
                then_body: inline_in_stmts(then_body, subs, main_decls, merged)?,
                else_body: inline_in_stmts(else_body, subs, main_decls, merged)?,
                line,
            }),
            other => out.push(other),
        }
    }
    Ok(out)
}

fn mangle(sub: &str, name: &str) -> String {
    format!("__{sub}_{name}")
}

/// Rename every identifier of a subroutine (locals, parameters AND
/// dummies — dummies get substituted to actuals at each call site).
fn rename_locals(u: &Unit) -> Unit {
    let prefix_of = |n: &str| mangle(&u.name, n);
    let map_name = |n: &str| prefix_of(n);
    let decls = u
        .decls
        .iter()
        .map(|d| match d {
            Decl::Type { base, items, line } => Decl::Type {
                base: *base,
                items: items.iter().map(|i| rename_item(i, &map_name)).collect(),
                line: *line,
            },
            Decl::Dimension { items, line } => Decl::Dimension {
                items: items.iter().map(|i| rename_item(i, &map_name)).collect(),
                line: *line,
            },
            Decl::Parameter { assignments, line } => Decl::Parameter {
                assignments: assignments
                    .iter()
                    .map(|(n, e)| (map_name(n), rename_expr(e, &map_name)))
                    .collect(),
                line: *line,
            },
        })
        .collect();
    let body = u
        .body
        .iter()
        .map(|s| rename_stmt(s, &map_name))
        .collect();
    Unit {
        name: u.name.clone(),
        is_subroutine: true,
        args: u.args.clone(),
        decls,
        body,
    }
}

fn rename_item(i: &DeclItem, f: &impl Fn(&str) -> String) -> DeclItem {
    DeclItem {
        name: f(&i.name),
        dims: i.dims.iter().map(|e| rename_expr(e, f)).collect(),
    }
}

fn rename_expr(e: &Expr, f: &impl Fn(&str) -> String) -> Expr {
    match e {
        Expr::Var(SymRef::Named(n)) => Expr::Var(SymRef::Named(f(n))),
        Expr::ArrayRef(SymRef::Named(n), subs) => Expr::ArrayRef(
            SymRef::Named(f(n)),
            subs.iter().map(|s| rename_expr(s, f)).collect(),
        ),
        Expr::Un(op, a) => Expr::Un(*op, Box::new(rename_expr(a, f))),
        Expr::Bin(op, a, b) => Expr::Bin(
            *op,
            Box::new(rename_expr(a, f)),
            Box::new(rename_expr(b, f)),
        ),
        Expr::Call(i, args) => {
            Expr::Call(*i, args.iter().map(|a| rename_expr(a, f)).collect())
        }
        other => other.clone(),
    }
}

fn rename_stmt(s: &Stmt, f: &impl Fn(&str) -> String) -> Stmt {
    match s {
        Stmt::Assign {
            target: SymRef::Named(n),
            subscripts,
            value,
            line,
        } => Stmt::Assign {
            target: SymRef::Named(f(n)),
            subscripts: subscripts.iter().map(|e| rename_expr(e, f)).collect(),
            value: rename_expr(value, f),
            line: *line,
        },
        Stmt::Assign { .. } => unreachable!("inlining precedes sema"),
        Stmt::Do { header, body, line } => Stmt::Do {
            header: DoHeader {
                var: match &header.var {
                    SymRef::Named(n) => SymRef::Named(f(n)),
                    r => r.clone(),
                },
                lo: rename_expr(&header.lo, f),
                hi: rename_expr(&header.hi, f),
                step: header.step.as_ref().map(|e| rename_expr(e, f)),
            },
            body: body.iter().map(|s| rename_stmt(s, f)).collect(),
            line: *line,
        },
        Stmt::If {
            cond,
            then_body,
            else_body,
            line,
        } => Stmt::If {
            cond: rename_expr(cond, f),
            then_body: then_body.iter().map(|s| rename_stmt(s, f)).collect(),
            else_body: else_body.iter().map(|s| rename_stmt(s, f)).collect(),
            line: *line,
        },
        Stmt::Continue { line } => Stmt::Continue { line: *line },
        Stmt::Call { name, args, line } => Stmt::Call {
            name: name.clone(), // subroutine names are global
            args: args.iter().map(|a| rename_expr(a, f)).collect(),
            line: *line,
        },
    }
}

/// Drop declaration items that (post-rename) name dummy arguments —
/// the actual argument's declaration governs. Returns `None` when the
/// whole declaration was dummies.
fn strip_dummy_items(d: &Decl, dummies: &[String]) -> Option<Decl> {
    match d {
        Decl::Type { base, items, line } => {
            let kept: Vec<DeclItem> = items
                .iter()
                .filter(|i| !dummies.contains(&i.name))
                .cloned()
                .collect();
            (!kept.is_empty()).then_some(Decl::Type {
                base: *base,
                items: kept,
                line: *line,
            })
        }
        Decl::Dimension { items, line } => {
            let kept: Vec<DeclItem> = items
                .iter()
                .filter(|i| !dummies.contains(&i.name))
                .cloned()
                .collect();
            (!kept.is_empty()).then_some(Decl::Dimension {
                items: kept,
                line: *line,
            })
        }
        Decl::Parameter { .. } => Some(d.clone()),
    }
}

/// Substitute dummy names by actual names in an inlined statement.
fn substitute_stmt(s: Stmt, map: &HashMap<String, String>) -> Stmt {
    let f = |n: &str| map.get(n).cloned().unwrap_or_else(|| n.to_string());
    rename_stmt(&s, &f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_units;

    fn inline_src(src: &str) -> Result<Unit, FrontError> {
        inline_calls(parse_units(&lex(src).unwrap()).unwrap())
    }

    #[test]
    fn simple_call_expands() {
        let u = inline_src(
            "PROGRAM T\nREAL X(8)\nCALL FILL(X)\nEND\n\
             SUBROUTINE FILL(A)\nINTEGER I\nDO I = 1, 8\nA(I) = 1.0\nENDDO\nEND\n",
        )
        .unwrap();
        assert!(!body_has_call(&u.body));
        // The loop arrived, targeting X.
        let s = format!("{:?}", u.body);
        assert!(s.contains("\"X\""), "{s}");
        assert!(s.contains("__FILL_I"), "locals renamed: {s}");
    }

    #[test]
    fn literal_actual_binds_through_temp() {
        let u = inline_src(
            "PROGRAM T\nREAL X(8)\nCALL SETV(X, 3.5)\nEND\n\
             SUBROUTINE SETV(A, V)\nINTEGER I\nDO I = 1, 8\nA(I) = V\nENDDO\nEND\n",
        )
        .unwrap();
        let s = format!("{:?}", u.body);
        assert!(s.contains("__SETV_ARG_V"), "{s}");
        assert!(s.contains("3.5"), "{s}");
    }

    #[test]
    fn locals_shared_across_call_sites() {
        let u = inline_src(
            "PROGRAM T\nREAL X(4), Y(4)\nCALL Z(X)\nCALL Z(Y)\nEND\n\
             SUBROUTINE Z(A)\nINTEGER I\nDO I = 1, 4\nA(I) = 0.0\nENDDO\nEND\n",
        )
        .unwrap();
        // Local I merged exactly once into the declarations.
        let decl_s = format!("{:?}", u.decls);
        assert_eq!(decl_s.matches("__Z_I").count(), 1, "{decl_s}");
    }

    #[test]
    fn nested_subroutine_calls_inline_transitively() {
        let u = inline_src(
            "PROGRAM T\nREAL X(4)\nCALL OUTER(X)\nEND\n\
             SUBROUTINE OUTER(A)\nCALL INNER(A)\nEND\n\
             SUBROUTINE INNER(B)\nB(1) = 9.0\nEND\n",
        )
        .unwrap();
        assert!(!body_has_call(&u.body));
        let s = format!("{:?}", u.body);
        assert!(s.contains("\"X\""), "{s}");
    }

    #[test]
    fn recursion_detected() {
        let err = inline_src(
            "PROGRAM T\nCALL LOOPY\nEND\n\
             SUBROUTINE LOOPY\nCALL LOOPY\nEND\n",
        )
        .unwrap_err();
        assert!(err.message.contains("depth"), "{}", err.message);
    }

    #[test]
    fn arity_mismatch_reported() {
        let err = inline_src(
            "PROGRAM T\nREAL X(4)\nCALL F(X, X)\nEND\nSUBROUTINE F(A)\nA(1) = 0.0\nEND\n",
        )
        .unwrap_err();
        assert!(err.message.contains("arguments"), "{}", err.message);
    }

    #[test]
    fn unknown_subroutine_reported() {
        let err = inline_src("PROGRAM T\nCALL NOPE\nEND\n").unwrap_err();
        assert!(err.message.contains("no such SUBROUTINE"));
    }

    #[test]
    fn expression_actual_rejected() {
        let err = inline_src(
            "PROGRAM T\nREAL X(4)\nY = 1.0\nCALL F(Y + 1.0)\nEND\n\
             SUBROUTINE F(V)\nW = V\nEND\n",
        )
        .unwrap_err();
        assert!(err.message.contains("bare variable"), "{}", err.message);
    }

    #[test]
    fn subroutine_parameters_renamed_and_kept() {
        let u = inline_src(
            "PROGRAM T\nREAL X(6)\nCALL G(X)\nEND\n\
             SUBROUTINE G(A)\nPARAMETER (K = 3)\nA(K) = 1.0\nEND\n",
        )
        .unwrap();
        let decl_s = format!("{:?}", u.decls);
        assert!(decl_s.contains("__G_K"), "{decl_s}");
    }
}
