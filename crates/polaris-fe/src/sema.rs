//! Semantic analysis: symbol tables, `PARAMETER` folding, implicit
//! typing, declaration checking, constant folding.

use std::collections::HashMap;

use crate::ast::*;
use crate::FrontError;

/// Scalar types of F77-mini.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarType {
    Integer,
    Real,
}

impl From<BaseType> for ScalarType {
    fn from(b: BaseType) -> Self {
        match b {
            BaseType::Integer => ScalarType::Integer,
            BaseType::Real => ScalarType::Real,
        }
    }
}

/// Classic Fortran implicit typing: names starting I–N are INTEGER,
/// the rest REAL.
pub fn implicit_type(name: &str) -> ScalarType {
    match name.chars().next() {
        Some(c @ 'I'..='N') => {
            let _ = c;
            ScalarType::Integer
        }
        _ => ScalarType::Real,
    }
}

/// A declared array: column-major, unit lower bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayInfo {
    pub name: String,
    pub ty: ScalarType,
    /// Upper bound of each dimension.
    pub dims: Vec<i64>,
    /// Column-major linearisation multiplier per dimension:
    /// `offset = Σ (sub_j - 1) * mult_j`.
    pub mult: Vec<i64>,
    /// Total elements.
    pub len: i64,
}

/// A scalar variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalarInfo {
    pub name: String,
    pub ty: ScalarType,
}

/// The resolved symbol tables: `Expr::Var(Resolved(i))` indexes
/// `scalars`, `Expr::ArrayRef(Resolved(i), _)` indexes `arrays`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Symbols {
    pub scalars: Vec<ScalarInfo>,
    pub arrays: Vec<ArrayInfo>,
    /// Folded parameter values (for reporting).
    pub parameters: HashMap<String, ParamValue>,
}

/// A `PARAMETER` constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamValue {
    Int(i64),
    Real(f64),
}

impl Symbols {
    /// Find an array id by name.
    pub fn array_id(&self, name: &str) -> Option<usize> {
        self.arrays.iter().position(|a| a.name == name)
    }
}

/// Resolve a parsed unit: fold parameters (after applying
/// `overrides`), build symbol tables, rewrite all names to ids,
/// constant-fold.
pub fn resolve(
    unit: Unit,
    overrides: &[(&str, i64)],
) -> Result<(Program, Symbols), FrontError> {
    let mut r = Resolver {
        params: HashMap::new(),
        overrides: overrides
            .iter()
            .map(|&(n, v)| (n.to_ascii_uppercase(), v))
            .collect(),
        declared_types: HashMap::new(),
        array_dims: HashMap::new(),
        decl_order: Vec::new(),
        symbols: Symbols::default(),
        scalar_ids: HashMap::new(),
        array_ids: HashMap::new(),
    };
    r.collect_decls(&unit.decls)?;
    if let Some((name, _)) = overrides
        .iter()
        .find(|(n, _)| !r.params.contains_key(&n.to_ascii_uppercase()))
    {
        let mut declared: Vec<&str> = r.params.keys().map(String::as_str).collect();
        declared.sort_unstable();
        let declared = if declared.is_empty() {
            "none".to_string()
        } else {
            declared.join(", ")
        };
        return Err(FrontError::new(
            0,
            format!("no PARAMETER `{name}` to override (declared PARAMETERs: {declared})"),
        ));
    }
    r.build_arrays()?;
    let body = r.body(unit.body)?;
    r.symbols.parameters = r.params.clone();
    Ok((
        Program {
            name: unit.name,
            body,
        },
        r.symbols,
    ))
}

struct Resolver {
    params: HashMap<String, ParamValue>,
    overrides: HashMap<String, i64>,
    declared_types: HashMap<String, ScalarType>,
    array_dims: HashMap<String, (Vec<Expr>, usize)>,
    decl_order: Vec<String>,
    symbols: Symbols,
    scalar_ids: HashMap<String, usize>,
    array_ids: HashMap<String, usize>,
}

impl Resolver {
    fn collect_decls(&mut self, decls: &[Decl]) -> Result<(), FrontError> {
        for d in decls {
            match d {
                Decl::Parameter { assignments, line } => {
                    for (name, expr) in assignments {
                        let v = if let Some(&ov) = self.overrides.get(name) {
                            ParamValue::Int(ov)
                        } else {
                            self.const_eval(expr, *line)?
                        };
                        self.params.insert(name.clone(), v);
                    }
                }
                Decl::Type { base, items, line } => {
                    for item in items {
                        self.declared_types
                            .insert(item.name.clone(), ScalarType::from(*base));
                        if !item.dims.is_empty() {
                            self.note_array(item, *line)?;
                        } else {
                            self.decl_order.push(item.name.clone());
                        }
                    }
                }
                Decl::Dimension { items, line } => {
                    for item in items {
                        if item.dims.is_empty() {
                            return Err(FrontError::new(
                                *line,
                                format!("DIMENSION {} needs bounds", item.name),
                            ));
                        }
                        self.note_array(item, *line)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn note_array(&mut self, item: &DeclItem, line: usize) -> Result<(), FrontError> {
        if item.dims.len() > 3 {
            return Err(FrontError::new(
                line,
                format!("{}: at most 3 dimensions supported", item.name),
            ));
        }
        if self
            .array_dims
            .insert(item.name.clone(), (item.dims.clone(), line))
            .is_some()
        {
            return Err(FrontError::new(
                line,
                format!("array {} declared twice", item.name),
            ));
        }
        self.decl_order.push(item.name.clone());
        Ok(())
    }

    fn build_arrays(&mut self) -> Result<(), FrontError> {
        for name in self.decl_order.clone() {
            if let Some((dim_exprs, line)) = self.array_dims.get(&name).cloned() {
                let mut dims = Vec::with_capacity(dim_exprs.len());
                for e in &dim_exprs {
                    match self.const_eval(e, line)? {
                        ParamValue::Int(v) if v >= 1 => dims.push(v),
                        ParamValue::Int(v) => {
                            return Err(FrontError::new(
                                line,
                                format!("array {name}: non-positive bound {v}"),
                            ));
                        }
                        ParamValue::Real(_) => {
                            return Err(FrontError::new(
                                line,
                                format!("array {name}: bound must be an integer"),
                            ));
                        }
                    }
                }
                let mut mult = Vec::with_capacity(dims.len());
                let mut m = 1i64;
                for &d in &dims {
                    mult.push(m);
                    m = m
                        .checked_mul(d)
                        .ok_or_else(|| FrontError::new(line, format!("array {name} too large")))?;
                }
                let ty = self
                    .declared_types
                    .get(&name)
                    .copied()
                    .unwrap_or_else(|| implicit_type(&name));
                let id = self.symbols.arrays.len();
                self.symbols.arrays.push(ArrayInfo {
                    name: name.clone(),
                    ty,
                    dims,
                    mult,
                    len: m,
                });
                self.array_ids.insert(name, id);
            } else {
                // Declared scalar.
                self.scalar(&name);
            }
        }
        Ok(())
    }

    /// Id of a scalar, creating it (with implicit typing) on first use.
    fn scalar(&mut self, name: &str) -> usize {
        if let Some(&id) = self.scalar_ids.get(name) {
            return id;
        }
        let ty = self
            .declared_types
            .get(name)
            .copied()
            .unwrap_or_else(|| implicit_type(name));
        let id = self.symbols.scalars.len();
        self.symbols.scalars.push(ScalarInfo {
            name: name.to_string(),
            ty,
        });
        self.scalar_ids.insert(name.to_string(), id);
        id
    }

    fn const_eval(&self, e: &Expr, line: usize) -> Result<ParamValue, FrontError> {
        use ParamValue::*;
        Ok(match e {
            Expr::IntLit(v) => Int(*v),
            Expr::RealLit(v) => Real(*v),
            Expr::Var(SymRef::Named(n)) => *self.params.get(n).ok_or_else(|| {
                FrontError::new(line, format!("`{n}` is not a constant"))
            })?,
            Expr::Un(UnOp::Neg, inner) => match self.const_eval(inner, line)? {
                Int(v) => Int(-v),
                Real(v) => Real(-v),
            },
            Expr::Bin(op, a, b) => {
                let a = self.const_eval(a, line)?;
                let b = self.const_eval(b, line)?;
                const_bin(*op, a, b, line)?
            }
            _ => {
                return Err(FrontError::new(
                    line,
                    "unsupported constant expression".to_string(),
                ))
            }
        })
    }

    fn body(&mut self, stmts: Vec<Stmt>) -> Result<Vec<Stmt>, FrontError> {
        stmts.into_iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, s: Stmt) -> Result<Stmt, FrontError> {
        Ok(match s {
            Stmt::Assign {
                target,
                subscripts,
                value,
                line,
            } => {
                let name = match &target {
                    SymRef::Named(n) => n.clone(),
                    SymRef::Resolved(_) => unreachable!("sema runs once"),
                };
                let value = self.expr(value, line)?;
                if subscripts.is_empty() {
                    if self.params.contains_key(&name) {
                        return Err(FrontError::new(
                            line,
                            format!("cannot assign to PARAMETER `{name}`"),
                        ));
                    }
                    if self.array_ids.contains_key(&name) {
                        return Err(FrontError::new(
                            line,
                            format!("whole-array assignment to `{name}` unsupported"),
                        ));
                    }
                    let id = self.scalar(&name);
                    Stmt::Assign {
                        target: SymRef::Resolved(id),
                        subscripts: Vec::new(),
                        value,
                        line,
                    }
                } else {
                    let id = *self.array_ids.get(&name).ok_or_else(|| {
                        FrontError::new(line, format!("`{name}` used as array but not declared"))
                    })?;
                    let info = &self.symbols.arrays[id];
                    if subscripts.len() != info.dims.len() {
                        return Err(FrontError::new(
                            line,
                            format!(
                                "{name}: {} subscripts for {}-D array",
                                subscripts.len(),
                                info.dims.len()
                            ),
                        ));
                    }
                    let subscripts = subscripts
                        .into_iter()
                        .map(|e| self.expr(e, line))
                        .collect::<Result<_, _>>()?;
                    Stmt::Assign {
                        target: SymRef::Resolved(id),
                        subscripts,
                        value,
                        line,
                    }
                }
            }
            Stmt::Do { header, body, line } => {
                let var_name = match &header.var {
                    SymRef::Named(n) => n.clone(),
                    SymRef::Resolved(_) => unreachable!(),
                };
                if self.array_ids.contains_key(&var_name) || self.params.contains_key(&var_name) {
                    return Err(FrontError::new(
                        line,
                        format!("loop variable `{var_name}` must be a scalar"),
                    ));
                }
                let var = SymRef::Resolved(self.scalar(&var_name));
                let lo = self.expr(header.lo, line)?;
                let hi = self.expr(header.hi, line)?;
                let step = header.step.map(|e| self.expr(e, line)).transpose()?;
                let body = self.body(body)?;
                Stmt::Do {
                    header: DoHeader { var, lo, hi, step },
                    body,
                    line,
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                line,
            } => Stmt::If {
                cond: self.expr(cond, line)?,
                then_body: self.body(then_body)?,
                else_body: self.body(else_body)?,
                line,
            },
            Stmt::Continue { line } => Stmt::Continue { line },
            Stmt::Call { name, line, .. } => {
                return Err(FrontError::new(
                    line,
                    format!("CALL {name}: no such SUBROUTINE (inlining runs before sema)"),
                ))
            }
        })
    }

    fn expr(&mut self, e: Expr, line: usize) -> Result<Expr, FrontError> {
        Ok(match e {
            Expr::IntLit(_) | Expr::RealLit(_) => e,
            Expr::Var(SymRef::Named(n)) => {
                if let Some(v) = self.params.get(&n) {
                    match *v {
                        ParamValue::Int(i) => Expr::IntLit(i),
                        ParamValue::Real(r) => Expr::RealLit(r),
                    }
                } else if self.array_ids.contains_key(&n) {
                    return Err(FrontError::new(
                        line,
                        format!("array `{n}` used without subscripts"),
                    ));
                } else {
                    Expr::Var(SymRef::Resolved(self.scalar(&n)))
                }
            }
            Expr::Var(SymRef::Resolved(_)) => e,
            Expr::ArrayRef(SymRef::Named(n), subs) => {
                let id = *self.array_ids.get(&n).ok_or_else(|| {
                    FrontError::new(line, format!("`{n}` used as array but not declared"))
                })?;
                let info = &self.symbols.arrays[id];
                if subs.len() != info.dims.len() {
                    return Err(FrontError::new(
                        line,
                        format!(
                            "{n}: {} subscripts for {}-D array",
                            subs.len(),
                            info.dims.len()
                        ),
                    ));
                }
                let subs = subs
                    .into_iter()
                    .map(|s| self.expr(s, line))
                    .collect::<Result<_, _>>()?;
                Expr::ArrayRef(SymRef::Resolved(id), subs)
            }
            Expr::ArrayRef(SymRef::Resolved(_), _) => e,
            Expr::Un(op, inner) => fold_un(op, self.expr(*inner, line)?),
            Expr::Bin(op, a, b) => {
                fold_bin(op, self.expr(*a, line)?, self.expr(*b, line)?, line)?
            }
            Expr::Call(intr, args) => Expr::Call(
                intr,
                args.into_iter()
                    .map(|a| self.expr(a, line))
                    .collect::<Result<_, _>>()?,
            ),
        })
    }
}

fn const_bin(op: BinOp, a: ParamValue, b: ParamValue, line: usize) -> Result<ParamValue, FrontError> {
    use ParamValue::*;
    Ok(match (op, a, b) {
        (BinOp::Add, Int(x), Int(y)) => Int(x + y),
        (BinOp::Sub, Int(x), Int(y)) => Int(x - y),
        (BinOp::Mul, Int(x), Int(y)) => Int(x * y),
        (BinOp::Div, Int(x), Int(y)) if y != 0 => Int(x / y),
        (BinOp::Pow, Int(x), Int(y)) if y >= 0 => Int(x.pow(y.min(62) as u32)),
        (op, a, b) => {
            let fa = match a {
                Int(v) => v as f64,
                Real(v) => v,
            };
            let fb = match b {
                Int(v) => v as f64,
                Real(v) => v,
            };
            match op {
                BinOp::Add => Real(fa + fb),
                BinOp::Sub => Real(fa - fb),
                BinOp::Mul => Real(fa * fb),
                BinOp::Div => Real(fa / fb),
                BinOp::Pow => Real(fa.powf(fb)),
                _ => {
                    return Err(FrontError::new(
                        line,
                        "relational constant expressions unsupported".to_string(),
                    ))
                }
            }
        }
    })
}

/// Fold a unary op when the operand is a literal.
fn fold_un(op: UnOp, inner: Expr) -> Expr {
    match (op, &inner) {
        (UnOp::Neg, Expr::IntLit(v)) => Expr::IntLit(-v),
        (UnOp::Neg, Expr::RealLit(v)) => Expr::RealLit(-v),
        _ => Expr::Un(op, Box::new(inner)),
    }
}

/// Fold a binary op when both operands are literals.
fn fold_bin(op: BinOp, a: Expr, b: Expr, line: usize) -> Result<Expr, FrontError> {
    match (&a, &b) {
        (Expr::IntLit(x), Expr::IntLit(y)) => {
            let folded = match op {
                BinOp::Add => Some(x + y),
                BinOp::Sub => Some(x - y),
                BinOp::Mul => Some(x * y),
                BinOp::Div if *y != 0 => Some(x / y),
                BinOp::Pow if *y >= 0 => Some(x.pow((*y).min(62) as u32)),
                _ => None,
            };
            if let Some(v) = folded {
                return Ok(Expr::IntLit(v));
            }
        }
        (Expr::RealLit(x), Expr::RealLit(y)) => {
            let folded = match op {
                BinOp::Add => Some(x + y),
                BinOp::Sub => Some(x - y),
                BinOp::Mul => Some(x * y),
                BinOp::Div => Some(x / y),
                BinOp::Pow => Some(x.powf(*y)),
                _ => None,
            };
            if let Some(v) = folded {
                return Ok(Expr::RealLit(v));
            }
        }
        _ => {}
    }
    let _ = line;
    Ok(Expr::Bin(op, Box::new(a), Box::new(b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lexer::lex, parser::parse};

    fn front(src: &str, overrides: &[(&str, i64)]) -> (Program, Symbols) {
        resolve(parse(&lex(src).unwrap()).unwrap(), overrides).unwrap()
    }

    fn front_err(src: &str) -> FrontError {
        resolve(parse(&lex(src).unwrap()).unwrap(), &[]).unwrap_err()
    }

    fn scalar_id(sy: &Symbols, name: &str) -> usize {
        sy.scalars.iter().position(|s| s.name == name).unwrap()
    }

    #[test]
    fn parameters_fold_into_array_bounds() {
        let (_, sy) = front(
            "PROGRAM T\nPARAMETER (M = 3, N = 2**M)\nREAL A(N,N)\nA(1,1) = 0\nEND\n",
            &[],
        );
        assert_eq!(sy.arrays[0].dims, vec![8, 8]);
        assert_eq!(sy.arrays[0].len, 64);
        assert_eq!(sy.arrays[0].mult, vec![1, 8]);
    }

    #[test]
    fn parameter_overrides_win() {
        let (_, sy) = front(
            "PROGRAM T\nPARAMETER (N = 4)\nREAL A(N)\nA(1) = 0\nEND\n",
            &[("N", 16)],
        );
        assert_eq!(sy.arrays[0].len, 16);
    }

    #[test]
    fn override_of_an_undeclared_parameter_is_an_error() {
        let src = "PROGRAM T\nPARAMETER (N = 4, M = 2)\nREAL A(N)\nA(1) = 0\nEND\n";
        let unit = || parse(&lex(src).unwrap()).unwrap();
        for name in ["NN", ""] {
            let err = resolve(unit(), &[("N", 8), (name, 32)]).unwrap_err();
            assert!(err.message.contains(&format!("no PARAMETER `{name}`")), "{err}");
            assert!(err.message.contains("declared PARAMETERs: M, N"), "{err}");
        }
        // Names match case-insensitively, as the CLI and jobfiles pass them.
        assert!(resolve(unit(), &[("n", 8)]).is_ok());
        let none = resolve(parse(&lex("PROGRAM T\nX = 1\nEND\n").unwrap()).unwrap(), &[("N", 8)]);
        assert!(none.unwrap_err().message.contains("declared PARAMETERs: none"));
    }

    #[test]
    fn implicit_typing_rules() {
        assert_eq!(implicit_type("I"), ScalarType::Integer);
        assert_eq!(implicit_type("N"), ScalarType::Integer);
        assert_eq!(implicit_type("KOUNT"), ScalarType::Integer);
        assert_eq!(implicit_type("X"), ScalarType::Real);
        assert_eq!(implicit_type("ALPHA"), ScalarType::Real);
    }

    #[test]
    fn undeclared_scalars_get_implicit_types() {
        let (_, sy) = front("PROGRAM T\nX = 1\nI = 2\nEND\n", &[]);
        let x = scalar_id(&sy, "X");
        let i = scalar_id(&sy, "I");
        assert_eq!(sy.scalars[x].ty, ScalarType::Real);
        assert_eq!(sy.scalars[i].ty, ScalarType::Integer);
    }

    #[test]
    fn parameter_uses_fold_to_literals() {
        let (p, _) = front("PROGRAM T\nPARAMETER (N = 5)\nX = N + 1\nEND\n", &[]);
        match &p.body[0] {
            Stmt::Assign { value, .. } => assert_eq!(*value, Expr::IntLit(6)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn subscript_count_checked() {
        let err = front_err("PROGRAM T\nREAL A(4,4)\nA(1) = 0\nEND\n");
        assert!(err.message.contains("subscripts"));
    }

    #[test]
    fn undeclared_array_rejected() {
        let err = front_err("PROGRAM T\nA(1) = 0\nEND\n");
        assert!(err.message.contains("not declared"));
    }

    #[test]
    fn assigning_parameter_rejected() {
        let err = front_err("PROGRAM T\nPARAMETER (N = 4)\nN = 5\nEND\n");
        assert!(err.message.contains("PARAMETER"));
    }

    #[test]
    fn column_major_multipliers_3d() {
        let (_, sy) = front(
            "PROGRAM T\nREAL A(2,3,4)\nA(1,1,1) = 0\nEND\n",
            &[],
        );
        assert_eq!(sy.arrays[0].mult, vec![1, 2, 6]);
        assert_eq!(sy.arrays[0].len, 24);
    }

    #[test]
    fn real_parameters_supported() {
        let (p, _) = front(
            "PROGRAM T\nPARAMETER (PI = 3.5)\nX = PI * 2.0\nEND\n",
            &[],
        );
        match &p.body[0] {
            Stmt::Assign { value, .. } => assert_eq!(*value, Expr::RealLit(7.0)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dimension_plus_type_declaration() {
        let (_, sy) = front(
            "PROGRAM T\nINTEGER K\nDIMENSION K(10)\nK(1) = 0\nEND\n",
            &[],
        );
        assert_eq!(sy.arrays[0].ty, ScalarType::Integer);
        assert_eq!(sy.arrays[0].len, 10);
    }

    #[test]
    fn loop_variable_resolves_to_scalar() {
        let (p, sy) = front("PROGRAM T\nDO I = 1, 4\nX = I\nENDDO\nEND\n", &[]);
        match &p.body[0] {
            Stmt::Do { header, .. } => {
                assert_eq!(header.var, SymRef::Resolved(scalar_id(&sy, "I")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
