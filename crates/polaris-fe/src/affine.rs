//! Affine forms over integer scalars: the bridge from subscript
//! expressions to LMAD strides.
//!
//! An [`Affine`] is `konst + Σ coeff_v · v` over scalar symbol ids.
//! Subscript analysis lowers each array reference's linearised offset
//! to this form; loop-variable coefficients then become LMAD strides.

use std::collections::BTreeMap;

use crate::ast::{BinOp, Expr, SymRef, UnOp};

/// `konst + Σ terms[v] · v` (terms with zero coefficient are absent).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct Affine {
    pub konst: i64,
    pub terms: BTreeMap<usize, i64>,
}

impl Affine {
    /// The constant form.
    pub(crate) fn constant(c: i64) -> Self {
        Affine {
            konst: c,
            terms: BTreeMap::new(),
        }
    }

    /// The single-variable form `v`.
    pub(crate) fn var(id: usize) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(id, 1);
        Affine { konst: 0, terms }
    }

    /// Is this a bare constant?
    pub(crate) fn as_const(&self) -> Option<i64> {
        self.terms.is_empty().then_some(self.konst)
    }

    /// Coefficient of variable `id` (0 when absent).
    pub(crate) fn coeff(&self, id: usize) -> i64 {
        self.terms.get(&id).copied().unwrap_or(0)
    }

    /// Variables with non-zero coefficients.
    pub(crate) fn vars(&self) -> impl Iterator<Item = usize> + '_ {
        self.terms.keys().copied()
    }

    /// `self + other`.
    pub(crate) fn add(&self, other: &Affine) -> Affine {
        let mut out = self.clone();
        out.konst += other.konst;
        for (&v, &c) in &other.terms {
            let e = out.terms.entry(v).or_insert(0);
            *e += c;
            if *e == 0 {
                out.terms.remove(&v);
            }
        }
        out
    }

    /// `self - other`.
    pub(crate) fn sub(&self, other: &Affine) -> Affine {
        self.add(&other.scale(-1))
    }

    /// `self * k`.
    pub(crate) fn scale(&self, k: i64) -> Affine {
        if k == 0 {
            return Affine::constant(0);
        }
        Affine {
            konst: self.konst * k,
            terms: self.terms.iter().map(|(&v, &c)| (v, c * k)).collect(),
        }
    }

    /// Lower an integer-valued expression to affine form. Returns
    /// `None` for anything non-affine (products of variables, division,
    /// reals, array references, intrinsics).
    pub(crate) fn from_expr(e: &Expr) -> Option<Affine> {
        match e {
            Expr::IntLit(v) => Some(Affine::constant(*v)),
            Expr::Var(SymRef::Resolved(id)) => Some(Affine::var(*id)),
            Expr::Var(SymRef::Named(_)) => None,
            Expr::Un(UnOp::Neg, inner) => Some(Affine::from_expr(inner)?.scale(-1)),
            Expr::Un(UnOp::Not, _) => None,
            Expr::Bin(BinOp::Add, a, b) => {
                Some(Affine::from_expr(a)?.add(&Affine::from_expr(b)?))
            }
            Expr::Bin(BinOp::Sub, a, b) => {
                Some(Affine::from_expr(a)?.sub(&Affine::from_expr(b)?))
            }
            Expr::Bin(BinOp::Mul, a, b) => {
                let fa = Affine::from_expr(a)?;
                let fb = Affine::from_expr(b)?;
                match (fa.as_const(), fb.as_const()) {
                    (Some(c), _) => Some(fb.scale(c)),
                    (_, Some(c)) => Some(fa.scale(c)),
                    _ => None,
                }
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(id: usize) -> Expr {
        Expr::Var(SymRef::Resolved(id))
    }

    #[test]
    fn lowers_linear_subscripts() {
        // 2*I - 1
        let e = Expr::Bin(
            BinOp::Sub,
            Box::new(Expr::Bin(
                BinOp::Mul,
                Box::new(Expr::IntLit(2)),
                Box::new(var(0)),
            )),
            Box::new(Expr::IntLit(1)),
        );
        let a = Affine::from_expr(&e).unwrap();
        assert_eq!(a.konst, -1);
        assert_eq!(a.coeff(0), 2);
    }

    #[test]
    fn rejects_nonlinear() {
        // I * J
        let e = Expr::Bin(BinOp::Mul, Box::new(var(0)), Box::new(var(1)));
        assert!(Affine::from_expr(&e).is_none());
        // I / 2
        let e = Expr::Bin(BinOp::Div, Box::new(var(0)), Box::new(Expr::IntLit(2)));
        assert!(Affine::from_expr(&e).is_none());
    }

    #[test]
    fn arithmetic_cancels_terms() {
        let a = Affine::var(0).add(&Affine::var(1));
        let b = a.sub(&Affine::var(1));
        assert_eq!(b, Affine::var(0));
        assert!(!b.terms.contains_key(&1));
    }

    #[test]
    fn scale_by_zero_is_constant_zero() {
        assert_eq!(Affine::var(3).scale(0), Affine::constant(0));
    }
}
