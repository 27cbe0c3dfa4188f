//! Runtime scalar values at the API boundary: Fortran INTEGER/REAL.
//!
//! Execution is statically typed ([`crate::lowered`]); a tagged
//! [`Value`] exists where scalars leave or enter the runtime — run
//! reports, snapshots — and in the `#[cfg(test)]` tree-walking oracle,
//! which is also the only user of the tagged arithmetic below.

use vpce_faults::VpceError;

use crate::lowered::Eval;
#[cfg(test)]
use crate::lowered::division_by_zero;

/// A scalar slot's value, tagged with its declared type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    I(i64),
    R(f64),
}

/// A REAL used where an INTEGER is required (subscript, loop bound).
///
/// INTEGER *arrays* are stored in the same f64 windows as REAL ones,
/// so an integral-valued REAL (e.g. `IDX(I)` read back from an integer
/// array) converts exactly.
///
/// A fractional REAL is a [`VpceError::TypeViolation`] — the
/// translator only emits integer-valued expressions in integer
/// positions, so this indicates a compiler bug, not a user error.
pub(crate) fn exact_int(v: f64) -> Eval<i64> {
    if v.fract() == 0.0 && v.abs() < 2f64.powi(53) {
        return Ok(v as i64);
    }
    Err(Box::new(VpceError::TypeViolation {
        msg: format!("REAL value {v} used where INTEGER required"),
    }))
}

impl Value {
    /// Numeric view as f64 (Fortran implicit conversion).
    pub fn as_real(self) -> f64 {
        match self {
            Value::I(v) => v as f64,
            Value::R(v) => v,
        }
    }
}

/// Tagged arithmetic, Fortran semantics: INTEGER÷INTEGER truncates,
/// mixed operands promote to REAL. The oracle's half of the
/// differential test against the lowered form.
#[cfg(test)]
#[allow(clippy::should_implement_trait)] // Fortran semantics, deliberately not std ops
impl Value {
    /// Integer view; see [`exact_int`] for a REAL.
    pub fn as_int(self) -> Eval<i64> {
        match self {
            Value::I(v) => Ok(v),
            Value::R(v) => exact_int(v),
        }
    }

    /// Truth view (relational results are stored as I(0)/I(1)).
    pub fn is_true(self) -> bool {
        match self {
            Value::I(v) => v != 0,
            Value::R(v) => v != 0.0,
        }
    }

    fn bool(b: bool) -> Value {
        Value::I(b as i64)
    }

    pub fn add(self, o: Value) -> Value {
        match (self, o) {
            (Value::I(a), Value::I(b)) => Value::I(a.wrapping_add(b)),
            _ => Value::R(self.as_real() + o.as_real()),
        }
    }

    pub fn sub(self, o: Value) -> Value {
        match (self, o) {
            (Value::I(a), Value::I(b)) => Value::I(a.wrapping_sub(b)),
            _ => Value::R(self.as_real() - o.as_real()),
        }
    }

    pub fn mul(self, o: Value) -> Value {
        match (self, o) {
            (Value::I(a), Value::I(b)) => Value::I(a.wrapping_mul(b)),
            _ => Value::R(self.as_real() * o.as_real()),
        }
    }

    /// Fortran division: INTEGER/INTEGER truncates toward zero.
    pub fn div(self, o: Value) -> Eval<Value> {
        Ok(match (self, o) {
            (Value::I(_), Value::I(0)) => return division_by_zero(),
            (Value::I(a), Value::I(b)) => Value::I(a.wrapping_div(b)),
            _ => Value::R(self.as_real() / o.as_real()),
        })
    }

    /// Fortran `**`. INTEGER ** INTEGER stays INTEGER: a negative
    /// exponent is the truncated reciprocal.
    pub fn pow(self, o: Value) -> Eval<Value> {
        Ok(match (self, o) {
            (Value::I(a), Value::I(b)) if b >= 0 => Value::I(a.wrapping_pow(b.min(62) as u32)),
            (Value::I(0), Value::I(_)) => return division_by_zero(),
            (Value::I(a), Value::I(b)) => Value::I(match a {
                1 => 1,
                -1 if b % 2 == 0 => 1,
                -1 => -1,
                _ => 0,
            }),
            _ => Value::R(self.as_real().powf(o.as_real())),
        })
    }

    pub fn neg(self) -> Value {
        match self {
            Value::I(v) => Value::I(v.wrapping_neg()),
            Value::R(v) => Value::R(-v),
        }
    }

    pub fn and(self, o: Value) -> Value {
        Value::bool(self.is_true() && o.is_true())
    }
    pub fn or(self, o: Value) -> Value {
        Value::bool(self.is_true() || o.is_true())
    }
    pub fn not(self) -> Value {
        Value::bool(!self.is_true())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::BinOp;

    #[test]
    fn integer_division_truncates() {
        assert_eq!(Value::I(7).div(Value::I(2)), Ok(Value::I(3)));
        assert_eq!(Value::I(-7).div(Value::I(2)), Ok(Value::I(-3)));
    }

    #[test]
    fn mixed_arithmetic_promotes() {
        assert_eq!(Value::I(1).add(Value::R(0.5)), Value::R(1.5));
        assert_eq!(Value::I(7).div(Value::R(2.0)), Ok(Value::R(3.5)));
    }

    #[test]
    fn integer_pow() {
        assert_eq!(Value::I(2).pow(Value::I(10)), Ok(Value::I(1024)));
        assert_eq!(Value::R(2.0).pow(Value::I(3)), Ok(Value::R(8.0)));
    }

    #[test]
    fn relational_yields_int_bool() {
        let lt = |x, y| crate::oracle::relational(BinOp::Lt, x, y);
        assert_eq!(lt(Value::I(1), Value::I(2)), Value::I(1));
        assert_eq!(lt(Value::R(2.0), Value::I(1)), Value::I(0));
        assert!(Value::I(1).is_true());
        assert!(!Value::I(0).is_true());
    }

    #[test]
    fn fractional_real_as_int_raises_type_violation() {
        match *Value::R(1.5).as_int().unwrap_err() {
            VpceError::TypeViolation { msg } => assert!(msg.contains("INTEGER required")),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn integer_division_by_zero_raises_type_violation() {
        match *Value::I(1).div(Value::I(0)).unwrap_err() {
            VpceError::TypeViolation { msg } => assert!(msg.contains("division by zero")),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn integral_real_as_int_converts_exactly() {
        // INTEGER arrays live in f64 windows; their values round-trip.
        assert_eq!(Value::R(42.0).as_int(), Ok(42));
        assert_eq!(Value::R(-7.0).as_int(), Ok(-7));
    }
}
