//! Integer index expressions.
//!
//! Tensor IR operates on *static* shapes — the paper's "optimization for
//! static tensor shapes" — so every extent and stride is a compile-time
//! constant and expressions only combine constants with loop variables.

use std::fmt;

/// Identifier of a scalar loop/index variable within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub usize);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An integer expression over constants and variables.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Integer constant.
    Const(i64),
    /// Loop/index variable.
    Var(VarId),
    /// Sum.
    Add(Box<Expr>, Box<Expr>),
    /// Product.
    Mul(Box<Expr>, Box<Expr>),
    /// Truncating division.
    Div(Box<Expr>, Box<Expr>),
    /// Remainder.
    Rem(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience constant.
    pub fn c(v: i64) -> Expr {
        Expr::Const(v)
    }

    /// Convenience variable.
    pub fn v(id: VarId) -> Expr {
        Expr::Var(id)
    }

    /// `self + rhs`, folding constants.
    #[allow(clippy::should_implement_trait)] // builder API with const-folding, not `std::ops::Add`
    pub fn add(self, rhs: Expr) -> Expr {
        match (&self, &rhs) {
            (Expr::Const(0), _) => rhs,
            (_, Expr::Const(0)) => self,
            (Expr::Const(a), Expr::Const(b)) => Expr::Const(a + b),
            _ => Expr::Add(Box::new(self), Box::new(rhs)),
        }
    }

    /// `self * rhs`, folding constants.
    #[allow(clippy::should_implement_trait)] // builder API with const-folding, not `std::ops::Mul`
    pub fn mul(self, rhs: Expr) -> Expr {
        match (&self, &rhs) {
            (Expr::Const(0), _) | (_, Expr::Const(0)) => Expr::Const(0),
            (Expr::Const(1), _) => rhs,
            (_, Expr::Const(1)) => self,
            (Expr::Const(a), Expr::Const(b)) => Expr::Const(a * b),
            _ => Expr::Mul(Box::new(self), Box::new(rhs)),
        }
    }

    /// `self / rhs` (truncating), folding a divisor of 1 and two
    /// constants.
    #[allow(clippy::should_implement_trait)] // builder API with const-folding, not `std::ops::Div`
    pub fn div(self, rhs: Expr) -> Expr {
        match (&self, &rhs) {
            (_, Expr::Const(1)) => self,
            (Expr::Const(a), Expr::Const(b)) if *b != 0 => Expr::Const(a / b),
            _ => Expr::Div(Box::new(self), Box::new(rhs)),
        }
    }

    /// `self % rhs`, folding a divisor of 1 and two constants.
    #[allow(clippy::should_implement_trait)] // builder API with const-folding, not `std::ops::Rem`
    pub fn rem(self, rhs: Expr) -> Expr {
        match (&self, &rhs) {
            (_, Expr::Const(1)) => Expr::Const(0),
            (Expr::Const(a), Expr::Const(b)) if *b != 0 => Expr::Const(a % b),
            _ => Expr::Rem(Box::new(self), Box::new(rhs)),
        }
    }

    /// Evaluate with variable values from `vars` (indexed by [`VarId`]).
    ///
    /// # Panics
    ///
    /// Panics if a variable is out of range or on division by zero.
    pub fn eval(&self, vars: &[i64]) -> i64 {
        match self {
            Expr::Const(v) => *v,
            Expr::Var(v) => vars[v.0],
            Expr::Add(a, b) => a.eval(vars) + b.eval(vars),
            Expr::Mul(a, b) => a.eval(vars) * b.eval(vars),
            Expr::Div(a, b) => a.eval(vars) / b.eval(vars),
            Expr::Rem(a, b) => a.eval(vars) % b.eval(vars),
        }
    }

    /// Whether the expression mentions `var`.
    pub fn uses(&self, var: VarId) -> bool {
        match self {
            Expr::Const(_) => false,
            Expr::Var(v) => *v == var,
            Expr::Add(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) | Expr::Rem(a, b) => {
                a.uses(var) || b.uses(var)
            }
        }
    }

    /// Substitute `var` with `with`.
    pub fn subst(&self, var: VarId, with: &Expr) -> Expr {
        match self {
            Expr::Const(_) => self.clone(),
            Expr::Var(v) => {
                if *v == var {
                    with.clone()
                } else {
                    self.clone()
                }
            }
            Expr::Add(a, b) => a.subst(var, with).add(b.subst(var, with)),
            Expr::Mul(a, b) => a.subst(var, with).mul(b.subst(var, with)),
            Expr::Div(a, b) => a.subst(var, with).div(b.subst(var, with)),
            Expr::Rem(a, b) => a.subst(var, with).rem(b.subst(var, with)),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Div(a, b) => write!(f, "({a} / {b})"),
            Expr::Rem(a, b) => write!(f, "({a} % {b})"),
        }
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Expr {
        Expr::Const(v)
    }
}

impl From<usize> for Expr {
    fn from(v: usize) -> Expr {
        Expr::Const(v as i64)
    }
}

impl From<VarId> for Expr {
    fn from(v: VarId) -> Expr {
        Expr::Var(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folding_constructors() {
        assert_eq!(Expr::c(2).add(Expr::c(3)), Expr::c(5));
        assert_eq!(Expr::c(2).mul(Expr::c(3)), Expr::c(6));
        assert_eq!(Expr::v(VarId(0)).mul(Expr::c(0)), Expr::c(0));
        assert_eq!(Expr::v(VarId(0)).add(Expr::c(0)), Expr::v(VarId(0)));
        assert_eq!(Expr::v(VarId(0)).mul(Expr::c(1)), Expr::v(VarId(0)));
        assert_eq!(Expr::v(VarId(0)).div(Expr::c(1)), Expr::v(VarId(0)));
        assert_eq!(Expr::v(VarId(0)).rem(Expr::c(1)), Expr::c(0));
        assert_eq!(Expr::c(7).div(Expr::c(2)), Expr::c(3));
        assert_eq!(Expr::c(7).rem(Expr::c(2)), Expr::c(1));
        // a zero divisor is left for the validator to reject
        assert!(matches!(Expr::c(7).div(Expr::c(0)), Expr::Div(..)));
        assert_eq!(
            Expr::v(VarId(0)).div(Expr::c(4)).to_string(),
            "(v0 / 4)",
            "a variable over a divisor > 1 stays"
        );
    }

    #[test]
    fn eval_with_vars() {
        // v0 * 8 + v1
        let e = Expr::v(VarId(0)).mul(Expr::c(8)).add(Expr::v(VarId(1)));
        assert_eq!(e.eval(&[3, 2]), 26);
    }

    #[test]
    fn uses_detects_vars() {
        let e = Expr::v(VarId(0)).mul(Expr::c(8)).add(Expr::v(VarId(1)));
        assert!(e.uses(VarId(0)));
        assert!(e.uses(VarId(1)));
        assert!(!e.uses(VarId(2)));
    }

    #[test]
    fn subst_replaces_and_folds() {
        let e = Expr::v(VarId(0)).mul(Expr::c(8)).add(Expr::c(4));
        let s = e.subst(VarId(0), &Expr::c(2));
        assert_eq!(s, Expr::c(20));
        // (v0 / 4) % v1 with v0 = 9, v1 = 1: both fold
        let e = Expr::v(VarId(0)).div(Expr::c(4)).rem(Expr::v(VarId(1)));
        let s = e.subst(VarId(0), &Expr::c(9)).subst(VarId(1), &Expr::c(1));
        assert_eq!(s, Expr::c(0));
    }

    #[test]
    fn display_round_trip_shape() {
        let e = Expr::v(VarId(0)).mul(Expr::c(8)).add(Expr::v(VarId(1)));
        assert_eq!(e.to_string(), "((v0 * 8) + v1)");
    }

    #[test]
    fn div_rem_eval() {
        let e = Expr::Div(Box::new(Expr::c(7)), Box::new(Expr::c(2)));
        assert_eq!(e.eval(&[]), 3);
        let e = Expr::Rem(Box::new(Expr::c(7)), Box::new(Expr::c(2)));
        assert_eq!(e.eval(&[]), 1);
    }
}
