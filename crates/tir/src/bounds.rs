//! Interval analysis over loop scopes, shared by the plan builder
//! (bounds hoisting) and the validator (bounds policing) so their
//! verdicts agree by construction.

use crate::expr::{Expr, VarId};

/// The inclusive interval of every loop variable at the current point of
/// a walk over a function body, maintained scope-wise: `[0, 0]` before
/// any binding (the variable scratch is zeroed), `[0, extent-1]` inside
/// a binding loop, pinned to `[extent-1, extent-1]` after a serial loop,
/// and the hull of both after a parallel loop (whose serial fallback —
/// one thread or trip count 1 — mutates the variable, while the
/// dispatched form does not).
pub(crate) struct VarScope {
    iv: Vec<(i64, i64)>,
    /// Bound by some loop already executed or enclosing.
    bound: Vec<bool>,
    /// Currently bound by an *enclosing* loop.
    active: Vec<bool>,
}

/// What [`VarScope::enter`] displaced, handed back to [`VarScope::exit`].
pub(crate) struct Saved {
    iv: (i64, i64),
    bound: bool,
}

impl VarScope {
    pub(crate) fn new(var_count: usize) -> VarScope {
        VarScope {
            iv: vec![(0, 0); var_count],
            bound: vec![false; var_count],
            active: vec![false; var_count],
        }
    }

    /// Whether `v` is a declared variable some loop has bound by now.
    pub(crate) fn is_bound(&self, v: usize) -> bool {
        self.bound.get(v).copied().unwrap_or(false)
    }

    /// Whether an enclosing loop currently binds `v`.
    pub(crate) fn is_active(&self, v: usize) -> bool {
        self.active.get(v).copied().unwrap_or(false)
    }

    /// Enter the body of `for var in 0..extent`, or `None` when `var`
    /// is not a declared variable.
    pub(crate) fn enter(&mut self, var: VarId, extent: usize) -> Option<Saved> {
        let v = var.0;
        let saved = Saved {
            iv: *self.iv.get(v)?,
            bound: self.bound[v],
        };
        self.iv[v] = (0, (extent as i64 - 1).max(0));
        self.bound[v] = true;
        self.active[v] = true;
        Some(saved)
    }

    /// Leave the loop entered with the matching [`VarScope::enter`].
    pub(crate) fn exit(&mut self, var: VarId, extent: usize, parallel: bool, saved: Saved) {
        let v = var.0;
        let last = extent as i64 - 1;
        self.active[v] = false;
        if extent == 0 {
            // zero-trip loop never touches the variable
            self.iv[v] = saved.iv;
            self.bound[v] = saved.bound;
        } else if parallel {
            // dispatched: untouched; serial fallback: pinned to `last`
            self.iv[v] = (saved.iv.0.min(last), saved.iv.1.max(last));
        } else {
            self.iv[v] = (last, last);
        }
    }

    /// Interval of `e` at the current point (see [`interval`]).
    pub(crate) fn interval(&self, e: &Expr) -> Option<(i64, i64)> {
        interval(e, &self.iv)
    }
}

/// Interval of `e` over the box `var_iv[v].0 <= vars[v] <= var_iv[v].1`,
/// or `None` when it cannot be bounded (division by a possibly-
/// nonpositive value, remainder of a possibly-negative numerator,
/// arithmetic overflow).
pub(crate) fn interval(e: &Expr, var_iv: &[(i64, i64)]) -> Option<(i64, i64)> {
    match e {
        Expr::Const(c) => Some((*c, *c)),
        Expr::Var(VarId(v)) => Some(var_iv.get(*v).copied().unwrap_or((0, 0))),
        Expr::Add(a, b) => {
            let (al, ah) = interval(a, var_iv)?;
            let (bl, bh) = interval(b, var_iv)?;
            Some((al.checked_add(bl)?, ah.checked_add(bh)?))
        }
        Expr::Mul(a, b) => {
            let (al, ah) = interval(a, var_iv)?;
            let (bl, bh) = interval(b, var_iv)?;
            corner_bounds(al, ah, bl, bh, i64::checked_mul)
        }
        Expr::Div(a, b) => {
            let (al, ah) = interval(a, var_iv)?;
            let (bl, bh) = interval(b, var_iv)?;
            if bl <= 0 {
                return None; // divisor may be zero or negative
            }
            // Truncating division by a positive divisor is monotone in
            // the numerator and anti-/monotone in the divisor per
            // numerator sign, so extremes sit at box corners.
            corner_bounds(al, ah, bl, bh, |x, d| Some(x / d))
        }
        Expr::Rem(a, b) => {
            let (al, ah) = interval(a, var_iv)?;
            let (bl, bh) = interval(b, var_iv)?;
            if bl <= 0 || al < 0 {
                return None;
            }
            Some((0, (bh - 1).min(ah)))
        }
    }
}

fn corner_bounds(
    al: i64,
    ah: i64,
    bl: i64,
    bh: i64,
    f: impl Fn(i64, i64) -> Option<i64>,
) -> Option<(i64, i64)> {
    let mut lo = i64::MAX;
    let mut hi = i64::MIN;
    for x in [al, ah] {
        for y in [bl, bh] {
            let v = f(x, y)?;
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    Some((lo, hi))
}
