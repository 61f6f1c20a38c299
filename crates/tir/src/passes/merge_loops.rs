//! Mechanical merging of adjacent parallel loops.
//!
//! "When the coarse-grain fusion optimization decides to merge two fused
//! ops, it marks the two nested loops in Tensor IR as 'mergeable' during
//! the lowering process. Then Tensor IR merges two nested loops
//! mechanically as guided by the Graph IR optimizations."
//!
//! The lowering emits one top-level parallel loop per fused op; for a
//! coarse-fusion group it emits them adjacently in one function with
//! identical trip counts. This pass fuses such runs into a single
//! parallel loop, eliminating the intermediate barriers and letting each
//! core's slice of the intermediate tensor stay hot in its cache.

use crate::ir::{Func, Stmt};

/// Result of the merge pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeStats {
    /// Parallel loops before merging.
    pub before: usize,
    /// Parallel loops after merging.
    pub after: usize,
}

/// Merge adjacent top-level parallel loops with equal trip counts. The
/// later loop's variable is renamed to the earlier one's.
///
/// Correctness relies on the Graph IR coarse-fusion guarantee: iteration
/// `i` of a later loop reads only data produced by iteration `i` of the
/// earlier loops (the same row slice).
pub fn merge_parallel_loops(func: &mut Func) -> MergeStats {
    let stmts = std::mem::take(&mut func.body);
    let before = stmts
        .iter()
        .filter(|s| matches!(s, Stmt::For { parallel: true, .. }))
        .count();
    let mut out: Vec<Stmt> = Vec::with_capacity(stmts.len());
    for s in stmts {
        match (&mut out.last_mut(), s) {
            (
                Some(Stmt::For {
                    var: v1,
                    extent: e1,
                    parallel: true,
                    body: b1,
                }),
                Stmt::For {
                    var: v2,
                    extent: e2,
                    parallel: true,
                    body: b2,
                },
            ) if *e1 == e2 => {
                // rename v2 -> v1 in b2 and append
                let renamed = rename_var_in_stmts(b2, v2, *v1);
                b1.extend(renamed);
            }
            (_, other) => out.push(other),
        }
    }
    let after = out
        .iter()
        .filter(|s| matches!(s, Stmt::For { parallel: true, .. }))
        .count();
    func.body = out;
    MergeStats { before, after }
}

fn rename_var_in_stmts(
    mut stmts: Vec<Stmt>,
    from: crate::expr::VarId,
    to: crate::expr::VarId,
) -> Vec<Stmt> {
    let with = crate::expr::Expr::Var(to);
    crate::visit::visit_intrinsics_mut(&mut stmts, &mut |i| {
        i.map_exprs(|e| e.subst(from, &with));
    });
    stmts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Expr, VarId};
    use crate::ir::{BufDecl, BufId, Intrinsic, View};
    use gc_microkernel::UnaryOp;
    use gc_tensor::DataType;

    fn unary_on(v: VarId, buf: usize) -> Stmt {
        Stmt::Op(Intrinsic::new(
            crate::ir::unary_chain(UnaryOp::Relu, 4),
            [
                View::new(BufId::Param(buf), Expr::v(v).mul(Expr::c(4)), 4),
                View::new(BufId::Param(buf), Expr::v(v).mul(Expr::c(4)), 4),
            ],
            [],
        ))
    }

    fn func_with(body: Vec<Stmt>, var_count: usize) -> Func {
        Func {
            name: "f".into(),
            params: vec![
                BufDecl::new(DataType::F32, 64, "a"),
                BufDecl::new(DataType::F32, 64, "b"),
            ],
            locals: vec![],
            var_count,
            body,
        }
    }

    #[test]
    fn merges_equal_extent_parallel_loops() {
        let (v0, v1) = (VarId(0), VarId(1));
        let mut f = func_with(
            vec![
                Stmt::parallel(v0, 8, vec![unary_on(v0, 0)]),
                Stmt::parallel(v1, 8, vec![unary_on(v1, 1)]),
            ],
            2,
        );
        let stats = merge_parallel_loops(&mut f);
        assert_eq!(
            stats,
            MergeStats {
                before: 2,
                after: 1
            }
        );
        // single loop with both bodies, second renamed to v0
        let Stmt::For { body, .. } = &f.body[0] else {
            panic!()
        };
        assert_eq!(body.len(), 2);
        let Stmt::Op(i) = &body[1] else { panic!() };
        assert!(i.operands[0].offset.uses(v0));
        assert!(!i.operands[0].offset.uses(v1));
    }

    #[test]
    fn different_extents_not_merged() {
        let (v0, v1) = (VarId(0), VarId(1));
        let mut f = func_with(
            vec![
                Stmt::parallel(v0, 8, vec![unary_on(v0, 0)]),
                Stmt::parallel(v1, 4, vec![unary_on(v1, 1)]),
            ],
            2,
        );
        let stats = merge_parallel_loops(&mut f);
        assert_eq!(stats.after, 2);
    }

    #[test]
    fn serial_loops_untouched() {
        let (v0, v1) = (VarId(0), VarId(1));
        let mut f = func_with(
            vec![
                Stmt::loop_(v0, 8, vec![unary_on(v0, 0)]),
                Stmt::loop_(v1, 8, vec![unary_on(v1, 1)]),
            ],
            2,
        );
        merge_parallel_loops(&mut f);
        assert_eq!(f.body.len(), 2);
    }

    #[test]
    fn three_way_merge() {
        let (v0, v1, v2) = (VarId(0), VarId(1), VarId(2));
        let mut f = func_with(
            vec![
                Stmt::parallel(v0, 4, vec![unary_on(v0, 0)]),
                Stmt::parallel(v1, 4, vec![unary_on(v1, 1)]),
                Stmt::parallel(v2, 4, vec![unary_on(v2, 0)]),
            ],
            3,
        );
        let stats = merge_parallel_loops(&mut f);
        assert_eq!(
            stats,
            MergeStats {
                before: 3,
                after: 1
            }
        );
    }
}
