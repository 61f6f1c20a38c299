//! Traversal helpers over Tensor IR.

use crate::expr::Expr;
use crate::ir::{BufId, Footprint, Intrinsic, OpDesc, Role, Stmt};

/// An access to a buffer: the window plus whether it is written.
#[derive(Debug, Clone)]
pub struct Access {
    /// Buffer accessed.
    pub buf: BufId,
    /// Element offset expression.
    pub offset: Expr,
    /// Window length.
    pub len: usize,
    /// True if the access writes (accumulators included).
    pub write: bool,
}

/// Enumerate the buffer accesses an intrinsic performs over all of its
/// iterations: the static envelope of its descriptor.
pub fn intrinsic_accesses(i: &Intrinsic) -> Vec<Access> {
    accesses_of(i, &i.op.desc(None))
}

/// Expand a descriptor of `i.op` (static, or resolved against one
/// call's clamp bases) into accesses: one per operand, except that
/// brgemm batches are reported tile by tile, interleaved A0 B0 A1 B1 …
/// in the order the kernel streams them.
///
/// # Panics
///
/// Panics if `i`'s operand count disagrees with the descriptor (see
/// [`Intrinsic::arity_ok`]).
pub fn accesses_of(i: &Intrinsic, desc: &OpDesc) -> Vec<Access> {
    let specs = desc.operands();
    assert_eq!(i.operands.len(), specs.len(), "{:?}: operand count", i.op);
    let access = |k: usize, rel: usize, len: usize| Access {
        buf: i.operands[k].buf,
        offset: i.operands[k]
            .offset
            .clone()
            .add(Expr::from(specs[k].shift + rel)),
        len,
        write: specs[k].role != Role::Read,
    };
    let mut out = Vec::new();
    let tiles = specs.iter().map(|s| match s.footprint {
        Footprint::Tiles { count, .. } => count,
        _ => 0,
    });
    for t in 0..tiles.max().unwrap_or(0) {
        for (k, s) in specs.iter().enumerate() {
            if let Footprint::Tiles { count, stride, len } = s.footprint {
                if t < count {
                    out.push(access(k, t * stride, len));
                }
            }
        }
    }
    for (k, s) in specs.iter().enumerate() {
        if !matches!(s.footprint, Footprint::Tiles { .. }) {
            out.push(access(k, 0, s.footprint.span()));
        }
    }
    out
}

/// Visit every intrinsic in a statement tree.
pub fn visit_intrinsics<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a Intrinsic)) {
    for s in stmts {
        match s {
            Stmt::For { body, .. } => visit_intrinsics(body, f),
            Stmt::Op(i) => f(i),
        }
    }
}

/// Visit every intrinsic in a statement tree, mutably (buffer renames,
/// offset rewrites).
pub fn visit_intrinsics_mut(stmts: &mut [Stmt], f: &mut impl FnMut(&mut Intrinsic)) {
    for s in stmts {
        match s {
            Stmt::For { body, .. } => visit_intrinsics_mut(body, f),
            Stmt::Op(i) => f(i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::VarId;
    use crate::ir::{Brgemm, Op, View};
    use gc_microkernel::UnaryOp;

    #[test]
    fn map_exprs_substitutes_offsets() {
        let mut i = Intrinsic::new(
            crate::ir::unary_chain(UnaryOp::Relu, 4),
            [
                View::new(BufId::Param(0), Expr::v(VarId(1)), 4),
                View::new(BufId::Param(1), Expr::v(VarId(1)), 4),
            ],
            [],
        );
        i.map_exprs(|e| e.subst(VarId(1), &Expr::c(7)));
        assert_eq!(i.operands[0].offset, Expr::c(7));
        assert_eq!(i.operands[1].offset, Expr::c(7));
    }

    #[test]
    fn accesses_cover_brgemm_tiles() {
        let i = Intrinsic::new(
            Op::BrgemmF32(Brgemm {
                m: 2,
                n: 2,
                k: 4,
                batch: 3,
                a_stride: 100,
                b_stride: 200,
            }),
            [
                View::new(BufId::Param(0), 0usize, 8),
                View::new(BufId::Param(1), 0usize, 8),
                View::new(BufId::Param(2), 0usize, 4),
            ],
            [],
        );
        let accs = intrinsic_accesses(&i);
        // 3 A tiles + 3 B tiles + C
        assert_eq!(accs.len(), 7);
        assert_eq!(accs[0].len, 8);
        assert_eq!(accs[2].offset.eval(&[]), 100); // second A tile
        assert_eq!(accs[3].offset.eval(&[]), 200); // second B tile
        assert!(accs[6].write);
    }

    #[test]
    fn visit_counts_ops() {
        let v = VarId(0);
        let s = vec![Stmt::loop_(
            v,
            3,
            vec![
                Stmt::Op(Intrinsic::new(
                    Op::FillF32 { len: 4, value: 0.0 },
                    [View::new(BufId::Param(0), 0usize, 4)],
                    [],
                )),
                Stmt::loop_(
                    VarId(1),
                    2,
                    vec![Stmt::Op(Intrinsic::new(
                        Op::ZeroI32 { len: 4 },
                        [View::new(BufId::Param(1), 0usize, 4)],
                        [],
                    ))],
                ),
            ],
        )];
        let mut count = 0;
        visit_intrinsics(&s, &mut |_| count += 1);
        assert_eq!(count, 2);
    }
}
