//! Tensor-size optimization: shrink temporary tensors.
//!
//! "Tensor size optimization tries to reduce the tensor size of each
//! temporary tensor. The temporary tensor was initially introduced as a
//! full-size tensor in the lowering process and then reduced [...] For
//! example, A'[MSN, BS, MB, KB] could be reduced to A'[BS, MB, KB],
//! since the producer of A' and consumer are within the 'msi' loop, so
//! there is no need to save the result along the 2nd dimension."
//!
//! Implementation: a function-local buffer whose every access offset is
//! `v * c + rest` for a common enclosing *serial* loop variable `v` and
//! constant `c`, where each iteration's accesses stay within a
//! `c`-element window, can drop the `v` term and shrink to `c` elements.
//! (Parallel loop variables are never dropped — per-iteration regions
//! provide race freedom.)

use crate::expr::{Expr, VarId};
use crate::ir::{BufId, Func, Stmt};
use crate::visit::{intrinsic_accesses, visit_intrinsics_mut};
use std::collections::{HashMap, HashSet};

/// Report of the shrink pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Locals shrunk.
    pub shrunk: usize,
    /// Local bytes before.
    pub bytes_before: usize,
    /// Local bytes after.
    pub bytes_after: usize,
}

/// Split `e` as `v * coef + rest` with `rest` independent of `v`.
/// Returns `None` when `e` is not linear in `v` in that simple form.
fn split_linear(e: &Expr, v: VarId) -> Option<(i64, Expr)> {
    match e {
        Expr::Const(_) => Some((0, e.clone())),
        Expr::Var(x) => {
            if *x == v {
                Some((1, Expr::Const(0)))
            } else {
                Some((0, e.clone()))
            }
        }
        Expr::Add(a, b) => {
            let (ca, ra) = split_linear(a, v)?;
            let (cb, rb) = split_linear(b, v)?;
            Some((ca + cb, ra.add(rb)))
        }
        Expr::Mul(a, b) => {
            // only Var(v) * Const or Const * subexpr patterns
            match (&**a, &**b) {
                (_, Expr::Const(k)) => {
                    let (c, r) = split_linear(a, v)?;
                    Some((c * k, r.mul(Expr::Const(*k))))
                }
                (Expr::Const(k), _) => {
                    let (c, r) = split_linear(b, v)?;
                    Some((c * k, Expr::Const(*k).mul(r)))
                }
                _ => {
                    if a.uses(v) || b.uses(v) {
                        None
                    } else {
                        Some((0, e.clone()))
                    }
                }
            }
        }
        Expr::Div(a, b) | Expr::Rem(a, b) => {
            if a.uses(v) || b.uses(v) {
                None
            } else {
                Some((0, e.clone()))
            }
        }
    }
}

/// Upper bound of a non-negative monotone expression given each
/// variable's maximum value. Returns `None` if a negative constant or an
/// unknown variable makes monotonicity unclear.
fn upper_bound(e: &Expr, max_of: &HashMap<VarId, i64>) -> Option<i64> {
    match e {
        Expr::Const(c) => {
            if *c >= 0 {
                Some(*c)
            } else {
                None
            }
        }
        Expr::Var(v) => max_of.get(v).copied(),
        Expr::Add(a, b) => Some(upper_bound(a, max_of)? + upper_bound(b, max_of)?),
        Expr::Mul(a, b) => Some(upper_bound(a, max_of)? * upper_bound(b, max_of)?),
        Expr::Div(a, b) => {
            let d = upper_bound(b, max_of)?;
            if d > 0 {
                Some(upper_bound(a, max_of)?) // conservative: skip division shrink
            } else {
                None
            }
        }
        Expr::Rem(_, b) => upper_bound(b, max_of).map(|x| x - 1),
    }
}

/// A serial loop: its ordinal in the function (sibling loops may reuse a
/// variable, so the variable alone does not name the loop) and its
/// variable.
type LoopId = (usize, VarId);

struct AccessRec {
    offset: Expr,
    len: usize,
    /// serial loops enclosing this access (outermost first)
    serial_loops: Vec<LoopId>,
}

fn collect(
    stmts: &[Stmt],
    serial_stack: &mut Vec<LoopId>,
    loops: &mut usize,
    extents: &mut HashMap<VarId, i64>,
    out: &mut HashMap<usize, Vec<AccessRec>>,
) {
    for s in stmts {
        match s {
            Stmt::For {
                var,
                extent,
                parallel,
                body,
            } => {
                extents.insert(*var, (*extent as i64 - 1).max(0));
                *loops += 1;
                if !*parallel {
                    serial_stack.push((*loops, *var));
                }
                collect(body, serial_stack, loops, extents, out);
                if !*parallel {
                    serial_stack.pop();
                }
            }
            Stmt::Op(i) => {
                for a in intrinsic_accesses(i) {
                    if let BufId::Local(l) = a.buf {
                        out.entry(l).or_default().push(AccessRec {
                            offset: a.offset,
                            len: a.len,
                            serial_loops: serial_stack.clone(),
                        });
                    }
                }
            }
        }
    }
}

/// Run the tensor-size optimization on one function.
pub fn shrink_locals(func: &mut Func) -> ShrinkStats {
    let bytes_before = func.local_bytes();
    let mut accesses: HashMap<usize, Vec<AccessRec>> = HashMap::new();
    let mut extents: HashMap<VarId, i64> = HashMap::new();
    collect(
        &func.body,
        &mut Vec::new(),
        &mut 0,
        &mut extents,
        &mut accesses,
    );

    let mut shrunk = 0usize;
    let mut rewrites: Vec<(usize, VarId)> = Vec::new();
    for (&local, recs) in &accesses {
        if recs.is_empty() {
            continue;
        }
        // candidates: serial loops enclosing every access
        let mut common: Vec<LoopId> = recs[0].serial_loops.clone();
        for r in &recs[1..] {
            let set: HashSet<_> = r.serial_loops.iter().copied().collect();
            common.retain(|l| set.contains(l));
        }
        // try outermost candidates first (biggest shrink)
        'vars: for (_, v) in common {
            let mut coef: Option<i64> = None;
            let mut ok = true;
            for r in recs {
                let Some((c, rest)) = split_linear(&r.offset, v) else {
                    ok = false;
                    break;
                };
                if c <= 0 {
                    ok = false;
                    break;
                }
                match coef {
                    None => coef = Some(c),
                    Some(prev) if prev == c => {}
                    _ => {
                        ok = false;
                        break;
                    }
                }
                let Some(ub) = upper_bound(&rest, &extents) else {
                    ok = false;
                    break;
                };
                if ub + r.len as i64 > c {
                    ok = false;
                    break;
                }
            }
            if ok {
                if let Some(c) = coef {
                    func.locals[local].elems = c as usize;
                    rewrites.push((local, v));
                    shrunk += 1;
                    break 'vars;
                }
            }
        }
    }

    // apply rewrites: operands on each shrunk local lose the v*coef term
    for (local, v) in rewrites {
        visit_intrinsics_mut(&mut func.body, &mut |i| {
            for o in &mut i.operands {
                if o.buf == BufId::Local(local) {
                    if let Some((_, rest)) = split_linear(&o.offset, v) {
                        o.offset = rest;
                    }
                }
            }
        });
    }
    ShrinkStats {
        shrunk,
        bytes_before,
        bytes_after: func.local_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BufDecl, Intrinsic, View};
    use gc_microkernel::UnaryOp;
    use gc_tensor::DataType;

    #[test]
    fn split_linear_basic() {
        let v = VarId(0);
        // v*8 + 3
        let e = Expr::v(v).mul(Expr::c(8)).add(Expr::c(3));
        let (c, r) = split_linear(&e, v).unwrap();
        assert_eq!(c, 8);
        assert_eq!(r, Expr::c(3));
        // independent
        let e2 = Expr::v(VarId(1)).mul(Expr::c(4));
        let (c2, _) = split_linear(&e2, v).unwrap();
        assert_eq!(c2, 0);
    }

    #[test]
    fn shrinks_per_iteration_buffer() {
        // local written and read per msi iteration, indexed msi*16 + inner
        let (msi, inner) = (VarId(0), VarId(1));
        let mut f = Func {
            name: "f".into(),
            params: vec![BufDecl::new(DataType::F32, 64, "io")],
            locals: vec![BufDecl::new(DataType::F32, 64, "aprime")],
            var_count: 2,
            body: vec![Stmt::loop_(
                msi,
                4,
                vec![Stmt::loop_(
                    inner,
                    2,
                    vec![
                        Stmt::Op(Intrinsic::new(
                            crate::ir::unary_chain(UnaryOp::Relu, 8),
                            [
                                View::new(
                                    BufId::Param(0),
                                    Expr::v(msi)
                                        .mul(Expr::c(16))
                                        .add(Expr::v(inner).mul(Expr::c(8))),
                                    8,
                                ),
                                View::new(
                                    BufId::Local(0),
                                    Expr::v(msi)
                                        .mul(Expr::c(16))
                                        .add(Expr::v(inner).mul(Expr::c(8))),
                                    8,
                                ),
                            ],
                            [],
                        )),
                        Stmt::Op(Intrinsic::new(
                            crate::ir::unary_chain(UnaryOp::Identity, 8),
                            [
                                View::new(
                                    BufId::Local(0),
                                    Expr::v(msi)
                                        .mul(Expr::c(16))
                                        .add(Expr::v(inner).mul(Expr::c(8))),
                                    8,
                                ),
                                View::new(
                                    BufId::Param(0),
                                    Expr::v(msi)
                                        .mul(Expr::c(16))
                                        .add(Expr::v(inner).mul(Expr::c(8))),
                                    8,
                                ),
                            ],
                            [],
                        )),
                    ],
                )],
            )],
        };
        let stats = shrink_locals(&mut f);
        assert_eq!(stats.shrunk, 1);
        assert_eq!(f.locals[0].elems, 16);
        // offsets on the local no longer mention msi
        let mut saw_local = false;
        crate::visit::visit_intrinsics(&f.body, &mut |i| {
            for a in intrinsic_accesses(i) {
                if a.buf == BufId::Local(0) {
                    saw_local = true;
                    assert!(!a.offset.uses(msi));
                    assert!(a.offset.uses(inner));
                }
                if a.buf == BufId::Param(0) {
                    assert!(a.offset.uses(msi), "param offsets untouched");
                }
            }
        });
        assert!(saw_local);
    }

    #[test]
    fn parallel_var_never_dropped() {
        let p = VarId(0);
        let mut f = Func {
            name: "f".into(),
            params: vec![BufDecl::new(DataType::F32, 64, "io")],
            locals: vec![BufDecl::new(DataType::F32, 64, "t")],
            var_count: 1,
            body: vec![Stmt::parallel(
                p,
                4,
                vec![Stmt::Op(Intrinsic::new(
                    crate::ir::unary_chain(UnaryOp::Relu, 16),
                    [
                        View::new(BufId::Param(0), Expr::v(p).mul(Expr::c(16)), 16),
                        View::new(BufId::Local(0), Expr::v(p).mul(Expr::c(16)), 16),
                    ],
                    [],
                ))],
            )],
        };
        let stats = shrink_locals(&mut f);
        assert_eq!(stats.shrunk, 0);
        assert_eq!(f.locals[0].elems, 64);
    }

    #[test]
    fn sibling_loops_sharing_a_var_are_not_one_loop() {
        // producer `for v { local[v*8..] = .. }` then consumer
        // `for v { .. = local[v*8..] }`: per loop the window is 8, but the
        // consumer needs every producer iteration's window, so the local
        // must keep all 32 elements
        let v = VarId(0);
        let sweep = |op, from: BufId, to: BufId| {
            Stmt::loop_(
                v,
                4,
                vec![Stmt::Op(Intrinsic::new(
                    crate::ir::unary_chain(op, 8),
                    [
                        View::new(from, Expr::v(v).mul(Expr::c(8)), 8),
                        View::new(to, Expr::v(v).mul(Expr::c(8)), 8),
                    ],
                    [],
                ))],
            )
        };
        let mut f = Func {
            name: "f".into(),
            params: vec![
                BufDecl::new(DataType::F32, 32, "in"),
                BufDecl::new(DataType::F32, 32, "out"),
            ],
            locals: vec![BufDecl::new(DataType::F32, 32, "t")],
            var_count: 1,
            body: vec![
                sweep(UnaryOp::Relu, BufId::Param(0), BufId::Local(0)),
                sweep(UnaryOp::Identity, BufId::Local(0), BufId::Param(1)),
            ],
        };
        let stats = shrink_locals(&mut f);
        assert_eq!(stats.shrunk, 0);
        assert_eq!(f.locals[0].elems, 32);
    }

    #[test]
    fn window_overflow_blocks_shrink() {
        // iteration window larger than the stride: cannot shrink
        let v = VarId(0);
        let mut f = Func {
            name: "f".into(),
            params: vec![BufDecl::new(DataType::F32, 64, "io")],
            locals: vec![BufDecl::new(DataType::F32, 64, "t")],
            var_count: 1,
            body: vec![Stmt::loop_(
                v,
                4,
                vec![Stmt::Op(Intrinsic::new(
                    crate::ir::unary_chain(UnaryOp::Relu, 16),
                    [
                        View::new(BufId::Param(0), Expr::v(v).mul(Expr::c(8)), 16),
                        View::new(BufId::Local(0), Expr::v(v).mul(Expr::c(8)), 16),
                    ],
                    [],
                ))],
            )],
        };
        let stats = shrink_locals(&mut f);
        assert_eq!(stats.shrunk, 0);
    }

    #[test]
    fn shrunk_function_still_executes_correctly() {
        use gc_runtime::ThreadPool;
        use gc_tensor::Storage;
        // build the same function twice, shrink one, compare outputs
        let build = || {
            let (msi, _) = (VarId(0), VarId(1));
            Func {
                name: "f".into(),
                params: vec![
                    BufDecl::new(DataType::F32, 32, "in"),
                    BufDecl::new(DataType::F32, 32, "out"),
                ],
                locals: vec![BufDecl::new(DataType::F32, 32, "t")],
                var_count: 1,
                body: vec![Stmt::loop_(
                    msi,
                    4,
                    vec![
                        Stmt::Op(Intrinsic::new(
                            crate::ir::unary_chain(UnaryOp::Square, 8),
                            [
                                View::new(BufId::Param(0), Expr::v(msi).mul(Expr::c(8)), 8),
                                View::new(BufId::Local(0), Expr::v(msi).mul(Expr::c(8)), 8),
                            ],
                            [],
                        )),
                        Stmt::Op(Intrinsic::new(
                            crate::ir::unary_chain(UnaryOp::Neg, 8),
                            [
                                View::new(BufId::Local(0), Expr::v(msi).mul(Expr::c(8)), 8),
                                View::new(BufId::Param(1), Expr::v(msi).mul(Expr::c(8)), 8),
                            ],
                            [],
                        )),
                    ],
                )],
            }
        };
        let run = |f: Func| {
            let mut m = crate::ir::Module::new();
            let fi = m.add_func(f);
            m.add_global(crate::ir::GlobalDecl {
                dtype: DataType::F32,
                elems: 32,
                kind: crate::ir::GlobalKind::Input(0),
                name: "in".into(),
            });
            m.add_global(crate::ir::GlobalDecl {
                dtype: DataType::F32,
                elems: 32,
                kind: crate::ir::GlobalKind::Output(0),
                name: "out".into(),
            });
            m.main_calls.push(crate::ir::Call {
                func: fi,
                args: vec![0, 1],
            });
            let mut globals = vec![
                Storage::F32((0..32).map(|i| i as f32 - 16.0).collect()),
                Storage::F32(vec![0.; 32]),
            ];
            crate::exec::run_module(
                &m,
                &mut globals,
                &ThreadPool::new(1),
                true,
                Default::default(),
                Default::default(),
            )
            .unwrap();
            globals[1].as_slice::<f32>().unwrap().to_vec()
        };
        let plain = run(build());
        let mut shrunk_f = build();
        let stats = shrink_locals(&mut shrunk_f);
        assert_eq!(stats.shrunk, 1);
        assert_eq!(shrunk_f.locals[0].elems, 8);
        assert_eq!(run(shrunk_f), plain);
    }
}
