//! Memory-buffer optimization: reuse temporary buffers.
//!
//! "Memory buffer optimization uses life span analysis like traditional
//! compiler analysis for register allocation based on the def-use chain.
//! [...] At each point, when an intermediate buffer is needed, it tries
//! to reuse the free intermediate buffers [...] it chooses the one that
//! was used most recently, so likely the data is still in the cache."
//!
//! Two levels, as in the paper:
//!
//! - **module level** ([`reuse_module_scratch`]): scratch globals
//!   carrying data between fused ops are merged when their live ranges
//!   (call index intervals) are disjoint — inference pipelines reclaim
//!   each activation buffer as soon as its consumer completes;
//! - **function level** ([`reuse_func_locals`]): local temporaries with
//!   disjoint top-level-statement intervals share storage.

use crate::ir::{BufId, Func, GlobalKind, Module, Stmt};
use crate::visit::{intrinsic_accesses, visit_intrinsics_mut};
use gc_tensor::DataType;
use std::collections::HashMap;

/// Report of a reuse pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReuseStats {
    /// Buffer bytes before merging.
    pub bytes_before: usize,
    /// Buffer bytes after merging.
    pub bytes_after: usize,
    /// Number of buffers merged away.
    pub merged: usize,
}

/// Merge scratch globals with disjoint live ranges across the module's
/// main call sequence. Rewrites call argument lists in place.
pub fn reuse_module_scratch(module: &mut Module) -> ReuseStats {
    // live range of each scratch global over main_calls
    let mut range: HashMap<usize, (usize, usize)> = HashMap::new();
    for (ci, call) in module.main_calls.iter().enumerate() {
        for &a in &call.args {
            if module.globals[a].kind == GlobalKind::Scratch {
                let e = range.entry(a).or_insert((ci, ci));
                e.0 = e.0.min(ci);
                e.1 = e.1.max(ci);
            }
        }
    }
    let bytes_before: usize = scratch_bytes(module);
    // Greedy linear-scan: process by start; free list keyed by dtype,
    // most recently freed first (hot reuse).
    let mut order: Vec<usize> = range.keys().copied().collect();
    order.sort_by_key(|g| (range[g].0, range[g].1));
    let mut remap: HashMap<usize, usize> = HashMap::new();
    let mut free: Vec<(usize, usize)> = Vec::new(); // (global, free_since_end)
    let mut active: Vec<(usize, usize)> = Vec::new(); // (rep global, end)
    for g in order {
        let (start, end) = range[&g];
        // expire
        active.retain(|&(rep, e)| {
            if e < start {
                free.push((rep, e));
                false
            } else {
                true
            }
        });
        let dt = module.globals[g].dtype;
        let need = module.globals[g].elems;
        // most recently freed compatible rep
        if let Some(pos) = free
            .iter()
            .rposition(|&(rep, _)| module.globals[rep].dtype == dt)
        {
            let (rep, _) = free.remove(pos);
            if module.globals[rep].elems < need {
                module.globals[rep].elems = need;
            }
            remap.insert(g, rep);
            active.push((rep, end));
        } else {
            active.push((g, end));
        }
    }
    // rewrite calls
    let merged = remap.len();
    if merged > 0 {
        for call in module
            .init_calls
            .iter_mut()
            .chain(module.main_calls.iter_mut())
        {
            for a in &mut call.args {
                if let Some(&rep) = remap.get(a) {
                    *a = rep;
                }
            }
        }
        // orphaned globals shrink to zero so they cost nothing
        for (&g, _) in remap.iter() {
            module.globals[g].elems = 0;
        }
    }
    ReuseStats {
        bytes_before,
        bytes_after: scratch_bytes(module),
        merged,
    }
}

fn scratch_bytes(m: &Module) -> usize {
    m.globals
        .iter()
        .filter(|g| g.kind == GlobalKind::Scratch)
        .map(|g| g.elems * g.dtype.size_bytes())
        .sum()
}

/// Merge function locals whose top-level-statement live intervals are
/// disjoint (a loop counts as one interval unit, so buffers live inside
/// the same loop never merge — they may interleave across iterations).
pub fn reuse_func_locals(func: &mut Func) -> ReuseStats {
    let bytes_before = func.local_bytes();
    let n = func.locals.len();
    if n == 0 {
        return ReuseStats {
            bytes_before,
            bytes_after: bytes_before,
            merged: 0,
        };
    }
    // interval per local over top-level statements
    let mut range: HashMap<usize, (usize, usize)> = HashMap::new();
    for (si, stmt) in func.body.iter().enumerate() {
        let mut touch = |l: usize| {
            let e = range.entry(l).or_insert((si, si));
            e.0 = e.0.min(si);
            e.1 = e.1.max(si);
        };
        collect_locals(stmt, &mut touch);
    }
    let mut order: Vec<usize> = range.keys().copied().collect();
    order.sort_by_key(|l| (range[l].0, range[l].1));
    let mut remap: HashMap<usize, usize> = HashMap::new();
    let mut free: Vec<usize> = Vec::new();
    let mut active: Vec<(usize, usize)> = Vec::new();
    for l in order {
        let (start, end) = range[&l];
        active.retain(|&(rep, e)| {
            if e < start {
                free.push(rep);
                false
            } else {
                true
            }
        });
        let dt = func.locals[l].dtype;
        if let Some(pos) = free.iter().rposition(|&rep| func.locals[rep].dtype == dt) {
            let rep = free.remove(pos);
            if func.locals[rep].elems < func.locals[l].elems {
                func.locals[rep].elems = func.locals[l].elems;
            }
            remap.insert(l, rep);
            active.push((rep, end));
        } else {
            active.push((l, end));
        }
    }
    let merged = remap.len();
    if merged > 0 {
        visit_intrinsics_mut(&mut func.body, &mut |i| {
            for o in &mut i.operands {
                if let BufId::Local(l) = o.buf {
                    o.buf = BufId::Local(*remap.get(&l).unwrap_or(&l));
                }
            }
        });
        for (&l, _) in remap.iter() {
            func.locals[l].elems = 0;
            func.locals[l].dtype = DataType::U8; // zero-byte placeholder
        }
    }
    ReuseStats {
        bytes_before,
        bytes_after: func.local_bytes(),
        merged,
    }
}

fn collect_locals(stmt: &Stmt, touch: &mut impl FnMut(usize)) {
    match stmt {
        Stmt::For { body, .. } => {
            for s in body {
                collect_locals(s, touch);
            }
        }
        Stmt::Op(i) => {
            for a in intrinsic_accesses(i) {
                if let BufId::Local(l) = a.buf {
                    touch(l);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::ir::{BufDecl, Call, GlobalDecl, Intrinsic, View};
    use gc_microkernel::UnaryOp;

    fn scratch(elems: usize, name: &str) -> GlobalDecl {
        GlobalDecl {
            dtype: DataType::F32,
            elems,
            kind: GlobalKind::Scratch,
            name: name.to_string(),
        }
    }

    fn passthrough_func(elems: usize) -> Func {
        Func {
            name: "copy".into(),
            params: vec![
                BufDecl::new(DataType::F32, elems, "in"),
                BufDecl::new(DataType::F32, elems, "out"),
            ],
            locals: vec![],
            var_count: 0,
            body: vec![Stmt::Op(Intrinsic::new(
                crate::ir::unary_chain(UnaryOp::Identity, elems),
                [
                    View::new(BufId::Param(0), 0usize, elems),
                    View::new(BufId::Param(1), 0usize, elems),
                ],
                [],
            ))],
        }
    }

    #[test]
    fn pipeline_scratch_buffers_collapse() {
        // in -> t0 -> t1 -> t2 -> out : t0 dead once call1 done, so t2
        // can reuse it.
        let mut m = Module::new();
        let f = m.add_func(passthrough_func(64));
        let input = m.add_global(GlobalDecl {
            dtype: DataType::F32,
            elems: 64,
            kind: GlobalKind::Input(0),
            name: "in".into(),
        });
        let t0 = m.add_global(scratch(64, "t0"));
        let t1 = m.add_global(scratch(64, "t1"));
        let t2 = m.add_global(scratch(64, "t2"));
        let out = m.add_global(GlobalDecl {
            dtype: DataType::F32,
            elems: 64,
            kind: GlobalKind::Output(0),
            name: "out".into(),
        });
        for (a, b) in [(input, t0), (t0, t1), (t1, t2), (t2, out)] {
            m.main_calls.push(Call {
                func: f,
                args: vec![a, b],
            });
        }
        let stats = reuse_module_scratch(&mut m);
        assert_eq!(stats.merged, 1);
        assert_eq!(stats.bytes_before, 3 * 64 * 4);
        assert_eq!(stats.bytes_after, 2 * 64 * 4);
        m.validate().unwrap();
        // t2's uses now point at t0
        assert_eq!(m.main_calls[2].args[1], t0);
        assert_eq!(m.main_calls[3].args[0], t0);
        let _ = (t1, t2);
    }

    #[test]
    fn overlapping_scratch_not_merged() {
        // both scratches live in the same call
        let mut m = Module::new();
        let f = m.add_func(Func {
            name: "two".into(),
            params: vec![
                BufDecl::new(DataType::F32, 8, "a"),
                BufDecl::new(DataType::F32, 8, "b"),
            ],
            locals: vec![],
            var_count: 0,
            body: vec![],
        });
        let t0 = m.add_global(scratch(8, "t0"));
        let t1 = m.add_global(scratch(8, "t1"));
        m.main_calls.push(Call {
            func: f,
            args: vec![t0, t1],
        });
        let stats = reuse_module_scratch(&mut m);
        assert_eq!(stats.merged, 0);
    }

    #[test]
    fn grows_representative_to_max_size() {
        let mut m = Module::new();
        let f = m.add_func(passthrough_func(8));
        // widening copy: 8-element input, 32-element output
        let widen = m.add_func(Func {
            name: "widen".into(),
            params: vec![
                BufDecl::new(DataType::F32, 8, "in"),
                BufDecl::new(DataType::F32, 32, "out"),
            ],
            locals: vec![],
            var_count: 0,
            body: vec![],
        });
        let big_f = m.add_func(passthrough_func(32));
        let input = m.add_global(GlobalDecl {
            dtype: DataType::F32,
            elems: 8,
            kind: GlobalKind::Input(0),
            name: "in".into(),
        });
        let small = m.add_global(scratch(8, "small"));
        let mid = m.add_global(scratch(8, "mid"));
        let big = m.add_global(scratch(32, "big"));
        let out = m.add_global(GlobalDecl {
            dtype: DataType::F32,
            elems: 32,
            kind: GlobalKind::Output(0),
            name: "out".into(),
        });
        m.main_calls.push(Call {
            func: f,
            args: vec![input, small],
        });
        m.main_calls.push(Call {
            func: f,
            args: vec![small, mid],
        });
        m.main_calls.push(Call {
            func: widen,
            args: vec![mid, big],
        });
        m.main_calls.push(Call {
            func: big_f,
            args: vec![big, out],
        });
        let stats = reuse_module_scratch(&mut m);
        assert_eq!(stats.merged, 1);
        // `big` (32 elems) reused `small`'s slot, growing it
        assert_eq!(m.globals[small].elems, 32);
        m.validate().unwrap();
    }

    #[test]
    fn func_locals_merge_across_top_level_stmts() {
        let mut f = Func {
            name: "f".into(),
            params: vec![BufDecl::new(DataType::F32, 8, "io")],
            locals: vec![
                BufDecl::new(DataType::F32, 8, "t0"),
                BufDecl::new(DataType::F32, 8, "t1"),
            ],
            var_count: 0,
            body: vec![
                // stmt 0: writes t0 from io
                Stmt::Op(Intrinsic::new(
                    crate::ir::unary_chain(UnaryOp::Relu, 8),
                    [
                        View::new(BufId::Param(0), 0usize, 8),
                        View::new(BufId::Local(0), 0usize, 8),
                    ],
                    [],
                )),
                // stmt 1: io = t0 (last use of t0)
                Stmt::Op(Intrinsic::new(
                    crate::ir::unary_chain(UnaryOp::Identity, 8),
                    [
                        View::new(BufId::Local(0), 0usize, 8),
                        View::new(BufId::Param(0), 0usize, 8),
                    ],
                    [],
                )),
                // stmt 2: t1 = io
                Stmt::Op(Intrinsic::new(
                    crate::ir::unary_chain(UnaryOp::Exp, 8),
                    [
                        View::new(BufId::Param(0), 0usize, 8),
                        View::new(BufId::Local(1), 0usize, 8),
                    ],
                    [],
                )),
                // stmt 3: io = t1
                Stmt::Op(Intrinsic::new(
                    crate::ir::unary_chain(UnaryOp::Identity, 8),
                    [
                        View::new(BufId::Local(1), 0usize, 8),
                        View::new(BufId::Param(0), 0usize, 8),
                    ],
                    [],
                )),
            ],
        };
        let stats = reuse_func_locals(&mut f);
        assert_eq!(stats.merged, 1);
        assert_eq!(stats.bytes_after, 32);
        // all local references now use local 0
        let Stmt::Op(i) = &f.body[2] else { panic!() };
        assert_eq!(i.operands[1].buf, BufId::Local(0));
    }

    #[test]
    fn locals_in_same_loop_never_merge() {
        let v = crate::expr::VarId(0);
        let mut f = Func {
            name: "f".into(),
            params: vec![BufDecl::new(DataType::F32, 8, "io")],
            locals: vec![
                BufDecl::new(DataType::F32, 8, "t0"),
                BufDecl::new(DataType::F32, 8, "t1"),
            ],
            var_count: 1,
            body: vec![Stmt::loop_(
                v,
                4,
                vec![
                    Stmt::Op(Intrinsic::new(
                        crate::ir::unary_chain(UnaryOp::Relu, 8),
                        [
                            View::new(BufId::Param(0), 0usize, 8),
                            View::new(BufId::Local(0), 0usize, 8),
                        ],
                        [],
                    )),
                    Stmt::Op(Intrinsic::new(
                        crate::ir::unary_chain(UnaryOp::Exp, 8),
                        [
                            View::new(BufId::Local(0), Expr::c(0), 8),
                            View::new(BufId::Local(1), 0usize, 8),
                        ],
                        [],
                    )),
                ],
            )],
        };
        let stats = reuse_func_locals(&mut f);
        assert_eq!(stats.merged, 0);
    }
}
