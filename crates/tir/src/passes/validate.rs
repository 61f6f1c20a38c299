//! TIR validator: the compiler policing its own rewrites.
//!
//! Every Tensor IR pass (tensor shrinking, buffer reuse, loop merging)
//! rewrites buffers and offsets that the executor later dereferences
//! without bounds checks in release builds. A pass bug therefore does
//! not crash — it silently reads or clobbers neighbouring tensors. This
//! module makes the pipeline fail loudly instead:
//!
//! - [`validate_func`] / [`validate_module`] check structural sanity
//!   after a pass: def-before-use of loop variables, buffer indices in
//!   range, no references to orphaned (zero-sized) buffers, operand
//!   count and buffer dtypes as each op's descriptor states them, and —
//!   through the same `VarScope` interval tracker and the same
//!   descriptor spans the plan compiler uses for bounds hoisting — that
//!   no access can escape its buffer for any iteration. An offset the
//!   tracker cannot bound is not an error here: the plan builder rejects
//!   the function for the same reason, and a compiled executable
//!   refuses to run it (gc-core turns that into a compile error).
//! - [`check_func_reuse`] / [`check_module_reuse`] verify that a
//!   buffer-merging pass preserved dataflow: they value-number reads
//!   against their defining writes in the module before and after the
//!   pass, and reject the rewrite if any read now observes a different
//!   definition — the observable symptom of merging two buffers whose
//!   live ranges overlap.
//!
//! The lowering pipeline runs these after every pass and names the
//! guilty pass in the error, so a miscompile is caught at compile time
//! with a pass name attached instead of shipping garbage.

use crate::bounds::VarScope;
use crate::expr::Expr;
use crate::ir::{BufDecl, BufId, Func, GlobalKind, Intrinsic, Module, Stmt};
use crate::visit::{accesses_of, intrinsic_accesses, Access};
use std::collections::HashMap;
use std::fmt;

/// A validation failure, rendered with enough context (function, call,
/// buffer) to locate the miscompile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError(pub String);

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ValidateError {}

fn err<T>(msg: String) -> Result<T, ValidateError> {
    Err(ValidateError(msg))
}

fn visit_expr_vars(e: &Expr, f: &mut impl FnMut(usize)) {
    match e {
        Expr::Const(_) => {}
        Expr::Var(v) => f(v.0),
        Expr::Add(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) | Expr::Rem(a, b) => {
            visit_expr_vars(a, f);
            visit_expr_vars(b, f);
        }
    }
}

/// Validate one function: loop-variable def-before-use, buffer indices
/// in range, no references to orphaned buffers, operand count and
/// dtypes per descriptor, and interval-provable in-bounds accesses.
///
/// # Errors
///
/// Returns a message describing the first violation.
pub fn validate_func(f: &Func) -> Result<(), ValidateError> {
    walk_stmts(f, &f.body, &mut VarScope::new(f.var_count))
}

fn walk_stmts(f: &Func, stmts: &[Stmt], scope: &mut VarScope) -> Result<(), ValidateError> {
    for s in stmts {
        match s {
            Stmt::For {
                var,
                extent,
                parallel,
                body,
            } => {
                if scope.is_active(var.0) {
                    return err(format!(
                        "func {}: loop rebinds variable {var} already bound by an enclosing loop",
                        f.name
                    ));
                }
                let Some(saved) = scope.enter(*var, *extent) else {
                    return err(format!(
                        "func {}: loop variable {var} out of range (var_count {})",
                        f.name, f.var_count
                    ));
                };
                walk_stmts(f, body, scope)?;
                scope.exit(*var, *extent, *parallel, saved);
            }
            Stmt::Op(intr) => check_intrinsic(f, intr, scope)?,
        }
    }
    Ok(())
}

fn buf_decl(f: &Func, buf: BufId) -> Result<&BufDecl, ValidateError> {
    let (decl, kind, i, n) = match buf {
        BufId::Param(p) => (f.params.get(p), "param", p, f.params.len()),
        BufId::Local(l) => (f.locals.get(l), "local", l, f.locals.len()),
    };
    decl.ok_or_else(|| {
        ValidateError(format!(
            "func {}: access to unknown {kind} {i} ({n} declared)",
            f.name
        ))
    })
}

fn check_intrinsic(f: &Func, intr: &Intrinsic, scope: &VarScope) -> Result<(), ValidateError> {
    let desc = intr.op.desc(None);
    if !desc.fits(intr) {
        return err(format!(
            "func {}: {:?} has {} operands and {} clamps, its descriptor {} and {}",
            f.name,
            intr.op,
            intr.operands.len(),
            intr.clamps.len(),
            desc.operands().len(),
            desc.clamps()
        ));
    }
    for a in accesses_of(intr, &desc) {
        check_access(f, &a, scope)?;
    }
    let mut dtypes = Vec::with_capacity(intr.operands.len());
    for o in &intr.operands {
        dtypes.push(buf_decl(f, o.buf)?.dtype);
    }
    if !desc.dtypes_ok(dtypes) {
        return err(format!(
            "func {}: buffer dtype disagrees with the access type of {:?}",
            f.name, intr.op
        ));
    }
    // Axis-clamp bases are real runtime indices excluded from the
    // access offsets above: def-before-use and non-negativity must be
    // proven separately (the upper side is enforced by the runtime
    // clamp).
    for base in &intr.clamps {
        check_vars_bound(f, base, "clamp base", scope)?;
        if let Some((lo, _)) = scope.interval(base) {
            if lo < 0 {
                return err(format!(
                    "func {}: clamp base can go negative (min {lo})",
                    f.name
                ));
            }
        }
    }
    Ok(())
}

fn check_vars_bound(f: &Func, e: &Expr, what: &str, scope: &VarScope) -> Result<(), ValidateError> {
    let mut bad_var = None;
    visit_expr_vars(e, &mut |v| {
        if bad_var.is_none() && !scope.is_bound(v) {
            bad_var = Some(v);
        }
    });
    match bad_var {
        Some(v) => err(format!(
            "func {}: {what} uses variable v{v} before any loop binds it",
            f.name
        )),
        None => Ok(()),
    }
}

fn check_access(f: &Func, a: &Access, scope: &VarScope) -> Result<(), ValidateError> {
    check_vars_bound(f, &a.offset, "offset", scope)?;
    let decl = buf_decl(f, a.buf)?;
    let (name, elems) = (&decl.name, decl.elems);
    if a.len == 0 {
        return Ok(());
    }
    if elems == 0 {
        return err(format!(
            "func {}: access to orphaned zero-sized buffer {name}",
            f.name
        ));
    }
    if let Some((lo, hi)) = scope.interval(&a.offset) {
        if lo < 0 {
            return err(format!(
                "func {}: offset of {name} can go negative (min {lo})",
                f.name
            ));
        }
        if hi as i128 + a.len as i128 > elems as i128 {
            return err(format!(
                "func {}: access to {name} can reach element {} but the buffer holds {elems}",
                f.name,
                hi as i128 + a.len as i128 - 1
            ));
        }
    }
    Ok(())
}

/// Which way a function uses each of its parameters, at whole-buffer
/// granularity and in traversal order.
#[derive(Debug, Clone, Copy, Default)]
struct ParamUse {
    reads: bool,
    writes: bool,
    /// The first access in traversal order is a read (so the call
    /// observes the caller-visible value before overwriting it).
    read_first: bool,
}

fn param_usage(f: &Func) -> Vec<ParamUse> {
    let mut use_ = vec![ParamUse::default(); f.params.len()];
    fn go(stmts: &[Stmt], use_: &mut [ParamUse]) {
        for s in stmts {
            match s {
                Stmt::For { body, .. } => go(body, use_),
                Stmt::Op(i) => {
                    for a in intrinsic_accesses(i) {
                        if let BufId::Param(p) = a.buf {
                            let u = &mut use_[p];
                            if !u.reads && !u.writes {
                                u.read_first = !a.write;
                            }
                            if a.write {
                                u.writes = true;
                            } else {
                                u.reads = true;
                            }
                        }
                    }
                }
            }
        }
    }
    go(&f.body, &mut use_);
    use_
}

/// Validate a whole module: structural checks ([`Module::validate`]),
/// every function ([`validate_func`]), and module-level buffer
/// def-before-use — no call may read a scratch or output global that no
/// earlier call (init calls included) has written.
///
/// # Errors
///
/// Returns a message describing the first violation.
pub fn validate_module(m: &Module) -> Result<(), ValidateError> {
    m.validate().map_err(ValidateError)?;
    for f in &m.funcs {
        validate_func(f)?;
    }
    let usages: Vec<Vec<ParamUse>> = m.funcs.iter().map(param_usage).collect();
    let mut written: Vec<bool> = m
        .globals
        .iter()
        .map(|g| !matches!(g.kind, GlobalKind::Scratch | GlobalKind::Output(_)))
        .collect();
    for (seq, call) in m.init_calls.iter().chain(&m.main_calls).enumerate() {
        let usage = &usages[call.func];
        for (p, &g) in call.args.iter().enumerate() {
            let u = usage[p];
            if u.reads && !written[g] && (u.read_first || !u.writes) {
                return err(format!(
                    "call {seq} ({}): reads global {} before any call writes it",
                    m.funcs[call.func].name, m.globals[g].name
                ));
            }
        }
        for (p, &g) in call.args.iter().enumerate() {
            if usage[p].writes {
                written[g] = true;
            }
        }
    }
    Ok(())
}

/// The value a read observes, at whole-buffer granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Val {
    /// The global's external/initial contents (index identifies it).
    Ext(usize),
    /// Written by call `seq`'s parameter `param`.
    Def(usize, usize),
}

fn observations(m: &Module, usages: &[Vec<ParamUse>]) -> Vec<(usize, usize, Val)> {
    let mut val: Vec<Val> = (0..m.globals.len()).map(Val::Ext).collect();
    let mut out = Vec::new();
    for (seq, call) in m.init_calls.iter().chain(&m.main_calls).enumerate() {
        let usage = &usages[call.func];
        for (p, &g) in call.args.iter().enumerate() {
            if usage[p].reads {
                out.push((seq, p, val[g]));
            }
        }
        for (p, &g) in call.args.iter().enumerate() {
            if usage[p].writes {
                val[g] = Val::Def(seq, p);
            }
        }
    }
    out
}

/// Verify that a module-level buffer-merging pass (scratch reuse)
/// preserved dataflow: every read in `after` must observe the value
/// written by the same defining call as in `before`. Merging two
/// globals whose live ranges overlap makes some read observe a later
/// write — exactly what this catches.
///
/// # Errors
///
/// Returns a message naming the first call whose read changed meaning.
pub fn check_module_reuse(before: &Module, after: &Module) -> Result<(), ValidateError> {
    if before.funcs.len() != after.funcs.len()
        || before.init_calls.len() != after.init_calls.len()
        || before.main_calls.len() != after.main_calls.len()
    {
        return err("reuse pass changed the module's call structure".into());
    }
    let usages: Vec<Vec<ParamUse>> = before.funcs.iter().map(param_usage).collect();
    let obs_b = observations(before, &usages);
    let obs_a = observations(after, &usages);
    if obs_b.len() != obs_a.len() {
        return err("reuse pass changed the module's access structure".into());
    }
    for ((seq, p, vb), (_, _, va)) in obs_b.iter().zip(&obs_a) {
        if vb != va {
            let call = before
                .init_calls
                .iter()
                .chain(&before.main_calls)
                .nth(*seq)
                .expect("observation seq in range");
            return err(format!(
                "buffer reuse overlapped live ranges: call {seq} ({}) param {p} \
                 read {:?} before the pass but {:?} after",
                before.funcs[call.func].name, vb, va
            ));
        }
    }
    Ok(())
}

fn access_trace(f: &Func) -> Vec<(BufId, bool)> {
    let mut out = Vec::new();
    fn go(stmts: &[Stmt], out: &mut Vec<(BufId, bool)>) {
        for s in stmts {
            match s {
                Stmt::For { body, .. } => go(body, out),
                Stmt::Op(i) => {
                    for a in intrinsic_accesses(i) {
                        out.push((a.buf, a.write));
                    }
                }
            }
        }
    }
    go(&f.body, &mut out);
    out
}

fn read_defs(trace: &[(BufId, bool)]) -> Vec<Option<usize>> {
    let mut last: HashMap<BufId, usize> = HashMap::new();
    let mut out = Vec::new();
    for (i, &(buf, write)) in trace.iter().enumerate() {
        if write {
            last.insert(buf, i);
        } else {
            out.push(last.get(&buf).copied());
        }
    }
    out
}

/// Function-level counterpart of [`check_module_reuse`]: verify that a
/// local-merging or offset-rewriting pass preserved each read's
/// defining write. Accesses are paired positionally (the passes rename
/// buffers and rewrite offsets but keep the access structure), and each
/// read must resolve to the write at the same trace position before and
/// after.
///
/// # Errors
///
/// Returns a message naming the first read whose definition changed.
pub fn check_func_reuse(before: &Func, after: &Func) -> Result<(), ValidateError> {
    let tb = access_trace(before);
    let ta = access_trace(after);
    if tb.len() != ta.len() || tb.iter().zip(&ta).any(|(b, a)| b.1 != a.1) {
        return err(format!(
            "func {}: pass changed the access structure",
            before.name
        ));
    }
    let db = read_defs(&tb);
    let da = read_defs(&ta);
    for (i, (b, a)) in db.iter().zip(&da).enumerate() {
        if b != a {
            return err(format!(
                "func {}: buffer merge overlapped live ranges — read #{i} was defined \
                 by write at {:?} before the pass but {:?} after",
                before.name, b, a
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::VarId;
    use crate::ir::{Call, GlobalDecl, View};
    use gc_microkernel::UnaryOp;
    use gc_tensor::DataType;

    fn unary(src: View, dst: View) -> Stmt {
        Stmt::Op(Intrinsic::new(
            crate::ir::unary_chain(UnaryOp::Relu, dst.len),
            [src, dst],
            [],
        ))
    }

    fn io_func(elems: usize, body: Vec<Stmt>, var_count: usize, locals: Vec<BufDecl>) -> Func {
        Func {
            name: "f".into(),
            params: vec![
                BufDecl::new(DataType::F32, elems, "in"),
                BufDecl::new(DataType::F32, elems, "out"),
            ],
            locals,
            var_count,
            body,
        }
    }

    #[test]
    fn accepts_in_bounds_loop() {
        let v = VarId(0);
        let f = io_func(
            32,
            vec![Stmt::loop_(
                v,
                8,
                vec![unary(
                    View::new(BufId::Param(0), Expr::v(v).mul(Expr::c(4)), 4),
                    View::new(BufId::Param(1), Expr::v(v).mul(Expr::c(4)), 4),
                )],
            )],
            1,
            vec![],
        );
        validate_func(&f).unwrap();
    }

    #[test]
    fn rejects_out_of_bounds_loop() {
        let v = VarId(0);
        // extent 9: max offset 32, 32 + 4 > 32
        let f = io_func(
            32,
            vec![Stmt::loop_(
                v,
                9,
                vec![unary(
                    View::new(BufId::Param(0), Expr::v(v).mul(Expr::c(4)), 4),
                    View::new(BufId::Param(1), Expr::v(v).mul(Expr::c(4)), 4),
                )],
            )],
            1,
            vec![],
        );
        let e = validate_func(&f).unwrap_err();
        assert!(e.0.contains("can reach element"), "{e}");
    }

    #[test]
    fn rejects_negative_offset() {
        let f = io_func(
            32,
            vec![unary(
                View::new(BufId::Param(0), Expr::c(-4), 4),
                View::new(BufId::Param(1), 0usize, 4),
            )],
            0,
            vec![],
        );
        let e = validate_func(&f).unwrap_err();
        assert!(e.0.contains("negative"), "{e}");
    }

    #[test]
    fn rejects_unbound_variable_use() {
        // v0 used outside any loop that binds it
        let f = io_func(
            32,
            vec![unary(
                View::new(BufId::Param(0), Expr::v(VarId(0)), 4),
                View::new(BufId::Param(1), 0usize, 4),
            )],
            1,
            vec![],
        );
        let e = validate_func(&f).unwrap_err();
        assert!(e.0.contains("before any loop binds it"), "{e}");
    }

    #[test]
    fn allows_pinned_variable_after_serial_loop() {
        let v = VarId(0);
        // after `for v in 0..8`, v stays 7; offset 7*4=28, 28+4 <= 32
        let f = io_func(
            32,
            vec![
                Stmt::loop_(
                    v,
                    8,
                    vec![unary(
                        View::new(BufId::Param(0), Expr::v(v).mul(Expr::c(4)), 4),
                        View::new(BufId::Param(1), Expr::v(v).mul(Expr::c(4)), 4),
                    )],
                ),
                unary(
                    View::new(BufId::Param(0), Expr::v(v).mul(Expr::c(4)), 4),
                    View::new(BufId::Param(1), Expr::v(v).mul(Expr::c(4)), 4),
                ),
            ],
            1,
            vec![],
        );
        validate_func(&f).unwrap();
    }

    #[test]
    fn rejects_rebinding_live_variable() {
        let v = VarId(0);
        let f = io_func(
            64,
            vec![Stmt::loop_(
                v,
                4,
                vec![Stmt::loop_(
                    v,
                    4,
                    vec![unary(
                        View::new(BufId::Param(0), Expr::v(v), 4),
                        View::new(BufId::Param(1), Expr::v(v), 4),
                    )],
                )],
            )],
            1,
            vec![],
        );
        let e = validate_func(&f).unwrap_err();
        assert!(e.0.contains("rebinds"), "{e}");
    }

    #[test]
    fn rejects_orphan_buffer_reference() {
        let f = io_func(
            32,
            vec![unary(
                View::new(BufId::Local(0), 0usize, 4),
                View::new(BufId::Param(1), 0usize, 4),
            )],
            0,
            vec![BufDecl::new(DataType::U8, 0, "orphan")],
        );
        let e = validate_func(&f).unwrap_err();
        assert!(e.0.contains("orphaned"), "{e}");
    }

    #[test]
    fn rejects_dtype_mismatch_via_plan_builder() {
        let mut f = io_func(
            32,
            vec![unary(
                View::new(BufId::Param(0), 0usize, 4),
                View::new(BufId::Param(1), 0usize, 4),
            )],
            0,
            vec![],
        );
        f.params[0].dtype = DataType::I8;
        let e = validate_func(&f).unwrap_err();
        assert!(e.0.contains("dtype"), "{e}");
    }

    fn scratch(elems: usize, name: &str) -> GlobalDecl {
        GlobalDecl {
            dtype: DataType::F32,
            elems,
            kind: GlobalKind::Scratch,
            name: name.into(),
        }
    }

    fn copy_func(elems: usize) -> Func {
        io_func(
            elems,
            vec![unary(
                View::new(BufId::Param(0), 0usize, elems),
                View::new(BufId::Param(1), 0usize, elems),
            )],
            0,
            vec![],
        )
    }

    fn pipeline_module() -> (Module, usize, usize, usize) {
        // in -> t0 -> t1 -> out
        let mut m = Module::new();
        let f = m.add_func(copy_func(8));
        let input = m.add_global(GlobalDecl {
            dtype: DataType::F32,
            elems: 8,
            kind: GlobalKind::Input(0),
            name: "in".into(),
        });
        let t0 = m.add_global(scratch(8, "t0"));
        let t1 = m.add_global(scratch(8, "t1"));
        let out = m.add_global(GlobalDecl {
            dtype: DataType::F32,
            elems: 8,
            kind: GlobalKind::Output(0),
            name: "out".into(),
        });
        for (a, b) in [(input, t0), (t0, t1), (t1, out)] {
            m.main_calls.push(Call {
                func: f,
                args: vec![a, b],
            });
        }
        (m, t0, t1, out)
    }

    #[test]
    fn validates_module_and_catches_uninitialized_scratch_read() {
        let (m, t0, _, _) = pipeline_module();
        validate_module(&m).unwrap();
        // drop the call that writes t0: the next call reads zeros
        let mut bad = m.clone();
        bad.main_calls.remove(0);
        let e = validate_module(&bad).unwrap_err();
        assert!(e.0.contains("before any call writes it"), "{e}");
        let _ = t0;
    }

    #[test]
    fn module_reuse_overlap_is_detected() {
        // in -> t0; t0 -> t1; (t0, t1 both read) -> out would need a
        // binary op; model it with a third scratch instead:
        // c0: in -> t0, c1: t0 -> t1, c2: t1 -> out, and t0 read again
        // at c3 -> out2. Merging t1 into t0 overlaps t0's live range.
        let mut m = Module::new();
        let f = m.add_func(copy_func(8));
        let input = m.add_global(GlobalDecl {
            dtype: DataType::F32,
            elems: 8,
            kind: GlobalKind::Input(0),
            name: "in".into(),
        });
        let t0 = m.add_global(scratch(8, "t0"));
        let t1 = m.add_global(scratch(8, "t1"));
        let out = m.add_global(GlobalDecl {
            dtype: DataType::F32,
            elems: 8,
            kind: GlobalKind::Output(0),
            name: "out".into(),
        });
        let out2 = m.add_global(GlobalDecl {
            dtype: DataType::F32,
            elems: 8,
            kind: GlobalKind::Output(1),
            name: "out2".into(),
        });
        for (a, b) in [(input, t0), (t0, t1), (t1, out), (t0, out2)] {
            m.main_calls.push(Call {
                func: f,
                args: vec![a, b],
            });
        }
        validate_module(&m).unwrap();
        // a correct reuse pass must NOT merge t1 into t0 (t0 is read at
        // call 3, after t1's write at call 1); forge that bad merge
        let mut bad = m.clone();
        for call in &mut bad.main_calls {
            for a in &mut call.args {
                if *a == t1 {
                    *a = t0;
                }
            }
        }
        check_module_reuse(&m, &m).unwrap();
        let e = check_module_reuse(&m, &bad).unwrap_err();
        assert!(e.0.contains("overlapped live ranges"), "{e}");
    }

    #[test]
    fn func_reuse_overlap_is_detected() {
        // t0 written (stmt0), t1 written (stmt1), t0 read (stmt2):
        // merging t1 into t0 makes the read observe t1's write.
        let mk = |merged: bool| {
            let l1 = if merged { 0 } else { 1 };
            io_func(
                8,
                vec![
                    unary(
                        View::new(BufId::Param(0), 0usize, 8),
                        View::new(BufId::Local(0), 0usize, 8),
                    ),
                    unary(
                        View::new(BufId::Param(0), 0usize, 8),
                        View::new(BufId::Local(l1), 0usize, 8),
                    ),
                    unary(
                        View::new(BufId::Local(0), 0usize, 8),
                        View::new(BufId::Param(1), 0usize, 8),
                    ),
                ],
                0,
                vec![
                    BufDecl::new(DataType::F32, 8, "t0"),
                    BufDecl::new(DataType::F32, 8, "t1"),
                ],
            )
        };
        let before = mk(false);
        let after = mk(true);
        check_func_reuse(&before, &before).unwrap();
        let e = check_func_reuse(&before, &after).unwrap_err();
        assert!(e.0.contains("overlapped live ranges"), "{e}");
    }
}
