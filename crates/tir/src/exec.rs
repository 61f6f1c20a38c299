//! Tensor IR execution: the tree-walking reference interpreter.
//!
//! The original system lowers Tensor IR to LLVM IR and JITs native code.
//! This reproduction executes the same IR directly: loop nests are
//! interpreted (they are shallow — a handful of levels with static trip
//! counts), and all bulk data work happens inside pre-compiled native
//! intrinsics from `gc-microkernel`, exactly at the boundary where the
//! original calls its JITed microkernels.
//!
//! The interpreter is the oracle for the plan builder: it walks `Stmt`
//! trees, evaluates `Expr` offsets and clamp bases afresh on every
//! visit, rebuilds brgemm batch tables per call and never sees a
//! compiled offset, a demoted loop or a grain. The only thing it shares
//! with [`crate::plan`] is `kernel::run_op`, the single copy of every
//! kernel call (the `kernel` module documents the safety model).

use crate::compile::written_params;
use crate::expr::{Expr, VarId};
use crate::ir::{BufId, Call, Func, Intrinsic, Module, Operand, Stmt, MAX_CLAMPS, MAX_OPERANDS};
use crate::kernel::{run_op, RawBuf, Resolved};
use crate::plan::{ExecOptions, Globals};
use gc_microkernel::Kernels;
use gc_runtime::ThreadPool;
use gc_tensor::Storage;

/// Error produced while preparing execution (dtype/shape mismatches are
/// panics, as they indicate compiler bugs, not user errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError(pub String);

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "execution error: {}", self.0)
    }
}

impl std::error::Error for ExecError {}

struct Frame<'a> {
    bufs: Vec<RawBuf>,
    n_params: usize,
    pool: &'a ThreadPool,
    checked: bool,
    kernels: Kernels,
}

impl Frame<'_> {
    #[inline]
    fn buf(&self, id: BufId) -> &RawBuf {
        match id {
            BufId::Param(i) => &self.bufs[i],
            BufId::Local(i) => &self.bufs[self.n_params + i],
        }
    }

    /// Evaluate an index expression (operand offset or axis-clamp
    /// base), asserting non-negativity.
    #[inline]
    fn index(&self, e: &Expr, vars: &[i64]) -> usize {
        let v = e.eval(vars);
        if self.checked {
            assert!(v >= 0, "negative view offset or clamp base {v}");
        } else {
            debug_assert!(v >= 0, "negative view offset or clamp base {v}");
        }
        v.max(0) as usize
    }

    #[inline]
    fn resolve(&self, o: &Operand, vars: &[i64]) -> Resolved<'_> {
        (self.buf(o.buf), self.index(&o.offset, vars))
    }
}

/// Execute a module's init and/or main call sequences against `globals`
/// (one [`Storage`] per module global, in declaration order), running
/// every kernel on `kernels`' backend. With `opts.checked`,
/// out-of-bounds views are hard asserts in release builds too.
///
/// # Errors
///
/// Returns an error if `globals` disagrees with the module's
/// declarations.
///
/// # Panics
///
/// Panics on out-of-bounds views or dtype mismatches (compiler-invariant
/// violations).
pub fn run_module(
    module: &Module,
    globals: &mut [Storage],
    pool: &ThreadPool,
    include_init: bool,
    opts: ExecOptions,
    kernels: Kernels,
) -> Result<(), ExecError> {
    if globals.len() != module.globals.len() {
        return Err(ExecError(format!(
            "{} globals provided, module declares {}",
            globals.len(),
            module.globals.len()
        )));
    }
    for (g, decl) in globals.iter().zip(&module.globals) {
        if g.dtype() != decl.dtype || g.len() < decl.elems {
            return Err(ExecError(format!(
                "global {}: have {} x{}, need {} x{}",
                decl.name,
                g.dtype(),
                g.len(),
                decl.dtype,
                decl.elems
            )));
        }
    }
    if include_init {
        run_calls(module, &module.init_calls, globals, pool, opts, kernels);
    }
    run_calls(module, &module.main_calls, globals, pool, opts, kernels);
    Ok(())
}

/// Execute a list of calls (no validation; see [`run_module`]).
///
/// # Panics
///
/// Panics on compiler-invariant violations.
pub fn run_calls(
    module: &Module,
    calls: &[Call],
    globals: &mut [Storage],
    pool: &ThreadPool,
    opts: ExecOptions,
    kernels: Kernels,
) {
    let writes: Vec<Box<[bool]>> = module.funcs.iter().map(written_params).collect();
    let mut globals = Globals::owned(globals);
    for call in calls {
        let func = &module.funcs[call.func];
        run_func(
            func,
            &writes[call.func],
            call,
            &mut globals,
            pool,
            opts,
            kernels,
        );
    }
}

/// Interpret one call against `globals`; `writes` says per parameter
/// whether some op of `func` writes it (see
/// [`crate::compile::written_params`]).
///
/// # Panics
///
/// Panics if a global in the call does not fit its parameter (see
/// [`RawBuf::can_bind`]), and on compiler-invariant violations.
pub(crate) fn run_func(
    func: &Func,
    writes: &[bool],
    call: &Call,
    globals: &mut Globals<'_>,
    pool: &ThreadPool,
    opts: ExecOptions,
    kernels: Kernels,
) {
    // A global may be bound to several parameters (e.g. a residual graph
    // passing the same tensor as activation and post-op operand); those
    // parameters share one RawBuf, so aliasing stays confined to the
    // intrinsic-level disjointness contract.
    let mut bufs: Vec<RawBuf> = Vec::with_capacity(func.params.len() + func.locals.len());
    assert_eq!(call.args.len(), func.params.len(), "`{}`: arity", func.name);
    for ((&a, p), &writes) in call.args.iter().zip(&func.params).zip(writes) {
        let buf = globals.buf(a);
        assert!(
            buf.can_bind(p.dtype, p.elems, writes),
            "`{}` cannot bind global {a} ({buf:?}) to its parameter `{}` (written: {writes})",
            func.name,
            p.name
        );
        bufs.push(buf.checked(opts.checked));
    }
    // Allocate locals.
    let mut local_storage: Vec<Storage> = func
        .locals
        .iter()
        .map(|d| Storage::zeros(d.dtype, d.elems))
        .collect();
    for s in &mut local_storage {
        bufs.push(RawBuf::of(s, opts.checked));
    }
    let frame = Frame {
        bufs,
        n_params: func.params.len(),
        pool,
        checked: opts.checked,
        kernels,
    };
    let mut vars = vec![0i64; func.var_count];
    exec_stmts(&func.body, &frame, &mut vars);
    // local_storage dropped here; frame pointers die with it.
}

fn exec_stmts(stmts: &[Stmt], frame: &Frame<'_>, vars: &mut Vec<i64>) {
    for s in stmts {
        exec_stmt(s, frame, vars);
    }
}

fn exec_stmt(stmt: &Stmt, frame: &Frame<'_>, vars: &mut Vec<i64>) {
    match stmt {
        Stmt::For {
            var,
            extent,
            parallel,
            body,
        } => {
            if *parallel && frame.pool.threads() > 1 && *extent > 1 {
                let vars_proto = vars.clone();
                let var = *var;
                frame.pool.parallel_for(*extent, |i| {
                    let mut my_vars = vars_proto.clone();
                    set_var(&mut my_vars, var, i as i64);
                    exec_stmts(body, frame, &mut my_vars);
                });
            } else {
                for i in 0..*extent {
                    set_var(vars, *var, i as i64);
                    exec_stmts(body, frame, vars);
                }
            }
        }
        Stmt::Op(intr) => exec_intrinsic(intr, frame, vars),
    }
}

#[inline]
fn set_var(vars: &mut Vec<i64>, var: VarId, val: i64) {
    if var.0 >= vars.len() {
        vars.resize(var.0 + 1, 0);
    }
    vars[var.0] = val;
}

/// Resolve the intrinsic's operands the slow way — every offset and
/// clamp base re-evaluated from its expression tree, brgemm batch
/// tables rebuilt — and hand them to the shared kernel dispatch.
fn exec_intrinsic(intr: &Intrinsic, frame: &Frame<'_>, vars: &[i64]) {
    let desc = intr.op.desc(None);
    assert!(
        desc.fits(intr),
        "{:?}: wrong operand or clamp count",
        intr.op
    );
    let mut operands = [(RawBuf::NULL, 0usize); MAX_OPERANDS];
    for (slot, o) in operands.iter_mut().zip(&intr.operands) {
        *slot = frame.resolve(o, vars);
    }
    let mut bases = [0usize; MAX_CLAMPS];
    for (slot, c) in bases.iter_mut().zip(&intr.clamps) {
        *slot = frame.index(c, vars);
    }
    run_op(&intr.op, &operands, &bases, &desc.tables(), frame.kernels);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{
        Brgemm, BufDecl, Copy2D, GlobalDecl, GlobalKind, Op, ReduceOp, RowChain, View,
    };
    use gc_microkernel::{BinaryOp, UnaryOp};
    use gc_tensor::DataType;

    fn run(m: &Module, globals: &mut [Storage]) -> Result<(), ExecError> {
        run_module(
            m,
            globals,
            &pool(),
            true,
            ExecOptions::default(),
            Kernels::default(),
        )
    }

    fn pool() -> ThreadPool {
        ThreadPool::new(2)
    }

    fn mk_module(func: Func, globals: Vec<GlobalDecl>) -> Module {
        let n = func.params.len();
        let mut m = Module::new();
        let f = m.add_func(func);
        for g in globals {
            m.add_global(g);
        }
        m.main_calls.push(Call {
            func: f,
            args: (0..n).collect(),
        });
        m
    }

    fn g(dtype: DataType, elems: usize, name: &str) -> GlobalDecl {
        GlobalDecl {
            dtype,
            elems,
            kind: GlobalKind::Scratch,
            name: name.to_string(),
        }
    }

    #[test]
    fn relu_loop_executes() {
        let mut f = Func {
            name: "relu".into(),
            params: vec![
                BufDecl::new(DataType::F32, 8, "in"),
                BufDecl::new(DataType::F32, 8, "out"),
            ],
            locals: vec![],
            var_count: 0,
            body: vec![],
        };
        let v = f.fresh_var();
        f.body.push(Stmt::loop_(
            v,
            2,
            vec![Stmt::Op(Intrinsic::new(
                crate::ir::unary_chain(UnaryOp::Relu, 4),
                [
                    View::new(BufId::Param(0), Expr::v(v).mul(Expr::c(4)), 4),
                    View::new(BufId::Param(1), Expr::v(v).mul(Expr::c(4)), 4),
                ],
                [],
            ))],
        ));
        let m = mk_module(
            f,
            vec![g(DataType::F32, 8, "in"), g(DataType::F32, 8, "out")],
        );
        m.validate().unwrap();
        let mut globals = vec![
            Storage::F32(vec![-1., 2., -3., 4., -5., 6., -7., 8.]),
            Storage::F32(vec![0.; 8]),
        ];
        run(&m, &mut globals).unwrap();
        let out = globals[1].as_slice::<f32>().unwrap();
        assert_eq!(out, &[0., 2., 0., 4., 0., 6., 0., 8.]);
    }

    #[test]
    fn parallel_loop_matches_serial() {
        let build = |parallel: bool| {
            let mut f = Func {
                name: "square".into(),
                params: vec![
                    BufDecl::new(DataType::F32, 64, "in"),
                    BufDecl::new(DataType::F32, 64, "out"),
                ],
                locals: vec![],
                var_count: 0,
                body: vec![],
            };
            let v = f.fresh_var();
            f.body.push(Stmt::For {
                var: v,
                extent: 8,
                parallel,
                body: vec![Stmt::Op(Intrinsic::new(
                    crate::ir::unary_chain(UnaryOp::Square, 8),
                    [
                        View::new(BufId::Param(0), Expr::v(v).mul(Expr::c(8)), 8),
                        View::new(BufId::Param(1), Expr::v(v).mul(Expr::c(8)), 8),
                    ],
                    [],
                ))],
            });
            mk_module(
                f,
                vec![g(DataType::F32, 64, "in"), g(DataType::F32, 64, "out")],
            )
        };
        let input: Vec<f32> = (0..64).map(|i| i as f32 - 32.0).collect();
        let run = |m: &Module| {
            let mut globals = vec![Storage::F32(input.clone()), Storage::F32(vec![0.; 64])];
            run(m, &mut globals).unwrap();
            globals[1].as_slice::<f32>().unwrap().to_vec()
        };
        assert_eq!(run(&build(false)), run(&build(true)));
    }

    #[test]
    fn brgemm_intrinsic_matches_reference() {
        use gc_tensor::{reference, Tensor};
        // single-tile matmul: A[4,8] x B[8,4]
        let a = Tensor::random(&[4, 8], DataType::F32, 1);
        let bt = Tensor::random(&[4, 8], DataType::F32, 2); // [n][k] panels
        let mut f = Func {
            name: "mm".into(),
            params: vec![
                BufDecl::new(DataType::F32, 32, "a"),
                BufDecl::new(DataType::F32, 32, "b"),
                BufDecl::new(DataType::F32, 16, "c"),
            ],
            locals: vec![],
            var_count: 0,
            body: vec![],
        };
        f.body.push(Stmt::Op(Intrinsic::new(
            Op::FillF32 {
                len: 16,
                value: 0.0,
            },
            [View::new(BufId::Param(2), 0usize, 16)],
            [],
        )));
        f.body.push(Stmt::Op(Intrinsic::new(
            Op::BrgemmF32(Brgemm {
                m: 4,
                n: 4,
                k: 8,
                batch: 1,
                a_stride: 0,
                b_stride: 0,
            }),
            [
                View::new(BufId::Param(0), 0usize, 32),
                View::new(BufId::Param(1), 0usize, 32),
                View::new(BufId::Param(2), 0usize, 16),
            ],
            [],
        )));
        let m = mk_module(
            f,
            vec![
                g(DataType::F32, 32, "a"),
                g(DataType::F32, 32, "b"),
                g(DataType::F32, 16, "c"),
            ],
        );
        let mut globals = vec![
            Storage::F32(a.f32_slice().unwrap().to_vec()),
            Storage::F32(bt.f32_slice().unwrap().to_vec()),
            Storage::F32(vec![0.; 16]),
        ];
        run(&m, &mut globals).unwrap();
        // reference: B = bt transposed
        let b_plain = gc_tensor::reorder::transpose_last2(&bt).unwrap();
        let want = reference::matmul_f32(&a, &b_plain).unwrap();
        let got = globals[2].as_slice::<f32>().unwrap();
        for (x, y) in got.iter().zip(want.f32_slice().unwrap()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn pack_unpack_round_trip_with_transpose() {
        // pack a transposed 3x5 -> 5x3 tile and unpack it back
        let mut f = Func {
            name: "t".into(),
            params: vec![
                BufDecl::new(DataType::F32, 15, "in"),
                BufDecl::new(DataType::F32, 15, "out"),
            ],
            locals: vec![BufDecl::new(DataType::F32, 15, "tile")],
            var_count: 0,
            body: vec![],
        };
        // transpose: dst[r,c] = src[c*5 + r] -> row stride 1, col stride 5
        let transposed = Copy2D {
            rows: 5,
            cols: 3,
            row_stride: 1,
            col_stride: 5,
        };
        f.body.push(Stmt::Op(Intrinsic::new(
            Op::Pack2D(transposed),
            [
                Operand::new(BufId::Param(0), 0usize),
                Operand::new(BufId::Local(0), 0usize),
            ],
            [],
        )));
        // unpack transposing again restores original
        f.body.push(Stmt::Op(Intrinsic::new(
            Op::Unpack2D(transposed),
            [
                Operand::new(BufId::Local(0), 0usize),
                Operand::new(BufId::Param(1), 0usize),
            ],
            [],
        )));
        let m = mk_module(
            f,
            vec![g(DataType::F32, 15, "in"), g(DataType::F32, 15, "out")],
        );
        let input: Vec<f32> = (0..15).map(|x| x as f32).collect();
        let mut globals = vec![Storage::F32(input.clone()), Storage::F32(vec![0.; 15])];
        run(&m, &mut globals).unwrap();
        assert_eq!(globals[1].as_slice::<f32>().unwrap(), input.as_slice());
    }

    #[test]
    fn reduce_rows_and_col_vec_chain_make_softmax_rows() {
        // one 2x4 tile: exp, row sums, divide -> rows sum to 1
        let mut f = Func {
            name: "sm".into(),
            params: vec![
                BufDecl::new(DataType::F32, 8, "in"),
                BufDecl::new(DataType::F32, 8, "out"),
            ],
            locals: vec![BufDecl::new(DataType::F32, 2, "sums")],
            var_count: 0,
            body: vec![],
        };
        f.body.push(Stmt::Op(Intrinsic::new(
            crate::ir::unary_chain(UnaryOp::Exp, 8),
            [
                View::new(BufId::Param(0), 0usize, 8),
                View::new(BufId::Param(1), 0usize, 8),
            ],
            [],
        )));
        f.body.push(Stmt::Op(Intrinsic::new(
            Op::ReduceRows {
                op: ReduceOp::Sum,
                rows: 2,
                cols: 4,
            },
            [
                View::new(BufId::Param(1), 0usize, 8),
                View::new(BufId::Local(0), 0usize, 2),
            ],
            [],
        )));
        // divide each row by its sum: an in-place column-vector chain
        let mut div = RowChain::new(2, 4, 1, false);
        div.col_vec(BinaryOp::Div).unwrap();
        f.body.push(Stmt::Op(Intrinsic::new(
            Op::RowChain(div),
            [
                View::new(BufId::Param(1), 0usize, 8),
                View::new(BufId::Local(0), 0usize, 2),
            ],
            [],
        )));
        let m = mk_module(
            f,
            vec![g(DataType::F32, 8, "in"), g(DataType::F32, 8, "out")],
        );
        let mut globals = vec![
            Storage::F32(vec![0.1, 0.2, 0.3, 0.4, -1.0, 0.0, 1.0, 2.0]),
            Storage::F32(vec![0.; 8]),
        ];
        run(&m, &mut globals).unwrap();
        let out = globals[1].as_slice::<f32>().unwrap();
        for row in out.chunks_exact(4) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn int8_pipeline_brgemm_plus_epilogue() {
        use gc_tensor::QuantParams;
        // A[1,4] u8, B[4,2] i8 as [n][k] panels, comp, dequant
        let a = vec![1u8, 2, 3, 4];
        let b_panels = vec![1i8, 1, 1, 1, -1, -1, -1, -1]; // n0 = ones, n1 = -ones
        let comp: Vec<i32> = vec![4, -4];
        let mut f = Func {
            name: "q".into(),
            params: vec![
                BufDecl::new(DataType::U8, 4, "a"),
                BufDecl::new(DataType::I8, 8, "b"),
                BufDecl::new(DataType::I32, 2, "comp"),
                BufDecl::new(DataType::F32, 2, "out"),
            ],
            locals: vec![BufDecl::new(DataType::I32, 2, "acc")],
            var_count: 0,
            body: vec![],
        };
        f.body.push(Stmt::Op(Intrinsic::new(
            Op::ZeroI32 { len: 2 },
            [View::new(BufId::Local(0), 0usize, 2)],
            [],
        )));
        f.body.push(Stmt::Op(Intrinsic::new(
            Op::BrgemmU8I8(Brgemm {
                m: 1,
                n: 2,
                k: 4,
                batch: 1,
                a_stride: 0,
                b_stride: 0,
            }),
            [
                View::new(BufId::Param(0), 0usize, 4),
                View::new(BufId::Param(1), 0usize, 8),
                View::new(BufId::Local(0), 0usize, 2),
            ],
            [],
        )));
        f.body.push(Stmt::Op(Intrinsic::new(
            Op::DequantAcc {
                rows: 1,
                cols: 2,
                a_zero: 1,
                scale: 0.5,
                bias: false,
            },
            [
                View::new(BufId::Local(0), 0usize, 2),
                View::new(BufId::Param(2), 0usize, 2),
                View::new(BufId::Param(3), 0usize, 2),
            ],
            [],
        )));
        let m = mk_module(
            f,
            vec![
                g(DataType::U8, 4, "a"),
                g(DataType::I8, 8, "b"),
                g(DataType::I32, 2, "comp"),
                g(DataType::F32, 2, "out"),
            ],
        );
        let mut globals = vec![
            Storage::U8(a.clone()),
            Storage::I8(b_panels),
            Storage::I32(comp),
            Storage::F32(vec![0.; 2]),
        ];
        run(&m, &mut globals).unwrap();
        let out = globals[3].as_slice::<f32>().unwrap();
        // acc = [10, -10]; corrected = acc - 1*comp = [6, -6]; * 0.5
        assert_eq!(out, &[3.0, -3.0]);
        // reference check via quant module
        let p = QuantParams::new(0.5, 1);
        let real: f32 = a
            .iter()
            .map(|&q| gc_tensor::quant::dequantize_u8(q, QuantParams::new(1.0, 1)))
            .sum();
        let _ = (real, p);
    }

    #[test]
    fn module_global_mismatch_errors() {
        let f = Func {
            name: "f".into(),
            params: vec![BufDecl::new(DataType::F32, 4, "x")],
            locals: vec![],
            var_count: 0,
            body: vec![],
        };
        let m = mk_module(f, vec![g(DataType::F32, 4, "x")]);
        let mut wrong = vec![Storage::I8(vec![0; 4])];
        assert!(run(&m, &mut wrong).is_err());
        let mut short = vec![Storage::F32(vec![0.; 2])];
        assert!(run(&m, &mut short).is_err());
    }
}
