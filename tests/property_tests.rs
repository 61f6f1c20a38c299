//! Property-based tests on the core invariants:
//!
//! - compiled execution ≡ reference for random matmul(+post-op) shapes;
//! - reorder round trips are identity for random layouts;
//! - quantization algebra (compensated int8 == dequantized f32);
//! - buffer reuse / tensor shrink never change results;
//! - the parameter heuristic always returns valid tilings;
//! - plan-time offset interval bounds contain every offset checked
//!   execution actually evaluates, over random loop nests with Div/Rem
//!   index arithmetic.

use gc_bench::workloads::{self, random_inputs, reference_eval};
use gc_core::{CompileOptions, Compiler};
use gc_graph::{BinaryKind, Graph, OpKind, UnaryKind};
use gc_lowering::{choose_params, Constraints, MatmulProblem};
use gc_machine::MachineDescriptor;
use gc_tensor::{reorder, DataType, Layout, QuantParams, Tensor, TensorDesc};
use proptest::prelude::*;

fn small_dim() -> impl Strategy<Value = usize> {
    // dims that exercise odd tilings without slowing the suite down
    prop_oneof![1usize..=8, Just(13), Just(16), Just(24), Just(31), Just(32)]
}

fn machine() -> MachineDescriptor {
    MachineDescriptor::xeon_8358()
}

fn compile_opts() -> CompileOptions {
    let mut o = CompileOptions::new(machine());
    o.threads = Some(1);
    o
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compiled_matmul_matches_reference(
        m in small_dim(),
        n in small_dim(),
        k in small_dim(),
        relu in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([m, k], DataType::F32), "x");
        let w = g.add_constant(Tensor::random(&[k, n], DataType::F32, seed), "w");
        let mut out = g.add_op(OpKind::MatMul, &[x, w]).unwrap();
        if relu {
            out = g.add_op(OpKind::Unary(UnaryKind::Relu), &[out]).unwrap();
        }
        g.mark_output(out);
        let inputs = random_inputs(&g, seed + 1);
        let want = reference_eval(&g, &inputs);
        let compiled = Compiler::new(compile_opts()).compile(g).unwrap();
        let (outs, _) = compiled.execute(&inputs).unwrap();
        for i in 0..want[0].desc().volume() {
            let a = outs[0].storage().get_as_f64(i);
            let b = want[0].storage().get_as_f64(i);
            prop_assert!((a - b).abs() < 1e-3, "elem {i}: {a} vs {b}");
        }
    }

    #[test]
    fn reorder_round_trip_is_identity(
        rows_t in 1usize..=6,
        cols_t in 1usize..=6,
        rb in 1usize..=4,
        cb in 1usize..=4,
        weight_layout in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let shape = [rows_t * rb, cols_t * cb];
        let t = Tensor::random(&shape, DataType::F32, seed);
        let layout = if weight_layout {
            Layout::blocked_b(2, rb, cb)
        } else {
            Layout::blocked_a(2, rb, cb)
        };
        // blocked_b blocks (col, row): its factors apply to (k=rows, n=cols)
        let layout = if weight_layout {
            Layout::blocked_b(2, rb, cb) // kb = rb divides rows? blocked_b(rank, kb, nb)
        } else {
            layout
        };
        let shape_ok = if weight_layout {
            shape[0] % rb == 0 && shape[1] % cb == 0
        } else {
            true
        };
        prop_assume!(shape_ok);
        let blocked = reorder::reorder(&t, layout).unwrap();
        prop_assert!(blocked.allclose(&t, 0.0));
        let back = reorder::reorder(&blocked, Layout::Plain).unwrap();
        prop_assert_eq!(back.f32_slice().unwrap(), t.f32_slice().unwrap());
    }

    #[test]
    fn int8_compensation_matches_f32_path(
        m in 1usize..=12,
        n in 1usize..=12,
        k in 1usize..=24,
        a_zero in 0i32..=16,
        seed in 0u64..1000,
    ) {
        let a_q = QuantParams::new(0.05, a_zero);
        let g = |()| {
            let mut g = Graph::new();
            let a = g.add_input(TensorDesc::new([m, k], DataType::U8), "a");
            let b = g.add_constant(Tensor::random(&[k, n], DataType::I8, seed), "b");
            let af = g.add_op(OpKind::Dequantize { params: a_q }, &[a]).unwrap();
            let bf = g
                .add_op(
                    OpKind::Dequantize {
                        params: QuantParams::symmetric(0.1),
                    },
                    &[b],
                )
                .unwrap();
            let mm = g.add_op(OpKind::MatMul, &[af, bf]).unwrap();
            g.mark_output(mm);
            g
        };
        let g0 = g(());
        let inputs = random_inputs(&g0, seed + 7);
        let want = reference_eval(&g0, &inputs);
        let compiled = Compiler::new(compile_opts()).compile(g(())).unwrap();
        let (outs, _) = compiled.execute(&inputs).unwrap();
        for i in 0..want[0].desc().volume() {
            let a = outs[0].storage().get_as_f64(i);
            let b = want[0].storage().get_as_f64(i);
            prop_assert!((a - b).abs() < 1e-3, "elem {i}: {a} vs {b}");
        }
    }

    #[test]
    fn buffer_passes_never_change_results(
        m in small_dim(),
        n in small_dim(),
        seed in 0u64..1000,
    ) {
        let build = || workloads::mlp_f32(m.max(2) * 4, &[n.max(2) * 4, 16, 8], seed);
        let inputs = random_inputs(&build(), seed + 3);
        let run = |reuse: bool, shrink: bool| {
            let mut o = compile_opts();
            o.reuse_buffers = reuse;
            o.shrink_tensors = shrink;
            let c = Compiler::new(o).compile(build()).unwrap();
            let (outs, _) = c.execute(&inputs).unwrap();
            outs[0].f32_slice().unwrap().to_vec()
        };
        let base = run(false, false);
        prop_assert_eq!(run(true, false), base.clone());
        prop_assert_eq!(run(false, true), base.clone());
        prop_assert_eq!(run(true, true), base);
    }

    #[test]
    fn heuristic_always_returns_valid_params(
        m in 1usize..=512,
        n in 1usize..=512,
        k in 1usize..=512,
        batch in 1usize..=8,
        int8 in any::<bool>(),
        full_n in any::<bool>(),
    ) {
        let prob = MatmulProblem::batched(batch, m, n, k, if int8 { 1 } else { 4 });
        let c = Constraints {
            full_n_per_task: full_n,
            ..Constraints::default()
        };
        let p = choose_params(&machine(), &prob, &c);
        prop_assert!(p.validate(&prob).is_ok(), "{p:?} invalid for {prob:?}");
        if full_n {
            prop_assert_eq!(p.npn, 1);
        }
    }

    #[test]
    fn softmax_fusion_matches_reference(
        bh in 1usize..=4,
        rows in 2usize..=12,
        cols in 2usize..=12,
        seed in 0u64..1000,
    ) {
        // batched matmul + softmax: the split-reduction post-op path
        let build = || {
            let mut g = Graph::new();
            let a = g.add_input(TensorDesc::new([bh, rows, cols], DataType::F32), "a");
            let b = g.add_input(TensorDesc::new([bh, cols, rows], DataType::F32), "b");
            let mm = g.add_op(OpKind::MatMul, &[a, b]).unwrap();
            let sm = g.add_op(OpKind::Softmax, &[mm]).unwrap();
            g.mark_output(sm);
            g
        };
        let g0 = build();
        let inputs = random_inputs(&g0, seed);
        let want = reference_eval(&g0, &inputs);
        let compiled = Compiler::new(compile_opts()).compile(build()).unwrap();
        let (outs, _) = compiled.execute(&inputs).unwrap();
        for i in 0..want[0].desc().volume() {
            let a = outs[0].storage().get_as_f64(i);
            let b = want[0].storage().get_as_f64(i);
            prop_assert!((a - b).abs() < 1e-4, "elem {i}: {a} vs {b}");
        }
    }

    #[test]
    fn plan_offsets_stay_within_compile_time_bounds(
        e0 in 1usize..=4,
        e1 in 1usize..=4,
        e2 in 1usize..=4,
        depth in 1usize..=3,
        parallel in any::<bool>(),
        seed in 0u64..1_000_000,
    ) {
        // Random loop nest over a random index expression with Div/Rem
        // corners, executed three ways: validator (static), interpreter
        // (reference), and the compiled plan under checked execution.
        // If the plan builder's interval analysis under-approximated an
        // offset range, the checked executor panics naming the access;
        // if it mis-lowered the arithmetic, the bitwise compare fails.
        use gc_runtime::ThreadPool;
        use gc_tensor::Storage;
        use gc_tir::plan::{run_plan_call, Globals, PlanScratch};
        use gc_tir::{
            compile_module, validate_module, BufDecl, BufId, Call, Expr, ExecOptions, Func,
            GlobalDecl, GlobalKind, Intrinsic, Module, Op, Stmt, VarId, View,
        };

        const CAP: usize = 64;

        fn lcg(rng: &mut u64) -> u64 {
            *rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *rng >> 33
        }

        /// A random non-negative index expression over `vars` loop
        /// variables: Add/Mul of subexpressions, Div/Rem by positive
        /// constants — exactly the corners the interval analysis must
        /// bound conservatively.
        fn gen_expr(rng: &mut u64, vars: usize, depth: usize) -> Expr {
            if depth == 0 || lcg(rng).is_multiple_of(4) {
                return if vars > 0 && lcg(rng).is_multiple_of(2) {
                    Expr::v(VarId(lcg(rng) as usize % vars))
                } else {
                    Expr::c((lcg(rng) % 7) as i64)
                };
            }
            let a = gen_expr(rng, vars, depth - 1);
            match lcg(rng) % 4 {
                0 => a.add(gen_expr(rng, vars, depth - 1)),
                1 => a.mul(gen_expr(rng, vars, depth - 1)),
                2 => Expr::Div(Box::new(a), Box::new(Expr::c((lcg(rng) % 4 + 1) as i64))),
                _ => Expr::Rem(Box::new(a), Box::new(Expr::c((lcg(rng) % 4 + 1) as i64))),
            }
        }

        let extents = [e0, e1, e2][..depth].to_vec();
        let mut rng = seed.wrapping_mul(2654435761).wrapping_add(12345);
        let n_vars = extents.len();
        let cap_rem = |e: Expr| Expr::Rem(Box::new(e), Box::new(Expr::c(CAP as i64)));
        let src_off = cap_rem(gen_expr(&mut rng, n_vars, 3));
        let dst_off = cap_rem(gen_expr(&mut rng, n_vars, 3));
        // a one-step storing relu over one element: read src, write dst
        let mut relu = gc_tir::ir::RowChain::new(1, 1, 1, true);
        relu.unary(gc_microkernel::UnaryOp::Relu).unwrap();
        let mut body = vec![Stmt::Op(Intrinsic::new(
            Op::RowChain(relu),
            [
                View::new(BufId::Param(0), src_off, 1),
                View::new(BufId::Param(1), dst_off, 1),
            ],
            [],
        ))];
        for (i, &e) in extents.iter().enumerate().rev() {
            body = vec![Stmt::For {
                var: VarId(i),
                extent: e,
                parallel: parallel && i == 0,
                body,
            }];
        }
        let func = Func {
            name: "random_nest".into(),
            params: vec![
                BufDecl::new(DataType::F32, CAP, "in"),
                BufDecl::new(DataType::F32, CAP, "out"),
            ],
            locals: vec![],
            var_count: n_vars,
            body,
        };

        let mut m = Module::new();
        let g_in = m.add_global(GlobalDecl {
            dtype: DataType::F32,
            elems: CAP,
            kind: GlobalKind::Input(0),
            name: "x".into(),
        });
        let g_out = m.add_global(GlobalDecl {
            dtype: DataType::F32,
            elems: CAP,
            kind: GlobalKind::Output(0),
            name: "y".into(),
        });
        let f = m.add_func(func);
        m.main_calls.push(Call { func: f, args: vec![g_in, g_out] });

        // the validator must accept every generated program
        prop_assert!(
            validate_module(&m).is_ok(),
            "validator rejected a well-formed random nest: {:?}",
            validate_module(&m)
        );

        let plan = compile_module(&m, 1);
        prop_assert!(
            plan.func(f).is_some(),
            "plan builder rejected a bounded random nest (seed {seed})"
        );

        let pool = ThreadPool::new(1);
        let x: Vec<f32> = (0..CAP).map(|i| i as f32 - 31.5).collect();
        let mut interp_globals = vec![Storage::F32(x.clone()), Storage::F32(vec![0.0; CAP])];
        gc_tir::exec::run_calls(
            &m,
            &m.main_calls,
            &mut interp_globals,
            &pool,
            Default::default(),
            Default::default(),
        );

        let mut plan_globals = vec![Storage::F32(x), Storage::F32(vec![0.0; CAP])];
        let mut scratch = PlanScratch::for_plan(&plan);
        run_plan_call(
            &plan,
            f,
            &m.main_calls[0].args,
            &mut Globals::owned(&mut plan_globals),
            &pool,
            &mut scratch,
            ExecOptions::checked(),
            Default::default(),
        );

        match (&interp_globals[g_out], &plan_globals[g_out]) {
            (Storage::F32(a), Storage::F32(b)) => {
                for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                    prop_assert!(
                        x.to_bits() == y.to_bits(),
                        "out[{i}]: interp {x} vs checked plan {y} (seed {seed})"
                    );
                }
            }
            _ => prop_assert!(false, "output storage dtype changed"),
        }
    }

    #[test]
    fn projection_is_deterministic(
        m in small_dim(),
        h in small_dim(),
        coarse in any::<bool>(),
        ragged in any::<bool>(),
        seed in 0u64..1000,
    ) {
        // The tuner picks and reports its winners by projected cycles,
        // and the benchmark's `machine.projected_ms` reads the same
        // projector, so it must be a pure function of the module: two
        // independent compiles of the same graph under the same options
        // must project bit-identically, and re-projecting the same
        // compiled partition must never drift.
        let build = || workloads::mlp_f32(m.max(2) * 4, &[h.max(2) * 4, 24, 8], seed);
        let opts = |()| {
            let mut o = compile_opts();
            o.coarse_fusion = coarse;
            o.ragged = ragged;
            o
        };
        let c1 = Compiler::new(opts(())).compile(build()).unwrap();
        let c2 = Compiler::new(opts(())).compile(build()).unwrap();
        let (p1, p1b, p2) = (c1.project(), c1.project(), c2.project());
        for (a, b) in [(&p1, &p1b), (&p1, &p2)] {
            prop_assert_eq!(a.cycles.to_bits(), b.cycles.to_bits());
            prop_assert_eq!(a.compute_cycles.to_bits(), b.compute_cycles.to_bits());
            prop_assert_eq!(a.memory_cycles.to_bits(), b.memory_cycles.to_bits());
            prop_assert_eq!(a.sync_cycles.to_bits(), b.sync_cycles.to_bits());
            prop_assert_eq!(a.dispatch_cycles.to_bits(), b.dispatch_cycles.to_bits());
            prop_assert_eq!(a.per_call.len(), b.per_call.len());
            for (x, y) in a.per_call.iter().zip(&b.per_call) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn scalar_binary_chain_matches(
        m in small_dim(),
        n in small_dim(),
        scale in 0.25f32..4.0,
        seed in 0u64..1000,
    ) {
        let build = || {
            let mut g = Graph::new();
            let x = g.add_input(TensorDesc::new([m, 8], DataType::F32), "x");
            let w = g.add_constant(Tensor::random(&[8, n], DataType::F32, seed), "w");
            let s = g.add_constant(Tensor::scalar_f32(scale), "s");
            let mm = g.add_op(OpKind::MatMul, &[x, w]).unwrap();
            let d = g.add_op(OpKind::Binary(BinaryKind::Div), &[mm, s]).unwrap();
            let t = g.add_op(OpKind::Unary(UnaryKind::Tanh), &[d]).unwrap();
            g.mark_output(t);
            g
        };
        let g0 = build();
        let inputs = random_inputs(&g0, seed + 11);
        let want = reference_eval(&g0, &inputs);
        let compiled = Compiler::new(compile_opts()).compile(build()).unwrap();
        let (outs, _) = compiled.execute(&inputs).unwrap();
        for i in 0..want[0].desc().volume() {
            let a = outs[0].storage().get_as_f64(i);
            let b = want[0].storage().get_as_f64(i);
            prop_assert!((a - b).abs() < 1e-4, "elem {i}: {a} vs {b}");
        }
    }
}
