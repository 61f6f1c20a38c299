//! End-to-end correctness: compiled executions vs the naive reference,
//! across shapes, precisions, and optimization settings.

use gc_bench::workloads::{
    self, mha_configs, mlp1_layers, mlp2_layers, mlp_f32, mlp_int8, random_inputs, reference_eval,
    MhaConfig,
};
use gc_core::{CompileOptions, CompiledPartition, Compiler};
use gc_machine::MachineDescriptor;
use gc_tensor::{DataType, Tensor, TensorDesc};

fn opts() -> CompileOptions {
    let mut o = CompileOptions::new(MachineDescriptor::xeon_8358());
    o.threads = Some(2);
    o
}

fn compile_with(o: CompileOptions, g: gc_graph::Graph) -> CompiledPartition {
    Compiler::new(o).compile(g).expect("compile")
}

fn assert_close(got: &Tensor, want: &Tensor, tol: f64, label: &str) {
    assert_eq!(
        got.desc().volume(),
        want.desc().volume(),
        "{label}: volume mismatch"
    );
    // compiled outputs come back flat; compare element streams
    let n = want.desc().volume();
    let mut worst = 0f64;
    for i in 0..n {
        let a = got.storage().get_as_f64(i);
        let b = want.storage().get_as_f64(i);
        worst = worst.max((a - b).abs());
    }
    assert!(worst <= tol, "{label}: max diff {worst} > {tol}");
}

#[test]
fn single_matmul_f32_many_shapes() {
    for &(m, n, k) in &[
        (4usize, 4usize, 4usize),
        (32, 512, 13),
        (64, 256, 512),
        (16, 48, 96),
        (32, 1, 256),
        (8, 7, 5),
    ] {
        let g = workloads::single_matmul(m, n, k, workloads::Precision::F32, 1);
        let inputs = random_inputs(&g, 9);
        let want = reference_eval(&g, &inputs);
        let compiled = compile_with(opts(), g);
        let (outs, _) = compiled.execute(&inputs).expect("exec");
        assert_close(&outs[0], &want[0], 1e-3, &format!("matmul {m}x{n}x{k}"));
    }
}

#[test]
fn single_matmul_int8_matches_reference_pipeline() {
    for &(m, n, k) in &[(32usize, 64usize, 16usize), (32, 512, 13), (64, 128, 256)] {
        let g = workloads::single_matmul(m, n, k, workloads::Precision::Int8, 2);
        let inputs = random_inputs(&g, 11);
        // reference runs the *unconverted* graph (dequant -> f32 matmul
        // -> quantize); the compiled path uses the int8 rewrite. They
        // must agree to within one quantization step.
        let want = reference_eval(&g, &inputs);
        let compiled = compile_with(opts(), g);
        let (outs, _) = compiled.execute(&inputs).expect("exec");
        let n_el = want[0].desc().volume();
        let mut worst = 0i64;
        for i in 0..n_el {
            let a = outs[0].storage().get_as_f64(i) as i64;
            let b = want[0].storage().get_as_f64(i) as i64;
            worst = worst.max((a - b).abs());
        }
        assert!(worst <= 1, "int8 {m}x{n}x{k}: worst quant diff {worst}");
    }
}

#[test]
fn mlp1_f32_all_settings_agree_with_reference() {
    let g0 = mlp_f32(32, &mlp1_layers(), 3);
    let inputs = random_inputs(&g0, 5);
    let want = reference_eval(&g0, &inputs);
    let machine = MachineDescriptor::xeon_8358();

    let settings: Vec<(&str, CompileOptions)> = vec![
        ("full", opts()),
        ("no-coarse", {
            let mut o = CompileOptions::without_coarse_fusion(machine.clone());
            o.threads = Some(2);
            o
        }),
        ("unfused", {
            let mut o = CompileOptions::unfused(machine.clone());
            o.threads = Some(2);
            o
        }),
        ("no-layout-prop", {
            let mut o = opts();
            o.propagate_layouts = false;
            o
        }),
        ("no-reuse-no-shrink", {
            let mut o = opts();
            o.reuse_buffers = false;
            o.shrink_tensors = false;
            o
        }),
    ];
    for (name, o) in settings {
        let g = mlp_f32(32, &mlp1_layers(), 3);
        let compiled = compile_with(o, g);
        let (outs, _) = compiled.execute(&inputs).expect("exec");
        assert_close(&outs[0], &want[0], 1e-2, name);
    }
}

#[test]
fn mlp1_f32_larger_batches() {
    for batch in [64usize, 128] {
        let g = mlp_f32(batch, &mlp1_layers(), 4);
        let inputs = random_inputs(&g, 6);
        let want = reference_eval(&g, &inputs);
        let compiled = compile_with(opts(), g);
        let (outs, _) = compiled.execute(&inputs).expect("exec");
        assert_close(&outs[0], &want[0], 1e-2, &format!("mlp1 b{batch}"));
    }
}

#[test]
fn mlp_int8_full_pipeline() {
    let g0 = mlp_int8(32, &mlp1_layers(), 7);
    let inputs = random_inputs(&g0, 8);
    let want = reference_eval(&g0, &inputs);
    let compiled = compile_with(opts(), mlp_int8(32, &mlp1_layers(), 7));
    let (outs, _) = compiled.execute(&inputs).expect("exec");
    // int8 chains accumulate rounding: allow a few quantization steps
    let n = want[0].desc().volume();
    let mut worst = 0i64;
    for i in 0..n {
        let a = outs[0].storage().get_as_f64(i) as i64;
        let b = want[0].storage().get_as_f64(i) as i64;
        worst = worst.max((a - b).abs());
    }
    assert!(worst <= 3, "int8 MLP worst diff {worst} quant steps");
}

fn tiny_mha() -> MhaConfig {
    MhaConfig {
        name: "tiny",
        seq: 16,
        hidden: 64,
        heads: 4,
    }
}

#[test]
fn mha_f32_matches_reference() {
    let (g0, _) = workloads::mha_f32(2, &tiny_mha());
    let inputs = random_inputs(&g0, 13);
    let want = reference_eval(&g0, &inputs);
    let (g, _) = workloads::mha_f32(2, &tiny_mha());
    let compiled = compile_with(opts(), g);
    let (outs, _) = compiled.execute(&inputs).expect("exec");
    assert_close(&outs[0], &want[0], 1e-3, "mha tiny");
}

#[test]
fn mha_f32_real_config_small_batch() {
    let cfg = mha_configs()[0]; // seq 128, hidden 768, heads 8
    let (g0, _) = workloads::mha_f32(1, &cfg);
    let inputs = random_inputs(&g0, 17);
    let want = reference_eval(&g0, &inputs);
    let (g, _) = workloads::mha_f32(1, &cfg);
    let compiled = compile_with(opts(), g);
    let (outs, _) = compiled.execute(&inputs).expect("exec");
    assert_close(&outs[0], &want[0], 5e-2, "mha_1 b1");
}

#[test]
fn mha_f32_no_coarse_fusion_agrees() {
    let (g0, _) = workloads::mha_f32(2, &tiny_mha());
    let inputs = random_inputs(&g0, 19);
    let want = reference_eval(&g0, &inputs);
    let mut o = CompileOptions::without_coarse_fusion(MachineDescriptor::xeon_8358());
    o.threads = Some(2);
    let (g, _) = workloads::mha_f32(2, &tiny_mha());
    let compiled = compile_with(o, g);
    let (outs, _) = compiled.execute(&inputs).expect("exec");
    assert_close(&outs[0], &want[0], 1e-3, "mha no-coarse");
}

#[test]
fn mha_int8_runs_and_is_close() {
    let (g0, _) = workloads::mha_int8(2, &tiny_mha());
    let inputs = random_inputs(&g0, 23);
    let want = reference_eval(&g0, &inputs);
    let (g, _) = workloads::mha_int8(2, &tiny_mha());
    let compiled = compile_with(opts(), g);
    let (outs, _) = compiled.execute(&inputs).expect("exec");
    // attention outputs are weighted averages of dequantized int8 V
    // values; everything is O(1), so absolute tolerance works
    assert_close(&outs[0], &want[0], 0.15, "mha int8");
}

#[test]
fn compiled_partition_is_reusable_and_init_runs_once() {
    let g = mlp_f32(32, &mlp1_layers(), 31);
    let inputs = random_inputs(&g, 37);
    let want = reference_eval(&g, &inputs);
    let compiled = compile_with(opts(), mlp_f32(32, &mlp1_layers(), 31));
    for _ in 0..3 {
        let (outs, _) = compiled.execute(&inputs).expect("exec");
        assert_close(&outs[0], &want[0], 1e-2, "repeat exec");
    }
    assert_eq!(compiled.executable().init_runs(), 1);
}

#[test]
fn report_reflects_fusion_decisions() {
    let compiled = compile_with(opts(), mlp_f32(512, &mlp1_layers(), 41));
    let r = compiled.report();
    assert_eq!(r.partitions, 3, "3 fused matmuls");
    assert!(r.fused_post_ops >= 2, "two relus fused");
    assert_eq!(r.merged_groups, 1, "MLP chain merges into one group");

    let mut o = CompileOptions::without_coarse_fusion(MachineDescriptor::xeon_8358());
    o.threads = Some(1);
    let nc = compile_with(o, mlp_f32(128, &mlp1_layers(), 41));
    assert_eq!(nc.report().merged_groups, 0);
}

/// Matmuls whose M x N block grid is narrower than the pool: a deep-K
/// 16x64x8192 f32 matmul on a 128-core descriptor (at most 16 M x N
/// tasks), and MLP_2 f32 at batch 8 on `aarch64_small`. Both lower to
/// the one matmul template, pass the TIR validator, and match the
/// reference to f32 summation-order noise (1e-5 of the output's scale).
#[test]
fn underfilled_pool_matmuls_validate_and_match_reference() {
    let check = |label: &str, machine: MachineDescriptor, build: &dyn Fn() -> gc_graph::Graph| {
        let g = build();
        let inputs = random_inputs(&g, 53);
        let want = reference_eval(&g, &inputs);
        let mut o = CompileOptions::new(machine);
        o.threads = Some(2);
        let compiled = compile_with(o, build());
        gc_tir::validate_module(compiled.executable().module())
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let (outs, _) = compiled.execute(&inputs).expect("exec");
        let scale = (0..want[0].desc().volume())
            .map(|i| want[0].storage().get_as_f64(i).abs())
            .fold(1.0, f64::max);
        assert_close(&outs[0], &want[0], 1e-5 * scale, label);
    };
    let mut wide = MachineDescriptor::xeon_8358();
    wide.cores = 128;
    check("16x64x8192 f32 @128 cores", wide, &|| {
        workloads::single_matmul(16, 64, 8192, workloads::Precision::F32, 51)
    });
    check(
        "aarch64_small MLP_2 f32 b8",
        MachineDescriptor::aarch64_small(),
        &|| mlp_f32(8, &mlp2_layers(), 51),
    );
}

#[test]
fn rectangular_and_degenerate_shapes() {
    // n = 1 (DLRM final layer), k prime
    for &(m, n, k) in &[(32usize, 1usize, 256usize), (64, 16, 479), (16, 31, 7)] {
        let g = workloads::single_matmul(m, n, k, workloads::Precision::F32, 43);
        let inputs = random_inputs(&g, 47);
        let want = reference_eval(&g, &inputs);
        let compiled = compile_with(opts(), g);
        let (outs, _) = compiled.execute(&inputs).expect("exec");
        assert_close(&outs[0], &want[0], 1e-3, &format!("edge {m}x{n}x{k}"));
    }
}

#[test]
fn matmul_with_bias_and_gelu_chain() {
    use gc_graph::{BinaryKind, OpKind, UnaryKind};
    let mut g = gc_graph::Graph::new();
    let x = g.add_input(TensorDesc::new([32, 64], DataType::F32), "x");
    let w = g.add_constant(Tensor::random(&[64, 48], DataType::F32, 51), "w");
    let b = g.add_constant(Tensor::random(&[48], DataType::F32, 53), "b");
    let mm = g.add_op(OpKind::MatMul, &[x, w]).unwrap();
    let biased = g.add_op(OpKind::Binary(BinaryKind::Add), &[mm, b]).unwrap();
    let act = g.add_op(OpKind::Unary(UnaryKind::Gelu), &[biased]).unwrap();
    g.mark_output(act);
    let inputs = random_inputs(&g, 55);
    let want = reference_eval(&g, &inputs);
    let compiled = compile_with(opts(), g);
    let (outs, _) = compiled.execute(&inputs).expect("exec");
    assert_close(&outs[0], &want[0], 1e-3, "bias+gelu");
}

/// Compile `g` with a parameter log attached: the report and every
/// logged choice, in order.
fn logged_compile(g: gc_graph::Graph) -> (gc_core::CompileReport, Vec<gc_lowering::ParamChoice>) {
    use std::sync::{Arc, Mutex};
    let log: gc_lowering::ParamLog = Arc::new(Mutex::new(Vec::new()));
    let mut o = opts();
    o.param_log = Some(log.clone());
    let report = compile_with(o, g).report().clone();
    let logged = log.lock().unwrap().clone();
    (report, logged)
}

/// An untuned compile lowers the graph once: every tunable partition
/// logs its plain choice point exactly once (and at most one
/// blocked-input follow-up), where a second whole-graph lowering that
/// replayed every search to compare plans logged each one again.
#[test]
fn untuned_compile_logs_each_choice_point_once() {
    let graphs = [
        ("MLP_2 f32 b128", mlp_f32(128, &mlp2_layers(), 3)),
        ("MLP_2 int8 b128", mlp_int8(128, &mlp2_layers(), 3)),
        ("MHA_1 f32 b4", workloads::mha_f32(4, &mha_configs()[0]).0),
        ("decode rows 64 cap 64", workloads::decode_f32(64, 64, 64)),
    ];
    for (label, g) in graphs {
        let mut optimized = g.clone();
        gc_core::pipeline::optimize_graph(&mut optimized, &opts()).unwrap();
        let (parts, _) = gc_core::pipeline::partition_graph(&optimized, &opts()).unwrap();
        let tunable = parts.parts.iter().filter(|p| p.tunable.is_some()).count();
        let (_, logged) = logged_compile(g);
        let plain = logged
            .iter()
            .filter(|c| c.constraints.fixed_kb.is_none())
            .count();
        assert!(tunable > 0, "{label}");
        assert_eq!(plain, tunable, "{label}: {logged:?}");
        assert!(logged.len() <= 2 * tunable, "{label}: {logged:?}");
    }
}

/// The template-parameter search is an exact branch-and-bound: MLP_2
/// at batch 128 logs the exhaustive walk's argmin
/// (`choose_params_ranked(.., 1)`) at every choice point, and scores a
/// few percent of what walking every query of the compile exhaustively
/// enumerates.
#[test]
fn mlp2_search_prunes_yet_matches_exhaustive_walk() {
    use gc_lowering::{choose_params_ranked, Constraints};
    let machine = opts().machine;
    for int8 in [false, true] {
        let layers = workloads::mlp2_layers();
        let g = if int8 {
            mlp_int8(128, &layers, 3)
        } else {
            mlp_f32(128, &layers, 3)
        };
        let (report, logged) = logged_compile(g);
        assert!(!logged.is_empty());
        for c in &logged {
            let want = choose_params_ranked(&machine, &c.problem, &c.constraints, 1);
            assert_eq!(
                c.params, want[0],
                "int8={int8}: {:?} {:?}",
                c.problem, c.constraints
            );
        }

        // Every query the compile ran: the logged choice points, plus
        // group_profitable's two per member of the coarse group (MLP_2's
        // five layers, one plain query each in the log). The free one
        // has default constraints (no reduce post-op); the grouped one
        // is the member's logged plain query when the group merged. A
        // split group's grouped queries are not logged and are left
        // out, which only shrinks the total the ratio is taken against.
        let mut queries: Vec<_> = logged.iter().map(|c| (c.problem, c.constraints)).collect();
        for c in logged.iter().filter(|c| c.constraints.fixed_kb.is_none()) {
            queries.push((c.problem, Constraints::default()));
            if c.constraints.fixed_tasks.is_some() {
                queries.push((c.problem, c.constraints));
            }
        }
        if report.merged_groups > 0 {
            assert_eq!(queries.len(), report.search.queries, "int8={int8}");
        }
        let exhaustive: usize = queries
            .iter()
            .map(|(p, c)| choose_params_ranked(&machine, p, c, usize::MAX).len())
            .sum();
        assert!(
            report.search.scored * 20 < exhaustive,
            "int8={int8}: scored {} of {exhaustive} candidates ({:?})",
            report.search.scored,
            report.search
        );
        assert!(report.search.tiles_pruned * 10 >= report.search.tiles * 9);
    }
}

/// Under the default options and with fusion off.
fn default_and_unfused() -> [(&'static str, CompileOptions); 2] {
    let unfused = CompileOptions {
        threads: Some(2),
        ..CompileOptions::unfused(MachineDescriptor::xeon_8358())
    };
    [("default", opts()), ("unfused", unfused)]
}

/// `x [b, m, k] @ w [b, k, n] + y [m, n]`: a side operand `[M, N]`
/// broadcast over the batch.
fn batch_matmul_plus_matrix(b: usize, m: usize, n: usize, k: usize) -> gc_graph::Graph {
    use gc_graph::{BinaryKind, Graph, OpKind};
    let mut g = Graph::new();
    let x = g.add_input(TensorDesc::new([b, m, k], DataType::F32), "x");
    let w = g.add_input(TensorDesc::new([b, k, n], DataType::F32), "w");
    let y = g.add_input(TensorDesc::new([m, n], DataType::F32), "y");
    let mm = g.add_op(OpKind::MatMul, &[x, w]).unwrap();
    let out = g.add_op(OpKind::Binary(BinaryKind::Add), &[mm, y]).unwrap();
    g.mark_output(out);
    g
}

/// Graphs that fusion, the fused lowering and the standalone lowering
/// get right only by classifying a side operand the same way, by shape
/// and by position. `[M, N]` broadcast over a batch — standalone, and
/// after a batch matmul with `B == M` (whose `[M, N]` has the volume of
/// one row per batch index) or `B != M` — is refused with a typed error
/// naming both shapes; `r - x W` and `r / x W` (the matmul's output is
/// the rhs of a binary that does not commute) match the reference, the
/// division to a relative 1e-5. Under the default options and with
/// fusion off; none panics.
#[test]
fn side_operands_follow_one_shape_rule() {
    use gc_graph::{BinaryKind, Graph, OpKind};
    let refused = |label: &str, o: CompileOptions, g: Graph, shapes: [&str; 2]| {
        let e = match Compiler::new(o).compile(g) {
            Err(e @ gc_core::CoreError::Lower(_)) => e.to_string(),
            Err(e) => panic!("{label}: not a lowering error: {e}"),
            Ok(_) => panic!("{label}: compiled"),
        };
        for s in shapes {
            assert!(e.contains(s), "{label}: `{e}` does not name {s}");
        }
    };
    for (mode, o) in default_and_unfused() {
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([2, 3, 4], DataType::F32), "x");
        let y = g.add_input(TensorDesc::new([3, 4], DataType::F32), "y");
        let z = g.add_op(OpKind::Binary(BinaryKind::Add), &[x, y]).unwrap();
        g.mark_output(z);
        refused(
            &format!("{mode} x[2,3,4] + y[3,4]"),
            o.clone(),
            g,
            ["[3, 4]", "[2, 3, 4]"],
        );
        for (b, m) in [(4, 4), (2, 4)] {
            refused(
                &format!("{mode} matmul[{b},{m},8] + y[{m},8]"),
                o.clone(),
                batch_matmul_plus_matrix(b, m, 8, 8),
                [&format!("[{m}, 8]"), &format!("[{b}, {m}, 8]")],
            );
        }

        // r - x W and r / x W with x W bounded away from zero
        for (kind, rel) in [(BinaryKind::Sub, false), (BinaryKind::Div, true)] {
            let (m, n, k) = (16, 32, 64);
            let build = || {
                let mut g = Graph::new();
                let x = g.add_input(TensorDesc::new([m, k], DataType::F32), "x");
                let w_vals = (0..k * n).map(|i| 0.5 + (i % 7) as f32 / 14.0).collect();
                let w = g.add_constant(Tensor::from_vec_f32(&[k, n], w_vals).unwrap(), "w");
                let r = g.add_input(TensorDesc::new([m, n], DataType::F32), "r");
                let mm = g.add_op(OpKind::MatMul, &[x, w]).unwrap();
                let out = g.add_op(OpKind::Binary(kind), &[r, mm]).unwrap();
                g.mark_output(out);
                g
            };
            let x_vals = (0..m * k).map(|i| 0.5 + (i % 5) as f32 / 10.0).collect();
            let inputs = vec![
                Tensor::from_vec_f32(&[m, k], x_vals).unwrap(),
                Tensor::random(&[m, n], DataType::F32, 3),
            ];
            let want = reference_eval(&build(), &inputs);
            let (outs, _) = compile_with(o.clone(), build())
                .execute(&inputs)
                .expect("exec");
            let label = format!("{mode} r {kind:?} matmul");
            for i in 0..m * n {
                let (a, b) = (
                    outs[0].storage().get_as_f64(i),
                    want[0].storage().get_as_f64(i),
                );
                let tol = if rel { 1e-5 * b.abs() } else { 1e-4 };
                assert!((a - b).abs() <= tol, "{label} elem {i}: {a} vs {b}");
            }
        }
    }
}

/// `(x W - s) * t` over a batch with keepdim `[B, M, 1]` operands: both
/// binaries fuse as column-vector steps of the matmul's row chain, read
/// at each m-tile's rows; with fusion off each is a one-op chain with a
/// column-vector side operand.
#[test]
fn column_vector_operands_fuse_into_the_matmul() {
    use gc_graph::{BinaryKind, Graph, OpKind};
    let (b, m, n, k) = (2, 64, 48, 32);
    let build = || {
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([b, m, k], DataType::F32), "x");
        let w = g.add_input(TensorDesc::new([b, k, n], DataType::F32), "w");
        let s = g.add_input(TensorDesc::new([b, m, 1], DataType::F32), "s");
        let t = g.add_input(TensorDesc::new([b, m, 1], DataType::F32), "t");
        let mm = g.add_op(OpKind::MatMul, &[x, w]).unwrap();
        let d = g.add_op(OpKind::Binary(BinaryKind::Sub), &[mm, s]).unwrap();
        let out = g.add_op(OpKind::Binary(BinaryKind::Mul), &[d, t]).unwrap();
        g.mark_output(out);
        g
    };
    let inputs = random_inputs(&build(), 17);
    let want = reference_eval(&build(), &inputs);
    for (mode, o) in default_and_unfused() {
        let compiled = compile_with(o, build());
        let parts = if mode == "default" { 1 } else { 3 };
        assert_eq!(compiled.report().partitions, parts, "{mode}");
        assert!(compiled.tir_text().contains("Sub.colv"), "{mode}");
        let (outs, _) = compiled.execute(&inputs).expect("exec");
        assert_close(&outs[0], &want[0], 1e-4, &format!("{mode} col vec"));
    }
}
