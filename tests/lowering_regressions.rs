//! Lowering bugs found by compiling the Table-1 graphs under settings the
//! other suites do not reach, each checked end to end against the naive
//! reference.

use gc_bench::workloads::{
    decode_f32, mha_configs, mha_f32, mlp1_layers, mlp2_layers, mlp_f32, mlp_int8, random_inputs,
    reference_eval,
};
use gc_core::{CompileOptions, CompiledPartition, Compiler};
use gc_graph::{BinaryKind, Graph, OpKind, UnaryKind};
use gc_machine::MachineDescriptor;
use gc_tensor::{DataType, QuantParams, Tensor, TensorDesc};
use gc_tir::{Op, Stmt};

/// Compile `build()` with `opts`, run it on seeded inputs, and return the
/// largest absolute difference from the reference and the largest
/// reference magnitude (the unnormalized f32 MLPs reach ~1e5).
fn max_err(opts: CompileOptions, build: impl Fn() -> Graph) -> (f64, f64) {
    let compiled = Compiler::new(opts).compile(build()).expect("compile");
    compiled_err(&compiled, build)
}

/// [`max_err`] for a partition already compiled from `build()`.
fn compiled_err(compiled: &CompiledPartition, build: impl Fn() -> Graph) -> (f64, f64) {
    let inputs = random_inputs(&build(), 5);
    let want = reference_eval(&build(), &inputs);
    let (outs, _) = compiled.execute(&inputs).expect("execute");
    let n = want[0].desc().volume();
    assert_eq!(outs[0].desc().volume(), n);
    (0..n).fold((0.0, 0.0), |(err, scale), i| {
        let (got, want) = (
            outs[0].storage().get_as_f64(i),
            want[0].storage().get_as_f64(i),
        );
        (
            f64::max(err, (got - want).abs()),
            f64::max(scale, want.abs()),
        )
    })
}

/// f32: within 1e-5 of the output's scale (f32 summation-order noise is
/// ~1e-6 of it). int8: within a few quantization steps (the chain rounds
/// at every layer; the default compile of MLP_2 is 4 steps off too).
fn assert_matches(label: &str, int8: bool, (err, scale): (f64, f64)) {
    let tol = if int8 { 4.0 } else { 1e-5 * scale.max(1.0) };
    assert!(err <= tol, "{label}: max error {err} > {tol}");
}

fn one_thread(machine: MachineDescriptor) -> CompileOptions {
    CompileOptions {
        threads: Some(1),
        ..CompileOptions::new(machine)
    }
}

/// Compiled for one core, MLP_2's last layers put a brgemm producer loop
/// and an unpack consumer loop side by side with the same loop variable.
/// The tensor-size pass used to take the two loops for one and shrink the
/// accumulator to a single window, so the unpack re-read the last window.
#[test]
fn mlp2_compiled_for_one_core_matches_reference() {
    let machine = MachineDescriptor {
        cores: 1,
        ..MachineDescriptor::xeon_8358()
    };
    let layers = mlp2_layers();
    let f32_err = max_err(one_thread(machine.clone()), || mlp_f32(128, &layers, 3));
    assert_matches("f32 MLP_2 at cores = 1", false, f32_err);
    let int8_err = max_err(one_thread(machine), || mlp_int8(128, &layers, 3));
    assert_matches("int8 MLP_2 at cores = 1", true, int8_err);
}

/// The library's fixed kernel menu ignores the MB/KB pins layout
/// propagation puts on a chained matmul; the chain used to read the
/// producer's blocked output anyway and trip the negotiation asserts.
#[test]
fn library_params_with_layout_propagation_matches_reference() {
    let opts = || CompileOptions {
        library_params: true,
        ..one_thread(MachineDescriptor::xeon_8358())
    };
    let err = max_err(opts(), || mlp_f32(32, &mlp1_layers(), 3));
    assert_matches("f32 MLP_1 b32", false, err);
    let err = max_err(opts(), || mlp_f32(128, &mlp2_layers(), 3));
    assert_matches("f32 MLP_2 b128", false, err);
    let err = max_err(opts(), || mlp_int8(32, &mlp2_layers(), 3));
    assert_matches("int8 MLP_2 b32", true, err);
}

/// Layout propagation is the lowering driver's negotiation: a matmul that
/// reads a chained matmul's output keeps its blocked layout, so the only
/// `unpack2d` left is the graph output's return to plain. With
/// propagation off, every layer unpacks its own output. Batch 32, not 1:
/// at batch 1 every layer unpacks its output either way.
#[test]
fn chained_matmuls_keep_blocked_intermediates() {
    for (name, layers, unpacks_off) in [("MLP_1", mlp1_layers(), 3), ("MLP_2", mlp2_layers(), 5)] {
        for (propagate_layouts, want) in [(true, 1), (false, unpacks_off)] {
            let opts = CompileOptions {
                propagate_layouts,
                ..one_thread(MachineDescriptor::xeon_8358())
            };
            let build = || mlp_f32(32, &layers, 3);
            let compiled = Compiler::new(opts).compile(build()).expect("compile");
            let label = format!("f32 {name} b32, propagate_layouts = {propagate_layouts}");
            let unpacks = compiled.tir_text().matches("unpack2d").count();
            assert_eq!(unpacks, want, "{label}: unpack2d count");
            assert_matches(&label, false, compiled_err(&compiled, build));
        }
    }
}

/// A ragged m pads at pack time, like a ragged n: at batch 33 MLP_2's
/// row blocks leave an edge tile, which `pack2d.pad` zero-fills so the
/// full-tile brgemm runs over it, and the clamped unpack drops the pad
/// rows. No brgemm is clamped to the edge (`brgemm.*.tail`).
#[test]
fn odd_batches_pad_their_edge_tiles() {
    for (int8, build) in [
        (false, (|| mlp_f32(33, &mlp2_layers(), 3)) as fn() -> Graph),
        (true, || mlp_int8(33, &mlp2_layers(), 3)),
    ] {
        let compiled = Compiler::new(one_thread(MachineDescriptor::xeon_8358()))
            .compile(build())
            .expect("compile");
        let label = format!("{} MLP_2 b33", if int8 { "int8" } else { "f32" });
        let tir = compiled.tir_text();
        assert_eq!(tir.matches(".tail ").count(), 0, "{label}: m-tail brgemm");
        assert!(tir.contains("pack2d.pad"), "{label}: no padded edge tile");
        assert_matches(&label, int8, compiled_err(&compiled, build));
    }
}

/// An f32 MLP whose layers each add a bias; the first also adds its own
/// input back (a full-shape residual), so its chain reads two side
/// operands: `relu(x w0 + b0 + x) -> relu(. w1 + b1)`.
fn residual_mlp(batch: usize, seed: u64) -> Graph {
    let mut g = Graph::new();
    let x = g.add_input(TensorDesc::new([batch, 256], DataType::F32), "x");
    let mut cur = x;
    for (i, n) in [256, 128].into_iter().enumerate() {
        let k = g.desc(cur).shape()[1];
        let seed = seed + 2 * i as u64;
        let w = g.add_constant(Tensor::random(&[k, n], DataType::F32, seed), "w");
        let b = g.add_constant(Tensor::random(&[n], DataType::F32, seed + 1), "b");
        cur = g.add_op(OpKind::MatMul, &[cur, w]).expect("matmul");
        cur = g.add_op(OpKind::BiasAdd, &[cur, b]).expect("bias");
        if i == 0 {
            cur = g
                .add_op(OpKind::Binary(BinaryKind::Add), &[cur, x])
                .expect("residual");
        }
        cur = g
            .add_op(OpKind::Unary(UnaryKind::Relu), &[cur])
            .expect("relu");
    }
    g.mark_output(cur);
    g
}

/// [`mlp_int8`]'s layers with power-of-two scales, so the integer chain
/// is exact in f32 whatever order a path evaluates it in and the
/// compiled output must match the reference bit for bit.
fn mlp_int8_exact(batch: usize, layers: &[usize], seed: u64) -> Graph {
    let a_q = QuantParams::new(1.0 / 64.0, 8);
    let w_q = QuantParams::symmetric(1.0 / 32.0);
    let mut g = Graph::new();
    let mut cur = g.add_input(TensorDesc::new([batch, layers[0]], DataType::U8), "x_q");
    for (i, w) in layers.windows(2).enumerate() {
        let w = Tensor::random(&[w[0], w[1]], DataType::I8, seed + i as u64);
        let w = g.add_constant(w, "w_q");
        let a = g
            .add_op(OpKind::Dequantize { params: a_q }, &[cur])
            .unwrap();
        let w = g.add_op(OpKind::Dequantize { params: w_q }, &[w]).unwrap();
        let mut act = g.add_op(OpKind::MatMul, &[a, w]).unwrap();
        if i + 2 < layers.len() {
            act = g.add_op(OpKind::Unary(UnaryKind::Relu), &[act]).unwrap();
        }
        let quantize = OpKind::Quantize {
            dtype: DataType::U8,
            params: a_q,
        };
        cur = g.add_op(quantize, &[act]).unwrap();
    }
    g.mark_output(cur);
    g
}

/// Row chains per m-tile loop of `stmts` (a loop whose body zeroes an
/// accumulator: one iteration per m-tile of a task), in program order.
/// Panics on a chain inside a loop of that body, which would run more
/// than once per m-tile.
fn chains_per_m_tile(stmts: &[Stmt], out: &mut Vec<usize>) {
    let is_chain = |s: &&Stmt| matches!(s, Stmt::Op(i) if matches!(i.op, Op::RowChain(_)));
    for s in stmts {
        let Stmt::For { body, .. } = s else { continue };
        let zeroes = body.iter().any(
            |s| matches!(s, Stmt::Op(i) if matches!(i.op, Op::FillF32 { .. } | Op::ZeroI32 { .. })),
        );
        if !zeroes {
            chains_per_m_tile(body, out);
            continue;
        }
        gc_tir::visit::visit_intrinsics(body, &mut |i| {
            let direct = body
                .iter()
                .any(|s| matches!(s, Stmt::Op(d) if std::ptr::eq(d, i)));
            assert!(
                direct || !matches!(i.op, Op::RowChain(_)),
                "a row chain runs more than once per m-tile"
            );
        });
        out.push(body.iter().filter(is_chain).count());
    }
}

/// Every fused f32 post-op chain lowers to one storing or in-place row
/// chain per m-tile, never one call per column tile or per op (a row
/// chain is the only f32 elementwise kind a plan has). The MLPs' last
/// layers have no post-op and a plain output, so no chain.
/// Outputs match the reference: f32 to 1e-5 of their scale, int8 bit
/// for bit.
#[test]
fn fused_chains_are_one_row_chain_per_m_tile() {
    type Case = (&'static str, fn() -> Graph, &'static [usize]);
    let cases: [Case; 3] = [
        (
            "f32 MLP_2 b128",
            || mlp_f32(128, &mlp2_layers(), 3),
            &[1, 1, 1, 1, 0],
        ),
        (
            "int8 MLP_2 b128",
            || mlp_int8_exact(128, &mlp2_layers(), 3),
            &[1, 1, 1, 1, 0],
        ),
        (
            "f32 bias + residual MLP b64",
            || residual_mlp(64, 3),
            &[1, 1],
        ),
    ];
    for (label, build, want) in cases {
        let compiled = Compiler::new(one_thread(MachineDescriptor::xeon_8358()))
            .compile(build())
            .expect("compile");
        let module = compiled.executable().module();
        let mut chains = Vec::new();
        for call in &module.main_calls {
            chains_per_m_tile(&module.funcs[call.func].body, &mut chains);
        }
        assert_eq!(chains, want, "{label}: row chains per m-tile loop");

        if build().desc(build().outputs()[0]).dtype() == DataType::U8 {
            let inputs = random_inputs(&build(), 5);
            let want = reference_eval(&build(), &inputs);
            let (outs, _) = compiled.execute(&inputs).expect("execute");
            let got = outs[0].u8_slice().unwrap();
            let levels: std::collections::BTreeSet<u8> = got.iter().copied().collect();
            assert!(levels.len() > 16, "{label}: output saturated ({levels:?})");
            assert_eq!(
                got,
                want[0].u8_slice().unwrap(),
                "{label}: int8 bit for bit"
            );
        } else {
            assert_matches(label, false, compiled_err(&compiled, build));
        }
    }
}

/// The template addresses every tile through its batch index and task
/// split (`t / tasks`, `t % tasks`, then the m/n split of the task).
/// Lowering folds the divisions by 1; the plan builder folds the ones
/// the loop ranges settle, so such offsets are affine:
/// - the decode step's merged group (64 rows at capacity 64) has no
///   program offset, and the written-first proof covers its softmax
///   intermediate, so no local is zeroed per step;
/// - MLP_1 at batch 1 splits each layer's 32 tasks over n alone, so
///   `v0 / 32` and `(v0 % 32) / 32` under `parallel v0 in 0..32` are 0
///   and `v0 % 32` is `v0`: only the two weight prepacks that walk 256
///   tiles keep a division.
#[test]
fn task_splits_the_loop_ranges_settle_are_affine() {
    let compile = |g: Graph| {
        Compiler::new(one_thread(MachineDescriptor::xeon_8358()))
            .compile(g)
            .expect("compile")
    };
    let decode = compile(decode_f32(64, 64, 64));
    let tir = decode.tir_text();
    assert!(
        tir.contains("$inter_"),
        "the decode step is one merged group"
    );
    assert!(!tir.contains(" / 1)") && !tir.contains(" % 1)"), "{tir}");
    let stats = decode.executable().plan_stats();
    assert_eq!((stats.zeroed_locals, stats.program_offsets), (0, 0));

    let mlp = compile(mlp_f32(1, &mlp1_layers(), 3));
    assert_eq!(mlp.executable().plan_stats().program_offsets, 2);
}

/// An f32 MLP whose first layer has every side-operand shape a
/// standalone binary takes: a bias add (a row vector), gelu, a scalar
/// multiply (a constant of the program) and a residual add (the full
/// shape), then an identity; then a plain second layer.
fn elementwise_mlp(batch: usize, seed: u64) -> Graph {
    let mut g = Graph::new();
    let x = g.add_input(TensorDesc::new([batch, 64], DataType::F32), "x");
    let w = g.add_constant(Tensor::random(&[64, 64], DataType::F32, seed), "w");
    let b = g.add_constant(Tensor::random(&[64], DataType::F32, seed + 1), "b");
    let half = g.add_constant(Tensor::scalar_f32(0.5), "half");
    let w2 = g.add_constant(Tensor::random(&[64, 32], DataType::F32, seed + 2), "w2");
    let mut cur = g.add_op(OpKind::MatMul, &[x, w]).expect("matmul");
    cur = g.add_op(OpKind::BiasAdd, &[cur, b]).expect("bias");
    cur = g
        .add_op(OpKind::Unary(UnaryKind::Gelu), &[cur])
        .expect("gelu");
    cur = g
        .add_op(OpKind::Binary(BinaryKind::Mul), &[cur, half])
        .expect("scale");
    cur = g
        .add_op(OpKind::Binary(BinaryKind::Add), &[cur, x])
        .expect("residual");
    cur = g
        .add_op(OpKind::Unary(UnaryKind::Identity), &[cur])
        .expect("identity");
    cur = g.add_op(OpKind::MatMul, &[cur, w2]).expect("matmul");
    g.mark_output(cur);
    g
}

/// With fusion off every f32 unary and binary is a function of its own
/// whose body is one parallel loop over row blocks around one row-chain
/// call — the program and kernel a fused chain runs. MHA_1 (its scale,
/// mask add and the five ops of its decomposed softmax, two of them
/// reductions) and an MLP with a bias add, gelu, a scalar multiply, a
/// residual add and an identity, which is the chain with no steps (a
/// copy); both match the reference to 1e-5 of their scale.
#[test]
fn unfused_f32_ops_are_row_chains() {
    const ELEMENTWISE: [&str; 14] = [
        "relu", "gelu", "sigmoid", "tanh", "exp", "square", "neg", "identity", "add", "sub", "mul",
        "div", "max", "min",
    ];
    type Case = (&'static str, fn() -> Graph, usize);
    let cases: [Case; 2] = [
        ("MHA_1 f32 b4", || mha_f32(4, &mha_configs()[0]).0, 5),
        ("f32 MLP", || elementwise_mlp(32, 3), 5),
    ];
    for (label, build, want) in cases {
        let opts = CompileOptions {
            threads: Some(1),
            ..CompileOptions::unfused(MachineDescriptor::xeon_8358())
        };
        let compiled = Compiler::new(opts).compile(build()).expect("compile");
        let module = compiled.executable().module();
        let mut chains = 0;
        for call in &module.main_calls {
            let f = &module.funcs[call.func];
            let op = f.name.strip_prefix("op_").unwrap_or_default();
            if !ELEMENTWISE.contains(&op) {
                continue;
            }
            let chain = match f.body.as_slice() {
                [Stmt::For {
                    parallel: true,
                    body,
                    ..
                }] => match body.as_slice() {
                    [Stmt::Op(i)] => match i.op {
                        Op::RowChain(c) => Some(c),
                        _ => None,
                    },
                    _ => None,
                },
                _ => None,
            };
            let one_chain = chain.is_some_and(|c| (op == "identity") == c.steps().is_empty());
            assert!(
                one_chain,
                "{label}: `{}` is not one row chain per row block:\n{}",
                f.name,
                gc_tir::printer::print_func(f)
            );
            chains += 1;
        }
        assert_eq!(chains, want, "{label}: standalone elementwise functions");
        assert_matches(label, false, compiled_err(&compiled, build));
    }
}
