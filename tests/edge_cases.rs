//! Edge cases and failure injection through the public API: degenerate
//! shapes, saturation, shared weights, multi-output graphs, thread-count
//! independence, and the batchnorm/gelu decomposition paths end-to-end.

use gc_bench::workloads::{random_inputs, reference_eval};
use gc_core::{CompileOptions, Compiler};
use gc_graph::{BinaryKind, Graph, OpKind, UnaryKind};
use gc_machine::MachineDescriptor;
use gc_tensor::{DataType, QuantParams, Tensor, TensorDesc};

fn opts(threads: usize) -> CompileOptions {
    let mut o = CompileOptions::new(MachineDescriptor::xeon_8358());
    o.threads = Some(threads);
    o
}

fn assert_close_flat(got: &Tensor, want: &Tensor, tol: f64, label: &str) {
    let n = want.desc().volume();
    assert_eq!(got.desc().volume(), n, "{label}: volume");
    for i in 0..n {
        let a = got.storage().get_as_f64(i);
        let b = want.storage().get_as_f64(i);
        assert!((a - b).abs() <= tol, "{label} elem {i}: {a} vs {b}");
    }
}

#[test]
fn degenerate_matmul_shapes() {
    // 1x1x1 through to vectors: every degenerate corner must still tile
    for &(m, n, k) in &[
        (1usize, 1usize, 1usize),
        (1, 64, 64),
        (64, 1, 64),
        (64, 64, 1),
        (1, 1, 512),
        (2, 3, 5),
    ] {
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([m, k], DataType::F32), "x");
        let w = g.add_constant(Tensor::random(&[k, n], DataType::F32, 1), "w");
        let y = g.add_op(OpKind::MatMul, &[x, w]).unwrap();
        g.mark_output(y);
        let inputs = random_inputs(&g, 2);
        let want = reference_eval(&g, &inputs);
        let c = Compiler::new(opts(2)).compile(g).expect("compile");
        let (outs, _) = c.execute(&inputs).expect("exec");
        assert_close_flat(&outs[0], &want[0], 1e-3, &format!("{m}x{n}x{k}"));
    }
}

#[test]
fn batchnorm_inference_end_to_end() {
    let build = || {
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([16, 8], DataType::F32), "x");
        let w = g.add_constant(Tensor::random(&[8, 8], DataType::F32, 3), "w");
        let gamma = g.add_constant(Tensor::random(&[8], DataType::F32, 4), "gamma");
        let beta = g.add_constant(Tensor::random(&[8], DataType::F32, 5), "beta");
        let mean = g.add_constant(Tensor::random(&[8], DataType::F32, 6), "mean");
        // variance must be positive
        let var_vals: Vec<f32> = (0..8).map(|i| 0.5 + 0.1 * i as f32).collect();
        let var = g.add_constant(Tensor::from_vec_f32(&[8], var_vals).unwrap(), "var");
        let mm = g.add_op(OpKind::MatMul, &[x, w]).unwrap();
        let bn = g
            .add_op(
                OpKind::BatchNormInference { epsilon: 1e-5 },
                &[mm, gamma, beta, mean, var],
            )
            .unwrap();
        g.mark_output(bn);
        g
    };
    let inputs = random_inputs(&build(), 7);
    let want = reference_eval_batchnorm(&build(), &inputs);
    let c = Compiler::new(opts(1)).compile(build()).expect("compile");
    let (outs, _) = c.execute(&inputs).expect("exec");
    assert_close_flat(&outs[0], &want, 1e-4, "batchnorm");
    // batchnorm folds to scale+shift, fusable into the matmul
    assert_eq!(c.report().partitions, 1);
}

/// Manual reference for batchnorm (reference_eval rejects complex ops;
/// evaluate the formula directly).
fn reference_eval_batchnorm(g: &Graph, inputs: &[Tensor]) -> Tensor {
    use gc_tensor::reference as r;
    let x = &inputs[0];
    let consts: Vec<Tensor> = g
        .live_ops()
        .flat_map(|id| g.op(id).inputs.clone())
        .filter_map(|lt| g.const_value(lt).cloned())
        .collect();
    // order of constants added: w, gamma, beta, mean, var
    let (w, gamma, beta, mean, var) = (&consts[0], &consts[1], &consts[2], &consts[3], &consts[4]);
    let mm = r::matmul_f32(x, w).unwrap();
    let mut out = vec![0f32; mm.desc().volume()];
    let c = 8usize;
    let (gs, bs, ms, vs) = (
        gamma.f32_slice().unwrap(),
        beta.f32_slice().unwrap(),
        mean.f32_slice().unwrap(),
        var.f32_slice().unwrap(),
    );
    for (i, o) in out.iter_mut().enumerate() {
        let j = i % c;
        let v = mm.f32_slice().unwrap()[i];
        *o = gs[j] * (v - ms[j]) / (vs[j] + 1e-5).sqrt() + bs[j];
    }
    Tensor::from_vec_f32(mm.desc().shape(), out).unwrap()
}

#[test]
fn activation_zoo_end_to_end() {
    for act in [
        UnaryKind::Gelu,
        UnaryKind::Sigmoid,
        UnaryKind::Tanh,
        UnaryKind::Square,
    ] {
        let build = || {
            let mut g = Graph::new();
            let x = g.add_input(TensorDesc::new([8, 16], DataType::F32), "x");
            let w = g.add_constant(Tensor::random(&[16, 8], DataType::F32, 9), "w");
            let mm = g.add_op(OpKind::MatMul, &[x, w]).unwrap();
            let a = g.add_op(OpKind::Unary(act), &[mm]).unwrap();
            g.mark_output(a);
            g
        };
        let inputs = random_inputs(&build(), 10);
        let want = reference_eval(&build(), &inputs);
        let c = Compiler::new(opts(1)).compile(build()).expect("compile");
        let (outs, _) = c.execute(&inputs).expect("exec");
        assert_close_flat(&outs[0], &want[0], 1e-4, &format!("{act:?}"));
    }
}

#[test]
fn extreme_quantization_saturates_cleanly() {
    // output scale so small everything clamps to 0 or 255
    let mut g = Graph::new();
    let a = g.add_input(TensorDesc::new([8, 16], DataType::U8), "a");
    let w = g.add_constant(Tensor::random(&[16, 8], DataType::I8, 11), "w");
    let af = g
        .add_op(
            OpKind::Dequantize {
                params: QuantParams::new(1.0, 0),
            },
            &[a],
        )
        .unwrap();
    let wf = g
        .add_op(
            OpKind::Dequantize {
                params: QuantParams::symmetric(1.0),
            },
            &[w],
        )
        .unwrap();
    let mm = g.add_op(OpKind::MatMul, &[af, wf]).unwrap();
    let q = g
        .add_op(
            OpKind::Quantize {
                dtype: DataType::U8,
                params: QuantParams::new(1e-3, 128),
            },
            &[mm],
        )
        .unwrap();
    g.mark_output(q);
    let inputs = random_inputs(&g, 12);
    let want = reference_eval(&g, &inputs);
    let c = Compiler::new(opts(1)).compile(g).expect("compile");
    let (outs, _) = c.execute(&inputs).expect("exec");
    let got = outs[0].u8_slice().unwrap();
    let exp = want[0].u8_slice().unwrap();
    // saturated values must match exactly
    for (g_, e) in got.iter().zip(exp) {
        assert!((*g_ as i32 - *e as i32).abs() <= 1);
        if *e == 0 || *e == 255 {
            assert_eq!(g_, e, "saturation must be exact");
        }
    }
}

#[test]
fn shared_weight_prepacked_once() {
    // the same constant weight feeds two matmuls: prepack init work must
    // be memoized (one prepack func, not two)
    let mut g = Graph::new();
    let x1 = g.add_input(TensorDesc::new([8, 16], DataType::F32), "x1");
    let x2 = g.add_input(TensorDesc::new([8, 16], DataType::F32), "x2");
    let w = g.add_constant(Tensor::random(&[16, 16], DataType::F32, 13), "w");
    let y1 = g.add_op(OpKind::MatMul, &[x1, w]).unwrap();
    let y2 = g.add_op(OpKind::MatMul, &[x2, w]).unwrap();
    let s = g
        .add_op(OpKind::Binary(BinaryKind::Add), &[y1, y2])
        .unwrap();
    g.mark_output(s);
    let inputs = random_inputs(&g, 14);
    let want = reference_eval(&g, &inputs);
    let c = Compiler::new(opts(1)).compile(g).expect("compile");
    // both matmuls share shapes, so the heuristic picks the same
    // (kb, nb) and the memoized prepack is reused: exactly 1 init call
    assert_eq!(c.executable().module().init_calls.len(), 1);
    let (outs, _) = c.execute(&inputs).expect("exec");
    assert_close_flat(&outs[0], &want[0], 1e-3, "shared weight");
}

#[test]
fn multi_output_graph() {
    let mut g = Graph::new();
    let x = g.add_input(TensorDesc::new([8, 8], DataType::F32), "x");
    let w = g.add_constant(Tensor::random(&[8, 8], DataType::F32, 15), "w");
    let mm = g.add_op(OpKind::MatMul, &[x, w]).unwrap();
    let r = g.add_op(OpKind::Unary(UnaryKind::Relu), &[mm]).unwrap();
    g.mark_output(mm);
    g.mark_output(r);
    let inputs = random_inputs(&g, 16);
    let want = reference_eval(&g, &inputs);
    let c = Compiler::new(opts(1)).compile(g).expect("compile");
    let (outs, _) = c.execute(&inputs).expect("exec");
    assert_eq!(outs.len(), 2);
    assert_close_flat(&outs[0], &want[0], 1e-3, "out0");
    assert_close_flat(&outs[1], &want[1], 1e-3, "out1");
}

#[test]
fn thread_count_does_not_change_results() {
    let build = || gc_bench::workloads::mlp_f32(64, &gc_bench::workloads::mlp1_layers(), 17);
    let inputs = random_inputs(&build(), 18);
    let run = |threads: usize| {
        let c = Compiler::new(opts(threads))
            .compile(build())
            .expect("compile");
        let (outs, _) = c.execute(&inputs).expect("exec");
        outs[0].f32_slice().unwrap().to_vec()
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one, four, "results must be thread-count independent");
}

#[test]
fn input_aliased_as_output_is_rejected() {
    let mut g = Graph::new();
    let x = g.add_input(TensorDesc::new([4, 4], DataType::F32), "x");
    let w = g.add_constant(Tensor::random(&[4, 4], DataType::F32, 19), "w");
    let y = g.add_op(OpKind::MatMul, &[x, w]).unwrap();
    g.mark_output(y);
    g.mark_output(x); // also expose the raw input
    let err = Compiler::new(opts(1)).compile(g).unwrap_err();
    assert!(err.to_string().contains("also a graph input"), "{err}");
}

#[test]
fn residual_connection_same_tensor_twice() {
    // y = matmul(x, w) + x_row: the same input feeds the matmul and a
    // fused binary post-op (duplicate global in one call)
    let mut g = Graph::new();
    let x = g.add_input(TensorDesc::new([8, 8], DataType::F32), "x");
    let row = g.add_input(TensorDesc::new([8], DataType::F32), "row");
    let w = g.add_constant(Tensor::random(&[8, 8], DataType::F32, 20), "w");
    let mm = g.add_op(OpKind::MatMul, &[x, w]).unwrap();
    let s = g
        .add_op(OpKind::Binary(BinaryKind::Add), &[mm, row])
        .unwrap();
    // also divide by the SAME row vector, so `row` binds to two params
    let d = g
        .add_op(OpKind::Binary(BinaryKind::Div), &[s, row])
        .unwrap();
    g.mark_output(d);
    let mut inputs = random_inputs(&g, 21);
    // avoid division near zero
    {
        let v = inputs[1].make_mut().as_mut_slice::<f32>().unwrap();
        for x in v.iter_mut() {
            *x = x.abs() + 1.0;
        }
    }
    let want = reference_eval(&g, &inputs);
    let c = Compiler::new(opts(2)).compile(g).expect("compile");
    let (outs, _) = c.execute(&inputs).expect("exec");
    assert_close_flat(&outs[0], &want[0], 1e-4, "residual");
}

#[test]
fn rank3_and_rank2_matmuls_in_one_graph() {
    let mut g = Graph::new();
    let a = g.add_input(TensorDesc::new([2, 8, 8], DataType::F32), "a");
    let b = g.add_input(TensorDesc::new([2, 8, 8], DataType::F32), "b");
    let bmm = g.add_op(OpKind::MatMul, &[a, b]).unwrap();
    g.mark_output(bmm);
    let x = g.add_input(TensorDesc::new([4, 8], DataType::F32), "x");
    let w = g.add_constant(Tensor::random(&[8, 4], DataType::F32, 22), "w");
    let mm = g.add_op(OpKind::MatMul, &[x, w]).unwrap();
    g.mark_output(mm);
    let inputs = random_inputs(&g, 23);
    let want = reference_eval(&g, &inputs);
    let c = Compiler::new(opts(1)).compile(g).expect("compile");
    let (outs, _) = c.execute(&inputs).expect("exec");
    assert_close_flat(&outs[0], &want[0], 1e-4, "bmm");
    assert_close_flat(&outs[1], &want[1], 1e-4, "mm");
}

#[test]
fn init_stage_output_is_returned_on_every_call() {
    // `s = square(w)` of a runtime constant runs in the init stage; it
    // is a graph output on its own, and with a main-stage reader
    for with_main in [false, true] {
        let build = || {
            let mut g = Graph::new();
            let w = g.add_runtime_constant(TensorDesc::new([16], DataType::F32), "w");
            let s = g.add_op(OpKind::Unary(UnaryKind::Square), &[w]).unwrap();
            g.mark_output(s);
            if with_main {
                let x = g.add_input(TensorDesc::new([16], DataType::F32), "x");
                let y = g.add_op(OpKind::Binary(BinaryKind::Add), &[x, s]).unwrap();
                g.mark_output(y);
            }
            g
        };
        let c = Compiler::new(opts(1)).compile(build()).expect("compile");
        assert!(!c.executable().module().init_calls.is_empty());
        let oracle = c.executable().reference();
        let first = random_inputs(&build(), 24);
        let mut second = random_inputs(&build(), 25);
        // a runtime constant keeps its value across calls
        second[0] = first[0].clone();
        for (call, inputs) in [&first, &second].into_iter().enumerate() {
            let want = reference_eval(&build(), inputs);
            let (outs, _) = c.execute(inputs).expect("exec");
            let (oracle_outs, _) = oracle.execute(inputs).expect("oracle");
            assert_eq!(outs.len(), want.len());
            for (o, (got, want)) in outs.iter().zip(&want).enumerate() {
                let label = format!("main {with_main}, call {call}, output {o}");
                assert_close_flat(got, want, 1e-5, &label);
                assert_eq!(got.storage(), oracle_outs[o].storage(), "{label}: oracle");
            }
        }
    }
}
