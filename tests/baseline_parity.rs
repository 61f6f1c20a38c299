//! The primitives baseline must produce the same results as the
//! compiler and the reference — and exhibit the capability envelope the
//! paper describes (per-primitive dispatch, no softmax fusion).

use gc_baseline::{Baseline, BaselineOptions};
use gc_bench::workloads::{self, random_inputs, reference_eval, MhaConfig};
use gc_machine::MachineDescriptor;
use gc_microkernel::ChainStep;

fn baseline() -> Baseline {
    let mut o = BaselineOptions::new(MachineDescriptor::xeon_8358());
    o.threads = Some(2);
    Baseline::new(o)
}

fn assert_close_flat(got: &gc_tensor::Tensor, want: &gc_tensor::Tensor, tol: f64, label: &str) {
    let n = want.desc().volume();
    assert_eq!(got.desc().volume(), n, "{label}");
    for i in 0..n {
        let a = got.storage().get_as_f64(i);
        let b = want.storage().get_as_f64(i);
        assert!((a - b).abs() <= tol, "{label} elem {i}: {a} vs {b}");
    }
}

#[test]
fn baseline_mlp_f32_matches_reference() {
    let build = || workloads::mlp_f32(64, &workloads::mlp1_layers(), 3);
    let inputs = random_inputs(&build(), 5);
    let want = reference_eval(&build(), &inputs);
    let exe = baseline().build(build()).expect("build");
    let (outs, _) = exe.execute(&inputs).expect("exec");
    assert_close_flat(&outs[0], &want[0], 1e-2, "baseline mlp f32");
}

#[test]
fn baseline_mlp_int8_matches_reference() {
    let build = || workloads::mlp_int8(32, &workloads::mlp1_layers(), 7);
    let inputs = random_inputs(&build(), 9);
    let want = reference_eval(&build(), &inputs);
    let exe = baseline().build(build()).expect("build");
    let (outs, _) = exe.execute(&inputs).expect("exec");
    assert_close_flat(&outs[0], &want[0], 3.0, "baseline mlp int8");
}

#[test]
fn baseline_mha_matches_reference() {
    let cfg = MhaConfig {
        name: "tiny",
        seq: 16,
        hidden: 64,
        heads: 4,
    };
    let build = || workloads::mha_f32(2, &cfg).0;
    let inputs = random_inputs(&build(), 11);
    let want = reference_eval(&build(), &inputs);
    let exe = baseline().build(build()).expect("build");
    let (outs, _) = exe.execute(&inputs).expect("exec");
    assert_close_flat(&outs[0], &want[0], 1e-3, "baseline mha");
}

#[test]
fn baseline_dispatches_once_per_primitive() {
    // MLP_1: three matmul primitives (relu folded as post-op attr)
    let exe = baseline()
        .build(workloads::mlp_f32(64, &workloads::mlp1_layers(), 3))
        .expect("build");
    assert_eq!(exe.primitive_count(), 3);
    assert_eq!(exe.executable().dispatch_count(), 3);
}

#[test]
fn baseline_does_not_fuse_softmax() {
    // MHA: the scale and mask ride on the first batch matmul as post-op
    // attributes, but the softmax stays out of both matmuls: it is a
    // primitive of its own (one row-chain program, as a library's
    // softmax primitive is), dispatched between them — one more than the
    // compiler's 2 partitions, where it runs on the first matmul's tile.
    let cfg = MhaConfig {
        name: "tiny",
        seq: 16,
        hidden: 64,
        heads: 4,
    };
    let exe = baseline()
        .build(workloads::mha_f32(2, &cfg).0)
        .expect("build");
    assert_eq!(exe.primitive_count(), 3, "qk + softmax + pv");
    assert_eq!(exe.executable().dispatch_count(), 3);
    let mut softmaxes = 0;
    for f in &exe.executable().module().funcs {
        let (mut gemm, mut softmax) = (false, false);
        gc_tir::visit::visit_intrinsics(&f.body, &mut |i| match i.op {
            gc_tir::Op::BrgemmF32(_) => gemm = true,
            gc_tir::Op::RowChain(c) => {
                let reduce = |s: &&ChainStep| matches!(s, ChainStep::Reduce(_));
                softmax |= c.steps().iter().filter(reduce).count() == 2;
            }
            _ => {}
        });
        assert!(!(gemm && softmax), "softmax fused into matmul `{}`", f.name);
        softmaxes += usize::from(softmax);
    }
    assert_eq!(softmaxes, 1, "one softmax primitive");
}

#[test]
fn baseline_weight_prepack_cached_across_runs() {
    let build = || workloads::mlp_f32(64, &workloads::mlp1_layers(), 3);
    let inputs = random_inputs(&build(), 5);
    let exe = baseline().build(build()).expect("build");
    let (_, first) = exe.execute(&inputs).expect("exec");
    let (_, second) = exe.execute(&inputs).expect("exec");
    assert!(first.init_wall > std::time::Duration::ZERO);
    assert_eq!(second.init_wall, std::time::Duration::ZERO);
    assert_eq!(exe.executable().init_runs(), 1);
}

#[test]
fn baseline_projection_charges_per_primitive_dispatch() {
    let machine = MachineDescriptor::xeon_8358();
    let exe = baseline()
        .build(workloads::mlp_f32(64, &workloads::mlp1_layers(), 3))
        .expect("build");
    let proj = exe.project();
    let per = gc_machine::cost::dispatch_cycles(&machine);
    assert!((proj.dispatch_cycles - 3.0 * per).abs() < 1e-6);
}

#[test]
fn baseline_decode_matches_reference_when_rows_equal_cap() {
    // The baseline leaves the decomposed softmax off the matmul and runs
    // it as one standalone row chain whose subtract and divide read the
    // chain's own row stats. At `rows == cap` those stats `[rows, 1, 1]`
    // have as many elements as a row vector `[cap]` would; they must
    // still be one value per row.
    for rows in [1usize, 16, 64] {
        for cap in [16usize, 32, 64, 128] {
            let build = || workloads::decode_f32(rows, cap, 64);
            let inputs = random_inputs(&build(), 13);
            let want = reference_eval(&build(), &inputs);
            let exe = baseline().build(build()).expect("build");
            let (outs, _) = exe.execute(&inputs).expect("exec");
            let label = format!("baseline decode rows {rows} cap {cap}");
            assert_close_flat(&outs[0], &want[0], 1e-3, &label);
        }
    }
}

#[test]
fn unfused_decode_matches_reference_when_rows_equal_cap() {
    // With fusion off every softmax op is its own one-op row chain: `x -
    // max` and `x / sum` take lhs `[rows, 1, cap]` and the keepdim stats
    // `[rows, 1, 1]` as a column-vector side operand, which at
    // `rows == cap` has as many elements as a row vector `[cap]`.
    let opts = gc_core::CompileOptions {
        threads: Some(2),
        ..gc_core::CompileOptions::unfused(MachineDescriptor::xeon_8358())
    };
    for rows in [1usize, 16, 64] {
        for cap in [16usize, 32, 64, 128] {
            let build = || workloads::decode_f32(rows, cap, 64);
            let inputs = random_inputs(&build(), 13);
            let want = reference_eval(&build(), &inputs);
            let compiled = gc_core::Compiler::new(opts.clone())
                .compile(build())
                .expect("compile");
            let (outs, _) = compiled.execute(&inputs).expect("exec");
            let label = format!("unfused decode rows {rows} cap {cap}");
            assert_close_flat(&outs[0], &want[0], 1e-3, &label);
        }
    }
}
