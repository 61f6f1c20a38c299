//! Differential tests: compiled execution plans vs the tree-walking
//! interpreter (`CompileOptions::interpret`) on the paper's Table-1
//! workloads. The plan path must agree bit-for-bit on the int8 pipeline
//! and to 1e-5 on f32.

use gc_bench::workloads;
use gc_core::{CompileOptions, CompiledPartition, Compiler};
use gc_graph::Graph;
use gc_machine::MachineDescriptor;
use gc_tensor::{Storage, Tensor};

fn compile(graph: Graph, threads: usize, interpret: bool) -> CompiledPartition {
    let mut opts = CompileOptions::new(MachineDescriptor::xeon_8358());
    opts.threads = Some(threads);
    opts.interpret = interpret;
    Compiler::new(opts).compile(graph).expect("compile")
}

fn random_inputs_for(p: &CompiledPartition, seed: u64) -> Vec<Tensor> {
    p.input_descs()
        .iter()
        .enumerate()
        .map(|(i, d)| Tensor::random(d.shape(), d.dtype(), seed + i as u64))
        .collect()
}

/// Run `build()`'s graph through both execution modes (twice each, to
/// cover the init-cached steady state) and compare every output.
/// `tol == 0.0` demands bitwise identity.
fn differential(build: impl Fn() -> Graph, threads: usize, tol: f32) {
    let compiled = compile(build(), threads, false);
    let interp = compile(build(), threads, true);

    let stats = compiled.executable().plan_stats();
    assert!(
        stats.compiled_funcs > 0,
        "workload must exercise the plan path, got {stats:?}"
    );
    assert!(stats.hoisted_bounds > 0, "no bounds hoisted: {stats:?}");

    let inputs = random_inputs_for(&compiled, 7);
    for round in 0..2 {
        let (got, _) = compiled.execute(&inputs).expect("plan execute");
        let (want, _) = interp.execute(&inputs).expect("interp execute");
        assert_eq!(got.len(), want.len());
        for (oi, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            match (g.storage(), w.storage()) {
                (Storage::F32(g), Storage::F32(w)) => {
                    assert_eq!(g.len(), w.len());
                    for (ei, (&x, &y)) in g.iter().zip(w.iter()).enumerate() {
                        if tol == 0.0 {
                            assert!(
                                x.to_bits() == y.to_bits(),
                                "round {round} out {oi}[{ei}]: {x:?} != {y:?} (bitwise)"
                            );
                        } else {
                            assert!(
                                (x - y).abs() <= tol * (1.0 + y.abs()),
                                "round {round} out {oi}[{ei}]: {x} vs {y}"
                            );
                        }
                    }
                }
                // integer / quantized outputs must always be identical
                (Storage::U8(g), Storage::U8(w)) => assert_eq!(g, w, "round {round} out {oi}"),
                (Storage::I8(g), Storage::I8(w)) => assert_eq!(g, w, "round {round} out {oi}"),
                (Storage::I32(g), Storage::I32(w)) => assert_eq!(g, w, "round {round} out {oi}"),
                (g, w) => panic!("round {round} out {oi}: dtype mismatch {g:?} vs {w:?}"),
            }
        }
    }
}

#[test]
fn mlp_f32_single_thread() {
    differential(
        || workloads::mlp_f32(16, &workloads::mlp1_layers(), 3),
        1,
        1e-5,
    );
}

#[test]
fn mlp_f32_multi_thread() {
    differential(
        || workloads::mlp_f32(32, &workloads::mlp1_layers(), 4),
        4,
        1e-5,
    );
}

#[test]
fn mlp2_f32_multi_thread() {
    differential(
        || workloads::mlp_f32(16, &workloads::mlp2_layers(), 5),
        2,
        1e-5,
    );
}

#[test]
fn mlp_int8_bit_identical_single_thread() {
    differential(
        || workloads::mlp_int8(16, &workloads::mlp1_layers(), 6),
        1,
        0.0,
    );
}

#[test]
fn mlp_int8_bit_identical_multi_thread() {
    differential(
        || workloads::mlp_int8(32, &workloads::mlp1_layers(), 7),
        4,
        0.0,
    );
}

#[test]
fn mha_f32_multi_thread() {
    differential(
        || workloads::mha_f32(2, &workloads::mha_configs()[0]).0,
        4,
        1e-5,
    );
}

/// The fused softmax runs as one row-chain call per row block: the plan,
/// the interpreter and the checked plan (every slice bounds-checked
/// against the row chain's descriptor spans) must agree bit for bit —
/// they share the kernel, so any difference is an addressing bug.
fn row_chain_three_ways(build: impl Fn() -> Graph) {
    let run = |interpret: bool, checked: bool| {
        let mut opts = CompileOptions::new(MachineDescriptor::xeon_8358());
        opts.threads = Some(2);
        opts.interpret = interpret;
        opts.checked = checked;
        let p = Compiler::new(opts).compile(build()).expect("compile");
        let mut chains = 0;
        for f in &p.executable().module().funcs {
            gc_tir::visit::visit_intrinsics(&f.body, &mut |i| {
                chains += usize::from(matches!(i.op, gc_tir::Op::RowChain(_)));
            });
        }
        assert!(chains > 0, "the softmax must lower to a row chain");
        let inputs = random_inputs_for(&p, 11);
        let (outs, _) = p.execute(&inputs).expect("execute");
        outs[0].f32_slice().expect("f32 output").to_vec()
    };
    let plan = run(false, false);
    for (label, other) in [
        ("interpreter", run(true, false)),
        ("checked", run(false, true)),
    ] {
        assert_eq!(plan.len(), other.len());
        for (i, (x, y)) in plan.iter().zip(&other).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{label} [{i}]: {x} vs {y}");
        }
    }
}

#[test]
fn mha1_b4_row_chain_plan_interpreter_and_checked_agree() {
    row_chain_three_ways(|| workloads::mha_f32(4, &workloads::mha_configs()[0]).0);
}

#[test]
fn decode_row_chain_plan_interpreter_and_checked_agree() {
    for cap in [64, 128] {
        row_chain_three_ways(|| workloads::decode_f32(16, cap, 64));
    }
}

/// The interpreter mode must actually bypass the plan (guards against
/// the reference path silently becoming the thing under test).
#[test]
fn interpret_mode_is_reported() {
    let g = workloads::mlp_f32(8, &workloads::mlp1_layers(), 8);
    let p = compile(g, 1, true);
    assert_eq!(p.executable().mode(), gc_tir::ExecMode::Interpret);
    let g = workloads::mlp_f32(8, &workloads::mlp1_layers(), 8);
    let p = compile(g, 1, false);
    assert_eq!(p.executable().mode(), gc_tir::ExecMode::Compiled);
}
