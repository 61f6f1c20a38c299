//! Differential tests: compiled execution plans vs the tree-walking
//! interpreter on the paper's Table-1 workloads. The oracle is the same
//! compile's `Executable::reference()`: one lowering, with both stages —
//! the init stage's weight prepacking and int8 compensation included —
//! on the interpreter. The plan path must agree bit-for-bit on the int8
//! pipeline and to 1e-5 on f32.

use gc_bench::workloads;
use gc_core::{CompileOptions, CompiledPartition, Compiler};
use gc_graph::Graph;
use gc_machine::MachineDescriptor;
use gc_tensor::{Storage, Tensor};

fn compile(graph: Graph, threads: usize) -> CompiledPartition {
    let mut opts = CompileOptions::new(MachineDescriptor::xeon_8358());
    opts.threads = Some(threads);
    Compiler::new(opts).compile(graph).expect("compile")
}

fn random_inputs_for(p: &CompiledPartition, seed: u64) -> Vec<Tensor> {
    p.input_descs()
        .iter()
        .enumerate()
        .map(|(i, d)| Tensor::random(d.shape(), d.dtype(), seed + i as u64))
        .collect()
}

/// Run `graph` on its plans and on its reference (twice each, to cover
/// the init-cached steady state) and compare every output.
/// `tol == 0.0` demands bitwise identity.
fn differential(graph: Graph, threads: usize, tol: f32) {
    let compiled = compile(graph, threads);
    let interp = compiled.executable().reference();

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
        workloads::mlp_f32(16, &workloads::mlp1_layers(), 3),
        1,
        1e-5,
    );
}

#[test]
fn mlp_f32_multi_thread() {
    differential(
        workloads::mlp_f32(32, &workloads::mlp1_layers(), 4),
        4,
        1e-5,
    );
}

#[test]
fn mlp2_f32_multi_thread() {
    differential(
        workloads::mlp_f32(16, &workloads::mlp2_layers(), 5),
        2,
        1e-5,
    );
}

#[test]
fn mlp_int8_bit_identical_single_thread() {
    differential(
        workloads::mlp_int8(16, &workloads::mlp1_layers(), 6),
        1,
        0.0,
    );
}

#[test]
fn mlp_int8_bit_identical_multi_thread() {
    differential(
        workloads::mlp_int8(32, &workloads::mlp1_layers(), 7),
        4,
        0.0,
    );
}

#[test]
fn mha_f32_multi_thread() {
    differential(
        workloads::mha_f32(2, &workloads::mha_configs()[0]).0,
        4,
        1e-5,
    );
}

/// The benchmark's int8 graph: its init stage is ten functions (weight
/// prepacking and compensation per layer), which the reference runs on
/// the interpreter.
#[test]
fn mlp2_int8_b128_bit_identical_one_and_two_threads() {
    for threads in [1, 2] {
        differential(
            workloads::mlp_int8(128, &workloads::mlp2_layers(), 9),
            threads,
            0.0,
        );
    }
}

#[test]
fn decode_f32_cap64() {
    differential(workloads::decode_f32(16, 64, 64), 1, 1e-5);
}

/// The fused softmax runs as one row-chain call per row block: the plan,
/// the interpreter and the checked plan (every slice bounds-checked
/// against the row chain's descriptor spans) must agree bit for bit —
/// they share the kernel, so any difference is an addressing bug.
fn row_chain_three_ways(build: impl Fn() -> Graph) {
    let run = |checked: bool| {
        let mut opts = CompileOptions::new(MachineDescriptor::xeon_8358());
        opts.threads = Some(2);
        opts.checked = checked;
        let p = Compiler::new(opts).compile(build()).expect("compile");
        let mut chains = 0;
        for f in &p.executable().module().funcs {
            gc_tir::visit::visit_intrinsics(&f.body, &mut |i| {
                chains += usize::from(matches!(i.op, gc_tir::Op::RowChain(_)));
            });
        }
        assert!(chains > 0, "the softmax must lower to a row chain");
        p
    };
    let f32_out = |outs: Vec<Tensor>| outs[0].f32_slice().expect("f32 output").to_vec();
    let p = run(false);
    let inputs = random_inputs_for(&p, 11);
    let plan = f32_out(p.execute(&inputs).expect("execute").0);
    let interp = f32_out(
        p.executable()
            .reference()
            .execute(&inputs)
            .expect("reference execute")
            .0,
    );
    let checked = f32_out(run(true).execute(&inputs).expect("checked execute").0);
    for (label, other) in [("interpreter", interp), ("checked", checked)] {
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

/// A compile runs on plans and its reference on the interpreter, with
/// bit-identical output (guards against the oracle silently becoming
/// the thing under test, or drifting from it).
#[test]
fn reference_is_interpreted_and_bitmatches() {
    let p = compile(workloads::mlp_f32(8, &workloads::mlp1_layers(), 8), 1);
    let oracle = p.executable().reference();
    assert_eq!(p.executable().mode(), gc_tir::ExecMode::Compiled);
    assert_eq!(oracle.mode(), gc_tir::ExecMode::Interpret);
    let inputs = random_inputs_for(&p, 5);
    let bits = |outs: Vec<Tensor>| -> Vec<u32> {
        outs[0]
            .f32_slice()
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    };
    let got = bits(p.execute(&inputs).expect("plan execute").0);
    let want = bits(oracle.execute(&inputs).expect("reference execute").0);
    assert_eq!(got, want);
}
