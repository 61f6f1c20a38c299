//! Lowering bugs found by compiling the Table-1 graphs under settings the
//! other suites do not reach, each checked end to end against the naive
//! reference.

use gc_bench::workloads::{
    mlp1_layers, mlp2_layers, mlp_f32, mlp_int8, random_inputs, reference_eval,
};
use gc_core::{CompileOptions, CompiledPartition, Compiler};
use gc_graph::Graph;
use gc_machine::MachineDescriptor;

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
