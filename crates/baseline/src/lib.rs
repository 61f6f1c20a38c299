//! Primitives-library baseline for the oneDNN Graph Compiler
//! reproduction.
//!
//! The paper's baseline "uses expert-tuned oneDNN primitive with fusion
//! support and has been integrated into multiple DL frameworks". This
//! crate reproduces that comparator's capability envelope:
//!
//! - **has**: matmul *post-op attribute* fusion (a short chain of
//!   eltwise / binary / quantize ops folded into the primitive), weight
//!   prepacking into the blocked layout, int8 compensation, low-precision
//!   mapping, primitive result caching (init stage);
//! - **lacks**: softmax/reduction fusion into the preceding batch
//!   matmul, coarse-grain fusion across primitives, layout propagation
//!   (every primitive consumes and produces plain tensors), cross-op
//!   buffer planning — and it pays one framework dispatch per primitive.
//!
//! A softmax left between two matmuls is one primitive of its own, the
//! way a library ships an internally optimized softmax: fusion groups the
//! decomposed chain and it runs the same row-chain program the compiler
//! fuses at its matmul anchor, over the plain tensor in memory.
//!
//! Its kernels come from a fixed menu of mature blockings
//! ([`gc_lowering::heuristic::choose_params_library`]) instead of the
//! compiler's free parameter search.
//!
//! # Examples
//!
//! ```
//! use gc_baseline::{Baseline, BaselineOptions};
//! use gc_graph::{Graph, OpKind, UnaryKind};
//! use gc_machine::MachineDescriptor;
//! use gc_tensor::{DataType, Tensor, TensorDesc};
//!
//! let mut g = Graph::new();
//! let x = g.add_input(TensorDesc::new([16, 32], DataType::F32), "x");
//! let w = g.add_constant(Tensor::random(&[32, 8], DataType::F32, 7), "w");
//! let y = g.add_op(OpKind::MatMul, &[x, w])?;
//! let z = g.add_op(OpKind::Unary(UnaryKind::Relu), &[y])?;
//! g.mark_output(z);
//!
//! let mut opts = BaselineOptions::new(MachineDescriptor::xeon_8358());
//! opts.threads = Some(1);
//! let exe = Baseline::new(opts).build(g)?;
//! let (outs, _) = exe.execute(&[Tensor::random(&[16, 32], DataType::F32, 1)])?;
//! assert_eq!(outs[0].desc().volume(), 128);
//! # Ok::<(), gc_core::CoreError>(())
//! ```

#![warn(missing_docs)]

use gc_core::{pipeline, CompileOptions, CoreError};
use gc_graph::{FusionOptions, Graph};
use gc_machine::MachineDescriptor;
use gc_runtime::{ExecStats, ThreadPool};
use gc_tensor::Tensor;
use gc_tir::engine::Executable;
use gc_tir::sim::Projection;
use std::sync::Arc;

/// Options for the baseline library executor.
#[derive(Debug, Clone)]
pub struct BaselineOptions {
    /// Target machine model.
    pub machine: MachineDescriptor,
    /// Worker threads (None = host parallelism).
    pub threads: Option<usize>,
}

/// Most post-ops a primitive attribute accepts (oneDNN-style).
pub const MAX_PRIMITIVE_POST_OPS: usize = 3;

impl BaselineOptions {
    /// Defaults for a machine.
    pub fn new(machine: MachineDescriptor) -> Self {
        BaselineOptions {
            machine,
            threads: None,
        }
    }
}

/// The primitives-library baseline "framework".
#[derive(Debug, Clone)]
pub struct Baseline {
    options: BaselineOptions,
}

impl Baseline {
    /// Create a baseline executor factory.
    pub fn new(options: BaselineOptions) -> Self {
        Baseline { options }
    }

    /// Build an op-by-op execution plan for `graph`.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid graphs or unsupported patterns.
    pub fn build(&self, mut graph: Graph) -> Result<BaselineExecutable, CoreError> {
        // Same framework-level graph preparation the paper describes:
        // decompose, low-precision mapping, constant marking.
        let prep = CompileOptions {
            machine: self.options.machine.clone(),
            ..CompileOptions::default()
        };
        pipeline::optimize_graph(&mut graph, &prep)?;
        let input_descs: Vec<gc_tensor::TensorDesc> = graph
            .inputs()
            .iter()
            .map(|&i| graph.desc(i).clone())
            .collect();

        // Primitive formation: matmul + short post-op chain; no
        // reductions, no reorders, no softmax fusion.
        let part_opts = CompileOptions {
            machine: self.options.machine.clone(),
            fusion: FusionOptions {
                enabled: true,
                max_post_ops: MAX_PRIMITIVE_POST_OPS,
                max_reductions: 0,
                max_reorders: 0,
                ..FusionOptions::default()
            },
            coarse_fusion: false,
            propagate_layouts: false,
            reuse_buffers: false,
            library_params: true,
            ..CompileOptions::default()
        };
        let (parts, groups) = pipeline::partition_graph(&graph, &part_opts)?;
        let (lowered, _report) = pipeline::lower(&graph, &parts, &groups, &part_opts)?;
        let dispatch_count = lowered.module.main_calls.len();
        let pool = Arc::new(match self.options.threads {
            Some(n) => ThreadPool::new(n),
            None => ThreadPool::with_host_parallelism(),
        });
        let exe = Executable::new(lowered.module, lowered.weight_seeds, pool, dispatch_count);
        Ok(BaselineExecutable {
            exe,
            machine: self.options.machine.clone(),
            primitives: parts.parts.len(),
            input_descs,
        })
    }
}

/// An op-by-op baseline execution plan.
#[derive(Debug)]
pub struct BaselineExecutable {
    exe: Executable,
    machine: MachineDescriptor,
    primitives: usize,
    input_descs: Vec<gc_tensor::TensorDesc>,
}

impl BaselineExecutable {
    /// Execute on `inputs` (graph-input order).
    ///
    /// # Errors
    ///
    /// Returns an error on input mismatch.
    pub fn execute(&self, inputs: &[Tensor]) -> Result<(Vec<Tensor>, ExecStats), CoreError> {
        for (i, (t, want)) in inputs.iter().zip(&self.input_descs).enumerate() {
            if t.desc().shape() != want.shape() {
                return Err(CoreError::Exec(gc_tir::exec::ExecError(format!(
                    "input {i} expects shape {:?}, got {:?}",
                    want.shape(),
                    t.desc().shape()
                ))));
            }
        }
        Ok(self.exe.execute(inputs)?)
    }

    /// Project one steady-state execution (per-primitive dispatch costs
    /// included) on the target machine.
    pub fn project(&self) -> Projection {
        self.exe.project(&self.machine)
    }

    /// Number of primitives executed per run (= framework API calls).
    pub fn primitive_count(&self) -> usize {
        self.primitives
    }

    /// The underlying executable.
    pub fn executable(&self) -> &Executable {
        &self.exe
    }
}
