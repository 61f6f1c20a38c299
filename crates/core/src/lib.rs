//! oneDNN Graph Compiler reproduction — public compiler API.
//!
//! The facade crate: build a DNN computation graph with [`gc_graph`],
//! hand it to a [`Compiler`], get back a [`CompiledPartition`] you can
//! execute on real tensors and *project* onto the paper's 32-core Xeon
//! machine model.
//!
//! ```
//! use gc_core::{Compiler, CompileOptions};
//! use gc_graph::{Graph, OpKind, UnaryKind};
//! use gc_machine::MachineDescriptor;
//! use gc_tensor::{DataType, Tensor, TensorDesc};
//!
//! // x[16, 32] x W[32, 8] -> relu
//! let mut g = Graph::new();
//! let x = g.add_input(TensorDesc::new([16, 32], DataType::F32), "x");
//! let w = g.add_constant(Tensor::random(&[32, 8], DataType::F32, 7), "w");
//! let y = g.add_op(OpKind::MatMul, &[x, w])?;
//! let z = g.add_op(OpKind::Unary(UnaryKind::Relu), &[y])?;
//! g.mark_output(z);
//!
//! let mut opts = CompileOptions::new(MachineDescriptor::xeon_8358());
//! opts.threads = Some(1);
//! let compiled = Compiler::new(opts).compile(g)?;
//! let x_val = Tensor::random(&[16, 32], DataType::F32, 1);
//! let (outs, _stats) = compiled.execute(&[x_val])?;
//! assert_eq!(outs[0].desc().volume(), 16 * 8);
//! # Ok::<(), gc_core::CoreError>(())
//! ```

#![warn(missing_docs)]

mod options;
pub mod pipeline;
pub mod tune;

pub use options::CompileOptions;
pub use pipeline::CompileReport;
pub use tune::{tune_graph, TuneConfig, TuneKey, TuneReport, TunedRecord, TuningDb};

use gc_graph::Graph;
use gc_machine::MachineDescriptor;
use gc_runtime::{ExecStats, ThreadPool};
use gc_tensor::Tensor;
use gc_tir::engine::{Engine, Executable};
use gc_tir::sim::Projection;
use std::fmt;
use std::sync::Arc;

/// Error type of the compiler facade.
#[derive(Debug)]
pub enum CoreError {
    /// Graph construction / pass error.
    Graph(gc_graph::GraphError),
    /// Lowering error.
    Lower(gc_lowering::LowerError),
    /// Execution error.
    Exec(gc_tir::exec::ExecError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Graph(e) => write!(f, "graph: {e}"),
            CoreError::Lower(e) => write!(f, "lower: {e}"),
            CoreError::Exec(e) => write!(f, "exec: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Graph(e) => Some(e),
            CoreError::Lower(e) => Some(e),
            CoreError::Exec(e) => Some(e),
        }
    }
}

impl From<gc_graph::GraphError> for CoreError {
    fn from(e: gc_graph::GraphError) -> Self {
        CoreError::Graph(e)
    }
}

impl From<gc_lowering::LowerError> for CoreError {
    fn from(e: gc_lowering::LowerError) -> Self {
        CoreError::Lower(e)
    }
}

impl From<gc_tir::exec::ExecError> for CoreError {
    fn from(e: gc_tir::exec::ExecError) -> Self {
        CoreError::Exec(e)
    }
}

/// The tensor compiler.
#[derive(Debug, Clone)]
pub struct Compiler {
    options: CompileOptions,
}

impl Compiler {
    /// Create a compiler with the given options.
    pub fn new(options: CompileOptions) -> Self {
        Compiler { options }
    }

    /// Options in effect.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// Compile a computation graph into an executable partition.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is invalid or uses an unsupported
    /// pattern.
    pub fn compile(&self, graph: Graph) -> Result<CompiledPartition, CoreError> {
        let pool = Arc::new(match self.options.threads {
            Some(n) => ThreadPool::new(n),
            None => ThreadPool::with_host_parallelism(),
        });
        let arts = self.compile_artifacts(graph, &Engine::new(pool))?;
        Ok(CompiledPartition {
            exe: arts.exe,
            report: arts.report,
            machine: self.options.machine.clone(),
            input_descs: arts.input_descs,
            output_descs: arts.output_descs,
        })
    }

    /// The reusable compile-to-executable entry point: run the full
    /// pipeline on `graph` and return the raw [`Executable`] plus the
    /// compile report and post-optimization input/output descriptors.
    ///
    /// Unlike [`Compiler::compile`], the caller supplies the [`Engine`]
    /// the plan is compiled for and runs on: its pool (so serving
    /// runtimes share one set of workers across many compiled models),
    /// its kernel backend (which also keys the tuning-database lookup)
    /// and its counters. The engine's exec options are replaced by what
    /// `options.checked` asks for.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is invalid or uses an unsupported
    /// pattern, or if the plan builder rejected a lowered function (the
    /// error names it).
    pub fn compile_artifacts(
        &self,
        mut graph: Graph,
        engine: &Engine,
    ) -> Result<CompiledArtifacts, CoreError> {
        pipeline::optimize_graph(&mut graph, &self.options)?;
        let input_descs: Vec<gc_tensor::TensorDesc> = graph
            .inputs()
            .iter()
            .map(|&i| graph.desc(i).clone())
            .collect();
        let output_descs: Vec<gc_tensor::TensorDesc> = graph
            .outputs()
            .iter()
            .map(|&o| graph.desc(o).clone())
            .collect();
        let (parts, groups) = pipeline::partition_graph(&graph, &self.options)?;
        let isa = engine.kernels().isa().name();
        let (lowered, report) = pipeline::lower_for(&graph, &parts, &groups, &self.options, isa)?;
        let exe = engine
            .clone()
            .with_exec_options(if self.options.checked {
                gc_tir::ExecOptions::checked()
            } else {
                gc_tir::ExecOptions::default()
            })
            .build(lowered.module, lowered.weight_seeds, 1);
        exe.check_plan()?;
        Ok(CompiledArtifacts {
            exe,
            report,
            input_descs,
            output_descs,
        })
    }
}

/// The raw products of one compilation, for callers (serving runtimes,
/// caches) that manage execution themselves.
#[derive(Debug)]
pub struct CompiledArtifacts {
    /// The executable partition.
    pub exe: Executable,
    /// What the compiler did.
    pub report: CompileReport,
    /// Post-optimization input descriptors (graph-input order).
    pub input_descs: Vec<gc_tensor::TensorDesc>,
    /// Post-optimization output descriptors (graph-output order).
    pub output_descs: Vec<gc_tensor::TensorDesc>,
}

/// A compiled DNN computation partition.
#[derive(Debug)]
pub struct CompiledPartition {
    exe: Executable,
    report: CompileReport,
    machine: MachineDescriptor,
    input_descs: Vec<gc_tensor::TensorDesc>,
    output_descs: Vec<gc_tensor::TensorDesc>,
}

impl CompiledPartition {
    /// Execute with one tensor per graph input (graph-input order).
    /// Outputs come back flattened to rank-1 tensors in graph-output
    /// order (shape metadata is the caller's graph's concern).
    ///
    /// # Errors
    ///
    /// Returns an error on input mismatch.
    pub fn execute(&self, inputs: &[Tensor]) -> Result<(Vec<Tensor>, ExecStats), CoreError> {
        // full shape validation (the engine only checks dtype/volume, so
        // a transposed input of equal volume would otherwise slip by)
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

    /// Expected input descriptors (graph-input order).
    pub fn input_descs(&self) -> &[gc_tensor::TensorDesc] {
        &self.input_descs
    }

    /// Output descriptors (graph-output order; outputs from
    /// [`CompiledPartition::execute`] come back flattened to rank 1
    /// with these volumes).
    pub fn output_descs(&self) -> &[gc_tensor::TensorDesc] {
        &self.output_descs
    }

    /// Project one steady-state execution on the compile-target machine.
    pub fn project(&self) -> Projection {
        self.exe.project(&self.machine)
    }

    /// What the compiler did (partitions, merges, fused post-ops).
    pub fn report(&self) -> &CompileReport {
        &self.report
    }

    /// The underlying executable (advanced inspection).
    pub fn executable(&self) -> &Executable {
        &self.exe
    }

    /// Pretty-print the compiled Tensor IR.
    pub fn tir_text(&self) -> String {
        gc_tir::printer::print_module(self.exe.module())
    }
}
