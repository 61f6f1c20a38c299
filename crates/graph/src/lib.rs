//! Graph IR for the oneDNN Graph Compiler reproduction.
//!
//! The Graph IR "keeps the DNN OP semantics, so most domain-specific
//! optimizations are done at this level" (paper, §High-level Design).
//! This crate provides:
//!
//! - the IR itself: [`Graph`], [`LogicalTensor`], [`Op`] with
//!   Tunable / Fusible / Complex categories;
//! - shape/dtype inference ([`infer`]);
//! - the pass framework and the graph-level optimizations ([`passes`]):
//!   complex-op decomposition, CSE, DCE, constant folding,
//!   low-precision conversion, constant-weight preprocessing, and
//!   fine-/coarse-grain fusion (layout propagation is the lowering
//!   driver's layout negotiation, in gc-lowering);
//! - the fused-op partitioning produced by fusion.
//!
//! # Examples
//!
//! ```
//! use gc_graph::{Graph, OpKind, UnaryKind};
//! use gc_tensor::{DataType, Tensor, TensorDesc};
//!
//! let mut g = Graph::new();
//! let x = g.add_input(TensorDesc::new([16, 32], DataType::F32), "x");
//! let w = g.add_constant(Tensor::random(&[32, 8], DataType::F32, 0), "w");
//! let y = g.add_op(OpKind::MatMul, &[x, w])?;
//! let z = g.add_op(OpKind::Unary(UnaryKind::Relu), &[y])?;
//! g.mark_output(z);
//! g.validate()?;
//! # Ok::<(), gc_graph::GraphError>(())
//! ```

#![warn(missing_docs)]

mod error;
pub mod fingerprint;
mod graph;
pub mod infer;
mod op;
pub mod passes;

pub use error::{GraphError, Result};
pub use fingerprint::{combine, graph_fingerprint, Fnv1a};
pub use graph::{Graph, LogicalTensor, LtId, Op, OpId, Property};
pub use op::{BinaryKind, OpCategory, OpKind, ReduceKind, Stage, UnaryKind};
pub use passes::coarse_fusion::CoarseGroups;
pub use passes::fusion::{FusedOp, FusionOptions, Partitioning};
