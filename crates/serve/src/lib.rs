//! oneDNN Graph Compiler reproduction — concurrent inference serving
//! runtime (`gc-serve`).
//!
//! The compiler stack below this crate answers "how do I run *one*
//! graph *once*, fast". This crate answers the deployment-side
//! question the paper's integration section leaves to the framework:
//! how a process serves *many* concurrent inference requests against a
//! few models without recompiling, re-folding weights, or serializing
//! every request through one executor.
//!
//! The pieces:
//!
//! 1. **Plan cache** ([`PlanCache`], [`PlanKey`]) — [`Model::load`]
//!    canonicalizes and fingerprints the Graph IR and compiles through
//!    a process-wide cache, so loading the same model twice (or in two
//!    sessions) yields the same `Arc<Executable>` and runs
//!    constant-weight folding exactly once. One options digest and one
//!    compile helper serve request models and decode models.
//! 2. **One batcher core** (`batcher.rs`, crate-private) — the
//!    scheduling protocol, written once: a bounded queue
//!    ([`ServeError::Busy`] at the bound), a coalescing window anchored
//!    at the oldest item's enqueue time, one batch-function call per
//!    batch, panic-safe fan-out to per-item futures, and one shutdown
//!    meaning (drain, then [`ServeError::Closed`]). The two models below
//!    are its two instantiations; neither spawns a thread of its own.
//! 3. **Request batching** ([`Model`], [`Session`]) — concurrent
//!    requests on one model are coalesced into power-of-two row
//!    buckets, padded, executed once on the model's one engine, and
//!    copied back out per request. An idle model takes a synchronous
//!    fast path with no queue hop.
//! 4. **KV-cache autoregressive decode** ([`DecodeModel`],
//!    [`DecodeSession`]) — per-session KV caches at power-of-two
//!    capacity buckets; the batcher coalesces one pending decode step
//!    from many sessions, grouped by capacity, into a single plan
//!    execution per iteration (see [`decode`]).
//! 5. **Observability** — per-model / per-bucket counters
//!    ([`StatsSnapshot`]) with p50/p99 latency.
//!
//! ```
//! use gc_graph::{Graph, OpKind, UnaryKind};
//! use gc_serve::{Model, ServeConfig};
//! use gc_tensor::{DataType, Tensor, TensorDesc};
//!
//! let mut g = Graph::new();
//! let x = g.add_input(TensorDesc::new([1, 32], DataType::F32), "x");
//! let w = g.add_constant(Tensor::random(&[32, 8], DataType::F32, 7), "w");
//! let y = g.add_op(OpKind::MatMul, &[x, w])?;
//! let z = g.add_op(OpKind::Unary(UnaryKind::Relu), &[y])?;
//! g.mark_output(z);
//!
//! let model = Model::load(g, ServeConfig::default())?;
//! let session = model.session();
//! let outs = session.infer(&[Tensor::random(&[1, 32], DataType::F32, 1)])?;
//! assert_eq!(outs[0].desc().shape(), &[1, 8]);
//! # Ok::<(), gc_serve::ServeError>(())
//! ```

#![warn(missing_docs)]

pub mod batch;
mod batcher;
pub mod cache;
pub mod decode;
pub mod model;
pub mod rebatch;
pub mod stats;

pub use cache::{init_cache, plan_cache, shared_pool, CachedPlan, PlanCache, PlanKey};
pub use decode::{DecodeConfig, DecodeModel, DecodeSession, StepFuture};
pub use model::{Model, ServeConfig, Session};
pub use stats::{BucketSnapshot, DecodeBucketSnapshot, StatsSnapshot};

use std::fmt;

/// Error type of the serving runtime.
///
/// `Clone` so one failure can be fanned out to every request that was
/// coalesced into the failing batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The model graph cannot be served (invalid, or violates the
    /// batching contract — e.g. a leading dim not divisible by the
    /// template units).
    InvalidModel(String),
    /// A request's tensors don't match the model signature.
    InvalidRequest(String),
    /// The model's bounded request queue is full; the caller should
    /// back off and retry.
    Busy {
        /// Requests currently queued.
        queued: usize,
        /// Queue capacity.
        cap: usize,
    },
    /// The model has been shut down.
    Closed,
    /// Compilation of a shape bucket failed.
    Compile(String),
    /// Execution failed.
    Exec(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidModel(m) => write!(f, "invalid model: {m}"),
            ServeError::InvalidRequest(m) => write!(f, "invalid request: {m}"),
            ServeError::Busy { queued, cap } => {
                write!(f, "busy: {queued} requests queued (cap {cap})")
            }
            ServeError::Closed => write!(f, "model is shut down"),
            ServeError::Compile(m) => write!(f, "compile: {m}"),
            ServeError::Exec(m) => write!(f, "exec: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<gc_core::CoreError> for ServeError {
    fn from(e: gc_core::CoreError) -> Self {
        // CoreError is not Clone (it wraps source errors); carry the
        // rendered message so batch failures can fan out to waiters.
        match e {
            gc_core::CoreError::Exec(x) => ServeError::Exec(x.to_string()),
            other => ServeError::Compile(other.to_string()),
        }
    }
}

impl From<gc_graph::GraphError> for ServeError {
    fn from(e: gc_graph::GraphError) -> Self {
        ServeError::InvalidModel(format!("graph: {e}"))
    }
}

impl From<gc_tir::exec::ExecError> for ServeError {
    fn from(e: gc_tir::exec::ExecError) -> Self {
        ServeError::Exec(e.to_string())
    }
}
