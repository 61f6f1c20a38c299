//! Execution-runtime substrate for the oneDNN Graph Compiler
//! reproduction.
//!
//! Compiled partitions need three runtime services, all provided here
//! (the buffer plan and the engine that runs it are gc-tir's):
//!
//! - [`ThreadPool`] — persistent workers executing lowered parallel
//!   loops, with an implicit barrier per loop (the synchronization that
//!   coarse-grain fusion removes);
//! - [`ConstantCache`] — the first-execution cache behind constant
//!   weight preprocessing ("processed once, reused forever");
//! - [`ExecStats`] — counters surfaced to the benchmark harness.
//!
//! Pools are plain values: an engine instance owns its own
//! [`ThreadPool`], and several pools coexist in one process.

#![warn(missing_docs)]

mod constant_cache;
mod pool;
mod stats;

pub use constant_cache::ConstantCache;
pub use pool::ThreadPool;
pub use stats::ExecStats;
