//! Execution-runtime substrate for the oneDNN Graph Compiler
//! reproduction.
//!
//! Compiled partitions need three runtime services, all provided here:
//!
//! - [`ThreadPool`] — persistent workers executing lowered parallel
//!   loops, with an implicit barrier per loop (the synchronization that
//!   coarse-grain fusion removes);
//! - [`Arena`] / [`ArenaPlanner`] — the slab allocator realizing the
//!   Tensor IR memory-buffer plan (offsets assigned at compile time,
//!   one allocation reused across runs);
//! - [`ConstantCache`] — the first-execution cache behind constant
//!   weight preprocessing ("processed once, reused forever");
//! - [`ExecStats`] — counters surfaced to the benchmark harness.
//!
//! Pools are plain values: an engine instance owns its own
//! [`ThreadPool`], and several pools coexist in one process.

#![warn(missing_docs)]

mod arena;
mod constant_cache;
mod pool;
mod stats;

pub use arena::{Arena, ArenaPlanner, SlotId};
pub use constant_cache::ConstantCache;
pub use pool::ThreadPool;
pub use stats::ExecStats;
