//! Expert-tuned microkernels for the oneDNN Graph Compiler reproduction.
//!
//! The paper's compiler does not lower compute-intensive inner loops to
//! plain scalar code; it calls carefully hand-tuned *microkernels* that
//! "fulfill a subtask of a DNN OP with data in the fastest cache on a
//! single CPU core" and abstract away the ISA. This crate is that layer:
//!
//! - [`brgemm`] — the batch-reduce GEMM microkernel (LIBXSMM-style), in
//!   f32 and u8×i8→i32 variants, plus obviously-correct scalar versions
//!   for differential testing;
//! - [`eltwise`] — the unary/binary op vocabulary of row chains, and
//!   the relu and add slice kernels;
//! - [`reduce`] — row and slice reduction kernels;
//! - [`chain`] — the row-chain kernel: a fused post-op chain (a bias add
//!   and relu, a softmax), or one elementwise op, as one program per row
//!   block;
//! - [`epilogue`] — the int8 dequantize/compensate/requantize epilogue
//!   from the paper's low-precision equation;
//! - [`tail`] — edge-tile variants for ragged shapes: clamped-height
//!   brgemm tails, masked pack/store helpers, and tail epilogues.
//!
//! In the original system these are JIT-generated AVX-512/AMX code;
//! here each kernel family has one generic body written against a
//! small SIMD-ops trait, instantiated per backend (portable scalar,
//! AVX2+FMA, AVX-512/VNNI). Every kernel that has a per-backend body is
//! a method on one [`Kernels`] handle ([`kernels`]`(isa)` checks the CPU
//! can run it); whoever executes a plan owns the handle, so the backend
//! is a value, never ambient state — see [`arch`]. The interface —
//! offsets into packed, blocked buffers — is the same as the paper's,
//! which is what the lowering templates depend on. `GC_FORCE_ISA=scalar`
//! (or `avx2`/`avx512`) picks the *default* handle;
//! [`arch::dispatch_report`] shows which variants actually ran.
//!
//! # Examples
//!
//! ```
//! use gc_microkernel::{kernels, BrgemmShape, Isa};
//!
//! // One 2x2x2 tile pair: C += A x B, B stored as [n][k] panels.
//! let a = [1.0f32, 2.0, 3.0, 4.0]; // [[1,2],[3,4]]
//! let b = [1.0f32, 0.0, 0.0, 1.0]; // panels: n0=[1,0], n1=[0,1] => identity
//! let mut c = [0.0f32; 4];
//! let shape = BrgemmShape::new(2, 2, 2);
//! kernels(Isa::Scalar).brgemm_f32(shape, shape.m, &a, &[0], &b, &[0], &mut c);
//! assert_eq!(c, a);
//! ```

#![warn(missing_docs)]

pub mod arch;
pub mod brgemm;
pub mod chain;
pub mod eltwise;
pub mod epilogue;
pub mod reduce;
pub mod tail;

pub use arch::{dispatch_report, kernels, DispatchReport, Isa, Kernels};
pub use brgemm::BrgemmShape;
pub use chain::{ChainStep, RowChain};
pub use eltwise::{BinaryOp, UnaryOp};
pub use reduce::ReduceOp;
