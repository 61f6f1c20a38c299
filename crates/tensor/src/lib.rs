//! Tensor substrate for the oneDNN Graph Compiler reproduction.
//!
//! This crate provides the data-plane foundation every other crate
//! builds on:
//!
//! - [`DataType`] and the [`Element`] trait — the element types the
//!   compiler supports (f32, bf16, u8, i8, i32, i64);
//! - [`Layout`] — plain (row-major) and *blocked* layouts, the central
//!   memory-layout abstraction of the paper's Tunable-OP templates;
//! - [`Tensor`] / [`TensorDesc`] / [`Storage`] — dense tensors with
//!   cheaply clonable shared storage;
//! - [`reorder`] — layout conversion (the runtime realization of
//!   reorder OPs, and the test oracle for lowering's pack/unpack);
//! - [`mod@reference`] — naive oracle implementations of every DNN op used
//!   for differential testing;
//! - [`quant`] — the quantization algebra of the low-precision
//!   conversion pass, including weight compensation.
//!
//! # Examples
//!
//! ```
//! use gc_tensor::{Tensor, DataType, Layout, reorder::reorder, reference};
//!
//! let a = Tensor::random(&[4, 8], DataType::F32, 0);
//! let b = Tensor::random(&[8, 2], DataType::F32, 1);
//! let c = reference::matmul_f32(&a, &b)?;
//! assert_eq!(c.desc().shape(), &[4, 2]);
//!
//! // Block A the way a Tunable-OP template would:
//! let blocked = reorder(&a, Layout::blocked_a(2, 2, 4))?;
//! assert!(blocked.allclose(&a, 0.0));
//! # Ok::<(), gc_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]

mod dtype;
mod error;
pub mod layout;
pub mod quant;
pub mod reference;
pub mod reorder;
mod tensor;

pub use dtype::{bf16_bits_to_f32, f32_to_bf16_bits, DataType, Element};
pub use error::{Result, TensorError};
pub use layout::{BlockSpec, Layout};
pub use quant::QuantParams;
pub use tensor::{Storage, StorageElement, Tensor, TensorDesc};
