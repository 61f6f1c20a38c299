//! Tensor IR for the oneDNN Graph Compiler reproduction.
//!
//! "Tensor IR is the lowest intermediate representation [...] the DNN
//! computation graph is lowered to a C-like program, which includes
//! function, statement, expression, and intrinsic functions." This crate
//! provides:
//!
//! - the IR ([`ir`]): [`Module`] / [`Func`] / [`Stmt`] / [`Intrinsic`]
//!   with integer index expressions ([`expr`]); an intrinsic is an
//!   [`Op`] applied to buffer operands, and [`Op::desc`] is the one
//!   table every consumer of an op's operands reads;
//! - execution: flat compiled plans ([`compile`], [`plan`]) and the
//!   reference tree-walking interpreter ([`exec`]), both ending in one
//!   shared kernel dispatch whose bulk work runs in the native
//!   microkernels (the reproduction's stand-in for LLVM JIT codegen);
//! - the Tensor IR optimizations ([`passes`]): mechanical parallel-loop
//!   merging (coarse-grain fusion), tensor-size optimization, and
//!   memory-buffer reuse;
//! - multi-core performance projection ([`sim`]) via the `gc-machine`
//!   cache simulator and cost model;
//! - a printer ([`printer`]) for diagnostics.

#![warn(missing_docs)]

mod bounds;
pub mod compile;
pub mod engine;
pub mod exec;
pub mod expr;
pub mod ir;
mod kernel;
pub mod passes;
pub mod plan;
pub mod printer;
pub mod sim;
pub mod visit;

pub use compile::compile_module;
pub use engine::{
    engine_totals, Engine, EngineCounters, EngineTotals, ExecMode, Executable, InitCache,
};
pub use expr::{Expr, VarId};
pub use ir::{
    BufDecl, BufId, Call, Func, GlobalDecl, GlobalKind, Intrinsic, Module, Op, Operand, ReduceOp,
    Stmt, View,
};
pub use passes::validate::{validate_module, ValidateError};
pub use plan::{ExecOptions, Plan, PlanStats};
