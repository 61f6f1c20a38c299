//! Graph IR optimization passes.
//!
//! The Graph IR optimization module "first decomposes complex OPs into
//! basic DNN OPs", then applies "general compiler optimizations like
//! common subexpression elimination, dead code elimination, and constant
//! folding" plus "domain-specific optimizations like low-precision
//! conversion, tensor memory layout propagation, constant weight
//! preprocessing, and fusion" (paper, §Graph IR Optimization).
//!
//! Every one of those is a pass here except layout propagation: the
//! lowering driver does it, as a layout negotiation between chained
//! matmuls, once template parameters are known (gc-lowering's
//! `lower_graph`).

pub mod coarse_fusion;
pub mod constant_fold;
pub mod constant_weight;
pub mod cse;
pub mod dce;
pub mod decompose;
pub mod fusion;
pub mod low_precision;

use crate::error::Result;
use crate::graph::Graph;

/// A rewriting pass over the Graph IR.
pub trait Pass {
    /// Diagnostic name.
    fn name(&self) -> &'static str;

    /// Run on `graph`; returns whether anything changed.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph violates the pass's preconditions.
    fn run(&self, graph: &mut Graph) -> Result<bool>;
}

/// Runs a sequence of passes, optionally to a fixpoint.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// An empty pipeline.
    pub fn new() -> Self {
        PassManager::default()
    }

    /// Append a pass.
    pub fn add(&mut self, pass: impl Pass + 'static) -> &mut Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Run every pass once, in order; validates after each changing
    /// pass. Returns whether any pass changed the graph.
    ///
    /// # Errors
    ///
    /// Propagates pass and validation errors.
    pub fn run(&self, graph: &mut Graph) -> Result<bool> {
        let mut changed = false;
        for pass in &self.passes {
            let c = pass.run(graph)?;
            if c {
                graph.validate()?;
            }
            changed |= c;
        }
        Ok(changed)
    }

    /// Run the pipeline repeatedly until no pass changes the graph (with
    /// an iteration cap to guard against oscillation).
    ///
    /// # Errors
    ///
    /// Propagates pass and validation errors.
    pub fn run_to_fixpoint(&self, graph: &mut Graph, max_iters: usize) -> Result<()> {
        for _ in 0..max_iters {
            if !self.run(graph)? {
                return Ok(());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::op::{OpKind, UnaryKind};
    use gc_tensor::{DataType, TensorDesc};

    struct NopPass;
    impl Pass for NopPass {
        fn name(&self) -> &'static str {
            "nop"
        }
        fn run(&self, _g: &mut Graph) -> Result<bool> {
            Ok(false)
        }
    }

    #[test]
    fn manager_reports_no_change() {
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([2], DataType::F32), "x");
        let y = g.add_op(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        g.mark_output(y);
        let mut pm = PassManager::new();
        pm.add(NopPass);
        assert!(!pm.run(&mut g).unwrap());
        pm.run_to_fixpoint(&mut g, 5).unwrap();
    }
}
