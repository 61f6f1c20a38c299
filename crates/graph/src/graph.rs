//! The Graph IR: graph, logical tensor and OP.

use crate::error::{GraphError, Result};
use crate::infer::infer_output;
use crate::op::{OpKind, Stage};
use gc_tensor::{Tensor, TensorDesc};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a logical tensor within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LtId(pub usize);

/// Identifier of an op within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub usize);

impl fmt::Display for LtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Whether a logical tensor's contents are fixed across executions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Property {
    /// Normal data tensor.
    #[default]
    Variable,
    /// Constant at execution time (weights, folded constants, and
    /// anything computed only from constants).
    Constant,
}

/// A logical tensor: metadata only — dtype, shape, layout, property.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalTensor {
    /// Tensor metadata.
    pub desc: TensorDesc,
    /// Constant-ness (propagated by constant-weight preprocessing).
    pub property: Property,
    /// Debug name.
    pub name: String,
}

/// One operation node.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Kind plus attributes.
    pub kind: OpKind,
    /// Input logical tensors.
    pub inputs: Vec<LtId>,
    /// Output logical tensors (always 1 today, kept plural for parity
    /// with the paper's model).
    pub outputs: Vec<LtId>,
    /// Execution stage (main vs one-time init).
    pub stage: Stage,
    /// Liveness flag; dead ops are skipped everywhere and reclaimed by
    /// DCE-style passes.
    pub alive: bool,
}

/// A DNN computation graph of basic and complex OPs.
///
/// # Examples
///
/// ```
/// use gc_graph::{Graph, OpKind};
/// use gc_tensor::{DataType, TensorDesc};
///
/// let mut g = Graph::new();
/// let a = g.add_input(TensorDesc::new([4, 8], DataType::F32), "a");
/// let b = g.add_input(TensorDesc::new([8, 2], DataType::F32), "b");
/// let c = g.add_op(OpKind::MatMul, &[a, b])?;
/// g.mark_output(c);
/// assert_eq!(g.desc(c).shape(), &[4, 2]);
/// # Ok::<(), gc_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graph {
    tensors: Vec<LogicalTensor>,
    ops: Vec<Op>,
    inputs: Vec<LtId>,
    outputs: Vec<LtId>,
    /// Compile-time bound values for constant tensors.
    const_values: HashMap<LtId, Tensor>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Add a graph input tensor and return its id.
    pub fn add_input(&mut self, desc: TensorDesc, name: &str) -> LtId {
        let id = self.add_tensor(desc, Property::Variable, name);
        self.inputs.push(id);
        id
    }

    /// Add a constant tensor with a bound value (e.g. a weight).
    pub fn add_constant(&mut self, value: Tensor, name: &str) -> LtId {
        let id = self.add_tensor(value.desc().clone(), Property::Constant, name);
        self.const_values.insert(id, value);
        id
    }

    /// Add a constant *placeholder*: marked constant but with no bound
    /// value (a "runtime constant" whose buffer arrives at first
    /// execution, per the paper).
    pub fn add_runtime_constant(&mut self, desc: TensorDesc, name: &str) -> LtId {
        let id = self.add_tensor(desc, Property::Constant, name);
        self.inputs.push(id);
        id
    }

    fn add_tensor(&mut self, desc: TensorDesc, property: Property, name: &str) -> LtId {
        let id = LtId(self.tensors.len());
        self.tensors.push(LogicalTensor {
            desc,
            property,
            name: name.to_string(),
        });
        id
    }

    /// Append an op, inferring its output tensor. Returns the output id.
    ///
    /// # Errors
    ///
    /// Returns an error if an input id is unknown or shape inference
    /// fails.
    pub fn add_op(&mut self, kind: OpKind, inputs: &[LtId]) -> Result<LtId> {
        for &i in inputs {
            if i.0 >= self.tensors.len() {
                return Err(GraphError::UnknownTensor(i.0));
            }
        }
        let descs: Vec<&TensorDesc> = inputs.iter().map(|&i| &self.tensors[i.0].desc).collect();
        let out_desc = infer_output(&kind, &descs)?;
        let name = format!("{}_{}", kind.mnemonic(), self.ops.len());
        let out = self.add_tensor(out_desc, Property::Variable, &name);
        self.ops.push(Op {
            kind,
            inputs: inputs.to_vec(),
            outputs: vec![out],
            stage: Stage::Main,
            alive: true,
        });
        Ok(out)
    }

    /// Mark a tensor as a graph output.
    pub fn mark_output(&mut self, id: LtId) {
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
    }

    /// Graph input tensor ids.
    pub fn inputs(&self) -> &[LtId] {
        &self.inputs
    }

    /// Graph output tensor ids.
    pub fn outputs(&self) -> &[LtId] {
        &self.outputs
    }

    /// Descriptor of a logical tensor.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn desc(&self, id: LtId) -> &TensorDesc {
        &self.tensors[id.0].desc
    }

    /// Full logical-tensor record.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn tensor(&self, id: LtId) -> &LogicalTensor {
        &self.tensors[id.0]
    }

    /// Mutable logical-tensor record.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn tensor_mut(&mut self, id: LtId) -> &mut LogicalTensor {
        &mut self.tensors[id.0]
    }

    /// The op node for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn op(&self, id: OpId) -> &Op {
        &self.ops[id.0]
    }

    /// Mutable op node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn op_mut(&mut self, id: OpId) -> &mut Op {
        &mut self.ops[id.0]
    }

    /// Iterate live op ids in insertion order.
    pub fn live_ops(&self) -> impl Iterator<Item = OpId> + '_ {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.alive)
            .map(|(i, _)| OpId(i))
    }

    /// The live op producing tensor `id`, if any.
    pub fn producer(&self, id: LtId) -> Option<OpId> {
        self.ops
            .iter()
            .enumerate()
            .find(|(_, o)| o.alive && o.outputs.contains(&id))
            .map(|(i, _)| OpId(i))
    }

    /// All live ops consuming tensor `id`.
    pub fn consumers(&self, id: LtId) -> Vec<OpId> {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.alive && o.inputs.contains(&id))
            .map(|(i, _)| OpId(i))
            .collect()
    }

    /// Bound compile-time value of a constant tensor, if any.
    pub fn const_value(&self, id: LtId) -> Option<&Tensor> {
        self.const_values.get(&id)
    }

    /// Bind (or rebind) a compile-time constant value.
    pub fn bind_const(&mut self, id: LtId, value: Tensor) {
        self.tensors[id.0].property = Property::Constant;
        self.const_values.insert(id, value);
    }

    /// Replace every use of `old` (op inputs and graph outputs) with
    /// `new`.
    pub fn replace_uses(&mut self, old: LtId, new: LtId) {
        for op in self.ops.iter_mut().filter(|o| o.alive) {
            for i in &mut op.inputs {
                if *i == old {
                    *i = new;
                }
            }
        }
        for o in &mut self.outputs {
            if *o == old {
                *o = new;
            }
        }
    }

    /// Kill an op (mark dead).
    pub fn kill_op(&mut self, id: OpId) {
        self.ops[id.0].alive = false;
    }

    /// Live ops in topological order (inputs before users).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Cycle`] if the live subgraph is cyclic.
    pub fn topo_order(&self) -> Result<Vec<OpId>> {
        let live: Vec<OpId> = self.live_ops().collect();
        let mut produced: HashMap<LtId, OpId> = HashMap::new();
        for &id in &live {
            for &o in &self.ops[id.0].outputs {
                if produced.insert(o, id).is_some() {
                    return Err(GraphError::MultipleProducers(o.0));
                }
            }
        }
        let mut indegree: HashMap<OpId, usize> = HashMap::new();
        let mut dependents: HashMap<OpId, Vec<OpId>> = HashMap::new();
        for &id in &live {
            let mut deg = 0;
            for &inp in &self.ops[id.0].inputs {
                if let Some(&p) = produced.get(&inp) {
                    deg += 1;
                    dependents.entry(p).or_default().push(id);
                }
            }
            indegree.insert(id, deg);
        }
        let mut ready: Vec<OpId> = live
            .iter()
            .copied()
            .filter(|id| indegree[id] == 0)
            .collect();
        ready.sort();
        let mut order = Vec::with_capacity(live.len());
        while let Some(id) = ready.pop() {
            order.push(id);
            for &d in dependents.get(&id).map(|v| v.as_slice()).unwrap_or(&[]) {
                let e = indegree.get_mut(&d).unwrap();
                *e -= 1;
                if *e == 0 {
                    ready.push(d);
                }
            }
            ready.sort();
            ready.reverse(); // pop smallest id first for determinism
        }
        if order.len() != live.len() {
            return Err(GraphError::Cycle);
        }
        Ok(order)
    }

    /// Validate the graph: ids in range, single producers, acyclic, and
    /// op output descs consistent with inference.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<()> {
        for op in self.ops.iter().filter(|o| o.alive) {
            for &i in op.inputs.iter().chain(&op.outputs) {
                if i.0 >= self.tensors.len() {
                    return Err(GraphError::UnknownTensor(i.0));
                }
            }
        }
        self.topo_order()?;
        Ok(())
    }

    /// Pretty-print the live graph.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        use std::fmt::Write;
        for (i, t) in self.tensors.iter().enumerate() {
            let marks = match (
                self.inputs.contains(&LtId(i)),
                self.outputs.contains(&LtId(i)),
            ) {
                (true, _) => " (input)",
                (_, true) => " (output)",
                _ => "",
            };
            let c = if t.property == Property::Constant {
                " const"
            } else {
                ""
            };
            let _ = writeln!(s, "t{i}: {}{c}{marks}  // {}", t.desc, t.name);
        }
        for id in self.live_ops() {
            let op = &self.ops[id.0];
            let ins: Vec<String> = op.inputs.iter().map(|i| i.to_string()).collect();
            let outs: Vec<String> = op.outputs.iter().map(|o| o.to_string()).collect();
            let stage = if op.stage == Stage::Init {
                " [init]"
            } else {
                ""
            };
            let _ = writeln!(
                s,
                "{} = {}({}){stage}",
                outs.join(", "),
                op.kind,
                ins.join(", ")
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{BinaryKind, UnaryKind};
    use gc_tensor::DataType;

    fn simple_mlp() -> (Graph, LtId) {
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([4, 8], DataType::F32), "x");
        let w = g.add_constant(Tensor::random(&[8, 4], DataType::F32, 1), "w");
        let y = g.add_op(OpKind::MatMul, &[x, w]).unwrap();
        let z = g.add_op(OpKind::Unary(UnaryKind::Relu), &[y]).unwrap();
        g.mark_output(z);
        (g, z)
    }

    #[test]
    fn build_and_validate() {
        let (g, z) = simple_mlp();
        g.validate().unwrap();
        assert_eq!(g.desc(z).shape(), &[4, 4]);
        assert_eq!(g.inputs().len(), 1);
        assert_eq!(g.outputs(), &[z]);
    }

    #[test]
    fn producer_and_consumers() {
        let (g, z) = simple_mlp();
        let relu = g.producer(z).unwrap();
        assert_eq!(g.op(relu).kind, OpKind::Unary(UnaryKind::Relu));
        let mm_out = g.op(relu).inputs[0];
        assert_eq!(g.consumers(mm_out), vec![relu]);
        let x = g.inputs()[0];
        assert_eq!(g.producer(x), None);
    }

    #[test]
    fn topo_order_respects_deps() {
        let (g, _) = simple_mlp();
        let order = g.topo_order().unwrap();
        assert_eq!(order.len(), 2);
        assert!(order[0] < order[1]);
    }

    #[test]
    fn diamond_topo() {
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([4, 4], DataType::F32), "x");
        let a = g.add_op(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        let b = g.add_op(OpKind::Unary(UnaryKind::Exp), &[x]).unwrap();
        let c = g.add_op(OpKind::Binary(BinaryKind::Add), &[a, b]).unwrap();
        g.mark_output(c);
        let order = g.topo_order().unwrap();
        assert_eq!(order.len(), 3);
        assert_eq!(order[2], g.producer(c).unwrap());
    }

    #[test]
    fn kill_and_replace() {
        let (mut g, z) = simple_mlp();
        let relu = g.producer(z).unwrap();
        let mm_out = g.op(relu).inputs[0];
        // bypass relu
        g.replace_uses(z, mm_out);
        g.kill_op(relu);
        g.validate().unwrap();
        assert_eq!(g.outputs(), &[mm_out]);
        assert_eq!(g.live_ops().count(), 1);
    }

    #[test]
    fn constants_carry_values() {
        let (g, _) = simple_mlp();
        let w = LtId(1);
        assert_eq!(g.tensor(w).property, Property::Constant);
        assert!(g.const_value(w).is_some());
        assert!(g.const_value(g.inputs()[0]).is_none());
    }

    #[test]
    fn unknown_input_rejected() {
        let mut g = Graph::new();
        let err = g.add_op(OpKind::Softmax, &[LtId(9)]).unwrap_err();
        assert!(matches!(err, GraphError::UnknownTensor(9)));
    }

    #[test]
    fn to_text_mentions_ops() {
        let (g, _) = simple_mlp();
        let text = g.to_text();
        assert!(text.contains("matmul"));
        assert!(text.contains("relu"));
        assert!(text.contains("const"));
    }

    #[test]
    fn runtime_constant_is_input_and_constant() {
        let mut g = Graph::new();
        let w = g.add_runtime_constant(TensorDesc::new([2, 2], DataType::F32), "w");
        assert!(g.inputs().contains(&w));
        assert_eq!(g.tensor(w).property, Property::Constant);
        assert!(g.const_value(w).is_none());
    }
}
