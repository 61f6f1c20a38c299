//! Rewriting a model graph to a different batch size.
//!
//! A loaded model is a *template* graph built at some batch size; the
//! serving runtime compiles one executable per shape bucket by
//! rebuilding the template with every variable input's leading
//! dimension scaled to the bucket's row count, then re-running shape
//! inference op by op. Constants (weights) are shared untouched, so a
//! model's buckets all reference the same weight tensors.

use crate::ServeError;
use gc_graph::{Graph, LtId, OpKind, Property};
use gc_tensor::TensorDesc;
use std::collections::{HashMap, HashSet};

/// Validate that `g` can serve as a batch template with `units` rows:
/// at least one variable input, no runtime-constant inputs, every
/// input's leading dimension divisible by `units`, and every op
/// row-independent along the batch dimension (see
/// [`check_row_independence`]).
///
/// # Errors
///
/// Returns [`ServeError::InvalidModel`] describing the first violation.
pub fn validate_template(g: &Graph, units: usize) -> Result<(), ServeError> {
    if units == 0 {
        return Err(ServeError::InvalidModel(
            "template_units must be > 0".into(),
        ));
    }
    if g.inputs().is_empty() {
        return Err(ServeError::InvalidModel(
            "model graph has no inputs; nothing to batch".into(),
        ));
    }
    for &i in g.inputs() {
        let t = g.tensor(i);
        if t.property == Property::Constant {
            return Err(ServeError::InvalidModel(format!(
                "input {} ({}) is a runtime constant; serving runtime \
                 constants is not supported yet",
                i, t.name
            )));
        }
        let shape = t.desc.shape();
        if shape.is_empty() {
            return Err(ServeError::InvalidModel(format!(
                "input {} ({}) is rank-0; batching needs a leading batch dim",
                i, t.name
            )));
        }
        if !shape[0].is_multiple_of(units) {
            return Err(ServeError::InvalidModel(format!(
                "input {} ({}) leading dim {} is not divisible by \
                 template_units {}",
                i, t.name, shape[0], units
            )));
        }
    }
    check_row_independence(g)
}

/// Verify that batching `g` along dim 0 is sound: concatenating
/// requests' rows, executing once, and slicing output rows back out
/// must give each request exactly what it would get alone.
///
/// The check tracks which tensors *derive from the batch dimension*
/// (carry it at dim 0) — every variable input does, and ops propagate
/// the property to their outputs — and rejects any use that could mix
/// rows across requests:
///
/// - a batch-derived rank-2 matmul RHS (the contraction would run
///   *over* the batch, e.g. `x @ transpose(x)`); rank ≥ 3 is fine —
///   the leading axes are per-slice;
/// - a rank-2 transpose of a batch-derived tensor (moves the batch off
///   dim 0);
/// - a reduction or softmax over a rank-1 batch-derived tensor (the
///   last axis *is* the batch);
/// - a batch-derived broadcast operand of lower rank than the other
///   side (right-alignment would put the batch on a trailing axis);
/// - a batch-derived bias or normalization statistic (applied across
///   the channel axis, not per row);
/// - a reorder whose target layout blocks axis 0 (rows would
///   interleave in storage, breaking the flat row scatter).
///
/// Finally, every graph output must itself derive from the batch
/// dimension, or its rows could not be scattered back per request.
///
/// # Errors
///
/// Returns [`ServeError::InvalidModel`] naming the offending op.
pub fn check_row_independence(g: &Graph) -> Result<(), ServeError> {
    let order = g.topo_order()?;
    let mut batched: HashSet<LtId> = g.inputs().iter().copied().collect();
    for id in order {
        let op = g.op(id);
        let b = |i: usize| op.inputs.get(i).is_some_and(|lt| batched.contains(lt));
        let rank = |i: usize| g.desc(op.inputs[i]).shape().len();
        let mix = |why: &str| {
            Err(ServeError::InvalidModel(format!(
                "op {} is not row-independent along the batch dim: {why}",
                op.kind
            )))
        };
        let out_batched = match &op.kind {
            OpKind::MatMul | OpKind::QuantizedMatMul { .. } => {
                if b(1) && rank(1) == 2 {
                    return mix("its RHS derives from the batch dimension, so the \
                         contraction would mix rows across requests");
                }
                b(0) || b(1)
            }
            OpKind::Unary(_)
            | OpKind::Quantize { .. }
            | OpKind::Dequantize { .. }
            | OpKind::TypeCast { .. } => b(0),
            OpKind::Binary(_) => {
                if b(1) && rank(1) < rank(0) {
                    return mix("its broadcast operand derives from the batch \
                         dimension but right-aligns it onto a trailing axis");
                }
                b(0) || b(1)
            }
            OpKind::Reduce(_) => {
                if b(0) && rank(0) == 1 {
                    return mix("it reduces over the batch dimension");
                }
                b(0)
            }
            OpKind::Softmax => {
                if b(0) && rank(0) == 1 {
                    return mix("it normalizes over the batch dimension");
                }
                b(0)
            }
            OpKind::DecodeAttention => {
                // Shape inference pins every operand to rank 3 with a
                // shared leading axis, and the op works slice-wise
                // along it: each batch entry's query only meets that
                // entry's caches and mask.
                (0..op.inputs.len()).any(b)
            }
            OpKind::Transpose => {
                if b(0) && rank(0) == 2 {
                    return mix("it moves the batch dimension off dim 0");
                }
                b(0)
            }
            OpKind::Reorder { target } => {
                if b(0) && target.block_of(0).is_some() {
                    return mix("its target layout blocks the batch dimension, \
                         interleaving rows in storage");
                }
                b(0)
            }
            OpKind::BatchNormInference { .. } => {
                if (1..op.inputs.len()).any(b) {
                    return mix("its normalization statistics derive from the batch \
                         dimension");
                }
                b(0)
            }
            OpKind::BiasAdd => {
                if b(1) {
                    return mix("its bias derives from the batch dimension");
                }
                b(0)
            }
        };
        if out_batched {
            batched.insert(op.outputs[0]);
        }
    }
    for &o in g.outputs() {
        if !batched.contains(&o) {
            let t = g.tensor(o);
            return Err(ServeError::InvalidModel(format!(
                "output {} ({}) does not derive from the batch dimension; \
                 its rows cannot be scattered back per request",
                o, t.name
            )));
        }
    }
    Ok(())
}

/// Rebuild `g` with every variable input's leading dimension scaled
/// from `template_units` units to `new_units` units, re-inferring all
/// op output shapes. Constants keep their shapes and values.
///
/// # Errors
///
/// Returns an error if the template is invalid (see
/// [`validate_template`]) or shape inference rejects the scaled shapes.
pub fn rebatch(g: &Graph, template_units: usize, new_units: usize) -> Result<Graph, ServeError> {
    validate_template(g, template_units)?;
    if new_units == 0 {
        return Err(ServeError::InvalidModel("cannot rebatch to 0 units".into()));
    }
    let mut out = Graph::new();
    let mut map: HashMap<LtId, LtId> = HashMap::new();
    for &i in g.inputs() {
        let t = g.tensor(i);
        let mut shape = t.desc.shape().to_vec();
        shape[0] = shape[0] / template_units * new_units;
        let ni = out.add_input(TensorDesc::new(shape, t.desc.dtype()), &t.name);
        map.insert(i, ni);
    }
    let order = g.topo_order()?;
    for id in order {
        let op = g.op(id);
        let mut ins = Vec::with_capacity(op.inputs.len());
        for &inp in &op.inputs {
            let mapped = match map.get(&inp) {
                Some(&m) => m,
                None => {
                    let t = g.tensor(inp);
                    let v = g.const_value(inp).ok_or_else(|| {
                        ServeError::InvalidModel(format!(
                            "tensor {} ({}) has no producer and no constant value",
                            inp, t.name
                        ))
                    })?;
                    let c = out.add_constant(v.clone(), &t.name);
                    map.insert(inp, c);
                    c
                }
            };
            ins.push(mapped);
        }
        let new_out = out
            .add_op(op.kind.clone(), &ins)
            .map_err(|e| ServeError::InvalidModel(format!("rebatch {}: {e}", op.kind)))?;
        map.insert(op.outputs[0], new_out);
    }
    for &o in g.outputs() {
        let mapped = *map.get(&o).ok_or_else(|| {
            ServeError::InvalidModel(format!("output {o} is neither produced nor an input"))
        })?;
        out.mark_output(mapped);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::{OpKind, UnaryKind};
    use gc_tensor::{DataType, Tensor};

    fn mlp(batch: usize) -> Graph {
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([batch, 8], DataType::F32), "x");
        let w = g.add_constant(Tensor::random(&[8, 4], DataType::F32, 7), "w");
        let y = g.add_op(OpKind::MatMul, &[x, w]).unwrap();
        let z = g.add_op(OpKind::Unary(UnaryKind::Relu), &[y]).unwrap();
        g.mark_output(z);
        g
    }

    #[test]
    fn scales_input_and_output() {
        let g = mlp(4);
        let r = rebatch(&g, 4, 16).unwrap();
        assert_eq!(r.desc(r.inputs()[0]).shape(), &[16, 8]);
        assert_eq!(r.desc(r.outputs()[0]).shape(), &[16, 4]);
        r.validate().unwrap();
    }

    #[test]
    fn constants_are_preserved() {
        let g = mlp(4);
        let r = rebatch(&g, 4, 8).unwrap();
        let w_orig = g.const_value(gc_graph::LtId(1)).unwrap();
        // rebatched graph: t0 = input x, t1 = first-use constant w
        let w_new = r.const_value(gc_graph::LtId(1)).unwrap();
        assert_eq!(w_orig.f32_slice().unwrap(), w_new.f32_slice().unwrap());
    }

    #[test]
    fn fingerprints_differ_per_bucket_but_agree_per_size() {
        let g = mlp(4);
        let a = gc_graph::graph_fingerprint(&rebatch(&g, 4, 8).unwrap()).unwrap();
        let b = gc_graph::graph_fingerprint(&rebatch(&g, 4, 16).unwrap()).unwrap();
        let a2 = gc_graph::graph_fingerprint(&rebatch(&g, 4, 8).unwrap()).unwrap();
        assert_ne!(a, b);
        assert_eq!(a, a2);
    }

    #[test]
    fn rejects_runtime_constant_inputs() {
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([4, 8], DataType::F32), "x");
        let w = g.add_runtime_constant(TensorDesc::new([8, 4], DataType::F32), "w");
        let y = g.add_op(OpKind::MatMul, &[x, w]).unwrap();
        g.mark_output(y);
        assert!(matches!(
            rebatch(&g, 4, 8),
            Err(ServeError::InvalidModel(_))
        ));
    }

    #[test]
    fn rejects_indivisible_units() {
        let g = mlp(4);
        assert!(rebatch(&g, 3, 6).is_err());
    }

    #[test]
    fn rejects_transpose_that_moves_the_batch() {
        // x @ transpose(x) -> [B, B]: every output row reads every
        // request's rows.
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([4, 8], DataType::F32), "x");
        let xt = g.add_op(OpKind::Transpose, &[x]).unwrap();
        let y = g.add_op(OpKind::MatMul, &[x, xt]).unwrap();
        g.mark_output(y);
        assert!(matches!(
            validate_template(&g, 4),
            Err(ServeError::InvalidModel(_))
        ));
    }

    #[test]
    fn rejects_batch_derived_matmul_rhs() {
        // x @ x with square x: the contraction runs over the batch.
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([4, 4], DataType::F32), "x");
        let y = g.add_op(OpKind::MatMul, &[x, x]).unwrap();
        g.mark_output(y);
        assert!(validate_template(&g, 4).is_err());
    }

    #[test]
    fn rejects_reduce_over_rank1_batch() {
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([4], DataType::F32), "x");
        let y = g
            .add_op(OpKind::Reduce(gc_graph::ReduceKind::Sum), &[x])
            .unwrap();
        g.mark_output(y);
        assert!(validate_template(&g, 4).is_err());
    }

    #[test]
    fn rejects_batch_derived_broadcast_operand() {
        // v's batch dim would right-align onto x's trailing axis.
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([4, 4], DataType::F32), "x");
        let v = g.add_input(TensorDesc::new([4], DataType::F32), "v");
        let y = g
            .add_op(OpKind::Binary(gc_graph::BinaryKind::Add), &[x, v])
            .unwrap();
        g.mark_output(y);
        assert!(validate_template(&g, 4).is_err());
    }

    #[test]
    fn rejects_output_not_derived_from_batch() {
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([4, 8], DataType::F32), "x");
        let r = g.add_op(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        let w1 = g.add_constant(Tensor::random(&[8, 8], DataType::F32, 1), "w1");
        let w2 = g.add_constant(Tensor::random(&[8, 8], DataType::F32, 2), "w2");
        let c = g.add_op(OpKind::MatMul, &[w1, w2]).unwrap();
        g.mark_output(r);
        g.mark_output(c);
        assert!(validate_template(&g, 4).is_err());
    }

    #[test]
    fn accepts_per_slice_rank3_transpose_and_matmul() {
        // Last-two-axes ops leave a rank-3 leading batch axis alone.
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([4, 2, 3], DataType::F32), "x");
        let xt = g.add_op(OpKind::Transpose, &[x]).unwrap(); // [4, 3, 2]
        let y = g.add_op(OpKind::MatMul, &[x, xt]).unwrap(); // [4, 2, 2]
        g.mark_output(y);
        validate_template(&g, 4).unwrap();
    }
}
