//! Decomposition of complex OPs into basic DNN OPs.
//!
//! "The decomposition of complex DNN operations simplifies the Graph IR
//! optimization module so it only needs to handle basic DNN operations."
//!
//! - `softmax(x)` → `div(exp(sub(x, reduce_max(x))), reduce_sum(exp))`
//!   (numerically-stable form; the two reductions become the split
//!   post-op groups during fine-grain fusion);
//! - `bias_add(x, b)` → `add(x, b)` (broadcast binary);
//! - `decode_attention(q, k, v, mask)` →
//!   `matmul(softmax(add(div(matmul(q, transpose(k)), √D), mask)), v)`
//!   — the encoder MHA chain at query length 1, so the existing
//!   softmax/matmul lowering (and int8 legalization) applies unchanged;
//! - `batchnorm_inference(x, γ, β, μ, σ²)` → `add(mul(x, s), t)` with
//!   `s = γ/√(σ²+ε)`, `t = β − μ·s` computed at compile time (inference
//!   stats are compile-time constants).

use crate::error::{GraphError, Result};
use crate::graph::Graph;
use crate::op::{BinaryKind, OpKind, ReduceKind, UnaryKind};
use crate::passes::Pass;
use gc_tensor::Tensor;

/// The complex-op decomposition pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Decompose;

impl Pass for Decompose {
    fn name(&self) -> &'static str {
        "decompose"
    }

    fn run(&self, g: &mut Graph) -> Result<bool> {
        let mut changed = false;
        // Iterate over a snapshot of ids: rewrites append new ops.
        let ids: Vec<_> = g.live_ops().collect();
        for id in ids {
            let op = g.op(id).clone();
            match op.kind {
                OpKind::Softmax => {
                    let x = op.inputs[0];
                    let out = op.outputs[0];
                    let mx = g.add_op(OpKind::Reduce(ReduceKind::Max), &[x])?;
                    let sh = g.add_op(OpKind::Binary(BinaryKind::Sub), &[x, mx])?;
                    let ex = g.add_op(OpKind::Unary(UnaryKind::Exp), &[sh])?;
                    let sm = g.add_op(OpKind::Reduce(ReduceKind::Sum), &[ex])?;
                    let dv = g.add_op(OpKind::Binary(BinaryKind::Div), &[ex, sm])?;
                    g.replace_uses(out, dv);
                    g.kill_op(id);
                    changed = true;
                }
                OpKind::DecodeAttention => {
                    let [q, k, v, mask] = [op.inputs[0], op.inputs[1], op.inputs[2], op.inputs[3]];
                    let head_dim = *g.desc(q).shape().last().expect("rank-3 query") as f32;
                    let scale = g.add_constant(Tensor::scalar_f32(head_dim.sqrt()), "sqrt_d");
                    let kt = g.add_op(OpKind::Transpose, &[k])?;
                    let scores = g.add_op(OpKind::MatMul, &[q, kt])?;
                    let scaled = g.add_op(OpKind::Binary(BinaryKind::Div), &[scores, scale])?;
                    let masked = g.add_op(OpKind::Binary(BinaryKind::Add), &[scaled, mask])?;
                    // Softmax is itself complex; the pass manager runs
                    // decomposition to fixpoint, so it expands on the
                    // next iteration.
                    let probs = g.add_op(OpKind::Softmax, &[masked])?;
                    let out = g.add_op(OpKind::MatMul, &[probs, v])?;
                    g.replace_uses(op.outputs[0], out);
                    g.kill_op(id);
                    changed = true;
                }
                OpKind::BiasAdd => {
                    let add = g.add_op(
                        OpKind::Binary(BinaryKind::Add),
                        &[op.inputs[0], op.inputs[1]],
                    )?;
                    g.replace_uses(op.outputs[0], add);
                    g.kill_op(id);
                    changed = true;
                }
                OpKind::BatchNormInference { epsilon } => {
                    let [x, gamma, beta, mean, var] = [
                        op.inputs[0],
                        op.inputs[1],
                        op.inputs[2],
                        op.inputs[3],
                        op.inputs[4],
                    ];
                    let (gv, bv, mv, vv) = match (
                        g.const_value(gamma),
                        g.const_value(beta),
                        g.const_value(mean),
                        g.const_value(var),
                    ) {
                        (Some(a), Some(b), Some(c), Some(d)) => {
                            (a.clone(), b.clone(), c.clone(), d.clone())
                        }
                        _ => {
                            return Err(GraphError::Pass {
                                pass: "decompose".to_string(),
                                message: "batchnorm inference requires constant statistics"
                                    .to_string(),
                            })
                        }
                    };
                    let gs = gv.f32_slice()?;
                    let bs = bv.f32_slice()?;
                    let ms = mv.f32_slice()?;
                    let vs = vv.f32_slice()?;
                    let scale: Vec<f32> = gs
                        .iter()
                        .zip(vs)
                        .map(|(&gm, &v)| gm / (v + epsilon).sqrt())
                        .collect();
                    let shift: Vec<f32> = bs
                        .iter()
                        .zip(ms.iter().zip(&scale))
                        .map(|(&b, (&m, &s))| b - m * s)
                        .collect();
                    let c = scale.len();
                    let s_id = g.add_constant(Tensor::from_vec_f32(&[c], scale)?, "bn_scale");
                    let t_id = g.add_constant(Tensor::from_vec_f32(&[c], shift)?, "bn_shift");
                    let mul = g.add_op(OpKind::Binary(BinaryKind::Mul), &[x, s_id])?;
                    let add = g.add_op(OpKind::Binary(BinaryKind::Add), &[mul, t_id])?;
                    g.replace_uses(op.outputs[0], add);
                    g.kill_op(id);
                    changed = true;
                }
                _ => {}
            }
        }
        Ok(changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpCategory;
    use gc_tensor::{DataType, TensorDesc};

    #[test]
    fn softmax_decomposes_to_basic_ops() {
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([2, 4], DataType::F32), "x");
        let y = g.add_op(OpKind::Softmax, &[x]).unwrap();
        g.mark_output(y);
        assert!(Decompose.run(&mut g).unwrap());
        g.validate().unwrap();
        for id in g.live_ops() {
            assert_ne!(g.op(id).kind.category(), OpCategory::Complex);
        }
        assert_eq!(g.live_ops().count(), 5);
        // graph output now points at the div
        let out = g.outputs()[0];
        let p = g.producer(out).unwrap();
        assert_eq!(g.op(p).kind, OpKind::Binary(BinaryKind::Div));
    }

    #[test]
    fn decomposed_softmax_matches_reference() {
        use gc_tensor::reference;
        // Evaluate the decomposed chain by hand on a small tensor.
        let t = Tensor::random(&[3, 5], DataType::F32, 42);
        let mx = reference::reduce_last_axis(reference::ReduceKind::Max, &t).unwrap();
        let sh = reference::binary(reference::BinaryKind::Sub, &t, &mx).unwrap();
        let ex = reference::exp(&sh).unwrap();
        let sm = reference::reduce_last_axis(reference::ReduceKind::Sum, &ex).unwrap();
        let dv = reference::binary(reference::BinaryKind::Div, &ex, &sm).unwrap();
        let want = reference::softmax_last_axis(&t).unwrap();
        assert!(dv.allclose(&want, 1e-6));
    }

    #[test]
    fn bias_add_becomes_binary() {
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([2, 4], DataType::F32), "x");
        let b = g.add_constant(Tensor::random(&[4], DataType::F32, 1), "b");
        let y = g.add_op(OpKind::BiasAdd, &[x, b]).unwrap();
        g.mark_output(y);
        assert!(Decompose.run(&mut g).unwrap());
        let out = g.outputs()[0];
        assert_eq!(
            g.op(g.producer(out).unwrap()).kind,
            OpKind::Binary(BinaryKind::Add)
        );
    }

    #[test]
    fn batchnorm_folds_to_scale_shift() {
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([2, 3], DataType::F32), "x");
        let gamma = g.add_constant(
            Tensor::from_vec_f32(&[3], vec![1.0, 2.0, 3.0]).unwrap(),
            "g",
        );
        let beta = g.add_constant(
            Tensor::from_vec_f32(&[3], vec![0.5, 0.0, -0.5]).unwrap(),
            "b",
        );
        let mean = g.add_constant(
            Tensor::from_vec_f32(&[3], vec![0.1, 0.2, 0.3]).unwrap(),
            "m",
        );
        let var = g.add_constant(
            Tensor::from_vec_f32(&[3], vec![1.0, 1.0, 4.0]).unwrap(),
            "v",
        );
        let y = g
            .add_op(
                OpKind::BatchNormInference { epsilon: 0.0 },
                &[x, gamma, beta, mean, var],
            )
            .unwrap();
        g.mark_output(y);
        assert!(Decompose.run(&mut g).unwrap());
        g.validate().unwrap();
        // mul then add
        let out = g.outputs()[0];
        let add = g.producer(out).unwrap();
        assert_eq!(g.op(add).kind, OpKind::Binary(BinaryKind::Add));
        // check folded scale: gamma / sqrt(var) = [1, 2, 1.5]
        let mul = g.producer(g.op(add).inputs[0]).unwrap();
        let s_id = g.op(mul).inputs[1];
        let s = g.const_value(s_id).unwrap().f32_slice().unwrap().to_vec();
        assert_eq!(s, vec![1.0, 2.0, 1.5]);
    }

    #[test]
    fn batchnorm_without_constants_errors() {
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([2, 3], DataType::F32), "x");
        let v = g.add_input(TensorDesc::new([3], DataType::F32), "stats");
        let y = g
            .add_op(
                OpKind::BatchNormInference { epsilon: 1e-5 },
                &[x, v, v, v, v],
            )
            .unwrap();
        g.mark_output(y);
        assert!(Decompose.run(&mut g).is_err());
    }

    #[test]
    fn idempotent_on_basic_graphs() {
        let mut g = Graph::new();
        let x = g.add_input(TensorDesc::new([2, 4], DataType::F32), "x");
        let y = g.add_op(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        g.mark_output(y);
        assert!(!Decompose.run(&mut g).unwrap());
    }
}
