//! Shape/dtype inference for Graph IR ops.

use crate::error::{GraphError, Result};
use crate::op::OpKind;
use gc_tensor::{DataType, TensorDesc};

fn err(op: &OpKind, message: impl Into<String>) -> GraphError {
    GraphError::ShapeInference {
        op: op.mnemonic().to_string(),
        message: message.into(),
    }
}

/// Infer the output descriptor of `kind` applied to `inputs`.
///
/// # Errors
///
/// Returns [`GraphError::ShapeInference`] when input arity, shapes or
/// dtypes are invalid for the op.
pub fn infer_output(kind: &OpKind, inputs: &[&TensorDesc]) -> Result<TensorDesc> {
    match kind {
        OpKind::MatMul => {
            let [a, b] = two(kind, inputs)?;
            matmul_shape(kind, a, b, DataType::F32, a.dtype())
        }
        OpKind::QuantizedMatMul { out_params, .. } => {
            let [a, b] = two(kind, inputs)?;
            if a.dtype() != DataType::U8 || b.dtype() != DataType::I8 {
                return Err(err(kind, "expects u8 activations and i8 weights"));
            }
            let out_dt = if out_params.is_some() {
                DataType::U8
            } else {
                DataType::F32
            };
            matmul_shape(kind, a, b, out_dt, DataType::U8)
        }
        OpKind::Unary(_) => {
            let [x] = one(kind, inputs)?;
            require_f32(kind, x)?;
            Ok(TensorDesc::new(x.shape(), DataType::F32))
        }
        OpKind::Binary(_) => {
            let [a, b] = two(kind, inputs)?;
            require_f32(kind, a)?;
            require_f32(kind, b)?;
            // right-aligned broadcast of b onto a
            let (sa, sb) = (a.shape(), b.shape());
            if sb.len() > sa.len() {
                return Err(err(
                    kind,
                    format!("rhs rank {} > lhs rank {}", sb.len(), sa.len()),
                ));
            }
            let off = sa.len() - sb.len();
            for (i, &db) in sb.iter().enumerate() {
                if db != sa[off + i] && db != 1 {
                    return Err(err(kind, format!("cannot broadcast {sb:?} onto {sa:?}")));
                }
            }
            Ok(TensorDesc::new(sa, DataType::F32))
        }
        OpKind::Reduce(_) => {
            let [x] = one(kind, inputs)?;
            require_f32(kind, x)?;
            if x.rank() == 0 {
                return Err(err(kind, "cannot reduce a scalar"));
            }
            let mut shape = x.shape().to_vec();
            *shape.last_mut().unwrap() = 1;
            Ok(TensorDesc::new(shape, DataType::F32))
        }
        OpKind::Reorder { target } => {
            let [x] = one(kind, inputs)?;
            TensorDesc::with_layout(x.shape(), x.dtype(), target.clone()).map_err(Into::into)
        }
        OpKind::Transpose => {
            let [x] = one(kind, inputs)?;
            if x.rank() < 2 {
                return Err(err(kind, "transpose needs rank >= 2"));
            }
            let mut shape = x.shape().to_vec();
            let r = shape.len();
            shape.swap(r - 2, r - 1);
            Ok(TensorDesc::new(shape, x.dtype()))
        }
        OpKind::Quantize { dtype, .. } => {
            let [x] = one(kind, inputs)?;
            require_f32(kind, x)?;
            if !dtype.is_quantized_int() {
                return Err(err(kind, "target must be u8 or i8"));
            }
            Ok(TensorDesc::new(x.shape(), *dtype))
        }
        OpKind::Dequantize { .. } => {
            let [x] = one(kind, inputs)?;
            if !x.dtype().is_quantized_int() {
                return Err(err(kind, "input must be u8 or i8"));
            }
            Ok(TensorDesc::new(x.shape(), DataType::F32))
        }
        OpKind::TypeCast { to } => {
            let [x] = one(kind, inputs)?;
            Ok(TensorDesc::new(x.shape(), *to))
        }
        OpKind::Softmax => {
            let [x] = one(kind, inputs)?;
            require_f32(kind, x)?;
            if x.rank() == 0 {
                return Err(err(kind, "softmax needs rank >= 1"));
            }
            Ok(TensorDesc::new(x.shape(), DataType::F32))
        }
        OpKind::DecodeAttention => {
            let [q, k, v, mask] = n::<4>(kind, inputs)?;
            for d in [q, k, v, mask] {
                require_f32(kind, d)?;
            }
            let (sq, sk, sv, sm) = (q.shape(), k.shape(), v.shape(), mask.shape());
            if sq.len() != 3 || sk.len() != 3 {
                return Err(err(
                    kind,
                    "expects rank-3 [B, 1, D] query over [B, C, D] cache",
                ));
            }
            let (b, cap, dim) = (sk[0], sk[1], sk[2]);
            if sq != [b, 1, dim] {
                return Err(err(
                    kind,
                    format!("query {sq:?} must be [{b}, 1, {dim}] for k cache {sk:?}"),
                ));
            }
            if sv != sk {
                return Err(err(
                    kind,
                    format!("v cache {sv:?} must match k cache {sk:?}"),
                ));
            }
            if sm != [b, 1, cap] {
                return Err(err(
                    kind,
                    format!("mask {sm:?} must be [{b}, 1, {cap}] for k cache {sk:?}"),
                ));
            }
            Ok(TensorDesc::new(sq, DataType::F32))
        }
        OpKind::BatchNormInference { .. } => {
            let descs = n::<5>(kind, inputs)?;
            let x = descs[0];
            require_f32(kind, x)?;
            let c = *x.shape().last().ok_or_else(|| err(kind, "rank >= 1"))?;
            for d in &descs[1..] {
                if d.shape() != [c] {
                    return Err(err(kind, "stats must have shape [C]"));
                }
            }
            Ok(TensorDesc::new(x.shape(), DataType::F32))
        }
        OpKind::BiasAdd => {
            let [x, b] = two(kind, inputs)?;
            require_f32(kind, x)?;
            require_f32(kind, b)?;
            let c = *x.shape().last().ok_or_else(|| err(kind, "rank >= 1"))?;
            if b.shape() != [c] {
                return Err(err(kind, "bias must have shape [C]"));
            }
            Ok(TensorDesc::new(x.shape(), DataType::F32))
        }
    }
}

fn matmul_shape(
    kind: &OpKind,
    a: &TensorDesc,
    b: &TensorDesc,
    out_dt: DataType,
    expect_a: DataType,
) -> Result<TensorDesc> {
    if a.dtype() != expect_a {
        return Err(err(kind, format!("lhs must be {expect_a}")));
    }
    let (sa, sb) = (a.shape(), b.shape());
    if sa.len() < 2 || sa.len() != sb.len() {
        return Err(err(kind, "operands must share rank >= 2"));
    }
    let r = sa.len();
    if sa[r - 1] != sb[r - 2] || sa[..r - 2] != sb[..r - 2] {
        return Err(err(kind, format!("incompatible shapes {sa:?} x {sb:?}")));
    }
    let mut shape = sa.to_vec();
    shape[r - 1] = sb[r - 1];
    Ok(TensorDesc::new(shape, out_dt))
}

fn require_f32(kind: &OpKind, d: &TensorDesc) -> Result<()> {
    if d.dtype() == DataType::F32 {
        Ok(())
    } else {
        Err(err(kind, format!("expects f32, got {}", d.dtype())))
    }
}

fn one<'a>(kind: &OpKind, inputs: &[&'a TensorDesc]) -> Result<[&'a TensorDesc; 1]> {
    match inputs {
        [a] => Ok([a]),
        _ => Err(err(kind, format!("expects 1 input, got {}", inputs.len()))),
    }
}

fn two<'a>(kind: &OpKind, inputs: &[&'a TensorDesc]) -> Result<[&'a TensorDesc; 2]> {
    match inputs {
        [a, b] => Ok([a, b]),
        _ => Err(err(kind, format!("expects 2 inputs, got {}", inputs.len()))),
    }
}

fn n<'a, const N: usize>(kind: &OpKind, inputs: &[&'a TensorDesc]) -> Result<[&'a TensorDesc; N]> {
    <[&TensorDesc; N]>::try_from(inputs.to_vec())
        .map_err(|_| err(kind, format!("expects {N} inputs, got {}", inputs.len())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{BinaryKind, ReduceKind, UnaryKind};
    use gc_tensor::QuantParams;

    fn d(shape: &[usize], dt: DataType) -> TensorDesc {
        TensorDesc::new(shape, dt)
    }

    #[test]
    fn matmul_basic_and_batched() {
        let a = d(&[4, 8], DataType::F32);
        let b = d(&[8, 3], DataType::F32);
        let o = infer_output(&OpKind::MatMul, &[&a, &b]).unwrap();
        assert_eq!(o.shape(), &[4, 3]);

        let a = d(&[2, 4, 8], DataType::F32);
        let b = d(&[2, 8, 3], DataType::F32);
        let o = infer_output(&OpKind::MatMul, &[&a, &b]).unwrap();
        assert_eq!(o.shape(), &[2, 4, 3]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = d(&[4, 8], DataType::F32);
        let b = d(&[7, 3], DataType::F32);
        assert!(infer_output(&OpKind::MatMul, &[&a, &b]).is_err());
        let b = d(&[8], DataType::F32);
        assert!(infer_output(&OpKind::MatMul, &[&a, &b]).is_err());
    }

    #[test]
    fn qmatmul_types() {
        let a = d(&[4, 8], DataType::U8);
        let b = d(&[8, 3], DataType::I8);
        let k = OpKind::QuantizedMatMul {
            a_params: QuantParams::new(0.1, 3),
            b_scale: 0.2,
            out_params: Some(QuantParams::new(0.3, 0)),
        };
        let o = infer_output(&k, &[&a, &b]).unwrap();
        assert_eq!(o.dtype(), DataType::U8);
        let k2 = OpKind::QuantizedMatMul {
            a_params: QuantParams::new(0.1, 3),
            b_scale: 0.2,
            out_params: None,
        };
        let o2 = infer_output(&k2, &[&a, &b]).unwrap();
        assert_eq!(o2.dtype(), DataType::F32);
        // f32 activations rejected
        let af = d(&[4, 8], DataType::F32);
        assert!(infer_output(&k2, &[&af, &b]).is_err());
    }

    #[test]
    fn unary_preserves_shape() {
        let x = d(&[3, 5], DataType::F32);
        let o = infer_output(&OpKind::Unary(UnaryKind::Relu), &[&x]).unwrap();
        assert_eq!(o.shape(), &[3, 5]);
        let xi = d(&[3], DataType::I8);
        assert!(infer_output(&OpKind::Unary(UnaryKind::Relu), &[&xi]).is_err());
    }

    #[test]
    fn binary_broadcast_rules() {
        let a = d(&[2, 3], DataType::F32);
        let row = d(&[3], DataType::F32);
        let keep = d(&[2, 1], DataType::F32);
        let bad = d(&[2], DataType::F32);
        assert!(infer_output(&OpKind::Binary(BinaryKind::Add), &[&a, &row]).is_ok());
        assert!(infer_output(&OpKind::Binary(BinaryKind::Add), &[&a, &keep]).is_ok());
        assert!(infer_output(&OpKind::Binary(BinaryKind::Add), &[&a, &bad]).is_err());
    }

    #[test]
    fn reduce_keeps_dim() {
        let x = d(&[4, 7], DataType::F32);
        let o = infer_output(&OpKind::Reduce(ReduceKind::Max), &[&x]).unwrap();
        assert_eq!(o.shape(), &[4, 1]);
    }

    #[test]
    fn quant_dequant() {
        let x = d(&[4], DataType::F32);
        let q = infer_output(
            &OpKind::Quantize {
                dtype: DataType::U8,
                params: QuantParams::default(),
            },
            &[&x],
        )
        .unwrap();
        assert_eq!(q.dtype(), DataType::U8);
        let dq = infer_output(
            &OpKind::Dequantize {
                params: QuantParams::default(),
            },
            &[&q],
        )
        .unwrap();
        assert_eq!(dq.dtype(), DataType::F32);
        // quantize to f32 is invalid
        assert!(infer_output(
            &OpKind::Quantize {
                dtype: DataType::F32,
                params: QuantParams::default()
            },
            &[&x]
        )
        .is_err());
    }

    #[test]
    fn transpose_swaps() {
        let x = d(&[2, 3, 4], DataType::F32);
        let o = infer_output(&OpKind::Transpose, &[&x]).unwrap();
        assert_eq!(o.shape(), &[2, 4, 3]);
    }

    #[test]
    fn batchnorm_and_bias() {
        let x = d(&[8, 16], DataType::F32);
        let c = d(&[16], DataType::F32);
        let o = infer_output(
            &OpKind::BatchNormInference { epsilon: 1e-5 },
            &[&x, &c, &c, &c, &c],
        )
        .unwrap();
        assert_eq!(o.shape(), &[8, 16]);
        let o = infer_output(&OpKind::BiasAdd, &[&x, &c]).unwrap();
        assert_eq!(o.shape(), &[8, 16]);
        let wrong = d(&[15], DataType::F32);
        assert!(infer_output(&OpKind::BiasAdd, &[&x, &wrong]).is_err());
    }

    #[test]
    fn arity_errors() {
        let x = d(&[2], DataType::F32);
        assert!(infer_output(&OpKind::MatMul, &[&x]).is_err());
        assert!(infer_output(&OpKind::Softmax, &[&x, &x]).is_err());
    }
}
