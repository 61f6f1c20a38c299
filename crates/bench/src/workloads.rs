//! Workload generators for the paper's evaluation (Table 1).
//!
//! | Workload | dtype      | batch sizes           | seq | hidden sizes            | heads |
//! |----------|------------|-----------------------|-----|-------------------------|-------|
//! | MLP_1    | Int8, FP32 | 32..512               | –   | 13×512×256×128          | –     |
//! | MLP_2    | Int8, FP32 | 32..512               | –   | 479×1024×1024×512×256×1 | –     |
//! | MHA_1    | Int8, FP32 | 32, 64, 128           | 128 | 768                     | 8     |
//! | MHA_2    | Int8, FP32 | 32, 64, 128           | 128 | 768                     | 12    |
//! | MHA_3    | Int8, FP32 | 32, 64, 128           | 384 | 1024                    | 8     |
//! | MHA_4    | Int8, FP32 | 32, 64, 128           | 512 | 1024                    | 16    |
//!
//! MLP weights come from the MLPerf DLRM model; MHA shapes from BERT.

use gc_graph::{BinaryKind, Graph, LtId, OpKind, UnaryKind};
use gc_tensor::{DataType, QuantParams, Tensor, TensorDesc};

/// Numeric precision of a workload instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 32-bit float.
    F32,
    /// Asymmetric u8 activations × symmetric i8 weights.
    Int8,
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Precision::F32 => f.write_str("fp32"),
            Precision::Int8 => f.write_str("int8"),
        }
    }
}

/// The MLP hidden-layer progressions of Table 1.
pub fn mlp1_layers() -> Vec<usize> {
    vec![13, 512, 256, 128]
}

/// MLP_2's layer sizes.
pub fn mlp2_layers() -> Vec<usize> {
    vec![479, 1024, 1024, 512, 256, 1]
}

/// Table 1 MLP batch sizes.
pub fn mlp_batch_sizes() -> Vec<usize> {
    vec![32, 64, 128, 256, 512]
}

/// Table 1 MHA batch sizes.
pub fn mha_batch_sizes() -> Vec<usize> {
    vec![32, 64, 128]
}

/// One MHA configuration from Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MhaConfig {
    /// Workload name ("MHA_1"..).
    pub name: &'static str,
    /// Sequence length.
    pub seq: usize,
    /// Hidden size.
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
}

/// The four MHA configurations of Table 1.
pub fn mha_configs() -> Vec<MhaConfig> {
    vec![
        MhaConfig {
            name: "MHA_1",
            seq: 128,
            hidden: 768,
            heads: 8,
        },
        MhaConfig {
            name: "MHA_2",
            seq: 128,
            hidden: 768,
            heads: 12,
        },
        MhaConfig {
            name: "MHA_3",
            seq: 384,
            hidden: 1024,
            heads: 8,
        },
        MhaConfig {
            name: "MHA_4",
            seq: 512,
            hidden: 1024,
            heads: 16,
        },
    ]
}

/// Build an f32 MLP graph: `x -> [matmul -> relu]*` over `layers`
/// feature sizes (`layers[0]` is the input feature count). The final
/// layer is linear (no relu), matching DLRM's top MLP.
///
/// Returns the graph; input is `[batch, layers[0]]`.
pub fn mlp_f32(batch: usize, layers: &[usize], seed: u64) -> Graph {
    let mut g = Graph::new();
    let mut cur = g.add_input(TensorDesc::new([batch, layers[0]], DataType::F32), "x");
    for (i, w) in layers.windows(2).enumerate() {
        let (k, n) = (w[0], w[1]);
        let weight = g.add_constant(
            Tensor::random(&[k, n], DataType::F32, seed + i as u64),
            &format!("w{i}"),
        );
        let mm = g.add_op(OpKind::MatMul, &[cur, weight]).expect("matmul");
        cur = if i + 2 < layers.len() {
            g.add_op(OpKind::Unary(UnaryKind::Relu), &[mm])
                .expect("relu")
        } else {
            mm
        };
    }
    g.mark_output(cur);
    g
}

/// Quantization parameters used by the int8 workloads.
pub fn default_qparams() -> (QuantParams, f32, QuantParams) {
    (
        QuantParams::new(0.02, 8),  // activations (asymmetric)
        0.05,                       // weight scale (symmetric)
        QuantParams::new(0.04, 12), // outputs
    )
}

/// Build the framework-style *quantized* MLP graph: u8 input, each layer
/// `quantize(relu(dequant(a) x dequant(w)))`, exactly the pattern the
/// low-precision conversion pass rewrites to int8 matmuls.
pub fn mlp_int8(batch: usize, layers: &[usize], seed: u64) -> Graph {
    let (a_q, w_s, out_q) = default_qparams();
    let mut g = Graph::new();
    let mut cur = g.add_input(TensorDesc::new([batch, layers[0]], DataType::U8), "x_q");
    let n_layers = layers.len() - 1;
    for (i, w) in layers.windows(2).enumerate() {
        let (k, n) = (w[0], w[1]);
        let weight = g.add_constant(
            Tensor::random(&[k, n], DataType::I8, seed + i as u64),
            &format!("w{i}_q"),
        );
        let a_f = g
            .add_op(OpKind::Dequantize { params: a_q }, &[cur])
            .expect("dq a");
        let w_f = g
            .add_op(
                OpKind::Dequantize {
                    params: QuantParams::symmetric(w_s),
                },
                &[weight],
            )
            .expect("dq w");
        let mm = g.add_op(OpKind::MatMul, &[a_f, w_f]).expect("matmul");
        let act = if i + 1 < n_layers {
            g.add_op(OpKind::Unary(UnaryKind::Relu), &[mm])
                .expect("relu")
        } else {
            mm
        };
        cur = g
            .add_op(
                OpKind::Quantize {
                    dtype: DataType::U8,
                    // chain uses the activation params so the next
                    // layer's dequantize matches
                    params: if i + 1 < n_layers { a_q } else { out_q },
                },
                &[act],
            )
            .expect("quantize");
    }
    g.mark_output(cur);
    g
}

/// Build the MHA scaled-dot-product-attention subgraph (f32):
///
/// ```text
/// scores = softmax(Q x K^T / sqrt(d) + mask)
/// out    = scores x V
/// ```
///
/// Inputs: `Q`, `K`, `V` of `[batch*heads, seq, head_dim]` and a mask of
/// `[batch*heads, 1, seq]` (broadcast over query rows). Returns the
/// graph and the head dimension.
pub fn mha_f32(batch: usize, cfg: &MhaConfig) -> (Graph, usize) {
    let head_dim = cfg.hidden / cfg.heads;
    let bh = batch * cfg.heads;
    let mut g = Graph::new();
    let q = g.add_input(TensorDesc::new([bh, cfg.seq, head_dim], DataType::F32), "q");
    let k = g.add_input(TensorDesc::new([bh, cfg.seq, head_dim], DataType::F32), "k");
    let v = g.add_input(TensorDesc::new([bh, cfg.seq, head_dim], DataType::F32), "v");
    let mask = g.add_input(TensorDesc::new([bh, 1, cfg.seq], DataType::F32), "mask");
    let scale = g.add_constant(Tensor::scalar_f32((head_dim as f32).sqrt()), "sqrt_d");

    let kt = g.add_op(OpKind::Transpose, &[k]).expect("k^t");
    let scores = g.add_op(OpKind::MatMul, &[q, kt]).expect("qk");
    let scaled = g
        .add_op(OpKind::Binary(BinaryKind::Div), &[scores, scale])
        .expect("scale");
    let masked = g
        .add_op(OpKind::Binary(BinaryKind::Add), &[scaled, mask])
        .expect("mask");
    let probs = g.add_op(OpKind::Softmax, &[masked]).expect("softmax");
    let out = g.add_op(OpKind::MatMul, &[probs, v]).expect("pv");
    g.mark_output(out);
    (g, head_dim)
}

/// Int8 MHA: quantized Q/K (dequantized before the first batch matmul),
/// f32 softmax, quantized probs × quantized V for the second matmul.
/// This mirrors the evaluation's int8 MHA where both batch matmuls run
/// in int8 and the softmax stays in f32.
pub fn mha_int8(batch: usize, cfg: &MhaConfig) -> (Graph, usize) {
    let head_dim = cfg.hidden / cfg.heads;
    let bh = batch * cfg.heads;
    let (a_q, w_s, _) = default_qparams();
    let p_q = QuantParams::new(1.0 / 255.0, 0); // probs in [0,1]
    let mut g = Graph::new();
    let q = g.add_input(
        TensorDesc::new([bh, cfg.seq, head_dim], DataType::U8),
        "q_q",
    );
    let k = g.add_input(
        TensorDesc::new([bh, cfg.seq, head_dim], DataType::I8),
        "k_q",
    );
    let v = g.add_input(
        TensorDesc::new([bh, cfg.seq, head_dim], DataType::I8),
        "v_q",
    );
    let mask = g.add_input(TensorDesc::new([bh, 1, cfg.seq], DataType::F32), "mask");
    let scale = g.add_constant(Tensor::scalar_f32((head_dim as f32).sqrt()), "sqrt_d");

    let q_f = g.add_op(OpKind::Dequantize { params: a_q }, &[q]).unwrap();
    let k_f = g
        .add_op(
            OpKind::Dequantize {
                params: QuantParams::symmetric(w_s),
            },
            &[k],
        )
        .unwrap();
    let kt = g.add_op(OpKind::Transpose, &[k_f]).unwrap();
    let scores = g.add_op(OpKind::MatMul, &[q_f, kt]).unwrap();
    let scaled = g
        .add_op(OpKind::Binary(BinaryKind::Div), &[scores, scale])
        .unwrap();
    let masked = g
        .add_op(OpKind::Binary(BinaryKind::Add), &[scaled, mask])
        .unwrap();
    let probs = g.add_op(OpKind::Softmax, &[masked]).unwrap();
    let probs_q = g
        .add_op(
            OpKind::Quantize {
                dtype: DataType::U8,
                params: p_q,
            },
            &[probs],
        )
        .unwrap();
    let p_f = g
        .add_op(OpKind::Dequantize { params: p_q }, &[probs_q])
        .unwrap();
    let v_f = g
        .add_op(
            OpKind::Dequantize {
                params: QuantParams::symmetric(w_s),
            },
            &[v],
        )
        .unwrap();
    let out = g.add_op(OpKind::MatMul, &[p_f, v_f]).unwrap();
    g.mark_output(out);
    (g, head_dim)
}

/// Build a one-op f32 decode-attention graph: one masked decode step of
/// `rows` independent heads against KV caches of capacity `cap`.
///
/// Inputs, in the order gc-serve's decode scheduler expects:
/// `q [rows, 1, head_dim]`, `k_cache [rows, cap, head_dim]`,
/// `v_cache [rows, cap, head_dim]`, `mask [rows, 1, cap]`.
pub fn decode_f32(rows: usize, cap: usize, head_dim: usize) -> Graph {
    let mut g = Graph::new();
    let q = g.add_input(TensorDesc::new([rows, 1, head_dim], DataType::F32), "q");
    let k = g.add_input(
        TensorDesc::new([rows, cap, head_dim], DataType::F32),
        "k_cache",
    );
    let v = g.add_input(
        TensorDesc::new([rows, cap, head_dim], DataType::F32),
        "v_cache",
    );
    let mask = g.add_input(TensorDesc::new([rows, 1, cap], DataType::F32), "mask");
    let out = g
        .add_op(OpKind::DecodeAttention, &[q, k, v, mask])
        .expect("decode_attention");
    g.mark_output(out);
    g
}

/// Int8 decode step: the [`mha_int8`] chain at query length 1. Built
/// pre-decomposed (dequantize → transpose → matmul → … → quantized
/// probs × V) so the low-precision pass legalizes both matmuls to int8,
/// exactly as it does for the encoder workload. Caches are stored
/// quantized (`k_cache`/`v_cache` i8, `q` u8); the mask stays f32.
pub fn decode_int8(rows: usize, cap: usize, head_dim: usize) -> Graph {
    let (a_q, w_s, _) = default_qparams();
    let p_q = QuantParams::new(1.0 / 255.0, 0); // probs in [0,1]
    let mut g = Graph::new();
    let q = g.add_input(TensorDesc::new([rows, 1, head_dim], DataType::U8), "q_q");
    let k = g.add_input(
        TensorDesc::new([rows, cap, head_dim], DataType::I8),
        "k_cache",
    );
    let v = g.add_input(
        TensorDesc::new([rows, cap, head_dim], DataType::I8),
        "v_cache",
    );
    let mask = g.add_input(TensorDesc::new([rows, 1, cap], DataType::F32), "mask");
    let scale = g.add_constant(Tensor::scalar_f32((head_dim as f32).sqrt()), "sqrt_d");

    let q_f = g.add_op(OpKind::Dequantize { params: a_q }, &[q]).unwrap();
    let k_f = g
        .add_op(
            OpKind::Dequantize {
                params: QuantParams::symmetric(w_s),
            },
            &[k],
        )
        .unwrap();
    let kt = g.add_op(OpKind::Transpose, &[k_f]).unwrap();
    let scores = g.add_op(OpKind::MatMul, &[q_f, kt]).unwrap();
    let scaled = g
        .add_op(OpKind::Binary(BinaryKind::Div), &[scores, scale])
        .unwrap();
    let masked = g
        .add_op(OpKind::Binary(BinaryKind::Add), &[scaled, mask])
        .unwrap();
    let probs = g.add_op(OpKind::Softmax, &[masked]).unwrap();
    let probs_q = g
        .add_op(
            OpKind::Quantize {
                dtype: DataType::U8,
                params: p_q,
            },
            &[probs],
        )
        .unwrap();
    let p_f = g
        .add_op(OpKind::Dequantize { params: p_q }, &[probs_q])
        .unwrap();
    let v_f = g
        .add_op(
            OpKind::Dequantize {
                params: QuantParams::symmetric(w_s),
            },
            &[v],
        )
        .unwrap();
    let out = g.add_op(OpKind::MatMul, &[p_f, v_f]).unwrap();
    g.mark_output(out);
    g
}

/// Random input tensors matching a graph's inputs (deterministic).
pub fn random_inputs(g: &Graph, seed: u64) -> Vec<Tensor> {
    g.inputs()
        .iter()
        .enumerate()
        .map(|(i, &lt)| {
            let d = g.desc(lt);
            Tensor::random(d.shape(), d.dtype(), seed + i as u64)
        })
        .collect()
}

/// Identify a single matmul problem: returns (name, m, n, k) rows for
/// every individual layer of both MLP workloads at every batch size —
/// the Figure 7 test set.
pub fn fig7_problems() -> Vec<(String, usize, usize, usize)> {
    let mut out = Vec::new();
    for batch in mlp_batch_sizes() {
        for (wl, layers) in [("MLP_1", mlp1_layers()), ("MLP_2", mlp2_layers())] {
            for w in layers.windows(2) {
                out.push((
                    format!("{wl} b{batch} {}x{}x{}", batch, w[1], w[0]),
                    batch,
                    w[1],
                    w[0],
                ));
            }
        }
    }
    out
}

/// A single-matmul graph for Figure 7 (optionally int8).
pub fn single_matmul(m: usize, n: usize, k: usize, precision: Precision, seed: u64) -> Graph {
    match precision {
        Precision::F32 => {
            let mut g = Graph::new();
            let x = g.add_input(TensorDesc::new([m, k], DataType::F32), "x");
            let w = g.add_constant(Tensor::random(&[k, n], DataType::F32, seed), "w");
            let y = g.add_op(OpKind::MatMul, &[x, w]).unwrap();
            g.mark_output(y);
            g
        }
        Precision::Int8 => {
            let (a_q, w_s, out_q) = default_qparams();
            let mut g = Graph::new();
            let x = g.add_input(TensorDesc::new([m, k], DataType::U8), "x_q");
            let w = g.add_constant(Tensor::random(&[k, n], DataType::I8, seed), "w_q");
            let a_f = g.add_op(OpKind::Dequantize { params: a_q }, &[x]).unwrap();
            let w_f = g
                .add_op(
                    OpKind::Dequantize {
                        params: QuantParams::symmetric(w_s),
                    },
                    &[w],
                )
                .unwrap();
            let mm = g.add_op(OpKind::MatMul, &[a_f, w_f]).unwrap();
            let q = g
                .add_op(
                    OpKind::Quantize {
                        dtype: DataType::U8,
                        params: out_q,
                    },
                    &[mm],
                )
                .unwrap();
            g.mark_output(q);
            g
        }
    }
}

/// Reference (oracle) evaluation of any graph built by this module,
/// using the naive implementations. Slow; for correctness tests.
pub fn reference_eval(g: &Graph, inputs: &[Tensor]) -> Vec<Tensor> {
    use gc_tensor::reference as r;
    let mut values: std::collections::HashMap<LtId, Tensor> = std::collections::HashMap::new();
    for (i, &lt) in g.inputs().iter().enumerate() {
        values.insert(lt, inputs[i].clone());
    }
    // constants
    for id in g.live_ops() {
        for &inp in &g.op(id).inputs {
            if let Some(v) = g.const_value(inp) {
                values.insert(inp, v.clone());
            }
        }
    }
    let order = g.topo_order().expect("acyclic");
    for id in order {
        let op = g.op(id).clone();
        let ins: Vec<Tensor> = op.inputs.iter().map(|i| values[i].clone()).collect();
        let out = match &op.kind {
            OpKind::MatMul => r::matmul_f32(&ins[0], &ins[1]).unwrap(),
            OpKind::QuantizedMatMul { .. } => panic!("reference eval runs pre-conversion graphs"),
            OpKind::Unary(UnaryKind::Relu) => r::relu(&ins[0]).unwrap(),
            OpKind::Unary(UnaryKind::Gelu) => r::gelu(&ins[0]).unwrap(),
            OpKind::Unary(UnaryKind::Sigmoid) => r::sigmoid(&ins[0]).unwrap(),
            OpKind::Unary(UnaryKind::Tanh) => r::tanh(&ins[0]).unwrap(),
            OpKind::Unary(UnaryKind::Exp) => r::exp(&ins[0]).unwrap(),
            OpKind::Unary(UnaryKind::Square) => {
                r::binary(r::BinaryKind::Mul, &ins[0], &ins[0]).unwrap()
            }
            OpKind::Unary(UnaryKind::Neg) => {
                let v: Vec<f32> = ins[0].f32_slice().unwrap().iter().map(|x| -x).collect();
                Tensor::from_vec_f32(ins[0].desc().shape(), v).unwrap()
            }
            OpKind::Unary(UnaryKind::Identity) => ins[0].clone(),
            OpKind::Binary(bk) => {
                let k = match bk {
                    BinaryKind::Add => r::BinaryKind::Add,
                    BinaryKind::Sub => r::BinaryKind::Sub,
                    BinaryKind::Mul => r::BinaryKind::Mul,
                    BinaryKind::Div => r::BinaryKind::Div,
                    BinaryKind::Max => r::BinaryKind::Max,
                    BinaryKind::Min => r::BinaryKind::Min,
                };
                // rank-0 rhs: scalar broadcast
                if ins[1].desc().rank() == 0 {
                    let s = ins[1].f32_slice().unwrap()[0];
                    let v: Vec<f32> = ins[0]
                        .f32_slice()
                        .unwrap()
                        .iter()
                        .map(|&x| match k {
                            r::BinaryKind::Add => x + s,
                            r::BinaryKind::Sub => x - s,
                            r::BinaryKind::Mul => x * s,
                            r::BinaryKind::Div => x / s,
                            r::BinaryKind::Max => x.max(s),
                            r::BinaryKind::Min => x.min(s),
                        })
                        .collect();
                    Tensor::from_vec_f32(ins[0].desc().shape(), v).unwrap()
                } else {
                    r::binary(k, &ins[0], &ins[1]).unwrap()
                }
            }
            OpKind::Reduce(gc_graph::ReduceKind::Sum) => {
                r::reduce_last_axis(r::ReduceKind::Sum, &ins[0]).unwrap()
            }
            OpKind::Reduce(gc_graph::ReduceKind::Max) => {
                r::reduce_last_axis(r::ReduceKind::Max, &ins[0]).unwrap()
            }
            OpKind::Softmax => r::softmax_last_axis(&ins[0]).unwrap(),
            OpKind::Transpose => gc_tensor::reorder::transpose_last2(&ins[0]).unwrap(),
            OpKind::Quantize { dtype, params } => r::quantize(&ins[0], *dtype, *params).unwrap(),
            OpKind::Dequantize { params } => r::dequantize(&ins[0], *params).unwrap(),
            OpKind::Reorder { target } => {
                gc_tensor::reorder::reorder(&ins[0], target.clone()).unwrap()
            }
            OpKind::BiasAdd => r::bias_add(&ins[0], &ins[1]).unwrap(),
            OpKind::DecodeAttention => {
                let head_dim = *ins[0].desc().shape().last().unwrap() as f32;
                let kt = gc_tensor::reorder::transpose_last2(&ins[1]).unwrap();
                let scores = r::matmul_f32(&ins[0], &kt).unwrap();
                let s = head_dim.sqrt();
                let scaled = Tensor::from_vec_f32(
                    scores.desc().shape(),
                    scores.f32_slice().unwrap().iter().map(|&x| x / s).collect(),
                )
                .unwrap();
                let masked = r::binary(r::BinaryKind::Add, &scaled, &ins[3]).unwrap();
                let probs = r::softmax_last_axis(&masked).unwrap();
                r::matmul_f32(&probs, &ins[2]).unwrap()
            }
            other => panic!("reference eval: unsupported {other}"),
        };
        values.insert(op.outputs[0], out);
    }
    g.outputs().iter().map(|o| values[o].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shapes() {
        assert_eq!(mlp1_layers(), vec![13, 512, 256, 128]);
        assert_eq!(mlp2_layers().len(), 6);
        assert_eq!(mha_configs().len(), 4);
        assert_eq!(fig7_problems().len(), 5 * (3 + 5));
    }

    #[test]
    fn mlp_graph_builds_and_validates() {
        let g = mlp_f32(32, &mlp1_layers(), 0);
        g.validate().unwrap();
        assert_eq!(g.live_ops().count(), 3 + 2); // 3 matmuls + 2 relus
        let out = g.outputs()[0];
        assert_eq!(g.desc(out).shape(), &[32, 128]);
    }

    #[test]
    fn mlp_int8_graph_builds() {
        let g = mlp_int8(32, &mlp1_layers(), 0);
        g.validate().unwrap();
        let out = g.outputs()[0];
        assert_eq!(g.desc(out).dtype(), DataType::U8);
    }

    #[test]
    fn mha_graph_builds() {
        let (g, d) = mha_f32(2, &mha_configs()[0]);
        g.validate().unwrap();
        assert_eq!(d, 96);
        let out = g.outputs()[0];
        assert_eq!(g.desc(out).shape(), &[16, 128, 96]);
    }

    #[test]
    fn reference_eval_softmax_consistency() {
        let (g, _) = mha_f32(
            1,
            &MhaConfig {
                name: "t",
                seq: 8,
                hidden: 32,
                heads: 4,
            },
        );
        let inputs = random_inputs(&g, 3);
        let outs = reference_eval(&g, &inputs);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].desc().shape(), &[4, 8, 8]);
    }

    #[test]
    fn random_inputs_match_descs() {
        let g = mlp_int8(16, &[13, 32], 0);
        let ins = random_inputs(&g, 0);
        assert_eq!(ins.len(), 1);
        assert_eq!(ins[0].desc().dtype(), DataType::U8);
    }
}
