//! Hermetic workload inputs: graph builders, seeded weights and inputs,
//! and the naive oracle for each graph.
//!
//! Everything here is built on the public `gc-graph` / `gc-tensor` API
//! only — deliberately not on `gc_bench::workloads` — so an edit under
//! `crates/bench` can never change what a benchmark workload computes.
//! All values derive from the run's `--seed`; [`InputHash`] fingerprints
//! them so two runs can prove they measured the same inputs.
//!
//! Value ranges are chosen so the correctness gate means something:
//! f32 weights are He-scaled (activations stay O(1), no overflow to
//! compare against), and every int8 scale is a power of two, which makes
//! the whole quantized chain exact in f32 arithmetic — the int8 oracle
//! below must match the compiled output bit for bit, whatever order the
//! compiler evaluates the epilogue in.

use gc_graph::{BinaryKind, Graph, OpKind, UnaryKind};
use gc_tensor::quant::{quantize_u8, weight_compensation};
use gc_tensor::reference as r;
use gc_tensor::reorder::transpose_last2;
use gc_tensor::{DataType, QuantParams, Tensor, TensorDesc};

/// MLP_1 of the paper's Table 1 (DLRM bottom MLP).
pub const MLP1_LAYERS: [usize; 4] = [13, 512, 256, 128];
/// MLP_2 of the paper's Table 1 (DLRM top MLP).
pub const MLP2_LAYERS: [usize; 6] = [479, 1024, 1024, 512, 256, 1];
/// MHA_1 of Table 1: sequence length.
pub const MHA1_SEQ: usize = 128;
/// MHA_1: hidden size.
pub const MHA1_HIDDEN: usize = 768;
/// MHA_1: attention heads.
pub const MHA1_HEADS: usize = 8;
/// Decode workload: heads per session.
pub const DECODE_HEADS: usize = 4;
/// Decode workload: head dimension.
pub const DECODE_HEAD_DIM: usize = 64;

/// Additive mask value for padded MHA key positions. Finite, so the
/// softmax chain never forms `inf - inf`.
const MHA_MASKED: f32 = -1.0e4;

/// splitmix64: tiny, seedable, and good enough to fill tensors.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, tag)`; distinct tags give independent
    /// streams under one run seed.
    pub fn new(seed: u64, tag: u64) -> Rng {
        let mut r = Rng(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)` with 24 bits of mantissa.
    pub fn unit(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32) * (2.0 / (1u64 << 24) as f32) - 1.0
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// FNV-1a over every weight and input byte a workload uses.
#[derive(Debug, Clone, Copy)]
pub struct InputHash(u64);

impl Default for InputHash {
    fn default() -> Self {
        InputHash(0xcbf2_9ce4_8422_2325)
    }
}

impl InputHash {
    fn bytes(&mut self, bs: impl Iterator<Item = u8>) {
        for b in bs {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold a tensor's element bytes in.
    pub fn tensor(&mut self, t: &Tensor) {
        if let Ok(v) = t.f32_slice() {
            self.bytes(v.iter().flat_map(|x| x.to_le_bytes()));
        } else if let Ok(v) = t.u8_slice() {
            self.bytes(v.iter().copied());
        } else if let Ok(v) = t.i8_slice() {
            self.bytes(v.iter().map(|&x| x as u8));
        } else {
            panic!("benchmark inputs are f32, u8 or i8");
        }
    }

    /// The 64-bit digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

fn f32_tensor(shape: &[usize], rng: &mut Rng, scale: f32) -> Tensor {
    let n: usize = shape.iter().product();
    let data = (0..n).map(|_| rng.unit() * scale).collect();
    Tensor::from_vec_f32(shape, data).expect("shape matches generated data")
}

/// One `(1, batch, n, k)` matmul per `[k, n]` weight of an MLP.
fn mlp_matmuls(weights: &[Tensor], batch: usize) -> Vec<(usize, usize, usize, usize)> {
    weights
        .iter()
        .map(|w| (1, batch, w.desc().shape()[1], w.desc().shape()[0]))
        .collect()
}

// ---------------------------------------------------------------- MLP f32

/// Seeded weights and a small ring of input batches for an f32 MLP.
#[derive(Debug, Clone)]
pub struct MlpF32 {
    /// Rows per input batch.
    pub batch: usize,
    /// `[k, n]` weight per layer.
    pub weights: Vec<Tensor>,
    /// Input batches `[batch, layers[0]]`, cycled by the op loop.
    pub inputs: Vec<Tensor>,
}

impl MlpF32 {
    /// Generate weights (He-uniform) and `ring` input batches.
    pub fn generate(layers: &[usize], batch: usize, ring: usize, seed: u64) -> MlpF32 {
        let weights = layers
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let bound = (6.0 / w[0] as f32).sqrt();
                f32_tensor(&[w[0], w[1]], &mut Rng::new(seed, 100 + i as u64), bound)
            })
            .collect();
        let inputs = (0..ring)
            .map(|i| {
                f32_tensor(
                    &[batch, layers[0]],
                    &mut Rng::new(seed, 200 + i as u64),
                    1.0,
                )
            })
            .collect();
        MlpF32 {
            batch,
            weights,
            inputs,
        }
    }

    /// `x -> [matmul -> relu]*`, last layer linear, at `batch` rows.
    pub fn graph(&self, batch: usize) -> Graph {
        let mut g = Graph::new();
        let k0 = self.weights[0].desc().shape()[0];
        let mut cur = g.add_input(TensorDesc::new([batch, k0], DataType::F32), "x");
        let last = self.weights.len() - 1;
        for (i, w) in self.weights.iter().enumerate() {
            let wt = g.add_constant(w.clone(), &format!("w{i}"));
            cur = g.add_op(OpKind::MatMul, &[cur, wt]).expect("matmul");
            if i < last {
                cur = g
                    .add_op(OpKind::Unary(UnaryKind::Relu), &[cur])
                    .expect("relu");
            }
        }
        g.mark_output(cur);
        g
    }

    /// Naive evaluation of the same chain.
    pub fn oracle(&self, x: &Tensor) -> Tensor {
        let last = self.weights.len() - 1;
        let mut cur = x.clone();
        for (i, w) in self.weights.iter().enumerate() {
            cur = r::matmul_f32(&cur, w).expect("oracle matmul");
            if i < last {
                cur = r::relu(&cur).expect("oracle relu");
            }
        }
        cur
    }

    /// Matmul problems `(batch, m, n, k)` one execution performs.
    pub fn matmuls(&self, batch: usize) -> Vec<(usize, usize, usize, usize)> {
        mlp_matmuls(&self.weights, batch)
    }

    /// Fold weights and inputs into `h`.
    pub fn hash_into(&self, h: &mut InputHash) {
        self.weights
            .iter()
            .chain(&self.inputs)
            .for_each(|t| h.tensor(t));
    }
}

// --------------------------------------------------------------- MLP int8

/// Seeded quantized MLP: u8 activations, i8 weights, power-of-two scales.
#[derive(Debug, Clone)]
pub struct MlpInt8 {
    /// Rows per input batch.
    pub batch: usize,
    /// `[k, n]` i8 weight per layer.
    pub weights: Vec<Tensor>,
    /// Symmetric weight scale per layer.
    pub weight_scales: Vec<f32>,
    /// Quantization of the input and every hidden activation.
    pub act: QuantParams,
    /// Quantization of the final output.
    pub out: QuantParams,
    /// u8 input batches `[batch, layers[0]]`.
    pub inputs: Vec<Tensor>,
}

impl MlpInt8 {
    /// Generate weights in `[-32, 32]` with a per-layer scale of about
    /// `1 / (16 sqrt(k))` rounded to a power of two, which keeps hidden
    /// activations inside the u8 range instead of saturating it.
    pub fn generate(layers: &[usize], batch: usize, ring: usize, seed: u64) -> MlpInt8 {
        let mut weights = Vec::new();
        let mut weight_scales = Vec::new();
        for (i, w) in layers.windows(2).enumerate() {
            let mut rng = Rng::new(seed, 300 + i as u64);
            let data = (0..w[0] * w[1]).map(|_| rng.below(65) as i8 - 32).collect();
            weights.push(Tensor::from_vec_i8(&[w[0], w[1]], data).expect("i8 weight"));
            let denom = ((16.0 * (w[0] as f64).sqrt()) as usize).next_power_of_two();
            weight_scales.push(1.0 / denom as f32);
        }
        let inputs = (0..ring)
            .map(|i| {
                let mut rng = Rng::new(seed, 400 + i as u64);
                let data = (0..batch * layers[0])
                    .map(|_| 8 + rng.below(128) as u8)
                    .collect();
                Tensor::from_vec_u8(&[batch, layers[0]], data).expect("u8 input")
            })
            .collect();
        MlpInt8 {
            batch,
            weights,
            weight_scales,
            act: QuantParams::new(1.0 / 64.0, 8),
            out: QuantParams::new(1.0 / 32.0, 128),
            inputs,
        }
    }

    fn out_params(&self, layer: usize) -> QuantParams {
        if layer + 1 < self.weights.len() {
            self.act
        } else {
            self.out
        }
    }

    /// The framework-style quantized chain the low-precision pass
    /// rewrites: `quantize(relu(dequant(a) x dequant(w)))` per layer.
    pub fn graph(&self, batch: usize) -> Graph {
        let mut g = Graph::new();
        let k0 = self.weights[0].desc().shape()[0];
        let mut cur = g.add_input(TensorDesc::new([batch, k0], DataType::U8), "x_q");
        let last = self.weights.len() - 1;
        for (i, w) in self.weights.iter().enumerate() {
            let wt = g.add_constant(w.clone(), &format!("w{i}_q"));
            let a_f = g
                .add_op(OpKind::Dequantize { params: self.act }, &[cur])
                .expect("dequantize activation");
            let w_f = g
                .add_op(
                    OpKind::Dequantize {
                        params: QuantParams::symmetric(self.weight_scales[i]),
                    },
                    &[wt],
                )
                .expect("dequantize weight");
            let mut y = g.add_op(OpKind::MatMul, &[a_f, w_f]).expect("matmul");
            if i < last {
                y = g
                    .add_op(OpKind::Unary(UnaryKind::Relu), &[y])
                    .expect("relu");
            }
            cur = g
                .add_op(
                    OpKind::Quantize {
                        dtype: DataType::U8,
                        params: self.out_params(i),
                    },
                    &[y],
                )
                .expect("quantize");
        }
        g.mark_output(cur);
        g
    }

    /// Integer oracle: raw u8×i8 accumulation, zero-point compensation,
    /// power-of-two rescale, relu, requantize. Exact, so the compiled
    /// output must equal it bit for bit.
    pub fn oracle(&self, x: &Tensor) -> Tensor {
        let last = self.weights.len() - 1;
        let mut cur = x.clone();
        for (i, w) in self.weights.iter().enumerate() {
            let (k, n) = (w.desc().shape()[0], w.desc().shape()[1]);
            let acc = r::matmul_u8i8_i32(&cur, w).expect("oracle int8 matmul");
            let comp = weight_compensation(w.i8_slice().expect("i8"), k, n);
            let scale = self.act.scale * self.weight_scales[i];
            let out_q = self.out_params(i);
            let rows = cur.desc().shape()[0];
            let data = acc
                .i32_slice()
                .expect("i32 accumulator")
                .iter()
                .enumerate()
                .map(|(j, &a)| {
                    let mut real = (a - self.act.zero_point * comp[j % n]) as f32 * scale;
                    if i < last {
                        real = real.max(0.0);
                    }
                    quantize_u8(real, out_q)
                })
                .collect();
            cur = Tensor::from_vec_u8(&[rows, n], data).expect("oracle activation");
        }
        cur
    }

    /// Matmul problems `(batch, m, n, k)` one execution performs.
    pub fn matmuls(&self, batch: usize) -> Vec<(usize, usize, usize, usize)> {
        mlp_matmuls(&self.weights, batch)
    }

    /// Fold weights and inputs into `h`.
    pub fn hash_into(&self, h: &mut InputHash) {
        self.weights
            .iter()
            .chain(&self.inputs)
            .for_each(|t| h.tensor(t));
    }
}

// ---------------------------------------------------------------- MHA f32

/// One `(q, k, v, mask)` input set of the attention subgraph.
pub type MhaInputs = [Tensor; 4];

/// Seeded inputs for the scaled-dot-product-attention subgraph.
#[derive(Debug, Clone)]
pub struct MhaF32 {
    /// `batch * heads`.
    pub bh: usize,
    /// Sequence length.
    pub seq: usize,
    /// Head dimension.
    pub head_dim: usize,
    /// Input sets, cycled by the op loop.
    pub inputs: Vec<MhaInputs>,
}

impl MhaF32 {
    /// Generate `ring` input sets. Each sequence gets a seeded valid
    /// length in `[seq/2, seq]`; key positions past it are masked.
    pub fn generate(
        batch: usize,
        seq: usize,
        hidden: usize,
        heads: usize,
        ring: usize,
        seed: u64,
    ) -> MhaF32 {
        let head_dim = hidden / heads;
        let bh = batch * heads;
        let inputs = (0..ring as u64)
            .map(|i| {
                let mut rng = Rng::new(seed, 500 + i);
                let qkv = [bh, seq, head_dim];
                let q = f32_tensor(&qkv, &mut rng, 1.0);
                let k = f32_tensor(&qkv, &mut rng, 1.0);
                let v = f32_tensor(&qkv, &mut rng, 1.0);
                let mut mask = vec![0f32; bh * seq];
                for b in 0..batch {
                    let valid = seq / 2 + rng.below(seq as u64 / 2 + 1) as usize;
                    for h in 0..heads {
                        let row = (b * heads + h) * seq;
                        mask[row + valid..row + seq].fill(MHA_MASKED);
                    }
                }
                let mask = Tensor::from_vec_f32(&[bh, 1, seq], mask).expect("mask");
                [q, k, v, mask]
            })
            .collect();
        MhaF32 {
            bh,
            seq,
            head_dim,
            inputs,
        }
    }

    /// `softmax(Q K^T / sqrt(d) + mask) V`.
    pub fn graph(&self) -> Graph {
        let mut g = Graph::new();
        let qkv = TensorDesc::new([self.bh, self.seq, self.head_dim], DataType::F32);
        let q = g.add_input(qkv.clone(), "q");
        let k = g.add_input(qkv.clone(), "k");
        let v = g.add_input(qkv, "v");
        let mask = g.add_input(
            TensorDesc::new([self.bh, 1, self.seq], DataType::F32),
            "mask",
        );
        let scale = g.add_constant(Tensor::scalar_f32((self.head_dim as f32).sqrt()), "sqrt_d");
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
        g
    }

    /// Naive evaluation of the same chain.
    pub fn oracle(&self, inputs: &MhaInputs) -> Tensor {
        attention_oracle(&inputs[0], &inputs[1], &inputs[2], Some(&inputs[3]))
    }

    /// Matmul problems `(batch, m, n, k)` one execution performs.
    pub fn matmuls(&self) -> Vec<(usize, usize, usize, usize)> {
        vec![
            (self.bh, self.seq, self.seq, self.head_dim),
            (self.bh, self.seq, self.head_dim, self.seq),
        ]
    }

    /// Fold every input set into `h`.
    pub fn hash_into(&self, h: &mut InputHash) {
        self.inputs.iter().flatten().for_each(|t| h.tensor(t));
    }
}

/// `softmax(q k^T / sqrt(d) [+ mask]) v` with the naive reference ops.
fn attention_oracle(q: &Tensor, k: &Tensor, v: &Tensor, mask: Option<&Tensor>) -> Tensor {
    let d = *q.desc().shape().last().expect("rank-3 q") as f32;
    let kt = transpose_last2(k).expect("oracle transpose");
    let scores = r::matmul_f32(q, &kt).expect("oracle qk");
    let s = d.sqrt();
    let scaled: Vec<f32> = scores
        .f32_slice()
        .expect("f32 scores")
        .iter()
        .map(|&x| x / s)
        .collect();
    let mut logits = Tensor::from_vec_f32(scores.desc().shape(), scaled).expect("scaled");
    if let Some(m) = mask {
        logits = r::binary(r::BinaryKind::Add, &logits, m).expect("oracle mask");
    }
    let probs = r::softmax_last_axis(&logits).expect("oracle softmax");
    r::matmul_f32(&probs, v).expect("oracle pv")
}

// ----------------------------------------------------------------- decode

/// Seeded token streams for the KV-cache decode workload: every session
/// of a set replays its own `(q, k, v)` row per step.
#[derive(Debug, Clone)]
pub struct DecodeF32 {
    /// Sessions decoding side by side.
    pub sessions: usize,
    /// `rows[session][step]` = `(q, k, v)`, each `[heads, 1, head_dim]`.
    pub rows: Vec<Vec<[Tensor; 3]>>,
}

impl DecodeF32 {
    /// Generate `sessions x steps` token rows.
    pub fn generate(sessions: usize, steps: usize, seed: u64) -> DecodeF32 {
        let shape = [DECODE_HEADS, 1, DECODE_HEAD_DIM];
        let rows = (0..sessions as u64)
            .map(|s| {
                let mut rng = Rng::new(seed, 600 + s);
                (0..steps)
                    .map(|_| {
                        [
                            f32_tensor(&shape, &mut rng, 1.0),
                            f32_tensor(&shape, &mut rng, 1.0),
                            f32_tensor(&shape, &mut rng, 1.0),
                        ]
                    })
                    .collect()
            })
            .collect();
        DecodeF32 { sessions, rows }
    }

    /// The per-step template `gc_serve::DecodeModel::load` expects:
    /// one `DecodeAttention` over `q [rows,1,d]`, `k_cache`/`v_cache`
    /// `[rows,cap,d]` and `mask [rows,1,cap]`.
    pub fn template(rows: usize, cap: usize) -> Graph {
        let d = DECODE_HEAD_DIM;
        let mut g = Graph::new();
        let q = g.add_input(TensorDesc::new([rows, 1, d], DataType::F32), "q");
        let k = g.add_input(TensorDesc::new([rows, cap, d], DataType::F32), "k_cache");
        let v = g.add_input(TensorDesc::new([rows, cap, d], DataType::F32), "v_cache");
        let mask = g.add_input(TensorDesc::new([rows, 1, cap], DataType::F32), "mask");
        let out = g
            .add_op(OpKind::DecodeAttention, &[q, k, v, mask])
            .expect("decode_attention");
        g.mark_output(out);
        g
    }

    /// Expected output `[heads * head_dim]` of every `(session, step)`:
    /// full attention of the step's query over the session's prefix.
    pub fn oracle(&self) -> Vec<Vec<Vec<f32>>> {
        let (h, d) = (DECODE_HEADS, DECODE_HEAD_DIM);
        self.rows
            .iter()
            .map(|steps| {
                // caches as [heads, t, d], grown one position per step
                let mut kc = vec![Vec::<f32>::new(); h];
                let mut vc = vec![Vec::<f32>::new(); h];
                steps
                    .iter()
                    .enumerate()
                    .map(|(t, [q, k, v])| {
                        let (ks, vs) = (k.f32_slice().expect("k"), v.f32_slice().expect("v"));
                        for head in 0..h {
                            kc[head].extend_from_slice(&ks[head * d..(head + 1) * d]);
                            vc[head].extend_from_slice(&vs[head * d..(head + 1) * d]);
                        }
                        let len = t + 1;
                        let kt = Tensor::from_vec_f32(&[h, len, d], kc.concat()).expect("k prefix");
                        let vt = Tensor::from_vec_f32(&[h, len, d], vc.concat()).expect("v prefix");
                        attention_oracle(q, &kt, &vt, None)
                            .f32_slice()
                            .expect("f32 out")
                            .to_vec()
                    })
                    .collect()
            })
            .collect()
    }

    /// A `(q, k_cache, v_cache, mask)` batch as the scheduler gathers it
    /// for a full-occupancy step with every slot of capacity bucket `cap`
    /// valid (so the mask is all zeros), filled from `seed`.
    pub fn gathered_step(sessions: usize, cap: usize, seed: u64) -> [Tensor; 4] {
        let (rows, d) = (sessions * DECODE_HEADS, DECODE_HEAD_DIM);
        let mut rng = Rng::new(seed, 700);
        [
            f32_tensor(&[rows, 1, d], &mut rng, 1.0),
            f32_tensor(&[rows, cap, d], &mut rng, 1.0),
            f32_tensor(&[rows, cap, d], &mut rng, 1.0),
            Tensor::zeros(&[rows, 1, cap], DataType::F32),
        ]
    }

    /// Naive evaluation of a gathered step.
    pub fn gathered_oracle(step: &[Tensor; 4]) -> Tensor {
        attention_oracle(&step[0], &step[1], &step[2], Some(&step[3]))
    }

    /// Matmul problems of one full-occupancy step at capacity `cap`.
    pub fn matmuls(&self, cap: usize) -> Vec<(usize, usize, usize, usize)> {
        let rows = self.sessions * DECODE_HEADS;
        vec![
            (rows, 1, cap, DECODE_HEAD_DIM),
            (rows, 1, DECODE_HEAD_DIM, cap),
        ]
    }

    /// Fold every token row into `h`.
    pub fn hash_into(&self, h: &mut InputHash) {
        self.rows
            .iter()
            .flatten()
            .flatten()
            .for_each(|t| h.tensor(t));
    }
}

// ------------------------------------------------------------- comparison

/// Outcome of comparing one output against its oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Mismatch {
    /// Largest `|got - want|` over all elements.
    pub max_abs_err: f64,
    /// Elements further apart than the tolerance.
    pub mismatched: usize,
}

impl Mismatch {
    /// Whether every element was within tolerance.
    pub fn ok(&self) -> bool {
        self.mismatched == 0
    }

    /// Fold another comparison in.
    pub fn merge(&mut self, other: Mismatch) {
        self.max_abs_err = self.max_abs_err.max(other.max_abs_err);
        self.mismatched += other.mismatched;
    }
}

/// Compare f32 element streams with an absolute tolerance. A length
/// difference or a NaN counts every element as mismatched.
pub fn compare_f32(got: &[f32], want: &[f32], tol: f32) -> Mismatch {
    if got.len() != want.len() {
        return Mismatch {
            max_abs_err: f64::INFINITY,
            mismatched: want.len().max(got.len()),
        };
    }
    let mut m = Mismatch::default();
    for (&g, &w) in got.iter().zip(want) {
        let err = (g - w).abs();
        if err.is_nan() {
            m.mismatched += 1;
            m.max_abs_err = f64::INFINITY;
        } else {
            m.mismatched += usize::from(err > tol);
            m.max_abs_err = m.max_abs_err.max(f64::from(err));
        }
    }
    m
}

/// Compare an output tensor (any rank, f32 or u8) with its oracle;
/// u8 outputs must match exactly (`tol` is ignored).
pub fn compare_tensor(got: &Tensor, want: &Tensor, tol: f32) -> Mismatch {
    match (got.f32_slice(), want.f32_slice()) {
        (Ok(g), Ok(w)) => compare_f32(g, w, tol),
        _ => match (got.u8_slice(), want.u8_slice()) {
            (Ok(g), Ok(w)) if g.len() == w.len() => {
                let mut m = Mismatch::default();
                for (&g, &w) in g.iter().zip(w) {
                    let err = (i32::from(g) - i32::from(w)).abs();
                    m.mismatched += usize::from(err != 0);
                    m.max_abs_err = m.max_abs_err.max(f64::from(err));
                }
                m
            }
            _ => Mismatch {
                max_abs_err: f64::INFINITY,
                mismatched: want.desc().volume().max(1),
            },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(seed: u64) -> u64 {
        let mut h = InputHash::default();
        MlpF32::generate(&MLP1_LAYERS, 2, 2, seed).hash_into(&mut h);
        MlpInt8::generate(&[13, 32, 8], 4, 1, seed).hash_into(&mut h);
        MhaF32::generate(1, 8, 16, 2, 1, seed).hash_into(&mut h);
        DecodeF32::generate(2, 3, seed).hash_into(&mut h);
        h.finish()
    }

    #[test]
    fn input_hash_repeats_per_seed_and_differs_across_seeds() {
        assert_eq!(hash_of(7), hash_of(7));
        assert_ne!(hash_of(7), hash_of(8));
    }

    #[test]
    fn graphs_validate_with_table1_shapes() {
        let mlp = MlpF32::generate(&MLP2_LAYERS, 128, 1, 1);
        let g = mlp.graph(128);
        g.validate().unwrap();
        assert_eq!(g.desc(g.outputs()[0]).shape(), &[128, 1]);
        let q = MlpInt8::generate(&MLP2_LAYERS, 128, 1, 1);
        let g = q.graph(128);
        g.validate().unwrap();
        assert_eq!(g.desc(g.outputs()[0]).dtype(), DataType::U8);
        let mha = MhaF32::generate(4, MHA1_SEQ, MHA1_HIDDEN, MHA1_HEADS, 1, 1);
        let g = mha.graph();
        g.validate().unwrap();
        assert_eq!(g.desc(g.outputs()[0]).shape(), &[32, 128, 96]);
        DecodeF32::template(64, 16).validate().unwrap();
    }

    #[test]
    fn int8_activations_do_not_saturate() {
        let q = MlpInt8::generate(&MLP2_LAYERS, 16, 1, 3);
        // first hidden layer only: enough to show the scales are sane
        let one = MlpInt8 {
            weights: q.weights[..2].to_vec(),
            weight_scales: q.weight_scales[..2].to_vec(),
            ..q.clone()
        };
        let out = one.oracle(&one.inputs[0]);
        let v = out.u8_slice().unwrap();
        let saturated = v.iter().filter(|&&x| x == 255).count();
        let distinct: std::collections::BTreeSet<u8> = v.iter().copied().collect();
        assert!(
            saturated * 10 < v.len(),
            "{saturated} of {} saturated",
            v.len()
        );
        assert!(
            distinct.len() > 32,
            "only {} distinct values",
            distinct.len()
        );
    }

    #[test]
    fn compare_flags_nan_length_and_tolerance() {
        assert!(compare_f32(&[1.0, 2.0], &[1.0, 2.0005], 1e-3).ok());
        assert_eq!(compare_f32(&[1.0, 2.0], &[1.0, 2.1], 1e-3).mismatched, 1);
        assert!(!compare_f32(&[f32::NAN], &[0.0], 1e-3).ok());
        assert!(!compare_f32(&[1.0], &[1.0, 2.0], 1e-3).ok());
        let a = Tensor::from_vec_u8(&[2], vec![3, 4]).unwrap();
        let b = Tensor::from_vec_u8(&[2], vec![3, 5]).unwrap();
        assert_eq!(compare_tensor(&a, &b, 9.0).mismatched, 1);
    }
}
