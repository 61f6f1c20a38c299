//! Differential test matrix over the ISA dispatch layer: every kernel
//! family × every CPU-supported backend × aligned and ragged/tail
//! shapes, compared against the scalar backend. f32 families must agree
//! within 1e-5 relative error (FMA contraction and lane-width reduction
//! order differ per backend); integer families must be bit-exact.

use gc_microkernel::arch::{kernels, Isa, Kernels};
use gc_microkernel::brgemm::{self, BrgemmShape};
use gc_microkernel::{RowChain, UnaryOp};

/// Every backend the running CPU can execute, scalar first.
fn available() -> Vec<Isa> {
    [Isa::Scalar, Isa::Avx2, Isa::Avx512]
        .into_iter()
        .filter(|isa| isa.supported())
        .collect()
}

/// xorshift-based deterministic fill in [-1, 1).
fn fill_f32(seed: u64, n: usize) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
        })
        .collect()
}

fn fill_u8(seed: u64, n: usize) -> Vec<u8> {
    fill_f32(seed, n)
        .into_iter()
        .map(|x| ((x * 0.5 + 0.5) * 255.0) as u8)
        .collect()
}

fn fill_i8(seed: u64, n: usize) -> Vec<i8> {
    fill_f32(seed, n)
        .into_iter()
        .map(|x| (x * 127.0) as i8)
        .collect()
}

fn assert_close(got: &[f32], want: &[f32], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let tol = 1e-5f32.max(w.abs() * 1e-5);
        assert!(
            (g - w).abs() <= tol,
            "{ctx}: element {i}: {g} vs {w} (tol {tol})"
        );
    }
}

/// (m, n, k) tile shapes: SIMD-aligned and ragged/tail-heavy. k values
/// cover multiples of every backend's step (8/16/64) plus primes that
/// leave remainders at each width.
const GEMM_SHAPES: &[(usize, usize, usize)] = &[
    // aligned
    (8, 16, 64),
    (4, 8, 128),
    (16, 4, 64),
    // ragged m/n, aligned k
    (5, 7, 64),
    (3, 1, 16),
    (1, 3, 128),
    // ragged k
    (8, 16, 13),
    (5, 7, 17),
    (6, 5, 63),
    (2, 2, 67),
    (7, 9, 479),
    (1, 1, 1),
];

fn gemm_f32_all(k: &Kernels, m: usize, n: usize, kk: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut c = fill_f32(99, m * n); // nonzero init exercises accumulation
    k.gemm_f32(m, n, kk, a, b, &mut c);
    c
}

#[test]
fn brgemm_f32_matrix() {
    for isa in available() {
        let kern = kernels(isa);
        let base = kernels(Isa::Scalar);
        for &(m, n, k) in GEMM_SHAPES {
            let a = fill_f32(m as u64 * 31 + k as u64, m * k);
            let b = fill_f32(n as u64 * 17 + k as u64, n * k);
            let got = gemm_f32_all(&kern, m, n, k, &a, &b);
            let want = gemm_f32_all(&base, m, n, k, &a, &b);
            assert_close(&got, &want, &format!("gemm_f32 {isa} {m}x{n}x{k}"));
        }
    }
}

#[test]
fn brgemm_f32_tail_matches_full_prefix_per_isa() {
    // Within one backend, an m-tail result must equal the full tile's
    // row prefix *bit-exactly* (per-row reduction order is independent
    // of the register-block height).
    for isa in available() {
        let kern = kernels(isa);
        let (m, n, k) = (8usize, 6usize, 53usize);
        let a = fill_f32(5, m * k);
        let b = fill_f32(6, n * k);
        let mut full = vec![0f32; m * n];
        kern.gemm_f32(m, n, k, &a, &b, &mut full);
        for m_valid in [1usize, 2, 3, 5, 7, 8] {
            let mut tail = vec![0f32; m_valid * n];
            kern.gemm_f32(m_valid, n, k, &a[..m_valid * k], &b, &mut tail);
            assert_eq!(tail, full[..m_valid * n], "{isa} m_valid={m_valid}");
        }
    }
}

#[test]
fn brgemm_u8i8_matrix_bit_exact() {
    for isa in available() {
        let kern = kernels(isa);
        let base = kernels(Isa::Scalar);
        for &(m, n, k) in GEMM_SHAPES {
            let a = fill_u8(m as u64 * 13 + k as u64, m * k);
            let b = fill_i8(n as u64 * 7 + k as u64, n * k);
            let mut got = vec![3i32; m * n];
            let mut want = vec![3i32; m * n];
            kern.gemm_u8i8(m, n, k, &a, &b, &mut got);
            base.gemm_u8i8(m, n, k, &a, &b, &mut want);
            assert_eq!(got, want, "gemm_u8i8 {isa} {m}x{n}x{k}");
        }
    }
}

// ---- the batch-reduce body -------------------------------------------

/// Batch sizes and reduction extents of the batch matrix: `k` on both
/// sides of every backend's vector step (8 / 16 lanes, 4 / 16 / 64
/// bytes) and the prime Table-1 `k`.
const BATCHES: &[usize] = &[1, 2, 8];
const KS: &[usize] = &[1, 3, 13, 16, 31, 32, 33, 63, 64, 65, 479];
/// `(m, n)` around the register blocks (`MR` 2/3/4, `NR` 4): whole
/// blocks, one short, one over.
const BLOCK_EDGES: &[(usize, usize)] = &[
    (1, 1),
    (2, 3),
    (3, 4),
    (4, 5),
    (5, 7),
    (7, 9),
    (8, 8),
    (9, 6),
];

/// Tile starts for a batch drawn from three slots `tile + 3` apart, in
/// the order 2, 1, 0, 2, 1, ...: repeated, non-monotone, unaligned, and
/// slot 2 ends exactly at `pool_len(tile)`.
fn batch_offsets(bs: usize, tile: usize) -> Vec<usize> {
    (0..bs).map(|i| ((i * 5 + 2) % 3) * (tile + 3)).collect()
}

fn pool_len(tile: usize) -> usize {
    2 * (tile + 3) + tile
}

/// `data` followed by 64 poison elements. Tests hand the kernels the
/// `data.len()` prefix only, so a tile can end exactly at the end of its
/// slice while a remainder step that reads past it picks up poison (NaN,
/// or ints whose products are far from zero) instead of whatever the
/// allocator left there.
fn poisoned<T: Copy>(data: Vec<T>, poison: T) -> Vec<T> {
    let mut v = data;
    v.extend([poison; 64]);
    v
}

/// One batch-reduce problem with its operand pools (poison past the
/// live prefix) and offset tables.
struct BatchCase<A, B> {
    shape: BrgemmShape,
    a: Vec<A>,
    b: Vec<B>,
    a_offs: Vec<usize>,
    b_offs: Vec<usize>,
}

impl<A, B> BatchCase<A, B> {
    fn a(&self) -> &[A] {
        &self.a[..self.a.len() - 64]
    }
    fn b(&self) -> &[B] {
        &self.b[..self.b.len() - 64]
    }
}

fn f32_case(m: usize, n: usize, k: usize, bs: usize) -> BatchCase<f32, f32> {
    let shape = BrgemmShape::new(m, n, k);
    let seed = (m * 131 + n * 17 + k * 3 + bs) as u64;
    BatchCase {
        shape,
        a: poisoned(fill_f32(seed, pool_len(shape.a_len())), f32::NAN),
        b: poisoned(fill_f32(seed + 1, pool_len(shape.b_len())), f32::NAN),
        a_offs: batch_offsets(bs, shape.a_len()),
        b_offs: batch_offsets(bs, shape.b_len()),
    }
}

fn u8i8_case(m: usize, n: usize, k: usize, bs: usize) -> BatchCase<u8, i8> {
    let shape = BrgemmShape::new(m, n, k);
    let seed = (m * 131 + n * 17 + k * 3 + bs) as u64;
    BatchCase {
        shape,
        a: poisoned(fill_u8(seed, pool_len(shape.a_len())), 255),
        b: poisoned(fill_i8(seed + 1, pool_len(shape.b_len())), 127),
        a_offs: batch_offsets(bs, shape.a_len()),
        b_offs: batch_offsets(bs, shape.b_len()),
    }
}

/// Every `(bs, k, (m, n))` of the batch matrix.
fn batch_matrix() -> impl Iterator<Item = (usize, usize, usize, usize)> {
    BATCHES.iter().flat_map(|&bs| {
        KS.iter()
            .flat_map(move |&k| BLOCK_EDGES.iter().map(move |&(m, n)| (m, n, k, bs)))
    })
}

#[test]
fn brgemm_f32_batch_matrix() {
    for (m, n, k, bs) in batch_matrix() {
        let t = f32_case(m, n, k, bs);
        let init = fill_f32(99, m * n);
        // Reference summed in f64, so each backend is charged only its
        // own rounding.
        let want: Vec<f32> = (0..m * n)
            .map(|i| {
                let (row, col) = (i / n * k, i % n * k);
                let mut s = init[i] as f64;
                for (&ao, &bo) in t.a_offs.iter().zip(&t.b_offs) {
                    for l in 0..k {
                        s += t.a[ao + row + l] as f64 * t.b[bo + col + l] as f64;
                    }
                }
                s as f32
            })
            .collect();
        // `assert_close`'s tolerance holds for reductions of up to ~500
        // O(1) terms (the longest the single-tile matrix has). The
        // rounding error of an f32 sum grows like the square root of its
        // length, so the longer batch reductions scale it the same way:
        // 2.7x at k = 479, bs = 8.
        let scale = ((k * bs) as f32 / 512.0).sqrt().max(1.0);
        for isa in available() {
            let mut got = init.clone();
            kernels(isa).brgemm_f32(t.shape, m, t.a(), &t.a_offs, t.b(), &t.b_offs, &mut got);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                let tol = 1e-5f32.max(w.abs() * 1e-5) * scale;
                assert!(
                    (g - w).abs() <= tol,
                    "brgemm_f32 {isa} {m}x{n}x{k} bs{bs}: element {i}: {g} vs {w} (tol {tol})"
                );
            }
        }
    }
}

#[test]
fn brgemm_u8i8_batch_matrix_bit_exact() {
    for (m, n, k, bs) in batch_matrix() {
        let t = u8i8_case(m, n, k, bs);
        let mut want = vec![3i32; m * n];
        brgemm::scalar::brgemm_u8i8(t.shape, t.a(), &t.a_offs, t.b(), &t.b_offs, &mut want);
        for isa in available() {
            let mut got = vec![3i32; m * n];
            kernels(isa).brgemm_u8i8(t.shape, m, t.a(), &t.a_offs, t.b(), &t.b_offs, &mut got);
            assert_eq!(got, want, "brgemm_u8i8 {isa} {m}x{n}x{k} bs{bs}");
        }
    }
}

#[test]
fn brgemm_m_tail_matches_full_prefix_across_the_batch() {
    // The clamped-height call against the full one, on every backend's
    // own handle: bit-exact in both dtypes, because a C element's
    // reduction never depends on the rows around it.
    let (m, n) = (8, 6);
    for isa in available() {
        let kern = kernels(isa);
        for &bs in &[2usize, 8] {
            for &k in &[13usize, 32, 65] {
                let f = f32_case(m, n, k, bs);
                let mut full = vec![0f32; m * n];
                kern.brgemm_f32(f.shape, m, f.a(), &f.a_offs, f.b(), &f.b_offs, &mut full);
                let q = u8i8_case(m, n, k, bs);
                let mut full_q = vec![0i32; m * n];
                kern.brgemm_u8i8(q.shape, m, q.a(), &q.a_offs, q.b(), &q.b_offs, &mut full_q);
                for m_valid in [0usize, 1, 2, 3, 5, 7, 8] {
                    let ctx = format!("{isa} k{k} bs{bs} m_valid={m_valid}");
                    let mut t = vec![0f32; m_valid * n];
                    kern.brgemm_f32(f.shape, m_valid, f.a(), &f.a_offs, f.b(), &f.b_offs, &mut t);
                    assert_eq!(bits(&t), bits(&full[..m_valid * n]), "f32 {ctx}");
                    let mut t = vec![0i32; m_valid * n];
                    kern.brgemm_u8i8(q.shape, m_valid, q.a(), &q.a_offs, q.b(), &q.b_offs, &mut t);
                    assert_eq!(t, full_q[..m_valid * n], "u8i8 {ctx}");
                }
            }
        }
    }
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn one_call_of_eight_rows_equals_two_calls_of_four() {
    // Register-block dispatch must not change any element's reduction
    // order: rows 4..8 computed as their own call (other block
    // boundaries, other ragged edges) are bit-identical.
    let (m, n) = (8, 7);
    for isa in available() {
        let kern = kernels(isa);
        for &bs in &[1usize, 8] {
            for &k in &[13usize, 16, 33, 479] {
                let half = BrgemmShape::new(m / 2, n, k);
                let lower = |offs: &[usize]| -> Vec<usize> {
                    offs.iter().map(|o| o + half.a_len()).collect()
                };
                let f = f32_case(m, n, k, bs);
                let mut whole = fill_f32(7, m * n);
                let mut split = whole.clone();
                kern.brgemm_f32(f.shape, m, f.a(), &f.a_offs, f.b(), &f.b_offs, &mut whole);
                let (top, bottom) = split.split_at_mut(half.c_len());
                kern.brgemm_f32(half, half.m, f.a(), &f.a_offs, f.b(), &f.b_offs, top);
                kern.brgemm_f32(
                    half,
                    half.m,
                    f.a(),
                    &lower(&f.a_offs),
                    f.b(),
                    &f.b_offs,
                    bottom,
                );
                assert_eq!(bits(&whole), bits(&split), "f32 {isa} k{k} bs{bs}");

                let q = u8i8_case(m, n, k, bs);
                let mut whole = vec![5i32; m * n];
                let mut split = whole.clone();
                kern.brgemm_u8i8(q.shape, m, q.a(), &q.a_offs, q.b(), &q.b_offs, &mut whole);
                let (top, bottom) = split.split_at_mut(half.c_len());
                kern.brgemm_u8i8(half, half.m, q.a(), &q.a_offs, q.b(), &q.b_offs, top);
                kern.brgemm_u8i8(
                    half,
                    half.m,
                    q.a(),
                    &lower(&q.a_offs),
                    q.b(),
                    &q.b_offs,
                    bottom,
                );
                assert_eq!(whole, split, "u8i8 {isa} k{k} bs{bs}");
            }
        }
    }
}

#[test]
#[should_panic(expected = "overruns its buffer")]
fn handle_rejects_a_tile_past_its_buffer() {
    // The handle checks every tile before it enters the unsafe body.
    let shape = BrgemmShape::new(2, 2, 3);
    let mut c = vec![0i32; 4];
    kernels(Isa::Scalar).brgemm_u8i8(shape, 2, &[1; 12], &[0, 7], &[1; 12], &[0, 6], &mut c);
}

#[test]
fn eltwise_matrix() {
    // relu and binary add are elementwise-identical ops in every
    // backend, so even f32 must match bit-exactly.
    for isa in available() {
        let kern = kernels(isa);
        let base = kernels(Isa::Scalar);
        for n in [1usize, 7, 8, 16, 64, 129, 1000] {
            let a = fill_f32(n as u64, n);
            let b = fill_f32(n as u64 + 1, n);
            let (mut g, mut w) = (vec![0f32; n], vec![0f32; n]);
            kern.relu(&a, &mut g);
            base.relu(&a, &mut w);
            assert_eq!(g, w, "relu {isa} n={n}");
            kern.binary_add(&a, &b, &mut g);
            base.binary_add(&a, &b, &mut w);
            assert_eq!(g, w, "add {isa} n={n}");
        }
    }
}

#[test]
fn reduce_matrix() {
    for isa in available() {
        let kern = kernels(isa);
        let base = kernels(Isa::Scalar);
        for n in [0usize, 1, 5, 8, 16, 17, 64, 479, 1024] {
            let xs = fill_f32(n as u64 + 42, n);
            let (gs, ws) = (kern.reduce_sum(&xs), base.reduce_sum(&xs));
            let tol = 1e-5f32.max(ws.abs() * 1e-5);
            assert!((gs - ws).abs() <= tol, "sum {isa} n={n}: {gs} vs {ws}");
            // max picks one element — exact regardless of lane order.
            assert_eq!(
                kern.reduce_max(&xs),
                base.reduce_max(&xs),
                "max {isa} n={n}"
            );
        }
    }
}

#[test]
fn epilogue_dequant_matrix_bit_exact() {
    for isa in available() {
        let kern = kernels(isa);
        let base = kernels(Isa::Scalar);
        for &(m, n) in &[(1usize, 1usize), (3, 7), (4, 16), (5, 33), (2, 479)] {
            let acc: Vec<i32> = fill_f32(7, m * n)
                .into_iter()
                .map(|x| (x * 100_000.0) as i32)
                .collect();
            let comp: Vec<i32> = fill_f32(8, n)
                .into_iter()
                .map(|x| (x * 1000.0) as i32)
                .collect();
            let (mut g, mut w) = (vec![0f32; m * n], vec![0f32; m * n]);
            kern.dequant_acc(&acc, m, n, &comp, 3, 0.0173, &mut g);
            base.dequant_acc(&acc, m, n, &comp, 3, 0.0173, &mut w);
            assert_eq!(g, w, "dequant {isa} {m}x{n}");
        }
    }
}

#[test]
fn epilogue_requant_sweep_bit_exact() {
    // The vector requantization against the scalar expression, spelled
    // out here: every tie `n + 0.5` across and beyond the u8 range with
    // both float neighbours, the integers themselves, signed zeros, the
    // float just below one half, saturation at both ends, infinities,
    // NaN, and magnitudes where f32 has no fraction bits left.
    let mut xs: Vec<f32> = Vec::new();
    for n in -300..=600 {
        let tie = n as f32 + 0.5;
        for x in [
            n as f32,
            tie,
            f32::from_bits(tie.to_bits() + 1),
            f32::from_bits(tie.to_bits() - 1),
        ] {
            xs.extend([x, -x]);
        }
    }
    let half_pred = f32::from_bits(0.5f32.to_bits() - 1);
    for x in [
        0.0,
        half_pred,
        f32::MIN_POSITIVE,
        f32::from_bits(1),
        8_388_607.5,
        8_388_608.0,
        8_388_609.0,
        16_777_216.0,
        2_147_483_648.0,
        9.3e18,
        1e30,
        f32::MAX,
        f32::INFINITY,
        f32::NAN,
    ] {
        xs.extend([x, -x]);
    }
    // whole vectors of every backend first, then a remainder
    xs.resize(xs.len().next_multiple_of(16) + 5, 254.5);
    let zero_points = [
        0,
        7,
        128,
        255,
        -3,
        300,
        1 << 24,
        (1 << 24) + 1, // not exact in f32: served by the definition
        i32::MIN,
        i32::MAX,
    ];
    for isa in available() {
        let kern = kernels(isa);
        for inv_scale in [1.0f32, 4.0, 0.5, 10.0, 1.0 / 3.0] {
            for zp in zero_points {
                let want: Vec<u8> = xs
                    .iter()
                    .map(|&x| {
                        let r = (x * inv_scale).round() as i64;
                        r.saturating_add(zp as i64).clamp(0, 255) as u8
                    })
                    .collect();
                let mut got = vec![0u8; xs.len()];
                kern.requant_u8(&xs, inv_scale, zp, &mut got);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g, w,
                        "requant {isa} x={:?} inv_scale={inv_scale} zp={zp}",
                        xs[i]
                    );
                }
            }
        }
    }
}

/// `|got - exact|` in units of the f32 spacing at `exact`.
fn ulps(got: f32, exact: f64) -> f64 {
    let spacing =
        f64::from(f32::from_bits((exact as f32).abs().to_bits() & 0x7f80_0000)) * 2f64.powi(-23);
    (f64::from(got) - exact).abs() / spacing
}

/// `e^x` of every element through a one-step `Exp` row chain over one
/// row: storing into a fresh buffer, or in place.
fn chain_exp(kern: Kernels, xs: &[f32], store: bool) -> Vec<f32> {
    let mut c = RowChain::new(1, xs.len(), 1, store);
    c.unary(UnaryOp::Exp).unwrap();
    if store {
        let mut out = vec![0f32; xs.len()];
        kern.row_chain(&c, Some(xs), &mut out, &[]);
        out
    } else {
        let mut buf = xs.to_vec();
        kern.row_chain(&c, None, &mut buf, &[]);
        buf
    }
}

#[test]
fn exp_within_two_ulp_of_f64_and_saturates_cleanly() {
    // a dense sweep of the normal-result range, odd-length so every
    // backend also runs its remainder path, plus the range ends
    let (lo, hi) = (-87.3f32, 88.7f32);
    let n = 400_001;
    let mut xs: Vec<f32> = (0..n)
        .map(|i| lo + (hi - lo) * (i as f32 / (n - 1) as f32))
        .collect();
    xs.extend([lo, hi, 0.0, -0.0, 1e-30, -1e-30, f32::MIN_POSITIVE]);
    for isa in available() {
        let kern = kernels(isa);
        let got = chain_exp(kern, &xs, true);
        for (&x, &g) in xs.iter().zip(&got) {
            let e = ulps(g, f64::from(x).exp());
            assert!(e <= 2.0, "exp {isa} x={x:e}: {g:e} is {e:.2} ulp off");
        }
        // in place is the same kernel
        let again = chain_exp(kern, &xs, false);
        assert_eq!(bits(&again), bits(&got), "exp in place {isa}");

        // below the range: zero or a subnormal close to the true value;
        // -inf is exactly zero
        let under = [
            -87.4f32,
            -88.0,
            -95.0,
            -103.9,
            -104.0,
            -150.0,
            -1e30,
            f32::MIN,
        ];
        let u = chain_exp(kern, &under, true);
        for (&x, &g) in under.iter().zip(&u) {
            let exact = f64::from(x).exp();
            assert!(
                g >= 0.0 && (f64::from(g) - exact).abs() < 1e-37,
                "exp {isa} x={x:e}: {g:e}"
            );
        }
        // above it, and the non-finite inputs
        let special = [
            88.73f32,
            89.0,
            100.0,
            1e30,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let s = chain_exp(kern, &special, true);
        assert!(
            s[..5].iter().all(|&g| g == f32::INFINITY),
            "exp {isa} overflow: {s:?}"
        );
        assert_eq!(s[5].to_bits(), 0, "exp {isa} -inf");
        assert!(s[6].is_nan(), "exp {isa} NaN");
    }
}

#[test]
fn best_detected_isa_is_exercised() {
    // Guards against the matrix silently collapsing to scalar-only: on
    // x86_64 hosts with AVX2/AVX-512 the list must include them.
    let isas = available();
    assert!(isas.contains(&Isa::Scalar));
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            assert!(isas.contains(&Isa::Avx2), "AVX2 detected but not tested");
        }
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw") {
            assert!(
                isas.contains(&Isa::Avx512),
                "AVX-512 detected but not tested"
            );
        }
    }
}
