//! Property tests pinning the register-tiled brgemm to the scalar
//! reference across random geometries, including every ragged-edge
//! combination of the `MR x NR` dispatch table and k-loop tails.

use gc_microkernel::brgemm::{self, BrgemmShape};
use gc_microkernel::Kernels;
use proptest::prelude::*;

/// Deterministic pseudo-random tile data — the proptest strategies draw
/// only the geometry, so shrinking stays cheap and failures print small.
fn fill_f32(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        })
        .collect()
}

fn fill_u8(n: usize, seed: u64) -> Vec<u8> {
    fill_f32(n, seed).iter().map(|x| (x * 31.0) as u8).collect()
}

fn fill_i8(n: usize, seed: u64) -> Vec<i8> {
    fill_f32(n, seed).iter().map(|x| (x * 15.0) as i8).collect()
}

proptest! {
    /// Tiled f32 brgemm matches the scalar reference on random
    /// m/n/k/batch, covering full register blocks, ragged m (m % 2),
    /// ragged n (n % 4), and k tails (k % 8).
    #[test]
    fn tiled_f32_matches_scalar(
        m in 1usize..=9,
        n in 1usize..=11,
        k in 0usize..=33,
        batch in 0usize..=3,
        seed in 0u64..1024,
    ) {
        let shape = BrgemmShape::new(m, n, k);
        let a_buf = fill_f32(batch * shape.a_len() + 1, seed);
        let b_buf = fill_f32(batch * shape.b_len() + 1, seed ^ 0xabcd);
        let a_offs: Vec<usize> = (0..batch).map(|i| i * shape.a_len()).collect();
        let b_offs: Vec<usize> = (0..batch).map(|i| i * shape.b_len()).collect();
        let mut got = fill_f32(shape.c_len(), seed ^ 0x55); // nonzero: += semantics
        let mut want = got.clone();
        Kernels::default().brgemm_f32(shape, m, &a_buf, &a_offs, &b_buf, &b_offs, &mut got);
        brgemm::scalar::brgemm_f32(shape, &a_buf, &a_offs, &b_buf, &b_offs, &mut want);
        for (i, (&x, &y)) in got.iter().zip(want.iter()).enumerate() {
            prop_assert!(
                (x - y).abs() <= 1e-4 * (1.0 + y.abs()),
                "c[{}]: {} vs {} (m={} n={} k={} batch={})", i, x, y, m, n, k, batch
            );
        }
    }

    /// Int8 brgemm is integer-exact against the scalar reference.
    #[test]
    fn u8i8_matches_scalar_exactly(
        m in 1usize..=6,
        n in 1usize..=9,
        k in 0usize..=21,
        batch in 0usize..=3,
        seed in 0u64..1024,
    ) {
        let shape = BrgemmShape::new(m, n, k);
        let a_buf = fill_u8(batch * shape.a_len() + 1, seed);
        let b_buf = fill_i8(batch * shape.b_len() + 1, seed ^ 0x1234);
        let a_offs: Vec<usize> = (0..batch).map(|i| i * shape.a_len()).collect();
        let b_offs: Vec<usize> = (0..batch).map(|i| i * shape.b_len()).collect();
        let mut got = vec![7i32; shape.c_len()];
        let mut want = got.clone();
        Kernels::default().brgemm_u8i8(shape, m, &a_buf, &a_offs, &b_buf, &b_offs, &mut got);
        brgemm::scalar::brgemm_u8i8(shape, &a_buf, &a_offs, &b_buf, &b_offs, &mut want);
        prop_assert_eq!(got, want);
    }
}

/// The dispatch-table corners the proptest ranges might sample thinly:
/// every (m % MR, n % NR) residue with k around the lane width.
#[test]
fn ragged_edge_grid_matches_scalar() {
    for m in 1..=5 {
        for n in 1..=9 {
            for k in [0usize, 1, 7, 8, 9, 16, 23] {
                let shape = BrgemmShape::new(m, n, k);
                let a = fill_f32(shape.a_len(), (m * 100 + n) as u64);
                let b = fill_f32(shape.b_len(), (n * 100 + k) as u64);
                let mut got = vec![0f32; shape.c_len()];
                let mut want = vec![0f32; shape.c_len()];
                Kernels::default().gemm_f32(m, n, k, &a, &b, &mut got);
                brgemm::scalar::brgemm_f32(shape, &a, &[0], &b, &[0], &mut want);
                for (x, y) in got.iter().zip(&want) {
                    assert!(
                        (x - y).abs() <= 1e-4 * (1.0 + y.abs()),
                        "m={m} n={n} k={k}: {x} vs {y}"
                    );
                }
            }
        }
    }
}
