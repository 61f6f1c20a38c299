//! Template parameters for Tunable-OP lowering.
//!
//! These mirror the paper's Figure-2 nomenclature: a matmul over
//! `A[M, K] x B[K, N]` is decomposed into `MPN x NPN` parallel
//! single-core kernels; each single-core kernel runs `MSN x NSN` loop
//! iterations whose innermost body calls a batch-reduce GEMM microkernel
//! over `[MB, NB, KB]` tiles with batch size `BS`.

/// Instantiation parameters of the matmul template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatmulParams {
    /// Parallel decomposition along m (number of single-core kernels).
    pub mpn: usize,
    /// Parallel decomposition along n.
    pub npn: usize,
    /// Microkernel tile rows.
    pub mb: usize,
    /// Microkernel tile columns.
    pub nb: usize,
    /// Microkernel tile reduction depth.
    pub kb: usize,
    /// Batch-reduce batch size (k tiles per microkernel call).
    pub bs: usize,
}

/// A matmul problem to lower: `batch` independent `[m, k] x [k, n]`
/// multiplications (batch > 1 for the MHA batch matmuls).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatmulProblem {
    /// Leading batch (product of all batch dims; 1 for plain matmul).
    pub batch: usize,
    /// Rows.
    pub m: usize,
    /// Columns.
    pub n: usize,
    /// Reduction.
    pub k: usize,
    /// Element size of the compute inputs in bytes (4 = f32, 1 = int8).
    pub elem_bytes: usize,
}

impl MatmulProblem {
    /// Plain 2-D problem.
    pub fn new(m: usize, n: usize, k: usize, elem_bytes: usize) -> Self {
        MatmulProblem {
            batch: 1,
            m,
            n,
            k,
            elem_bytes,
        }
    }

    /// Batched problem.
    pub fn batched(batch: usize, m: usize, n: usize, k: usize, elem_bytes: usize) -> Self {
        MatmulProblem {
            batch,
            m,
            n,
            k,
            elem_bytes,
        }
    }

    /// Total multiply-accumulate FLOPs (2 per MAC).
    pub fn flops(&self) -> f64 {
        2.0 * (self.batch * self.m * self.n * self.k) as f64
    }
}

impl MatmulParams {
    /// m-tiles total, counting a partial edge tile as whole (the pack
    /// stage pads it to full `MB` rows).
    pub fn m_tiles(&self, m: usize) -> usize {
        m.div_ceil(self.mb)
    }

    /// n-tiles total, counting a partial edge tile as whole.
    pub fn n_tiles(&self, n: usize) -> usize {
        n.div_ceil(self.nb)
    }

    /// True iff `mb` does not divide m (a padded edge tile row exists).
    pub fn ragged_m(&self, m: usize) -> bool {
        !m.is_multiple_of(self.mb)
    }

    /// True iff `nb` does not divide n.
    pub fn ragged_n(&self, n: usize) -> bool {
        !n.is_multiple_of(self.nb)
    }

    /// m-tiles per single-core kernel (`MSN`).
    pub fn msn(&self, m: usize) -> usize {
        self.m_tiles(m) / self.mpn
    }

    /// n-tiles per single-core kernel (`NSN`).
    pub fn nsn(&self, n: usize) -> usize {
        self.n_tiles(n) / self.npn
    }

    /// k-tiles total (`KSN`).
    pub fn ksn(&self, k: usize) -> usize {
        k / self.kb
    }

    /// Microkernel invocations in one k-sweep (`KSN / BS`).
    pub fn k_chunks(&self, k: usize) -> usize {
        self.ksn(k) / self.bs
    }

    /// Parallel tasks per matrix (`MPN * NPN`).
    pub fn tasks(&self) -> usize {
        self.mpn * self.npn
    }

    /// Check the parameters tile the problem.
    ///
    /// Tiling along m and n is *ceil-based*: a dimension that is not a
    /// multiple of its block still validates — the edge tile is
    /// zero-padded at pack time — but the resulting whole-tile counts
    /// must divide evenly across the parallel decomposition. `kb` must
    /// divide k: the reduction has no edge tile.
    pub fn validate(&self, p: &MatmulProblem) -> Result<(), String> {
        let MatmulParams {
            mpn,
            npn,
            mb,
            nb,
            kb,
            bs,
        } = *self;
        if mb == 0 || nb == 0 || kb == 0 || bs == 0 || mpn == 0 || npn == 0 {
            return Err("zero parameter".to_string());
        }
        let m_tiles = p.m.div_ceil(mb);
        let n_tiles = p.n.div_ceil(nb);
        if !p.k.is_multiple_of(kb) {
            return Err(format!("kb {kb} does not divide k {}", p.k));
        }
        let k_tiles = p.k / kb;
        if !m_tiles.is_multiple_of(mpn) {
            return Err(format!("mpn {mpn} does not divide m-tiles {m_tiles}"));
        }
        if !n_tiles.is_multiple_of(npn) {
            return Err(format!("npn {npn} does not divide n-tiles {n_tiles}"));
        }
        if !k_tiles.is_multiple_of(bs) {
            return Err(format!("bs {bs} does not divide k-tiles {k_tiles}"));
        }
        Ok(())
    }
}

/// All divisors of `n`, ascending.
pub fn divisors(n: usize) -> Vec<usize> {
    let mut small = Vec::new();
    let mut large = Vec::new();
    let mut d = 1;
    while d * d <= n {
        if n.is_multiple_of(d) {
            small.push(d);
            if d != n / d {
                large.push(n / d);
            }
        }
        d += 1;
    }
    small.extend(large.into_iter().rev());
    small
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_counts() {
        let p = MatmulParams {
            mpn: 4,
            npn: 2,
            mb: 32,
            nb: 32,
            kb: 64,
            bs: 2,
        };
        // M=512: 16 m-tiles, 4 per kernel; N=256: 8 n-tiles, 4 per kernel
        assert_eq!(p.msn(512), 4);
        assert_eq!(p.nsn(256), 4);
        assert_eq!(p.ksn(256), 4);
        assert_eq!(p.k_chunks(256), 2);
        assert_eq!(p.tasks(), 8);
    }

    #[test]
    fn validate_is_ceil_based() {
        let p = MatmulParams {
            mpn: 4,
            npn: 1,
            mb: 32,
            nb: 32,
            kb: 64,
            bs: 2,
        };
        let prob = MatmulProblem::new(512, 256, 256, 4);
        p.validate(&prob).unwrap();
        // m = 500 is ragged (500 = 15*32 + 20) but its 16 whole-or-
        // padded tiles still split 4 ways — valid under ceil tiling.
        let ragged = MatmulProblem::new(500, 256, 256, 4);
        p.validate(&ragged).unwrap();
        assert!(p.ragged_m(500) && !p.ragged_n(256));
        assert_eq!(p.m_tiles(500), 16);
        // m = 420 gives ceil(420/32) = 14 tiles, not divisible by 4.
        let bad = MatmulProblem::new(420, 256, 256, 4);
        assert!(p.validate(&bad).is_err());
        // k has no edge tile: kb = 64 on k = 479 is refused even though
        // its 8 ceil-tiles would split into bs = 2 chunks.
        let ragged_k = MatmulProblem::new(512, 256, 479, 4);
        assert!(p.validate(&ragged_k).unwrap_err().contains("kb 64"));
    }

    #[test]
    fn divisors_of_12() {
        assert_eq!(divisors(12), vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(divisors(1), vec![1]);
        assert_eq!(divisors(0), Vec::<usize>::new());
        for n in 1..200usize {
            let naive: Vec<usize> = (1..=n).filter(|d| n.is_multiple_of(*d)).collect();
            assert_eq!(divisors(n), naive);
        }
    }

    #[test]
    fn flops_counts_batch() {
        let p = MatmulProblem::batched(4, 8, 8, 8, 4);
        assert_eq!(p.flops(), 2.0 * 4.0 * 512.0);
    }
}
