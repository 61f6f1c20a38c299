//! Row chains: a fused post-op chain run as one kernel call per row
//! block.
//!
//! Every post-op chain fused at a matmul anchor is a chain of
//! elementwise steps — a bias add and a relu, say — and a softmax splits
//! its chain into *passes* by row reductions: scale, mask add and a
//! running max; subtract the max, exp and a running sum; divide by the
//! sum. A [`RowChain`] is such a chain as a short straight-line program
//! over one block of `rows` rows, each row made of `tiles` segments of
//! `cols` columns (the blocked `[tiles][rows][cols]` layout of a
//! matmul's accumulator, or one plain segment per row when
//! `tiles == 1`). [`Kernels::row_chain`] runs the program over L1-sized
//! groups of rows, each step one tight vector loop over the group, so
//! the row stats live in the call and the rows stay in L1 from the first
//! step to the last. A storing chain writes its results to a separate
//! destination; with no steps it is a copy.
//!
//! An elementwise op that fused nowhere is the one-step chain over its
//! plain tensor (an identity the zero-step copy), so every f32
//! elementwise op a plan runs goes through this one kernel.

use crate::arch::{Family, Kernels};
use crate::{BinaryOp, ReduceOp, UnaryOp};

/// Most steps one program holds.
pub const MAX_STEPS: usize = 12;
/// Most scalar constants one program references.
pub const MAX_CONSTS: usize = 2;
/// Most buffers one call touches: the tile, the side operands and, for a
/// storing chain, the destination.
pub const MAX_BUFFERS: usize = 4;

/// One step of a [`RowChain`] program. `x` is the running value of an
/// element at row `r`, column `c` of the block (`c` counts across all
/// tiles, so a row has `tiles * cols` columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainStep {
    /// `x = op(x)`.
    Unary(UnaryOp),
    /// `x = op(x, k)` with scalar constant slot `k`.
    Scalar(BinaryOp, u8),
    /// `x = op(x, v[c])`, `v` side operand `i`: one value per column,
    /// broadcast over the rows.
    RowVec(BinaryOp, u8),
    /// `x = op(x, f[r * ld + c])`, `f` side operand `i`: a plain
    /// row-major block of the same shape within rows of `ld` elements
    /// (see [`RowChain::full`]).
    Full(BinaryOp, u8),
    /// `x = op(x, s[r])`, `s` the row stat of the latest reduction.
    Stat(BinaryOp),
    /// `x = op(x, s[r])`, `s` side operand `i`: one value per row of the
    /// block (keepdim row stats computed elsewhere, say).
    ColVec(BinaryOp, u8),
    /// Close a pass: reduce each row of `x` into its new row stat.
    Reduce(ReduceOp),
}

/// A fused row-chain program and the block geometry it runs over; see
/// the module docs. Built step by step with the methods below, each of
/// which returns `None` (leaving the chain unchanged) when the program
/// would exceed its fixed capacity or is malformed. Small and `Copy`, so
/// an intrinsic carries it inline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowChain {
    rows: u16,
    cols: u32,
    tiles: u32,
    /// Row stride of the full-shape side operands.
    ld: u32,
    consts: [f32; MAX_CONSTS],
    steps: [ChainStep; MAX_STEPS],
    n_steps: u8,
    store: bool,
}

impl RowChain {
    /// An empty program over `rows x (tiles x cols)`. With `store` the
    /// results go to a separate destination of the tile's layout and the
    /// tile is only read; without, the tile is updated in place.
    ///
    /// # Panics
    ///
    /// Panics if an extent does not fit `u32` (`u16` for `rows`).
    pub fn new(rows: usize, cols: usize, tiles: usize, store: bool) -> RowChain {
        let dim = |d: usize| u32::try_from(d).expect("row-chain extent exceeds u32");
        RowChain {
            rows: u16::try_from(rows).expect("row-chain rows exceed u16"),
            cols: dim(cols),
            tiles: dim(tiles),
            ld: dim(tiles * cols),
            consts: [0.0; MAX_CONSTS],
            steps: [ChainStep::Unary(UnaryOp::Identity); MAX_STEPS],
            n_steps: 0,
            store,
        }
    }

    fn push(&mut self, step: ChainStep) -> Option<()> {
        let slot = self.steps.get_mut(usize::from(self.n_steps))?;
        *slot = step;
        self.n_steps += 1;
        Some(())
    }

    fn side(&mut self, step: impl Fn(u8) -> ChainStep) -> Option<()> {
        if self.buffers() >= MAX_BUFFERS {
            return None;
        }
        self.push(step(self.side_operands() as u8))
    }

    /// Append `x = op(x)`.
    pub fn unary(&mut self, op: UnaryOp) -> Option<()> {
        self.push(ChainStep::Unary(op))
    }

    /// Append `x = op(x, k)`.
    pub fn scalar(&mut self, op: BinaryOp, k: f32) -> Option<()> {
        let slot = self.count(|s| matches!(s, ChainStep::Scalar(..)));
        *self.consts.get_mut(slot)? = k;
        self.push(ChainStep::Scalar(op, slot as u8))
    }

    /// Append `x = op(x, v[c])` over the next side operand.
    pub fn row_vec(&mut self, op: BinaryOp) -> Option<()> {
        self.side(|i| ChainStep::RowVec(op, i))
    }

    /// Append `x = op(x, f[r, c])` over the next side operand, a plain
    /// block whose rows are `ld` elements apart: `tiles * cols` when it
    /// is exactly the block's shape, more when the block is a column
    /// slice of a wider matrix. `None` when `ld` is narrower than a row,
    /// or an earlier full operand of the chain has another `ld`.
    pub fn full(&mut self, op: BinaryOp, ld: usize) -> Option<()> {
        let ld = u32::try_from(ld).ok()?;
        let has_full = self
            .steps()
            .iter()
            .any(|s| matches!(s, ChainStep::Full(..)));
        if (ld as usize) < self.tiles() * self.cols() || (has_full && ld != self.ld) {
            return None;
        }
        self.side(|i| ChainStep::Full(op, i))?;
        self.ld = ld;
        Some(())
    }

    /// Append `x = op(x, s[r])` over the next side operand, one value
    /// per row.
    pub fn col_vec(&mut self, op: BinaryOp) -> Option<()> {
        self.side(|i| ChainStep::ColVec(op, i))
    }

    /// Append `x = op(x, s[r])`; `None` before the first reduction.
    pub fn stat(&mut self, op: BinaryOp) -> Option<()> {
        self.steps()
            .iter()
            .any(|s| matches!(s, ChainStep::Reduce(_)))
            .then_some(())?;
        self.push(ChainStep::Stat(op))
    }

    /// Close the current pass with a row reduction.
    pub fn reduce(&mut self, op: ReduceOp) -> Option<()> {
        self.push(ChainStep::Reduce(op))
    }

    /// Rows of the block.
    pub fn rows(&self) -> usize {
        self.rows as usize
    }

    /// Columns per tile.
    pub fn cols(&self) -> usize {
        self.cols as usize
    }

    /// Column tiles per row.
    pub fn tiles(&self) -> usize {
        self.tiles as usize
    }

    /// Elements of the block (of the tile, and of the destination).
    pub fn elems(&self) -> usize {
        self.rows() * self.cols() * self.tiles()
    }

    /// The program.
    pub fn steps(&self) -> &[ChainStep] {
        &self.steps[..usize::from(self.n_steps)]
    }

    /// Value of scalar constant slot `k`.
    pub fn constant(&self, k: u8) -> f32 {
        self.consts[usize::from(k)]
    }

    /// Whether results go to a separate destination.
    pub fn stores(&self) -> bool {
        self.store
    }

    /// Row stride of the full-shape side operands.
    pub fn full_stride(&self) -> usize {
        self.ld as usize
    }

    fn count(&self, f: impl Fn(&ChainStep) -> bool) -> usize {
        self.steps().iter().filter(|s| f(s)).count()
    }

    /// Number of side operands.
    pub fn side_operands(&self) -> usize {
        self.count(|s| {
            matches!(
                s,
                ChainStep::RowVec(..) | ChainStep::Full(..) | ChainStep::ColVec(..)
            )
        })
    }

    /// Elements side operand `i` covers: a row vector `tiles * cols`, a
    /// full block `rows` rows of [`RowChain::full_stride`], the last
    /// one `tiles * cols` long, a column vector `rows`.
    ///
    /// # Panics
    ///
    /// Panics if no step reads side operand `i`.
    pub fn side_len(&self, i: usize) -> usize {
        let reads = |s: &ChainStep| match *s {
            ChainStep::RowVec(_, j) => (usize::from(j) == i).then_some(self.tiles() * self.cols()),
            ChainStep::Full(_, j) => (usize::from(j) == i).then_some(
                self.rows().saturating_sub(1) * self.full_stride()
                    + self.rows().min(1) * self.tiles() * self.cols(),
            ),
            ChainStep::ColVec(_, j) => (usize::from(j) == i).then_some(self.rows()),
            _ => None,
        };
        self.steps()
            .iter()
            .find_map(reads)
            .expect("no such side operand")
    }

    /// Buffers a call takes: the tile, the side operands, the destination.
    pub fn buffers(&self) -> usize {
        1 + self.side_operands() + usize::from(self.store)
    }
}

impl Kernels {
    /// Run `chain` over one row block, counted as one reduce call.
    /// `dst` is the tile itself when `src` is `None` (in place), or the
    /// destination of a storing chain, which reads its tile from `src`;
    /// `side` holds the side operands in program order.
    ///
    /// # Panics
    ///
    /// Panics if `src` disagrees with [`RowChain::stores`] or a slice
    /// length disagrees with the program.
    pub fn row_chain(
        &self,
        chain: &RowChain,
        src: Option<&[f32]>,
        dst: &mut [f32],
        side: &[&[f32]],
    ) {
        let n = chain.elems();
        assert_eq!(src.is_some(), chain.stores(), "row chain store mode");
        assert_eq!(dst.len(), n, "row chain tile length");
        assert!(src.is_none_or(|s| s.len() == n), "row chain source length");
        assert_eq!(side.len(), chain.side_operands(), "row chain side operands");
        let mut ptrs = [std::ptr::null(); MAX_BUFFERS - 1];
        for (i, (p, s)) in ptrs.iter_mut().zip(side).enumerate() {
            assert_eq!(s.len(), chain.side_len(i), "row chain side operand {i}");
            *p = s.as_ptr();
        }
        self.record(Family::Reduce);
        let src = src.map_or(dst.as_ptr(), <[f32]>::as_ptr);
        // SAFETY: every extent asserted above; `kernels` verified CPU
        // support. In place `src == dst`, which the body allows.
        unsafe { (self.table.row_chain)(chain, src, dst.as_mut_ptr(), &ptrs) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{kernels, Isa};

    /// `softmax(x / 2 + v)` rows, as the fused attention chain runs it.
    fn softmax_chain(rows: usize, cols: usize, tiles: usize, store: bool) -> RowChain {
        let mut c = RowChain::new(rows, cols, tiles, store);
        c.scalar(BinaryOp::Div, 2.0).unwrap();
        c.row_vec(BinaryOp::Add).unwrap();
        c.reduce(ReduceOp::Max).unwrap();
        c.stat(BinaryOp::Sub).unwrap();
        c.unary(UnaryOp::Exp).unwrap();
        c.reduce(ReduceOp::Sum).unwrap();
        c.stat(BinaryOp::Div).unwrap();
        c
    }

    #[test]
    fn builder_enforces_capacity_and_order() {
        let mut c = RowChain::new(2, 3, 1, true);
        assert!(
            c.stat(BinaryOp::Sub).is_none(),
            "no stat before a reduction"
        );
        c.scalar(BinaryOp::Mul, 1.0).unwrap();
        c.scalar(BinaryOp::Add, 2.0).unwrap();
        assert!(c.scalar(BinaryOp::Add, 3.0).is_none(), "const slots");
        c.row_vec(BinaryOp::Add).unwrap();
        assert!(c.full(BinaryOp::Mul, 2).is_none(), "ld narrower than a row");
        c.full(BinaryOp::Mul, 5).unwrap();
        assert!(c.row_vec(BinaryOp::Add).is_none(), "buffers");
        assert_eq!(c.buffers(), MAX_BUFFERS);
        // the full operand: two rows of 3, 5 elements apart
        assert_eq!((c.side_len(0), c.side_len(1)), (3, 8));
        let mut rows = RowChain::new(3, 4, 2, true);
        rows.col_vec(BinaryOp::Sub).unwrap();
        assert_eq!((rows.side_operands(), rows.side_len(0)), (1, 3));
        let mut two = RowChain::new(2, 3, 1, false);
        two.full(BinaryOp::Add, 4).unwrap();
        assert!(two.full(BinaryOp::Mul, 3).is_none(), "one ld per chain");
        while c.unary(UnaryOp::Relu).is_some() {}
        assert_eq!(c.steps().len(), MAX_STEPS);
        assert_eq!(c.constant(1), 2.0);
    }

    #[test]
    fn softmax_rows_sum_to_one_in_blocked_layout() {
        let (rows, cols, tiles) = (3, 5, 2);
        let x: Vec<f32> = (0..rows * cols * tiles)
            .map(|i| (i % 7) as f32 * 0.3)
            .collect();
        let v: Vec<f32> = (0..cols * tiles).map(|i| i as f32 * -0.1).collect();
        for isa in [Isa::Scalar, crate::arch::detected_isa()] {
            let k = kernels(isa);
            let mut out = vec![0.0; x.len()];
            k.row_chain(
                &softmax_chain(rows, cols, tiles, true),
                Some(&x),
                &mut out,
                &[&v],
            );
            let mut in_place = x.clone();
            k.row_chain(
                &softmax_chain(rows, cols, tiles, false),
                None,
                &mut in_place,
                &[&v],
            );
            assert_eq!(out, in_place, "{isa}");
            for r in 0..rows {
                // blocked: row r of tile t starts at t * rows * cols + r * cols
                let at = |t: usize, j: usize| t * rows * cols + r * cols + j;
                let logits: Vec<f32> = (0..tiles * cols)
                    .map(|c| x[at(c / cols, c % cols)] / 2.0 + v[c])
                    .collect();
                let m = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let sum: f32 = logits.iter().map(|l| (l - m).exp()).sum();
                for (c, l) in logits.iter().enumerate() {
                    let want = (l - m).exp() / sum;
                    let got = out[at(c / cols, c % cols)];
                    assert!(
                        (got - want).abs() < 1e-6,
                        "{isa} r{r} c{c}: {got} vs {want}"
                    );
                }
            }
        }
    }
}
