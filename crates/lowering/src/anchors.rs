//! Anchor points and the Figure-3 cost table.
//!
//! The Tunable-OP template predefines *anchors* — placeholders at each
//! loop level where fused pre-ops and post-ops can be inserted. Each
//! anchor is associated with a tensor slice; once the template
//! parameters are known, the slice working-set size, the number of times
//! the fused op runs, and the total element accesses can all be deduced
//! (the paper's Figure 3 table). The fusion optimization evaluates these
//! costs and commits each fused op to the cheapest anchor.

use crate::params::{MatmulParams, MatmulProblem};
use gc_machine::MachineDescriptor;

/// Pre-op anchors, outermost (#1) to innermost (#5), per Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PreOpAnchor {
    /// Before the `npi` parallel loop (whole A row-slice / whole B).
    A1,
    /// Inside `npi`, before `msi` (task's A and B slices).
    A2,
    /// Inside `msi`, before the k loop (one m-tile's K panels).
    A3,
    /// Inside the k loop, before `nsi` (one BS-chunk of A / B).
    A4,
    /// Inside `nsi` (single microkernel operands).
    A5,
}

/// Post-op anchors, innermost (#1) to outermost (#3), per Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PostOpAnchor {
    /// After the k reduction of one m-tile (C slice `[MB, NSBN]`).
    P1,
    /// After the `msi` loop (task's C slice `[MSBN, NSBN]`).
    P2,
    /// After the `npi` loop (C row-slice `[MSBN, N]`).
    P3,
}

/// The Figure-3 row for one anchor: slice working set, invocation count
/// and total element accesses, per core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnchorCost {
    /// Elements touched per invocation (tensor slice working set).
    pub working_set: usize,
    /// Invocations per single-core kernel.
    pub invocations: usize,
    /// Total element accesses per core (`working_set * invocations`).
    pub total_accesses: usize,
}

/// Which matmul operand a pre-op applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Activations `A`.
    A,
    /// Weights `B`.
    B,
}

/// Compute the Figure-3 row for a pre-op anchor.
pub fn pre_op_cost(
    anchor: PreOpAnchor,
    p: &MatmulParams,
    prob: &MatmulProblem,
    operand: Operand,
) -> AnchorCost {
    let msn = p.msn(prob.m).max(1);
    let nsn = p.nsn(prob.n).max(1);
    let ksn = p.ksn(prob.k).max(1);
    let npsn = (prob.n / p.nb).max(1);
    let (mb, nb, kb, bs) = (p.mb, p.nb, p.kb, p.bs);
    let (ws, inv) = match (operand, anchor) {
        (Operand::A, PreOpAnchor::A1) => (msn * ksn * mb * kb, 1),
        (Operand::A, PreOpAnchor::A2) => (msn * ksn * mb * kb, 1),
        (Operand::A, PreOpAnchor::A3) => (ksn * mb * kb, msn),
        (Operand::A, PreOpAnchor::A4) => (bs * mb * kb, msn * (ksn / bs).max(1)),
        (Operand::A, PreOpAnchor::A5) => (bs * mb * kb, msn * nsn * (ksn / bs).max(1)),
        (Operand::B, PreOpAnchor::A1) => (ksn * npsn * nb * kb, 1),
        (Operand::B, PreOpAnchor::A2) => (ksn * nsn * nb * kb, 1),
        (Operand::B, PreOpAnchor::A3) => (ksn * nsn * nb * kb, msn),
        (Operand::B, PreOpAnchor::A4) => (bs * nsn * nb * kb, msn * (ksn / bs).max(1)),
        (Operand::B, PreOpAnchor::A5) => (bs * nb * kb, msn * nsn * (ksn / bs).max(1)),
    };
    AnchorCost {
        working_set: ws,
        invocations: inv,
        total_accesses: ws * inv,
    }
}

/// Compute the Figure-3 row for a post-op anchor.
pub fn post_op_cost(anchor: PostOpAnchor, p: &MatmulParams, prob: &MatmulProblem) -> AnchorCost {
    let msn = p.msn(prob.m).max(1);
    let nsn = p.nsn(prob.n).max(1);
    let msbn = msn * p.mb;
    let nsbn = nsn * p.nb;
    let (ws, inv) = match anchor {
        PostOpAnchor::P1 => (p.mb * nsbn, msn),
        PostOpAnchor::P2 => (msbn * nsbn, 1),
        PostOpAnchor::P3 => (msbn * prob.n, 1),
    };
    AnchorCost {
        working_set: ws,
        invocations: inv,
        total_accesses: ws * inv,
    }
}

/// Per-element access cost (cycles) given a working set's likely cache
/// residency on `machine`.
pub fn per_element_cost(machine: &MachineDescriptor, working_set_bytes: usize) -> f64 {
    if working_set_bytes <= machine.l1_bytes() {
        1.0
    } else if working_set_bytes <= machine.l2_bytes() {
        2.5
    } else if working_set_bytes <= machine.llc_bytes() / machine.cores.max(1) {
        6.0
    } else {
        16.0
    }
}

/// Estimated cycles of running a fused op at an anchor: total accesses
/// weighted by residency of the slice.
pub fn anchor_cycles(machine: &MachineDescriptor, cost: &AnchorCost, elem_bytes: usize) -> f64 {
    cost.total_accesses as f64 * per_element_cost(machine, cost.working_set * elem_bytes)
}

/// Where the activation pack (pre-op reorder) is committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackPlacement {
    /// Anchor #2: pack the task's whole A slice up front.
    PerTask,
    /// Anchor #4: pack one BS-chunk per k iteration (paper's Figure 4).
    PerKChunk,
}

/// Choose the pack anchor for A by comparing anchor #2 and anchor #4
/// costs.
pub fn choose_a_pack(
    machine: &MachineDescriptor,
    p: &MatmulParams,
    prob: &MatmulProblem,
) -> PackPlacement {
    let c2 = pre_op_cost(PreOpAnchor::A2, p, prob, Operand::A);
    let c4 = pre_op_cost(PreOpAnchor::A4, p, prob, Operand::A);
    if anchor_cycles(machine, &c2, prob.elem_bytes) <= anchor_cycles(machine, &c4, prob.elem_bytes)
    {
        PackPlacement::PerTask
    } else {
        PackPlacement::PerKChunk
    }
}

/// Choose the post-op anchor for an elementwise group: #1 unless the
/// per-m-tile slice is so small that invocation overhead dominates.
pub fn choose_post_anchor(
    machine: &MachineDescriptor,
    p: &MatmulParams,
    prob: &MatmulProblem,
) -> PostOpAnchor {
    let c1 = post_op_cost(PostOpAnchor::P1, p, prob);
    let c2 = post_op_cost(PostOpAnchor::P2, p, prob);
    // fixed per-invocation overhead (loop setup / kernel call)
    let overhead = 20.0;
    // anchor #1 processes the slice immediately after the k-loop wrote
    // it (still in L1); anchor #2's buffered tiles must survive the
    // whole msi loop and come back from a colder level
    let staleness = 1.5;
    let t1 = anchor_cycles(machine, &c1, 4) + overhead * c1.invocations as f64;
    let t2 = staleness * anchor_cycles(machine, &c2, 4) + overhead * c2.invocations as f64;
    if t1 <= t2 {
        PostOpAnchor::P1
    } else {
        PostOpAnchor::P2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (MachineDescriptor, MatmulParams, MatmulProblem) {
        let machine = MachineDescriptor::xeon_8358();
        let p = MatmulParams {
            mpn: 4,
            npn: 2,
            mb: 32,
            nb: 32,
            kb: 64,
            bs: 2,
        };
        let prob = MatmulProblem::new(512, 256, 512, 4);
        (machine, p, prob)
    }

    #[test]
    fn figure3_total_access_identities() {
        // Per Figure 3: anchors #4 and #5 have the same total B access
        // count but different working sets.
        let (_, p, prob) = setup();
        let a4 = pre_op_cost(PreOpAnchor::A4, &p, &prob, Operand::B);
        let a5 = pre_op_cost(PreOpAnchor::A5, &p, &prob, Operand::B);
        assert_eq!(a4.total_accesses, a5.total_accesses);
        assert!(a5.working_set < a4.working_set);
    }

    #[test]
    fn figure3_a_anchor4_not_redundant_but_anchor5_is() {
        // For A, anchor #5 performs the same slice work NSN times.
        let (_, p, prob) = setup();
        let a4 = pre_op_cost(PreOpAnchor::A4, &p, &prob, Operand::A);
        let a5 = pre_op_cost(PreOpAnchor::A5, &p, &prob, Operand::A);
        assert_eq!(a5.total_accesses, a4.total_accesses * p.nsn(prob.n));
    }

    #[test]
    fn post_anchor1_smallest_working_set() {
        let (_, p, prob) = setup();
        let p1 = post_op_cost(PostOpAnchor::P1, &p, &prob);
        let p2 = post_op_cost(PostOpAnchor::P2, &p, &prob);
        let p3 = post_op_cost(PostOpAnchor::P3, &p, &prob);
        assert!(p1.working_set < p2.working_set);
        assert!(p2.working_set <= p3.working_set);
        assert_eq!(p1.total_accesses, p2.total_accesses);
    }

    #[test]
    fn per_element_cost_monotone_in_working_set() {
        let m = MachineDescriptor::xeon_8358();
        let c_small = per_element_cost(&m, 16 * 1024);
        let c_l2 = per_element_cost(&m, 512 * 1024);
        let c_big = per_element_cost(&m, 256 << 20);
        assert!(c_small < c_l2);
        assert!(c_l2 < c_big);
    }

    #[test]
    fn pack_choice_prefers_anchor4_for_large_slices() {
        // Huge K: the per-task A slice (anchor 2) blows the cache, so
        // packing per k-chunk (anchor 4, the paper's Figure 4) wins.
        let machine = MachineDescriptor::xeon_8358();
        let p = MatmulParams {
            mpn: 4,
            npn: 1,
            mb: 32,
            nb: 32,
            kb: 64,
            bs: 2,
        };
        let prob = MatmulProblem::new(128, 512, 8192, 4);
        assert_eq!(choose_a_pack(&machine, &p, &prob), PackPlacement::PerKChunk);
    }

    #[test]
    fn post_anchor_choice_defaults_to_p1() {
        let (machine, p, prob) = setup();
        assert_eq!(choose_post_anchor(&machine, &p, &prob), PostOpAnchor::P1);
    }
}
