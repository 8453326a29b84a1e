//! matVec2D: `y = A x` with a 2-D thread decomposition (Table IV, row 4).
//!
//! Unlike ATAX/BiCG's row-per-thread scheme, the Orio-generated matVec2D
//! kernel uses a **two-dimensional decomposition**: a warp cooperates on
//! each row, with lanes striding across columns. Consequences that shape
//! its tuning behaviour:
//!
//! * Lanes read consecutive `A[i][j..j+32]` elements → **coalesced**
//!   accesses (vs. ATAX's strided row walk);
//! * parallelism is `32·N` lanes instead of `N` threads, so *large*
//!   blocks still fill the device — and the per-block shared-memory
//!   reduction amortizes better with more warps per block. This is why
//!   the paper's exhaustive search (Fig. 4/Table V) finds matVec2D's best
//!   thread counts in the *high* range;
//! * extra 2-D index arithmetic per element raises the FLOPS-class count,
//!   putting measured intensity above the 4.0 rule threshold (Table VI:
//!   4.6–7.2) and steering the rule-based heuristic to the upper band.

use oriole_arch::WARP_SIZE;
use oriole_ir::{
    AccessPattern, AluOp, KernelAst, Loop, MemSpace, SharedDecl, SizeExpr, Stmt, TripCount,
};

/// Builds the matVec2D kernel AST for an `n × n` matrix.
pub(crate) fn ast(_n: u64) -> KernelAst {
    let mut k = KernelAst::new("matvec2d");
    // Per-thread shared slot for the intra-block reduction tree.
    k.shared.push(SharedDecl {
        name: "partial".into(),
        elem_bytes: 4,
        elems: 1,
        scales_with_block: true,
    });
    // Shared tile of the x vector, filled cooperatively.
    k.shared.push(SharedDecl {
        name: "x_tile".into(),
        elem_bytes: 4,
        elems: 256,
        scales_with_block: false,
    });

    // Cooperative x-tile fill: the block streams the whole x vector into
    // shared memory, `TC` elements per step — per-thread work is `N/TC`,
    // so global x traffic *falls* as blocks grow. This reuse is the
    // structural reason matVec2D rewards large blocks (paper Fig. 4).
    let tile_fill = Stmt::Loop(Loop {
        trip: TripCount::BlockShare(SizeExpr::N),
        unrollable: false,
        body: vec![
            Stmt::ops(AluOp::AddI32, 1),
            Stmt::load(MemSpace::Global, AccessPattern::Coalesced, 1),
            Stmt::store(MemSpace::Shared, AccessPattern::Coalesced, 1),
        ],
    });

    // Each lane covers N/32 columns of its row.
    let inner = Stmt::Loop(Loop {
        trip: TripCount::Size(SizeExpr::new(1.0 / f64::from(WARP_SIZE), 1)),
        unrollable: true,
        body: vec![
            // 2-D addressing with 64-bit pointer math: row*N + lane +
            // iter*32, widened for both the A and x pointers.
            Stmt::ops(AluOp::MulI32, 1),
            Stmt::ops(AluOp::AddI32, 2),
            Stmt::ops(AluOp::Cvt64, 2),
            Stmt::ops(AluOp::BitI32, 1),
            // A[i][j]: coalesced across lanes.
            Stmt::load(MemSpace::Global, AccessPattern::Coalesced, 1),
            // x[j]: from the shared tile.
            Stmt::load(MemSpace::Shared, AccessPattern::Coalesced, 1),
            Stmt::ops(AluOp::FmaF32, 1),
        ],
    });

    // log2(32) = 5 warp-shuffle reduction steps (butterfly), then one
    // shared-memory exchange for the cross-warp combine.
    let reduction = Stmt::Loop(Loop {
        trip: TripCount::Const(5),
        unrollable: false,
        body: vec![
            // Shuffle-down of the partial sum plus the accumulate.
            Stmt::ops(AluOp::ShuffleF32, 1),
            Stmt::ops(AluOp::BitI32, 1),
            Stmt::ops(AluOp::AddF32, 1),
        ],
    });
    let cross_warp = vec![
        Stmt::store(MemSpace::Shared, AccessPattern::Coalesced, 1),
        Stmt::SyncThreads,
        Stmt::load(MemSpace::Shared, AccessPattern::Coalesced, 1),
        Stmt::ops(AluOp::AddF32, 1),
    ];

    let mut outer_body = vec![
        // Row/lane decomposition: row = gid/32, lane = gid%32.
        Stmt::ops(AluOp::BitI32, 1),
        Stmt::ops(AluOp::MulI32, 1),
        tile_fill,
        Stmt::SyncThreads,
        inner,
        reduction,
    ];
    outer_body.extend(cross_warp);
    // Lane 0 writes y[i].
    outer_body.push(Stmt::store(MemSpace::Global, AccessPattern::Coalesced, 1));

    k.body = vec![Stmt::Loop(Loop {
        // 32 lanes per row → 32·N work items.
        trip: TripCount::GridStride(SizeExpr::new(f64::from(WARP_SIZE), 1)),
        unrollable: false,
        body: outer_body,
    })];
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use oriole_arch::Family;
    use oriole_ir::{expected_mix_of, LaunchGeometry};

    #[test]
    fn structure_and_shared_memory() {
        let k = ast(128);
        assert_eq!(k.loop_depth(), 2);
        assert_eq!(k.shared.len(), 2);
        // Block-scaled reduction slots (4 B/thread) + the fixed 1 KiB
        // x-tile.
        assert_eq!(k.shared_bytes(256), 256 * 4 + 1024);
        assert_eq!(k.shared_bytes(1024), 1024 * 4 + 1024);
    }

    #[test]
    fn fp32_executions_match_analytic_formula() {
        let n = 64u64;
        let geom = LaunchGeometry::new(n, 256, 8);
        let mix = expected_mix_of(&ast(n), Family::Kepler, geom);
        let total_fp32 =
            mix.get(oriole_arch::OpClass::FpIns32) * geom.total_threads() as f64;
        // FpIns32 executions: N² dot-product FMAs, 5 shuffle-reduction
        // adds per lane (32N lanes), and one cross-warp add per lane.
        let expected = (n * n + 5 * 32 * n + 32 * n) as f64;
        let rel = (total_fp32 - expected).abs() / expected;
        assert!(rel < 0.02, "{total_fp32} vs {expected}");
    }

    #[test]
    fn intensity_above_threshold() {
        let geom = LaunchGeometry::new(256, 256, 8);
        let i = expected_mix_of(&ast(256), Family::Kepler, geom).classes().intensity();
        assert!(i > 4.0, "matvec2d intensity {i} must exceed the 4.0 rule threshold");
    }

    #[test]
    fn parallelism_is_32x_rows() {
        // With 32·N = 8192 work items at N=256, a 1024-thread launch still
        // has 8 items per thread; ATAX would have one row per 4 threads.
        let k = ast(256);
        let Stmt::Loop(outer) = &k.body[0] else { panic!("outer loop") };
        assert_eq!(outer.trip.eval(256, 512, 2), 8.0);
    }
}
