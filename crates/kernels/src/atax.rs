//! ATAX: `y = Aᵀ (A x)` (Table IV, row 1).
//!
//! The Orio-generated CUDA assigns **one matrix row per thread** via a
//! grid-stride loop and runs two passes:
//!
//! 1. `tmp = A·x` — thread `i` walks row `i`. Consecutive threads read
//!    `A[i][j]` and `A[i+1][j]`, which sit `N` elements apart in the
//!    row-major layout: a **strided** (uncoalesced) pattern, the
//!    performance-defining property of this kernel.
//! 2. `y = Aᵀ·tmp` — thread `i` walks column `i`, so consecutive threads
//!    read consecutive addresses: **coalesced**.
//!
//! With only `N ≤ 512` rows of parallelism, large blocks concentrate the
//! whole kernel on one or two SMs; small blocks spread it across the
//! device. This is the structural reason the paper's exhaustive search
//! (Fig. 4, Table V) finds ATAX's best thread counts in the *low* range —
//! and the low arithmetic intensity (Table VI: 3.4) keeps the rule-based
//! heuristic in the lower thread band too.

use oriole_ir::{
    AccessPattern, AluOp, KernelAst, Loop, MemSpace, SizeExpr, Stmt, TripCount,
};

/// Builds the ATAX kernel AST for an `n × n` matrix.
///
/// `n` is carried symbolically (trip counts are [`SizeExpr`]s); the value
/// only selects nothing here, but is kept for interface symmetry with
/// [`crate::ex14fj::ast`], whose divergence fraction depends on `n`.
pub(crate) fn ast(_n: u64) -> KernelAst {
    let mut k = KernelAst::new("atax");

    // Pass 1: tmp = A·x, one row per grid-stride thread.
    let pass1 = Stmt::Loop(Loop {
        trip: TripCount::GridStride(SizeExpr::N),
        unrollable: false,
        body: vec![
            // Row-base offset: i*N, widened to a 64-bit pointer.
            Stmt::ops(AluOp::MulI32, 1),
            Stmt::ops(AluOp::Cvt64, 1),
            Stmt::Loop(Loop {
                trip: TripCount::Size(SizeExpr::N),
                unrollable: true,
                body: vec![
                    // A[i][j]: stride-N across the warp.
                    Stmt::Load(oriole_ir::MemStmt {
                        space: MemSpace::Global,
                        pattern: AccessPattern::Strided(32),
                        elem_bytes: 4,
                        count: 1,
                    }),
                    // x[j]: every lane reads the same element.
                    Stmt::load(MemSpace::Global, AccessPattern::Broadcast, 1),
                    // Column pointer bump (64-bit) and the accumulate.
                    Stmt::ops(AluOp::AddI32, 1),
                    Stmt::ops(AluOp::FmaF32, 1),
                ],
            }),
            // tmp[i]: one element per thread, coalesced.
            Stmt::store(MemSpace::Global, AccessPattern::Coalesced, 1),
        ],
    });

    // Device-wide synchronization between the passes (separate kernel
    // launch in the CUDA original; a barrier models its ordering cost).
    let sync = Stmt::SyncThreads;

    // Pass 2: y = Aᵀ·tmp, one column per grid-stride thread.
    let pass2 = Stmt::Loop(Loop {
        trip: TripCount::GridStride(SizeExpr::N),
        unrollable: false,
        body: vec![
            Stmt::ops(AluOp::AddI32, 1),
            Stmt::ops(AluOp::Cvt64, 1),
            Stmt::Loop(Loop {
                trip: TripCount::Size(SizeExpr::N),
                unrollable: true,
                body: vec![
                    // A[j][i]: consecutive lanes hit consecutive columns.
                    Stmt::load(MemSpace::Global, AccessPattern::Coalesced, 1),
                    // tmp[j]: broadcast.
                    Stmt::load(MemSpace::Global, AccessPattern::Broadcast, 1),
                    // Row pointer advances by N elements (64-bit).
                    Stmt::ops(AluOp::AddI32, 1),
                    Stmt::ops(AluOp::FmaF32, 1),
                ],
            }),
            Stmt::store(MemSpace::Global, AccessPattern::Coalesced, 1),
        ],
    });

    k.body = vec![pass1, sync, pass2];
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use oriole_arch::Family;
    use oriole_ir::{expected_mix_of, LaunchGeometry};

    // Small shim: lower + expected mix in one call for test brevity.
    fn mix(n: u64, tc: u32, bc: u32) -> oriole_ir::ClassMix {
        expected_mix_of(&ast(n), Family::Kepler, LaunchGeometry::new(n, tc, bc)).classes()
    }

    #[test]
    fn two_passes_and_a_barrier() {
        let k = ast(128);
        assert_eq!(k.body.len(), 3);
        assert_eq!(k.loop_depth(), 2);
        assert!(!k.has_divergence());
    }

    #[test]
    fn fma_count_matches_analytic_flops() {
        // Expected FMA executions per thread × total threads = 2N²
        // (one FMA per matrix element per pass).
        let n = 64u64;
        let (tc, bc) = (128u32, 8u32);
        let geom = LaunchGeometry::new(n, tc, bc);
        let program = oriole_ir::lower(
            &ast(n),
            Family::Kepler,
            oriole_ir::lower::LowerOptions::default(),
        );
        let per_thread = oriole_ir::count::expected_mix(&program, geom);
        let fma_total =
            per_thread.get(oriole_arch::OpClass::FpIns32) * geom.total_threads() as f64;
        // 2 passes × N² FMAs: the analytic 4N² flops, an FMA counted as two.
        let expected = (2 * n * n) as f64;
        let rel = (fma_total - expected).abs() / expected;
        assert!(rel < 0.05, "fma_total {fma_total} vs expected {expected}");
    }

    #[test]
    fn intensity_is_low_band() {
        // ATAX must sit at or below the paper's 4.0 rule threshold.
        let m = mix(256, 128, 8);
        let i = m.intensity();
        assert!(i > 0.5 && i <= 4.0, "intensity {i}");
    }

    #[test]
    fn fma_work_is_geometry_invariant_in_expectation() {
        // The O(N²) dot-product work is fixed; only per-thread overhead
        // (prologue, loop preheaders) scales with the grid. FMA totals
        // must therefore be geometry-invariant.
        let n = 128u64;
        let program = oriole_ir::lower(
            &ast(n),
            Family::Kepler,
            oriole_ir::lower::LowerOptions::default(),
        );
        let fma_total = |tc: u32, bc: u32| {
            let geom = LaunchGeometry::new(n, tc, bc);
            oriole_ir::count::expected_mix(&program, geom)
                .get(oriole_arch::OpClass::FpIns32)
                * geom.total_threads() as f64
        };
        let a = fma_total(64, 8);
        let b = fma_total(512, 16);
        let rel = (a - b).abs() / a;
        assert!(rel < 0.01, "{a} vs {b}");
    }
}
