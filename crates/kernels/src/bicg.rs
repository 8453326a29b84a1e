//! BiCG: `q = A p`, `s = Aᵀ r` (Table IV, row 2).
//!
//! The BiCGStab subkernel computes two matrix–vector products against the
//! same matrix — one direct, one transposed. The Orio-generated CUDA
//! fuses them into a single row-per-thread grid-stride loop: thread `i`
//! accumulates `q[i] = Σⱼ A[i][j]·p[j]` while also contributing column
//! walks for `s`. The fusion doubles memory traffic per FMA relative to
//! ATAX, which is why the paper measures BiCG's arithmetic intensity
//! *lower* (1.8 vs 3.4, Table VI) while the preferred thread range stays
//! low (Table V) for the same row-parallelism reason.

use oriole_ir::{
    AccessPattern, AluOp, KernelAst, Loop, MemSpace, MemStmt, SizeExpr, Stmt, TripCount,
};

/// Builds the BiCG kernel AST for an `n × n` matrix.
pub(crate) fn ast(_n: u64) -> KernelAst {
    let mut k = KernelAst::new("bicg");

    let inner = Stmt::Loop(Loop {
        trip: TripCount::Size(SizeExpr::N),
        unrollable: true,
        body: vec![
            // A[i][j] for the q-pass: strided row walk.
            Stmt::Load(MemStmt {
                space: MemSpace::Global,
                pattern: AccessPattern::Strided(32),
                elem_bytes: 4,
                count: 1,
            }),
            // A[j][i] for the s-pass: coalesced column walk.
            Stmt::load(MemSpace::Global, AccessPattern::Coalesced, 1),
            // p[j] and r[j]: broadcast vector elements.
            Stmt::load(MemSpace::Global, AccessPattern::Broadcast, 1),
            Stmt::load(MemSpace::Global, AccessPattern::Broadcast, 1),
            // Two accumulations.
            Stmt::ops(AluOp::FmaF32, 2),
        ],
    });

    k.body = vec![Stmt::Loop(Loop {
        trip: TripCount::GridStride(SizeExpr::N),
        unrollable: false,
        body: vec![
            // Row/column base offsets.
            Stmt::ops(AluOp::MulI32, 1),
            inner,
            // q[i] and s[i].
            Stmt::store(MemSpace::Global, AccessPattern::Coalesced, 1),
            Stmt::store(MemSpace::Global, AccessPattern::Coalesced, 1),
        ],
    })];
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use oriole_arch::Family;
    use oriole_ir::{expected_mix_of, LaunchGeometry};

    #[test]
    fn structure() {
        let k = ast(64);
        assert_eq!(k.loop_depth(), 2);
        assert!(!k.has_divergence());
        assert!(k.shared.is_empty());
    }

    #[test]
    fn intensity_below_atax_and_threshold() {
        let n = 256;
        let geom = LaunchGeometry::new(n, 128, 8);
        let bicg_i =
            expected_mix_of(&ast(n), Family::Kepler, geom).classes().intensity();
        let atax_i =
            expected_mix_of(&crate::atax::ast(n), Family::Kepler, geom).classes().intensity();
        assert!(bicg_i <= 4.0, "bicg intensity {bicg_i}");
        assert!(bicg_i < atax_i, "bicg {bicg_i} !< atax {atax_i}");
    }

    #[test]
    fn fma_executions_match_two_passes() {
        let n = 32u64;
        let geom = LaunchGeometry::new(n, 64, 4);
        let mix = expected_mix_of(&ast(n), Family::Maxwell, geom);
        let total_fma =
            mix.get(oriole_arch::OpClass::FpIns32) * geom.total_threads() as f64;
        // `q = Ap` and `s = Aᵀr`: N² FMAs each, the analytic 4N² flops.
        let expected = (2 * n * n) as f64;
        let rel = (total_fma - expected).abs() / expected;
        assert!(rel < 0.05, "{total_fma} vs {expected}");
    }

    #[test]
    fn memory_heavier_than_atax_per_fma() {
        // BiCG loads 4 words per 2 FMAs (2.0/FMA); ATAX 2 per 1 (2.0) —
        // but BiCG's stores double up, so MEM/FLOP must be ≥ ATAX's.
        let n = 128;
        let geom = LaunchGeometry::new(n, 128, 8);
        let b = expected_mix_of(&ast(n), Family::Kepler, geom).classes();
        let a = expected_mix_of(&crate::atax::ast(n), Family::Kepler, geom).classes();
        assert!(b.mem / b.flops >= a.mem / a.flops);
    }
}
