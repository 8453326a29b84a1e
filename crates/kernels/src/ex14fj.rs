//! ex14FJ: 3-D solid-fuel-ignition Jacobi computation (Table IV, row 3).
//!
//! The kernel evaluates `F(x) = A(x)·x − b` with
//! `A(u)v ≈ −∇·(κ(u)∇v)` on an `N³` rectangular grid — the Jacobian
//! computation of PETSc's ex14 solid-fuel ignition example in 3-D (the
//! paper's footnote 2). Properties that shape its tuning behaviour:
//!
//! * `N³` cells of parallelism (up to 2M at N=128): any launch geometry
//!   keeps the device saturated, so block-dispatch amortization favours
//!   mid-to-large blocks (paper Fig. 4's diffuse Rank-1 pattern);
//! * heavy per-cell arithmetic — a 7-point stencil with a nonlinear
//!   `λ·exp(u)` reaction term and coefficient averaging — pushing
//!   intensity well above the rule threshold (Table VI: 12.7–16.3);
//! * a **divergent boundary branch**: cells on the domain surface take a
//!   cheap pass-through path while interior cells compute the stencil.
//!   The boundary fraction `1 − (1−2/N)³` makes warp divergence an
//!   explicit function of `N` — the Fig. 1 effect in a real kernel.

use oriole_ir::{
    AccessPattern, AluOp, Branch, DivergenceKind, KernelAst, Loop, MemSpace, SizeExpr,
    Stmt, TripCount,
};

/// Fraction of grid cells on the boundary of an `n³` domain.
fn boundary_fraction(n: u64) -> f64 {
    if n <= 2 {
        return 1.0;
    }
    let interior = ((n - 2) as f64 / n as f64).powi(3);
    1.0 - interior
}

/// Builds the ex14FJ kernel AST for an `n³` grid. Unlike the matrix
/// kernels, the AST depends on `n`: the divergent-branch fraction is the
/// boundary fraction of the domain.
pub fn ast(n: u64) -> KernelAst {
    let mut k = KernelAst::new("ex14fj");

    // Interior path: 7-point stencil + nonlinear reaction term.
    let interior = vec![
        // Centre load streams from DRAM (first touch, coalesced: lanes
        // walk the contiguous k direction).
        Stmt::load(MemSpace::Global, AccessPattern::Coalesced, 1),
        // The six neighbours were brought in by adjacent cells' centre
        // loads and hit the cache — broadcast-class service (each value
        // is re-read rather than re-fetched from DRAM).
        Stmt::load(MemSpace::Global, AccessPattern::Broadcast, 6),
        // Laplacian: 6 adds + centre scale.
        Stmt::ops(AluOp::AddF32, 6),
        Stmt::ops(AluOp::MulF32, 1),
        // κ(u) coefficient evaluation and harmonic averaging on 6 faces:
        // per face two adds, two multiplies, a divide (the harmonic mean)
        // and two fused accumulates for the flux contribution.
        Stmt::ops(AluOp::AddF32, 12),
        Stmt::ops(AluOp::MulF32, 12),
        Stmt::ops(AluOp::DivF32, 2),
        Stmt::ops(AluOp::FmaF32, 24),
        // Nonlinear reaction: λ·exp(u) and the Jacobian's exp-derivative
        // term (two exponentials with scale/accumulate each).
        Stmt::ops(AluOp::ExpF32, 2),
        Stmt::ops(AluOp::FmaF32, 4),
        // Final residual combine and diagonal scaling.
        Stmt::ops(AluOp::AddF32, 2),
        Stmt::ops(AluOp::MulF32, 2),
        Stmt::store(MemSpace::Global, AccessPattern::Coalesced, 1),
    ];

    // Boundary path: identity pass-through.
    let boundary = vec![
        Stmt::load(MemSpace::Global, AccessPattern::Coalesced, 1),
        Stmt::store(MemSpace::Global, AccessPattern::Coalesced, 1),
    ];

    k.body = vec![Stmt::Loop(Loop {
        trip: TripCount::GridStride(SizeExpr::N3),
        unrollable: false,
        body: vec![
            // 3-D index decode: two divides-by-N via multiply/shift
            // (strength-reduced) and remainders.
            Stmt::ops(AluOp::MulI32, 2),
            Stmt::ops(AluOp::AddI32, 2),
            Stmt::ops(AluOp::BitI32, 2),
            Stmt::If(Branch {
                divergence: DivergenceKind::ThreadDependent,
                taken_fraction: boundary_fraction(n),
                then_body: boundary,
                else_body: interior,
            }),
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
    fn boundary_fraction_shrinks_with_n() {
        assert_eq!(boundary_fraction(2), 1.0);
        let f8 = boundary_fraction(8);
        let f32 = boundary_fraction(32);
        let f128 = boundary_fraction(128);
        assert!(f8 > f32 && f32 > f128);
        // N=8: 1-(6/8)³ = 0.578125.
        assert!((f8 - 0.578125).abs() < 1e-12);
        assert!(f128 < 0.05);
    }

    #[test]
    fn kernel_is_divergent() {
        let k = ast(32);
        assert!(k.has_divergence());
        assert_eq!(k.loop_depth(), 1);
    }

    #[test]
    fn intensity_is_high_band() {
        let geom = LaunchGeometry::new(64, 256, 64);
        let i = expected_mix_of(&ast(64), Family::Kepler, geom).classes().intensity();
        assert!(i > 4.0, "ex14fj intensity {i} must exceed the rule threshold");
    }

    #[test]
    fn interior_flops_dominate_at_large_n() {
        // At N=128 the boundary fraction is <5%, so FLOPS-per-cell should
        // approach the interior cost; at N=8 over half the cells take the
        // cheap path.
        let geom_small = LaunchGeometry::new(8, 64, 8);
        let geom_large = LaunchGeometry::new(128, 64, 8);
        let per_cell = |n: u64, geom: LaunchGeometry| {
            let mix = expected_mix_of(&ast(n), Family::Kepler, geom);
            mix.classes().flops * geom.total_threads() as f64 / (n * n * n) as f64
        };
        let small = per_cell(8, geom_small);
        let large = per_cell(128, geom_large);
        assert!(large > small, "large-N per-cell flops {large} !> {small}");
    }

    #[test]
    fn work_scales_cubically() {
        let k = ast(64);
        let Stmt::Loop(outer) = &k.body[0] else { panic!() };
        // 64³ = 262144 cells over 8192 threads = 32 iterations.
        assert_eq!(outer.trip.eval(64, 512, 16), 32.0);
    }
}
