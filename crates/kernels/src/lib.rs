//! # oriole-kernels — the paper's benchmark kernels (Table IV)
//!
//! Four CUDA kernels drive the paper's evaluation; this crate encodes each
//! as a [`KernelAst`] whose loop structure, operation
//! mix, memory-access patterns and divergence behaviour match the CUDA
//! source Orio generates:
//!
//! | Kernel | Category | Operation |
//! |---|---|---|
//! | [`atax`] | elementary linear algebra | `y = Aᵀ(Ax)` |
//! | [`bicg`] | linear solvers (BiCGStab subkernel) | `q = Ap`, `s = Aᵀr` |
//! | [`ex14fj`] | 3-D Jacobi computation | solid-fuel-ignition stencil |
//! | [`matvec2d`] | elementary linear algebra | `y = Ax` |
//!
//! [`reference`](mod@reference) holds analytic FLOP formulas; tests cross-check the
//! ATAX and BiCG encodings against them, so the resource model cannot
//! silently drift from the mathematics.
//!
//! [`KernelId::input_sizes`] has the sizes used in §IV-A ({32..512},
//! ex14FJ {8..128}). [`synthetic`] holds the one kernel outside Table
//! IV, the Fig. 1 divergence experiment's.

#![warn(missing_docs)]

pub mod atax;
pub mod bicg;
pub mod ex14fj;
pub mod matvec2d;
pub mod reference;
pub mod synthetic;

use oriole_ir::KernelAst;

/// Identifies one of the paper's benchmark kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelId {
    /// `y = Aᵀ(Ax)` — two passes over `A`, one transposed.
    Atax,
    /// BiCGStab subkernel: `q = Ap` and `s = Aᵀr`.
    Bicg,
    /// 3-D Jacobi stencil from the solid-fuel ignition example.
    Ex14Fj,
    /// `y = Ax` row-per-thread matrix–vector multiply.
    MatVec2D,
}

/// All four kernels in Table IV order.
pub const ALL_KERNELS: [KernelId; 4] =
    [KernelId::Atax, KernelId::Bicg, KernelId::Ex14Fj, KernelId::MatVec2D];

impl KernelId {
    /// Paper's kernel name.
    pub fn name(self) -> &'static str {
        match self {
            KernelId::Atax => "atax",
            KernelId::Bicg => "bicg",
            KernelId::Ex14Fj => "ex14fj",
            KernelId::MatVec2D => "matvec2d",
        }
    }

    /// Parses the paper's kernel names (several spellings accepted).
    pub fn parse(s: &str) -> Option<KernelId> {
        match s.trim().to_ascii_lowercase().as_str() {
            "atax" => Some(KernelId::Atax),
            "bicg" => Some(KernelId::Bicg),
            "ex14fj" | "ex14" => Some(KernelId::Ex14Fj),
            "matvec2d" | "matvec" => Some(KernelId::MatVec2D),
            _ => None,
        }
    }

    /// Builds the kernel AST for problem size `n`.
    pub fn ast(self, n: u64) -> KernelAst {
        match self {
            KernelId::Atax => atax::ast(n),
            KernelId::Bicg => bicg::ast(n),
            KernelId::Ex14Fj => ex14fj::ast(n),
            KernelId::MatVec2D => matvec2d::ast(n),
        }
    }

    /// The five input sizes the paper evaluates for this kernel (§IV-A):
    /// {32, 64, 128, 256, 512} except ex14FJ, which uses {8..128} because
    /// its domain is `N³` cells.
    pub fn input_sizes(self) -> [u64; 5] {
        match self {
            KernelId::Ex14Fj => [8, 16, 32, 64, 128],
            _ => [32, 64, 128, 256, 512],
        }
    }

    /// Table IV "Category" column.
    pub fn category(self) -> &'static str {
        match self {
            KernelId::Atax => "Elementary linear algebra",
            KernelId::Bicg => "Linear solvers",
            KernelId::Ex14Fj => "3-D Jacobi computation",
            KernelId::MatVec2D => "Elementary linear algebra",
        }
    }

    /// Table IV "Operation" column.
    pub fn operation(self) -> &'static str {
        match self {
            KernelId::Atax => "y = A^T (A x)",
            KernelId::Bicg => "q = A p, s = A^T r",
            KernelId::Ex14Fj => "F(x) = A(x) x - b = 0",
            KernelId::MatVec2D => "y = A x",
        }
    }
}

impl std::fmt::Display for KernelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for k in ALL_KERNELS {
            assert_eq!(KernelId::parse(k.name()), Some(k));
        }
        assert_eq!(KernelId::parse("ATAX"), Some(KernelId::Atax));
        assert_eq!(KernelId::parse("gemm"), None);
    }

    #[test]
    fn input_sizes_match_the_paper() {
        assert_eq!(KernelId::Atax.input_sizes(), [32, 64, 128, 256, 512]);
        assert_eq!(KernelId::Ex14Fj.input_sizes(), [8, 16, 32, 64, 128]);
    }

    #[test]
    fn asts_build_and_validate() {
        for k in ALL_KERNELS {
            let ast = k.ast(64);
            assert_eq!(ast.name, k.name());
            assert!(ast.loop_depth() >= 1, "{k} must contain loops");
        }
    }
}
