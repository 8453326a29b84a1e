//! Analytic operation counts.
//!
//! The AST encodings in this crate are *resource* models. Tests
//! cross-check them against these formulas (the AST's floating-point
//! operation count at geometry `g` must match the analytic FLOP count),
//! so the resource model cannot drift from the mathematics it claims to
//! describe.

/// Analytic floating-point operation counts (multiply–add counted as two
/// FLOPs), the denominators for roofline-style sanity checks.
pub mod flops {
    /// ATAX: two `N²`-FMA passes → `4N²`.
    pub fn atax(n: u64) -> u64 {
        4 * n * n
    }

    /// BiCG: two `N²`-FMA passes → `4N²`.
    pub fn bicg(n: u64) -> u64 {
        4 * n * n
    }

    /// matVec: one `N²`-FMA pass → `2N²`.
    pub fn matvec(n: u64) -> u64 {
        2 * n * n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_formulas() {
        assert_eq!(flops::atax(10), 400);
        assert_eq!(flops::bicg(10), 400);
        assert_eq!(flops::matvec(10), 200);
    }
}
