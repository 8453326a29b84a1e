//! CPU reference semantics and analytic operation counts.
//!
//! The AST encodings in this crate are *resource* models; these functions
//! are the *value* models — the actual mathematics each kernel performs.
//! Tests cross-check the two (e.g. the AST's floating-point operation
//! count at geometry `g` must match the analytic FLOP formula), so the
//! resource model cannot drift from the semantics it claims to describe.

// Index-based loops here mirror the paper's Fortran/C kernel listings
// (and the GPU index arithmetic being modeled) on purpose.
#![allow(clippy::needless_range_loop)]

use crate::workload::Matrix;

/// `y = Aᵀ (A x)` — the ATAX kernel.
pub fn atax(a: &Matrix, x: &[f64]) -> Vec<f64> {
    let n = a.n;
    assert_eq!(x.len(), n);
    let mut tmp = vec![0.0; n];
    for i in 0..n {
        let mut acc = 0.0;
        for j in 0..n {
            acc += a.at(i, j) * x[j];
        }
        tmp[i] = acc;
    }
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut acc = 0.0;
        for j in 0..n {
            acc += a.at(j, i) * tmp[j];
        }
        y[i] = acc;
    }
    y
}

/// BiCG subkernel: `q = A p` and `s = Aᵀ r`, returned as `(q, s)`.
pub fn bicg(a: &Matrix, p: &[f64], r: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let n = a.n;
    assert_eq!(p.len(), n);
    assert_eq!(r.len(), n);
    let mut q = vec![0.0; n];
    let mut s = vec![0.0; n];
    for i in 0..n {
        let mut acc = 0.0;
        for j in 0..n {
            acc += a.at(i, j) * p[j];
        }
        q[i] = acc;
    }
    for j in 0..n {
        let mut acc = 0.0;
        for i in 0..n {
            acc += a.at(i, j) * r[i];
        }
        s[j] = acc;
    }
    (q, s)
}

/// `y = A x` — the matVec2D kernel.
pub fn matvec(a: &Matrix, x: &[f64]) -> Vec<f64> {
    let n = a.n;
    assert_eq!(x.len(), n);
    (0..n)
        .map(|i| (0..n).map(|j| a.at(i, j) * x[j]).sum())
        .collect()
}

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
    use crate::workload;

    fn close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn atax_is_composition_of_matvecs() {
        let a = workload::matrix(24, 11);
        let x = workload::vector(24, 12);
        let tmp = matvec(&a, &x);
        let expected = matvec(&a.transposed(), &tmp);
        close(&atax(&a, &x), &expected);
    }

    #[test]
    fn bicg_halves_match_matvec() {
        let a = workload::matrix(16, 21);
        let p = workload::vector(16, 22);
        let r = workload::vector(16, 23);
        let (q, s) = bicg(&a, &p, &r);
        close(&q, &matvec(&a, &p));
        close(&s, &matvec(&a.transposed(), &r));
    }

    #[test]
    fn matvec_identity() {
        // A = I → y = x.
        let n = 8;
        let mut a = workload::matrix(n, 1);
        a.data.iter_mut().for_each(|v| *v = 0.0);
        for i in 0..n {
            *a.at_mut(i, i) = 1.0;
        }
        let x = workload::vector(n, 2);
        close(&matvec(&a, &x), &x);
    }

    #[test]
    fn flop_formulas() {
        assert_eq!(flops::atax(10), 400);
        assert_eq!(flops::bicg(10), 400);
        assert_eq!(flops::matvec(10), 200);
    }
}
