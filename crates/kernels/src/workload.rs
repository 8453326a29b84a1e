//! Deterministic workload generators.
//!
//! All generators are seeded (`rand::rngs::StdRng`), so every test,
//! example and experiment sees identical data run-to-run — noise belongs
//! to the simulator's measurement model, not to the inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense row-major `n × n` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Dimension.
    pub n: usize,
    /// Row-major data, `n * n` elements.
    pub data: Vec<f64>,
}

impl Matrix {
    /// Element accessor (row, col).
    pub(crate) fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Mutable element accessor.
    pub(crate) fn at_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        &mut self.data[i * self.n + j]
    }

    /// The transpose (used by reference checks).
    pub fn transposed(&self) -> Matrix {
        let mut t = Matrix { n: self.n, data: vec![0.0; self.n * self.n] };
        for i in 0..self.n {
            for j in 0..self.n {
                *t.at_mut(j, i) = self.at(i, j);
            }
        }
        t
    }
}

/// Generates an `n × n` matrix with entries uniform in `[-1, 1)`.
pub fn matrix(n: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix { n, data: (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect() }
}

/// Generates a length-`n` vector with entries uniform in `[-1, 1)`.
pub fn vector(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(matrix(16, 7), matrix(16, 7));
        assert_eq!(vector(16, 7), vector(16, 7));
        // Different seeds → different data.
        assert_ne!(matrix(16, 7), matrix(16, 8));
    }

    #[test]
    fn matrix_transpose_involution() {
        let m = matrix(12, 3);
        assert_eq!(m.transposed().transposed(), m);
        assert_eq!(m.at(3, 5), m.transposed().at(5, 3));
    }

    #[test]
    fn values_in_expected_ranges() {
        let m = matrix(32, 5);
        assert!(m.data.iter().all(|v| (-1.0..1.0).contains(v)));
    }
}
