//! Nelder–Mead simplex search on the normalized coordinate cube.
//!
//! The simplex moves through `[0,1]^d` (one dimension per multi-valued
//! axis); every vertex is snapped to the nearest grid point before
//! evaluation. Standard reflect / expand / contract / shrink updates.

use crate::search::{free_axes, Oracle, SearchResult, Searcher};
use crate::space::SearchSpace;
use oriole_codegen::TuningParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A point of `[0,1]^d`: its first `d ≤ 6` coordinates, the rest unused.
type Vertex = [f64; 6];

/// Nelder–Mead simplex with grid snapping.
#[derive(Debug, Clone, Copy)]
pub struct NelderMeadSearch {
    /// Seed for the initial simplex placement.
    pub seed: u64,
    /// Reflection coefficient (standard: 1).
    pub alpha: f64,
    /// Expansion coefficient (standard: 2).
    pub gamma: f64,
    /// Contraction coefficient (standard: 0.5).
    pub rho: f64,
    /// Shrink coefficient (standard: 0.5).
    pub sigma: f64,
}

impl Default for NelderMeadSearch {
    fn default() -> Self {
        Self { seed: 42, alpha: 1.0, gamma: 2.0, rho: 0.5, sigma: 0.5 }
    }
}

impl Searcher for NelderMeadSearch {
    fn name(&self) -> &'static str {
        "nelder-mead"
    }

    fn search(&mut self, space: &SearchSpace, oracle: &dyn Oracle, budget: usize)
        -> SearchResult {
        if space.is_empty() {
            return SearchResult::empty();
        }
        let dims = space.dims();
        let (axes, free) = free_axes(&dims);
        let d = free.max(1);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let budget = budget.max(d + 2);
        let mut trace: Vec<(TuningParams, f64)> = Vec::with_capacity(budget);

        // Snaps a vertex to its grid point and queries it.
        let eval_at = |x: &Vertex, trace: &mut Vec<(TuningParams, f64)>| -> f64 {
            let mut coords = [0usize; 6];
            for (k, &axis) in axes[..free].iter().enumerate() {
                let clamped = x[k].clamp(0.0, 1.0);
                let idx = (clamped * (dims[axis] as f64 - 1.0)).round() as usize;
                coords[axis] = idx.min(dims[axis] - 1);
            }
            let p = space.at(coords);
            let v = oracle.eval(p);
            trace.push((p, v));
            v
        };

        let blend = |a: &Vertex, b: &Vertex, t: f64| -> Vertex {
            std::array::from_fn(|k| a[k] + t * (b[k] - a[k]))
        };

        // Initial simplex: d+1 random vertices.
        let mut simplex = [([0.0; 6], 0.0); 7];
        for vertex in &mut simplex[..=d] {
            for x in &mut vertex.0[..d] {
                *x = rng.gen_range(0.0..1.0);
            }
            vertex.1 = eval_at(&vertex.0, &mut trace);
        }
        let simplex = &mut simplex[..=d];

        while trace.len() < budget {
            simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("comparable"));
            let best_val = simplex[0].1;
            let worst_idx = simplex.len() - 1;
            let (worst_x, worst_val) = simplex[worst_idx];
            let second_worst = simplex[worst_idx - 1].1;

            // Centroid of all but the worst vertex.
            let mut centroid = [0.0; 6];
            for (x, _) in simplex.iter().take(worst_idx) {
                for k in 0..d {
                    centroid[k] += x[k];
                }
            }
            for c in &mut centroid[..d] {
                *c /= worst_idx as f64;
            }

            // Reflect.
            let reflected = blend(&centroid, &worst_x, -self.alpha);
            let refl_val = eval_at(&reflected, &mut trace);
            if refl_val < best_val && trace.len() < budget {
                // Expand.
                let expanded = blend(&centroid, &worst_x, -self.gamma);
                let exp_val = eval_at(&expanded, &mut trace);
                simplex[worst_idx] = if exp_val < refl_val {
                    (expanded, exp_val)
                } else {
                    (reflected, refl_val)
                };
            } else if refl_val < second_worst {
                simplex[worst_idx] = (reflected, refl_val);
            } else if trace.len() < budget {
                // Contract (toward the better of worst/reflected).
                let (toward, toward_val) = if refl_val < worst_val {
                    (&reflected, refl_val)
                } else {
                    (&worst_x, worst_val)
                };
                let contracted = blend(&centroid, toward, self.rho);
                let contr_val = eval_at(&contracted, &mut trace);
                if contr_val < toward_val {
                    simplex[worst_idx] = (contracted, contr_val);
                } else {
                    // Shrink everything toward the best vertex.
                    let best_x = simplex[0].0;
                    for vertex in simplex.iter_mut().skip(1) {
                        if trace.len() >= budget {
                            break;
                        }
                        let shrunk = blend(&best_x, &vertex.0, self.sigma);
                        let v = eval_at(&shrunk, &mut trace);
                        *vertex = (shrunk, v);
                    }
                }
            }
        }
        SearchResult::from_trace(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::tests_support::QuadraticOracle;

    #[test]
    fn converges_on_smooth_objective() {
        let space = SearchSpace::paper_default();
        let oracle = QuadraticOracle { ideal_tc: 384.0, ideal_bc: 144.0 };
        let r = NelderMeadSearch::default().search(&space, &oracle, 300);
        assert!((f64::from(r.best.tc) - 384.0).abs() <= 96.0, "tc {}", r.best.tc);
        assert!((f64::from(r.best.bc) - 144.0).abs() <= 48.0, "bc {}", r.best.bc);
    }

    #[test]
    fn respects_budget_within_shrink_granularity() {
        let space = SearchSpace::paper_default();
        let oracle = QuadraticOracle { ideal_tc: 96.0, ideal_bc: 72.0 };
        let r = NelderMeadSearch::default().search(&space, &oracle, 80);
        // The simplex may overshoot by at most one operation.
        assert!(r.evaluations <= 82, "{}", r.evaluations);
    }

    #[test]
    fn deterministic_per_seed() {
        let space = SearchSpace::paper_default();
        let oracle = QuadraticOracle { ideal_tc: 640.0, ideal_bc: 24.0 };
        let a = NelderMeadSearch::default().search(&space, &oracle, 120);
        let b = NelderMeadSearch::default().search(&space, &oracle, 120);
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_single_axis_space() {
        let mut space = SearchSpace::tiny();
        space.bc = vec![48];
        let oracle = QuadraticOracle { ideal_tc: 256.0, ideal_bc: 48.0 };
        let r = NelderMeadSearch::default().search(&space, &oracle, 40);
        assert_eq!(r.best.bc, 48);
        assert!(r.best_time.is_finite());
    }
}
