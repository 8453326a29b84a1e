//! Simulated annealing over the coordinate grid.

use crate::search::{free_axes, random_coords, Oracle, SearchResult, Searcher};
use crate::space::SearchSpace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Classic simulated annealing: single-coordinate neighbourhood moves
/// with a geometric cooling schedule; worse moves accepted with
/// probability `exp(-Δ/T)`.
#[derive(Debug, Clone, Copy)]
pub struct AnnealingSearch {
    /// RNG seed.
    pub seed: u64,
    /// Initial temperature as a fraction of the first objective value.
    pub initial_temp: f64,
    /// Multiplicative cooling factor per step.
    pub cooling: f64,
}

impl Default for AnnealingSearch {
    fn default() -> Self {
        Self { seed: 42, initial_temp: 0.3, cooling: 0.97 }
    }
}

impl Searcher for AnnealingSearch {
    fn name(&self) -> &'static str {
        "simulated-annealing"
    }

    fn search(&mut self, space: &SearchSpace, oracle: &dyn Oracle, budget: usize)
        -> SearchResult {
        if space.is_empty() {
            return SearchResult::empty();
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let budget = budget.max(2);
        let dims = space.dims();
        let (axes, free) = free_axes(&dims);

        // Start at a random point.
        let mut coords = random_coords(&mut rng, &dims);
        let start = space.at(coords);
        let mut current_val = oracle.eval(start);
        let mut trace = Vec::with_capacity(budget);
        trace.push((start, current_val));
        let mut temp = self.initial_temp * if current_val.is_finite() { current_val } else { 1.0 };

        while trace.len() < budget {
            // Neighbour: one axis with more than one value (uniformly
            // among them), one step up or down.
            let mut next = coords;
            let axis = if free == 0 { 0 } else { axes[rng.gen_range(0..free)] };
            let delta: i64 = if rng.gen_bool(0.5) { 1 } else { -1 };
            let pos = next[axis] as i64 + delta;
            next[axis] = pos.clamp(0, dims[axis] as i64 - 1) as usize;
            if next == coords {
                // Bounced off the boundary: try the opposite direction.
                let pos = next[axis] as i64 - delta;
                next[axis] = pos.clamp(0, dims[axis] as i64 - 1) as usize;
            }
            let candidate = space.at(next);
            let candidate_val = oracle.eval(candidate);
            trace.push((candidate, candidate_val));

            let accept = if candidate_val <= current_val {
                true
            } else if candidate_val.is_finite() && temp > 0.0 {
                let delta = candidate_val - current_val;
                rng.gen_bool((-delta / temp).exp().clamp(0.0, 1.0))
            } else {
                false
            };
            if accept {
                coords = next;
                current_val = candidate_val;
            }
            temp *= self.cooling;
        }
        SearchResult::from_trace(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::tests_support::QuadraticOracle;

    #[test]
    fn converges_to_basin_on_smooth_objective() {
        let space = SearchSpace::paper_default();
        let oracle = QuadraticOracle { ideal_tc: 512.0, ideal_bc: 96.0 };
        let r = AnnealingSearch::default().search(&space, &oracle, 600);
        // Within two grid steps of the optimum.
        assert!((f64::from(r.best.tc) - 512.0).abs() <= 64.0, "tc {}", r.best.tc);
        assert!((f64::from(r.best.bc) - 96.0).abs() <= 48.0, "bc {}", r.best.bc);
    }

    #[test]
    fn respects_budget() {
        let space = SearchSpace::paper_default();
        let oracle = QuadraticOracle { ideal_tc: 128.0, ideal_bc: 48.0 };
        let r = AnnealingSearch::default().search(&space, &oracle, 75);
        assert_eq!(r.evaluations, 75);
    }

    #[test]
    fn deterministic_per_seed() {
        let space = SearchSpace::paper_default();
        let oracle = QuadraticOracle { ideal_tc: 256.0, ideal_bc: 72.0 };
        let a = AnnealingSearch { seed: 3, ..Default::default() }.search(&space, &oracle, 100);
        let b = AnnealingSearch { seed: 3, ..Default::default() }.search(&space, &oracle, 100);
        assert_eq!(a, b);
    }

    #[test]
    fn single_point_space_terminates() {
        let mut space = SearchSpace::tiny();
        space.tc = vec![64];
        space.bc = vec![24];
        let oracle = QuadraticOracle { ideal_tc: 64.0, ideal_bc: 24.0 };
        let r = AnnealingSearch::default().search(&space, &oracle, 10);
        assert_eq!(r.best.tc, 64);
    }
}
