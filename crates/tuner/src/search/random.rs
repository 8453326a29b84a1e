//! Random search: uniform sampling without replacement.

use crate::search::{Oracle, SearchResult, Searcher};
use crate::space::SearchSpace;
use oriole_codegen::TuningParams;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Samples `budget` distinct points uniformly at random. One of Orio's
/// stock strategies for "strictly controlling the time spent autotuning"
/// (§IV-C).
#[derive(Debug, Clone, Copy)]
pub struct RandomSearch {
    /// RNG seed (runs are reproducible).
    pub seed: u64,
}

impl Default for RandomSearch {
    fn default() -> Self {
        Self { seed: 42 }
    }
}

impl Searcher for RandomSearch {
    fn name(&self) -> &'static str {
        "random"
    }

    fn search(&mut self, space: &SearchSpace, oracle: &dyn Oracle, budget: usize)
        -> SearchResult {
        if space.is_empty() {
            return SearchResult::empty();
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let take = budget.clamp(1, space.len());
        let mut indices: Vec<usize> = (0..space.len()).collect();
        indices.shuffle(&mut rng);
        indices.truncate(take);
        let points: Vec<TuningParams> = indices.iter().map(|&i| space.point(i)).collect();
        let values = oracle.eval_many(&points);
        let trace: Vec<(TuningParams, f64)> = points.into_iter().zip(values).collect();
        SearchResult::from_trace(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::tests_support::{CountingOracle, QuadraticOracle};

    #[test]
    fn respects_budget_and_avoids_duplicates() {
        let space = SearchSpace::paper_default();
        let oracle = CountingOracle::new();
        let r = RandomSearch::default().search(&space, &oracle, 100);
        assert_eq!(r.evaluations, 100);
        assert_eq!(oracle.calls(), 100);
        let mut seen = r.trace.clone();
        seen.sort_by_key(|(p, _)| (p.tc, p.bc, p.uif, p.pl.kb(), p.sc, p.cflags.fast_math));
        seen.dedup_by_key(|(p, _)| *p);
        assert_eq!(seen.len(), 100, "sampling must be without replacement");
    }

    #[test]
    fn budget_larger_than_space_is_exhaustive() {
        let space = SearchSpace::tiny();
        let oracle = QuadraticOracle { ideal_tc: 512.0, ideal_bc: 24.0 };
        let r = RandomSearch::default().search(&space, &oracle, 10_000);
        assert_eq!(r.evaluations, space.len());
        assert_eq!(r.best.tc, 512);
        assert_eq!(r.best.bc, 24);
    }

    #[test]
    fn deterministic_per_seed() {
        let space = SearchSpace::paper_default();
        let oracle = QuadraticOracle { ideal_tc: 256.0, ideal_bc: 96.0 };
        let a = RandomSearch { seed: 7 }.search(&space, &oracle, 64);
        let b = RandomSearch { seed: 7 }.search(&space, &oracle, 64);
        assert_eq!(a, b);
        let c = RandomSearch { seed: 8 }.search(&space, &oracle, 64);
        assert_ne!(a.trace, c.trace);
    }
}
