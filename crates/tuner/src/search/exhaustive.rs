//! Exhaustive search: the §IV-B baseline that visits every variant.

use crate::search::{Oracle, SearchResult, Searcher};
use crate::space::SearchSpace;
use oriole_codegen::TuningParams;

/// Sweeps the whole space. The paper uses this as ground truth ("We use
/// the exhaustive empirical autotuning results from Sec. IV-B as the
/// baseline for validating whether our search approach could find the
/// optimal solution").
#[derive(Debug, Clone, Copy, Default)]
pub struct ExhaustiveSearch;

impl Searcher for ExhaustiveSearch {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn search(
        &mut self,
        space: &SearchSpace,
        oracle: &dyn Oracle,
        _budget: usize,
    ) -> SearchResult {
        if space.is_empty() {
            return SearchResult::empty();
        }
        let points: Vec<TuningParams> = space.iter().collect();
        let values = oracle.eval_many(&points);
        let (best_idx, best_time) = values
            .iter()
            .copied()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("comparable"))
            .expect("non-empty space");
        SearchResult {
            best: points[best_idx],
            best_time,
            evaluations: points.len(),
            trace: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::tests_support::{CountingOracle, QuadraticOracle};

    #[test]
    fn finds_global_minimum() {
        let space = SearchSpace::tiny();
        let oracle = QuadraticOracle { ideal_tc: 256.0, ideal_bc: 96.0 };
        let r = ExhaustiveSearch.search(&space, &oracle, 0);
        assert_eq!(r.best.tc, 256);
        assert_eq!(r.best.bc, 96);
        assert_eq!(r.evaluations, space.len());
    }

    #[test]
    fn visits_every_point_exactly_once() {
        let space = SearchSpace::tiny();
        let oracle = CountingOracle::new();
        ExhaustiveSearch.search(&space, &oracle, 0);
        assert_eq!(oracle.calls(), space.len());
    }
}
