//! The §VII "dial-in" hybrid search.
//!
//! > "The optimization spectrum is a continuum from purely static-based
//! > methods to ones that incorporate empirical search [...] the degree
//! > of empirical testing can be 'dialed in' during the autotuning
//! > process, depending on what the user accepts."
//!
//! [`HybridSearch`] ranks the *entire* space with the static Eq. 6
//! predictor (compiling but never executing — §IV-C's cost model), then
//! spends the empirical budget only on the best-predicted fraction. With
//! `dial = 0.0` it degenerates to pure static selection (one confirmation
//! measurement); with `dial = 1.0` it is exhaustive empirical search.
//! Every decision is recorded in a [`TuningLog`] so the run can be
//! replayed and validated later ([`crate::replay`]).

use crate::replay::{Decision, TuningLog};
use crate::search::{Oracle, SearchResult, Searcher};
use crate::space::SearchSpace;
use oriole_codegen::TuningParams;

/// Static-first search with a dialable empirical budget.
pub struct HybridSearch<P> {
    /// Static cost predictor: `None` marks a variant statically
    /// infeasible (it is skipped and logged as pruned). Typically wraps
    /// `compile` + `oriole_core::predict_time_indexed` over the compiled
    /// kernel's `index`.
    pub predictor: P,
    /// Fraction of the space to test empirically, in `[0, 1]`.
    pub dial: f64,
    /// Decision log, filled during [`Searcher::search`].
    pub log: TuningLog,
}

impl<P: Fn(TuningParams) -> Option<f64>> HybridSearch<P> {
    /// Creates a hybrid search with the given predictor and dial.
    pub fn new(predictor: P, dial: f64) -> HybridSearch<P> {
        HybridSearch { predictor, dial: dial.clamp(0.0, 1.0), log: TuningLog::new() }
    }
}

impl<P: Fn(TuningParams) -> Option<f64>> Searcher for HybridSearch<P> {
    fn name(&self) -> &'static str {
        "hybrid-dial"
    }

    fn search(&mut self, space: &SearchSpace, oracle: &dyn Oracle, budget: usize)
        -> SearchResult {
        // Phase 1: static ranking of the whole space (no execution).
        let mut ranked: Vec<(TuningParams, f64)> = Vec::with_capacity(space.len());
        for p in space.iter() {
            match (self.predictor)(p) {
                Some(cost) => ranked.push((p, cost)),
                None => self.log.record(p, Decision::StaticPruned, None, None),
            }
        }
        ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite predictions"));

        // Phase 2: empirical testing of the best-predicted slice.
        let take = ((ranked.len() as f64 * self.dial).ceil() as usize)
            .clamp(1, ranked.len().max(1))
            .min(budget.max(1));
        let (head, tail) = ranked.split_at(take.min(ranked.len()));
        for (p, pred) in tail {
            self.log.record(*p, Decision::StaticPruned, Some(*pred), None);
        }
        if head.is_empty() {
            // An empty space, or every point pruned: nothing to measure.
            return SearchResult::empty();
        }
        let points: Vec<TuningParams> = head.iter().map(|(p, _)| *p).collect();
        let values = oracle.eval_many(&points);
        let mut trace = Vec::with_capacity(points.len());
        for ((p, pred), v) in head.iter().zip(values) {
            self.log.record(*p, Decision::StaticSuggested, Some(*pred), Some(v));
            trace.push((*p, v));
        }
        let result = SearchResult::from_trace(trace);
        self.log.record(
            result.best,
            Decision::SelectedBest,
            head.iter().find(|(p, _)| *p == result.best).map(|(_, c)| *c),
            Some(result.best_time),
        );
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay;

    /// Oracle: true cost is tc + bc/1000 (smaller is better).
    struct TrueCost;
    impl Oracle for TrueCost {
        fn eval(&self, p: TuningParams) -> f64 {
            f64::from(p.tc) + f64::from(p.bc) / 1000.0
        }
    }

    /// A predictor correlated with the true cost but imperfect: it
    /// ignores bc entirely.
    fn predictor(p: TuningParams) -> Option<f64> {
        Some(f64::from(p.tc))
    }

    #[test]
    fn dial_zero_is_pure_static() {
        let space = SearchSpace::tiny();
        let mut s = HybridSearch::new(predictor, 0.0);
        let r = s.search(&space, &TrueCost, usize::MAX);
        // One empirical confirmation only.
        assert_eq!(r.evaluations, 1);
        // The static model's best TC is picked.
        assert_eq!(r.best.tc, 64);
    }

    #[test]
    fn dial_one_is_exhaustive() {
        let space = SearchSpace::tiny();
        let mut s = HybridSearch::new(predictor, 1.0);
        let r = s.search(&space, &TrueCost, usize::MAX);
        assert_eq!(r.evaluations, space.len());
        // Exhaustive empirical finds the true optimum (tc=64, bc=24).
        assert_eq!((r.best.tc, r.best.bc), (64, 24));
    }

    #[test]
    fn dial_quarter_tests_quarter() {
        let space = SearchSpace::tiny(); // 16 points
        let mut s = HybridSearch::new(predictor, 0.25);
        let r = s.search(&space, &TrueCost, usize::MAX);
        assert_eq!(r.evaluations, 4);
        // The 4 best-predicted points are all tc=64, so the true best
        // among them has bc=24.
        assert_eq!((r.best.tc, r.best.bc), (64, 24));
    }

    #[test]
    fn budget_caps_empirical_slice() {
        let space = SearchSpace::tiny();
        let mut s = HybridSearch::new(predictor, 1.0);
        let r = s.search(&space, &TrueCost, 3);
        assert_eq!(r.evaluations, 3);
    }

    #[test]
    fn infeasible_variants_logged_not_tested() {
        let space = SearchSpace::tiny();
        let pred = |p: TuningParams| {
            if p.tc > 128 {
                None // statically infeasible
            } else {
                Some(f64::from(p.tc))
            }
        };
        let mut s = HybridSearch::new(pred, 1.0);
        let r = s.search(&space, &TrueCost, usize::MAX);
        // Only tc ∈ {64, 128} survive: 8 of 16 points.
        assert_eq!(r.evaluations, 8);
        let pruned = s.log.entries().iter().filter(|e| e.decision == Decision::StaticPruned);
        assert_eq!(pruned.count(), 8);
    }

    #[test]
    fn log_replays_and_validates() {
        let space = SearchSpace::tiny();
        let mut s = HybridSearch::new(predictor, 0.5);
        s.search(&space, &TrueCost, usize::MAX);
        let report = replay(&s.log, &TrueCost, 0.05);
        // The predictor's tc-ordering agrees with the oracle's dominant
        // term.
        assert!(report.prediction_agreement > 0.9);
        // Nothing 5%-better was pruned: tc dominates the true cost.
        assert!(report.pruned_winner.is_none());
        assert_eq!(report.best.unwrap().0.tc, 64);
    }
}
