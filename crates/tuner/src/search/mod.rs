//! Search algorithms over the tuning space.
//!
//! Orio's stock strategies (§III-C: "Current search algorithms in Orio
//! include exhaustive, random, simulated annealing, genetic, and
//! Nelder-Mead simplex methods") plus the paper's contribution, the
//! [`StaticSearch`] module that prunes the space with the static
//! analyzer before searching.

mod anneal;
mod exhaustive;
mod genetic;
mod hybrid;
mod neldermead;
mod random;
mod static_search;

pub use anneal::AnnealingSearch;
pub use exhaustive::ExhaustiveSearch;
pub use genetic::GeneticSearch;
pub use hybrid::HybridSearch;
pub use neldermead::NelderMeadSearch;
pub use random::RandomSearch;
pub use static_search::{PruneLevel, StaticSearch, StaticSearchReport};

use crate::space::SearchSpace;
use oriole_codegen::TuningParams;
use rand::rngs::StdRng;
use rand::Rng;

/// The objective oracle a searcher queries. Implementations memoize and
/// parallelize internally; `eval` must be deterministic per point.
pub trait Oracle: Sync {
    /// Objective value for one point (lower is better; infeasible points
    /// return `f64::INFINITY`).
    fn eval(&self, params: TuningParams) -> f64;

    /// Batch evaluation; the default falls back to per-point calls.
    ///
    /// # Ordering contract
    ///
    /// `eval_many(points)[i]` is the value of `points[i]` — always, even
    /// when an implementation evaluates out of order, in parallel, or
    /// deduplicates repeats. Searchers rely on positional correspondence
    /// to zip values back onto their points, so results are never
    /// reordered, filtered, or deduplicated in the returned vector:
    ///
    /// ```
    /// use oriole_codegen::TuningParams;
    /// use oriole_tuner::Oracle;
    ///
    /// struct TcOracle;
    /// impl Oracle for TcOracle {
    ///     fn eval(&self, p: TuningParams) -> f64 {
    ///         f64::from(p.tc)
    ///     }
    /// }
    ///
    /// let a = TuningParams::with_geometry(128, 48);
    /// let b = TuningParams::with_geometry(64, 48);
    /// // Input order is preserved, and repeats appear once per request.
    /// assert_eq!(TcOracle.eval_many(&[a, b, a]), vec![128.0, 64.0, 128.0]);
    /// ```
    fn eval_many(&self, points: &[TuningParams]) -> Vec<f64> {
        points.iter().map(|&p| self.eval(p)).collect()
    }
}

impl Oracle for crate::eval::Evaluator<'_> {
    fn eval(&self, params: TuningParams) -> f64 {
        crate::eval::Evaluator::evaluate(self, params).time_ms
    }

    fn eval_many(&self, points: &[TuningParams]) -> Vec<f64> {
        self.evaluate_batch(points).into_iter().map(|m| m.time_ms).collect()
    }
}

/// Outcome of one search run.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// Best point found.
    pub best: TuningParams,
    /// Its objective value (ms).
    pub best_time: f64,
    /// Objective queries issued (revisits included).
    pub evaluations: usize,
    /// Search trace: `(point, value)` in query order (exhaustive search
    /// leaves it empty to avoid 5,120-entry clones; its trace is the
    /// space order).
    pub trace: Vec<(TuningParams, f64)>,
}

impl SearchResult {
    /// The outcome every searcher gives an **empty** space: zero
    /// evaluations, an empty trace, the default point as a placeholder
    /// `best` and an infinite `best_time` — the same sentinel an
    /// all-infeasible space produces, so callers already handling
    /// "nothing launchable" handle "nothing to search" for free.
    pub(crate) fn empty() -> SearchResult {
        SearchResult {
            best: TuningParams::default(),
            best_time: f64::INFINITY,
            evaluations: 0,
            trace: Vec::new(),
        }
    }

    fn from_trace(trace: Vec<(TuningParams, f64)>) -> SearchResult {
        let (best, best_time) = trace
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("objective values comparable"))
            .map(|(p, t)| (*p, *t))
            .expect("non-empty trace");
        SearchResult { best, best_time, evaluations: trace.len(), trace }
    }
}

/// The axes of `dims` with more than one value, in index order, and
/// how many there are: the free axes of a neighbourhood or a simplex.
fn free_axes(dims: &[usize; 6]) -> ([usize; 6], usize) {
    let (mut axes, mut free) = ([0; 6], 0);
    for axis in (0..6).filter(|&i| dims[i] > 1) {
        axes[free] = axis;
        free += 1;
    }
    (axes, free)
}

/// Uniform coordinates on a grid of axis lengths `dims`, none empty:
/// where an annealing run starts, a genome of the first generation.
fn random_coords(rng: &mut StdRng, dims: &[usize; 6]) -> [usize; 6] {
    dims.map(|d| rng.gen_range(0..d))
}

/// A search strategy.
pub trait Searcher {
    /// Strategy name for reports.
    fn name(&self) -> &'static str;

    /// Runs the search on `space`, querying `oracle` at most `budget`
    /// times (exhaustive ignores the budget and sweeps the space).
    fn search(&mut self, space: &SearchSpace, oracle: &dyn Oracle, budget: usize)
        -> SearchResult;
}

#[cfg(test)]
pub(crate) mod tests_support {
    //! Synthetic oracles for exercising search strategies without the
    //! compile/simulate stack.

    use super::Oracle;
    use oriole_codegen::TuningParams;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Smooth objective minimized at `(ideal_tc, ideal_bc)`; separable
    /// and unimodal, so every sane searcher should find the basin.
    pub(crate) struct QuadraticOracle {
        pub ideal_tc: f64,
        pub ideal_bc: f64,
    }

    impl Oracle for QuadraticOracle {
        fn eval(&self, p: TuningParams) -> f64 {
            let dt = (f64::from(p.tc) - self.ideal_tc) / 1024.0;
            let db = (f64::from(p.bc) - self.ideal_bc) / 192.0;
            1.0 + dt * dt + db * db + 0.01 * f64::from(p.uif - 1)
        }
    }

    /// Counts oracle queries (thread-safe).
    pub(crate) struct CountingOracle {
        inner: QuadraticOracle,
        count: AtomicUsize,
    }

    impl CountingOracle {
        pub(crate) fn new() -> CountingOracle {
            CountingOracle {
                inner: QuadraticOracle { ideal_tc: 128.0, ideal_bc: 48.0 },
                count: AtomicUsize::new(0),
            }
        }

        pub(crate) fn calls(&self) -> usize {
            self.count.load(Ordering::Relaxed)
        }
    }

    impl Oracle for CountingOracle {
        fn eval(&self, p: TuningParams) -> f64 {
            self.count.fetch_add(1, Ordering::Relaxed);
            self.inner.eval(p)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::CountingOracle;
    use super::*;

    #[test]
    fn every_searcher_answers_an_empty_space_with_the_empty_result() {
        let tiny = SearchSpace::tiny();
        let spaces = [
            SearchSpace { tc: Vec::new(), ..tiny.clone() },
            SearchSpace { bc: Vec::new(), ..tiny.clone() },
            SearchSpace { cflags: Vec::new(), ..tiny },
        ];
        let oracle = CountingOracle::new();
        for space in &spaces {
            let searchers: [Box<dyn Searcher>; 5] = [
                Box::new(ExhaustiveSearch),
                Box::new(RandomSearch::default()),
                Box::new(AnnealingSearch::default()),
                Box::new(GeneticSearch::default()),
                Box::new(NelderMeadSearch::default()),
            ];
            for mut searcher in searchers {
                for budget in [0, 1, 60] {
                    let r = searcher.search(space, &oracle, budget);
                    assert_eq!(r, SearchResult::empty(), "{} at budget {budget}", searcher.name());
                }
            }
        }
        assert_eq!(oracle.calls(), 0, "nothing to evaluate");
    }
}
