//! Genetic search: generational GA over grid coordinates.

use crate::search::{random_coords, Oracle, SearchResult, Searcher};
use crate::space::SearchSpace;
use oriole_codegen::TuningParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generational genetic algorithm: tournament selection, uniform
/// per-axis crossover, per-axis mutation, elitism.
#[derive(Debug, Clone, Copy)]
pub struct GeneticSearch {
    /// RNG seed.
    pub seed: u64,
    /// Population size.
    pub population: usize,
    /// Per-axis mutation probability.
    pub mutation_rate: f64,
    /// Individuals preserved unchanged each generation.
    pub elites: usize,
}

impl Default for GeneticSearch {
    fn default() -> Self {
        Self { seed: 42, population: 24, mutation_rate: 0.15, elites: 2 }
    }
}

type Genome = [usize; 6];

impl Searcher for GeneticSearch {
    fn name(&self) -> &'static str {
        "genetic"
    }

    fn search(&mut self, space: &SearchSpace, oracle: &dyn Oracle, budget: usize)
        -> SearchResult {
        if space.is_empty() {
            return SearchResult::empty();
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let dims = space.dims();
        let pop_size = self.population.max(4).min(budget.max(4));
        let mut trace: Vec<(TuningParams, f64)> = Vec::with_capacity(budget);

        let assess = |genomes: &[Genome],
                          trace: &mut Vec<(TuningParams, f64)>|
         -> Vec<(Genome, f64)> {
            let points: Vec<TuningParams> = genomes.iter().map(|&g| space.at(g)).collect();
            let values = oracle.eval_many(&points);
            for (p, v) in points.iter().zip(&values) {
                trace.push((*p, *v));
            }
            genomes.iter().copied().zip(values).collect()
        };

        // Initial population.
        let genomes: Vec<Genome> =
            (0..pop_size).map(|_| random_coords(&mut rng, &dims)).collect();
        let mut scored = assess(&genomes, &mut trace);
        sort_scored(&mut scored);

        while trace.len() + pop_size <= budget {
            let mut next: Vec<Genome> =
                scored.iter().take(self.elites).map(|(g, _)| *g).collect();
            while next.len() < pop_size {
                let a = tournament(&mut rng, &scored);
                let b = tournament(&mut rng, &scored);
                let mut child = crossover(&mut rng, a, b);
                mutate(&mut rng, &mut child, &dims, self.mutation_rate);
                next.push(child);
            }
            let mut next_scored = assess(&next, &mut trace);
            sort_scored(&mut next_scored);
            scored = next_scored;
        }
        SearchResult::from_trace(trace)
    }
}

fn sort_scored(scored: &mut [(Genome, f64)]) {
    scored.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("comparable"));
}

fn tournament(rng: &mut StdRng, scored: &[(Genome, f64)]) -> Genome {
    let pick = |rng: &mut StdRng| scored[rng.gen_range(0..scored.len())];
    let a = pick(rng);
    let b = pick(rng);
    if a.1 <= b.1 {
        a.0
    } else {
        b.0
    }
}

fn crossover(rng: &mut StdRng, a: Genome, b: Genome) -> Genome {
    let mut child = a;
    for i in 0..6 {
        if rng.gen_bool(0.5) {
            child[i] = b[i];
        }
    }
    child
}

fn mutate(rng: &mut StdRng, g: &mut Genome, dims: &[usize; 6], rate: f64) {
    for i in 0..6 {
        if dims[i] > 1 && rng.gen_bool(rate) {
            g[i] = rng.gen_range(0..dims[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::tests_support::QuadraticOracle;

    #[test]
    fn converges_on_smooth_objective() {
        let space = SearchSpace::paper_default();
        let oracle = QuadraticOracle { ideal_tc: 768.0, ideal_bc: 120.0 };
        let r = GeneticSearch::default().search(&space, &oracle, 600);
        assert!((f64::from(r.best.tc) - 768.0).abs() <= 64.0, "tc {}", r.best.tc);
        assert!((f64::from(r.best.bc) - 120.0).abs() <= 48.0, "bc {}", r.best.bc);
    }

    #[test]
    fn stays_within_budget() {
        let space = SearchSpace::paper_default();
        let oracle = QuadraticOracle { ideal_tc: 128.0, ideal_bc: 24.0 };
        let r = GeneticSearch::default().search(&space, &oracle, 200);
        assert!(r.evaluations <= 200, "{}", r.evaluations);
        assert!(r.evaluations >= 24);
    }

    #[test]
    fn deterministic_per_seed() {
        let space = SearchSpace::paper_default();
        let oracle = QuadraticOracle { ideal_tc: 512.0, ideal_bc: 48.0 };
        let a = GeneticSearch::default().search(&space, &oracle, 150);
        let b = GeneticSearch::default().search(&space, &oracle, 150);
        assert_eq!(a, b);
    }

    #[test]
    fn tiny_budget_still_returns_best_seen() {
        let space = SearchSpace::tiny();
        let oracle = QuadraticOracle { ideal_tc: 64.0, ideal_bc: 24.0 };
        let r = GeneticSearch::default().search(&space, &oracle, 8);
        assert!(r.best_time.is_finite());
        assert!(r.evaluations <= 8);
    }
}
