//! The paper's contribution: the static-analysis search module (§III-C,
//! §IV-C).
//!
//! "Orio collects instruction counts for the CUDA kernel and computes the
//! instruction mix metrics and occupancy rates [...]. A rule-based model
//! is invoked, which produces suggested parameter coordinates for Orio to
//! search."
//!
//! The module prunes the `TC` axis to the analyzer's suggested `T*` set
//! (static pruning), optionally narrowed further to the intensity-rule
//! band (rule-based pruning), then runs any inner search strategy —
//! exhaustive by default, matching §IV-C's accounting where the search
//! space shrinks from 5,120 to 640 (Kepler: 4 of 32 thread values kept,
//! 87.5% improvement) and to ~93.8% with the rule applied.

use crate::search::{ExhaustiveSearch, Oracle, SearchResult, Searcher};
use crate::space::SearchSpace;
use oriole_core::StaticAnalysis;

/// How aggressively the analyzer prunes the thread axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneLevel {
    /// `T*` only (the "Static" bars of Fig. 6).
    Static,
    /// `T*` narrowed to the intensity-rule band (the "RB" bars).
    RuleBased,
}

/// Reduction accounting for Fig. 6.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticSearchReport {
    /// Points in the unpruned space.
    pub full_space: usize,
    /// Points in the pruned space actually searched.
    pub pruned_space: usize,
    /// `1 − pruned/full` — the paper's "improvement" percentage.
    pub improvement: f64,
    /// Thread values kept.
    pub threads_kept: Vec<u32>,
}

/// The static-analysis search module.
pub struct StaticSearch<S = ExhaustiveSearch> {
    /// The static analysis steering the pruning (computed without any
    /// program runs).
    pub analysis: StaticAnalysis,
    /// Pruning aggressiveness.
    pub level: PruneLevel,
    /// Inner strategy run on the pruned space.
    pub inner: S,
    /// Filled by [`Searcher::search`]: the reduction accounting.
    pub report: Option<StaticSearchReport>,
}

impl StaticSearch<ExhaustiveSearch> {
    /// Static pruning with exhaustive inner search (the paper's primary
    /// configuration).
    pub fn new(analysis: StaticAnalysis, level: PruneLevel) -> Self {
        StaticSearch { analysis, level, inner: ExhaustiveSearch, report: None }
    }
}

impl<S: Searcher> StaticSearch<S> {
    /// Static pruning around any inner strategy ("The search space
    /// reduced through static binary analysis can then be explored using
    /// one of the existing search methods", §IV-C).
    pub fn with_inner(analysis: StaticAnalysis, level: PruneLevel, inner: S) -> Self {
        StaticSearch { analysis, level, inner, report: None }
    }

    /// The thread values the analyzer keeps at this prune level.
    fn suggested_threads(&self) -> Vec<u32> {
        match self.level {
            PruneLevel::Static => self.analysis.suggestion.thread_counts.clone(),
            PruneLevel::RuleBased => self.analysis.rule_threads.clone(),
        }
    }
}

impl<S: Searcher> Searcher for StaticSearch<S> {
    fn name(&self) -> &'static str {
        match self.level {
            PruneLevel::Static => "static",
            PruneLevel::RuleBased => "static+rules",
        }
    }

    fn search(&mut self, space: &SearchSpace, oracle: &dyn Oracle, budget: usize)
        -> SearchResult {
        let threads = self.suggested_threads();
        // Prune; if the suggestion misses the grid entirely, fall back to
        // the full space (the analyzer must never make tuning impossible).
        let pruned = space.restrict_tc(&threads).unwrap_or_else(|| space.clone());
        self.report = Some(StaticSearchReport {
            full_space: space.len(),
            pruned_space: pruned.len(),
            improvement: 1.0 - pruned.len() as f64 / space.len() as f64,
            threads_kept: pruned.tc.clone(),
        });
        self.inner.search(&pruned, oracle, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oriole_arch::Gpu;
    use oriole_codegen::{compile, TuningParams};
    use oriole_core::analyze;
    use oriole_kernels::KernelId;

    fn analysis(kid: KernelId, gpu: Gpu, n: u64) -> StaticAnalysis {
        let kernel =
            compile(&kid.ast(n), gpu.spec(), TuningParams::with_geometry(128, 48)).unwrap();
        analyze(&kernel, n)
    }

    struct TcOracle;
    impl Oracle for TcOracle {
        fn eval(&self, p: TuningParams) -> f64 {
            // Favour small thread counts, mildly penalize everything
            // else so the minimum is unique.
            f64::from(p.tc) + f64::from(p.bc) * 0.001 + f64::from(p.uif) * 0.0001
        }
    }

    #[test]
    fn kepler_static_pruning_matches_paper_accounting() {
        // Kepler T* = {128, 256, 512, 1024}: 4 of 32 thread values →
        // 5120 → 640, an 87.5% improvement (§IV-C).
        let a = analysis(KernelId::Atax, Gpu::K20, 256);
        let mut s = StaticSearch::new(a, PruneLevel::Static);
        let space = SearchSpace::paper_default();
        let r = s.search(&space, &TcOracle, usize::MAX);
        let report = s.report.clone().unwrap();
        assert_eq!(report.full_space, 5120);
        assert_eq!(report.pruned_space, 640);
        assert!((report.improvement - 0.875).abs() < 1e-12);
        // Best point uses a suggested thread value.
        assert!(report.threads_kept.contains(&r.best.tc));
        assert_eq!(r.evaluations, 640);
    }

    #[test]
    fn fermi_static_pruning_is_84_percent() {
        // Fermi keeps 5 of 32 thread values → 84.4%.
        let a = analysis(KernelId::Atax, Gpu::M2050, 256);
        let mut s = StaticSearch::new(a, PruneLevel::Static);
        let space = SearchSpace::paper_default();
        s.search(&space, &TcOracle, usize::MAX);
        let report = s.report.unwrap();
        assert_eq!(report.threads_kept, vec![192, 256, 384, 512, 768]);
        assert!((report.improvement - (1.0 - 5.0 / 32.0)).abs() < 1e-12);
    }

    #[test]
    fn rule_based_pruning_reaches_93_8_percent() {
        // Low-intensity ATAX on Kepler: rule keeps the lower half of
        // {128,256,512,1024} → 2 of 32 → 93.75%.
        let a = analysis(KernelId::Atax, Gpu::K20, 256);
        let mut s = StaticSearch::new(a, PruneLevel::RuleBased);
        let space = SearchSpace::paper_default();
        s.search(&space, &TcOracle, usize::MAX);
        let report = s.report.unwrap();
        assert_eq!(report.threads_kept, vec![128, 256]);
        assert!((report.improvement - 0.9375).abs() < 1e-12);
    }

    #[test]
    fn high_intensity_kernel_keeps_upper_band() {
        let a = analysis(KernelId::Ex14Fj, Gpu::K20, 64);
        let mut s = StaticSearch::new(a, PruneLevel::RuleBased);
        let space = SearchSpace::paper_default();
        s.search(&space, &TcOracle, usize::MAX);
        assert_eq!(s.report.unwrap().threads_kept, vec![512, 1024]);
    }

    #[test]
    fn inner_strategy_is_pluggable() {
        let a = analysis(KernelId::Bicg, Gpu::M40, 128);
        let inner = crate::search::RandomSearch { seed: 5 };
        let mut s = StaticSearch::with_inner(a, PruneLevel::Static, inner);
        let space = SearchSpace::paper_default();
        let r = s.search(&space, &TcOracle, 50);
        assert_eq!(r.evaluations, 50);
        let report = s.report.unwrap();
        assert!(report.pruned_space < report.full_space);
    }

    #[test]
    fn suggestion_off_grid_falls_back_to_full_space() {
        let a = analysis(KernelId::Atax, Gpu::K20, 64);
        let mut s = StaticSearch::new(a, PruneLevel::Static);
        // A space whose TC axis misses every suggested value.
        let mut space = SearchSpace::tiny();
        space.tc = vec![96, 160];
        let r = s.search(&space, &TcOracle, usize::MAX);
        let report = s.report.unwrap();
        assert_eq!(report.pruned_space, report.full_space);
        assert_eq!(report.improvement, 0.0);
        assert!(r.best_time.is_finite());
    }
}
