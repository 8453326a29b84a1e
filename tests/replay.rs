//! Workspace-tier coverage for `oriole_tuner::replay`: replayed traces
//! must match live search traces point-for-point when run against the
//! real evaluation stack (compile → simulate → trials), not just the
//! synthetic oracles of the unit tests.

use oriole::arch::Gpu;
use oriole::codegen::{compile, TuningParams};
use oriole::core::predict_time_indexed;
use oriole::kernels::KernelId;
use oriole::tuner::{
    replay, ArtifactStore, Decision, HybridSearch, RandomSearch, SearchSpace, Searcher, TuningLog,
};

fn builder(n: u64) -> oriole::ir::KernelAst {
    KernelId::Atax.ast(n)
}

#[test]
fn hybrid_log_replays_point_for_point_against_the_live_evaluator() {
    let gpu = Gpu::K20.spec();
    let sizes = [32u64, 64];
    let space = SearchSpace::tiny();
    let store = ArtifactStore::new();
    let evaluator = store.evaluator("atax", &builder, gpu, &sizes);

    let n_probe = sizes[sizes.len() / 2];
    let table = gpu.throughput();
    let predictor = move |p: TuningParams| {
        compile(&builder(n_probe), gpu, p)
            .ok()
            .map(|k| predict_time_indexed(table, &k.index, &k.program, k.geometry(n_probe)))
    };
    let mut search = HybridSearch::new(predictor, 0.5);
    let result = search.search(&space, &evaluator, usize::MAX);
    assert!(!result.trace.is_empty());

    let report = replay(&search.log, &evaluator, 0.05);

    // Every live trace point appears in the replay with the identical
    // objective value — point for point, bit for bit.
    for (params, live_value) in &result.trace {
        let (_, replayed) = report
            .outcomes
            .iter()
            .find(|(e, _)| e.params == *params)
            .unwrap_or_else(|| panic!("trace point {params} missing from replay"));
        assert_eq!(
            replayed.to_bits(),
            live_value.to_bits(),
            "replayed {params} diverged from the live trace"
        );
    }
    // Replay also measures statically pruned points, so its best is at
    // least as good as the search's — and the search's best appears in
    // the outcomes with its exact live value.
    let (_, best_time) = report.best.expect("finite outcomes exist");
    assert!(best_time <= result.best_time);
    let (_, search_best_replayed) = report
        .outcomes
        .iter()
        .find(|(e, _)| e.params == result.best)
        .expect("search best was logged");
    assert_eq!(search_best_replayed.to_bits(), result.best_time.to_bits());
    // Replay deduplicates: one outcome per distinct logged point.
    let mut seen: Vec<TuningParams> = Vec::new();
    for e in search.log.entries() {
        if !seen.contains(&e.params) {
            seen.push(e.params);
        }
    }
    assert_eq!(report.outcomes.len(), seen.len());
}

#[test]
fn replay_reproduces_a_random_search_trace_on_a_fresh_evaluator() {
    let gpu = Gpu::M40.spec();
    let sizes = [64u64];
    let space = SearchSpace::tiny();
    let store = ArtifactStore::new();
    let live = store.evaluator("atax", &builder, gpu, &sizes);

    let mut search = RandomSearch { seed: 7 };
    let result = search.search(&space, &live, 8);
    let mut log = TuningLog::new();
    for (p, v) in &result.trace {
        log.record(*p, Decision::Explored, None, Some(*v));
    }

    // Replay against a *fresh* evaluator (its own tiers, nothing
    // shared): the evaluation layer is deterministic, so the replayed
    // values match the live trace exactly.
    let fresh_store = ArtifactStore::new();
    let fresh = fresh_store.evaluator("atax", &builder, gpu, &sizes);
    let report = replay(&log, &fresh, 0.05);
    for (entry, replayed) in &report.outcomes {
        let live_value = result
            .trace
            .iter()
            .find(|(p, _)| *p == entry.params)
            .map(|(_, v)| *v)
            .expect("every replayed entry came from the trace");
        assert_eq!(replayed.to_bits(), live_value.to_bits(), "{}", entry.params);
    }
    // The logged measurements round-trip through the text serialization.
    let text = log.to_text();
    assert!(text.starts_with("# oriole tuning log v1"));
    assert_eq!(text.lines().count(), 1 + log.entries().len());
}

#[test]
fn hybrid_replay_validates_static_decisions_on_the_live_stack() {
    // With a tiny dial the hybrid search prunes most of the space
    // statically; replaying the log against the empirical evaluator is
    // the §VII validation loop. Whatever the verdict (the Eq. 6 model
    // is imperfect), the report must be internally consistent.
    let gpu = Gpu::K20.spec();
    let sizes = [64u64];
    let space = SearchSpace::tiny();
    let store = ArtifactStore::new();
    let evaluator = store.evaluator("atax", &builder, gpu, &sizes);

    let table = gpu.throughput();
    let predictor = move |p: TuningParams| {
        compile(&builder(64), gpu, p)
            .ok()
            .map(|k| predict_time_indexed(table, &k.index, &k.program, k.geometry(64)))
    };
    let mut search = HybridSearch::new(predictor, 0.1);
    search.search(&space, &evaluator, usize::MAX);
    assert!(search.log.with_decision(Decision::StaticPruned).count() > 0);

    let report = replay(&search.log, &evaluator, 0.05);
    assert!((0.0..=1.0).contains(&report.prediction_agreement));
    if let Some((winner, time)) = report.pruned_winner {
        // A flagged pruned winner must really have been pruned and
        // really beat every suggested variant's replayed time.
        assert!(search
            .log
            .with_decision(Decision::StaticPruned)
            .any(|e| e.params == winner));
        let best_suggested = report
            .outcomes
            .iter()
            .filter(|(e, _)| e.decision == Decision::StaticSuggested)
            .map(|(_, v)| *v)
            .fold(f64::INFINITY, f64::min);
        assert!(time < best_suggested);
    }
}
