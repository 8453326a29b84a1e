//! Cross-evaluator determinism: a process-level [`ArtifactStore`] must
//! be a pure wall-clock optimization. Whatever combination of sharing,
//! warmth and threading produced a `Measurement`, the numbers are
//! bit-identical to a fresh, private evaluator's — cold and warm,
//! sequential and parallel.

use oriole::arch::Gpu;
use oriole::kernels::KernelId;
use oriole::tuner::{ArtifactStore, Evaluator, Measurement, SearchSpace};
use std::sync::Arc;

/// A thinned Fig. 3 sweep: full UIF × CFLAGS mix (all front-end keys),
/// coarse TC axis.
fn thinned_space() -> SearchSpace {
    let mut space = SearchSpace::paper_default();
    space.tc = vec![64, 128, 256, 1024];
    space.bc = vec![24, 96];
    space
}

#[test]
fn shared_store_matches_fresh_evaluators_cold_and_warm() {
    let kid = KernelId::Bicg;
    let sizes = [64u64, 128];
    let builder = move |n: u64| kid.ast(n);
    let gpu = Gpu::K20.spec();
    let space = thinned_space();
    let points: Vec<_> = space.iter().collect();

    // Ground truth: two *fresh* evaluators, sequential and parallel.
    let fresh_seq = Evaluator::new(&builder, gpu, &sizes);
    let sequential: Vec<Arc<Measurement>> =
        points.iter().map(|&p| fresh_seq.evaluate(p)).collect();
    let fresh_par = Evaluator::new(&builder, gpu, &sizes);
    assert_eq!(fresh_par.evaluate_batch(&points), sequential);

    // One shared store, two borrowed evaluators.
    let store = ArtifactStore::new();
    let first = store.evaluator("bicg", &builder, gpu, &sizes);
    let cold = first.evaluate_batch(&points);
    assert_eq!(cold, sequential, "cold shared sweep diverged from fresh evaluators");
    let unique_after_cold = store.stats().unique_evaluations;
    assert_eq!(unique_after_cold, points.len());

    // Second evaluator over the same scope: warm, computes nothing new,
    // identical results — sequential and parallel traversals both.
    let second = store.evaluator("bicg", &builder, gpu, &sizes);
    let warm_seq: Vec<Arc<Measurement>> = points.iter().map(|&p| second.evaluate(p)).collect();
    let warm_par = second.evaluate_batch(&points);
    assert_eq!(warm_seq, sequential);
    assert_eq!(warm_par, sequential);
    assert_eq!(store.stats().unique_evaluations, unique_after_cold, "warm sweep re-measured");
}

#[test]
fn concurrent_evaluators_on_one_store_stay_deterministic() {
    // Two sweeps racing on one store (the bench-bin pattern): every
    // point computed once, everyone sees the same numbers.
    let kid = KernelId::Atax;
    let sizes = [64u64];
    let builder = move |n: u64| kid.ast(n);
    let gpu = Gpu::K20.spec();
    let space = SearchSpace::tiny();
    let points: Vec<_> = space.iter().collect();

    let store = ArtifactStore::new();
    let (a, b) = std::thread::scope(|scope| {
        let ha = scope.spawn(|| {
            store.evaluator("atax", &builder, gpu, &sizes).evaluate_batch(&points)
        });
        let hb = scope.spawn(|| {
            store.evaluator("atax", &builder, gpu, &sizes).evaluate_batch(&points)
        });
        (ha.join().expect("no panics"), hb.join().expect("no panics"))
    });
    assert_eq!(a, b);
    assert_eq!(store.stats().unique_evaluations, points.len());

    let fresh = Evaluator::new(&builder, gpu, &sizes);
    assert_eq!(fresh.evaluate_batch(&points), a);
}

#[test]
fn sweeps_with_different_sizes_share_artifacts_not_measurements() {
    let kid = KernelId::MatVec2D;
    let builder = move |n: u64| kid.ast(n);
    let gpu = Gpu::M40.spec();
    let space = SearchSpace::tiny();
    let sizes_a = [64u64];
    let sizes_b = [64u64, 256];

    let store = ArtifactStore::new();
    let a = store.evaluator("matvec2d", &builder, gpu, &sizes_a);
    let b = store.evaluator("matvec2d", &builder, gpu, &sizes_b);
    let ma = a.evaluate_space(&space);
    let mb = b.evaluate_space(&space);

    // Fresh ground truth per scope.
    let fa = Evaluator::new(&builder, gpu, &sizes_a);
    let fb = Evaluator::new(&builder, gpu, &sizes_b);
    assert_eq!(ma, fa.evaluate_space(&space));
    assert_eq!(mb, fb.evaluate_space(&space));

    // The shared size produced identical per-size numbers (same
    // front-ends, same model context), under distinct measurement tiers.
    for (x, y) in ma.iter().zip(&mb) {
        if x.feasible {
            assert_eq!(x.per_size_ms[0], y.per_size_ms[0], "{}", x.params);
        }
    }
    let stats = store.stats();
    assert_eq!(stats.measurement_tiers, 2);
    assert_eq!(stats.front_end_tiers, 1, "front-ends shared across the two sweeps");
}
