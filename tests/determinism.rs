//! Determinism guarantees across the whole stack: identical inputs must
//! produce bit-identical outputs regardless of thread scheduling, process
//! runs, or evaluation order — the property that makes every experiment
//! in EXPERIMENTS.md reproducible.

use oriole::arch::Gpu;
use oriole::codegen::{compile, TuningParams};
use oriole::core::analyze;
use oriole::kernels::KernelId;
use oriole::service::{Client, EvalScope, RemoteEvaluator, RetryPolicy, Server};
use oriole::sim::{measure, ModelId, TrialProtocol};
use oriole::tuner::{
    persist, AnnealingSearch, ArtifactStore, EvalProtocol, Evaluator, GeneticSearch, Measurement,
    Oracle, RandomSearch, SearchResult, SearchSpace, Searcher,
};
use std::sync::Arc;

#[test]
fn compile_analyze_measure_are_pure() {
    let gpu = Gpu::M40.spec();
    for kid in [KernelId::Atax, KernelId::Ex14Fj] {
        let n = kid.input_sizes()[2];
        let a = compile(&kid.ast(n), gpu, TuningParams::with_geometry(256, 96)).unwrap();
        let b = compile(&kid.ast(n), gpu, TuningParams::with_geometry(256, 96)).unwrap();
        assert_eq!(a, b, "{kid}: compilation must be deterministic");
        assert_eq!(a.disassembly(), b.disassembly());

        let ra = analyze(&a, n);
        let rb = analyze(&b, n);
        assert_eq!(ra.predicted_time, rb.predicted_time);
        assert_eq!(ra.suggestion, rb.suggestion);

        let ta = measure(&a, n, 10, 99).unwrap();
        let tb = measure(&b, n, 10, 99).unwrap();
        assert_eq!(ta.times_ms, tb.times_ms, "{kid}: seeded noise must replay");
    }
}

#[test]
fn parallel_batch_evaluation_is_order_independent() {
    // The parallel evaluator must give results identical to the
    // sequential path, in input order, no matter how workers interleave.
    let kid = KernelId::Bicg;
    let sizes = [64u64, 128];
    let builder = move |n: u64| kid.ast(n);
    let space = SearchSpace::tiny();
    let points: Vec<_> = space.iter().collect();

    let par = Evaluator::new(&builder, Gpu::K20.spec(), &sizes);
    let batch = par.evaluate_batch(&points);

    let seq = Evaluator::new(&builder, Gpu::K20.spec(), &sizes);
    let sequential: Vec<_> = points.iter().map(|&p| seq.evaluate(p)).collect();

    assert_eq!(batch, sequential);
    // Repeat the parallel run: still identical.
    let par2 = Evaluator::new(&builder, Gpu::K20.spec(), &sizes);
    assert_eq!(par2.evaluate_batch(&points), batch);
}

#[test]
fn warm_cache_replays_cold_results_exactly() {
    // Cold evaluation (compute) and warm evaluation (memo hit, shared
    // front-end artifacts) must be indistinguishable: same numbers from
    // a fresh evaluator, a warmed evaluator, and a warmed parallel
    // batch.
    let kid = KernelId::Atax;
    let sizes = [64u64, 128];
    let builder = move |n: u64| kid.ast(n);
    let space = SearchSpace::tiny();
    let points: Vec<_> = space.iter().collect();

    let warm = Evaluator::new(&builder, Gpu::K20.spec(), &sizes);
    let cold_results = warm.evaluate_batch(&points);
    let unique_after_cold = warm.unique_evaluations();

    // Warm traversals: sequential and parallel, point-wise and batched.
    let warm_seq: Vec<_> = points.iter().map(|&p| warm.evaluate(p)).collect();
    let warm_batch = warm.evaluate_batch(&points);
    assert_eq!(warm_seq, cold_results);
    assert_eq!(warm_batch, cold_results);
    // Warm hits computed nothing new.
    assert_eq!(warm.unique_evaluations(), unique_after_cold);

    // A second evaluator reproduces the cold run bit-for-bit.
    let cold = Evaluator::new(&builder, Gpu::K20.spec(), &sizes);
    assert_eq!(cold.evaluate_batch(&points), cold_results);
}

#[test]
fn rebuilt_batch_path_is_bit_identical_on_fresh_half_warm_warm_and_disk_tiers() {
    // The batch path (hits served inline, misses planned into
    // front-end-grouped chunks) against the plain sequential loop of a
    // fresh evaluator, element for element, duplicates and all.
    let space = SearchSpace::paper_default();
    let sizes = [64u64, 128];
    for (scope, (kid, gpu)) in [
        (KernelId::Atax, Gpu::K20),
        (KernelId::Atax, Gpu::P100),
        (KernelId::MatVec2D, Gpu::K20),
        (KernelId::MatVec2D, Gpu::P100),
    ]
    .into_iter()
    .enumerate()
    {
        let builder = move |n: u64| kid.ast(n);
        let gpu = gpu.spec();
        // Seed-shuffled space with every tenth point repeated somewhere
        // else (xorshift64*, as the fleet scheduler tests use).
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ scope as u64;
        let mut next = move |below: usize| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % below
        };
        let mut points: Vec<TuningParams> = space.iter().collect();
        for i in (1..points.len()).rev() {
            points.swap(i, next(i + 1));
        }
        for i in 0..points.len() / 10 {
            let at = next(points.len() + 1);
            points.insert(at, points[i * 10]);
        }
        let distinct = space.len();
        assert_eq!(points.len(), distinct + distinct / 10);

        let reference = Evaluator::new(&builder, gpu, &sizes);
        let sequential: Vec<_> = points.iter().map(|&p| reference.evaluate(p)).collect();

        // (a) fresh tier, then (c) the same tier fully warm.
        let fresh = Evaluator::new(&builder, gpu, &sizes);
        assert_eq!(fresh.evaluate_batch(&points), sequential, "{kid} {}: fresh", gpu.name);
        assert_eq!(fresh.unique_evaluations(), distinct);
        assert_eq!(fresh.evaluate_batch(&points), sequential, "{kid} {}: warm", gpu.name);
        assert_eq!(fresh.unique_evaluations(), distinct, "a warm batch computes nothing");

        // (b) half-warm tier: the batch computes exactly the other half.
        let half = Evaluator::new(&builder, gpu, &sizes);
        let warmed: std::collections::HashSet<TuningParams> =
            space.iter().filter(|p| (p.tc / 32 + p.bc / 24) % 2 == 0).collect();
        warmed.iter().for_each(|&p| drop(half.evaluate(p)));
        assert_eq!((half.unique_evaluations(), warmed.len()), (distinct / 2, distinct / 2));
        assert_eq!(half.evaluate_batch(&points), sequential, "{kid} {}: half warm", gpu.name);
        assert_eq!(half.unique_evaluations(), distinct, "the batch computed the missing half");

        // (d) disk-backed store: every computed point is spilled once.
        let dir = std::env::temp_dir()
            .join(format!("oriole-determinism-{}-batch-{scope}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::with_disk(&dir).expect("store dir");
        let disk = store.evaluator(kid.name(), &builder, gpu, &sizes);
        assert_eq!(disk.evaluate_batch(&points), sequential, "{kid} {}: disk", gpu.name);
        let stats = disk.stats();
        assert_eq!(stats.unique_evaluations, distinct);
        assert_eq!(stats.disk_spilled, stats.unique_evaluations);
        drop((disk, store));
        let _ = std::fs::remove_dir_all(&dir);
    }

    // A point whose UIF the front-end rejects keeps its slot, infeasible,
    // on the threaded path (its own chunk) and the inline path alike.
    let builder = |n: u64| KernelId::Atax.ast(n);
    let mut points: Vec<TuningParams> = SearchSpace::tiny().iter().collect();
    let rejected = TuningParams { uif: 9, ..points[3] };
    points.insert(5, rejected);
    for batch in [&points[..], &points[4..7]] {
        let ev = Evaluator::new(&builder, Gpu::K20.spec(), &sizes);
        let seq = Evaluator::new(&builder, Gpu::K20.spec(), &sizes);
        let got = ev.evaluate_batch(batch);
        assert_eq!(got, batch.iter().map(|&p| seq.evaluate(p)).collect::<Vec<_>>());
        let slot = batch.iter().position(|p| *p == rejected).expect("in the batch");
        assert!(!got[slot].feasible && got[slot].params == rejected);
        assert_eq!(got.iter().filter(|m| !m.feasible).count(), 1);
    }
}

#[test]
fn geometry_reuse_in_batch_workers_is_bit_identical_across_models_and_trial_protocols() {
    // A batch worker carries one launch scratch per size across its
    // chunk, a lone `evaluate` starts from fresh ones: the sweep, a
    // shuffled batch with repeats and the point-by-point loop must agree
    // on the raw bits of every field (the canonical text carries them).
    let mut space = SearchSpace::paper_default();
    space.tc = (1..=8).map(|i| i * 128).collect();
    space.uif = vec![1, 4, 9]; // the front end rejects 9
    space.sc = vec![1, 3];
    let sizes = [64u64, 256];
    let canonical = |ms: Vec<Arc<Measurement>>| {
        ms.iter().map(|m| persist::emit_measurement(m)).collect::<Vec<_>>()
    };
    // MatVec2D with 32 B of tile per thread: blocks past 512 threads
    // do not fit Kepler's 16 KiB `PreferL1` shared memory.
    let wide_tiles = |n: u64| {
        let mut ast = KernelId::MatVec2D.ast(n);
        ast.shared[0].elems = 8;
        ast
    };
    let atax = |n: u64| KernelId::Atax.ast(n);
    let builders: [(&str, &(dyn Fn(u64) -> oriole::ir::KernelAst + Sync)); 2] =
        [("atax", &atax), ("matvec2d, wide tiles", &wide_tiles)];

    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move |below: usize| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % below
    };
    let mut shuffled: Vec<TuningParams> = space.iter().collect();
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, next(i + 1));
    }
    for i in 0..shuffled.len() / 10 {
        let at = next(shuffled.len() + 1);
        shuffled.insert(at, shuffled[i * 10]);
    }
    let in_space_order = |batch: Vec<String>| {
        let mut by_point = std::collections::HashMap::new();
        for (p, text) in shuffled.iter().zip(batch) {
            let first = by_point.entry(*p).or_insert_with(|| text.clone());
            assert_eq!(*first, text, "a repeated point answered differently");
        }
        space.iter().map(|p| by_point.remove(&p).expect("every point asked")).collect::<Vec<_>>()
    };

    for (name, builder) in builders {
        for gpu in [Gpu::K20, Gpu::P100] {
            for model in ModelId::ALL {
                for protocol in [TrialProtocol::FifthOfTen, TrialProtocol::Median, TrialProtocol::Min] {
                    let what = format!("{name} {gpu} {model} {protocol:?}");
                    let evaluator = || {
                        let protocol = EvalProtocol { model, protocol, ..EvalProtocol::default() };
                        ArtifactStore::new().evaluator_with(name, builder, gpu.spec(), &sizes, protocol)
                    };
                    let lone = evaluator();
                    let one_by_one = canonical(space.iter().map(|p| lone.evaluate(p)).collect());
                    assert_eq!(canonical(evaluator().evaluate_space(&space)), one_by_one, "{what}: sweep");
                    let batch = canonical(evaluator().evaluate_batch(&shuffled));
                    assert_eq!(batch.len(), shuffled.len());
                    assert_eq!(in_space_order(batch), one_by_one, "{what}: shuffled batch");

                    let rejected = space.iter().filter(|p| p.uif == 9).count();
                    let infeasible =
                        space.iter().filter(|&p| !lone.evaluate(p).feasible).count() - rejected;
                    assert_eq!(rejected, space.len() / 3);
                    let expect_tiles_to_bite = name != "atax" && gpu == Gpu::K20;
                    assert_eq!(infeasible > 0, expect_tiles_to_bite, "{what}: {infeasible} infeasible");
                }
            }
        }
    }
}

#[test]
fn stochastic_searchers_replay_exactly() {
    let kid = KernelId::Atax;
    let sizes = [64u64];
    let builder = move |n: u64| kid.ast(n);
    let space = SearchSpace::tiny();

    let run_random = || {
        let ev = Evaluator::new(&builder, Gpu::K20.spec(), &sizes);
        RandomSearch { seed: 5 }.search(&space, &ev, 8)
    };
    assert_eq!(run_random(), run_random());

    let run_anneal = || {
        let ev = Evaluator::new(&builder, Gpu::K20.spec(), &sizes);
        AnnealingSearch { seed: 5, ..Default::default() }.search(&space, &ev, 12)
    };
    assert_eq!(run_anneal(), run_anneal());

    let run_genetic = || {
        let ev = Evaluator::new(&builder, Gpu::K20.spec(), &sizes);
        GeneticSearch { seed: 5, population: 6, ..Default::default() }.search(&space, &ev, 12)
    };
    assert_eq!(run_genetic(), run_genetic());
}

/// One run of every seeded stochastic strategy against `oracle`.
fn seeded_runs(space: &SearchSpace, oracle: &dyn Oracle, seed: u64) -> Vec<SearchResult> {
    vec![
        RandomSearch { seed }.search(space, oracle, 8),
        AnnealingSearch { seed, ..Default::default() }.search(space, oracle, 10),
        GeneticSearch { seed, population: 6, ..Default::default() }.search(space, oracle, 12),
    ]
}

#[test]
fn seeded_searchers_trace_identically_per_seed() {
    // Same seed ⇒ the *entire trace* — every queried point and value,
    // in query order — replays identically; a different seed visibly
    // changes it. This is the replayability contract the service's
    // remote oracle (and `tests/replay.rs`) stand on.
    let kid = KernelId::Atax;
    let sizes = [32u64];
    let builder = move |n: u64| kid.ast(n);
    let space = SearchSpace::paper_default();
    let ev = Evaluator::new(&builder, Gpu::K20.spec(), &sizes);

    let first = seeded_runs(&space, &ev, 7);
    let replayed = seeded_runs(&space, &ev, 7);
    for (a, b) in first.iter().zip(&replayed) {
        assert_eq!(a, b, "same seed must replay the identical trace");
        assert!(!a.trace.is_empty());
    }
    let reseeded = seeded_runs(&space, &ev, 8);
    for (a, c) in first.iter().zip(&reseeded) {
        assert_ne!(a.trace, c.trace, "a different seed must explore differently");
    }
}

#[test]
fn seeded_searchers_trace_identically_through_the_service() {
    // The same seeded searches, one oracle local and one behind a real
    // daemon: traces (points, values, order) must be bit-identical —
    // the property that lets a remote client replay and validate a
    // search log computed anywhere else.
    let kid = KernelId::Atax;
    let sizes = [32u64];
    let builder = move |n: u64| kid.ast(n);
    let space = SearchSpace::paper_default();
    let ev = Evaluator::new(&builder, Gpu::K20.spec(), &sizes);
    let local = seeded_runs(&space, &ev, 11);

    let server = Server::bind("127.0.0.1:0", ArtifactStore::new()).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    let remote = RemoteEvaluator::new(
        Client::connect(&addr).expect("connect"),
        EvalScope {
            kernel: "atax".to_string(),
            gpu: Gpu::K20.spec().clone(),
            sizes: sizes.to_vec(),
            protocol: EvalProtocol::default(),
        },
    );
    let remoted = seeded_runs(&space, &remote, 11);
    assert_eq!(remote.take_error(), None);
    assert_eq!(remoted, local, "remote traces must replay the local ones bit-for-bit");

    Client::connect(&addr).expect("connect").shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn pipelined_coalesced_sweeps_serialize_byte_identically_to_local_and_single_shot() {
    // The same full-space sweep three ways — the local engine, a PR 5
    // style one-point-per-exchange client, and a coalescing pipelined
    // evaluator under eight concurrent threads — compared on the
    // *canonical serialization*: every path must produce the same bytes
    // for every point, so pipelining and batching are invisible in the
    // data.
    use oriole::tuner::persist::emit_measurement;

    let kid = KernelId::Atax;
    let sizes = [64u64];
    let builder = move |n: u64| kid.ast(n);
    let space = SearchSpace::tiny();
    let points: Vec<TuningParams> = space.iter().collect();
    let sc = EvalScope {
        kernel: "atax".to_string(),
        gpu: Gpu::K20.spec().clone(),
        sizes: sizes.to_vec(),
        protocol: EvalProtocol::default(),
    };

    let ev = Evaluator::new(&builder, Gpu::K20.spec(), &sizes);
    let local: Vec<String> =
        points.iter().map(|&p| emit_measurement(&ev.evaluate(p))).collect();

    let server = Server::bind("127.0.0.1:0", ArtifactStore::new()).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || server.run().expect("serve"));

    // One point per exchange, one exchange at a time.
    let single = Client::connect(&addr).expect("connect");
    let one_at_a_time: Vec<String> = points
        .iter()
        .map(|&p| {
            let (_, ms) = single.evaluate(&sc, &[p]).expect("evaluate");
            emit_measurement(&ms[0])
        })
        .collect();
    assert_eq!(one_at_a_time, local, "single-shot exchanges serialize like local");

    // Coalesced + pipelined, under real thread contention.
    let one = std::slice::from_ref(&addr);
    let remote = Arc::new(RemoteEvaluator::over_shards(one, 0, sc, RetryPolicy::default(), 3));
    let swept: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let remote = Arc::clone(&remote);
                let points = points.clone();
                s.spawn(move || {
                    remote
                        .evaluate_batch(&points)
                        .expect("evaluate")
                        .iter()
                        .map(emit_measurement)
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("thread")).collect()
    });
    assert_eq!(remote.take_error(), None);
    for lines in &swept {
        assert_eq!(lines, &local, "pipelined coalesced sweep serializes byte-identically");
    }

    Client::connect(&addr).expect("connect").shutdown().expect("shutdown");
    handle.join().expect("server thread");
}
