//! The remote evaluation engine over several daemons: a [`FleetSpec`]
//! names them and the scope's home shard, and
//! [`RemoteEvaluator::with_policy`] spreads a batch across them —
//! bit-identical to a local run, each chunk completed once, each point
//! fetched once, a dead shard rebalanced away and a deterministic error
//! latched instead.

mod common;

use common::{dead_addr, local_sweep, scope, spawn_server};
use oriole_arch::Gpu;
use oriole_codegen::TuningParams;
use oriole_kernels::KernelId;
use oriole_service::{Client, FleetSpec, RemoteEvaluator, RetryPolicy};
use oriole_tuner::{ArtifactStore, Oracle, SearchSpace};
use std::time::Duration;

/// A policy that declares a shard dead quickly, so dead-shard tests
/// stay fast.
fn impatient() -> RetryPolicy {
    RetryPolicy {
        max_retries: 1,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(10),
        rpc_timeout: Duration::from_secs(5),
        ..RetryPolicy::default()
    }
}

#[test]
fn fleet_sweep_is_bit_identical_to_local_and_completes_each_chunk_once() {
    let gpu = Gpu::K20.spec();
    let sizes = [64u64];
    let local = local_sweep(KernelId::Atax, gpu, &sizes, &SearchSpace::tiny());
    let points: Vec<TuningParams> = SearchSpace::tiny().iter().collect();

    let (a0, h0) = spawn_server(ArtifactStore::new());
    let (a1, h1) = spawn_server(ArtifactStore::new());
    let spec = FleetSpec::from_addrs(vec![a0.clone(), a1.clone()]).expect("spec");
    // Chunk small so there are many granules to hand out. Which shard
    // completes which is up to the scheduling of the moment; the
    // steal order itself is `sched`'s pure tests' to check.
    let fleet =
        RemoteEvaluator::with_policy(spec, scope("atax", gpu, &sizes), impatient(), 2);

    let times = fleet.eval_many(&points);
    assert_eq!(times.len(), local.len());
    for (t, l) in times.iter().zip(&local) {
        assert_eq!(t.to_bits(), l.time_ms.to_bits(), "fleet diverged from local");
    }
    // Warm re-run: served from the client-side memo, same bits.
    assert_eq!(fleet.eval_many(&points), times);
    assert!(fleet.take_error().is_none());

    let stats = fleet.stats();
    let counters = stats.counters();
    assert_eq!(counters.shards, 2);
    assert_eq!(counters.shards_lost, 0);
    let completed: u64 = stats.shards.iter().map(|s| s.completed).sum();
    assert_eq!(completed, stats.chunks, "every chunk completed exactly once");

    for addr in [a0, a1] {
        Client::connect(&addr).expect("connect").shutdown().expect("shutdown");
    }
    h0.join().expect("server 0");
    h1.join().expect("server 1");
}

#[test]
fn a_point_at_a_time_searcher_keeps_one_connection_per_shard() {
    let gpu = Gpu::K20.spec();
    let sizes = [64u64];
    let local = local_sweep(KernelId::Atax, gpu, &sizes, &SearchSpace::tiny());
    let (a0, h0) = spawn_server(ArtifactStore::new());
    let (a1, h1) = spawn_server(ArtifactStore::new());
    let spec = FleetSpec::from_addrs(vec![a0.clone(), a1.clone()]).expect("spec");
    let fleet = RemoteEvaluator::with_policy(spec, scope("atax", gpu, &sizes), impatient(), 2);

    // Sixteen misses, each its own batch — what an iterative
    // searcher generates.
    for (p, l) in SearchSpace::tiny().iter().zip(&local) {
        assert_eq!(fleet.eval(p).to_bits(), l.time_ms.to_bits());
    }
    assert!(fleet.take_error().is_none());
    let stats = fleet.stats();
    assert_eq!(stats.chunks, 16);
    assert_eq!(stats.counters().batches_stolen, 0, "a lone chunk is its home shard's");

    // The home daemon served one pipeline (and this probe); the
    // other shard was never handed work, so never dialed.
    let home = stats.shards.iter().position(|s| s.completed > 0).expect("a shard worked");
    for (shard, addr) in [a0, a1].into_iter().enumerate() {
        let probe = Client::connect(&addr).expect("connect");
        let served = probe.stats().expect("stats").connections;
        assert_eq!(served, if shard == home { 2 } else { 1 }, "connections `{addr}` served");
        probe.shutdown().expect("shutdown");
    }
    h0.join().expect("server 0");
    h1.join().expect("server 1");
}

#[test]
fn threads_sharing_a_fleet_evaluator_fetch_each_point_once() {
    let gpu = Gpu::M40.spec();
    let sizes = [64u64];
    let local = local_sweep(KernelId::Bicg, gpu, &sizes, &SearchSpace::tiny());
    let points: Vec<TuningParams> = SearchSpace::tiny().iter().collect();
    let (a0, h0) = spawn_server(ArtifactStore::new());
    let (a1, h1) = spawn_server(ArtifactStore::new());
    let spec = FleetSpec::from_addrs(vec![a0.clone(), a1.clone()]).expect("spec");
    let fleet = RemoteEvaluator::with_policy(spec, scope("bicg", gpu, &sizes), impatient(), 2);

    // Eight threads, each sweeping the space from its own offset:
    // every point is asked for eight times, some while in flight.
    let start = std::sync::Barrier::new(8);
    std::thread::scope(|s| {
        for i in 0..8 {
            let (fleet, points, local, start) = (&fleet, &points, &local, &start);
            s.spawn(move || {
                fn rotated<T: Clone>(v: &[T], by: usize) -> Vec<T> {
                    [&v[by..], &v[..by]].concat()
                }
                start.wait();
                let got = fleet.evaluate_batch(&rotated(points, i)).expect("evaluate");
                assert_eq!(got, rotated(local, i), "thread {i} diverged from local");
            });
        }
    });
    assert!(fleet.take_error().is_none());
    assert_eq!(fleet.stats().points_fetched as usize, points.len(), "a point fetched twice");

    for addr in [a0, a1] {
        Client::connect(&addr).expect("connect").shutdown().expect("shutdown");
    }
    h0.join().expect("server 0");
    h1.join().expect("server 1");
}

#[test]
fn dead_home_shard_rebalances_and_the_answer_is_still_bit_identical() {
    let gpu = Gpu::M40.spec();
    let sizes = [32u64];
    let local = local_sweep(KernelId::Bicg, gpu, &sizes, &SearchSpace::tiny());
    let points: Vec<TuningParams> = SearchSpace::tiny().iter().collect();
    let sc = scope("bicg", gpu, &sizes);

    let (live, handle) = spawn_server(ArtifactStore::new());
    // Place the dead address at the scope's home index, so the
    // dispatch queue itself must rebalance (the harder path).
    let probe = FleetSpec::from_addrs(vec!["a".into(), "b".into()]).expect("probe");
    let home = probe.home_shard(&sc);
    let mut addrs = vec![String::new(), String::new()];
    addrs[home] = dead_addr();
    addrs[1 - home] = live.clone();
    let spec = FleetSpec::from_addrs(addrs).expect("spec");
    let fleet = RemoteEvaluator::with_policy(spec.clone(), sc.clone(), impatient(), 2);

    let times = fleet.eval_many(&points);
    for (t, l) in times.iter().zip(&local) {
        assert_eq!(t.to_bits(), l.time_ms.to_bits(), "rebalanced fleet diverged");
    }
    assert!(fleet.take_error().is_none(), "one survivor means no fleet failure");

    let stats = fleet.stats();
    assert!(stats.shards[home].lost, "dead home must be declared lost");
    assert!(
        stats.shards[home].rebalanced_away > 0,
        "the home queue must have drained to the survivor: {stats:?}"
    );
    assert_eq!(stats.counters().shards_lost, 1);

    // A lone miss asks only its home shard; with that one dead the
    // chunk must still reach the survivor, which had no worker.
    let lone = RemoteEvaluator::with_policy(spec, sc, impatient(), 2);
    assert_eq!(lone.eval(points[0]).to_bits(), local[0].time_ms.to_bits());
    assert!(lone.take_error().is_none());
    assert!(lone.stats().shards[home].lost);

    Client::connect(&live).expect("connect").shutdown().expect("shutdown");
    handle.join().expect("server");
}

#[test]
fn every_shard_dead_latches_a_fleet_failure() {
    let spec =
        FleetSpec::from_addrs(vec![dead_addr(), dead_addr()]).expect("spec");
    let gpu = Gpu::K20.spec();
    let fleet = RemoteEvaluator::with_policy(
        spec,
        scope("atax", gpu, &[64]),
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        },
        4,
    );
    let points: Vec<TuningParams> = SearchSpace::tiny().iter().take(3).collect();
    assert_eq!(fleet.eval_many(&points), vec![f64::INFINITY; 3]);
    let err = fleet.take_error().expect("total loss must latch");
    assert!(err.contains("lost"), "error should say the fleet is lost: {err}");
    // Latched: later queries short-circuit to infinity.
    assert_eq!(fleet.eval(points[0]), f64::INFINITY);
}

#[test]
fn deterministic_daemon_errors_abort_instead_of_rebalancing() {
    let (a0, h0) = spawn_server(ArtifactStore::new());
    let (a1, h1) = spawn_server(ArtifactStore::new());
    let gpu = Gpu::K20.spec();
    let spec = FleetSpec::from_addrs(vec![a0.clone(), a1.clone()]).expect("spec");
    let fleet = RemoteEvaluator::with_policy(
        spec,
        scope("no-such-kernel", gpu, &[64]),
        impatient(),
        2,
    );
    let points: Vec<TuningParams> = SearchSpace::tiny().iter().take(4).collect();
    assert_eq!(fleet.eval_many(&points), vec![f64::INFINITY; 4]);
    let err = fleet.take_error().expect("unknown kernel must latch");
    assert!(err.contains("no-such-kernel"), "error should carry the cause: {err}");
    let stats = fleet.stats();
    assert_eq!(
        stats.counters().shards_lost,
        0,
        "a deterministic error must not retire shards: {stats:?}"
    );

    for addr in [a0, a1] {
        Client::connect(&addr).expect("connect").shutdown().expect("shutdown");
    }
    h0.join().expect("server 0");
    h1.join().expect("server 1");
}
