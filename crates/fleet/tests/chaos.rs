//! Fault-injection acceptance for the fleet: a shard that turns into a
//! network black hole must be detected within the client's deadline
//! budget, retired, and its chunks rerouted to the survivors — with
//! the final answer bit-identical to a local run and **no point lost
//! or duplicated beyond the rebalanced chunks**. A shard whose fault
//! heals inside the retry policy must stay in the fleet.

use oriole_arch::{Gpu, GpuSpec};
use oriole_codegen::TuningParams;
use oriole_fleet::{FleetEvaluator, FleetSpec};
use oriole_kernels::KernelId;
use oriole_service::{
    ChaosPlan, ChaosProxy, Client, EvalScope, FaultSpec, RetryPolicy, ServeSummary, Server,
};
use oriole_tuner::{ArtifactStore, EvalProtocol, Evaluator, Measurement, Oracle, SearchSpace};
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn spawn_server() -> (SocketAddr, JoinHandle<ServeSummary>) {
    let server = Server::bind("127.0.0.1:0", ArtifactStore::new()).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    (addr, handle)
}

fn scope(kernel: &str, gpu: &GpuSpec, sizes: &[u64]) -> EvalScope {
    EvalScope {
        kernel: kernel.to_string(),
        gpu: gpu.clone(),
        sizes: sizes.to_vec(),
        protocol: EvalProtocol::default(),
    }
}

fn local_sweep(kid: KernelId, gpu: &GpuSpec, sizes: &[u64]) -> Vec<Measurement> {
    let space = SearchSpace::tiny();
    let builder = move |n: u64| kid.ast(n);
    let ev = Evaluator::new(&builder, gpu, sizes);
    ev.evaluate_space(&space).iter().map(|m| (**m).clone()).collect()
}

fn shutdown_daemon(addr: SocketAddr, handle: JoinHandle<ServeSummary>) -> ServeSummary {
    Client::connect(&addr.to_string()).expect("connect").shutdown().expect("shutdown");
    handle.join().expect("server thread")
}

/// Deadlines tight enough that the black hole is detected in under a
/// second, not after the default ten-second RPC timeout.
fn impatient() -> RetryPolicy {
    RetryPolicy {
        max_retries: 1,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(20),
        rpc_timeout: Duration::from_millis(400),
        jitter_seed: 42,
    }
}

/// Builds a two-shard spec with `faulty` placed at the scope's home
/// index — the harder path, where the dispatch queue itself must
/// reroute — and returns `(spec, home_index)`.
fn spec_with_faulty_home(sc: &EvalScope, faulty: String, healthy: String) -> (FleetSpec, usize) {
    let probe = FleetSpec::from_addrs(vec!["a".into(), "b".into()]).expect("probe");
    let home = probe.home_shard(sc);
    let mut addrs = vec![String::new(), String::new()];
    addrs[home] = faulty;
    addrs[1 - home] = healthy;
    (FleetSpec::from_addrs(addrs).expect("spec"), home)
}

#[test]
fn black_holed_home_shard_reroutes_without_losing_or_duplicating_points() {
    const CHUNK: usize = 2;
    let gpu = Gpu::K20.spec();
    let sizes = [64u64];
    let local = local_sweep(KernelId::Atax, gpu, &sizes);
    let points: Vec<TuningParams> = SearchSpace::tiny().iter().collect();
    let sc = scope("atax", gpu, &sizes);

    let (hole_daemon, hole_handle) = spawn_server();
    let (live_daemon, live_handle) = spawn_server();
    // The black hole forwards requests upstream but swallows every
    // response: the daemon behind it may still compute, which is
    // exactly why the unique-evaluation bound below has a slack term.
    let proxy = ChaosProxy::spawn(
        hole_daemon,
        ChaosPlan::always(FaultSpec { delay_response_ms: 60_000, ..FaultSpec::clean() }),
    )
    .expect("proxy");

    let (spec, home) =
        spec_with_faulty_home(&sc, proxy.addr().to_string(), live_daemon.to_string());
    let fleet = FleetEvaluator::with_policy(spec, sc, impatient(), CHUNK);

    let started = Instant::now();
    let times = fleet.eval_many(&points);
    let elapsed = started.elapsed();
    // Detection budget: one in-flight RPC through the whole impatient
    // policy, plus the survivor's sweep — nowhere near the 60 s hole.
    assert!(elapsed < Duration::from_secs(20), "reroute took {elapsed:?}: deadline not honored");

    assert_eq!(times.len(), local.len());
    for (t, l) in times.iter().zip(&local) {
        assert_eq!(t.to_bits(), l.time_ms.to_bits(), "rerouted fleet diverged from local");
    }
    assert!(fleet.take_error().is_none(), "one healthy shard means no fleet failure");

    let stats = fleet.stats();
    assert!(stats.shards[home].lost, "the black-holed home must be declared lost: {stats:?}");
    assert!(stats.shards[home].rebalanced_away > 0, "its queue must have drained: {stats:?}");
    let completed: u64 = stats.shards.iter().map(|s| s.completed).sum();
    assert_eq!(completed, stats.chunks, "every chunk completed exactly once: {stats:?}");

    // No point lost, none duplicated beyond the rebalanced chunks: the
    // daemons' combined unique-evaluation count covers the space at
    // least once, with slack only for chunks the black-holed daemon
    // computed before its responses were swallowed.
    proxy.stop();
    let hole_stats =
        Client::connect(&hole_daemon.to_string()).expect("connect").stats().expect("stats");
    let live_stats =
        Client::connect(&live_daemon.to_string()).expect("connect").stats().expect("stats");
    let unique = (hole_stats.store.unique_evaluations + live_stats.store.unique_evaluations) as u64;
    let space = points.len() as u64;
    let rebalanced_slack = stats.shards[home].rebalanced_away * CHUNK as u64;
    assert!(
        unique >= space,
        "points lost: {unique} unique evaluations < {space} points"
    );
    assert!(
        unique <= space + rebalanced_slack,
        "points duplicated beyond the {rebalanced_slack}-point rebalance slack: \
         {unique} unique evaluations for {space} points"
    );

    shutdown_daemon(hole_daemon, hole_handle);
    shutdown_daemon(live_daemon, live_handle);
}

#[test]
fn a_fault_that_heals_within_the_retry_policy_keeps_the_shard_in_the_fleet() {
    let gpu = Gpu::M40.spec();
    let sizes = [32u64];
    let local = local_sweep(KernelId::Bicg, gpu, &sizes);
    let points: Vec<TuningParams> = SearchSpace::tiny().iter().collect();
    let sc = scope("bicg", gpu, &sizes);

    let (flaky_daemon, flaky_handle) = spawn_server();
    let (live_daemon, live_handle) = spawn_server();
    // First connection through the proxy dies mid-response-frame; every
    // later one forwards faithfully. The client's internal retry must
    // absorb this without the fleet retiring the shard.
    let proxy = ChaosProxy::spawn(
        flaky_daemon,
        ChaosPlan::sequence(vec![FaultSpec { cut_response_after: Some(7), ..FaultSpec::clean() }]),
    )
    .expect("proxy");

    let healing = RetryPolicy { max_retries: 4, ..impatient() };
    let (spec, home) =
        spec_with_faulty_home(&sc, proxy.addr().to_string(), live_daemon.to_string());
    let fleet = FleetEvaluator::with_policy(spec, sc, healing, 2);

    let times = fleet.eval_many(&points);
    for (t, l) in times.iter().zip(&local) {
        assert_eq!(t.to_bits(), l.time_ms.to_bits(), "healed fleet diverged from local");
    }
    assert!(fleet.take_error().is_none());

    let stats = fleet.stats();
    assert_eq!(stats.counters().shards_lost, 0, "a healed fault must not retire: {stats:?}");
    assert!(
        stats.shards[home].completed > 0,
        "the healed home shard must have kept working: {stats:?}"
    );
    assert!(proxy.connections() >= 2, "healing reconnects through the proxy");

    proxy.stop();
    shutdown_daemon(flaky_daemon, flaky_handle);
    shutdown_daemon(live_daemon, live_handle);
}
