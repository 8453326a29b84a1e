//! Fault-injection acceptance suite: every injected failure either
//! **heals** (the client retries and the final results are
//! bit-identical to a fault-free local run) or **aborts loudly** (a
//! latched error) — and nothing, client or daemon, blocks past its
//! deadline. Each test carries an explicit wall-clock bound where a
//! hang would otherwise be the failure mode.

mod common;

use oriole_arch::{Gpu, GpuSpec};
use oriole_codegen::TuningParams;
use oriole_kernels::KernelId;
use oriole_service::{
    ChaosPlan, ChaosProxy, Client, EvalScope, FaultSpec, RemoteEvaluator,
    RetryPolicy, ServeConfig, ServeSummary, Server, ServiceError,
};
use oriole_sim::MAX_TRIALS;
use oriole_tuner::{ArtifactStore, EvalProtocol, Evaluator, Measurement, SearchSpace};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn spawn_server_with(
    store: ArtifactStore,
    cfg: ServeConfig,
) -> (SocketAddr, JoinHandle<ServeSummary>) {
    let server = Server::bind_with("127.0.0.1:0", store, cfg).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    (addr, handle)
}

fn spawn_server(store: ArtifactStore) -> (SocketAddr, JoinHandle<ServeSummary>) {
    spawn_server_with(store, ServeConfig::default())
}

fn scope(kernel: &str, gpu: &GpuSpec, sizes: &[u64]) -> EvalScope {
    EvalScope {
        kernel: kernel.to_string(),
        gpu: gpu.clone(),
        sizes: sizes.to_vec(),
        protocol: EvalProtocol::default(),
    }
}

fn local_sweep(kid: KernelId, gpu: &GpuSpec, sizes: &[u64], space: &SearchSpace) -> Vec<Measurement> {
    let builder = move |n: u64| kid.ast(n);
    let ev = Evaluator::new(&builder, gpu, sizes);
    ev.evaluate_space(space).iter().map(|m| (**m).clone()).collect()
}

fn shutdown_daemon(addr: SocketAddr, handle: JoinHandle<ServeSummary>) -> ServeSummary {
    Client::connect(&addr.to_string()).expect("connect").shutdown().expect("shutdown");
    handle.join().expect("server thread")
}

/// A fast-failing-but-healing policy for fault tests: deadlines tight
/// enough that a black hole is detected in milliseconds, retries
/// plentiful enough that every transient fault in these plans heals.
fn test_policy() -> RetryPolicy {
    RetryPolicy {
        max_retries: 4,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(50),
        rpc_timeout: Duration::from_millis(500),
        jitter_seed: 42,
    }
}

#[test]
fn corrupted_response_frame_heals_via_retry_bit_identically() {
    let space = SearchSpace::tiny();
    let points: Vec<TuningParams> = space.iter().collect();
    let gpu = Gpu::K20.spec();
    let local = local_sweep(KernelId::Atax, gpu, &[64], &space);

    let (daemon, handle) = spawn_server(ArtifactStore::new());
    // First connection: flip one payload byte of the response (stream
    // offset 20 sits inside the first frame's payload, past the
    // 16-byte header). The frame checksum must catch it, the retry
    // must reconnect and heal.
    let proxy = ChaosProxy::spawn(
        daemon,
        ChaosPlan::sequence(vec![FaultSpec { corrupt_response_at: Some(20), ..FaultSpec::clean() }]),
    )
    .expect("proxy");

    let client = Client::connect_with(&proxy.addr().to_string(), test_policy()).expect("connect");
    let (_, remote) = client.evaluate(&scope("atax", gpu, &[64]), &points).expect("heals");
    assert_eq!(remote, local, "healed run must be bit-identical to a fault-free local run");
    for (r, l) in remote.iter().zip(&local) {
        assert_eq!(r.time_ms.to_bits(), l.time_ms.to_bits());
    }
    assert!(client.retries() >= 1, "the corruption must have cost at least one retry");
    assert!(proxy.connections() >= 2, "healing reconnects through the proxy");

    drop(client);
    proxy.stop();
    shutdown_daemon(daemon, handle);
}

#[test]
fn connection_cut_mid_frame_heals_via_retry_bit_identically() {
    let space = SearchSpace::tiny();
    let points: Vec<TuningParams> = space.iter().collect();
    let gpu = Gpu::M40.spec();
    let local = local_sweep(KernelId::Bicg, gpu, &[32], &space);

    let (daemon, handle) = spawn_server(ArtifactStore::new());
    // First two connections die mid-response-frame (one inside the
    // 16-byte header, one inside the payload); the third is clean.
    let proxy = ChaosProxy::spawn(
        daemon,
        ChaosPlan::sequence(vec![
            FaultSpec { cut_response_after: Some(7), ..FaultSpec::clean() },
            FaultSpec { cut_response_after: Some(40), ..FaultSpec::clean() },
        ]),
    )
    .expect("proxy");

    let client = Client::connect_with(&proxy.addr().to_string(), test_policy()).expect("connect");
    let (_, remote) = client.evaluate(&scope("bicg", gpu, &[32]), &points).expect("heals");
    assert_eq!(remote, local);
    assert!(client.retries() >= 2, "two cut connections cost two retries");
    assert!(proxy.connections() >= 3);

    drop(client);
    proxy.stop();
    shutdown_daemon(daemon, handle);
}

#[test]
fn refused_connections_heal_once_the_network_does() {
    let space = SearchSpace::tiny();
    let points: Vec<TuningParams> = space.iter().collect();
    let gpu = Gpu::K20.spec();
    let local = local_sweep(KernelId::Atax, gpu, &[64], &space);

    let (daemon, handle) = spawn_server(ArtifactStore::new());
    let proxy = ChaosProxy::spawn(
        daemon,
        ChaosPlan::sequence(vec![
            FaultSpec { refuse: true, ..FaultSpec::clean() },
            FaultSpec { refuse: true, ..FaultSpec::clean() },
        ]),
    )
    .expect("proxy");

    let client = Client::connect_with(&proxy.addr().to_string(), test_policy()).expect("connect");
    let (_, remote) = client.evaluate(&scope("atax", gpu, &[64]), &points).expect("heals");
    assert_eq!(remote, local);

    drop(client);
    proxy.stop();
    shutdown_daemon(daemon, handle);
}

#[test]
fn a_black_hole_latches_loudly_within_its_deadline_budget() {
    let (daemon, handle) = spawn_server(ArtifactStore::new());
    // Every connection swallows the response for far longer than the
    // client is willing to wait.
    let proxy = ChaosProxy::spawn(
        daemon,
        ChaosPlan::always(FaultSpec { delay_response_ms: 60_000, ..FaultSpec::clean() }),
    )
    .expect("proxy");

    let policy = RetryPolicy {
        max_retries: 1,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(20),
        rpc_timeout: Duration::from_millis(150),
        jitter_seed: 42,
    };
    let started = Instant::now();
    let client = Client::connect_with(&proxy.addr().to_string(), policy).expect("connect");
    let remote = RemoteEvaluator::new(client, scope("atax", Gpu::K20.spec(), &[64]));
    use oriole_tuner::Oracle as _;
    assert_eq!(remote.eval(TuningParams::with_geometry(128, 48)), f64::INFINITY);
    let elapsed = started.elapsed();
    let err = remote.take_error().expect("black hole must latch an error");
    assert!(err.contains("deadline") || err.contains("timed out") || err.contains("I/O"), "{err}");
    // Two 150ms attempts plus backoff: the latch must arrive in well
    // under a second of deadline budget — never an unbounded hang.
    assert!(elapsed < Duration::from_secs(5), "latched after {elapsed:?}, deadline not honored");

    proxy.stop();
    shutdown_daemon(daemon, handle);
}

#[test]
fn daemon_death_mid_sweep_latches_and_a_restart_resumes_bit_identically() {
    let dir: PathBuf = std::env::temp_dir()
        .join(format!("oriole-chaos-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let space = SearchSpace::tiny();
    let points: Vec<TuningParams> = space.iter().collect();
    assert!(points.len() >= 4, "need enough points to split the sweep");
    let gpu = Gpu::K20.spec();
    let local = local_sweep(KernelId::Atax, gpu, &[64], &space);
    let sc = scope("atax", gpu, &[64]);
    let (first, rest) = points.split_at(points.len() / 2);

    // Phase 1: evaluate the first half, then the daemon dies.
    let store = ArtifactStore::with_disk(&dir).expect("disk store");
    let (daemon, handle) = spawn_server(store);
    let policy = RetryPolicy {
        max_retries: 2,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(20),
        rpc_timeout: Duration::from_millis(500),
        jitter_seed: 42,
    };
    let client = Client::connect_with(&daemon.to_string(), policy).expect("connect");
    let remote = RemoteEvaluator::new(client, sc.clone());
    let healthy = remote.evaluate_batch(first).expect("first half evaluates");
    assert_eq!(&healthy[..], &local[..first.len()], "pre-fault half matches local");
    shutdown_daemon(daemon, handle);

    // The dead daemon must latch loudly — bounded by the retry budget,
    // not a hang — and poison everything after.
    let started = Instant::now();
    assert!(remote.evaluate_batch(rest).is_none(), "dead daemon cannot evaluate");
    assert!(started.elapsed() < Duration::from_secs(10));
    let err = remote.take_error().expect("abort is loud");
    assert!(!err.is_empty());
    assert!(remote.evaluate_batch(first).is_none(), "latched evaluator stays poisoned");

    // Phase 2: a fresh daemon over the same store directory. The full
    // sweep must be bit-identical to the fault-free local run, with the
    // pre-crash half replayed from disk, not recomputed.
    let store = ArtifactStore::with_disk(&dir).expect("reopen disk store");
    let (daemon, handle) = spawn_server(store);
    let client = Client::connect_with(&daemon.to_string(), test_policy()).expect("connect");
    let resumed = RemoteEvaluator::new(client, sc);
    let full = resumed.evaluate_batch(&points).expect("resumed sweep");
    assert_eq!(resumed.take_error(), None);
    assert_eq!(full, local, "resumed sweep is bit-identical to a fault-free local run");
    for (r, l) in full.iter().zip(&local) {
        assert_eq!(r.time_ms.to_bits(), l.time_ms.to_bits());
    }
    assert!(
        (resumed.stats().computed_remote as usize) <= rest.len(),
        "the pre-crash half must come from the spilled store, not recomputation"
    );
    shutdown_daemon(daemon, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipelined_connection_cut_mid_frame_heals_bit_identically() {
    let space = SearchSpace::tiny();
    let points: Vec<TuningParams> = space.iter().collect();
    let gpu = Gpu::K20.spec();
    let local = local_sweep(KernelId::Atax, gpu, &[64], &space);

    let (daemon, handle) = spawn_server(ArtifactStore::new());
    // The client's one connection is the evaluator's: connections 0 and
    // 1 die mid-response-frame — one inside the 24-byte header, one
    // inside a payload — each with several chunked frames in flight.
    // The third connection is clean.
    let proxy = ChaosProxy::spawn(
        daemon,
        ChaosPlan::sequence(vec![
            FaultSpec { cut_response_after: Some(7), ..FaultSpec::clean() },
            FaultSpec { cut_response_after: Some(40), ..FaultSpec::clean() },
        ]),
    )
    .expect("proxy");

    // Tiny chunks: the sweep crosses as multiple frames in flight on
    // one pipeline, so the cut strands several requests at once.
    let remote = RemoteEvaluator::over_shards(
        &[proxy.addr().to_string()],
        0,
        scope("atax", gpu, &[64]),
        test_policy(),
        2,
    );
    let healed = remote.evaluate_batch(&points).expect("heals");
    assert_eq!(remote.take_error(), None);
    assert_eq!(healed, local, "healed pipelined sweep is bit-identical to local");
    for (r, l) in healed.iter().zip(&local) {
        assert_eq!(r.time_ms.to_bits(), l.time_ms.to_bits());
    }
    assert!(remote.batches_sent() >= 2, "chunks were pipelined: {}", remote.batches_sent());
    assert!(remote.client().retries() >= 2, "two cut connections cost two retries");
    assert!(proxy.connections() >= 3, "healing re-dialed the pipeline: {}", proxy.connections());

    proxy.stop();
    shutdown_daemon(daemon, handle);
}

#[test]
fn pipelined_response_corruption_heals_bit_identically_without_misdelivery() {
    let space = SearchSpace::tiny();
    let points: Vec<TuningParams> = space.iter().collect();
    let gpu = Gpu::M40.spec();
    let local = local_sweep(KernelId::Bicg, gpu, &[32], &space);

    let (daemon, handle) = spawn_server(ArtifactStore::new());
    // Stream offset 20 sits inside the first response frame's
    // correlation-id field (bytes 16..24 of the 24-byte header): the
    // tampered id fails the frame checksum — which covers the id
    // exactly so corruption can *reroute* nothing — and the pipeline
    // poisons instead of delivering to the wrong ticket. The first
    // connection is the one the evaluator's chunks ride.
    let proxy = ChaosProxy::spawn(
        daemon,
        ChaosPlan::sequence(vec![FaultSpec {
            corrupt_response_at: Some(20),
            ..FaultSpec::clean()
        }]),
    )
    .expect("proxy");

    let remote = RemoteEvaluator::over_shards(
        &[proxy.addr().to_string()],
        0,
        scope("bicg", gpu, &[32]),
        test_policy(),
        2,
    );
    let healed = remote.evaluate_batch(&points).expect("heals");
    assert_eq!(remote.take_error(), None);
    assert_eq!(healed, local, "healed run is bit-identical — corruption delivered nothing");
    assert!(remote.client().retries() >= 1, "the engine's retry is counted on the shard's client");
    assert!(proxy.connections() >= 2, "the poisoned pipeline was replaced");

    proxy.stop();
    shutdown_daemon(daemon, handle);
}

#[test]
fn a_black_hole_under_a_pipelined_sweep_latches_loudly_within_budget() {
    let (daemon, handle) = spawn_server(ArtifactStore::new());
    let proxy = ChaosProxy::spawn(
        daemon,
        ChaosPlan::always(FaultSpec { delay_response_ms: 60_000, ..FaultSpec::clean() }),
    )
    .expect("proxy");

    let policy = RetryPolicy {
        max_retries: 1,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(20),
        rpc_timeout: Duration::from_millis(150),
        jitter_seed: 42,
    };
    let started = Instant::now();
    let remote = RemoteEvaluator::over_shards(
        &[proxy.addr().to_string()],
        0,
        scope("atax", Gpu::K20.spec(), &[64]),
        policy,
        1,
    );
    let space = SearchSpace::tiny();
    let points: Vec<TuningParams> = space.iter().collect();
    assert!(
        remote.evaluate_batch(&points).is_none(),
        "a silent daemon cannot answer a pipelined sweep"
    );
    let elapsed = started.elapsed();
    let err = remote.take_error().expect("black hole must latch an error");
    assert!(!err.is_empty());
    // Two attempts bounded by the 150ms progress deadline each, plus
    // backoff: loud latch in seconds, never an unbounded hang.
    assert!(elapsed < Duration::from_secs(5), "latched after {elapsed:?}, deadline not honored");

    proxy.stop();
    shutdown_daemon(daemon, handle);
}

#[test]
fn a_saturated_worker_pool_sheds_with_busy_and_recovers() {
    // One worker: the first connection owns the pool, so a second
    // connection must be answered Busy and closed — deterministically.
    let cfg = ServeConfig { max_connections: 1, ..ServeConfig::default() };
    let (daemon, handle) = spawn_server_with(ArtifactStore::new(), cfg);

    let holder = Client::connect(&daemon.to_string()).expect("connect");
    holder.ping().expect("holder owns the one worker slot");

    let mut raw = std::net::TcpStream::connect(daemon).expect("dial");
    raw.set_read_timeout(Some(Duration::from_secs(5))).expect("deadline");
    // The shed is connection-level: Busy arrives before any request.
    let reply = common::read_frame(&mut raw, &mut Vec::new()).expect("busy frame").1;
    match oriole_service::protocol::parse_response(&reply) {
        Ok(oriole_service::Response::Busy { retry_after_ms }) => {
            assert!(retry_after_ms > 0, "busy carries a retry hint");
        }
        other => panic!("expected busy, got {other:?}"),
    }
    drop(raw);

    let stats = holder.stats().expect("stats");
    assert!(stats.shed_busy >= 1, "the shed is counted: {stats:?}");
    assert_eq!(stats.workers_max, cfg.max_inflight as u64);

    // Capacity freed: a client's retries heal the shed once the holder
    // leaves (a shed connection answers `busy`, which is transient).
    drop(holder);
    let healed = Client::connect(&daemon.to_string()).expect("dial after capacity frees");
    healed.ping().expect("pool recovered");
    drop(healed);
    let summary = shutdown_daemon(daemon, handle);
    assert!(summary.stats.shed_busy >= 1);
}

#[test]
fn contended_clients_all_complete_identically_under_a_tiny_inflight_gate() {
    let space = SearchSpace::tiny();
    let points: Vec<TuningParams> = space.iter().collect();
    let gpu = Gpu::P100.spec();
    let local = local_sweep(KernelId::MatVec2D, gpu, &[64], &space);

    // A deliberately tiny gate under real contention: every client must
    // still complete (waiting inside its deadline or healing a shed via
    // retry) with bit-identical results.
    let cfg = ServeConfig { max_inflight: 1, ..ServeConfig::default() };
    let (daemon, handle) = spawn_server_with(ArtifactStore::new(), cfg);
    let sc = scope("matvec2d", gpu, &[64]);

    let results: Vec<Vec<Measurement>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let sc = sc.clone();
                let points = points.clone();
                let addr = daemon.to_string();
                s.spawn(move || {
                    let policy = RetryPolicy { jitter_seed: i, ..test_policy() };
                    let client = Client::connect_with(&addr, policy).expect("connect");
                    client.evaluate(&sc, &points).expect("evaluate").1
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    for r in &results {
        assert_eq!(r, &local, "contention must never change results");
    }
    shutdown_daemon(daemon, handle);
}

#[test]
fn idle_connections_are_reaped_and_clients_heal_by_reconnecting() {
    let cfg = ServeConfig { idle_timeout: Duration::from_millis(100), ..ServeConfig::default() };
    let (daemon, handle) = spawn_server_with(ArtifactStore::new(), cfg);

    let client = Client::connect_with(&daemon.to_string(), test_policy()).expect("connect");
    client.ping().expect("alive");
    // A connection opened after the client's is reaped no earlier than
    // it, so this one's EOF means the client's is gone too.
    let mut raw = std::net::TcpStream::connect(daemon).expect("dial");
    raw.set_read_timeout(Some(Duration::from_secs(5))).expect("deadline");
    assert_eq!(std::io::Read::read(&mut raw, &mut [0u8; 64]).expect("reaped, not timed out"), 0);
    // The next call heals transparently: the poisoned/closed stream is
    // re-dialed under the retry policy.
    client.ping().expect("heals by reconnecting");
    let stats = client.stats().expect("stats");
    assert!(stats.reaped_idle >= 1, "the reap is counted: {stats:?}");

    drop(client);
    let summary = shutdown_daemon(daemon, handle);
    assert!(summary.stats.reaped_idle >= 1);
}

#[test]
fn degenerate_devices_and_trial_counts_are_refused_before_they_reach_a_worker() {
    // A device is wire input: `GpuSpec::problems` refuses each of these
    // before the worker that took the frame divides by zero block slots
    // or forms a register product past 32 bits, and a dead worker
    // answers nothing, ever. Two worker threads, four such frames.
    let cfg = ServeConfig { max_connections: 2, max_inflight: 2, ..ServeConfig::default() };
    let (daemon, handle) = spawn_server_with(ArtifactStore::new(), cfg);
    let k20 = Gpu::K20.spec();
    let p = TuningParams::with_geometry(128, 48);
    let policy = test_policy();

    let client = Client::connect_with(&daemon.to_string(), policy).expect("connect");
    let refused = |what: &str, outcome: Result<(), ServiceError>, asked: Instant| {
        let err = outcome.expect_err(what);
        assert!(matches!(err, ServiceError::Remote(_)), "{what}: {err}");
        assert!(asked.elapsed() < policy.rpc_timeout, "{what}: answered, not timed out");
    };
    for (field, gpu) in [
        ("mp:0", GpuSpec { multiprocessors: 0, ..k20.clone() }),
        ("wmp:0", GpuSpec { warps_per_mp: 0, ..k20.clone() }),
        ("rtmax:2^27", GpuSpec { regs_per_thread_max: 1 << 27, ..k20.clone() }),
    ] {
        let asked = Instant::now();
        refused(field, client.evaluate(&scope("atax", &gpu, &[64]), &[p]).map(drop), asked);
    }
    // So is a trial count; one past the bound, so that a build without
    // the bound answers this frame instead of drawing 2^32 trials.
    let protocol = EvalProtocol { trials: MAX_TRIALS + 1, ..EvalProtocol::default() };
    let trials = EvalScope { protocol, ..scope("atax", k20, &[64]) };
    let asked = Instant::now();
    refused("trials", client.evaluate(&trials, &[p]).map(drop), asked);
    assert_eq!(client.retries(), 0, "deterministic refusals are not retried");
    drop(client);

    // Both workers are still there.
    let fresh = Client::connect_with(&daemon.to_string(), policy).expect("connect");
    fresh.ping().expect("ping");
    let space = SearchSpace::tiny();
    let points: Vec<TuningParams> = space.iter().collect();
    let (_, remote) = fresh.evaluate(&scope("atax", k20, &[64]), &points).expect("evaluate");
    let local = local_sweep(KernelId::Atax, k20, &[64], &space);
    assert_eq!(remote, local);
    for (r, l) in remote.iter().zip(&local) {
        assert_eq!(r.time_ms.to_bits(), l.time_ms.to_bits());
    }
    drop(fresh);
    shutdown_daemon(daemon, handle);
}
