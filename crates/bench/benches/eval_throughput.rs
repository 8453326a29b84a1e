//! Criterion bench: the serving rows `benchmark/` has no twin for — a
//! sweep of the paper's Fig. 3 space through real TCP + framed RPC
//! against in-process daemons.
//!
//! * `service/remote_cold_sweep` — a fresh daemon per iteration: the
//!   whole space computed server-side and shipped back.
//! * `service/warm_shared_clients`, `service/warm_gated_clients` — four
//!   concurrent clients on one warm daemon, on its default pool and on
//!   a one-worker pool (`max_inflight: 1`).
//! * `service/scaling_{seq,pipe}/cN` — the client-scaling curve, one
//!   point per exchange against pipelined 64-point frames, 1 → 128
//!   clients (ROADMAP item 2 quotes the c64 → c128 step).
//! * `fleet/scaling_s{1,2,4}` — the same warm sweep through the
//!   evaluation engine over 1, 2 and 4 daemons.
//!
//! Every local row this file used to carry (uncached baseline,
//! front-end phases, cold / warm / shared-store / disk sweeps) is
//! measured on the full space, with spread, by `benchmark/`
//! (`codegen.*_us`, `ir.lower_indexed_us`, `unit_p50_s` @ `cold_sweep`,
//! `tuner.eval_hit_ns`, `tuner.batch_speedup`, `warm_search`,
//! `disk_roundtrip`) and is gone from here.
//!
//! The space is the 5,120-variant Fig. 3 instantiation thinned on the
//! `TC` axis (640 points) so a bench iteration stays affordable. Pass
//! `--json PATH` (a shim extension) to also write every result as
//! machine-readable JSON, e.g. `BENCH_eval.json`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use oriole_arch::Gpu;
use oriole_codegen::TuningParams;
use oriole_fleet::{FleetEvaluator, FleetSpec};
use oriole_kernels::KernelId;
use oriole_service::{Client, EvalScope, RemoteEvaluator, RetryPolicy, ServeConfig, Server};
use oriole_tuner::{ArtifactStore, EvalProtocol, Oracle, SearchSpace};

fn thinned_fig3_space() -> SearchSpace {
    let mut space = SearchSpace::paper_default();
    // Thin TC 32→4 steps: 4 × 8 × 5 × 2 × 1 × 2 = 640 points, the same
    // mix of front-end keys (UIF × CFLAGS) as the full space.
    space.tc = vec![128, 256, 512, 1024];
    space
}

fn bench_eval_throughput(c: &mut Criterion) {
    let gpu = Gpu::K20.spec();
    let kid = KernelId::Atax;
    let sizes = [128u64];
    let builder = move |n: u64| kid.ast(n);
    let space = thinned_fig3_space();

    let mut g = c.benchmark_group("eval_throughput");
    g.sample_size(10);

    // The serving path (`oriole serve` / `--remote`): the same sweep
    // through a real TCP + framed-RPC boundary against an in-process
    // daemon. `service/remote_cold_sweep` spins a fresh daemon (empty
    // memory store) per iteration — the whole space is computed
    // server-side and every measurement crosses the wire.
    let points: Vec<TuningParams> = space.iter().collect();
    let scope = EvalScope {
        kernel: "atax".to_string(),
        gpu: gpu.clone(),
        sizes: sizes.to_vec(),
        protocol: EvalProtocol::default(),
    };
    g.bench_function("service/remote_cold_sweep", |b| {
        b.iter_batched(
            || {
                let server =
                    Server::bind("127.0.0.1:0", ArtifactStore::new()).expect("bind loopback");
                let addr = server.local_addr().expect("local addr").to_string();
                let handle = std::thread::spawn(move || server.run().expect("serve"));
                let client = Client::connect(&addr).expect("connect");
                (client, handle)
            },
            |(client, handle)| {
                let served = client.evaluate(&scope, &points).expect("evaluate").1.len();
                client.shutdown().expect("shutdown");
                handle.join().expect("server thread");
                served
            },
            BatchSize::PerIteration,
        )
    });

    // `service/warm_shared_clients`: one long-lived daemon whose store
    // already holds the space, N concurrent client connections each
    // traversing all of it — the multi-tenant serving hot path (pure
    // tier hits plus framing), the scenario the sharded service
    // exists for.
    const CLIENTS: usize = 4;
    let server = Server::bind("127.0.0.1:0", ArtifactStore::new()).expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    let server_handle = std::thread::spawn(move || server.run().expect("serve"));
    Client::connect(&addr)
        .expect("connect")
        .evaluate(&scope, &points)
        .expect("warm the daemon store");
    g.bench_function("service/warm_shared_clients", |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..CLIENTS)
                    .map(|_| {
                        s.spawn(|| {
                            let client = Client::connect(&addr).expect("connect");
                            client.evaluate(&scope, &points).expect("evaluate").1.len()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("client thread")).sum::<usize>()
            })
        })
    });
    Client::connect(&addr).expect("connect").shutdown().expect("shutdown");
    server_handle.join().expect("server thread");

    // `service/warm_gated_clients`: the same multi-tenant warm sweep
    // through a one-worker pool (`max_inflight: 1`). A 640-point frame
    // is past what the reactor answers inline, so every client's frame
    // queues for that one worker thread: against `warm_shared_clients`
    // it prices the worker hand-off at its worst-case contention.
    let gated = ServeConfig { max_inflight: 1, ..ServeConfig::default() };
    let server = Server::bind_with("127.0.0.1:0", ArtifactStore::new(), gated)
        .expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    let server_handle = std::thread::spawn(move || server.run().expect("serve"));
    Client::connect(&addr)
        .expect("connect")
        .evaluate(&scope, &points)
        .expect("warm the daemon store");
    g.bench_function("service/warm_gated_clients", |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..CLIENTS)
                    .map(|_| {
                        s.spawn(|| {
                            let client = Client::connect(&addr).expect("connect");
                            client.evaluate(&scope, &points).expect("evaluate").1.len()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("client thread")).sum::<usize>()
            })
        })
    });
    Client::connect(&addr).expect("connect").shutdown().expect("shutdown");
    server_handle.join().expect("server thread");

    // The client-scaling curve on a warm daemon: N concurrent clients,
    // each sweeping the whole space, in two wire disciplines.
    // `service/scaling_seq/cN` is the pre-reactor client pattern — one
    // point per `evaluate` exchange, one exchange in flight per
    // connection — so the daemon's aggregate throughput is bounded by
    // per-client round-trip latency. `service/scaling_pipe/cN` sends
    // the same sweep through coalescing pipelined evaluators (64-point
    // frames, 8 in flight per connection). The PR's acceptance bar is
    // pipe ≥ 2× seq aggregate throughput at c64; the full 1→128 curve
    // lands in BENCH_eval.json.
    let big = ServeConfig { max_connections: 512, ..ServeConfig::default() };
    let server =
        Server::bind_with("127.0.0.1:0", ArtifactStore::new(), big).expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    let server_handle = std::thread::spawn(move || server.run().expect("serve"));
    Client::connect(&addr)
        .expect("connect")
        .evaluate(&scope, &points)
        .expect("warm the daemon store");
    {
        // Untimed bit-identity gate: the pipelined coalesced sweep and
        // the one-point-per-exchange sweep must agree byte-for-byte
        // before either is worth timing.
        let single = Client::connect(&addr).expect("connect");
        let one_at_a_time: Vec<_> = points
            .iter()
            .map(|&p| single.evaluate(&scope, &[p]).expect("evaluate").1.remove(0))
            .collect();
        let remote =
            RemoteEvaluator::new(Client::connect(&addr).expect("connect"), scope.clone());
        let piped = remote.evaluate_batch(&points).expect("pipelined sweep");
        assert!(remote.take_error().is_none());
        assert_eq!(piped, one_at_a_time, "pipelining must not change a single bit");
    }
    g.sample_size(3);
    for &n in &[1usize, 4, 16, 64, 128] {
        g.bench_function(format!("service/scaling_seq/c{n}"), |b| {
            b.iter(|| {
                std::thread::scope(|s| {
                    let handles: Vec<_> = (0..n)
                        .map(|_| {
                            s.spawn(|| {
                                let client = Client::connect(&addr).expect("connect");
                                let mut served = 0usize;
                                for &p in &points {
                                    served +=
                                        client.evaluate(&scope, &[p]).expect("evaluate").1.len();
                                }
                                served
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().expect("client")).sum::<usize>()
                })
            })
        });
        g.bench_function(format!("service/scaling_pipe/c{n}"), |b| {
            b.iter(|| {
                std::thread::scope(|s| {
                    let handles: Vec<_> = (0..n)
                        .map(|_| {
                            s.spawn(|| {
                                let remote = RemoteEvaluator::new(
                                    Client::connect(&addr).expect("connect"),
                                    scope.clone(),
                                );
                                let got =
                                    remote.evaluate_batch(&points).expect("pipelined sweep");
                                assert!(remote.take_error().is_none());
                                got.len()
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().expect("client")).sum::<usize>()
                })
            })
        });
    }
    Client::connect(&addr).expect("connect").shutdown().expect("shutdown");
    server_handle.join().expect("server thread");

    // The fleet-scaling curve: the same warm sweep through the
    // evaluation engine over s daemons. Every daemon is bound over a
    // clone of ONE pre-warmed store (clones share tiers), so each
    // iteration measures pure serving — scheduling, stealing, and s
    // pipelined connections — not simulation. A fresh evaluator per
    // iteration keeps the client-side memo from absorbing the sweep.
    // `s1` is `service/scaling_pipe/c1` with 32-point frames; what `s2`
    // and `s4` add needs real cores to show up. The rows land in
    // BENCH_eval.json as `fleet/scaling_s{1,2,4}`. 32-point chunks give
    // the 640-point sweep 20 steal granules.
    const FLEET_CHUNK: usize = 32;
    let fleet_store = ArtifactStore::new();
    let warm_times: Vec<f64> = {
        let evaluator = fleet_store.evaluator("atax", &builder, gpu, &sizes);
        evaluator.evaluate_space(&space);
        points.iter().map(|&p| evaluator.evaluate(p).time_ms).collect()
    };
    for &s in &[1usize, 2, 4] {
        let daemons: Vec<_> = (0..s)
            .map(|_| {
                let server =
                    Server::bind("127.0.0.1:0", fleet_store.clone()).expect("bind loopback");
                let addr = server.local_addr().expect("local addr").to_string();
                let handle = std::thread::spawn(move || server.run().expect("serve"));
                (addr, handle)
            })
            .collect();
        let spec = FleetSpec::from_addrs(daemons.iter().map(|(a, _)| a.clone()).collect())
            .expect("fleet spec");
        {
            // Untimed bit-identity gate: the fleet sweep must agree
            // with the local evaluator byte-for-byte before it is
            // worth timing.
            let fleet = FleetEvaluator::with_policy(
                spec.clone(),
                scope.clone(),
                RetryPolicy::default(),
                FLEET_CHUNK,
            );
            let got = fleet.eval_many(&points);
            assert!(fleet.take_error().is_none(), "fleet gate failed");
            assert_eq!(got.len(), warm_times.len());
            for (g_t, l_t) in got.iter().zip(&warm_times) {
                assert_eq!(g_t.to_bits(), l_t.to_bits(), "fleet sweep must match local bits");
            }
        }
        g.bench_function(format!("fleet/scaling_s{s}"), |b| {
            b.iter_batched(
                || {
                    FleetEvaluator::with_policy(
                        spec.clone(),
                        scope.clone(),
                        RetryPolicy::default(),
                        FLEET_CHUNK,
                    )
                },
                |fleet| {
                    let served = fleet.eval_many(&points).len();
                    assert!(fleet.take_error().is_none(), "fleet sweep failed mid-bench");
                    served
                },
                BatchSize::PerIteration,
            )
        });
        for (addr, handle) in daemons {
            Client::connect(&addr).expect("connect").shutdown().expect("shutdown");
            handle.join().expect("server thread");
        }
    }

    g.finish();
}

criterion_group!(benches, bench_eval_throughput);
criterion_main!(benches);
