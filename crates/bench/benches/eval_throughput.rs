//! Criterion bench: end-to-end `evaluate_space` throughput on the
//! paper's Fig. 3 space — the search-layer hot path this repo's
//! split-phase compilation cache and sharded memo exist to accelerate.
//!
//! Four scenarios bracket the engine:
//!
//! * `cold/1thread` — fresh evaluator, sequential sweep: every point
//!   pays the back-end + simulate cost, front-ends amortize across the
//!   space.
//! * `cold/Nthreads` — fresh evaluator, parallel batch: workers claim
//!   front-end-grouped chunks of misses, in-flight dedup per point.
//! * `warm/1thread` and `warm/Nthreads` — pre-populated memo: pure
//!   cache-hit traversal, the cost stochastic searchers pay on
//!   revisits. An all-hit batch is served on the calling thread, so
//!   the two rows must read alike (CI gates `Nthreads` ≤ 1.25 ×
//!   `1thread` within one run).
//!
//! The space is the 5,120-variant Fig. 3 instantiation thinned on the
//! `TC` axis (640 points) so a bench iteration stays affordable; pass
//! through `evaluate_space` is end-to-end either way.
//!
//! The `disk/*` scenarios exercise the persistent tier: a cold sweep
//! with write-through spilling, and a warm-from-disk re-sweep where a
//! **fresh store** (standing in for a new process) serves the whole
//! space from its on-disk artifact — the repo's acceptance bar is the
//! warm-from-disk re-sweep ≥ 2× faster than the cold sweep. Pass
//! `--store-dir DIR` to persist the scenario artifacts (and resume a
//! killed run); the default is a throwaway temp directory. Pass
//! `--json PATH` (a shim extension) to also write every result as
//! machine-readable JSON, e.g. `BENCH_eval.json`.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use oriole_arch::Gpu;
use oriole_codegen::{compile, front_end, FrontEnd, TuningParams};
use oriole_fleet::{FleetEvaluator, FleetSpec};
use oriole_kernels::KernelId;
use oriole_ir::lower::{lower_indexed, LowerOptions};
use oriole_service::{Client, EvalScope, RemoteEvaluator, RetryPolicy, ServeConfig, Server};
use oriole_sim::{dynamic_mix, measure, simulate, TrialProtocol};
use oriole_tuner::{ArtifactStore, EvalProtocol, Evaluator, Oracle, SearchSpace};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The disk-scenario base directory: `--store-dir` when given (kept on
/// exit), a process-unique temp directory otherwise (removed on exit).
fn disk_base_dir() -> (PathBuf, bool) {
    let argv: Vec<String> = std::env::args().collect();
    if let Some(i) = argv.iter().position(|a| a == "--store-dir") {
        if let Some(dir) = argv.get(i + 1) {
            return (PathBuf::from(dir), true);
        }
    }
    (
        std::env::temp_dir().join(format!("oriole-eval-throughput-{}", std::process::id())),
        false,
    )
}

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

    // The seed engine's per-point cost: rebuild the AST and run the
    // monolithic compile (validate → unroll → lower → regalloc) for
    // every (variant × size), then measure — no caching anywhere. This
    // is the baseline the split-phase engine is judged against.
    g.bench_function("baseline/uncached_compile_per_point", |b| {
        b.iter(|| {
            let mut total = 0.0f64;
            for p in space.iter() {
                for &n in &sizes {
                    let ast = builder(n);
                    let kernel = compile(black_box(&ast), gpu, p).expect("feasible space");
                    let trials = measure(&kernel, n, 10, 0x0012_101e ^ n).expect("simulates");
                    total += trials.selected(TrialProtocol::FifthOfTen);
                    black_box(dynamic_mix(&kernel, n));
                }
            }
            total
        })
    });

    // The program-index pair: both scenarios drive every point through
    // specialize + simulate + dynamic_mix directly (no evaluator tiers),
    // so the only difference is where the front end runs.
    // `frontend/cold_index_build` pays unroll + lower + ProgramIndex
    // construction for each distinct (UIF, CFLAGS) key inside the timed
    // region; `frontend/indexed_resweep` reuses prebuilt front-end
    // artifacts, so every analysis replays the shared index. The delta
    // prices the once-per-artifact index build against the per-query
    // sweep it amortizes.
    g.bench_function("frontend/cold_index_build", |b| {
        b.iter(|| {
            let mut fes: HashMap<(u32, bool), FrontEnd> = HashMap::new();
            let mut total = 0.0f64;
            for p in space.iter() {
                for &n in &sizes {
                    let fe = fes.entry((p.uif, p.cflags.fast_math)).or_insert_with(|| {
                        front_end(&builder(n), gpu, p.uif, p.cflags).expect("feasible space")
                    });
                    let kernel = fe.specialize(p).expect("feasible space");
                    total += simulate(&kernel, n).expect("simulates").time_ms;
                    black_box(dynamic_mix(&kernel, n));
                }
            }
            total
        })
    });

    g.bench_function("frontend/indexed_resweep", |b| {
        b.iter_batched(
            || {
                let mut fes: HashMap<(u32, bool), FrontEnd> = HashMap::new();
                for p in space.iter() {
                    for &n in &sizes {
                        fes.entry((p.uif, p.cflags.fast_math)).or_insert_with(|| {
                            front_end(&builder(n), gpu, p.uif, p.cflags).expect("feasible space")
                        });
                    }
                }
                fes
            },
            |fes| {
                let mut total = 0.0f64;
                for p in space.iter() {
                    for &n in &sizes {
                        let fe = &fes[&(p.uif, p.cflags.fast_math)];
                        let kernel = fe.specialize(p).expect("feasible space");
                        total += simulate(&kernel, n).expect("simulates").time_ms;
                        black_box(dynamic_mix(&kernel, n));
                    }
                }
                total
            },
            BatchSize::SmallInput,
        )
    });

    // Per-phase microbenches over the space's distinct front-end keys
    // (UIF × fast-math): each isolates one stage of the front-end/
    // back-end pipeline, so a regression in `frontend/cold_index_build`
    // can be attributed without re-profiling. `phase_unroll` times the
    // source transformation, `phase_lower` the arena-interned lowering
    // with fused index construction, `phase_optimize` the dense-alias
    // peephole pass, and `phase_regalloc` the linear-scan estimator —
    // the same stages the `tune --stats` phase profiler reports.
    let phase_n = sizes[0];
    let phase_ast = builder(phase_n);
    let uifs = thinned_fig3_space().uif;
    let fast_maths = [false, true];
    g.bench_function("frontend/phase_unroll", |b| {
        b.iter(|| {
            for &uif in &uifs {
                black_box(oriole_codegen::unroll(black_box(&phase_ast), uif));
            }
        })
    });

    let unrolled: Vec<_> = uifs.iter().map(|&uif| oriole_codegen::unroll(&phase_ast, uif)).collect();
    g.bench_function("frontend/phase_lower", |b| {
        b.iter(|| {
            for ast in &unrolled {
                for &fast_math in &fast_maths {
                    black_box(lower_indexed(
                        black_box(ast),
                        gpu.family,
                        LowerOptions { fast_math },
                    ));
                }
            }
        })
    });

    let lowered: Vec<_> = unrolled
        .iter()
        .flat_map(|ast| {
            fast_maths
                .iter()
                .map(|&fast_math| lower_indexed(ast, gpu.family, LowerOptions { fast_math }).0)
        })
        .collect();
    g.bench_function("frontend/phase_optimize", |b| {
        b.iter(|| {
            for program in &lowered {
                black_box(oriole_codegen::peephole(black_box(program)));
            }
        })
    });

    g.bench_function("frontend/phase_regalloc", |b| {
        b.iter(|| {
            for program in &lowered {
                black_box(oriole_codegen::regalloc::allocate(
                    black_box(program),
                    gpu.regs_per_thread_max,
                ));
            }
        })
    });

    g.bench_function("cold/1thread", |b| {
        b.iter_batched(
            || Evaluator::new(&builder, gpu, &sizes),
            |evaluator| {
                space.iter().map(|p| evaluator.evaluate(p).time_ms).sum::<f64>()
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("cold/Nthreads", |b| {
        b.iter_batched(
            || Evaluator::new(&builder, gpu, &sizes),
            |evaluator| evaluator.evaluate_space(&space).len(),
            BatchSize::SmallInput,
        )
    });

    g.bench_function("warm/1thread", |b| {
        b.iter_batched(
            || {
                let evaluator = Evaluator::new(&builder, gpu, &sizes);
                evaluator.evaluate_space(&space);
                evaluator
            },
            |evaluator| {
                space.iter().map(|p| evaluator.evaluate(p).time_ms).sum::<f64>()
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("warm/Nthreads", |b| {
        b.iter_batched(
            || {
                let evaluator = Evaluator::new(&builder, gpu, &sizes);
                evaluator.evaluate_space(&space);
                evaluator
            },
            |evaluator| evaluator.evaluate_space(&space).len(),
            BatchSize::SmallInput,
        )
    });

    // The cross-sweep scenario the process-level ArtifactStore exists
    // for: an experiment driver runs the same (kernel, GPU, sizes) sweep
    // three times (e.g. an exhaustive pass plus two pruned re-sweeps,
    // as fig6 does). `fresh_per_sweep` is the old world — a throwaway
    // evaluator per sweep recomputes everything; `shared_store` borrows
    // tiers from one store, so sweeps 2 and 3 are pure cache hits. The
    // acceptance bar for this repo is shared_store ≥ 2× faster, with
    // bit-identical measurements (asserted in tests/store_reuse.rs).
    const SWEEPS: usize = 3;

    g.bench_function("sweeps/fresh_per_sweep", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for _ in 0..SWEEPS {
                let evaluator = Evaluator::new(&builder, gpu, &sizes);
                total += evaluator.evaluate_space(&space).len();
            }
            total
        })
    });

    g.bench_function("sweeps/shared_store", |b| {
        b.iter(|| {
            let store = ArtifactStore::new();
            let mut total = 0usize;
            for _ in 0..SWEEPS {
                let evaluator = store.evaluator("atax", &builder, gpu, &sizes);
                total += evaluator.evaluate_space(&space).len();
            }
            total
        })
    });

    // The persistent tier. `disk/cold_sweep_writethrough` is a first
    // run against an empty directory — every measurement is computed
    // and spilled; `disk/warm_from_disk_resweep` rebuilds the store
    // from scratch per iteration (a stand-in for a new process) and
    // serves the identical sweep purely from the on-disk artifact. The
    // acceptance bar: warm-from-disk ≥ 2× faster than cold (asserted
    // with measurements in tests/persist.rs; observable here).
    let (base, keep) = disk_base_dir();
    let cold_counter = AtomicUsize::new(0);
    g.bench_function("disk/cold_sweep_writethrough", |b| {
        b.iter_batched(
            || {
                let dir =
                    base.join(format!("cold-{}", cold_counter.fetch_add(1, Ordering::Relaxed)));
                let _ = std::fs::remove_dir_all(&dir);
                ArtifactStore::with_disk(&dir).expect("writable store dir")
            },
            |store| store.evaluator("atax", &builder, gpu, &sizes).evaluate_space(&space).len(),
            BatchSize::SmallInput,
        )
    });

    let warm_dir = base.join("warm");
    {
        // Populate once (or resume, under --store-dir).
        let store = ArtifactStore::with_disk(&warm_dir).expect("writable store dir");
        store.evaluator("atax", &builder, gpu, &sizes).evaluate_space(&space);
    }
    g.bench_function("disk/warm_from_disk_resweep", |b| {
        b.iter_batched(
            || ArtifactStore::with_disk(&warm_dir).expect("writable store dir"),
            |store| store.evaluator("atax", &builder, gpu, &sizes).evaluate_space(&space).len(),
            BatchSize::SmallInput,
        )
    });

    if !keep {
        let _ = std::fs::remove_dir_all(&base);
    }

    // The serving path (`oriole serve` / `--remote`): the same sweep
    // through a real TCP + framed-RPC boundary against an in-process
    // daemon. `service/remote_cold_sweep` spins a fresh daemon (empty
    // memory store) per iteration — the whole space is computed
    // server-side and every measurement crosses the wire; compared
    // against `cold/Nthreads` it prices the RPC + canonical-
    // serialization overhead of remote evaluation.
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
    // through a deliberately serialized admission gate
    // (`max_inflight: 1`). Against `warm_shared_clients` it prices the
    // fault-hardening layer itself: the condvar slot hand-off every
    // request now passes through, at its worst-case contention.
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
    let big = ServeConfig { workers: 512, ..ServeConfig::default() };
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

    // The fleet-scaling curve: the same warm sweep multiplexed across s
    // daemons by the work-stealing `FleetEvaluator`. Every daemon is
    // bound over a clone of ONE pre-warmed store (clones share tiers),
    // so each iteration measures pure fleet serving — scheduling,
    // stealing, and s-way RPC concurrency — not simulation. A fresh
    // evaluator per iteration keeps the client-side memo from absorbing
    // the sweep. The acceptance bar — s4 ≥ 2× s1 throughput — is gated
    // in CI on runners with ≥ 4 cores (the s1 sweep serializes client
    // and daemon work on one synchronous connection; the fleet overlaps
    // s of those pipelines, which needs real cores to show up). The
    // rows land in BENCH_eval.json as `fleet/scaling_s{1,2,4}`.
    // 32-point chunks give the 640-point sweep 20 steal granules —
    // perfect 4-way balance with per-RPC overhead still amortized.
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
