//! Layer probes: the per-layer metrics of a traced run.
//!
//! Each probe times one public entry point of one product crate from
//! outside, on inputs generated from the run's seed (the first
//! generated scope, its middle size, the seed-shuffled point order),
//! or does arithmetic on such timings. The probes are the same
//! whichever workload the traced run is for, so a layer's number can
//! be read next to any workload's end-to-end result.

use crate::metrics::MetricSet;
use crate::product::{
    analyze_in, decode_frame, emit_measurement, emit_request, emit_response, front_end,
    lower_indexed, occupancy, parse_measurement, parse_request, parse_response, peephole,
    predict_time_indexed, regalloc_allocate, suggest_from_in, unroll, write_frame_tagged,
    ArtifactStore, Client, CompiledKernel, CompilerFlags, EvalProtocol, Evaluator, FleetEvaluator,
    FleetSpec, FrontEnd, LowerOptions, Measurement, ModelContext, OccupancyInput, Program,
    ProgramKey, RemoteEvaluator, Request, Response, RetryPolicy, TuningParams,
};
use crate::stats::{median, quantile};
use crate::trace::{self_time_of, Tracer};
use crate::workloads::{
    round_trips, run_searchers, with_evaluator, work_dir, Daemon, Prepared, Recorder, FLEET_CHUNK,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// Repetitions of a cheap probe; the median is reported.
const REPS: usize = 9;
/// Repetitions of a whole-scope sweep probe.
const SWEEP_REPS: usize = 5;
/// Round trips per latency probe.
const TRIPS: usize = 1000;
/// The latency ladder takes its rungs in turn, this many trips each.
const LADDER_ROUND: usize = 100;
/// Points per codec and framing probe frame (the coalescer's default).
const FRAME_POINTS: usize = 64;

/// Median over [`REPS`] passes of the time one call of `f` takes, in
/// nanoseconds, where a pass calls `f` once per item.
fn per_call_ns<I>(items: &[I], mut f: impl FnMut(&I)) -> f64 {
    assert!(!items.is_empty(), "a probe needs inputs");
    let passes: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for item in items {
                f(item);
            }
            start.elapsed().as_nanos() as f64 / items.len() as f64
        })
        .collect();
    median(&passes)
}

/// Seconds `f` takes, and what it returned.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Runs every probe and returns every `<crate>.*` per-layer metric.
pub fn run(pre: &Prepared, tr: &Tracer) -> Result<MetricSet, String> {
    let mut out = MetricSet::new();
    tr.in_span("probe.front_end", || front_end_probes(pre, &mut out));
    tr.in_span("probe.analysis", || analysis_probes(pre, &mut out));
    tr.in_span("probe.evaluate", || evaluate_probes(pre, tr, &mut out));
    tr.in_span("probe.persist", || persist_probes(pre, &mut out))?;
    tr.in_span("probe.service", || service_probes(pre, &mut out))?;
    Ok(out)
}

/// The ten `(UIF, CFLAGS)` front-end keys of the space.
fn front_end_keys(pre: &Prepared) -> Vec<(u32, CompilerFlags)> {
    let mut keys = Vec::new();
    for &uif in &pre.space.uif {
        for &cflags in &pre.space.cflags {
            keys.push((uif, cflags));
        }
    }
    keys
}

/// `kernels`, `ir` and the `codegen` front-end, phase by phase.
fn front_end_probes(pre: &Prepared, out: &mut MetricSet) {
    let scope = &pre.inputs.scopes[0];
    let gpu = scope.gpu.spec();
    out.layer(
        "kernels.ast_us",
        per_call_ns(&scope.sizes, |&n| drop(black_box(scope.kernel.ast(n)))) / 1e3,
    );

    let ast = scope.kernel.ast(scope.mid_size());
    let keys = front_end_keys(pre);
    out.layer(
        "codegen.unroll_us",
        per_call_ns(&pre.space.uif, |&uif| drop(black_box(unroll(&ast, uif)))) / 1e3,
    );
    let unrolled: Vec<_> = keys
        .iter()
        .map(|&(uif, cflags)| (unroll(&ast, uif), cflags.fast_math))
        .collect();
    out.layer(
        "ir.lower_indexed_us",
        per_call_ns(&unrolled, |(ast, fast_math)| {
            drop(black_box(lower_indexed(
                ast,
                gpu.family,
                LowerOptions {
                    fast_math: *fast_math,
                },
            )))
        }) / 1e3,
    );
    let lowered: Vec<Program> = unrolled
        .iter()
        .map(|(ast, fast_math)| {
            lower_indexed(
                ast,
                gpu.family,
                LowerOptions {
                    fast_math: *fast_math,
                },
            )
            .0
        })
        .collect();
    out.layer(
        "ir.program_instrs",
        lowered.iter().map(|p| p.static_len() as f64).sum::<f64>() / lowered.len() as f64,
    );
    out.layer(
        "codegen.peephole_us",
        per_call_ns(&lowered, |program| drop(black_box(peephole(program)))) / 1e3,
    );
    out.layer(
        "codegen.regalloc_us",
        per_call_ns(&lowered, |program| {
            black_box(regalloc_allocate(program, gpu.regs_per_thread_max));
        }) / 1e3,
    );
    out.layer(
        "codegen.front_end_us",
        per_call_ns(&keys, |&(uif, cflags)| {
            drop(black_box(front_end(&ast, gpu, uif, cflags)))
        }) / 1e3,
    );
}

/// One compiled kernel per front-end key, as static analysis sees them.
fn probe_kernels(pre: &Prepared) -> Vec<CompiledKernel> {
    let scope = &pre.inputs.scopes[0];
    let ast = scope.kernel.ast(scope.mid_size());
    front_end_keys(pre)
        .into_iter()
        .map(|(uif, cflags)| {
            let fe = front_end(&ast, scope.gpu.spec(), uif, cflags).expect("valid unroll factor");
            let probe = TuningParams {
                uif,
                cflags,
                ..TuningParams::with_geometry(128, 48)
            };
            fe.specialize(probe)
                .expect("128 x 48 launches on every paper GPU")
        })
        .collect()
}

/// `arch` and `core`: the occupancy calculator against its table, and
/// the analyzer's three entry points.
fn analysis_probes(pre: &Prepared, out: &mut MetricSet) {
    let scope = &pre.inputs.scopes[0];
    let gpu = scope.gpu.spec();
    let n = scope.mid_size();
    let kernels = probe_kernels(pre);
    let context = ModelContext::new(gpu);

    // Every thread count of the space at each kernel's real resources.
    let inputs: Vec<OccupancyInput> = kernels
        .iter()
        .flat_map(|k| {
            pre.space.tc.iter().map(|&tc| OccupancyInput {
                tc,
                regs_per_thread: k.regs_per_thread(),
                smem_per_block: k.smem_per_block,
                shmem_per_mp: None,
            })
        })
        .collect();
    out.layer(
        "arch.occupancy_ns",
        per_call_ns(&inputs, |&i| {
            black_box(occupancy(gpu, i));
        }),
    );
    for &input in &inputs {
        context.occupancy(input);
    }
    out.layer(
        "arch.table_lookup_ns",
        per_call_ns(&inputs, |&i| {
            black_box(context.occupancy(i));
        }),
    );

    let table = context.occupancy_table();
    out.layer(
        "core.analyze_us",
        per_call_ns(&kernels, |k| drop(black_box(analyze_in(table, k, n)))) / 1e3,
    );
    out.layer(
        "core.suggest_ns",
        per_call_ns(&kernels, |k| {
            black_box(suggest_from_in(
                table,
                k.regs_per_thread(),
                k.smem_per_block,
            ));
        }),
    );
    out.layer(
        "core.predict_ns",
        per_call_ns(&kernels, |k| {
            black_box(predict_time_indexed(
                gpu.throughput(),
                &k.index,
                &k.program,
                k.geometry(n),
            ));
        }),
    );
}

/// `sim`, `codegen::specialize` and the `tuner` evaluation path: what
/// one store miss is made of, what a hit costs, what the parallel
/// batch buys, and what the searchers add on top of their queries.
fn evaluate_probes(pre: &Prepared, tr: &Tracer, out: &mut MetricSet) {
    let scope = &pre.inputs.scopes[0];
    let gpu = scope.gpu.spec();
    let points = pre.points.len() as f64;

    // The front-ends of the scope, keyed as the evaluator keys them.
    let build_front_ends = || {
        let mut map: HashMap<(u64, u32, CompilerFlags), (FrontEnd, ProgramKey)> = HashMap::new();
        for &n in &scope.sizes {
            let ast = scope.kernel.ast(n);
            for (uif, cflags) in front_end_keys(pre) {
                let fe = front_end(&ast, gpu, uif, cflags).expect("valid unroll factor");
                let key = ProgramKey::of_front_end(&fe);
                map.insert((n, uif, cflags), (fe, key));
            }
        }
        map
    };
    // One pass over the calls the evaluator makes per (point, size):
    // seconds spent in specialize, measure and dynamic mix, and calls.
    let replay = |front_ends: &HashMap<_, (FrontEnd, ProgramKey)>, context: &ModelContext| {
        let (mut ns, mut calls) = ([0u64; 3], 0u64);
        for (i, &p) in pre.points.iter().enumerate() {
            for &n in &scope.sizes {
                let (fe, key) = &front_ends[&(n, p.uif, p.cflags)];
                let t0 = Instant::now();
                let kernel = fe.specialize(p);
                let t1 = Instant::now();
                let Ok(kernel) = kernel else { continue };
                let trials = context.measure_keyed(key, &kernel, n, 10, n ^ i as u64);
                let t2 = Instant::now();
                let mix = context.dynamic_mix_keyed(key, &kernel, n);
                let t3 = Instant::now();
                black_box((trials.is_ok(), mix));
                ns[0] += (t1 - t0).as_nanos() as u64;
                ns[1] += (t2 - t1).as_nanos() as u64;
                ns[2] += (t3 - t2).as_nanos() as u64;
                calls += 1;
            }
        }
        (ns.map(|t| t as f64 / 1e9), calls.max(1) as f64)
    };
    let sweep_one_by_one = |ev: &Evaluator<'_>| {
        timed(|| {
            pre.points
                .iter()
                .for_each(|&p| drop(black_box(ev.evaluate(p))))
        })
        .0
    };

    // Each repetition starts from nothing: a fresh store for the
    // sequential misses (then hits), fresh front-ends and a fresh
    // context for the same misses replayed one layer down, a fresh
    // store for the parallel batch.
    let mut s = [(); 9].map(|()| Vec::new());
    let [miss, hit, build, specialize, measure, measure_again, mix, below, batch] = &mut s;
    let (mut lowerings, mut computed, mut calls) = (0, 0, 1.0);
    for _ in 0..SWEEP_REPS {
        let store = ArtifactStore::new();
        with_evaluator(&store, scope, EvalProtocol::default(), |ev| {
            miss.push(sweep_one_by_one(ev));
            hit.push(sweep_one_by_one(ev));
            lowerings = ev.front_end_lowerings();
        });

        let (build_s, front_ends) = timed(build_front_ends);
        let context = ModelContext::new(gpu);
        let (first, n) = replay(&front_ends, &context);
        let (again, _) = replay(&front_ends, &context);
        calls = n;
        build.push(build_s);
        specialize.push(first[0]);
        measure.push(first[1]);
        measure_again.push(again[1]);
        mix.push(first[2]);
        below.push(build_s + first.iter().sum::<f64>());

        let store = ArtifactStore::new();
        with_evaluator(&store, scope, EvalProtocol::default(), |ev| {
            batch.push(timed(|| black_box(ev.evaluate_space(&pre.space)).len()).0);
            computed = ev.unique_evaluations();
        });
    }
    out.layer("codegen.front_end_calls", lowerings as f64);
    out.layer("tuner.eval_miss_us", median(miss) / points * 1e6);
    out.layer("tuner.eval_hit_ns", median(hit) / points * 1e9);
    out.layer("codegen.specialize_ns", median(specialize) / calls * 1e9);
    out.layer("sim.measure_miss_ns", median(measure) / calls * 1e9);
    out.layer("sim.measure_hit_ns", median(measure_again) / calls * 1e9);
    out.layer("sim.dynamic_mix_ns", median(mix) / calls * 1e9);
    // What is left of a miss once the layers below are taken out: tier
    // bookkeeping, in-flight dedup, building the measurement.
    out.layer(
        "tuner.self_miss_us",
        (median(miss) - median(below)) / points * 1e6,
    );
    out.layer("tuner.batch_speedup", median(miss) / median(batch));
    out.layer(
        "tuner.dup_eval_share",
        1.0 - points / computed.max(1) as f64,
    );

    // Searcher overhead: span self time of the searches (wall minus
    // the oracle child) per query, on the warm store.
    let probe = Tracer::new(true);
    let queries = with_evaluator(&pre.store, scope, EvalProtocol::default(), |ev| {
        let recorder = Recorder::new(ev, true);
        run_searchers(pre.inputs.search_seeds[0][0], &pre.space, &recorder, &probe);
        recorder.into_log().len()
    });
    let spans = probe.spans();
    let overhead_ns: u64 = ["random", "anneal", "genetic", "nelder_mead"]
        .iter()
        .map(|s| self_time_of(&spans, &format!("tuner.search.{s}")))
        .sum();
    out.layer(
        "tuner.search_overhead_ns",
        overhead_ns as f64 / queries.max(1) as f64,
    );
    tr.aggregate("tuner.search_overhead", overhead_ns);
}

/// Bytes of every file directly under `dir`.
fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// `tuner::persist`: the record codec, and the disk tier written
/// through and loaded back.
fn persist_probes(pre: &Prepared, out: &mut MetricSet) -> Result<(), String> {
    let scope = &pre.inputs.scopes[0];
    let reference = &pre.reference[0].measurements;
    let points = pre.points.len() as f64;
    out.layer(
        "tuner.persist_emit_ns",
        per_call_ns(reference, |m| drop(black_box(emit_measurement(m)))),
    );
    let texts: Vec<String> = reference.iter().map(|m| emit_measurement(m)).collect();
    out.layer(
        "tuner.persist_parse_ns",
        per_call_ns(&texts, |t| drop(black_box(parse_measurement(t)))),
    );

    let dir = work_dir().join("probe-disk");
    let sweep = |store: &ArtifactStore| {
        with_evaluator(store, scope, EvalProtocol::default(), |ev| {
            timed(|| black_box(ev.evaluate_space(&pre.space)).len()).0
        })
    };
    let (mut memory, mut through, mut load, mut open) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut bytes = 0;
    for _ in 0..SWEEP_REPS {
        let _ = std::fs::remove_dir_all(&dir);
        memory.push(sweep(&ArtifactStore::new()));
        let store = ArtifactStore::with_disk(&dir).map_err(|e| format!("probe store: {e}"))?;
        through.push(sweep(&store));
        drop(store);
        bytes = dir_bytes(&dir);
        let (open_s, store) = timed(|| ArtifactStore::with_disk(&dir));
        let store = store.map_err(|e| format!("probe store reopen: {e}"))?;
        open.push(open_s);
        load.push(open_s + sweep(&store));
    }
    let _ = std::fs::remove_dir_all(&dir);
    out.layer("tuner.persist_bytes_per_point", bytes as f64 / points);
    out.layer(
        "tuner.persist_write_overhead_s",
        median(&through) - median(&memory),
    );
    out.layer("tuner.persist_load_points_per_s", points / median(&load));
    out.layer("tuner.store_open_us", median(&open) * 1e6);
    Ok(())
}

/// The benchmark's own loopback echo of frame-sized payloads: not
/// product code, the floor under every RPC on this machine.
struct Echo {
    stream: TcpStream,
    server: std::thread::JoinHandle<std::io::Result<()>>,
    request: Vec<u8>,
    response: Vec<u8>,
}

impl Echo {
    fn start(request: Vec<u8>, response_len: usize) -> std::io::Result<Echo> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let request_len = request.len();
        let server = std::thread::spawn(move || -> std::io::Result<()> {
            let (mut stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut inbound = vec![0u8; request_len];
            let outbound = vec![0x55u8; response_len];
            // Ends when the client hangs up.
            while stream.read_exact(&mut inbound).is_ok() {
                stream.write_all(&outbound)?;
            }
            Ok(())
        });
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Echo {
            stream,
            server,
            request,
            response: vec![0u8; response_len],
        })
    }

    /// One round trip, in microseconds.
    fn trip(&mut self) -> std::io::Result<f64> {
        let start = Instant::now();
        self.stream.write_all(&self.request)?;
        self.stream.read_exact(&mut self.response)?;
        Ok(start.elapsed().as_secs_f64() * 1e6)
    }

    fn stop(self) -> std::io::Result<()> {
        drop(self.stream);
        self.server.join().expect("echo thread")
    }
}

fn frame(payload: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame_tagged(&mut buf, 1, payload).expect("writing to memory");
    buf
}

/// `service` and `fleet`: codec, framing, the latency ladder from the
/// bare wire up to a single-point evaluate, and whole-scope sweeps
/// through one daemon and through two.
fn service_probes(pre: &Prepared, out: &mut MetricSet) -> Result<(), String> {
    let scope = &pre.eval_scopes[0];
    let asked = &pre.shuffled[0];

    // Codec and framing on 64-point frames, per point / per frame.
    let request = Request::Evaluate {
        scope: scope.clone(),
        points: asked[..FRAME_POINTS.min(asked.len())].to_vec(),
        deadline_ms: 10_000,
    };
    let measurements: Vec<Measurement> = pre.inputs.point_order[0]
        .iter()
        .take(FRAME_POINTS)
        .map(|&i| (*pre.reference[0].measurements[i as usize]).clone())
        .collect();
    let per_frame = measurements.len() as f64;
    let response = Response::Evaluate {
        computed: 0,
        measurements,
    };
    let (req_text, resp_text) = (emit_request(&request), emit_response(&response));
    let one = [()];
    out.layer(
        "service.codec_req_emit_ns",
        per_call_ns(&one, |_| drop(black_box(emit_request(&request)))) / per_frame,
    );
    out.layer(
        "service.codec_req_parse_ns",
        per_call_ns(&one, |_| drop(black_box(parse_request(&req_text)))) / per_frame,
    );
    out.layer(
        "service.codec_resp_emit_ns",
        per_call_ns(&one, |_| drop(black_box(emit_response(&response)))) / per_frame,
    );
    out.layer(
        "service.codec_resp_parse_ns",
        per_call_ns(&one, |_| drop(black_box(parse_response(&resp_text)))) / per_frame,
    );
    out.layer(
        "service.bytes_per_point",
        (req_text.len() + resp_text.len()) as f64 / per_frame,
    );
    out.layer(
        "service.frame_write_ns",
        per_call_ns(&one, |_| drop(black_box(frame(&resp_text)))),
    );
    let framed = frame(&resp_text);
    out.layer(
        "service.frame_decode_ns",
        per_call_ns(&one, |_| drop(black_box(decode_frame(&framed)))),
    );

    // The latency ladder, each rung the median of TRIPS round trips.
    let single_req = frame(&emit_request(&Request::Evaluate {
        scope: scope.clone(),
        points: asked[..1].to_vec(),
        deadline_ms: 10_000,
    }));
    let single_resp = frame(&emit_response(&Response::Evaluate {
        computed: 0,
        measurements: vec![(*pre.reference[0].measurements[0]).clone()],
    }));
    // The three rungs are sampled in turn, a hundred trips at a time,
    // so a change of phase in the machine's wake-up latency lands on all
    // of them and not on their differences.
    let echo_err = |e: std::io::Error| format!("echo probe: {e}");
    let daemon = Daemon::start(pre.store.clone())?;
    let mut echo = Echo::start(single_req, single_resp.len()).map_err(echo_err)?;
    let client = Client::connect(&daemon.addr).map_err(|e| format!("probe client: {e}"))?;
    let (mut floors, mut pings, mut rpcs) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..TRIPS / LADDER_ROUND {
        for _ in 0..LADDER_ROUND {
            floors.push(echo.trip().map_err(echo_err)?);
        }
        for _ in 0..LADDER_ROUND {
            let start = Instant::now();
            client.ping().map_err(|e| format!("ping: {e}"))?;
            pings.push(start.elapsed().as_secs_f64() * 1e6);
        }
        let samples = pre.inputs.rpc_sequence.iter().copied();
        rpcs.extend(
            round_trips(
                &daemon.addr,
                pre,
                samples.skip(round * LADDER_ROUND).take(LADDER_ROUND),
            )
            .us,
        );
    }
    echo.stop().map_err(echo_err)?;

    // Whole-scope sweeps: locally on the warm store, through one
    // daemon, and through a fleet of two.
    let local: Vec<f64> = (0..SWEEP_REPS)
        .map(|_| {
            with_evaluator(
                &pre.store,
                &pre.inputs.scopes[0],
                EvalProtocol::default(),
                |ev| timed(|| black_box(ev.evaluate_batch(asked)).len()).0,
            )
        })
        .collect();
    let mut remote_s = Vec::new();
    let mut remote_counts = (0, 0, 0);
    for _ in 0..SWEEP_REPS {
        let Ok(client) = Client::connect(&daemon.addr) else {
            continue;
        };
        let remote = RemoteEvaluator::new(client, scope.clone());
        let (s, got) = timed(|| remote.evaluate_batch(asked));
        if got.is_some() {
            remote_s.push(s);
            remote_counts = (
                remote.batches_sent(),
                remote.peak_batch(),
                remote.client().retries(),
            );
        }
    }
    let second = Daemon::start(pre.store.clone())?;
    let spec = FleetSpec::from_addrs(vec![daemon.addr.clone(), second.addr.clone()])?;
    let mut fleet_s = Vec::new();
    let mut fleet_stats = None;
    for _ in 0..SWEEP_REPS {
        let fleet = FleetEvaluator::with_policy(
            spec.clone(),
            scope.clone(),
            RetryPolicy::default(),
            FLEET_CHUNK,
        );
        let (s, got) = timed(|| fleet.evaluate_batch(asked));
        if got.is_some() {
            fleet_s.push(s);
            fleet_stats = Some(fleet.stats());
        }
    }
    second.stop();
    daemon.stop();

    if remote_s.is_empty() || fleet_s.is_empty() {
        return Err("service probe: a warm sweep through the daemon failed".to_string());
    }
    let (floor, ping, rpc) = (median(&floors), median(&pings), median(&rpcs));
    out.layer("service.wire_floor_us", floor);
    out.layer("service.ping_us", ping);
    out.layer("service.reactor_overhead_us", ping - floor);
    out.layer("service.rpc_p50_us", rpc);
    out.layer("service.dispatch_overhead_us", rpc - ping);
    out.layer("service.eval1_p99_us", quantile(&rpcs, 0.99));
    out.layer("service.batch_frames", remote_counts.0 as f64);
    out.layer("service.points_per_frame", remote_counts.1 as f64);
    out.layer("service.retries", remote_counts.2 as f64);
    out.layer("service.tax_ratio", median(&remote_s) / median(&local));

    let stats = fleet_stats.expect("a fleet sweep succeeded");
    let counters = stats.counters();
    let completed: Vec<f64> = stats.shards.iter().map(|s| s.completed as f64).collect();
    let mean = completed.iter().sum::<f64>() / completed.len() as f64;
    out.layer("fleet.chunks", counters.batches_dispatched as f64);
    out.layer(
        "fleet.stolen_share",
        counters.batches_stolen as f64 / counters.batches_dispatched.max(1) as f64,
    );
    out.layer(
        "fleet.shard_imbalance",
        completed.iter().copied().fold(0.0, f64::max) / mean,
    );
    out.layer("fleet.shards_lost", counters.shards_lost as f64);
    out.layer("fleet.overhead_ratio", median(&fleet_s) / median(&remote_s));
    Ok(())
}
