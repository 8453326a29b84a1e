//! The serving rows `benchmark/` has no twin for — a sweep of the
//! paper's Fig. 3 space through real TCP + framed RPC against
//! in-process daemons.
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
//! The local rows are `benchmark/`'s, taken on the full space with
//! spread (`unit_p50_s` @ `cold_sweep`, `warm_search`, `disk_roundtrip`).
//!
//! The space is the 5,120-variant Fig. 3 instantiation thinned on the
//! `TC` axis (640 points) so an iteration stays affordable. Each row is
//! one mean wall time over a fixed number of iterations (10 for the
//! first three rows, 3 after), printed as `bench: <label> <time>/iter`;
//! `--json PATH` also writes every row to `PATH` (`oriole-bench-v1`),
//! e.g. `BENCH_eval.json`.

use oriole_arch::Gpu;
use oriole_codegen::TuningParams;
use oriole_kernels::KernelId;
use oriole_service::{
    Client, EvalScope, FleetSpec, RemoteEvaluator, RetryPolicy, ServeConfig, Server,
};
use oriole_tuner::{ArtifactStore, EvalProtocol, Oracle, SearchSpace};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The JSON line of every row timed so far.
#[derive(Default)]
struct Rows(Vec<String>);

impl Rows {
    /// Times `iters` calls of `routine`, each on a fresh `setup()`
    /// whose own time is left out, and records and prints the mean.
    fn time<I, O>(
        &mut self,
        name: &str,
        iters: u32,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
    ) {
        let mut total = Duration::ZERO;
        for _ in 0..iters {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            total += start.elapsed();
        }
        let label = format!("eval_throughput/{name}");
        let per_iter = total / iters;
        println!("bench: {label:<48} {per_iter:>12.3?}/iter ({iters} iters)");
        let ns = per_iter.as_nanos();
        let row = format!("\"name\": \"{label}\", \"ns_per_iter\": {ns}, \"iters\": {iters}");
        self.0.push(format!("    {{{row}}}"));
    }
}

/// An in-process daemon on a loopback port.
struct Daemon {
    addr: String,
    thread: JoinHandle<()>,
}

impl Daemon {
    fn start(store: ArtifactStore, config: ServeConfig) -> Daemon {
        let server = Server::bind_with("127.0.0.1:0", store, config).expect("bind loopback");
        let addr = server.local_addr().expect("local addr").to_string();
        let thread = std::thread::spawn(move || {
            server.run().expect("serve");
        });
        Daemon { addr, thread }
    }

    fn client(&self) -> Client {
        Client::connect(&self.addr).expect("connect")
    }

    /// Asks the daemon to shut down and waits for it to exit.
    fn stop(self) {
        self.client().shutdown().expect("shutdown");
        self.thread.join().expect("daemon thread");
    }
}

/// Runs `client` on `n` concurrent threads; the points they served.
fn fan_out(n: usize, client: impl Fn() -> usize + Sync) -> usize {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n).map(|_| s.spawn(&client)).collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).sum()
    })
}

fn main() {
    let gpu = Gpu::K20.spec();
    let kid = KernelId::Atax;
    let sizes = [128u64];
    let builder = move |n: u64| kid.ast(n);
    let mut space = SearchSpace::paper_default();
    // Thin TC 32→4 steps: 4 × 8 × 5 × 2 × 1 × 2 = 640 points, the same
    // mix of front-end keys (UIF × CFLAGS) as the full space.
    space.tc = vec![128, 256, 512, 1024];
    let points: Vec<TuningParams> = space.iter().collect();
    let scope = EvalScope {
        kernel: "atax".to_string(),
        gpu: gpu.clone(),
        sizes: sizes.to_vec(),
        protocol: EvalProtocol::default(),
    };
    let sweep = |client: &Client| client.evaluate(&scope, &points).expect("evaluate").1.len();
    let mut rows = Rows::default();

    // A fresh daemon (empty memory store) per iteration: the whole space
    // is computed server-side and every measurement crosses the wire.
    // Binding and dialing are setup; shutting down is timed.
    rows.time(
        "service/remote_cold_sweep",
        10,
        || {
            let daemon = Daemon::start(ArtifactStore::new(), ServeConfig::default());
            let client = daemon.client();
            (daemon, client)
        },
        |(daemon, client)| {
            let served = sweep(&client);
            client.shutdown().expect("shutdown");
            daemon.thread.join().expect("daemon thread");
            served
        },
    );

    // Four concurrent clients, each traversing a daemon store that
    // already holds the space: pure tier hits plus framing. On a
    // one-worker pool (`max_inflight: 1`) a 640-point frame is past what
    // the reactor answers inline, so every frame queues for that worker:
    // against the shared row it prices the hand-off at its worst.
    let gated = ServeConfig { max_inflight: 1, ..ServeConfig::default() };
    for (name, config) in [
        ("service/warm_shared_clients", ServeConfig::default()),
        ("service/warm_gated_clients", gated),
    ] {
        let daemon = Daemon::start(ArtifactStore::new(), config);
        sweep(&daemon.client());
        rows.time(name, 10, || (), |()| fan_out(4, || sweep(&daemon.client())));
        daemon.stop();
    }

    // The client-scaling curve on a warm daemon: N concurrent clients,
    // each sweeping the whole space, in two wire disciplines.
    // `scaling_seq` sends one point per exchange, one exchange in
    // flight per connection, so throughput is bounded by round-trip
    // latency; `scaling_pipe` sends the same sweep through pipelined
    // evaluators (64-point frames, 8 in flight per connection).
    let big = ServeConfig { max_connections: 512, ..ServeConfig::default() };
    let daemon = Daemon::start(ArtifactStore::new(), big);
    sweep(&daemon.client());
    let piped = || {
        let remote = RemoteEvaluator::new(daemon.client(), scope.clone());
        let got = remote.evaluate_batch(&points).expect("pipelined sweep");
        assert!(remote.take_error().is_none());
        got
    };
    // Untimed bit-identity gate: the pipelined sweep and the
    // one-point-per-exchange sweep must agree byte for byte before
    // either is worth timing.
    let single = daemon.client();
    let one_at_a_time: Vec<_> = points
        .iter()
        .map(|&p| single.evaluate(&scope, &[p]).expect("evaluate").1.remove(0))
        .collect();
    drop(single);
    assert_eq!(piped(), one_at_a_time, "pipelining must not change a single bit");
    for n in [1usize, 4, 16, 64, 128] {
        rows.time(&format!("service/scaling_seq/c{n}"), 3, || (), |()| {
            fan_out(n, || {
                let client = daemon.client();
                let one = |&p| client.evaluate(&scope, &[p]).expect("evaluate").1.len();
                points.iter().map(one).sum()
            })
        });
        rows.time(&format!("service/scaling_pipe/c{n}"), 3, || (), |()| {
            fan_out(n, || piped().len())
        });
    }
    daemon.stop();

    // The fleet-scaling curve: the same warm sweep through the
    // evaluation engine over s daemons, each bound over a clone of ONE
    // pre-warmed store (clones share tiers), so an iteration measures
    // serving — scheduling, stealing, s pipelined connections — not
    // simulation. A fresh evaluator per iteration (setup, untimed) keeps
    // the client-side memo from absorbing the sweep. `s1` is
    // `scaling_pipe/c1` with 32-point frames, 20 steal granules.
    let fleet_store = ArtifactStore::new();
    let warm_bits: Vec<u64> = {
        let evaluator = fleet_store.evaluator("atax", &builder, gpu, &sizes);
        evaluator.evaluate_space(&space);
        points.iter().map(|&p| evaluator.evaluate(p).time_ms.to_bits()).collect()
    };
    for s in [1usize, 2, 4] {
        let daemons: Vec<Daemon> = (0..s)
            .map(|_| Daemon::start(fleet_store.clone(), ServeConfig::default()))
            .collect();
        let spec = FleetSpec::from_addrs(daemons.iter().map(|d| d.addr.clone()).collect())
            .expect("fleet spec");
        let fleet = || {
            RemoteEvaluator::with_policy(spec.clone(), scope.clone(), RetryPolicy::default(), 32)
        };
        let fleet_sweep = |fleet: RemoteEvaluator| {
            let got = fleet.eval_many(&points);
            assert!(fleet.take_error().is_none(), "fleet sweep failed");
            got
        };
        // Untimed bit-identity gate: the fleet sweep must agree with the
        // local evaluator bit for bit before it is worth timing.
        let got: Vec<u64> = fleet_sweep(fleet()).iter().map(|t| t.to_bits()).collect();
        assert_eq!(got, warm_bits, "fleet sweep must match local bits");
        rows.time(&format!("fleet/scaling_s{s}"), 3, fleet, |f| fleet_sweep(f).len());
        daemons.into_iter().for_each(Daemon::stop);
    }

    let args: Vec<String> = std::env::args().collect();
    if let Some(path) = args.iter().position(|a| a == "--json").and_then(|i| args.get(i + 1)) {
        let (format, results) = ("\"format\": \"oriole-bench-v1\"", rows.0.join(",\n"));
        let json = format!("{{\n  {format},\n  \"results\": [\n{results}\n  ]\n}}\n");
        match std::fs::write(path, json) {
            Ok(()) => println!("bench: wrote {} result(s) to {path}", rows.0.len()),
            Err(e) => eprintln!("cannot write --json {path}: {e}"),
        }
    }
}
