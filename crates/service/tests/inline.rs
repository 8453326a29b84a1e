//! The reactor's inline path: an `evaluate` frame every point of which
//! the store already holds is answered where `ping` and `stats` are —
//! the bytes a worker would have sent, with no gate slot, queue entry or
//! wake-up — and everything else (a miss, a point in flight, a scope not
//! opened yet, a request a worker would refuse) still goes to a worker.
//! Plus the bound that keeps the inline path from being an amplifier: a
//! peer that never reads is throttled through its own TCP window.
//!
//! No test here sleeps to create a race. A worker is parked for exactly
//! as long as a test wants by the store's own in-flight dedup: the test
//! shares the daemon's store, starts computing a point through a kernel
//! builder that blocks on a channel, and a frame naming that point then
//! waits on the point's cell until the channel is fed.

mod common;

use oriole_arch::{Gpu, GpuSpec};
use oriole_codegen::TuningParams;
use oriole_kernels::KernelId;
use oriole_service::protocol::{emit_request, parse_response};
use oriole_service::{
    Client, EvalScope, Request, Response, RetryPolicy, ServeConfig, ServeSummary, Server,
    ServiceError, ServiceStats,
};
use oriole_tuner::persist::{encode_frame, write_frame_tagged};
use oriole_tuner::{ArtifactStore, EvalProtocol, Measurement, SearchSpace};
use std::io::Write;
use std::net::TcpStream;
use std::sync::{mpsc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One more than the reactor answers inline (`server::INLINE_POINTS`).
const OVER_THE_INLINE_BOUND: usize = 257;

fn spawn_server(store: ArtifactStore, cfg: ServeConfig) -> (String, JoinHandle<ServeSummary>) {
    let server = Server::bind_with("127.0.0.1:0", store, cfg).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    (addr, std::thread::spawn(move || server.run().expect("serve")))
}

/// Never retries, so a case sees the first failure; default deadline.
fn fail_fast() -> RetryPolicy {
    RetryPolicy { max_retries: 0, ..RetryPolicy::default() }
}

fn scope(kernel: &str, gpu: &GpuSpec, sizes: &[u64]) -> EvalScope {
    EvalScope {
        kernel: kernel.to_string(),
        gpu: gpu.clone(),
        sizes: sizes.to_vec(),
        protocol: EvalProtocol::default(),
    }
}

fn stats(addr: &str) -> ServiceStats {
    Client::connect(addr).expect("connect").stats().expect("stats")
}

fn shutdown(addr: &str, handle: JoinHandle<ServeSummary>) -> ServeSummary {
    Client::connect(addr).expect("connect").shutdown().expect("shutdown");
    handle.join().expect("server thread")
}

/// One `evaluate` exchange on a raw socket: the response payload, text
/// and all.
fn raw_evaluate(stream: &mut TcpStream, sc: &EvalScope, points: &[TuningParams], deadline_ms: u64) -> String {
    let req = Request::Evaluate { scope: sc.clone(), points: points.to_vec(), deadline_ms };
    write_frame_tagged(stream, 9, &emit_request(&req)).expect("send");
    let (corr, payload) = common::read_frame(stream, &mut Vec::new()).expect("a response frame");
    assert_eq!(corr, 9, "the answer echoes the request's id");
    payload
}

/// The `m ` record lines of an `ok evaluate` payload.
fn records(payload: &str) -> Vec<&str> {
    payload.lines().filter(|l| l.starts_with("m ")).collect()
}

/// A worker of the daemon at `addr`, parked on a point of `store`'s
/// `atax` × K20 × `[128]` scope that this struct is computing — and goes
/// on computing until [`ParkedWorker::release`].
struct ParkedWorker {
    point: TuningParams,
    scope: EvalScope,
    go: mpsc::Sender<()>,
    computing: JoinHandle<Measurement>,
    asking: JoinHandle<(u64, Vec<Measurement>)>,
}

impl ParkedWorker {
    fn park(store: &ArtifactStore, addr: &str) -> ParkedWorker {
        let point = TuningParams::with_geometry(128, 48);
        let sc = scope("atax", Gpu::K20.spec(), &[128]);
        let (go, wait) = mpsc::channel::<()>();
        let wait = Mutex::new(wait);
        let (entered, at_builder) = mpsc::channel::<()>();
        let store = store.clone();
        let computing = std::thread::spawn(move || {
            // The front-end of size 128 is cold, so the point's miss
            // reaches this builder — with the point's cell claimed.
            let builder = move |n: u64| {
                entered.send(()).expect("the test listens");
                wait.lock().expect("one caller").recv().expect("the test releases");
                KernelId::Atax.ast(n)
            };
            let ev = store.evaluator("atax", &builder, Gpu::K20.spec(), &[128]);
            (*ev.evaluate(point)).clone()
        });
        at_builder.recv().expect("the miss reached the builder");
        let probe = Client::connect(addr).expect("connect");
        let before = probe.stats().expect("stats");
        let (addr_, sc_) = (addr.to_string(), sc.clone());
        let asking = std::thread::spawn(move || {
            let patient = RetryPolicy { rpc_timeout: Duration::from_secs(120), ..fail_fast() };
            let client = Client::connect_with(&addr_, patient).expect("connect");
            client.evaluate(&sc_, &[point]).expect("answered once the point is computed")
        });
        // The frame declined inline (its point is in flight) and its
        // worker now waits on the cell: `workers_busy` says so.
        let asked = Instant::now();
        while probe.stats().expect("stats").workers_busy == 0 {
            assert!(asked.elapsed() < Duration::from_secs(60), "the frame never reached a worker");
            std::thread::yield_now();
        }
        let parked = probe.stats().expect("stats");
        assert_eq!(parked.inline_hits, before.inline_hits, "a point in flight is no hit");
        ParkedWorker { point, scope: sc, go, computing, asking }
    }

    /// Lets the point finish; returns what the parked frame was answered.
    fn release(self) -> (u64, Vec<Measurement>) {
        self.go.send(()).expect("the builder waits");
        let computed = self.computing.join().expect("computing thread");
        let (by_request, answer) = self.asking.join().expect("asking thread");
        assert_eq!(answer, vec![computed], "the waiter is served the one computation");
        (by_request, answer)
    }
}

#[test]
fn a_warm_frame_reads_the_same_bytes_inline_and_from_a_worker() {
    let (addr, handle) = spawn_server(ArtifactStore::new(), ServeConfig::default());
    let gpu = Gpu::K20.spec();
    let sc = scope("atax", gpu, &[32]);
    let points: Vec<TuningParams> =
        SearchSpace::paper_default().iter().take(OVER_THE_INLINE_BOUND).collect();
    let client = Client::connect(&addr).expect("connect");
    let (computed, local) = client.evaluate(&sc, &points).expect("cold");
    assert_eq!(computed as usize, points.len());
    assert_eq!(stats(&addr).inline_hits, 0, "a cold frame is a worker's");

    // Over the bound: all hits, still a worker's.
    let mut raw = TcpStream::connect(&addr).expect("dial");
    let by_worker = raw_evaluate(&mut raw, &sc, &points, 0);
    assert_eq!(stats(&addr).inline_hits, 0, "a frame over the inline bound goes to a worker");
    // The same points in two frames under it: the reactor's.
    let (head, tail) = points.split_at(points.len() - 1);
    let inline_head = raw_evaluate(&mut raw, &sc, head, 0);
    // A kernel alias names the same scope, as it does to a worker.
    let inline_tail = raw_evaluate(&mut raw, &scope("ATAX", gpu, &[32]), tail, 0);
    let after = stats(&addr);
    assert_eq!(after.inline_hits, 2);
    assert_eq!(after.points_served as usize, 3 * points.len(), "inline frames count their points");
    assert_eq!((after.frames_inflight, after.workers_busy), (0, 0));

    let header = by_worker.lines().take(2).collect::<Vec<_>>();
    assert_eq!(header[1], "computed=0");
    for inline in [&inline_head, &inline_tail] {
        assert_eq!(inline.lines().take(2).collect::<Vec<_>>(), header, "same head, computed=0");
    }
    let mut joined = records(&inline_head);
    joined.extend(records(&inline_tail));
    assert_eq!(joined, records(&by_worker), "record for record, byte for byte");
    match parse_response(&inline_head).expect("parses") {
        Response::Evaluate { computed: 0, measurements } => assert_eq!(measurements, local[..head.len()]),
        other => panic!("expected measurements, got {other:?}"),
    }
    // Asked under the canonical name, the alias's frame again.
    assert_eq!(raw_evaluate(&mut raw, &sc, tail, 0), inline_tail);
    drop((raw, client));
    let summary = shutdown(&addr, handle);
    assert_eq!(summary.stats.points_served as usize, 3 * points.len() + 1);
}

#[test]
fn hits_are_answered_past_a_full_gate_while_a_miss_is_still_shed_at_its_deadline() {
    let store = ArtifactStore::new();
    let cfg = ServeConfig { max_inflight: 1, ..ServeConfig::default() };
    let (addr, handle) = spawn_server(store.clone(), cfg);
    let gpu = Gpu::K20.spec();
    let warm_scope = scope("atax", gpu, &[64]);
    let warm: Vec<TuningParams> = SearchSpace::tiny().iter().collect();
    let client = Client::connect(&addr).expect("connect");
    let (_, local) = client.evaluate(&warm_scope, &warm).expect("cold");

    let parked = ParkedWorker::park(&store, &addr);
    let held = stats(&addr);
    assert_eq!((held.workers_busy, held.workers_max), (1, 1), "the gate is full");

    // All hits: answered, with the one worker still parked.
    for _ in 0..3 {
        let (computed, again) = client.evaluate(&warm_scope, &warm).expect("a hit needs no worker");
        assert_eq!((computed, &again), (0, &local));
    }
    let served = stats(&addr);
    assert_eq!(served.inline_hits, held.inline_hits + 3);
    assert_eq!((served.workers_busy, served.frames_inflight), (1, 1), "only the parked frame");

    // One miss among the hits: behind the parked frame, shed at its
    // declared deadline by the reactor's tick.
    let mut with_a_miss = warm.clone();
    with_a_miss.push(TuningParams::with_geometry(96, 72));
    let mut raw = TcpStream::connect(&addr).expect("dial");
    raw.set_read_timeout(Some(Duration::from_secs(60))).expect("deadline");
    let shed = raw_evaluate(&mut raw, &warm_scope, &with_a_miss, 40);
    assert!(matches!(parse_response(&shed), Ok(Response::Busy { .. })), "{shed}");
    let after = stats(&addr);
    assert_eq!(after.shed_busy, served.shed_busy + 1);
    assert_eq!(after.workers_busy, 1, "and the worker was parked throughout");

    // The point in flight was computed once, by the thread that had it:
    // the frame that waited for it computed nothing.
    let (by_request, _) = parked.release();
    assert_eq!(by_request, 0);
    let end = stats(&addr);
    assert_eq!(end.store.unique_evaluations, warm.len() + 1, "the distinct points, once each");
    drop((raw, client));
    shutdown(&addr, handle);
}

#[test]
fn a_draining_daemon_refuses_a_hit_frame_as_it_refuses_any_other() {
    let store = ArtifactStore::new();
    let (addr, handle) = spawn_server(store.clone(), ServeConfig::default());
    let warm_scope = scope("atax", Gpu::K20.spec(), &[64]);
    let warm: Vec<TuningParams> = SearchSpace::tiny().iter().collect();
    let lingering = Client::connect_with(&addr, fail_fast()).expect("connect");
    lingering.evaluate(&warm_scope, &warm).expect("cold");
    lingering.evaluate(&warm_scope, &warm).expect("warm, inline");
    assert_eq!(stats(&addr).inline_hits, 1);

    // The drain lasts as long as the parked worker.
    let parked = ParkedWorker::park(&store, &addr);
    Client::connect(&addr).expect("connect").shutdown().expect("shutdown ack");
    match lingering.evaluate(&warm_scope, &warm) {
        Err(ServiceError::Remote(message)) => assert_eq!(message, "daemon is shutting down"),
        other => panic!("a draining daemon serves no hit: {other:?}"),
    }
    let scope_of_parked = parked.scope.clone();
    let point = parked.point;
    parked.release();
    let summary = handle.join().expect("server thread");
    assert!(summary.drained, "the parked frame was answered before the exit");
    let held = store.peek_batch("atax", &scope_of_parked.gpu, &[128], EvalProtocol::default(), &[point]);
    assert!(held.is_some(), "and its point is in the store");
}

#[test]
fn a_restarted_disk_daemon_opens_a_scope_on_a_worker_and_answers_the_next_frame_inline() {
    let dir = std::env::temp_dir().join(format!("oriole-inline-{}-restart", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sc = scope("bicg", Gpu::M40.spec(), &[32, 64]);
    let points: Vec<TuningParams> = SearchSpace::tiny().iter().collect();

    let (addr, handle) = spawn_server(ArtifactStore::with_disk(&dir).expect("dir"), ServeConfig::default());
    let (computed, cold) = Client::connect(&addr).expect("connect").evaluate(&sc, &points).expect("cold");
    assert_eq!(computed as usize, points.len());
    shutdown(&addr, handle);

    let (addr, handle) = spawn_server(ArtifactStore::with_disk(&dir).expect("dir"), ServeConfig::default());
    let client = Client::connect(&addr).expect("connect");
    let (computed, first) = client.evaluate(&sc, &points).expect("first frame of the scope");
    let opened = stats(&addr);
    let disk = opened.store.disk.expect("disk-backed");
    assert_eq!((computed, &first), (0, &cold));
    assert_eq!(opened.inline_hits, 0, "the reactor never opens a tier file");
    assert_eq!((disk.tier_hits, disk.measurements_loaded as usize), (1, points.len()));
    let (computed, second) = client.evaluate(&sc, &points).expect("second frame");
    let served = stats(&addr);
    assert_eq!((computed, &second), (0, &cold));
    assert_eq!(served.inline_hits, 1, "the open scope is read in memory");
    assert_eq!(served.store.disk, opened.store.disk, "and the file is not read again");
    drop(client);
    shutdown(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn requests_admission_refuses_keep_their_wording() {
    let (addr, handle) = spawn_server(ArtifactStore::new(), ServeConfig::default());
    let k20 = Gpu::K20.spec();
    let p = TuningParams::with_geometry(128, 48);
    let client = Client::connect_with(&addr, fail_fast()).expect("connect");
    client.evaluate(&scope("atax", k20, &[64]), &[p]).expect("cold");
    let no_warps = GpuSpec { warps_per_mp: 0, ..k20.clone() };
    for (sc, wording) in [
        (scope("atax", &no_warps, &[64]), "unusable device description: warps_per_mp must be positive"),
        (scope("gemm", k20, &[64]), "unknown kernel `gemm`"),
        (scope("atax", k20, &[]), "empty size list"),
    ] {
        match client.evaluate(&sc, &[p]) {
            Err(ServiceError::Remote(message)) => assert_eq!(message, wording),
            other => panic!("expected `{wording}`, got {other:?}"),
        }
    }
    assert_eq!(stats(&addr).inline_hits, 0, "a refusal is no inline hit");
    client.evaluate(&scope("atax", k20, &[64]), &[p]).expect("the connection survived; a hit");
    assert_eq!(stats(&addr).inline_hits, 1);
    drop(client);
    shutdown(&addr, handle);
}

#[test]
fn a_peer_that_never_reads_is_throttled_and_starves_nobody() {
    let (addr, handle) = spawn_server(ArtifactStore::new(), ServeConfig::default());
    let frame = encode_frame(7, |out| out.push_str(&emit_request(&Request::Stats))).expect("frame");
    let flood: Vec<u8> = frame.iter().copied().cycle().take(40 << 20).collect();
    let mut deaf = TcpStream::connect(&addr).expect("dial");
    deaf.set_write_timeout(Some(Duration::from_secs(2))).expect("deadline");
    let flooding = std::thread::spawn(move || {
        let outcome = deaf.write_all(&flood);
        (deaf, outcome)
    });
    // Meanwhile, and afterwards, the daemon answers everybody else.
    let polite = Client::connect_with(&addr, fail_fast()).expect("connect");
    while !flooding.is_finished() {
        polite.ping().expect("answered while the flood is on");
        // Paces the pings and waits for nothing: the loop's condition is
        // the flooding thread's end, checked on every pass.
        std::thread::sleep(Duration::from_millis(5));
    }
    let (deaf, outcome) = flooding.join().expect("flooding thread");
    let err = outcome.expect_err("40 MiB of frames nobody reads the answers to must not all be taken");
    assert!(
        matches!(err.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
        "the write blocked on the daemon's closed window: {err}"
    );
    let during = polite.stats().expect("stats");
    assert!(during.open_connections >= 2, "the deaf peer is throttled, not dropped: {during:?}");
    drop(deaf);
    drop(polite);
    shutdown(&addr, handle);
}
