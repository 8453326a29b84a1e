//! In-process loopback suite for the tuner service: a real TCP server
//! thread, real framed RPC, against the same assertions the local
//! engine is held to — remote results must be **bit-identical** to
//! local evaluation, sharing must deduplicate across clients, and
//! protocol abuse must poison nothing but the abusive connection.

mod common;

use common::{local_sweep, scope, spawn_server};
use oriole_arch::{Gpu, GpuSpec};
use oriole_codegen::TuningParams;
use oriole_kernels::KernelId;
use oriole_service::protocol::{Request, Response};
use oriole_service::{Client, FleetSpec, Pipeline, RemoteEvaluator, RetryPolicy};
use oriole_tuner::persist::write_frame_tagged;
use oriole_tuner::{ArtifactStore, Evaluator, Measurement, RandomSearch, SearchSpace, Searcher};
use std::net::TcpStream;
use std::sync::Arc;

#[test]
fn remote_evaluation_is_bit_identical_to_local_and_dedups_across_clients() {
    let space = SearchSpace::tiny();
    let points: Vec<TuningParams> = space.iter().collect();
    let gpu = Gpu::K20.spec();
    let sizes = [64u64];
    let local = local_sweep(KernelId::Atax, gpu, &sizes, &space);

    let (addr, handle) = spawn_server(ArtifactStore::new());
    let sc = scope("atax", gpu, &sizes);

    // Cold client: everything computed server-side, results identical
    // to the local engine bit for bit.
    let cold = Client::connect(&addr).expect("connect");
    let (computed, remote) = cold.evaluate(&sc, &points).expect("evaluate");
    assert_eq!(computed as usize, space.len());
    assert_eq!(remote, local);
    for (r, l) in remote.iter().zip(&local) {
        assert_eq!(r.time_ms.to_bits(), l.time_ms.to_bits());
    }

    // Warm client on its own connection: served from the shared store,
    // zero fresh computations.
    let warm = Client::connect(&addr).expect("connect");
    let (computed, again) = warm.evaluate(&sc, &points).expect("evaluate");
    assert_eq!(computed, 0, "warm re-run must compute nothing");
    assert_eq!(again, local);

    let stats = warm.stats().expect("stats");
    assert_eq!(stats.store.unique_evaluations, space.len());
    assert_eq!(stats.points_served as usize, 2 * space.len());
    assert!(stats.connections >= 2);

    warm.shutdown().expect("shutdown ack");
    let summary = handle.join().expect("server thread");
    assert!(summary.stats.requests >= 4);
    assert_eq!(summary.stats.points_served as usize, 2 * space.len());
}

#[test]
fn concurrent_clients_share_the_store_and_compute_each_point_once() {
    let space = SearchSpace::tiny();
    let points: Vec<TuningParams> = space.iter().collect();
    let gpu = Gpu::M40.spec();
    let sizes = [32u64, 64];
    let local = local_sweep(KernelId::Bicg, gpu, &sizes, &space);

    let (addr, handle) = spawn_server(ArtifactStore::new());
    let sc = Arc::new(scope("bicg", gpu, &sizes));

    let results: Vec<Vec<Measurement>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                let sc = Arc::clone(&sc);
                let points = points.clone();
                s.spawn(move || {
                    let client = Client::connect(&addr).expect("connect");
                    client.evaluate(&sc, &points).expect("evaluate").1
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    for r in &results {
        assert_eq!(r, &local, "every concurrent client sees the local numbers");
    }

    let client = Client::connect(&addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.store.unique_evaluations,
        space.len(),
        "racing clients must not duplicate computations"
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn remote_oracle_runs_searchers_unchanged_with_identical_traces() {
    let space = SearchSpace::tiny();
    let gpu = Gpu::K20.spec();
    let sizes = [64u64];

    // Local reference search.
    let kid = KernelId::Atax;
    let builder = move |n: u64| kid.ast(n);
    let ev = Evaluator::new(&builder, gpu, &sizes);
    let local = RandomSearch { seed: 9 }.search(&space, &ev, 10);

    let (addr, handle) = spawn_server(ArtifactStore::new());
    let client = Client::connect(&addr).expect("connect");
    let remote = RemoteEvaluator::new(client, scope("atax", gpu, &sizes));
    let result = RandomSearch { seed: 9 }.search(&space, &remote, 10);
    assert_eq!(remote.take_error(), None, "no RPC failures");
    assert_eq!(result, local, "remote search must replay the local trace bit-for-bit");
    assert_eq!(remote.stats().points_fetched, 10, "one fetch per distinct sampled point");

    // A second identical search is served from the client memo: no new
    // fetches at all.
    let again = RandomSearch { seed: 9 }.search(&space, &remote, 10);
    assert_eq!(again, local);
    assert_eq!(remote.stats().points_fetched, 10);

    Client::connect(&addr).expect("connect").shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn synthetic_devices_evaluate_remotely_by_spec_contents() {
    // No registry entry exists for this device; the full spec crosses
    // the wire and keys the server's store by contents.
    let custom = GpuSpec { regfile_per_mp: 32_768, ..Gpu::K20.spec().clone() };
    let sizes = [64u64];
    let space = SearchSpace::tiny();
    let points: Vec<TuningParams> = space.iter().collect();
    let local = local_sweep(KernelId::Atax, &custom, &sizes, &space);

    let (addr, handle) = spawn_server(ArtifactStore::new());
    let client = Client::connect(&addr).expect("connect");
    let (_, remote) = client.evaluate(&scope("atax", &custom, &sizes), &points).expect("evaluate");
    assert_eq!(remote, local);
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn protocol_abuse_poisons_nothing_but_its_own_connection() {
    let (addr, handle) = spawn_server(ArtifactStore::new());

    // 1. Unknown kernel: per-request error, connection survives.
    let client = Client::connect(&addr).expect("connect");
    let err = client
        .evaluate(&scope("gemm", Gpu::K20.spec(), &[64]), &[TuningParams::with_geometry(128, 48)])
        .expect_err("unknown kernel");
    assert!(err.to_string().contains("unknown kernel"), "{err}");
    client.ping().expect("connection still usable after a request error");

    // 2. Version skew: answered with an error naming both versions,
    // then the daemon hangs up.
    let mut raw = TcpStream::connect(&addr).expect("connect raw");
    raw.set_read_timeout(Some(std::time::Duration::from_secs(5))).expect("deadline");
    write_frame_tagged(&mut raw, 0, "oriole-rpc v4 ping").expect("send");
    let mut unread = Vec::new();
    let reply = common::read_frame(&mut raw, &mut unread).expect("reply").1;
    assert!(reply.contains("version skew: peer speaks `oriole-rpc v4 ping`"), "{reply}");
    assert!(reply.contains(oriole_service::RPC_VERSION), "{reply}");
    let after = common::read_frame(&mut raw, &mut unread).expect_err("closed after skew");
    assert_eq!(after.kind(), std::io::ErrorKind::UnexpectedEof, "{after}");

    // 3. A malformed frame (garbage bytes): the server answers with an
    // error (best-effort) and hangs up.
    let mut raw = TcpStream::connect(&addr).expect("connect raw");
    use std::io::Write as _;
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("send garbage");
    raw.flush().unwrap();
    let reply = common::read_frame(&mut raw, &mut Vec::new());
    // Either an error frame or an immediate hangup is acceptable; what
    // is not acceptable is the daemon dying or serving the garbage.
    if let Ok((_, reply)) = reply {
        assert!(reply.contains("malformed frame"), "{reply}");
    }

    // 4. Disconnect mid-session: just drop a connected client.
    drop(Client::connect(&addr).expect("connect"));

    // After all of the above, an honest client still gets bit-identical
    // service.
    let space = SearchSpace::tiny();
    let points: Vec<TuningParams> = space.iter().collect();
    let local = local_sweep(KernelId::Atax, Gpu::K20.spec(), &[64], &space);
    let honest = Client::connect(&addr).expect("connect");
    let (_, remote) =
        honest.evaluate(&scope("atax", Gpu::K20.spec(), &[64]), &points).expect("evaluate");
    assert_eq!(remote, local, "the store survived the abuse untouched");

    honest.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn an_unknown_verb_spelled_like_skew_keeps_its_connection() {
    // The daemon hangs up on what the head line says, not on how the
    // error reads: a well-framed request of this build's version with
    // an unknown verb is a per-request error like any other.
    let (addr, handle) = spawn_server(ArtifactStore::new());
    let mut raw = TcpStream::connect(&addr).expect("connect raw");
    raw.set_read_timeout(Some(std::time::Duration::from_secs(5))).expect("deadline");
    let version = oriole_service::RPC_VERSION;
    let mut unread = Vec::new();
    write_frame_tagged(&mut raw, 1, &format!("{version} version skew")).expect("send");
    let reply = common::read_frame(&mut raw, &mut unread).expect("error answer").1;
    match oriole_service::protocol::parse_response(&reply) {
        Ok(Response::Error { message }) => {
            assert!(message.contains("unknown request verb `version skew`"), "{message}");
        }
        other => panic!("expected an error answer, got {other:?}"),
    }
    write_frame_tagged(&mut raw, 2, &format!("{version} ping")).expect("send ping");
    let (corr, reply) = common::read_frame(&mut raw, &mut unread).expect("the same connection");
    assert_eq!(corr, 2);
    assert_eq!(oriole_service::protocol::parse_response(&reply).ok(), Some(Response::Pong));
    drop(raw);
    Client::connect(&addr).expect("connect").shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn pipelined_requests_complete_out_of_order_and_stay_bit_identical() {
    let space = SearchSpace::tiny();
    let points: Vec<TuningParams> = space.iter().collect();
    let gpu = Gpu::K20.spec();
    let sizes = [64u64];
    let local = local_sweep(KernelId::Atax, gpu, &sizes, &space);
    let sc = scope("atax", gpu, &sizes);

    let (addr, handle) = spawn_server(ArtifactStore::new());
    let pipe = Pipeline::connect(&addr, &RetryPolicy::default()).expect("connect");

    // One frame per point, all in flight at once, redeemed in *reverse*
    // send order — correlation ids, not arrival order, route responses.
    let tickets: Vec<_> = points
        .iter()
        .map(|p| {
            pipe.send(&Request::Evaluate {
                scope: sc.clone(),
                points: vec![*p],
                deadline_ms: 0,
            })
            .expect("send")
        })
        .collect();
    let mut measurements: Vec<Measurement> = Vec::new();
    for ticket in tickets.into_iter().rev() {
        match pipe.wait(ticket).expect("wait") {
            Response::Evaluate { measurements: mut ms, .. } => {
                measurements.push(ms.remove(0))
            }
            other => panic!("expected measurements, got {other:?}"),
        }
    }
    measurements.reverse();
    assert_eq!(measurements, local, "pipelined results are the local numbers bit-for-bit");

    // The daemon saw real pipelining and is idle again now.
    let client = Client::connect(&addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert!(stats.pipelined_peak >= 2, "frames overlapped in flight: {stats:?}");
    assert_eq!(stats.frames_inflight, 0, "everything delivered: {stats:?}");
    assert!(stats.open_connections >= 1, "{stats:?}");
    assert!(stats.reactor_wakeups > 0, "{stats:?}");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn coalesced_concurrent_evaluators_are_bit_identical_to_sequential() {
    let space = SearchSpace::tiny();
    let points: Vec<TuningParams> = space.iter().collect();
    let gpu = Gpu::K20.spec();
    let sizes = [64u64];
    let local = local_sweep(KernelId::Atax, gpu, &sizes, &space);
    let sc = scope("atax", gpu, &sizes);

    let (addr, handle) = spawn_server(ArtifactStore::new());
    // Tiny chunks force multi-frame batches through the pipeline.
    let spec = FleetSpec::parse(&addr).expect("spec");
    let remote = Arc::new(RemoteEvaluator::with_policy(spec, sc, RetryPolicy::default(), 2));

    // Eight threads hammer the one evaluator with overlapping slices;
    // they take turns, and the turn-holder fetches only what the memo
    // still misses.
    let results: Vec<Vec<Measurement>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let remote = Arc::clone(&remote);
                let points = points.clone();
                s.spawn(move || {
                    // Each thread starts at a different offset, so a
                    // turn finds some of its points fetched by the turns
                    // before it.
                    let mut mine: Vec<TuningParams> = points[i % points.len()..].to_vec();
                    mine.extend_from_slice(&points[..i % points.len()]);
                    let got = remote.evaluate_batch(&mine).expect("evaluate");
                    let mut by_input: Vec<(TuningParams, Measurement)> =
                        mine.into_iter().zip(got).collect();
                    by_input.sort_by_key(|(p, _)| format!("{p}"));
                    by_input.into_iter().map(|(_, m)| m).collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("thread")).collect()
    });
    assert_eq!(remote.take_error(), None, "no RPC failures");

    let mut reference: Vec<(TuningParams, Measurement)> =
        points.iter().cloned().zip(local.clone()).collect();
    reference.sort_by_key(|(p, _)| format!("{p}"));
    let reference: Vec<Measurement> = reference.into_iter().map(|(_, m)| m).collect();
    for r in &results {
        assert_eq!(r, &reference, "every thread sees the sequential/local numbers");
    }

    // Coalescing happened (frames carried real batches) and the store
    // still computed each point exactly once.
    assert!(remote.batches_sent() >= 1, "{}", remote.batches_sent());
    assert!(remote.peak_batch() >= 2, "chunks carry >1 point: {}", remote.peak_batch());
    assert_eq!(remote.stats().points_fetched as usize, points.len(), "each distinct point fetched once");
    let probe = Client::connect(&addr).expect("connect");
    let stats = probe.stats().expect("stats");
    assert_eq!(stats.store.unique_evaluations, points.len());
    probe.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn computed_remotely_is_what_each_request_computed_however_frames_overlap() {
    // 5,120 distinct points cross as eighty 64-point frames, eight in
    // flight at once on one connection: a daemon that reports the
    // tier-wide delta over each request's window counts its
    // neighbours' work too.
    let points: Vec<TuningParams> = SearchSpace::paper_default().iter().collect();
    let gpu = Gpu::K20.spec();
    let (addr, handle) = spawn_server(ArtifactStore::new());
    let sweep = |kernel: &str| {
        let remote =
            RemoteEvaluator::new(Client::connect(&addr).expect("connect"), scope(kernel, gpu, &[32]));
        remote.evaluate_batch(&points).expect("sweep");
        let stats = remote.stats();
        assert_eq!(stats.points_fetched as usize, points.len());
        stats.computed_remote as usize
    };
    assert_eq!(sweep("atax"), points.len(), "a cold sweep computes each point once");
    assert_eq!(sweep("atax"), 0, "a warm one computes none");

    // Two clients racing over one cold scope: the store computes each
    // point once, in the request that wins it, so the two counts sum
    // to the space whoever wins what.
    let start = std::sync::Barrier::new(2);
    let racers: Vec<usize> = std::thread::scope(|s| {
        let racer = || {
            start.wait();
            sweep("bicg")
        };
        let handles = [s.spawn(racer), s.spawn(racer)];
        handles.map(|h| h.join().expect("racer")).to_vec()
    });
    assert_eq!(racers.iter().sum::<usize>(), points.len(), "{racers:?}");

    Client::connect(&addr).expect("connect").shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn rpc_failure_latches_instead_of_returning_garbage() {
    // A daemon that has shut down mid-search: the remote oracle scores
    // infinity and surfaces the failure through take_error.
    let (addr, handle) = spawn_server(ArtifactStore::new());
    let client = Client::connect(&addr).expect("connect");
    let remote = RemoteEvaluator::new(client, scope("atax", Gpu::K20.spec(), &[64]));
    let p = TuningParams::with_geometry(128, 48);
    assert!(remote.evaluate_batch(&[p]).is_some(), "daemon up: point evaluates");

    Client::connect(&addr).expect("connect").shutdown().expect("shutdown");
    handle.join().expect("server thread");
    // Daemon gone; an uncached point cannot be fetched.
    let q = TuningParams::with_geometry(256, 48);
    use oriole_tuner::Oracle as _;
    assert_eq!(remote.eval(q), f64::INFINITY);
    let err = remote.take_error().expect("failure latched");
    assert!(!err.is_empty());
    // Everything after the latch short-circuits, including cached
    // points — a poisoned run never mixes stale and fresh answers.
    assert!(remote.evaluate_batch(&[p]).is_none());
}
