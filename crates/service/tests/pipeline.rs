//! A [`Pipeline`] has no reader thread: the thread that waits for a
//! response reads the socket, files whatever arrives under its
//! correlation id, and wakes the others. What must hold whoever reads:
//! every response reaches its own ticket, a burst of sends past the
//! depth cap makes progress, and a silent daemon costs one rpc deadline.

mod common;

use oriole_arch::Gpu;
use oriole_codegen::TuningParams;
use oriole_service::protocol::{emit_response, parse_request, MAX_IN_FLIGHT};
use oriole_service::{EvalScope, Pipeline, Request, Response, RetryPolicy, Server, ServiceError};
use oriole_tuner::persist::write_frame_tagged;
use oriole_tuner::{ArtifactStore, EvalProtocol, Measurement};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Never retries, so a case sees the first failure; default deadline.
fn fail_fast() -> RetryPolicy {
    RetryPolicy { max_retries: 0, ..RetryPolicy::default() }
}

fn scope() -> EvalScope {
    EvalScope {
        kernel: "atax".to_string(),
        gpu: Gpu::K20.spec().clone(),
        sizes: vec![32],
        protocol: EvalProtocol::default(),
    }
}

fn evaluate(point: TuningParams) -> Request {
    Request::Evaluate { scope: scope(), points: vec![point], deadline_ms: 0 }
}

/// The one point an `evaluate` answer carries.
fn answered_point(resp: Response) -> TuningParams {
    match resp {
        Response::Evaluate { measurements, .. } if measurements.len() == 1 => measurements[0].params,
        other => panic!("expected one measurement, got {other:?}"),
    }
}

/// A listener whose one connection is handed to `serve`.
fn spawn_mock(serve: impl FnOnce(TcpStream) + Send + 'static) -> (String, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    (addr, std::thread::spawn(move || serve(listener.accept().expect("accept").0)))
}

#[test]
fn two_threads_sharing_a_pipeline_each_redeem_their_own_tickets() {
    let server = Server::bind("127.0.0.1:0", ArtifactStore::new()).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let daemon = std::thread::spawn(move || server.run().expect("serve"));
    let pipe = Pipeline::connect(&addr, &fail_fast()).expect("connect");
    // 500 requests a thread, each thread its own point, two in flight a
    // thread: whichever thread happens to read, an answer carrying the
    // other's point must never come out of this one's ticket.
    std::thread::scope(|s| {
        for tc in [64, 256] {
            let pipe = &pipe;
            s.spawn(move || {
                let mine = TuningParams::with_geometry(tc, 48);
                let mut ahead = pipe.send(&evaluate(mine)).expect("send");
                for _ in 1..500 {
                    let next = pipe.send(&evaluate(mine)).expect("send");
                    assert_eq!(answered_point(pipe.wait(ahead).expect("wait")), mine);
                    ahead = next;
                }
                assert_eq!(answered_point(pipe.wait(ahead).expect("wait")), mine);
            });
        }
    });
    assert!(!pipe.is_poisoned());
    assert!(matches!(pipe.call(&Request::Shutdown), Ok(Response::ShuttingDown)));
    let summary = daemon.join().expect("daemon thread");
    assert_eq!(summary.stats.points_served, 1000);
}

#[test]
fn a_burst_of_sends_past_the_depth_cap_completes_before_any_wait() {
    let server = Server::bind("127.0.0.1:0", ArtifactStore::new()).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let daemon = std::thread::spawn(move || server.run().expect("serve"));
    let pipe = Pipeline::connect(&addr, &fail_fast()).expect("connect");
    // Nobody waits, so at the cap `send` itself reads an answer in.
    let tickets: Vec<_> = (0..MAX_IN_FLIGHT + 3)
        .map(|_| pipe.send(&Request::Ping).expect("send at the cap"))
        .collect();
    for ticket in tickets {
        assert!(matches!(pipe.wait(ticket), Ok(Response::Pong)));
    }
    assert!(matches!(pipe.call(&Request::Shutdown), Ok(Response::ShuttingDown)));
    daemon.join().expect("daemon thread");
}

#[test]
fn answers_in_reverse_order_reach_their_own_tickets() {
    const FRAMES: u32 = 6;
    let (addr, mock) = spawn_mock(|mut stream| {
        let (mut asked, mut unread) = (Vec::new(), Vec::new());
        for _ in 0..FRAMES {
            let (corr, payload) = common::read_frame(&mut stream, &mut unread).expect("request");
            let Ok(Request::Evaluate { points, .. }) = parse_request(&payload) else {
                panic!("the mock only evaluates");
            };
            asked.push((corr, points[0]));
        }
        for (corr, params) in asked.into_iter().rev() {
            let m = Measurement {
                params,
                time_ms: 1.0,
                per_size_ms: vec![(32, 1.0)],
                feasible: true,
                occupancy: 0.5,
                regs_allocated: 32,
                reg_instructions: 10.0,
            };
            let resp = Response::Evaluate { computed: 1, measurements: vec![m] };
            write_frame_tagged(&mut stream, corr, &emit_response(&resp)).expect("answer");
        }
    });
    let pipe = Pipeline::connect(&addr, &fail_fast()).expect("connect");
    let sent: Vec<_> = (1..=FRAMES)
        .map(|i| {
            let point = TuningParams::with_geometry(32 * i, 24);
            (point, pipe.send(&evaluate(point)).expect("send"))
        })
        .collect();
    // Redeemed oldest first: the first wait reads all six frames in and
    // files five of them for tickets nobody has asked about yet.
    for (point, ticket) in sent {
        assert_eq!(answered_point(pipe.wait(ticket).expect("wait")), point);
    }
    drop(pipe);
    mock.join().expect("mock thread");
}

#[test]
fn a_silent_daemon_costs_one_rpc_deadline_and_later_sends_fail_fast() {
    let (hang_up, until) = mpsc::channel::<()>();
    let (addr, mock) = spawn_mock(move |stream| {
        // Accepts, reads nothing, answers nothing.
        let _ = until.recv();
        drop(stream);
    });
    let rpc_timeout = Duration::from_millis(200);
    let policy = RetryPolicy { rpc_timeout, ..fail_fast() };
    let pipe = Pipeline::connect(&addr, &policy).expect("connect");
    let ticket = pipe.send(&Request::Ping).expect("the send itself succeeds");
    let asked = Instant::now();
    let err = pipe.wait(ticket).expect_err("nobody answers");
    assert!(asked.elapsed() >= rpc_timeout / 2, "not before the deadline");
    assert!(asked.elapsed() < rpc_timeout + Duration::from_secs(5), "and not long after it");
    assert!(err.is_transient(), "a stall is worth a retry: {err}");
    let text = err.to_string();
    assert!(text.contains("no response frame for 200ms with requests in flight"), "{text}");
    assert!(pipe.is_poisoned());
    let asked = Instant::now();
    match pipe.send(&Request::Ping).map(drop) {
        Err(ServiceError::Io(e)) => assert!(e.to_string().contains("no response frame"), "{e}"),
        other => panic!("a poisoned pipeline sends nothing: {other:?}"),
    }
    assert!(asked.elapsed() < rpc_timeout, "the recorded failure is answered at once");
    hang_up.send(()).expect("mock waits");
    mock.join().expect("mock thread");
}
