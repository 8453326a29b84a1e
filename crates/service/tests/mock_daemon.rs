//! The client's trust-but-verify guards, exercised explicitly: a mock
//! daemon that speaks perfect frames but *lies* — reordering or
//! short-changing the measurement list — must surface as a protocol
//! error, never as mislabeled measurements handed to a search. One that
//! sheds the connection must be heard with its retry hint.
//!
//! And the client's buffered read path, against daemons that split,
//! merge and cut their answers: a frame dribbled one byte per write
//! still decodes, two frames in one write are both delivered, half a
//! frame and a close is a transient error at once — and a real daemon
//! refuses a request one point over the bound without dropping the
//! connection.

mod common;

use common::fail_fast;
use oriole_arch::Gpu;
use oriole_codegen::TuningParams;
use oriole_service::protocol::{self, EvalScope, Request, Response, MAX_POINTS_PER_REQUEST};
use oriole_service::{Client, Pipeline, RetryPolicy, Server, ServiceError};
use oriole_tuner::persist::{encode_frame, write_frame_tagged, FRAME_HEADER_BYTES};
use oriole_tuner::{ArtifactStore, Measurement};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the mock daemon tampers with an honest positional answer.
#[derive(Clone, Copy)]
enum Tamper {
    /// Swap the first two measurements (violates the positional
    /// ordering contract).
    Reorder,
    /// Drop the last measurement (violates the one-per-point contract).
    ShortChange,
    /// Answer honestly but tag the response with a correlation id the
    /// client never issued (violates the id-echo contract).
    WrongId,
    /// Shed the connection: a correlation-id-0 `Busy` with a 7 ms hint,
    /// whatever was asked.
    Shed,
}

fn fake_measurement(params: TuningParams, time_ms: f64) -> Measurement {
    Measurement {
        params,
        time_ms,
        per_size_ms: vec![(64, time_ms)],
        feasible: true,
        occupancy: 0.5,
        regs_allocated: 32,
        reg_instructions: 10.0,
    }
}

/// A daemon-shaped liar: real listener, real frames, tampered answers.
/// Serves connections until the listener is dropped with the test.
fn spawn_mock(tamper: Tamper) -> (String, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || {
        // One connection is all the fail-fast client will make.
        let (mut stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => return,
        };
        let mut unread = Vec::new();
        while let Ok((corr, payload)) = common::read_frame(&mut stream, &mut unread) {
            let response = match protocol::parse_request(&payload) {
                Ok(Request::Evaluate { points, .. }) => {
                    let mut measurements: Vec<Measurement> = points
                        .iter()
                        .enumerate()
                        .map(|(i, p)| fake_measurement(*p, 1.0 + i as f64))
                        .collect();
                    match tamper {
                        Tamper::Reorder => measurements.swap(0, 1),
                        Tamper::ShortChange => {
                            measurements.pop();
                        }
                        Tamper::WrongId | Tamper::Shed => {}
                    }
                    Response::Evaluate { computed: measurements.len() as u64, measurements }
                }
                Ok(_) | Err(_) => Response::Error { message: "mock only evaluates".into() },
            };
            let (reply_corr, response) = match tamper {
                Tamper::WrongId => (corr + 1, response),
                Tamper::Shed => (0, Response::Busy { retry_after_ms: 7 }),
                _ => (corr, response),
            };
            if write_frame_tagged(&mut stream, reply_corr, &protocol::emit_response(&response))
                .is_err()
            {
                return;
            }
        }
    });
    (addr, handle)
}

fn scope() -> EvalScope {
    common::scope("atax", Gpu::K20.spec(), &[64])
}

fn points() -> Vec<TuningParams> {
    vec![TuningParams::with_geometry(128, 48), TuningParams::with_geometry(256, 48)]
}

#[test]
fn reordered_measurements_are_rejected_as_a_protocol_error() {
    let (addr, handle) = spawn_mock(Tamper::Reorder);
    let client = Client::connect_with(&addr, fail_fast()).expect("connect");
    let err = client.evaluate(&scope(), &points()).expect_err("reordering must be caught");
    match &err {
        ServiceError::Protocol(m) => {
            assert!(m.contains("where"), "names the mismatch: {m}");
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    drop(client);
    handle.join().expect("mock thread");
}

#[test]
fn short_changed_measurements_are_rejected_as_a_protocol_error() {
    let (addr, handle) = spawn_mock(Tamper::ShortChange);
    let client = Client::connect_with(&addr, fail_fast()).expect("connect");
    let err = client.evaluate(&scope(), &points()).expect_err("short answer must be caught");
    match &err {
        ServiceError::Protocol(m) => {
            assert!(
                m.contains("1 measurements for 2 points"),
                "names the count mismatch: {m}"
            );
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    drop(client);
    handle.join().expect("mock thread");
}

#[test]
fn a_response_with_the_wrong_correlation_id_is_rejected_not_delivered() {
    let (addr, handle) = spawn_mock(Tamper::WrongId);
    let client = Client::connect_with(&addr, fail_fast()).expect("connect");
    let err = client.evaluate(&scope(), &points()).expect_err("wrong id must be caught");
    match &err {
        ServiceError::Protocol(m) => {
            assert!(m.contains("correlation id"), "names the id mismatch: {m}");
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    drop(client);
    handle.join().expect("mock thread");
}

#[test]
fn a_pipelined_response_with_an_unknown_id_poisons_the_pipeline() {
    let (addr, handle) = spawn_mock(Tamper::WrongId);
    let pipe = Pipeline::connect(&addr, &fail_fast()).expect("connect");
    let ticket = pipe
        .send(&Request::Evaluate {
            scope: scope(),
            points: points(),
            deadline_ms: 0,
        })
        .expect("send");
    let err = pipe.wait(ticket).expect_err("unknown id must poison, never deliver");
    match &err {
        ServiceError::Protocol(m) => {
            assert!(m.contains("unknown correlation id"), "names the stray id: {m}");
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    assert!(pipe.is_poisoned(), "the whole pipeline is condemned");
    drop(pipe);
    handle.join().expect("mock thread");
}

#[test]
fn a_connection_level_busy_keeps_its_retry_hint_and_poisons_the_pipeline() {
    let (addr, handle) = spawn_mock(Tamper::Shed);
    let pipe = Pipeline::connect(&addr, &fail_fast()).expect("connect");
    let asked = Request::Evaluate { scope: scope(), points: points(), deadline_ms: 0 };
    let err = pipe.call(&asked).expect_err("a shed connection answers nothing");
    assert!(matches!(err, ServiceError::Busy(7)), "the daemon's hint survives: {err:?}");
    assert!(pipe.is_poisoned(), "the shed ends the connection");
    drop(pipe);
    handle.join().expect("mock thread");
}

/// A listener whose one connection is handed to `serve`.
fn spawn_scripted(serve: impl FnOnce(TcpStream) + Send + 'static) -> (String, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    (addr, std::thread::spawn(move || serve(listener.accept().expect("accept").0)))
}

/// Reads the next request off `stream` and returns the `pong` frame
/// answering it, unsent.
fn pong_frame(stream: &mut TcpStream, unread: &mut Vec<u8>) -> Vec<u8> {
    let (corr, _) = common::read_frame(stream, unread).expect("a request");
    let pong = protocol::emit_response(&Response::Pong);
    encode_frame(corr, |out| out.push_str(&pong)).expect("frame")
}

#[test]
fn a_response_written_one_byte_per_write_still_decodes() {
    let (addr, mock) = spawn_scripted(|mut stream| {
        stream.set_nodelay(true).expect("nodelay");
        for byte in pong_frame(&mut stream, &mut Vec::new()) {
            stream.write_all(&[byte]).expect("one byte");
        }
    });
    let pipe = Pipeline::connect(&addr, &fail_fast()).expect("connect");
    assert!(matches!(pipe.call(&Request::Ping), Ok(Response::Pong)));
    drop(pipe);
    mock.join().expect("mock thread");
}

#[test]
fn two_responses_in_one_write_are_both_delivered_the_second_from_the_buffer() {
    let (addr, mock) = spawn_scripted(|mut stream| {
        let mut unread = Vec::new();
        let first = pong_frame(&mut stream, &mut unread);
        let both = [first, pong_frame(&mut stream, &mut unread)].concat();
        stream.write_all(&both).expect("both answers");
        // Nothing more is sent until the client hangs up: a second
        // answer dropped with the first read's leftovers would cost the
        // client its rpc deadline, not arrive.
        let _ = stream.read_to_end(&mut Vec::new());
    });
    let pipe = Pipeline::connect(&addr, &fail_fast()).expect("connect");
    let first = pipe.send(&Request::Ping).expect("send");
    let second = pipe.send(&Request::Ping).expect("send");
    assert!(matches!(pipe.wait(first), Ok(Response::Pong)));
    let asked = Instant::now();
    assert!(matches!(pipe.wait(second), Ok(Response::Pong)));
    assert!(asked.elapsed() < Duration::from_secs(5), "the second answer was already here");
    drop(pipe);
    mock.join().expect("mock thread");
}

#[test]
fn a_connection_closed_after_half_a_frame_is_a_transient_error_within_the_deadline() {
    let (addr, mock) = spawn_scripted(|mut stream| {
        let frame = pong_frame(&mut stream, &mut Vec::new());
        // The whole header and half the payload, then the close.
        let half = FRAME_HEADER_BYTES + (frame.len() - FRAME_HEADER_BYTES) / 2;
        stream.write_all(&frame[..half]).expect("half an answer");
    });
    let rpc_timeout = Duration::from_secs(5);
    let policy = RetryPolicy { rpc_timeout, ..fail_fast() };
    let pipe = Pipeline::connect(&addr, &policy).expect("connect");
    let asked = Instant::now();
    let err = pipe.call(&Request::Ping).expect_err("half a frame answers nothing");
    assert!(asked.elapsed() < rpc_timeout, "the close is heard at once, not at the deadline");
    assert!(err.is_transient(), "a lost connection is worth a retry: {err}");
    assert!(err.to_string().contains("daemon closed the connection"), "{err}");
    assert!(pipe.is_poisoned());
    drop(pipe);
    mock.join().expect("mock thread");
}

#[test]
fn a_request_one_point_over_the_bound_is_refused_and_the_connection_keeps_serving() {
    let server = Server::bind("127.0.0.1:0", ArtifactStore::new()).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let daemon = std::thread::spawn(move || server.run().expect("serve"));
    let client = Client::connect_with(&addr, fail_fast()).expect("connect");
    let over = vec![TuningParams::with_geometry(128, 48); MAX_POINTS_PER_REQUEST + 1];
    let err = client.evaluate(&scope(), &over).expect_err("one point over the bound");
    match &err {
        ServiceError::Remote(m) => assert!(m.contains("per-request bound"), "names the bound: {m}"),
        other => panic!("expected a per-request error, got {other:?}"),
    }
    // The same connection answers the next request.
    client.ping().expect("the connection survives");
    let stats = client.stats().expect("stats");
    assert_eq!((stats.connections, stats.points_served), (1, 0));
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread");
}
