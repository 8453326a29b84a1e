//! The client's trust-but-verify guards, exercised explicitly: a mock
//! daemon that speaks perfect frames but *lies* — reordering or
//! short-changing the measurement list — must surface as a protocol
//! error, never as mislabeled measurements handed to a search. One that
//! sheds the connection must be heard with its retry hint.

use oriole_arch::Gpu;
use oriole_codegen::TuningParams;
use oriole_service::protocol::{self, EvalScope, Request, Response};
use oriole_service::{Client, Pipeline, RetryPolicy, ServiceError};
use oriole_tuner::persist::{read_frame_tagged, write_frame_tagged};
use oriole_tuner::{EvalProtocol, Measurement};
use std::net::TcpListener;
use std::thread::JoinHandle;

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
        while let Ok((corr, payload)) = read_frame_tagged(&mut stream) {
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
    EvalScope {
        kernel: "atax".to_string(),
        gpu: Gpu::K20.spec().clone(),
        sizes: vec![64],
        protocol: EvalProtocol::default(),
    }
}

fn points() -> Vec<TuningParams> {
    vec![TuningParams::with_geometry(128, 48), TuningParams::with_geometry(256, 48)]
}

#[test]
fn reordered_measurements_are_rejected_as_a_protocol_error() {
    let (addr, handle) = spawn_mock(Tamper::Reorder);
    let client = Client::connect_with(&addr, RetryPolicy::fail_fast()).expect("connect");
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
    let client = Client::connect_with(&addr, RetryPolicy::fail_fast()).expect("connect");
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
    let client = Client::connect_with(&addr, RetryPolicy::fail_fast()).expect("connect");
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
    let pipe = Pipeline::connect(&addr, &RetryPolicy::fail_fast()).expect("connect");
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
    let pipe = Pipeline::connect(&addr, &RetryPolicy::fail_fast()).expect("connect");
    let asked = Request::Evaluate { scope: scope(), points: points(), deadline_ms: 0 };
    let err = pipe.call(&asked).expect_err("a shed connection answers nothing");
    assert!(matches!(err, ServiceError::Busy(7)), "the daemon's hint survives: {err:?}");
    assert!(pipe.is_poisoned(), "the shed ends the connection");
    drop(pipe);
    handle.join().expect("mock thread");
}
