//! What the wire frame guarantees (`oriole_tuner::persist`'s
//! `frame_checksum`, protocol v4): every single-bit flip anywhere behind
//! the length field is refused — exhaustively, across the block and
//! word boundaries of the checksum and over a real 64-point `evaluate`
//! answer — as are moved words, moved blocks and grown or shrunk zero
//! tails; and a protocol v3 peer is refused by name on both sides, as
//! is a v4 daemon (this frame, another head line), never half-decoded.

mod common;

use oriole::arch::Gpu;
use oriole::kernels::KernelId;
use oriole::service::protocol::emit_response;
use oriole::service::{Client, Pipeline, Request, Response, RetryPolicy, Server, ServiceError};
use oriole::tuner::persist::{decode_frame, write_frame_tagged, FrameError, FRAME_HEADER_BYTES};
use oriole::tuner::{ArtifactStore, Evaluator, SearchSpace};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

fn frame(corr: u64, payload: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame_tagged(&mut buf, corr, payload).expect("writing to memory");
    buf
}

/// A frame around `payload` that keeps `donor`'s checksum and id: what
/// a peer sees when the payload was damaged after it was sealed.
fn reframe(donor: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut buf = donor[..FRAME_HEADER_BYTES].to_vec();
    buf[4..8].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(payload);
    buf
}

fn refused(frame: &[u8]) -> bool {
    matches!(decode_frame(frame), Err(FrameError::BadChecksum))
}

/// The answer to one real 64-point frame of a five-size sweep: ~17 KiB.
fn real_answer() -> String {
    let builder = |n: u64| KernelId::Atax.ast(n);
    let evaluator = Evaluator::new(&builder, Gpu::K20.spec(), &[32, 64, 128, 256, 512]);
    let points: Vec<_> = SearchSpace::paper_default().iter().step_by(80).take(64).collect();
    let measurements = evaluator.evaluate_batch(&points).iter().map(|m| (**m).clone()).collect();
    let answer = emit_response(&Response::Evaluate { computed: 64, measurements });
    assert!(answer.len() > 15_000 && answer.lines().count() == 66, "{}", answer.len());
    answer
}

#[test]
fn every_single_bit_flip_is_refused() {
    // Around the checksum's 8-byte words and 32-byte blocks, and the
    // real thing.
    let mut payloads: Vec<String> = [0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65]
        .iter()
        .map(|&len| (0..len).map(|i| char::from(b'a' + (i * 7 % 26) as u8)).collect())
        .collect();
    payloads.push(real_answer());
    for payload in &payloads {
        let sealed = frame(0x0102_0304_0506_0708, payload);
        let (corr, text, used) = decode_frame(&sealed).unwrap().expect("a whole frame");
        assert_eq!((corr, text.as_str(), used), (0x0102_0304_0506_0708, payload.as_str(), sealed.len()));
        // Bytes 8.. are the checksum, the correlation id and the payload;
        // the positions are shared out over the cores (an unoptimized
        // build re-checksums 17 KiB 140,000 times).
        let positions: Vec<usize> = (8..sealed.len()).collect();
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::thread::scope(|scope| {
            for share in positions.chunks(positions.len().div_ceil(workers)) {
                let mut damaged = sealed.clone();
                scope.spawn(move || {
                    for &at in share {
                        for bit in 0..8 {
                            damaged[at] ^= 1 << bit;
                            assert!(refused(&damaged), "len {}: byte {at} bit {bit}", payload.len());
                            damaged[at] ^= 1 << bit;
                        }
                    }
                });
            }
        });
    }
}

#[test]
fn moved_words_blocks_and_zero_tails_are_refused() {
    let answer = real_answer();
    let sealed = frame(9, &answer);
    let payload = answer.as_bytes();

    // Two 8-byte words trade places: neighbours, the same lane one block
    // apart, and the ends of the payload.
    let words = payload.len() / 8;
    let mut swaps = 0;
    for (a, b) in (0..words - 4).flat_map(|w| [(w, w + 1), (w, w + 4)]).chain([(0, words - 1)]) {
        let mut moved = payload.to_vec();
        for i in 0..8 {
            moved.swap(a * 8 + i, b * 8 + i);
        }
        if moved != payload {
            assert!(refused(&reframe(&sealed, &moved)), "words {a} and {b}");
            swaps += 1;
        }
    }
    assert!(swaps > 2 * (words - 4) - 64, "nearly every pair differs: {swaps}");

    // Two 32-byte blocks trade places: neighbours and far apart.
    let blocks = payload.len() / 32;
    for (a, b) in (0..blocks - 1).map(|b| (b, b + 1)).chain([(0, blocks - 1), (1, blocks / 2)]) {
        let mut moved = payload.to_vec();
        for i in 0..32 {
            moved.swap(a * 32 + i, b * 32 + i);
        }
        assert_ne!(moved, payload);
        assert!(refused(&reframe(&sealed, &moved)), "blocks {a} and {b}");
    }

    // Zero bytes appended to, or removed from, the tail: the padding of
    // a short last block must never stand in for payload.
    for base_len in [0, 5, 24, 31, 32, 33, 64, 100] {
        let mut base = vec![b'x'; base_len];
        base.extend_from_slice(&[0; 40]);
        let sealed = frame(3, std::str::from_utf8(&base).unwrap());
        assert!(decode_frame(&sealed).unwrap().is_some());
        for zeros in (0..40).chain(41..=80) {
            let mut resized = base[..base_len].to_vec();
            resized.resize(base_len + zeros, 0);
            assert!(refused(&reframe(&sealed, &resized)), "{base_len} bytes + {zeros} zeros");
        }
    }
}

/// `write_frame_tagged(&mut buf, 7, "oriole-rpc v3 ping")` as the last
/// v3 build wrote it: `ORLF`, FNV-1a over the id and the payload.
const V3_PING_FRAME: [u8; 42] = [
    0x4f, 0x52, 0x4c, 0x46, 0x00, 0x00, 0x00, 0x12, 0x43, 0x84, 0x1c, 0x6c, 0xae, 0xb0, 0x2a,
    0x1d, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x6f, 0x72, 0x69, 0x6f, 0x6c, 0x65,
    0x2d, 0x72, 0x70, 0x63, 0x20, 0x76, 0x33, 0x20, 0x70, 0x69, 0x6e, 0x67,
];

fn names_the_skew(message: &str) -> bool {
    message.contains("version skew") && message.contains("v3") && message.contains("v4")
}

#[test]
fn a_v3_frame_is_refused_by_the_decoders_as_skew() {
    let err = decode_frame(&V3_PING_FRAME).expect_err("a v3 frame");
    assert!(matches!(err, FrameError::VersionSkew));
    assert!(names_the_skew(&err.to_string()), "{err}");
    // As early as the magic is whole; the first three bytes are shared.
    assert!(matches!(decode_frame(&V3_PING_FRAME[..4]), Err(FrameError::VersionSkew)));
    assert!(matches!(decode_frame(&V3_PING_FRAME[..3]), Ok(None)));
}

#[test]
fn a_v3_client_is_refused_by_the_server_with_an_error_that_names_the_skew() {
    let server = Server::bind("127.0.0.1:0", ArtifactStore::new()).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let serving = std::thread::spawn(move || server.run().expect("serve"));

    let mut raw = TcpStream::connect(&addr).expect("connect");
    raw.write_all(&V3_PING_FRAME).expect("send");
    let reply = common::read_frame(&mut raw, &mut Vec::new()).expect("an error frame").1;
    assert!(reply.contains("malformed frame") && names_the_skew(&reply), "{reply}");
    // ...and the connection is closed: nothing of the v3 frame was served.
    assert_eq!(raw.read(&mut [0u8; 1]).expect("clean close"), 0);

    let client = Client::connect(&addr).expect("connect");
    assert_eq!(client.stats().expect("stats").requests, 1, "only this stats request was counted");
    client.shutdown().expect("shutdown");
    serving.join().expect("server thread");
}

/// A daemon stuck on an older protocol: answers whatever arrives with
/// `reply`. Returns its address and the thread counting its connections.
fn spawn_old_daemon(
    reply: Vec<u8>,
    connections: usize,
) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let serving = std::thread::spawn(move || {
        for _ in 0..connections {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut request = [0u8; FRAME_HEADER_BYTES];
            stream.read_exact(&mut request).expect("a request header");
            stream.write_all(&reply).expect("reply");
            // Hold the socket until the client hangs up.
            let _ = stream.read_to_end(&mut Vec::new());
        }
    });
    (addr, serving)
}

#[test]
fn a_v3_daemon_is_refused_by_the_client_and_its_pipeline_without_a_retry() {
    // A `Client` is a `Pipeline` plus the retry loop. One connection
    // each: skew is deterministic, so the retry loop must not redial
    // (the listener thread would never finish), and the bare pipeline
    // underneath must poison on it.
    let (addr, serving) = spawn_old_daemon(V3_PING_FRAME.to_vec(), 2);

    let client = Client::connect(&addr).expect("connect");
    let err = client.ping().expect_err("a v3 answer");
    assert!(matches!(err, ServiceError::Protocol(_)) && !err.is_transient(), "{err:?}");
    assert!(names_the_skew(&err.to_string()), "{err}");
    assert_eq!(client.retries(), 0);
    drop(client);

    let pipeline = Pipeline::connect(&addr, &RetryPolicy::default()).expect("connect");
    let err = pipeline.call(&Request::Ping).expect_err("a v3 answer");
    assert!(matches!(err, ServiceError::Protocol(_)) && !err.is_transient(), "{err:?}");
    assert!(names_the_skew(&err.to_string()), "{err}");
    assert!(pipeline.is_poisoned());
    drop(pipeline);

    serving.join().expect("v3 daemon thread");
}

#[test]
fn a_v4_daemon_is_refused_by_the_client_without_a_retry() {
    // This frame around the last v4 build's head line.
    let (addr, serving) = spawn_old_daemon(frame(7, "oriole-rpc v4 ok pong"), 1);
    let client = Client::connect(&addr).expect("connect");
    let err = client.ping().expect_err("a v4 answer");
    assert!(matches!(err, ServiceError::Protocol(_)) && !err.is_transient(), "{err:?}");
    let skew = "version skew: peer speaks `oriole-rpc v4 ok pong`, this build speaks `oriole-rpc v5`";
    assert!(err.to_string().contains(skew), "{err}");
    assert_eq!(client.retries(), 0);
    drop(client);
    serving.join().expect("v4 daemon thread");
}
