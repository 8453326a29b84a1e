//! What the service suites share: a daemon on an ephemeral port, the
//! scope and local sweep a remote answer is checked against, a policy
//! that never retries, an address nothing listens on, and the frame
//! reader for a test that plays a daemon or talks to one without a
//! `Pipeline`. Each suite uses some of them.

#![allow(dead_code)]

use oriole_arch::GpuSpec;
use oriole_kernels::KernelId;
use oriole_service::{Client, EvalScope, RetryPolicy, ServeConfig, ServeSummary, Server};
use oriole_tuner::persist::decode_frame;
use oriole_tuner::{ArtifactStore, EvalProtocol, Evaluator, Measurement, SearchSpace};
use std::io::{self, Read};
use std::thread::JoinHandle;

/// A daemon over `store` with the default [`ServeConfig`]; see
/// [`spawn_server_with`].
pub(crate) fn spawn_server(store: ArtifactStore) -> (String, JoinHandle<ServeSummary>) {
    spawn_server_with(store, ServeConfig::default())
}

/// A daemon over `store` under `cfg` on an ephemeral localhost port:
/// its address and the thread that returns its serve summary.
pub(crate) fn spawn_server_with(
    store: ArtifactStore,
    cfg: ServeConfig,
) -> (String, JoinHandle<ServeSummary>) {
    let server = Server::bind_with("127.0.0.1:0", store, cfg).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    (addr, std::thread::spawn(move || server.run().expect("serve")))
}

/// Stops the daemon at `addr` and waits for its summary.
pub(crate) fn shutdown(addr: &str, handle: JoinHandle<ServeSummary>) -> ServeSummary {
    Client::connect(addr).expect("connect").shutdown().expect("shutdown");
    handle.join().expect("server thread")
}

pub(crate) fn scope(kernel: &str, gpu: &GpuSpec, sizes: &[u64]) -> EvalScope {
    EvalScope {
        kernel: kernel.to_string(),
        gpu: gpu.clone(),
        sizes: sizes.to_vec(),
        protocol: EvalProtocol::default(),
    }
}

/// `space` evaluated in-process: what a remote sweep must equal bit for
/// bit.
pub(crate) fn local_sweep(
    kid: KernelId,
    gpu: &GpuSpec,
    sizes: &[u64],
    space: &SearchSpace,
) -> Vec<Measurement> {
    let builder = move |n: u64| kid.ast(n);
    let ev = Evaluator::new(&builder, gpu, sizes);
    ev.evaluate_space(space).iter().map(|m| (**m).clone()).collect()
}

/// Never retries, so a case sees the first failure; default deadline.
pub(crate) fn fail_fast() -> RetryPolicy {
    RetryPolicy { max_retries: 0, ..RetryPolicy::default() }
}

/// An address that refuses connections: bind, snapshot, drop.
pub(crate) fn dead_addr() -> String {
    let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    l.local_addr().expect("addr").to_string()
}

/// Reads one frame off `src` the way both ends of the wire do: bytes
/// are buffered in `unread` as they arrive and `decode_frame` takes the
/// frame in front; what arrived past it stays in `unread` for the next
/// call. A close before a whole frame is `UnexpectedEof`, a frame
/// `decode_frame` refuses is `InvalidData`.
pub(crate) fn read_frame(src: &mut impl Read, unread: &mut Vec<u8>) -> io::Result<(u64, String)> {
    loop {
        match decode_frame(unread) {
            Ok(Some((corr, payload, used))) => {
                unread.drain(..used);
                return Ok((corr, payload));
            }
            Ok(None) => {}
            Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        }
        let mut chunk = [0u8; 4096];
        match src.read(&mut chunk)? {
            0 => return Err(io::ErrorKind::UnexpectedEof.into()),
            n => unread.extend_from_slice(&chunk[..n]),
        }
    }
}
