//! The thread census of a remote sweep. One test, so that nothing else
//! in this process starts or ends a thread while it counts.

#![cfg(target_os = "linux")]

use oriole_arch::Gpu;
use oriole_codegen::TuningParams;
use oriole_service::{Client, EvalScope, RemoteEvaluator, Server};
use oriole_tuner::{ArtifactStore, EvalProtocol, SearchSpace};
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

/// How long a joined thread may still be listed in `/proc/self/task`.
const SETTLE: Duration = Duration::from_secs(2);

/// The thread count once it reads `want`, or the last count read when
/// [`SETTLE`] passes first. The daemon joins its scoped batch threads
/// before it answers, but the kernel may list a joined thread a moment
/// longer; a thread that really leaks outlasts the deadline.
fn settled_threads(want: usize) -> usize {
    let deadline = Instant::now() + SETTLE;
    loop {
        let count = threads();
        if count == want || Instant::now() >= deadline {
            return count;
        }
        std::thread::yield_now();
    }
}

#[test]
fn a_one_daemon_sweep_leaves_the_thread_count_where_it_found_it() {
    let server = Server::bind("127.0.0.1:0", ArtifactStore::new()).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let daemon = std::thread::spawn(move || server.run().expect("serve"));
    let client = Client::connect(&addr).expect("connect");
    // The daemon's reactor has spawned its workers once it answers.
    client.ping().expect("ping");

    let scope = EvalScope {
        kernel: "atax".to_string(),
        gpu: Gpu::K20.spec().clone(),
        sizes: vec![32],
        protocol: EvalProtocol::default(),
    };
    let points: Vec<TuningParams> = SearchSpace::paper_default().iter().take(640).collect();
    let before = threads();
    let remote = RemoteEvaluator::new(Client::connect(&addr).expect("connect"), scope.clone());
    let cold = remote.evaluate_batch(&points).expect("cold sweep");
    let after = settled_threads(before);
    assert_eq!(after, before, "ten pipelined frames, a connection kept: no thread of ours");
    assert_eq!(remote.batches_sent(), 10);
    // A second evaluator, so that the frames go out again, all hits now.
    let again = RemoteEvaluator::new(Client::connect(&addr).expect("connect"), scope);
    assert_eq!(again.evaluate_batch(&points).expect("warm sweep"), cold);
    assert_eq!(settled_threads(before), before, "two live pipelines, and still none");
    assert_eq!(client.stats().expect("stats").inline_hits, 10);
    drop((remote, again));
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread");
}
