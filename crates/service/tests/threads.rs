//! The thread census of a remote sweep. One test, so that nothing else
//! in this process starts or ends a thread while it counts.

#![cfg(target_os = "linux")]

use oriole_arch::Gpu;
use oriole_codegen::TuningParams;
use oriole_service::{Client, EvalScope, RemoteEvaluator, Server};
use oriole_tuner::{ArtifactStore, EvalProtocol, SearchSpace};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
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
    assert_eq!(threads(), before, "ten pipelined frames, a connection kept: no thread of ours");
    assert_eq!(remote.batches_sent(), 10);
    // A second evaluator, so that the frames go out again, all hits now.
    let again = RemoteEvaluator::new(Client::connect(&addr).expect("connect"), scope);
    assert_eq!(again.evaluate_batch(&points).expect("warm sweep"), cold);
    assert_eq!(threads(), before, "two live pipelines, and still none");
    assert_eq!(client.stats().expect("stats").inline_hits, 10);
    drop((remote, again));
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread");
}
