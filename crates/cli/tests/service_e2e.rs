//! End-to-end service test across **real process boundaries**: a
//! spawned `oriole serve` daemon, concurrent `oriole tune --remote`
//! client processes, a kill mid-sweep, and store verification — the
//! acceptance scenario of the sharded-tuner-service PR.
//!
//! What must hold:
//! * two concurrent remote clients print byte-identical output, equal
//!   to a local (in-process evaluation) run of the same experiment;
//! * a warm re-run against the daemon reports **0** remote
//!   computations;
//! * a client killed mid-sweep leaves the daemon serving and its store
//!   directory `verify`-clean and resumable.

mod common;

use common::{oriole, run_ok, temp_dir, Daemon};
use std::process::{Child, Output, Stdio};

#[test]
fn daemon_serves_concurrent_clients_bit_identically_and_survives_a_killed_client() {
    let store_dir = temp_dir("svc");
    let daemon = Daemon::spawn(&store_dir);
    let addr = daemon.addr.clone();

    // --- Phase 1: two concurrent remote clients vs one local run. ---
    let tune_flags =
        ["tune", "--kernel", "atax", "--gpu", "k20", "--strategy", "exhaustive", "--sizes", "32"];
    let spawn_client = || {
        oriole()
            .args(tune_flags)
            .args(["--remote", &addr])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn client")
    };
    let (a, b) = (spawn_client(), spawn_client());
    let collect = |c: Child| -> Output { c.wait_with_output().expect("client exit") };
    let (a, b) = (collect(a), collect(b));
    assert!(a.status.success(), "client A: {}", String::from_utf8_lossy(&a.stderr));
    assert!(b.status.success(), "client B: {}", String::from_utf8_lossy(&b.stderr));
    assert_eq!(a.stdout, b.stdout, "concurrent clients must print byte-identical results");

    // A third process evaluates the same experiment locally (its own
    // fresh in-process store): byte-identical output again.
    let local = run_ok(&tune_flags);
    assert_eq!(
        String::from_utf8(a.stdout).unwrap(),
        local,
        "remote evaluation must be indistinguishable from local"
    );

    // --- Phase 2: warm re-run computes nothing on the daemon. ---
    // Comma-anchored so a regressed "5120 computed remotely" can never
    // satisfy the check by substring accident.
    let warm = run_ok(&[&tune_flags[..], &["--remote", &addr, "--stats"]].concat());
    assert!(
        warm.contains(", 0 computed remotely"),
        "warm re-run must be served from the shared store:\n{warm}"
    );

    // --- Phase 3: kill a client mid-sweep on a fresh scope. ---
    let served = daemon.points_served();
    let mut victim = oriole()
        .args([
            "tune", "--kernel", "bicg", "--gpu", "k20", "--strategy", "exhaustive", "--sizes",
            "32,64", "--remote", &addr,
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn victim client");
    // Once the daemon has answered the victim's first evaluate frame,
    // kill it.
    daemon.await_points_past(served);
    victim.kill().expect("kill client");
    let _ = victim.wait();

    // The daemon must still be serving other clients.
    let ping = run_ok(&["service", "ping", "--remote", &addr]);
    assert!(ping.contains("alive"), "{ping}");

    // --- Phase 4: graceful shutdown drains, then the store verifies
    // clean — no torn records from the killed client's sweep. ---
    daemon.shutdown();
    let store_dir_s = store_dir.to_string_lossy().into_owned();
    let verify = run_ok(&["store", "verify", "--store-dir", &store_dir_s]);
    assert!(verify.contains("0 problem(s)"), "{verify}");

    // --- Phase 5: resumable. A fresh daemon over the same directory
    // serves the interrupted scope to completion, and the phase-1
    // scope stays fully warm (0 computed). ---
    let daemon = Daemon::spawn(&store_dir);
    let addr = daemon.addr.clone();
    let resumed = run_ok(&[
        "tune", "--kernel", "bicg", "--gpu", "k20", "--strategy", "exhaustive", "--sizes",
        "32,64", "--remote", &addr,
    ]);
    assert!(resumed.contains("best:"), "{resumed}");
    let warm = run_ok(&[&tune_flags[..], &["--remote", &addr, "--stats"]].concat());
    assert!(warm.contains(", 0 computed remotely"), "{warm}");
    let best = |s: &str| s.lines().find(|l| l.starts_with("best:")).unwrap().to_string();
    assert_eq!(best(&warm), best(&local), "resumed store serves the identical best");
    daemon.shutdown();

    let verify = run_ok(&["store", "verify", "--store-dir", &store_dir_s]);
    assert!(verify.contains("0 problem(s)"), "{verify}");
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn serve_rejects_a_store_dir_that_is_a_file() {
    let file = std::env::temp_dir().join(format!("oriole-e2e-file-{}", std::process::id()));
    std::fs::write(&file, "not a dir").unwrap();
    let out = oriole()
        .args(["serve", "--addr", "127.0.0.1:0", "--store-dir"])
        .arg(&file)
        .output()
        .expect("spawn");
    assert!(!out.status.success(), "serve must refuse a file as store dir");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not a directory"), "{stderr}");
    let _ = std::fs::remove_file(&file);
}
