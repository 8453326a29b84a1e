//! End-to-end fleet test across **real process boundaries**: three
//! spawned `oriole serve` daemons with disjoint store directories, a
//! `tune --remote A,B,C` sweep byte-diffed against a local run, a SIGKILL of
//! one daemon mid-sweep, and store verification on the survivors —
//! the acceptance scenario of the oriole_fleet PR.
//!
//! What must hold:
//! * a 3-daemon fleet sweep prints byte-identical output to a local
//!   (in-process evaluation) run of the same experiment;
//! * a warm re-run against the same fleet is byte-identical again;
//! * with one daemon SIGKILLed mid-sweep the client still completes
//!   with byte-identical output (the scheduler rebalances the dead
//!   shard's chunks onto the survivors);
//! * the surviving daemons' stores `verify` clean afterwards — no
//!   torn records from the rebalanced sweep.

mod common;

use common::{oriole, run_ok, temp_dir, Daemon};
use std::path::PathBuf;
use std::process::Stdio;

/// Hard stop: SIGKILL, no drain, no goodbye — simulates a crashed or
/// partitioned shard.
fn kill(mut daemon: Daemon) {
    daemon.child.kill().expect("kill daemon");
    let _ = daemon.child.wait();
}

#[test]
fn three_daemon_fleet_matches_local_and_survives_a_sigkilled_shard() {
    let stores: Vec<PathBuf> = (0..3).map(|i| temp_dir(&format!("s{i}"))).collect();
    let mut daemons: Vec<Daemon> = stores.iter().map(|d| Daemon::spawn(d)).collect();
    let fleet_arg =
        daemons.iter().map(|d| d.addr.as_str()).collect::<Vec<_>>().join(",");

    // --- Phase 1: cold fleet sweep vs local run, byte-for-byte. ---
    // Small chunks (--batch-points 4) so the work actually spreads
    // across shards instead of landing as one chunk on the home shard.
    let tune_flags =
        ["tune", "--kernel", "atax", "--gpu", "k20", "--strategy", "exhaustive", "--sizes", "32"];
    let local = run_ok(&tune_flags);
    let fleet = run_ok(
        &[&tune_flags[..], &["--remote", &fleet_arg, "--batch-points", "4"]].concat(),
    );
    assert_eq!(fleet, local, "fleet evaluation must be indistinguishable from local");

    // --- Phase 2: warm re-run over the same fleet, identical again.
    // (A chunk may land on a different shard than the one that
    // computed it last time, so the stores converge rather than
    // guarantee zero recomputation — the *output* must not move.) ---
    let warm = run_ok(
        &[&tune_flags[..], &["--remote", &fleet_arg, "--batch-points", "4"]].concat(),
    );
    assert_eq!(warm, local, "warm fleet re-run must be byte-identical");

    // A manifest file names the same daemons: same answer.
    let manifest = temp_dir("manifest").with_extension("txt");
    std::fs::write(&manifest, format!("# fleet under test\n{}\n", fleet_arg.replace(',', "\n")))
        .expect("write manifest");
    let via_manifest = run_ok(
        &[
            &tune_flags[..],
            &["--remote", &format!("@{}", manifest.display()), "--batch-points", "4"],
        ]
        .concat(),
    );
    assert_eq!(via_manifest, local, "--remote @manifest must behave like the inline list");
    let _ = std::fs::remove_file(&manifest);

    // --- Phase 3: SIGKILL one daemon mid-sweep on a fresh scope. ---
    // Tight client policy so the dead shard is detected in seconds,
    // not after the full default backoff ladder.
    let local_bicg = run_ok(&[
        "tune", "--kernel", "bicg", "--gpu", "k20", "--strategy", "exhaustive", "--sizes",
        "32,64",
    ]);
    let served = daemons[2].points_served();
    let victim_sweep = oriole()
        .args([
            "tune", "--kernel", "bicg", "--gpu", "k20", "--strategy", "exhaustive", "--sizes",
            "32,64", "--remote", &fleet_arg, "--batch-points", "2", "--rpc-timeout", "2000",
            "--retries", "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fleet sweep");
    // Once the third shard has answered a chunk of the sweep, hard-kill
    // it. Whether the kill lands mid-sweep or the sweep already drained,
    // the output contract is the same.
    daemons[2].await_points_past(served);
    kill(daemons.remove(2));
    let out = victim_sweep.wait_with_output().expect("sweep exit");
    assert!(
        out.status.success(),
        "fleet sweep must survive a killed shard:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        local_bicg,
        "a killed shard must not change the answer"
    );

    // --- Phase 4: the survivors keep serving, then shut down clean
    // and their stores verify with no torn records. ---
    let survivor_arg =
        daemons.iter().map(|d| d.addr.as_str()).collect::<Vec<_>>().join(",");
    let rerun = run_ok(&[
        "tune", "--kernel", "bicg", "--gpu", "k20", "--strategy", "exhaustive", "--sizes",
        "32,64", "--remote", &survivor_arg, "--batch-points", "2",
    ]);
    assert_eq!(rerun, local_bicg, "the surviving fleet must still serve the scope");

    for daemon in daemons {
        daemon.shutdown();
    }
    for dir in stores.iter().take(2) {
        let dir_s = dir.to_string_lossy().into_owned();
        let verify = run_ok(&["store", "verify", "--store-dir", &dir_s]);
        assert!(verify.contains("0 problem(s)"), "store {dir_s}:\n{verify}");
    }
    for dir in &stores {
        let _ = std::fs::remove_dir_all(dir);
    }
}
