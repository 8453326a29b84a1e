//! The process side of the CLI end-to-end suites: the `oriole` binary,
//! a spawned `oriole serve` daemon, and what a test reads off it.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

pub(crate) fn oriole() -> Command {
    Command::new(env!("CARGO_BIN_EXE_oriole-cli"))
}

pub(crate) fn run_ok(args: &[&str]) -> String {
    let out = oriole().args(args).output().expect("spawn oriole");
    assert!(
        out.status.success(),
        "`oriole {}` failed:\nstdout: {}\nstderr: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

pub(crate) struct Daemon {
    pub(crate) child: Child,
    pub(crate) addr: String,
    /// Kept open for the daemon's lifetime: dropping the pipe's read
    /// end would make the daemon's own shutdown summary fail to print.
    stdout: BufReader<std::process::ChildStdout>,
}

/// A test that fails before [`Daemon::shutdown`] must not leave its
/// daemon running; after a clean shutdown this reaps nothing.
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Daemon {
    /// Spawns `oriole serve` on an ephemeral port over `store_dir` and
    /// parses the actual address out of the startup banner.
    pub(crate) fn spawn(store_dir: &Path) -> Daemon {
        let mut child = oriole()
            .args(["serve", "--addr", "127.0.0.1:0", "--store-dir"])
            .arg(store_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn daemon");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("read banner");
        let addr = banner
            .split("listening on ")
            .nth(1)
            .and_then(|r| r.split_whitespace().next())
            .unwrap_or_else(|| panic!("no address in banner `{banner}`"))
            .to_string();
        Daemon { child, addr, stdout }
    }

    /// Graceful stop: `oriole service shutdown --remote`, then reap the
    /// process (the daemon drains in-flight work before exiting).
    pub(crate) fn shutdown(mut self) {
        let out = run_ok(&["service", "shutdown", "--remote", &self.addr]);
        assert!(out.contains("shutting down"), "{out}");
        let status = self.child.wait().expect("daemon exit");
        assert!(status.success(), "daemon exited with {status}");
        let mut summary = String::new();
        use std::io::Read as _;
        self.stdout.read_to_string(&mut summary).expect("read summary");
        assert!(summary.contains("shut down after"), "{summary}");
    }

    /// The daemon's own `point(s) served` counter, read through
    /// `oriole service stats`. The stats calls themselves serve none.
    pub(crate) fn points_served(&self) -> u64 {
        let stats = run_ok(&["service", "stats", "--remote", &self.addr]);
        let server = stats.lines().find(|l| l.starts_with("  server:")).expect("server line");
        let count = server.split(", ").nth(2).and_then(|field| field.split(' ').next());
        count.and_then(|c| c.parse().ok()).unwrap_or_else(|| panic!("no point count in `{server}`"))
    }

    /// Polls the daemon's counters until it has answered a frame with
    /// points past `before`, so a sweep started after `before` was read
    /// is in flight here. A bounded number of polls, not a clock.
    pub(crate) fn await_points_past(&self, before: u64) {
        let answered = (0..2_000).any(|_| self.points_served() > before);
        assert!(answered, "daemon {} answered no new point in 2,000 polls", self.addr);
    }
}

/// A path under the system temp dir, unique to this test process and
/// `tag`, with nothing left at it.
pub(crate) fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oriole-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
