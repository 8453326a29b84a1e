//! Fault injection for the service tier: a TCP proxy that sits between
//! a client and a daemon and damages the conversation on purpose.
//!
//! The acceptance suite (`tests/chaos.rs`) drives real sweeps through
//! a [`ChaosProxy`] to prove the hardening contract: **every injected
//! failure either heals (the client retries and the final trace is
//! bit-identical to a fault-free run) or aborts loudly (a latched
//! error) — and no thread, client or daemon, ever blocks past its
//! deadline.** The proxy is test support: it sits behind the `chaos`
//! feature, which only `[dev-dependencies]` turn on, and no verb or bin
//! reaches it.
//!
//! Faults are described per-connection by a [`FaultSpec`] and
//! sequenced by a [`ChaosPlan`]: the *n*-th accepted connection gets
//! the *n*-th spec, and connections past the end of the sequence get
//! the plan's default — so a test can say "corrupt the first exchange,
//! then behave" and watch the retry heal.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How one proxied connection misbehaves. [`FaultSpec::default`] is a
/// faithful forwarder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Close the client connection immediately, before any bytes flow
    /// (models a refused/reset dial).
    pub refuse: bool,
    /// Hold every server→client byte back this long (models a wedged
    /// daemon or a stalled network; with a delay past the client's
    /// deadline, a black hole).
    pub delay_response_ms: u64,
    /// Flip the bits of the server→client byte at this stream offset
    /// (models in-flight corruption; the frame checksum must catch it).
    pub corrupt_response_at: Option<u64>,
    /// Drop the connection after forwarding this many server→client
    /// bytes (models a peer dying mid-frame; a cut inside a frame's
    /// header or payload must surface as a frame error, never a hang).
    pub cut_response_after: Option<u64>,
    /// Drop the connection after forwarding this many client→server
    /// bytes (models the request side dying mid-frame).
    pub cut_request_after: Option<u64>,
}

impl FaultSpec {
    /// A faithful forwarder (no fault).
    pub fn clean() -> FaultSpec {
        FaultSpec::default()
    }
}

/// Which [`FaultSpec`] each accepted connection receives: an explicit
/// sequence for the first connections, then a default for the rest.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    sequence: Vec<FaultSpec>,
    default: FaultSpec,
}

impl ChaosPlan {
    /// Every connection forwards faithfully.
    pub fn clean() -> ChaosPlan {
        ChaosPlan { sequence: Vec::new(), default: FaultSpec::clean() }
    }

    /// Every connection gets `fault`.
    pub fn always(fault: FaultSpec) -> ChaosPlan {
        ChaosPlan { sequence: Vec::new(), default: fault }
    }

    /// The first connections get `sequence` in order; the rest forward
    /// faithfully. The canonical heal-test shape: fault once, then
    /// behave.
    pub fn sequence(sequence: Vec<FaultSpec>) -> ChaosPlan {
        ChaosPlan { sequence, default: FaultSpec::clean() }
    }

    fn for_connection(&self, index: u64) -> FaultSpec {
        self.sequence
            .get(usize::try_from(index).unwrap_or(usize::MAX))
            .copied()
            .unwrap_or(self.default)
    }
}

/// A fault-injecting TCP proxy in front of a daemon.
///
/// Every internal read runs under a short timeout and checks a stop
/// flag, so the proxy itself obeys the no-unbounded-blocking rule it
/// exists to test; [`ChaosProxy::stop`] returns promptly even with
/// connections mid-delay.
pub struct ChaosProxy {
    addr: SocketAddr,
    connections: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    accept_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl ChaosProxy {
    /// Starts a proxy on an ephemeral localhost port forwarding to
    /// `upstream` (a daemon address) under `plan`.
    pub fn spawn(upstream: SocketAddr, plan: ChaosPlan) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let connections = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let connections = Arc::clone(&connections);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let (client, _) = match listener.accept() {
                        Ok(conn) => conn,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                            continue;
                        }
                        Err(_) => return,
                    };
                    let index = connections.fetch_add(1, Ordering::SeqCst);
                    let fault = plan.for_connection(index);
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        let _ = proxy_connection(client, upstream, fault, &stop);
                    });
                }
            })
        };
        Ok(ChaosProxy {
            addr,
            connections,
            stop,
            accept_thread: Mutex::new(Some(accept_thread)),
        })
    }

    /// The proxy's listening address — what the client should dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far. A healed retry is visible here: a
    /// fault that drops the connection forces a reconnect, so the count
    /// exceeds one.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::SeqCst)
    }

    /// Stops accepting and unwinds the pump threads.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.lock().expect("accept thread lock").take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for ChaosProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosProxy")
            .field("addr", &self.addr)
            .field("connections", &self.connections())
            .finish()
    }
}

/// One end of a pump: how many bytes to pass before acting up.
#[derive(Clone, Copy)]
struct PumpFault {
    corrupt_at: Option<u64>,
    cut_after: Option<u64>,
    delay_ms: u64,
}

fn proxy_connection(
    client: TcpStream,
    upstream: SocketAddr,
    fault: FaultSpec,
    stop: &Arc<AtomicBool>,
) -> std::io::Result<()> {
    if fault.refuse {
        // Drop both directions on the floor: the client sees an
        // immediate close, never a hang.
        return Ok(());
    }
    let server = TcpStream::connect_timeout(&upstream, Duration::from_secs(5))?;
    let c2s = PumpFault { corrupt_at: None, cut_after: fault.cut_request_after, delay_ms: 0 };
    let s2c = PumpFault {
        corrupt_at: fault.corrupt_response_at,
        cut_after: fault.cut_response_after,
        delay_ms: fault.delay_response_ms,
    };
    let up = {
        let from = client.try_clone()?;
        let to = server.try_clone()?;
        let stop = Arc::clone(stop);
        std::thread::spawn(move || pump(from, to, c2s, &stop))
    };
    let down = {
        let stop = Arc::clone(stop);
        std::thread::spawn(move || pump(server, client, s2c, &stop))
    };
    let _ = up.join();
    let _ = down.join();
    Ok(())
}

/// Forwards bytes `from` → `to`, applying the fault. Reads run under a
/// 50ms timeout so the stop flag is honored promptly; either side
/// closing (or the fault cutting) ends the pump, and dropping the
/// streams resets the other direction too.
fn pump(mut from: TcpStream, mut to: TcpStream, fault: PumpFault, stop: &AtomicBool) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(50)));
    let mut passed: u64 = 0;
    let mut buf = [0u8; 4096];
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) if stop.load(Ordering::SeqCst) => return,
            Ok(0) => return,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        };
        let mut chunk = buf[..n].to_vec();
        if let Some(at) = fault.corrupt_at {
            if at >= passed && at < passed + n as u64 {
                let i = (at - passed) as usize;
                chunk[i] ^= 0xFF;
            }
        }
        if let Some(cut) = fault.cut_after {
            let remaining = cut.saturating_sub(passed);
            if remaining < n as u64 {
                // Forward the allowed prefix, then die mid-frame.
                let keep = remaining as usize;
                if keep > 0 {
                    let _ = sleepy_write(&mut to, &chunk[..keep], fault.delay_ms, stop);
                }
                return;
            }
        }
        if sleepy_write(&mut to, &chunk, fault.delay_ms, stop).is_err() {
            return;
        }
        passed += n as u64;
    }
}

/// Writes after an interruptible delay: the hold-back sleeps in 10ms
/// slices so [`ChaosProxy::stop`] is never blocked behind a long
/// injected latency.
fn sleepy_write(
    to: &mut TcpStream,
    chunk: &[u8],
    delay_ms: u64,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    let mut left = delay_ms;
    while left > 0 {
        if stop.load(Ordering::SeqCst) {
            return Err(std::io::Error::other("proxy stopped"));
        }
        let nap = left.min(10);
        std::thread::sleep(Duration::from_millis(nap));
        left -= nap;
    }
    to.write_all(chunk)
}
