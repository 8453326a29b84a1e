//! The tuner daemon: an event-driven reactor serving the RPC protocol
//! over one shared [`ArtifactStore`].
//!
//! # Concurrency model
//!
//! One **reactor** thread owns every socket: a nonblocking listener and
//! all accepted connections, driven by a readiness loop (the private
//! `reactor` module). Each connection is a small state machine —
//! read-accumulate → decode ([`decode_frame`]) → dispatch →
//! write-drain — so the daemon's thread count is bounded by work, not
//! by clients: thousands of idle connections cost one `poll(2)` entry
//! each, not a parked thread each.
//!
//! Frames carry a **correlation id** (protocol v3): a connection may
//! pipeline up to [`MAX_IN_FLIGHT`] requests and receives each
//! response tagged with its request's id, in completion order —
//! out-of-order by design. At the cap — or with a few MiB of answers
//! its peer has not read yet — the reactor simply stops reading that
//! socket (backpressure by TCP), never buffers unboundedly.
//!
//! `evaluate` is the one verb that does work: the daemon exists to share
//! its store's measurements. Evaluation runs on a **bounded worker
//! pool** of exactly [`ServeConfig::max_inflight`] threads — the pool is
//! the bound on concurrent request bodies: a request that cannot start
//! within its declared deadline (or the server's own
//! [`ServeConfig::request_timeout`]) is shed with [`Response::Busy`],
//! never queued invisibly. What is *not* work the reactor answers
//! itself: `ping`, `stats` and `shutdown` — an operator can always probe
//! or stop a saturated daemon — an `evaluate` that one check (`admit`)
//! refuses, and an `evaluate` frame every point of which the store
//! already holds (`inline_hit`), because a lookup of 0.1 µs a point is
//! not worth a queue entry, a wake-up and two thread hand-offs of 50 µs
//! a frame. The reactor only ever *reads* the store for this: a scope
//! nobody has opened yet goes to a worker, since opening one may read a
//! tier file, and so does a point still being computed and a frame over
//! a fixed size.
//!
//! All workers evaluate through the same process-level store, so the
//! sharing rules are exactly the in-process ones (PR 2–4): concurrent
//! clients sweeping overlapping spaces share front-end and measurement
//! tiers, and the sharded in-flight-deduplicating memo guarantees each
//! point is computed
//! **once** no matter how many connections race on it. With a
//! disk-backed store the daemon is the directory's one writing process,
//! so the append-only spill discipline of [`oriole_tuner::persist`]
//! holds fleet-wide.
//!
//! # Deadlines everywhere
//!
//! The reactor's readiness wait is bounded by a short tick, so every
//! time-based rule is enforced within a tick even if no socket ever
//! becomes ready and every wake-up is lost:
//!
//! * a connection idle past [`ServeConfig::idle_timeout`] with nothing
//!   in flight is **reaped**;
//! * a connection whose peer stops reading its responses is dropped
//!   after `WRITE_TIMEOUT` (10 s) without write progress;
//! * a queued request that cannot reach a worker before its admission
//!   deadline is shed with `Busy` — by the worker if it pops it late,
//!   by the reactor's tick scan if no worker ever frees up;
//! * shutdown drains queued and in-flight work plus unwritten
//!   responses under the hard `DRAIN_TIMEOUT` (30 s).
//!
//! # Failure containment
//!
//! * A **malformed frame** (bad magic/length/checksum) poisons only its
//!   connection: the reactor answers with an error frame (best-effort)
//!   and hangs up. The store is never touched with unvalidated input.
//! * **Version skew** is answered with an error naming both versions,
//!   then the connection closes.
//! * A request that parses but names impossible values (unknown kernel,
//!   infeasible scope, a batch over [`MAX_POINTS_PER_REQUEST`]) is a
//!   per-request error; the connection survives.
//! * A client that **disconnects mid-request** costs only the response
//!   write; the computed measurements stay in the store for the next
//!   client (that's the point of the shared tier).
//! * **Saturation** is an explicit [`Response::Busy`] with a retry
//!   hint — evaluation is deterministic and the store dedups, so a
//!   shed client retries for free.
//! * **Shutdown** (by RPC) acks the requester, stops accepting, then
//!   drains queued work, busy workers and pending writes before
//!   [`Server::run`] returns, so a daemon is never killed out from
//!   under its own spill writes.

use crate::protocol::{
    self, EvalScope, Request, Response, ServiceStats, MAX_IN_FLIGHT, MAX_POINTS_PER_REQUEST,
};
use crate::reactor::{self, raw_fd, Interest, WakeHandle, WakePipe};
use oriole_codegen::TuningParams;
use oriole_kernels::KernelId;
use oriole_tuner::persist::{decode_frame, encode_frame};
use oriole_tuner::ArtifactStore;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The knobs a deployment sets on one daemon run (`oriole serve`'s
/// flags). [`ServeConfig::default`] is sized for a localhost fleet of
/// tuner clients; every bound exists so that no failure mode — slow
/// client, silent client, flood of clients — can park the daemon
/// forever. The bounds nobody tunes are constants: the in-flight cap
/// ([`MAX_IN_FLIGHT`]), the point bound ([`MAX_POINTS_PER_REQUEST`]),
/// the write and drain deadlines and the `busy` retry hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Maximum concurrent connections. A connection past the bound is
    /// answered [`Response::Busy`] and closed.
    pub max_connections: usize,
    /// The worker pool: threads executing `evaluate` bodies — the bound
    /// on requests concurrently inside evaluation. Excess requests wait
    /// in the queue up to their deadline, then are shed with
    /// [`Response::Busy`].
    pub max_inflight: usize,
    /// The server-side cap on how long a request may wait for a worker
    /// (a client's `deadline_ms` can only shorten it).
    pub request_timeout: Duration,
    /// Per-connection read deadline: a connection idle past this with
    /// nothing in flight is reaped.
    pub idle_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_connections: 64,
            max_inflight: 16,
            request_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// Per-connection write deadline: a client that stops reading its
/// responses loses the connection after this long without write
/// progress.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Hard deadline on the shutdown drain: queued work, busy workers and
/// unwritten responses get this long before [`Server::run`] returns
/// anyway.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// The `retry_after_ms` hint carried in [`Response::Busy`].
const BUSY_RETRY_MS: u64 = 25;

/// How one daemon run ended, returned by [`Server::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// The daemon's counters as the run left them: what a `stats`
    /// request would have been answered last.
    pub stats: ServiceStats,
    /// Whether the shutdown drain completed before its hard deadline
    /// (`false` means a worker was still evaluating — or a response
    /// still unwritten — when the deadline forced the exit).
    pub drained: bool,
}

/// One admitted `evaluate` handed to the worker pool, addressed back to
/// its connection by `(slot, gen)` so a completion can never reach a
/// reused slot.
struct Job {
    slot: usize,
    gen: u64,
    corr: u64,
    kernel: KernelId,
    scope: EvalScope,
    points: Vec<TuningParams>,
    /// The admission deadline: `min(request_timeout, client deadline)`
    /// past the decode instant. A job still unstarted by then is shed
    /// with [`Response::Busy`] — by the worker that pops it, or by the
    /// reactor's tick scan if no worker ever frees up.
    admit_by: Instant,
}

/// A finished response as the complete wire frame, serialized and
/// checksummed off-reactor (both parallelize with other work): the
/// reactor only appends it to the connection's write buffer.
struct Completion {
    slot: usize,
    gen: u64,
    frame: Vec<u8>,
    close: bool,
}

struct WorkQueue {
    jobs: VecDeque<Job>,
    stopped: bool,
}

struct ServerState {
    cfg: ServeConfig,
    shutdown: AtomicBool,
    /// Workers inside a request body right now (the `workers_busy`
    /// stat; the pool's size bounds it).
    workers_busy: AtomicU64,
    queue: Mutex<WorkQueue>,
    queue_changed: Condvar,
    completions: Mutex<Vec<Completion>>,
    connections: AtomicU64,
    requests: AtomicU64,
    points_served: AtomicU64,
    shed_busy: AtomicU64,
    reaped_idle: AtomicU64,
    open_conns: AtomicU64,
    frames_inflight: AtomicU64,
    pipelined_peak: AtomicU64,
    inline_hits: AtomicU64,
    wakeups: AtomicU64,
}

impl ServerState {
    fn complete(&self, wake: &WakeHandle, completion: Completion) {
        self.completions.lock().expect("completions lock").push(completion);
        wake.wake();
    }
}

/// A bound (but not yet serving) daemon. Binding and serving are split
/// so callers can learn the actual address (`--addr 127.0.0.1:0` binds
/// an ephemeral port) before the reactor starts.
pub struct Server {
    listener: TcpListener,
    store: ArtifactStore,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listener on `addr` over `store` with the default
    /// [`ServeConfig`]. The store is the daemon's one process-level
    /// artifact store: every connection shares it for its whole
    /// lifetime.
    pub fn bind(addr: &str, store: ArtifactStore) -> std::io::Result<Server> {
        Server::bind_with(addr, store, ServeConfig::default())
    }

    /// [`Server::bind`] with explicit serving bounds.
    pub fn bind_with(
        addr: &str,
        store: ArtifactStore,
        cfg: ServeConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let state = Arc::new(ServerState {
            cfg,
            shutdown: AtomicBool::new(false),
            workers_busy: AtomicU64::new(0),
            queue: Mutex::new(WorkQueue { jobs: VecDeque::new(), stopped: false }),
            queue_changed: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            points_served: AtomicU64::new(0),
            shed_busy: AtomicU64::new(0),
            reaped_idle: AtomicU64::new(0),
            open_conns: AtomicU64::new(0),
            frames_inflight: AtomicU64::new(0),
            pipelined_peak: AtomicU64::new(0),
            inline_hits: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
        });
        Ok(Server { listener, store, state })
    }

    /// The bound address (resolves `:0` to the real ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the reactor until a client sends `shutdown`, then drains
    /// queued work, busy workers and unwritten responses (bounded by
    /// `DRAIN_TIMEOUT`) and returns the daemon's last counters.
    pub fn run(self) -> std::io::Result<ServeSummary> {
        let (wake_pipe, wake_handle) = WakePipe::new()?;
        self.serve(&wake_pipe, &wake_handle)
    }

    /// [`run`](Server::run) over a given wake channel: the reactor
    /// waits on `wake_pipe`, and workers nudge it through `wake` after
    /// queueing a completion.
    fn serve(self, wake_pipe: &WakePipe, wake: &WakeHandle) -> std::io::Result<ServeSummary> {
        // The tick bounds every timer's latency (idle reap, write
        // stall, admission expiry, drain) and doubles as the wake
        // fallback: even with every wake lost, progress happens within
        // one tick.
        const TICK: Duration = Duration::from_millis(10);
        self.listener.set_nonblocking(true)?;
        for _ in 0..self.state.cfg.max_inflight.max(1) {
            let store = self.store.clone();
            let state = Arc::clone(&self.state);
            let wake = wake.clone();
            // Workers are detached: a wedged evaluation past the drain
            // deadline must not keep `run` from returning.
            std::thread::spawn(move || worker_loop(&store, &state, &wake));
        }

        let state = &self.state;
        let cfg = state.cfg;
        let mut conns: Vec<Option<Conn>> = Vec::new();
        let mut next_gen: u64 = 0;
        let mut draining: Option<Instant> = None;
        let mut accept_error: Option<std::io::Error> = None;
        let mut drained = true;

        enum Token {
            Listener,
            Wake,
            Conn { slot: usize, gen: u64 },
        }

        loop {
            // Build this tick's readiness set. A connection at its
            // pipeline cap or write high-water mark (or poisoned) gets
            // no read interest — TCP backpressure does the rest; write
            // interest only when bytes are pending.
            let mut entries: Vec<(usize, i32, Interest)> = Vec::with_capacity(conns.len() + 2);
            let mut tokens: Vec<Token> = Vec::with_capacity(conns.len() + 2);
            if draining.is_none() && accept_error.is_none() {
                entries.push((tokens.len(), raw_fd(&self.listener), Interest::Read));
                tokens.push(Token::Listener);
            }
            entries.push((tokens.len(), wake_pipe.fd(), Interest::Read));
            tokens.push(Token::Wake);
            for (slot, conn) in conns.iter().enumerate() {
                let Some(conn) = conn else { continue };
                let read = conn.may_decode();
                let write = conn.has_pending_write();
                let interest = match (read, write) {
                    (true, true) => Interest::Both,
                    (true, false) => Interest::Read,
                    (false, true) => Interest::Write,
                    (false, false) => continue,
                };
                entries.push((tokens.len(), raw_fd(&conn.stream), interest));
                tokens.push(Token::Conn { slot, gen: conn.gen });
            }
            let ready = reactor::wait(&entries, TICK);
            state.wakeups.fetch_add(1, Ordering::Relaxed);
            wake_pipe.drain();
            let now = Instant::now();

            let mut begin_drain = false;

            // 1. Deliver worker completions into write buffers (the
            //    generation check drops responses to recycled slots),
            //    then re-pump the affected connections: frames already
            //    accumulated past the pipeline cap decode now, without
            //    waiting for fresh socket readiness.
            let done: Vec<Completion> =
                std::mem::take(&mut *state.completions.lock().expect("completions lock"));
            let mut pump_slots: Vec<usize> = Vec::new();
            for completion in done {
                let slot = completion.slot;
                deliver(&mut conns, completion, state);
                if !pump_slots.contains(&slot) {
                    pump_slots.push(slot);
                }
            }
            for slot in pump_slots {
                if slot < conns.len() && conns[slot].is_some() {
                    begin_drain |=
                        pump_decoded(&mut conns, slot, &self.store, state, draining.is_some());
                }
            }

            // 2. Shed queued jobs whose admission deadline passed while
            //    every worker was busy — the client hears Busy at its
            //    deadline, not whenever a worker frees up.
            shed_expired_jobs(&mut conns, state, now);

            // 3. Socket readiness: reads decode and dispatch, writes
            //    drain. Accepts are handled last so a slot freed this
            //    tick cannot be reused while its stale readiness is
            //    still pending.
            let mut accepts_ready = false;
            for r in &ready {
                match tokens[r.token] {
                    Token::Listener => accepts_ready = r.readable,
                    Token::Wake => {}
                    Token::Conn { slot, gen } => {
                        if r.readable && matches!(&conns[slot], Some(c) if c.gen == gen) {
                            begin_drain |= conn_read(
                                &mut conns,
                                slot,
                                &self.store,
                                state,
                                draining.is_some(),
                            );
                        }
                        if r.writable && matches!(&conns[slot], Some(c) if c.gen == gen) {
                            conn_flush(&mut conns, slot, state);
                            // Requests that waited for the drain decode now.
                            begin_drain |=
                                pump_decoded(&mut conns, slot, &self.store, state, draining.is_some());
                        }
                    }
                }
            }

            // 4. Timers: idle reaping and stalled-writer eviction.
            for slot in 0..conns.len() {
                let drop_reason = match &conns[slot] {
                    Some(c) => {
                        if c.inflight == 0
                            && !c.has_pending_write()
                            && !c.closing
                            && now.duration_since(c.last_activity) > cfg.idle_timeout
                        {
                            Some(true)
                        } else if c
                            .write_stalled_since
                            .is_some_and(|since| now.duration_since(since) > WRITE_TIMEOUT)
                        {
                            Some(false)
                        } else {
                            None
                        }
                    }
                    None => None,
                };
                if let Some(reaped) = drop_reason {
                    if reaped {
                        state.reaped_idle.fetch_add(1, Ordering::Relaxed);
                    }
                    drop_conn(&mut conns, slot, state);
                }
            }

            // 5. Accepts (skipped while draining).
            if accepts_ready && draining.is_none() && accept_error.is_none() {
                match accept_all(&self.listener, &mut conns, &mut next_gen, state) {
                    Ok(()) => {}
                    Err(e) => {
                        // A dying listener still drains in-flight work
                        // below — the store must never be abandoned
                        // mid-spill.
                        accept_error = Some(e);
                        state.shutdown.store(true, Ordering::SeqCst);
                        draining.get_or_insert(now + DRAIN_TIMEOUT);
                    }
                }
            }

            if begin_drain {
                state.shutdown.store(true, Ordering::SeqCst);
                draining.get_or_insert(now + DRAIN_TIMEOUT);
            }

            // 6. Drain check: done when nothing is queued, executing,
            //    or pending in a write buffer — or the hard deadline
            //    passes.
            if let Some(deadline) = draining {
                let queue_empty =
                    state.queue.lock().expect("work queue lock").jobs.is_empty();
                let idle = state.frames_inflight.load(Ordering::SeqCst) == 0;
                let writes_flushed =
                    conns.iter().flatten().all(|c| !c.has_pending_write());
                if queue_empty && idle && writes_flushed {
                    break;
                }
                if Instant::now() >= deadline {
                    drained = false;
                    break;
                }
            }
        }

        // Stop the worker pool; wedged workers stay detached.
        {
            let mut q = state.queue.lock().expect("work queue lock");
            q.stopped = true;
        }
        state.queue_changed.notify_all();

        match accept_error {
            Some(e) => Err(e),
            None => Ok(ServeSummary { stats: stats(&self.store, state), drained }),
        }
    }
}

// ---------------------------------------------------------------------------
// Connection state machine
// ---------------------------------------------------------------------------

/// Per-connection state on the reactor: accumulation buffers for both
/// directions plus the counters the admission and timer rules read.
struct Conn {
    stream: TcpStream,
    /// Generation stamp: completions addressed to `(slot, gen)` are
    /// dropped if the slot was recycled in between.
    gen: u64,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Requests decoded but not yet answered into the write buffer.
    inflight: u32,
    last_activity: Instant,
    /// Set when a write hit `WouldBlock` with bytes pending; cleared on
    /// progress. Stalled past `WRITE_TIMEOUT` ⇒ the connection is
    /// dropped.
    write_stalled_since: Option<Instant>,
    /// Close once the write buffer drains; no further reads are decoded.
    closing: bool,
}

/// Most unwritten response bytes a connection may hold before the
/// reactor stops reading and decoding its requests: a peer that sends
/// without reading is throttled by its own TCP window, not served out of
/// daemon memory. One that leaves less than this unread never is.
const WRITE_HIGH_WATER: usize = 4 << 20;

impl Conn {
    fn has_pending_write(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }

    /// Whether this connection's next request may be read and decoded.
    fn may_decode(&self) -> bool {
        !self.closing
            && (self.inflight as usize) < MAX_IN_FLIGHT
            && self.write_buf.len() - self.write_pos <= WRITE_HIGH_WATER
    }

    /// Queues one tagged response frame for writing.
    fn push_frame(&mut self, corr: u64, resp: &Response) {
        self.write_buf.extend_from_slice(&frame_response(corr, resp));
    }
}

/// Frames one response. Only an echoed request string can push a
/// response past the frame bound; that one is answered with the bound's
/// own (short) error instead.
fn frame_response(corr: u64, resp: &Response) -> Vec<u8> {
    let frame = |resp: &Response| {
        let payload = protocol::emit_response(resp);
        encode_frame(corr, |out| out.push_str(&payload))
    };
    frame(resp).unwrap_or_else(|e| {
        frame(&Response::Error { message: e.to_string() }).expect("a one-line error fits a frame")
    })
}

fn accept_all(
    listener: &TcpListener,
    conns: &mut Vec<Option<Conn>>,
    next_gen: &mut u64,
    state: &ServerState,
) -> std::io::Result<()> {
    loop {
        let (stream, _peer) = match listener.accept() {
            Ok(conn) => conn,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if state.open_conns.load(Ordering::Relaxed) >= state.cfg.max_connections as u64 {
            // Connection bound reached: shed with an explicit Busy
            // instead of a hung socket. The frame is tiny and the
            // write deadline bounds even a client that never reads.
            shed_connection(stream, state);
            continue;
        }
        let _ = stream.set_nonblocking(true);
        let _ = stream.set_nodelay(true);
        state.connections.fetch_add(1, Ordering::Relaxed);
        state.open_conns.fetch_add(1, Ordering::Relaxed);
        *next_gen += 1;
        let conn = Conn {
            stream,
            gen: *next_gen,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            inflight: 0,
            last_activity: Instant::now(),
            write_stalled_since: None,
            closing: false,
        };
        match conns.iter_mut().position(|c| c.is_none()) {
            Some(free) => conns[free] = Some(conn),
            None => conns.push(Some(conn)),
        }
    }
}

/// Answers an over-admission connection with `Busy` and closes it.
fn shed_connection(mut stream: TcpStream, state: &ServerState) {
    state.shed_busy.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let resp = Response::Busy { retry_after_ms: BUSY_RETRY_MS };
    let _ = stream.write_all(&frame_response(0, &resp));
}

fn drop_conn(conns: &mut [Option<Conn>], slot: usize, state: &ServerState) {
    if conns[slot].take().is_some() {
        state.open_conns.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Delivers one worker completion: decrements the in-flight counters
/// and, if the connection is still the same generation, appends the
/// response frame and flushes opportunistically.
fn deliver(conns: &mut [Option<Conn>], completion: Completion, state: &ServerState) {
    state.frames_inflight.fetch_sub(1, Ordering::SeqCst);
    let Completion { slot, gen, frame, close } = completion;
    let alive = slot < conns.len() && matches!(&conns[slot], Some(c) if c.gen == gen);
    if !alive {
        // The connection went away mid-request: the response is
        // discarded, the computed measurements stay in the store.
        return;
    }
    {
        let conn = conns[slot].as_mut().expect("checked alive");
        conn.inflight = conn.inflight.saturating_sub(1);
        conn.write_buf.extend_from_slice(&frame);
        if close {
            conn.closing = true;
        }
    }
    conn_flush(conns, slot, state);
}

/// Sheds every queued job whose admission deadline has passed: the
/// reactor answers Busy itself so a fully wedged worker pool cannot
/// postpone the shed past the client's declared patience.
fn shed_expired_jobs(conns: &mut [Option<Conn>], state: &ServerState, now: Instant) {
    let expired: Vec<Job> = {
        let mut q = state.queue.lock().expect("work queue lock");
        if q.jobs.iter().all(|j| now <= j.admit_by) {
            return;
        }
        let (keep, expired): (VecDeque<Job>, VecDeque<Job>) =
            q.jobs.drain(..).partition(|j| now <= j.admit_by);
        q.jobs = keep;
        expired.into()
    };
    for job in expired {
        state.shed_busy.fetch_add(1, Ordering::Relaxed);
        let resp = Response::Busy { retry_after_ms: BUSY_RETRY_MS };
        deliver(
            conns,
            Completion {
                slot: job.slot,
                gen: job.gen,
                frame: frame_response(job.corr, &resp),
                close: false,
            },
            state,
        );
    }
}

/// Pulls available bytes off the socket and decodes/dispatches every
/// complete frame. Returns `true` when a `shutdown` request asks the
/// daemon to begin draining.
fn conn_read(
    conns: &mut [Option<Conn>],
    slot: usize,
    store: &ArtifactStore,
    state: &ServerState,
    draining: bool,
) -> bool {
    // Per-tick read cap: one greedy peer cannot starve the other
    // connections; level-triggered readiness re-reports the rest.
    const READ_CAP: usize = 256 * 1024;
    let mut eof = false;
    {
        let conn = conns[slot].as_mut().expect("caller checked slot");
        let mut total = 0;
        let mut tmp = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut tmp) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&tmp[..n]);
                    conn.last_activity = Instant::now();
                    total += n;
                    if total >= READ_CAP {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    eof = true;
                    break;
                }
            }
        }
    }
    let begin_drain = pump_decoded(conns, slot, store, state, draining);
    if eof {
        // Clean close between frames, or dropped mid-frame: either way
        // this connection is done; nothing shared is affected. Any
        // in-flight work finishes into the store for the next client.
        drop_conn(conns, slot, state);
    }
    begin_drain
}

/// Decodes every complete frame buffered on `slot` (up to the pipeline
/// cap) and dispatches each request. Also called after completions
/// drain, so frames that arrived while the connection was at its cap
/// are decoded without new socket readiness. Returns `true` on a
/// `shutdown` request.
fn pump_decoded(
    conns: &mut [Option<Conn>],
    slot: usize,
    store: &ArtifactStore,
    state: &ServerState,
    draining: bool,
) -> bool {
    let mut begin_drain = false;
    let mut jobs: Vec<Job> = Vec::new();
    {
        let Some(conn) = conns[slot].as_mut() else { return false };
        let mut consumed = 0;
        while conn.may_decode() {
            match decode_frame(&conn.read_buf[consumed..]) {
                Ok(None) => break,
                Ok(Some((corr, payload, used))) => {
                    consumed += used;
                    begin_drain |=
                        process_request(conn, slot, corr, &payload, store, state, &mut jobs, draining);
                }
                Err(e) => {
                    // Malformed framing: no resynchronization exists,
                    // so answer (best-effort) and hang up. The store is
                    // never touched with unvalidated input.
                    let resp = Response::Error { message: format!("malformed frame: {e}") };
                    conn.push_frame(0, &resp);
                    conn.closing = true;
                    break;
                }
            }
        }
        conn.read_buf.drain(..consumed);
    }
    if !jobs.is_empty() {
        let mut q = state.queue.lock().expect("work queue lock");
        for job in jobs {
            q.jobs.push_back(job);
            state.queue_changed.notify_one();
        }
    }
    conn_flush(conns, slot, state);
    begin_drain
}

/// Handles one decoded request on the reactor: the version check,
/// inline answers for the cheap verbs, and for an `evaluate` its
/// admission, then an inline answer or work-queue dispatch. Returns
/// `true` on a `shutdown` request.
#[allow(clippy::too_many_arguments)]
fn process_request(
    conn: &mut Conn,
    slot: usize,
    corr: u64,
    payload: &str,
    store: &ArtifactStore,
    state: &ServerState,
    jobs: &mut Vec<Job>,
    draining: bool,
) -> bool {
    let req = match protocol::parse_request(payload) {
        Ok(req) => req,
        // A frame that parsed but isn't a well-formed request:
        // per-request error. Version skew additionally drops the
        // connection — the peer will keep speaking the wrong dialect.
        Err(e) => {
            state.requests.fetch_add(1, Ordering::Relaxed);
            conn.push_frame(corr, &Response::Error { message: e.to_string() });
            if protocol::version_skew(payload) {
                conn.closing = true;
            }
            return false;
        }
    };
    if draining {
        // A connection lingering past shutdown is refused, not served:
        // the daemon has already begun draining and its store may be
        // about to go away with the process.
        conn.push_frame(corr, &Response::Error {
            message: "daemon is shutting down".to_string(),
        });
        conn.closing = true;
        return false;
    }
    state.requests.fetch_add(1, Ordering::Relaxed);
    match req {
        // The cheap verbs are answered inline on the reactor — always
        // answerable, even with every worker busy: an operator must be
        // able to probe or stop a saturated daemon.
        Request::Ping => {
            conn.push_frame(corr, &Response::Pong);
            false
        }
        Request::Stats => {
            conn.push_frame(corr, &Response::Stats(stats(store, state)));
            false
        }
        Request::Shutdown => {
            // Ack first (the frame is queued ahead of the drain and
            // flushed by the continuing loop, so the requester always
            // hears back), then begin draining and recycle the
            // connection.
            conn.push_frame(corr, &Response::ShuttingDown);
            conn.closing = true;
            true
        }
        Request::Evaluate { scope, points, deadline_ms } => {
            let kernel = match admit(&scope, points.len()) {
                Ok(kernel) => kernel,
                Err(message) => {
                    conn.push_frame(corr, &Response::Error { message });
                    return false;
                }
            };
            if let Some(frame) = inline_hit(kernel, &scope, &points, corr, store, state) {
                conn.write_buf.extend_from_slice(&frame);
                return false;
            }
            // The client's remaining patience can only shorten the
            // server's own admission cap: work that cannot start
            // before the client gives up is shed, not burned.
            let mut wait = state.cfg.request_timeout;
            if deadline_ms > 0 {
                wait = wait.min(Duration::from_millis(deadline_ms));
            }
            conn.inflight += 1;
            let depth = u64::from(conn.inflight);
            state.frames_inflight.fetch_add(1, Ordering::SeqCst);
            state.pipelined_peak.fetch_max(depth, Ordering::Relaxed);
            jobs.push(Job {
                slot,
                gen: conn.gen,
                corr,
                kernel,
                scope,
                points,
                admit_by: Instant::now() + wait,
            });
            false
        }
    }
}

/// The one check an `evaluate` passes before the store sees it: a
/// device the models can run on (the codec hands over whatever device
/// the frame spelled, and one they would divide by zero on must not
/// reach a worker), at most [`MAX_POINTS_PER_REQUEST`] points, a
/// registry kernel and at least one size. `Err` is the refusal's
/// wording, a per-request error.
fn admit(scope: &EvalScope, points: usize) -> Result<KernelId, String> {
    if let Some(problem) = scope.gpu.problems().into_iter().next() {
        return Err(format!("unusable device description: {problem}"));
    }
    if points > MAX_POINTS_PER_REQUEST {
        return Err(format!(
            "evaluate batch of {points} points exceeds the per-request bound of \
             {MAX_POINTS_PER_REQUEST}"
        ));
    }
    let kernel =
        KernelId::parse(&scope.kernel).ok_or_else(|| format!("unknown kernel `{}`", scope.kernel))?;
    if scope.sizes.is_empty() {
        return Err("empty size list".to_string());
    }
    Ok(kernel)
}

/// Most points the reactor answers in one frame: looking them up and
/// encoding them (0.4 µs a point) then costs it less than parsing the
/// request just did (0.55). A larger all-hit frame goes to a worker.
const INLINE_POINTS: usize = 256;

/// The finished answer to an admitted `evaluate` every point of which
/// the store already holds: the frame [`handle_evaluate`] would build,
/// by the same two functions. `None` — a miss, a point in flight, an
/// unopened scope, a frame over [`INLINE_POINTS`] — leaves it to a
/// worker.
fn inline_hit(
    kernel: KernelId,
    scope: &EvalScope,
    points: &[TuningParams],
    corr: u64,
    store: &ArtifactStore,
    state: &ServerState,
) -> Option<Vec<u8>> {
    if points.len() > INLINE_POINTS {
        return None;
    }
    let held =
        store.peek_batch(kernel.name(), &scope.gpu, &scope.sizes, scope.protocol, points)?;
    let shared = held.iter().map(|m| &**m);
    let frame = encode_frame(corr, |out| protocol::write_evaluate(out, 0, shared)).ok()?;
    state.points_served.fetch_add(points.len() as u64, Ordering::Relaxed);
    state.inline_hits.fetch_add(1, Ordering::Relaxed);
    Some(frame)
}

/// Drains as much of the write buffer as the socket accepts; on a
/// write failure — or a completed flush of a closing connection — the
/// connection is dropped.
fn conn_flush(conns: &mut [Option<Conn>], slot: usize, state: &ServerState) {
    let Some(conn) = conns[slot].as_mut() else { return };
    let mut dead = false;
    while conn.has_pending_write() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => {
                dead = true;
                break;
            }
            Ok(n) => {
                conn.write_pos += n;
                conn.write_stalled_since = None;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if conn.write_stalled_since.is_none() {
                    conn.write_stalled_since = Some(Instant::now());
                }
                break;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                dead = true;
                break;
            }
        }
    }
    if !conn.has_pending_write() {
        conn.write_buf.clear();
        conn.write_pos = 0;
        conn.write_stalled_since = None;
        if conn.closing {
            dead = true;
        }
    } else if conn.write_pos >= WRITE_HIGH_WATER {
        // A slow reader never empties the buffer: drop what it has read.
        conn.write_buf.drain(..conn.write_pos);
        conn.write_pos = 0;
    }
    if dead {
        drop_conn(conns, slot, state);
    }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

/// One worker thread: pops jobs, sheds the ones whose admission
/// deadline passed in the queue, executes the rest through the shared
/// store, and hands the serialized response back to the reactor.
fn worker_loop(store: &ArtifactStore, state: &ServerState, wake: &WakeHandle) {
    loop {
        let job = {
            let mut q = state.queue.lock().expect("work queue lock");
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.stopped {
                    return;
                }
                q = state.queue_changed.wait(q).expect("work queue wait");
            }
        };
        let (frame, close) = if Instant::now() > job.admit_by {
            // Queued past its admission deadline: shed, never started.
            state.shed_busy.fetch_add(1, Ordering::Relaxed);
            let busy = Response::Busy { retry_after_ms: BUSY_RETRY_MS };
            (frame_response(job.corr, &busy), false)
        } else if state.shutdown.load(Ordering::SeqCst) {
            // Work reaching a worker after shutdown was flagged is
            // refused, not started; the drain waits for the refusal to
            // be delivered like any other answer (`frames_inflight`).
            let resp = Response::Error { message: "daemon is shutting down".to_string() };
            (frame_response(job.corr, &resp), true)
        } else {
            state.workers_busy.fetch_add(1, Ordering::Relaxed);
            let answer = handle_evaluate(store, job.kernel, &job.scope, &job.points, job.corr);
            let frame = match answer {
                Ok(frame) => {
                    state.points_served.fetch_add(job.points.len() as u64, Ordering::Relaxed);
                    frame
                }
                Err(message) => frame_response(job.corr, &Response::Error { message }),
            };
            state.workers_busy.fetch_sub(1, Ordering::Relaxed);
            (frame, false)
        };
        state.complete(wake, Completion { slot: job.slot, gen: job.gen, frame, close });
    }
}

/// A snapshot of the daemon's counters: the `stats` answer, and what
/// [`Server::run`] returns.
fn stats(store: &ArtifactStore, state: &ServerState) -> ServiceStats {
    ServiceStats {
        connections: state.connections.load(Ordering::Relaxed),
        requests: state.requests.load(Ordering::Relaxed),
        points_served: state.points_served.load(Ordering::Relaxed),
        workers_busy: state.workers_busy.load(Ordering::Relaxed),
        workers_max: state.cfg.max_inflight as u64,
        shed_busy: state.shed_busy.load(Ordering::Relaxed),
        reaped_idle: state.reaped_idle.load(Ordering::Relaxed),
        open_connections: state.open_conns.load(Ordering::Relaxed),
        frames_inflight: state.frames_inflight.load(Ordering::SeqCst),
        pipelined_peak: state.pipelined_peak.load(Ordering::Relaxed),
        inline_hits: state.inline_hits.load(Ordering::Relaxed),
        reactor_wakeups: state.wakeups.load(Ordering::Relaxed),
        store: store.stats(),
    }
}

/// Evaluates an admitted request's `points` and serializes the answer
/// straight from the store's shared measurements into the finished
/// frame: no copy of a measurement, no payload on the side. `Err` is a
/// frame past its bound.
fn handle_evaluate(
    store: &ArtifactStore,
    kernel: KernelId,
    scope: &EvalScope,
    points: &[TuningParams],
    corr: u64,
) -> Result<Vec<u8>, String> {
    let builder = move |n: u64| kernel.ast(n);
    let evaluator =
        store.evaluator_with(kernel.name(), &builder, &scope.gpu, &scope.sizes, scope.protocol);
    // "Computed" is what this request computed — the evaluator is this
    // frame's own, so frames overlapping on one connection, or clients
    // racing on one scope, each report only the misses they won
    // (deterministically zero on a warm re-run).
    let measurements = evaluator.evaluate_batch(points);
    let computed = evaluator.computed() as u64;
    let shared = measurements.iter().map(|m| &**m);
    encode_frame(corr, |out| protocol::write_evaluate(out, computed, shared))
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    #[test]
    fn shutdown_completes_even_when_the_wake_dial_is_sabotaged() {
        // Regression for the silent-failure wake path: the old accept loop
        // blocked in accept(2) and relied on a best-effort self-connection
        // to notice shutdown — a failed dial hung the daemon forever. The
        // polled loop must shut down promptly even with every wake lost:
        // here the workers nudge a second channel that nobody reads, so
        // progress comes from the reactor's bounded tick alone.
        let server = Server::bind("127.0.0.1:0", ArtifactStore::new()).expect("bind");
        let addr = server.local_addr().expect("addr");
        let (wake_pipe, _writer) = WakePipe::new().expect("wake pipe");
        let (_unread, lost) = WakePipe::new().expect("lost wake pipe");
        let handle = std::thread::spawn(move || server.serve(&wake_pipe, &lost).expect("serve"));

        let client = Client::connect(&addr.to_string()).expect("connect");
        let started = Instant::now();
        client.shutdown().expect("shutdown ack");
        drop(client);
        let summary = handle.join().expect("server thread");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "shutdown must complete through the poll fallback, not hang"
        );
        assert!(summary.drained);
    }
}
