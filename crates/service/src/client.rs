//! Client library: the two ways to hold a connection to a daemon. A
//! [`Client`] is a blocking single-shot session — one request, one
//! response, retried under its [`RetryPolicy`] — for `ping`, `stats`,
//! `shutdown`, `simulate` and a one-off `evaluate`. A [`Pipeline`]
//! keeps many request frames in flight on one connection, responses
//! matched by correlation id and read off the socket by whichever
//! thread is waiting for one — neither type owns a thread. It is what
//! the evaluation engine ([`RemoteEvaluator`](crate::RemoteEvaluator))
//! drives, one per daemon. Both share one dial routine, one retry step
//! (`retry_or_bail`) and one positional check of an `evaluate` answer
//! (`verify_measurements`).
//!
//! # Fault handling
//!
//! Every RPC runs under a deadline ([`RetryPolicy::rpc_timeout`] set as
//! the socket read/write timeout), so no call can block forever on a
//! dead or wedged daemon. Transient failures — connection loss, a
//! damaged frame, an expired deadline, a [`Response::Busy`]
//! backpressure answer — are retried with exponential backoff and
//! jitter, reconnecting as needed, up to [`RetryPolicy::max_retries`]
//! times.
//!
//! **Why retrying is safe** (the idempotency argument): the retried
//! verbs — `ping`, `stats`, `evaluate`, `simulate` — are all
//! *deterministic reads* of state the daemon either already holds or
//! computes reproducibly. Evaluation is deterministic and the shared
//! [`ArtifactStore`](oriole_tuner::ArtifactStore) deduplicates points,
//! so replaying an `evaluate` whose response was lost re-serves the
//! memoized measurements, bit-identical, without recomputing or
//! double-counting anything. The one verb with a side effect —
//! `shutdown` — is **never** auto-retried.
//!
//! After any failed or half-completed exchange the connection is
//! **poisoned** (dropped and re-dialed before the next use). Frames
//! carry correlation ids (protocol v3), and both the single-shot
//! [`Client`] and the [`Pipeline`] verify every response's id against
//! an outstanding request — a response that matches nothing is a loud
//! [`ServiceError::Protocol`] failure, never a mislabeled answer.

use crate::protocol::{self, EvalScope, Request, Response, ServiceStats};
use oriole_arch::GpuSpec;
use oriole_codegen::TuningParams;
use oriole_sim::{ModelId, SimReport};
use oriole_tuner::persist::{
    classify_frame_io, read_frame_tagged, write_frame_tagged, FrameError,
};
use oriole_tuner::Measurement;
use std::collections::HashMap;
use std::fmt;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Why an RPC failed.
#[derive(Debug)]
pub enum ServiceError {
    /// Connection-level failure (connect, send, receive).
    Io(std::io::Error),
    /// The response frame was damaged or unparseable.
    Frame(FrameError),
    /// The response parsed but was not the expected shape, or carried a
    /// wire error.
    Protocol(String),
    /// The daemon answered with an error (its message included —
    /// unknown kernel, infeasible request, version skew, …).
    Remote(String),
    /// The daemon shed the request with backpressure and the retry
    /// policy is exhausted; carries the daemon's last `retry_after_ms`
    /// hint.
    Busy(u64),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "service I/O error: {e}"),
            ServiceError::Frame(e) => write!(f, "service frame error: {e}"),
            ServiceError::Protocol(m) => write!(f, "service protocol error: {m}"),
            ServiceError::Remote(m) => write!(f, "daemon error: {m}"),
            ServiceError::Busy(ms) => {
                write!(f, "daemon busy: retries exhausted (daemon suggested retry in {ms}ms)")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> ServiceError {
        ServiceError::Io(e)
    }
}

impl From<FrameError> for ServiceError {
    fn from(e: FrameError) -> ServiceError {
        ServiceError::Frame(e)
    }
}

impl ServiceError {
    /// Whether retrying can possibly change the answer. Transport
    /// failures and backpressure are transient; a daemon-side error or
    /// a malformed exchange is deterministic and retrying would only
    /// repeat it. Fleet schedulers use the same split to decide between
    /// rebalancing a shard's queue (transient: the shard is slow or
    /// lost) and aborting the whole run (deterministic: every shard
    /// would answer the same error).
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ServiceError::Io(_) | ServiceError::Frame(_) | ServiceError::Busy(_)
        )
    }
}

/// Deadline and retry configuration for one [`Client`].
///
/// Backoff is exponential from [`RetryPolicy::base_backoff`], capped at
/// [`RetryPolicy::max_backoff`], with deterministic jitter (seeded by
/// [`RetryPolicy::jitter_seed`]) in the upper half of each step so a
/// fleet of shed clients does not re-stampede the daemon in lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first failure (0 = fail fast).
    /// Only *transient* failures (I/O, frame damage, deadline expiry,
    /// `Busy` backpressure) are retried, and never for `shutdown`.
    pub max_retries: u32,
    /// First backoff step.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Socket read/write deadline on every exchange; also declared to
    /// the daemon in `evaluate` so it can shed work it cannot start in
    /// time. [`Duration::ZERO`] means no deadline (not recommended
    /// outside tests).
    pub rpc_timeout: Duration,
    /// Seed of the deterministic jitter stream (vary per client so
    /// backoffs decorrelate; keep fixed in tests for stability).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 4,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            rpc_timeout: Duration::from_secs(10),
            jitter_seed: 0x6f72696f6c65, // "oriole"
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries and keeps the default deadline —
    /// the pre-hardening fail-fast behaviour, for tests that assert on
    /// first-failure semantics.
    pub fn fail_fast() -> RetryPolicy {
        RetryPolicy { max_retries: 0, ..RetryPolicy::default() }
    }

    /// The backoff before retry attempt `attempt` (1-based):
    /// exponential, capped, jittered into the upper half of the step.
    pub(crate) fn backoff(&self, attempt: u32) -> Duration {
        let base = self.base_backoff.as_millis() as u64;
        if base == 0 {
            return Duration::ZERO;
        }
        let exp = base.saturating_mul(1u64 << attempt.saturating_sub(1).min(20));
        let capped = exp.min(self.max_backoff.as_millis() as u64).max(1);
        // xorshift64* over (seed, attempt): deterministic, no clock or
        // RNG dependency, stable under test.
        let mut x = self.jitter_seed ^ (u64::from(attempt).wrapping_mul(0x9e3779b97f4a7c15));
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let jittered = capped / 2 + x % (capped / 2 + 1);
        Duration::from_millis(jittered)
    }

    /// The deadline to declare in an `evaluate` request (milliseconds;
    /// 0 = none declared).
    pub(crate) fn deadline_ms(&self) -> u64 {
        self.rpc_timeout.as_millis() as u64
    }

    fn socket_timeout(&self) -> Option<Duration> {
        if self.rpc_timeout.is_zero() {
            None
        } else {
            Some(self.rpc_timeout)
        }
    }
}

/// One session with a tuner daemon. All methods are `&self` (the
/// stream sits behind a mutex), and each issues one request/response
/// exchange — transparently reconnecting and retrying transient
/// failures per the session's [`RetryPolicy`].
pub struct Client {
    /// `None` = poisoned (or never dialed): the next exchange
    /// re-connects. Poisoning after any failed exchange keeps
    /// request/response pairing sound even before the correlation-id
    /// check gets a say.
    stream: Mutex<Option<TcpStream>>,
    addr: String,
    policy: RetryPolicy,
    retries: AtomicU64,
    /// Monotonic correlation ids for this session's frames (id 0 is
    /// reserved for connection-level server notices).
    corr: AtomicU64,
}

impl Client {
    /// Connects to a daemon at `addr` (e.g. `127.0.0.1:7733`) with the
    /// default [`RetryPolicy`]. Fails fast if the daemon is not there —
    /// retry loops around the *initial* dial belong to
    /// [`Client::connect_retry`].
    pub fn connect(addr: &str) -> Result<Client, ServiceError> {
        Client::connect_with(addr, RetryPolicy::default())
    }

    /// [`Client::connect`] under an explicit policy.
    pub fn connect_with(addr: &str, policy: RetryPolicy) -> Result<Client, ServiceError> {
        let client = Client::undialed(addr, policy);
        *client.stream.lock().expect("client stream lock") = Some(dial(addr, &policy)?);
        Ok(client)
    }

    /// A session that dials on its first exchange — a fleet shard that
    /// is never handed a chunk costs its daemon no connection.
    pub(crate) fn undialed(addr: &str, policy: RetryPolicy) -> Client {
        Client {
            stream: Mutex::new(None),
            addr: addr.to_string(),
            policy,
            retries: AtomicU64::new(0),
            corr: AtomicU64::new(0),
        }
    }

    /// [`Client::connect`] retried until `timeout` elapses — the
    /// "daemon was just spawned" path (CI smoke jobs, tests, scripts).
    /// Sleeps the policy's backoff schedule between dials and returns
    /// the **last error observed within the window** — the standing
    /// cause when time ran out, not whatever a straggling post-deadline
    /// dial happened to produce.
    pub fn connect_retry(addr: &str, timeout: Duration) -> Result<Client, ServiceError> {
        Client::connect_retry_with(addr, timeout, RetryPolicy::default())
    }

    /// [`Client::connect_retry`] under an explicit policy.
    fn connect_retry_with(
        addr: &str,
        timeout: Duration,
        policy: RetryPolicy,
    ) -> Result<Client, ServiceError> {
        let start = Instant::now();
        let mut attempt: u32 = 0;
        let mut last_err: Option<ServiceError> = None;
        loop {
            let within_window = start.elapsed() < timeout;
            match Client::connect_with(addr, policy) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    // Record the error only if its dial *started* inside
                    // the window; an attempt straddling the deadline
                    // must not replace the standing cause with a
                    // possibly different late failure.
                    if within_window || last_err.is_none() {
                        last_err = Some(e);
                    }
                }
            }
            if start.elapsed() >= timeout {
                let cause = last_err.expect("at least one dial attempted");
                // Keep the Io class so retry classification still sees a
                // transient connection failure, but tell the operator how
                // hard we tried: fleet debugging needs "4 attempts over
                // 10.0s", not just the final cause.
                return Err(ServiceError::Io(std::io::Error::other(format!(
                    "no daemon reachable at `{addr}` after {} attempt(s) over {:.1}s: {cause}",
                    attempt + 1,
                    start.elapsed().as_secs_f64()
                ))));
            }
            attempt += 1;
            let nap = policy.backoff(attempt).min(timeout.saturating_sub(start.elapsed()));
            std::thread::sleep(nap);
        }
    }

    /// The address this client dialed.
    pub(crate) fn addr(&self) -> &str {
        &self.addr
    }

    /// The session's deadline/retry policy.
    pub(crate) fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Exchanges retried so far over this session's lifetime (transient
    /// failures that healed; an exhausted policy surfaces as the final
    /// error instead).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// One request/response exchange on the (re)connected stream.
    /// Any failure — or a `Busy` answer — poisons the stream: the
    /// daemon's conn-level shed closes the socket, and after a desynced
    /// exchange a stale in-flight response could otherwise be
    /// mislabeled as the answer to the next request.
    fn exchange(&self, req: &Request) -> Result<Response, ServiceError> {
        let mut slot = self.stream.lock().expect("client stream lock");
        if slot.is_none() {
            *slot = Some(dial(&self.addr, &self.policy)?);
        }
        let stream = slot.as_mut().expect("stream just ensured");
        let corr = self.corr.fetch_add(1, Ordering::Relaxed) + 1;
        let result = (|| -> Result<Response, ServiceError> {
            write_frame_tagged(stream, corr, &protocol::emit_request(req))
                .map_err(|e| classify_frame_error(classify_frame_io(e)))?;
            let (resp_corr, payload) = read_frame_tagged(stream).map_err(classify_frame_error)?;
            // Id 0 is a connection-level notice (an admission shed or a
            // framing error answered before any request was decoded);
            // anything else must echo this request's id exactly.
            if resp_corr != 0 && resp_corr != corr {
                return Err(ServiceError::Protocol(format!(
                    "response correlation id {resp_corr} does not match request {corr}"
                )));
            }
            protocol::parse_response(&payload).map_err(|e| ServiceError::Protocol(e.to_string()))
        })();
        match &result {
            Ok(Response::Busy { .. }) | Err(_) => *slot = None,
            Ok(_) => {}
        }
        match result {
            // A wire-level error frame is a *completed* exchange: the
            // stream stays in sync and the connection is kept.
            Ok(Response::Error { message }) => Err(ServiceError::Remote(message)),
            other => other,
        }
    }

    /// Issues `req`, retrying transient failures (reconnect + backoff)
    /// per the policy. `retryable` is false for the one verb with a
    /// side effect (`shutdown`).
    fn call_with_retry(
        &self,
        req: &Request,
        retryable: bool,
    ) -> Result<Response, ServiceError> {
        let mut attempt: u32 = 0;
        loop {
            let failure = match self.exchange(req) {
                Ok(Response::Busy { retry_after_ms }) => ServiceError::Busy(retry_after_ms),
                Ok(resp) => return Ok(resp),
                Err(e) => e,
            };
            if !retryable {
                return Err(failure);
            }
            attempt = retry_or_bail(&self.policy, attempt, failure)?;
            self.retries.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn call(&self, req: &Request) -> Result<Response, ServiceError> {
        // shutdown is the one verb with a side effect; everything else
        // is a deterministic read (see the module-level idempotency
        // argument) and safe to replay.
        let retryable = !matches!(req, Request::Shutdown);
        self.call_with_retry(req, retryable)
    }

    /// Liveness probe.
    pub fn ping(&self) -> Result<(), ServiceError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ServiceError::Protocol(format!("expected pong, got {other:?}"))),
        }
    }

    /// Server + store telemetry.
    pub fn stats(&self) -> Result<ServiceStats, ServiceError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(ServiceError::Protocol(format!("expected stats, got {other:?}"))),
        }
    }

    /// Asks the daemon to drain and exit. Returns once the shutdown is
    /// acknowledged (the daemon may still be draining in-flight work).
    /// Never auto-retried: a lost ack does not prove the daemon missed
    /// the request, and replaying could stop a freshly restarted one.
    pub fn shutdown(&self) -> Result<(), ServiceError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(ServiceError::Protocol(format!("expected shutdown ack, got {other:?}"))),
        }
    }

    /// Evaluates a batch of points under `scope`. Returns the
    /// count of points this request computed fresh and one
    /// measurement per point, in request order, bit-identical to local
    /// evaluation. Declares the session deadline so the daemon can shed
    /// work it cannot start in time.
    pub fn evaluate(
        &self,
        scope: &EvalScope,
        points: &[TuningParams],
    ) -> Result<(u64, Vec<Measurement>), ServiceError> {
        let req = Request::Evaluate {
            scope: scope.clone(),
            points: points.to_vec(),
            deadline_ms: self.policy.deadline_ms(),
        };
        evaluate_answer(self.call(&req)?, points)
    }

    /// Compiles and simulates one variant remotely; returns the
    /// selected trial time and the full report.
    #[allow(clippy::too_many_arguments)]
    pub fn simulate(
        &self,
        kernel: &str,
        gpu: &GpuSpec,
        n: u64,
        params: TuningParams,
        model: ModelId,
        trials: u32,
        seed: u64,
    ) -> Result<(f64, SimReport), ServiceError> {
        let req = Request::Simulate {
            kernel: kernel.to_string(),
            gpu: gpu.clone(),
            n,
            params,
            model,
            trials,
            seed,
        };
        match self.call(&req)? {
            Response::Simulate { selected, report } => Ok((selected, report)),
            other => Err(ServiceError::Protocol(format!("expected report, got {other:?}"))),
        }
    }
}

/// Dials `addr` and arms the per-exchange socket deadlines.
pub(crate) fn dial(addr: &str, policy: &RetryPolicy) -> Result<TcpStream, ServiceError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(policy.socket_timeout()).ok();
    stream.set_write_timeout(policy.socket_timeout()).ok();
    Ok(stream)
}

/// Maps frame-layer failures into [`ServiceError`], folding transport
/// I/O back into the Io class so retry classification sees one kind of
/// connection failure — and frame-level version skew into the
/// deterministic Protocol class: a redial meets the same old peer.
fn classify_frame_error(e: FrameError) -> ServiceError {
    match e {
        FrameError::Io(io) => ServiceError::Io(io),
        FrameError::VersionSkew => ServiceError::Protocol(e.to_string()),
        other => ServiceError::Frame(other),
    }
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client")
            .field("addr", &self.addr)
            .field("policy", &self.policy)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Pipelined connection
// ---------------------------------------------------------------------------

/// A pipeline failure, recorded once and answered to every outstanding
/// and future caller: transient failures (transport loss, stalls,
/// connection-level Busy) invite the caller to rebuild the pipeline
/// and retry; deterministic ones do not.
struct PipeFailure {
    transient: bool,
    message: String,
}

impl PipeFailure {
    fn to_error(&self) -> ServiceError {
        if self.transient {
            ServiceError::Io(std::io::Error::other(self.message.clone()))
        } else {
            ServiceError::Protocol(self.message.clone())
        }
    }
}

struct PipeShared {
    /// Responses matched by correlation id; a present value means the
    /// response arrived before its waiter.
    pending: HashMap<u64, Option<Response>>,
    /// Requests still awaiting their response frame (pending entries
    /// whose slot is `None`). This — not `pending.len()` — is what the
    /// depth cap bounds: an answered-but-unclaimed ticket costs no
    /// daemon-side work, so it must not block further sends.
    in_flight: usize,
    failure: Option<PipeFailure>,
    /// Whether some thread is reading the socket right now; the others
    /// park on `changed` until it has filed a frame.
    reading: bool,
}

/// A handle on one in-flight pipelined request; redeem it with
/// [`Pipeline::wait`]. Dropping a ticket without waiting leaks its
/// depth slot for the life of the pipeline — always wait.
#[must_use = "a ticket holds a pipeline depth slot until waited"]
pub struct Ticket {
    corr: u64,
}

/// One connection with up to `depth` request frames in flight,
/// responses matched by correlation id — out-of-order arrival is
/// expected and fine (protocol v3).
///
/// There is no reader thread: **the thread that waits reads**. A caller
/// of [`Pipeline::wait`] — or of [`Pipeline::send`] at the depth cap —
/// reads frames off the socket, filing each under its id, until its own
/// turns up; of threads sharing a pipeline one reads at a time and the
/// rest park until it has filed something. Nothing reads while nobody
/// waits, and a daemon stops reading a connection that has left it a
/// few MiB of answers unread (the engine's default window is 130 KiB).
///
/// A `Pipeline` is **not** self-healing: any transport failure, a read
/// that outlasts the rpc deadline, or a response for an unknown id
/// poisons the whole pipeline and fails every outstanding ticket.
/// Callers that want retry semantics rebuild the pipeline and resend
/// (evaluation is deterministic and the store dedups, so replays are
/// safe) — that is exactly what
/// [`RemoteEvaluator`](crate::RemoteEvaluator) does.
pub struct Pipeline {
    writer: Mutex<TcpStream>,
    /// The same socket: read by whoever holds `PipeShared::reading`,
    /// shut down by [`Pipeline::poison`] under whoever is blocked on it.
    stream: TcpStream,
    shared: Mutex<PipeShared>,
    changed: Condvar,
    depth: usize,
    rpc_timeout: Duration,
    next_corr: AtomicU64,
}

impl Pipeline {
    /// Dials `addr`. `depth` bounds the frames in flight
    /// ([`Pipeline::send`] reads at the cap); `policy` supplies only the
    /// rpc deadline, armed on the socket — retries are the caller's
    /// business.
    pub fn connect(addr: &str, depth: usize, policy: &RetryPolicy) -> Result<Pipeline, ServiceError> {
        let stream = dial(addr, policy)?;
        Ok(Pipeline {
            writer: Mutex::new(stream.try_clone()?),
            stream,
            shared: Mutex::new(PipeShared {
                pending: HashMap::new(),
                in_flight: 0,
                failure: None,
                reading: false,
            }),
            changed: Condvar::new(),
            depth: depth.max(1),
            rpc_timeout: policy.rpc_timeout,
            next_corr: AtomicU64::new(0),
        })
    }

    /// Whether the pipeline has failed (every outstanding and future
    /// call answers the recorded failure).
    pub fn is_poisoned(&self) -> bool {
        self.shared.lock().expect("pipeline lock").failure.is_some()
    }

    /// Records the first failure, breaks the socket under whoever is
    /// blocked on it and wakes every parked thread.
    fn poison(&self, shared: &mut PipeShared, failure: PipeFailure) {
        shared.failure.get_or_insert(failure);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        self.changed.notify_all();
    }

    /// Reads one response frame. A frame tagged 0 is a connection-level
    /// notice addressed to no request — an admission shed (Busy) or a
    /// pre-decode error — and ends the pipeline like any read failure.
    fn read_response(&self) -> Result<(u64, Response), PipeFailure> {
        let fail = |transient, message| PipeFailure { transient, message };
        let (corr, payload) = read_frame_tagged(&mut &self.stream).map_err(|e| match e {
            FrameError::Eof => fail(true, "daemon closed the pipelined connection".to_string()),
            FrameError::TimedOut => fail(
                true,
                format!("no response frame for {:?} with requests in flight", self.rpc_timeout),
            ),
            e => fail(!matches!(e, FrameError::VersionSkew), format!("pipelined read failed: {e}")),
        })?;
        let resp = protocol::parse_response(&payload)
            .map_err(|e| fail(false, format!("unparseable response: {e}")))?;
        match (corr, resp) {
            (0, Response::Busy { retry_after_ms }) => {
                Err(fail(true, format!("daemon shed the connection (retry in {retry_after_ms}ms)")))
            }
            (0, Response::Error { message }) => Err(fail(false, message)),
            (0, other) => {
                Err(fail(false, format!("connection-level frame carried unexpected {other:?}")))
            }
            (corr, resp) => Ok((corr, resp)),
        }
    }

    /// One step for a thread that needs a response to arrive: reads one
    /// frame, files it under its correlation id and wakes the others —
    /// or, while another thread is reading, parks until that one has. A
    /// response that matches no outstanding id poisons the pipeline: **no
    /// response is ever delivered to the wrong correlation id.**
    fn advance<'a>(&'a self, mut shared: MutexGuard<'a, PipeShared>) -> MutexGuard<'a, PipeShared> {
        if shared.reading {
            return self.changed.wait(shared).expect("pipeline wait");
        }
        shared.reading = true;
        drop(shared);
        let frame = self.read_response();
        let mut shared = self.shared.lock().expect("pipeline lock");
        shared.reading = false;
        let filed = frame.and_then(|(corr, resp)| match shared.pending.get_mut(&corr) {
            Some(slot @ None) => {
                *slot = Some(resp);
                shared.in_flight -= 1;
                Ok(())
            }
            _ => Err(PipeFailure {
                transient: false,
                message: format!("response for unknown correlation id {corr}"),
            }),
        });
        match filed {
            Ok(()) => self.changed.notify_all(),
            Err(failure) => self.poison(&mut shared, failure),
        }
        shared
    }

    /// Sends one request frame; at the depth cap it first reads
    /// responses until one is answered. Returns the ticket to redeem for
    /// this request's response.
    pub fn send(&self, req: &Request) -> Result<Ticket, ServiceError> {
        let corr = {
            let mut shared = self.shared.lock().expect("pipeline lock");
            while shared.failure.is_none() && shared.in_flight >= self.depth {
                shared = self.advance(shared);
            }
            if let Some(f) = &shared.failure {
                return Err(f.to_error());
            }
            let corr = self.next_corr.fetch_add(1, Ordering::Relaxed) + 1;
            shared.pending.insert(corr, None);
            shared.in_flight += 1;
            corr
        };
        let wrote = {
            let mut writer = self.writer.lock().expect("pipeline writer lock");
            write_frame_tagged(&mut *writer, corr, &protocol::emit_request(req))
        };
        if let Err(e) = wrote {
            let mut shared = self.shared.lock().expect("pipeline lock");
            if matches!(shared.pending.remove(&corr), Some(None)) {
                shared.in_flight -= 1;
            }
            let message = format!("pipeline send failed: {e}");
            self.poison(&mut shared, PipeFailure { transient: true, message });
            return Err(ServiceError::Io(e));
        }
        Ok(Ticket { corr })
    }

    /// Blocks until `ticket`'s response arrives, reading the socket
    /// itself unless another thread already is (or until the pipeline
    /// fails: a read gets the rpc deadline and no longer).
    pub fn wait(&self, ticket: Ticket) -> Result<Response, ServiceError> {
        let mut shared = self.shared.lock().expect("pipeline lock");
        loop {
            if matches!(shared.pending.get(&ticket.corr), Some(Some(_))) {
                return Ok(shared.pending.remove(&ticket.corr).flatten().expect("checked present"));
            }
            if let Some(f) = &shared.failure {
                let err = f.to_error();
                if matches!(shared.pending.remove(&ticket.corr), Some(None)) {
                    shared.in_flight -= 1;
                }
                return Err(err);
            }
            shared = self.advance(shared);
        }
    }

    /// [`Pipeline::send`] + [`Pipeline::wait`] as one call — the
    /// single-shot convenience for tests and probes.
    pub fn call(&self, req: &Request) -> Result<Response, ServiceError> {
        self.wait(self.send(req)?)
    }
}

impl fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shared = self.shared.lock().expect("pipeline lock");
        f.debug_struct("Pipeline")
            .field("depth", &self.depth)
            .field("in_flight", &shared.in_flight)
            .field("poisoned", &shared.failure.is_some())
            .finish()
    }
}

/// The one retry-policy step, shared by [`Client`] and the evaluation
/// engine's workers: a transient failure sleeps the backoff (honoring
/// the daemon's Busy hint when that is the longer wait — it knows its
/// queue better) and returns the bumped attempt count; a deterministic
/// failure — or an exhausted policy — bails with the error.
pub(crate) fn retry_or_bail(
    policy: &RetryPolicy,
    attempt: u32,
    e: ServiceError,
) -> Result<u32, ServiceError> {
    if !e.is_transient() || attempt >= policy.max_retries {
        return Err(e);
    }
    let attempt = attempt + 1;
    let mut nap = policy.backoff(attempt);
    if let ServiceError::Busy(hint_ms) = e {
        nap = nap.max(Duration::from_millis(hint_ms));
    }
    std::thread::sleep(nap);
    Ok(attempt)
}

/// What an `evaluate` request was answered — on either connection
/// type — as the daemon's fresh-computation count and its measurements,
/// positionally verified: the one place an answer is unpacked.
pub(crate) fn evaluate_answer(
    resp: Response,
    points: &[TuningParams],
) -> Result<(u64, Vec<Measurement>), ServiceError> {
    match resp {
        Response::Evaluate { computed, measurements } => {
            verify_measurements(points, &measurements)?;
            Ok((computed, measurements))
        }
        Response::Busy { retry_after_ms } => Err(ServiceError::Busy(retry_after_ms)),
        Response::Error { message } => Err(ServiceError::Remote(message)),
        other => Err(ServiceError::Protocol(format!("expected measurements, got {other:?}"))),
    }
}

/// The positional response contract, verified rather than trusted: one
/// measurement per requested point, in request order, so a confused
/// daemon surfaces as a protocol error instead of mislabeled
/// measurements.
fn verify_measurements(
    points: &[TuningParams],
    measurements: &[Measurement],
) -> Result<(), ServiceError> {
    if measurements.len() != points.len() {
        return Err(ServiceError::Protocol(format!(
            "evaluate returned {} measurements for {} points",
            measurements.len(),
            points.len()
        )));
    }
    for (p, m) in points.iter().zip(measurements) {
        if m.params != *p {
            return Err(ServiceError::Protocol(format!(
                "evaluate returned measurement for {} where {} was requested",
                m.params, p
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_capped_and_jittered_into_the_upper_half() {
        let p = RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_millis(400),
            rpc_timeout: Duration::from_secs(1),
            jitter_seed: 7,
        };
        let mut prev_cap = 0u128;
        for attempt in 1..=8u32 {
            let cap = (25u128 << (attempt - 1)).min(400);
            let b = p.backoff(attempt).as_millis();
            assert!(b >= cap / 2, "attempt {attempt}: {b}ms below half-cap {cap}");
            assert!(b <= cap, "attempt {attempt}: {b}ms above cap {cap}");
            assert!(cap >= prev_cap, "caps must be monotone");
            prev_cap = cap;
        }
        // Deterministic: same policy, same attempt, same nap.
        assert_eq!(p.backoff(3), p.backoff(3));
    }

    #[test]
    fn zero_base_backoff_means_no_sleeping() {
        let p = RetryPolicy { base_backoff: Duration::ZERO, ..RetryPolicy::default() };
        assert_eq!(p.backoff(1), Duration::ZERO);
        assert_eq!(p.backoff(7), Duration::ZERO);
    }

    #[test]
    fn connect_retry_error_reports_attempts_and_elapsed() {
        // Port 1 on loopback refuses immediately on any sane box.
        let err = Client::connect_retry_with(
            "127.0.0.1:1",
            Duration::from_millis(80),
            RetryPolicy {
                base_backoff: Duration::from_millis(10),
                max_backoff: Duration::from_millis(20),
                ..RetryPolicy::default()
            },
        )
        .expect_err("nothing listens on port 1");
        assert!(err.is_transient(), "dial failure must stay transient: {err}");
        let text = err.to_string();
        assert!(
            text.contains("attempt(s) over") && text.contains("127.0.0.1:1"),
            "error must name the address, attempt count, and elapsed: {text}"
        );
    }

    #[test]
    fn transient_classification_splits_retryable_from_deterministic_failures() {
        assert!(ServiceError::Io(std::io::Error::other("x")).is_transient());
        assert!(ServiceError::Frame(FrameError::TimedOut).is_transient());
        assert!(ServiceError::Busy(25).is_transient());
        assert!(!ServiceError::Remote("unknown kernel".into()).is_transient());
        assert!(!ServiceError::Protocol("short response".into()).is_transient());
    }
}
