//! Client library: one connection type and the session that retries
//! over it. A [`Pipeline`] is a connection to a daemon with request
//! frames in flight, responses matched by correlation id and read off
//! the socket by whichever thread is waiting for one; it owns no thread,
//! and it is the only code that writes a request frame or reads a
//! response frame. It reads them the way the daemon's reactor reads
//! requests: received bytes are buffered, and `persist::decode_frame`
//! takes the frame in front. A [`Client`] is a pipeline plus the retry
//! loop — one request at a time under its [`RetryPolicy`] for `ping`,
//! `stats`, `shutdown` and a one-off `evaluate`. The
//! evaluation engine ([`RemoteEvaluator`](crate::RemoteEvaluator)) holds one
//! `Client` per daemon and keeps its chunks in flight on that client's
//! pipeline, so a daemon sees one connection per client process. Both
//! take the one retry step (`Client::retry_or_bail`) and the one
//! positional check of an `evaluate` answer (`verify_measurements`).
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
//! verbs — `ping`, `stats` and `evaluate` — are all *deterministic
//! reads* of state the daemon either already holds or
//! computes reproducibly. Evaluation is deterministic and the shared
//! [`ArtifactStore`](oriole_tuner::ArtifactStore) deduplicates points,
//! so replaying an `evaluate` whose response was lost re-serves the
//! memoized measurements, bit-identical, without recomputing or
//! double-counting anything. The one verb with a side effect —
//! `shutdown` — is **never** auto-retried.
//!
//! After any failed or half-completed exchange the connection is
//! **poisoned** (dropped and re-dialed before the next use). Frames
//! carry correlation ids (protocol v3), and the [`Pipeline`] verifies
//! every response's id against an outstanding request — a response that
//! matches nothing is a loud [`ServiceError::Protocol`] failure, never a
//! mislabeled answer.

use crate::protocol::{self, EvalScope, Request, Response, ServiceStats, MAX_IN_FLIGHT};
use oriole_codegen::TuningParams;
use oriole_tuner::persist::{decode_frame, write_frame_tagged, FrameError};
use oriole_tuner::Measurement;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasher as _;
use std::io::Read as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Why an RPC failed.
#[derive(Debug)]
pub enum ServiceError {
    /// Connection-level failure (connect, send, receive, a damaged
    /// response frame, an expired deadline).
    Io(std::io::Error),
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

impl ServiceError {
    /// Whether retrying can possibly change the answer. Transport
    /// failures and backpressure are transient; a daemon-side error or
    /// a malformed exchange is deterministic and retrying would only
    /// repeat it. Fleet schedulers use the same split to decide between
    /// rebalancing a shard's queue (transient: the shard is slow or
    /// lost) and aborting the whole run (deterministic: every shard
    /// would answer the same error).
    pub fn is_transient(&self) -> bool {
        matches!(self, ServiceError::Io(_) | ServiceError::Busy(_))
    }
}

/// Deadline and retry configuration for one [`Client`].
///
/// Backoff is exponential from [`RetryPolicy::base_backoff`], capped at
/// [`RetryPolicy::max_backoff`], with deterministic jitter (seeded by
/// [`RetryPolicy::jitter_seed`]) in the upper half of each step so a
/// fleet of shed clients does not re-stampede the daemon in lockstep:
/// no two [`RetryPolicy::default`]s share a seed.
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
    /// backoffs decorrelate — the default does; keep fixed in tests for
    /// stability).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 4,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            rpc_timeout: Duration::from_secs(10),
            // The process id under `RandomState`'s keys, which std draws
            // once per thread and steps on every call: neither two
            // clients of one process nor two processes share a seed.
            jitter_seed: RandomState::new().hash_one(std::process::id()),
        }
    }
}

impl RetryPolicy {
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
}

/// One session with a tuner daemon: a [`Pipeline`] plus the retry loop.
/// All methods are `&self`, and each sends one request and waits for
/// its answer — transparently re-dialing and retrying transient
/// failures per the session's [`RetryPolicy`].
#[derive(Debug)]
pub struct Client {
    /// `None` = never dialed, or dropped after a failure or a `Busy`
    /// answer: the next call re-dials.
    pipe: Mutex<Option<Arc<Pipeline>>>,
    addr: String,
    policy: RetryPolicy,
    retries: AtomicU64,
}

impl Client {
    /// Connects to a daemon at `addr` (e.g. `127.0.0.1:7733`) with the
    /// default [`RetryPolicy`]. Fails fast if the daemon is not there;
    /// once connected, every call re-dials and retries under the policy.
    pub fn connect(addr: &str) -> Result<Client, ServiceError> {
        Client::connect_with(addr, RetryPolicy::default())
    }

    /// [`Client::connect`] under an explicit policy.
    pub fn connect_with(addr: &str, policy: RetryPolicy) -> Result<Client, ServiceError> {
        let client = Client::undialed(addr, policy);
        client.pipeline()?;
        Ok(client)
    }

    /// A session that dials on its first call — a fleet shard that is
    /// never handed a chunk costs its daemon no connection.
    pub(crate) fn undialed(addr: &str, policy: RetryPolicy) -> Client {
        Client { pipe: Mutex::new(None), addr: addr.to_string(), policy, retries: AtomicU64::new(0) }
    }

    /// The address this client dialed.
    pub(crate) fn addr(&self) -> &str {
        &self.addr
    }

    /// The session's deadline/retry policy.
    pub(crate) fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Retries taken so far over this session's lifetime — by its own
    /// calls and by the evaluation engine's worker on its daemon
    /// (transient failures that healed; an exhausted policy surfaces as
    /// the final error instead).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// The session's connection, dialed if it has none or the last one
    /// failed. The evaluation engine keeps its chunks in flight on it.
    pub(crate) fn pipeline(&self) -> Result<Arc<Pipeline>, ServiceError> {
        let mut slot = self.pipe.lock().expect("client pipeline lock");
        if let Some(pipe) = slot.as_ref().filter(|p| !p.is_poisoned()) {
            return Ok(Arc::clone(pipe));
        }
        let pipe = Arc::new(Pipeline::connect(&self.addr, &self.policy)?);
        *slot = Some(Arc::clone(&pipe));
        Ok(pipe)
    }

    /// Drops `pipe` if it is still the session's connection, so the
    /// next call re-dials: after a failure, a `Busy` answer (the daemon
    /// may be closing the socket), or with tickets nobody will redeem.
    pub(crate) fn discard(&self, pipe: &Arc<Pipeline>) {
        let mut slot = self.pipe.lock().expect("client pipeline lock");
        if slot.as_ref().is_some_and(|p| Arc::ptr_eq(p, pipe)) {
            *slot = None;
        }
    }

    /// The one retry-policy step, taken by this session's calls and by
    /// the evaluation engine's worker on its daemon: a transient failure
    /// sleeps the backoff (honoring the daemon's Busy hint when that is
    /// the longer wait — it knows its queue better), counts a retry and
    /// returns the bumped attempt count; a deterministic failure — or an
    /// exhausted policy — bails with the error.
    pub(crate) fn retry_or_bail(&self, attempt: u32, e: ServiceError) -> Result<u32, ServiceError> {
        if !e.is_transient() || attempt >= self.policy.max_retries {
            return Err(e);
        }
        let mut nap = self.policy.backoff(attempt + 1);
        if let ServiceError::Busy(hint_ms) = e {
            nap = nap.max(Duration::from_millis(hint_ms));
        }
        std::thread::sleep(nap);
        self.retries.fetch_add(1, Ordering::Relaxed);
        Ok(attempt + 1)
    }

    /// Sends `req` and waits for its answer, retrying transient failures
    /// (re-dial + backoff) per the policy — except for `shutdown`, the
    /// one verb with a side effect; everything else is a deterministic
    /// read (see the module-level idempotency argument).
    fn call(&self, req: &Request) -> Result<Response, ServiceError> {
        let mut attempt = 0;
        loop {
            let answer = self.pipeline().and_then(|pipe| {
                let answer = pipe.call(req);
                if matches!(answer, Ok(Response::Busy { .. }) | Err(_)) {
                    self.discard(&pipe);
                }
                answer
            });
            let failure = match answer {
                // A wire-level error frame is a *completed* exchange:
                // the connection is kept.
                Ok(Response::Error { message }) => ServiceError::Remote(message),
                Ok(Response::Busy { retry_after_ms }) => ServiceError::Busy(retry_after_ms),
                Ok(resp) => return Ok(resp),
                Err(e) => e,
            };
            if matches!(req, Request::Shutdown) {
                return Err(failure);
            }
            attempt = self.retry_or_bail(attempt, failure)?;
        }
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
}

// ---------------------------------------------------------------------------
// Pipelined connection
// ---------------------------------------------------------------------------

/// A pipeline failure, recorded once and answered to every outstanding
/// and future caller.
enum PipeFailure {
    /// Transport loss, a stall, a damaged frame: a new connection may
    /// heal it.
    Transient(String),
    /// The daemon shed the connection (a correlation-id-0 `Busy`); its
    /// retry hint in milliseconds.
    Busy(u64),
    /// Deterministic: version skew, or an answer that parses as nothing
    /// or belongs to no request.
    Fatal(String),
}

impl PipeFailure {
    fn to_error(&self) -> ServiceError {
        match self {
            PipeFailure::Transient(m) => ServiceError::Io(std::io::Error::other(m.clone())),
            PipeFailure::Busy(ms) => ServiceError::Busy(*ms),
            PipeFailure::Fatal(m) => ServiceError::Protocol(m.clone()),
        }
    }
}

struct PipeShared {
    /// Responses matched by correlation id; a present value means the
    /// response arrived before its waiter.
    pending: HashMap<u64, Option<Response>>,
    /// Requests still awaiting their response frame (pending entries
    /// whose slot is `None`). This — not `pending.len()` — is what
    /// [`MAX_IN_FLIGHT`] bounds: an answered-but-unclaimed ticket costs no
    /// daemon-side work, so it must not block further sends.
    in_flight: usize,
    failure: Option<PipeFailure>,
    /// Whether some thread is reading the socket right now; the others
    /// park on `changed` until it has filed a frame.
    reading: bool,
    /// Bytes received but not yet decoded, lent to the reading thread.
    unread: Vec<u8>,
}

/// A handle on one in-flight pipelined request; redeem it with
/// [`Pipeline::wait`]. Dropping a ticket without waiting leaks its
/// in-flight slot for the life of the pipeline — always wait.
#[must_use = "a ticket holds a pipeline's in-flight slot until waited"]
pub struct Ticket {
    corr: u64,
}

/// One connection with up to [`MAX_IN_FLIGHT`] request frames in
/// flight, responses matched by correlation id — out-of-order arrival is
/// expected and fine (protocol v3).
///
/// There is no reader thread: **the thread that waits reads**. A caller
/// of [`Pipeline::wait`] — or of [`Pipeline::send`] at the cap —
/// reads frames off the socket, filing each under its id, until its own
/// turns up; of threads sharing a pipeline one reads at a time and the
/// rest park until it has filed something. Nothing reads while nobody
/// waits, and a daemon stops reading a connection that has left it a
/// few MiB of answers unread (the engine's default window is 130 KiB).
///
/// A `Pipeline` is **not** self-healing: any transport failure, a read
/// that outlasts the rpc deadline, a connection-level `Busy` or a
/// response for an unknown id poisons the whole pipeline and fails every outstanding ticket.
/// Callers that want retry semantics rebuild the pipeline and resend
/// (evaluation is deterministic and the store dedups, so replays are
/// safe) — that is exactly what a [`Client`] does, for its own calls and
/// for the evaluation engine's worker on its daemon.
pub struct Pipeline {
    writer: Mutex<TcpStream>,
    /// The same socket: read by whoever holds `PipeShared::reading`,
    /// shut down by [`Pipeline::poison`] under whoever is blocked on it.
    stream: TcpStream,
    shared: Mutex<PipeShared>,
    changed: Condvar,
    rpc_timeout: Duration,
    next_corr: AtomicU64,
}

impl Pipeline {
    /// Dials `addr`. `policy` supplies only the rpc deadline, armed on
    /// the socket — retries are the caller's business.
    pub fn connect(addr: &str, policy: &RetryPolicy) -> Result<Pipeline, ServiceError> {
        let stream = TcpStream::connect(addr)?;
        let deadline = Some(policy.rpc_timeout).filter(|d| !d.is_zero());
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(deadline).ok();
        stream.set_write_timeout(deadline).ok();
        Ok(Pipeline {
            writer: Mutex::new(stream.try_clone()?),
            stream,
            shared: Mutex::new(PipeShared {
                pending: HashMap::new(),
                in_flight: 0,
                failure: None,
                reading: false,
                unread: Vec::new(),
            }),
            changed: Condvar::new(),
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

    /// Reads one response frame the way the reactor reads a request:
    /// `decode_frame` over `unread`, and socket reads appended to it
    /// until a whole frame is there; what arrived past it stays for the
    /// next call. A frame tagged 0 is a connection-level notice
    /// addressed to no request — an admission shed (Busy, its retry
    /// hint kept) or a pre-decode error — and ends the pipeline like any
    /// read failure.
    fn read_response(&self, unread: &mut Vec<u8>) -> Result<(u64, Response), PipeFailure> {
        use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
        let mut chunk = [0u8; 16 * 1024];
        let (corr, payload) = loop {
            let failure = match decode_frame(unread) {
                Ok(Some((corr, payload, used))) => {
                    unread.drain(..used);
                    break (corr, payload);
                }
                Err(e @ FrameError::VersionSkew) => {
                    return Err(PipeFailure::Fatal(format!("read failed: {e}")))
                }
                Err(e) => format!("read failed: {e}"),
                Ok(None) => match (&self.stream).read(&mut chunk) {
                    Ok(0) => "daemon closed the connection".to_string(),
                    Ok(n) => {
                        unread.extend_from_slice(&chunk[..n]);
                        continue;
                    }
                    Err(e) if e.kind() == Interrupted => continue,
                    // An expired socket deadline (`WouldBlock` on Unix).
                    Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => format!(
                        "no response frame for {:?} with requests in flight",
                        self.rpc_timeout
                    ),
                    Err(e) => format!("read failed: {e}"),
                },
            };
            return Err(PipeFailure::Transient(failure));
        };
        let resp = protocol::parse_response(&payload)
            .map_err(|e| PipeFailure::Fatal(format!("unparseable response: {e}")))?;
        match (corr, resp) {
            (0, Response::Busy { retry_after_ms }) => Err(PipeFailure::Busy(retry_after_ms)),
            (0, Response::Error { message }) => Err(PipeFailure::Fatal(message)),
            (0, other) => Err(PipeFailure::Fatal(format!(
                "connection-level frame carried unexpected {other:?}"
            ))),
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
        let mut unread = std::mem::take(&mut shared.unread);
        drop(shared);
        let frame = self.read_response(&mut unread);
        let mut shared = self.shared.lock().expect("pipeline lock");
        shared.reading = false;
        shared.unread = unread;
        let filed = frame.and_then(|(corr, resp)| match shared.pending.get_mut(&corr) {
            Some(slot @ None) => {
                *slot = Some(resp);
                shared.in_flight -= 1;
                Ok(())
            }
            _ => Err(PipeFailure::Fatal(format!("response for unknown correlation id {corr}"))),
        });
        match filed {
            Ok(()) => self.changed.notify_all(),
            Err(failure) => self.poison(&mut shared, failure),
        }
        shared
    }

    /// Sends one request frame; at the in-flight cap it first reads
    /// responses until one is answered. Returns the ticket to redeem for
    /// this request's response.
    pub fn send(&self, req: &Request) -> Result<Ticket, ServiceError> {
        let corr = {
            let mut shared = self.shared.lock().expect("pipeline lock");
            while shared.failure.is_none() && shared.in_flight >= MAX_IN_FLIGHT {
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
            self.poison(&mut shared, PipeFailure::Transient(format!("send failed: {e}")));
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
            .field("in_flight", &shared.in_flight)
            .field("poisoned", &shared.failure.is_some())
            .finish()
    }
}

/// What an `evaluate` request was answered — a [`Client`]'s or an
/// engine worker's — as the daemon's fresh-computation count and its
/// measurements, positionally verified: the one place an answer is
/// unpacked.
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
    fn two_default_policies_back_off_on_different_schedules() {
        // Clients shed by one `Busy` must not come back in lockstep.
        let schedule = |p: RetryPolicy| (1..=4).map(|n| p.backoff(n)).collect::<Vec<_>>();
        assert_ne!(schedule(RetryPolicy::default()), schedule(RetryPolicy::default()));
    }

    #[test]
    fn zero_base_backoff_means_no_sleeping() {
        let p = RetryPolicy { base_backoff: Duration::ZERO, ..RetryPolicy::default() };
        assert_eq!(p.backoff(1), Duration::ZERO);
        assert_eq!(p.backoff(7), Duration::ZERO);
    }

    #[test]
    fn transient_classification_splits_retryable_from_deterministic_failures() {
        assert!(ServiceError::Io(std::io::Error::other("x")).is_transient());
        assert!(ServiceError::Busy(25).is_transient());
        assert!(!ServiceError::Remote("unknown kernel".into()).is_transient());
        assert!(!ServiceError::Protocol("short response".into()).is_transient());
    }
}
