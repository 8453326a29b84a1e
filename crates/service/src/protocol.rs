//! The RPC vocabulary: request and response payloads in
//! [`oriole_tuner::persist`]'s canonical text, one to a length-framed,
//! checksummed, correlation-tagged frame ([`persist::encode_frame`] /
//! [`persist::decode_frame`], the one decoder daemon and client both
//! run; the id lets a connection pipeline up to [`MAX_IN_FLIGHT`]
//! requests). The records inside — [`GpuSpec`], [`EvalProtocol`],
//! [`TuningParams`], [`Measurement`] — are the disk tier's own, floats
//! as raw IEEE-754 bits, so a measurement that crossed the wire is
//! bit-identical to one computed locally.
//!
//! The verbs are `ping`, `stats`, `shutdown` and `evaluate`: the daemon
//! shares its store's measurements, and nothing else costs a run.
//!
//! A payload is a head line, `oriole-rpc v5 <verb>`, then its fields in
//! the order of the verb's one table, which the writer and the reader
//! both walk (the `stats` counters and the `disk=` and `phases=` fields
//! too). The reader takes the text front to back in that order: a field
//! out of order, repeated, unknown, missing or left over is refused
//! with an error naming the field it expected or the one it found, so
//! whatever it accepts the writer writes back byte for byte
//! (`emit(parse(t)) == t`). That refuses the shapes older builds wrote:
//! a `stats` answer without `inline=` or with an `optimize` phase, an
//! `evaluate` request without `deadline=`.
//!
//! A peer speaking another version is answered with an error naming
//! both, before any field is read (one older than v4 is stopped by its
//! `ORLF` frame magic, [`persist::FrameError::VersionSkew`]). A payload
//! that parses but names impossible values — a trial count past
//! [`MAX_TRIALS`], more than [`MAX_POINTS_PER_REQUEST`] points — is a
//! per-request error: the connection survives, and the store is never
//! touched with unvalidated input.

use oriole_arch::GpuSpec;
use oriole_codegen::{PhaseTelemetry, TuningParams};
use oriole_sim::MAX_TRIALS;
use oriole_tuner::persist::{self, DiskStats, WireError};
use oriole_tuner::{EvalProtocol, Measurement, StoreStats};
use std::fmt::Write as _;

/// The protocol version this build speaks; the first token pair of
/// every payload. v5 changes the text, not the frame: a device is
/// spelled without `ws`, `tmp` and `tpw` (the warp width is
/// `oriole_arch::WARP_SIZE`, not a field) and a protocol without
/// `objective`, so a v4 peer is refused by its head line with the skew
/// error, never by a field it wrote. v5 lost the `simulate` verb without
/// a bump, since every payload left is spelled as before: an older v5
/// peer's `simulate` is an unknown verb, a per-request error. (v4
/// brought the word-at-a-time `persist::frame_checksum` under the frame
/// magic `ORL4`, which v5 keeps, so a v3 peer — FNV-1a, `ORLF` — is
/// refused at its first frame, and bounded a request's `trials` by
/// [`MAX_TRIALS`]; v3 correlation-tagged frames — pipelining,
/// out-of-order responses — and the reactor counters in `stats`; v2
/// request deadlines, the `busy` response and the pool/quota counters.)
/// Mixed-version peers are rejected — the error names both versions.
pub const RPC_VERSION: &str = "oriole-rpc v5";

/// Most requests one connection has in flight — sent, or decoded by the
/// daemon, and not yet answered. A [`Pipeline`](crate::Pipeline) at the
/// cap reads an answer in before it sends again, and the daemon stops
/// reading a connection at the cap until answers drain, so pipelining
/// backpressure lands on the sender's TCP window, not on daemon memory.
/// The [`RemoteEvaluator`](crate::RemoteEvaluator) keeps 8 frames in
/// flight per daemon, below it.
pub const MAX_IN_FLIGHT: usize = 32;

/// Most points one `evaluate` request may carry; a larger batch is a
/// per-request error (retrying cannot help, so it is not `busy`).
pub const MAX_POINTS_PER_REQUEST: usize = 100_000;

/// Most problem sizes one `evaluate` scope may name (the paper sweeps
/// five); more is a per-request error like an oversized batch. A kernel
/// whose AST changes with the size is lowered once per size, and the
/// daemon keeps every lowered program for its life.
pub const MAX_SIZES_PER_SCOPE: usize = 64;

/// The experiment scope of an `evaluate` batch: exactly the
/// measurement-tier key of the daemon's store, so two clients that
/// agree on a scope share each other's artifacts and measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalScope {
    /// Kernel name (must parse as a registry [`oriole_kernels::KernelId`]
    /// on the daemon).
    pub kernel: String,
    /// Full device spec by contents — synthetic devices evaluate
    /// remotely without any registry entry on the server.
    pub gpu: GpuSpec,
    /// Input sizes.
    pub sizes: Vec<u64>,
    /// Measurement protocol (trials, selection, seed, objective,
    /// timing-model backend).
    pub protocol: EvalProtocol,
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Ask the daemon to drain in-flight work and exit its accept loop.
    Shutdown,
    /// Server and store telemetry.
    Stats,
    /// Evaluate a batch of tuning points under one scope; the response
    /// carries one [`Measurement`] per point, in request order.
    Evaluate {
        /// Experiment scope (store tier key).
        scope: EvalScope,
        /// Points to evaluate.
        points: Vec<TuningParams>,
        /// The client's remaining patience in milliseconds (0 = none
        /// declared). A saturated daemon waits for a worker slot at
        /// most this long before shedding the request with
        /// [`Response::Busy`] — work it could no longer answer in time
        /// is never started.
        deadline_ms: u64,
    },
}

/// A daemon's counters: its own serving counters and its store's
/// [`StoreStats`]. [`Request::Stats`] answers a snapshot of it, and
/// [`Server::run`](crate::Server::run) returns the last one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Connections accepted since the daemon started.
    pub connections: u64,
    /// Requests served (all verbs).
    pub requests: u64,
    /// Tuning points served across all `evaluate` batches (hits and
    /// misses alike).
    pub points_served: u64,
    /// Requests currently inside an `evaluate` body.
    pub workers_busy: u64,
    /// The admission bound on concurrent `evaluate` bodies: the
    /// daemon's worker pool.
    pub workers_max: u64,
    /// Requests and connections shed with [`Response::Busy`] because
    /// the pool or the connection bound was saturated.
    pub shed_busy: u64,
    /// Connections reaped because they sat idle (or trickled a frame)
    /// past the daemon's read deadline.
    pub reaped_idle: u64,
    /// Connections currently open on the reactor.
    pub open_connections: u64,
    /// Requests currently in flight across all connections (decoded but
    /// not yet fully written back — queued, executing, or draining).
    pub frames_inflight: u64,
    /// High-water mark of requests in flight on any single connection —
    /// evidence of pipelining depth actually reached.
    pub pipelined_peak: u64,
    /// All-hit `evaluate` frames the reactor answered itself, with no
    /// worker involved.
    pub inline_hits: u64,
    /// Times the reactor's readiness wait returned since the daemon
    /// started (socket readiness, worker completions, or timer ticks).
    pub reactor_wakeups: u64,
    /// The daemon's store: its tiers, unique evaluations, disk tier and
    /// front-end phases.
    pub store: StoreStats,
}

/// One server response.
// The stats answer is the one large variant. A response lives from a
// frame's decode to its one use, so a box would only add an allocation.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Shutdown acknowledged; the daemon drains and exits.
    ShuttingDown,
    /// Answer to [`Request::Stats`].
    Stats(ServiceStats),
    /// Answer to [`Request::Evaluate`].
    Evaluate {
        /// Points of this batch this request computed fresh (as opposed
        /// to serving from a tier). Deterministically 0 on a fully warm
        /// re-run; under concurrent requests a point is attributed to
        /// the one request that won its computation.
        computed: u64,
        /// One measurement per requested point, in request order,
        /// bit-identical to local evaluation.
        measurements: Vec<Measurement>,
    },
    /// Admission control: the daemon is saturated (worker pool full, a
    /// request deadline unservable, or a per-connection quota
    /// exhausted) and shed this request instead of parking it on a
    /// hung socket. Evaluation is deterministic and the store dedups,
    /// so the client may safely retry after backing off.
    Busy {
        /// Suggested minimum backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The request could not be served; the connection stays usable
    /// unless the request spoke another version or the frame was
    /// malformed.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Each payload's fields, named once, in the order they are written and read
// ---------------------------------------------------------------------------

// Each key carries the separator in front of it. An `evaluate` request's
// points follow its lines, as an answer's measurements follow its line.
const EVALUATE: [&str; 5] = ["\nkernel=", "\ngpu=", "\nsizes=", "\nprotocol=", "\ndeadline="];
const POINT: &str = "\np ";
const COMPUTED: &str = "\ncomputed=";
const MEASURED: &str = "\nm ";
const RETRY_AFTER: &str = "\nretry_after_ms=";
const MESSAGE: &str = "\nmsg=";

/// A counter of a record `T`: the text in front of it, its value, and
/// its setter, which refuses a value the field cannot hold (the server's
/// counters are `u64`, its store's `usize`).
type Slot<T> = (&'static str, fn(&T) -> u64, fn(&mut T, u64) -> Option<()>);

/// The [`Slot`] of the counter at `$place` in the record `$r`.
macro_rules! slot {
    ($key:literal, $r:ident => $place:expr) => {
        ($key, |$r| $place as u64, |$r, v| {
            $place = v.try_into().ok()?;
            Some(())
        })
    };
}

/// A `stats` answer's counter lines. The `disk=` line follows only from
/// a daemon with a store directory; the `phases=` line always does.
const STATS: [Slot<ServiceStats>; 18] = [
    slot!("\nconnections=", s => s.connections),
    slot!("\nrequests=", s => s.requests),
    slot!("\npoints=", s => s.points_served),
    slot!("\nkernels=", s => s.store.kernels),
    slot!("\nfe_tiers=", s => s.store.front_end_tiers),
    slot!("\nlowerings=", s => s.store.front_end_lowerings),
    slot!("\nmeas_tiers=", s => s.store.measurement_tiers),
    slot!("\nunique=", s => s.store.unique_evaluations),
    slot!("\ncontexts=", s => s.store.contexts),
    slot!("\nbusy=", s => s.workers_busy),
    slot!("\nwmax=", s => s.workers_max),
    slot!("\nshed=", s => s.shed_busy),
    slot!("\nreaped=", s => s.reaped_idle),
    slot!("\nconns_open=", s => s.open_connections),
    slot!("\ninflight=", s => s.frames_inflight),
    slot!("\npipe_peak=", s => s.pipelined_peak),
    slot!("\nwakeups=", s => s.reactor_wakeups),
    slot!("\ninline=", s => s.inline_hits),
];

const DISK: [Slot<DiskStats>; 5] = [
    slot!("\ndisk=hits:", d => d.tier_hits),
    slot!(";misses:", d => d.tier_misses),
    slot!(";loaded:", d => d.measurements_loaded),
    slot!(";written:", d => d.measurements_written),
    slot!(";rejected:", d => d.rejected),
];

/// Each phase's nanoseconds, then its calls (a bare `:`, which an error
/// names as the phase's calls).
const PHASES: [Slot<PhaseTelemetry>; 6] = [
    slot!("\nphases=unroll:", p => p.unroll_ns),
    slot!(":", p => p.unroll_calls),
    slot!(";lower:", p => p.lower_ns),
    slot!(":", p => p.lower_calls),
    slot!(";regalloc:", p => p.regalloc_ns),
    slot!(":", p => p.regalloc_calls),
];

// ---------------------------------------------------------------------------
// The writer and the in-order reader
// ---------------------------------------------------------------------------

fn write_counters<T>(out: &mut String, slots: &[Slot<T>], record: &T) {
    for (key, get, _) in slots {
        let _ = write!(out, "{key}{}", get(record));
    }
}

/// A key as an error names it: without its separators.
fn name(key: &str) -> &str {
    key.trim_matches(|c: char| c.is_ascii_whitespace() || c.is_ascii_punctuation() && c != '_')
}

/// The `i`th counter of `slots` as an error names it: its key, or for a
/// phase's calls, the phase's key and `calls`.
#[cold]
fn counter_name<T>(slots: &[Slot<T>], i: usize) -> String {
    match name(slots[i].0) {
        "" => format!("{} calls", name(slots[i - 1].0)),
        key => key.to_string(),
    }
}

/// One field's text, with the key it was read after.
#[derive(Clone, Copy)]
struct Field<'a> {
    key: &'static str,
    value: &'a str,
}

impl Field<'_> {
    /// A canonical decimal.
    fn num(self) -> Result<u64, WireError> {
        persist::parse_dec(self.value)
            .map_err(|_| WireError::new(format!("bad numeric `{}`", name(self.key))))
    }
}

/// A payload past its head line, read front to back in its writer's
/// order: each step must find its key next, and nothing may be left.
struct Reader<'a> {
    rest: &'a str,
}

impl<'a> Reader<'a> {
    /// The rest of the line `key` opens, if it comes next.
    fn next_if(&mut self, key: &str) -> Option<&'a str> {
        let rest = self.rest.strip_prefix(key)?;
        let (value, rest) = rest.split_at(rest.find('\n').unwrap_or(rest.len()));
        self.rest = rest;
        Some(value)
    }

    /// The lines `keys` open, which must come next.
    fn lines<const N: usize>(
        &mut self,
        keys: [&'static str; N],
    ) -> Result<[Field<'a>; N], WireError> {
        let mut fields = [Field { key: "", value: "" }; N];
        for (field, key) in fields.iter_mut().zip(keys) {
            let value = self.next_if(key).ok_or_else(|| self.unexpected(name(key)))?;
            *field = Field { key, value };
        }
        Ok(fields)
    }

    /// Every next line `key` opens, read by `parse`.
    fn records<T>(
        &mut self,
        key: &str,
        parse: impl Fn(&'a str) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        std::iter::from_fn(|| self.next_if(key)).map(parse).collect()
    }

    /// A record of counters, each a canonical decimal after its key.
    fn counters<T: Default>(&mut self, slots: &[Slot<T>]) -> Result<T, WireError> {
        let mut record = T::default();
        for (i, (key, _, set)) in slots.iter().enumerate() {
            let Some(rest) = self.rest.strip_prefix(key) else {
                return Err(self.unexpected(&counter_name(slots, i)));
            };
            let digits = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
            let (value, rest) = rest.split_at(digits);
            persist::parse_dec(value).ok().and_then(|v| set(&mut record, v)).ok_or_else(|| {
                WireError::new(format!("bad numeric `{}`", counter_name(slots, i)))
            })?;
            self.rest = rest;
        }
        Ok(record)
    }

    /// Refuses anything after the last field.
    fn end(self) -> Result<(), WireError> {
        if self.rest.is_empty() {
            return Ok(());
        }
        Err(WireError::new(format!("unexpected {} after the last field", self.found())))
    }

    /// What comes next, as an error names it: a key, a record's mark, an
    /// empty one, or the end of the payload.
    fn found(&self) -> String {
        let next = self.rest.trim_start_matches(['\n', ';', ':']);
        match &next[..next.find(['=', ':', ';', ' ', '\n']).unwrap_or(next.len())] {
            "" if self.rest.is_empty() => "the end of the payload".into(),
            "" => "empty field".into(),
            found => format!("`{found}`"),
        }
    }

    #[cold]
    fn unexpected(&self, expected: &str) -> WireError {
        WireError::new(format!("expected `{expected}`, found {}", self.found()))
    }
}

/// Splits a payload into its verb (after version checking) and body.
/// A peer speaking another `oriole-rpc` version is reported as such —
/// the message names both versions so operators can tell skew from
/// corruption.
fn split_verb(payload: &str) -> Result<(&str, Reader<'_>), WireError> {
    let (head, rest) = payload.split_at(payload.find('\n').unwrap_or(payload.len()));
    if let Some(verb) = head.strip_prefix(RPC_VERSION).and_then(|r| r.strip_prefix(' ')) {
        Ok((verb, Reader { rest }))
    } else if version_skew(head) {
        Err(WireError::new(format!(
            "version skew: peer speaks `{head}`, this build speaks `{RPC_VERSION}`"
        )))
    } else {
        Err(WireError::new(format!("not an {RPC_VERSION} payload: `{head}`")))
    }
}

/// Whether `payload` is headed by an `oriole-rpc` version other than
/// this build's — the one request error after which a daemon hangs up,
/// since the peer will keep speaking its dialect.
pub(crate) fn version_skew(payload: &str) -> bool {
    payload.starts_with("oriole-rpc ")
        && payload.strip_prefix(RPC_VERSION).and_then(|r| r.strip_prefix(' ')).is_none()
}

/// A scope's sizes as the writer spells them: canonical decimals joined
/// by commas, and nothing at all for no sizes.
fn parse_sizes(field: Field<'_>) -> Result<Vec<u64>, WireError> {
    if field.value.is_empty() {
        return Ok(Vec::new());
    }
    field.value.split(',').map(|value| Field { value, ..field }.num()).collect()
}

/// A scope's trial count, refused past [`MAX_TRIALS`]: a worker draws
/// (and for some selections stores) every trial it is asked for.
fn check_trials(trials: u32) -> Result<(), WireError> {
    if trials > MAX_TRIALS {
        return Err(WireError::new(format!("`trials` out of range (at most {MAX_TRIALS})")));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Serializes a request payload (the frame body).
pub fn emit_request(req: &Request) -> String {
    match req {
        Request::Ping => format!("{RPC_VERSION} ping"),
        Request::Shutdown => format!("{RPC_VERSION} shutdown"),
        Request::Stats => format!("{RPC_VERSION} stats"),
        Request::Evaluate { scope, points, deadline_ms } => {
            let EvalScope { kernel, gpu, sizes, protocol } = scope;
            let [k, g, s, p, d] = EVALUATE;
            let (gpu, protocol) = (persist::emit_gpu_spec(gpu), persist::emit_protocol(protocol));
            let mut out = String::with_capacity(448 + 21 * sizes.len() + 48 * points.len());
            let _ = write!(out, "{RPC_VERSION} evaluate{k}{kernel}{g}{gpu}{s}");
            for (i, n) in sizes.iter().enumerate() {
                let _ = write!(out, "{}{n}", if i == 0 { "" } else { "," });
            }
            let _ = write!(out, "{p}{protocol}{d}{deadline_ms}");
            for point in points {
                out.push_str(POINT);
                persist::write_params(&mut out, point);
            }
            out
        }
    }
}

/// Parses one request payload.
pub fn parse_request(payload: &str) -> Result<Request, WireError> {
    let (verb, mut body) = split_verb(payload)?;
    let request = match verb {
        "ping" => Request::Ping,
        "shutdown" => Request::Shutdown,
        "stats" => Request::Stats,
        "evaluate" => {
            let [kernel, gpu, sizes, protocol, deadline] = body.lines(EVALUATE)?;
            let protocol = persist::parse_protocol(protocol.value)?;
            check_trials(protocol.trials)?;
            Request::Evaluate {
                scope: EvalScope {
                    kernel: kernel.value.to_string(),
                    gpu: persist::parse_gpu_spec(gpu.value)?,
                    sizes: parse_sizes(sizes)?,
                    protocol,
                },
                deadline_ms: deadline.num()?,
                points: body.records(POINT, persist::parse_params)?,
            }
        }
        other => return Err(WireError::new(format!("unknown request verb `{other}`"))),
    };
    body.end()?;
    Ok(request)
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Appends an `ok evaluate` payload from borrowed measurements — a
/// daemon serializes straight from its store's `Arc`s — into a buffer
/// sized once, from the measurements' own longest spelling.
pub(crate) fn write_evaluate<'a, I>(out: &mut String, computed: u64, measurements: I)
where
    I: IntoIterator<Item = &'a Measurement>,
    I::IntoIter: Clone,
{
    let _ = write!(out, "{RPC_VERSION} ok evaluate{COMPUTED}{computed}");
    persist::write_measurements(out, MEASURED, measurements);
}

/// Serializes a response payload (the frame body).
pub fn emit_response(resp: &Response) -> String {
    match resp {
        Response::Pong => format!("{RPC_VERSION} ok pong"),
        Response::ShuttingDown => format!("{RPC_VERSION} ok shutdown"),
        Response::Busy { retry_after_ms } => {
            format!("{RPC_VERSION} busy{RETRY_AFTER}{retry_after_ms}")
        }
        Response::Stats(stats) => {
            let mut out = format!("{RPC_VERSION} ok stats");
            write_counters(&mut out, &STATS, stats);
            if let Some(disk) = &stats.store.disk {
                write_counters(&mut out, &DISK, disk);
            }
            write_counters(&mut out, &PHASES, &stats.store.phases);
            out
        }
        Response::Evaluate { computed, measurements } => {
            let mut out = String::new();
            write_evaluate(&mut out, *computed, measurements);
            out
        }
        Response::Error { message } => {
            // Keep the message one line: newlines would masquerade as
            // body fields of some other payload shape.
            format!("{RPC_VERSION} error{MESSAGE}{}", message.replace('\n', " "))
        }
    }
}

/// Parses one response payload.
pub fn parse_response(payload: &str) -> Result<Response, WireError> {
    let (verb, mut body) = split_verb(payload)?;
    let response = match verb {
        "ok pong" => Response::Pong,
        "ok shutdown" => Response::ShuttingDown,
        "busy" => {
            let [retry_after_ms] = body.lines([RETRY_AFTER])?;
            Response::Busy { retry_after_ms: retry_after_ms.num()? }
        }
        "ok stats" => {
            let mut stats: ServiceStats = body.counters(&STATS)?;
            if body.rest.starts_with(DISK[0].0) {
                stats.store.disk = Some(body.counters(&DISK)?);
            }
            stats.store.phases = body.counters(&PHASES)?;
            Response::Stats(stats)
        }
        "ok evaluate" => {
            let [computed] = body.lines([COMPUTED])?;
            Response::Evaluate {
                computed: computed.num()?,
                measurements: body.records(MEASURED, persist::parse_measurement)?,
            }
        }
        "error" => {
            let [message] = body.lines([MESSAGE])?;
            Response::Error { message: message.value.to_string() }
        }
        other => return Err(WireError::new(format!("unknown response verb `{other}`"))),
    };
    body.end()?;
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oriole_arch::Gpu;
    use std::fmt::Debug;

    fn scope() -> EvalScope {
        EvalScope {
            kernel: "atax".into(),
            gpu: Gpu::K20.spec().clone(),
            sizes: vec![64, 128],
            protocol: EvalProtocol::default(),
        }
    }

    /// An `evaluate` of one point under `scope()` measured with `trials`.
    fn evaluate(trials: u32) -> Request {
        let protocol = EvalProtocol { trials, ..EvalProtocol::default() };
        Request::Evaluate {
            scope: EvalScope { protocol, ..scope() },
            points: vec![TuningParams::with_geometry(128, 48)],
            deadline_ms: 0,
        }
    }

    /// A disk-backed daemon's counters after a sweep, each a value of its
    /// own, so two fields swapped on the wire cannot read back the same.
    fn stats() -> ServiceStats {
        let phases = PhaseTelemetry {
            unroll_ns: 1_250,
            unroll_calls: 10,
            lower_ns: 311_007,
            lower_calls: 14,
            regalloc_ns: 42_000,
            regalloc_calls: 15,
        };
        let disk = DiskStats {
            tier_hits: 21,
            tier_misses: 22,
            measurements_loaded: 641,
            measurements_written: 23,
            rejected: 24,
        };
        let store = StoreStats {
            kernels: 2,
            front_end_tiers: 4,
            front_end_lowerings: 20,
            measurement_tiers: 5,
            unique_evaluations: 640,
            contexts: 1,
            disk: Some(disk),
            phases,
        };
        ServiceStats {
            connections: 3,
            requests: 17,
            points_served: 1280,
            workers_busy: 6,
            workers_max: 16,
            shed_busy: 8,
            reaped_idle: 9,
            open_connections: 11,
            frames_inflight: 7,
            pipelined_peak: 12,
            inline_hits: 77,
            reactor_wakeups: 901,
            store,
        }
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Ping,
            Request::Shutdown,
            Request::Stats,
            Request::Evaluate {
                scope: scope(),
                points: vec![
                    TuningParams::with_geometry(128, 48),
                    TuningParams::with_geometry(256, 96),
                ],
                deadline_ms: 2_500,
            },
        ];
        for req in reqs {
            assert_eq!(parse_request(&emit_request(&req)).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let m = Measurement {
            params: TuningParams::with_geometry(128, 48),
            time_ms: 1.0625e-3,
            per_size_ms: vec![(64, 0.5e-3)],
            feasible: true,
            occupancy: 0.75,
            regs_allocated: 24,
            reg_instructions: 12.5,
        };
        let resps = [
            Response::Pong,
            Response::ShuttingDown,
            Response::Stats(stats()),
            Response::Stats(ServiceStats::default()),
            Response::Evaluate { computed: 2, measurements: vec![m.clone(), m] },
            Response::Busy { retry_after_ms: 25 },
            Response::Error { message: "unknown kernel `gemm`".into() },
        ];
        for resp in resps {
            assert_eq!(parse_response(&emit_response(&resp)).unwrap(), resp, "{resp:?}");
        }
    }

    /// Asserts `parse` refuses `text` with an error naming `field`.
    fn refused<T: Debug>(parse: fn(&str) -> Result<T, WireError>, text: &str, field: &str) {
        let err = parse(text).expect_err(text).to_string();
        assert!(err.contains(&format!("`{field}")), "{err} does not name `{field}`");
    }

    #[test]
    fn shapes_older_builds_wrote_are_refused_by_name() {
        let answer = emit_response(&Response::Stats(stats()));
        let stats_refused = |text: &str, field| refused(parse_response, text, field);
        // A daemon from before the inline counter sent no `inline=` line,
        stats_refused(&answer.replace("\ninline=77", ""), "inline");
        // one from before `optimize` left the phase line sent that phase,
        stats_refused(&answer.replace(";regalloc:", ";optimize:0:0;regalloc:"), "optimize");
        // and no daemon ever left out its `phases=` line.
        stats_refused(answer.split_once("\nphases=").unwrap().0, "phases");
        // A client from before deadlines sent no `deadline=` line.
        let request = emit_request(&Request::Evaluate {
            scope: scope(),
            points: vec![TuningParams::with_geometry(128, 48)],
            deadline_ms: 9_999,
        });
        refused(parse_request, &request.replace("\ndeadline=9999", ""), "deadline");
    }

    #[test]
    fn a_body_is_read_in_its_writers_order_and_no_further() {
        let answer = emit_response(&Response::Stats(stats()));
        let stats_refused = |text: &str, field| refused(parse_response, text, field);
        let (head, body) = answer.split_once('\n').unwrap();
        let reversed: Vec<&str> = [head].into_iter().chain(body.lines().rev()).collect();
        stats_refused(&reversed.join("\n"), "connections");
        stats_refused(&answer.replace("\nrequests=17", "\nrequests=17\nrequests=17"), "points");
        stats_refused(&answer.replace("\nrequests=17", "\nx=1\nrequests=17"), "requests");
        stats_refused(&format!("{answer}\nx=1"), "x");
        stats_refused(&answer.replace("rejected:24", "rejected:24;x:1"), "x");
        stats_refused(&answer.replace("regalloc:42000:15", "regalloc:42000:15:1"), "1");
        // A phase's calls are named as such,
        stats_refused(&answer.replace("lower:311007:14", "lower:311007;14"), "lower calls");
        stats_refused(&answer.replace("regalloc:42000:15", "regalloc:42000:x"), "regalloc calls");
        stats_refused(&answer.replace("unroll:1250:10", "unroll:1250"), "phases=unroll calls");
        // and a trailing line break is an empty last field.
        let err = parse_response(&format!("{answer}\n")).unwrap_err().to_string();
        assert!(err.contains("empty field after the last field"), "{err}");
        refused(parse_request, &format!("{}\nping", emit_request(&Request::Ping)), "ping");

        let payload = emit_request(&evaluate(10));
        assert!(parse_request(&payload).is_ok());
        refused(parse_request, &payload.replace(";model:sim", ";model:Simulator"), "model");
        let mut lines: Vec<&str> = payload.lines().collect();
        lines.swap(1, 2);
        refused(parse_request, &lines.join("\n"), "kernel");
        // A verb this version no longer serves is refused by name.
        let simulate = payload.replacen(" evaluate", " simulate", 1);
        let err = parse_request(&simulate).unwrap_err().to_string();
        assert!(err.contains("unknown request verb `simulate`"), "{err}");
    }

    #[test]
    fn version_skew_and_junk_are_rejected_with_names() {
        // Each older version is skew, named as such, not tolerated: v2
        // brought deadlines, v3 correlation-tagged frames, v4 the frame
        // checksum (so a v3 payload past the frame magic is still skew),
        // v5 the device and protocol without the fixed warp width and
        // the objective.
        for version in ["v1", "v2", "v3", "v4", "v99"] {
            let err = parse_request(&format!("oriole-rpc {version} ping")).unwrap_err();
            assert!(err.to_string().contains("version skew"), "{err}");
            assert!(err.to_string().contains(RPC_VERSION), "{err}");
        }
        assert!(parse_request("GET / HTTP/1.1").is_err());
        assert!(parse_request(&format!("{RPC_VERSION} frobnicate")).is_err());
        assert!(parse_response(&format!("{RPC_VERSION} ok frobnicate")).is_err());
        // A structurally broken evaluate: missing scope lines.
        assert!(parse_request(&format!("{RPC_VERSION} evaluate\nkernel=atax")).is_err());
    }

    #[test]
    fn trials_past_the_bound_are_refused_not_truncated() {
        let request = |trials: u64| {
            emit_request(&evaluate(10)).replace("trials:10;", &format!("trials:{trials};"))
        };
        // 2^32 + 10 must not wrap to ten trials,
        let err = parse_request(&request(4_294_967_306)).unwrap_err();
        assert!(err.to_string().contains("trials"), "{err}");
        // nor u32::MAX be taken at its word: 34 GB of trial times.
        assert!(parse_request(&request(u64::from(u32::MAX))).is_err());
        let err = parse_request(&emit_request(&evaluate(MAX_TRIALS + 1))).unwrap_err();
        assert!(err.to_string().contains("trials"), "{err}");
        let at_the_bound = evaluate(MAX_TRIALS);
        assert_eq!(parse_request(&emit_request(&at_the_bound)).unwrap(), at_the_bound);
    }

    #[test]
    fn error_messages_stay_single_line() {
        let resp = Response::Error { message: "multi\nline".into() };
        match parse_response(&emit_response(&resp)).unwrap() {
            Response::Error { message } => assert_eq!(message, "multi line"),
            other => panic!("{other:?}"),
        }
    }
}
