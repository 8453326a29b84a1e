//! The RPC vocabulary: request/response payloads in
//! [`oriole_tuner::persist`]'s canonical, checksummed wire format.
//!
//! Every payload is text, versioned by its first line
//! (`oriole-rpc vN <verb>`), and travels inside one length-framed,
//! checksummed (`persist::frame_checksum`), correlation-tagged frame
//! ([`persist::encode_frame`] / [`persist::read_frame_tagged`]) —
//! the id lets a connection pipeline requests and match out-of-order
//! responses. The records inside — [`GpuSpec`],
//! [`EvalProtocol`], [`TuningParams`], [`Measurement`], [`SimReport`] —
//! reuse the persist codecs verbatim: the same serialization the disk
//! tier trusts, floats as raw IEEE-754 bits, so a measurement that
//! crossed the wire is bit-identical to one computed locally.
//!
//! Version skew is detected (a peer announcing any other
//! `oriole-rpc vN` is answered with an error naming both versions, then
//! disconnected; a peer older than v4 is stopped one layer down, by its
//! `ORLF` frame magic — [`persist::FrameError::VersionSkew`]) and a
//! payload that parses but names impossible values is a per-request
//! error — the connection survives, the store is never touched with
//! unvalidated input.

use oriole_arch::GpuSpec;
use oriole_codegen::{PhaseTelemetry, TuningParams};
use oriole_sim::{ModelId, SimReport, MAX_TRIALS};
use oriole_tuner::persist::{self, WireError};
use oriole_tuner::{EvalProtocol, Measurement};

/// The protocol version this build speaks; the first token pair of
/// every payload. v4 changes the frame, not the text: the checksum is
/// the word-at-a-time `persist::frame_checksum` under the magic
/// `ORL4`, so a v3 peer (FNV-1a, `ORLF`) is refused at its first frame;
/// a request's `trials` is bounded by [`MAX_TRIALS`], not truncated.
/// (v3 brought correlation-tagged frames — pipelining, out-of-order
/// responses — and the reactor counters in `stats`; v2 request
/// deadlines, the `busy` response and the pool/quota counters.)
/// Mixed-version peers are rejected — the error names both versions.
pub const RPC_VERSION: &str = "oriole-rpc v4";

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
    /// Compile + simulate one variant; the response carries the
    /// [`SimReport`] plus the selected trial time.
    Simulate {
        /// Kernel name.
        kernel: String,
        /// Device spec by contents.
        gpu: GpuSpec,
        /// Input size.
        n: u64,
        /// Tuning point.
        params: TuningParams,
        /// Timing-model backend.
        model: ModelId,
        /// Noisy trials to run.
        trials: u32,
        /// Trial noise seed.
        seed: u64,
    },
}

/// Daemon-side counters returned by [`Request::Stats`]: the server's
/// serving telemetry plus a summary of its store's
/// [`StoreStats`](oriole_tuner::StoreStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Connections accepted since the daemon started.
    pub connections: u64,
    /// Requests served (all verbs).
    pub requests: u64,
    /// Tuning points served across all `evaluate` batches (hits and
    /// misses alike).
    pub points_served: u64,
    /// Distinct kernel names among the store's front-end tiers.
    pub kernels: u64,
    /// `(kernel, gpu)` front-end tiers.
    pub front_end_tiers: u64,
    /// Front-end lowerings run across all tiers.
    pub front_end_lowerings: u64,
    /// Measurement tiers (distinct experiment scopes).
    pub measurement_tiers: u64,
    /// Distinct points computed across all tiers since start.
    pub unique_evaluations: u64,
    /// Distinct `(device, model)` pairs among the measurement tiers.
    pub contexts: u64,
    /// Requests currently inside an `evaluate`/`simulate` body.
    pub workers_busy: u64,
    /// The admission bound on concurrent `evaluate`/`simulate` bodies
    /// (the daemon's `--max-inflight`).
    pub workers_max: u64,
    /// Requests and connections shed with [`Response::Busy`] because
    /// the pool was saturated or a quota was exhausted.
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
    /// Disk-tier counters; `None` when the daemon's store is
    /// memory-only.
    pub disk: Option<persist::DiskStats>,
    /// What building the front-end artifacts of the daemon's store cost
    /// (unroll/lower/regalloc wall-clock and invocations).
    pub phases: PhaseTelemetry,
}

/// One server response.
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
    /// Answer to [`Request::Simulate`].
    Simulate {
        /// Fifth-of-ten selected trial time (the CLI display protocol).
        selected: f64,
        /// The full simulation report.
        report: SimReport,
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
    /// unless the error names a version skew or malformed frame.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Shared parsing helpers
// ---------------------------------------------------------------------------

/// Splits a payload into its verb (after version checking) and body
/// lines. A peer speaking another `oriole-rpc` version is reported as
/// such — the message names both versions so operators can tell skew
/// from corruption.
fn split_verb(payload: &str) -> Result<(&str, std::str::Lines<'_>), WireError> {
    let mut lines = payload.lines();
    let head = lines.next().unwrap_or_default();
    if let Some(verb) = head.strip_prefix(RPC_VERSION).and_then(|r| r.strip_prefix(' ')) {
        Ok((verb, lines))
    } else if head.starts_with("oriole-rpc ") {
        Err(WireError::new(format!(
            "version skew: peer speaks `{head}`, this build speaks `{RPC_VERSION}`"
        )))
    } else {
        Err(WireError::new(format!("not an {RPC_VERSION} payload: `{head}`")))
    }
}

fn body_field<'a>(lines: &[&'a str], key: &str) -> Result<&'a str, WireError> {
    lines
        .iter()
        .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
        .ok_or_else(|| WireError::new(format!("missing `{key}=` line")))
}

/// The scope's sizes as `persist::scope_text` spells them: canonical
/// decimals joined by commas, and nothing at all for no sizes.
fn parse_sizes(text: &str) -> Result<Vec<u64>, WireError> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|s| persist::parse_dec(s).map_err(|_| WireError::new(format!("bad size `{s}`"))))
        .collect()
}

/// A number of a payload outside its records: a canonical decimal.
fn parse_u64(text: &str, key: &str) -> Result<u64, WireError> {
    persist::parse_dec(text).map_err(|_| WireError::new(format!("bad numeric `{key}`")))
}

/// A request's trial count, refused past [`MAX_TRIALS`]: a worker draws
/// (and for some selections stores) every trial it is asked for.
fn check_trials(trials: u64) -> Result<u32, WireError> {
    u32::try_from(trials)
        .ok()
        .filter(|t| *t <= MAX_TRIALS)
        .ok_or_else(|| WireError::new(format!("`trials` out of range (at most {MAX_TRIALS})")))
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
            // The head is the tier's own scope text; points append.
            let EvalScope { kernel, gpu, sizes, protocol } = scope;
            let scope = persist::scope_text(kernel, gpu, sizes, protocol);
            let mut out = format!("{RPC_VERSION} evaluate\n{scope}\ndeadline={deadline_ms}");
            out.reserve(48 * points.len());
            for p in points {
                out.push_str("\np ");
                persist::write_params(&mut out, p);
            }
            out
        }
        Request::Simulate { kernel, gpu, n, params, model, trials, seed } => {
            let mut out = format!(
                "{RPC_VERSION} simulate\nkernel={kernel}\ngpu={}\nn={n}\nmodel={}\n\
                 trials={trials}\nseed={}\nparams=",
                persist::emit_gpu_spec(gpu),
                model.name(),
                // Spelled as a float's raw bits are: 16 lowercase hex digits.
                persist::emit_f64(f64::from_bits(*seed)),
            );
            persist::write_params(&mut out, params);
            out
        }
    }
}

/// Parses one request payload.
pub fn parse_request(payload: &str) -> Result<Request, WireError> {
    let (verb, lines) = split_verb(payload)?;
    let body: Vec<&str> = lines.collect();
    match verb {
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        "stats" => Ok(Request::Stats),
        "evaluate" => {
            let scope = EvalScope {
                kernel: body_field(&body, "kernel")?.to_string(),
                gpu: persist::parse_gpu_spec(body_field(&body, "gpu")?)?,
                sizes: parse_sizes(body_field(&body, "sizes")?)?,
                protocol: persist::parse_protocol(body_field(&body, "protocol")?)?,
            };
            check_trials(u64::from(scope.protocol.trials))?;
            let mut points = Vec::with_capacity(body.len());
            for line in body.iter().filter_map(|l| l.strip_prefix("p ")) {
                points.push(persist::parse_params(line)?);
            }
            // Absent deadline parses as "none declared" so a minimal
            // hand-written v2 payload stays valid.
            let deadline_ms = match body_field(&body, "deadline") {
                Ok(v) => parse_u64(v, "deadline")?,
                Err(_) => 0,
            };
            Ok(Request::Evaluate { scope, points, deadline_ms })
        }
        "simulate" => Ok(Request::Simulate {
            kernel: body_field(&body, "kernel")?.to_string(),
            gpu: persist::parse_gpu_spec(body_field(&body, "gpu")?)?,
            n: parse_u64(body_field(&body, "n")?, "n")?,
            params: persist::parse_params(body_field(&body, "params")?)?,
            model: ModelId::parse(body_field(&body, "model")?)
                .ok_or_else(|| WireError::new("unknown model id"))?,
            trials: check_trials(parse_u64(body_field(&body, "trials")?, "trials")?)?,
            seed: persist::parse_f64(body_field(&body, "seed")?)
                .map(f64::to_bits)
                .map_err(|_| WireError::new("bad seed"))?,
        }),
        other => Err(WireError::new(format!("unknown request verb `{other}`"))),
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

fn emit_disk(d: &persist::DiskStats) -> String {
    format!(
        "hits:{};misses:{};loaded:{};written:{};rejected:{}",
        d.tier_hits, d.tier_misses, d.measurements_loaded, d.measurements_written, d.rejected
    )
}

fn emit_phases(p: &PhaseTelemetry) -> String {
    format!(
        "unroll:{}:{};lower:{}:{};regalloc:{}:{}",
        p.unroll_ns, p.unroll_calls, p.lower_ns, p.lower_calls, p.regalloc_ns, p.regalloc_calls,
    )
}

/// The `phases=` field; a field it does not know (a daemon from before
/// `optimize` left it sends one) is skipped.
fn parse_phases(text: &str) -> Result<PhaseTelemetry, WireError> {
    let get = |key: &str| -> Result<(u64, u64), WireError> {
        let rest = text
            .split(';')
            .find_map(|f| f.strip_prefix(key).and_then(|r| r.strip_prefix(':')))
            .ok_or_else(|| WireError::new(format!("missing phase field `{key}`")))?;
        let (ns, calls) = rest
            .split_once(':')
            .ok_or_else(|| WireError::new(format!("malformed phase field `{key}`")))?;
        Ok((parse_u64(ns, key)?, parse_u64(calls, key)?))
    };
    let (unroll_ns, unroll_calls) = get("unroll")?;
    let (lower_ns, lower_calls) = get("lower")?;
    let (regalloc_ns, regalloc_calls) = get("regalloc")?;
    Ok(PhaseTelemetry {
        unroll_ns,
        unroll_calls,
        lower_ns,
        lower_calls,
        regalloc_ns,
        regalloc_calls,
    })
}

fn parse_disk(text: &str) -> Result<persist::DiskStats, WireError> {
    let get = |key: &str| -> Result<u64, WireError> {
        text.split(';')
            .find_map(|f| f.strip_prefix(key).and_then(|r| r.strip_prefix(':')))
            .ok_or_else(|| WireError::new(format!("missing disk field `{key}`")))
            .and_then(|v| parse_u64(v, key))
    };
    Ok(persist::DiskStats {
        tier_hits: get("hits")?,
        tier_misses: get("misses")?,
        measurements_loaded: get("loaded")?,
        measurements_written: get("written")?,
        rejected: get("rejected")?,
    })
}

/// Appends an `ok evaluate` payload from borrowed measurements — a
/// daemon serializes straight from its store's `Arc`s — into a buffer
/// sized once, from the measurements' own longest spelling.
pub(crate) fn write_evaluate<'a, I>(out: &mut String, computed: u64, measurements: I)
where
    I: IntoIterator<Item = &'a Measurement>,
    I::IntoIter: Clone,
{
    out.push_str(&format!("{RPC_VERSION} ok evaluate\ncomputed={computed}"));
    persist::write_measurements(out, "\nm ", measurements);
}

/// Serializes a response payload (the frame body).
pub fn emit_response(resp: &Response) -> String {
    match resp {
        Response::Pong => format!("{RPC_VERSION} ok pong"),
        Response::ShuttingDown => format!("{RPC_VERSION} ok shutdown"),
        Response::Busy { retry_after_ms } => {
            format!("{RPC_VERSION} busy\nretry_after_ms={retry_after_ms}")
        }
        Response::Stats(s) => {
            let mut out = format!(
                "{RPC_VERSION} ok stats\nconnections={}\nrequests={}\npoints={}\nkernels={}\n\
                 fe_tiers={}\nlowerings={}\nmeas_tiers={}\nunique={}\ncontexts={}\nbusy={}\n\
                 wmax={}\nshed={}\nreaped={}\nconns_open={}\ninflight={}\npipe_peak={}\n\
                 wakeups={}\ninline={}",
                s.connections,
                s.requests,
                s.points_served,
                s.kernels,
                s.front_end_tiers,
                s.front_end_lowerings,
                s.measurement_tiers,
                s.unique_evaluations,
                s.contexts,
                s.workers_busy,
                s.workers_max,
                s.shed_busy,
                s.reaped_idle,
                s.open_connections,
                s.frames_inflight,
                s.pipelined_peak,
                s.reactor_wakeups,
                s.inline_hits,
            );
            if let Some(d) = &s.disk {
                out.push_str("\ndisk=");
                out.push_str(&emit_disk(d));
            }
            out.push_str("\nphases=");
            out.push_str(&emit_phases(&s.phases));
            out
        }
        Response::Evaluate { computed, measurements } => {
            let mut out = String::new();
            write_evaluate(&mut out, *computed, measurements);
            out
        }
        Response::Simulate { selected, report } => format!(
            "{RPC_VERSION} ok simulate\nselected={}\nr {}",
            persist::emit_f64(*selected),
            persist::emit_sim_report(report),
        ),
        Response::Error { message } => {
            // Keep the message one line: newlines would masquerade as
            // body fields of some other payload shape.
            format!("{RPC_VERSION} error\nmsg={}", message.replace('\n', " "))
        }
    }
}

/// Parses one response payload.
pub fn parse_response(payload: &str) -> Result<Response, WireError> {
    let (verb, lines) = split_verb(payload)?;
    let body: Vec<&str> = lines.collect();
    match verb {
        "error" => Ok(Response::Error { message: body_field(&body, "msg")?.to_string() }),
        "busy" => Ok(Response::Busy {
            retry_after_ms: parse_u64(body_field(&body, "retry_after_ms")?, "retry_after_ms")?,
        }),
        _ => {
            let ok_verb = verb
                .strip_prefix("ok ")
                .ok_or_else(|| WireError::new(format!("unknown response verb `{verb}`")))?;
            match ok_verb {
                "pong" => Ok(Response::Pong),
                "shutdown" => Ok(Response::ShuttingDown),
                "stats" => {
                    let num = |key: &str| body_field(&body, key).and_then(|v| parse_u64(v, key));
                    Ok(Response::Stats(ServiceStats {
                        connections: num("connections")?,
                        requests: num("requests")?,
                        points_served: num("points")?,
                        kernels: num("kernels")?,
                        front_end_tiers: num("fe_tiers")?,
                        front_end_lowerings: num("lowerings")?,
                        measurement_tiers: num("meas_tiers")?,
                        unique_evaluations: num("unique")?,
                        contexts: num("contexts")?,
                        workers_busy: num("busy")?,
                        workers_max: num("wmax")?,
                        shed_busy: num("shed")?,
                        reaped_idle: num("reaped")?,
                        open_connections: num("conns_open")?,
                        frames_inflight: num("inflight")?,
                        pipelined_peak: num("pipe_peak")?,
                        reactor_wakeups: num("wakeups")?,
                        // Optional, like `phases`: a peer from before
                        // the counter sends none.
                        inline_hits: match body_field(&body, "inline") {
                            Ok(v) => parse_u64(v, "inline")?,
                            Err(_) => 0,
                        },
                        disk: match body_field(&body, "disk") {
                            Ok(d) => Some(parse_disk(d)?),
                            Err(_) => None,
                        },
                        // Optional for wire compatibility with peers that
                        // predate the phase telemetry.
                        phases: match body_field(&body, "phases") {
                            Ok(p) => parse_phases(p)?,
                            Err(_) => PhaseTelemetry::default(),
                        },
                    }))
                }
                "evaluate" => {
                    let computed = parse_u64(body_field(&body, "computed")?, "computed")?;
                    let mut measurements = Vec::with_capacity(body.len());
                    for line in body.iter().filter_map(|l| l.strip_prefix("m ")) {
                        measurements.push(persist::parse_measurement(line)?);
                    }
                    Ok(Response::Evaluate { computed, measurements })
                }
                "simulate" => Ok(Response::Simulate {
                    selected: persist::parse_f64(body_field(&body, "selected")?)?,
                    report: persist::parse_sim_report(
                        body.iter()
                            .find_map(|l| l.strip_prefix("r "))
                            .ok_or_else(|| WireError::new("missing report record"))?,
                    )?,
                }),
                other => Err(WireError::new(format!("unknown response verb `{other}`"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oriole_arch::Gpu;

    fn scope() -> EvalScope {
        EvalScope {
            kernel: "atax".into(),
            gpu: Gpu::K20.spec().clone(),
            sizes: vec![64, 128],
            protocol: EvalProtocol::default(),
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
            Request::Simulate {
                kernel: "bicg".into(),
                gpu: Gpu::M40.spec().clone(),
                n: 256,
                params: TuningParams::with_geometry(512, 24),
                model: ModelId::Roofline,
                trials: 10,
                seed: 0xdead_beef,
            },
        ];
        for req in reqs {
            assert_eq!(parse_request(&emit_request(&req)).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn evaluate_without_a_deadline_line_parses_as_no_deadline() {
        let emitted = emit_request(&Request::Evaluate {
            scope: scope(),
            points: vec![TuningParams::with_geometry(128, 48)],
            deadline_ms: 9_999,
        });
        let stripped: String = emitted
            .lines()
            .filter(|l| !l.starts_with("deadline="))
            .collect::<Vec<_>>()
            .join("\n");
        match parse_request(&stripped).unwrap() {
            Request::Evaluate { deadline_ms, points, .. } => {
                assert_eq!(deadline_ms, 0);
                assert_eq!(points.len(), 1);
            }
            other => panic!("{other:?}"),
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
        let stats = ServiceStats {
            connections: 3,
            requests: 17,
            points_served: 1280,
            kernels: 2,
            front_end_tiers: 2,
            front_end_lowerings: 20,
            measurement_tiers: 2,
            unique_evaluations: 640,
            contexts: 1,
            workers_busy: 3,
            workers_max: 16,
            shed_busy: 5,
            reaped_idle: 2,
            open_connections: 4,
            frames_inflight: 7,
            pipelined_peak: 12,
            inline_hits: 77,
            reactor_wakeups: 901,
            disk: Some(persist::DiskStats {
                tier_hits: 1,
                tier_misses: 0,
                measurements_loaded: 640,
                measurements_written: 0,
                rejected: 0,
            }),
            phases: PhaseTelemetry {
                unroll_ns: 1_250,
                unroll_calls: 10,
                lower_ns: 311_007,
                lower_calls: 10,
                regalloc_ns: 42_000,
                regalloc_calls: 10,
            },
        };
        let resps = [
            Response::Pong,
            Response::ShuttingDown,
            Response::Stats(stats),
            Response::Stats(ServiceStats::default()),
            Response::Evaluate { computed: 2, measurements: vec![m.clone(), m] },
            Response::Busy { retry_after_ms: 25 },
            Response::Error { message: "unknown kernel `gemm`".into() },
        ];
        for resp in resps {
            assert_eq!(parse_response(&emit_response(&resp)).unwrap(), resp, "{resp:?}");
        }
        // A v4 daemon from before the inline counter sends no such line.
        let older = emit_response(&Response::Stats(stats)).replace("\ninline=77", "");
        let expected = Response::Stats(ServiceStats { inline_hits: 0, ..stats });
        assert_eq!(parse_response(&older).unwrap(), expected);
        assert!(parse_response(&older.replace("wakeups=901", "wakeups=901\ninline=x")).is_err());
    }

    #[test]
    fn a_stats_answer_that_still_reports_optimize_parses() {
        // Word for word what a daemon from before `optimize` left the
        // phase line answers: the field reads `0:0` in every product run,
        // and is dropped.
        let parent = "oriole-rpc v4 ok stats\nconnections=3\nrequests=17\npoints=1280\n\
                      kernels=2\nfe_tiers=2\nlowerings=20\nmeas_tiers=2\nunique=640\n\
                      contexts=1\nbusy=3\nwmax=16\nshed=5\nreaped=2\nconns_open=4\n\
                      inflight=7\npipe_peak=12\nwakeups=901\ninline=77\n\
                      disk=hits:1;misses:0;loaded:640;written:0;rejected:0\n\
                      phases=unroll:1250:10;lower:311007:10;optimize:0:0;regalloc:42000:10";
        let Response::Stats(stats) = parse_response(parent).unwrap() else {
            panic!("a stats answer");
        };
        let p = stats.phases;
        assert_eq!((p.unroll_calls, p.lower_ns, p.regalloc_ns), (10, 311_007, 42_000));
        let ours = emit_response(&Response::Stats(stats));
        assert_eq!(ours, parent.replace("optimize:0:0;", ""));
    }

    #[test]
    fn simulate_response_round_trips_bit_identically() {
        let gpu = Gpu::K20.spec();
        let kernel = oriole_codegen::compile(
            &oriole_kernels::KernelId::Atax.ast(128),
            gpu,
            TuningParams::with_geometry(128, 48),
        )
        .unwrap();
        let report = oriole_sim::simulate(&kernel, 128).unwrap();
        let resp = Response::Simulate { selected: 1.0e-3, report };
        let rt = parse_response(&emit_response(&resp)).unwrap();
        assert_eq!(rt, resp);
    }

    #[test]
    fn version_skew_and_junk_are_rejected_with_names() {
        let err = parse_request("oriole-rpc v99 ping").unwrap_err();
        assert!(err.to_string().contains("version skew"), "{err}");
        assert!(err.to_string().contains(RPC_VERSION), "{err}");
        // The deadline field is new in v2: a v1 peer is skew, named as
        // such, not silently tolerated.
        let err = parse_request("oriole-rpc v1 ping").unwrap_err();
        assert!(err.to_string().contains("version skew"), "{err}");
        // Correlation-tagged pipelining is new in v3: a v2 peer is skew
        // too — its untagged frames would not even decode, and a loud
        // version error beats silent misdelivery.
        let err = parse_request("oriole-rpc v2 ping").unwrap_err();
        assert!(err.to_string().contains("version skew"), "{err}");
        // The frame checksum is new in v4: a v3 payload that somehow got
        // past the frame magic is still skew by its first line.
        let err = parse_request("oriole-rpc v3 ping").unwrap_err();
        assert!(err.to_string().contains("version skew"), "{err}");
        assert!(parse_request("GET / HTTP/1.1").is_err());
        assert!(parse_request(&format!("{RPC_VERSION} frobnicate")).is_err());
        assert!(parse_response(&format!("{RPC_VERSION} ok frobnicate")).is_err());
        // A structurally broken evaluate: missing scope lines.
        assert!(parse_request(&format!("{RPC_VERSION} evaluate\nkernel=atax")).is_err());
    }

    #[test]
    fn trials_past_the_bound_are_refused_not_truncated() {
        let request = |trials: u64| {
            let sample = Request::Simulate {
                kernel: "bicg".into(),
                gpu: Gpu::M40.spec().clone(),
                n: 256,
                params: TuningParams::with_geometry(512, 24),
                model: ModelId::Simulator,
                trials: 10,
                seed: 7,
            };
            emit_request(&sample).replace("trials=10", &format!("trials={trials}"))
        };
        // 2^32 + 10 used to wrap to ten trials.
        let err = parse_request(&request(4_294_967_306)).unwrap_err();
        assert!(err.to_string().contains("trials"), "{err}");
        // u32::MAX used to be taken at its word: 34 GB of trial times.
        assert!(parse_request(&request(u64::from(u32::MAX))).is_err());
        assert!(parse_request(&request(u64::from(MAX_TRIALS) + 1)).is_err());
        match parse_request(&request(u64::from(MAX_TRIALS))).unwrap() {
            Request::Simulate { trials, .. } => assert_eq!(trials, MAX_TRIALS),
            other => panic!("{other:?}"),
        }
        // An `evaluate` scope carries a trial count too.
        let evaluate = |trials: u32| {
            let protocol = EvalProtocol { trials, ..EvalProtocol::default() };
            emit_request(&Request::Evaluate {
                scope: EvalScope { protocol, ..scope() },
                points: vec![TuningParams::with_geometry(128, 48)],
                deadline_ms: 0,
            })
        };
        assert!(parse_request(&evaluate(MAX_TRIALS)).is_ok());
        let err = parse_request(&evaluate(MAX_TRIALS + 1)).unwrap_err();
        assert!(err.to_string().contains("trials"), "{err}");
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
