//! # oriole-service — the sharded tuner service
//!
//! The evaluation engine as a long-lived daemon: one process owns one
//! process-level [`ArtifactStore`](oriole_tuner::ArtifactStore)
//! (optionally disk-backed) and serves it to any number of tuner
//! clients over localhost TCP, so concurrent searches sweeping
//! overlapping spaces share front-ends and whole measurement tiers
//! instead of recomputing them per process.
//!
//! The layers:
//!
//! * [`protocol`] — the RPC vocabulary: `evaluate` (a batch of tuning
//!   points under one experiment scope, the one verb that does work),
//!   `stats`, `ping` and `shutdown` requests, with responses carrying
//!   [`Measurement`](oriole_tuner::Measurement) records in
//!   `oriole_tuner::persist`'s canonical serialization — floats as raw
//!   IEEE-754 bits, so remote results are **bit-identical** to local
//!   evaluation. Payloads travel in length-framed, checksummed,
//!   correlation-tagged frames, which both ends take apart with the one
//!   decoder, [`oriole_tuner::persist::decode_frame`]: the id lets one
//!   connection keep up to [`MAX_IN_FLIGHT`](protocol::MAX_IN_FLIGHT)
//!   requests in flight and receive responses out of order.
//! * [`server`] — the daemon: one **reactor** thread owns every socket
//!   (nonblocking, readiness-driven — see the private `reactor`
//!   module's `poll(2)` wrapper) and runs each connection as a small
//!   state machine: read-accumulate → decode → dispatch → write-drain.
//!   Evaluation executes on a **bounded worker pool** whose size bounds
//!   concurrent request bodies: requests that cannot start within their
//!   deadline — and connections past the bound — are shed with an
//!   explicit [`Response::Busy`] instead of
//!   a hung socket, idle connections are reaped, writes that stop
//!   making progress drop the connection, and a connection at the
//!   in-flight cap — or with a few MiB of answers unread — is simply
//!   not read until answers drain ([`ServeConfig`] holds the four
//!   knobs a deployment sets; the other bounds are constants). All
//!   workers evaluate through the one shared store, whose sharded
//!   in-flight-deduplicating tiers make "single writer per scope"
//!   automatic inside the process: two clients racing on one point
//!   compute it once. Malformed frames and version skew are rejected
//!   without poisoning the store; a client disconnecting mid-request
//!   costs only its own response. Shutdown (by RPC) drains queued
//!   work, busy workers and unwritten responses under a hard deadline
//!   before the reactor exits, so a daemon with a `--store-dir` never
//!   tears its own spill lines.
//! * [`client`] — one connection type: a [`Pipeline`] with request
//!   frames in flight on one connection, responses matched by
//!   correlation id and read the way the reactor reads requests, and a
//!   [`Client`], which is a pipeline plus the retry loop under a
//!   [`RetryPolicy`] — a deadline on every exchange, automatic reconnect
//!   and retry with exponential backoff + jitter for the idempotent
//!   verbs (evaluation is deterministic and the store dedups, so
//!   replaying is always bit-identically safe).
//! * [`RemoteEvaluator`] — the one way to ask daemons for points: an
//!   [`oriole_tuner::Oracle`] over N ≥ 1 daemons, so every existing
//!   search strategy runs unchanged against them. It owns the
//!   client-side memo (threads sharing an evaluator take turns
//!   fetching, so no point is fetched twice), cuts a batch's misses
//!   into frames and drains them with one worker per live daemon under
//!   a work-stealing scheduler, each on its daemon's [`Client`]
//!   connection — one per daemon; `oriole_fleet` only names the
//!   daemons (`tune --remote ADDRS|@FILE`). A *final* failure — a deterministic error, or
//!   the last daemon lost — latches: the run aborts loudly, never
//!   silently returns garbage winners.
//! * `chaos` — test support behind the `chaos` feature, which only
//!   `[dev-dependencies]` turn on, so no product build compiles it: a
//!   `ChaosProxy` that delays, corrupts, truncates and drops proxied
//!   frames on a configurable `ChaosPlan`, backing the acceptance
//!   suite that proves every injected failure either heals
//!   (bit-identical final trace) or aborts loudly, with no unbounded
//!   blocking anywhere.
//!
//! The one discipline the daemon cannot check: a store *directory* must
//! have a single writing process. Run exactly one daemon per
//! `--store-dir` and point every client at it (readers of a quiescent
//! directory — `store stats`/`verify` — are always safe).

#![warn(missing_docs)]

#[cfg(feature = "chaos")]
pub mod chaos;
pub mod client;
mod evaluator;
pub mod protocol;
mod reactor;
mod sched;
pub mod server;

#[cfg(feature = "chaos")]
pub use chaos::{ChaosPlan, ChaosProxy, FaultSpec};
pub use client::{Client, Pipeline, RetryPolicy, ServiceError};
pub use evaluator::{FleetCounters, FleetStats, RemoteEvaluator, ShardTelemetry};
pub use protocol::{EvalScope, Request, Response, ServiceStats, RPC_VERSION};
pub use server::{ServeConfig, ServeSummary, Server};
