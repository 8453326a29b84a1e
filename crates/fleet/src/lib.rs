//! The fleet's old names, kept only because `benchmark/` path-depends
//! on this crate and imports `FleetEvaluator` and `FleetSpec` from it.
//! Multi-daemon evaluation lives in [`oriole_service`]: a [`FleetSpec`]
//! names the daemons and
//! [`RemoteEvaluator::with_policy`](oriole_service::RemoteEvaluator::with_policy)
//! evaluates through them, one daemon being the one-shard case. No
//! workspace crate depends on this one; it goes once the benchmark
//! imports those names from `oriole_service`.

#![warn(missing_docs)]

pub use oriole_service::{FleetCounters, FleetSpec, FleetStats, ShardTelemetry};

/// [`oriole_service::RemoteEvaluator`] under its old name.
#[deprecated(note = "use `oriole_service::RemoteEvaluator`; this alias goes with the benchmark re-base (ROADMAP item 1(ix))")]
pub type FleetEvaluator = oriole_service::RemoteEvaluator;
