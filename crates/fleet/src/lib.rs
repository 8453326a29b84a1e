//! Sharded multi-daemon evaluation — one client's sweep fanned out
//! across N `oriole serve` daemons, bit-identical to a local run.
//!
//! The paper's sweeps are embarrassingly parallel across tuning points,
//! so one daemon — even pipelined — is the throughput ceiling. This
//! crate multiplexes a fleet:
//!
//! - [`FleetSpec`] names the daemons (`addr1,addr2,...` or an
//!   `@manifest` file) and owns the **scope partitioner**: every
//!   `(kernel, gpu, sizes, protocol)` scope hashes to a deterministic
//!   *home shard* via the same FNV checksum `persist` uses for tier
//!   file names. Each daemon owns a disjoint `--store-dir`, so the
//!   single-writer-per-scope discipline and torn-write detection from
//!   `persist` hold fleet-wide without coordination.
//! - `StealScheduler` is the **work-stealing scheduler**: a sweep's
//!   point-chunks enqueue on the scope's home shard, idle shards steal
//!   from the busiest live queue's tail, and a lost shard's queue
//!   drains to survivors. Pure and deterministic — given the same
//!   sequence of requests it makes the same decisions.
//! - [`FleetEvaluator`] implements [`Oracle`](oriole_tuner::Oracle):
//!   one worker thread per shard executes the schedule through the
//!   fault-hardened [`Client`](oriole_service::Client), chunk results
//!   are positionally verified and merged **in request order**, so the
//!   output is byte-identical regardless of which shard computed what.
//!
//! Why stealing and rebalancing cannot change the answer: evaluation is
//! deterministic, the wire format is bit-exact, and every daemon's
//! store deduplicates points — a chunk computed by shard 2 instead of
//! shard 0 produces the same bits, and a replayed chunk re-serves
//! memoized measurements. Scheduling shows up only in telemetry
//! ([`FleetStats`]), never in the data.

#![warn(missing_docs)]

mod evaluator;
mod sched;
mod spec;

pub use evaluator::{FleetCounters, FleetEvaluator, FleetStats, ShardTelemetry};
pub use spec::FleetSpec;
