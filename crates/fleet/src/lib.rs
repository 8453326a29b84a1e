//! Sharded multi-daemon evaluation — one client's sweep fanned out
//! across N `oriole serve` daemons, bit-identical to a local run.
//!
//! The paper's sweeps are embarrassingly parallel across tuning points,
//! so one daemon — even pipelined — is the throughput ceiling. This
//! crate multiplexes a fleet:
//!
//! - [`FleetSpec`] names the daemons — what `--remote` takes: one
//!   address, `addr1,addr2,...` or an `@manifest` file — and owns the
//!   **scope partitioner**: every `(kernel, gpu, sizes, protocol)`
//!   scope hashes to a deterministic *home shard* via the same FNV
//!   checksum `persist` uses for tier file names. Each daemon owns a disjoint `--store-dir`, so the
//!   single-writer-per-scope discipline and torn-write detection from
//!   `persist` hold fleet-wide without coordination.
//! - [`FleetEvaluator`] implements [`Oracle`](oriole_tuner::Oracle) by
//!   handing the spec's shards and the scope's home to the one
//!   evaluation engine, [`oriole_service::RemoteEvaluator`] — the same
//!   type and constructor `tune --remote` builds over one daemon or
//!   many. The engine owns everything that happens after naming: the
//!   client-side memo, the chunker, a pipelined connection per shard,
//!   the **work-stealing scheduler** (a batch's chunks enqueue on the
//!   home shard, idle shards steal from the busiest live queue's tail,
//!   a lost shard's queue drains to survivors), the retry step and the
//!   latch. Chunk results are positionally verified and merged **in
//!   request order**, so the output is byte-identical regardless of
//!   which shard computed what.
//!
//! Why stealing and rebalancing cannot change the answer: evaluation is
//! deterministic, the wire format is bit-exact, and every daemon's
//! store deduplicates points — a chunk computed by shard 2 instead of
//! shard 0 produces the same bits, and a replayed chunk re-serves
//! memoized measurements. Scheduling shows up only in telemetry
//! ([`FleetStats`]), never in the data.

#![warn(missing_docs)]

mod evaluator;
mod spec;

pub use evaluator::FleetEvaluator;
pub use oriole_service::{FleetCounters, FleetStats, ShardTelemetry};
pub use spec::FleetSpec;
