//! # oriole-tuner — the autotuning framework
//!
//! An Orio-style autotuner (§II-C, §III-C) over the compiler substrate
//! and GPU simulator:
//!
//! * [`spec`] — parser for the Fig. 3 tuning-specification DSL
//!   (`param TC[] = range(32,1025,32);` …).
//! * [`space`] — the cartesian search space of Table III, with the
//!   paper's default 5,120-variant instantiation.
//! * [`eval`] — variant evaluation: compile → simulate → ten noisy
//!   trials → fifth selected (§IV-A), parallelized with scoped worker
//!   threads behind a deterministic, order-restoring interface. An
//!   [`Evaluator`] is an immutable view of two caching tiers — shared
//!   compile front-ends keyed by `(size, UIF, CFLAGS)` and a sharded
//!   measurement tier with in-flight deduplication — that make
//!   exhaustive sweeps and stochastic revisits cheap; beside them it
//!   holds its own `(device, timing model)` binding
//!   ([`oriole_sim::ModelContext`]), which caches nothing.
//! * [`store`] — the process-level [`ArtifactStore`] that owns those
//!   tiers, two maps of them, so repeated and overlapping sweeps (bench
//!   bins, CLI invocations, daemon frames) reuse front-ends and whole
//!   measurements across evaluators — bit-identically. Measurement
//!   tiers carry the [`ModelId`] through [`EvalProtocol`], so the
//!   pluggable timing backends (simulator, static Eq. 6, roofline)
//!   share compilation artifacts but never each other's estimates. With
//!   [`ArtifactStore::with_disk`] the store is **tiered**: measurement
//!   tiers spill to content-addressed on-disk artifacts and reload
//!   bit-identically, so sweeps resume across processes.
//! * [`persist`] — the hand-rolled, versioned, checksummed wire format
//!   under the disk tier (canonical serialization for `GpuSpec`,
//!   [`EvalProtocol`], `TuningParams` and [`Measurement`]),
//!   plus store maintenance (`scan`/`gc`) for the CLI's
//!   `oriole store` subcommands.
//! * [`search`] — the search algorithms Orio ships (exhaustive, random,
//!   simulated annealing, genetic, Nelder–Mead simplex; §III-C "Current
//!   search algorithms in Orio include…") plus the paper's new
//!   **static-analysis search module**, which prunes the thread axis to
//!   the analyzer's `T*` (and optionally the rule-based band) before
//!   searching.
//! * [`rank`] — the §IV-A ranking protocol: sort by time, split at the
//!   50th percentile into Rank 1 (good) and Rank 2 (poor), and the
//!   Table V statistics over each rank.
//! * [`result`] — experiment records and CSV export.

#![warn(missing_docs)]

pub mod eval;
mod once_map;
pub mod persist;
pub mod rank;
pub mod replay;
pub mod result;
pub mod search;
pub mod space;
pub mod spec;
pub mod store;

pub use once_map::WordHash;
pub use eval::{EvalProtocol, EvalStats, Evaluator, Measurement};
// Re-exported for convenience: the backend selector every protocol and
// store scope carries.
pub use oriole_sim::ModelId;
pub use rank::{rank_stats, split_ranks, RankStats};
pub use result::measurements_csv;
pub use replay::{replay, Decision, LogEntry, ReplayReport, TuningLog};
pub use search::{
    AnnealingSearch, ExhaustiveSearch, GeneticSearch, HybridSearch, NelderMeadSearch, Oracle,
    PruneLevel, RandomSearch, SearchResult, Searcher, StaticSearch, StaticSearchReport,
};
pub use persist::{DiskStats, GcReport};
pub use space::SearchSpace;
pub use spec::{parse_spec, SpecError};
pub use store::{ArtifactStore, StoreStats};
