//! # Oriole — autotuning GPU kernels via static and predictive analysis
//!
//! Umbrella crate: the facade `tests/` and `examples/` import, one
//! `pub use` per crate they name (`oriole-fleet` is not among them — it
//! only keeps old names for the benchmark; naming the daemons and
//! evaluating through one or many is [`service`]'s). See the individual
//! crates for details:
//!
//! * [`arch`] — GPU architecture database (paper Table I) and instruction
//!   throughput model (Table II).
//! * [`ir`] — kernel AST, PTX-like ISA, CFG, textual disassembly.
//! * [`kernels`] — the paper's benchmark kernels (Table IV) and the
//!   FLOP formulas their encodings are checked against.
//! * [`codegen`] — the compiler substrate: Orio-style transformations,
//!   register estimation, lowering to compiled artifacts.
//! * [`sim`] — the GPU timing simulator standing in for physical
//!   hardware, plus the timing-model backends a `ModelId` selects
//!   (simulator, static Eq. 6, roofline) with one `match` in
//!   `ModelContext`, which owns no cache.
//! * [`core`] — the paper's contribution: static analyzer and predictive
//!   models (occupancy, instruction mixes, Eq. 6 time prediction,
//!   parameter suggestion).
//! * [`tuner`] — the autotuning framework (search algorithms, ranking,
//!   statistics) with the new static-analysis search module.
//! * [`service`] — the sharded tuner service: a daemon exposing the
//!   evaluation engine (and its shared, optionally disk-backed
//!   `ArtifactStore`) to concurrent remote clients over a framed RPC
//!   protocol, plus the `RemoteEvaluator` oracle — one evaluation
//!   engine over the N ≥ 1 daemons a `FleetSpec` names, of which
//!   `--remote A` is the one-shard case.

pub use oriole_arch as arch;
pub use oriole_codegen as codegen;
pub use oriole_core as core;
pub use oriole_ir as ir;
pub use oriole_kernels as kernels;
pub use oriole_service as service;
pub use oriole_sim as sim;
pub use oriole_tuner as tuner;
