//! The single file that names product symbols.
//!
//! Every other benchmark file reaches the product through
//! `crate::product`, so this list *is* the benchmark's dependency on
//! the product's public API (`API.md` says which metric needs which
//! symbol). A refactor that moves or renames one of these edits this
//! file and nothing else in `benchmark/src/`.

pub use oriole_arch::{occupancy, Gpu, OccupancyInput, ALL_GPUS};
pub use oriole_codegen::regalloc::allocate as regalloc_allocate;
pub use oriole_codegen::{
    front_end, peephole, unroll, CompiledKernel, CompilerFlags, FrontEnd, TuningParams,
};
pub use oriole_core::suggest::suggest_from_in;
pub use oriole_core::{analyze_in, predict_time_indexed};
pub use oriole_fleet::{FleetEvaluator, FleetSpec};
pub use oriole_ir::lower::{lower_indexed, LowerOptions};
pub use oriole_ir::Program;
pub use oriole_kernels::{KernelId, ALL_KERNELS};
pub use oriole_service::protocol::{emit_request, emit_response, parse_request, parse_response};
pub use oriole_service::{
    Client, EvalScope, RemoteEvaluator, Request, Response, RetryPolicy, Server,
};
pub use oriole_sim::{ModelContext, ModelId, ProgramKey};
pub use oriole_tuner::persist::{
    checksum, decode_frame, emit_measurement, parse_measurement, write_frame_tagged,
};
pub use oriole_tuner::{
    AnnealingSearch, ArtifactStore, EvalProtocol, Evaluator, GeneticSearch, Measurement,
    NelderMeadSearch, Oracle, PruneLevel, RandomSearch, SearchSpace, Searcher, StaticSearch,
};
