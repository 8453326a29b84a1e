//! # oriole-codegen — the compiler substrate
//!
//! This crate stands in for the `nvcc` / `ptxas` / `nvdisasm` toolchain in
//! the paper's pipeline (§III, "Static Analysis" steps 1–2):
//!
//! * [`params`] — the Orio tuning parameters of Table III / Fig. 3:
//!   thread count `TC`, block count `BC`, unroll factor `UIF`, preferred
//!   L1 size `PL`, stream count `SC`, and compiler flags (`CFLAGS`,
//!   i.e. `-use_fast_math`).
//! * [`transform`] — source-level transformations applied before
//!   lowering: loop unrolling with load hoisting (software pipelining),
//!   the mechanism by which `UIF` trades register pressure for reduced
//!   loop overhead.
//! * [`regalloc`] — a linear-scan register-pressure estimator playing the
//!   role of `ptxas`'s allocator: it decides the `regs/thread` figure the
//!   occupancy model consumes, and converts overflow into local-memory
//!   spills.
//! * [`compile`](mod@compile) — the driver: AST + parameters + target GPU →
//!   [`CompiledKernel`], carrying the lowered program with filled-in
//!   metadata (what `--ptxas-options=-v` reports) and the textual
//!   disassembly the static analyzer parses. A front-end artifact records
//!   what building it cost ([`PhaseTelemetry`]), surfaced through
//!   `tune --stats` and `service stats`.

#![warn(missing_docs)]

pub mod compile;
pub mod optimize;
pub mod params;
pub mod regalloc;
pub mod transform;

pub use compile::{compile, front_end, CompileError, CompiledKernel, FrontEnd, PhaseTelemetry, Unrolled};
pub use optimize::{peephole, OptStats};
pub use params::{CompilerFlags, PreferredL1, TuningParams};
pub use regalloc::RegAllocation;
pub use transform::unroll;
