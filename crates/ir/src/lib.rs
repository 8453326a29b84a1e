//! # oriole-ir — kernel program representation
//!
//! This crate provides the program representations that stand in for CUDA
//! source, PTX, and `nvdisasm` output in the paper's pipeline:
//!
//! * [`ast`] — a structured kernel AST (loop nests, branches, arithmetic
//!   and memory statements) with *symbolic* trip counts parameterized by
//!   problem size `N` and launch geometry. This is the form the Orio-style
//!   transformations (unrolling, fast-math) operate on.
//! * [`isa`] / [`instr`] / [`block`] — a PTX-like linear ISA: typed
//!   opcodes, virtual registers, predicates, basic blocks with symbolic
//!   execution frequencies, terminators carrying divergence metadata.
//! * [`lower`](mod@lower) — deterministic lowering from the AST to the linear IR,
//!   including address arithmetic, loop bookkeeping and barrier placement
//!   (what `nvcc` would have produced for us).
//! * [`index`] — the per-lowered-program [`ProgramIndex`] artifact and
//!   the crate's only CFG code: one scan that finds the divergent
//!   regions (postdominators over the successor graph) and the per-block
//!   summary tapes, built once per front-end artifact and shared by every
//!   analysis phase (a branch-free program builds no graph at all).
//! * [`text`] — a textual "disassembly" format with a full parser, so the
//!   static analyzer can consume programs the way the paper's tool
//!   consumes `nvdisasm` output (emit → parse round-trips exactly).
//! * [`count`] — static and frequency-weighted instruction-mix counting,
//!   the raw material of the paper's §III-B metrics.
//!
//! The representation is deliberately *resource-faithful* rather than
//! value-faithful: it records which operations execute, in what order,
//! touching which address spaces with which access patterns — everything
//! the static analyzer and the timing simulator observe — without
//! carrying actual data values.

#![warn(missing_docs)]

pub mod ast;
pub mod block;
pub mod count;
pub mod index;
pub mod instr;
pub mod isa;
pub mod lower;
pub mod text;

#[cfg(any(test, feature = "testgen"))]
pub mod testgen;

pub use ast::{
    shared_bytes_for_block, AccessPattern, AluOp, Branch, DivergenceKind, KernelAst, Loop,
    MemSpace, MemStmt, OpStmt, SharedDecl, SizeExpr, Stmt, TripCount,
};
pub use block::{BasicBlock, BlockArena, BlockId, FreqExpr, Program, ProgramMeta, Terminator};
pub use count::{expected_mix, expected_mix_of, static_mix, ClassMix, LaunchGeometry, MixCounts};
pub use index::{BlockSummary, DivRegion, ProfileEvent, ProgramIndex, TermClass};
pub use instr::{Instr, MemAnnot, Operand, Pred, Reg, SpecialReg};
pub use isa::{CmpOp, OpKind, Opcode, Ty};
pub use lower::{lower, lower_indexed};
pub use text::{emit, parse, ParseError};
