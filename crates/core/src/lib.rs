//! # oriole-core — the static analyzer and predictive models
//!
//! This crate is the paper's primary contribution: a static analyzer for
//! GPU kernels that discovers near-optimal launch parameters **without
//! any program runs** (§III). It consumes the textual disassembly the
//! compiler substrate emits — exactly as the paper's tool consumes
//! `nvdisasm` output — and produces:
//!
//! * [`occupancy`] — the paper's occupancy model (Eqs. 1–5) with limiter
//!   attribution, presented over the mechanical calculator in
//!   [`oriole_arch::occupancy()`].
//! * [`mix`] — instruction-mix metrics (§III-B1): static and
//!   trip-count-weighted per-class counts, and the computational
//!   *intensity* that drives the rule-based heuristic.
//! * [`pipeline`] — pipeline-utilization estimates (§III-B2): how issue
//!   cycles distribute over the functional-unit classes of Table II.
//! * [`predict`] — the execution-time model of Eq. 6,
//!   `f(N) = c_f·O_fl + c_m·O_mem + c_b·O_ctrl + c_r·O_reg`, with CPI
//!   coefficients taken from Table II (never fitted to the simulator),
//!   plus the normalization and MAE machinery of Fig. 5.
//! * [`suggest`] — Table VII's outputs: the thread counts `T*` achieving
//!   theoretical occupancy, register headroom `[R_u : R*]`, shared-memory
//!   headroom `S*`, and `occ*`.
//! * [`rules`] — the §III-C rule-based heuristic: kernels with intensity
//!   above 4.0 prefer the upper suggested thread range, others the lower.
//! * [`divergence`] — CFG-based divergence diagnosis (the Fig. 1
//!   problem): which branches split warps and what the serialization
//!   costs.
//! * [`report`] — the Fig. 7-style occupancy-calculator report comparing
//!   a kernel's current configuration with its suggested one.
//!
//! The umbrella entry point is [`analyze`] / [`StaticAnalysis`].

#![warn(missing_docs)]

pub mod divergence;
pub mod mix;
pub mod occupancy;
pub mod pipeline;
pub mod predict;
pub mod report;
pub mod rules;
pub mod suggest;

mod analyzer;

#[allow(deprecated)]
pub use analyzer::analyze_in;
pub use analyzer::{analyze, analyze_disassembly, StaticAnalysis};
pub use divergence::{analyze_divergence, DivergenceFinding, DivergenceReport};
pub use mix::MixReport;
pub use occupancy::OccupancyAnalysis;
pub use pipeline::PipelineUtilization;
pub use predict::{predict_time_indexed, PredictedSeries};
pub use suggest::Suggestion;
