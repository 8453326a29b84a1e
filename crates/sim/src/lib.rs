//! # oriole-sim — the GPU execution simulator
//!
//! This crate stands in for the physical GPUs of the paper's evaluation:
//! it is the *empirical* side of autotuning, producing the measurements
//! that exhaustive search ranks and against which the static analyzer's
//! predictions are validated.
//!
//! The model is an analytic warp/SM roofline with the mechanisms the
//! paper's narrative depends on (§II-A, §III-B):
//!
//! * **Occupancy-limited residency** — active blocks per SM come from the
//!   occupancy calculator ([`oriole_arch::occupancy()`]), so register
//!   pressure (UIF), shared-memory footprint (TC-scaled tiles) and the
//!   L1/shared split (PL) all change how many warps can hide latency.
//! * **Issue-throughput bound** — every instruction costs
//!   `32 / IPC(class)` SM issue cycles (Table II); uncoalesced accesses
//!   replay in the load/store unit once per memory transaction, which is
//!   what makes strided kernels (ATAX/BiCG row walks) throughput-bound.
//! * **Latency bound** — a warp's dependent chain exposes
//!   `L / active_warps` cycles per memory operation; few resident warps
//!   (tiny blocks on latency-sensitive kernels) expose DRAM latency.
//! * **Device bandwidth bound** — total DRAM transactions cost device
//!   cycles regardless of how work is distributed.
//! * **Work concentration** — grid-stride kernels with fewer items than
//!   threads only occupy the leading blocks; large blocks then
//!   concentrate all work on one or two SMs (the reason small-`N` matrix
//!   kernels favour small blocks — Fig. 4's key effect).
//! * **Divergence serialization** — warps execute both sides of
//!   thread-dependent branches (warp-level weights saturate), plus a
//!   reconvergence penalty (Fig. 1).
//! * **Barriers, block dispatch, launch overhead, measurement noise** —
//!   with the paper's 10-trials/take-the-5th protocol ([`noise`]).
//!
//! Absolute times are *model* times; the reproduction targets relative
//! behaviour (which configurations win, by roughly what factor).
//!
//! Everything here is pure in its inputs. [`ModelContext`] ([`context`])
//! is the `(device, configuration, timing model)` binding evaluation
//! layers share: it owns no cache, and its
//! [`launch`](ModelContext::launch) takes a caller-owned
//! [`LaunchScratch`] so variants that share a launch geometry share the
//! program walks that depend on nothing else. The free functions stay
//! as thin wrappers over the same implementation under the default
//! backend, property-tested bit-identical.
//!
//! The abstract machine is one of three cost models: [`model`] holds
//! the static Eq. 6 and analytic roofline backends beside it, and a
//! [`ModelId`] picks one per context (and, through the layers above, per
//! evaluator and per CLI invocation via `--model`); the context's one
//! `match` calls it.

#![warn(missing_docs)]

pub mod config;
pub mod context;
pub mod counters;
pub mod machine;
pub mod model;
pub mod noise;
pub mod profile;

#[cfg(test)]
pub(crate) mod testgen;

pub use config::SimConfig;
#[allow(deprecated)]
pub use context::ProgramKey;
pub use context::{LaunchSample, ModelContext};
pub use counters::dynamic_mix;
pub use machine::{simulate, simulate_with, BoundKind, LaunchScratch, SimError, SimReport};
pub use model::ModelId;
pub use noise::{measure, TrialProtocol, Trials, MAX_TRIALS};
pub use profile::WarpProfile;
