//! # oriole-arch — GPU architecture models
//!
//! This crate is the architectural-constants substrate for the Oriole
//! autotuning framework, reproducing the hardware description used by
//! Lim, Norris & Malony, *"Autotuning GPU Kernels via Static and
//! Predictive Analysis"* (ICPP 2017):
//!
//! * [`GpuSpec`] carries every quantity in the paper's **Table I** for the
//!   four evaluation GPUs (Fermi M2050, Kepler K20, Maxwell M40, Pascal
//!   P100), plus the per-SM shared-memory capacity each family actually
//!   ships (needed by the occupancy shared-memory limiter, Eq. 5).
//! * [`ThroughputTable`] reproduces **Table II**: instruction throughput
//!   (operations per cycle per SM) for twelve operation classes across the
//!   four compute capabilities, and its reciprocal, cycles-per-instruction
//!   (CPI), which weights the instruction-mix execution-time model (Eq. 6).
//! * [`occupancy()`] is the occupancy calculator (Eqs. 1–5), called
//!   directly by every layer above; [`GpuSpec::problems`] says whether a
//!   spec from outside Table I is safe to hand it.
//!
//! Beyond that arithmetic nothing in this crate performs analysis; it
//! answers questions such as "how many registers does one SM of a K20
//! have?" or "what is the CPI of a 32-bit float op on compute capability
//! 5.2?". Higher layers (the static analyzer, the simulator, the
//! predictive models) consume these answers.
//!
//! ```
//! use oriole_arch::{Gpu, OpClass};
//!
//! let k20 = Gpu::K20.spec();
//! assert_eq!(k20.warps_per_mp, 64);
//! // FP32 operations issue at 192/cycle on Kepler (Table II, row 1):
//! assert_eq!(k20.throughput().ipc(OpClass::FpIns32), 192);
//! ```

#![warn(missing_docs)]

mod family;
pub mod occupancy;
mod spec;
pub mod table;
mod throughput;

pub use family::{ComputeCapability, Family};
pub use occupancy::{occupancy, Limiter, Occupancy, OccupancyInput};
#[allow(deprecated)]
pub use table::OccupancyTable;
pub use spec::{Gpu, GpuSpec, ALL_GPUS};
pub use throughput::{InstrClass, OpClass, ThroughputTable, ALL_OP_CLASSES};
