//! [`OccupancyTable`]: the name `benchmark/API.md` knows a device's
//! occupancy calculator by. The memo it named cost four times the
//! arithmetic it saved and is gone; what is left is a [`GpuSpec`]
//! newtype that calls [`occupancy`], until the benchmark re-base.

#![allow(deprecated)]

use crate::occupancy::{occupancy, Occupancy, OccupancyInput};
use crate::spec::GpuSpec;

/// A device, under the name its occupancy memo had. Call
/// [`occupancy`] instead.
#[deprecated(note = "benchmark/API.md compatibility; removed by the benchmark re-base (ROADMAP item 1(i))")]
#[derive(Debug)]
pub struct OccupancyTable(GpuSpec);

impl OccupancyTable {
    /// Wraps a copy of `spec`, so synthetic devices work too.
    pub fn new(spec: &GpuSpec) -> OccupancyTable {
        OccupancyTable(spec.clone())
    }

    /// The device.
    pub fn spec(&self) -> &GpuSpec {
        &self.0
    }

    /// `occupancy(self.spec(), input)`.
    pub fn lookup(&self, input: OccupancyInput) -> Occupancy {
        occupancy(&self.0, input)
    }
}
