//! The paper's occupancy model (Eqs. 1–5), analyzer-facing.

use oriole_arch::{occupancy as occ_calc, GpuSpec, Limiter, Occupancy, OccupancyInput};

/// Occupancy analysis of one compiled configuration: Eq. 1's argmin with
/// attribution, Eq. 2's ratio, and the per-resource block limits of
/// Eqs. 3–5.
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancyAnalysis {
    /// The raw calculator result.
    pub result: Occupancy,
    /// Inputs used (for reports).
    pub input: OccupancyInput,
    /// Device warp capacity (`W^cc_mp`), denominator of Eq. 2.
    pub warps_per_mp: u32,
}

impl OccupancyAnalysis {
    /// Runs the occupancy model for a block size / register count /
    /// shared-memory footprint triple (the `u`-superscript inputs).
    pub(crate) fn compute(spec: &GpuSpec, input: OccupancyInput) -> OccupancyAnalysis {
        OccupancyAnalysis {
            result: occ_calc(spec, input),
            input,
            warps_per_mp: spec.warps_per_mp,
        }
    }

    /// `occ_mp` of Eq. 2.
    pub(crate) fn occupancy(&self) -> f64 {
        self.result.occupancy
    }

    /// Human-readable limiter attribution.
    pub(crate) fn limiter_text(&self) -> &'static str {
        match self.result.limiter {
            Limiter::Warps => "warp capacity (Eq. 3)",
            Limiter::Registers => "register file (Eq. 4)",
            Limiter::SharedMem => "shared memory (Eq. 5)",
            Limiter::Illegal => "illegal configuration",
        }
    }

    /// Whether raising occupancy requires *lowering* a resource the user
    /// controls (the advice direction of Fig. 7).
    pub(crate) fn advice(&self) -> Option<String> {
        match self.result.limiter {
            Limiter::Registers => Some(format!(
                "register-limited: reducing below {} regs/thread raises occupancy",
                self.input.regs_per_thread
            )),
            Limiter::SharedMem => Some(format!(
                "shared-memory-limited: reducing below {} B/block raises occupancy",
                self.input.smem_per_block
            )),
            Limiter::Warps if self.result.occupancy < 1.0 => Some(
                "warp-limited: choose a block size whose warps divide the SM capacity"
                    .to_string(),
            ),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oriole_arch::Gpu;

    #[test]
    fn analysis_carries_equation_pieces() {
        let spec = Gpu::K20.spec();
        let a = OccupancyAnalysis::compute(
            spec,
            OccupancyInput { tc: 256, regs_per_thread: 27, smem_per_block: 3072, shmem_per_mp: None },
        );
        assert_eq!(a.warps_per_mp, 64);
        assert_eq!(a.occupancy(), 1.0);
        assert!(a.advice().is_none());
        // All three limits materialized.
        assert!(a.result.blocks_by_warps >= 8);
        assert!(a.result.blocks_by_regs >= 8);
        assert!(a.result.blocks_by_smem >= 8);
    }

    #[test]
    fn register_limited_advice() {
        let spec = Gpu::M2050.spec();
        let a = OccupancyAnalysis::compute(
            spec,
            OccupancyInput { tc: 256, regs_per_thread: 63, smem_per_block: 0, shmem_per_mp: None },
        );
        assert!(a.occupancy() < 1.0);
        assert_eq!(a.limiter_text(), "register file (Eq. 4)");
        assert!(a.advice().unwrap().contains("63"));
    }

    #[test]
    fn smem_limited_advice() {
        let spec = Gpu::K20.spec();
        let a = OccupancyAnalysis::compute(
            spec,
            OccupancyInput {
                tc: 128,
                regs_per_thread: 16,
                smem_per_block: 24 * 1024,
                shmem_per_mp: None,
            },
        );
        assert_eq!(a.result.active_blocks, 2);
        assert!(a.advice().unwrap().contains("shared-memory"));
    }

    #[test]
    fn warp_limited_advice_for_awkward_block() {
        // Kepler TC=96 (3 warps): ⌊64/3⌋=21 > 16 slots → 16 blocks,
        // 48 warps → 0.75, warp/slot-limited.
        let spec = Gpu::K20.spec();
        let a = OccupancyAnalysis::compute(spec, OccupancyInput::of_block(96));
        assert!(a.occupancy() < 1.0);
        assert!(a.advice().unwrap().contains("warp-limited"));
    }
}
