//! Mechanical occupancy calculation.
//!
//! This module implements the resource-limit arithmetic of the CUDA
//! Occupancy Calculator — the quantity the paper formalizes as
//! Eqs. 1–5. It lives in `oriole-arch` because both the simulator (to
//! know how many blocks an SM can host) and the static analyzer (to
//! attribute limiters and suggest parameters, `oriole-core`) need it.
//!
//! Deviations from the paper's printed formulas are intentional and
//! documented in DESIGN.md §1: we use the standard calculator algorithm
//! (floor semantics, CC-specific register-allocation granularity), which
//! reproduces the paper's own Table VII occupancy values where the
//! printed equations do not.

use crate::family::Family;
use crate::spec::{warps_per_block, GpuSpec, WARP_SIZE};

/// Resource inputs of the occupancy calculation — the paper's
/// user-superscript quantities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancyInput {
    /// `T_u` — threads per block.
    pub tc: u32,
    /// `R_u` — registers per thread (0 = compiler-chosen minimum; the
    /// calculator then assumes no register constraint, Eq. 4 case 3).
    pub regs_per_thread: u32,
    /// `S_u` — shared memory per block, bytes (0 = none, Eq. 5 case 3).
    pub smem_per_block: u32,
    /// Effective shared memory per SM, when the L1/shared split (`PL`)
    /// reduces it below the device default. `None` = device default.
    pub shmem_per_mp: Option<u32>,
}

impl OccupancyInput {
    /// Input with only a block size (no register/shared pressure).
    pub fn of_block(tc: u32) -> Self {
        Self { tc, regs_per_thread: 0, smem_per_block: 0, shmem_per_mp: None }
    }
}

/// Which resource capped the active-block count (Eq. 1's argmin).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limiter {
    /// Warp/thread capacity (`G_ψW`, Eq. 3) or the raw block-slot limit.
    Warps,
    /// Register file (`G_ψR`, Eq. 4).
    Registers,
    /// Shared memory (`G_ψS`, Eq. 5).
    SharedMem,
    /// The configuration is illegal (zero blocks fit).
    Illegal,
}

/// Result of the occupancy calculation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupancy {
    /// `B*_mp` — active blocks per SM (Eq. 1).
    pub active_blocks: u32,
    /// `W*_mp` — active warps per SM (block-quantized).
    pub active_warps: u32,
    /// `occ_mp` — active warps over the device maximum (Eq. 2).
    pub occupancy: f64,
    /// The binding resource.
    pub limiter: Limiter,
    /// Block limit imposed by warp capacity (Eq. 3).
    pub blocks_by_warps: u32,
    /// Block limit imposed by registers (Eq. 4); `u32::MAX` when
    /// unconstrained.
    pub blocks_by_regs: u32,
    /// Block limit imposed by shared memory (Eq. 5); `u32::MAX` when
    /// unconstrained.
    pub blocks_by_smem: u32,
    /// Register-limited warp capacity *before* block quantization —
    /// the ratio the paper reports as `occ*` in Table VII.
    pub warp_limit_by_regs: u32,
}

/// Rounds `v` up to a multiple of `unit`.
fn ceil_to(v: u32, unit: u32) -> u32 {
    if unit == 0 {
        return v;
    }
    v.div_ceil(unit) * unit
}

/// Shared-memory allocation granularity per family (bytes).
pub(crate) fn smem_alloc_unit(family: Family) -> u32 {
    match family {
        Family::Fermi => 128,
        _ => 256,
    }
}

/// Computes occupancy for `input` on `spec`.
pub fn occupancy(spec: &GpuSpec, input: OccupancyInput) -> Occupancy {
    let warps_per_block = warps_per_block(input.tc);
    let illegal = |limiter: Limiter| Occupancy {
        active_blocks: 0,
        active_warps: 0,
        occupancy: 0.0,
        limiter,
        blocks_by_warps: 0,
        blocks_by_regs: 0,
        blocks_by_smem: 0,
        warp_limit_by_regs: 0,
    };

    if input.tc == 0 || input.tc > spec.threads_per_block {
        return illegal(Limiter::Illegal);
    }
    if input.regs_per_thread > spec.regs_per_thread_max {
        // Eq. 4 case 1: illegal register request.
        return illegal(Limiter::Registers);
    }
    if input.smem_per_block > spec.shmem_per_block {
        // Eq. 5 case 1: illegal shared-memory request.
        return illegal(Limiter::SharedMem);
    }

    // Eq. 3: block limit from warp capacity (and raw block slots).
    let blocks_by_warps = spec.blocks_per_mp.min(spec.warps_per_mp / warps_per_block);

    // Eq. 4: block limit from the register file.
    let (blocks_by_regs, warp_limit_by_regs) = if input.regs_per_thread == 0 {
        (u32::MAX, spec.warps_per_mp)
    } else {
        let cc = spec.compute_capability;
        if cc.warp_granularity_regalloc() {
            // Kepler+: registers allocate per warp, rounded to R^cc_B.
            let regs_per_warp =
                ceil_to(input.regs_per_thread * WARP_SIZE, spec.reg_alloc_unit);
            let warps = spec.regfile_per_mp / regs_per_warp;
            (warps / warps_per_block, warps.min(spec.warps_per_mp))
        } else {
            // Fermi: registers allocate per block, rounded to R^cc_B.
            let regs_per_block = ceil_to(
                input.regs_per_thread * WARP_SIZE * warps_per_block,
                spec.reg_alloc_unit,
            );
            let blocks = spec.regfile_per_mp / regs_per_block;
            // Warp-granular capacity for the Table VII-style ratio.
            let regs_per_warp =
                ceil_to(input.regs_per_thread * WARP_SIZE, spec.reg_alloc_unit);
            let warps = spec.regfile_per_mp / regs_per_warp;
            (blocks, warps.min(spec.warps_per_mp))
        }
    };

    // Eq. 5: block limit from shared memory.
    let shmem_per_mp = input.shmem_per_mp.unwrap_or(spec.shmem_per_mp);
    let blocks_by_smem = if input.smem_per_block == 0 {
        u32::MAX
    } else {
        let per_block = ceil_to(input.smem_per_block, smem_alloc_unit(spec.family));
        shmem_per_mp / per_block
    };

    // Eq. 1: the argmin.
    let active_blocks = blocks_by_warps.min(blocks_by_regs).min(blocks_by_smem);
    let limiter = if active_blocks == blocks_by_smem && blocks_by_smem < blocks_by_warps.min(blocks_by_regs) {
        Limiter::SharedMem
    } else if active_blocks == blocks_by_regs && blocks_by_regs < blocks_by_warps {
        Limiter::Registers
    } else if active_blocks > 0 {
        Limiter::Warps
    } else {
        // Zero blocks with no single resource below the others can only
        // mean the warp path zeroed out (oversized block), which the
        // guards above already rejected — keep the attribution total.
        if blocks_by_smem == 0 {
            Limiter::SharedMem
        } else if blocks_by_regs == 0 {
            Limiter::Registers
        } else {
            Limiter::Warps
        }
    };
    let active_warps = active_blocks.saturating_mul(warps_per_block).min(spec.warps_per_mp);
    Occupancy {
        active_blocks,
        active_warps,
        occupancy: f64::from(active_warps) / f64::from(spec.warps_per_mp),
        limiter,
        blocks_by_warps,
        blocks_by_regs,
        blocks_by_smem,
        warp_limit_by_regs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Gpu;

    #[test]
    fn unconstrained_full_occupancy_block_sizes() {
        // Kepler: 64 warps/SM, ≤16 blocks → TC ∈ {128, 256, 512, 1024}
        // reach occupancy 1 with no other pressure (paper Table VII).
        let spec = Gpu::K20.spec();
        for tc in [128u32, 256, 512, 1024] {
            let o = occupancy(spec, OccupancyInput::of_block(tc));
            assert_eq!(o.occupancy, 1.0, "TC={tc}");
            assert_eq!(o.limiter, Limiter::Warps);
        }
        // TC=64 → needs 32 blocks, only 16 slots → 32 warps → 0.5.
        let o = occupancy(spec, OccupancyInput::of_block(64));
        assert_eq!(o.active_blocks, 16);
        assert_eq!(o.occupancy, 0.5);
    }

    #[test]
    fn fermi_full_occupancy_block_sizes_match_table_vii() {
        // Fermi T* = {192, 256, 384, 512, 768}: exactly the block sizes
        // whose warp counts divide 48 within 8 block slots.
        let spec = Gpu::M2050.spec();
        for tc in [192u32, 256, 384, 512, 768] {
            let o = occupancy(spec, OccupancyInput::of_block(tc));
            assert_eq!(o.occupancy, 1.0, "TC={tc}");
        }
        for tc in [32u32, 64, 128, 1024] {
            let o = occupancy(spec, OccupancyInput::of_block(tc));
            assert!(o.occupancy < 1.0, "TC={tc} unexpectedly reaches 1.0");
        }
    }

    #[test]
    fn register_limited_warp_ratios_match_table_vii() {
        // Fermi BiCG: 27 regs → ceil64(27·32)=896 → ⌊32768/896⌋=36 warps
        // → 36/48 = 0.75 (paper occ* = .75).
        let spec = Gpu::M2050.spec();
        let o = occupancy(
            spec,
            OccupancyInput { tc: 192, regs_per_thread: 27, smem_per_block: 0, shmem_per_mp: None },
        );
        assert_eq!(o.warp_limit_by_regs, 36);
        assert!((f64::from(o.warp_limit_by_regs) / 48.0 - 0.75).abs() < 1e-12);

        // Fermi ex14FJ: 30 regs → ⌊32768/960⌋=34 warps → .71.
        let o = occupancy(
            spec,
            OccupancyInput { tc: 192, regs_per_thread: 30, smem_per_block: 0, shmem_per_mp: None },
        );
        assert_eq!(o.warp_limit_by_regs, 34);
        assert!((f64::from(o.warp_limit_by_regs) / 48.0 - 0.708).abs() < 0.01);
    }

    #[test]
    fn kepler_register_headroom_matches_table_vii() {
        // Kepler ATAX [27 : 5]: at 27 regs full occupancy holds; the
        // max register count preserving 64 warps is 32 (headroom 5).
        let spec = Gpu::K20.spec();
        for regs in [27u32, 32] {
            let o = occupancy(
                spec,
                OccupancyInput {
                    tc: 256,
                    regs_per_thread: regs,
                    smem_per_block: 0,
                    shmem_per_mp: None,
                },
            );
            assert_eq!(o.occupancy, 1.0, "regs={regs}");
        }
        let o = occupancy(
            spec,
            OccupancyInput { tc: 256, regs_per_thread: 33, smem_per_block: 0, shmem_per_mp: None },
        );
        assert!(o.occupancy < 1.0, "33 regs must break full occupancy");
    }

    #[test]
    fn shared_memory_limits_blocks() {
        let spec = Gpu::K20.spec();
        // 12 KiB/block → ⌊48K/12K⌋ = 4 blocks → with TC=256 (8 warps),
        // 32 warps → 0.5.
        let o = occupancy(
            spec,
            OccupancyInput {
                tc: 256,
                regs_per_thread: 0,
                smem_per_block: 12 * 1024,
                shmem_per_mp: None,
            },
        );
        assert_eq!(o.active_blocks, 4);
        assert_eq!(o.limiter, Limiter::SharedMem);
        assert_eq!(o.occupancy, 0.5);
    }

    #[test]
    fn l1_split_reduces_shared_capacity() {
        // Kepler with PreferL1 (48K L1) leaves 16K shared: a 12 KiB/block
        // kernel fits only one block.
        let spec = Gpu::K20.spec();
        let o = occupancy(
            spec,
            OccupancyInput {
                tc: 256,
                regs_per_thread: 0,
                smem_per_block: 12 * 1024,
                shmem_per_mp: Some(16 * 1024),
            },
        );
        assert_eq!(o.active_blocks, 1);
    }

    #[test]
    fn illegal_inputs_zero_occupancy() {
        let spec = Gpu::M2050.spec();
        // Eq. 4 case 1: >63 regs on Fermi.
        let o = occupancy(
            spec,
            OccupancyInput { tc: 256, regs_per_thread: 64, smem_per_block: 0, shmem_per_mp: None },
        );
        assert_eq!(o.active_blocks, 0);
        assert_eq!(o.limiter, Limiter::Registers);
        // Eq. 5 case 1: >48 KiB shared.
        let o = occupancy(
            spec,
            OccupancyInput {
                tc: 256,
                regs_per_thread: 0,
                smem_per_block: 50 * 1024,
                shmem_per_mp: None,
            },
        );
        assert_eq!(o.limiter, Limiter::SharedMem);
        // Zero or oversized block.
        assert_eq!(occupancy(spec, OccupancyInput::of_block(0)).limiter, Limiter::Illegal);
        assert_eq!(occupancy(spec, OccupancyInput::of_block(2048)).limiter, Limiter::Illegal);
    }

    #[test]
    fn occupancy_monotone_in_resource_generosity() {
        // More registers per thread can never increase occupancy.
        let spec = Gpu::M40.spec();
        let mut prev = f64::INFINITY;
        for regs in [0u32, 16, 32, 64, 128, 255] {
            let o = occupancy(
                spec,
                OccupancyInput {
                    tc: 256,
                    regs_per_thread: regs,
                    smem_per_block: 0,
                    shmem_per_mp: None,
                },
            );
            assert!(o.occupancy <= prev, "regs={regs}");
            prev = o.occupancy;
        }
    }

    #[test]
    fn odd_block_sizes_round_to_warps() {
        let spec = Gpu::P100.spec();
        // 33 threads occupy 2 warps.
        let o = occupancy(spec, OccupancyInput::of_block(33));
        assert_eq!(o.active_blocks, 32);
        assert_eq!(o.active_warps, 64);
    }
}
