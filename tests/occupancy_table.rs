//! What the occupancy calculator can and cannot tell apart, checked
//! exhaustively for every GPU in Table I.
//!
//! The block size acts only through its warp count, shared memory only
//! through its allocation-granule count, and the per-SM shared capacity
//! only through the values the `PL` split can produce. So inputs that
//! share a warp bucket, a shared-memory granule and an L1 split must get
//! equal results, field for field — the property the retired
//! `OccupancyTable` memo keyed on, stated about `occupancy()` itself
//! over the same domain: every warp bucket of the block-size axis (with
//! off-multiple representatives), every register count up to the device
//! cap, every shared-memory granule up to the per-block limit (with
//! off-granule representatives), and every split. The two cartesian
//! sweeps below divide the domain where the calculator's arithmetic
//! actually couples axes: registers interact with the warp bucket
//! (Fermi's per-block rounding, Eq. 4), shared memory only meets the
//! other limits in the Eq. 1 argmin, which multiple register levels
//! exercise.

use oriole::arch::{occupancy, Family, Gpu, GpuSpec, Limiter, OccupancyInput, ALL_GPUS};

/// The per-SM shared-capacity values reachable on a device: the default
/// (`None`) plus the explicit L1/shared splits for families that carve a
/// 64 KiB array (both appear as `Some` through the simulator).
fn splits(spec: &GpuSpec) -> Vec<Option<u32>> {
    match spec.family {
        Family::Fermi | Family::Kepler => {
            vec![None, Some(16 * 1024), Some(48 * 1024)]
        }
        Family::Maxwell | Family::Pascal => vec![None, Some(spec.shmem_per_mp)],
    }
}

/// Shared-memory allocation granularity (mirrors the calculator's
/// family rule; asserted against behavior in the sweep itself).
fn smem_unit(spec: &GpuSpec) -> u32 {
    match spec.family {
        Family::Fermi => 128,
        _ => 256,
    }
}

/// `other` lies in `bucket`'s quantization bucket: same result.
fn check(spec: &GpuSpec, bucket: OccupancyInput, other: OccupancyInput) {
    assert_eq!(
        occupancy(spec, other),
        occupancy(spec, bucket),
        "{}: {other:?} vs {bucket:?}",
        spec.name
    );
}

#[test]
fn full_register_by_warp_domain_agrees() {
    // Every (tc bucket × register count × split), with the shared-memory
    // axis at four levels spanning unconstrained → near-limit. Each warp
    // bucket is probed at its multiple (w·32), its low edge
    // (1 + (w-1)·32) and its interior (w·32−1).
    for gpu in ALL_GPUS {
        let spec = gpu.spec();
        let smem_levels = [0u32, 1024, 24 * 1024, spec.shmem_per_block];
        for split in splits(spec) {
            for w in 1..=(spec.threads_per_block / 32) {
                for regs in 0..=spec.regs_per_thread_max {
                    for smem in smem_levels {
                        let at = |tc| OccupancyInput {
                            tc,
                            regs_per_thread: regs,
                            smem_per_block: smem,
                            shmem_per_mp: split,
                        };
                        check(spec, at(32 * w), at(32 * w - 31));
                        check(spec, at(32 * w), at(32 * w - 1));
                    }
                }
            }
        }
    }
}

#[test]
fn full_shared_memory_domain_agrees() {
    // Every shared-memory granule up to the per-block limit, at every
    // warp bucket and split, with register levels spanning
    // unconstrained, moderate and register-limited. Each granule is
    // probed at its exact multiple, one byte below it (the rounding
    // edge) and at its first byte; one byte above the final granule is
    // illegal.
    for gpu in ALL_GPUS {
        let spec = gpu.spec();
        let unit = smem_unit(spec);
        let reg_levels = [0u32, 24, spec.regs_per_thread_max];
        for split in splits(spec) {
            for w in 1..=(spec.threads_per_block / 32) {
                let at = |regs, smem| OccupancyInput {
                    tc: 32 * w,
                    regs_per_thread: regs,
                    smem_per_block: smem,
                    shmem_per_mp: split,
                };
                for g in 1..=(spec.shmem_per_block / unit) {
                    let edge = g * unit;
                    for regs in reg_levels {
                        check(spec, at(regs, edge), at(regs, edge - 1));
                        check(spec, at(regs, edge), at(regs, edge - unit + 1));
                    }
                }
                let past = occupancy(spec, at(0, spec.shmem_per_block + 1));
                assert_eq!((past.active_blocks, past.limiter), (0, Limiter::SharedMem));
            }
        }
    }
}

#[test]
fn kepler_l1_split_cases_agree_and_change_results() {
    // The Kepler (and Fermi) L1/shared split must act both correctly and
    // *meaningfully*: the default capacity is the PreferShared one, and
    // PreferL1 (16 K shared) caps block residency for tile users where
    // PreferShared (48 K) does not.
    for gpu in [Gpu::K20, Gpu::M2050] {
        let spec = gpu.spec();
        let tile = OccupancyInput {
            tc: 256,
            regs_per_thread: 24,
            smem_per_block: 12 * 1024,
            shmem_per_mp: None,
        };
        let prefer_l1 = OccupancyInput { shmem_per_mp: Some(16 * 1024), ..tile };
        let prefer_shared = OccupancyInput { shmem_per_mp: Some(48 * 1024), ..tile };
        check(spec, tile, prefer_shared);
        assert!(
            occupancy(spec, prefer_l1).active_blocks
                < occupancy(spec, prefer_shared).active_blocks,
            "{}: the split must bite for 12 KiB tiles",
            spec.name
        );
    }
}
