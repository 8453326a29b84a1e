//! The Table I GPU database.

use crate::family::{ComputeCapability, Family};
use crate::occupancy::smem_alloc_unit;
use crate::throughput::ThroughputTable;
use std::fmt;

/// The four GPUs used in the paper's experiments (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gpu {
    /// Tesla M2050 (Fermi, cc 2.0).
    M2050,
    /// Tesla K20 (Kepler, cc 3.5).
    K20,
    /// Tesla M40 (Maxwell, cc 5.2).
    M40,
    /// Tesla P100 (Pascal, cc 6.0).
    P100,
}

/// All four evaluation GPUs in Table I column order.
pub const ALL_GPUS: [Gpu; 4] = [Gpu::M2050, Gpu::K20, Gpu::M40, Gpu::P100];

impl Gpu {
    /// The full hardware description for this GPU.
    pub fn spec(self) -> &'static GpuSpec {
        match self {
            Gpu::M2050 => &M2050,
            Gpu::K20 => &K20,
            Gpu::M40 => &M40,
            Gpu::P100 => &P100,
        }
    }

    /// Looks a GPU up by its marketing name (`"K20"`), family name
    /// (`"Kepler"`), or single-letter figure label (`"K"`);
    /// case-insensitive.
    pub fn parse(name: &str) -> Option<Gpu> {
        let lower = name.trim().to_ascii_lowercase();
        let gpu = match lower.as_str() {
            "m2050" | "fermi" | "f" => Gpu::M2050,
            "k20" | "kepler" | "k" => Gpu::K20,
            "m40" | "maxwell" | "m" => Gpu::M40,
            "p100" | "pascal" | "p" => Gpu::P100,
            _ => return None,
        };
        Some(gpu)
    }
}

impl fmt::Display for Gpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spec().name)
    }
}

/// Hardware description of one GPU: every row of the paper's Table I plus
/// the per-SM shared-memory capacity (needed by Eq. 5 but omitted from the
/// printed table — see DESIGN.md §1).
///
/// Field names follow the paper's symbols where one exists; each doc
/// comment states the symbol.
///
/// `Eq`/`Hash` are structural over every field, so a spec clone can key
/// process-level caches without relying on `&'static` pointer identity —
/// synthetic and custom devices participate on equal footing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GpuSpec {
    /// Marketing name ("M2050", "K20", "M40", "P100").
    pub name: &'static str,
    /// Architecture family (final row of Table I).
    pub family: Family,
    /// `cc` — CUDA compute capability.
    pub compute_capability: ComputeCapability,
    /// Global memory in MiB.
    pub global_mem_mib: u32,
    /// `mp` — number of streaming multiprocessors.
    pub multiprocessors: u32,
    /// CUDA cores per multiprocessor.
    pub cores_per_mp: u32,
    /// GPU core clock in MHz.
    pub gpu_clock_mhz: u32,
    /// Memory clock in MHz.
    pub mem_clock_mhz: u32,
    /// L2 cache size in bytes.
    pub l2_cache_bytes: u64,
    /// Constant memory in bytes.
    pub const_mem_bytes: u32,
    /// `S^cc_B` — maximum shared memory per block, bytes.
    pub shmem_per_block: u32,
    /// `S^cc_mp` — shared memory per multiprocessor, bytes (not printed in
    /// Table I; family datasheet value).
    pub shmem_per_mp: u32,
    /// `R^cc_fs` — register file size per multiprocessor (32-bit regs).
    pub regfile_per_mp: u32,
    /// `W_B` — warp size in threads (32 on all four GPUs).
    pub warp_size: u32,
    /// `T^cc_mp` — maximum resident threads per multiprocessor.
    pub threads_per_mp: u32,
    /// `T^cc_B` — maximum threads per block.
    pub threads_per_block: u32,
    /// `B^cc_mp` — maximum resident blocks per multiprocessor.
    pub blocks_per_mp: u32,
    /// `T^cc_W` — threads per warp (identical to `warp_size`; the paper
    /// lists both, so we carry both).
    pub threads_per_warp: u32,
    /// `W^cc_mp` — maximum resident warps per multiprocessor.
    pub warps_per_mp: u32,
    /// `R^cc_B` — register allocation granularity (registers are allocated
    /// in units of this size).
    pub reg_alloc_unit: u32,
    /// `R^cc_T` — maximum registers per thread.
    pub regs_per_thread_max: u32,
}

impl GpuSpec {
    /// Total CUDA cores (`multiprocessors * cores_per_mp`), the "CUDA
    /// cores" row of Table I.
    pub fn total_cores(&self) -> u32 {
        self.multiprocessors * self.cores_per_mp
    }

    /// The Table II throughput model for this GPU's compute capability.
    pub fn throughput(&self) -> &'static ThroughputTable {
        ThroughputTable::for_family(self.family)
    }

    /// Warps needed to hold `threads` threads: `ceil(threads / T^cc_W)`.
    /// This is the paper's `W_B` for a user block size `T_u`.
    pub fn warps_per_block(&self, threads: u32) -> u32 {
        threads.div_ceil(self.threads_per_warp)
    }

    /// Why this description cannot serve as a device (empty = it can;
    /// Table I's have none). For specs that arrive from outside — a wire
    /// frame, a synthetic device: every field the occupancy calculator
    /// and the timing models divide by is non-zero, a warp has the IR's
    /// 32 lanes, and the `u32` products they form cannot wrap.
    pub fn problems(&self) -> Vec<String> {
        let wide = u64::from;
        let divisors = [
            ("multiprocessors", self.multiprocessors),
            ("gpu_clock_mhz", self.gpu_clock_mhz),
            ("threads_per_warp", self.threads_per_warp),
            ("warp_size", self.warp_size),
            ("warps_per_mp", self.warps_per_mp),
        ];
        // Eq. 4 rounds `R_u · T_W · W_B` up to the allocation unit, with
        // `R_u` up to `R_T` and `W_B · T_W` under `T_B + T_W`; Eq. 5
        // rounds `S_u`, up to `S_B`, to the shared-memory granule; the
        // timing models count block slots across the device.
        let products = [
            (
                "register allocation",
                wide(self.regs_per_thread_max)
                    .saturating_mul(wide(self.threads_per_block) + wide(self.threads_per_warp))
                    .saturating_add(wide(self.reg_alloc_unit)),
            ),
            (
                "shared-memory allocation",
                wide(self.shmem_per_block) + wide(smem_alloc_unit(self.family)),
            ),
            ("block-slot count", wide(self.blocks_per_mp) * wide(self.multiprocessors)),
        ];
        let zero = divisors.iter().filter(|(_, v)| *v == 0);
        let wrapped = products.iter().filter(|(_, v)| *v > wide(u32::MAX));
        let warp_width = [("threads_per_warp", self.threads_per_warp), ("warp_size", self.warp_size)]
            .into_iter()
            .filter(|(_, v)| !matches!(v, 0 | 32))
            .map(|(field, _)| format!("{field} must be 32, the IR's 32-lane warp model"));
        zero.map(|(field, _)| format!("{field} must be positive"))
            .chain(warp_width)
            .chain(wrapped.map(|(what, _)| format!("the {what} does not fit 32 bits")))
            .collect()
    }
}

impl fmt::Display for GpuSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, cc {}, {} SMs, {} cores)",
            self.name,
            self.family,
            self.compute_capability,
            self.multiprocessors,
            self.total_cores()
        )
    }
}

/// Tesla M2050 (Fermi) — Table I column 1.
pub(crate) static M2050: GpuSpec = GpuSpec {
    name: "M2050",
    family: Family::Fermi,
    compute_capability: ComputeCapability::new(2, 0),
    global_mem_mib: 3072,
    multiprocessors: 14,
    cores_per_mp: 32,
    gpu_clock_mhz: 1147,
    mem_clock_mhz: 1546,
    l2_cache_bytes: 786_432,
    const_mem_bytes: 65_536,
    shmem_per_block: 49_152,
    shmem_per_mp: 49_152,
    regfile_per_mp: 32_768,
    warp_size: 32,
    threads_per_mp: 1536,
    threads_per_block: 1024,
    blocks_per_mp: 8,
    threads_per_warp: 32,
    warps_per_mp: 48,
    reg_alloc_unit: 64,
    regs_per_thread_max: 63,
};

/// Tesla K20 (Kepler) — Table I column 2.
pub(crate) static K20: GpuSpec = GpuSpec {
    name: "K20",
    family: Family::Kepler,
    compute_capability: ComputeCapability::new(3, 5),
    global_mem_mib: 11_520,
    multiprocessors: 13,
    cores_per_mp: 192,
    gpu_clock_mhz: 824,
    mem_clock_mhz: 2505,
    l2_cache_bytes: 1_572_864,
    const_mem_bytes: 65_536,
    shmem_per_block: 49_152,
    shmem_per_mp: 49_152,
    regfile_per_mp: 65_536,
    warp_size: 32,
    threads_per_mp: 2048,
    threads_per_block: 1024,
    blocks_per_mp: 16,
    threads_per_warp: 32,
    warps_per_mp: 64,
    reg_alloc_unit: 256,
    regs_per_thread_max: 255,
};

/// Tesla M40 (Maxwell) — Table I column 3.
pub(crate) static M40: GpuSpec = GpuSpec {
    name: "M40",
    family: Family::Maxwell,
    compute_capability: ComputeCapability::new(5, 2),
    global_mem_mib: 12_288,
    multiprocessors: 24,
    cores_per_mp: 128,
    gpu_clock_mhz: 1140,
    mem_clock_mhz: 5000,
    l2_cache_bytes: 3_145_728,
    const_mem_bytes: 65_536,
    shmem_per_block: 49_152,
    shmem_per_mp: 98_304,
    regfile_per_mp: 65_536,
    warp_size: 32,
    threads_per_mp: 2048,
    threads_per_block: 1024,
    blocks_per_mp: 32,
    threads_per_warp: 32,
    warps_per_mp: 64,
    reg_alloc_unit: 256,
    regs_per_thread_max: 255,
};

/// Tesla P100 (Pascal) — Table I column 4.
pub(crate) static P100: GpuSpec = GpuSpec {
    name: "P100",
    family: Family::Pascal,
    compute_capability: ComputeCapability::new(6, 0),
    global_mem_mib: 17_066,
    multiprocessors: 56,
    cores_per_mp: 64,
    gpu_clock_mhz: 405,
    mem_clock_mhz: 715,
    l2_cache_bytes: 4_194_304,
    const_mem_bytes: 65_536,
    shmem_per_block: 49_152,
    shmem_per_mp: 65_536,
    regfile_per_mp: 65_536,
    warp_size: 32,
    threads_per_mp: 2048,
    threads_per_block: 1024,
    blocks_per_mp: 32,
    threads_per_warp: 32,
    warps_per_mp: 64,
    reg_alloc_unit: 256,
    regs_per_thread_max: 255,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_total_cores() {
        // "CUDA cores" row: 448, 2496, 3072, 3584.
        assert_eq!(Gpu::M2050.spec().total_cores(), 448);
        assert_eq!(Gpu::K20.spec().total_cores(), 2496);
        assert_eq!(Gpu::M40.spec().total_cores(), 3072);
        assert_eq!(Gpu::P100.spec().total_cores(), 3584);
    }

    #[test]
    fn table_i_resident_limits() {
        let fermi = Gpu::M2050.spec();
        assert_eq!(fermi.threads_per_mp, 1536);
        assert_eq!(fermi.warps_per_mp, 48);
        assert_eq!(fermi.blocks_per_mp, 8);
        assert_eq!(fermi.regfile_per_mp, 32_768);
        assert_eq!(fermi.reg_alloc_unit, 64);
        assert_eq!(fermi.regs_per_thread_max, 63);

        for gpu in [Gpu::K20, Gpu::M40, Gpu::P100] {
            let s = gpu.spec();
            assert_eq!(s.threads_per_mp, 2048, "{}", s.name);
            assert_eq!(s.warps_per_mp, 64, "{}", s.name);
            assert_eq!(s.regfile_per_mp, 65_536, "{}", s.name);
            assert_eq!(s.reg_alloc_unit, 256, "{}", s.name);
            assert_eq!(s.regs_per_thread_max, 255, "{}", s.name);
        }
        assert_eq!(Gpu::K20.spec().blocks_per_mp, 16);
        assert_eq!(Gpu::M40.spec().blocks_per_mp, 32);
        assert_eq!(Gpu::P100.spec().blocks_per_mp, 32);
    }

    #[test]
    fn warp_invariants() {
        for gpu in ALL_GPUS {
            let s = gpu.spec();
            assert_eq!(s.warp_size, 32);
            assert_eq!(s.threads_per_warp, s.warp_size);
            // Resident-warp and resident-thread limits must agree.
            assert_eq!(s.threads_per_mp, s.warps_per_mp * s.warp_size, "{}", s.name);
            assert_eq!(s.shmem_per_block, 49_152, "{}", s.name);
            assert_eq!(s.const_mem_bytes, 65_536, "{}", s.name);
            // Per-SM shared memory can never be smaller than per-block.
            assert!(s.shmem_per_mp >= s.shmem_per_block, "{}", s.name);
        }
    }

    #[test]
    fn warps_per_block_rounds_up() {
        let s = Gpu::K20.spec();
        assert_eq!(s.warps_per_block(1), 1);
        assert_eq!(s.warps_per_block(32), 1);
        assert_eq!(s.warps_per_block(33), 2);
        assert_eq!(s.warps_per_block(1024), 32);
    }

    #[test]
    fn problems_name_every_degenerate_field_and_no_table_i_device() {
        for gpu in ALL_GPUS {
            assert_eq!(gpu.spec().problems(), Vec::<String>::new(), "{gpu}");
        }
        let k20 = Gpu::K20.spec();
        for (poisoned, needle) in [
            (GpuSpec { multiprocessors: 0, ..k20.clone() }, "multiprocessors"),
            (GpuSpec { gpu_clock_mhz: 0, ..k20.clone() }, "gpu_clock_mhz"),
            (GpuSpec { threads_per_warp: 0, ..k20.clone() }, "threads_per_warp must be positive"),
            (GpuSpec { threads_per_warp: 64, ..k20.clone() }, "32-lane warp model"),
            (GpuSpec { warp_size: 0, ..k20.clone() }, "warp_size must be positive"),
            (GpuSpec { warp_size: 16, ..k20.clone() }, "warp_size must be 32"),
            (GpuSpec { warps_per_mp: 0, ..k20.clone() }, "warps_per_mp"),
            // 2^27 registers x 32 lanes wraps to a zero divisor.
            (GpuSpec { regs_per_thread_max: 1 << 27, ..k20.clone() }, "register allocation"),
            (GpuSpec { threads_per_block: u32::MAX, ..k20.clone() }, "register allocation"),
            (GpuSpec { reg_alloc_unit: u32::MAX, ..k20.clone() }, "register allocation"),
            (GpuSpec { shmem_per_block: u32::MAX - 255, ..k20.clone() }, "shared-memory allocation"),
            (GpuSpec { blocks_per_mp: u32::MAX / 13 + 1, ..k20.clone() }, "block-slot count"),
        ] {
            let problems = poisoned.problems();
            assert_eq!(problems.len(), 1, "{problems:?}");
            assert!(problems[0].contains(needle), "{problems:?}");
        }
        // Large is not degenerate: the widest values that still fit.
        let wide = GpuSpec {
            shmem_per_block: u32::MAX - 256,
            blocks_per_mp: u32::MAX / 13,
            reg_alloc_unit: 0,
            ..k20.clone()
        };
        assert_eq!(wide.problems(), Vec::<String>::new());
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(Gpu::parse("k20"), Some(Gpu::K20));
        assert_eq!(Gpu::parse("Maxwell"), Some(Gpu::M40));
        assert_eq!(Gpu::parse(" P "), Some(Gpu::P100));
        assert_eq!(Gpu::parse("Volta"), None);
    }

    #[test]
    fn display_is_informative() {
        let text = Gpu::K20.spec().to_string();
        assert!(text.contains("K20") && text.contains("Kepler") && text.contains("3.5"));
    }
}
