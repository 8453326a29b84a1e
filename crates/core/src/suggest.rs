//! Parameter suggestion — the Table VII outputs.
//!
//! For a compiled kernel on a target GPU the analyzer suggests:
//!
//! * `T*` — the thread counts (block sizes) at which the warp math alone
//!   permits theoretical occupancy 1.0 (Fermi: {192, 256, 384, 512, 768};
//!   Kepler: {128, 256, 512, 1024}; Maxwell/Pascal: {64, 128, 256, 512,
//!   1024} — exactly the paper's sets);
//! * `[R_u : R*]` — registers used and the increase potential before
//!   occupancy at `T*` drops;
//! * `S*` — the shared-memory headroom per block at the achieved
//!   occupancy;
//! * `occ*` — the occupancy theoretically achievable given the kernel's
//!   actual register usage (the unquantized register-limited warp ratio;
//!   see DESIGN.md §1 on why the paper's own Table VII mixes quantized
//!   and unquantized values).

#[allow(deprecated)]
use oriole_arch::OccupancyTable;
use oriole_arch::{occupancy, GpuSpec, OccupancyInput, WARP_SIZE};
use oriole_codegen::CompiledKernel;

/// The analyzer's Table VII row for one kernel/GPU pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Suggestion {
    /// `T*`: block sizes achieving theoretical occupancy (warp math).
    pub thread_counts: Vec<u32>,
    /// `R_u`: registers per thread the kernel currently uses.
    pub regs_used: u32,
    /// `R*`: how many more registers per thread fit before occupancy at
    /// the suggested block sizes drops.
    pub reg_headroom: u32,
    /// `S*`: shared-memory headroom per block (bytes) at the achieved
    /// active-block count.
    pub smem_headroom: u32,
    /// `occ*`: occupancy achievable with the kernel's register usage.
    pub occ_star: f64,
}

/// Block sizes (warp multiples up to the device limit) whose warp count
/// alone permits full occupancy — the `T*` candidate set.
pub fn full_occupancy_block_sizes(spec: &GpuSpec) -> Vec<u32> {
    (1..=spec.threads_per_block / WARP_SIZE)
        .map(|warps| warps * WARP_SIZE)
        .filter(|&tc| occupancy(spec, OccupancyInput::of_block(tc)).occupancy == 1.0)
        .collect()
}

/// Computes the Table VII suggestion for a compiled kernel.
pub fn suggest(kernel: &CompiledKernel) -> Suggestion {
    suggest_from(&kernel.gpu, kernel.regs_per_thread(), kernel.smem_per_block)
}

/// [`suggest`] from raw resource numbers (the disassembly-header path:
/// everything needed is in the `ptxas`-style metadata).
pub fn suggest_from(spec: &GpuSpec, regs_per_thread: u32, smem: u32) -> Suggestion {
    let regs_used = regs_per_thread.max(1);

    let thread_counts = full_occupancy_block_sizes(spec);

    // occ*: the register-limited warp capacity ratio at the kernel's
    // actual register usage (unquantized, as Table VII reports it).
    let probe_tc = thread_counts.first().copied().unwrap_or(WARP_SIZE);
    let at = |regs_per_thread| {
        let input =
            OccupancyInput { tc: probe_tc, regs_per_thread, smem_per_block: smem, shmem_per_mp: None };
        occupancy(spec, input)
    };
    let at_regs = at(regs_used);
    let occ_star =
        f64::from(at_regs.warp_limit_by_regs.min(spec.warps_per_mp)) / f64::from(spec.warps_per_mp);

    // R*: the largest register count that keeps the register-limited
    // warp capacity at its current level.
    let current_cap = at_regs.warp_limit_by_regs.min(spec.warps_per_mp);
    let mut max_regs = regs_used;
    for r in regs_used..=spec.regs_per_thread_max {
        if at(r).warp_limit_by_regs.min(spec.warps_per_mp) >= current_cap {
            max_regs = r;
        } else {
            break;
        }
    }

    // S*: shared headroom per block at the achieved active-block count
    // (paper convention: the S^cc_B pool divided over active blocks).
    let active = at_regs.active_blocks.max(1);
    let per_block_share = spec.shmem_per_block / active;
    let smem_headroom = per_block_share.saturating_sub(smem);

    Suggestion {
        thread_counts,
        regs_used,
        reg_headroom: max_regs - regs_used,
        smem_headroom,
        occ_star,
    }
}

/// [`suggest_from`] under the signature `benchmark/API.md` names.
#[deprecated(note = "benchmark/API.md compatibility; removed by the benchmark re-base (ROADMAP item 1(i))")]
#[allow(deprecated)]
pub fn suggest_from_in(table: &OccupancyTable, regs_per_thread: u32, smem: u32) -> Suggestion {
    suggest_from(table.spec(), regs_per_thread, smem)
}

impl Suggestion {
    /// Formats like a Table VII row: `T*`, `[Ru : R*]`, `S*`, `occ*`.
    pub fn row(&self) -> String {
        let threads: Vec<String> = self.thread_counts.iter().map(|t| t.to_string()).collect();
        format!(
            "T*={{{}}} [R={}:{}] S*={} occ*={:.2}",
            threads.join(","),
            self.regs_used,
            self.reg_headroom,
            self.smem_headroom,
            self.occ_star
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oriole_arch::Gpu;
    use oriole_codegen::{compile, TuningParams};
    use oriole_kernels::KernelId;

    #[test]
    fn t_star_sets_match_table_vii_exactly() {
        assert_eq!(
            full_occupancy_block_sizes(Gpu::M2050.spec()),
            vec![192, 256, 384, 512, 768]
        );
        assert_eq!(
            full_occupancy_block_sizes(Gpu::K20.spec()),
            vec![128, 256, 512, 1024]
        );
        assert_eq!(
            full_occupancy_block_sizes(Gpu::M40.spec()),
            vec![64, 128, 256, 512, 1024]
        );
        assert_eq!(
            full_occupancy_block_sizes(Gpu::P100.spec()),
            vec![64, 128, 256, 512, 1024]
        );
    }

    fn suggestion(kid: KernelId, gpu: Gpu) -> Suggestion {
        let kernel =
            compile(&kid.ast(128), gpu.spec(), TuningParams::with_geometry(128, 48)).unwrap();
        suggest(&kernel)
    }

    #[test]
    fn kepler_headroom_is_complement_to_32() {
        // Kepler at full occupancy: 65536/2048 = 32 regs/thread is the
        // ceiling, so headroom = 32 − R_u whenever R_u ≤ 32 (paper rows
        // like ATAX [27:5], BiCG [28:4]).
        let s = suggestion(KernelId::Atax, Gpu::K20);
        assert!(s.regs_used <= 32, "ATAX outgrew the Kepler ceiling: {}", s.row());
        assert_eq!(s.regs_used + s.reg_headroom, 32, "{}", s.row());
        assert_eq!(s.occ_star, 1.0);
    }

    #[test]
    fn fermi_occ_star_below_one_for_register_heavy_kernels() {
        // Fermi's 32 K register file sustains 48 warps up to 20
        // regs/thread (⌊32768 / ceil64(21·32)⌋ = 46 warps); the paper's
        // register-heavy rows sit above that (BiCG 27 → .75, ex14FJ .71).
        let s = suggestion(KernelId::Ex14Fj, Gpu::M2050);
        assert!(s.regs_used > 20, "ex14FJ is no longer register-heavy: {}", s.row());
        assert!(s.occ_star < 1.0, "{}", s.row());
        let k = suggestion(KernelId::Ex14Fj, Gpu::K20);
        assert!(k.occ_star >= s.occ_star);
    }

    #[test]
    fn smem_headroom_positive_without_tiles() {
        // ATAX uses no shared memory: the whole per-block share is
        // headroom.
        let s = suggestion(KernelId::Atax, Gpu::K20);
        assert!(s.smem_headroom > 0);
        assert_eq!(s.smem_headroom % 1024, 0);
    }

    #[test]
    fn row_formats() {
        let s = suggestion(KernelId::MatVec2D, Gpu::P100);
        let row = s.row();
        assert!(row.contains("T*={64,128,256,512,1024}"), "{row}");
        assert!(row.contains("occ*="));
    }

    #[test]
    fn suggestions_deterministic() {
        assert_eq!(
            suggestion(KernelId::Bicg, Gpu::M40),
            suggestion(KernelId::Bicg, Gpu::M40)
        );
    }
}
