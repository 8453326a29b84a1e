//! Fig. 7-style occupancy-calculator reports.
//!
//! The paper's Fig. 7 shows the classic occupancy-calculator panels —
//! occupancy as a function of block size, register count and shared
//! memory, with the current configuration marked — for the kernel as
//! compiled ("current") and as the analyzer suggests ("potential"). This
//! module renders the same content as text.

use crate::suggest::Suggestion;
use oriole_arch::{occupancy, GpuSpec, OccupancyInput, WARP_SIZE};
use std::fmt::Write as _;

/// One panel: occupancy as a function of a single varying resource.
#[derive(Debug, Clone, PartialEq)]
struct OccupancySeries {
    /// The varying quantity's values.
    pub x: Vec<u32>,
    /// Occupancy at each value.
    pub occ: Vec<f64>,
    /// Index of the current configuration within `x` (if on-grid).
    pub current: Option<usize>,
}

impl OccupancySeries {
    /// Renders an ASCII bar panel (one row per x value).
    pub(crate) fn render(&self, title: &str) -> String {
        let mut out = format!("{title}\n");
        for (i, (&x, &o)) in self.x.iter().zip(&self.occ).enumerate() {
            let bars = (o * 32.0).round() as usize;
            let marker = if self.current == Some(i) { "<= current" } else { "" };
            let _ = writeln!(out, "{x:>6} |{:<32}| {:>5.2} {marker}", "#".repeat(bars), o);
        }
        out
    }
}

/// Occupancy vs block size, at fixed registers/shared memory.
fn vary_block_size(spec: &GpuSpec, regs: u32, smem: u32, current_tc: u32) -> OccupancySeries {
    let step = WARP_SIZE * 2;
    let xs: Vec<u32> = (1..=(spec.threads_per_block / step)).map(|i| i * step).collect();
    series(spec, &xs, current_tc, |tc| OccupancyInput {
        tc,
        regs_per_thread: regs,
        smem_per_block: smem,
        shmem_per_mp: None,
    })
}

/// Occupancy vs registers per thread, at a fixed block size.
fn vary_registers(spec: &GpuSpec, tc: u32, smem: u32, current_regs: u32) -> OccupancySeries {
    let xs: Vec<u32> = (1..=(spec.regs_per_thread_max / 8)).map(|i| i * 8).collect();
    series(spec, &xs, current_regs, |r| OccupancyInput {
        tc,
        regs_per_thread: r,
        smem_per_block: smem,
        shmem_per_mp: None,
    })
}

/// Occupancy vs shared memory per block, at a fixed block size.
fn vary_shared_mem(spec: &GpuSpec, tc: u32, regs: u32, current_smem: u32) -> OccupancySeries {
    let step = 2048u32;
    let xs: Vec<u32> = (0..=(spec.shmem_per_block / step)).map(|i| i * step).collect();
    series(spec, &xs, current_smem, |s| OccupancyInput {
        tc,
        regs_per_thread: regs,
        smem_per_block: s,
        shmem_per_mp: None,
    })
}

fn series(
    spec: &GpuSpec,
    xs: &[u32],
    current: u32,
    input: impl Fn(u32) -> OccupancyInput,
) -> OccupancySeries {
    let occ: Vec<f64> = xs.iter().map(|&x| occupancy(spec, input(x)).occupancy).collect();
    let current_idx = xs.iter().position(|&x| x == current);
    OccupancySeries { x: xs.to_vec(), occ, current: current_idx }
}

/// The full Fig. 7 report: current configuration vs the analyzer's
/// suggested one, with all three panels for each.
pub fn occupancy_calculator_report(
    spec: &GpuSpec,
    kernel_name: &str,
    current_tc: u32,
    regs: u32,
    smem: u32,
    suggestion: &Suggestion,
) -> String {
    let mut out = String::new();
    let current_occ = occupancy(
        spec,
        OccupancyInput { tc: current_tc, regs_per_thread: regs, smem_per_block: smem, shmem_per_mp: None },
    );
    let _ = writeln!(
        out,
        "=== Occupancy calculator: {kernel_name} on {} ===",
        spec.name
    );
    let _ = writeln!(
        out,
        "current: TC={current_tc} regs={regs} smem={smem}B -> occupancy {:.2} ({} blocks/SM)",
        current_occ.occupancy, current_occ.active_blocks
    );
    out.push_str(&vary_block_size(spec, regs, smem, current_tc).render("\n-- occupancy vs block size --"));
    out.push_str(&vary_registers(spec, current_tc, smem, regs).render("\n-- occupancy vs registers/thread --"));
    out.push_str(&vary_shared_mem(spec, current_tc, regs, smem).render("\n-- occupancy vs shared memory/block --"));

    let best_tc = suggestion.thread_counts.first().copied().unwrap_or(current_tc);
    let potential = occupancy(
        spec,
        OccupancyInput { tc: best_tc, regs_per_thread: regs, smem_per_block: smem, shmem_per_mp: None },
    );
    let _ = writeln!(
        out,
        "\npotential: {} -> occupancy {:.2} at TC={best_tc}",
        suggestion.row(),
        potential.occupancy
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suggest::suggest_from;
    use oriole_arch::Gpu;

    #[test]
    fn block_size_series_peaks_at_t_star() {
        let spec = Gpu::K20.spec();
        let s = vary_block_size(spec, 20, 0, 256);
        // TC=256 is in the series and reaches 1.0.
        let idx = s.x.iter().position(|&x| x == 256).unwrap();
        assert_eq!(s.occ[idx], 1.0);
        assert_eq!(s.current, Some(idx));
        // Some off-grid size is below 1.0.
        let bad = s.x.iter().position(|&x| x == 192).unwrap();
        assert!(s.occ[bad] < 1.0);
    }

    #[test]
    fn register_series_monotone_nonincreasing() {
        let spec = Gpu::M2050.spec();
        let s = vary_registers(spec, 256, 0, 24);
        for w in s.occ.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn shared_series_starts_unconstrained() {
        let spec = Gpu::M40.spec();
        let s = vary_shared_mem(spec, 128, 24, 4096);
        assert_eq!(s.x[0], 0);
        assert!(s.occ[0] >= s.occ[s.occ.len() - 1]);
    }

    #[test]
    fn full_report_mentions_both_configs() {
        let spec = Gpu::K20.spec();
        let sug = suggest_from(spec, 27, 0);
        let report = occupancy_calculator_report(spec, "atax", 160, 27, 0, &sug);
        assert!(report.contains("current: TC=160"));
        assert!(report.contains("potential:"));
        assert!(report.contains("occupancy vs block size"));
        assert!(report.contains("<= current"));
    }

    #[test]
    fn render_handles_missing_current() {
        let s = OccupancySeries { x: vec![32, 64], occ: vec![0.5, 1.0], current: None };
        let text = s.render("panel");
        assert!(text.contains("panel"));
        assert!(!text.contains("<= current"));
    }
}
