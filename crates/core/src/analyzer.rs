//! The umbrella analyzer: everything the paper's tool produces, in one
//! call.

use crate::divergence::{analyze_divergence, DivergenceReport};
use crate::mix::MixReport;
use crate::occupancy::OccupancyAnalysis;
use crate::pipeline::PipelineUtilization;
use crate::predict::predict_time_indexed;
use crate::rules;
use crate::suggest::{suggest_from, Suggestion};
#[allow(deprecated)]
use oriole_arch::OccupancyTable;
use oriole_arch::{GpuSpec, OccupancyInput, ThroughputTable};
use oriole_codegen::CompiledKernel;
use oriole_ir::{text, LaunchGeometry, ParseError, Program, ProgramIndex};
use std::fmt::Write as _;

/// The combined static analysis of one kernel configuration: the
/// analyzer's full output for a single `(kernel, GPU, geometry)` triple.
///
/// Everything here is computed **without executing the kernel** — from
/// the disassembly listing, the `ptxas`-style resource metadata and the
/// architecture model alone.
#[derive(Debug, Clone)]
pub struct StaticAnalysis {
    /// Kernel name from the listing.
    pub kernel_name: String,
    /// Target device (owned, so analyses of synthetic/custom devices
    /// need no static registry).
    pub gpu: GpuSpec,
    /// Geometry analyzed.
    pub geometry: LaunchGeometry,
    /// Instruction-mix metrics (§III-B1).
    pub mix: MixReport,
    /// Occupancy model output (Eqs. 1–5).
    pub occupancy: OccupancyAnalysis,
    /// Pipeline-utilization estimate (§III-B2).
    pub pipeline: PipelineUtilization,
    /// Divergence diagnosis (Fig. 1 / CFG analysis).
    pub divergence: DivergenceReport,
    /// Table VII suggestion.
    pub suggestion: Suggestion,
    /// The rule-based heuristic's pruned thread list (§III-C).
    pub rule_threads: Vec<u32>,
    /// Eq. 6 predicted execution cost (model units).
    pub predicted_time: f64,
}

/// Analyzes a compiled kernel at problem size `n`, reusing the kernel's
/// shared [`ProgramIndex`] for the mix, divergence and prediction
/// phases.
pub fn analyze(kernel: &CompiledKernel, n: u64) -> StaticAnalysis {
    analyze_program(
        &kernel.index,
        &kernel.program,
        &kernel.gpu,
        LaunchGeometry::new(n, kernel.params.tc, kernel.params.bc),
    )
}

/// [`analyze`] under the signature `benchmark/API.md` names; `table`
/// is the kernel's device.
#[deprecated(note = "benchmark/API.md compatibility; removed by the benchmark re-base (ROADMAP item 1(i))")]
#[allow(deprecated)]
pub fn analyze_in(table: &OccupancyTable, kernel: &CompiledKernel, n: u64) -> StaticAnalysis {
    debug_assert_eq!(*table.spec(), kernel.gpu, "table built for another device");
    analyze(kernel, n)
}

/// Analyzes a textual disassembly listing — the paper's actual tool
/// interface (`nvdisasm` output in, analysis out). The target GPU must
/// match the listing's `family=` header.
#[allow(clippy::disallowed_methods)]
pub fn analyze_disassembly(
    listing: &str,
    gpu: &GpuSpec,
    geometry: LaunchGeometry,
) -> Result<StaticAnalysis, ParseError> {
    let program = text::parse(listing)?;
    if program.meta.family != gpu.family {
        return Err(ParseError {
            line: 0,
            msg: format!(
                "listing targets {} but analysis requested for {}",
                program.meta.family, gpu.family
            ),
        });
    }
    // Parsed listings carry no prebuilt index; build one for this
    // analysis (identical contents to the compiled path's, since the
    // parse round-trips the program exactly).
    let index = ProgramIndex::build(&program);
    Ok(analyze_program(&index, &program, gpu, geometry))
}

fn analyze_program(
    index: &ProgramIndex,
    program: &Program,
    gpu: &GpuSpec,
    geometry: LaunchGeometry,
) -> StaticAnalysis {
    let mix = MixReport::compute(index, program, geometry);
    let occ_input = OccupancyInput {
        tc: geometry.tc,
        regs_per_thread: program.meta.regs_per_thread,
        smem_per_block: program.meta.smem_static,
        shmem_per_mp: None,
    };
    let occupancy = OccupancyAnalysis::compute(gpu, occ_input);
    // One Table II column serves both the pipeline estimate and the
    // Eq. 6 prediction; the program's family always matches the GPU's
    // (`analyze_disassembly` rejects mismatches up front).
    let throughput = ThroughputTable::for_family(gpu.family);
    let pipeline = PipelineUtilization::compute(&mix.expected_counts, throughput);
    let divergence = analyze_divergence(index, program, geometry);
    let suggestion = suggest_from(gpu, program.meta.regs_per_thread, program.meta.smem_static);
    let rule_threads = rules::rule_based_threads(&suggestion.thread_counts, mix.intensity);
    let predicted_time = predict_time_indexed(throughput, index, program, geometry);
    StaticAnalysis {
        kernel_name: program.name.to_string(),
        gpu: gpu.clone(),
        geometry,
        mix,
        occupancy,
        pipeline,
        divergence,
        suggestion,
        rule_threads,
        predicted_time,
    }
}

impl StaticAnalysis {
    /// Renders the complete analysis as a human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== static analysis: {} on {} ({}) ===",
            self.kernel_name, self.gpu.name, self.geometry
        );
        out.push_str(&self.mix.table());
        let _ = writeln!(
            out,
            "occupancy: {:.2} ({} blocks/SM), limited by {}",
            self.occupancy.occupancy(),
            self.occupancy.result.active_blocks,
            self.occupancy.limiter_text()
        );
        if let Some(advice) = self.occupancy.advice() {
            let _ = writeln!(out, "advice: {advice}");
        }
        let (unit, share) = self.pipeline.bottleneck();
        let _ = writeln!(out, "pipeline bottleneck: {unit} ({:.0}% of issue cycles)", share * 100.0);
        if self.divergence.is_divergent() {
            let _ = writeln!(
                out,
                "divergence: {} branch(es), overall issue overhead {:.2}x",
                self.divergence.findings.len(),
                self.divergence.overall_overhead
            );
            for f in &self.divergence.findings {
                let _ = writeln!(
                    out,
                    "  @{}: {:.2}x serialization, reconverges at {}",
                    f.branch_label,
                    f.overhead(),
                    f.reconverges_at.as_deref().unwrap_or("<exit>")
                );
            }
        } else {
            let _ = writeln!(out, "divergence: none");
        }
        let _ = writeln!(out, "suggestion: {}", self.suggestion.row());
        let threads: Vec<String> = self.rule_threads.iter().map(|t| t.to_string()).collect();
        let _ = writeln!(
            out,
            "rule-based threads (intensity {:.2} {} {:.1}): {{{}}}",
            self.mix.intensity,
            if self.mix.intensity > rules::INTENSITY_THRESHOLD { ">" } else { "<=" },
            rules::INTENSITY_THRESHOLD,
            threads.join(",")
        );
        let _ = writeln!(out, "predicted cost (Eq. 6): {:.3} model units", self.predicted_time);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oriole_arch::Gpu;
    use oriole_codegen::{compile, TuningParams};
    use oriole_kernels::KernelId;

    fn compiled(kid: KernelId, gpu: Gpu, n: u64) -> CompiledKernel {
        compile(&kid.ast(n), gpu.spec(), TuningParams::with_geometry(128, 48)).unwrap()
    }

    #[test]
    fn analyze_all_kernels_all_gpus() {
        for kid in oriole_kernels::ALL_KERNELS {
            for gpu in oriole_arch::ALL_GPUS {
                let n = kid.input_sizes()[1];
                let a = analyze(&compiled(kid, gpu, n), n);
                assert_eq!(a.kernel_name, kid.name());
                assert!(a.predicted_time > 0.0);
                assert!(!a.suggestion.thread_counts.is_empty());
                assert!(!a.rule_threads.is_empty());
                assert!(a.occupancy.occupancy() > 0.0);
            }
        }
    }

    #[test]
    fn disassembly_path_equals_compiled_path() {
        // The analyzer consumes text exactly as the paper's tool consumes
        // nvdisasm output; results must match the direct path.
        let kernel = compiled(KernelId::Atax, Gpu::K20, 128);
        let direct = analyze(&kernel, 128);
        let listing = kernel.disassembly();
        let via_text = analyze_disassembly(
            &listing,
            Gpu::K20.spec(),
            LaunchGeometry::new(128, 128, 48),
        )
        .expect("parses");
        assert_eq!(via_text.mix, direct.mix);
        assert_eq!(via_text.predicted_time, direct.predicted_time);
        assert_eq!(via_text.suggestion, direct.suggestion);
        assert_eq!(via_text.rule_threads, direct.rule_threads);
    }

    #[test]
    fn family_mismatch_rejected() {
        let kernel = compiled(KernelId::Atax, Gpu::K20, 64);
        let err = analyze_disassembly(
            &kernel.disassembly(),
            Gpu::P100.spec(),
            LaunchGeometry::new(64, 128, 48),
        )
        .unwrap_err();
        assert!(err.msg.contains("Kepler"));
    }

    #[test]
    fn rule_threads_band_matches_kernel_class() {
        // Low-intensity kernels get the lower band; high-intensity the
        // upper (§III-C).
        let atax = analyze(&compiled(KernelId::Atax, Gpu::K20, 256), 256);
        let t_star = &atax.suggestion.thread_counts;
        assert_eq!(atax.rule_threads, t_star[..t_star.len() / 2].to_vec());

        let ex14 = analyze(&compiled(KernelId::Ex14Fj, Gpu::K20, 64), 64);
        let t_star = &ex14.suggestion.thread_counts;
        assert_eq!(ex14.rule_threads, t_star[t_star.len() / 2..].to_vec());
    }

    #[test]
    fn report_renders_sections() {
        let a = analyze(&compiled(KernelId::Ex14Fj, Gpu::M40, 32), 32);
        let text = a.render();
        for needle in [
            "static analysis",
            "occupancy:",
            "pipeline bottleneck",
            "divergence:",
            "suggestion:",
            "rule-based threads",
            "predicted cost",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        // ex14fj is divergent — the report must say so with a branch.
        assert!(text.contains("serialization"));
    }
}
