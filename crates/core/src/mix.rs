//! Instruction-mix metrics (§III-B1).
//!
//! "Instruction mix is defined as the number of specific operations that
//! a processor executes. [...] In this work, we use instruction mixes to
//! characterize whether a kernel is memory-bound, compute-bound, or
//! relatively balanced."

use oriole_arch::ALL_OP_CLASSES;
use oriole_ir::{ClassMix, LaunchGeometry, MixCounts, Program, ProgramIndex};
use std::fmt;

/// The mix analysis of one kernel at one launch geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct MixReport {
    /// Raw static counts: one per instruction in the listing.
    pub static_counts: MixCounts,
    /// Trip-count-weighted per-thread expected counts at the geometry —
    /// the static *prediction* of dynamic behaviour.
    pub expected_counts: MixCounts,
    /// Coarse-class rollup of the expected counts.
    pub classes: ClassMix,
    /// Computational intensity: `O_fl / O_mem` (Table VI "Itns").
    pub intensity: f64,
}

/// Characterization bucket derived from the mix (§III-B1's discussion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KernelCharacter {
    /// Memory operations dominate the weighted mix.
    MemoryBound,
    /// Arithmetic dominates.
    ComputeBound,
    /// Neither dominates decisively.
    Balanced,
}

impl fmt::Display for KernelCharacter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            KernelCharacter::MemoryBound => "memory-bound",
            KernelCharacter::ComputeBound => "compute-bound",
            KernelCharacter::Balanced => "balanced",
        };
        f.write_str(s)
    }
}

impl MixReport {
    /// Analyzes `program` at `geom` by replaying the prebuilt index's
    /// per-block summary tapes instead of walking `Instr` vectors.
    pub(crate) fn compute(
        index: &ProgramIndex,
        program: &Program,
        geom: LaunchGeometry,
    ) -> MixReport {
        let static_counts = index.static_mix();
        let expected_counts = index.expected_mix(program, geom);
        let classes = expected_counts.classes();
        MixReport { static_counts, expected_counts, intensity: classes.intensity(), classes }
    }

    /// §III-B1 characterization. The thresholds follow the paper's
    /// framing: intensity well above the rule threshold is
    /// compute-bound, well below is memory-bound.
    fn character(&self) -> KernelCharacter {
        if self.intensity > crate::rules::INTENSITY_THRESHOLD {
            KernelCharacter::ComputeBound
        } else if self.intensity < crate::rules::INTENSITY_THRESHOLD / 2.0 {
            KernelCharacter::MemoryBound
        } else {
            KernelCharacter::Balanced
        }
    }

    /// The per-class fractions of the four coarse classes
    /// `(O_fl, O_mem, O_ctrl, O_reg)` of the expected mix.
    pub fn fractions(&self) -> (f64, f64, f64, f64) {
        self.classes.fractions()
    }

    /// Renders the per-class table (analysis-report section).
    pub(crate) fn table(&self) -> String {
        let mut out = String::new();
        out.push_str("op class                    static      expected/thread\n");
        for &op in &ALL_OP_CLASSES {
            let s = self.static_counts.get(op);
            let e = self.expected_counts.get(op);
            if s == 0.0 && e == 0.0 {
                continue;
            }
            out.push_str(&format!("{:<26} {:>9.0} {:>18.1}\n", op.name(), s, e));
        }
        out.push_str(&format!(
            "classes: {} | intensity {:.2} ({})\n",
            self.classes,
            self.intensity,
            self.character()
        ));
        out
    }
}

/// Per-class error between a static estimate and observed dynamic
/// behaviour, the paper's Table VI quantity ("error rates calculated,
/// using sum of squares, when estimating dynamic behavior of the kernel
/// from static analysis of the instruction mix").
///
/// Both mixes are normalized to fractions of their totals per coarse
/// class; the error per class is the squared difference of fractions,
/// summed over the supplied geometries and scaled by 100 (percent² units
/// keep the numbers in the paper's 0.0–4.0 range).
pub fn static_vs_dynamic_error(
    pairs: &[(ClassMix, ClassMix)],
) -> ClassError {
    let mut e = ClassError::default();
    for (stat, dynamic) in pairs {
        let (sf, sm, sc, _) = stat.fractions();
        let (df, dm, dc, _) = dynamic.fractions();
        e.flops += (sf - df).powi(2) * 100.0;
        e.mem += (sm - dm).powi(2) * 100.0;
        e.ctrl += (sc - dc).powi(2) * 100.0;
    }
    e
}

/// Per-class sum-of-squares error (Table VI columns).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassError {
    /// FLOPS-class error.
    pub flops: f64,
    /// MEM-class error.
    pub mem: f64,
    /// CTRL-class error.
    pub ctrl: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use oriole_arch::{Family, Gpu};
    use oriole_codegen::{compile, TuningParams};
    use oriole_kernels::KernelId;

    fn report(kid: KernelId, n: u64) -> MixReport {
        let kernel =
            compile(&kid.ast(n), Gpu::K20.spec(), TuningParams::with_geometry(128, 48)).unwrap();
        MixReport::compute(&kernel.index, &kernel.program, LaunchGeometry::new(n, 128, 48))
    }

    #[test]
    fn kernel_characters_match_paper_bands() {
        assert_eq!(report(KernelId::Bicg, 256).character(), KernelCharacter::MemoryBound);
        assert_eq!(report(KernelId::MatVec2D, 256).character(), KernelCharacter::ComputeBound);
        assert_eq!(report(KernelId::Ex14Fj, 64).character(), KernelCharacter::ComputeBound);
        // ATAX sits between: balanced or memory-bound, never compute.
        assert_ne!(report(KernelId::Atax, 256).character(), KernelCharacter::ComputeBound);
    }

    #[test]
    fn intensity_ordering_matches_table_vi() {
        let bicg = report(KernelId::Bicg, 256).intensity;
        let atax = report(KernelId::Atax, 256).intensity;
        let matvec = report(KernelId::MatVec2D, 256).intensity;
        let ex14 = report(KernelId::Ex14Fj, 64).intensity;
        assert!(bicg < atax, "bicg {bicg} !< atax {atax}");
        assert!(atax < matvec, "atax {atax} !< matvec {matvec}");
        assert!(matvec < ex14, "matvec {matvec} !< ex14 {ex14}");
    }

    #[test]
    fn table_renders_nonempty() {
        let t = report(KernelId::Atax, 128).table();
        assert!(t.contains("FPIns32"));
        assert!(t.contains("intensity"));
    }

    #[test]
    fn fractions_sum_to_one() {
        let (a, b, c, d) = report(KernelId::Ex14Fj, 32).fractions();
        assert!((a + b + c + d - 1.0).abs() < 1e-9);
    }

    #[test]
    fn error_zero_for_identical_mixes() {
        let m = ClassMix { flops: 10.0, mem: 5.0, ctrl: 2.0, reg: 20.0 };
        let e = static_vs_dynamic_error(&[(m, m)]);
        assert_eq!(e.flops, 0.0);
        assert_eq!(e.mem, 0.0);
        assert_eq!(e.ctrl, 0.0);
    }

    #[test]
    fn error_grows_with_divergence_gap() {
        let stat = ClassMix { flops: 10.0, mem: 10.0, ctrl: 10.0, reg: 0.0 };
        let near = ClassMix { flops: 11.0, mem: 9.0, ctrl: 10.0, reg: 0.0 };
        let far = ClassMix { flops: 25.0, mem: 2.0, ctrl: 3.0, reg: 0.0 };
        let e_near = static_vs_dynamic_error(&[(stat, near)]);
        let e_far = static_vs_dynamic_error(&[(stat, far)]);
        assert!(e_far.flops > e_near.flops);
        assert!(e_far.mem > e_near.mem);
    }

    #[test]
    fn static_counts_independent_of_geometry() {
        let kernel = compile(
            &KernelId::Atax.ast(64),
            Gpu::M40.spec(),
            TuningParams::with_geometry(128, 48),
        )
        .unwrap();
        let at = |tc, bc| {
            MixReport::compute(&kernel.index, &kernel.program, LaunchGeometry::new(64, tc, bc))
        };
        let (a, b) = (at(128, 48), at(512, 192));
        assert_eq!(a.static_counts, b.static_counts);
        assert_ne!(a.expected_counts, b.expected_counts);
        let _ = Family::Kepler; // silence unused-import lint paths
    }
}
