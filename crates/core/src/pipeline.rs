//! Pipeline-utilization estimation (§III-B2).
//!
//! "Understanding the utilization of pipelines and its relation to peak
//! performance on target devices helps identify performance bottlenecks
//! in terms of oversubscription of pipelines based on instruction type."
//!
//! We estimate, per coarse functional-unit class, the share of issue
//! cycles the kernel's expected mix demands: counts weighted by CPI
//! (Table II), normalized over the total. A class near 1.0 is the
//! oversubscribed pipeline.

use oriole_arch::{InstrClass, ThroughputTable};
use oriole_ir::MixCounts;

/// Estimated utilization share per pipeline class (sums to 1 for a
/// non-empty mix).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PipelineUtilization {
    /// Arithmetic pipelines (FP/int ALUs + SFU).
    pub flops: f64,
    /// Load/store and texture units.
    pub mem: f64,
    /// Control/branch unit.
    pub ctrl: f64,
    /// Register-file ports.
    pub reg: f64,
}

impl PipelineUtilization {
    /// Computes utilization shares for `mix` under a family's throughput
    /// table.
    pub(crate) fn compute(mix: &MixCounts, table: &ThroughputTable) -> PipelineUtilization {
        let mut cycles = [0.0f64; 4];
        for (op, count) in mix.iter() {
            let idx = match op.class() {
                InstrClass::Flops => 0,
                InstrClass::Mem => 1,
                InstrClass::Ctrl => 2,
                InstrClass::Reg => 3,
            };
            cycles[idx] += count * table.cpi(op);
        }
        let total: f64 = cycles.iter().sum();
        if total == 0.0 {
            return PipelineUtilization::default();
        }
        PipelineUtilization {
            flops: cycles[0] / total,
            mem: cycles[1] / total,
            ctrl: cycles[2] / total,
            reg: cycles[3] / total,
        }
    }

    /// The dominating pipeline and its share.
    pub(crate) fn bottleneck(&self) -> (&'static str, f64) {
        let candidates = [
            ("arithmetic", self.flops),
            ("load/store", self.mem),
            ("control", self.ctrl),
            ("register file", self.reg),
        ];
        candidates
            .into_iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oriole_arch::{Family, OpClass};

    #[test]
    fn empty_mix_is_all_zero() {
        let u = PipelineUtilization::compute(
            &MixCounts::new(),
            ThroughputTable::for_family(Family::Kepler),
        );
        assert_eq!(u, PipelineUtilization::default());
    }

    #[test]
    fn shares_sum_to_one() {
        let mut mix = MixCounts::new();
        mix.record(OpClass::FpIns32, 100.0);
        mix.record(OpClass::LdStIns, 20.0);
        mix.record(OpClass::CtrlIns, 10.0);
        mix.record(OpClass::Regs, 300.0);
        let u = PipelineUtilization::compute(&mix, ThroughputTable::for_family(Family::Maxwell));
        assert!((u.flops + u.mem + u.ctrl + u.reg - 1.0).abs() < 1e-12);
    }

    #[test]
    fn memory_heavy_mix_bottlenecks_lsu() {
        let mut mix = MixCounts::new();
        mix.record(OpClass::FpIns32, 10.0);
        mix.record(OpClass::LdStIns, 100.0);
        let u = PipelineUtilization::compute(&mix, ThroughputTable::for_family(Family::Kepler));
        let (name, share) = u.bottleneck();
        assert_eq!(name, "load/store");
        assert!(share > 0.9);
    }

    #[test]
    fn cpi_weighting_matters() {
        // Equal counts of FP32 and FP64 on Maxwell (IPC 128 vs 4): the
        // FP64's 32× higher CPI dominates the arithmetic share relative
        // to memory.
        let mut fp64 = MixCounts::new();
        fp64.record(OpClass::FpIns64, 10.0);
        fp64.record(OpClass::LdStIns, 10.0);
        let mut fp32 = MixCounts::new();
        fp32.record(OpClass::FpIns32, 10.0);
        fp32.record(OpClass::LdStIns, 10.0);
        let t = ThroughputTable::for_family(Family::Maxwell);
        let u64 = PipelineUtilization::compute(&fp64, t);
        let u32 = PipelineUtilization::compute(&fp32, t);
        assert!(u64.flops > u32.flops * 2.0, "{} vs {}", u64.flops, u32.flops);
    }
}
