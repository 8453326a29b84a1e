//! Tuning parameters: the Table III / Fig. 3 feature space.

use oriole_arch::{GpuSpec, WARP_SIZE};
use std::fmt;

/// Preferred L1/shared-memory split (the `PL` parameter, in KiB of L1).
///
/// Fermi through Kepler expose `cudaFuncCachePreferL1` /
/// `PreferShared`; Orio's spec sweeps `PL ∈ {16, 48}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PreferredL1 {
    /// 16 KiB L1, 48 KiB shared memory (`cudaFuncCachePreferShared`).
    #[default]
    Kb16,
    /// 48 KiB L1, 16 KiB shared memory (`cudaFuncCachePreferL1`).
    Kb48,
}

impl PreferredL1 {
    /// L1 capacity in bytes.
    pub fn l1_bytes(self) -> u32 {
        match self {
            PreferredL1::Kb16 => 16 * 1024,
            PreferredL1::Kb48 => 48 * 1024,
        }
    }

    /// Parses the Orio spec values 16 / 48.
    pub fn from_kb(kb: u32) -> Option<PreferredL1> {
        match kb {
            16 => Some(PreferredL1::Kb16),
            48 => Some(PreferredL1::Kb48),
            _ => None,
        }
    }

    /// The spec value in KiB.
    pub fn kb(self) -> u32 {
        self.l1_bytes() / 1024
    }
}

/// Compiler flags (the `CFLAGS` parameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CompilerFlags {
    /// `-use_fast_math`: approximate div/sqrt/exp/log/sin sequences.
    pub fast_math: bool,
}

impl fmt::Display for CompilerFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.fast_math {
            f.write_str("-use_fast_math")
        } else {
            f.write_str("''")
        }
    }
}

/// One point in the Orio tuning space (Fig. 3's `performance_params`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TuningParams {
    /// `TC` — threads per block (32–1024, step 32 in the paper's spec).
    pub tc: u32,
    /// `BC` — number of thread blocks (24–192, step 24).
    pub bc: u32,
    /// `UIF` — unroll factor for innermost unrollable loops (1–5).
    pub uif: u32,
    /// `PL` — preferred L1 size.
    pub pl: PreferredL1,
    /// `SC` — CUDA stream count for chunked execution (1–5).
    pub sc: u32,
    /// `CFLAGS` — compiler flags.
    pub cflags: CompilerFlags,
}

impl Default for TuningParams {
    fn default() -> Self {
        Self {
            tc: 128,
            bc: 96,
            uif: 1,
            pl: PreferredL1::default(),
            sc: 1,
            cflags: CompilerFlags::default(),
        }
    }
}

impl TuningParams {
    /// A configuration with the given block and grid size, other
    /// parameters at their defaults.
    pub fn with_geometry(tc: u32, bc: u32) -> Self {
        Self { tc, bc, ..Self::default() }
    }

    /// The validation problem with an unroll factor, if any — shared
    /// between full-point validation and the compile front-end (which
    /// sees only `UIF`/`CFLAGS`), so the two can never drift.
    pub(crate) fn uif_problem(uif: u32) -> Option<String> {
        (uif == 0 || uif > 8).then(|| format!("UIF {uif} outside supported range 1..=8"))
    }

    /// Validation problems for this configuration on `gpu` (empty =
    /// valid). Mirrors the checks `nvcc`/the runtime would raise.
    pub(crate) fn problems(&self, gpu: &GpuSpec) -> Vec<String> {
        let mut out = Vec::new();
        if self.tc == 0 {
            out.push("TC must be positive".into());
        } else {
            if self.tc > gpu.threads_per_block {
                out.push(format!(
                    "TC {} exceeds device limit {}",
                    self.tc, gpu.threads_per_block
                ));
            }
            if !self.tc.is_multiple_of(WARP_SIZE) {
                out.push(format!("TC {} is not a multiple of the warp size {WARP_SIZE}", self.tc));
            }
        }
        if self.bc == 0 {
            out.push("BC must be positive".into());
        }
        if let Some(problem) = Self::uif_problem(self.uif) {
            out.push(problem);
        }
        if self.sc == 0 || self.sc > 8 {
            out.push(format!("SC {} outside supported range 1..=8", self.sc));
        }
        out
    }
}

impl fmt::Display for TuningParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TC={} BC={} UIF={} PL={} SC={} CFLAGS={}",
            self.tc,
            self.bc,
            self.uif,
            self.pl.kb(),
            self.sc,
            self.cflags
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oriole_arch::Gpu;

    #[test]
    fn preferred_l1_mapping() {
        assert_eq!(PreferredL1::from_kb(16), Some(PreferredL1::Kb16));
        assert_eq!(PreferredL1::from_kb(48), Some(PreferredL1::Kb48));
        assert_eq!(PreferredL1::from_kb(32), None);
        assert_eq!(PreferredL1::Kb48.l1_bytes(), 49_152);
        assert_eq!(PreferredL1::Kb16.kb(), 16);
    }

    #[test]
    fn default_params_valid_everywhere() {
        for gpu in oriole_arch::ALL_GPUS {
            assert!(TuningParams::default().problems(gpu.spec()).is_empty(), "{gpu}");
        }
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)] // exercising one bad field at a time
    fn invalid_configurations_flagged() {
        let gpu = Gpu::K20.spec();
        let mut p = TuningParams::default();
        p.tc = 0;
        assert!(!p.problems(gpu).is_empty());
        p.tc = 2048;
        assert!(!p.problems(gpu).is_empty());
        p.tc = 100; // not a warp multiple
        assert!(!p.problems(gpu).is_empty());
        p = TuningParams::default();
        p.uif = 0;
        assert!(!p.problems(gpu).is_empty());
        p = TuningParams::default();
        p.bc = 0;
        assert!(!p.problems(gpu).is_empty());
        p = TuningParams::default();
        p.sc = 99;
        assert!(!p.problems(gpu).is_empty());
    }

    #[test]
    fn all_problems_reported_together() {
        let p = TuningParams { tc: 0, bc: 0, uif: 0, sc: 0, ..TuningParams::default() };
        let problems = p.problems(Gpu::P100.spec());
        assert_eq!(problems.len(), 4, "{problems:?}");
    }

    #[test]
    fn display_shows_orio_names() {
        let p = TuningParams::with_geometry(256, 48);
        let s = p.to_string();
        assert!(s.contains("TC=256") && s.contains("BC=48") && s.contains("UIF=1"));
    }
}
