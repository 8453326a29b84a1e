//! GPU architecture families and compute capabilities.

use std::fmt;

/// NVIDIA GPU architecture generation, as named in the last row of the
/// paper's Table I.
///
/// The family determines the compute capability targeted by the compiler
/// substrate and selects the column of the instruction-throughput table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    /// Fermi (compute capability 2.0) — the M2050 in the paper.
    Fermi,
    /// Kepler (compute capability 3.5) — the K20.
    Kepler,
    /// Maxwell (compute capability 5.2) — the M40.
    Maxwell,
    /// Pascal (compute capability 6.0) — the P100.
    Pascal,
}

impl Family {
    /// All families, in chronological (and Table I column) order.
    pub const ALL: [Family; 4] = [
        Family::Fermi,
        Family::Kepler,
        Family::Maxwell,
        Family::Pascal,
    ];

    /// Short label used in the paper's figures ("F", "K", "M", "P").
    pub fn letter(self) -> char {
        match self {
            Family::Fermi => 'F',
            Family::Kepler => 'K',
            Family::Maxwell => 'M',
            Family::Pascal => 'P',
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Family::Fermi => "Fermi",
            Family::Kepler => "Kepler",
            Family::Maxwell => "Maxwell",
            Family::Pascal => "Pascal",
        };
        f.write_str(name)
    }
}

/// CUDA compute capability (`cc` in the paper's notation), e.g. 3.5.
///
/// Ordered lexicographically on (major, minor) so version gates such as
/// "register allocation is per-warp from Kepler on" can be written as
/// simple comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComputeCapability {
    /// Major version (the architecture generation).
    pub major: u8,
    /// Minor version (the revision within a generation).
    pub minor: u8,
}

impl ComputeCapability {
    /// Creates a compute capability from major/minor parts.
    pub const fn new(major: u8, minor: u8) -> Self {
        Self { major, minor }
    }

    /// Whether register allocation on this capability is performed at warp
    /// granularity (Kepler and newer) rather than block granularity
    /// (Fermi). This distinction feeds the Eq. 4 register limiter.
    pub(crate) fn warp_granularity_regalloc(self) -> bool {
        self.major >= 3
    }
}

impl fmt::Display for ComputeCapability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.major, self.minor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capability_ordering_is_chronological() {
        let ccs: Vec<_> = crate::ALL_GPUS.iter().map(|g| g.spec().compute_capability).collect();
        let mut sorted = ccs.clone();
        sorted.sort();
        assert_eq!(ccs, sorted);
    }

    #[test]
    fn regalloc_granularity_gate() {
        assert!(!crate::Gpu::M2050.spec().compute_capability.warp_granularity_regalloc());
        assert!(crate::Gpu::K20.spec().compute_capability.warp_granularity_regalloc());
        assert!(crate::Gpu::P100.spec().compute_capability.warp_granularity_regalloc());
    }

    #[test]
    fn letters() {
        assert_eq!(Family::Fermi.letter(), 'F');
        let letters: Vec<_> = Family::ALL.iter().map(|f| f.letter()).collect();
        assert_eq!(letters, vec!['F', 'K', 'M', 'P']);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Family::Kepler.to_string(), "Kepler");
        assert_eq!(ComputeCapability::new(5, 2).to_string(), "5.2");
    }
}
