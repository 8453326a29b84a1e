//! The cartesian search space (Table III / Fig. 3).

use oriole_codegen::{CompilerFlags, PreferredL1, TuningParams};

/// A cartesian tuning space over the six Orio parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    /// `TC` axis — threads per block.
    pub tc: Vec<u32>,
    /// `BC` axis — block count.
    pub bc: Vec<u32>,
    /// `UIF` axis — unroll factors.
    pub uif: Vec<u32>,
    /// `PL` axis — preferred L1 sizes.
    pub pl: Vec<PreferredL1>,
    /// `SC` axis — stream counts.
    pub sc: Vec<u32>,
    /// `CFLAGS` axis — compiler-flag bundles.
    pub cflags: Vec<CompilerFlags>,
}

impl SearchSpace {
    /// The paper's evaluation space: `TC ∈ {32..1024, step 32}`,
    /// `BC ∈ {24..192, step 24}`, `UIF ∈ {1..5}`, `PL ∈ {16, 48}`,
    /// `CFLAGS ∈ {'', -use_fast_math}`, `SC` fixed at 1 — 5,120 variants,
    /// matching §IV-A's "on average, the combination of parameter
    /// settings generated 5,120 code variants".
    pub fn paper_default() -> SearchSpace {
        SearchSpace {
            tc: (1..=32).map(|i| i * 32).collect(),
            bc: (1..=8).map(|i| i * 24).collect(),
            uif: (1..=5).collect(),
            pl: vec![PreferredL1::Kb16, PreferredL1::Kb48],
            sc: vec![1],
            cflags: vec![
                CompilerFlags { fast_math: false },
                CompilerFlags { fast_math: true },
            ],
        }
    }

    /// A small space for tests and examples (TC × BC only, 16 points).
    pub fn tiny() -> SearchSpace {
        SearchSpace {
            tc: vec![64, 128, 256, 512],
            bc: vec![24, 48, 96, 192],
            uif: vec![1],
            pl: vec![PreferredL1::Kb16],
            sc: vec![1],
            cflags: vec![CompilerFlags { fast_math: false }],
        }
    }

    /// Number of points in the space.
    pub fn len(&self) -> usize {
        self.tc.len() * self.bc.len() * self.uif.len() * self.pl.len() * self.sc.len()
            * self.cflags.len()
    }

    /// True when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Axis lengths in index order (tc, bc, uif, pl, sc, cflags).
    pub(crate) fn dims(&self) -> [usize; 6] {
        [
            self.tc.len(),
            self.bc.len(),
            self.uif.len(),
            self.pl.len(),
            self.sc.len(),
            self.cflags.len(),
        ]
    }

    /// The point at a flat index (row-major over `SearchSpace::dims`).
    ///
    /// # Panics
    /// If `index >= len()`.
    pub fn point(&self, index: usize) -> TuningParams {
        assert!(index < self.len(), "index {index} out of space of {}", self.len());
        let dims = self.dims();
        let mut rest = index;
        let mut coords = [0usize; 6];
        for axis in (0..6).rev() {
            coords[axis] = rest % dims[axis];
            rest /= dims[axis];
        }
        self.at(coords)
    }

    /// The point at per-axis coordinates.
    pub fn at(&self, coords: [usize; 6]) -> TuningParams {
        TuningParams {
            tc: self.tc[coords[0]],
            bc: self.bc[coords[1]],
            uif: self.uif[coords[2]],
            pl: self.pl[coords[3]],
            sc: self.sc[coords[4]],
            cflags: self.cflags[coords[5]],
        }
    }

    /// Iterates every point in flat-index order.
    pub fn iter(&self) -> impl Iterator<Item = TuningParams> + '_ {
        (0..self.len()).map(move |i| self.point(i))
    }

    /// A copy with the `TC` axis restricted to `allowed` (intersection,
    /// preserving order) — the static-search pruning operation. Returns
    /// `None` if the intersection is empty.
    pub fn restrict_tc(&self, allowed: &[u32]) -> Option<SearchSpace> {
        let tc: Vec<u32> = self.tc.iter().copied().filter(|t| allowed.contains(t)).collect();
        if tc.is_empty() {
            return None;
        }
        Some(SearchSpace { tc, ..self.clone() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Coordinates of a point, if it lies on the grid.
    fn coords_of(s: &SearchSpace, p: &TuningParams) -> Option<[usize; 6]> {
        Some([
            s.tc.iter().position(|&v| v == p.tc)?,
            s.bc.iter().position(|&v| v == p.bc)?,
            s.uif.iter().position(|&v| v == p.uif)?,
            s.pl.iter().position(|&v| v == p.pl)?,
            s.sc.iter().position(|&v| v == p.sc)?,
            s.cflags.iter().position(|&v| v == p.cflags)?,
        ])
    }

    #[test]
    fn paper_default_has_5120_variants() {
        let s = SearchSpace::paper_default();
        assert_eq!(s.len(), 5120);
        assert_eq!(s.dims(), [32, 8, 5, 2, 1, 2]);
    }

    #[test]
    fn iteration_covers_whole_space_without_duplicates() {
        let s = SearchSpace::tiny();
        let points: Vec<_> = s.iter().collect();
        assert_eq!(points.len(), s.len());
        let mut dedup = points.clone();
        dedup.sort_by_key(|p| (p.tc, p.bc, p.uif, p.sc));
        dedup.dedup();
        assert_eq!(dedup.len(), points.len());
    }

    #[test]
    fn point_and_coords_round_trip() {
        let s = SearchSpace::paper_default();
        for idx in [0usize, 1, 31, 32, 5119, 2500] {
            let p = s.point(idx);
            let coords = coords_of(&s, &p).expect("on grid");
            assert_eq!(s.at(coords), p, "idx {idx}");
        }
    }

    #[test]
    #[should_panic(expected = "out of space")]
    fn out_of_range_index_panics() {
        SearchSpace::tiny().point(999);
    }

    #[test]
    fn restrict_tc_prunes() {
        let s = SearchSpace::paper_default();
        let pruned = s.restrict_tc(&[128, 256, 512, 1024]).unwrap();
        assert_eq!(pruned.tc, vec![128, 256, 512, 1024]);
        assert_eq!(pruned.len(), 5120 / 8);
        assert!(s.restrict_tc(&[7]).is_none());
    }

    #[test]
    fn off_grid_point_has_no_coords() {
        let s = SearchSpace::tiny();
        let mut p = s.point(0);
        p.tc = 999;
        assert_eq!(coords_of(&s, &p), None);
    }
}
