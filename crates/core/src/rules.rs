//! The §III-C rule-based heuristic.
//!
//! "Through empirical observation, we have concluded that a threshold of
//! intensity > 4.0 would benefit from upper ranges of thread values
//! suggested by our static analyzer, whereas intensity ≤ 4.0 would
//! benefit from lower ranges of suggested thread values."

/// The paper's intensity threshold separating compute-leaning kernels
/// (upper thread ranges) from memory-leaning ones (lower ranges).
pub(crate) const INTENSITY_THRESHOLD: f64 = 4.0;

/// Which band of the suggested thread counts the heuristic selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadRange {
    /// The lower half of `T*` (memory-leaning kernels).
    Lower,
    /// The upper half of `T*` (compute-leaning kernels).
    Upper,
}

/// Applies the intensity rule.
fn range_for_intensity(intensity: f64) -> ThreadRange {
    if intensity > INTENSITY_THRESHOLD {
        ThreadRange::Upper
    } else {
        ThreadRange::Lower
    }
}

/// Restricts a suggested `T*` list to the heuristic's band. The split is
/// at the midpoint; odd-length lists give the middle element to both
/// bands (the paper keeps the suggestion non-empty either way).
fn apply_range(thread_counts: &[u32], range: ThreadRange) -> Vec<u32> {
    if thread_counts.len() <= 1 {
        return thread_counts.to_vec();
    }
    let mid = thread_counts.len() / 2;
    match range {
        ThreadRange::Lower => thread_counts[..mid.max(1)].to_vec(),
        ThreadRange::Upper => thread_counts[mid.min(thread_counts.len() - 1)..].to_vec(),
    }
}

/// One-call convenience: the rule-pruned thread suggestion for a kernel
/// with the given measured intensity.
pub(crate) fn rule_based_threads(thread_counts: &[u32], intensity: f64) -> Vec<u32> {
    apply_range(thread_counts, range_for_intensity(intensity))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_boundary() {
        assert_eq!(range_for_intensity(4.0), ThreadRange::Lower);
        assert_eq!(range_for_intensity(4.0001), ThreadRange::Upper);
        assert_eq!(range_for_intensity(0.0), ThreadRange::Lower);
        assert_eq!(range_for_intensity(16.3), ThreadRange::Upper);
    }

    #[test]
    fn split_even_list() {
        let t = vec![128, 256, 512, 1024];
        assert_eq!(apply_range(&t, ThreadRange::Lower), vec![128, 256]);
        assert_eq!(apply_range(&t, ThreadRange::Upper), vec![512, 1024]);
    }

    #[test]
    fn split_odd_list_keeps_middle_reachable() {
        let t = vec![192, 256, 384, 512, 768];
        let lower = apply_range(&t, ThreadRange::Lower);
        let upper = apply_range(&t, ThreadRange::Upper);
        assert_eq!(lower, vec![192, 256]);
        assert_eq!(upper, vec![384, 512, 768]);
        // Union covers everything.
        let mut all = lower;
        all.extend(upper);
        assert_eq!(all, t);
    }

    #[test]
    fn degenerate_lists() {
        assert_eq!(apply_range(&[], ThreadRange::Upper), Vec::<u32>::new());
        assert_eq!(apply_range(&[256], ThreadRange::Lower), vec![256]);
        assert_eq!(apply_range(&[256], ThreadRange::Upper), vec![256]);
    }

    #[test]
    fn paper_kernels_land_in_expected_bands() {
        // Measured intensities from our kernels (see oriole-kernels
        // tests): atax ≈ 2.3, bicg ≈ 1.5 → Lower; matvec ≈ 5.7,
        // ex14fj ≈ 12 → Upper. Matches the paper's Table VI bands.
        assert_eq!(range_for_intensity(2.3), ThreadRange::Lower);
        assert_eq!(range_for_intensity(1.5), ThreadRange::Lower);
        assert_eq!(range_for_intensity(5.7), ThreadRange::Upper);
        assert_eq!(range_for_intensity(12.1), ThreadRange::Upper);
    }
}
