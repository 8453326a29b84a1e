//! Ranking and Table V statistics.
//!
//! §IV-A: "The execution times were sorted in ascending order and the
//! ranks were split along the 50th percentile. Rank 1 represents the
//! upper-half of the 50th percentile (good performers), while Rank 2
//! represents the lower portion (poor performers)."

use crate::eval::Measurement;
use std::borrow::Borrow;

/// Splits measurements at the 50th percentile of execution time.
/// Infeasible variants are excluded before ranking. Returns
/// `(rank1_good, rank2_poor)`.
///
/// Accepts any slice of owned, borrowed, or [`Arc`](std::sync::Arc)ed
/// measurements (the evaluation engine hands out shared handles).
pub fn split_ranks<M: Borrow<Measurement>>(
    measurements: &[M],
) -> (Vec<&Measurement>, Vec<&Measurement>) {
    let mut feasible: Vec<&Measurement> =
        measurements.iter().map(Borrow::borrow).filter(|m| m.feasible).collect();
    feasible.sort_by(|a, b| a.time_ms.partial_cmp(&b.time_ms).expect("finite times"));
    let mid = feasible.len() / 2;
    let rank2 = feasible.split_off(mid);
    (feasible, rank2)
}

/// Table V statistics over one rank (all zero for an empty one).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RankStats {
    /// Variants in the rank.
    pub count: usize,
    /// Occupancy mean (percent, as Table V reports it).
    pub occupancy_mean: f64,
    /// Occupancy standard deviation (percent).
    pub occupancy_std: f64,
    /// Occupancy mode (percent, most frequent value to two decimals).
    pub occupancy_mode: f64,
    /// Mean dynamic register-instruction count.
    pub reg_instr_mean: f64,
    /// Register-instruction standard deviation.
    pub reg_instr_std: f64,
    /// Most frequent allocated register count ("Allocated" column).
    pub regs_allocated_mode: u32,
    /// Thread-count quartiles `(25th, 50th, 75th)`.
    pub thread_quartiles: (f64, f64, f64),
}

/// Computes Table V statistics for a rank.
pub fn rank_stats(rank: &[&Measurement]) -> RankStats {
    if rank.is_empty() {
        return RankStats::default();
    }
    let occs: Vec<f64> = rank.iter().map(|m| m.occupancy * 100.0).collect();
    let regs: Vec<f64> = rank.iter().map(|m| m.reg_instructions).collect();
    let (occ_mean, occ_std) = mean_std(&occs);
    let (reg_mean, reg_std) = mean_std(&regs);

    // Mode over two-decimal occupancy buckets (Table V prints values
    // like 93.75).
    let occupancy_mode = mode_by(&occs, |v| (v * 100.0).round() as i64) / 1.0;
    let regs_allocated_mode =
        mode_by(&rank.iter().map(|m| f64::from(m.regs_allocated)).collect::<Vec<_>>(), |v| {
            v.round() as i64
        })
        .round() as u32;

    let mut threads: Vec<f64> = rank.iter().map(|m| f64::from(m.params.tc)).collect();
    threads.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let thread_quartiles =
        (percentile(&threads, 0.25), percentile(&threads, 0.50), percentile(&threads, 0.75));

    RankStats {
        count: rank.len(),
        occupancy_mean: occ_mean,
        occupancy_std: occ_std,
        occupancy_mode,
        reg_instr_mean: reg_mean,
        reg_instr_std: reg_std,
        regs_allocated_mode,
        thread_quartiles,
    }
}

fn mean_std(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if values.len() < 2 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

/// Mode of `values` after bucketing with `key`; returns the (mean) value
/// of the most populous bucket.
fn mode_by(values: &[f64], key: impl Fn(f64) -> i64) -> f64 {
    use std::collections::HashMap;
    let mut buckets: HashMap<i64, (usize, f64)> = HashMap::new();
    for &v in values {
        let e = buckets.entry(key(v)).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += v;
    }
    buckets
        .into_iter()
        .max_by_key(|(k, (count, _))| (*count, *k))
        .map(|(_, (count, sum))| sum / count as f64)
        .unwrap_or(0.0)
}

/// Linear-interpolated percentile of a sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;
    use oriole_codegen::TuningParams;

    fn m(tc: u32, time: f64, occ: f64, regs: u32, reg_instr: f64) -> Measurement {
        Measurement {
            params: TuningParams::with_geometry(tc, 48),
            time_ms: time,
            per_size_ms: vec![(64, time)],
            feasible: time.is_finite(),
            occupancy: occ,
            regs_allocated: regs,
            reg_instructions: reg_instr,
        }
    }

    #[test]
    fn split_is_a_partition_by_time() {
        let ms: Vec<Measurement> = (1..=10)
            .map(|i| m(i * 32, f64::from(i), 0.9, 24, 1000.0))
            .collect();
        let (r1, r2) = split_ranks(&ms);
        assert_eq!(r1.len(), 5);
        assert_eq!(r2.len(), 5);
        let worst_good = r1.iter().map(|m| m.time_ms).fold(f64::MIN, f64::max);
        let best_poor = r2.iter().map(|m| m.time_ms).fold(f64::MAX, f64::min);
        assert!(worst_good <= best_poor);
    }

    #[test]
    fn infeasible_variants_excluded() {
        let ms = vec![m(32, 1.0, 0.9, 24, 10.0), m(64, f64::INFINITY, 0.0, 0, 0.0)];
        let (r1, r2) = split_ranks(&ms);
        assert_eq!(r1.len() + r2.len(), 1);
    }

    #[test]
    fn stats_basics() {
        let ms: Vec<Measurement> = vec![
            m(128, 1.0, 0.9375, 24, 100.0),
            m(160, 2.0, 0.9375, 24, 200.0),
            m(192, 3.0, 0.75, 28, 300.0),
        ];
        let refs: Vec<&Measurement> = ms.iter().collect();
        let s = rank_stats(&refs);
        assert_eq!(s.count, 3);
        assert!((s.occupancy_mean - (93.75 + 93.75 + 75.0) / 3.0).abs() < 1e-9);
        assert!((s.occupancy_mode - 93.75).abs() < 1e-9);
        assert_eq!(s.regs_allocated_mode, 24);
        assert!((s.reg_instr_mean - 200.0).abs() < 1e-9);
        assert!(s.reg_instr_std > 0.0);
        let (q25, q50, q75) = s.thread_quartiles;
        assert_eq!(q50, 160.0);
        assert!(q25 < q50 && q50 < q75);
    }

    #[test]
    fn empty_rank_is_zeroed() {
        let s = rank_stats(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.thread_quartiles, (0.0, 0.0, 0.0));
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 40.0);
        assert_eq!(percentile(&v, 0.5), 25.0);
        assert_eq!(percentile(&[5.0], 0.75), 5.0);
    }

    #[test]
    fn odd_count_split() {
        let ms: Vec<Measurement> =
            (1..=7).map(|i| m(i * 32, f64::from(i), 0.9, 24, 10.0)).collect();
        let (r1, r2) = split_ranks(&ms);
        // 7/2 = 3 good, 4 poor.
        assert_eq!(r1.len(), 3);
        assert_eq!(r2.len(), 4);
    }
}
