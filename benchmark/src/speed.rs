//! Speed normalisation of the timed end-to-end metrics.
//!
//! The sandbox is a small VM on a shared host: its speed moves by tens
//! of per cent from one minute to the next, for every workload at once,
//! and no run of a few seconds averages that out. So each timed piece of
//! work is bracketed by a fixed piece of *reference work* — this file's
//! own code, nothing of the product — and its wall time is divided by
//! how much slower than nominal the reference work ran around it. The
//! result is still seconds: the time the work takes on this machine at
//! its nominal speed. A product change moves it one for one, because
//! the reference work never changes; a neighbour on the host moves both
//! and mostly cancels (measured: the spread between ten runs halves).

use std::collections::HashMap;
use std::time::Instant;

/// What [`reference_work`] takes on the 2-core sandbox when the host
/// is quiet. Pinned, so normalised seconds read like wall seconds there.
pub const NOMINAL_S: f64 = 0.011;

/// One pass of the reference work, in seconds: a dependent
/// integer-mixing chain, then a hash map built and probed with freshly
/// allocated string values — arithmetic, allocation and hashing, which
/// is what the product's hot paths are made of. Single-threaded, ~11 ms.
pub fn reference_work() -> f64 {
    let start = Instant::now();
    let mut z = 1u64;
    for _ in 0..3_000_000u32 {
        z = (z ^ (z >> 30))
            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            .wrapping_add(0x9e37);
    }
    std::hint::black_box(z);
    let key = |i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut map: HashMap<u64, String> = HashMap::new();
    for i in 0..20_000u64 {
        map.insert(key(i), format!("k{i}"));
    }
    let found: usize = (0..40_000u64)
        .filter_map(|i| map.get(&key(i)))
        .map(String::len)
        .sum();
    std::hint::black_box(found);
    start.elapsed().as_secs_f64()
}

/// Brackets consecutive pieces of timed work with reference work.
pub struct SpeedMeter {
    /// The pass that ended where the current piece of work began.
    before: f64,
}

impl SpeedMeter {
    /// Runs the pass in front of the first piece of work.
    pub fn start() -> SpeedMeter {
        SpeedMeter {
            before: reference_work(),
        }
    }

    /// Call when a piece of work has ended: runs the pass behind it
    /// (which is also the pass in front of the next) and returns how
    /// much slower than nominal the machine ran around the work, above
    /// 1 when slower. Divide the work's wall time by it.
    pub fn slowdown(&mut self) -> f64 {
        let after = reference_work();
        let around = (self.before + after) / 2.0;
        self.before = after;
        around / NOMINAL_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_mean_of_the_bracketing_passes_over_nominal() {
        let mut meter = SpeedMeter {
            before: NOMINAL_S * 1.5,
        };
        let slowdown = meter.slowdown();
        let after = meter.before;
        assert!(after > 0.0);
        let expected = (NOMINAL_S * 1.5 + after) / 2.0 / NOMINAL_S;
        assert!((slowdown - expected).abs() < 1e-12);
    }
}
