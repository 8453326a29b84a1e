//! Correctness: every answer the product gives during a timed unit is
//! compared bit for bit with the local reference evaluation, and the
//! reference itself is pinned by the files under `golden/`.
//!
//! Two digests are in play. The *bit hash* of a measurement folds its
//! raw IEEE-754 words; it costs a few nanoseconds, so every answered
//! point of every unit is hashed and compared. The *reference digest*
//! is `persist::checksum` over `persist::emit_measurement` — the
//! product's own canonical text — folded over the reference in
//! canonical scope and point order once per run; it is independent of
//! the seed, which is what lets a file pin it.

use crate::gen::Fnv;
use crate::product::{checksum, emit_measurement, Measurement};
use std::path::{Path, PathBuf};

/// Folds every bit of a measurement that a consumer can observe.
pub fn bit_hash(m: &Measurement) -> u64 {
    let mut h = Fnv::new();
    let p = &m.params;
    h.word(u64::from(p.tc) << 32 | u64::from(p.bc));
    h.word(u64::from(p.uif) << 32 | u64::from(p.pl.kb()));
    h.word(u64::from(p.sc) << 1 | u64::from(p.cflags.fast_math));
    h.word(m.time_ms.to_bits());
    h.word(u64::from(m.feasible) << 32 | u64::from(m.regs_allocated));
    h.word(m.occupancy.to_bits());
    h.word(m.reg_instructions.to_bits());
    for &(n, t) in &m.per_size_ms {
        h.word(n);
        h.word(t.to_bits());
    }
    h.finish()
}

/// Folds measurements, in the order given, into the seed-independent
/// digest the golden files pin.
pub fn canonical_digest<'a>(measurements: impl Iterator<Item = &'a Measurement>) -> u64 {
    let mut h = Fnv::new();
    for m in measurements {
        h.word(checksum(emit_measurement(m).as_bytes()));
    }
    h.finish()
}

/// The verdict on the answers of one unit (or of a whole run, summed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Points the unit asked the product about.
    pub attempted: u64,
    /// Points unanswered, refused, or answered with other bits.
    pub failed: u64,
    /// Order-sensitive fold of the answers' bit hashes.
    pub got: u64,
    /// The same fold over the reference's bit hashes.
    pub want: u64,
}

impl Tally {
    pub fn new() -> Tally {
        Tally {
            attempted: 0,
            failed: 0,
            got: Fnv::new().finish(),
            want: Fnv::new().finish(),
        }
    }

    /// Checks one answer against the reference bit hash of the point
    /// that was asked for.
    pub fn answer(&mut self, want_hash: u64, got: &Measurement) {
        let got_hash = bit_hash(got);
        self.attempted += 1;
        self.failed += u64::from(got_hash != want_hash);
        self.fold(want_hash, got_hash);
    }

    /// Counts `n` points that were asked and never answered.
    pub fn unanswered(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
        self.fold(0, 1);
    }

    /// Marks every point of the unit failed: a unit-level invariant
    /// (answered-point count, recomputation count) did not hold.
    pub fn fail_unit(&mut self) {
        self.failed = self.attempted;
        self.fold(0, 1);
    }

    fn fold(&mut self, want: u64, got: u64) {
        let mut w = Fnv(self.want);
        w.word(want);
        self.want = w.finish();
        let mut g = Fnv(self.got);
        g.word(got);
        self.got = g.finish();
    }

    #[cfg(test)]
    pub fn digest_matches(&self) -> bool {
        self.got == self.want
    }

    /// Adds a later unit's counts; the digest stays that of the first
    /// unit, which is the one reported.
    pub fn absorb(&mut self, unit: &Tally) {
        self.attempted += unit.attempted;
        self.failed += unit.failed;
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// What `golden/<workload>.digest` pins.
#[derive(Debug, Clone, PartialEq)]
pub struct Golden {
    /// Oracle queries answered per unit.
    pub points_per_unit: u64,
    /// [`canonical_digest`] of the reference the workload's answers
    /// are compared with, over the workload's scopes.
    pub reference_digest: u64,
    /// Geomean (exhaustive best) / (static pick), as f64 bits.
    pub suggest_quality: f64,
    /// Geomean share of the space the rule-based pruning keeps.
    pub space_kept_pct: f64,
}

impl Golden {
    pub fn path(workload: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("golden")
            .join(format!("{workload}.digest"))
    }

    /// Floats are stored as their bits (exact) with the decimal value
    /// beside them for readers.
    pub fn emit(&self) -> String {
        format!(
            "points_per_unit={}\nreference_digest={:016x}\nsuggest_quality={:016x} # {}\n\
             space_kept_pct={:016x} # {}\n",
            self.points_per_unit,
            self.reference_digest,
            self.suggest_quality.to_bits(),
            self.suggest_quality,
            self.space_kept_pct.to_bits(),
            self.space_kept_pct,
        )
    }

    pub fn parse(text: &str) -> Result<Golden, String> {
        let field = |key: &str| -> Result<&str, String> {
            text.lines()
                .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
                .map(|v| v.split('#').next().unwrap_or(v).trim())
                .ok_or_else(|| format!("golden file lacks `{key}=`"))
        };
        let hex = |key: &str| -> Result<u64, String> {
            u64::from_str_radix(field(key)?, 16).map_err(|_| format!("bad hex in `{key}`"))
        };
        Ok(Golden {
            points_per_unit: field("points_per_unit")?
                .parse()
                .map_err(|_| "bad points_per_unit".to_string())?,
            reference_digest: hex("reference_digest")?,
            suggest_quality: f64::from_bits(hex("suggest_quality")?),
            space_kept_pct: f64::from_bits(hex("space_kept_pct")?),
        })
    }

    pub fn load(workload: &str) -> Result<Golden, String> {
        let path = Golden::path(workload);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Golden::parse(&text)
    }

    /// The fields on which `self` (observed) differs from `pinned`.
    pub fn differences(&self, pinned: &Golden) -> Vec<String> {
        let hex = |v: u64| format!("{v:016x}");
        [
            (
                "points_per_unit",
                self.points_per_unit == pinned.points_per_unit,
                self.points_per_unit.to_string(),
                pinned.points_per_unit.to_string(),
            ),
            (
                "reference_digest",
                self.reference_digest == pinned.reference_digest,
                hex(self.reference_digest),
                hex(pinned.reference_digest),
            ),
            (
                "suggest_quality",
                self.suggest_quality.to_bits() == pinned.suggest_quality.to_bits(),
                self.suggest_quality.to_string(),
                pinned.suggest_quality.to_string(),
            ),
            (
                "space_kept_pct",
                self.space_kept_pct.to_bits() == pinned.space_kept_pct.to_bits(),
                self.space_kept_pct.to_string(),
                pinned.space_kept_pct.to_string(),
            ),
        ]
        .into_iter()
        .filter(|(_, same, _, _)| !same)
        .map(|(name, _, got, want)| format!("{name} {got} != golden {want}"))
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::product::TuningParams;

    fn sample(tc: u32) -> Measurement {
        Measurement {
            params: TuningParams::with_geometry(tc, 48),
            time_ms: 1.25 + f64::from(tc),
            per_size_ms: vec![(32, 0.5), (64, 0.75)],
            feasible: true,
            occupancy: 0.5,
            regs_allocated: 24,
            reg_instructions: 1e6,
        }
    }

    /// The check must be able to fail: one flipped mantissa bit in one
    /// returned measurement is a failed point and a digest mismatch.
    #[test]
    fn one_flipped_bit_fails_the_unit() {
        let reference: Vec<Measurement> = (1..=8).map(|i| sample(i * 32)).collect();
        let hashes: Vec<u64> = reference.iter().map(bit_hash).collect();

        let mut clean = Tally::new();
        for (m, &h) in reference.iter().zip(&hashes) {
            clean.answer(h, m);
        }
        assert_eq!((clean.attempted, clean.failed), (8, 0));
        assert!(clean.digest_matches());
        assert_eq!(clean.failed_share(), 0.0);

        let mut returned = reference.clone();
        returned[5].per_size_ms[1].1 = f64::from_bits(returned[5].per_size_ms[1].1.to_bits() ^ 1);
        let mut flipped = Tally::new();
        for (m, &h) in returned.iter().zip(&hashes) {
            flipped.answer(h, m);
        }
        assert_eq!((flipped.attempted, flipped.failed), (8, 1));
        assert!(flipped.failed_share() > 0.0);
        assert!(!flipped.digest_matches());
        assert_eq!(flipped.want, clean.want);
        assert_ne!(flipped.got, clean.got);
        // The product-text digest sees the same flip.
        assert_ne!(
            canonical_digest(returned.iter()),
            canonical_digest(reference.iter())
        );
    }

    #[test]
    fn an_answer_in_the_wrong_position_fails() {
        let a = sample(64);
        let b = sample(96);
        let mut t = Tally::new();
        t.answer(bit_hash(&a), &b);
        t.answer(bit_hash(&b), &a);
        assert_eq!(t.failed, 2);
        assert!(!t.digest_matches());
    }

    #[test]
    fn unit_level_failures_count_every_point() {
        let a = sample(64);
        let mut t = Tally::new();
        t.answer(bit_hash(&a), &a);
        t.answer(bit_hash(&a), &a);
        t.fail_unit();
        assert_eq!((t.attempted, t.failed), (2, 2));
        assert!(!t.digest_matches());

        let mut u = Tally::new();
        u.unanswered(5);
        assert_eq!((u.attempted, u.failed), (5, 5));
        assert_eq!(u.failed_share(), 1.0);
    }

    #[test]
    fn golden_files_round_trip_exactly() {
        let g = Golden {
            points_per_unit: 81_920,
            reference_digest: 0xa0e4_9042_c01a_2923,
            suggest_quality: 0.987_654_321_012_345_6,
            space_kept_pct: 6.25,
        };
        let back = Golden::parse(&g.emit()).unwrap();
        assert_eq!(back, g);
        assert!(back.differences(&g).is_empty());
        let moved = Golden {
            space_kept_pct: 6.250_000_000_000_001,
            ..g.clone()
        };
        assert_eq!(moved.differences(&g).len(), 1);
        assert!(Golden::parse("points_per_unit=3\n").is_err());
    }
}
