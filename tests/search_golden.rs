//! Pins every query Orio's four stochastic searchers ask, and what they
//! answer, as one digest.
//!
//! `RandomSearch`, `AnnealingSearch`, `GeneticSearch` and
//! `NelderMeadSearch` each run over three spaces — the paper's 5,120
//! points, `SearchSpace::tiny()` and a three-`TC` × one-`BC` space with
//! no free `BC` axis — from seeds `0..150` at budgets 1, 7, 60 and 500,
//! against a synthetic oracle seeded by the search seed that answers
//! `INFINITY` on about 3 % of points. The corpus spells each search's
//! trace in query order (every point, every value as bits), then its
//! `best`, `best_time` as bits and `evaluations`, and is digested with
//! `persist::checksum`.
//!
//! The digest was taken before the searchers' loops and the space's
//! iteration were rewritten to stop allocating per query; it changes
//! only with a change to what a searcher asks or answers, and such a
//! change is its own piece of work.

use oriole::codegen::TuningParams;
use oriole::tuner::{
    persist, AnnealingSearch, GeneticSearch, NelderMeadSearch, Oracle, RandomSearch,
    SearchResult, SearchSpace, Searcher,
};
use std::fmt::Write as _;

/// `persist::checksum` over the corpus (28,586,562 bytes).
const SEARCH_DIGEST: u64 = 0xfe2e_fb67_93fe_8642;

/// Search seeds, each run at every budget.
const SEEDS: std::ops::Range<u64> = 0..150;

/// Query budgets: below a simplex or a population, one generation, and
/// a long run.
const BUDGETS: [usize; 4] = [1, 7, 60, 500];

/// A seeded objective with no structure a searcher could exploit
/// differently from run to run: a mixed hash of the point, infeasible
/// on ~3 % of points.
struct Synthetic(u64);

impl Oracle for Synthetic {
    fn eval(&self, p: TuningParams) -> f64 {
        let mut h = self.0 ^ 0x9e37_79b9_7f4a_7c15;
        for v in [p.tc, p.bc, p.uif, p.pl.kb(), p.sc, u32::from(p.cflags.fast_math)] {
            h = (h ^ u64::from(v)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h ^= h >> 31;
        }
        if h % 100 < 3 {
            f64::INFINITY
        } else {
            1.0 + (h >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

fn spell_point(out: &mut String, p: &TuningParams) {
    let fm = u8::from(p.cflags.fast_math);
    write!(out, "{} {} {} {} {} {fm}", p.tc, p.bc, p.uif, p.pl.kb(), p.sc).expect("a String");
}

fn spell(out: &mut String, heading: std::fmt::Arguments, r: &SearchResult) {
    writeln!(out, "{heading}").expect("a String");
    for (p, v) in &r.trace {
        spell_point(out, p);
        writeln!(out, " {:x}", v.to_bits()).expect("a String");
    }
    out.push_str("best ");
    spell_point(out, &r.best);
    writeln!(out, " {:x} after {}", r.best_time.to_bits(), r.evaluations).expect("a String");
}

#[test]
fn every_searcher_asks_and_answers_as_pinned() {
    let spaces = [
        ("paper", SearchSpace::paper_default()),
        ("tiny", SearchSpace::tiny()),
        ("tc3", SearchSpace { tc: vec![64, 128, 256], bc: vec![48], ..SearchSpace::tiny() }),
    ];
    let mut corpus = String::new();
    for (name, space) in &spaces {
        for seed in SEEDS {
            let oracle = Synthetic(seed);
            let mut searchers: [Box<dyn Searcher>; 4] = [
                Box::new(RandomSearch { seed }),
                Box::new(AnnealingSearch { seed, ..AnnealingSearch::default() }),
                Box::new(GeneticSearch { seed, ..GeneticSearch::default() }),
                Box::new(NelderMeadSearch { seed, ..NelderMeadSearch::default() }),
            ];
            for searcher in &mut searchers {
                for budget in BUDGETS {
                    let r = searcher.search(space, &oracle, budget);
                    let strategy = searcher.name();
                    spell(&mut corpus, format_args!("{strategy} {name} {seed} {budget}"), &r);
                }
            }
        }
    }
    let digest = persist::checksum(corpus.as_bytes());
    assert_eq!(
        digest,
        SEARCH_DIGEST,
        "the search corpus of {} bytes digests to {digest:#018x}",
        corpus.len()
    );
}
