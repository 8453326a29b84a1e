//! Fuzz-style property tests for the two text parsers: arbitrary input
//! must never panic, valid-input round-trips must be stable, and every
//! listing the disassembly parser accepts must analyze without
//! panicking — IR text is the one outside input that reaches
//! `ProgramIndex::build`. Each property runs 256 seeded cases.

use oriole::arch::ALL_GPUS;
use oriole::core::analyze_disassembly;
use oriole::ir::lower::{lower, LowerOptions};
use oriole::ir::testgen::{check, kernel, TestRng};
use oriole::ir::{text, LaunchGeometry};
use oriole::tuner::parse_spec;

const CASES: u32 = 256;

/// Up to 32 printable characters: printable ASCII, with one draw in 20
/// taken from U+00A1–U+02FF so the parsers see multi-byte UTF-8 too.
fn printable(rng: &mut TestRng) -> String {
    (0..rng.range_u64(0, 32))
        .map(|_| {
            let (lo, hi) = if rng.range_u64(0, 19) == 0 { (0xA1, 0x2FF) } else { (0x20, 0x7E) };
            char::from_u32(rng.range_u64(lo, hi) as u32).expect("below the surrogates")
        })
        .collect()
}

/// `lo..=hi` characters from an alphabet of `ranges` and then `singles`:
/// each character draws an entry of the alphabet, then a character in it.
fn chars(rng: &mut TestRng, ranges: &[(char, char)], singles: &str, lo: u64, hi: u64) -> String {
    let mut alphabet = ranges.to_vec();
    alphabet.extend(singles.chars().map(|c| (c, c)));
    (0..rng.range_u64(lo, hi))
        .map(|_| {
            let (a, b) = rng.pick(&alphabet);
            char::from_u32(rng.range_u64(u64::from(a), u64::from(b)) as u32).expect("no surrogate")
        })
        .collect()
}

/// Analyzes `listing` when it parses, on the device of its family: a
/// parsed listing must analyze, never panic.
fn analyzes_if_it_parses(listing: &str, geometry: LaunchGeometry) {
    let Ok(program) = text::parse(listing) else {
        return;
    };
    let gpu = ALL_GPUS
        .iter()
        .map(|g| g.spec())
        .find(|s| s.family == program.meta.family)
        .expect("one device per family");
    if let Err(e) = analyze_disassembly(listing, gpu, geometry) {
        panic!("{e}\n{listing}");
    }
}

/// One terminator edit: a branch whose two targets coincide, a loop-back
/// to the entry, a block that jumps to itself (so it can never reach
/// `ret`), or a flipped `divergent=` flag. `at` picks which matching
/// line; a listing with no such line is left as it is.
fn mutate(listing: &str, kind: usize, at: usize) -> String {
    let mut lines: Vec<String> = listing.lines().map(str::to_string).collect();
    let mut label = String::new();
    let mut sites = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if let Some(rest) = line.strip_prefix(".block ") {
            label = rest.split_whitespace().next().unwrap_or_default().to_string();
        }
        let Some(term) = line.trim().strip_prefix("term ") else {
            continue;
        };
        let words: Vec<&str> = term.split_whitespace().collect();
        let edited = match (kind, words.as_slice()) {
            (0, ["condbr", pred, taken, _, rest @ ..]) => {
                Some(format!("condbr {pred} {taken} {taken} {}", rest.join(" ")))
            }
            (1, ["loopback", _, exit, rest @ ..]) => {
                Some(format!("loopback entry {exit} {}", rest.join(" ")))
            }
            (2, _) => Some(format!("jump {label}")),
            (3, ["condbr", ..]) if term.contains("divergent=true") => {
                Some(term.replace("divergent=true", "divergent=false"))
            }
            (3, ["condbr", ..]) => Some(term.replace("divergent=false", "divergent=true")),
            _ => None,
        };
        if let Some(edited) = edited {
            sites.push((i, format!("  term {edited}")));
        }
    }
    if !sites.is_empty() {
        let (i, edited) = sites.swap_remove(at % sites.len());
        lines[i] = edited;
    }
    lines.join("\n")
}

#[test]
fn disassembly_parser_is_total_on_garbage() {
    check("disassembly_parser_is_total_on_garbage", CASES, |rng| {
        // Any outcome but a panic is acceptable.
        analyzes_if_it_parses(&printable(rng), LaunchGeometry::new(64, 128, 48));
    });
}

#[test]
fn disassembly_parser_is_total_on_listing_like_garbage() {
    const LINES: [&str; 6] = [
        ".kernel k family=Kepler regs=0 smem=0 spill=0",
        ".block b freq=once",
        "  term ret",
        "  add.f32 %r0, %r1, %r2",
        "  term jump nowhere",
        "  frobnicate",
    ];
    check("disassembly_parser_is_total_on_listing_like_garbage", CASES, |rng| {
        let lines: Vec<String> = (0..rng.range_u64(0, 11))
            .map(|_| match LINES.get(rng.range_usize(0, LINES.len() + 1)) {
                Some(line) => line.to_string(),
                None => chars(rng, &[('a', 'z'), ('0', '9')], ".%@!=() ", 0, 40),
            })
            .collect();
        analyzes_if_it_parses(&lines.join("\n"), LaunchGeometry::new(64, 128, 48));
    });
}

#[test]
fn mutated_listings_that_parse_analyze_without_panicking() {
    check("mutated_listings_that_parse_analyze_without_panicking", CASES, |rng| {
        let ast = kernel(rng, "prop_kernel");
        let (family, fast_math) = (rng.pick(&ALL_GPUS).spec().family, rng.coin());
        let mutations: Vec<(usize, u64)> =
            (0..rng.range_u64(1, 3)).map(|_| (rng.range_usize(0, 4), rng.next_u64())).collect();
        let n = rng.range_u64(1, 512);
        let (tc_i, bc) = (rng.range_u64(1, 32) as u32, rng.range_u64(1, 192) as u32);
        let mut listing = text::emit(&lower(&ast, family, LowerOptions { fast_math }));
        let geometry = LaunchGeometry::new(n, tc_i * 32, bc);
        analyzes_if_it_parses(&listing, geometry);
        for (kind, at) in mutations {
            listing = mutate(&listing, kind, at as usize);
            analyzes_if_it_parses(&listing, geometry);
        }
    });
}

#[test]
fn spec_parser_is_total_on_garbage() {
    check("spec_parser_is_total_on_garbage", CASES, |rng| {
        let _ = parse_spec(&printable(rng));
    });
}

#[test]
fn spec_parser_is_total_on_param_like_garbage() {
    const EXPRS: [&str; 5] =
        ["range(32,1025,32)", "[16,48]", "['', '-use_fast_math']", "range(0,0)", "[abc]"];
    check("spec_parser_is_total_on_param_like_garbage", CASES, |rng| {
        let names: Vec<String> =
            (0..rng.range_u64(1, 3)).map(|_| chars(rng, &[('A', 'Z')], "", 1, 6)).collect();
        let exprs: Vec<String> = (0..rng.range_u64(1, 3))
            .map(|_| match EXPRS.get(rng.range_usize(0, EXPRS.len() + 1)) {
                Some(expr) => expr.to_string(),
                None => chars(rng, &[('a', 'z'), ('0', '9')], ",()[]' -", 0, 24),
            })
            .collect();
        let text: String = names
            .iter()
            .zip(exprs.iter().cycle())
            .map(|(n, e)| format!("param {n}[] = {e};\n"))
            .collect();
        // Must not panic; if it parses, the space must be non-empty and
        // iterable.
        if let Ok(space) = parse_spec(&text) {
            assert!(!space.is_empty());
            let _ = space.point(0);
        }
    });
}

#[test]
fn valid_spec_round_trip_is_stable() {
    check("valid_spec_round_trip_is_stable", CASES, |rng| {
        let tc_step = rng.range_u64(1, 8) as u32 * 32;
        let (bc_count, uif_hi) = (rng.range_usize(1, 9), rng.range_u64(1, 5) as u32);
        let bcs: Vec<String> = (1..=bc_count).map(|i| (i * 24).to_string()).collect();
        let text = format!(
            "param TC[] = range({tc_step},1025,{tc_step});\nparam BC[] = [{}];\nparam UIF[] = range(1,{});",
            bcs.join(","),
            uif_hi + 1
        );
        let space = parse_spec(&text).expect("valid spec parses");
        assert_eq!(space.bc.len(), bc_count);
        assert_eq!(space.uif.len(), uif_hi as usize);
        assert!(space.tc.iter().all(|t| t % tc_step == 0));
        // Every flat index is reachable in iteration order, and each
        // point's values lie on the axes and map back to it.
        for idx in [0, space.len() - 1, space.len() / 2] {
            let p = space.point(idx);
            assert_eq!(space.iter().nth(idx), Some(p));
            let coords = [
                space.tc.iter().position(|&v| v == p.tc),
                space.bc.iter().position(|&v| v == p.bc),
                space.uif.iter().position(|&v| v == p.uif),
                space.pl.iter().position(|&v| v == p.pl),
                space.sc.iter().position(|&v| v == p.sc),
                space.cflags.iter().position(|&v| v == p.cflags),
            ]
            .map(|c| c.expect("on grid"));
            assert_eq!(space.at(coords), p);
        }
    });
}
