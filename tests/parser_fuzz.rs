//! Fuzz-style property tests for the two text parsers: arbitrary input
//! must never panic, valid-input round-trips must be stable, and every
//! listing the disassembly parser accepts must analyze without
//! panicking — IR text is the one outside input that reaches
//! `ProgramIndex::build`.

use oriole::arch::ALL_GPUS;
use oriole::core::analyze_disassembly;
use oriole::ir::lower::{lower, LowerOptions};
use oriole::ir::{text, LaunchGeometry};
use oriole::tuner::parse_spec;
use proptest::prelude::*;

mod common;
use common::arb_kernel;

/// Analyzes `listing` when it parses, on the device of its family: a
/// parsed listing must analyze, never panic.
fn analyzes_if_it_parses(listing: &str, geometry: LaunchGeometry) -> Result<(), TestCaseError> {
    let Ok(program) = text::parse(listing) else {
        return Ok(());
    };
    let gpu = ALL_GPUS
        .iter()
        .map(|g| g.spec())
        .find(|s| s.family == program.meta.family)
        .expect("one device per family");
    if let Err(e) = analyze_disassembly(listing, gpu, geometry) {
        return Err(TestCaseError::fail(format!("{e}\n{listing}")));
    }
    Ok(())
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn disassembly_parser_is_total_on_garbage(input in "\\PC*") {
        // Any outcome but a panic is acceptable.
        analyzes_if_it_parses(&input, LaunchGeometry::new(64, 128, 48))?;
    }

    #[test]
    fn disassembly_parser_is_total_on_listing_like_garbage(
        lines in prop::collection::vec(
            prop_oneof![
                Just(".kernel k family=Kepler regs=0 smem=0 spill=0".to_string()),
                Just(".block b freq=once".to_string()),
                Just("  term ret".to_string()),
                Just("  add.f32 %r0, %r1, %r2".to_string()),
                Just("  term jump nowhere".to_string()),
                Just("  frobnicate".to_string()),
                "[a-z.%@!=() 0-9]{0,40}",
            ],
            0..12,
        )
    ) {
        analyzes_if_it_parses(&lines.join("\n"), LaunchGeometry::new(64, 128, 48))?;
    }

    #[test]
    fn mutated_listings_that_parse_analyze_without_panicking(
        ast in arb_kernel(),
        gpu_i in 0usize..4,
        fast_math in any::<bool>(),
        mutations in prop::collection::vec((0usize..4, any::<u64>()), 1..4),
        (n, tc_i, bc) in (1u64..=512, 1u32..=32, 1u32..=192),
    ) {
        let family = ALL_GPUS[gpu_i].spec().family;
        let mut listing = text::emit(&lower(&ast, family, LowerOptions { fast_math }));
        let geometry = LaunchGeometry::new(n, tc_i * 32, bc);
        analyzes_if_it_parses(&listing, geometry)?;
        for (kind, at) in mutations {
            listing = mutate(&listing, kind, at as usize);
            analyzes_if_it_parses(&listing, geometry)?;
        }
    }

    #[test]
    fn spec_parser_is_total_on_garbage(input in "\\PC*") {
        let _ = parse_spec(&input);
    }

    #[test]
    fn spec_parser_is_total_on_param_like_garbage(
        names in prop::collection::vec("[A-Z]{1,6}", 1..4),
        exprs in prop::collection::vec(
            prop_oneof![
                Just("range(32,1025,32)".to_string()),
                Just("[16,48]".to_string()),
                Just("['', '-use_fast_math']".to_string()),
                Just("range(0,0)".to_string()),
                Just("[abc]".to_string()),
                "[a-z0-9,()\\[\\]' -]{0,24}",
            ],
            1..4,
        )
    ) {
        let text: String = names
            .iter()
            .zip(exprs.iter().cycle())
            .map(|(n, e)| format!("param {n}[] = {e};\n"))
            .collect();
        // Must not panic; if it parses, the space must be non-empty and
        // iterable.
        if let Ok(space) = parse_spec(&text) {
            prop_assert!(!space.is_empty());
            let _ = space.point(0);
        }
    }

    #[test]
    fn valid_spec_round_trip_is_stable(
        tc_step in 1u32..=8,
        bc_count in 1usize..=8,
        uif_hi in 1u32..=5,
    ) {
        let tc_step = tc_step * 32;
        let bcs: Vec<String> = (1..=bc_count).map(|i| (i * 24).to_string()).collect();
        let text = format!(
            "param TC[] = range({tc_step},1025,{tc_step});\nparam BC[] = [{}];\nparam UIF[] = range(1,{});",
            bcs.join(","),
            uif_hi + 1
        );
        let space = parse_spec(&text).expect("valid spec parses");
        prop_assert_eq!(space.bc.len(), bc_count);
        prop_assert_eq!(space.uif.len(), uif_hi as usize);
        prop_assert!(space.tc.iter().all(|t| t % tc_step == 0));
        // Every flat index is reachable and coordinates round-trip.
        for idx in [0, space.len() - 1, space.len() / 2] {
            let p = space.point(idx);
            let coords = space.coords_of(&p).expect("on grid");
            prop_assert_eq!(space.at(coords), p);
        }
    }
}
