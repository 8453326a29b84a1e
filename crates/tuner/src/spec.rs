//! Parser for the Fig. 3 tuning-specification DSL.
//!
//! Orio annotations embed a `performance_params` block:
//!
//! ```text
//! /*@ begin PerfTuning (
//!   def performance_params {
//!     param TC[] = range(32,1025,32);
//!     param BC[] = range(24,193,24);
//!     param UIF[] = range(1,6);
//!     param PL[] = [16,48];
//!     param SC[] = range(1,6);
//!     param CFLAGS[] = ['', '-use_fast_math'];
//!   }
//!   ...
//! ) @*/
//! ```
//!
//! [`parse_spec`] extracts the `param` declarations (everything else is
//! tolerated and ignored, as Orio's other sections are orthogonal to the
//! search space) and builds a [`SearchSpace`]. `range(a,b[,s])` follows
//! Python semantics: start inclusive, stop exclusive.
//!
//! A spec is input from outside, so it is bounded before anything is
//! built from it: no `range()` may produce, and no space may hold, more
//! than `MAX_SPACE_POINTS` values (Fig. 3's space is 25,600 points).

use crate::space::SearchSpace;
use oriole_codegen::{CompilerFlags, PreferredL1};
use std::fmt;

/// Specification parse/validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Problem description, including the offending parameter.
    pub msg: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tuning spec error: {}", self.msg)
    }
}

impl std::error::Error for SpecError {}

/// The most values one `range()` may produce and the most points a
/// specification may describe.
pub(crate) const MAX_SPACE_POINTS: u64 = 1 << 24;

fn err(msg: impl Into<String>) -> SpecError {
    SpecError { msg: msg.into() }
}

/// One parsed `param NAME[] = ...;` right-hand side.
#[derive(Debug, Clone, PartialEq)]
enum ParamValues {
    Numbers(Vec<i64>),
    Strings(Vec<String>),
}

/// Parses a Fig. 3-style specification into a [`SearchSpace`].
///
/// Unspecified parameters fall back to single-point axes
/// (`UIF=1, PL=16, SC=1, CFLAGS=''`); `TC` and `BC` are required.
pub fn parse_spec(text: &str) -> Result<SearchSpace, SpecError> {
    let mut tc = None;
    let mut bc = None;
    let mut uif = None;
    let mut pl = None;
    let mut sc = None;
    let mut cflags = None;

    for decl in extract_params(text)? {
        let (name, values) = decl;
        match name.as_str() {
            "TC" => tc = Some(numbers_as_u32(&values, "TC")?),
            "BC" => bc = Some(numbers_as_u32(&values, "BC")?),
            "UIF" => uif = Some(numbers_as_u32(&values, "UIF")?),
            "SC" => sc = Some(numbers_as_u32(&values, "SC")?),
            "PL" => {
                let kbs = numbers_as_u32(&values, "PL")?;
                let parsed: Result<Vec<PreferredL1>, SpecError> = kbs
                    .iter()
                    .map(|&kb| {
                        PreferredL1::from_kb(kb)
                            .ok_or_else(|| err(format!("PL value {kb} is not 16 or 48")))
                    })
                    .collect();
                pl = Some(parsed?);
            }
            "CFLAGS" => {
                let ParamValues::Strings(ss) = &values else {
                    return Err(err("CFLAGS must be a list of strings"));
                };
                let parsed: Result<Vec<CompilerFlags>, SpecError> = ss
                    .iter()
                    .map(|s| match s.trim() {
                        "" => Ok(CompilerFlags { fast_math: false }),
                        "-use_fast_math" => Ok(CompilerFlags { fast_math: true }),
                        other => Err(err(format!("unknown compiler flag `{other}`"))),
                    })
                    .collect();
                cflags = Some(parsed?);
            }
            other => return Err(err(format!("unknown parameter `{other}`"))),
        }
    }

    let space = SearchSpace {
        tc: tc.ok_or_else(|| err("missing required param TC"))?,
        bc: bc.ok_or_else(|| err("missing required param BC"))?,
        uif: uif.unwrap_or_else(|| vec![1]),
        pl: pl.unwrap_or_else(|| vec![PreferredL1::Kb16]),
        sc: sc.unwrap_or_else(|| vec![1]),
        cflags: cflags.unwrap_or_else(|| vec![CompilerFlags { fast_math: false }]),
    };
    let points = space.dims().into_iter().try_fold(1u64, |points, len| {
        points.checked_mul(len as u64).filter(|&p| p <= MAX_SPACE_POINTS)
    });
    if points.is_none() {
        return Err(err(format!("specification describes more than {MAX_SPACE_POINTS} points")));
    }
    if space.is_empty() {
        return Err(err("specification produces an empty space"));
    }
    Ok(space)
}

fn numbers_as_u32(values: &ParamValues, name: &str) -> Result<Vec<u32>, SpecError> {
    let ParamValues::Numbers(ns) = values else {
        return Err(err(format!("{name} must be numeric")));
    };
    if ns.is_empty() {
        return Err(err(format!("{name} is empty")));
    }
    ns.iter()
        .map(|&v| u32::try_from(v).map_err(|_| err(format!("{name} value {v} out of range"))))
        .collect()
}

/// Extracts every `param NAME[] = rhs;` declaration.
fn extract_params(text: &str) -> Result<Vec<(String, ParamValues)>, SpecError> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find("param ") {
        rest = &rest[pos + "param ".len()..];
        let semi = rest
            .find(';')
            .ok_or_else(|| err("unterminated param declaration (missing `;`)"))?;
        let decl = &rest[..semi];
        rest = &rest[semi + 1..];
        let (lhs, rhs) = decl
            .split_once('=')
            .ok_or_else(|| err(format!("param without `=`: `{decl}`")))?;
        let name = lhs
            .trim()
            .strip_suffix("[]")
            .ok_or_else(|| err(format!("expected `NAME[]`, got `{}`", lhs.trim())))?
            .trim()
            .to_string();
        out.push((name, parse_rhs(rhs.trim())?));
    }
    Ok(out)
}

fn parse_rhs(rhs: &str) -> Result<ParamValues, SpecError> {
    if let Some(args) = rhs.strip_prefix("range(").and_then(|r| r.strip_suffix(')')) {
        let parts: Vec<&str> = args.split(',').map(str::trim).collect();
        let nums: Result<Vec<i64>, SpecError> = parts
            .iter()
            .map(|p| p.parse::<i64>().map_err(|_| err(format!("bad range bound `{p}`"))))
            .collect();
        let nums = nums?;
        let (start, stop, step) = match nums.as_slice() {
            [a, b] => (*a, *b, 1),
            [a, b, s] => (*a, *b, *s),
            _ => return Err(err(format!("range() takes 2 or 3 arguments, got `{rhs}`"))),
        };
        if step <= 0 {
            return Err(err("range() step must be positive"));
        }
        if stop <= start {
            return Err(err(format!("range `{rhs}` is empty")));
        }
        let len = stop.abs_diff(start).div_ceil(step.unsigned_abs());
        if len > MAX_SPACE_POINTS {
            return Err(err(format!("range `{rhs}` has more than {MAX_SPACE_POINTS} values")));
        }
        let mut vals = Vec::with_capacity(len as usize);
        let mut next = Some(start);
        while let Some(v) = next.filter(|&v| v < stop) {
            vals.push(v);
            next = v.checked_add(step);
        }
        return Ok(ParamValues::Numbers(vals));
    }
    if let Some(inner) = rhs.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
        let items: Vec<&str> = inner.split(',').map(str::trim).collect();
        // String list when any item is quoted.
        if items.iter().any(|i| i.starts_with('\'') || i.starts_with('"')) {
            let strings: Result<Vec<String>, SpecError> = items
                .iter()
                .map(|i| {
                    let trimmed = i
                        .trim_matches(|c| c == '\'' || c == '"')
                        .to_string();
                    if i.len() >= 2 {
                        Ok(trimmed)
                    } else if i.is_empty() {
                        Err(err("empty list item"))
                    } else {
                        Ok(trimmed)
                    }
                })
                .collect();
            return Ok(ParamValues::Strings(strings?));
        }
        let nums: Result<Vec<i64>, SpecError> = items
            .iter()
            .map(|i| i.parse::<i64>().map_err(|_| err(format!("bad list item `{i}`"))))
            .collect();
        return Ok(ParamValues::Numbers(nums?));
    }
    Err(err(format!("unrecognized parameter expression `{rhs}`")))
}

/// The paper's Fig. 3 specification, verbatim.
pub const FIG3_SPEC: &str = "\
/*@ begin PerfTuning (
def performance_params {
param TC[] = range(32,1025,32);
param BC[] = range(24,193,24);
param UIF[] = range(1,6);
param PL[] = [16,48];
param SC[] = range(1,6);
param CFLAGS[] = ['', '-use_fast_math'];
}
...
) @*/
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_spec_parses_to_fig3_space() {
        let space = parse_spec(FIG3_SPEC).expect("parses");
        assert_eq!(space.tc.len(), 32);
        assert_eq!(space.tc[0], 32);
        assert_eq!(*space.tc.last().unwrap(), 1024);
        assert_eq!(space.bc, vec![24, 48, 72, 96, 120, 144, 168, 192]);
        assert_eq!(space.uif, vec![1, 2, 3, 4, 5]);
        assert_eq!(space.pl.len(), 2);
        assert_eq!(space.sc, vec![1, 2, 3, 4, 5]);
        assert_eq!(space.cflags.len(), 2);
        assert!(space.cflags[0] == CompilerFlags { fast_math: false });
        assert!(space.cflags[1] == CompilerFlags { fast_math: true });
        assert_eq!(space.len(), 25_600);
    }

    #[test]
    fn defaults_fill_optional_axes() {
        let space = parse_spec(
            "param TC[] = range(64,257,64);\nparam BC[] = [24, 48];",
        )
        .unwrap();
        assert_eq!(space.tc, vec![64, 128, 192, 256]);
        assert_eq!(space.bc, vec![24, 48]);
        assert_eq!(space.uif, vec![1]);
        assert_eq!(space.sc, vec![1]);
        assert_eq!(space.len(), 8);
    }

    #[test]
    fn missing_tc_rejected() {
        let e = parse_spec("param BC[] = [24];").unwrap_err();
        assert!(e.msg.contains("TC"));
    }

    #[test]
    fn unknown_param_rejected() {
        let e = parse_spec("param TC[] = [32];\nparam BC[] = [24];\nparam WAT[] = [1];")
            .unwrap_err();
        assert!(e.msg.contains("WAT"));
    }

    #[test]
    fn bad_pl_value_rejected() {
        let e = parse_spec("param TC[] = [32];\nparam BC[] = [24];\nparam PL[] = [32];")
            .unwrap_err();
        assert!(e.msg.contains("PL value 32"));
    }

    #[test]
    fn bad_cflag_rejected() {
        let e = parse_spec(
            "param TC[] = [32];\nparam BC[] = [24];\nparam CFLAGS[] = ['-O9'];",
        )
        .unwrap_err();
        assert!(e.msg.contains("-O9"));
    }

    #[test]
    fn range_semantics_are_pythonic() {
        let space =
            parse_spec("param TC[] = range(32,96,32);\nparam BC[] = range(24,25);").unwrap();
        assert_eq!(space.tc, vec![32, 64]); // stop exclusive
        assert_eq!(space.bc, vec![24]);
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(parse_spec("param TC[] = range(32,96,32)").is_err()); // no `;`
        assert!(parse_spec("param TC = [32];\nparam BC[] = [24];").is_err()); // no []
        assert!(parse_spec("param TC[] = range(96,32,32);\nparam BC[] = [24];").is_err()); // empty
        assert!(parse_spec("param TC[] = range(32,96,-32);\nparam BC[] = [24];").is_err());
        assert!(parse_spec("param TC[] = garbage;\nparam BC[] = [24];").is_err());
        assert!(parse_spec("param TC[] = [x];\nparam BC[] = [24];").is_err());
    }

    #[test]
    fn a_range_stepping_past_i64_max_stops_instead_of_overflowing() {
        let e = parse_spec(
            "param TC[] = range(9223372036854775800,9223372036854775807,100);\nparam BC[] = [24];",
        )
        .unwrap_err();
        assert!(e.msg.contains("TC value 9223372036854775800 out of range"), "{e}");
    }

    #[test]
    fn a_range_too_long_to_tune_is_refused_before_it_is_built() {
        let e = parse_spec("param TC[] = range(0,9223372036854775807);\nparam BC[] = [24];")
            .unwrap_err();
        assert!(e.msg.contains("more than 16777216 values"), "{e}");
    }

    #[test]
    fn a_space_past_max_space_points_is_refused() {
        let axes = |stop: u32| {
            ["TC", "BC", "UIF", "SC"]
                .map(|name| format!("param {name}[] = range(1,{stop});\n"))
                .concat()
        };
        let both = "param PL[] = [16,48];\nparam CFLAGS[] = ['', '-use_fast_math'];";
        // 2,000⁴ × 4 = 6.4·10¹³ points; 70,000⁴ overflows `usize`.
        for stop in [2001, 70001] {
            let e = parse_spec(&(axes(stop) + both)).unwrap_err();
            assert!(e.msg.contains("more than 16777216 points"), "{e}");
        }
        // 4,096² is the bound itself; one more axis value is past it.
        let square = "param TC[] = range(1,4097);\nparam BC[] = range(1,4097);";
        assert_eq!(parse_spec(square).unwrap().len(), 1 << 24);
        assert!(parse_spec(&format!("{square}\nparam UIF[] = [1,2];")).is_err());
    }

    #[test]
    fn errors_display() {
        let e = parse_spec("param BC[] = [24];").unwrap_err();
        assert!(e.to_string().contains("tuning spec error"));
    }
}
