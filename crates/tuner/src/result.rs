//! Experiment records and CSV export.

use crate::eval::Measurement;
use std::fmt::Write as _;

/// CSV header matching [`measurement_csv_row`].
const MEASUREMENT_CSV_HEADER: &str =
    "tc,bc,uif,pl_kb,sc,fast_math,feasible,time_ms,occupancy,regs,reg_instructions";

/// One measurement as a CSV row (see [`MEASUREMENT_CSV_HEADER`]).
fn measurement_csv_row(m: &Measurement) -> String {
    format!(
        "{},{},{},{},{},{},{},{},{},{},{}",
        m.params.tc,
        m.params.bc,
        m.params.uif,
        m.params.pl.kb(),
        m.params.sc,
        m.params.cflags.fast_math,
        m.feasible,
        if m.time_ms.is_finite() { m.time_ms.to_string() } else { "inf".to_string() },
        m.occupancy,
        m.regs_allocated,
        m.reg_instructions
    )
}

/// Renders a full measurement table as CSV.
///
/// Accepts any slice of owned, borrowed, or [`Arc`](std::sync::Arc)ed
/// measurements (the evaluation engine hands out shared handles).
pub fn measurements_csv<M: std::borrow::Borrow<Measurement>>(measurements: &[M]) -> String {
    let mut out = String::with_capacity(measurements.len() * 64);
    out.push_str(MEASUREMENT_CSV_HEADER);
    out.push('\n');
    for m in measurements {
        let _ = writeln!(out, "{}", measurement_csv_row(m.borrow()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use oriole_codegen::TuningParams;

    fn sample() -> Measurement {
        Measurement {
            params: TuningParams::with_geometry(128, 48),
            time_ms: 1.25,
            per_size_ms: vec![(64, 1.25)],
            feasible: true,
            occupancy: 0.9375,
            regs_allocated: 24,
            reg_instructions: 12_345.0,
        }
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let header_fields = MEASUREMENT_CSV_HEADER.split(',').count();
        let row_fields = measurement_csv_row(&sample()).split(',').count();
        assert_eq!(header_fields, row_fields);
    }

    #[test]
    fn infeasible_time_serializes_as_inf() {
        let mut m = sample();
        m.time_ms = f64::INFINITY;
        m.feasible = false;
        let row = measurement_csv_row(&m);
        assert!(row.contains(",inf,"));
    }

    #[test]
    fn csv_document_shape() {
        let doc = measurements_csv(&[sample(), sample()]);
        assert_eq!(doc.lines().count(), 3);
        assert!(doc.starts_with("tc,bc"));
    }
}
