//! Tuning replay and validation — the paper's §VII knowledge-discovery
//! framework.
//!
//! > "We regard the methodology we have developed as a knowledge
//! > discovery framework where the degree of empirical testing can be
//! > 'dialed in' during the autotuning process [...]. By recording the
//! > decisions and code variants at each step, it is also possible to
//! > replay tuning with empirical testing for purpose of validation. In
//! > this way, the framework can continually evaluate the static models
//! > and refine their predictive power."
//!
//! [`TuningLog`] records every decision a search makes (which variant,
//! why, what the static model predicted). [`replay`] re-runs the logged
//! variants against an oracle — typically the empirical evaluator — and
//! reports where the static model's ranking disagreed with measurement,
//! closing the loop the paper describes.

use crate::search::Oracle;
use oriole_codegen::TuningParams;

/// Why a variant entered the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Visited by the search strategy.
    Explored,
    /// Kept by static pruning (member of the suggested set).
    StaticSuggested,
    /// Rejected by static pruning (outside the suggested set).
    StaticPruned,
    /// Selected as the final best.
    SelectedBest,
}

/// One logged step.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// Sequence number in decision order.
    pub step: usize,
    /// The variant concerned.
    pub params: TuningParams,
    /// Why it was recorded.
    pub decision: Decision,
    /// The static model's predicted cost, if one was consulted.
    pub predicted: Option<f64>,
    /// The measured objective, if the step measured (None for purely
    /// static decisions — the whole point of the paper).
    pub measured: Option<f64>,
}

/// An append-only record of a tuning session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TuningLog {
    entries: Vec<LogEntry>,
}

impl TuningLog {
    /// An empty log.
    pub fn new() -> TuningLog {
        TuningLog::default()
    }

    /// Appends a step.
    pub fn record(
        &mut self,
        params: TuningParams,
        decision: Decision,
        predicted: Option<f64>,
        measured: Option<f64>,
    ) {
        let step = self.entries.len();
        self.entries.push(LogEntry { step, params, decision, predicted, measured });
    }

    /// All entries in decision order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }
}

/// Result of replaying a log against an oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// `(entry, replayed objective)` for every replayed variant.
    pub outcomes: Vec<(LogEntry, f64)>,
    /// Fraction of (prediction-carrying) pairs the static model ordered
    /// the same way the oracle does.
    pub prediction_agreement: f64,
    /// The best variant found during replay.
    pub best: Option<(TuningParams, f64)>,
    /// Validation verdict: among replayed variants, was any
    /// `StaticPruned` one more than `tolerance` better than the best
    /// `StaticSuggested` one? If so the static model pruned away a
    /// winner — the "refine the predictive power" signal of §VII.
    pub pruned_winner: Option<(TuningParams, f64)>,
}

/// Replays every logged variant against `oracle` (deduplicated, in first-
/// seen order) and validates the static decisions.
///
/// `tolerance` is the relative slack for declaring a pruned variant an
/// actual winner (e.g. 0.05 = must beat the suggested best by >5%).
pub fn replay(log: &TuningLog, oracle: &dyn Oracle, tolerance: f64) -> ReplayReport {
    let mut seen: Vec<TuningParams> = Vec::new();
    let mut unique_entries: Vec<&LogEntry> = Vec::new();
    for e in log.entries() {
        if !seen.contains(&e.params) {
            seen.push(e.params);
            unique_entries.push(e);
        }
    }
    let values = oracle.eval_many(&seen);
    let outcomes: Vec<(LogEntry, f64)> = unique_entries
        .iter()
        .zip(values.iter())
        .map(|(e, v)| ((*e).clone(), *v))
        .collect();

    // Prediction-vs-replay ordering agreement.
    let with_pred: Vec<(f64, f64)> = outcomes
        .iter()
        .filter_map(|(e, v)| e.predicted.map(|p| (p, *v)))
        .collect();
    let mut agree = 0usize;
    let mut total = 0usize;
    for i in 0..with_pred.len() {
        for j in (i + 1)..with_pred.len() {
            let dp = with_pred[i].0 - with_pred[j].0;
            let dm = with_pred[i].1 - with_pred[j].1;
            // A tie orders nothing, and neither do two infeasible
            // variants (`∞ − ∞` is NaN).
            if dp == 0.0 || dm == 0.0 || dm.is_nan() {
                continue;
            }
            total += 1;
            if (dp > 0.0) == (dm > 0.0) {
                agree += 1;
            }
        }
    }
    let prediction_agreement = if total == 0 { 1.0 } else { agree as f64 / total as f64 };

    let best = outcomes
        .iter()
        .filter(|(_, v)| v.is_finite())
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .map(|(e, v)| (e.params, *v));

    // Pruned-winner validation.
    let best_suggested = outcomes
        .iter()
        .filter(|(e, _)| e.decision == Decision::StaticSuggested)
        .map(|(_, v)| *v)
        .fold(f64::INFINITY, f64::min);
    let pruned_winner = outcomes
        .iter()
        .filter(|(e, v)| {
            e.decision == Decision::StaticPruned
                && v.is_finite()
                && *v < best_suggested * (1.0 - tolerance)
        })
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .map(|(e, v)| (e.params, *v));

    ReplayReport { outcomes, prediction_agreement, best, pruned_winner }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TcOracle;
    impl Oracle for TcOracle {
        fn eval(&self, p: TuningParams) -> f64 {
            f64::from(p.tc)
        }
    }

    fn p(tc: u32) -> TuningParams {
        TuningParams::with_geometry(tc, 48)
    }

    #[test]
    fn log_records_in_order_and_filters() {
        let mut log = TuningLog::new();
        log.record(p(128), Decision::StaticSuggested, Some(1.0), None);
        log.record(p(256), Decision::StaticPruned, Some(2.0), None);
        log.record(p(128), Decision::SelectedBest, Some(1.0), Some(0.9));
        assert_eq!(log.entries().len(), 3);
        assert_eq!(log.entries()[2].step, 2);
        let pruned = log.entries().iter().filter(|e| e.decision == Decision::StaticPruned);
        assert_eq!(pruned.count(), 1);
    }

    #[test]
    fn replay_dedups_and_finds_best() {
        let mut log = TuningLog::new();
        log.record(p(512), Decision::Explored, None, None);
        log.record(p(128), Decision::Explored, None, None);
        log.record(p(512), Decision::SelectedBest, None, None); // duplicate params
        let report = replay(&log, &TcOracle, 0.05);
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(report.best.unwrap().0.tc, 128);
    }

    #[test]
    fn replay_flags_pruned_winner() {
        // The static model suggested TC=512 but pruned TC=128, which the
        // oracle says is 4× better — the §VII refinement signal.
        let mut log = TuningLog::new();
        log.record(p(512), Decision::StaticSuggested, Some(0.5), None);
        log.record(p(128), Decision::StaticPruned, Some(2.0), None);
        let report = replay(&log, &TcOracle, 0.05);
        let (winner, v) = report.pruned_winner.expect("flags the pruned winner");
        assert_eq!(winner.tc, 128);
        assert_eq!(v, 128.0);
        // And the bad prediction shows up as disagreement.
        assert!(report.prediction_agreement < 0.5);
    }

    #[test]
    fn replay_quiet_when_static_was_right() {
        let mut log = TuningLog::new();
        log.record(p(128), Decision::StaticSuggested, Some(1.0), None);
        log.record(p(512), Decision::StaticPruned, Some(4.0), None);
        let report = replay(&log, &TcOracle, 0.05);
        assert!(report.pruned_winner.is_none());
        assert_eq!(report.prediction_agreement, 1.0);
    }

    #[test]
    fn two_infeasible_variants_are_not_a_pair() {
        struct TwoInfeasible;
        impl Oracle for TwoInfeasible {
            fn eval(&self, p: TuningParams) -> f64 {
                if p.tc == 512 { 5.0 } else { f64::INFINITY }
            }
        }
        let mut log = TuningLog::new();
        for (tc, predicted) in [(128, 1.0), (256, 2.0), (512, 3.0)] {
            log.record(p(tc), Decision::StaticSuggested, Some(predicted), None);
        }
        // Of the two pairs that order anything, the prediction gets both
        // wrong; the ∞ / ∞ pair is skipped, not counted as agreeing.
        assert_eq!(replay(&log, &TwoInfeasible, 0.05).prediction_agreement, 0.0);
    }

    #[test]
    fn empty_log_replays_cleanly() {
        let report = replay(&TuningLog::new(), &TcOracle, 0.05);
        assert!(report.outcomes.is_empty());
        assert!(report.best.is_none());
        assert_eq!(report.prediction_agreement, 1.0);
    }
}
