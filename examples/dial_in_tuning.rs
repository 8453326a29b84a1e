//! The §VII "knowledge discovery" loop: dial in empirical testing on top
//! of static ranking, record every decision, then replay the log to
//! validate the static model.
//!
//! ```sh
//! cargo run --release --example dial_in_tuning
//! ```

use oriole::arch::Gpu;
use oriole::codegen::{compile, TuningParams};
use oriole::core::predict_time_indexed;
use oriole::kernels::KernelId;
use oriole::tuner::{replay, Evaluator, HybridSearch, SearchSpace, Searcher};

fn main() {
    let gpu = Gpu::K20.spec();
    let kid = KernelId::Bicg;
    let sizes = [64u64, 256];
    let space = SearchSpace::paper_default();

    // The static predictor: compile (never execute) and score with Eq. 6.
    let n_mid = sizes[sizes.len() / 2];
    let predictor = move |params: TuningParams| {
        compile(&kid.ast(n_mid), gpu, params)
            .ok()
            .map(|k| {
                predict_time_indexed(gpu.throughput(), &k.index, &k.program, k.geometry(n_mid))
            })
    };

    let builder = move |n: u64| kid.ast(n);

    println!("{kid} on {}: dialing empirical testing from 0% to 100%\n", gpu.name);
    println!(
        "{:>6} {:>12} {:>12} {:>10}",
        "dial", "evaluations", "best (ms)", "vs full"
    );
    let mut full_best = None;
    for dial in [1.0, 0.25, 0.05, 0.01, 0.0] {
        let evaluator = Evaluator::new(&builder, gpu, &sizes);
        let mut search = HybridSearch::new(predictor, dial);
        let result = search.search(&space, &evaluator, usize::MAX);
        let baseline = *full_best.get_or_insert(result.best_time);
        println!(
            "{:>5.0}% {:>12} {:>12.4} {:>+9.1}%",
            dial * 100.0,
            result.evaluations,
            result.best_time,
            (result.best_time / baseline - 1.0) * 100.0
        );

        if dial == 0.05 {
            // Replay the 5% run's log to validate the static decisions.
            let validator = Evaluator::new(&builder, gpu, &sizes);
            let report = replay(&search.log, &validator, 0.05);
            println!(
                "       replay of the 5% run: prediction agreement {:.2}, pruned winner: {}",
                report.prediction_agreement,
                match report.pruned_winner {
                    Some((p, t)) => format!("{p} at {t:.4} ms — static model needs refinement"),
                    None => "none (static pruning validated)".to_string(),
                }
            );
        }
    }
}
