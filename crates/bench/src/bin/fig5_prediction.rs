//! Regenerates **Fig. 5**: execution time estimated from static
//! instruction mixes — normalized predicted vs measured series per
//! kernel/architecture, summarized by mean absolute error (MAE) and rank
//! agreement.
//!
//! ```sh
//! cargo run --release -p oriole-bench --bin fig5_prediction
//! ```

use oriole_bench::{ExpOptions, TextTable};
use oriole_codegen::compile;
use oriole_core::predict::{predict_time_indexed, PredictedSeries};
use oriole_sim::{measure, TrialProtocol};

fn main() {
    let opts = ExpOptions::from_env();
    let space = oriole_tuner::SearchSpace::paper_default();
    let mut table =
        TextTable::new(&["Kernel", "Arch", "variants", "MAE", "rank agreement"]);

    for kid in opts.kernels() {
        // Middle input size, as a representative workload.
        let n = kid.input_sizes()[2];
        for gpu in opts.gpus() {
            // One Table II column for the whole sweep.
            let throughput = gpu.spec().throughput();
            let mut pairs = Vec::new();
            for params in space.iter() {
                let Ok(kernel) = compile(&kid.ast(n), gpu.spec(), params) else {
                    continue;
                };
                let predicted = predict_time_indexed(
                    throughput,
                    &kernel.index,
                    &kernel.program,
                    kernel.geometry(n),
                );
                let Ok(trials) = measure(&kernel, n, 10, 0xF16_5EED) else {
                    continue;
                };
                pairs.push((predicted, trials.selected(TrialProtocol::FifthOfTen)));
            }
            let series = PredictedSeries::build(&pairs);
            table.row(vec![
                kid.name().to_string(),
                gpu.spec().family.letter().to_string(),
                pairs.len().to_string(),
                format!("{:.4}", series.mae()),
                format!("{:.2}", series.rank_agreement()),
            ]);
            eprintln!("  done: {} on {gpu}", kid.name());
        }
    }
    println!("Fig. 5: execution time from static instruction mixes (Eq. 6).\n");
    println!("{}", table.render());
    println!(
        "Shape targets (paper): normalized MAE small for the matrix kernels; the \
         divergent, guard-heavy ex14fj is the hardest case. Rank agreement > 0.5 means \
         the static model orders variants better than chance."
    );
}
