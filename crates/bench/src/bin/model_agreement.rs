//! Model-agreement study: how well does each timing-model backend (a
//! [`ModelId`]) agree with the abstract-machine simulator?
//!
//! For every kernel × architecture, the (thinned) Fig. 3 space is
//! estimated under each backend through its own
//! [`ModelContext`], and each backend's series is compared against the
//! simulator's Fig. 5-style: both signals sorted by simulator time,
//! min–max normalized, then summarized by mean absolute error and rank
//! agreement (fraction of variant pairs ordered identically). The `sim`
//! row is a built-in self-check — MAE 0, agreement 1.00 by definition.
//!
//! ```sh
//! cargo run --release -p oriole-bench --bin model_agreement [-- --quick]
//! ```

use oriole_bench::{ExpOptions, TextTable};
use oriole_codegen::compile;
use oriole_core::predict::PredictedSeries;
use oriole_sim::{ModelContext, ModelId};

fn main() {
    let opts = ExpOptions::from_env();
    let space = opts.space();
    let mut table = TextTable::new(&[
        "Kernel",
        "Arch",
        "model",
        "variants",
        "MAE",
        "rank agreement",
    ]);

    for kid in opts.kernels() {
        // Middle input size, as a representative workload (as in Fig. 5).
        let n = kid.input_sizes()[2];
        for gpu in opts.gpus() {
            let contexts: Vec<ModelContext> = ModelId::ALL
                .iter()
                .map(|&m| ModelContext::for_model(gpu.spec(), m))
                .collect();
            let mut pairs: Vec<Vec<(f64, f64)>> = vec![Vec::new(); contexts.len()];
            for params in space.iter() {
                let Ok(kernel) = compile(&kid.ast(n), gpu.spec(), params) else {
                    continue;
                };
                // Every backend shares the feasibility gate, so one Err
                // means all three refuse this variant.
                let Ok(reference) = contexts[0].simulate(&kernel, n) else {
                    continue;
                };
                for (ctx, series) in contexts.iter().zip(&mut pairs) {
                    let r = ctx.simulate(&kernel, n).expect("feasibility is backend-independent");
                    series.push((r.time_ms, reference.time_ms));
                }
            }
            for (id, series) in ModelId::ALL.iter().zip(&pairs) {
                let s = PredictedSeries::build(series);
                table.row(vec![
                    kid.name().to_string(),
                    gpu.spec().family.letter().to_string(),
                    id.to_string(),
                    series.len().to_string(),
                    format!("{:.4}", s.mae()),
                    format!("{:.2}", s.rank_agreement()),
                ]);
            }
            eprintln!("  done: {} on {gpu}", kid.name());
        }
    }
    println!("Model agreement vs the simulator (Fig. 5-style normalized series).\n");
    println!("{}", table.render());
    println!(
        "The sim rows are the self-check (MAE 0, agreement 1.00). The static and \
         roofline rows quantify how much of the simulator's ranking signal each \
         cheaper backend retains; agreement > 0.5 means the backend orders variants \
         better than chance, which is what makes it useful for pruning."
    );
}
