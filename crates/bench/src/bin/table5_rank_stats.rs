//! Regenerates **Table V**: statistics for autotuned kernels — occupancy
//! (mean/σ/mode), register instructions (mean/σ), allocated registers,
//! and thread-count quartiles — for top performers (Rank 1) and poor
//! performers (Rank 2), per kernel per architecture.
//!
//! ```sh
//! cargo run --release -p oriole-bench --bin table5_rank_stats [--store-dir DIR]
//! ```
//!
//! With `--store-dir` the exhaustive ground-truth sweeps persist: a
//! killed or repeated run resumes as pure, bit-identical cache hits.

use oriole_bench::{exhaustive_measurements_in, ExpOptions, TextTable};
use oriole_tuner::{rank_stats, split_ranks, SearchSpace};

fn main() {
    let opts = ExpOptions::from_env();
    let space = SearchSpace::paper_default();
    let store = opts.store();
    eprintln!(
        "exhaustive sweep: {} variants x {} kernels x {} GPUs ...",
        space.len(),
        opts.kernels().len(),
        opts.gpus().len()
    );

    let header = [
        "Kernel", "Arch", "Rank", "Occ mean", "Occ std", "Occ mode", "RegIns mean",
        "RegIns std", "Alloc", "T 25th", "T 50th", "T 75th",
    ];
    let mut table = TextTable::new(&header);

    for kid in opts.kernels() {
        let sizes = kid.input_sizes();
        for gpu in opts.gpus() {
            let measurements = exhaustive_measurements_in(&store, kid, gpu, &space, &sizes);
            let (rank1, rank2) = split_ranks(&measurements);
            for (rank_name, rank) in [("1", rank1), ("2", rank2)] {
                let s = rank_stats(&rank);
                table.row(vec![
                    kid.name().to_string(),
                    gpu.spec().family.letter().to_string(),
                    rank_name.to_string(),
                    format!("{:.2}", s.occupancy_mean),
                    format!("{:.2}", s.occupancy_std),
                    format!("{:.2}", s.occupancy_mode),
                    format!("{:.0}", s.reg_instr_mean),
                    format!("{:.0}", s.reg_instr_std),
                    s.regs_allocated_mode.to_string(),
                    format!("{:.0}", s.thread_quartiles.0),
                    format!("{:.0}", s.thread_quartiles.1),
                    format!("{:.0}", s.thread_quartiles.2),
                ]);
            }
            eprintln!("  done: {} on {gpu}", kid.name());
        }
    }

    println!("Table V: statistics for autotuned kernels (Rank 1 = good, Rank 2 = poor).\n");
    println!("{}", table.render());
    println!(
        "Shape targets (paper): Rank-1 thread quartiles low for atax/bicg, high for \
         matvec2d; occupancy means similar across ranks; Rank-1 register-instruction \
         dispersion below Rank-2's."
    );
    let summary = opts.store_summary(&store);
    if !summary.is_empty() {
        eprintln!("{summary}");
    }
}
