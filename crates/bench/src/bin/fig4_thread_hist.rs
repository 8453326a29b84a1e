//! Regenerates **Fig. 4**: thread-count histograms of the exhaustive
//! autotuning search, split by rank (1 = good performers, 2 = poor),
//! comparing architectures and kernels.
//!
//! ```sh
//! cargo run --release -p oriole-bench --bin fig4_thread_hist [--store-dir DIR]
//! ```

use oriole_bench::{exhaustive_measurements_in, thread_histogram, ExpOptions};
use oriole_tuner::{split_ranks, SearchSpace};

fn main() {
    let opts = ExpOptions::from_env();
    let space = SearchSpace::paper_default();
    // One store for the whole run: sweeps share front-ends and model
    // caches across GPUs of one kernel (and with any future re-sweep).
    // Under --store-dir the measurement tiers persist across runs.
    let store = opts.store();
    println!("Fig. 4: thread counts for Orio autotuning exhaustive search.\n");

    for kid in opts.kernels() {
        let sizes = kid.input_sizes();
        for gpu in opts.gpus() {
            let measurements = exhaustive_measurements_in(&store, kid, gpu, &space, &sizes);
            let (rank1, rank2) = split_ranks(&measurements);
            println!("=== kernel {} | arch {} ===", kid.name(), gpu.spec().name);
            for (name, rank) in [("rank 1 (good)", &rank1), ("rank 2 (poor)", &rank2)] {
                let threads: Vec<u32> = rank.iter().map(|m| m.params.tc).collect();
                println!("-- {name} ({} variants)", threads.len());
                print!("{}", thread_histogram(&threads, 128, 40));
            }
            println!();
        }
    }
    println!(
        "Shape targets (paper): atax/bicg rank-1 mass in the low thread range with \
         rank-2 high; matvec2d reversed; ex14fj diffuse."
    );
    let summary = opts.store_summary(&store);
    if !summary.is_empty() {
        eprintln!("{summary}");
    }
}
