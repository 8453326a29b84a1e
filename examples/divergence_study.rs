//! Branch-divergence study (the paper's Fig. 1 effect, on demand).
//!
//! Sweeps a synthetic kernel whose threads split into `k` divergent
//! classes and measures the slowdown — then shows the analyzer's static
//! divergence diagnosis on the real ex14FJ stencil.
//!
//! ```sh
//! cargo run --example divergence_study
//! ```

use oriole::arch::Gpu;
use oriole::codegen::{compile, TuningParams};
use oriole::core::divergence::analyze_divergence;
use oriole::ir::LaunchGeometry;
use oriole::kernels::{synthetic::divergent_switch, KernelId};
use oriole::sim::simulate;

fn main() {
    let gpu = Gpu::M40.spec();
    let n = 256;

    println!("-- synthetic divergence sweep (N={n}, M40) --");
    println!("{:>8} {:>12} {:>10}", "classes", "time (ms)", "slowdown");
    let mut base = None;
    for classes in [1u32, 2, 4, 8, 16, 32] {
        let kernel = compile(
            &divergent_switch(classes, 48),
            gpu,
            TuningParams::with_geometry(256, 96),
        )
        .expect("compiles");
        let t = simulate(&kernel, n).expect("launches").time_ms;
        let b = *base.get_or_insert(t);
        println!("{classes:>8} {t:>12.4} {:>9.2}x", t / b);
    }

    println!("\n-- static divergence diagnosis: ex14FJ --");
    for n in [8u64, 32, 128] {
        let kernel = compile(
            &KernelId::Ex14Fj.ast(n),
            gpu,
            TuningParams::with_geometry(256, 96),
        )
        .expect("compiles");
        let report =
            analyze_divergence(&kernel.index, &kernel.program, LaunchGeometry::new(n, 256, 96));
        println!(
            "N={n:<4} boundary branch overhead {:.2}x ({} divergent branch(es))",
            report.overall_overhead,
            report.findings.len()
        );
    }
}
