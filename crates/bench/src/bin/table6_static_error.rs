//! Regenerates **Table VI**: error rates (sum of squares) when estimating
//! dynamic instruction mixes from static mixes, plus intensity.
//!
//! The static estimate is the analyzer's thread-level trip-count-weighted
//! mix; the dynamic observation is the simulator's warp-level counter
//! totals. Errors are summed squared differences of per-class fractions
//! over the paper's five input sizes (scaled ×100; see
//! `oriole_core::mix::static_vs_dynamic_error`).
//!
//! ```sh
//! cargo run --release -p oriole-bench --bin table6_static_error
//! ```

use oriole_arch::Gpu;
use oriole_bench::{ExpOptions, TextTable};
use oriole_codegen::{compile, TuningParams};
use oriole_core::mix::static_vs_dynamic_error;
use oriole_ir::{expected_mix, LaunchGeometry};
use oriole_sim::dynamic_mix;

fn main() {
    let opts = ExpOptions::from_env();
    // The paper's Table VI covers Fermi, Kepler and Maxwell.
    let gpus = [Gpu::M2050, Gpu::K20, Gpu::M40];
    let (tc, bc) = (128u32, 48u32);

    let mut table = TextTable::new(&["Kernel", "Arch", "FLOPS", "MEM", "CTRL", "Itns"]);
    for kid in opts.kernels() {
        for gpu in gpus {
            if let Some(only) = opts.gpu {
                if only != gpu {
                    continue;
                }
            }
            let mut pairs = Vec::new();
            let mut intensity = 0.0;
            for n in kid.input_sizes() {
                let kernel =
                    compile(&kid.ast(n), gpu.spec(), TuningParams::with_geometry(tc, bc))
                        .expect("compiles");
                let geom = LaunchGeometry::new(n, tc, bc);
                let stat = expected_mix(&kernel.program, geom)
                    .scaled(geom.total_threads() as f64)
                    .classes();
                let dynamic = dynamic_mix(&kernel, n).classes();
                intensity = stat.intensity();
                pairs.push((stat, dynamic));
            }
            let e = static_vs_dynamic_error(&pairs);
            table.row(vec![
                kid.name().to_string(),
                gpu.spec().family.letter().to_string(),
                format!("{:.2}", e.flops),
                format!("{:.2}", e.mem),
                format!("{:.2}", e.ctrl),
                format!("{:.1}", intensity),
            ]);
        }
    }
    println!(
        "Table VI: error rates when estimating dynamic instruction mixes from static mixes.\n"
    );
    println!("{}", table.render());
    println!(
        "Shape targets (paper): small FLOPS errors everywhere; larger errors for the \
         divergent ex14fj; intensity <= 4.0 for atax/bicg and > 4.0 for ex14fj/matvec2d \
         (the rule threshold)."
    );
}
