//! Asserts the ProgramIndex build-once contract: one front-end run
//! builds exactly one index, and every downstream consumer — back-end
//! specializations, the static analyzer, the simulator, and the dynamic
//! profiler — shares it instead of re-deriving CFG facts.
//!
//! The telemetry counters are process-wide, so this test lives alone in
//! its own integration binary (its own process) and stays a single
//! `#[test]` so no sibling can bump the counters concurrently.

use oriole::arch::Gpu;
use oriole::codegen::{front_end, CompilerFlags, TuningParams};
use oriole::core::analyze;
use oriole::ir::index::telemetry;
use oriole::kernels::KernelId;
use oriole::sim::{dynamic_mix, simulate};

#[test]
fn front_end_builds_index_exactly_once() {
    let n = 256;
    let ast = KernelId::MatVec2D.ast(n);
    let gpu = Gpu::K20.spec();
    let cflags = CompilerFlags::default();

    let before = telemetry();
    let fe = front_end(&ast, gpu, 1, cflags).expect("front end runs");
    let after_front_end = telemetry();
    assert_eq!(
        after_front_end.index_builds - before.index_builds,
        1,
        "front_end builds the index exactly once"
    );

    // Drive many specializations and every index consumer; none may
    // trigger another build.
    for tc in [32u32, 128, 256, 1024] {
        for bc in [24u32, 96, 192] {
            let params = TuningParams::with_geometry(tc, bc);
            let kernel = match fe.specialize(params) {
                Ok(k) => k,
                Err(_) => continue, // infeasible point; fine for this test
            };
            let analysis = analyze(&kernel, n);
            assert!(analysis.predicted_time > 0.0);
            let report = simulate(&kernel, n).expect("simulates");
            assert!(report.time_ms > 0.0);
            let mix = dynamic_mix(&kernel, n);
            assert!(mix.total() > 0.0);
        }
    }

    let after_sweep = telemetry();
    assert_eq!(
        after_sweep.index_builds,
        after_front_end.index_builds,
        "specialize/analyze/simulate/dynamic_mix reuse the shared index"
    );
    // The sweep exercised the fast-path counter too (MatVec2D is
    // divergence-free).
    assert!(after_sweep.fast_path_hits > before.fast_path_hits);

    // A fresh artifact costs exactly one build no matter the kernel or
    // front-end key: builds track artifacts one-to-one.
    let mut artifacts = Vec::new();
    for kernel in [KernelId::Atax, KernelId::Bicg, KernelId::Ex14Fj] {
        for uif in [1u32, 2, 4] {
            let fe = front_end(&kernel.ast(n), gpu, uif, cflags).expect("front end runs");
            artifacts.push((fe, uif));
        }
    }
    let after_batch = telemetry();
    assert_eq!(
        after_batch.index_builds - after_sweep.index_builds,
        artifacts.len() as u64,
        "one index per front-end artifact"
    );

    // And re-sweeping those artifacts still adds zero builds.
    for (fe, uif) in &artifacts {
        for tc in [64u32, 512] {
            let params = TuningParams { uif: *uif, ..TuningParams::with_geometry(tc, 96) };
            let Ok(kernel) = fe.specialize(params) else {
                continue;
            };
            let analysis = analyze(&kernel, n);
            assert!(analysis.predicted_time > 0.0);
        }
    }
    assert_eq!(
        telemetry().index_builds,
        after_batch.index_builds,
        "re-sweeping cached artifacts never rebuilds an index"
    );
}
