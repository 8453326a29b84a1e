//! End-to-end pipeline tests: AST → compile → disassemble → analyze →
//! simulate → tune, across kernels and architectures.

use oriole::arch::{Gpu, ALL_GPUS};
use oriole::codegen::{compile, TuningParams};
use oriole::core::{analyze, analyze_disassembly};
use oriole::ir::{text, LaunchGeometry};
use oriole::kernels::{KernelId, ALL_KERNELS};
use oriole::sim::{dynamic_mix, measure, simulate, TrialProtocol};
use oriole::tuner::{Evaluator, ExhaustiveSearch, SearchSpace, Searcher};

#[test]
fn full_pipeline_runs_for_every_kernel_and_gpu() {
    for kid in ALL_KERNELS {
        for gpu in ALL_GPUS {
            let n = kid.input_sizes()[1];
            let kernel = compile(&kid.ast(n), gpu.spec(), TuningParams::with_geometry(128, 48))
                .unwrap_or_else(|e| panic!("{kid} on {gpu}: {e}"));

            // Disassembly parses back to the identical program.
            let listing = kernel.disassembly();
            let parsed = text::parse(&listing).expect("listing parses");
            assert_eq!(parsed, kernel.program, "{kid} on {gpu}");

            // Analyzer works from the text alone.
            let analysis = analyze_disassembly(
                &listing,
                gpu.spec(),
                LaunchGeometry::new(n, 128, 48),
            )
            .expect("analysis from text");
            assert!(analysis.predicted_time > 0.0);

            // Simulation and measurement work.
            let report = simulate(&kernel, n).expect("simulates");
            assert!(report.time_ms > 0.0 && report.time_ms.is_finite());
            let trials = measure(&kernel, n, 10, 1).expect("measures");
            assert_eq!(trials.times_ms.len(), 10);
            let picked = trials.selected(TrialProtocol::FifthOfTen);
            assert!(picked > 0.0);

            // Dynamic counters are populated.
            assert!(dynamic_mix(&kernel, n).total() > 0.0);
        }
    }
}

#[test]
fn static_suggestion_contains_competitive_configurations() {
    // For each kernel on Kepler, exhaustively search a reduced space and
    // check the analyzer-suggested thread band contains a variant within
    // 2x of the global optimum (the §IV-C competitiveness claim, loose).
    let gpu = Gpu::K20;
    for kid in [KernelId::Atax, KernelId::MatVec2D] {
        let sizes = [kid.input_sizes()[2], kid.input_sizes()[4]];
        let builder = move |n: u64| kid.ast(n);
        let evaluator = Evaluator::new(&builder, gpu.spec(), &sizes);

        let mut space = SearchSpace::tiny();
        space.tc = vec![32, 64, 128, 256, 512, 1024];
        space.bc = vec![24, 96, 192];
        let result = ExhaustiveSearch.search(&space, &evaluator, usize::MAX);

        let probe =
            compile(&kid.ast(sizes[0]), gpu.spec(), TuningParams::with_geometry(128, 48))
                .unwrap();
        let analysis = analyze(&probe, sizes[0]);
        let pruned = space
            .restrict_tc(&analysis.suggestion.thread_counts)
            .expect("suggested threads intersect the grid");
        let evaluator2 = Evaluator::new(&builder, gpu.spec(), &sizes);
        let pruned_best = ExhaustiveSearch.search(&pruned, &evaluator2, usize::MAX);

        assert!(
            pruned_best.best_time <= result.best_time * 2.0,
            "{kid}: pruned best {:.4} vs global {:.4}",
            pruned_best.best_time,
            result.best_time
        );
    }
}

#[test]
fn thread_preferences_match_fig4() {
    // Rank-1 median thread count must be low for ATAX/BiCG and high for
    // matVec2D on Kepler — the paper's Fig. 4 headline shape.
    let gpu = Gpu::K20;
    let mut medians = std::collections::HashMap::new();
    for kid in [KernelId::Atax, KernelId::Bicg, KernelId::MatVec2D] {
        let sizes = kid.input_sizes();
        let builder = move |n: u64| kid.ast(n);
        let evaluator = Evaluator::new(&builder, gpu.spec(), &sizes);
        let mut space = SearchSpace::tiny();
        space.tc = (1..=16).map(|i| i * 64).collect();
        space.bc = vec![24, 96];
        let measurements = evaluator.evaluate_space(&space);
        let (rank1, _) = oriole::tuner::split_ranks(&measurements);
        let stats = oriole::tuner::rank_stats(&rank1);
        medians.insert(kid, stats.thread_quartiles.1);
    }
    let atax = medians[&KernelId::Atax];
    let bicg = medians[&KernelId::Bicg];
    let matvec = medians[&KernelId::MatVec2D];
    assert!(atax < matvec, "atax median {atax} !< matvec {matvec}");
    assert!(bicg < matvec, "bicg median {bicg} !< matvec {matvec}");
}

#[test]
fn unroll_sweep_changes_measurements_coherently() {
    // Unrolling reduces control overhead: the expected CTRL share must
    // fall monotonically with UIF for the dot-product kernels.
    let gpu = Gpu::M40.spec();
    let n = 256;
    let mut prev_ctrl_share = f64::INFINITY;
    for uif in [1u32, 2, 4] {
        let mut params = TuningParams::with_geometry(128, 48);
        params.uif = uif;
        let kernel = compile(&KernelId::Atax.ast(n), gpu, params).unwrap();
        let analysis = analyze(&kernel, n);
        let (_, _, ctrl, _) = analysis.mix.fractions();
        assert!(
            ctrl < prev_ctrl_share,
            "uif={uif}: ctrl share {ctrl} did not fall (prev {prev_ctrl_share})"
        );
        prev_ctrl_share = ctrl;
    }
}
