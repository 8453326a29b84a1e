//! Backend-isolation suite for the pluggable `TimingModel` seam.
//!
//! Two invariants make the multi-model refactor safe:
//!
//! 1. **Behavior preservation** — a default-backend (simulator) context
//!    is bit-identical to the free functions, so every pre-refactor
//!    caller sees unchanged numbers.
//! 2. **Backend isolation** — contexts and measurement tiers for
//!    different `ModelId`s on the *same* device never share memo
//!    entries: a cached artifact produced under one cost model can
//!    never be replayed under another.

use oriole::arch::{Gpu, GpuSpec};
use oriole::codegen::{compile, TuningParams};
use oriole::core::predict::{predict_time, predict_time_with};
use oriole::ir::KernelAst;
use oriole::kernels::KernelId;
use oriole::sim::{dynamic_mix, measure, simulate, ModelContext, ModelId};
use oriole::tuner::{ArtifactStore, EvalProtocol};
use std::sync::Arc;

fn builder(n: u64) -> KernelAst {
    KernelId::Atax.ast(n)
}

fn kernel(gpu: &GpuSpec, tc: u32, bc: u32, n: u64) -> oriole::codegen::CompiledKernel {
    compile(&KernelId::Atax.ast(n), gpu, TuningParams::with_geometry(tc, bc)).unwrap()
}

#[test]
fn default_backend_context_is_bit_identical_to_free_functions() {
    // Invariant (1), across kernels, devices and repeated (warm) calls.
    for kid in oriole::kernels::ALL_KERNELS {
        for gpu in [Gpu::K20, Gpu::P100] {
            let n = kid.input_sizes()[1];
            let k = compile(&kid.ast(n), gpu.spec(), TuningParams::with_geometry(128, 48))
                .unwrap();
            let ctx = ModelContext::for_model(gpu.spec(), ModelId::Simulator);
            for _round in 0..2 {
                assert_eq!(ctx.simulate(&k, n), simulate(&k, n), "{kid} {gpu}");
                assert_eq!(
                    ctx.measure(&k, n, 10, 0xF00D),
                    measure(&k, n, 10, 0xF00D),
                    "{kid} {gpu}"
                );
                assert_eq!(ctx.dynamic_mix(&k, n), dynamic_mix(&k, n), "{kid} {gpu}");
            }
        }
    }
}

#[test]
fn static_backend_is_eq6_behind_the_seam() {
    // The static backend's report carries exactly the free
    // `predict_time` value (which in turn equals the hoisted-table
    // variant), so `--model static` is the paper's Eq. 6, memoized.
    let gpu = Gpu::M40.spec();
    let ctx = ModelContext::for_model(gpu, ModelId::Static);
    for tc in [64u32, 256, 1024] {
        let k = kernel(gpu, tc, 48, 256);
        let r = ctx.simulate(&k, 256).unwrap();
        let geom = k.geometry(256);
        assert_eq!(r.time_ms, predict_time(&k.program, geom));
        assert_eq!(r.time_ms, predict_time_with(gpu.throughput(), &k.program, geom));
    }
}

#[test]
fn same_spec_different_models_share_no_memo_entries() {
    // Invariant (2) at the store level: one GpuSpec, three ModelIds —
    // three distinct contexts, three distinct measurement tiers, and
    // every backend computes its own estimate in its own context (no
    // cross-model hits).
    let store = ArtifactStore::new();
    let gpu = Gpu::K20.spec();
    let sizes = [64u64];
    let p = TuningParams::with_geometry(128, 48);

    let contexts: Vec<Arc<ModelContext>> =
        ModelId::ALL.iter().map(|&m| store.context_for(gpu, m)).collect();
    for (i, a) in contexts.iter().enumerate() {
        for b in &contexts[i + 1..] {
            assert!(!Arc::ptr_eq(a, b), "distinct models must get distinct contexts");
        }
    }

    let mut times = Vec::new();
    for &model in &ModelId::ALL {
        let ev = store.evaluator_with(
            "atax",
            &builder,
            gpu,
            &sizes,
            EvalProtocol { model, ..EvalProtocol::default() },
        );
        let m = ev.evaluate(p);
        assert!(m.feasible);
        times.push(m.time_ms);
    }
    assert_ne!(times[0], times[1]);
    assert_ne!(times[0], times[2]);
    assert_ne!(times[1], times[2]);

    let stats = store.stats();
    assert_eq!(stats.contexts, 3);
    assert_eq!(stats.measurement_tiers, 3, "one tier per (protocol incl. model)");
    assert_eq!(stats.unique_evaluations, 3, "no tier answered for another");
    for &model in &ModelId::ALL {
        let m = stats.model(model).expect("every backend ran");
        assert_eq!(m.occ_misses, 1, "{model}: worked in its own context, exactly once");
        assert_eq!(m.occ_hits, 0, "{model}: nothing served across backends");
    }
    // Compilation artifacts are model-independent: one front-end tier,
    // one lowering, shared by all three backends.
    assert_eq!(stats.front_end_tiers, 1);
    assert_eq!(stats.front_end_lowerings, 1);
}

#[test]
fn per_model_context_caches_stay_private_on_one_device() {
    // Invariant (2) at the context level, without a store: warm one
    // backend's context, then ask another backend for the same key — it
    // must miss (and produce a different estimate).
    let gpu = Gpu::K20.spec();
    let k = kernel(gpu, 128, 48, 128);
    let sim_ctx = ModelContext::for_model(gpu, ModelId::Simulator);
    let roof_ctx = ModelContext::for_model(gpu, ModelId::Roofline);

    let sim_r = sim_ctx.simulate(&k, 128).unwrap();
    assert_eq!(sim_ctx.stats().occ_misses, 1);
    assert_eq!(roof_ctx.stats().occ_entries, 0, "the sim context's table is its own");
    let roof_r = roof_ctx.simulate(&k, 128).unwrap();
    assert_ne!(sim_r.time_ms, roof_r.time_ms);
    assert_eq!(roof_ctx.stats().occ_misses, 1, "no hit leaked from the sim context");
    assert_eq!(roof_ctx.stats().occ_hits, 0);
    assert_eq!(sim_ctx.stats().model, ModelId::Simulator);
    assert_eq!(roof_ctx.stats().model, ModelId::Roofline);
}

#[test]
fn feasibility_is_backend_independent_through_the_evaluator() {
    // A variant that cannot launch is infeasible under every backend —
    // the shared occupancy gate, observed through the full evaluation
    // stack.
    let bad_builder = |n: u64| {
        let mut ast = KernelId::MatVec2D.ast(n);
        ast.shared[0].elems = 8; // 32 B/thread -> 32 KiB at TC=1024
        ast
    };
    let store = ArtifactStore::new();
    let gpu = Gpu::K20.spec();
    let sizes = [64u64];
    let mut p = TuningParams::with_geometry(1024, 48);
    p.pl = oriole::codegen::PreferredL1::Kb48; // 16 KiB shared per SM
    for &model in &ModelId::ALL {
        let ev = store.evaluator_with(
            "matvec2d-fat",
            &bad_builder,
            gpu,
            &sizes,
            EvalProtocol { model, ..EvalProtocol::default() },
        );
        let m = ev.evaluate(p);
        assert!(!m.feasible, "{model} accepted an unlaunchable variant");
        assert_eq!(m.time_ms, f64::INFINITY);
    }
}
