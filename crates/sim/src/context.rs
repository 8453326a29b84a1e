//! Device-scoped model context: memoized model estimation services.
//!
//! The free functions of this crate ([`simulate`](crate::simulate),
//! [`measure`](crate::measure), [`dynamic_mix`](crate::dynamic_mix)) are
//! pure in their inputs, and real workloads hammer them with *repeated*
//! inputs: the paper's 5,120-point space shares ten lowered programs per
//! input size, and every simulation recomputes the same occupancy
//! point. [`ModelContext`] is the per-`(device, timing model)` owner of
//! the memoized versions of those services:
//!
//! * an [`OccupancyTable`] over the quantized `(warps, regs, smem,
//!   L1-split)` domain — every simulation's occupancy lookup;
//! * a **dynamic-mix memo** keyed by `(lowered program, TC, BC, n)` —
//!   variants that share a front-end artifact and launch geometry reuse
//!   one mix regardless of `PL`/`SC`.
//!
//! Estimates themselves are **not** cached: the tuner's measurement
//! tier deduplicates per tuning point one layer up, so below it every
//! `(program, point, n)` is asked for once and a cache would never hit.
//!
//! # Pluggable backends
//!
//! Which cost model produces the estimates is the context's
//! [`TimingModel`] backend ([`model`](crate::model)): the default is
//! the full simulator ([`SimulatorModel`](crate::SimulatorModel)), and
//! [`ModelContext::for_model`] builds a context for any [`ModelId`]
//! (static Eq. 6, roofline). A context serves exactly one backend —
//! contexts for different models on one device are distinct values
//! with distinct caches, and every layer above keys its artifacts by
//! `(GpuSpec contents, ModelId)` so estimates can never alias across
//! backends.
//!
//! # Keys and determinism
//!
//! Cache keys are **content-addressed**: [`ProgramKey`] wraps the full
//! textual serialization of the lowered program (plus the shared-memory
//! declarations for front-end artifacts, which determine the per-`TC`
//! footprint the back-end derives). Emit → parse round-trips exactly
//! (see `oriole_ir::text`), so two keys compare equal *iff* the model
//! inputs are indistinguishable — a hit can never return another
//! program's result, and every cached value is the value the direct
//! computation would produce. The free functions remain available as
//! thin wrappers over the same single implementation and are
//! property-tested bit-identical to the context-backed paths.
//!
//! All caches are internally synchronized: one context can serve every
//! evaluation worker of a search, and a process-level artifact store can
//! hold one context per device.

use crate::config::SimConfig;
use crate::counters;
use crate::machine::{SimError, SimReport};
use crate::memo::ShardedOnceMap;
use crate::model::{ModelEnv, ModelId, TimingModel};
use crate::noise::{noisy_trials, Trials};
use oriole_arch::{GpuSpec, Occupancy, OccupancyInput, OccupancyTable};
use oriole_codegen::{CompiledKernel, FrontEnd};
use oriole_ir::MixCounts;
use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Content-addressed identity of a lowered program for model caches.
///
/// Wraps the textual serialization (shared, cheap to clone), so key
/// equality is exact program equality — never a hash that could collide.
/// Compute once per artifact and reuse ([`ProgramKey::of_front_end`] in
/// the evaluator hot path); the per-kernel form exists for the
/// compatibility wrappers. The content hash is precomputed at
/// construction, so map lookups never re-hash the multi-kilobyte text,
/// and equality short-circuits on it (falling back to a full text
/// compare, so a hash collision can only cost time, never correctness).
#[derive(Debug, Clone)]
pub struct ProgramKey {
    text: Arc<str>,
    hash: u64,
}

impl PartialEq for ProgramKey {
    fn eq(&self, other: &ProgramKey) -> bool {
        self.hash == other.hash
            && (Arc::ptr_eq(&self.text, &other.text) || self.text == other.text)
    }
}

impl Eq for ProgramKey {}

impl Hash for ProgramKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl ProgramKey {
    fn from_text(text: String) -> ProgramKey {
        let mut h = DefaultHasher::new();
        text.hash(&mut h);
        ProgramKey { text: Arc::from(text), hash: h.finish() }
    }

    /// Key of one specialized kernel: the emitted program, metadata
    /// included (registers and static shared memory are part of the
    /// text, so anything the model reads is in the key).
    pub fn of_kernel(kernel: &CompiledKernel) -> ProgramKey {
        ProgramKey::from_text(oriole_ir::text::emit(&kernel.program))
    }

    /// Key of a front-end artifact: the emitted pre-specialization
    /// program plus the shared-memory declarations. Together with the
    /// tuning point (always a separate key component) these determine
    /// every specialization bit-exactly — register allocation is a pure
    /// function of the lowered program and the device cap, and the
    /// shared-memory footprint of the declarations and `TC`.
    pub fn of_front_end(fe: &FrontEnd) -> ProgramKey {
        let mut text = oriole_ir::text::emit(fe.program());
        for d in fe.shared_decls() {
            let _ = write!(
                text,
                "\n;shared {} elem_bytes={} elems={} scales={}",
                d.name, d.elem_bytes, d.elems, d.scales_with_block
            );
        }
        ProgramKey::from_text(text)
    }
}

/// Cache telemetry of one [`ModelContext`] — the numbers behind the CLI
/// `tune --stats` report. A context serves exactly one backend, so the
/// hit rates are inherently per-backend; `model` names which one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModelStats {
    /// The backend these counters belong to.
    pub model: ModelId,
    /// Occupancy-table hits (legal lookups served from the table).
    pub occ_hits: u64,
    /// Occupancy-table misses (direct calculations performed).
    pub occ_misses: u64,
    /// Distinct quantized occupancy keys materialized.
    pub occ_entries: usize,
    /// Dynamic-mix memo hits.
    pub mix_hits: u64,
    /// Dynamic-mix computations performed.
    pub mix_misses: u64,
}

/// Per-`(device, timing model)` memoized model services. See the
/// [module docs](self).
pub struct ModelContext {
    spec: GpuSpec,
    cfg: SimConfig,
    model: Box<dyn TimingModel>,
    occ: OccupancyTable,
    mixes: ShardedOnceMap<(ProgramKey, u32, u32, u64), MixCounts>,
}

impl ModelContext {
    /// A context for `spec` with the family-default [`SimConfig`] and
    /// the default simulator backend — the configuration the free
    /// functions use, so results interchange.
    pub fn new(spec: &GpuSpec) -> ModelContext {
        ModelContext::for_model(spec, ModelId::default())
    }

    /// A context for `spec` running the backend `model` names, with the
    /// family-default [`SimConfig`].
    pub fn for_model(spec: &GpuSpec, model: ModelId) -> ModelContext {
        ModelContext::with_model(spec, SimConfig::for_family(spec.family), model.backend())
    }

    /// A simulator-backend context with an explicit configuration
    /// (ablations).
    pub fn with_config(spec: &GpuSpec, cfg: SimConfig) -> ModelContext {
        ModelContext::with_model(spec, cfg, ModelId::Simulator.backend())
    }

    /// The fully explicit constructor: any configuration, any backend
    /// (including ones defined outside this crate).
    pub fn with_model(
        spec: &GpuSpec,
        cfg: SimConfig,
        model: Box<dyn TimingModel>,
    ) -> ModelContext {
        ModelContext {
            spec: spec.clone(),
            cfg,
            model,
            occ: OccupancyTable::new(spec),
            mixes: ShardedOnceMap::new(),
        }
    }

    /// The device this context serves.
    pub fn gpu(&self) -> &GpuSpec {
        &self.spec
    }

    /// The identity of the timing backend behind this context's
    /// estimates.
    pub fn model_id(&self) -> ModelId {
        self.model.id()
    }

    /// The simulator configuration in effect.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The device occupancy table (shared with the static-analysis
    /// paths, which probe the same tiny domain).
    pub fn occupancy_table(&self) -> &OccupancyTable {
        &self.occ
    }

    /// Memoized occupancy — bit-identical to
    /// [`oriole_arch::occupancy()`] on this device.
    pub fn occupancy(&self, input: OccupancyInput) -> Occupancy {
        self.occ.lookup(input)
    }

    /// The estimate under this context's backend, over the context's
    /// occupancy table — for the default simulator backend,
    /// [`simulate`](crate::simulate) exactly.
    pub fn simulate(&self, kernel: &CompiledKernel, n: u64) -> Result<SimReport, SimError> {
        debug_assert_eq!(kernel.gpu, self.spec, "kernel compiled for another device");
        let env = ModelEnv { spec: &self.spec, cfg: &self.cfg, occ: &self.occ };
        self.model.estimate(&env, kernel, n)
    }

    /// [`measure`](crate::measure) under this context's backend: the
    /// noise-free estimate plus the seeded trial noise (what
    /// distinguishes measurements), bit-identical to the free function
    /// under the default backend.
    pub fn measure(
        &self,
        kernel: &CompiledKernel,
        n: u64,
        trials: u32,
        seed: u64,
    ) -> Result<Trials, SimError> {
        let report = self.simulate(kernel, n)?;
        let times_ms = noisy_trials(&report, trials, seed, &self.cfg);
        Ok(Trials { times_ms, report })
    }

    /// [`ModelContext::measure`]; estimates are not cached, so `key` is
    /// unused and kept for callers that hold one.
    pub fn measure_keyed(
        &self,
        _key: &ProgramKey,
        kernel: &CompiledKernel,
        n: u64,
        trials: u32,
        seed: u64,
    ) -> Result<Trials, SimError> {
        self.measure(kernel, n, trials, seed)
    }

    /// Memoized [`dynamic_mix`](crate::dynamic_mix); computes the
    /// kernel's [`ProgramKey`] on the fly.
    pub fn dynamic_mix(&self, kernel: &CompiledKernel, n: u64) -> MixCounts {
        self.dynamic_mix_keyed(&ProgramKey::of_kernel(kernel), kernel, n)
    }

    /// Memoized dynamic mix with a caller-amortized key. The memo key is
    /// `(program, TC, BC, n)`: `PL` and `SC` do not enter the counters,
    /// so variants differing only in those axes share one entry.
    pub fn dynamic_mix_keyed(&self, key: &ProgramKey, kernel: &CompiledKernel, n: u64) -> MixCounts {
        let params = kernel.params;
        self.mixes
            .get_or_init((key.clone(), params.tc, params.bc, n), || counters::dynamic_mix(kernel, n))
    }

    /// Cache telemetry since construction.
    pub fn stats(&self) -> ModelStats {
        let (occ_hits, occ_misses) = self.occ.counters();
        let (mix_hits, mix_misses) = self.mixes.counters();
        ModelStats {
            model: self.model.id(),
            occ_hits,
            occ_misses,
            occ_entries: self.occ.len(),
            mix_hits,
            mix_misses,
        }
    }
}

impl std::fmt::Debug for ModelContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelContext")
            .field("gpu", &self.spec.name)
            .field("model", &self.model.id())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dynamic_mix, measure, simulate};
    use oriole_arch::Gpu;
    use oriole_codegen::{compile, front_end, CompilerFlags, TuningParams};
    use oriole_kernels::KernelId;

    fn kernel(tc: u32, bc: u32) -> CompiledKernel {
        compile(
            &KernelId::Atax.ast(128),
            Gpu::K20.spec(),
            TuningParams::with_geometry(tc, bc),
        )
        .unwrap()
    }

    #[test]
    fn context_paths_match_free_functions() {
        let ctx = ModelContext::new(Gpu::K20.spec());
        let k = kernel(128, 48);
        assert_eq!(ctx.simulate(&k, 128).unwrap(), simulate(&k, 128).unwrap());
        assert_eq!(ctx.measure(&k, 128, 10, 7).unwrap(), measure(&k, 128, 10, 7).unwrap());
        assert_eq!(ctx.dynamic_mix(&k, 128), dynamic_mix(&k, 128));
    }

    #[test]
    fn backend_selection_changes_estimates_not_interfaces() {
        let k = kernel(128, 48);
        let mut times = Vec::new();
        for id in crate::ModelId::ALL {
            let ctx = ModelContext::for_model(Gpu::K20.spec(), id);
            assert_eq!(ctx.model_id(), id);
            assert_eq!(ctx.stats().model, id);
            let r = ctx.simulate(&k, 128).unwrap();
            assert!(r.time_ms > 0.0);
            // The measurement path works for every backend (noise wraps
            // whatever cost the model produced).
            let t = ctx.measure(&k, 128, 10, 7).unwrap();
            assert_eq!(t.report, r);
            times.push(r.time_ms);
        }
        // Three genuinely different cost models.
        assert_ne!(times[0], times[1]);
        assert_ne!(times[0], times[2]);
        assert_ne!(times[1], times[2]);
    }

    #[test]
    fn trial_batches_share_one_estimate_and_differ_by_seed() {
        let ctx = ModelContext::new(Gpu::K20.spec());
        let k = kernel(128, 48);
        let key = ProgramKey::of_kernel(&k);
        let a = ctx.measure_keyed(&key, &k, 128, 10, 1).unwrap();
        let b = ctx.measure_keyed(&key, &k, 128, 10, 2).unwrap();
        assert_eq!(a.report, b.report, "the estimate is a pure function of its inputs");
        assert_ne!(a.times_ms, b.times_ms, "different seeds still differ");
        assert_eq!(a, ctx.measure(&k, 128, 10, 1).unwrap(), "the key changes nothing");
    }

    #[test]
    fn mix_memo_shared_across_pl_and_sc() {
        let ctx = ModelContext::new(Gpu::K20.spec());
        let base = kernel(128, 48);
        let mut p2 = base.params;
        p2.pl = oriole_codegen::PreferredL1::Kb48;
        p2.sc = 4;
        let fe = front_end(
            &KernelId::Atax.ast(128),
            Gpu::K20.spec(),
            base.params.uif,
            CompilerFlags::default(),
        )
        .unwrap();
        let key = ProgramKey::of_front_end(&fe);
        let k2 = fe.specialize(p2).unwrap();
        let m1 = ctx.dynamic_mix_keyed(&key, &base, 128);
        let m2 = ctx.dynamic_mix_keyed(&key, &k2, 128);
        assert_eq!(m1, m2);
        let s = ctx.stats();
        assert_eq!((s.mix_misses, s.mix_hits), (1, 1));
    }

    #[test]
    fn front_end_key_distinguishes_shared_decls() {
        let gpu = Gpu::K20.spec();
        let ast = KernelId::MatVec2D.ast(64);
        let mut bigger = ast.clone();
        bigger.shared[0].elems *= 2;
        let fe_a = front_end(&ast, gpu, 1, CompilerFlags::default()).unwrap();
        let fe_b = front_end(&bigger, gpu, 1, CompilerFlags::default()).unwrap();
        assert_ne!(ProgramKey::of_front_end(&fe_a), ProgramKey::of_front_end(&fe_b));
    }
}
