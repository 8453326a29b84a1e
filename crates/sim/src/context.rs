//! Device-scoped model context: the `(device, configuration, timing
//! model)` binding the evaluation layers share.
//!
//! The free functions of this crate ([`simulate`](crate::simulate),
//! [`measure`](crate::measure), [`dynamic_mix`](crate::dynamic_mix)) are
//! pure in their inputs and fixed to the simulator backend under the
//! family-default configuration. [`ModelContext`] is the same
//! arithmetic with those three choices made once: it holds a
//! [`GpuSpec`], a [`SimConfig`] and a [`ModelId`], owns no cache and
//! has no interior mutability. What real workloads *can*
//! share between neighbouring launches it takes from its caller:
//! [`ModelContext::launch`] takes a caller-owned [`LaunchScratch`] — the
//! per-warp profile and the dynamic mix depend on the launch geometry
//! alone (`TC`, busy blocks / `BC`), so a sweep worker that carries one
//! scratch over the variants of a front-end artifact walks the program
//! once per geometry, not once per variant.
//!
//! Estimates themselves are **not** cached: the tuner's measurement
//! tier deduplicates per tuning point one layer up, so below it every
//! `(program, point, n)` is asked for once and a cache would never hit.
//! Occupancy is [`oriole_arch::occupancy()`], computed per estimate.
//!
//! # Backends
//!
//! Which cost model produces the estimates is the context's
//! [`ModelId`]: one `match` in its estimate calls the backend function
//! it names ([`model`](crate::model)). The default is the full
//! simulator, and [`ModelContext::for_model`] builds a context for any
//! [`ModelId`] (static Eq. 6, roofline). A context serves exactly one
//! backend — contexts for different models on one device are distinct
//! values, and every layer above keys its artifacts by
//! `(GpuSpec contents, ModelId)` so estimates can never alias across
//! backends.
//!
//! # Determinism
//!
//! There is one implementation: the free functions,
//! [`simulate`](ModelContext::simulate) and
//! [`measure`](ModelContext::measure) pass a fresh scratch, and a reused
//! one only skips a walk whose inputs are equal — tested bit-identical
//! over random launch sequences.

use crate::config::SimConfig;
use crate::counters;
use crate::machine::{simulate_via, LaunchScratch, SimError, SimReport};
use crate::model::{self, ModelId};
use crate::noise::{noisy_trials, TrialProtocol, Trials};
use oriole_arch::{GpuSpec, Occupancy, OccupancyInput, OpClass};
use oriole_codegen::{CompiledKernel, FrontEnd};
use oriole_ir::MixCounts;

/// Placeholder for the content-addressed key of the retired dynamic-mix
/// memo: it carries nothing and nothing reads it. Kept, with the
/// `_keyed` methods, for callers written against that memo.
#[deprecated(note = "benchmark/API.md compatibility; removed by the benchmark re-base (ROADMAP item 1(i))")]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProgramKey;

#[allow(deprecated)]
impl ProgramKey {
    /// The key of a front-end artifact.
    pub fn of_front_end(_fe: &FrontEnd) -> ProgramKey {
        ProgramKey
    }
}

/// What one launch contributes to a tuning point's measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchSample {
    /// The trial the protocol selected, in milliseconds.
    pub time_ms: f64,
    /// Achieved occupancy of the launch.
    pub occupancy: f64,
    /// Dynamic register-file accesses of the whole grid.
    pub reg_instructions: f64,
}

/// One `(device, configuration, timing model)` binding. See the
/// [module docs](self).
pub struct ModelContext {
    /// The device, held under the newtype
    /// [`occupancy_table`](ModelContext::occupancy_table) hands out.
    #[allow(deprecated)]
    spec: oriole_arch::OccupancyTable,
    cfg: SimConfig,
    model: ModelId,
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
    #[allow(deprecated)]
    pub fn for_model(spec: &GpuSpec, model: ModelId) -> ModelContext {
        ModelContext {
            spec: oriole_arch::OccupancyTable::new(spec),
            cfg: SimConfig::for_family(spec.family),
            model,
        }
    }

    /// The device this context serves.
    pub(crate) fn gpu(&self) -> &GpuSpec {
        self.spec.spec()
    }

    /// The identity of the timing backend behind this context's
    /// estimates.
    pub fn model_id(&self) -> ModelId {
        self.model
    }

    /// The one estimate every method below goes through.
    fn estimate(
        &self,
        kernel: &CompiledKernel,
        n: u64,
        scratch: &mut LaunchScratch,
    ) -> Result<SimReport, SimError> {
        debug_assert_eq!(kernel.gpu, *self.gpu(), "kernel compiled for another device");
        let (spec, cfg) = (self.gpu(), &self.cfg);
        match self.model {
            ModelId::Simulator => simulate_via(spec, cfg, kernel, n, scratch),
            ModelId::Static => model::static_predict(spec, kernel, n, scratch),
            ModelId::Roofline => model::roofline(spec, cfg, kernel, n, scratch),
        }
    }

    /// The estimate under this context's backend — for the default
    /// simulator backend, [`simulate`](crate::simulate) exactly.
    pub fn simulate(&self, kernel: &CompiledKernel, n: u64) -> Result<SimReport, SimError> {
        self.estimate(kernel, n, &mut LaunchScratch::default())
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
        let times_ms = noisy_trials(report.time_ms, trials, seed, &self.cfg).collect();
        Ok(Trials { times_ms, report })
    }

    /// [`dynamic_mix`](crate::dynamic_mix): the counters read no device
    /// service, so this is the free function.
    pub fn dynamic_mix(&self, kernel: &CompiledKernel, n: u64) -> MixCounts {
        counters::dynamic_mix(kernel, n)
    }

    /// What the evaluation layer stores of one launch: the trial
    /// `protocol` selects out of [`measure`](ModelContext::measure)'s
    /// `trials`, the achieved occupancy and
    /// [`dynamic_mix`](ModelContext::dynamic_mix)'s register accesses —
    /// those calls' bits, the walks spared that `scratch` already holds.
    pub fn launch(
        &self,
        kernel: &CompiledKernel,
        n: u64,
        trials: u32,
        seed: u64,
        protocol: TrialProtocol,
        scratch: &mut LaunchScratch,
    ) -> Result<LaunchSample, SimError> {
        let report = self.estimate(kernel, n, scratch)?;
        Ok(LaunchSample {
            time_ms: protocol.select(noisy_trials(report.time_ms, trials, seed, &self.cfg)),
            occupancy: report.occupancy.occupancy,
            reg_instructions: scratch.mix(kernel, n).get(OpClass::Regs),
        })
    }
}

/// The names `benchmark/API.md` pins until its re-base; each forwards to
/// a plain form.
#[allow(deprecated)]
impl ModelContext {
    /// The device, as the argument `analyze_in` and `suggest_from_in`
    /// take.
    #[deprecated(note = "benchmark/API.md compatibility; removed by the benchmark re-base (ROADMAP item 1(i))")]
    pub fn occupancy_table(&self) -> &oriole_arch::OccupancyTable {
        &self.spec
    }

    /// [`oriole_arch::occupancy()`] on this device.
    #[deprecated(note = "benchmark/API.md compatibility; removed by the benchmark re-base (ROADMAP item 1(i))")]
    pub fn occupancy(&self, input: OccupancyInput) -> Occupancy {
        oriole_arch::occupancy(self.gpu(), input)
    }

    /// [`ModelContext::measure`]; `key` is unused.
    #[deprecated(note = "benchmark/API.md compatibility; removed by the benchmark re-base (ROADMAP item 1(i))")]
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

    /// [`ModelContext::dynamic_mix`]; `key` is unused.
    #[deprecated(note = "benchmark/API.md compatibility; removed by the benchmark re-base (ROADMAP item 1(i))")]
    pub fn dynamic_mix_keyed(&self, _key: &ProgramKey, kernel: &CompiledKernel, n: u64) -> MixCounts {
        self.dynamic_mix(kernel, n)
    }
}

impl std::fmt::Debug for ModelContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelContext")
            .field("gpu", &self.gpu().name)
            .field("model", &self.model)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dynamic_mix, measure, simulate};
    use oriole_arch::{Gpu, ALL_GPUS};
    use oriole_codegen::{compile, front_end, CompilerFlags, PreferredL1, TuningParams};
    use oriole_kernels::{KernelId, ALL_KERNELS};
    use rand::{rngs::StdRng, Rng, SeedableRng};

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
        let a = ctx.measure(&k, 128, 10, 1).unwrap();
        let b = ctx.measure(&k, 128, 10, 2).unwrap();
        assert_eq!(a.report, b.report, "the estimate is a pure function of its inputs");
        assert_ne!(a.times_ms, b.times_ms, "different seeds still differ");
    }

    /// Every bit of a report: floats raw, the rest as integers.
    fn report_bits(r: &SimReport) -> Vec<u64> {
        let (o, p) = (&r.occupancy, &r.profile);
        let floats = [
            r.time_ms,
            r.cycles,
            o.occupancy,
            p.issue_cycles,
            p.mem_ops,
            p.latency_weighted,
            p.dram_transactions,
            p.barriers,
            p.divergent_branches,
        ];
        let ints = [
            r.bound as u32,
            o.active_blocks,
            o.active_warps,
            o.limiter as u32,
            r.busy_blocks,
            r.busy_sms,
            r.resident_warps,
            r.waves,
        ];
        floats.iter().map(|f| f.to_bits()).chain(ints.iter().map(|&i| u64::from(i))).collect()
    }

    fn sample_bits(s: Result<LaunchSample, SimError>) -> Result<[u64; 3], SimError> {
        s.map(|s| [s.time_ms, s.occupancy, s.reg_instructions].map(f64::to_bits))
    }

    #[test]
    fn a_reused_scratch_never_changes_a_bit() {
        const TC: [u32; 6] = [32, 64, 128, 256, 512, 1024];
        const PROTOCOLS: [TrialProtocol; 3] =
            [TrialProtocol::FifthOfTen, TrialProtocol::Median, TrialProtocol::Min];
        // How often a `BC`-only step moved the busy-block count, and how
        // often it did not (the profile survives only the latter).
        let (mut bc_moved_busy, mut bc_kept_busy) = (0u32, 0u32);
        for (scope, (kid, gpu)) in
            ALL_KERNELS.iter().flat_map(|k| ALL_GPUS.map(|g| (*k, g))).enumerate()
        {
            let gpu = gpu.spec();
            let sizes = kid.input_sizes();
            // Two artifacts per size; a step may hop between them.
            let artifacts: Vec<_> = [sizes[0], sizes[3]]
                .into_iter()
                .flat_map(|n| [1u32, 3].map(|uif| (n, uif)))
                .map(|(n, uif)| {
                    let fe = front_end(&kid.ast(n), gpu, uif, CompilerFlags::default());
                    (n, uif, fe.expect("valid unroll factor"))
                })
                .collect();
            for model in ModelId::ALL {
                let ctx = ModelContext::for_model(gpu, model);
                let mut rng =
                    StdRng::seed_from_u64(0x5c2a_07c4 ^ ((scope as u64) << 8) ^ model as u64);
                let mut scratch = LaunchScratch::default();
                let (mut at, mut spill, mut p) = (0, 0u32, TuningParams::with_geometry(128, 48));
                // The geometry before this one, and the busy blocks of
                // the launch before this one.
                let (mut other, mut busy_before) = ((64, 24), None);
                for step in 0..160u64 {
                    // Runs of one geometry (`PL`/`SC` siblings), `BC`
                    // and `TC` moves, a return to the geometry before,
                    // and now and then another artifact (and size) or
                    // spill budget under the same scratch.
                    let held = (p.tc, p.bc);
                    match rng.gen_range(0..10u32) {
                        0..=2 => {
                            p.pl = [PreferredL1::Kb16, PreferredL1::Kb48][rng.gen_range(0..2usize)];
                            p.sc = rng.gen_range(1..=4);
                        }
                        3..=4 => p.bc = 24 * rng.gen_range(1..=8u32),
                        5 => p.tc = TC[rng.gen_range(0..TC.len())],
                        6 => (p.tc, p.bc) = other,
                        7 => at = rng.gen_range(0..artifacts.len()),
                        8 => spill = 4 * rng.gen_range(0..3u32),
                        _ => {}
                    }
                    if held != (p.tc, p.bc) {
                        other = held;
                    }
                    let (n, uif, fe) = &artifacts[at];
                    p.uif = *uif;
                    let Ok(mut k) = fe.specialize(p) else { continue };
                    k.program.meta.spill_bytes += spill;

                    let reused = ctx.estimate(&k, *n, &mut scratch);
                    let fresh = ctx.simulate(&k, *n);
                    assert_eq!(
                        reused.as_ref().map(report_bits),
                        fresh.as_ref().map(report_bits),
                        "{kid} {} {model} step {step}: {p:?} n={n} spill={spill}",
                        gpu.name
                    );
                    let protocol = PROTOCOLS[rng.gen_range(0..3usize)];
                    // The wrappers the sample stands for, each on a
                    // fresh scratch of its own.
                    let seed = step ^ 0xfeed;
                    let by_wrappers = ctx.measure(&k, *n, 10, seed).map(|t| LaunchSample {
                        time_ms: t.selected(protocol),
                        occupancy: t.report.occupancy.occupancy,
                        reg_instructions: ctx.dynamic_mix(&k, *n).get(OpClass::Regs),
                    });
                    assert_eq!(
                        sample_bits(ctx.launch(&k, *n, 10, seed, protocol, &mut scratch)),
                        sample_bits(by_wrappers),
                        "{kid} {} {model} step {step}: {p:?} n={n} {protocol:?}",
                        gpu.name
                    );
                    let busy = fresh.ok().map(|r| r.busy_blocks);
                    if model == ModelId::Simulator && held.0 == p.tc && held.1 != p.bc {
                        *(if busy == busy_before { &mut bc_kept_busy } else { &mut bc_moved_busy }) += 1;
                    }
                    busy_before = busy;
                }
            }
        }
        assert!(bc_moved_busy > 20 && bc_kept_busy > 20, "{bc_moved_busy} moved, {bc_kept_busy} kept");
    }

    #[test]
    fn a_scratch_is_bound_to_artifact_size_and_spill_budget() {
        let ctx = ModelContext::new(Gpu::K20.spec());
        let gpu = Gpu::K20.spec();
        let p = TuningParams::with_geometry(128, 48);
        let fe = |uif| front_end(&KernelId::Atax.ast(128), gpu, uif, CompilerFlags::default()).unwrap();
        let k = fe(1).specialize(p).unwrap();
        let other_artifact = fe(2).specialize(TuningParams { uif: 2, ..p }).unwrap();
        let mut spilled = k.clone();
        spilled.program.meta.spill_bytes += 16;

        let mut scratch = LaunchScratch::default();
        let first = ctx.estimate(&k, 128, &mut scratch).unwrap();
        let mix = scratch.mix(&k, 128).clone();
        // Same geometry every time: only the binding can force a walk.
        for (what, other, n) in [
            ("artifact", &other_artifact, 128),
            ("size", &k, 256),
            ("spill budget", &spilled, 128),
        ] {
            let through = ctx.estimate(other, n, &mut scratch).unwrap();
            assert_eq!(through, ctx.simulate(other, n).unwrap(), "another {what}: recomputed");
            assert_ne!(through.profile, first.profile, "another {what} has another profile");
            assert_eq!(*scratch.mix(other, n), dynamic_mix(other, n), "another {what}: recomputed");
            // And back: the first kernel's answers, not the visitor's.
            assert_eq!(ctx.estimate(&k, 128, &mut scratch).unwrap(), first);
            assert_eq!(*scratch.mix(&k, 128), mix);
        }
    }
}
