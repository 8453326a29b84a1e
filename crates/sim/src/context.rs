//! Device-scoped model context: the `(device, configuration, timing
//! model)` binding the evaluation layers share.
//!
//! The free functions of this crate ([`simulate`](crate::simulate),
//! [`measure`](crate::measure), [`dynamic_mix`](crate::dynamic_mix)) are
//! pure in their inputs and fixed to the simulator backend under the
//! family-default configuration. [`ModelContext`] is the same
//! arithmetic with those three choices made once: it holds a
//! [`GpuSpec`], a [`SimConfig`] and a [`ModelId`], owns no cache and
//! has no interior mutability. What neighbouring launches *can* share
//! it takes from its caller: [`ModelContext::launch`] takes a
//! caller-owned [`LaunchScratch`], whose walks read only the launch's
//! [`LaunchWork`](oriole_ir::LaunchWork) (`TC` and the busy blocks, or
//! `TC` and `BC`), so a sweep worker that carries one over the variants
//! of a front-end artifact walks the program once per geometry, not once
//! per variant. No launch walks the fifteen-class dynamic mix: the
//! register count replays the index's register tapes in its order.
//!
//! The scratch also keeps the last launch's estimate, which a point's
//! twin (another `UIF` / `CFLAGS` on the same index) launches again;
//! [`launch`](ModelContext::launch) still draws each point's trials
//! from its own seed. Occupancy is [`oriole_arch::occupancy()`].
//!
//! # Backends
//!
//! Which cost model produces the estimates is the context's
//! [`ModelId`]: one `match` in its estimate calls the backend function
//! it names ([`model`]). The default is the full
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
use oriole_arch::{GpuSpec, Occupancy, OccupancyInput};
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

    /// What the evaluation layer stores of one launch: the trial
    /// `protocol` selects out of [`measure`](ModelContext::measure)'s
    /// `trials`, the achieved occupancy and
    /// [`dynamic_mix`](crate::dynamic_mix)'s register accesses —
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
        let (time_ms, occupancy) = scratch.estimate(kernel, n, |s| {
            self.estimate(kernel, n, s).map(|r| (r.time_ms, r.occupancy.occupancy))
        })?;
        Ok(LaunchSample {
            time_ms: protocol.select(noisy_trials(time_ms, trials, seed, &self.cfg)),
            occupancy,
            reg_instructions: scratch.reg_instructions(kernel, n),
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

    /// [`dynamic_mix`](crate::dynamic_mix); `key` is unused.
    #[deprecated(note = "benchmark/API.md compatibility; removed by the benchmark re-base (ROADMAP item 1(i))")]
    pub fn dynamic_mix_keyed(&self, _key: &ProgramKey, kernel: &CompiledKernel, n: u64) -> MixCounts {
        counters::dynamic_mix(kernel, n)
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
    use oriole_arch::{Gpu, OpClass, ALL_GPUS};
    use crate::machine::tests::passes;
    use oriole_codegen::{compile, front_end, CompilerFlags, PreferredL1, TuningParams, Unrolled};
    use oriole_kernels::{KernelId, ALL_KERNELS};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::sync::Arc;

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
        // Hops to a twin: another `(UIF, CFLAGS)` whose artifact was
        // built on this one's program and index.
        let mut twin_hops = 0u32;
        for (scope, (kid, gpu)) in
            ALL_KERNELS.iter().flat_map(|k| ALL_GPUS.map(|g| (*k, g))).enumerate()
        {
            let gpu = gpu.spec();
            let sizes = kid.input_sizes();
            // Four artifacts per size, twins sharing one program; a step
            // may hop between them.
            let mut artifacts: Vec<(u64, (u32, CompilerFlags), FrontEnd)> = Vec::new();
            for n in [sizes[0], sizes[3]] {
                for (uif, fast_math) in [(1u32, false), (1, true), (3, false), (3, true)] {
                    let cflags = CompilerFlags { fast_math };
                    let name = Unrolled::new(&kid.ast(n), uif, cflags).expect("valid unroll factor");
                    let twin = artifacts.iter().find_map(|(_, _, held)| name.twin(held));
                    artifacts.push((n, (uif, cflags), twin.unwrap_or_else(|| name.lower(gpu))));
                }
            }
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
                        _ => {
                            let index = artifacts[at].2.index();
                            let twins: Vec<usize> = (0..artifacts.len())
                                .filter(|&t| t != at && Arc::ptr_eq(artifacts[t].2.index(), index))
                                .collect();
                            if !twins.is_empty() {
                                at = twins[rng.gen_range(0..twins.len())];
                                twin_hops += 1;
                            }
                        }
                    }
                    if held != (p.tc, p.bc) {
                        other = held;
                    }
                    let (n, (uif, cflags), fe) = &artifacts[at];
                    (p.uif, p.cflags) = (*uif, *cflags);
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
                        reg_instructions: dynamic_mix(&k, *n).get(OpClass::Regs),
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
        assert!(twin_hops > 100, "{twin_hops} hops to a twin");
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
        let regs = |k: &CompiledKernel, n| dynamic_mix(k, n).get(OpClass::Regs).to_bits();

        let mut scratch = LaunchScratch::default();
        let first = ctx.estimate(&k, 128, &mut scratch).unwrap();
        let first_regs = scratch.reg_instructions(&k, 128).to_bits();
        // Same geometry every time: only the binding can force a walk,
        // and each rebinding forces both register passes.
        let mut visit = |k: &CompiledKernel, n| {
            passes(|| (ctx.estimate(k, n, &mut scratch).unwrap(), scratch.reg_instructions(k, n).to_bits()))
        };
        for (what, other, n) in [
            ("artifact", &other_artifact, 128),
            ("size", &k, 256),
            ("spill budget", &spilled, 128),
        ] {
            let ((through, through_regs), walked) = visit(other, n);
            assert_eq!(walked, [1, 1, 0], "another {what}: recomputed");
            assert_eq!(through, ctx.simulate(other, n).unwrap(), "another {what}: recomputed");
            assert_ne!(through.profile, first.profile, "another {what} has another profile");
            assert_eq!(through_regs, regs(other, n), "another {what}");
            // And back: the first kernel's answers, not the visitor's.
            let (back, walked) = visit(&k, 128);
            assert_eq!(walked, [1, 1, 0], "back from another {what}");
            assert_eq!(back, (first.clone(), first_regs));
        }
    }

    #[test]
    fn registers_are_weighed_once_per_busy_geometry_and_replayed_once_per_launch_shape() {
        // A 64-point chunk the way the tuner's batch plan hands one to a
        // worker: one `(UIF, CFLAGS)`, TC-major, then BC, then PL. ex14fj
        // at n=16 has 4,096 items, so at these `TC`s a `BC` step moves
        // the busy blocks until the grid outgrows the items, then keeps
        // them; and it diverges, so its busy weights are saturated.
        let gpu = Gpu::K20.spec();
        let n = 16;
        let fe = front_end(&KernelId::Ex14Fj.ast(n), gpu, 1, CompilerFlags::default()).unwrap();
        let ctx = ModelContext::new(gpu);
        let mut scratch = LaunchScratch::default();
        let (mut busy_geometries, mut shapes, mut walked) = (Vec::new(), Vec::new(), [0; 3]);
        for tc in [32, 64, 96, 128] {
            for bc in (1..=8).map(|i| 24 * i) {
                for pl in [PreferredL1::Kb16, PreferredL1::Kb48] {
                    let p = TuningParams { pl, ..TuningParams::with_geometry(tc, bc) };
                    let k = fe.specialize(p).unwrap();
                    let (sample, ran) =
                        passes(|| ctx.launch(&k, n, 10, 1, TrialProtocol::FifthOfTen, &mut scratch));
                    let regs = sample.unwrap().reg_instructions;
                    assert_eq!(regs.to_bits(), dynamic_mix(&k, n).get(OpClass::Regs).to_bits());
                    if pl == PreferredL1::Kb48 {
                        assert_eq!(ran[..2], [0, 0], "a PL sibling of ({tc}, {bc}) walked");
                    }
                    walked = std::array::from_fn(|i| walked[i] + ran[i]);
                    let busy = ctx.simulate(&k, n).unwrap().busy_blocks;
                    if busy_geometries.last() != Some(&(tc, busy)) {
                        busy_geometries.push((tc, busy));
                    }
                    if shapes.last() != Some(&(tc, bc)) {
                        shapes.push((tc, bc));
                    }
                }
            }
        }
        assert_eq!(shapes.len(), 32);
        // Both kinds of `BC` step occur: one that moves the busy blocks,
        // and one that keeps them.
        assert!(busy_geometries.len() > 4 && busy_geometries.len() < 32, "{busy_geometries:?}");
        let [weighed, replayed, estimated] = walked;
        assert_eq!((weighed, replayed), (busy_geometries.len() as u32, shapes.len() as u32));
        assert_eq!(estimated, 64, "every point of the chunk is its own launch");
    }

    /// The `UIF` twins of `ex14fj` at `n` on K20 (it has no loop to
    /// unroll): five artifacts on one program and index.
    fn ex14fj_twins(n: u64) -> Vec<FrontEnd> {
        let name = |uif| Unrolled::new(&KernelId::Ex14Fj.ast(n), uif, CompilerFlags::default()).unwrap();
        let first = name(1).lower(Gpu::K20.spec());
        let mut twins: Vec<FrontEnd> = (2..=5)
            .map(|uif| name(uif).twin(&first).unwrap_or_else(|| panic!("UIF {uif} changed ex14fj's key")))
            .collect();
        twins.insert(0, first);
        twins
    }

    #[test]
    fn a_twin_reuses_the_last_estimate_only_for_the_same_launch() {
        let ctx = ModelContext::new(Gpu::K20.spec());
        let n = 64;
        let twins = ex14fj_twins(n);
        let p = TuningParams::with_geometry(128, 48);
        let variant = |uif: u32| twins[uif as usize - 1].specialize(TuningParams { uif, ..p }).unwrap();
        let launch = |k: &CompiledKernel, scratch: &mut LaunchScratch| {
            sample_bits(ctx.launch(k, n, 10, 3, TrialProtocol::FifthOfTen, scratch))
        };
        let fresh = |k: &CompiledKernel| launch(k, &mut LaunchScratch::default());
        let mut scratch = LaunchScratch::default();
        let first = variant(1);
        assert_eq!(launch(&first, &mut scratch), fresh(&first));
        let twin = variant(4);
        let (reused, [.., estimated]) = passes(|| launch(&twin, &mut scratch));
        assert_eq!(reused, fresh(&twin));
        assert_eq!(estimated, 0, "the twin's launch is the first's: no estimate");
        // A twin that differs in spill budget, registers or `PL` is
        // another launch, and so is the way back.
        let mut spilled = variant(2);
        spilled.program.meta.spill_bytes += 8;
        let mut regs = variant(3);
        regs.program.meta.regs_per_thread += 8;
        let pl = twins[4].specialize(TuningParams { uif: 5, pl: PreferredL1::Kb48, ..p }).unwrap();
        for (what, other) in [("spill", spilled), ("regs", regs), ("PL", pl)] {
            let (there, [.., estimated]) = passes(|| launch(&other, &mut scratch));
            assert_eq!(there, fresh(&other), "{what}");
            let (back, [.., back_estimated]) = passes(|| launch(&twin, &mut scratch));
            assert_eq!(back, fresh(&twin), "back from {what}");
            assert_eq!((estimated, back_estimated), (1, 1), "{what}: estimated, and back");
        }
    }

    #[test]
    fn a_sorted_chunk_of_twins_estimates_once_per_launch_shape() {
        // A chunk the way the tuner's batch plan hands one to a worker:
        // one program, `(TC, BC, PL, SC)` order, each shape's five `UIF`
        // twins side by side.
        let n = 16;
        let twins = ex14fj_twins(n);
        let ctx = ModelContext::new(Gpu::K20.spec());
        let mut scratch = LaunchScratch::default();
        let (mut shapes, mut estimated) = (0, 0);
        for tc in [32, 64, 96, 128] {
            for bc in (1..=8).map(|i| 24 * i) {
                for pl in [PreferredL1::Kb16, PreferredL1::Kb48] {
                    shapes += 1;
                    for (uif, fe) in (1..).zip(&twins) {
                        let k = fe.specialize(TuningParams { uif, pl, ..TuningParams::with_geometry(tc, bc) });
                        let k = k.unwrap();
                        let seed = u64::from(uif) << 16 ^ u64::from(tc * bc);
                        let protocol = TrialProtocol::FifthOfTen;
                        let (reused, [.., ran]) = passes(|| ctx.launch(&k, n, 10, seed, protocol, &mut scratch));
                        estimated += ran;
                        let fresh = ctx.launch(&k, n, 10, seed, protocol, &mut LaunchScratch::default());
                        assert_eq!(sample_bits(reused), sample_bits(fresh), "{:?}", k.params);
                    }
                }
            }
        }
        assert_eq!(shapes, 64);
        assert_eq!(estimated, shapes, "one estimate per launch shape, not per twin");
    }
}
