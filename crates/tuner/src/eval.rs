//! Variant evaluation: the "empirical" measurement loop of §IV-A.
//!
//! Each tuning point is compiled and run on the simulator for every
//! input size, ten noisy trials each, with the fifth trial selected —
//! exactly the paper's protocol. The layer is built for search-loop
//! throughput, with two caching tiers under a deterministic interface:
//!
//! 1. **Front-end tier** — the expensive compile front-end (unroll +
//!    lower, see [`oriole_codegen::front_end`]) is keyed by what it
//!    reads. The `TC`/`BC`/`PL`/`SC` axes don't affect lowering and the
//!    input size does only through the AST, so each variant pays only
//!    the cheap back-end ([`FrontEnd::specialize`]), once per artifact
//!    its sizes resolve to. A once-map under `(size, UIF, CFLAGS)` sits
//!    in front: a hit builds no AST; a miss builds the size's AST (a
//!    tenth of a microsecond) and looks the name up by `==`. A new name
//!    is unrolled and keyed ([`LowerKey`]: the unrolled AST, and
//!    `CFLAGS` only when an op of it reads the flag); a held key yields
//!    a *twin* on the held program, index and register allocation
//!    ([`Unrolled::twin`]), and only a new key lowers. On K20 the paper
//!    space lowers five programs over all sizes for `atax`, `bicg` and
//!    `matvec2d` and two per size for `ex14fj`.
//! 2. **Measurement tier** — a sharded map of `Arc<Measurement>` with
//!    **in-flight deduplication**: concurrent misses on one point block
//!    on a per-key `OnceLock` instead of recomputing, so revisits by
//!    stochastic searchers are free, cache hits never clone the full
//!    measurement, and [`Evaluator::unique_evaluations`] counts each
//!    point exactly once no matter how many threads race on it.
//!
//! Beside them sits the evaluator's own `(device, timing model)`
//! binding ([`oriole_sim::ModelContext`]), held by value: it caches
//! nothing. Program walks that depend on the launch geometry alone, and
//! the last launch's estimate, are shared through a [`LaunchScratch`]
//! per input size, carried across a worker's chunk.
//!
//! An evaluator is an immutable view of an
//! [`ArtifactStore`](crate::ArtifactStore): both tiers live behind
//! `Arc`s the store hands out, shared with every other evaluator of the
//! same scope, so repeated sweeps (bench bins, CLI invocations, replay
//! validation) reuse front-ends and measurements instead of rebuilding
//! the world per (kernel, GPU). [`Evaluator::new`] asks a private store.
//! Another protocol, objective or timing model is another evaluator —
//! [`ArtifactStore::evaluator_with`](crate::ArtifactStore::evaluator_with)
//! — never a mutation of this one. Sharing never changes results: all
//! cached values are bit-identical to what a fresh evaluator computes.
//!
//! [`Evaluator::evaluate_batch`] serves the points the measurement tier
//! already holds on the calling thread, resolves every missing
//! `(UIF, CFLAGS)`'s artifacts and plans the misses (`plan_batch`, a
//! pure function) into chunks of one program class in launch-shape
//! order, so a twin's estimate is the scratch's last and only its
//! trials are new. Too few misses to pay for threads are claimed by the
//! caller alone. Results come back in input order, so the whole layer
//! stays deterministic regardless of thread scheduling.

use crate::once_map::ShardedOnceMap;
use crate::space::SearchSpace;
use oriole_arch::GpuSpec;
use oriole_codegen::{
    CompileError, CompiledKernel, CompilerFlags, FrontEnd, PhaseTelemetry, TuningParams, Unrolled,
};
use oriole_codegen::compile::LowerKey;
use oriole_ir::KernelAst;
use oriole_sim::{LaunchScratch, ModelContext, ModelId, TrialProtocol};
use std::borrow::{Borrow, BorrowMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// What a search minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// Sum of selected trial times over all input sizes (the paper's
    /// whole-benchmark view).
    #[default]
    TotalTime,
    /// Time at the largest input size only.
    LargestSize,
}

/// The measurement protocol of one evaluator: everything besides the
/// kernel, device and input sizes that determines a [`Measurement`].
/// Part of the [`ArtifactStore`](crate::ArtifactStore) scope key, so
/// evaluators only share measurements when they would compute identical
/// ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EvalProtocol {
    /// Trials per size (paper: 10).
    pub trials: u32,
    /// Trial-selection protocol (paper: fifth of ten).
    pub protocol: TrialProtocol,
    /// Base seed; per-variant seeds derive from it and the point.
    pub base_seed: u64,
    /// Objective definition.
    pub objective: Objective,
    /// Timing-model backend measurements are estimated with. Part of
    /// every measurement-tier scope key, so measurements taken under
    /// one backend can never alias another's.
    pub model: ModelId,
}

impl Default for EvalProtocol {
    /// The paper's §IV-A protocol, under the default simulator backend.
    fn default() -> EvalProtocol {
        EvalProtocol {
            trials: 10,
            protocol: TrialProtocol::FifthOfTen,
            base_seed: 0x0012_101e,
            objective: Objective::TotalTime,
            model: ModelId::default(),
        }
    }
}

/// The evaluation record of one variant — everything Table V and Fig. 4
/// need.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// The tuning point.
    pub params: TuningParams,
    /// Objective value in milliseconds (`f64::INFINITY` when
    /// infeasible).
    pub time_ms: f64,
    /// Selected trial time per input size.
    pub per_size_ms: Vec<(u64, f64)>,
    /// Whether the variant compiled and launched.
    pub feasible: bool,
    /// Achieved occupancy (0 when infeasible).
    pub occupancy: f64,
    /// Registers per thread `ptxas` allocated.
    pub regs_allocated: u32,
    /// Dynamic register-instruction count summed over sizes (Table V's
    /// "Register Instructions").
    pub reg_instructions: f64,
}

impl Measurement {
    fn infeasible(params: TuningParams) -> Measurement {
        Measurement {
            params,
            time_ms: f64::INFINITY,
            per_size_ms: Vec::new(),
            feasible: false,
            occupancy: 0.0,
            regs_allocated: 0,
            reg_instructions: 0.0,
        }
    }
}

/// One cached front-end artifact (`Err` when the front-end rejected its
/// `UIF`).
pub(crate) type FeArtifact = Result<FrontEnd, CompileError>;

/// A tier entry: what it is found by, and its artifact — behind a cell,
/// so it is built once and nobody lowers under a lock.
type Entry<K> = Arc<(K, OnceLock<Arc<FeArtifact>>)>;

/// `list`'s entry for `key`, added the first time it is asked for.
fn entry<K: PartialEq>(list: &Mutex<Vec<Entry<K>>>, key: K) -> Entry<K> {
    let mut list = list.lock().expect("nothing is built under this lock");
    if let Some(held) = list.iter().find(|e| e.0 == key) {
        return Arc::clone(held);
    }
    list.push(Arc::new((key, OnceLock::new())));
    Arc::clone(list.last().expect("pushed above"))
}

/// The front-end artifact cache (scope: one kernel × device). What it
/// has cost is read off the artifacts it holds, not counted beside them.
#[derive(Default)]
pub(crate) struct FeTier {
    /// Artifacts by `(size, UIF, CFLAGS)`; `gpu` is fixed per tier.
    map: ShardedOnceMap<(u64, u32, CompilerFlags), Arc<FeArtifact>>,
    /// Every name so far by its `(UIF, CFLAGS)` and AST (the paper
    /// space: ten, or ten per size), searched on a miss of `map`.
    names: Mutex<Vec<Entry<(u32, CompilerFlags, KernelAst)>>>,
    /// Every lowering so far by its key, and the artifact that ran it.
    lowered: Mutex<Vec<Entry<LowerKey>>>,
}

impl FeTier {
    /// The artifact of `(uif, cflags)` for `ast` on `gpu`: a twin of a
    /// held lowering of its key, else a lowering of its own.
    fn resolve(&self, ast: &KernelAst, gpu: &GpuSpec, uif: u32, cflags: CompilerFlags) -> Arc<FeArtifact> {
        let unrolled = match Unrolled::new(ast, uif, cflags) {
            Ok(unrolled) => unrolled,
            Err(rejected) => return Arc::new(Err(rejected)),
        };
        let program = entry(&self.lowered, unrolled.key().clone());
        let mut lowered_here = false;
        let held = program.1.get_or_init(|| {
            lowered_here = true;
            Arc::new(Ok(unrolled.lower(gpu)))
        });
        match &**held {
            Ok(lowering) if !lowered_here => Arc::new(Ok(unrolled.twin(lowering).expect("a held key is equal"))),
            _ => Arc::clone(held),
        }
    }

    /// What building the tier's artifacts cost, phase by phase: a
    /// rejected `UIF` (`Err`) ran nothing, a name being resolved holds
    /// nothing yet, and a twin ran its unroll only.
    pub(crate) fn phases(&self) -> PhaseTelemetry {
        let names = self.names.lock().expect("nothing is built under this lock");
        names
            .iter()
            .filter_map(|p| match p.1.get().map(Arc::as_ref) {
                Some(Ok(fe)) => Some(fe.phases()),
                _ => None,
            })
            .sum()
    }

    /// Compile front-ends lowered: one per distinct key.
    pub(crate) fn lowerings(&self) -> usize {
        self.phases().lower_calls as usize
    }
}

/// The measurement memo (scope: one kernel × device × input sizes ×
/// [`EvalProtocol`]). Optionally disk-backed: a tier borrowed from a
/// store with a disk tier is pre-seeded with the valid records of its
/// on-disk artifact and spills every new computation back as an
/// append-only, checksummed record (see [`crate::persist`]).
pub(crate) struct MeasTier {
    pub(crate) map: ShardedOnceMap<TuningParams, Arc<Measurement>>,
    evaluations: AtomicUsize,
    /// Measurements pre-seeded from the disk tier (0 without one).
    disk_loaded: usize,
    /// Append-only record writer of the on-disk artifact, when one is
    /// attached.
    pub(crate) spill: Option<crate::persist::TierSpill>,
}

impl MeasTier {
    pub(crate) fn new() -> MeasTier {
        MeasTier::assemble(Vec::new(), None)
    }

    /// A tier seeded with the records of its disk artifact, in file
    /// order, and (optionally) spilling new computations back to it. The
    /// first record of a point wins — a re-appended duplicate is
    /// bit-identical by determinism — and [`MeasTier::disk_loaded`]
    /// counts the points, not the records. Seeded entries do **not**
    /// count as evaluations: [`MeasTier::unique_evaluations`] keeps
    /// meaning "points actually computed by this process".
    pub(crate) fn assemble(
        records: Vec<Arc<Measurement>>,
        spill: Option<crate::persist::TierSpill>,
    ) -> MeasTier {
        let map = ShardedOnceMap::new();
        let mut disk_loaded = 0;
        for m in records {
            map.get_or_init(m.params, || {
                disk_loaded += 1;
                m
            });
        }
        MeasTier { map, evaluations: AtomicUsize::new(0), disk_loaded, spill }
    }

    pub(crate) fn unique_evaluations(&self) -> usize {
        self.evaluations.load(Ordering::Relaxed)
    }

    pub(crate) fn disk_loaded(&self) -> usize {
        self.disk_loaded
    }

    pub(crate) fn disk_spilled(&self) -> usize {
        self.spill.as_ref().map_or(0, |s| s.written() as usize)
    }
}

/// Cache telemetry of one evaluator's tiers, the numbers behind the
/// CLI `tune --stats` report. Counters are tier-wide: for a
/// store-backed evaluator they aggregate every sharer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalStats {
    /// Distinct tuning points measured (cache misses).
    pub unique_evaluations: usize,
    /// Compile front-ends lowered: twins, proven before lowering, share one.
    pub front_end_lowerings: usize,
    /// Measurements pre-seeded into this tier from the store's disk
    /// tier (0 for memory-only evaluators).
    pub disk_loaded: usize,
    /// Measurements this tier spilled to the store's disk tier.
    pub disk_spilled: usize,
    /// The timing-model backend the evaluator measures with.
    pub model: ModelId,
    /// What building the front-end tier's artifacts cost: wall time and
    /// calls of unroll, lower and register allocation.
    pub phases: PhaseTelemetry,
}

/// Most misses one worker claims at a time: enough to amortize the
/// claim and the artifact lookups, few enough that the paper's
/// 512-point front-end groups still split across workers.
const CHUNK: usize = 64;

/// Fewest misses worth a thread spawn; below it the caller claims every
/// chunk itself.
const MIN_PARALLEL: usize = 8;

/// The threads a batch of work may use: the core count, asked once per
/// process (it is a syscall plus cgroup file reads).
fn worker_count() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(4, |n| n.get()))
}

/// The threads `misses` points to compute are split for, the caller
/// included; a plan with fewer chunks uses fewer.
fn batch_threads(misses: usize, workers: usize) -> usize {
    if misses < MIN_PARALLEL {
        1
    } else {
        workers
    }
}

/// Plans the `missing` indices of `points` for `threads` threads
/// ([`batch_threads`]) into chunks, one per claim: a pure function (no
/// clock, no threads), like `oriole_service`'s scheduler. Every missing
/// index lands in exactly one chunk. A chunk shares one `class` (twins
/// share one) in `(TC, BC, PL, SC)` order, ties in input order, and the
/// list interleaves the classes, so workers on neighbouring chunks sit
/// on different programs.
pub(crate) fn plan_batch(
    points: &[TuningParams],
    missing: Vec<usize>,
    class: impl Fn(&TuningParams) -> usize,
    threads: usize,
) -> Vec<Vec<usize>> {
    let chunk = missing.len().div_ceil(threads).clamp(1, CHUNK);
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for i in missing {
        let key = class(&points[i]);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, group)) => group.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    for (_, group) in &mut groups {
        group.sort_by_key(|&i| (points[i].tc, points[i].bc, points[i].pl.kb(), points[i].sc));
    }
    let mut per_group: Vec<_> = groups.iter().map(|(_, group)| group.chunks(chunk)).collect();
    let mut chunks = Vec::new();
    loop {
        let planned = chunks.len();
        chunks.extend(per_group.iter_mut().filter_map(Iterator::next).map(<[usize]>::to_vec));
        if chunks.len() == planned {
            return chunks;
        }
    }
}

/// Evaluates tuning points for one kernel × GPU × input-size set under
/// one [`EvalProtocol`]: an immutable view of the two tiers its
/// [`ArtifactStore`](crate::ArtifactStore) scope shares.
pub struct Evaluator<'a> {
    ast_builder: &'a (dyn Fn(u64) -> KernelAst + Sync),
    gpu: &'a GpuSpec,
    sizes: &'a [u64],
    protocol: EvalProtocol,
    ctx: ModelContext,
    front_ends: Arc<FeTier>,
    cache: Arc<MeasTier>,
    /// Points this view computed ([`Evaluator::computed`]).
    computed: AtomicUsize,
}

impl<'a> Evaluator<'a> {
    /// Creates a standalone evaluator — the view of a private store,
    /// whose tiers it keeps alive — with the paper's measurement
    /// protocol. Accepts any borrowed [`GpuSpec`]: synthetic and custom
    /// devices work without the static registry.
    pub fn new(
        ast_builder: &'a (dyn Fn(u64) -> KernelAst + Sync),
        gpu: &'a GpuSpec,
        sizes: &'a [u64],
    ) -> Evaluator<'a> {
        crate::ArtifactStore::new().evaluator("", ast_builder, gpu, sizes)
    }

    /// Assembles an evaluator over its scope's tiers — the one
    /// constructor, called by [`ArtifactStore`](crate::ArtifactStore).
    pub(crate) fn from_tiers(
        ast_builder: &'a (dyn Fn(u64) -> KernelAst + Sync),
        gpu: &'a GpuSpec,
        sizes: &'a [u64],
        protocol: EvalProtocol,
        front_ends: Arc<FeTier>,
        cache: Arc<MeasTier>,
    ) -> Evaluator<'a> {
        let ctx = ModelContext::for_model(gpu, protocol.model);
        let computed = AtomicUsize::new(0);
        Evaluator { ast_builder, gpu, sizes, protocol, ctx, front_ends, cache, computed }
    }

    /// Points *this evaluator* computed: the misses it won, however many
    /// other views of the same tier were evaluating at the time. A
    /// point is computed once tier-wide, in the call that wins it, so
    /// over any set of views these sum to the
    /// [`Evaluator::unique_evaluations`] they added together.
    pub fn computed(&self) -> usize {
        self.computed.load(Ordering::Relaxed)
    }

    /// Number of *distinct* variants evaluated so far (cache misses).
    /// Concurrent misses on one point are deduplicated, so hammering a
    /// single point from many threads counts it once. For store-backed
    /// evaluators the count covers every sharer of the measurement tier.
    pub fn unique_evaluations(&self) -> usize {
        self.cache.unique_evaluations()
    }

    /// Lowerings actually run, tier-wide like
    /// [`Evaluator::unique_evaluations`]: one per key of what lowering
    /// reads, however many points, sizes and names share it — a twin is
    /// proven before lowering and lowers nothing.
    pub fn front_end_lowerings(&self) -> usize {
        self.front_ends.lowerings()
    }

    /// Cache telemetry of the two tiers this evaluator views.
    pub fn stats(&self) -> EvalStats {
        EvalStats {
            unique_evaluations: self.unique_evaluations(),
            front_end_lowerings: self.front_end_lowerings(),
            disk_loaded: self.cache.disk_loaded(),
            disk_spilled: self.cache.disk_spilled(),
            model: self.ctx.model_id(),
            phases: self.front_ends.phases(),
        }
    }

    /// Per-variant deterministic seed.
    fn seed_for(&self, p: &TuningParams) -> u64 {
        // Simple FNV-style mix over the point's fields.
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.protocol.base_seed;
        for v in [
            u64::from(p.tc),
            u64::from(p.bc),
            u64::from(p.uif),
            u64::from(p.pl.kb()),
            u64::from(p.sc),
            u64::from(p.cflags.fast_math),
        ] {
            h ^= v.wrapping_add(0x9e37_79b9_7f4a_7c15);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    /// The cached front-ends of `(uif, cflags)`, one per input size; a
    /// miss builds the size's AST, and unrolls and keys it unless an
    /// equal one already was, at whatever size.
    fn artifacts(&self, uif: u32, cflags: CompilerFlags) -> impl Iterator<Item = Arc<FeArtifact>> + '_ {
        let tier = &*self.front_ends;
        self.sizes.iter().map(move |&n| tier.map.get_or_init((n, uif, cflags), || {
            let name = entry(&tier.names, (uif, cflags, (self.ast_builder)(n)));
            Arc::clone(name.1.get_or_init(|| tier.resolve(&name.0 .2, self.gpu, uif, cflags)))
        }))
    }

    /// The one miss routine: measures `params` over `per_size`, the
    /// point's own artifact and a launch scratch per input size — fresh
    /// for a lone point, a chunk's own for a batch worker, whose
    /// neighbouring points share launch shapes and programs. The pairs
    /// are pulled size by size, so a caller that resolves them on the
    /// fly pays for none past the first infeasible size.
    fn evaluate_uncached(
        &self,
        params: TuningParams,
        per_size: impl Iterator<Item = (impl Borrow<Arc<FeArtifact>>, impl BorrowMut<LaunchScratch>)>,
    ) -> Measurement {
        let EvalProtocol { trials, protocol, .. } = self.protocol;
        let seed = self.seed_for(&params);
        let mut per_size_ms = Vec::with_capacity(self.sizes.len());
        let mut occupancy = 0.0;
        let mut regs = 0u32;
        let mut reg_instructions = 0.0;
        // The point specialized for the artifact it was last asked of:
        // `atax`, `bicg` and `matvec2d` share one artifact over every
        // size. The tier holds each artifact for the evaluator's life, so
        // an equal address is the same artifact.
        let mut specialized: Option<(*const FeArtifact, CompiledKernel)> = None;
        for (&n, (artifact, mut scratch)) in self.sizes.iter().zip(per_size) {
            let (artifact, scratch) = (artifact.borrow(), scratch.borrow_mut());
            let Ok(fe) = &**artifact else {
                return Measurement::infeasible(params);
            };
            let kernel = match specialized {
                Some((at, ref kernel)) if std::ptr::eq(at, Arc::as_ptr(artifact)) => kernel,
                _ => {
                    let Ok(kernel) = fe.specialize(params) else {
                        return Measurement::infeasible(params);
                    };
                    &specialized.insert((Arc::as_ptr(artifact), kernel)).1
                }
            };
            let Ok(launch) = self.ctx.launch(kernel, n, trials, seed ^ n, protocol, scratch) else {
                return Measurement::infeasible(params);
            };
            per_size_ms.push((n, launch.time_ms));
            occupancy = launch.occupancy;
            regs = kernel.regs_per_thread();
            reg_instructions += launch.reg_instructions;
        }
        let time_ms = match self.protocol.objective {
            Objective::TotalTime => per_size_ms.iter().map(|(_, t)| t).sum(),
            Objective::LargestSize => per_size_ms.last().map(|(_, t)| *t).unwrap_or(f64::INFINITY),
        };
        Measurement {
            params,
            time_ms,
            per_size_ms,
            feasible: true,
            occupancy,
            regs_allocated: regs,
            reg_instructions,
        }
    }

    /// The measurement tier's entry for `params`, computed by `miss`
    /// exactly once across all callers. A newly computed point is
    /// spilled to the tier's disk artifact, when one is attached, before
    /// any waiter observes it — a killed sweep keeps everything it
    /// measured. A computation is tallied in `won`, the caller's own
    /// count: workers publish theirs to [`Evaluator::computed`] once, so
    /// the struct every worker reads is not written per point.
    fn memoized(
        &self,
        params: TuningParams,
        won: &mut usize,
        miss: impl FnOnce() -> Measurement,
    ) -> Arc<Measurement> {
        self.cache.map.get_or_init(params, || {
            self.cache.evaluations.fetch_add(1, Ordering::Relaxed);
            *won += 1;
            let m = Arc::new(miss());
            if let Some(spill) = &self.cache.spill {
                spill.append(&m);
            }
            m
        })
    }

    /// Evaluates one point (memoized; hits return a shared handle
    /// without cloning the measurement), resolving its front-ends size
    /// by size and only on a miss.
    pub fn evaluate(&self, params: TuningParams) -> Arc<Measurement> {
        let mut won = 0;
        let m = self.memoized(params, &mut won, || {
            let fresh = std::iter::repeat_with(LaunchScratch::default);
            self.evaluate_uncached(params, self.artifacts(params.uif, params.cflags).zip(fresh))
        });
        if won > 0 {
            self.computed.fetch_add(won, Ordering::Relaxed);
        }
        m
    }

    /// Evaluates a batch; results in input order, duplicates and all.
    ///
    /// Points the measurement tier already holds are served right here,
    /// and an all-hit batch — a warm re-sweep, a searcher's generation, a
    /// daemon frame — returns there: no plan, no `thread::scope`. The
    /// misses follow `plan_batch`: this thread and, when there are
    /// enough of them to pay for it, up to `workers - 1` spawned ones
    /// claim chunks off one cursor and return per-chunk vectors,
    /// scattered into place after the join. Points duplicated within the
    /// batch — or raced by other callers — are deduplicated by the memo
    /// layer.
    pub fn evaluate_batch(&self, points: &[TuningParams]) -> Vec<Arc<Measurement>> {
        let mut results: Vec<Option<Arc<Measurement>>> =
            points.iter().map(|p| self.cache.map.get(p)).collect();
        let missing: Vec<usize> = (0..points.len()).filter(|&i| results[i].is_none()).collect();
        if missing.is_empty() {
            return results.into_iter().map(|m| m.expect("an all-hit batch")).collect();
        }
        // Every missing key's artifacts and class, resolved before the
        // plan: keys whose artifacts share an index at every size (twins)
        // are one class, and a rejected artifact is a class of its own.
        let (mut keys, mut resolved, mut classes) = (Vec::new(), Vec::new(), Vec::<Vec<usize>>::new());
        for p in missing.iter().map(|&i| points[i]) {
            if !keys.contains(&(p.uif, p.cflags)) {
                let artifacts: Vec<Arc<FeArtifact>> = self.artifacts(p.uif, p.cflags).collect();
                let class: Vec<usize> = artifacts.iter().map(|a| match &**a {
                    Ok(fe) => Arc::as_ptr(fe.index()) as usize,
                    Err(_) => Arc::as_ptr(a) as usize,
                }).collect();
                let id = classes.iter().position(|c| *c == class).unwrap_or(classes.len());
                if id == classes.len() {
                    classes.push(class);
                }
                keys.push((p.uif, p.cflags));
                resolved.push((id, artifacts));
            }
        }
        let key = |p: &TuningParams| {
            &resolved[keys.iter().position(|k| *k == (p.uif, p.cflags)).expect("every missing key resolved")]
        };
        let threads = batch_threads(missing.len(), worker_count());
        let chunks = plan_batch(points, missing, |p| key(p).0, threads);
        let next = AtomicUsize::new(0);
        let work = || {
            let (mut done, mut won) = (Vec::new(), 0);
            loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                let Some(chunk) = chunks.get(c) else {
                    self.computed.fetch_add(won, Ordering::Relaxed);
                    break done;
                };
                let mut scratches: Vec<LaunchScratch> =
                    self.sizes.iter().map(|_| LaunchScratch::default()).collect();
                let evaluate = |&i: &usize| {
                    self.memoized(points[i], &mut won, || {
                        self.evaluate_uncached(points[i], key(&points[i]).1.iter().zip(&mut scratches))
                    })
                };
                done.push((c, chunk.iter().map(evaluate).collect::<Vec<_>>()));
            }
        };
        let done = std::thread::scope(|scope| {
            let spawned: Vec<_> =
                (1..threads.min(chunks.len())).map(|_| scope.spawn(work)).collect();
            let mut done = work();
            for handle in spawned {
                done.extend(handle.join().expect("evaluation never panics"));
            }
            done
        });
        for (c, measurements) in done {
            for (&i, m) in chunks[c].iter().zip(measurements) {
                results[i] = Some(m);
            }
        }
        results.into_iter().map(|m| m.expect("every point served, by the tier or a chunk")).collect()
    }

    /// Evaluates the entire space (exhaustive sweep), in flat-index
    /// order.
    pub fn evaluate_space(&self, space: &SearchSpace) -> Vec<Arc<Measurement>> {
        let points: Vec<TuningParams> = space.iter().collect();
        self.evaluate_batch(&points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oriole_arch::Gpu;
    use oriole_kernels::KernelId;

    fn evaluator<'a>(sizes: &'a [u64]) -> Evaluator<'a> {
        Evaluator::new(&|n| KernelId::Atax.ast(n), Gpu::K20.spec(), sizes)
    }

    /// An evaluator of `store`'s ATAX × K20 scope under `protocol`.
    fn evaluator_under<'a>(
        store: &crate::ArtifactStore,
        sizes: &'a [u64],
        protocol: EvalProtocol,
    ) -> Evaluator<'a> {
        store.evaluator_with("atax", &|n| KernelId::Atax.ast(n), Gpu::K20.spec(), sizes, protocol)
    }

    #[test]
    fn evaluation_is_deterministic() {
        let sizes = [64u64, 128];
        let ev = evaluator(&sizes);
        let p = TuningParams::with_geometry(128, 48);
        let a = ev.evaluate(p);
        let b = ev.evaluate(p);
        assert_eq!(a, b);
        // A second evaluator reproduces the same numbers.
        let ev2 = evaluator(&sizes);
        assert_eq!(ev2.evaluate(p), a);
    }

    #[test]
    fn cache_counts_unique_points() {
        let sizes = [64u64];
        let ev = evaluator(&sizes);
        let p = TuningParams::with_geometry(128, 48);
        let q = TuningParams::with_geometry(256, 48);
        ev.evaluate(p);
        ev.evaluate(p);
        ev.evaluate(q);
        assert_eq!(ev.unique_evaluations(), 2);
    }

    #[test]
    fn concurrent_misses_on_one_point_deduplicate() {
        // Regression test for the duplicate-evaluation race: many
        // threads hammering one cold point must produce exactly one
        // computation (and identical results).
        let sizes = [64u64];
        let ev = evaluator(&sizes);
        let p = TuningParams::with_geometry(128, 48);
        let results: Vec<Arc<Measurement>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..16).map(|_| scope.spawn(|| ev.evaluate(p))).collect();
            handles.into_iter().map(|h| h.join().expect("no panics")).collect()
        });
        assert_eq!(ev.unique_evaluations(), 1, "concurrent misses recomputed the point");
        for m in &results {
            assert_eq!(*m, results[0]);
        }
    }

    #[test]
    fn front_end_runs_once_per_size_uif_cflags_over_fig3_space() {
        // Acceptance criterion: sweeping the paper's full 5,120-point
        // Fig. 3 space lowers once per distinct key of what lowering
        // reads. ATAX holds no op `CFLAGS` reaches, so its 1 × 5 × 2
        // (size, UIF, CFLAGS) names make 5 keys.
        let sizes = [64u64];
        let ev = evaluator(&sizes);
        let space = SearchSpace::paper_default();
        let measurements = ev.evaluate_space(&space);
        assert_eq!(measurements.len(), 5120);
        assert_eq!(ev.unique_evaluations(), 5120);
        let keys = sizes.len() * space.uif.len();
        assert_eq!(ev.front_end_lowerings(), keys);
        assert_eq!(ev.stats().phases.unroll_calls as usize, keys * space.cflags.len());
        // Warm traversal adds neither lowerings nor evaluations.
        let again = ev.evaluate_space(&space);
        assert_eq!(again, measurements);
        assert_eq!(ev.unique_evaluations(), 5120);
        assert_eq!(ev.front_end_lowerings(), keys);
    }

    #[test]
    fn batch_matches_sequential_and_orders_results() {
        let sizes = [64u64];
        let space = SearchSpace::tiny();
        let points: Vec<TuningParams> = space.iter().collect();
        let ev_batch = evaluator(&sizes);
        let batch = ev_batch.evaluate_batch(&points);
        let ev_seq = evaluator(&sizes);
        let seq: Vec<Arc<Measurement>> = points.iter().map(|&p| ev_seq.evaluate(p)).collect();
        assert_eq!(batch, seq);
        for (m, p) in batch.iter().zip(&points) {
            assert_eq!(m.params, *p);
        }
        // The all-hit replay (it returns before any plan): same records,
        // in input order, duplicates and all, and nothing recomputed.
        let mut again = points.clone();
        again.push(points[0]);
        let replay = ev_batch.evaluate_batch(&again);
        assert_eq!(replay[..points.len()], batch[..]);
        assert!(Arc::ptr_eq(&replay[points.len()], &batch[0]));
        assert_eq!(ev_batch.unique_evaluations(), points.len());
    }

    #[test]
    fn batch_plans_partition_the_misses_by_class_in_launch_shape_order() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let shape = |p: &TuningParams| (p.tc, p.bc, p.pl.kb(), p.sc);
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Points drawn with repeats from a pool over the first few
            // front-end keys of the paper space, behind a random hit mask.
            let mut space = SearchSpace::paper_default();
            space.uif.truncate(rng.gen_range(1..=5));
            space.cflags.truncate(rng.gen_range(1..=2));
            let pool: Vec<TuningParams> = (0..rng.gen_range(1..=300usize))
                .map(|_| space.point(rng.gen_range(0..space.len())))
                .collect();
            let points: Vec<TuningParams> = (0..rng.gen_range(0..400usize))
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect();
            let hit_rate = [0.0, 0.5, 0.97, 1.0][rng.gen_range(0..4usize)];
            let missing: Vec<usize> =
                (0..points.len()).filter(|_| !rng.gen_bool(hit_rate)).collect();
            let workers = rng.gen_range(1..=8usize);
            // Each `(UIF, CFLAGS)` key's class: keys that drew the same
            // one are twins, as keys whose programs are equal are.
            let classes: Vec<usize> = (0..10).map(|_| rng.gen_range(0..4usize)).collect();
            let class = |p: &TuningParams| {
                classes[space.uif.iter().position(|&u| u == p.uif).unwrap() * 2 + usize::from(p.cflags.fast_math)]
            };

            let threads = batch_threads(missing.len(), workers);
            let chunks = plan_batch(&points, missing.clone(), class, threads);
            let mut planned: Vec<usize> = chunks.iter().flatten().copied().collect();
            planned.sort_unstable();
            assert_eq!(planned, missing, "seed {seed}: every miss planned exactly once");
            // The threads `evaluate_batch` runs the plan on, the caller
            // included (it spawns one fewer).
            let threads = threads.min(chunks.len());
            if missing.is_empty() {
                assert_eq!((chunks.len(), threads), (0, 0), "seed {seed}: an all-hit batch");
            } else if missing.len() < MIN_PARALLEL || workers < 2 {
                assert_eq!(threads, 1, "seed {seed}: nothing worth a spawn");
            } else {
                assert!(chunks.len() >= 2 && threads >= 2, "seed {seed}");
            }
            for chunk in &chunks {
                assert!(!chunk.is_empty() && chunk.len() <= CHUNK, "seed {seed}");
                assert!(
                    chunk.iter().all(|&i| class(&points[i]) == class(&points[chunk[0]])),
                    "seed {seed}: a chunk mixes classes"
                );
            }
            // A class's chunks, read in plan order, run in launch-shape
            // order, ties in input order.
            for c in 0..4 {
                let run: Vec<usize> =
                    chunks.iter().filter(|ch| class(&points[ch[0]]) == c).flatten().copied().collect();
                assert!(
                    run.windows(2).all(|w| (shape(&points[w[0]]), w[0]) < (shape(&points[w[1]]), w[1])),
                    "seed {seed}: class {c} out of (TC, BC, PL, SC) order"
                );
            }
            // Neighbouring chunks differ in class until one class is all
            // that is left.
            let keys: Vec<_> = chunks.iter().map(|c| class(&points[c[0]])).collect();
            for (at, pair) in keys.windows(2).enumerate() {
                assert!(
                    pair[0] != pair[1] || keys[at..].iter().all(|k| *k == pair[0]),
                    "seed {seed}: chunks {at} and {} share a class with others pending",
                    at + 1
                );
            }
        }
    }

    #[test]
    fn objective_totals_per_size_times() {
        let sizes = [32u64, 64, 128];
        let ev = evaluator(&sizes);
        let m = ev.evaluate(TuningParams::with_geometry(128, 48));
        assert!(m.feasible);
        assert_eq!(m.per_size_ms.len(), 3);
        let sum: f64 = m.per_size_ms.iter().map(|(_, t)| t).sum();
        assert!((sum - m.time_ms).abs() < 1e-12);
        assert!(m.occupancy > 0.0);
        assert!(m.regs_allocated > 0);
        assert!(m.reg_instructions > 0.0);
    }

    #[test]
    fn infeasible_variant_scores_infinity() {
        // MatVec2D's block-scaled tile at TC=1024 with PreferL1 (16 KiB
        // shared on Kepler): smem = 4 KiB fits; force bigger tiles.
        let asts_built = AtomicUsize::new(0);
        let builder = |n: u64| {
            asts_built.fetch_add(1, Ordering::Relaxed);
            let mut ast = KernelId::MatVec2D.ast(n);
            ast.shared[0].elems = 8; // 32 B/thread → 32 KiB at TC=1024
            ast
        };
        let sizes = [64u64, 128, 256];
        let ev = Evaluator::new(&builder, Gpu::K20.spec(), &sizes);
        let mut p = TuningParams::with_geometry(1024, 48);
        p.pl = oriole_codegen::PreferredL1::Kb48; // 16 KiB shared per SM
        let m = ev.evaluate(p);
        assert!(!m.feasible);
        assert_eq!(m.time_ms, f64::INFINITY);
        // A single point resolves its front-ends size by size: the first
        // infeasible size ends the work. One AST build per front-end key
        // resolved...
        assert_eq!(asts_built.load(Ordering::Relaxed), 1);
        assert_eq!(ev.front_end_lowerings(), 1);
        // ...and none on a hit, of the measurement or of the front-end.
        ev.evaluate(p);
        assert_eq!(asts_built.load(Ordering::Relaxed), 1);
        // The feasible sibling resolves the other two sizes: an AST each
        // to look the program up by, and — this builder ignores `n` — the
        // one lowering they all share.
        p.pl = oriole_codegen::PreferredL1::Kb16;
        assert!(ev.evaluate(p).feasible);
        assert_eq!(ev.unique_evaluations(), 2);
        assert_eq!(asts_built.load(Ordering::Relaxed), sizes.len());
        assert_eq!(ev.front_end_lowerings(), 1);
    }

    #[test]
    fn largest_size_objective() {
        let sizes = [32u64, 256];
        let protocol = EvalProtocol { objective: Objective::LargestSize, ..Default::default() };
        let ev = evaluator_under(&crate::ArtifactStore::new(), &sizes, protocol);
        let m = ev.evaluate(TuningParams::with_geometry(128, 48));
        assert_eq!(m.time_ms, m.per_size_ms[1].1);
    }

    #[test]
    fn protocol_change_rescopes_the_measurement_tier() {
        // Measurements taken under one objective must never be served
        // under another: each protocol is its own measurement scope.
        let sizes = [32u64, 256];
        let store = crate::ArtifactStore::new();
        let p = TuningParams::with_geometry(128, 48);
        let total = evaluator_under(&store, &sizes, EvalProtocol::default()).evaluate(p);
        let protocol = EvalProtocol { objective: Objective::LargestSize, ..Default::default() };
        let ev = evaluator_under(&store, &sizes, protocol);
        let largest = ev.evaluate(p);
        assert_eq!(ev.unique_evaluations(), 1, "not served from the other protocol's tier");
        assert_eq!(largest.time_ms, largest.per_size_ms[1].1);
        assert!(largest.time_ms < total.time_ms);
        // Per-size numbers are protocol-independent and identical.
        assert_eq!(largest.per_size_ms, total.per_size_ms);
        // The front-ends are shared: the second protocol lowered nothing,
        // and the first lowered once for both sizes — ATAX's AST is the
        // same at every `n`, and an artifact is keyed by its program.
        assert_eq!(ev.front_end_lowerings(), 1);
    }

    #[test]
    fn model_change_rescopes_context_and_measurements() {
        let sizes = [64u64];
        let store = crate::ArtifactStore::new();
        let under = |model| evaluator_under(&store, &sizes, EvalProtocol { model, ..Default::default() });
        let p = TuningParams::with_geometry(128, 48);
        let sim = under(ModelId::Simulator).evaluate(p);
        let ev = under(ModelId::Static);
        assert_eq!(ev.stats().model, ModelId::Static);
        let stat = ev.evaluate(p);
        assert!(stat.feasible);
        assert_ne!(sim.time_ms, stat.time_ms, "Eq. 6 model units vs simulator ms");
        // Back to the simulator: its tier still holds the original, and a
        // fresh store under the same backend reproduces it bit-for-bit.
        assert!(Arc::ptr_eq(&under(ModelId::Simulator).evaluate(p), &sim));
        assert_eq!(evaluator(&sizes).evaluate(p), sim);
    }

    #[test]
    fn evaluator_accepts_non_static_gpu_specs() {
        // A synthetic device built at runtime: the K20 with half the
        // register file. No static registry entry exists for it.
        let custom = GpuSpec { regfile_per_mp: 32_768, ..Gpu::K20.spec().clone() };
        let sizes = [64u64];
        let builder = |n: u64| KernelId::Atax.ast(n);
        let ev = Evaluator::new(&builder, &custom, &sizes);
        let m = ev.evaluate(TuningParams::with_geometry(128, 48));
        assert!(m.feasible);
        // The halved register file must bite somewhere the stock K20
        // doesn't: same variant, stock device, at least as much
        // occupancy.
        let stock = Evaluator::new(&builder, Gpu::K20.spec(), &sizes);
        let sm = stock.evaluate(TuningParams::with_geometry(128, 48));
        assert!(m.occupancy <= sm.occupancy);
    }

    #[test]
    fn stats_report_model_cache_activity() {
        let sizes = [64u64];
        let store = crate::ArtifactStore::new();
        let ev = evaluator_under(&store, &sizes, EvalProtocol::default());
        let space = SearchSpace::tiny();
        ev.evaluate_space(&space);
        let stats = ev.stats();
        assert_eq!(stats.unique_evaluations, space.len());
        assert!(stats.front_end_lowerings > 0);
        assert_eq!(stats.model, ModelId::Simulator);
        // Another backend starts from an empty measurement tier (every
        // point is computed again under it) over the same front ends.
        let protocol = EvalProtocol { model: ModelId::Roofline, ..Default::default() };
        let ev = evaluator_under(&store, &sizes, protocol);
        ev.evaluate_space(&space);
        let roof = ev.stats();
        assert_eq!(roof.model, ModelId::Roofline);
        assert_eq!(roof.unique_evaluations, space.len());
        assert_eq!(roof.front_end_lowerings, stats.front_end_lowerings);
    }
}
