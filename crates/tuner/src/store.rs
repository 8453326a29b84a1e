//! Process-level artifact store: cross-evaluator reuse.
//!
//! An [`Evaluator`] is an immutable view of two caching tiers — shared
//! compile front-ends and a deduplicated measurement tier. The
//! experiment drivers run *many* evaluators: every bench bin sweeps
//! kernels × GPUs, the CLI builds a fresh evaluator per `tune`
//! invocation, a daemon one per `evaluate` frame, and replay validation
//! re-evaluates logged points. [`ArtifactStore`] owns the tiers those
//! evaluators view, in two maps keyed so sharing is exactly as wide as
//! correctness allows:
//!
//! | tier | scope key | shared across |
//! |------|-----------|---------------|
//! | front-end | `kernel × GpuSpec` (entries add `AST × UIF × CFLAGS`, named by `size × UIF × CFLAGS`) | sweeps, sizes, protocols, models |
//! | measurement | `kernel × GpuSpec × sizes × `[`EvalProtocol`] (which carries the [`ModelId`]) | repeated sweeps of one experiment |
//! | **disk** (optional) | measurement scope, content-addressed file per tier | **processes** — sweeps resume across runs |
//!
//! Nothing else is kept. A kernel AST costs a tenth of a microsecond to
//! build and a `(device, timing model)` binding
//! ([`oriole_sim::ModelContext`]) owns no state, so an evaluator builds
//! both where it needs them; a map in front of either cost more than
//! what it saved.
//!
//! A scope is opened on its own cell: the first evaluator of a scope
//! creates its tier — for a measurement scope of a disk-backed store,
//! reads its file — while racing evaluators of the *same* scope wait
//! for that one open and every other scope goes on being served.
//!
//! # The disk tier
//!
//! [`ArtifactStore::with_disk`] adds a second, persistent tier under
//! the measurement tier: opening a measurement scope first loads every
//! valid record of its on-disk artifact (served as ordinary cache hits),
//! and each newly computed measurement is appended back as a
//! checksummed record, so a sweep killed mid-run resumes warm in the
//! next process. The wire format ([`crate::persist`]) versions every
//! file and seals every line with a checksum: corruption or version
//! skew is detected and treated as a **miss** — recomputed, never
//! trusted — and the embedded scope is verified on load so even a
//! filename collision cannot alias experiments. Warm-from-disk results
//! are bit-identical to cold computation (floats travel as raw IEEE-754
//! bits). A loaded record costs about three quarters of a microsecond
//! (read, unseal, parse, one allocation, one insert) against some 1.65
//! to recompute it in a batched sweep under the simulator: a store
//! directory pays when the timing backend is slower than that, or when
//! a sweep must survive its process.
//!
//! Compilation artifacts (front-ends) are model-independent and shared
//! across backends; measurements are scoped by the model id, so two
//! backends can never serve each other's cached estimates.
//!
//! Together with the per-entry keys this realizes the
//! `(kernel, gpu, size, uif, cflags)` artifact addressing: two sweeps
//! that agree on a scope reuse each other's artifacts and, when the
//! protocol matches, entire measurements. Every cached value is
//! **bit-identical** to what a fresh evaluator computes, so shared and
//! fresh runs are indistinguishable except in wall-clock.
//!
//! Devices are keyed by the full [`GpuSpec`] *contents*, not registry
//! pointers — synthetic or custom devices participate; two distinct
//! specs never share, even with the same marketing name. Kernels are
//! keyed by a caller-chosen name: use distinct names for distinct ASTs
//! (the benchmark kernel names, a file path, …) — two *different*
//! builders registered under one name would alias each other's
//! front-ends, which is the one contract the store cannot check.

use crate::eval::{EvalProtocol, Evaluator, FeTier, MeasTier, Measurement};
use crate::once_map::ShardedOnceMap;
use crate::persist::{self, DiskStats};
use oriole_arch::GpuSpec;
use oriole_codegen::TuningParams;
use oriole_ir::KernelAst;
use oriole_sim::{ModelContext, ModelId};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// Scope key of a front-end tier.
#[derive(PartialEq, Eq, Hash)]
struct FeScope {
    kernel: String,
    gpu: GpuSpec,
}

/// Scope key of a measurement tier.
#[derive(PartialEq, Eq, Hash)]
struct MeasScope {
    kernel: String,
    gpu: GpuSpec,
    sizes: Vec<u64>,
    protocol: EvalProtocol,
}

/// The attached disk tier: its directory and the shared counters every
/// tier spill reports into.
struct DiskHandle {
    dir: PathBuf,
    counters: Arc<persist::DiskCounters>,
}

#[derive(Default)]
struct StoreInner {
    front_ends: ShardedOnceMap<FeScope, Arc<FeTier>>,
    measurements: ShardedOnceMap<MeasScope, Arc<MeasTier>>,
    disk: OnceLock<DiskHandle>,
}

/// Aggregate telemetry of a store: tier counts and summed counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Distinct kernel names among the front-end tiers.
    pub kernels: usize,
    /// `(kernel, gpu)` front-end tiers.
    pub front_end_tiers: usize,
    /// Front-end lowerings run across all tiers.
    pub front_end_lowerings: usize,
    /// Measurement tiers (distinct experiment scopes).
    pub measurement_tiers: usize,
    /// Distinct points measured across all tiers.
    pub unique_evaluations: usize,
    /// Distinct `(device, model)` pairs among the measurement tiers.
    pub contexts: usize,
    /// Disk-tier counters; `None` when the store is memory-only.
    pub disk: Option<DiskStats>,
    /// What building every tier's front-end artifacts cost, phase by
    /// phase.
    pub phases: oriole_codegen::PhaseTelemetry,
}

/// Process-level artifact store; see the [module docs](self).
///
/// Cheap to clone (a shared handle); all methods take `&self` and are
/// thread-safe, so one store can back concurrent sweeps.
#[derive(Clone, Default)]
pub struct ArtifactStore {
    inner: Arc<StoreInner>,
}

impl ArtifactStore {
    /// An empty store.
    pub fn new() -> ArtifactStore {
        ArtifactStore::default()
    }

    /// A store whose measurement tiers are backed by the persistent
    /// disk tier under `dir` (created if absent): opening a scope loads
    /// its on-disk artifact, and new computations are spilled back, so
    /// sweeps resume bit-identically across processes. See the
    /// [module docs](self) and [`crate::persist`].
    pub fn with_disk(dir: impl AsRef<Path>) -> std::io::Result<ArtifactStore> {
        let dir = dir.as_ref().to_path_buf();
        // Fail loudly and precisely up front instead of degrading to a
        // silently memory-only tier (or a confusing create_dir_all
        // error): a path that exists but is not a directory can never
        // become a store, and a directory we cannot enumerate could
        // never serve its artifacts.
        if dir.exists() && !dir.is_dir() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("`{}` exists and is not a directory", dir.display()),
            ));
        }
        std::fs::create_dir_all(&dir)?;
        std::fs::read_dir(&dir).map_err(|e| {
            std::io::Error::new(e.kind(), format!("store dir `{}` is not readable: {e}", dir.display()))
        })?;
        let store = ArtifactStore::new();
        let handle = DiskHandle { dir, counters: Arc::new(persist::DiskCounters::default()) };
        let _ = store.inner.disk.set(handle);
        Ok(store)
    }

    /// A context for a `(device, timing model)` pair. The store keeps
    /// none: this is [`ModelContext::for_model`].
    #[deprecated(note = "benchmark/API.md compatibility; removed by the benchmark re-base (ROADMAP item 1(i))")]
    pub fn context_for(&self, gpu: &GpuSpec, model: ModelId) -> Arc<ModelContext> {
        Arc::new(ModelContext::for_model(gpu, model))
    }

    fn fe_tier(&self, kernel: &str, gpu: &GpuSpec) -> Arc<FeTier> {
        let scope = FeScope { kernel: kernel.to_string(), gpu: gpu.clone() };
        self.inner.front_ends.get_or_init(scope, Arc::default)
    }

    /// The measurement tier of a scope, opened — against the disk, when
    /// one is attached — exactly once per process, by whoever asks
    /// first. Only callers of the same scope wait for the file read.
    fn meas_tier(
        &self,
        kernel: &str,
        gpu: &GpuSpec,
        sizes: &[u64],
        protocol: EvalProtocol,
    ) -> Arc<MeasTier> {
        let scope =
            MeasScope { kernel: kernel.to_string(), gpu: gpu.clone(), sizes: sizes.to_vec(), protocol };
        self.inner.measurements.get_or_init(scope, || {
            Arc::new(match self.inner.disk.get() {
                None => MeasTier::new(),
                Some(disk) => {
                    let text = persist::scope_text(kernel, gpu, sizes, &protocol);
                    persist::open_tier(&disk.dir, &text, &disk.counters)
                }
            })
        })
    }

    /// Every point of `points` as the scope's measurement tier already
    /// holds it — or `None` when the scope is unopened or mid-open, or
    /// any point is absent or still being computed. A pure read of
    /// memory: it never opens a tier (a disk-backed store reads a file
    /// there), computes or waits, so a daemon's reactor may call it.
    pub fn peek_batch(
        &self,
        kernel: &str,
        gpu: &GpuSpec,
        sizes: &[u64],
        protocol: EvalProtocol,
        points: &[TuningParams],
    ) -> Option<Vec<Arc<Measurement>>> {
        let scope =
            MeasScope { kernel: kernel.to_string(), gpu: gpu.clone(), sizes: sizes.to_vec(), protocol };
        let tier = self.inner.measurements.get(&scope)?;
        points.iter().map(|p| tier.map.get(p)).collect()
    }

    /// An evaluator viewing this store's tiers, with the paper's
    /// default [`EvalProtocol`]. Evaluators that agree on
    /// `(kernel, gpu)` share front-ends; those also agreeing on
    /// `(sizes, protocol)` share whole measurements.
    pub fn evaluator<'a>(
        &self,
        kernel: &str,
        ast_builder: &'a (dyn Fn(u64) -> KernelAst + Sync),
        gpu: &'a GpuSpec,
        sizes: &'a [u64],
    ) -> Evaluator<'a> {
        self.evaluator_with(kernel, ast_builder, gpu, sizes, EvalProtocol::default())
    }

    /// [`ArtifactStore::evaluator`] with an explicit protocol.
    pub fn evaluator_with<'a>(
        &self,
        kernel: &str,
        ast_builder: &'a (dyn Fn(u64) -> KernelAst + Sync),
        gpu: &'a GpuSpec,
        sizes: &'a [u64],
        protocol: EvalProtocol,
    ) -> Evaluator<'a> {
        Evaluator::from_tiers(
            ast_builder,
            gpu,
            sizes,
            protocol,
            self.fe_tier(kernel, gpu),
            self.meas_tier(kernel, gpu, sizes, protocol),
        )
    }

    /// Aggregate telemetry across every opened tier.
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats {
            disk: self.inner.disk.get().map(|d| d.counters.snapshot()),
            ..StoreStats::default()
        };
        let mut kernels = HashSet::new();
        self.inner.front_ends.for_each(|scope, tier| {
            kernels.insert(scope.kernel.clone());
            stats.front_end_tiers += 1;
            stats.front_end_lowerings += tier.lowerings();
            stats.phases = [stats.phases, tier.phases()].into_iter().sum();
        });
        let mut contexts = HashSet::new();
        self.inner.measurements.for_each(|scope, tier| {
            contexts.insert((scope.gpu.clone(), scope.protocol.model));
            stats.measurement_tiers += 1;
            stats.unique_evaluations += tier.unique_evaluations();
        });
        stats.kernels = kernels.len();
        stats.contexts = contexts.len();
        stats
    }
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactStore").field("stats", &self.stats()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Objective;
    use crate::space::SearchSpace;
    use oriole_arch::Gpu;
    use oriole_kernels::KernelId;

    fn builder(n: u64) -> KernelAst {
        KernelId::Atax.ast(n)
    }

    #[test]
    fn shared_evaluators_reuse_measurements() {
        let store = ArtifactStore::new();
        let sizes = [64u64];
        let space = SearchSpace::tiny();
        let gpu = Gpu::K20.spec();

        let first = store.evaluator("atax", &builder, gpu, &sizes);
        let cold = first.evaluate_space(&space);
        let cold_stats = store.stats();
        assert_eq!(cold_stats.unique_evaluations, space.len());

        // A second evaluator over the same scope: pure cache hits.
        let second = store.evaluator("atax", &builder, gpu, &sizes);
        let warm = second.evaluate_space(&space);
        assert_eq!(warm, cold);
        assert_eq!(store.stats().unique_evaluations, space.len());
        assert_eq!(
            store.stats().front_end_lowerings,
            cold_stats.front_end_lowerings,
            "no new lowerings on the warm sweep"
        );
    }

    #[test]
    fn store_matches_fresh_evaluators_bit_for_bit() {
        let store = ArtifactStore::new();
        let sizes = [64u64, 128];
        let space = SearchSpace::tiny();
        let gpu = Gpu::K20.spec();

        let shared = store.evaluator("atax", &builder, gpu, &sizes);
        let fresh = Evaluator::new(&builder, gpu, &sizes);
        for p in space.iter() {
            assert_eq!(shared.evaluate(p), fresh.evaluate(p), "{p}");
        }
    }

    #[test]
    fn different_scopes_do_not_share_measurements() {
        let store = ArtifactStore::new();
        let sizes_a = [64u64];
        let sizes_b = [64u64, 128];
        let gpu = Gpu::K20.spec();
        let p = TuningParams::with_geometry(128, 48);

        let a = store.evaluator("atax", &builder, gpu, &sizes_a);
        let b = store.evaluator("atax", &builder, gpu, &sizes_b);
        let ma = a.evaluate(p);
        let mb = b.evaluate(p);
        assert_ne!(ma.per_size_ms.len(), mb.per_size_ms.len());
        // But the common size produced the identical number (shared
        // front-end and model context under distinct measurement tiers).
        assert_eq!(ma.per_size_ms[0], mb.per_size_ms[0]);
        assert_eq!(store.stats().measurement_tiers, 2);
        assert_eq!(store.stats().front_end_tiers, 1);
    }

    #[test]
    fn protocol_scopes_measurements() {
        let store = ArtifactStore::new();
        let sizes = [32u64, 128];
        let gpu = Gpu::K20.spec();
        let p = TuningParams::with_geometry(128, 48);

        let total = store.evaluator("atax", &builder, gpu, &sizes);
        let largest = store.evaluator_with(
            "atax",
            &builder,
            gpu,
            &sizes,
            EvalProtocol { objective: Objective::LargestSize, ..EvalProtocol::default() },
        );
        assert!(largest.evaluate(p).time_ms < total.evaluate(p).time_ms);
        assert_eq!(store.stats().measurement_tiers, 2);
    }

    #[test]
    fn contexts_are_shared_per_device_and_keyed_by_content() {
        let store = ArtifactStore::new();
        let sizes = [64u64];
        store.evaluator("atax", &builder, Gpu::K20.spec(), &sizes);
        store.evaluator("bicg", &builder, Gpu::K20.spec(), &sizes);
        assert_eq!(store.stats().contexts, 1, "one device under one model");
        let custom = GpuSpec { regfile_per_mp: 32_768, ..Gpu::K20.spec().clone() };
        store.evaluator("atax", &builder, &custom, &sizes);
        let stats = store.stats();
        assert_eq!(stats.contexts, 2, "distinct spec contents count apart");
        assert_eq!((stats.kernels, stats.front_end_tiers, stats.measurement_tiers), (2, 3, 3));
    }

    #[test]
    fn contexts_are_keyed_by_model_too() {
        let store = ArtifactStore::new();
        let gpu = Gpu::K20.spec();
        let sizes = [64u64];
        let under = |model| {
            let protocol = EvalProtocol { model, ..EvalProtocol::default() };
            store.evaluator_with("atax", &builder, gpu, &sizes, protocol).stats().model
        };
        assert_eq!((under(ModelId::Simulator), under(ModelId::Static)), (ModelId::Simulator, ModelId::Static));
        assert_eq!(store.stats().contexts, 2, "one device, two backends");
    }

    #[test]
    fn racing_evaluators_open_a_disk_scope_once_and_stall_no_other_scope() {
        let dir = std::env::temp_dir()
            .join(format!("oriole-store-unit-{}-race", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (sizes, other_sizes) = ([64u64], [128u64]);
        let space = SearchSpace::tiny();
        let gpu = Gpu::K20.spec();
        let written = ArtifactStore::with_disk(&dir).expect("store dir");
        let cold = written.evaluator("atax", &builder, gpu, &sizes).evaluate_space(&space);
        drop(written);

        // Eight evaluators of the written scope and one of a scope with
        // no file yet, released together on a cold store.
        let store = ArtifactStore::with_disk(&dir).expect("store dir");
        let start = std::sync::Barrier::new(9);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    start.wait();
                    let ev = store.evaluator("atax", &builder, gpu, &sizes);
                    assert_eq!(ev.evaluate_space(&space), cold);
                    assert_eq!(ev.unique_evaluations(), 0, "every racer views the one loaded tier");
                });
            }
            scope.spawn(|| {
                start.wait();
                store.evaluator("atax", &builder, gpu, &other_sizes);
            });
        });
        let stats = store.stats();
        let disk = stats.disk.expect("disk attached");
        assert_eq!((disk.tier_hits, disk.tier_misses), (1, 1), "one open per scope");
        assert_eq!(disk.measurements_loaded as usize, space.len());
        assert_eq!((stats.measurement_tiers, stats.front_end_tiers), (2, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_tier_resumes_sweeps_across_stores() {
        let dir = std::env::temp_dir()
            .join(format!("oriole-store-unit-{}-resume", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sizes = [64u64];
        let space = SearchSpace::tiny();
        let gpu = Gpu::K20.spec();

        let cold_store = ArtifactStore::with_disk(&dir).expect("store dir");
        let cold = cold_store.evaluator("atax", &builder, gpu, &sizes).evaluate_space(&space);
        let cs = cold_store.stats();
        assert_eq!(cs.unique_evaluations, space.len());
        let cd = cs.disk.expect("disk attached");
        assert_eq!(cd.measurements_written as usize, space.len());
        assert_eq!(cd.measurements_loaded, 0);
        drop(cold_store);

        // A second store (standing in for a second process): the whole
        // sweep is served from disk, bit-identically, computing nothing.
        let warm_store = ArtifactStore::with_disk(&dir).expect("store dir");
        let warm = warm_store.evaluator("atax", &builder, gpu, &sizes).evaluate_space(&space);
        assert_eq!(warm, cold);
        let ws = warm_store.stats();
        assert_eq!(ws.unique_evaluations, 0, "warm-from-disk sweep computed nothing");
        let wd = ws.disk.expect("disk attached");
        assert_eq!(wd.measurements_loaded as usize, space.len());
        assert_eq!((wd.tier_hits, wd.rejected), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn peek_batch_reads_what_is_held_and_opens_nothing() {
        let dir = std::env::temp_dir()
            .join(format!("oriole-store-unit-{}-peek", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sizes = [64u64];
        let points: Vec<TuningParams> = SearchSpace::tiny().iter().collect();
        let gpu = Gpu::K20.spec();
        let protocol = EvalProtocol::default();
        let peek = |store: &ArtifactStore, points: &[TuningParams]| {
            store.peek_batch("atax", gpu, &sizes, protocol, points)
        };

        let store = ArtifactStore::with_disk(&dir).expect("store dir");
        assert_eq!(peek(&store, &points), None, "an unopened scope");
        assert_eq!(store.stats().measurement_tiers, 0, "and peeking did not open it");
        let ev = store.evaluator("atax", &builder, gpu, &sizes);
        assert_eq!(peek(&store, &[]), Some(Vec::new()), "an open scope holds the empty batch");
        let half = ev.evaluate_batch(&points[..points.len() / 2]);
        assert_eq!(peek(&store, &points[..half.len()]), Some(half), "held points, in order");
        assert_eq!(peek(&store, &points), None, "one absent point declines the batch");
        let all = ev.evaluate_batch(&points);
        assert_eq!(peek(&store, &points), Some(all));
        assert_eq!(store.peek_batch("atax", gpu, &[128], protocol, &points), None, "another scope");
        drop((ev, store));

        // A populated directory under a fresh store: the tier file is
        // read by the first evaluator, never by a peek.
        let store = ArtifactStore::with_disk(&dir).expect("store dir");
        assert_eq!(peek(&store, &points), None);
        let disk = store.stats().disk.expect("disk attached");
        assert_eq!((disk.tier_hits, disk.tier_misses, disk.measurements_loaded), (0, 0, 0));
        store.evaluator("atax", &builder, gpu, &sizes);
        assert_eq!(peek(&store, &points).map(|ms| ms.len()), Some(points.len()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn with_disk_rejects_files_and_unreadable_paths() {
        // An existing regular file can never be a store directory: a
        // clear error, not a panic and not a silent memory-only store.
        let file = std::env::temp_dir()
            .join(format!("oriole-store-unit-{}-notadir", std::process::id()));
        std::fs::write(&file, "plain file").unwrap();
        let err = ArtifactStore::with_disk(&file).expect_err("file is not a dir");
        assert!(err.to_string().contains("not a directory"), "{err}");
        // The file itself is untouched.
        assert_eq!(std::fs::read_to_string(&file).unwrap(), "plain file");

        // A path nested under a regular file is unusable too.
        let nested = file.join("sub");
        assert!(ArtifactStore::with_disk(&nested).is_err());
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn memory_only_store_reports_no_disk_stats() {
        let store = ArtifactStore::new();
        assert_eq!(store.stats().disk, None);
    }

    #[test]
    fn models_never_share_measurements_but_share_compile_artifacts() {
        let store = ArtifactStore::new();
        let sizes = [64u64];
        let gpu = Gpu::K20.spec();
        let p = TuningParams::with_geometry(128, 48);

        let sim = store.evaluator("atax", &builder, gpu, &sizes);
        let stat = store.evaluator_with(
            "atax",
            &builder,
            gpu,
            &sizes,
            EvalProtocol { model: ModelId::Static, ..EvalProtocol::default() },
        );
        let a = sim.evaluate(p);
        let b = stat.evaluate(p);
        assert!(a.feasible && b.feasible);
        assert_ne!(a.time_ms, b.time_ms, "Eq. 6 model units vs simulator ms");

        let stats = store.stats();
        // Distinct measurement tiers and contexts per backend; each
        // backend computed its own point (a cross-model hit would leave
        // one evaluation, not two).
        assert_eq!(stats.measurement_tiers, 2);
        assert_eq!(stats.unique_evaluations, 2);
        assert_eq!(stats.contexts, 2);
        // Compilation artifacts are model-independent and shared.
        assert_eq!(stats.front_end_tiers, 1);
        assert_eq!(stats.front_end_lowerings, 1);
        let p = stats.phases;
        assert_eq!((p.unroll_calls, p.lower_calls, p.regalloc_calls), (1, 1, 1));
    }
}
