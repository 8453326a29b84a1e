//! Set-up and the six workloads.
//!
//! Set-up is the same for every workload: generate the inputs from the
//! seed, evaluate the reference (one local sweep of every scope, which
//! is also the warm store the read-side workloads serve from), run the
//! static suggestion pass once against it. That is what lets every
//! workload print `suggest_quality` and `space_kept_pct`, and what every
//! answer of a timed unit is compared with.
//!
//! A *unit* is the repeated, timed piece of work. Its clock covers
//! calls into the product only; answers are collected while it runs
//! and verified after it stops.

use crate::gen::{Inputs, Scope};
use crate::product::{
    analyze_in, front_end, AnnealingSearch, ArtifactStore, Client, EvalProtocol, EvalScope,
    Evaluator, FleetEvaluator, FleetSpec, GeneticSearch, Measurement, ModelId, NelderMeadSearch,
    Oracle, PruneLevel, RandomSearch, RemoteEvaluator, RetryPolicy, SearchSpace, Searcher, Server,
    StaticSearch, TuningParams,
};
use crate::stats::geomean;
use crate::trace::Tracer;
use crate::verify::{bit_hash, canonical_digest, Golden, Tally};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Queries each stochastic searcher may issue per run.
pub const SEARCH_BUDGET: usize = 500;
/// Blocking single-point round trips per `remote_warm` unit.
pub const RPCS_PER_UNIT: usize = 250;
/// Times `disk_roundtrip` reopens the directory it wrote.
pub const DISK_REOPENS: usize = 4;
/// Points per fleet chunk (the fleet's own default steal granule).
pub const FLEET_CHUNK: usize = 64;

/// Where a run may write: `benchmark/out/`, inside the checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// This process's scratch directory under [`out_dir`].
pub fn work_dir() -> PathBuf {
    out_dir().join(format!("work-{}", std::process::id()))
}

// ---------------------------------------------------------------------------
// Daemons
// ---------------------------------------------------------------------------

/// One in-process `oriole serve` on an ephemeral loopback port.
pub struct Daemon {
    pub addr: String,
    handle: std::thread::JoinHandle<()>,
}

impl Daemon {
    pub fn start(store: ArtifactStore) -> Result<Daemon, String> {
        let server = Server::bind("127.0.0.1:0", store).map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?
            .to_string();
        let handle = std::thread::spawn(move || {
            server.run().expect("daemon serves until shut down");
        });
        Ok(Daemon { addr, handle })
    }

    /// Asks the daemon to drain and waits until its thread has ended.
    pub fn stop(self) {
        match Client::connect(&self.addr).and_then(|c| c.shutdown()) {
            Ok(()) => self.handle.join().expect("daemon thread"),
            // Nothing is listening any more: the thread already ended
            // (joining reports how) or will never hear us.
            Err(e) => eprintln!("warning: daemon {} did not take shutdown: {e}", self.addr),
        }
    }
}

// ---------------------------------------------------------------------------
// Oracle adapter
// ---------------------------------------------------------------------------

/// The benchmark's own [`Oracle`]: forwards to a local evaluator,
/// keeps every answer (searchers only see the objective value, the
/// check wants all the bits) and, when asked, the time spent inside
/// the evaluator — a search's wall time minus that is the searcher's
/// own overhead.
pub struct Recorder<'e, 'a> {
    evaluator: &'e Evaluator<'a>,
    timed: bool,
    oracle_ns: AtomicU64,
    log: Mutex<Vec<(TuningParams, Arc<Measurement>)>>,
}

impl<'e, 'a> Recorder<'e, 'a> {
    pub fn new(evaluator: &'e Evaluator<'a>, timed: bool) -> Self {
        Recorder {
            evaluator,
            timed,
            oracle_ns: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
        }
    }

    pub fn oracle_ns(&self) -> u64 {
        self.oracle_ns.load(Ordering::Relaxed)
    }

    /// `(requested point, answer)` in query order.
    pub fn into_log(self) -> Vec<(TuningParams, Arc<Measurement>)> {
        self.log.into_inner().expect("recorder log lock")
    }

    fn clocked<T>(&self, f: impl FnOnce() -> T) -> T {
        if !self.timed {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.oracle_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl Oracle for Recorder<'_, '_> {
    fn eval(&self, params: TuningParams) -> f64 {
        let m = self.clocked(|| self.evaluator.evaluate(params));
        let value = m.time_ms;
        self.log
            .lock()
            .expect("recorder log lock")
            .push((params, m));
        value
    }

    fn eval_many(&self, points: &[TuningParams]) -> Vec<f64> {
        let answers = self.clocked(|| self.evaluator.evaluate_batch(points));
        let values = answers.iter().map(|m| m.time_ms).collect();
        self.log
            .lock()
            .expect("recorder log lock")
            .extend(points.iter().copied().zip(answers));
        values
    }
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// The local evaluation of one scope that answers are compared with.
pub struct ScopeReference {
    /// In the space's flat-index order.
    pub measurements: Vec<Arc<Measurement>>,
    pub hashes: Vec<u64>,
    /// Exhaustive best objective under the simulator.
    pub best_ms: f64,
}

/// What the static suggestion pass produced for one scope.
pub struct StaticScope {
    /// Static-model answers in the order the search asked for them.
    pub answers: Vec<Arc<Measurement>>,
    /// The point the static+rules search settled on.
    pub pick: TuningParams,
    /// Points the rule-based pruning left to search.
    pub kept: usize,
}

/// Everything a workload needs, built from the seed alone.
pub struct Prepared {
    pub inputs: Inputs,
    pub space: SearchSpace,
    /// The space in flat-index order.
    pub points: Vec<TuningParams>,
    pub index_of: HashMap<TuningParams, u32>,
    /// Per scope position: the space in seed-shuffled request order.
    pub shuffled: Vec<Vec<TuningParams>>,
    /// Per scope position: the scope as the service names it.
    pub eval_scopes: Vec<EvalScope>,
    /// Per scope position.
    pub reference: Vec<ScopeReference>,
    /// The store the reference was evaluated in: warm for every scope.
    pub store: ArtifactStore,
    /// Per scope position.
    pub statics: Vec<StaticScope>,
    pub suggest_quality: f64,
    pub space_kept_pct: f64,
}

impl Prepared {
    /// Runs the whole set-up for `seed`.
    pub fn build(
        seed: u64,
        space: SearchSpace,
        quick: bool,
        tr: &Tracer,
    ) -> Result<Prepared, String> {
        let inputs = Inputs::generate(seed, space.len(), quick);
        let points: Vec<TuningParams> = space.iter().collect();
        let index_of: HashMap<TuningParams, u32> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (*p, i as u32))
            .collect();
        let shuffled = inputs
            .point_order
            .iter()
            .map(|order| order.iter().map(|&i| points[i as usize]).collect())
            .collect();
        let eval_scopes = inputs
            .scopes
            .iter()
            .map(|s| EvalScope {
                kernel: s.kernel.name().to_string(),
                gpu: s.gpu.spec().clone(),
                sizes: s.sizes.to_vec(),
                protocol: EvalProtocol::default(),
            })
            .collect();

        let store = ArtifactStore::new();
        let reference: Vec<ScopeReference> = inputs
            .scopes
            .iter()
            .map(|scope| {
                let measurements = tr.in_span("setup.reference_sweep", || {
                    with_evaluator(&store, scope, EvalProtocol::default(), |ev| {
                        ev.evaluate_space(&space)
                    })
                });
                let hashes = measurements.iter().map(|m| bit_hash(m)).collect();
                let best_ms = measurements
                    .iter()
                    .map(|m| m.time_ms)
                    .fold(f64::INFINITY, f64::min);
                ScopeReference {
                    measurements,
                    hashes,
                    best_ms,
                }
            })
            .collect();

        let statics = tr.in_span("setup.static_pass", || static_pass(&inputs, &space, tr));
        // Canonical scope order: a geomean's last bits depend on the
        // order of its sum, and these two are pinned exactly.
        let mut canonical: Vec<usize> = (0..inputs.scopes.len()).collect();
        canonical.sort_by_key(|&pos| inputs.scopes[pos].canon);
        let quality: Vec<f64> = canonical
            .iter()
            .map(|&pos| {
                let picked = index_of[&statics[pos].pick] as usize;
                reference[pos].best_ms / reference[pos].measurements[picked].time_ms
            })
            .collect();
        let kept: Vec<f64> = canonical
            .iter()
            .map(|&pos| statics[pos].kept as f64 / space.len() as f64 * 100.0)
            .collect();

        Ok(Prepared {
            inputs,
            space,
            points,
            index_of,
            shuffled,
            eval_scopes,
            reference,
            store,
            statics,
            suggest_quality: geomean(&quality),
            space_kept_pct: geomean(&kept),
        })
    }

    /// The reference bit hash of `point` in the scope at `pos`.
    fn want(&self, pos: usize, point: &TuningParams) -> u64 {
        self.reference[pos].hashes[self.index_of[point] as usize]
    }

    /// The values `golden/<workload>.digest` pins, as observed now.
    pub fn observed_golden(&self, workload: &str, points_per_unit: u64) -> Golden {
        // Canonical scope order makes the digest independent of the seed.
        let mut positions: Vec<usize> = match workload {
            "disk_roundtrip" => self.inputs.disk_scopes(),
            _ => (0..self.inputs.scopes.len()).collect(),
        };
        positions.sort_by_key(|&p| self.inputs.scopes[p].canon);
        let reference_digest = if workload == "static_suggest" {
            canonical_digest(
                positions
                    .iter()
                    .flat_map(|&p| self.statics[p].answers.iter().map(|m| &**m)),
            )
        } else {
            canonical_digest(
                positions
                    .iter()
                    .flat_map(|&p| self.reference[p].measurements.iter().map(|m| &**m)),
            )
        };
        Golden {
            points_per_unit,
            reference_digest,
            suggest_quality: self.suggest_quality,
            space_kept_pct: self.space_kept_pct,
        }
    }
}

/// Runs `f` with an evaluator of `scope` borrowed from `store`.
pub fn with_evaluator<T>(
    store: &ArtifactStore,
    scope: &Scope,
    protocol: EvalProtocol,
    f: impl FnOnce(&Evaluator<'_>) -> T,
) -> T {
    let kernel = scope.kernel;
    let builder = move |n: u64| kernel.ast(n);
    let evaluator = store.evaluator_with(
        kernel.name(),
        &builder,
        scope.gpu.spec(),
        &scope.sizes,
        protocol,
    );
    f(&evaluator)
}

/// The paper's headline path over every generated scope: build the ten
/// front-ends (UIF x CFLAGS) at the middle size and analyse each
/// statically, then let the static+rules search rank the pruned space
/// under the Eq. 6 model. The simulator never runs.
pub fn static_pass(inputs: &Inputs, space: &SearchSpace, tr: &Tracer) -> Vec<StaticScope> {
    let store = ArtifactStore::new();
    let protocol = EvalProtocol {
        model: ModelId::Static,
        ..EvalProtocol::default()
    };
    inputs
        .scopes
        .iter()
        .map(|scope| {
            let gpu = scope.gpu.spec();
            let n = scope.mid_size();
            let context = store.context_for(gpu, ModelId::Static);
            let ast = tr.in_span("kernels.ast", || scope.kernel.ast(n));
            let mut steering = None;
            for &uif in &space.uif {
                for &cflags in &space.cflags {
                    let fe = tr
                        .in_span("codegen.front_end", || front_end(&ast, gpu, uif, cflags))
                        .expect("the paper space only holds valid unroll factors");
                    let probe = TuningParams {
                        uif,
                        cflags,
                        ..TuningParams::with_geometry(128, 48)
                    };
                    let kernel = tr
                        .in_span("codegen.specialize", || fe.specialize(probe))
                        .expect("128 threads x 48 blocks launches on every paper GPU");
                    let analysis = tr.in_span("core.analyze_in", || {
                        analyze_in(context.occupancy_table(), &kernel, n)
                    });
                    // The first key (UIF 1, default flags) steers the
                    // search; the rest are analysed as a tuner listing
                    // every variant's report would.
                    steering.get_or_insert(std::hint::black_box(analysis));
                }
            }
            let analysis = steering.expect("the space has at least one front-end key");
            let mut search = StaticSearch::new(analysis, PruneLevel::RuleBased);
            with_evaluator(&store, scope, protocol, |ev| {
                let recorder = Recorder::new(ev, false);
                let result = tr.in_span("tuner.static_search", || {
                    search.search(space, &recorder, usize::MAX)
                });
                let kept = search.report.as_ref().map_or(0, |r| r.pruned_space);
                let answers = recorder.into_log().into_iter().map(|(_, m)| m).collect();
                StaticScope {
                    answers,
                    pick: result.best,
                    kept,
                }
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Single-point round trips
// ---------------------------------------------------------------------------

/// Timed blocking single-point `evaluate` calls and their answers.
pub struct RoundTrips {
    pub us: Vec<f64>,
    answers: Vec<(usize, u32, Option<Measurement>)>,
}

impl RoundTrips {
    pub fn verify(&self, pre: &Prepared, tally: &mut Tally) {
        for (pos, index, answer) in &self.answers {
            match answer {
                Some(m) => tally.answer(pre.reference[*pos].hashes[*index as usize], m),
                None => tally.unanswered(1),
            }
        }
    }
}

/// One connection, one request in flight: each `(scope position, flat
/// index)` sample is a blocking `Client::evaluate` of that point.
pub fn round_trips(
    addr: &str,
    pre: &Prepared,
    samples: impl Iterator<Item = (usize, u32)>,
) -> RoundTrips {
    let client = Client::connect(addr);
    let mut out = RoundTrips {
        us: Vec::new(),
        answers: Vec::new(),
    };
    for (pos, index) in samples {
        let point = [pre.points[index as usize]];
        let start = Instant::now();
        let answer = client
            .as_ref()
            .ok()
            .and_then(|c| c.evaluate(&pre.eval_scopes[pos], &point).ok())
            .and_then(|(_, mut ms)| ms.pop());
        out.us.push(start.elapsed().as_secs_f64() * 1e6);
        out.answers.push((pos, index, answer));
    }
    out
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// What one timed unit reports.
pub struct UnitOutcome {
    /// Time inside the product.
    pub wall: Duration,
    pub tally: Tally,
    /// Single-point round trips made inside the unit (`remote_warm`).
    pub rpc_us: Vec<f64>,
}

pub trait Workload {
    /// Runs one unit and verifies its answers.
    fn unit(&mut self, pre: &Prepared, tr: &Tracer) -> UnitOutcome;

    /// Client threads or connections issuing load at once.
    fn generator_threads(&self) -> u32 {
        1
    }

    /// Stops whatever the workload started.
    fn finish(self: Box<Self>) {}
}

/// Builds the named workload over `pre` (starting its daemons).
pub fn build(name: &str, pre: &Prepared) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "static_suggest" => Box::new(StaticSuggest),
        "cold_sweep" => Box::new(ColdSweep),
        "warm_search" => Box::new(WarmSearch),
        "disk_roundtrip" => Box::new(DiskRoundtrip {
            dir: work_dir().join("disk"),
            units: 0,
        }),
        // Clones of one store share its tiers: every daemon is warm.
        "remote_warm" => Box::new(RemoteWarm {
            daemon: Daemon::start(pre.store.clone())?,
            units: 0,
        }),
        "fleet_warm" => {
            let daemons = [
                Daemon::start(pre.store.clone())?,
                Daemon::start(pre.store.clone())?,
            ];
            let spec = FleetSpec::from_addrs(daemons.iter().map(|d| d.addr.clone()).collect())?;
            Box::new(FleetWarm { daemons, spec })
        }
        other => return Err(format!("unknown workload `{other}`")),
    })
}

struct StaticSuggest;

impl Workload for StaticSuggest {
    fn unit(&mut self, pre: &Prepared, tr: &Tracer) -> UnitOutcome {
        let start = Instant::now();
        let got = static_pass(&pre.inputs, &pre.space, tr);
        let wall = start.elapsed();

        let mut tally = Tally::new();
        let mut same_outcome = true;
        for (got, want) in got.iter().zip(&pre.statics) {
            same_outcome &= got.pick == want.pick
                && got.kept == want.kept
                && got.answers.len() == want.answers.len();
            for (g, w) in got.answers.iter().zip(&want.answers) {
                tally.answer(bit_hash(w), g);
            }
        }
        if !same_outcome {
            tally.fail_unit();
        }
        UnitOutcome {
            wall,
            tally,
            rpc_us: Vec::new(),
        }
    }
}

struct ColdSweep;

impl Workload for ColdSweep {
    fn unit(&mut self, pre: &Prepared, tr: &Tracer) -> UnitOutcome {
        let store = ArtifactStore::new();
        let mut computed = 0;
        let start = Instant::now();
        let answers: Vec<Vec<Arc<Measurement>>> = pre
            .inputs
            .scopes
            .iter()
            .map(|scope| {
                with_evaluator(&store, scope, EvalProtocol::default(), |ev| {
                    let ms = tr.in_span("tuner.evaluate_space", || ev.evaluate_space(&pre.space));
                    computed += ev.unique_evaluations();
                    ms
                })
            })
            .collect();
        let wall = start.elapsed();

        let mut tally = Tally::new();
        for (ms, reference) in answers.iter().zip(&pre.reference) {
            for (m, &want) in ms.iter().zip(&reference.hashes) {
                tally.answer(want, m);
            }
        }
        // Every point is a miss, computed once: in-flight dedup holds.
        if computed as u64 != tally.attempted {
            tally.fail_unit();
        }
        UnitOutcome {
            wall,
            tally,
            rpc_us: Vec::new(),
        }
    }
}

struct WarmSearch;

impl Workload for WarmSearch {
    fn unit(&mut self, pre: &Prepared, tr: &Tracer) -> UnitOutcome {
        type Queries = Vec<(TuningParams, Arc<Measurement>)>;
        let mut recomputed = 0;
        let start = Instant::now();
        let answers: Vec<(Queries, Vec<Arc<Measurement>>)> = pre
            .inputs
            .scopes
            .iter()
            .zip(&pre.inputs.search_seeds)
            .map(|(scope, seeds)| {
                with_evaluator(&pre.store, scope, EvalProtocol::default(), |ev| {
                    let before = ev.unique_evaluations();
                    let recorder = Recorder::new(ev, tr.enabled());
                    for &seed in seeds {
                        run_searchers(seed, &pre.space, &recorder, tr);
                    }
                    let resweep =
                        tr.in_span("tuner.evaluate_space", || ev.evaluate_space(&pre.space));
                    recomputed += ev.unique_evaluations() - before;
                    (recorder.into_log(), resweep)
                })
            })
            .collect();
        let wall = start.elapsed();

        let mut tally = Tally::new();
        for (pos, (queries, resweep)) in answers.iter().enumerate() {
            for (asked, m) in queries {
                tally.answer(pre.want(pos, asked), m);
            }
            for (m, &want) in resweep.iter().zip(&pre.reference[pos].hashes) {
                tally.answer(want, m);
            }
        }
        // The store is warm: a recomputation means a lookup missed.
        if recomputed != 0 {
            tally.fail_unit();
        }
        UnitOutcome {
            wall,
            tally,
            rpc_us: Vec::new(),
        }
    }
}

/// One run of each of Orio's four stochastic strategies from `seed`.
/// Under a tracer, each search span gets its oracle time as a child,
/// so the span's self time is the searcher's own overhead.
pub fn run_searchers(seed: u64, space: &SearchSpace, recorder: &Recorder<'_, '_>, tr: &Tracer) {
    let mut searchers: [(&'static str, Box<dyn Searcher>); 4] = [
        ("tuner.search.random", Box::new(RandomSearch { seed })),
        (
            "tuner.search.anneal",
            Box::new(AnnealingSearch {
                seed,
                ..AnnealingSearch::default()
            }),
        ),
        (
            "tuner.search.genetic",
            Box::new(GeneticSearch {
                seed,
                ..GeneticSearch::default()
            }),
        ),
        (
            "tuner.search.nelder_mead",
            Box::new(NelderMeadSearch {
                seed,
                ..NelderMeadSearch::default()
            }),
        ),
    ];
    for (name, searcher) in &mut searchers {
        tr.in_span(name, || {
            let before = recorder.oracle_ns();
            std::hint::black_box(searcher.search(space, recorder, SEARCH_BUDGET));
            tr.aggregate("tuner.oracle", recorder.oracle_ns() - before);
        });
    }
}

struct DiskRoundtrip {
    dir: PathBuf,
    units: u32,
}

impl DiskRoundtrip {
    fn sweep(
        dir: &Path,
        pre: &Prepared,
        positions: &[usize],
        tr: &Tracer,
        span: &'static str,
    ) -> Option<(Vec<Vec<Arc<Measurement>>>, usize)> {
        let store = tr
            .in_span("tuner.store_open", || ArtifactStore::with_disk(dir))
            .ok()?;
        let mut computed = 0;
        let answers = positions
            .iter()
            .map(|&pos| {
                with_evaluator(
                    &store,
                    &pre.inputs.scopes[pos],
                    EvalProtocol::default(),
                    |ev| {
                        let ms = tr.in_span(span, || ev.evaluate_space(&pre.space));
                        computed += ev.unique_evaluations();
                        ms
                    },
                )
            })
            .collect();
        Some((answers, computed))
    }
}

impl Workload for DiskRoundtrip {
    fn unit(&mut self, pre: &Prepared, tr: &Tracer) -> UnitOutcome {
        let positions = pre.inputs.disk_scopes();
        let dir = self.dir.join(format!("unit-{}", self.units));
        self.units += 1;
        let _ = std::fs::remove_dir_all(&dir);

        let mut sweeps = Vec::new();
        let start = Instant::now();
        // Written once (each store is dropped before the next opens,
        // standing in for a new process)...
        sweeps.push(DiskRoundtrip::sweep(
            &dir,
            pre,
            &positions,
            tr,
            "tuner.sweep_write_through",
        ));
        // ...and read many times.
        for _ in 0..DISK_REOPENS {
            sweeps.push(DiskRoundtrip::sweep(
                &dir,
                pre,
                &positions,
                tr,
                "tuner.resweep_from_disk",
            ));
        }
        let wall = start.elapsed();
        let _ = std::fs::remove_dir_all(&dir);

        let mut tally = Tally::new();
        let per_sweep = (positions.len() * pre.points.len()) as u64;
        let mut invariants_hold = true;
        for (i, sweep) in sweeps.iter().enumerate() {
            let Some((answers, computed)) = sweep else {
                tally.unanswered(per_sweep);
                continue;
            };
            for (ms, &pos) in answers.iter().zip(&positions) {
                for (m, &want) in ms.iter().zip(&pre.reference[pos].hashes) {
                    tally.answer(want, m);
                }
            }
            // The first sweep computes everything, a reopen nothing.
            invariants_hold &= *computed as u64 == if i == 0 { per_sweep } else { 0 };
        }
        if !invariants_hold {
            tally.fail_unit();
        }
        UnitOutcome {
            wall,
            tally,
            rpc_us: Vec::new(),
        }
    }

    fn finish(self: Box<Self>) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

struct RemoteWarm {
    daemon: Daemon,
    units: usize,
}

/// Verifies a batch answered by a remote or fleet evaluator.
fn check_batch(
    pre: &Prepared,
    pos: usize,
    answer: &(Option<Vec<Measurement>>, Option<String>),
    tally: &mut Tally,
) {
    let asked = &pre.shuffled[pos];
    match answer {
        (Some(ms), None) if ms.len() == asked.len() => {
            for (m, point) in ms.iter().zip(asked) {
                tally.answer(pre.want(pos, point), m);
            }
        }
        // A latched error, or a batch of the wrong length, answers nothing.
        _ => tally.unanswered(asked.len() as u64),
    }
}

impl Workload for RemoteWarm {
    fn unit(&mut self, pre: &Prepared, tr: &Tracer) -> UnitOutcome {
        let first = self.units * RPCS_PER_UNIT;
        self.units += 1;
        let samples = pre
            .inputs
            .rpc_sequence
            .iter()
            .copied()
            .cycle()
            .skip(first)
            .take(RPCS_PER_UNIT);

        let start = Instant::now();
        let batches: Vec<(Option<Vec<Measurement>>, Option<String>)> = (0..pre.inputs.scopes.len())
            .map(|pos| match Client::connect(&self.daemon.addr) {
                Ok(client) => {
                    // A fresh evaluator per scope: its client-side memo
                    // must not absorb the sweep.
                    let remote = RemoteEvaluator::new(client, pre.eval_scopes[pos].clone());
                    let got = tr.in_span("service.evaluate_batch", || {
                        remote.evaluate_batch(&pre.shuffled[pos])
                    });
                    (got, remote.take_error())
                }
                Err(e) => (None, Some(e.to_string())),
            })
            .collect();
        let trips = tr.in_span("service.round_trips", || {
            round_trips(&self.daemon.addr, pre, samples)
        });
        let wall = start.elapsed();

        let mut tally = Tally::new();
        for (pos, answer) in batches.iter().enumerate() {
            check_batch(pre, pos, answer, &mut tally);
        }
        trips.verify(pre, &mut tally);
        UnitOutcome {
            wall,
            tally,
            rpc_us: trips.us,
        }
    }

    fn finish(self: Box<Self>) {
        self.daemon.stop();
    }
}

struct FleetWarm {
    daemons: [Daemon; 2],
    spec: FleetSpec,
}

impl Workload for FleetWarm {
    fn unit(&mut self, pre: &Prepared, tr: &Tracer) -> UnitOutcome {
        let start = Instant::now();
        let batches: Vec<(Option<Vec<Measurement>>, Option<String>)> = (0..pre.inputs.scopes.len())
            .map(|pos| {
                let fleet = FleetEvaluator::with_policy(
                    self.spec.clone(),
                    pre.eval_scopes[pos].clone(),
                    RetryPolicy::default(),
                    FLEET_CHUNK,
                );
                let got = tr.in_span("fleet.evaluate_batch", || {
                    fleet.evaluate_batch(&pre.shuffled[pos])
                });
                (got, fleet.take_error())
            })
            .collect();
        let wall = start.elapsed();

        let mut tally = Tally::new();
        for (pos, answer) in batches.iter().enumerate() {
            check_batch(pre, pos, answer, &mut tally);
        }
        UnitOutcome {
            wall,
            tally,
            rpc_us: Vec::new(),
        }
    }

    /// The fleet evaluator drives one connection per shard at once.
    fn generator_threads(&self) -> u32 {
        self.daemons.len() as u32
    }

    fn finish(self: Box<Self>) {
        for daemon in self.daemons {
            daemon.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;

    /// A thinned paper space: the same front-end keys, 160 points.
    fn small_space() -> SearchSpace {
        let mut space = SearchSpace::paper_default();
        space.tc = vec![128, 256, 512, 1024];
        space.bc = vec![48, 96];
        space
    }

    /// Every workload runs a unit on generated inputs and every answer
    /// matches the reference bit for bit.
    #[test]
    fn every_workload_answers_correctly_on_a_small_space() {
        let tr = Tracer::new(false);
        let pre = Prepared::build(11, small_space(), true, &tr).expect("set-up");
        assert!(pre.suggest_quality > 0.0 && pre.suggest_quality <= 1.0);
        assert!(pre.space_kept_pct > 0.0 && pre.space_kept_pct <= 100.0);
        for (name, _) in WORKLOADS {
            let mut workload = build(name, &pre).expect(name);
            assert!(workload.generator_threads() <= 2);
            let first = workload.unit(&pre, &tr);
            let second = workload.unit(&pre, &tr);
            workload.finish();
            assert!(first.tally.attempted > 0, "{name}");
            assert_eq!(first.tally.failed, 0, "{name}");
            assert!(first.tally.digest_matches(), "{name}");
            // Counts repeat exactly from unit to unit.
            assert_eq!(first.tally.attempted, second.tally.attempted, "{name}");
            assert_eq!(second.tally.failed, 0, "{name}");
        }
    }

    /// Another seed asks the same questions in another order: the set
    /// of per-point reference hashes is identical once sorted, and the
    /// seed-independent digest agrees.
    #[test]
    fn another_seed_reorders_but_answers_the_same_set() {
        let tr = Tracer::new(false);
        let per_point = |seed: u64| {
            let pre = Prepared::build(seed, small_space(), false, &tr).expect("set-up");
            let mut all: Vec<(usize, u64)> = pre
                .inputs
                .scopes
                .iter()
                .zip(&pre.reference)
                .flat_map(|(s, r)| r.hashes.iter().map(move |&h| (s.canon, h)))
                .collect();
            all.sort_unstable();
            let order: Vec<usize> = pre.inputs.scopes.iter().map(|s| s.canon).collect();
            let golden = pre.observed_golden("cold_sweep", 0);
            (all, order, golden)
        };
        let (a, order_a, golden_a) = per_point(1);
        let (b, order_b, golden_b) = per_point(2);
        assert_ne!(order_a, order_b);
        assert_eq!(a, b);
        assert_eq!(golden_a, golden_b);
    }
}
