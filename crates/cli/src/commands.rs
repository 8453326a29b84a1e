//! Subcommand implementations. Every command returns its output as a
//! `String` so the whole surface is unit-testable without process
//! spawning.

use crate::args::Args;
use oriole_arch::{Gpu, ALL_GPUS};
use oriole_codegen::{compile, CompilerFlags, PhaseTelemetry, PreferredL1, TuningParams};
use oriole_core::predict_time_indexed;
use oriole_core::{analyze, report, suggest};
use oriole_kernels::KernelId;
use oriole_service::protocol::MAX_IN_FLIGHT;
use oriole_service::{
    Client, EvalScope, FleetSpec, RemoteEvaluator, RetryPolicy, ServeConfig, Server, ServiceStats,
};
use oriole_sim::{ModelContext, ModelId, TrialProtocol, MAX_TRIALS};
use oriole_tuner::{
    measurements_csv, parse_spec, replay, AnnealingSearch, ArtifactStore, EvalProtocol, EvalStats,
    ExhaustiveSearch, GeneticSearch, HybridSearch, NelderMeadSearch, Oracle, RandomSearch,
    SearchSpace, Searcher, StaticSearch,
};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::OnceLock;

/// The process-level artifact store: every command of this process —
/// and every `run()` call in one embedding process — shares front-ends
/// and measurements. Sharing is keyed so results are
/// bit-identical to throwaway evaluators; it only changes wall-clock.
fn store() -> &'static ArtifactStore {
    static STORE: OnceLock<ArtifactStore> = OnceLock::new();
    STORE.get_or_init(ArtifactStore::new)
}

/// The store a command runs against: with `--store-dir` a disk-backed
/// store over that directory (measurement tiers load from and spill to
/// it, so invocations resume each other across processes), otherwise a
/// handle to the memory-only process store. [`ArtifactStore`] is a
/// cheap shared handle either way.
fn resolve_store(args: &Args) -> Result<ArtifactStore, String> {
    match args.optional("store-dir") {
        Some(dir) => ArtifactStore::with_disk(dir)
            .map_err(|e| format!("cannot open store dir `{dir}`: {e}")),
        None => Ok(store().clone()),
    }
}

/// Dispatches a full command line.
pub(crate) fn run(argv: &[String]) -> Result<String, String> {
    let Some(cmd) = argv.first() else {
        return Ok(usage());
    };
    if cmd == "store" {
        // `store` takes a positional action (`stats`/`verify`/`gc`)
        // before its flags.
        return cmd_store(&argv[1..]);
    }
    if cmd == "service" {
        // So does `service` (`ping`/`stats`/`shutdown`).
        return cmd_service(&argv[1..]);
    }
    let args = Args::parse(&argv[1..])?;
    let out = match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(usage()),
        "gpus" => cmd_gpus(),
        "models" => cmd_models(),
        "analyze" => cmd_analyze(&args),
        "occupancy" => cmd_occupancy(&args),
        "suggest" => cmd_suggest(&args),
        "simulate" => cmd_simulate(&args),
        "disasm" => cmd_disasm(&args),
        "tune" => cmd_tune(&args),
        "serve" => cmd_serve(&args),
        other => Err(format!("unknown command `{other}`")),
    }?;
    // The commands above that dial, sweep or serve have refused unknown
    // flags themselves before starting; for the pure ones, refusing
    // after the fact costs nothing and no command can forget to.
    args.reject_unasked(cmd)?;
    Ok(out)
}

fn usage() -> String {
    "\
oriole — autotuning GPU kernels via static and predictive analysis

commands:
  gpus                                   list the Table I GPU database
  models                                 list the timing-model backends
  analyze   --kernel K --gpu G --n N     full static analysis report
  occupancy --gpu G --tc T [--regs R --smem S]
                                         occupancy-calculator panels
  suggest   --kernel K --gpu G [--n N]   Table VII parameter suggestion
  simulate  --kernel K --gpu G --n N     one simulated execution
  disasm    --kernel K --gpu G           print the disassembly listing
  tune      --kernel K --gpu G --strategy S
                                         run the autotuner (S: exhaustive,
                                         random, anneal, genetic,
                                         neldermead, static, static-rules,
                                         hybrid [--dial 0.05])
  store     {stats|verify|gc} --store-dir DIR
                                         inspect / verify / garbage-collect
                                         a persistent artifact store
                                         (gc honors --dry-run: report only)
  serve     [--addr 127.0.0.1:7733] [--store-dir DIR]
            [--max-connections N] [--max-inflight N]
            [--request-timeout MS] [--idle-timeout MS]
                                         run the tuner daemon: one shared
                                         artifact store served to remote
                                         clients until `service shutdown`;
                                         saturation answers `busy` (shed,
                                         never hung), idle connections
                                         are reaped, and each connection
                                         may pipeline up to 32 requests
                                         with out-of-order responses
  service   {ping|stats|shutdown} --remote ADDRS|@FILE
                                         probe / inspect / stop each named
                                         daemon in turn (stats reports an
                                         unreachable daemon and fails only
                                         when none answers)

common variant flags: --tc --bc --uif --pl --sc --fast-math
model flag (tune/simulate/analyze): --model {sim,static,roofline}
            select the timing backend (default sim; static reports Eq. 6
            model units, not ms — see `models`)
store flag (tune): --store-dir DIR
            persist measurement tiers to DIR (content-addressed,
            checksummed artifacts): a re-run against the same DIR —
            even in another process — resumes as pure cache hits with
            bit-identical results; corrupt or version-skewed artifacts
            are recomputed, never trusted
remote flag (tune): --remote ADDRS|@FILE
            evaluate through running `oriole serve` daemons instead of
            in-process: one address, comma-separated addresses, or a
            manifest file with one address per line. Concurrent
            clients share each daemon's store (front-ends,
            measurements) and results are bit-identical to local
            evaluation. Each scope's chunks enqueue on its
            hash-assigned home daemon, idle daemons steal from the
            busiest queue's tail, and a lost daemon's queue rebalances
            onto survivors; the run fails, naming the address, only
            when the last daemon is lost. Each daemon owns its own
            --store-dir (or none), so --remote and --store-dir are
            mutually exclusive. Deadline/retry knobs (tune and
            service): --rpc-timeout MS (per-exchange deadline, default
            10000) and --retries N (transparent retry of idempotent
            verbs with backoff + jitter, default 4; 0 = fail fast).
            Batching knob (tune): --batch-points N (points per
            evaluate frame and the granule daemons steal, default 64).
tune flags: --budget B --sizes 32,64,... --spec FILE --seed N --csv
            --stats (print cache telemetry: unique evaluations,
            lowerings, disk loads/spills, the compile phases those
            lowerings ran, the active timing model; with --remote:
            client fetches, the scheduler ledger and one line per
            daemon, plus a single daemon's serving and store counters)
"
    .to_string()
}

fn parse_gpu(args: &Args) -> Result<Gpu, String> {
    let name = args.required("gpu")?;
    Gpu::parse(name).ok_or_else(|| format!("unknown GPU `{name}` (try M2050/K20/M40/P100)"))
}

fn parse_kernel(args: &Args) -> Result<KernelId, String> {
    let name = args.required("kernel")?;
    KernelId::parse(name)
        .ok_or_else(|| format!("unknown kernel `{name}` (try atax/bicg/ex14fj/matvec2d)"))
}

fn parse_model(args: &Args) -> Result<ModelId, String> {
    match args.optional("model") {
        None => Ok(ModelId::default()),
        Some(name) => ModelId::parse(name)
            .ok_or_else(|| format!("unknown model `{name}` (try sim/static/roofline)")),
    }
}

fn parse_params(args: &Args) -> Result<TuningParams, String> {
    let pl_kb: u32 = args.num_or("pl", 16)?;
    Ok(TuningParams {
        tc: args.num_or("tc", 128)?,
        bc: args.num_or("bc", 48)?,
        uif: args.num_or("uif", 1)?,
        pl: PreferredL1::from_kb(pl_kb).ok_or_else(|| format!("--pl must be 16 or 48, got {pl_kb}"))?,
        sc: args.num_or("sc", 1)?,
        cflags: CompilerFlags { fast_math: args.switch("fast-math") },
    })
}

fn cmd_gpus() -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<7} {:<8} {:>4} {:>4} {:>6} {:>10} {:>9} {:>10} {:>9}",
        "name", "family", "cc", "SMs", "cores", "clock MHz", "regs/SM", "shmem/SM", "warps/SM"
    );
    for gpu in ALL_GPUS {
        let s = gpu.spec();
        let _ = writeln!(
            out,
            "{:<7} {:<8} {:>4} {:>4} {:>6} {:>10} {:>9} {:>10} {:>9}",
            s.name,
            s.family.to_string(),
            s.compute_capability.to_string(),
            s.multiprocessors,
            s.total_cores(),
            s.gpu_clock_mhz,
            s.regfile_per_mp,
            s.shmem_per_mp,
            s.warps_per_mp
        );
    }
    Ok(out)
}

fn cmd_models() -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(out, "timing-model backends (--model <name> on tune/simulate/analyze):");
    for id in ModelId::ALL {
        let marker = if id == ModelId::default() { "*" } else { " " };
        let _ = writeln!(out, " {marker} {:<9} {}", id.name(), id.describe());
    }
    let _ = writeln!(out, "(* = default; all backends share one launch-feasibility gate)");
    Ok(out)
}

fn cmd_analyze(args: &Args) -> Result<String, String> {
    let gpu = parse_gpu(args)?;
    let kernel_id = parse_kernel(args)?;
    let n: u64 = args.num_or("n", 128)?;
    let params = parse_params(args)?;
    let model = parse_model(args)?;
    let kernel = compile(&kernel_id.ast(n), gpu.spec(), params).map_err(|e| e.to_string())?;
    let mut out = analyze(&kernel, n).render();
    match ModelContext::for_model(gpu.spec(), model).simulate(&kernel, n) {
        Ok(r) => {
            let _ = writeln!(
                out,
                "timing model {model}: estimated cost {:.4} ({} bound)",
                r.time_ms, r.bound
            );
        }
        Err(e) => {
            let _ = writeln!(out, "timing model {model}: {e}");
        }
    }
    Ok(out)
}

fn cmd_occupancy(args: &Args) -> Result<String, String> {
    let gpu = parse_gpu(args)?;
    let tc: u32 = args.num_or("tc", 128)?;
    let regs: u32 = args.num_or("regs", 0)?;
    let smem: u32 = args.num_or("smem", 0)?;
    let spec = gpu.spec();
    let sug = suggest::suggest_from(spec, regs.max(1), smem);
    Ok(report::occupancy_calculator_report(spec, "<manual>", tc, regs, smem, &sug))
}

fn cmd_suggest(args: &Args) -> Result<String, String> {
    let gpu = parse_gpu(args)?;
    let kernel_id = parse_kernel(args)?;
    let n: u64 = args.num_or("n", 128)?;
    let params = parse_params(args)?;
    let kernel = compile(&kernel_id.ast(n), gpu.spec(), params).map_err(|e| e.to_string())?;
    let analysis = analyze(&kernel, n);
    let mut out = String::new();
    let _ = writeln!(out, "{} on {}: {}", kernel_id, gpu, analysis.suggestion.row());
    let threads: Vec<String> = analysis.rule_threads.iter().map(|t| t.to_string()).collect();
    let _ = writeln!(
        out,
        "rule-based band (intensity {:.2}): {{{}}}",
        analysis.mix.intensity,
        threads.join(",")
    );
    Ok(out)
}

fn cmd_simulate(args: &Args) -> Result<String, String> {
    let gpu = parse_gpu(args)?;
    let kernel_id = parse_kernel(args)?;
    let n: u64 = args.num_or("n", 128)?;
    let trials: u32 = args.num_or("trials", 10)?;
    if trials > MAX_TRIALS {
        return Err(format!("--trials {trials} is out of range (at most {MAX_TRIALS})"));
    }
    let seed: u64 = args.num_or("seed", 42)?;
    let params = parse_params(args)?;
    let model = parse_model(args)?;
    let kernel = compile(&kernel_id.ast(n), gpu.spec(), params).map_err(|e| e.to_string())?;
    let ctx = ModelContext::for_model(gpu.spec(), model);
    let t = ctx.measure(&kernel, n, trials, seed).map_err(|e| e.to_string())?;
    let (r, selected) = (&t.report, t.selected(TrialProtocol::FifthOfTen));
    let mut out = String::new();
    let _ = writeln!(out, "{kernel_id} on {gpu} at N={n} with {params} (model {model})");
    let _ = writeln!(
        out,
        "model time {:.4} ms ({} bound); occupancy {:.2} ({} blocks/SM, {} busy SMs, {} waves)",
        r.time_ms, r.bound, r.occupancy.occupancy, r.occupancy.active_blocks, r.busy_sms, r.waves
    );
    let _ = writeln!(out, "{} trials (5th selected): {selected:.4} ms", trials);
    Ok(out)
}

/// The `--remote ADDRS|@FILE` flag, parsed by [`FleetSpec::parse`] and
/// refused alongside `--store-dir`: each daemon owns its own store, and
/// a client-side store would make this process a second writer.
fn remote_spec(args: &Args) -> Result<Option<FleetSpec>, String> {
    match (args.optional("remote"), args.optional("store-dir")) {
        (Some(_), Some(_)) => Err(
            "--remote and --store-dir are mutually exclusive: each daemon owns its \
             store (pass --store-dir to `oriole serve` instead)"
                .to_string(),
        ),
        (addrs, _) => addrs.map(FleetSpec::parse).transpose(),
    }
}

/// The client-side fault policy flags shared by every remote command:
/// `--rpc-timeout MS` bounds each exchange (socket deadline, also
/// declared to the daemon so it can shed work it cannot start in
/// time), `--retries N` caps the transparent retry of idempotent verbs
/// (0 = fail fast).
fn retry_policy(args: &Args) -> Result<RetryPolicy, String> {
    let default = RetryPolicy::default();
    Ok(RetryPolicy {
        rpc_timeout: std::time::Duration::from_millis(
            args.num_or("rpc-timeout", default.rpc_timeout.as_millis() as u64)?,
        ),
        max_retries: args.num_or("retries", default.max_retries)?,
        ..default
    })
}

fn cmd_disasm(args: &Args) -> Result<String, String> {
    let gpu = parse_gpu(args)?;
    let kernel_id = parse_kernel(args)?;
    let n: u64 = args.num_or("n", 128)?;
    let params = parse_params(args)?;
    let kernel = compile(&kernel_id.ast(n), gpu.spec(), params).map_err(|e| e.to_string())?;
    Ok(kernel.disassembly())
}

fn cmd_tune(args: &Args) -> Result<String, String> {
    let gpu = parse_gpu(args)?;
    let kernel_id = parse_kernel(args)?;
    let sizes = args.u64_list_or("sizes", &kernel_id.input_sizes())?;
    let seed: u64 = args.num_or("seed", 42)?;
    let model = parse_model(args)?;
    let strategy = args.required("strategy")?.to_string();

    let space = match args.optional("spec") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            parse_spec(&text).map_err(|e| e.to_string())?
        }
        None => SearchSpace::paper_default(),
    };
    let default_budget = match strategy.as_str() {
        "exhaustive" | "static" | "static-rules" => space.len(),
        _ => space.len() / 10,
    };
    let budget: usize = args.num_or("budget", default_budget)?;
    let dial: f64 = args.num_or("dial", 0.05)?;
    let (stats, csv) = (args.switch("stats"), args.switch("csv"));
    // Where points are evaluated. Every knob is read — and a bad value
    // is a usage error — whichever backend it ends up applying to, so
    // that by here the command has asked about all its flags.
    let remote = remote_spec(args)?;
    let policy = retry_policy(args)?;
    let batch_points = args.num_or("batch-points", RemoteEvaluator::DEFAULT_CHUNK_POINTS)?;
    if batch_points == 0 {
        return Err("--batch-points must be at least 1".to_string());
    }
    args.reject_unasked("tune")?;

    let builder = move |n: u64| kernel_id.ast(n);
    let protocol = EvalProtocol { model, ..EvalProtocol::default() };

    // The oracle every strategy queries: an in-process evaluator over
    // the resolved store, or the remote engine over daemons' stores —
    // same `Oracle` trait, bit-identical numbers, so the search layer
    // cannot tell them apart. A daemon is dialed by the first chunk
    // sent to it; one that is not there is lost like any other, and
    // losing the last fails the run with its address. One instance,
    // alive for the whole command — variant size skew costs nothing,
    // and boxing would only add indirection.
    #[allow(clippy::large_enum_variant)]
    enum Backend<'a> {
        Local { evaluator: oriole_tuner::Evaluator<'a>, before: EvalStats },
        Remote(RemoteEvaluator),
    }
    let scope = EvalScope {
        kernel: kernel_id.name().to_string(),
        gpu: gpu.spec().clone(),
        sizes: sizes.clone(),
        protocol,
    };
    let backend = match remote {
        Some(spec) => {
            Backend::Remote(RemoteEvaluator::with_policy(spec, scope, policy, batch_points))
        }
        None => {
            let run_store = resolve_store(args)?;
            let evaluator =
                run_store.evaluator_with(kernel_id.name(), &builder, gpu.spec(), &sizes, protocol);
            let before = evaluator.stats();
            Backend::Local { evaluator, before }
        }
    };
    let oracle: &dyn Oracle = match &backend {
        Backend::Local { evaluator, .. } => evaluator,
        Backend::Remote(remote) => remote,
    };

    let run = |searcher: &mut dyn Searcher| searcher.search(&space, oracle, budget);
    let (result, extra) = match strategy.as_str() {
        "exhaustive" => (run(&mut ExhaustiveSearch), String::new()),
        "random" => (run(&mut RandomSearch { seed }), String::new()),
        "anneal" => (run(&mut AnnealingSearch { seed, ..Default::default() }), String::new()),
        "genetic" => (run(&mut GeneticSearch { seed, ..Default::default() }), String::new()),
        "neldermead" => {
            (run(&mut NelderMeadSearch { seed, ..Default::default() }), String::new())
        }
        "static" | "static-rules" => {
            let n_probe = sizes[sizes.len() / 2];
            let probe = compile(
                &kernel_id.ast(n_probe),
                gpu.spec(),
                TuningParams::with_geometry(128, 48),
            )
            .map_err(|e| e.to_string())?;
            // The probe is analyzed locally even under --remote: static
            // analysis is the cheap part the paper contributes; only
            // empirical evaluation goes to a daemon.
            let analysis = analyze(&probe, n_probe);
            let level = if strategy == "static" {
                oriole_tuner::search::PruneLevel::Static
            } else {
                oriole_tuner::search::PruneLevel::RuleBased
            };
            let mut s = StaticSearch::new(analysis, level);
            let result = s.search(&space, oracle, budget);
            let report = s.report.expect("search ran");
            let extra = format!(
                "static pruning: {} -> {} variants ({:.1}% improvement), threads {{{}}}\n",
                report.full_space,
                report.pruned_space,
                report.improvement * 100.0,
                report
                    .threads_kept
                    .iter()
                    .map(|t| t.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            );
            (result, extra)
        }
        "hybrid" => {
            let n_probe = sizes[sizes.len() / 2];
            // One Eq. 6 table for the whole prediction sweep.
            let table = gpu.spec().throughput();
            let predictor = move |p: oriole_codegen::TuningParams| {
                compile(&kernel_id.ast(n_probe), gpu.spec(), p).ok().map(|k| {
                    predict_time_indexed(table, &k.index, &k.program, k.geometry(n_probe))
                })
            };
            let mut s = HybridSearch::new(predictor, dial);
            let result = s.search(&space, oracle, budget);
            // Replay the log against the same oracle to validate the
            // static pruning decisions (§VII).
            let validation = replay(&s.log, oracle, 0.05);
            let extra = format!(
                "hybrid dial {:.0}%: {} decisions logged; prediction agreement {:.2}; {}\n",
                dial * 100.0,
                s.log.entries().len(),
                validation.prediction_agreement,
                match validation.pruned_winner {
                    Some((p, t)) => format!("pruned winner found: {p} at {t:.4} ms"),
                    None => "no pruned winner (static decisions validated)".to_string(),
                }
            );
            (result, extra)
        }
        other => return Err(format!("unknown strategy `{other}`")),
    };

    // A lost daemon aborts the run loudly: the remote oracle latches a
    // batch-fatal failure instead of quietly scoring infinity. (A lost
    // shard with a survivor is routine — rebalanced, not fatal; only a
    // deterministic error or the loss of every daemon latches.)
    let latched = |remote: &RemoteEvaluator| {
        remote.take_error().map(|err| format!("remote evaluation failed: {err}"))
    };
    if let Backend::Remote(remote) = &backend {
        if let Some(err) = latched(remote) {
            return Err(err);
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{kernel_id} on {gpu}, sizes {sizes:?}, strategy {strategy}, model {model}"
    );
    out.push_str(&extra);
    // Deliberately free of run-to-run-variable counters: identical
    // invocations — local, remote, or concurrent with other clients —
    // print byte-identical results. Cache telemetry lives under
    // --stats.
    let _ = writeln!(
        out,
        "best: {} -> {:.4} ms total ({} evaluations)",
        result.best, result.best_time, result.evaluations,
    );
    if stats {
        match &backend {
            Backend::Local { evaluator, before } => {
                out.push_str(&render_stats(*before, evaluator.stats()));
            }
            Backend::Remote(remote) => out.push_str(&render_remote_stats(remote)?),
        }
    }
    if csv && !result.trace.is_empty() {
        let points: Vec<TuningParams> = result.trace.iter().map(|(p, _)| *p).collect();
        out.push_str(&match &backend {
            Backend::Local { evaluator, .. } => measurements_csv(
                &points.iter().map(|&p| evaluator.evaluate(p)).collect::<Vec<_>>(),
            ),
            Backend::Remote(remote) => measurements_csv(
                &remote
                    .evaluate_batch(&points)
                    .ok_or_else(|| latched(remote).unwrap_or_default())?,
            ),
        });
    }
    Ok(out)
}

/// The `--stats` block of a tune through daemons, one or many: what
/// this client moved over the wire, the work-stealing scheduler's
/// ledger and one line per daemon. With a single daemon its serving and
/// store counters follow (the remote analogue of [`render_stats`] — the
/// tiers live on the server, so the numbers do too); for more,
/// `service stats --remote ADDRS` has them.
fn render_remote_stats(remote: &RemoteEvaluator) -> Result<String, String> {
    let s = remote.stats();
    let c = s.counters();
    let mut out = String::new();
    let _ = match &s.shards[..] {
        [only] => writeln!(out, "remote service stats (daemon at {}):", only.addr),
        _ => writeln!(out, "fleet stats ({} shard(s)):", c.shards),
    };
    let _ = writeln!(
        out,
        "  client: {} point(s) fetched, {} computed remotely",
        s.points_fetched, s.computed_remote
    );
    let _ = writeln!(
        out,
        "  coalescing: {} batched frame(s) sent, peak {} point(s)/frame",
        s.shards.iter().map(|sh| sh.completed).sum::<u64>(),
        s.peak_batch
    );
    let _ = writeln!(
        out,
        "  scheduler: {} chunk(s) dispatched, {} stolen, {} rebalanced, {} shard(s) lost",
        c.batches_dispatched, c.batches_stolen, c.batches_rebalanced, c.shards_lost
    );
    for (i, sh) in s.shards.iter().enumerate() {
        let _ = writeln!(
            out,
            "  shard {i} {}: {} chunk(s) completed ({} stolen), {} in evaluate{}",
            sh.addr,
            sh.completed,
            sh.stolen,
            fmt_ns(sh.eval_time.as_nanos().min(u128::from(u64::MAX)) as u64),
            if sh.lost {
                format!(" [LOST, {} chunk(s) rebalanced away]", sh.rebalanced_away)
            } else {
                String::new()
            }
        );
    }
    if s.shards.len() == 1 {
        out.push_str(&render_server_stats(&remote.client().stats().map_err(|e| e.to_string())?));
    }
    Ok(out)
}

/// A daemon's serving and store counters: the body of `service stats`,
/// and what `tune --stats` prints under a single daemon's client-side
/// block.
fn render_server_stats(s: &ServiceStats) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  server: {} connection(s), {} request(s), {} point(s) served",
        s.connections, s.requests, s.points_served
    );
    let _ = writeln!(
        out,
        "  pool: {}/{} worker(s) busy, {} shed busy, {} reaped idle",
        s.workers_busy, s.workers_max, s.shed_busy, s.reaped_idle
    );
    let _ = writeln!(
        out,
        "  reactor: {} connection(s) open, {} frame(s) in flight, pipelined peak {}, \
         {} wakeup(s), {} frame(s) answered inline",
        s.open_connections, s.frames_inflight, s.pipelined_peak, s.reactor_wakeups, s.inline_hits
    );
    let _ = writeln!(
        out,
        "  store: {} kernel(s), {} front-end tier(s) ({} lowerings), {} measurement tier(s), \
         {} unique evaluations, {} context(s)",
        s.store.kernels,
        s.store.front_end_tiers,
        s.store.front_end_lowerings,
        s.store.measurement_tiers,
        s.store.unique_evaluations,
        s.store.contexts
    );
    out.push_str(&render_phases(&s.store.phases));
    match &s.store.disk {
        Some(d) => {
            let _ = writeln!(
                out,
                "  disk tier: {} hit(s), {} miss(es), {} loaded, {} written, {} rejected",
                d.tier_hits,
                d.tier_misses,
                d.measurements_loaded,
                d.measurements_written,
                d.rejected
            );
        }
        None => {
            let _ = writeln!(out, "  disk tier: none (memory-only daemon)");
        }
    }
    out
}

/// `oriole serve [--addr A] [--store-dir DIR]` — the tuner daemon: one
/// process-level [`ArtifactStore`] (optionally disk-backed) served to
/// any number of `tune --remote` clients until a
/// `service shutdown` request arrives. Concurrent clients share the
/// store's tiers exactly like in-process evaluators: each point is
/// computed once, fleet-wide. The daemon is the store
/// directory's single writing process — run one daemon per directory.
fn cmd_serve(args: &Args) -> Result<String, String> {
    let addr = args.optional("addr").unwrap_or("127.0.0.1:7733");
    let store_dir = args.optional("store-dir");
    let default = ServeConfig::default();
    let cfg = ServeConfig {
        max_connections: args.num_or("max-connections", default.max_connections)?,
        max_inflight: args.num_or("max-inflight", default.max_inflight)?,
        request_timeout: std::time::Duration::from_millis(
            args.num_or("request-timeout", default.request_timeout.as_millis() as u64)?,
        ),
        idle_timeout: std::time::Duration::from_millis(
            args.num_or("idle-timeout", default.idle_timeout.as_millis() as u64)?,
        ),
    };
    // Before the store opens: a refused pool leaves no directory behind.
    cfg.check()?;
    args.reject_unasked("serve")?;
    let (store, store_note) = match store_dir {
        Some(dir) => (
            ArtifactStore::with_disk(dir)
                .map_err(|e| format!("cannot open store dir `{dir}`: {e}"))?,
            format!("store dir `{dir}`"),
        ),
        None => (ArtifactStore::new(), "memory-only store".to_string()),
    };
    let server =
        Server::bind_with(addr, store, cfg).map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
    let actual = server.local_addr().map_err(|e| e.to_string())?;
    // The banner goes out *before* the accept loop blocks (explicitly
    // flushed: under a pipe, stdout is block-buffered and a waiting
    // supervisor would never see it).
    {
        use std::io::Write as _;
        let mut stdout = std::io::stdout();
        let _ = writeln!(stdout, "{}", serve_banner(&actual.to_string(), &store_note, &cfg));
        let _ = stdout.flush();
    }
    let summary = server.run().map_err(|e| e.to_string())?;
    let s = summary.stats;
    Ok(format!(
        "oriole serve: shut down after {} connection(s), {} request(s), {} point(s) served, \
         {} shed busy, {} reaped idle ({})\n",
        s.connections,
        s.requests,
        s.points_served,
        s.shed_busy,
        s.reaped_idle,
        if summary.drained { "drained clean" } else { "drain deadline hit" }
    ))
}

/// The line `serve` prints once it listens; it names the pool as `service stats` does.
fn serve_banner(addr: &str, store_note: &str, cfg: &ServeConfig) -> String {
    format!(
        "oriole serve: listening on {addr} ({store_note}; up to {} connection(s), {} worker(s), \
         pipeline depth {MAX_IN_FLIGHT}, request timeout {}ms, idle timeout {}ms)",
        cfg.max_connections,
        cfg.max_inflight,
        cfg.request_timeout.as_millis(),
        cfg.idle_timeout.as_millis()
    )
}

/// `oriole service {ping|stats|shutdown} --remote ADDRS|@FILE` — daemon
/// control, on each named daemon in turn: liveness probe, serving/store
/// telemetry, graceful stop (a daemon drains in-flight evaluations
/// before exiting, so its store directory is left with whole records
/// only). A daemon that does not answer is reported by address; `stats`
/// fails only when none answers — an operator needs the partial view
/// precisely when a daemon is down — and `ping` and `shutdown` fail when
/// any does not.
fn cmd_service(argv: &[String]) -> Result<String, String> {
    let Some(action) = argv.first() else {
        return Err("service needs an action: ping | stats | shutdown".to_string());
    };
    if !["ping", "stats", "shutdown"].contains(&action.as_str()) {
        return Err(format!("unknown service action `{action}` (try ping | stats | shutdown)"));
    }
    let args = Args::parse(&argv[1..])?;
    let spec = FleetSpec::parse(args.required("remote")?)?;
    let policy = retry_policy(&args)?;
    args.reject_unasked("service")?;
    let (mut out, mut answered) = (String::new(), 0);
    for addr in spec.shards() {
        let answer = Client::connect_with(addr, policy).and_then(|c| match action.as_str() {
            "ping" => c.ping().map(|()| format!("daemon at {addr} is alive\n")),
            "stats" => c.stats().map(|s| format!("daemon at {addr}:\n{}", render_server_stats(&s))),
            _ => {
                let note = "is shutting down (draining in-flight work)";
                c.shutdown().map(|()| format!("daemon at {addr} {note}\n"))
            }
        });
        answered += usize::from(answer.is_ok());
        out += &answer.unwrap_or_else(|e| format!("daemon at {addr}: UNREACHABLE ({e})\n"));
    }
    // `stats` needs one answer; `ping` and `shutdown` need every one.
    if answered == 0 || (action != "stats" && answered < spec.len()) {
        return Err(out);
    }
    Ok(out)
}

/// `oriole store {stats|verify|gc} --store-dir DIR` — maintenance of a
/// persistent artifact store (see `oriole_tuner::persist`): `stats`
/// lists every tier file with its scope and record counts, `verify`
/// checks magic/version/checksums and fails on any unusable artifact,
/// `gc` deletes unusable files and compacts ones carrying rejected
/// records (`gc --dry-run` reports the same plan without touching
/// disk).
fn cmd_store(argv: &[String]) -> Result<String, String> {
    use oriole_tuner::persist::{self, FileStatus};

    let Some(action) = argv.first() else {
        return Err("store needs an action: stats | verify | gc".to_string());
    };
    let args = Args::parse(&argv[1..])?;
    let dir = args.required("store-dir")?;
    // Only `gc` knows `--dry-run`; beside `stats` or `verify` it is refused.
    let dry_run = action == "gc" && args.switch("dry-run");
    args.reject_unasked("store")?;
    let path = Path::new(dir);
    if !path.is_dir() {
        return Err(format!("store dir `{dir}` does not exist"));
    }
    let scan = |msg: &str| {
        persist::scan_store(path).map_err(|e| format!("cannot {msg} `{dir}`: {e}"))
    };
    match action.as_str() {
        "stats" => {
            let reports = scan("scan")?;
            let mut out = String::new();
            let _ = writeln!(
                out,
                "{:<24} {:<9} {:<6} {:<9} {:<16} {:>8} {:>9} {:>9}  status",
                "file", "kernel", "gpu", "model", "sizes", "records", "rejected", "bytes"
            );
            let (mut records, mut rejected, mut bytes, mut unusable) = (0usize, 0u64, 0u64, 0usize);
            for r in &reports {
                bytes += r.bytes;
                let (kernel, gpu, model, sizes, recs, rej, status) = match &r.status {
                    FileStatus::Usable { kernel, gpu, sizes, model, records, rejected } => (
                        kernel.as_str(),
                        gpu.as_str(),
                        model.as_str(),
                        sizes.as_str(),
                        *records,
                        *rejected,
                        if *rejected > 0 { "rejected records" } else { "ok" },
                    ),
                    FileStatus::VersionSkew => {
                        unusable += 1;
                        ("?", "?", "?", "?", 0, 0, "version skew")
                    }
                    FileStatus::Corrupt => {
                        unusable += 1;
                        ("?", "?", "?", "?", 0, 0, "corrupt")
                    }
                };
                records += recs;
                rejected += rej;
                let _ = writeln!(
                    out,
                    "{:<24} {:<9} {:<6} {:<9} {:<16} {:>8} {:>9} {:>9}  {status}",
                    r.name, kernel, gpu, model, sizes, recs, rej, r.bytes
                );
            }
            let _ = writeln!(
                out,
                "total: {} tier file(s), {records} measurement(s), {rejected} rejected \
                 record(s), {unusable} unusable file(s), {bytes} bytes",
                reports.len()
            );
            Ok(out)
        }
        "verify" => {
            let reports = scan("verify")?;
            let mut out = String::new();
            let mut problems = 0usize;
            for r in &reports {
                let verdict = match &r.status {
                    FileStatus::Usable { records, rejected: 0, .. } => {
                        format!("OK ({records} records)")
                    }
                    FileStatus::Usable { records, rejected, .. } => {
                        problems += 1;
                        format!("REJECTED RECORDS ({rejected} bad, {records} good)")
                    }
                    FileStatus::VersionSkew => {
                        problems += 1;
                        "VERSION SKEW".to_string()
                    }
                    FileStatus::Corrupt => {
                        problems += 1;
                        "CORRUPT".to_string()
                    }
                };
                let _ = writeln!(out, "{:<24} {verdict}", r.name);
            }
            let _ = writeln!(out, "verified {} file(s): {problems} problem(s)", reports.len());
            if problems > 0 {
                let _ = writeln!(
                    out,
                    "damaged artifacts are treated as cache misses (recomputed, never \
                     trusted); run `oriole store gc --store-dir {dir}` to repair"
                );
                Err(out)
            } else {
                Ok(out)
            }
        }
        "gc" => {
            if dry_run {
                let plan =
                    persist::plan_gc(path).map_err(|e| format!("cannot plan gc `{dir}`: {e}"))?;
                return Ok(format!(
                    "gc --dry-run: would remove {} unusable file(s), compact {} file(s), \
                     drop {} rejected record(s), reclaim {} bytes (nothing touched)\n",
                    plan.removed_files,
                    plan.compacted_files,
                    plan.dropped_records,
                    plan.bytes_reclaimed
                ));
            }
            let report =
                persist::gc_store(path).map_err(|e| format!("cannot gc `{dir}`: {e}"))?;
            Ok(format!(
                "gc: removed {} unusable file(s), compacted {} file(s), dropped {} rejected \
                 record(s), reclaimed {} bytes\n",
                report.removed_files,
                report.compacted_files,
                report.dropped_records,
                report.bytes_reclaimed
            ))
        }
        other => Err(format!("unknown store action `{other}` (try stats | verify | gc)")),
    }
}

/// Nanosecond counters read badly raw; render at the precision a human
/// compares phases at (whole ns below 10µs, then µs, then ms).
fn fmt_ns(ns: u64) -> String {
    if ns < 10_000 {
        format!("{ns}ns")
    } else if ns < 10_000_000 {
        format!("{:.1}\u{b5}s", ns as f64 / 1_000.0)
    } else {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    }
}

/// Renders the `--stats` cache-telemetry block: what this run added on
/// top of whatever the process-level store already held, and the timing
/// model it ran under.
fn render_stats(before: EvalStats, after: EvalStats) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "cache stats (this run, process-level store):");
    let _ = writeln!(
        out,
        "  unique evaluations: {} new, {} in tier",
        after.unique_evaluations - before.unique_evaluations,
        after.unique_evaluations
    );
    let _ = writeln!(
        out,
        "  front-end lowerings: {} new, {} in tier",
        after.front_end_lowerings - before.front_end_lowerings,
        after.front_end_lowerings
    );
    let _ = writeln!(
        out,
        "  disk tier: {} loaded, {} spilled",
        after.disk_loaded, after.disk_spilled
    );
    out.push_str(&render_phases(&after.phases.since(&before.phases)));
    let _ = writeln!(out, "  timing model: {}", after.model);
    out
}

/// The `compile phases:` line of both stats blocks.
fn render_phases(p: &PhaseTelemetry) -> String {
    format!(
        "  compile phases: unroll {} ({} calls), lower {} ({} calls), regalloc {} ({} calls)\n",
        fmt_ns(p.unroll_ns),
        p.unroll_calls,
        fmt_ns(p.lower_ns),
        p.lower_calls,
        fmt_ns(p.regalloc_ns),
        p.regalloc_calls
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(line: &str) -> Result<String, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        run(&argv)
    }

    #[test]
    fn help_and_empty() {
        assert!(call("help").unwrap().contains("oriole"));
        assert!(run(&[]).unwrap().contains("commands:"));
    }

    #[test]
    fn gpus_lists_all_four() {
        let out = call("gpus").unwrap();
        for name in ["M2050", "K20", "M40", "P100"] {
            assert!(out.contains(name), "{out}");
        }
    }

    #[test]
    fn analyze_produces_report() {
        let out = call("analyze --kernel atax --gpu k20 --n 128").unwrap();
        assert!(out.contains("static analysis"));
        assert!(out.contains("suggestion:"));
    }

    #[test]
    fn occupancy_panels() {
        let out = call("occupancy --gpu fermi --tc 192 --regs 27").unwrap();
        assert!(out.contains("occupancy vs block size"));
    }

    #[test]
    fn suggest_row() {
        let out = call("suggest --kernel matvec2d --gpu p100").unwrap();
        assert!(out.contains("T*={64,128,256,512,1024}"));
    }

    #[test]
    fn simulate_reports_time() {
        let out = call("simulate --kernel bicg --gpu m40 --n 64 --tc 256 --bc 24").unwrap();
        assert!(out.contains("model time"));
        assert!(out.contains("5th selected"));
    }

    #[test]
    fn disasm_is_parseable() {
        let out = call("disasm --kernel atax --gpu k20 --uif 2 --fast-math").unwrap();
        assert!(oriole_ir::text::parse(&out).is_ok());
    }

    #[test]
    fn tune_random_small() {
        let out =
            call("tune --kernel atax --gpu k20 --strategy random --budget 6 --sizes 32").unwrap();
        assert!(out.contains("best:"), "{out}");
    }

    #[test]
    fn tune_stats_prints_cache_telemetry() {
        // A store of its own, so every count is this run's alone.
        let dir = temp_store("stats");
        let out = call(&format!(
            "tune --kernel atax --gpu k20 --strategy random --budget 6 --sizes 32 --stats \
             --store-dir {dir}"
        ))
        .unwrap();
        let block: Vec<&str> = out.lines().skip_while(|l| !l.starts_with("cache stats")).collect();
        assert_eq!(block.len(), 6, "{out}");
        assert_eq!(
            block[1..4],
            [
                "  unique evaluations: 6 new, 6 in tier",
                "  front-end lowerings: 3 new, 3 in tier",
                "  disk tier: 0 loaded, 6 spilled",
            ],
            "{out}"
        );
        // Six points over five of the ten `(UIF, CFLAGS)` names: each
        // unrolled once, and the two pairs of `CFLAGS` twins among them
        // proven before lowering, so three programs are lowered and
        // register-allocated once each. Only the wall times vary from
        // run to run.
        let calls: Vec<(&str, &str)> = block[4]
            .trim_start_matches("  compile phases: ")
            .split(", ")
            .filter_map(|phase| Some((phase.split_once(' ')?.0, phase.split_once(" (")?.1)))
            .collect();
        let (five, three) = ("5 calls)", "3 calls)");
        assert_eq!(calls, [("unroll", five), ("lower", three), ("regalloc", three)], "{out}");
        assert_eq!(block[5], "  timing model: sim");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn models_lists_all_backends() {
        let out = call("models").unwrap();
        for name in ["sim", "static", "roofline"] {
            assert!(out.contains(name), "{out}");
        }
        assert!(out.contains("default"));
    }

    #[test]
    fn simulate_and_analyze_accept_model_flag() {
        let sim = call("simulate --kernel atax --gpu k20 --n 64 --model sim").unwrap();
        let roof = call("simulate --kernel atax --gpu k20 --n 64 --model roofline").unwrap();
        assert!(sim.contains("(model sim)"), "{sim}");
        assert!(roof.contains("(model roofline)"), "{roof}");
        let time_of = |s: &str| {
            s.lines()
                .find(|l| l.contains("model time"))
                .and_then(|l| l.split_whitespace().nth(2).map(str::to_string))
                .unwrap()
        };
        assert_ne!(time_of(&sim), time_of(&roof), "backends produce distinct estimates");

        let analyzed = call("analyze --kernel atax --gpu k20 --n 64 --model static").unwrap();
        assert!(analyzed.contains("timing model static"), "{analyzed}");
    }

    #[test]
    fn tune_runs_under_every_backend() {
        for model in ["sim", "static", "roofline"] {
            let out = call(&format!(
                "tune --kernel atax --gpu k20 --strategy random --budget 6 --sizes 32 \
                 --model {model} --stats"
            ))
            .unwrap();
            assert!(out.contains("best:"), "{out}");
            assert!(out.contains(&format!("model {model}")), "{out}");
            assert!(out.contains(&format!("timing model: {model}")), "{out}");
        }
    }

    #[test]
    fn unknown_model_errors_cleanly() {
        let err = call("simulate --kernel atax --gpu k20 --n 64 --model warp").unwrap_err();
        assert!(err.contains("unknown model"), "{err}");
        assert!(call("tune --kernel atax --gpu k20 --strategy random --model hw").is_err());
    }

    #[test]
    fn repeated_tune_invocations_share_the_process_store() {
        // Identical invocations in one process: the second run's
        // exhaustive sweep is served from the store (zero new unique
        // evaluations) and both report the identical best.
        let line = "tune --kernel bicg --gpu m40 --strategy exhaustive --sizes 32 --stats";
        let first = call(line).unwrap();
        let second = call(line).unwrap();
        // Identical best line; the second run computed nothing (the
        // per-run contribution lives in the --stats block, so the
        // result lines stay byte-identical across warm/cold runs).
        let best = |s: &str| s.lines().find(|l| l.starts_with("best:")).unwrap().to_string();
        assert_eq!(best(&first), best(&second));
        assert!(second.contains("unique evaluations: 0 new"), "{second}");
    }

    fn temp_store(tag: &str) -> String {
        let dir = std::env::temp_dir()
            .join(format!("oriole-cli-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn tune_with_store_dir_resumes_across_invocations() {
        let dir = temp_store("tune");
        let line = format!(
            "tune --kernel atax --gpu k20 --strategy exhaustive --sizes 32 --stats \
             --store-dir {dir}"
        );
        let first = call(&line).unwrap();
        assert!(first.contains("disk tier: 0 loaded"), "{first}");
        // The disk-backed store is rebuilt per invocation, so a warm
        // resume exercises the persistent tier, not process memory.
        let second = call(&line).unwrap();
        assert!(second.contains("unique evaluations: 0 new"), "{second}");
        assert!(
            second.contains("disk tier: 5120 loaded, 0 spilled"),
            "warm run serves the whole space from disk: {second}"
        );
        // Identical best line: result lines carry no run-to-run-variable
        // counters.
        let best = |s: &str| s.lines().find(|l| l.starts_with("best:")).unwrap().to_string();
        assert_eq!(best(&first), best(&second));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_stats_verify_and_gc_manage_the_directory() {
        let dir = temp_store("manage");
        call(&format!(
            "tune --kernel bicg --gpu k20 --strategy exhaustive --sizes 32 --store-dir {dir}"
        ))
        .unwrap();

        let stats = call(&format!("store stats --store-dir {dir}")).unwrap();
        assert!(stats.contains("bicg"), "{stats}");
        assert!(stats.contains("K20"), "{stats}");
        assert!(stats.contains("1 tier file(s)"), "{stats}");

        let verify = call(&format!("store verify --store-dir {dir}")).unwrap();
        assert!(verify.contains("0 problem(s)"), "{verify}");

        // Corrupt one record: verify fails, gc compacts, verify passes.
        let file = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.path().extension().is_some_and(|x| x == "orl"))
            .unwrap()
            .path();
        let content = std::fs::read_to_string(&file).unwrap();
        std::fs::write(&file, content.replacen("tc:64", "tc:65", 1)).unwrap();
        let err = call(&format!("store verify --store-dir {dir}")).unwrap_err();
        assert!(err.contains("REJECTED RECORDS"), "{err}");
        let gc = call(&format!("store gc --store-dir {dir}")).unwrap();
        assert!(gc.contains("dropped 1 rejected record(s)"), "{gc}");
        assert!(call(&format!("store verify --store-dir {dir}")).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_command_errors_cleanly() {
        assert!(call("store").is_err());
        assert!(call("store stats").is_err(), "missing --store-dir");
        assert!(call("store frobnicate --store-dir /tmp").is_err());
        assert!(call("store stats --store-dir /nonexistent-oriole-dir").is_err());
    }

    #[test]
    fn store_gc_dry_run_reports_without_touching_disk() {
        let dir = temp_store("dryrun");
        call(&format!(
            "tune --kernel atax --gpu k20 --strategy random --budget 6 --sizes 32 \
             --store-dir {dir}"
        ))
        .unwrap();
        // Damage one record so gc has something to plan.
        let file = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.path().extension().is_some_and(|x| x == "orl"))
            .unwrap()
            .path();
        let content = std::fs::read_to_string(&file).unwrap();
        std::fs::write(&file, content.replacen("feasible:1", "feasible:9", 1)).unwrap();
        let damaged = std::fs::read(&file).unwrap();

        let out = call(&format!("store gc --dry-run --store-dir {dir}")).unwrap();
        assert!(out.contains("would remove 0 unusable file(s)"), "{out}");
        assert!(out.contains("compact 1 file(s)"), "{out}");
        assert!(out.contains("drop 1 rejected record(s)"), "{out}");
        assert!(out.contains("nothing touched"), "{out}");
        assert_eq!(std::fs::read(&file).unwrap(), damaged, "dry run must not write");

        // The real gc then performs exactly the reported plan.
        let gc = call(&format!("store gc --store-dir {dir}")).unwrap();
        assert!(gc.contains("dropped 1 rejected record(s)"), "{gc}");
        assert!(call(&format!("store verify --store-dir {dir}")).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_dir_on_a_regular_file_errors_cleanly() {
        // Pointing --store-dir at an existing file must be a clear
        // error on every surface that takes the flag — never a panic,
        // never a silently memory-only run.
        let file = std::env::temp_dir()
            .join(format!("oriole-cli-notadir-{}", std::process::id()));
        std::fs::write(&file, "i am a file").unwrap();
        let path = file.to_string_lossy().into_owned();
        for line in [
            format!("tune --kernel atax --gpu k20 --strategy random --budget 2 --sizes 32 --store-dir {path}"),
            format!("serve --addr 127.0.0.1:0 --store-dir {path}"),
        ] {
            let err = call(&line).unwrap_err();
            assert!(err.contains("not a directory"), "`{line}` -> {err}");
        }
        assert_eq!(std::fs::read_to_string(&file).unwrap(), "i am a file");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn remote_and_store_dir_are_mutually_exclusive() {
        let line = "tune --kernel atax --gpu k20 --strategy random --remote 127.0.0.1:1 --store-dir /tmp/x";
        let err = call(line).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn remote_flag_validates_its_address_list() {
        let line = "tune --kernel atax --gpu k20 --strategy random \
                    --remote 127.0.0.1:1,127.0.0.1:2 --store-dir /tmp/x";
        let err = call(line).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let dup = call("tune --kernel atax --gpu k20 --strategy random --remote a,b,a")
            .unwrap_err();
        assert!(dup.contains("twice"), "{dup}");
        let empty = call("service stats --remote a,,b").unwrap_err();
        assert!(empty.contains("empty shard address"), "{empty}");
    }

    #[test]
    fn the_second_spellings_of_remote_evaluation_are_refused_by_name() {
        let tune = "tune --kernel atax --gpu k20 --strategy random --sizes 32 --budget 2";
        for (line, refusal) in [
            (format!("{tune} --fleet 127.0.0.1:1"), "unrecognised flag --fleet for `tune`"),
            (
                format!("{tune} --remote 127.0.0.1:1 --pipeline-depth 8"),
                "unrecognised flag --pipeline-depth for `tune`",
            ),
            (
                "service fleet-stats --fleet 127.0.0.1:1".to_string(),
                "unknown service action `fleet-stats`",
            ),
        ] {
            let err = call(&line).unwrap_err();
            assert!(err.contains(refusal), "`{line}`: {err}");
            assert!(!err.contains("evaluations"), "`{line}` ran: {err}");
        }
    }

    #[test]
    fn a_misspelt_flag_is_an_error_naming_it_and_nothing_runs() {
        let tune = "tune --kernel atax --gpu k20 --strategy random --sizes 32";
        let err = call(&format!("{tune} --budgte 8")).unwrap_err();
        assert!(err.contains("--budgte") && err.contains("`tune`"), "{err}");
        assert!(!err.contains("evaluations"), "nothing ran, nothing is reported: {err}");

        // A sweep that silently does not persist is the worst of these:
        // the misspelt directory is never created.
        let dir = std::env::temp_dir().join(format!("oriole-cli-typo-{}", std::process::id()));
        let err = call(&format!("{tune} --budget 2 --store-dri {}", dir.display())).unwrap_err();
        assert!(err.contains("--store-dri"), "{err}");
        assert!(!dir.exists());

        for (line, flag) in [
            (format!("{tune} --budget 2 --retires 0"), "--retires"),
            (format!("{tune} --budget 2 --modle static"), "--modle"),
            // Retired with the coalesce beat it set; a script still
            // passing it is told so by name.
            (format!("{tune} --budget 2 --remote 127.0.0.1:1 --flush-idle-us 200"), "--flush-idle-us"),
            ("simulate --kernel atax --gpu k20 --n 64 --budget 2".to_string(), "--budget"),
            // The in-flight cap is the protocol's, not a daemon knob.
            ("serve --addr not-an-address --pipeline-depth 4".to_string(), "--pipeline-depth"),
            ("analyze --kernel atax --gpu k20 --strategy random".to_string(), "--strategy"),
            ("gpus --csv".to_string(), "--csv"),
            ("serve --adr 127.0.0.1:0".to_string(), "--adr"),
            ("store stats --store-dir . --dry-run".to_string(), "--dry-run"),
            ("service ping --remote 127.0.0.1:1 --retires 0".to_string(), "--retires"),
        ] {
            let err = call(&line).unwrap_err();
            assert!(err.contains("unrecognised flag") && err.contains(flag), "`{line}`: {err}");
        }
    }

    #[test]
    fn every_flag_usage_prints_is_accepted_where_it_is_printed() {
        let dir = std::env::temp_dir().join(format!("oriole-cli-usage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("paper.spec");
        std::fs::write(&spec, oriole_tuner::spec::FIG3_SPEC).unwrap();
        let (dir, spec) = (dir.display().to_string(), spec.display().to_string());
        // Nothing listens on port 1: the dialing lines fail fast, past
        // flag checking, which is all this test asks of them.
        let (dead, fast) = ("127.0.0.1:1", "--rpc-timeout 50 --retries 0");
        let variant = "--tc 128 --bc 48 --uif 1 --pl 16 --sc 1 --fast-math";
        let tune = "tune --kernel atax --gpu k20 --sizes 32 --budget 2 --seed 1";
        let lines = [
            format!("analyze --kernel atax --gpu k20 --n 64 {variant} --model static"),
            "occupancy --gpu k20 --tc 256 --regs 27 --smem 3072".to_string(),
            format!("suggest --kernel atax --gpu k20 --n 64 {variant}"),
            format!("simulate --kernel atax --gpu k20 --n 64 {variant} --model sim"),
            format!("disasm --kernel atax --gpu k20 {variant}"),
            format!("{tune} --strategy hybrid --dial 0.5 --model roofline --csv --stats --store-dir {dir}"),
            format!("{tune} --strategy random --spec {spec}"),
            format!("{tune} --strategy random --remote {dead},127.0.0.1:2 {fast} --batch-points 8"),
            format!("store gc --store-dir {dir} --dry-run"),
            format!(
                "serve --addr not-an-address --store-dir {dir} --max-connections 1 --max-inflight 1 \
                 --request-timeout 10 --idle-timeout 10"
            ),
            format!("service ping --remote {dead} {fast}"),
        ];
        for line in &lines {
            if let Err(e) = call(line) {
                assert!(!e.contains("unrecognised flag"), "`{line}`: {e}");
            }
        }
        // `simulate` runs in-process only: its remote flags are refused
        // by name.
        let err = call(&format!("simulate --kernel atax --gpu k20 --n 64 --remote {dead} {fast}"))
            .unwrap_err();
        assert!(err.contains("unrecognised flag --remote for `simulate`"), "{err}");
        // ... and `lines` drives every flag the help text mentions.
        let driven = lines.join(" ");
        for word in usage().split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
            if word.starts_with("--") && word.len() > 2 {
                assert!(driven.contains(word), "usage() lists {word}; no line above drives it");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_tune_is_byte_identical_to_local_and_reports_fleet_stats() {
        let (a0, h0) = spawn_daemon();
        let (a1, h1) = spawn_daemon();
        let flags = "tune --kernel atax --gpu k20 --strategy random --budget 8 --sizes 32 --csv";
        let local = call(flags).unwrap();
        // Chunk small (--batch-points 2) so the steal path actually runs.
        let fleet = call(&format!("{flags} --remote {a0},{a1} --batch-points 2")).unwrap();
        assert_eq!(fleet, local, "fleet evaluation must be indistinguishable from local");
        // Warm re-run against the same fleet: still identical.
        let again = call(&format!("{flags} --remote {a0},{a1} --batch-points 2")).unwrap();
        assert_eq!(again, local);

        let stats = call(&format!("{flags} --remote {a0},{a1} --batch-points 2 --stats")).unwrap();
        assert!(stats.contains("fleet stats (2 shard(s))"), "{stats}");
        assert!(stats.contains("scheduler:"), "{stats}");
        assert!(stats.contains("chunk(s) dispatched"), "{stats}");
        assert!(stats.contains("shard 0"), "{stats}");
        assert!(stats.contains("shard 1"), "{stats}");

        // A sweep of many frames keeps several in flight on each
        // daemon's connection, and never more than the engine's window
        // of 8.
        let sweep = "tune --kernel atax --gpu k20 --strategy exhaustive --sizes 32";
        let deep = call(&format!("{sweep} --remote {a0},{a1} --batch-points 8")).unwrap();
        assert_eq!(deep, call(sweep).unwrap());
        let peaks: Vec<u64> = [&a0, &a1]
            .map(|a| Client::connect(a).expect("connect").stats().expect("stats").pipelined_peak)
            .to_vec();
        assert!(peaks.iter().any(|&p| p > 1), "no daemon saw a pipelined frame: {peaks:?}");
        assert!(peaks.iter().all(|&p| p <= 8), "deeper than the engine's window: {peaks:?}");

        // `service stats` reads each daemon in the order named.
        let svc = call(&format!("service stats --remote {a0},{a1}")).unwrap();
        let (at0, at1) = (format!("daemon at {a0}:\n"), format!("daemon at {a1}:\n"));
        assert!(svc.find(&at0).zip(svc.find(&at1)).is_some_and(|(i, j)| i < j), "{svc}");
        assert_eq!(svc.matches("unique evaluations").count(), 2, "{svc}");

        let bye = call(&format!("service shutdown --remote {a0},{a1}")).unwrap();
        assert_eq!(bye.matches("is shutting down").count(), 2, "{bye}");
        h0.join().expect("server 0");
        h1.join().expect("server 1");
    }

    #[test]
    fn an_address_and_a_manifest_naming_it_print_the_same_bytes_stats_included() {
        let (addr, handle) = spawn_daemon();
        let manifest = std::env::temp_dir()
            .join(format!("oriole-cli-manifest-{}.txt", std::process::id()));
        std::fs::write(&manifest, format!("# one daemon\n{addr}\n")).unwrap();
        let named = format!("@{}", manifest.display());
        let flags = "tune --kernel bicg --gpu k20 --strategy random --budget 8 --sizes 32 \
                     --batch-points 2 --csv --stats";
        // What `--stats` prints that differs between any two runs, of
        // either kind: wall-clock, and the daemon's lifetime counters.
        let masked = |out: String| -> String {
            let client_side = ["  client:", "  coalescing:", "  scheduler:"];
            out.lines()
                .map(|l| match l.rsplit_once("), ") {
                    Some((counts, _time)) if l.starts_with("  shard ") => counts,
                    _ if !l.starts_with("  ") || client_side.iter().any(|p| l.starts_with(p)) => l,
                    _ => l.split(':').next().expect("a label"),
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        // Cold, then warm: `computed remotely` is 8, then 0, both ways.
        // Each run adds one connection to the daemon's lifetime count:
        // its chunks and its closing `stats` ride the same one.
        let runs = [&addr, &addr, &named].map(|a| call(&format!("{flags} --remote {a}")).unwrap());
        for (i, run) in runs.iter().enumerate() {
            let line = format!("  server: {} connection(s),", i + 1);
            assert!(run.contains(&line), "{line} missing:\n{run}");
        }
        let [cold, inline, listed] = runs.map(masked);
        assert!(cold.contains("8 point(s) fetched, 8 computed remotely"), "{cold}");
        assert_eq!(inline, listed, "`--remote A` is `--remote @FILE` naming A");
        assert!(listed.contains("8 point(s) fetched, 0 computed remotely"), "{listed}");
        for label in ["remote service stats", "  coalescing:", "  scheduler:", "  shard 0", "  pool"] {
            assert!(listed.contains(label), "{label} missing:\n{listed}");
        }
        assert!(call(&format!("service shutdown --remote {named}")).is_ok());
        handle.join().expect("server thread");
        let _ = std::fs::remove_file(&manifest);
    }

    #[test]
    fn a_tune_through_a_fresh_daemon_opens_one_connection_to_it() {
        let flags = "tune --kernel atax --gpu k20 --strategy random --budget 4 --sizes 32 --stats";
        let (addr, handle) = spawn_daemon();
        let out = call(&format!("{flags} --remote {addr}")).unwrap();
        assert!(out.contains("  server: 1 connection(s),"), "{out}");
        assert!(call(&format!("service shutdown --remote {addr}")).is_ok());
        handle.join().expect("server thread");
    }

    #[test]
    fn fleet_stats_reports_unreachable_shards_without_failing() {
        let (addr, handle) = spawn_daemon();
        let fast = "--rpc-timeout 1000 --retries 0";
        let svc = call(&format!("service stats --remote {addr},127.0.0.1:9 {fast}")).unwrap();
        assert!(svc.starts_with(&format!("daemon at {addr}:\n  server:")), "{svc}");
        assert!(svc.contains("\ndaemon at 127.0.0.1:9: UNREACHABLE ("), "{svc}");
        // With none answering, `stats` fails; `ping` fails when any does.
        let none = call(&format!("service stats --remote 127.0.0.1:9 {fast}")).unwrap_err();
        assert!(none.contains("daemon at 127.0.0.1:9: UNREACHABLE"), "{none}");
        let ping = call(&format!("service ping --remote {addr},127.0.0.1:9 {fast}")).unwrap_err();
        assert!(ping.starts_with(&format!("daemon at {addr} is alive\n")), "{ping}");
        assert!(ping.contains("daemon at 127.0.0.1:9: UNREACHABLE"), "{ping}");
        assert!(call(&format!("service shutdown --remote {addr}")).is_ok());
        handle.join().expect("server thread");
    }

    #[test]
    fn remote_commands_error_cleanly_without_a_daemon() {
        // Port 9 (discard) on localhost: nothing is listening.
        let err = call(
            "tune --kernel atax --gpu k20 --strategy random --budget 2 --sizes 32 \
             --remote 127.0.0.1:9",
        )
        .unwrap_err();
        assert!(err.contains("remote evaluation failed") && err.contains("`127.0.0.1:9`"), "{err}");
        assert!(call("service ping --remote 127.0.0.1:9").is_err());
        assert!(call("service").is_err());
        assert!(call("service frobnicate --remote 127.0.0.1:9").is_err());
    }

    /// Spawns an in-process daemon (memory store) for remote-flag
    /// tests; returns its address and the serving thread handle.
    fn spawn_daemon() -> (String, std::thread::JoinHandle<()>) {
        let server =
            Server::bind("127.0.0.1:0", ArtifactStore::new()).expect("bind ephemeral port");
        let addr = server.local_addr().expect("local addr").to_string();
        let handle = std::thread::spawn(move || {
            server.run().expect("serve");
        });
        (addr, handle)
    }

    #[test]
    fn remote_tune_output_is_byte_identical_to_local() {
        let (addr, handle) = spawn_daemon();
        let flags = "tune --kernel atax --gpu k20 --strategy random --budget 8 --sizes 32 --csv";
        let local = call(flags).unwrap();
        let remote1 = call(&format!("{flags} --remote {addr}")).unwrap();
        let remote2 = call(&format!("{flags} --remote {addr}")).unwrap();
        assert_eq!(remote1, local, "remote evaluation must be indistinguishable");
        assert_eq!(remote2, local);

        // A warm remote run with --stats reports zero daemon-side
        // computations.
        let stats = call(&format!("{flags} --remote {addr} --stats")).unwrap();
        assert!(stats.contains("8 point(s) fetched, 0 computed remotely"), "{stats}");
        assert!(stats.contains("remote service stats"), "{stats}");

        assert!(call(&format!("service ping --remote {addr}")).unwrap().contains("alive"));
        let svc = call(&format!("service stats --remote {addr}")).unwrap();
        assert!(svc.contains("unique evaluations"), "{svc}");
        assert!(call(&format!("service shutdown --remote {addr}")).is_ok());
        handle.join().expect("server thread");
    }

    #[test]
    fn serve_rejects_zero_pool_bounds() {
        for line in [
            "serve --addr 127.0.0.1:0 --max-connections 0",
            "serve --addr 127.0.0.1:0 --max-inflight 0",
        ] {
            let err = call(line).unwrap_err();
            assert!(err.contains("at least 1"), "{err}");
        }
        // The pool `--max-inflight` sizes is named as `service stats`
        // names it, beside the protocol's own in-flight cap.
        let banner = serve_banner("127.0.0.1:7733", "memory-only store", &ServeConfig::default());
        assert!(banner.contains("16 worker(s), pipeline depth 32"), "{banner}");
        assert!(!banner.contains("in-flight"), "{banner}");
    }

    #[test]
    fn serve_refuses_a_pool_past_the_cap_before_opening_anything() {
        let dir = temp_store("serve-cap");
        for n in ["1025", "18446744073709551615"] {
            let line = format!("serve --addr 127.0.0.1:0 --store-dir {dir} --max-inflight {n}");
            let err = call(&line).unwrap_err();
            assert!(err.contains("--max-inflight must be at most 1024"), "{n}: {err}");
        }
        assert!(!Path::new(&dir).exists(), "a refused pool opens no store, so binds nothing");
    }

    #[test]
    fn remote_tune_rejects_zero_batch_points() {
        let line = "tune --kernel atax --gpu k20 --strategy random --remote 127.0.0.1:1 \
                    --batch-points 0";
        let err = call(line).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn remote_tune_batch_points_change_batching_not_results() {
        let (addr, handle) = spawn_daemon();
        let flags = "tune --kernel atax --gpu k20 --strategy random --budget 8 --sizes 32";
        let local = call(flags).unwrap();
        let knobbed = call(&format!("{flags} --remote {addr} --batch-points 2")).unwrap();
        assert_eq!(knobbed, local, "the batching knob must never change results");

        // The --stats block shows the coalescing and reactor telemetry.
        let stats = call(&format!("{flags} --remote {addr} --stats --batch-points 2")).unwrap();
        assert!(stats.contains("coalescing:"), "{stats}");
        assert!(stats.contains("point(s)/frame"), "{stats}");
        assert!(stats.contains("reactor:"), "{stats}");
        assert!(stats.contains("pipelined peak"), "{stats}");

        assert!(call(&format!("service shutdown --remote {addr}")).is_ok());
        handle.join().expect("server thread");
    }

    #[test]
    fn service_stats_reports_pool_counters() {
        let (addr, handle) = spawn_daemon();
        let svc = call(&format!("service stats --remote {addr}")).unwrap();
        assert!(svc.contains("pool:"), "{svc}");
        assert!(svc.contains("worker(s) busy"), "{svc}");
        assert!(svc.contains("shed busy"), "{svc}");
        assert!(svc.contains("reaped idle"), "{svc}");
        assert!(svc.contains("reactor:"), "{svc}");
        assert!(svc.contains("connection(s) open"), "{svc}");
        assert!(svc.contains("frame(s) in flight"), "{svc}");
        assert!(svc.contains("wakeup(s)"), "{svc}");

        // The remote --stats block of a tune reports the same counters.
        let stats = call(&format!(
            "tune --kernel atax --gpu k20 --strategy random --budget 2 --sizes 32 \
             --stats --remote {addr}"
        ))
        .unwrap();
        assert!(stats.contains("pool:"), "{stats}");

        assert!(call(&format!("service shutdown --remote {addr}")).is_ok());
        handle.join().expect("server thread");
    }

    #[test]
    fn remote_commands_accept_deadline_and_retry_flags() {
        let (addr, handle) = spawn_daemon();
        let flags = "tune --kernel atax --gpu k20 --strategy random --budget 8 --sizes 32 --csv";
        let local = call(flags).unwrap();
        let remote =
            call(&format!("{flags} --remote {addr} --rpc-timeout 5000 --retries 2")).unwrap();
        assert_eq!(remote, local, "policy flags must not change results");
        assert!(call(&format!("service shutdown --remote {addr}")).is_ok());
        handle.join().expect("server thread");

        // Fail-fast against a dead daemon stays a clean error naming it.
        let err = call(&format!("{flags} --remote 127.0.0.1:9 --retries 0")).unwrap_err();
        assert!(err.contains("remote evaluation failed") && err.contains("`127.0.0.1:9`"), "{err}");
    }

    #[test]
    fn simulate_refuses_store_dir_and_creates_nothing() {
        // A simulation reads and writes no tier: the flag is refused,
        // not accepted and then ignored.
        let dir = temp_store("simulate");
        let err = call(&format!("simulate --kernel atax --gpu k20 --n 64 --store-dir {dir}"))
            .unwrap_err();
        assert!(err.contains("unrecognised flag --store-dir"), "{err}");
        assert!(!Path::new(&dir).exists(), "a refused flag opens no directory");
    }

    #[test]
    fn tune_seed_reproduces_output_byte_for_byte() {
        for strategy in ["random", "anneal", "genetic"] {
            let line = format!(
                "tune --kernel atax --gpu k20 --strategy {strategy} --budget 8 --sizes 32 \
                 --seed 123 --csv"
            );
            assert_eq!(call(&line).unwrap(), call(&line).unwrap(), "{strategy}");
            let reseeded = call(&line.replace("--seed 123", "--seed 124")).unwrap();
            assert_ne!(
                call(&line).unwrap(),
                reseeded,
                "{strategy}: a different --seed must explore differently"
            );
        }
    }

    #[test]
    fn tune_static_reports_pruning() {
        let out = call("tune --kernel atax --gpu k20 --strategy static-rules --sizes 32")
            .unwrap();
        assert!(out.contains("static pruning: 5120 -> 320"), "{out}");
    }

    #[test]
    fn tune_hybrid_reports_validation() {
        let out = call(
            "tune --kernel atax --gpu k20 --strategy hybrid --dial 0.01 --sizes 32",
        )
        .unwrap();
        assert!(out.contains("hybrid dial 1%"), "{out}");
        assert!(out.contains("prediction agreement"), "{out}");
        assert!(out.contains("best:"), "{out}");
    }

    #[test]
    fn bad_inputs_error_cleanly() {
        assert!(call("analyze --kernel gemm --gpu k20").is_err());
        assert!(call("analyze --kernel atax --gpu volta").is_err());
        assert!(call("frobnicate").is_err());
        assert!(call("tune --kernel atax --gpu k20 --strategy magic").is_err());
        assert!(call("simulate --kernel atax --gpu k20 --pl 32").is_err());
        // u32::MAX trials parse; they used to be drawn and stored.
        let err = call("simulate --kernel atax --gpu k20 --trials 4294967295").unwrap_err();
        assert!(err.contains("--trials"), "{err}");
        assert!(call(&format!("simulate --kernel atax --gpu k20 --trials {MAX_TRIALS}")).is_ok());
    }
}
