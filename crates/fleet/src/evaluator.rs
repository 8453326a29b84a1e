//! The fleet Oracle: one worker thread per shard executing the
//! work-stealing schedule through the fault-hardened service client,
//! results merged positionally so the output is byte-identical to a
//! local run regardless of who computed what.

use crate::sched::StealScheduler;
use crate::spec::FleetSpec;
use oriole_codegen::TuningParams;
use oriole_service::{Client, EvalScope, RetryPolicy, ServiceError};
use oriole_tuner::{Measurement, Oracle};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// What one shard did during a fleet run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardTelemetry {
    /// The daemon's address.
    pub addr: String,
    /// Chunks initially enqueued on this shard (it was the scope's
    /// home, or inherited a dead home's dispatch).
    pub dispatched: u64,
    /// Chunks this shard's worker completed.
    pub completed: u64,
    /// Chunks this shard took from another shard's queue tail.
    pub stolen: u64,
    /// Chunks drained off this shard when it was declared lost.
    pub rebalanced_away: u64,
    /// Whether the shard was declared lost (its client exhausted the
    /// retry policy on a transient failure).
    pub lost: bool,
    /// Wall-clock this shard's worker spent inside `evaluate` RPCs —
    /// the per-shard latency aggregate.
    pub eval_time: Duration,
}

/// The work-stealing scheduler's run totals ([`FleetStats::counters`]),
/// the numbers behind the fleet lines of `tune --stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetCounters {
    /// Shards in the fleet.
    pub shards: u64,
    /// Point-chunks dispatched to their home shard's queue.
    pub batches_dispatched: u64,
    /// Point-chunks stolen by an idle shard from another's tail.
    pub batches_stolen: u64,
    /// Point-chunks rebalanced off a lost shard onto survivors.
    pub batches_rebalanced: u64,
    /// Shards that were declared lost during the run.
    pub shards_lost: u64,
}

/// Fleet-level telemetry: per-shard counters plus run totals
/// ([`FleetStats::counters`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FleetStats {
    /// One entry per shard, in [`FleetSpec`] order.
    pub shards: Vec<ShardTelemetry>,
    /// Point-chunks scheduled across all batches.
    pub chunks: u64,
    /// Distinct points fetched over the wire (client-side misses).
    pub points_fetched: u64,
    /// Points the daemons computed fresh (0 on fully warm stores).
    pub computed_remote: u64,
}

impl FleetStats {
    /// The run totals across shards.
    pub fn counters(&self) -> FleetCounters {
        FleetCounters {
            shards: self.shards.len() as u64,
            batches_dispatched: self.chunks,
            batches_stolen: self.shards.iter().map(|s| s.stolen).sum(),
            batches_rebalanced: self.shards.iter().map(|s| s.rebalanced_away).sum(),
            shards_lost: self.shards.iter().filter(|s| s.lost).count() as u64,
        }
    }
}

/// Shared per-batch scheduling state, updated under one lock by every
/// worker.
struct BatchState {
    sched: StealScheduler,
    /// Chunk results by chunk index — the merge key that makes output
    /// order independent of the steal schedule.
    results: Vec<Option<(u64, Vec<Measurement>)>>,
    resolved: usize,
    /// A deterministic failure (or total fleet loss), fatal to the
    /// whole batch: every shard would answer a deterministic error the
    /// same way, so rebalancing cannot help.
    failed: Option<String>,
}

/// A fleet [`Oracle`]: evaluates one experiment scope across N `oriole
/// serve` daemons, each owning a disjoint store directory.
///
/// A batch's cache misses are chunked, enqueued on the scope's home
/// shard ([`FleetSpec::home_shard`]), and executed by one worker per
/// shard: idle workers steal from the busiest queue's tail, and a
/// worker whose client exhausts its retry policy retires its shard —
/// the queue (and the chunk it was holding) rebalances onto survivors.
/// Each chunk rides the fault-hardened [`Client`] (internal retries,
/// positional verification), and results merge **by chunk index**, so
/// the answer is bit-identical to a local run no matter which shard
/// computed what — scheduling shows up only in [`FleetStats`].
///
/// Like [`RemoteEvaluator`](oriole_service::RemoteEvaluator), the
/// oracle contract has no error channel, so a batch-fatal failure is
/// **latched**: the batch scores `f64::INFINITY`, every later query
/// short-circuits, and drivers must check [`FleetEvaluator::take_error`]
/// after the search. A shard lost mid-run is *not* fatal while any
/// shard survives — that is the point of the fleet.
pub struct FleetEvaluator {
    spec: FleetSpec,
    scope: EvalScope,
    policy: RetryPolicy,
    chunk_points: usize,
    cache: Mutex<HashMap<TuningParams, Measurement>>,
    /// Shards declared lost in earlier batches stay lost for the run
    /// (their daemons exhausted a whole retry policy; re-probing them
    /// every batch would stall each one on the same timeouts).
    lost: Mutex<Vec<bool>>,
    telemetry: Mutex<FleetStats>,
    error: Mutex<Option<String>>,
    poisoned: AtomicBool,
}

impl FleetEvaluator {
    /// A fleet evaluator over `scope` with the given retry policy and
    /// points per chunk (the work-stealing granule; clamped to ≥ 1).
    pub fn with_policy(
        spec: FleetSpec,
        scope: EvalScope,
        policy: RetryPolicy,
        chunk_points: usize,
    ) -> FleetEvaluator {
        let n = spec.len();
        let telemetry = FleetStats {
            shards: spec
                .shards()
                .iter()
                .map(|a| ShardTelemetry { addr: a.clone(), ..ShardTelemetry::default() })
                .collect(),
            ..FleetStats::default()
        };
        FleetEvaluator {
            spec,
            scope,
            policy,
            chunk_points: chunk_points.max(1),
            cache: Mutex::new(HashMap::new()),
            lost: Mutex::new(vec![false; n]),
            telemetry: Mutex::new(telemetry),
            error: Mutex::new(None),
            poisoned: AtomicBool::new(false),
        }
    }

    /// A snapshot of the fleet telemetry so far.
    pub fn stats(&self) -> FleetStats {
        self.telemetry.lock().expect("telemetry lock").clone()
    }

    /// The latched batch-fatal failure, if any — same contract as
    /// [`RemoteEvaluator::take_error`](oriole_service::RemoteEvaluator::take_error):
    /// drivers must check after a search and treat `Some` as an
    /// aborted run; taking the message does not revive the evaluator.
    pub fn take_error(&self) -> Option<String> {
        self.error.lock().expect("error lock").take()
    }

    fn latch_error(&self, message: String) {
        self.poisoned.store(true, Ordering::SeqCst);
        let mut slot = self.error.lock().expect("error lock");
        if slot.is_none() {
            *slot = Some(message);
        }
    }

    /// Evaluates one point (memoized client-side). `None` after a
    /// latched fleet failure.
    pub(crate) fn evaluate(&self, params: TuningParams) -> Option<Measurement> {
        self.evaluate_batch(&[params]).map(|mut v| v.remove(0))
    }

    /// Evaluates a batch across the fleet: misses are chunked and
    /// scheduled work-stealingly, results return in input order,
    /// bit-identical to local evaluation. `None` on a latched fleet
    /// failure (deterministic daemon error, or every shard lost).
    pub fn evaluate_batch(&self, points: &[TuningParams]) -> Option<Vec<Measurement>> {
        if self.poisoned.load(Ordering::SeqCst) {
            return None;
        }
        let misses: Vec<TuningParams> = {
            let cache = self.cache.lock().expect("fleet cache lock");
            let mut seen = std::collections::HashSet::new();
            points
                .iter()
                .filter(|p| !cache.contains_key(p) && seen.insert(**p))
                .copied()
                .collect()
        };
        if !misses.is_empty() && !self.fetch(&misses) {
            return None;
        }
        let cache = self.cache.lock().expect("fleet cache lock");
        Some(points.iter().map(|p| cache[p].clone()).collect())
    }

    /// Schedules and executes one batch of misses. Returns false when
    /// the batch failed (error latched).
    fn fetch(&self, misses: &[TuningParams]) -> bool {
        let chunks: Vec<&[TuningParams]> = misses.chunks(self.chunk_points).collect();
        let n = self.spec.len();
        let home = self.spec.home_shard(&self.scope);

        let mut sched = StealScheduler::new(n);
        for (shard, was_lost) in self.lost.lock().expect("lost lock").iter().enumerate() {
            if *was_lost {
                sched.retire(shard, None);
            }
        }
        if sched.live_count() == 0 {
            self.latch_error(format!("all {n} fleet shards are lost"));
            return false;
        }
        for c in 0..chunks.len() {
            sched.enqueue(home, c);
        }
        {
            let mut t = self.telemetry.lock().expect("telemetry lock");
            t.chunks += chunks.len() as u64;
            // Dispatch lands on the home shard, or its live successor
            // when the home is already lost — mirror enqueue's rule.
            let target = (0..n).map(|off| (home + off) % n).find(|&s| sched.is_live(s));
            if let Some(s) = target {
                t.shards[s].dispatched += chunks.len() as u64;
            }
        }

        let state = Mutex::new(BatchState {
            sched,
            results: vec![None; chunks.len()],
            resolved: 0,
            failed: None,
        });
        let woke = Condvar::new();
        std::thread::scope(|s| {
            for shard in 0..n {
                let state = &state;
                let woke = &woke;
                let chunks = &chunks;
                s.spawn(move || self.worker(shard, chunks, state, woke));
            }
        });

        let st = state.into_inner().expect("batch state lock");
        if let Some(msg) = st.failed {
            self.latch_error(msg);
            return false;
        }
        debug_assert_eq!(st.resolved, chunks.len());
        let mut computed_total = 0u64;
        {
            let mut cache = self.cache.lock().expect("fleet cache lock");
            // Merge in chunk-index order: positional, schedule-blind.
            for r in st.results {
                let (computed, ms) = r.expect("no failure means every chunk resolved");
                computed_total += computed;
                for m in ms {
                    cache.insert(m.params, m);
                }
            }
        }
        let mut t = self.telemetry.lock().expect("telemetry lock");
        t.points_fetched += misses.len() as u64;
        t.computed_remote += computed_total;
        true
    }

    /// One shard's worker: drains the schedule through a lazily-dialed
    /// persistent [`Client`] until the batch resolves, the shard is
    /// retired, or the batch fails.
    fn worker(
        &self,
        shard: usize,
        chunks: &[&[TuningParams]],
        state: &Mutex<BatchState>,
        woke: &Condvar,
    ) {
        let mut client: Option<Client> = None;
        loop {
            let task = {
                let mut st = state.lock().expect("batch state lock");
                loop {
                    if st.failed.is_some() || st.resolved == chunks.len() {
                        return;
                    }
                    if !st.sched.is_live(shard) {
                        return;
                    }
                    match st.sched.next_for(shard) {
                        Some(t) => break t,
                        None => {
                            // Idle but the batch is unresolved: work may
                            // still rebalance onto this queue if another
                            // shard dies. The timeout only guards a
                            // missed wakeup.
                            let (guard, _) = woke
                                .wait_timeout(st, Duration::from_millis(20))
                                .expect("batch state wait");
                            st = guard;
                        }
                    }
                }
            };
            if task.stolen_from.is_some() {
                self.telemetry.lock().expect("telemetry lock").shards[shard].stolen += 1;
            }
            let started = Instant::now();
            let outcome = (|| -> Result<(u64, Vec<Measurement>), ServiceError> {
                if client.is_none() {
                    client =
                        Some(Client::connect_with(&self.spec.shards()[shard], self.policy)?);
                }
                let c = client.as_ref().expect("client just ensured");
                // Client::evaluate retries transient failures per the
                // policy and verifies the positional contract — by the
                // time an error reaches us, the policy is exhausted.
                c.evaluate(&self.scope, chunks[task.chunk])
            })();
            match outcome {
                Ok((computed, measurements)) => {
                    {
                        let mut t = self.telemetry.lock().expect("telemetry lock");
                        t.shards[shard].completed += 1;
                        t.shards[shard].eval_time += started.elapsed();
                    }
                    let mut st = state.lock().expect("batch state lock");
                    st.results[task.chunk] = Some((computed, measurements));
                    st.resolved += 1;
                    woke.notify_all();
                }
                Err(e) if e.is_transient() => {
                    // The shard is slow-to-dead past a whole retry
                    // policy: retire it and rebalance its queue (and
                    // the chunk in hand) onto survivors. Dedup makes
                    // any replays bit-identical.
                    self.lost.lock().expect("lost lock")[shard] = true;
                    let mut st = state.lock().expect("batch state lock");
                    let moved = st.sched.retire(shard, Some(task.chunk));
                    if st.sched.live_count() == 0 && st.failed.is_none() {
                        st.failed = Some(format!(
                            "all {} fleet shards lost; last shard `{}` failed with: {e}",
                            self.spec.len(),
                            self.spec.shards()[shard]
                        ));
                    }
                    drop(st);
                    {
                        let mut t = self.telemetry.lock().expect("telemetry lock");
                        t.shards[shard].lost = true;
                        t.shards[shard].rebalanced_away += moved as u64;
                    }
                    woke.notify_all();
                    return;
                }
                Err(e) => {
                    // Deterministic (unknown kernel, protocol skew):
                    // every shard would answer the same way — abort the
                    // batch instead of replaying the error N times.
                    let mut st = state.lock().expect("batch state lock");
                    if st.failed.is_none() {
                        st.failed =
                            Some(format!("shard `{}`: {e}", self.spec.shards()[shard]));
                    }
                    drop(st);
                    woke.notify_all();
                    return;
                }
            }
        }
    }
}

impl Oracle for FleetEvaluator {
    fn eval(&self, params: TuningParams) -> f64 {
        self.evaluate(params).map_or(f64::INFINITY, |m| m.time_ms)
    }

    fn eval_many(&self, points: &[TuningParams]) -> Vec<f64> {
        match self.evaluate_batch(points) {
            Some(ms) => ms.into_iter().map(|m| m.time_ms).collect(),
            None => vec![f64::INFINITY; points.len()],
        }
    }
}

impl std::fmt::Debug for FleetEvaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetEvaluator")
            .field("shards", &self.spec.shards())
            .field("kernel", &self.scope.kernel)
            .field("chunk_points", &self.chunk_points)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oriole_arch::{Gpu, GpuSpec};
    use oriole_kernels::KernelId;
    use oriole_service::{ServeSummary, Server};
    use oriole_tuner::{ArtifactStore, EvalProtocol, Evaluator, SearchSpace};
    use std::thread::JoinHandle;

    fn spawn_server() -> (String, JoinHandle<ServeSummary>) {
        let server = Server::bind("127.0.0.1:0", ArtifactStore::new()).expect("bind");
        let addr = server.local_addr().expect("local addr").to_string();
        let handle = std::thread::spawn(move || server.run().expect("serve"));
        (addr, handle)
    }

    fn scope(kernel: &str, gpu: &GpuSpec, sizes: &[u64]) -> EvalScope {
        EvalScope {
            kernel: kernel.to_string(),
            gpu: gpu.clone(),
            sizes: sizes.to_vec(),
            protocol: EvalProtocol::default(),
        }
    }

    fn local_sweep(kid: KernelId, gpu: &GpuSpec, sizes: &[u64]) -> Vec<Measurement> {
        let space = SearchSpace::tiny();
        let builder = move |n: u64| kid.ast(n);
        let ev = Evaluator::new(&builder, gpu, sizes);
        ev.evaluate_space(&space).iter().map(|m| (**m).clone()).collect()
    }

    /// An address that refuses connections: bind, snapshot, drop.
    fn dead_addr() -> String {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    }

    /// A policy that declares a shard dead quickly, so dead-shard tests
    /// stay fast.
    fn impatient() -> RetryPolicy {
        RetryPolicy {
            max_retries: 1,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(10),
            rpc_timeout: Duration::from_secs(5),
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn fleet_sweep_is_bit_identical_to_local_and_steals_across_shards() {
        let gpu = Gpu::K20.spec();
        let sizes = [64u64];
        let local = local_sweep(KernelId::Atax, gpu, &sizes);
        let points: Vec<TuningParams> = SearchSpace::tiny().iter().collect();

        let (a0, h0) = spawn_server();
        let (a1, h1) = spawn_server();
        let spec = FleetSpec::from_addrs(vec![a0.clone(), a1.clone()]).expect("spec");
        // Chunk small so there are many granules to steal.
        let fleet =
            FleetEvaluator::with_policy(spec, scope("atax", gpu, &sizes), impatient(), 2);

        let times = fleet.eval_many(&points);
        assert_eq!(times.len(), local.len());
        for (t, l) in times.iter().zip(&local) {
            assert_eq!(t.to_bits(), l.time_ms.to_bits(), "fleet diverged from local");
        }
        // Warm re-run: served from the client-side memo, same bits.
        assert_eq!(fleet.eval_many(&points), times);
        assert!(fleet.take_error().is_none());

        let stats = fleet.stats();
        let counters = stats.counters();
        assert_eq!(counters.shards, 2);
        assert_eq!(counters.shards_lost, 0);
        let completed: u64 = stats.shards.iter().map(|s| s.completed).sum();
        assert_eq!(completed, stats.chunks, "every chunk completed exactly once");
        assert!(
            stats.shards.iter().all(|s| s.completed > 0),
            "both shards must participate (stealing works): {stats:?}"
        );
        assert!(counters.batches_stolen > 0, "non-home shard only gets work by stealing");

        for addr in [a0, a1] {
            Client::connect(&addr).expect("connect").shutdown().expect("shutdown");
        }
        h0.join().expect("server 0");
        h1.join().expect("server 1");
    }

    #[test]
    fn dead_home_shard_rebalances_and_the_answer_is_still_bit_identical() {
        let gpu = Gpu::M40.spec();
        let sizes = [32u64];
        let local = local_sweep(KernelId::Bicg, gpu, &sizes);
        let points: Vec<TuningParams> = SearchSpace::tiny().iter().collect();
        let sc = scope("bicg", gpu, &sizes);

        let (live, handle) = spawn_server();
        // Place the dead address at the scope's home index, so the
        // dispatch queue itself must rebalance (the harder path).
        let probe = FleetSpec::from_addrs(vec!["a".into(), "b".into()]).expect("probe");
        let home = probe.home_shard(&sc);
        let mut addrs = vec![String::new(), String::new()];
        addrs[home] = dead_addr();
        addrs[1 - home] = live.clone();
        let spec = FleetSpec::from_addrs(addrs).expect("spec");
        let fleet = FleetEvaluator::with_policy(spec, sc, impatient(), 2);

        let times = fleet.eval_many(&points);
        for (t, l) in times.iter().zip(&local) {
            assert_eq!(t.to_bits(), l.time_ms.to_bits(), "rebalanced fleet diverged");
        }
        assert!(fleet.take_error().is_none(), "one survivor means no fleet failure");

        let stats = fleet.stats();
        assert!(stats.shards[home].lost, "dead home must be declared lost");
        assert!(
            stats.shards[home].rebalanced_away > 0,
            "the home queue must have drained to the survivor: {stats:?}"
        );
        assert_eq!(stats.counters().shards_lost, 1);

        Client::connect(&live).expect("connect").shutdown().expect("shutdown");
        handle.join().expect("server");
    }

    #[test]
    fn every_shard_dead_latches_a_fleet_failure() {
        let spec =
            FleetSpec::from_addrs(vec![dead_addr(), dead_addr()]).expect("spec");
        let gpu = Gpu::K20.spec();
        let fleet = FleetEvaluator::with_policy(
            spec,
            scope("atax", gpu, &[64]),
            RetryPolicy {
                max_retries: 0,
                base_backoff: Duration::from_millis(1),
                ..RetryPolicy::default()
            },
            4,
        );
        let points: Vec<TuningParams> = SearchSpace::tiny().iter().take(3).collect();
        assert_eq!(fleet.eval_many(&points), vec![f64::INFINITY; 3]);
        let err = fleet.take_error().expect("total loss must latch");
        assert!(err.contains("lost"), "error should say the fleet is lost: {err}");
        // Latched: later queries short-circuit to infinity.
        assert_eq!(fleet.eval(points[0]), f64::INFINITY);
    }

    #[test]
    fn deterministic_daemon_errors_abort_instead_of_rebalancing() {
        let (a0, h0) = spawn_server();
        let (a1, h1) = spawn_server();
        let gpu = Gpu::K20.spec();
        let spec = FleetSpec::from_addrs(vec![a0.clone(), a1.clone()]).expect("spec");
        let fleet = FleetEvaluator::with_policy(
            spec,
            scope("no-such-kernel", gpu, &[64]),
            impatient(),
            2,
        );
        let points: Vec<TuningParams> = SearchSpace::tiny().iter().take(4).collect();
        assert_eq!(fleet.eval_many(&points), vec![f64::INFINITY; 4]);
        let err = fleet.take_error().expect("unknown kernel must latch");
        assert!(err.contains("no-such-kernel"), "error should carry the cause: {err}");
        let stats = fleet.stats();
        assert_eq!(
            stats.counters().shards_lost,
            0,
            "a deterministic error must not retire shards: {stats:?}"
        );

        for addr in [a0, a1] {
            Client::connect(&addr).expect("connect").shutdown().expect("shutdown");
        }
        h0.join().expect("server 0");
        h1.join().expect("server 1");
    }
}
