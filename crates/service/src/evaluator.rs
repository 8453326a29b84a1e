//! The remote evaluation engine: [`RemoteEvaluator`], one experiment
//! scope evaluated through N ≥ 1 daemons. `tune --remote A` is the
//! one-shard case of `tune --remote A,B,…`; there is no second code
//! path. Scheduling shows up only in [`FleetStats`], never in the data.

use crate::client::{evaluate_answer, Client, Pipeline, RetryPolicy, ServiceError, Ticket};
use crate::protocol::{EvalScope, Request};
use crate::sched::StealScheduler;
use oriole_codegen::TuningParams;
use oriole_tuner::{Measurement, Oracle, WordHash};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// `evaluate` frames a shard's worker keeps in flight on its daemon's
/// connection, below the pipeline's cap of
/// [`MAX_IN_FLIGHT`](crate::protocol::MAX_IN_FLIGHT).
const WINDOW: usize = 8;

/// What one shard did over an evaluator's life.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardTelemetry {
    /// The daemon's address.
    pub addr: String,
    /// Chunks this shard's worker completed — `evaluate` frames
    /// answered.
    pub completed: u64,
    /// Chunks this shard took from another shard's queue tail.
    pub stolen: u64,
    /// Chunks drained off this shard when it was declared lost.
    pub rebalanced_away: u64,
    /// Whether the shard was declared lost (its worker exhausted the
    /// retry policy on a transient failure).
    pub lost: bool,
    /// Wall-clock this shard's worker spent sending frames and waiting
    /// for their answers — the per-shard latency aggregate.
    pub eval_time: Duration,
}

/// The work-stealing scheduler's run totals ([`FleetStats::counters`]),
/// the numbers behind the scheduler line of `tune --stats`.
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

/// The engine's telemetry: per-shard counters plus run totals
/// ([`FleetStats::counters`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FleetStats {
    /// One entry per shard, in shard-index order.
    pub shards: Vec<ShardTelemetry>,
    /// Point-chunks scheduled across all batches.
    pub chunks: u64,
    /// Distinct points fetched over the wire (client-side misses).
    pub points_fetched: u64,
    /// Points the daemons computed fresh (0 on fully warm stores).
    pub computed_remote: u64,
    /// The largest point count any single frame carried.
    pub peak_batch: u64,
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

/// The client-side memo and the latch.
#[derive(Debug, Default)]
struct Memo {
    /// Every answer fetched so far; revisits are served from here.
    answers: HashMap<TuningParams, Measurement, WordHash>,
    /// The latch: set by the first batch-fatal failure, never cleared.
    poisoned: bool,
    /// That failure's message, until [`RemoteEvaluator::take_error`].
    error: Option<String>,
}

impl Memo {
    /// The batch's answers in input order, or `None` while one is
    /// missing.
    fn answer(&self, points: &[TuningParams]) -> Option<Vec<Measurement>> {
        let mut out = Vec::with_capacity(points.len());
        for p in points {
            out.push(self.answers.get(p)?.clone());
        }
        Some(out)
    }
}

/// One turn's schedule, shared by its workers.
struct Batch<'a> {
    chunks: Vec<&'a [TuningParams]>,
    /// Chunks a worker may hold at once.
    window: usize,
    state: Mutex<BatchState>,
}

/// A worker's chunks claimed and not yet answered, oldest first, each
/// with its ticket once sent.
type Hand = VecDeque<(usize, Option<Ticket>)>;

struct BatchState {
    sched: StealScheduler,
    /// Chunk results by chunk index — the merge key that makes output
    /// order independent of the steal schedule.
    results: Vec<Option<(u64, Vec<Measurement>)>>,
    resolved: usize,
    /// A deterministic failure (or the loss of every shard), fatal to
    /// the whole batch: every shard would answer a deterministic error
    /// the same way, so rebalancing cannot help.
    failed: Option<String>,
}

/// A remote [`Oracle`]: one experiment scope evaluated through one or
/// more `oriole serve` daemons, so every search strategy runs unchanged
/// against them. Revisits (stochastic searchers revisit constantly) are
/// served from a client-side memo without touching the network. A
/// batch's misses are cut into frames of at most `chunk_points` points
/// (a daemon's workers parallelize *within* one logical batch, and a
/// frame is the granule shards steal), enqueued on the scope's home
/// shard and drained by one worker per live shard, each keeping up to
/// 8 frames in flight on its shard's connection; idle workers steal
/// from the busiest queue's tail, and results merge **by chunk index**,
/// so the answer is bit-identical to a local run no matter which shard
/// computed what.
///
/// Threads sharing an evaluator **take turns**: a batch the memo
/// answers whole is answered at once, and any other waits for the turn,
/// re-reads the memo and fetches only what is still missing, so a point
/// is never fetched twice and one fetch runs at a time. Results are
/// bit-identical to sequential one-at-a-time evaluation — the daemons'
/// stores dedup, the wire format is exact, and the memo is keyed by
/// point, so scheduling never shows in the data.
///
/// A shard *is* a [`Client`]: its connection is dialed by the first
/// chunk sent (or by [`Client::connect`]) and kept across batches, and
/// side-channel calls ([`RemoteEvaluator::client`]) share it. Transient
/// RPC failures are healed by redialing and resending under the
/// client's [`RetryPolicy`], each retry counted in [`Client::retries`];
/// a shard that outlasts the policy is retired for the evaluator's life
/// and its chunks rebalance. The oracle
/// contract has no error channel, so a *final* failure — a
/// deterministic daemon error, or the last live shard lost — is
/// **latched**: the failing batch scores `f64::INFINITY`, every later
/// query short-circuits the same way, and the driver must check
/// [`RemoteEvaluator::take_error`] after the search — a lost daemon
/// aborts the run loudly instead of silently returning garbage winners.
#[derive(Debug)]
pub struct RemoteEvaluator {
    shards: Vec<Client>,
    /// Where a batch's chunks first enqueue.
    home: usize,
    scope: EvalScope,
    /// Points per `evaluate` frame.
    chunk_points: usize,
    memo: Mutex<Memo>,
    /// Held across a fetch: the turn threads sharing the evaluator take.
    turn: Mutex<()>,
    telemetry: Mutex<FleetStats>,
}

impl RemoteEvaluator {
    /// Points per `evaluate` frame when the caller names none.
    pub const DEFAULT_CHUNK_POINTS: usize = 64;

    /// A one-daemon evaluator over `scope`, speaking to `client`'s
    /// daemon under `client`'s policy, in frames of
    /// [`DEFAULT_CHUNK_POINTS`](Self::DEFAULT_CHUNK_POINTS).
    pub fn new(client: Client, scope: EvalScope) -> RemoteEvaluator {
        RemoteEvaluator::assemble(vec![client], 0, scope, Self::DEFAULT_CHUNK_POINTS)
    }

    /// An evaluator over the daemons at `addrs`, none dialed until it
    /// is handed work, in frames of at most `chunk_points` points; a
    /// batch's chunks first enqueue on `addrs[home]`. Panics unless
    /// `home` indexes `addrs`.
    pub fn over_shards(
        addrs: &[String],
        home: usize,
        scope: EvalScope,
        policy: RetryPolicy,
        chunk_points: usize,
    ) -> RemoteEvaluator {
        assert!(home < addrs.len(), "home shard {home} of {} shard(s)", addrs.len());
        let clients = addrs.iter().map(|a| Client::undialed(a, policy)).collect();
        RemoteEvaluator::assemble(clients, home, scope, chunk_points)
    }

    fn assemble(
        shards: Vec<Client>,
        home: usize,
        scope: EvalScope,
        chunk_points: usize,
    ) -> RemoteEvaluator {
        let telemetry = FleetStats {
            shards: shards
                .iter()
                .map(|c| ShardTelemetry { addr: c.addr().to_string(), ..ShardTelemetry::default() })
                .collect(),
            ..FleetStats::default()
        };
        RemoteEvaluator {
            shards,
            home,
            scope,
            chunk_points: chunk_points.max(1),
            memo: Mutex::default(),
            turn: Mutex::new(()),
            telemetry: Mutex::new(telemetry),
        }
    }

    /// The home shard's session (for side-channel requests like
    /// [`Client::stats`], on the connection the engine's chunks ride).
    pub fn client(&self) -> &Client {
        &self.shards[self.home]
    }

    /// A snapshot of the telemetry so far.
    pub fn stats(&self) -> FleetStats {
        self.telemetry.lock().expect("telemetry lock").clone()
    }

    /// `evaluate` frames answered (each carries one chunk).
    pub fn batches_sent(&self) -> u64 {
        self.telemetry.lock().expect("telemetry lock").shards.iter().map(|s| s.completed).sum()
    }

    /// The largest point count any single frame carried — evidence of
    /// batching actually happening.
    pub fn peak_batch(&self) -> u64 {
        self.telemetry.lock().expect("telemetry lock").peak_batch
    }

    /// The latched failure, if any. Drivers must call this after a
    /// search and treat `Some` as an aborted run. Taking the message
    /// does **not** revive the evaluator: once poisoned it answers
    /// `None`/infinity forever, so a partially failed run can never mix
    /// stale and fresh answers.
    pub fn take_error(&self) -> Option<String> {
        self.memo.lock().expect("memo lock").error.take()
    }

    /// Evaluates a batch: what the memo holds is served from it, the
    /// rest is fetched through the shards in this thread's turn. Results
    /// in input order, bit-identical to local evaluation; `None` on a
    /// latched failure — see [`RemoteEvaluator::take_error`].
    pub fn evaluate_batch(&self, points: &[TuningParams]) -> Option<Vec<Measurement>> {
        let memo = self.memo.lock().expect("memo lock");
        if memo.poisoned {
            return None;
        }
        if let Some(out) = memo.answer(points) {
            return Some(out);
        }
        drop(memo);
        let _turn = self.turn.lock().expect("turn lock");
        // The turns before this one may have fetched some of these
        // points, or latched a failure.
        let memo = self.memo.lock().expect("memo lock");
        if memo.poisoned {
            return None;
        }
        let mut queued = HashSet::with_capacity_and_hasher(points.len(), WordHash::default());
        let missing = |p: &&TuningParams| !memo.answers.contains_key(*p) && queued.insert(**p);
        let misses: Vec<TuningParams> = points.iter().filter(missing).copied().collect();
        drop((memo, queued));
        let outcome = self.fetch(&misses);
        let mut memo = self.memo.lock().expect("memo lock");
        match outcome {
            Ok(ms) => memo.answers.extend(ms.into_iter().map(|m| (m.params, m))),
            Err(message) => {
                memo.poisoned = true;
                memo.error = Some(message);
                return None;
            }
        }
        Some(memo.answer(points).expect("the turn fetched every miss"))
    }

    /// Fetches one turn's misses: cut into chunks, enqueued on the
    /// home shard, drained by one worker per live shard, merged by
    /// chunk index. `Err` is the batch-fatal failure to latch.
    fn fetch(&self, misses: &[TuningParams]) -> Result<Vec<Measurement>, String> {
        let chunks: Vec<&[TuningParams]> = misses.chunks(self.chunk_points).collect();
        let n = self.shards.len();
        let mut sched = StealScheduler::new(n);
        {
            let mut t = self.telemetry.lock().expect("telemetry lock");
            t.chunks += chunks.len() as u64;
            // Shards lost in earlier batches stay lost (their daemons
            // outlasted a whole retry policy; re-probing them every
            // batch would stall each one on the same timeouts).
            for (shard, s) in t.shards.iter().enumerate() {
                if s.lost {
                    sched.retire(shard, &[]);
                }
            }
        }
        // Losing the last shard latches, so one is live to take these.
        for c in 0..chunks.len() {
            sched.enqueue(self.home, c);
        }
        let batch = Batch {
            // No worker holds more than its share of the batch, so a
            // short batch still spreads over the shards.
            window: WINDOW.min(chunks.len().div_ceil(sched.live_count())),
            state: Mutex::new(BatchState {
                sched,
                results: vec![None; chunks.len()],
                resolved: 0,
                failed: None,
            }),
            chunks,
        };
        // A pass ends when its workers have nothing in hand and nothing
        // to take. Work left then was handed over by a shard retired
        // after its peers went idle; the next pass asks the shards
        // still live.
        loop {
            let live = {
                let st = batch.state.lock().expect("batch state lock");
                let left = batch.chunks.len() - st.resolved;
                if st.failed.is_some() || left == 0 {
                    break;
                }
                // The live shards from the home onwards (`enqueue`'s
                // order), and no more of them than chunks: a searcher's
                // lone miss goes to its home shard and wakes nobody.
                let live = (0..n).map(|off| (self.home + off) % n);
                live.filter(|&s| st.sched.is_live(s)).take(left).collect::<Vec<_>>()
            };
            // Each is dealt its first window here, in that order, so
            // which shard starts with which chunks never depends on
            // which thread runs first.
            let deal = |shard| {
                let mut hand = Hand::new();
                self.claim(&batch, shard, &mut hand);
                (shard, hand)
            };
            let mut workers: Vec<(usize, Hand)> = live.into_iter().map(deal).collect();
            match &mut workers[..] {
                // One daemon to ask: the calling thread is its worker.
                [(only, hand)] => self.worker(*only, &batch, hand),
                workers => std::thread::scope(|s| {
                    for (shard, hand) in workers {
                        let batch = &batch;
                        s.spawn(move || self.worker(*shard, batch, hand));
                    }
                }),
            }
        }

        let st = batch.state.into_inner().expect("batch state lock");
        if let Some(message) = st.failed {
            return Err(message);
        }
        let mut computed = 0u64;
        let mut measurements = Vec::with_capacity(misses.len());
        // Merge in chunk-index order: positional, schedule-blind.
        for r in st.results {
            let (c, ms) = r.expect("no failure means every chunk resolved");
            computed += c;
            measurements.extend(ms);
        }
        let mut t = self.telemetry.lock().expect("telemetry lock");
        t.points_fetched += misses.len() as u64;
        t.computed_remote += computed;
        Ok(measurements)
    }

    /// One shard's worker: starting from the chunks it was dealt, claims
    /// chunks while its window has room, sends them down the shard
    /// client's pipeline and redeems the oldest, until it has nothing in
    /// hand and nothing to take, the shard is retired, or the batch
    /// fails.
    fn worker(&self, shard: usize, batch: &Batch<'_>, in_hand: &mut Hand) {
        let client = &self.shards[shard];
        // The connection this worker's tickets ride: the client's, taken
        // on first use and again after a failure.
        let mut pipe: Option<Arc<Pipeline>> = None;
        let mut attempt: u32 = 0;
        while self.claim(batch, shard, in_hand) && !in_hand.is_empty() {
            let started = Instant::now();
            match self.exchange(client, &mut pipe, in_hand, batch) {
                Ok((chunk, computed, measurements)) => {
                    attempt = 0;
                    {
                        let mut t = self.telemetry.lock().expect("telemetry lock");
                        t.peak_batch = t.peak_batch.max(measurements.len() as u64);
                        let sh = &mut t.shards[shard];
                        sh.completed += 1;
                        sh.eval_time += started.elapsed();
                    }
                    let mut st = batch.state.lock().expect("batch state lock");
                    st.results[chunk] = Some((computed, measurements));
                    st.resolved += 1;
                }
                Err(e) => {
                    match client.retry_or_bail(attempt, e) {
                        Ok(next) => attempt = next,
                        Err(e) => {
                            self.give_up(shard, e, in_hand, batch);
                            break;
                        }
                    }
                    // A transport failure took every ticket with it;
                    // a Busy answer left the pipeline and the other
                    // tickets good.
                    if pipe.as_ref().is_some_and(|p| p.is_poisoned()) {
                        pipe = None;
                        in_hand.iter_mut().for_each(|(_, ticket)| *ticket = None);
                    }
                }
            }
        }
        // A pipeline with tickets still out (this shard gave up, or
        // another worker failed the batch) is not reusable.
        if let Some(p) = pipe.filter(|_| in_hand.iter().any(|(_, ticket)| ticket.is_some())) {
            client.discard(&p);
        }
    }

    /// Claims chunks for `shard` while its window has room, counting the
    /// ones stolen from another shard's queue; `false` once the batch
    /// has failed.
    fn claim(&self, batch: &Batch<'_>, shard: usize, in_hand: &mut Hand) -> bool {
        let mut st = batch.state.lock().expect("batch state lock");
        while st.failed.is_none() && in_hand.len() < batch.window {
            let Some(task) = st.sched.next_for(shard) else { break };
            if task.stolen_from.is_some() {
                self.telemetry.lock().expect("telemetry lock").shards[shard].stolen += 1;
            }
            in_hand.push_back((task.chunk, None));
        }
        st.failed.is_none()
    }

    /// Sends every unsent chunk in hand — on the client's connection,
    /// dialed if it has none — and redeems the oldest ticket: the
    /// chunk's index, the daemon's fresh-computation count and its
    /// positionally verified measurements. On failure the chunk stays
    /// in hand.
    fn exchange(
        &self,
        client: &Client,
        pipe: &mut Option<Arc<Pipeline>>,
        in_hand: &mut Hand,
        batch: &Batch<'_>,
    ) -> Result<(usize, u64, Vec<Measurement>), ServiceError> {
        let p = match pipe {
            Some(p) if !p.is_poisoned() => p,
            _ => pipe.insert(client.pipeline()?),
        };
        for (chunk, ticket) in in_hand.iter_mut().filter(|(_, ticket)| ticket.is_none()) {
            *ticket = Some(p.send(&Request::Evaluate {
                scope: self.scope.clone(),
                points: batch.chunks[*chunk].to_vec(),
                deadline_ms: client.policy().deadline_ms(),
            })?);
        }
        let (chunk, ticket) = in_hand.front_mut().expect("the worker holds a chunk");
        let (chunk, ticket) = (*chunk, ticket.take().expect("every chunk in hand was just sent"));
        let (computed, measurements) = evaluate_answer(p.wait(ticket)?, batch.chunks[chunk])?;
        in_hand.pop_front();
        Ok((chunk, computed, measurements))
    }

    /// The one loss rule. A transient failure that outlasted the policy
    /// retires the shard and hands everything it held to the survivors
    /// (dedup makes any replay bit-identical) — or, with none left,
    /// fails the batch. A deterministic failure (unknown kernel,
    /// protocol skew) fails it outright: every shard would answer the
    /// same way.
    fn give_up(
        &self,
        shard: usize,
        e: ServiceError,
        in_hand: &Hand,
        batch: &Batch<'_>,
    ) {
        let addr = self.shards[shard].addr();
        let mut st = batch.state.lock().expect("batch state lock");
        if e.is_transient() {
            let held: Vec<usize> = in_hand.iter().map(|(chunk, _)| *chunk).collect();
            let moved = st.sched.retire(shard, &held);
            if st.sched.live_count() == 0 && st.failed.is_none() {
                st.failed = Some(format!(
                    "all {} shard(s) lost; the last, `{addr}`, failed with: {e}",
                    self.shards.len()
                ));
            }
            drop(st);
            let mut t = self.telemetry.lock().expect("telemetry lock");
            t.shards[shard].lost = true;
            t.shards[shard].rebalanced_away += moved as u64;
        } else if st.failed.is_none() {
            st.failed = Some(format!("shard `{addr}`: {e}"));
        }
    }
}

impl Oracle for RemoteEvaluator {
    fn eval(&self, params: TuningParams) -> f64 {
        self.eval_many(&[params])[0]
    }

    fn eval_many(&self, points: &[TuningParams]) -> Vec<f64> {
        match self.evaluate_batch(points) {
            Some(ms) => ms.into_iter().map(|m| m.time_ms).collect(),
            None => vec![f64::INFINITY; points.len()],
        }
    }
}
