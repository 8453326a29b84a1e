//! The work-stealing chunk scheduler — pure state machine, no I/O, no
//! clocks, no randomness. Workers drive it under one lock; given the
//! same request sequence it makes the same decisions, which is what
//! the deterministic-seed tests below exploit.
//!
//! Chunks are identified by their index in the batch's chunk list.
//! Because the fleet merges results **by chunk index**, any execution
//! order the scheduler produces yields byte-identical output — the
//! tests prove merge-order independence over randomized steal
//! schedules.

use std::collections::VecDeque;

/// One scheduling decision handed to a shard's worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Task {
    /// Index of the chunk to evaluate.
    pub chunk: usize,
    /// The shard whose queue this chunk was stolen from (`None` when
    /// it came off the requesting shard's own queue).
    pub stolen_from: Option<usize>,
}

/// Per-shard deques of point-chunk indices with stealing and
/// lost-shard rebalancing.
///
/// Discipline: a shard pops its **own queue's front** first (FIFO —
/// oldest home work first); an idle shard steals from the **tail** of
/// the longest live queue (lowest index breaking ties), taking the
/// work its owner would reach last. A retired shard's queue drains
/// round-robin onto survivors' tails.
#[derive(Debug)]
pub(crate) struct StealScheduler {
    queues: Vec<VecDeque<usize>>,
    live: Vec<bool>,
}

impl StealScheduler {
    /// A scheduler over `n` shards, all live, all queues empty.
    pub(crate) fn new(n: usize) -> StealScheduler {
        StealScheduler { queues: vec![VecDeque::new(); n], live: vec![true; n] }
    }

    /// Enqueues `chunk` on `shard`'s queue — or, if that shard is
    /// already retired, on the next live shard cyclically after it
    /// (deterministic, so a dead home shard never strands work).
    /// Panics if no shard is live.
    pub(crate) fn enqueue(&mut self, shard: usize, chunk: usize) {
        let n = self.queues.len();
        let target = (0..n)
            .map(|off| (shard + off) % n)
            .find(|&s| self.live[s])
            .expect("enqueue on a fleet with no live shard");
        self.queues[target].push_back(chunk);
    }

    /// The next task for `shard`: its own queue's front, else a steal
    /// from the tail of the longest live queue. `None` when the shard
    /// is retired or no queued work exists anywhere.
    pub(crate) fn next_for(&mut self, shard: usize) -> Option<Task> {
        if !self.live.get(shard).copied().unwrap_or(false) {
            return None;
        }
        if let Some(chunk) = self.queues[shard].pop_front() {
            return Some(Task { chunk, stolen_from: None });
        }
        let victim = (0..self.queues.len())
            .filter(|&s| s != shard && self.live[s] && !self.queues[s].is_empty())
            .max_by_key(|&s| (self.queues[s].len(), usize::MAX - s))?;
        let chunk = self.queues[victim].pop_back().expect("victim queue checked non-empty");
        Some(Task { chunk, stolen_from: Some(victim) })
    }

    /// Retires `shard` (lost or failed) and rebalances: its queued
    /// chunks — plus `in_hand`, every chunk its worker was holding when
    /// it died, sent or not — drain round-robin onto the survivors'
    /// tails. Returns how many chunks moved. With no survivors the
    /// chunks are dropped and 0 is returned; the caller must then fail
    /// the batch.
    pub(crate) fn retire(&mut self, shard: usize, in_hand: &[usize]) -> usize {
        self.live[shard] = false;
        let mut orphans: Vec<usize> = self.queues[shard].drain(..).collect();
        orphans.extend_from_slice(in_hand);
        let survivors: Vec<usize> = (0..self.queues.len()).filter(|&s| self.live[s]).collect();
        if survivors.is_empty() {
            return 0;
        }
        let moved = orphans.len();
        for (i, chunk) in orphans.into_iter().enumerate() {
            self.queues[survivors[i % survivors.len()]].push_back(chunk);
        }
        moved
    }

    /// Whether `shard` is still live.
    pub(crate) fn is_live(&self, shard: usize) -> bool {
        self.live.get(shard).copied().unwrap_or(false)
    }

    /// Live shards remaining.
    pub(crate) fn live_count(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    /// xorshift64* — the repo's stock deterministic test RNG.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545f4914f6cdd1d)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// The in-flight windows the seeded schedules run under: one chunk
    /// at a time, a pair, and the shipped pipeline depth.
    const DEPTHS: [usize; 3] = [1, 2, 8];

    /// Drives a randomized steal schedule: each step a random live
    /// shard takes a turn — it claims a chunk into its in-flight window
    /// while the window has room and work exists, and otherwise
    /// "completes" the oldest chunk it holds. With `kill_at`, the live
    /// shard holding the most chunks is retired mid-run and hands its
    /// whole window back. Returns the chunk→shard assignment and the
    /// merged output (results indexed by chunk id, exactly how the
    /// evaluator merges).
    fn run_schedule(
        seed: u64,
        n_shards: usize,
        n_chunks: usize,
        home: usize,
        depth: usize,
        kill_at: Option<usize>,
    ) -> (HashMap<usize, usize>, Vec<usize>) {
        let mut rng = Rng(seed | 1);
        let mut sched = StealScheduler::new(n_shards);
        for c in 0..n_chunks {
            sched.enqueue(home, c);
        }
        let mut windows: Vec<VecDeque<usize>> = vec![VecDeque::new(); n_shards];
        let mut assignment = HashMap::new();
        let mut results: Vec<Option<usize>> = vec![None; n_chunks];
        let mut done = 0;
        let mut steps = 0;
        let mut killed = false;
        while done < n_chunks {
            steps += 1;
            assert!(steps < 100_000, "schedule failed to converge");
            if !killed && Some(done) == kill_at && sched.live_count() > 1 {
                killed = true;
                let victim = (0..n_shards)
                    .filter(|&s| sched.is_live(s))
                    .max_by_key(|&s| (windows[s].len(), sched.queues[s].len(), usize::MAX - s))
                    .expect("a live shard exists");
                let in_hand: Vec<usize> = windows[victim].drain(..).collect();
                assert!(depth == 1 || in_hand.len() > 1, "the victim must die mid-window");
                sched.retire(victim, &in_hand);
            }
            let shard = rng.below(n_shards);
            if windows[shard].len() < depth {
                if let Some(task) = sched.next_for(shard) {
                    windows[shard].push_back(task.chunk);
                    continue;
                }
            }
            if let Some(chunk) = windows[shard].pop_front() {
                assert!(
                    assignment.insert(chunk, shard).is_none(),
                    "chunk {chunk} completed twice"
                );
                // The "result" of evaluating a chunk is a pure function
                // of the chunk — merge is by chunk id, positionally.
                results[chunk] = Some(chunk * 31 + 7);
                done += 1;
            }
        }
        let merged = results.into_iter().map(|r| r.expect("all chunks resolved")).collect();
        (assignment, merged)
    }

    #[test]
    fn merge_order_is_independent_of_steal_schedule() {
        let canonical: Vec<usize> = (0..24).map(|c| c * 31 + 7).collect();
        for depth in DEPTHS {
            let mut distinct_assignments = HashSet::new();
            for seed in [3, 17, 0x6f72696f, 9999, 123456789] {
                let (assignment, merged) = run_schedule(seed, 4, 24, 1, depth, None);
                assert_eq!(
                    merged, canonical,
                    "seed {seed} depth {depth}: merged output depends on schedule"
                );
                assert_eq!(assignment.len(), 24, "every chunk scheduled exactly once");
                let mut key: Vec<(usize, usize)> = assignment.into_iter().collect();
                key.sort_unstable();
                distinct_assignments.insert(key);
            }
            // Non-vacuous: the seeds actually produced different schedules.
            assert!(
                distinct_assignments.len() >= 2,
                "depth {depth}: every seed produced the same schedule — the test proves nothing"
            );
        }
    }

    #[test]
    fn killing_a_shard_mid_schedule_loses_and_duplicates_nothing() {
        let canonical: Vec<usize> = (0..30).map(|c| c * 31 + 7).collect();
        for depth in DEPTHS {
            for seed in [1, 42, 777] {
                let (assignment, merged) = run_schedule(seed, 3, 30, 0, depth, Some(5));
                assert_eq!(
                    merged, canonical,
                    "seed {seed} depth {depth}: rebalance changed the output"
                );
                assert_eq!(assignment.len(), 30);
            }
        }
    }

    #[test]
    fn own_queue_is_fifo_and_steals_come_from_the_busiest_tail() {
        let mut s = StealScheduler::new(3);
        for c in 0..4 {
            s.enqueue(0, c);
        }
        s.enqueue(1, 10);
        // Shard 0 drains its own queue front-first.
        assert_eq!(s.next_for(0), Some(Task { chunk: 0, stolen_from: None }));
        // Shard 2 is idle: steals from shard 0 (longest queue), tail end.
        assert_eq!(s.next_for(2), Some(Task { chunk: 3, stolen_from: Some(0) }));
        // Shard 0 still holds [1,2] vs shard 1's [10]: still the busiest.
        assert_eq!(s.next_for(2), Some(Task { chunk: 2, stolen_from: Some(0) }));
        // Tie at one each: lowest index wins.
        assert_eq!(s.next_for(2), Some(Task { chunk: 1, stolen_from: Some(0) }));
        assert_eq!(s.next_for(2), Some(Task { chunk: 10, stolen_from: Some(1) }));
        assert_eq!(s.next_for(2), None);
    }

    #[test]
    fn retire_drains_to_survivors_and_requeues_the_in_hand_chunk() {
        let mut s = StealScheduler::new(3);
        for c in 0..5 {
            s.enqueue(1, c);
        }
        let held = s.next_for(1).expect("work queued").chunk;
        assert_eq!(held, 0);
        let moved = s.retire(1, &[held]);
        assert_eq!(moved, 5, "4 queued + 1 in hand");
        assert_eq!(s.live_count(), 2);
        assert_eq!(s.queues.iter().map(VecDeque::len).sum::<usize>(), 5);
        assert!(s.next_for(1).is_none(), "retired shards get no work");
        // Everything is still reachable from the survivors.
        let mut seen = HashSet::new();
        while let Some(t) = s.next_for(0).or_else(|| s.next_for(2)) {
            seen.insert(t.chunk);
        }
        assert_eq!(seen, HashSet::from([0, 1, 2, 3, 4]));
    }

    #[test]
    fn enqueue_skips_dead_shards_and_last_survivor_failure_drops_work() {
        let mut s = StealScheduler::new(2);
        s.retire(0, &[]);
        s.enqueue(0, 9); // home is dead: lands on shard 1
        assert_eq!(s.next_for(1), Some(Task { chunk: 9, stolen_from: None }));
        s.enqueue(1, 11);
        assert_eq!(s.retire(1, &[12]), 0, "no survivors: dropped, caller must fail");
        assert_eq!(s.live_count(), 0);
        assert!(s.queues.iter().all(VecDeque::is_empty));
    }
}
