//! A sharded map of write-once values with in-flight deduplication —
//! the concurrency primitive under the tuner's evaluation tiers.
//!
//! It lives in `oriole-sim`, the lowest crate every evaluation layer
//! depends on. Nothing in this crate uses it: a value belongs here only
//! when computing it costs far more than a lock and a hash, which
//! occupancy (some forty integer operations) never did.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Shard count. A power of two comfortably above typical worker counts
/// keeps lock contention negligible without wasting memory.
const SHARDS: usize = 32;

type Shard<K, V> = HashMap<K, Arc<OnceLock<V>>>;

/// A sharded map of write-once values with in-flight deduplication:
/// the first caller of [`ShardedOnceMap::get_or_init`] for a key
/// computes the value while any concurrent callers for the same key
/// block on its [`OnceLock`]; later callers clone the cached value
/// without recomputation.
pub struct ShardedOnceMap<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
}

impl<K: Eq + Hash, V: Clone> Default for ShardedOnceMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash, V: Clone> ShardedOnceMap<K, V> {
    /// An empty map.
    pub fn new() -> ShardedOnceMap<K, V> {
        ShardedOnceMap { shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect() }
    }

    fn shard_of(&self, key: &K) -> MutexGuard<'_, Shard<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        self.shards[(h.finish() as usize) % SHARDS]
            .lock()
            .expect("memoization never poisons locks")
    }

    /// The value for `key` if it has already been computed. An absent
    /// key and one whose computation is still in flight both return
    /// `None` — the caller falls through to
    /// [`ShardedOnceMap::get_or_init`].
    pub fn get(&self, key: &K) -> Option<V> {
        self.shard_of(key).get(key)?.get().cloned()
    }

    /// Returns the value for `key`, computing it with `init` exactly
    /// once across all threads. `init` runs outside the shard lock, so
    /// slow computations only block callers of the *same* key.
    pub fn get_or_init(&self, key: K, init: impl FnOnce() -> V) -> V {
        let cell = Arc::clone(self.shard_of(&key).entry(key).or_default());
        cell.get_or_init(init).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    #[test]
    fn deduplicates_in_flight() {
        let map: ShardedOnceMap<u32, u64> = ShardedOnceMap::new();
        let computed = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let (map, computed) = (&map, &computed);
                scope.spawn(move || {
                    for k in 0..16u32 {
                        // Half the threads try the read-only path first;
                        // whatever it declines goes to `get_or_init`.
                        let v = (t % 2 == 0).then(|| map.get(&k)).flatten().unwrap_or_else(|| {
                            map.get_or_init(k, || {
                                computed.fetch_add(1, Ordering::Relaxed);
                                u64::from(k) * 3
                            })
                        });
                        assert_eq!(v, u64::from(k) * 3);
                    }
                });
            }
        });
        assert_eq!(computed.load(Ordering::Relaxed), 16, "each key computed once");
    }

    #[test]
    fn get_declines_absent_and_in_flight_keys() {
        let map: ShardedOnceMap<u32, u64> = ShardedOnceMap::new();
        assert_eq!(map.get(&7), None, "absent");
        let (entered, release) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                map.get_or_init(7, || {
                    entered.wait();
                    release.wait();
                    21
                })
            });
            entered.wait();
            assert_eq!(map.get(&7), None, "in flight");
            release.wait();
        });
        assert_eq!(map.get(&7), Some(21));
    }
}
