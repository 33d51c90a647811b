//! Sharded LRU body cache — the in-process L1 of the result tier.
//!
//! Every result the tier holds is deterministic — the body is a pure
//! function of its [`StoreKey`](crate::StoreKey) — so finished response
//! bodies are memoized and repeat lookups come straight from memory. Keys
//! are the canonical key strings (`run:table2:1996:smoke`), values are the
//! exact response bodies behind [`Arc`] so a hit is one clone of a pointer.
//!
//! The map is split into `SHARDS` independently locked shards (hash of
//! the key picks the shard) so concurrent workers don't serialize on one
//! mutex. Recency is a per-shard monotonic tick stamped on every hit;
//! eviction scans its shard for the smallest stamp, which is exact LRU per
//! shard and O(shard size) only on insertion past capacity — shards are
//! small (capacity / `SHARDS`), so the scan is a handful of entries.
//! Evictions are counted (`ShardedLru::evictions`) for the tier's
//! `/metrics` story.
//!
//! (This began life as `wavelan-serve`'s private result cache; it was
//! generalized here when the disk tier arrived so both layers share one
//! key model.)

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of independently locked shards.
pub(crate) const SHARDS: usize = 8;

/// One shard: its own recency clock plus the stamped entries.
#[derive(Debug, Default)]
struct Shard {
    tick: u64,
    entries: HashMap<String, (u64, Arc<String>)>,
}

/// A sharded LRU map from canonical key string to cached response body.
#[derive(Debug)]
pub(crate) struct ShardedLru {
    shards: Vec<Mutex<Shard>>,
    /// Max entries per shard; 0 disables caching entirely.
    shard_capacity: usize,
    evictions: AtomicU64,
}

impl ShardedLru {
    /// A cache holding at most `capacity` entries (rounded up to a multiple
    /// of [`SHARDS`]; `0` disables caching — every lookup misses).
    pub(crate) fn new(capacity: usize) -> ShardedLru {
        ShardedLru {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity: capacity.div_ceil(SHARDS),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARDS]
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub(crate) fn get(&self, key: &str) -> Option<Arc<String>> {
        let mut shard = self.shard(key).lock().unwrap();
        shard.tick += 1;
        let tick = shard.tick;
        shard.entries.get_mut(key).map(|(stamp, body)| {
            *stamp = tick;
            Arc::clone(body)
        })
    }

    /// Inserts (or refreshes) `key`, evicting its shard's least-recently
    /// used entry when the shard is full.
    pub(crate) fn insert(&self, key: String, body: Arc<String>) {
        if self.shard_capacity == 0 {
            return;
        }
        let mut shard = self.shard(&key).lock().unwrap();
        shard.tick += 1;
        let tick = shard.tick;
        if shard.entries.len() >= self.shard_capacity && !shard.entries.contains_key(&key) {
            if let Some(oldest) = shard
                .entries
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
            {
                shard.entries.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.entries.insert(key, (tick, body));
    }

    /// Total entries across all shards.
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().entries.len())
            .sum()
    }

    /// The configured total capacity (per-shard capacity × [`SHARDS`]).
    pub(crate) fn capacity(&self) -> usize {
        self.shard_capacity * SHARDS
    }

    /// Entries evicted to make room since construction.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(s: &str) -> Arc<String> {
        Arc::new(s.to_string())
    }

    #[test]
    fn hit_returns_the_inserted_body() {
        let cache = ShardedLru::new(16);
        assert!(cache.get("a").is_none());
        cache.insert("a".into(), body("alpha"));
        assert_eq!(cache.get("a").expect("hit").as_str(), "alpha");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn eviction_is_least_recently_used_per_shard_and_counted() {
        // Single-shard-sized cache: capacity 8 → one entry per shard, so
        // inserting two keys that land in the same shard evicts the older.
        let cache = ShardedLru::new(SHARDS);
        // Find two keys sharing a shard by probing.
        let keys: Vec<String> = (0..64).map(|i| format!("k{i}")).collect();
        let shard_of = |cache: &ShardedLru, k: &str| -> usize {
            cache
                .shards
                .iter()
                .position(|s| std::ptr::eq(s, cache.shard(k)))
                .expect("shard exists")
        };
        let first = &keys[0];
        let second = keys[1..]
            .iter()
            .find(|k| shard_of(&cache, k) == shard_of(&cache, first))
            .expect("some key collides in 64 probes");
        cache.insert(first.clone(), body("one"));
        cache.insert(second.clone(), body("two"));
        assert!(cache.get(first).is_none(), "older entry was evicted");
        assert_eq!(cache.get(second).expect("newer survives").as_str(), "two");
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn get_refreshes_recency() {
        let cache = ShardedLru::new(SHARDS); // one entry per shard
        cache.insert("x".into(), body("1"));
        // Touch "x", then insert a colliding key: with exact LRU the newer
        // insert still wins (shard holds one), but re-inserting "x" itself
        // must not evict it.
        cache.insert("x".into(), body("2"));
        assert_eq!(cache.get("x").expect("refreshed").as_str(), "2");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ShardedLru::new(0);
        cache.insert("a".into(), body("alpha"));
        assert!(cache.get("a").is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.capacity(), 0);
    }
}
