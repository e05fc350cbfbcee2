//! A bounded, sharded, generation-keyed memo cache for expensive
//! query answers.
//!
//! The safety argument is the snapshot discipline: every published
//! [`crate::Snapshot`] is immutable and stamped with a unique,
//! monotonically increasing generation, so an answer computed against
//! generation `g` is valid *forever* — for generation `g`. Keying every
//! entry by `(generation, query)` therefore makes invalidation trivial:
//! a cached value can never be wrong, only stale, and stale generations
//! are dropped wholesale when the writer publishes ([`QueryCache::
//! evict_stale`]). No reader can ever observe a cross-generation
//! answer, because the reader itself chooses the generation it looks
//! up (the one of the snapshot it just loaded).
//!
//! The structure is a fixed array of shards, each a
//! `RwLock<HashMap>` plus a FIFO eviction order. The read path takes
//! one shard read lock (no allocation, no global lock, writers to
//! *other* shards never contend), matching the serving layer's
//! readers-never-wait discipline. Capacity is bounded per shard;
//! inserting past the bound evicts the oldest entries of that shard
//! regardless of generation.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use hcd_graph::VertexId;
use hcd_search::{BestCore, Metric};
use parking_lot::RwLock;

use crate::service::Query;

/// What a cache entry can hold: the two expensive answer shapes.
/// Cheap point queries (membership, position) are never cached — the
/// lookup would cost as much as the answer.
#[derive(Debug, Clone, PartialEq)]
pub enum CachedAnswer {
    /// A [`Query::CoreContaining`] answer (sorted member list).
    Core(Option<Vec<VertexId>>),
    /// A PBKS best-community answer for one metric.
    Best(Option<BestCore>),
}

impl CachedAnswer {
    /// Approximate heap footprint, for the `serve.cache.bytes` gauge.
    fn approx_bytes(&self) -> u64 {
        let payload = match self {
            CachedAnswer::Core(Some(members)) => members.len() * std::mem::size_of::<VertexId>(),
            CachedAnswer::Core(None) => 0,
            CachedAnswer::Best(_) => std::mem::size_of::<BestCore>(),
        };
        (payload + std::mem::size_of::<CacheKey>() + 32) as u64
    }
}

/// The query part of a cache key; the full key is `(generation, this)`.
/// The tenant never appears here because each tenant's service owns its
/// own [`QueryCache`] instance — isolation by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheKey {
    /// `CoreContaining(v, k)`.
    Core(VertexId, u32),
    /// Best community under the named metric
    /// ([`hcd_search::Metric::name`]).
    Best(&'static str),
}

impl CacheKey {
    /// The key for a best-community search under `metric`.
    pub fn for_metric(metric: &Metric) -> CacheKey {
        CacheKey::Best(metric.name())
    }

    /// The key caching `q`, if `q`'s answer is worth caching.
    pub fn for_query(q: &Query) -> Option<CacheKey> {
        match *q {
            Query::CoreContaining(v, k) => Some(CacheKey::Core(v, k)),
            _ => None,
        }
    }
}

/// Sizing knobs for a [`QueryCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total entry budget across all shards (rounded up to a multiple
    /// of `shards`). Oldest entries of a full shard are evicted first.
    pub capacity: usize,
    /// Number of independent shards (power of two recommended; clamped
    /// to at least 1).
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 4096,
            shards: 8,
        }
    }
}

struct Shard {
    map: HashMap<(u64, CacheKey), CachedAnswer>,
    /// Insertion order for FIFO capacity eviction.
    order: VecDeque<(u64, CacheKey)>,
}

/// Point-in-time counter values (cumulative since construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to computation.
    pub misses: u64,
    /// Entries dropped (stale-generation sweeps + capacity pressure).
    pub evictions: u64,
    /// Approximate bytes currently held.
    pub bytes: u64,
    /// Entries currently held.
    pub entries: u64,
}

/// The cache itself. See the module docs for the safety argument.
pub struct QueryCache {
    shards: Box<[RwLock<Shard>]>,
    per_shard_capacity: usize,
    // Statistics only, so every access is `Relaxed`: the shard locks
    // guard the entries, and no other memory is published through a
    // counter.
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bytes: AtomicU64,
}

impl QueryCache {
    /// An empty cache sized by `cfg`.
    pub fn new(cfg: CacheConfig) -> Self {
        let shards = cfg.shards.max(1);
        let per_shard_capacity = cfg.capacity.div_ceil(shards).max(1);
        QueryCache {
            shards: (0..shards)
                .map(|_| {
                    RwLock::new(Shard {
                        map: HashMap::new(),
                        order: VecDeque::new(),
                    })
                })
                .collect(),
            per_shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, generation: u64, key: &CacheKey) -> &RwLock<Shard> {
        let mut h = DefaultHasher::new();
        generation.hash(&mut h);
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Looks up `(generation, key)`, ticking the hit/miss statistics.
    /// Takes one shard read lock; never blocks on other shards.
    pub fn get(&self, generation: u64, key: &CacheKey) -> Option<CachedAnswer> {
        let shard = self.shard_for(generation, key).read();
        let found = shard.map.get(&(generation, *key)).cloned();
        drop(shard);
        match found {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores an answer computed against `generation`'s snapshot.
    /// Returns the number of entries evicted for capacity. Re-inserting
    /// an existing key overwrites in place (idempotent for the
    /// deterministic query paths that race on a miss).
    pub fn insert(&self, generation: u64, key: CacheKey, value: CachedAnswer) -> u64 {
        let added = value.approx_bytes();
        let mut evicted = 0u64;
        let mut freed = 0u64;
        {
            let mut shard = self.shard_for(generation, &key).write();
            let full_key = (generation, key);
            match shard.map.insert(full_key, value) {
                None => {
                    shard.order.push_back(full_key);
                    while shard.order.len() > self.per_shard_capacity {
                        let oldest = shard.order.pop_front().expect("len > capacity >= 1");
                        if let Some(old) = shard.map.remove(&oldest) {
                            freed += old.approx_bytes();
                            evicted += 1;
                        }
                    }
                }
                // Overwrite: the order queue already tracks the key;
                // only the byte delta changes.
                Some(old) => freed += old.approx_bytes(),
            }
        }
        self.bytes.fetch_add(added, Ordering::Relaxed);
        let cur = self.bytes.load(Ordering::Relaxed);
        self.bytes.fetch_sub(freed.min(cur), Ordering::Relaxed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Drops every entry whose generation is not `current`. Called by
    /// the writer right after publishing generation `current`; the
    /// sweep is what keeps the cache from accumulating history.
    /// Returns the number of entries dropped.
    pub fn evict_stale(&self, current: u64) -> u64 {
        let mut evicted = 0u64;
        let mut freed = 0u64;
        for shard in self.shards.iter() {
            let mut shard = shard.write();
            if shard.map.is_empty() {
                continue;
            }
            shard.map.retain(|(generation, _), v| {
                let keep = *generation == current;
                if !keep {
                    evicted += 1;
                    freed += v.approx_bytes();
                }
                keep
            });
            shard.order.retain(|(generation, _)| *generation == current);
        }
        let cur = self.bytes.load(Ordering::Relaxed);
        self.bytes.fetch_sub(freed.min(cur), Ordering::Relaxed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Cumulative and point-in-time statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| s.read().map.len() as u64).sum(),
        }
    }

    /// Total entries currently held.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().map.len()).sum()
    }

    /// Whether the cache currently holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Plants an arbitrary entry, bypassing the compute path. This
    /// exists **only** so negative tests can prove the differential
    /// harness detects a poisoned cache (a doctored answer at the
    /// current generation must make the armed/disarmed comparison
    /// fail). Production code never calls it.
    #[doc(hidden)]
    pub fn doctor(&self, generation: u64, key: CacheKey, value: CachedAnswer) {
        self.insert(generation, key, value);
    }
}

impl std::fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(
            f,
            "QueryCache(entries={}, hits={}, misses={}, evictions={})",
            s.entries, s.hits, s.misses, s.evictions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core_key(v: VertexId, k: u32) -> CacheKey {
        CacheKey::Core(v, k)
    }

    #[test]
    fn get_after_insert_round_trips() {
        let cache = QueryCache::new(CacheConfig::default());
        let val = CachedAnswer::Core(Some(vec![1, 2, 3]));
        assert_eq!(cache.get(7, &core_key(1, 2)), None);
        cache.insert(7, core_key(1, 2), val.clone());
        assert_eq!(cache.get(7, &core_key(1, 2)), Some(val));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.bytes > 0);
    }

    #[test]
    fn generations_never_alias() {
        let cache = QueryCache::new(CacheConfig::default());
        cache.insert(1, core_key(0, 1), CachedAnswer::Core(Some(vec![0])));
        cache.insert(2, core_key(0, 1), CachedAnswer::Core(Some(vec![0, 1])));
        assert_eq!(
            cache.get(1, &core_key(0, 1)),
            Some(CachedAnswer::Core(Some(vec![0])))
        );
        assert_eq!(
            cache.get(2, &core_key(0, 1)),
            Some(CachedAnswer::Core(Some(vec![0, 1])))
        );
    }

    #[test]
    fn evict_stale_drops_exactly_the_old_generations() {
        let cache = QueryCache::new(CacheConfig::default());
        for v in 0..10 {
            cache.insert(1, core_key(v, 1), CachedAnswer::Core(None));
        }
        for v in 0..4 {
            cache.insert(2, core_key(v, 1), CachedAnswer::Core(None));
        }
        let dropped = cache.evict_stale(2);
        assert_eq!(dropped, 10);
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.get(1, &core_key(0, 1)), None);
        assert!(cache.get(2, &core_key(0, 1)).is_some());
        assert_eq!(cache.stats().evictions, 10);
    }

    #[test]
    fn capacity_bounds_each_shard_fifo() {
        let cache = QueryCache::new(CacheConfig {
            capacity: 8,
            shards: 1,
        });
        for v in 0..20 {
            cache.insert(0, core_key(v, 1), CachedAnswer::Core(Some(vec![v])));
        }
        assert_eq!(cache.len(), 8);
        // The newest entries survive, the oldest were evicted.
        assert!(cache.get(0, &core_key(19, 1)).is_some());
        assert_eq!(cache.get(0, &core_key(0, 1)), None);
        assert_eq!(cache.stats().evictions, 12);
    }

    #[test]
    fn best_answers_cache_per_metric_name() {
        let cache = QueryCache::new(CacheConfig::default());
        let k1 = CacheKey::for_metric(&Metric::AverageDegree);
        let k2 = CacheKey::for_metric(&Metric::Conductance);
        assert_ne!(k1, k2);
        cache.insert(0, k1, CachedAnswer::Best(None));
        assert!(cache.get(0, &k1).is_some());
        assert_eq!(cache.get(0, &k2), None);
    }

    #[test]
    fn point_queries_are_not_cacheable() {
        assert!(CacheKey::for_query(&Query::InKCore(1, 2)).is_none());
        assert!(CacheKey::for_query(&Query::HierarchyPosition(1)).is_none());
        assert!(CacheKey::for_query(&Query::SameKCore(1, 2, 3)).is_none());
        assert_eq!(
            CacheKey::for_query(&Query::CoreContaining(1, 2)),
            Some(CacheKey::Core(1, 2))
        );
    }
}
