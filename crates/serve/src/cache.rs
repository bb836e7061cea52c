//! Sharded LRU cache for spread estimates.
//!
//! Keys are the *exact* canonical request bytes; the FNV-1a hash is used
//! only to pick a shard, never to identify an entry — so a hash collision
//! costs a little contention, not a wrong answer. Each shard is an
//! independent mutex, keeping `/v1/influence` lookups from serialising
//! behind one lock under concurrent load.
//!
//! Internally a shard keeps two `BTreeMap` indexes (key → entry and
//! recency stamp → key) so both lookup and LRU eviction are `O(log n)`
//! with fully deterministic iteration order (no `HashMap` — the
//! workspace determinism lint applies to this crate too).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// 64-bit FNV-1a — the shard selector. Stable across runs and platforms.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Shard<V> {
    cap: usize,
    /// Monotone recency counter; the entry with the smallest stamp is
    /// the least recently used.
    tick: u64,
    by_key: BTreeMap<Vec<u8>, (u64, V)>,
    by_stamp: BTreeMap<u64, Vec<u8>>,
}

impl<V: Clone> Shard<V> {
    fn touch(&mut self, key: &[u8]) -> Option<V> {
        let (old_stamp, value) = match self.by_key.get(key) {
            Some((s, v)) => (*s, v.clone()),
            None => return None,
        };
        self.by_stamp.remove(&old_stamp);
        self.tick += 1;
        let stamp = self.tick;
        self.by_stamp.insert(stamp, key.to_vec());
        if let Some(entry) = self.by_key.get_mut(key) {
            entry.0 = stamp;
        }
        Some(value)
    }

    fn insert(&mut self, key: Vec<u8>, value: V) {
        if self.cap == 0 {
            return;
        }
        if let Some((old_stamp, _)) = self.by_key.get(&key) {
            let old_stamp = *old_stamp;
            self.by_stamp.remove(&old_stamp);
        }
        self.tick += 1;
        let stamp = self.tick;
        self.by_stamp.insert(stamp, key.clone());
        self.by_key.insert(key, (stamp, value));
        while self.by_key.len() > self.cap {
            let Some((&oldest, _)) = self.by_stamp.iter().next() else {
                break;
            };
            if let Some(victim) = self.by_stamp.remove(&oldest) {
                self.by_key.remove(&victim);
            }
        }
    }
}

/// A sharded LRU cache with atomic hit/miss counters (exposed on
/// `/metrics`). Thread-safe; values are returned by clone.
pub struct ShardedLru<V> {
    shards: Vec<Mutex<Shard<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // privim-lint: allow(panic, reason = "a poisoned shard lock means another worker panicked mid-insert; propagating the panic is the only sound recovery")
    m.lock().unwrap()
}

impl<V: Clone> ShardedLru<V> {
    /// `shards` independent LRUs of `cap_per_shard` entries each. Shard
    /// count is clamped to ≥ 1; a zero capacity disables caching (every
    /// lookup misses) without disabling the counters.
    pub fn new(shards: usize, cap_per_shard: usize) -> Self {
        let shards = shards.max(1);
        ShardedLru {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        cap: cap_per_shard,
                        tick: 0,
                        by_key: BTreeMap::new(),
                        by_stamp: BTreeMap::new(),
                    })
                })
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &[u8]) -> &Mutex<Shard<V>> {
        let idx = (fnv1a64(key) % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    /// Look up `key`, bumping its recency. Counts a hit or a miss.
    pub fn get(&self, key: &[u8]) -> Option<V> {
        let found = self.hit(key);
        if found.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Look up `key` for a caller that will ask again with [`Self::get`]
    /// on a miss: a hit bumps recency and counts as one, a miss changes
    /// nothing, so each request still counts once.
    pub fn hit(&self, key: &[u8]) -> Option<V> {
        let found = lock(self.shard(key)).touch(key);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Insert (or refresh) `key`, evicting the shard's LRU entries if the
    /// shard is over capacity.
    pub fn put(&self, key: Vec<u8>, value: V) {
        lock(self.shard(&key)).insert(key, value);
    }

    /// Total hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total misses since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Total entries across shards (O(shards)).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).by_key.len()).sum()
    }

    /// True if no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_roundtrip_and_counters() {
        let c: ShardedLru<f64> = ShardedLru::new(4, 8);
        assert_eq!(c.get(b"a"), None);
        c.put(b"a".to_vec(), 1.5);
        assert_eq!(c.get(b"a"), Some(1.5));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn a_hit_probe_miss_counts_nothing_and_keeps_recency() {
        let c: ShardedLru<u32> = ShardedLru::new(1, 2);
        assert_eq!(c.hit(b"a"), None);
        assert_eq!((c.hits(), c.misses()), (0, 0), "a probe miss is not a request");
        c.put(b"a".to_vec(), 1);
        c.put(b"b".to_vec(), 2);
        // A missing key's probe bumps nothing, so "a" stays LRU.
        assert_eq!(c.hit(b"z"), None);
        c.put(b"c".to_vec(), 3);
        assert_eq!(c.hit(b"a"), None, "the LRU entry is evicted");
        assert_eq!(c.hit(b"b"), Some(2));
        assert_eq!((c.hits(), c.misses()), (1, 0));
    }

    #[test]
    fn evicts_least_recently_used_per_shard() {
        // One shard makes the eviction order fully observable.
        let c: ShardedLru<u32> = ShardedLru::new(1, 2);
        c.put(b"a".to_vec(), 1);
        c.put(b"b".to_vec(), 2);
        // touch "a" so "b" becomes LRU
        assert_eq!(c.get(b"a"), Some(1));
        c.put(b"c".to_vec(), 3);
        assert_eq!(c.get(b"b"), None, "LRU entry must be evicted");
        assert_eq!(c.get(b"a"), Some(1));
        assert_eq!(c.get(b"c"), Some(3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_not_duplicates() {
        let c: ShardedLru<u32> = ShardedLru::new(1, 2);
        c.put(b"a".to_vec(), 1);
        c.put(b"a".to_vec(), 9);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(b"a"), Some(9));
    }

    #[test]
    fn exact_key_bytes_identify_entries() {
        // Two distinct keys must never alias, whatever their hashes.
        let c: ShardedLru<u32> = ShardedLru::new(2, 8);
        c.put(b"k1".to_vec(), 1);
        c.put(b"k2".to_vec(), 2);
        assert_eq!(c.get(b"k1"), Some(1));
        assert_eq!(c.get(b"k2"), Some(2));
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let c: ShardedLru<u32> = ShardedLru::new(2, 0);
        c.put(b"a".to_vec(), 1);
        assert_eq!(c.get(b"a"), None);
        assert!(c.is_empty());
    }

    #[test]
    fn fingerprint_change_never_serves_a_stale_entry() {
        // Regression: the influence cache key leads with the graph
        // fingerprint, so an entry computed against one graph can never
        // answer a query against another — even if a cache instance
        // outlives a graph swap.
        let c: ShardedLru<f64> = ShardedLru::new(4, 16);
        let old_fp = 0xdead_beef_dead_beefu64;
        let new_fp = 0xfeed_face_feed_faceu64;
        let seeds: Vec<u32> = vec![1, 3, 9];
        let key_old = crate::server::influence_cache_key(old_fp, &seeds, 32, None, 5);
        let key_new = crate::server::influence_cache_key(new_fp, &seeds, 32, None, 5);
        assert_ne!(key_old, key_new, "identical queries on different graphs must not collide");
        c.put(key_old.clone(), 41.5);
        assert_eq!(c.get(&key_new), None, "stale entry served across a fingerprint change");
        c.put(key_new.clone(), 7.25);
        assert_eq!(c.get(&key_old), Some(41.5));
        assert_eq!(c.get(&key_new), Some(7.25));
    }

    #[test]
    fn eviction_order_is_deterministic_under_concurrent_hits() {
        // Shards are independent mutexes and every shard's recency stamps
        // are driven only by the operations that reach it. With each
        // thread confined to its own shard, the surviving entries and the
        // hit/miss totals are identical on every run, whatever the OS
        // scheduler does.
        use std::sync::Arc;
        let shards = 4usize;
        // Pre-assign keys to shards so each worker stays on its own shard.
        let mut per_shard: Vec<Vec<Vec<u8>>> = vec![Vec::new(); shards];
        let mut i = 0u64;
        while per_shard.iter().any(|keys| keys.len() < 6) {
            let key = i.to_le_bytes().to_vec();
            let s = (fnv1a64(&key) % shards as u64) as usize;
            if per_shard[s].len() < 6 {
                per_shard[s].push(key);
            }
            i += 1;
        }
        let run = || {
            let c: Arc<ShardedLru<u64>> = Arc::new(ShardedLru::new(shards, 2));
            let threads: Vec<_> = per_shard
                .iter()
                .cloned()
                .map(|keys| {
                    let c = Arc::clone(&c);
                    std::thread::spawn(move || {
                        // Fixed per-shard op sequence: inserts past
                        // capacity interleaved with recency-bumping hits.
                        for k in &keys[..4] {
                            c.put(k.clone(), 1);
                        }
                        let _ = c.get(&keys[2]); // keys[3] becomes LRU
                        for k in &keys[4..] {
                            c.put(k.clone(), 2);
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            let survivors: Vec<Vec<bool>> = per_shard
                .iter()
                .map(|keys| keys.iter().map(|k| c.get(k).is_some()).collect())
                .collect();
            (survivors, c.hits(), c.misses())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "concurrent eviction must be schedule-independent");
        // and each shard holds exactly its capacity at the end
        for (s, survived) in a.0.iter().enumerate() {
            assert_eq!(
                survived.iter().filter(|&&x| x).count(),
                2,
                "shard {s} must end at capacity"
            );
        }
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned so cache shard assignment (and thus /metrics counters
        // under a fixed workload) never drifts across platforms.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
