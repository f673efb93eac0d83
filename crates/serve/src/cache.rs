//! The mutex-sharded, fingerprint-keyed result cache.
//!
//! Synthesis queries are expensive and repeat-heavy (the same net is scheduled again and
//! again as designers iterate), so the daemon memoises whole rendered responses keyed by
//! the 128-bit [`net_fingerprint`](fcpn_petri::net_fingerprint) of the request's net
//! folded together with the endpoint and every effective option. Sharding bounds lock
//! contention: a lookup locks one of [`ResultCache::shard_count`] independent mutexes,
//! so concurrent workers serving different nets rarely collide.
//!
//! Keys are used directly — no stored-signature verification like the scheduler's
//! component cache — so a 128-bit collision would serve the colliding entry's response.
//! With two independent 64-bit lanes the expected collision rate is ~2⁻¹²⁸ per pair of
//! distinct requests; the trade is documented in [`crate::json`]'s consumer, the
//! handlers.
//!
//! # Eviction
//!
//! Each shard tracks a per-entry `last_used` stamp from a shard-local logical clock and
//! a byte estimate of its resident bodies. When an insert pushes a shard past its entry
//! capacity **or** its byte budget, the least-recently-used entries are evicted one at a
//! time until both bounds hold again — no more wholesale clears, so a hot entry is never
//! collateral damage of an unrelated insert. An entry bigger than a whole shard's
//! budget is not cached at all (neither mapped nor logged), so the byte budget is a
//! real bound; a deployment that wants bigger bodies cached raises `--cache-bytes`.
//! [`ResultCache::evictions`] and [`ResultCache::bytes`] expose the running totals for
//! `/metrics`.
//!
//! # Persistence
//!
//! A cache built with [`ResultCache::with_persistence`] attaches one append-only
//! [`crate::persist`] log per shard. Inserts append under the shard lock (so log order
//! matches map order); recovery on startup reloads every intact record and truncates
//! torn or corrupt tails, making a `kill -9` mid-append lose at most the final records
//! while never serving wrong bytes. Logs compact automatically (rewrite-and-rename)
//! once they grow well past the shard's byte budget.

use crate::persist::{shard_log_path, RecoveryStats, ShardLog};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// One memoised response: status plus the rendered (deterministic) JSON body, shared
/// so a hit hands the same allocation to the response writer.
#[derive(Debug)]
pub struct CachedResponse {
    /// HTTP status of the memoised response.
    pub status: u16,
    /// The rendered JSON body.
    pub body: Arc<String>,
}

/// Estimated resident overhead of one entry beyond its body bytes (key, stamps, map
/// slot). Only the ratio to the byte budget matters, so a round constant suffices.
const ENTRY_OVERHEAD: usize = 64;

/// A shard log is compacted once it exceeds this multiple of the shard's byte budget
/// (stale records from evicted or superseded entries are the difference).
const COMPACT_FACTOR: u64 = 4;

/// Compaction never triggers below this log size, so tiny caches don't churn.
const COMPACT_FLOOR: u64 = 64 << 10;

fn entry_cost(response: &CachedResponse) -> usize {
    response.body.len() + ENTRY_OVERHEAD
}

/// Shard-log files under `dir` whose index is at or beyond the current shard count —
/// leftovers from a run with more shards.
fn orphan_shard_logs(dir: &Path, shard_count: usize) -> io::Result<Vec<std::path::PathBuf>> {
    let mut orphans = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(index) = name
            .strip_prefix("shard-")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|digits| digits.parse::<usize>().ok())
        else {
            continue;
        };
        if index >= shard_count {
            orphans.push(entry.path());
        }
    }
    orphans.sort();
    Ok(orphans)
}

#[derive(Debug)]
struct Entry {
    response: Arc<CachedResponse>,
    last_used: u64,
}

/// The state behind one shard mutex: the map, its LRU clock, its byte estimate, and
/// (when persistence is on) its append-only log.
#[derive(Debug, Default)]
struct CacheShard {
    map: HashMap<u128, Entry>,
    clock: u64,
    bytes: usize,
    log: Option<ShardLog>,
}

/// A sharded map from 128-bit request fingerprints to rendered responses.
#[derive(Debug)]
pub struct ResultCache {
    shards: Vec<Mutex<CacheShard>>,
    shard_capacity: usize,
    shard_byte_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bytes: AtomicU64,
    recovery: RecoveryStats,
}

/// Default total byte budget when the caller only bounds entry counts: generous enough
/// that entry capacity is normally the binding constraint.
const DEFAULT_TOTAL_BYTES: usize = 64 << 20;

impl ResultCache {
    /// A cache of `shards` independent mutexes holding at most `total_capacity` entries
    /// overall (each shard caps at `total_capacity / shards`, minimum 1), with a
    /// default total byte budget of 64 MiB.
    pub fn new(shards: usize, total_capacity: usize) -> Self {
        Self::with_limits(shards, total_capacity, DEFAULT_TOTAL_BYTES)
    }

    /// A cache bounded by both entry count and resident bytes, each divided evenly
    /// across shards. A response bigger than one shard's byte budget is never cached.
    pub fn with_limits(shards: usize, total_capacity: usize, total_bytes: usize) -> Self {
        let shards = shards.max(1);
        ResultCache {
            shard_capacity: (total_capacity / shards).max(1),
            shard_byte_budget: (total_bytes / shards).max(1),
            shards: (0..shards)
                .map(|_| Mutex::new(CacheShard::default()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            recovery: RecoveryStats::default(),
        }
    }

    /// A bounded cache whose shards persist to append-only logs under `dir` (created
    /// if absent), warm-started from whatever intact records previous runs left there.
    ///
    /// Torn or corrupt log tails are truncated during recovery — see
    /// [`ResultCache::recovery_stats`] for what was reloaded and what was cut. Fails
    /// only on filesystem errors (permissions, full disk); *damaged* log contents are
    /// never an error.
    pub fn with_persistence(
        shards: usize,
        total_capacity: usize,
        total_bytes: usize,
        dir: &Path,
    ) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let mut cache = Self::with_limits(shards, total_capacity, total_bytes);
        let mut stats = RecoveryStats::default();
        let mut recovered = Vec::new();
        for (index, shard) in cache.shards.iter_mut().enumerate() {
            let (log, entries, shard_stats) = ShardLog::open(&shard_log_path(dir, index))?;
            stats.merge(shard_stats);
            shard.get_mut().expect("new mutex cannot be poisoned").log = Some(log);
            recovered.push((index, entries));
        }
        // A directory written with a *larger* shard count leaves orphan logs beyond
        // the current range; recover their entries too (re-appended into the right
        // live log below), then remove them so stale records cannot resurrect later.
        for path in orphan_shard_logs(dir, shards)? {
            let (log, entries, shard_stats) = ShardLog::open(&path)?;
            stats.merge(shard_stats);
            drop(log);
            let _ = std::fs::remove_file(&path);
            recovered.push((usize::MAX, entries));
        }
        cache.recovery = stats;
        // Re-route every recovered entry through the *current* shard function, so a
        // cache directory written with a different shard count still warms correctly.
        for (source, entries) in recovered {
            for e in entries {
                let response = Arc::new(CachedResponse {
                    status: e.status,
                    body: Arc::new(e.body),
                });
                cache.insert_inner(e.key, response, Some(source));
            }
        }
        Ok(cache)
    }

    /// Number of shards (fixed at construction).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_index(&self, key: u128) -> usize {
        ((key as u64) ^ ((key >> 64) as u64)) as usize % self.shards.len()
    }

    fn shard(&self, key: u128) -> (usize, MutexGuard<'_, CacheShard>) {
        let index = self.shard_index(key);
        // A poisoned mutex only means another worker panicked mid-insert; the map
        // itself is still structurally sound, and the daemon must keep serving.
        let guard = match self.shards[index].lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        (index, guard)
    }

    /// Looks a response up, counting the hit or miss and bumping its LRU stamp.
    pub fn get(&self, key: u128) -> Option<Arc<CachedResponse>> {
        let (_, mut shard) = self.shard(key);
        shard.clock += 1;
        let stamp = shard.clock;
        let found = shard.map.get_mut(&key).map(|entry| {
            entry.last_used = stamp;
            Arc::clone(&entry.response)
        });
        drop(shard);
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts a response (first insert wins on a racing double-compute — both computed
    /// the same body), evicting least-recently-used entries if the shard's entry or
    /// byte bound is exceeded, and appending to the shard's persistent log if one is
    /// attached. A response bigger than the shard's whole byte budget is skipped: it is
    /// neither mapped nor logged, and no neighbour is evicted for it.
    pub fn insert(&self, key: u128, response: Arc<CachedResponse>) {
        self.insert_inner(key, response, None);
    }

    /// Shared insert path. `already_logged_in` is `Some(source_shard)` during recovery:
    /// the record already lives in shard `source_shard`'s log, so it is only re-appended
    /// when the current shard function routes it elsewhere.
    fn insert_inner(
        &self,
        key: u128,
        response: Arc<CachedResponse>,
        already_logged_in: Option<usize>,
    ) {
        let cost = entry_cost(&response);
        if cost > self.shard_byte_budget {
            return;
        }
        let (index, mut shard) = self.shard(key);
        if shard.map.contains_key(&key) {
            return;
        }
        shard.clock += 1;
        let stamp = shard.clock;
        // Persist before the entry becomes visible; log I/O failures degrade the cache
        // to in-memory-only for that record rather than failing the request.
        if already_logged_in != Some(index) {
            if let Some(log) = shard.log.as_mut() {
                let _ = log.append(key, response.status, &response.body);
            }
        }
        shard.map.insert(
            key,
            Entry {
                response,
                last_used: stamp,
            },
        );
        shard.bytes += cost;
        self.bytes.fetch_add(cost as u64, Ordering::Relaxed);
        self.evict_over_budget(&mut shard);
        self.maybe_compact(&mut shard);
    }

    /// Evicts least-recently-used entries until the shard honours both its entry
    /// capacity and its byte budget. The entry just inserted is the most recently used
    /// and fits the budget on its own, so it is never the victim.
    fn evict_over_budget(&self, shard: &mut CacheShard) {
        while shard.map.len() > self.shard_capacity || shard.bytes > self.shard_byte_budget {
            // O(shard entries) scan; shards are small (capacity / shard_count) and the
            // loop runs at most once per insert in steady state.
            let Some(victim) = shard
                .map
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| *key)
            else {
                break;
            };
            if let Some(entry) = shard.map.remove(&victim) {
                let cost = entry_cost(&entry.response);
                shard.bytes -= cost.min(shard.bytes);
                self.bytes.fetch_sub(cost as u64, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Compacts the shard's log down to its live entries once stale records (from
    /// evictions and superseded inserts) dominate the file.
    fn maybe_compact(&self, shard: &mut CacheShard) {
        let threshold = COMPACT_FACTOR * (self.shard_byte_budget as u64).max(COMPACT_FLOOR);
        let CacheShard { map, log, .. } = shard;
        if let Some(log) = log.as_mut() {
            if log.bytes() > threshold {
                let live = map.iter().map(|(key, entry)| {
                    (*key, entry.response.status, entry.response.body.as_str())
                });
                let _ = log.compact(live);
            }
        }
    }

    /// Pressure relief: evicts least-recently-used entries until each shard holds at
    /// most half the bytes it did — the memory governor's "give the engines room"
    /// lever when a request cannot be admitted. Returns the bytes released. Hot
    /// entries survive (eviction is strictly LRU per shard); an already-light cache
    /// releases little and that is fine — the caller sheds the request either way.
    pub fn shed_half(&self) -> u64 {
        let mut released = 0u64;
        for mutex in &self.shards {
            let mut shard = match mutex.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            if shard.map.is_empty() {
                continue;
            }
            // One O(n log n) sort instead of a min-scan per eviction: this runs while
            // holding the shard mutex under memory pressure, exactly when stalling
            // every request hashed to the shard would hurt most.
            let target = shard.bytes / 2;
            let mut order: Vec<(u64, u128)> = shard
                .map
                .iter()
                .map(|(key, entry)| (entry.last_used, *key))
                .collect();
            order.sort_unstable();
            for (_, key) in order {
                if shard.bytes <= target {
                    break;
                }
                if let Some(entry) = shard.map.remove(&key) {
                    let cost = entry_cost(&entry.response);
                    shard.bytes -= cost.min(shard.bytes);
                    released += cost as u64;
                    self.bytes.fetch_sub(cost as u64, Ordering::Relaxed);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        released
    }

    /// Fsyncs every attached shard log (drain/shutdown path; routine appends are left
    /// to the OS). No-op without persistence. Returns the first I/O error, after
    /// attempting every shard.
    pub fn flush(&self) -> io::Result<()> {
        let mut first_err = None;
        for mutex in &self.shards {
            let mut shard = match mutex.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            if let Some(log) = shard.log.as_mut() {
                if let Err(e) = log.flush() {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Total entries across shards (locks each shard briefly).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| match s.lock() {
                Ok(guard) => guard.map.len(),
                Err(poisoned) => poisoned.into_inner().map.len(),
            })
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit counter.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss counter.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lifetime count of entries evicted to honour the entry or byte bounds.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Estimated resident bytes of all cached bodies (plus fixed per-entry overhead).
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// What startup recovery found in the persistent logs (all zeros without
    /// persistence): intact entries reloaded and torn/corrupt tails truncated.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn entry(body: &str) -> Arc<CachedResponse> {
        Arc::new(CachedResponse {
            status: 200,
            body: Arc::new(body.to_string()),
        })
    }

    /// A scratch directory unique to this test, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let path = std::env::temp_dir().join(format!(
                "fcpn-cache-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&path);
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn get_after_insert_hits() {
        let cache = ResultCache::new(4, 64);
        assert!(cache.get(7).is_none());
        cache.insert(7, entry("a"));
        assert_eq!(*cache.get(7).unwrap().body, "a");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn capacity_bounds_hold_under_many_inserts() {
        let shards = 4;
        let total = 16;
        let cache = ResultCache::new(shards, total);
        for key in 0..10_000u128 {
            cache.insert(key.wrapping_mul(0x9E37_79B9), entry("x"));
            assert!(cache.len() <= shards * (total / shards));
        }
        assert!(cache.evictions() > 0);
    }

    #[test]
    fn first_insert_wins() {
        let cache = ResultCache::new(1, 8);
        cache.insert(1, entry("first"));
        cache.insert(1, entry("second"));
        assert_eq!(*cache.get(1).unwrap().body, "first");
    }

    #[test]
    fn eviction_removes_the_least_recently_used_entry() {
        let cache = ResultCache::new(1, 3);
        cache.insert(1, entry("one"));
        cache.insert(2, entry("two"));
        cache.insert(3, entry("three"));
        // Touch 1 and 3, leaving 2 as the LRU victim of the next insert.
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        cache.insert(4, entry("four"));
        assert!(cache.get(2).is_none(), "LRU entry is the one evicted");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        assert!(cache.get(4).is_some());
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn byte_budget_evicts_even_below_entry_capacity() {
        // Entry capacity 64, but a budget that holds only ~2 of these bodies.
        let body = "x".repeat(512);
        let cache = ResultCache::with_limits(1, 64, 2 * (body.len() + ENTRY_OVERHEAD));
        for key in 0..10u128 {
            cache.insert(key, entry(&body));
        }
        assert!(cache.len() <= 2, "byte budget caps residency at 2 entries");
        assert!(cache.evictions() >= 8);
        assert!(cache.bytes() <= 2 * (body.len() + ENTRY_OVERHEAD) as u64);
    }

    #[test]
    fn oversized_insert_leaves_the_shard_untouched() {
        let dir = TempDir::new("oversized");
        let body = "x".repeat(512);
        let budget = 2 * (body.len() + ENTRY_OVERHEAD);
        let cache = ResultCache::with_persistence(1, 64, budget, &dir.0).unwrap();
        cache.insert(1, entry(&body));
        cache.insert(2, entry(&body));
        cache.flush().unwrap();
        let log = crate::persist::shard_log_path(&dir.0, 0);
        let log_len = std::fs::metadata(&log).unwrap().len();
        let (bytes, evictions) = (cache.bytes(), cache.evictions());

        // One byte past the whole shard budget once the entry overhead is added.
        cache.insert(3, entry(&"y".repeat(budget - ENTRY_OVERHEAD + 1)));
        cache.flush().unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.bytes(), bytes);
        assert_eq!(cache.evictions(), evictions);
        assert_eq!(
            std::fs::metadata(&log).unwrap().len(),
            log_len,
            "not logged"
        );
        let misses = cache.misses();
        assert!(cache.get(3).is_none());
        assert_eq!(cache.misses(), misses + 1);
        assert!(cache.get(1).is_some() && cache.get(2).is_some());
    }

    #[test]
    fn shed_half_halves_bytes_and_keeps_the_hottest_entries() {
        let cache = ResultCache::with_limits(1, 64, 1 << 20);
        let body = "x".repeat(256);
        for key in 0..8u128 {
            cache.insert(key, entry(&body));
        }
        // Touch the upper half so the lower half is the LRU shed victim set.
        for key in 4..8u128 {
            assert!(cache.get(key).is_some());
        }
        let before = cache.bytes();
        let released = cache.shed_half();
        assert!(released > 0);
        assert_eq!(cache.bytes(), before - released);
        assert!(
            cache.bytes() <= before / 2,
            "shed reaches the half-byte target"
        );
        for key in 4..8u128 {
            assert!(
                cache.get(key).is_some(),
                "recently used entry {key} survives"
            );
        }
        for key in 0..4u128 {
            assert!(cache.get(key).is_none(), "LRU entry {key} is shed first");
        }
        // An empty cache sheds nothing and does not wrap the gauges.
        let empty = ResultCache::new(2, 8);
        assert_eq!(empty.shed_half(), 0);
        assert_eq!(empty.bytes(), 0);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = Arc::new(ResultCache::new(8, 256));
        std::thread::scope(|scope| {
            for worker in 0..8u128 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..500u128 {
                        let key = (worker << 64) | i;
                        cache.insert(key, entry("b"));
                        assert!(cache.get(key).is_some() || cache.len() <= 256);
                    }
                });
            }
        });
    }

    #[test]
    fn persistent_cache_round_trips_across_reopen() {
        let dir = TempDir::new("roundtrip");
        {
            let cache = ResultCache::with_persistence(4, 64, 1 << 20, &dir.0).unwrap();
            cache.insert(7, entry("seven"));
            cache.insert(1 << 100, entry("big-key"));
            cache.flush().unwrap();
        }
        let cache = ResultCache::with_persistence(4, 64, 1 << 20, &dir.0).unwrap();
        assert_eq!(cache.recovery_stats().recovered_entries, 2);
        assert_eq!(cache.recovery_stats().torn_tail_truncations, 0);
        assert_eq!(*cache.get(7).unwrap().body, "seven");
        assert_eq!(*cache.get(1 << 100).unwrap().body, "big-key");
    }

    #[test]
    fn shard_count_change_still_warms_every_entry() {
        let dir = TempDir::new("reshard");
        {
            let cache = ResultCache::with_persistence(8, 64, 1 << 20, &dir.0).unwrap();
            for key in 0..20u128 {
                cache.insert(key * 31, entry("v"));
            }
            cache.flush().unwrap();
        }
        // Reopen with a different shard count: every entry must be re-routed.
        let cache = ResultCache::with_persistence(3, 64, 1 << 20, &dir.0).unwrap();
        assert_eq!(cache.recovery_stats().recovered_entries, 20);
        for key in 0..20u128 {
            assert!(cache.get(key * 31).is_some(), "key {key} lost in re-shard");
        }
    }

    #[test]
    fn torn_log_tail_is_survivable() {
        let dir = TempDir::new("torn");
        {
            let cache = ResultCache::with_persistence(1, 64, 1 << 20, &dir.0).unwrap();
            cache.insert(1, entry("keep"));
            cache.insert(2, entry("tear-me"));
            cache.flush().unwrap();
        }
        // Simulate a crash mid-append: chop bytes off the single shard's log.
        let log = crate::persist::shard_log_path(&dir.0, 0);
        let data = std::fs::read(&log).unwrap();
        std::fs::write(&log, &data[..data.len() - 4]).unwrap();
        let cache = ResultCache::with_persistence(1, 64, 1 << 20, &dir.0).unwrap();
        assert_eq!(cache.recovery_stats().torn_tail_truncations, 1);
        assert_eq!(*cache.get(1).unwrap().body, "keep");
        assert!(cache.get(2).is_none(), "torn entry is dropped, not misread");
    }

    #[test]
    fn compaction_keeps_log_bounded_under_churn() {
        let dir = TempDir::new("compact");
        let body = "y".repeat(1024);
        {
            // Tiny byte budget so churned entries accumulate stale records fast.
            let cache = ResultCache::with_persistence(1, 4, 4 * 1100, &dir.0).unwrap();
            for key in 0..2_000u128 {
                cache.insert(key, entry(&body));
            }
            cache.flush().unwrap();
        }
        let log = crate::persist::shard_log_path(&dir.0, 0);
        let size = std::fs::metadata(&log).unwrap().len();
        // Without compaction the log would be ~2000 × 1KiB ≈ 2 MiB; the compaction
        // threshold (COMPACT_FACTOR × max(budget, COMPACT_FLOOR)) bounds it far below.
        assert!(size < 600 << 10, "log grew unbounded: {size} bytes");
        let cache = ResultCache::with_persistence(1, 4, 4 * 1100, &dir.0).unwrap();
        assert_eq!(cache.recovery_stats().torn_tail_truncations, 0);
        assert!(!cache.is_empty());
    }
}
