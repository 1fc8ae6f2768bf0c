//! Sharded verdict memoization for the serving path.
//!
//! Whole verdict vectors are cached under the query's canonical-state
//! FNV fingerprint. The map is striped across N independently-locked
//! shards (shard = fingerprint mod N) so concurrent readers rarely
//! contend; each shard evicts FIFO at its capacity. The fingerprint
//! only picks the slot: it inherits the canonical state key's
//! collisions (a string value may spell the key's own separators), so
//! each entry also stores the query's exact [`ConfigQuery::memo_key`]
//! — an injective, length-prefixed byte encoding, a few hundred bytes
//! where a cloned query is kilobytes. A hit streams the query's
//! encoding against those bytes without allocating; any difference,
//! a 64-bit collision included, degrades to a miss instead of a wrong
//! answer, so the memoized path stays semantically exact.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use confdep::Verdict;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::query::ConfigQuery;

/// Sizing of a [`ShardedMemo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoOptions {
    /// Number of mutex-striped shards.
    pub shards: usize,
    /// Total entry capacity across all shards.
    pub capacity: usize,
}

impl Default for MemoOptions {
    fn default() -> Self {
        MemoOptions { shards: 64, capacity: 65536 }
    }
}

/// A point-in-time snapshot of the memo's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that fell through to evaluation.
    pub misses: usize,
    /// Entries evicted FIFO at shard capacity.
    pub evictions: usize,
    /// Entries currently cached, summed over shards.
    pub entries: usize,
    /// Number of shards.
    pub shards: usize,
}

impl MemoStats {
    /// Hit fraction over all lookups (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    /// The query's exact [`ConfigQuery::memo_key`], matched on every
    /// hit so a fingerprint collision can never serve the wrong
    /// verdicts.
    key: Box<[u8]>,
    verdicts: Arc<[Verdict]>,
}

/// Pass-through hasher for keys that are already FNV fingerprints —
/// re-hashing a 64-bit hash through SipHash would be pure overhead on
/// the lookup hot path.
#[derive(Default)]
struct FingerprintHasher(u64);

impl std::hash::Hasher for FingerprintHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // not used by u64 keys (they call write_u64), but keep it sound
        self.0 = blockdev::fnv1a(self.0, bytes);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

type FingerprintMap = HashMap<u64, Entry, std::hash::BuildHasherDefault<FingerprintHasher>>;

#[derive(Default)]
struct Shard {
    map: FingerprintMap,
    order: VecDeque<u64>,
    // counters live under the shard lock the lookup already holds, so
    // the hot path pays no extra atomic read-modify-writes
    hits: usize,
    misses: usize,
    evictions: usize,
}

/// The sharded, collision-checked verdict cache.
pub struct ShardedMemo {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
}

impl std::fmt::Debug for ShardedMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMemo")
            .field("shards", &self.shards.len())
            .field("per_shard_capacity", &self.per_shard_capacity)
            .finish_non_exhaustive()
    }
}

impl ShardedMemo {
    /// Builds an empty memo with the given sizing (shard count and
    /// capacity are clamped to at least 1).
    pub fn new(options: MemoOptions) -> Self {
        let shards = options.shards.max(1);
        let per_shard_capacity = (options.capacity / shards).max(1);
        ShardedMemo {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity,
        }
    }

    fn shard(&self, fingerprint: u64) -> &Mutex<Shard> {
        &self.shards[(fingerprint % self.shards.len() as u64) as usize]
    }

    /// The cached verdicts for a state, if present. `query` is the
    /// state behind `fingerprint`; a fingerprint match whose stored
    /// key is not `query`'s counts as a miss.
    pub fn lookup(&self, fingerprint: u64, query: &ConfigQuery) -> Option<Arc<[Verdict]>> {
        let mut shard = self.shard(fingerprint).lock();
        match shard.map.get(&fingerprint) {
            Some(entry) if query.matches_key(&entry.key) => {
                let verdicts = Arc::clone(&entry.verdicts);
                shard.hits += 1;
                Some(verdicts)
            }
            _ => {
                shard.misses += 1;
                None
            }
        }
    }

    /// Caches the verdicts for a state, evicting the shard's oldest
    /// entry when it is full.
    pub fn insert(&self, fingerprint: u64, query: &ConfigQuery, verdicts: Arc<[Verdict]>) {
        let key = query.memo_key();
        let mut shard = self.shard(fingerprint).lock();
        if shard.map.insert(fingerprint, Entry { key, verdicts }).is_none() {
            shard.order.push_back(fingerprint);
            if shard.order.len() > self.per_shard_capacity {
                if let Some(oldest) = shard.order.pop_front() {
                    shard.map.remove(&oldest);
                    shard.evictions += 1;
                }
            }
        }
    }

    /// Counter snapshot, summed over all shards.
    pub fn stats(&self) -> MemoStats {
        let mut stats = MemoStats {
            hits: 0,
            misses: 0,
            evictions: 0,
            entries: 0,
            shards: self.shards.len(),
        };
        for shard in &self.shards {
            let shard = shard.lock();
            stats.hits += shard.hits;
            stats.misses += shard.misses;
            stats.evictions += shard.evictions;
            stats.entries += shard.map.len();
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdicts(n: usize) -> Arc<[Verdict]> {
        vec![Verdict::Satisfied; n].into()
    }

    fn query(line: &str) -> ConfigQuery {
        ConfigQuery::parse_line(line).unwrap()
    }

    #[test]
    fn hit_miss_and_counters() {
        let memo = ShardedMemo::new(MemoOptions { shards: 4, capacity: 16 });
        let a = query("-b 1024 | ro");
        let b = query("-b 2048 | ro");
        assert!(memo.lookup(7, &a).is_none());
        memo.insert(7, &a, verdicts(3));
        assert_eq!(memo.lookup(7, &a).unwrap().len(), 3);
        // same fingerprint, different query: collision counts as a miss
        assert!(memo.lookup(7, &b).is_none());
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
        assert!(stats.hit_rate() > 0.3 && stats.hit_rate() < 0.4);
    }

    #[test]
    fn canonical_key_collision_is_a_miss() {
        // a label that spells the state key's own separators renders
        // the same state key, and so the same fingerprint, as a real
        // label + uuid pair; the exact key must still tell them apart
        let eco = ecosys::ext4();
        let a = ConfigQuery::parse_line_for(&eco, "-L x,uuid=s:y | ro").unwrap();
        let b = ConfigQuery::parse_line_for(&eco, "-L x -U y | ro").unwrap();
        assert_ne!(a, b);
        assert_eq!(a.state_key(), "ext4#mke2fs{label=s:x,uuid=s:y}[];mount{ro=b:true}[]");
        assert_eq!(a.state_key(), b.state_key());
        assert_eq!(a.fingerprint(), b.fingerprint());
        let memo = ShardedMemo::new(MemoOptions { shards: 4, capacity: 16 });
        memo.insert(a.fingerprint(), &a, verdicts(1));
        assert!(memo.lookup(b.fingerprint(), &b).is_none());
        assert!(memo.lookup(a.fingerprint(), &a).is_some());
    }

    #[test]
    fn fifo_eviction_at_shard_capacity() {
        // one shard, two entries total
        let memo = ShardedMemo::new(MemoOptions { shards: 1, capacity: 2 });
        let queries: Vec<ConfigQuery> =
            (0..3).map(|i| query(&format!("-b {}", 1024 << i))).collect();
        for (fp, q) in queries.iter().enumerate() {
            memo.insert(fp as u64, q, verdicts(1));
        }
        let stats = memo.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert!(memo.lookup(0, &queries[0]).is_none(), "oldest entry evicted");
        assert!(memo.lookup(2, &queries[2]).is_some());
    }

    #[test]
    fn reinsert_does_not_duplicate_order() {
        let memo = ShardedMemo::new(MemoOptions { shards: 1, capacity: 2 });
        let q = query("-b 1024");
        memo.insert(1, &q, verdicts(1));
        memo.insert(1, &q, verdicts(2));
        let stats = memo.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(memo.lookup(1, &q).unwrap().len(), 2);
    }
}
