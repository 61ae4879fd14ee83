//! The engine's **compiled-plan cache**: an LRU map from
//! [`trance_compiler::plan_cache_key`] to the [`PreparedQuery`] a cold run
//! captured.
//!
//! The key already folds in the table registry's epoch, so invalidation is
//! free: any registration bumps the epoch, every old key stops being
//! looked up, and the stale entries age out of the LRU bound. The capacity
//! caps resident memory (prepared plans are plan trees, not data, but an
//! adversarial client could otherwise grow the map without bound).

use std::collections::HashMap;
use std::sync::Arc;

use trance_compiler::PreparedQuery;

struct Entry {
    prepared: Arc<PreparedQuery>,
    last_used: u64,
}

pub(crate) struct PlanCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<u64, Entry>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PlanCache {
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity,
            tick: 0,
            entries: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up a prepared query, bumping its recency. Counts a hit or a
    /// miss — the engine's hit-rate metric reads these counters.
    pub fn get(&mut self, key: u64) -> Option<Arc<PreparedQuery>> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(&key) {
            Some(e) => {
                e.last_used = tick;
                self.hits += 1;
                Some(e.prepared.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly prepared query, evicting the least recently used
    /// entry when full. A zero-capacity cache stays empty (caching off).
    pub fn insert(&mut self, key: u64, prepared: Arc<PreparedQuery>) {
        if self.capacity == 0 {
            return;
        }
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some((&lru, _)) = self.entries.iter().min_by_key(|(_, e)| e.last_used) {
                self.entries.remove(&lru);
                self.evictions += 1;
            }
        }
        self.tick += 1;
        self.entries.insert(
            key,
            Entry {
                prepared,
                last_used: self.tick,
            },
        );
    }

    pub fn clear(&mut self) {
        self.entries.clear();
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The LRU payload (`PreparedQuery`) can only be built through
    // `prepare_and_run`, so insertion/eviction/recency are exercised with
    // real queries by the integration tests; here only the payload-free
    // bookkeeping is testable.
    #[test]
    fn empty_cache_misses() {
        let mut c = PlanCache::new(4);
        assert!(c.get(42).is_none());
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 0);
    }
}
