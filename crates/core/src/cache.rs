//! The result-schema memo in front of Stage 2.
//!
//! [`crate::PrecisEngine::plan`] keys each generated result schema by
//! (sorted origin relations, degree constraint, weight profile) and hands
//! the stored `Arc` back on a repeat, so queries that land on the same
//! relations skip Stage 2 and never copy a schema.
//!
//! A result schema is a function of the schema graph and that key — of no
//! stored tuple — so entries carry no data generation and survive every
//! insert, update and delete: clones of an engine share one memo. The only
//! thing that changes what a key means is re-registering a weight profile,
//! and [`crate::PrecisEngine::register_profile`] installs a fresh memo.
//!
//! The memo is a bounded LRU behind a `Mutex`, so the engine stays `Sync`
//! and planning keeps taking `&self`.

use crate::constraints::DegreeConstraint;
use crate::result_schema::ResultSchema;
use precis_storage::RelationId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of result schemas kept.
pub const SCHEMA_CAPACITY: usize = 64;

/// Snapshot of the memo's counters (all monotonically increasing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnswerCacheStats {
    pub schema_hits: u64,
    pub schema_misses: u64,
    pub schema_evictions: u64,
}

impl AnswerCacheStats {
    /// Hit rate in `[0, 1]`; 0 when nothing was probed.
    pub fn schema_hit_rate(&self) -> f64 {
        let probes = self.schema_hits + self.schema_misses;
        if probes == 0 {
            0.0
        } else {
            self.schema_hits as f64 / probes as f64
        }
    }
}

/// Memo key of one result schema: (sorted distinct origins, degree
/// fingerprint, profile name).
pub type SchemaKey = (Vec<RelationId>, String, Option<String>);

/// Recency is a logical clock; eviction scans for the stalest entry, which
/// is O(capacity) at a capacity of tens of entries.
#[derive(Debug, Default)]
struct Lru {
    tick: u64,
    map: HashMap<SchemaKey, (Arc<ResultSchema>, u64)>,
}

/// The engine's schema memo. See the module docs.
#[derive(Debug, Default)]
pub struct AnswerCache {
    schemas: Mutex<Lru>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl AnswerCache {
    /// Build the memo key. Origins are sorted and deduplicated so queries
    /// matching the same relations in different token order share one
    /// entry; the degree constraint (which has `f64` parameters, hence no
    /// `Hash`) goes through [`DegreeConstraint::write_key`].
    pub fn schema_key(
        origins: &[RelationId],
        degree: &DegreeConstraint,
        profile: Option<&str>,
    ) -> SchemaKey {
        let mut sorted = origins.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut fingerprint = String::new();
        degree.write_key(&mut fingerprint);
        (sorted, fingerprint, profile.map(str::to_owned))
    }

    /// A hit refreshes recency and shares the stored schema.
    pub fn get_schema(&self, key: &SchemaKey) -> Option<Arc<ResultSchema>> {
        let mut lru = self.schemas.lock().expect("schema memo lock");
        lru.tick += 1;
        let tick = lru.tick;
        let found = lru.map.get_mut(key).map(|(schema, last_used)| {
            *last_used = tick;
            schema.clone()
        });
        drop(lru);
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Insert (or refresh) an entry, evicting the stalest at capacity.
    pub fn put_schema(&self, key: SchemaKey, schema: Arc<ResultSchema>) {
        let mut lru = self.schemas.lock().expect("schema memo lock");
        lru.tick += 1;
        if !lru.map.contains_key(&key) && lru.map.len() >= SCHEMA_CAPACITY {
            if let Some(stalest) = lru
                .map
                .iter()
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(k, _)| k.clone())
            {
                lru.map.remove(&stalest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let tick = lru.tick;
        lru.map.insert(key, (schema, tick));
    }

    pub fn stats(&self) -> AnswerCacheStats {
        AnswerCacheStats {
            schema_hits: self.hits.load(Ordering::Relaxed),
            schema_misses: self.misses.load(Ordering::Relaxed),
            schema_evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(rel: usize) -> SchemaKey {
        AnswerCache::schema_key(&[RelationId(rel)], &DegreeConstraint::MinWeight(0.9), None)
    }

    #[test]
    fn hits_share_the_stored_schema_and_are_counted() {
        let memo = AnswerCache::default();
        assert!(memo.get_schema(&key(0)).is_none());
        let stored = Arc::new(ResultSchema::default());
        memo.put_schema(key(0), stored.clone());
        let hit = memo.get_schema(&key(0)).expect("memoized");
        assert!(Arc::ptr_eq(&hit, &stored), "a hit never copies the schema");
        assert!(memo.get_schema(&key(1)).is_none());
        let s = memo.stats();
        assert_eq!((s.schema_hits, s.schema_misses), (1, 2));
        assert_eq!(s.schema_evictions, 0);
        assert!((s.schema_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(AnswerCacheStats::default().schema_hit_rate(), 0.0);
    }

    #[test]
    fn lru_evicts_the_stalest_entry_at_capacity() {
        let memo = AnswerCache::default();
        for rel in 0..SCHEMA_CAPACITY {
            memo.put_schema(key(rel), Arc::new(ResultSchema::default()));
        }
        // Touch entry 0 so entry 1 is the stalest when one more arrives;
        // re-inserting a resident key evicts nothing.
        assert!(memo.get_schema(&key(0)).is_some());
        memo.put_schema(key(0), Arc::new(ResultSchema::default()));
        assert_eq!(memo.stats().schema_evictions, 0);
        memo.put_schema(key(SCHEMA_CAPACITY), Arc::new(ResultSchema::default()));
        assert_eq!(memo.stats().schema_evictions, 1);
        assert!(memo.get_schema(&key(1)).is_none(), "1 was evicted");
        assert!(memo.get_schema(&key(0)).is_some());
        assert!(memo.get_schema(&key(SCHEMA_CAPACITY)).is_some());
    }

    #[test]
    fn schema_key_normalizes_origin_order() {
        let d = DegreeConstraint::MinWeight(0.5);
        let a = AnswerCache::schema_key(&[RelationId(2), RelationId(0)], &d, Some("p"));
        let b = AnswerCache::schema_key(
            &[RelationId(0), RelationId(2), RelationId(0)],
            &d,
            Some("p"),
        );
        assert_eq!(a, b);
        // Different degree parameters and profiles key differently.
        let c = AnswerCache::schema_key(
            &[RelationId(0), RelationId(2)],
            &DegreeConstraint::MinWeight(0.6),
            Some("p"),
        );
        assert_ne!(a, c);
        let e = AnswerCache::schema_key(&[RelationId(0), RelationId(2)], &d, None);
        assert_ne!(a, e);
    }
}
