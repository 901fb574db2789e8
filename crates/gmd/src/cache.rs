//! The result cache: an index from what determines a job's result to the
//! newest completed job record that holds it.
//!
//! A Green-Marl job compiles to a deterministic Pregel program, and every
//! result is pinned bit-identical by fingerprint, so the graph, the
//! program, the args, the seed and the effective worker count fully
//! determine it. A submission whose [`CacheKey`] matches a completed job
//! is answered from that job's record: the daemon shares the record's
//! `Arc<JobResult>` instead of running the program again.
//!
//! The index stores no results. Each key points at one job id, and the
//! job history owns the result; when history GC evicts that record, the
//! entry goes with it ([`ResultCache::evict`]). A hit points the entry at
//! the new record, so a key stays cached while any recent record holds
//! its result.

use crate::job::{JobSpec, ProgramSpec};
use gm_core::value::Value;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

/// What determines a completed job's result. Args compare by type and
/// bit pattern (`0.0` and `-0.0` differ); inline programs by their exact
/// source text, never by a hash alone.
#[derive(Debug, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    graph: String,
    program: ProgramSpec,
    backend: &'static str,
    /// Sorted by name, as `JobSpec::args` iterates.
    args: Vec<(String, (u8, u64))>,
    seed: u64,
    workers: usize,
}

/// A value's type tag and bit pattern.
fn value_bits(v: &Value) -> (u8, u64) {
    match *v {
        Value::Int(x) => (0, x as u64),
        Value::Double(x) => (1, x.to_bits()),
        Value::Bool(x) => (2, u64::from(x)),
        Value::Node(x) => (3, u64::from(x)),
        Value::Edge(x) => (4, u64::from(x)),
    }
}

impl CacheKey {
    /// The key of `spec` run on `backend` with `workers` workers.
    pub(crate) fn new(spec: &JobSpec, backend: &'static str, workers: usize) -> CacheKey {
        CacheKey {
            graph: spec.graph.clone(),
            program: spec.program.clone(),
            backend,
            args: (spec.args.iter())
                .map(|(name, v)| (name.clone(), value_bits(v)))
                .collect(),
            seed: spec.seed,
            workers,
        }
    }
}

/// Keys of completed jobs, each pointing at the newest record holding
/// its result.
#[derive(Default)]
pub(crate) struct ResultCache {
    /// Each key's job id.
    ids: HashMap<Arc<CacheKey>, String>,
    /// The reverse map, for eviction by job id.
    keys: HashMap<String, Arc<CacheKey>>,
}

impl ResultCache {
    /// The id of the newest completed job with this key.
    pub(crate) fn lookup(&self, key: &CacheKey) -> Option<&str> {
        self.ids.get(key).map(String::as_str)
    }

    /// Points `key` at job `id`, whose completed run holds the result: a
    /// new entry, or (when an identical job ran concurrently) the
    /// existing entry moved to the newer record.
    pub(crate) fn point(&mut self, key: CacheKey, id: &str) {
        let key = match self.ids.entry(Arc::new(key)) {
            Entry::Occupied(mut entry) => {
                self.keys.remove(entry.get());
                id.clone_into(entry.get_mut());
                entry.key().clone()
            }
            Entry::Vacant(entry) => {
                let key = entry.key().clone();
                entry.insert(id.to_owned());
                key
            }
        };
        self.keys.insert(id.to_owned(), key);
    }

    /// Moves the entry pointing at job `old` to job `new`, a hit that
    /// shares `old`'s result. Nothing happens when `old`'s entry was
    /// evicted in between.
    pub(crate) fn repoint(&mut self, old: &str, new: &str) {
        let Some(key) = self.keys.remove(old) else {
            return;
        };
        if let Some(id) = self.ids.get_mut(&key) {
            new.clone_into(id);
        }
        self.keys.insert(new.to_owned(), key);
    }

    /// Drops the entry pointing at job `id`, if any: its record left the
    /// history.
    pub(crate) fn evict(&mut self, id: &str) {
        if let Some(key) = self.keys.remove(id) {
            self.ids.remove(&key);
        }
    }

    /// Cached keys.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        debug_assert_eq!(self.ids.len(), self.keys.len());
        self.ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_obs::json::parse;

    fn key(json: &str, backend: &'static str, workers: usize) -> CacheKey {
        CacheKey::new(
            &JobSpec::from_json(&parse(json).unwrap()).unwrap(),
            backend,
            workers,
        )
    }

    const BASE: &str = r#"{"tenant":"a","graph":"g","program":"pagerank",
        "args":{"d":0.85,"e":0.0},"seed":7}"#;

    #[test]
    fn keys_match_by_bits_and_ignore_tenant_and_budgets() {
        let mut cache = ResultCache::default();
        cache.point(key(BASE, "native", 2), "job-1");
        let same = r#"{"tenant":"b","graph":"g","program":"pagerank","priority":3,
                "args":{"e":0.0,"d":0.85},"seed":7,"deadline_ms":9}"#;
        assert_eq!(cache.lookup(&key(same, "native", 2)), Some("job-1"));
        for other in [
            r#"{"graph":"g","program":"pagerank","args":{"d":0.85,"e":-0.0},"seed":7}"#,
            r#"{"graph":"g","program":"pagerank","args":{"d":0.85},"seed":7}"#,
            r#"{"graph":"g","program":"pagerank","args":{"d":0.85,"e":0},"seed":7}"#,
            r#"{"graph":"g","program":"pagerank","args":{"d":0.85,"e":0.0},"seed":8}"#,
            r#"{"graph":"h","program":"pagerank","args":{"d":0.85,"e":0.0},"seed":7}"#,
            r#"{"graph":"g","program":"sssp","args":{"d":0.85,"e":0.0},"seed":7}"#,
            r#"{"graph":"g","source":"pagerank","args":{"d":0.85,"e":0.0},"seed":7}"#,
        ] {
            assert_eq!(cache.lookup(&key(other, "native", 2)), None, "{other}");
        }
        assert_eq!(cache.lookup(&key(same, "native", 1)), None, "workers");
        assert_eq!(cache.lookup(&key(same, "interp", 2)), None, "backend");
    }

    #[test]
    fn a_hit_moves_the_entry_and_eviction_follows_the_newest_record() {
        let mut cache = ResultCache::default();
        let k = || key(BASE, "native", 2);
        cache.point(k(), "job-1");
        cache.point(k(), "job-2");
        assert_eq!(cache.len(), 1);
        let shared = |cache: &ResultCache| cache.keys.values().all(|k| Arc::strong_count(k) == 2);
        assert!(shared(&cache), "both maps hold one key allocation");
        assert_eq!(cache.lookup(&k()), Some("job-2"));
        cache.evict("job-1");
        assert_eq!(cache.lookup(&k()), Some("job-2"), "stale id");
        cache.repoint("job-2", "job-3");
        cache.repoint("job-2", "job-4");
        assert_eq!(cache.lookup(&k()), Some("job-3"));
        assert!(shared(&cache));
        cache.evict("job-2");
        assert_eq!(cache.len(), 1);
        cache.evict("job-3");
        assert_eq!(cache.lookup(&k()), None);
        assert_eq!(cache.len(), 0);
    }
}
