//! Dense, ready-flagged job indices behind LLMSched's lazy St/Su sources.
//!
//! At benchmark concurrency a decision point sees a few hundred active
//! jobs but only one or two ready stages, so the lazy sources spend their
//! time *skipping* jobs. A [`ReadyIndex`] keeps the persistent
//! `(key, JobId)` order in one sorted vector whose entries carry the
//! job's `ready` flag (and, for the interval index, the upper bound)
//! inline: a walk is a linear scan that decides "skip" from the entry
//! itself, without a tree step or a hash probe per job.

use std::collections::HashMap;

use llmsched_dag::ids::JobId;

/// One indexed job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct IndexEntry<K, V> {
    /// Sort key (ties broken by `job`).
    pub(crate) key: K,
    /// The job.
    pub(crate) job: JobId,
    /// Whether the job has at least one ready stage.
    pub(crate) ready: bool,
    /// Payload carried alongside the key (the interval index's upper
    /// bound; `()` for the SRTF index).
    pub(crate) val: V,
}

/// A job index sorted by `(key, JobId)`, with a per-entry ready flag.
///
/// Upserts, removals and flag flips locate the entry by binary search on
/// the job's stored key; inserting or removing shifts the entries after
/// it. Those are rare next to walks: keys move only when a job's belief
/// does, flags only when a job's ready/non-ready status does. When every
/// key moves at once (the Eq. 2 calibration moved), [`ReadyIndex::rebuild`]
/// refills the index with one sort instead of n shifting inserts.
#[derive(Debug, Clone)]
pub(crate) struct ReadyIndex<K, V> {
    entries: Vec<IndexEntry<K, V>>,
    keys: HashMap<JobId, K>,
}

impl<K, V> Default for ReadyIndex<K, V> {
    fn default() -> Self {
        ReadyIndex {
            entries: Vec::new(),
            keys: HashMap::new(),
        }
    }
}

impl<K: Ord + Copy, V: Copy> ReadyIndex<K, V> {
    /// Number of indexed jobs.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Drops everything (capacity is kept).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.keys.clear();
    }

    /// All entries in ascending `(key, JobId)` order.
    pub(crate) fn entries(&self) -> &[IndexEntry<K, V>] {
        &self.entries
    }

    /// Position of `job`, whose stored key is `key`.
    fn position(&self, key: K, job: JobId) -> usize {
        self.entries
            .binary_search_by(|e| (e.key, e.job).cmp(&(key, job)))
            .expect("indexed job sits at its stored key")
    }

    /// Replaces the contents with `entries` (each job at most once),
    /// sorting once: O(n log n) where n upserts would shift O(n²).
    pub(crate) fn rebuild(&mut self, entries: impl IntoIterator<Item = IndexEntry<K, V>>) {
        self.clear();
        self.entries.extend(entries);
        self.entries.sort_unstable_by_key(|e| (e.key, e.job));
        for e in &self.entries {
            let fresh = self.keys.insert(e.job, e.key).is_none();
            debug_assert!(fresh, "job indexed once");
        }
    }

    /// Inserts `entry.job` or moves it to `entry.key`, setting its
    /// payload. A new entry takes `entry.ready`; an existing one keeps its
    /// flag (flags are owned by [`ReadyIndex::set_ready`]).
    pub(crate) fn upsert(&mut self, mut entry: IndexEntry<K, V>) {
        let (job, key) = (entry.job, entry.key);
        if let Some(old) = self.keys.insert(job, key) {
            let at = self.position(old, job);
            if old == key {
                self.entries[at].val = entry.val;
                return;
            }
            entry.ready = self.entries.remove(at).ready;
        }
        let at = self
            .entries
            .binary_search_by(|e| (e.key, e.job).cmp(&(key, job)))
            .expect_err("job indexed once");
        self.entries.insert(at, entry);
    }

    /// Removes `job` if present.
    pub(crate) fn remove(&mut self, job: JobId) {
        if let Some(key) = self.keys.remove(&job) {
            let at = self.position(key, job);
            self.entries.remove(at);
        }
    }

    /// Sets `job`'s ready flag (no-op for an unindexed job).
    pub(crate) fn set_ready(&mut self, job: JobId, ready: bool) {
        if let Some(&key) = self.keys.get(&job) {
            let at = self.position(key, job);
            self.entries[at].ready = ready;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// The index equals a naive model — a map of job → (key, payload,
    /// ready), sorted by `(key, job)` on every query — after every step
    /// of random upserts (new and repositioning, same-key payload
    /// updates included), removals, ready flips and occasional whole
    /// rebuilds, both in full and filtered to ready entries.
    #[test]
    fn matches_a_sorted_and_filtered_model() {
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut index: ReadyIndex<u32, u32> = ReadyIndex::default();
            let mut model: BTreeMap<JobId, (u32, u32, bool)> = BTreeMap::new();
            for step in 0..400 {
                let job = JobId(rng.gen_range(0..40u64));
                match rng.gen_range(0..41u32) {
                    0..=19 => {
                        // Narrow key range: ties on the key are common.
                        let key = rng.gen_range(0..8u32);
                        let val = rng.gen_range(0..1000u32);
                        let ready = rng.gen_bool(0.5);
                        index.upsert(IndexEntry {
                            key,
                            job,
                            ready,
                            val,
                        });
                        let flag = model.get(&job).map_or(ready, |&(_, _, r)| r);
                        model.insert(job, (key, val, flag));
                    }
                    20..=29 => {
                        index.remove(job);
                        model.remove(&job);
                    }
                    40 => {
                        // Re-key every model job (as a calibration move
                        // does), handing the entries over unsorted.
                        for (key, val, ready) in model.values_mut() {
                            *key = rng.gen_range(0..8u32);
                            *val = rng.gen_range(0..1000u32);
                            *ready = rng.gen_bool(0.5);
                        }
                        index.rebuild(model.iter().map(|(&job, &(key, val, ready))| IndexEntry {
                            key,
                            job,
                            ready,
                            val,
                        }));
                    }
                    _ => {
                        let ready = rng.gen_bool(0.5);
                        index.set_ready(job, ready);
                        if let Some(e) = model.get_mut(&job) {
                            e.2 = ready;
                        }
                    }
                }
                let mut want: Vec<IndexEntry<u32, u32>> = model
                    .iter()
                    .map(|(&job, &(key, val, ready))| IndexEntry {
                        key,
                        job,
                        ready,
                        val,
                    })
                    .collect();
                want.sort_by_key(|e| (e.key, e.job));
                assert_eq!(index.len(), model.len(), "seed {seed} step {step}: len");
                assert_eq!(index.entries(), &want[..], "seed {seed} step {step}");
                let ready_ids = |es: &[IndexEntry<u32, u32>]| -> Vec<JobId> {
                    es.iter().filter(|e| e.ready).map(|e| e.job).collect()
                };
                assert_eq!(
                    ready_ids(index.entries()),
                    ready_ids(&want),
                    "seed {seed} step {step}: ready walk"
                );
            }
            index.clear();
            assert_eq!(index.len(), 0);
            assert!(index.entries().is_empty());
        }
    }
}
