//! Incremental-scheduling toolkit: delta-maintained ordered job indices
//! and estimate caches shared by every policy that keeps persistent state
//! across scheduler invocations.
//!
//! The pieces compose into one pattern (see `DESIGN.md` §7):
//!
//! 1. [`Scheduler::on_delta`](crate::scheduler::Scheduler::on_delta) marks
//!    jobs whose sort key or ready-stage set may have changed (and removes
//!    completed jobs);
//! 2. at the top of `schedule`, the policy *refreshes* the index — only
//!    dirty jobs have their keys and ready flags recomputed and their
//!    entries repositioned;
//! 3. the policy then walks the jobs with ready work in key order, which
//!    emits exactly what the old rebuild path emitted over its freshly
//!    sorted vector of every job.
//!
//! A count-mismatch safety net (`refresh` compares index size against the
//! context's job count) rebuilds the whole index when a context was built
//! outside the engine's delta stream (hand-built test contexts, wrappers
//! that forget to forward `on_delta` after a membership change).

use std::collections::{HashMap, HashSet};

use llmsched_dag::ids::JobId;

use crate::scheduler::{SchedContext, SchedDelta};
use crate::state::JobRt;

/// A totally ordered `f64` sort key.
///
/// Scheduling keys are always finite (duration estimates, historical
/// means); comparing panics on NaN, matching the
/// `partial_cmp().expect("finite")` comparators the sorted-vector paths
/// use.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FiniteF64(pub f64);

impl Eq for FiniteF64 {}

impl PartialOrd for FiniteF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FiniteF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("finite scheduling key")
    }
}

/// One indexed job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexEntry<K, V> {
    /// Sort key (ties broken by `job`).
    pub key: K,
    /// The job.
    pub job: JobId,
    /// Whether the job has at least one ready stage.
    pub ready: bool,
    /// Payload carried alongside the key (LLMSched's interval index
    /// carries the upper bound; `()` elsewhere).
    pub val: V,
}

/// A persistent job index sorted by `(key, JobId)` — the incremental
/// replacement for `sort_by_key(|j| (key(j), j.id()))` over the context's
/// job list — with each job's ready flag inline.
///
/// At benchmark concurrency a decision point sees a few hundred active
/// jobs but only one or two ready stages, so walks over the order spend
/// their time *skipping* jobs. The index is one dense sorted vector whose
/// entries carry the flag (and a payload), so a walk is a linear scan
/// that decides "skip" from the entry itself, without a tree step or a
/// per-job lookup.
///
/// Upserts, removals and flag flips locate the entry by binary search on
/// the job's stored key; inserting or removing shifts the entries after
/// it. Those are rare next to walks: keys move only when a job's sort
/// key does, flags only when a job's ready/non-ready status does. When
/// every key moves at once, [`ReadyIndex::rebuild`] refills the index
/// with one sort instead of n shifting inserts.
#[derive(Debug, Clone)]
pub struct ReadyIndex<K, V> {
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
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if no jobs are indexed.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Drops everything (capacity is kept).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.keys.clear();
    }

    /// All entries in ascending `(key, JobId)` order.
    pub fn entries(&self) -> &[IndexEntry<K, V>] {
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
    pub fn rebuild(&mut self, entries: impl IntoIterator<Item = IndexEntry<K, V>>) {
        self.clear();
        self.entries.extend(entries);
        self.entries.sort_unstable_by_key(|e| (e.key, e.job));
        for e in &self.entries {
            let fresh = self.keys.insert(e.job, e.key).is_none();
            debug_assert!(fresh, "job indexed once");
        }
    }

    /// Inserts `entry.job` or moves it to `entry.key`, setting its
    /// payload, and returns the entry's position. A new entry takes
    /// `entry.ready`; an existing one keeps its flag, so a caller that
    /// owns flags through [`ReadyIndex::set_ready`] can re-key a job
    /// without touching it.
    pub fn upsert(&mut self, mut entry: IndexEntry<K, V>) -> usize {
        let (job, key) = (entry.job, entry.key);
        if let Some(old) = self.keys.insert(job, key) {
            let at = self.position(old, job);
            if old == key {
                self.entries[at].val = entry.val;
                return at;
            }
            entry.ready = self.entries.remove(at).ready;
        }
        let at = self
            .entries
            .binary_search_by(|e| (e.key, e.job).cmp(&(key, job)))
            .expect_err("job indexed once");
        self.entries.insert(at, entry);
        at
    }

    /// Removes `job` if present.
    pub fn remove(&mut self, job: JobId) {
        if let Some(key) = self.keys.remove(&job) {
            let at = self.position(key, job);
            self.entries.remove(at);
        }
    }

    /// Sets `job`'s ready flag (no-op for an unindexed job).
    pub fn set_ready(&mut self, job: JobId, ready: bool) {
        if let Some(&key) = self.keys.get(&job) {
            let at = self.position(key, job);
            self.entries[at].ready = ready;
        }
    }
}

/// A [`ReadyIndex`] plus delta-driven dirtiness tracking: the standard
/// scaffolding for an incremental baseline scheduler.
///
/// Every delta that can move a job's sort key or its ready-stage set
/// marks the job dirty; [`DeltaIndex::refresh`] re-derives both for the
/// dirty jobs only, and [`DeltaIndex::ready_ids`] walks just the jobs
/// with ready work. Skipping the rest is exact for any policy that emits
/// nothing for a job with an empty ready-stage set.
#[derive(Debug, Clone)]
pub struct DeltaIndex<K> {
    index: ReadyIndex<K, ()>,
    dirty: HashSet<JobId>,
}

impl<K> Default for DeltaIndex<K> {
    fn default() -> Self {
        DeltaIndex {
            index: ReadyIndex::default(),
            dirty: HashSet::new(),
        }
    }
}

impl<K: Ord + Copy> DeltaIndex<K> {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops everything (for [`Scheduler::reset`](crate::scheduler::Scheduler::reset)).
    pub fn clear(&mut self) {
        self.index.clear();
        self.dirty.clear();
    }

    /// Marks a job stale; its key and ready flag are recomputed at the
    /// next [`DeltaIndex::refresh`]. Also how arrivals enter the index.
    pub fn mark(&mut self, job: JobId) {
        self.dirty.insert(job);
    }

    /// Evicts a completed job.
    pub fn complete(&mut self, job: JobId) {
        self.index.remove(job);
        self.dirty.remove(&job);
    }

    /// Standard delta routing: completions evict, every other
    /// non-observation delta marks the job dirty. That set covers the four
    /// kinds that can move a job's ready-stage set (arrival, stage
    /// completion, reveal, task dispatch) and every kind a baseline's sort
    /// key depends on (task dispatch/finish for running-task counts, stage
    /// completion for remaining-work estimates).
    pub fn on_delta(&mut self, delta: &SchedDelta) {
        match delta {
            SchedDelta::JobCompleted { job } => self.complete(*job),
            d if d.is_observation() => {}
            d => self.mark(d.job()),
        }
    }

    /// Brings the index in sync with `ctx`: recomputes the key and ready
    /// flag of each dirty job (dropping any that are no longer active),
    /// then falls back to a full rebuild if the index does not cover
    /// exactly the context's jobs — the safety net for contexts built
    /// outside the engine's delta stream. Returns `true` when that safety
    /// net fired, so policies can invalidate any sibling caches that rely
    /// on the same delta stream.
    pub fn refresh(&mut self, ctx: &SchedContext<'_>, mut key: impl FnMut(&JobRt) -> K) -> bool {
        for id in self.dirty.drain() {
            match ctx.job(id) {
                Some(job) => {
                    let e = entry(job, key(job));
                    let at = self.index.upsert(e);
                    self.index.entries[at].ready = e.ready;
                }
                None => self.index.remove(id),
            }
        }
        let rebuilt = self.index.len() != ctx.jobs.len();
        if rebuilt {
            self.index
                .rebuild(ctx.jobs.iter().map(|job| entry(job, key(job))));
        }
        debug_assert!(
            self.index
                .entries()
                .iter()
                .all(|e| ctx.job(e.job).is_some_and(|job| e.ready == is_ready(job))),
            "DeltaIndex ready flags out of sync with the context"
        );
        rebuilt
    }

    /// Ids of the jobs with at least one ready stage, in ascending
    /// `(key, JobId)` order (call [`DeltaIndex::refresh`] first).
    pub fn ready_ids(&self) -> impl Iterator<Item = JobId> + '_ {
        self.index
            .entries()
            .iter()
            .filter(|e| e.ready)
            .map(|e| e.job)
    }
}

/// Whether `job` has at least one ready stage.
fn is_ready(job: &JobRt) -> bool {
    !job.ready_stage_ids().is_empty()
}

/// `job`'s [`DeltaIndex`] entry under `key`, flagged from its ready set.
fn entry<K>(job: &JobRt, key: K) -> IndexEntry<K, ()> {
    IndexEntry {
        key,
        job: job.id(),
        ready: is_ready(job),
        val: (),
    }
}

/// A delta-maintained per-job `f64` estimate cache (no ordering) — for
/// policies that fold over the context's job list but want the
/// per-job estimate recomputed only when that job actually changed.
///
/// Entries are implicitly keyed by a *generation* counter: estimate
/// sources that can change wholesale (an online-updated profile snapshot,
/// a re-trained predictor) call [`EstimateCache::bump_generation`] when
/// they publish, which invalidates every cached value at once without the
/// policy having to enumerate jobs. Static sources (historical priors)
/// never bump and pay nothing.
#[derive(Debug, Clone, Default)]
pub struct EstimateCache {
    est: HashMap<JobId, f64>,
    dirty: HashSet<JobId>,
    generation: u64,
}

impl EstimateCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.est.clear();
        self.dirty.clear();
    }

    /// The generation the cached estimates belong to.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Declares every cached estimate stale (the estimate source itself
    /// changed — e.g. a new profile snapshot was published) and advances
    /// the generation. The next [`EstimateCache::refresh`] recomputes all
    /// entries; per-job delta tracking resumes from there.
    pub fn bump_generation(&mut self) {
        self.est.clear();
        self.dirty.clear();
        self.generation += 1;
    }

    /// Standard delta routing: arrivals and stage completions dirty the
    /// estimate, completions evict it.
    pub fn on_delta(&mut self, delta: &SchedDelta) {
        match delta {
            SchedDelta::JobArrived { job, .. } | SchedDelta::StageCompleted { job, .. } => {
                self.dirty.insert(*job);
            }
            SchedDelta::JobCompleted { job } => {
                self.est.remove(job);
                self.dirty.remove(job);
            }
            _ => {}
        }
    }

    /// Recomputes dirty estimates, with the same count-mismatch rebuild
    /// safety net as [`DeltaIndex::refresh`].
    pub fn refresh(&mut self, ctx: &SchedContext<'_>, mut estimate: impl FnMut(&JobRt) -> f64) {
        for id in self.dirty.drain() {
            match ctx.job(id) {
                Some(job) => {
                    self.est.insert(id, estimate(job));
                }
                None => {
                    self.est.remove(&id);
                }
            }
        }
        if self.est.len() != ctx.jobs.len() {
            self.est.clear();
            for job in &ctx.jobs {
                self.est.insert(job.id(), estimate(job));
            }
        }
    }

    /// The cached estimate of `job` (refresh first; jobs absent from the
    /// synchronizing context report 0).
    pub fn get(&self, job: JobId) -> f64 {
        self.est.get(&job).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    #[test]
    fn finite_key_orders_like_partial_cmp() {
        let mut v = vec![FiniteF64(3.0), FiniteF64(-1.0), FiniteF64(0.5)];
        v.sort();
        assert_eq!(v, vec![FiniteF64(-1.0), FiniteF64(0.5), FiniteF64(3.0)]);
    }

    #[test]
    #[should_panic(expected = "finite scheduling key")]
    fn nan_key_panics() {
        let _ = FiniteF64(f64::NAN).cmp(&FiniteF64(0.0));
    }

    #[test]
    fn estimate_cache_generation_invalidates_everything() {
        let mut c = EstimateCache::new();
        assert_eq!(c.generation(), 0);
        c.est.insert(JobId(1), 5.0);
        c.est.insert(JobId(2), 7.0);
        c.bump_generation();
        assert_eq!(c.generation(), 1);
        assert_eq!(c.get(JobId(1)), 0.0, "bumped generation drops estimates");
        assert_eq!(c.get(JobId(2)), 0.0);
    }

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
                        let at = index.upsert(IndexEntry {
                            key,
                            job,
                            ready,
                            val,
                        });
                        assert_eq!(index.entries()[at].job, job, "seed {seed}: upsert position");
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
