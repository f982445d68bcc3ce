//! Persistent per-job scheduling state: the incremental replacement for
//! recomputing Bayesian evidence, posterior work estimates, ready-stage
//! counts and Eq. 6 uncertainty reductions from scratch at every decision
//! point.
//!
//! The [`BeliefStore`] holds **one record per active job**:
//!
//! * its [`JobBelief`] — everything LLMSched knows about the job under its
//!   current evidence: the completed-stage fingerprint (`mask`), the
//!   extracted [`Evidence`], the posterior [`WorkEstimate`], and the
//!   memoized per-stage Eq. 6 reductions;
//! * its ready-stage count, with a running total over all records — the
//!   exact lengths of LLMSched's lazy St/Su lists — and a running count
//!   of records with ready stages, the size of LLMSched's SRTF index.
//!
//! Eq. 6 scores are computed on demand, only where they order something:
//! LLMSched scores a ready stage when its exploration group holds at
//! least two candidates, or when a probed run records the stage's
//! emission ([`BeliefStore::reduction`]). A score is memoized in the
//! belief and stays valid for as long as the belief does, so a late
//! score has the bits an early one would have had.
//!
//! One dirty set feeds the records. The four deltas that can move a job's
//! ready-stage set ([`SchedDelta::JobArrived`],
//! [`SchedDelta::StageCompleted`], [`SchedDelta::StageRevealed`],
//! [`SchedDelta::TasksDispatched`]) mark the job, and so does
//! [`BeliefStore::mark_app_dirty`], which the caller drives with the
//! [`ProfileStore`]'s bumped-app list after a snapshot publish. A refresh
//! re-counts each marked job's ready stages and recomputes its belief iff
//! its evidence mask (or its app's snapshot version) actually moved.
//! Evidence changes only when a stage completes and versions only on a
//! publish, so the mark carries an "evidence may have moved" bit, set by
//! arrivals, stage completions and `mark_app_dirty` only: a job marked by
//! reveals or dispatches alone skips the O(template stages) mask scan. Completed jobs are evicted
//! deterministically on [`SchedDelta::JobCompleted`].
//!
//! The per-invocation cost drops from O(jobs · (stage scan + posterior
//! clone)) to O(touched jobs · posterior), while producing bit-identical
//! values to the rebuild path: the same estimator functions run on the
//! same inputs, just not redundantly.

use llmsched_bayes::network::Evidence;
use llmsched_dag::hash::{FxHashMap, FxHashSet};
use llmsched_dag::ids::{AppId, JobId, StageId};
use llmsched_sim::scheduler::{SchedContext, SchedDelta};
use llmsched_sim::state::JobRt;

use std::sync::Arc;

use crate::estimator::{EvidencePosteriors, PosteriorPlans, WorkEstimate};
use crate::store::ProfileStore;
use crate::uncertainty::uncertainty_reduction;

/// Cap on memoized posterior-band entries per app; reaching it clears
/// that app's memo (values are recomputed identically, so this only
/// bounds memory).
const BANDS_MEMO_CAP: usize = 1 << 16;

/// One application's posterior-band memo and compiled elimination plans,
/// valid for exactly one profile snapshot version.
#[derive(Debug, Clone, Default)]
struct AppBands {
    version: u64,
    by_evidence: FxHashMap<Vec<(usize, usize)>, Arc<EvidencePosteriors>>,
    /// The snapshot's plans by observed-stage set: every evidence state
    /// over the same completed stages runs one compiled elimination.
    plans: PosteriorPlans,
}

/// Everything LLMSched believes about one active job under its current
/// evidence.
#[derive(Debug, Clone, Default)]
pub struct JobBelief {
    /// The job's application (bookkeeping for per-app invalidation).
    pub app: AppId,
    /// The profile snapshot version the belief was computed under: the
    /// belief is valid while the app's published version equals this.
    pub version: u64,
    /// Completed-template-stage fingerprint
    /// ([`AppProfile::evidence_mask`](crate::profiler::AppProfile::evidence_mask)):
    /// the belief is valid while the job's mask equals this.
    pub mask: u64,
    /// Completed-stage duration bins the posterior conditions on.
    pub evidence: Evidence,
    /// Posterior remaining-work estimate (batch-1 seconds; apply the Eq. 2
    /// calibration when comparing against wall-clock time).
    pub work: WorkEstimate,
    /// Memoized Eq. 6 scores per stage, cleared whenever the evidence
    /// changes.
    reductions: FxHashMap<u32, f64>,
    /// The shared per-evidence posterior state this belief was derived
    /// from (bands + marginals) — Eq. 6 scoring reuses it instead of
    /// re-running the inference.
    shared: Option<Arc<EvidencePosteriors>>,
}

/// The store's record of one active job.
#[derive(Debug, Clone, Default)]
struct JobRecord {
    belief: JobBelief,
    /// Number of ready stages (the job's share of the St/Su lengths).
    ready_stages: usize,
}

/// One job a [`BeliefStore::refresh`] touched: `(job, moved, was_ready,
/// ready)` — whether its belief (and so its sort keys) was replaced, and
/// whether it had ready stages before and after.
pub type Touched = (JobId, bool, bool, bool);

/// Delta-maintained per-job records for every active job.
#[derive(Debug, Clone, Default)]
pub struct BeliefStore {
    records: FxHashMap<JobId, JobRecord>,
    /// Jobs marked since the last refresh, each with whether its evidence
    /// (mask or snapshot version) may have moved.
    dirty: FxHashMap<JobId, bool>,
    /// Sum of every record's ready-stage count.
    ready_stages: usize,
    /// Number of records with at least one ready stage.
    ready_jobs: usize,
    /// The last refresh's touched jobs (reused across calls).
    touched: Vec<Touched>,
    /// Active jobs per application — the inverse index behind
    /// [`BeliefStore::mark_app_dirty`].
    by_app: FxHashMap<AppId, FxHashSet<JobId>>,
    /// Posterior bands shared across jobs: the BN inference behind a work
    /// estimate depends only on (application, snapshot version, evidence),
    /// so every job of an app under the same evidence reuses one
    /// computation — at scale, thousands of fresh arrivals share the
    /// single no-evidence entry. Next to them sit the app's compiled
    /// elimination plans. A snapshot bump drops exactly that app's
    /// entries and plans; [`BeliefStore::clear`] drops all of them.
    bands: FxHashMap<AppId, AppBands>,
}

impl BeliefStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of held records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records are held.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total ready stages across every record (refresh first).
    pub fn ready_stages(&self) -> usize {
        self.ready_stages
    }

    /// Number of records with at least one ready stage (refresh first).
    pub fn ready_jobs(&self) -> usize {
        self.ready_jobs
    }

    /// Whether `job` has at least one ready stage (refresh first).
    pub fn is_ready(&self, job: JobId) -> bool {
        self.records.get(&job).is_some_and(|r| r.ready_stages > 0)
    }

    /// Drops everything (scheduler reset).
    pub fn clear(&mut self) {
        self.records.clear();
        self.dirty.clear();
        self.ready_stages = 0;
        self.ready_jobs = 0;
        self.touched.clear();
        self.by_app.clear();
        self.bands.clear();
    }

    /// Routes one delta: every delta that can move a job's ready-stage set
    /// marks the job, and arrivals and stage completions also flag its
    /// evidence; job completion evicts its record. Observation deltas
    /// are ignored — profile movement reaches beliefs only through
    /// [`BeliefStore::mark_app_dirty`], after the store has actually
    /// published. (Task finishes keep running + done constant and never
    /// change the ready set.)
    pub fn on_delta(&mut self, d: &SchedDelta) {
        match d {
            SchedDelta::JobArrived { job, .. } | SchedDelta::StageCompleted { job, .. } => {
                self.dirty.insert(*job, true);
            }
            SchedDelta::StageRevealed { job, .. } | SchedDelta::TasksDispatched { job, .. } => {
                self.dirty.entry(*job).or_insert(false);
            }
            SchedDelta::JobCompleted { job } => {
                self.evict(*job);
                self.dirty.remove(job);
            }
            _ => {}
        }
    }

    /// Marks every active job of `app` stale — called with the
    /// [`ProfileStore`]'s bumped-app list after a snapshot publish, so a
    /// version bump invalidates exactly the affected app's posteriors.
    pub fn mark_app_dirty(&mut self, app: AppId) {
        if let Some(jobs) = self.by_app.get(&app) {
            self.dirty.extend(jobs.iter().map(|&id| (id, true)));
        }
    }

    /// Brings the records in sync with `ctx` and lists the jobs it touched
    /// in [`BeliefStore::touched`].
    ///
    /// Each marked job re-counts its ready stages.
    /// A job whose evidence may have moved (or that has no record yet)
    /// also re-derives its evidence mask — an O(template stages) scan —
    /// and only a *moved* mask (or snapshot version) triggers the BN
    /// posterior. Returns `true` when the count-mismatch safety net
    /// rebuilt every record because `ctx` was produced outside the
    /// engine's delta stream; [`BeliefStore::touched`] is then empty and
    /// callers rebuild whatever they derive from the records.
    pub fn refresh(
        &mut self,
        store: &ProfileStore,
        ctx: &SchedContext<'_>,
        use_bn: bool,
        tail_mass: f64,
    ) -> bool {
        self.touched.clear();
        // Drained in place so the map keeps its capacity across calls.
        let mut dirty = std::mem::take(&mut self.dirty);
        for (id, evidence) in dirty.drain() {
            match ctx.job(id) {
                Some(job) => {
                    let moved = if evidence || !self.records.contains_key(&id) {
                        self.update(store, job, use_bn, tail_mass)
                    } else {
                        debug_assert!(
                            self.is_current(store, job),
                            "a reveal or dispatch moved {id:?}'s evidence"
                        );
                        false
                    };
                    let (was_ready, ready) = self.recount(job);
                    self.touched.push((id, moved, was_ready, ready));
                }
                None => self.evict(id),
            }
        }
        self.dirty = dirty;
        if self.records.len() == ctx.jobs.len() {
            return false;
        }
        self.records.clear();
        self.by_app.clear();
        self.ready_stages = 0;
        self.ready_jobs = 0;
        self.touched.clear();
        for job in &ctx.jobs {
            self.update(store, job, use_bn, tail_mass);
            self.recount(job);
        }
        true
    }

    /// The jobs the last [`BeliefStore::refresh`] touched, as
    /// `(job, moved, was_ready, ready)`.
    pub fn touched(&self) -> &[Touched] {
        &self.touched
    }

    /// Re-counts a held job's ready stages into its record and the running
    /// totals; returns `(was_ready, ready)`.
    fn recount(&mut self, job: &JobRt) -> (bool, bool) {
        let rec = self
            .records
            .get_mut(&job.id())
            .expect("update keeps a record");
        let (old, new) = (rec.ready_stages, job.ready_stage_ids().len());
        rec.ready_stages = new;
        self.ready_stages = self.ready_stages - old + new;
        self.ready_jobs = self.ready_jobs - usize::from(old > 0) + usize::from(new > 0);
        (old > 0, new > 0)
    }

    fn evict(&mut self, id: JobId) {
        if let Some(r) = self.records.remove(&id) {
            self.ready_stages -= r.ready_stages;
            self.ready_jobs -= usize::from(r.ready_stages > 0);
            if let Some(set) = self.by_app.get_mut(&r.belief.app) {
                set.remove(&id);
            }
        }
    }

    /// Whether `job`'s held belief matches its current evidence mask and
    /// its app's snapshot version — the condition under which
    /// [`BeliefStore::update`] keeps it.
    fn is_current(&self, store: &ProfileStore, job: &JobRt) -> bool {
        let version = store.version(job.app()).0;
        self.get(job.id()).is_some_and(|b| {
            b.version == version
                && store
                    .profile(job.app())
                    .map_or(true, |p| p.evidence_mask(job) == b.mask)
        })
    }

    /// Recomputes one job's belief if its evidence mask or profile
    /// version moved (creating its record if new); returns whether the
    /// belief was replaced.
    fn update(&mut self, store: &ProfileStore, job: &JobRt, use_bn: bool, tail_mass: f64) -> bool {
        let version = store.version(job.app()).0;
        let held = self.records.get(&job.id()).map(|r| &r.belief);
        let belief = match store.profile(job.app()) {
            // Unprofiled application: a zero-work belief, version-stamped
            // so a later cold-start bootstrap (version bump) re-estimates.
            None => {
                if held.is_some_and(|b| b.version == version) {
                    return false;
                }
                JobBelief {
                    app: job.app(),
                    version,
                    ..JobBelief::default()
                }
            }
            Some(profile) => {
                let mask = profile.evidence_mask(job);
                if held.is_some_and(|b| b.mask == mask && b.version == version) {
                    return false;
                }
                let evidence = profile.evidence_of(job);
                let app_bands = self.bands.entry(job.app()).or_default();
                if app_bands.version != version {
                    *app_bands = AppBands {
                        version,
                        ..AppBands::default()
                    };
                } else if app_bands.by_evidence.len() >= BANDS_MEMO_CAP {
                    app_bands.by_evidence.clear();
                }
                let key: Vec<(usize, usize)> = evidence.iter().map(|(&s, &b)| (s, b)).collect();
                let plans = &mut app_bands.plans;
                let entry = app_bands.by_evidence.entry(key).or_insert_with(|| {
                    Arc::new(EvidencePosteriors::build(
                        profile, &evidence, use_bn, tail_mass, plans,
                    ))
                });
                let shared = Arc::clone(entry);
                let work = crate::estimator::remaining_work_from_bands(profile, job, &shared.bands);
                JobBelief {
                    app: job.app(),
                    version,
                    mask,
                    evidence,
                    work,
                    reductions: FxHashMap::default(),
                    shared: Some(shared),
                }
            }
        };
        // A job's app never changes: index it once, with its new record.
        let by_app = &mut self.by_app;
        let rec = self.records.entry(job.id()).or_insert_with(|| {
            by_app.entry(job.app()).or_default().insert(job.id());
            JobRecord::default()
        });
        rec.belief = belief;
        true
    }

    /// The belief of `job`, if held (refresh first).
    pub fn get(&self, job: JobId) -> Option<&JobBelief> {
        self.records.get(&job).map(|r| &r.belief)
    }

    /// Number of `job`'s stages with a memoized Eq. 6 score.
    #[cfg(test)]
    pub(crate) fn memoized(&self, job: JobId) -> usize {
        self.get(job).map_or(0, |b| b.reductions.len())
    }

    /// The remaining-work estimate of `job` (zero if unknown).
    pub fn work(&self, job: JobId) -> WorkEstimate {
        self.get(job).map(|b| b.work).unwrap_or_default()
    }

    /// Eq. 6 uncertainty-reduction score for a ready stage, memoized in
    /// the job's belief. One profile lookup per call — this is where the
    /// old path's double `profiler.profile()` per score went.
    ///
    /// A memo may be read long after it was filled, or filled late by a
    /// caller that skipped scoring while the stage ordered nothing; both
    /// give the same bits because the score moves only with the belief
    /// (DESIGN.md §7.5). Debug builds recompute every memoized score they
    /// return and assert it.
    pub fn reduction(&mut self, store: &ProfileStore, job: &JobRt, stage: StageId) -> f64 {
        let memo = self.get(job.id()).and_then(|b| b.reductions.get(&stage.0));
        if let Some(&r) = memo {
            debug_assert_eq!(
                r.to_bits(),
                Self::score(&self.records, &mut self.bands, store, job, stage).to_bits(),
                "stale Eq. 6 memo for {:?} stage {stage:?}",
                job.id()
            );
            return r;
        }
        let r = Self::score(&self.records, &mut self.bands, store, job, stage);
        // Belief-less scores (context outside the delta stream, not yet
        // refreshed) are not memoized.
        if let Some(rec) = self.records.get_mut(&job.id()) {
            rec.belief.reductions.insert(stage.0, r);
        }
        r
    }

    /// Computes a ready stage's Eq. 6 score against the held belief, with
    /// joints from the app's cached plans while they belong to the
    /// published snapshot.
    fn score(
        records: &FxHashMap<JobId, JobRecord>,
        bands: &mut FxHashMap<AppId, AppBands>,
        store: &ProfileStore,
        job: &JobRt,
        stage: StageId,
    ) -> f64 {
        let Some(profile) = store.profile(job.app()) else {
            return 0.0;
        };
        if stage.index() >= profile.n_stages() {
            return 0.0; // generated stages carry no BN variable of their own
        }
        let version = store.version(job.app()).0;
        let plans = bands
            .get_mut(&job.app())
            .filter(|ab| ab.version == version)
            .map(|ab| &mut ab.plans);
        match records.get(&job.id()).map(|r| &r.belief) {
            Some(b) => match (&b.shared, plans) {
                // Cached path: the MI term is shared across jobs under
                // this evidence; only the dynamic-expansion bonus is
                // job-specific. Composition and guards mirror
                // `uncertainty_reduction` exactly.
                (Some(ep), Some(plans)) if ep.has_bn_cache() => {
                    if b.evidence.contains_key(&stage.index()) {
                        0.0
                    } else {
                        let part = ep.mi_memo(stage.index(), || {
                            crate::uncertainty::mi_part_cached(
                                profile,
                                job,
                                stage,
                                &b.evidence,
                                ep,
                                plans,
                            )
                        });
                        crate::uncertainty::add_dynamic_bonus(profile, job, stage, part)
                    }
                }
                _ => uncertainty_reduction(profile, job, stage, &b.evidence),
            },
            // No belief (context outside the delta stream and not yet
            // refreshed): compute against fresh evidence, uncached.
            None => uncertainty_reduction(profile, job, stage, &profile.evidence_of(job)),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::profiler::{Profiler, ProfilerConfig};
    use crate::store::{ProfileStoreConfig, ProfileUpdate};
    use llmsched_dag::time::SimTime;
    use llmsched_sim::engine::simulate;
    use llmsched_sim::exec::SlotLedger;
    use llmsched_sim::scheduler::{Preference, Scheduler};
    use llmsched_workloads::prelude::*;

    /// A context at time zero in which the jobs at slots `active` of
    /// `jobs` (whose ids are `ids`) are active; one idle 8-slot LLM
    /// executor.
    pub(crate) fn ctx_of<'a>(
        jobs: &'a [JobRt],
        ids: &'a [JobId],
        active: &'a [u32],
        pool: &'a SlotLedger,
        templates: &'a llmsched_dag::template::TemplateSet,
        latency: &'a llmsched_sim::latency::LatencyProfile,
    ) -> SchedContext<'a> {
        let jobs = llmsched_sim::scheduler::ActiveJobs::projected(jobs, ids, active);
        SchedContext {
            now: SimTime::ZERO,
            jobs,
            llm_pool: pool,
            backend: "cluster/least-loaded",
            regular_total: 2,
            regular_busy: 0,
            dispatchable_regular: jobs.iter().map(|j| j.ready_unstarted_by_class().0).sum(),
            dispatchable_llm: jobs.iter().map(|j| j.ready_unstarted_by_class().1).sum(),
            could_dispatch: true,
            templates,
            latency,
        }
    }

    fn frozen_store(kinds: &[AppKind]) -> ProfileStore {
        let templates = all_templates();
        let corpus = training_jobs(kinds, 40, 9);
        let profiler = Profiler::train(&templates, &corpus, &ProfilerConfig::default());
        ProfileStore::frozen(&profiler)
    }

    #[test]
    fn refresh_fills_missing_beliefs_and_reports_all_changed() {
        let store = frozen_store(&AppKind::ALL);
        let w = generate_workload(WorkloadKind::Mixed, 5, 0.9, 4);
        let jobs: Vec<JobRt> = w.jobs.into_iter().map(JobRt::new).collect();
        let latency = llmsched_sim::latency::LatencyProfile::default();
        let all: Vec<u32> = (0..jobs.len() as u32).collect();
        let ids: Vec<JobId> = jobs.iter().map(JobRt::id).collect();
        let pool = SlotLedger::new([8]);
        let ctx = ctx_of(&jobs, &ids, &all, &pool, &w.templates, &latency);

        let mut beliefs = BeliefStore::new();
        assert!(
            beliefs.refresh(&store, &ctx, true, 0.35),
            "safety net computes every record"
        );
        assert_eq!(beliefs.len(), 5);
        let ready: usize = jobs.iter().map(|j| j.ready_stage_ids().len()).sum();
        assert_eq!(beliefs.ready_stages(), ready);

        // A second refresh with no deltas changes nothing.
        assert!(!beliefs.refresh(&store, &ctx, true, 0.35));
        assert!(
            beliefs.touched().is_empty(),
            "clean store must not recompute"
        );

        // Dirty without an actual evidence change: touched, not moved.
        let id = jobs[0].id();
        beliefs.on_delta(&SchedDelta::StageCompleted {
            job: id,
            stage: StageId(0),
        });
        assert!(!beliefs.refresh(&store, &ctx, true, 0.35));
        let r = !jobs[0].ready_stage_ids().is_empty();
        assert_eq!(
            beliefs.touched(),
            &[(id, false, r, r)],
            "unchanged evidence mask must not invalidate the belief"
        );
    }

    #[test]
    fn job_completion_evicts_deterministically() {
        let mut store = BeliefStore::new();
        for (id, ready_stages) in [(7, 2), (8, 1), (9, 0)] {
            let rec = JobRecord {
                ready_stages,
                ..JobRecord::default()
            };
            store.records.insert(JobId(id), rec);
        }
        store.ready_stages = 3;
        store.ready_jobs = 2;
        store.on_delta(&SchedDelta::JobCompleted { job: JobId(7) });
        assert_eq!(store.len(), 2, "the record is evicted");
        assert_eq!(store.ready_stages(), 1, "its ready stages leave the total");
        assert_eq!(store.ready_jobs(), 1, "a ready record leaves the count");
        store.on_delta(&SchedDelta::JobCompleted { job: JobId(9) });
        assert_eq!(store.ready_jobs(), 1, "a non-ready record never counted");
        assert!(!store.is_ready(JobId(7)));
        assert_eq!(store.work(JobId(7)), WorkEstimate::default());
    }

    /// Dispatches every ready task and, at each decision point the engine
    /// reaches, refreshes a [`BeliefStore`] fed by the same delta batch,
    /// checking every touched record against the jobs and the deltas.
    struct Checker {
        store: ProfileStore,
        beliefs: BeliefStore,
        /// Jobs of the pending batch with a delta other than a dispatch.
        other: FxHashSet<JobId>,
        /// `(ready stages, evidence mask)` per job at the last refresh.
        seen: FxHashMap<JobId, (usize, u64)>,
        /// Dispatch-only refreshes that exhausted a job's only ready stage.
        exhausted: usize,
        /// Refreshes whose stage completion moved the evidence mask.
        mask_moves: usize,
    }

    impl Scheduler for Checker {
        fn name(&self) -> &str {
            "checker"
        }

        fn on_delta(&mut self, d: &SchedDelta) {
            self.beliefs.on_delta(d);
            match *d {
                SchedDelta::JobCompleted { job } => {
                    assert!(self.beliefs.get(job).is_none(), "completion evicts");
                    self.seen.remove(&job);
                }
                SchedDelta::TasksDispatched { .. } => {}
                ref d if !d.is_observation() => {
                    self.other.insert(d.job());
                }
                _ => {}
            }
        }

        fn schedule(&mut self, ctx: &SchedContext<'_>) -> Preference {
            let before = self.beliefs.ready_stages();
            assert!(
                !self.beliefs.refresh(&self.store, ctx, true, 0.35),
                "a delta-fed store never needs its safety net"
            );
            assert_eq!(self.beliefs.len(), ctx.jobs.len());
            let mut want = before;
            for &(id, moved, was_ready, ready) in self.beliefs.touched() {
                let job = ctx.job(id).expect("touched jobs are active");
                let (old, old_mask) = self.seen.get(&id).copied().unwrap_or_default();
                let new = job.ready_stage_ids().len();
                let mask = self.beliefs.get(id).expect("refreshed").mask;
                assert_eq!((was_ready, ready), (old > 0, new > 0), "{id:?}");
                assert!(self.beliefs.is_ready(id) == ready);
                want = want - old + new;
                if !self.other.contains(&id) {
                    assert!(!moved, "a dispatch never moves the belief");
                    if old == 1 && new == 0 {
                        self.exhausted += 1;
                    }
                } else if self.seen.contains_key(&id) && mask != old_mask {
                    assert!(moved, "a moved evidence mask replaces the belief");
                    self.mask_moves += 1;
                }
                self.seen.insert(id, (new, mask));
            }
            assert_eq!(self.beliefs.ready_stages(), want);
            let ready_jobs = ctx
                .jobs
                .iter()
                .filter(|j| !j.ready_stage_ids().is_empty())
                .count();
            assert_eq!(self.beliefs.ready_jobs(), ready_jobs);
            self.other.clear();
            let mut p = Preference::new();
            for job in &ctx.jobs {
                for &s in job.ready_stage_ids() {
                    p.push_stage_tasks(job, s);
                }
            }
            p
        }
    }

    #[test]
    fn refresh_reports_dispatches_completions_and_evictions() {
        let w = generate_workload(WorkloadKind::Mixed, 40, 0.9, 5);
        let mut checker = Checker {
            store: frozen_store(&AppKind::ALL),
            beliefs: BeliefStore::new(),
            other: FxHashSet::default(),
            seen: FxHashMap::default(),
            exhausted: 0,
            mask_moves: 0,
        };
        let cluster = WorkloadKind::Mixed.default_cluster();
        let r = simulate(&cluster, &w.templates, w.jobs, &mut checker);
        assert_eq!(r.incomplete, 0);
        assert!(checker.exhausted > 0, "no dispatch exhausted a lone stage");
        assert!(checker.mask_moves > 0, "no completion moved a mask");
    }

    #[test]
    fn snapshot_bump_invalidates_exactly_the_affected_app() {
        let templates = all_templates();
        let corpus = training_jobs(&AppKind::ALL, 40, 9);
        let cfg = ProfileStoreConfig {
            update: ProfileUpdate::PerCompletion,
            ..ProfileStoreConfig::default()
        };
        let mut store = ProfileStore::train(&templates, &corpus, cfg);
        let w = generate_workload(WorkloadKind::Mixed, 8, 0.9, 4);
        let jobs: Vec<JobRt> = w.jobs.into_iter().map(JobRt::new).collect();
        let latency = llmsched_sim::latency::LatencyProfile::default();
        let all: Vec<u32> = (0..jobs.len() as u32).collect();
        let ids: Vec<JobId> = jobs.iter().map(JobRt::id).collect();
        let pool = SlotLedger::new([8]);
        let ctx = ctx_of(&jobs, &ids, &all, &pool, &w.templates, &latency);

        let mut beliefs = BeliefStore::new();
        beliefs.refresh(&store, &ctx, true, 0.35);
        beliefs.refresh(&store, &ctx, true, 0.35);
        assert!(beliefs.touched().is_empty());

        // Fresh jobs share the no-evidence plan; compile one more for a
        // completed-stage set no job has, which only the old snapshot saw.
        let app = jobs[0].app();
        let profile = store.profile(app).unwrap();
        let plans = &mut beliefs.bands.get_mut(&app).unwrap().plans;
        assert_eq!(plans.len(), 1, "fresh jobs run one marginals plan");
        let one_done: Evidence = [(0, 0)].into_iter().collect();
        plans.marginals_into(profile.net(), &one_done, &mut Vec::new());
        assert_eq!(plans.len(), 2);

        // Publish a new snapshot for exactly one app.
        let kind = AppKind::from_app_id(app).unwrap();
        let extra = training_jobs(&[kind], 1, 77);
        assert!(store.observe_job_spec(w.templates.expect(app), &extra[0]));
        beliefs.mark_app_dirty(app);

        assert!(!beliefs.refresh(&store, &ctx, true, 0.35));
        let expected: Vec<JobId> = jobs
            .iter()
            .filter(|j| j.app() == app)
            .map(|j| j.id())
            .collect();
        let mut changed: Vec<JobId> = beliefs
            .touched()
            .iter()
            .filter(|t| t.1)
            .map(|t| t.0)
            .collect();
        changed.sort();
        assert_eq!(
            changed, expected,
            "only the bumped app's jobs are re-estimated"
        );
        // Their beliefs now carry the new version.
        let v = store.version(app).0;
        for id in &changed {
            assert_eq!(beliefs.get(*id).unwrap().version, v);
        }
        // The bump dropped the old snapshot's plans with its bands, and a
        // reset drops every plan.
        assert_eq!(beliefs.bands[&app].plans.len(), 1);
        beliefs.clear();
        assert!(beliefs.bands.is_empty(), "no plan survives a reset");
    }
}
