//! Persistent per-job scheduling beliefs: the incremental replacement for
//! recomputing Bayesian evidence, posterior work estimates, and Eq. 6
//! uncertainty reductions from scratch at every decision point.
//!
//! A [`JobBelief`] is everything LLMSched knows about one active job under
//! its current evidence: the completed-stage fingerprint (`mask`), the
//! extracted [`Evidence`], the posterior [`WorkEstimate`], and the
//! memoized per-stage Eq. 6 reductions. Beliefs change **only when the
//! job's evidence changes or its app's profile snapshot moves**. Evidence
//! can only change when a stage of that job completes — so the
//! [`BeliefStore`] listens to the engine's [`SchedDelta`] stream, marks
//! jobs dirty on [`SchedDelta::StageCompleted`], and recomputes a belief
//! iff the dirty job's evidence mask actually moved. Profile snapshots
//! can only move when the [`ProfileStore`] publishes — the caller routes
//! the store's bumped-app list through
//! [`BeliefStore::mark_app_dirty`], which invalidates exactly the
//! affected application's jobs (and its shared posterior bands) and
//! nothing else. Completed jobs are evicted deterministically on
//! [`SchedDelta::JobCompleted`] (replacing the old size-triggered
//! `prune_cache` heuristic).
//!
//! The per-invocation cost drops from O(jobs · (stage scan + posterior
//! clone)) to O(changed jobs · posterior), while producing bit-identical
//! values to the rebuild path: the same estimator functions run on the
//! same inputs, just not redundantly.

use std::collections::{HashMap, HashSet};

use llmsched_bayes::network::Evidence;
use llmsched_dag::ids::{AppId, JobId, StageId};
use llmsched_sim::scheduler::{SchedContext, SchedDelta};
use llmsched_sim::state::JobRt;

use std::sync::Arc;

use crate::estimator::{EvidencePosteriors, PosteriorPlans, WorkEstimate};
use crate::store::ProfileStore;
use crate::uncertainty::{uncertainty_reduction, MiEstimator};

/// Cap on memoized posterior-band entries per app; reaching it clears
/// that app's memo (values are recomputed identically, so this only
/// bounds memory).
const BANDS_MEMO_CAP: usize = 1 << 16;

/// One application's posterior-band memo and compiled elimination plans,
/// valid for exactly one profile snapshot version.
#[derive(Debug, Clone, Default)]
struct AppBands {
    version: u64,
    by_evidence: HashMap<Vec<(usize, usize)>, Arc<EvidencePosteriors>>,
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
    reductions: HashMap<u32, f64>,
    /// The shared per-evidence posterior state this belief was derived
    /// from (bands + marginals) — Eq. 6 scoring reuses it instead of
    /// re-running the inference.
    shared: Option<Arc<EvidencePosteriors>>,
}

/// Delta-maintained [`JobBelief`] records for every active job.
#[derive(Debug, Clone, Default)]
pub struct BeliefStore {
    beliefs: HashMap<JobId, JobBelief>,
    dirty: HashSet<JobId>,
    /// Active jobs per application — the inverse index behind
    /// [`BeliefStore::mark_app_dirty`].
    by_app: HashMap<AppId, HashSet<JobId>>,
    /// Posterior bands shared across jobs: the BN inference behind a work
    /// estimate depends only on (application, snapshot version, evidence),
    /// so every job of an app under the same evidence reuses one
    /// computation — at scale, thousands of fresh arrivals share the
    /// single no-evidence entry. Next to them sit the app's compiled
    /// elimination plans. A snapshot bump drops exactly that app's
    /// entries and plans; [`BeliefStore::clear`] drops all of them.
    bands: HashMap<AppId, AppBands>,
}

impl BeliefStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of held beliefs.
    pub fn len(&self) -> usize {
        self.beliefs.len()
    }

    /// True if no beliefs are held.
    pub fn is_empty(&self) -> bool {
        self.beliefs.is_empty()
    }

    /// Drops everything (scheduler reset).
    pub fn clear(&mut self) {
        self.beliefs.clear();
        self.dirty.clear();
        self.by_app.clear();
        self.bands.clear();
    }

    /// Routes one delta: arrivals and stage completions mark the job's
    /// belief stale; job completion evicts it. Observation deltas are
    /// ignored — profile movement reaches beliefs only through
    /// [`BeliefStore::mark_app_dirty`], after the store has actually
    /// published.
    pub fn on_delta(&mut self, d: &SchedDelta) {
        match d {
            SchedDelta::JobArrived { job, .. } | SchedDelta::StageCompleted { job, .. } => {
                self.dirty.insert(*job);
            }
            SchedDelta::JobCompleted { job } => {
                if let Some(b) = self.beliefs.remove(job) {
                    if let Some(set) = self.by_app.get_mut(&b.app) {
                        set.remove(job);
                    }
                }
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
            self.dirty.extend(jobs.iter().copied());
        }
    }

    /// Brings the store in sync with `ctx` and replaces the contents of
    /// `changed` with the ids whose [`JobBelief::work`] actually changed
    /// (callers reposition those in their ordered indices; passing the
    /// same buffer every call keeps this allocation-free).
    ///
    /// Dirty jobs re-derive their evidence mask — an O(template stages)
    /// scan — and only a *moved* mask (or snapshot version) triggers the
    /// BN posterior. The count-mismatch safety net rebuilds every belief
    /// when the context was produced outside the engine's delta stream.
    pub fn refresh(
        &mut self,
        store: &ProfileStore,
        ctx: &SchedContext<'_>,
        use_bn: bool,
        tail_mass: f64,
        changed: &mut Vec<JobId>,
    ) {
        changed.clear();
        // Drained in place so the set keeps its capacity across calls.
        let mut dirty = std::mem::take(&mut self.dirty);
        for id in dirty.drain() {
            match ctx.job(id) {
                Some(job) => {
                    if self.update(store, job, use_bn, tail_mass) {
                        changed.push(id);
                    }
                }
                None => {
                    self.evict(id);
                }
            }
        }
        self.dirty = dirty;
        if self.beliefs.len() != ctx.jobs.len() {
            self.beliefs.clear();
            self.by_app.clear();
            changed.clear();
            for job in &ctx.jobs {
                self.update(store, job, use_bn, tail_mass);
                changed.push(job.id());
            }
        }
    }

    fn evict(&mut self, id: JobId) {
        if let Some(b) = self.beliefs.remove(&id) {
            if let Some(set) = self.by_app.get_mut(&b.app) {
                set.remove(&id);
            }
        }
    }

    /// Recomputes one job's belief if its evidence mask or profile
    /// version moved; returns whether anything changed.
    fn update(&mut self, store: &ProfileStore, job: &JobRt, use_bn: bool, tail_mass: f64) -> bool {
        let version = store.version(job.app()).0;
        let Some(profile) = store.profile(job.app()) else {
            // Unprofiled application: a zero-work belief, version-stamped
            // so a later cold-start bootstrap (version bump) re-estimates.
            let stale = self
                .beliefs
                .get(&job.id())
                .map_or(true, |b| b.version != version);
            if stale {
                self.beliefs.insert(
                    job.id(),
                    JobBelief {
                        app: job.app(),
                        version,
                        ..JobBelief::default()
                    },
                );
                self.by_app.entry(job.app()).or_default().insert(job.id());
            }
            return stale;
        };
        let mask = profile.evidence_mask(job);
        if let Some(b) = self.beliefs.get(&job.id()) {
            if b.mask == mask && b.version == version {
                return false;
            }
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
        self.beliefs.insert(
            job.id(),
            JobBelief {
                app: job.app(),
                version,
                mask,
                evidence,
                work,
                reductions: HashMap::new(),
                shared: Some(shared),
            },
        );
        self.by_app.entry(job.app()).or_default().insert(job.id());
        true
    }

    /// The belief of `job`, if held (refresh first).
    pub fn get(&self, job: JobId) -> Option<&JobBelief> {
        self.beliefs.get(&job)
    }

    /// The remaining-work estimate of `job` (zero if unknown).
    pub fn work(&self, job: JobId) -> WorkEstimate {
        self.beliefs.get(&job).map(|b| b.work).unwrap_or_default()
    }

    /// Eq. 6 uncertainty-reduction score for a ready stage, memoized in
    /// the job's belief. One profile lookup per call — this is where the
    /// old path's double `profiler.profile()` per score went.
    pub fn reduction(
        &mut self,
        store: &ProfileStore,
        mi: MiEstimator,
        job: &JobRt,
        stage: StageId,
    ) -> f64 {
        if let Some(r) = self
            .beliefs
            .get(&job.id())
            .and_then(|b| b.reductions.get(&stage.0))
        {
            return *r;
        }
        let r = Self::score(&self.beliefs, &mut self.bands, store, mi, job, stage);
        // Belief-less scores (context outside the delta stream, not yet
        // refreshed) are not memoized.
        if let Some(b) = self.beliefs.get_mut(&job.id()) {
            b.reductions.insert(stage.0, r);
        }
        r
    }

    /// Computes a ready stage's Eq. 6 score against the held belief, with
    /// joints from the app's cached plans while they belong to the
    /// published snapshot.
    fn score(
        beliefs: &HashMap<JobId, JobBelief>,
        bands: &mut HashMap<AppId, AppBands>,
        store: &ProfileStore,
        mi: MiEstimator,
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
        match beliefs.get(&job.id()) {
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
                                mi,
                            )
                        });
                        crate::uncertainty::add_dynamic_bonus(profile, job, stage, part)
                    }
                }
                _ => uncertainty_reduction(profile, job, stage, &b.evidence, mi),
            },
            // No belief (context outside the delta stream and not yet
            // refreshed): compute against fresh evidence, uncached.
            None => uncertainty_reduction(profile, job, stage, &profile.evidence_of(job), mi),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{Profiler, ProfilerConfig};
    use crate::store::{ProfileStoreConfig, ProfileUpdate};
    use llmsched_dag::time::SimTime;
    use llmsched_sim::state::LlmExecutorView;
    use llmsched_workloads::prelude::*;

    fn ctx_of<'a>(
        jobs: &'a [JobRt],
        templates: &'a llmsched_dag::template::TemplateSet,
        latency: &'a llmsched_sim::latency::LatencyProfile,
        deltas: &'a [SchedDelta],
    ) -> SchedContext<'a> {
        SchedContext {
            now: SimTime::ZERO,
            jobs: llmsched_sim::scheduler::ActiveJobs::dense(jobs),
            deltas,
            llm_executors: &[LlmExecutorView {
                index: 0,
                batch_len: 0,
                max_batch: 8,
            }],
            backend: "cluster/least-loaded",
            regular_total: 2,
            regular_busy: 0,
            dispatchable: jobs.iter().map(|j| j.ready_unstarted_tasks()).sum(),
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
        let ctx = ctx_of(&jobs, &w.templates, &latency, &[]);

        let mut beliefs = BeliefStore::new();
        let mut changed = Vec::new();
        beliefs.refresh(&store, &ctx, true, 0.35, &mut changed);
        assert_eq!(changed.len(), 5, "safety net computes every belief");
        assert_eq!(beliefs.len(), 5);

        // A second refresh with no deltas changes nothing.
        beliefs.refresh(&store, &ctx, true, 0.35, &mut changed);
        assert!(changed.is_empty(), "clean store must not recompute");

        // Dirty without an actual evidence change: still nothing.
        beliefs.on_delta(&SchedDelta::StageCompleted {
            job: jobs[0].id(),
            stage: StageId(0),
        });
        beliefs.refresh(&store, &ctx, true, 0.35, &mut changed);
        assert!(
            changed.is_empty(),
            "unchanged evidence mask must not invalidate the belief"
        );
    }

    #[test]
    fn job_completion_evicts_deterministically() {
        let mut store = BeliefStore::new();
        store.beliefs.insert(JobId(7), JobBelief::default());
        store.on_delta(&SchedDelta::JobCompleted { job: JobId(7) });
        assert!(store.is_empty());
        assert_eq!(store.work(JobId(7)), WorkEstimate::default());
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
        let ctx = ctx_of(&jobs, &w.templates, &latency, &[]);

        let mut beliefs = BeliefStore::new();
        let mut changed = Vec::new();
        beliefs.refresh(&store, &ctx, true, 0.35, &mut changed);
        beliefs.refresh(&store, &ctx, true, 0.35, &mut changed);
        assert!(changed.is_empty());

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

        beliefs.refresh(&store, &ctx, true, 0.35, &mut changed);
        let expected: Vec<JobId> = jobs
            .iter()
            .filter(|j| j.app() == app)
            .map(|j| j.id())
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
