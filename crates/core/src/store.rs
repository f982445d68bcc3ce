//! The versioned, observation-driven profile store — the online
//! replacement for the train-once [`Profiler`] artifact.
//!
//! A [`ProfileStore`] owns one profile slot per application and publishes
//! **immutable snapshots**: an [`AppProfile`] behind an `Arc` stamped with
//! a monotonically increasing [`ProfileVersion`]. Consumers (the
//! [`BeliefStore`](crate::belief::BeliefStore), the rebuild-path analysis
//! cache) key every memoized posterior by `(app, version, evidence)`, so
//! publishing a new snapshot invalidates exactly the affected
//! application's cached state and nothing else.
//!
//! Observations flow in through the engine's delta stream
//! ([`SchedDelta::StageObserved`] carries each completed template stage's
//! realized batch-1 duration; [`SchedDelta::DynCandidateObserved`] /
//! [`SchedDelta::DynEdgeObserved`] carry dynamic placeholders' structural
//! outcomes) and are folded per job until the job's
//! [`SchedDelta::JobCompleted`] closes the row. Between full re-fits the
//! Bayesian network absorbs each row in O(1) per CPT family via
//! [`OnlineNet`]'s sufficient-statistic counters; re-discretization and
//! structure re-learning run only when the drift trigger fires, when the
//! observation count doubles, or when a cold-start application first
//! accumulates enough history to bootstrap from its Laplace prior.
//!
//! The store's bounded row window is the only observation window: every
//! re-fit re-bins it and builds a fresh [`OnlineNet`] from it, and the
//! network's drift trigger ([`OnlineNet::observe`]) is the only backoff.
//! Binning, smoothing, structure size and LLM pricing are the batch
//! profiler's constants (`MAX_BINS`, `MAX_PARENTS`, `LAPLACE_ALPHA`,
//! [`PER_TOKEN_B1`]), so streaming training equals batch training by
//! construction.
//!
//! The [`ProfileUpdate`] cadence knob makes the whole subsystem opt-in:
//! [`ProfileUpdate::Frozen`] (the default) ignores observations entirely
//! and reproduces the classic frozen-profiler behavior bit-for-bit —
//! pinned by the golden schedules in `tests/incremental_equiv.rs`.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use llmsched_bayes::dataset::DiscreteData;
use llmsched_bayes::discretize::Discretizer;
use llmsched_bayes::online::OnlineNet;
use llmsched_dag::ids::{AppId, JobId, StageId};
use llmsched_dag::job::JobSpec;
use llmsched_dag::template::{Template, TemplateSet, TemplateStageKind};
use llmsched_sim::scheduler::SchedDelta;

use crate::profiler::{
    AppProfile, DynCounts, Profiler, StructureLearner, LAPLACE_ALPHA, MAX_BINS, PER_TOKEN_B1,
};

/// Cold-start bootstrap threshold: observed jobs before an app with no
/// profile learns its first one (until then the scheduler falls back to
/// zero-work estimates, exactly like an untrained app).
pub(crate) const MIN_JOBS: usize = 8;

/// Monotonic per-application snapshot version. `0` means "never
/// published" (no profile); frozen stores start at `1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProfileVersion(pub u64);

/// How often the store publishes new snapshots from absorbed
/// observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProfileUpdate {
    /// Never: observations are discarded and the seed profiles stay
    /// published forever — bit-identical to the classic frozen profiler.
    #[default]
    Frozen,
    /// Publish after every completed-job observation.
    PerCompletion,
}

/// Store configuration. (Online structure re-learns always use the
/// order-constrained BIC hill-climb.)
#[derive(Debug, Clone)]
pub struct ProfileStoreConfig {
    /// Publish cadence.
    pub update: ProfileUpdate,
    /// Observation rows retained per app — the adaptation window that
    /// re-fits learn from (older data is forgotten).
    pub window_cap: usize,
}

/// Why a [`ProfileStoreConfig`] was rejected: each variant names the
/// field at fault and carries its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProfileStoreConfigError {
    /// `window_cap` is 0: the window could hold no row to learn from.
    WindowCap(usize),
}

impl std::fmt::Display for ProfileStoreConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileStoreConfigError::WindowCap(v) => {
                write!(
                    f,
                    "window_cap is {v}: the window must retain at least one row"
                )
            }
        }
    }
}

impl std::error::Error for ProfileStoreConfigError {}

impl ProfileStoreConfig {
    /// Checks the fields the online learner relies on.
    ///
    /// # Errors
    /// [`ProfileStoreConfigError::WindowCap`] on a zero `window_cap`.
    pub fn validate(&self) -> Result<(), ProfileStoreConfigError> {
        if self.window_cap == 0 {
            return Err(ProfileStoreConfigError::WindowCap(self.window_cap));
        }
        Ok(())
    }
}

/// Panics at construction on a config [`ProfileStoreConfig::validate`]
/// rejects, before any observation can trip over it.
fn check(cfg: &ProfileStoreConfig) {
    if let Err(e) = cfg.validate() {
        panic!("invalid ProfileStoreConfig: {e}");
    }
}

impl Default for ProfileStoreConfig {
    fn default() -> Self {
        ProfileStoreConfig {
            update: ProfileUpdate::Frozen,
            window_cap: 512,
        }
    }
}

/// One published profile snapshot: immutable content plus its version.
#[derive(Debug, Clone)]
pub struct ProfileSnapshot {
    /// The snapshot version (monotonic per app).
    pub version: ProfileVersion,
    /// The immutable profile.
    pub profile: Arc<AppProfile>,
}

/// The live per-family learner behind an app's snapshots.
#[derive(Debug, Clone)]
struct Learner {
    disc: Vec<Discretizer>,
    net: OnlineNet,
}

/// Per-application store state.
#[derive(Debug, Clone)]
struct AppEntry {
    version: u64,
    profile: Option<Arc<AppProfile>>,
    /// Continuous duration rows (template-stage seconds), bounded window.
    rows: VecDeque<Vec<f64>>,
    /// Running per-stage sums over `rows` (windowed static means).
    sums: Vec<f64>,
    learner: Option<Learner>,
    /// Dynamic-placeholder structure counters (cumulative).
    dyn_counts: HashMap<StageId, DynCounts>,
    /// Jobs observed per placeholder (the `n` behind the frequencies).
    dyn_jobs: HashMap<StageId, u64>,
    n_obs: u64,
    /// Next observation-count milestone forcing a re-fit (doubling
    /// schedule: bins and structure refine as history grows).
    next_milestone: u64,
}

impl AppEntry {
    fn fresh(n_stages: usize) -> Self {
        AppEntry {
            version: 0,
            profile: None,
            rows: VecDeque::new(),
            sums: vec![0.0; n_stages],
            learner: None,
            dyn_counts: HashMap::new(),
            dyn_jobs: HashMap::new(),
            n_obs: 0,
            next_milestone: u64::MAX,
        }
    }
}

/// A job's observation row being assembled from the delta stream.
#[derive(Debug, Clone, Default)]
struct PendingJob {
    app: Option<AppId>,
    durs: Vec<(u32, f64)>,
    cands: Vec<(StageId, u32)>,
    edges: Vec<(StageId, u32, u32)>,
}

/// The versioned, observation-driven profile store.
#[derive(Debug, Clone)]
pub struct ProfileStore {
    cfg: ProfileStoreConfig,
    apps: HashMap<AppId, AppEntry>,
    /// Construction-time state, restored by [`ProfileStore::reset`] so a
    /// scheduler instance is reusable across simulations.
    pristine: HashMap<AppId, AppEntry>,
    pending: HashMap<JobId, PendingJob>,
    finalized: Vec<PendingJob>,
}

impl ProfileStore {
    /// An empty store: every application cold-starts from zero history
    /// and a Laplace prior once observations arrive.
    ///
    /// # Panics
    /// Panics with the field's [`ProfileStoreConfigError`] if
    /// [`ProfileStoreConfig::validate`] rejects `cfg`.
    pub fn empty(cfg: ProfileStoreConfig) -> Self {
        check(&cfg);
        ProfileStore {
            cfg,
            apps: HashMap::new(),
            pristine: HashMap::new(),
            pending: HashMap::new(),
            finalized: Vec::new(),
        }
    }

    /// The frozen classic: a batch-trained [`Profiler`]'s profiles as
    /// version-1 snapshots, observations ignored. Online learning starts
    /// from [`ProfileStore::train`] or [`ProfileStore::empty`], which keep
    /// the rows a re-fit learns from.
    pub fn frozen(profiler: &Profiler) -> Self {
        let apps: HashMap<AppId, AppEntry> = profiler
            .iter()
            .map(|(app, p)| {
                let entry = AppEntry {
                    version: 1,
                    profile: Some(Arc::new(p.clone())),
                    ..AppEntry::fresh(p.n_stages())
                };
                (app, entry)
            })
            .collect();
        ProfileStore {
            cfg: ProfileStoreConfig::default(),
            pristine: apps.clone(),
            apps,
            pending: HashMap::new(),
            finalized: Vec::new(),
        }
    }

    /// Trains from a historical corpus **through the streaming path**:
    /// every job is absorbed one observation at a time (seeding windows,
    /// sufficient statistics and dynamic counters), then each app re-fits
    /// and publishes a snapshot (version 1 under [`ProfileUpdate::Frozen`];
    /// a per-completion store has already published once per corpus row
    /// after the bootstrap). With the corpus inside the window this
    /// produces the same discretizers, structure and CPTs as
    /// [`Profiler::train`] — pinned by tests — while leaving the store
    /// ready to keep learning online.
    ///
    /// # Panics
    /// Panics with the field's [`ProfileStoreConfigError`] if
    /// [`ProfileStoreConfig::validate`] rejects `cfg`.
    pub fn train(templates: &TemplateSet, corpus: &[JobSpec], cfg: ProfileStoreConfig) -> Self {
        let mut store = ProfileStore::empty(cfg);
        for job in corpus {
            if let Some(t) = templates.get(job.app()) {
                store.ingest_job_spec(t, job);
            }
        }
        let apps: Vec<AppId> = store.apps.keys().copied().collect();
        for app in apps {
            if let Some(t) = templates.get(app) {
                let entry = store.apps.get_mut(&app).expect("just listed");
                refit(entry, t);
                publish(entry, t);
            }
        }
        store.pristine = store.apps.clone();
        store
    }

    /// The currently published profile of `app`, if any.
    pub fn profile(&self, app: AppId) -> Option<&AppProfile> {
        self.apps.get(&app).and_then(|e| e.profile.as_deref())
    }

    /// The current snapshot version of `app` (`0` if never published).
    pub fn version(&self, app: AppId) -> ProfileVersion {
        ProfileVersion(self.apps.get(&app).map_or(0, |e| e.version))
    }

    /// The current immutable snapshot of `app`, if published.
    pub fn snapshot(&self, app: AppId) -> Option<ProfileSnapshot> {
        self.apps.get(&app).and_then(|e| {
            e.profile.as_ref().map(|p| ProfileSnapshot {
                version: ProfileVersion(e.version),
                profile: Arc::clone(p),
            })
        })
    }

    /// Number of applications with a published profile.
    pub fn len(&self) -> usize {
        self.apps.values().filter(|e| e.profile.is_some()).count()
    }

    /// True if no application has a published profile.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Observations absorbed for `app` so far.
    pub fn observations(&self, app: AppId) -> u64 {
        self.apps.get(&app).map_or(0, |e| e.n_obs)
    }

    /// Restores construction-time state (scheduler reset): trained
    /// profiles back at version 1, live windows and pending observations
    /// dropped.
    pub fn reset(&mut self) {
        self.apps = self.pristine.clone();
        self.pending.clear();
        self.finalized.clear();
    }

    /// Routes one engine delta: observation deltas accumulate into the
    /// job's pending row; [`SchedDelta::JobCompleted`] closes it. A no-op
    /// under [`ProfileUpdate::Frozen`].
    pub fn on_delta(&mut self, d: &SchedDelta) {
        if self.cfg.update == ProfileUpdate::Frozen {
            return;
        }
        match *d {
            SchedDelta::StageObserved {
                job,
                app,
                stage,
                nominal,
            } => {
                let p = self.pending.entry(job).or_default();
                p.app = Some(app);
                p.durs.push((stage.0, nominal.as_secs_f64()));
            }
            SchedDelta::DynCandidateObserved {
                job,
                placeholder,
                candidate,
            } => {
                self.pending
                    .entry(job)
                    .or_default()
                    .cands
                    .push((placeholder, candidate));
            }
            SchedDelta::DynEdgeObserved {
                job,
                placeholder,
                from,
                to,
            } => {
                self.pending
                    .entry(job)
                    .or_default()
                    .edges
                    .push((placeholder, from, to));
            }
            SchedDelta::JobCompleted { job } => {
                if let Some(p) = self.pending.remove(&job) {
                    if p.app.is_some() {
                        self.finalized.push(p);
                    }
                }
            }
            _ => {}
        }
    }

    /// Absorbs every finalized observation row into the per-app learners
    /// and publishes snapshots per the cadence. Returns the applications
    /// whose snapshot version was bumped (deduplicated) — callers
    /// invalidate exactly those apps' cached posteriors.
    pub fn absorb(&mut self, templates: &TemplateSet) -> Vec<AppId> {
        if self.finalized.is_empty() {
            return Vec::new();
        }
        let mut bumped = Vec::new();
        for p in std::mem::take(&mut self.finalized) {
            let app = p.app.expect("finalized rows carry their app");
            let Some(template) = templates.get(app) else {
                continue;
            };
            let mut row = vec![0.0; template.len()];
            for &(s, d) in &p.durs {
                if (s as usize) < row.len() {
                    row[s as usize] = d;
                }
            }
            let dyn_obs = DynObs {
                cands: &p.cands,
                edges: &p.edges,
            };
            if self.ingest(template, row, dyn_obs) {
                bumped.push(app);
            }
        }
        bumped.sort_unstable();
        bumped.dedup();
        bumped
    }

    /// Absorbs one hidden job spec directly (offline replay / tests):
    /// the same streaming path the delta-driven flow uses, bypassing the
    /// engine. A no-op under [`ProfileUpdate::Frozen`]. Returns whether
    /// the app's snapshot was bumped.
    pub fn observe_job_spec(&mut self, template: &Template, job: &JobSpec) -> bool {
        if self.cfg.update == ProfileUpdate::Frozen {
            return false;
        }
        self.ingest_job_spec(template, job)
    }

    fn ingest_job_spec(&mut self, template: &Template, job: &JobSpec) -> bool {
        let row = job.template_stage_durations_secs(PER_TOKEN_B1);
        let entry = self
            .apps
            .entry(template.app())
            .or_insert_with(|| AppEntry::fresh(template.len()));
        for d in template.dynamic_stages() {
            let TemplateStageKind::Dynamic { candidates, .. } = &template.stage(d).kind else {
                unreachable!("dynamic_stages() only returns dynamic stages");
            };
            entry
                .dyn_counts
                .entry(d)
                .or_insert_with(|| DynCounts::new(candidates.len()))
                .observe_job(job, d);
            *entry.dyn_jobs.entry(d).or_insert(0) += 1;
        }
        self.ingest_prepared(template, row)
    }

    /// Shared ingest for delta-assembled rows.
    fn ingest(&mut self, template: &Template, row: Vec<f64>, dyn_obs: DynObs<'_>) -> bool {
        let entry = self
            .apps
            .entry(template.app())
            .or_insert_with(|| AppEntry::fresh(template.len()));
        for d in template.dynamic_stages() {
            let TemplateStageKind::Dynamic { candidates, .. } = &template.stage(d).kind else {
                unreachable!("dynamic_stages() only returns dynamic stages");
            };
            let counts = entry
                .dyn_counts
                .entry(d)
                .or_insert_with(|| DynCounts::new(candidates.len()));
            for &(ph, c) in dyn_obs.cands {
                if ph == d && (c as usize) < counts.cand.len() {
                    counts.cand[c as usize] += 1;
                }
            }
            for &(ph, from, to) in dyn_obs.edges {
                if ph == d {
                    *counts
                        .edges
                        .entry((from as usize, to as usize))
                        .or_insert(0) += 1;
                }
            }
            *entry.dyn_jobs.entry(d).or_insert(0) += 1;
        }
        self.ingest_prepared(template, row)
    }

    /// Window + learner update for one prepared row, then the cadence
    /// decision. Returns whether a snapshot was published.
    fn ingest_prepared(&mut self, template: &Template, row: Vec<f64>) -> bool {
        let entry = self
            .apps
            .get_mut(&template.app())
            .expect("entry created by caller");
        if entry.rows.len() >= self.cfg.window_cap {
            let old = entry.rows.pop_front().expect("non-empty");
            for (s, x) in old.into_iter().enumerate() {
                entry.sums[s] -= x;
            }
        }
        for (s, &x) in row.iter().enumerate() {
            entry.sums[s] += x;
        }
        entry.n_obs += 1;
        // Bin the row for the learner before it moves into the window.
        let drift = entry.learner.as_mut().map(|l| {
            let binned: Vec<usize> = row
                .iter()
                .enumerate()
                .map(|(s, &x)| l.disc[s].bin(x))
                .collect();
            l.net.observe(&binned)
        });
        entry.rows.push_back(row);

        let want_refit = match drift {
            // The learner's drift trigger carries the re-fit backoff.
            Some(drift) => drift || entry.n_obs == entry.next_milestone,
            // Cold-start bootstrap: first profile learned from the
            // Laplace-smoothed window.
            None => entry.rows.len() >= MIN_JOBS,
        };
        if want_refit {
            refit(entry, template);
        }

        self.cfg.update == ProfileUpdate::PerCompletion && publish(entry, template)
    }
}

/// Borrowed dynamic-structure observations of one finalized job.
struct DynObs<'a> {
    cands: &'a [(StageId, u32)],
    edges: &'a [(StageId, u32, u32)],
}

/// Re-discretizes the window, re-learns structure (order-constrained BIC
/// hill-climb) and rebuilds the streaming learner from the window rows.
fn refit(entry: &mut AppEntry, template: &Template) {
    if entry.rows.is_empty() {
        return;
    }
    let (disc, data) = DiscreteData::discretize(entry.rows.make_contiguous(), MAX_BINS);
    let parents = StructureLearner::HillClimb.learn(&data, template);
    let net = OnlineNet::from_data(&data, parents, LAPLACE_ALPHA);
    entry.learner = Some(Learner { disc, net });
    entry.next_milestone = entry.n_obs.saturating_mul(2);
}

/// Publishes a new immutable snapshot from the live learner state.
/// Returns `false` (and keeps the previous snapshot) while no learner
/// exists yet — cold-start apps stay unprofiled until bootstrapped.
fn publish(entry: &mut AppEntry, template: &Template) -> bool {
    let Some(l) = &entry.learner else {
        return false;
    };
    let n = entry.rows.len().max(1) as f64;
    let static_means: Vec<f64> = entry.sums.iter().map(|&s| s / n).collect();
    let profile = AppProfile::assemble(
        template,
        l.disc.clone(),
        l.net.net().clone(),
        static_means,
        |d, n_candidates| {
            let n_jobs = entry.dyn_jobs.get(&d).copied().unwrap_or(0).max(1) as usize;
            match entry.dyn_counts.get(&d) {
                Some(counts) => counts.stats(n_jobs),
                None => DynCounts::new(n_candidates).stats(n_jobs),
            }
        },
    );
    entry.profile = Some(Arc::new(profile));
    entry.version += 1;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::ProfilerConfig;
    use llmsched_workloads::prelude::*;

    fn online_cfg() -> ProfileStoreConfig {
        ProfileStoreConfig {
            update: ProfileUpdate::PerCompletion,
            ..ProfileStoreConfig::default()
        }
    }

    #[test]
    fn frozen_store_matches_batch_profiler_and_never_bumps() {
        let templates = all_templates();
        let corpus = training_jobs(&[AppKind::WebSearch], 60, 3);
        let profiler = Profiler::train(&templates, &corpus, &ProfilerConfig::default());
        let mut store = ProfileStore::frozen(&profiler);
        let app = AppKind::WebSearch.app_id();
        assert_eq!(store.version(app), ProfileVersion(1));
        let before = store.snapshot(app).unwrap();

        // Observations are ignored entirely.
        let t = templates.expect(app);
        for j in &corpus[..10] {
            assert!(!store.observe_job_spec(t, j));
        }
        assert_eq!(store.version(app), ProfileVersion(1));
        assert!(Arc::ptr_eq(
            &before.profile,
            &store.snapshot(app).unwrap().profile
        ));
        assert_eq!(store.observations(app), 0);
    }

    #[test]
    fn streaming_train_matches_batch_profiler() {
        let templates = all_templates();
        let corpus = training_jobs(&[AppKind::SequenceSorting], 120, 9);
        let cfg = ProfilerConfig::default();
        let batch = Profiler::train(&templates, &corpus, &cfg);
        let store = ProfileStore::train(&templates, &corpus, online_cfg());

        let app = AppKind::SequenceSorting.app_id();
        let b = batch.profile(app).unwrap();
        let s = store.profile(app).unwrap();
        assert_eq!(b.net().parents(), s.net().parents(), "same structure");
        assert_eq!(b.discretizers(), s.discretizers(), "same bins");
        let e = llmsched_bayes::network::Evidence::new();
        for v in 0..b.n_stages() {
            let pb = b.net().posterior_marginal(v, &e);
            let ps = s.net().posterior_marginal(v, &e);
            for (x, y) in pb.iter().zip(&ps) {
                assert!((x - y).abs() < 1e-12, "stage {v} CPT diverged: {x} vs {y}");
            }
            assert!(
                (b.static_mean(StageId(v as u32)) - s.static_mean(StageId(v as u32))).abs() < 1e-9
            );
        }
    }

    #[test]
    fn cold_start_bootstraps_from_zero_history() {
        let templates = all_templates();
        let mut store = ProfileStore::empty(online_cfg());
        let app = AppKind::TaskAutomation.app_id();
        let t = templates.expect(app);
        assert!(store.profile(app).is_none());
        assert_eq!(store.version(app), ProfileVersion(0));

        let jobs = training_jobs(&[AppKind::TaskAutomation], 20, 5);
        let mut first_publish_at = None;
        for (i, j) in jobs.iter().enumerate() {
            if store.observe_job_spec(t, j) && first_publish_at.is_none() {
                first_publish_at = Some(i + 1);
            }
        }
        assert_eq!(
            first_publish_at,
            Some(MIN_JOBS),
            "first snapshot publishes exactly at the bootstrap threshold"
        );
        let prof = store.profile(app).expect("bootstrapped");
        assert!(prof.static_mean(StageId(0)) > 0.0);
        assert!(prof.dynamic_stats(StageId(1)).is_some());
        assert!(store.version(app) > ProfileVersion(1), "keeps publishing");
    }

    #[test]
    fn online_train_refits_after_a_duration_shift_and_not_before() {
        let templates = all_templates();
        let kind = AppKind::WebSearch;
        let app = kind.app_id();
        let t = templates.expect(app);
        let corpus = training_jobs(&[kind], 120, 3);
        let cfg = ProfileStoreConfig {
            window_cap: 64,
            ..online_cfg()
        };
        let mut store = ProfileStore::train(&templates, &corpus, cfg);
        let bins = |s: &ProfileStore| s.profile(app).unwrap().discretizers().to_vec();
        let expected_first_stage = |s: &ProfileStore| {
            let p = s.profile(app).unwrap();
            let e = llmsched_bayes::network::Evidence::new();
            p.discretizers()[0].expectation(&p.net().posterior_marginal(0, &e))
        };
        let trained = bins(&store);
        let trained_mean = expected_first_stage(&store);

        // Stationary rows: every one publishes, none moves the bins.
        let live = training_jobs(&[kind], 120, 8);
        let (before, after) = live.split_at(60);
        for j in before {
            assert!(store.observe_job_spec(t, j));
            assert_eq!(bins(&store), trained, "a stationary row re-fitted");
        }
        // The same app at 0.3x the work. On this stream the re-fit comes
        // from the doubling milestone (240 observations): the likelihood
        // drift trigger does not fire on the shift.
        let mut refit_at = None;
        for (i, j) in after.iter().enumerate() {
            store.observe_job_spec(t, &scale_job_spec(t, j, 0.3));
            if bins(&store) != trained {
                refit_at = Some(i + 1);
                break;
            }
        }
        assert_eq!(refit_at, Some(60), "shifted rows must re-fit the bins");
        // The re-fit learned from the window, which now holds the new
        // regime: the first stage's expected duration follows the shift.
        let refit_mean = expected_first_stage(&store);
        assert!(
            refit_mean < 0.6 * trained_mean,
            "re-fit kept the old regime: {trained_mean:.3}s -> {refit_mean:.3}s"
        );
    }

    #[test]
    fn version_bumps_are_per_app_and_monotonic() {
        let templates = all_templates();
        let mut store = ProfileStore::empty(online_cfg());
        let a = AppKind::WebSearch.app_id();
        let b = AppKind::CodeGeneration.app_id();
        let ja = training_jobs(&[AppKind::WebSearch], 20, 1);
        let jb = training_jobs(&[AppKind::CodeGeneration], 20, 2);
        for j in &ja {
            store.observe_job_spec(templates.expect(a), j);
        }
        let va = store.version(a);
        assert!(va.0 > 0);
        for j in &jb {
            store.observe_job_spec(templates.expect(b), j);
        }
        assert_eq!(store.version(a), va, "app A untouched by app B's rows");
        assert!(store.version(b).0 > 0);
    }

    #[test]
    fn validate_accepts_the_defaults_and_a_one_row_window() {
        assert_eq!(ProfileStoreConfig::default().validate(), Ok(()));
        let cfg = ProfileStoreConfig {
            window_cap: 1,
            ..online_cfg()
        };
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_a_zero_window_cap() {
        let cfg = ProfileStoreConfig {
            window_cap: 0,
            ..online_cfg()
        };
        let err = cfg.validate().unwrap_err();
        assert_eq!(err, ProfileStoreConfigError::WindowCap(0));
        assert!(err.to_string().starts_with("window_cap is 0"), "{err}");
    }

    #[test]
    #[should_panic(expected = "window_cap is 0")]
    fn train_panics_on_a_zero_window_cap() {
        let templates = all_templates();
        let corpus = training_jobs(&[AppKind::WebSearch], 5, 3);
        let cfg = ProfileStoreConfig {
            window_cap: 0,
            ..online_cfg()
        };
        let _ = ProfileStore::train(&templates, &corpus, cfg);
    }

    #[test]
    fn reset_restores_construction_state() {
        let templates = all_templates();
        let corpus = training_jobs(&[AppKind::WebSearch], 30, 3);
        let mut store = ProfileStore::train(&templates, &corpus, online_cfg());
        let app = AppKind::WebSearch.app_id();
        let v1 = store.version(app);
        let extra = training_jobs(&[AppKind::WebSearch], 10, 8);
        for j in &extra {
            store.observe_job_spec(templates.expect(app), j);
        }
        assert!(store.version(app) > v1);
        store.reset();
        assert_eq!(store.version(app), v1, "reset restores the seed version");
        assert_eq!(store.observations(app), corpus.len() as u64);
    }

    #[test]
    fn delta_stream_assembles_rows() {
        use llmsched_dag::time::SimDuration;
        let templates = all_templates();
        let app = AppKind::WebSearch.app_id();
        let t = templates.expect(app);
        let mut store = ProfileStore::empty(online_cfg());
        // Synthesize MIN_JOBS identical jobs' delta streams.
        for j in 0..MIN_JOBS as u64 {
            for s in 0..t.len() as u32 {
                store.on_delta(&SchedDelta::StageObserved {
                    job: JobId(j),
                    app,
                    stage: StageId(s),
                    nominal: SimDuration::from_secs_f64(1.0 + s as f64),
                });
            }
            store.on_delta(&SchedDelta::JobCompleted { job: JobId(j) });
        }
        let bumped = store.absorb(&templates);
        assert_eq!(bumped, vec![app]);
        let prof = store.profile(app).expect("published");
        assert!((prof.static_mean(StageId(0)) - 1.0).abs() < 1e-9);
        assert_eq!(store.observations(app), MIN_JOBS as u64);
        // Nothing pending: a second absorb is a no-op.
        assert!(store.absorb(&templates).is_empty());
    }
}
