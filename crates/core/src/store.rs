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
//! structure re-learning run only when a cold-start application first
//! accumulates enough history to bootstrap from its Laplace prior, when
//! the observation count doubles, or when the drift trigger fires.
//!
//! Each re-fit is the batch profiler's one fit over the app's bounded row
//! window and placeholder counters; only the store then puts the fitted
//! network online ([`OnlineNet::new`]: live counters plus the drift
//! baseline), so frozen training never pays for the baseline. The
//! network's drift trigger ([`OnlineNet::observe`]) is the only backoff.
//! [`ProfileStore::train`] fills the windows from the corpus and fits
//! each app once, publishing version 1, so a trained store holds exactly
//! the profiles [`Profiler::train`] learns from a corpus that fits in the
//! window.
//!
//! The [`ProfileUpdate`] cadence knob makes the whole subsystem opt-in:
//! [`ProfileUpdate::Frozen`] (the default) ignores observations entirely
//! and reproduces the classic frozen-profiler behavior bit-for-bit —
//! pinned by the golden schedules in `tests/incremental_equiv.rs`.

use std::sync::Arc;

use llmsched_bayes::discretize::Discretizer;
use llmsched_bayes::online::OnlineNet;
use llmsched_dag::hash::FxHashMap;
use llmsched_dag::ids::{AppId, JobId, StageId};
use llmsched_dag::job::{DynOutcome, JobSpec};
use llmsched_dag::template::{Template, TemplateSet};
use llmsched_sim::scheduler::SchedDelta;

use crate::profiler::{
    fit_profile, histories, observation, AppHistory, AppProfile, Profiler, StructureLearner,
    LAPLACE_ALPHA,
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
    /// `window_cap` is below the cold-start bootstrap threshold (8
    /// rows): an empty store's window could never hold enough rows to
    /// learn its first profile.
    WindowCap(usize),
}

impl std::fmt::Display for ProfileStoreConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileStoreConfigError::WindowCap(v) => {
                write!(
                    f,
                    "window_cap is {v}: the window must retain at least {MIN_JOBS} rows, \
                     the cold-start bootstrap threshold"
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
    /// [`ProfileStoreConfigError::WindowCap`] on a `window_cap` below
    /// the cold-start bootstrap threshold (8).
    pub fn validate(&self) -> Result<(), ProfileStoreConfigError> {
        if self.window_cap < MIN_JOBS {
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
#[derive(Debug, Clone, Default)]
struct AppEntry {
    version: u64,
    profile: Option<Arc<AppProfile>>,
    /// The bounded row window and placeholder counters re-fits learn from.
    history: AppHistory,
    learner: Option<Learner>,
    /// Next observation-count milestone forcing a re-fit (doubling
    /// schedule: bins and structure refine as history grows).
    next_milestone: u64,
}

/// A job's observation row being assembled from the delta stream.
#[derive(Debug, Clone, Default)]
struct PendingJob {
    app: Option<AppId>,
    durs: Vec<(u32, f64)>,
    outcomes: Vec<(StageId, DynOutcome)>,
}

/// The versioned, observation-driven profile store.
#[derive(Debug, Clone)]
pub struct ProfileStore {
    cfg: ProfileStoreConfig,
    apps: FxHashMap<AppId, AppEntry>,
    /// Construction-time state, restored by [`ProfileStore::reset`] so a
    /// scheduler instance is reusable across simulations.
    pristine: FxHashMap<AppId, AppEntry>,
    pending: FxHashMap<JobId, PendingJob>,
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
            apps: FxHashMap::default(),
            pristine: FxHashMap::default(),
            pending: FxHashMap::default(),
            finalized: Vec::new(),
        }
    }

    /// The frozen classic: a batch-trained [`Profiler`]'s profiles as
    /// version-1 snapshots, observations ignored. Online learning starts
    /// from [`ProfileStore::train`] or [`ProfileStore::empty`], which keep
    /// the rows a re-fit learns from.
    pub fn frozen(profiler: &Profiler) -> Self {
        let apps: FxHashMap<AppId, AppEntry> = profiler
            .iter()
            .map(|(app, p)| {
                let entry = AppEntry {
                    version: 1,
                    profile: Some(Arc::new(p.clone())),
                    ..AppEntry::default()
                };
                (app, entry)
            })
            .collect();
        ProfileStore {
            cfg: ProfileStoreConfig::default(),
            pristine: apps.clone(),
            apps,
            pending: FxHashMap::default(),
            finalized: Vec::new(),
        }
    }

    /// Trains from a historical corpus: each app's jobs fill its window
    /// and placeholder counters with no re-fit or publish along the way,
    /// then each app is fitted once and published as version 1, whatever
    /// the cadence. With the corpus inside the window the profiles equal
    /// [`Profiler::train`]'s bit for bit — pinned by tests — and the store
    /// is ready to keep learning online.
    ///
    /// # Panics
    /// Panics with the field's [`ProfileStoreConfigError`] if
    /// [`ProfileStoreConfig::validate`] rejects `cfg`.
    pub fn train(templates: &TemplateSet, corpus: &[JobSpec], cfg: ProfileStoreConfig) -> Self {
        let mut store = ProfileStore::empty(cfg);
        store.apps = histories(templates, corpus, store.cfg.window_cap)
            .into_iter()
            .map(|(app, history)| {
                let mut entry = AppEntry {
                    history,
                    ..AppEntry::default()
                };
                refit(&mut entry, templates.expect(app));
                (app, entry)
            })
            .collect();
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
        self.apps.get(&app).map_or(0, |e| e.history.n_obs)
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
                    .outcomes
                    .push((placeholder, DynOutcome::Candidate(candidate)));
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
                    .outcomes
                    .push((placeholder, DynOutcome::Edge(from, to)));
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
            if self.ingest(template, row, &p.outcomes) {
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
        let (row, outcomes) = observation(job);
        self.ingest(template, row, &outcomes)
    }

    /// Absorbs one live observation into the app's learner and history,
    /// then re-fits or publishes per the cadence. Returns whether a
    /// snapshot was published.
    fn ingest(
        &mut self,
        template: &Template,
        row: Vec<f64>,
        outcomes: &[(StageId, DynOutcome)],
    ) -> bool {
        let entry = self.apps.entry(template.app()).or_default();
        // Bin the row for the learner before it moves into the window.
        let drift = entry.learner.as_mut().map(|l| {
            let binned: Vec<usize> = row
                .iter()
                .enumerate()
                .map(|(s, &x)| l.disc[s].bin(x))
                .collect();
            l.net.observe(&binned)
        });
        entry.history.push(row, outcomes, self.cfg.window_cap);

        let want_refit = match drift {
            // The learner's drift trigger carries the re-fit backoff.
            Some(drift) => drift || entry.history.n_obs == entry.next_milestone,
            // Cold-start bootstrap: first profile learned from the
            // Laplace-smoothed window.
            None => entry.history.len() >= MIN_JOBS,
        };
        if want_refit {
            refit(entry, template);
            return true;
        }
        publish(entry, template)
    }
}

/// Fits the app's window and counters (order-constrained BIC hill-climb),
/// puts the network online for the live rows that follow and publishes
/// the fit.
fn refit(entry: &mut AppEntry, template: &Template) {
    let fit = fit_profile(template, &mut entry.history, StructureLearner::HillClimb);
    let net = OnlineNet::new(
        fit.stats,
        fit.profile.net().clone(),
        &fit.data,
        LAPLACE_ALPHA,
    );
    entry.learner = Some(Learner {
        disc: fit.profile.discretizers().to_vec(),
        net,
    });
    entry.next_milestone = entry.history.n_obs.saturating_mul(2);
    entry.profile = Some(Arc::new(fit.profile));
    entry.version += 1;
}

/// Publishes a new immutable snapshot from the live learner state.
/// Returns `false` (and keeps the previous snapshot) while no learner
/// exists yet — cold-start apps stay unprofiled until bootstrapped.
fn publish(entry: &mut AppEntry, template: &Template) -> bool {
    let Some(l) = &entry.learner else {
        return false;
    };
    let profile = entry
        .history
        .profile(template, l.disc.clone(), l.net.net().clone());
    entry.profile = Some(Arc::new(profile));
    entry.version += 1;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::ProfilerConfig;
    use crate::scheduler::{LlmSched, LlmSchedConfig};
    use llmsched_sim::engine::simulate;
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

    /// Bins, parents, CPT values, static means and placeholder stats
    /// equal bit for bit.
    fn assert_same_profile(a: &AppProfile, b: &AppProfile, what: &str) {
        assert_eq!(a.discretizers(), b.discretizers(), "{what}: bins");
        assert_eq!(a.net().parents(), b.net().parents(), "{what}: parents");
        for (v, (ca, cb)) in a.net().cpts().iter().zip(b.net().cpts()).enumerate() {
            assert_eq!(ca.values(), cb.values(), "{what}: stage {v} CPT");
        }
        for v in 0..a.n_stages() {
            let s = StageId(v as u32);
            assert_eq!(
                a.static_mean(s).to_bits(),
                b.static_mean(s).to_bits(),
                "{what}: stage {v} static mean"
            );
            assert_eq!(
                a.dynamic_stats(s),
                b.dynamic_stats(s),
                "{what}: stage {v} placeholder stats"
            );
        }
    }

    #[test]
    fn streaming_train_matches_batch_profiler() {
        let templates = all_templates();
        // TaskAutomation carries a dynamic placeholder, SequenceSorting none.
        for kind in [AppKind::SequenceSorting, AppKind::TaskAutomation] {
            let app = kind.app_id();
            let corpus = training_jobs(&[kind], 120, 9);
            let batch = Profiler::train(&templates, &corpus, &ProfilerConfig::default());
            let store = ProfileStore::train(&templates, &corpus, online_cfg());
            let b = batch.profile(app).unwrap();
            assert_same_profile(b, store.profile(app).unwrap(), kind.name());
            if kind == AppKind::TaskAutomation {
                let stats = b.dynamic_stats(StageId(1)).expect("placeholder stats");
                assert!(!stats.edge_freq.is_empty(), "inner edges are compared too");
            }

            // The same jobs through the engine: the store counts the
            // placeholder outcomes the observation deltas carry.
            let mut sched =
                LlmSched::with_store(ProfileStore::empty(online_cfg()), LlmSchedConfig::default());
            let cluster = WorkloadKind::Mixed.default_cluster();
            let r = simulate(&cluster, &templates, corpus.clone(), &mut sched);
            assert_eq!(r.incomplete, 0);
            let mut live = sched.profile_store().clone();
            live.absorb(&templates);
            assert_eq!(live.observations(app), corpus.len() as u64);
            let l = live.profile(app).unwrap();
            for v in 0..b.n_stages() {
                let s = StageId(v as u32);
                assert_eq!(b.dynamic_stats(s), l.dynamic_stats(s), "stage {v} stats");
                // Summed in completion order, not corpus order.
                let (mb, ml) = (b.static_mean(s), l.static_mean(s));
                assert!(
                    (mb - ml).abs() <= 1e-9 * mb.max(1.0),
                    "stage {v}: {mb} vs {ml}"
                );
            }
        }
    }

    #[test]
    fn an_engine_run_delivers_its_last_completion_to_the_store() {
        let templates = all_templates();
        let kind = AppKind::TaskAutomation;
        let jobs = training_jobs(&[kind], 120, 9);
        let mut sched =
            LlmSched::with_store(ProfileStore::empty(online_cfg()), LlmSchedConfig::default());
        let cluster = WorkloadKind::Mixed.default_cluster();
        let r = simulate(&cluster, &templates, jobs, &mut sched);
        assert_eq!(r.incomplete, 0);
        let mut live = sched.profile_store().clone();
        live.absorb(&templates);
        assert_eq!(live.observations(kind.app_id()), 120);
    }

    #[test]
    fn per_completion_train_fits_once_at_version_one() {
        let templates = all_templates();
        let corpus = training_jobs(&AppKind::ALL, 100, 4);
        let online = ProfileStore::train(&templates, &corpus, online_cfg());
        let frozen = ProfileStore::train(&templates, &corpus, ProfileStoreConfig::default());
        assert_eq!(online.len(), AppKind::ALL.len());
        for kind in AppKind::ALL {
            let app = kind.app_id();
            // Streaming the corpus row by row would publish once per row
            // from the 8-row bootstrap on, reaching version 94.
            assert_eq!(online.version(app), ProfileVersion(1), "{}", kind.name());
            assert_same_profile(
                online.profile(app).unwrap(),
                frozen.profile(app).unwrap(),
                kind.name(),
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
    fn validate_rejects_7_and_accepts_8_window_rows() {
        assert_eq!(ProfileStoreConfig::default().validate(), Ok(()));
        let cap = |window_cap| ProfileStoreConfig {
            window_cap,
            ..online_cfg()
        };
        let err = cap(MIN_JOBS - 1).validate().unwrap_err();
        assert_eq!(err, ProfileStoreConfigError::WindowCap(7));
        assert!(err.to_string().contains("at least 8 rows"), "{err}");
        assert_eq!(cap(MIN_JOBS).validate(), Ok(()));
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
