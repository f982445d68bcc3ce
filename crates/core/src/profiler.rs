//! The Bayesian-network-based profiler (§IV-B).
//!
//! For every application, the profiler learns — from a corpus of historical
//! jobs — a discrete Bayesian network over the durations of the template
//! stages (≤ 6 equal-frequency intervals each, non-execution = 0 s), plus
//! structure statistics for every dynamic placeholder (candidate-inclusion
//! and inner-edge frequencies, feeding Eq. 4).
//!
//! One fit serves batch training and the online
//! [`ProfileStore`](crate::store::ProfileStore) alike: an application's
//! history (its duration rows and placeholder counters) is binned, its
//! structure learned and its CPTs counted by the same function, so a
//! store trained on a corpus holds the profiles [`Profiler::train`]
//! learns from it, bit for bit.
//!
//! At runtime the profile answers three queries given the durations of the
//! stages completed so far (the *evidence*):
//!
//! * posterior marginals of unfinished stage durations (for SRTF
//!   estimates, with Eq. 2 batching calibration applied by the caller);
//! * joint posteriors over correlated stage sets (for Eq. 5/6);
//! * the correlated-stage sets themselves via BN reachability (Eq. 1).

use std::collections::{BTreeMap, VecDeque};

use llmsched_bayes::dataset::DiscreteData;
use llmsched_bayes::discretize::Discretizer;
use llmsched_bayes::network::{BayesNet, Evidence};
use llmsched_bayes::online::SuffStats;
use llmsched_bayes::structure::{learn_chow_liu, learn_order_hill_climb};
use llmsched_dag::hash::FxHashMap;
use llmsched_dag::ids::{AppId, StageId};
use llmsched_dag::job::{DynOutcome, JobSpec, StageKind};
use llmsched_dag::template::{Template, TemplateSet, TemplateStageKind};
use llmsched_dag::time::SimDuration;
use llmsched_sim::state::JobRt;

/// Maximum duration intervals per stage (the paper uses 6).
pub(crate) const MAX_BINS: usize = 6;

/// Maximum parents per BN node.
pub(crate) const MAX_PARENTS: usize = 2;

/// Laplace smoothing for CPTs.
pub(crate) const LAPLACE_ALPHA: f64 = 1.0;

/// Batch-1 decode latency used to price LLM work in training jobs.
pub const PER_TOKEN_B1: SimDuration = SimDuration::from_millis(20);

/// Structure-learning algorithm choice (ablation knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StructureLearner {
    /// Order-constrained BIC hill climbing (default).
    #[default]
    HillClimb,
    /// Chow-Liu maximum-MI tree.
    ChowLiu,
}

impl StructureLearner {
    /// Learns parent sets over `data`, one variable per stage of
    /// `template`. Edges respect the stages' smallest-index-first
    /// topological order (§3.4 of DESIGN.md), in batch and online training
    /// alike.
    pub(crate) fn learn(self, data: &DiscreteData, template: &Template) -> Vec<Vec<usize>> {
        let order: Vec<usize> = template
            .dag()
            .topo_order()
            .expect("templates are DAGs")
            .into_iter()
            .map(|v| v as usize)
            .collect();
        match self {
            StructureLearner::HillClimb => learn_order_hill_climb(data, &order, MAX_PARENTS),
            StructureLearner::ChowLiu => learn_chow_liu(data, &order, 0.02),
        }
    }
}

/// Profiler configuration. Binning (≤ 6 intervals), smoothing (Laplace
/// α = 1), structure size (≤ 2 parents) and LLM pricing
/// ([`PER_TOKEN_B1`]) are constants of the one fit that batch training
/// and the online [`ProfileStore`](crate::store::ProfileStore) share.
#[derive(Debug, Clone, Default)]
pub struct ProfilerConfig {
    /// Structure learner.
    pub learner: StructureLearner,
}

/// Structure statistics of one dynamic placeholder (Eq. 4 inputs).
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicStats {
    /// `P(candidate c is instantiated)` per candidate index.
    pub candidate_freq: Vec<f64>,
    /// `P(edge between candidates (a, b) exists)`, for pairs observed at
    /// least once. Ordered by pair, so Eq. 4 sums its terms in one order
    /// in every process.
    pub edge_freq: BTreeMap<(usize, usize), f64>,
    /// Training jobs observed.
    pub n_samples: usize,
}

impl DynamicStats {
    /// The dynamic stage's structural entropy: node entropy + edge entropy
    /// (Eq. 4), in bits. Edge terms are summed in pair order, so the
    /// result is bit-identical however the counts were gathered.
    pub fn structural_entropy(&self) -> f64 {
        let nodes: f64 = self
            .candidate_freq
            .iter()
            .map(|&p| llmsched_bayes::info::binary_entropy(p))
            .sum();
        let edges: f64 = self
            .edge_freq
            .values()
            .map(|&p| llmsched_bayes::info::binary_entropy(p))
            .sum();
        nodes + edges
    }
}

/// The learned profile of one application.
#[derive(Debug, Clone)]
pub struct AppProfile {
    app: AppId,
    /// Per-template-stage discretizers (index = stage id).
    discretizers: Vec<Discretizer>,
    /// BN over template-stage duration bins (variable i = stage i).
    net: BayesNet,
    /// Static (prior) mean duration per template stage — the "historical
    /// average" estimator used by the w/o-BN ablation and for fallbacks.
    static_means: Vec<f64>,
    /// Whether each template stage is an LLM stage (Eq. 2 calibration
    /// applies) — placeholders count as regular work (tool executions).
    is_llm: Vec<bool>,
    /// Dynamic-placeholder statistics keyed by placeholder stage id.
    dynamic: FxHashMap<StageId, DynamicStats>,
    /// Which LLM stage precedes each dynamic placeholder.
    dynamic_preceding: FxHashMap<StageId, StageId>,
}

impl AppProfile {
    /// The application this profile describes.
    pub fn app(&self) -> AppId {
        self.app
    }

    /// The learned Bayesian network.
    pub fn net(&self) -> &BayesNet {
        &self.net
    }

    /// Per-stage discretizers.
    pub fn discretizers(&self) -> &[Discretizer] {
        &self.discretizers
    }

    /// Static mean duration of a template stage (seconds).
    pub fn static_mean(&self, stage: StageId) -> f64 {
        self.static_means.get(stage.index()).copied().unwrap_or(0.0)
    }

    /// True if the template stage runs on LLM executors.
    pub fn is_llm_stage(&self, stage: StageId) -> bool {
        self.is_llm.get(stage.index()).copied().unwrap_or(false)
    }

    /// Number of template stages (BN variables).
    pub fn n_stages(&self) -> usize {
        self.discretizers.len()
    }

    /// Dynamic-placeholder statistics, if `stage` is one.
    pub fn dynamic_stats(&self, stage: StageId) -> Option<&DynamicStats> {
        self.dynamic.get(&stage)
    }

    /// Iterates over `(placeholder, preceding LLM stage)` pairs.
    pub fn dynamic_placeholders(&self) -> impl Iterator<Item = (StageId, StageId)> + '_ {
        self.dynamic_preceding.iter().map(|(&d, &p)| (d, p))
    }

    /// The runtime evidence of a job: completed template stages mapped to
    /// their duration bins (void stages contribute their 0-duration bin).
    pub fn evidence_of(&self, job: &JobRt) -> Evidence {
        let mut e = Evidence::new();
        for s in 0..self.n_stages() {
            let sid = StageId(s as u32);
            if let Some(d) = job.completed_nominal_secs(sid) {
                e.insert(s, self.discretizers[s].bin(d));
            }
        }
        e
    }

    /// A compact fingerprint of which template stages are complete — the
    /// cache key for posterior computations (evidence only changes when a
    /// stage completes).
    pub fn evidence_mask(&self, job: &JobRt) -> u64 {
        let mut mask = 0u64;
        for s in 0..self.n_stages().min(64) {
            if job.completed_nominal_secs(StageId(s as u32)).is_some() {
                mask |= 1 << s;
            }
        }
        mask
    }

    /// The unscheduled template stages *correlated* with `stage` (Eq. 1):
    /// BN descendants that are not yet complete.
    pub fn correlated_unfinished(&self, job: &JobRt, stage: StageId) -> Vec<StageId> {
        self.net
            .descendants(stage.index())
            .iter()
            .map(|&v| StageId(v as u32))
            .filter(|&s| job.completed_nominal_secs(s).is_none())
            .collect()
    }
}

/// The trained profiler: one [`AppProfile`] per application.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    profiles: FxHashMap<AppId, AppProfile>,
}

impl Profiler {
    /// Trains profiles for every template from a historical corpus: each
    /// application's jobs go into one unbounded history, which is then
    /// fitted once.
    ///
    /// Jobs of applications absent from `templates` are ignored;
    /// applications without training jobs get no profile (the scheduler
    /// falls back to zero estimates for them).
    pub fn train(templates: &TemplateSet, corpus: &[JobSpec], cfg: &ProfilerConfig) -> Self {
        let profiles = histories(templates, corpus, usize::MAX)
            .into_iter()
            .map(|(app, mut history)| {
                let fit = fit_profile(templates.expect(app), &mut history, cfg.learner);
                (app, fit.profile)
            })
            .collect();
        Profiler { profiles }
    }

    /// The profile for `app`, if trained.
    pub fn profile(&self, app: AppId) -> Option<&AppProfile> {
        self.profiles.get(&app)
    }

    /// Iterates over all trained `(app, profile)` pairs (arbitrary
    /// order) — how a [`ProfileStore`](crate::store::ProfileStore) seeds
    /// its version-1 snapshots.
    pub fn iter(&self) -> impl Iterator<Item = (AppId, &AppProfile)> {
        self.profiles.iter().map(|(&a, p)| (a, p))
    }

    /// Number of trained applications.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// True if no applications were trained.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }
}

/// Running structure counters of one dynamic placeholder: the
/// sufficient statistics behind [`DynamicStats`].
#[derive(Debug, Clone, Default)]
struct DynCounts {
    /// Per-candidate inclusion counts (grown to the largest index seen).
    cand: Vec<u64>,
    /// Inner-edge counts keyed by candidate pair.
    edges: BTreeMap<(usize, usize), u64>,
}

impl DynCounts {
    fn count(&mut self, outcome: DynOutcome) {
        match outcome {
            DynOutcome::Candidate(c) => {
                let c = c as usize;
                if c >= self.cand.len() {
                    self.cand.resize(c + 1, 0);
                }
                self.cand[c] += 1;
            }
            DynOutcome::Edge(from, to) => {
                *self.edges.entry((from as usize, to as usize)).or_insert(0) += 1;
            }
        }
    }

    /// Normalizes the counters into frequencies of `n_candidates`
    /// candidates over `n_jobs` observed jobs.
    fn stats(&self, n_candidates: usize, n_jobs: usize) -> DynamicStats {
        let freq = |c: u64| c as f64 / n_jobs as f64;
        DynamicStats {
            candidate_freq: (0..n_candidates)
                .map(|c| freq(self.cand.get(c).copied().unwrap_or(0)))
                .collect(),
            edge_freq: self.edges.iter().map(|(&k, &c)| (k, freq(c))).collect(),
            n_samples: n_jobs,
        }
    }
}

/// A historical job as one observation: its template-stage durations at
/// batch-1 pricing and every placeholder's structural outcome — what the
/// engine's observation deltas carry for a completed job.
pub(crate) fn observation(job: &JobSpec) -> (Vec<f64>, Vec<(StageId, DynOutcome)>) {
    let outcomes = (0..job.template_len() as u32)
        .map(StageId)
        .filter(|&d| job.stage(d).kind == StageKind::DynamicPlaceholder)
        .flat_map(|d| job.dynamic_outcome(d).map(move |o| (d, o)))
        .collect();
    (job.template_stage_durations_secs(PER_TOKEN_B1), outcomes)
}

/// One application's training history: the window of duration rows a fit
/// learns from (each push names the window's cap), their running sums
/// (the static means) and the placeholder counters. Batch training fills
/// an unbounded one from the corpus; the online
/// [`ProfileStore`](crate::store::ProfileStore) keeps one per app.
#[derive(Debug, Clone, Default)]
pub(crate) struct AppHistory {
    /// Template-stage duration rows (seconds), oldest first.
    rows: VecDeque<Vec<f64>>,
    /// Running per-stage sums over `rows`.
    sums: Vec<f64>,
    /// Structure counters per placeholder (cumulative: never evicted).
    dynamic: FxHashMap<StageId, DynCounts>,
    /// Jobs pushed (cumulative): the `n` behind the placeholder
    /// frequencies.
    pub(crate) n_obs: u64,
}

impl AppHistory {
    /// Appends one job's observation, first evicting the oldest row if
    /// the window already holds `cap`.
    pub(crate) fn push(&mut self, row: Vec<f64>, outcomes: &[(StageId, DynOutcome)], cap: usize) {
        if self.rows.len() >= cap {
            let old = self.rows.pop_front().expect("non-empty");
            for (s, x) in old.into_iter().enumerate() {
                self.sums[s] -= x;
            }
        }
        self.sums.resize(row.len(), 0.0);
        for (s, &x) in row.iter().enumerate() {
            self.sums[s] += x;
        }
        self.rows.push_back(row);
        for &(d, o) in outcomes {
            self.dynamic.entry(d).or_default().count(o);
        }
        self.n_obs += 1;
    }

    /// Rows in the window.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// `template`'s profile from this history under learned bins and
    /// network. The LLM stages and each placeholder's preceding LLM stage
    /// are read off the template.
    pub(crate) fn profile(
        &self,
        template: &Template,
        discretizers: Vec<Discretizer>,
        net: BayesNet,
    ) -> AppProfile {
        let n = self.rows.len().max(1) as f64;
        let n_jobs = self.n_obs.max(1) as usize;
        let is_llm = template
            .stages()
            .iter()
            .map(|s| matches!(s.kind, TemplateStageKind::Llm))
            .collect();
        let mut dynamic = FxHashMap::default();
        let mut dynamic_preceding = FxHashMap::default();
        for d in template.dynamic_stages() {
            let TemplateStageKind::Dynamic {
                candidates,
                preceding_llm,
            } = &template.stage(d).kind
            else {
                unreachable!("dynamic_stages() only returns dynamic stages");
            };
            let stats = match self.dynamic.get(&d) {
                Some(counts) => counts.stats(candidates.len(), n_jobs),
                None => DynCounts::default().stats(candidates.len(), n_jobs),
            };
            dynamic.insert(d, stats);
            dynamic_preceding.insert(d, *preceding_llm);
        }
        AppProfile {
            app: template.app(),
            discretizers,
            net,
            static_means: self.sums.iter().map(|&s| s / n).collect(),
            is_llm,
            dynamic,
            dynamic_preceding,
        }
    }
}

/// Each application's history of `corpus`, in windows of `cap` rows.
/// Jobs of applications absent from `templates` are ignored.
pub(crate) fn histories(
    templates: &TemplateSet,
    corpus: &[JobSpec],
    cap: usize,
) -> FxHashMap<AppId, AppHistory> {
    let mut out: FxHashMap<AppId, AppHistory> = FxHashMap::default();
    for job in corpus.iter().filter(|j| templates.get(j.app()).is_some()) {
        let (row, outcomes) = observation(job);
        out.entry(job.app()).or_default().push(row, &outcomes, cap);
    }
    out
}

/// A fitted profile, with what an online learner resumes from.
pub(crate) struct Fit {
    pub(crate) profile: AppProfile,
    /// The window binned under the profile's discretizers.
    pub(crate) data: DiscreteData,
    /// The count tables the profile's network was fitted from.
    pub(crate) stats: SuffStats,
}

/// The one profile fit, batch and online: bins `history`'s window, learns
/// the parents with `learner`, counts and normalizes the CPTs through
/// [`SuffStats`] (as [`BayesNet::fit`] does) and assembles the profile.
pub(crate) fn fit_profile(
    template: &Template,
    history: &mut AppHistory,
    learner: StructureLearner,
) -> Fit {
    let (discretizers, data) = DiscreteData::discretize(history.rows.make_contiguous(), MAX_BINS);
    let parents = learner.learn(&data, template);
    let stats = SuffStats::from_data(&data, parents).expect("learned structure is valid");
    let net = stats.fit(LAPLACE_ALPHA);
    Fit {
        profile: history.profile(template, discretizers, net),
        data,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsched_workloads::prelude::*;

    fn trained(kind: AppKind, n: usize) -> Profiler {
        let templates = all_templates();
        let corpus = training_jobs(&[kind], n, 99);
        Profiler::train(&templates, &corpus, &ProfilerConfig::default())
    }

    #[test]
    fn trains_profiles_for_all_apps() {
        let templates = all_templates();
        let corpus = training_jobs(&AppKind::ALL, 60, 3);
        let p = Profiler::train(&templates, &corpus, &ProfilerConfig::default());
        assert_eq!(p.len(), 6);
        for k in AppKind::ALL {
            assert!(p.profile(k.app_id()).is_some(), "{} missing", k.name());
        }
    }

    #[test]
    fn sorting_profile_learns_correlations() {
        let p = trained(AppKind::SequenceSorting, 400);
        let prof = p.profile(AppKind::SequenceSorting.app_id()).unwrap();
        // The latent sequence length couples the LLM stages; the split stage
        // (S0) must reach other stages by directed paths.
        let correlated = prof.net().descendants(0);
        assert!(
            !correlated.is_empty(),
            "split stage should correlate with later stages, net edges: {:?}",
            prof.net().edges()
        );
    }

    #[test]
    fn codegen_profile_sees_zero_bins_for_padded_stages() {
        let p = trained(AppKind::CodeGeneration, 300);
        let prof = p.profile(AppKind::CodeGeneration.app_id()).unwrap();
        // Later-iteration stages are unexecuted in many jobs -> zero bin.
        let last = prof.discretizers().last().unwrap();
        assert!(
            last.has_zero_bin(),
            "padded stages must have a non-execution bin"
        );
        assert!(prof.static_mean(StageId(0)) > 0.0);
    }

    #[test]
    fn taskauto_profile_has_dynamic_stats() {
        let p = trained(AppKind::TaskAutomation, 300);
        let prof = p.profile(AppKind::TaskAutomation.app_id()).unwrap();
        let d = StageId(1);
        let stats = prof.dynamic_stats(d).expect("placeholder stats");
        assert_eq!(stats.n_samples, 300);
        // Cheap tools are more frequent than expensive ones.
        assert!(stats.candidate_freq[0] > stats.candidate_freq[19]);
        // Structural entropy is positive (real uncertainty).
        assert!(stats.structural_entropy() > 0.5);
        assert_eq!(prof.dynamic_placeholders().next(), Some((d, StageId(0))));
    }

    #[test]
    fn evidence_of_fresh_job_is_empty() {
        let templates = all_templates();
        let corpus = training_jobs(&[AppKind::WebSearch], 100, 5);
        let p = Profiler::train(&templates, &corpus, &ProfilerConfig::default());
        let prof = p.profile(AppKind::WebSearch.app_id()).unwrap();
        let job = llmsched_sim::state::JobRt::new(corpus[0].clone());
        assert!(prof.evidence_of(&job).is_empty());
        assert_eq!(prof.evidence_mask(&job), 0);
    }

    #[test]
    fn chow_liu_learner_also_trains() {
        let templates = all_templates();
        let corpus = training_jobs(&[AppKind::SequenceSorting], 200, 6);
        let cfg = ProfilerConfig {
            learner: StructureLearner::ChowLiu,
        };
        let p = Profiler::train(&templates, &corpus, &cfg);
        let prof = p.profile(AppKind::SequenceSorting.app_id()).unwrap();
        assert!(
            !prof.net().edges().is_empty(),
            "Chow-Liu should find the latent coupling"
        );
    }

    #[test]
    fn structural_entropy_is_independent_of_insertion_order() {
        // 28 inner edges with uneven frequencies: a float sum over them
        // depends on the order its terms are added in.
        let outcomes: Vec<DynOutcome> = (0..8u32)
            .flat_map(|a| (a + 1..8).map(move |b| (a, b)))
            .flat_map(|(a, b)| {
                let n = 1 + (a * 7 + b * 3) % 11;
                std::iter::repeat(DynOutcome::Edge(a, b)).take(n as usize)
            })
            .chain((0..8).map(DynOutcome::Candidate))
            .collect();
        let stats = |order: &[DynOutcome]| {
            let mut counts = DynCounts::default();
            order.iter().for_each(|&o| counts.count(o));
            counts.stats(8, 13)
        };
        let forward = stats(&outcomes);
        let bits = forward.structural_entropy().to_bits();
        // Reversed, then rotated: eight more insertion orders.
        let mut reordered = outcomes.clone();
        reordered.reverse();
        for order in 0..8 {
            reordered.rotate_left(17);
            let other = stats(&reordered);
            assert_eq!(other, forward, "same counts (order {order})");
            assert_eq!(other.structural_entropy().to_bits(), bits, "order {order}");
        }
    }

    #[test]
    fn untrained_app_has_no_profile() {
        let p = trained(AppKind::WebSearch, 50);
        assert!(p.profile(AppKind::SequenceSorting.app_id()).is_none());
        assert!(!p.is_empty());
    }
}
