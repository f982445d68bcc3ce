//! Remaining-duration estimation with Bayesian updates and batching-aware
//! calibration (§IV-B, Eq. 2).
//!
//! The estimate behind Algorithm 1's `job.est_rd()`: the posterior mean of
//! every unfinished template stage's duration given the completed stages'
//! evidence, with LLM work scaled by the current batching calibration
//! factor `l(b_t)/l(b_r)`. The same machinery produces the support
//! *interval* used to group jobs into non-overlapping sets (line 5).

use llmsched_bayes::info::mutual_information_of;
use llmsched_bayes::network::{BayesNet, Evidence};
use llmsched_bayes::plan::{EliminationPlan, PlanScratch};
use llmsched_dag::hash::FxHashMap;
use llmsched_dag::ids::StageId;
use llmsched_dag::job::StageKind;
use llmsched_sim::scheduler::SchedContext;
use llmsched_sim::state::JobRt;

use crate::profiler::AppProfile;

/// Work estimate split by executor class: LLM seconds are batch-1
/// normalized and must be multiplied by the Eq. 2 calibration ratio before
/// being compared against wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WorkEstimate {
    /// Expected remaining LLM work (batch-1 seconds).
    pub llm_secs: f64,
    /// Expected remaining regular work (seconds).
    pub regular_secs: f64,
    /// Lower support bound, split the same way.
    pub lo: (f64, f64),
    /// Upper support bound.
    pub hi: (f64, f64),
}

impl WorkEstimate {
    /// Point estimate of remaining duration under batching calibration
    /// `calib = l(b_t)/l(b_1)` (Eq. 2).
    pub fn expected(&self, calib: f64) -> f64 {
        self.llm_secs * calib + self.regular_secs
    }

    /// Calibrated support interval `(lo, hi)`.
    pub fn interval(&self, calib: f64) -> (f64, f64) {
        (self.lo.0 * calib + self.lo.1, self.hi.0 * calib + self.hi.1)
    }
}

/// Default tail probability mass trimmed from each side of a stage's
/// posterior when forming the job-duration interval used for
/// non-overlapping grouping (Algorithm 1, line 5).
///
/// `0.0` is the paper-literal reading (full distribution supports), under
/// which almost every pair of fresh jobs overlaps into one group and the
/// exploration list degenerates to a pure Eq. 6 ordering. A tight central
/// band keeps the grouping informative — exploration then proceeds
/// plausibly-shortest group first — and measurably improves every workload
/// mix (see DESIGN.md §3.6 and the `fig9_sensitivity` bench).
pub const INTERVAL_TAIL_MASS: f64 = 0.35;

/// The Eq. 2 batching-aware calibration factor `l(b_t)/l(1)` read off the
/// executor backend's occupancy view: `b_t` is the current average batch
/// size over busy LLM executors (whatever
/// [`ExecutorBackend`](llmsched_sim::exec::ExecutorBackend) produced the
/// view), and `l(·)` the cluster's decode-latency curve. Multiply batch-1
/// LLM work estimates by this factor to predict wall-clock durations
/// under the current batching pressure.
pub fn batching_calibration(ctx: &SchedContext<'_>) -> f64 {
    let bt = ctx.average_busy_batch().round().max(1.0) as usize;
    ctx.latency.calibration_ratio(1, bt)
}

/// Posterior duration band of one template stage under one evidence
/// state: the trimmed support interval and the expected duration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageBand {
    /// Posterior mean duration (seconds).
    pub mean: f64,
    /// Lower quantile bound.
    pub lo: f64,
    /// Upper quantile bound.
    pub hi: f64,
}

/// No evidence: what the w/o-BN ablation conditions its bands on.
static NO_EVIDENCE: Evidence = Evidence::new();

/// Compiled elimination plans of one profile snapshot, keyed by observed
/// stage set (as a bit mask over stages), plus the scratch they run in.
///
/// A plan depends only on the network's structure and on *which* stages
/// are observed, so every evidence state over the same completed-stage set
/// runs the same plan: one marginals plan per observed set, and one
/// mutual-information plan per (observed set, Eq. 6 target set, scored
/// stage). Plans are compiled on first use. The holder drops the whole
/// cache whenever the snapshot changes
/// (the [`BeliefStore`](crate::belief::BeliefStore) keeps one per app
/// next to its band memo and drops both together).
#[derive(Debug, Clone, Default)]
pub struct PosteriorPlans {
    marginals: FxHashMap<u64, EliminationPlan>,
    joints: FxHashMap<(u64, u64, usize), EliminationPlan>,
    scratch: PlanScratch,
}

/// The bit mask of `vars`, or `None` if one does not fit in 64 bits (such
/// a plan is compiled for one run and not cached).
fn var_mask(vars: impl IntoIterator<Item = usize>) -> Option<u64> {
    vars.into_iter()
        .try_fold(0u64, |m, v| (v < 64).then(|| m | 1 << v))
}

impl PosteriorPlans {
    /// Number of compiled plans held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.marginals.len() + self.joints.len()
    }

    /// Every variable's posterior marginal under `evidence`, written into
    /// `out` back to back in variable order (variable `v` starts at
    /// `Σ card[..v]`): observed variables get their point mass, the rest
    /// come from the observed set's cached marginals plan.
    pub fn marginals_into(&mut self, net: &BayesNet, evidence: &Evidence, out: &mut Vec<f64>) {
        let compiled;
        let plan = match var_mask(evidence.keys().copied()) {
            Some(key) => self.marginals.entry(key).or_insert_with(|| {
                EliminationPlan::marginals(net.cpts(), &observed_vars(evidence))
            }),
            None => {
                compiled = EliminationPlan::marginals(net.cpts(), &observed_vars(evidence));
                &compiled
            }
        };
        let results = plan.run(net.cpts(), evidence, &mut self.scratch);
        let mut free = results.iter();
        out.clear();
        for (v, &c) in net.cardinalities().iter().enumerate() {
            match evidence.get(&v) {
                Some(&val) => {
                    let at = out.len();
                    out.resize(at + c, 0.0);
                    out[at + val] = 1.0;
                }
                None => {
                    let (vars, p) = free.next().expect("one marginal per unobserved variable");
                    debug_assert_eq!(vars, [v]);
                    out.extend_from_slice(p);
                }
            }
        }
    }

    /// The Eq. 6 mutual information `I(X; Ys | evidence)` of stage `x`
    /// with the other `targets` (ascending, `x` among them, none
    /// observed), from the cached plan of that (observed set, target set,
    /// `x`) triple: the joint and its two marginals come out of one run,
    /// without building a factor. Bit-identical to
    /// [`mutual_information`](llmsched_bayes::info::mutual_information)
    /// on [`BayesNet::posterior_joint`].
    pub fn mutual_information(
        &mut self,
        net: &BayesNet,
        evidence: &Evidence,
        targets: &[usize],
        x: usize,
    ) -> f64 {
        let compiled;
        let key = var_mask(evidence.keys().copied()).zip(var_mask(targets.iter().copied()));
        let compile = || {
            let ys: Vec<usize> = targets.iter().copied().filter(|&t| t != x).collect();
            net.joint_plan(&observed_vars(evidence), targets, &[&[x], &ys])
        };
        let plan = match key {
            Some((observed_key, targets_key)) => self
                .joints
                .entry((observed_key, targets_key, x))
                .or_insert_with(compile),
            None => {
                compiled = compile();
                &compiled
            }
        };
        let out = plan.run(net.cpts(), evidence, &mut self.scratch);
        let (pxy, px, pys) = (out.get(0).1, out.get(1).1, out.get(2).1);
        mutual_information_of(px, pys, pxy)
    }
}

fn observed_vars(evidence: &Evidence) -> Vec<usize> {
    evidence.keys().copied().collect()
}

/// Reusable posterior state of one `(application, evidence)` pair: the
/// per-stage [`StageBand`]s plus — under the BN — every stage's posterior
/// marginal.
///
/// Built once per evidence state and shared across jobs by the
/// [`BeliefStore`](crate::belief::BeliefStore): Eq. 6 scoring re-reads
/// the marginals the bands came from instead of re-running the
/// inference. Every value comes from the same compiled plans the
/// one-shot entry points
/// ([`BayesNet::posterior_marginal`](llmsched_bayes::network::BayesNet::posterior_marginal))
/// compile and run, so cached and uncached paths are bit-identical.
#[derive(Debug)]
pub struct EvidencePosteriors {
    /// Per-stage posterior bands.
    pub bands: Vec<StageBand>,
    /// Every stage's posterior marginal under this evidence, flat in
    /// stage order ([`PosteriorPlans::marginals_into`]); `None` for the
    /// w/o-BN ablation, whose Eq. 6 scores take the uncached path.
    marginals: Option<Vec<f64>>,
    /// Shared memo of Eq. 6 MI terms, one slot per stage: the term is a
    /// pure function of `(application, evidence)` (see
    /// [`crate::uncertainty`]), so every job under this evidence reuses
    /// one computation. Filled lazily through the shared `Arc`.
    mi: Vec<std::sync::OnceLock<f64>>,
}

impl EvidencePosteriors {
    /// True when the BN marginals are present.
    pub(crate) fn has_bn_cache(&self) -> bool {
        self.marginals.is_some()
    }

    /// Stage `stage`'s cached posterior marginal.
    ///
    /// # Panics
    /// Panics without the BN cache.
    pub(crate) fn marginal(&self, profile: &AppProfile, stage: usize) -> &[f64] {
        let card = profile.net().cardinalities();
        let at: usize = card[..stage].iter().sum();
        let all = self.marginals.as_deref().expect("BN cache present");
        &all[at..at + card[stage]]
    }

    /// The shared MI term of template stage `stage`, computed by
    /// `compute` on first use.
    pub(crate) fn mi_memo(&self, stage: usize, compute: impl FnOnce() -> f64) -> f64 {
        *self.mi[stage].get_or_init(compute)
    }

    /// Builds the posterior state for one evidence map, running the
    /// observed set's marginals plan from `plans` (compiled on first use).
    ///
    /// Stages present in `evidence` are completed (their bin is observed)
    /// and contribute nothing to *remaining* work: their slot holds a
    /// default band that [`remaining_work_from_bands`] never reads, as
    /// long as the evidence was extracted from the job being estimated
    /// ([`AppProfile::evidence_of`]). With `use_bn = false` (the w/o-BN
    /// ablation) the bands come from the evidence-free prior and the mean
    /// falls back to the historical average.
    pub fn build(
        profile: &AppProfile,
        evidence: &Evidence,
        use_bn: bool,
        tail_mass: f64,
        plans: &mut PosteriorPlans,
    ) -> Self {
        let net = profile.net();
        let cond = if use_bn { evidence } else { &NO_EVIDENCE };
        let mut marginals = Vec::with_capacity(net.cardinalities().iter().sum());
        plans.marginals_into(net, cond, &mut marginals);
        let n = profile.n_stages();
        let card = net.cardinalities();
        let mut at = 0;
        let bands = (0..n)
            .map(|s| {
                let p = &marginals[at..at + card[s]];
                at += card[s];
                if evidence.contains_key(&s) {
                    return StageBand::default();
                }
                let disc = &profile.discretizers()[s];
                let (lo, hi) = disc.quantile_interval(p, tail_mass);
                let mean = if use_bn {
                    disc.expectation(p)
                } else {
                    profile.static_mean(StageId(s as u32))
                };
                StageBand { mean, lo, hi }
            })
            .collect();
        EvidencePosteriors {
            bands,
            mi: if use_bn {
                (0..n).map(|_| std::sync::OnceLock::new()).collect()
            } else {
                Vec::new()
            },
            marginals: use_bn.then_some(marginals),
        }
    }
}

/// Folds precomputed [`EvidencePosteriors::bands`] into one job's remaining-work
/// estimate: skips completed stages and credits observable progress
/// inside expanded-but-unfinished placeholders (the job-specific part).
pub fn remaining_work_from_bands(
    profile: &AppProfile,
    job: &JobRt,
    bands: &[StageBand],
) -> WorkEstimate {
    let mut est = WorkEstimate::default();
    for (s, band) in bands.iter().enumerate().take(profile.n_stages()) {
        let sid = StageId(s as u32);
        if job.completed_nominal_secs(sid).is_some() {
            continue; // stage done: contributes nothing to *remaining* work
        }
        let StageBand {
            mut mean,
            mut lo,
            mut hi,
        } = *band;
        if is_placeholder(job, sid) {
            let done = completed_children_work(job, sid);
            mean = (mean - done).max(0.0);
            lo = (lo - done).max(0.0);
            hi = (hi - done).max(0.0);
        }
        if profile.is_llm_stage(sid) {
            est.llm_secs += mean;
            est.lo.0 += lo;
            est.hi.0 += hi;
        } else {
            est.regular_secs += mean;
            est.lo.1 += lo;
            est.hi.1 += hi;
        }
    }
    est
}

/// Posterior remaining-work estimate for one job.
///
/// * With `use_bn = true` the posterior conditions on `evidence` (completed
///   stage duration bins) — the full LLMSched estimator.
/// * With `use_bn = false` the evidence is ignored and the static training
///   marginals are used — the paper's *LLMSched w/o BN* ablation.
///
/// `tail_mass` sets the per-stage quantile band used for the interval
/// bounds (see [`INTERVAL_TAIL_MASS`]).
///
/// Dynamic placeholders whose generated stages already partially completed
/// are credited with that completed work (it is observable).
pub fn remaining_work_with(
    profile: &AppProfile,
    job: &JobRt,
    evidence: &Evidence,
    use_bn: bool,
    tail_mass: f64,
) -> WorkEstimate {
    // Not via `EvidencePosteriors::build` (which skips evidence-keyed
    // stages): this entry point accepts arbitrary evidence that need not
    // match the job's completed set, and it is the rebuild reference
    // path, which caches nothing. One marginals plan is compiled and run
    // for the call; each stage's marginal is bit-identical to its
    // one-shot `posterior_marginal` (a point mass when observed), so the
    // per-stage arithmetic is that of `build` + `remaining_work_from_bands`.
    let mut est = WorkEstimate::default();
    let cond = if use_bn { evidence } else { &NO_EVIDENCE };
    let mut marginals = Vec::new();
    PosteriorPlans::default().marginals_into(profile.net(), cond, &mut marginals);
    let card = profile.net().cardinalities();
    let mut at = 0;
    for s in 0..profile.n_stages() {
        let sid = StageId(s as u32);
        let p = &marginals[at..at + card[s]];
        at += card[s];
        if job.completed_nominal_secs(sid).is_some() {
            continue; // stage done: contributes nothing to *remaining* work
        }
        let disc = &profile.discretizers()[s];
        let (mut lo, mut hi) = disc.quantile_interval(p, tail_mass);
        let mut mean = if use_bn {
            disc.expectation(p)
        } else {
            profile.static_mean(sid)
        };
        if is_placeholder(job, sid) {
            let done = completed_children_work(job, sid);
            mean = (mean - done).max(0.0);
            lo = (lo - done).max(0.0);
            hi = (hi - done).max(0.0);
        }
        if profile.is_llm_stage(sid) {
            est.llm_secs += mean;
            est.lo.0 += lo;
            est.hi.0 += hi;
        } else {
            est.regular_secs += mean;
            est.lo.1 += lo;
            est.hi.1 += hi;
        }
    }
    est
}

/// [`remaining_work_with`] at the default [`INTERVAL_TAIL_MASS`].
pub fn remaining_work(
    profile: &AppProfile,
    job: &JobRt,
    evidence: &Evidence,
    use_bn: bool,
) -> WorkEstimate {
    remaining_work_with(profile, job, evidence, use_bn, INTERVAL_TAIL_MASS)
}

fn is_placeholder(job: &JobRt, stage: StageId) -> bool {
    job.stage_view(stage)
        .map(|v| v.kind == StageKind::DynamicPlaceholder)
        .unwrap_or(false)
}

fn completed_children_work(job: &JobRt, placeholder: StageId) -> f64 {
    job.visible_stage_ids()
        .iter()
        .filter_map(|&g| job.stage_view(g))
        .filter(|v| v.parent_dynamic == Some(placeholder))
        .filter_map(|v| v.completed_nominal_secs)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{Profiler, ProfilerConfig};
    use llmsched_workloads::prelude::*;

    fn profile_and_job(kind: AppKind) -> (crate::profiler::Profiler, JobRt) {
        let templates = all_templates();
        let corpus = training_jobs(&[kind], 300, 77);
        let p = Profiler::train(&templates, &corpus, &ProfilerConfig::default());
        let fresh = kind.generator().generate(
            llmsched_dag::ids::JobId(9999),
            llmsched_dag::time::SimTime::ZERO,
            &mut rand::SeedableRng::seed_from_u64(5),
        );
        (p, JobRt::new(fresh))
    }

    use llmsched_sim::state::JobRt;

    #[test]
    fn fresh_job_estimate_is_near_app_mean() {
        let (p, job) = profile_and_job(AppKind::SequenceSorting);
        let prof = p.profile(AppKind::SequenceSorting.app_id()).unwrap();
        let est = remaining_work(prof, &job, &Evidence::new(), true);
        let total = est.expected(1.0);
        let static_total: f64 = (0..prof.n_stages())
            .map(|s| prof.static_mean(StageId(s as u32)))
            .sum();
        // Prior posterior mean ≈ training mean (same marginals).
        assert!(
            (total - static_total).abs() / static_total < 0.25,
            "prior estimate {total} should be near static mean {static_total}"
        );
        // The default band trims 35% per side, so the mean of a skewed
        // posterior may fall outside it; only the untrimmed support is
        // guaranteed to contain the expectation.
        let full = remaining_work_with(prof, &job, &Evidence::new(), true, 0.0);
        let (lo, hi) = full.interval(1.0);
        assert!(
            lo <= total && total <= hi,
            "mean within full support: {lo} <= {total} <= {hi}"
        );
        let (blo, bhi) = est.interval(1.0);
        assert!(
            blo >= lo - 1e-9 && bhi <= hi + 1e-9,
            "trimmed band nests in full support"
        );
    }

    #[test]
    fn calibration_scales_only_llm_work() {
        let (p, job) = profile_and_job(AppKind::TaskAutomation);
        let prof = p.profile(AppKind::TaskAutomation.app_id()).unwrap();
        let est = remaining_work(prof, &job, &Evidence::new(), true);
        assert!(est.llm_secs > 0.0, "plan stage is LLM work");
        assert!(est.regular_secs > 0.0, "tools are regular work");
        let base = est.expected(1.0);
        let doubled = est.expected(2.0);
        assert!((doubled - base - est.llm_secs).abs() < 1e-9);
    }

    #[test]
    fn static_and_bn_estimates_agree_without_evidence_roughly() {
        let (p, job) = profile_and_job(AppKind::CodeGeneration);
        let prof = p.profile(AppKind::CodeGeneration.app_id()).unwrap();
        let with_bn = remaining_work(prof, &job, &Evidence::new(), true).expected(1.0);
        let without = remaining_work(prof, &job, &Evidence::new(), false).expected(1.0);
        assert!(
            (with_bn - without).abs() / without.max(1e-9) < 0.2,
            "no evidence: {with_bn} vs static {without}"
        );
    }

    #[test]
    fn evidence_shifts_the_estimate() {
        let (p, job) = profile_and_job(AppKind::SequenceSorting);
        let prof = p.profile(AppKind::SequenceSorting.app_id()).unwrap();
        // Pretend the split stage (S0) finished in its slowest bin.
        let slow_bin = prof.discretizers()[0].n_bins() - 1;
        let mut ev = Evidence::new();
        ev.insert(0, slow_bin);
        let slow = remaining_work(prof, &job, &ev, true).expected(1.0);
        let mut ev_fast = Evidence::new();
        ev_fast.insert(0, 0);
        let fast = remaining_work(prof, &job, &ev_fast, true).expected(1.0);
        assert!(
            slow > fast,
            "observing a slow split must raise the remaining estimate: slow={slow}, fast={fast}"
        );
        // The w/o-BN ablation ignores the evidence entirely.
        let s = remaining_work(prof, &job, &ev, false).expected(1.0);
        let f = remaining_work(prof, &job, &ev_fast, false).expected(1.0);
        assert!((s - f).abs() < 1e-9);
    }
}
