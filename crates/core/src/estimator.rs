//! Remaining-duration estimation with Bayesian updates and batching-aware
//! calibration (§IV-B, Eq. 2).
//!
//! The estimate behind Algorithm 1's `job.est_rd()`: the posterior mean of
//! every unfinished template stage's duration given the completed stages'
//! evidence, with LLM work scaled by the current batching calibration
//! factor `l(b_t)/l(b_r)`. The same machinery produces the support
//! *interval* used to group jobs into non-overlapping sets (line 5).

use llmsched_bayes::network::Evidence;
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

/// Per-stage posterior bands given `evidence` — the *job-independent*
/// part of the remaining-work estimate. Pure in its arguments: every job
/// of the same application under the same evidence shares this result,
/// which is what lets [`BeliefStore`](crate::belief::BeliefStore) memoize
/// the BN inference across jobs.
///
/// Stages present in `evidence` are completed (their bin is observed) and
/// contribute nothing to *remaining* work: their slot holds a default
/// band that [`remaining_work_from_bands`] never reads, as long as the
/// evidence was extracted from the job being estimated
/// ([`AppProfile::evidence_of`]).
pub fn stage_bands(
    profile: &AppProfile,
    evidence: &Evidence,
    use_bn: bool,
    tail_mass: f64,
) -> Vec<StageBand> {
    let empty = Evidence::new();
    let cond: &Evidence = if use_bn { evidence } else { &empty };
    (0..profile.n_stages())
        .map(|s| {
            if evidence.contains_key(&s) {
                return StageBand::default();
            }
            let disc = &profile.discretizers()[s];
            // With the BN: condition on evidence. Without it (w/o-BN
            // ablation): `cond` is empty, so the marginal is the training
            // prior and the mean falls back to the historical average.
            let p = profile.net().posterior_marginal(s, cond);
            let (lo, hi) = disc.quantile_interval(&p, tail_mass);
            let mean = if use_bn {
                disc.expectation(&p)
            } else {
                profile.static_mean(StageId(s as u32))
            };
            StageBand { mean, lo, hi }
        })
        .collect()
}

/// Reusable posterior state of one `(application, evidence)` pair: the
/// per-stage [`StageBand`]s plus — under the BN — the reduced-CPT factor
/// pool and every stage's posterior marginal.
///
/// Built once per evidence state and shared across jobs by the
/// [`BeliefStore`](crate::belief::BeliefStore): Eq. 6 scoring re-queries
/// the same marginals `stage_bands` already computed and re-reduces the
/// same CPTs for every joint, so caching both here removes the dominant
/// per-evidence inference cost. All cached values are produced by the
/// exact computations the uncached entry points run
/// ([`BayesNet::posterior_marginal_with`](llmsched_bayes::network::BayesNet::posterior_marginal_with)
/// delegation), so cached and uncached paths are bit-identical.
#[derive(Debug)]
pub struct EvidencePosteriors {
    /// Per-stage posterior bands (what [`stage_bands`] returns).
    pub bands: Vec<StageBand>,
    /// BN-path cache; `None` for the w/o-BN ablation (whose bands come
    /// from the evidence-free prior and whose cost profile is untouched).
    pub(crate) cache: Option<PosteriorCache>,
    /// Shared memo of Eq. 6 MI terms, one slot per stage: the term is a
    /// pure function of `(application, evidence)` (see
    /// [`crate::uncertainty`]), so every job under this evidence reuses
    /// one computation. Filled lazily through the shared `Arc`.
    mi: Vec<std::sync::OnceLock<f64>>,
}

/// The shareable inference state behind one evidence map.
#[derive(Debug)]
pub(crate) struct PosteriorCache {
    /// [`BayesNet::reduced_cpts`](llmsched_bayes::network::BayesNet::reduced_cpts)
    /// under this evidence.
    pub(crate) pool: Vec<llmsched_bayes::factor::Factor>,
    /// Posterior marginal of every template stage under this evidence.
    pub(crate) marginals: Vec<Vec<f64>>,
}

impl EvidencePosteriors {
    /// True when the BN cache (pool + marginals) is present.
    pub(crate) fn has_bn_cache(&self) -> bool {
        self.cache.is_some()
    }

    /// The shared MI term of template stage `stage`, computed by
    /// `compute` on first use.
    pub(crate) fn mi_memo(&self, stage: usize, compute: impl FnOnce() -> f64) -> f64 {
        *self.mi[stage].get_or_init(compute)
    }

    /// Builds the posterior state for one evidence map.
    pub fn build(profile: &AppProfile, evidence: &Evidence, use_bn: bool, tail_mass: f64) -> Self {
        if !use_bn {
            return EvidencePosteriors {
                bands: stage_bands(profile, evidence, false, tail_mass),
                cache: None,
                mi: Vec::new(),
            };
        }
        let net = profile.net();
        let pool = net.reduced_cpts(evidence);
        let n = profile.n_stages();
        // One shared-prefix elimination for every stage's marginal,
        // bit-identical to per-stage `posterior_marginal_with` queries.
        let marginals = net.posterior_marginals_with(&pool, evidence);
        let bands = (0..n)
            .map(|s| {
                if evidence.contains_key(&s) {
                    return StageBand::default();
                }
                let disc = &profile.discretizers()[s];
                let p = &marginals[s];
                let (lo, hi) = disc.quantile_interval(p, tail_mass);
                StageBand {
                    mean: disc.expectation(p),
                    lo,
                    hi,
                }
            })
            .collect();
        EvidencePosteriors {
            bands,
            cache: Some(PosteriorCache { pool, marginals }),
            mi: (0..n).map(|_| std::sync::OnceLock::new()).collect(),
        }
    }
}

/// Folds precomputed [`stage_bands`] into one job's remaining-work
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
    // Inline original (not via `stage_bands`, which skips evidence-keyed
    // stages): this entry point accepts arbitrary evidence that need not
    // match the job's completed set — and it is the rebuild reference
    // path, whose cost profile must stay untouched. The per-stage
    // arithmetic is identical to `stage_bands` + `remaining_work_from_bands`.
    let mut est = WorkEstimate::default();
    let empty = Evidence::new();
    let cond: &Evidence = if use_bn { evidence } else { &empty };
    for s in 0..profile.n_stages() {
        let sid = StageId(s as u32);
        if job.completed_nominal_secs(sid).is_some() {
            continue; // stage done: contributes nothing to *remaining* work
        }
        let disc = &profile.discretizers()[s];
        let p = profile.net().posterior_marginal(s, cond);
        let (mut lo, mut hi) = disc.quantile_interval(&p, tail_mass);
        let mut mean = if use_bn {
            disc.expectation(&p)
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
