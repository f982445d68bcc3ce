//! Entropy-based uncertainty quantification (§IV-C, Eqs. 3–6).
//!
//! The *uncertainty reduction* of scheduling a stage X is
//!
//! ```text
//! R(X) = I(Y₁…Y_M ; X | E) × Σₘ Range(Yₘ)          (Eq. 6)
//! ```
//!
//! where Y₁…Y_M are the unscheduled stages correlated with X (BN
//! descendants, Eq. 1) and E is the evidence of completed stages. When X
//! is the LLM stage preceding an unexpanded dynamic placeholder, the
//! placeholder's structural entropy (Eq. 4) times its duration range is
//! credited to X on top.
//!
//! Exact joint mutual information is exponential in M, so the joint is
//! capped at [`MAX_JOINT`] correlated stages, keeping the widest-range ones
//! (see `DESIGN.md` §3.5).

use std::borrow::Cow;

use llmsched_bayes::info::mutual_information;
use llmsched_bayes::network::Evidence;
use llmsched_dag::ids::StageId;
use llmsched_sim::state::JobRt;

use crate::profiler::AppProfile;

/// Cap on the correlated stages `M` in Eq. 6's exact joint
/// `I(Y₁…Y_M; X | E)`, computed by variable elimination; the widest
/// posterior ranges are kept.
pub const MAX_JOINT: usize = 3;

/// The uncertainty reduction `R(X)` of scheduling template stage `stage`
/// of `job` (Eq. 6), in bits × seconds.
///
/// Returns 0 for stages with no correlated descendants and no pending
/// dynamic expansion — scheduling them reveals nothing.
pub fn uncertainty_reduction(
    profile: &AppProfile,
    job: &JobRt,
    stage: StageId,
    evidence: &Evidence,
) -> f64 {
    reduction_impl(
        profile,
        job,
        stage,
        |y| Cow::Owned(profile.net().posterior_marginal(y, evidence)),
        |t, x| {
            let ys: Vec<usize> = t.iter().copied().filter(|&y| y != x).collect();
            mutual_information(&profile.net().posterior_joint(t, evidence), x, &ys)
        },
        |x| evidence.contains_key(&x),
    )
}

/// The Eq. 6 composition shared by the entry points: the
/// evidence-determined mutual-information term followed by the
/// job-specific dynamic-expansion bonus, accumulated in the original
/// order.
fn reduction_impl<'a>(
    profile: &AppProfile,
    job: &JobRt,
    stage: StageId,
    marginal: impl Fn(usize) -> Cow<'a, [f64]>,
    mutual_info: impl FnMut(&[usize], usize) -> f64,
    observed: impl Fn(usize) -> bool,
) -> f64 {
    let x = stage.index();
    if x >= profile.n_stages() || observed(x) {
        return 0.0;
    }
    let mi = mi_part_impl(profile, job, stage, marginal, mutual_info, observed);
    add_dynamic_bonus(profile, job, stage, mi)
}

/// Cached variant of the MI term (see [`reduction_impl`]): marginals
/// come from `ep`, which must carry a BN cache built from `evidence`, and
/// each mutual information from the observed set's cached plans in
/// `plans`.
///
/// # Panics
/// Panics if `ep` has no BN cache (the caller routes the w/o-BN ablation
/// through the uncached path).
pub(crate) fn mi_part_cached(
    profile: &AppProfile,
    job: &JobRt,
    stage: StageId,
    evidence: &Evidence,
    ep: &crate::estimator::EvidencePosteriors,
    plans: &mut crate::estimator::PosteriorPlans,
) -> f64 {
    mi_part_impl(
        profile,
        job,
        stage,
        |y| Cow::Borrowed(ep.marginal(profile, y)),
        |t, x| plans.mutual_information(profile.net(), evidence, t, x),
        |x| evidence.contains_key(&x),
    )
}

/// The evidence-determined part of Eq. 6: `I(Y…; X | E) × Σ Range(Y)`.
///
/// A pure function of `(application, evidence)` for any job whose
/// completed-stage set matches the evidence keys (the belief-store
/// invariant): `correlated_unfinished` filters by exactly that set. This
/// is what lets the per-evidence cache share the MI term across jobs.
fn mi_part_impl<'a>(
    profile: &AppProfile,
    job: &JobRt,
    stage: StageId,
    marginal: impl Fn(usize) -> Cow<'a, [f64]>,
    mut mutual_info: impl FnMut(&[usize], usize) -> f64,
    observed: impl Fn(usize) -> bool,
) -> f64 {
    let x = stage.index();
    if x >= profile.n_stages() || observed(x) {
        return 0.0;
    }

    // Correlated, still-unscheduled stages with their posterior ranges.
    let mut correlated: Vec<(usize, f64)> = profile
        .correlated_unfinished(job, stage)
        .into_iter()
        .map(|y| {
            let p = marginal(y.index());
            let (lo, hi) = profile.discretizers()[y.index()].support_interval(&p);
            (y.index(), hi - lo)
        })
        .filter(|&(_, r)| r > 0.0)
        .collect();

    let mut reduction = 0.0;
    if !correlated.is_empty() {
        let range_sum: f64 = correlated.iter().map(|&(_, r)| r).sum();
        // Keep the widest-range stages if we must truncate.
        correlated.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite ranges")
                .then(a.0.cmp(&b.0))
        });
        correlated.truncate(MAX_JOINT);
        let mut targets: Vec<usize> = correlated.iter().map(|&(y, _)| y).collect();
        targets.push(x);
        targets.sort_unstable();
        targets.dedup();
        reduction += mutual_info(&targets, x) * range_sum;
    }
    reduction
}

/// Adds the job-specific dynamic-expansion bonus of Eq. 6 onto `start`,
/// preserving the original accumulation order: completing the preceding
/// LLM stage resolves the placeholder's structure entirely (§IV-C).
pub(crate) fn add_dynamic_bonus(
    profile: &AppProfile,
    job: &JobRt,
    stage: StageId,
    start: f64,
) -> f64 {
    let mut reduction = start;
    if stage.index() >= profile.n_stages() {
        return reduction;
    }
    for (placeholder, preceding) in profile.dynamic_placeholders() {
        if preceding != stage {
            continue;
        }
        // Only while the placeholder is still unexpanded (no generated
        // children visible yet) and unfinished.
        if job.completed_nominal_secs(placeholder).is_some() {
            continue;
        }
        let expanded = job
            .visible_stage_ids()
            .iter()
            .filter_map(|&g| job.stage_view(g))
            .any(|v| v.parent_dynamic == Some(placeholder));
        if expanded {
            continue;
        }
        if let Some(stats) = profile.dynamic_stats(placeholder) {
            let range = profile.discretizers()[placeholder.index()].range();
            reduction += stats.structural_entropy() * range;
        }
    }
    reduction
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{Profiler, ProfilerConfig};
    use llmsched_sim::state::JobRt;
    use llmsched_workloads::prelude::*;
    use rand::SeedableRng;

    fn setup(kind: AppKind) -> (Profiler, JobRt) {
        let templates = all_templates();
        let corpus = training_jobs(&[kind], 300, 13);
        let p = Profiler::train(&templates, &corpus, &ProfilerConfig::default());
        let job = kind.generator().generate(
            llmsched_dag::ids::JobId(5000),
            llmsched_dag::time::SimTime::ZERO,
            &mut rand::rngs::StdRng::seed_from_u64(8),
        );
        (p, JobRt::new(job))
    }

    #[test]
    fn plan_stage_has_dominant_uncertainty_reduction() {
        // Task automation: the plan stage resolves the whole dynamic stage
        // (the Fig. 2 motivation). Its R must dwarf anything else.
        let (p, job) = setup(AppKind::TaskAutomation);
        let prof = p.profile(AppKind::TaskAutomation.app_id()).unwrap();
        let ev = Evidence::new();
        let r_plan = uncertainty_reduction(prof, &job, StageId(0), &ev);
        assert!(
            r_plan > 0.0,
            "plan stage must reduce uncertainty, got {r_plan}"
        );
    }

    #[test]
    fn correlated_sorting_stage_reduces_uncertainty() {
        let (p, job) = setup(AppKind::SequenceSorting);
        let prof = p.profile(AppKind::SequenceSorting.app_id()).unwrap();
        let ev = Evidence::new();
        // The split stage is upstream of everything in the learned BN.
        let r0 = uncertainty_reduction(prof, &job, StageId(0), &ev);
        assert!(r0 > 0.0, "upstream stage should reduce uncertainty");
        // A sink stage (final score) correlates with nothing downstream.
        let r_last = uncertainty_reduction(prof, &job, StageId(10), &ev);
        assert!(
            r_last <= r0,
            "sink reduction {r_last} must not exceed source {r0}"
        );
    }

    #[test]
    fn observed_stage_reduces_nothing() {
        let (p, job) = setup(AppKind::SequenceSorting);
        let prof = p.profile(AppKind::SequenceSorting.app_id()).unwrap();
        let mut ev = Evidence::new();
        ev.insert(0, 0);
        let r = uncertainty_reduction(prof, &job, StageId(0), &ev);
        assert_eq!(r, 0.0);
    }

    #[test]
    fn capped_joint_is_finite_and_non_negative() {
        let (p, job) = setup(AppKind::SequenceSorting);
        let prof = p.profile(AppKind::SequenceSorting.app_id()).unwrap();
        let ev = Evidence::new();
        for s in 0..prof.n_stages() as u32 {
            let r = uncertainty_reduction(prof, &job, StageId(s), &ev);
            assert!(r.is_finite() && r >= 0.0);
        }
    }

    #[test]
    fn evidence_shrinks_future_uncertainty() {
        let (p, job) = setup(AppKind::SequenceSorting);
        let prof = p.profile(AppKind::SequenceSorting.app_id()).unwrap();
        // After observing most ancestors, a mid-stage's reduction should
        // not grow.
        let ev = Evidence::new();
        let before = uncertainty_reduction(prof, &job, StageId(3), &ev);
        let mut ev2 = Evidence::new();
        ev2.insert(0, 1);
        let after = uncertainty_reduction(prof, &job, StageId(3), &ev2);
        assert!(after.is_finite() && before.is_finite());
    }
}
