//! Carbyne-like altruistic baseline (§II-C, §V).
//!
//! Carbyne (OSDI'16) gives each job its fair share, but jobs *altruistically*
//! yield resources that would not improve their own completion time; the
//! leftover is redistributed to shrink the average JCT. This reproduction
//! keeps the two-phase shape:
//!
//! 1. **fair phase** — every job gets its critical-path stage tasks first
//!    (the tasks whose delay would extend the job), round-robin across
//!    jobs ordered by current service;
//! 2. **leftover phase** — non-critical tasks are appended ordered by the
//!    donating job's remaining work (shortest first), which is where the
//!    altruism pays off.
//!
//! The paper finds Carbyne suboptimal for average JCT on compound LLM
//! workloads because fairness-style allocation ignores the JCT objective —
//! this heuristic preserves that behavior. Substitution documented in
//! `DESIGN.md` §6.

use llmsched_dag::ids::StageId;
use llmsched_dag::time::SimTime;
use llmsched_sim::incr::{DeltaIndex, EstimateCache};
use llmsched_sim::scheduler::{Preference, SchedContext, SchedDelta, Scheduler, TaskRef};
use llmsched_sim::state::JobRt;

use crate::util::{visible_heights, AppPriors, Budget, ReadyTasks};

/// The Carbyne-like altruistic scheduler.
///
/// Incremental by default: the fair-phase (running tasks, arrival) order
/// is a persistent [`DeltaIndex`] repositioned on task dispatch/finish
/// deltas, and the leftover-phase remaining-work estimates come from a
/// delta-refreshed [`EstimateCache`].
#[derive(Debug)]
pub struct CarbyneLike {
    priors: AppPriors,
    rebuild: bool,
    index: DeltaIndex<(usize, SimTime)>,
    estimates: EstimateCache,
}

impl CarbyneLike {
    /// Builds the incremental policy with historical priors.
    pub fn new(priors: AppPriors) -> Self {
        CarbyneLike {
            priors,
            rebuild: false,
            index: DeltaIndex::new(),
            estimates: EstimateCache::new(),
        }
    }

    /// The reference rebuild-per-call variant.
    pub fn rebuild(priors: AppPriors) -> Self {
        CarbyneLike {
            rebuild: true,
            ..Self::new(priors)
        }
    }

    /// Phase 1 on one job: pushes the critical (max-height) ready stage's
    /// tasks and returns the donated leftovers, if any. With a budget,
    /// pushes are class-aware (dispatch-invariant truncation).
    fn fair_phase<'a>(
        p: &mut Preference,
        job: &'a JobRt,
        budget: Option<Budget>,
    ) -> Option<(&'a JobRt, ReadyTasks)> {
        let heights = visible_heights(job);
        let mut ready = job.ready_stage_ids().to_vec();
        if ready.is_empty() {
            return None;
        }
        // Critical stage = max height (ties: lowest id).
        ready.sort_by_key(|s| (std::cmp::Reverse(heights.get(s).copied().unwrap_or(0)), *s));
        let critical = ready[0];
        match budget {
            Some(b) => b.push_stage(p, job, critical),
            None => {
                for t in job.unstarted_tasks(critical) {
                    push_ref(p, job, critical, t);
                }
            }
        }
        // Everything else is donated to the leftover pool.
        let rest: Vec<(StageId, u32)> = ready[1..]
            .iter()
            .flat_map(|&s| job.unstarted_tasks(s).map(move |t| (s, t)))
            .collect();
        (!rest.is_empty()).then_some((job, rest))
    }

    /// Phase 2: redistributes leftovers, shortest-remaining job first.
    fn leftover_phase(
        p: &mut Preference,
        mut leftovers: Vec<(f64, &JobRt, ReadyTasks)>,
        budget: Option<Budget>,
    ) {
        leftovers.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("estimates are finite")
                .then_with(|| (a.1.arrival(), a.1.id()).cmp(&(b.1.arrival(), b.1.id())))
        });
        for (_, job, tasks) in leftovers {
            if budget.is_some_and(|b| b.met(p)) {
                break;
            }
            for (s, t) in tasks {
                match budget {
                    Some(b) => b.push_task(p, job, s, t),
                    None => push_ref(p, job, s, t),
                }
            }
        }
    }
}

fn push_ref(p: &mut Preference, job: &JobRt, stage: StageId, task: u32) {
    let Some(view) = job.stage_view(stage) else {
        return;
    };
    let r = TaskRef {
        job: job.id(),
        stage,
        task,
    };
    match view.kind {
        llmsched_dag::job::StageKind::Llm => p.llm.push(r),
        llmsched_dag::job::StageKind::Regular => p.regular.push(r),
        llmsched_dag::job::StageKind::DynamicPlaceholder => {}
    }
}

impl Scheduler for CarbyneLike {
    fn name(&self) -> &str {
        "Carbyne"
    }

    fn on_delta(&mut self, d: &SchedDelta) {
        if self.rebuild {
            return;
        }
        self.index.on_delta(d);
        self.estimates.on_delta(d);
    }

    fn reset(&mut self) {
        self.index.clear();
        self.estimates.clear();
    }

    // The `!could_dispatch` early-return above every decision makes the
    // policy a provable no-op at capacity-starved points: capacity-aware
    // elision is sound.
    fn is_work_conserving(&self) -> bool {
        true
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Preference {
        if !ctx.could_dispatch {
            // Nothing could start (no ready work, or no free executor of
            // a ready class): decide nothing, touch no state, so an
            // engine that coalesces or elides this call stays
            // bit-identical.
            return Preference::new();
        }
        let mut p = Preference::new();

        // Phase 1: fair share of critical work. For each job (least served
        // first) offer the ready stage with the greatest height — the one
        // whose delay would stretch the job's critical path.
        if self.rebuild {
            let mut jobs: Vec<&JobRt> = ctx.jobs.iter().collect();
            jobs.sort_by_key(|j| (j.running_tasks(), j.arrival(), j.id()));
            let mut leftovers: Vec<(f64, &JobRt, ReadyTasks)> = Vec::new();
            for job in jobs {
                if let Some((job, rest)) = Self::fair_phase(&mut p, job, None) {
                    leftovers.push((self.priors.remaining_estimate(job), job, rest));
                }
            }
            Self::leftover_phase(&mut p, leftovers, None);
        } else {
            self.index
                .refresh(ctx, |j| (j.running_tasks(), j.arrival()));
            let priors = &self.priors;
            self.estimates
                .refresh(ctx, |j| priors.remaining_estimate(j));
            let budget = Budget::of(ctx);
            let mut leftovers: Vec<(f64, &JobRt, ReadyTasks)> = Vec::new();
            // `fair_phase` pushes nothing for a job with no ready stage,
            // so the walk visits ready jobs only.
            for id in self.index.ready_ids() {
                if budget.met(&p) {
                    break;
                }
                let Some(job) = ctx.job(id) else { continue };
                if let Some((job, rest)) = Self::fair_phase(&mut p, job, Some(budget)) {
                    leftovers.push((self.estimates.get(id), job, rest));
                }
            }
            Self::leftover_phase(&mut p, leftovers, Some(budget));
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{assert_same_schedule, run_two_class_workload, two_class_training};
    use llmsched_dag::time::SimDuration;

    #[test]
    fn completes_the_fixture() {
        let priors = AppPriors::from_training(&two_class_training(), SimDuration::from_millis(20));
        let r = run_two_class_workload(&mut CarbyneLike::new(priors));
        assert_eq!(r.incomplete, 0);
        assert_eq!(r.scheduler, "Carbyne");
    }

    #[test]
    fn incremental_matches_rebuild() {
        let priors = AppPriors::from_training(&two_class_training(), SimDuration::from_millis(20));
        assert_same_schedule(
            &mut CarbyneLike::new(priors.clone()),
            &mut CarbyneLike::rebuild(priors),
        );
    }
}
