//! Shared helpers for baseline schedulers: historical priors and
//! topology features.
//!
//! The paper grants every baseline "the average duration and resource
//! requirements for each application on its dataset" plus the DAG structure
//! from the LLM DAG model (§V, *Baselines*). [`AppPriors`] is exactly that
//! prior knowledge, computed from a training corpus of historical jobs.

use std::collections::HashMap;

use llmsched_dag::ids::{AppId, StageId};
use llmsched_dag::job::{JobSpec, StageKind};
use llmsched_dag::time::SimDuration;
use llmsched_sim::scheduler::{Preference, SchedContext};
use llmsched_sim::state::JobRt;

/// A job's schedulable tasks as `(stage, task index)` pairs — the queue
/// shape the round-robin baselines carry per job.
pub(crate) type ReadyTasks = Vec<(StageId, u32)>;

/// The unstarted tasks of `stages` of `job`, stage by stage.
pub(crate) fn ready_tasks(job: &JobRt, stages: &[StageId]) -> ReadyTasks {
    stages
        .iter()
        .flat_map(|&s| job.unstarted_tasks(s).map(move |t| (s, t)))
        .collect()
}

/// Free-capacity budgets for *dispatch-invariant bounded emission* — the
/// one emission path of every baseline that orders more than one stage.
///
/// The engine starts at most `regular_free()` regular tasks and
/// `llm_free_slots()` LLM tasks from the front of each preference list,
/// and every entry an incremental policy emits is startable at dispatch
/// time — so once a class's list covers its budget, further entries for
/// that class can never start and may be skipped without changing the
/// schedule. The rebuild reference paths emit through
/// [`Budget::UNBOUNDED`], which never skips, and the equivalence tests pin
/// the bounded incremental paths against them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Budget {
    reg: usize,
    llm: usize,
}

impl Budget {
    /// No limit on either class: emits every task offered.
    pub const UNBOUNDED: Budget = Budget {
        reg: usize::MAX,
        llm: usize::MAX,
    };

    /// The current invocation's free capacity.
    pub fn of(ctx: &SchedContext<'_>) -> Budget {
        Budget {
            reg: ctx.regular_free(),
            llm: ctx.llm_free_slots(),
        }
    }

    /// True once both lists cover their budgets — emission may stop.
    pub fn met(&self, p: &Preference) -> bool {
        p.regular.len() >= self.reg && p.llm.len() >= self.llm
    }

    /// True if the list `stage`'s tasks go to still has room.
    fn wants(&self, p: &Preference, job: &JobRt, stage: StageId) -> bool {
        match job.visible_kind(stage) {
            Some(StageKind::Regular) => p.regular.len() < self.reg,
            Some(StageKind::Llm) => p.llm.len() < self.llm,
            Some(StageKind::DynamicPlaceholder) | None => false,
        }
    }

    /// Pushes all unstarted tasks of `stage` unless its class budget is
    /// already covered.
    pub fn push_stage(&self, p: &mut Preference, job: &JobRt, stage: StageId) {
        if self.wants(p, job, stage) {
            p.push_stage_tasks(job, stage);
        }
    }

    /// Pushes every ready stage of `job`, class-budget-aware.
    pub fn push_all_ready(&self, p: &mut Preference, job: &JobRt) {
        for &s in job.ready_stage_ids() {
            self.push_stage(p, job, s);
        }
    }

    /// Pushes one task reference if its class budget still has room.
    pub fn push_task(&self, p: &mut Preference, job: &JobRt, stage: StageId, task: u32) {
        if self.wants(p, job, stage) {
            p.push_task(job, stage, task);
        }
    }
}

/// Historical per-application statistics (static prior knowledge).
#[derive(Debug, Clone, Default)]
pub struct AppPriors {
    job_mean: HashMap<AppId, f64>,
    stage_mean: HashMap<(AppId, u32), f64>,
}

impl AppPriors {
    /// Computes priors from a training corpus. `per_token_b1` is the
    /// batch-1 decode latency used to price LLM work (the profiling batch
    /// size of §III-A).
    pub fn from_training(jobs: &[JobSpec], per_token_b1: SimDuration) -> Self {
        let mut job_sum: HashMap<AppId, (f64, usize)> = HashMap::new();
        let mut stage_sum: HashMap<(AppId, u32), (f64, usize)> = HashMap::new();
        for j in jobs {
            let e = job_sum.entry(j.app()).or_insert((0.0, 0));
            e.0 += j.total_nominal_duration(per_token_b1).as_secs_f64();
            e.1 += 1;
            for (s, d) in j
                .template_stage_durations_secs(per_token_b1)
                .iter()
                .enumerate()
            {
                let e = stage_sum.entry((j.app(), s as u32)).or_insert((0.0, 0));
                e.0 += d;
                e.1 += 1;
            }
        }
        AppPriors {
            job_mean: job_sum
                .into_iter()
                .map(|(k, (s, n))| (k, s / n as f64))
                .collect(),
            stage_mean: stage_sum
                .into_iter()
                .map(|(k, (s, n))| (k, s / n as f64))
                .collect(),
        }
    }

    /// Historical mean total duration of the application (SJF's key).
    pub fn job_mean(&self, app: AppId) -> f64 {
        self.job_mean.get(&app).copied().unwrap_or(0.0)
    }

    /// Historical mean duration of one template stage (0 for unknown
    /// stages — conservative for never-seen applications).
    pub fn stage_mean(&self, app: AppId, stage: StageId) -> f64 {
        self.stage_mean.get(&(app, stage.0)).copied().unwrap_or(0.0)
    }

    /// Static estimate of a job's *remaining* work: the historical mean of
    /// every incomplete template stage, with dynamic placeholders credited
    /// for generated stages that already completed. This is the "average
    /// historical job duration" estimator of the paper's *LLMSched w/o BN*
    /// ablation and the SRTF baseline.
    pub fn remaining_estimate(&self, job: &JobRt) -> f64 {
        let app = job.app();
        let mut total = 0.0;
        for s in 0..job.template_len() as u32 {
            let sid = StageId(s);
            let Some(view) = job.stage_view(sid) else {
                continue;
            };
            if view.done {
                continue;
            }
            let mut remaining = self.stage_mean(app, sid);
            if view.kind == StageKind::DynamicPlaceholder {
                // Subtract completed generated work under this placeholder.
                for &g in job.visible_stage_ids() {
                    if let Some(gv) = job.stage_view(g) {
                        if gv.parent_dynamic == Some(sid) {
                            if let Some(done) = gv.completed_nominal_secs {
                                remaining -= done;
                            }
                        }
                    }
                }
            }
            total += remaining.max(0.0);
        }
        total
    }
}

/// Longest-path height (in stages) of each *visible* stage of a job,
/// measured to the sinks — Argus's depth feature.
pub fn visible_heights(job: &JobRt) -> HashMap<StageId, usize> {
    let ids = job.visible_stage_ids();
    // Visible ids ascend, and edges always point from lower to higher stage
    // ids in this model (template topological order; generated stages are
    // appended), so a reverse sweep is a valid topological pass.
    let mut height: HashMap<StageId, usize> = ids.iter().map(|&s| (s, 0)).collect();
    for &s in ids.iter().rev() {
        let h = job
            .visible_succs(s)
            .filter_map(|t| height.get(&t).map(|&ht| ht + 1))
            .max()
            .unwrap_or(0);
        height.insert(s, h);
    }
    height
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsched_dag::prelude::*;
    use llmsched_sim::state::JobRt;

    fn per_token() -> SimDuration {
        SimDuration::from_millis(20)
    }

    fn toy_template() -> Template {
        let mut b = TemplateBuilder::new(AppId(0), "toy");
        let a = b.llm("a");
        let c = b.regular("b");
        b.edge(a, c);
        b.build().unwrap()
    }

    fn toy_job(id: u64, llm_tokens: u32, reg_secs: f64) -> JobSpec {
        let t = toy_template();
        JobSpec::new(
            JobId(id),
            &t,
            SimTime::ZERO,
            vec![
                StageSpec::executing(
                    "a",
                    StageKind::Llm,
                    vec![TaskWork::Llm {
                        prompt_tokens: 0,
                        output_tokens: llm_tokens,
                    }],
                ),
                StageSpec::executing(
                    "b",
                    StageKind::Regular,
                    vec![TaskWork::Regular {
                        duration: SimDuration::from_secs_f64(reg_secs),
                    }],
                ),
            ],
            vec![],
        )
        .unwrap()
    }

    #[test]
    fn priors_average_training_jobs() {
        // Jobs of 1s+1s and 3s+3s -> mean job 4s, stage means 2s each.
        let jobs = vec![toy_job(0, 50, 1.0), toy_job(1, 150, 3.0)];
        let p = AppPriors::from_training(&jobs, per_token());
        assert!((p.job_mean(AppId(0)) - 4.0).abs() < 1e-9);
        assert!((p.stage_mean(AppId(0), StageId(0)) - 2.0).abs() < 1e-9);
        assert!((p.stage_mean(AppId(0), StageId(1)) - 2.0).abs() < 1e-9);
        assert_eq!(p.job_mean(AppId(9)), 0.0);
    }

    #[test]
    fn remaining_estimate_counts_unfinished_stages() {
        let jobs = vec![toy_job(0, 50, 1.0), toy_job(1, 150, 3.0)];
        let p = AppPriors::from_training(&jobs, per_token());
        let rt = JobRt::new(toy_job(2, 100, 2.0));
        // Nothing done yet: estimate = 2 + 2.
        assert!((p.remaining_estimate(&rt) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn heights_decrease_along_the_chain() {
        let rt = JobRt::new(toy_job(0, 10, 1.0));
        let h = visible_heights(&rt);
        assert_eq!(h[&StageId(0)], 1);
        assert_eq!(h[&StageId(1)], 0);
    }
}
