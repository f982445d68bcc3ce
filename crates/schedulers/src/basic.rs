//! Job-agnostic and duration-based baselines: FCFS, Fair, SJF, SRTF.
//!
//! Every policy here ships two execution paths producing bit-identical
//! schedules:
//!
//! * **incremental** (default) — a persistent [`DeltaIndex`] keeps the
//!   job ordering across invocations; [`Scheduler::on_delta`] marks jobs
//!   whose sort key or ready set may have changed, only those are
//!   re-derived, and a decision walks only the jobs with ready work (a
//!   job with none emits nothing in any policy here);
//! * **rebuild** (via the `::rebuild()` constructors) — the original
//!   sort-everything-per-call behavior, kept as the reference
//!   implementation the equivalence tests and the `scale_throughput`
//!   bench compare against.

use llmsched_dag::time::SimTime;
use llmsched_sim::incr::{DeltaIndex, FiniteF64};
use llmsched_sim::scheduler::{Preference, SchedContext, SchedDelta, Scheduler};
use llmsched_sim::state::JobRt;

use crate::util::{AppPriors, Budget, ReadyTasks};

/// Pushes every ready task of `job` in ascending stage order.
fn push_all_ready(p: &mut Preference, job: &JobRt) {
    for &s in job.ready_stage_ids() {
        p.push_stage_tasks(job, s);
    }
}

/// **First Come First Serve** — jobs in arrival order (Spark's default
/// scheme; job-agnostic).
#[derive(Debug, Default)]
pub struct Fcfs {
    rebuild: bool,
    index: DeltaIndex<SimTime>,
}

impl Fcfs {
    /// The incremental FCFS scheduler (same as `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// The reference rebuild-per-call variant.
    pub fn rebuild() -> Self {
        Fcfs {
            rebuild: true,
            ..Self::default()
        }
    }
}

impl Scheduler for Fcfs {
    fn name(&self) -> &str {
        "FCFS"
    }

    fn on_delta(&mut self, d: &SchedDelta) {
        if !self.rebuild {
            self.index.on_delta(d);
        }
    }

    fn reset(&mut self) {
        self.index.clear();
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
        if self.rebuild {
            let mut jobs: Vec<&JobRt> = ctx.jobs.iter().collect();
            jobs.sort_by_key(|j| (j.arrival(), j.id()));
            for job in jobs {
                push_all_ready(&mut p, job);
            }
        } else {
            self.index.refresh(ctx, |j| j.arrival());
            let budget = Budget::of(ctx);
            for id in self.index.ready_ids() {
                if budget.met(&p) {
                    break;
                }
                if let Some(job) = ctx.job(id) {
                    budget.push_all_ready(&mut p, job);
                }
            }
        }
        p
    }
}

/// **Fair Scheduling** — equalizes the number of concurrently running
/// tasks across jobs (Spark's fair scheduler): tasks are offered
/// round-robin, least-served job first.
#[derive(Debug, Default)]
pub struct Fair {
    rebuild: bool,
    /// Ordered by (running tasks, arrival): repositioned on task
    /// dispatch/finish deltas.
    index: DeltaIndex<(usize, SimTime)>,
}

impl Fair {
    /// The incremental Fair scheduler (same as `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// The reference rebuild-per-call variant.
    pub fn rebuild() -> Self {
        Fair {
            rebuild: true,
            ..Self::default()
        }
    }

    /// Round-robin task interleaving over per-job ready queues, offered in
    /// the given (least-served-first) job order. With a budget, emission
    /// is class-aware and stops once the free capacity is covered
    /// (dispatch-invariant: skipped entries could never start).
    fn round_robin(p: &mut Preference, queues: &[(&JobRt, ReadyTasks)], budget: Option<Budget>) {
        let mut cursors = vec![0usize; queues.len()];
        let mut progressed = true;
        while progressed {
            progressed = false;
            for (qi, (job, tasks)) in queues.iter().enumerate() {
                if let Some(&(stage, task)) = tasks.get(cursors[qi]) {
                    cursors[qi] += 1;
                    progressed = true;
                    match budget {
                        Some(b) => {
                            if b.met(p) {
                                return;
                            }
                            b.push_task(p, job, stage, task);
                        }
                        None => {
                            let view = job.stage_view(stage).expect("ready stage is visible");
                            let r = llmsched_sim::scheduler::TaskRef {
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
                    }
                }
            }
        }
    }

    fn ready_queue(job: &JobRt) -> ReadyTasks {
        job.ready_stage_ids()
            .iter()
            .flat_map(|&s| job.unstarted_tasks(s).map(move |t| (s, t)))
            .collect()
    }
}

impl Scheduler for Fair {
    fn name(&self) -> &str {
        "Fair"
    }

    fn on_delta(&mut self, d: &SchedDelta) {
        if !self.rebuild {
            self.index.on_delta(d);
        }
    }

    fn reset(&mut self) {
        self.index.clear();
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
        if self.rebuild {
            let mut queues: Vec<(usize, &JobRt, ReadyTasks)> = ctx
                .jobs
                .iter()
                .map(|j| (j.running_tasks(), j, Self::ready_queue(j)))
                .collect();
            queues.sort_by_key(|(running, j, _)| (*running, j.arrival(), j.id()));
            let flat: Vec<(&JobRt, ReadyTasks)> =
                queues.into_iter().map(|(_, j, tasks)| (j, tasks)).collect();
            Self::round_robin(&mut p, &flat, None);
        } else {
            self.index
                .refresh(ctx, |j| (j.running_tasks(), j.arrival()));
            // A non-ready job's queue is empty and never emits or moves
            // the budget check: only ready jobs need a queue.
            let queues: Vec<(&JobRt, ReadyTasks)> = self
                .index
                .ready_ids()
                .filter_map(|id| ctx.job(id))
                .map(|j| (j, Self::ready_queue(j)))
                .collect();
            Self::round_robin(&mut p, &queues, Some(Budget::of(ctx)));
        }
        p
    }
}

/// **Shortest Job First** — prioritizes the job with the shortest
/// *historical mean* duration for its application (§II-C). Static: it never
/// updates with runtime observations, which is exactly the weakness the
/// motivating example (Fig. 2) exposes.
#[derive(Debug)]
pub struct Sjf {
    priors: AppPriors,
    rebuild: bool,
    /// Ordered by (historical app mean, arrival): keys are static, so the
    /// index only tracks membership.
    index: DeltaIndex<(FiniteF64, SimTime)>,
}

impl Sjf {
    /// Builds incremental SJF with historical priors.
    pub fn new(priors: AppPriors) -> Self {
        Sjf {
            priors,
            rebuild: false,
            index: DeltaIndex::new(),
        }
    }

    /// The reference rebuild-per-call variant.
    pub fn rebuild(priors: AppPriors) -> Self {
        Sjf {
            rebuild: true,
            ..Self::new(priors)
        }
    }
}

impl Scheduler for Sjf {
    fn name(&self) -> &str {
        "SJF"
    }

    fn on_delta(&mut self, d: &SchedDelta) {
        if !self.rebuild {
            self.index.on_delta(d);
        }
    }

    fn reset(&mut self) {
        self.index.clear();
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
        if self.rebuild {
            let mut jobs: Vec<&JobRt> = ctx.jobs.iter().collect();
            jobs.sort_by(|a, b| {
                self.priors
                    .job_mean(a.app())
                    .partial_cmp(&self.priors.job_mean(b.app()))
                    .expect("means are finite")
                    .then_with(|| (a.arrival(), a.id()).cmp(&(b.arrival(), b.id())))
            });
            for job in jobs {
                push_all_ready(&mut p, job);
            }
        } else {
            let priors = &self.priors;
            self.index
                .refresh(ctx, |j| (FiniteF64(priors.job_mean(j.app())), j.arrival()));
            let budget = Budget::of(ctx);
            for id in self.index.ready_ids() {
                if budget.met(&p) {
                    break;
                }
                if let Some(job) = ctx.job(id) {
                    budget.push_all_ready(&mut p, job);
                }
            }
        }
        p
    }
}

/// **Shortest Remaining Time First** — like SJF but subtracts completed
/// stages from the static estimate. This is the JCT-efficient scheme inside
/// Algorithm 1 when stripped of both the BN and the uncertainty strategy.
#[derive(Debug)]
pub struct Srtf {
    priors: AppPriors,
    rebuild: bool,
    /// Ordered by (remaining estimate, arrival): repositioned when a stage
    /// of the job completes — the only event that can move the estimate.
    index: DeltaIndex<(FiniteF64, SimTime)>,
}

impl Srtf {
    /// Builds incremental SRTF with historical priors.
    pub fn new(priors: AppPriors) -> Self {
        Srtf {
            priors,
            rebuild: false,
            index: DeltaIndex::new(),
        }
    }

    /// The reference rebuild-per-call variant.
    pub fn rebuild(priors: AppPriors) -> Self {
        Srtf {
            rebuild: true,
            ..Self::new(priors)
        }
    }
}

impl Scheduler for Srtf {
    fn name(&self) -> &str {
        "SRTF"
    }

    fn on_delta(&mut self, d: &SchedDelta) {
        if !self.rebuild {
            self.index.on_delta(d);
        }
    }

    fn reset(&mut self) {
        self.index.clear();
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
        if self.rebuild {
            let mut jobs: Vec<(f64, &JobRt)> = ctx
                .jobs
                .iter()
                .map(|j| (self.priors.remaining_estimate(j), j))
                .collect();
            jobs.sort_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .expect("estimates are finite")
                    .then_with(|| (a.1.arrival(), a.1.id()).cmp(&(b.1.arrival(), b.1.id())))
            });
            for (_, job) in jobs {
                push_all_ready(&mut p, job);
            }
        } else {
            let priors = &self.priors;
            self.index.refresh(ctx, |j| {
                (FiniteF64(priors.remaining_estimate(j)), j.arrival())
            });
            let budget = Budget::of(ctx);
            for id in self.index.ready_ids() {
                if budget.met(&p) {
                    break;
                }
                if let Some(job) = ctx.job(id) {
                    budget.push_all_ready(&mut p, job);
                }
            }
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
    fn sjf_beats_fcfs_on_bimodal_jobs() {
        // Long jobs arrive first; SJF should leapfrog the short ones.
        let priors = AppPriors::from_training(&two_class_training(), SimDuration::from_millis(20));
        let fcfs = run_two_class_workload(&mut Fcfs::new());
        let sjf = run_two_class_workload(&mut Sjf::new(priors));
        assert_eq!(fcfs.incomplete, 0);
        assert_eq!(sjf.incomplete, 0);
        assert!(
            sjf.avg_jct_secs() < fcfs.avg_jct_secs() * 0.95,
            "SJF {:.2}s should beat FCFS {:.2}s",
            sjf.avg_jct_secs(),
            fcfs.avg_jct_secs()
        );
    }

    #[test]
    fn srtf_matches_or_beats_sjf() {
        let priors = AppPriors::from_training(&two_class_training(), SimDuration::from_millis(20));
        let sjf = run_two_class_workload(&mut Sjf::new(priors.clone()));
        let srtf = run_two_class_workload(&mut Srtf::new(priors));
        assert!(srtf.avg_jct_secs() <= sjf.avg_jct_secs() * 1.05);
    }

    #[test]
    fn fair_completes_everything() {
        let r = run_two_class_workload(&mut Fair::new());
        assert_eq!(r.incomplete, 0);
    }

    #[test]
    fn incremental_paths_match_rebuild_paths() {
        let priors = AppPriors::from_training(&two_class_training(), SimDuration::from_millis(20));
        assert_same_schedule(&mut Fcfs::new(), &mut Fcfs::rebuild());
        assert_same_schedule(&mut Fair::new(), &mut Fair::rebuild());
        assert_same_schedule(
            &mut Sjf::new(priors.clone()),
            &mut Sjf::rebuild(priors.clone()),
        );
        assert_same_schedule(&mut Srtf::new(priors.clone()), &mut Srtf::rebuild(priors));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Fcfs::new().name(), "FCFS");
        assert_eq!(Fair::new().name(), "Fair");
    }
}
