//! Job-agnostic and duration-based baselines: FCFS, SJF and SRTF — one
//! key-ordered policy, [`Ordered`] — and Fair.
//!
//! FCFS, SJF and SRTF differ only in how they rank jobs: each is
//! [`Ordered`] over a [`JobOrder`] key ([`Arrival`], [`HistoricalMean`],
//! [`RemainingEstimate`]), serving every ready task of the jobs in
//! ascending `(key, JobId)` order. Every policy here ships two execution
//! paths producing bit-identical schedules:
//!
//! * **incremental** (default) — a persistent [`DeltaIndex`] keeps the
//!   job ordering across invocations; [`Scheduler::on_delta`] marks jobs
//!   whose sort key or ready set may have changed, only those are
//!   re-derived, and a decision walks only the jobs with ready work (a
//!   job with none emits nothing in any policy here), emitting until the
//!   free capacity is covered;
//! * **rebuild** (via the `::rebuild()` constructors) — the original
//!   sort-everything-per-call behavior, emitting through
//!   `Budget::UNBOUNDED`, kept as the reference implementation the
//!   equivalence tests and the `scale_throughput` bench compare against.

use llmsched_dag::time::SimTime;
use llmsched_sim::incr::{DeltaIndex, FiniteF64};
use llmsched_sim::scheduler::{Preference, SchedContext, SchedDelta, Scheduler};
use llmsched_sim::state::JobRt;

use crate::util::{ready_tasks, AppPriors, Budget, ReadyTasks};

/// A job ranking: the one thing that tells FCFS, SJF and SRTF apart.
pub trait JobOrder {
    /// The sort key; ties are broken by `JobId`.
    type Key: Ord + Copy + std::fmt::Debug;
    /// The policy's report name.
    const NAME: &'static str;
    /// `job`'s key at the current decision point. The incremental path
    /// re-derives it only on the deltas [`DeltaIndex::on_delta`] marks.
    fn key(&self, job: &JobRt) -> Self::Key;
}

/// Arrival order — FCFS's key (job-agnostic).
#[derive(Debug, Clone, Copy, Default)]
pub struct Arrival;

impl JobOrder for Arrival {
    type Key = SimTime;
    const NAME: &'static str = "FCFS";
    fn key(&self, job: &JobRt) -> SimTime {
        job.arrival()
    }
}

/// The historical mean duration of the job's application, then arrival —
/// SJF's key. Static: it never moves with runtime observations.
#[derive(Debug, Clone)]
pub struct HistoricalMean(pub AppPriors);

impl JobOrder for HistoricalMean {
    type Key = (FiniteF64, SimTime);
    const NAME: &'static str = "SJF";
    fn key(&self, job: &JobRt) -> Self::Key {
        (FiniteF64(self.0.job_mean(job.app())), job.arrival())
    }
}

/// The static remaining-work estimate
/// ([`AppPriors::remaining_estimate`]), then arrival — SRTF's key. It
/// moves only when a stage of the job completes.
#[derive(Debug, Clone)]
pub struct RemainingEstimate(pub AppPriors);

impl JobOrder for RemainingEstimate {
    type Key = (FiniteF64, SimTime);
    const NAME: &'static str = "SRTF";
    fn key(&self, job: &JobRt) -> Self::Key {
        (FiniteF64(self.0.remaining_estimate(job)), job.arrival())
    }
}

/// Serves every ready task of the active jobs in ascending
/// `(O::key, JobId)` order.
#[derive(Debug, Default)]
pub struct Ordered<O: JobOrder> {
    order: O,
    rebuild: bool,
    index: DeltaIndex<O::Key>,
}

impl<O: JobOrder> Ordered<O> {
    fn with(order: O, rebuild: bool) -> Self {
        Ordered {
            order,
            rebuild,
            index: DeltaIndex::new(),
        }
    }
}

/// **First Come First Serve** — jobs in arrival order (Spark's default
/// scheme; job-agnostic).
pub type Fcfs = Ordered<Arrival>;

impl Fcfs {
    /// The incremental FCFS scheduler (same as `Default`).
    pub fn new() -> Self {
        Self::with(Arrival, false)
    }

    /// The reference rebuild-per-call variant.
    pub fn rebuild() -> Self {
        Self::with(Arrival, true)
    }
}

/// **Shortest Job First** — prioritizes the job with the shortest
/// *historical mean* duration for its application (§II-C). Static: it never
/// updates with runtime observations, which is exactly the weakness the
/// motivating example (Fig. 2) exposes.
pub type Sjf = Ordered<HistoricalMean>;

impl Sjf {
    /// Builds incremental SJF with historical priors.
    pub fn new(priors: AppPriors) -> Self {
        Self::with(HistoricalMean(priors), false)
    }

    /// The reference rebuild-per-call variant.
    pub fn rebuild(priors: AppPriors) -> Self {
        Self::with(HistoricalMean(priors), true)
    }
}

/// **Shortest Remaining Time First** — like SJF but subtracts completed
/// stages from the static estimate. This is the JCT-efficient scheme inside
/// Algorithm 1 when stripped of both the BN and the uncertainty strategy.
pub type Srtf = Ordered<RemainingEstimate>;

impl Srtf {
    /// Builds incremental SRTF with historical priors.
    pub fn new(priors: AppPriors) -> Self {
        Self::with(RemainingEstimate(priors), false)
    }

    /// The reference rebuild-per-call variant.
    pub fn rebuild(priors: AppPriors) -> Self {
        Self::with(RemainingEstimate(priors), true)
    }
}

/// Pushes every ready task of `jobs`, in order, until `budget` is met.
fn emit_in_order<'a>(budget: Budget, jobs: impl Iterator<Item = &'a JobRt>) -> Preference {
    let mut p = Preference::new();
    for job in jobs {
        if budget.met(&p) {
            break;
        }
        budget.push_all_ready(&mut p, job);
    }
    p
}

impl<O: JobOrder> Scheduler for Ordered<O> {
    fn name(&self) -> &str {
        O::NAME
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
            // Nothing could start (no free executor of a ready class):
            // decide nothing, touch no state, so an engine that elides
            // this call stays bit-identical.
            return Preference::new();
        }
        if self.rebuild {
            let mut jobs: Vec<(O::Key, &JobRt)> =
                ctx.jobs.iter().map(|j| (self.order.key(j), j)).collect();
            jobs.sort_by_key(|&(key, j)| (key, j.id()));
            return emit_in_order(Budget::UNBOUNDED, jobs.into_iter().map(|(_, j)| j));
        }
        let order = &self.order;
        self.index.refresh(ctx, |j| order.key(j));
        let ready = self.index.ready_ids().filter_map(|id| ctx.job(id));
        emit_in_order(Budget::of(ctx), ready)
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

    /// Round-robin task interleaving over the ready queues of `jobs`,
    /// offered in the given (least-served-first) order. Emission is
    /// class-aware and stops once `budget` is met (dispatch-invariant:
    /// skipped entries could never start).
    fn round_robin<'a>(jobs: impl Iterator<Item = &'a JobRt>, budget: Budget) -> Preference {
        let queues: Vec<(&JobRt, ReadyTasks)> = jobs
            .map(|job| (job, ready_tasks(job, job.ready_stage_ids())))
            .collect();
        let mut p = Preference::new();
        let mut cursors = vec![0usize; queues.len()];
        let mut progressed = true;
        while progressed {
            progressed = false;
            for (qi, (job, tasks)) in queues.iter().enumerate() {
                if let Some(&(stage, task)) = tasks.get(cursors[qi]) {
                    cursors[qi] += 1;
                    progressed = true;
                    if budget.met(&p) {
                        return p;
                    }
                    budget.push_task(&mut p, job, stage, task);
                }
            }
        }
        p
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
            // Nothing could start (no free executor of a ready class):
            // decide nothing, touch no state, so an engine that elides
            // this call stays bit-identical.
            return Preference::new();
        }
        if self.rebuild {
            let mut jobs: Vec<&JobRt> = ctx.jobs.iter().collect();
            jobs.sort_by_cached_key(|j| (j.running_tasks(), j.arrival(), j.id()));
            return Self::round_robin(jobs.into_iter(), Budget::UNBOUNDED);
        }
        self.index
            .refresh(ctx, |j| (j.running_tasks(), j.arrival()));
        // A non-ready job's queue is empty and never emits or moves the
        // budget check: only ready jobs need a queue.
        let ready = self.index.ready_ids().filter_map(|id| ctx.job(id));
        Self::round_robin(ready, Budget::of(ctx))
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
        let priors = AppPriors::default();
        assert_eq!(Fcfs::new().name(), "FCFS");
        assert_eq!(Fair::new().name(), "Fair");
        assert_eq!(Sjf::new(priors.clone()).name(), "SJF");
        assert_eq!(Srtf::rebuild(priors).name(), "SRTF");
    }
}
