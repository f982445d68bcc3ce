//! Simulation outcome metrics: per-job completion times, average and
//! percentile JCT, SLO attainment, utilization integrals, and scheduler
//! overhead (Table I).

use llmsched_dag::ids::{AppId, JobId};
use llmsched_dag::time::{SimDuration, SimTime};
use llmsched_telemetry::{TimeSeries, WallReservoir};

/// Outcome of one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobOutcome {
    /// Job id.
    pub id: JobId,
    /// Application the job instantiated.
    pub app: AppId,
    /// Arrival time.
    pub arrival: SimTime,
    /// Completion time.
    pub completion: SimTime,
}

impl JobOutcome {
    /// Job completion time (response time): completion − arrival.
    pub fn jct(&self) -> SimDuration {
        self.completion - self.arrival
    }
}

/// Executor utilization over the simulated horizon.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Utilization {
    /// Mean fraction of regular executors that were busy.
    pub regular_busy_frac: f64,
    /// Mean fraction of LLM batch *slots* that were occupied.
    pub llm_slot_frac: f64,
    /// Mean fraction of LLM executors that were non-idle.
    pub llm_active_frac: f64,
}

/// Tail summary of per-invocation scheduler overhead, in milliseconds —
/// the mean (`sched_overhead_ms`) hides invocation-time spikes (cache
/// rebuilds, BN inference on evidence changes) that a production
/// scheduler's p99 budget would catch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SchedOverheadPercentiles {
    /// Median per-invocation overhead.
    pub p50_ms: f64,
    /// 99th-percentile per-invocation overhead.
    pub p99_ms: f64,
}

/// Tail-latency summary of a run's job completion times, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JctPercentiles {
    /// Median JCT.
    pub p50: f64,
    /// 95th-percentile JCT.
    pub p95: f64,
    /// 99th-percentile JCT.
    pub p99: f64,
}

/// Full result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Scheduling policy name.
    pub scheduler: String,
    /// Executor backend descriptor the run used (e.g.
    /// `"cluster/least-loaded"`, `"token-level"`, `"disagg/jsq"`) — keeps cross-fidelity and
    /// cross-routing comparisons honest. A `String` so dynamically
    /// configured cluster backends can self-describe.
    pub backend: String,
    /// Per-job outcomes, in completion order.
    pub jobs: Vec<JobOutcome>,
    /// Time of the last completion.
    pub makespan: SimTime,
    /// Number of scheduler invocations.
    pub sched_calls: u64,
    /// Scheduler opportunities skipped by invocation coalescing (the
    /// engine proved nothing was dispatchable, so the policy was not
    /// called; the accumulated deltas carried over to the next real
    /// invocation). Always 0 with coalescing off. Opportunity sequence
    /// numbers count skipped and elided opportunities alongside real
    /// calls — see [`SimResult::sched_elided`] for the full invariant.
    pub sched_skipped: u64,
    /// Scheduler opportunities elided by the capacity-aware check: work
    /// was dispatchable in principle (a ready task was unstarted) but no
    /// executor of the matching class had a free slot, and the active
    /// policy declared itself work-conserving
    /// ([`Scheduler::is_work_conserving`](crate::scheduler::Scheduler)),
    /// so the invocation was provably a no-op and was skipped. Always 0
    /// under a policy that is not work-conserving.
    /// Opportunity sequence numbers count all three outcomes, so
    /// `sched_calls + sched_skipped + sched_elided` is the total number
    /// of decision points the run evaluated.
    pub sched_elided: u64,
    /// Scheduler opportunities deferred under the bounded-staleness
    /// horizon
    /// ([`ClusterConfig::decision_horizon`](crate::engine::ClusterConfig::decision_horizon)):
    /// the decision point fell within ε of the previous invocation, so it
    /// was folded — deltas and all — into the batched invocation at the
    /// horizon edge. Always 0 in
    /// exact mode (`decision_horizon` 0). Deferred opportunities consume
    /// sequence numbers alongside the other three outcomes, so
    /// `sched_calls + sched_skipped + sched_elided + sched_deferred` is
    /// the total number of decision points the run evaluated.
    pub sched_deferred: u64,
    /// Total wall-clock time spent inside the scheduler (delta delivery +
    /// `Scheduler::schedule`).
    pub sched_wall: std::time::Duration,
    /// Per-invocation wall-clock samples in call order — the raw data
    /// behind [`SimResult::sched_overhead_percentiles`]. Bounded by a
    /// deterministic stride-decimation reservoir (64 Ki-sample cap ≈
    /// 1 MiB): runs under the cap keep every sample and the percentiles
    /// are exact ([`WallReservoir::is_exact`]); longer runs keep an
    /// evenly spaced subsample and the percentiles are
    /// documented-approximate.
    pub sched_wall_samples: WallReservoir,
    /// Executor utilization.
    pub utilization: Utilization,
    /// Number of simulation events processed.
    pub events: u64,
    /// Jobs that never completed (a scheduler that stops scheduling can
    /// starve jobs; healthy runs have 0).
    pub incomplete: usize,
    /// Windowed time-series over the run (`None` unless the run's
    /// [`Probe`](llmsched_telemetry::Probe) aggregated one — see
    /// [`llmsched_telemetry::TraceConfig::window`]).
    pub timeseries: Option<TimeSeries>,
}

impl SimResult {
    /// Average job completion time in seconds — the paper's headline metric.
    pub fn avg_jct_secs(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs.iter().map(|j| j.jct().as_secs_f64()).sum::<f64>() / self.jobs.len() as f64
    }

    /// JCTs in seconds, ascending.
    fn sorted_jcts(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.jobs.iter().map(|j| j.jct().as_secs_f64()).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("JCTs are finite"));
        v
    }

    /// Nearest-rank quantile of an ascending non-empty sample.
    fn quantile(sorted: &[f64], p: f64) -> f64 {
        let idx = ((p * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
        sorted[idx]
    }

    /// The `p`-quantile of JCT in seconds (`p` in [0, 1], nearest-rank).
    ///
    /// # Panics
    /// Panics if `p` is outside [0, 1].
    pub fn jct_quantile_secs(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile must be in [0,1]");
        if self.jobs.is_empty() {
            return 0.0;
        }
        Self::quantile(&self.sorted_jcts(), p)
    }

    /// The p50/p95/p99 JCT summary — the serving-world tail metrics a
    /// mean hides. Sorts the sample once for all three ranks.
    pub fn jct_percentiles(&self) -> JctPercentiles {
        if self.jobs.is_empty() {
            return JctPercentiles::default();
        }
        let sorted = self.sorted_jcts();
        JctPercentiles {
            p50: Self::quantile(&sorted, 0.50),
            p95: Self::quantile(&sorted, 0.95),
            p99: Self::quantile(&sorted, 0.99),
        }
    }

    /// Fraction of jobs meeting a JCT deadline of `deadline`. Jobs that
    /// never completed count as misses, so a starving scheduler cannot
    /// report perfect attainment; a run with no jobs at all reports 1.0.
    pub fn slo_attainment(&self, deadline: SimDuration) -> f64 {
        let total = self.jobs.len() + self.incomplete;
        if total == 0 {
            return 1.0;
        }
        let met = self.jobs.iter().filter(|j| j.jct() <= deadline).count();
        met as f64 / total as f64
    }

    /// Average wall-clock scheduling overhead per invocation, in
    /// milliseconds (Table I's metric).
    pub fn sched_overhead_ms(&self) -> f64 {
        if self.sched_calls == 0 {
            return 0.0;
        }
        self.sched_wall.as_secs_f64() * 1e3 / self.sched_calls as f64
    }

    /// The p50/p99 per-invocation scheduler overhead, in milliseconds
    /// (nearest-rank over [`SimResult::sched_wall_samples`]).
    pub fn sched_overhead_percentiles(&self) -> SchedOverheadPercentiles {
        if self.sched_wall_samples.is_empty() {
            return SchedOverheadPercentiles::default();
        }
        let mut ms: Vec<f64> = self
            .sched_wall_samples
            .as_slice()
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        ms.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        SchedOverheadPercentiles {
            p50_ms: Self::quantile(&ms, 0.50),
            p99_ms: Self::quantile(&ms, 0.99),
        }
    }

    /// Average JCT restricted to jobs of one application.
    pub fn avg_jct_secs_for(&self, app: AppId) -> Option<f64> {
        let v: Vec<f64> = self
            .jobs
            .iter()
            .filter(|j| j.app == app)
            .map(|j| j.jct().as_secs_f64())
            .collect();
        if v.is_empty() {
            None
        } else {
            Some(v.iter().sum::<f64>() / v.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: u64, arrival: f64, completion: f64) -> JobOutcome {
        JobOutcome {
            id: JobId(id),
            app: AppId(0),
            arrival: SimTime::from_secs_f64(arrival),
            completion: SimTime::from_secs_f64(completion),
        }
    }

    fn result(jobs: Vec<JobOutcome>) -> SimResult {
        SimResult {
            scheduler: "test".into(),
            backend: "cluster/least-loaded".into(),
            jobs,
            makespan: SimTime::from_secs_f64(10.0),
            sched_calls: 4,
            sched_skipped: 0,
            sched_elided: 0,
            sched_deferred: 0,
            sched_wall: std::time::Duration::from_millis(2),
            sched_wall_samples: (1..=4)
                .map(|i| std::time::Duration::from_micros(250 * i))
                .collect(),
            utilization: Utilization::default(),
            events: 0,
            incomplete: 0,
            timeseries: None,
        }
    }

    #[test]
    fn avg_jct_matches_hand_computation() {
        let r = result(vec![outcome(0, 0.0, 3.0), outcome(1, 1.0, 9.0)]);
        // JCTs: 3 and 8 -> mean 5.5.
        assert!((r.avg_jct_secs() - 5.5).abs() < 1e-9);
    }

    #[test]
    fn empty_result_is_zero() {
        let r = result(vec![]);
        assert_eq!(r.avg_jct_secs(), 0.0);
        assert_eq!(r.jct_quantile_secs(0.5), 0.0);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let r = result(vec![
            outcome(0, 0.0, 1.0),
            outcome(1, 0.0, 2.0),
            outcome(2, 0.0, 3.0),
            outcome(3, 0.0, 4.0),
            outcome(4, 0.0, 5.0),
        ]);
        assert!((r.jct_quantile_secs(0.0) - 1.0).abs() < 1e-9);
        assert!((r.jct_quantile_secs(0.5) - 3.0).abs() < 1e-9);
        assert!((r.jct_quantile_secs(1.0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_summarize_the_tail() {
        let r = result((0..100).map(|i| outcome(i, 0.0, (i + 1) as f64)).collect());
        let p = r.jct_percentiles();
        assert!(
            (p.p50 - 51.0).abs() < 1e-9,
            "nearest-rank median, got {}",
            p.p50
        );
        assert!((p.p95 - 95.0).abs() < 1.0 + 1e-9);
        assert!((p.p99 - 99.0).abs() < 1.0 + 1e-9);
        assert!(p.p50 <= p.p95 && p.p95 <= p.p99);
    }

    #[test]
    fn slo_attainment_counts_incomplete_jobs_as_misses() {
        let mut r = result(vec![outcome(0, 0.0, 2.0), outcome(1, 0.0, 9.0)]);
        let slo = SimDuration::from_secs(5);
        assert!((r.slo_attainment(slo) - 0.5).abs() < 1e-9);
        r.incomplete = 2;
        assert!((r.slo_attainment(slo) - 0.25).abs() < 1e-9);
        let empty = result(vec![]);
        assert_eq!(empty.slo_attainment(slo), 1.0);
    }

    #[test]
    fn overhead_per_call() {
        let r = result(vec![]);
        assert!((r.sched_overhead_ms() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn overhead_percentiles_are_nearest_rank_over_samples() {
        // Samples 0.25/0.50/0.75/1.00 ms: nearest-rank p50 is index
        // round(0.5 * 3) = 2 -> 0.75 ms; p99 is the last sample.
        let r = result(vec![]);
        let p = r.sched_overhead_percentiles();
        assert!((p.p50_ms - 0.75).abs() < 1e-9, "p50 {}", p.p50_ms);
        assert!((p.p99_ms - 1.0).abs() < 1e-9, "p99 {}", p.p99_ms);

        let mut empty = result(vec![]);
        empty.sched_wall_samples.clear();
        assert_eq!(empty.sched_overhead_percentiles(), Default::default());
    }

    #[test]
    fn per_app_average() {
        let mut r = result(vec![outcome(0, 0.0, 2.0)]);
        r.jobs.push(JobOutcome {
            id: JobId(1),
            app: AppId(7),
            arrival: SimTime::ZERO,
            completion: SimTime::from_secs_f64(4.0),
        });
        assert_eq!(r.avg_jct_secs_for(AppId(7)), Some(4.0));
        assert_eq!(r.avg_jct_secs_for(AppId(9)), None);
    }
}
