//! Workload runners: one simulation per (policy, workload, parameters),
//! with optional thread-parallel sweeps.

use llmsched_core::prelude::LlmSchedConfig;
use llmsched_sim::engine::{simulate, ClusterConfig, EngineMode};
use llmsched_sim::metrics::SimResult;
use llmsched_workloads::prelude::*;

use crate::roster::{Policy, TrainedArtifacts};

/// Parameters of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Workload mix.
    pub kind: WorkloadKind,
    /// Number of jobs.
    pub n_jobs: usize,
    /// Poisson arrival rate (jobs/s), used when `arrivals` is `None`.
    pub lambda: f64,
    /// Arrival-process override (bursty MMPP, diurnal); `None` means
    /// Poisson at `lambda`.
    pub arrivals: Option<ArrivalProcess>,
    /// Workload seed (same seed ⇒ identical job sequence for every policy).
    pub seed: u64,
    /// Engine fidelity (analytic = Fig. 7 simulator, token-level = Fig. 8
    /// testbed stand-in, cluster/disagg = Fig. 11 serving shapes).
    pub mode: EngineMode,
    /// LLMSched parameter overrides (ε, r, …).
    pub llmsched: Option<LlmSchedConfig>,
    /// Cluster override; `None` uses the mix's tuned default.
    pub cluster: Option<ClusterConfig>,
    /// Run policies on the rebuild-per-call reference path instead of the
    /// incremental default (schedules are bit-identical; only the
    /// scheduler overhead differs).
    pub rebuild: bool,
}

impl ExperimentConfig {
    /// The paper's default setting: 300 jobs, λ = 0.9, analytic engine.
    pub fn paper_default(kind: WorkloadKind, seed: u64) -> Self {
        ExperimentConfig {
            kind,
            n_jobs: 300,
            lambda: 0.9,
            arrivals: None,
            seed,
            mode: EngineMode::Analytic,
            llmsched: None,
            cluster: None,
            rebuild: false,
        }
    }

    /// The effective cluster configuration.
    pub fn cluster(&self) -> ClusterConfig {
        let mut c = self
            .cluster
            .clone()
            .unwrap_or_else(|| self.kind.default_cluster());
        c.mode = self.mode;
        c
    }

    /// The effective arrival process.
    pub fn arrival_process(&self) -> ArrivalProcess {
        self.arrivals.unwrap_or(ArrivalProcess::Poisson {
            lambda: self.lambda,
        })
    }
}

/// Runs one policy on one workload instance.
pub fn run_policy(art: &TrainedArtifacts, policy: Policy, exp: &ExperimentConfig) -> SimResult {
    let w = generate_workload_with(exp.kind, exp.n_jobs, &exp.arrival_process(), exp.seed);
    let mut sched = art.build_mode(policy, exp.llmsched.clone(), exp.rebuild);
    simulate(&exp.cluster(), &w.templates, w.jobs, &mut sched)
}

/// Runs several policies on the same workload in parallel (bounded by
/// the hardware thread count) and returns results in roster order.
pub fn run_policies_parallel(
    art: &TrainedArtifacts,
    policies: &[Policy],
    exp: &ExperimentConfig,
) -> Vec<SimResult> {
    crate::sweep::map(policies, |&p| run_policy(art, p, exp))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_carries_parameters() {
        let e = ExperimentConfig::paper_default(WorkloadKind::Planning, 7);
        assert_eq!(e.n_jobs, 300);
        assert!((e.lambda - 0.9).abs() < 1e-12);
        assert_eq!(e.cluster().mode, EngineMode::Analytic);
    }

    #[test]
    fn run_policy_completes_small_run() {
        let art = crate::TrainedArtifacts::train(25, 3);
        let exp = ExperimentConfig {
            n_jobs: 12,
            ..ExperimentConfig::paper_default(WorkloadKind::ChainLike, 5)
        };
        let r = run_policy(&art, Policy::Fcfs, &exp);
        assert_eq!(r.incomplete, 0);
        assert_eq!(r.jobs.len(), 12);
    }

    #[test]
    fn arrival_override_changes_the_trace_poisson_default_does_not() {
        let art = crate::TrainedArtifacts::train(25, 3);
        let base = ExperimentConfig {
            n_jobs: 10,
            ..ExperimentConfig::paper_default(WorkloadKind::ChainLike, 5)
        };
        let explicit = ExperimentConfig {
            arrivals: Some(ArrivalProcess::Poisson { lambda: 0.9 }),
            ..base.clone()
        };
        let bursty = ExperimentConfig {
            arrivals: Some(ArrivalProcess::bursty(0.9)),
            ..base.clone()
        };
        let a = run_policy(&art, Policy::Fcfs, &base);
        let b = run_policy(&art, Policy::Fcfs, &explicit);
        let c = run_policy(&art, Policy::Fcfs, &bursty);
        assert_eq!(a.avg_jct_secs(), b.avg_jct_secs());
        assert_eq!(c.incomplete, 0);
        assert_ne!(a.makespan, c.makespan);
    }

    #[test]
    fn parallel_runner_matches_sequential() {
        let art = crate::TrainedArtifacts::train(25, 3);
        let exp = ExperimentConfig {
            n_jobs: 10,
            ..ExperimentConfig::paper_default(WorkloadKind::Planning, 9)
        };
        let seq = run_policy(&art, Policy::Sjf, &exp);
        let par = run_policies_parallel(&art, &[Policy::Sjf], &exp);
        assert_eq!(seq.avg_jct_secs(), par[0].avg_jct_secs());
    }
}
