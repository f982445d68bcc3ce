//! The three benchmark workloads and their set-up.
//!
//! All three are Mixed-app Poisson arrivals at [`LAMBDA`] jobs/s on the
//! `scale_throughput` cluster shape (the Mixed default cluster times
//! [`CLUSTER_SCALE`]), which keeps hundreds of jobs in flight. Every
//! `ClusterConfig` and `LlmSchedConfig` knob other than the cluster shape
//! stays at its default, so the benchmark measures what `simulate` does
//! out of the box. README.md records why each workload exists.

use std::time::Instant;

use llmsched_core::prelude::{
    LlmSched, LlmSchedConfig, ProfileStore, ProfileStoreConfig, ProfileUpdate, Profiler,
    ProfilerConfig,
};
use llmsched_sim::engine::{ClusterConfig, EngineMode};
use llmsched_sim::prelude::ClusterSpec;
use llmsched_workloads::prelude::*;

/// Arrival rate (jobs per simulated second).
pub const LAMBDA: f64 = 24.0;

/// Executors (and, for disagg, prefill replicas) per Mixed-default unit.
pub const CLUSTER_SCALE: usize = 48;

/// Historical jobs per application in the profiler's training corpus.
pub const TRAINING_PER_APP: usize = 200;

/// Independent instances per run, each generated from its own seed
/// derived from the run's seed. Pooling them narrows the seed-to-seed
/// spread of every metric, while a rotation over them stays short enough
/// to repeat every call about ten times within one run.
pub const INSTANCES: u64 = 8;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Stock LLMSched, frozen profile, analytic backend.
    LlmSchedMixed,
    /// FCFS, even instances on the token-level backend and odd ones on
    /// the disaggregated prefill/decode backend.
    FcfsTokenDisagg,
    /// LLMSched with per-completion profile updates on a drift workload.
    LlmSchedOnlineDrift,
}

/// The policy a workload runs, with whatever it was trained on.
pub enum Trained {
    /// FCFS needs no training.
    Fcfs,
    /// LLMSched on a frozen, batch-trained profiler.
    Frozen(Profiler),
    /// LLMSched on a profile store that publishes after every completion.
    Online(Box<ProfileStore>),
}

impl Trained {
    /// True if the policy is LLMSched (the `core` layer does work).
    pub fn is_llmsched(&self) -> bool {
        !matches!(self, Trained::Fcfs)
    }

    /// A fresh LLMSched instance with untouched profiles.
    ///
    /// # Panics
    /// Panics if the policy is FCFS.
    pub fn llmsched(&self) -> LlmSched {
        match self {
            Trained::Fcfs => panic!("policy is FCFS"),
            Trained::Frozen(p) => LlmSched::new(p.clone(), LlmSchedConfig::default()),
            Trained::Online(s) => LlmSched::with_store((**s).clone(), LlmSchedConfig::default()),
        }
    }
}

/// A workload's generated instances and trained policies, with the
/// instants that delimit generation and training.
pub struct Setup {
    /// [`INSTANCES`] independent instances: jobs and their templates.
    pub instances: Vec<llmsched_workloads::prelude::Workload>,
    /// Each instance's trained policy.
    pub policies: Vec<Trained>,
    /// Set-up start.
    pub started: Instant,
    /// Generation end (training start).
    pub generated: Instant,
    /// Training end.
    pub trained_at: Instant,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` lists all but
    /// `llmsched-online-drift`, whose host-time spread between seeds is
    /// wider than any bound the benchmark may set (README.md).
    pub const ALL: [Workload; 3] = [
        Workload::LlmSchedMixed,
        Workload::FcfsTokenDisagg,
        Workload::LlmSchedOnlineDrift,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LlmSchedMixed => "llmsched-mixed",
            Workload::FcfsTokenDisagg => "fcfs-token-disagg",
            Workload::LlmSchedOnlineDrift => "llmsched-online-drift",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Jobs per instance, sized so one `simulate` call takes about half a
    /// second on a 2-core x86-64 host.
    pub fn jobs(self) -> usize {
        match self {
            Workload::LlmSchedMixed | Workload::FcfsTokenDisagg => 2_500,
            Workload::LlmSchedOnlineDrift => 500,
        }
    }

    /// The backend of instance `k`.
    fn mode(self, k: usize) -> EngineMode {
        match self {
            Workload::LlmSchedMixed | Workload::LlmSchedOnlineDrift => EngineMode::Analytic,
            Workload::FcfsTokenDisagg if k % 2 == 0 => EngineMode::TokenLevel,
            Workload::FcfsTokenDisagg => EngineMode::Disagg,
        }
    }

    /// The cluster of instance `k`: the Mixed default scaled by
    /// [`CLUSTER_SCALE`]. The derived disagg layout has a single prefill
    /// replica, which overloads at this arrival rate, so the prefill pool
    /// scales with the cluster.
    pub fn cluster(self, k: usize) -> ClusterConfig {
        let base = WorkloadKind::Mixed.default_cluster();
        let mode = self.mode(k);
        let spec = (mode == EngineMode::Disagg).then(|| {
            let mut s = ClusterSpec::disaggregated(
                base.llm_executors * CLUSTER_SCALE,
                base.max_batch,
                base.latency.clone(),
            );
            s.groups[0].replicas = CLUSTER_SCALE;
            s
        });
        ClusterConfig {
            regular_executors: base.regular_executors * CLUSTER_SCALE,
            llm_executors: base.llm_executors * CLUSTER_SCALE,
            mode,
            spec,
            ..base
        }
    }

    /// Generates [`INSTANCES`] instances from seeds derived from `seed`
    /// and, for LLMSched, a historical corpus per instance from a seed
    /// derived from the instance's, then trains each instance's policy on
    /// its own corpus. Which corpus a policy is trained on sets how much a
    /// decision costs (one corpus can double the p99 of another), so each
    /// instance is a deployment with its own history and a run averages
    /// over [`INSTANCES`] histories. The instances and corpora are the
    /// `workloads` layer's work; fitting the profiles is the `core` layer's.
    pub fn setup(self, seed: u64) -> Setup {
        let n = self.jobs();
        let started = Instant::now();
        let seeds: Vec<u64> = (0..INSTANCES)
            .map(|k| seed.wrapping_mul(INSTANCES).wrapping_add(k))
            .collect();
        let instances: Vec<_> = seeds
            .iter()
            .map(|&seed| match self {
                Workload::LlmSchedOnlineDrift => {
                    // CodeGeneration jobs arriving after a third of the
                    // arrival span carry 0.3x their trained work.
                    let at = n as f64 / LAMBDA / 3.0;
                    let drift = DriftSpec::new(at, 0.3, vec![AppKind::CodeGeneration]);
                    generate_drift_workload(WorkloadKind::Mixed, n, LAMBDA, seed, &drift)
                }
                _ => generate_workload(WorkloadKind::Mixed, n, LAMBDA, seed),
            })
            .collect();
        let corpora: Vec<Vec<_>> = match self {
            Workload::FcfsTokenDisagg => Vec::new(),
            Workload::LlmSchedMixed | Workload::LlmSchedOnlineDrift => seeds
                .iter()
                .map(|&seed| training_jobs(&AppKind::ALL, TRAINING_PER_APP, seed ^ 0x5EED_C0DE))
                .collect(),
        };
        let generated = Instant::now();
        let policies = instances
            .iter()
            .enumerate()
            .map(|(k, inst)| match self {
                Workload::FcfsTokenDisagg => Trained::Fcfs,
                Workload::LlmSchedMixed => Trained::Frozen(Profiler::train(
                    &inst.templates,
                    &corpora[k],
                    &ProfilerConfig::default(),
                )),
                Workload::LlmSchedOnlineDrift => Trained::Online(Box::new(ProfileStore::train(
                    &inst.templates,
                    &corpora[k],
                    ProfileStoreConfig {
                        update: ProfileUpdate::PerCompletion,
                        ..ProfileStoreConfig::default()
                    },
                ))),
            })
            .collect();
        Setup {
            instances,
            policies,
            started,
            generated,
            trained_at: Instant::now(),
        }
    }
}

/// Profile versions published by `sched`'s store, summed over every app.
pub fn store_versions(sched: &LlmSched) -> u64 {
    AppKind::ALL
        .iter()
        .map(|k| sched.profile_store().version(k.app_id()).0)
        .sum()
}
