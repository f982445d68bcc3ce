//! The scheduler roster: every policy of Fig. 7/8 plus the ablation
//! variants of Fig. 10, constructed from shared training artifacts.

use llmsched_core::prelude::*;
use llmsched_core::profiler::PER_TOKEN_B1;
use llmsched_dag::template::TemplateSet;
use llmsched_schedulers::prelude::*;
use llmsched_sim::scheduler::Scheduler;
use llmsched_workloads::prelude::*;

/// Every scheduling policy appearing in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// First Come First Serve.
    Fcfs,
    /// Shortest Job First.
    Sjf,
    /// Fair scheduling.
    Fair,
    /// Argus-like topology ranking.
    Argus,
    /// Decima-like single-stage dispatch.
    Decima,
    /// Carbyne-like altruistic sharing.
    Carbyne,
    /// LLMSched (this paper).
    LlmSched,
    /// Ablation: LLMSched without the Bayesian network (Fig. 10).
    LlmSchedNoBn,
    /// Ablation: LLMSched without the uncertainty strategy (Fig. 10).
    LlmSchedNoUncertainty,
    /// Plain SRTF on static estimates (analysis helper).
    Srtf,
}

impl Policy {
    /// The seven policies of Fig. 7/8, in the paper's legend order.
    pub const FIG7: [Policy; 7] = [
        Policy::Fcfs,
        Policy::Sjf,
        Policy::Fair,
        Policy::Argus,
        Policy::Decima,
        Policy::Carbyne,
        Policy::LlmSched,
    ];

    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Fcfs => "FCFS",
            Policy::Sjf => "SJF",
            Policy::Fair => "Fair",
            Policy::Argus => "Argus",
            Policy::Decima => "Decima",
            Policy::Carbyne => "Carbyne",
            Policy::LlmSched => "LLMSched",
            Policy::LlmSchedNoBn => "LLMSched w/o BN",
            Policy::LlmSchedNoUncertainty => "LLMSched w/o uncertainty",
            Policy::Srtf => "SRTF",
        }
    }
}

/// Offline training artifacts shared by all policies: the application
/// templates, the historical priors granted to the baselines, and the
/// trained Bayesian profiler used by LLMSched.
#[derive(Debug, Clone)]
pub struct TrainedArtifacts {
    /// All application templates.
    pub templates: TemplateSet,
    /// Historical per-app duration averages (baseline prior knowledge).
    pub priors: AppPriors,
    /// The trained BN profiler.
    pub profiler: Profiler,
}

impl TrainedArtifacts {
    /// Trains on `per_app` historical jobs of every application.
    pub fn train(per_app: usize, seed: u64) -> Self {
        let templates = all_templates();
        let corpus = training_jobs(&AppKind::ALL, per_app, seed);
        let profiler = Profiler::train(&templates, &corpus, &ProfilerConfig::default());
        let priors = AppPriors::from_training(&corpus, PER_TOKEN_B1);
        TrainedArtifacts {
            templates,
            priors,
            profiler,
        }
    }

    /// Builds a policy instance on the default (incremental) path.
    /// `llmsched_cfg` customizes the LLMSched variants (ε, r, MI
    /// estimator); pass `None` for defaults.
    pub fn build(
        &self,
        policy: Policy,
        llmsched_cfg: Option<LlmSchedConfig>,
    ) -> Box<dyn Scheduler> {
        self.build_mode(policy, llmsched_cfg, false)
    }

    /// Builds a policy instance, optionally on the rebuild-per-call
    /// reference path (`rebuild = true`) — used by equivalence tests and
    /// the `scale_throughput` comparison bench.
    pub fn build_mode(
        &self,
        policy: Policy,
        llmsched_cfg: Option<LlmSchedConfig>,
        rebuild: bool,
    ) -> Box<dyn Scheduler> {
        let base = LlmSchedConfig {
            incremental: !rebuild,
            ..llmsched_cfg.unwrap_or_default()
        };
        match (policy, rebuild) {
            (Policy::Fcfs, false) => Box::new(Fcfs::new()),
            (Policy::Fcfs, true) => Box::new(Fcfs::rebuild()),
            (Policy::Fair, false) => Box::new(Fair::new()),
            (Policy::Fair, true) => Box::new(Fair::rebuild()),
            (Policy::Sjf, false) => Box::new(Sjf::new(self.priors.clone())),
            (Policy::Sjf, true) => Box::new(Sjf::rebuild(self.priors.clone())),
            (Policy::Srtf, false) => Box::new(Srtf::new(self.priors.clone())),
            (Policy::Srtf, true) => Box::new(Srtf::rebuild(self.priors.clone())),
            (Policy::Argus, false) => Box::new(Argus::new()),
            (Policy::Argus, true) => Box::new(Argus::rebuild()),
            (Policy::Decima, false) => Box::new(DecimaLike::new(self.priors.clone())),
            (Policy::Decima, true) => Box::new(DecimaLike::rebuild(self.priors.clone())),
            (Policy::Carbyne, false) => Box::new(CarbyneLike::new(self.priors.clone())),
            (Policy::Carbyne, true) => Box::new(CarbyneLike::rebuild(self.priors.clone())),
            (Policy::LlmSched, _) => Box::new(LlmSched::new(self.profiler.clone(), base)),
            (Policy::LlmSchedNoBn, _) => Box::new(LlmSched::new(
                self.profiler.clone(),
                LlmSchedConfig {
                    use_bn: false,
                    ..base
                },
            )),
            (Policy::LlmSchedNoUncertainty, _) => Box::new(LlmSched::new(
                self.profiler.clone(),
                LlmSchedConfig {
                    use_uncertainty: false,
                    ..base
                },
            )),
        }
    }
}

/// Default training-corpus size per application (the paper records the
/// full datasets: 500-1000 queries per app).
pub const DEFAULT_TRAINING_PER_APP: usize = 400;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_policies_build() {
        let art = TrainedArtifacts::train(30, 1);
        for p in Policy::FIG7 {
            let s = art.build(p, None);
            assert_eq!(s.name(), p.name());
        }
        let s = art.build(Policy::LlmSchedNoBn, None);
        assert_eq!(s.name(), "LLMSched w/o BN");
    }
}
