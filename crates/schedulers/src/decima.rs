//! Decima-like baseline (§II-C, §V).
//!
//! Decima (SIGCOMM'19) learns a scheduling policy with a GNN + RL. Training
//! an RL agent is outside this reproduction's scope; what the paper
//! measures and explains is Decima's *deployed behavior*: it favors jobs
//! with little remaining work and dispatches **the tasks of a single stage
//! per scheduling event** with bounded per-job parallelism. That
//! single-stage granularity is precisely why the paper reports Decima
//! under-utilizing the cluster on Planning workloads (high stage
//! parallelism, one task per stage — §V-A) and omits it from the Planning
//! plots (average JCT above 100 s).
//!
//! This substitution is documented in `DESIGN.md` §6.

use llmsched_sim::incr::EstimateCache;
use llmsched_sim::scheduler::{Preference, SchedContext, SchedDelta, Scheduler};

use crate::util::AppPriors;

/// The Decima-like single-stage dispatcher.
///
/// Incremental by default: remaining-work estimates live in a persistent
/// [`EstimateCache`] recomputed only for jobs whose stages completed. The
/// selection itself stays the original tolerance-based fold over the
/// context's job list — its ε-comparisons are order-dependent, so any
/// reordering (e.g. an exact-min heap) would change tie outcomes and break
/// schedule bit-identity with the rebuild reference.
#[derive(Debug)]
pub struct DecimaLike {
    priors: AppPriors,
    rebuild: bool,
    estimates: EstimateCache,
}

impl DecimaLike {
    /// Builds the incremental policy with historical priors (Decima trains
    /// on the same four workload types; the priors are its learned duration
    /// knowledge).
    pub fn new(priors: AppPriors) -> Self {
        DecimaLike {
            priors,
            rebuild: false,
            estimates: EstimateCache::new(),
        }
    }

    /// The reference rebuild-per-call variant.
    pub fn rebuild(priors: AppPriors) -> Self {
        DecimaLike {
            rebuild: true,
            ..Self::new(priors)
        }
    }

    /// The tolerance-based shortest-remaining-work fold (shared by both
    /// paths; `rem_of` supplies either fresh or cached estimates).
    fn pick<'a>(
        ctx: &'a SchedContext<'_>,
        mut rem_of: impl FnMut(&llmsched_sim::state::JobRt) -> f64,
    ) -> Option<&'a llmsched_sim::state::JobRt> {
        let mut best: Option<(f64, &llmsched_sim::state::JobRt)> = None;
        for job in &ctx.jobs {
            if job.ready_stage_ids().is_empty() {
                continue;
            }
            let rem = rem_of(job);
            let better = match best {
                None => true,
                Some((b, bj)) => {
                    rem < b - 1e-12
                        || ((rem - b).abs() <= 1e-12
                            && (job.arrival(), job.id()) < (bj.arrival(), bj.id()))
                }
            };
            if better {
                best = Some((rem, job));
            }
        }
        best.map(|(_, j)| j)
    }
}

impl Scheduler for DecimaLike {
    fn name(&self) -> &str {
        "Decima"
    }

    fn on_delta(&mut self, d: &SchedDelta) {
        if !self.rebuild {
            self.estimates.on_delta(d);
        }
    }

    fn reset(&mut self) {
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
            // Nothing could start (no free executor of a ready class):
            // decide nothing, touch no state, so an engine that elides
            // this call stays bit-identical.
            return Preference::new();
        }
        let best = if self.rebuild {
            Self::pick(ctx, |j| self.priors.remaining_estimate(j))
        } else {
            let priors = &self.priors;
            self.estimates
                .refresh(ctx, |j| priors.remaining_estimate(j));
            let estimates = &self.estimates;
            Self::pick(ctx, |j| estimates.get(j.id()))
        };
        let mut p = Preference::new();
        if let Some(job) = best {
            if let Some(&stage) = job.ready_stage_ids().first() {
                p.push_stage_tasks(job, stage);
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

    fn priors() -> AppPriors {
        AppPriors::from_training(&two_class_training(), SimDuration::from_millis(20))
    }

    fn decima() -> DecimaLike {
        DecimaLike::new(priors())
    }

    #[test]
    fn completes_the_fixture() {
        let r = run_two_class_workload(&mut decima());
        assert_eq!(r.incomplete, 0);
        assert_eq!(r.scheduler, "Decima");
    }

    #[test]
    fn incremental_matches_rebuild() {
        assert_same_schedule(&mut decima(), &mut DecimaLike::rebuild(priors()));
    }

    #[test]
    fn dispatches_at_most_one_stage_per_event() {
        // Indirect but deterministic check: the schedule() output never
        // references two distinct stages.
        struct Probe(DecimaLike, bool);
        impl Scheduler for Probe {
            fn name(&self) -> &str {
                "probe"
            }
            fn schedule(&mut self, ctx: &llmsched_sim::scheduler::SchedContext<'_>) -> Preference {
                let p = self.0.schedule(ctx);
                let mut stages: Vec<_> = p
                    .regular
                    .iter()
                    .chain(&p.llm)
                    .map(|t| (t.job, t.stage))
                    .collect();
                stages.dedup();
                if stages.len() > 1 {
                    self.1 = true;
                }
                p
            }
            // Wrappers must keep the inner policy on the delta stream.
            fn on_delta(&mut self, d: &SchedDelta) {
                self.0.on_delta(d);
            }
            fn reset(&mut self) {
                self.0.reset();
            }
        }
        let mut probe = Probe(decima(), false);
        let r = run_two_class_workload(&mut probe);
        assert_eq!(r.incomplete, 0);
        assert!(!probe.1, "Decima-like must offer a single stage per event");
    }
}
