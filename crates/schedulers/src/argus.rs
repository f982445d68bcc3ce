//! Argus-style topology-aware baseline (§II-C, §V).
//!
//! Argus (IPDPS'21) ranks stages by their position in the DAG: stages with
//! greater critical-path depth, more children, and more tasks are served
//! first. It exploits topology but has no notion of duration uncertainty —
//! in the paper's Predefined workloads it effectively degenerates to
//! application-level scheduling, which LLMSched beats by re-estimating
//! durations per job (§V-A).

use std::collections::HashMap;

use llmsched_dag::ids::{JobId, StageId};
use llmsched_dag::time::SimTime;
use llmsched_sim::incr::DeltaIndex;
use llmsched_sim::scheduler::{Preference, SchedContext, SchedDelta, Scheduler};
use llmsched_sim::state::JobRt;

use crate::util::{visible_heights, Budget};

/// The Argus-like stage-rank scheduler.
///
/// Incremental by default: jobs live in a persistent arrival-ordered
/// index, and each job's critical-path heights are cached and invalidated
/// only by that job's [`SchedDelta::StageRevealed`] deltas — heights are a
/// pure function of the visible DAG, which only reveals can change.
#[derive(Debug, Default)]
pub struct Argus {
    rebuild: bool,
    index: DeltaIndex<SimTime>,
    heights: HashMap<JobId, HashMap<StageId, usize>>,
}

impl Argus {
    /// The incremental Argus scheduler (same as `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// The reference rebuild-per-call variant.
    pub fn rebuild() -> Self {
        Argus {
            rebuild: true,
            ..Self::default()
        }
    }
}

/// Rank of one candidate stage (higher = served first).
///
/// Depth is the stage's critical-path height *normalized by its job's
/// total height* (per-mille, so `Ord` applies): comparing absolute heights
/// across applications would strictly prioritize the deepest application's
/// jobs — effectively longest-app-first, which is not how a per-job
/// topology ranker behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Rank {
    depth_per_mille: u32,
    children: usize,
    tasks: usize,
}

fn rank(job: &JobRt, stage: StageId, heights: &std::collections::HashMap<StageId, usize>) -> Rank {
    let view = job.stage_view(stage).expect("ready stage is visible");
    let h = heights.get(&stage).copied().unwrap_or(0);
    let max_h = heights.values().copied().max().unwrap_or(0).max(1);
    Rank {
        depth_per_mille: (h * 1000 / max_h) as u32,
        children: job.visible_succs(stage).count(),
        tasks: view.n_tasks.unwrap_or(0),
    }
}

impl Scheduler for Argus {
    fn name(&self) -> &str {
        "Argus"
    }

    fn on_delta(&mut self, d: &SchedDelta) {
        if self.rebuild {
            return;
        }
        self.index.on_delta(d);
        match d {
            // Visibility changed: the cached heights are stale.
            SchedDelta::StageRevealed { job, .. } => {
                self.heights.remove(job);
            }
            SchedDelta::JobCompleted { job } => {
                self.heights.remove(job);
            }
            _ => {}
        }
    }

    fn reset(&mut self) {
        self.index.clear();
        self.heights.clear();
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
            // Collect every ready stage with its rank.
            let mut candidates: Vec<(Rank, &JobRt, StageId)> = Vec::new();
            for job in &ctx.jobs {
                let heights = visible_heights(job);
                for &s in job.ready_stage_ids() {
                    candidates.push((rank(job, s, &heights), job, s));
                }
            }
            // Jobs are served in arrival order (Argus is job-duration-blind);
            // the topology rank orders stages *within* a job. Comparing ranks
            // across jobs would strictly prioritize the deepest application —
            // longest-app-first, which no fair reading of Argus intends.
            candidates.sort_by(|a, b| {
                (a.1.arrival(), a.1.id())
                    .cmp(&(b.1.arrival(), b.1.id()))
                    .then_with(|| b.0.cmp(&a.0))
                    .then_with(|| a.2.cmp(&b.2))
            });
            let mut p = Preference::new();
            for (_, job, s) in candidates {
                Budget::UNBOUNDED.push_stage(&mut p, job, s);
            }
            return p;
        }

        // Incremental path: the (arrival, id) job order is the index order,
        // and the full-key sort above groups candidates by job first — so
        // ranking stages *within* each job in index order reproduces the
        // rebuild schedule exactly. A job with no ready stage contributes
        // no candidate, so the walk visits ready jobs only. If the index
        // had to rebuild (context outside the delta stream), the heights
        // cache missed the same reveals: drop it too.
        if self.index.refresh(ctx, |j| j.arrival()) {
            self.heights.clear();
        }
        let budget = Budget::of(ctx);
        let mut p = Preference::new();
        for id in self.index.ready_ids() {
            if budget.met(&p) {
                break;
            }
            let Some(job) = ctx.job(id) else { continue };
            let ready = job.ready_stage_ids();
            let heights = self
                .heights
                .entry(id)
                .or_insert_with(|| visible_heights(job));
            let mut ranked: Vec<(Rank, StageId)> =
                ready.iter().map(|&s| (rank(job, s, heights), s)).collect();
            ranked.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
            for (_, s) in ranked {
                budget.push_stage(&mut p, job, s);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{assert_same_schedule, run_two_class_workload};

    #[test]
    fn completes_the_fixture() {
        let r = run_two_class_workload(&mut Argus::new());
        assert_eq!(r.incomplete, 0);
        assert_eq!(r.scheduler, "Argus");
    }

    #[test]
    fn incremental_matches_rebuild() {
        assert_same_schedule(&mut Argus::new(), &mut Argus::rebuild());
    }

    #[test]
    fn rank_orders_lexicographically() {
        let a = Rank {
            depth_per_mille: 900,
            children: 0,
            tasks: 0,
        };
        let b = Rank {
            depth_per_mille: 500,
            children: 9,
            tasks: 9,
        };
        assert!(a > b, "depth dominates");
        let c = Rank {
            depth_per_mille: 500,
            children: 2,
            tasks: 0,
        };
        assert!(
            c > Rank {
                depth_per_mille: 500,
                children: 1,
                tasks: 5
            },
            "children beat tasks"
        );
    }
}
