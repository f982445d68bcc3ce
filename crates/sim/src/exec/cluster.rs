//! The heterogeneous multi-group cluster backend.
//!
//! A [`ClusterExec`] serves from the flat replica table of a
//! [`ClusterSpec`]: each replica inherits its group's decode-latency
//! curve and batch capacity, so a cluster can mix, say, a small pool of
//! fast high-capacity replicas with a larger pool of slow ones. Within a
//! replica, decoding follows the same rate-rescaling analytics as
//! [`AnalyticExec`](super::AnalyticExec) — settle progress on every batch
//! membership change, re-post finish events at the new rate — but against
//! the *replica's own* latency curve rather than the engine-wide
//! reference curve.
//!
//! Placement is what makes this backend cluster-shaped: instead of the
//! paper's fixed least-loaded rule, [`ExecutorBackend::place`] delegates
//! to the [`Router`] the spec configured (least-loaded,
//! join-shortest-queue, or session affinity), fed per-replica occupancy,
//! capacity and queued decode tokens.

use llmsched_cluster::{ClusterSpec, ReplicaView, RouteRequest, Router};
use llmsched_dag::work::LlmWork;

use super::batching::ReplicaBatch;
use super::{ExecCtx, ExecutorBackend, LlmTaskRef, SlotLedger};

/// The heterogeneous routed multi-replica backend.
#[derive(Debug)]
pub struct ClusterExec {
    units: Vec<ReplicaBatch>,
    ledger: SlotLedger,
    router: Box<dyn Router>,
    /// Reused router-view buffer: refilled per `place` call instead of
    /// collecting a fresh `Vec` (placement is per-dispatched-task hot).
    view_scratch: Vec<ReplicaView>,
}

impl ClusterExec {
    /// Builds the backend a [`ClusterSpec`] describes (serving replicas
    /// only; when the spec is disaggregated the prefill group is skipped
    /// here — use [`DisaggExec`](super::DisaggExec) for the split path).
    ///
    /// # Panics
    /// Panics if the spec fails [`ClusterSpec::validate`].
    pub fn new(spec: &ClusterSpec) -> Self {
        spec.validate().expect("invalid cluster spec");
        let units = ReplicaBatch::table(spec);
        ClusterExec {
            ledger: SlotLedger::new(units.iter().map(|u| u.capacity)),
            units,
            router: spec.routing.build(),
            view_scratch: Vec::new(),
        }
    }
}

impl ExecutorBackend for ClusterExec {
    fn name(&self) -> &'static str {
        "cluster"
    }

    fn descriptor(&self) -> String {
        format!("cluster/{}", self.router.name())
    }

    fn ledger(&self) -> &SlotLedger {
        &self.ledger
    }

    fn place(&mut self, task: LlmTaskRef, work: LlmWork) -> Option<usize> {
        let mut views = std::mem::take(&mut self.view_scratch);
        views.clear();
        views.extend(self.units.iter().enumerate().map(|(i, u)| u.view(i, 0, 0)));
        let chosen = self.router.route(
            &views,
            RouteRequest {
                job: task.job as u64,
                tokens: work.folded_tokens(),
            },
        );
        self.view_scratch = views;
        chosen
    }

    fn admit(&mut self, exec: usize, task: LlmTaskRef, work: LlmWork, cx: &mut ExecCtx<'_>) {
        let unit = &mut self.units[exec];
        unit.settle(cx.now);
        unit.join(task, work.folded_tokens());
        unit.retime(cx);
        self.ledger.set(exec, unit.len());
        if cx.probe.is_some() {
            let view = self.units[exec].view(exec, 0, 0);
            cx.emit(llmsched_telemetry::ProbeEvent::Routed {
                at: cx.now,
                job_index: task.job as u32,
                exec: exec as u32,
                group: view.group as u32,
                policy: self.router.name(),
            });
            cx.emit(llmsched_telemetry::ProbeEvent::BatchAdmit {
                at: cx.now,
                exec: exec as u32,
                occupancy: view.occupancy as u32,
                capacity: view.capacity as u32,
            });
        }
    }

    fn step(
        &mut self,
        _exec: usize,
        _epoch: u64,
        _cx: &mut ExecCtx<'_>,
        _finished: &mut Vec<LlmTaskRef>,
    ) -> bool {
        // Fully analytic: completions arrive as re-timed finish events,
        // never via step wake-ups.
        false
    }

    fn drain(&mut self, exec: usize, task: LlmTaskRef, cx: &mut ExecCtx<'_>) {
        let unit = &mut self.units[exec];
        unit.settle(cx.now);
        unit.drain(task);
        unit.retime(cx);
        self.ledger.set(exec, unit.len());
        cx.emit(llmsched_telemetry::ProbeEvent::BatchDrain {
            at: cx.now,
            exec: exec as u32,
            occupancy: self.ledger.occupancy(exec) as u32,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventQueue};
    use llmsched_cluster::{LatencyProfile, ReplicaGroup, RoutingPolicy};
    use llmsched_dag::time::{SimDuration, SimTime};

    fn profile(ms_per_token: u64) -> LatencyProfile {
        LatencyProfile::new(vec![(1, SimDuration::from_millis(ms_per_token))]).unwrap()
    }

    fn hetero_spec(routing: RoutingPolicy) -> ClusterSpec {
        ClusterSpec::new(
            vec![
                ReplicaGroup::new("fast", 1, 4, profile(10)),
                ReplicaGroup::new("slow", 2, 2, profile(40)),
            ],
            routing,
        )
    }

    fn t(job: usize, task: u32) -> LlmTaskRef {
        LlmTaskRef {
            job,
            stage: 0,
            task,
        }
    }

    fn w(tokens: u64) -> LlmWork {
        LlmWork {
            prompt_tokens: 0,
            output_tokens: tokens,
        }
    }

    #[test]
    fn flattens_groups_with_per_replica_capacity() {
        let be = ClusterExec::new(&hetero_spec(RoutingPolicy::LeastLoaded));
        let ledger = be.ledger();
        assert_eq!(ledger.views().len(), 3);
        assert_eq!(
            (ledger.capacity(0), ledger.capacity(1), ledger.capacity(2)),
            (4, 2, 2)
        );
        assert_eq!(be.descriptor(), "cluster/least-loaded");
        assert_eq!(be.name(), "cluster");
    }

    #[test]
    fn decode_rate_follows_the_replica_group_curve() {
        // Same 100-token task on the fast (10 ms/tok) and a slow
        // (40 ms/tok) replica: finish events 1 s vs 4 s out.
        let reference = profile(10);
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(2)];
        let mut be = ClusterExec::new(&hetero_spec(RoutingPolicy::LeastLoaded));
        let mut cx = ExecCtx::for_test(SimTime::ZERO, &reference, &mut queue, &mut jobs);
        be.admit(0, t(0, 0), w(100), &mut cx);
        be.admit(1, t(0, 1), w(100), &mut cx);
        let mut finishes = Vec::new();
        while let Some((time, ev)) = queue.pop() {
            if let Event::TaskFinish { task, .. } = ev {
                finishes.push((task, time.as_secs_f64()));
            }
        }
        finishes.sort_by_key(|f| f.0);
        assert!((finishes[0].1 - 1.0).abs() < 1e-9, "fast replica: 1 s");
        assert!((finishes[1].1 - 4.0).abs() < 1e-9, "slow replica: 4 s");
    }

    #[test]
    fn router_policy_drives_placement() {
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(4)];
        let mut be = ClusterExec::new(&hetero_spec(RoutingPolicy::JoinShortestQueue));
        let reference = profile(10);
        let mut cx = ExecCtx::for_test(SimTime::ZERO, &reference, &mut queue, &mut jobs);
        // Load the fast replica with one huge request; JSQ then prefers
        // the token-empty slow replicas even though occupancies tie after
        // the first admit.
        let first = be.place(t(0, 0), w(5000)).unwrap();
        be.admit(first, t(0, 0), w(5000), &mut cx);
        let second = be.place(t(0, 1), w(10)).unwrap();
        assert_ne!(second, first, "JSQ avoids the replica holding 5k tokens");
    }

    #[test]
    fn drain_releases_slot_and_queue_tokens() {
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(4)];
        let mut be = ClusterExec::new(&hetero_spec(RoutingPolicy::LeastLoaded));
        let reference = profile(10);
        let mut cx = ExecCtx::for_test(SimTime::ZERO, &reference, &mut queue, &mut jobs);
        be.admit(0, t(0, 0), w(100), &mut cx);
        assert_eq!(be.ledger().occupancy(0), 1);
        assert_eq!(be.units[0].pending_tokens, 100);
        be.drain(0, t(0, 0), &mut cx);
        assert_eq!(be.ledger().occupancy(0), 0);
        assert_eq!(be.units[0].pending_tokens, 0);
        // Draining an absent task is a no-op.
        be.drain(0, t(0, 0), &mut cx);
        assert_eq!(be.units[0].pending_tokens, 0);
    }

    #[test]
    fn full_cluster_refuses_placement() {
        let spec = ClusterSpec::new(
            vec![ReplicaGroup::new("tiny", 1, 1, profile(10))],
            RoutingPolicy::LeastLoaded,
        );
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(2)];
        let mut be = ClusterExec::new(&spec);
        let reference = profile(10);
        let mut cx = ExecCtx::for_test(SimTime::ZERO, &reference, &mut queue, &mut jobs);
        be.admit(0, t(0, 0), w(10), &mut cx);
        assert_eq!(be.place(t(0, 1), w(10)), None);
    }
}
