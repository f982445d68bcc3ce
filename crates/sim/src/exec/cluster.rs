//! The routed replica-table backend — the paper's *simulator*.
//!
//! A [`ClusterExec`] serves from the flat replica table of a
//! [`ClusterSpec`]: each replica inherits its group's decode-latency
//! curve and batch capacity, so a cluster can mix, say, a small pool of
//! fast high-capacity replicas with a larger pool of slow ones. Within a
//! replica, decoding is rate-rescaling batching (the shared
//! `ReplicaBatch`): progress since the last batch membership change
//! is settled at the old per-token rate, and the batch is re-timed at
//! the new rate. Only the earliest survivor's finish event is posted —
//! the next membership change re-times the batch anyway, at the latest
//! when that event fires — so a busy replica holds exactly one live
//! event, and a per-task epoch invalidates the one it supersedes.
//! Between membership changes the backend is idle — no per-iteration
//! events — which is what makes this fidelity fast.
//!
//! Placement follows the spec's routing policy through the shared
//! `RoutedSlots`: least-loaded, and session affinity's spill, pick
//! [`SlotLedger::least_loaded`] (fewest occupied slots, then most free
//! slots, then lowest index); join-shortest-queue scans per-replica
//! queued decode tokens kept current at each admit and drain. The
//! homogeneous least-loaded spec ([`ClusterSpec::homogeneous`]) is the
//! paper's pool.

use llmsched_cluster::ClusterSpec;
use llmsched_dag::work::LlmWork;

use super::batching::{ReplicaBatch, RoutedSlots};
use super::{ExecCtx, ExecutorBackend, LlmTaskRef, SlotLedger};

/// The heterogeneous routed multi-replica backend.
#[derive(Debug)]
pub struct ClusterExec {
    units: Vec<ReplicaBatch>,
    slots: RoutedSlots,
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
            slots: RoutedSlots::new(&units, spec.routing),
            units,
        }
    }
}

impl ExecutorBackend for ClusterExec {
    fn name(&self) -> &'static str {
        "cluster"
    }

    fn descriptor(&self) -> String {
        format!("cluster/{}", self.slots.policy())
    }

    fn ledger(&self) -> &SlotLedger {
        &self.slots.ledger
    }

    fn place(&mut self, task: LlmTaskRef, work: LlmWork) -> Option<usize> {
        self.slots.place(task.job, work.folded_tokens())
    }

    fn admit(&mut self, exec: usize, task: LlmTaskRef, work: LlmWork, cx: &mut ExecCtx<'_>) {
        let unit = &mut self.units[exec];
        unit.settle(cx.now);
        unit.join(task, work.folded_tokens());
        unit.retime(cx);
        self.slots.set(unit.view(exec, 0, 0));
        if cx.probe.is_some() {
            let view = self.slots.view(exec);
            cx.emit(llmsched_telemetry::ProbeEvent::Routed {
                at: cx.now,
                job_index: task.job as u32,
                exec: exec as u32,
                group: view.group as u32,
                policy: self.slots.policy(),
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
        // Fully analytic: completions arrive as each replica's one live
        // finish event (its earliest finisher), never via step wake-ups.
        false
    }

    fn drain(&mut self, exec: usize, task: LlmTaskRef, cx: &mut ExecCtx<'_>) {
        let unit = &mut self.units[exec];
        unit.settle(cx.now);
        unit.drain(task);
        unit.retime(cx);
        self.slots.set(unit.view(exec, 0, 0));
        cx.emit(llmsched_telemetry::ProbeEvent::BatchDrain {
            at: cx.now,
            exec: exec as u32,
            occupancy: self.slots.ledger.occupancy(exec) as u32,
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

    /// The paper's pool: `n` identical least-loaded replicas batching up
    /// to 8, decoding on `latency`.
    fn homogeneous(n: usize, latency: &LatencyProfile) -> ClusterExec {
        ClusterExec::new(&ClusterSpec::homogeneous(n, 8, latency.clone()))
    }

    #[test]
    fn retime_keeps_one_live_finish_event_per_busy_replica() {
        let latency = profile(10);
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(4)];
        let mut be = homogeneous(2, &latency);

        // Every membership change posts exactly one event: the replica's
        // earliest finisher.
        let changes: [(usize, u32, Option<u64>); 5] = [
            (0, 0, Some(300)),
            (0, 1, Some(100)),
            (1, 2, Some(200)),
            (0, 3, Some(50)),
            // Kill task 3 before its posted finish event fires.
            (0, 3, None),
        ];
        for (i, (exec, task, tokens)) in changes.into_iter().enumerate() {
            let mut cx = ExecCtx::for_test(SimTime::ZERO, &latency, &mut queue, &mut jobs);
            match tokens {
                Some(n) => be.admit(exec, t(0, task), w(n), &mut cx),
                None => be.drain(exec, t(0, task), &mut cx),
            }
            assert_eq!(queue.len(), i + 1, "one event per membership change");
        }
        assert_eq!((be.ledger().occupancy(0), be.ledger().occupancy(1)), (2, 1));

        let mut live = Vec::new();
        while let Some((time, ev)) = queue.pop() {
            if let Event::TaskFinish { task, epoch, .. } = ev {
                if epoch == jobs[0].task_epoch_of(0, task) {
                    live.push((task, time.as_secs_f64()));
                }
            }
        }
        // Replica 0 batches tasks 0 and 1 (100 tokens before 300) and
        // replica 1 task 2; the killed task 3 left nothing live.
        assert_eq!(live.len(), 2, "one live finish event per busy replica");
        assert_eq!((live[0].0, live[1].0), (1, 2));
        assert!((live[0].1 - 1.0).abs() < 1e-9 && (live[1].1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn drain_releases_slot_and_retimes_survivors() {
        let latency = profile(10);
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(4)];
        let mut be = homogeneous(2, &latency);

        let mut cx = ExecCtx::for_test(SimTime::ZERO, &latency, &mut queue, &mut jobs);
        be.admit(0, t(0, 0), w(100), &mut cx);
        be.admit(0, t(0, 1), w(200), &mut cx);
        be.drain(0, t(0, 0), &mut cx);
        assert_eq!(be.ledger().occupancy(0), 1);
        assert_eq!(be.ledger().occupancy(1), 0, "other executors untouched");
        let before = queue.len();
        // Draining an already-absent task leaves occupancy alone but
        // re-times the survivor (one more finish event).
        let mut cx = ExecCtx::for_test(SimTime::ZERO, &latency, &mut queue, &mut jobs);
        be.drain(0, t(0, 0), &mut cx);
        assert_eq!(be.ledger().occupancy(0), 1);
        assert_eq!(queue.len(), before + 1);
    }

    #[test]
    fn only_latest_epoch_finish_event_is_valid() {
        let latency = profile(10);
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(1)];
        let mut be = homogeneous(1, &latency);

        let mut cx = ExecCtx::for_test(SimTime::ZERO, &latency, &mut queue, &mut jobs);
        be.admit(0, t(0, 0), w(100), &mut cx);
        let mut cx =
            ExecCtx::for_test(SimTime::from_secs_f64(0.5), &latency, &mut queue, &mut jobs);
        // A no-op membership change (drain of an absent task) still
        // re-times: the old event goes stale.
        be.drain(0, t(0, 99), &mut cx);
        let current_epoch = jobs[0].task_epoch_of(0, 0);
        let mut valid = 0;
        while let Some((_, ev)) = queue.pop() {
            if let Event::TaskFinish { epoch, .. } = ev {
                valid += u32::from(epoch == current_epoch);
            }
        }
        assert_eq!(valid, 1, "exactly one live finish event for the lone task");
    }

    #[test]
    fn settles_progress_before_rescaling() {
        // l(1)=10ms, l(2)=20ms. Task A (100 tokens) runs alone for 0.5s
        // (50 tokens done), then B joins: A's remaining 50 tokens at
        // 20ms/token => finish at 0.5 + 1.0 = 1.5s.
        let latency = LatencyProfile::new(vec![
            (1, SimDuration::from_millis(10)),
            (2, SimDuration::from_millis(20)),
        ])
        .unwrap();
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(2)];
        let mut be = homogeneous(1, &latency);

        let mut cx = ExecCtx::for_test(SimTime::ZERO, &latency, &mut queue, &mut jobs);
        be.admit(0, t(0, 0), w(100), &mut cx);
        let mut cx =
            ExecCtx::for_test(SimTime::from_secs_f64(0.5), &latency, &mut queue, &mut jobs);
        be.admit(0, t(0, 1), w(100), &mut cx);
        let epoch_a = jobs[0].task_epoch_of(0, 0);
        let mut finish_a = None;
        while let Some((time, ev)) = queue.pop() {
            if let Event::TaskFinish { task: 0, epoch, .. } = ev {
                if epoch == epoch_a {
                    finish_a = Some(time);
                }
            }
        }
        let finish_a = finish_a.expect("task 0 has a live finish event");
        assert!(
            (finish_a.as_secs_f64() - 1.5).abs() < 1e-9,
            "expected 1.5s, got {finish_a}"
        );
    }

    #[test]
    fn pool_views_report_occupancy() {
        let latency = profile(10);
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(4)];
        let mut be = homogeneous(2, &latency);
        let mut cx = ExecCtx::for_test(SimTime::ZERO, &latency, &mut queue, &mut jobs);
        be.admit(1, t(0, 0), w(10), &mut cx);
        let views = be.ledger().views();
        assert_eq!(views.len(), 2);
        assert_eq!((views[0].batch_len, views[1].batch_len), (0, 1));
        assert_eq!((views[0].max_batch, views[1].max_batch), (8, 8));
        assert_eq!(be.place(t(0, 1), w(10)), Some(0));
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
