//! Shared per-replica batch state for the replica-table backends.
//!
//! [`ClusterExec`](super::ClusterExec) (the paper's simulator) and
//! [`DisaggExec`](super::DisaggExec) both decode under the analytic
//! rate-rescaling model, each replica against its *own* group's latency
//! curve. That subtle settle/retime logic lives here exactly once; the
//! backends differ only in how requests reach the batch (directly vs.
//! via prefill transit). Their slot accounting and placement live here
//! once too ([`RoutedSlots`]).

use llmsched_cluster::{
    home_replica, ClusterSpec, JoinShortestQueue, LatencyProfile, ReplicaView, RouteRequest,
    Router, RoutingPolicy,
};
use llmsched_dag::time::{SimDuration, SimTime};

use super::{ExecCtx, LlmTaskRef, SlotLedger};

/// The slot ledger of a replica table plus the placement its spec's
/// routing policy makes over it.
///
/// Least-loaded placement, and session affinity's spill when the home
/// replica is full, are [`SlotLedger::least_loaded`]: one scan of the
/// ledger's views. Only join-shortest-queue needs the queued decode
/// tokens the ledger does not keep; it scans `views`, which
/// [`RoutedSlots::set`] keeps current at every occupancy change.
#[derive(Debug)]
pub(super) struct RoutedSlots {
    pub(super) ledger: SlotLedger,
    /// Every replica's router view as of its last occupancy change.
    views: Vec<ReplicaView>,
    routing: RoutingPolicy,
}

impl RoutedSlots {
    /// An idle table over `units` under `routing`.
    pub(super) fn new(units: &[ReplicaBatch], routing: RoutingPolicy) -> Self {
        let views: Vec<ReplicaView> = units
            .iter()
            .enumerate()
            .map(|(i, u)| u.view(i, 0, 0))
            .collect();
        RoutedSlots {
            ledger: SlotLedger::new(views.iter().map(|v| v.capacity)),
            views,
            routing,
        }
    }

    /// Records replica `view.index`'s state after an occupancy change.
    pub(super) fn set(&mut self, view: ReplicaView) {
        self.ledger.set(view.index, view.occupancy);
        self.views[view.index] = view;
    }

    /// Replica `exec`'s router view.
    pub(super) fn view(&self, exec: usize) -> ReplicaView {
        self.views[exec]
    }

    /// The routing policy's name (e.g. `"jsq"`).
    pub(super) fn policy(&self) -> &'static str {
        self.routing.name()
    }

    /// The replica a request of dense job `job` with `tokens` decode
    /// tokens joins, or `None` when every replica is full.
    pub(super) fn place(&self, job: usize, tokens: u64) -> Option<usize> {
        match self.routing {
            RoutingPolicy::LeastLoaded => self.ledger.least_loaded(),
            RoutingPolicy::SessionAffinity => {
                // A validated spec has at least one serving replica.
                let home = home_replica(job as u64, self.views.len());
                if self.ledger.occupancy(home) < self.ledger.capacity(home) {
                    Some(home)
                } else {
                    self.ledger.least_loaded()
                }
            }
            RoutingPolicy::JoinShortestQueue => JoinShortestQueue.route(
                &self.views,
                RouteRequest {
                    job: job as u64,
                    tokens,
                },
            ),
        }
    }
}

/// One running task and its outstanding decode work.
#[derive(Debug, Clone)]
struct Running {
    task: LlmTaskRef,
    remaining_tokens: f64,
    /// Tokens charged to the replica's queue at admission, released at
    /// drain (keeps JSQ accounting exact under f64 progress rounding).
    admitted_tokens: u64,
}

/// One replica's decode batch under analytic rate-rescaling, plus its
/// group-derived parameters.
#[derive(Debug)]
pub(super) struct ReplicaBatch {
    /// Replica-group index in the originating [`ClusterSpec`].
    pub(super) group: usize,
    /// Maximum co-batched requests.
    pub(super) capacity: usize,
    latency: LatencyProfile,
    running: Vec<Running>,
    /// Decode tokens admitted to the batch and not yet drained.
    pub(super) pending_tokens: u64,
    last_settle: SimTime,
    /// The task whose finish event is the replica's one live event: the
    /// earliest finisher at the last retime. The next retime invalidates
    /// it whether the task still runs, finished or was drained early.
    posted: Option<LlmTaskRef>,
}

impl ReplicaBatch {
    /// The flat serving-replica table of `spec`, one batch per replica.
    pub(super) fn table(spec: &ClusterSpec) -> Vec<ReplicaBatch> {
        spec.serving_replicas()
            .into_iter()
            .map(|(group, g)| ReplicaBatch {
                group,
                capacity: g.max_batch,
                latency: g.latency.clone(),
                running: Vec::new(),
                pending_tokens: 0,
                last_settle: SimTime::ZERO,
                posted: None,
            })
            .collect()
    }

    /// Settles decode progress since the last membership change at the
    /// replica's current batch rate.
    pub(super) fn settle(&mut self, now: SimTime) {
        if !self.running.is_empty() {
            let elapsed = (now - self.last_settle).as_secs_f64();
            if elapsed > 0.0 {
                let rate = self.latency.per_token(self.running.len()).as_secs_f64();
                let done = elapsed / rate;
                for r in &mut self.running {
                    r.remaining_tokens = (r.remaining_tokens - done).max(0.0);
                }
            }
        }
        self.last_settle = now;
    }

    /// Re-times the batch at the replica's current rate: invalidates the
    /// previously posted finish event and posts one for the earliest
    /// finisher only (ties go to the earlier position in `running`).
    ///
    /// This schedules exactly the completions a re-post of every
    /// survivor would: such a re-post pushes its events back to back, and
    /// the next retime on this replica — at the latest the drain of the
    /// first of them to fire — makes all of them stale, so only the
    /// block's `(time, seq)` minimum can ever fire. Posting just that
    /// minimum keeps the relative pop order of every event that fires.
    pub(super) fn retime(&mut self, cx: &mut ExecCtx<'_>) {
        if let Some(stale) = self.posted.take() {
            cx.cancel_finish(stale);
        }
        if self.running.is_empty() {
            return;
        }
        let rate = self.latency.per_token(self.running.len()).as_secs_f64();
        let (at, task) = self
            .running
            .iter()
            .map(|r| {
                let finish = cx.now + SimDuration::from_secs_f64(r.remaining_tokens * rate);
                (finish, r.task)
            })
            .min_by_key(|&(finish, _)| finish)
            .expect("non-empty batch");
        cx.post_finish(task, at);
        self.posted = Some(task);
    }

    /// Adds `task` with `tokens` to decode. Callers settle before and
    /// retime after (possibly batching several joins into one retime).
    pub(super) fn join(&mut self, task: LlmTaskRef, tokens: u64) {
        self.running.push(Running {
            task,
            remaining_tokens: tokens as f64,
            admitted_tokens: tokens,
        });
        self.pending_tokens += tokens;
    }

    /// Removes `task` if present, releasing its queue tokens; returns
    /// whether it was running.
    pub(super) fn drain(&mut self, task: LlmTaskRef) -> bool {
        if let Some(i) = self.running.iter().position(|r| r.task == task) {
            let removed = self.running.remove(i);
            self.pending_tokens -= removed.admitted_tokens;
            true
        } else {
            false
        }
    }

    /// The router-visible view of this replica. `staged` /
    /// `staged_tokens` account for requests holding a slot without
    /// decoding yet (the disaggregated backend's prefill transit).
    pub(super) fn view(&self, index: usize, staged: usize, staged_tokens: u64) -> ReplicaView {
        ReplicaView {
            index,
            group: self.group,
            occupancy: self.running.len() + staged,
            capacity: self.capacity,
            pending_tokens: self.pending_tokens + staged_tokens,
        }
    }
}

#[cfg(test)]
mod tests {
    //! One live finish event per busy replica against the protocol it
    //! replaced: a test-local reference that re-posts a finish event for
    //! every survivor at each membership change. Both are driven through
    //! the same seeded admit / kill / deliver sequence and must complete
    //! the same tasks at the same instants, in the same order.

    use super::*;
    use crate::event::{Event, EventQueue};
    use crate::exec::{ClusterExec, DisaggExec, ExecutorBackend};
    use crate::state::JobRt;
    use llmsched_cluster::{DisaggSpec, ReplicaGroup, RoutingPolicy};
    use llmsched_dag::work::LlmWork;

    const TASKS: u32 = 240;

    /// xorshift64*: a seeded operation stream with no dependency.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
        }
    }

    fn t(task: u32) -> LlmTaskRef {
        LlmTaskRef {
            job: 0,
            stage: 0,
            task,
        }
    }

    /// A curve whose rate moves with every batch size up to 4.
    fn curve(ms: u64) -> LatencyProfile {
        LatencyProfile::new(vec![
            (1, SimDuration::from_millis(ms)),
            (2, SimDuration::from_millis(ms + ms / 2)),
            (3, SimDuration::from_millis(2 * ms)),
            (4, SimDuration::from_millis(3 * ms)),
        ])
        .unwrap()
    }

    /// The backend under test, driven as the engine drives it.
    struct Real {
        be: Box<dyn ExecutorBackend>,
        reference: LatencyProfile,
        queue: EventQueue,
        jobs: [JobRt; 1],
        /// Executor holding each task's slot, if it holds one.
        held: Vec<Option<usize>>,
        done: Vec<(u32, SimTime)>,
    }

    impl Real {
        fn new(be: Box<dyn ExecutorBackend>) -> Self {
            Real {
                be,
                reference: curve(10),
                queue: EventQueue::new(),
                jobs: [crate::state::test_support::job_with_llm_tasks(TASKS)],
                held: vec![None; TASKS as usize],
                done: Vec::new(),
            }
        }

        /// Delivers every event due at or before `until`.
        fn advance(&mut self, until: SimTime) {
            while self.queue.peek_time().is_some_and(|at| at <= until) {
                let (now, ev) = self.queue.pop().expect("peeked");
                let mut cx =
                    ExecCtx::for_test(now, &self.reference, &mut self.queue, &mut self.jobs);
                match ev {
                    Event::LlmStep { exec, epoch } => {
                        let mut finished = Vec::new();
                        assert!(!self.be.step(exec, epoch, &mut cx, &mut finished));
                        assert!(finished.is_empty(), "analytic decode never steps out");
                    }
                    Event::TaskFinish { task, epoch, .. } => {
                        if cx.jobs[0].task_epoch_of(0, task) != epoch {
                            continue;
                        }
                        // The epoch alone must settle validity: a live
                        // event never outlives its task's slot.
                        let exec = self.held[task as usize]
                            .take()
                            .expect("a live finish event belongs to a task holding a slot");
                        self.done.push((task, now));
                        self.be.drain(exec, t(task), &mut cx);
                    }
                    Event::Arrival { .. } => unreachable!("no arrivals posted"),
                }
            }
        }

        fn admit(&mut self, exec: usize, task: u32, work: LlmWork, now: SimTime) {
            self.held[task as usize] = Some(exec);
            let mut cx = ExecCtx::for_test(now, &self.reference, &mut self.queue, &mut self.jobs);
            self.be.admit(exec, t(task), work, &mut cx);
        }

        fn kill(&mut self, task: u32, now: SimTime) {
            let exec = self.held[task as usize]
                .take()
                .expect("killed task holds a slot");
            let mut cx = ExecCtx::for_test(now, &self.reference, &mut self.queue, &mut self.jobs);
            self.be.drain(exec, t(task), &mut cx);
        }
    }

    /// One replica of the reference model.
    struct RefReplica {
        latency: LatencyProfile,
        /// `(task, remaining decode tokens)` in join order.
        running: Vec<(u32, f64)>,
        /// `(task, decode tokens, KV arrival)` of disaggregated transit.
        transit: Vec<(u32, u64, SimTime)>,
        last_settle: SimTime,
    }

    /// The oracle: rate-rescaling decode that, at every membership
    /// change, re-posts a finish event for every running task and
    /// invalidates the old ones through per-task epochs.
    struct Reference {
        reps: Vec<RefReplica>,
        /// Disaggregated prefill: per-replica free times, per-token
        /// prefill cost and KV transfer delay.
        prefill: Option<(Vec<SimTime>, SimDuration, SimDuration)>,
        queue: EventQueue,
        epochs: Vec<u32>,
        held: Vec<Option<usize>>,
        done: Vec<(u32, SimTime)>,
    }

    impl Reference {
        fn new(spec: &ClusterSpec) -> Self {
            Reference {
                reps: spec
                    .serving_replicas()
                    .into_iter()
                    .map(|(_, g)| RefReplica {
                        latency: g.latency.clone(),
                        running: Vec::new(),
                        transit: Vec::new(),
                        last_settle: SimTime::ZERO,
                    })
                    .collect(),
                prefill: spec.disagg.as_ref().map(|d| {
                    (
                        vec![SimTime::ZERO; spec.groups[d.prefill_group].replicas],
                        d.prefill_per_token,
                        d.transfer_delay,
                    )
                }),
                queue: EventQueue::new(),
                epochs: vec![0; TASKS as usize],
                held: vec![None; TASKS as usize],
                done: Vec::new(),
            }
        }

        fn settle(&mut self, exec: usize, now: SimTime) {
            let rep = &mut self.reps[exec];
            let elapsed = (now - rep.last_settle).as_secs_f64();
            if !rep.running.is_empty() && elapsed > 0.0 {
                let rate = rep.latency.per_token(rep.running.len()).as_secs_f64();
                for r in &mut rep.running {
                    r.1 = (r.1 - elapsed / rate).max(0.0);
                }
            }
            rep.last_settle = now;
        }

        fn retime_every_survivor(&mut self, exec: usize, now: SimTime) {
            let rep = &self.reps[exec];
            if rep.running.is_empty() {
                return;
            }
            let rate = rep.latency.per_token(rep.running.len()).as_secs_f64();
            for &(task, remaining) in &rep.running {
                self.epochs[task as usize] += 1;
                self.queue.push(
                    now + SimDuration::from_secs_f64(remaining * rate),
                    Event::TaskFinish {
                        job: 0,
                        stage: 0,
                        task,
                        epoch: self.epochs[task as usize],
                    },
                );
            }
        }

        /// Releases `task`'s slot on `exec`, as a completion or a kill.
        fn remove(&mut self, exec: usize, task: u32, now: SimTime) {
            self.settle(exec, now);
            let rep = &mut self.reps[exec];
            if let Some(i) = rep.running.iter().position(|r| r.0 == task) {
                rep.running.remove(i);
                self.retime_every_survivor(exec, now);
            } else if let Some(i) = rep.transit.iter().position(|r| r.0 == task) {
                rep.transit.remove(i);
            }
        }

        fn advance(&mut self, until: SimTime) {
            while self.queue.peek_time().is_some_and(|at| at <= until) {
                let (now, ev) = self.queue.pop().expect("peeked");
                match ev {
                    Event::LlmStep { exec, .. } => {
                        if !self.reps[exec].transit.iter().any(|r| r.2 <= now) {
                            continue;
                        }
                        self.settle(exec, now);
                        let RefReplica {
                            running, transit, ..
                        } = &mut self.reps[exec];
                        transit.retain(|&(task, tokens, ready)| {
                            let due = ready <= now;
                            if due {
                                running.push((task, tokens as f64));
                            }
                            !due
                        });
                        self.retime_every_survivor(exec, now);
                    }
                    Event::TaskFinish { task, epoch, .. } => {
                        if self.epochs[task as usize] != epoch {
                            continue;
                        }
                        let Some(exec) = self.held[task as usize].take() else {
                            continue;
                        };
                        self.done.push((task, now));
                        self.remove(exec, task, now);
                    }
                    Event::Arrival { .. } => unreachable!("no arrivals posted"),
                }
            }
        }

        fn admit(&mut self, exec: usize, task: u32, work: LlmWork, now: SimTime) {
            self.held[task as usize] = Some(exec);
            match &mut self.prefill {
                None => {
                    self.settle(exec, now);
                    let tokens = work.folded_tokens() as f64;
                    self.reps[exec].running.push((task, tokens));
                    self.retime_every_survivor(exec, now);
                }
                Some((free_at, per_token, transfer)) => {
                    let p = (0..free_at.len()).min_by_key(|&i| free_at[i]).unwrap();
                    free_at[p] = free_at[p].max(now) + *per_token * work.prompt_tokens;
                    let ready = free_at[p] + *transfer;
                    let tokens = work.decode_tokens();
                    self.reps[exec].transit.push((task, tokens, ready));
                    self.queue.push(ready, Event::LlmStep { exec, epoch: 0 });
                }
            }
        }

        fn kill(&mut self, task: u32, now: SimTime) {
            let exec = self.held[task as usize]
                .take()
                .expect("killed task holds a slot");
            self.remove(exec, task, now);
        }
    }

    /// Runs one seeded admit / kill / deliver sequence through `be` and
    /// the reference; returns the completions.
    fn compare(be: Box<dyn ExecutorBackend>, spec: &ClusterSpec, seed: u64) -> Vec<(u32, SimTime)> {
        let name = be.descriptor();
        let mut real = Real::new(be);
        let mut oracle = Reference::new(spec);
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let mut now = SimTime::ZERO;
        let mut next_task = 0;
        for op in 0..2_000 {
            // Coarse 5 ms steps (often zero) put admits, kills and
            // finishes on shared instants.
            now += SimDuration::from_millis(5) * rng.below(4);
            real.advance(now);
            oracle.advance(now);
            assert_eq!(real.done, oracle.done, "{name} seed {seed} op {op}");
            match rng.below(8) {
                0..=3 if next_task < TASKS => {
                    // Few distinct token counts: equal finish times tie
                    // on position in the batch.
                    let work = LlmWork {
                        prompt_tokens: 10 * rng.below(3),
                        output_tokens: 10 * (1 + rng.below(3)),
                    };
                    let Some(exec) = real.be.place(t(next_task), work) else {
                        continue;
                    };
                    real.admit(exec, next_task, work, now);
                    oracle.admit(exec, next_task, work, now);
                    next_task += 1;
                }
                4 => {
                    let held: Vec<u32> = (0..next_task)
                        .filter(|&i| real.held[i as usize].is_some())
                        .collect();
                    if let Some(&task) = held.get(rng.below(held.len().max(1) as u64) as usize) {
                        real.kill(task, now);
                        oracle.kill(task, now);
                    }
                }
                _ => {}
            }
        }
        let end = SimTime::from_secs_f64(1e6);
        real.advance(end);
        oracle.advance(end);
        assert_eq!(real.done, oracle.done, "{name} seed {seed}: drained");
        assert!(real.held.iter().all(Option::is_none), "{name}: all served");
        real.done
    }

    #[test]
    fn one_live_finish_per_replica_completes_like_retiming_every_task() {
        let homogeneous = ClusterSpec::homogeneous(2, 4, curve(10));
        let hetero = ClusterSpec::new(
            vec![
                ReplicaGroup::new("fast", 1, 4, curve(5)),
                ReplicaGroup::new("slow", 2, 3, curve(20)),
            ],
            RoutingPolicy::JoinShortestQueue,
        );
        let disagg = ClusterSpec {
            groups: vec![
                ReplicaGroup::new("decode", 2, 4, curve(10)),
                ReplicaGroup::new("prefill", 1, 1, curve(1)),
            ],
            routing: RoutingPolicy::LeastLoaded,
            disagg: Some(DisaggSpec {
                prefill_group: 1,
                prefill_per_token: SimDuration::from_millis(1),
                transfer_delay: SimDuration::from_millis(5),
            }),
        };
        let mut ties = 0;
        for seed in 1..=6 {
            for spec in [&homogeneous, &hetero] {
                let done = compare(Box::new(ClusterExec::new(spec)), spec, seed);
                ties += done.windows(2).filter(|w| w[0].1 == w[1].1).count();
            }
            let done = compare(Box::new(DisaggExec::new(&disagg)), &disagg, seed);
            ties += done.windows(2).filter(|w| w[0].1 == w[1].1).count();
        }
        assert!(ties > 0, "the sequences exercise simultaneous finishes");
    }
}
