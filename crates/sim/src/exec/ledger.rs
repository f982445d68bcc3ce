//! The executor pool's slot ledger: per-executor occupancy views plus
//! integer pool totals, kept current by the backend at every occupancy
//! change.
//!
//! The engine reads pool state on every timestamp (utilization
//! integrals), every decision point (capacity checks), every LLM
//! dispatch (free-slot gate, least-loaded placement) and every scheduler
//! invocation (the occupancy views lent to policies). Walking the pool
//! through per-executor trait calls made each of those O(executors);
//! with the ledger they are O(1) reads, and only the executor whose
//! occupancy moved is touched when it moves.

use crate::state::LlmExecutorView;

/// Occupancy and capacity of every executor in a pool, plus the pool
/// totals the engine reads per event.
///
/// Backends own one ledger and call [`SlotLedger::set`] wherever an
/// executor's occupancy changes (admit, finishing step, drain); every
/// other reader — the engine, placement, the scheduler views — goes
/// through [`ExecutorBackend::ledger`](super::ExecutorBackend::ledger).
/// The totals are integers, so anything computed from them (the
/// utilization integrals) is bit-identical to a full recount.
#[derive(Debug, Clone, Default)]
pub struct SlotLedger {
    views: Vec<LlmExecutorView>,
    /// Σ occupancy.
    occupied: usize,
    /// Executors with occupancy > 0.
    busy: usize,
    /// Executors with occupancy ≥ capacity (zero-capacity ones included).
    full: usize,
    /// Σ capacity.
    slots: usize,
}

impl SlotLedger {
    /// An idle pool with one executor per entry of `capacities`.
    pub fn new(capacities: impl IntoIterator<Item = usize>) -> Self {
        let views: Vec<LlmExecutorView> = capacities
            .into_iter()
            .enumerate()
            .map(|(index, max_batch)| LlmExecutorView {
                index,
                batch_len: 0,
                max_batch,
            })
            .collect();
        SlotLedger {
            occupied: 0,
            busy: 0,
            full: views.iter().filter(|v| v.max_batch == 0).count(),
            slots: views.iter().map(|v| v.max_batch).sum(),
            views,
        }
    }

    /// Records that executor `exec` now holds `occupancy` slots.
    pub fn set(&mut self, exec: usize, occupancy: usize) {
        let v = &mut self.views[exec];
        let old = v.batch_len;
        self.occupied = self.occupied - old + occupancy;
        self.busy = self.busy - usize::from(old > 0) + usize::from(occupancy > 0);
        self.full =
            self.full - usize::from(old >= v.max_batch) + usize::from(occupancy >= v.max_batch);
        v.batch_len = occupancy;
    }

    /// Scheduler-visible occupancy views, in executor-index order.
    pub fn views(&self) -> &[LlmExecutorView] {
        &self.views
    }

    /// Slots held on executor `exec`.
    pub fn occupancy(&self, exec: usize) -> usize {
        self.views[exec].batch_len
    }

    /// Batch capacity of executor `exec`.
    pub fn capacity(&self, exec: usize) -> usize {
        self.views[exec].max_batch
    }

    /// Total batch slots across the pool.
    pub fn total_slots(&self) -> usize {
        self.slots
    }

    /// True if any executor can admit one more task.
    pub fn has_free_slot(&self) -> bool {
        self.full < self.views.len()
    }

    /// The one least-loaded placement rule: the executor with a free
    /// slot and the fewest occupied slots, ties to the most free slots
    /// (a big idle replica beats a small one), then the lowest index;
    /// `None` when the pool is full. On a pool of equal capacities this
    /// is the paper's rule: fewest occupied, lowest index.
    pub fn least_loaded(&self) -> Option<usize> {
        let mut best: Option<&LlmExecutorView> = None;
        for v in &self.views {
            if v.batch_len < v.max_batch
                && best.map_or(true, |b| {
                    v.batch_len < b.batch_len
                        || (v.batch_len == b.batch_len && v.max_batch > b.max_batch)
                })
            {
                best = Some(v);
            }
        }
        best.map(|v| v.index)
    }

    /// Free batch slots across the pool: total slots − occupied, the
    /// same integer sum as walking every view.
    pub fn free_slots(&self) -> usize {
        let free = self.slots - self.occupied;
        debug_assert_eq!(
            free,
            self.views.iter().map(|v| v.free_slots()).sum::<usize>(),
            "free-slot total drifted from the per-executor views"
        );
        free
    }

    /// Average batch size over busy executors (1 if all idle): occupied
    /// slots over busy executors, bit-identical to
    /// [`average_busy_batch`](crate::state::average_busy_batch) over the
    /// views, since both divide the same two integers.
    pub fn average_busy_batch(&self) -> f64 {
        let avg = if self.busy == 0 {
            1.0
        } else {
            self.occupied as f64 / self.busy as f64
        };
        debug_assert_eq!(
            avg.to_bits(),
            crate::state::average_busy_batch(&self.views).to_bits(),
            "average busy batch drifted from the per-executor views"
        );
        avg
    }

    /// [`SlotLedger::totals`] recounted from the views — the ground
    /// truth the incremental totals must equal.
    pub fn recount(&self) -> (usize, usize, usize, usize) {
        self.views.iter().fold((0, 0, 0, 0), |(o, b, f, s), v| {
            (
                o + v.batch_len,
                b + usize::from(v.batch_len > 0),
                f + usize::from(v.batch_len >= v.max_batch),
                s + v.max_batch,
            )
        })
    }

    /// The pool totals `(occupied slots, busy executors, full executors,
    /// total slots)`, kept incrementally by [`SlotLedger::set`].
    pub fn totals(&self) -> (usize, usize, usize, usize) {
        (self.occupied, self.busy, self.full, self.slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventQueue};
    use crate::exec::{ClusterExec, DisaggExec, ExecCtx, ExecutorBackend, LlmTaskRef, TokenExec};
    use crate::state::JobRt;
    use llmsched_cluster::{
        ClusterSpec, DisaggSpec, LatencyProfile, ReplicaGroup, ReplicaView, RouteRequest,
        RoutingPolicy,
    };
    use llmsched_dag::time::{SimDuration, SimTime};
    use llmsched_dag::work::LlmWork;

    const TASKS: u32 = 160;
    /// Jobs the model's tasks spread over, so session affinity sees
    /// several home replicas.
    const JOBS: usize = 5;

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

    fn profile(ms_per_token: u64) -> LatencyProfile {
        LatencyProfile::new(vec![
            (1, SimDuration::from_millis(ms_per_token)),
            (4, SimDuration::from_millis(2 * ms_per_token)),
        ])
        .unwrap()
    }

    fn t(task: u32) -> LlmTaskRef {
        LlmTaskRef {
            job: 0,
            stage: 0,
            task,
        }
    }

    /// Model task `task`, one of [`JOBS`] jobs' (round robin).
    fn spread(task: u32) -> LlmTaskRef {
        LlmTaskRef {
            job: task as usize % JOBS,
            stage: 0,
            task,
        }
    }

    /// The naive pool model: per executor, admitted − finished − drained
    /// tasks and the decode tokens they charged; placement is the
    /// pre-ledger router, fed views rebuilt from the model.
    struct Model {
        occ: Vec<usize>,
        cap: Vec<usize>,
        tokens: Vec<u64>,
        /// Executor holding each task's slot and the tokens it charged,
        /// if it holds one.
        live: Vec<Option<(usize, u64)>>,
    }

    impl Model {
        fn release(&mut self, task: u32) -> usize {
            let (e, tokens) = self.live[task as usize].take().expect("task holds a slot");
            self.occ[e] -= 1;
            self.tokens[e] -= tokens;
            e
        }

        /// The router's input, rebuilt from scratch as the backends did
        /// before the ledger placed (routers read no group).
        fn views(&self) -> Vec<ReplicaView> {
            (0..self.cap.len())
                .map(|e| ReplicaView {
                    index: e,
                    group: 0,
                    occupancy: self.occ[e],
                    capacity: self.cap[e],
                    pending_tokens: self.tokens[e],
                })
                .collect()
        }

        /// Where the pre-ledger `routing` router sends `task`.
        fn route(&self, routing: RoutingPolicy, task: LlmTaskRef, tokens: u64) -> Option<usize> {
            let req = RouteRequest {
                job: task.job as u64,
                tokens,
            };
            routing.build().route(&self.views(), req)
        }
    }

    /// Checks the backend's ledger against the model after one hook.
    fn check(be: &dyn ExecutorBackend, m: &Model, at: &str) {
        let l = be.ledger();
        assert_eq!(l.views().len(), m.cap.len(), "{at}: pool size");
        for (e, v) in l.views().iter().enumerate() {
            assert_eq!(
                (v.index, v.batch_len, v.max_batch),
                (e, m.occ[e], m.cap[e]),
                "{at}: view of executor {e}"
            );
        }
        let expect = m
            .occ
            .iter()
            .zip(&m.cap)
            .fold((0, 0, 0, 0), |acc, (&o, &c)| {
                (
                    acc.0 + o,
                    acc.1 + usize::from(o > 0),
                    acc.2 + usize::from(o >= c),
                    acc.3 + c,
                )
            });
        assert_eq!(l.totals(), expect, "{at}: totals");
        assert_eq!(l.recount(), expect, "{at}: recount");
        assert_eq!(l.free_slots(), expect.3 - expect.0, "{at}: free slots");
        let busy_batch = if expect.1 == 0 {
            1.0
        } else {
            expect.0 as f64 / expect.1 as f64
        };
        assert_eq!(l.average_busy_batch(), busy_batch, "{at}: busy batch");
        assert_eq!(
            l.has_free_slot(),
            m.occ.iter().zip(&m.cap).any(|(o, c)| o < c),
            "{at}: has_free_slot"
        );
        assert_eq!(
            l.least_loaded(),
            m.route(RoutingPolicy::LeastLoaded, spread(0), 1),
            "{at}: least-loaded placement"
        );
    }

    /// Drives `be` through a seeded random admit / step / finish / drain
    /// sequence, checking the ledger against the model after every hook,
    /// and every placement against the pre-ledger `routing` router (the
    /// scalar pools place least-loaded). `charge` gives the decode tokens
    /// a request queues on its replica, as the backend counts them.
    fn run_model(
        mut be: Box<dyn ExecutorBackend>,
        routing: RoutingPolicy,
        charge: fn(&LlmWork) -> u64,
        seed: u64,
    ) {
        let name = be.descriptor();
        let reference = profile(10);
        let mut queue = EventQueue::new();
        let mut jobs: Vec<JobRt> = (0..JOBS)
            .map(|_| crate::state::test_support::job_with_llm_tasks(TASKS))
            .collect();
        let n = be.ledger().views().len();
        let mut m = Model {
            occ: vec![0; n],
            cap: (0..n).map(|e| be.ledger().capacity(e)).collect(),
            tokens: vec![0; n],
            live: vec![None; TASKS as usize],
        };
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let mut now = SimTime::ZERO;
        let mut next_task = 0u32;
        let mut finished = Vec::new();
        check(&*be, &m, &format!("{name}: initial"));
        for op in 0..4_000u32 {
            let at = format!("{name} seed {seed} op {op}");
            match rng.below(10) {
                // Admit the next task wherever the backend places it.
                0..=3 if next_task < TASKS => {
                    let task = spread(next_task);
                    let work = LlmWork {
                        prompt_tokens: rng.below(40),
                        output_tokens: 1 + rng.below(30),
                    };
                    let tokens = charge(&work);
                    let expect = m.route(routing, task, tokens);
                    let placed = be.place(task, work);
                    assert_eq!(placed, expect, "{at}: placement");
                    let Some(e) = placed else {
                        continue;
                    };
                    assert!(m.occ[e] < m.cap[e], "{at}: placed on a full executor");
                    let mut cx = ExecCtx::for_test(now, &reference, &mut queue, &mut jobs);
                    be.admit(e, task, work, &mut cx);
                    m.occ[e] += 1;
                    m.tokens[e] += tokens;
                    m.live[next_task as usize] = Some((e, tokens));
                    next_task += 1;
                    check(&*be, &m, &format!("{at}: admit"));
                }
                // Deliver the next event, as the engine would.
                0..=7 => {
                    let Some((time, ev)) = queue.pop() else {
                        continue;
                    };
                    now = time;
                    match ev {
                        Event::LlmStep { exec, epoch } => {
                            let mut cx = ExecCtx::for_test(now, &reference, &mut queue, &mut jobs);
                            let effective = be.step(exec, epoch, &mut cx, &mut finished);
                            assert_eq!(effective, !finished.is_empty(), "{at}: step");
                            for f in &finished {
                                assert_eq!(m.release(f.task), exec, "{at}: finish");
                            }
                            check(&*be, &m, &format!("{at}: step"));
                            for f in finished.drain(..) {
                                // The engine drains every completion; a
                                // step-reported one is already gone.
                                be.drain(exec, f, &mut cx);
                                check(&*be, &m, &format!("{at}: drain after step"));
                            }
                        }
                        Event::TaskFinish {
                            job, task, epoch, ..
                        } => {
                            let live = m.live[task as usize];
                            if jobs[job].task_epoch_of(0, task) != epoch || live.is_none() {
                                continue;
                            }
                            let e = m.release(task);
                            let mut cx = ExecCtx::for_test(now, &reference, &mut queue, &mut jobs);
                            be.drain(e, spread(task), &mut cx);
                            check(&*be, &m, &format!("{at}: finish"));
                        }
                        Event::Arrival { .. } => unreachable!("no arrivals posted"),
                    }
                }
                // Kill a task holding a slot (running, staged or in
                // prefill transit).
                8 => {
                    let held: Vec<u32> = (0..next_task)
                        .filter(|&i| m.live[i as usize].is_some())
                        .collect();
                    if held.is_empty() {
                        continue;
                    }
                    let task = held[rng.below(held.len() as u64) as usize];
                    let e = m.release(task);
                    let mut cx = ExecCtx::for_test(now, &reference, &mut queue, &mut jobs);
                    be.drain(e, spread(task), &mut cx);
                    check(&*be, &m, &format!("{at}: kill"));
                }
                // Drain a task the executor does not hold: a no-op.
                _ => {
                    if n == 0 {
                        continue;
                    }
                    let task = rng.below(u64::from(TASKS)) as u32;
                    if m.live[task as usize].is_some() {
                        continue;
                    }
                    let e = rng.below(n as u64) as usize;
                    let mut cx = ExecCtx::for_test(now, &reference, &mut queue, &mut jobs);
                    be.drain(e, spread(task), &mut cx);
                    check(&*be, &m, &format!("{at}: absent drain"));
                }
            }
        }
    }

    /// Mixed capacities in both index orders, so occupancy ties between
    /// replicas of different capacity go both ways: a small replica
    /// before a big one (the big one wins on free slots) and after it.
    fn hetero(routing: RoutingPolicy) -> ClusterSpec {
        ClusterSpec::new(
            vec![
                ReplicaGroup::new("slow", 2, 2, profile(20)),
                ReplicaGroup::new("fast", 1, 4, profile(5)),
                ReplicaGroup::new("mid", 2, 3, profile(10)),
            ],
            routing,
        )
    }

    fn disagg(routing: RoutingPolicy) -> ClusterSpec {
        ClusterSpec {
            groups: vec![
                ReplicaGroup::new("decode-b", 1, 1, profile(15)),
                ReplicaGroup::new("prefill", 1, 1, profile(1)),
                ReplicaGroup::new("decode-a", 2, 3, profile(10)),
                ReplicaGroup::new("decode-c", 1, 2, profile(12)),
            ],
            routing,
            disagg: Some(DisaggSpec {
                prefill_group: 1,
                prefill_per_token: SimDuration::from_millis(2),
                transfer_delay: SimDuration::from_millis(30),
            }),
        }
    }

    #[test]
    fn ledger_matches_naive_model_on_every_backend() {
        let folded: fn(&LlmWork) -> u64 = LlmWork::folded_tokens;
        let decode: fn(&LlmWork) -> u64 = LlmWork::decode_tokens;
        for seed in 1..=6 {
            // The paper's pool, and the scalar token-level pools.
            let paper = ClusterSpec::homogeneous(3, 2, profile(10));
            let ll = RoutingPolicy::LeastLoaded;
            run_model(Box::new(ClusterExec::new(&paper)), ll, folded, seed);
            run_model(Box::new(TokenExec::new(3, 3, 1)), ll, folded, seed);
            run_model(Box::new(TokenExec::new(2, 4, 3)), ll, folded, seed);
            for routing in RoutingPolicy::ALL {
                run_model(
                    Box::new(ClusterExec::new(&hetero(routing))),
                    routing,
                    folded,
                    seed,
                );
                run_model(
                    Box::new(DisaggExec::new(&disagg(routing))),
                    routing,
                    decode,
                    seed,
                );
            }
        }
    }

    #[test]
    fn least_loaded_breaks_occupancy_ties_on_free_slots_then_index() {
        // Idle: the big executor wins, wherever it sits.
        let mut l = SlotLedger::new([2, 4, 4, 3]);
        assert_eq!(l.least_loaded(), Some(1));
        // One task on 1: of the idle executors, 2 has the most free slots.
        l.set(1, 1);
        assert_eq!(l.least_loaded(), Some(2));
        // All hold one: free slots 1, 3, 3, 2; the first of the 3s wins.
        l.set(0, 1);
        l.set(2, 1);
        l.set(3, 1);
        assert_eq!(l.least_loaded(), Some(1));
        // Equal capacities: fewest occupied, then lowest index.
        let mut l = SlotLedger::new([4; 3]);
        l.set(0, 2);
        assert_eq!(l.least_loaded(), Some(1));
    }

    #[test]
    fn zero_capacity_executors_count_as_full() {
        // Whole pools with no slots never place, whatever the sequence.
        run_model(
            Box::new(TokenExec::new(1, 0, 1)),
            RoutingPolicy::LeastLoaded,
            LlmWork::folded_tokens,
            7,
        );
        // A zero-capacity executor inside a pool is full from the start
        // and never chosen, while its neighbours fill and drain.
        let mut l = SlotLedger::new([2, 0, 1]);
        assert_eq!(l.totals(), (0, 0, 1, 3));
        assert_eq!(l.least_loaded(), Some(0));
        l.set(0, 1);
        assert_eq!(l.least_loaded(), Some(2));
        l.set(2, 1);
        l.set(0, 2);
        assert_eq!(l.totals(), (3, 2, 3, 3));
        assert!(!l.has_free_slot());
        assert_eq!(l.least_loaded(), None);
        l.set(0, 0);
        assert_eq!(l.totals(), (1, 1, 2, 3));
        assert_eq!(l.least_loaded(), Some(0));
        assert_eq!(l.recount(), l.totals());
    }

    #[test]
    fn disagg_transit_holds_its_slot_until_drained() {
        // One decode slot: a request in prefill transit fills the pool
        // before it decodes a token, and a kill during transit frees it.
        let spec = ClusterSpec {
            groups: vec![
                ReplicaGroup::new("prefill", 1, 1, profile(1)),
                ReplicaGroup::new("decode", 1, 1, profile(10)),
            ],
            routing: RoutingPolicy::LeastLoaded,
            disagg: Some(DisaggSpec::with_defaults(0)),
        };
        let reference = profile(10);
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(2)];
        let mut be = DisaggExec::new(&spec);
        let work = LlmWork {
            prompt_tokens: 50,
            output_tokens: 5,
        };
        let e = be.place(t(0), work).expect("a free decode slot");
        let mut cx = ExecCtx::for_test(SimTime::ZERO, &reference, &mut queue, &mut jobs);
        be.admit(e, t(0), work, &mut cx);
        assert_eq!(be.ledger().totals(), (1, 1, 1, 1));
        assert_eq!(be.place(t(1), work), None, "transit holds the only slot");
        be.drain(e, t(0), &mut cx);
        assert_eq!(be.ledger().totals(), (0, 0, 0, 1));
        assert_eq!(be.place(t(1), work), Some(e));
    }
}
