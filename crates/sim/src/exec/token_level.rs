//! The token-level continuous-batching backend — the paper's *testbed*
//! stand-in.
//!
//! Executors decode in iterations: requests join at iteration boundaries
//! (vLLM-style continuous batching), every iteration costs `l(batch)`
//! wall-clock and emits `chunk` tokens per request. `chunk = 1` is
//! faithful per-token stepping; a larger chunk coarsens the join
//! granularity, which moves schedules (Fig. 8 runs chunk 4).
//!
//! While a unit's batch does not change, every iteration lasts the same
//! integer-µs period `d = l(batch) × chunk`, so its k-th boundary is
//! exactly `t0 + k·d`. A unit therefore runs in *stretches*: it posts one
//! [`Event::LlmStep`](crate::event::Event::LlmStep) wake-up, at the first
//! boundary where a running task finishes, instead of one per iteration.
//! A batch change mid-stretch (a joiner, or a running task drained
//! outside a step) pulls the wake-up in to the first boundary strictly
//! after `now`, unless it already fires there: the engine applies every
//! event of a timestamp before the scheduler admits, so a boundary at
//! `now` has already passed. The step at the wake-up subtracts `k·chunk`
//! tokens for the `k` iterations the stretch ran, then finishes, admits
//! joiners and starts the next stretch exactly as a per-iteration step
//! would. Wake-ups are versioned by a per-executor epoch, so a pulled-in
//! wake-up makes the one posted before it stale.

use llmsched_dag::time::{SimDuration, SimTime};
use llmsched_dag::work::LlmWork;

use super::{ExecCtx, ExecutorBackend, LlmTaskRef, SlotLedger};

/// One task waiting on decode iterations.
#[derive(Debug, Clone)]
struct Pending {
    task: LlmTaskRef,
    remaining_tokens: u64,
}

/// One LLM executor's iteration state.
#[derive(Debug, Default)]
struct Unit {
    /// Tasks decoding in the current stretch.
    running: Vec<Pending>,
    /// Tasks admitted mid-stretch; they join at the next boundary.
    joining: Vec<Pending>,
    /// Wake-up epoch; LlmStep events from older epochs are stale.
    epoch: u64,
    /// Whether a stretch is in flight.
    iterating: bool,
    /// When the current stretch started (its boundary 0).
    t0: SimTime,
    /// The current stretch's iteration period, `l(running) × chunk`.
    period: SimDuration,
    /// When the live wake-up fires: a boundary of the current stretch.
    wake: SimTime,
}

impl Unit {
    fn occupancy(&self) -> usize {
        self.running.len() + self.joining.len()
    }

    /// Starts a stretch at `now` and posts its wake-up at the first
    /// boundary where a running task finishes.
    fn start_stretch(&mut self, exec: usize, chunk: u64, cx: &mut ExecCtx<'_>) {
        self.iterating = true;
        self.t0 = cx.now;
        self.period = cx.latency.per_token(self.running.len()) * chunk;
        // `LatencyProfile::new` rejects a zero latency, so every boundary
        // lies strictly ahead of the one before.
        debug_assert!(!self.period.is_zero());
        let k = self
            .running
            .iter()
            .map(|r| r.remaining_tokens.div_ceil(chunk))
            .min()
            .expect("a stretch starts with a running task");
        self.wake_at(exec, k, cx);
    }

    /// Posts the stretch's wake-up for boundary `k` under a fresh epoch,
    /// making every wake-up posted earlier stale.
    fn wake_at(&mut self, exec: usize, k: u64, cx: &mut ExecCtx<'_>) {
        self.epoch += 1;
        self.wake = self.t0 + self.period * k;
        cx.post_step(exec, self.epoch, self.wake);
    }

    /// Ends the stretch no later than its first boundary strictly after
    /// `now`, so a batch change takes effect there.
    fn wake_by_next_boundary(&mut self, exec: usize, cx: &mut ExecCtx<'_>) {
        let k = (cx.now - self.t0).0 / self.period.0 + 1;
        if self.t0 + self.period * k < self.wake {
            self.wake_at(exec, k, cx);
        }
    }
}

/// The token-level continuous-batching executor pool.
#[derive(Debug)]
pub struct TokenExec {
    units: Vec<Unit>,
    ledger: SlotLedger,
    chunk: u64,
}

impl TokenExec {
    /// A pool of `n_execs` idle executors batching up to `max_batch` and
    /// decoding `chunk` tokens per iteration. Panics unless `chunk ≥ 1`,
    /// which `ClusterConfig::validate` guarantees.
    pub fn new(n_execs: usize, max_batch: usize, chunk: u64) -> Self {
        assert!(chunk > 0, "iteration chunk must be at least 1 token");
        TokenExec {
            units: (0..n_execs).map(|_| Unit::default()).collect(),
            ledger: SlotLedger::new(vec![max_batch; n_execs]),
            chunk,
        }
    }
}

impl ExecutorBackend for TokenExec {
    fn name(&self) -> &'static str {
        "token-level"
    }

    fn ledger(&self) -> &SlotLedger {
        &self.ledger
    }

    fn admit(&mut self, exec: usize, task: LlmTaskRef, work: LlmWork, cx: &mut ExecCtx<'_>) {
        let unit = &mut self.units[exec];
        unit.joining.push(Pending {
            task,
            remaining_tokens: work.folded_tokens(),
        });
        if !unit.iterating {
            // Idle executor: the joiners form a fresh batch immediately.
            let mut joining = std::mem::take(&mut unit.joining);
            unit.running.append(&mut joining);
            unit.start_stretch(exec, self.chunk, cx);
        } else {
            // The joiner changes the batch at the next boundary.
            unit.wake_by_next_boundary(exec, cx);
        }
        self.ledger.set(exec, self.units[exec].occupancy());
        cx.emit(llmsched_telemetry::ProbeEvent::BatchAdmit {
            at: cx.now,
            exec: exec as u32,
            occupancy: self.ledger.occupancy(exec) as u32,
            capacity: self.ledger.capacity(exec) as u32,
        });
    }

    fn step(
        &mut self,
        exec: usize,
        epoch: u64,
        cx: &mut ExecCtx<'_>,
        finished: &mut Vec<LlmTaskRef>,
    ) -> bool {
        let unit = &mut self.units[exec];
        if !unit.iterating || unit.epoch != epoch {
            return false;
        }
        let elapsed = (cx.now - unit.t0).0;
        debug_assert_eq!(elapsed % unit.period.0, 0, "wake-ups fall on boundaries");
        let decoded = elapsed / unit.period.0 * self.chunk;
        for r in &mut unit.running {
            r.remaining_tokens = r.remaining_tokens.saturating_sub(decoded);
        }
        let before = finished.len();
        unit.running.retain_mut(|r| {
            if r.remaining_tokens == 0 {
                finished.push(r.task);
                false
            } else {
                true
            }
        });
        unit.running.append(&mut unit.joining);
        let occupancy = unit.running.len();
        if occupancy == 0 {
            unit.iterating = false;
        } else {
            unit.start_stretch(exec, self.chunk, cx);
        }
        // A boundary with no finishes only shuffled batch composition;
        // scheduling on it would be harmless but noisy, so effectiveness
        // is reported only when a task completed.
        let effective = finished.len() > before;
        if effective {
            self.ledger.set(exec, occupancy);
        }
        effective
    }

    fn drain(&mut self, exec: usize, task: LlmTaskRef, cx: &mut ExecCtx<'_>) {
        // The engine drains only tasks a step already removed, so this is
        // a no-op there. A task removed from the running batch any other
        // way shrinks the batch from the next boundary on, as a joiner
        // grows it.
        let unit = &mut self.units[exec];
        let running = unit.running.len();
        unit.running.retain(|r| r.task != task);
        unit.joining.retain(|r| r.task != task);
        if unit.running.len() < running {
            unit.wake_by_next_boundary(exec, cx);
        }
        self.ledger.set(exec, unit.occupancy());
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
    use crate::latency::LatencyProfile;
    use crate::state::JobRt;

    fn flat_latency() -> LatencyProfile {
        LatencyProfile::new(vec![(1, SimDuration::from_millis(10))]).unwrap()
    }

    /// 10 ms alone, 17 ms at batch 4: batches 2 and 3 interpolate to
    /// 12,333 µs and 14,667 µs.
    fn interpolated_latency() -> LatencyProfile {
        LatencyProfile::new(vec![
            (1, SimDuration::from_millis(10)),
            (4, SimDuration::from_millis(17)),
        ])
        .unwrap()
    }

    fn ms(m: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(m)
    }

    fn t(task: u32) -> LlmTaskRef {
        LlmTaskRef {
            job: 0,
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

    /// Pops the earliest pending LlmStep event.
    fn pop_step(queue: &mut EventQueue) -> (SimTime, usize, u64) {
        let (time, ev) = queue.pop().expect("a step event is pending");
        match ev {
            Event::LlmStep { exec, epoch } => (time, exec, epoch),
            other => panic!("expected LlmStep, got {other:?}"),
        }
    }

    #[test]
    fn admit_on_idle_executor_starts_iteration() {
        let latency = flat_latency();
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(2)];
        let mut be = TokenExec::new(1, 8, 1);
        let mut cx = ExecCtx::for_test(SimTime::ZERO, &latency, &mut queue, &mut jobs);
        be.admit(0, t(0), w(3), &mut cx);
        assert_eq!(be.ledger().occupancy(0), 1);
        // One wake-up for the whole stretch: three l(1) iterations ahead,
        // where the task finishes, not one per iteration.
        let (time, exec, _) = pop_step(&mut queue);
        assert_eq!((time, exec), (ms(30), 0));
        assert!(queue.is_empty());
    }

    #[test]
    fn joiners_wait_for_iteration_boundary() {
        let latency = flat_latency();
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(3)];
        let mut be = TokenExec::new(1, 8, 1);
        let mut cx = ExecCtx::for_test(SimTime::ZERO, &latency, &mut queue, &mut jobs);
        be.admit(0, t(0), w(5), &mut cx);
        // Admitted exactly at boundary 1 (10 ms), which has passed: the
        // joiner pulls the stretch's end in to the next one, 20 ms.
        let mut cx = ExecCtx::for_test(ms(10), &latency, &mut queue, &mut jobs);
        be.admit(0, t(1), w(2), &mut cx);
        // Occupancy counts the joiner immediately (slot accounting).
        assert_eq!(be.ledger().occupancy(0), 2);
        assert_eq!(queue.len(), 2, "the 50 ms wake-up is left to go stale");
        // A second joiner ends the stretch at the same boundary: no
        // re-post.
        let mut cx = ExecCtx::for_test(ms(15), &latency, &mut queue, &mut jobs);
        be.admit(0, t(2), w(1), &mut cx);
        assert_eq!(queue.len(), 2);
        let mut finished = Vec::new();
        let mut steps = Vec::new();
        while !queue.is_empty() {
            let (time, _, epoch) = pop_step(&mut queue);
            let mut cx = ExecCtx::for_test(time, &latency, &mut queue, &mut jobs);
            let effective = be.step(0, epoch, &mut cx, &mut finished);
            steps.push((time, effective, finished.clone()));
        }
        assert_eq!(
            steps,
            vec![
                // t(0) decoded 2 of its 5 tokens; both joiners join.
                (ms(20), false, vec![]),
                // One iteration at batch 3 finishes t(2); a second
                // finishes t(1).
                (ms(30), true, vec![t(2)]),
                (ms(40), true, vec![t(2), t(1)]),
                // The stale 50 ms wake-up, then t(0)'s last token.
                (ms(50), false, vec![t(2), t(1)]),
                (ms(50), true, vec![t(2), t(1), t(0)]),
            ]
        );
        assert_eq!(be.ledger().occupancy(0), 0);
    }

    #[test]
    fn stale_epoch_steps_are_discarded() {
        let latency = flat_latency();
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(2)];
        let mut be = TokenExec::new(1, 8, 1);
        let mut cx = ExecCtx::for_test(SimTime::ZERO, &latency, &mut queue, &mut jobs);
        be.admit(0, t(0), w(3), &mut cx);
        let mut cx = ExecCtx::for_test(ms(5), &latency, &mut queue, &mut jobs);
        be.admit(0, t(1), w(1), &mut cx);
        // The joiner superseded the 30 ms wake-up with one at 10 ms.
        let (time, _, epoch) = pop_step(&mut queue);
        let (stale_time, _, stale_epoch) = pop_step(&mut queue);
        assert_eq!((time, stale_time), (ms(10), ms(30)));
        let mut finished = Vec::new();
        let mut cx = ExecCtx::for_test(time, &latency, &mut queue, &mut jobs);
        assert!(!be.step(0, stale_epoch, &mut cx, &mut finished));
        assert!(!be.step(0, epoch + 1, &mut cx, &mut finished));
        assert!(finished.is_empty());
        assert!(queue.is_empty(), "stale steps post nothing");
        // The live epoch works: t(1) joins a batch of two, which decodes
        // its one token by 20 ms and t(0)'s last by 30 ms.
        let mut cx = ExecCtx::for_test(time, &latency, &mut queue, &mut jobs);
        assert!(!be.step(0, epoch, &mut cx, &mut finished));
        for (due, done) in [(ms(20), t(1)), (ms(30), t(0))] {
            let (time, _, epoch) = pop_step(&mut queue);
            assert_eq!(time, due);
            let mut cx = ExecCtx::for_test(time, &latency, &mut queue, &mut jobs);
            assert!(be.step(0, epoch, &mut cx, &mut finished));
            assert_eq!(finished.pop(), Some(done));
        }
        assert!(queue.is_empty());
        assert_eq!(be.ledger().occupancy(0), 0);
    }

    #[test]
    fn step_finishes_tasks_and_admits_joiners() {
        let latency = flat_latency();
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(3)];
        let mut be = TokenExec::new(1, 8, 1);
        let mut cx = ExecCtx::for_test(SimTime::ZERO, &latency, &mut queue, &mut jobs);
        be.admit(0, t(0), w(1), &mut cx); // finishes after one iteration
        be.admit(0, t(1), w(5), &mut cx); // joins at the boundary
        let (time, _, epoch) = pop_step(&mut queue);
        let mut cx = ExecCtx::for_test(time, &latency, &mut queue, &mut jobs);
        let mut finished = Vec::new();
        assert!(be.step(0, epoch, &mut cx, &mut finished));
        assert_eq!(finished, vec![t(0)]);
        // The joiner is now running and a new iteration is in flight.
        assert_eq!(be.ledger().occupancy(0), 1);
        assert_eq!(queue.len(), 1);
        // Drain of the finished task is a no-op (already removed by step).
        let mut cx = ExecCtx::for_test(time, &latency, &mut queue, &mut jobs);
        be.drain(0, t(0), &mut cx);
        assert_eq!(be.ledger().occupancy(0), 1);
    }

    #[test]
    fn chunking_divides_iteration_count() {
        // 8 tokens take ⌈8 / chunk⌉ iterations of chunk × 10 ms: chunking
        // rounds a finish up to a whole iteration. Each stretch is one
        // wake-up, whatever the chunk.
        let latency = flat_latency();
        for (chunk, finish) in [(1u64, 80), (3, 90), (4, 80), (16, 160)] {
            let mut queue = EventQueue::new();
            let mut jobs = [crate::state::test_support::job_with_llm_tasks(1)];
            let mut be = TokenExec::new(1, 8, chunk);
            let mut cx = ExecCtx::for_test(SimTime::ZERO, &latency, &mut queue, &mut jobs);
            be.admit(0, t(0), w(8), &mut cx);
            let (time, _, epoch) = pop_step(&mut queue);
            assert_eq!(time, ms(finish), "chunk {chunk}");
            let mut cx = ExecCtx::for_test(time, &latency, &mut queue, &mut jobs);
            let mut finished = Vec::new();
            assert!(be.step(0, epoch, &mut cx, &mut finished));
            assert_eq!(finished, vec![t(0)], "chunk {chunk}");
            assert!(queue.is_empty(), "chunk {chunk}");
            assert_eq!(be.ledger().occupancy(0), 0);
        }
    }

    #[test]
    fn least_loaded_balances_across_executors() {
        let latency = flat_latency();
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(4)];
        let mut be = TokenExec::new(2, 2, 1);
        let mut cx = ExecCtx::for_test(SimTime::ZERO, &latency, &mut queue, &mut jobs);
        be.admit(0, t(0), w(5), &mut cx);
        assert_eq!(be.place(t(1), w(5)), Some(1));
        be.admit(1, t(1), w(5), &mut cx);
        be.admit(0, t(2), w(5), &mut cx);
        be.admit(1, t(3), w(5), &mut cx);
        assert_eq!(be.place(t(4), w(5)), None, "both executors full");
    }

    /// The per-iteration decode that stretches replaced: every busy unit
    /// posts one wake-up per iteration, and a step subtracts one chunk.
    /// `Unit::t0` is the start of the iteration in flight.
    #[derive(Debug)]
    struct PerIteration {
        units: Vec<Unit>,
        ledger: SlotLedger,
        chunk: u64,
    }

    impl PerIteration {
        fn start_iteration(&mut self, exec: usize, cx: &mut ExecCtx<'_>) {
            let unit = &mut self.units[exec];
            unit.iterating = true;
            unit.t0 = cx.now;
            unit.epoch += 1;
            let dur = cx.latency.per_token(unit.running.len()) * self.chunk;
            cx.post_step(exec, unit.epoch, cx.now + dur);
        }
    }

    impl ExecutorBackend for PerIteration {
        fn name(&self) -> &'static str {
            "per-iteration"
        }

        fn ledger(&self) -> &SlotLedger {
            &self.ledger
        }

        fn admit(&mut self, exec: usize, task: LlmTaskRef, work: LlmWork, cx: &mut ExecCtx<'_>) {
            let unit = &mut self.units[exec];
            unit.joining.push(Pending {
                task,
                remaining_tokens: work.folded_tokens(),
            });
            if !unit.iterating {
                unit.running.append(&mut unit.joining);
                self.start_iteration(exec, cx);
            }
            self.ledger.set(exec, self.units[exec].occupancy());
        }

        fn step(
            &mut self,
            exec: usize,
            epoch: u64,
            cx: &mut ExecCtx<'_>,
            finished: &mut Vec<LlmTaskRef>,
        ) -> bool {
            let unit = &mut self.units[exec];
            if !unit.iterating || unit.epoch != epoch {
                return false;
            }
            let before = finished.len();
            unit.running.retain_mut(|r| {
                r.remaining_tokens = r.remaining_tokens.saturating_sub(self.chunk);
                if r.remaining_tokens == 0 {
                    finished.push(r.task);
                }
                r.remaining_tokens > 0
            });
            unit.running.append(&mut unit.joining);
            let occupancy = unit.running.len();
            if occupancy == 0 {
                unit.iterating = false;
            } else {
                self.start_iteration(exec, cx);
            }
            let effective = finished.len() > before;
            if effective {
                self.ledger.set(exec, occupancy);
            }
            effective
        }

        fn drain(&mut self, exec: usize, task: LlmTaskRef, _: &mut ExecCtx<'_>) {
            let unit = &mut self.units[exec];
            unit.running.retain(|r| r.task != task);
            unit.joining.retain(|r| r.task != task);
            self.ledger.set(exec, unit.occupancy());
        }
    }

    /// One backend with its own event queue.
    struct Side {
        be: Box<dyn ExecutorBackend>,
        queue: EventQueue,
    }

    /// What one timestamp did to a pool.
    #[derive(Debug, PartialEq)]
    struct Instant {
        /// `(exec, task)` finishes, each executor's in step order.
        finished: Vec<(usize, LlmTaskRef)>,
        /// Whether any step reported a change.
        effective: bool,
        occupancy: Vec<usize>,
    }

    impl Side {
        fn new(be: impl ExecutorBackend + 'static) -> Self {
            Side {
                be: Box::new(be),
                queue: EventQueue::new(),
            }
        }

        fn cx<'a>(
            &'a mut self,
            now: SimTime,
            latency: &'a LatencyProfile,
            jobs: &'a mut [JobRt],
        ) -> (&'a mut dyn ExecutorBackend, ExecCtx<'a>) {
            (
                &mut *self.be,
                ExecCtx::for_test(now, latency, &mut self.queue, jobs),
            )
        }

        fn occupancy(&self) -> Vec<usize> {
            let l = self.be.ledger();
            (0..l.views().len()).map(|e| l.occupancy(e)).collect()
        }

        /// Applies every event due at `at`, as the engine does before a
        /// scheduler runs, draining each finish; returns what happened
        /// and the executors that stepped.
        fn deliver(
            &mut self,
            at: SimTime,
            latency: &LatencyProfile,
            jobs: &mut [JobRt],
        ) -> (Instant, Vec<usize>) {
            let mut finished = Vec::new();
            let mut effective = false;
            let mut stepped = Vec::new();
            while self.queue.peek_time() == Some(at) {
                let (_, Event::LlmStep { exec, epoch }) = self.queue.pop().expect("peeked") else {
                    unreachable!("only step wake-ups are posted")
                };
                let mut done = Vec::new();
                let (be, mut cx) = self.cx(at, latency, jobs);
                effective |= be.step(exec, epoch, &mut cx, &mut done);
                for &task in &done {
                    be.drain(exec, task, &mut cx);
                }
                finished.extend(done.into_iter().map(|task| (exec, task)));
                if !stepped.contains(&exec) {
                    stepped.push(exec);
                }
            }
            finished.sort_by_key(|&(exec, _)| exec);
            let occupancy = self.occupancy();
            let instant = Instant {
                finished,
                effective,
                occupancy,
            };
            (instant, stepped)
        }
    }

    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
        }
    }

    /// Drives `TokenExec` and the per-iteration reference through one
    /// seeded sequence of admits, kills, pauses between boundaries and
    /// timestamp deliveries, comparing every timestamp's finishes,
    /// effectiveness and occupancy. Returns how many timestamps stepped
    /// several reference units at once, and how many admits joined a
    /// busy unit exactly at one of its boundaries.
    fn compare(latency: &LatencyProfile, chunk: u64, seed: u64) -> (usize, usize) {
        const TASKS: u32 = 150;
        const UNITS: usize = 3;
        let label = |op| format!("chunk {chunk} seed {seed} op {op}");
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(TASKS)];
        let mut stretch = Side::new(TokenExec::new(UNITS, 4, chunk));
        let mut reference = Side::new(PerIteration {
            units: (0..UNITS).map(|_| Unit::default()).collect(),
            ledger: SlotLedger::new(vec![4; UNITS]),
            chunk,
        });
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let mut now = SimTime::ZERO;
        let mut next_task = 0u32;
        let mut held = Vec::new();
        // When each reference unit last stepped: the boundary a joiner
        // admitted at that instant must wait past.
        let mut last_step = [None; UNITS];
        let (mut coincident, mut at_boundary) = (0, 0);
        for op in 0..4_000 {
            let next = [&stretch.queue, &reference.queue]
                .iter()
                .filter_map(|q| q.peek_time())
                .min();
            match rng.below(12) {
                0..=3 if next_task < TASKS => {
                    // Token counts up to 12, mostly not multiples of 3.
                    let work = w(1 + rng.below(12));
                    let task = t(next_task);
                    let Some(exec) = stretch.be.place(task, work) else {
                        continue;
                    };
                    assert_eq!(reference.be.place(task, work), Some(exec), "{}", label(op));
                    if last_step[exec] == Some(now) && reference.occupancy()[exec] > 0 {
                        at_boundary += 1;
                    }
                    for side in [&mut stretch, &mut reference] {
                        let (be, mut cx) = side.cx(now, latency, &mut jobs);
                        be.admit(exec, task, work, &mut cx);
                    }
                    next_task += 1;
                    held.push((exec, task));
                }
                4 if !held.is_empty() => {
                    let (exec, task) = held.swap_remove(rng.below(held.len() as u64) as usize);
                    for side in [&mut stretch, &mut reference] {
                        let (be, mut cx) = side.cx(now, latency, &mut jobs);
                        be.drain(exec, task, &mut cx);
                    }
                }
                // Pause strictly between `now` and the next boundary, as an
                // arrival or an ε flush does.
                5 => {
                    if let Some(next) = next.filter(|&n| n.0 > now.0 + 1) {
                        now = SimTime(now.0 + 1 + rng.below(next.0 - now.0 - 1));
                    }
                }
                _ => {
                    let Some(at) = next else {
                        continue;
                    };
                    assert!(at >= now, "{}: a wake-up in the past", label(op));
                    now = at;
                    let (got, _) = stretch.deliver(at, latency, &mut jobs);
                    let (want, stepped) = reference.deliver(at, latency, &mut jobs);
                    assert_eq!(got, want, "{} at {at:?}", label(op));
                    held.retain(|h| !want.finished.contains(h));
                    coincident += usize::from(stepped.len() > 1);
                    for exec in stepped {
                        last_step[exec] = Some(at);
                    }
                }
            }
            assert_eq!(stretch.occupancy(), reference.occupancy(), "{}", label(op));
        }
        (coincident, at_boundary)
    }

    /// One wake-up per stretch finishes every task at the same boundary,
    /// in the same order, with the same step effectiveness and ledger
    /// occupancy as one wake-up per iteration: flat and interpolated
    /// latency, chunk 1 and 3, token counts off the chunk grid, kills
    /// mid-stretch, admits between boundaries and exactly at one, and
    /// several units' boundaries on one microsecond.
    #[test]
    fn stretches_match_per_iteration_reference() {
        for latency in [flat_latency(), interpolated_latency()] {
            for chunk in [1, 3] {
                let (mut coincident, mut at_boundary) = (0, 0);
                for seed in 1..=8 {
                    let (c, b) = compare(&latency, chunk, seed);
                    coincident += c;
                    at_boundary += b;
                }
                assert!(coincident > 0, "chunk {chunk}: no coincident boundaries");
                assert!(at_boundary > 0, "chunk {chunk}: no admit at a boundary");
            }
        }
    }
}
