//! The token-level continuous-batching backend — the paper's *testbed*
//! stand-in.
//!
//! Executors step per decode iteration: requests join at iteration
//! boundaries (vLLM-style continuous batching), every iteration costs
//! `l(batch)` wall-clock and emits `chunk` tokens per request. `chunk = 1`
//! is faithful per-token stepping; larger chunks trade fidelity for event
//! throughput. The iteration loop is driven by
//! [`Event::LlmStep`](crate::event::Event::LlmStep) wake-ups the backend
//! posts for itself, versioned by a per-executor epoch so a batch that
//! drains and restarts invalidates leftover wake-ups.

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
    /// Tasks decoding in the current iteration.
    running: Vec<Pending>,
    /// Tasks admitted mid-iteration; they join at the next boundary.
    joining: Vec<Pending>,
    /// Wake-up epoch; LlmStep events from older epochs are stale.
    epoch: u64,
    /// Whether an iteration is in flight.
    iterating: bool,
}

impl Unit {
    fn occupancy(&self) -> usize {
        self.running.len() + self.joining.len()
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
    /// decoding `chunk` tokens per iteration event. Panics unless
    /// `chunk ≥ 1`, which `ClusterConfig::validate` guarantees.
    pub fn new(n_execs: usize, max_batch: usize, chunk: u64) -> Self {
        assert!(chunk > 0, "iteration chunk must be at least 1 token");
        TokenExec {
            units: (0..n_execs).map(|_| Unit::default()).collect(),
            ledger: SlotLedger::new(vec![max_batch; n_execs]),
            chunk,
        }
    }

    /// Starts the next iteration on `exec`: bumps the epoch and posts the
    /// boundary wake-up `l(batch) × chunk` ahead.
    fn start_iteration(&mut self, exec: usize, cx: &mut ExecCtx<'_>) {
        let unit = &mut self.units[exec];
        debug_assert!(!unit.running.is_empty());
        unit.iterating = true;
        unit.epoch += 1;
        let dur = cx
            .latency
            .per_token(unit.running.len())
            .mul_f64(self.chunk as f64);
        cx.post_step(exec, unit.epoch, cx.now + dur);
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
            self.start_iteration(exec, cx);
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
        for r in &mut unit.running {
            r.remaining_tokens = r.remaining_tokens.saturating_sub(self.chunk);
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
            self.start_iteration(exec, cx);
        }
        // An iteration with no finishes only shuffled batch composition;
        // scheduling on it would be harmless but noisy, so effectiveness
        // is reported only when a task completed.
        let effective = finished.len() > before;
        if effective {
            self.ledger.set(exec, occupancy);
        }
        effective
    }

    fn drain(&mut self, exec: usize, task: LlmTaskRef, cx: &mut ExecCtx<'_>) {
        // Finished tasks were already removed by the step that completed
        // them; this only covers defensive removal of a task the engine
        // finishes through some other path.
        let unit = &mut self.units[exec];
        unit.running.retain(|r| r.task != task);
        unit.joining.retain(|r| r.task != task);
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
    use llmsched_dag::time::{SimDuration, SimTime};

    fn flat_latency() -> LatencyProfile {
        LatencyProfile::new(vec![(1, SimDuration::from_millis(10))]).unwrap()
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

    /// Pops the single pending LlmStep event.
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
        let (time, exec, _) = pop_step(&mut queue);
        assert_eq!(exec, 0);
        assert!(
            (time.as_secs_f64() - 0.01).abs() < 1e-9,
            "one l(1) iteration ahead"
        );
    }

    #[test]
    fn joiners_wait_for_iteration_boundary() {
        let latency = flat_latency();
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(2)];
        let mut be = TokenExec::new(1, 8, 1);
        let mut cx = ExecCtx::for_test(SimTime::ZERO, &latency, &mut queue, &mut jobs);
        be.admit(0, t(0), w(2), &mut cx);
        be.admit(0, t(1), w(2), &mut cx);
        // Occupancy counts the joiner immediately (slot accounting)...
        assert_eq!(be.ledger().occupancy(0), 2);
        // ...but only one wake-up is in flight: the joiner did not restart
        // or reschedule the running iteration.
        assert_eq!(queue.len(), 1);
    }

    #[test]
    fn stale_epoch_steps_are_discarded() {
        let latency = flat_latency();
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(2)];
        let mut be = TokenExec::new(1, 8, 1);
        let mut cx = ExecCtx::for_test(SimTime::ZERO, &latency, &mut queue, &mut jobs);
        be.admit(0, t(0), w(1), &mut cx);
        let (_, _, epoch) = pop_step(&mut queue);
        let mut cx = ExecCtx::for_test(SimTime::ZERO, &latency, &mut queue, &mut jobs);
        let mut finished = Vec::new();
        assert!(!be.step(0, epoch + 1, &mut cx, &mut finished));
        assert!(finished.is_empty());
        // The real epoch still works and finishes the 1-token task.
        assert!(be.step(0, epoch, &mut cx, &mut finished));
        assert_eq!(finished, vec![t(0)]);
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
        let latency = flat_latency();
        for (chunk, expected_steps) in [(1u64, 8usize), (4, 2), (16, 1)] {
            let mut queue = EventQueue::new();
            let mut jobs = [crate::state::test_support::job_with_llm_tasks(1)];
            let mut be = TokenExec::new(1, 8, chunk);
            let mut cx = ExecCtx::for_test(SimTime::ZERO, &latency, &mut queue, &mut jobs);
            be.admit(0, t(0), w(8), &mut cx);
            let mut steps = 0;
            while !queue.is_empty() {
                let (time, _, epoch) = pop_step(&mut queue);
                let mut cx = ExecCtx::for_test(time, &latency, &mut queue, &mut jobs);
                be.step(0, epoch, &mut cx, &mut Vec::new());
                steps += 1;
            }
            assert_eq!(steps, expected_steps, "chunk {chunk}");
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
}
