//! The analytic rate-rescaling backend — the paper's *simulator*.
//!
//! Each running LLM task tracks remaining tokens as a real number.
//! Whenever an executor's batch membership changes (a task is admitted or
//! drained), progress since the last change is settled at the old
//! per-token rate and a fresh finish event is posted for every survivor
//! at the new rate; per-task epochs invalidate the superseded events.
//! Between membership changes the backend is completely idle — no
//! per-iteration events — which is what makes this fidelity fast.

use llmsched_dag::time::{SimDuration, SimTime};
use llmsched_dag::work::LlmWork;

use super::{ExecCtx, ExecutorBackend, LlmTaskRef, SlotLedger};
use crate::latency::LatencyProfile;

/// One running task and its outstanding decode work.
#[derive(Debug, Clone)]
struct Running {
    task: LlmTaskRef,
    remaining_tokens: f64,
}

/// One LLM executor's batch.
#[derive(Debug, Default)]
struct Unit {
    running: Vec<Running>,
    last_settle: SimTime,
}

impl Unit {
    /// Settles decode progress since the last membership change at the
    /// current batch rate.
    fn settle(&mut self, now: SimTime, latency: &LatencyProfile) {
        if !self.running.is_empty() {
            let elapsed = (now - self.last_settle).as_secs_f64();
            if elapsed > 0.0 {
                let rate = latency.per_token(self.running.len()).as_secs_f64();
                let done = elapsed / rate;
                for r in &mut self.running {
                    r.remaining_tokens = (r.remaining_tokens - done).max(0.0);
                }
            }
        }
        self.last_settle = now;
    }

    /// Re-posts finish events for every running task at the current batch
    /// rate (stale events are invalidated via task epochs).
    fn retime(&self, cx: &mut ExecCtx<'_>) {
        if self.running.is_empty() {
            return;
        }
        let rate = cx.latency.per_token(self.running.len()).as_secs_f64();
        for r in &self.running {
            let finish = cx.now + SimDuration::from_secs_f64(r.remaining_tokens * rate);
            cx.post_finish(r.task, finish);
        }
    }
}

/// The analytic rate-rescaling executor pool.
#[derive(Debug)]
pub struct AnalyticExec {
    units: Vec<Unit>,
    ledger: SlotLedger,
}

impl AnalyticExec {
    /// A pool of `n_execs` idle executors batching up to `max_batch`.
    pub fn new(n_execs: usize, max_batch: usize) -> Self {
        AnalyticExec {
            units: (0..n_execs).map(|_| Unit::default()).collect(),
            ledger: SlotLedger::new(vec![max_batch; n_execs]),
        }
    }
}

impl ExecutorBackend for AnalyticExec {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn ledger(&self) -> &SlotLedger {
        &self.ledger
    }

    fn admit(&mut self, exec: usize, task: LlmTaskRef, work: LlmWork, cx: &mut ExecCtx<'_>) {
        let unit = &mut self.units[exec];
        unit.settle(cx.now, cx.latency);
        unit.running.push(Running {
            task,
            remaining_tokens: work.folded_tokens() as f64,
        });
        unit.retime(cx);
        self.ledger.set(exec, unit.running.len());
        cx.emit(llmsched_telemetry::ProbeEvent::BatchAdmit {
            at: cx.now,
            exec: exec as u32,
            occupancy: self.ledger.occupancy(exec) as u32,
            capacity: self.ledger.capacity(exec) as u32,
        });
    }

    fn step(
        &mut self,
        _exec: usize,
        _epoch: u64,
        _cx: &mut ExecCtx<'_>,
        _finished: &mut Vec<LlmTaskRef>,
    ) -> bool {
        // This backend never posts LlmStep events; any that arrive are
        // stale leftovers from a different backend's queue (impossible in
        // practice, as the engine owns one backend per run).
        false
    }

    fn drain(&mut self, exec: usize, task: LlmTaskRef, cx: &mut ExecCtx<'_>) {
        let unit = &mut self.units[exec];
        unit.settle(cx.now, cx.latency);
        unit.running.retain(|r| r.task != task);
        unit.retime(cx);
        self.ledger.set(exec, unit.running.len());
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

    #[test]
    fn admit_posts_one_finish_event_per_running_task() {
        let latency = flat_latency();
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(4)];
        let mut be = AnalyticExec::new(1, 8);

        let mut cx = ExecCtx::for_test(SimTime::ZERO, &latency, &mut queue, &mut jobs);
        be.admit(0, t(0), w(100), &mut cx);
        assert_eq!(be.ledger().occupancy(0), 1);
        assert_eq!(queue.len(), 1, "one finish event for the lone task");

        let mut cx = ExecCtx::for_test(SimTime::ZERO, &latency, &mut queue, &mut jobs);
        be.admit(0, t(1), w(100), &mut cx);
        assert_eq!(be.ledger().occupancy(0), 2);
        // Both tasks were re-timed: two new events on top of the stale one.
        assert_eq!(queue.len(), 3);
    }

    #[test]
    fn drain_releases_slot_and_retimes_survivors() {
        let latency = flat_latency();
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(4)];
        let mut be = AnalyticExec::new(2, 8);

        let mut cx = ExecCtx::for_test(SimTime::ZERO, &latency, &mut queue, &mut jobs);
        be.admit(0, t(0), w(100), &mut cx);
        be.admit(0, t(1), w(200), &mut cx);
        be.drain(0, t(0), &mut cx);
        assert_eq!(be.ledger().occupancy(0), 1);
        assert_eq!(be.ledger().occupancy(1), 0, "other executors untouched");
        // Draining an already-absent task is a no-op on occupancy.
        be.drain(0, t(0), &mut cx);
        assert_eq!(be.ledger().occupancy(0), 1);
    }

    #[test]
    fn only_latest_epoch_finish_event_is_valid() {
        let latency = flat_latency();
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(1)];
        let mut be = AnalyticExec::new(1, 8);

        let mut cx = ExecCtx::for_test(SimTime::ZERO, &latency, &mut queue, &mut jobs);
        be.admit(0, t(0), w(100), &mut cx);
        let mut cx =
            ExecCtx::for_test(SimTime::from_secs_f64(0.5), &latency, &mut queue, &mut jobs);
        // A no-op membership change (drain of an absent task) still
        // re-times: the old event goes stale.
        be.drain(
            0,
            LlmTaskRef {
                job: 0,
                stage: 0,
                task: 99,
            },
            &mut cx,
        );
        let current_epoch = jobs[0].task_epoch_of(0, 0);
        let mut valid = 0;
        while let Some((_, ev)) = queue.pop() {
            if let Event::TaskFinish { epoch, .. } = ev {
                valid += u32::from(epoch == current_epoch);
            }
        }
        assert_eq!(valid, 1, "exactly one live finish event per running task");
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
        let mut be = AnalyticExec::new(1, 8);

        let mut cx = ExecCtx::for_test(SimTime::ZERO, &latency, &mut queue, &mut jobs);
        be.admit(0, t(0), w(100), &mut cx);
        let mut cx =
            ExecCtx::for_test(SimTime::from_secs_f64(0.5), &latency, &mut queue, &mut jobs);
        be.admit(0, t(1), w(100), &mut cx);
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
        let latency = flat_latency();
        let mut queue = EventQueue::new();
        let mut jobs = [crate::state::test_support::job_with_llm_tasks(4)];
        let mut be = AnalyticExec::new(2, 8);
        let mut cx = ExecCtx::for_test(SimTime::ZERO, &latency, &mut queue, &mut jobs);
        be.admit(1, t(0), w(10), &mut cx);
        let views = be.ledger().views();
        assert_eq!(views.len(), 2);
        assert_eq!((views[0].batch_len, views[1].batch_len), (0, 1));
        assert_eq!((views[0].max_batch, views[1].max_batch), (8, 8));
        assert_eq!(be.place(t(1), w(10)), Some(0));
    }
}
