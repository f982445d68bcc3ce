//! The traced run's instruments, all outside the program: spans recorded
//! around the calls the benchmark makes into each layer, a forwarding
//! scheduler wrapper that times every hook, and a counting probe for the
//! executor and router layers.

use std::fmt::Write as _;
use std::time::Instant;

use llmsched_sim::scheduler::{Preference, SchedContext, SchedDelta, Scheduler};
use llmsched_sim::telemetry::json;
use llmsched_sim::telemetry::{DecisionRecord, Probe, ProbeEvent};

use crate::alloc;

/// One timed interval of host time.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `scheduler.schedule`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store, written out once at the end of a run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty store whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Reserves room for `n` more spans, so recording inside a timed
    /// region never allocates.
    pub fn reserve(&mut self, n: usize) {
        self.spans.reserve(n);
    }

    /// Records `[start, end]` under `parent`; returns the span's index.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Sets span `i`'s interval (for a parent recorded before its end was
    /// known).
    pub fn set(&mut self, i: usize, start: Instant, end: Instant) {
        self.spans[i].start_ns = self.ns(start);
        self.spans[i].end_ns = self.ns(end);
    }

    /// Appends `other`'s spans, which must share this store's origin.
    pub fn append(&mut self, other: &Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..*s
        }));
    }

    /// Per span name, in first-seen order: `(name, count, total_s, self_s)`,
    /// where self time is a span's duration minus its children's.
    pub fn summary(&self) -> Vec<(&'static str, u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: Vec<(&'static str, u64, f64, f64)> = Vec::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let total = s.dur_ns() as f64 * 1e-9;
            let own = s.dur_ns().saturating_sub(c) as f64 * 1e-9;
            match out.iter_mut().find(|row| row.0 == s.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += total;
                    row.3 += own;
                }
                None => out.push((s.name, 1, total, own)),
            }
        }
        out
    }

    /// Chrome `trace_event` JSON (complete events, microseconds), loadable
    /// in Perfetto. `meta` is a JSON object stored as `otherData`.
    pub fn chrome_json(&self, meta: &str) -> String {
        let mut s = String::with_capacity(self.spans.len() * 96 + meta.len() + 64);
        s.push_str("{\"traceEvents\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = sp.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                s,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{},\"dur\":{},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                json::escape(sp.name),
                json::escape(sp.name.split('.').next().unwrap_or(sp.name)),
                json::num(sp.start_ns as f64 / 1e3),
                json::num(sp.dur_ns() as f64 / 1e3),
            );
        }
        let _ = write!(s, "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{meta}}}\n");
        s
    }
}

/// What the timing wrapper counted over one `simulate` call.
#[derive(Debug, Clone, Copy, Default)]
pub struct HookStats {
    /// `schedule` calls.
    pub calls: u64,
    /// Deltas delivered through `on_delta`.
    pub deltas: u64,
    /// Task references proposed in returned preferences.
    pub proposed: u64,
    /// Tasks reported started by delivered `TasksDispatched` deltas.
    pub dispatched: u64,
    /// Host time inside `schedule`.
    pub schedule_ns: u64,
    /// Host time inside delta batches (first `on_delta` to `schedule`).
    pub on_delta_ns: u64,
    /// Allocations made inside scheduler hooks.
    pub allocs: u64,
}

/// Forwards every hook to `inner`, timing each `schedule` call and each
/// delta batch and recording one span per call and per batch under
/// `parent`. Spans must be reserved beforehand so recording never
/// allocates inside the timed region.
pub struct Timed<'a, S> {
    inner: S,
    spans: &'a mut Spans,
    parent: usize,
    /// Start instant and allocation count of the open delta batch.
    batch: Option<(Instant, u64)>,
    /// The counts and times so far.
    pub stats: HookStats,
}

impl<'a, S: Scheduler> Timed<'a, S> {
    /// Wraps `inner`, recording spans under `parent`.
    pub fn new(inner: S, spans: &'a mut Spans, parent: usize) -> Self {
        Timed {
            inner,
            spans,
            parent,
            batch: None,
            stats: HookStats::default(),
        }
    }
}

impl<S: Scheduler> Scheduler for Timed<'_, S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Preference {
        let start = Instant::now();
        let allocs_at_start = match self.batch.take() {
            Some((b, a)) => {
                self.stats.on_delta_ns += (start - b).as_nanos() as u64;
                self.spans
                    .push("scheduler.on_delta", b, start, Some(self.parent));
                a
            }
            None => alloc::allocs(),
        };
        let pref = self.inner.schedule(ctx);
        let end = Instant::now();
        self.stats.allocs += alloc::allocs() - allocs_at_start;
        self.stats.schedule_ns += (end - start).as_nanos() as u64;
        self.stats.calls += 1;
        self.stats.proposed += pref.len() as u64;
        self.spans
            .push("scheduler.schedule", start, end, Some(self.parent));
        pref
    }

    fn on_delta(&mut self, delta: &SchedDelta) {
        if self.batch.is_none() {
            self.batch = Some((Instant::now(), alloc::allocs()));
        }
        self.stats.deltas += 1;
        if let SchedDelta::TasksDispatched { count, .. } = *delta {
            self.stats.dispatched += u64::from(count);
        }
        self.inner.on_delta(delta);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn set_telemetry(&mut self, enabled: bool) {
        self.inner.set_telemetry(enabled);
    }

    fn drain_provenance(&mut self, out: &mut Vec<DecisionRecord>) {
        self.inner.drain_provenance(out);
    }

    fn is_work_conserving(&self) -> bool {
        self.inner.is_work_conserving()
    }
}

/// Counts executor admissions and router placements.
#[derive(Debug, Default)]
pub struct CountProbe {
    /// `BatchAdmit` events.
    pub batch_admits: u64,
    /// Sum of occupied slots after each admission.
    pub admit_occupancy: u64,
    /// `Routed` events.
    pub routed: u64,
}

impl Probe for CountProbe {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, ev: &ProbeEvent) {
        match *ev {
            ProbeEvent::BatchAdmit { occupancy, .. } => {
                self.batch_admits += 1;
                self.admit_occupancy += u64::from(occupancy);
            }
            ProbeEvent::Routed { .. } => self.routed += 1,
            _ => {}
        }
    }
}
