//! Intra-simulation parallelism: configuration, run statistics, and the
//! partitioned event core.
//!
//! The partitioned engine (see `DESIGN.md` §10) splits the executor pool
//! into disjoint shards and steps their hook work on scoped worker
//! threads between scheduler invocations. Determinism rests on two
//! pieces that live here:
//!
//! - [`ShardedQueue`] — one indexed event heap per shard fed from a
//!   single global sequence counter, merged head-to-head by the exact
//!   `(time, seq)` key the sequential [`EventQueue`] orders by. Popping
//!   the merged queue therefore reproduces the sequential pop order
//!   bit for bit.
//! - [`Parallelism`] — the knob selecting the sequential reference path
//!   ([`Parallelism::Off`], the oracle) or the partitioned path.
//!
//! The scheduler barrier itself (collect a same-timestamp batch, fan
//! hook work out per shard, replay effects in batch order, then invoke
//! the scheduler) lives in the engine; this module only guarantees that
//! what the engine pops is the sequential order.

use crate::event::{Event, EventQueue};
use llmsched_dag::time::SimTime;

/// Intra-simulation parallelism policy for one engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Single-threaded reference path — the correctness oracle every
    /// partitioned run is tested against.
    #[default]
    Off,
    /// Partition the LLM executor pool (and the event core) into `n`
    /// shards stepped concurrently between scheduler barriers. Clamped
    /// to the executor count; `0` and `1` degrade to [`Parallelism::Off`].
    Partitioned(usize),
    /// Partitioned with the shard count taken from
    /// [`std::thread::available_parallelism`] (degrades to the
    /// sequential path on single-core hosts).
    Auto,
}

impl Parallelism {
    /// The effective shard count for a pool of `n_execs` executors.
    /// A result of `1` means the sequential reference path.
    pub fn resolve(self, n_execs: usize) -> usize {
        let raw = match self {
            Parallelism::Off => 1,
            Parallelism::Partitioned(n) => n,
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        };
        raw.clamp(1, n_execs.max(1))
    }
}

/// Statistics a partitioned run reports alongside its [`SimResult`]
/// (`None` on the sequential path).
///
/// [`SimResult`]: crate::metrics::SimResult
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParStats {
    /// Shard count the run used.
    pub partitions: usize,
    /// Event rounds processed (same-timestamp batches plus lookahead
    /// window rounds).
    pub rounds: u64,
    /// Rounds whose hook work spanned ≥ 2 shards and therefore ran on
    /// scoped worker threads.
    pub parallel_rounds: u64,
    /// Scheduler barriers: synchronization points of the partitioned
    /// outer loop that could not be skipped — actual scheduler
    /// invocations plus iterations that offered no scheduler opportunity
    /// at all (nothing effective happened, no capacity was free, or no
    /// job was active). Opportunities coalesced or elided away
    /// (`sched_skipped` / `sched_elided`) cost no barrier: the loop
    /// rolls straight into the next lookahead window. `rounds` remains
    /// the superset iteration count.
    pub barriers: u64,
    /// Lookahead window rounds that batched at least one event past the
    /// head timestamp (a window spanning a single timestamp counts as an
    /// ordinary round).
    pub windows: u64,
    /// Whether a [`Parallelism::Auto`] run demoted itself to inline
    /// stepping after observing no multi-shard batches (see
    /// [`should_demote`]).
    pub demoted: bool,
    /// Per-shard work breakdown, indexed by shard. Batch and event
    /// counts cover every round the shard had hook events in —
    /// including rounds and windows that executed inline on the main
    /// thread (single-thread hosts, demoted runs, sub-threshold
    /// batches). Busy time accrues on threaded batches and on timed
    /// inline window drains; single-event inline rounds are not clocked
    /// (a timer pair per event would re-measure the event loop itself).
    pub per_shard: Vec<ShardStats>,
    /// Worker-pool thread count serving this run (0 when the run never
    /// built a pool — single effective hardware thread).
    pub pool_threads: usize,
    /// Cumulative busy time per pool thread (index 0 is the engine
    /// thread's share of pool work; workers follow). Empty without a
    /// pool.
    pub pool_busy: Vec<std::time::Duration>,
}

/// Rounds a [`Parallelism::Auto`] run observes before concluding the
/// workload never engages a second shard and demoting itself to inline
/// stepping (threading overhead with no parallel work is pure loss —
/// BENCH_scale.json's 0.75× analytic+p4 row at 100k jobs).
pub const AUTO_DEMOTE_AFTER: u64 = 4096;

/// Whether an Auto run that has processed `rounds` rounds, of which
/// `parallel_rounds` engaged ≥ 2 busy shards, should stop offloading hook
/// work to worker threads. Purely a performance decision: the demoted
/// path replays the same events in the same order inline.
pub fn should_demote(rounds: u64, parallel_rounds: u64) -> bool {
    rounds >= AUTO_DEMOTE_AFTER && parallel_rounds == 0
}

/// Minimum conservative-window batch size worth offloading to worker
/// threads. A hook event costs well under a microsecond, so threading a
/// typical 2–3-event window is a pure loss (measured 0.46× at the quick
/// scale tier before this gate) even with the parked-worker pool's
/// microsecond-scale wakeup; windows below the threshold replay inline.
/// Same-timestamp barrier rounds keep the plain ≥ 2-busy-shards gate —
/// multi-shard co-timed rounds are rare enough that their dispatch cost
/// never shows.
pub const WINDOW_THREAD_MIN_EVENTS: usize = 64;

/// Whether a conservative-window batch of `total_events` events spanning
/// `busy_shards` shards with queued work should run its hook phase on
/// worker threads, given `hw_threads` effective pool threads. Purely a
/// performance decision: the inline path replays the same events in the
/// same order. On a single-effective-thread host no pool exists and
/// workers would only serialize behind the main thread.
pub fn should_thread_window(total_events: usize, busy_shards: usize, hw_threads: usize) -> bool {
    hw_threads >= 2 && busy_shards >= 2 && total_events >= WINDOW_THREAD_MIN_EVENTS
}

/// One shard's share of a partitioned run (see [`ParStats::per_shard`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Rounds in which this shard had at least one event to handle,
    /// whether the round threaded or executed inline.
    pub batches: u64,
    /// Of those, rounds whose hook work ran on pool worker threads.
    pub threaded_batches: u64,
    /// Hook events this shard handled across all rounds (inline rounds
    /// included).
    pub events: u64,
    /// Wall-clock time spent on this shard's hook work: exact on
    /// threaded batches, pro-rata by event count on timed inline window
    /// drains (documented approximation; single-event inline rounds are
    /// not clocked).
    pub busy: std::time::Duration,
}

/// A persistent fork-join pool of parked worker threads behind the
/// partitioned engine's window stepping (see `DESIGN.md` §13).
///
/// [`WorkerPool::run`] publishes one job — `f(i)` for every
/// `i < tasks` — wakes the parked workers, participates from the calling
/// thread, and returns only once every claimed task has completed (so
/// borrows captured by `f` are live for the whole execution). Task
/// indices are claimed from a shared atomic counter; callers that need
/// per-task *exclusive* access to shared state key it by the task index
/// (see [`TaskSlots`]).
///
/// This replaces the per-round [`std::thread::scope`] spawns of the
/// earlier partitioned engine: a parked-thread wakeup costs a few
/// microseconds against the tens of microseconds of a spawn+join cycle,
/// which is what let per-round threading overhead eat the multi-core
/// win.
pub struct WorkerPool {
    shared: std::sync::Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

/// One published fork-join job. The closure pointer is lifetime-erased:
/// it is dereferenced only for successfully claimed indices
/// (`i < tasks`), all of which complete before [`WorkerPool::run`]
/// returns — so every dereference happens while the caller's borrow is
/// still live. Late-waking workers claim `i >= tasks` and never touch
/// the pointer.
struct PoolJob {
    f: *const (dyn Fn(usize) + Sync),
    tasks: usize,
    next: std::sync::atomic::AtomicUsize,
    completed: std::sync::atomic::AtomicUsize,
    panicked: std::sync::atomic::AtomicBool,
}

// SAFETY: the closure behind `f` is `Sync` (shared calls are safe) and
// the pointer's target outlives every dereference (see `PoolJob` docs);
// the atomics are thread-safe by construction.
#[allow(unsafe_code)]
unsafe impl Send for PoolJob {}
#[allow(unsafe_code)]
unsafe impl Sync for PoolJob {}

struct PoolShared {
    state: std::sync::Mutex<PoolState>,
    /// Signals workers that `state.epoch` advanced (new job published).
    work: std::sync::Condvar,
    /// Signals the caller that the last outstanding task completed.
    done: std::sync::Condvar,
    /// Cumulative busy nanoseconds per pool thread (caller first).
    busy: Vec<std::sync::atomic::AtomicU64>,
}

struct PoolState {
    epoch: u64,
    job: Option<std::sync::Arc<PoolJob>>,
    shutdown: bool,
}

#[allow(unsafe_code)] // one deref of the lifetime-erased job closure
fn pool_worker(shared: std::sync::Arc<PoolShared>, me: usize) {
    use std::sync::atomic::Ordering;
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool lock");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    if let Some(j) = st.job.clone() {
                        break j;
                    }
                }
                st = shared.work.wait(st).expect("pool lock");
            }
        };
        let started = std::time::Instant::now();
        let mut ran = false;
        loop {
            let i = job.next.fetch_add(1, Ordering::Relaxed);
            if i >= job.tasks {
                break;
            }
            ran = true;
            // SAFETY: `i < tasks`, so the caller is still inside `run`
            // and the closure borrow is live (see `PoolJob`).
            let f = unsafe { &*job.f };
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))).is_err() {
                job.panicked.store(true, Ordering::SeqCst);
            }
            if job.completed.fetch_add(1, Ordering::AcqRel) + 1 == job.tasks {
                // Lock before notifying so the caller cannot check the
                // count and sleep between our increment and our notify.
                let _guard = shared.state.lock().expect("pool lock");
                shared.done.notify_all();
            }
        }
        if ran {
            shared.busy[me].fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

impl WorkerPool {
    /// Builds a pool of `threads` total participants: the calling thread
    /// plus `threads - 1` parked workers. Clamped below at 2 (a
    /// one-thread pool is pointless; callers gate construction on the
    /// effective thread count instead).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(2);
        let shared = std::sync::Arc::new(PoolShared {
            state: std::sync::Mutex::new(PoolState {
                epoch: 0,
                job: None,
                shutdown: false,
            }),
            work: std::sync::Condvar::new(),
            done: std::sync::Condvar::new(),
            busy: (0..threads)
                .map(|_| std::sync::atomic::AtomicU64::new(0))
                .collect(),
        });
        let handles = (1..threads)
            .map(|me| {
                let sh = std::sync::Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("llmsched-pool-{me}"))
                    .spawn(move || pool_worker(sh, me))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            threads,
        }
    }

    /// Total participating threads (callers + parked workers).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(i)` for every `i < tasks` across the pool and the calling
    /// thread, returning when all tasks have completed. Tasks may run in
    /// any order and concurrently; `f` must be safe to call from
    /// multiple threads (it is `Sync`) and per-index work must not alias
    /// mutable state across indices. Panics (after completing the job)
    /// if any task panicked.
    #[allow(unsafe_code)] // lifetime erasure of `f` for publication
    pub fn run(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        use std::sync::atomic::Ordering;
        if tasks == 0 {
            return;
        }
        let job = std::sync::Arc::new(PoolJob {
            // SAFETY: lifetime erasure only — every dereference happens
            // before `run` returns (see `PoolJob`).
            f: unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize) + Sync),
                    *const (dyn Fn(usize) + Sync + 'static),
                >(f as *const (dyn Fn(usize) + Sync))
            },
            tasks,
            next: std::sync::atomic::AtomicUsize::new(0),
            completed: std::sync::atomic::AtomicUsize::new(0),
            panicked: std::sync::atomic::AtomicBool::new(false),
        });
        {
            let mut st = self.shared.state.lock().expect("pool lock");
            st.epoch += 1;
            st.job = Some(std::sync::Arc::clone(&job));
        }
        self.shared.work.notify_all();
        // The caller is pool thread 0: claim tasks like any worker.
        let started = std::time::Instant::now();
        let mut ran = false;
        loop {
            let i = job.next.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                break;
            }
            ran = true;
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))).is_err() {
                job.panicked.store(true, Ordering::SeqCst);
            }
            job.completed.fetch_add(1, Ordering::AcqRel);
        }
        if ran {
            self.shared.busy[0].fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        // Wait for straggler workers; every claimed index completes
        // (worker panics are caught and still counted).
        let mut st = self.shared.state.lock().expect("pool lock");
        while job.completed.load(Ordering::Acquire) < tasks {
            st = self.shared.done.wait(st).expect("pool lock");
        }
        st.job = None;
        drop(st);
        if job.panicked.load(Ordering::SeqCst) {
            panic!("worker-pool task panicked");
        }
    }

    /// Cumulative busy time per pool thread (caller thread first).
    pub fn worker_busy(&self) -> Vec<std::time::Duration> {
        self.shared
            .busy
            .iter()
            .map(|b| std::time::Duration::from_nanos(b.load(std::sync::atomic::Ordering::Relaxed)))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool lock");
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Per-task exclusive slots for [`WorkerPool::run`]: each task index
/// owns exactly one element, so disjoint-index access from concurrent
/// workers is sound without locking (`Vec` length never changes during
/// a run). The caller fills the slots before the run and drains results
/// after it; accessing the same index from two tasks is a contract
/// violation.
pub struct TaskSlots<T>(std::cell::UnsafeCell<Vec<Option<T>>>);

// SAFETY: concurrent access is element-wise disjoint by the task-index
// contract above, and `T: Send` lets elements move across the worker
// threads that take/put them.
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for TaskSlots<T> {}

impl<T> TaskSlots<T> {
    /// `n` empty slots.
    pub fn new(n: usize) -> Self {
        TaskSlots(std::cell::UnsafeCell::new((0..n).map(|_| None).collect()))
    }

    /// Fills slot `i` (single-threaded setup, or task `i` itself).
    #[allow(unsafe_code)]
    pub fn put(&self, i: usize, v: T) {
        // SAFETY: index-exclusive by the type's contract; the Vec is
        // never resized while shared.
        unsafe { (&mut *self.0.get())[i] = Some(v) }
    }

    /// Takes slot `i`'s value, leaving `None`.
    #[allow(unsafe_code)]
    pub fn take(&self, i: usize) -> Option<T> {
        // SAFETY: as in `put`.
        unsafe { (&mut *self.0.get())[i].take() }
    }

    /// Unwraps the remaining slots after a run.
    pub fn into_inner(self) -> Vec<Option<T>> {
        self.0.into_inner()
    }
}

/// The engine's event core: one heap on the sequential path, a
/// deterministic multi-heap merge on the partitioned path.
#[derive(Debug)]
pub(crate) enum EventQueues {
    /// The sequential engine's single indexed heap.
    Single(EventQueue),
    /// Per-shard heaps with a global sequence counter.
    Sharded(ShardedQueue),
}

impl EventQueues {
    pub(crate) fn push(&mut self, time: SimTime, event: Event) {
        match self {
            EventQueues::Single(q) => q.push(time, event),
            EventQueues::Sharded(q) => q.push(time, event),
        }
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, Event)> {
        match self {
            EventQueues::Single(q) => q.pop(),
            EventQueues::Sharded(q) => q.pop(),
        }
    }

    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        match self {
            EventQueues::Single(q) => q.peek_time(),
            EventQueues::Sharded(q) => q.peek_time(),
        }
    }

    /// Packed `(time, seq)` key of the earliest event (window replay
    /// interleaves pre-popped batches with live pops by this key).
    pub(crate) fn peek_key(&self) -> Option<u128> {
        match self {
            EventQueues::Single(q) => q.peek_key(),
            EventQueues::Sharded(q) => q.peek_key(),
        }
    }

    /// Pops the earliest event together with its ordering key.
    pub(crate) fn pop_keyed(&mut self) -> Option<(u128, SimTime, Event)> {
        match self {
            EventQueues::Single(q) => q.pop_keyed(),
            EventQueues::Sharded(q) => q.pop_keyed(),
        }
    }
}

/// Per-shard event heaps sharing one global `(time, seq)` key space.
///
/// Every push stamps the next global sequence number, so each event's
/// ordering key is identical to what the single-queue engine would have
/// assigned; events are merely *stored* on the heap of the shard that
/// will handle them. `pop`/`peek_time` take the minimum over shard
/// heads, which reproduces the single-heap order exactly.
#[derive(Debug)]
pub(crate) struct ShardedQueue {
    shards: Vec<EventQueue>,
    /// Next global sequence number (ties in `time` break by push order).
    seq: u64,
    /// Executor index → owning shard, from the backend's partition map.
    exec_shard: Vec<usize>,
    /// Always-valid `(key, shard)` of the global head, or `None` when
    /// empty. A push can only improve the minimum (one compare); a pop
    /// removes the head and rescans the `O(shards)` heads once. Peeks —
    /// which the engine issues far more often than pops during window
    /// negotiation — are therefore O(1) instead of an argmin scan.
    cached: Option<(u128, usize)>,
}

impl ShardedQueue {
    pub(crate) fn new(parts: usize, exec_shard: Vec<usize>, capacity: usize) -> Self {
        assert!(parts >= 1, "sharded queue needs at least one shard");
        ShardedQueue {
            shards: (0..parts)
                .map(|_| EventQueue::with_capacity(capacity / parts + 1))
                .collect(),
            seq: 0,
            exec_shard,
            cached: None,
        }
    }

    /// Rescans shard heads and re-establishes the cache invariant.
    fn recompute_min(&mut self) {
        self.cached = None;
        for (i, q) in self.shards.iter().enumerate() {
            if let Some(key) = q.peek_key() {
                if self.cached.map_or(true, |(bk, _)| key < bk) {
                    self.cached = Some((key, i));
                }
            }
        }
    }

    /// The shard whose heap stores `event`. `LlmStep` follows the
    /// executor partition (its hook runs on that shard); job-keyed
    /// events spread round-robin — their storage shard is irrelevant to
    /// correctness because the engine re-routes hook work by the task's
    /// *current* executor at batch time.
    fn route(&self, event: &Event) -> usize {
        match event {
            Event::LlmStep { exec, .. } => self.exec_shard[*exec],
            Event::Arrival { job } | Event::TaskFinish { job, .. } => job % self.shards.len(),
        }
    }

    pub(crate) fn push(&mut self, time: SimTime, event: Event) {
        let shard = self.route(&event);
        let seq = self.seq;
        self.seq += 1;
        self.shards[shard].push_with_seq(time, seq, event);
        // Global sequence numbers make keys unique, so a strict compare
        // suffices; the new event can only improve the cached minimum.
        let key = self.shards[shard].peek_key().expect("just pushed");
        if self.cached.map_or(true, |(bk, _)| key < bk) {
            self.cached = Some((key, shard));
        }
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.pop_keyed().map(|(_, time, ev)| (time, ev))
    }

    pub(crate) fn pop_keyed(&mut self) -> Option<(u128, SimTime, Event)> {
        let (_, shard) = self.cached?;
        let popped = self.shards[shard].pop_keyed();
        debug_assert!(popped.is_some(), "cache pointed at an empty shard");
        self.recompute_min();
        popped
    }

    pub(crate) fn peek_key(&self) -> Option<u128> {
        self.cached.map(|(key, _)| key)
    }

    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.cached.map(|(key, _)| SimTime((key >> 64) as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(exec: usize) -> Event {
        Event::LlmStep { exec, epoch: 0 }
    }

    #[test]
    fn resolve_clamps_to_pool_and_degrades_to_sequential() {
        assert_eq!(Parallelism::Off.resolve(8), 1);
        assert_eq!(Parallelism::Partitioned(0).resolve(8), 1);
        assert_eq!(Parallelism::Partitioned(1).resolve(8), 1);
        assert_eq!(Parallelism::Partitioned(3).resolve(8), 3);
        assert_eq!(Parallelism::Partitioned(64).resolve(8), 8);
        let auto = Parallelism::Auto.resolve(4);
        assert!((1..=4).contains(&auto));
    }

    #[test]
    fn sharded_queue_merges_in_single_queue_order() {
        // Interleave pushes across shards with time ties; the merged pop
        // order must equal a reference single queue fed identically.
        let times = [5u64, 1, 5, 3, 1, 5, 3, 1];
        let mut single = EventQueue::new();
        let mut sharded = ShardedQueue::new(2, vec![0, 0, 1, 1], 8);
        for (i, &t) in times.iter().enumerate() {
            single.push(SimTime(t), step(i % 4));
            sharded.push(SimTime(t), step(i % 4));
        }
        assert_eq!(sharded.peek_time(), single.peek_time());
        loop {
            let (a, b) = (single.pop(), sharded.pop());
            assert_eq!(a, b, "merged order diverged from the single heap");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn cached_min_pop_order_matches_argmin_under_ties() {
        // Reference argmin over shard heads, recomputed from scratch on
        // every pop (the pre-cache implementation).
        fn argmin_pop(shards: &mut [EventQueue]) -> Option<(SimTime, Event)> {
            let mut best: Option<(u128, usize)> = None;
            for (i, q) in shards.iter().enumerate() {
                if let Some(key) = q.peek_key() {
                    if best.map_or(true, |(bk, _)| key < bk) {
                        best = Some((key, i));
                    }
                }
            }
            best.and_then(|(_, i)| shards[i].pop())
        }
        // Heavy time ties across shards, interleaved with pops so the
        // cache is exercised in both the push-improves and the
        // pop-recomputes directions.
        let times = [3u64, 3, 3, 1, 1, 3, 2, 2, 1, 3, 2, 1];
        let mut reference: Vec<EventQueue> = (0..3).map(|_| EventQueue::new()).collect();
        let mut q = ShardedQueue::new(3, vec![0, 1, 2], 8);
        let mut popped = Vec::new();
        let mut expected = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            let ev = step(i % 3);
            q.push(SimTime(t), ev);
            reference[i % 3].push_with_seq(SimTime(t), i as u64, ev);
            if i % 4 == 3 {
                popped.push(q.pop());
                expected.push(argmin_pop(&mut reference));
            }
        }
        while let Some(e) = argmin_pop(&mut reference) {
            expected.push(Some(e));
            popped.push(q.pop());
        }
        assert_eq!(popped, expected, "cached-min diverged from argmin");
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    fn auto_demotes_only_after_a_long_all_inline_prefix() {
        assert!(!should_demote(0, 0));
        assert!(!should_demote(AUTO_DEMOTE_AFTER - 1, 0));
        assert!(should_demote(AUTO_DEMOTE_AFTER, 0));
        assert!(
            !should_demote(AUTO_DEMOTE_AFTER * 4, 1),
            "any threaded round keeps it"
        );
    }

    #[test]
    fn worker_pool_runs_every_task_exactly_once_across_reuses() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        for round in 0..32 {
            let n = 1 + (round * 7) % 100;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.run(n, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "task {i} in round {round}");
            }
        }
        // Zero-task runs are a no-op.
        pool.run(0, &|_| panic!("no tasks to run"));
    }

    #[test]
    fn worker_pool_slots_give_exclusive_per_task_access() {
        let pool = WorkerPool::new(3);
        let inputs = TaskSlots::new(50);
        let outputs = TaskSlots::new(50);
        for i in 0..50 {
            inputs.put(i, i as u64);
        }
        pool.run(50, &|i| {
            let v = inputs.take(i).expect("input present");
            outputs.put(i, v * 2);
        });
        let collected: Vec<u64> = (0..50).map(|i| outputs.take(i).expect("output")).collect();
        assert_eq!(collected, (0..50).map(|i| i * 2).collect::<Vec<u64>>());
        assert!(inputs.into_inner().iter().all(|s| s.is_none()));
    }

    #[test]
    fn worker_pool_records_busy_time() {
        let pool = WorkerPool::new(2);
        pool.run(64, &|_| {
            std::thread::sleep(std::time::Duration::from_micros(100));
        });
        let busy = pool.worker_busy();
        assert_eq!(busy.len(), 2);
        // The caller always participates; total busy covers the work.
        assert!(busy[0] > std::time::Duration::ZERO, "caller never ran");
        let total: std::time::Duration = busy.iter().sum();
        assert!(
            total >= std::time::Duration::from_millis(3),
            "busy under-recorded: {total:?}"
        );
    }

    #[test]
    fn worker_pool_propagates_task_panics_after_completing() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = WorkerPool::new(2);
        let done = AtomicUsize::new(0);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(10, &|i| {
                if i == 3 {
                    panic!("task 3 fails");
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(res.is_err(), "panic must propagate to the caller");
        assert_eq!(done.load(Ordering::Relaxed), 9, "other tasks still ran");
        // The pool survives a panicked job.
        pool.run(4, &|_| {});
    }

    #[test]
    fn job_keyed_events_spread_across_shards() {
        let mut q = ShardedQueue::new(2, vec![0, 1], 4);
        q.push(SimTime(1), Event::Arrival { job: 0 });
        q.push(SimTime(1), Event::Arrival { job: 1 });
        assert_eq!(q.route(&Event::Arrival { job: 2 }), 0);
        assert_eq!(q.route(&Event::Arrival { job: 3 }), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some(Event::Arrival { job: 0 }));
        assert_eq!(q.pop().map(|(_, e)| e), Some(Event::Arrival { job: 1 }));
        assert_eq!(q.pop(), None);
    }
}
