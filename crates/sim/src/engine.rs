//! The discrete-event cluster engine: event loop, dispatch, and the
//! reveal protocol of §IV-A.
//!
//! LLM serving itself lives behind the [`ExecutorBackend`] trait in
//! [`crate::exec`]; the engine owns exactly one backend — chosen by
//! [`ClusterConfig::mode`] — and is otherwise fidelity-agnostic. Four
//! backends ship today (see [`EngineMode`]):
//!
//! * [`EngineMode::Analytic`] — the paper's *simulator*
//!   ([`crate::exec::AnalyticExec`]): rate-rescaling batching, events
//!   only at batch-membership changes.
//! * [`EngineMode::TokenLevel`] — the paper's *testbed* stand-in
//!   ([`crate::exec::TokenExec`]): per-iteration continuous batching.
//! * [`EngineMode::Cluster`] — heterogeneous multi-group cluster with
//!   routed placement ([`crate::exec::ClusterExec`]), topology from
//!   [`ClusterConfig::spec`].
//! * [`EngineMode::Disagg`] — disaggregated prefill/decode serving
//!   ([`crate::exec::DisaggExec`]).
//!
//! The engine owns the hidden [`JobSpec`]s and implements the reveal
//! protocol; schedulers only observe the filtered
//! [`SchedContext`](crate::scheduler::SchedContext).
//!
//! # Hot-path layout
//!
//! The job table is a dense slab ascending by [`JobId`], so id lookup is
//! a binary search (no side `HashMap`); the active set is one sorted
//! index vector lent to scheduler contexts as a zero-allocation
//! projection; stage/task state is struct-of-arrays inside [`JobRt`];
//! and the completion cascades walk the spec's CSR arenas by index — the
//! per-event `Vec` clones of the old layout are gone. See `DESIGN.md` §9.

use llmsched_cluster::ClusterSpec;
use llmsched_dag::ids::StageId;
use llmsched_dag::job::{JobSpec, StageKind};
use llmsched_dag::template::TemplateSet;
use llmsched_dag::time::SimTime;
use llmsched_dag::work::{ExecutorClass, LlmWork, TaskWork};
use llmsched_telemetry::{DecisionRecord, NoopProbe, Probe, ProbeEvent, WallReservoir};

pub use crate::exec::pool::EngineMode;

use crate::event::{Event, EventQueue};
use crate::exec::sharded::{run_shard, HookFx, ShardedBackend};
use crate::exec::{pool, ExecCtx, ExecutorBackend, LlmTaskRef, Post};
use crate::latency::LatencyProfile;
use crate::metrics::{JobOutcome, SimResult, Utilization};
use crate::par::{
    EventQueues, ParStats, Parallelism, ShardStats, ShardedQueue, TaskSlots, WorkerPool,
};
use crate::scheduler::{ActiveJobs, Preference, SchedContext, SchedDelta, Scheduler, TaskRef};
use crate::state::{JobRt, LlmExecutorView, TaskState, Visibility};

/// Cluster resources and engine options.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of regular executors (each runs one regular task at a time).
    pub regular_executors: usize,
    /// Number of LLM executors (each batches up to `max_batch` LLM tasks).
    /// Cluster modes with an explicit [`ClusterConfig::spec`] ignore this.
    pub llm_executors: usize,
    /// Maximum batch size per LLM executor. Cluster modes with an explicit
    /// [`ClusterConfig::spec`] ignore this.
    pub max_batch: usize,
    /// Reference decode-latency curve: homogeneous backends decode with
    /// it; cluster backends carry per-group curves and use this only for
    /// batch-1 duration normalization (Eq. 2 evidence).
    pub latency: LatencyProfile,
    /// Execution fidelity (selects the [`ExecutorBackend`]).
    pub mode: EngineMode,
    /// Token-level mode only: tokens decoded per iteration event (1 =
    /// faithful per-token stepping; larger values trade fidelity for speed).
    pub iteration_chunk: u64,
    /// Serving-cluster topology for [`EngineMode::Cluster`] /
    /// [`EngineMode::Disagg`]: replica groups, routing policy, optional
    /// disaggregation. `None` derives a spec from the scalar fields above.
    pub spec: Option<ClusterSpec>,
    /// Intra-simulation parallelism: [`Parallelism::Off`] runs the
    /// sequential reference loop; partitioned settings shard the LLM
    /// executor pool and the event core, stepping shards on scoped
    /// worker threads between scheduler barriers. Every setting produces
    /// bit-identical results (see `DESIGN.md` §10).
    pub parallelism: Parallelism,
    /// Scheduler invocation coalescing: skip decision points at which no
    /// job has a ready, unstarted task (nothing could dispatch), carrying
    /// the accumulated deltas to the next real invocation. Policies see
    /// the identical delta stream in the identical order and every
    /// opportunity keeps its sequence number, so decisions — and thus the
    /// whole simulation — are bit-identical with the flag off (see
    /// `DESIGN.md` §12). On by default; the A/B equivalence suite runs
    /// both settings.
    pub coalescing: bool,
    /// Capacity-aware decision-point elision: additionally skip decision
    /// points at which work is ready but *no executor of the matching
    /// class has a free slot* — provided the active policy declares
    /// itself work-conserving
    /// ([`Scheduler::is_work_conserving`](crate::scheduler::Scheduler)),
    /// i.e. guarantees an empty no-side-effect decision whenever
    /// [`SchedContext::could_dispatch`](crate::scheduler::SchedContext)
    /// is false. Deltas carry over exactly as under coalescing, elided
    /// opportunities keep their sequence numbers, and on the partitioned
    /// path an elided decision point is an elided *barrier*. On by
    /// default; a no-op for policies that don't opt in (every policy
    /// defaults to not-work-conserving). See `DESIGN.md` §13.
    pub elision: bool,
    /// Worker-pool size override: `None` (the default) sizes the
    /// persistent pool to [`std::thread::available_parallelism`] and
    /// skips building one entirely on single-thread hosts; `Some(n)`
    /// forces an `n`-thread pool (and `n`-way threading gates), which is
    /// how the determinism suites exercise the threaded paths on
    /// single-core CI runners.
    pub pool_threads: Option<usize>,
    /// Bounded-staleness decision batching: with `Some(ε)` (simulated
    /// seconds, ε > 0), a decision point falling within ε of the previous
    /// policy invocation is *deferred* — its deltas keep accumulating on
    /// the existing [`SchedDelta`](crate::scheduler::SchedDelta) stream —
    /// and all deferred points fold into one batched invocation at the
    /// horizon edge (the clock advances to exactly
    /// `previous invocation + ε` when no earlier event exists). `None`
    /// (the default) and `Some(0.0)` are the exact mode: every decision
    /// point is evaluated at its own timestamp, bit-identical to an
    /// engine without this field (pinned by `tests/batching_equiv.rs`).
    /// ε > 0 is a *relaxation*: dispatch can lag a ready task by at most
    /// ε, bounding the avg-JCT drift (gated at ≤ 0.5 % by
    /// `scale_throughput --check`), and on the partitioned path every
    /// deferred decision point is a deleted scheduler barrier. See
    /// `DESIGN.md` §14.
    pub decision_horizon: Option<f64>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            regular_executors: 4,
            llm_executors: 1,
            max_batch: 8,
            latency: LatencyProfile::default(),
            mode: EngineMode::Analytic,
            iteration_chunk: 1,
            spec: None,
            parallelism: Parallelism::Off,
            coalescing: true,
            elision: true,
            pool_threads: None,
            decision_horizon: None,
        }
    }
}

/// Borrows the engine fields an [`ExecutorBackend`] hook may touch.
/// A macro (not a method) so the disjoint field borrows stay visible to
/// the borrow checker at each call site. Hooks buffer their events into
/// `posts`; the engine flushes them via `flush_own_posts` immediately
/// after the hook returns, so the sequential event order is unchanged
/// from the pre-buffering engine.
macro_rules! exec_ctx {
    ($self:ident) => {
        ExecCtx {
            now: $self.now,
            latency: &$self.cfg.latency,
            posts: &mut $self.posts,
            probe: if $self.probe_on {
                Some(&mut *$self.probe)
            } else {
                None
            },
        }
    };
}

/// The engine's backend holder: one monolithic trait object on the
/// sequential path, the partitioned wrapper otherwise.
enum Backend {
    Mono(Box<dyn ExecutorBackend>),
    Sharded(ShardedBackend),
}

impl Backend {
    fn get(&self) -> &dyn ExecutorBackend {
        match self {
            Backend::Mono(b) => &**b,
            Backend::Sharded(s) => s,
        }
    }

    fn get_mut(&mut self) -> &mut dyn ExecutorBackend {
        match self {
            Backend::Mono(b) => &mut **b,
            Backend::Sharded(s) => s,
        }
    }
}

struct Engine<'a> {
    cfg: &'a ClusterConfig,
    templates: &'a TemplateSet,
    /// Dense job slab, ascending by `JobId` (asserted in `simulate`); id
    /// lookup is a binary search over this order.
    jobs: Vec<JobRt>,
    /// The persistent sorted job index: dense indices of active jobs,
    /// ascending (and dense indices ascend with `JobId`). Lent to
    /// scheduler contexts as a borrowed projection; membership changes
    /// incrementally at arrivals/completions.
    active: Vec<u32>,
    queue: EventQueues,
    now: SimTime,
    regular_busy: usize,
    llm: Backend,
    /// Hook post buffer: backends emit into it via [`ExecCtx`], the
    /// engine drains it right after each hook (capacity is reused).
    posts: Vec<Post>,
    /// Effective shard count (1 = the sequential reference path).
    parts: usize,
    /// Same-timestamp rounds processed on the partitioned path.
    rounds: u64,
    /// Rounds whose hook work actually ran on ≥ 2 worker threads.
    par_rounds: u64,
    /// Scheduler barriers: iterations of the partitioned outer loop (each
    /// evaluates at most one scheduler opportunity).
    barriers: u64,
    /// Conservative-window rounds that batched ≥ 1 event past a barrier.
    windows: u64,
    /// `Parallelism::Auto` demotion latch: set when a long prefix of
    /// rounds never threaded; all later rounds run inline.
    demoted: bool,
    /// Effective thread budget: [`ClusterConfig::pool_threads`] if set,
    /// else [`std::thread::available_parallelism`], cached once per run —
    /// window threading (and the pool itself) is skipped outright when
    /// this is 1.
    hw_threads: usize,
    /// The persistent parked-worker pool (`None` when `hw_threads < 2`)
    /// behind shard window stepping, so per-round thread-spawn overhead
    /// is paid once per *run*.
    pool: Option<crate::par::WorkerPool>,
    /// Ready, unstarted tasks across active jobs — the dispatchable-work
    /// count behind scheduler-invocation coalescing. Maintained
    /// incrementally at arrivals, dispatches and completion cascades.
    ready_unstarted: usize,
    /// `ready_unstarted` split by executor class (regular / LLM) — the
    /// per-class halves of the capacity-aware elision predicate.
    ready_reg: usize,
    ready_llm: usize,
    /// Scheduler opportunities skipped because nothing was dispatchable.
    sched_skipped: u64,
    /// Scheduler opportunities elided because ready work had no free
    /// executor of its class and the policy is work-conserving.
    sched_elided: u64,
    /// [`ClusterConfig::decision_horizon`] in clock ticks (0 = exact).
    horizon: u64,
    /// Time of the last actual policy invocation — the anchor the
    /// bounded-staleness horizon is measured from.
    last_sched_at: Option<SimTime>,
    /// Pending batched decision: the horizon edge at which the deferred
    /// decision points fold into one invocation. At most one is
    /// outstanding (every deferral inside the window shares the edge).
    flush_at: Option<SimTime>,
    /// Scheduler opportunities deferred under the staleness horizon.
    sched_deferred: u64,
    /// Deferrals folded into the *next* invocation (reset when it runs) —
    /// surfaced as `SchedInvoked::folded` provenance.
    deferred_fold: u32,
    /// Reused per-shard event-count scratch for inline-round attribution
    /// (sized `parts`; see [`ShardStats`]).
    inline_counts: Vec<u64>,
    /// All job arrival times, sorted ascending, with an advancing cursor —
    /// the window bound's "next arrival" input.
    arrivals: Vec<SimTime>,
    arrival_ptr: usize,
    /// Outstanding regular-task finish times (min-heap). Regular finishes
    /// are never re-timed, so entries ≤ `now` have fired and are lazily
    /// popped; the head is the window bound's regular-work input.
    regular_finishes: std::collections::BinaryHeap<std::cmp::Reverse<SimTime>>,
    /// Cached [`ExecutorBackend::descriptor`] (e.g. `"cluster/jsq"`),
    /// lent to scheduler contexts and moved into the result.
    backend_desc: String,
    /// Reused occupancy-view buffer, refreshed per scheduler invocation.
    llm_views: Vec<LlmExecutorView>,
    /// Deltas accumulated since the last scheduler invocation, delivered
    /// (and cleared) at the next one.
    deltas: Vec<SchedDelta>,
    outcomes: Vec<JobOutcome>,
    events: u64,
    sched_calls: u64,
    sched_wall: std::time::Duration,
    sched_samples: WallReservoir,
    // Utilization integrals (executor-seconds / slot-seconds).
    last_integral_at: SimTime,
    reg_busy_integral: f64,
    llm_slot_integral: f64,
    llm_active_integral: f64,
    /// The run's telemetry sink ([`NoopProbe`] unless the caller came in
    /// through [`simulate_probed`]).
    probe: &'a mut dyn Probe,
    /// [`Probe::enabled`], cached once per run: every emission site is
    /// `if self.probe_on { … }`, so a disabled probe costs one branch.
    probe_on: bool,
    /// Reused buffer for [`Scheduler::drain_provenance`] records.
    prov_buf: Vec<DecisionRecord>,
    /// Per-shard work breakdown on the partitioned path (empty otherwise).
    shard_stats: Vec<ShardStats>,
}

/// Runs one simulation to completion.
///
/// `jobs` are the hidden ground-truth specs (arrival times inside); the
/// scheduler observes them only through the reveal protocol. Returns the
/// aggregate [`SimResult`].
///
/// # Panics
/// Panics if a job references a template missing from `templates`, if the
/// config has zero executors of a class some task requires, or if `jobs`
/// is not strictly ascending by [`JobId`].
pub fn simulate(
    cfg: &ClusterConfig,
    templates: &TemplateSet,
    jobs: Vec<JobSpec>,
    scheduler: &mut dyn Scheduler,
) -> SimResult {
    simulate_probed(cfg, templates, jobs, scheduler, &mut NoopProbe)
}

/// [`simulate`] with a telemetry [`Probe`] attached.
///
/// The probe is observation-only: engine state flows *into* it and never
/// back, so a run with any probe produces the bit-identical schedule,
/// event count, and metrics of the same run under [`NoopProbe`] (pinned
/// by the `telemetry_equiv` suite). `Probe::enabled` is cached once at
/// entry; when it returns `false` the run is indistinguishable from
/// [`simulate`]. When enabled, the engine also flips the scheduler's
/// provenance collection on ([`Scheduler::set_telemetry`]) and drains
/// [`DecisionRecord`]s after every invocation.
///
/// # Panics
/// As [`simulate`].
pub fn simulate_probed(
    cfg: &ClusterConfig,
    templates: &TemplateSet,
    jobs: Vec<JobSpec>,
    scheduler: &mut dyn Scheduler,
    probe: &mut dyn Probe,
) -> SimResult {
    assert!(
        cfg.regular_executors > 0,
        "need at least one regular executor"
    );
    let llm = pool::build_backend(cfg);
    assert!(
        llm.n_execs() > 0 && pool::total_slots(&*llm) > 0,
        "need LLM capacity"
    );
    for j in &jobs {
        assert!(
            templates.get(j.app()).is_some(),
            "job {} uses unregistered app {}",
            j.id(),
            j.app()
        );
    }
    // The slab is documented ascending by `JobId` and every id lookup
    // binary-searches it; a hard assert (O(n), once per run) beats
    // silently mis-resolving jobs in release builds.
    assert!(
        jobs.windows(2).all(|w| w[0].id() < w[1].id()),
        "jobs must be submitted in strictly ascending JobId order"
    );

    // Partitioned path: replace the monolithic backend with disjoint
    // shards and the single heap with per-shard heaps merged on the
    // global `(time, seq)` key. One shard (or one executor, or a
    // single-core host under `Auto`) degrades to the sequential loop.
    let parts = cfg.parallelism.resolve(llm.n_execs());
    let (llm, queue) = if parts > 1 {
        let sharded = ShardedBackend::build(cfg, parts);
        debug_assert_eq!(sharded.n_execs(), llm.n_execs());
        let exec_shard = (0..sharded.n_execs())
            .map(|e| sharded.shard_of(e))
            .collect();
        (
            Backend::Sharded(sharded),
            EventQueues::Sharded(ShardedQueue::new(parts, exec_shard, jobs.len() + 64)),
        )
    } else {
        (
            Backend::Mono(llm),
            EventQueues::Single(EventQueue::with_capacity(jobs.len() + 64)),
        )
    };
    let backend_desc = llm.get().descriptor();
    let probe_on = probe.enabled();
    let hw_threads = cfg.pool_threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let mut engine = Engine {
        cfg,
        templates,
        jobs: jobs.into_iter().map(JobRt::new).collect(),
        active: Vec::new(),
        queue,
        now: SimTime::ZERO,
        regular_busy: 0,
        llm,
        posts: Vec::new(),
        parts,
        rounds: 0,
        par_rounds: 0,
        barriers: 0,
        windows: 0,
        demoted: false,
        hw_threads,
        pool: (hw_threads >= 2).then(|| crate::par::WorkerPool::new(hw_threads)),
        ready_unstarted: 0,
        ready_reg: 0,
        ready_llm: 0,
        sched_skipped: 0,
        sched_elided: 0,
        horizon: cfg
            .decision_horizon
            .map_or(0, |s| llmsched_dag::time::SimDuration::from_secs_f64(s).0),
        last_sched_at: None,
        flush_at: None,
        sched_deferred: 0,
        deferred_fold: 0,
        inline_counts: vec![0; parts],
        arrivals: Vec::new(),
        arrival_ptr: 0,
        regular_finishes: std::collections::BinaryHeap::new(),
        backend_desc,
        llm_views: Vec::new(),
        deltas: Vec::new(),
        outcomes: Vec::new(),
        events: 0,
        sched_calls: 0,
        sched_wall: std::time::Duration::ZERO,
        sched_samples: WallReservoir::default(),
        last_integral_at: SimTime::ZERO,
        reg_busy_integral: 0.0,
        llm_slot_integral: 0.0,
        llm_active_integral: 0.0,
        probe,
        probe_on,
        prov_buf: Vec::new(),
        shard_stats: if parts > 1 {
            vec![ShardStats::default(); parts]
        } else {
            Vec::new()
        },
    };
    engine.run(scheduler)
}

impl Engine<'_> {
    fn run(&mut self, scheduler: &mut dyn Scheduler) -> SimResult {
        scheduler.reset();
        scheduler.set_telemetry(self.probe_on);
        for (i, j) in self.jobs.iter().enumerate() {
            self.queue.push(j.spec.arrival(), Event::Arrival { job: i });
        }
        self.arrivals = self.jobs.iter().map(|j| j.spec.arrival()).collect();
        self.arrivals.sort_unstable();
        if self.parts > 1 {
            self.run_partitioned(scheduler);
        } else {
            self.run_sequential(scheduler);
        }
        let makespan = self
            .outcomes
            .iter()
            .map(|o| o.completion)
            .max()
            .unwrap_or(SimTime::ZERO);
        let horizon = makespan.as_secs_f64().max(f64::MIN_POSITIVE);
        let slots = pool::total_slots(self.llm.get()) as f64;
        SimResult {
            scheduler: scheduler.name().to_string(),
            backend: std::mem::take(&mut self.backend_desc),
            jobs: std::mem::take(&mut self.outcomes),
            makespan,
            sched_calls: self.sched_calls,
            sched_skipped: self.sched_skipped,
            sched_elided: self.sched_elided,
            sched_deferred: self.sched_deferred,
            sched_wall: self.sched_wall,
            sched_wall_samples: std::mem::take(&mut self.sched_samples),
            utilization: Utilization {
                regular_busy_frac: self.reg_busy_integral
                    / (self.cfg.regular_executors as f64 * horizon),
                llm_slot_frac: self.llm_slot_integral / (slots * horizon),
                llm_active_frac: self.llm_active_integral
                    / (self.llm.get().n_execs() as f64 * horizon),
            },
            events: self.events,
            incomplete: self.jobs.iter().filter(|j| !j.is_complete()).count(),
            par: (self.parts > 1).then(|| ParStats {
                partitions: self.parts,
                rounds: self.rounds,
                parallel_rounds: self.par_rounds,
                barriers: self.barriers,
                windows: self.windows,
                demoted: self.demoted,
                per_shard: std::mem::take(&mut self.shard_stats),
                pool_threads: self.pool.as_ref().map_or(0, |p| p.threads()),
                pool_busy: self
                    .pool
                    .as_ref()
                    .map_or_else(Vec::new, |p| p.worker_busy()),
            }),
            timeseries: self.probe.take_timeseries(makespan),
        }
    }

    /// The single-threaded reference loop — the oracle every partitioned
    /// run is equivalence-tested against.
    fn run_sequential(&mut self, scheduler: &mut dyn Scheduler) {
        loop {
            // A pending batched decision strictly before every queued
            // event fires on its own: advance the clock to the horizon
            // edge and evaluate the folded decision point there. (Exact
            // mode never sets `flush_at`, so this is dead code there.)
            if let Some(f) = self.flush_at {
                if self.queue.peek_time().map_or(true, |t| f < t) {
                    self.flush_at = None;
                    self.advance_integrals(f);
                    self.now = f;
                    if self.has_free_capacity() && !self.active.is_empty() {
                        self.scheduler_opportunity(scheduler);
                    }
                    continue;
                }
            }
            let Some((t, ev)) = self.queue.pop() else {
                break;
            };
            self.advance_integrals(t);
            self.now = t;
            let mut effective = self.apply(ev);
            while self.queue.peek_time() == Some(t) {
                let (_, ev) = self.queue.pop().expect("peeked");
                effective |= self.apply(ev);
            }
            // A horizon edge coinciding with (or overtaken by) an event
            // timestamp folds into this timestamp's decision point — even
            // when the events themselves were all stale.
            let flush_due = self.flush_at.is_some_and(|f| f <= t);
            if flush_due {
                self.flush_at = None;
            }
            if (effective || flush_due) && self.has_free_capacity() && !self.active.is_empty() {
                self.scheduler_opportunity(scheduler);
            }
        }
    }

    /// One scheduler decision point; returns whether the policy was
    /// actually invoked. With coalescing on and nothing dispatchable the
    /// invocation is skipped outright — the pending deltas stay queued
    /// for the next real invocation, and the opportunity still consumes
    /// a sequence number so provenance streams align bit-for-bit with an
    /// uncoalesced run (whose policies short-circuit on
    /// `dispatchable == 0` and decide nothing). With elision on and a
    /// work-conserving policy, decision points whose ready work has no
    /// free executor of the matching class are skipped the same way: the
    /// policy's `!could_dispatch` early-return guarantees the elided
    /// invocation would have decided nothing and touched no state.
    fn scheduler_opportunity(&mut self, scheduler: &mut dyn Scheduler) -> bool {
        debug_assert_eq!(
            self.ready_unstarted,
            self.active
                .iter()
                .map(|&j| self.jobs[j as usize].ready_unstarted_tasks())
                .sum::<usize>(),
            "dispatchable-work counter drifted from ground truth"
        );
        debug_assert_eq!(
            (self.ready_reg, self.ready_llm),
            self.active.iter().fold((0, 0), |(r, l), &j| {
                let (jr, jl) = self.jobs[j as usize].ready_unstarted_by_class();
                (r + jr, l + jl)
            }),
            "per-class dispatchable-work counters drifted from ground truth"
        );
        if self.cfg.coalescing && self.ready_unstarted == 0 {
            self.sched_skipped += 1;
            return false;
        }
        if self.cfg.elision && !self.could_dispatch() && scheduler.is_work_conserving() {
            self.sched_elided += 1;
            return false;
        }
        // Bounded-staleness batching (after the free skips — deferring a
        // point that coalescing or elision would discard anyway would
        // manufacture a pointless future flush): within ε of the previous
        // invocation the decision is deferred to the horizon edge. The
        // deferred opportunity keeps its sequence number; its deltas stay
        // queued and fold into the batched invocation.
        if self.horizon > 0 {
            if let Some(last) = self.last_sched_at {
                let edge = SimTime(last.0.saturating_add(self.horizon));
                if self.now < edge {
                    self.flush_at = Some(edge);
                    self.sched_deferred += 1;
                    self.deferred_fold += 1;
                    return false;
                }
            }
        }
        self.invoke_scheduler(scheduler);
        true
    }

    /// The capacity-aware elision predicate: true iff at least one ready,
    /// unstarted task could start right now. The engine's dispatch loops
    /// enforce exactly these two gates (`regular_busy` caps the regular
    /// loop; `pool::has_free_slot` caps the LLM loop), so when both
    /// halves fail, dispatch is provably a no-op regardless of what the
    /// policy prefers. The same value is handed to policies as
    /// [`SchedContext::could_dispatch`], so the policy-side early-return
    /// and the engine-side elision can never disagree.
    fn could_dispatch(&self) -> bool {
        (self.ready_reg > 0 && self.regular_busy < self.cfg.regular_executors)
            || (self.ready_llm > 0 && pool::has_free_slot(self.llm.get()))
    }

    /// The partitioned loop: drain one timestamp as one or more event
    /// *rounds*, fanning each round's backend-hook work out to shard
    /// worker threads and replaying the effects in exact `(time, seq)`
    /// order, then hit the scheduler barrier. Same-timestamp events a
    /// round posts get strictly larger sequence numbers than everything
    /// already queued, so the round decomposition reproduces the
    /// sequential inner drain order exactly.
    ///
    /// After each barrier a conservative lookahead window is negotiated
    /// ([`Engine::window_bound`]): every queued event strictly before the
    /// bound is provably unable to change dispatchable state, so the
    /// whole span is drained as one batched round with no barriers in
    /// between — this is what turns ~1 event per barrier into hundreds.
    fn run_partitioned(&mut self, scheduler: &mut dyn Scheduler) {
        let mut batch: Vec<(SimTime, Event)> = Vec::new();
        let mut wbatch: Vec<(u128, SimTime, Event)> = Vec::new();
        let mut items: Vec<Vec<(u32, SimTime, Event)>> = vec![Vec::new(); self.parts];
        let mut fx: Vec<Option<HookFx>> = Vec::new();
        let auto = self.cfg.parallelism == Parallelism::Auto;
        loop {
            // Batched decision pending strictly before every queued event:
            // advance to the horizon edge and evaluate the folded decision
            // point. The invocation is a real synchronization point (it
            // dispatches into the sharded backend), so it counts a
            // barrier — but it replaces every barrier its deferred
            // constituents would have cost.
            if let Some(f) = self.flush_at {
                if self.queue.peek_time().map_or(true, |t| f < t) {
                    self.flush_at = None;
                    self.advance_integrals(f);
                    self.now = f;
                    if self.has_free_capacity()
                        && !self.active.is_empty()
                        && self.scheduler_opportunity(scheduler)
                    {
                        self.barriers += 1;
                    }
                    // The batched decision ran (or provably skipped) at
                    // the edge, so this is a window anchor like any other
                    // barrier: without it, the stale span behind the next
                    // real decision point degenerates into one dead
                    // iteration — one counted barrier — per timestamp,
                    // and the relaxation leaks the very barriers it
                    // deleted.
                    if let Some(head) = self.queue.peek_time() {
                        if let Some(w) = self.window_bound(head) {
                            self.run_window(w, &mut wbatch, &mut items, &mut fx);
                        }
                    }
                    continue;
                }
            }
            let Some(t) = self.queue.peek_time() else {
                break;
            };
            if auto && !self.demoted && crate::par::should_demote(self.rounds, self.par_rounds) {
                // A long all-inline prefix: the workload never yields
                // co-timed cross-shard work, so stop paying the routing
                // overhead and run the rest of the simulation inline.
                self.demoted = true;
            }
            self.advance_integrals(t);
            self.now = t;
            let mut effective = false;
            loop {
                batch.clear();
                while self.queue.peek_time() == Some(t) {
                    batch.push(self.queue.pop().expect("peeked"));
                }
                self.rounds += 1;
                effective |= self.process_round(&batch, &mut items, &mut fx);
                if self.queue.peek_time() != Some(t) {
                    break;
                }
            }
            // Barrier accounting: an iteration costs a synchronization
            // point when its decision either had to run (the policy was
            // invoked) or offered no scheduler opportunity at all (no
            // effective event / no capacity / no active job — the loop
            // still synchronized at `t`). Opportunities coalesced, elided
            // or deferred away cost nothing: proving the skip needed only
            // the engine's own counters, no cross-shard rendezvous —
            // under a staleness horizon every deferred decision point is
            // a deleted barrier.
            let flush_due = self.flush_at.is_some_and(|f| f <= t);
            if flush_due {
                self.flush_at = None;
            }
            if (effective || flush_due) && self.has_free_capacity() && !self.active.is_empty() {
                if self.scheduler_opportunity(scheduler) {
                    self.barriers += 1;
                }
            } else {
                self.barriers += 1;
            }
            // The scheduler (or its skip) ran at `t`; dispatches above are
            // reflected in the backend, so the bound is computed on the
            // post-decision state.
            if let Some(head) = self.queue.peek_time() {
                if let Some(w) = self.window_bound(head) {
                    self.run_window(w, &mut wbatch, &mut items, &mut fx);
                }
            }
        }
    }

    /// The conservative lookahead bound: the earliest future time at which
    /// anything *scheduler-relevant* can happen. Strictly before the
    /// returned time there is provably no job arrival, no regular-task
    /// finish, and — per [`ExecutorBackend::lookahead`] — no valid LLM
    /// task finish and no effective step. Every queued event in the open
    /// interval `(now, bound)` is therefore stale or ineffective: it
    /// changes no engine state, so the sequential oracle would evaluate
    /// zero scheduler opportunities across the span.
    ///
    /// Returns `Some(bound)` only when the queue head at `head` lies
    /// strictly inside the window. The three terms are checked cheapest
    /// first — the backend lookahead (a scan over every batching unit)
    /// is skipped entirely whenever the O(1) arrival or regular-finish
    /// term already caps the window at or before `head`, which is the
    /// common case at every real dispatch point.
    fn window_bound(&mut self, head: SimTime) -> Option<SimTime> {
        // A pending batched decision caps the window outright: the folded
        // invocation at the horizon edge dispatches into the backend, so
        // no event at or past the edge may replay barrier-free.
        if let Some(f) = self.flush_at {
            if head >= f {
                return None;
            }
        }
        while self
            .arrivals
            .get(self.arrival_ptr)
            .is_some_and(|&a| a <= self.now)
        {
            self.arrival_ptr += 1;
        }
        let arrival = self
            .arrivals
            .get(self.arrival_ptr)
            .copied()
            .unwrap_or(SimTime(u64::MAX));
        if head >= arrival {
            return None;
        }
        while self
            .regular_finishes
            .peek()
            .is_some_and(|r| r.0 <= self.now)
        {
            self.regular_finishes.pop();
        }
        let regular = self
            .regular_finishes
            .peek()
            .map(|r| r.0)
            .unwrap_or(SimTime(u64::MAX));
        if head >= regular {
            return None;
        }
        let llm = self.llm.get().lookahead(self.now, &self.cfg.latency);
        let flush = self.flush_at.unwrap_or(SimTime(u64::MAX));
        let w = arrival.min(regular).min(llm).min(flush);
        (head < w).then_some(w)
    }

    /// Drains every queued event strictly before `w` as one batched round
    /// with no scheduler barriers. Small windows (up to
    /// [`par::WINDOW_THREAD_MIN_EVENTS`] events, the common case) drain
    /// inline: live pops already come out in exact `(time, seq)` order,
    /// so they pay no buffering at all — and when threading is
    /// impossible (one hardware thread, or `Auto` demoted) the whole
    /// window drains that way. Anything past that budget is
    /// collected into a batch whose shard-routable events run phase A on
    /// worker threads (when the batch clears
    /// [`par::should_thread_window`] and `Auto` has not demoted), then
    /// replays in exact global `(time, seq)` order, live-interleaving
    /// any in-window events the replay itself posts (token-iteration
    /// boundaries). `now` and the utilization integrals advance per
    /// timestamp either way, so `UtilSample` spans — and with them the
    /// windowed time-series — are bit-identical to the sequential run.
    /// Debug builds assert that no window event changes state
    /// ("lookahead bound violated").
    fn run_window(
        &mut self,
        w: SimTime,
        batch: &mut Vec<(u128, SimTime, Event)>,
        items: &mut [Vec<(u32, SimTime, Event)>],
        fx: &mut Vec<Option<HookFx>>,
    ) {
        self.windows += 1;
        self.rounds += 1;
        // Phase 1: drain the window head inline. Live pops already come
        // out in exact `(time, seq)` order — including any events the
        // replay posts back into the window — so small windows (the
        // common case) pay no buffering, no effect table, and no
        // interleave bookkeeping; this is literally the sequential loop
        // restricted to `t < w`, minus the scheduler stops the bound
        // proves pointless.
        let w_key = (w.0 as u128) << 64;
        // When threading is off the table (single hardware thread, or
        // `Auto` demoted), the budget is unlimited: the whole window
        // drains inline and phase 2 never runs.
        let mut inline_budget = if self.hw_threads >= 2 && !self.demoted {
            crate::par::WINDOW_THREAD_MIN_EVENTS
        } else {
            usize::MAX
        };
        let drain_start = std::time::Instant::now();
        let mut drained = 0u64;
        while inline_budget > 0 && self.queue.peek_key().is_some_and(|k| k < w_key) {
            let (_, t, ev) = self.queue.pop_keyed().expect("peeked");
            if let Some(s) = self.shard_of_event(&ev) {
                self.inline_counts[s] += 1;
            }
            if t > self.now {
                self.advance_integrals(t);
                self.now = t;
            }
            let changed = self.apply(ev);
            debug_assert!(
                !changed,
                "lookahead bound violated: event {ev:?} at {t:?} changed state inside \
                 the window ending at {w:?}"
            );
            inline_budget -= 1;
            drained += 1;
        }
        // Inline window work is attributed to the shards that own the
        // events (it would have run on their worker threads under a
        // larger budget); single-event drains skip the clock.
        self.attribute_inline((drained > 1).then(|| drain_start.elapsed()));
        if !self.queue.peek_key().is_some_and(|k| k < w_key) {
            return;
        }
        // Phase 2: the window outlived the inline budget — buffer the
        // remainder so its hook work can fan out across shard threads.
        batch.clear();
        while self.queue.peek_time().is_some_and(|t| t < w) {
            batch.push(self.queue.pop_keyed().expect("peeked"));
        }
        fx.clear();
        fx.resize_with(batch.len(), || None);
        if !self.demoted && batch.len() >= crate::par::WINDOW_THREAD_MIN_EVENTS {
            self.classify_and_thread_window(batch, items, fx);
        }
        // Replay in exact global key order. Before each batch item, drain
        // any events the replay has posted back *into* the window whose
        // keys sort earlier — they run live through `apply`, exactly
        // where the sequential loop would have popped them.
        for i in 0..batch.len() {
            let (key, t, ev) = batch[i];
            self.drain_window_live(key, w);
            if t > self.now {
                self.advance_integrals(t);
                self.now = t;
            }
            let changed = match fx[i].take() {
                None => self.apply(ev),
                Some(HookFx::Finish { valid, posts }) => {
                    self.events += 1;
                    if valid {
                        let Event::TaskFinish {
                            job, stage, task, ..
                        } = ev
                        else {
                            unreachable!("finish effects come from finish events")
                        };
                        self.finish_task_with(job, stage, task, Some(posts));
                        true
                    } else {
                        false
                    }
                }
                Some(HookFx::Step {
                    finished,
                    effective,
                    posts,
                }) => {
                    self.events += 1;
                    let any = !finished.is_empty() || effective;
                    self.flush_recorded(posts);
                    for f in &finished {
                        self.finish_task(f.job, f.stage, f.task);
                    }
                    any
                }
            };
            debug_assert!(
                !changed,
                "lookahead bound violated: event {ev:?} at {t:?} changed state inside \
                 the window ending at {w:?}"
            );
        }
        self.drain_window_live(u128::MAX, w);
    }

    /// The expensive half of [`Engine::run_window`], entered only for
    /// windows at or above [`par::WINDOW_THREAD_MIN_EVENTS`]: assigns
    /// each hook-bearing event to the shard owning its executor, and —
    /// when ≥ 2 shards have work — runs the shard hooks concurrently
    /// across the persistent [`WorkerPool`], recording their [`HookFx`]
    /// effects into `fx` for the in-order replay.
    fn classify_and_thread_window(
        &mut self,
        batch: &[(u128, SimTime, Event)],
        items: &mut [Vec<(u32, SimTime, Event)>],
        fx: &mut [Option<HookFx>],
    ) {
        for v in items.iter_mut() {
            v.clear();
        }
        {
            let Backend::Sharded(sharded) = &self.llm else {
                unreachable!("partitioned loop runs on the sharded backend")
            };
            for (i, &(_, time, ev)) in batch.iter().enumerate() {
                let shard = match ev {
                    Event::LlmStep { exec, .. } => Some(sharded.shard_of(exec)),
                    Event::TaskFinish {
                        job, stage, task, ..
                    } => match self.jobs[job].task_state_of(stage, task) {
                        TaskState::Running { exec: Some(e) } => Some(sharded.shard_of(e as usize)),
                        _ => None,
                    },
                    Event::Arrival { .. } => {
                        unreachable!("window bound is capped by the next arrival")
                    }
                };
                if let Some(s) = shard {
                    items[s].push((i as u32, time, ev));
                }
            }
        }
        for (s, v) in items.iter().enumerate() {
            if !v.is_empty() {
                self.shard_stats[s].batches += 1;
                self.shard_stats[s].events += v.len() as u64;
            }
        }
        let busy = items.iter().filter(|v| !v.is_empty()).count();
        if !crate::par::should_thread_window(batch.len(), busy, self.hw_threads) {
            return;
        }
        self.par_rounds += 1;
        let results = {
            let pool = self
                .pool
                .as_ref()
                .expect("threaded rounds only run with the worker pool up");
            let Backend::Sharded(sharded) = &mut self.llm else {
                unreachable!("partitioned loop runs on the sharded backend")
            };
            let bases: Vec<usize> = sharded.bases().to_vec();
            let shards = sharded.shards_dyn_mut();
            let jobs: &[JobRt] = &self.jobs;
            let latency = &self.cfg.latency;
            let items: &[Vec<(u32, SimTime, Event)>] = items;
            run_shards_pooled(pool, shards, &bases, items, jobs, latency)
        };
        for (s, busy, shard_fx) in results {
            self.shard_stats[s].threaded_batches += 1;
            self.shard_stats[s].busy += busy;
            if self.probe_on {
                self.probe.record(&ProbeEvent::ShardRound {
                    at: self.now,
                    round: self.rounds,
                    shard: s as u32,
                    events: items[s].len() as u32,
                    busy,
                });
            }
            for (idx, f) in shard_fx {
                fx[idx as usize] = Some(f);
            }
        }
    }

    /// The shard owning an event's executor (`None` for arrivals, regular
    /// finishes, and stale finishes) — the same classification the
    /// threaded paths run, exposed for inline-round attribution. Must be
    /// consulted *before* [`Engine::apply`], which may retire the task
    /// state the classification reads.
    fn shard_of_event(&self, ev: &Event) -> Option<usize> {
        let Backend::Sharded(sharded) = &self.llm else {
            return None;
        };
        match *ev {
            Event::LlmStep { exec, .. } => Some(sharded.shard_of(exec)),
            Event::TaskFinish {
                job, stage, task, ..
            } => match self.jobs[job].task_state_of(stage, task) {
                TaskState::Running { exec: Some(e) } => Some(sharded.shard_of(e as usize)),
                _ => None,
            },
            Event::Arrival { .. } => None,
        }
    }

    /// Folds this round's inline per-shard event counts
    /// (`inline_counts`) into `shard_stats`, optionally spreading a
    /// whole-drain wall-clock measurement pro rata by event count (the
    /// documented approximation for inline busy time; un-timed rounds
    /// pass `None`). Resets the scratch for the next round.
    fn attribute_inline(&mut self, elapsed: Option<std::time::Duration>) {
        let total: u64 = self.inline_counts.iter().sum();
        if total == 0 {
            return;
        }
        for s in 0..self.inline_counts.len() {
            let c = self.inline_counts[s];
            if c == 0 {
                continue;
            }
            self.inline_counts[s] = 0;
            self.shard_stats[s].batches += 1;
            self.shard_stats[s].events += c;
            if let Some(e) = elapsed {
                self.shard_stats[s].busy += e.mul_f64(c as f64 / total as f64);
            }
        }
    }

    /// Live-applies queued events with keys before `key` and times before
    /// `w` (events the window replay posted back into its own span).
    fn drain_window_live(&mut self, key: u128, w: SimTime) {
        // `time < w` is exactly `key < w<<64` on the packed `(time, seq)`
        // key, so a single peek bounds both the replay order and the
        // window end.
        let cap = key.min((w.0 as u128) << 64);
        while self.queue.peek_key().is_some_and(|k| k < cap) {
            let (_, t, ev) = self.queue.pop_keyed().expect("peeked");
            if t > self.now {
                self.advance_integrals(t);
                self.now = t;
            }
            let changed = self.apply(ev);
            debug_assert!(
                !changed,
                "lookahead bound violated: replay-posted event {ev:?} at {t:?} changed \
                 state inside the window ending at {w:?}"
            );
        }
    }

    /// Processes one same-timestamp event round. Hook-bearing events
    /// (`LlmStep`s and `TaskFinish`es whose task currently runs on an
    /// LLM executor) are assigned to the shard owning that executor;
    /// when ≥ 2 shards have work, the shards run concurrently across the
    /// persistent [`WorkerPool`] with read-only access to the job table,
    /// and their recorded [`HookFx`] effects are replayed here in batch
    /// order. Rounds with ≤ 1 busy shard take the inline sequential
    /// path — identical semantics, no thread launch.
    fn process_round(
        &mut self,
        batch: &[(SimTime, Event)],
        items: &mut [Vec<(u32, SimTime, Event)>],
        fx: &mut Vec<Option<HookFx>>,
    ) -> bool {
        // Single-event rounds — the overwhelmingly common case outside
        // co-timed bursts — can never engage a second shard, demoted
        // runs never thread at all, and a single hardware thread makes
        // spawning pure overhead: apply in place, skipping routing.
        // Shard attribution still happens (a cheap state read per
        // event), so `per_shard` reflects real work even on hosts where
        // nothing ever threads.
        if self.demoted || self.hw_threads < 2 || batch.len() < 2 {
            let mut effective = false;
            for &(_, ev) in batch {
                if let Some(s) = self.shard_of_event(&ev) {
                    self.inline_counts[s] += 1;
                }
                effective |= self.apply(ev);
            }
            self.attribute_inline(None);
            return effective;
        }
        for v in items.iter_mut() {
            v.clear();
        }
        {
            let Backend::Sharded(sharded) = &self.llm else {
                unreachable!("partitioned loop runs on the sharded backend")
            };
            for (i, &(time, ev)) in batch.iter().enumerate() {
                let shard = match ev {
                    Event::LlmStep { exec, .. } => Some(sharded.shard_of(exec)),
                    Event::TaskFinish {
                        job, stage, task, ..
                    } => match self.jobs[job].task_state_of(stage, task) {
                        TaskState::Running { exec: Some(e) } => Some(sharded.shard_of(e as usize)),
                        // Regular tasks and already-stale events stay on
                        // the main thread (`apply` handles them).
                        _ => None,
                    },
                    Event::Arrival { .. } => None,
                };
                if let Some(s) = shard {
                    items[s].push((i as u32, time, ev));
                }
            }
        }
        for (s, v) in items.iter().enumerate() {
            if !v.is_empty() {
                self.shard_stats[s].batches += 1;
                self.shard_stats[s].events += v.len() as u64;
            }
        }
        if items.iter().filter(|v| !v.is_empty()).count() < 2 {
            // At most one shard has hook work: threading buys nothing.
            let mut effective = false;
            for &(_, ev) in batch {
                effective |= self.apply(ev);
            }
            return effective;
        }
        self.par_rounds += 1;
        fx.clear();
        fx.resize_with(batch.len(), || None);
        let results = {
            let pool = self
                .pool
                .as_ref()
                .expect("threaded rounds only run with the worker pool up");
            let Backend::Sharded(sharded) = &mut self.llm else {
                unreachable!("partitioned loop runs on the sharded backend")
            };
            let bases: Vec<usize> = sharded.bases().to_vec();
            let shards = sharded.shards_dyn_mut();
            let jobs: &[JobRt] = &self.jobs;
            let latency = &self.cfg.latency;
            let items: &[Vec<(u32, SimTime, Event)>] = items;
            run_shards_pooled(pool, shards, &bases, items, jobs, latency)
        };
        for (s, busy, shard_fx) in results {
            self.shard_stats[s].threaded_batches += 1;
            self.shard_stats[s].busy += busy;
            if self.probe_on {
                self.probe.record(&ProbeEvent::ShardRound {
                    at: self.now,
                    round: self.rounds,
                    shard: s as u32,
                    events: items[s].len() as u32,
                    busy,
                });
            }
            for (idx, f) in shard_fx {
                fx[idx as usize] = Some(f);
            }
        }
        // Replay: exact batch (= sequential pop) order. Events without
        // recorded effects run the normal sequential apply; recorded
        // effects are flushed at the point the live hook would have run.
        let mut effective = false;
        for (i, &(_, ev)) in batch.iter().enumerate() {
            match fx[i].take() {
                None => effective |= self.apply(ev),
                Some(HookFx::Finish { valid, posts }) => {
                    self.events += 1;
                    if valid {
                        let Event::TaskFinish {
                            job, stage, task, ..
                        } = ev
                        else {
                            unreachable!("finish effects come from finish events")
                        };
                        self.finish_task_with(job, stage, task, Some(posts));
                        effective = true;
                    }
                }
                Some(HookFx::Step {
                    finished,
                    effective: step_effective,
                    posts,
                }) => {
                    self.events += 1;
                    self.flush_recorded(posts);
                    for f in &finished {
                        self.finish_task(f.job, f.stage, f.task);
                    }
                    effective |= step_effective;
                }
            }
        }
        effective
    }

    /// Drains the hook post buffer into the event queue, stamping finish
    /// epochs — the engine-side twin of [`crate::exec::flush_posts`]
    /// (which serves backend unit tests), operating on the holder enums.
    fn flush_own_posts(&mut self) {
        if self.posts.is_empty() {
            return;
        }
        let mut posts = std::mem::take(&mut self.posts);
        self.flush_slice(&mut posts);
        self.posts = posts; // return the (drained) buffer, keep capacity
    }

    /// Flushes effects a shard worker recorded during phase A: same as a
    /// live hook's flush, just deferred to the replay point.
    fn flush_recorded(&mut self, mut posts: Vec<Post>) {
        self.flush_slice(&mut posts);
    }

    fn flush_slice(&mut self, posts: &mut Vec<Post>) {
        for p in posts.drain(..) {
            match p {
                Post::Finish { task, at } => {
                    debug_assert!(
                        at >= self.now,
                        "backends never post into the past (decode time is \
                         bounded below by min_per_token × remaining tokens)"
                    );
                    let epoch = self.jobs[task.job].bump_task_epoch(task.stage, task.task);
                    self.queue.push(
                        at,
                        Event::TaskFinish {
                            job: task.job,
                            stage: task.stage,
                            task: task.task,
                            epoch,
                        },
                    );
                }
                Post::Step { exec, epoch, at } => {
                    self.queue.push(at, Event::LlmStep { exec, epoch })
                }
            }
        }
    }

    fn advance_integrals(&mut self, t: SimTime) {
        let dt = (t - self.last_integral_at).as_secs_f64();
        if dt > 0.0 {
            self.reg_busy_integral += self.regular_busy as f64 * dt;
            let (slots, busy) = pool::slot_stats(self.llm.get());
            self.llm_slot_integral += slots as f64 * dt;
            self.llm_active_integral += busy as f64 * dt;
            // The piecewise-constant span just closed; windowed series
            // integrate it. Emitted before any same-time discrete event
            // (the aggregator's low-water-mark contract).
            if self.probe_on {
                self.probe.record(&ProbeEvent::UtilSample {
                    from: self.last_integral_at,
                    to: t,
                    active: self.active.len() as u32,
                    regular_busy: self.regular_busy as u32,
                    regular_total: self.cfg.regular_executors as u32,
                    llm_busy_slots: busy as u32,
                    llm_slots: slots as u32,
                });
            }
        }
        self.last_integral_at = t;
    }

    fn has_free_capacity(&self) -> bool {
        self.regular_busy < self.cfg.regular_executors || pool::has_free_slot(self.llm.get())
    }

    /// Inserts a dense index into the sorted active vector. Arrivals come
    /// (almost) in index order, so the append fast path dominates.
    fn activate(&mut self, j: usize) {
        let j = j as u32;
        match self.active.last() {
            Some(&last) if last < j => self.active.push(j),
            None => self.active.push(j),
            _ => {
                if let Err(pos) = self.active.binary_search(&j) {
                    self.active.insert(pos, j);
                }
            }
        }
    }

    fn deactivate(&mut self, j: usize) {
        if let Ok(pos) = self.active.binary_search(&(j as u32)) {
            self.active.remove(pos);
        }
    }

    /// Appends one delta to the pending batch, coalescing consecutive
    /// same-stage task-count deltas.
    fn emit(&mut self, delta: SchedDelta) {
        match (self.deltas.last_mut(), &delta) {
            (
                Some(SchedDelta::TasksDispatched { job, stage, count }),
                SchedDelta::TasksDispatched {
                    job: j,
                    stage: s,
                    count: c,
                },
            )
            | (
                Some(SchedDelta::TasksFinished { job, stage, count }),
                SchedDelta::TasksFinished {
                    job: j,
                    stage: s,
                    count: c,
                },
            ) if job == j && stage == s => *count += c,
            _ => self.deltas.push(delta),
        }
    }

    /// Applies one event; returns whether it changed state (stale events
    /// return `false` so they do not trigger a scheduler invocation).
    fn apply(&mut self, ev: Event) -> bool {
        self.events += 1;
        match ev {
            Event::Arrival { job } => {
                self.jobs[job].arrived = true;
                self.activate(job);
                self.emit(SchedDelta::JobArrived {
                    job: self.jobs[job].id(),
                    arrival: self.jobs[job].arrival(),
                });
                if self.probe_on {
                    self.probe.record(&ProbeEvent::JobArrived {
                        at: self.now,
                        job: self.jobs[job].id(),
                        app: self.jobs[job].app(),
                    });
                }
                // A pathological template could start with an auto-completing
                // placeholder; run the fixpoint for safety.
                for s in 0..self.jobs[job].spec.len() as u32 {
                    self.try_auto_complete(job, s);
                }
                self.finalize_completion(job);
                // The job's ready work becomes dispatchable only now.
                let (reg, llm) = self.jobs[job].ready_unstarted_by_class();
                self.ready_unstarted += reg + llm;
                self.ready_reg += reg;
                self.ready_llm += llm;
                true
            }
            Event::TaskFinish {
                job,
                stage,
                task,
                epoch,
            } => {
                let jr = &self.jobs[job];
                let valid = jr.task_epoch_of(stage, task) == epoch
                    && matches!(jr.task_state_of(stage, task), TaskState::Running { .. });
                if !valid {
                    return false;
                }
                self.finish_task(job, stage, task);
                true
            }
            Event::LlmStep { exec, epoch } => {
                let out = self.llm.get_mut().step(exec, epoch, &mut exec_ctx!(self));
                self.flush_own_posts();
                for f in &out.finished {
                    self.finish_task(f.job, f.stage, f.task);
                }
                out.effective
            }
        }
    }

    /// Completes one task and any stage / job completions that follow.
    fn finish_task(&mut self, job: usize, stage: u32, task: u32) {
        self.finish_task_with(job, stage, task, None);
    }

    /// [`Engine::finish_task`] with an optional pre-recorded drain: on
    /// the partitioned path a shard worker already released the batch
    /// slot and recorded the resulting re-timings, so the live drain is
    /// skipped and the record is flushed at the same point instead.
    fn finish_task_with(&mut self, job: usize, stage: u32, task: u32, recorded: Option<Vec<Post>>) {
        // The completion cascade below (stage completions, reveals, void
        // chains, auto-completes) is confined to this job; recount its
        // dispatchable work across the whole cascade instead of threading
        // adjustments through every transition.
        let (reg_before, llm_before) = self.jobs[job].ready_unstarted_by_class();
        let spec_work = self.jobs[job].spec.task_work(StageId(stage), task);
        let TaskState::Running { exec } = self.jobs[job].task_state_of(stage, task) else {
            unreachable!("validated by caller")
        };
        let nominal = match spec_work {
            TaskWork::Regular { duration } => {
                debug_assert!(self.regular_busy > 0);
                self.regular_busy -= 1;
                duration.as_secs_f64()
            }
            TaskWork::Llm { .. } => {
                let tokens = spec_work.llm_token_cost().expect("llm task").max(1);
                let nominal = self.cfg.latency.per_token_b1().as_secs_f64() * tokens as f64;
                let e = exec.expect("llm task runs on an executor") as usize;
                // Release the batch slot; the backend re-times survivors
                // (analytic) or no-ops (token-level removes inside step).
                match recorded {
                    Some(posts) => {
                        // The shard worker drained the slot with its probe
                        // detached (workers run concurrently); re-emit the
                        // drain here, where the live hook would have.
                        self.flush_recorded(posts);
                        if self.probe_on {
                            self.probe.record(&ProbeEvent::BatchDrain {
                                at: self.now,
                                exec: e as u32,
                                occupancy: self.llm.get().occupancy(e) as u32,
                            });
                        }
                    }
                    None => {
                        self.llm.get_mut().drain(
                            e,
                            LlmTaskRef { job, stage, task },
                            &mut exec_ctx!(self),
                        );
                        self.flush_own_posts();
                    }
                }
                nominal
            }
        };
        let stage_done = self.jobs[job].record_task_done(stage, task, nominal);
        self.emit(SchedDelta::TasksFinished {
            job: self.jobs[job].id(),
            stage: StageId(stage),
            count: 1,
        });
        if self.probe_on {
            self.probe.record(&ProbeEvent::TaskFinished {
                at: self.now,
                job: self.jobs[job].id(),
                stage: StageId(stage),
                task,
            });
        }
        if stage_done {
            self.complete_stage(job, stage);
        }
        self.finalize_completion(job);
        let (reg_after, llm_after) = self.jobs[job].ready_unstarted_by_class();
        self.ready_reg = self.ready_reg - reg_before + reg_after;
        self.ready_llm = self.ready_llm - llm_before + llm_after;
        self.ready_unstarted = self.ready_reg + self.ready_llm;
    }

    /// Marks `stage` complete, propagates dependency counts, processes
    /// reveals (void cascades) and placeholder auto-completion. Walks the
    /// spec's CSR successor/reveal rows by index — re-borrowing per
    /// element instead of cloning the rows.
    fn complete_stage(&mut self, job: usize, stage: u32) {
        self.jobs[job].mark_stage_done(stage, self.now);
        self.emit(SchedDelta::StageCompleted {
            job: self.jobs[job].id(),
            stage: StageId(stage),
        });
        if self.probe_on {
            self.probe.record(&ProbeEvent::StageCompleted {
                at: self.now,
                job: self.jobs[job].id(),
                stage: StageId(stage),
            });
        }
        self.emit_observations(job, stage);
        // Dependents see one fewer pending predecessor.
        let n_succ = self.jobs[job].spec.dag().out_degree(stage as usize);
        for k in 0..n_succ {
            let s = self.jobs[job].spec.dag().successors(stage as usize)[k];
            self.jobs[job].dec_preds(s);
        }
        // Reveal protocol: stages whose existence hinged on this one.
        let n_rev = self.jobs[job].spec.revealed_by(StageId(stage)).len();
        for k in 0..n_rev {
            let r = self.jobs[job].spec.revealed_by(StageId(stage))[k];
            match self.jobs[job].vis_of(r.0) {
                Visibility::Hidden | Visibility::Undetermined => {
                    let id = self.jobs[job].id();
                    if self.jobs[job].spec.stage(r).executed {
                        self.jobs[job].set_visibility(r.0, Visibility::Known);
                        self.emit(SchedDelta::StageRevealed {
                            job: id,
                            stage: r,
                            executes: true,
                        });
                        if self.probe_on {
                            self.probe.record(&ProbeEvent::StageRevealed {
                                at: self.now,
                                job: id,
                                stage: r,
                                executes: true,
                            });
                        }
                    } else {
                        self.jobs[job].set_visibility(r.0, Visibility::Void);
                        self.emit(SchedDelta::StageRevealed {
                            job: id,
                            stage: r,
                            executes: false,
                        });
                        if self.probe_on {
                            self.probe.record(&ProbeEvent::StageRevealed {
                                at: self.now,
                                job: id,
                                stage: r,
                                executes: false,
                            });
                        }
                        self.complete_stage(job, r.0);
                    }
                }
                _ => {}
            }
        }
        // Placeholders (zero-task stages) downstream may now auto-complete.
        for k in 0..n_succ {
            let s = self.jobs[job].spec.dag().successors(stage as usize)[k];
            self.try_auto_complete(job, s);
        }
    }

    /// Emits the profiler-grade observations of a just-completed stage:
    /// the template stage's realized batch-1 duration, preceded (for
    /// dynamic placeholders) by the structural outcome — one
    /// [`SchedDelta::DynCandidateObserved`] per generated stage and one
    /// [`SchedDelta::DynEdgeObserved`] per inner edge between them.
    /// Generated stages carry no BN variable and emit nothing of their
    /// own; their work aggregates into the placeholder's observation.
    /// Candidate indices come straight off the stage specs (the CSR
    /// children arena makes the old side-table rebuild unnecessary).
    fn emit_observations(&mut self, job: usize, stage: u32) {
        let sid = StageId(stage);
        if sid.index() >= self.jobs[job].spec.template_len() {
            return;
        }
        let id = self.jobs[job].id();
        let app = self.jobs[job].app();
        if self.jobs[job].spec.stage(sid).kind == StageKind::DynamicPlaceholder {
            // Structural outcome: candidate inclusion + inner edges, in
            // candidate terms (mirrors the profiler's training statistics).
            let n_children = self.jobs[job].spec.children_of_dynamic(sid).len();
            for k in 0..n_children {
                let g = self.jobs[job].spec.children_of_dynamic(sid)[k];
                let cand = self.jobs[job].spec.stage(g).candidate;
                if let Some(c) = cand {
                    self.emit(SchedDelta::DynCandidateObserved {
                        job: id,
                        placeholder: sid,
                        candidate: c as u32,
                    });
                }
            }
            let n_edges = self.jobs[job].spec.generated_edges().len();
            for k in 0..n_edges {
                let (u, v) = self.jobs[job].spec.generated_edges()[k];
                let (pu, cu) = {
                    let s = self.jobs[job].spec.stage(u);
                    (s.parent_dynamic, s.candidate)
                };
                let (pv, cv) = {
                    let s = self.jobs[job].spec.stage(v);
                    (s.parent_dynamic, s.candidate)
                };
                if pu == Some(sid) && pv == Some(sid) {
                    if let (Some(cu), Some(cv)) = (cu, cv) {
                        self.emit(SchedDelta::DynEdgeObserved {
                            job: id,
                            placeholder: sid,
                            from: cu as u32,
                            to: cv as u32,
                        });
                    }
                }
            }
        }
        let nominal = self.jobs[job]
            .completed_nominal_secs(sid)
            .expect("stage just completed");
        self.emit(SchedDelta::StageObserved {
            job: id,
            app,
            stage: sid,
            nominal: llmsched_dag::time::SimDuration::from_secs_f64(nominal),
        });
    }

    /// Completes placeholder stages whose predecessors are all done.
    fn try_auto_complete(&mut self, job: usize, stage: u32) {
        let jr = &self.jobs[job];
        if !jr.is_done(stage)
            && jr.vis_of(stage) == Visibility::Known
            && jr.preds_remaining_of(stage) == 0
            && jr.spec.stage(StageId(stage)).kind == StageKind::DynamicPlaceholder
        {
            self.complete_stage(job, stage);
        }
    }

    /// Records `job`'s completion if it just finished all stages. Every
    /// state change is scoped to one job, so completion checks are O(1)
    /// per event instead of the old full active-set scan.
    fn finalize_completion(&mut self, job: usize) {
        let jr = &mut self.jobs[job];
        if jr.stages_remaining != 0 || jr.completed_at.is_some() || !jr.arrived {
            return;
        }
        jr.completed_at = Some(self.now);
        self.deactivate(job);
        self.emit(SchedDelta::JobCompleted {
            job: self.jobs[job].id(),
        });
        if self.probe_on {
            self.probe.record(&ProbeEvent::JobCompleted {
                at: self.now,
                job: self.jobs[job].id(),
                arrival: self.jobs[job].arrival(),
            });
        }
        self.outcomes.push(JobOutcome {
            id: self.jobs[job].id(),
            app: self.jobs[job].app(),
            arrival: self.jobs[job].arrival(),
            completion: self.now,
        });
    }

    fn invoke_scheduler(&mut self, scheduler: &mut dyn Scheduler) {
        pool::views_into(self.llm.get(), &mut self.llm_views);
        let n_deltas = self.deltas.len();
        let (pref, elapsed) = {
            let ctx = SchedContext {
                now: self.now,
                jobs: ActiveJobs::projected(&self.jobs, &self.active),
                deltas: &self.deltas,
                llm_executors: &self.llm_views,
                backend: &self.backend_desc,
                regular_total: self.cfg.regular_executors,
                regular_busy: self.regular_busy,
                dispatchable: self.ready_unstarted,
                dispatchable_regular: self.ready_reg,
                dispatchable_llm: self.ready_llm,
                could_dispatch: self.could_dispatch(),
                templates: self.templates,
                latency: &self.cfg.latency,
            };
            // The overhead window covers delta delivery + the decision —
            // incremental policies do their bookkeeping in the hooks —
            // but not the engine's own context projection above.
            let start = std::time::Instant::now();
            for d in ctx.deltas {
                scheduler.on_delta(d);
            }
            let pref = scheduler.schedule(&ctx);
            (pref, start.elapsed())
        };
        self.sched_wall += elapsed;
        self.sched_samples.push(elapsed);
        // Opportunity sequence: skipped, elided and deferred opportunities
        // consume numbers too, so records carry the same seq whether or
        // not coalescing / elision is on (deferral shifts timing by
        // design, so its seqs align only within one configuration).
        let seq = self.sched_calls + self.sched_skipped + self.sched_elided + self.sched_deferred;
        self.sched_calls += 1;
        self.last_sched_at = Some(self.now);
        let folded = std::mem::take(&mut self.deferred_fold);
        // The batch is delivered exactly once; dispatch deltas below open
        // the next batch.
        self.deltas.clear();
        if self.probe_on {
            self.probe.record(&ProbeEvent::SchedInvoked {
                at: self.now,
                seq,
                wall: elapsed,
                deltas: n_deltas as u32,
                folded,
                regular: pref.regular.len() as u32,
                llm: pref.llm.len() as u32,
            });
            // Provenance drains *before* dispatch so every Decision
            // precedes the TaskDispatched events it explains.
            scheduler.drain_provenance(&mut self.prov_buf);
            for mut r in self.prov_buf.drain(..) {
                r.at = self.now;
                r.seq = seq;
                self.probe.record(&ProbeEvent::Decision(r));
            }
        }
        self.dispatch(&pref);
    }

    /// Looks up a task reference, returning the dense job index if the task
    /// is startable on the given executor class. Id resolution is a binary
    /// search over the ascending slab; activity is two O(1) flag reads.
    fn validate(&self, tr: &TaskRef, class: ExecutorClass) -> Option<usize> {
        let j = self.jobs.binary_search_by(|jr| jr.id().cmp(&tr.job)).ok()?;
        let jr = &self.jobs[j];
        if !jr.arrived || jr.is_complete() {
            return None;
        }
        if tr.stage.index() >= jr.spec.len() || !jr.stage_ready(tr.stage) {
            return None;
        }
        if jr.spec.stage(tr.stage).kind.class() != Some(class) {
            return None;
        }
        if tr.task as usize >= jr.n_stage_tasks(tr.stage.0) {
            return None;
        }
        (jr.task_state_of(tr.stage.0, tr.task) == TaskState::NotStarted).then_some(j)
    }

    fn dispatch(&mut self, pref: &Preference) {
        // Regular executors are interchangeable: count free slots.
        for tr in &pref.regular {
            if self.regular_busy >= self.cfg.regular_executors {
                break;
            }
            if let Some(j) = self.validate(tr, ExecutorClass::Regular) {
                self.start_regular(j, tr);
            }
        }
        // LLM tasks are routed by the backend: the default is the paper's
        // least-loaded rule, cluster backends consult their Router policy.
        for tr in &pref.llm {
            if !pool::has_free_slot(self.llm.get()) {
                break;
            }
            let Some(j) = self.validate(tr, ExecutorClass::Llm) else {
                continue;
            };
            let work = self.jobs[j]
                .spec
                .task_work(tr.stage, tr.task)
                .llm_work()
                .expect("validated as llm");
            let task = LlmTaskRef {
                job: j,
                stage: tr.stage.0,
                task: tr.task,
            };
            let Some(e) = self.llm.get_mut().place(task, work) else {
                break;
            };
            self.start_llm(j, tr, e, work);
        }
    }

    fn start_regular(&mut self, j: usize, tr: &TaskRef) {
        let TaskWork::Regular { duration } = self.jobs[j].spec.task_work(tr.stage, tr.task) else {
            unreachable!("validated as regular");
        };
        let epoch = self.jobs[j].start_task(tr.stage.0, tr.task, None, self.now);
        self.regular_busy += 1;
        self.ready_unstarted -= 1;
        self.ready_reg -= 1;
        self.regular_finishes
            .push(std::cmp::Reverse(self.now + duration));
        self.emit(SchedDelta::TasksDispatched {
            job: tr.job,
            stage: tr.stage,
            count: 1,
        });
        if self.probe_on {
            self.probe.record(&ProbeEvent::TaskDispatched {
                at: self.now,
                job: tr.job,
                stage: tr.stage,
                task: tr.task,
                class: ExecutorClass::Regular,
                exec: None,
            });
        }
        self.queue.push(
            self.now + duration,
            Event::TaskFinish {
                job: j,
                stage: tr.stage.0,
                task: tr.task,
                epoch,
            },
        );
    }

    fn start_llm(&mut self, j: usize, tr: &TaskRef, e: usize, work: LlmWork) {
        self.jobs[j].start_task(tr.stage.0, tr.task, Some(e as u32), self.now);
        self.ready_unstarted -= 1;
        self.ready_llm -= 1;
        self.emit(SchedDelta::TasksDispatched {
            job: tr.job,
            stage: tr.stage,
            count: 1,
        });
        if self.probe_on {
            self.probe.record(&ProbeEvent::TaskDispatched {
                at: self.now,
                job: tr.job,
                stage: tr.stage,
                task: tr.task,
                class: ExecutorClass::Llm,
                exec: Some(e as u32),
            });
        }
        self.llm.get_mut().admit(
            e,
            LlmTaskRef {
                job: j,
                stage: tr.stage.0,
                task: tr.task,
            },
            work,
            &mut exec_ctx!(self),
        );
        self.flush_own_posts();
    }
}

/// Fans one round's shard hook work out across the persistent worker
/// pool: each busy shard becomes one pool task holding exclusive access
/// to its `&mut dyn ExecutorBackend` (handed through [`TaskSlots`]), and
/// the calling thread participates as pool worker 0. Returns
/// `(shard index, wall-clock busy, per-event hook effects)` per busy
/// shard — the same contract the old per-round `std::thread::scope`
/// fan-out had, minus the per-round spawn/join cost.
type ShardRoundFx = (usize, std::time::Duration, Vec<(u32, HookFx)>);

fn run_shards_pooled<'s>(
    pool: &WorkerPool,
    shards: Vec<&'s mut dyn ExecutorBackend>,
    bases: &[usize],
    items: &[Vec<(u32, SimTime, Event)>],
    jobs: &[JobRt],
    latency: &LatencyProfile,
) -> Vec<ShardRoundFx> {
    let n_busy = items.iter().filter(|v| !v.is_empty()).count();
    let inputs: TaskSlots<(usize, &'s mut dyn ExecutorBackend)> = TaskSlots::new(n_busy);
    let outputs: TaskSlots<ShardRoundFx> = TaskSlots::new(n_busy);
    let mut k = 0;
    for (s, shard) in shards.into_iter().enumerate() {
        if items[s].is_empty() {
            continue;
        }
        inputs.put(k, (s, shard));
        k += 1;
    }
    debug_assert_eq!(k, n_busy);
    pool.run(n_busy, &|i| {
        let (s, shard) = inputs
            .take(i)
            .expect("pool task index is claimed exactly once");
        let start = std::time::Instant::now();
        let fx = run_shard(shard, bases[s], jobs, latency, &items[s]);
        outputs.put(i, (s, start.elapsed(), fx));
    });
    outputs.into_inner().into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsched_dag::ids::StageId;
    use llmsched_dag::prelude::*;
    use llmsched_dag::time::SimDuration;

    /// A scheduler that always offers every ready task FCFS by job id.
    struct Greedy;

    impl Scheduler for Greedy {
        fn name(&self) -> &str {
            "greedy"
        }

        fn schedule(&mut self, ctx: &SchedContext<'_>) -> Preference {
            let mut p = Preference::new();
            for job in &ctx.jobs {
                for &s in job.ready_stage_ids() {
                    p.push_stage_tasks(job, s);
                }
            }
            p
        }
    }

    fn templates_and_job(arrival: f64) -> (TemplateSet, JobSpec) {
        let mut b = TemplateBuilder::new(AppId(0), "pipeline");
        let g = b.llm("gen");
        let e = b.regular("exec");
        b.edge(g, e);
        let t = b.build().unwrap();
        let spec = JobSpec::new(
            JobId(0),
            &t,
            SimTime::from_secs_f64(arrival),
            vec![
                StageSpec::executing(
                    "gen",
                    StageKind::Llm,
                    vec![TaskWork::Llm {
                        prompt_tokens: 0,
                        output_tokens: 100,
                    }],
                ),
                StageSpec::executing(
                    "exec",
                    StageKind::Regular,
                    vec![TaskWork::Regular {
                        duration: SimDuration::from_secs(2),
                    }],
                ),
            ],
            vec![],
        )
        .unwrap();
        let set: TemplateSet = [t].into_iter().collect();
        (set, spec)
    }

    fn flat_latency() -> LatencyProfile {
        // 10 ms/token regardless of batch: easy hand computation.
        LatencyProfile::new(vec![(1, SimDuration::from_millis(10))]).unwrap()
    }

    #[test]
    fn single_job_pipeline_completes_at_expected_time() {
        let (set, spec) = templates_and_job(0.0);
        let cfg = ClusterConfig {
            latency: flat_latency(),
            ..Default::default()
        };
        let res = simulate(&cfg, &set, vec![spec], &mut Greedy);
        assert_eq!(res.jobs.len(), 1);
        assert_eq!(res.incomplete, 0);
        assert_eq!(res.backend, "analytic");
        // 100 tokens * 10ms = 1s decode, then 2s regular => JCT 3s.
        assert!((res.jobs[0].jct().as_secs_f64() - 3.0).abs() < 1e-6);
        assert_eq!(res.makespan, SimTime::from_secs_f64(3.0));
    }

    #[test]
    fn arrival_offset_shifts_completion_not_jct() {
        let (set, spec) = templates_and_job(5.0);
        let cfg = ClusterConfig {
            latency: flat_latency(),
            ..Default::default()
        };
        let res = simulate(&cfg, &set, vec![spec], &mut Greedy);
        assert!((res.jobs[0].jct().as_secs_f64() - 3.0).abs() < 1e-6);
        assert_eq!(res.jobs[0].completion, SimTime::from_secs_f64(8.0));
    }

    #[test]
    fn batching_slows_decoding_analytically() {
        // Two identical 100-token LLM jobs, one executor, batch-dependent
        // latency: l(1)=10ms, l(2)=20ms. Both start at t=0 and co-batch:
        // each token pair costs 20ms, so both finish at 100*20ms = 2s.
        let mut b = TemplateBuilder::new(AppId(0), "llm_only");
        b.llm("gen");
        let t = b.build().unwrap();
        let set: TemplateSet = [t.clone()].into_iter().collect();
        let mk = |id: u64| {
            JobSpec::new(
                JobId(id),
                &t,
                SimTime::ZERO,
                vec![StageSpec::executing(
                    "gen",
                    StageKind::Llm,
                    vec![TaskWork::Llm {
                        prompt_tokens: 0,
                        output_tokens: 100,
                    }],
                )],
                vec![],
            )
            .unwrap()
        };
        let latency = LatencyProfile::new(vec![
            (1, SimDuration::from_millis(10)),
            (2, SimDuration::from_millis(20)),
        ])
        .unwrap();
        let cfg = ClusterConfig {
            latency,
            ..Default::default()
        };
        let res = simulate(&cfg, &set, vec![mk(0), mk(1)], &mut Greedy);
        assert_eq!(res.incomplete, 0);
        for j in &res.jobs {
            assert!(
                (j.jct().as_secs_f64() - 2.0).abs() < 1e-3,
                "expected ~2s co-batched, got {}",
                j.jct()
            );
        }
    }

    #[test]
    fn partitioned_round_runs_on_worker_threads() {
        // Two identical LLM-only jobs on two executors under
        // Partitioned(2): least-loaded placement separates them, both
        // finish events land at t = 1 s on *different* shards, so the
        // round must take the scoped-thread path — and still match the
        // sequential run exactly.
        let mut b = TemplateBuilder::new(AppId(0), "llm_only");
        b.llm("gen");
        let t = b.build().unwrap();
        let set: TemplateSet = [t.clone()].into_iter().collect();
        let mk = |id: u64| {
            JobSpec::new(
                JobId(id),
                &t,
                SimTime::ZERO,
                vec![StageSpec::executing(
                    "gen",
                    StageKind::Llm,
                    vec![TaskWork::Llm {
                        prompt_tokens: 0,
                        output_tokens: 100,
                    }],
                )],
                vec![],
            )
            .unwrap()
        };
        let cfg = |par: Parallelism| ClusterConfig {
            latency: flat_latency(),
            llm_executors: 2,
            parallelism: par,
            ..Default::default()
        };
        let seq = simulate(
            &cfg(Parallelism::Off),
            &set,
            vec![mk(0), mk(1)],
            &mut Greedy,
        );
        let par = simulate(
            &cfg(Parallelism::Partitioned(2)),
            &set,
            vec![mk(0), mk(1)],
            &mut Greedy,
        );
        assert!(seq.par.is_none());
        let stats = par.par.as_ref().expect("partitioned run reports ParStats");
        assert_eq!(stats.partitions, 2);
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if hw >= 2 {
            assert!(
                stats.parallel_rounds > 0,
                "co-timed finishes on both shards must thread: {stats:?}"
            );
        } else {
            // Single-hardware-thread hosts must never spawn: workers
            // would only serialize behind the main thread.
            assert_eq!(
                stats.parallel_rounds, 0,
                "1-thread host spawned workers: {stats:?}"
            );
        }
        assert_eq!(par.events, seq.events);
        assert_eq!(par.makespan, seq.makespan);
        assert_eq!(
            par.avg_jct_secs().to_bits(),
            seq.avg_jct_secs().to_bits(),
            "partitioned avg JCT bits"
        );
        // Both jobs finish together at 100 tokens × 10 ms = 1 s.
        for j in &par.jobs {
            assert!((j.jct().as_secs_f64() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn token_level_matches_analytic_for_lone_task() {
        let (set, spec) = templates_and_job(0.0);
        let cfg = ClusterConfig {
            latency: flat_latency(),
            mode: EngineMode::TokenLevel,
            ..Default::default()
        };
        let res = simulate(&cfg, &set, vec![spec], &mut Greedy);
        assert_eq!(res.incomplete, 0);
        assert_eq!(res.backend, "token-level");
        assert!((res.jobs[0].jct().as_secs_f64() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn cluster_and_disagg_modes_run_end_to_end() {
        let (set, spec) = templates_and_job(0.0);
        // Homogeneous cluster mode is the analytic model behind routed
        // placement: identical hand-computed JCT.
        let cfg = ClusterConfig {
            latency: flat_latency(),
            mode: EngineMode::Cluster,
            ..Default::default()
        };
        let res = simulate(&cfg, &set, vec![spec.clone()], &mut Greedy);
        assert_eq!(res.incomplete, 0);
        assert_eq!(res.backend, "cluster/least-loaded");
        assert!((res.jobs[0].jct().as_secs_f64() - 3.0).abs() < 1e-6);

        // Disagg adds the KV transfer delay (default 25 ms; the job has
        // no prompt tokens, so no prefill time).
        let cfg = ClusterConfig {
            latency: flat_latency(),
            mode: EngineMode::Disagg,
            ..Default::default()
        };
        let res = simulate(&cfg, &set, vec![spec], &mut Greedy);
        assert_eq!(res.incomplete, 0);
        assert_eq!(res.backend, "disagg/least-loaded");
        assert!((res.jobs[0].jct().as_secs_f64() - 3.025).abs() < 1e-6);
    }

    #[test]
    fn regular_capacity_is_respected() {
        // 4 one-second regular tasks, 2 executors => makespan 2s.
        let mut b = TemplateBuilder::new(AppId(0), "wide");
        let s = b.regular("wide");
        b.typical_tasks(s, 4);
        let t = b.build().unwrap();
        let spec = JobSpec::new(
            JobId(0),
            &t,
            SimTime::ZERO,
            vec![StageSpec::executing(
                "wide",
                StageKind::Regular,
                vec![
                    TaskWork::Regular {
                        duration: SimDuration::from_secs(1)
                    };
                    4
                ],
            )],
            vec![],
        )
        .unwrap();
        let set: TemplateSet = [t].into_iter().collect();
        let cfg = ClusterConfig {
            regular_executors: 2,
            ..Default::default()
        };
        let res = simulate(&cfg, &set, vec![spec], &mut Greedy);
        assert_eq!(res.makespan, SimTime::from_secs_f64(2.0));
        // Both regular executors were fully busy until the end.
        assert!((res.utilization.regular_busy_frac - 1.0).abs() < 1e-6);
    }

    #[test]
    fn void_chain_stages_cascade_and_job_completes() {
        // gen -> exec -> [gen2 -> exec2] (iteration 2 void).
        let mut b = TemplateBuilder::new(AppId(0), "chain");
        let g = b.llm("gen");
        let e = b.regular("exec");
        let g2 = b.llm("gen2");
        let e2 = b.regular("exec2");
        b.edge(g, e);
        b.edge(e, g2);
        b.edge(g2, e2);
        b.revealed_by(g2, e);
        b.revealed_by(e2, e);
        let t = b.build().unwrap();
        let spec = JobSpec::new(
            JobId(0),
            &t,
            SimTime::ZERO,
            vec![
                StageSpec::executing(
                    "gen",
                    StageKind::Llm,
                    vec![TaskWork::Llm {
                        prompt_tokens: 0,
                        output_tokens: 100,
                    }],
                ),
                StageSpec::executing(
                    "exec",
                    StageKind::Regular,
                    vec![TaskWork::Regular {
                        duration: SimDuration::from_secs(1),
                    }],
                ),
                StageSpec {
                    executed: false,
                    tasks: vec![],
                    revealed_by: Some(e),
                    ..StageSpec::executing("gen2", StageKind::Llm, vec![])
                },
                StageSpec {
                    executed: false,
                    tasks: vec![],
                    revealed_by: Some(e),
                    ..StageSpec::executing("exec2", StageKind::Regular, vec![])
                },
            ],
            vec![],
        )
        .unwrap();
        let set: TemplateSet = [t].into_iter().collect();
        let cfg = ClusterConfig {
            latency: flat_latency(),
            ..Default::default()
        };
        let res = simulate(&cfg, &set, vec![spec], &mut Greedy);
        assert_eq!(res.incomplete, 0);
        // 1s decode + 1s exec; void stages add nothing.
        assert!((res.jobs[0].jct().as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn dynamic_placeholder_expands_and_gates_completion() {
        // plan (LLM) -> dynamic {2 parallel tools} ; placeholder completes
        // only after both generated tools complete.
        let mut b = TemplateBuilder::new(AppId(0), "planning");
        let plan = b.llm("plan");
        let dynamic = b.dynamic(
            "exec_plan",
            plan,
            vec![
                Candidate {
                    name: "tool_a".into(),
                    class: ExecutorClass::Regular,
                },
                Candidate {
                    name: "tool_b".into(),
                    class: ExecutorClass::Regular,
                },
            ],
        );
        b.edge(plan, dynamic);
        let t = b.build().unwrap();
        let g0 = StageId(2);
        let g1 = StageId(3);
        let spec = JobSpec::new(
            JobId(0),
            &t,
            SimTime::ZERO,
            vec![
                StageSpec::executing(
                    "plan",
                    StageKind::Llm,
                    vec![TaskWork::Llm {
                        prompt_tokens: 0,
                        output_tokens: 100,
                    }],
                ),
                StageSpec::executing("exec_plan", StageKind::DynamicPlaceholder, vec![]),
                StageSpec {
                    revealed_by: Some(plan),
                    parent_dynamic: Some(dynamic),
                    candidate: Some(0),
                    ..StageSpec::executing(
                        "tool_a",
                        StageKind::Regular,
                        vec![TaskWork::Regular {
                            duration: SimDuration::from_secs(1),
                        }],
                    )
                },
                StageSpec {
                    revealed_by: Some(plan),
                    parent_dynamic: Some(dynamic),
                    candidate: Some(1),
                    ..StageSpec::executing(
                        "tool_b",
                        StageKind::Regular,
                        vec![TaskWork::Regular {
                            duration: SimDuration::from_secs(3),
                        }],
                    )
                },
            ],
            vec![(plan, g0), (plan, g1), (g0, dynamic), (g1, dynamic)],
        )
        .unwrap();
        let set: TemplateSet = [t].into_iter().collect();
        let cfg = ClusterConfig {
            latency: flat_latency(),
            ..Default::default()
        };
        let res = simulate(&cfg, &set, vec![spec], &mut Greedy);
        assert_eq!(res.incomplete, 0);
        // 1s plan + max(1, 3)s parallel tools = 4s.
        assert!((res.jobs[0].jct().as_secs_f64() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn delta_stream_reports_lifecycle_in_causal_order() {
        use crate::scheduler::SchedDelta;

        /// Greedy dispatch + a transcript of every delivered delta batch.
        struct Recording {
            inner: Greedy,
            batches: Vec<Vec<SchedDelta>>,
            pending: Vec<SchedDelta>,
            resets: usize,
        }
        impl Scheduler for Recording {
            fn name(&self) -> &str {
                "recording"
            }
            fn schedule(&mut self, ctx: &SchedContext<'_>) -> Preference {
                // The hook-delivered batch and the context batch agree.
                assert_eq!(self.pending.as_slice(), ctx.deltas);
                self.batches.push(std::mem::take(&mut self.pending));
                self.inner.schedule(ctx)
            }
            fn on_delta(&mut self, d: &SchedDelta) {
                self.pending.push(*d);
            }
            fn reset(&mut self) {
                self.resets += 1;
                self.pending.clear();
                self.batches.clear();
            }
        }

        let (set, spec) = templates_and_job(0.0);
        let cfg = ClusterConfig {
            latency: flat_latency(),
            ..Default::default()
        };
        let mut rec = Recording {
            inner: Greedy,
            batches: Vec::new(),
            pending: Vec::new(),
            resets: 0,
        };
        let res = simulate(&cfg, &set, vec![spec], &mut rec);
        assert_eq!(res.incomplete, 0);
        assert_eq!(rec.resets, 1, "engine resets the scheduler once at start");
        assert_eq!(res.sched_calls as usize, rec.batches.len());
        assert_eq!(
            res.sched_wall_samples.len(),
            rec.batches.len(),
            "one overhead sample per invocation"
        );

        let flat: Vec<SchedDelta> = rec.batches.concat();
        // Arrival first, then for the pipeline job: dispatch of the LLM
        // stage, its finish + stage completion + duration observation. The
        // regular stage's dispatch delta — and the final TasksFinished /
        // StageCompleted / StageObserved / JobCompleted — land in a batch
        // after the last invocation and are never delivered: the sim ends
        // without another decision point.
        let expect = [
            SchedDelta::JobArrived {
                job: JobId(0),
                arrival: SimTime::ZERO,
            },
            SchedDelta::TasksDispatched {
                job: JobId(0),
                stage: StageId(0),
                count: 1,
            },
            SchedDelta::TasksFinished {
                job: JobId(0),
                stage: StageId(0),
                count: 1,
            },
            SchedDelta::StageCompleted {
                job: JobId(0),
                stage: StageId(0),
            },
            // 100 tokens at the 10 ms/token flat curve: 1 s batch-1 truth.
            SchedDelta::StageObserved {
                job: JobId(0),
                app: AppId(0),
                stage: StageId(0),
                nominal: SimDuration::from_secs(1),
            },
        ];
        assert_eq!(flat, expect, "causal order of the delta stream");
    }

    #[test]
    fn lazy_scheduler_strands_jobs_without_hanging() {
        struct Idle;
        impl Scheduler for Idle {
            fn name(&self) -> &str {
                "idle"
            }
            fn schedule(&mut self, _: &SchedContext<'_>) -> Preference {
                Preference::new()
            }
        }
        let (set, spec) = templates_and_job(0.0);
        let cfg = ClusterConfig::default();
        let res = simulate(&cfg, &set, vec![spec], &mut Idle);
        assert_eq!(res.jobs.len(), 0);
        assert_eq!(res.incomplete, 1);
    }
}
