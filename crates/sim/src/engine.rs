//! The discrete-event cluster engine: event loop, dispatch, and the
//! reveal protocol of §IV-A.
//!
//! LLM serving itself lives behind the [`ExecutorBackend`] trait in
//! [`crate::exec`]; the engine owns exactly one backend — chosen by
//! [`ClusterConfig::mode`] — and is otherwise fidelity-agnostic. Three
//! modes ship today (see [`EngineMode`]):
//!
//! * [`EngineMode::Analytic`] — the paper's *simulator*
//!   ([`crate::exec::ClusterExec`]): rate-rescaling batching, events
//!   only at batch-membership changes, on a routed replica table — the
//!   homogeneous least-loaded pool of the scalar fields, or the
//!   (possibly heterogeneous) topology of [`ClusterConfig::spec`].
//! * [`EngineMode::TokenLevel`] — the paper's *testbed* stand-in
//!   ([`crate::exec::TokenExec`]): per-iteration continuous batching.
//! * [`EngineMode::Disagg`] — disaggregated prefill/decode serving
//!   ([`crate::exec::DisaggExec`]).
//!
//! The engine owns the hidden [`JobSpec`]s and implements the reveal
//! protocol; schedulers only observe the filtered [`SchedContext`].
//!
//! # Hot-path layout
//!
//! The job table is a dense slab ascending by [`JobId`], with a compact
//! id array beside it: id lookup ([`slot_of`]) is one interpolation
//! probe of that array — O(1) on dense ids — with an exact binary search
//! as the fallback, and no side `HashMap`; the active set is one sorted
//! index vector lent to scheduler contexts as a zero-allocation
//! projection; stage/task state is struct-of-arrays inside [`JobRt`];
//! and the completion cascades walk the spec's CSR arenas by index — the
//! per-event `Vec` clones of the old layout are gone. See `DESIGN.md` §9.

use llmsched_cluster::{ClusterSpec, ClusterSpecError};
use llmsched_dag::ids::{AppId, JobId, StageId};
use llmsched_dag::job::{DynOutcome, JobSpec, StageKind};
use llmsched_dag::template::TemplateSet;
use llmsched_dag::time::SimTime;
use llmsched_dag::work::{ExecutorClass, LlmWork, TaskWork};
use llmsched_telemetry::{DecisionRecord, NoopProbe, Probe, ProbeEvent, WallReservoir};

pub use crate::exec::pool::EngineMode;

use crate::event::{Event, EventQueue};
use crate::exec::{pool, ExecCtx, ExecutorBackend, LlmTaskRef};
use crate::latency::LatencyProfile;
use crate::metrics::{JobOutcome, SimResult, Utilization};
use crate::scheduler::{
    slot_of, ActiveJobs, Preference, SchedContext, SchedDelta, Scheduler, TaskRef,
};
use crate::state::{JobRt, TaskState, Visibility};

/// Cluster resources and engine options.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of regular executors (each runs one regular task at a time).
    pub regular_executors: usize,
    /// Number of LLM executors (each batches up to `max_batch` LLM tasks).
    /// Ignored when an explicit [`ClusterConfig::spec`] sizes the pool.
    pub llm_executors: usize,
    /// Maximum batch size per LLM executor. Ignored when an explicit
    /// [`ClusterConfig::spec`] sizes the pool.
    pub max_batch: usize,
    /// Reference decode-latency curve: the derived specs and the
    /// token-level pool decode with it; an explicit
    /// [`ClusterConfig::spec`] carries per-group curves and uses this
    /// only for batch-1 duration normalization (Eq. 2 evidence).
    pub latency: LatencyProfile,
    /// Execution fidelity (selects the [`ExecutorBackend`]).
    pub mode: EngineMode,
    /// Token-level mode only: tokens each request decodes per iteration
    /// (1 = faithful per-token stepping). A larger chunk coarsens the
    /// iteration boundaries where requests join and finish, which moves
    /// schedules; it saves few events, because the backend posts one
    /// wake-up per batch change, not one per iteration.
    /// [`ClusterConfig::validate`] rejects 0 in every mode.
    pub iteration_chunk: u64,
    /// Serving-cluster topology for [`EngineMode::Analytic`] /
    /// [`EngineMode::Disagg`]: replica groups, routing policy, optional
    /// disaggregation. `None` derives a spec from the scalar fields above
    /// (a homogeneous least-loaded pool; under `Disagg`, plus one
    /// prefill replica). [`EngineMode::TokenLevel`] rejects a spec.
    pub spec: Option<ClusterSpec>,
    /// Bounded-staleness decision batching: with ε > 0 (simulated
    /// seconds), a decision point falling within ε of the previous
    /// policy invocation is *deferred* — its deltas keep accumulating on
    /// the existing [`SchedDelta`] stream — and all deferred points fold
    /// into one batched invocation at the horizon edge (the clock advances
    /// to exactly `previous invocation + ε` when no earlier event exists).
    /// `0.0` (the default) is the exact mode: every decision point is
    /// evaluated at its own timestamp, and nothing is deferred (every
    /// cell of the equivalence matrix asserts it). ε > 0 is a
    /// *relaxation*: dispatch can lag a ready task by at most ε, bounding
    /// the avg-JCT drift (gated at ≤ 0.5 % by `scale_throughput --check`).
    /// See `DESIGN.md` §14.
    pub decision_horizon: f64,
}

/// Why a simulation's inputs were rejected before the run started: each
/// variant names the [`ClusterConfig`] field (or the job) at fault.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `regular_executors` is 0, so no regular task could ever run.
    NoRegularExecutors,
    /// `max_batch` is 0 in a mode that sizes batches from the scalar
    /// fields (no explicit [`ClusterConfig::spec`] in use).
    ZeroMaxBatch,
    /// `iteration_chunk` is 0: a token-level iteration must decode at
    /// least one token, or decoding never progresses.
    ZeroIterationChunk,
    /// The LLM pool has no batch slots: `llm_executors` is 0 in a mode
    /// that sizes the pool from the scalar fields, or the built backend's
    /// [`SlotLedger`](crate::exec::SlotLedger) totals zero slots.
    NoLlmCapacity,
    /// `decision_horizon` is negative or not finite.
    InvalidDecisionHorizon(f64),
    /// The explicit [`ClusterConfig::spec`] fails
    /// [`ClusterSpec::validate`].
    InvalidSpec(ClusterSpecError),
    /// [`EngineMode::Disagg`] with an explicit spec that has no
    /// disaggregation layout ([`ClusterSpec::disagg`] is `None`).
    MissingDisaggLayout,
    /// An explicit [`ClusterConfig::spec`] in a mode that sizes its pool
    /// from the scalar fields only and would ignore it.
    SpecUnsupported(EngineMode),
    /// A job's app has no template in the run's template set.
    UnregisteredApp {
        /// The offending job.
        job: JobId,
        /// Its unregistered app.
        app: AppId,
    },
    /// Jobs are not submitted in strictly ascending [`JobId`] order.
    JobsNotAscending {
        /// The earlier job in submission order.
        prev: JobId,
        /// The job that does not follow it.
        next: JobId,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoRegularExecutors => {
                write!(
                    f,
                    "regular_executors is 0: need at least one regular executor"
                )
            }
            ConfigError::ZeroMaxBatch => write!(f, "max_batch is 0: LLM batches need a slot"),
            ConfigError::ZeroIterationChunk => write!(
                f,
                "iteration_chunk is 0: an iteration must decode at least one token"
            ),
            ConfigError::NoLlmCapacity => {
                write!(f, "llm_executors is 0: need LLM capacity")
            }
            ConfigError::InvalidDecisionHorizon(h) => write!(
                f,
                "decision_horizon is {h}: must be finite and non-negative (seconds)"
            ),
            ConfigError::InvalidSpec(e) => write!(f, "spec is invalid: {e}"),
            ConfigError::MissingDisaggLayout => write!(
                f,
                "spec has no disagg layout, which EngineMode::Disagg requires"
            ),
            ConfigError::SpecUnsupported(mode) => write!(
                f,
                "spec is set, but EngineMode::{mode:?} sizes its pool from \
                 llm_executors and max_batch only"
            ),
            ConfigError::UnregisteredApp { job, app } => {
                write!(f, "job {job} uses unregistered app {app}")
            }
            ConfigError::JobsNotAscending { prev, next } => write!(
                f,
                "jobs must be submitted in strictly ascending JobId order ({prev} then {next})"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl ClusterConfig {
    /// Checks every field a run depends on, without building anything.
    ///
    /// # Errors
    /// The first [`ConfigError`] found: no regular executors, a zero
    /// `iteration_chunk`, a bad `decision_horizon`, an invalid explicit
    /// `spec` (or one without a disaggregation layout in
    /// [`EngineMode::Disagg`], or any spec in [`EngineMode::TokenLevel`]),
    /// or — when the scalar fields size the LLM pool — a zero `max_batch`
    /// or `llm_executors`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.regular_executors == 0 {
            return Err(ConfigError::NoRegularExecutors);
        }
        if self.iteration_chunk == 0 {
            return Err(ConfigError::ZeroIterationChunk);
        }
        let h = self.decision_horizon;
        if !(h.is_finite() && h >= 0.0) {
            return Err(ConfigError::InvalidDecisionHorizon(h));
        }
        match (&self.spec, self.mode) {
            (Some(_), EngineMode::TokenLevel) => {
                return Err(ConfigError::SpecUnsupported(self.mode));
            }
            (Some(spec), EngineMode::Analytic | EngineMode::Disagg) => {
                spec.validate().map_err(ConfigError::InvalidSpec)?;
                if self.mode == EngineMode::Disagg && spec.disagg.is_none() {
                    return Err(ConfigError::MissingDisaggLayout);
                }
            }
            _ if self.max_batch == 0 => return Err(ConfigError::ZeroMaxBatch),
            _ if self.llm_executors == 0 => return Err(ConfigError::NoLlmCapacity),
            _ => {}
        }
        Ok(())
    }
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
            decision_horizon: 0.0,
        }
    }
}

/// Borrows the engine fields an [`ExecutorBackend`] hook may touch.
/// A macro (not a method) so the disjoint field borrows stay visible to
/// the borrow checker at each call site. Hooks push their events straight
/// into the engine's queue, so a hook's events are queued — in emission
/// order — before the engine does anything else.
macro_rules! exec_ctx {
    ($self:ident) => {
        ExecCtx {
            now: $self.now,
            latency: &$self.cfg.latency,
            queue: &mut $self.queue,
            jobs: &mut $self.jobs,
            probe: if $self.probe_on {
                Some(&mut *$self.probe)
            } else {
                None
            },
        }
    };
}

struct Engine<'a> {
    cfg: &'a ClusterConfig,
    templates: &'a TemplateSet,
    /// Dense job slab, ascending by `JobId` (checked in `run_checked`).
    jobs: Vec<JobRt>,
    /// The slab's ids in slab order: the compact array [`slot_of`]
    /// resolves ids against, so no lookup reads a [`JobRt`] per probe.
    ids: Vec<JobId>,
    /// The persistent sorted job index: dense indices of active jobs,
    /// ascending (and dense indices ascend with `JobId`). Lent to
    /// scheduler contexts as a borrowed projection; membership changes
    /// incrementally at arrivals/completions.
    active: Vec<u32>,
    queue: EventQueue,
    now: SimTime,
    regular_busy: usize,
    llm: Box<dyn ExecutorBackend>,
    /// Ready, unstarted tasks across active jobs, by executor class
    /// (regular / LLM): a zero sum skips a decision point, the halves
    /// drive the capacity-aware elision predicate. Maintained
    /// incrementally at arrivals, dispatches and completion cascades.
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
    /// Cached [`ExecutorBackend::descriptor`] (e.g. `"cluster/jsq"`),
    /// lent to scheduler contexts and moved into the result.
    backend_desc: String,
    /// Reused buffer [`ExecutorBackend::step`] appends finished tasks to.
    finished_buf: Vec<LlmTaskRef>,
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
}

/// Runs one simulation to completion.
///
/// `jobs` are the hidden ground-truth specs (arrival times inside); the
/// scheduler observes them only through the reveal protocol. Returns the
/// aggregate [`SimResult`].
///
/// # Panics
/// Panics with the [`ConfigError`] text on any input [`try_simulate`]
/// rejects.
pub fn simulate(
    cfg: &ClusterConfig,
    templates: &TemplateSet,
    jobs: Vec<JobSpec>,
    scheduler: &mut dyn Scheduler,
) -> SimResult {
    simulate_probed(cfg, templates, jobs, scheduler, &mut NoopProbe)
}

/// [`simulate`] that returns bad inputs as errors instead of panicking.
///
/// # Errors
/// Any [`ClusterConfig::validate`] error, a job whose app is missing from
/// `templates`, or `jobs` not strictly ascending by [`JobId`].
pub fn try_simulate(
    cfg: &ClusterConfig,
    templates: &TemplateSet,
    jobs: Vec<JobSpec>,
    scheduler: &mut dyn Scheduler,
) -> Result<SimResult, ConfigError> {
    run_checked(cfg, templates, jobs, scheduler, &mut NoopProbe)
}

/// [`simulate`] with a telemetry [`Probe`] attached.
///
/// The probe is observation-only: engine state flows *into* it and never
/// back, so a run with any probe produces the bit-identical schedule,
/// event count, and metrics of the same run under [`NoopProbe`] (pinned
/// by `tests/telemetry_equiv.rs`). `Probe::enabled` is cached once at
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
    run_checked(cfg, templates, jobs, scheduler, probe).unwrap_or_else(|e| panic!("{e}"))
}

fn run_checked(
    cfg: &ClusterConfig,
    templates: &TemplateSet,
    jobs: Vec<JobSpec>,
    scheduler: &mut dyn Scheduler,
    probe: &mut dyn Probe,
) -> Result<SimResult, ConfigError> {
    Ok(Engine::new(cfg, templates, jobs, probe)?.run(scheduler))
}

impl<'a> Engine<'a> {
    /// Checks the inputs and builds an engine with nothing arrived yet.
    fn new(
        cfg: &'a ClusterConfig,
        templates: &'a TemplateSet,
        jobs: Vec<JobSpec>,
        probe: &'a mut dyn Probe,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        if let Some(j) = jobs.iter().find(|j| templates.get(j.app()).is_none()) {
            return Err(ConfigError::UnregisteredApp {
                job: j.id(),
                app: j.app(),
            });
        }
        // The slab is documented ascending by `JobId` and every id lookup
        // (`slot_of`) relies on it; a hard check (O(n), once per run) beats
        // silently mis-resolving jobs in release builds.
        if let Some(w) = jobs.windows(2).find(|w| w[0].id() >= w[1].id()) {
            return Err(ConfigError::JobsNotAscending {
                prev: w[0].id(),
                next: w[1].id(),
            });
        }
        let llm = pool::build_backend(cfg);
        if llm.ledger().total_slots() == 0 {
            return Err(ConfigError::NoLlmCapacity);
        }
        let backend_desc = llm.descriptor();
        let probe_on = probe.enabled();
        let queue = EventQueue::with_capacity(jobs.len() + 64);
        Ok(Engine {
            cfg,
            templates,
            ids: jobs.iter().map(JobSpec::id).collect(),
            jobs: jobs.into_iter().map(JobRt::new).collect(),
            active: Vec::new(),
            queue,
            now: SimTime::ZERO,
            regular_busy: 0,
            llm,
            ready_reg: 0,
            ready_llm: 0,
            sched_skipped: 0,
            sched_elided: 0,
            horizon: llmsched_dag::time::SimDuration::from_secs_f64(cfg.decision_horizon).0,
            last_sched_at: None,
            flush_at: None,
            sched_deferred: 0,
            deferred_fold: 0,
            backend_desc,
            finished_buf: Vec::new(),
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
        })
    }

    fn run(&mut self, scheduler: &mut dyn Scheduler) -> SimResult {
        scheduler.reset();
        scheduler.set_telemetry(self.probe_on);
        for (i, j) in self.jobs.iter().enumerate() {
            self.queue.push(j.spec.arrival(), Event::Arrival { job: i });
        }
        self.event_loop(scheduler);
        let makespan = self
            .outcomes
            .iter()
            .map(|o| o.completion)
            .max()
            .unwrap_or(SimTime::ZERO);
        let horizon = makespan.as_secs_f64().max(f64::MIN_POSITIVE);
        let slots = self.llm.ledger().total_slots() as f64;
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
                    / (self.llm.ledger().views().len() as f64 * horizon),
            },
            events: self.events,
            incomplete: self.jobs.iter().filter(|j| !j.is_complete()).count(),
            timeseries: self.probe.take_timeseries(makespan),
        }
    }

    /// The event loop: drain one timestamp at a time, then offer the
    /// scheduler one decision point. Once the queue drains, the deltas
    /// emitted after the last invocation (the final completions, their
    /// observations) are delivered with no decision — outside the
    /// overhead window, so `sched_calls` and `sched_wall` count decisions
    /// only.
    fn event_loop(&mut self, scheduler: &mut dyn Scheduler) {
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
                    self.scheduler_opportunity(scheduler);
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
            if effective || flush_due {
                self.scheduler_opportunity(scheduler);
            }
        }
        for d in self.deltas.drain(..) {
            scheduler.on_delta(&d);
        }
    }

    /// One decision point, and the one place that lists every reason it
    /// does not reach the policy, in order (`DESIGN.md` §12.1): no active
    /// job or no free executor (not counted); `!could_dispatch`, counted
    /// as *skipped* when nothing is ready — so [`Scheduler::schedule`]
    /// never sees that — and as *elided* when the policy
    /// [`Scheduler::is_work_conserving`]; and the ε deferral. A counted
    /// point keeps its pending deltas for the next invocation and its
    /// sequence number.
    fn scheduler_opportunity(&mut self, scheduler: &mut dyn Scheduler) {
        let free =
            self.regular_busy < self.cfg.regular_executors || self.llm.ledger().has_free_slot();
        if self.active.is_empty() || !free {
            return;
        }
        debug_assert_eq!(
            (self.ready_reg, self.ready_llm),
            self.active.iter().fold((0, 0), |(r, l), &j| {
                let (jr, jl) = self.jobs[j as usize].ready_unstarted_by_class();
                (r + jr, l + jl)
            }),
            "per-class dispatchable-work counters drifted from ground truth"
        );
        debug_assert_eq!(
            self.llm.ledger().totals(),
            self.llm.ledger().recount(),
            "slot-ledger totals drifted from the per-executor views"
        );
        if !self.could_dispatch() {
            if self.ready_reg + self.ready_llm == 0 {
                self.sched_skipped += 1;
                return;
            }
            if scheduler.is_work_conserving() {
                self.sched_elided += 1;
                return;
            }
        }
        // Bounded-staleness batching (after the free skips — deferring a
        // point that would be skipped or elided anyway would
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
                    return;
                }
            }
        }
        self.invoke_scheduler(scheduler);
    }

    /// The capacity-aware elision predicate: true iff at least one ready,
    /// unstarted task could start right now. The engine's dispatch loops
    /// enforce exactly these two gates (`regular_busy` caps the regular
    /// loop; the ledger's free-slot check caps the LLM loop), so when both
    /// halves fail, dispatch is provably a no-op regardless of what the
    /// policy prefers. The same value is handed to policies as
    /// [`SchedContext::could_dispatch`], so the policy-side early-return
    /// and the engine-side elision can never disagree.
    fn could_dispatch(&self) -> bool {
        (self.ready_reg > 0 && self.regular_busy < self.cfg.regular_executors)
            || (self.ready_llm > 0 && self.llm.ledger().has_free_slot())
    }

    fn advance_integrals(&mut self, t: SimTime) {
        let dt = (t - self.last_integral_at).as_secs_f64();
        if dt > 0.0 {
            self.reg_busy_integral += self.regular_busy as f64 * dt;
            let (slots, busy, _, _) = self.llm.ledger().totals();
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
                let mut finished = std::mem::take(&mut self.finished_buf);
                let effective = self
                    .llm
                    .step(exec, epoch, &mut exec_ctx!(self), &mut finished);
                for f in finished.drain(..) {
                    self.finish_task(f.job, f.stage, f.task);
                }
                self.finished_buf = finished;
                effective
            }
        }
    }

    /// Completes one task and any stage / job completions that follow.
    fn finish_task(&mut self, job: usize, stage: u32, task: u32) {
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
                self.llm
                    .drain(e, LlmTaskRef { job, stage, task }, &mut exec_ctx!(self));
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
                    let executes = self.jobs[job].spec.stage(r).executed;
                    let vis = if executes {
                        Visibility::Known
                    } else {
                        Visibility::Void
                    };
                    self.jobs[job].set_visibility(r.0, vis);
                    self.emit(SchedDelta::StageRevealed {
                        job: id,
                        stage: r,
                        executes,
                    });
                    if self.probe_on {
                        self.probe.record(&ProbeEvent::StageRevealed {
                            at: self.now,
                            job: id,
                            stage: r,
                            executes,
                        });
                    }
                    // A void stage completes at once, cascading its reveals.
                    if !executes {
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
    /// The outcome is [`JobSpec::dynamic_outcome`], the same one batch
    /// training counts.
    fn emit_observations(&mut self, job: usize, stage: u32) {
        let sid = StageId(stage);
        if sid.index() >= self.jobs[job].spec.template_len() {
            return;
        }
        let id = self.jobs[job].id();
        let app = self.jobs[job].app();
        let spec = &self.jobs[job].spec;
        if spec.stage(sid).kind == StageKind::DynamicPlaceholder {
            // Structural outcome in candidate terms, as the profiler counts
            // it. Pushed directly: `emit` coalesces task counts only.
            self.deltas
                .extend(spec.dynamic_outcome(sid).map(|o| match o {
                    DynOutcome::Candidate(candidate) => SchedDelta::DynCandidateObserved {
                        job: id,
                        placeholder: sid,
                        candidate,
                    },
                    DynOutcome::Edge(from, to) => SchedDelta::DynEdgeObserved {
                        job: id,
                        placeholder: sid,
                        from,
                        to,
                    },
                }));
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
        let n_deltas = self.deltas.len();
        let (pref, elapsed) = {
            let ctx = SchedContext {
                now: self.now,
                jobs: ActiveJobs::projected(&self.jobs, &self.ids, &self.active),
                llm_pool: self.llm.ledger(),
                backend: &self.backend_desc,
                regular_total: self.cfg.regular_executors,
                regular_busy: self.regular_busy,
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
            for d in &self.deltas {
                scheduler.on_delta(d);
            }
            let pref = scheduler.schedule(&ctx);
            (pref, start.elapsed())
        };
        self.sched_wall += elapsed;
        self.sched_samples.push(elapsed);
        // Opportunity sequence: skipped, elided and deferred opportunities
        // consume numbers too, so records carry the same seq whether or
        // not elision applies (deferral shifts timing by
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
    /// is startable on the given executor class. Id resolution is
    /// [`slot_of`] over the compact id array; activity is two O(1) flag
    /// reads.
    fn validate(&self, tr: &TaskRef, class: ExecutorClass) -> Option<usize> {
        let j = slot_of(&self.ids, tr.job)?;
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
        // LLM tasks are placed by the backend: least-loaded through its
        // slot ledger, or the cluster spec's routing policy.
        for tr in &pref.llm {
            if !self.llm.ledger().has_free_slot() {
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
            let Some(e) = self.llm.place(task, work) else {
                break;
            };
            self.start_llm(j, tr, e, work);
        }
    }

    /// Tells the policy (one coalescable `TasksDispatched`) and the probe
    /// that `tr` started on `class`, on LLM executor `exec` if any.
    fn emit_dispatch(&mut self, tr: &TaskRef, class: ExecutorClass, exec: Option<u32>) {
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
                class,
                exec,
            });
        }
    }

    fn start_regular(&mut self, j: usize, tr: &TaskRef) {
        let TaskWork::Regular { duration } = self.jobs[j].spec.task_work(tr.stage, tr.task) else {
            unreachable!("validated as regular");
        };
        let epoch = self.jobs[j].start_task(tr.stage.0, tr.task, None, self.now);
        self.regular_busy += 1;
        self.ready_reg -= 1;
        self.emit_dispatch(tr, ExecutorClass::Regular, None);
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
        self.ready_llm -= 1;
        self.emit_dispatch(tr, ExecutorClass::Llm, Some(e as u32));
        self.llm.admit(
            e,
            LlmTaskRef {
                job: j,
                stage: tr.stage.0,
                task: tr.task,
            },
            work,
            &mut exec_ctx!(self),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsched_dag::ids::StageId;
    use llmsched_dag::prelude::*;
    use llmsched_dag::time::SimDuration;

    /// A scheduler that always offers every ready task FCFS by job id,
    /// and holds the engine to the contract on [`Scheduler::schedule`]:
    /// it panics if invoked with nothing ready.
    struct Greedy;

    impl Scheduler for Greedy {
        fn name(&self) -> &str {
            "greedy"
        }

        fn schedule(&mut self, ctx: &SchedContext<'_>) -> Preference {
            assert!(
                ctx.dispatchable_regular + ctx.dispatchable_llm > 0,
                "policy invoked with nothing ready at {}",
                ctx.now
            );
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
        assert_eq!(res.backend, "cluster/least-loaded");
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
        // An explicit spec replaces the scalar pool: the lone task lands
        // on the JSQ-routed replica and decodes on its group's curve.
        let cfg = ClusterConfig {
            latency: flat_latency(),
            spec: Some(
                ClusterSpec::homogeneous(2, 4, flat_latency())
                    .with_routing(llmsched_cluster::RoutingPolicy::JoinShortestQueue),
            ),
            ..Default::default()
        };
        let res = simulate(&cfg, &set, vec![spec.clone()], &mut Greedy);
        assert_eq!(res.incomplete, 0);
        assert_eq!(res.backend, "cluster/jsq");
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
        // after the last invocation (checked below).
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
        // The trailing batch arrives when the run drains, with no decision
        // after it (the counts above are unchanged by it).
        let trailing = [
            SchedDelta::TasksDispatched {
                job: JobId(0),
                stage: StageId(1),
                count: 1,
            },
            SchedDelta::TasksFinished {
                job: JobId(0),
                stage: StageId(1),
                count: 1,
            },
            SchedDelta::StageCompleted {
                job: JobId(0),
                stage: StageId(1),
            },
            SchedDelta::StageObserved {
                job: JobId(0),
                app: AppId(0),
                stage: StageId(1),
                nominal: SimDuration::from_secs(2),
            },
            SchedDelta::JobCompleted { job: JobId(0) },
        ];
        assert_eq!(rec.pending, trailing, "deltas after the last decision");
    }

    /// `try_simulate` on the one-job pipeline under `cfg`.
    fn try_pipeline(cfg: &ClusterConfig) -> Result<SimResult, ConfigError> {
        let (set, spec) = templates_and_job(0.0);
        try_simulate(cfg, &set, vec![spec], &mut Greedy)
    }

    #[test]
    fn config_error_no_regular_executors() {
        let cfg = ClusterConfig {
            regular_executors: 0,
            ..Default::default()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::NoRegularExecutors));
        let err = try_pipeline(&cfg).unwrap_err();
        assert!(err.to_string().contains("regular_executors"), "{err}");
    }

    #[test]
    fn config_error_zero_max_batch_in_scalar_modes() {
        for mode in [
            EngineMode::Analytic,
            EngineMode::TokenLevel,
            EngineMode::Disagg,
        ] {
            let cfg = ClusterConfig {
                max_batch: 0,
                mode,
                ..Default::default()
            };
            assert_eq!(try_pipeline(&cfg).unwrap_err(), ConfigError::ZeroMaxBatch);
        }
        // An explicit spec sizes the pool itself: the scalar field is moot.
        let cfg = ClusterConfig {
            max_batch: 0,
            spec: Some(ClusterSpec::homogeneous(1, 4, flat_latency())),
            latency: flat_latency(),
            ..Default::default()
        };
        assert_eq!(try_pipeline(&cfg).unwrap().incomplete, 0);
        assert!(ConfigError::ZeroMaxBatch.to_string().contains("max_batch"));
    }

    #[test]
    fn config_error_no_llm_capacity() {
        for mode in [
            EngineMode::Analytic,
            EngineMode::TokenLevel,
            EngineMode::Disagg,
        ] {
            let cfg = ClusterConfig {
                llm_executors: 0,
                mode,
                ..Default::default()
            };
            assert_eq!(try_pipeline(&cfg).unwrap_err(), ConfigError::NoLlmCapacity);
        }
        assert!(ConfigError::NoLlmCapacity
            .to_string()
            .contains("llm_executors"));
    }

    #[test]
    fn config_error_zero_iteration_chunk() {
        // Rejected in every mode, not clamped: a zero chunk would decode
        // nothing per iteration.
        for mode in [
            EngineMode::Analytic,
            EngineMode::TokenLevel,
            EngineMode::Disagg,
        ] {
            let cfg = ClusterConfig {
                iteration_chunk: 0,
                mode,
                ..Default::default()
            };
            assert_eq!(cfg.validate(), Err(ConfigError::ZeroIterationChunk));
            let err = try_pipeline(&cfg).unwrap_err();
            assert_eq!(err, ConfigError::ZeroIterationChunk);
            assert!(err.to_string().contains("iteration_chunk"), "{err}");
        }
    }

    #[test]
    fn config_error_invalid_decision_horizon() {
        for h in [-0.5, f64::NAN, f64::INFINITY] {
            let cfg = ClusterConfig {
                decision_horizon: h,
                ..Default::default()
            };
            let err = try_pipeline(&cfg).unwrap_err();
            assert!(matches!(err, ConfigError::InvalidDecisionHorizon(_)));
            assert!(err.to_string().contains("decision_horizon"), "{err}");
        }
        // Zero is the exact mode, not an error.
        let cfg = ClusterConfig {
            decision_horizon: 0.0,
            ..Default::default()
        };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn config_error_invalid_spec_is_forwarded() {
        let cfg = ClusterConfig {
            spec: Some(ClusterSpec::homogeneous(0, 4, flat_latency())),
            ..Default::default()
        };
        let err = try_pipeline(&cfg).unwrap_err();
        assert_eq!(
            err,
            ConfigError::InvalidSpec(ClusterSpecError::EmptyGroup(0))
        );
        assert!(err.to_string().starts_with("spec is invalid"), "{err}");
    }

    #[test]
    fn config_error_spec_in_token_level() {
        // The token-level pool is sized by the scalar fields only; a spec
        // there is an error, not a silently ignored topology.
        let cfg = ClusterConfig {
            mode: EngineMode::TokenLevel,
            spec: Some(ClusterSpec::homogeneous(2, 4, flat_latency())),
            ..Default::default()
        };
        let err = try_pipeline(&cfg).unwrap_err();
        assert_eq!(err, ConfigError::SpecUnsupported(EngineMode::TokenLevel));
        let text = err.to_string();
        assert!(
            text.contains("spec") && text.contains("TokenLevel"),
            "{text}"
        );
    }

    #[test]
    fn config_error_disagg_without_layout() {
        let cfg = ClusterConfig {
            mode: EngineMode::Disagg,
            spec: Some(ClusterSpec::homogeneous(2, 4, flat_latency())),
            ..Default::default()
        };
        assert_eq!(
            try_pipeline(&cfg).unwrap_err(),
            ConfigError::MissingDisaggLayout
        );
    }

    #[test]
    fn config_error_unregistered_app() {
        let (_, spec) = templates_and_job(0.0);
        let empty = TemplateSet::default();
        let err =
            try_simulate(&ClusterConfig::default(), &empty, vec![spec], &mut Greedy).unwrap_err();
        assert_eq!(
            err,
            ConfigError::UnregisteredApp {
                job: JobId(0),
                app: AppId(0)
            }
        );
    }

    #[test]
    fn config_error_jobs_not_ascending() {
        let (set, spec) = templates_and_job(0.0);
        let err = try_simulate(
            &ClusterConfig::default(),
            &set,
            vec![spec.clone(), spec],
            &mut Greedy,
        )
        .unwrap_err();
        assert_eq!(
            err,
            ConfigError::JobsNotAscending {
                prev: JobId(0),
                next: JobId(0)
            }
        );
        assert!(err.to_string().contains("ascending JobId"), "{err}");
    }

    #[test]
    #[should_panic(expected = "decision_horizon is -0.5")]
    fn simulate_panics_with_the_config_error_text() {
        let (set, spec) = templates_and_job(0.0);
        let cfg = ClusterConfig {
            decision_horizon: -0.5,
            ..Default::default()
        };
        simulate(&cfg, &set, vec![spec], &mut Greedy);
    }

    #[test]
    fn policy_is_never_invoked_with_nothing_ready() {
        // One LLM stage of a short and a long task: the short one's
        // finish leaves the job active, a slot free and nothing ready,
        // which `Greedy` would panic on.
        let mut b = TemplateBuilder::new(AppId(0), "pair");
        b.llm("gen");
        let t = b.build().unwrap();
        let task = |output_tokens| TaskWork::Llm {
            prompt_tokens: 0,
            output_tokens,
        };
        let stage = StageSpec::executing("gen", StageKind::Llm, vec![task(100), task(200)]);
        let spec = JobSpec::new(JobId(0), &t, SimTime::ZERO, vec![stage], vec![]).unwrap();
        let set: TemplateSet = [t].into_iter().collect();
        for mode in [
            EngineMode::Analytic,
            EngineMode::TokenLevel,
            EngineMode::Disagg,
        ] {
            let cfg = ClusterConfig {
                latency: flat_latency(),
                mode,
                ..Default::default()
            };
            let res = simulate(&cfg, &set, vec![spec.clone()], &mut Greedy);
            assert_eq!(res.incomplete, 0, "{mode:?}");
            assert!(res.sched_skipped > 0, "{mode:?}: no empty decision point");
        }
    }

    #[test]
    fn validate_resolves_sparse_ascending_ids() {
        let (set, spec) = templates_and_job(0.0);
        let t = set.get(AppId(0)).unwrap();
        let ids = [2, 5, 9, 1_000_000, u64::MAX - 1].map(JobId);
        let specs: Vec<JobSpec> = ids
            .iter()
            .map(|&id| JobSpec::new(id, t, SimTime::ZERO, spec.stages().to_vec(), vec![]).unwrap())
            .collect();
        let cfg = ClusterConfig {
            latency: flat_latency(),
            ..Default::default()
        };
        let mut probe = NoopProbe;
        let mut engine = Engine::new(&cfg, &set, specs, &mut probe).unwrap();
        // Slot 1 never arrives; slot 4 arrives and completes.
        for job in [0, 2, 3, 4] {
            assert!(engine.apply(Event::Arrival { job }));
        }
        let gen = |job| TaskRef {
            job,
            stage: StageId(0),
            task: 0,
        };
        engine.dispatch(&Preference {
            regular: vec![],
            llm: vec![gen(ids[4])],
        });
        let (_, finish) = engine.queue.pop().expect("the dispatched task's finish");
        assert!(engine.apply(finish));
        assert!(engine.jobs[4].stage_ready(StageId(1)));
        let exec = |job| TaskRef {
            job,
            stage: StageId(1),
            task: 0,
        };
        engine.dispatch(&Preference {
            regular: vec![exec(ids[4])],
            llm: vec![],
        });
        let (_, finish) = engine.queue.pop().expect("the dispatched task's finish");
        assert!(engine.apply(finish));
        assert!(engine.jobs[4].is_complete());

        for slot in [0, 2, 3] {
            let tr = gen(ids[slot]);
            assert_eq!(engine.validate(&tr, ExecutorClass::Llm), Some(slot));
            assert_eq!(engine.validate(&tr, ExecutorClass::Regular), None);
        }
        let ctx = ActiveJobs::projected(&engine.jobs, &engine.ids, &engine.active);
        assert_eq!(ctx.len(), 3);
        for (pos, slot) in [0, 2, 3].into_iter().enumerate() {
            assert_eq!(ctx.position_of(ids[slot]), Some(pos));
        }
        // Not yet arrived, completed, and absent ids resolve to nothing.
        for id in [ids[1], ids[4], JobId(0), JobId(6), JobId(u64::MAX)] {
            assert_eq!(engine.validate(&gen(id), ExecutorClass::Llm), None, "{id}");
            assert_eq!(ctx.position_of(id), None, "{id}");
        }
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
