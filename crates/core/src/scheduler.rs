//! The uncertainty-aware scheduler — Algorithm 1 of the paper (§IV-D).
//!
//! Exploitation: *Shortest Remaining Time First* over the BN-updated,
//! batching-calibrated remaining-duration estimates. Exploration: *Most
//! Uncertainty Reduction First* over the Eq. 6 scores, computed within
//! **non-overlapping job sets** (jobs whose duration-support intervals
//! overlap are grouped, so exploration never reorders jobs whose relative
//! lengths are already certain). An ε-greedy draw picks between the two
//! lists at each step, and explored stages contribute only a sampled
//! fraction `r` of their tasks (line 15).
//!
//! Two execution paths produce bit-identical schedules:
//!
//! * **incremental** (default) — persistent per-job
//!   [`JobBelief`](crate::belief::JobBelief)s (see [`crate::belief`])
//!   plus two delta-maintained, ready-flagged dense indices: the
//!   SRTF exploitation order and the interval index behind the
//!   non-overlapping grouping. Only jobs whose evidence changed are
//!   re-estimated and repositioned; a full re-key happens only when the
//!   Eq. 2 calibration factor itself moves (rare at saturation, where the
//!   average busy batch pins to the max batch size).
//! * **rebuild** (`incremental = false`) — the original
//!   recompute-everything-per-call reference that equivalence tests and
//!   `scale_throughput` compare against.
//!
//! The ablation variants of §V-C are configuration flags:
//! `use_bn = false` → *LLMSched w/o BN* (static historical means);
//! `use_uncertainty = false` → *LLMSched w/o uncertainty* (pure SRTF on
//! BN estimates).

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use llmsched_bayes::network::Evidence;
use llmsched_dag::ids::{JobId, StageId};
use llmsched_dag::time::SimTime;
use llmsched_sim::incr::{FiniteF64, IndexEntry, ReadyIndex};
use llmsched_sim::scheduler::{Preference, SchedContext, SchedDelta, Scheduler};
use llmsched_sim::state::JobRt;
use llmsched_telemetry::{DecisionList, DecisionRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::belief::BeliefStore;
use crate::estimator::WorkEstimate;
use crate::profiler::Profiler;
use crate::store::{ProfileStore, ProfileStoreConfig, ProfileUpdate};
use crate::uncertainty::{uncertainty_reduction, MiEstimator};

/// LLMSched configuration (defaults follow the paper's sensitivity
/// analysis: a moderate ε and a small task-sampling ratio, §V-D).
#[derive(Debug, Clone)]
pub struct LlmSchedConfig {
    /// Exploration probability ε ∈ [0, 1].
    pub epsilon: f64,
    /// Task sampling ratio r ∈ (0, 1] for explored stages.
    pub sampling_ratio: f64,
    /// Mutual-information estimator for Eq. 6.
    pub mi: MiEstimator,
    /// Use Bayesian posterior updates (false = w/o-BN ablation).
    pub use_bn: bool,
    /// Use the uncertainty-reduction exploration list (false = w/o-
    /// uncertainty ablation, i.e. pure SRTF).
    pub use_uncertainty: bool,
    /// Tail mass trimmed from each side of per-stage posteriors when
    /// forming the non-overlapping-grouping intervals; 0.0 = paper-literal
    /// full supports (see [`crate::estimator::INTERVAL_TAIL_MASS`]).
    pub interval_tail_mass: f64,
    /// Seed for the ε-greedy draws (runs are deterministic).
    pub seed: u64,
    /// Drive the delta-driven incremental core (default). `false` selects
    /// the rebuild-per-call reference path; both produce bit-identical
    /// schedules.
    pub incremental: bool,
    /// Declare the policy work-conserving: `schedule` returns an empty
    /// preference **before any RNG draw or state sync** whenever the
    /// engine reports no startable task
    /// ([`SchedContext::could_dispatch`]), and
    /// [`Scheduler::is_work_conserving`] returns `true`, opting the
    /// policy into the engine's capacity-aware decision-point elision.
    ///
    /// Defaults to `false` because it is **not** RNG-neutral: the stock
    /// merge advances the ε-draw stream even at capacity-starved points
    /// (the fast drain), so flipping this changes which draws later
    /// decisions see — a different (neither better nor worse) schedule.
    /// Golden pins therefore stay on `false`; throughput benches opt in.
    pub work_conserving: bool,
    /// Online-profiling cadence for the scheduler's [`ProfileStore`]:
    /// how often completed-stage observations are folded into new profile
    /// snapshots. The default, [`ProfileUpdate::Frozen`], reproduces the
    /// classic train-once profiler bit-for-bit. (Only consulted by
    /// [`LlmSched::new`]; [`LlmSched::with_store`] keeps the store's own
    /// configuration.)
    pub profile_update: ProfileUpdate,
}

impl Default for LlmSchedConfig {
    fn default() -> Self {
        LlmSchedConfig {
            epsilon: 0.4,
            sampling_ratio: 0.2,
            mi: MiEstimator::default(),
            use_bn: true,
            use_uncertainty: true,
            interval_tail_mass: crate::estimator::INTERVAL_TAIL_MASS,
            seed: 0xC0FFEE,
            incremental: true,
            work_conserving: false,
            profile_update: ProfileUpdate::Frozen,
        }
    }
}

/// Cached per-(job, evidence) analysis (rebuild path only; the incremental
/// path holds [`JobBelief`]s instead).
#[derive(Debug, Clone)]
struct JobAnalysis {
    work: WorkEstimate,
    evidence: Evidence,
    /// Memoized Eq. 6 scores per stage.
    reduction: HashMap<u32, f64>,
}

/// The LLMSched scheduler.
#[derive(Debug)]
pub struct LlmSched {
    store: ProfileStore,
    cfg: LlmSchedConfig,
    rng: StdRng,
    /// Rebuild-path cache keyed by (job, profile version, evidence mask).
    cache: HashMap<(JobId, u64, u64), JobAnalysis>,
    /// Incremental path: persistent per-job beliefs…
    beliefs: BeliefStore,
    /// …the SRTF exploitation order, keyed by (calibrated estimate,
    /// arrival)…
    exploit: ReadyIndex<(FiniteF64, SimTime), ()>,
    /// …and the interval index behind the non-overlapping grouping
    /// (ordered by calibrated lower bound; upper bounds ride inline).
    /// Both carry each job's ready flag (`ready_counts[job].stages > 0`)
    /// inline, so the lazy sources skip non-ready jobs without a lookup.
    intervals: ReadyIndex<FiniteF64, f64>,
    /// The Eq. 2 calibration the persistent keys were computed under; a
    /// moved calibration re-keys everything.
    last_calib: Option<f64>,
    /// Per-job ready-work profiles and their running totals — the exact
    /// lengths of the lazy St/Su sources and the per-class task
    /// availability, maintained by deltas so the merge's RNG stream never
    /// needs a full job scan.
    ready_counts: HashMap<JobId, ReadyProfile>,
    ready_dirty: std::collections::HashSet<JobId>,
    total_ready: ReadyProfile,
    /// Reused buffer for [`BeliefStore::refresh`]'s changed-job list.
    changed_buf: Vec<JobId>,
    /// Reused per-invocation merge scratch (cleared at the top of every
    /// incremental schedule; persisting the capacity keeps the merge
    /// allocation-free at steady state).
    merge_emitted: HashMap<(usize, StageId), usize>,
    st_mat_buf: Vec<StageRef>,
    su_heap_buf: std::collections::BinaryHeap<SuEntry>,
    /// Dirty-set scored frontier: each job's ready-stage list with its
    /// Eq. 6 scores, in `ready_stage_ids` order, persisted across
    /// invocations. A job is re-scored only when a delta actually touched
    /// it — its ready-stage set moved (arrival / stage completion /
    /// reveal / dispatch) or its belief was replaced (evidence mask or
    /// profile version moved, reported by [`BeliefStore::refresh`]);
    /// untouched jobs replay their cached entries straight into the Su
    /// heap without a single memo probe or job scan. Values are the
    /// belief memos' (pure, bit-stable), so the merge — and the schedule
    /// — is bit-identical to scoring from scratch every time.
    frontier: HashMap<JobId, Vec<(StageId, f64)>>,
    /// Decision-provenance collection, flipped by the engine via
    /// [`Scheduler::set_telemetry`]. Observation-only: records are built
    /// from values both paths already computed, so the ε-greedy RNG
    /// stream — and therefore the schedule — is identical either way.
    telemetry: bool,
    /// Records accumulated since the last [`Scheduler::drain_provenance`].
    decisions: Vec<DecisionRecord>,
    name: String,
}

/// Ready-work profile of one job (or the whole active set): how many
/// stages are schedulable and how many unstarted tasks they hold per
/// executor class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct ReadyProfile {
    stages: usize,
    reg_tasks: usize,
    llm_tasks: usize,
}

impl ReadyProfile {
    fn of(job: &JobRt) -> ReadyProfile {
        let mut p = ReadyProfile::default();
        for &s in job.ready_stage_ids() {
            let view = job.stage_view(s).expect("ready stage is visible");
            p.stages += 1;
            let unstarted = view.tasks_unstarted().unwrap_or(0);
            match view.kind {
                llmsched_dag::job::StageKind::Regular => p.reg_tasks += unstarted,
                llmsched_dag::job::StageKind::Llm => p.llm_tasks += unstarted,
                llmsched_dag::job::StageKind::DynamicPlaceholder => {}
            }
        }
        p
    }

    fn add(&mut self, o: ReadyProfile) {
        self.stages += o.stages;
        self.reg_tasks += o.reg_tasks;
        self.llm_tasks += o.llm_tasks;
    }

    fn sub(&mut self, o: ReadyProfile) {
        self.stages -= o.stages;
        self.reg_tasks -= o.reg_tasks;
        self.llm_tasks -= o.llm_tasks;
    }
}

/// One scored exploration candidate in the lazy Su heap: max-heap order is
/// highest Eq. 6 score first, ties broken by smallest (job id, stage id) —
/// exactly the rebuild path's `sort_scored` order.
#[derive(Debug, PartialEq, Eq)]
struct SuEntry {
    score: FiniteF64,
    tie: std::cmp::Reverse<(JobId, StageId)>,
    job_idx: usize,
    stage: StageId,
}

impl Ord for SuEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.score, self.tie).cmp(&(other.score, other.tie))
    }
}

impl PartialOrd for SuEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl LlmSched {
    /// Builds LLMSched from a trained profiler, wrapped in a
    /// [`ProfileStore`] at the [`LlmSchedConfig::profile_update`] cadence
    /// (the default, frozen, is bit-identical to the classic profiler).
    pub fn new(profiler: Profiler, cfg: LlmSchedConfig) -> Self {
        let store = ProfileStore::from_profiler(
            &profiler,
            ProfileStoreConfig {
                update: cfg.profile_update,
                ..ProfileStoreConfig::default()
            },
        );
        LlmSched::with_store(store, cfg)
    }

    /// Builds LLMSched on an explicit [`ProfileStore`] — the online
    /// profiling path (e.g. [`ProfileStore::train`] seeds windows and
    /// sufficient statistics from a retained corpus, or
    /// [`ProfileStore::empty`] cold-starts every app). The store's own
    /// update cadence applies; [`LlmSchedConfig::profile_update`] is
    /// ignored.
    pub fn with_store(store: ProfileStore, cfg: LlmSchedConfig) -> Self {
        let name = match (cfg.use_bn, cfg.use_uncertainty) {
            (true, true) => "LLMSched",
            (false, true) => "LLMSched w/o BN",
            (true, false) => "LLMSched w/o uncertainty",
            (false, false) => "LLMSched w/o BN+uncertainty",
        }
        .to_string();
        let seed = cfg.seed;
        LlmSched {
            store,
            cfg,
            rng: StdRng::seed_from_u64(seed),
            cache: HashMap::new(),
            beliefs: BeliefStore::new(),
            exploit: ReadyIndex::default(),
            intervals: ReadyIndex::default(),
            last_calib: None,
            ready_counts: HashMap::new(),
            ready_dirty: std::collections::HashSet::new(),
            total_ready: ReadyProfile::default(),
            changed_buf: Vec::new(),
            merge_emitted: HashMap::new(),
            st_mat_buf: Vec::new(),
            su_heap_buf: std::collections::BinaryHeap::new(),
            frontier: HashMap::new(),
            telemetry: false,
            decisions: Vec::new(),
            name,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &LlmSchedConfig {
        &self.cfg
    }

    /// The persistent belief store (incremental path).
    pub fn beliefs(&self) -> &BeliefStore {
        &self.beliefs
    }

    /// The profile store the scheduler consults (and, under a non-frozen
    /// cadence, feeds with completed-stage observations).
    pub fn profile_store(&self) -> &ProfileStore {
        &self.store
    }

    // ------------------------------------------------------------------
    // Rebuild path (reference implementation)
    // ------------------------------------------------------------------

    /// Fetches (or computes) the cached analysis for a job. Cache keys
    /// carry the app's profile version, so a snapshot bump naturally
    /// misses and re-derives against the new profile.
    fn analysis(&mut self, job: &JobRt) -> JobAnalysis {
        let version = self.store.version(job.app()).0;
        let Some(profile) = self.store.profile(job.app()) else {
            return JobAnalysis {
                work: WorkEstimate::default(),
                evidence: Evidence::new(),
                reduction: HashMap::new(),
            };
        };
        let mask = profile.evidence_mask(job);
        if let Some(a) = self.cache.get(&(job.id(), version, mask)) {
            return a.clone();
        }
        let evidence = profile.evidence_of(job);
        let work = crate::estimator::remaining_work_with(
            profile,
            job,
            &evidence,
            self.cfg.use_bn,
            self.cfg.interval_tail_mass,
        );
        let a = JobAnalysis {
            work,
            evidence,
            reduction: HashMap::new(),
        };
        self.cache.insert((job.id(), version, mask), a.clone());
        a
    }

    /// Eq. 6 score for a ready stage, memoized per evidence state.
    fn reduction_of(&mut self, job: &JobRt, stage: StageId) -> f64 {
        let version = self.store.version(job.app()).0;
        let (n_stages, mask) = match self.store.profile(job.app()) {
            Some(profile) => (profile.n_stages(), profile.evidence_mask(job)),
            None => return 0.0,
        };
        if stage.index() >= n_stages {
            return 0.0; // generated stages carry no BN variable of their own
        }
        let key = (job.id(), version, mask);
        if let Some(a) = self.cache.get(&key) {
            if let Some(&r) = a.reduction.get(&stage.0) {
                return r;
            }
        }
        let a = self.analysis(job);
        let profile = self.store.profile(job.app()).expect("checked above");
        let r = uncertainty_reduction(profile, job, stage, &a.evidence, self.cfg.mi);
        if let Some(cached) = self.cache.get_mut(&key) {
            cached.reduction.insert(stage.0, r);
        }
        r
    }

    /// Drops cache entries of jobs no longer active (rebuild path's
    /// size-triggered heuristic; the incremental path evicts exactly on
    /// `JobCompleted` instead).
    fn prune_cache(&mut self, ctx: &SchedContext<'_>) {
        if self.cache.len() > 4 * ctx.jobs.len() + 64 {
            // Keep only alive jobs' entries at their app's *current*
            // profile version: under per-completion publishing, stale
            // versions of long-lived jobs would otherwise accumulate for
            // as long as the job runs.
            let alive: HashMap<JobId, u64> = ctx
                .jobs
                .iter()
                .map(|j| (j.id(), self.store.version(j.app()).0))
                .collect();
            self.cache
                .retain(|(id, ver, _), _| alive.get(id) == Some(ver));
        }
    }

    fn schedule_rebuild(&mut self, ctx: &SchedContext<'_>) -> Preference {
        // Fold pending observations into new snapshots first; version-keyed
        // cache entries of bumped apps simply stop being hit.
        let _ = self.store.absorb(ctx.templates);
        self.prune_cache(ctx);
        // Eq. 2 calibration: predicted durations at the backend-reported
        // average busy batch size vs the batch-1 profiling baseline.
        let calib = crate::estimator::batching_calibration(ctx);

        // --- Exploitation list St: stages by job est_rd (lines 1-4). ---
        let mut job_order: Vec<(f64, usize)> = ctx
            .jobs
            .iter()
            .enumerate()
            .map(|(i, j)| (self.analysis(j).work.expected(calib), i))
            .collect();
        job_order.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite estimates")
                .then_with(|| {
                    (ctx.jobs[a.1].arrival(), ctx.jobs[a.1].id())
                        .cmp(&(ctx.jobs[b.1].arrival(), ctx.jobs[b.1].id()))
                })
        });
        let mut st: Vec<StageRef> = Vec::new();
        for &(_, i) in &job_order {
            for &s in ctx.jobs[i].ready_stage_ids() {
                st.push(StageRef {
                    job_idx: i,
                    stage: s,
                });
            }
        }

        // --- Exploration list Su: non-overlapping sets, then most
        //     uncertainty reduction first (lines 5-10). ---
        let mut su: Vec<StageRef> = Vec::new();
        if self.cfg.use_uncertainty {
            let intervals: Vec<(usize, f64, f64)> = ctx
                .jobs
                .iter()
                .enumerate()
                .map(|(i, j)| {
                    let (lo, hi) = self.analysis(j).work.interval(calib);
                    (i, lo, hi)
                })
                .collect();
            for group in non_overlapping_groups(intervals) {
                let mut scored: Vec<(f64, StageRef)> = Vec::new();
                for i in group {
                    for &s in ctx.jobs[i].ready_stage_ids() {
                        let r = self.reduction_of(&ctx.jobs[i], s);
                        scored.push((
                            r,
                            StageRef {
                                job_idx: i,
                                stage: s,
                            },
                        ));
                    }
                }
                sort_scored(&mut scored, ctx);
                su.extend(scored.into_iter().map(|(_, s)| s));
            }
        }

        self.epsilon_merge(ctx, &st, &su)
    }

    // ------------------------------------------------------------------
    // Incremental path
    // ------------------------------------------------------------------

    /// (Re)derives one job's persistent sort keys from its belief; a
    /// newly indexed job takes its ready flag from `ready_counts`.
    fn index_job(&mut self, job: &JobRt, calib: f64) {
        let (srtf, interval) = index_entries(&self.beliefs, &self.ready_counts, job, calib);
        self.exploit.upsert(srtf);
        if self.cfg.use_uncertainty {
            self.intervals.upsert(interval);
        }
    }

    /// Records one job's ready-work profile, flipping its index flags
    /// when its ready/non-ready status moves.
    fn set_ready_profile(&mut self, id: JobId, old: ReadyProfile, new: ReadyProfile) {
        if (old.stages > 0) != (new.stages > 0) {
            self.exploit.set_ready(id, new.stages > 0);
            self.intervals.set_ready(id, new.stages > 0);
        }
        self.total_ready.sub(old);
        self.total_ready.add(new);
    }

    /// Brings the profile store, beliefs, ready-stage counts and both
    /// ordered indices in sync with the context.
    fn sync(&mut self, ctx: &SchedContext<'_>) {
        // Publish any pending observation rows first: bumped apps
        // invalidate exactly their jobs' beliefs (and shared bands).
        for app in self.store.absorb(ctx.templates) {
            self.beliefs.mark_app_dirty(app);
        }
        let calib = crate::estimator::batching_calibration(ctx);
        let mut changed = std::mem::take(&mut self.changed_buf);
        self.beliefs.refresh(
            &self.store,
            ctx,
            self.cfg.use_bn,
            self.cfg.interval_tail_mass,
            &mut changed,
        );
        // A replaced belief cleared its Eq. 6 memos: the job's cached
        // scored frontier is stale with it. (Calibration moves, by
        // contrast, leave the frontier valid — Eq. 6 reductions are
        // calibration-free; only the expected-work keys re-derive below.)
        for id in &changed {
            self.frontier.remove(id);
        }
        if self.last_calib == Some(calib) {
            // Calibration stable: reposition only the jobs whose belief
            // moved (arrivals included — their upsert is the insert).
            for &id in &changed {
                if let Some(job) = ctx.job(id) {
                    self.index_job(job, calib);
                }
            }
        }
        self.changed_buf = changed;
        if self.last_calib != Some(calib) || self.exploit.len() != ctx.jobs.len() {
            // Calibration moved (every persistent key is stale), or the
            // context bypassed the delta stream: rebuild the indices.
            let (beliefs, ready_counts) = (&self.beliefs, &self.ready_counts);
            let entries = |job| index_entries(beliefs, ready_counts, job, calib);
            self.exploit
                .rebuild(ctx.jobs.iter().map(|job| entries(job).0));
            if self.cfg.use_uncertainty {
                self.intervals
                    .rebuild(ctx.jobs.iter().map(|job| entries(job).1));
            } else {
                self.intervals.clear();
            }
            self.last_calib = Some(calib);
        }
        // Ready-work profiles: the exact lengths of the lazy St/Su sources,
        // the per-class availability behind the emission budgets, and the
        // indices' ready flags.
        let mut dirty = std::mem::take(&mut self.ready_dirty);
        for id in dirty.drain() {
            let old = self.ready_counts.get(&id).copied().unwrap_or_default();
            let new = match ctx.job(id) {
                Some(job) => {
                    let p = ReadyProfile::of(job);
                    self.ready_counts.insert(id, p);
                    p
                }
                None => {
                    self.ready_counts.remove(&id);
                    ReadyProfile::default()
                }
            };
            self.set_ready_profile(id, old, new);
        }
        self.ready_dirty = dirty;
        if self.ready_counts.len() != ctx.jobs.len() {
            // Same bypassed-delta-stream safety net for the frontier: the
            // ready-stage sets can no longer be trusted, so drop every
            // cached scoring wholesale.
            self.frontier.clear();
            let stale = std::mem::take(&mut self.ready_counts);
            self.total_ready = ReadyProfile::default();
            for job in &ctx.jobs {
                let p = ReadyProfile::of(job);
                self.ready_counts.insert(job.id(), p);
                let was_ready = stale.get(&job.id()).is_some_and(|o| o.stages > 0);
                if was_ready != (p.stages > 0) {
                    self.exploit.set_ready(job.id(), p.stages > 0);
                    self.intervals.set_ready(job.id(), p.stages > 0);
                }
                self.total_ready.add(p);
            }
        }
        debug_assert!(
            self.exploit
                .entries()
                .iter()
                .all(|e| e.ready == self.ready_counts.get(&e.job).is_some_and(|p| p.stages > 0)),
            "SRTF index ready flags out of sync with the ready-work profiles"
        );
    }

    /// The delta-driven fast path: Algorithm 1 over *lazy* sources.
    ///
    /// Key observation: once both preference lists cover the free capacity
    /// (`regular_free` / `llm_free_slots`), no further entry can start —
    /// so only the consumed prefixes of St and Su need real identities.
    /// The rest of the merge must still *run* (the ε-draw RNG stream
    /// length depends on both list lengths), but it only needs counts,
    /// which the delta-maintained `total_ready` provides without touching
    /// any job. St materializes per-job on demand in the persistent SRTF
    /// order, skipping non-ready entries by their inline flag; Su
    /// materializes per *group* on demand (groups scanned off the
    /// persistent interval index) into a max-heap, so the
    /// most-uncertainty-reduction-first order costs O(pops · log g)
    /// instead of a full per-invocation sort. The group scan still walks
    /// non-ready entries — their intervals can bridge two groups — but
    /// reads nothing beyond the entry itself for them. Everything emitted is
    /// bit-identical to the rebuild path's schedule; the equivalence suite
    /// pins it.
    fn schedule_incremental(&mut self, ctx: &SchedContext<'_>) -> Preference {
        self.sync(ctx);
        let telemetry = self.telemetry;
        let calib = self.last_calib.unwrap_or(1.0);
        let mut rank: u32 = 0;
        // A class is *closed* once its list covers what could possibly
        // start: the free capacity, or everything available when the
        // class has fewer unstarted tasks than capacity.
        let rb = ctx.regular_free().min(self.total_ready.reg_tasks);
        let lb = ctx.llm_free_slots().min(self.total_ready.llm_tasks);
        let st_len = self.total_ready.stages;
        let su_len = if self.cfg.use_uncertainty {
            self.total_ready.stages
        } else {
            0
        };

        // Split field borrows: the lazy sources iterate the persistent
        // indices directly (no per-invocation id snapshots) while scoring
        // updates belief memos and the merge draws from the RNG.
        let LlmSched {
            ref exploit,
            ref intervals,
            ref mut beliefs,
            ref store,
            ref cfg,
            ref mut rng,
            ref mut merge_emitted,
            ref mut st_mat_buf,
            ref mut su_heap_buf,
            ref mut frontier,
            ref mut decisions,
            ..
        } = *self;

        let mut p = Preference::new();
        // Stage -> number of task refs emitted for it during the merge
        // (the tail subtracts these as duplicates).
        let emitted = merge_emitted;
        emitted.clear();
        // Lazy St state: materialized prefix + cursor into the SRTF order.
        let st_mat = st_mat_buf;
        st_mat.clear();
        let mut st_src = exploit.entries().iter().filter(|e| e.ready).map(|e| e.job);
        // Lazy Su state: cursor into the interval order + current group's
        // scored heap.
        let mut iv_src = intervals.entries().iter().peekable();
        let heap = su_heap_buf;
        heap.clear();

        let (mut st_i, mut su_i) = (0usize, 0usize);
        // Set once both budgets are covered: emission (and materialization)
        // stops; only the counters and RNG draws continue.
        let mut satiated = false;
        while st_i < st_len || su_i < su_len {
            let explore = su_i < su_len && (st_i >= st_len || rng.gen::<f64>() <= cfg.epsilon);
            if satiated {
                // Fast drain: emission is over, but the ε-draw stream must
                // advance exactly as the unbounded path's would — one draw
                // per step while both lists remain unexhausted.
                if explore {
                    su_i += 1;
                } else {
                    st_i += 1;
                }
                while st_i < st_len || su_i < su_len {
                    let e = su_i < su_len && (st_i >= st_len || rng.gen::<f64>() <= cfg.epsilon);
                    if e {
                        su_i += 1;
                    } else {
                        st_i += 1;
                    }
                }
                continue;
            }
            let (sref, sample, score) = if explore {
                su_i += 1;
                while heap.is_empty() && iv_src.peek().is_some() {
                    // Materialize the next non-overlapping group: scan the
                    // interval order, merging while lower bounds stay
                    // within the group's running upper bound (exactly
                    // `non_overlapping_groups`), pushing the group's
                    // scored ready-stage frontier onto the heap.
                    let mut cur_hi = f64::NEG_INFINITY;
                    let mut first = true;
                    while let Some(&e) = iv_src.peek() {
                        if !first && e.key.0 > cur_hi {
                            break;
                        }
                        first = false;
                        cur_hi = cur_hi.max(e.val);
                        iv_src.next();
                        // Jobs with no ready stages contribute nothing
                        // but their interval: skip them on the flag.
                        if !e.ready {
                            continue;
                        }
                        let id = e.job;
                        let Some(idx) = ctx.job_index(id) else {
                            continue;
                        };
                        // Dirty-set partial rescoring: a job no delta
                        // touched since its last scoring replays its
                        // persistent (stage, score) frontier straight
                        // into the heap — no job scan, no memo probes.
                        // A miss is scored now and cached. The heap's
                        // order is total (ties break on unique (job,
                        // stage)), so the pops — and with them the ε-draw
                        // consumption — never observe the push order or
                        // which jobs came out of the persistent frontier.
                        let fr = frontier.entry(id).or_insert_with(|| {
                            ctx.jobs[idx]
                                .ready_stage_ids()
                                .iter()
                                .map(|&s| (s, beliefs.reduction(store, cfg.mi, &ctx.jobs[idx], s)))
                                .collect()
                        });
                        for &(s, r) in fr.iter() {
                            heap.push(SuEntry {
                                score: FiniteF64(r),
                                tie: std::cmp::Reverse((id, s)),
                                job_idx: idx,
                                stage: s,
                            });
                        }
                    }
                }
                let popped = heap.pop();
                let score = popped.as_ref().map(|e| e.score.0);
                (
                    popped.map(|e| StageRef {
                        job_idx: e.job_idx,
                        stage: e.stage,
                    }),
                    true,
                    score,
                )
            } else {
                st_i += 1;
                while st_mat.len() < st_i {
                    let Some(id) = st_src.next() else { break };
                    if let Some(i) = ctx.job_index(id) {
                        for &s in ctx.jobs[i].ready_stage_ids() {
                            st_mat.push(StageRef {
                                job_idx: i,
                                stage: s,
                            });
                        }
                    }
                }
                (st_mat.get(st_i - 1).copied(), false, None)
            };
            let Some(s) = sref else {
                debug_assert!(false, "ready-stage count out of sync with the lazy sources");
                continue;
            };
            let key = (s.job_idx, s.stage);
            if emitted.contains_key(&key) {
                continue;
            }
            // During the merge every pushed entry is fresh and startable,
            // so raw list lengths are the startable-entry counts.
            let (closed_reg, closed_llm) = (p.regular.len() >= rb, p.llm.len() >= lb);
            if closed_reg && closed_llm {
                satiated = true;
                continue;
            }
            // Class-aware skip: entries for a closed class can never
            // start, whatever their position.
            let kind = ctx.jobs[s.job_idx].visible_kind(s.stage);
            let skip = match kind {
                Some(llmsched_dag::job::StageKind::Regular) => closed_reg,
                Some(llmsched_dag::job::StageKind::Llm) => closed_llm,
                _ => true,
            };
            if skip {
                emitted.insert(key, 0);
                continue;
            }
            let before = p.len();
            if sample {
                p.push_stage_sample(&ctx.jobs[s.job_idx], s.stage, cfg.sampling_ratio);
            } else {
                p.push_stage_tasks(&ctx.jobs[s.job_idx], s.stage);
            }
            emitted.insert(key, p.len() - before);
            if telemetry {
                let list = if sample {
                    DecisionList::Explore
                } else {
                    DecisionList::Exploit
                };
                decisions.push(provenance_record(
                    beliefs,
                    calib,
                    &ctx.jobs[s.job_idx],
                    s.stage,
                    list,
                    rank,
                    (p.len() - before) as u32,
                    score,
                ));
                rank += 1;
            }
        }

        // Line 21 tail: attach the unsampled remainders in SRTF order. If
        // the budgets were covered during the merge nothing here could
        // start; otherwise St is fully materialized and the tail tracks
        // *fresh* entries (duplicates are skipped by the dispatcher
        // without consuming capacity).
        if !satiated {
            let (mut fresh_reg, mut fresh_llm) = (p.regular.len(), p.llm.len());
            for s in st_mat.iter() {
                if fresh_reg >= rb && fresh_llm >= lb {
                    break;
                }
                let kind = ctx.jobs[s.job_idx].visible_kind(s.stage);
                let skip = match kind {
                    Some(llmsched_dag::job::StageKind::Regular) => fresh_reg >= rb,
                    Some(llmsched_dag::job::StageKind::Llm) => fresh_llm >= lb,
                    _ => true,
                };
                if skip {
                    continue;
                }
                // A merge-emitted stage re-pushes `prior` duplicate refs
                // (the sampled prefix, or everything for exploited
                // stages); only the surplus counts toward capacity.
                let prior = emitted.get(&(s.job_idx, s.stage)).copied().unwrap_or(0);
                let (r0, l0) = (p.regular.len(), p.llm.len());
                p.push_stage_tasks(&ctx.jobs[s.job_idx], s.stage);
                let (dr, dl) = (p.regular.len() - r0, p.llm.len() - l0);
                let fresh = if dr > 0 {
                    dr.saturating_sub(prior)
                } else {
                    dl.saturating_sub(prior)
                };
                if dr > 0 {
                    fresh_reg += fresh;
                } else {
                    fresh_llm += fresh;
                }
                if telemetry && fresh > 0 {
                    decisions.push(provenance_record(
                        beliefs,
                        calib,
                        &ctx.jobs[s.job_idx],
                        s.stage,
                        DecisionList::Tail,
                        rank,
                        fresh as u32,
                        None,
                    ));
                    rank += 1;
                }
            }
        }
        p
    }

    // ------------------------------------------------------------------
    // Shared tail: the ε-greedy merge (lines 11-22)
    // ------------------------------------------------------------------

    /// Implemented as a *biased merge* of the two priority queues: each
    /// draw takes the head of Su with probability ε (attaching only a
    /// sampled fraction r of its tasks) and the head of St otherwise —
    /// the list not drawn keeps its head. (A literal pop-both reading of
    /// Algorithm 1 would demote the best SRTF stage to the tail on every
    /// exploration draw, which measurably hurts every workload; see
    /// DESIGN.md §3 for this documented deviation.) Stages already
    /// emitted via one list are skipped in the other.
    ///
    /// This is the rebuild path's merge; the incremental path runs the
    /// same algorithm over *lazy* sources in `schedule_incremental`.
    fn epsilon_merge(
        &mut self,
        ctx: &SchedContext<'_>,
        st: &[StageRef],
        su: &[StageRef],
    ) -> Preference {
        // Provenance is built from the memoized analyses the list
        // construction above already populated, so collection touches no
        // new state (and the calibration recompute is a pure fold).
        let calib = if self.telemetry {
            crate::estimator::batching_calibration(ctx)
        } else {
            1.0
        };
        let mut rank: u32 = 0;
        let mut p = Preference::new();
        // Stage -> task refs pushed during the merge (0 marks "seen"; the
        // tail subtracts the counts to find fresh remainders).
        let mut emitted: HashMap<(usize, StageId), usize> = HashMap::new();
        let (mut st_i, mut su_i) = (0usize, 0usize);
        while st_i < st.len() || su_i < su.len() {
            let explore =
                su_i < su.len() && (st_i >= st.len() || self.rng.gen::<f64>() <= self.cfg.epsilon);
            if explore {
                let s = su[su_i];
                su_i += 1;
                if let Entry::Vacant(e) = emitted.entry((s.job_idx, s.stage)) {
                    // Explore: sample a fraction r of the uncertain stage's
                    // tasks (line 15); the rest re-attach at the tail below.
                    let before = p.len();
                    p.push_stage_sample(&ctx.jobs[s.job_idx], s.stage, self.cfg.sampling_ratio);
                    e.insert(p.len() - before);
                    if self.telemetry {
                        let score = self.reduction_of(&ctx.jobs[s.job_idx], s.stage);
                        let r = self.record_rebuild(
                            ctx,
                            s,
                            DecisionList::Explore,
                            rank,
                            (p.len() - before) as u32,
                            Some(score),
                            calib,
                        );
                        self.decisions.push(r);
                        rank += 1;
                    }
                }
            } else {
                let s = st[st_i];
                st_i += 1;
                if let Entry::Vacant(e) = emitted.entry((s.job_idx, s.stage)) {
                    // Exploit: all tasks of the SRTF-preferred stage.
                    let before = p.len();
                    p.push_stage_tasks(&ctx.jobs[s.job_idx], s.stage);
                    e.insert(p.len() - before);
                    if self.telemetry {
                        let r = self.record_rebuild(
                            ctx,
                            s,
                            DecisionList::Exploit,
                            rank,
                            (p.len() - before) as u32,
                            None,
                            calib,
                        );
                        self.decisions.push(r);
                        rank += 1;
                    }
                }
            }
        }
        // Line 21: attach all remaining tasks (the unsampled remainders of
        // explored stages) at the end, in SRTF order. Duplicate references
        // are skipped by the dispatcher.
        for s in st {
            let prior = emitted.get(&(s.job_idx, s.stage)).copied().unwrap_or(0);
            let before = p.len();
            p.push_stage_tasks(&ctx.jobs[s.job_idx], s.stage);
            let fresh = (p.len() - before).saturating_sub(prior);
            if self.telemetry && fresh > 0 {
                let r = self.record_rebuild(
                    ctx,
                    *s,
                    DecisionList::Tail,
                    rank,
                    fresh as u32,
                    None,
                    calib,
                );
                self.decisions.push(r);
                rank += 1;
            }
        }
        p
    }

    /// Builds one rebuild-path provenance record from the memoized
    /// per-(job, evidence) analysis cache. `at`/`seq` are stamped by the
    /// engine at drain time.
    #[allow(clippy::too_many_arguments)]
    fn record_rebuild(
        &mut self,
        ctx: &SchedContext<'_>,
        s: StageRef,
        list: DecisionList,
        rank: u32,
        tasks: u32,
        reduction: Option<f64>,
        calib: f64,
    ) -> DecisionRecord {
        let job = &ctx.jobs[s.job_idx];
        let a = self.analysis(job);
        let version = self.store.version(job.app()).0;
        let mask = self
            .store
            .profile(job.app())
            .map(|pr| pr.evidence_mask(job))
            .unwrap_or(0);
        DecisionRecord {
            at: SimTime::ZERO,
            seq: 0,
            job: job.id(),
            stage: s.stage,
            list,
            rank,
            tasks,
            evidence_mask: mask,
            profile_version: version,
            expected_work: a.work.expected(calib),
            interval: a.work.interval(calib),
            reduction,
        }
    }
}

/// One schedulable stage reference with its owning job's index in `jobs`.
#[derive(Debug, Clone, Copy)]
struct StageRef {
    job_idx: usize,
    stage: StageId,
}

/// One job's SRTF (`St`) and interval (`Su`) index entries under the Eq. 2
/// calibration `calib`, flagged ready from `ready_counts`.
fn index_entries(
    beliefs: &BeliefStore,
    ready_counts: &HashMap<JobId, ReadyProfile>,
    job: &JobRt,
    calib: f64,
) -> (
    IndexEntry<(FiniteF64, SimTime), ()>,
    IndexEntry<FiniteF64, f64>,
) {
    let w = beliefs.work(job.id());
    let ready = ready_counts.get(&job.id()).is_some_and(|p| p.stages > 0);
    let (lo, hi) = w.interval(calib);
    (
        IndexEntry {
            key: (FiniteF64(w.expected(calib)), job.arrival()),
            job: job.id(),
            ready,
            val: (),
        },
        IndexEntry {
            key: FiniteF64(lo),
            job: job.id(),
            ready,
            val: hi,
        },
    )
}

/// Builds one incremental-path provenance record from the job's persistent
/// belief — pure reads of state `sync` already materialized. `at`/`seq`
/// are stamped by the engine at drain time.
#[allow(clippy::too_many_arguments)]
fn provenance_record(
    beliefs: &BeliefStore,
    calib: f64,
    job: &JobRt,
    stage: StageId,
    list: DecisionList,
    rank: u32,
    tasks: u32,
    reduction: Option<f64>,
) -> DecisionRecord {
    let (version, mask, work) = match beliefs.get(job.id()) {
        Some(b) => (b.version, b.mask, b.work),
        None => (0, 0, WorkEstimate::default()),
    };
    DecisionRecord {
        at: SimTime::ZERO,
        seq: 0,
        job: job.id(),
        stage,
        list,
        rank,
        tasks,
        evidence_mask: mask,
        profile_version: version,
        expected_work: work.expected(calib),
        interval: work.interval(calib),
        reduction,
    }
}

/// Most-uncertainty-reduction-first ordering within one group (ties by
/// (job id, stage id) so runs are deterministic).
fn sort_scored(scored: &mut [(f64, StageRef)], ctx: &SchedContext<'_>) {
    scored.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .expect("finite reductions")
            .then_with(|| {
                (ctx.jobs[a.1.job_idx].id(), a.1.stage)
                    .cmp(&(ctx.jobs[b.1.job_idx].id(), b.1.stage))
            })
    });
}

/// Groups jobs into non-overlapping sets by their duration-support
/// intervals (Algorithm 1, line 5). Input: `(job index, lo, hi)`.
/// Returns groups ordered by lower bound; within a group the original
/// entries are kept in input order.
fn non_overlapping_groups(mut intervals: Vec<(usize, f64, f64)>) -> Vec<Vec<usize>> {
    intervals.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .expect("finite bounds")
            .then_with(|| a.0.cmp(&b.0))
    });
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut cur_hi = f64::NEG_INFINITY;
    for (idx, lo, hi) in intervals {
        if groups.is_empty() || lo > cur_hi {
            groups.push(vec![idx]);
            cur_hi = hi;
        } else {
            groups.last_mut().expect("non-empty").push(idx);
            cur_hi = cur_hi.max(hi);
        }
    }
    groups
}

impl Scheduler for LlmSched {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_delta(&mut self, d: &SchedDelta) {
        // Observation routing feeds the profile store on *both* execution
        // paths (the store is shared state, not incremental bookkeeping);
        // frozen stores discard the deltas internally.
        self.store.on_delta(d);
        if !self.cfg.incremental {
            return;
        }
        self.beliefs.on_delta(d);
        match d {
            SchedDelta::JobCompleted { job } => {
                self.exploit.remove(*job);
                self.intervals.remove(*job);
                if let Some(c) = self.ready_counts.remove(job) {
                    self.total_ready.sub(c);
                }
                self.ready_dirty.remove(job);
                self.frontier.remove(job);
            }
            // Every event that can change a job's ready-stage set: arrival,
            // stage completion (done flags / predecessor counts), reveals
            // (visibility), and task dispatch (stage exhaustion). Task
            // *finishes* keep running+done constant and never change
            // membership.
            SchedDelta::JobArrived { job, .. }
            | SchedDelta::StageCompleted { job, .. }
            | SchedDelta::StageRevealed { job, .. }
            | SchedDelta::TasksDispatched { job, .. } => {
                self.ready_dirty.insert(*job);
                // The ready-stage set may have moved: the cached scored
                // frontier no longer lists the right candidates.
                self.frontier.remove(job);
            }
            // Pure observations: consumed by the store above, no
            // ready-set or belief change until a snapshot publishes.
            SchedDelta::TasksFinished { .. }
            | SchedDelta::StageObserved { .. }
            | SchedDelta::DynCandidateObserved { .. }
            | SchedDelta::DynEdgeObserved { .. } => {}
        }
    }

    fn reset(&mut self) {
        self.store.reset();
        self.cache.clear();
        self.beliefs.clear();
        self.exploit.clear();
        self.intervals.clear();
        self.last_calib = None;
        self.ready_counts.clear();
        self.ready_dirty.clear();
        self.total_ready = ReadyProfile::default();
        self.frontier.clear();
        self.rng = StdRng::seed_from_u64(self.cfg.seed);
        self.decisions.clear();
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Preference {
        if ctx.dispatchable == 0 {
            // Nothing could start, so Algorithm 1 would emit nothing and
            // draw nothing (every ready set is empty, so the ε-merge runs
            // zero steps). Deferring the profile absorb / belief sync to
            // the next real decision point folds the same observations
            // into the same posteriors — it keeps this call an exact
            // no-op, so a coalescing engine that skips it entirely stays
            // bit-identical. Pinned by the coalescing equivalence suite.
            return Preference::new();
        }
        if self.cfg.work_conserving && !ctx.could_dispatch {
            // Work-conserving mode: ready tasks exist but no executor of
            // a ready class is free, so nothing emitted here could start.
            // Return before any RNG draw or state sync — the empty-handed
            // merge would otherwise advance the ε-draw stream (the fast
            // drain) — making this call an exact no-op that the engine's
            // capacity-aware elision can skip wholesale. The predicate is
            // engine-computed (same bit the elision branch tests), so the
            // two sides can never disagree; pinned by the elision
            // equivalence suite.
            return Preference::new();
        }
        if self.cfg.incremental {
            self.schedule_incremental(ctx)
        } else {
            self.schedule_rebuild(ctx)
        }
    }

    fn set_telemetry(&mut self, enabled: bool) {
        self.telemetry = enabled;
        self.decisions.clear();
    }

    fn is_work_conserving(&self) -> bool {
        self.cfg.work_conserving
    }

    fn drain_provenance(&mut self, out: &mut Vec<DecisionRecord>) {
        out.append(&mut self.decisions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{Profiler, ProfilerConfig};
    use llmsched_sim::engine::simulate;
    use llmsched_workloads::prelude::*;

    fn trained_profiler(kinds: &[AppKind]) -> Profiler {
        let templates = all_templates();
        let corpus = training_jobs(kinds, 200, 31);
        Profiler::train(&templates, &corpus, &ProfilerConfig::default())
    }

    #[test]
    fn non_overlapping_grouping_merges_touching_intervals() {
        let groups = non_overlapping_groups(vec![
            (0, 0.0, 2.0),
            (1, 1.0, 3.0),
            (2, 5.0, 6.0),
            (3, 5.5, 5.7),
            (4, 10.0, 11.0),
        ]);
        assert_eq!(groups, vec![vec![0, 1], vec![2, 3], vec![4]]);
    }

    #[test]
    fn single_interval_is_one_group() {
        assert_eq!(non_overlapping_groups(vec![(7, 1.0, 2.0)]), vec![vec![7]]);
        assert!(non_overlapping_groups(vec![]).is_empty());
    }

    #[test]
    fn llmsched_completes_small_mixed_workload() {
        let profiler = trained_profiler(&AppKind::ALL);
        let mut sched = LlmSched::new(profiler, LlmSchedConfig::default());
        let w = generate_workload(WorkloadKind::Mixed, 30, 0.9, 17);
        let cfg = WorkloadKind::Mixed.default_cluster();
        let r = simulate(&cfg, &w.templates, w.jobs, &mut sched);
        assert_eq!(r.incomplete, 0, "all jobs must complete");
        assert_eq!(r.scheduler, "LLMSched");
        assert!(r.avg_jct_secs() > 0.0);
    }

    #[test]
    fn incremental_is_bit_identical_to_rebuild() {
        let run = |incremental: bool, kind: WorkloadKind| {
            let profiler = trained_profiler(&AppKind::ALL);
            let cfg = LlmSchedConfig {
                incremental,
                ..LlmSchedConfig::default()
            };
            let mut sched = LlmSched::new(profiler, cfg);
            let w = generate_workload(kind, 25, 0.9, 61);
            simulate(&kind.default_cluster(), &w.templates, w.jobs, &mut sched)
        };
        for kind in [WorkloadKind::Mixed, WorkloadKind::Planning] {
            let inc = run(true, kind);
            let reb = run(false, kind);
            assert_eq!(inc.events, reb.events, "{}: events", kind.name());
            assert_eq!(inc.makespan, reb.makespan, "{}: makespan", kind.name());
            let key = |r: &llmsched_sim::metrics::SimResult| {
                let mut v: Vec<_> = r.jobs.iter().map(|j| (j.id, j.completion)).collect();
                v.sort();
                v
            };
            assert_eq!(key(&inc), key(&reb), "{}: completions", kind.name());
        }
    }

    #[test]
    fn ablation_variants_complete_and_are_named() {
        let w = generate_workload(WorkloadKind::Planning, 20, 0.9, 23);
        let cluster = WorkloadKind::Planning.default_cluster();
        for (use_bn, use_unc, name) in [
            (false, true, "LLMSched w/o BN"),
            (true, false, "LLMSched w/o uncertainty"),
        ] {
            let profiler = trained_profiler(&[AppKind::TaskAutomation, AppKind::LlmCompiler]);
            let cfg = LlmSchedConfig {
                use_bn,
                use_uncertainty: use_unc,
                ..LlmSchedConfig::default()
            };
            let mut sched = LlmSched::new(profiler, cfg);
            assert_eq!(sched.name(), name);
            let r = simulate(
                &cluster,
                &w.templates,
                generate_workload(WorkloadKind::Planning, 20, 0.9, 23).jobs,
                &mut sched,
            );
            assert_eq!(r.incomplete, 0, "{name} must complete all jobs");
        }
    }

    #[test]
    fn same_seed_is_deterministic() {
        let run = || {
            let profiler = trained_profiler(&[AppKind::CodeGeneration, AppKind::WebSearch]);
            let mut sched = LlmSched::new(profiler, LlmSchedConfig::default());
            let w = generate_workload(WorkloadKind::ChainLike, 25, 0.9, 41);
            let cfg = WorkloadKind::ChainLike.default_cluster();
            simulate(&cfg, &w.templates, w.jobs, &mut sched)
        };
        let a = run();
        let b = run();
        assert_eq!(a.avg_jct_secs(), b.avg_jct_secs());
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn scheduler_instance_is_reusable_across_runs() {
        // The engine resets persistent state at simulation start, so one
        // instance must reproduce a fresh instance's schedule.
        let profiler = trained_profiler(&[AppKind::CodeGeneration, AppKind::WebSearch]);
        let mut sched = LlmSched::new(profiler, LlmSchedConfig::default());
        let cfg = WorkloadKind::ChainLike.default_cluster();
        let run = |s: &mut LlmSched| {
            let w = generate_workload(WorkloadKind::ChainLike, 20, 0.9, 41);
            simulate(&cfg, &w.templates, w.jobs, s)
        };
        let a = run(&mut sched);
        let b = run(&mut sched);
        assert_eq!(a.avg_jct_secs(), b.avg_jct_secs());
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn epsilon_zero_equals_no_uncertainty_variant() {
        // With ε = 0 the exploration list is never drawn from, so the
        // schedule must match the w/o-uncertainty ablation exactly.
        let run = |cfg: LlmSchedConfig| {
            let profiler = trained_profiler(&AppKind::ALL);
            let w = generate_workload(WorkloadKind::Mixed, 25, 0.9, 53);
            let cluster = WorkloadKind::Mixed.default_cluster();
            simulate(
                &cluster,
                &w.templates,
                w.jobs,
                &mut LlmSched::new(profiler, cfg),
            )
        };
        let eps0 = run(LlmSchedConfig {
            epsilon: 0.0,
            ..Default::default()
        });
        let wo = run(LlmSchedConfig {
            use_uncertainty: false,
            ..Default::default()
        });
        assert!((eps0.avg_jct_secs() - wo.avg_jct_secs()).abs() < 1e-9);
    }
}
