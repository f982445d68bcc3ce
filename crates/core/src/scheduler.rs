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
//! Both execution paths run the one ε-greedy merge (`Merge`, lines
//! 11-22) and produce bit-identical schedules. They differ only in the
//! St and Su sources they hand it and in the per-class cut-off:
//!
//! * **incremental** (default) — lazy sources over persistent per-job
//!   [`JobBelief`](crate::belief::JobBelief)s (see [`crate::belief`]) and
//!   two delta-maintained dense indices: the SRTF order over the ready
//!   jobs only, and the ready-flagged interval index over every job
//!   behind the non-overlapping grouping. Only jobs whose evidence
//!   changed are re-estimated and repositioned; when the Eq. 2
//!   calibration factor itself moves (about 1% of calls at benchmark
//!   concurrency), both indices re-key their own entries in place and
//!   sort once. Eq. 6 scores are computed only for exploration groups
//!   with two or more candidates, where they decide an order (and, on a
//!   probed run, for the records of explored lone candidates). The
//!   cut-off is the startable capacity, so emission stops once nothing
//!   more could start.
//! * **rebuild** (`incremental = false`) — the recompute-everything-per-
//!   call reference that equivalence tests and `scale_throughput` compare
//!   against: fully sorted lists and no cut-off.
//!
//! The ablation variants of §V-C are configuration flags:
//! `use_bn = false` → *LLMSched w/o BN* (static historical means);
//! `use_uncertainty = false` → *LLMSched w/o uncertainty* (pure SRTF on
//! BN estimates).

use std::collections::BinaryHeap;

use llmsched_bayes::network::Evidence;
use llmsched_dag::hash::FxHashMap;
use llmsched_dag::ids::{JobId, StageId};
use llmsched_dag::job::StageKind;
use llmsched_dag::time::SimTime;
use llmsched_sim::incr::{FiniteF64, IndexEntry, ReadyIndex};
use llmsched_sim::scheduler::{ActiveJobs, Preference, SchedContext, SchedDelta, Scheduler};
use llmsched_sim::state::JobRt;
use llmsched_telemetry::{DecisionList, DecisionRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::belief::BeliefStore;
use crate::estimator::WorkEstimate;
use crate::profiler::Profiler;
use crate::store::ProfileStore;
use crate::uncertainty::uncertainty_reduction;

/// LLMSched configuration (defaults follow the paper's sensitivity
/// analysis: a moderate ε and a small task-sampling ratio, §V-D).
#[derive(Debug, Clone)]
pub struct LlmSchedConfig {
    /// Exploration probability ε ∈ [0, 1].
    pub epsilon: f64,
    /// Task sampling ratio r ∈ (0, 1] for explored stages.
    pub sampling_ratio: f64,
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
}

impl Default for LlmSchedConfig {
    fn default() -> Self {
        LlmSchedConfig {
            epsilon: 0.4,
            sampling_ratio: 0.2,
            use_bn: true,
            use_uncertainty: true,
            interval_tail_mass: crate::estimator::INTERVAL_TAIL_MASS,
            seed: 0xC0FFEE,
            incremental: true,
            work_conserving: false,
        }
    }
}

/// Why an [`LlmSchedConfig`] was rejected: each variant names the field
/// at fault and carries its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LlmSchedConfigError {
    /// `epsilon` is NaN or outside [0, 1].
    Epsilon(f64),
    /// `sampling_ratio` is NaN or outside (0, 1].
    SamplingRatio(f64),
    /// `interval_tail_mass` is NaN or outside [0, 0.5).
    IntervalTailMass(f64),
}

impl std::fmt::Display for LlmSchedConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LlmSchedConfigError::Epsilon(v) => {
                write!(f, "epsilon is {v}: must be a probability in [0, 1]")
            }
            LlmSchedConfigError::SamplingRatio(v) => {
                write!(f, "sampling_ratio is {v}: must be in (0, 1]")
            }
            LlmSchedConfigError::IntervalTailMass(v) => write!(
                f,
                "interval_tail_mass is {v}: must be in [0, 0.5) so each side keeps some mass"
            ),
        }
    }
}

impl std::error::Error for LlmSchedConfigError {}

impl LlmSchedConfig {
    /// Checks the numeric fields Algorithm 1 relies on.
    ///
    /// # Errors
    /// The first [`LlmSchedConfigError`] found: an `epsilon` outside
    /// [0, 1], a `sampling_ratio` outside (0, 1], or an
    /// `interval_tail_mass` outside [0, 0.5). NaN fails every range.
    pub fn validate(&self) -> Result<(), LlmSchedConfigError> {
        if !(0.0..=1.0).contains(&self.epsilon) {
            return Err(LlmSchedConfigError::Epsilon(self.epsilon));
        }
        if !(self.sampling_ratio > 0.0 && self.sampling_ratio <= 1.0) {
            return Err(LlmSchedConfigError::SamplingRatio(self.sampling_ratio));
        }
        if !(0.0..0.5).contains(&self.interval_tail_mass) {
            return Err(LlmSchedConfigError::IntervalTailMass(
                self.interval_tail_mass,
            ));
        }
        Ok(())
    }
}

/// Cached per-(job, evidence) analysis (rebuild path only; the incremental
/// path holds [`JobBelief`]s instead).
#[derive(Debug, Clone)]
struct JobAnalysis {
    work: WorkEstimate,
    evidence: Evidence,
    /// Memoized Eq. 6 scores per stage.
    reduction: FxHashMap<u32, f64>,
}

/// The LLMSched scheduler.
#[derive(Debug)]
pub struct LlmSched {
    store: ProfileStore,
    cfg: LlmSchedConfig,
    merge: Merge,
    /// Rebuild-path cache keyed by (job, profile version, evidence mask).
    cache: FxHashMap<(JobId, u64, u64), JobAnalysis>,
    /// Incremental path: one record per active job — belief (with its
    /// memoized Eq. 6 scores) and ready-stage count (with the running
    /// total that sizes the lazy St/Su sources)…
    beliefs: BeliefStore,
    /// …the SRTF exploitation order over exactly the jobs with ready
    /// stages, keyed by (calibrated estimate, arrival) — Algorithm 1
    /// emits nothing for the others, so St never walks them…
    exploit: ReadyIndex<(FiniteF64, SimTime), ()>,
    /// …and the interval index behind the non-overlapping grouping over
    /// every job (ordered by calibrated lower bound), since a non-ready
    /// job's interval can still bridge two groups. Each entry carries the
    /// job's ready flag (the record's ready-stage count is positive), so
    /// the Su scan skips non-ready jobs without a lookup, and a [`Span`]:
    /// the calibrated upper bound the scan reads, and the job's
    /// calibration-free bound parts, from which a calibration move
    /// re-keys the entry where it stands, without a belief lookup.
    intervals: ReadyIndex<FiniteF64, Span>,
    /// The Eq. 2 calibration the persistent keys were computed under; a
    /// moved calibration re-keys both indices.
    last_calib: Option<f64>,
    /// The incremental Su source's reused heap (cleared per invocation).
    su_heap_buf: BinaryHeap<SuEntry>,
    /// Decision-provenance collection, flipped by the engine via
    /// [`Scheduler::set_telemetry`]. Observation-only: records are built
    /// from values both paths already computed, so the ε-greedy RNG
    /// stream — and therefore the schedule — is identical either way.
    telemetry: bool,
    /// Records accumulated since the last [`Scheduler::drain_provenance`].
    decisions: Vec<DecisionRecord>,
    name: String,
}

/// Panics at construction on a config [`LlmSchedConfig::validate`]
/// rejects, before any decision can trip over it.
fn check(cfg: &LlmSchedConfig) {
    if let Err(e) = cfg.validate() {
        panic!("invalid LlmSchedConfig: {e}");
    }
}

/// One exploration candidate in the lazy Su heap: max-heap order is
/// highest Eq. 6 score first, ties broken by smallest (job id, stage id) —
/// exactly the rebuild path's `sort_scored` order. The tie is unique, so
/// the derived order never reaches the trailing fields. A group's lone
/// candidate is the heap's only entry and goes on unscored (`None`).
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct SuEntry {
    score: Option<FiniteF64>,
    tie: std::cmp::Reverse<(JobId, StageId)>,
    job_idx: usize,
    stage: StageId,
}

impl LlmSched {
    /// Builds LLMSched from a trained profiler, wrapped in a
    /// [`ProfileStore::frozen`] store: the classic train-once profiler.
    ///
    /// # Panics
    /// Panics with the field's [`LlmSchedConfigError`] if
    /// [`LlmSchedConfig::validate`] rejects `cfg`.
    pub fn new(profiler: Profiler, cfg: LlmSchedConfig) -> Self {
        LlmSched::with_store(ProfileStore::frozen(&profiler), cfg)
    }

    /// Builds LLMSched on an explicit [`ProfileStore`] — the online
    /// profiling path ([`ProfileStore::train`] seeds windows and
    /// sufficient statistics from a retained corpus;
    /// [`ProfileStore::empty`] cold-starts every app). The store's own
    /// update cadence applies.
    ///
    /// # Panics
    /// Panics with the field's [`LlmSchedConfigError`] if
    /// [`LlmSchedConfig::validate`] rejects `cfg`.
    pub fn with_store(store: ProfileStore, cfg: LlmSchedConfig) -> Self {
        check(&cfg);
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
            merge: Merge::new(seed),
            cache: FxHashMap::default(),
            beliefs: BeliefStore::new(),
            exploit: ReadyIndex::default(),
            intervals: ReadyIndex::default(),
            last_calib: None,
            su_heap_buf: BinaryHeap::new(),
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
                reduction: FxHashMap::default(),
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
            reduction: FxHashMap::default(),
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
        let r = uncertainty_reduction(profile, job, stage, &a.evidence);
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
            let alive: FxHashMap<JobId, u64> = ctx
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
        let st_len = ctx.jobs.iter().map(|j| j.ready_stage_ids().len()).sum();

        // --- Exploration list Su: non-overlapping sets, then most
        //     uncertainty reduction first (lines 5-10). ---
        let mut su: Vec<(f64, StageRef)> = Vec::new();
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
                let start = su.len();
                for i in group {
                    for &stage in ctx.jobs[i].ready_stage_ids() {
                        let r = self.reduction_of(&ctx.jobs[i], stage);
                        su.push((r, StageRef { job_idx: i, stage }));
                    }
                }
                sort_scored(&mut su[start..], ctx);
            }
        }

        let from = self.decisions.len();
        let p = self.merge.run(
            ctx,
            &self.cfg,
            (
                st_len,
                ready_stages(ctx.jobs, job_order.iter().map(|&(_, i)| i)),
            ),
            (su.len(), su.iter().map(|&(r, s)| (Some(r), s))),
            (usize::MAX, usize::MAX),
            self.telemetry.then_some(&mut self.decisions),
        );
        // Provenance reads the analyses the lists above memoized.
        let (store, cache) = (&self.store, &self.cache);
        annotate(&mut self.decisions[from..], ctx, calib, |job| {
            let version = store.version(job.app()).0;
            let mask = store
                .profile(job.app())
                .map_or(0, |pr| pr.evidence_mask(job));
            let work = cache
                .get(&(job.id(), version, mask))
                .map_or_else(WorkEstimate::default, |a| a.work);
            (version, mask, work)
        });
        p
    }

    // ------------------------------------------------------------------
    // Incremental path
    // ------------------------------------------------------------------

    /// Brings the profile store, the job records and both ordered
    /// indices in sync with the context.
    fn sync(&mut self, ctx: &SchedContext<'_>) {
        // Publish any pending observation rows first: bumped apps
        // invalidate exactly their jobs' beliefs (and shared bands).
        for app in self.store.absorb(ctx.templates) {
            self.beliefs.mark_app_dirty(app);
        }
        let calib = crate::estimator::batching_calibration(ctx);
        let rebuilt = self.beliefs.refresh(
            &self.store,
            ctx,
            self.cfg.use_bn,
            self.cfg.interval_tail_mass,
        );
        let use_uncertainty = self.cfg.use_uncertainty;
        let beliefs = &self.beliefs;
        let mut rebuild = rebuilt;
        if !rebuild {
            // The SRTF index follows the ready set: a job that turned
            // ready enters, one whose belief moved while ready is
            // re-keyed, one that stopped being ready leaves. The interval
            // index re-keys every moved belief (arrivals included — their
            // upsert is the insert, flagged from the record) and flips the
            // flags whose ready status moved (an upsert keeps an existing
            // entry's flag).
            for &(id, moved, was_ready, ready) in beliefs.touched() {
                let Some(job) = ctx.job(id) else { continue };
                if ready && (moved || !was_ready) {
                    self.exploit.upsert(srtf_entry(beliefs, job, calib));
                } else if was_ready && !ready {
                    self.exploit.remove(id);
                }
                if use_uncertainty {
                    if moved {
                        self.intervals.upsert(interval_entry(beliefs, job, calib));
                    }
                    if was_ready != ready {
                        self.intervals.set_ready(id, ready);
                    }
                }
            }
            rebuild = self.exploit.len() != beliefs.ready_jobs()
                || (use_uncertainty && self.intervals.len() != ctx.jobs.len());
            debug_assert!(!rebuild, "delta-fed indices needed the safety net");
        }
        if !rebuild && self.last_calib != Some(calib) {
            // Calibration moved: every persistent key is stale, but each
            // index already holds exactly the right jobs. Re-key them where
            // they stand — the SRTF index from its (few) jobs' beliefs,
            // the interval index from its entries' own bound parts — and
            // sort once.
            self.exploit.rekey_all(|e| {
                let est = FiniteF64(beliefs.work(e.job).expected(calib));
                ((est, e.key.1), ())
            });
            if use_uncertainty {
                self.intervals
                    .rekey_all(|e| Span::keyed(e.val.lo_parts, e.val.hi_parts, calib));
                debug_assert!(
                    {
                        let mut fresh = ReadyIndex::default();
                        fresh.rebuild(
                            ctx.jobs
                                .iter()
                                .map(|job| interval_entry(beliefs, job, calib)),
                        );
                        fresh.entries() == self.intervals.entries()
                    },
                    "an in-place re-key differs from a from-scratch interval index"
                );
            }
        }
        if rebuild {
            // The context bypassed the delta stream: rebuild the indices
            // from the context, the SRTF one from the ready jobs alone.
            self.exploit.rebuild(
                ctx.jobs
                    .iter()
                    .filter(|job| beliefs.is_ready(job.id()))
                    .map(|job| srtf_entry(beliefs, job, calib)),
            );
            if use_uncertainty {
                self.intervals.rebuild(
                    ctx.jobs
                        .iter()
                        .map(|job| interval_entry(beliefs, job, calib)),
                );
            } else {
                self.intervals.clear();
            }
        }
        self.last_calib = Some(calib);
        debug_assert!(
            self.exploit.len() == beliefs.ready_jobs()
                && self
                    .exploit
                    .entries()
                    .iter()
                    .all(|e| beliefs.is_ready(e.job)),
            "SRTF index does not hold exactly the ready jobs"
        );
        debug_assert!(
            !use_uncertainty
                || self.intervals.entries().iter().filter(|e| e.ready).count()
                    == beliefs.ready_jobs()
                    && self
                        .intervals
                        .entries()
                        .iter()
                        .all(|e| e.ready == beliefs.is_ready(e.job)),
            "interval index ready flags out of sync with the job records"
        );
    }

    /// The delta-driven fast path: Algorithm 1 over *lazy* sources.
    ///
    /// Key observation: once both preference lists cover the free capacity
    /// (`regular_free` / `llm_free_slots`), no further entry can start —
    /// so only the consumed prefixes of St and Su need real identities.
    /// The merge must still *run* to the end (the ε-draw RNG stream length
    /// depends on both list lengths), but past the cut-off it only needs
    /// counts, which the records' running ready-stage total provides
    /// without touching any job. St materializes per job on demand in the
    /// persistent SRTF order, which holds only ready jobs; Su materializes
    /// per *group* on demand (groups scanned off the persistent interval
    /// index) into a max-heap, so the most-uncertainty-reduction-first
    /// order costs O(pops · log g) instead of a full per-invocation sort.
    /// While two or more ready jobs are still off the heap, the group scan
    /// walks non-ready entries too — their intervals can bridge two groups
    /// — but reads nothing beyond the entry itself for them. It stops once
    /// every ready job's frontier is on the heap, and the last one is
    /// pushed alone: no other ready job can share its group, so no
    /// bridging can change the order. With one ready job in all, the SRTF
    /// index names it and the interval index is not walked at all.
    ///
    /// Eq. 6 scores only order stages within a group, so a group whose
    /// frontier is a single (job, stage) goes on the heap unscored — at
    /// benchmark concurrency that is almost every call. The merge reads a
    /// Su score only for provenance; with telemetry on, an explored
    /// unscored candidate is scored when its record is written, through
    /// the same memo, so records carry the eager path's bits. Everything
    /// emitted is bit-identical to the rebuild path's schedule; the
    /// equivalence suite pins it.
    fn schedule_incremental(&mut self, ctx: &SchedContext<'_>) -> Preference {
        self.sync(ctx);
        let calib = self.last_calib.unwrap_or(1.0);
        // A class is *closed* once its list covers what could possibly
        // start: the free capacity, or everything available when the
        // class has fewer unstarted tasks than capacity
        // ([`SchedContext::dispatchable_regular`] /
        // [`SchedContext::dispatchable_llm`]).
        let cut = (
            ctx.regular_free().min(ctx.dispatchable_regular),
            ctx.llm_free_slots().min(ctx.dispatchable_llm),
        );
        let st_len = self.beliefs.ready_stages();
        let su_len = if self.cfg.use_uncertainty { st_len } else { 0 };

        // Split field borrows: the lazy sources iterate the persistent
        // indices directly (no per-invocation id snapshots) while scoring
        // updates belief memos and the merge draws from the RNG.
        let LlmSched {
            ref exploit,
            ref intervals,
            ref mut beliefs,
            ref store,
            ref cfg,
            ref mut merge,
            ref mut su_heap_buf,
            ref mut decisions,
            telemetry,
            ..
        } = *self;
        let st = ready_stages(
            ctx.jobs,
            exploit
                .entries()
                .iter()
                .filter_map(|e| ctx.job_index(e.job)),
        );
        // Lazy Su state: cursor into the interval order, the ready jobs
        // not yet on the heap, and the current group's heap. With one
        // ready job, the SRTF index (exactly the ready jobs) names it.
        let mut iv = intervals.entries().iter().peekable();
        let mut su_ready = beliefs.ready_jobs();
        let mut sole = match exploit.entries() {
            [e] => Some(e.job),
            _ => None,
        };
        let heap = su_heap_buf;
        heap.clear();
        let su = std::iter::from_fn(|| {
            while heap.is_empty() && su_ready > 0 && iv.peek().is_some() {
                // The group's first ready job is held back until a second
                // one shows that Eq. 6 has an order to decide.
                let mut held = None;
                if su_ready == 1 {
                    // The last ready job forms its group's whole frontier:
                    // take it without tracking bounds.
                    held = sole.take().or_else(|| iv.find(|e| e.ready).map(|e| e.job));
                    su_ready = 0;
                } else {
                    // Materialize the next non-overlapping group: scan the
                    // interval order, merging while lower bounds stay
                    // within the group's running upper bound (exactly
                    // `non_overlapping_groups`), pushing the group's
                    // ready-stage frontier onto the heap.
                    let mut cur_hi = f64::NEG_INFINITY;
                    let mut first = true;
                    while let Some(&e) = iv.peek() {
                        if !first && e.key.0 > cur_hi {
                            break;
                        }
                        first = false;
                        cur_hi = cur_hi.max(e.val.hi);
                        iv.next();
                        // Jobs with no ready stages contribute nothing but
                        // their interval: skip them on the flag. Past the
                        // last ready job the group adds nothing more.
                        if !e.ready {
                            continue;
                        }
                        if let Some(h) = held.take() {
                            push_frontier(heap, beliefs, store, ctx, h, false);
                        }
                        if heap.is_empty() {
                            held = Some(e.job);
                        } else {
                            push_frontier(heap, beliefs, store, ctx, e.job, false);
                        }
                        su_ready -= 1;
                        if su_ready == 0 {
                            break;
                        }
                    }
                }
                if let Some(h) = held {
                    push_frontier(heap, beliefs, store, ctx, h, true);
                }
            }
            heap.pop().map(|e| {
                let s = StageRef {
                    job_idx: e.job_idx,
                    stage: e.stage,
                };
                (e.score.map(|r| r.0), s)
            })
        });

        let from = decisions.len();
        let p = merge.run(
            ctx,
            cfg,
            (st_len, st),
            (su_len, su),
            cut,
            telemetry.then_some(&mut *decisions),
        );
        // An explored lone candidate went on the heap unscored: its
        // record gets the score the eager path would have memoized.
        for d in &mut decisions[from..] {
            if d.list == DecisionList::Explore && d.reduction.is_none() {
                let job = ctx.job(d.job).expect("records name active jobs");
                d.reduction = Some(beliefs.reduction(store, job, d.stage));
            }
        }
        annotate(&mut decisions[from..], ctx, calib, |job| {
            match beliefs.get(job.id()) {
                Some(b) => (b.version, b.mask, b.work),
                None => (0, 0, WorkEstimate::default()),
            }
        });
        p
    }
}

/// Algorithm 1's ε-greedy merge of St and Su (lines 11-22), with its
/// persistent state: the ε-draw stream, and scratch whose capacity
/// persists so the merge stays allocation-free at steady state.
#[derive(Debug)]
struct Merge {
    rng: StdRng,
    /// Stage -> task refs pushed for it during the merge (0 marks a stage
    /// consumed without emission); the tail subtracts them as duplicates.
    emitted: FxHashMap<(usize, StageId), usize>,
    /// The St prefix the merge consumed, which the tail walks again.
    st: Vec<StageRef>,
}

impl Merge {
    fn new(seed: u64) -> Self {
        Merge {
            rng: StdRng::seed_from_u64(seed),
            emitted: FxHashMap::default(),
            st: Vec::new(),
        }
    }

    /// Merges St and Su as a *biased merge* of two priority queues: each
    /// draw takes the head of Su with probability ε (attaching only a
    /// sampled fraction r of its tasks) and the head of St otherwise —
    /// the list not drawn keeps its head. (A literal pop-both reading of
    /// Algorithm 1 would demote the best SRTF stage to the tail on every
    /// exploration draw, which measurably hurts every workload; see
    /// DESIGN.md §3 for this documented deviation.) Stages already
    /// emitted via one list are skipped in the other, and the tail (line
    /// 21) attaches the unsampled remainders in SRTF order.
    ///
    /// Each source is its length and its entries in list order; Su
    /// entries carry their Eq. 6 score, or `None` where the source left a
    /// candidate that ordered nothing unscored. `cut` caps the (regular, LLM)
    /// entries that could start: an entry for a class whose list covers
    /// its cut is skipped, and once both are covered emission stops while
    /// the draws run on, so the ε-draw stream advances exactly as without
    /// a cut. `(usize::MAX, usize::MAX)` never skips.
    ///
    /// With `log`, one [`DecisionRecord`] per emission is appended,
    /// ranked in emission order; its posterior fields are left for
    /// [`annotate`].
    fn run(
        &mut self,
        ctx: &SchedContext<'_>,
        cfg: &LlmSchedConfig,
        (st_len, mut st_src): (usize, impl Iterator<Item = StageRef>),
        (su_len, mut su_src): (usize, impl Iterator<Item = (Option<f64>, StageRef)>),
        (rb, lb): (usize, usize),
        mut log: Option<&mut Vec<DecisionRecord>>,
    ) -> Preference {
        let Merge { rng, emitted, st } = self;
        emitted.clear();
        st.clear();
        let mut rank = 0u32;
        let mut note = |s: StageRef, list, tasks: usize, reduction| {
            if let Some(out) = log.as_deref_mut() {
                out.push(DecisionRecord {
                    at: SimTime::ZERO,
                    seq: 0,
                    job: ctx.jobs[s.job_idx].id(),
                    stage: s.stage,
                    list,
                    rank,
                    tasks: tasks as u32,
                    evidence_mask: 0,
                    profile_version: 0,
                    expected_work: 0.0,
                    interval: (0.0, 0.0),
                    reduction,
                });
                rank += 1;
            }
        };
        let mut p = Preference::new();
        let (mut st_i, mut su_i) = (0usize, 0usize);
        // Set once both lists cover their cut: only the counters and the
        // draws continue.
        let mut satiated = false;
        while st_i < st_len || su_i < su_len {
            let explore = su_i < su_len && (st_i >= st_len || rng.gen::<f64>() <= cfg.epsilon);
            let next = if explore {
                su_i += 1;
                if satiated {
                    continue;
                }
                su_src.next().map(|(r, s)| (s, r))
            } else {
                st_i += 1;
                if satiated {
                    continue;
                }
                st_src.next().map(|s| {
                    st.push(s);
                    (s, None)
                })
            };
            let Some((s, score)) = next else {
                debug_assert!(false, "list length out of sync with its source");
                continue;
            };
            let key = (s.job_idx, s.stage);
            if emitted.contains_key(&key) {
                continue;
            }
            // During the merge every pushed entry is fresh and startable,
            // so raw list lengths are the startable-entry counts.
            let (reg, llm) = (p.regular.len(), p.llm.len());
            if reg >= rb && llm >= lb {
                satiated = true;
                continue;
            }
            let job = &ctx.jobs[s.job_idx];
            if !below_cut(job, s.stage, (reg, llm), (rb, lb)) {
                emitted.insert(key, 0);
                continue;
            }
            if explore {
                p.push_stage_sample(job, s.stage, cfg.sampling_ratio);
            } else {
                p.push_stage_tasks(job, s.stage);
            }
            let tasks = p.len() - (reg + llm);
            emitted.insert(key, tasks);
            let list = if explore {
                DecisionList::Explore
            } else {
                DecisionList::Exploit
            };
            note(s, list, tasks, score);
        }
        if satiated {
            // Nothing the tail could add would start.
            return p;
        }
        // Line 21 tail: St was consumed whole. Merge-emitted stages
        // re-push their `prior` refs as duplicates (the dispatcher skips
        // them without consuming capacity), so only the surplus counts
        // toward the cut.
        let (mut fresh_reg, mut fresh_llm) = (p.regular.len(), p.llm.len());
        for &s in st.iter() {
            if fresh_reg >= rb && fresh_llm >= lb {
                break;
            }
            let job = &ctx.jobs[s.job_idx];
            if !below_cut(job, s.stage, (fresh_reg, fresh_llm), (rb, lb)) {
                continue;
            }
            let prior = emitted.get(&(s.job_idx, s.stage)).copied().unwrap_or(0);
            let (r0, l0) = (p.regular.len(), p.llm.len());
            p.push_stage_tasks(job, s.stage);
            // A stage's tasks all go to one list.
            let (dr, dl) = (p.regular.len() - r0, p.llm.len() - l0);
            let fresh = (dr + dl).saturating_sub(prior);
            if dr > 0 {
                fresh_reg += fresh;
            } else {
                fresh_llm += fresh;
            }
            if fresh > 0 {
                note(s, DecisionList::Tail, fresh, None);
            }
        }
        p
    }
}

/// True if `stage`'s class still has room: its list holds fewer than its
/// cut-off's entries, with `have` and `cut` as (regular, LLM) pairs.
fn below_cut(job: &JobRt, stage: StageId, have: (usize, usize), cut: (usize, usize)) -> bool {
    match job.visible_kind(stage) {
        Some(StageKind::Regular) => have.0 < cut.0,
        Some(StageKind::Llm) => have.1 < cut.1,
        _ => false,
    }
}

/// The ready stages of the jobs at indices `order`, job by job: an St
/// source.
fn ready_stages<'a>(
    jobs: ActiveJobs<'a>,
    order: impl Iterator<Item = usize> + 'a,
) -> impl Iterator<Item = StageRef> + 'a {
    order.flat_map(move |job_idx| {
        jobs.get(job_idx)
            .ready_stage_ids()
            .iter()
            .map(move |&stage| StageRef { job_idx, stage })
    })
}

/// Fills the posterior fields of freshly merged provenance `records`:
/// `lookup` gives a job's (profile version, evidence mask, work
/// estimate), read under the Eq. 2 calibration `calib`. `at`/`seq` are
/// stamped by the engine at drain time.
fn annotate(
    records: &mut [DecisionRecord],
    ctx: &SchedContext<'_>,
    calib: f64,
    lookup: impl Fn(&JobRt) -> (u64, u64, WorkEstimate),
) {
    for d in records {
        let job = ctx.job(d.job).expect("records name active jobs");
        let (version, mask, work) = lookup(job);
        d.profile_version = version;
        d.evidence_mask = mask;
        d.expected_work = work.expected(calib);
        d.interval = work.interval(calib);
    }
}

/// One schedulable stage reference with its owning job's index in `jobs`.
#[derive(Debug, Clone, Copy)]
struct StageRef {
    job_idx: usize,
    stage: StageId,
}

/// A ready job's SRTF (`St`) index entry under the Eq. 2 calibration
/// `calib`, keyed by (calibrated estimate, arrival).
fn srtf_entry(
    beliefs: &BeliefStore,
    job: &JobRt,
    calib: f64,
) -> IndexEntry<(FiniteF64, SimTime), ()> {
    IndexEntry {
        key: (
            FiniteF64(beliefs.work(job.id()).expected(calib)),
            job.arrival(),
        ),
        job: job.id(),
        ready: true,
        val: (),
    }
}

/// An interval index entry's payload: the calibrated upper bound the Su
/// group scan reads, and the job's calibration-free `(llm, regular)`
/// bound parts ([`WorkEstimate::lo`] and [`WorkEstimate::hi`]).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Span {
    hi: f64,
    lo_parts: (f64, f64),
    hi_parts: (f64, f64),
}

impl Span {
    /// The interval index key (calibrated lower bound) and payload of
    /// bound parts `lo_parts`/`hi_parts` under the Eq. 2 calibration
    /// `calib`, through [`WorkEstimate::interval`] itself, so an in-place
    /// re-key and a from-scratch entry agree to the bit.
    fn keyed(lo_parts: (f64, f64), hi_parts: (f64, f64), calib: f64) -> (FiniteF64, Span) {
        let parts = WorkEstimate {
            lo: lo_parts,
            hi: hi_parts,
            ..WorkEstimate::default()
        };
        let (lo, hi) = parts.interval(calib);
        let span = Span {
            hi,
            lo_parts,
            hi_parts,
        };
        (FiniteF64(lo), span)
    }
}

/// A job's interval (`Su`) index entry under the Eq. 2 calibration
/// `calib`, flagged ready from its record.
fn interval_entry(beliefs: &BeliefStore, job: &JobRt, calib: f64) -> IndexEntry<FiniteF64, Span> {
    let work = beliefs.work(job.id());
    let (key, val) = Span::keyed(work.lo, work.hi, calib);
    IndexEntry {
        key,
        job: job.id(),
        ready: beliefs.is_ready(job.id()),
        val,
    }
}

/// Pushes a ready job's frontier onto the Su heap. If `lone` (no other
/// ready job shares its group) and the job has one ready stage, that stage
/// goes on unscored: a one-entry heap has no order for Eq. 6 to decide.
/// Otherwise every ready stage goes on with its score, through the
/// belief's memo. The heap's order is total (ties break on unique (job,
/// stage)), so the pops — and with them the ε-draw consumption — never
/// observe the push order or which scores were memoized.
fn push_frontier(
    heap: &mut BinaryHeap<SuEntry>,
    beliefs: &mut BeliefStore,
    store: &ProfileStore,
    ctx: &SchedContext<'_>,
    id: JobId,
    lone: bool,
) {
    let Some(idx) = ctx.job_index(id) else {
        return;
    };
    let job = &ctx.jobs[idx];
    let entry = |stage, score| SuEntry {
        score,
        tie: std::cmp::Reverse((id, stage)),
        job_idx: idx,
        stage,
    };
    if let (true, &[s]) = (lone, job.ready_stage_ids()) {
        heap.push(entry(s, None));
        return;
    }
    for &s in job.ready_stage_ids() {
        let r = beliefs.reduction(store, job, s);
        heap.push(entry(s, Some(FiniteF64(r))));
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
/// Returns groups ordered by lower bound; within a group, entries are
/// ordered by (lo, job index).
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
        if let SchedDelta::JobCompleted { job } = d {
            self.exploit.remove(*job);
            self.intervals.remove(*job);
        }
    }

    fn reset(&mut self) {
        self.store.reset();
        self.cache.clear();
        self.beliefs.clear();
        self.exploit.clear();
        self.intervals.clear();
        self.last_calib = None;
        self.merge = Merge::new(self.cfg.seed);
        self.decisions.clear();
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Preference {
        if self.cfg.work_conserving && !ctx.could_dispatch {
            // Work-conserving mode: ready tasks exist but no executor of
            // a ready class is free, so nothing emitted here could start.
            // Return before any RNG draw or state sync — the empty-handed
            // merge would otherwise advance the ε-draw stream (the fast
            // drain) — making this call an exact no-op that the engine's
            // capacity-aware elision can skip wholesale. The predicate is
            // engine-computed (same bit the elision branch tests), so the
            // two sides can never disagree; pinned by the elision-off leg
            // of the equivalence matrix.
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

    /// Three one-stage regular jobs of 5, 3 and 4 tasks.
    fn wide_jobs() -> Vec<JobRt> {
        use llmsched_dag::prelude::*;
        let mut b = TemplateBuilder::new(AppId(0), "wide");
        b.regular("wide");
        let t = b.build().unwrap();
        let task = TaskWork::Regular {
            duration: SimDuration::from_secs(1),
        };
        [5, 3, 4]
            .into_iter()
            .enumerate()
            .map(|(id, n)| {
                let stage = StageSpec::executing("wide", StageKind::Regular, vec![task; n]);
                let spec = JobSpec::new(JobId(id as u64), &t, SimTime::ZERO, vec![stage], vec![]);
                JobRt::new(spec.unwrap())
            })
            .collect()
    }

    #[test]
    fn merge_follows_epsilon_and_its_cut_keeps_the_startable_prefix() {
        let jobs = wide_jobs();
        let latency = llmsched_sim::latency::LatencyProfile::default();
        let templates: llmsched_dag::template::TemplateSet = std::iter::empty().collect();
        let ids: Vec<JobId> = jobs.iter().map(JobRt::id).collect();
        let pool = llmsched_sim::exec::SlotLedger::default();
        let ctx = SchedContext {
            now: SimTime::ZERO,
            jobs: ActiveJobs::projected(&jobs, &ids, &[0, 1, 2]),
            llm_pool: &pool,
            backend: "cluster/least-loaded",
            regular_total: 16,
            regular_busy: 0,
            dispatchable_regular: 12,
            dispatchable_llm: 0,
            could_dispatch: true,
            templates: &templates,
            latency: &latency,
        };
        let at = |job_idx| StageRef {
            job_idx,
            stage: StageId(0),
        };
        // St (SRTF): jobs 2, 0, 1. Su (by score): jobs 1, 0, 2.
        let st = [at(2), at(0), at(1)];
        let su = [(Some(3.0), at(1)), (Some(2.0), at(0)), (Some(1.0), at(2))];
        let run = |epsilon, cut, seed| {
            let cfg = LlmSchedConfig {
                epsilon,
                sampling_ratio: 0.5,
                ..Default::default()
            };
            let mut merge = Merge::new(seed);
            let mut log = Vec::new();
            let (st, su) = ((3, st.iter().copied()), (3, su.iter().copied()));
            let p = merge.run(&ctx, &cfg, st, su, cut, Some(&mut log));
            let refs: Vec<(u64, u32)> = p.regular.iter().map(|t| (t.job.0, t.task)).collect();
            let log: Vec<_> = log
                .iter()
                .map(|d| (d.list, d.job.0, d.tasks, d.reduction))
                .collect();
            (refs, log, rand::RngCore::next_u64(&mut merge.rng))
        };
        let unbounded = (usize::MAX, usize::MAX);
        let tasks = |stages: &[(u64, u32)]| -> Vec<(u64, u32)> {
            stages
                .iter()
                .flat_map(|&(j, n)| (0..n).map(move |t| (j, t)))
                .collect()
        };
        use DecisionList::{Exploit, Explore, Tail};

        // ε = 0: St in order, whole stages; the tail adds only duplicates.
        let (refs, log, _) = run(0.0, unbounded, 7);
        assert_eq!(refs[..12], tasks(&[(2, 4), (0, 5), (1, 3)])[..]);
        assert_eq!(
            log,
            [
                (Exploit, 2, 4, None),
                (Exploit, 0, 5, None),
                (Exploit, 1, 3, None)
            ]
        );

        // ε = 1: ⌈r·n⌉ tasks of each Su head in Su order, then the
        // remainders re-attached in SRTF order.
        let (refs, log, _) = run(1.0, unbounded, 7);
        assert_eq!(refs[..7], tasks(&[(1, 2), (0, 3), (2, 2)])[..]);
        assert_eq!(
            log,
            [
                (Explore, 1, 2, Some(3.0)),
                (Explore, 0, 3, Some(2.0)),
                (Explore, 2, 2, Some(1.0)),
                (Tail, 2, 2, None),
                (Tail, 0, 2, None),
                (Tail, 1, 1, None),
            ]
        );

        // A cut of k regular entries emits the first k distinct refs of
        // the unbounded run (the dispatcher skips duplicates) and leaves
        // the ε-draw stream where the unbounded run leaves it.
        let startable = |refs: &[(u64, u32)], k| {
            let mut seen = llmsched_dag::hash::FxHashSet::default();
            let distinct = refs.iter().filter(|&&r| seen.insert(r));
            distinct.take(k).copied().collect::<Vec<_>>()
        };
        for seed in 0..16 {
            let (all, all_log, all_next) = run(0.5, unbounded, seed);
            for k in 0..=12 {
                let (cut, cut_log, cut_next) = run(0.5, (k, 0), seed);
                assert_eq!(startable(&cut, k), startable(&all, k), "seed {seed}, k {k}");
                assert_eq!(startable(&cut, k).len(), k);
                assert!(all_log.starts_with(&cut_log), "seed {seed}, k {k}");
                assert_eq!(cut_next, all_next, "seed {seed}, k {k}");
            }
        }
    }

    /// A Su group with one (job, stage) candidate goes on the heap
    /// unscored, leaving the job's Eq. 6 memo empty; a group with two is
    /// scored. A probed call still records the lone candidate's score.
    #[test]
    fn lone_su_candidates_are_scored_only_for_provenance() {
        let kind = AppKind::TaskAutomation;
        let profiler = trained_profiler(&[kind]);
        let mut rng = StdRng::seed_from_u64(3);
        let jobs: Vec<JobRt> = (0..2)
            .map(|i| JobRt::new(kind.generator().generate(JobId(i), SimTime::ZERO, &mut rng)))
            .collect();
        assert!(jobs.iter().all(|j| j.ready_stage_ids().len() == 1));
        let ids: Vec<JobId> = jobs.iter().map(JobRt::id).collect();
        let pool = llmsched_sim::exec::SlotLedger::new([8]);
        let templates = all_templates();
        let latency = llmsched_sim::latency::LatencyProfile::default();
        // ε = 1: the first draw explores, so Su's head is emitted.
        let cfg = LlmSchedConfig {
            epsilon: 1.0,
            ..LlmSchedConfig::default()
        };
        let call = |active: &[u32], telemetry: bool| {
            let mut sched = LlmSched::new(profiler.clone(), cfg.clone());
            sched.set_telemetry(telemetry);
            let ctx =
                crate::belief::tests::ctx_of(&jobs, &ids, active, &pool, &templates, &latency);
            assert!(!sched.schedule(&ctx).is_empty());
            let mut records = Vec::new();
            sched.drain_provenance(&mut records);
            (sched, records)
        };

        // Two fresh jobs of one app share an interval, so one group.
        let (pair, _) = call(&[0, 1], false);
        for id in &ids {
            assert_eq!(pair.beliefs().memoized(*id), 1, "{id:?} unscored");
        }

        let (lone, _) = call(&[0], false);
        assert_eq!(lone.beliefs().memoized(ids[0]), 0, "lone candidate scored");

        let (_, records) = call(&[0], true);
        let explored = records
            .iter()
            .find(|d| d.list == DecisionList::Explore)
            .expect("ε = 1 explores");
        let profile = profiler.profile(kind.app_id()).unwrap();
        let want = uncertainty_reduction(
            profile,
            &jobs[0],
            explored.stage,
            &profile.evidence_of(&jobs[0]),
        );
        assert!(want > 0.0, "the plan stage reduces uncertainty");
        assert_eq!(explored.reduction, Some(want));
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

    #[test]
    fn validate_accepts_the_defaults_and_the_range_ends() {
        assert_eq!(LlmSchedConfig::default().validate(), Ok(()));
        let ends = LlmSchedConfig {
            epsilon: 1.0,
            sampling_ratio: 1.0,
            interval_tail_mass: 0.0,
            ..Default::default()
        };
        assert_eq!(ends.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_epsilon_outside_unit_interval_or_nan() {
        for eps in [-0.1, 1.5, f64::NAN] {
            let cfg = LlmSchedConfig {
                epsilon: eps,
                ..Default::default()
            };
            let err = cfg.validate().unwrap_err();
            assert!(matches!(err, LlmSchedConfigError::Epsilon(_)));
            assert!(err.to_string().starts_with("epsilon is"), "{err}");
        }
    }

    #[test]
    fn validate_rejects_sampling_ratio_outside_half_open_unit_interval() {
        for r in [0.0, -1.0, 1.01, f64::NAN] {
            let cfg = LlmSchedConfig {
                sampling_ratio: r,
                ..Default::default()
            };
            let err = cfg.validate().unwrap_err();
            assert!(matches!(err, LlmSchedConfigError::SamplingRatio(_)));
            assert!(err.to_string().starts_with("sampling_ratio is"), "{err}");
        }
    }

    #[test]
    fn validate_rejects_interval_tail_mass_of_half_or_more() {
        for q in [0.5, 0.7, -0.01, f64::NAN] {
            let cfg = LlmSchedConfig {
                interval_tail_mass: q,
                ..Default::default()
            };
            let err = cfg.validate().unwrap_err();
            assert!(matches!(err, LlmSchedConfigError::IntervalTailMass(_)));
            assert!(
                err.to_string().starts_with("interval_tail_mass is"),
                "{err}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "interval_tail_mass is 0.5")]
    fn construction_panics_on_an_invalid_config() {
        let profiler = trained_profiler(&[AppKind::WebSearch]);
        let _ = LlmSched::new(
            profiler,
            LlmSchedConfig {
                interval_tail_mass: 0.5,
                ..Default::default()
            },
        );
    }
}
