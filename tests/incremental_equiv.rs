//! Incremental ≡ rebuild equivalence: the delta-driven scheduling core
//! must produce **bit-identical** schedules to the rebuild-per-call
//! reference path — same engine event count, same completion set with the
//! same completion times, same average JCT — for LLMSched and every
//! baseline, on every workload mix, on all four executor backends.
//!
//! This is the invariant that makes the incremental refactor safe: the
//! persistent indices and beliefs are an *optimization*, never a policy
//! change.

use std::sync::OnceLock;

use llmsched::prelude::*;

fn artifacts() -> &'static (Profiler, AppPriors) {
    static ART: OnceLock<(Profiler, AppPriors)> = OnceLock::new();
    ART.get_or_init(|| {
        let templates = all_templates();
        let corpus = training_jobs(&AppKind::ALL, 60, 1);
        let cfg = ProfilerConfig::default();
        let profiler = Profiler::train(&templates, &corpus, &cfg);
        let priors = AppPriors::from_training(&corpus, cfg.per_token_b1);
        (profiler, priors)
    })
}

const POLICIES: [&str; 8] = [
    "FCFS", "SJF", "Fair", "Argus", "Decima", "Carbyne", "SRTF", "LLMSched",
];

fn build(policy: &str, rebuild: bool) -> Box<dyn Scheduler> {
    let (profiler, priors) = artifacts();
    let llmsched = |use_bn: bool, use_uncertainty: bool| {
        Box::new(LlmSched::new(
            profiler.clone(),
            LlmSchedConfig {
                use_bn,
                use_uncertainty,
                incremental: !rebuild,
                ..LlmSchedConfig::default()
            },
        ))
    };
    match (policy, rebuild) {
        ("FCFS", false) => Box::new(Fcfs::new()),
        ("FCFS", true) => Box::new(Fcfs::rebuild()),
        ("SJF", false) => Box::new(Sjf::new(priors.clone())),
        ("SJF", true) => Box::new(Sjf::rebuild(priors.clone())),
        ("Fair", false) => Box::new(Fair::new()),
        ("Fair", true) => Box::new(Fair::rebuild()),
        ("Argus", false) => Box::new(Argus::new()),
        ("Argus", true) => Box::new(Argus::rebuild()),
        ("Decima", false) => Box::new(DecimaLike::new(priors.clone())),
        ("Decima", true) => Box::new(DecimaLike::rebuild(priors.clone())),
        ("Carbyne", false) => Box::new(CarbyneLike::new(priors.clone())),
        ("Carbyne", true) => Box::new(CarbyneLike::rebuild(priors.clone())),
        ("SRTF", false) => Box::new(Srtf::new(priors.clone())),
        ("SRTF", true) => Box::new(Srtf::rebuild(priors.clone())),
        ("LLMSched", _) => llmsched(true, true),
        ("LLMSched w/o BN", _) => llmsched(false, true),
        ("LLMSched w/o uncertainty", _) => llmsched(true, false),
        _ => unreachable!("unknown policy {policy}"),
    }
}

fn run(kind: WorkloadKind, mode: EngineMode, policy: &str, rebuild: bool, seed: u64) -> SimResult {
    let w = generate_workload(kind, 10, 0.9, seed);
    let mut cfg = kind.default_cluster();
    cfg.mode = mode;
    let mut sched = build(policy, rebuild);
    simulate(&cfg, &w.templates, w.jobs, &mut sched)
}

fn assert_equiv(inc: &SimResult, reb: &SimResult, label: &str) {
    assert_eq!(inc.events, reb.events, "{label}: engine event counts");
    assert_eq!(inc.makespan, reb.makespan, "{label}: makespans");
    assert_eq!(inc.incomplete, reb.incomplete, "{label}: stranded jobs");
    let completions = |r: &SimResult| {
        let mut v: Vec<_> = r.jobs.iter().map(|j| (j.id, j.completion)).collect();
        v.sort();
        v
    };
    assert_eq!(
        completions(inc),
        completions(reb),
        "{label}: completion sets"
    );
    // Identical outcomes imply an identical mean, but assert the metric
    // the paper reports explicitly (exact equality: same f64 inputs).
    assert_eq!(inc.avg_jct_secs(), reb.avg_jct_secs(), "{label}: avg JCT");
}

/// The full matrix: every policy × every workload mix × all four executor
/// backends, one fixed seed.
#[test]
fn every_policy_every_mix_every_backend() {
    let modes = [
        EngineMode::Analytic,
        EngineMode::TokenLevel,
        EngineMode::Cluster,
        EngineMode::Disagg,
    ];
    for kind in WorkloadKind::ALL {
        for mode in modes {
            for policy in POLICIES {
                let inc = run(kind, mode, policy, false, 11);
                let reb = run(kind, mode, policy, true, 11);
                let label = format!("{policy} / {} / {:?}", kind.name(), mode);
                assert_equiv(&inc, &reb, &label);
            }
        }
    }
}

/// The incremental path must also observe hidden structure in the same
/// order: a recording wrapper diffs each job's visible stage set per
/// invocation and the per-job reveal sequences must match the rebuild
/// path's exactly.
#[test]
fn reveal_orders_are_identical() {
    use std::collections::HashMap;

    struct RevealRecorder {
        inner: Box<dyn Scheduler>,
        seen: HashMap<JobId, Vec<StageId>>,
    }
    impl Scheduler for RevealRecorder {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn schedule(&mut self, ctx: &SchedContext<'_>) -> Preference {
            for job in &ctx.jobs {
                let rec = self.seen.entry(job.id()).or_default();
                for &s in job.visible_stage_ids() {
                    if !rec.contains(&s) {
                        rec.push(s);
                    }
                }
            }
            self.inner.schedule(ctx)
        }
        fn on_delta(&mut self, d: &SchedDelta) {
            self.inner.on_delta(d);
        }
        fn reset(&mut self) {
            self.inner.reset();
        }
    }

    for kind in [WorkloadKind::Planning, WorkloadKind::ChainLike] {
        let run = |rebuild: bool| {
            let w = generate_workload(kind, 12, 0.9, 29);
            let mut rec = RevealRecorder {
                inner: build("LLMSched", rebuild),
                seen: HashMap::new(),
            };
            let r = simulate(&kind.default_cluster(), &w.templates, w.jobs, &mut rec);
            (r, rec.seen)
        };
        let (ri, seen_i) = run(false);
        let (rr, seen_r) = run(true);
        assert_equiv(&ri, &rr, &format!("LLMSched reveals / {}", kind.name()));
        assert_eq!(seen_i, seen_r, "{}: reveal orders diverged", kind.name());
    }
}

/// Frozen-mode pin: with `ProfileUpdate::Frozen` (the default), the
/// versioned ProfileStore must be **bit-identical to the pre-store
/// frozen profiler** — same engine event counts and the exact f64 bit
/// pattern of the average JCT, recorded from the tree before the
/// online-profiling refactor landed. Every policy × backend is already
/// swept above; this locks the flagship policy's absolute behavior so a
/// store regression cannot hide behind a both-paths-drifted equivalence.
#[test]
fn frozen_profile_update_is_bit_identical_to_pre_store_schedules() {
    // (mix, mode, avg_jct f64 bits, engine events) captured at the
    // pre-refactor commit with the training setup of `artifacts()`.
    let golden = [
        (
            WorkloadKind::Mixed,
            EngineMode::Analytic,
            0x4035d5b500276d2bu64,
            476u64,
        ),
        (
            WorkloadKind::Mixed,
            EngineMode::Cluster,
            0x4035d5b500276d2b,
            476,
        ),
        (
            WorkloadKind::Predefined,
            EngineMode::Analytic,
            0x40402f78eacd68d4,
            651,
        ),
        (
            WorkloadKind::Predefined,
            EngineMode::Cluster,
            0x40402f78eacd68d4,
            651,
        ),
        (
            WorkloadKind::ChainLike,
            EngineMode::Analytic,
            0x402321c952c4c8f2,
            116,
        ),
        (
            WorkloadKind::ChainLike,
            EngineMode::Cluster,
            0x402321c952c4c8f2,
            116,
        ),
        (
            WorkloadKind::Planning,
            EngineMode::Analytic,
            0x401f56f39085f4a2,
            138,
        ),
        (
            WorkloadKind::Planning,
            EngineMode::Cluster,
            0x401f56f39085f4a2,
            138,
        ),
    ];
    let (profiler, _) = artifacts();
    for (kind, mode, bits, events) in golden {
        for explicit_frozen in [false, true] {
            let w = generate_workload(kind, 10, 0.9, 11);
            let mut cfg = kind.default_cluster();
            cfg.mode = mode;
            let scfg = LlmSchedConfig {
                profile_update: if explicit_frozen {
                    ProfileUpdate::Frozen
                } else {
                    LlmSchedConfig::default().profile_update
                },
                ..LlmSchedConfig::default()
            };
            let mut sched = LlmSched::new(profiler.clone(), scfg);
            let r = simulate(&cfg, &w.templates, w.jobs, &mut sched);
            let label = format!("{} / {:?} (explicit={explicit_frozen})", kind.name(), mode);
            assert_eq!(r.events, events, "{label}: engine events moved");
            assert_eq!(
                r.avg_jct_secs().to_bits(),
                bits,
                "{label}: avg JCT bits moved ({} vs golden {})",
                r.avg_jct_secs(),
                f64::from_bits(bits)
            );
        }
    }
}

/// The equivalence invariant must also hold with **online profiling
/// active**: both execution paths absorb the same observation stream at
/// the same decision points, so per-completion snapshot publishing keeps
/// the incremental and rebuild schedules bit-identical.
#[test]
fn online_profile_updates_preserve_incremental_equivalence() {
    let templates = all_templates();
    let corpus = training_jobs(&AppKind::ALL, 60, 1);
    let run = |kind: WorkloadKind, incremental: bool| {
        let store = ProfileStore::train(
            &templates,
            &corpus,
            ProfileStoreConfig {
                update: ProfileUpdate::PerCompletion,
                ..ProfileStoreConfig::default()
            },
        );
        let mut sched = LlmSched::with_store(
            store,
            LlmSchedConfig {
                incremental,
                ..LlmSchedConfig::default()
            },
        );
        let w = generate_workload(kind, 12, 0.9, 23);
        simulate(&kind.default_cluster(), &w.templates, w.jobs, &mut sched)
    };
    for kind in WorkloadKind::ALL {
        let inc = run(kind, true);
        let reb = run(kind, false);
        assert_equiv(&inc, &reb, &format!("LLMSched online / {}", kind.name()));
    }
}

/// Partitioned engine ≡ sequential oracle: the same workload under
/// `Parallelism::Partitioned(n)` must be **bit-identical** to
/// `Parallelism::Off` — same engine event count (including stale pops),
/// same makespan, same completion set, the exact f64 bit pattern of the
/// average JCT — for every policy × mix × the analytic, cluster and
/// disaggregated backends at 2 and 4 partitions. This is the contract of
/// DESIGN.md §10: partitioned stepping is an *execution strategy*, never
/// a semantics change.
#[test]
fn partitioned_engine_matches_sequential_oracle() {
    let run_p = |kind: WorkloadKind, mode: EngineMode, policy: &str, par: Parallelism| {
        let w = generate_workload(kind, 10, 0.9, 11);
        let mut cfg = kind.default_cluster();
        cfg.mode = mode;
        cfg.parallelism = par;
        let mut sched = build(policy, false);
        simulate(&cfg, &w.templates, w.jobs, &mut sched)
    };
    let modes = [
        EngineMode::Analytic,
        EngineMode::Cluster,
        EngineMode::Disagg,
    ];
    for kind in WorkloadKind::ALL {
        for mode in modes {
            for policy in POLICIES {
                let seq = run_p(kind, mode, policy, Parallelism::Off);
                assert!(seq.par.is_none(), "sequential runs report no ParStats");
                for parts in [2usize, 4] {
                    let par = run_p(kind, mode, policy, Parallelism::Partitioned(parts));
                    let label = format!("{policy} / {} / {:?} / p{parts}", kind.name(), mode);
                    assert_equiv(&par, &seq, &label);
                    assert_eq!(
                        par.avg_jct_secs().to_bits(),
                        seq.avg_jct_secs().to_bits(),
                        "{label}: avg JCT bit pattern"
                    );
                    // The clamp keeps single-executor clusters sequential.
                    let effective = parts.min(kind.default_cluster().llm_executors);
                    assert_eq!(
                        par.par.is_some(),
                        effective > 1,
                        "{label}: ParStats presence"
                    );
                    if let Some(stats) = &par.par {
                        assert_eq!(stats.partitions, effective, "{label}: partition count");
                        assert!(stats.rounds > 0, "{label}: batch rounds counted");
                    }
                }
            }
        }
    }
}

/// Extra analytic-backend seed sweep, including the LLMSched ablation
/// variants (the exploration machinery exercises the interval index and
/// memoized reductions hardest).
#[test]
fn analytic_seed_sweep_with_ablations() {
    let policies = [
        "LLMSched",
        "LLMSched w/o BN",
        "LLMSched w/o uncertainty",
        "SRTF",
        "Carbyne",
    ];
    for kind in WorkloadKind::ALL {
        for seed in [7u64, 42, 1234] {
            for policy in policies {
                let inc = run(kind, EngineMode::Analytic, policy, false, seed);
                let reb = run(kind, EngineMode::Analytic, policy, true, seed);
                let label = format!("{policy} / {} / seed {seed}", kind.name());
                assert_equiv(&inc, &reb, &label);
            }
        }
    }
}

/// Runs `policy` incrementally and by rebuild on ~300 Mixed jobs
/// arriving at λ = 24 jobs/s on the Mixed default cluster scaled
/// `×scale` — the benchmark's concurrency — and asserts the two are
/// bit-identical.
fn assert_equiv_at_benchmark_concurrency(policy: &str, mode: EngineMode, scale: usize) {
    let run = |rebuild: bool| {
        let w = generate_workload(WorkloadKind::Mixed, 300, 24.0, 5);
        let base = WorkloadKind::Mixed.default_cluster();
        let cfg = ClusterConfig {
            regular_executors: base.regular_executors * scale,
            llm_executors: base.llm_executors * scale,
            mode,
            ..base
        };
        let mut sched = build(policy, rebuild);
        simulate(&cfg, &w.templates, w.jobs, &mut sched)
    };
    let (inc, reb) = (run(false), run(true));
    let label = format!("{policy} / Mixed x300 / λ=24 / {mode:?} / cluster ×{scale}");
    assert_eq!(inc.incomplete, 0, "{label}: every job completes");
    assert_equiv(&inc, &reb, &label);
    assert_eq!(
        inc.avg_jct_secs().to_bits(),
        reb.avg_jct_secs().to_bits(),
        "{label}: avg JCT bit pattern"
    );
}

/// LLMSched at the benchmark's concurrency, analytic backend. Here a
/// decision point sees far more active jobs than ready ones, so the lazy
/// sources skip non-ready jobs and non-overlapping groups are bridged by
/// non-ready jobs' intervals — neither happens in the small, lightly
/// loaded cases above, where almost every job is ready and groups are
/// tiny. At ×48 (the benchmark's shape) a 300-job run rarely fills the
/// cluster, so nearly every ready task starts whatever the order; the ×16
/// run keeps the same concurrency with capacity binding, which is what
/// makes a mis-grouped exploration list change the schedule.
#[test]
fn llmsched_matches_rebuild_at_benchmark_concurrency() {
    for scale in [48, 16] {
        assert_equiv_at_benchmark_concurrency("LLMSched", EngineMode::Analytic, scale);
    }
}

/// The `DeltaIndex` baselines at the benchmark's concurrency, where their
/// incremental paths walk only the few ready jobs among hundreds of
/// active ones: all six on the analytic ×16 cluster, where capacity binds
/// and the walk order decides who starts, and FCFS on the token-level ×48
/// cluster, the benchmark's `fcfs-token-disagg` path.
#[test]
fn baselines_match_rebuild_at_benchmark_concurrency() {
    for policy in ["FCFS", "SJF", "SRTF", "Fair", "Argus", "Carbyne"] {
        assert_equiv_at_benchmark_concurrency(policy, EngineMode::Analytic, 16);
    }
    assert_equiv_at_benchmark_concurrency("FCFS", EngineMode::TokenLevel, 48);
}
