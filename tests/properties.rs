//! Cross-crate property-based tests: simulator conservation laws, profiler
//! posterior sanity and scheduler-output validity under randomly generated
//! workloads.
//!
//! Written as seeded-random sweeps (deterministic per seed) on the
//! vendored [`rand`] subset instead of `proptest`, which is unavailable in
//! this offline workspace.

use llmsched::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn small_workload(rng: &mut StdRng) -> (WorkloadKind, usize, u64) {
    // (workload kind, job count, workload seed)
    let kind = WorkloadKind::ALL[rng.gen_range(0..4usize)];
    (kind, rng.gen_range(4..20usize), rng.gen_range(0..5000u64))
}

/// Every arrived job completes, completions are causal, and JCTs are
/// bounded below by each job's critical path — under FCFS on any mix.
#[test]
fn simulator_conservation() {
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(case);
        let (kind, n_jobs, seed) = small_workload(&mut rng);
        let w = generate_workload(kind, n_jobs, 0.9, seed);
        let per_token = SimDuration::from_millis(20);
        let bounds: Vec<(u64, f64)> = w
            .jobs
            .iter()
            .map(|j| {
                (
                    j.id().0,
                    j.critical_path_lower_bound(per_token).as_secs_f64(),
                )
            })
            .collect();
        let r = simulate(
            &kind.default_cluster(),
            &w.templates,
            w.jobs,
            &mut Fcfs::new(),
        );
        assert_eq!(r.incomplete, 0, "case {case}: stranded jobs");
        assert_eq!(r.jobs.len(), n_jobs, "case {case}: wrong completion count");
        for o in &r.jobs {
            assert!(o.completion >= o.arrival, "case {case}: acausal completion");
            let bound = bounds
                .iter()
                .find(|(id, _)| *id == o.id.0)
                .expect("job exists")
                .1;
            assert!(
                o.jct().as_secs_f64() >= bound - 1e-6,
                "case {case}: job {} beat its critical path ({} < {bound})",
                o.id,
                o.jct().as_secs_f64()
            );
        }
        // Utilization fractions are well-formed.
        assert!((0.0..=1.0 + 1e-9).contains(&r.utilization.regular_busy_frac));
        assert!((0.0..=1.0 + 1e-9).contains(&r.utilization.llm_slot_frac));
    }
}

/// The two executor backends complete the same job set.
#[test]
fn engines_complete_identically() {
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(1000 + case);
        let (kind, n_jobs, seed) = small_workload(&mut rng);
        let mut cfg = kind.default_cluster();
        let w = generate_workload(kind, n_jobs, 0.9, seed);
        let a = simulate(&cfg, &w.templates, w.jobs, &mut Fcfs::new());
        cfg.mode = EngineMode::TokenLevel;
        let w = generate_workload(kind, n_jobs, 0.9, seed);
        let t = simulate(&cfg, &w.templates, w.jobs, &mut Fcfs::new());
        assert_eq!(
            a.jobs.len(),
            t.jobs.len(),
            "case {case}: backend job counts differ"
        );
        assert_eq!(t.incomplete, 0, "case {case}: token backend stranded jobs");
    }
}

/// Posterior marginals from trained profiles are normalized and their
/// expectations are non-negative, whatever evidence arrives.
#[test]
fn profiler_posteriors_are_distributions() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(2000 + case);
        let seed = rng.gen_range(0..2000u64);
        let app = AppKind::ALL[rng.gen_range(0..6usize)];
        let templates = all_templates();
        let corpus = training_jobs(&[app], 60, seed);
        let profiler = Profiler::train(&templates, &corpus, &ProfilerConfig::default());
        let p = profiler.profile(app.app_id()).expect("trained");
        // Evidence: pretend stage 0 landed in each of its bins.
        for bin in 0..p.discretizers()[0].n_bins() {
            let mut ev = Evidence::new();
            ev.insert(0, bin);
            for s in 1..p.n_stages() {
                let marg = p.net().posterior_marginal(s, &ev);
                let total: f64 = marg.iter().sum();
                assert!(
                    (total - 1.0).abs() < 1e-6,
                    "case {case}: marginal sums to {total}"
                );
                assert!(marg.iter().all(|&x| (-1e-12..=1.0 + 1e-9).contains(&x)));
                let e = p.discretizers()[s].expectation(&marg);
                assert!(e >= -1e-9, "case {case}: negative expected duration {e}");
            }
        }
    }
}

/// LLMSched's preference lists only ever reference valid, ready,
/// unstarted tasks of the correct executor class.
#[test]
fn llmsched_preferences_are_valid() {
    use llmsched::sim::state::JobRt;

    let templates = all_templates();
    let corpus = training_jobs(&AppKind::ALL, 40, 3);
    let profiler = Profiler::train(&templates, &corpus, &ProfilerConfig::default());

    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(3000 + case);
        let seed = rng.gen_range(0..2000u64);
        let mut sched = LlmSched::new(profiler.clone(), LlmSchedConfig::default());

        // Build a fresh context of 6 just-arrived jobs.
        let w = generate_workload(WorkloadKind::Mixed, 6, 0.9, seed);
        let jobs: Vec<JobRt> = w.jobs.into_iter().map(JobRt::new).collect();
        let all: Vec<u32> = (0..jobs.len() as u32).collect();
        let ids: Vec<JobId> = jobs.iter().map(JobRt::id).collect();
        let pool = SlotLedger::new([8]);
        let latency = LatencyProfile::default();
        let ctx = SchedContext {
            now: SimTime::ZERO,
            jobs: llmsched_sim::scheduler::ActiveJobs::projected(&jobs, &ids, &all),
            llm_pool: &pool,
            backend: "cluster/least-loaded",
            regular_total: 2,
            regular_busy: 0,
            dispatchable_regular: jobs.iter().map(|j| j.ready_unstarted_by_class().0).sum(),
            dispatchable_llm: jobs.iter().map(|j| j.ready_unstarted_by_class().1).sum(),
            could_dispatch: true,
            templates: &w.templates,
            latency: &latency,
        };
        let pref = sched.schedule(&ctx);
        for (list, class) in [
            (&pref.regular, ExecutorClass::Regular),
            (&pref.llm, ExecutorClass::Llm),
        ] {
            for tr in list {
                let job = ctx.job(tr.job).expect("job in context");
                assert!(
                    job.stage_ready(tr.stage),
                    "case {case}: stage {} not ready",
                    tr.stage
                );
                let view = job.stage_view(tr.stage).expect("visible");
                assert_eq!(view.kind.class(), Some(class));
                assert!(job.unstarted_tasks(tr.stage).any(|t| t == tr.task));
            }
        }
    }
}
