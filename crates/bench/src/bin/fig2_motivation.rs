//! **Fig. 2** — the motivating example: two jobs, one LLM executor
//! (batch 1), one regular executor; SJF versus uncertainty-aware
//! scheduling.
//!
//! This binary re-runs the `motivation` example's scenario through the
//! bench reporting (see `examples/motivation.rs` for the narrated
//! walk-through). Paper: SJF averages 6.5 s (strictly job-serial), the
//! uncertainty-aware schedule 5.0 s. Our work-conserving SJF achieves
//! 6.0 s; the uncertainty-aware schedule reproduces 5.0 s exactly.
//!
//! Usage: `cargo run --release -p llmsched-bench --bin fig2_motivation`

use llmsched_bench::{write_csv, Table};

fn main() {
    llmsched_bench::cli::Cli::new("fig2_motivation", &[]).parse();
    let (sjf, ours) = fig2::run();
    let mut t = Table::new(vec!["policy", "job1_jct_s", "job2_jct_s", "avg_jct_s"]);
    for r in [&sjf, &ours] {
        let j1 = r
            .jobs
            .iter()
            .find(|j| j.id.0 == 1)
            .expect("job 1")
            .jct()
            .as_secs_f64();
        let j2 = r
            .jobs
            .iter()
            .find(|j| j.id.0 == 2)
            .expect("job 2")
            .jct()
            .as_secs_f64();
        t.row(vec![
            r.scheduler.clone(),
            format!("{j1:.1}"),
            format!("{j2:.1}"),
            format!("{:.2}", r.avg_jct_secs()),
        ]);
        println!(
            "{:<28} job1 {:>4.1}s  job2 {:>4.1}s  avg {:>5.2}s",
            r.scheduler,
            j1,
            j2,
            r.avg_jct_secs()
        );
    }
    println!("(paper: SJF 6.5 s — strictly job-serial — vs uncertainty-aware 5.0 s)");
    write_csv(&t, "fig2");
    assert!(ours.avg_jct_secs() < sjf.avg_jct_secs());
}

mod fig2 {
    use llmsched_core::prelude::*;
    use llmsched_dag::prelude::*;
    use llmsched_schedulers::prelude::*;
    use llmsched_sim::metrics::SimResult;
    use llmsched_sim::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ta_template() -> Template {
        let mut b = TemplateBuilder::new(AppId(100), "mini_task_automation");
        let plan = b.llm("TA-1 plan");
        let dynamic = b.dynamic(
            "TA exec",
            plan,
            vec![
                Candidate {
                    name: "fast tool".into(),
                    class: ExecutorClass::Regular,
                },
                Candidate {
                    name: "slow tool".into(),
                    class: ExecutorClass::Regular,
                },
            ],
        );
        b.edge(plan, dynamic);
        b.build().expect("valid template")
    }

    fn cg_template() -> Template {
        let mut b = TemplateBuilder::new(AppId(101), "mini_code_generation");
        let c1 = b.llm("CG-1");
        let c2 = b.llm("CG-2");
        let c3 = b.regular("CG-3");
        b.edge(c1, c2);
        b.edge(c2, c3);
        b.build().expect("valid template")
    }

    fn llm_secs(secs: f64) -> TaskWork {
        TaskWork::Llm {
            prompt_tokens: 0,
            output_tokens: (secs * 50.0).round() as u32,
        }
    }

    fn reg_secs(secs: f64) -> TaskWork {
        TaskWork::Regular {
            duration: SimDuration::from_secs_f64(secs),
        }
    }

    fn ta_job(id: u64, t: &Template, fast: bool, slow: f64) -> JobSpec {
        let (cand, dur) = if fast { (0, 1.0) } else { (1, slow) };
        let (plan, dynamic, tool) = (StageId(0), StageId(1), StageId(2));
        JobSpec::new(
            JobId(id),
            t,
            SimTime::ZERO,
            vec![
                StageSpec::executing("TA-1 plan", StageKind::Llm, vec![llm_secs(2.0)]),
                StageSpec::executing("TA exec", StageKind::DynamicPlaceholder, vec![]),
                StageSpec {
                    revealed_by: Some(plan),
                    parent_dynamic: Some(dynamic),
                    candidate: Some(cand),
                    ..StageSpec::executing("tool", StageKind::Regular, vec![reg_secs(dur)])
                },
            ],
            vec![(plan, tool), (tool, dynamic)],
        )
        .expect("valid TA job")
    }

    fn cg_job(id: u64, t: &Template, mid: f64) -> JobSpec {
        JobSpec::new(
            JobId(id),
            t,
            SimTime::ZERO,
            vec![
                StageSpec::executing("CG-1", StageKind::Llm, vec![llm_secs(2.0)]),
                StageSpec::executing("CG-2", StageKind::Llm, vec![llm_secs(mid)]),
                StageSpec::executing("CG-3", StageKind::Regular, vec![reg_secs(1.0)]),
            ],
            vec![],
        )
        .expect("valid CG job")
    }

    /// Runs (SJF, LLMSched) on the Fig. 2 scenario.
    pub fn run() -> (SimResult, SimResult) {
        let ta = ta_template();
        let cg = cg_template();
        let templates: TemplateSet = [ta.clone(), cg.clone()].into_iter().collect();
        let mut rng = StdRng::seed_from_u64(7);
        let mut corpus = Vec::new();
        for i in 0..160u64 {
            corpus.push(ta_job(
                1000 + i,
                &ta,
                i % 10 < 3,
                19.0 + rng.gen_range(-2.0..2.0),
            ));
            corpus.push(cg_job(2000 + i, &cg, 2.0 + 4.0 * rng.gen_range(0.5..1.5)));
        }
        let jobs = || vec![ta_job(1, &ta, true, 19.0), cg_job(2, &cg, 2.0)];
        let cluster = ClusterConfig {
            regular_executors: 1,
            llm_executors: 1,
            max_batch: 1,
            latency: LatencyProfile::new(vec![(1, SimDuration::from_millis(20))]).expect("valid"),
            ..ClusterConfig::default()
        };
        let per_token = SimDuration::from_millis(20);
        let mut sjf = Sjf::new(AppPriors::from_training(&corpus, per_token));
        let r_sjf = simulate(&cluster, &templates, jobs(), &mut sjf);
        let profiler = Profiler::train(&templates, &corpus, &ProfilerConfig::default());
        let mut ours = LlmSched::new(
            profiler,
            LlmSchedConfig {
                epsilon: 1.0,
                sampling_ratio: 1.0,
                interval_tail_mass: 0.0,
                ..LlmSchedConfig::default()
            },
        );
        let r_ours = simulate(&cluster, &templates, jobs(), &mut ours);
        (r_sjf, r_ours)
    }
}
