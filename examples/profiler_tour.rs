//! Inside the Bayesian profiler (§IV-B, §IV-C): learned network structure,
//! posterior updating as evidence arrives, batching-aware calibration, and
//! the Eq. 6 uncertainty-reduction scores — the quantities LLMSched's two
//! scheduling lists are built from.
//!
//! Run with: `cargo run --release --example profiler_tour`

use llmsched::prelude::*;
use llmsched_sim::state::JobRt;
use rand::SeedableRng;

fn main() {
    let templates = all_templates();
    let corpus = training_jobs(&[AppKind::SequenceSorting, AppKind::TaskAutomation], 400, 5);
    let profiler = Profiler::train(&templates, &corpus, &ProfilerConfig::default());

    // ------------------------------------------------------------------
    // Sequence sorting: duration correlations (Fig. 5a / Fig. 6).
    // ------------------------------------------------------------------
    let app = AppKind::SequenceSorting.app_id();
    let p = profiler.profile(app).expect("trained");
    println!(
        "sequence sorting BN edges (stage -> stage): {:?}",
        p.net().edges()
    );

    // A fresh job: prior estimate.
    let gen = AppKind::SequenceSorting.generator();
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let job = JobRt::new(gen.generate(JobId(0), SimTime::ZERO, &mut rng));
    let prior = remaining_work(p, &job, &Evidence::new(), true);
    println!(
        "fresh job estimate: {:.1}s (LLM {:.1}s + regular {:.1}s)",
        prior.expected(1.0),
        prior.llm_secs,
        prior.regular_secs
    );

    // Suppose the split stage finished very fast vs very slow.
    let disc0 = &p.discretizers()[0];
    for (label, bin) in [("fast", 0usize), ("slow", disc0.n_bins() - 1)] {
        let mut ev = Evidence::new();
        ev.insert(0, bin);
        let est = remaining_work(p, &job, &ev, true);
        println!(
            "  split observed {label:<4} -> remaining estimate {:>6.1}s",
            est.expected(1.0)
        );
    }

    // Batching-aware calibration (Eq. 2).
    let latency = LatencyProfile::llama2_7b_h800();
    for batch in [1usize, 4, 8, 16] {
        let calib = latency.calibration_ratio(1, batch);
        println!(
            "  at batch {batch:>2}: calibration ×{calib:.2} -> predicted {:>6.1}s",
            prior.expected(calib)
        );
    }

    // Eq. 6 scores: which ready stage reduces the most uncertainty?
    println!("\nuncertainty reduction R(X) per sorting stage (fresh job):");
    for s in 0..p.n_stages() as u32 {
        let r = uncertainty_reduction(p, &job, StageId(s), &Evidence::new());
        if r > 0.0 {
            println!(
                "  S{s:<2} {:<14} R = {r:>8.2} bit·s",
                job.stage_view(StageId(s)).unwrap().name
            );
        }
    }

    // ------------------------------------------------------------------
    // Task automation: dynamic-stage structural entropy (Eq. 4).
    // ------------------------------------------------------------------
    let app = AppKind::TaskAutomation.app_id();
    let p = profiler.profile(app).expect("trained");
    let stats = p.dynamic_stats(StageId(1)).expect("placeholder stats");
    println!(
        "\ntask automation dynamic stage: structural entropy {:.2} bits \
         ({} candidates, {} observed edge pairs, {} training jobs)",
        stats.structural_entropy(),
        stats.candidate_freq.len(),
        stats.edge_freq.len(),
        stats.n_samples
    );
    let gen = AppKind::TaskAutomation.generator();
    let job = JobRt::new(gen.generate(JobId(1), SimTime::ZERO, &mut rng));
    let r_plan = uncertainty_reduction(p, &job, StageId(0), &Evidence::new());
    println!("plan stage R = {r_plan:.2} bit·s — the dominant exploration target (Fig. 2)");
}
