//! Cross-fidelity properties of the executor-backend layer: on the same
//! fixed-seed workload, the analytic, token-level and disaggregated
//! backends must agree on everything *structural* — which
//! jobs complete and the order in which each job's hidden stages are
//! revealed — even though their timing models differ.
//!
//! Reveal order is observed the only way a policy could observe it: a
//! recording wrapper around FCFS diffs each job's visible stage set at
//! every scheduler invocation. Stage reveals are driven by intra-job
//! completion order (chain iterations reveal sequentially, plan stages
//! reveal their generated stages in one batch), so the per-job sequences
//! must be backend-invariant.

mod common;

use std::collections::HashMap;

use common::RevealRecorder;
use llmsched::prelude::*;

/// Runs `kind` under FCFS on one backend, returning the result and the
/// recorded per-job reveal sequences.
fn run_recorded(
    kind: WorkloadKind,
    mode: EngineMode,
    n_jobs: usize,
    seed: u64,
) -> (SimResult, HashMap<JobId, Vec<StageId>>) {
    let w = generate_workload(kind, n_jobs, 0.9, seed);
    let mut cfg = kind.default_cluster();
    cfg.mode = mode;
    let mut sched = RevealRecorder::new(Fcfs::new());
    let r = simulate(&cfg, &w.templates, w.jobs, &mut sched);
    (r, sched.seen)
}

/// All three backends — including the disaggregated prefill/decode
/// serving model — complete the same job set with
/// identical per-job reveal order, across every workload mix, on fixed
/// seeds.
#[test]
fn backends_agree_on_completion_set_and_reveal_order() {
    let modes = [
        (EngineMode::Analytic, "cluster/least-loaded"),
        (EngineMode::TokenLevel, "token-level"),
        (EngineMode::Disagg, "disagg/least-loaded"),
    ];
    for kind in WorkloadKind::ALL {
        for seed in [7u64, 42, 1234] {
            let (ra, reveals_a) = run_recorded(kind, EngineMode::Analytic, 18, seed);
            assert_eq!(ra.backend, "cluster/least-loaded");
            let mut ids_a: Vec<u64> = ra.jobs.iter().map(|j| j.id.0).collect();
            ids_a.sort_unstable();

            for (mode, backend_name) in &modes[1..] {
                let (rt, reveals_t) = run_recorded(kind, *mode, 18, seed);
                assert_eq!(&rt.backend, backend_name);
                assert_eq!(
                    ra.incomplete,
                    0,
                    "{} seed {seed}: analytic stranded jobs",
                    kind.name()
                );
                assert_eq!(
                    rt.incomplete,
                    0,
                    "{} seed {seed}: {backend_name} stranded jobs",
                    kind.name()
                );

                // Same completed job set.
                let mut ids_t: Vec<u64> = rt.jobs.iter().map(|j| j.id.0).collect();
                ids_t.sort_unstable();
                assert_eq!(
                    ids_a,
                    ids_t,
                    "{} seed {seed}: completed job sets differ on {backend_name}",
                    kind.name()
                );

                // Identical reveal order for every job observed by both.
                assert_eq!(
                    reveals_a.len(),
                    reveals_t.len(),
                    "{} seed {seed}: observed job sets differ on {backend_name}",
                    kind.name()
                );
                for (id, seq_a) in &reveals_a {
                    let seq_t = reveals_t.get(id).unwrap_or_else(|| {
                        panic!(
                            "{} seed {seed}: job {id} unseen on {backend_name}",
                            kind.name()
                        )
                    });
                    assert_eq!(
                        seq_a,
                        seq_t,
                        "{} seed {seed}: reveal order diverged for job {id} on {backend_name}",
                        kind.name()
                    );
                }
            }
        }
    }
}

/// Disaggregation changes timing boundedly: prefill queueing and KV
/// transfer add latency, decode-only batches remove the prefill
/// surcharge. The average JCT must stay within a plausibility band of
/// the aggregated analytic model, not collapse or explode.
#[test]
fn disagg_timing_stays_within_plausibility_band() {
    let (ra, _) = run_recorded(WorkloadKind::Mixed, EngineMode::Analytic, 18, 99);
    let (rd, _) = run_recorded(WorkloadKind::Mixed, EngineMode::Disagg, 18, 99);
    let ratio = rd.avg_jct_secs() / ra.avg_jct_secs();
    assert!(
        (0.5..2.5).contains(&ratio),
        "disagg JCT ratio {ratio:.3} outside plausibility band ({:.1}s vs {:.1}s)",
        rd.avg_jct_secs(),
        ra.avg_jct_secs()
    );
}

/// Timing may differ between fidelities, but only boundedly: token-level
/// quantizes decode to iteration boundaries, it does not change the work.
#[test]
fn backend_timing_stays_within_quantization_bounds() {
    let (ra, _) = run_recorded(WorkloadKind::Mixed, EngineMode::Analytic, 18, 99);
    let (rt, _) = run_recorded(WorkloadKind::Mixed, EngineMode::TokenLevel, 18, 99);
    let ratio = rt.avg_jct_secs() / ra.avg_jct_secs();
    assert!(
        (0.7..1.4).contains(&ratio),
        "cross-fidelity JCT ratio {ratio:.3} outside plausibility band ({:.1}s vs {:.1}s)",
        rt.avg_jct_secs(),
        ra.avg_jct_secs()
    );
}

/// Per-job completion work is identical across backends: every completed
/// job ran exactly its spec's tasks, whatever the batching model.
#[test]
fn per_job_jct_ordering_is_mostly_preserved() {
    // Kendall-tau-style check: the two backends should rank jobs by JCT
    // almost identically on a chain-like mix (discordant pairs can only
    // come from iteration-boundary quantization).
    let (ra, _) = run_recorded(WorkloadKind::ChainLike, EngineMode::Analytic, 18, 5);
    let (rt, _) = run_recorded(WorkloadKind::ChainLike, EngineMode::TokenLevel, 18, 5);
    let jct = |r: &SimResult| -> HashMap<u64, f64> {
        r.jobs
            .iter()
            .map(|j| (j.id.0, j.jct().as_secs_f64()))
            .collect()
    };
    let (ja, jt) = (jct(&ra), jct(&rt));
    let ids: Vec<u64> = ja.keys().copied().collect();
    let mut concordant = 0usize;
    let mut total = 0usize;
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            let da = ja[&a] - ja[&b];
            let dt = jt[&a] - jt[&b];
            total += 1;
            concordant += usize::from(da * dt >= 0.0);
        }
    }
    let frac = concordant as f64 / total as f64;
    assert!(
        frac > 0.85,
        "JCT orderings diverged: only {frac:.2} of pairs concordant"
    );
}
