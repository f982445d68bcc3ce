//! Allocation-count smoke test for the hot-path memory layout and the
//! compiled posterior builds.
//!
//! The arena/SoA refactor's whole point is that steady-state simulation
//! does not churn the allocator: scheduler context projection, ready/
//! visible queries, event queueing and the completion cascades all run on
//! preallocated or borrowed storage. This harness installs a counting
//! global allocator, runs a 1k-job simulation, and asserts the
//! allocations *per simulated job* stay under a budget — a regression
//! here means someone put a per-event `Vec`/`HashMap` back on the hot
//! path.
//!
//! Per-layer allocation numbers for diagnosis come from the repository
//! benchmark's `alloc.*` rows (`perfbench/`), not from this test.
//!
//! The budget is deliberately loose (≈3× the measured value at the time
//! of writing) so it only trips on structural regressions, not on
//! allocator-pattern noise: growth of persistent caches (belief bands per
//! evidence state, preference lists) legitimately allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A pass-through allocator that counts every allocation.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counter is a relaxed atomic
// with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn thousand_job_sim_stays_under_allocation_budget() {
    use llmsched::prelude::*;
    use llmsched::{LlmSched, LlmSchedConfig};

    // Setup (training, workload generation) may allocate freely.
    let templates = all_templates();
    let corpus = training_jobs(&AppKind::ALL, 100, 1);
    let profiler =
        llmsched::Profiler::train(&templates, &corpus, &llmsched::ProfilerConfig::default());
    let n_jobs = 1_000usize;
    let cluster = ClusterConfig {
        regular_executors: 32,
        llm_executors: 8,
        ..WorkloadKind::Mixed.default_cluster()
    };

    let run = |sched: &mut dyn llmsched::sim::scheduler::Scheduler| -> f64 {
        let w = generate_workload(WorkloadKind::Mixed, n_jobs, 4.0, 42);
        let before = alloc_count();
        let r = llmsched::sim::engine::simulate(&cluster, &w.templates, w.jobs, sched);
        let during = alloc_count() - before;
        assert_eq!(r.incomplete, 0, "smoke sim must complete");
        during as f64 / n_jobs as f64
    };

    // Tier 1 — the engine + a delta-driven baseline: this is the pure
    // hot path (slab job table, SoA runtime state, indexed event core,
    // borrowed context projection). Measured ≈21 allocs/job; the budget
    // trips if a per-event Vec/HashMap lands back in the engine.
    let fcfs = run(&mut llmsched::schedulers::basic::Fcfs::new());
    assert!(
        fcfs < 100.0,
        "engine hot-path churn regressed: {fcfs:.0} allocs/job under FCFS (budget 100)"
    );

    // Tier 2 — full LLMSched (incremental): per-evidence caches and
    // compiled elimination plans legitimately allocate (≈57 allocs/job
    // measured; ≈317 before posterior builds and Eq. 6 joints ran
    // compiled plans), but the rebuild-per-call reference sits at ≈13k —
    // the budget catches a silent fallback to rebuild-scale recomputation.
    let full = run(&mut LlmSched::new(
        profiler.clone(),
        LlmSchedConfig::default(),
    ));
    assert!(
        full < 5_000.0,
        "LLMSched allocation churn regressed: {full:.0} allocs/job (budget 5000); \
         did the belief/evidence caches stop being shared?"
    );

    // Tier 3 — one posterior build whose elimination plan is already
    // cached: the plan runs in its reused arena, so the build allocates
    // only the three tables it returns (marginals, bands, Eq. 6 memo
    // slots). Measured 3; the budget of 8 trips if the build goes back
    // to reducing CPTs or allocating per elimination step.
    use llmsched::core::estimator::{EvidencePosteriors, PosteriorPlans};
    let profile = profiler
        .profile(AppKind::SequenceSorting.app_id())
        .expect("trained");
    let evidence: Evidence = [(0, 1)].into_iter().collect();
    let tail = llmsched::core::estimator::INTERVAL_TAIL_MASS;
    let mut plans = PosteriorPlans::default();
    EvidencePosteriors::build(profile, &evidence, true, tail, &mut plans);
    let before = alloc_count();
    let built = EvidencePosteriors::build(profile, &evidence, true, tail, &mut plans);
    let warm = alloc_count() - before;
    drop(built);
    assert!(
        warm <= 8,
        "a cached-plan posterior build made {warm} allocations (budget 8)"
    );
}
