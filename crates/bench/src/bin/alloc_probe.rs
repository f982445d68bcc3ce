//! **Allocation probe** — per-job allocation counts across schedulers on
//! a 1k-job Mixed sim, via a counting global allocator.
//!
//! The companion of `tests/alloc_smoke.rs`: the test asserts budgets in
//! CI, this binary prints the actual numbers (engine + baselines vs
//! LLMSched incremental vs the rebuild reference) so layout regressions
//! can be localized by eye. The harness (allocator shim, corpus, cluster
//! shape, workload seed) deliberately mirrors the test's — keep the two
//! in sync when changing the measurement methodology.
//!
//! Usage: `cargo run --release -p llmsched-bench --bin alloc_probe`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
struct CountingAlloc;
static ALLOCS: AtomicU64 = AtomicU64::new(0);
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, n)
    }
}
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    llmsched_bench::cli::Cli::new("alloc_probe", &[]).parse();
    use llmsched_core::scheduler::{LlmSched, LlmSchedConfig};
    use llmsched_sim::engine::ClusterConfig;
    use llmsched_workloads::prelude::*;
    let templates = all_templates();
    let corpus = training_jobs(&AppKind::ALL, 100, 1);
    let profiler = llmsched_core::profiler::Profiler::train(
        &templates,
        &corpus,
        &llmsched_core::profiler::ProfilerConfig::default(),
    );
    let n_jobs = 1_000;
    let cluster = ClusterConfig {
        regular_executors: 32,
        llm_executors: 8,
        ..WorkloadKind::Mixed.default_cluster()
    };

    for name in [
        "fcfs",
        "srtf",
        "llmsched",
        "llmsched-nounc",
        "llmsched-nobn",
        "llmsched-rebuild",
    ] {
        let w = generate_workload(WorkloadKind::Mixed, n_jobs, 4.0, 42);
        let mut sched: Box<dyn llmsched_sim::scheduler::Scheduler> = match name {
            "fcfs" => Box::new(llmsched_schedulers::basic::Fcfs::new()),
            "srtf" => Box::new(llmsched_schedulers::basic::Srtf::new(
                llmsched_schedulers::util::AppPriors::from_training(
                    &corpus,
                    cluster.latency.per_token_b1(),
                ),
            )),
            "llmsched-nounc" => Box::new(LlmSched::new(
                profiler.clone(),
                LlmSchedConfig {
                    use_uncertainty: false,
                    ..LlmSchedConfig::default()
                },
            )),
            "llmsched-nobn" => Box::new(LlmSched::new(
                profiler.clone(),
                LlmSchedConfig {
                    use_bn: false,
                    ..LlmSchedConfig::default()
                },
            )),
            "llmsched-rebuild" => Box::new(LlmSched::new(
                profiler.clone(),
                LlmSchedConfig {
                    incremental: false,
                    ..LlmSchedConfig::default()
                },
            )),
            _ => Box::new(LlmSched::new(profiler.clone(), LlmSchedConfig::default())),
        };
        let before = ALLOCS.load(Ordering::Relaxed);
        let r = llmsched_sim::engine::simulate(&cluster, &w.templates, w.jobs, &mut sched);
        let during = ALLOCS.load(Ordering::Relaxed) - before;
        println!(
            "{name}: {:.0} allocs/job, incomplete {}",
            during as f64 / n_jobs as f64,
            r.incomplete
        );
    }
}
