//! The measurement loop: a first rotation over the instances (probed in
//! traced runs), untraced repeats in rotation, then (traced runs only)
//! traced repeats in rotation. Each timed rotation runs on the next CPU
//! in turn (`placement`). Every call is checked against its instance's
//! first call.

use std::time::{Duration, Instant};

use llmsched_sim::engine::{simulate, simulate_probed, ClusterConfig};
use llmsched_sim::metrics::SimResult;
use llmsched_sim::scheduler::Scheduler;
use llmsched_workloads::prelude::Workload as Instance;

use crate::alloc;
use crate::placement::{Pinned, Placement};
use crate::trace::{CountProbe, HookStats, Spans, Timed};

/// Minimum untraced calls of every instance, whatever the time budget.
const MIN_REPEATS: usize = 3;

/// What must repeat exactly between `simulate` calls on the same inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// FNV-1a over the completion order, each job's JCT bits and the
    /// average JCT's bits.
    pub hash: u64,
    /// Jobs completed.
    pub completed: usize,
    /// Jobs never completed.
    pub incomplete: usize,
    /// Simulation events.
    pub events: u64,
    /// Scheduler invocations.
    pub sched_calls: u64,
    /// Decision points skipped by coalescing.
    pub skipped: u64,
    /// Decision points elided at capacity.
    pub elided: u64,
    /// Decision points deferred under a staleness horizon.
    pub deferred: u64,
}

impl Fingerprint {
    /// Every decision point the engine evaluated.
    pub fn decision_points(&self) -> u64 {
        self.sched_calls + self.skipped + self.elided + self.deferred
    }
}

/// One `simulate` call's results.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The repeatable part.
    pub fp: Fingerprint,
    /// Host time the engine measured inside the scheduler.
    pub sched_wall: Duration,
    /// Per-invocation scheduler latency samples retained by the call.
    pub decision_samples: usize,
    /// Whether the samples are every invocation (not a decimated subset).
    pub samples_exact: bool,
}

fn fnv(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn outcome(r: &SimResult) -> Outcome {
    let hash = r
        .jobs
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, j| fnv(fnv(h, j.id.0), j.jct().0));
    Outcome {
        fp: Fingerprint {
            hash: fnv(hash, r.avg_jct_secs().to_bits()),
            completed: r.jobs.len(),
            incomplete: r.incomplete,
            events: r.events,
            sched_calls: r.sched_calls,
            skipped: r.sched_skipped,
            elided: r.sched_elided,
            deferred: r.sched_deferred,
        },
        sched_wall: r.sched_wall,
        decision_samples: r.sched_wall_samples.len(),
        samples_exact: r.sched_wall_samples.is_exact(),
    }
}

/// Lowers each scheduler invocation's latency in `best` to the call's, or
/// starts `best` from the call's samples. Every call of an instance makes
/// the same invocations (the fingerprint check), and the retained samples
/// depend only on their count, so they align by index.
fn keep_fastest(best: &mut Vec<Duration>, r: &SimResult) {
    let samples = r.sched_wall_samples.as_slice();
    if best.is_empty() {
        best.extend_from_slice(samples);
    } else {
        for (b, &s) in best.iter_mut().zip(samples) {
            *b = (*b).min(s);
        }
    }
}

/// Correctness checks: a failed check is recorded and printed, and fails
/// the run at the end.
#[derive(Default)]
pub struct Checks {
    /// Every failed check's message.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            println!("CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }
}

/// One timed untraced `simulate` call.
pub struct Repeat {
    /// Host seconds of the call.
    pub wall: f64,
    /// Host seconds of the call outside the scheduler.
    pub engine: f64,
}

/// One timed traced `simulate` call with everything recorded around it.
pub struct Traced {
    /// Host seconds of the call.
    pub wall: f64,
    /// The timing wrapper's counts and times.
    pub stats: HookStats,
    /// The `simulate` span and its hook spans.
    pub spans: Spans,
    /// Allocations during the call.
    pub allocs: u64,
    /// Peak growth of live heap bytes during the call.
    pub peak_live_bytes: u64,
}

/// Everything measured on one instance.
pub struct InstanceRun {
    /// The first call's results, which every later call must reproduce.
    pub reference: Outcome,
    /// Job completion times of the first call, in simulated seconds.
    pub jcts: Vec<f64>,
    /// Profile versions the policy's store published during the first
    /// call.
    pub snapshots: u64,
    /// Untraced repeats.
    pub untraced: Vec<Repeat>,
    /// Each scheduler invocation's shortest latency over the untraced
    /// calls, in invocation order.
    pub fastest_decisions: Vec<Duration>,
    /// Traced repeats (traced runs only).
    pub traced: Vec<Traced>,
    /// Executor and router counts of the probed first call (traced runs
    /// only).
    pub probe: Option<CountProbe>,
}

/// All instances' measurements plus the failure tally.
pub struct Measured {
    /// Per instance, in generation order.
    pub instances: Vec<InstanceRun>,
    /// Jobs submitted over every `simulate` call of the run.
    pub attempted: u64,
    /// Jobs that did not complete over every call of the run.
    pub failed: u64,
}

/// Runs the measured phases and returns every repeat. The first rotation
/// (one call per instance) gives the references; with `trace` set its
/// calls are probed and untimed. The untraced phase then lasts until
/// `seconds` (half of it when `trace` is set) have passed since the call,
/// and the traced phase until `seconds` have. Every instance gets at least
/// [`MIN_REPEATS`] untraced calls (two when tracing, as its first call is
/// the probed one) and one traced call. Instances repeat in rotation, so a
/// burst of load from other tenants slows a few repeats of every instance
/// rather than all repeats of one; `between_rounds` runs after each
/// rotation but the traced ones. `cfgs` holds each instance's cluster, and
/// `make(k)` builds a fresh policy for instance `k`.
#[allow(clippy::too_many_arguments)]
pub fn measure<S: Scheduler>(
    cfgs: &[ClusterConfig],
    instances: &[Instance],
    seconds: f64,
    trace: bool,
    origin: Instant,
    make: impl Fn(usize) -> S,
    versions: impl Fn(&S) -> u64,
    checks: &mut Checks,
    mut between_rounds: impl FnMut(),
) -> Measured {
    let started = Instant::now();
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Tallies one call's jobs and checks it: the first call of an
    // instance for completion, every later one against the first.
    let mut record = |checks: &mut Checks,
                      inst: &Instance,
                      o: &Outcome,
                      what: &str,
                      reference: Option<&Outcome>| {
        let n = inst.jobs.len();
        attempted += n as u64;
        failed += (n - o.fp.completed) as u64;
        if let Some(r) = reference {
            checks.check(o.fp == r.fp, || {
                format!(
                    "{what} differs from the first call: {:?} vs {:?}",
                    o.fp, r.fp
                )
            });
        } else {
            checks.check(o.fp.incomplete == 0 && o.fp.completed == n, || {
                format!(
                    "{} of {n} jobs completed ({} incomplete)",
                    o.fp.completed, o.fp.incomplete
                )
            });
        }
    };

    // The first rotation is also the warm-up: its outcomes are the
    // references, and its cold calls are never the fastest. When tracing,
    // it is the probed rotation: executor and router counts come from a
    // probe, and an enabled probe also switches on the policy's decision
    // provenance, so these calls are not timed; every later call must
    // still reproduce their schedules.
    let mut runs: Vec<InstanceRun> = instances
        .iter()
        .zip(cfgs)
        .enumerate()
        .map(|(k, (inst, cfg))| {
            let jobs = inst.jobs.clone();
            let mut sched = make(k);
            let before = versions(&sched);
            let mut counts = CountProbe::default();
            let t = Instant::now();
            let r = if trace {
                simulate_probed(cfg, &inst.templates, jobs, &mut sched, &mut counts)
            } else {
                simulate(cfg, &inst.templates, jobs, &mut sched)
            };
            let wall = t.elapsed().as_secs_f64();
            let reference = outcome(&r);
            record(checks, inst, &reference, "the first call", None);
            let mut fastest_decisions = Vec::new();
            if !trace {
                keep_fastest(&mut fastest_decisions, &r);
            }
            InstanceRun {
                fastest_decisions,
                jcts: r.jobs.iter().map(|j| j.jct().as_secs_f64()).collect(),
                snapshots: versions(&sched) - before,
                untraced: if trace {
                    Vec::new()
                } else {
                    vec![Repeat {
                        wall,
                        engine: wall - r.sched_wall.as_secs_f64(),
                    }]
                },
                reference,
                traced: Vec::new(),
                probe: trace.then_some(counts),
            }
        })
        .collect();
    between_rounds();

    let until = |phase_end: f64, min: usize, runs: &[InstanceRun], n: fn(&InstanceRun) -> usize| {
        runs.iter().any(|r| n(r) < min) || started.elapsed().as_secs_f64() < phase_end
    };
    let (untraced_end, untraced_min) = if trace {
        (seconds / 2.0, MIN_REPEATS - 1)
    } else {
        (seconds, MIN_REPEATS)
    };
    let mut k = 0;
    let mut placement = Placement::new();
    let mut cpu = None;
    while until(untraced_end, untraced_min, &runs, |r| r.untraced.len()) {
        if k == 0 {
            cpu = placement.next_round();
        }
        let (cfg, inst, run) = (&cfgs[k], &instances[k], &mut runs[k]);
        let jobs = inst.jobs.clone();
        let mut sched = Pinned::new(make(k), cpu);
        let t = Instant::now();
        let r = simulate(cfg, &inst.templates, jobs, &mut sched);
        let wall = t.elapsed().as_secs_f64();
        placement.release();
        let o = outcome(&r);
        keep_fastest(&mut run.fastest_decisions, &r);
        let engine = wall - r.sched_wall.as_secs_f64();
        drop((r, sched));
        record(checks, inst, &o, "an untraced repeat", Some(&run.reference));
        run.untraced.push(Repeat { wall, engine });
        k = (k + 1) % instances.len();
        if k == 0 {
            between_rounds();
        }
    }
    if !trace {
        return Measured {
            instances: runs,
            attempted,
            failed,
        };
    }

    let mut k = 0;
    while until(seconds, 1, &runs, |r| r.traced.len()) {
        if k == 0 {
            cpu = placement.next_round();
        }
        let (cfg, inst, run) = (&cfgs[k], &instances[k], &mut runs[k]);
        let jobs = inst.jobs.clone();
        let mut spans = Spans::new(origin);
        spans.reserve(2 * run.reference.fp.sched_calls as usize + 1);
        let now = Instant::now();
        let root = spans.push("simulate", now, now, None);
        let mut timed = Timed::new(Pinned::new(make(k), cpu), &mut spans, root);
        alloc::start();
        let t = Instant::now();
        let r = simulate(cfg, &inst.templates, jobs, &mut timed);
        let end = Instant::now();
        let (allocs, peak_live_bytes) = alloc::stop();
        placement.release();
        let stats = timed.stats;
        drop(timed);
        spans.set(root, t, end);
        let o = outcome(&r);
        drop(r);
        record(checks, inst, &o, "a traced repeat", Some(&run.reference));
        checks.check(stats.calls == o.fp.sched_calls, || {
            format!(
                "wrapper counted {} schedule calls, simulate reported {}",
                stats.calls, o.fp.sched_calls
            )
        });
        let hook_ns = stats.schedule_ns + stats.on_delta_ns;
        checks.check(hook_ns <= o.sched_wall.as_nanos() as u64, || {
            format!(
                "wrapper timed {hook_ns} ns in scheduler hooks, more than sched_wall {} ns",
                o.sched_wall.as_nanos()
            )
        });
        run.traced.push(Traced {
            wall: (end - t).as_secs_f64(),
            stats,
            spans,
            allocs,
            peak_live_bytes,
        });
        k = (k + 1) % instances.len();
    }
    Measured {
        instances: runs,
        attempted,
        failed,
    }
}

/// The fastest of an instance's repeats. The host is shared, and load
/// from other tenants only ever slows a call down, in episodes that can
/// last tens of seconds; the fastest call of each instance is the
/// estimate of the program's own speed that such episodes disturb least.
pub fn fastest<T>(repeats: &[T], wall: impl Fn(&T) -> f64) -> &T {
    repeats
        .iter()
        .min_by(|a, b| wall(a).partial_cmp(&wall(b)).expect("finite walls"))
        .expect("every instance has repeats")
}

/// Median of a non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}
