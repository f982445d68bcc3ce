//! Which CPU the timed calls run on.
//!
//! On a shared host, other tenants' load slows one vCPU at a time: timed
//! side by side on a 2-vCPU host, the same loop ran up to 1.7x slower on
//! one vCPU while the other ran at full speed, and which one was slow
//! changed within seconds. Left alone, the kernel keeps the busy thread
//! where it is, so a whole run could spend its calls on the slow vCPU.
//! So every measurement rotation runs on the next CPU in turn: [`Pinned`]
//! pins the calling thread to it when the engine resets the scheduler,
//! which is after the engine has built its worker pool. The pool's
//! threads therefore keep every CPU, the engine sizes the pool as it
//! would without this, and only the calling thread stays put.

use std::mem::size_of;

use llmsched_sim::scheduler::{Preference, SchedContext, SchedDelta, Scheduler};
use llmsched_sim::telemetry::DecisionRecord;

/// A `cpu_set_t` for up to 1024 CPUs.
type Mask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut Mask) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const Mask) -> i32;
}

/// Restricts the calling thread to `mask`. A failed call leaves the
/// thread where it was, which only loses the rotation.
fn set(mask: &Mask) {
    // SAFETY: `mask` is a valid `cpu_set_t` of the size passed; pid 0 is
    // the calling thread.
    unsafe {
        sched_setaffinity(0, size_of::<Mask>(), mask);
    }
}

/// The calling thread's allowed CPUs and the rotations so far.
pub struct Placement {
    allowed: Mask,
    cpus: Vec<usize>,
    rounds: usize,
}

impl Placement {
    /// Reads the calling thread's allowed CPUs.
    pub fn new() -> Placement {
        let mut allowed: Mask = [0; 16];
        // SAFETY: the kernel writes at most `size_of::<Mask>()` bytes.
        let ok = unsafe { sched_getaffinity(0, size_of::<Mask>(), &mut allowed) } == 0;
        let cpus = if ok {
            (0..64 * allowed.len())
                .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        } else {
            Vec::new()
        };
        Placement {
            allowed,
            cpus,
            rounds: 0,
        }
    }

    /// The CPU the next rotation runs on: the allowed CPUs in turn, or
    /// `None` (run anywhere) with fewer than two of them.
    pub fn next_round(&mut self) -> Option<usize> {
        self.rounds += 1;
        (self.cpus.len() >= 2).then(|| self.cpus[(self.rounds - 1) % self.cpus.len()])
    }

    /// Lets the calling thread run on every allowed CPU again.
    pub fn release(&self) {
        if self.cpus.len() >= 2 {
            set(&self.allowed);
        }
    }
}

/// Forwards every hook to `inner`; on `reset` it first pins the calling
/// thread to `cpu`, if one is given.
pub struct Pinned<S> {
    inner: S,
    cpu: Option<usize>,
}

impl<S: Scheduler> Pinned<S> {
    /// Wraps `inner`, to run on `cpu`.
    pub fn new(inner: S, cpu: Option<usize>) -> Self {
        Pinned { inner, cpu }
    }
}

impl<S: Scheduler> Scheduler for Pinned<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Preference {
        self.inner.schedule(ctx)
    }

    fn on_delta(&mut self, delta: &SchedDelta) {
        self.inner.on_delta(delta);
    }

    fn reset(&mut self) {
        if let Some(cpu) = self.cpu {
            let mut one: Mask = [0; 16];
            one[cpu / 64] = 1 << (cpu % 64);
            set(&one);
        }
        self.inner.reset();
    }

    fn set_telemetry(&mut self, enabled: bool) {
        self.inner.set_telemetry(enabled);
    }

    fn drain_provenance(&mut self, out: &mut Vec<DecisionRecord>) {
        self.inner.drain_provenance(out);
    }

    fn is_work_conserving(&self) -> bool {
        self.inner.is_work_conserving()
    }
}
