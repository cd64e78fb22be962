//! A lazily-started persistent worker pool for the dense kernels.
//!
//! The kernels used to fan work out with `std::thread::scope`, paying a
//! thread spawn + join for every parallel matmul — tens of microseconds
//! that dwarf the compute at the small shapes the training pipeline
//! produces. This module keeps a process-wide set of parked workers
//! instead: the first parallel kernel call spawns them, and every later
//! call is just a queue push + wake.
//!
//! Design:
//!
//! * A **job** is a parallel-for: `total` tasks indexed `0..total`,
//!   claimed by an atomic ticket counter so tasks never overlap. The
//!   caller pushes the job, then *participates* — it claims tickets like
//!   any worker — so every job completes even if no worker thread could
//!   be spawned (spawn failure degrades to serial execution, never to an
//!   error).
//! * Workers park on a condvar when the queue is empty; they hold no
//!   locks while running tasks, and a job's submitter is the one who
//!   removes it from the queue, so job-struct lifetime is owned by `Arc`
//!   and nothing is ever freed under a running worker.
//! * The pool sizes itself from [`crate::threads::max_threads`] (the
//!   `DK_THREADS` / [`crate::threads::set_max_threads`] knobs) on every
//!   submission: raising the limit mid-process spawns the missing
//!   workers, lowering it simply leaves the extras parked — a job split
//!   into `w` tasks never runs on more than `w` threads regardless of
//!   pool size, so the split (and therefore every result) stays
//!   identical across pool reconfigurations.
//! * A panicking task is caught in the worker, recorded on the job, and
//!   re-raised in the submitting thread after the job drains, matching
//!   `std::thread::scope`'s propagation semantics closely enough for the
//!   kernel call sites (which only panic on dimension bugs).
//!
//! Determinism/bit-exactness is unaffected by any of this: task index
//! `t` maps to a fixed row range chosen by the *caller*, so scheduling
//! order changes which thread computes a range, never what the range
//! contains or what is written there.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// One queued parallel-for. `data`/`call` are a type-erased borrow of
/// the submitter's closure; see the safety argument on [`Job::work`].
struct Job {
    /// Pointer to the submitter's stack-held closure.
    data: *const (),
    /// Monomorphized shim that invokes `data` with a task index.
    call: unsafe fn(*const (), usize),
    /// Number of tasks; tickets `>= total` are no-ops.
    total: usize,
    /// Next unclaimed ticket.
    next: AtomicUsize,
    state: Mutex<JobState>,
    /// Signalled when `state.done` reaches `total`.
    cv: Condvar,
}

#[derive(Default)]
struct JobState {
    done: usize,
    panicked: bool,
}

// SAFETY: `data` points at an `F: Fn(usize) + Sync` borrowed for the
// duration of `run_tasks`, which does not return until all `total` task
// completions are recorded; tickets at or past `total` never touch
// `data`, so the pointer is only ever dereferenced while the closure is
// live, and only through `&F` (shared, `Sync`).
unsafe impl Send for Job {}
// SAFETY: as for `Send`; every other field is `Sync` on its own.
unsafe impl Sync for Job {}

impl Job {
    /// Claims tickets and runs their tasks until the counter exhausts.
    fn work(&self) {
        loop {
            let t = self.next.fetch_add(1, Ordering::Relaxed);
            if t >= self.total {
                return;
            }
            // SAFETY: t < total, so the submitter is still blocked in
            // `run_tasks` and the closure behind `data` is live.
            let panicked =
                catch_unwind(AssertUnwindSafe(|| unsafe { (self.call)(self.data, t) })).is_err();
            let mut st = self.state.lock().unwrap();
            st.done += 1;
            st.panicked |= panicked;
            if st.done == self.total {
                self.cv.notify_all();
            }
        }
    }

    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.total
    }
}

struct Pool {
    queue: Mutex<VecDeque<Arc<Job>>>,
    /// Wakes parked workers on job submission.
    cv: Condvar,
    /// Worker threads successfully spawned so far.
    workers: AtomicUsize,
    /// Serializes spawning so a thundering herd of submitters cannot
    /// overshoot the target worker count.
    spawn: Mutex<()>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        cv: Condvar::new(),
        workers: AtomicUsize::new(0),
        spawn: Mutex::new(()),
    })
}

fn worker_loop(pool: &'static Pool) {
    loop {
        let job = {
            let mut q = pool.queue.lock().unwrap();
            loop {
                if let Some(j) = q.iter().find(|j| !j.exhausted()) {
                    break j.clone();
                }
                q = pool.cv.wait(q).unwrap();
            }
        };
        job.work();
    }
}

impl Pool {
    /// Spawns workers until `want` are live (best-effort: a failed spawn
    /// stops trying; submitters still finish their own jobs serially).
    fn ensure_workers(&'static self, want: usize) {
        if self.workers.load(Ordering::Acquire) >= want {
            return;
        }
        let _g = self.spawn.lock().unwrap();
        let have = self.workers.load(Ordering::Acquire);
        for _ in have..want {
            let spawned = std::thread::Builder::new()
                .name("dk-linalg-pool".into())
                .spawn(move || worker_loop(self));
            if spawned.is_err() {
                return;
            }
            self.workers.fetch_add(1, Ordering::Release);
        }
    }
}

/// Calls the closure behind `data` with task index `t`.
///
/// # Safety
///
/// `data` must point to a live `F`, as [`run_tasks`] guarantees for every
/// ticket below `total`.
unsafe fn call_shim<F: Fn(usize) + Sync>(data: *const (), t: usize) {
    // SAFETY: `data` is a live `F` per the function contract.
    unsafe { (*(data as *const F))(t) }
}

/// Runs `f(0), f(1), …, f(total-1)` with the persistent pool, blocking
/// until every task has finished. The submitting thread participates,
/// so completion never depends on worker availability. Tasks may run
/// concurrently; callers are responsible for making them disjoint.
///
/// Serial fallback (no pool interaction, no allocation) when there is
/// at most one task or the thread limit is 1.
pub(crate) fn run_tasks<F: Fn(usize) + Sync>(total: usize, f: &F) {
    let threads = crate::threads::max_threads();
    if total <= 1 || threads <= 1 {
        for t in 0..total {
            f(t);
        }
        return;
    }
    let pool = pool();
    // The submitter is the extra lane: `threads` of parallelism needs
    // `threads - 1` pool workers.
    pool.ensure_workers(threads - 1);
    let job = Arc::new(Job {
        data: f as *const F as *const (),
        call: call_shim::<F>,
        total,
        next: AtomicUsize::new(0),
        state: Mutex::new(JobState::default()),
        cv: Condvar::new(),
    });
    pool.queue.lock().unwrap().push_back(job.clone());
    pool.cv.notify_all();
    job.work();
    let panicked = {
        let mut st = job.state.lock().unwrap();
        while st.done < job.total {
            st = job.cv.wait(st).unwrap();
        }
        st.panicked
    };
    // The submitter owns queue removal of its job; workers only ever
    // skip over exhausted entries.
    pool.queue.lock().unwrap().retain(|j| !Arc::ptr_eq(j, &job));
    if panicked {
        panic!("dk_linalg pool task panicked");
    }
}

/// A raw pointer the row-partitioned kernels smuggle across the task
/// closure. Soundness is the caller's: tasks must write through it only
/// at disjoint offsets (each task owns a fixed row range).
#[derive(Clone, Copy)]
pub(crate) struct SendPtr<T>(pub *mut T);

// SAFETY: see type docs — disjointness is guaranteed by the fixed
// task-index → row-range mapping at every call site.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as for `Send`: sharing the pointer only shares the right to
// write at offsets the call site keeps disjoint.
unsafe impl<T: Send> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn all_tasks_run_exactly_once() {
        crate::threads::set_max_threads(4);
        let hits: Vec<AtomicU64> = (0..97).map(|_| AtomicU64::new(0)).collect();
        run_tasks(hits.len(), &|t| {
            hits[t].fetch_add(1, Ordering::Relaxed);
        });
        crate::threads::set_max_threads(0);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn task_panic_propagates_to_submitter() {
        crate::threads::set_max_threads(2);
        let r = catch_unwind(|| {
            run_tasks(8, &|t| {
                if t == 5 {
                    panic!("boom");
                }
            })
        });
        crate::threads::set_max_threads(0);
        assert!(r.is_err(), "panic in a pooled task must re-raise in the submitter");
        // The pool must still be usable afterwards.
        crate::threads::set_max_threads(2);
        let n = AtomicU64::new(0);
        run_tasks(4, &|_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        crate::threads::set_max_threads(0);
        assert_eq!(n.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn serial_fallback_runs_inline() {
        crate::threads::set_max_threads(1);
        let n = AtomicU64::new(0);
        run_tasks(16, &|_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        crate::threads::set_max_threads(0);
        assert_eq!(n.load(Ordering::Relaxed), 16);
    }
}
