//! The persistent worker pool: morsel-driven task scheduling with
//! work-stealing deques.
//!
//! One [`WorkerPool`] lives inside every [`crate::DistContext`] and is
//! created **once** per context — operators no longer pay a
//! `std::thread::scope` spawn per execution. The pool models the cluster's
//! `workers` executors as `workers` *participants*:
//!
//! * `workers - 1` persistent OS threads, each owning one work-stealing
//!   deque (slot `1..workers`);
//! * the **calling thread** of [`WorkerPool::run`], which owns slot `0` and
//!   executes tasks while it waits — so a 1-worker cluster runs everything
//!   inline on the caller with zero pool threads, and an N-worker cluster
//!   never runs more than N tasks concurrently.
//!
//! Tasks are distributed round-robin over the slots (task `i` starts on slot
//! `i % workers`, the same deterministic placement the old scoped-thread
//! striping had); a participant that drains its own deque **steals** from its
//! siblings' deques (oldest task first). Each steal is counted and surfaced
//! as [`crate::StatsSnapshot::steal_count`] — the scheduler-stress suite
//! leans on uneven morsel sizes to exercise this path.
//!
//! [`WorkerPool::run`] blocks until every submitted task completed, which is
//! what makes borrowing sound: tasks may borrow from the caller's stack
//! (source partitions, fused pipeline closures, output sinks) because the
//! borrow provably outlives every execution. A panicking task does not tear
//! down the pool: the first panic payload is re-raised on the calling thread
//! *after* all tasks of the scope have settled, so sinks and spill files
//! unwind through their normal `Drop` paths (the spill × pipeline tests hold
//! this to "no leaked spill files after a mid-pipeline panic").
//!
//! Nested `run` calls are allowed (an operator executing on a worker may
//! itself fan out): the nested caller participates from its own slot, so
//! progress is guaranteed even when every pool thread is blocked inside a
//! nested scope.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A unit of scheduled work. The `bool` argument tells the task whether it
/// was *stolen* (executed by a participant other than the slot it was
/// assigned to), which is how per-scope steal counts stay exact.
type Task = Box<dyn FnOnce(bool) + Send>;

thread_local! {
    /// The slot a pool thread owns; `None` on non-pool threads (which act as
    /// slot 0 when they call [`WorkerPool::run`]).
    static PARTICIPANT: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

struct PoolShared {
    /// One work-stealing deque per participant (slot 0 = callers).
    slots: Vec<Mutex<VecDeque<Task>>>,
    /// Number of queued-but-not-yet-taken tasks across all slots.
    queued: AtomicUsize,
    /// Guard for sleeping workers.
    idle: Mutex<()>,
    /// Signalled when tasks are pushed or the pool shuts down.
    work_cond: Condvar,
    shutdown: AtomicBool,
    /// Total steals performed over the pool's lifetime.
    steals: AtomicU64,
}

impl PoolShared {
    /// Takes one task, preferring the participant's own deque and stealing
    /// the *oldest* task of a sibling deque otherwise. Returns the task and
    /// whether taking it was a steal.
    fn grab(&self, preferred: usize) -> Option<(Task, bool)> {
        let n = self.slots.len();
        for offset in 0..n {
            let slot = (preferred + offset) % n;
            let task = {
                // A poisoned deque only means a sibling panicked while
                // holding the lock; recover the guard so the settle-before-
                // unwind path reports the *first* panic, not this one.
                let mut deque = self.slots[slot].lock().unwrap_or_else(|e| e.into_inner());
                if offset == 0 {
                    // Own deque: submission order (a scope pushes all its
                    // tasks up front, so FIFO walks partitions in order).
                    deque.pop_front()
                } else {
                    // Steal from the opposite end, away from the owner.
                    deque.pop_back()
                }
            };
            if let Some(task) = task {
                self.queued.fetch_sub(1, Ordering::Relaxed);
                if offset != 0 {
                    self.steals.fetch_add(1, Ordering::Relaxed);
                }
                return Some((task, offset != 0));
            }
        }
        None
    }

    fn push(&self, slot: usize, task: Task) {
        self.slots[slot % self.slots.len()]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(task);
        self.queued.fetch_add(1, Ordering::Relaxed);
    }

    fn wake_workers(&self) {
        let _guard = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        self.work_cond.notify_all();
    }
}

/// Completion state of one [`WorkerPool::run`] scope.
struct ScopeState {
    pending: AtomicUsize,
    /// First panic payload raised by a task of this scope.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Steals observed on this scope's tasks.
    steals: AtomicU64,
    done: Mutex<()>,
    done_cond: Condvar,
}

/// The persistent work-stealing worker pool of one [`crate::DistContext`].
///
/// See the [module docs](self) for the execution model. Dropping the pool
/// shuts the worker threads down and joins them.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("participants", &self.shared.slots.len())
            .field("threads", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool modelling `workers` executors: `workers - 1` persistent
    /// threads plus the calling thread of each [`WorkerPool::run`]. A panic
    /// that escapes onto a worker loop restarts the loop in place — a fault
    /// kills a task, never a pool slot.
    pub fn new(workers: usize) -> WorkerPool {
        let participants = workers.max(1);
        let shared = Arc::new(PoolShared {
            slots: (0..participants)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            queued: AtomicUsize::new(0),
            idle: Mutex::new(()),
            work_cond: Condvar::new(),
            shutdown: AtomicBool::new(false),
            steals: AtomicU64::new(0),
        });
        // A worker thread the OS refuses to spawn leaves its slot to the
        // stealers: every `run` caller drains all slots until its scope
        // settles, so the pool stays correct, only narrower.
        let handles = (1..participants)
            .filter_map(|slot| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("trance-worker-{slot}"))
                    .spawn(move || {
                        // Self-healing loop: a panic escaping the worker
                        // loop (task panics are caught per task in `run`)
                        // restarts the loop instead of silently shrinking
                        // the pool.
                        loop {
                            if catch_unwind(AssertUnwindSafe(|| worker_loop(&shared, slot))).is_ok()
                            {
                                break; // clean shutdown
                            }
                            if shared.shutdown.load(Ordering::Acquire) {
                                break;
                            }
                        }
                    })
                    .ok()
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of participants (the configured worker count).
    pub fn participants(&self) -> usize {
        self.shared.slots.len()
    }

    /// Total steals performed over the pool's lifetime.
    pub fn steal_count(&self) -> u64 {
        self.shared.steals.load(Ordering::Relaxed)
    }

    /// Runs `tasks` on the pool and blocks until all of them completed,
    /// returning how many were executed by a participant other than the slot
    /// they were assigned to (the scope's steal count).
    ///
    /// Task `i` is assigned to slot `i % workers` — the same deterministic
    /// placement as the old per-operator scoped threads. The calling thread
    /// participates (it owns slot 0, or its own slot when it *is* a pool
    /// worker running a nested scope). If any task panicked, the first
    /// payload is re-raised here after every task of the scope settled.
    pub fn run<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) -> u64 {
        if tasks.is_empty() {
            return 0;
        }
        let state = Arc::new(ScopeState {
            pending: AtomicUsize::new(tasks.len()),
            panic: Mutex::new(None),
            steals: AtomicU64::new(0),
            done: Mutex::new(()),
            done_cond: Condvar::new(),
        });
        for (i, task) in tasks.into_iter().enumerate() {
            // SAFETY: `run` does not return before `state.pending` hits zero,
            // i.e. before every submitted task has finished executing, so the
            // `'env` borrows inside the task outlive its execution. The task
            // is boxed, moved exactly once into the queue and consumed
            // exactly once by a participant.
            let task: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
            let scope = Arc::clone(&state);
            let wrapped: Task = Box::new(move |stolen| {
                if stolen {
                    scope.steals.fetch_add(1, Ordering::Relaxed);
                }
                if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                    let mut slot = scope.panic.lock().unwrap_or_else(|e| e.into_inner());
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
                if scope.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                    let _guard = scope.done.lock().unwrap_or_else(|e| e.into_inner());
                    scope.done_cond.notify_all();
                }
            });
            self.shared.push(i, wrapped);
        }
        self.shared.wake_workers();

        // The caller participates from its own slot (0 for external threads,
        // the owned slot for a pool worker running a nested scope), then
        // keeps helping with *any* runnable task until the scope drains —
        // this is what makes nested scopes deadlock-free.
        let preferred = PARTICIPANT.with(|p| p.get()).unwrap_or(0);
        while state.pending.load(Ordering::Acquire) > 0 {
            match self.shared.grab(preferred) {
                Some((task, stolen)) => task(stolen),
                None => {
                    let guard = state.done.lock().unwrap_or_else(|e| e.into_inner());
                    if state.pending.load(Ordering::Acquire) > 0 {
                        // Timed wait: the remaining tasks run on workers that
                        // may finish between our check and the wait. Poison
                        // here is survivable too — the scope's first panic is
                        // re-raised below, not masked by a second one.
                        let _ = state
                            .done_cond
                            .wait_timeout(guard, Duration::from_millis(1))
                            .unwrap_or_else(|e| e.into_inner());
                    }
                }
            }
        }
        if let Some(payload) = state.panic.lock().unwrap_or_else(|e| e.into_inner()).take() {
            std::panic::resume_unwind(payload);
        }
        state.steals.load(Ordering::Relaxed)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake_workers();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, slot: usize) {
    PARTICIPANT.with(|p| p.set(Some(slot)));
    loop {
        if let Some((task, stolen)) = shared.grab(slot) {
            task(stolen);
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let guard = shared.idle.lock().unwrap_or_else(|e| e.into_inner());
        if shared.queued.load(Ordering::Relaxed) == 0 && !shared.shutdown.load(Ordering::Acquire) {
            // Timed wait keeps a missed notify benign.
            let _ = shared
                .work_cond
                .wait_timeout(guard, Duration::from_millis(10))
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Per-partition mutable state threaded through a **sequential** fused
/// pipeline: the partition index, the cluster's id stride, and one running
/// row counter per id-assigning pipeline member (`AddIndex`) — so a
/// partition's ids are `partition + row * stride` for its rows in order,
/// however many chunks it streams in.
#[derive(Debug)]
pub struct MorselCtx {
    /// Index of the partition this morsel belongs to.
    pub partition: usize,
    /// Id stride (the cluster's partition count).
    pub stride: i64,
    counters: Vec<i64>,
}

impl MorselCtx {
    /// State for one partition of a pipeline run.
    pub fn new(partition: usize, stride: i64) -> MorselCtx {
        MorselCtx {
            partition,
            stride,
            counters: Vec::new(),
        }
    }

    /// Reserves `n` consecutive per-partition row indices on counter `slot`
    /// (one slot per id-assigning pipeline member), returning the first.
    pub fn reserve(&mut self, slot: usize, n: usize) -> i64 {
        if self.counters.len() <= slot {
            self.counters.resize(slot + 1, 0);
        }
        let start = self.counters[slot];
        self.counters[slot] += n as i64;
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn pool_runs_all_tasks_and_reports_completion() {
        let pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..64)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn single_worker_pool_runs_inline_in_order() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.participants(), 1);
        let order = Mutex::new(Vec::new());
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8)
            .map(|i| {
                let order = &order;
                Box::new(move || order.lock().unwrap().push(i)) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        let steals = pool.run(tasks);
        assert_eq!(steals, 0, "a 1-participant pool cannot steal");
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn panics_propagate_after_the_scope_settles_and_pool_survives() {
        let pool = WorkerPool::new(3);
        let completed = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..12)
                .map(|i| {
                    let completed = &completed;
                    Box::new(move || {
                        if i == 5 {
                            panic!("morsel task failure");
                        }
                        completed.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run(tasks);
        }));
        assert!(result.is_err(), "the task panic must reach the caller");
        assert_eq!(
            completed.load(Ordering::Relaxed),
            11,
            "all non-panicking tasks still run before the panic re-raises"
        );
        // The pool stays healthy for the next scope.
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..6)
            .map(|_| {
                let counter = &counter;
                Box::new(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn imbalanced_tasks_get_stolen() {
        let pool = WorkerPool::new(2);
        // Slot 0 (the caller) gets one long task; slot 1's worker drains its
        // own deque and then must steal the caller's remaining tasks.
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..16)
            .map(|i| {
                Box::new(move || {
                    if i == 0 {
                        std::thread::sleep(Duration::from_millis(40));
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        let steals = pool.run(tasks);
        assert!(
            steals >= 1,
            "the idle participant should steal from the busy one (saw {steals})"
        );
        assert!(pool.steal_count() >= steals);
    }

    #[test]
    fn nested_scopes_make_progress() {
        let pool = Arc::new(WorkerPool::new(2));
        let total = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let total = &total;
                Box::new(move || {
                    let inner: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                        .map(|_| {
                            Box::new(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            }) as Box<dyn FnOnce() + Send + '_>
                        })
                        .collect();
                    pool.run(inner);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(tasks);
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn morsel_ctx_reserves_consecutive_ranges_per_slot() {
        let mut cx = MorselCtx::new(3, 8);
        assert_eq!(cx.reserve(0, 10), 0);
        assert_eq!(cx.reserve(0, 5), 10);
        assert_eq!(cx.reserve(1, 4), 0);
        assert_eq!(cx.reserve(0, 1), 15);
        assert_eq!(cx.reserve(1, 2), 4);
    }
}
