//! A persistent worker pool for epoch-parallel work.
//!
//! [`WorkerPool`] owns long-lived OS threads, one bounded-lifetime work
//! queue per worker, and a barrier-style handoff: [`WorkerPool::scatter_map`]
//! enqueues one task per item, runs the first item on the calling thread,
//! blocks until every task has completed, and returns the results in item
//! order.  This is the execution substrate behind
//! [`ExecutionMode::Pooled`](crate::engine::ExecutionMode::Pooled) — and,
//! via the `deepdive` controller, behind parallel warning-model refits and
//! synthetic-benchmark training.  The threads persist because the
//! controller loop steps one epoch at a time (it migrates VMs between
//! epochs): spawning and joining threads inside every step would cost more
//! than the step itself on small fleets.
//!
//! Two entry points share the machinery: [`WorkerPool::scatter_map`] maps a
//! shared function over a mutable slice with **no boxed closure per item**
//! (tasks are small raw descriptors pointing into a caller-owned context
//! arena — what per-epoch callers like the engine's pooled shard loop want,
//! since they re-scatter every epoch), and [`WorkerPool::scatter`] wraps it
//! for one-shot heterogeneous closures.
//!
//! ## Contract
//!
//! * **Determinism** — the pool never reorders results: `scatter(jobs)`
//!   returns `jobs[i]`'s result at index `i` regardless of which worker ran
//!   it or in what order jobs finished.  Callers that merge shard results
//!   in input order therefore get output bit-identical to running the jobs
//!   serially.
//! * **Panic policy** — every job runs under [`std::panic::catch_unwind`].
//!   A panicking job never takes its worker down; the scatter waits for the
//!   full barrier (so no job can outlive the borrows it captured), then
//!   re-raises the **first panicking job's payload** (lowest job index) on
//!   the calling thread via [`std::panic::resume_unwind`].  The pool stays
//!   fully usable for the next scatter.
//! * **Shutdown** — dropping the pool closes every queue and joins every
//!   worker thread; no threads outlive the pool.
//! * **No nesting** — a job must not scatter on the pool that is running
//!   it: the inner call would enqueue work onto workers that may be
//!   blocked on the outer barrier (including the job's own worker) and
//!   deadlock.  Use a separate pool, or restructure so only the
//!   coordinating thread scatters.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A type-erased unit of work: a monomorphised trampoline, the context it
/// runs on, and the task's own completion signal.  Tasks are constructed by
/// [`WorkerPool::scatter_map`], whose completion barrier guarantees the
/// context outlives the task's `run` call — that is what makes sending raw
/// pointers to persistent threads sound.  Unlike a boxed closure, a
/// `RawTask` allocates nothing, so per-epoch callers (the epoch engine
/// re-scatters its shards every epoch) pay no heap churn per job.
struct RawTask {
    /// Trampoline that knows the concrete context type behind `ctx`.
    // SAFETY: calling this is sound only with the `ctx` pointer stored
    // alongside it — `scatter_map` monomorphises the trampoline and builds
    // the pair together, so the pointee type always matches.
    run: unsafe fn(*const ()),
    /// Points into the coordinating thread's context arena.
    ctx: *const (),
    /// Completion signal, owned by the task rather than the arena: the
    /// coordinating thread may free the arena the moment it has every
    /// receipt, possibly while this `send` is still returning, so nothing
    /// the sender touches may live there.
    done: Sender<()>,
}

// SAFETY: the context behind `ctx` is owned by the coordinating thread,
// which keeps it alive and un-moved until every task has signalled
// completion (the scatter barrier); each task reads only its own context
// and writes only through that context's item/slot pointers, which target
// storage disjoint from every other task's.  `done` is an owned `Sender`,
// which is `Send` in its own right.
unsafe impl Send for RawTask {}

impl RawTask {
    /// Runs the task, then signals completion.  The signal is the task's
    /// last touch of anything the coordinating thread owns: after `run`
    /// returns the context is never read again, and the send goes through
    /// the task's own `Sender`.
    ///
    /// # Safety
    /// `ctx` must still be alive, per the [`RawTask`] contract — which
    /// `scatter_map` guarantees until it has received this task's signal.
    unsafe fn execute(self) {
        // SAFETY: caller contract — the context is alive and `run` is the
        // trampoline built for it.
        unsafe { (self.run)(self.ctx) };
        let _ = self.done.send(());
    }
}

/// Per-item context for [`WorkerPool::scatter_map`]: everything the
/// trampoline needs, laid out in an arena the coordinating thread owns for
/// the duration of the call.
struct MapCtx<I, T, F> {
    /// The item this task maps — element `i` of the caller's slice; no two
    /// contexts alias.
    item: *mut I,
    /// Where this task's result lands — element `i` of the result arena;
    /// no two contexts alias.
    slot: *mut Option<std::thread::Result<T>>,
    /// The shared map function (`F: Sync` at the only construction site,
    /// so concurrent shared calls are sound).
    f: *const F,
}

/// The trampoline behind [`WorkerPool::scatter_map`]: runs the map function
/// on the context's item under `catch_unwind` and stores the result.  Never
/// unwinds, so a worker's receive loop survives any panicking job.
///
/// # Safety
/// `ctx` must point to a live `MapCtx<I, T, F>` whose item and slot
/// pointers are exclusively owned by this call (scatter_map's arena
/// construction) and stay alive until this call returns (scatter_map's
/// barrier waits for the completion signal sent after it).
unsafe fn run_map<I, T, F: Fn(&mut I) -> T>(ctx: *const ()) {
    // SAFETY: caller contract — `ctx` points to a live `MapCtx<I, T, F>`
    // that outlives this call.
    let ctx = unsafe { &*ctx.cast::<MapCtx<I, T, F>>() };
    // SAFETY: caller contract — `f` is a live `Sync` function shared by
    // every task, and `item` is storage this task exclusively owns.
    let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*ctx.f)(&mut *ctx.item) }));
    // SAFETY: caller contract — `slot` is storage this task exclusively
    // owns; the write is published to the coordinating thread through the
    // happens-before edge of the completion signal sent after this returns.
    unsafe { ctx.slot.write(Some(result)) };
}

/// Long-lived worker threads with one work queue each.
///
/// See the [module docs](self) for the determinism, panic and shutdown
/// contract.  The pool is `Send + Sync`; share it across owners with
/// [`std::sync::Arc`] (the epoch engine and the DeepDive controller are
/// designed to share one pool this way).
pub struct WorkerPool {
    /// One queue per worker, index-aligned with `handles`.
    queues: Vec<Sender<RawTask>>,
    /// The worker threads; joined (in order) on drop, after their queues
    /// are closed.
    handles: Vec<JoinHandle<()>>,
    /// Upgradeable while at least one worker thread is still running —
    /// each worker owns one strong clone of the token, and nothing else
    /// does.  This is what lets lifecycle tests prove drop really joins.
    liveness: std::sync::Weak<()>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `workers` persistent worker threads.
    ///
    /// `workers` counts *helper* threads only: `scatter` always runs the
    /// first job on the calling thread, so a pool built for `t`-way
    /// parallelism wants `t - 1` workers (see [`WorkerPool::for_threads`]).
    /// A pool with zero workers is valid — `scatter` then runs every job
    /// inline, which is the degenerate serial case.
    pub fn new(workers: usize) -> Self {
        let token = Arc::new(());
        let liveness = Arc::downgrade(&token);
        let mut queues = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for index in 0..workers {
            let (tx, rx) = mpsc::channel::<RawTask>();
            let alive = Arc::clone(&token);
            let handle = std::thread::Builder::new()
                .name(format!("cloudsim-pool-{index}"))
                .spawn(move || {
                    let _alive = alive;
                    // Tasks never unwind (the trampoline wraps every job
                    // in catch_unwind), so this loop only ends when the
                    // queue disconnects at pool drop.
                    for task in rx {
                        // SAFETY: `scatter_map` keeps the task's context
                        // alive and un-moved until it receives the task's
                        // completion signal, and no other task shares this
                        // task's item/slot storage.
                        unsafe { task.execute() };
                    }
                })
                .expect("spawn cloudsim pool worker");
            queues.push(tx);
            handles.push(handle);
        }
        Self {
            queues,
            handles,
            liveness,
        }
    }

    /// A pool sized for `threads`-way parallelism: `threads - 1` workers
    /// plus the calling thread (`threads <= 1` yields an inline-only pool).
    pub fn for_threads(threads: usize) -> Self {
        Self::new(threads.saturating_sub(1))
    }

    /// Number of worker threads (excluding the calling thread).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Total parallel lanes a `scatter` call can use: the workers plus the
    /// calling thread.
    pub fn lanes(&self) -> usize {
        self.workers() + 1
    }

    /// A probe that upgrades while any worker thread is still running and
    /// fails once the pool has been dropped — the hook lifecycle tests use
    /// to prove drop joins every worker instead of leaking them.
    pub fn liveness(&self) -> std::sync::Weak<()> {
        self.liveness.clone()
    }

    /// Maps `f` over `items` concurrently, in place, returning the results
    /// in item order.
    ///
    /// This is the low-overhead scatter primitive: per call it allocates
    /// only the context arena and the result vector — tasks are raw
    /// descriptors, never boxed closures — so per-epoch callers (the epoch
    /// engine re-scatters its shards every single epoch) pay no heap churn
    /// per job.
    ///
    /// Item 0 runs on the calling thread; items `1..` are distributed
    /// round-robin over the per-worker queues (with more items than
    /// workers, a worker drains its queue in FIFO order).  The call blocks
    /// until every item has been mapped — the epoch barrier — and only then
    /// returns, so `f` may freely borrow from the caller's stack.  Panics
    /// follow the [module](self) policy: barrier first, then the
    /// lowest-index panic payload is re-raised here.
    pub fn scatter_map<I, T, F>(&self, items: &mut [I], f: &F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(&mut I) -> T + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let mut slots: Vec<Option<std::thread::Result<T>>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        // The context arena: fully built before anything is dispatched, so
        // it never reallocates while workers hold pointers into it.
        let ctxs: Vec<MapCtx<I, T, F>> = items
            .iter_mut()
            .zip(slots.iter_mut())
            .map(|(item, slot)| MapCtx { item, slot, f })
            .collect();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        for (index, ctx) in ctxs.iter().enumerate().skip(1) {
            let task = RawTask {
                run: run_map::<I, T, F>,
                ctx: (ctx as *const MapCtx<I, T, F>).cast(),
                done: done_tx.clone(),
            };
            if self.queues.is_empty() {
                // SAFETY: the context is alive (arena above) and
                // exclusively owns its item/slot; inline execution
                // trivially precedes the barrier.
                unsafe { task.execute() };
            } else if let Err(rejected) = self.queues[(index - 1) % self.queues.len()].send(task) {
                // A closed queue is unreachable while the pool is alive
                // (workers only exit when their Sender drops, in Drop), but
                // degrade to inline execution rather than lose the job.
                // SAFETY: as for the inline branch above.
                unsafe { rejected.0.execute() };
            }
        }
        drop(done_tx);
        // The calling thread is lane 0.  The trampoline catches panics, so
        // a panicking item 0 still reaches the barrier below — unwinding
        // past it while workers hold pointers into the arena would be
        // undefined behaviour.
        // SAFETY: context 0 is alive and exclusively owns its item/slot.
        unsafe { run_map::<I, T, F>((&ctxs[0] as *const MapCtx<I, T, F>).cast()) };
        // The barrier: every dispatched task signals exactly once, after
        // its `run` returned, so `n - 1` receipts prove every slot is
        // written and no pointer into the arena or the caller's slice is
        // still in use.  The senders travel with the tasks, so the arena
        // can be dropped while a worker is still inside its `send`.  Err
        // (every sender gone) would mean no further signal can arrive; it
        // is unreachable, because a task only drops its sender after
        // sending.
        for _ in 1..n {
            if done_rx.recv().is_err() {
                break;
            }
        }
        drop(ctxs);
        let mut out = Vec::with_capacity(n);
        let mut panic: Option<Box<dyn Any + Send>> = None;
        for slot in slots {
            match slot.expect("barrier guarantees every item was mapped") {
                Ok(value) => out.push(value),
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        out
    }

    /// Runs the jobs concurrently and returns their results in job order.
    ///
    /// A convenience wrapper over [`WorkerPool::scatter_map`] for one-shot
    /// heterogeneous closures; same dispatch, barrier and panic behaviour.
    /// Costs one `Option` wrapper per job — callers on a per-epoch hot path
    /// should use `scatter_map` directly over their shard slice.
    pub fn scatter<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        F: FnOnce() -> T + Send,
        T: Send,
    {
        let mut jobs: Vec<Option<F>> = jobs.into_iter().map(Some).collect();
        self.scatter_map(&mut jobs, &|job: &mut Option<F>| match job.take() {
            Some(job) => job(),
            None => unreachable!("scatter_map visits each item exactly once"),
        })
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing a worker's queue ends its receive loop; joining then
        // completes promptly.  Workers never unwind (tasks are
        // catch_unwind-wrapped), so a join error is unreachable.
        self.queues.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Splits `items` into at most `shards` contiguous chunks whose lengths
/// differ by at most one (the first `len % shards` chunks take the extra
/// item).  With `len >= shards` the result has **exactly** `shards`
/// non-empty chunks — unlike `chunks_mut(len.div_ceil(shards))`, which can
/// produce far fewer (65 items at 64 shards → 33 chunks of 2, half the
/// workers idle).  Concatenating the chunks in order reproduces `items`.
pub fn split_balanced<T>(mut items: &mut [T], shards: usize) -> Vec<&mut [T]> {
    let shards = shards.clamp(1, items.len().max(1));
    let base = items.len() / shards;
    let extra = items.len() % shards;
    let mut out = Vec::with_capacity(shards);
    for index in 0..shards {
        let take = base + usize::from(index < extra);
        let (head, rest) = items.split_at_mut(take);
        out.push(head);
        items = rest;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_preserves_job_order() {
        let pool = WorkerPool::new(3);
        for jobs in [1usize, 2, 4, 17] {
            let work: Vec<_> = (0..jobs).map(|i| move || i * i).collect();
            let results = pool.scatter(work);
            let expected: Vec<_> = (0..jobs).map(|i| i * i).collect();
            assert_eq!(results, expected, "order lost at {jobs} jobs");
        }
    }

    #[test]
    fn scatter_runs_inline_with_zero_workers() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 0);
        assert_eq!(pool.lanes(), 1);
        let results = pool.scatter((0..5).map(|i| move || i + 10).collect::<Vec<_>>());
        assert_eq!(results, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn scatter_borrows_caller_state_mutably() {
        let pool = WorkerPool::new(2);
        let mut buckets = [0u64; 6];
        {
            let shards = split_balanced(&mut buckets, 3);
            let jobs: Vec<_> = shards
                .into_iter()
                .enumerate()
                .map(|(i, shard)| {
                    move || {
                        for slot in shard.iter_mut() {
                            *slot = 100 + i as u64;
                        }
                    }
                })
                .collect();
            pool.scatter(jobs);
        }
        assert_eq!(buckets, [100, 100, 101, 101, 102, 102]);
    }

    #[test]
    fn panic_payload_of_the_lowest_index_job_is_reraised() {
        let pool = WorkerPool::new(3);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scatter(
                (0..6)
                    .map(|i| {
                        move || {
                            if i >= 2 {
                                panic!("job {i} failed");
                            }
                            i
                        }
                    })
                    .collect::<Vec<_>>(),
            )
        }));
        let payload = result.expect_err("scatter must re-raise the panic");
        let message = payload
            .downcast_ref::<String>()
            .expect("payload preserved verbatim");
        assert_eq!(message, "job 2 failed");
    }

    #[test]
    fn workers_survive_panicking_jobs() {
        let pool = WorkerPool::new(2);
        for round in 0..3 {
            let crashed = catch_unwind(AssertUnwindSafe(|| {
                pool.scatter(
                    (0..4)
                        .map(|i| move || if i == 3 { panic!("boom {round}") } else { i })
                        .collect::<Vec<_>>(),
                )
            }));
            assert!(crashed.is_err());
            // The pool must keep working after every crash.
            let ok = pool.scatter((0..4).map(|i| move || i * 2).collect::<Vec<_>>());
            assert_eq!(ok, vec![0, 2, 4, 6]);
        }
    }

    #[test]
    fn drop_joins_every_worker() {
        let pool = WorkerPool::new(4);
        let probe = pool.liveness();
        assert!(probe.upgrade().is_some(), "workers must be running");
        drop(pool);
        assert!(
            probe.upgrade().is_none(),
            "drop returned before all workers exited"
        );
    }

    #[test]
    fn repeated_construction_leaks_no_threads() {
        let mut probes = Vec::new();
        for _ in 0..32 {
            let pool = WorkerPool::new(4);
            pool.scatter((0..8).map(|i| move || i).collect::<Vec<_>>());
            probes.push(pool.liveness());
        }
        for (i, probe) in probes.iter().enumerate() {
            assert!(probe.upgrade().is_none(), "pool {i} leaked workers");
        }
    }

    #[test]
    fn balanced_split_produces_exactly_the_requested_shards() {
        // (len, shards, expected shard count) — including the 65-at-64 case
        // the old div_ceil chunking got wrong (33 shards of 2).
        for (len, shards, expected) in [
            (65usize, 64usize, 64usize),
            (7, 3, 3),
            (16, 5, 5),
            (12, 4, 4),
            (3, 8, 3),
            (1, 1, 1),
            (1, 16, 1),
            (0, 4, 1),
        ] {
            let mut items: Vec<usize> = (0..len).collect();
            let chunks = split_balanced(&mut items, shards);
            assert_eq!(chunks.len(), expected, "{len} items at {shards} shards");
            let sizes: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
            let max = sizes.iter().max().copied().unwrap_or(0);
            let min = sizes.iter().min().copied().unwrap_or(0);
            assert!(
                max - min <= 1,
                "{len} items at {shards} shards: uneven sizes {sizes:?}"
            );
            let rejoined: Vec<usize> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
            let expected_items: Vec<usize> = (0..len).collect();
            assert_eq!(rejoined, expected_items, "order not preserved");
        }
    }

    #[test]
    fn more_jobs_than_workers_queue_fifo_per_worker() {
        let pool = WorkerPool::new(2);
        let results = pool.scatter((0..33).map(|i| move || i).collect::<Vec<_>>());
        assert_eq!(results, (0..33).collect::<Vec<_>>());
    }

    #[test]
    fn scatter_map_mutates_in_place_and_returns_in_order() {
        let pool = WorkerPool::new(3);
        for n in [1usize, 2, 4, 17] {
            let mut items: Vec<u64> = (0..n as u64).collect();
            let results = pool.scatter_map(&mut items, &|item: &mut u64| {
                *item += 100;
                *item * 2
            });
            let expected_items: Vec<u64> = (0..n as u64).map(|i| i + 100).collect();
            let expected_results: Vec<u64> = expected_items.iter().map(|i| i * 2).collect();
            assert_eq!(items, expected_items, "in-place mutation lost at {n}");
            assert_eq!(results, expected_results, "order lost at {n}");
        }
    }

    #[test]
    fn scatter_map_runs_inline_with_zero_workers() {
        let pool = WorkerPool::new(0);
        let mut items = [1u32, 2, 3];
        let results = pool.scatter_map(&mut items, &|item: &mut u32| *item * 10);
        assert_eq!(results, vec![10, 20, 30]);
    }

    #[test]
    fn scatter_map_reraises_the_lowest_index_panic() {
        let pool = WorkerPool::new(3);
        let mut items: Vec<usize> = (0..6).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scatter_map(&mut items, &|item: &mut usize| {
                if *item >= 2 {
                    panic!("item {item} failed");
                }
                *item
            })
        }));
        let payload = result.expect_err("scatter_map must re-raise the panic");
        let message = payload
            .downcast_ref::<String>()
            .expect("payload preserved verbatim");
        assert_eq!(message, "item 2 failed");
        // The pool must keep working after the crash.
        let mut items = [5u32];
        assert_eq!(pool.scatter_map(&mut items, &|i: &mut u32| *i), vec![5]);
    }

    #[test]
    fn scatter_map_results_can_borrow_via_pure_values() {
        // A map function shared by reference across threads: sums into
        // per-item results with no interior mutability needed.
        let pool = WorkerPool::new(2);
        let bias = 7u64;
        let f = |item: &mut u64| *item + bias;
        let mut items: Vec<u64> = (0..9).collect();
        let results = pool.scatter_map(&mut items, &f);
        assert_eq!(results, (7..16).collect::<Vec<u64>>());
    }
}
