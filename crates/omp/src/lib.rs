//! An OpenMP-3.0-like baseline runtime (the "libGOMP" of the reproduction).
//!
//! Implements the mechanisms the paper measures against GCC 4.6.2's OpenMP:
//!
//! * a persistent thread team running **parallel regions** with an implicit
//!   end barrier;
//! * **worksharing loops** with `static`, `static,chunk`, `dynamic,chunk`
//!   and `guided` schedules ([`Schedule`]);
//! * **explicit tasks** with a *centralized* task queue, the libGOMP
//!   throttle (tasks beyond `64 × num_threads` in flight execute
//!   immediately), `taskwait`, and the 1-thread artifact the paper calls out
//!   (with a team of one, task creation degenerates to a function call);
//! * a sense-reversing team [`barrier::CentralBarrier`].
//!
//! The point of this crate is to be *faithful to the weight class*: a
//! mutex-protected global queue and allocation per task is exactly what
//! makes fine-grained task parallelism collapse in Fig. 1, and the
//! phase-barrier style it forces on the sparse Cholesky is what Fig. 7
//! measures.

#![warn(missing_docs)]

pub mod barrier;

use barrier::CentralBarrier;
use parking_lot::{Condvar, Mutex};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use xkaapi_core::CentralQueue;

/// Worksharing loop schedule (the `schedule(...)` clause).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// One contiguous block per thread.
    Static,
    /// Round-robin blocks of the given chunk size.
    StaticChunk(usize),
    /// Threads claim chunks of the given size from a shared counter.
    Dynamic(usize),
    /// Exponentially decreasing chunks, at least the given minimum.
    Guided(usize),
}

/// libGOMP's task-throttle factor: beyond `64 × threads` queued tasks, new
/// tasks run immediately in the creating thread.
pub const TASK_THROTTLE_FACTOR: usize = 64;

type TaskFn = Box<dyn FnOnce(&OmpCtx<'_>) + Send>;

struct TaskNode {
    f: TaskFn,
    /// Counter of the spawning context, decremented on completion.
    parent: Arc<TaskCounter>,
}

struct TaskCounter {
    pending: AtomicUsize,
}

struct RegionSlot {
    /// Erased region body: `fn(ctx)`.
    body: *const (dyn Fn(&OmpCtx<'_>) + Sync),
    gen: usize,
}
unsafe impl Send for RegionSlot {}

struct Inner {
    nthreads: usize,
    /// Region dispatch: generation counter + body pointer.
    region: Mutex<Option<RegionSlot>>,
    region_cv: Condvar,
    gen: AtomicUsize,
    /// Centralized task queue (the QUARK/libGOMP-style contention point),
    /// the same structure the engine's `QueueKind::Central` is built on.
    tasks: CentralQueue<TaskNode>,
    tasks_inflight: AtomicUsize,
    barrier: CentralBarrier,
    /// End-of-region rendezvous (master waits here).
    done_count: AtomicUsize,
    done_mx: Mutex<()>,
    done_cv: Condvar,
    shutdown: AtomicBool,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// The OpenMP-like runtime: a persistent team of threads.
pub struct OmpPool {
    inner: Arc<Inner>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

/// Per-thread context inside a parallel region.
pub struct OmpCtx<'r> {
    inner: &'r Arc<Inner>,
    tid: usize,
    /// Children spawned by the current task context.
    counter: Arc<TaskCounter>,
}

impl OmpPool {
    /// Team of `n` threads.
    pub fn new(n: usize) -> OmpPool {
        assert!(n >= 1);
        let inner = Arc::new(Inner {
            nthreads: n,
            region: Mutex::new(None),
            region_cv: Condvar::new(),
            gen: AtomicUsize::new(0),
            tasks: CentralQueue::new(),
            tasks_inflight: AtomicUsize::new(0),
            barrier: CentralBarrier::new(n),
            done_count: AtomicUsize::new(0),
            done_mx: Mutex::new(()),
            done_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            panic: Mutex::new(None),
        });
        let mut threads = Vec::new();
        for tid in 0..n {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("omp-{tid}"))
                    .stack_size(16 << 20)
                    .spawn(move || team_main(inner, tid))
                    .unwrap(),
            );
        }
        OmpPool { inner, threads }
    }

    /// Team size.
    pub fn num_threads(&self) -> usize {
        self.inner.nthreads
    }

    /// Run a parallel region: `body` executes once per team thread, with an
    /// implicit task-draining barrier at the end. Blocks the caller.
    pub fn parallel<F>(&self, body: F)
    where
        F: Fn(&OmpCtx<'_>) + Sync,
    {
        let inner = &self.inner;
        // Erase the body lifetime; we block until the region fully ends.
        let ptr: *const (dyn Fn(&OmpCtx<'_>) + Sync) = &body;
        let ptr: *const (dyn Fn(&OmpCtx<'_>) + Sync) = unsafe { std::mem::transmute(ptr) };
        {
            let mut slot = inner.region.lock();
            debug_assert!(
                slot.is_none(),
                "nested/concurrent parallel regions not supported"
            );
            let gen = inner.gen.load(Ordering::Relaxed) + 1;
            *slot = Some(RegionSlot { body: ptr, gen });
            inner.done_count.store(0, Ordering::Relaxed);
            inner.gen.store(gen, Ordering::Release);
            inner.region_cv.notify_all();
        }
        // Wait for all team threads to finish the region.
        let mut g = inner.done_mx.lock();
        while inner.done_count.load(Ordering::Acquire) < inner.nthreads {
            inner.done_cv.wait(&mut g);
        }
        drop(g);
        inner.region.lock().take();
        let p = inner.panic.lock().take();
        if let Some(p) = p {
            resume_unwind(p);
        }
    }

    /// `#pragma omp parallel for` over `range`.
    pub fn parallel_for<F>(&self, range: Range<usize>, schedule: Schedule, body: F)
    where
        F: Fn(usize) + Sync,
    {
        self.parallel_for_chunks(range, schedule, |r| {
            for i in r {
                body(i);
            }
        });
    }

    /// Chunked worksharing loop (the schedules hand out whole chunks).
    pub fn parallel_for_chunks<F>(&self, range: Range<usize>, schedule: Schedule, body: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        let n = range.end.saturating_sub(range.start);
        if n == 0 {
            return;
        }
        let p = self.inner.nthreads;
        if p == 1 {
            body(range);
            return;
        }
        let next = AtomicUsize::new(range.start);
        let base = range.start;
        let end = range.end;
        self.parallel(|ctx| {
            let tid = ctx.thread_num();
            match schedule {
                Schedule::Static => {
                    let lo = base + n * tid / p;
                    let hi = base + n * (tid + 1) / p;
                    if lo < hi {
                        body(lo..hi);
                    }
                }
                Schedule::StaticChunk(c) => {
                    let c = c.max(1);
                    let mut lo = base + tid * c;
                    while lo < end {
                        body(lo..(lo + c).min(end));
                        lo += p * c;
                    }
                }
                Schedule::Dynamic(c) => {
                    let c = c.max(1);
                    loop {
                        let lo = next.fetch_add(c, Ordering::Relaxed);
                        if lo >= end {
                            break;
                        }
                        body(lo..(lo + c).min(end));
                    }
                }
                Schedule::Guided(min) => {
                    let min = min.max(1);
                    loop {
                        let lo = next.load(Ordering::Relaxed);
                        if lo >= end {
                            break;
                        }
                        let remaining = end - lo;
                        let c = (remaining / (2 * p)).max(min).min(remaining);
                        if next
                            .compare_exchange_weak(lo, lo + c, Ordering::Relaxed, Ordering::Relaxed)
                            .is_ok()
                        {
                            body(lo..lo + c);
                        }
                    }
                }
            }
        });
    }

    /// Run `producer` on one thread while the rest of the team executes the
    /// tasks it creates; returns when the producer finished and the task
    /// queue drained (the `parallel` + `single` idiom of task codes).
    pub fn single_producer<F>(&self, producer: F)
    where
        F: Fn(&OmpCtx<'_>) + Sync,
    {
        self.parallel(|ctx| {
            if ctx.thread_num() == 0 {
                producer(ctx);
            }
            // Others fall through to the region-end barrier, which drains
            // the task queue.
        });
    }
}

impl Drop for OmpPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        {
            let _g = self.inner.region.lock();
            self.inner.region_cv.notify_all();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn record_panic(inner: &Inner, p: Box<dyn std::any::Any + Send>) {
    let mut slot = inner.panic.lock();
    if slot.is_none() {
        *slot = Some(p);
    }
}

fn pop_task(inner: &Inner) -> Option<TaskNode> {
    inner.tasks.pop_front()
}

fn run_task(inner: &Arc<Inner>, tid: usize, node: TaskNode) {
    let child_counter = Arc::new(TaskCounter {
        pending: AtomicUsize::new(0),
    });
    let ctx = OmpCtx {
        inner,
        tid,
        counter: child_counter,
    };
    let res = catch_unwind(AssertUnwindSafe(|| (node.f)(&ctx)));
    // Implicit wait for nested children before signalling completion
    // (OpenMP tied-task semantics at end of task region).
    ctx.taskwait();
    if let Err(p) = res {
        record_panic(inner, p);
    }
    node.parent.pending.fetch_sub(1, Ordering::AcqRel);
    inner.tasks_inflight.fetch_sub(1, Ordering::AcqRel);
}

fn team_main(inner: Arc<Inner>, tid: usize) {
    let mut seen_gen = 0usize;
    loop {
        // Wait for the next region (or shutdown).
        {
            let mut slot = inner.region.lock();
            loop {
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(r) = slot.as_ref() {
                    if r.gen > seen_gen {
                        seen_gen = r.gen;
                        break;
                    }
                }
                inner.region_cv.wait(&mut slot);
            }
        }
        let body_ptr = {
            let slot = inner.region.lock();
            slot.as_ref().map(|r| r.body)
        };
        let Some(body_ptr) = body_ptr else { continue };
        let body: &(dyn Fn(&OmpCtx<'_>) + Sync) = unsafe { &*body_ptr };
        let counter = Arc::new(TaskCounter {
            pending: AtomicUsize::new(0),
        });
        let ctx = OmpCtx {
            inner: &inner,
            tid,
            counter,
        };
        let res = catch_unwind(AssertUnwindSafe(|| body(&ctx)));
        if let Err(p) = res {
            record_panic(&inner, p);
        }
        // Implicit region-end: drain the task queue, then barrier.
        loop {
            match pop_task(&inner) {
                Some(node) => run_task(&inner, tid, node),
                None => {
                    if inner.tasks_inflight.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    std::thread::yield_now();
                }
            }
        }
        inner.barrier.wait();
        // Signal the master.
        if inner.done_count.fetch_add(1, Ordering::AcqRel) + 1 == inner.nthreads {
            let _g = inner.done_mx.lock();
            inner.done_cv.notify_all();
        }
    }
}

impl<'r> OmpCtx<'r> {
    /// This thread's id within the team.
    pub fn thread_num(&self) -> usize {
        self.tid
    }

    /// Team size.
    pub fn num_threads(&self) -> usize {
        self.inner.nthreads
    }

    /// `#pragma omp task`: create an explicit task.
    ///
    /// Runs immediately (a plain call) when the team has one thread — the
    /// libGOMP artifact the paper observes at 1 core — or when more than
    /// `64 × threads` tasks are in flight (the libGOMP throttle).
    pub fn task<F>(&self, f: F)
    where
        F: FnOnce(&OmpCtx<'_>) + Send + 'r,
    {
        let inner = self.inner;
        if inner.nthreads == 1 {
            let ctx = OmpCtx {
                inner,
                tid: self.tid,
                counter: Arc::new(TaskCounter {
                    pending: AtomicUsize::new(0),
                }),
            };
            f(&ctx);
            ctx.taskwait();
            return;
        }
        let inflight = inner.tasks_inflight.load(Ordering::Acquire);
        if inflight > TASK_THROTTLE_FACTOR * inner.nthreads {
            // Throttled: undeferred execution.
            let ctx = OmpCtx {
                inner,
                tid: self.tid,
                counter: Arc::new(TaskCounter {
                    pending: AtomicUsize::new(0),
                }),
            };
            f(&ctx);
            ctx.taskwait();
            return;
        }
        self.counter.pending.fetch_add(1, Ordering::AcqRel);
        inner.tasks_inflight.fetch_add(1, Ordering::AcqRel);
        let boxed: Box<dyn FnOnce(&OmpCtx<'_>) + Send + 'r> = Box::new(f);
        // Safety: tasks complete before the region ends (implicit barrier),
        // and `'r` outlives the region.
        let boxed: TaskFn = unsafe { std::mem::transmute(boxed) };
        inner.tasks.push_back(TaskNode {
            f: boxed,
            parent: Arc::clone(&self.counter),
        });
    }

    /// `#pragma omp taskwait`: wait for the children of the current task,
    /// executing queued tasks meanwhile.
    pub fn taskwait(&self) {
        while self.counter.pending.load(Ordering::Acquire) > 0 {
            match pop_task(self.inner) {
                Some(node) => {
                    let inner = Arc::clone(self.inner);
                    run_task(&inner, self.tid, node);
                }
                None => std::thread::yield_now(),
            }
        }
    }

    /// Current number of queued+running explicit tasks (for tests).
    pub fn tasks_in_flight(&self) -> usize {
        self.inner.tasks_inflight.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn parallel_region_runs_team() {
        let pool = OmpPool::new(4);
        let count = AtomicUsize::new(0);
        pool.parallel(|ctx| {
            count.fetch_add(1 + ctx.thread_num(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1 + 2 + 3 + 4);
    }

    #[test]
    fn parallel_for_static_covers() {
        let pool = OmpPool::new(3);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(0..1000, Schedule::Static, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_all_schedules_cover() {
        let pool = OmpPool::new(4);
        for sched in [
            Schedule::Static,
            Schedule::StaticChunk(7),
            Schedule::Dynamic(13),
            Schedule::Guided(4),
        ] {
            let hits: Vec<AtomicUsize> = (0..777).map(|_| AtomicUsize::new(0)).collect();
            pool.parallel_for(0..777, sched, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "schedule {sched:?} missed or duplicated iterations"
            );
        }
    }

    #[test]
    fn empty_range_ok() {
        let pool = OmpPool::new(2);
        pool.parallel_for(5..5, Schedule::Dynamic(1), |_| panic!("must not run"));
    }

    #[test]
    fn tasks_run_and_taskwait_orders() {
        let pool = OmpPool::new(4);
        let sum = AtomicUsize::new(0);
        let after_wait = AtomicUsize::new(0);
        pool.single_producer(|ctx| {
            let sum = &sum;
            for i in 0..100usize {
                ctx.task(move |_| {
                    sum.fetch_add(i, Ordering::Relaxed);
                });
            }
            ctx.taskwait();
            after_wait.store(sum.load(Ordering::Relaxed), Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
        assert_eq!(
            after_wait.load(Ordering::Relaxed),
            4950,
            "taskwait saw all children"
        );
    }

    #[test]
    fn nested_tasks_complete() {
        let pool = OmpPool::new(3);
        let count = AtomicUsize::new(0);
        pool.single_producer(|ctx| {
            for _ in 0..10 {
                ctx.task(|c2| {
                    count.fetch_add(1, Ordering::Relaxed);
                    for _ in 0..5 {
                        c2.task(|_| {
                            count.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 10 * 6);
    }

    #[test]
    fn single_thread_degenerates_to_call() {
        // The 1-core libGOMP artifact: tasks execute inline, immediately.
        let pool = OmpPool::new(1);
        let order = parking_lot::Mutex::new(Vec::new());
        pool.single_producer(|ctx| {
            let order = &order;
            for i in 0..5 {
                ctx.task(move |_| {
                    order.lock().push(i);
                });
                order.lock().push(100 + i); // runs after task i (inline exec)
            }
        });
        assert_eq!(*order.lock(), vec![0, 100, 1, 101, 2, 102, 3, 103, 4, 104]);
    }

    #[test]
    fn fib_with_omp_tasks() {
        // The Fig. 1 benchmark shape on the OpenMP baseline.
        let pool = OmpPool::new(4);
        fn fib(ctx: &OmpCtx<'_>, n: u64, out: &AtomicUsize) {
            if n < 2 {
                out.fetch_add(n as usize, Ordering::Relaxed);
                return;
            }
            ctx.task(move |c| fib(c, n - 1, out));
            fib(ctx, n - 2, out);
            // per-call taskwait as in the paper's program
            ctx.taskwait();
        }
        let out = AtomicUsize::new(0);
        pool.single_producer(|ctx| {
            fib(ctx, 16, &out);
        });
        assert_eq!(out.load(Ordering::Relaxed), 987);
    }

    #[test]
    fn panic_in_region_propagates() {
        let pool = OmpPool::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel(|ctx| {
                if ctx.thread_num() == 1 {
                    panic!("region boom");
                }
            });
        }));
        assert!(r.is_err());
        // team survives
        let c = AtomicUsize::new(0);
        pool.parallel(|_| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(c.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn guided_chunks_decrease() {
        let pool = OmpPool::new(4);
        let sizes = parking_lot::Mutex::new(Vec::new());
        pool.parallel_for_chunks(0..10_000, Schedule::Guided(8), |r| {
            sizes.lock().push(r.len());
        });
        let sizes = sizes.lock();
        let total: usize = sizes.iter().sum();
        assert_eq!(total, 10_000);
        assert!(
            *sizes.iter().max().unwrap() > 8,
            "guided starts with large chunks"
        );
    }
}
