//! Execution-track integration suite (DESIGN.md §10): the offload and io
//! engines behind [`Track`] routing.
//!
//! * **equivalence** — routing every task of a dataflow wavefront to the
//!   offload track changes *where* bodies run and *when* successors are
//!   released (completion drain, not body return), but never the result:
//!   checksums match the CPU track across all four queue×steal policy
//!   combinations;
//! * **completion feeds readiness** — on one worker, a successor of an
//!   offloaded task only runs after the engine's completion drains back
//!   through the inject lanes;
//! * **io isolation** — `.wait_external()` work blocked on an external
//!   event holds an io thread, never a CPU worker: a full CPU scope
//!   completes while the blockers sit parked, and the `tasks_io` counter
//!   proves where they ran;
//! * **lifecycle across the boundary** — a panic in an offloaded body
//!   poisons its dataflow cone exactly like a CPU panic, and a cancelled
//!   token skips offloaded bodies without losing the scope.
//!
//! [`Track`]: xkaapi::core::Track

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use xkaapi::core::{CancelToken, QueueKind, Runtime, Shared, StealPolicy, Track};

const COMBO_NAMES: [&str; 4] = [
    "dist+agg",
    "dist+perthief",
    "central+agg",
    "central+perthief",
];

/// One of the four queue×steal policy combinations, with a fast offload
/// engine (1 µs launch latency keeps the suite quick; the batching and
/// completion paths are identical).
fn build_rt(combo: usize, workers: usize) -> Runtime {
    let steal = if combo.is_multiple_of(2) {
        StealPolicy::Aggregated
    } else {
        StealPolicy::PerThief
    };
    let queue = if combo >= 2 {
        QueueKind::Central
    } else {
        QueueKind::Distributed
    };
    Runtime::builder()
        .workers(workers)
        .steal_policy(steal)
        .queue(queue)
        .offload_launch_latency_us(1)
        .build()
}

/// Dataflow wavefront with every task routed to `track`: an n×n grid
/// where (i,j) reads (i−1,j) and (i,j−1). Returns the last tile.
fn wavefront(rt: &Runtime, n: usize, track: Track) -> u64 {
    let tiles: Vec<Shared<u64>> = (0..n * n).map(|_| Shared::new(0u64)).collect();
    rt.scope(|ctx| {
        for i in 0..n {
            for j in 0..n {
                let me = tiles[i * n + j].clone();
                let up = (i > 0).then(|| tiles[(i - 1) * n + j].clone());
                let left = (j > 0).then(|| tiles[i * n + j - 1].clone());
                let mut accs = vec![me.write()];
                accs.extend(up.as_ref().map(|h| h.read()));
                accs.extend(left.as_ref().map(|h| h.read()));
                ctx.task().accesses(accs).track(track).spawn(move |t| {
                    let u = up.as_ref().map_or(1, |h| *t.read(h));
                    let l = left.as_ref().map_or(1, |h| *t.read(h));
                    *t.write(&me) = u.wrapping_add(l).wrapping_mul(2654435761);
                });
            }
        }
    });
    *tiles[n * n - 1].get()
}

/// Offload on vs off: identical checksums across all four scheduler
/// policy combinations, and the offload run really went through the
/// engine (routed, batched, drained — not silently run on the CPU).
#[test]
fn offload_checksum_equivalence_across_policies() {
    let n = 8usize;
    for (combo, name) in COMBO_NAMES.iter().enumerate() {
        let rt_cpu = build_rt(combo, 4);
        let cpu = wavefront(&rt_cpu, n, Track::Cpu);
        assert_eq!(
            rt_cpu.stats().tasks_offloaded,
            0,
            "[{name}] the CPU run must not touch the engine"
        );
        let rt_off = build_rt(combo, 4);
        let off = wavefront(&rt_off, n, Track::Offload);
        assert_eq!(cpu, off, "[{name}] offload changed the wavefront result");
        let s = rt_off.stats();
        let tasks = (n * n) as u64;
        assert_eq!(s.tasks_offloaded, tasks, "[{name}] every task routed");
        assert_eq!(s.offload_completions, tasks, "[{name}] every task drained");
        assert!(s.offload_batches > 0, "[{name}] launches were batched");
        assert!(
            s.offload_h2d > 0 && s.offload_d2h == tasks,
            "[{name}] transfers synthesized (h2d {}, d2h {})",
            s.offload_h2d,
            s.offload_d2h
        );
    }
}

/// On a single worker there is no second CPU to sneak the successor in:
/// B (CPU track) reads what A (offload track) wrote, so B can only run
/// after A's completion drains from the engine back through the inject
/// lanes. The observed order and the drain counter prove the release
/// came from the completion stream, not from A's spawn or body return.
#[test]
fn completion_feeds_readiness_on_one_worker() {
    let rt = Runtime::builder()
        .workers(1)
        .offload_launch_latency_us(1)
        .build();
    let h = Shared::new(0u64);
    let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
    rt.scope(|ctx| {
        let (hw, ord) = (h.clone(), Arc::clone(&order));
        ctx.task()
            .access(h.exclusive())
            .track(Track::Offload)
            .spawn(move |t| {
                ord.lock().unwrap().push("offloaded");
                *t.write(&hw) = 7;
            });
        let (hw, ord) = (h.clone(), Arc::clone(&order));
        ctx.task().access(h.exclusive()).spawn(move |t| {
            ord.lock().unwrap().push("successor");
            *t.write(&hw) += 1;
        });
    });
    assert_eq!(*h.get(), 8, "successor saw the offloaded write");
    assert_eq!(*order.lock().unwrap(), ["offloaded", "successor"]);
    let s = rt.stats();
    assert_eq!(s.tasks_offloaded, 1);
    assert_eq!(
        s.offload_completions, 1,
        "the successor was released by the completion drain"
    );
}

/// Blocking io work never occupies a CPU worker: park `wait_external`
/// jobs behind a gate, run a whole CPU scope to completion while they
/// sit blocked, then release them. The io engine's own counter (and the
/// untouched offload counters) pin down where every body ran.
#[test]
fn io_track_never_occupies_a_cpu_worker() {
    let workers = 2usize;
    let rt = Arc::new(Runtime::builder().workers(workers).io_threads(1).build());
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    // One blocker per CPU worker — if these held CPU workers, the scope
    // below would have no worker left to run on.
    let blockers: Vec<_> = (0..workers)
        .map(|_| {
            let gate = Arc::clone(&gate);
            rt.task()
                .wait_external()
                .submit(move |_ctx| {
                    let (mx, cv) = &*gate;
                    let mut open = mx.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                    11u64
                })
                .expect("io admission is unbounded")
        })
        .collect();
    // The whole CPU pool is still available while the blockers wait.
    let sum = rt.foreach_reduce(
        0..10_000,
        None,
        || 0u64,
        |a, i| *a += i as u64,
        |a, b| a + b,
    );
    assert_eq!(sum, 49_995_000, "CPU scope completed alongside blockers");
    {
        let (mx, cv) = &*gate;
        *mx.lock().unwrap() = true;
        cv.notify_all();
    }
    for b in blockers {
        assert_eq!(b.wait(), 11);
    }
    let s = rt.stats();
    assert_eq!(
        s.tasks_io, workers as u64,
        "every blocker ran on the io thread set"
    );
    assert_eq!(s.tasks_offloaded, 0);

    // An io *task* inside a dataflow scope: the io body's write releases
    // a CPU successor — readiness crosses the track boundary both ways.
    let h = Shared::new(0u64);
    rt.scope(|ctx| {
        let hw = h.clone();
        ctx.task()
            .access(h.exclusive())
            .wait_external()
            .spawn(move |t| *t.write(&hw) = 5);
        let hw = h.clone();
        ctx.task()
            .access(h.exclusive())
            .spawn(move |t| *t.write(&hw) *= 3);
    });
    assert_eq!(*h.get(), 15);
    assert_eq!(rt.stats().tasks_io, workers as u64 + 1);
}

/// A panic in an offloaded body re-raises at the scope and poisons its
/// dataflow cone — the same lifecycle contract as a CPU panic, across
/// the track boundary. The pool (and the engine) stay alive after.
#[test]
fn offload_panic_poisons_cone_across_boundary() {
    let rt = build_rt(0, 2);
    let h = Shared::new(0u64);
    let res = catch_unwind(AssertUnwindSafe(|| {
        rt.scope(|ctx| {
            let hw = h.clone();
            ctx.task()
                .access(h.exclusive())
                .track(Track::Offload)
                .spawn(move |t| {
                    *t.write(&hw) = 1;
                    panic!("offload body panic");
                });
            for _ in 0..4 {
                let hw = h.clone();
                ctx.task()
                    .access(h.exclusive())
                    .track(Track::Offload)
                    .spawn(move |t| *t.write(&hw) += 100);
            }
        });
    }));
    let payload = res.expect_err("the panic must re-raise at the scope");
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("offload body panic"), "wrong payload: {msg:?}");
    let s = rt.stats();
    assert_eq!(s.tasks_panicked, 1);
    assert_eq!(s.tasks_poisoned, 4, "the whole downstream cone is poisoned");
    assert_eq!(*h.get(), 1, "no poisoned body ran");
    // Engine and pool both alive: a clean offload round still works.
    let clean = wavefront(&rt, 4, Track::Offload);
    assert_eq!(clean, wavefront(&rt, 4, Track::Cpu));
}

/// A cancelled token skips offloaded bodies exactly like CPU bodies: the
/// scope drains (no hang waiting on engine completions), nothing runs.
#[test]
fn cancellation_skips_offloaded_bodies() {
    let rt = build_rt(1, 2);
    let tok = CancelToken::new();
    tok.cancel();
    let h = Shared::new(0u64);
    rt.scope(|ctx| {
        for _ in 0..8 {
            let hw = h.clone();
            ctx.task()
                .access(h.exclusive())
                .track(Track::Offload)
                .cancel_token(&tok)
                .spawn(move |t| *t.write(&hw) += 1);
        }
    });
    assert_eq!(*h.get(), 0, "cancelled bodies must not run");
    let s = rt.stats();
    assert_eq!(s.tasks_cancelled, 8);
    assert_eq!(rt.scope(|c| c.join(|_| 2, |_| 3)), (2, 3));
}
