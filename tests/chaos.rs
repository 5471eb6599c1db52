//! Seeded chaos suite (DESIGN.md §8): runs the three canonical workloads
//! — fork-join fib, a cholesky-like dataflow wavefront, and a submit
//! flood — under deterministic fault plans across all four scheduler
//! policy combinations, asserting the fault-tolerance invariants:
//!
//! * **no hang** — every scope returns and every handle resolves (the
//!   whole suite is bounded by per-wait timeouts);
//! * **no lost join** — a planned panic re-raises at exactly one join,
//!   never vanishes;
//! * **checksum integrity** — the surviving cone (tasks outside the
//!   poisoned cone) computes exactly what it computes in a fault-free
//!   run;
//! * **workers alive** — after the chaos, the same pool completes a
//!   clean fork-join + dataflow + loop round.
//!
//! Seeds: three fixed ones always run; `RUST_SEED` (CI rotates it per
//! run) adds a fourth. Every assertion message includes the seed so a CI
//! failure is reproducible locally with `RUST_SEED=<seed>`.
//!
//! Build with the hooks compiled in:
//! `cargo test --features fault-injection --test chaos`
#![cfg(feature = "fault-injection")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use xkaapi::core::{
    CancelToken, Ctx, FaultPlan, QueueKind, Runtime, Shared, StatsSnapshot, StealPolicy,
};

const FIXED_SEEDS: [u64; 3] = [42, 0xdead_beef, 20260808];

/// The seeds of this run: the three fixed ones plus `RUST_SEED` when set.
fn seeds() -> Vec<u64> {
    let mut s = FIXED_SEEDS.to_vec();
    if let Ok(v) = std::env::var("RUST_SEED") {
        if let Ok(n) = v.trim().parse::<u64>() {
            s.push(n);
        } else {
            eprintln!("chaos: ignoring unparsable RUST_SEED={v:?}");
        }
    }
    s
}

/// Build one of the four queue×steal policy combinations.
fn build_rt(combo: usize, workers: usize, plan: FaultPlan) -> Runtime {
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
        .fault_plan(plan)
        .build()
}

const COMBO_NAMES: [&str; 4] = [
    "dist+agg",
    "dist+perthief",
    "central+agg",
    "central+perthief",
];

fn fib(c: &mut Ctx<'_>, n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        let (a, b) = c.join(move |c| fib(c, n - 1), move |c| fib(c, n - 2));
        a + b
    }
}

/// Fault-free reference checksum of the dataflow wavefront.
fn wavefront_reference(n: usize) -> u64 {
    let mut grid = vec![vec![0u64; n]; n];
    for i in 0..n {
        for j in 0..n {
            let up = if i > 0 { grid[i - 1][j] } else { 1 };
            let left = if j > 0 { grid[i][j - 1] } else { 1 };
            grid[i][j] = up.wrapping_add(left).wrapping_mul(2654435761);
        }
    }
    grid[n - 1][n - 1]
}

/// Cholesky-like dataflow wavefront: an n×n grid of tasks where (i,j)
/// reads (i-1,j) and (i,j-1) — the dependency shape of a tiled factor
/// sweep. Returns the checksum of the last tile, or the caught panic.
fn wavefront(rt: &Runtime, n: usize) -> Result<u64, Box<dyn std::any::Any + Send>> {
    let tiles: Vec<Shared<u64>> = (0..n * n).map(|_| Shared::new(0u64)).collect();
    let res = catch_unwind(AssertUnwindSafe(|| {
        rt.scope(|ctx| {
            for i in 0..n {
                for j in 0..n {
                    let me = tiles[i * n + j].clone();
                    let up = (i > 0).then(|| tiles[(i - 1) * n + j].clone());
                    let left = (j > 0).then(|| tiles[i * n + j - 1].clone());
                    let mut accs = vec![me.write()];
                    accs.extend(up.as_ref().map(|h| h.read()));
                    accs.extend(left.as_ref().map(|h| h.read()));
                    ctx.spawn(accs, move |t| {
                        let u = up.as_ref().map_or(1, |h| *t.read(h));
                        let l = left.as_ref().map_or(1, |h| *t.read(h));
                        *t.write(&me) = u.wrapping_add(l).wrapping_mul(2654435761);
                    });
                }
            }
        });
    }));
    res.map(|()| *tiles[n * n - 1].get())
}

/// One full chaos round on one pool: fib + wavefront + submit flood, all
/// panics caught at their joins, then the workers-alive probe.
fn chaos_round(rt: &Runtime, seed: u64, name: &str) -> StatsSnapshot {
    // Fork-join fib: the planned panic (if it lands here) re-raises at the
    // scope — caught, never lost, never hung.
    let fib_res = catch_unwind(AssertUnwindSafe(|| rt.scope(|c| fib(c, 17))));
    if let Ok(v) = fib_res {
        assert_eq!(v, 1597, "[{name} seed={seed}] fib checksum");
    }

    // Dataflow wavefront: either the fault-free checksum or a caught panic
    // (a poisoned cone never produces a *wrong* checksum — the scope
    // rethrows instead of returning).
    match wavefront(rt, 8) {
        Ok(sum) => assert_eq!(
            sum,
            wavefront_reference(8),
            "[{name} seed={seed}] wavefront checksum"
        ),
        Err(p) => {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(
                msg.contains("fault-injection"),
                "[{name} seed={seed}] only the planned panic may surface: {msg:?}"
            );
        }
    }

    // Submit flood: every handle resolves (ok or the planned panic).
    let flood = 64u64;
    let handles: Vec<_> = (0..flood)
        .map(|i| rt.submit(move |_| i * 3).expect("admission (Block)"))
        .collect();
    let mut ok = 0u64;
    for (i, h) in handles.into_iter().enumerate() {
        // An Err payload means the planned panic landed in this job.
        if let Ok(v) = catch_unwind(AssertUnwindSafe(|| h.wait())) {
            assert_eq!(v, i as u64 * 3, "[{name} seed={seed}] flood value");
            ok += 1;
        }
    }
    assert!(
        ok >= flood - 1,
        "[{name} seed={seed}] at most one flood job may absorb the planned panic"
    );

    // Workers alive at shutdown: a clean round on the same (chaos-shaken)
    // pool — fork-join, dataflow and a loop all still complete.
    assert_eq!(
        rt.scope(|c| c.join(|_| 6, |_| 7)),
        (6, 7),
        "[{name} seed={seed}] fork-join after chaos"
    );
    let sum = rt.foreach_reduce(0..1000, None, || 0u64, |s, i| *s += i as u64, |a, b| a + b);
    assert_eq!(sum, 499_500, "[{name} seed={seed}] loop after chaos");
    rt.stats()
}

/// The chaos matrix: every seed × every policy combination.
#[test]
fn chaos_matrix_no_hang_no_lost_join() {
    for seed in seeds() {
        for (combo, name) in COMBO_NAMES.iter().enumerate() {
            let rt = build_rt(combo, 4, FaultPlan::from_seed(seed));
            let snap = chaos_round(&rt, seed, name);
            assert!(
                snap.tasks_panicked <= 1,
                "[{name} seed={seed}] one plan, at most one planned panic"
            );
            drop(rt); // workers join cleanly (a dead worker would hang here)
        }
    }
}

/// Determinism gate: two single-worker runs of the same seed produce
/// identical lifecycle stats (the curated, schedule-independent subset).
#[test]
fn chaos_single_worker_runs_are_deterministic() {
    let curated = |s: &StatsSnapshot| {
        (
            s.tasks_spawned,
            s.tasks_executed(),
            s.tasks_panicked,
            s.tasks_poisoned,
            s.tasks_cancelled,
            s.jobs_submitted,
        )
    };
    for seed in seeds() {
        let run = || {
            let rt = build_rt(0, 1, FaultPlan::from_seed(seed));
            chaos_round(&rt, seed, "determinism")
        };
        let (a, b) = (run(), run());
        assert_eq!(
            curated(&a),
            curated(&b),
            "[seed={seed}] same seed, same single-worker run, different stats"
        );
    }
}

/// Seeded cancellation: the plan cancels a token once the global task-step
/// counter passes a threshold; the cancellable cone drains (scope returns
/// or reports cancelled) and the pool survives.
#[test]
fn chaos_planned_cancellation_drains() {
    for seed in seeds() {
        let tok = CancelToken::new();
        let plan = FaultPlan::new().cancel_at(20, tok.clone());
        let rt = build_rt((seed % 4) as usize, 2, plan);
        let executed = Arc::new(AtomicU64::new(0));
        let (t, ex) = (tok.clone(), Arc::clone(&executed));
        let handle = rt
            .task()
            .cancel_token(&tok)
            .submit(move |ctx| {
                for _ in 0..200 {
                    let ex = Arc::clone(&ex);
                    let h = Shared::new(0u8);
                    ctx.spawn([h.write()], move |_| {
                        ex.fetch_add(1, Ordering::SeqCst);
                    });
                }
                t.is_cancelled()
            })
            .unwrap();
        // No hang: the cone drains even though most bodies are skipped.
        let _ = handle.join().expect("root body started before the cancel");
        assert!(tok.is_cancelled(), "[seed={seed}] the plan fired");
        let snap = rt.stats();
        assert!(
            snap.tasks_cancelled > 0,
            "[seed={seed}] cancellation skipped at least one body"
        );
        assert_eq!(
            executed.load(Ordering::SeqCst) + snap.tasks_cancelled,
            200,
            "[seed={seed}] every spawned task either ran or was counted cancelled"
        );
        assert_eq!(rt.scope(|c| c.join(|_| 1, |_| 2)), (1, 2));
    }
}

/// Seeded fault at the offload transfer/launch boundary (DESIGN.md §10):
/// the offload engine runs the task-execute hook before each batch
/// launch, so a planned panic lands *inside the engine*, off any CPU
/// worker. The invariants are the same as a CPU-side fault: no hang (the
/// scope returns, rethrowing the planned payload), the downstream cone is
/// poisoned instead of computing garbage, and both the pool and the
/// engine serve clean work afterwards.
#[test]
fn chaos_offload_fault_at_launch_boundary() {
    let chain = 24u64;
    for &nth in &[2u64, 5, 11] {
        for (combo, name) in COMBO_NAMES.iter().enumerate() {
            let rt = build_rt(combo, 2, FaultPlan::new().panic_nth(nth));
            let h = Shared::new(0u64);
            let res = catch_unwind(AssertUnwindSafe(|| {
                rt.scope(|ctx| {
                    for _ in 0..chain {
                        let hw = h.clone();
                        ctx.task()
                            .access(h.exclusive())
                            .track(xkaapi::core::Track::Offload)
                            .spawn(move |t| *t.write(&hw) += 1);
                    }
                });
            }));
            // No hang: we got here. The planned panic either landed in
            // the offload chain (scope rethrows it, partial sum) or hit
            // the root body before any spawn (empty sum) — never a wrong
            // full sum.
            let snap = rt.stats();
            match res {
                Err(p) => {
                    let msg = p
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_default();
                    assert!(
                        msg.contains("fault-injection"),
                        "[{name} nth={nth}] only the planned panic may surface: {msg:?}"
                    );
                    assert!(
                        *h.get() < chain,
                        "[{name} nth={nth}] a faulted chain must not complete"
                    );
                    assert!(
                        snap.tasks_poisoned > 0 || snap.tasks_offloaded == 0,
                        "[{name} nth={nth}] the cone downstream of the fault is poisoned \
                         (poisoned {}, offloaded {})",
                        snap.tasks_poisoned,
                        snap.tasks_offloaded
                    );
                }
                Ok(()) => {
                    // The plan fired before the scope (builder/registration
                    // paths also execute hooks) — the chain itself is clean.
                    assert_eq!(*h.get(), chain, "[{name} nth={nth}] clean chain sum");
                }
            }
            assert!(
                snap.tasks_panicked <= 1,
                "[{name} nth={nth}] one plan, at most one planned panic"
            );
            // Pool and engine alive: a clean offload round on the same rt.
            let probe = Shared::new(0u64);
            rt.scope(|ctx| {
                for _ in 0..4 {
                    let pw = probe.clone();
                    ctx.task()
                        .access(probe.exclusive())
                        .track(xkaapi::core::Track::Offload)
                        .spawn(move |t| *t.write(&pw) += 1);
                }
            });
            assert_eq!(
                *probe.get(),
                4,
                "[{name} nth={nth}] engine alive after fault"
            );
            drop(rt); // a dead engine thread would hang the join here
        }
    }
}

/// The straggler delay alone (no panic) never changes results — only
/// timing. Guards the worker-boundary hook against semantic drift.
#[test]
fn chaos_straggler_delay_is_semantically_invisible() {
    let plan = FaultPlan::new().delay_worker(0, Duration::from_micros(200));
    let rt = build_rt(0, 4, plan);
    assert_eq!(rt.scope(|c| fib(c, 15)), 610);
    assert_eq!(wavefront(&rt, 6).expect("no panic planned"), {
        wavefront_reference(6)
    });
    assert_eq!(rt.stats().tasks_panicked, 0);
}
