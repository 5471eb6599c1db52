//! A QUARK-compatible task-insertion API with two interchangeable backends.
//!
//! The paper ports QUARK (PLASMA's runtime) on top of X-Kaapi to produce a
//! *binary compatible* QUARK library, then runs PLASMA's tiled Cholesky on
//! both runtimes. This crate reproduces that experiment structure:
//!
//! * one insertion API ([`Quark::session`] / [`QuarkCtx::insert_task`]) in
//!   the style of `QUARK_Insert_Task` — sequential insertion with
//!   INPUT/OUTPUT/INOUT argument modes keyed by "addresses";
//! * backend [`Backend::Centralized`] — QUARK's own scheduler (insertion-
//!   time dependence analysis + one global ready list, see
//!   [`central::CentralPool`]);
//! * backend [`Backend::OnXkaapi`] — the port onto `xkaapi-core`: every
//!   `insert_task` becomes a data-flow spawn whose keyed regions carry the
//!   dependences, scheduled by distributed work stealing.
//!
//! The same algorithm (e.g. `xkaapi-linalg`'s tiled Cholesky) runs unchanged
//! on both, which is exactly what Fig. 2 compares.

#![warn(missing_docs)]

pub mod central;

pub use central::CentralReadyList;

use central::CentralPool;
use std::sync::Arc;
use xkaapi_core::{Access, AccessMode, Ctx, Priority, Region, Runtime, Shared};

/// Argument access mode of a QUARK task (the `INPUT`/`OUTPUT`/`INOUT`/
/// `VALUE`/`SCRATCH` flags of `QUARK_Insert_Task`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DepMode {
    /// Read-only argument.
    Input,
    /// Written argument (treated as exclusive; no renaming).
    Output,
    /// Read-written argument.
    Inout,
    /// By-value argument: no dependence.
    Value,
    /// Per-thread temporary: no dependence.
    Scratch,
}

/// One dependence declaration: an address-like key plus its access mode.
///
/// Keys play the role of argument addresses in QUARK's hash-based
/// dependence analysis; `xkaapi-linalg` derives them from tile coordinates.
#[derive(Clone, Copy, Debug)]
pub struct QuarkDep {
    /// Address-like dependence key.
    pub key: u64,
    /// Access mode.
    pub mode: DepMode,
}

impl QuarkDep {
    /// Read dependence on `key`.
    pub fn input(key: u64) -> QuarkDep {
        QuarkDep {
            key,
            mode: DepMode::Input,
        }
    }

    /// Write dependence on `key`.
    pub fn output(key: u64) -> QuarkDep {
        QuarkDep {
            key,
            mode: DepMode::Output,
        }
    }

    /// Read-write dependence on `key`.
    pub fn inout(key: u64) -> QuarkDep {
        QuarkDep {
            key,
            mode: DepMode::Inout,
        }
    }
}

/// Which runtime executes the inserted tasks.
pub enum Backend {
    /// QUARK's own centralized-list scheduler with `threads` workers and an
    /// insertion `window`.
    Centralized {
        /// Worker threads.
        threads: usize,
        /// Maximum in-flight tasks before insertion blocks.
        window: usize,
    },
    /// The X-Kaapi port: tasks become data-flow spawns on this runtime.
    OnXkaapi(Arc<Runtime>),
}

/// A QUARK handle: create once, run sessions of inserted tasks.
pub struct Quark {
    imp: Impl,
}

enum Impl {
    Central(CentralPool),
    Kaapi(Arc<Runtime>),
}

impl Quark {
    /// Create a QUARK with the given backend.
    pub fn new(backend: Backend) -> Quark {
        match backend {
            Backend::Centralized { threads, window } => Quark {
                imp: Impl::Central(CentralPool::new(threads, window)),
            },
            Backend::OnXkaapi(rt) => Quark {
                imp: Impl::Kaapi(rt),
            },
        }
    }

    /// Convenience: centralized backend with QUARK's spirit defaults.
    pub fn new_centralized(threads: usize) -> Quark {
        Quark::new(Backend::Centralized {
            threads,
            window: 5000,
        })
    }

    /// Convenience: X-Kaapi backend.
    pub fn new_on_xkaapi(rt: Arc<Runtime>) -> Quark {
        Quark::new(Backend::OnXkaapi(rt))
    }

    /// Is this the centralized (original QUARK) backend?
    pub fn is_centralized(&self) -> bool {
        matches!(self.imp, Impl::Central(_))
    }

    /// Ready-queue lock operations (centralized backend only) — the
    /// contention indicator reported next to Fig. 2.
    pub fn queue_ops(&self) -> Option<usize> {
        match &self.imp {
            Impl::Central(p) => Some(p.queue_ops()),
            Impl::Kaapi(_) => None,
        }
    }

    /// Run an insertion session: `f` inserts tasks through the [`QuarkCtx`];
    /// an implicit barrier at the end waits for everything. Insertion order
    /// defines the sequential semantics, as in QUARK.
    ///
    /// `'scope` brands the session (rayon-style): inserted tasks may borrow
    /// anything that outlives the `session` call.
    pub fn session<'scope, R: Send>(
        &self,
        f: impl FnOnce(&mut QuarkCtx<'_, 'scope>) -> R + Send,
    ) -> R {
        match &self.imp {
            Impl::Central(pool) => {
                let st = pool.state();
                let mut ctx = QuarkCtx {
                    imp: CtxImpl::Central(st),
                };
                let r = f(&mut ctx);
                st.barrier(usize::MAX);
                let panic = st.take_panic();
                st.reset();
                if let Some(p) = panic {
                    std::panic::resume_unwind(p);
                }
                r
            }
            Impl::Kaapi(rt) => rt.scope(|ctx| {
                // One synthetic handle provides the key space: dependences
                // are keyed regions of this handle.
                let space: Shared<()> = Shared::new(());
                let space_id = space.id();
                let mut qctx = QuarkCtx {
                    imp: CtxImpl::Kaapi {
                        ctx,
                        space_id,
                        _space: space,
                    },
                };
                let r = f(&mut qctx);
                if let CtxImpl::Kaapi { ctx, .. } = &mut qctx.imp {
                    ctx.sync();
                }
                r
            }),
        }
    }
}

enum CtxImpl<'a, 'scope> {
    Central(&'a Arc<central::CentralState>),
    Kaapi {
        ctx: &'a mut Ctx<'scope>,
        space_id: xkaapi_core::HandleId,
        _space: Shared<()>,
    },
}

/// Insertion context of a QUARK session.
pub struct QuarkCtx<'a, 'scope> {
    imp: CtxImpl<'a, 'scope>,
}

impl<'a, 'scope> QuarkCtx<'a, 'scope> {
    /// Insert a task (the `QUARK_Insert_Task` analogue). `deps` declare the
    /// argument keys and modes; `f` receives a worker index (for per-worker
    /// scratch) and runs when its dependences are satisfied.
    pub fn insert_task<F>(&mut self, deps: impl IntoIterator<Item = QuarkDep>, f: F)
    where
        F: FnOnce(usize) + Send + 'scope,
    {
        self.insert_task_prio(deps, false, f);
    }

    /// Insert a task with the QUARK priority flag. The centralized backend
    /// puts it at the front of the ready list; the X-Kaapi backend lowers
    /// it to [`Priority::High`] through the task builder, so the engine's
    /// banded queues, ready lists and steal scans drain it before
    /// normal-priority work — the same flag, honoured by both runtimes.
    pub fn insert_task_prio<F>(
        &mut self,
        deps: impl IntoIterator<Item = QuarkDep>,
        priority: bool,
        f: F,
    ) where
        F: FnOnce(usize) + Send + 'scope,
    {
        match &mut self.imp {
            CtxImpl::Central(st) => {
                let deps: Vec<QuarkDep> = deps.into_iter().collect();
                let boxed: Box<dyn FnOnce(usize) + Send + 'scope> = Box::new(f);
                // Safety: the session barrier runs before `session` returns,
                // so every task completes while `'scope` data is live.
                let boxed: central::TaskClosure = unsafe { std::mem::transmute(boxed) };
                st.insert(&deps, priority, boxed);
            }
            CtxImpl::Kaapi { ctx, space_id, .. } => {
                let accesses: Vec<Access> = deps
                    .into_iter()
                    .filter_map(|d| {
                        let mode = match d.mode {
                            DepMode::Input => AccessMode::Read,
                            DepMode::Output => AccessMode::Write,
                            DepMode::Inout => AccessMode::Exclusive,
                            DepMode::Value | DepMode::Scratch => return None,
                        };
                        Some(Access::new(*space_id, Region::Key(d.key), mode))
                    })
                    .collect();
                let prio = if priority {
                    Priority::High
                } else {
                    Priority::Normal
                };
                ctx.task()
                    .accesses(accesses)
                    .priority(prio)
                    .spawn(move |c| f(c.worker_index()));
            }
        }
    }

    /// Wait until every task inserted so far completed
    /// (`QUARK_Barrier`). The inserting thread helps execute.
    pub fn barrier(&mut self) {
        match &mut self.imp {
            CtxImpl::Central(st) => st.barrier(usize::MAX),
            CtxImpl::Kaapi { ctx, .. } => ctx.sync(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn backends() -> Vec<Quark> {
        vec![
            Quark::new_centralized(3),
            Quark::new_on_xkaapi(Arc::new(Runtime::new(3))),
        ]
    }

    #[test]
    fn tasks_all_execute() {
        for q in backends() {
            let count = AtomicUsize::new(0);
            q.session(|ctx| {
                for _ in 0..100 {
                    ctx.insert_task([], |_| {
                        count.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(count.load(Ordering::Relaxed), 100);
        }
    }

    #[test]
    fn raw_dependence_orders() {
        for q in backends() {
            let log = Mutex::new(Vec::new());
            q.session(|ctx| {
                ctx.insert_task([QuarkDep::output(1)], |_| log.lock().push("write"));
                ctx.insert_task([QuarkDep::input(1)], |_| log.lock().push("read1"));
                ctx.insert_task([QuarkDep::input(1)], |_| log.lock().push("read2"));
                ctx.insert_task([QuarkDep::output(1)], |_| log.lock().push("write2"));
            });
            let log = log.into_inner();
            assert_eq!(log[0], "write");
            assert_eq!(log[3], "write2");
            assert!(log[1].starts_with("read") && log[2].starts_with("read"));
        }
    }

    #[test]
    fn chain_through_keys_is_sequential() {
        for q in backends() {
            let v = Mutex::new(0u64);
            q.session(|ctx| {
                for i in 0..50u64 {
                    let v = &v;
                    ctx.insert_task([QuarkDep::inout(7)], move |_| {
                        let mut g = v.lock();
                        assert_eq!(*g, i);
                        *g += 1;
                    });
                }
            });
            assert_eq!(*v.lock(), 50);
        }
    }

    #[test]
    fn independent_keys_run_unordered() {
        for q in backends() {
            let sum = AtomicUsize::new(0);
            q.session(|ctx| {
                let sum = &sum;
                for k in 0..64u64 {
                    ctx.insert_task([QuarkDep::output(k)], move |_| {
                        sum.fetch_add(k as usize, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(sum.load(Ordering::Relaxed), (0..64).sum::<usize>());
        }
    }

    #[test]
    fn explicit_barrier_divides_phases() {
        for q in backends() {
            let phase1 = AtomicUsize::new(0);
            let saw = AtomicUsize::new(999);
            q.session(|ctx| {
                for _ in 0..20 {
                    ctx.insert_task([], |_| {
                        phase1.fetch_add(1, Ordering::Relaxed);
                    });
                }
                ctx.barrier();
                saw.store(phase1.load(Ordering::Relaxed), Ordering::Relaxed);
            });
            assert_eq!(saw.load(Ordering::Relaxed), 20);
        }
    }

    #[test]
    fn mixed_graph_matches_sequential_reference() {
        // Random-ish DAG over 8 keys; both backends must produce the
        // sequential-order result.
        for q in backends() {
            let cells: Vec<Mutex<u64>> = (0..8).map(|_| Mutex::new(1)).collect();
            let mut reference: Vec<u64> = vec![1; 8];
            let mut state = 0x1234_5678u64;
            let mut rng = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut ops = Vec::new();
            for _ in 0..200 {
                let a = (rng() % 8) as usize;
                let b = (rng() % 8) as usize;
                let c = rng() % 5 + 1;
                reference[a] = reference[a].wrapping_add(c.wrapping_mul(reference[b]));
                ops.push((a, b, c));
            }
            q.session(|ctx| {
                for &(a, b, c) in &ops {
                    let cells = &cells;
                    if a == b {
                        ctx.insert_task([QuarkDep::inout(a as u64)], move |_| {
                            let mut ga = cells[a].lock();
                            let v = *ga;
                            *ga = v.wrapping_add(c.wrapping_mul(v));
                        });
                    } else {
                        ctx.insert_task(
                            [QuarkDep::inout(a as u64), QuarkDep::input(b as u64)],
                            move |_| {
                                let vb = *cells[b].lock();
                                let mut ga = cells[a].lock();
                                *ga = ga.wrapping_add(c.wrapping_mul(vb));
                            },
                        );
                    }
                }
            });
            for (i, c) in cells.iter().enumerate() {
                assert_eq!(*c.lock(), reference[i], "cell {i}");
            }
        }
    }

    #[test]
    fn sessions_are_reusable() {
        for q in backends() {
            for round in 0..5usize {
                let hits = AtomicUsize::new(0);
                q.session(|ctx| {
                    let hits = &hits;
                    for _ in 0..=round {
                        ctx.insert_task([], |_| {
                            hits.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
                assert_eq!(hits.load(Ordering::Relaxed), round + 1);
            }
        }
    }

    #[test]
    fn centralized_counts_queue_ops() {
        let q = Quark::new_centralized(2);
        q.session(|ctx| {
            for _ in 0..50 {
                ctx.insert_task([], |_| {});
            }
        });
        assert!(q.queue_ops().unwrap() >= 100, "push + pop per task");
        let q2 = Quark::new_on_xkaapi(Arc::new(Runtime::new(2)));
        assert!(q2.queue_ops().is_none());
    }

    #[test]
    fn window_blocks_insertion() {
        let q = Quark::new(Backend::Centralized {
            threads: 2,
            window: 8,
        });
        let max_inflight = AtomicUsize::new(0);
        let running = AtomicUsize::new(0);
        q.session(|ctx| {
            let (max_inflight, running) = (&max_inflight, &running);
            for _ in 0..100 {
                ctx.insert_task([], move |_| {
                    let cur = running.fetch_add(1, Ordering::SeqCst) + 1;
                    max_inflight.fetch_max(cur, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_micros(50));
                    running.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        // window 8 bounds concurrency regardless of worker count
        assert!(max_inflight.load(Ordering::SeqCst) <= 8);
    }

    #[test]
    fn value_and_scratch_create_no_deps() {
        for q in backends() {
            let order = Mutex::new(Vec::new());
            q.session(|ctx| {
                let order = &order;
                ctx.insert_task(
                    [QuarkDep {
                        key: 1,
                        mode: DepMode::Value,
                    }],
                    move |_| order.lock().push(0usize),
                );
                ctx.insert_task(
                    [QuarkDep {
                        key: 1,
                        mode: DepMode::Scratch,
                    }],
                    move |_| order.lock().push(1usize),
                );
            });
            let mut o = order.into_inner();
            o.sort_unstable();
            assert_eq!(o, vec![0, 1]);
        }
    }
}
