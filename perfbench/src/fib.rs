//! `fib`: fib(n) through `Ctx::join` down to the leaves — the per-task
//! overhead workload. Nearly all its time is in the join fast lane and
//! in stealing; data-flow, inject lanes, loops and kernels are bypassed.

use crate::harness::{self, Solver, Tally};
use crate::report::Metric;
use crate::spans::Spans;
use crate::stats::pct;
use crate::Size;
use std::hint::black_box;
use xkaapi_core::{Ctx, Runtime};

fn fib(c: &mut Ctx<'_>, n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        let (a, b) = c.join(|c| fib(c, n - 1), |c| fib(c, n - 2));
        a + b
    }
}

/// The sequential reference: the same recursion without the runtime.
fn fibs(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fibs(n - 1) + fibs(n - 2)
    }
}

/// fib(n) by iteration: the exact expected value.
fn fib_exact(n: u64) -> u64 {
    let (mut a, mut b) = (0u64, 1u64);
    for _ in 0..n {
        (a, b) = (b, a + b);
    }
    a
}

/// `Ctx::join` calls one solve makes: one per interior node.
fn joins(n: u64) -> u64 {
    fib_exact(n + 1) - 1
}

/// The fib solver. fib has no random input: the seed is accepted like
/// every workload's, and n is fixed by the size so every seed measures
/// the same solve.
pub struct Fib {
    n: u64,
    expected: u64,
}

impl Fib {
    /// Set up: the input size and expected value, then warm-up solves on
    /// a fresh pool.
    pub fn setup(size: Size, workers: usize, tally: &mut Tally) -> Fib {
        let n = match size {
            Size::Full => 27,
            Size::Probe => 22,
        };
        let mut f = Fib {
            n,
            expected: fib_exact(n),
        };
        let rt = harness::pool(workers, false);
        let mut sp = Spans::off();
        for _ in 0..2 {
            f.solve(Some(&rt), tally, &mut sp, 0);
        }
        f
    }
}

impl Solver for Fib {
    fn solve(
        &mut self,
        rt: Option<&Runtime>,
        tally: &mut Tally,
        sp: &mut Spans,
        group: u64,
    ) -> f64 {
        let n = black_box(self.n);
        let root = sp.open("solve", group, None);
        let (v, ms) = match rt {
            Some(rt) => sp.time("fastlane", group, root, || {
                harness::time_ms(|| rt.scope(|c| fib(c, n)))
            }),
            None => harness::time_ms(|| fibs(n)),
        };
        sp.close(root);
        let expected = self.expected;
        tally.check(v == expected, || {
            format!("fib({n}) = {v}, expected {expected}")
        });
        ms
    }
}

/// Per-layer rows of fib's traced pass: the join cost of the fast lane.
pub fn rows(f: &Fib, one: &[f64], seq: &[f64]) -> Vec<Metric> {
    let j = joins(f.n);
    let (p1, ps) = (pct(one, 0.5), pct(seq, 0.5));
    vec![
        Metric::new("fastlane.join_ns", "ns", (p1 - ps) * 1e6 / j as f64)
            .n(one.len() + seq.len())
            .note(format!(
                "(1-worker p50 {p1:.4} ms - seq p50 {ps:.4} ms) / {j} joins of fib({})",
                f.n
            )),
        Metric::new("fastlane.joins_per_solve", "count", j as f64).n(1),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_values_agree() {
        assert_eq!(fib_exact(27), 196_418);
        assert_eq!(fibs(20), fib_exact(20));
        assert_eq!(joins(2), 1);
        assert_eq!(joins(4), 4);
        let rt = Runtime::new(2);
        assert_eq!(rt.scope(|c| fib(c, 18)), fib_exact(18));
    }
}
