//! `cholesky`: tiled Cholesky on data-flow tasks (`cholesky_xkaapi`),
//! each online solve followed by a replay of the same DAG recorded once
//! in setup. Online solves pay data-flow analysis every time; replays
//! bypass it and share the kernels.

use crate::harness::{self, ClosedExtra, Solver, Tally, TraceData};
use crate::report::Metric;
use crate::spans::Spans;
use crate::stats::{median, pct};
use crate::Size;
use std::time::Instant;
use xkaapi_core::Runtime;
use xkaapi_linalg::kernels::{gemm, potrf, syrk, trsm};
use xkaapi_linalg::{cholesky_ops, cholesky_seq, cholesky_xkaapi, flops, CholOp};
use xkaapi_linalg::{RecordedCholesky, TiledMatrix};

/// Tile size: small enough that scheduling is a visible share of a solve.
const NB: usize = 32;

/// The Cholesky solver: the seeded SPD input, its sequential factor and
/// the recorded DAG.
pub struct Cholesky {
    input: TiledMatrix,
    reference: TiledMatrix,
    rec: RecordedCholesky,
    record_ms: f64,
}

impl Cholesky {
    /// Set up from `seed`: the input matrix, the sequential reference
    /// factor, the recorded DAG, then warm-up solves and replays.
    pub fn setup(seed: u64, size: Size, workers: usize, tally: &mut Tally) -> Cholesky {
        let n = match size {
            Size::Full => 1024,
            Size::Probe => 512,
        };
        let input = TiledMatrix::spd_random(n, NB, seed);
        let mut reference = input.clone_matrix();
        cholesky_seq(&mut reference).expect("the seeded matrix is SPD");
        let rt = harness::pool(workers, false);
        let (rec, record_ms) =
            harness::time_ms(|| RecordedCholesky::record(&rt, input.clone_matrix()));
        let mut c = Cholesky {
            input,
            reference,
            rec,
            record_ms,
        };
        let mut sp = Spans::off();
        for _ in 0..2 {
            c.solve(Some(&rt), tally, &mut sp, 0);
            c.replay(&rt, tally, &mut sp, 0);
        }
        c
    }

    fn check(&self, tally: &mut Tally, what: &str, got: &TiledMatrix) {
        let d = got.max_abs_diff_lower(&self.reference);
        tally.check(d == 0.0, || {
            format!("{what} differs from cholesky_seq by {d:e}")
        });
    }
}

impl Solver for Cholesky {
    fn solve(
        &mut self,
        rt: Option<&Runtime>,
        tally: &mut Tally,
        sp: &mut Spans,
        group: u64,
    ) -> f64 {
        let root = sp.open("solve", group, None);
        let mut a = sp.time("copy", group, root, || self.input.clone_matrix());
        let ms = match rt {
            Some(rt) => {
                let (r, ms) = sp.time("dataflow", group, root, || {
                    harness::time_ms(|| cholesky_xkaapi(rt, a))
                });
                match r {
                    Ok(f) => sp.time("check", group, root, || {
                        self.check(tally, "online factor", &f)
                    }),
                    Err(e) => tally.check(false, || format!("online solve failed: {e}")),
                }
                ms
            }
            None => {
                let (r, ms) = harness::time_ms(|| cholesky_seq(&mut a));
                tally.check(r.is_ok(), || "sequential solve failed".to_string());
                self.check(tally, "sequential factor", &a);
                ms
            }
        };
        sp.close(root);
        ms
    }

    fn replay(
        &mut self,
        rt: &Runtime,
        tally: &mut Tally,
        sp: &mut Spans,
        group: u64,
    ) -> Option<f64> {
        let root = sp.open("replay", group, None);
        sp.time("copy", group, root, || self.rec.load(&self.input));
        let (r, ms) = sp.time("record", group, root, || {
            harness::time_ms(|| self.rec.replay(rt))
        });
        match r {
            Ok(()) => sp.time("check", group, root, || {
                let f = self.rec.result();
                self.check(tally, "replayed factor", &f);
            }),
            Err(e) => tally.check(false, || format!("replay failed: {e}")),
        }
        sp.close(root);
        Some(ms)
    }
}

/// Median time in ns of `reps` calls of `f`, each on fresh inputs made by
/// `prep` outside the timed part.
fn kernel_ns<T>(reps: usize, mut prep: impl FnMut() -> T, mut f: impl FnMut(&mut T)) -> f64 {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut x = prep();
        let t = Instant::now();
        f(&mut x);
        v.push(t.elapsed().as_nanos() as f64);
        std::hint::black_box(&x);
    }
    median(&v)
}

/// Per-layer rows of cholesky's traced pass: data-flow and frame
/// counters, the record layer, and the four kernels called directly.
pub fn rows(
    c: &Cholesky,
    d: &TraceData,
    x: &ClosedExtra,
    workers: usize,
    tally: &mut Tally,
) -> Vec<Metric> {
    let units = d.units.max(1) as f64;
    let per = |k: &str| d.counters.get(k) as f64 / units;
    let nt = c.input.nt;
    let tile = |i, j| c.input.tile(i, j).to_vec();
    let mut diag = tile(0, 0);
    if potrf(&mut diag, NB).is_err() {
        tally.check(false, || "diagonal tile is not SPD".to_string());
    }
    let reps = 200;
    let potrf_ns = kernel_ns(
        reps,
        || tile(0, 0),
        |a| {
            let r = potrf(a, NB);
            tally.check(r.is_ok(), || "potrf kernel failed".to_string());
        },
    );
    let trsm_ns = kernel_ns(reps, || tile(1, 0), |b| trsm(&diag, b, NB));
    let (t10, t20) = (tile(1, 0), tile(2, 0));
    let syrk_ns = kernel_ns(reps, || tile(1, 1), |cc| syrk(&t10, cc, NB));
    let gemm_ns = kernel_ns(reps, || tile(2, 1), |cc| gemm(&t20, &t10, cc, NB));
    let kernel_total_ns: f64 = cholesky_ops(nt)
        .iter()
        .map(|op| match op {
            CholOp::Potrf { .. } => potrf_ns,
            CholOp::Trsm { .. } => trsm_ns,
            CholOp::Syrk { .. } => syrk_ns,
            CholOp::Gemm { .. } => gemm_ns,
        })
        .sum();
    let online = pct(&d.untraced, 0.5);
    let replay = pct(&x.replay, 0.5);
    let rec = c.rec.dag().stats();
    let record_ms: Vec<f64> = {
        let rt = harness::pool(workers, false);
        let mut v = vec![c.record_ms];
        for _ in 0..4 {
            v.push(harness::time_ms(|| RecordedCholesky::record(&rt, c.input.clone_matrix())).1);
        }
        v
    };
    // Bytes a gemm touches: read A, B and C, write C.
    let gemm_bytes = (4 * NB * NB * 8) as f64;
    vec![
        Metric::new("dataflow.pushes_per_solve", "count", per("dataflow_pushes"))
            .n(d.units)
            .note(format!(
                "{} pushes over {} online solves",
                d.counters.get("dataflow_pushes"),
                d.units
            )),
        Metric::new("frame.promotions_per_solve", "count", per("promotions"))
            .n(d.units)
            .note(format!(
                "{} promotions over {} online solves",
                d.counters.get("promotions"),
                d.units
            )),
        Metric::new(
            "record.pushes_per_replay",
            "count",
            x.replay_counters.get("dataflow_pushes") as f64 / x.replays.max(1) as f64,
        )
        .n(x.replays)
        .note("replays run no dependency analysis: expected 0"),
        Metric::new("dataflow.analysis_ms", "ms", online - replay)
            .n(d.untraced.len() + x.replay.len())
            .note(format!(
                "online p50 {online:.4} ms - replay p50 {replay:.4} ms (untraced)"
            )),
        Metric::new("record.replay_ms.p50", "ms", replay)
            .n(x.replay.len())
            .note("replay of the recorded DAG, untraced pool"),
        Metric::new("record.record_ms", "ms", median(&record_ms))
            .n(record_ms.len())
            .note(format!("RecordedCholesky::record of {} tasks", rec.tasks)),
        Metric::new("record.tasks", "count", rec.tasks as f64),
        Metric::new("record.groups", "count", rec.groups as f64),
        Metric::new("record.fused_tasks", "count", rec.fused_tasks as f64),
        Metric::new("kernels.potrf_ns", "ns", potrf_ns)
            .n(reps)
            .note(format!("nb={NB}, direct calls")),
        Metric::new("kernels.trsm_ns", "ns", trsm_ns)
            .n(reps)
            .note(format!("nb={NB}, direct calls")),
        Metric::new("kernels.syrk_ns", "ns", syrk_ns)
            .n(reps)
            .note(format!("nb={NB}, direct calls")),
        Metric::new("kernels.gemm_ns", "ns", gemm_ns)
            .n(reps)
            .note(format!("nb={NB}, direct calls")),
        Metric::new("kernels.gflops", "GFLOP/s", flops::gemm(NB) / gemm_ns)
            .n(reps)
            .higher()
            .note(format!("gemm: {} flop / {gemm_ns:.0} ns", flops::gemm(NB))),
        Metric::new(
            "kernels.flops_per_byte",
            "flop/B",
            flops::gemm(NB) / gemm_bytes,
        )
        .note(format!(
            "gemm: {} flop / {gemm_bytes} B (computed)",
            flops::gemm(NB)
        )),
        Metric::new(
            "sched.overhead_share",
            "ratio",
            1.0 - kernel_total_ns / (workers as f64 * online * 1e6),
        )
        .n(d.untraced.len())
        .note(format!(
            "1 - kernel time {:.4} ms / ({workers} workers x online p50 {online:.4} ms)",
            kernel_total_ns / 1e6
        )),
    ]
}
