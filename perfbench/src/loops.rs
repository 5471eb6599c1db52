//! `loops`: one EPX time step — `loopelm`, the explicit update, then
//! `repera` — with `ExecMode::Xkaapi` adaptive loops. `loopelm` is a
//! fine-grained loop where splitting costs show; `repera` is a coarse,
//! compute-bound one where they do not.

use crate::harness::{self, Solver, Tally, TraceData};
use crate::report::Metric;
use crate::spans::Spans;
use crate::stats::pct;
use crate::Size;
use xkaapi_core::Runtime;
use xkaapi_epx::{loopelm, repera, Candidate, ExecMode, Material, Mesh, State};

/// Steps run from one initial state before it is rebuilt; the reference
/// holds the sequential result of each.
const STEPS: usize = 8;
/// Per-element history length (LOOPELM memory knob).
const HISTORY: usize = 16;
/// Constitutive sub-increments per element: chosen so LOOPELM and
/// REPERA take comparable sequential time on the full mesh.
const SUBCYCLES: usize = 600;
/// REPERA refinement repetitions.
const INTENSITY: usize = 1;
/// Contact gap threshold.
const GAP: f64 = 2.5;
/// Explicit time step.
const DT: f64 = 1e-3;

/// What a step produced: the state checksum (as bits) and the candidates.
type StepOut = (u64, Vec<Candidate>);

/// The EPX solver: the mesh, the evolving state and the sequential
/// reference of every step.
pub struct Loops {
    seed: u64,
    mesh: Mesh,
    mat: Material,
    state: State,
    step: usize,
    reference: Vec<StepOut>,
}

fn step(
    mesh: &Mesh,
    mat: &Material,
    state: &mut State,
    mode: &ExecMode<'_>,
    sp: &mut Spans,
    group: u64,
) -> Vec<Candidate> {
    let root = sp.open("solve", group, None);
    sp.time("adaptive.loopelm", group, root, || {
        loopelm(mesh, mat, state, mode)
    });
    sp.time("integrate", group, root, || {
        for n in 0..mesh.num_nodes() {
            for c in 0..3 {
                state.vel[n][c] += DT * state.force[n][c];
                state.disp[n][c] += DT * state.vel[n][c];
            }
        }
    });
    let cands = sp.time("adaptive.repera", group, root, || {
        repera(mesh, state, INTENSITY, GAP, mode)
    });
    sp.close(root);
    cands
}

impl Loops {
    /// Set up from `seed`: mesh and state, the sequential reference of
    /// every step, then warm-up steps on a fresh pool.
    pub fn setup(seed: u64, size: Size, workers: usize, tally: &mut Tally) -> Loops {
        let nz = match size {
            Size::Full => 128,
            Size::Probe => 32,
        };
        let mesh = Mesh::block(8, 8, nz);
        let mat = Material {
            subcycles: SUBCYCLES,
            ..Material::default()
        };
        let mut state = State::new(&mesh, HISTORY, seed);
        let mut off = Spans::off();
        let reference = (0..STEPS)
            .map(|_| {
                let c = step(&mesh, &mat, &mut state, &ExecMode::Seq, &mut off, 0);
                (state.checksum().to_bits(), c)
            })
            .collect();
        let mut l = Loops {
            state: State::new(&mesh, HISTORY, seed),
            seed,
            mesh,
            mat,
            step: 0,
            reference,
        };
        let rt = harness::pool(workers, false);
        for _ in 0..2 {
            l.solve(Some(&rt), tally, &mut off, 0);
        }
        l
    }
}

impl Solver for Loops {
    fn solve(
        &mut self,
        rt: Option<&Runtime>,
        tally: &mut Tally,
        sp: &mut Spans,
        group: u64,
    ) -> f64 {
        let mode = match rt {
            Some(rt) => ExecMode::Xkaapi(rt),
            None => ExecMode::Seq,
        };
        let (cands, ms) =
            harness::time_ms(|| step(&self.mesh, &self.mat, &mut self.state, &mode, sp, group));
        let (sum, want) = (self.state.checksum().to_bits(), &self.reference[self.step]);
        let k = self.step;
        tally.check(sum == want.0 && cands == want.1, || {
            format!(
                "step {k}: checksum {} vs {}, {} vs {} candidates",
                f64::from_bits(sum),
                f64::from_bits(want.0),
                cands.len(),
                want.1.len()
            )
        });
        self.step += 1;
        if self.step == STEPS {
            self.step = 0;
            self.state = State::new(&self.mesh, HISTORY, self.seed);
        }
        ms
    }
}

/// Per-layer rows of loops' traced pass: adaptive splits, loop chunks and
/// the two phases' times from the spans around each call.
pub fn rows(d: &TraceData) -> Vec<Metric> {
    let units = d.units.max(1) as f64;
    let phase = |name: &str| {
        let v: Vec<f64> = d
            .spans
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        (pct(&v, 0.5), v.len())
    };
    let (le, nle) = phase("adaptive.loopelm");
    let (rp, nrp) = phase("adaptive.repera");
    let (splits, chunks) = (d.counters.get("splits"), d.counters.get("loop_chunks"));
    vec![
        Metric::new("adaptive.splits_per_solve", "count", splits as f64 / units)
            .n(d.units)
            .note(format!("{splits} splits over {} steps", d.units)),
        Metric::new("foreach.chunks_per_solve", "count", chunks as f64 / units)
            .n(d.units)
            .note(format!("{chunks} chunks over {} steps", d.units)),
        Metric::new("epx.loopelm_ms.p50", "ms", le)
            .n(nle)
            .note("span around loopelm, traced pool"),
        Metric::new("epx.repera_ms.p50", "ms", rp)
            .n(nrp)
            .note("span around repera, traced pool"),
    ]
}
