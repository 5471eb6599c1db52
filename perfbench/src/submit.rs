//! `submit`: independent jobs through `Runtime::submit` (one in eight of
//! the open loop's through `Runtime::task().priority(High)`), with a seeded
//! bimodal body cost. This is the only workload on the inject lanes,
//! admission and park/wake.
//!
//! Its end-to-end unit is a closed-loop burst of `BURST` jobs submitted at
//! once. The open loop — the generator sleeps until each due time and
//! submits every job that is due, latency running from the due time to the
//! job's `on_complete`, at a fixed ladder of loads — feeds the per-layer
//! rows: on a 2-vCPU VM whose hypervisor steals CPU time in bursts, its
//! median latency swung from 0.14 to 0.46 ms between runs of one build,
//! because a stolen vCPU stretches wake-ups and the generator's own sleeps
//! by milliseconds.

use crate::harness::{self, spin, Counters, Rounds, Solver, Tally, TraceData, TracedPool};
use crate::report::Metric;
use crate::schedule::{draw_long, due_until, lateness, poisson, Arrival, Backlog};
use crate::spans::Spans;
use crate::stats::{median, pct as p, Rng};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xkaapi_core::{Priority, Runtime};

/// Cost of a short job body.
const SHORT_NS: f64 = 100_000.0;
/// Cost of a long job body (one job in `schedule::LONG_EVERY`).
const LONG_NS: f64 = 400_000.0;
/// Offered loads of the ladder, as shares of the pool's capacity.
pub const LOADS: [f64; 5] = [0.05, 0.2, 0.4, 0.6, 0.8];
/// The ladder's nominal load, where the open loop's latency rows are taken.
const NOMINAL: usize = 1;
/// Latency limit on p99 for `max_rate_jobs_s`.
pub const P99_LIMIT_US: f64 = 5_000.0;
/// Jobs in one closed-loop burst: the unit of the end-to-end metrics.
const BURST: usize = 128;

/// A job's expected result: its id mixed with its class's spin result.
fn mix(id: u64) -> u64 {
    id.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
}

/// Calibrated job bodies.
#[derive(Clone, Copy)]
struct Body {
    ns_per_iter: f64,
    iters: [u64; 2],
    result: [u64; 2],
}

const START: [u64; 2] = [0x1234_5678_9ABC_DEF1, 0x0FED_CBA9_8765_4321];

impl Body {
    /// Measure the spin's cost per iteration (median of five runs) and
    /// size the short and long bodies from it.
    fn calibrate() -> Body {
        let probe = 2_000_000u64;
        let runs: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                black_box(spin(black_box(START[0]), black_box(probe)));
                t.elapsed().as_nanos() as f64 / probe as f64
            })
            .collect();
        let ns_per_iter = median(&runs);
        let iters = [
            (SHORT_NS / ns_per_iter).round() as u64,
            (LONG_NS / ns_per_iter).round() as u64,
        ];
        Body {
            ns_per_iter,
            iters,
            result: [spin(START[0], iters[0]), spin(START[1], iters[1])],
        }
    }

    fn class(long: bool) -> usize {
        usize::from(long)
    }

    fn run(&self, id: u64, long: bool) -> u64 {
        let c = Body::class(long);
        mix(id).wrapping_add(spin(black_box(START[c]), black_box(self.iters[c])))
    }

    fn expected(&self, id: u64, long: bool) -> u64 {
        mix(id).wrapping_add(self.result[Body::class(long)])
    }

    /// Mean body cost in seconds.
    fn mean_s(&self) -> f64 {
        let l = 1.0 / crate::schedule::LONG_EVERY as f64;
        ((1.0 - l) * SHORT_NS + l * LONG_NS) / 1e9
    }
}

/// The submit workload: calibrated bodies and the seeded streams.
pub struct Submit {
    seed: u64,
    body: Body,
    workers: usize,
    steps: u64,
}

/// Stamps one job leaves, in ns from its step's start.
#[derive(Clone, Copy, Default)]
struct Stamps {
    submit_b: u64,
    submit_e: u64,
    start: u64,
    end: u64,
    done: u64,
}

/// What one open-loop step produced.
struct StepOut {
    /// Due time → `on_complete`, microseconds, per job.
    latency_us: Vec<f64>,
    /// Generator lateness per job, microseconds.
    lag_us: Vec<f64>,
    backlog: Backlog,
    arrivals: Vec<Arrival>,
    stamps: Vec<Stamps>,
    /// Step start, as an instant.
    t0: Instant,
}

impl Submit {
    /// Set up from `seed`: calibrate the bodies, then warm up a pool with
    /// a short step at the nominal load.
    pub fn setup(seed: u64, workers: usize, tally: &mut Tally) -> Submit {
        let mut s = Submit {
            seed,
            body: Body::calibrate(),
            workers,
            steps: 0,
        };
        let rt = harness::pool(workers, false);
        s.step(&rt, LOADS[NOMINAL], 0.05, false, tally);
        s.burst(Some(&rt), tally);
        s
    }

    fn rate(&self, load: f64) -> f64 {
        load * self.workers as f64 / self.body.mean_s()
    }

    /// One open-loop step at `load` for `secs` seconds, every job checked.
    fn step(
        &mut self,
        rt: &Runtime,
        load: f64,
        secs: f64,
        stamp: bool,
        tally: &mut Tally,
    ) -> StepOut {
        self.steps += 1;
        let mut rng = Rng::new(self.seed, self.steps);
        let arrivals = poisson(&mut rng, self.rate(load), (secs * 1e9) as u64);
        let n = arrivals.len();
        let done: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let runs: Arc<Vec<[AtomicU64; 2]>> = Arc::new(
            (0..if stamp { n } else { 0 })
                .map(|_| [AtomicU64::new(0), AtomicU64::new(0)])
                .collect(),
        );
        let completed = Arc::new(AtomicU64::new(0));
        let mut stamps = vec![Stamps::default(); if stamp { n } else { 0 }];
        let mut lag_us = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        let mut backlog = Backlog::default();
        let body = self.body;
        let t0 = Instant::now();
        let ns = |t0: Instant| t0.elapsed().as_nanos() as u64;
        let mut next = 0;
        while next < n {
            let now = ns(t0);
            let end = due_until(&arrivals, next, now);
            if end == next {
                std::thread::sleep(Duration::from_nanos(arrivals[next].due_ns - now));
                continue;
            }
            for (i, a) in arrivals.iter().enumerate().take(end).skip(next) {
                let (id, long) = (i as u64, a.long);
                let runs = Arc::clone(&runs);
                let job = move |_: &mut xkaapi_core::Ctx<'_>| {
                    if stamp {
                        runs[i][0].store(ns(t0), Ordering::Relaxed);
                    }
                    let v = body.run(id, long);
                    if stamp {
                        runs[i][1].store(ns(t0), Ordering::Relaxed);
                    }
                    v
                };
                let sb = ns(t0);
                lag_us.push(lateness(a.due_ns, sb) as f64 / 1e3);
                let h = if a.high {
                    rt.task().priority(Priority::High).submit(job)
                } else {
                    rt.submit(job)
                };
                if stamp {
                    stamps[i].submit_b = sb;
                    stamps[i].submit_e = ns(t0);
                }
                match h {
                    Ok(h) => {
                        let (done, completed) = (Arc::clone(&done), Arc::clone(&completed));
                        h.on_complete(move || {
                            done[i].store(ns(t0).max(1), Ordering::Release);
                            completed.fetch_add(1, Ordering::Release);
                        });
                        handles.push(Some(h));
                    }
                    Err(e) => {
                        tally.check(false, || format!("submit refused: {e}"));
                        handles.push(None);
                    }
                }
            }
            next = end;
            backlog.sample(next as u64 - completed.load(Ordering::Relaxed));
        }
        let accepted = handles.iter().flatten().count() as u64;
        let mut latency_us = Vec::with_capacity(n);
        for (i, h) in handles.into_iter().enumerate() {
            let Some(h) = h else { continue };
            let (id, long) = (i as u64, arrivals[i].long);
            match h.join() {
                Ok(v) => {
                    let want = body.expected(id, long);
                    tally.check(v == want, || {
                        format!("job {id} returned {v:#x}, expected {want:#x}")
                    });
                }
                Err(e) => tally.check(false, || format!("job {id} did not resolve: {e}")),
            }
        }
        // A callback may run just after its join returns: wait for every
        // accepted job's stamp.
        while completed.load(Ordering::Acquire) < accepted {
            std::hint::spin_loop();
        }
        for (i, a) in arrivals.iter().enumerate() {
            let d = done[i].load(Ordering::Acquire);
            if d != 0 {
                latency_us.push(d.saturating_sub(a.due_ns) as f64 / 1e3);
            }
            if stamp {
                stamps[i].start = runs[i][0].load(Ordering::Relaxed);
                stamps[i].end = runs[i][1].load(Ordering::Relaxed);
                stamps[i].done = d;
            }
        }
        StepOut {
            latency_us,
            lag_us,
            backlog,
            arrivals,
            stamps,
            t0,
        }
    }

    /// One closed-loop burst of `BURST` jobs submitted at once and waited
    /// for, on `rt`, or run inline when `rt` is `None`. Returns ms.
    fn burst(&mut self, rt: Option<&Runtime>, tally: &mut Tally) -> f64 {
        self.steps += 1;
        let mut rng = Rng::new(self.seed, self.steps);
        let long: Vec<bool> = (0..BURST).map(|_| draw_long(&mut rng)).collect();
        let body = self.body;
        let (got, ms) = harness::time_ms(|| match rt {
            Some(rt) => {
                let hs: Vec<_> = long
                    .iter()
                    .enumerate()
                    .map(|(i, &l)| rt.submit(move |_| body.run(i as u64, l)))
                    .collect();
                hs.into_iter()
                    .map(|h| h.ok().and_then(|h| h.join().ok()))
                    .collect::<Vec<_>>()
            }
            None => long
                .iter()
                .enumerate()
                .map(|(i, &l)| Some(body.run(i as u64, l)))
                .collect(),
        });
        for (i, (g, &l)) in got.iter().zip(&long).enumerate() {
            let want = body.expected(i as u64, l);
            tally.check(*g == Some(want), || format!("burst job {i} returned {g:?}"));
        }
        ms
    }
}

/// The end-to-end unit of `submit` is a burst: its end-to-end metrics come
/// from the same closed-loop rounds as the other workloads.
impl Solver for Submit {
    fn solve(&mut self, rt: Option<&Runtime>, tally: &mut Tally, _: &mut Spans, _: u64) -> f64 {
        self.burst(rt, tally)
    }
}

/// Per-round ladder results.
#[derive(Default)]
struct Ladder {
    /// Latencies (µs) per load, pooled over rounds.
    latency: Vec<Vec<f64>>,
    growing: Vec<bool>,
    lag_us: Vec<f64>,
    backlog_max: u64,
}

impl Ladder {
    fn new() -> Ladder {
        Ladder {
            latency: vec![Vec::new(); LOADS.len()],
            growing: vec![false; LOADS.len()],
            ..Ladder::default()
        }
    }

    /// Run every load once, ending near `until`: half the time at the
    /// nominal load.
    fn round(&mut self, s: &mut Submit, rt: &Runtime, until: Instant, tally: &mut Tally) {
        let secs = until
            .saturating_duration_since(Instant::now())
            .as_secs_f64();
        for (k, &load) in LOADS.iter().enumerate() {
            let share = if k == NOMINAL {
                0.5
            } else {
                0.5 / (LOADS.len() - 1) as f64
            };
            let out = s.step(rt, load, secs * share, false, tally);
            self.growing[k] |= out.backlog.growing();
            self.lag_us.extend_from_slice(&out.lag_us);
            if k == NOMINAL {
                self.backlog_max = self.backlog_max.max(out.backlog.max());
            }
            self.latency[k].extend(out.latency_us);
        }
    }

    /// Highest ladder rate whose p99 meets the limit without a growing
    /// backlog (0 when none does).
    fn max_rate(&self, s: &Submit) -> f64 {
        LOADS
            .iter()
            .enumerate()
            .filter(|&(k, _)| !self.growing[k] && p(&self.latency[k], 0.99) <= P99_LIMIT_US)
            .map(|(_, &l)| s.rate(l))
            .fold(0.0, f64::max)
    }
}

/// The traced pass: rounds of an untraced ladder (per-load p99, maximum
/// rate, generator lateness) and a traced step at the nominal load with
/// every job's stamps turned into spans.
pub fn trace(s: &mut Submit, seconds: f64, tally: &mut Tally) -> (TraceData, Vec<Metric>) {
    let mut rounds = Rounds::new(seconds);
    let w = s.workers;
    let mut lad = Ladder::new();
    let mut d = TraceData::new();
    let (mut submit_ns, mut wait_us, mut run_us) = (vec![], vec![], vec![]);
    let mut group = 0u64;
    while let Some(t) = rounds.next_round(&[0.6, 1.0]) {
        {
            let rt = harness::pool(w, false);
            lad.round(s, &rt, t[0], tally);
        }
        let tp = TracedPool::new(w);
        let rt = &tp.rt;
        d.begin(rt);
        let traced_step = 0.1;
        let steps = (t[1].saturating_duration_since(Instant::now()).as_secs_f64() / traced_step)
            .round()
            .max(1.0) as usize;
        for _ in 0..steps {
            let before = rt.stats();
            let from = tp.now_ns();
            let (out, tl) =
                harness::drained(rt, || s.step(rt, LOADS[NOMINAL], traced_step, true, tally));
            let to = tp.now_ns();
            d.counters.add(&Counters::between(&before, &rt.stats()));
            d.unit(tl, from, to);
            let base = out.t0.duration_since(d.spans.epoch()).as_nanos() as u64;
            for (a, st) in out.arrivals.iter().zip(&out.stamps) {
                if st.done == 0 {
                    continue;
                }
                group += 1;
                d.units += 1;
                d.traced.push(st.done.saturating_sub(a.due_ns) as f64 / 1e6);
                submit_ns.push((st.submit_e - st.submit_b) as f64);
                wait_us.push(st.start.saturating_sub(st.submit_e) as f64 / 1e3);
                run_us.push(st.end.saturating_sub(st.start) as f64 / 1e3);
                let sp = &mut d.spans;
                let root = sp.push("job", group, None, base + a.due_ns, base + st.done);
                sp.push(
                    "inject.submit",
                    group,
                    Some(root),
                    base + st.submit_b,
                    base + st.submit_e,
                );
                sp.push(
                    "inject.wait",
                    group,
                    Some(root),
                    base + st.submit_e,
                    base + st.start,
                );
                sp.push(
                    "inject.run",
                    group,
                    Some(root),
                    base + st.start,
                    base + st.end,
                );
                sp.push(
                    "inject.complete",
                    group,
                    Some(root),
                    base + st.end,
                    base + st.done,
                );
            }
        }
    }
    d.untraced = lad.latency[NOMINAL].iter().map(|us| us / 1e3).collect();
    let c = &d.counters;
    let (own, remote) = (c.get("inject_own_lane"), c.get("inject_remote_lane"));
    let nominal = &lad.latency[NOMINAL];
    let mut rows = vec![
        Metric::new("inject.submit_ns.p50", "ns", p(&submit_ns, 0.5)).n(submit_ns.len()),
        Metric::new("inject.submit_ns.p99", "ns", p(&submit_ns, 0.99)).n(submit_ns.len()),
        Metric::new("inject.wait_us.p50", "us", p(&wait_us, 0.5))
            .n(wait_us.len())
            .note("submit return to body start, traced pool"),
        Metric::new("inject.wait_us.p99", "us", p(&wait_us, 0.99)).n(wait_us.len()),
        Metric::new("inject.run_us.p50", "us", p(&run_us, 0.5)).n(run_us.len()),
        Metric::new(
            "inject.own_lane_share",
            "ratio",
            if own + remote == 0 {
                0.0
            } else {
                own as f64 / (own + remote) as f64
            },
        )
        .n(d.units)
        .note(format!("{own} own-lane drains / {} drains", own + remote)),
        Metric::new("inject.backlog_max", "count", lad.backlog_max as f64)
            .n(nominal.len())
            .note("largest backlog the generator saw at the nominal load"),
        Metric::new("inject.rejected", "count", c.get("jobs_rejected") as f64).n(d.units),
        Metric::new("inject.expired", "count", c.get("jobs_expired") as f64).n(d.units),
        Metric::new("latency_us.p50", "us", p(nominal, 0.5))
            .n(nominal.len())
            .note(format!(
                "due time to on_complete, nominal load {}",
                LOADS[NOMINAL]
            )),
        Metric::new("latency_us.p99", "us", p(nominal, 0.99))
            .n(nominal.len())
            .note(format!("nominal load {}", LOADS[NOMINAL])),
    ];
    for (k, &load) in LOADS.iter().enumerate() {
        let v = &lad.latency[k];
        rows.push(
            Metric::new(
                format!("latency_us.p99.load{:02}", (load * 100.0).round()),
                "us",
                p(v, 0.99),
            )
            .n(v.len())
            .note(format!(
                "{:.0} jobs/s{}",
                s.rate(load),
                if lad.growing[k] {
                    ", backlog growing"
                } else {
                    ""
                }
            )),
        );
    }
    rows.push(
        Metric::new("max_rate_jobs_s", "1/s", lad.max_rate(s))
            .higher()
            .note(format!(
                "highest ladder rate with p99 <= {P99_LIMIT_US} us and no growing backlog"
            )),
    );
    rows.push(Metric::new("gen.lag_us.p99", "us", p(&lad.lag_us, 0.99)).n(lad.lag_us.len()));
    rows.push(
        Metric::new("gen.body_ns_per_iter", "ns", s.body.ns_per_iter)
            .n(5)
            .note(format!(
                "spin calibration: short {} iters, long {} iters",
                s.body.iters[0], s.body.iters[1]
            )),
    );
    (d, rows)
}
