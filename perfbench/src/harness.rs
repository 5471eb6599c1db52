//! Shared machinery of the workloads: pools, result checks, the
//! closed-loop measurement rounds, counter deltas, and the per-worker time
//! split read from the runtime's own trace.

use crate::report::Metric;
use crate::spans::Spans;
use crate::stats::{self, pct as p};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use xkaapi_core::{EventKind, Runtime, StatsSnapshot, TelemetryEvent, TraceSession};

/// CPUs this process may run on: the worker count of every measured pool.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A pool of `workers` workers with runtime tracing on or off. Both are
/// set explicitly so environment overrides cannot change what is measured.
pub fn pool(workers: usize, tracing: bool) -> Runtime {
    Runtime::builder().workers(workers).tracing(tracing).build()
}

/// Checked results: every check is one attempt; a wrong, failed, refused
/// or expired result is one failure.
#[derive(Default)]
pub struct Tally {
    /// Results checked.
    pub attempted: u64,
    /// Results that were wrong or missing.
    pub failed: u64,
    /// Description of the first failure.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Count one result; `what` describes it when it is wrong.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(what());
            }
        }
    }
}

/// A serial xorshift chain: each iteration depends on the last, so the
/// compiler can neither vectorize nor reassociate it.
#[inline(never)]
pub fn spin(mut x: u64, iters: u64) -> u64 {
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// What the host's CPUs deliver in parallel right now: the throughput of
/// `workers` threads spinning independently relative to one thread
/// (`workers` on idle cores; less when the vCPUs share a core or a
/// neighbour takes them). Every parallel metric moves with it, so it is
/// reported beside them to tell host drift from a change in the code.
pub fn host_capacity(workers: usize) -> Metric {
    let iters = 20_000_000u64;
    let run = |threads: usize| {
        let t = Instant::now();
        std::thread::scope(|sc| {
            for i in 0..threads {
                sc.spawn(move || std::hint::black_box(spin(i as u64 + 1, iters)));
            }
        });
        t.elapsed().as_secs_f64()
    };
    let caps: Vec<f64> = (0..3)
        .map(|_| workers as f64 * run(1) / run(workers))
        .collect();
    Metric::new("host.parallel_capacity", "x", stats::median(&caps))
        .n(caps.len())
        .higher()
        .note(format!(
            "{workers} independent spinning threads vs one; {workers} on idle cores"
        ))
}

/// Time `f` in milliseconds.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// Run `f` at least once and until `deadline` has passed.
pub fn block_until(deadline: Instant, mut f: impl FnMut()) {
    loop {
        f();
        if Instant::now() >= deadline {
            return;
        }
    }
}

/// Splits a run of `seconds` into `n` rounds that end together with the
/// run: each round gets an equal share of the time still left, so a
/// block that overshoots is paid back by the rounds after it.
pub struct Rounds {
    end: Instant,
    n: usize,
    done: usize,
}

impl Rounds {
    /// Rounds of about `ROUND_S` seconds over the next `seconds`.
    pub fn new(seconds: f64) -> Rounds {
        Rounds {
            end: Instant::now() + Duration::from_secs_f64(seconds),
            n: ((seconds / ROUND_S).round() as usize).max(3),
            done: 0,
        }
    }

    /// Deadlines at the given cumulative shares of the next round, or
    /// `None` when every round has run.
    pub fn next_round(&mut self, shares: &[f64]) -> Option<Vec<Instant>> {
        if self.done == self.n {
            return None;
        }
        let start = Instant::now();
        let len = self.end.saturating_duration_since(start) / (self.n - self.done) as u32;
        self.done += 1;
        Some(shares.iter().map(|&f| start + len.mul_f64(f)).collect())
    }
}

/// Median of the setup times: `setup_s`.
pub fn setup_metric(setups_s: Vec<f64>) -> Metric {
    Metric::new("setup_s", "s", stats::median(&setups_s))
        .n(setups_s.len())
        .samples(setups_s)
        .note("median of repeated set-ups: inputs, references, pool, warm-up")
}

/// A closed-loop workload: one solve at a time, the next one after the
/// previous returned.
pub trait Solver {
    /// One timed solve on `rt`, or with the sequential reference code when
    /// `rt` is `None`; checks the result into `tally` and returns the
    /// solve's time in milliseconds. Spans go under group `group`.
    fn solve(&mut self, rt: Option<&Runtime>, tally: &mut Tally, sp: &mut Spans, group: u64)
        -> f64;

    /// A timed replay of the recorded DAG on `rt`, for workloads that
    /// have one.
    fn replay(
        &mut self,
        _rt: &Runtime,
        _tally: &mut Tally,
        _sp: &mut Spans,
        _group: u64,
    ) -> Option<f64> {
        None
    }
}

/// Length of one measurement round: every arm runs in every round, so
/// slow drift of the host hits all arms alike.
const ROUND_S: f64 = 1.0;

/// Solve times (ms) per round, per arm.
#[derive(Default)]
pub struct Arms {
    /// Solves on the `nproc`-worker pool.
    pub par: Vec<Vec<f64>>,
    /// Sequential solve times, each the median of a batch run right after
    /// the `par` solve of the same index, so the pair shares the host's
    /// state.
    pub seq: Vec<Vec<f64>>,
    /// Solves on a 1-worker pool.
    pub one: Vec<Vec<f64>>,
    /// Replays on the `nproc`-worker pool.
    pub replay: Vec<Vec<f64>>,
}

/// The end-to-end measurement: rounds of an `nproc`-worker block, where
/// each solve is paired with a batch of sequential solves, then a
/// 1-worker block.
/// Only one pool is alive at a time; each block starts with an untimed
/// warm-up solve.
pub fn run_closed(s: &mut dyn Solver, workers: usize, seconds: f64, tally: &mut Tally) -> Arms {
    let mut rounds = Rounds::new(seconds);
    let mut arms = Arms::default();
    let mut sp = Spans::off();
    while let Some(t) = rounds.next_round(&[0.65, 1.0]) {
        let (mut par, mut one, mut seq, mut rep) = (vec![], vec![], vec![], vec![]);
        {
            let rt = pool(workers, false);
            s.solve(Some(&rt), tally, &mut sp, 0);
            block_until(t[0], || {
                let ms = s.solve(Some(&rt), tally, &mut sp, 0);
                par.push(ms);
                if let Some(r) = s.replay(&rt, tally, &mut sp, 0) {
                    rep.push(r);
                }
                // The pair's sequential half: solves for at least as long
                // as the parallel one took, so a short sequential solve is
                // not at the mercy of a single timer reading.
                let (mut batch, mut spent) = (Vec::new(), 0.0);
                while spent < ms {
                    let t = s.solve(None, tally, &mut sp, 0);
                    spent += t;
                    batch.push(t);
                }
                seq.push(p(&batch, 0.5));
            });
        }
        {
            let rt = pool(1, false);
            s.solve(Some(&rt), tally, &mut sp, 0);
            block_until(t[1], || one.push(s.solve(Some(&rt), tally, &mut sp, 0)));
        }
        arms.par.push(par);
        arms.one.push(one);
        arms.seq.push(seq);
        if !rep.is_empty() {
            arms.replay.push(rep);
        }
    }
    arms
}

fn flat(v: &[Vec<f64>]) -> Vec<f64> {
    v.iter().flatten().copied().collect()
}

/// The end-to-end metrics of a closed-loop workload: solve latency p50
/// (and p90) on the `nproc` pool, speed-up over the sequential code, and
/// scaling efficiency against the 1-worker pool. Values pool every
/// solve; the per-round values are the samples.
pub fn closed_metrics(a: &Arms, workers: usize) -> Vec<Metric> {
    let (par, one, seq) = (flat(&a.par), flat(&a.one), flat(&a.seq));
    let per_round = |f: &dyn Fn(usize) -> f64| (0..a.par.len()).map(f).collect::<Vec<f64>>();
    vec![
        Metric::new("latency_ms.p50", "ms", p(&par, 0.5))
            .n(par.len())
            .samples(per_round(&|r| p(&a.par[r], 0.5)))
            .note(format!(
                "time of one solve (a burst of jobs for submit), {workers}-worker pool"
            )),
        p90_metric(&par).samples(per_round(&|r| p(&a.par[r], 0.9))),
        paired_speedup(&a.seq, &a.par).note(format!(
            "median of {} paired seq/par ratios; seq p50 {:.4} ms, par p50 {:.4} ms",
            seq.len(),
            p(&seq, 0.5),
            p(&par, 0.5)
        )),
        scaling_eff(&a.one, &a.par, workers).note(format!(
            "1-worker p50 {:.4} ms ({} solves) / ({workers} x par p50 {:.4} ms ({} solves))",
            p(&one, 0.5),
            one.len(),
            p(&par, 0.5),
            par.len()
        )),
    ]
}

/// `speedup_vs_seq` from sequential and parallel times paired by index:
/// the median of the per-pair ratios, which cancels the host's slow
/// swings that hit both halves of a pair alike.
pub fn paired_speedup(seq: &[Vec<f64>], par: &[Vec<f64>]) -> Metric {
    let ratios: Vec<Vec<f64>> = seq
        .iter()
        .zip(par)
        .map(|(s, p)| s.iter().zip(p).map(|(s, p)| s / p).collect())
        .collect();
    let all = flat(&ratios);
    Metric::new("speedup_vs_seq", "x", p(&all, 0.5))
        .n(all.len())
        .samples(ratios.iter().map(|r| p(r, 0.5)).collect())
        .higher()
}

/// `scaling_eff` from 1-worker and `workers`-worker times: 1-worker p50 /
/// (workers × par p50) over every solve of the run; the per-round ratios
/// are the samples.
pub fn scaling_eff(one: &[Vec<f64>], par: &[Vec<f64>], workers: usize) -> Metric {
    let w = workers as f64;
    let (o, p_) = (flat(one), flat(par));
    Metric::new("scaling_eff", "x", p(&o, 0.5) / (w * p(&p_, 0.5)))
        .n(o.len() + p_.len())
        .samples(
            one.iter()
                .zip(par)
                .map(|(o, p_)| p(o, 0.5) / (w * p(p_, 0.5)))
                .collect(),
        )
        .higher()
}

/// `latency_ms.p90` of unit times `ms`: reported with every run, but a
/// per-layer row in `BENCHMARK.json` because it does not repeat within a
/// tenth on a 2-vCPU VM whose hypervisor steals CPU time in bursts.
pub fn p90_metric(ms: &[f64]) -> Metric {
    let tail = if stats::tail_supported(ms.len(), 0.9) {
        ""
    } else {
        "; fewer than 10 samples beyond p90"
    };
    Metric::new("latency_ms.p90", "ms", p(ms, 0.9))
        .n(ms.len())
        .note(format!("p90 of the untraced unit times{tail}"))
}

/// Scheduler counters, as the difference of two snapshots.
#[derive(Default)]
pub struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    /// Counters that moved from `before` to `after`.
    pub fn between(before: &StatsSnapshot, after: &StatsSnapshot) -> Counters {
        Counters(
            after
                .pairs()
                .into_iter()
                .zip(before.pairs())
                .map(|((k, a), (_, b))| (k, a.saturating_sub(b)))
                .collect(),
        )
    }

    /// Add another delta.
    pub fn add(&mut self, other: &Counters) {
        for (k, v) in &other.0 {
            *self.0.entry(k).or_default() += v;
        }
    }

    /// One counter (0 if it never moved).
    pub fn get(&self, k: &str) -> u64 {
        self.0.get(k).copied().unwrap_or(0)
    }
}

/// Per-worker time split read from the runtime trace, summed over the
/// traced windows: root jobs drained from the inject lanes, claimed
/// tasks outside a job, steal round trips, parking, and the rest, which
/// the trace does not cover (spinning between attempts, or running
/// fast-lane joins, which the runtime does not trace one by one).
#[derive(Default)]
pub struct WorkerTime {
    /// Per worker: `[job, task, steal, park, window]` nanoseconds.
    pub per_worker: Vec<[u64; 5]>,
}

impl WorkerTime {
    /// Add the events of `tl` that fall in `[from_ns, to_ns]` (runtime
    /// timebase) to the split.
    pub fn add(&mut self, tl: &Timelines, from_ns: u64, to_ns: u64) {
        let workers = tl.lanes.iter().filter(|l| l.starts_with("worker")).count();
        if self.per_worker.len() < workers {
            self.per_worker.resize(workers, [0; 5]);
        }
        let clip = |a: u64, b: u64| b.min(to_ns).saturating_sub(a.max(from_ns));
        for w in 0..workers {
            let acc = &mut self.per_worker[w];
            let (mut depth, mut run_start, mut in_job) = (0u32, from_ns, false);
            let (mut park_start, mut steal_start) = (None::<u64>, None::<u64>);
            for e in &tl.events[w] {
                let t = e.ts_ns;
                match e.kind {
                    EventKind::TaskBegin | EventKind::JobBegin => {
                        if depth == 0 {
                            run_start = t;
                            in_job = e.kind == EventKind::JobBegin;
                        }
                        depth += 1;
                    }
                    EventKind::TaskEnd | EventKind::JobEnd => {
                        // A begin lost to ring overflow leaves depth 0:
                        // count from the window start.
                        if depth <= 1 {
                            acc[usize::from(!in_job)] += clip(run_start, t);
                            run_start = t;
                        }
                        depth = depth.saturating_sub(1);
                    }
                    EventKind::Park => park_start = Some(t),
                    EventKind::Unpark => {
                        acc[3] += clip(park_start.take().unwrap_or(from_ns), t);
                    }
                    EventKind::StealAttempt => steal_start = Some(t),
                    EventKind::StealHit | EventKind::StealFail => {
                        if let Some(s) = steal_start.take() {
                            acc[2] += clip(s, t);
                        }
                    }
                    _ => {}
                }
            }
            if depth > 0 {
                acc[usize::from(!in_job)] += clip(run_start, to_ns);
            }
            if let Some(s) = park_start {
                acc[3] += clip(s, to_ns);
            }
            acc[4] += to_ns.saturating_sub(from_ns);
        }
    }

    /// Shares `[job, task, steal, park, untraced]` of each worker's traced
    /// time.
    pub fn shares(&self) -> Vec<[f64; 5]> {
        self.per_worker
            .iter()
            .map(|acc| {
                let win = acc[4].max(1) as f64;
                let busy: u64 = acc[..4].iter().sum();
                let mut s = [0.0; 5];
                for k in 0..4 {
                    s[k] = acc[k] as f64 / win;
                }
                s[4] = acc[4].saturating_sub(busy) as f64 / win;
                s
            })
            .collect()
    }
}

/// The runtime's trace of one traced unit: per-lane event timelines
/// concatenated from the sessions a drainer thread took while the unit
/// ran, so a unit longer than a ring's capacity loses nothing.
#[derive(Default)]
pub struct Timelines {
    /// Lane names (`worker N`, then track threads).
    pub lanes: Vec<String>,
    /// Events per lane, in recording order.
    pub events: Vec<Vec<TelemetryEvent>>,
    /// The pool's lifetime drop count at the last drain.
    pub dropped: u64,
}

impl Timelines {
    fn absorb(&mut self, s: TraceSession) {
        if self.lanes.is_empty() {
            self.lanes = (0..s.worker_count()).map(|w| s.lane_name(w)).collect();
            self.events = vec![Vec::new(); s.worker_count()];
        }
        for (w, evs) in self.events.iter_mut().enumerate().take(s.worker_count()) {
            evs.extend_from_slice(s.events(w));
        }
        self.dropped = s.dropped();
    }

    /// Events recorded.
    pub fn total(&self) -> usize {
        self.events.iter().map(Vec::len).sum()
    }

    /// Chrome-trace JSON (Perfetto): one lane per worker, `B`/`E` pairs
    /// for spans and `i` instants for the rest, timestamps in µs.
    pub fn to_chrome_trace(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"traceEvents\":[");
        let mut sep = "\n";
        for (w, lane) in self.lanes.iter().enumerate() {
            let _ = write!(
                out,
                "{sep}{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{w},\"args\":{{\"name\":{}}}}}",
                crate::json::quote(lane)
            );
            sep = ",\n";
        }
        for (w, evs) in self.events.iter().enumerate() {
            for e in evs {
                let ts = e.ts_ns as f64 / 1e3;
                let (name, ph) = match e.kind.span() {
                    Some((name, true)) => (name, "B"),
                    Some((name, false)) => (name, "E"),
                    None => (e.kind.label(), "i"),
                };
                let _ = write!(
                    out,
                    ",\n{{\"name\":\"{name}\",\"ph\":\"{ph}\",\"s\":\"t\",\"pid\":0,\"tid\":{w},\"ts\":{ts:.3},\
                     \"args\":{{\"band\":{},\"arg\":{}}}}}",
                    e.band, e.arg
                );
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Run `f` while a second thread drains `rt`'s trace every millisecond;
/// returns `f`'s result and everything drained.
pub fn drained<R>(rt: &Runtime, f: impl FnOnce() -> R) -> (R, Timelines) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|sc| {
        let drainer = sc.spawn(|| {
            let mut tl = Timelines::default();
            while !stop.load(Ordering::Acquire) {
                tl.absorb(rt.take_trace());
                std::thread::sleep(Duration::from_millis(1));
            }
            tl
        });
        let r = f();
        stop.store(true, Ordering::Release);
        let mut tl = drainer.join().expect("trace drainer panicked");
        tl.absorb(rt.take_trace());
        (r, tl)
    })
}

/// What a traced pass collects for the per-layer rows.
pub struct TraceData {
    /// Unit times (ms) on an untraced `nproc` pool.
    pub untraced: Vec<f64>,
    /// Unit times (ms) on the traced `nproc` pool.
    pub traced: Vec<f64>,
    /// Scheduler counters over the traced units.
    pub counters: Counters,
    /// Traced units the counters cover.
    pub units: usize,
    /// Per-worker time split over the traced units.
    pub workers: WorkerTime,
    /// Runtime trace events recorded.
    pub events: u64,
    /// Runtime trace events lost to ring overflow.
    pub dropped: u64,
    /// The current pool's lifetime drop count at its last drain.
    pool_dropped: u64,
    /// The runtime trace of the last traced unit.
    pub session: Option<Timelines>,
    /// The benchmark's spans of the traced units.
    pub spans: Spans,
}

impl TraceData {
    /// An empty pass recording spans.
    pub fn new() -> TraceData {
        TraceData {
            untraced: Vec::new(),
            traced: Vec::new(),
            counters: Counters::default(),
            units: 0,
            workers: WorkerTime::default(),
            events: 0,
            dropped: 0,
            pool_dropped: 0,
            session: None,
            spans: Spans::new(),
        }
    }

    /// Start on a fresh traced pool: discard what its warm-up recorded.
    pub fn begin(&mut self, rt: &Runtime) {
        self.pool_dropped = rt.take_trace().dropped();
    }

    /// Account the trace of one traced unit that ran over
    /// `[from_ns, to_ns]` of the runtime's clock.
    pub fn unit(&mut self, tl: Timelines, from_ns: u64, to_ns: u64) {
        self.events += tl.total() as u64;
        // Sessions report the pool's lifetime drop count.
        self.dropped += tl.dropped.saturating_sub(self.pool_dropped);
        self.pool_dropped = tl.dropped;
        self.workers.add(&tl, from_ns, to_ns);
        self.session = Some(tl);
    }
}

/// A traced pool and the instant its clock started (taken just before
/// the build, so runtime timestamps convert with a sub-millisecond error).
pub struct TracedPool {
    /// The pool.
    pub rt: Runtime,
    epoch: Instant,
}

impl TracedPool {
    /// Build a traced `workers`-worker pool.
    pub fn new(workers: usize) -> TracedPool {
        let epoch = Instant::now();
        TracedPool {
            rt: pool(workers, true),
            epoch,
        }
    }

    /// Now, in the runtime's timebase.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Extra per-round timings a traced closed-loop pass collects.
#[derive(Default)]
pub struct ClosedExtra {
    /// 1-worker solve times (ms).
    pub one: Vec<f64>,
    /// Sequential solve times (ms).
    pub seq: Vec<f64>,
    /// Untraced replay times (ms).
    pub replay: Vec<f64>,
    /// Counters over the traced replays.
    pub replay_counters: Counters,
    /// Traced replays.
    pub replays: usize,
}

/// The traced closed-loop pass: rounds of an untraced `nproc` block, a
/// traced `nproc` block (spans, counters and the runtime trace drained
/// while every solve runs), a 1-worker block and a sequential block.
pub fn trace_closed(
    s: &mut dyn Solver,
    workers: usize,
    seconds: f64,
    tally: &mut Tally,
) -> (TraceData, ClosedExtra) {
    let mut rounds = Rounds::new(seconds);
    let mut d = TraceData::new();
    let mut x = ClosedExtra::default();
    let mut off = Spans::off();
    let mut group = 0u64;
    while let Some(t) = rounds.next_round(&[0.3, 0.7, 0.85, 1.0]) {
        {
            let rt = pool(workers, false);
            s.solve(Some(&rt), tally, &mut off, 0);
            block_until(t[0], || {
                d.untraced.push(s.solve(Some(&rt), tally, &mut off, 0));
                if let Some(r) = s.replay(&rt, tally, &mut off, 0) {
                    x.replay.push(r);
                }
            });
        }
        {
            let tp = TracedPool::new(workers);
            let rt = &tp.rt;
            s.solve(Some(rt), tally, &mut off, 0);
            d.begin(rt);
            block_until(t[1], || {
                group += 1;
                let (before, from) = (rt.stats(), tp.now_ns());
                let spans = &mut d.spans;
                let (ms, tl) = drained(rt, || s.solve(Some(rt), tally, spans, group));
                let (after, to) = (rt.stats(), tp.now_ns());
                d.traced.push(ms);
                d.counters.add(&Counters::between(&before, &after));
                d.units += 1;
                d.unit(tl, from, to);
                let before = rt.stats();
                if s.replay(rt, tally, &mut d.spans, group).is_some() {
                    x.replay_counters
                        .add(&Counters::between(&before, &rt.stats()));
                    x.replays += 1;
                    d.begin(rt);
                }
            });
        }
        {
            let rt = pool(1, false);
            s.solve(Some(&rt), tally, &mut off, 0);
            block_until(t[2], || x.one.push(s.solve(Some(&rt), tally, &mut off, 0)));
        }
        block_until(t[3], || x.seq.push(s.solve(None, tally, &mut off, 0)));
    }
    (d, x)
}

/// Per-layer rows every workload reports from its own traced pass: steal
/// counters, the per-worker time split, telemetry volume and overhead,
/// and the self time of every benchmark span.
pub fn common_rows(d: &TraceData, unit: &str) -> Vec<Metric> {
    let c = &d.counters;
    let units = d.units.max(1) as f64;
    let per = |k: &str| c.get(k) as f64 / units;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let (att, hits) = (c.get("steal_attempts"), c.get("steal_hits"));
    let (own, stolen) = (c.get("tasks_executed_own"), c.get("tasks_executed_stolen"));
    let (batches, served) = (c.get("combine_batches"), c.get("combine_served"));
    let valid = if d.dropped == 0 {
        "valid".to_string()
    } else {
        format!("INVALID: {} trace events dropped", d.dropped)
    };
    let sh = d.workers.shares();
    let n = d.units;
    let mut rows = vec![
        Metric::new("steal.attempts", "count", per("steal_attempts"))
            .n(n)
            .note(format!("per {unit}; {att} over {n} {unit}s")),
        Metric::new("steal.hits", "count", per("steal_hits"))
            .n(n)
            .higher()
            .note(format!("per {unit}; {hits} over {n} {unit}s")),
        Metric::new("steal.hit_ratio", "ratio", ratio(hits, att))
            .n(n)
            .higher()
            .note(format!("{hits} hits / {att} attempts")),
        Metric::new("steal.stolen_share", "ratio", ratio(stolen, own + stolen))
            .n(n)
            .note(format!("{stolen} stolen / {} executed tasks", own + stolen)),
        Metric::new("steal.combine_batch", "count", ratio(served, batches))
            .n(n)
            .note(format!("{served} requests served / {batches} combines")),
        Metric::new("steal.local", "count", per("steals_local_node"))
            .n(n)
            .note(format!("per {unit}; same-node steals")),
        Metric::new("steal.remote", "count", per("steals_remote_node"))
            .n(n)
            .note(format!("per {unit}; remote-node steals")),
    ];
    let traced_ms = d
        .workers
        .per_worker
        .first()
        .map_or(0.0, |a| a[4] as f64 / 1e6);
    for (k, name) in ["job", "run", "steal", "park", "untraced"]
        .iter()
        .enumerate()
    {
        let mean = sh.iter().map(|s| s[k]).sum::<f64>() / sh.len().max(1) as f64;
        rows.push(
            Metric::new(format!("worker.{name}_share"), "ratio", mean)
                .n(n)
                .note(format!(
                    "mean over {} workers of {traced_ms:.1} ms traced each; {valid}",
                    sh.len()
                )),
        );
        for (w, s) in sh.iter().enumerate() {
            rows.push(
                Metric::new(format!("worker{w}.{name}_share"), "ratio", s[k])
                    .n(n)
                    .note(valid.clone()),
            );
        }
    }
    let (pt, pu) = (p(&d.traced, 0.5), p(&d.untraced, 0.5));
    rows.push(p90_metric(&d.untraced));
    rows.push(Metric::new("telemetry.events", "count", d.events as f64).n(n));
    rows.push(
        Metric::new("telemetry.dropped", "count", d.dropped as f64)
            .n(n)
            .note(valid),
    );
    rows.push(
        Metric::new(
            "telemetry.overhead",
            "ratio",
            if pu > 0.0 { pt / pu - 1.0 } else { 0.0 },
        )
        .n(d.traced.len() + d.untraced.len())
        .note(format!(
            "traced p50 {pt:.4} ms ({}) / untraced p50 {pu:.4} ms ({}) - 1",
            d.traced.len(),
            d.untraced.len()
        )),
    );
    for (name, (ns, count)) in d.spans.self_times() {
        rows.push(
            Metric::new(
                format!("self_us.{name}"),
                "us",
                ns as f64 / count.max(1) as f64 / 1e3,
            )
            .n(count as usize)
            .note(format!("mean self time of {count} spans")),
        );
    }
    rows
}
