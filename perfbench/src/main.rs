//! The repository benchmark. One command runs one workload on the public
//! runtime API at `nproc` workers, checks every result, and prints every
//! metric with its unit, sample count, median and spread, then the
//! result object as the last line.
//!
//! ```text
//! perfbench --workload <fib|cholesky|loops|submit> --seed <n> --seconds <n> --trace <0|1>
//! perfbench --compare <base-result.json> <new-result.json>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with runtime tracing off.
//! `--trace 1` is the separate traced run giving the per-layer metrics:
//! the workload's own traced pass, plus a short probe pass of each other
//! workload for the layers this one bypasses. Metric names and units come
//! from `BENCHMARK.json` in the working directory. Result files, the
//! benchmark's span trace and the runtime's own trace go to
//! `perfbench/out/`.

mod cholesky;
mod fib;
mod harness;
mod json;
mod loops;
mod report;
mod schedule;
mod spans;
mod stats;
mod submit;

use harness::{Tally, TraceData};
use report::{Fingerprint, Metric, Outcome};
use std::time::Instant;

/// Input size of a pass: the workload's own, or a small probe of a layer
/// the measured workload bypasses.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The workload's measured size.
    Full,
    /// A small size for a probe pass.
    Probe,
}

const WORKLOADS: [&str; 4] = ["fib", "cholesky", "loops", "submit"];
const OUT_DIR: &str = "perfbench/out";
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Share of a traced run spent on the workload itself; the rest is
/// split among the probe passes.
const OWN_SHARE: f64 = 0.7;

const USAGE: &str = "usage: perfbench --workload <fib|cholesky|loops|submit> --seed <n> \
                     --seconds <n> --trace <0|1>\n       perfbench --compare <base.json> <new.json>";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Mode {
    Run(Args),
    Compare(String, String),
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv {
            [_, a, b] => Ok(Mode::Compare(a.clone(), b.clone())),
            _ => Err("--compare takes two result files".into()),
        };
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    Ok(Mode::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: match trace.ok_or("--trace is required")? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace {t} is not 0 or 1")),
        },
    }))
}

/// Metric names and units listed in `BENCHMARK.json`.
struct Listed {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

fn load_listed(path: &str) -> Result<Listed, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = |key: &str| -> Result<Vec<(String, String)>, String> {
        v.get(key)
            .and_then(json::Value::as_array)
            .ok_or(format!("{path}: no {key} list"))?
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(json::Value::as_str).map(str::to_string);
                field("name")
                    .zip(field("unit"))
                    .ok_or(format!("{path}: {key} entry without name or unit"))
            })
            .collect()
    };
    Ok(Listed {
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

/// Run `setup` `SETUPS` times; keep the last result and every duration.
fn timed_setups<T>(tally: &mut Tally, mut setup: impl FnMut(&mut Tally) -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup(tally));
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

fn end_to_end(a: &Args, workers: usize, tally: &mut Tally) -> Vec<Metric> {
    let (mut solver, setups): (Box<dyn harness::Solver>, Vec<f64>) = match a.workload {
        "fib" => {
            let (s, t) = timed_setups(tally, |t| fib::Fib::setup(Size::Full, workers, t));
            (Box::new(s), t)
        }
        "cholesky" => {
            let (s, t) = timed_setups(tally, |t| {
                cholesky::Cholesky::setup(a.seed, Size::Full, workers, t)
            });
            (Box::new(s), t)
        }
        "loops" => {
            let (s, t) = timed_setups(tally, |t| {
                loops::Loops::setup(a.seed, Size::Full, workers, t)
            });
            (Box::new(s), t)
        }
        _ => {
            let (s, t) = timed_setups(tally, |t| submit::Submit::setup(a.seed, workers, t));
            (Box::new(s), t)
        }
    };
    let arms = harness::run_closed(solver.as_mut(), workers, a.seconds as f64, tally);
    let mut m = vec![harness::setup_metric(setups)];
    m.extend(harness::closed_metrics(&arms, workers));
    if !arms.replay.is_empty() {
        let all: Vec<f64> = arms.replay.iter().flatten().copied().collect();
        m.push(
            Metric::new("replay_ms.p50", "ms", stats::median(&all))
                .n(all.len())
                .samples(arms.replay.iter().map(|r| stats::median(r)).collect())
                .note("replay of the recorded DAG; per-layer row record.replay_ms.p50"),
        );
    }
    m
}

/// One workload's traced pass: its trace data and its own layer rows.
fn layer_pass(
    w: &str,
    seed: u64,
    size: Size,
    secs: f64,
    workers: usize,
    tally: &mut Tally,
) -> (TraceData, Vec<Metric>) {
    match w {
        "fib" => {
            let mut f = fib::Fib::setup(size, workers, tally);
            let (d, x) = harness::trace_closed(&mut f, workers, secs, tally);
            let rows = fib::rows(&f, &x.one, &x.seq);
            (d, rows)
        }
        "cholesky" => {
            let mut c = cholesky::Cholesky::setup(seed, size, workers, tally);
            let (d, x) = harness::trace_closed(&mut c, workers, secs, tally);
            let rows = cholesky::rows(&c, &d, &x, workers, tally);
            (d, rows)
        }
        "loops" => {
            let mut l = loops::Loops::setup(seed, size, workers, tally);
            let (d, _) = harness::trace_closed(&mut l, workers, secs, tally);
            let rows = loops::rows(&d);
            (d, rows)
        }
        _ => {
            let mut s = submit::Submit::setup(seed, workers, tally);
            submit::trace(&mut s, secs, tally)
        }
    }
}

/// Files a traced run leaves beside its result file.
struct Artifacts {
    spans: String,
    runtime: Option<String>,
}

/// The traced run: the workload's own pass first, then a probe pass of
/// every other workload; a row keeps the first pass that produced it.
fn per_layer(a: &Args, workers: usize, tally: &mut Tally) -> (Vec<Metric>, Artifacts) {
    let secs = a.seconds as f64;
    let order: Vec<&str> = std::iter::once(a.workload)
        .chain(WORKLOADS.iter().copied().filter(|w| *w != a.workload))
        .collect();
    let mut rows: Vec<Metric> = Vec::new();
    let mut artifacts = None;
    for (k, w) in order.iter().enumerate() {
        let (size, share) = if k == 0 {
            (Size::Full, OWN_SHARE)
        } else {
            (Size::Probe, (1.0 - OWN_SHARE) / (order.len() - 1) as f64)
        };
        let (d, own) = layer_pass(w, a.seed, size, secs * share, workers, tally);
        let unit = if *w == "submit" { "job" } else { "solve" };
        let mut pass = harness::common_rows(&d, unit);
        pass.extend(own);
        if k == 0 {
            artifacts = Some(Artifacts {
                spans: d.spans.to_perfetto(),
                runtime: d.session.as_ref().map(harness::Timelines::to_chrome_trace),
            });
        }
        for mut m in pass {
            if rows.iter().all(|r| r.name != m.name) {
                if k > 0 {
                    m.note = format!("probe pass of {w}; {}", m.note);
                }
                rows.push(m);
            }
        }
    }
    let (f, n) = (tally.failed, tally.attempted.max(1));
    rows.push(
        Metric::new("failed_frac", "ratio", f as f64 / n as f64)
            .n(n as usize)
            .note(format!("{f} failed / {n} checked results")),
    );
    (rows, artifacts.expect("the workload's own pass ran"))
}

fn write_out(name: &str, text: &str) {
    let path = format!("{OUT_DIR}/{name}");
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("perfbench: cannot write {path}: {e}");
    }
}

fn run(a: Args) -> i32 {
    let listed = match load_listed("BENCHMARK.json") {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    let workers = harness::nproc();
    let mut tally = Tally::default();
    let (mut metrics, artifacts) = if a.trace {
        let (m, art) = per_layer(&a, workers, &mut tally);
        (m, Some(art))
    } else {
        (end_to_end(&a, workers, &mut tally), None)
    };
    metrics.push(harness::host_capacity(workers));
    let out = Outcome {
        workload: a.workload.to_string(),
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        host: Fingerprint::detect(workers),
        attempted: tally.attempted,
        failed: tally.failed,
        first_failure: tally.first_failure,
        metrics,
    };
    out.print_table();
    let stem = format!("{}-seed{}", a.workload, a.seed);
    write_out(
        &format!("{stem}-trace{}.json", u8::from(a.trace)),
        &out.to_json(),
    );
    if let Some(art) = artifacts {
        write_out(&format!("{stem}.spans.json"), &art.spans);
        if let Some(rt) = art.runtime {
            write_out(&format!("{stem}.runtime.json"), &rt);
        }
    }
    let want = if a.trace {
        &listed.per_layer
    } else {
        &listed.end_to_end
    };
    let missing: Vec<&str> = want
        .iter()
        .filter(|(n, u)| !out.metrics.iter().any(|m| m.name == *n && m.unit == u))
        .map(|(n, _)| n.as_str())
        .collect();
    if !missing.is_empty() {
        eprintln!(
            "perfbench: listed metrics not produced: {}",
            missing.join(", ")
        );
        return 2;
    }
    println!("{}", out.result_line(want));
    if tally.failed == 0 {
        0
    } else {
        1
    }
}

fn compare(base: &str, new: &str) -> i32 {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (b, n) = match (read(base), read(new)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    match report::compare_results(&b, &n) {
        Err(e) => {
            eprintln!("perfbench: refusing to compare: {e:?}");
            3
        }
        Ok(verdicts) => {
            let mut worse = false;
            for v in &verdicts {
                worse |= v.shift == stats::Shift::Worse;
                println!(
                    "{:<28} base {:>14.6} new {:>14.6} ({:+.1}%) {:?}",
                    v.name,
                    v.base,
                    v.new,
                    (v.new / v.base - 1.0) * 100.0,
                    v.shift
                );
            }
            i32::from(worse)
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&argv) {
        Ok(Mode::Run(a)) => run(a),
        Ok(Mode::Compare(a, b)) => compare(&a, &b),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}
