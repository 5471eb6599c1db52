//! Metrics, the host fingerprint, the printed report, the result file and
//! the comparison of two result files.

use crate::json::{self, Value};
use crate::stats::{self, Shift};
use std::fmt::Write as _;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Reported value.
    pub value: f64,
    /// Observations (solves, jobs, calls) behind the value.
    pub n: usize,
    /// Per-round values: the spread and the comparison rule use these.
    pub samples: Vec<f64>,
    /// Lower is better.
    pub lower_is_better: bool,
    /// Base counts of a ratio, or how the value was obtained.
    pub note: String,
}

impl Metric {
    /// A metric with no per-round samples.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            n: 1,
            samples: Vec::new(),
            lower_is_better: true,
            note: String::new(),
        }
    }

    /// Set the observation count.
    pub fn n(mut self, n: usize) -> Metric {
        self.n = n;
        self
    }

    /// Set the per-round samples.
    pub fn samples(mut self, s: Vec<f64>) -> Metric {
        self.samples = s;
        self
    }

    /// Mark as higher-is-better.
    pub fn higher(mut self) -> Metric {
        self.lower_is_better = false;
        self
    }

    /// Attach base counts or provenance.
    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// The host a result was measured on. Results are compared only when
/// every field agrees.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    /// CPUs the process may use.
    pub nproc: usize,
    /// Worker count of the measured pools.
    pub workers: usize,
    /// CPU model string.
    pub cpu: String,
    /// Compiler that built the benchmark.
    pub rustc: String,
}

impl Fingerprint {
    /// This host, measuring with `workers` workers.
    pub fn detect(workers: usize) -> Fingerprint {
        Fingerprint {
            nproc: crate::harness::nproc(),
            workers,
            cpu: cpu_model(),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"workers\": {}, \"cpu\": {}, \"rustc\": {}}}",
            self.nproc,
            self.workers,
            json::quote(&self.cpu),
            json::quote(&self.rustc)
        )
    }

    fn from_json(v: &Value) -> Option<Fingerprint> {
        Some(Fingerprint {
            nproc: v.get("nproc")?.as_f64()? as usize,
            workers: v.get("workers")?.as_f64()? as usize,
            cpu: v.get("cpu")?.as_str()?.to_string(),
            rustc: v.get("rustc")?.as_str()?.to_string(),
        })
    }
}

/// The CPU brand string from `cpuid`, without reading any file.
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // Safety: cpuid is available on every x86_64 CPU (newer compilers
        // treat the intrinsic as safe, hence the allow).
        #[allow(unused_unsafe)]
        let max = unsafe { __cpuid(0x8000_0000) }.eax;
        if max >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                #[allow(unused_unsafe)]
                let r = unsafe { __cpuid(leaf) };
                for w in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&w.to_le_bytes());
                }
            }
            let s = String::from_utf8_lossy(&bytes);
            return s.trim_matches(char::from(0)).trim().to_string();
        }
    }
    std::env::consts::ARCH.to_string()
}

/// Everything one run produced.
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs came from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Host fingerprint.
    pub host: Fingerprint,
    /// Checked results.
    pub attempted: u64,
    /// Wrong, failed, refused or expired results.
    pub failed: u64,
    /// First failure, for the report.
    pub first_failure: Option<String>,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Human-readable report: fingerprint, then one line per metric with
    /// unit, observation count, per-round median and spread.
    pub fn print_table(&self) {
        let h = &self.host;
        println!(
            "perfbench {} seed={} seconds={} trace={} | host nproc={} workers={} cpu=\"{}\" rustc=\"{}\"",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            h.nproc,
            h.workers,
            h.cpu,
            h.rustc
        );
        for m in &self.metrics {
            let mut line = format!(
                "  {:<28} {:>14.6} {:<6} n={:<7}",
                m.name, m.value, m.unit, m.n
            );
            if m.samples.len() >= 2 {
                let _ = write!(
                    line,
                    " rounds={:<3} round-median={:.6} spread={:.3}",
                    m.samples.len(),
                    stats::median(&m.samples),
                    stats::spread(&m.samples)
                );
            }
            if !m.note.is_empty() {
                let _ = write!(line, "  [{}]", m.note);
            }
            println!("{line}");
        }
        println!(
            "  correct={} attempted={} failed={}{}",
            self.failed == 0,
            self.attempted,
            self.failed,
            self.first_failure
                .as_ref()
                .map(|f| format!(" first failure: {f}"))
                .unwrap_or_default()
        );
    }

    /// The last line the benchmark prints: the result object with the
    /// `listed` metrics (name, unit), in that order.
    pub fn result_line(&self, listed: &[(String, String)]) -> String {
        let metrics: Vec<String> = listed
            .iter()
            .filter_map(|(name, _)| self.metrics.iter().find(|m| m.name == *name))
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(&m.name),
                    json::num(m.value),
                    json::quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The result file: fingerprint, counts and every metric with its
    /// per-round samples.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {},\n\"fingerprint\": {},\n\
             \"correct\": {}, \"attempted\": {}, \"failed\": {},\n\"metrics\": [",
            json::quote(&self.workload),
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.host.to_json(),
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let samples: Vec<String> = m.samples.iter().map(|&s| json::num(s)).collect();
            let _ = write!(
                out,
                "{}\n  {{\"name\": {}, \"unit\": {}, \"value\": {}, \"n\": {}, \"better\": \"{}\", \
                 \"samples\": [{}], \"note\": {}}}",
                if i == 0 { "" } else { "," },
                json::quote(&m.name),
                json::quote(m.unit),
                json::num(m.value),
                m.n,
                if m.lower_is_better { "lower" } else { "higher" },
                samples.join(", "),
                json::quote(&m.note)
            );
        }
        out.push_str("\n]\n}\n");
        out
    }
}

/// Why two result files cannot be compared.
#[derive(Debug, PartialEq)]
pub enum CompareError {
    /// A file is not a result file.
    Malformed(String),
    /// The files come from different hosts or worker counts.
    FingerprintMismatch(String),
    /// The files measure different workloads, or one is a traced run.
    RunMismatch(String),
}

/// One metric's verdict.
#[derive(Debug, PartialEq)]
pub struct Verdict {
    /// Metric name.
    pub name: String,
    /// Median of the base samples.
    pub base: f64,
    /// Median of the new samples.
    pub new: f64,
    /// What the comparison rule says.
    pub shift: Shift,
}

/// Compare two result files (their JSON text) metric by metric with the
/// rule in [`stats::compare`]. Refuses when the fingerprints, workloads or
/// trace modes differ.
pub fn compare_results(base: &str, new: &str) -> Result<Vec<Verdict>, CompareError> {
    let parse = |s: &str, which: &str| {
        json::parse(s).map_err(|e| CompareError::Malformed(format!("{which}: {e}")))
    };
    let (b, n) = (parse(base, "base")?, parse(new, "new")?);
    let fp = |v: &Value, which: &str| {
        v.get("fingerprint")
            .and_then(Fingerprint::from_json)
            .ok_or_else(|| CompareError::Malformed(format!("{which}: no fingerprint")))
    };
    let (fb, fnew) = (fp(&b, "base")?, fp(&n, "new")?);
    if fb != fnew {
        return Err(CompareError::FingerprintMismatch(format!(
            "base {fb:?} vs new {fnew:?}"
        )));
    }
    for key in ["workload", "trace"] {
        if b.get(key) != n.get(key) {
            return Err(CompareError::RunMismatch(format!(
                "{key}: base {:?} vs new {:?}",
                b.get(key),
                n.get(key)
            )));
        }
    }
    let metrics = |v: &Value| -> Vec<(String, bool, Vec<f64>)> {
        v.get("metrics")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| {
                let samples = m
                    .get("samples")?
                    .as_array()?
                    .iter()
                    .filter_map(Value::as_f64)
                    .collect();
                Some((
                    m.get("name")?.as_str()?.to_string(),
                    m.get("better")?.as_str()? == "lower",
                    samples,
                ))
            })
            .collect()
    };
    let newm = metrics(&n);
    Ok(metrics(&b)
        .into_iter()
        .filter_map(|(name, lower, bs)| {
            let (_, _, ns) = newm.iter().find(|(nn, _, _)| *nn == name)?;
            if bs.is_empty() || ns.is_empty() {
                return None;
            }
            Some(Verdict {
                base: stats::median(&bs),
                new: stats::median(ns),
                shift: stats::compare(&bs, ns, lower),
                name,
            })
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Rng;

    fn outcome(workers: usize, center: f64, seed: u64) -> Outcome {
        let mut r = Rng::new(seed, 4);
        let samples: Vec<f64> = (0..12)
            .map(|_| center * (1.0 + 0.06 * (r.unit() - 0.5)))
            .collect();
        Outcome {
            workload: "fib".into(),
            seed,
            seconds: 1,
            trace: false,
            host: Fingerprint {
                nproc: 2,
                workers,
                cpu: "test cpu".into(),
                rustc: "rustc test".into(),
            },
            attempted: 12,
            failed: 0,
            first_failure: None,
            metrics: vec![Metric::new("latency_ms.p50", "ms", stats::median(&samples))
                .samples(samples)
                .n(12)],
        }
    }

    #[test]
    fn recorded_shift_of_fifteen_percent_is_flagged_and_null_is_not() {
        let base = outcome(2, 50.0, 1).to_json();
        let slower = outcome(2, 57.5, 2).to_json();
        let same = outcome(2, 50.0, 3).to_json();
        let v = compare_results(&base, &slower).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].shift, Shift::Worse);
        assert_eq!(compare_results(&base, &same).unwrap()[0].shift, Shift::None);
    }

    #[test]
    fn results_from_different_worker_counts_or_runs_are_refused() {
        let base = outcome(2, 50.0, 1).to_json();
        let other = outcome(1, 50.0, 2).to_json();
        assert!(matches!(
            compare_results(&base, &other),
            Err(CompareError::FingerprintMismatch(_))
        ));
        assert!(matches!(
            compare_results(&base, "{}"),
            Err(CompareError::Malformed(_))
        ));
        let mut traced = outcome(2, 50.0, 3);
        traced.trace = true;
        assert!(matches!(
            compare_results(&base, &traced.to_json()),
            Err(CompareError::RunMismatch(_))
        ));
    }

    #[test]
    fn result_line_is_one_json_object_with_every_metric() {
        let o = outcome(2, 50.0, 1);
        let line = o.result_line(&[("latency_ms.p50".to_string(), "ms".to_string())]);
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let m = v
            .get("metrics")
            .and_then(|m| m.get("latency_ms.p50"))
            .unwrap();
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("ms"));
    }
}
