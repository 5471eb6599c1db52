//! The open-loop arrival schedule of the `submit` workload: seeded due
//! times at a fixed rate, how late the generator ran, and whether the
//! backlog of unfinished jobs kept growing.

use crate::stats::Rng;

/// One scheduled job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// Due time in nanoseconds from the start of the step.
    pub due_ns: u64,
    /// Long (rare, expensive) body instead of a short one.
    pub long: bool,
    /// Submitted through the builder with high priority.
    pub high: bool,
}

/// One job in this many has a long body.
pub const LONG_EVERY: u64 = 16;
/// One job in this many is submitted with high priority.
pub const HIGH_EVERY: usize = 8;

/// Draw a body class: long with probability `1 / LONG_EVERY`.
pub fn draw_long(rng: &mut Rng) -> bool {
    rng.next_u64().is_multiple_of(LONG_EVERY)
}

/// Poisson arrivals at `rate` jobs per second over `span_ns`: exponential
/// gaps drawn from `rng`. Every `HIGH_EVERY`-th job is high priority; a
/// job is long with probability `1 / LONG_EVERY`.
pub fn poisson(rng: &mut Rng, rate: f64, span_ns: u64) -> Vec<Arrival> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mean_gap = 1e9 / rate;
    let mut out = Vec::with_capacity((rate * span_ns as f64 / 1e9 * 1.2) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // 1 - unit() lies in (0, 1], so the log is finite.
        t += -mean_gap * (1.0 - rng.unit()).ln();
        if t >= span_ns as f64 {
            return out;
        }
        let long = draw_long(rng);
        let high = out.len() % HIGH_EVERY == HIGH_EVERY - 1;
        out.push(Arrival {
            due_ns: t as u64,
            long,
            high,
        });
    }
}

/// Index one past the last arrival due at `now_ns`, scanning from `next`
/// (arrivals are sorted by due time).
pub fn due_until(arrivals: &[Arrival], next: usize, now_ns: u64) -> usize {
    next + arrivals[next..].partition_point(|a| a.due_ns <= now_ns)
}

/// How late a job was submitted: time after its due time, zero if early.
pub fn lateness(due_ns: u64, submitted_ns: u64) -> u64 {
    submitted_ns.saturating_sub(due_ns)
}

/// Samples of the backlog (jobs submitted but not yet complete), taken by
/// the generator each time it wakes.
#[derive(Default)]
pub struct Backlog {
    samples: Vec<u64>,
}

impl Backlog {
    /// Record the backlog seen at one wake-up.
    pub fn sample(&mut self, outstanding: u64) {
        self.samples.push(outstanding);
    }

    /// Largest backlog seen.
    pub fn max(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }

    /// The backlog grows when its mean over the last third of the step is
    /// more than twice that over the first third plus a slack of eight
    /// jobs: a queue that keeps building instead of draining.
    pub fn growing(&self) -> bool {
        let n = self.samples.len();
        if n < 6 {
            return false;
        }
        let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
        let first = mean(&self.samples[..n / 3]);
        let last = mean(&self.samples[n - n / 3..]);
        last > 2.0 * first + 8.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_repeats_for_a_seed_and_keeps_its_rate() {
        let a = poisson(&mut Rng::new(5, 0), 10_000.0, 1_000_000_000);
        let b = poisson(&mut Rng::new(5, 0), 10_000.0, 1_000_000_000);
        assert_eq!(a, b);
        // 10k/s over 1 s: within 3% of 10 000 (sd of a Poisson count is 100).
        assert!((9_700..=10_300).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.iter().all(|x| x.due_ns < 1_000_000_000));
        let highs = a.iter().filter(|x| x.high).count();
        assert_eq!(highs, a.len() / HIGH_EVERY);
        let longs = a.iter().filter(|x| x.long).count() as f64 / a.len() as f64;
        assert!(
            (longs - 1.0 / LONG_EVERY as f64).abs() < 0.02,
            "long share {longs}"
        );
        assert_ne!(a, poisson(&mut Rng::new(6, 0), 10_000.0, 1_000_000_000));
    }

    #[test]
    fn due_jobs_are_those_at_or_before_now() {
        let at = |due_ns| Arrival {
            due_ns,
            long: false,
            high: false,
        };
        let a = [at(10), at(20), at(20), at(35)];
        assert_eq!(due_until(&a, 0, 5), 0);
        assert_eq!(due_until(&a, 0, 10), 1);
        assert_eq!(due_until(&a, 1, 20), 3);
        assert_eq!(due_until(&a, 3, 34), 3);
        assert_eq!(due_until(&a, 3, 100), 4);
        assert_eq!(due_until(&a, 4, 100), 4);
    }

    #[test]
    fn lateness_counts_only_time_after_the_due_time() {
        assert_eq!(lateness(1_000, 1_250), 250);
        assert_eq!(lateness(1_000, 900), 0);
    }

    #[test]
    fn backlog_detects_a_queue_that_keeps_building() {
        let mut steady = Backlog::default();
        for i in 0..30 {
            steady.sample(3 + i % 4);
        }
        assert!(!steady.growing());
        assert_eq!(steady.max(), 6);
        let mut building = Backlog::default();
        for i in 0..30 {
            building.sample(2 + 5 * i);
        }
        assert!(building.growing());
        let mut short = Backlog::default();
        for i in 0..4 {
            short.sample(100 * i);
        }
        assert!(!short.growing(), "too few samples to judge");
    }
}
