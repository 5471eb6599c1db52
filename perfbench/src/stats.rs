//! Sample statistics: percentiles, quartile spread and the rule that
//! decides whether two sets of samples differ.

/// Nearest-rank percentile of `sorted` (ascending) at `q` in `[0, 1]`:
/// the smallest sample with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a copy of `v` ascending.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank percentile `q` of unsorted samples; 0 for no samples.
pub fn pct(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        percentile(&sorted(v), q)
    }
}

/// Median (nearest-rank p50; for an even count, the lower middle).
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v), 0.5)
}

/// Whether a percentile `q` of `n` samples has at least ten samples
/// beyond it — the rule for which tail percentile a timing may report.
pub fn tail_supported(n: usize, q: f64) -> bool {
    // The nearest rank, with slack for the rounding of `q * n`.
    let rank = (q * n as f64 - 1e-9).ceil() as usize;
    n.saturating_sub(rank) >= 10
}

/// The three quartiles as Python's `statistics.quantiles(v, n=4)` gives
/// them (the default "exclusive" method). Needs two samples.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v);
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let at = |i: usize| {
        // Python's integer arithmetic: the index is clamped to 1..n-1 and
        // the remainder may then extrapolate past the end pair.
        let m = (i * (n + 1)) as isize;
        let j = (m / 4).clamp(1, n as isize - 1);
        let delta = (m - j * 4) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// Quartile distance as a share of the median: the run-to-run spread a
/// metric's bound is set against. Zero for fewer than two samples.
pub fn spread(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let (q1, q2, q3) = quartiles(v);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Outcome of comparing a new set of samples against a base set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shift {
    /// No shift beyond the base's own spread.
    None,
    /// The new samples are better.
    Better,
    /// The new samples are worse.
    Worse,
}

/// Share of all (base, new) pairs in which the new sample is larger; ties
/// count half.
pub fn prob_larger(base: &[f64], new: &[f64]) -> f64 {
    let mut wins = 0.0;
    for &b in base {
        for &n in new {
            if n > b {
                wins += 1.0;
            } else if n == b {
                wins += 0.5;
            }
        }
    }
    wins / (base.len() * new.len()) as f64
}

/// The comparison rule: a shift is flagged only when the new samples beat
/// (or lose to) the base in at least nine tenths of all pairs, and the
/// medians differ by more than the base's quartile distance.
pub fn compare(base: &[f64], new: &[f64], lower_is_better: bool) -> Shift {
    if base.is_empty() || new.is_empty() {
        return Shift::None;
    }
    let iqr = if base.len() >= 2 {
        let (q1, _, q3) = quartiles(base);
        q3 - q1
    } else {
        0.0
    };
    let delta = median(new) - median(base);
    if delta.abs() <= iqr {
        return Shift::None;
    }
    let up = prob_larger(base, new);
    let larger = if up >= 0.9 {
        true
    } else if up <= 0.1 {
        false
    } else {
        return Shift::None;
    };
    if larger == lower_is_better {
        Shift::Worse
    } else {
        Shift::Better
    }
}

/// Deterministic splitmix64 generator: every seeded input of the benchmark
/// comes from it, so a seed always gives the same inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label, so workloads sharing a
    /// seed still draw independent streams.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        assert!(!tail_supported(99, 0.9));
        assert!(tail_supported(100, 0.9));
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(1000, 0.99));
        assert!(tail_supported(20, 0.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1..5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 3.0, 4.5));
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[4.0]), 0.0);
    }

    /// Ten noisy samples around `center`, ±3% from a seeded stream.
    fn noisy(center: f64, seed: u64) -> Vec<f64> {
        let mut r = Rng::new(seed, 1);
        (0..10)
            .map(|_| center * (1.0 + 0.06 * (r.unit() - 0.5)))
            .collect()
    }

    #[test]
    fn a_fifteen_percent_shift_is_flagged() {
        let base = noisy(100.0, 1);
        let slower = noisy(115.0, 2);
        assert_eq!(compare(&base, &slower, true), Shift::Worse);
        assert_eq!(compare(&base, &slower, false), Shift::Better);
        let faster = noisy(85.0, 3);
        assert_eq!(compare(&base, &faster, true), Shift::Better);
    }

    #[test]
    fn a_null_shift_is_not_flagged() {
        for seed in 0..20 {
            let base = noisy(100.0, 100 + seed);
            let same = noisy(100.0, 200 + seed);
            assert_eq!(compare(&base, &same, true), Shift::None, "seed {seed}");
        }
    }

    #[test]
    fn rng_repeats_for_a_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(9, 2);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(9, 2);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert_ne!(Rng::new(9, 3).next_u64(), a[0]);
    }
}
