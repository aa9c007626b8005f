//! Order statistics without per-sample storage: a fixed-bucket histogram for
//! latencies, and median/quartiles for the handful of per-window timings.

/// A histogram of `u64` values in buckets `2^shift` wide, allocated once.
/// With `shift == 0` every value below the bucket count is kept exactly, so
/// percentiles of simulated cycle counts are exact and repeatable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    counts: Vec<u64>,
    shift: u32,
    total: u64,
    /// Samples beyond the last bucket (clamped into it).
    overflow: u64,
}

impl Hist {
    pub fn new(buckets: usize, shift: u32) -> Self {
        assert!(buckets > 0);
        Self {
            counts: vec![0; buckets],
            shift,
            total: 0,
            overflow: 0,
        }
    }

    /// One bucket per simulated cycle up to 65 535 cycles (262 µs).
    pub fn cycles() -> Self {
        Self::new(1 << 16, 0)
    }

    /// 256 ns buckets up to 16.7 ms, for wall-clock nanoseconds.
    pub fn wall_ns() -> Self {
        Self::new(1 << 16, 8)
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        let mut i = (v >> self.shift) as usize;
        if i >= self.counts.len() {
            i = self.counts.len() - 1;
            self.overflow += 1;
        }
        self.counts[i] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.overflow = 0;
    }

    /// Nearest-rank percentile: the value of the `ceil(p·n)`-th smallest
    /// sample (the middle of its bucket when buckets are wider than 1).
    /// `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let lo = (i as u64) << self.shift;
                let width = 1u64 << self.shift;
                return Some(lo as f64 + (width - 1) as f64 / 2.0);
            }
        }
        unreachable!("total is the sum of the buckets");
    }
}

/// Sample count, median and quartiles of a small set of timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    /// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
    /// (the default "exclusive" method), so spreads computed here and by a
    /// driver script agree. One sample is its own quartiles; none is NaN.
    pub fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        match n {
            0 => Self {
                n,
                q1: f64::NAN,
                median: f64::NAN,
                q3: f64::NAN,
            },
            1 => Self {
                n,
                q1: v[0],
                median: v[0],
                q3: v[0],
            },
            _ => {
                let cut = |i: usize| {
                    let m = n + 1;
                    let j = (i * m / 4).clamp(1, n - 1);
                    let delta = (i * m) as f64 - (j * 4) as f64;
                    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
                };
                Self {
                    n,
                    q1: cut(1),
                    median: cut(2),
                    q3: cut(3),
                }
            }
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_histogram_percentiles_are_exact() {
        let mut h = Hist::cycles();
        for v in 1..=100u64 {
            h.record(v * 3);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(0.50), Some(150.0)); // 50th smallest
        assert_eq!(h.percentile(0.99), Some(297.0));
        assert_eq!(h.percentile(1.0), Some(300.0));
        assert_eq!(h.percentile(0.0), Some(3.0));
        assert_eq!(Hist::cycles().percentile(0.5), None);
    }

    #[test]
    fn wide_buckets_report_their_middle_and_overflow_is_counted() {
        let mut h = Hist::new(4, 8);
        h.record(0);
        h.record(300); // bucket 1: 256..511
        h.record(10_000); // beyond 4 buckets
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.percentile(0.5), Some(256.0 + 127.5));
        assert_eq!(h.percentile(1.0), Some(768.0 + 127.5));
        h.clear();
        assert_eq!((h.count(), h.overflow()), (0, 0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v);
        assert_eq!((q.n, q.q1, q.median, q.q3), (10, 2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let q = Quartiles::of(&[20.0, 10.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.5, 15.0, 22.5));
        assert_eq!(median(&[4.0, 1.0, 9.0, 2.0]), 3.0);
        assert_eq!(Quartiles::of(&[5.0]).q3, 5.0);
        assert!(Quartiles::of(&[]).median.is_nan());
    }
}
