//! Interface counters and latency aggregation.

/// Per-interface counters readable by the host (paper §4.3: "These counters
/// contain the number of transferred bytes, frames, drops, or stalled
/// cycles").
///
/// # Examples
///
/// ```
/// use rosebud_kernel::Counters;
/// let mut c = Counters::default();
/// c.count_rx_frame(64);
/// c.count_tx_frame(64);
/// assert_eq!(c.rx_frames, 1);
/// assert_eq!(c.tx_bytes, 64);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Bytes received.
    pub rx_bytes: u64,
    /// Frames received.
    pub rx_frames: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
    /// Frames transmitted.
    pub tx_frames: u64,
    /// Frames dropped (overflow or policy).
    pub drops: u64,
    /// Cycles spent stalled on backpressure.
    pub stall_cycles: u64,
}

impl Counters {
    /// Records an ingress frame of `bytes` bytes.
    pub fn count_rx_frame(&mut self, bytes: u64) {
        self.rx_bytes += bytes;
        self.rx_frames += 1;
    }

    /// Records an egress frame of `bytes` bytes.
    pub fn count_tx_frame(&mut self, bytes: u64) {
        self.tx_bytes += bytes;
        self.tx_frames += 1;
    }

    /// Records a dropped frame.
    pub fn count_drop(&mut self) {
        self.drops += 1;
    }

    /// Records `cycles` of backpressure stall.
    pub fn count_stall(&mut self, cycles: u64) {
        self.stall_cycles += cycles;
    }

    /// The counter growth since an `earlier` snapshot. Saturating per field,
    /// so a counter reset between snapshots yields zero rather than a bogus
    /// huge delta.
    pub(crate) fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            rx_bytes: self.rx_bytes.saturating_sub(earlier.rx_bytes),
            rx_frames: self.rx_frames.saturating_sub(earlier.rx_frames),
            tx_bytes: self.tx_bytes.saturating_sub(earlier.tx_bytes),
            tx_frames: self.tx_frames.saturating_sub(earlier.tx_frames),
            drops: self.drops.saturating_sub(earlier.drops),
            stall_cycles: self.stall_cycles.saturating_sub(earlier.stall_cycles),
        }
    }
}

/// One sampling interval produced by [`RateWindow::sample`]: the cycle span
/// and the counter growth inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateSample {
    /// Cycles elapsed since the previous sample (full 64-bit — windows that
    /// straddle the 2^32 cycle mark, ~17 s of simulated time at 250 MHz,
    /// must not wrap).
    pub(crate) cycles: u64,
    /// Counter deltas over the window.
    pub(crate) delta: Counters,
}

impl RateSample {
    /// Received bits per cycle over the window; 0.0 for an empty window.
    pub fn rx_bits_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.delta.rx_bytes as f64 * 8.0 / self.cycles as f64
    }
}

/// Windowed rate sampler over [`Counters`], keyed on the 64-bit simulation
/// cycle.
///
/// All arithmetic is u64 end to end: cycle deltas are *not* narrowed to u32
/// anywhere, so long-running simulations (past 2^32 cycles) keep producing
/// correct rates instead of silently wrapping.
///
/// # Examples
///
/// ```
/// use rosebud_kernel::{Counters, RateWindow};
/// let mut c = Counters::default();
/// let mut w = RateWindow::new(0, c);
/// c.count_rx_frame(1000);
/// let s = w.sample(4000, c);
/// assert_eq!(s.rx_bits_per_cycle(), 2.0); // 8000 bits over 4000 cycles
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RateWindow {
    last_cycle: u64,
    last: Counters,
}

impl RateWindow {
    /// Opens a window at `now` with baseline `counters`.
    pub fn new(now: u64, counters: Counters) -> Self {
        Self {
            last_cycle: now,
            last: counters,
        }
    }

    /// Closes the current window at `now`, returning the sample, and opens
    /// the next one.
    pub fn sample(&mut self, now: u64, counters: Counters) -> RateSample {
        let sample = RateSample {
            cycles: now.saturating_sub(self.last_cycle),
            delta: counters.since(&self.last),
        };
        self.last_cycle = now;
        self.last = counters;
        sample
    }
}

/// Online aggregation of latency samples in nanoseconds.
///
/// Keeps every sample so exact percentiles can be reported, like the paper's
/// RTT experiment which post-processes captured timestamps (§6.2, Appendix D).
///
/// # Examples
///
/// ```
/// use rosebud_kernel::LatencyStats;
/// let mut stats = LatencyStats::new();
/// for ns in [100.0, 200.0, 300.0] {
///     stats.record(ns);
/// }
/// assert_eq!(stats.mean(), 200.0);
/// assert_eq!(stats.min(), 100.0);
/// assert_eq!(stats.max(), 300.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    samples: Vec<f64>,
    sorted: bool,
}

impl LatencyStats {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample in nanoseconds.
    pub fn record(&mut self, ns: f64) {
        self.samples.push(ns);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Smallest sample; 0.0 when empty.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest sample; 0.0 when empty.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The `p`-th percentile (0.0–100.0); 0.0 when empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("latency samples are finite"));
            self.sorted = true;
        }
        let rank = (p / 100.0 * (self.samples.len() - 1) as f64).round() as usize;
        self.samples[rank.min(self.samples.len() - 1)]
    }

    /// All samples recorded so far, in insertion or sorted order depending on
    /// whether a percentile has been queried.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_since() {
        let mut a = Counters::default();
        a.count_rx_frame(100);
        a.count_rx_frame(100);
        let snap = a;
        a.count_rx_frame(50);
        a.count_drop();
        let d = a.since(&snap);
        assert_eq!(d.rx_frames, 1);
        assert_eq!(d.rx_bytes, 50);
        assert_eq!(d.drops, 1);
        // A reset (smaller) counter saturates to zero instead of wrapping.
        assert_eq!(Counters::default().since(&a).rx_bytes, 0);
    }

    #[test]
    fn rate_window_survives_the_u32_cycle_boundary() {
        // 2^32 cycles is only ~17 s of simulated time at 250 MHz; a window
        // that straddles it must report the true span, not a wrapped u32.
        let boundary = 1u64 << 32;
        let mut c = Counters::default();
        let mut w = RateWindow::new(boundary - 1_000, c);
        c.count_rx_frame(64_000);
        c.count_tx_frame(64_000);
        let s = w.sample(boundary + 1_000, c);
        assert_eq!(s.cycles, 2_000, "cycle delta wrapped at 2^32");
        assert_eq!(s.rx_bits_per_cycle(), 64_000.0 * 8.0 / 2_000.0);
        // And the next window continues from the far side of the boundary.
        c.count_tx_frame(500);
        let s2 = w.sample(boundary + 2_000, c);
        assert_eq!(s2.cycles, 1_000);
        assert_eq!(s2.delta.tx_frames, 1);
        assert_eq!(s2.delta.tx_bytes, 500);
    }

    #[test]
    fn rate_window_empty_span_is_zero_rate() {
        let c = Counters::default();
        let mut w = RateWindow::new(42, c);
        let s = w.sample(42, c);
        assert_eq!(s.cycles, 0);
        assert_eq!(s.rx_bits_per_cycle(), 0.0);
    }

    #[test]
    fn latency_percentiles() {
        let mut stats = LatencyStats::new();
        for i in 1..=100 {
            stats.record(i as f64);
        }
        assert_eq!(stats.percentile(0.0), 1.0);
        assert_eq!(stats.percentile(50.0), 51.0);
        assert_eq!(stats.percentile(100.0), 100.0);
        assert_eq!(stats.count(), 100);
    }

    #[test]
    fn latency_empty_is_zero() {
        let mut stats = LatencyStats::new();
        assert_eq!(stats.mean(), 0.0);
        assert_eq!(stats.min(), 0.0);
        assert_eq!(stats.max(), 0.0);
        assert_eq!(stats.percentile(50.0), 0.0);
    }
}
