//! Benchmark-owned tracing: spans around the calls into each layer, kept in
//! memory and written out when the run ends.
//!
//! Two kinds of timer feed one record type. A [`Span`] brackets a call the
//! driver loop makes itself (every call timed). A [`Probe`] sits inside a
//! wrapper around one of the repo's public traits, where calls happen per
//! lane per cycle: it counts every call and times about one in 64, and the
//! busy time reported is the timed share scaled up to all calls. Both are
//! closed into one [`SpanRec`] per name per measurement window.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use crate::json::Json;

/// Sampling stride of a [`Probe`]. Prime, so it does not lock onto one lane
/// of an 8- or 16-lane sweep or one phase of a short periodic call pattern.
pub const PROBE_STRIDE: u64 = 61;

/// Nanoseconds since the first call, as a monotonic `u64`.
pub fn now_ns() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What one clock read costs at least, measured once: the smallest gap
/// between back-to-back reads. A timed interval always contains one read, so
/// this is what a span's record sets aside as `overhead_ns`; the smallest
/// gap rather than a typical one, so work is never over-subtracted.
pub fn timer_ns() -> f64 {
    use std::sync::OnceLock;
    static COST: OnceLock<f64> = OnceLock::new();
    *COST.get_or_init(|| {
        let mut gaps = [0u64; 1001];
        let mut last = now_ns();
        for gap in &mut gaps {
            let t = now_ns();
            *gap = t - last;
            last = t;
        }
        gaps.into_iter().min().unwrap_or(0) as f64
    })
}

/// One aggregated span: everything `name` did under `parent` in `window`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    /// The span that caused this one; `""` for a window root.
    pub parent: &'static str,
    pub window: u32,
    /// First entry and last exit, ns since the process epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time inside the span, children and the benchmark's own clock reads
    /// included. Estimated for a probe.
    pub busy_ns: f64,
    /// The part of `busy_ns` that is the benchmark's clock reads, not the
    /// layer's work.
    pub overhead_ns: f64,
    pub calls: u64,
    /// Calls that were actually timed (`== calls` for a driver span).
    pub timed_calls: u64,
}

impl SpanRec {
    /// A span entered once, from `t0` to `t1`.
    pub fn once(name: &'static str, parent: &'static str, window: u32, t0: u64, t1: u64) -> Self {
        Self {
            name,
            parent,
            window,
            start_ns: t0,
            end_ns: t1,
            busy_ns: (t1 - t0) as f64,
            overhead_ns: 0.0,
            calls: 1,
            timed_calls: 1,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name)),
            ("parent", Json::str(self.parent)),
            ("window", Json::Int(i64::from(self.window))),
            ("start_ns", Json::Int(self.start_ns as i64)),
            ("end_ns", Json::Int(self.end_ns as i64)),
            ("busy_ns", Json::Num(self.busy_ns)),
            ("overhead_ns", Json::Num(self.overhead_ns)),
            ("calls", Json::Int(self.calls as i64)),
            ("timed_calls", Json::Int(self.timed_calls as i64)),
        ])
    }
}

/// Time `name` worked in `window`, its children's included and the clock
/// reads taken out; 0 when it has no record.
pub fn work_ns(spans: &[SpanRec], window: u32, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.window == window && s.name == name)
        .fold(0.0, |sum, s| sum + (s.busy_ns - s.overhead_ns).max(0.0))
}

/// Self time: a span's work minus everything its direct children cover
/// (their clock reads too — those happen inside the parent). Clamped at 0,
/// because a sampled child's estimate can overshoot.
pub fn self_ns(spans: &[SpanRec], window: u32, name: &str) -> f64 {
    let children = spans
        .iter()
        .filter(|s| s.window == window && s.parent == name)
        .fold(0.0, |sum, s| sum + s.busy_ns);
    (work_ns(spans, window, name) - children).max(0.0)
}

/// Accumulator for a span the driver loop times itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    busy_ns: u64,
    calls: u64,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    /// Adds one call that ran from `t0` to `t1` (ns since the epoch).
    #[inline]
    pub fn add(&mut self, t0: u64, t1: u64) {
        if self.calls == 0 {
            self.start_ns = t0;
        }
        self.end_ns = t1;
        self.busy_ns += t1 - t0;
        self.calls += 1;
    }

    /// Closes the accumulator into a record and resets it.
    pub fn close(&mut self, name: &'static str, parent: &'static str, window: u32) -> SpanRec {
        let s = std::mem::take(self);
        SpanRec {
            name,
            parent,
            window,
            start_ns: s.start_ns,
            end_ns: s.end_ns,
            busy_ns: s.busy_ns as f64,
            overhead_ns: s.calls as f64 * timer_ns(),
            calls: s.calls,
            timed_calls: s.calls,
        }
    }
}

/// A sampling timer shared between a trait wrapper (inside the device) and
/// the benchmark. Atomics only because the traits require `Send`: the
/// benchmark drives the device from one thread, so updates are a `Relaxed`
/// load and store (a plain `mov`, not a locked read-modify-write, which at
/// 30 calls per cycle would itself be a tenth of the cycle). The values are
/// statistics that publish no other data.
#[derive(Debug, Default)]
pub struct Probe {
    calls: AtomicU64,
    timed: AtomicU64,
    ns: AtomicU64,
    first_ns: AtomicU64,
    last_ns: AtomicU64,
}

impl Probe {
    /// Counts the call; times it when its number is a multiple of the stride.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let timed = self.next_is_timed();
        self.calls.store(self.calls() + 1, Relaxed);
        if !timed {
            return f();
        }
        let t0 = now_ns();
        let r = f();
        let t1 = now_ns();
        let timed = self.timed.load(Relaxed);
        if timed == 0 {
            self.first_ns.store(t0, Relaxed);
        }
        self.timed.store(timed + 1, Relaxed);
        self.last_ns.store(t1, Relaxed);
        self.ns.store(self.ns.load(Relaxed) + (t1 - t0), Relaxed);
        r
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Whether the next call will be one of the timed ones.
    pub fn next_is_timed(&self) -> bool {
        self.calls().is_multiple_of(PROBE_STRIDE)
    }

    /// Closes the probe into a record and resets it. `None` if never called.
    pub fn close(&self, name: &'static str, parent: &'static str, window: u32) -> Option<SpanRec> {
        let calls = self.calls.swap(0, Relaxed);
        let timed = self.timed.swap(0, Relaxed);
        let ns = self.ns.swap(0, Relaxed);
        if calls == 0 {
            return None;
        }
        // Two clock reads per timed call: one inside the interval, one
        // before it that lands in the parent.
        let overhead_ns = 2.0 * timer_ns() * timed as f64;
        Some(SpanRec {
            name,
            parent,
            window,
            start_ns: self.first_ns.load(Relaxed),
            end_ns: self.last_ns.load(Relaxed),
            busy_ns: scaled_work(ns, calls, timed) + overhead_ns,
            overhead_ns,
            calls,
            timed_calls: timed,
        })
    }
}

/// Work estimate for `calls` calls of which `timed` took `ns` in total, one
/// clock read each included.
pub fn scaled_work(ns: u64, calls: u64, timed: u64) -> f64 {
    if timed == 0 {
        0.0
    } else {
        (ns as f64 - timed as f64 * timer_ns()).max(0.0) * calls as f64 / timed as f64
    }
}

/// A plain event counter with the same sharing rules as [`Probe`].
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.store(self.0.load(Relaxed) + n, Relaxed);
    }

    pub fn take(&self) -> u64 {
        self.0.swap(0, Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, parent: &'static str, window: u32, busy: f64) -> SpanRec {
        SpanRec {
            name,
            parent,
            window,
            start_ns: 0,
            end_ns: 0,
            busy_ns: busy,
            overhead_ns: 0.0,
            calls: 1,
            timed_calls: 1,
        }
    }

    #[test]
    fn self_time_is_busy_minus_direct_children() {
        let spans = vec![
            rec("window", "", 0, 1000.0),
            rec("tick", "window", 0, 700.0),
            rec("pump", "window", 0, 200.0),
            rec("lb", "tick", 0, 100.0),
            rec("accel", "tick", 0, 250.0),
            rec("accel.reg", "accel", 0, 50.0), // grandchild: not tick's
            rec("tick", "window", 1, 900.0),
            rec("lb", "tick", 1, 1000.0), // overshooting estimate
        ];
        assert_eq!(self_ns(&spans, 0, "tick"), 350.0);
        assert_eq!(self_ns(&spans, 0, "window"), 100.0);
        assert_eq!(self_ns(&spans, 0, "accel"), 200.0);
        assert_eq!(self_ns(&spans, 0, "pump"), 200.0);
        assert_eq!(self_ns(&spans, 1, "tick"), 0.0, "clamped, never negative");
        assert_eq!(work_ns(&spans, 1, "pump"), 0.0);
    }

    #[test]
    fn clock_reads_are_set_aside_from_work_and_self_time() {
        let mut tick = rec("tick", "window", 0, 700.0);
        tick.overhead_ns = 20.0;
        let mut lb = rec("lb", "tick", 0, 100.0);
        lb.overhead_ns = 40.0;
        let spans = vec![rec("window", "", 0, 1000.0), tick, lb];
        assert_eq!(work_ns(&spans, 0, "tick"), 680.0);
        assert_eq!(work_ns(&spans, 0, "lb"), 60.0);
        // The child's clock reads ran inside the parent: all 100 come off.
        assert_eq!(self_ns(&spans, 0, "tick"), 580.0);
        // Unattributed window time is measured against raw busy time.
        assert_eq!(self_ns(&spans, 0, "window"), 300.0);
    }

    #[test]
    fn span_accumulates_and_resets_on_close() {
        let mut s = Span::default();
        s.add(10, 25);
        s.add(40, 45);
        let r = s.close("x", "window", 3);
        assert_eq!(
            (r.start_ns, r.end_ns, r.busy_ns, r.calls),
            (10, 45, 20.0, 2)
        );
        assert_eq!(r.overhead_ns, 2.0 * timer_ns());
        assert_eq!(s.close("x", "window", 4).calls, 0);
    }

    #[test]
    fn probe_counts_every_call_and_scales_the_timed_share() {
        let p = Probe::default();
        for _ in 0..(PROBE_STRIDE * 3) {
            p.time(|| std::hint::black_box(1 + 1));
        }
        assert_eq!(p.calls(), PROBE_STRIDE * 3);
        let r = p.close("p", "tick", 0).expect("was called");
        assert_eq!((r.calls, r.timed_calls), (PROBE_STRIDE * 3, 3));
        assert!(p.close("p", "tick", 1).is_none(), "reset by close");
        assert_eq!(r.overhead_ns, 6.0 * timer_ns());
        assert_eq!(
            scaled_work(10_000, 610, 10),
            (10_000.0 - 10.0 * timer_ns()) * 61.0
        );
        assert_eq!(scaled_work(1, 610, 10), 0.0, "never below zero");
        assert_eq!(scaled_work(0, 5, 0), 0.0);
    }
}
