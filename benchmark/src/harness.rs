//! The phases of a harness-style workload — set-ups, saturation windows,
//! latency run, record → replay — and the per-layer numbers of a traced run.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use crate::alloc::AllocCount;
use crate::dut::{self, DevSnapshot, Device, DeviceOpts, IdsRules, LoopSpans, Probes, Recorded};
use crate::outcome::Outcome;
use crate::span::{now_ns, self_ns, work_ns, SpanRec};
use crate::stats::median;
use crate::workloads::{
    Workload, DET_WINDOWS, DRAIN_CYCLES, LAT_CYCLES, LAT_CYCLES_QUICK, LAT_GBPS, MAX_WINDOWS,
    SETUPS, SETUPS_QUICK, SPANS_PER_WINDOW, WARM_CYCLES,
};

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    /// How long the timed windows run.
    pub seconds: f64,
    /// Smoke mode: one window, a short latency run, fewer repetitions.
    pub quick: bool,
}

impl Plan {
    pub fn det_windows(&self) -> usize {
        if self.quick {
            1
        } else {
            DET_WINDOWS
        }
    }

    pub fn setups(&self) -> usize {
        if self.quick {
            SETUPS_QUICK
        } else {
            SETUPS
        }
    }

    /// Window length: the workload's, or a quarter of it in smoke mode.
    pub fn window_cycles(&self, w: Workload) -> u64 {
        if self.quick {
            w.window_cycles() / 4
        } else {
            w.window_cycles()
        }
    }

    fn lat_cycles(&self) -> u64 {
        if self.quick {
            LAT_CYCLES_QUICK
        } else {
            LAT_CYCLES
        }
    }

    /// Whether the record → replay pipeline, repeated `done` times in
    /// `spent` seconds, has been repeated enough: at least 5 times, then
    /// until 3 s are spent or 31 repetitions made. A short recording gets
    /// many repetitions, so a burst of interference from the host's other
    /// tenants disturbs a minority of them and cannot move the median.
    fn replayed_enough(&self, done: usize, spent: f64) -> bool {
        self.quick || (done >= 5 && (spent >= 3.0 || done >= 31))
    }
}

/// Shell rounds (of 32 cycles) the live workload's final drain keeps going
/// after the last frame is back.
pub const DRAIN_ROUNDS: u64 = DRAIN_CYCLES / 32;

/// Panics unless the benchmark's own bookkeeping — what runs inside a timed
/// window besides the device — allocates nothing: histogram records, span
/// and probe updates, pushes into the pre-sized window and span vectors.
pub fn assert_loop_is_allocation_free() {
    let mut hist = crate::stats::Hist::cycles();
    let mut windows: Vec<Window> = Vec::with_capacity(4);
    let mut spans: Vec<SpanRec> = Vec::with_capacity(16);
    let mut loop_spans = LoopSpans::default();
    let probes = Probes::default();
    let before = AllocCount::now();
    for i in 0..4u64 {
        hist.record(i * 70_000);
        let t = now_ns();
        loop_spans.tick.add(t, now_ns());
        probes.lb.time(|| std::hint::black_box(i));
        probes.lb_hits.add(1);
        windows.push(Window {
            secs: 0.0,
            cycles: i,
            frames: i,
        });
        spans.push(loop_spans.tick.close("core.tick", "window", i as u32));
        close_probes(
            &probes,
            Workload::Fwd64Sat,
            i as u32,
            "core.tick",
            "core.pump",
            &mut spans,
        );
    }
    let spent = AllocCount::since(before);
    assert_eq!(
        spent.allocs, 0,
        "the benchmark's own loop allocated inside a timed window"
    );
    std::hint::black_box((hist, windows, spans));
}

/// When the timed windows stop.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After exactly this many windows.
    Windows(usize),
    /// Once this many seconds have passed, but never before the
    /// deterministic windows are done. Quick mode stops after one window.
    Seconds(f64),
}

/// Touches and frees more memory than the timed set-ups will use. In a
/// virtual machine the first touch of a page the host has not backed yet
/// costs many times a normal page fault, which made one build in ten take
/// three times as long and moved a run's median by half; after this every
/// page a build faults in is one the guest kernel has handed out before.
pub fn prefault_memory(plan: &Plan) {
    // Eighteen builds of the largest system touch about 220 MB.
    let ballast_bytes: usize = if plan.quick { 96 << 20 } else { 384 << 20 };
    let ballast = vec![1u8; ballast_bytes];
    std::hint::black_box(&ballast);
}

/// Builds `n` times, timing each; returns the last build and the timings in
/// seconds. No build is dropped until all are done, so each one gets fresh
/// memory from the allocator, as the only build of a user's process does.
/// (Freeing in between would hand later builds recycled memory that has to
/// be zeroed by hand instead of arriving as lazily-mapped zero pages, and
/// set-up time would flip between two modes.) Holding them all inflates
/// peak RSS, which is why the untraced run times its set-ups in a child
/// process of their own.
pub fn timed_setups<T>(n: usize, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    // The first builds of a process also pay for paging in its code; they
    // are made and kept like the rest, but not timed.
    const UNTIMED: usize = 3;
    let mut secs = Vec::with_capacity(n);
    let mut built = Vec::with_capacity(UNTIMED + n);
    for i in 0..UNTIMED + n.max(1) {
        let t = Instant::now();
        built.push(build());
        if i >= UNTIMED {
            secs.push(t.elapsed().as_secs_f64());
        }
    }
    (built.pop().expect("n >= 1"), secs)
}

/// One timed window.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub secs: f64,
    pub cycles: u64,
    /// Frames delivered end to end in the window.
    pub frames: u64,
}

/// The deterministic part of the timed phase: what the first
/// [`Plan::det_windows`] windows simulated and allocated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Det {
    pub cycles: u64,
    pub frames: u64,
    pub bytes: u64,
    /// Allocations inside the driver loop only.
    pub allocs: AllocCount,
    pub begin: DevSnapshot,
    pub end: DevSnapshot,
}

impl Det {
    fn device_seconds(&self) -> f64 {
        self.cycles as f64 / self.end.clock_hz as f64
    }

    pub fn dev_gbps(&self) -> f64 {
        self.bytes as f64 * 8.0 / self.device_seconds() / 1e9
    }

    pub fn dev_mpps(&self) -> f64 {
        self.frames as f64 / self.device_seconds() / 1e6
    }

    /// The simulated facts a traced run must reproduce exactly.
    pub fn same_simulation(&self, other: &Det) -> bool {
        (self.cycles, self.frames, self.bytes, &self.begin, &self.end)
            == (
                other.cycles,
                other.frames,
                other.bytes,
                &other.begin,
                &other.end,
            )
    }
}

/// Result of the timed phase.
#[derive(Debug)]
pub struct Timed {
    pub windows: Vec<Window>,
    pub det: Det,
    /// Frames offered over warm-up and windows.
    pub offered: u64,
    pub end: DevSnapshot,
    pub spans: Vec<SpanRec>,
    /// Wrapper counters over exactly the windows the spans cover.
    pub counts: ProbeCounts,
}

impl Timed {
    pub fn cycles_per_s(&self) -> Vec<f64> {
        self.windows
            .iter()
            .map(|w| w.cycles as f64 / w.secs)
            .collect()
    }

    pub fn pkts_per_s(&self) -> Vec<f64> {
        self.windows
            .iter()
            .map(|w| w.frames as f64 / w.secs)
            .collect()
    }

    pub fn ns_per_cycle(&self) -> Vec<f64> {
        self.windows
            .iter()
            .map(|w| w.secs * 1e9 / w.cycles as f64)
            .collect()
    }
}

/// Decides whether window `done` (1-based count) was the last.
pub fn finished(stop: Stop, plan: &Plan, w: Workload, done: usize, started: Instant) -> bool {
    match stop {
        Stop::Windows(n) => done >= n,
        Stop::Seconds(_) if plan.quick => true,
        Stop::Seconds(s) => {
            done >= w.max_windows()
                || (done >= plan.det_windows() && started.elapsed().as_secs_f64() >= s)
        }
    }
}

/// Closes every wrapper probe into this window's records. `tick_parent` is
/// the span the device's tick runs under (`core.tick`, or `shell.step` in
/// the live workload); accelerator register accesses come from native
/// firmware in the IDS and from the ISS inside the tick elsewhere.
pub fn close_probes(
    probes: &Probes,
    w: Workload,
    window: u32,
    tick_parent: &'static str,
    pump_parent: &'static str,
    spans: &mut Vec<SpanRec>,
) {
    let reg_parent = if w == Workload::Ids800Attack {
        "apps.firmware_tick"
    } else {
        tick_parent
    };
    spans.extend(
        [
            probes.gen_poll.close("net.gen_poll", pump_parent, window),
            probes
                .egress
                .close("bench.egress_offer", tick_parent, window),
            probes.lb.close("core.lb_assign", tick_parent, window),
            probes
                .firmware
                .close("apps.firmware_tick", tick_parent, window),
            probes.accel_tick.close("accel.tick", tick_parent, window),
            probes.accel_reg.close("accel.reg", reg_parent, window),
            probes
                .backend_recv
                .close("shell.backend_recv", tick_parent, window),
            probes
                .backend_send
                .close("shell.backend_send", tick_parent, window),
        ]
        .into_iter()
        .flatten(),
    );
}

/// The wrappers' plain counters, taken (and reset) at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeCounts {
    pub gen_frames: u64,
    pub gen_give_backs: u64,
    pub gen_timed_allocs: u64,
    pub gen_timed_frames: u64,
    pub lb_hits: u64,
    pub backend_recv_empty: u64,
}

impl ProbeCounts {
    pub fn take(probes: &Probes) -> Self {
        Self {
            gen_frames: probes.gen_frames.take(),
            gen_give_backs: probes.gen_give_backs.take(),
            gen_timed_allocs: probes.gen_timed_allocs.take(),
            gen_timed_frames: probes.gen_timed_frames.take(),
            lb_hits: probes.lb_hits.take(),
            backend_recv_empty: probes.backend_recv_empty.take(),
        }
    }
}

/// Resets every probe and counter (after warm-up, before the first window).
pub fn reset_probes(probes: &Probes, w: Workload) {
    close_probes(probes, w, 0, "", "", &mut Vec::new());
    ProbeCounts::take(probes);
}

/// What the timed-window loop drives: a device and its traffic, whatever
/// sits in front of it (the paced generator, or the shell and its client).
pub trait Windowed {
    /// Runs one window of `cycles` simulated cycles at the workload's load.
    fn run_window(&mut self, cycles: u64);
    /// Frames and bytes delivered end to end so far.
    fn delivered(&self) -> (u64, u64);
    fn snapshot(&self) -> DevSnapshot;
    /// Closes a traced session's spans for `window` (the root aside).
    fn close_spans(&mut self, window: u32, spans: &mut Vec<SpanRec>);
    /// Called once, right after the last deterministic window.
    fn at_det_end(&mut self, _out: &mut Outcome) {}
}

/// Fixed-length windows until `stop`: times each, accounts the allocations
/// and the simulated results of the first [`Plan::det_windows`], and leaves
/// a traced session's span records.
pub fn timed_windows(
    session: &mut dyn Windowed,
    w: Workload,
    plan: &Plan,
    traced: bool,
    stop: Stop,
    out: &mut Outcome,
) -> (Vec<Window>, Det, Vec<SpanRec>) {
    let cycles = plan.window_cycles(w);
    // Sized up front: nothing in the loop below may allocate on the
    // benchmark's behalf while a window is being timed.
    let mut windows = Vec::with_capacity(MAX_WINDOWS);
    let mut spans = Vec::with_capacity(if traced {
        MAX_WINDOWS * SPANS_PER_WINDOW
    } else {
        0
    });
    let begin = session.snapshot();
    let delivered0 = session.delivered();
    let mut det = None;
    let mut allocs = AllocCount::default();
    let started = Instant::now();
    loop {
        let i = windows.len();
        let frames_before = session.delivered().0;
        let before = AllocCount::now();
        let t0 = now_ns();
        session.run_window(cycles);
        let t1 = now_ns();
        let spent = AllocCount::since(before);
        windows.push(Window {
            secs: (t1 - t0) as f64 / 1e9,
            cycles,
            frames: session.delivered().0 - frames_before,
        });
        if traced {
            spans.push(SpanRec::once("window", "", i as u32, t0, t1));
            session.close_spans(i as u32, &mut spans);
        }
        if i < plan.det_windows() {
            // The driver loop's allocations only, not this bookkeeping's.
            allocs.allocs += spent.allocs;
            allocs.bytes += spent.bytes;
        }
        if i + 1 == plan.det_windows() {
            let (frames, bytes) = session.delivered();
            det = Some(Det {
                cycles: cycles * plan.det_windows() as u64,
                frames: frames - delivered0.0,
                bytes: bytes - delivered0.1,
                allocs,
                begin: begin.clone(),
                end: session.snapshot(),
            });
            session.at_det_end(out);
        }
        if finished(stop, plan, w, i + 1, started) {
            break;
        }
    }
    let det = det.expect("at least the deterministic windows ran");
    (windows, det, spans)
}

/// A harness-style device as the window loop sees it.
struct HarnessSession<'a> {
    dev: &'a mut Device,
    w: Workload,
    probes: Option<&'a Probes>,
    loop_spans: LoopSpans,
}

impl Windowed for HarnessSession<'_> {
    fn run_window(&mut self, cycles: u64) {
        match self.probes {
            None => self.dev.run(cycles),
            Some(_) => self.dev.run_traced(cycles, &mut self.loop_spans),
        }
    }

    fn delivered(&self) -> (u64, u64) {
        let sink = self.dev.sink();
        (sink.frames, sink.bytes)
    }

    fn snapshot(&self) -> DevSnapshot {
        self.dev.snapshot()
    }

    fn close_spans(&mut self, window: u32, spans: &mut Vec<SpanRec>) {
        let l = &mut self.loop_spans;
        spans.push(l.pump.close("core.pump", "window", window));
        spans.push(l.tick.close("core.tick", "window", window));
        spans.push(l.host_drain.close("core.host_drain", "window", window));
        if let Some(p) = self.probes {
            close_probes(p, self.w, window, "core.tick", "core.pump", spans);
        }
    }
}

/// Warm-up, then fixed-length windows until `stop`. With `probes` the loop
/// is the traced one and every window leaves its span records.
pub fn run_timed(
    dev: &mut Device,
    w: Workload,
    plan: &Plan,
    probes: Option<&Probes>,
    stop: Stop,
    out: &mut Outcome,
) -> Timed {
    dev.run(WARM_CYCLES);
    if let Some(p) = probes {
        reset_probes(p, w);
    }
    let mut session = HarnessSession {
        dev,
        w,
        probes,
        loop_spans: LoopSpans::default(),
    };
    let (windows, det, spans) = timed_windows(&mut session, w, plan, probes.is_some(), stop, out);
    let end = session.snapshot();
    Timed {
        windows,
        det,
        offered: end.ledger.injected,
        end,
        spans,
        counts: probes.map(ProbeCounts::take).unwrap_or_default(),
    }
}

/// Failed operations a device's final state shows: frames the ledger cannot
/// account for, corrupted or purged frames, and drops other than the
/// `expected_drops` the workload's ground truth predicts.
pub fn check_ledger(out: &mut Outcome, phase: &str, s: &DevSnapshot, expected_drops: u64) {
    let l = &s.ledger;
    out.check(l.imbalance() == 0, l.imbalance(), || {
        format!("{phase}: ledger does not balance: {l:?}")
    });
    out.check(l.corrupted + l.purged == 0, l.corrupted + l.purged, || {
        format!(
            "{phase}: {} corrupted, {} purged frames",
            l.corrupted, l.purged
        )
    });
    let wrong = s
        .drop_count
        .abs_diff(expected_drops)
        .max(l.dropped.abs_diff(expected_drops));
    out.check(wrong == 0, wrong, || {
        format!(
            "{phase}: drop_count {} / ledger.dropped {} but ground truth is {expected_drops}",
            s.drop_count, l.dropped
        )
    });
}

/// What the latency phase hands to the replay phase.
pub struct Recording {
    pub log: Recorded,
    /// The recorded device's final state and deliveries, which the replay
    /// must reproduce.
    pub end: DevSnapshot,
    pub delivered: (u64, u64, u64),
}

/// The latency phase: a fresh device at 20 Gbps with output kept and every
/// accepted frame recorded, then a drain. Sets the simulated latency
/// percentiles and checks every delivered frame against what was sent.
pub fn run_latency(w: Workload, plan: &Plan, out: &mut Outcome) -> Recording {
    let opts = DeviceOpts {
        keep: 1 << 16,
        record: true,
        ..DeviceOpts::default()
    };
    let mut dev = Device::build(w, plan.seed, LAT_GBPS, opts);
    dev.run(plan.lat_cycles());
    dev.run_idle(DRAIN_CYCLES);
    let log = dev.take_recording().expect("recording was on");
    let end = dev.snapshot();
    out.attempted += log.events();
    check_ledger(out, "lat", &end, 0);

    let sink = dev.sink();
    let (p50, p99) = (sink.latency.percentile(0.5), sink.latency.percentile(0.99));
    // Without enough samples a p99 is an anecdote (quick mode runs short).
    let enough = plan.quick || sink.latency.count() >= 1000;
    out.check(enough && sink.latency.overflow() == 0, 1, || {
        format!(
            "lat: {} latency samples, {} beyond the histogram",
            sink.latency.count(),
            sink.latency.overflow()
        )
    });
    out.set("dev_p50_cycles", p50.unwrap_or(f64::NAN));
    out.set("dev_p99_cycles", p99.unwrap_or(f64::NAN));

    // Every accepted frame must come out exactly once with its bytes intact:
    // the forwarders and safe IDS traffic on the other port, IDS attacks at
    // the host with rule ids appended after the original bytes.
    let sent: HashMap<u64, (u8, &[u8])> = log
        .frames()
        .map(|(id, port, data)| (id, (port, data)))
        .collect();
    let rules = (w == Workload::Ids800Attack).then(|| IdsRules::new(plan.seed));
    let kept = sink.kept.as_deref().unwrap_or_default();
    let mut wrong = 0u64;
    let mut alerts_expected = 0u64;
    let mut seen = std::collections::HashSet::with_capacity(kept.len());
    for frame in kept {
        let Some(&(port, data)) = sent.get(&frame.id) else {
            wrong += 1;
            continue;
        };
        let attack = rules
            .as_ref()
            .is_some_and(|r| dut::ids_rule_hits(r, data) > 0);
        alerts_expected += u64::from(attack);
        let intact = if attack {
            frame.to_host && frame.data.len() > data.len() && frame.data.starts_with(data)
        } else {
            !frame.to_host && frame.port == port ^ 1 && frame.data == data
        };
        wrong += u64::from(!intact || !seen.insert(frame.id));
    }
    out.check(wrong == 0, wrong, || {
        format!("lat: {wrong} delivered frames differ from what was sent")
    });
    let missing = log.events().abs_diff(kept.len() as u64);
    out.check(missing == 0, missing, || {
        format!(
            "lat: {} frames accepted but {} delivered after the drain",
            log.events(),
            kept.len()
        )
    });
    out.check(
        sink.host_frames == alerts_expected,
        sink.host_frames.abs_diff(alerts_expected),
        || {
            format!(
                "lat: {} host alerts, ground truth has {alerts_expected} attack frames",
                sink.host_frames
            )
        },
    );
    let delivered = (sink.frames, sink.bytes, sink.host_frames);
    drop(sink);
    Recording {
        log,
        end,
        delivered,
    }
}

/// Timings of the record → replay pipeline, each the median of the
/// repetitions.
#[derive(Debug, Clone, Copy)]
pub struct ReplayTimes {
    pub events: u64,
    pub cycles: u64,
    pub text_bytes: u64,
    pub to_text_s: f64,
    pub parse_s: f64,
    pub replay_s: f64,
}

/// `to_text` → `parse_text` → `replay` on a fresh device, timed, and checked
/// to reproduce the recorded run's ledger, diagnostics and deliveries. A
/// mismatch fails every logged event. Returns the timings and the replay
/// device (its sink holds the replayed deliveries).
pub fn run_replay(
    w: Workload,
    plan: &Plan,
    rec: &Recording,
    out: &mut Outcome,
) -> (ReplayTimes, Device) {
    let (mut to_text_s, mut parse_s, mut replay_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut text_bytes = 0;
    let mut last = None;
    let started = Instant::now();
    for rep in 0.. {
        if rep > 0 && plan.replayed_enough(rep, started.elapsed().as_secs_f64()) {
            break;
        }
        let win = rep as u32;
        let t0 = now_ns();
        let text = rec.log.to_text();
        let t1 = now_ns();
        let parsed = Recorded::parse_text(&text);
        let t2 = now_ns();
        let mut fresh = Device::build(w, plan.seed, 0.0, DeviceOpts::default());
        let t3 = now_ns();
        if let Ok(parsed) = &parsed {
            fresh.replay(parsed);
        }
        let t4 = now_ns();
        to_text_s.push((t1 - t0) as f64 / 1e9);
        parse_s.push((t2 - t1) as f64 / 1e9);
        replay_s.push((t4 - t3) as f64 / 1e9);
        text_bytes = text.len() as u64;
        if out.traced {
            for (name, a, b) in [
                ("core.eventlog_to_text", t0, t1),
                ("core.eventlog_parse", t1, t2),
                ("core.replay", t3, t4),
            ] {
                out.spans.push(SpanRec::once(name, "replay", win, a, b));
            }
        }

        let replayed = fresh.snapshot();
        let delivered = {
            let s = fresh.sink();
            (s.frames, s.bytes, s.host_frames)
        };
        let same =
            parsed.as_ref() == Ok(&rec.log) && replayed == rec.end && delivered == rec.delivered;
        out.check(same, rec.log.events(), || {
            format!(
                "replay {rep} differs from the recorded run: text round-trip {}, \
                 ledger {:?} vs {:?}, delivered {delivered:?} vs {:?}, diagnostics {}",
                parsed.as_ref() == Ok(&rec.log),
                replayed.ledger,
                rec.end.ledger,
                rec.delivered,
                if replayed.diag == rec.end.diag {
                    "equal"
                } else {
                    "differ"
                },
            )
        });
        last = Some(fresh);
    }
    let times = ReplayTimes {
        events: rec.log.events(),
        cycles: rec.log.cycles(),
        text_bytes,
        to_text_s: median(&to_text_s),
        parse_s: median(&parse_s),
        replay_s: median(&replay_s),
    };
    let per_rep: Vec<f64> = (0..to_text_s.len())
        .map(|i| times.events as f64 / (to_text_s[i] + parse_s[i] + replay_s[i]))
        .collect();
    out.set_median("replay_events_per_s", &per_rep);
    if out.traced {
        let mb = times.text_bytes as f64 / 1e6;
        out.set("core.eventlog_to_text_mb_per_s", mb / times.to_text_s);
        out.set("core.eventlog_parse_mb_per_s", mb / times.parse_s);
        out.set(
            "core.replay_ns_per_cycle",
            times.replay_s * 1e9 / times.cycles.max(1) as f64,
        );
    }
    (times, last.expect("at least one repetition"))
}

/// Sets the end-to-end metrics that come from the timed phase.
pub fn set_timed_metrics(out: &mut Outcome, timed: &Timed) {
    out.set_median("sim_cycles_per_s", &timed.cycles_per_s());
    out.set_median("pkts_per_s", &timed.pkts_per_s());
    let det = &timed.det;
    out.set(
        "allocs_per_pkt",
        det.allocs.allocs as f64 / det.frames as f64,
    );
    out.set(
        "alloc_bytes_per_pkt",
        det.allocs.bytes as f64 / det.frames as f64,
    );
    out.set("dev_gbps", det.dev_gbps());
    out.set("dev_mpps", det.dev_mpps());
}

/// Times the workload's cold set-ups: what the `--setups-only` child does.
pub fn setup_times(w: Workload, plan: &Plan) -> Vec<f64> {
    timed_setups(plan.setups(), || {
        Device::build(w, plan.seed, w.sat_gbps(), DeviceOpts::default())
    })
    .1
}

/// The untraced run of a harness workload: every end-to-end metric but
/// `setup_s` and `peak_rss_mb`, which `main` measures around it.
pub fn run_untraced(w: Workload, plan: &Plan, out: &mut Outcome) {
    let mut dev = Device::build(w, plan.seed, w.sat_gbps(), DeviceOpts::default());

    let timed = run_timed(&mut dev, w, plan, None, Stop::Seconds(plan.seconds), out);
    out.attempted += timed.offered;
    check_ledger(out, "sat", &timed.end, 0);
    set_timed_metrics(out, &timed);
    drop(dev);

    let rec = run_latency(w, plan, out);
    run_replay(w, plan, &rec, out);
}

/// The traced run: an untraced reference over the deterministic windows,
/// then the same windows with the wrappers on, which must simulate exactly
/// the same thing; then latency, replay and the layer micro-measures.
pub fn run_traced(w: Workload, plan: &Plan, out: &mut Outcome) {
    let (mut reference, setups) = timed_setups(plan.setups().min(3), || {
        Device::build(w, plan.seed, w.sat_gbps(), DeviceOpts::default())
    });
    out.set("core.build_ms", median(&setups) * 1e3);
    let base = run_timed(
        &mut reference,
        w,
        plan,
        None,
        Stop::Windows(plan.det_windows()),
        out,
    );
    drop(reference);

    let probes = Arc::new(Probes::default());
    let opts = DeviceOpts {
        probes: Some(probes.clone()),
        ..DeviceOpts::default()
    };
    let mut dev = Device::build(w, plan.seed, w.sat_gbps(), opts);
    let timed = run_timed(
        &mut dev,
        w,
        plan,
        Some(&probes),
        Stop::Seconds(plan.seconds),
        out,
    );
    out.attempted += base.offered + timed.offered;
    check_ledger(out, "sat", &timed.end, 0);
    out.check(timed.det.same_simulation(&base.det), timed.offered, || {
        format!(
            "the traced run simulated something else than the untraced one: \
             {} vs {} frames, ledger {:?} vs {:?}",
            timed.det.frames, base.det.frames, timed.det.end.ledger, base.det.end.ledger
        )
    });
    drop(dev);

    layer_metrics(w, out, &timed);
    out.set(
        "bench.trace_overhead_pct",
        (median(&timed.ns_per_cycle()) / median(&base.ns_per_cycle()) - 1.0) * 100.0,
    );

    let rec = run_latency(w, plan, out);
    run_replay(w, plan, &rec, out);
    micro_metrics(w, plan, out);
    set_iss_estimates(w, out, &timed, "core.tick");
    out.spans.extend(timed.spans);
}

/// A span's work (clock reads taken out) summed over all windows.
pub fn total_work(spans: &[SpanRec], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |sum, s| sum + (s.busy_ns - s.overhead_ns).max(0.0))
}

/// A span's calls summed over all windows.
pub fn total_calls(spans: &[SpanRec], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |sum, s| sum + s.calls as f64)
}

/// `a / b`, or 0 when the layer was never exercised.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Per-layer numbers that hold for any workload with a device inside:
/// sampled wrapper probes as totals over the traced windows, simulated
/// counter shares over the deterministic windows.
pub fn device_layer_metrics(w: Workload, out: &mut Outcome, timed: &Timed) {
    let spans = &timed.spans;
    let cycles: f64 = timed.windows.iter().map(|w| w.cycles as f64).sum();
    let per_call = |name: &str| ratio(total_work(spans, name), total_calls(spans, name));

    out.set("bench.egress_ns_per_pkt", per_call("bench.egress_offer"));
    out.set("core.lb_assign_ns", per_call("core.lb_assign"));
    out.set(
        "core.lb_assign_hit_ratio",
        100.0
            * ratio(
                timed.counts.lb_hits as f64,
                total_calls(spans, "core.lb_assign"),
            ),
    );
    out.set(
        "accel.tick_ns_per_cycle",
        ratio(total_work(spans, "accel.tick"), cycles),
    );
    out.set("accel.reg_ns_per_access", per_call("accel.reg"));
    out.set(
        "apps.firmware_tick_ns_per_cycle",
        ratio(total_work(spans, "apps.firmware_tick"), cycles),
    );

    let det = &timed.det;
    let delta = |f: fn(&DevSnapshot) -> u64| (f(&det.end) - f(&det.begin)) as f64;
    let lane_cycles = det.cycles as f64 * det.end.rpus as f64;
    out.set(
        "core.dev_lb_stall_share",
        100.0 * delta(|s| s.lb_stall_cycles) / det.cycles as f64,
    );
    out.set(
        "core.dev_instret_per_pkt",
        ratio(delta(|s| s.instret), det.frames as f64),
    );
    out.set(
        "core.dev_rpu_stall_share",
        100.0 * delta(|s| s.stall_cycles) / lane_cycles,
    );
    out.set(
        "core.dev_mem_wait_share",
        100.0 * delta(|s| s.mem_wait_cycles) / lane_cycles,
    );
    out.set(
        "apps.dev_cycles_per_pkt",
        ratio(lane_cycles, det.frames as f64),
    );
    if let Some(paper) = w.paper_gbps() {
        out.set(
            "apps.dev_err_vs_paper_pct",
            100.0 * (det.dev_gbps() - paper).abs() / paper,
        );
    }
}

/// Per-layer numbers of a traced harness run.
fn layer_metrics(w: Workload, out: &mut Outcome, timed: &Timed) {
    let spans = &timed.spans;
    let per_cycle = |f: &dyn Fn(u32) -> f64| -> Vec<f64> {
        timed
            .windows
            .iter()
            .enumerate()
            .map(|(i, win)| f(i as u32) / win.cycles as f64)
            .collect()
    };
    out.set_median(
        "core.tick_ns_per_cycle",
        &per_cycle(&|i| work_ns(spans, i, "core.tick")),
    );
    out.set_median(
        "core.pump_ns_per_cycle",
        &per_cycle(&|i| self_ns(spans, i, "core.pump")),
    );
    out.set_median(
        "core.host_drain_ns_per_cycle",
        &per_cycle(&|i| work_ns(spans, i, "core.host_drain")),
    );
    // What the three loop spans account for is everything but the window's
    // own self time. The worst window is the one reported.
    let uncovered = (0..timed.windows.len() as u32)
        .map(|i| 100.0 * self_ns(spans, i, "window") / work_ns(spans, i, "window"))
        .fold(0.0, f64::max);
    out.set("bench.top_span_coverage_pct", 100.0 - uncovered);

    out.set(
        "net.gen_ns_per_pkt",
        ratio(
            total_work(spans, "net.gen_poll"),
            timed.counts.gen_frames as f64,
        ),
    );
    out.set(
        "net.gen_allocs_per_pkt",
        ratio(
            timed.counts.gen_timed_allocs as f64,
            timed.counts.gen_timed_frames as f64,
        ),
    );
    out.set(
        "net.genport_refused_share",
        100.0
            * ratio(
                timed.counts.gen_give_backs as f64,
                total_calls(spans, "net.gen_poll"),
            ),
    );
    device_layer_metrics(w, out, timed);
}

/// The fabric estimate needs the ISS micro-measure, so it is set last:
/// the tick's self time less the instructions the lanes retired at
/// `riscv.step_ns` each. An estimate — the ISS inside the device runs on
/// the RPU bus, not on the flat `RamBus` the micro-measure uses.
pub fn set_iss_estimates(w: Workload, out: &mut Outcome, timed: &Timed, tick_span: &str) {
    let det = &timed.det;
    let instret_per_cycle = if w.uses_riscv() {
        (det.end.instret - det.begin.instret) as f64 / det.cycles as f64
    } else {
        0.0
    };
    let iss_ns = instret_per_cycle * out.get("riscv.step_ns");
    let windows = timed.windows.len() as u32;
    let cycles = timed.windows[0].cycles as f64;
    let tick_self: Vec<f64> = (0..windows)
        .map(|i| self_ns(&timed.spans, i, tick_span) / cycles)
        .collect();
    let tick_busy: Vec<f64> = (0..windows)
        .map(|i| work_ns(&timed.spans, i, tick_span) / cycles)
        .collect();
    out.set(
        "core.fabric_ns_per_cycle",
        (median(&tick_self) - iss_ns).max(0.0),
    );
    out.set("riscv.iss_share", 100.0 * ratio(iss_ns, median(&tick_busy)));
}

/// Standalone measures of what has no seam to wrap.
pub fn micro_metrics(w: Workload, plan: &Plan, out: &mut Outcome) {
    out.set("riscv.step_ns", dut::riscv_step_ns(true));
    out.set("riscv.step_ns_nocache", dut::riscv_step_ns(false));
    out.set("riscv.assemble_ms", dut::riscv_assemble_ms());
    out.set("riscv.analyze_ms", dut::riscv_analyze_ms());
    out.set("kernel.fifo_ns_per_op", dut::kernel_fifo_ns());
    out.set("kernel.linkport_ns_per_frame", dut::kernel_linkport_ns());
    out.set(
        "accel.ipmatch_ns_per_lookup",
        dut::accel_ipmatch_ns(plan.seed),
    );
    let frames = dut::sample_frames(w, plan.seed, 2048);
    out.set("net.parse_ns_per_pkt", dut::net_parse_ns(&frames));
    let (scan, compile) = dut::accel_mpse(plan.seed, &frames);
    out.set("accel.mpse_ns_per_byte", scan);
    out.set("accel.compile_ms", compile);

    // Allocations of a device that is ticking with nothing to do.
    let mut idle = Device::build(w, plan.seed, 0.0, DeviceOpts::default());
    idle.run_idle(WARM_CYCLES);
    let before = AllocCount::now();
    const IDLE_TICKS: u64 = 100_000;
    idle.run_idle(IDLE_TICKS);
    out.set(
        "core.allocs_per_cycle_idle",
        AllocCount::since(before).allocs as f64 / IDLE_TICKS as f64,
    );
}
