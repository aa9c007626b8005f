//! The device under test: the **only** file of the benchmark that names the
//! repo's crates.
//!
//! The benchmark is frozen for later PRs, so everything it calls is frozen
//! with it. Keeping those calls in one file makes the frozen surface visible
//! (see "API budget" in `README.md`) and means a PR that folds one of the
//! repo's twin APIs has at most this file to argue about. Everything here
//! goes through the public seams: the `Rosebud` builder, `inject`/`tick`
//! behind `core::ports::pump`, a benchmark-owned `EgressPort`, the
//! `LoadBalancer`/`Accelerator`/`Firmware`/`ShellBackend` traits for the
//! timing wrappers, and `EventLog`/`replay` for record/replay.

use std::collections::VecDeque;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use rosebud_accel::{
    Accelerator, AhoCorasick, FirewallMatcher, Pattern, PigasusMatcher, RegRead, ResourceUsage,
    Rule, RuleSet,
};
use rosebud_apps::firewall::{firewall_image, synthetic_blacklist};
use rosebud_apps::forwarder::{
    build_duty_cycle_forwarding_system, build_forwarding_system, duty_cycle_forwarder_asm,
    forwarder_image, watchdog_forwarder_asm, FORWARDER_ASM,
};
use rosebud_apps::host_dma::host_dma_forwarder_asm;
use rosebud_apps::pigasus::{build_pigasus_system, PigasusFirmware, ReorderMode};
use rosebud_apps::rules::synthetic_rules;
use rosebud_core::ports::{pump, replay, EventLog};
use rosebud_core::{
    machine_spec, Firmware, LoadBalancer, LoadPolicy, PerfCounters, Rosebud, RosebudConfig,
    RoundRobinLb, RpuIo, RpuProgram, SlotTracker,
};
use rosebud_kernel::{Cycle, EgressPort, Fifo, IngressPort, LinkPort, PortClock};
use rosebud_net::{
    flow_hash, AttackMixGen, FixedSizeGen, FlowTrafficGen, GenPort, Packet, TrafficGen,
};
use rosebud_riscv::{assemble, Analyzer, Cpu, RamBus};
use rosebud_shell::{RingBackend, RingPeer, Shell, ShellBackend, UdsBackend};

use crate::alloc::AllocCount;
use crate::span::{now_ns, Counter, Probe, Span};
use crate::stats::{median, Hist};
use crate::workloads::Workload;

/// Frames of the live workload's pre-generated pool.
const LIVE_POOL: usize = 4096;
/// Rules compiled into the IDS workload's matcher.
const IDS_RULES: usize = 128;
/// Entries of the firewall blacklist (the paper's feed has 1050).
const BLACKLIST_LEN: usize = 1050;

/// Clears the knobs that change which simulation kernel `build()` picks, so
/// the benchmark always measures what a user gets by default.
pub fn clear_kernel_env() {
    for var in ["ROSEBUD_KERNEL", "ROSEBUD_WORKERS", "ROSEBUD_QUANTUM"] {
        std::env::remove_var(var);
    }
}

// ---------------------------------------------------------------------------
// Probes: the counters and sampling timers the trait wrappers feed.
// ---------------------------------------------------------------------------

/// Shared between the wrappers living inside the device and the benchmark.
#[derive(Debug, Default)]
pub struct Probes {
    /// `IngressPort::poll` of the traffic source (inside `pump`).
    pub gen_poll: Probe,
    /// Polls that produced a frame / frames handed back after a refusal.
    pub gen_frames: Counter,
    pub gen_give_backs: Counter,
    /// Heap allocations and frames seen in the *timed* polls only.
    pub gen_timed_allocs: Counter,
    pub gen_timed_frames: Counter,
    /// `EgressPort::offer` of the benchmark's own sink.
    pub egress: Probe,
    /// `LoadBalancer::assign`, and how many calls placed a packet.
    pub lb: Probe,
    pub lb_hits: Counter,
    /// `Accelerator::tick` and `read_reg`/`write_reg`.
    pub accel_tick: Probe,
    pub accel_reg: Probe,
    /// `Firmware::tick` of native firmware.
    pub firmware: Probe,
    /// `ShellBackend::recv_frames` (and how many returned nothing) and
    /// `send_frame`.
    pub backend_recv: Probe,
    pub backend_recv_empty: Counter,
    pub backend_send: Probe,
}

struct TimedLb {
    inner: RoundRobinLb,
    probes: Arc<Probes>,
}

impl LoadBalancer for TimedLb {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn assign(&mut self, pkt: &Packet, tracker: &SlotTracker, enabled: u64) -> Option<usize> {
        let inner = &mut self.inner;
        let hit = self.probes.lb.time(|| inner.assign(pkt, tracker, enabled));
        self.probes.lb_hits.add(u64::from(hit.is_some()));
        hit
    }

    fn prepend(&mut self, pkt: &Packet) -> Option<Vec<u8>> {
        self.inner.prepend(pkt)
    }

    fn host_read(&mut self, addr: u32) -> u32 {
        self.inner.host_read(addr)
    }

    fn host_write(&mut self, addr: u32, value: u32) {
        self.inner.host_write(addr, value);
    }

    fn resources(&self, num_rpus: usize) -> ResourceUsage {
        self.inner.resources(num_rpus)
    }
}

struct TimedAccel<A> {
    inner: A,
    probes: Arc<Probes>,
}

impl<A: Accelerator> Accelerator for TimedAccel<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn read_reg(&mut self, offset: u32) -> RegRead {
        let inner = &mut self.inner;
        self.probes.accel_reg.time(|| inner.read_reg(offset))
    }

    fn write_reg(&mut self, offset: u32, value: u32) {
        let inner = &mut self.inner;
        self.probes
            .accel_reg
            .time(|| inner.write_reg(offset, value));
    }

    fn tick(&mut self, pmem: &[u8]) {
        let inner = &mut self.inner;
        self.probes.accel_tick.time(|| inner.tick(pmem));
    }

    fn is_busy(&self) -> bool {
        self.inner.is_busy()
    }

    fn load_table(&mut self, offset: u32, data: &[u8]) {
        self.inner.load_table(offset, data);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn resources(&self) -> ResourceUsage {
        self.inner.resources()
    }
}

struct TimedFirmware<F> {
    inner: F,
    probes: Arc<Probes>,
}

impl<F: Firmware> Firmware for TimedFirmware<F> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn boot(&mut self, io: &mut RpuIo<'_>) {
        self.inner.boot(io);
    }

    fn tick(&mut self, io: &mut RpuIo<'_>) {
        let inner = &mut self.inner;
        self.probes.firmware.time(|| inner.tick(io));
    }

    fn interrupt(&mut self, line: u8, io: &mut RpuIo<'_>) {
        self.inner.interrupt(line, io);
    }

    fn is_idle(&self) -> bool {
        self.inner.is_idle()
    }
}

struct TimedBackend<B> {
    inner: B,
    probes: Arc<Probes>,
}

impl<B: ShellBackend> ShellBackend for TimedBackend<B> {
    fn recv_frames(&mut self) -> Vec<(u8, Vec<u8>)> {
        let inner = &mut self.inner;
        let frames = self.probes.backend_recv.time(|| inner.recv_frames());
        self.probes
            .backend_recv_empty
            .add(u64::from(frames.is_empty()));
        frames
    }

    fn send_frame(&mut self, port: u8, frame: &[u8]) {
        let inner = &mut self.inner;
        self.probes
            .backend_send
            .time(|| inner.send_frame(port, frame));
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

// ---------------------------------------------------------------------------
// Systems and traffic.
// ---------------------------------------------------------------------------

fn ids_rules(seed: u64) -> Vec<Rule> {
    synthetic_rules(IDS_RULES, seed)
}

/// A round-robin LB, timed when `probes` is given.
fn round_robin(probes: Option<&Arc<Probes>>) -> Box<dyn LoadBalancer> {
    match probes {
        None => Box::new(RoundRobinLb::new()),
        Some(p) => Box::new(TimedLb {
            inner: RoundRobinLb::new(),
            probes: p.clone(),
        }),
    }
}

/// Builds the workload's system. Untraced, the harness workloads use the
/// `apps` builders exactly as a user would; traced, the same parts are
/// assembled by hand so the timing wrappers can sit on the trait seams (the
/// traced run checks that both behave identically, cycle for cycle).
fn build_system(w: Workload, seed: u64, probes: Option<&Arc<Probes>>) -> Rosebud {
    let built = match (w, probes) {
        (Workload::Fwd64Sat | Workload::Fwd1500Sat, None) => build_forwarding_system(16),
        (Workload::Duty256Light, None) => build_duty_cycle_forwarding_system(16, 2000),
        (Workload::Fwd64Sat | Workload::Fwd1500Sat | Workload::Duty256Light, Some(_)) => {
            let image = if w == Workload::Duty256Light {
                assemble(&duty_cycle_forwarder_asm(2000)).expect("shipped firmware")
            } else {
                forwarder_image()
            };
            Rosebud::builder(RosebudConfig::with_rpus(16))
                .load_balancer(round_robin(probes))
                .firmware(move |_| RpuProgram::Riscv(image.clone()))
                .build()
        }
        (Workload::Ids800Attack, None) => {
            build_pigasus_system(ReorderMode::Hardware, ids_rules(seed))
        }
        (Workload::Ids800Attack, Some(p)) => {
            // Mirrors `build_pigasus_system`: 8 RPUs × 16 engines, 32 slots.
            let mut cfg = RosebudConfig::with_rpus(8);
            cfg.slots_per_rpu = 32;
            let slots = cfg.slots_per_rpu;
            let compiled = RuleSet::compile(ids_rules(seed));
            let (pa, pf) = (p.clone(), p.clone());
            Rosebud::builder(cfg)
                .load_balancer(round_robin(probes))
                .accelerator(move |_| {
                    Box::new(TimedAccel {
                        inner: PigasusMatcher::new(compiled.clone(), 16),
                        probes: pa.clone(),
                    })
                })
                .firmware(move |_| {
                    RpuProgram::Native(Box::new(TimedFirmware {
                        inner: PigasusFirmware::new(ReorderMode::Hardware, slots),
                        probes: pf.clone(),
                    }))
                })
                .build()
        }
        (Workload::Fw256LiveUds, _) => {
            // `build_firewall_system` plus the `Deny` load gate, so the
            // static analyzer's cost is part of this workload's set-up.
            let image = firewall_image();
            let blacklist = synthetic_blacklist(BLACKLIST_LEN, seed);
            let probes = probes.cloned();
            Rosebud::builder(RosebudConfig::with_rpus(16))
                .load_balancer(round_robin(probes.as_ref()))
                .accelerator(move |_| {
                    let matcher = FirewallMatcher::from_prefixes(&blacklist);
                    match &probes {
                        None => Box::new(matcher) as Box<dyn Accelerator>,
                        Some(p) => Box::new(TimedAccel {
                            inner: matcher,
                            probes: p.clone(),
                        }),
                    }
                })
                .firmware(move |_| RpuProgram::Riscv(image.clone()))
                .load_policy(LoadPolicy::Deny)
                .build()
        }
    };
    built.expect("the shipped configurations are valid")
}

/// The workload's traffic generator. Only the harness workloads have one;
/// the live workload sends from [`live_pool`].
fn traffic(w: Workload, seed: u64) -> Box<dyn TrafficGen> {
    match w {
        Workload::Fwd64Sat => Box::new(FixedSizeGen::new(64, 2)),
        Workload::Fwd1500Sat => Box::new(FixedSizeGen::new(1500, 2)),
        Workload::Duty256Light | Workload::Fw256LiveUds => Box::new(FixedSizeGen::new(256, 2)),
        Workload::Ids800Attack => {
            let payloads = ids_rules(seed).into_iter().map(|r| r.pattern).collect();
            let base = FlowTrafficGen::new(8192, 800, 0.003, seed);
            Box::new(AttackMixGen::new(base, 0.01, payloads, seed))
        }
    }
}

/// The live workload's frame pool: 256-byte frames, 2 % with a blacklisted
/// source address, and for each whether the firewall must drop it — decided
/// by `FirewallMatcher::is_blacklisted`, not by how the frame was made.
pub fn live_pool(seed: u64) -> (Vec<Vec<u8>>, Vec<bool>) {
    let blacklist = synthetic_blacklist(BLACKLIST_LEN, seed);
    let matcher = FirewallMatcher::from_prefixes(&blacklist);
    let mut gen = AttackMixGen::new(FixedSizeGen::new(256, 2), 0.02, Vec::new(), seed)
        .with_attack_ips(blacklist);
    let mut frames = Vec::with_capacity(LIVE_POOL);
    let mut dropped = Vec::with_capacity(LIVE_POOL);
    for id in 0..LIVE_POOL as u64 {
        let pkt = gen.generate(id, 0);
        // Non-IP frames are dropped too (Appendix C); the pool has none.
        dropped.push(
            pkt.ipv4()
                .map_or(true, |ip| matcher.is_blacklisted(ip.src_u32())),
        );
        frames.push(pkt.data);
    }
    (frames, dropped)
}

// ---------------------------------------------------------------------------
// The sink: a counting egress port bound to every physical port.
// ---------------------------------------------------------------------------

/// A frame the device delivered, kept for content checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub id: u64,
    pub port: u8,
    pub to_host: bool,
    pub data: Vec<u8>,
}

/// What came out of the device: counts and a latency histogram in simulated
/// cycles (`delivery cycle − ts_gen`); no per-sample storage unless `kept`.
#[derive(Debug)]
pub struct Sink {
    pub frames: u64,
    pub bytes: u64,
    pub host_frames: u64,
    pub latency: Hist,
    pub kept: Option<Vec<Frame>>,
}

impl Sink {
    fn new(keep: usize) -> Self {
        Self {
            frames: 0,
            bytes: 0,
            host_frames: 0,
            latency: Hist::cycles(),
            kept: (keep > 0).then(|| Vec::with_capacity(keep)),
        }
    }

    fn absorb(&mut self, pkt: Packet, at: Cycle, to_host: bool) {
        self.frames += 1;
        self.bytes += pkt.len();
        self.host_frames += u64::from(to_host);
        self.latency.record(at.saturating_sub(pkt.ts_gen));
        if let Some(kept) = &mut self.kept {
            kept.push(Frame {
                id: pkt.id,
                port: pkt.port,
                to_host,
                data: pkt.data,
            });
        }
    }
}

struct SinkPort {
    sink: Arc<Mutex<Sink>>,
    probes: Option<Arc<Probes>>,
}

impl EgressPort<Packet> for SinkPort {
    fn can_accept(&self, _len_bytes: u64) -> bool {
        true
    }

    fn offer(&mut self, pkt: Packet, _len_bytes: u64, now: Cycle) -> Result<(), Packet> {
        let sink = &self.sink;
        let absorb = || sink.lock().expect("sink poisoned").absorb(pkt, now, false);
        match &self.probes {
            None => absorb(),
            Some(p) => p.egress.time(absorb),
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "bench-sink"
    }
}

// ---------------------------------------------------------------------------
// The traffic source as the device sees it.
// ---------------------------------------------------------------------------

/// A recorded run: every accepted arrival with its cycle, plus the cycle
/// count — what `core::ports::replay` needs to reproduce it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recorded(EventLog);

impl Recorded {
    pub fn events(&self) -> u64 {
        self.0.events.len() as u64
    }

    pub fn cycles(&self) -> u64 {
        self.0.cycles
    }

    /// The accepted frames, in order: `(id, ingress port, bytes)`.
    pub fn frames(&self) -> impl Iterator<Item = (u64, u8, &[u8])> {
        self.0
            .events
            .iter()
            .map(|e| (e.pkt.id, e.pkt.port, e.pkt.bytes()))
    }

    pub fn to_text(&self) -> String {
        self.0.to_text()
    }

    pub fn parse_text(text: &str) -> Result<Self, String> {
        EventLog::parse_text(text).map(Self)
    }
}

/// The paced generator behind the port contract, optionally timed and
/// optionally recording what the device accepts.
struct Source {
    gen: GenPort,
    probes: Option<Arc<Probes>>,
    /// Every polled frame is logged; a refusal takes its entry back out, so
    /// the log holds exactly the accepted injections.
    log: Option<EventLog>,
}

impl IngressPort<Packet> for Source {
    fn poll(&mut self, now: Cycle) -> Option<Packet> {
        let pkt = match &self.probes {
            None => self.gen.poll(now),
            Some(p) => {
                let timed = p.gen_poll.next_is_timed();
                let before = timed.then(AllocCount::now);
                let gen = &mut self.gen;
                let pkt = p.gen_poll.time(|| gen.poll(now));
                p.gen_frames.add(u64::from(pkt.is_some()));
                if let (Some(before), Some(_)) = (before, &pkt) {
                    p.gen_timed_allocs.add(AllocCount::since(before).allocs);
                    p.gen_timed_frames.add(1);
                }
                pkt
            }
        };
        if let (Some(log), Some(pkt)) = (&mut self.log, &pkt) {
            log.push(now, pkt.clone());
        }
        pkt
    }

    fn give_back(&mut self, pkt: Packet) {
        if let Some(p) = &self.probes {
            p.gen_give_backs.add(1);
        }
        if let Some(log) = &mut self.log {
            let undone = log.events.pop();
            debug_assert_eq!(undone.map(|e| e.pkt.id), Some(pkt.id));
        }
        self.gen.give_back(pkt);
    }

    fn clock(&self, now: Cycle) -> PortClock {
        self.gen.clock(now)
    }

    fn backlog(&self) -> usize {
        self.gen.backlog()
    }
}

// ---------------------------------------------------------------------------
// The harness-style device.
// ---------------------------------------------------------------------------

/// Conservation-ledger view, with the in-flight count the device reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerView {
    pub injected: u64,
    pub originated: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub corrupted: u64,
    pub purged: u64,
    pub in_flight: u64,
}

impl LedgerView {
    /// `entered − accounted − in_flight`: 0 when every frame is accounted.
    pub fn imbalance(&self) -> u64 {
        (self.injected + self.originated)
            .abs_diff(self.delivered + self.dropped + self.corrupted + self.purged + self.in_flight)
    }
}

/// Everything simulated the benchmark reads from a device at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DevSnapshot {
    pub now: u64,
    pub clock_hz: u64,
    pub rpus: u64,
    pub ledger: LedgerView,
    pub drop_count: u64,
    pub lb_assigned: u64,
    pub lb_stall_cycles: u64,
    /// Sums of the per-RPU hardware performance counters (§4.3).
    pub instret: u64,
    pub sw_cycles: u64,
    pub stall_cycles: u64,
    pub mem_wait_cycles: u64,
    /// `diagnostics().render()`, compared verbatim between live and replay.
    pub diag: String,
}

fn snapshot(sys: &Rosebud) -> DevSnapshot {
    let l = sys.ledger();
    let diag = sys.diagnostics();
    let sum = |f: fn(&PerfCounters) -> u64| -> u64 { diag.perf.iter().map(f).sum() };
    DevSnapshot {
        now: sys.now(),
        clock_hz: sys.config().clock_hz,
        rpus: sys.config().num_rpus as u64,
        ledger: LedgerView {
            injected: l.injected,
            originated: l.originated,
            delivered: l.delivered,
            dropped: l.dropped,
            corrupted: l.corrupted,
            purged: l.purged,
            in_flight: sys.ledger_in_flight(),
        },
        drop_count: sys.drop_count(),
        lb_assigned: sys.lb_assigned(),
        lb_stall_cycles: sys.lb_stall_cycles(),
        instret: sum(|p| p.instret),
        sw_cycles: sum(|p| p.sw_cycles),
        stall_cycles: sum(|p| p.stall_cycles),
        mem_wait_cycles: sum(|p| p.mem_wait_cycles),
        diag: diag.render(),
    }
}

/// The three calls of the driver loop, timed every cycle in a traced run.
#[derive(Debug, Default)]
pub struct LoopSpans {
    pub pump: Span,
    pub tick: Span,
    pub host_drain: Span,
}

/// How a [`Device`] is put together.
#[derive(Default)]
pub struct DeviceOpts {
    /// Put the timing wrappers on the trait seams.
    pub probes: Option<Arc<Probes>>,
    /// Keep up to this many delivered frames for content checks.
    pub keep: usize,
    /// Record accepted injections for replay.
    pub record: bool,
}

/// A system, its paced traffic source and its sink, driven by the
/// benchmark's own loop: `pump` → `tick` → `take_host_packets`.
pub struct Device {
    sys: Rosebud,
    source: Source,
    sink: Arc<Mutex<Sink>>,
}

impl Device {
    /// One cold set-up: firmware assembly, rule or blacklist compilation,
    /// `build()` (with the `Deny` analysis where the workload asks for it),
    /// the traffic generator and the sink.
    pub fn build(w: Workload, seed: u64, offered_gbps: f64, opts: DeviceOpts) -> Self {
        let mut sys = build_system(w, seed, opts.probes.as_ref());
        let (ns_per_cycle, ports) = (sys.config().ns_per_cycle(), sys.config().num_ports);
        let gen = GenPort::per_port(traffic(w, seed), offered_gbps, ns_per_cycle, ports);
        let sink = Arc::new(Mutex::new(Sink::new(opts.keep)));
        for p in 0..ports {
            sys.bind_egress(
                p,
                Box::new(SinkPort {
                    sink: sink.clone(),
                    probes: opts.probes.clone(),
                }),
            );
        }
        Self {
            sys,
            source: Source {
                gen,
                probes: opts.probes,
                log: opts.record.then(EventLog::new),
            },
            sink,
        }
    }

    fn drain_host(&mut self) {
        let host = self.sys.take_host_packets();
        if !host.is_empty() {
            // Taken after the tick, so the delivery cycle is `now − 1`, the
            // same cycle a port delivery's `offer` would have seen.
            let at = self.sys.now() - 1;
            let mut sink = self.sink.lock().expect("sink poisoned");
            for pkt in host {
                sink.absorb(pkt, at, true);
            }
        }
    }

    /// Runs `cycles` cycles at the offered load.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            pump(&mut self.sys, &mut self.source);
            self.sys.tick();
            self.drain_host();
        }
    }

    /// [`run`](Self::run) with a timestamp between the three calls.
    pub fn run_traced(&mut self, cycles: u64, spans: &mut LoopSpans) {
        let mut t0 = now_ns();
        for _ in 0..cycles {
            pump(&mut self.sys, &mut self.source);
            let t1 = now_ns();
            self.sys.tick();
            let t2 = now_ns();
            self.drain_host();
            let t3 = now_ns();
            spans.pump.add(t0, t1);
            spans.tick.add(t1, t2);
            spans.host_drain.add(t2, t3);
            t0 = t3;
        }
    }

    /// Runs `cycles` cycles with nothing offered (drain, or idle ticking).
    pub fn run_idle(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.sys.tick();
            self.drain_host();
        }
    }

    pub fn snapshot(&self) -> DevSnapshot {
        snapshot(&self.sys)
    }

    pub fn sink(&self) -> MutexGuard<'_, Sink> {
        self.sink.lock().expect("sink poisoned")
    }

    /// Stops recording and returns the log, closed at the current cycle.
    pub fn take_recording(&mut self) -> Option<Recorded> {
        let mut log = self.source.log.take()?;
        log.cycles = self.sys.now();
        Some(Recorded(log))
    }

    /// Replays `log` on this (fresh) device; deliveries land in its sink.
    pub fn replay(&mut self, log: &Recorded) {
        let at = log.0.cycles.saturating_sub(1);
        let host = replay(&log.0, &mut self.sys);
        let mut sink = self.sink.lock().expect("sink poisoned");
        for pkt in host {
            // `replay` batches host deliveries, so their exact cycle is
            // gone; none of the replayed latency checks involve them.
            sink.absorb(pkt, at, true);
        }
    }
}

// ---------------------------------------------------------------------------
// The live device: the same core behind `Shell` and a frame transport.
// ---------------------------------------------------------------------------

/// What the live session needs from `Shell<B>`, whatever `B` is.
pub trait LiveDut {
    /// One `Shell::step`: receive, inject, tick, send.
    fn step(&mut self);
    /// Frames delivered back to the transport so far.
    fn forwarded(&self) -> u64;
    /// Frames received but not yet accepted by a MAC.
    fn backlog(&self) -> usize;
    fn snapshot(&self) -> DevSnapshot;
    /// Accepted arrivals logged so far.
    fn logged(&self) -> u64;
    /// A copy of the event log, closed at the current cycle.
    fn recording(&self) -> Recorded;
}

impl<B: ShellBackend> LiveDut for Shell<B> {
    fn step(&mut self) {
        Shell::step(self);
    }

    fn forwarded(&self) -> u64 {
        Shell::forwarded(self)
    }

    fn backlog(&self) -> usize {
        Shell::backlog(self)
    }

    fn snapshot(&self) -> DevSnapshot {
        snapshot(self.sys())
    }

    fn logged(&self) -> u64 {
        self.log().events.len() as u64
    }

    fn recording(&self) -> Recorded {
        Recorded(self.log().clone())
    }
}

/// The far end of the transport, as the live session's client sees it.
pub trait LiveClient {
    /// Sends one frame to the device's `port`; `false` if the transport
    /// refused it.
    fn send(&mut self, port: usize, frame: &[u8]) -> bool;
    /// Receives one frame the device emitted on `port` into `buf`.
    fn recv(&mut self, port: usize, buf: &mut [u8]) -> Option<usize>;
}

/// The firewall behind `Shell<UdsBackend>` on the given socket paths (one
/// per physical port).
pub fn live_uds(
    seed: u64,
    paths: &[PathBuf],
    probes: Option<Arc<Probes>>,
) -> std::io::Result<Box<dyn LiveDut>> {
    let backend = UdsBackend::bind(paths)?;
    let sys = build_system(Workload::Fw256LiveUds, seed, probes.as_ref());
    Ok(match probes {
        None => Box::new(Shell::new(sys, backend)),
        Some(probes) => Box::new(Shell::new(
            sys,
            TimedBackend {
                inner: backend,
                probes,
            },
        )),
    })
}

/// The same firewall over the in-process ring: no syscalls, so the
/// difference to [`live_uds`] is what the sockets cost.
pub fn live_ring(seed: u64, probes: Arc<Probes>) -> (Box<dyn LiveDut>, Box<dyn LiveClient>) {
    let (backend, peer) = RingBackend::pair();
    let sys = build_system(Workload::Fw256LiveUds, seed, Some(&probes));
    let shell = Shell::new(
        sys,
        TimedBackend {
            inner: backend,
            probes,
        },
    );
    let client = RingClient {
        peer,
        pending: Default::default(),
    };
    (Box::new(shell), Box::new(client))
}

struct RingClient {
    peer: RingPeer,
    pending: [VecDeque<Vec<u8>>; 2],
}

impl LiveClient for RingClient {
    fn send(&mut self, port: usize, frame: &[u8]) -> bool {
        self.peer.send(port as u8, frame.to_vec());
        true
    }

    fn recv(&mut self, port: usize, buf: &mut [u8]) -> Option<usize> {
        for (p, frame) in self.peer.recv() {
            self.pending[p as usize].push_back(frame);
        }
        let frame = self.pending[port].pop_front()?;
        buf[..frame.len()].copy_from_slice(&frame);
        Some(frame.len())
    }
}

// ---------------------------------------------------------------------------
// Ground truth for the output checks.
// ---------------------------------------------------------------------------

/// How many rules of the IDS workload's rule set match `frame`, decided by
/// plain substring search — independent of the automaton under test.
pub fn ids_rule_hits(rules: &IdsRules, frame: &[u8]) -> usize {
    let pkt = Packet::new(0, frame.to_vec(), 0, 0);
    let ports = match (pkt.tcp(), pkt.udp()) {
        (Ok(tcp), _) => (tcp.src_port, tcp.dst_port),
        (_, Ok(udp)) => (udp.src_port, udp.dst_port),
        _ => return 0,
    };
    let Some(payload) = pkt.payload() else {
        return 0;
    };
    rules
        .0
        .iter()
        .filter(|r| r.src_port.is_none_or(|p| p == ports.0))
        .filter(|r| r.dst_port.is_none_or(|p| p == ports.1))
        .filter(|r| payload.windows(r.pattern.len()).any(|w| w == r.pattern))
        .count()
}

/// The IDS workload's rules for `seed`.
pub struct IdsRules(Vec<Rule>);

impl IdsRules {
    pub fn new(seed: u64) -> Self {
        Self(ids_rules(seed))
    }
}

// ---------------------------------------------------------------------------
// Layer micro-measures: what has no seam to wrap, chiefly the RV32 ISS.
// Each repeats a standalone call at least 11 times and reports the median.
// ---------------------------------------------------------------------------

const MICRO_REPS: usize = 11;

/// Median over [`MICRO_REPS`] repetitions of `f`, which returns one timing.
fn reps(mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..MICRO_REPS).map(|_| f()).collect();
    median(&samples)
}

/// Wall nanoseconds of `f`, divided by `per`.
fn time_ns(per: u64, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64 / per as f64
}

/// ns per `Cpu::step` running the forwarder's loop on a flat `RamBus`, with
/// or without the decoded-instruction cache. The I/O window is moved into
/// RAM with `RECV_READY` reading 1, so the core runs the full 11-instruction
/// packet path every iteration, as it does under saturating load.
pub fn riscv_step_ns(decode_cache: bool) -> f64 {
    const IO: u32 = 0x4000;
    let src = FORWARDER_ASM
        .replace("0x02000000", "0x4000")
        .replace("0x00800000", "0x5000");
    let image = assemble(&src).expect("relocated forwarder assembles");
    let mut bus = RamBus::new(0x8000);
    if decode_cache {
        bus = bus.with_decode_cache();
    }
    bus.load_image(0, image.words());
    bus.mem_mut()[IO as usize] = 1;
    let mut cpu = Cpu::new(0);
    const STEPS: u64 = 200_000;
    let ns = reps(|| {
        time_ns(STEPS, || {
            for _ in 0..STEPS {
                black_box(cpu.step(&mut bus));
            }
        })
    });
    assert_eq!(
        cpu.instret(),
        MICRO_REPS as u64 * STEPS,
        "the relocated forwarder loop must retire one instruction per step"
    );
    ns
}

fn shipped_sources() -> Vec<String> {
    vec![
        FORWARDER_ASM.to_owned(),
        duty_cycle_forwarder_asm(2000),
        watchdog_forwarder_asm(64),
        rosebud_apps::firewall::FIREWALL_ASM.to_owned(),
        host_dma_forwarder_asm(64),
    ]
}

/// ms to assemble the five shipped RV32 firmware sources.
pub fn riscv_assemble_ms() -> f64 {
    let sources = shipped_sources();
    reps(|| {
        time_ns(1_000_000, || {
            for src in &sources {
                black_box(assemble(src).expect("shipped firmware assembles"));
            }
        })
    })
}

/// ms to run the static analyzer over the same five images — the work a
/// `LoadPolicy::Deny` build does per distinct image.
pub fn riscv_analyze_ms() -> f64 {
    let images: Vec<_> = shipped_sources()
        .iter()
        .map(|s| assemble(s).expect("shipped firmware assembles"))
        .collect();
    let analyzer = Analyzer::new(machine_spec(&RosebudConfig::with_rpus(16)));
    reps(|| {
        time_ns(1_000_000, || {
            for image in &images {
                black_box(analyzer.check(image));
            }
        })
    })
}

/// ns per `Fifo` push + pop pair.
pub fn kernel_fifo_ns() -> f64 {
    let mut fifo: Fifo<u64> = Fifo::new(64);
    const OPS: u64 = 200_000;
    reps(|| {
        time_ns(OPS, || {
            for i in 0..OPS {
                let _ = fifo.push(black_box(i));
                black_box(fifo.pop());
            }
        })
    })
}

/// ns per frame through a `LinkPort` (push → advance → poll), the
/// serializer + delay-line pair every MAC and fabric link is made of.
pub fn kernel_linkport_ns() -> f64 {
    let mut link: LinkPort<u64> = LinkPort::new(50, 8, 4);
    const FRAMES: u64 = 50_000;
    let mut now: Cycle = 0;
    reps(|| {
        time_ns(FRAMES, || {
            let mut got = 0;
            let mut next = 0;
            while got < FRAMES {
                if next < FRAMES && link.push(next, 100, now).is_ok() {
                    next += 1;
                }
                link.advance(now);
                while let Some(item) = link.poll(now) {
                    black_box(item);
                    got += 1;
                }
                now += 1;
            }
        })
    })
}

/// ns per `FirewallMatcher::is_blacklisted` lookup.
pub fn accel_ipmatch_ns(seed: u64) -> f64 {
    let matcher = FirewallMatcher::from_prefixes(&synthetic_blacklist(BLACKLIST_LEN, seed));
    const LOOKUPS: u32 = 200_000;
    reps(|| {
        time_ns(u64::from(LOOKUPS), || {
            let mut hits = 0u32;
            for i in 0..LOOKUPS {
                hits += u32::from(matcher.is_blacklisted(black_box(i.wrapping_mul(0x9E37_79B9))));
            }
            black_box(hits);
        })
    })
}

/// `(ns per payload byte through the Aho–Corasick scan, ms to compile the
/// rule set)` for the IDS rules of `seed` over `frames`.
pub fn accel_mpse(seed: u64, frames: &[Packet]) -> (f64, f64) {
    let rules = ids_rules(seed);
    let compile_ms = reps(|| {
        let rules = rules.clone();
        time_ns(1_000_000, || {
            black_box(RuleSet::compile(rules));
        })
    });
    let patterns: Vec<Pattern> = rules
        .iter()
        .map(|r| Pattern::new(r.id, &r.pattern))
        .collect();
    let automaton = AhoCorasick::build(&patterns);
    let bytes: u64 = frames.iter().map(Packet::len).sum();
    let scan_ns = reps(|| {
        time_ns(bytes.max(1), || {
            let mut hits = 0u64;
            for f in frames {
                automaton.scan(f.bytes(), |_| hits += 1);
            }
            black_box(hits);
        })
    });
    (scan_ns, compile_ms)
}

/// ns per frame to parse Ethernet/IPv4/L4 headers and hash the flow.
pub fn net_parse_ns(frames: &[Packet]) -> f64 {
    reps(|| {
        time_ns(frames.len().max(1) as u64, || {
            for f in frames {
                black_box((f.eth().is_ok(), f.ipv4().is_ok(), f.tcp().is_ok()));
                black_box(flow_hash(f));
            }
        })
    })
}

/// `n` frames of the workload's traffic, for the parse and scan measures.
pub fn sample_frames(w: Workload, seed: u64, n: usize) -> Vec<Packet> {
    let mut gen = traffic(w, seed);
    (0..n as u64).map(|id| gen.generate(id, 0)).collect()
}
