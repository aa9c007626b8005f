//! The top-level Rosebud system: RPUs, load balancer, packet distribution,
//! messaging, and the host bridge, advanced one 250 MHz cycle at a time.

use rosebud_accel::Accelerator;
use rosebud_kernel::{
    Clock, Counters, Cycle, DelayLine, EgressPort, Fifo, LatencyStats, Serializer,
};
use rosebud_net::Packet;
use rosebud_riscv::Image;

use crate::config::RosebudConfig;
use crate::fabric::{BcastArbiter, EgressItem, IngressItem, Lane, LaneSet, Loopback, PortState};
use crate::fault::{FaultEvent, FaultKind, FaultPlan, FaultState, Ledger};
use crate::lb::{LoadBalancer, SlotTracker};
use crate::rpu::{Firmware, Rpu};
use crate::supervisor::RecoveryEvent;
use crate::trace::{SupervisorStep, TraceConfig, TraceEvent, Tracer};
use crate::types::{irq, port, HostDmaReq, SlotMeta, SELF_TAG};
use crate::verify::{machine_spec, LintRecord, LoadPolicy};

/// How often [`Rosebud::tick`] re-asserts the packet-conservation ledger.
const LEDGER_CHECK_INTERVAL: Cycle = 1024;

/// What runs on an RPU's core.
pub enum RpuProgram {
    /// Assembled RV32IM firmware on the instruction-set simulator.
    Riscv(Image),
    /// Native firmware with explicit cycle accounting.
    Native(Box<dyn Firmware>),
}

impl std::fmt::Debug for RpuProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpuProgram::Riscv(img) => write!(f, "Riscv({} words)", img.words().len()),
            RpuProgram::Native(fw) => write!(f, "Native({})", fw.name()),
        }
    }
}

/// Factory producing one firmware instance per RPU.
pub type FirmwareFactory = Box<dyn Fn(usize) -> RpuProgram + Send>;
/// Factory producing one accelerator instance per RPU.
pub type AccelFactory = Box<dyn Fn(usize) -> Box<dyn Accelerator> + Send>;

/// Builder for a [`Rosebud`] system.
///
/// # Examples
///
/// ```
/// use rosebud_core::{Rosebud, RosebudConfig, RoundRobinLb, RpuProgram};
/// use rosebud_riscv::assemble;
///
/// let image = assemble("
///     spin: j spin
/// ").unwrap();
/// let sys = Rosebud::builder(RosebudConfig::with_rpus(4))
///     .load_balancer(Box::new(RoundRobinLb::new()))
///     .firmware(move |_rpu| RpuProgram::Riscv(image.clone()))
///     .build()
///     .unwrap();
/// assert_eq!(sys.config().num_rpus, 4);
/// ```
pub struct RosebudBuilder {
    cfg: RosebudConfig,
    lb: Option<Box<dyn LoadBalancer>>,
    firmware: Option<FirmwareFactory>,
    accel: Option<AccelFactory>,
    load_policy: LoadPolicy,
}

impl RosebudBuilder {
    /// Installs the load-balancing policy (defaults to round-robin).
    pub fn load_balancer(mut self, lb: Box<dyn LoadBalancer>) -> Self {
        self.lb = Some(lb);
        self
    }

    /// Installs the per-RPU firmware factory.
    pub fn firmware<F>(mut self, factory: F) -> Self
    where
        F: Fn(usize) -> RpuProgram + Send + 'static,
    {
        self.firmware = Some(Box::new(factory));
        self
    }

    /// Installs the per-RPU accelerator factory.
    pub fn accelerator<F>(mut self, factory: F) -> Self
    where
        F: Fn(usize) -> Box<dyn Accelerator> + Send + 'static,
    {
        self.accel = Some(Box::new(factory));
        self
    }

    /// Selects the static-lint policy applied to every RISC-V firmware
    /// load: at boot, on host loads, and on partial-reconfiguration
    /// reloads. Defaults to [`LoadPolicy::Off`].
    pub fn load_policy(mut self, policy: LoadPolicy) -> Self {
        self.load_policy = policy;
        self
    }

    /// Constructs the system, loads accelerators and firmware into every
    /// RPU, and boots them.
    ///
    /// # Errors
    ///
    /// Returns the configuration-validation message on an invalid
    /// [`RosebudConfig`], or a description when no firmware was provided.
    pub fn build(self) -> Result<Rosebud, String> {
        self.cfg.validate()?;
        let firmware = self.firmware.ok_or("no firmware installed")?;
        let cfg = self.cfg;
        let mut lanes: Vec<Lane> = (0..cfg.num_rpus)
            .map(|i| Lane {
                rpu: Rpu::new(i, &cfg),
                rin: Serializer::new(cfg.rpu_link_bytes_per_cycle, cfg.slots_per_rpu + 2),
                rout: Serializer::new(cfg.rpu_link_bytes_per_cycle, cfg.slots_per_rpu + 2),
            })
            .collect();
        let mut lint_log: Vec<LintRecord> = Vec::new();
        for (i, lane) in lanes.iter_mut().enumerate() {
            if let Some(accel) = &self.accel {
                lane.rpu.set_accelerator(accel(i));
            }
            match firmware(i) {
                RpuProgram::Riscv(image) => {
                    if !vet(&cfg, self.load_policy, i, 0, &image, &mut lint_log) {
                        let errors = lint_log.last().map_or(0, |r| r.report.error_count());
                        return Err(format!(
                            "firmware for RPU {i} rejected by LoadPolicy::Deny: \
                             {errors} lint error(s)"
                        ));
                    }
                    lane.rpu.load_riscv(&image);
                }
                RpuProgram::Native(fw) => lane.rpu.load_native(fw),
            }
        }
        let tracker = SlotTracker::new(cfg.num_rpus, cfg.slots_per_rpu);
        let enabled = if cfg.num_rpus >= 64 {
            u64::MAX
        } else {
            (1u64 << cfg.num_rpus) - 1
        };
        // Every lane starts in every occupancy word (a native boot hook may
        // already have queued a send); the first tick clears what is empty.
        let all = LaneSet::all(cfg.num_rpus);
        let ports = (0..cfg.num_ports).map(|_| PortState::new(&cfg)).collect();
        Ok(Rosebud {
            clock: Clock::new(cfg.clock_hz),
            lanes,
            rin_busy: all,
            awake: all,
            tx_ready: all,
            rout_busy: all,
            dma_posted: all,
            quiet: vec![0; cfg.num_rpus],
            next_wake: Cycle::MAX,
            lb: self
                .lb
                .unwrap_or_else(|| Box::new(crate::lb::RoundRobinLb::new())),
            tracker,
            enabled,
            ports,
            egress: (0..cfg.num_ports).map(|_| None).collect(),
            ingress_delay: DelayLine::new(cfg.ingress_fixed_cycles),
            loopback: Loopback::new(&cfg),
            bcast: BcastArbiter::new(&cfg),
            bcast_latency: LatencyStats::new(),
            host_rx_delay: DelayLine::new(cfg.pcie_rtt_cycles / 2),
            host_rx: Vec::new(),
            host_tx: Fifo::new(256),
            host_dram: vec![0; 4 * 1024 * 1024],
            host_dma_delay: DelayLine::new(cfg.pcie_rtt_cycles / 2),
            pr_jobs: Vec::new(),
            lb_assigned: 0,
            lb_stall_cycles: 0,
            routed_drops: 0,
            firmware_factory: Some(firmware),
            accel_factory: self.accel,
            fault: None,
            ledger: Ledger::default(),
            recovery_log: Vec::new(),
            load_policy: self.load_policy,
            lint_log,
            tracer: None,
            cfg,
        })
    }
}

/// Runs the analyzer over `image` per `policy`, appending the report to
/// `lint_log`. Returns `false` when [`LoadPolicy::Deny`] must block the
/// install. The one vetting routine behind boot, host loads and PR reloads.
fn vet(
    cfg: &RosebudConfig,
    policy: LoadPolicy,
    rpu: usize,
    cycle: Cycle,
    image: &Image,
    lint_log: &mut Vec<LintRecord>,
) -> bool {
    if policy == LoadPolicy::Off {
        return true;
    }
    let report = rosebud_riscv::Analyzer::new(machine_spec(cfg)).check(image);
    let denied = policy == LoadPolicy::Deny && report.has_errors();
    lint_log.push(LintRecord {
        rpu,
        cycle,
        denied,
        report,
    });
    !denied
}

pub(crate) struct PrJob {
    pub rpu: usize,
    pub phase: PrPhase,
    pub program: Option<RpuProgram>,
    pub accel: Option<Box<dyn Accelerator>>,
    /// Whether the LB enable bit comes back automatically when the new
    /// program boots. Supervised recoveries pass `false`: the supervisor
    /// re-enables only after verifying the region actually rebooted.
    pub reenable: bool,
}

pub(crate) enum PrPhase {
    Draining,
    Writing { until: Cycle },
}

/// The simulated Rosebud system (Fig. 2): everything inside the DUT FPGA.
pub struct Rosebud {
    pub(crate) cfg: RosebudConfig,
    pub(crate) clock: Clock,
    /// One lane per RPU: the RPU plus its private ingress/egress links.
    pub(crate) lanes: Vec<Lane>,
    /// Occupancy words: one set of lanes per queue the tick polls, so each
    /// per-lane sweep visits what is in flight rather than what is built.
    /// The invariant is one-sided — *word ⊇ truth*: a set bit on an empty
    /// lane is one wasted visit (the sweep that finds the queue empty clears
    /// it), a clear bit on an occupied lane is a bug. A bit is set where the
    /// queue is filled, and [`Rosebud::wake_lane`] sets a lane in all five.
    ///
    /// Stage 4: a frame is on the lane's ingress link (`rin`).
    rin_busy: LaneSet,
    /// Stage 5, core-tick elision: the lanes whose core must tick. A lane
    /// leaves when its tick was inert and its quiet horizon lies ahead —
    /// parked, halted, hung or mid-PR, no stall tail, no queued send, no
    /// accelerator — and returns through [`Rosebud::wake_lane`] or when
    /// `now` reaches `quiet[r]`.
    awake: LaneSet,
    /// Stage 6: a committed send is queued in the RPU.
    tx_ready: LaneSet,
    /// Stage 7: a frame is on the lane's egress link (`rout`).
    rout_busy: LaneSet,
    /// Stage 10: the RPU has posted a host-DMA request.
    dma_posted: LaneSet,
    /// For a lane not in `awake`: the first cycle at which its tick could
    /// change any state (the armed-watchdog deadline, or never). Stale for
    /// a lane that is awake.
    quiet: Vec<Cycle>,
    /// A lower bound on `quiet[r]` over the sleeping lanes: stage 5 reads
    /// `quiet` only once `now` reaches it.
    next_wake: Cycle,
    pub(crate) lb: Box<dyn LoadBalancer>,
    pub(crate) tracker: SlotTracker,
    pub(crate) enabled: u64,
    pub(crate) ports: Vec<PortState>,
    /// Optional egress port bound per physical port: when present, frames
    /// leaving the TX MAC are offered to it (respecting its capacity — a
    /// refused frame stays serializing in the MAC, which is real wire-side
    /// backpressure); when absent, frames land in the port's `output` vec as
    /// they always have.
    pub(crate) egress: Vec<Option<Box<dyn EgressPort<Packet> + Send>>>,
    pub(crate) ingress_delay: DelayLine<IngressItem>,
    pub(crate) loopback: Loopback,
    pub(crate) bcast: BcastArbiter,
    pub(crate) bcast_latency: LatencyStats,
    pub(crate) host_rx_delay: DelayLine<Packet>,
    pub(crate) host_rx: Vec<Packet>,
    pub(crate) host_tx: Fifo<Packet>,
    /// Host DRAM reachable from the RPUs through the DMA manager (§4.2).
    pub(crate) host_dram: Vec<u8>,
    pub(crate) host_dma_delay: DelayLine<(usize, HostDmaReq)>,
    pub(crate) pr_jobs: Vec<PrJob>,
    pub(crate) lb_assigned: u64,
    pub(crate) lb_stall_cycles: u64,
    pub(crate) routed_drops: u64,
    pub(crate) firmware_factory: Option<FirmwareFactory>,
    pub(crate) accel_factory: Option<AccelFactory>,
    /// Installed fault-injection schedule, if any.
    pub(crate) fault: Option<FaultState>,
    /// Packet-conservation accounting.
    pub(crate) ledger: Ledger,
    /// Completed recovery records, written by the supervisor over the host
    /// interface.
    pub(crate) recovery_log: Vec<RecoveryEvent>,
    /// Static-lint policy applied to every RISC-V firmware load.
    pub(crate) load_policy: LoadPolicy,
    /// Every lint report produced by the load path, oldest first.
    pub(crate) lint_log: Vec<LintRecord>,
    /// The cycle-stamped event recorder, when tracing is enabled (§4.3).
    pub(crate) tracer: Option<Tracer>,
}

/// The trace-facing name of an RPU's lifecycle state.
fn rpu_state_name(rpu: &Rpu) -> &'static str {
    match rpu.state() {
        crate::rpu::RpuState::Running => "running",
        crate::rpu::RpuState::Draining => "draining",
        crate::rpu::RpuState::Reconfiguring { .. } => "reconfiguring",
        crate::rpu::RpuState::Stopped => {
            if rpu.is_halted() {
                "halted"
            } else {
                "stopped"
            }
        }
    }
}

impl std::fmt::Debug for Rosebud {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rosebud")
            .field("rpus", &self.lanes.len())
            .field("cycle", &self.clock.cycle())
            .field("lb", &self.lb.name())
            .finish()
    }
}

/// Read-only view of every RPU, indexable like a slice.
///
/// # Examples
///
/// ```
/// # use rosebud_core::{Rosebud, RosebudConfig, RpuProgram};
/// # use rosebud_riscv::assemble;
/// # let image = assemble("spin: j spin").unwrap();
/// # let sys = Rosebud::builder(RosebudConfig::with_rpus(4))
/// #     .firmware(move |_| RpuProgram::Riscv(image.clone()))
/// #     .build()
/// #     .unwrap();
/// assert_eq!(sys.rpus().len(), 4);
/// assert_eq!(sys.rpus()[2].id(), 2);
/// assert_eq!(sys.rpus().iter().count(), 4);
/// ```
#[derive(Clone, Copy)]
pub struct Rpus<'a>(&'a [Lane]);

impl<'a> Rpus<'a> {
    /// Number of RPUs.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Iterates the RPUs in index order.
    pub fn iter(&self) -> impl Iterator<Item = &'a Rpu> + use<'a> {
        self.0.iter().map(|lane| &lane.rpu)
    }
}

impl std::ops::Index<usize> for Rpus<'_> {
    type Output = Rpu;

    fn index(&self, r: usize) -> &Rpu {
        &self.0[r].rpu
    }
}

impl Rosebud {
    /// Starts building a system with `cfg`.
    pub fn builder(cfg: RosebudConfig) -> RosebudBuilder {
        RosebudBuilder {
            cfg,
            lb: None,
            firmware: None,
            accel: None,
            load_policy: LoadPolicy::default(),
        }
    }

    /// The static-lint policy applied to firmware loads.
    pub fn load_policy(&self) -> LoadPolicy {
        self.load_policy
    }

    /// Every lint report the load path has produced, oldest first.
    pub fn lint_log(&self) -> &[LintRecord] {
        &self.lint_log
    }

    /// Runs the analyzer over `image` per the load policy, recording the
    /// report. Returns `false` when [`LoadPolicy::Deny`] must block the
    /// install.
    pub(crate) fn vet_firmware(&mut self, rpu: usize, image: &Image) -> bool {
        let cycle = self.clock.cycle();
        vet(
            &self.cfg,
            self.load_policy,
            rpu,
            cycle,
            image,
            &mut self.lint_log,
        )
    }

    /// The configuration.
    pub fn config(&self) -> &RosebudConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.clock.cycle()
    }

    /// Elapsed simulated time in nanoseconds.
    pub fn elapsed_ns(&self) -> f64 {
        self.clock.ns()
    }

    /// The RPUs (host-side inspection).
    pub fn rpus(&self) -> Rpus<'_> {
        Rpus(&self.lanes)
    }

    /// Mutable access to one RPU (host-side debugging, table loads).
    pub fn rpu_mut(&mut self, rpu: usize) -> &mut Rpu {
        self.wake_lane(rpu);
        &mut self.lanes[rpu].rpu
    }

    /// Marks lane `r` in every occupancy word, so the next tick visits it
    /// in all five sweeps: every event from outside the tick's own data path
    /// that could change an elided core's behavior or fill one of the lane's
    /// queues — a raised interrupt, a host access, fault injection, a PR
    /// step — must route through here. Spurious marks are harmless (each
    /// sweep clears what it finds empty, an inert core re-sleeps right
    /// after); a *missed* one is a determinism bug the elision differential
    /// (`tests/kernel_equivalence.rs`) exists to catch.
    #[inline]
    pub(crate) fn wake_lane(&mut self, r: usize) {
        self.rin_busy.insert(r);
        self.awake.insert(r);
        self.tx_ready.insert(r);
        self.rout_busy.insert(r);
        self.dma_posted.insert(r);
    }

    /// Offers a packet to physical port `pkt.port`'s receive MAC. Returns
    /// the packet back when the wire-side serializer is busy (the traffic
    /// source retries next cycle — that is what "the link is saturated"
    /// means).
    pub fn inject(&mut self, pkt: Packet) -> Result<(), Packet> {
        let now = self.clock.cycle();
        let p = pkt.port as usize;
        if p >= self.ports.len() {
            return Err(pkt);
        }
        if self
            .fault
            .as_ref()
            .is_some_and(|f| f.rx_drop_until[p] > now)
        {
            // Injected RX FIFO overflow burst: the MAC accepts the frame and
            // immediately sheds it — accounted, not lost.
            self.ports[p].counters.count_rx_frame(pkt.len());
            self.ports[p].counters.count_drop();
            self.ledger.injected += 1;
            self.ledger.dropped += 1;
            return Ok(());
        }
        let wire = pkt.wire_len();
        self.ports[p].counters.count_rx_frame(pkt.len());
        let res = self.ports[p]
            .rx_mac
            .push(pkt, wire, now)
            .inspect_err(|pkt| {
                self.ports[p].counters.rx_frames -= 1;
                self.ports[p].counters.rx_bytes -= pkt.len();
            });
        if res.is_ok() {
            self.ledger.injected += 1;
        }
        res
    }

    /// `true` if port `p`'s receive MAC can take another frame this cycle.
    pub fn can_inject(&self, p: usize) -> bool {
        p < self.ports.len() && !self.ports[p].rx_mac.is_full()
    }

    /// Drains frames delivered on physical port `p`.
    pub fn take_output(&mut self, p: usize) -> Vec<Packet> {
        std::mem::take(&mut self.ports[p].output)
    }

    /// Binds an egress port to physical port `p`: delivered frames are
    /// offered to it instead of accumulating in the
    /// [`take_output`](Self::take_output) vec, and its capacity
    /// backpressures the TX MAC. Replaces (and returns) any previous
    /// binding.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn bind_egress(
        &mut self,
        p: usize,
        port: Box<dyn EgressPort<Packet> + Send>,
    ) -> Option<Box<dyn EgressPort<Packet> + Send>> {
        self.egress[p].replace(port)
    }

    /// Drains frames delivered to the host over PCIe.
    pub fn take_host_packets(&mut self) -> Vec<Packet> {
        std::mem::take(&mut self.host_rx)
    }

    /// Queues a frame from the host's virtual Ethernet interface.
    pub fn inject_from_host(&mut self, pkt: Packet) -> Result<(), Packet> {
        let res = self.host_tx.push(pkt);
        if res.is_ok() {
            self.ledger.injected += 1;
        }
        res
    }

    /// Counters of physical port `p`.
    pub fn port_counters(&self, p: usize) -> Counters {
        self.ports[p].counters
    }

    /// Bytes currently queued in port `p`'s MAC receive FIFO (host-visible
    /// occupancy, useful for locating bottlenecks per §4.3).
    pub fn rx_fifo_bytes(&self, p: usize) -> u64 {
        self.ports[p].rx_fifo.bytes()
    }

    /// Counters of RPU `r` (§4.3).
    pub fn rpu_counters(&self, r: usize) -> Counters {
        self.lanes[r].rpu.inner().counters()
    }

    /// Broadcast-message delivery latency samples, in nanoseconds (§6.3).
    pub fn bcast_latency(&mut self) -> &mut LatencyStats {
        &mut self.bcast_latency
    }

    /// Packets the LB has assigned so far.
    pub fn lb_assigned(&self) -> u64 {
        self.lb_assigned
    }

    /// Cycles the LB spent with a head-of-line packet it could not place.
    pub fn lb_stall_cycles(&self) -> u64 {
        self.lb_stall_cycles
    }

    /// Packets dropped by firmware (zero-length sends) plus routing errors.
    pub fn drop_count(&self) -> u64 {
        self.routed_drops
    }

    /// Runs `cycles` clock cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.tick();
        }
    }

    /// Advances the whole system by one clock cycle: stages 0–3
    /// (`tick_pre`), the per-lane stages 4–6 (`lane_stages`), then stages
    /// 7–12 and the periodic scans (`tick_post`). Every per-lane stage sweeps its occupancy
    /// word in ascending lane order before the next begins and applies
    /// shared effects inline — one thread, one order.
    pub fn tick(&mut self) {
        let now = self.clock.cycle();
        self.tick_pre(now);
        self.lane_stages(now);
        self.tick_post(now);
    }

    /// Stages 0–3: faults, wire-side receive, the load balancer, and the
    /// ingress pipeline.
    fn tick_pre(&mut self, now: Cycle) {
        // 0. Scheduled fault injection (chaos harness).
        self.apply_due_faults(now);

        // 1. Wire-side receive: MAC serializer → MAC FIFO (byte-bounded).
        for p in &mut self.ports {
            if let Some(ready) = p.rx_mac.head_ready_at() {
                if ready <= now {
                    if let Some(front_len) = p.rx_mac.front().map(Packet::len) {
                        if p.rx_fifo.has_room(front_len) {
                            let pkt = p.rx_mac.pop_ready(now).expect("head ready");
                            p.rx_fifo.push(pkt).expect("room checked above");
                        }
                    }
                }
            }
        }

        // 2. LB stage: the distribution subsystem grants each incoming port
        //    a slot every other cycle — the "125 MPPS per incoming port"
        //    limit the paper reports (§6.1) — then serves the host's
        //    (low-rate) virtual interface.
        let nports = self.ports.len();
        let service_slots = nports.max(2);
        let p = (now as usize) % service_slots;
        if p < nports && !self.lb_admit(Some(p), now) {
            self.lb_stall_cycles += 1;
        }
        self.lb_admit(None, now);

        // 3. Fixed ingress pipeline → per-RPU 32 Gbps links.
        while let Some(item) = self.ingress_delay.peek_ready(now) {
            if self.lanes[item.rpu].rin.is_full() {
                break;
            }
            let item = self.ingress_delay.pop_ready(now).expect("peeked ready");
            let len = item.bytes.len() as u64;
            let rpu = item.rpu;
            self.lanes[rpu]
                .rin
                .push(item, len, now)
                .expect("fullness checked above");
            self.rin_busy.insert(rpu);
        }
    }

    /// Stages 4–6, the per-RPU stages: each sweeps its occupancy word in
    /// ascending lane order before the next begins, which is the order the
    /// full `0..lanes` sweeps visited the same lanes in (DESIGN.md, "The
    /// tick").
    fn lane_stages(&mut self, now: Cycle) {
        // 4. Per-RPU link → DMA into packet memory + descriptor delivery.
        for r in self.rin_busy {
            let Some(item) = self.lanes[r].rin.pop_ready(now) else {
                if self.lanes[r].rin.is_empty() {
                    self.rin_busy.remove(r);
                }
                continue;
            };
            // The one ingress wake: a frame still on the link (pushed in
            // stage 3 or by the loopback) is invisible to the core, and a
            // delivery fills none of the lane's other queues.
            self.awake.insert(r);
            if item.corrupted {
                // Link FCS failure: quarantine before the DMA engine
                // touches packet memory; the slot returns to the LB.
                self.tracker.release(r, item.slot);
                self.ledger.corrupted += 1;
                continue;
            }
            let len = item.bytes.len() as u32;
            let delivered = self.lanes[r]
                .rpu
                .inner_mut()
                .dma_deliver(item.slot, item.bytes, item.meta);
            if !delivered {
                // Should not happen: slots bound in-flight packets.
                self.tracker.release(r, item.slot);
                self.routed_drops += 1;
                self.ledger.dropped += 1;
            } else if let Some(t) = self.tracer.as_mut() {
                t.record(
                    now,
                    TraceEvent::DescRx {
                        rpu: r as u8,
                        slot: item.slot,
                        len,
                    },
                );
            }
        }

        // 5. RPUs: core + accelerator, for the lanes that are awake. What
        //    the tick left for stages 6 and 10 is looked at once, here; the
        //    horizon is consulted only after an inert tick.
        if now >= self.next_wake {
            self.wake_due(now);
        }
        for r in self.awake {
            let rpu = &mut self.lanes[r].rpu;
            let inert = rpu.tick(now);
            let (send, dma) = rpu.inner().posted();
            if send {
                self.tx_ready.insert(r);
            }
            if dma {
                self.dma_posted.insert(r);
            }
            if inert {
                let horizon = rpu.quiet_horizon();
                if horizon > now {
                    self.awake.remove(r);
                    self.quiet[r] = horizon;
                    self.next_wake = self.next_wake.min(horizon);
                }
            }
        }

        // 6. Committed sends → per-RPU egress links.
        for r in self.tx_ready {
            if self.lanes[r].rout.is_full() {
                continue;
            }
            let Some((desc, bytes, meta)) = self.lanes[r].rpu.inner_mut().take_tx() else {
                self.tx_ready.remove(r);
                continue;
            };
            if desc.len == 0 || bytes.is_empty() {
                if desc.tag != SELF_TAG {
                    self.tracker.release(r, desc.tag);
                    // Self-originated zero-length sends never entered
                    // the conservation universe; slot-bound ones did.
                    self.ledger.dropped += 1;
                }
                self.routed_drops += 1;
                if let Some(t) = self.tracer.as_mut() {
                    t.record(
                        now,
                        TraceEvent::DescDrop {
                            rpu: r as u8,
                            tag: desc.tag,
                        },
                    );
                }
                continue;
            }
            if let Some(t) = self.tracer.as_mut() {
                t.record(
                    now,
                    TraceEvent::DescTx {
                        rpu: r as u8,
                        tag: desc.tag,
                        port: desc.port,
                        len: bytes.len() as u32,
                    },
                );
            }
            let len = bytes.len() as u64;
            self.lanes[r]
                .rout
                .push(
                    EgressItem {
                        src_rpu: r,
                        desc,
                        bytes,
                        meta,
                    },
                    len,
                    now,
                )
                .expect("fullness checked above");
            self.rout_busy.insert(r);
        }
    }

    /// Returns every sleeping lane whose horizon `now` has reached to
    /// `awake`, and re-derives `next_wake` from the ones still asleep.
    fn wake_due(&mut self, now: Cycle) {
        self.next_wake = Cycle::MAX;
        for (r, &quiet) in self.quiet.iter().enumerate() {
            if self.awake.contains(r) {
                continue;
            }
            if quiet <= now {
                self.awake.insert(r);
            } else {
                self.next_wake = self.next_wake.min(quiet);
            }
        }
    }

    /// Stages 7–12 plus the periodic scans: everything after the per-lane
    /// stages.
    fn tick_post(&mut self, now: Cycle) {
        // 7. Egress links → routing; slot freed once fully serialized out
        //    ("the interconnect notifies the LB about slot being freed after
        //    it is sent out", §4.2).
        for r in self.rout_busy {
            // Hold the egress link when the destination port's pipeline is
            // congested: self-originated traffic (no slot bound) must not
            // grow the egress queues without limit.
            let Some(head) = self.lanes[r].rout.front() else {
                self.rout_busy.remove(r);
                continue;
            };
            let dest = head.desc.port as usize;
            if dest < self.ports.len() && self.ports[dest].tx_delay.len() >= 64 {
                continue;
            }
            if let Some(item) = self.lanes[r].rout.pop_ready(now) {
                if item.desc.tag != SELF_TAG {
                    self.tracker.release(item.src_rpu, item.desc.tag);
                } else {
                    // A firmware-originated frame enters the conservation
                    // universe as it leaves the region.
                    self.ledger.originated += 1;
                }
                self.route_egress(item, now);
            }
        }

        // 8. Physical-port egress pipelines → wire. A bound egress port is
        //    the wire's far side: its capacity is consulted *before* the
        //    frame leaves the TX MAC, so a congested receiver holds the
        //    frame serializing in the MAC (real backpressure) instead of
        //    being dropped past the edge.
        for (p, eg) in self.ports.iter_mut().zip(self.egress.iter_mut()) {
            if p.tx_delay.peek_ready(now).is_some() && !p.tx_mac.is_full() {
                let pkt = p.tx_delay.pop_ready(now).expect("peeked ready");
                let wire = pkt.wire_len();
                p.tx_mac.push(pkt, wire, now).expect("fullness checked");
            }
            if let Some(port) = eg {
                if let Some(front_len) = p.tx_mac.front().map(Packet::len) {
                    if !port.can_accept(front_len) {
                        continue;
                    }
                }
            }
            if let Some(pkt) = p.tx_mac.pop_ready(now) {
                p.counters.count_tx_frame(pkt.len());
                let len = pkt.len();
                match eg {
                    Some(port) => match port.offer(pkt, len, now) {
                        Ok(()) => self.ledger.delivered += 1,
                        Err(_) => {
                            // Contract violation (`can_accept` said yes):
                            // account the frame as dropped so conservation
                            // still balances.
                            p.counters.count_drop();
                            self.ledger.dropped += 1;
                        }
                    },
                    None => {
                        p.output.push(pkt);
                        self.ledger.delivered += 1;
                    }
                }
            }
        }

        // 9. Loopback module (§4.4).
        self.loopback.grant(now);
        self.loopback_delivery(now);

        // 10. Host PCIe delivery, and the host-DRAM access manager: RPU
        //     DMA requests traverse PCIe, touch host DRAM, and complete with
        //     the DMA interrupt (§4.2). An injected PCIe outage stalls the
        //     whole stage: nothing is lost, everything waits for link-up.
        let host_up = self.fault.as_ref().is_none_or(|f| f.host_down_until <= now);
        if host_up {
            while let Some(pkt) = self.host_rx_delay.pop_ready(now) {
                self.host_rx.push(pkt);
                self.ledger.delivered += 1;
            }
            // The register holds one request, so a visit always empties it.
            for r in std::mem::take(&mut self.dma_posted) {
                if let Some(req) = self.lanes[r].rpu.inner_mut().take_dma_req() {
                    if let Some(t) = self.tracer.as_mut() {
                        t.dma_started(now, r, req.to_host, req.len);
                    }
                    self.host_dma_delay.push((r, req), now);
                }
            }
        }
        if host_up {
            while let Some((r, req)) = self.host_dma_delay.pop_ready(now) {
                let inner = self.lanes[r].rpu.inner_mut();
                let at = (req.host_addr as usize).min(self.host_dram.len());
                if req.to_host {
                    let bytes = inner.pmem_dma_src(req.local_addr, req.len);
                    let end = (at + bytes.len()).min(self.host_dram.len());
                    self.host_dram[at..end].copy_from_slice(&bytes[..end - at]);
                } else {
                    let end = (at + req.len as usize).min(self.host_dram.len());
                    inner.pmem_copy_in(req.local_addr, &self.host_dram[at..end]);
                }
                self.lanes[r].rpu.inner_mut().dma_complete();
                self.lanes[r].rpu.raise_irq(irq::DMA);
                self.wake_lane(r);
                if let Some(t) = self.tracer.as_mut() {
                    t.dma_completed(now, r);
                }
            }
        }

        // 11. Broadcast arbiter: one outbox visited per cycle; delivery is
        //     simultaneous at every RPU (§4.4).
        let granted = self.bcast.granted_rpu(self.lanes.len());
        if let Some(msg) = self.lanes[granted].rpu.inner_mut().pop_bcast() {
            self.bcast.pipeline.push(msg, now);
        }
        while let Some(msg) = self.bcast.pipeline.pop_ready(now) {
            self.bcast.delivered += 1;
            self.bcast_latency
                .record((now - msg.sent_at) as f64 * self.cfg.ns_per_cycle());
            for r in 0..self.lanes.len() {
                let wants_irq = self.lanes[r].rpu.inner_mut().deliver_bcast(&msg);
                if wants_irq {
                    self.lanes[r].rpu.raise_irq(irq::BCAST);
                    self.wake_lane(r);
                }
            }
        }

        // 12. Partial-reconfiguration jobs.
        self.advance_pr_jobs(now);

        // Periodic trace scans: FIFO high-water marks, lifecycle
        // transitions, enable-mask changes, counter samples. Zero work when
        // tracing is off.
        if self.tracer.is_some() {
            self.trace_periodic(now);
        }

        // Packet conservation is a standing invariant, not a test-only one:
        // losing track of frames during fault recovery must fail loudly.
        if now.is_multiple_of(LEDGER_CHECK_INTERVAL) {
            self.assert_conservation();
        }

        if cfg!(debug_assertions) {
            self.assert_occupancy(now);
        }

        self.clock.tick();
    }

    /// The occupancy invariant, *word ⊇ truth*, for every lane: a queue
    /// that holds something is in its word, and a lane that is not awake
    /// has a horizon ahead of `now` that `next_wake` does not overshoot.
    /// Checked at the end of every tick of a debug build.
    fn assert_occupancy(&self, now: Cycle) {
        for (r, lane) in self.lanes.iter().enumerate() {
            let (send, dma) = lane.rpu.inner().posted();
            assert!(
                lane.rin.is_empty() || self.rin_busy.contains(r),
                "cycle {now}: lane {r} has a frame on rin but is not in rin_busy"
            );
            assert!(
                !send || self.tx_ready.contains(r),
                "cycle {now}: lane {r} has a send queued but is not in tx_ready"
            );
            assert!(
                lane.rout.is_empty() || self.rout_busy.contains(r),
                "cycle {now}: lane {r} has a frame on rout but is not in rout_busy"
            );
            assert!(
                !dma || self.dma_posted.contains(r),
                "cycle {now}: lane {r} posted a DMA request but is not in dma_posted"
            );
            assert!(
                self.awake.contains(r) || (self.quiet[r] > now && self.quiet[r] >= self.next_wake),
                "cycle {now}: lane {r} asleep with quiet {} (next_wake {})",
                self.quiet[r],
                self.next_wake
            );
        }
    }

    /// Applies every fault event scheduled at or before `now`.
    fn apply_due_faults(&mut self, now: Cycle) {
        let Some(fault) = &mut self.fault else {
            return;
        };
        let due = fault.due(now);
        if due.is_empty() {
            return;
        }
        for ev in due {
            let fault = self.fault.as_mut().expect("checked above");
            match ev.kind {
                FaultKind::FirmwareHang { rpu } if rpu < self.lanes.len() => {
                    fault.last_fault_at[rpu] = Some(now);
                    self.lanes[rpu].rpu.force_hang();
                    self.wake_lane(rpu);
                }
                FaultKind::FirmwareCrash { rpu } if rpu < self.lanes.len() => {
                    fault.last_fault_at[rpu] = Some(now);
                    self.lanes[rpu].rpu.force_crash();
                    self.wake_lane(rpu);
                }
                FaultKind::CorruptIngress { rpu, count } if rpu < self.lanes.len() => {
                    fault.corrupt_pending[rpu] += count;
                }
                FaultKind::RxFifoOverflow { port, cycles } if port < self.ports.len() => {
                    let until = now + cycles;
                    let cur = &mut fault.rx_drop_until[port];
                    *cur = (*cur).max(until);
                }
                FaultKind::HostDmaOutage { cycles } => {
                    fault.host_down_until = fault.host_down_until.max(now + cycles);
                }
                // Device-scale faults (box crash/outage/flap/brownout) are
                // applied at fleet scope by `crate::Fleet`; a single box
                // ignores them, as it does out-of-range targets.
                _ => {}
            }
        }
    }

    /// Attempts one LB assignment from the head of port `from`'s MAC FIFO,
    /// or of the host's virtual interface when `from` is `None`. Returns
    /// `false` when a head-of-line packet exists but could not be placed.
    fn lb_admit(&mut self, from: Option<usize>, now: Cycle) -> bool {
        let front = match from {
            Some(p) => self.ports[p].rx_fifo.front(),
            None => self.host_tx.front(),
        };
        let Some(front) = front else {
            return true;
        };
        let Some(rpu) = self.lb.assign(front, &self.tracker, self.enabled) else {
            return false;
        };
        if self.lanes[rpu].rin.is_full() {
            return false;
        }
        let slot = self
            .tracker
            .alloc(rpu)
            .expect("LB only assigns RPUs with free slots");
        let pkt = match from {
            Some(p) => self.ports[p].rx_fifo.pop(),
            None => self.host_tx.pop(),
        }
        .expect("front checked");
        let meta = SlotMeta {
            packet_id: pkt.id,
            ts_gen: pkt.ts_gen,
            ingress_port: pkt.port,
            orig_len: pkt.len() as u32,
        };
        // The frame's own allocation travels on; only a policy that
        // prepends (the hash LB) pays for one re-framed copy.
        let mut bytes = match self.lb.prepend(&pkt) {
            None => pkt.data,
            Some(head) => [head.as_slice(), pkt.bytes()].concat(),
        };
        let corrupted = self.corrupt_on_link(rpu, &mut bytes);
        self.lb_assigned += 1;
        if let Some(t) = self.tracer.as_mut() {
            t.record(
                now,
                TraceEvent::LbAssign {
                    port: from.map_or(port::HOST, |p| p as u8),
                    rpu: rpu as u8,
                    slot,
                    packet_id: meta.packet_id,
                    len: meta.orig_len,
                },
            );
        }
        self.ingress_delay.push(
            IngressItem {
                rpu,
                slot,
                bytes,
                meta,
                corrupted,
            },
            now,
        );
        true
    }

    /// Applies pending injected link corruption for `rpu`, if any: flips a
    /// few bytes deterministically from the plan's effect RNG.
    fn corrupt_on_link(&mut self, rpu: usize, bytes: &mut [u8]) -> bool {
        let Some(fault) = &mut self.fault else {
            return false;
        };
        if fault.corrupt_pending[rpu] == 0 || bytes.is_empty() {
            return false;
        }
        fault.corrupt_pending[rpu] -= 1;
        let flips = 1 + fault.rng.below(4);
        for _ in 0..flips {
            let i = fault.rng.below(bytes.len() as u64) as usize;
            bytes[i] ^= 1 + fault.rng.below(255) as u8;
        }
        true
    }

    fn route_egress(&mut self, item: EgressItem, now: Cycle) {
        let meta = item.meta.unwrap_or(SlotMeta {
            packet_id: 0,
            ts_gen: now,
            ingress_port: 0,
            orig_len: item.bytes.len() as u32,
        });
        let dest = item.desc.port;
        if (dest as usize) < self.ports.len() {
            let pkt = Packet::new(meta.packet_id, item.bytes, dest, meta.ts_gen);
            self.ports[dest as usize].tx_delay.push(pkt, now);
        } else if dest == port::HOST {
            let pkt = Packet::new(meta.packet_id, item.bytes, dest, meta.ts_gen);
            self.host_rx_delay.push(pkt, now);
        } else if dest >= port::LOOPBACK_BASE
            && ((dest - port::LOOPBACK_BASE) as usize) < self.lanes.len()
        {
            if self.loopback.queue.push(item).is_err() {
                self.loopback.counters.count_drop();
                self.routed_drops += 1;
                self.ledger.dropped += 1;
            }
        } else {
            self.routed_drops += 1;
            self.ledger.dropped += 1;
        }
    }

    fn loopback_delivery(&mut self, now: Cycle) {
        let Some(item) = self.loopback.wire.front() else {
            return;
        };
        if !self.loopback.wire.head_ready(now) {
            return;
        }
        let dst = (item.desc.port - port::LOOPBACK_BASE) as usize;
        // The LB enable mask only gates ingress assignment (a two-step
        // pipeline legitimately loopback-feeds LB-disabled partners); what
        // must hold the wire is the destination *region* being down —
        // draining, mid-reload, or crashed — because a slot allocated into
        // such a region would be wiped by the PR flush.
        if !matches!(self.lanes[dst].rpu.state(), crate::rpu::RpuState::Running) {
            return;
        }
        if self.tracker.free_count(dst) == 0 || self.lanes[dst].rin.is_full() {
            return; // destination backpressure stalls the loopback wire
        }
        let item = self.loopback.wire.pop_ready(now).expect("head ready");
        let slot = self.tracker.alloc(dst).expect("free count checked");
        let meta = item.meta.unwrap_or(SlotMeta {
            packet_id: 0,
            ts_gen: now,
            ingress_port: item.desc.port,
            orig_len: item.bytes.len() as u32,
        });
        let len = item.bytes.len() as u64;
        self.lanes[dst]
            .rin
            .push(
                IngressItem {
                    rpu: dst,
                    slot,
                    bytes: item.bytes,
                    meta: SlotMeta {
                        ingress_port: port::LOOPBACK_BASE + item.src_rpu as u8,
                        ..meta
                    },
                    corrupted: false,
                },
                len,
                now,
            )
            .expect("fullness checked above");
        self.rin_busy.insert(dst);
    }

    fn advance_pr_jobs(&mut self, now: Cycle) {
        let mut i = 0;
        while i < self.pr_jobs.len() {
            match self.pr_jobs[i].phase {
                PrPhase::Draining => {
                    let r = self.pr_jobs[i].rpu;
                    let in_flight = !self.lanes[r].rin.is_empty()
                        || !self.lanes[r].rout.is_empty()
                        || !self.tracker.all_free(r);
                    if self.lanes[r].rpu.is_drained() && !in_flight {
                        let until = now + self.cfg.pr_cycles;
                        self.lanes[r].rpu.begin_reconfigure(until);
                        self.wake_lane(r);
                        self.pr_jobs[i].phase = PrPhase::Writing { until };
                    }
                    i += 1;
                }
                PrPhase::Writing { until } if now >= until => {
                    let job = self.pr_jobs.swap_remove(i);
                    self.finish_reconfigure(job);
                }
                PrPhase::Writing { .. } => {
                    i += 1;
                }
            }
        }
    }

    fn finish_reconfigure(&mut self, job: PrJob) {
        let r = job.rpu;
        if let Some(accel) = job.accel {
            self.lanes[r].rpu.set_accelerator(accel);
        } else if let Some(factory) = &self.accel_factory {
            self.lanes[r].rpu.set_accelerator(factory(r));
        }
        let program = job
            .program
            .or_else(|| self.firmware_factory.as_ref().map(|f| f(r)));
        match program {
            Some(RpuProgram::Riscv(image)) => {
                if !self.vet_firmware(r, &image) {
                    // Denied: the bitstream write completed, but the host
                    // never finishes the boot. The region stays inert in
                    // `Reconfiguring` and its LB enable bit stays clear, so
                    // the supervisor sees a region that never came back
                    // instead of reinstalling a known-bad image.
                    self.tracker.flush(r);
                    return;
                }
                self.lanes[r].rpu.load_riscv(&image);
            }
            Some(RpuProgram::Native(fw)) => self.lanes[r].rpu.load_native(fw),
            None => {}
        }
        self.tracker.flush(r);
        self.wake_lane(r);
        if job.reenable {
            self.enabled |= 1 << r;
        }
    }

    /// Sends a full packet from RPU `src` to RPU `dst` through the loopback
    /// module — a convenience for tests; firmware does this by sending a
    /// descriptor with port `LOOPBACK_BASE + dst`.
    pub fn loopback_port_of(dst: usize) -> u8 {
        port::LOOPBACK_BASE + dst as u8
    }

    /// Packet conservation check: everything injected is either still in
    /// flight, delivered on a port/host, or an accounted drop. Intended for
    /// test assertions.
    pub fn in_flight(&self) -> usize {
        let mac: usize = self
            .ports
            .iter()
            .map(|p| p.rx_mac.len() + p.rx_fifo.len() + p.tx_delay.len() + p.tx_mac.len())
            .sum();
        let links: usize = self.lanes.iter().map(|l| l.rin.len() + l.rout.len()).sum();
        let rpu_slots: usize = (0..self.lanes.len())
            .map(|r| self.cfg.slots_per_rpu - self.tracker.free_count(r))
            .sum();
        // Careful not to double count: slots cover packets queued in rx
        // queues and being processed; rpu_in/rpu_out items also hold slots.
        let overlap: usize = links;
        mac + self.ingress_delay.len()
            + rpu_slots.saturating_sub(overlap)
            + links
            + self.loopback.queue.len()
            + self.loopback.wire.len()
            + self.host_rx_delay.len()
            + self.host_tx.len()
    }

    /// Installs a fault-injection schedule. Events already in the past
    /// (relative to the current cycle) trigger on the next tick.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(FaultState::new(plan, self.lanes.len(), self.ports.len()));
    }

    /// Lands a single fault on the next tick without replacing any
    /// installed plan — the path by which fleet-scope faults (a box-scoped
    /// host outage, say) reach into an individual box mid-run. Creates an
    /// empty fault state (fixed effect seed) when no plan was installed, so
    /// determinism is unaffected by whether a plan exists.
    pub fn inject_fault(&mut self, kind: FaultKind) {
        let (num_rpus, num_ports) = (self.lanes.len(), self.ports.len());
        let fault = self
            .fault
            .get_or_insert_with(|| FaultState::new(FaultPlan::new(0xF1E7), num_rpus, num_ports));
        fault.schedule(FaultEvent {
            at: self.clock.cycle(),
            kind,
        });
    }

    /// `true` once every installed fault has triggered and every fault
    /// window has closed (vacuously true with no plan installed).
    pub fn faults_quiescent(&self) -> bool {
        self.fault
            .as_ref()
            .is_none_or(|f| f.quiescent(self.clock.cycle()))
    }

    /// `true` while the host-DMA/PCIe path is up. The supervisor checks
    /// this before every control action and backs off when the link is down
    /// (a register op over a dead link just times out).
    pub fn host_link_up(&self) -> bool {
        self.fault
            .as_ref()
            .is_none_or(|f| f.host_down_until <= self.clock.cycle())
    }

    /// When the most recent injected firmware fault hit `rpu` (detection-
    /// latency accounting for recovery records).
    pub fn last_fault_at(&self, rpu: usize) -> Option<Cycle> {
        self.fault.as_ref().and_then(|f| f.last_fault_at[rpu])
    }

    /// The packet-conservation ledger.
    pub fn ledger(&self) -> Ledger {
        self.ledger
    }

    /// Frames currently in flight as the conservation ledger counts them:
    /// MAC paths, bound LB slots (covering the ingress pipeline, per-RPU
    /// links, and in-region packets), the loopback module, and the host
    /// paths. Firmware-originated frames still inside a region are not yet
    /// in the universe — they enter at the egress link.
    pub fn ledger_in_flight(&self) -> u64 {
        let mac: usize = self
            .ports
            .iter()
            .map(|p| p.rx_mac.len() + p.rx_fifo.len() + p.tx_delay.len() + p.tx_mac.len())
            .sum();
        let slots: usize = (0..self.lanes.len())
            .map(|r| self.cfg.slots_per_rpu - self.tracker.free_count(r))
            .sum();
        (mac + slots
            + self.host_tx.len()
            + self.host_rx_delay.len()
            + self.loopback.queue.len()
            + self.loopback.wire.len()) as u64
    }

    /// Panics unless `injected + originated == delivered + dropped +
    /// corrupted + purged + in_flight`. Called automatically every
    /// `LEDGER_CHECK_INTERVAL` (1024) cycles.
    pub fn assert_conservation(&self) {
        let in_flight = self.ledger_in_flight();
        assert!(
            self.ledger.balances(in_flight),
            "packet conservation violated at cycle {}: {:?} + {} in flight \
             (entered {} != accounted {} + in-flight {})",
            self.clock.cycle(),
            self.ledger,
            in_flight,
            self.ledger.entered(),
            self.ledger.accounted(),
            in_flight,
        );
    }

    /// Appends a completed recovery record (the supervisor's host-side log).
    pub fn log_recovery(&mut self, event: RecoveryEvent) {
        self.recovery_log.push(event);
    }

    /// Completed recoveries, oldest first.
    pub fn recovery_log(&self) -> &[RecoveryEvent] {
        &self.recovery_log
    }

    /// The slot tracker (test inspection).
    pub fn tracker(&self) -> &SlotTracker {
        &self.tracker
    }

    /// Host DRAM as the RPUs' DMA manager sees it (§4.2).
    pub fn host_dram(&self) -> &[u8] {
        &self.host_dram
    }

    /// Mutable host DRAM (host-side table preparation before DMA reads).
    pub fn host_dram_mut(&mut self) -> &mut [u8] {
        &mut self.host_dram
    }

    /// The active LB policy's name.
    pub fn lb_name(&self) -> &str {
        self.lb.name()
    }

    /// Installs a [`Tracer`], replacing any previous one. When
    /// `cfg.pc_profile` is set, also turns on per-PC cycle attribution for
    /// every RPU's RV32 core.
    pub fn enable_tracing(&mut self, cfg: TraceConfig) {
        if cfg.pc_profile {
            for lane in &mut self.lanes {
                lane.rpu.enable_profiling();
            }
        }
        self.tracer = Some(Tracer::new(cfg, self.lanes.len(), self.ports.len()));
    }

    /// The installed tracer, if tracing is enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Removes and returns the tracer (export, then tracing is off again).
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.tracer.take()
    }

    /// Records a supervisor recovery-ladder step against `rpu`. Called by
    /// [`crate::Supervisor`] at every rung transition; a no-op when tracing
    /// is off.
    pub fn trace_supervisor(&mut self, rpu: usize, step: SupervisorStep) {
        let now = self.clock.cycle();
        if let Some(t) = self.tracer.as_mut() {
            t.record(
                now,
                TraceEvent::Supervisor {
                    rpu: rpu as u8,
                    step,
                },
            );
        }
    }

    /// The per-RPU periodic trace pass: FIFO high-water marks, lifecycle
    /// transitions, LB-mask changes, and counter samples on the configured
    /// interval.
    fn trace_periodic(&mut self, now: Cycle) {
        let Some(mut t) = self.tracer.take() else {
            return;
        };
        for p in 0..self.ports.len() {
            t.note_rx_fifo(now, p, self.ports[p].rx_fifo.bytes());
            t.note_tx_fifo(now, p, self.ports[p].tx_delay.len() as u32);
        }
        for r in 0..self.lanes.len() {
            t.note_state(now, r, rpu_state_name(&self.lanes[r].rpu));
        }
        t.note_mask(now, self.enabled);
        let interval = t.config().counter_interval;
        if interval != 0 && now.is_multiple_of(interval) {
            for r in 0..self.lanes.len() {
                t.record(
                    now,
                    TraceEvent::CounterSample {
                        rpu: r as u8,
                        perf: self.lanes[r].rpu.perf(),
                    },
                );
            }
        }
        self.tracer = Some(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Harness;
    use rosebud_accel::FirewallMatcher;
    use rosebud_net::FixedSizeGen;
    use rosebud_riscv::assemble;

    /// The §6.1 busy-poll forwarder: never parks, so it must never sleep.
    const BUSY_POLL: &str = "
        .equ IO, 0x02000000
            li t0, IO
            li t2, 0x01000000
        poll:
            lw a0, 0x00(t0)
            beqz a0, poll
            lw a1, 0x04(t0)
            lw a2, 0x08(t0)
            sw zero, 0x0c(t0)
            xor a1, a1, t2
            sw a1, 0x10(t0)
            sw a2, 0x14(t0)
            j poll
        ";

    /// The same forwarder parked in `wfi` behind a 700-cycle timer alarm
    /// (`rosebud_apps::forwarder::duty_cycle_forwarder_asm`).
    const DUTY_CYCLE: &str = "
        .equ IO, 0x02000000
            li t0, IO
            li t2, 0x01000000
            li t5, 700
            li t6, 2
            csrw mie, t6
        park:
            sw t5, 0x40(t0)
            wfi
        drain:
            lw a0, 0x00(t0)
            beqz a0, park
            lw a1, 0x04(t0)
            lw a2, 0x08(t0)
            sw zero, 0x0c(t0)
            xor a1, a1, t2
            sw a1, 0x10(t0)
            sw a2, 0x14(t0)
            j drain
        ";

    fn builder(rpus: usize, asm: &str) -> RosebudBuilder {
        let image = assemble(asm).unwrap();
        let mut cfg = RosebudConfig::with_rpus(rpus);
        cfg.pr_cycles = 500;
        Rosebud::builder(cfg).firmware(move |_| RpuProgram::Riscv(image.clone()))
    }

    /// Firmware that parks for good: `wfi` with every interrupt masked.
    const PARKED: &str = "csrw mie, zero\nwfi\nebreak";

    /// The busy-poll forwarder with the egress port fixed to `port`.
    fn send_to(port: u8) -> String {
        format!(
            "
        .equ IO, 0x02000000
            li t0, IO
            li t2, 0x00ffffff
            li t3, {port}
            slli t3, t3, 24
        poll:
            lw a0, 0x00(t0)
            beqz a0, poll
            lw a1, 0x04(t0)
            lw a2, 0x08(t0)
            sw zero, 0x0c(t0)
            and a1, a1, t2
            or a1, a1, t3
            sw a1, 0x10(t0)
            sw a2, 0x14(t0)
            j poll
        "
        )
    }

    /// Puts lane `r` to sleep by hand, as stage 5 would.
    fn force_sleep(sys: &mut Rosebud, r: usize) {
        sys.awake.remove(r);
        sys.quiet[r] = Cycle::MAX;
    }

    fn occupancy(sys: &Rosebud) -> [LaneSet; 5] {
        [
            sys.rin_busy,
            sys.awake,
            sys.tx_ready,
            sys.rout_busy,
            sys.dma_posted,
        ]
    }

    /// Runs `sys` at 5 Gbps for `cycles`, returning how many (lane, cycle)
    /// pairs were asleep going into a tick.
    fn asleep_lane_cycles(sys: Rosebud, cycles: u64) -> u64 {
        let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(256, 2)), 5.0);
        let mut asleep = 0;
        for _ in 0..cycles {
            asleep += (h.sys.lanes.len() - h.sys.awake.count()) as u64;
            h.tick();
        }
        asleep
    }

    /// The elision differential is only worth something if lanes really
    /// sleep where they should and never where they must not.
    #[test]
    fn parked_cores_sleep_and_busy_or_accelerated_lanes_never_do() {
        let duty = builder(16, DUTY_CYCLE).build().unwrap();
        let asleep = asleep_lane_cycles(duty, 20_000);
        assert!(
            asleep > 16 * 20_000 / 2,
            "duty-cycled lanes slept only {asleep} lane-cycles"
        );

        let busy = builder(16, BUSY_POLL).build().unwrap();
        assert_eq!(asleep_lane_cycles(busy, 20_000), 0);

        let accelerated = builder(16, DUTY_CYCLE)
            .accelerator(|_| Box::new(FirewallMatcher::from_prefixes(&[])))
            .build()
            .unwrap();
        assert_eq!(asleep_lane_cycles(accelerated, 20_000), 0);
    }

    /// Every wake source must end a sleep. The cores here busy-poll, so a
    /// lane put to sleep by hand stays asleep until something wakes it and
    /// stays awake afterwards — which makes each wake observable from
    /// outside the tick that performed it.
    #[test]
    fn every_wake_source_ends_a_sleep() {
        let mut sys = builder(4, BUSY_POLL).build().unwrap();
        sys.run(50);

        // Control: with no event, a sleeping lane is never ticked.
        force_sleep(&mut sys, 1);
        sys.run(50);
        assert!(!sys.awake.contains(1));

        // Ingress delivery wakes exactly the lane the LB picked.
        for r in 0..4 {
            force_sleep(&mut sys, r);
        }
        sys.inject(Packet::new(1, vec![0u8; 64], 0, 0)).unwrap();
        sys.run(400);
        assert_eq!(sys.awake.count(), 1);
        assert_eq!(sys.take_output(1).len(), 1, "the woken lane forwarded it");

        // Host poke, and `rpu_mut` — the access the un-elided oracle in
        // `tests/kernel_equivalence.rs` is built from.
        force_sleep(&mut sys, 2);
        sys.poke(2);
        assert!(sys.awake.contains(2));
        force_sleep(&mut sys, 2);
        sys.rpu_mut(2);
        assert!(sys.awake.contains(2));
        force_sleep(&mut sys, 2);
        sys.evict(2);
        assert!(sys.awake.contains(2));
        force_sleep(&mut sys, 2);
        sys.write_debug(2, 7);
        assert!(sys.awake.contains(2));

        // Fault injection lands in stage 0, ahead of the core tick.
        force_sleep(&mut sys, 3);
        force_sleep(&mut sys, 0);
        sys.inject_fault(FaultKind::FirmwareHang { rpu: 3 });
        sys.inject_fault(FaultKind::FirmwareCrash { rpu: 0 });
        let now = sys.now();
        sys.tick_pre(now);
        assert!(sys.awake.contains(3) && sys.awake.contains(0));
        sys.lane_stages(now);
        sys.tick_post(now);

        // PR begin wakes; the region then sleeps through the bitstream
        // write on its own, and PR finish wakes it into the new firmware.
        force_sleep(&mut sys, 1);
        sys.force_reconfigure_rpu(1);
        assert!(sys.awake.contains(1));
        sys.run(100);
        assert!(!sys.awake.contains(1), "mid-PR region must sleep");
        sys.run(500);
        assert!(sys.awake.contains(1));
        assert_eq!(sys.rpus()[1].state(), crate::rpu::RpuState::Running);
        // The graceful eviction's entry points wake too (they raise EVICT).
        force_sleep(&mut sys, 2);
        sys.reconfigure_rpu_gated(2);
        assert!(sys.awake.contains(2));

        // Broadcast interrupt (stage 11): lane 0 broadcasts one word at
        // boot; every other lane, asleep or not, takes the interrupt.
        let bcast = assemble("li t0, 0x04000000\nli a0, 1\nsw a0, 0(t0)\nspin: j spin").unwrap();
        let spin = assemble("spin: j spin").unwrap();
        let mut sys = Rosebud::builder(RosebudConfig::with_rpus(4))
            .firmware(move |r| RpuProgram::Riscv(if r == 0 { bcast.clone() } else { spin.clone() }))
            .build()
            .unwrap();
        force_sleep(&mut sys, 2);
        sys.run(100);
        assert!(sys.awake.contains(2));
    }

    /// A tick costs what is in flight: with nothing in flight every
    /// occupancy word drains to empty and stays there.
    #[test]
    fn a_parked_box_has_every_occupancy_word_empty() {
        let mut sys = builder(16, PARKED).build().unwrap();
        assert_eq!(occupancy(&sys), [LaneSet::all(16); 5]);
        sys.run(100);
        assert_eq!(occupancy(&sys), [LaneSet::default(); 5]);
        sys.run(2_000);
        assert_eq!(occupancy(&sys), [LaneSet::default(); 5]);
    }

    /// `wake_lane` marks the lane in every word, so the integration tests'
    /// `wake_all` oracle (`rpu_mut(r)` for every lane before each tick) is
    /// the full-sweep reference tick for all five stages, not only stage 5.
    #[test]
    fn waking_every_lane_forces_the_full_sweep_of_every_stage() {
        let mut sys = builder(16, PARKED).build().unwrap();
        sys.run(100);
        for r in 0..16 {
            sys.rpu_mut(r);
        }
        assert_eq!(occupancy(&sys), [LaneSet::all(16); 5]);
    }

    /// A forced eviction empties `rin` and `rout` behind the sweeps' backs:
    /// no word may be left wrongly clear, and the stale set bits cost one
    /// visit each.
    #[test]
    fn forced_eviction_leaves_no_stale_occupancy_behind() {
        let sys = builder(4, BUSY_POLL).build().unwrap();
        let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(1500, 2)), 205.0);
        let loaded = |sys: &Rosebud| {
            (0..4).find(|&r| !sys.lanes[r].rin.is_empty() && !sys.lanes[r].rout.is_empty())
        };
        let mut victim = None;
        for _ in 0..5_000 {
            h.tick();
            victim = loaded(&h.sys);
            if victim.is_some() {
                break;
            }
        }
        let r = victim.expect("a lane with frames on both links");
        assert!(h.sys.force_reconfigure_rpu(r) > 0);
        assert!(occupancy(&h.sys).iter().all(|word| word.contains(r)));
        h.sys.tick();
        assert!(
            occupancy(&h.sys).iter().all(|word| !word.contains(r)),
            "a flushed, mid-PR lane occupies nothing after one tick"
        );
        h.run(2_000);
        h.sys.assert_conservation();
    }

    /// The loopback module fills a lane's ingress link from stage 9, outside
    /// stage 3: it must mark the destination or the frame is never delivered.
    #[test]
    fn loopback_push_marks_the_destination_lane() {
        let (first, second) = (
            assemble(&send_to(Rosebud::loopback_port_of(1))).unwrap(),
            assemble(&send_to(1)).unwrap(),
        );
        let mut sys = Rosebud::builder(RosebudConfig::with_rpus(2))
            .firmware(move |r| {
                RpuProgram::Riscv(if r == 0 {
                    first.clone()
                } else {
                    second.clone()
                })
            })
            .build()
            .unwrap();
        sys.disable_rpu(1); // lane 1 is fed by the loopback only
        sys.inject(Packet::new(1, vec![0u8; 64], 0, 0)).unwrap();
        let mut marked = false;
        for _ in 0..400 {
            sys.tick();
            if !sys.lanes[1].rin.is_empty() {
                assert!(sys.rin_busy.contains(1));
                marked = true;
            }
        }
        assert!(marked, "the frame never reached lane 1's ingress link");
        assert_eq!(sys.take_output(1).len(), 1, "lane 1 forwarded it");
    }

    /// A host store into the I/O window commits a send on a core that is
    /// parked and stays parked: only `write_rpu_mem`'s `wake_lane` tells
    /// stage 6 to look. (Byte stores cannot form a packet-memory address,
    /// so the forged send is a zero-length one: the frame the lane was
    /// holding is dropped and its slot returns to the LB.)
    #[test]
    fn host_store_to_the_send_register_on_a_parked_lane_is_sent() {
        use crate::host::MemRegion;
        use crate::types::memmap::{io, IO_BASE, PMEM_BASE};

        let mut sys = builder(2, PARKED).build().unwrap();
        sys.inject(Packet::new(1, vec![0u8; 64], 0, 0)).unwrap();
        sys.run(400);
        let r = (0..2)
            .find(|&r| !sys.tracker.all_free(r))
            .expect("the frame is parked in a slot");
        assert_eq!(occupancy(&sys), [LaneSet::default(); 5]);

        let window = (IO_BASE - PMEM_BASE) as usize;
        sys.write_rpu_mem(
            r,
            MemRegion::Pmem,
            window + io::SEND_DESC_LO as usize,
            &[64],
        );
        sys.write_rpu_mem(
            r,
            MemRegion::Pmem,
            window + io::SEND_DESC_DATA as usize,
            &[0],
        );
        assert!(sys.tx_ready.contains(r));
        sys.run(2);
        assert_eq!(sys.drop_count(), 1, "stage 6 collected the send");
        assert!(sys.tracker.all_free(r));
        assert!(!sys.awake.contains(r), "and the core never left its park");
        sys.assert_conservation();
    }

    /// A posted host-DMA request waits out a PCIe outage in the RPU's
    /// register. The core parks right after posting it, so nothing re-marks
    /// the lane: the bit itself has to survive until link-up.
    #[test]
    fn a_posted_dma_request_survives_a_host_outage() {
        let image = assemble(
            "
            .equ IO, 0x02000000
                li t0, IO
                li t1, 0x01000000
                li a0, 0x600df00d
                sw a0, 0(t1)
                li a1, 0x3000
                sw a1, 0x44(t0)      # DMA_HOST_ADDR
                sw t1, 0x48(t0)      # DMA_LOCAL_ADDR
                li a1, 4
                sw a1, 0x4c(t0)      # DMA_LEN
                li a1, 1
                csrw mie, zero
                sw a1, 0x50(t0)      # DMA_CTRL: write to host
                wfi
                ebreak
            ",
        )
        .unwrap();
        let mut sys = Rosebud::builder(RosebudConfig::with_rpus(2))
            .firmware(move |_| RpuProgram::Riscv(image.clone()))
            .build()
            .unwrap();
        // The link drops after the words `build()` filled have drained and
        // before the firmware reaches its `DMA_CTRL` store.
        sys.run(3);
        assert_eq!(sys.dma_posted, LaneSet::default());
        sys.inject_fault(FaultKind::HostDmaOutage { cycles: 1_000 });
        sys.run(500);
        assert!(!sys.host_link_up());
        assert_eq!(sys.dma_posted, LaneSet::all(2));
        assert_eq!(sys.awake, LaneSet::default());
        assert_eq!(&sys.host_dram()[0x3000..0x3004], &[0; 4]);

        sys.run(500 + sys.config().pcie_rtt_cycles);
        assert_eq!(sys.dma_posted, LaneSet::default());
        assert_eq!(
            &sys.host_dram()[0x3000..0x3004],
            &0x600d_f00d_u32.to_le_bytes()
        );
    }
}
