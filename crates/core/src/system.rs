//! The top-level Rosebud system: the blocks of Fig. 2 — MACs, load
//! balancer and distribution, RPU lanes, loopback, broadcast, host bridge,
//! PR controller — each a unit in its own file, advanced one 250 MHz cycle
//! at a time by [`Rosebud::tick`].

use rosebud_accel::Accelerator;
use rosebud_kernel::{Clock, Counters, Cycle};
use rosebud_riscv::Image;

use crate::config::RosebudConfig;
use crate::dist::Distributor;
use crate::fabric::{BcastArbiter, Loopback};
use crate::fault::{FaultKind, FaultState, Ledger};
use crate::host::HostBridge;
use crate::lanes::Lanes;
use crate::lb::LoadBalancer;
use crate::mac::Mac;
use crate::pr::Reconfig;
use crate::rpu::{Firmware, Rpu, RpuState};
use crate::sim::{Laps, Profiler, SimCounts, SimStats, StageClock, Unprofiled};
use crate::trace::{TraceConfig, TraceEvent, Tracer};
use crate::verify::LoadPolicy;

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
pub(crate) type FirmwareFactory = Box<dyn Fn(usize) -> RpuProgram + Send>;
/// Factory producing one accelerator instance per RPU.
pub(crate) type AccelFactory = Box<dyn Fn(usize) -> Box<dyn Accelerator> + Send>;

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
/// assert_eq!(sys.rpus().len(), 4);
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
        let lb = self
            .lb
            .unwrap_or_else(|| Box::new(crate::lb::RoundRobinLb::new()));
        let mut lanes = Lanes::new(&cfg);
        let mut pr = Reconfig::new(firmware, self.accel, self.load_policy);
        pr.boot(&cfg, &mut lanes)?;
        Ok(Rosebud {
            clock: Clock::default(),
            mac: Mac::new(&cfg),
            dist: Distributor::new(&cfg, lb),
            lanes,
            loopback: Loopback::new(&cfg),
            bcast: BcastArbiter::new(&cfg),
            host: HostBridge::new(),
            pr,
            fx: Fx {
                ledger: Ledger::default(),
                tracer: None,
                routed_drops: 0,
                fault: None,
            },
            cfg,
            quiet_until: 0,
            sim: SimCounts::default(),
        })
    }
}

/// What every stage may record into or be perturbed by, handed `&mut` to
/// each stage that needs it: the conservation ledger, the tracer, the drop
/// counter, and the injected-fault state.
pub(crate) struct Fx {
    /// Packet-conservation accounting.
    pub(crate) ledger: Ledger,
    /// The cycle-stamped event recorder, when tracing is enabled (§4.3).
    pub(crate) tracer: Option<Tracer>,
    /// Packets dropped by firmware (zero-length sends) plus routing errors.
    pub(crate) routed_drops: u64,
    /// What injected faults have armed, from the first one on. Boxed: it is
    /// cold, and inline it grew `Rosebud` enough to cost `duty256_light`
    /// ~4 % in simulated cycles per second.
    pub(crate) fault: Option<Box<FaultState>>,
}

impl Fx {
    /// Records `event` when tracing is on.
    #[inline]
    pub(crate) fn trace(&mut self, now: Cycle, event: TraceEvent) {
        if let Some(t) = self.tracer.as_mut() {
            t.record(now, event);
        }
    }

    /// `true` while no injected outage holds the host-DMA/PCIe path down.
    pub(crate) fn host_link_up(&self, now: Cycle) -> bool {
        self.fault.as_ref().is_none_or(|f| f.host_down_until <= now)
    }

    /// Whether the next non-empty frame on `rpu`'s ingress link arrives
    /// corrupted: one of the `count` an injected `CorruptIngress` owes it.
    /// Stage 4 quarantines it before DMA, so which bytes went bad is never
    /// read and not modelled.
    pub(crate) fn corrupts(&mut self, rpu: usize) -> bool {
        let Some(fault) = &mut self.fault else {
            return false;
        };
        let pending = &mut fault.corrupt_pending[rpu];
        if *pending == 0 {
            return false;
        }
        *pending -= 1;
        true
    }

    /// The first cycle from `next` on at which the end-of-tick scans or
    /// stage 0 could record or land anything: `next` while a fault waits in
    /// the inbox, the tracer's next counter sample. Its `note_*` scans
    /// record a change, and nothing changes while no unit has work due.
    pub(crate) fn horizon(&self, next: Cycle) -> Cycle {
        if self.fault.as_ref().is_some_and(|f| !f.inbox.is_empty()) {
            return next;
        }
        match self.tracer.as_ref().map(|t| t.config().counter_interval) {
            Some(interval) if interval != 0 => next.next_multiple_of(interval),
            _ => Cycle::MAX,
        }
    }
}

/// The simulated Rosebud system (Fig. 2): everything inside the DUT FPGA.
/// Each block owns its state behind private fields and exposes one method
/// per tick stage it drives; [`Rosebud::tick`] is the only place that knows
/// the order.
pub struct Rosebud {
    pub(crate) cfg: RosebudConfig,
    pub(crate) clock: Clock,
    pub(crate) mac: Mac,
    pub(crate) dist: Distributor,
    pub(crate) lanes: Lanes,
    loopback: Loopback,
    pub(crate) bcast: BcastArbiter,
    pub(crate) host: HostBridge,
    pub(crate) pr: Reconfig,
    pub(crate) fx: Fx,
    /// Set by a full tick that leaves every lane idle: the first cycle at
    /// which any unit could have work (the minimum of their horizons).
    /// Below it, while the lanes stay idle, a tick is a quiet one. Reset by
    /// `inject`, `apply` and `enable_tracing`; every other door into the
    /// box reaches a lane and so ends the lanes' idleness itself.
    pub(crate) quiet_until: Cycle,
    /// The simulator's own counters and stage profiler ([`SimStats`]).
    sim: SimCounts,
}

/// The trace-facing name of an RPU's lifecycle state.
fn rpu_state_name(rpu: &Rpu) -> &'static str {
    match rpu.state() {
        RpuState::Running => "running",
        RpuState::Draining => "draining",
        RpuState::Reconfiguring { .. } => "reconfiguring",
        RpuState::Stopped => {
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
            .field("rpus", &self.rpus().len())
            .field("cycle", &self.clock.cycle())
            .field("lb", &self.lb_name())
            .finish()
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

    /// The configuration.
    pub fn config(&self) -> &RosebudConfig {
        &self.cfg
    }

    /// Current cycle.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.clock.cycle()
    }

    /// The RPUs (host-side inspection).
    pub fn rpus(&self) -> &[Rpu] {
        self.lanes.rpus()
    }

    /// Wakes every lane, so the next tick ticks every core and sweeps every
    /// lane's link, send queue and DMA register whether or not anything is
    /// there. Semantically invisible — elision skips only what provably has
    /// nothing to do — so calling it before every tick is the un-elided
    /// oracle the elision differentials (`tests/kernel_equivalence.rs`)
    /// compare the shipped tick against.
    pub fn wake_all(&mut self) {
        for r in 0..self.cfg.num_rpus {
            self.lanes.wake(r);
        }
    }

    /// Counters of RPU `r` (§4.3).
    pub fn rpu_counters(&self, r: usize) -> Counters {
        self.rpus()[r].inner().counters()
    }

    /// Packets dropped by firmware (zero-length sends) plus routing errors.
    pub fn drop_count(&self) -> u64 {
        self.fx.routed_drops
    }

    /// Runs `cycles` clock cycles, the quiet ones in closed form.
    pub fn run(&mut self, cycles: u64) {
        let end = self.now() + cycles;
        while self.now() < end {
            self.tick();
            self.skip_to(end);
        }
    }

    /// Advances the whole system by one clock cycle: thirteen stages, each
    /// finishing before the next begins, then the periodic scans. A stage is
    /// one method of the unit that owns its state; the units it reads or
    /// feeds are passed in. Every per-lane stage sweeps its occupancy word
    /// in ascending lane order and applies shared effects inline — one
    /// thread, one order. Each stage method is `#[inline(always)]`, so the
    /// tick still compiles to one body (and the profiled tick to another);
    /// as thirteen cross-module calls an idle 16-RPU box costs 60 ns a
    /// cycle instead of 40.
    ///
    /// A tick below `quiet_until` with every lane idle is a quiet one: no
    /// stage has anything to do, so it runs the one-cycle `skip` that
    /// [`Device::skip_quiet`](crate::Device::skip_quiet) runs for many.
    pub fn tick(&mut self) {
        let now = self.clock.cycle();
        if now < self.quiet_until && self.lanes.idle() {
            self.sim.quiet_ticks += 1;
            self.skip(1);
            return;
        }
        if self.sim.profiler.is_none() {
            self.full_tick(now, &mut Unprofiled);
        } else {
            self.profiled_tick(now);
        }
    }

    /// A full tick under the stage profile. Out of line: an unprofiled run
    /// pays one branch for it.
    #[inline(never)]
    fn profiled_tick(&mut self, now: Cycle) {
        if let Some(mut profiler) = self.sim.profiler.take() {
            self.full_tick(now, &mut *profiler);
            self.sim.profiler = Some(profiler);
        }
    }

    /// The thirteen stages and the tail, with `laps` told where each one
    /// ends.
    #[inline(always)]
    fn full_tick(&mut self, now: Cycle, laps: &mut impl Laps) {
        laps.start();
        let Self {
            cfg,
            mac,
            dist,
            lanes,
            loopback,
            bcast,
            host,
            pr,
            fx,
            ..
        } = self;

        // 0. Faults applied since the last tick land.
        land_faults(now, fx, lanes);
        laps.lap(0);
        // 1. Wire-side receive: MAC serializer → MAC FIFO.
        mac.receive(now);
        laps.lap(1);
        // 2. LB: one admission per port slot, then the host interface.
        dist.admit(now, mac, host, lanes, fx);
        laps.lap(2);
        // 3. Fixed ingress pipeline → per-RPU links.
        dist.feed_links(now, lanes);
        laps.lap(3);
        // 4. Per-RPU link → DMA into packet memory + descriptor delivery.
        lanes.deliver(now, dist.slots_mut(), fx);
        laps.lap(4);
        // 5. RPUs: core + accelerator.
        lanes.run_cores(now);
        laps.lap(5);
        // 6. Committed sends → per-RPU egress links.
        lanes.collect_sends(now, dist.slots_mut(), fx);
        laps.lap(6);
        // 7. Egress links → egress switch; slot freed.
        lanes.route(now, dist.slots_mut(), mac, host, loopback, fx);
        laps.lap(7);
        // 8. Physical-port egress pipelines → wire.
        mac.transmit(now, fx);
        laps.lap(8);
        // 9. Loopback module (§4.4).
        loopback.tick(now, dist.slots_mut(), lanes);
        laps.lap(9);
        // 10. Host PCIe delivery and the host-DRAM access manager.
        host.tick(now, lanes, fx);
        laps.lap(10);
        // 11. Broadcast arbiter.
        bcast.tick(now, lanes);
        laps.lap(11);
        // 12. Partial-reconfiguration jobs.
        pr.tick(now, cfg, lanes, dist);
        laps.lap(12);

        // Periodic trace scans: FIFO high-water marks, lifecycle
        // transitions, enable-mask changes, counter samples. Zero work when
        // tracing is off.
        if let Some(t) = fx.tracer.as_mut() {
            trace_periodic(t, now, mac, lanes.rpus(), dist.enabled_mask());
        }

        // Packet conservation is a standing invariant, not a test-only one:
        // losing track of frames during fault recovery must fail loudly.
        if now.is_multiple_of(LEDGER_CHECK_INTERVAL) {
            self.assert_conservation();
        }

        if cfg!(debug_assertions) {
            self.lanes.assert_occupancy(now);
        }

        // Only a box whose lanes are all idle asks its units when they next
        // have work; a busy one pays this compare and nothing more.
        if self.lanes.idle() {
            self.quiet_until = self.horizon(now + 1);
        }
        self.clock.tick();
        laps.lap(13);
    }

    /// The first cycle from `next` on at which any unit could have work:
    /// the minimum of their horizons.
    fn horizon(&self, next: Cycle) -> Cycle {
        let units = [
            self.mac.horizon(next),
            self.dist.horizon(next),
            self.loopback.horizon(next),
            self.host.horizon(next),
            self.bcast.horizon(next),
            self.pr.horizon(next),
            self.fx.horizon(next),
        ];
        units.into_iter().fold(self.lanes.horizon(next), Cycle::min)
    }

    /// `k` quiet ticks from now in one step: what a tick changes when no
    /// unit has work due and every lane is idle — the clock, the broadcast
    /// arbiter's grant pointer, the clock parked cores read, and the
    /// standing checks whose cycles fall in the stretch.
    fn skip(&mut self, k: Cycle) {
        let now = self.clock.cycle();
        let last = now + k - 1;
        self.bcast.skip(k, self.cfg.num_rpus);
        self.lanes.skip_through(last);
        // Nothing moved, so one check stands for every one in the stretch.
        if now.next_multiple_of(LEDGER_CHECK_INTERVAL) <= last {
            self.assert_conservation();
        }
        if cfg!(debug_assertions) {
            self.lanes.assert_occupancy(last);
        }
        self.clock.advance(k);
    }

    /// Takes the quiet ticks from now up to, not including, cycle `to` in
    /// one `skip`; stops short where a unit could have work.
    #[inline]
    pub(crate) fn skip_to(&mut self, to: Cycle) {
        let now = self.clock.cycle();
        let end = to.min(self.quiet_until);
        if now < end && self.lanes.idle() {
            self.sim.jumped_cycles += end - now;
            self.skip(end - now);
        }
    }

    /// What the simulator did to run this box: its elision layers'
    /// counters and, while one is on, the stage profile. Host-side only —
    /// no part of the device, and no part of a replay.
    pub fn sim_stats(&self) -> SimStats {
        let mut stats = self.lanes.sim_stats();
        stats.cycles = self.now();
        stats.lane_cycles = self.now() * self.cfg.num_rpus as u64;
        stats.quiet_ticks = self.sim.quiet_ticks;
        stats.jumped_cycles = self.sim.jumped_cycles;
        stats.profile = (self.sim.profiler.as_ref())
            .map(|p| p.profile((stats.stepped_instrs, stats.io_accesses)));
        stats
    }

    /// Starts the stage profile afresh, timing every full tick's stages
    /// with `clock` from the next tick on; `None` stops it. Off, it costs a
    /// tick one branch.
    pub fn profile_stages(&mut self, clock: Option<StageClock>) {
        let now = self.lanes.sim_stats();
        let base = (now.stepped_instrs, now.io_accesses);
        self.sim.profiler = clock.map(|clock| Box::new(Profiler::new(clock, base)));
    }

    /// `true` while the host-DMA/PCIe path is up. The supervisor checks
    /// this before every control action and backs off when the link is down
    /// (a register op over a dead link just times out).
    pub fn host_link_up(&self) -> bool {
        self.fx.host_link_up(self.clock.cycle())
    }

    /// The packet-conservation ledger.
    pub fn ledger(&self) -> Ledger {
        self.fx.ledger
    }

    /// Frames currently in flight as the conservation ledger counts them:
    /// MAC paths, bound LB slots (covering the ingress pipeline, per-RPU
    /// links, and in-region packets), the host paths, and the loopback
    /// module. Firmware-originated frames still inside a region are not yet
    /// in the universe — they enter at the egress link.
    pub fn ledger_in_flight(&self) -> u64 {
        (self.mac.in_flight()
            + self.dist.bound_slots()
            + self.host.in_flight()
            + self.loopback.in_flight()) as u64
    }

    /// Panics unless `injected + originated == delivered + dropped +
    /// corrupted + purged + in_flight`. Called automatically every
    /// `LEDGER_CHECK_INTERVAL` (1024) cycles.
    pub fn assert_conservation(&self) {
        let (ledger, in_flight) = (self.fx.ledger, self.ledger_in_flight());
        assert!(
            ledger.balances(in_flight),
            "packet conservation violated at cycle {}: {ledger} in_flight={in_flight}",
            self.clock.cycle(),
        );
    }

    /// Installs a [`Tracer`], replacing any previous one. When
    /// `cfg.pc_profile` is set, also turns on per-PC cycle attribution for
    /// every RPU's RV32 core.
    pub fn enable_tracing(&mut self, cfg: TraceConfig) {
        let num_rpus = self.cfg.num_rpus;
        if cfg.pc_profile {
            for r in 0..num_rpus {
                self.lanes.rpu_mut(r).enable_profiling();
            }
        }
        self.fx.tracer = Some(Tracer::new(cfg, num_rpus, self.mac.num_ports()));
        // The new tracer scans and samples from the next tick on.
        self.quiet_until = 0;
    }

    /// The installed tracer, if tracing is enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.fx.tracer.as_ref()
    }

    /// Removes and returns the tracer (export, then tracing is off again).
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.fx.tracer.take()
    }
}

/// Stage 0: lands every fault applied since the last tick, in the order
/// they were applied. `Rosebud::apply` refused the ones that cannot land.
#[inline(always)]
pub(crate) fn land_faults(now: Cycle, fx: &mut Fx, lanes: &mut Lanes) {
    if let Some(fault) = &mut fx.fault {
        land(now, fault, lanes);
    }
}

/// Stage 0's body, out of line: a run without faults never gets here, and
/// its tick should not carry the code.
#[inline(never)]
fn land(now: Cycle, fault: &mut FaultState, lanes: &mut Lanes) {
    for kind in fault.inbox.drain(..) {
        match kind {
            FaultKind::FirmwareHang { rpu } => lanes.rpu_mut(rpu).force_hang(),
            FaultKind::FirmwareCrash { rpu } => lanes.rpu_mut(rpu).force_crash(),
            FaultKind::CorruptIngress { rpu, count } => {
                fault.corrupt_pending[rpu] += count;
            }
            FaultKind::RxFifoOverflow { port, cycles } => {
                let until = &mut fault.rx_drop_until[port];
                *until = (*until).max(now + cycles);
            }
            FaultKind::HostDmaOutage { cycles } => {
                fault.host_down_until = fault.host_down_until.max(now + cycles);
            }
            FaultKind::BoxCrash { .. }
            | FaultKind::BoxHostOutage { .. }
            | FaultKind::FrontLinkFlap { .. }
            | FaultKind::BoxBrownout { .. } => unreachable!("a box refuses a fleet's fault"),
        }
    }
}

/// The periodic trace pass: FIFO high-water marks, lifecycle transitions,
/// LB-mask changes, and counter samples on the configured interval.
fn trace_periodic(t: &mut Tracer, now: Cycle, mac: &Mac, rpus: &[Rpu], enabled: u64) {
    for p in 0..mac.num_ports() {
        t.note_rx_fifo(now, p, mac.rx_fifo_bytes(p));
        t.note_tx_fifo(now, p, mac.tx_pipeline_len(p) as u32);
    }
    for (r, rpu) in rpus.iter().enumerate() {
        t.note_state(now, r, rpu_state_name(rpu));
    }
    t.note_mask(now, enabled);
    let interval = t.config().counter_interval;
    if interval != 0 && now.is_multiple_of(interval) {
        for (r, rpu) in rpus.iter().enumerate() {
            let (rpu, perf) = (r as u8, rpu.perf());
            t.record(now, TraceEvent::CounterSample { rpu, perf });
        }
    }
}
