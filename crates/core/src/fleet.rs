//! Fleet-level topology: N Rosebud boxes behind a consistent-hashing front
//! load balancer, with device-scale fault injection and what the
//! rack-scale recovery ladder senses and does — not what it notes: its steps
//! and failover records stay with the ladder.
//!
//! The paper deploys one VCU1525 per middlebox (§6); a production rack runs
//! many, fronted by an ECMP switch that hashes flows across boxes. This
//! module reproduces that rack: [`Fleet`] steers flows over a
//! [`ConsistentHashRing`](crate::ConsistentHashRing) onto per-box front
//! links with real serialization and propagation delay, and
//! [`FleetSupervisor`](crate::FleetSupervisor) walks each box through the
//! same recovery ladder [`Supervisor`](crate::Supervisor) walks each RPU
//! through, with probes, ring removal and whole-box reloads for rungs.
//!
//! A fleet is a [`Device`] with a host door like a box's:
//! [`Device::apply`] takes the device-scale faults, which land at the top
//! of the next [`Fleet::tick`], and [`HostOp::Box`], which is that box's
//! [`Rosebud::apply`]. No `&mut Rosebud` leaves the fleet, so what a
//! [`Harness`](crate::Harness) does to a rack — a chaos plan included — is an
//! [`EventLog`](crate::EventLog) that [`replay`](crate::ports::replay)
//! reproduces on a fresh one: the same steering decisions, fault timeline,
//! box traces, and conservation ledger.
//!
//! # Examples
//!
//! ```
//! use rosebud_core::{
//!     Desc, Firmware, Fleet, FleetConfig, FleetSupervisor, Rosebud, RosebudConfig, RpuIo,
//!     RpuProgram,
//! };
//!
//! struct Fwd;
//! impl Firmware for Fwd {
//!     fn tick(&mut self, io: &mut RpuIo<'_>) {
//!         if let Some(d) = io.rx_pop() {
//!             io.charge(15);
//!             io.send(Desc { port: d.port ^ 1, ..d });
//!         }
//!     }
//! }
//!
//! let mut fleet = Fleet::new(
//!     FleetConfig { boxes: 2 },
//!     |_| {
//!         Rosebud::builder(RosebudConfig::with_rpus(2))
//!             .firmware(|_| RpuProgram::Native(Box::new(Fwd)))
//!             .build()
//!             .unwrap()
//!     },
//! )
//! .unwrap();
//! let mut sup = FleetSupervisor::new(&fleet);
//! for _ in 0..5_000 {
//!     sup.poll(&mut fleet);
//!     fleet.tick();
//! }
//! assert_eq!(fleet.now(), 5_000);
//! assert!(!sup.recovering(), "a healthy fleet stays off the ladder");
//! fleet.assert_conservation();
//! ```

use rosebud_kernel::{Cycle, IngressPort, LinkPort};
use rosebud_net::{extend_hash, flow_hash, Packet, ShardedFlowTable};

use crate::diag::{BoxHealth, FleetDiagnostics};
use crate::fault::{FaultKind, Ledger};
use crate::host::{HostOp, HostReply};
use crate::lb::ConsistentHashRing;
use crate::ports::Device;
use crate::sim::SimStats;
use crate::system::Rosebud;
use crate::trace::TraceConfig;

/// Topology of a [`Fleet`].
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of Rosebud boxes behind the front LB.
    pub boxes: usize,
}

/// Front-link propagation delay in cycles (switch + cable).
const LINK_LATENCY: Cycle = 64;
/// Front-link serialization rate per box, bytes per cycle (50 B/cycle at
/// 4 ns/cycle is a 100 G cable, matching the testbed's cross-connects).
const LINK_BYTES_PER_CYCLE: u64 = 50;
/// Frames the front link buffers before back-pressuring the tester.
const LINK_CAPACITY: usize = 64;
/// Virtual nodes per box on the consistent-hash ring; more points mean
/// smoother spread and smaller disturbance per failover.
const VNODES: usize = 64;
/// Shards in the front LB's flow table.
const FLOW_SHARDS: usize = 16;

impl Default for FleetConfig {
    fn default() -> Self {
        Self { boxes: 4 }
    }
}

/// One rack slot: a [`Rosebud`] DUT plus its front link and fault state.
struct FleetBox {
    sys: Rosebud,
    /// The front link as a port: serialization stage (switch egress toward
    /// the box), propagation stage, and the RX-refusal retry slot, with
    /// capacity refusals counted instead of silently shed.
    front: LinkPort<Packet>,
    /// Shell frozen by an injected whole-box crash; the box neither ticks
    /// nor accepts frames until reloaded.
    crashed: bool,
    /// Dark during a whole-box PR reload; cleared by the supervisor.
    offline: bool,
    /// Front link down (flap) through this cycle.
    flap_until: Cycle,
    /// Ingress brownout through this cycle: frames are delivered to the box
    /// only every `brownout_factor`-th cycle.
    brownout_until: Cycle,
    brownout_factor: u32,
    /// Ledger rows folded in from incarnations retired by reloads, so
    /// per-box lifetime counters survive the rebuild.
    acc_delivered: u64,
    acc_dropped: u64,
    /// Completed whole-box reloads.
    reloads: u64,
}

/// N Rosebud boxes behind a consistent-hashing ECMP front load balancer.
///
/// Frames enter via [`inject`](Self::inject): the front LB hashes the
/// 5-tuple, extends it to 64 bits, and walks the ring to a live box; the
/// frame then crosses that box's front link (serialization + propagation)
/// before reaching the box's MACs. Delivered frames are collected per box
/// and handed over by [`Device::drain`], lane = box.
///
/// A fleet-wide conservation ledger spans every frame ever steered:
/// injected + originated == delivered + dropped + corrupted + purged +
/// in-flight, asserted every 1024 cycles and on demand via
/// [`assert_conservation`](Self::assert_conservation) — including across
/// whole-box purges and reloads.
pub struct Fleet {
    cfg: FleetConfig,
    factory: Box<dyn Fn(usize) -> Rosebud>,
    boxes: Vec<FleetBox>,
    outputs: Vec<Vec<Packet>>,
    ring: ConsistentHashRing,
    flows: ShardedFlowTable,
    /// `resteer_matrix[prev * boxes + new]`: flows whose steering moved from
    /// box `prev` to box `new`.
    resteer_matrix: Vec<u64>,
    flows_seen: u64,
    flows_resteered: u64,
    /// Round-robin cursor for frames without a 5-tuple.
    rr: u64,
    /// Device-scale faults applied since the last tick.
    faults: Vec<FaultKind>,
    /// Frames the front LB accepted (fleet-scope `Ledger::injected`).
    injected: u64,
    /// Ledger rows folded in from box incarnations retired by reloads.
    ledger_acc: Ledger,
    /// Boxes the ladder returned to the ring: completed failovers.
    readmitted: usize,
    trace_cfg: Option<TraceConfig>,
    archived_traces: Vec<String>,
    now: Cycle,
    ns_per_cycle: f64,
}

impl Fleet {
    /// Builds a fleet of `cfg.boxes` systems, each produced by `factory`
    /// (called with the device index).
    ///
    /// Every box should expose the same port count; the front LB steers the
    /// generator's port rotation unchanged, so a frame addressed to a port a
    /// box lacks is refused at injection.
    pub fn new<F>(cfg: FleetConfig, factory: F) -> Result<Self, String>
    where
        F: Fn(usize) -> Rosebud + 'static,
    {
        if cfg.boxes == 0 {
            return Err("fleet needs at least one box".into());
        }
        let factory: Box<dyn Fn(usize) -> Rosebud> = Box::new(factory);
        let boxes: Vec<FleetBox> = (0..cfg.boxes)
            .map(|b| FleetBox {
                sys: factory(b),
                front: LinkPort::new(LINK_BYTES_PER_CYCLE, LINK_CAPACITY, LINK_LATENCY),
                crashed: false,
                offline: false,
                flap_until: 0,
                brownout_until: 0,
                brownout_factor: 1,
                acc_delivered: 0,
                acc_dropped: 0,
                reloads: 0,
            })
            .collect();
        let ns_per_cycle = boxes[0].sys.config().ns_per_cycle();
        Ok(Self {
            ring: ConsistentHashRing::new(cfg.boxes, VNODES),
            flows: ShardedFlowTable::new(FLOW_SHARDS),
            resteer_matrix: vec![0; cfg.boxes * cfg.boxes],
            flows_seen: 0,
            flows_resteered: 0,
            rr: 0,
            faults: Vec::new(),
            injected: 0,
            ledger_acc: Ledger::default(),
            readmitted: 0,
            trace_cfg: None,
            archived_traces: Vec::new(),
            now: 0,
            ns_per_cycle,
            outputs: vec![Vec::new(); cfg.boxes],
            factory,
            cfg,
            boxes,
        })
    }

    /// Number of boxes in the rack (live or not).
    pub fn num_boxes(&self) -> usize {
        self.boxes.len()
    }

    /// Current fleet cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Nanoseconds per cycle (taken from box 0's clock).
    pub fn ns_per_cycle(&self) -> f64 {
        self.ns_per_cycle
    }

    /// Direct access to one box's system (e.g. for RPU-level inspection).
    pub fn sys(&self, device: usize) -> &Rosebud {
        &self.boxes[device].sys
    }

    /// Box `device`'s system, if it can be managed right now (not crashed,
    /// not dark in a PR reload) — the fleet supervisor drives per-RPU
    /// supervisors on manageable boxes only.
    pub(crate) fn manageable_box(&mut self, device: usize) -> Option<&mut Rosebud> {
        let b = &mut self.boxes[device];
        (!b.crashed && !b.offline).then_some(&mut b.sys)
    }

    /// [`Rosebud::wake_all`] on every box: the un-elided oracle, one level
    /// up.
    pub fn wake_all(&mut self) {
        for b in &mut self.boxes {
            b.sys.wake_all();
        }
    }

    /// Enables event tracing on every box (and on boxes rebuilt later).
    /// Traces of retired incarnations are archived; see
    /// [`archived_traces`](Self::archived_traces).
    pub fn enable_tracing(&mut self, cfg: TraceConfig) {
        self.trace_cfg = Some(cfg);
        for b in &mut self.boxes {
            b.sys.enable_tracing(cfg);
        }
    }

    /// Compact trace texts of box incarnations retired by reloads.
    pub fn archived_traces(&self) -> &[String] {
        &self.archived_traces
    }

    /// Lands one device-scale fault; `apply` refused every other kind and
    /// every box the rack lacks.
    fn land(&mut self, kind: FaultKind) {
        let now = self.now;
        let b = &mut self.boxes[kind.device().expect("a fleet refuses a box's fault")];
        match kind {
            FaultKind::BoxCrash { .. } => b.crashed = true,
            // A dark box's host link is down already.
            FaultKind::BoxHostOutage { cycles, .. } if !b.crashed && !b.offline => {
                b.sys
                    .apply(HostOp::Fault(FaultKind::HostDmaOutage { cycles }))
                    .expect("a fault with no RPU to name is never refused");
            }
            FaultKind::FrontLinkFlap { cycles, .. } => {
                b.flap_until = b.flap_until.max(now + cycles);
            }
            FaultKind::BoxBrownout { cycles, factor, .. } => {
                b.brownout_until = b.brownout_until.max(now + cycles);
                // Last writer wins on the slowdown factor.
                b.brownout_factor = factor.max(1);
            }
            _ => {}
        }
    }

    /// Steers one frame through the front LB onto a box's front link.
    ///
    /// `Err(pkt)` hands the frame back when the chosen box's front link is
    /// full — the ECMP switch back-pressuring the tester. Flow-to-box
    /// ownership is recorded only for accepted frames.
    pub fn inject(&mut self, pkt: Packet) -> Result<(), Packet> {
        let key = flow_hash(&pkt).map(extend_hash);
        let device = match key {
            Some(k) => self.ring.node_for(k),
            None => {
                // No 5-tuple: round-robin over live boxes so control frames
                // don't all pile onto one device.
                let live = self.ring.live_count().max(1) as u64;
                let mut pick = self.rr % live;
                self.rr = self.rr.wrapping_add(1);
                let mut device = 0;
                for (b, _) in self.boxes.iter().enumerate() {
                    if self.ring.is_live(b) {
                        if pick == 0 {
                            device = b;
                            break;
                        }
                        pick -= 1;
                    }
                }
                device
            }
        };
        let wire = pkt.wire_len();
        match self.boxes[device].front.push(pkt, wire, self.now) {
            Ok(()) => {
                self.injected += 1;
                if let Some(k) = key {
                    match self.flows.insert(k, device as u16) {
                        None => self.flows_seen += 1,
                        Some(prev) if prev as usize != device => {
                            self.flows_resteered += 1;
                            self.resteer_matrix[prev as usize * self.cfg.boxes + device] += 1;
                        }
                        Some(_) => {}
                    }
                }
                Ok(())
            }
            Err(pkt) => Err(pkt),
        }
    }

    /// Advances the whole rack one cycle: the faults applied since the last
    /// tick land, every front link moves, every live box ticks, and the
    /// fleet ledger is spot-checked.
    pub fn tick(&mut self) {
        for kind in std::mem::take(&mut self.faults) {
            self.land(kind);
        }
        let now = self.now;
        for b in 0..self.boxes.len() {
            self.tick_box(b, now);
        }
        if now.is_multiple_of(1024) {
            self.assert_conservation();
        }
        self.now += 1;
    }

    fn tick_box(&mut self, device: usize, now: Cycle) {
        let bx = &mut self.boxes[device];
        let flapped = bx.flap_until > now;
        let browned = bx.brownout_until > now;
        let gate = u64::from(bx.brownout_factor.max(1));
        // Ingress gating: a flapped link delivers nothing; a browned-out box
        // accepts frames only every `factor`-th cycle.
        let deliver =
            !bx.crashed && !bx.offline && !flapped && (!browned || now.is_multiple_of(gate));
        if deliver {
            // Not `pump`: that polls at the box's own `now()`, which restarts
            // at 0 on reload, while the front link runs on fleet time.
            while let Some(pkt) = bx.front.poll(now) {
                match bx.sys.inject(pkt) {
                    Ok(()) => {}
                    Err(p) => {
                        bx.front.give_back(p);
                        break;
                    }
                }
            }
        }
        if !flapped {
            // Frames finishing serialization enter the propagation stage; a
            // flapped (dark) link skips the advance and goes nowhere.
            bx.front.advance(now);
        }
        if !bx.crashed && !bx.offline {
            bx.sys.tick();
            // Delivered frames wait here, not in the box, so a reload that
            // replaces `bx.sys` cannot lose them.
            let out = &mut self.outputs[device];
            bx.sys.drain(&mut |_, pkt| out.push(pkt));
        }
    }

    /// Runs `cycles` cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.tick();
        }
    }

    /// Whether box `device` and its front link hold no frames — the drain
    /// ladder's completion test. A crashed box never quiesces (its in-flight
    /// frames are frozen until the reload purges them).
    pub(crate) fn box_quiesced(&self, device: usize) -> bool {
        let b = &self.boxes[device];
        b.front.is_empty() && !b.crashed && b.sys.ledger_in_flight() == 0
    }

    /// Frames queued on box `device`'s front link (serializer + wire + the
    /// retry slot) — the port-layer backlog signal.
    pub fn front_queue(&self, device: usize) -> u64 {
        self.boxes[device].front.backlog() as u64
    }

    /// Frames the front LB tried to push onto box `device`'s link and were
    /// refused for capacity — the port-layer backpressure counter. Every
    /// refusal was handed back to the caller of [`inject`](Self::inject),
    /// never dropped, which is what keeps the fleet conservation ledger
    /// balanced under saturation.
    pub fn front_refused(&self, device: usize) -> u64 {
        self.boxes[device].front.refused()
    }

    /// The health-probe model: round-trip cycles for a probe to box
    /// `device`, or `None` if the box is unreachable (crashed, dark in a
    /// reload, or its front link is flapped). A brownout inflates the RTT by
    /// its slowdown factor, so a browned-out box looks slow, not dead.
    pub(crate) fn probe_rtt(&self, device: usize) -> Option<Cycle> {
        let b = &self.boxes[device];
        if b.crashed || b.offline || b.flap_until > self.now {
            return None;
        }
        let mut rtt = 2 * LINK_LATENCY + 16;
        if b.brownout_until > self.now {
            rtt *= Cycle::from(b.brownout_factor.max(1));
        }
        Some(rtt)
    }

    /// Takes box `device` out of the steering ring (drain). The last live
    /// box is never removed — with nowhere to re-steer, traffic keeps
    /// aiming at it and back-pressures the tester instead.
    pub(crate) fn ring_remove(&mut self, device: usize) {
        if self.ring.is_live(device) && self.ring.live_count() > 1 {
            self.ring.remove(device);
        }
    }

    /// Returns box `device`'s ring points to rotation.
    pub(crate) fn ring_restore(&mut self, device: usize) {
        self.ring.restore(device);
        self.readmitted += 1;
    }

    /// Purges box `device`'s front link and in-flight frames into the fleet
    /// ledger, archives its trace, and rebuilds it from the factory. The box
    /// comes back dark ([`manageable_box`](Self::manageable_box) is `None`)
    /// until [`finish_reload`](Self::finish_reload). Returns the number of
    /// frames purged.
    pub(crate) fn begin_reload(&mut self, device: usize) -> u64 {
        let bx = &mut self.boxes[device];
        let mut purged = bx.front.flush() as u64;
        purged += bx.sys.ledger_in_flight();
        // Fold the retiring incarnation's ledger into the fleet accumulator
        // so lifetime conservation spans the reload.
        let l = bx.sys.ledger();
        self.ledger_acc.originated += l.originated;
        self.ledger_acc.delivered += l.delivered;
        self.ledger_acc.dropped += l.dropped;
        self.ledger_acc.corrupted += l.corrupted;
        self.ledger_acc.purged += l.purged + purged;
        bx.acc_delivered += l.delivered;
        bx.acc_dropped += l.dropped;
        if self.trace_cfg.is_some() {
            if let Some(t) = bx.sys.take_tracer() {
                self.archived_traces.push(format!(
                    "=== box {device} incarnation {} ===\n{}",
                    bx.reloads,
                    t.compact_text()
                ));
            }
        }
        let mut sys = (self.factory)(device);
        if let Some(tc) = self.trace_cfg {
            sys.enable_tracing(tc);
        }
        let bx = &mut self.boxes[device];
        bx.sys = sys;
        bx.crashed = false;
        bx.offline = true;
        bx.reloads += 1;
        purged
    }

    /// Brings a reloaded box out of the dark: it starts ticking (firmware
    /// boots) but stays out of rotation until the supervisor re-admits it.
    pub(crate) fn finish_reload(&mut self, device: usize) {
        self.boxes[device].offline = false;
    }

    /// Distinct flows the front LB has steered.
    pub fn flows_seen(&self) -> u64 {
        self.flows_seen
    }

    /// Flows whose steering changed box at least once.
    pub fn flows_resteered(&self) -> u64 {
        self.flows_resteered
    }

    /// Flows re-steered from box `prev` to box `new`.
    pub fn resteered_between(&self, prev: usize, new: usize) -> u64 {
        self.resteer_matrix[prev * self.cfg.boxes + new]
    }

    /// The fleet-wide conservation ledger: every frame ever steered by the
    /// front LB, summed across live box ledgers, retired incarnations, and
    /// whole-box purges. `injected` counts front-LB acceptances (box-level
    /// injections are interior hops, not entries).
    pub fn ledger(&self) -> Ledger {
        let mut l = self.ledger_acc;
        l.injected = self.injected;
        for b in &self.boxes {
            let bl = b.sys.ledger();
            l.originated += bl.originated;
            l.delivered += bl.delivered;
            l.dropped += bl.dropped;
            l.corrupted += bl.corrupted;
            l.purged += bl.purged;
        }
        l
    }

    /// Frames in flight fleet-wide: front links plus inside every box.
    pub fn ledger_in_flight(&self) -> u64 {
        let mut in_flight = 0;
        for (b, _) in self.boxes.iter().enumerate() {
            in_flight += self.front_queue(b) + self.boxes[b].sys.ledger_in_flight();
        }
        in_flight
    }

    /// Panics unless the fleet ledger balances:
    /// `injected + originated == delivered + dropped + corrupted + purged +
    /// in-flight`, across every box, front link, purge, and reload.
    pub fn assert_conservation(&self) {
        let l = self.ledger();
        let in_flight = self.ledger_in_flight();
        assert!(
            l.balances(in_flight),
            "fleet ledger out of balance at cycle {}: {:?} in_flight={}",
            self.now,
            l,
            in_flight,
        );
    }

    /// Every box's [`SimStats`] summed: cycles and lane-cycles count box
    /// by box.
    pub fn sim_stats(&self) -> SimStats {
        let mut stats = SimStats::default();
        for b in &self.boxes {
            stats += b.sys.sim_stats();
        }
        stats
    }

    /// A point-in-time fleet health snapshot.
    pub fn diagnostics(&self) -> FleetDiagnostics {
        let boxes = self
            .boxes
            .iter()
            .enumerate()
            .map(|(d, b)| {
                let l = b.sys.ledger();
                BoxHealth {
                    device: d,
                    in_rotation: self.ring.is_live(d),
                    crashed: b.crashed,
                    delivered: b.acc_delivered + l.delivered,
                    dropped: b.acc_dropped + l.dropped,
                    in_flight: b.sys.ledger_in_flight(),
                    front_queue: self.front_queue(d),
                    reloads: b.reloads,
                }
            })
            .collect();
        FleetDiagnostics {
            boxes,
            ledger: self.ledger(),
            in_flight: self.ledger_in_flight(),
            flows_seen: self.flows_seen,
            flows_resteered: self.flows_resteered,
            failovers: self.readmitted,
        }
    }
}

/// Lane `b` is box `b`: everything it delivered, physical ports and host
/// alike.
impl Device for Fleet {
    fn now(&self) -> Cycle {
        Fleet::now(self)
    }

    fn ns_per_cycle(&self) -> f64 {
        Fleet::ns_per_cycle(self)
    }

    fn inject(&mut self, pkt: Packet) -> Result<(), Packet> {
        Fleet::inject(self, pkt)
    }

    /// A device-scale fault lands at the top of the next [`Fleet::tick`];
    /// [`HostOp::Box`] is that box's [`Rosebud::apply`]. Refused: a box the
    /// rack lacks, and every other op — a box's own go inside `Box`.
    fn apply(&mut self, op: HostOp) -> Result<HostReply, String> {
        let boxes = self.boxes.len();
        let in_rack = |device: usize| {
            if device < boxes {
                Ok(device)
            } else {
                Err(format!("no box {device}: the fleet has {boxes}"))
            }
        };
        match op {
            HostOp::Box { device, op } => self.boxes[in_rack(device)?].sys.apply(*op),
            HostOp::Fault(kind) => {
                let device = kind.device().ok_or_else(|| {
                    format!("{kind:?} is a box's fault: address it with `HostOp::Box`")
                })?;
                in_rack(device)?;
                self.faults.push(kind);
                Ok(HostReply::Done)
            }
            op => Err(format!(
                "a fleet takes device-scale faults and `box.` ops, not `{}`",
                op.name()
            )),
        }
    }

    fn tick(&mut self) {
        Fleet::tick(self);
    }

    fn drain(&mut self, sink: &mut dyn FnMut(usize, Packet)) {
        for (b, out) in self.outputs.iter_mut().enumerate() {
            for pkt in out.drain(..) {
                sink(b, pkt);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rosebud_net::{FixedSizeGen, TrafficGen};

    use crate::harness::Harness;
    use crate::rpu::RpuIo;
    use crate::supervisor::FleetSupervisor;
    use crate::system::RpuProgram;
    use crate::types::Desc;
    use crate::{Firmware, RosebudConfig};

    struct PacedForwarder;
    impl Firmware for PacedForwarder {
        fn tick(&mut self, io: &mut RpuIo<'_>) {
            if let Some(desc) = io.rx_pop() {
                io.charge(15);
                io.send(Desc {
                    port: desc.port ^ 1,
                    ..desc
                });
            }
        }
    }

    /// Lands a device-scale fault on the next tick.
    fn fault_now(fleet: &mut Fleet, kind: FaultKind) {
        fleet.apply(HostOp::Fault(kind)).unwrap();
    }

    fn forwarder_box() -> Rosebud {
        Rosebud::builder(RosebudConfig::with_rpus(2))
            .firmware(|_| RpuProgram::Native(Box::new(PacedForwarder)))
            .build()
            .unwrap()
    }

    fn forwarder_fleet(boxes: usize) -> Fleet {
        Fleet::new(FleetConfig { boxes }, |_| forwarder_box()).unwrap()
    }

    /// What [`Device`] promises a tester, whatever is behind it: offers
    /// `frames` in one cycle (more than the ingress can hold), then runs the
    /// device dry.
    fn device_contract<D: Device>(mut dev: D, ledger: impl Fn(&D) -> Ledger, frames: Vec<Packet>) {
        let start = ledger(&dev);
        let mut accepted = Vec::new();
        let mut refused = 0;
        for pkt in frames {
            let (offered, before, now) = (pkt.clone(), ledger(&dev), dev.now());
            match dev.inject(pkt) {
                Ok(()) => accepted.push(offered.id),
                Err(back) => {
                    assert_eq!(back, offered, "a refusal hands the same frame back");
                    assert_eq!((ledger(&dev), dev.now()), (before, now));
                    refused += 1;
                }
            }
        }
        assert!(!accepted.is_empty() && refused > 0, "offer past capacity");

        let mut drained = Vec::new();
        for _ in 0..5_000 {
            dev.tick();
            dev.drain(&mut |_, pkt| drained.push(pkt.id));
            dev.drain(&mut |_, pkt| panic!("frame {} drained twice", pkt.id));
        }
        drained.sort_unstable();
        assert_eq!(drained, accepted, "each delivered frame exactly once");
        let delivered = ledger(&dev).delivered - start.delivered;
        assert_eq!(drained.len() as u64, delivered);
    }

    #[test]
    fn device_contract_holds_for_a_box_and_a_rack() {
        let mut gen = FixedSizeGen::new(256, 2);
        let frames = |gen: &mut FixedSizeGen| (0..256).map(|id| gen.generate(id, 0)).collect();
        device_contract(forwarder_box(), Rosebud::ledger, frames(&mut gen));
        device_contract(forwarder_fleet(2), Fleet::ledger, frames(&mut gen));
    }

    #[test]
    fn fleet_forwards_and_conserves() {
        let fleet = forwarder_fleet(2);
        let mut h = Harness::fleet(fleet, Box::new(FixedSizeGen::new(256, 2)), 40.0);
        h.run(20_000);
        assert!(h.received() > 1_000, "received {}", h.received());
        h.sys.assert_conservation();
        assert!(h.sys.flows_seen() > 0);
    }

    #[test]
    fn front_link_saturation_backpressures_instead_of_dropping() {
        // Offer 400 Gbps to two boxes behind 100 G front links: capacity
        // refusals must surface through the port-layer counter AND hand
        // every refused frame back to the harness — nothing silently shed,
        // so the ledger still balances.
        let fleet = forwarder_fleet(2);
        let mut h = Harness::fleet(fleet, Box::new(FixedSizeGen::new(256, 2)), 400.0);
        h.run(10_000);
        let refused: u64 = (0..2).map(|b| h.sys.front_refused(b)).sum();
        assert!(refused > 0, "saturated links must report refusals");
        // Refused frames were handed back, not lost: conservation holds
        // over everything actually accepted.
        h.sys.assert_conservation();
        assert!(h.received() > 0);
    }

    #[test]
    fn crash_purge_reload_keeps_ledger_balanced() {
        let fleet = forwarder_fleet(2);
        let mut h = Harness::fleet(fleet, Box::new(FixedSizeGen::new(256, 2)), 40.0);
        let mut sup = FleetSupervisor::new(&h.sys);
        h.run(5_000);
        fault_now(&mut h.sys, FaultKind::BoxCrash { device: 1 });
        for _ in 0..60_000 {
            sup.poll(&mut h.sys);
            h.tick();
        }
        assert_eq!(sup.failovers().len(), 1, "log:\n{}", sup.log_text());
        let rec = sup.failovers()[0];
        assert_eq!(rec.device, 1);
        assert!(!rec.graceful, "a crash can never drain cleanly");
        assert!(rec.packets_purged > 0);
        assert!(h.sys.diagnostics().boxes[1].reloads >= 1);
        assert!(!sup.recovering());
        h.sys.assert_conservation();
    }

    #[test]
    fn flap_and_brownout_recover_without_losing_frames() {
        let fleet = forwarder_fleet(2);
        let mut h = Harness::fleet(fleet, Box::new(FixedSizeGen::new(256, 2)), 30.0);
        let mut sup = FleetSupervisor::new(&h.sys);
        h.run(2_000);
        fault_now(
            &mut h.sys,
            FaultKind::FrontLinkFlap {
                device: 0,
                cycles: 6_000,
            },
        );
        fault_now(
            &mut h.sys,
            FaultKind::BoxBrownout {
                device: 1,
                cycles: 6_000,
                factor: 4,
            },
        );
        for _ in 0..80_000 {
            sup.poll(&mut h.sys);
            h.tick();
        }
        assert!(!sup.recovering(), "log:\n{}", sup.log_text());
        h.sys.assert_conservation();
        assert!(h.received() > 1_000);
    }

    #[test]
    fn probe_model_reflects_box_state() {
        let mut fleet = forwarder_fleet(2);
        assert!(fleet.probe_rtt(0).is_some());
        fault_now(&mut fleet, FaultKind::BoxCrash { device: 0 });
        fleet.tick();
        assert!(fleet.probe_rtt(0).is_none());
        assert!(fleet.probe_rtt(1).is_some());
        fault_now(
            &mut fleet,
            FaultKind::BoxBrownout {
                device: 1,
                cycles: 100,
                factor: 4,
            },
        );
        fleet.tick();
        // 4 × (2·64 + 16) = 576: slow, not dead.
        assert_eq!(fleet.probe_rtt(1), Some(576));
    }

    #[test]
    fn last_live_box_is_never_removed() {
        let mut fleet = forwarder_fleet(2);
        fleet.ring_remove(0);
        assert_eq!(fleet.ring.live_count(), 1);
        fleet.ring_remove(1);
        assert!(fleet.ring.is_live(1), "last live box must stay in rotation");
    }
}
