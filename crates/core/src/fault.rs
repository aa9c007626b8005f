//! Deterministic fault injection (§3.4 hang detection, Appendix A.8).
//!
//! Nothing in the paper's operational story can be trusted until the
//! failures it defends against can be *caused on demand*. A fault is a host
//! operation, [`HostOp::Fault`], and goes through the one door every host
//! operation does — [`Device::apply`](crate::Device::apply) — so a chaos run
//! is an [`EventLog`](crate::EventLog) like any live session, recorded and
//! replayed the same way. A [`FaultPlan`] is nothing but those ops stamped with
//! cycles — firmware hangs and crashes, ingress-link corruption, MAC RX FIFO
//! overflow bursts, host-DMA/PCIe outages, and the device-scale kinds a
//! [`Fleet`](crate::Fleet) takes — and [`Harness::faults`](crate::Harness::faults)
//! applies each at its cycle.
//!
//! An applied fault lands where it always has: in a box, in stage 0 of the
//! next [`Rosebud::tick`](crate::Rosebud::tick); in a fleet, at the top of
//! the next [`Fleet::tick`](crate::Fleet::tick). Each scale keeps only a
//! this-cycle inbox, drained whole. Nothing about a fault is random: a
//! corrupted frame is quarantined whole, so the same plan reproduces the
//! same cycle-exact failure trace. Nor is a landing noted: a host reads when
//! a fault hit off the plan (see [`Supervisor`](crate::Supervisor)).

use std::fmt;

use rosebud_kernel::{Cycle, SimRng};

use crate::host::HostOp;

/// One kind of injected failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Firmware enters an infinite loop: the core stops making forward
    /// progress but the region is otherwise alive (the §3.4 hang the
    /// watchdog timer exists to catch).
    FirmwareHang {
        /// The RPU whose firmware wedges.
        rpu: usize,
    },
    /// Firmware traps to halt (ebreak/illegal instruction): the core stops
    /// and the halt flag becomes host-visible.
    FirmwareCrash {
        /// The RPU whose firmware dies.
        rpu: usize,
    },
    /// The next `count` non-empty frames crossing an RPU's ingress link
    /// arrive corrupted; the link-level FCS check quarantines them before
    /// DMA.
    CorruptIngress {
        /// The RPU whose ingress link glitches.
        rpu: usize,
        /// How many consecutive packets are corrupted.
        count: u32,
    },
    /// A MAC receive FIFO sheds every arriving frame for a window — the
    /// overflow burst of a stalled distribution stage.
    RxFifoOverflow {
        /// The physical port whose RX path sheds.
        port: usize,
        /// Window length in cycles.
        cycles: Cycle,
    },
    /// The host-DMA/PCIe path goes down for a window: host register
    /// operations fail and RPU-initiated DMA completions stall (they finish
    /// once the link returns; nothing is lost).
    HostDmaOutage {
        /// Window length in cycles.
        cycles: Cycle,
    },
    /// An entire box loses power or wedges at the shell level: every core,
    /// MAC, and host path of the device freezes at once. Device-scale —
    /// applied by [`crate::Fleet`]; a single box refuses it, as it does the
    /// three below.
    BoxCrash {
        /// The fleet device that dies.
        device: usize,
    },
    /// A device-scoped host-link outage: the box keeps forwarding but its
    /// PCIe/DMA management path is down, so the per-box supervisor backs
    /// off. Device-scale.
    BoxHostOutage {
        /// The affected fleet device.
        device: usize,
        /// Window length in cycles.
        cycles: Cycle,
    },
    /// The front load-balancer link to one box flaps: nothing crosses the
    /// link for the window, nothing is lost (frames wait in the link
    /// queues). Device-scale.
    FrontLinkFlap {
        /// The affected fleet device.
        device: usize,
        /// Window length in cycles.
        cycles: Cycle,
    },
    /// A slow-box brownout: the front link delivers into the box only every
    /// `factor`-th cycle and health-probe round trips inflate by the same
    /// factor. Device-scale.
    BoxBrownout {
        /// The affected fleet device.
        device: usize,
        /// Window length in cycles.
        cycles: Cycle,
        /// Slowdown factor (≥ 1; 1 is a no-op).
        factor: u32,
    },
}

impl FaultKind {
    /// The fleet device a device-scale fault names; `None` for the kinds a
    /// box takes itself.
    pub(crate) fn device(&self) -> Option<usize> {
        match *self {
            FaultKind::BoxCrash { device }
            | FaultKind::BoxHostOutage { device, .. }
            | FaultKind::FrontLinkFlap { device, .. }
            | FaultKind::BoxBrownout { device, .. } => Some(device),
            _ => None,
        }
    }
}

/// A deterministic fault schedule: host operations, each stamped with the
/// cycle it is applied at, in cycle order with ties in insertion order — an
/// [`EventLog`](crate::EventLog)'s ops without its frames. A
/// [`Harness`](crate::Harness) built with
/// [`faults`](crate::Harness::faults) applies each through
/// [`Device::apply`](crate::Device::apply) at its cycle, so the same plan
/// reproduces the same cycle-exact failure (and recovery) trace.
///
/// # Examples
///
/// ```
/// use rosebud_core::{FaultKind, FaultPlan, HostOp};
/// let plan = FaultPlan::new()
///     .at(25_000, FaultKind::HostDmaOutage { cycles: 2_000 })
///     .at(10_000, FaultKind::FirmwareHang { rpu: 3 });
/// assert_eq!(plan.ops()[0], (10_000, HostOp::Fault(FaultKind::FirmwareHang { rpu: 3 })));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    ops: Vec<(Cycle, HostOp)>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an op — a [`FaultKind`], or any [`HostOp`] such as one box's
    /// fault in a fleet ([`HostOp::Box`]) — behind every op already stamped
    /// at or before `cycle` (builder style).
    #[must_use]
    pub fn at(mut self, cycle: Cycle, op: impl Into<HostOp>) -> Self {
        let i = self.ops.partition_point(|(at, _)| *at <= cycle);
        self.ops.insert(i, (cycle, op.into()));
        self
    }

    /// Generates a random plan of `events` faults over `[0, horizon)`
    /// against a system of `num_rpus` RPUs and `num_ports` ports — the
    /// chaos-testing entry point. Fully determined by `seed`.
    pub fn random(
        seed: u64,
        horizon: Cycle,
        num_rpus: usize,
        num_ports: usize,
        events: usize,
    ) -> Self {
        let mut rng = SimRng::seed_from(seed ^ 0xFA17_7E57);
        let mut plan = Self::new();
        for _ in 0..events {
            let at = rng.below(horizon.max(1));
            let rpu = rng.below(num_rpus.max(1) as u64) as usize;
            let kind = match rng.below(5) {
                0 => FaultKind::FirmwareHang { rpu },
                1 => FaultKind::FirmwareCrash { rpu },
                2 => FaultKind::CorruptIngress {
                    rpu,
                    count: 1 + rng.below(8) as u32,
                },
                3 => FaultKind::RxFifoOverflow {
                    port: rng.below(num_ports.max(1) as u64) as usize,
                    cycles: 100 + rng.below(2_000),
                },
                _ => FaultKind::HostDmaOutage {
                    cycles: 100 + rng.below(3_000),
                },
            };
            plan = plan.at(at, kind);
        }
        plan
    }

    /// Generates a random device-scale plan of `events` faults over
    /// `[0, horizon)` against a fleet of `num_boxes` devices — whole-box
    /// crashes, box-scoped host outages, front-link flaps, and slow-box
    /// brownouts. Fully determined by `seed`.
    pub fn random_fleet(seed: u64, horizon: Cycle, num_boxes: usize, events: usize) -> Self {
        let mut rng = SimRng::seed_from(seed ^ 0xB0F7_FA17);
        let mut plan = Self::new();
        for _ in 0..events {
            let at = rng.below(horizon.max(1));
            let device = rng.below(num_boxes.max(1) as u64) as usize;
            let kind = match rng.below(4) {
                0 => FaultKind::BoxCrash { device },
                1 => FaultKind::BoxHostOutage {
                    device,
                    cycles: 500 + rng.below(8_000),
                },
                2 => FaultKind::FrontLinkFlap {
                    device,
                    cycles: 100 + rng.below(3_000),
                },
                _ => FaultKind::BoxBrownout {
                    device,
                    cycles: 500 + rng.below(6_000),
                    factor: 2 + rng.below(6) as u32,
                },
            };
            plan = plan.at(at, kind);
        }
        plan
    }

    /// The ops with their cycles, in the order they are applied.
    pub fn ops(&self) -> &[(Cycle, HostOp)] {
        &self.ops
    }
}

/// The packet-conservation ledger: every frame the system ever accepted is
/// accounted as exactly one of delivered, dropped, quarantined, purged, or
/// still in flight. [`crate::Rosebud`] asserts the balance periodically, so
/// a fault-recovery path that loses or double-counts packets fails loudly
/// instead of silently skewing throughput numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Frames accepted from the wire or the host's virtual interface.
    pub injected: u64,
    /// Frames the firmware originated itself (`SELF_TAG` sends entering the
    /// egress fabric).
    pub originated: u64,
    /// Frames delivered on a physical port or to the host over PCIe.
    pub delivered: u64,
    /// Frames dropped with an accounted reason (firmware zero-length sends,
    /// routing errors, queue overflow, injected RX-FIFO sheds).
    pub dropped: u64,
    /// Frames quarantined by the link FCS check after injected corruption.
    pub corrupted: u64,
    /// Frames destroyed by forced eviction of a wedged RPU.
    pub purged: u64,
}

impl Ledger {
    /// `true` when everything that entered is accounted for or in flight.
    pub(crate) fn balances(&self, in_flight: u64) -> bool {
        let accounted = self.delivered + self.dropped + self.corrupted + self.purged;
        self.injected + self.originated == accounted + in_flight
    }
}

/// The ledger's one printed form; a caller that knows the in-flight count
/// appends ` in_flight=N`.
impl fmt::Display for Ledger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected={} originated={} delivered={} dropped={} corrupted={} purged={}",
            self.injected,
            self.originated,
            self.delivered,
            self.dropped,
            self.corrupted,
            self.purged
        )
    }
}

/// What a box's injected faults have armed, created by the first
/// [`HostOp::Fault`] it takes — until then `Fx::fault` is `None`, and
/// `inject` and stage 0 cost one check.
#[derive(Debug)]
pub(crate) struct FaultState {
    /// Faults applied since the last tick; stage 0 lands them all.
    pub(crate) inbox: Vec<FaultKind>,
    /// Frames still to quarantine on each RPU's ingress link.
    pub(crate) corrupt_pending: Vec<u32>,
    /// Per-port cycle until which the RX FIFO sheds arriving frames.
    pub(crate) rx_drop_until: Vec<Cycle>,
    /// Cycle until which the host-DMA/PCIe path is down.
    pub(crate) host_down_until: Cycle,
}

impl FaultState {
    pub(crate) fn new(num_rpus: usize, num_ports: usize) -> Self {
        Self {
            inbox: Vec::new(),
            corrupt_pending: vec![0; num_rpus],
            rx_drop_until: vec![0; num_ports],
            host_down_until: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_are_reproducible() {
        let a = FaultPlan::random(7, 100_000, 8, 2, 12);
        let b = FaultPlan::random(7, 100_000, 8, 2, 12);
        assert_eq!(a, b);
        let c = FaultPlan::random(8, 100_000, 8, 2, 12);
        assert_ne!(a, c);
    }

    /// `ops()` is the order a harness applies them in: by cycle, and a tie
    /// in the order the ops were added.
    #[test]
    fn ops_are_in_cycle_order_ties_in_insertion_order() {
        let plan = FaultPlan::new()
            .at(50, FaultKind::FirmwareHang { rpu: 1 })
            .at(10, FaultKind::FirmwareCrash { rpu: 0 })
            .at(50, FaultKind::BoxCrash { device: 0 })
            .at(10, FaultKind::HostDmaOutage { cycles: 5 });
        let order: Vec<(Cycle, HostOp)> = [
            (10, FaultKind::FirmwareCrash { rpu: 0 }),
            (10, FaultKind::HostDmaOutage { cycles: 5 }),
            (50, FaultKind::FirmwareHang { rpu: 1 }),
            (50, FaultKind::BoxCrash { device: 0 }),
        ]
        .into_iter()
        .map(|(at, kind)| (at, HostOp::Fault(kind)))
        .collect();
        assert_eq!(plan.ops(), order);
    }

    #[test]
    fn random_fleet_plans_are_reproducible_and_device_scale() {
        let a = FaultPlan::random_fleet(11, 50_000, 4, 9);
        let b = FaultPlan::random_fleet(11, 50_000, 4, 9);
        assert_eq!(a, b);
        let device_scale = |op: &HostOp| matches!(op, HostOp::Fault(k) if k.device().is_some());
        assert!(a.ops().iter().all(|(_, op)| device_scale(op)));
        assert_eq!(FaultKind::FirmwareHang { rpu: 0 }.device(), None);
    }
}
