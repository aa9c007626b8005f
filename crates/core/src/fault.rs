//! Deterministic fault injection (§3.4 hang detection, Appendix A.8).
//!
//! Nothing in the paper's operational story can be trusted until the
//! failures it defends against can be *caused on demand*: a [`FaultPlan`] is
//! a schedule of seeded fault events — firmware hangs, firmware crashes,
//! ingress-link packet corruption, MAC RX FIFO overflow bursts, transient
//! host-DMA/PCIe outages — that the system applies at exact cycles during
//! [`crate::Rosebud::tick`]. The same plan and seed reproduce the same
//! cycle-exact failure (and, with the supervisor, recovery) trace.

use rosebud_kernel::{Cycle, SimRng};

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
    /// The next `count` packets crossing an RPU's ingress link arrive with
    /// flipped bytes; the link-level FCS check quarantines them before DMA.
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
    /// applied by [`crate::Fleet`]; a single-box system ignores it.
    BoxCrash {
        /// The fleet device that dies.
        device: usize,
    },
    /// A device-scoped host-link outage: the box keeps forwarding but its
    /// PCIe/DMA management path is down, so the per-box supervisor backs
    /// off. Device-scale; ignored by single-box systems.
    BoxHostOutage {
        /// The affected fleet device.
        device: usize,
        /// Window length in cycles.
        cycles: Cycle,
    },
    /// The front load-balancer link to one box flaps: nothing crosses the
    /// link for the window, nothing is lost (frames wait in the link
    /// queues). Device-scale; ignored by single-box systems.
    FrontLinkFlap {
        /// The affected fleet device.
        device: usize,
        /// Window length in cycles.
        cycles: Cycle,
    },
    /// A slow-box brownout: the front link delivers into the box only every
    /// `factor`-th cycle and health-probe round trips inflate by the same
    /// factor. Device-scale; ignored by single-box systems.
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
    /// `true` for the device-scale faults a [`crate::Fleet`] applies itself
    /// (a single box has no notion of the device they target).
    pub fn is_device_scale(&self) -> bool {
        matches!(
            self,
            FaultKind::BoxCrash { .. }
                | FaultKind::BoxHostOutage { .. }
                | FaultKind::FrontLinkFlap { .. }
                | FaultKind::BoxBrownout { .. }
        )
    }
}

/// A fault scheduled at an absolute cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle at which the fault triggers.
    pub at: Cycle,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of fault events plus the seed used for any
/// randomness inside their effects (corruption byte flips).
///
/// # Examples
///
/// ```
/// use rosebud_core::{FaultKind, FaultPlan};
/// let plan = FaultPlan::new(42)
///     .at(10_000, FaultKind::FirmwareHang { rpu: 3 })
///     .at(25_000, FaultKind::HostDmaOutage { cycles: 2_000 });
/// assert_eq!(plan.events().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    seed: u64,
}

impl FaultPlan {
    /// An empty plan with an effect seed.
    pub fn new(seed: u64) -> Self {
        Self {
            events: Vec::new(),
            seed,
        }
    }

    /// Adds an event (builder style). Events may be added in any order;
    /// the plan sorts by cycle on installation.
    #[must_use]
    pub fn at(mut self, cycle: Cycle, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at: cycle, kind });
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
        let mut plan = Self::new(seed);
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
        let mut plan = Self::new(seed);
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

    /// The scheduled events (unsorted, as built).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The effect seed.
    pub fn seed(&self) -> u64 {
        self.seed
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
    /// Left-hand side: everything that ever entered the system.
    pub fn entered(&self) -> u64 {
        self.injected + self.originated
    }

    /// Right-hand side less in-flight: everything accounted for.
    pub fn accounted(&self) -> u64 {
        self.delivered + self.dropped + self.corrupted + self.purged
    }

    /// `true` when `entered == accounted + in_flight`.
    pub fn balances(&self, in_flight: u64) -> bool {
        self.entered() == self.accounted() + in_flight
    }
}

/// Live injection state the system carries once a plan is installed.
#[derive(Debug)]
pub(crate) struct FaultState {
    /// Remaining events, sorted by cycle (ascending), consumed from the
    /// front.
    pending: Vec<FaultEvent>,
    /// RNG for corruption byte flips.
    pub rng: SimRng,
    /// Packets still to corrupt on each RPU's ingress link.
    pub corrupt_pending: Vec<u32>,
    /// Per-port cycle until which the RX FIFO sheds arriving frames.
    pub rx_drop_until: Vec<Cycle>,
    /// Cycle until which the host-DMA/PCIe path is down.
    pub host_down_until: Cycle,
    /// Last injected firmware fault per RPU (for detection-latency
    /// accounting in recovery records).
    pub last_fault_at: Vec<Option<Cycle>>,
}

impl FaultState {
    pub fn new(plan: FaultPlan, num_rpus: usize, num_ports: usize) -> Self {
        let mut pending = plan.events;
        // Stable order: by cycle, ties in insertion order (sort is stable).
        pending.sort_by_key(|e| e.at);
        Self {
            pending,
            rng: SimRng::seed_from(plan.seed ^ 0xC0DE_FA17),
            corrupt_pending: vec![0; num_rpus],
            rx_drop_until: vec![0; num_ports],
            host_down_until: 0,
            last_fault_at: vec![None; num_rpus],
        }
    }

    /// Pops every event due at or before `now`.
    pub fn due(&mut self, now: Cycle) -> Vec<FaultEvent> {
        let split = self.pending.partition_point(|e| e.at <= now);
        self.pending.drain(..split).collect()
    }

    /// Inserts an event into the pending queue, keeping it sorted by cycle
    /// with ties behind already-queued events (matching the stable sort of
    /// plan installation). How [`HostOp::Fault`](crate::HostOp::Fault) lands a
    /// fault mid-run without replacing the installed plan.
    pub fn schedule(&mut self, ev: FaultEvent) {
        let idx = self.pending.partition_point(|e| e.at <= ev.at);
        self.pending.insert(idx, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_are_reproducible() {
        let a = FaultPlan::random(7, 100_000, 8, 2, 12);
        let b = FaultPlan::random(7, 100_000, 8, 2, 12);
        assert_eq!(a.events(), b.events());
        let c = FaultPlan::random(8, 100_000, 8, 2, 12);
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn due_consumes_in_cycle_order() {
        let plan = FaultPlan::new(0)
            .at(50, FaultKind::FirmwareHang { rpu: 1 })
            .at(10, FaultKind::FirmwareCrash { rpu: 0 });
        let mut state = FaultState::new(plan, 4, 2);
        assert!(state.due(9).is_empty());
        let first = state.due(10);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].kind, FaultKind::FirmwareCrash { rpu: 0 });
        assert_eq!(state.due(100).len(), 1);
        assert!(state.pending.is_empty());
    }

    #[test]
    fn random_fleet_plans_are_reproducible_and_device_scale() {
        let a = FaultPlan::random_fleet(11, 50_000, 4, 9);
        let b = FaultPlan::random_fleet(11, 50_000, 4, 9);
        assert_eq!(a.events(), b.events());
        assert!(a.events().iter().all(|e| e.kind.is_device_scale()));
        assert!(!FaultKind::FirmwareHang { rpu: 0 }.is_device_scale());
    }

    #[test]
    fn schedule_keeps_cycle_order() {
        let plan = FaultPlan::new(0).at(50, FaultKind::FirmwareHang { rpu: 1 });
        let mut state = FaultState::new(plan, 4, 2);
        state.schedule(FaultEvent {
            at: 10,
            kind: FaultKind::BoxCrash { device: 0 },
        });
        let first = state.due(20);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].kind, FaultKind::BoxCrash { device: 0 });
    }
}
