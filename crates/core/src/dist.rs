//! The ingress half of the packet distribution subsystem (§4.2): the load
//! balancer with its slot accounting and enable mask, and the fixed pipeline
//! that carries an assigned frame to its RPU's link.

use rosebud_kernel::{Cycle, DelayLine};
use rosebud_net::Packet;

use crate::config::RosebudConfig;
use crate::fabric::IngressItem;
use crate::host::{lb_regs, HostBridge};
use crate::lanes::Lanes;
use crate::lb::{LoadBalancer, SlotTracker};
use crate::mac::Mac;
use crate::system::{Fx, Rosebud};
use crate::trace::TraceEvent;
use crate::types::{port, SlotMeta};

/// Fixed ingress pipeline latency in cycles: LB decision, cluster-switch
/// hops, die-crossing registers, DMA setup. Calibrated so the minimum
/// forwarding RTT matches the paper's 0.765 µs (Eq. 1).
const INGRESS_FIXED_CYCLES: u64 = 88;

pub(crate) struct Distributor {
    lb: Box<dyn LoadBalancer>,
    tracker: SlotTracker,
    /// LB enable bit per RPU.
    enabled: u64,
    /// Fixed ingress pipeline: LB decision → the RPU's link.
    pipeline: DelayLine<IngressItem>,
    assigned: u64,
    stall_cycles: u64,
}

impl Distributor {
    pub(crate) fn new(cfg: &RosebudConfig, lb: Box<dyn LoadBalancer>) -> Self {
        Self {
            lb,
            tracker: SlotTracker::new(cfg.num_rpus, cfg.slots_per_rpu),
            enabled: if cfg.num_rpus >= 64 {
                u64::MAX
            } else {
                (1u64 << cfg.num_rpus) - 1
            },
            pipeline: DelayLine::new(INGRESS_FIXED_CYCLES),
            assigned: 0,
            stall_cycles: 0,
        }
    }

    /// Stage 2: the distribution subsystem grants each incoming port a slot
    /// every other cycle — the "125 MPPS per incoming port" limit the paper
    /// reports (§6.1) — then serves the host's (low-rate) virtual interface.
    #[inline(always)]
    pub(crate) fn admit(
        &mut self,
        now: Cycle,
        mac: &mut Mac,
        host: &mut HostBridge,
        lanes: &Lanes,
        fx: &mut Fx,
    ) {
        let nports = mac.num_ports();
        let p = (now as usize) % nports.max(2);
        if p < nports {
            if let Some(front) = mac.rx_head(p) {
                match self.place(front, lanes) {
                    Some((rpu, slot)) => {
                        let pkt = mac.rx_pop(p).expect("front checked");
                        self.dispatch(pkt, p as u8, rpu, slot, now, fx);
                    }
                    None => self.stall_cycles += 1,
                }
            }
        }
        if let Some(front) = host.tx_head() {
            if let Some((rpu, slot)) = self.place(front, lanes) {
                let pkt = host.tx_pop().expect("front checked");
                self.dispatch(pkt, port::HOST, rpu, slot, now, fx);
            }
        }
    }

    /// Asks the LB for an RPU for the head-of-line frame `front` and binds a
    /// slot there; `None` when the frame cannot be placed this cycle.
    fn place(&mut self, front: &Packet, lanes: &Lanes) -> Option<(usize, u8)> {
        let rpu = self.lb.assign(front, &self.tracker, self.enabled)?;
        if lanes.rin_full(rpu) {
            return None;
        }
        let slot = self
            .tracker
            .alloc(rpu)
            .expect("LB only assigns RPUs with free slots");
        Some((rpu, slot))
    }

    /// Sends an admitted frame from source `from` down the ingress pipeline
    /// towards `(rpu, slot)`.
    fn dispatch(&mut self, pkt: Packet, from: u8, rpu: usize, slot: u8, now: Cycle, fx: &mut Fx) {
        let meta = SlotMeta {
            packet_id: pkt.id,
            ts_gen: pkt.ts_gen,
            ingress_port: pkt.port,
            orig_len: pkt.len() as u32,
        };
        // The frame's own allocation travels on; only a policy that
        // prepends (the hash LB) pays for one re-framed copy.
        let bytes = match self.lb.prepend(&pkt) {
            None => pkt.data,
            Some(head) => [head.as_slice(), pkt.bytes()].concat(),
        };
        let corrupted = !bytes.is_empty() && fx.corrupts(rpu);
        self.assigned += 1;
        fx.trace(
            now,
            TraceEvent::LbAssign {
                port: from,
                rpu: rpu as u8,
                slot,
                packet_id: meta.packet_id,
                len: meta.orig_len,
            },
        );
        let item = IngressItem {
            rpu,
            slot,
            bytes,
            meta,
            corrupted,
        };
        self.pipeline.push(item, now);
    }

    /// Stage 3: fixed ingress pipeline → per-RPU 32 Gbps links.
    #[inline(always)]
    pub(crate) fn feed_links(&mut self, now: Cycle, lanes: &mut Lanes) {
        while let Some(item) = self.pipeline.peek_ready(now) {
            if lanes.rin_full(item.rpu) {
                break;
            }
            let item = self.pipeline.pop_ready(now).expect("peeked ready");
            lanes.push_rin(item, now);
        }
    }

    /// The first cycle from `next` on at which stage 3 could move a frame.
    /// Stage 2 admits only what the MAC or the host interface holds, so
    /// their horizons cover it.
    pub(crate) fn horizon(&self, next: Cycle) -> Cycle {
        self.pipeline
            .head_at()
            .map_or(Cycle::MAX, |at| at.max(next))
    }

    /// The RPU enable mask.
    pub(crate) fn enabled_mask(&self) -> u64 {
        self.enabled
    }

    pub(crate) fn enable_rpu(&mut self, rpu: usize) {
        self.enabled |= 1 << rpu;
    }

    pub(crate) fn disable_rpu(&mut self, rpu: usize) {
        self.enabled &= !(1 << rpu);
    }

    /// A word written to the LB's host register channel.
    pub(crate) fn host_write(&mut self, addr: u32, value: u32) {
        match addr {
            lb_regs::ENABLE_LO => {
                self.enabled = (self.enabled & !0xffff_ffff) | u64::from(value);
            }
            lb_regs::ENABLE_HI => {
                self.enabled = (self.enabled & 0xffff_ffff) | (u64::from(value) << 32);
            }
            lb_regs::FLUSH_RPU => {
                let r = value as usize;
                if r < self.tracker.num_rpus() {
                    self.tracker.flush(r);
                }
            }
            other => self.lb.host_write(other, value),
        }
    }

    /// The slot tracker.
    pub(crate) fn slots(&self) -> &SlotTracker {
        &self.tracker
    }

    /// The slot tracker, for the stages that free or bind slots.
    pub(crate) fn slots_mut(&mut self) -> &mut SlotTracker {
        &mut self.tracker
    }

    /// Slots bound to a frame, over all RPUs: everything between the LB's
    /// decision and the egress link's last byte.
    pub(crate) fn bound_slots(&self) -> usize {
        (0..self.tracker.num_rpus())
            .map(|r| self.tracker.bound_count(r))
            .sum()
    }

    /// Forced eviction: forgets every frame bound for `rpu` — its slots and
    /// whatever the ingress pipeline still carries there. Returns the number
    /// of slot-bound frames destroyed.
    pub(crate) fn purge_for(&mut self, rpu: usize) -> u64 {
        let purged = self.tracker.bound_count(rpu) as u64;
        self.pipeline.retain(|item| item.rpu != rpu);
        self.tracker.flush(rpu);
        purged
    }
}

impl Rosebud {
    /// Reads a word from the LB's host register channel.
    pub fn lb_host_read(&mut self, addr: u32) -> u32 {
        match addr {
            lb_regs::ENABLE_LO => self.dist.enabled as u32,
            lb_regs::ENABLE_HI => (self.dist.enabled >> 32) as u32,
            a if a >= lb_regs::SLOTS_BASE
                && ((a - lb_regs::SLOTS_BASE) as usize) < self.dist.tracker.num_rpus() =>
            {
                self.dist
                    .tracker
                    .free_count((a - lb_regs::SLOTS_BASE) as usize) as u32
            }
            other => self.dist.lb.host_read(other),
        }
    }

    /// The current RPU enable mask.
    pub fn enabled_mask(&self) -> u64 {
        self.dist.enabled
    }

    /// Packets the LB has assigned so far.
    pub fn lb_assigned(&self) -> u64 {
        self.dist.assigned
    }

    /// Cycles the LB spent with a head-of-line packet it could not place.
    pub fn lb_stall_cycles(&self) -> u64 {
        self.dist.stall_cycles
    }

    /// The slot tracker (test inspection).
    pub fn tracker(&self) -> &SlotTracker {
        &self.dist.tracker
    }

    /// The active LB policy's name.
    pub fn lb_name(&self) -> &str {
        self.dist.lb.name()
    }
}
