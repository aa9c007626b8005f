//! The RPUs and their private distribution links (Fig. 2), with the
//! occupancy words that say which of them a tick has to visit.
//!
//! This file is the only place that can fill one of a lane's queues, and
//! every method that does so marks the lane in the matching word. Everything
//! else in the crate reaches a lane read-only through [`Lanes::rpus`], or
//! through a method here that either cannot fill a queue or goes through
//! [`Lanes::wake`].

use std::sync::atomic::Ordering;

use rosebud_kernel::{Cycle, DelayLine, Serializer};

use crate::config::RosebudConfig;
use crate::fabric::{route_egress, EgressItem, IngressItem, Loopback};
use crate::host::HostBridge;
use crate::lb::SlotTracker;
use crate::mac::Mac;
use crate::rpu::{CoreClock, Rpu};
use crate::sim::SimStats;
use crate::system::Fx;
use crate::trace::TraceEvent;
use crate::types::{irq, BcastMsg, HostDmaReq, SELF_TAG};

/// A set of lane indices in one word (`num_rpus <= 64`), iterated in
/// ascending order. [`Lanes`] keeps one per queue the tick polls, so a sweep
/// costs what is occupied rather than what is built. Iteration runs over a
/// copy: the sweep's body may insert into or remove from the set it is
/// walking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LaneSet(u64);

impl LaneSet {
    /// Lanes `0..n`.
    fn all(n: usize) -> Self {
        Self(if n >= 64 { u64::MAX } else { (1 << n) - 1 })
    }

    #[inline]
    fn insert(&mut self, r: usize) {
        self.0 |= 1 << r;
    }

    #[inline]
    fn remove(&mut self, r: usize) {
        self.0 &= !(1 << r);
    }

    #[inline]
    fn contains(self, r: usize) -> bool {
        self.0 & (1 << r) != 0
    }
}

impl Iterator for LaneSet {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let r = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(r)
    }
}

/// One lane per RPU — the packet-processing unit, the 32 Gbps ingress link
/// feeding its DMA engine and the 32 Gbps egress link draining its committed
/// sends — stored column-wise, plus one occupancy word per queue.
///
/// The invariant is one-sided — *word ⊇ truth*: a set bit on an empty lane
/// is one wasted visit (the sweep that finds the queue empty clears it), a
/// clear bit on an occupied lane is a bug. A bit is set by the method that
/// fills the queue, and [`Lanes::wake`] sets a lane in all five.
pub(crate) struct Lanes {
    rpus: Vec<Rpu>,
    rin: Vec<Serializer<IngressItem>>,
    rout: Vec<Serializer<EgressItem>>,
    /// Stage 4: a frame is on the lane's ingress link (`rin`).
    rin_busy: LaneSet,
    /// Stage 5, core-tick elision: the lanes whose core must tick. A lane
    /// leaves when its tick was inert and its quiet horizon lies ahead —
    /// parked in `wfi` or in a proven poll loop, halted, hung or mid-PR, no
    /// stall tail, no queued send, and no accelerator that has to tick
    /// every cycle (an idle one is skipped in closed form) — and returns,
    /// settled, through stage 4's delivery, [`Lanes::wake`] or when `now`
    /// reaches `quiet[r]`.
    awake: LaneSet,
    /// Stage 6: a committed send is queued in the RPU.
    tx_ready: LaneSet,
    /// Stage 7: a frame is on the lane's egress link (`rout`).
    rout_busy: LaneSet,
    /// Stage 10: the RPU has posted a host-DMA request.
    dma_posted: LaneSet,
    /// Stage 11: the RPU's broadcast outbox holds a message. Not one of the
    /// five [`Lanes::wake`] sets: a woken core's own tick is what could fill
    /// the outbox, and stage 5 marks it from there.
    bcast_queued: LaneSet,
    /// For a lane not in `awake`: the first cycle at which its tick could
    /// change any state (the armed-watchdog deadline, or never). Stale for
    /// a lane that is awake.
    quiet: Vec<Cycle>,
    /// A lower bound on `quiet[r]` over the sleeping lanes: stage 5 reads
    /// `quiet` only once `now` reaches it.
    next_wake: Cycle,
    /// The last cycle stage 5 ran, which every RPU reads: a core parked in
    /// a poll loop works out its pc and counters from it.
    clock: CoreClock,
    /// Lane-cycles stage 5 ticked a core ([`SimStats`]).
    stepped: u64,
}

impl Lanes {
    /// Every lane starts in every occupancy word (a native boot hook may
    /// already have queued a send); the first tick clears what is empty.
    pub(crate) fn new(cfg: &RosebudConfig) -> Self {
        let (rate, depth) = (cfg.rpu_link_bytes_per_cycle, cfg.slots_per_rpu + 2);
        let n = cfg.num_rpus;
        let all = LaneSet::all(n);
        let clock = CoreClock::default();
        Self {
            rpus: (0..n)
                .map(|i| Rpu::new(i, cfg).on_clock(clock.clone()))
                .collect(),
            rin: (0..n).map(|_| Serializer::new(rate, depth)).collect(),
            rout: (0..n).map(|_| Serializer::new(rate, depth)).collect(),
            rin_busy: all,
            awake: all,
            tx_ready: all,
            rout_busy: all,
            dma_posted: all,
            bcast_queued: all,
            quiet: vec![0; n],
            next_wake: Cycle::MAX,
            clock,
            stepped: 0,
        }
    }

    /// The RPUs, read-only.
    pub(crate) fn rpus(&self) -> &[Rpu] {
        &self.rpus
    }

    /// Settles lane `r`'s core and marks the lane in every occupancy word,
    /// so the next tick visits it in all five sweeps: every event from
    /// outside the tick's own data path that could change an elided core's
    /// behavior or fill one of the lane's queues — a raised interrupt, a host
    /// access, fault injection, a PR step — routes through here. Spurious marks are harmless (each sweep
    /// clears what it finds empty, an inert core re-sleeps right after); a
    /// *missed* one is a determinism bug the elision differential
    /// (`tests/kernel_equivalence.rs`) exists to catch.
    #[inline]
    pub(crate) fn wake(&mut self, r: usize) {
        self.rpus[r].settle();
        self.rin_busy.insert(r);
        self.awake.insert(r);
        self.tx_ready.insert(r);
        self.rout_busy.insert(r);
        self.dma_posted.insert(r);
    }

    /// Mutable access to RPU `r`, which wakes the lane: whatever the caller
    /// does to the RPU, the next tick looks at all of it.
    pub(crate) fn rpu_mut(&mut self, r: usize) -> &mut Rpu {
        self.wake(r);
        &mut self.rpus[r]
    }

    /// `true` when lane `r`'s ingress link can take no more frames.
    pub(crate) fn rin_full(&self, r: usize) -> bool {
        self.rin[r].is_full()
    }

    /// Puts a frame on its lane's ingress link (stage 3, and the loopback in
    /// stage 9). The frame is invisible to the core until stage 4 delivers
    /// it, so this marks `rin_busy` and does not wake.
    ///
    /// # Panics
    ///
    /// Panics if the link is full; callers check [`Lanes::rin_full`] first.
    pub(crate) fn push_rin(&mut self, item: IngressItem, now: Cycle) {
        let (r, len) = (item.rpu, item.bytes.len() as u64);
        self.rin[r]
            .push(item, len, now)
            .expect("fullness checked by the caller");
        self.rin_busy.insert(r);
    }

    /// `true` when neither of lane `r`'s links holds a frame (PR drain).
    pub(crate) fn links_empty(&self, r: usize) -> bool {
        self.rin[r].is_empty() && self.rout[r].is_empty()
    }

    /// Forced eviction: drops whatever is on lane `r`'s two links. The
    /// words keep their (now stale) set bits, which cost one visit each.
    pub(crate) fn flush_links(&mut self, r: usize) {
        self.rin[r].flush();
        self.rout[r].flush();
    }

    /// Stage 4: per-RPU link → DMA into packet memory + descriptor delivery.
    #[inline(always)]
    pub(crate) fn deliver(&mut self, now: Cycle, slots: &mut SlotTracker, fx: &mut Fx) {
        for r in self.rin_busy {
            let Some(item) = self.rin[r].pop_ready(now) else {
                if self.rin[r].is_empty() {
                    self.rin_busy.remove(r);
                }
                continue;
            };
            // The one ingress wake: a frame still on the link is invisible
            // to the core, and a delivery fills none of the lane's other
            // queues. A core parked in a poll loop settles while the queue
            // it polls is still empty.
            self.rpus[r].settle();
            self.awake.insert(r);
            if item.corrupted {
                // Link FCS failure: quarantine before the DMA engine
                // touches packet memory; the slot returns to the LB.
                slots.release(r, item.slot);
                fx.ledger.corrupted += 1;
                continue;
            }
            let len = item.bytes.len() as u32;
            let delivered = self.rpus[r]
                .inner_mut()
                .dma_deliver(item.slot, item.bytes, item.meta);
            if delivered {
                let (rpu, slot) = (r as u8, item.slot);
                fx.trace(now, TraceEvent::DescRx { rpu, slot, len });
            } else {
                // Should not happen: slots bound in-flight packets.
                slots.release(r, item.slot);
                fx.routed_drops += 1;
                fx.ledger.dropped += 1;
            }
        }
    }

    /// Stage 5: core + accelerator, for the lanes that are awake. What the
    /// tick left for stages 6 and 10 is looked at once, here; the horizon is
    /// consulted only after an inert tick.
    #[inline(always)]
    pub(crate) fn run_cores(&mut self, now: Cycle) {
        if now >= self.next_wake {
            self.wake_due(now);
        }
        self.clock.store(now, Ordering::Relaxed);
        self.stepped += u64::from(self.awake.0.count_ones());
        for r in self.awake {
            let rpu = &mut self.rpus[r];
            let inert = rpu.tick(now);
            let (send, dma, bcast) = rpu.inner().posted();
            if send {
                self.tx_ready.insert(r);
            }
            if dma {
                self.dma_posted.insert(r);
            }
            if bcast {
                self.bcast_queued.insert(r);
            }
            if inert {
                if let Some(horizon) = rpu.fall_asleep(now) {
                    self.awake.remove(r);
                    self.quiet[r] = horizon;
                    self.next_wake = self.next_wake.min(horizon);
                }
            }
        }
    }

    /// The lanes' share of the box's [`SimStats`]: lane-cycles stepped, and
    /// every RPU's own.
    pub(crate) fn sim_stats(&self) -> SimStats {
        let mut stats = SimStats {
            stepped_lane_cycles: self.stepped,
            ..SimStats::default()
        };
        for rpu in &self.rpus {
            stats += rpu.sim_stats();
        }
        stats
    }

    /// Returns every sleeping lane whose horizon `now` has reached to
    /// `awake`, settled through the cycle before, and re-derives
    /// `next_wake` from the ones still asleep.
    fn wake_due(&mut self, now: Cycle) {
        self.next_wake = Cycle::MAX;
        for (r, &quiet) in self.quiet.iter().enumerate() {
            if self.awake.contains(r) {
                continue;
            }
            if quiet <= now {
                self.rpus[r].settle();
                self.awake.insert(r);
            } else {
                self.next_wake = self.next_wake.min(quiet);
            }
        }
    }

    /// Stage 6: committed sends → per-RPU egress links.
    #[inline(always)]
    pub(crate) fn collect_sends(&mut self, now: Cycle, slots: &mut SlotTracker, fx: &mut Fx) {
        for r in self.tx_ready {
            if self.rout[r].is_full() {
                continue;
            }
            let Some((desc, bytes, meta)) = self.rpus[r].inner_mut().take_tx() else {
                self.tx_ready.remove(r);
                continue;
            };
            let (rpu, tag) = (r as u8, desc.tag);
            if desc.len == 0 || bytes.is_empty() {
                if tag != SELF_TAG {
                    slots.release(r, tag);
                    // Self-originated zero-length sends never entered
                    // the conservation universe; slot-bound ones did.
                    fx.ledger.dropped += 1;
                }
                fx.routed_drops += 1;
                fx.trace(now, TraceEvent::DescDrop { rpu, tag });
                continue;
            }
            let len = bytes.len();
            let port = desc.port;
            fx.trace(
                now,
                TraceEvent::DescTx {
                    rpu,
                    tag,
                    port,
                    len: len as u32,
                },
            );
            let item = EgressItem {
                src_rpu: r,
                desc,
                bytes,
                meta,
            };
            self.rout[r]
                .push(item, len as u64, now)
                .expect("fullness checked above");
            self.rout_busy.insert(r);
        }
    }

    /// Stage 7: egress links → routing; slot freed once fully serialized out
    /// ("the interconnect notifies the LB about slot being freed after it is
    /// sent out", §4.2).
    #[inline(always)]
    pub(crate) fn route(
        &mut self,
        now: Cycle,
        slots: &mut SlotTracker,
        mac: &mut Mac,
        host: &mut HostBridge,
        loopback: &mut Loopback,
        fx: &mut Fx,
    ) {
        for r in self.rout_busy {
            let Some(head) = self.rout[r].front() else {
                self.rout_busy.remove(r);
                continue;
            };
            // Hold the egress link when the destination port's pipeline is
            // congested: self-originated traffic (no slot bound) must not
            // grow the egress queues without limit.
            if mac.tx_congested(head.desc.port) {
                continue;
            }
            if let Some(item) = self.rout[r].pop_ready(now) {
                if item.desc.tag != SELF_TAG {
                    slots.release(item.src_rpu, item.desc.tag);
                } else {
                    // A firmware-originated frame enters the conservation
                    // universe as it leaves the region.
                    fx.ledger.originated += 1;
                }
                route_egress(item, now, mac, host, loopback, fx);
            }
        }
    }

    /// The lane half of stage 10: moves every posted host-DMA request onto
    /// the PCIe delay line. The register holds one request, so a visit
    /// always empties it.
    #[inline]
    pub(crate) fn pick_up_dma(
        &mut self,
        now: Cycle,
        pcie: &mut DelayLine<(usize, HostDmaReq)>,
        fx: &mut Fx,
    ) {
        for r in std::mem::take(&mut self.dma_posted) {
            if let Some(req) = self.rpus[r].inner_mut().take_dma_req() {
                if let Some(t) = fx.tracer.as_mut() {
                    t.dma_started(now, r, req.to_host, req.len);
                }
                pcie.push((r, req), now);
            }
        }
    }

    /// The lane half of stage 11, outbound: takes the next broadcast message
    /// out of RPU `r`'s outbox. Fills no queue, so it does not wake.
    #[inline]
    pub(crate) fn pop_bcast(&mut self, r: usize) -> Option<BcastMsg> {
        if !self.bcast_queued.contains(r) {
            return None;
        }
        let inner = self.rpus[r].inner_mut();
        let msg = inner.pop_bcast();
        let (_, _, more) = inner.posted();
        if !more {
            self.bcast_queued.remove(r);
        }
        msg
    }

    /// The lane half of stage 11, inbound: writes `msg` into every RPU's
    /// mirror at once (§4.4), interrupting — and so waking — the ones that
    /// unmasked the word.
    pub(crate) fn deliver_bcast(&mut self, msg: &BcastMsg) {
        for r in 0..self.rpus.len() {
            if self.rpus[r].inner_mut().deliver_bcast(msg) {
                self.rpu_mut(r).raise_irq(irq::BCAST);
            }
        }
    }

    /// `true` when all five words are empty: no lane has a frame on a link,
    /// a core to tick, a send or a DMA request to collect. Every door into a
    /// lane between two ticks goes through [`Lanes::wake`], which ends this.
    #[inline]
    pub(crate) fn idle(&self) -> bool {
        let words = self.rin_busy.0 | self.awake.0 | self.tx_ready.0 | self.rout_busy.0;
        (words | self.dma_posted.0) == 0
    }

    /// The first cycle from `next` on at which a stage could find work in
    /// a lane: `next` while a word or an outbox is occupied, otherwise the
    /// first sleeping lane's horizon.
    pub(crate) fn horizon(&self, next: Cycle) -> Cycle {
        if self.idle() && self.bcast_queued == LaneSet::default() {
            self.next_wake
        } else {
            next
        }
    }

    /// Stage 5 of a quiet stretch through cycle `last`: no core ticks, but
    /// a core parked in a poll loop reads its pc and counters off the
    /// clock, which has to move as if it had.
    #[inline]
    pub(crate) fn skip_through(&self, last: Cycle) {
        self.clock.store(last, Ordering::Relaxed);
    }

    /// The occupancy invariant, *word ⊇ truth*, for every lane: a queue
    /// that holds something is in its word, and a lane that is not awake
    /// has a horizon ahead of `now` that `next_wake` does not overshoot.
    /// Checked at the end of every tick of a debug build.
    pub(crate) fn assert_occupancy(&self, now: Cycle) {
        for (r, rpu) in self.rpus.iter().enumerate() {
            let (send, dma, bcast) = rpu.inner().posted();
            assert!(
                self.rin[r].is_empty() || self.rin_busy.contains(r),
                "cycle {now}: lane {r} has a frame on rin but is not in rin_busy"
            );
            assert!(
                !send || self.tx_ready.contains(r),
                "cycle {now}: lane {r} has a send queued but is not in tx_ready"
            );
            assert!(
                self.rout[r].is_empty() || self.rout_busy.contains(r),
                "cycle {now}: lane {r} has a frame on rout but is not in rout_busy"
            );
            assert!(
                !dma || self.dma_posted.contains(r),
                "cycle {now}: lane {r} posted a DMA request but is not in dma_posted"
            );
            assert!(
                !bcast || self.bcast_queued.contains(r),
                "cycle {now}: lane {r} has a broadcast queued but is not in bcast_queued"
            );
            assert!(
                self.awake.contains(r) || (self.quiet[r] > now && self.quiet[r] >= self.next_wake),
                "cycle {now}: lane {r} asleep with quiet {} (next_wake {})",
                self.quiet[r],
                self.next_wake
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, Ledger};
    use crate::harness::Harness;
    use crate::host::{HostOp, HostReply};
    use crate::ports::{pump, Device};
    use crate::system::{land_faults, Rosebud, RosebudBuilder, RpuProgram};
    use crate::types::{port, SlotMeta};
    use rosebud_accel::{Accelerator, FirewallMatcher, RegRead, ResourceUsage};
    use rosebud_net::{FixedSizeGen, GenPort, Packet};
    use rosebud_riscv::assemble;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn lane_set_walks_ascending_over_a_copy() {
        let mut set = LaneSet::default();
        for r in [63, 0, 17, 5] {
            set.insert(r);
        }
        assert_eq!(set.collect::<Vec<_>>(), vec![0, 5, 17, 63]);
        // The walk is over a copy: the body may edit the set it walks.
        for r in set {
            set.remove(r);
            set.insert((r + 1) % 64);
        }
        assert_eq!(set.collect::<Vec<_>>(), vec![0, 1, 6, 18]);
        assert_eq!(LaneSet::all(3).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(LaneSet::all(64).count(), 64);
        assert!(!LaneSet::all(16).contains(16));
    }

    /// Every queue a sweep polls has one method that fills it, and that
    /// method marks the lane in the queue's word — and in no other.
    #[test]
    fn each_queue_is_filled_by_one_method_that_marks_its_word() {
        let cfg = RosebudConfig::with_rpus(4);
        let mut lanes = Lanes::new(&cfg);
        let mut slots = SlotTracker::new(cfg.num_rpus, cfg.slots_per_rpu);
        let mut fx = Fx {
            ledger: Ledger::default(),
            tracer: None,
            routed_drops: 0,
            fault: None,
        };
        let only = |r: usize| {
            let mut set = LaneSet::default();
            set.insert(r);
            set
        };
        let words = |l: &Lanes| [l.rin_busy, l.awake, l.tx_ready, l.rout_busy, l.dma_posted];
        let none = LaneSet::default();
        lanes
            .rpu_mut(1)
            .load_riscv(&assemble(DMA_THEN_PARK).unwrap());
        lanes.rpu_mut(2).load_riscv(&assemble(BUSY_POLL).unwrap());
        // Empty every word by hand — nothing is queued anywhere yet — and
        // put every core to sleep with no horizon.
        (lanes.rin_busy, lanes.awake, lanes.tx_ready) = (none, none, none);
        (lanes.rout_busy, lanes.dma_posted) = (none, none);
        lanes.quiet.fill(Cycle::MAX);

        // Stage 3's (and the loopback's) door onto the ingress link.
        let slot = slots.alloc(2).unwrap();
        let meta = SlotMeta {
            packet_id: 7,
            ts_gen: 0,
            ingress_port: 0,
            orig_len: 64,
        };
        let item = IngressItem {
            rpu: 2,
            slot,
            bytes: vec![0; 64],
            meta,
            corrupted: false,
        };
        lanes.push_rin(item, 0);
        assert_eq!(words(&lanes), [only(2), none, none, none, none]);

        // Stage 4: the delivery is what wakes the core.
        let mut now = 0;
        while lanes.awake == none {
            lanes.deliver(now, &mut slots, &mut fx);
            now += 1;
        }
        assert_eq!(words(&lanes), [only(2), only(2), none, none, none]);

        // Stage 5: the tick that commits the send marks it.
        while !lanes.rpus[2].inner().posted().0 {
            assert_eq!(lanes.tx_ready, none);
            lanes.run_cores(now);
            now += 1;
        }
        assert_eq!(lanes.tx_ready, only(2));

        // Stage 6: the send goes onto the egress link.
        lanes.collect_sends(now, &mut slots, &mut fx);
        assert!(!lanes.rout[2].is_empty());
        assert_eq!(lanes.rout_busy, only(2));

        // Stage 5 again: the tick that posts a host-DMA request marks it.
        lanes.awake.insert(1);
        while !lanes.rpus[1].inner().posted().1 {
            assert_eq!(lanes.dma_posted, none);
            lanes.run_cores(now);
            now += 1;
        }
        assert_eq!(lanes.dma_posted, only(1));
        lanes.assert_occupancy(now);
    }

    /// The §6.1 busy-poll forwarder: between frames it spins on an empty
    /// `RECV_READY`, a loop the spin probe proves and parks.
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

    /// The same forwarder petting its watchdog on every poll: the store
    /// makes the loop impure, so it never parks.
    const PETTING_POLL: &str = "
        .equ IO, 0x02000000
            li t0, IO
            li t2, 0x01000000
            li t5, 64
        poll:
            sw t5, 0x40(t0)
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

    /// Posts one 4-byte DMA write to host address 0x3000, then parks for
    /// good.
    const DMA_THEN_PARK: &str = "
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
            ";

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
        sys.lanes.awake.remove(r);
        sys.lanes.quiet[r] = Cycle::MAX;
    }

    /// Drains `sys`, counting the frames delivered on physical port `port`.
    fn delivered_on(sys: &mut Rosebud, port: usize) -> usize {
        let mut n = 0;
        sys.drain(&mut |lane, _| n += usize::from(lane == port));
        n
    }

    fn occupancy(sys: &Rosebud) -> [LaneSet; 5] {
        let l = &sys.lanes;
        [l.rin_busy, l.awake, l.tx_ready, l.rout_busy, l.dma_posted]
    }

    /// Runs `sys` at 5 Gbps for `cycles`, returning how many lane-cycles
    /// stage 5 did not tick, as the box reports them. `oracle` wakes every
    /// lane before every tick, and then the box must report that nothing
    /// slept: no quiet tick and no parked lane-cycle.
    fn asleep_lane_cycles(sys: Rosebud, cycles: u64, oracle: bool) -> u64 {
        let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(256, 2)), 5.0);
        for _ in 0..cycles {
            if oracle {
                h.sys.wake_all();
            }
            h.tick();
        }
        let stats = h.sys.sim_stats();
        assert_eq!(stats.lane_cycles, cycles * h.sys.rpus().len() as u64);
        if oracle {
            assert_eq!((stats.quiet_ticks, stats.parked_lane_cycles), (0, 0));
        }
        stats.lane_cycles - stats.stepped_lane_cycles
    }

    /// An accelerator that keeps [`Accelerator`]'s default horizon of 0:
    /// it asks to be ticked every cycle, so its lane never sleeps.
    struct Ticking;

    impl Accelerator for Ticking {
        fn name(&self) -> &str {
            "ticking"
        }
        fn read_reg(&mut self, _offset: u32) -> RegRead {
            RegRead::fast(0)
        }
        fn write_reg(&mut self, _offset: u32, _value: u32) {}
        fn tick(&mut self, _pmem: &[u8]) {}
        fn is_busy(&self) -> bool {
            false
        }
        fn load_table(&mut self, _offset: u32, _data: &[u8]) {}
        fn reset(&mut self) {}
        fn resources(&self) -> ResourceUsage {
            ResourceUsage::default()
        }
    }

    /// `builder(16, asm)` with `accel` on every lane.
    fn accelerated(asm: &str, accel: fn() -> Box<dyn Accelerator>) -> Rosebud {
        builder(16, asm)
            .accelerator(move |_| accel())
            .build()
            .unwrap()
    }

    fn idle_matcher() -> Box<dyn Accelerator> {
        Box::new(FirewallMatcher::from_prefixes(&[]))
    }

    fn ticking() -> Box<dyn Accelerator> {
        Box::new(Ticking)
    }

    /// The elision differential is only worth something if lanes really
    /// sleep where they should and never where they must not: parked in
    /// `wfi`, or spinning on an empty queue, they sleep, and exactly as much
    /// next to an idle `FirewallMatcher` as bare; petting the watchdog in
    /// the loop, next to an accelerator that must tick every cycle, or
    /// woken before every tick, never.
    #[test]
    fn parked_polling_and_matcher_lanes_sleep_and_petting_ticking_or_oracle_lanes_never_do() {
        let lane_cycles = 16 * 20_000;
        let duty = builder(16, DUTY_CYCLE).build().unwrap();
        let asleep = asleep_lane_cycles(duty, 20_000, false);
        assert!(
            asleep > lane_cycles / 2,
            "duty-cycled lanes slept only {asleep} lane-cycles"
        );

        let busy = builder(16, BUSY_POLL).build().unwrap();
        let asleep = asleep_lane_cycles(busy, 20_000, false);
        assert!(
            asleep > lane_cycles * 8 / 10,
            "busy-poll lanes slept only {asleep} of {lane_cycles} lane-cycles"
        );

        let oracle = builder(16, BUSY_POLL).build().unwrap();
        assert_eq!(asleep_lane_cycles(oracle, 20_000, true), 0);

        let petting = builder(16, PETTING_POLL).build().unwrap();
        assert_eq!(asleep_lane_cycles(petting, 20_000, false), 0);

        for asm in [DUTY_CYCLE, BUSY_POLL] {
            let bare = asleep_lane_cycles(builder(16, asm).build().unwrap(), 20_000, false);
            let matcher = asleep_lane_cycles(accelerated(asm, idle_matcher), 20_000, false);
            assert_eq!(matcher, bare, "a FirewallMatcher lane sleeps as a bare one");
            assert_eq!(
                asleep_lane_cycles(accelerated(asm, ticking), 20_000, false),
                0
            );
        }
    }

    /// Runs `sys` as the benchmark drives it — `size`-byte frames paced to
    /// `gbps`, `pump`, then `tick` — for `cycles`, returning how many of the
    /// ticks the box reports quiet. `oracle` wakes every lane before every
    /// tick, and then no core may park either.
    fn quiet_ticks(mut sys: Rosebud, size: usize, gbps: f64, cycles: u64, oracle: bool) -> u64 {
        let gen = Box::new(FixedSizeGen::new(size, 2));
        let mut source = GenPort::per_port(gen, gbps, sys.config().ns_per_cycle(), 2);
        for _ in 0..cycles {
            pump(&mut sys, &mut source);
            if oracle {
                sys.wake_all();
            }
            sys.tick();
            sys.drain(&mut |_, _| {});
        }
        let stats = sys.sim_stats();
        assert_eq!((stats.cycles, stats.jumped_cycles), (cycles, 0));
        if oracle {
            assert_eq!(stats.parked_lane_cycles, 0);
        }
        stats.quiet_ticks
    }

    /// The quiet tick is only worth its compare if it fires where lanes
    /// sit parked: a duty-cycled box at 5 Gbps (the `duty256_light`
    /// workload) takes most of its ticks quiet, and as many with an idle
    /// `FirewallMatcher` on every lane, while a box saturated with 64-byte
    /// frames, one whose accelerators must tick every cycle, and the oracle
    /// take none.
    #[test]
    fn a_duty_cycled_box_ticks_quiet_and_a_saturated_ticking_or_oracle_box_never_does() {
        let duty256 = DUTY_CYCLE.replace("li t5, 700", "li t5, 2000");
        let duty = builder(16, &duty256).build().unwrap();
        let quiet = quiet_ticks(duty, 256, 5.0, 50_000, false);
        assert!(quiet > 40_000, "only {quiet} of 50000 ticks were quiet");
        let matcher = quiet_ticks(accelerated(&duty256, idle_matcher), 256, 5.0, 50_000, false);
        assert_eq!(
            matcher, quiet,
            "a FirewallMatcher box ticks quiet as a bare one"
        );

        let saturated = builder(16, BUSY_POLL).build().unwrap();
        assert_eq!(quiet_ticks(saturated, 64, 205.0, 20_000, false), 0);

        let oracle = builder(16, &duty256).build().unwrap();
        assert_eq!(quiet_ticks(oracle, 256, 5.0, 20_000, true), 0);

        for asm in [DUTY_CYCLE, BUSY_POLL] {
            let ticking = accelerated(asm, ticking);
            assert_eq!(quiet_ticks(ticking, 256, 5.0, 20_000, false), 0);
        }
    }

    /// Counts the cycles it is brought through, ticked or skipped, in a
    /// counter the test keeps; idle for good, so its lane may sleep.
    struct Counting(Arc<AtomicU64>);

    impl Accelerator for Counting {
        fn name(&self) -> &str {
            "counting"
        }
        fn read_reg(&mut self, _offset: u32) -> RegRead {
            RegRead::fast(0)
        }
        fn write_reg(&mut self, _offset: u32, _value: u32) {}
        fn tick(&mut self, _pmem: &[u8]) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
        fn is_busy(&self) -> bool {
            false
        }
        fn load_table(&mut self, _offset: u32, _data: &[u8]) {}
        fn reset(&mut self) {}
        fn resources(&self) -> ResourceUsage {
            ResourceUsage::default()
        }
        fn horizon(&self) -> u64 {
            u64::MAX
        }
        fn skip(&mut self, k: u64) {
            self.0.fetch_add(k, Ordering::Relaxed);
        }
    }

    /// The one catch-up point, against the oracle: lanes that sleep in
    /// `wfi`, park in a poll loop, hang, sit mid-PR (when the accelerator
    /// is not ticked at all) and ride whole-box jumps each see their
    /// accelerator brought through exactly the cycles the oracle ticks it.
    #[test]
    fn a_sleeping_lanes_accelerator_is_brought_through_every_cycle_it_missed() {
        let build = |counts: &[Arc<AtomicU64>]| {
            let images = [DUTY_CYCLE, BUSY_POLL, PARKED].map(|asm| assemble(asm).unwrap());
            let counts = counts.to_vec();
            let mut cfg = RosebudConfig::with_rpus(6);
            cfg.pr_cycles = 500;
            Rosebud::builder(cfg)
                .firmware(move |r| RpuProgram::Riscv(images[r % 3].clone()))
                .accelerator(move |r| Box::new(Counting(counts[r].clone())))
                .build()
                .unwrap()
        };
        let counters = || {
            (0..6)
                .map(|_| Arc::default())
                .collect::<Vec<Arc<AtomicU64>>>()
        };
        let (elided_counts, oracle_counts) = (counters(), counters());
        let (mut elided, mut oracle) = (build(&elided_counts), build(&oracle_counts));
        let gen = || Box::new(FixedSizeGen::new(200, 2));
        let mut sources = [
            GenPort::per_port(gen(), 3.0, 4.0, 2),
            GenPort::per_port(gen(), 3.0, 4.0, 2),
        ];
        let ops = |cycle| match cycle {
            6_000 => Some(HostOp::Fault(FaultKind::FirmwareHang { rpu: 4 })),
            9_000 => Some(HostOp::Reload {
                rpu: 1,
                gated: false,
            }),
            _ => None,
        };
        while elided.now() < 40_000 {
            let now = elided.now();
            if let Some(op) = ops(now) {
                elided.apply(op.clone()).unwrap();
                oracle.apply(op).unwrap();
            }
            if now < 12_000 {
                pump(&mut elided, &mut sources[0]);
                pump(&mut oracle, &mut sources[1]);
            } else if now > 20_000 {
                elided.skip_quiet(40_000);
            }
            while oracle.now() < elided.now() {
                oracle.wake_all();
                oracle.tick();
            }
            if elided.now() < 40_000 {
                elided.tick();
                oracle.wake_all();
                oracle.tick();
            }
        }
        let stats = elided.sim_stats();
        assert!(
            stats.parked_lane_cycles > 0 && stats.jumped_cycles > 0,
            "{stats}"
        );
        assert!(
            stats.asleep_lane_cycles() > stats.lane_cycles / 2,
            "{stats}"
        );
        // Waking a lane settles it, accelerator included.
        elided.wake_all();
        let read = |c: &[Arc<AtomicU64>]| c.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        let (elided, oracle): (Vec<u64>, Vec<u64>) = (read(&elided_counts), read(&oracle_counts));
        assert_eq!(elided, oracle);
        assert!(
            oracle[1] < 40_000,
            "the reloaded lane's PR stops its accelerator"
        );
    }

    /// One box jumps its quiet stretches with `Device::skip_quiet`; its twin
    /// ticks through them with the gate held open, so every one of its
    /// ticks is a full one. In lockstep they agree on the clock, the
    /// broadcast arbiter's grant pointer and every core's counters and
    /// registers — half of them parked in `wfi`, half in a poll loop whose
    /// reads come off the clock — and at the end on the ledger and
    /// diagnostics.
    #[test]
    fn jumping_a_quiet_stretch_equals_ticking_through_it() {
        let build = || {
            let (duty, poll) = (assemble(DUTY_CYCLE).unwrap(), assemble(BUSY_POLL).unwrap());
            let mut cfg = RosebudConfig::with_rpus(5);
            cfg.pr_cycles = 500;
            Rosebud::builder(cfg)
                .firmware(move |r| {
                    RpuProgram::Riscv(if r % 2 == 0 { &duty } else { &poll }.clone())
                })
                .build()
                .unwrap()
        };
        let (mut jumped, mut ticked) = (build(), build());
        let gen = || Box::new(FixedSizeGen::new(200, 2));
        let mut sources = [
            GenPort::per_port(gen(), 3.0, 4.0, 2),
            GenPort::per_port(gen(), 3.0, 4.0, 2),
        ];
        // Traffic for a while, then none; both see the same frames.
        let (traffic_until, end) = (8_000, 40_000);
        let mut jumps = 0;
        while jumped.now() < end {
            if jumped.now() < traffic_until {
                pump(&mut jumped, &mut sources[0]);
            } else {
                let at = jumped.now();
                jumped.skip_quiet(end);
                jumps += jumped.now() - at;
            }
            if jumped.now() < end {
                jumped.tick();
            }
            while ticked.now() < jumped.now() {
                if ticked.now() < traffic_until {
                    pump(&mut ticked, &mut sources[1]);
                }
                ticked.quiet_until = 0;
                ticked.tick();
            }
            assert_eq!(jumped.bcast.next_grant(), ticked.bcast.next_grant());
            for (a, b) in jumped.rpus().iter().zip(ticked.rpus()) {
                let cycle = jumped.now();
                assert_eq!(a.perf(), b.perf(), "RPU {} at cycle {cycle}", a.id());
                let (ca, cb) = (format!("{:?}", a.cpu()), format!("{:?}", b.cpu()));
                assert_eq!(ca, cb, "RPU {} at cycle {cycle}", a.id());
            }
        }
        assert!(jumps > (end - traffic_until) / 2, "jumped {jumps} cycles");
        assert_eq!(jumped.sim_stats().jumped_cycles, jumps);
        assert_eq!(ticked.sim_stats().jumped_cycles, 0);
        assert_eq!(jumped.ledger(), ticked.ledger());
        let diagnostics = |sys: &Rosebud| format!("{:?}", sys.diagnostics());
        assert_eq!(diagnostics(&jumped), diagnostics(&ticked));
    }

    /// The purity table, one row at a time: a poll loop that makes one
    /// access the fabric can answer differently without settling the lane
    /// — or that has a side effect — never sleeps, while the same loop
    /// reading a wake-guarded register does. Each access loads into `zero`
    /// (or stores it), so no register changes and purity alone refuses it.
    #[test]
    fn one_impure_access_keeps_a_poll_loop_awake() {
        let poll_with = |access: &str| {
            format!(
                "
            .equ IO, 0x02000000
                li t0, IO
                li t1, 0x00800000
                li t3, 0x04000000
                li t4, 0x03000000
            poll:
                {access}
                lw a0, 0x00(t0)
                beqz a0, poll
                ebreak
            "
            )
        };
        let asleep = |access: &str| {
            let mut sys = builder(2, &poll_with(access)).build().unwrap();
            for _ in 0..2_000 {
                sys.tick();
            }
            sys.sim_stats().parked_lane_cycles
        };
        for pure in [
            "lw zero, 0x18(t0)   # STATUS",
            "lw zero, 0x30(t0)   # HOST_IN_L",
            "lw zero, 0x54(t0)   # DMA_STATUS",
            "lw zero, 0x40(t1)   # data memory",
        ] {
            assert!(asleep(pure) > 2 * 1_900, "`{pure}` never slept");
        }
        for impure in [
            "lw zero, 0x24(t0)   # TIMER_L",
            "lw zero, 0x28(t0)   # TIMER_H",
            "lw zero, 0x38(t0)   # BCAST_NOTIFY",
            "lw zero, 0x3c(t0)   # BCAST_FREE",
            "lw zero, 0x5c(t0)   # unassigned",
            "lw zero, 0(t3)      # broadcast mirror",
            "lw zero, 0(t4)      # IO_EXT",
            "sw zero, 0x40(t1)   # data-memory store",
        ] {
            assert_eq!(asleep(impure), 0, "`{impure}` slept");
        }
    }

    /// Every wake source must end a sleep. The cores here poll and pet
    /// their watchdog, which never parks, so a lane put to sleep by hand
    /// stays asleep until something wakes it and stays awake afterwards —
    /// which makes each wake observable from outside the tick that
    /// performed it.
    #[test]
    fn every_wake_source_ends_a_sleep() {
        let mut sys = builder(4, PETTING_POLL).build().unwrap();
        sys.run(50);

        // Control: with no event, a sleeping lane is never ticked.
        force_sleep(&mut sys, 1);
        sys.run(50);
        assert!(!sys.lanes.awake.contains(1));

        // Ingress delivery wakes exactly the lane the LB picked.
        for r in 0..4 {
            force_sleep(&mut sys, r);
        }
        sys.inject(Packet::new(1, vec![0u8; 64], 0, 0)).unwrap();
        sys.run(400);
        assert_eq!(sys.lanes.awake.count(), 1);
        assert_eq!(delivered_on(&mut sys, 1), 1, "the woken lane forwarded it");

        // Host poke, and `wake_all` — the un-elided oracle of
        // `tests/kernel_equivalence.rs`.
        force_sleep(&mut sys, 2);
        sys.apply(HostOp::Poke { rpu: 2 }).unwrap();
        assert!(sys.lanes.awake.contains(2));
        force_sleep(&mut sys, 2);
        sys.wake_all();
        assert!(sys.lanes.awake.contains(2));
        force_sleep(&mut sys, 2);
        sys.apply(HostOp::Evict { rpu: 2 }).unwrap();
        assert!(sys.lanes.awake.contains(2));
        force_sleep(&mut sys, 2);
        sys.apply(HostOp::WriteDebug { rpu: 2, value: 7 }).unwrap();
        assert!(sys.lanes.awake.contains(2));

        // Fault injection lands in stage 0, ahead of the core tick.
        force_sleep(&mut sys, 3);
        force_sleep(&mut sys, 0);
        sys.apply(HostOp::Fault(FaultKind::FirmwareHang { rpu: 3 }))
            .unwrap();
        sys.apply(HostOp::Fault(FaultKind::FirmwareCrash { rpu: 0 }))
            .unwrap();
        land_faults(sys.now(), &mut sys.fx, &mut sys.lanes);
        assert!(sys.lanes.awake.contains(3) && sys.lanes.awake.contains(0));
        sys.tick();

        // PR begin wakes; the region then sleeps through the bitstream
        // write on its own, and PR finish wakes it into the new firmware.
        force_sleep(&mut sys, 1);
        sys.apply(HostOp::ForceReload { rpu: 1 }).unwrap();
        assert!(sys.lanes.awake.contains(1));
        sys.run(100);
        assert!(!sys.lanes.awake.contains(1), "mid-PR region must sleep");
        sys.run(500);
        assert!(sys.lanes.awake.contains(1));
        assert_eq!(sys.rpus()[1].state(), crate::rpu::RpuState::Running);
        // The graceful eviction's entry points wake too (they raise EVICT).
        force_sleep(&mut sys, 2);
        sys.apply(HostOp::Reload {
            rpu: 2,
            gated: true,
        })
        .unwrap();
        assert!(sys.lanes.awake.contains(2));

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
        assert!(sys.lanes.awake.contains(2));
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

    /// `wake` marks the lane in every word, so the integration tests'
    /// `wake_all` oracle (before each tick) is the full-sweep reference
    /// tick for all five stages, not only stage 5.
    #[test]
    fn waking_every_lane_forces_the_full_sweep_of_every_stage() {
        let mut sys = builder(16, PARKED).build().unwrap();
        sys.run(100);
        sys.wake_all();
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
            (0..4).find(|&r| !sys.lanes.rin[r].is_empty() && !sys.lanes.rout[r].is_empty())
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
        let purged = h.sys.apply(HostOp::ForceReload { rpu: r }).unwrap();
        assert!(matches!(purged, HostReply::Purged(n) if n > 0));
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
            assemble(&send_to(port::LOOPBACK_BASE + 1)).unwrap(),
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
        // Lane 1 is fed by the loopback only.
        sys.apply(HostOp::Disable { rpu: 1 }).unwrap();
        sys.inject(Packet::new(1, vec![0u8; 64], 0, 0)).unwrap();
        let mut marked = false;
        for _ in 0..400 {
            sys.tick();
            if !sys.lanes.rin[1].is_empty() {
                assert!(sys.lanes.rin_busy.contains(1));
                marked = true;
            }
        }
        assert!(marked, "the frame never reached lane 1's ingress link");
        assert_eq!(delivered_on(&mut sys, 1), 1, "lane 1 forwarded it");
    }

    /// A host store into the I/O window commits a send on a core that is
    /// parked and stays parked: only `HostOp::WriteMem`'s wake tells
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
            .find(|&r| !sys.tracker().all_free(r))
            .expect("the frame is parked in a slot");
        assert_eq!(occupancy(&sys), [LaneSet::default(); 5]);

        let window = (IO_BASE - PMEM_BASE) as usize;
        for (reg, byte) in [(io::SEND_DESC_LO, 64), (io::SEND_DESC_DATA, 0)] {
            sys.apply(HostOp::WriteMem {
                rpu: r,
                region: MemRegion::Pmem,
                offset: window + reg as usize,
                bytes: vec![byte],
            })
            .unwrap();
        }
        assert!(sys.lanes.tx_ready.contains(r));
        sys.run(2);
        assert_eq!(sys.drop_count(), 1, "stage 6 collected the send");
        assert!(sys.tracker().all_free(r));
        assert!(
            !sys.lanes.awake.contains(r),
            "and the core never left its park"
        );
        sys.assert_conservation();
    }

    /// A posted host-DMA request waits out a PCIe outage in the RPU's
    /// register. The core parks right after posting it, so nothing re-marks
    /// the lane: the bit itself has to survive until link-up.
    #[test]
    fn a_posted_dma_request_survives_a_host_outage() {
        let image = assemble(DMA_THEN_PARK).unwrap();
        let mut sys = Rosebud::builder(RosebudConfig::with_rpus(2))
            .firmware(move |_| RpuProgram::Riscv(image.clone()))
            .build()
            .unwrap();
        // The link drops after the words `build()` filled have drained and
        // before the firmware reaches its `DMA_CTRL` store.
        sys.run(3);
        assert_eq!(sys.lanes.dma_posted, LaneSet::default());
        sys.apply(HostOp::Fault(FaultKind::HostDmaOutage { cycles: 1_000 }))
            .unwrap();
        sys.run(500);
        assert!(!sys.host_link_up());
        assert_eq!(sys.lanes.dma_posted, LaneSet::all(2));
        assert_eq!(sys.lanes.awake, LaneSet::default());
        assert_eq!(&sys.host_dram()[0x3000..0x3004], &[0; 4]);

        // The outage ends, then one PCIe round trip (250 cycles, host.rs).
        sys.run(500 + 250);
        assert_eq!(sys.lanes.dma_posted, LaneSet::default());
        assert_eq!(
            &sys.host_dram()[0x3000..0x3004],
            &0x600d_f00d_u32.to_le_bytes()
        );
    }
}
