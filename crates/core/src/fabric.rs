//! Datapath fabric: the byte-bounded MAC FIFO, the frames in transit to and
//! from an RPU, the egress switch, the loopback module, and the broadcast
//! arbiter (paper §4.3, §4.4).

use rosebud_kernel::{Cycle, DelayLine, Fifo, LatencyStats, Serializer};
use rosebud_net::Packet;

use crate::config::RosebudConfig;
use crate::host::HostBridge;
use crate::lanes::Lanes;
use crate::lb::SlotTracker;
use crate::mac::Mac;
use crate::rpu::RpuState;
use crate::system::{Fx, Rosebud};
use crate::types::{port, BcastMsg, SlotMeta};

/// A FIFO bounded by total bytes rather than item count — the MAC receive
/// FIFOs whose fill level produces the 32.8 µs added latency of a saturated
/// 64-byte flood (§6.2).
#[derive(Debug, Clone)]
pub struct ByteFifo {
    items: std::collections::VecDeque<Packet>,
    bytes: u64,
    capacity_bytes: u64,
    pub(crate) rejected: u64,
}

impl ByteFifo {
    /// Creates a FIFO holding at most `capacity_bytes` of frame data.
    pub fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "capacity must be non-zero");
        Self {
            items: Default::default(),
            bytes: 0,
            capacity_bytes,
            rejected: 0,
        }
    }

    /// `true` if `len` more bytes fit.
    pub fn has_room(&self, len: u64) -> bool {
        self.bytes + len <= self.capacity_bytes
    }

    /// Enqueues `pkt`, or returns it when full.
    pub fn push(&mut self, pkt: Packet) -> Result<(), Packet> {
        if !self.has_room(pkt.len()) {
            self.rejected += 1;
            return Err(pkt);
        }
        self.bytes += pkt.len();
        self.items.push_back(pkt);
        Ok(())
    }

    /// The oldest packet, without dequeuing.
    pub fn front(&self) -> Option<&Packet> {
        self.items.front()
    }

    /// Dequeues the oldest packet.
    pub fn pop(&mut self) -> Option<Packet> {
        let pkt = self.items.pop_front()?;
        self.bytes -= pkt.len();
        Some(pkt)
    }

    /// Queued bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Queued packets.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// A packet travelling from the LB to an RPU.
#[derive(Debug, Clone)]
pub(crate) struct IngressItem {
    pub rpu: usize,
    pub slot: u8,
    pub bytes: Vec<u8>,
    pub meta: SlotMeta,
    /// Bytes were mangled on the link (fault injection); the link-level FCS
    /// check quarantines the frame before it reaches the RPU's DMA engine.
    pub corrupted: bool,
}

/// A packet leaving an RPU, captured at `take_tx` time.
#[derive(Debug, Clone)]
pub(crate) struct EgressItem {
    pub src_rpu: usize,
    pub desc: crate::types::Desc,
    pub bytes: Vec<u8>,
    pub meta: Option<SlotMeta>,
}

/// The loopback module routing full packets between RPUs (§4.4). A single
/// 100 Gbps port with a per-packet destination-header attach cost that caps
/// small-packet throughput at ~60 % of line rate (§6.3).
pub(crate) struct Loopback {
    queue: Fifo<EgressItem>,
    wire: Serializer<EgressItem>,
    header_cycles: u64,
    next_grant: Cycle,
    num_rpus: usize,
}

impl Loopback {
    pub fn new(cfg: &RosebudConfig) -> Self {
        Self {
            queue: Fifo::new(64),
            wire: Serializer::new(cfg.mac_bytes_per_cycle, 8),
            header_cycles: cfg.loopback_header_cycles,
            next_grant: 0,
            num_rpus: cfg.num_rpus,
        }
    }

    /// The RPU that egress port `dest` loops back to, if it names one.
    fn target(&self, dest: u8) -> Option<usize> {
        let dst = usize::from(dest.checked_sub(port::LOOPBACK_BASE)?);
        (dst < self.num_rpus).then_some(dst)
    }

    /// Stage 9: one grant, then one delivery.
    #[inline(always)]
    pub fn tick(&mut self, now: Cycle, slots: &mut SlotTracker, lanes: &mut Lanes) {
        self.grant(now);
        self.deliver(now, slots, lanes);
    }

    /// Moves at most one queued packet onto the loopback wire per grant
    /// period (the destination-header attach).
    fn grant(&mut self, now: Cycle) {
        if now < self.next_grant || self.wire.is_full() {
            return;
        }
        if let Some(item) = self.queue.pop() {
            let wire_len = item.bytes.len() as u64 + rosebud_net::WIRE_OVERHEAD_BYTES;
            self.wire
                .push(item, wire_len, now)
                .expect("wire fullness checked above");
            self.next_grant = now + self.header_cycles;
        }
    }

    /// Hands the frame at the head of the wire to its destination lane's
    /// ingress link, binding a slot there.
    fn deliver(&mut self, now: Cycle, slots: &mut SlotTracker, lanes: &mut Lanes) {
        let Some(item) = self.wire.front() else {
            return;
        };
        if !self.wire.head_ready(now) {
            return;
        }
        let dst = (item.desc.port - port::LOOPBACK_BASE) as usize;
        // The LB enable mask only gates ingress assignment (a two-step
        // pipeline legitimately loopback-feeds LB-disabled partners); what
        // must hold the wire is the destination *region* being down —
        // draining, mid-reload, or crashed — because a slot allocated into
        // such a region would be wiped by the PR flush.
        if lanes.rpus()[dst].state() != RpuState::Running {
            return;
        }
        if slots.free_count(dst) == 0 || lanes.rin_full(dst) {
            return; // destination backpressure stalls the loopback wire
        }
        let item = self.wire.pop_ready(now).expect("head ready");
        let slot = slots.alloc(dst).expect("free count checked");
        let meta = item.meta.unwrap_or(SlotMeta {
            packet_id: 0,
            ts_gen: now,
            ingress_port: item.desc.port,
            orig_len: item.bytes.len() as u32,
        });
        let item = IngressItem {
            rpu: dst,
            slot,
            bytes: item.bytes,
            meta: SlotMeta {
                ingress_port: port::LOOPBACK_BASE + item.src_rpu as u8,
                ..meta
            },
            corrupted: false,
        };
        lanes.push_rin(item, now);
    }

    /// The first cycle from `next` on at which stage 9 could grant or
    /// deliver: the next grant while a frame is queued, the wire's head.
    pub fn horizon(&self, next: Cycle) -> Cycle {
        let grant = (!self.queue.is_empty()).then_some(self.next_grant);
        let heads = [grant, self.wire.head_ready_at()];
        heads
            .into_iter()
            .flatten()
            .min()
            .map_or(Cycle::MAX, |at| at.max(next))
    }

    /// Frames queued for, or on, the loopback wire.
    pub fn in_flight(&self) -> usize {
        self.queue.len() + self.wire.len()
    }
}

/// Stage 7's second half, the egress switch: sends a frame that left its
/// RPU's link to a physical port, the host, or the loopback module, and
/// accounts the ones that name no destination.
#[inline]
pub(crate) fn route_egress(
    item: EgressItem,
    now: Cycle,
    mac: &mut Mac,
    host: &mut HostBridge,
    loopback: &mut Loopback,
    fx: &mut Fx,
) {
    let dest = item.desc.port;
    let to_port = (dest as usize) < mac.num_ports();
    if to_port || dest == port::HOST {
        let (id, ts_gen) = item.meta.map_or((0, now), |m| (m.packet_id, m.ts_gen));
        let pkt = Packet::new(id, item.bytes, dest, ts_gen);
        if to_port {
            mac.send(pkt, now);
        } else {
            host.send(pkt, now);
        }
    } else if loopback.target(dest).is_none() || loopback.queue.push(item).is_err() {
        fx.routed_drops += 1;
        fx.ledger.dropped += 1;
    }
}

/// Round-robin broadcast arbiter: visits one RPU outbox per cycle, so each
/// RPU is granted every `num_rpus` cycles (§6.3: "which can be sent out
/// every 16 cycles due to round-robin arbitration among cores").
pub(crate) struct BcastArbiter {
    next_rpu: usize,
    pipeline: DelayLine<BcastMsg>,
    /// Grant-to-delivery latency samples, in nanoseconds (§6.3).
    latency: LatencyStats,
    ns_per_cycle: f64,
}

impl BcastArbiter {
    pub fn new(cfg: &RosebudConfig) -> Self {
        Self {
            next_rpu: 0,
            pipeline: DelayLine::new(cfg.bcast_pipeline_cycles),
            latency: LatencyStats::new(),
            ns_per_cycle: cfg.ns_per_cycle(),
        }
    }

    /// The RPU whose outbox gets this cycle's grant.
    fn granted_rpu(&mut self, num_rpus: usize) -> usize {
        let rpu = self.next_rpu;
        self.next_rpu = (self.next_rpu + 1) % num_rpus;
        rpu
    }

    /// Stage 11: one outbox visited per cycle; delivery is simultaneous at
    /// every RPU (§4.4).
    #[inline(always)]
    pub fn tick(&mut self, now: Cycle, lanes: &mut Lanes) {
        let granted = self.granted_rpu(lanes.rpus().len());
        if let Some(msg) = lanes.pop_bcast(granted) {
            self.pipeline.push(msg, now);
        }
        while let Some(msg) = self.pipeline.pop_ready(now) {
            self.latency
                .record((now - msg.sent_at) as f64 * self.ns_per_cycle);
            lanes.deliver_bcast(&msg);
        }
    }

    /// The first cycle from `next` on at which stage 11 could deliver a
    /// message. A queued outbox is the lanes' to report.
    pub fn horizon(&self, next: Cycle) -> Cycle {
        self.pipeline
            .head_at()
            .map_or(Cycle::MAX, |at| at.max(next))
    }

    /// The RPU whose outbox the next grant visits.
    #[cfg(test)]
    pub(crate) fn next_grant(&self) -> usize {
        self.next_rpu
    }

    /// Stage 11 over `k` cycles with every outbox empty: the grant pointer
    /// moves on `k` places.
    #[inline]
    pub fn skip(&mut self, k: Cycle, num_rpus: usize) {
        let n = num_rpus as Cycle;
        // No division when `k` is one tick.
        let step = if k < n { k } else { k % n };
        let to = self.next_rpu as Cycle + step;
        self.next_rpu = (if to >= n { to - n } else { to }) as usize;
    }
}

impl Rosebud {
    /// Broadcast-message delivery latency samples, in nanoseconds (§6.3).
    pub fn bcast_latency(&mut self) -> &mut LatencyStats {
        &mut self.bcast.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_fifo_enforces_byte_capacity() {
        let mut fifo = ByteFifo::new(200);
        let pkt = |len: usize| Packet::new(0, vec![0; len], 0, 0);
        assert!(fifo.push(pkt(100)).is_ok());
        assert!(fifo.push(pkt(100)).is_ok());
        assert!(fifo.push(pkt(1)).is_err());
        assert_eq!(fifo.rejected, 1);
        fifo.pop();
        assert!(fifo.push(pkt(1)).is_ok());
        assert_eq!(fifo.bytes(), 101);
        assert_eq!(fifo.len(), 2);
    }

    #[test]
    fn loopback_grants_are_paced() {
        let cfg = RosebudConfig::with_rpus(8);
        let mut lb = Loopback::new(&cfg);
        let item = || EgressItem {
            src_rpu: 0,
            desc: crate::types::Desc {
                tag: 0,
                len: 64,
                port: 4,
                data: 0,
            },
            bytes: vec![0; 64],
            meta: None,
        };
        lb.queue.push(item()).unwrap();
        lb.queue.push(item()).unwrap();
        lb.grant(0);
        assert_eq!(lb.queue.len(), 1);
        lb.grant(1); // within the header-attach window: no grant
        lb.grant(2);
        assert_eq!(lb.queue.len(), 1);
        lb.grant(3); // 3 = loopback_header_cycles
        assert_eq!(lb.queue.len(), 0);
    }

    #[test]
    fn bcast_arbiter_round_robins() {
        let cfg = RosebudConfig::with_rpus(4);
        let mut arb = BcastArbiter::new(&cfg);
        let grants: Vec<usize> = (0..8).map(|_| arb.granted_rpu(4)).collect();
        assert_eq!(grants, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn a_skip_moves_the_grant_pointer_as_that_many_grants_would() {
        for n in 1..=6 {
            let cfg = RosebudConfig::with_rpus(n);
            for start in 0..n {
                for k in 0..3 * n as Cycle + 2 {
                    let (mut granted, mut skipped) =
                        (BcastArbiter::new(&cfg), BcastArbiter::new(&cfg));
                    granted.next_rpu = start;
                    skipped.next_rpu = start;
                    for _ in 0..k {
                        granted.granted_rpu(n);
                    }
                    skipped.skip(k, n);
                    assert_eq!(
                        skipped.next_rpu, granted.next_rpu,
                        "n={n} start={start} k={k}"
                    );
                }
            }
        }
    }
}
