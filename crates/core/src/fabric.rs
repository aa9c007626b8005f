//! Datapath fabric: MAC interfaces, byte-bounded FIFOs, the per-RPU lanes,
//! the loopback module, and the broadcast arbiter (paper §4.3, §4.4).

use rosebud_kernel::{Counters, Cycle, DelayLine, Fifo, Serializer};
use rosebud_net::Packet;

use crate::config::RosebudConfig;
use crate::rpu::Rpu;
use crate::types::{BcastMsg, SlotMeta};

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

/// One physical 100 Gbps Ethernet interface: receive serializer + FIFO on
/// the way in, fixed switch-egress delay + transmit serializer on the way
/// out.
pub(crate) struct PortState {
    /// Wire-side receive serialization at line rate.
    pub rx_mac: Serializer<Packet>,
    /// MAC receive FIFO (byte-bounded).
    pub rx_fifo: ByteFifo,
    /// Egress switch pipeline (fixed latency).
    pub tx_delay: DelayLine<Packet>,
    /// Wire-side transmit serialization at line rate.
    pub tx_mac: Serializer<Packet>,
    /// Delivered output frames, drained by the harness.
    pub output: Vec<Packet>,
    pub counters: Counters,
}

impl PortState {
    pub fn new(cfg: &RosebudConfig) -> Self {
        Self {
            rx_mac: Serializer::new(cfg.mac_bytes_per_cycle, 64),
            rx_fifo: ByteFifo::new(cfg.mac_rx_fifo_bytes),
            tx_delay: DelayLine::new(cfg.egress_fixed_cycles),
            tx_mac: Serializer::new(cfg.mac_bytes_per_cycle, 64),
            output: Vec::new(),
            counters: Counters::default(),
        }
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

/// One RPU "lane": the RPU plus its private distribution links. Stages 4–6
/// of [`crate::Rosebud::tick`] touch nothing outside one lane except the
/// slot tracker, the ledger, the drop counter and the tracer.
pub(crate) struct Lane {
    /// The packet-processing unit itself.
    pub rpu: Rpu,
    /// The 32 Gbps ingress link feeding this RPU's DMA engine.
    pub rin: Serializer<IngressItem>,
    /// The 32 Gbps egress link draining committed sends.
    pub rout: Serializer<EgressItem>,
}

/// A set of lane indices in one word (`num_rpus <= 64`), iterated in
/// ascending order. [`crate::Rosebud::tick`] keeps one per queue it polls,
/// so a sweep costs what is occupied rather than what is built. Iteration
/// runs over a copy: the sweep's body may insert into or remove from the
/// set it is walking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LaneSet(u64);

impl LaneSet {
    /// Lanes `0..n`.
    pub fn all(n: usize) -> Self {
        Self(if n >= 64 { u64::MAX } else { (1 << n) - 1 })
    }

    #[inline]
    pub fn insert(&mut self, r: usize) {
        self.0 |= 1 << r;
    }

    #[inline]
    pub fn remove(&mut self, r: usize) {
        self.0 &= !(1 << r);
    }

    #[inline]
    pub fn contains(self, r: usize) -> bool {
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

/// The loopback module routing full packets between RPUs (§4.4). A single
/// 100 Gbps port with a per-packet destination-header attach cost that caps
/// small-packet throughput at ~60 % of line rate (§6.3).
pub(crate) struct Loopback {
    pub queue: Fifo<EgressItem>,
    pub wire: Serializer<EgressItem>,
    header_cycles: u64,
    next_grant: Cycle,
    pub counters: Counters,
}

impl Loopback {
    pub fn new(cfg: &RosebudConfig) -> Self {
        Self {
            queue: Fifo::new(64),
            wire: Serializer::new(cfg.mac_bytes_per_cycle, 8),
            header_cycles: cfg.loopback_header_cycles,
            next_grant: 0,
            counters: Counters::default(),
        }
    }

    /// Moves at most one queued packet onto the loopback wire per grant
    /// period (the destination-header attach).
    pub fn grant(&mut self, now: Cycle) {
        if now < self.next_grant || self.wire.is_full() {
            return;
        }
        if let Some(item) = self.queue.pop() {
            let wire_len = item.bytes.len() as u64 + rosebud_net::WIRE_OVERHEAD_BYTES;
            self.counters.count_tx_frame(item.bytes.len() as u64);
            self.wire
                .push(item, wire_len, now)
                .expect("wire fullness checked above");
            self.next_grant = now + self.header_cycles;
        }
    }
}

/// Round-robin broadcast arbiter: visits one RPU outbox per cycle, so each
/// RPU is granted every `num_rpus` cycles (§6.3: "which can be sent out
/// every 16 cycles due to round-robin arbitration among cores").
pub(crate) struct BcastArbiter {
    next_rpu: usize,
    pub pipeline: DelayLine<BcastMsg>,
    pub delivered: u64,
}

impl BcastArbiter {
    pub fn new(cfg: &RosebudConfig) -> Self {
        Self {
            next_rpu: 0,
            pipeline: DelayLine::new(cfg.bcast_pipeline_cycles),
            delivered: 0,
        }
    }

    /// The RPU whose outbox gets this cycle's grant.
    pub fn granted_rpu(&mut self, num_rpus: usize) -> usize {
        let rpu = self.next_rpu;
        self.next_rpu = (self.next_rpu + 1) % num_rpus;
        rpu
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
}
