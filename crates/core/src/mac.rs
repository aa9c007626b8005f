//! The physical 100 Gbps Ethernet interfaces (Fig. 2's MACs): wire-side
//! serialization, the byte-bounded receive FIFOs, the egress pipelines, and
//! whatever is bound on the wire's far side.

use rosebud_kernel::{Counters, Cycle, DelayLine, EgressPort, Serializer};
use rosebud_net::Packet;

use crate::config::{RosebudConfig, MAC_BYTES_PER_CYCLE, MAC_RX_FIFO_BYTES};
use crate::fabric::ByteFifo;
use crate::system::{Fx, Rosebud};

/// Frames an egress pipeline holds before stage 7 stops feeding it.
const TX_PIPELINE_LIMIT: usize = 64;

/// Fixed egress pipeline latency in cycles (switch hops + MAC FIFO),
/// calibrated with the distributor's ingress latency so the minimum
/// forwarding RTT matches the paper's 0.765 µs (Eq. 1).
const EGRESS_FIXED_CYCLES: u64 = 87;

/// One physical interface: receive serializer + FIFO on the way in, fixed
/// switch-egress delay + transmit serializer on the way out.
struct PortState {
    /// Wire-side receive serialization at line rate.
    rx_mac: Serializer<Packet>,
    /// MAC receive FIFO (byte-bounded).
    rx_fifo: ByteFifo,
    /// Egress switch pipeline (fixed latency).
    tx_delay: DelayLine<Packet>,
    /// Wire-side transmit serialization at line rate.
    tx_mac: Serializer<Packet>,
    /// Delivered output frames, drained by the harness.
    output: Vec<Packet>,
    /// Optional egress port bound to this interface: when present, frames
    /// leaving the TX MAC are offered to it (respecting its capacity — a
    /// refused frame stays serializing in the MAC, which is real wire-side
    /// backpressure); when absent, frames land in `output` as they always
    /// have.
    egress: Option<Box<dyn EgressPort<Packet> + Send>>,
    counters: Counters,
}

/// Every physical port of the box.
pub(crate) struct Mac {
    ports: Vec<PortState>,
}

impl Mac {
    pub(crate) fn new(cfg: &RosebudConfig) -> Self {
        let port = |_| PortState {
            rx_mac: Serializer::new(MAC_BYTES_PER_CYCLE, 64),
            rx_fifo: ByteFifo::new(MAC_RX_FIFO_BYTES),
            tx_delay: DelayLine::new(EGRESS_FIXED_CYCLES),
            tx_mac: Serializer::new(MAC_BYTES_PER_CYCLE, 64),
            output: Vec::new(),
            egress: None,
            counters: Counters::default(),
        };
        Self {
            ports: (0..cfg.num_ports).map(port).collect(),
        }
    }

    /// Number of physical ports.
    pub(crate) fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// Stage 1, wire-side receive: MAC serializer → MAC FIFO.
    #[inline(always)]
    pub(crate) fn receive(&mut self, now: Cycle) {
        for p in &mut self.ports {
            if p.rx_mac.head_ready_at().is_none_or(|ready| ready > now) {
                continue;
            }
            if let Some(front_len) = p.rx_mac.front().map(Packet::len) {
                if p.rx_fifo.has_room(front_len) {
                    let pkt = p.rx_mac.pop_ready(now).expect("head ready");
                    p.rx_fifo.push(pkt).expect("room checked above");
                }
            }
        }
    }

    /// The head of port `p`'s receive FIFO, as the LB sees it.
    pub(crate) fn rx_head(&self, p: usize) -> Option<&Packet> {
        self.ports[p].rx_fifo.front()
    }

    /// Takes the head of port `p`'s receive FIFO.
    pub(crate) fn rx_pop(&mut self, p: usize) -> Option<Packet> {
        self.ports[p].rx_fifo.pop()
    }

    /// `true` when `dest` names a physical port whose egress pipeline is
    /// full.
    pub(crate) fn tx_congested(&self, dest: u8) -> bool {
        self.ports
            .get(dest as usize)
            .is_some_and(|p| p.tx_delay.len() >= TX_PIPELINE_LIMIT)
    }

    /// Enters `pkt` into port `pkt.port`'s egress pipeline.
    pub(crate) fn send(&mut self, pkt: Packet, now: Cycle) {
        self.ports[pkt.port as usize].tx_delay.push(pkt, now);
    }

    /// Stage 8: physical-port egress pipelines → wire. A bound egress port
    /// is the wire's far side: its capacity is consulted *before* the frame
    /// leaves the TX MAC, so a congested receiver holds the frame
    /// serializing in the MAC (real backpressure) instead of being dropped
    /// past the edge.
    #[inline(always)]
    pub(crate) fn transmit(&mut self, now: Cycle, fx: &mut Fx) {
        for p in &mut self.ports {
            if p.tx_delay.peek_ready(now).is_some() && !p.tx_mac.is_full() {
                let pkt = p.tx_delay.pop_ready(now).expect("peeked ready");
                let wire = pkt.wire_len();
                p.tx_mac.push(pkt, wire, now).expect("fullness checked");
            }
            if let (Some(port), Some(front)) = (&p.egress, p.tx_mac.front()) {
                if !port.can_accept(front.len()) {
                    continue;
                }
            }
            let Some(pkt) = p.tx_mac.pop_ready(now) else {
                continue;
            };
            let len = pkt.len();
            p.counters.count_tx_frame(len);
            match &mut p.egress {
                Some(port) => match port.offer(pkt, len, now) {
                    Ok(()) => fx.ledger.delivered += 1,
                    Err(_) => {
                        // Contract violation (`can_accept` said yes):
                        // account the frame as dropped so conservation
                        // still balances.
                        p.counters.count_drop();
                        fx.ledger.dropped += 1;
                    }
                },
                None => {
                    p.output.push(pkt);
                    fx.ledger.delivered += 1;
                }
            }
        }
    }

    /// The first cycle from `next` on at which stage 1 or 8 could move a
    /// frame: `next` while a receive FIFO holds one for the LB, else the
    /// earliest head of a serializer or egress pipeline.
    pub(crate) fn horizon(&self, next: Cycle) -> Cycle {
        let mut at = Cycle::MAX;
        for p in &self.ports {
            if !p.rx_fifo.is_empty() {
                return next;
            }
            let heads = [
                p.rx_mac.head_ready_at(),
                p.tx_delay.head_at(),
                p.tx_mac.head_ready_at(),
            ];
            at = heads.into_iter().flatten().fold(at, Cycle::min);
        }
        at.max(next)
    }

    /// Hands every delivered frame to `sink` as `(port, frame)`, emptying
    /// the output buffers in place.
    pub(crate) fn drain(&mut self, sink: &mut dyn FnMut(usize, Packet)) {
        for (p, port) in self.ports.iter_mut().enumerate() {
            for pkt in port.output.drain(..) {
                sink(p, pkt);
            }
        }
    }

    /// Bytes queued in port `p`'s receive FIFO.
    pub(crate) fn rx_fifo_bytes(&self, p: usize) -> u64 {
        self.ports[p].rx_fifo.bytes()
    }

    /// Frames in port `p`'s egress pipeline.
    pub(crate) fn tx_pipeline_len(&self, p: usize) -> usize {
        self.ports[p].tx_delay.len()
    }

    /// Frames the MAC paths hold, both directions.
    pub(crate) fn in_flight(&self) -> usize {
        self.ports
            .iter()
            .map(|p| p.rx_mac.len() + p.rx_fifo.len() + p.tx_delay.len() + p.tx_mac.len())
            .sum()
    }
}

impl Rosebud {
    /// Offers a packet to physical port `pkt.port`'s receive MAC. Returns
    /// the packet back when the wire-side serializer is busy (the traffic
    /// source retries next cycle — that is what "the link is saturated"
    /// means).
    pub fn inject(&mut self, pkt: Packet) -> Result<(), Packet> {
        let now = self.clock.cycle();
        self.quiet_until = 0;
        let p = pkt.port as usize;
        let Some(port) = self.mac.ports.get_mut(p) else {
            self.sim.refused_injects += 1;
            return Err(pkt);
        };
        let fx = &mut self.fx;
        if fx.fault.as_ref().is_some_and(|f| f.rx_drop_until[p] > now) {
            // Injected RX FIFO overflow burst: the MAC accepts the frame and
            // immediately sheds it — accounted, not lost.
            port.counters.count_rx_frame(pkt.len());
            port.counters.count_drop();
            fx.ledger.injected += 1;
            fx.ledger.dropped += 1;
            return Ok(());
        }
        let (len, wire) = (pkt.len(), pkt.wire_len());
        if let Err(pkt) = port.rx_mac.push(pkt, wire, now) {
            self.sim.refused_injects += 1;
            return Err(pkt);
        }
        port.counters.count_rx_frame(len);
        fx.ledger.injected += 1;
        Ok(())
    }

    /// `false` only when every [`inject`](Self::inject) this cycle would be
    /// refused: no receive serializer has room, and no port is in an
    /// injected RX FIFO overflow window (whose MAC takes a frame to shed
    /// it).
    #[inline]
    pub(crate) fn can_inject(&self) -> bool {
        let now = self.clock.cycle();
        let fault = self.fx.fault.as_ref();
        let shedding = |p: usize| fault.is_some_and(|f| f.rx_drop_until[p] > now);
        (self.mac.ports.iter().enumerate()).any(|(p, port)| !port.rx_mac.is_full() || shedding(p))
    }

    /// Binds an egress port to physical port `p`: delivered frames are
    /// offered to it instead of waiting for
    /// [`Device::drain`](crate::Device::drain), and its capacity
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
        self.mac.ports[p].egress.replace(port)
    }

    /// Counters of physical port `p`.
    pub fn port_counters(&self, p: usize) -> Counters {
        self.mac.ports[p].counters
    }

    /// Bytes currently queued in port `p`'s MAC receive FIFO (host-visible
    /// occupancy, useful for locating bottlenecks per §4.3).
    pub(crate) fn rx_fifo_bytes(&self, p: usize) -> u64 {
        self.mac.rx_fifo_bytes(p)
    }
}
