//! Port implementations over the `net` traffic sources and sinks.
//!
//! The simulation core consumes traffic through the
//! [`IngressPort`]/[`EgressPort`] contract (see `rosebud_kernel::port`);
//! this module adapts everything this crate knows how to produce or absorb
//! onto that contract: paced [`TrafficGen`] sources ([`GenPort`]) and pcap
//! replay ([`PcapReplayPort`]). The adapters are deliberately thin — a
//! future feeder is "a ~100-line port impl", not a change to the core.

use rosebud_kernel::{Cycle, IngressPort, PortClock, StampedIngress};

use crate::gen::TrafficGen;
use crate::packet::Packet;
use crate::WIRE_OVERHEAD_BYTES;

/// A paced [`TrafficGen`] behind the ingress-port contract — the tester
/// FPGA's per-port generator RPUs as a port.
///
/// Pacing reproduces the historical harness byte-for-byte: each physical
/// port holds an independent byte budget refilled once per cycle at
/// `target_gbps / ports`, a frame is generated only when the budget covers
/// its wire occupancy, and a refused frame ([`IngressPort::give_back`])
/// parks in that port's retry slot while generation moves on to the next
/// physical port — one congested port must not starve the others.
///
/// # Examples
///
/// ```
/// use rosebud_kernel::IngressPort;
/// use rosebud_net::{FixedSizeGen, GenPort};
///
/// // 2 physical ports paced to 1 Tbps aggregate at 4 ns/cycle: the first
/// // cycle's per-lane grant (250 B) covers an 88-wire-byte frame.
/// let mut port = GenPort::per_port(Box::new(FixedSizeGen::new(64, 2)), 1000.0, 4.0, 2);
/// let pkt = port.poll(0).expect("budget covers a 64-byte frame");
/// assert_eq!(pkt.port, 0); // port override: lane 0 generates first
/// ```
pub struct GenPort {
    gen: Box<dyn TrafficGen>,
    /// Bytes each lane's budget grows by per cycle.
    bytes_per_cycle: f64,
    /// The most budget a lane can bank.
    cap: f64,
    /// One pacing lane per physical port (or a single aggregate lane).
    budget_bytes: Vec<f64>,
    pending: Vec<Option<Packet>>,
    /// Whether generated frames get `pkt.port` overridden with the lane
    /// index (per-port pacing) or keep the generator's own rotation
    /// (aggregate pacing, the fleet harness shape).
    tag_ports: bool,
    cursor: usize,
    next_id: u64,
    last_refill: Option<Cycle>,
}

impl GenPort {
    /// Per-physical-port pacing: `ports` independent lanes each offered
    /// `target_gbps / ports`, generated frames stamped with their lane
    /// index. This is the single-box tester model.
    pub fn per_port(
        gen: Box<dyn TrafficGen>,
        target_gbps: f64,
        ns_per_cycle: f64,
        ports: usize,
    ) -> Self {
        assert!(ports > 0, "need at least one port lane");
        let bytes_per_cycle = target_gbps / 8.0 * ns_per_cycle / ports as f64;
        Self::paced(gen, bytes_per_cycle, ports, true)
    }

    /// One shared budget at the full `target_gbps`, frames keeping the
    /// generator's own port rotation — the rack-level tester model.
    pub fn aggregate(gen: Box<dyn TrafficGen>, target_gbps: f64, ns_per_cycle: f64) -> Self {
        Self::paced(gen, target_gbps / 8.0 * ns_per_cycle, 1, false)
    }

    fn paced(
        gen: Box<dyn TrafficGen>,
        bytes_per_cycle: f64,
        lanes: usize,
        tag_ports: bool,
    ) -> Self {
        Self {
            gen,
            bytes_per_cycle,
            cap: bytes_per_cycle.max(1.0) * 64.0 + 18_000.0,
            budget_bytes: vec![0.0; lanes],
            pending: vec![None; lanes],
            tag_ports,
            cursor: 0,
            next_id: 0,
            last_refill: None,
        }
    }

    /// Frames generated so far (== the next packet id).
    pub fn generated(&self) -> u64 {
        self.next_id
    }

    /// Grants each lane its per-cycle byte budget for every cycle elapsed
    /// since the last poll, then rewinds the lane cursor. One grant per
    /// cycle keeps this byte-identical with the historical harness, which
    /// ticked every cycle; a driver that skips cycles still accrues the
    /// right budget (capped, so the loop is bounded).
    fn refill(&mut self, now: Cycle) {
        let grants = match self.last_refill {
            None => 1,
            Some(last) if now > last => (now - last).min(32_768),
            Some(_) => return,
        };
        let (bytes_per_cycle, cap) = (self.bytes_per_cycle, self.cap);
        for _ in 0..grants {
            for b in &mut self.budget_bytes {
                *b = (*b + bytes_per_cycle).min(cap);
            }
        }
        self.cursor = 0;
        self.last_refill = Some(now);
    }
}

impl IngressPort<Packet> for GenPort {
    fn poll(&mut self, now: Cycle) -> Option<Packet> {
        self.refill(now);
        let lanes = self.budget_bytes.len();
        while self.cursor < lanes {
            let lane = self.cursor;
            if self.pending[lane].is_none() {
                let wire = (self.gen.next_size() as u64 + WIRE_OVERHEAD_BYTES) as f64;
                if self.budget_bytes[lane] < wire {
                    self.cursor += 1;
                    continue;
                }
                let mut pkt = self.gen.generate(self.next_id, now);
                if self.tag_ports {
                    pkt.port = lane as u8;
                }
                self.next_id += 1;
                self.budget_bytes[lane] -= pkt.wire_len() as f64;
                self.pending[lane] = Some(pkt);
            }
            return self.pending[lane].take();
        }
        None
    }

    fn give_back(&mut self, pkt: Packet) {
        // Park the refused frame in the current lane's retry slot and move
        // on: the historical harness broke this port's loop on refusal and
        // continued with the next physical port.
        let lane = self.cursor.min(self.pending.len() - 1);
        debug_assert!(self.pending[lane].is_none(), "one retry slot per lane");
        self.pending[lane] = Some(pkt);
        self.cursor += 1;
    }

    fn clock(&self, _now: Cycle) -> PortClock {
        // A paced source always has more to offer next cycle (budget
        // permitting); drivers poll every cycle.
        PortClock::Idle
    }

    fn backlog(&self) -> usize {
        self.pending.iter().filter(|p| p.is_some()).count()
    }

    fn name(&self) -> &'static str {
        "gen"
    }
}

/// Replays a packet trace (typically parsed from a pcap) through the ingress
/// contract: each packet is delivered at its recorded generation cycle, in
/// order — `tcpreplay` as a port.
///
/// # Examples
///
/// ```
/// use rosebud_kernel::{IngressPort, PortClock};
/// use rosebud_net::{FixedSizeGen, PcapReplayPort, TrafficGen};
///
/// let mut gen = FixedSizeGen::new(64, 2);
/// let trace: Vec<_> = (0..3u64).map(|i| gen.generate(i, i * 50)).collect();
/// let mut port = PcapReplayPort::new(&trace);
/// assert_eq!(port.clock(0), PortClock::Ready);
/// assert_eq!(port.poll(0).unwrap().id, 0);
/// assert_eq!(port.clock(0), PortClock::NotBefore(50));
/// ```
pub struct PcapReplayPort {
    inner: StampedIngress<Packet>,
}

impl PcapReplayPort {
    /// A replay source over `trace`, delivering each packet at its
    /// `ts_gen` cycle.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is not sorted by `ts_gen` (pcap captures are).
    pub fn new(trace: &[Packet]) -> Self {
        let mut inner = StampedIngress::new();
        for pkt in trace {
            inner.push_at(pkt.ts_gen, pkt.clone());
        }
        inner.finish();
        Self { inner }
    }
}

impl IngressPort<Packet> for PcapReplayPort {
    fn poll(&mut self, now: Cycle) -> Option<Packet> {
        self.inner.poll(now)
    }

    fn give_back(&mut self, pkt: Packet) {
        self.inner.give_back(pkt);
    }

    fn clock(&self, now: Cycle) -> PortClock {
        self.inner.clock(now)
    }

    fn backlog(&self) -> usize {
        self.inner.backlog()
    }

    fn name(&self) -> &'static str {
        "pcap-replay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FixedSizeGen;

    #[test]
    fn gen_port_rotates_lanes_and_retries_refusals() {
        // 1 Tbps over 2 lanes: 250 B/cycle/lane — one cycle's budget covers
        // an 88-wire-byte frame immediately.
        let mut port = GenPort::per_port(Box::new(FixedSizeGen::new(64, 2)), 1000.0, 4.0, 2);
        let a = port.poll(0).unwrap();
        assert_eq!(a.port, 0);
        // Refuse it: generation moves to lane 1, lane 0 retries next cycle.
        port.give_back(a.clone());
        let b = port.poll(0).unwrap();
        assert_eq!(b.port, 1);
        assert_eq!(port.backlog(), 1);
        let retry = port.poll(1).unwrap();
        assert_eq!(retry.id, a.id, "refused frame re-delivered first");
    }

    #[test]
    fn gen_port_budget_gates_generation() {
        // 0.1 Gbps at 4 ns/cycle over 1 lane: 0.05 B/cycle — a 64-byte
        // frame (88 wire bytes) needs ~1760 cycles of budget.
        let mut port = GenPort::per_port(Box::new(FixedSizeGen::new(64, 1)), 0.1, 4.0, 1);
        assert!(port.poll(0).is_none());
        let mut first = None;
        for now in 1..4000 {
            if let Some(pkt) = port.poll(now) {
                first = Some((pkt, now));
                break;
            }
        }
        let (_, at) = first.expect("budget eventually covers one frame");
        assert!((1500..2000).contains(&at), "first frame at cycle {at}");
    }

    #[test]
    fn aggregate_mode_keeps_generator_port_rotation() {
        // 500 B/cycle aggregate budget: four 88-wire-byte frames fit in the
        // first cycle's grant.
        let mut port = GenPort::aggregate(Box::new(FixedSizeGen::new(64, 4)), 1000.0, 4.0);
        let ports: Vec<u8> = (0..4).map(|_| port.poll(0).unwrap().port).collect();
        assert_eq!(ports, vec![0, 1, 2, 3]);
    }

    #[test]
    fn replay_port_honors_stamps() {
        let mut gen = FixedSizeGen::new(64, 2);
        let trace: Vec<Packet> = (0..4u64).map(|i| gen.generate(i, i * 100)).collect();
        let mut port = PcapReplayPort::new(&trace);
        assert_eq!(port.poll(0).unwrap().id, 0);
        assert!(port.poll(50).is_none());
        assert_eq!(port.clock(50), PortClock::NotBefore(100));
        assert_eq!(port.poll(100).unwrap().id, 1);
        assert_eq!(port.poll(350).unwrap().id, 2);
        assert_eq!(port.poll(350).unwrap().id, 3);
        assert!(port.inner.is_exhausted());
        assert_eq!(port.clock(350), PortClock::Exhausted);
    }
}
