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
/// The generator runs on its own clock, not on the driver's polls: a cycle
/// the driver did not poll counts as one in which every offer was refused,
/// so the next poll first replays those cycles in order — one grant each,
/// then every lane with an empty retry slot whose budget covers the next
/// frame generates it there, stamped with that cycle. A driver may thus
/// poll only when its device can take a frame, and between polls only from
/// the cycle [`IngressPort::clock`] names on; every frame, id and stamp is
/// the one per-cycle polling with those offers refused would give.
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
    /// No lane can offer a frame before this cycle: set when a poll runs
    /// dry, cleared when one hands a frame out.
    due: Cycle,
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
            due: 0,
        }
    }

    /// Frames generated so far (== the next packet id).
    pub fn generated(&self) -> u64 {
        self.next_id
    }

    /// The next frame's wire occupancy in bytes.
    fn next_wire(&self) -> f64 {
        (self.gen.next_size() as u64 + WIRE_OVERHEAD_BYTES) as f64
    }

    /// Generates the next frame on `lane`, stamped `ts`, and charges the
    /// lane's budget for it.
    fn generate(&mut self, lane: usize, ts: Cycle) -> Packet {
        let mut pkt = self.gen.generate(self.next_id, ts);
        if self.tag_ports {
            pkt.port = lane as u8;
        }
        self.next_id += 1;
        self.budget_bytes[lane] -= pkt.wire_len() as f64;
        pkt
    }

    /// One cycle's grant to every lane; `true` when every budget is full.
    fn grant(&mut self) -> bool {
        let (bytes_per_cycle, cap) = (self.bytes_per_cycle, self.cap);
        let mut full = true;
        for b in &mut self.budget_bytes {
            *b = (*b + bytes_per_cycle).min(cap);
            full &= *b == cap;
        }
        full
    }

    /// Opens cycle `now`: replays every cycle since the last poll as one in
    /// which every offer was refused, grants `now`'s budget and rewinds the
    /// lane cursor. A poll one cycle after the last replays nothing.
    fn refill(&mut self, now: Cycle) {
        if let Some(last) = self.last_refill {
            if now <= last {
                return;
            }
            for cycle in last + 1..now {
                if self.refused_cycle(cycle) {
                    break;
                }
            }
        }
        self.grant();
        self.cursor = 0;
        self.last_refill = Some(now);
    }

    /// An unpolled `cycle`, as a poll whose every offer was refused: the
    /// grant, then each lane with an empty retry slot whose budget covers
    /// the next frame generates it there (none can before the last dry
    /// poll's bound). `true` at a fixed point — nothing generated and every
    /// budget full — from which more such cycles change nothing.
    fn refused_cycle(&mut self, cycle: Cycle) -> bool {
        let full = self.grant();
        if cycle < self.due {
            return full;
        }
        let mut generated = false;
        for lane in 0..self.pending.len() {
            if self.pending[lane].is_none() && self.budget_bytes[lane] >= self.next_wire() {
                self.pending[lane] = Some(self.generate(lane, cycle));
                generated = true;
            }
        }
        full && !generated
    }

    /// After a poll at `now` ran dry: the first cycle a lane could offer a
    /// frame, or a cycle before it. A parked retry frame is offered next
    /// cycle. Otherwise the fullest lane needs `⌈(wire − budget) / grant⌉`
    /// grants; one fewer absorbs the rounding of the per-cycle float steps,
    /// since an early answer costs one empty poll and a late one a frame.
    fn due_after(&self, now: Cycle) -> Cycle {
        if self.pending.iter().any(Option::is_some) {
            return now + 1;
        }
        let fullest = self.budget_bytes.iter().copied().fold(f64::MIN, f64::max);
        let grants = ((self.next_wire() - fullest) / self.bytes_per_cycle).floor() as u64;
        now.saturating_add(grants.saturating_sub(1).max(1))
    }
}

impl IngressPort<Packet> for GenPort {
    fn poll(&mut self, now: Cycle) -> Option<Packet> {
        self.refill(now);
        while self.cursor < self.pending.len() {
            let lane = self.cursor;
            let pkt = match self.pending[lane].take() {
                Some(pkt) => pkt,
                None if self.budget_bytes[lane] >= self.next_wire() => self.generate(lane, now),
                None => {
                    self.cursor += 1;
                    continue;
                }
            };
            self.due = 0;
            return Some(pkt);
        }
        self.due = self.due_after(now);
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

    /// `Ready` while a retry frame is parked or a lane could generate;
    /// otherwise `NotBefore` a lower bound on the first cycle one could.
    #[inline]
    fn clock(&self, now: Cycle) -> PortClock {
        if now < self.due {
            PortClock::NotBefore(self.due)
        } else {
            PortClock::Ready
        }
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
