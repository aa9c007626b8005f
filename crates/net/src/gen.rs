//! Deterministic traffic generators.
//!
//! These play the role of the paper's tester FPGA (`basic_pkt_gen`,
//! `pkt_gen`) and the Scapy/tcpreplay trace-injection scripts (Appendix D):
//! a fixed-size flood for the forwarding experiments, flow-structured TCP/UDP
//! traffic with a configurable reordering rate for the IDS experiments, and
//! an attack-mix wrapper that injects rule-matching payloads at a configured
//! fraction of traffic.

use rosebud_kernel::{Cycle, SimRng};

use crate::builder::PacketBuilder;
use crate::packet::{Packet, PacketId};

/// A source of packets. Implementations must be deterministic given their
/// construction-time seed, so experiments reproduce exactly.
pub trait TrafficGen {
    /// Produces the next packet, stamped with `id` and generation cycle `ts`.
    fn generate(&mut self, id: PacketId, ts: Cycle) -> Packet;

    /// The in-memory frame size the generator is currently producing, used
    /// by the pacing logic of the tester model to compute wire occupancy.
    /// Generators with variable sizes return the size of the *next* packet.
    fn next_size(&self) -> usize;
}

/// Generates same-size UDP frames as fast as asked — the paper's
/// `basic_pkt_gen` firmware (§6.1). Source ports rotate through `flows`
/// distinct values so load balancing policies with hashing still spread
/// traffic.
///
/// # Examples
///
/// ```
/// use rosebud_net::{FixedSizeGen, TrafficGen};
/// let mut gen = FixedSizeGen::new(64, 2);
/// let pkt = gen.generate(0, 0);
/// assert_eq!(pkt.len(), 64);
/// assert_eq!(gen.generate(1, 0).port, 1); // alternates ports
/// ```
#[derive(Debug, Clone)]
pub struct FixedSizeGen {
    size: usize,
    ports: u8,
    flows: u16,
    counter: u64,
}

impl FixedSizeGen {
    /// Creates a generator of `size`-byte frames spread round-robin over
    /// `ports` physical ports.
    ///
    /// # Panics
    ///
    /// Panics if `size < 60` (below the 60-byte minimum frame without FCS)
    /// or `ports == 0`.
    pub fn new(size: usize, ports: u8) -> Self {
        assert!(size >= 60, "frame size below Ethernet minimum");
        assert!(ports > 0, "need at least one port");
        Self {
            size,
            ports,
            flows: 1024,
            counter: 0,
        }
    }

    /// Sets how many distinct source ports (flows) to rotate through.
    pub fn with_flows(mut self, flows: u16) -> Self {
        self.flows = flows.max(1);
        self
    }
}

impl TrafficGen for FixedSizeGen {
    fn generate(&mut self, id: PacketId, ts: Cycle) -> Packet {
        let n = self.counter;
        self.counter += 1;
        PacketBuilder::new()
            .src_ip([10, 0, (n >> 8) as u8, n as u8])
            .dst_ip([10, 1, 0, 1])
            .udp(10_000 + (n % u64::from(self.flows)) as u16, 9)
            .pad_to(self.size)
            .port((n % u64::from(self.ports)) as u8)
            .build_with(id, ts)
    }

    fn next_size(&self) -> usize {
        self.size
    }
}

/// Flow-structured TCP traffic with a configurable reordering rate — the
/// "safe traffic" of the IDS experiment (§7.1.3: 0.3 % reordering is "the
/// typical reordering happening for middlebox traffic").
///
/// Reordering is modelled as in real networks: with probability
/// `reorder_rate`, a packet is delayed by one slot so it arrives after its
/// flow successor.
#[derive(Debug)]
pub struct FlowTrafficGen {
    flows: Vec<FlowState>,
    size: usize,
    ports: u8,
    reorder_rate: f64,
    rng: SimRng,
    held: Option<HeldPacket>,
    counter: u64,
}

#[derive(Debug, Clone)]
struct FlowState {
    src_ip: [u8; 4],
    dst_ip: [u8; 4],
    src_port: u16,
    dst_port: u16,
    seq: u32,
    udp: bool,
}

#[derive(Debug)]
struct HeldPacket {
    flow: usize,
    seq: u32,
}

impl FlowTrafficGen {
    /// Creates a generator over `flow_count` flows producing `size`-byte
    /// frames with the given reordering probability. Roughly 10 % of flows
    /// are UDP, matching the paper's "a small portion of total packets being
    /// UDP" (§7.1.4).
    ///
    /// # Panics
    ///
    /// Panics if `flow_count == 0`, `size < 60`, or `reorder_rate` is not in
    /// `[0, 1]`.
    pub fn new(flow_count: usize, size: usize, reorder_rate: f64, seed: u64) -> Self {
        assert!(flow_count > 0, "need at least one flow");
        assert!(size >= 60, "frame size below Ethernet minimum");
        assert!(
            (0.0..=1.0).contains(&reorder_rate),
            "reorder rate must be a probability"
        );
        let mut rng = SimRng::seed_from(seed);
        let flows = (0..flow_count)
            .map(|_| FlowState {
                src_ip: [
                    10,
                    rng.below(256) as u8,
                    rng.below(256) as u8,
                    1 + rng.below(254) as u8,
                ],
                dst_ip: [172, 16, rng.below(256) as u8, 1 + rng.below(254) as u8],
                src_port: 1024 + rng.below(60_000) as u16,
                dst_port: [80u16, 443, 8080, 22, 25][rng.below(5) as usize],
                seq: rng.next_u32(),
                udp: rng.chance(0.1),
            })
            .collect();
        Self {
            flows,
            size,
            ports: 2,
            reorder_rate,
            rng,
            held: None,
            counter: 0,
        }
    }

    fn emit(&mut self, flow_idx: usize, seq: u32, id: PacketId, ts: Cycle) -> Packet {
        let port = (self.counter % u64::from(self.ports)) as u8;
        self.counter += 1;
        let flow = &self.flows[flow_idx];
        let builder = PacketBuilder::new()
            .src_ip(flow.src_ip)
            .dst_ip(flow.dst_ip)
            .port(port);
        let builder = if flow.udp {
            builder.udp(flow.src_port, flow.dst_port)
        } else {
            builder.tcp(flow.src_port, flow.dst_port).seq(seq)
        };
        builder.pad_to(self.size).build_with(id, ts)
    }

    /// The payload length carried by each generated frame.
    pub(crate) fn payload_len(&self) -> usize {
        self.size.saturating_sub(54)
    }
}

impl TrafficGen for FlowTrafficGen {
    fn generate(&mut self, id: PacketId, ts: Cycle) -> Packet {
        // Release a held (reordered) packet after exactly one successor.
        if let Some(held) = self.held.take() {
            return self.emit(held.flow, held.seq, id, ts);
        }
        let flow_idx = self.rng.below(self.flows.len() as u64) as usize;
        let payload = self.payload_len() as u32;
        let seq = self.flows[flow_idx].seq;
        self.flows[flow_idx].seq = seq.wrapping_add(payload.max(1));
        if self.rng.chance(self.reorder_rate) && !self.flows[flow_idx].udp {
            // Swap this packet with its flow successor: emit the successor
            // now, the current one on the next call.
            let next_seq = self.flows[flow_idx].seq;
            self.flows[flow_idx].seq = next_seq.wrapping_add(payload.max(1));
            self.held = Some(HeldPacket {
                flow: flow_idx,
                seq,
            });
            return self.emit(flow_idx, next_seq, id, ts);
        }
        self.emit(flow_idx, seq, id, ts)
    }

    fn next_size(&self) -> usize {
        self.size
    }
}

/// Wraps a base generator and replaces a configured fraction of packets with
/// attack packets whose payloads contain the supplied patterns — the 1 %
/// attack traffic of the IDS experiment (§7.1.3), or the blacklist-sourced
/// packets of the firewall experiment (§7.2 swaps source IPs instead; see
/// [`AttackMixGen::with_attack_ips`]).
pub struct AttackMixGen<G> {
    base: G,
    attack_fraction: f64,
    attack_payloads: Vec<Vec<u8>>,
    attack_ips: Vec<[u8; 4]>,
    rng: SimRng,
    next: u64,
}

impl<G: TrafficGen> AttackMixGen<G> {
    /// Creates a mixer emitting attack packets at `attack_fraction` of total
    /// traffic, with payloads drawn round-robin from `attack_payloads`.
    ///
    /// # Panics
    ///
    /// Panics if `attack_fraction` is not in `[0, 1]`.
    pub fn new(base: G, attack_fraction: f64, attack_payloads: Vec<Vec<u8>>, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&attack_fraction),
            "attack fraction must be a probability"
        );
        Self {
            base,
            attack_fraction,
            attack_payloads,
            attack_ips: Vec::new(),
            rng: SimRng::seed_from(seed),
            next: 0,
        }
    }

    /// Additionally (or instead) marks attack packets by rewriting their
    /// source IP to one drawn from `ips` — the firewall blacklist case.
    pub fn with_attack_ips(mut self, ips: Vec<[u8; 4]>) -> Self {
        self.attack_ips = ips;
        self
    }
}

impl<G: TrafficGen> TrafficGen for AttackMixGen<G> {
    fn generate(&mut self, id: PacketId, ts: Cycle) -> Packet {
        let mut pkt = self.base.generate(id, ts);
        if !self.rng.chance(self.attack_fraction) {
            return pkt;
        }
        self.next += 1;
        if !self.attack_payloads.is_empty() {
            let pattern = &self.attack_payloads[(self.next as usize) % self.attack_payloads.len()];
            if let Some(off) = pkt.payload_offset() {
                let room = pkt.data.len().saturating_sub(off);
                if room >= pattern.len() {
                    // Plant the attack pattern at a deterministic offset.
                    let slack = room - pattern.len();
                    let at = off
                        + if slack == 0 {
                            0
                        } else {
                            (self.next as usize * 7) % slack.max(1)
                        };
                    pkt.data[at..at + pattern.len()].copy_from_slice(pattern);
                } else {
                    // Frame too small for the pattern: grow it.
                    pkt.data.truncate(off);
                    pkt.data.extend_from_slice(pattern);
                }
            }
        }
        if !self.attack_ips.is_empty() {
            let ip = self.attack_ips[(self.next as usize) % self.attack_ips.len()];
            if pkt.ipv4().is_ok() {
                pkt.data[26..30].copy_from_slice(&ip);
                // Re-checksum the mutated IPv4 header.
                let csum = crate::ipv4_checksum(&pkt.data[14..34]);
                pkt.data[24..26].copy_from_slice(&csum.to_be_bytes());
            }
        }
        pkt
    }

    fn next_size(&self) -> usize {
        self.base.next_size()
    }
}

/// The classic Internet-mix distribution: 7 parts 64 B, 4 parts 576 B,
/// 1 part 1500 B (≈ 354 B average) — a realistic stand-in for the "internet
/// traces" whose >800 B average the paper cites for its headline operating
/// point. The exact weights are configurable.
#[derive(Debug)]
pub struct ImixGen {
    entries: Vec<(usize, u32)>,
    total_weight: u32,
    rng: SimRng,
    ports: u8,
    next_size: usize,
    counter: u64,
}

impl ImixGen {
    /// The standard simple-IMIX weights.
    pub fn new(ports: u8, seed: u64) -> Self {
        Self::with_weights(&[(64, 7), (576, 4), (1500, 1)], ports, seed)
    }

    /// Custom `(size, weight)` table.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, any size is under 60 bytes, any weight
    /// is zero, or `ports` is zero.
    fn with_weights(weights: &[(usize, u32)], ports: u8, seed: u64) -> Self {
        assert!(!weights.is_empty(), "need at least one size class");
        assert!(ports > 0, "need at least one port");
        for &(size, w) in weights {
            assert!(size >= 60, "frame size below Ethernet minimum");
            assert!(w > 0, "zero weight");
        }
        let total_weight = weights.iter().map(|&(_, w)| w).sum();
        let mut gen = Self {
            entries: weights.to_vec(),
            total_weight,
            rng: SimRng::seed_from(seed),
            ports,
            next_size: weights[0].0,
            counter: 0,
        };
        gen.roll();
        gen
    }

    fn roll(&mut self) {
        let mut pick = self.rng.below(u64::from(self.total_weight)) as u32;
        for &(size, w) in &self.entries {
            if pick < w {
                self.next_size = size;
                return;
            }
            pick -= w;
        }
    }
}

impl TrafficGen for ImixGen {
    fn generate(&mut self, id: PacketId, ts: Cycle) -> Packet {
        let size = self.next_size;
        self.roll();
        let n = self.counter;
        self.counter += 1;
        // Source IPs rotate through 64 Ki addresses, source ports through 512.
        PacketBuilder::new()
            .src_ip([10, 2, (n >> 8) as u8, n as u8])
            .dst_ip([10, 3, 0, 1])
            .udp(20_000 + (n % 512) as u16, 9)
            .pad_to(size)
            .port((n % u64::from(self.ports)) as u8)
            .build_with(id, ts)
    }

    fn next_size(&self) -> usize {
        self.next_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_size_is_fixed() {
        let mut gen = FixedSizeGen::new(1500, 2);
        for i in 0..100 {
            assert_eq!(gen.generate(i, 0).len(), 1500);
        }
    }

    #[test]
    fn flow_gen_is_deterministic_per_seed() {
        let mut a = FlowTrafficGen::new(16, 256, 0.1, 99);
        let mut b = FlowTrafficGen::new(16, 256, 0.1, 99);
        for i in 0..200 {
            assert_eq!(a.generate(i, 0).data, b.generate(i, 0).data);
        }
    }

    #[test]
    fn flow_gen_reorders_at_roughly_configured_rate() {
        // Count inversions: packets of a flow whose TCP seq is lower than
        // the previously seen seq of that flow.
        let rate = 0.05;
        let mut gen = FlowTrafficGen::new(8, 128, rate, 7);
        let mut last_seq: std::collections::HashMap<u16, u32> = Default::default();
        let mut inversions = 0usize;
        let total = 20_000;
        for i in 0..total {
            let pkt = gen.generate(i, 0);
            if let Ok(tcp) = pkt.tcp() {
                let key = tcp.src_port;
                if let Some(&prev) = last_seq.get(&key) {
                    if tcp.seq.wrapping_sub(prev) > u32::MAX / 2 {
                        inversions += 1;
                    }
                }
                last_seq.insert(key, tcp.seq);
            }
        }
        let observed = inversions as f64 / total as f64;
        assert!(
            (observed - rate * 0.9).abs() < 0.03,
            "observed reordering rate {observed}, expected ~{rate}"
        );
    }

    #[test]
    fn zero_reorder_rate_keeps_flows_in_order() {
        let mut gen = FlowTrafficGen::new(4, 128, 0.0, 3);
        let mut last_seq: std::collections::HashMap<u16, u32> = Default::default();
        for i in 0..5_000 {
            let pkt = gen.generate(i, 0);
            if let Ok(tcp) = pkt.tcp() {
                if let Some(&prev) = last_seq.get(&tcp.src_port) {
                    assert!(
                        tcp.seq.wrapping_sub(prev) < u32::MAX / 2,
                        "flow went backwards with reorder_rate = 0"
                    );
                }
                last_seq.insert(tcp.src_port, tcp.seq);
            }
        }
    }

    #[test]
    fn attack_mix_plants_patterns_at_configured_fraction() {
        let pattern = b"EVILEVILEVIL".to_vec();
        let base = FlowTrafficGen::new(8, 512, 0.0, 1);
        let mut gen = AttackMixGen::new(base, 0.01, vec![pattern.clone()], 2);
        let total = 50_000;
        let mut hits = 0;
        for i in 0..total {
            let pkt = gen.generate(i, 0);
            if pkt
                .payload()
                .map(|p| p.windows(pattern.len()).any(|w| w == &pattern[..]))
                .unwrap_or(false)
            {
                hits += 1;
            }
        }
        let frac = hits as f64 / total as f64;
        assert!(
            (frac - 0.01).abs() < 0.004,
            "attack fraction {frac}, expected ~0.01"
        );
    }

    #[test]
    fn imix_mixes_sizes_at_configured_weights() {
        let mut gen = ImixGen::new(2, 4);
        let mut counts = std::collections::HashMap::new();
        for i in 0..12_000 {
            // next_size must predict the generated packet's size.
            let predicted = gen.next_size();
            let pkt = gen.generate(i, 0);
            assert_eq!(pkt.len() as usize, predicted);
            *counts.entry(pkt.len()).or_insert(0u32) += 1;
        }
        let c64 = counts[&64] as f64 / 12_000.0;
        let c576 = counts[&576] as f64 / 12_000.0;
        let c1500 = counts[&1500] as f64 / 12_000.0;
        assert!((c64 - 7.0 / 12.0).abs() < 0.03, "64B fraction {c64}");
        assert!((c576 - 4.0 / 12.0).abs() < 0.03, "576B fraction {c576}");
        assert!((c1500 - 1.0 / 12.0).abs() < 0.03, "1500B fraction {c1500}");
    }

    #[test]
    fn attack_ips_rewrite_source_and_fix_checksum() {
        let base = FixedSizeGen::new(128, 1);
        let mut gen =
            AttackMixGen::new(base, 1.0, Vec::new(), 5).with_attack_ips(vec![[6, 6, 6, 6]]);
        let pkt = gen.generate(0, 0);
        let ip = pkt.ipv4().unwrap();
        assert_eq!(ip.src, [6, 6, 6, 6]);
        // The rewritten header must still checksum to 0xffff.
        let buf = &pkt.bytes()[14..34];
        let mut sum: u32 = 0;
        for i in (0..20).step_by(2) {
            sum += u32::from(u16::from_be_bytes([buf[i], buf[i + 1]]));
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        assert_eq!(sum, 0xffff);
    }
}
