//! The customizable packet load balancer (paper §4.2).
//!
//! The LB labels each arriving packet with a destination RPU and memory
//! slot. Slots are advertised by the RPUs at boot and tracked centrally; the
//! policy deciding *which* RPU gets a packet is user-replaceable — the paper
//! ships round-robin and hash-based policies and reserves a PR block for
//! custom ones. The host configures and inspects the LB through a 30-bit
//! read/write register channel.

use rosebud_accel::ResourceUsage;
use rosebud_net::{flow_hash, Packet};

/// Central accounting of per-RPU packet slots. The LB "refers to packet
/// memory in RPUs by a descriptor (slot number)" and only ever assigns free
/// slots, so "any packet past the LB can be absorbed by RPUs" (§6.2) — the
/// property that keeps added latency marginal under load.
#[derive(Debug, Clone)]
pub struct SlotTracker {
    free: Vec<Vec<u8>>,
    capacity: usize,
}

impl SlotTracker {
    /// Creates a tracker for `num_rpus` RPUs advertising `slots` slots each.
    pub(crate) fn new(num_rpus: usize, slots: usize) -> Self {
        assert!(slots <= 256, "slot tags are 8-bit");
        Self {
            free: (0..num_rpus)
                .map(|_| (0..slots as u8).rev().collect())
                .collect(),
            capacity: slots,
        }
    }

    /// Number of RPUs tracked.
    pub(crate) fn num_rpus(&self) -> usize {
        self.free.len()
    }

    /// Slots currently free on `rpu`.
    pub(crate) fn free_count(&self, rpu: usize) -> usize {
        self.free[rpu].len()
    }

    /// Slots of `rpu` currently bound to a frame.
    pub(crate) fn bound_count(&self, rpu: usize) -> usize {
        self.capacity - self.free[rpu].len()
    }

    /// Takes a free slot on `rpu`, if any.
    pub(crate) fn alloc(&mut self, rpu: usize) -> Option<u8> {
        self.free[rpu].pop()
    }

    /// Returns `slot` on `rpu` to the free pool.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already free (a double-free means the
    /// interconnect notified the LB twice — a protocol bug worth failing
    /// loudly on).
    pub(crate) fn release(&mut self, rpu: usize, slot: u8) {
        assert!(
            !self.free[rpu].contains(&slot),
            "double free of slot {slot} on RPU {rpu}"
        );
        assert!(
            self.free[rpu].len() < self.capacity,
            "releasing more slots than RPU {rpu} advertised"
        );
        self.free[rpu].push(slot);
    }

    /// Marks every slot of `rpu` free — the host-side flush before loading a
    /// new RPU (§4.2).
    pub(crate) fn flush(&mut self, rpu: usize) {
        self.free[rpu] = (0..self.capacity as u8).rev().collect();
    }

    /// `true` when every slot of `rpu` is free (drain complete).
    pub fn all_free(&self, rpu: usize) -> bool {
        self.free[rpu].len() == self.capacity
    }
}

/// A load-balancing policy. Implementations are dropped into the LB's
/// partially reconfigurable block; this trait is the Rust rendering of that
/// interface, including the host's 30-bit register channel.
pub trait LoadBalancer: Send {
    /// Policy name for diagnostics and resource tables.
    fn name(&self) -> &str;

    /// Picks a destination RPU for `pkt` among RPUs that are enabled in
    /// `enabled` (bit per RPU) and have a free slot in `tracker`. `None`
    /// stalls the packet at the head of its ingress FIFO.
    fn assign(&mut self, pkt: &Packet, tracker: &SlotTracker, enabled: u64) -> Option<usize>;

    /// Bytes the LB prepends to the packet before delivery (the hash LB
    /// "pads the 4-byte hash result to the beginning of each packet",
    /// §7.1.2).
    fn prepend(&mut self, pkt: &Packet) -> Option<Vec<u8>> {
        let _ = pkt;
        None
    }

    /// Host register read (30-bit address space, §4.2).
    fn host_read(&mut self, addr: u32) -> u32 {
        let _ = addr;
        0
    }

    /// Host register write.
    fn host_write(&mut self, addr: u32, value: u32) {
        let _ = (addr, value);
    }

    /// FPGA resources of this policy implementation.
    fn resources(&self, num_rpus: usize) -> ResourceUsage;
}

/// Round-robin policy — the default used for the framework evaluation (§6).
#[derive(Debug, Clone, Default)]
pub struct RoundRobinLb {
    next: usize,
}

impl RoundRobinLb {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl LoadBalancer for RoundRobinLb {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn assign(&mut self, _pkt: &Packet, tracker: &SlotTracker, enabled: u64) -> Option<usize> {
        let n = tracker.num_rpus();
        for step in 0..n {
            let rpu = (self.next + step) % n;
            if enabled & (1 << rpu) != 0 && tracker.free_count(rpu) > 0 {
                self.next = (rpu + 1) % n;
                return Some(rpu);
            }
        }
        None
    }

    fn resources(&self, num_rpus: usize) -> ResourceUsage {
        // Calibrated to Tables 1 and 2 (16 RPUs: 8221 LUTs / 22503 FFs;
        // 8 RPUs: 7580 / 22076) — arbitration logic grows with RPU count.
        let n = num_rpus as u32;
        ResourceUsage {
            luts: 6940 + n * 80,
            regs: 21650 + n * 53,
            bram: 0,
            uram: 0,
            dsp: 0,
        }
    }
}

/// Flow-hash policy with inline hash computation: packets of a flow always
/// reach the same RPU, and the 4-byte hash is prepended so firmware reuses
/// it "without recomputation" (§7.1.2). Used by the software-reordering
/// Pigasus configuration.
#[derive(Debug, Clone, Default)]
pub struct HashLb {
    non_ip_next: usize,
}

impl HashLb {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn target(&self, hash: u32, n: usize) -> usize {
        if n.is_power_of_two() {
            (hash as usize) & (n - 1) // "3 bits of the same hash" for 8 RPUs
        } else {
            (hash as usize) % n
        }
    }
}

impl LoadBalancer for HashLb {
    fn name(&self) -> &str {
        "hash"
    }

    fn assign(&mut self, pkt: &Packet, tracker: &SlotTracker, enabled: u64) -> Option<usize> {
        let n = tracker.num_rpus();
        match flow_hash(pkt) {
            Some(hash) => {
                let rpu = self.target(hash, n);
                if enabled & (1 << rpu) == 0 {
                    // Flow affinity cannot hold while the home RPU is being
                    // reconfigured; rehash over the enabled set.
                    let enabled_rpus: Vec<usize> =
                        (0..n).filter(|r| enabled & (1 << r) != 0).collect();
                    if enabled_rpus.is_empty() {
                        return None;
                    }
                    let alt = enabled_rpus[(hash as usize) % enabled_rpus.len()];
                    return (tracker.free_count(alt) > 0).then_some(alt);
                }
                // Affinity is strict: a full home RPU stalls the flow.
                (tracker.free_count(rpu) > 0).then_some(rpu)
            }
            None => {
                // Non-IP traffic round-robins.
                for step in 0..n {
                    let rpu = (self.non_ip_next + step) % n;
                    if enabled & (1 << rpu) != 0 && tracker.free_count(rpu) > 0 {
                        self.non_ip_next = (rpu + 1) % n;
                        return Some(rpu);
                    }
                }
                None
            }
        }
    }

    fn prepend(&mut self, pkt: &Packet) -> Option<Vec<u8>> {
        flow_hash(pkt).map(|h| h.to_le_bytes().to_vec())
    }

    fn resources(&self, num_rpus: usize) -> ResourceUsage {
        // Table 3: the hash LB for the 8-RPU Pigasus build uses 10467 LUTs,
        // 24872 FFs and 26 BRAMs (the inline hash unit's tables).
        let rr = RoundRobinLb::new().resources(num_rpus);
        ResourceUsage {
            luts: rr.luts + 2247,
            regs: rr.regs + 2372,
            bram: 26,
            uram: 0,
            dsp: 0,
        }
    }
}

/// "A policy designed specifically for their target middlebox application,
/// for instance one that assigns a new packet to the least-loaded core"
/// (§3.1).
#[derive(Debug, Clone, Default)]
pub struct LeastLoadedLb;

impl LeastLoadedLb {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl LoadBalancer for LeastLoadedLb {
    fn name(&self) -> &str {
        "least-loaded"
    }

    fn assign(&mut self, _pkt: &Packet, tracker: &SlotTracker, enabled: u64) -> Option<usize> {
        (0..tracker.num_rpus())
            .filter(|&r| enabled & (1 << r) != 0 && tracker.free_count(r) > 0)
            .max_by_key(|&r| tracker.free_count(r))
    }

    fn resources(&self, num_rpus: usize) -> ResourceUsage {
        // Comparator tree over per-RPU occupancy counters.
        let rr = RoundRobinLb::new().resources(num_rpus);
        ResourceUsage {
            luts: rr.luts + 400 + num_rpus as u32 * 24,
            regs: rr.regs + num_rpus as u32 * 16,
            ..rr
        }
    }
}

/// A consistent-hash ring with virtual nodes — the fleet's ECMP front load
/// balancer policy.
///
/// Each member box contributes `vnodes` points on a 64-bit ring; a flow
/// hash is steered to the first live point clockwise. Removing a box
/// re-steers *only* the flows whose successor point belonged to that box
/// (its points are skipped, not recomputed), and restoring it sends exactly
/// those flows home again — the bounded-disturbance property the fleet
/// failover tests assert.
#[derive(Debug, Clone)]
pub(crate) struct ConsistentHashRing {
    /// `(point, node)` sorted by point.
    points: Vec<(u64, u16)>,
    live: Vec<bool>,
}

impl ConsistentHashRing {
    /// A ring over `nodes` members with `vnodes` points each, all live.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `vnodes` is zero, or `nodes > u16::MAX`.
    pub(crate) fn new(nodes: usize, vnodes: usize) -> Self {
        assert!(nodes > 0, "need at least one node");
        assert!(vnodes > 0, "need at least one virtual node");
        assert!(nodes <= usize::from(u16::MAX), "node index must fit u16");
        let mut points: Vec<(u64, u16)> = (0..nodes)
            .flat_map(|n| (0..vnodes).map(move |v| (Self::point(n as u64, v as u64), n as u16)))
            .collect();
        points.sort_unstable();
        Self {
            points,
            live: vec![true; nodes],
        }
    }

    /// splitmix64 over the (node, replica) pair: deterministic, well-mixed
    /// ring points.
    fn point(node: u64, replica: u64) -> u64 {
        let mut z = ((node << 32) | replica).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Takes a node's points out of rotation (drain). Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if this would leave no live node — an ECMP group must always
    /// have somewhere to steer.
    pub(crate) fn remove(&mut self, node: usize) {
        let was_live = self.live[node];
        self.live[node] = false;
        if self.live.iter().all(|l| !l) {
            self.live[node] = was_live;
            panic!("cannot remove the last live node from the ring");
        }
    }

    /// Returns a node's points to rotation (re-admission). Idempotent.
    pub(crate) fn restore(&mut self, node: usize) {
        self.live[node] = true;
    }

    /// Whether a node is currently in rotation.
    pub(crate) fn is_live(&self, node: usize) -> bool {
        self.live[node]
    }

    /// Number of live members.
    pub(crate) fn live_count(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    /// The live node owning `hash`: the first live point at or clockwise of
    /// the hash, wrapping.
    pub(crate) fn node_for(&self, hash: u64) -> usize {
        let start = self.points.partition_point(|&(p, _)| p < hash);
        let n = self.points.len();
        for i in 0..n {
            let (_, node) = self.points[(start + i) % n];
            if self.live[usize::from(node)] {
                return usize::from(node);
            }
        }
        unreachable!("ring always has a live node");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rosebud_net::PacketBuilder;

    fn pkt(src_port: u16) -> Packet {
        PacketBuilder::new().tcp(src_port, 80).pad_to(64).build()
    }

    #[test]
    fn tracker_alloc_release_cycle() {
        let mut t = SlotTracker::new(2, 4);
        let s0 = t.alloc(0).unwrap();
        let s1 = t.alloc(0).unwrap();
        assert_ne!(s0, s1);
        assert_eq!(t.free_count(0), 2);
        t.release(0, s0);
        assert_eq!(t.free_count(0), 3);
        assert!(!t.all_free(0));
        t.release(0, s1);
        assert!(t.all_free(0));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn tracker_double_free_panics() {
        let mut t = SlotTracker::new(1, 2);
        let s = t.alloc(0).unwrap();
        t.release(0, s);
        t.release(0, s);
    }

    #[test]
    fn round_robin_cycles_through_enabled_rpus() {
        let tracker = SlotTracker::new(4, 4);
        let mut lb = RoundRobinLb::new();
        let picks: Vec<usize> = (0..8)
            .map(|i| lb.assign(&pkt(i), &tracker, 0b1111).unwrap())
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn round_robin_skips_disabled_and_full() {
        let mut tracker = SlotTracker::new(4, 1);
        let mut lb = RoundRobinLb::new();
        // Disable RPU 1; exhaust RPU 2.
        while tracker.alloc(2).is_some() {}
        let picks: Vec<usize> = (0..4)
            .map(|i| lb.assign(&pkt(i), &tracker, 0b1101).unwrap())
            .collect();
        assert_eq!(picks, vec![0, 3, 0, 3]);
    }

    #[test]
    fn round_robin_stalls_when_nothing_available() {
        let tracker = SlotTracker::new(2, 2);
        let mut lb = RoundRobinLb::new();
        assert_eq!(lb.assign(&pkt(1), &tracker, 0), None);
    }

    #[test]
    fn hash_lb_is_flow_sticky() {
        let tracker = SlotTracker::new(8, 4);
        let mut lb = HashLb::new();
        for port in [100u16, 2000, 40000] {
            let first = lb.assign(&pkt(port), &tracker, 0xff).unwrap();
            for _ in 0..5 {
                assert_eq!(lb.assign(&pkt(port), &tracker, 0xff), Some(first));
            }
        }
    }

    #[test]
    fn hash_lb_prepends_flow_hash() {
        let mut lb = HashLb::new();
        let p = pkt(7);
        let pre = lb.prepend(&p).unwrap();
        assert_eq!(pre.len(), 4);
        assert_eq!(
            u32::from_le_bytes(pre.try_into().unwrap()),
            flow_hash(&p).unwrap()
        );
    }

    #[test]
    fn hash_lb_rehashes_around_disabled_home() {
        let tracker = SlotTracker::new(8, 4);
        let mut lb = HashLb::new();
        let p = pkt(123);
        let home = lb.assign(&p, &tracker, 0xff).unwrap();
        let masked = 0xffu64 & !(1 << home);
        let alt = lb.assign(&p, &tracker, masked).unwrap();
        assert_ne!(alt, home);
    }

    #[test]
    fn hash_lb_stalls_on_full_home() {
        let mut tracker = SlotTracker::new(8, 1);
        let mut lb = HashLb::new();
        let p = pkt(55);
        let home = lb.assign(&p, &tracker, 0xff).unwrap();
        while tracker.alloc(home).is_some() {}
        assert_eq!(lb.assign(&p, &tracker, 0xff), None, "affinity must stall");
    }

    #[test]
    fn least_loaded_picks_emptiest() {
        let mut tracker = SlotTracker::new(3, 8);
        for _ in 0..5 {
            tracker.alloc(0);
        }
        for _ in 0..2 {
            tracker.alloc(1);
        }
        let mut lb = LeastLoadedLb::new();
        assert_eq!(lb.assign(&pkt(1), &tracker, 0b111), Some(2));
    }

    #[test]
    fn ring_disturbance_is_bounded_to_the_removed_node() {
        let mut ring = ConsistentHashRing::new(4, 64);
        let hashes: Vec<u64> = (0..20_000u64)
            .map(|i| rosebud_net::extend_hash(i as u32))
            .collect();
        let before: Vec<usize> = hashes.iter().map(|&h| ring.node_for(h)).collect();
        ring.remove(2);
        let mut moved = 0usize;
        for (&h, &was) in hashes.iter().zip(&before) {
            let now = ring.node_for(h);
            if was != 2 {
                assert_eq!(now, was, "flow not owned by the dead node moved");
            } else {
                assert_ne!(now, 2);
                moved += 1;
            }
        }
        // Roughly a quarter of flows lived on the removed node.
        assert!((3_000..7_000).contains(&moved), "moved {moved}");
        // Restoring sends exactly the displaced flows home.
        ring.restore(2);
        for (&h, &was) in hashes.iter().zip(&before) {
            assert_eq!(ring.node_for(h), was);
        }
    }

    #[test]
    fn ring_spreads_load_roughly_evenly() {
        let ring = ConsistentHashRing::new(4, 64);
        let mut counts = [0usize; 4];
        for i in 0..40_000u64 {
            counts[ring.node_for(rosebud_net::extend_hash(i as u32))] += 1;
        }
        for (n, &c) in counts.iter().enumerate() {
            assert!(
                (5_000..=16_000).contains(&c),
                "node {n} owns {c} of 40000 flows"
            );
        }
    }

    #[test]
    #[should_panic(expected = "last live node")]
    fn ring_refuses_to_empty() {
        let mut ring = ConsistentHashRing::new(2, 8);
        ring.remove(0);
        ring.remove(1);
    }

    #[test]
    fn lb_resources_match_tables_1_and_2() {
        let rr = RoundRobinLb::new();
        let r16 = rr.resources(16);
        assert!(
            (r16.luts as i64 - 8221).abs() < 20,
            "16-RPU LUTs {}",
            r16.luts
        );
        assert!((r16.regs as i64 - 22503).abs() < 20);
        let r8 = rr.resources(8);
        assert!((r8.luts as i64 - 7580).abs() < 20, "8-RPU LUTs {}", r8.luts);
        assert!((r8.regs as i64 - 22076).abs() < 20);
        let hash = HashLb::new().resources(8);
        assert!(
            (hash.luts as i64 - 10467).abs() < 700,
            "hash LUTs {}",
            hash.luts
        );
        assert_eq!(hash.bram, 26);
    }
}
