//! 5-tuple flow identification and hashing.

use crate::headers::{ETH_HEADER_LEN, IPV4_HEADER_LEN};
use crate::packet::Packet;
use crate::IpProtocol;

/// A 5-tuple flow key.
///
/// The hash-based load balancer in the Pigasus case study computes a 32-bit
/// hash of this tuple inline and prepends it to each packet so the firmware
/// can reuse it without recomputation (§7.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// Source IPv4 address (host order).
    pub src_ip: u32,
    /// Destination IPv4 address (host order).
    pub(crate) dst_ip: u32,
    /// Source L4 port.
    pub src_port: u16,
    /// Destination L4 port.
    pub dst_port: u16,
    /// IP protocol number.
    pub protocol: u8,
}

impl FlowKey {
    /// Extracts the flow key from a TCP or UDP over IPv4 packet. Returns
    /// `None` for anything else.
    pub fn of(pkt: &Packet) -> Option<Self> {
        let ip = pkt.ipv4().ok()?;
        let l4 = pkt.bytes().get(ETH_HEADER_LEN + IPV4_HEADER_LEN..)?;
        if l4.len() < 4 {
            return None;
        }
        if ip.protocol != IpProtocol::TCP && ip.protocol != IpProtocol::UDP {
            return None;
        }
        Some(Self {
            src_ip: ip.src_u32(),
            dst_ip: ip.dst_u32(),
            src_port: u16::from_be_bytes([l4[0], l4[1]]),
            dst_port: u16::from_be_bytes([l4[2], l4[3]]),
            protocol: ip.protocol.0,
        })
    }

    /// The 32-bit flow hash of this key.
    pub(crate) fn hash(&self) -> u32 {
        let mut h = FNV_OFFSET;
        for b in self
            .src_ip
            .to_be_bytes()
            .into_iter()
            .chain(self.dst_ip.to_be_bytes())
            .chain(self.src_port.to_be_bytes())
            .chain(self.dst_port.to_be_bytes())
            .chain([self.protocol])
        {
            h ^= u32::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        // A final avalanche so low bits are well mixed: the LB keys RPUs off
        // only 3–4 bits of the hash (§7.1.2).
        h ^= h >> 16;
        h = h.wrapping_mul(0x7feb_352d);
        h ^= h >> 15;
        h
    }
}

const FNV_OFFSET: u32 = 0x811c_9dc5;
const FNV_PRIME: u32 = 0x0100_0193;

/// Convenience: the flow hash of a packet, or `None` for non-TCP/UDP frames.
///
/// # Examples
///
/// ```
/// use rosebud_net::{flow_hash, PacketBuilder};
/// let a = PacketBuilder::new().tcp(1000, 80).build();
/// let b = PacketBuilder::new().tcp(1000, 80).payload(b"different body").build();
/// assert_eq!(flow_hash(&a), flow_hash(&b)); // same flow, same hash
/// ```
pub fn flow_hash(pkt: &Packet) -> Option<u32> {
    FlowKey::of(pkt).map(|k| k.hash())
}

/// Extends a 32-bit flow hash to 64 bits with a splitmix64 finalizer —
/// consistent-hash rings and sharded tables want far more than 32 bits of
/// key space when tracking millions of flows.
pub fn extend_hash(h: u32) -> u64 {
    let mut z = (u64::from(h)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Compact sharded flow-state map: 64-bit flow key → 16-bit value (a box
/// or RPU index), open-addressed within power-of-two shards.
///
/// The fleet layer keeps one entry per live flow to measure consistent-hash
/// disturbance, and at millions of flows a `HashMap<FlowKey, _>` is both too
/// fat (≥ 48 B/entry) and unshardable. Each entry here is 16 bytes, shards
/// grow independently, and the shard index is derived from the top hash
/// bits so the low bits stay free for in-shard probing.
///
/// # Examples
///
/// ```
/// use rosebud_net::ShardedFlowTable;
/// let mut t = ShardedFlowTable::new(8);
/// assert_eq!(t.insert(0xfeed_beef, 3), None);
/// assert_eq!(t.insert(0xfeed_beef, 5), Some(3)); // reassignment
/// assert_eq!(t.insert(0xfeed_beef, 5), Some(5));
/// ```
#[derive(Debug, Clone)]
pub struct ShardedFlowTable {
    shards: Vec<Shard>,
    shard_shift: u32,
}

#[derive(Debug, Clone)]
struct Shard {
    slots: Vec<Slot>,
    len: usize,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    val: u16,
    used: bool,
}

const EMPTY_SLOT: Slot = Slot {
    key: 0,
    val: 0,
    used: false,
};

/// Initial in-shard capacity (slots); shards double at 3/4 load.
const SHARD_INITIAL_SLOTS: usize = 64;

impl ShardedFlowTable {
    /// A table with `shards` shards, rounded up to a power of two.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        let n = shards.next_power_of_two();
        Self {
            shards: vec![
                Shard {
                    slots: vec![EMPTY_SLOT; SHARD_INITIAL_SLOTS],
                    len: 0,
                };
                n
            ],
            shard_shift: 64 - n.trailing_zeros(),
        }
    }

    /// The shard a key lands in (top hash bits).
    pub(crate) fn shard_of(&self, key: u64) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            (key >> self.shard_shift) as usize
        }
    }

    /// Inserts or updates `key`, returning the previous value if the flow
    /// was already tracked.
    pub fn insert(&mut self, key: u64, val: u16) -> Option<u16> {
        let s = self.shard_of(key);
        let shard = &mut self.shards[s];
        if (shard.len + 1) * 4 > shard.slots.len() * 3 {
            shard.grow();
        }
        shard.insert(key, val)
    }
}

impl Shard {
    fn probe(&self, key: u64) -> usize {
        // Low bits index the shard; the table's shard selector used only
        // the top bits, so these stay well distributed.
        let mask = self.slots.len() - 1;
        let mut i = (key as usize) & mask;
        loop {
            let slot = &self.slots[i];
            if !slot.used || slot.key == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    fn insert(&mut self, key: u64, val: u16) -> Option<u16> {
        let i = self.probe(key);
        let slot = &mut self.slots[i];
        if slot.used {
            let prev = slot.val;
            slot.val = val;
            Some(prev)
        } else {
            *slot = Slot {
                key,
                val,
                used: true,
            };
            self.len += 1;
            None
        }
    }

    fn grow(&mut self) {
        let old = std::mem::take(&mut self.slots);
        self.slots = vec![EMPTY_SLOT; old.len() * 2];
        self.len = 0;
        for slot in old {
            if slot.used {
                self.insert(slot.key, slot.val);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PacketBuilder;

    #[test]
    fn same_flow_same_hash() {
        let a = PacketBuilder::new()
            .src_ip([1, 2, 3, 4])
            .tcp(1111, 443)
            .payload(b"a")
            .build();
        let b = PacketBuilder::new()
            .src_ip([1, 2, 3, 4])
            .tcp(1111, 443)
            .payload(b"bbbb")
            .build();
        assert_eq!(flow_hash(&a), flow_hash(&b));
        assert!(flow_hash(&a).is_some());
    }

    #[test]
    fn different_ports_different_hash() {
        let a = PacketBuilder::new().tcp(1111, 443).build();
        let b = PacketBuilder::new().tcp(1112, 443).build();
        assert_ne!(flow_hash(&a), flow_hash(&b));
    }

    #[test]
    fn non_ip_has_no_flow() {
        let pkt = Packet::new(0, vec![0u8; 64], 0, 0);
        assert_eq!(flow_hash(&pkt), None);
    }

    #[test]
    fn sharded_table_tracks_many_flows_across_shards() {
        let mut t = ShardedFlowTable::new(16);
        for i in 0..50_000u32 {
            // Keys through the same extension the fleet uses.
            assert_eq!(t.insert(extend_hash(i), (i % 7) as u16), None);
        }
        assert_eq!(t.shards.iter().map(|s| s.len).sum::<usize>(), 50_000);
        for i in 0..50_000u32 {
            let val = (i % 7) as u16;
            assert_eq!(t.insert(extend_hash(i), val), Some(val));
        }
        // Shards must all carry a share: the selector uses top hash bits.
        assert_eq!(t.shards.len(), 16);
        let min_expected = 50_000 / 16 / 2;
        for s in 0..16 {
            let in_shard = (0..50_000u32)
                .filter(|&i| t.shard_of(extend_hash(i)) == s)
                .count();
            assert!(in_shard > min_expected, "shard {s} only has {in_shard}");
        }
    }

    #[test]
    fn sharded_table_updates_return_previous_owner() {
        let mut t = ShardedFlowTable::new(1);
        assert_eq!(t.insert(42, 1), None);
        assert_eq!(t.insert(42, 2), Some(1));
        assert_eq!(t.insert(42, 2), Some(2));
        assert_eq!(t.shards[0].len, 1);
    }

    #[test]
    fn low_bits_spread_across_rpus() {
        // The hash LB uses 3 low bits to pick among 8 RPUs; flows must not
        // all collide into a few buckets.
        let mut buckets = [0u32; 8];
        for port in 0..4096u16 {
            let pkt = PacketBuilder::new().tcp(port, 443).build();
            buckets[(flow_hash(&pkt).unwrap() & 7) as usize] += 1;
        }
        for (i, &count) in buckets.iter().enumerate() {
            assert!(
                (300..=800).contains(&count),
                "bucket {i} has {count} flows; distribution too skewed"
            );
        }
    }
}
