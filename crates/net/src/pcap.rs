//! Classic libpcap trace import/export.
//!
//! The paper's entire experiment workflow speaks pcap: traces are crafted
//! with Scapy, replayed with `tcpreplay`, and latency samples captured with
//! `tcpdump` (Appendix A.4, D). This module reads and writes the classic
//! little-endian pcap container (no external dependencies) so traces can
//! move between this simulator and those tools.

use std::fmt;

use crate::packet::Packet;

/// Classic pcap magic, little-endian, microsecond timestamps.
const PCAP_MAGIC_LE: u32 = 0xa1b2_c3d4;
/// The same magic as written by a big-endian producer.
const PCAP_MAGIC_BE: u32 = 0xd4c3_b2a1;
/// LINKTYPE_ETHERNET.
const LINKTYPE_ETHERNET: u32 = 1;

/// Errors from [`parse_pcap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PcapError {
    /// The file is shorter than its headers claim.
    Truncated,
    /// Unknown magic number (not a classic pcap file).
    BadMagic(u32),
    /// The link type is not Ethernet.
    UnsupportedLinkType(u32),
    /// Big-endian pcap files are valid but not supported here.
    BigEndian,
    /// Record `record` (counting from 0) is stamped before the one ahead
    /// of it, as in a capture merged from two interfaces: a replay delivers
    /// frames in stamp order, so it has none to give this one.
    OutOfOrder {
        /// The first record stamped before its predecessor.
        record: u64,
    },
}

impl fmt::Display for PcapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PcapError::Truncated => write!(f, "truncated pcap file"),
            PcapError::BadMagic(m) => write!(f, "bad pcap magic 0x{m:08x}"),
            PcapError::UnsupportedLinkType(l) => write!(f, "unsupported link type {l}"),
            PcapError::BigEndian => write!(f, "big-endian pcap files are not supported"),
            PcapError::OutOfOrder { record } => {
                write!(
                    f,
                    "record {record} is stamped before the record ahead of it"
                )
            }
        }
    }
}

impl std::error::Error for PcapError {}

/// Serializes a packet trace as a classic pcap file. Packet timestamps come
/// from each packet's generation cycle at `clock_hz` (the synchronized RPU
/// timers of §6.2), so inter-arrival times survive the export.
///
/// # Examples
///
/// ```
/// use rosebud_net::{parse_pcap, to_pcap, FixedSizeGen, TrafficGen};
/// let mut gen = FixedSizeGen::new(64, 2);
/// let trace: Vec<_> = (0..3).map(|id| gen.generate(id, id * 100)).collect();
/// let bytes = to_pcap(&trace, 250_000_000);
/// let back = parse_pcap(&bytes, 250_000_000).unwrap();
/// assert_eq!(back.len(), 3);
/// assert_eq!(back[0].bytes(), trace[0].bytes());
/// ```
pub fn to_pcap(trace: &[Packet], clock_hz: u64) -> Vec<u8> {
    let bytes: u64 = trace.iter().map(Packet::len).sum();
    let mut out = Vec::with_capacity(24 + bytes as usize + 16 * trace.len());
    out.extend_from_slice(&PCAP_MAGIC_LE.to_le_bytes());
    out.extend_from_slice(&2u16.to_le_bytes()); // version major
    out.extend_from_slice(&4u16.to_le_bytes()); // version minor
    out.extend_from_slice(&0i32.to_le_bytes()); // thiszone
    out.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
    out.extend_from_slice(&65535u32.to_le_bytes()); // snaplen
    out.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
    for pkt in trace {
        let micros = pkt.ts_gen as u128 * 1_000_000 / clock_hz as u128;
        let ts_sec = (micros / 1_000_000) as u32;
        let ts_usec = (micros % 1_000_000) as u32;
        let len = pkt.len() as u32;
        out.extend_from_slice(&ts_sec.to_le_bytes());
        out.extend_from_slice(&ts_usec.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes()); // incl_len
        out.extend_from_slice(&len.to_le_bytes()); // orig_len
        out.extend_from_slice(pkt.bytes());
    }
    out
}

/// Parses a classic little-endian Ethernet pcap file back into its packets.
/// Generation timestamps are reconstructed in cycles at `clock_hz`; packet
/// ids are assigned sequentially; ingress ports alternate. The trace is in
/// stamp order, as [`PcapReplayPort`](crate::PcapReplayPort) needs.
///
/// # Errors
///
/// Returns [`PcapError`] for short files, foreign magics, big-endian files,
/// non-Ethernet link types, or a record stamped before its predecessor.
pub fn parse_pcap(bytes: &[u8], clock_hz: u64) -> Result<Vec<Packet>, PcapError> {
    if bytes.len() < 24 {
        return Err(PcapError::Truncated);
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
    match magic {
        PCAP_MAGIC_LE => {}
        PCAP_MAGIC_BE => return Err(PcapError::BigEndian),
        other => return Err(PcapError::BadMagic(other)),
    }
    let linktype = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
    if linktype != LINKTYPE_ETHERNET {
        return Err(PcapError::UnsupportedLinkType(linktype));
    }
    let mut trace: Vec<Packet> = Vec::new();
    let mut at = 24usize;
    let mut id = 0u64;
    while at < bytes.len() {
        if at + 16 > bytes.len() {
            return Err(PcapError::Truncated);
        }
        let ts_sec = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        let ts_usec = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
        let incl = u32::from_le_bytes(bytes[at + 8..at + 12].try_into().expect("4 bytes")) as usize;
        at += 16;
        if at + incl > bytes.len() {
            return Err(PcapError::Truncated);
        }
        let micros = u64::from(ts_sec) * 1_000_000 + u64::from(ts_usec);
        let ts_gen = (micros as u128 * clock_hz as u128 / 1_000_000) as u64;
        if trace.last().is_some_and(|last| ts_gen < last.ts_gen) {
            return Err(PcapError::OutOfOrder { record: id });
        }
        trace.push(Packet::new(
            id,
            bytes[at..at + incl].to_vec(),
            (id % 2) as u8,
            ts_gen,
        ));
        id += 1;
        at += incl;
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FixedSizeGen, FlowTrafficGen, TrafficGen};

    #[test]
    fn round_trip_preserves_bytes_and_timing() {
        let mut gen = FlowTrafficGen::new(8, 300, 0.02, 9);
        let trace: Vec<Packet> = (0..50u64).map(|i| gen.generate(i, i * 137)).collect();
        let clock = 250_000_000;
        let bytes = to_pcap(&trace, clock);
        let back = parse_pcap(&bytes, clock).unwrap();
        assert_eq!(back.len(), trace.len());
        for (a, b) in back.iter().zip(trace.iter()) {
            assert_eq!(a.bytes(), b.bytes());
            // Microsecond pcap resolution: 250 cycles per microsecond.
            assert!(
                a.ts_gen.abs_diff(b.ts_gen) < 250,
                "{} vs {}",
                a.ts_gen,
                b.ts_gen
            );
        }
    }

    #[test]
    fn header_fields_are_standard() {
        let bytes = to_pcap(&[FixedSizeGen::new(64, 1).generate(0, 0)], 250_000_000);
        assert_eq!(&bytes[0..4], &0xa1b2_c3d4u32.to_le_bytes());
        assert_eq!(u16::from_le_bytes(bytes[4..6].try_into().unwrap()), 2);
        assert_eq!(u16::from_le_bytes(bytes[6..8].try_into().unwrap()), 4);
        assert_eq!(u32::from_le_bytes(bytes[20..24].try_into().unwrap()), 1);
        // One 64-byte record.
        assert_eq!(bytes.len(), 24 + 16 + 64);
    }

    #[test]
    fn rejects_foreign_files() {
        assert_eq!(parse_pcap(&[0; 10], 1).unwrap_err(), PcapError::Truncated);
        let mut junk = vec![0u8; 24];
        junk[0..4].copy_from_slice(&0x1234_5678u32.to_le_bytes());
        assert!(matches!(
            parse_pcap(&junk, 1).unwrap_err(),
            PcapError::BadMagic(_)
        ));
        let mut be = vec![0u8; 24];
        be[0..4].copy_from_slice(&0xd4c3_b2a1u32.to_le_bytes());
        assert_eq!(parse_pcap(&be, 1).unwrap_err(), PcapError::BigEndian);
    }

    #[test]
    fn rejects_truncated_record() {
        let mut bytes = to_pcap(&[FixedSizeGen::new(64, 1).generate(0, 0)], 250_000_000);
        bytes.truncate(bytes.len() - 10);
        assert_eq!(
            parse_pcap(&bytes, 250_000_000).unwrap_err(),
            PcapError::Truncated
        );
    }

    #[test]
    fn rejects_non_ethernet_link() {
        let mut bytes = to_pcap(&[], 1);
        bytes[20..24].copy_from_slice(&101u32.to_le_bytes()); // LINKTYPE_RAW
        assert_eq!(
            parse_pcap(&bytes, 1).unwrap_err(),
            PcapError::UnsupportedLinkType(101)
        );
    }
}
