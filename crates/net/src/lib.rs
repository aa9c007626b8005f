//! Packet substrate for the Rosebud reproduction.
//!
//! The paper's testbed crafts traffic with Scapy and replays pcaps with
//! `tcpreplay` (Appendix A.4, D). This crate is the Rust equivalent:
//! Ethernet/IPv4/TCP/UDP header parsing and construction with checksums, a
//! packet type carried through the simulated datapath, 5-tuple flow hashing
//! (the hash the paper's hash-based load balancer computes inline, §7.1.2),
//! and deterministic traffic generators — fixed-size line-rate floods, flow
//! traffic with a configurable reordering rate, and attack-mix injection.
//!
//! # Examples
//!
//! ```
//! use rosebud_net::{PacketBuilder, EtherType, IpProtocol};
//!
//! let pkt = PacketBuilder::new()
//!     .src_ip([10, 0, 0, 1])
//!     .dst_ip([10, 0, 0, 2])
//!     .tcp(1234, 80)
//!     .payload(b"hello")
//!     .build();
//! assert_eq!(pkt.eth().unwrap().ethertype, EtherType::IPV4);
//! assert_eq!(pkt.ipv4().unwrap().protocol, IpProtocol::TCP);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod builder;
mod flow;
mod gen;
mod headers;
mod packet;
mod pcap;
mod port;

pub use builder::PacketBuilder;
pub use flow::{extend_hash, flow_hash, FlowKey, ShardedFlowTable};
pub use gen::{AttackMixGen, FixedSizeGen, FlowTrafficGen, ImixGen, TrafficGen};
pub use headers::{
    ipv4_checksum, EthHeader, EtherType, HeaderError, IpProtocol, Ipv4Header, TcpHeader, UdpHeader,
};
pub use packet::Packet;
pub use pcap::{parse_pcap, to_pcap, PcapError};
pub use port::{GenPort, PcapReplayPort};

/// Per-frame overhead on the Ethernet wire beyond the in-memory packet:
/// 8 bytes preamble + start-of-frame, 4 bytes FCS, 12 bytes inter-frame gap.
/// The paper quotes packet sizes *excluding* the 4-byte FCS (§6.1), so a
/// "64-byte packet" occupies 88 byte-times on the wire.
pub const WIRE_OVERHEAD_BYTES: u64 = 24;

/// Bytes a frame of in-memory length `len` occupies on the wire.
pub(crate) fn wire_bytes(len: u64) -> u64 {
    len + WIRE_OVERHEAD_BYTES
}

/// The maximum packet rate, in packets per second, of a `gbps` link carrying
/// frames of in-memory size `size` bytes.
///
/// # Examples
///
/// ```
/// // 64-byte frames on 200 Gbps: ~284 Mpps — the paper's 250 Mpps forwarder
/// // is 88 % of this (§6.1).
/// let pps = rosebud_net::line_rate_pps(200.0, 64);
/// assert!((pps / 1e6 - 284.09).abs() < 0.01);
/// ```
pub fn line_rate_pps(gbps: f64, size: u64) -> f64 {
    gbps * 1e9 / (wire_bytes(size) as f64 * 8.0)
}

/// The maximum *effective* (payload) throughput in Gbps of a `gbps` link
/// carrying frames of size `size` — the dotted lines in Fig. 7.
pub fn effective_line_rate_gbps(gbps: f64, size: u64) -> f64 {
    gbps * size as f64 / wire_bytes(size) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_overhead_matches_paper_percentages() {
        // §6.1: 64-byte forwarding tops out at 250 Mpps = 88 % of line rate,
        // 65-byte at 250 Mpps = 89 %.
        let max64 = line_rate_pps(200.0, 64) / 1e6;
        let max65 = line_rate_pps(200.0, 65) / 1e6;
        assert!(
            (250.0 / max64 - 0.88).abs() < 0.005,
            "64B ratio {}",
            250.0 / max64
        );
        assert!(
            (250.0 / max65 - 0.89).abs() < 0.005,
            "65B ratio {}",
            250.0 / max65
        );
    }

    #[test]
    fn effective_rate_approaches_line_rate_for_big_frames() {
        assert!(effective_line_rate_gbps(200.0, 64) < 150.0);
        assert!(effective_line_rate_gbps(200.0, 9000) > 199.0);
    }
}
