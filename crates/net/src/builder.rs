//! A Scapy-like packet builder.

use crate::headers::{
    EthHeader, EtherType, IpProtocol, Ipv4Header, TcpHeader, UdpHeader, ETH_HEADER_LEN,
    IPV4_HEADER_LEN, TCP_HEADER_LEN, UDP_HEADER_LEN,
};
use crate::packet::Packet;

/// Builds well-formed Ethernet/IPv4/{TCP,UDP} frames, the way the paper's
/// test benches craft packets with Scapy (Appendix A.4).
///
/// # Examples
///
/// ```
/// use rosebud_net::PacketBuilder;
///
/// // A 64-byte TCP frame padded with zeros.
/// let pkt = PacketBuilder::new()
///     .src_ip([192, 168, 0, 1])
///     .dst_ip([192, 168, 0, 2])
///     .tcp(4000, 80)
///     .pad_to(64)
///     .build();
/// assert_eq!(pkt.len(), 64);
/// assert_eq!(pkt.tcp().unwrap().dst_port, 80);
/// ```
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    eth: EthHeader,
    src_ip: [u8; 4],
    dst_ip: [u8; 4],
    ttl: u8,
    l4: L4,
    payload: Vec<u8>,
    pad_to: Option<usize>,
    port: u8,
}

#[derive(Debug, Clone)]
enum L4 {
    None,
    Tcp {
        src: u16,
        dst: u16,
        seq: u32,
        flags: u8,
    },
    Udp {
        src: u16,
        dst: u16,
    },
}

impl Default for PacketBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PacketBuilder {
    /// Starts a builder with neutral defaults (broadcast dst MAC, 10.0.0.x
    /// addresses, no L4 header).
    pub fn new() -> Self {
        Self {
            eth: EthHeader {
                dst: [0x02, 0, 0, 0, 0, 2],
                src: [0x02, 0, 0, 0, 0, 1],
                ethertype: EtherType::IPV4,
            },
            src_ip: [10, 0, 0, 1],
            dst_ip: [10, 0, 0, 2],
            ttl: 64,
            l4: L4::None,
            payload: Vec::new(),
            pad_to: None,
            port: 0,
        }
    }

    /// Sets a raw EtherType (use to build non-IP frames).
    pub fn ethertype(mut self, ethertype: EtherType) -> Self {
        self.eth.ethertype = ethertype;
        self
    }

    /// Sets the source IPv4 address.
    pub fn src_ip(mut self, ip: [u8; 4]) -> Self {
        self.src_ip = ip;
        self
    }

    /// Sets the destination IPv4 address.
    pub fn dst_ip(mut self, ip: [u8; 4]) -> Self {
        self.dst_ip = ip;
        self
    }

    /// Makes the packet TCP with the given ports.
    pub fn tcp(mut self, src_port: u16, dst_port: u16) -> Self {
        self.l4 = L4::Tcp {
            src: src_port,
            dst: dst_port,
            seq: 0,
            flags: 0x10, // ACK
        };
        self
    }

    /// Sets the TCP sequence number (no-op unless [`tcp`](Self::tcp) was
    /// called).
    pub fn seq(mut self, seq: u32) -> Self {
        if let L4::Tcp { seq: s, .. } = &mut self.l4 {
            *s = seq;
        }
        self
    }

    /// Makes the packet UDP with the given ports.
    pub fn udp(mut self, src_port: u16, dst_port: u16) -> Self {
        self.l4 = L4::Udp {
            src: src_port,
            dst: dst_port,
        };
        self
    }

    /// Sets the L4 payload bytes.
    pub fn payload(mut self, payload: &[u8]) -> Self {
        self.payload = payload.to_vec();
        self
    }

    /// Pads the final frame with zero bytes up to `len` (no-op if the frame
    /// is already at least that long). The padding extends the payload, so
    /// IP/UDP length fields account for it.
    pub fn pad_to(mut self, len: usize) -> Self {
        self.pad_to = Some(len);
        self
    }

    /// Sets the ingress port recorded on the packet.
    pub fn port(mut self, port: u8) -> Self {
        self.port = port;
        self
    }

    /// Assembles the frame.
    pub fn build(self) -> Packet {
        self.build_with(0, 0)
    }

    /// Assembles the frame with an explicit packet id and generation
    /// timestamp (what the traffic generators use). The frame is one
    /// exactly-sized allocation, written in place.
    pub fn build_with(self, id: u64, ts_gen: u64) -> Packet {
        let ipv4 = self.eth.ethertype == EtherType::IPV4;
        let l4_len = match self.l4 {
            L4::None => 0,
            L4::Tcp { .. } => TCP_HEADER_LEN,
            L4::Udp { .. } => UDP_HEADER_LEN,
        };
        let l4_at = ETH_HEADER_LEN + IPV4_HEADER_LEN;
        let payload_at = if ipv4 { l4_at + l4_len } else { ETH_HEADER_LEN };
        // pad_to extends the payload with zeros, so the length fields below
        // cover the padding.
        let natural = payload_at + self.payload.len();
        let total = self.pad_to.map_or(natural, |target| target.max(natural));

        let mut data = vec![0u8; total];
        self.eth.write(&mut data);
        if ipv4 {
            let protocol = match self.l4 {
                L4::None => IpProtocol(0xfd), // "use for experimentation"
                L4::Tcp { .. } => IpProtocol::TCP,
                L4::Udp { .. } => IpProtocol::UDP,
            };
            let ip = Ipv4Header {
                dscp: 0,
                total_len: (total - ETH_HEADER_LEN) as u16,
                ident: (id & 0xffff) as u16,
                ttl: self.ttl,
                protocol,
                checksum: 0,
                src: self.src_ip,
                dst: self.dst_ip,
            };
            ip.write(&mut data[ETH_HEADER_LEN..]);
            match self.l4 {
                L4::None => {}
                L4::Tcp {
                    src,
                    dst,
                    seq,
                    flags,
                } => {
                    let tcp = TcpHeader {
                        src_port: src,
                        dst_port: dst,
                        seq,
                        ack: 0,
                        flags,
                        window: 65535,
                    };
                    tcp.write(&mut data[l4_at..]);
                }
                L4::Udp { src, dst } => {
                    let udp = UdpHeader {
                        src_port: src,
                        dst_port: dst,
                        len: (total - l4_at) as u16,
                    };
                    udp.write(&mut data[l4_at..]);
                }
            }
        }
        data[payload_at..natural].copy_from_slice(&self.payload);
        Packet::new(id, data, self.port, ts_gen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_tcp_frame_is_54_bytes() {
        let pkt = PacketBuilder::new().tcp(1, 2).build();
        assert_eq!(pkt.len(), 54);
        assert_eq!(pkt.ipv4().unwrap().total_len, 40);
    }

    #[test]
    fn pad_to_grows_payload_and_lengths() {
        let pkt = PacketBuilder::new().udp(5, 6).pad_to(128).build();
        assert_eq!(pkt.len(), 128);
        let ip = pkt.ipv4().unwrap();
        assert_eq!(ip.total_len as usize, 128 - ETH_HEADER_LEN);
        let udp = pkt.udp().unwrap();
        assert_eq!(udp.len as usize, 128 - ETH_HEADER_LEN - IPV4_HEADER_LEN);
    }

    #[test]
    fn pad_to_smaller_than_frame_is_noop() {
        let pkt = PacketBuilder::new()
            .tcp(1, 2)
            .payload(&[7u8; 100])
            .pad_to(64)
            .build();
        assert_eq!(pkt.len(), 154);
    }

    #[test]
    fn payload_survives_round_trip() {
        let body = b"GET / HTTP/1.1\r\n";
        let pkt = PacketBuilder::new().tcp(4000, 80).payload(body).build();
        assert_eq!(pkt.payload().unwrap(), body);
    }

    #[test]
    fn seq_applies_to_tcp() {
        let pkt = PacketBuilder::new().tcp(1, 2).seq(99).build();
        let tcp = pkt.tcp().unwrap();
        assert_eq!(tcp.seq, 99);
        assert_eq!(tcp.flags, 0x10, "ACK");
    }
}
