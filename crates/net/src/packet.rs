//! The packet type carried through the simulated datapath.

use rosebud_kernel::Cycle;

use crate::headers::{
    EthHeader, Ipv4Header, TcpHeader, UdpHeader, ETH_HEADER_LEN, IPV4_HEADER_LEN,
};
use crate::{wire_bytes, HeaderError, IpProtocol};

/// A unique, monotonically assigned packet identifier used by conservation
/// checks ("every packet in is a packet out or an accounted drop").
pub(crate) type PacketId = u64;

/// A packet travelling through the simulated system.
///
/// Carries the raw frame bytes plus simulation metadata: the generating
/// cycle (for RTT measurement, §6.2), the ingress port, and the identifier.
///
/// # Examples
///
/// ```
/// use rosebud_net::Packet;
/// let pkt = Packet::new(1, vec![0u8; 64], 0, 0);
/// assert_eq!(pkt.len(), 64);
/// assert_eq!(pkt.wire_len(), 88); // preamble + FCS + IFG
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Unique identifier.
    pub id: PacketId,
    /// Raw frame contents starting at the Ethernet header (FCS excluded, as
    /// in the paper's size accounting).
    pub data: Vec<u8>,
    /// Port the packet entered the system on (or will leave on).
    pub port: u8,
    /// Cycle at which the packet was created by the traffic source; the
    /// tester FPGA's timestamp (§6.2).
    pub ts_gen: Cycle,
}

impl Packet {
    /// Creates a packet from raw bytes.
    pub fn new(id: PacketId, data: Vec<u8>, port: u8, ts_gen: Cycle) -> Self {
        Self {
            id,
            data,
            port,
            ts_gen,
        }
    }

    /// Frame length in bytes (FCS excluded).
    pub fn len(&self) -> u64 {
        self.data.len() as u64
    }

    /// `true` for a zero-length frame (used as a drop marker in firmware,
    /// which sets the descriptor length to 0 to drop, §7.2).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes occupied on the wire, including preamble, FCS and IFG.
    pub fn wire_len(&self) -> u64 {
        wire_bytes(self.len())
    }

    /// The raw frame bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Mutable access to the raw frame bytes.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Parses the Ethernet header.
    ///
    /// # Errors
    ///
    /// Returns [`HeaderError`] when the frame is shorter than 14 bytes.
    pub fn eth(&self) -> Result<EthHeader, HeaderError> {
        EthHeader::parse(&self.data)
    }

    /// Parses the IPv4 header following the Ethernet header.
    ///
    /// # Errors
    ///
    /// Returns [`HeaderError`] when the frame is truncated or not IPv4.
    pub fn ipv4(&self) -> Result<Ipv4Header, HeaderError> {
        if self.data.len() < ETH_HEADER_LEN {
            return Err(HeaderError::Truncated {
                need: ETH_HEADER_LEN,
                have: self.data.len(),
            });
        }
        Ipv4Header::parse(&self.data[ETH_HEADER_LEN..])
    }

    /// Parses the TCP header of a TCP/IPv4 packet.
    ///
    /// # Errors
    ///
    /// Returns [`HeaderError`] when the frame is truncated or the protocol is
    /// not TCP.
    pub fn tcp(&self) -> Result<TcpHeader, HeaderError> {
        let ip = self.ipv4()?;
        if ip.protocol != IpProtocol::TCP {
            return Err(HeaderError::Malformed("not a TCP packet"));
        }
        TcpHeader::parse(&self.data[ETH_HEADER_LEN + IPV4_HEADER_LEN..])
    }

    /// Parses the UDP header of a UDP/IPv4 packet.
    ///
    /// # Errors
    ///
    /// Returns [`HeaderError`] when the frame is truncated or the protocol is
    /// not UDP.
    pub fn udp(&self) -> Result<UdpHeader, HeaderError> {
        let ip = self.ipv4()?;
        if ip.protocol != IpProtocol::UDP {
            return Err(HeaderError::Malformed("not a UDP packet"));
        }
        UdpHeader::parse(&self.data[ETH_HEADER_LEN + IPV4_HEADER_LEN..])
    }

    /// Byte offset of the L4 payload, if the packet is TCP or UDP over IPv4.
    pub(crate) fn payload_offset(&self) -> Option<usize> {
        let ip = self.ipv4().ok()?;
        match ip.protocol {
            IpProtocol::TCP => Some(ETH_HEADER_LEN + IPV4_HEADER_LEN + 20),
            IpProtocol::UDP => Some(ETH_HEADER_LEN + IPV4_HEADER_LEN + 8),
            _ => None,
        }
    }

    /// The L4 payload bytes, if the packet is TCP or UDP over IPv4.
    pub fn payload(&self) -> Option<&[u8]> {
        let off = self.payload_offset()?;
        self.data.get(off..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PacketBuilder;

    #[test]
    fn payload_offset_tcp_vs_udp() {
        let tcp = PacketBuilder::new().tcp(1, 2).payload(b"abc").build();
        assert_eq!(tcp.payload_offset(), Some(54));
        assert_eq!(tcp.payload().unwrap(), b"abc");
        let udp = PacketBuilder::new().udp(1, 2).payload(b"xyz").build();
        assert_eq!(udp.payload_offset(), Some(42));
        assert_eq!(udp.payload().unwrap(), b"xyz");
    }

    #[test]
    fn non_ip_has_no_payload() {
        let pkt = Packet::new(0, vec![0u8; 64], 0, 0);
        assert_eq!(pkt.payload_offset(), None);
    }

    #[test]
    fn wrong_protocol_errors() {
        let udp = PacketBuilder::new().udp(1, 2).build();
        assert!(udp.tcp().is_err());
        let tcp = PacketBuilder::new().tcp(1, 2).build();
        assert!(tcp.udp().is_err());
    }
}
