//! Ethernet, IPv4, TCP and UDP header parsing and construction.

use std::fmt;

/// Length of an Ethernet II header in bytes.
pub(crate) const ETH_HEADER_LEN: usize = 14;
/// Length of a minimal IPv4 header (no options) in bytes.
pub(crate) const IPV4_HEADER_LEN: usize = 20;
/// Length of a minimal TCP header (no options) in bytes.
pub(crate) const TCP_HEADER_LEN: usize = 20;
/// Length of a UDP header in bytes.
pub(crate) const UDP_HEADER_LEN: usize = 8;

/// An Ethernet II EtherType value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EtherType(pub u16);

impl EtherType {
    /// IPv4 (0x0800).
    pub const IPV4: EtherType = EtherType(0x0800);
    /// ARP (0x0806).
    pub const ARP: EtherType = EtherType(0x0806);
}

impl fmt::Display for EtherType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:04x}", self.0)
    }
}

/// An IP protocol number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IpProtocol(pub u8);

impl IpProtocol {
    /// TCP (6).
    pub const TCP: IpProtocol = IpProtocol(6);
    /// UDP (17).
    pub const UDP: IpProtocol = IpProtocol(17);
}

/// Errors produced when parsing headers from raw bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderError {
    /// The byte slice is shorter than the header requires.
    Truncated {
        /// Bytes required.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// A version or length field has an unsupported value.
    Malformed(&'static str),
}

impl fmt::Display for HeaderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeaderError::Truncated { need, have } => {
                write!(f, "truncated header: need {need} bytes, have {have}")
            }
            HeaderError::Malformed(what) => write!(f, "malformed header: {what}"),
        }
    }
}

impl std::error::Error for HeaderError {}

fn need(buf: &[u8], n: usize) -> Result<(), HeaderError> {
    if buf.len() < n {
        Err(HeaderError::Truncated {
            need: n,
            have: buf.len(),
        })
    } else {
        Ok(())
    }
}

fn be16(buf: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([buf[at], buf[at + 1]])
}

fn be32(buf: &[u8], at: usize) -> u32 {
    u32::from_be_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
}

/// An Ethernet II header.
///
/// # Examples
///
/// ```
/// use rosebud_net::{EthHeader, EtherType, Packet};
/// let hdr = EthHeader {
///     dst: [0xff; 6],
///     src: [2, 0, 0, 0, 0, 1],
///     ethertype: EtherType::IPV4,
/// };
/// let mut buf = [0u8; 14];
/// hdr.write(&mut buf);
/// assert_eq!(Packet::new(0, buf.to_vec(), 0, 0).eth().unwrap(), hdr);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EthHeader {
    /// Destination MAC address.
    pub dst: [u8; 6],
    /// Source MAC address.
    pub src: [u8; 6],
    /// EtherType of the payload.
    pub ethertype: EtherType,
}

impl EthHeader {
    /// Parses an Ethernet header from the front of `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`HeaderError::Truncated`] if `buf` is shorter than 14 bytes.
    pub(crate) fn parse(buf: &[u8]) -> Result<Self, HeaderError> {
        need(buf, ETH_HEADER_LEN)?;
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&buf[0..6]);
        src.copy_from_slice(&buf[6..12]);
        Ok(Self {
            dst,
            src,
            ethertype: EtherType(be16(buf, 12)),
        })
    }

    /// Writes the header into the front of `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than 14 bytes.
    pub fn write(&self, buf: &mut [u8]) {
        buf[0..6].copy_from_slice(&self.dst);
        buf[6..12].copy_from_slice(&self.src);
        buf[12..14].copy_from_slice(&self.ethertype.0.to_be_bytes());
    }
}

/// An IPv4 header (options unsupported; middlebox traffic virtually never
/// carries them and the paper's firmware assumes 20-byte headers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4Header {
    /// Differentiated services / TOS byte.
    pub dscp: u8,
    /// Total length: header plus payload, in bytes.
    pub total_len: u16,
    /// Identification field.
    pub ident: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub protocol: IpProtocol,
    /// Header checksum as read from the wire (0 when constructed; call
    /// [`Ipv4Header::write`] to emit a correct one).
    pub checksum: u16,
    /// Source address.
    pub src: [u8; 4],
    /// Destination address.
    pub dst: [u8; 4],
}

impl Ipv4Header {
    /// Parses an IPv4 header from the front of `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`HeaderError::Truncated`] if fewer than 20 bytes are
    /// available, or [`HeaderError::Malformed`] for a non-4 version or an IHL
    /// other than 5.
    pub(crate) fn parse(buf: &[u8]) -> Result<Self, HeaderError> {
        need(buf, IPV4_HEADER_LEN)?;
        let version = buf[0] >> 4;
        let ihl = buf[0] & 0x0f;
        if version != 4 {
            return Err(HeaderError::Malformed("IP version is not 4"));
        }
        if ihl != 5 {
            return Err(HeaderError::Malformed("IPv4 options are not supported"));
        }
        Ok(Self {
            dscp: buf[1],
            total_len: be16(buf, 2),
            ident: be16(buf, 4),
            ttl: buf[8],
            protocol: IpProtocol(buf[9]),
            checksum: be16(buf, 10),
            src: [buf[12], buf[13], buf[14], buf[15]],
            dst: [buf[16], buf[17], buf[18], buf[19]],
        })
    }

    /// Writes the header, computing a fresh checksum.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than 20 bytes.
    pub fn write(&self, buf: &mut [u8]) {
        buf[0] = 0x45;
        buf[1] = self.dscp;
        buf[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        buf[4..6].copy_from_slice(&self.ident.to_be_bytes());
        buf[6] = 0x40; // don't fragment
        buf[7] = 0;
        buf[8] = self.ttl;
        buf[9] = self.protocol.0;
        buf[10] = 0;
        buf[11] = 0;
        buf[12..16].copy_from_slice(&self.src);
        buf[16..20].copy_from_slice(&self.dst);
        let csum = ipv4_checksum(&buf[..IPV4_HEADER_LEN]);
        buf[10..12].copy_from_slice(&csum.to_be_bytes());
    }

    /// Source address as a `u32` in host order (e.g. 10.0.0.1 = 0x0A000001),
    /// the form the firewall accelerator consumes (§7.2).
    pub fn src_u32(&self) -> u32 {
        u32::from_be_bytes(self.src)
    }

    /// Destination address as a `u32` in host order.
    pub(crate) fn dst_u32(&self) -> u32 {
        u32::from_be_bytes(self.dst)
    }
}

/// A TCP header (options unsupported).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Flag bits (FIN=0x01, SYN=0x02, RST=0x04, PSH=0x08, ACK=0x10).
    pub flags: u8,
    /// Receive window.
    pub window: u16,
}

impl TcpHeader {
    /// Parses a TCP header from the front of `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`HeaderError::Truncated`] if fewer than 20 bytes are
    /// available.
    pub(crate) fn parse(buf: &[u8]) -> Result<Self, HeaderError> {
        need(buf, TCP_HEADER_LEN)?;
        Ok(Self {
            src_port: be16(buf, 0),
            dst_port: be16(buf, 2),
            seq: be32(buf, 4),
            ack: be32(buf, 8),
            flags: buf[13],
            window: be16(buf, 14),
        })
    }

    /// Writes the header (checksum left zero: the simulated NICs offload it).
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than 20 bytes.
    pub fn write(&self, buf: &mut [u8]) {
        buf[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        buf[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        buf[4..8].copy_from_slice(&self.seq.to_be_bytes());
        buf[8..12].copy_from_slice(&self.ack.to_be_bytes());
        buf[12] = 5 << 4; // data offset = 5 words
        buf[13] = self.flags;
        buf[14..16].copy_from_slice(&self.window.to_be_bytes());
        buf[16..20].fill(0); // checksum + urgent pointer
    }
}

/// A UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Length: header plus payload, in bytes.
    pub len: u16,
}

impl UdpHeader {
    /// Parses a UDP header from the front of `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`HeaderError::Truncated`] if fewer than 8 bytes are
    /// available.
    pub(crate) fn parse(buf: &[u8]) -> Result<Self, HeaderError> {
        need(buf, UDP_HEADER_LEN)?;
        Ok(Self {
            src_port: be16(buf, 0),
            dst_port: be16(buf, 2),
            len: be16(buf, 4),
        })
    }

    /// Writes the header (checksum left zero, which is legal for UDP/IPv4).
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than 8 bytes.
    pub fn write(&self, buf: &mut [u8]) {
        buf[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        buf[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        buf[4..6].copy_from_slice(&self.len.to_be_bytes());
        buf[6..8].fill(0);
    }
}

/// Computes the IPv4 header checksum over `header` (the checksum field bytes
/// are treated as zero).
pub fn ipv4_checksum(header: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut i = 0;
    while i + 1 < header.len() {
        // Skip the checksum field at offset 10.
        let word = if i == 10 {
            0
        } else {
            u32::from(be16(header, i))
        };
        sum += word;
        i += 2;
    }
    if i < header.len() {
        sum += u32::from(header[i]) << 8;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipv4_round_trip_with_valid_checksum() {
        let hdr = Ipv4Header {
            dscp: 0,
            total_len: 40,
            ident: 0x1234,
            ttl: 64,
            protocol: IpProtocol::TCP,
            checksum: 0,
            src: [192, 168, 1, 1],
            dst: [10, 0, 0, 1],
        };
        let mut buf = [0u8; IPV4_HEADER_LEN];
        hdr.write(&mut buf);
        let parsed = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(parsed.src, hdr.src);
        assert_eq!(parsed.dst, hdr.dst);
        assert_eq!(parsed.total_len, 40);
        // Verifying the checksum: summing all 16-bit words including the
        // stored checksum must give 0xffff.
        let mut sum: u32 = 0;
        for i in (0..IPV4_HEADER_LEN).step_by(2) {
            sum += u32::from(be16(&buf, i));
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        assert_eq!(sum, 0xffff);
    }

    #[test]
    fn tcp_round_trip() {
        let hdr = TcpHeader {
            src_port: 443,
            dst_port: 51000,
            seq: 0xdead_beef,
            ack: 0x0102_0304,
            flags: 0x18,
            window: 65535,
        };
        let mut buf = [0u8; TCP_HEADER_LEN];
        hdr.write(&mut buf);
        assert_eq!(TcpHeader::parse(&buf).unwrap(), hdr);
    }

    #[test]
    fn udp_round_trip() {
        let hdr = UdpHeader {
            src_port: 53,
            dst_port: 5353,
            len: 100,
        };
        let mut buf = [0u8; UDP_HEADER_LEN];
        hdr.write(&mut buf);
        assert_eq!(UdpHeader::parse(&buf).unwrap(), hdr);
    }

    #[test]
    fn truncated_buffers_are_rejected() {
        assert!(matches!(
            EthHeader::parse(&[0u8; 13]),
            Err(HeaderError::Truncated { need: 14, have: 13 })
        ));
        assert!(Ipv4Header::parse(&[0x45; 19]).is_err());
        assert!(TcpHeader::parse(&[0; 19]).is_err());
        assert!(UdpHeader::parse(&[0; 7]).is_err());
    }

    #[test]
    fn bad_ip_version_rejected() {
        let mut buf = [0u8; IPV4_HEADER_LEN];
        buf[0] = 0x65; // version 6
        assert_eq!(
            Ipv4Header::parse(&buf),
            Err(HeaderError::Malformed("IP version is not 4"))
        );
    }

    #[test]
    fn ip_options_rejected() {
        let mut buf = [0u8; 24];
        buf[0] = 0x46; // IHL 6
        assert!(matches!(
            Ipv4Header::parse(&buf),
            Err(HeaderError::Malformed(_))
        ));
    }
}
