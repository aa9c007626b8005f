//! Property tests on the packet substrate: build→parse round-trips,
//! checksum validity, and flow-hash stability.

use proptest::prelude::*;
use rosebud_net::{
    flow_hash, ipv4_checksum, EthHeader, EtherType, FlowKey, IpProtocol, Ipv4Header, PacketBuilder,
    TcpHeader, UdpHeader,
};

/// What `PacketBuilder::build_with` must produce, assembled the way it used
/// to be: the payload grown to honour `pad_to`, then each header appended to
/// a growing buffer. `l4` is `(0 = none | 1 = TCP | 2 = UDP, src, dst)`.
fn reference_frame(
    ethertype: EtherType,
    l4: (u8, u16, u16),
    mut payload: Vec<u8>,
    pad_to: Option<usize>,
    id: u64,
) -> Vec<u8> {
    let ipv4 = ethertype == EtherType::IPV4;
    let l4_len = [0, 20, 8][l4.0 as usize];
    let base = 14 + if ipv4 { 20 + l4_len } else { 0 };
    if let Some(target) = pad_to {
        if base + payload.len() < target {
            payload.resize(target - base, 0);
        }
    }
    let mut data = vec![0u8; 14];
    EthHeader {
        dst: [0x02, 0, 0, 0, 0, 2],
        src: [0x02, 0, 0, 0, 0, 1],
        ethertype,
    }
    .write(&mut data);
    if ipv4 {
        data.resize(34, 0);
        Ipv4Header {
            dscp: 0,
            total_len: (20 + l4_len + payload.len()) as u16,
            ident: id as u16,
            ttl: 64,
            protocol: [IpProtocol(0xfd), IpProtocol::TCP, IpProtocol::UDP][l4.0 as usize],
            checksum: 0,
            src: [10, 0, 0, 1],
            dst: [10, 0, 0, 2],
        }
        .write(&mut data[14..]);
        data.resize(34 + l4_len, 0);
        match l4.0 {
            1 => TcpHeader {
                src_port: l4.1,
                dst_port: l4.2,
                seq: 0,
                ack: 0,
                flags: 0x10,
                window: 65535,
            }
            .write(&mut data[34..]),
            2 => UdpHeader {
                src_port: l4.1,
                dst_port: l4.2,
                len: (8 + payload.len()) as u16,
            }
            .write(&mut data[34..]),
            _ => {}
        }
    }
    data.extend_from_slice(&payload);
    data
}

proptest! {
    // The in-place builder against the incremental reference, over every
    // shape the builder has — IPv4 or not, each L4, `pad_to` absent, below
    // and above the natural length — for each random payload.
    #[test]
    fn builder_matches_incremental_reference(
        ports in (any::<u16>(), any::<u16>()),
        payload in proptest::collection::vec(any::<u8>(), 0..2000),
        pad_by in 1usize..600,
        id in any::<u64>(),
    ) {
        for (ethertype, l4_kind, pad_kind) in [EtherType::IPV4, EtherType::ARP]
            .into_iter()
            .flat_map(|e| (0u8..3).flat_map(move |l| (0u8..3).map(move |p| (e, l, p))))
        {
            let ipv4 = ethertype == EtherType::IPV4;
            let l4 = (l4_kind, ports.0, ports.1);
            let headers = 14 + if ipv4 { 20 + [0, 20, 8][l4_kind as usize] } else { 0 };
            let natural = headers + payload.len();
            let pad_to = match pad_kind {
                0 => None,
                1 => Some(natural.saturating_sub(pad_by)),
                _ => Some(natural + pad_by),
            };

            let mut builder = PacketBuilder::new().ethertype(ethertype).payload(&payload);
            builder = match l4_kind {
                1 => builder.tcp(ports.0, ports.1),
                2 => builder.udp(ports.0, ports.1),
                _ => builder,
            };
            if let Some(target) = pad_to {
                builder = builder.pad_to(target);
            }
            let pkt = builder.build_with(id, 7);

            let want = reference_frame(ethertype, l4, payload.clone(), pad_to, id);
            // Not `prop_assert_eq!`: two 2 kB frames make an unreadable failure.
            let differs_at = pkt.data.iter().zip(&want).position(|(a, b)| a != b);
            prop_assert!(
                pkt.data.len() == want.len() && differs_at.is_none(),
                "{:?} l4={} pad_to={:?}: {} B built, {} B expected, first difference at {:?}",
                ethertype, l4_kind, pad_to, pkt.data.len(), want.len(), differs_at
            );
            prop_assert_eq!(pkt.data.capacity(), pkt.data.len());
            prop_assert_eq!((pkt.id, pkt.ts_gen), (id, 7));
            if ipv4 {
                prop_assert_eq!(pkt.ipv4().unwrap().total_len as usize, pkt.data.len() - 14);
            }
            if ipv4 && l4_kind == 2 {
                prop_assert_eq!(pkt.udp().unwrap().len as usize, pkt.data.len() - 34);
            }
            prop_assert_eq!(pkt.tcp().is_ok(), ipv4 && l4_kind == 1);
        }
    }

    #[test]
    fn tcp_build_parse_round_trip(
        src in any::<[u8; 4]>(),
        dst in any::<[u8; 4]>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        seq in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let pkt = PacketBuilder::new()
            .src_ip(src)
            .dst_ip(dst)
            .tcp(sport, dport)
            .seq(seq)
            .payload(&payload)
            .build();
        let ip = pkt.ipv4().unwrap();
        prop_assert_eq!(ip.src, src);
        prop_assert_eq!(ip.dst, dst);
        prop_assert_eq!(ip.total_len as usize, 20 + 20 + payload.len());
        let tcp = pkt.tcp().unwrap();
        prop_assert_eq!(tcp.src_port, sport);
        prop_assert_eq!(tcp.dst_port, dport);
        prop_assert_eq!(tcp.seq, seq);
        prop_assert_eq!(pkt.payload().unwrap(), &payload[..]);
    }

    #[test]
    fn udp_build_parse_round_trip(
        sport in any::<u16>(),
        dport in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let pkt = PacketBuilder::new().udp(sport, dport).payload(&payload).build();
        let udp = pkt.udp().unwrap();
        prop_assert_eq!(udp.src_port, sport);
        prop_assert_eq!(udp.dst_port, dport);
        prop_assert_eq!(udp.len as usize, 8 + payload.len());
    }

    #[test]
    fn ipv4_checksum_validates(
        src in any::<[u8; 4]>(),
        dst in any::<[u8; 4]>(),
        len in 20u16..1500,
        ttl in 1u8..=255,
        ident in any::<u16>(),
    ) {
        let hdr = Ipv4Header {
            dscp: 0,
            total_len: len,
            ident,
            ttl,
            protocol: rosebud_net::IpProtocol::TCP,
            checksum: 0,
            src,
            dst,
        };
        let mut buf = [0u8; 20];
        hdr.write(&mut buf);
        // The stored checksum must make the header sum to 0xffff; the
        // checksum function over the written header must agree with the
        // stored field.
        let stored = u16::from_be_bytes([buf[10], buf[11]]);
        prop_assert_eq!(ipv4_checksum(&buf), stored);
    }

    #[test]
    fn pad_to_never_shrinks(
        payload in proptest::collection::vec(any::<u8>(), 0..300),
        target in 60usize..2000,
    ) {
        let pkt = PacketBuilder::new().tcp(1, 2).payload(&payload).pad_to(target).build();
        prop_assert!(pkt.len() as usize >= target.max(54 + payload.len()));
    }

    #[test]
    fn flow_hash_depends_only_on_five_tuple(
        src in any::<[u8; 4]>(),
        dst in any::<[u8; 4]>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        pa in proptest::collection::vec(any::<u8>(), 0..64),
        pb in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mk = |payload: &[u8]| {
            PacketBuilder::new()
                .src_ip(src)
                .dst_ip(dst)
                .tcp(sport, dport)
                .payload(payload)
                .build()
        };
        prop_assert_eq!(flow_hash(&mk(&pa)), flow_hash(&mk(&pb)));
    }

    #[test]
    fn flow_key_extraction_matches_headers(
        src in any::<[u8; 4]>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
    ) {
        let pkt = PacketBuilder::new().src_ip(src).tcp(sport, dport).build();
        let key = FlowKey::of(&pkt).unwrap();
        prop_assert_eq!(key.src_ip, u32::from_be_bytes(src));
        prop_assert_eq!(key.src_port, sport);
        prop_assert_eq!(key.dst_port, dport);
        prop_assert_eq!(key.protocol, 6);
    }
}
