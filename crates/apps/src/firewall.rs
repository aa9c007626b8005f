//! The blacklisting firewall case study (paper §7.2, Appendix C).
//!
//! A firewall "checks every single packet, and drops the packets whose IP
//! matches a blacklist, otherwise they are forwarded to the other Ethernet
//! interface." The accelerator is a two-cycle IP-prefix matcher generated
//! from the blacklist ([`rosebud_accel::FirewallMatcher`]); the firmware
//! below is the Appendix C loop in our RV32 assembly.

use rosebud_accel::FirewallMatcher;
use rosebud_core::{Rosebud, RosebudConfig, RoundRobinLb, RpuProgram};
use rosebud_kernel::SimRng;
use rosebud_net::{Packet, PacketBuilder};
use rosebud_riscv::{assemble, Image};

/// Assembly source of the firewall firmware — the Appendix C C code,
/// hand-lowered: parse EtherType from the low-latency header copy, feed the
/// source IP to the accelerator over MMIO, read the match flag, and either
/// drop (send with length zero) or forward on the other port.
pub const FIREWALL_ASM: &str = "
    .equ IO,   0x02000000
    .equ HDR,  0x00804000        # header slots: DMEM_BASE + DMEM_SIZE/2
    .equ ACC,  0x03000000        # IO_EXT_BASE
        li t0, IO
        li t1, HDR
        li t6, ACC
        li t5, 0x0008            # EtherType 0x0800 as loaded little-endian
        li t4, 0x01000000        # port XOR mask
    poll:
        lw a0, 0x00(t0)          # in_pkt_ready()
        beqz a0, poll
        lw a1, 0x04(t0)          # read descriptor
        lw a2, 0x08(t0)
        sw zero, 0x0c(t0)        # release
        srli a3, a1, 16          # slot tag
        andi a3, a3, 0xff
        slli a4, a3, 7           # * 128-byte header slots
        add a4, a4, t1
        lhu a5, 12(a4)           # eth_type
        bne a5, t5, drop         # non-IPv4 -> drop (Appendix C)
        lw a6, 26(a4)            # src_ip (raw lw of the wire field)
        sw a6, 0x00(t6)          # ACC_SRC_IP: start the 2-cycle lookup
        lbu a7, 0x04(t6)         # ACC_FW_MATCH (blocking read)
        bnez a7, drop
        xor a1, a1, t4           # desc->port ^= 1
        sw a1, 0x10(t0)
        sw a2, 0x14(t0)          # pkt_send(desc)
        j poll
    drop:
        srli a1, a1, 16          # desc->len = 0
        slli a1, a1, 16
        sw a1, 0x10(t0)
        sw a2, 0x14(t0)          # pkt_send(desc) frees the slot
        j poll
";

/// Assembles the firewall firmware.
///
/// # Panics
///
/// Panics only if the embedded source fails to assemble (a build bug).
pub fn firewall_image() -> Image {
    assemble(FIREWALL_ASM).expect("embedded firewall firmware must assemble")
}

/// Generates a deterministic synthetic blacklist of `n` addresses spread
/// over many 9-bit groups — the stand-in for the proprietary
/// emerging-threats feed (1050 entries in the paper).
pub fn synthetic_blacklist(n: usize, seed: u64) -> Vec<[u8; 4]> {
    let mut rng = SimRng::seed_from(seed);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let ip = [
            1 + rng.below(223) as u8, // avoid 0.x and multicast
            rng.below(256) as u8,
            rng.below(256) as u8,
            0,
        ];
        if seen.insert([ip[0], ip[1], ip[2]]) {
            out.push(ip);
        }
    }
    out
}

/// Builds the §7.2 firewall system: `rpus` RPUs each hosting the generated
/// IP matcher and running the Appendix C firmware, behind a round-robin LB.
///
/// # Errors
///
/// Propagates configuration-validation errors from the builder.
pub fn build_firewall_system(rpus: usize, blacklist: &[[u8; 4]]) -> Result<Rosebud, String> {
    let image = firewall_image();
    let blacklist = blacklist.to_vec();
    Rosebud::builder(RosebudConfig::with_rpus(rpus))
        .load_balancer(Box::new(RoundRobinLb::new()))
        .accelerator(move |_| Box::new(FirewallMatcher::from_prefixes(&blacklist)))
        .firmware(move |_| RpuProgram::Riscv(image.clone()))
        .build()
}

/// Generates the verification trace of Appendix D: one packet per blacklist
/// entry plus `safe` packets from clean addresses, all TCP, `size` bytes.
pub fn firewall_trace(blacklist: &[[u8; 4]], safe: usize, size: usize) -> Vec<Packet> {
    let mut trace = Vec::new();
    let mut id = 0u64;
    for ip in blacklist {
        trace.push(
            PacketBuilder::new()
                .src_ip(*ip)
                .dst_ip([172, 16, 0, 1])
                .tcp(40_000, 80)
                .pad_to(size)
                .port((id % 2) as u8)
                .build_with(id, 0),
        );
        id += 1;
    }
    for i in 0..safe {
        trace.push(
            PacketBuilder::new()
                .src_ip([240, 0, (i >> 8) as u8, i as u8]) // class E: never blacklisted
                .dst_ip([172, 16, 0, 1])
                .tcp(40_001, 80)
                .pad_to(size)
                .port((id % 2) as u8)
                .build_with(id, 0),
        );
        id += 1;
    }
    trace
}

/// Ground truth: how many packets of `trace` the blacklist should drop.
pub fn expected_drops(trace: &[Packet], blacklist: &[[u8; 4]]) -> usize {
    let matcher = FirewallMatcher::from_prefixes(blacklist);
    trace
        .iter()
        .filter(|pkt| {
            pkt.ipv4()
                .map(|ip| matcher.is_blacklisted(ip.src_u32()))
                .unwrap_or(true) // non-IP drops too
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rosebud_core::Harness;
    use rosebud_net::{AttackMixGen, FixedSizeGen};

    #[test]
    fn synthetic_blacklist_is_deterministic_and_unique_prefixes() {
        let a = synthetic_blacklist(1050, 42);
        let b = synthetic_blacklist(1050, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1050);
        let prefixes: std::collections::HashSet<[u8; 3]> =
            a.iter().map(|ip| [ip[0], ip[1], ip[2]]).collect();
        assert_eq!(prefixes.len(), 1050, "prefixes must be distinct");
    }

    #[test]
    fn firewall_drops_exactly_the_blacklist() {
        let blacklist = synthetic_blacklist(50, 3);
        let sys = build_firewall_system(4, &blacklist).unwrap();
        let mut h = Harness::new(sys, Box::new(NoopGen), 0.0);
        // Inject the verification trace directly at low rate.
        let trace = firewall_trace(&blacklist, 4, 128);
        let expected_dropped = expected_drops(&trace, &blacklist);
        assert_eq!(expected_dropped, 50);
        let total = trace.len();
        for pkt in &trace {
            let mut p = pkt.clone();
            loop {
                match h.sys.inject(p) {
                    Ok(()) => break,
                    Err(back) => {
                        p = back;
                        h.tick();
                    }
                }
            }
            h.tick();
        }
        h.run(20_000);
        assert_eq!(h.received() as usize, total - expected_dropped);
        assert_eq!(h.sys.drop_count() as usize, expected_dropped);
    }

    #[test]
    fn firewall_forwards_at_rate_with_attack_mix() {
        let blacklist = synthetic_blacklist(200, 9);
        let sys = build_firewall_system(8, &blacklist).unwrap();
        let base = FixedSizeGen::new(256, 2);
        let gen = AttackMixGen::new(base, 0.02, Vec::new(), 5).with_attack_ips(blacklist.clone());
        let mut h = Harness::new(sys, Box::new(gen), 40.0);
        h.run(30_000);
        h.begin_window();
        h.run(60_000);
        let m = h.measure();
        assert!(m.gbps > 30.0, "firewall forwarded only {:.1} Gbps", m.gbps);
        assert!(h.sys.drop_count() > 0, "attack packets must be dropped");
    }
}

/// A generator paired with a 0 Gbps target when a test injects its own
/// trace through [`Rosebud::inject`](rosebud_core::Rosebud::inject).
#[derive(Debug)]
pub struct NoopGen;

impl rosebud_net::TrafficGen for NoopGen {
    fn generate(&mut self, id: u64, ts: u64) -> rosebud_net::Packet {
        rosebud_net::Packet::new(id, vec![0; 60], 0, ts)
    }

    fn next_size(&self) -> usize {
        60
    }
}
