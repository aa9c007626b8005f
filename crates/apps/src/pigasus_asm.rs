//! The Pigasus hardware-reorder firmware in actual RV32 assembly — the
//! Appendix B C code hand-lowered for the instruction-set simulator.
//!
//! The native-firmware version in [`crate::pigasus`] charges the paper's
//! measured cycle costs; this one *earns* them instruction by instruction on
//! the VexRiscv model: parse the header copy, feed the matcher over MMIO,
//! drain the result FIFO, append rule IDs to matched packets, route safe
//! traffic out the other port and matches to the host. Its tests run the
//! §7.1 case study with zero modelled software.
//!
//! Calibration note: this hand-scheduled loop takes ~32 cycles per safe
//! packet — roughly half the 61 the paper measured from riscv-gcc output
//! over its richer `slot_context` bookkeeping (the paper itself reports a
//! 30 % packet-rate gain just from struct-layout and compiler changes,
//! §7.1.4). The calibrated native firmware in [`crate::pigasus`] carries
//! the paper's measured numbers; this module demonstrates the mechanism
//! end to end on the instruction-set simulator.

/// The assembled HW-reorder IPS firmware (Appendix B).
///
/// Register conventions: `t0` = interconnect, `t1` = header slots, `t6` =
/// accelerator window, `s2` = per-slot descriptor context table in data
/// memory, matching the C code's `struct slot_context context[...]`.
pub const PIGASUS_HW_ASM: &str = "
    .equ IO,   0x02000000
    .equ HDR,  0x00804000        # header slots: DMEM_BASE + DMEM_SIZE/2
    .equ ACC,  0x03000000        # IO_EXT_BASE
    .equ CTX,  0x00800100        # slot_context array (8 B per slot)
        li t0, IO
        li t1, HDR
        li t6, ACC
        li t5, 0x0008            # EtherType 0x0800 as loaded little-endian
        li s2, CTX
        li s3, 0x01FFFFFF        # ACC_PIG_STATE_H for TCP
        li s4, 0x00FFFFFF        # PMEM offset mask (data addr -> accel addr)
        li s5, 0x01000000        # port XOR mask (egress flip)
        li s6, 0x02000000        # port = HOST in the descriptor low word
        li s7, -4                # alignment mask for rule-id append

    poll:
        lw a0, 0x00(t0)          # in_pkt_ready()
        beqz a0, check_match
        # ---- slot_rx_packet ----
        lw a1, 0x04(t0)          # RECV_DESC_LO
        lw a2, 0x08(t0)          # RECV_DESC_DATA
        sw zero, 0x0c(t0)        # RECV_DESC_RELEASE
        srli a3, a1, 16
        andi a3, a3, 0xff        # slot tag
        slli a4, a3, 7
        add a4, a4, t1           # header copy pointer
        slli a5, a3, 3
        add a5, a5, s2           # context entry
        sw a1, 0(a5)             # copy descriptor into context
        sw a2, 4(a5)
        lhu a6, 12(a4)           # eth_type
        bne a6, t5, drop
        lbu a6, 23(a4)           # IPv4 protocol
        li a7, 6
        beq a6, a7, is_tcp
        li a7, 17
        beq a6, a7, is_udp
    drop:
        srli a1, a1, 16          # desc.len = 0: drop
        slli a1, a1, 16
        sw a1, 0x10(t0)
        sw a2, 0x14(t0)          # pkt_send
        j poll

    is_tcp:
        # payload at 54; STATE_H = 0x01FFFFFF
        and a6, a2, s4           # accel-side packet-memory address
        addi a6, a6, 54
        sw a6, 0x08(t6)          # ACC_DMA_ADDR
        slli a7, a1, 16
        srli a7, a7, 16          # len
        addi a7, a7, -54
        sw a7, 0x04(t6)          # ACC_DMA_LEN
        lw a6, 34(a4)            # both ports, raw (the C does exactly this)
        sw a6, 0x20(t6)          # ACC_PIG_PORTS (raw form)
        sw s3, 0x14(t6)          # ACC_PIG_STATE_H
        sw a3, 0x18(t6)          # ACC_PIG_SLOT
        li a7, 1
        sw a7, 0x00(t6)          # ACC_PIG_CTRL = 1: kick
        j poll

    is_udp:
        and a6, a2, s4
        addi a6, a6, 42          # UDP payload offset
        sw a6, 0x08(t6)
        slli a7, a1, 16
        srli a7, a7, 16
        addi a7, a7, -42
        sw a7, 0x04(t6)
        lw a6, 34(a4)
        sw a6, 0x20(t6)
        sw zero, 0x14(t6)        # STATE_H = 0 for UDP
        sw a3, 0x18(t6)
        li a7, 1
        sw a7, 0x00(t6)
        j poll

    check_match:
        # ---- slot_match ----
        lbu a0, 0x00(t6)         # ACC_PIG_MATCH
        beqz a0, poll
        lw a1, 0x1c(t6)          # ACC_PIG_RULE_ID
        lw a3, 0x18(t6)          # ACC_PIG_SLOT (head entry's slot)
        li a7, 2
        sw a7, 0x00(t6)          # release the entry
        slli a5, a3, 3
        add a5, a5, s2
        lw t2, 0(a5)             # context desc lo
        lw a2, 4(a5)             # context data addr
        beqz a1, eop
        # match: append the rule id to the packet, mark for the host
        slli a6, t2, 16
        srli a6, a6, 16          # current len
        add a6, a6, a2           # end address
        addi a6, a6, 3
        and a6, a6, s7           # align up
        sw a1, 0(a6)             # *(unsigned int *)eop = rule_id
        sub a6, a6, a2
        addi a6, a6, 4           # new length
        # rebuild desc lo: len = a6, tag = a3, port = HOST
        slli t2, a3, 16
        or t2, t2, a6
        or t2, t2, s6            # port = 2 (host)
        sw t2, 0(a5)             # save back to context
        j check_match            # continue draining FIFO
    eop:
        # route: matched contexts already carry port=HOST; safe traffic
        # flips the ingress port
        srli a6, t2, 24
        li a7, 2
        beq a6, a7, send_it
        xor t2, t2, s5
    send_it:
        sw t2, 0x10(t0)
        sw a2, 0x14(t0)          # pkt_send(&slot->desc)
        j poll
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{attack_trace, synthetic_rules};
    use rosebud_accel::{PigasusMatcher, Rule, RuleSet};
    use rosebud_core::{
        port, Device, Rosebud, RosebudConfig, RoundRobinLb, RpuProgram, TraceConfig,
    };
    use rosebud_net::{Packet, PacketBuilder};
    use rosebud_riscv::assemble;

    /// The §7.1 HW-reorder IPS with the *assembled* firmware on every RPU —
    /// the all-the-way-down configuration (ISS + MMIO + accelerator model,
    /// no modelled software at all).
    fn build_pigasus_riscv_system(rules: Vec<Rule>, rpus: usize, engines: u32) -> Rosebud {
        let mut cfg = RosebudConfig::with_rpus(rpus);
        cfg.slots_per_rpu = 32;
        let compiled = RuleSet::compile(rules);
        let image = assemble(PIGASUS_HW_ASM).unwrap();
        Rosebud::builder(cfg)
            .load_balancer(Box::new(RoundRobinLb::new()))
            .accelerator(move |_| Box::new(PigasusMatcher::new(compiled.clone(), engines)))
            .firmware(move |_| RpuProgram::Riscv(image.clone()))
            .build()
            .unwrap()
    }

    /// A traced one-RPU box after taking `pkts`, offered in order (ticking
    /// while its ingress refuses one), and running `cycles` more.
    fn one_rpu(rules: Vec<Rule>, pkts: &[&Packet], cycles: u64) -> Rosebud {
        let mut sys = build_pigasus_riscv_system(rules, 1, 16);
        sys.enable_tracing(TraceConfig::default());
        for &pkt in pkts {
            let mut pkt = pkt.clone();
            while let Err(back) = sys.inject(pkt) {
                pkt = back;
                sys.tick();
            }
        }
        sys.run(cycles);
        sys
    }

    /// The cycle of each delivered packet's last send, in delivery order.
    fn sends(sys: &Rosebud) -> Vec<u64> {
        let tracer = sys.tracer().unwrap();
        let sent = tracer.residencies(0).into_iter();
        sent.map(|(_, tx)| tx.expect("sent")).collect()
    }

    /// Every frame the box delivered, as `(port, frame)`.
    fn frames(sys: &mut Rosebud) -> Vec<(usize, Packet)> {
        let mut out = Vec::new();
        sys.drain(&mut |lane, pkt| out.push((lane, pkt)));
        out
    }

    #[test]
    fn assembled_firmware_forwards_safe_tcp() {
        let pkt = PacketBuilder::new()
            .tcp(4000, 443)
            .pad_to(256)
            .port(0)
            .build();
        let out = frames(&mut one_rpu(synthetic_rules(32, 17), &[&pkt], 3000));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 1, "safe TCP flips ports");
        assert_eq!(out[0].1.len(), 256);
    }

    #[test]
    fn assembled_firmware_flags_attacks_with_rule_id() {
        let rules = synthetic_rules(32, 17);
        let rule = rules[3].clone();
        let mut payload = vec![b'-'; 300];
        payload[40..40 + rule.pattern.len()].copy_from_slice(&rule.pattern);
        let pkt = PacketBuilder::new()
            .tcp(5000, rule.dst_port.unwrap_or(80))
            .payload(&payload)
            .build();
        let out = frames(&mut one_rpu(rules, &[&pkt], 5000));
        assert_eq!(out.len(), 1);
        let (lane, frame) = &out[0];
        assert_eq!(
            *lane,
            usize::from(port::HOST),
            "matched packet goes to host"
        );
        assert!(frame.len() > 354, "rule id appended");
        let bytes = frame.bytes();
        let sid = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        assert_eq!(sid, rule.id);
    }

    #[test]
    fn assembled_firmware_drops_non_ip() {
        let pkt = PacketBuilder::new()
            .ethertype(rosebud_net::EtherType::ARP)
            .pad_to(64)
            .build();
        let mut sys = one_rpu(synthetic_rules(8, 3), &[&pkt], 2000);
        assert_eq!(sends(&sys).len(), 1, "the firmware let go of the packet");
        assert_eq!(sys.drop_count(), 1, "by a zero-length send");
        assert!(frames(&mut sys).is_empty());
    }

    #[test]
    fn assembled_firmware_cycles_near_the_papers_61() {
        let pkt = PacketBuilder::new().tcp(4000, 443).pad_to(256).build();
        let sent = sends(&one_rpu(synthetic_rules(32, 17), &[&pkt; 10], 3_000));
        assert_eq!(sent.len(), 10);
        let per_packet = (sent[9] - sent[1]) as f64 / 8.0;
        // The hand-scheduled loop comes out around half the paper's
        // 61 cycles — their number is riscv-gcc output over a richer
        // slot-context structure (and the paper itself found 30 % headroom
        // just from struct-layout changes, §7.1.4). The calibrated native
        // firmware carries the measured 61; this test pins the assembled
        // loop's cost so regressions are visible.
        assert_eq!(
            per_packet, 32.0,
            "assembled IPS loop cycles/packet (paper's C: 61)"
        );
    }

    #[test]
    fn full_system_with_assembled_firmware_matches_ground_truth() {
        let rules = synthetic_rules(16, 41);
        let mut sys = build_pigasus_riscv_system(rules.clone(), 4, 16);
        let attacks = attack_trace(&rules, 400);
        for pkt in &attacks {
            let mut p = pkt.clone();
            loop {
                match sys.inject(p) {
                    Ok(()) => break,
                    Err(back) => {
                        p = back;
                        sys.tick();
                    }
                }
            }
            for _ in 0..8 {
                sys.tick();
            }
        }
        sys.run(60_000);
        let host = sys.take_host_packets();
        assert_eq!(host.len(), attacks.len(), "every attack flagged to host");
        let mut escaped = 0;
        sys.drain(&mut |_, _| escaped += 1);
        assert_eq!(escaped, 0, "no attack escaped on a physical port");
    }
}
