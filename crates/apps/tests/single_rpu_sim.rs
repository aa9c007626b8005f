//! Single-RPU simulations reproducing the paper's per-packet cycle counts
//! (§7.1.4): "we observed that it takes 61 cycles for safe TCP packets,
//! 59 cycles for safe UDP packets, and 82 cycles for attack traffic" — the
//! numbers the Fig. 9 average (60.2) is built from. Also the firewall
//! firmware's per-packet cost backing the §7.2 crossover at 256 B.
//!
//! Each simulation is a one-RPU box read off its trace: a packet's cycles
//! run from its descriptor's delivery to its last send
//! ([`Tracer::residencies`](rosebud_core::Tracer::residencies)). The
//! simulator is deterministic, so every count is pinned exactly.

use rosebud_accel::{Accelerator, FirewallMatcher, PigasusMatcher, RuleSet};
use rosebud_apps::firewall::{firewall_image, synthetic_blacklist};
use rosebud_apps::pigasus::{PigasusFirmware, ReorderMode};
use rosebud_apps::rules::synthetic_rules;
use rosebud_core::{port, Device, Rosebud, RosebudConfig, RpuProgram, TraceConfig};
use rosebud_net::{Packet, PacketBuilder};

/// A traced one-RPU box with `slots` descriptor slots, running `program`
/// beside `accel`.
fn one_rpu(
    slots: usize,
    accel: impl Fn(usize) -> Box<dyn Accelerator> + Send + 'static,
    program: impl Fn(usize) -> RpuProgram + Send + 'static,
) -> Rosebud {
    let mut cfg = RosebudConfig::with_rpus(1);
    cfg.slots_per_rpu = slots;
    let mut sys = Rosebud::builder(cfg)
        .accelerator(accel)
        .firmware(program)
        .build()
        .unwrap();
    sys.enable_tracing(TraceConfig::default());
    sys
}

fn pigasus_box(rules: Vec<rosebud_accel::Rule>) -> Rosebud {
    let compiled = RuleSet::compile(rules);
    one_rpu(
        32,
        move |_| Box::new(PigasusMatcher::new(compiled.clone(), 16)),
        |_| RpuProgram::Native(Box::new(PigasusFirmware::new(ReorderMode::Hardware, 32))),
    )
}

fn firewall_box(blacklist: Vec<[u8; 4]>) -> Rosebud {
    let image = firewall_image();
    one_rpu(
        16,
        move |_| Box::new(FirewallMatcher::from_prefixes(&blacklist)),
        move |_| RpuProgram::Riscv(image.clone()),
    )
}

/// Offers `pkts` in order, ticking while the box's ingress refuses one,
/// then runs `cycles` more.
fn feed(sys: &mut Rosebud, pkts: &[&Packet], cycles: u64) {
    for &pkt in pkts {
        let mut pkt = pkt.clone();
        while let Err(back) = sys.inject(pkt) {
            pkt = back;
            sys.tick();
        }
    }
    sys.run(cycles);
}

/// Each delivered packet's `(delivered, last sent)` cycles, in delivery
/// order; every one must have been sent.
fn residencies(sys: &Rosebud) -> Vec<(u64, u64)> {
    let tracer = sys.tracer().expect("traced box");
    tracer
        .residencies(0)
        .into_iter()
        .map(|(rx, tx)| (rx, tx.expect("the firmware let go of every packet")))
        .collect()
}

/// Every frame the box delivered, as `(port, frame)`.
fn outputs(sys: &mut Rosebud) -> Vec<(usize, Packet)> {
    let mut out = Vec::new();
    sys.drain(&mut |lane, pkt| out.push((lane, pkt)));
    out
}

/// Steady-state cycles per packet: a back-to-back burst of ten, measured as
/// the inter-send spacing — the way the paper's single-RPU simulation
/// reports "61 cycles for safe TCP packets" (§7.1.4).
fn steady_state_cycles(sys: &mut Rosebud, pkt: &Packet) -> f64 {
    feed(sys, &[pkt; 10], 2_000);
    let sends: Vec<u64> = residencies(sys).iter().map(|&(_, tx)| tx).collect();
    assert_eq!(sends.len(), 10, "burst did not fully drain");
    // Skip the first gap (pipeline fill); average the rest.
    (sends[9] - sends[1]) as f64 / 8.0
}

#[test]
fn safe_tcp_packet_takes_61_cycles() {
    let mut sys = pigasus_box(synthetic_rules(64, 17));
    let pkt = PacketBuilder::new().tcp(4000, 80).pad_to(512).build();
    let cycles = steady_state_cycles(&mut sys, &pkt);
    assert_eq!(cycles, 61.0, "safe TCP cycles/packet, paper: 61");
    let out = outputs(&mut sys);
    assert_eq!(out.len(), 10);
    assert!(out.iter().all(|&(p, _)| p == 1));
}

#[test]
fn safe_udp_packet_takes_59_cycles() {
    let mut sys = pigasus_box(synthetic_rules(64, 17));
    let pkt = PacketBuilder::new().udp(4000, 53).pad_to(512).build();
    let udp_cycles = steady_state_cycles(&mut sys, &pkt);
    assert_eq!(udp_cycles, 59.0, "safe UDP cycles/packet, paper: 59");
    let mut sys = pigasus_box(synthetic_rules(64, 17));
    let tcp = PacketBuilder::new().tcp(1, 2).pad_to(512).build();
    let tcp_cycles = steady_state_cycles(&mut sys, &tcp);
    assert!(
        tcp_cycles > udp_cycles,
        "TCP ({tcp_cycles:.1}) must cost more than UDP ({udp_cycles:.1})"
    );
}

#[test]
fn attack_packet_takes_82_cycles_and_reaches_host() {
    let rules = synthetic_rules(64, 17);
    let mut sys = pigasus_box(rules.clone());
    let rule = &rules[0];
    let mut payload = vec![b'.'; 400];
    payload[100..100 + rule.pattern.len()].copy_from_slice(&rule.pattern);
    let dst = rule.dst_port.unwrap_or(80);
    let pkt = PacketBuilder::new()
        .tcp(4000, dst)
        .payload(&payload)
        .build();
    let cycles = steady_state_cycles(&mut sys, &pkt);
    assert_eq!(cycles, 82.0, "attack cycles/packet, paper: 82");
    let out = outputs(&mut sys);
    assert_eq!(out.len(), 10);
    for (p, frame) in out {
        assert_eq!(p, usize::from(port::HOST), "matched packets go to the host");
        // The rule id rides the end of the frame.
        let bytes = frame.bytes();
        let sid = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        assert_eq!(sid, rule.id);
    }
}

#[test]
fn non_ip_packet_is_dropped_cheaply() {
    let mut sys = pigasus_box(synthetic_rules(64, 17));
    let pkt = PacketBuilder::new()
        .ethertype(rosebud_net::EtherType::ARP)
        .pad_to(64)
        .build();
    feed(&mut sys, &[&pkt], 500);
    let [(rx, tx)] = residencies(&sys)[..] else {
        panic!("one packet delivered");
    };
    assert_eq!(tx - rx, 0, "dropped in the cycle it arrived");
    assert_eq!(sys.drop_count(), 1, "dropped via zero length");
    assert!(outputs(&mut sys).is_empty());
}

#[test]
fn firewall_firmware_is_under_45_cycles_per_packet() {
    // 16 RPUs at 250 MHz hit 200 Gbps of 256 B frames (89.3 Mpps) only if
    // the per-packet loop stays under 16 × 250e6 / 89.3e6 ≈ 44.8 cycles.
    let mut sys = firewall_box(synthetic_blacklist(256, 3));
    // Steady-state spacing over a burst.
    let pkt = PacketBuilder::new()
        .src_ip([240, 1, 2, 3])
        .tcp(1, 80)
        .pad_to(256)
        .build();
    feed(&mut sys, &[&pkt; 8], 500);
    let sends: Vec<u64> = residencies(&sys).iter().map(|&(_, tx)| tx).collect();
    assert_eq!(sends.len(), 8);
    let gap = (sends[7] - sends[1]) as f64 / 6.0;
    assert!(
        gap < 44.8,
        "firewall loop {gap:.1} cycles/packet breaks the 256 B line-rate claim"
    );
    assert_eq!(gap, 28.0, "firewall loop cycles/packet");
}

#[test]
fn firewall_drop_path_sends_zero_length() {
    let mut sys = firewall_box(vec![[9, 9, 9, 0]]);
    let bad = PacketBuilder::new()
        .src_ip([9, 9, 9, 77])
        .tcp(1, 2)
        .pad_to(128)
        .build();
    feed(&mut sys, &[&bad], 500);
    assert_eq!(sys.drop_count(), 1, "blacklisted packet must drop");
    let [(rx, tx)] = residencies(&sys)[..] else {
        panic!("one packet delivered");
    };
    assert_eq!(tx - rx, 31, "drop path: cycles delivery → send");
    let good = PacketBuilder::new()
        .src_ip([8, 8, 8, 8])
        .tcp(1, 2)
        .pad_to(128)
        .build();
    feed(&mut sys, &[&good], 500);
    let out = outputs(&mut sys);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].1.len(), 128);
}
