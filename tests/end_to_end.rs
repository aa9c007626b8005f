//! Cross-crate integration: packets generated by `rosebud-net` flow through
//! the `rosebud-core` fabric, are processed by assembled `rosebud-riscv`
//! firmware, and come out conserved and accounted.

use rosebud::apps::forwarder::{build_forwarding_system, build_two_step_system};
use rosebud::core::{Device, Harness, RosebudConfig, RoundRobinLb, RpuProgram};
use rosebud::net::{FixedSizeGen, FlowTrafficGen, Packet, TrafficGen};
use rosebud::riscv::assemble;

#[test]
fn every_injected_packet_is_delivered_or_accounted() {
    let sys = build_forwarding_system(8).unwrap();
    let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(300, 2)), 60.0);
    h.run(50_000);
    let injected = h.injected();
    // Stop injecting and let the fabric drain (ticking the system directly
    // bypasses the paced source).
    h.sys.run(30_000);
    // Drained stragglers count as delivered.
    h.sys.drain(&mut |_, _| {});
    assert_eq!(h.sys.ledger_in_flight(), 0, "system failed to drain");
    let delivered = h.received() + h.host_received();
    let drops = h.sys.drop_count();
    assert!(
        delivered + drops <= injected,
        "more packets out ({delivered} + {drops}) than in ({injected})"
    );
    assert_eq!(drops, 0, "the forwarder never drops");
}

#[test]
fn identical_payloads_survive_the_trip() {
    let sys = build_forwarding_system(4).unwrap();
    let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(256, 2)), 5.0).keep_output(true);
    h.run(20_000);
    // Regenerate the trace in id order: the generator's payload depends on
    // its internal counter, which tracks sequential ids.
    let mut gen = FixedSizeGen::new(256, 2);
    let max_id = h.collected().iter().map(|p| p.id).max().unwrap();
    let reference: Vec<Packet> = (0..=max_id).map(|i| gen.generate(i, 0)).collect();
    for pkt in h.collected() {
        let want = &reference[pkt.id as usize];
        // The forwarder does not touch bytes; everything after the Ethernet
        // header matches (the harness re-stamps ports in metadata only).
        assert_eq!(pkt.bytes().len(), want.bytes().len());
        assert_eq!(&pkt.bytes()[14..], &want.bytes()[14..]);
    }
    assert!(!h.collected().is_empty());
}

#[test]
fn flow_traffic_round_trips_through_16_rpus() {
    let sys = build_forwarding_system(16).unwrap();
    let gen = FlowTrafficGen::new(256, 700, 0.01, 77);
    let mut h = Harness::new(sys, Box::new(gen), 150.0);
    h.run(40_000);
    h.begin_window();
    h.run(80_000);
    let m = h.measure();
    assert!(m.gbps > 130.0, "only {:.1} Gbps", m.gbps);
    assert_eq!(h.sys.drop_count(), 0);
}

#[test]
fn two_step_loopback_preserves_packet_bytes() {
    let sys = build_two_step_system(8).unwrap();
    let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(400, 2)), 20.0).keep_output(true);
    h.run(40_000);
    assert!(h.received() > 50);
    let mut gen = FixedSizeGen::new(400, 2);
    let max_id = h.collected().iter().map(|p| p.id).max().unwrap();
    let reference: Vec<Packet> = (0..=max_id).map(|i| gen.generate(i, 0)).collect();
    for pkt in h.collected() {
        assert_eq!(
            &pkt.bytes()[14..],
            &reference[pkt.id as usize].bytes()[14..],
            "loopback corrupted packet {}",
            pkt.id
        );
    }
}

#[test]
fn firmware_can_compute_over_headers() {
    // A firmware mixing computation with packet handling: accumulates the
    // first payload word of every packet into the status register.
    let image = assemble(
        "
        .equ IO, 0x02000000
        .equ HDR, 0x00804000
            li t0, IO
            li t1, HDR
            li t2, 0x01000000
            li s1, 0
        poll:
            lw a0, 0x00(t0)
            beqz a0, poll
            lw a1, 0x04(t0)
            lw a2, 0x08(t0)
            sw zero, 0x0c(t0)
            srli a3, a1, 16
            andi a3, a3, 0xff
            slli a4, a3, 7
            add a4, a4, t1
            lw a5, 54(a4)        # first TCP payload word from header copy
            addi a5, a5, 1       # never zero, even for zero payloads
            add s1, s1, a5
            sw s1, 0x18(t0)      # STATUS accumulates
            xor a1, a1, t2
            sw a1, 0x10(t0)
            sw a2, 0x14(t0)
            j poll
        ",
    )
    .unwrap();
    let sys = rosebud::core::Rosebud::builder(RosebudConfig::with_rpus(2))
        .load_balancer(Box::new(RoundRobinLb::new()))
        .firmware(move |_| RpuProgram::Riscv(image.clone()))
        .build()
        .unwrap();
    let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(128, 2)), 2.0);
    h.run(30_000);
    assert!(h.received() > 20);
    assert!(
        h.sys.rpu_status(0) != 0 && h.sys.rpu_status(1) != 0,
        "both RPUs must have processed packets and published status"
    );
}

#[test]
fn eight_and_sixteen_rpu_layouts_scale_packet_rate() {
    let mut rates = Vec::new();
    for rpus in [8usize, 16] {
        let sys = build_forwarding_system(rpus).unwrap();
        let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(64, 2)), 205.0);
        h.run(30_000);
        h.begin_window();
        h.run(60_000);
        rates.push(h.measure().mpps);
    }
    let ratio = rates[1] / rates[0];
    assert!(
        (1.8..2.2).contains(&ratio),
        "16-RPU rate should double the 8-RPU rate: {rates:?}"
    );
}

#[test]
fn jumbo_frames_flow_end_to_end() {
    let sys = build_forwarding_system(16).unwrap();
    let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(9000, 2)), 190.0);
    h.run(80_000);
    h.begin_window();
    h.run(100_000);
    let m = h.measure();
    assert!(m.gbps > 180.0, "jumbo frames stalled at {:.1} Gbps", m.gbps);
    assert_eq!(h.sys.drop_count(), 0);
}
