//! The host's view of a running system (§3.4, §4.2–4.3, Appendix A):
//! LB register channel, counters, debug channel, poke/breakpoint, memory
//! access, and partial reconfiguration.

use rosebud::apps::forwarder::build_forwarding_system;
use rosebud::core::{lb_regs, FaultKind, Harness, HostOp, MemRegion, RpuProgram, RpuState};
use rosebud::net::FixedSizeGen;
use rosebud::riscv::assemble;

#[test]
fn lb_channel_reads_enable_mask_and_slot_counts() {
    let mut sys = build_forwarding_system(8).unwrap();
    assert_eq!(sys.lb_host_read(lb_regs::ENABLE_LO), 0xff);
    for r in 0..8 {
        assert_eq!(
            sys.lb_host_read(lb_regs::SLOTS_BASE + r),
            sys.config().slots_per_rpu as u32
        );
    }
    // Disable RPUs 0–3 and check traffic avoids them.
    sys.apply(HostOp::LbWrite {
        addr: lb_regs::ENABLE_LO,
        value: 0xf0,
    })
    .unwrap();
    assert_eq!(sys.enabled_mask(), 0xf0);
    let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(256, 2)), 20.0);
    h.run(30_000);
    for r in 0..4 {
        assert_eq!(
            h.sys.rpu_counters(r).rx_frames,
            0,
            "disabled RPU {r} received traffic"
        );
    }
    for r in 4..8 {
        assert!(h.sys.rpu_counters(r).rx_frames > 0, "enabled RPU {r} idle");
    }
}

#[test]
fn flush_register_restores_slots() {
    let mut sys = build_forwarding_system(4).unwrap();
    // Simulate a stuck RPU by disabling it mid-traffic and flushing.
    let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(256, 2)), 20.0);
    h.run(10_000);
    let lb_write = |addr, value| HostOp::LbWrite { addr, value };
    h.sys.apply(lb_write(lb_regs::ENABLE_LO, 0b1110)).unwrap();
    h.run(5_000);
    h.sys.apply(lb_write(lb_regs::FLUSH_RPU, 0)).unwrap();
    assert_eq!(
        h.sys.lb_host_read(lb_regs::SLOTS_BASE),
        h.sys.config().slots_per_rpu as u32
    );
    sys = h.sys;
    let _ = &mut sys;
}

#[test]
fn port_counters_track_traffic() {
    let sys = build_forwarding_system(4).unwrap();
    let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(500, 2)), 10.0);
    h.run(30_000);
    for p in 0..2 {
        let c = h.sys.port_counters(p);
        assert!(c.rx_frames > 0, "port {p} rx");
        assert!(c.tx_frames > 0, "port {p} tx");
        assert_eq!(c.rx_bytes, c.rx_frames * 500);
    }
}

#[test]
fn debug_channel_round_trip() {
    // Firmware that echoes the host debug word plus one.
    let image = assemble(
        "
        .equ IO, 0x02000000
            li t0, IO
        loop:
            lw a0, 0x30(t0)      # HOST_IN_L
            beqz a0, loop
            addi a0, a0, 1
            sw a0, 0x1c(t0)      # DEBUG_OUT_L
            sw zero, 0x20(t0)    # DEBUG_OUT_H commits
            ebreak
        ",
    )
    .unwrap();
    let mut sys = rosebud::core::Rosebud::builder(rosebud::core::RosebudConfig::with_rpus(2))
        .firmware(move |_| RpuProgram::Riscv(image.clone()))
        .build()
        .unwrap();
    sys.apply(HostOp::WriteDebug { rpu: 0, value: 41 }).unwrap();
    sys.run(200);
    assert_eq!(sys.take_debug(0), Some(42));
    assert_eq!(sys.take_debug(0), None, "debug values are take-once");
}

#[test]
fn poke_interrupt_is_maskable() {
    // Firmware with poke masked out: the poke must not disturb it.
    let image = assemble(
        "
        .equ IO, 0x02000000
            li t0, IO
            sw zero, 0x2c(t0)    # masks = 0: everything masked
            li s0, 123
        spin:
            sw s0, 0x18(t0)
            j spin
        ",
    )
    .unwrap();
    let mut sys = rosebud::core::Rosebud::builder(rosebud::core::RosebudConfig::with_rpus(2))
        .firmware(move |_| RpuProgram::Riscv(image.clone()))
        .build()
        .unwrap();
    sys.run(100);
    sys.apply(HostOp::Poke { rpu: 0 }).unwrap();
    sys.run(100);
    assert!(!sys.rpus()[0].is_halted(), "masked poke must be ignored");
    assert_eq!(sys.rpu_status(0), 123);
}

#[test]
fn memory_write_and_read_back() {
    let mut sys = build_forwarding_system(2).unwrap();
    let table = [0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04];
    // Load a lookup table into packet memory before traffic (A.6).
    let write = |region, offset, bytes: &[u8]| HostOp::WriteMem {
        rpu: 1,
        region,
        offset,
        bytes: bytes.to_vec(),
    };
    sys.apply(write(MemRegion::Pmem, 0x100, &table)).unwrap();
    assert_eq!(sys.read_rpu_mem(1, MemRegion::Pmem, 0x100, 8), table);
    // And into dmem.
    sys.apply(write(MemRegion::Dmem, 0x40, &table[..4]))
        .unwrap();
    assert_eq!(sys.read_rpu_mem(1, MemRegion::Dmem, 0x40, 4), table[..4]);
}

#[test]
fn reconfiguration_lifecycle_states() {
    let sys = build_forwarding_system(4).unwrap();
    let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(256, 2)), 20.0);
    h.run(20_000);
    h.sys
        .apply(HostOp::Reload {
            rpu: 2,
            gated: false,
        })
        .unwrap();
    assert!(h.sys.reconfigure_pending(2));
    assert_eq!(h.sys.enabled_mask() & (1 << 2), 0, "LB stops feeding RPU 2");
    // Drain → write → boot.
    let mut saw_writing = false;
    for _ in 0..100_000 {
        h.tick();
        if matches!(h.sys.rpus()[2].state(), RpuState::Reconfiguring { .. }) {
            saw_writing = true;
        }
        if !h.sys.reconfigure_pending(2) {
            break;
        }
    }
    assert!(saw_writing, "never entered the PR-writing phase");
    assert!(!h.sys.reconfigure_pending(2));
    assert_eq!(h.sys.rpus()[2].state(), RpuState::Running);
    assert!(h.sys.enabled_mask() & (1 << 2) != 0, "LB resumed");
    // The rebooted RPU processes traffic again.
    let before = h.sys.rpu_counters(2).rx_frames;
    h.run(20_000);
    assert!(h.sys.rpu_counters(2).rx_frames > before);
}

#[test]
fn no_packets_lost_during_live_reconfiguration() {
    let sys = build_forwarding_system(16).unwrap();
    let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(512, 2)), 100.0);
    h.run(40_000);
    let drops_before = h.sys.drop_count();
    h.sys
        .apply(HostOp::Reload {
            rpu: 7,
            gated: false,
        })
        .unwrap();
    h.run(80_000);
    assert!(!h.sys.reconfigure_pending(7));
    assert_eq!(h.sys.drop_count(), drops_before, "PR dropped packets");
}

/// The one range check every RPU-addressed arm shares: an op naming an RPU
/// the box lacks is refused, and the box runs on exactly as its untouched
/// twin does. (Before there was one door, four of these indexed past the
/// lanes and two asserted.) So are the other ops that cannot land: an RX
/// overflow on a port the box lacks, a fleet's faults and a fleet's
/// `box.` op — which the parent took, logged and silently ignored.
#[test]
fn an_op_naming_a_missing_rpu_is_refused_and_changes_nothing() {
    let rpu = 4;
    let image = assemble("spin: j spin").unwrap();
    let (device, cycles) = (0, 500);
    let not_here = [
        (
            HostOp::Fault(FaultKind::RxFifoOverflow { port: 2, cycles }),
            "no port 2",
        ),
        (HostOp::Fault(FaultKind::BoxCrash { device }), "fleet's"),
        (
            HostOp::Fault(FaultKind::BoxHostOutage { device, cycles }),
            "fleet's",
        ),
        (
            HostOp::Fault(FaultKind::FrontLinkFlap { device, cycles }),
            "fleet's",
        ),
        (
            HostOp::Fault(FaultKind::BoxBrownout {
                device,
                cycles,
                factor: 4,
            }),
            "fleet's",
        ),
        (
            HostOp::Box {
                device,
                op: Box::new(HostOp::Poke { rpu: 0 }),
            },
            "not a fleet",
        ),
    ];
    let ops = [
        HostOp::Enable { rpu },
        HostOp::Disable { rpu },
        HostOp::Poke { rpu },
        HostOp::Evict { rpu },
        HostOp::WriteDebug { rpu, value: 7 },
        HostOp::WriteMem {
            rpu,
            region: MemRegion::Dmem,
            offset: 0,
            bytes: vec![1, 2, 3],
        },
        HostOp::Reload { rpu, gated: true },
        HostOp::Reload { rpu, gated: false },
        HostOp::ForceReload { rpu },
        HostOp::LoadFirmware { rpu, image },
        HostOp::Fault(FaultKind::FirmwareHang { rpu }),
        HostOp::Fault(FaultKind::FirmwareCrash { rpu }),
        HostOp::Fault(FaultKind::CorruptIngress { rpu, count: 3 }),
    ];
    let refused: Vec<(HostOp, &str)> = ops
        .into_iter()
        .map(|op| (op, "no RPU 4"))
        .chain(not_here)
        .collect();
    let observe = |refused: &[(HostOp, &str)]| {
        let mut sys = build_forwarding_system(4).unwrap();
        sys.enable_tracing(rosebud::core::TraceConfig::default());
        let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(256, 2)), 20.0);
        h.run(5_000);
        for (op, why) in refused {
            let err = h.sys.apply(op.clone()).expect_err(why);
            assert!(err.contains(why), "{op:?}: {err}");
        }
        h.run(5_000);
        assert!(h.sys.lint_log().is_empty());
        (
            h.sys.tracer().unwrap().compact_text(),
            format!("{:?} {:?}", h.sys.ledger(), h.sys.diagnostics()),
        )
    };
    assert_eq!(observe(&refused), observe(&[]));

    // Writes that reach past what they target are refused the same way.
    let mut sys = build_forwarding_system(4).unwrap();
    let past_dram = HostOp::WriteHostDram {
        offset: sys.host_dram().len() - 1,
        bytes: vec![0; 2],
    };
    assert!(sys.apply(past_dram).is_err());
    let off_the_bus = HostOp::WriteMem {
        rpu: 0,
        region: MemRegion::Pmem,
        offset: usize::MAX - 1,
        bytes: vec![0; 4],
    };
    assert!(sys.apply(off_the_bus).is_err());
}

/// The fleet's twin: an op a rack cannot land is refused and the rack runs
/// on exactly as its untouched twin does — a box it lacks, a box's own op
/// or fault not addressed with `HostOp::Box`, and a `box.` op its box
/// refuses (a second `Box`, an RPU the box lacks, a fleet's fault).
#[test]
fn an_op_a_fleet_cannot_land_is_refused_and_changes_nothing() {
    use rosebud::core::{Device, Fleet, FleetConfig};

    let boxed = |device, op| HostOp::Box {
        device,
        op: Box::new(op),
    };
    let poke = HostOp::Poke { rpu: 0 };
    let refused = [
        (HostOp::Fault(FaultKind::BoxCrash { device: 2 }), "no box 2"),
        (boxed(2, poke.clone()), "no box 2"),
        (poke.clone(), "not `poke`"),
        (
            HostOp::Fault(FaultKind::FirmwareHang { rpu: 0 }),
            "a box's fault",
        ),
        (boxed(0, boxed(1, poke.clone())), "not a fleet"),
        (boxed(0, HostOp::Poke { rpu: 4 }), "no RPU 4"),
        (
            boxed(1, HostOp::Fault(FaultKind::BoxCrash { device: 1 })),
            "fleet's",
        ),
    ];
    let fleet = || {
        let cfg = FleetConfig { boxes: 2 };
        let mut fleet = Fleet::new(cfg, |_| build_forwarding_system(4).unwrap()).unwrap();
        fleet.enable_tracing(rosebud::core::TraceConfig::default());
        Harness::fleet(fleet, Box::new(FixedSizeGen::new(256, 2)), 20.0)
    };
    let observe = |refused: &[(HostOp, &str)]| {
        let mut h = fleet();
        h.run(5_000);
        for (op, why) in refused {
            let err = h.sys.apply(op.clone()).expect_err(why);
            assert!(err.contains(why), "{op:?}: {err}");
        }
        h.run(5_000);
        let trace = |b: usize| h.sys.sys(b).tracer().unwrap().compact_text();
        (trace(0), trace(1), h.sys.diagnostics().render())
    };
    assert_eq!(observe(&refused), observe(&[]));

    // What it can take, it takes.
    let mut h = fleet();
    h.sys.apply(boxed(1, poke)).unwrap();
    h.sys
        .apply(HostOp::Fault(FaultKind::BoxCrash { device: 1 }))
        .unwrap();
    h.run(2);
    assert!(h.sys.diagnostics().boxes[1].crashed);
}
