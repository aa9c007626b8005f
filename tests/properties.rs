//! System-level property tests: packet conservation and slot-accounting
//! invariants hold under randomized traffic shapes, sizes and loads.

#[path = "../crates/riscv/tests/gen/mod.rs"]
mod gen;

use proptest::prelude::*;
use rosebud::apps::forwarder::build_forwarding_system;
use rosebud::core::{Device, Harness};
use rosebud::net::{FixedSizeGen, FlowTrafficGen};

proptest! {
    // System runs are comparatively slow; a couple dozen random cases is a
    // meaningful sweep without stretching the suite.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn conservation_under_random_fixed_size_traffic(
        size in 64usize..2000,
        gbps in 1.0f64..200.0,
        rpus in prop_oneof![Just(4usize), Just(8), Just(16)],
    ) {
        let sys = build_forwarding_system(rpus).unwrap();
        let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(size, 2)), gbps);
        h.run(30_000);
        h.sys.run(30_000); // drain with no new traffic
        h.sys.drain(&mut |_, _| {});
        prop_assert_eq!(h.sys.ledger_in_flight(), 0, "failed to drain");
        prop_assert_eq!(h.sys.drop_count(), 0, "forwarder dropped");
        // Every slot returned to the tracker.
        for r in 0..rpus {
            prop_assert!(
                h.sys.tracker().all_free(r),
                "RPU {} leaked slots", r
            );
        }
    }

    #[test]
    fn conservation_under_random_flow_traffic(
        flows in 1usize..128,
        size in 70usize..1500,
        reorder in 0.0f64..0.2,
        seed in any::<u64>(),
    ) {
        let sys = build_forwarding_system(8).unwrap();
        let gen = FlowTrafficGen::new(flows, size, reorder, seed);
        let mut h = Harness::new(sys, Box::new(gen), 60.0);
        h.run(25_000);
        let injected = h.injected();
        h.sys.run(25_000);
        let mut stragglers = 0u64;
        h.sys.drain(&mut |_, _| stragglers += 1);
        prop_assert_eq!(h.sys.ledger_in_flight(), 0);
        prop_assert_eq!(h.received() + stragglers + h.host_received(), injected);
    }

    #[test]
    fn rpu_counters_balance(
        size in 64usize..1000,
        seed in any::<u64>(),
    ) {
        let _ = seed;
        let sys = build_forwarding_system(4).unwrap();
        let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(size, 2)), 30.0);
        h.run(20_000);
        h.sys.run(20_000);
        for r in 0..4 {
            let c = h.sys.rpu_counters(r);
            prop_assert_eq!(
                c.rx_frames, c.tx_frames,
                "RPU {} rx/tx imbalance after drain", r
            );
        }
    }
}

/// Elision invariance: whatever the RPU count, traffic seed and timer
/// period (how long the duty-cycled cores stay parked between alarms), the
/// conservation ledger and the full compact trace must match the un-elided
/// oracle — every core woken before every tick — byte for byte.
mod elision {
    use proptest::prelude::*;
    use rosebud::apps::forwarder::build_duty_cycle_forwarding_system;
    use rosebud::core::{Harness, TraceConfig};
    use rosebud::net::ImixGen;

    fn observe(oracle: bool, rpus: usize, seed: u64, period: u32) -> (String, String) {
        let mut sys = build_duty_cycle_forwarding_system(rpus, period).unwrap();
        sys.enable_tracing(TraceConfig {
            counter_interval: 2048,
            pc_profile: false,
            max_events: 1 << 20,
        });
        let mut h = Harness::new(sys, Box::new(ImixGen::new(2, seed)), 20.0);
        for _ in 0..12_000 {
            if oracle {
                h.sys.wake_all();
            }
            h.tick();
        }
        (
            format!("{:?}", h.sys.ledger()),
            h.sys.take_tracer().unwrap().compact_text(),
        )
    }

    proptest! {
        // Each case runs the scenario twice (oracle + elided); keep the
        // case count modest.
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn elided_tick_matches_unelided_oracle(
            rpus in 1usize..=16,
            seed in any::<u64>(),
            period in 100u32..=2000,
        ) {
            let (want_ledger, want_trace) = observe(true, rpus, seed, period);
            let (ledger, trace) = observe(false, rpus, seed, period);
            prop_assert_eq!(
                &ledger, &want_ledger,
                "ledger diverged (rpus={}, period={})", rpus, period
            );
            prop_assert_eq!(
                trace, want_trace,
                "trace diverged (rpus={}, period={})", rpus, period
            );
        }
    }
}

/// The quiet tick against the oracle: every arm of `HostOp` a box takes, and
/// a frame, each lands at a random cycle on a duty-cycled box with no other
/// traffic, which spends nearly all its time with nothing due. The box as
/// shipped jumps those stretches (`Device::skip_quiet`) and takes quiet
/// ticks; the oracle wakes every lane before every tick and never does. An
/// arrival that did not end the stretch it lands in would take effect late
/// on the jumping side only.
mod quiet {
    use proptest::prelude::*;
    use rosebud::apps::forwarder::duty_cycle_forwarder_asm;
    use rosebud::core::{
        lb_regs, Device, FaultKind, HostOp, MemRegion, Rosebud, RosebudConfig, RoundRobinLb,
        RpuProgram, TraceConfig,
    };
    use rosebud::net::{FixedSizeGen, Packet, TrafficGen};

    /// One arrival: an op, or (as `None`) a frame on the wire.
    type Arrival = Option<HostOp>;

    /// Every arm of `HostOp` a box takes, aimed at `rpu`, and a frame.
    fn arrivals(rpu: usize, period: u32) -> Vec<Arrival> {
        use FaultKind::*;
        let image = rosebud::riscv::assemble(&duty_cycle_forwarder_asm(period / 2)).unwrap();
        let ops = [
            HostOp::Disable { rpu },
            HostOp::LbWrite {
                addr: lb_regs::ENABLE_LO,
                value: 0xf,
            },
            HostOp::Poke { rpu },
            HostOp::Evict { rpu },
            HostOp::WriteDebug { rpu, value: 7 },
            HostOp::WriteMem {
                rpu,
                region: MemRegion::Dmem,
                offset: 0x80,
                bytes: vec![1, 2, 3],
            },
            HostOp::WriteHostDram {
                offset: 0x40,
                bytes: vec![9; 8],
            },
            HostOp::HostFrame(Packet::new(1 << 40, vec![0x5a; 128], 0, 0)),
            HostOp::Fault(HostDmaOutage { cycles: 300 }),
            HostOp::Fault(RxFifoOverflow {
                port: 1,
                cycles: 300,
            }),
            HostOp::Fault(CorruptIngress { rpu, count: 1 }),
            HostOp::Reload { rpu, gated: true },
            HostOp::Enable { rpu },
            HostOp::LoadFirmware {
                rpu: (rpu + 1) % 4,
                image,
            },
            HostOp::Fault(FirmwareHang { rpu }),
            HostOp::ForceReload { rpu },
            HostOp::Fault(FirmwareCrash { rpu: (rpu + 2) % 4 }),
        ];
        ops.into_iter().map(Some).chain([None]).collect()
    }

    /// Lands `arrivals[i]` at `at[i]` and runs to 2 000 cycles past the
    /// last: the ledger, trace and diagnostics it ends with, and how many
    /// arrivals found the box at the end of a jump.
    fn observe(
        oracle: bool,
        period: u32,
        arrivals: &[Arrival],
        at: &[u64],
    ) -> ([String; 3], usize) {
        let image = rosebud::riscv::assemble(&duty_cycle_forwarder_asm(period)).unwrap();
        let mut cfg = RosebudConfig::with_rpus(4);
        cfg.pr_cycles = 400;
        let mut sys = Rosebud::builder(cfg)
            .load_balancer(Box::new(RoundRobinLb::new()))
            .firmware(move |_| RpuProgram::Riscv(image.clone()))
            .build()
            .unwrap();
        sys.enable_tracing(TraceConfig {
            counter_interval: 1024,
            pc_profile: false,
            max_events: 1 << 20,
        });
        let mut gen = FixedSizeGen::new(300, 2);
        let end = at.last().copied().unwrap_or(0) + 2_000;
        let (mut next, mut jumped_to) = (0, 0);
        let mut jumped = false;
        while sys.now() < end {
            while let Some(&cycle) = at.get(next).filter(|&&cycle| cycle == sys.now()) {
                jumped_to += usize::from(jumped);
                match &arrivals[next] {
                    Some(op) => {
                        sys.apply(op.clone()).unwrap();
                    }
                    None => sys.inject(gen.generate(next as u64, cycle)).unwrap(),
                }
                next += 1;
            }
            if oracle {
                sys.wake_all();
                sys.tick();
            } else {
                sys.tick();
                let from = sys.now();
                sys.skip_quiet(at.get(next).copied().unwrap_or(end));
                jumped = sys.now() > from;
            }
        }
        let seen = [
            format!("{:?}", sys.ledger()),
            sys.take_tracer().unwrap().compact_text(),
            sys.diagnostics().render(),
        ];
        (seen, jumped_to)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn arrivals_inside_quiet_stretches_match_the_unelided_oracle(
            rpu in 0usize..4,
            period in 800u32..3000,
            gaps in proptest::collection::vec(50u64..2_500, 18),
        ) {
            let arrivals = arrivals(rpu, period);
            let at: Vec<u64> = gaps
                .iter()
                .scan(0, |cycle, gap| {
                    *cycle += gap;
                    Some(*cycle)
                })
                .collect();
            let (want, _) = observe(true, period, &arrivals, &at);
            let (got, jumped_to) = observe(false, period, &arrivals, &at);
            for (what, (got, want)) in ["ledger", "trace", "diagnostics"].iter().zip(got.iter().zip(&want)) {
                prop_assert!(got == want, "{} diverged from the oracle (rpu {}, period {}, at {:?})", what, rpu, period, at);
            }
            prop_assert!(jumped_to >= arrivals.len() / 2, "only {} arrivals ended a jump", jumped_to);
        }
    }
}

/// Spin-loop elision against generated poll loops (`gen::poll`): a random
/// pure body before the `RECV_READY` check, and in the `Break` half of the
/// cases one access a parked core could not repeat, so that loop must never
/// park. Under random arrivals the box as shipped must match the un-elided
/// oracle on the compact trace (a counter sample every few cycles), ledger
/// and diagnostics; a failure prints the program.
mod spin {
    use super::gen;
    use proptest::prelude::*;
    use rosebud::core::{Harness, Rosebud, RosebudConfig, RoundRobinLb, RpuProgram, TraceConfig};
    use rosebud::net::FixedSizeGen;

    fn observe(image: &rosebud::riscv::Image, oracle: bool, size: usize, gbps: f64) -> [String; 3] {
        let image = image.clone();
        let mut sys = Rosebud::builder(RosebudConfig::with_rpus(4))
            .load_balancer(Box::new(RoundRobinLb::new()))
            .firmware(move |_| RpuProgram::Riscv(image.clone()))
            .build()
            .unwrap();
        sys.enable_tracing(TraceConfig {
            counter_interval: 3,
            pc_profile: false,
            max_events: 1 << 20,
        });
        let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(size, 2)), gbps);
        for _ in 0..6_000 {
            if oracle {
                h.sys.wake_all();
            }
            h.tick();
        }
        [
            format!("{:?}", h.sys.ledger()),
            h.sys.take_tracer().unwrap().compact_text(),
            h.sys.diagnostics().render(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn a_generated_poll_loop_parks_like_the_unelided_oracle(
            program in gen::poll(0..6),
            contract in gen::contract(),
            size in 64usize..1500,
            gbps in 0.5f64..20.0,
        ) {
            let asm = program.asm(contract);
            let image = rosebud::riscv::assemble(&asm).unwrap();
            let want = observe(&image, true, size, gbps);
            let got = observe(&image, false, size, gbps);
            for (what, (got, want)) in ["ledger", "trace", "diagnostics"].iter().zip(got.iter().zip(&want)) {
                prop_assert!(got == want, "{} diverged from the oracle for\n{}", what, asm);
            }
        }
    }
}
