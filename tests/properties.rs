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
