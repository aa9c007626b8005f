//! Property tests for fault injection and the self-healing supervisor:
//! packet conservation holds under arbitrary fault schedules and traffic,
//! and the supervisor never hands traffic back to a region it has not
//! verified as rebooted.

use proptest::prelude::*;
use rosebud::apps::forwarder::build_watchdog_forwarding_system;
use rosebud::core::{FaultPlan, Harness, RpuState, Supervisor, SupervisorStep};
use rosebud::net::{FixedSizeGen, FlowTrafficGen};

const RPUS: usize = 4;

proptest! {
    // Each case is a full supervised chaos run; a handful of cases sweeps a
    // wide space of schedules without stretching the suite.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn ledger_balances_under_random_faults_and_traffic(
        plan_seed in any::<u64>(),
        traffic_seed in any::<u64>(),
        events in 1usize..8,
        size in 64usize..1200,
        gbps in 5.0f64..200.0,
    ) {
        let sys = build_watchdog_forwarding_system(RPUS, 64).unwrap();
        let gen = FlowTrafficGen::new(32, size, 0.05, traffic_seed);
        let mut h = Harness::new(sys, Box::new(gen), gbps)
            .faults(FaultPlan::random(plan_seed, 40_000, RPUS, 2, events));
        let mut sup = Supervisor::new(&h.sys);
        // tick() re-asserts the ledger every 1024 cycles on its own; any
        // imbalance panics the case with the full breakdown.
        for _ in 0..60_000 {
            h.tick();
            sup.poll(&mut h.sys);
        }
        h.sys.assert_conservation();
    }

    #[test]
    fn supervisor_never_reenables_an_unrebooted_region(
        plan_seed in any::<u64>(),
        events in 1usize..10,
    ) {
        let sys = build_watchdog_forwarding_system(RPUS, 64).unwrap();
        let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(128, 2)), 40.0)
            .faults(FaultPlan::random(plan_seed, 30_000, RPUS, 2, events));
        let mut sup = Supervisor::new(&h.sys);
        let mut prev = h.sys.enabled_mask();
        for _ in 0..80_000 {
            h.tick();
            sup.poll(&mut h.sys);
            let fresh = h.sys.enabled_mask() & !prev;
            for r in 0..RPUS {
                if fresh & (1 << r) != 0 {
                    // An enable-bit 0 -> 1 transition is the supervisor
                    // vouching for the region: it must actually be alive.
                    prop_assert_eq!(
                        h.sys.rpus()[r].state(), RpuState::Running,
                        "re-enabled RPU {} is not running", r
                    );
                    prop_assert!(!h.sys.rpus()[r].is_halted(), "re-enabled RPU {} halted", r);
                    prop_assert!(!h.sys.rpus()[r].is_hung(), "re-enabled RPU {} still wedged", r);
                    prop_assert!(
                        h.sys.rpus()[r].sw_cycles() > 0,
                        "re-enabled RPU {} never retired a cycle", r
                    );
                }
            }
            prev = h.sys.enabled_mask();
        }
    }
}

use rosebud::core::{Fleet, FleetConfig, FleetStep, FleetSupervisor};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Fleet-scale analogue of the ledger property: whatever device-scale
    // havoc a random plan schedules (crashes, host-link outages, front-link
    // flaps, brownouts), every frame the front LB ever accepted stays
    // accounted — delivered, dropped, quarantined, purged, or in flight —
    // across ring removals, whole-box purges, and reloads.
    #[test]
    fn fleet_ledger_balances_under_random_device_faults(
        plan_seed in any::<u64>(),
        traffic_seed in any::<u64>(),
        events in 1usize..6,
        gbps in 5.0f64..80.0,
    ) {
        let fleet = Fleet::new(
            FleetConfig { boxes: 2 },
            |_| build_watchdog_forwarding_system(RPUS, 64).unwrap(),
        ).unwrap();
        let gen = FlowTrafficGen::new(64, 256, 0.05, traffic_seed);
        let mut h = Harness::fleet(fleet, Box::new(gen), gbps)
            .faults(FaultPlan::random_fleet(plan_seed, 30_000, 2, events));
        let mut sup = FleetSupervisor::new(&h.sys);
        // Fleet::tick() re-asserts the ledger every 1024 cycles on its own.
        for _ in 0..70_000 {
            sup.poll(&mut h.sys);
            h.tick();
        }
        h.sys.assert_conservation();
    }

    // The ladder never skips a rung, at either scale. An RPU is re-enabled
    // only after verification, verified only after a reload, reloaded only
    // after a drain or a forced eviction, and force-evicted only after a
    // drain or a failed verification. A box is re-admitted only after a
    // reload and a full probation, and every purge follows a drain.
    #[test]
    fn ladder_rungs_stay_ordered_at_both_scales(
        plan_seed in any::<u64>(),
        events in 1usize..6,
    ) {
        let sys = build_watchdog_forwarding_system(RPUS, 64).unwrap();
        let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(128, 2)), 40.0)
            .faults(FaultPlan::random(plan_seed, 30_000, RPUS, 2, events));
        let mut sup = Supervisor::new(&h.sys);
        for _ in 0..80_000 {
            h.tick();
            sup.poll(&mut h.sys);
        }
        let mut prev = [None; RPUS];
        for &(at, rpu, step) in sup.steps() {
            let before = prev[rpu].replace(step);
            use SupervisorStep::*;
            let ordered = match step {
                Reenabled => matches!(before, Some(Verifying)),
                Verifying => matches!(before, Some(Reloading)),
                Reloading => matches!(before, Some(DrainStarted | ForcedEvict { .. })),
                ForcedEvict { .. } => matches!(before, Some(DrainStarted | Verifying)),
                _ => true,
            };
            prop_assert!(ordered, "rpu {rpu} @{at}: {step:?} after {before:?}");
        }

        let fleet = Fleet::new(
            FleetConfig { boxes: 2 },
            |_| build_watchdog_forwarding_system(RPUS, 64).unwrap(),
        ).unwrap();
        let mut h = Harness::fleet(fleet, Box::new(FixedSizeGen::new(128, 2)), 30.0)
            .faults(FaultPlan::random_fleet(plan_seed, 25_000, 2, events));
        let mut sup = FleetSupervisor::new(&h.sys);
        for _ in 0..80_000 {
            sup.poll(&mut h.sys);
            h.tick();
        }
        for device in 0..h.sys.num_boxes() {
            let mut draining = false;
            let mut reloaded = false;
            let mut probation = false;
            for (_, _, step) in sup.steps().iter().filter(|e| e.1 == device) {
                match step {
                    FleetStep::DrainStarted => draining = true,
                    FleetStep::DrainedClean => {
                        prop_assert!(draining, "box {device}: drain finished before starting");
                    }
                    FleetStep::Purged { .. } => {
                        prop_assert!(draining, "box {device}: purge without a drain");
                    }
                    FleetStep::Reloading => {
                        prop_assert!(draining, "box {device}: reload without a drain");
                        reloaded = true;
                    }
                    FleetStep::Probation => {
                        prop_assert!(reloaded, "box {device}: probation without a reload");
                        probation = true;
                    }
                    FleetStep::Readmitted => {
                        prop_assert!(
                            probation,
                            "box {device}: re-admitted without serving probation"
                        );
                        draining = false;
                        reloaded = false;
                        probation = false;
                    }
                    _ => {}
                }
            }
        }
    }
}
