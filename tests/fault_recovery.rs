//! Chaos integration test: a firmware hang under live traffic must be
//! detected, evicted, reloaded, and reintegrated by the supervisor while
//! the remaining RPUs carry traffic (§3.4, Appendix A.8).
//!
//! The scenario: eight RPUs run the watchdog-petting forwarder at 64-byte
//! saturation. Mid-run, injected fault wedges RPU 3. The supervisor must
//! notice the watchdog expiry, pull the region out of rotation, force-evict
//! it when the graceful drain stalls (a hung region never drains), write
//! the PR bitstream, reboot the firmware, and only then hand traffic back.
//! Throughput while the region is out is the load balancer's graceful
//! degradation: ~7/8 of the healthy baseline. Packet conservation holds
//! throughout, and the whole trace is cycle-exact deterministic.

use rosebud::apps::forwarder::build_watchdog_forwarding_system;
use rosebud::core::{
    FailoverRecord, FaultEvent, FaultKind, FaultPlan, Fleet, FleetConfig, FleetSupervisor, Harness,
    Ledger, RecoveryEvent, RpuFaultKind, RpuState, Supervisor,
};
use rosebud::net::{FixedSizeGen, FlowTrafficGen};

const RPUS: usize = 8;
const WEDGED: usize = 3;
const HANG_AT: u64 = 50_000;

/// Ticks the system and the supervising host agent in lockstep.
fn run_supervised(h: &mut Harness, sup: &mut Supervisor, cycles: u64) {
    for _ in 0..cycles {
        h.tick();
        sup.poll(&mut h.sys);
    }
}

struct Trace {
    baseline_mpps: f64,
    degraded_mpps: f64,
    recovered_mpps: f64,
    wedged_frames_after_recovery: u64,
    recoveries: Vec<RecoveryEvent>,
    ledger: Ledger,
    in_flight: u64,
}

fn run_scenario() -> Trace {
    let mut sys = build_watchdog_forwarding_system(RPUS, 64).unwrap();
    sys.install_fault_plan(FaultPlan::new(7).at(HANG_AT, FaultKind::FirmwareHang { rpu: WEDGED }));
    let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(64, 2)), 205.0);
    let mut sup = Supervisor::new(&h.sys);

    // Healthy baseline at saturation.
    run_supervised(&mut h, &mut sup, 20_000);
    h.begin_window();
    run_supervised(&mut h, &mut sup, 25_000);
    let baseline_mpps = h.measure().mpps;

    // The hang lands at 50_000; give detection + poke + drain escalation
    // room, then measure squarely inside the PR reload (25_000 cycles).
    run_supervised(&mut h, &mut sup, 12_000); // now at 57_000
    assert!(
        sup.recovering(),
        "supervisor should be mid-recovery shortly after the hang"
    );
    h.begin_window();
    run_supervised(&mut h, &mut sup, 20_000); // 57_000..77_000, inside reload
    let degraded_mpps = h.measure().mpps;

    // Let the reload finish and the supervisor verify + re-enable.
    run_supervised(&mut h, &mut sup, 10_000); // now at 87_000
    let frames_at_recovery = h.sys.rpu_counters(WEDGED).rx_frames;

    // Reintegration window: the recovered region must carry traffic again.
    h.begin_window();
    run_supervised(&mut h, &mut sup, 20_000);
    let recovered_mpps = h.measure().mpps;

    h.sys.assert_conservation();
    Trace {
        baseline_mpps,
        degraded_mpps,
        recovered_mpps,
        wedged_frames_after_recovery: h.sys.rpu_counters(WEDGED).rx_frames - frames_at_recovery,
        recoveries: h.sys.recovery_log().to_vec(),
        ledger: h.sys.ledger(),
        in_flight: h.sys.ledger_in_flight(),
    }
}

#[test]
fn hang_is_detected_evicted_reloaded_and_reintegrated() {
    let t = run_scenario();

    assert_eq!(
        t.recoveries.len(),
        1,
        "exactly one recovery: {:?}",
        t.recoveries
    );
    let ev = t.recoveries[0];
    assert_eq!(ev.rpu, WEDGED);
    assert_eq!(
        ev.kind,
        RpuFaultKind::Hung,
        "a wedge with a petted watchdog must be detected as hung, not halted"
    );
    assert_eq!(ev.fault_at, Some(HANG_AT));
    let latency = ev.detection_latency.expect("fault cycle is known");
    assert!(
        latency <= 1_200,
        "watchdog + one poll interval should catch the hang, took {latency} cycles"
    );
    assert!(ev.forced, "a hung region cannot drain gracefully");
    assert!(
        ev.packets_purged > 0,
        "the wedged region was holding packets at saturation"
    );
    assert!(
        ev.downtime >= 25_000,
        "downtime must cover the PR write, got {}",
        ev.downtime
    );
}

#[test]
fn throughput_degrades_to_seven_eighths_and_returns() {
    let t = run_scenario();

    let degraded_ratio = t.degraded_mpps / t.baseline_mpps;
    assert!(
        (0.82..0.93).contains(&degraded_ratio),
        "one of eight RPUs out should cost ~1/8 of throughput: \
         baseline {:.1} Mpps, degraded {:.1} Mpps (ratio {:.3})",
        t.baseline_mpps,
        t.degraded_mpps,
        degraded_ratio
    );
    let recovered_ratio = t.recovered_mpps / t.baseline_mpps;
    assert!(
        recovered_ratio > 0.97,
        "throughput must return to baseline after reintegration: \
         baseline {:.1} Mpps, recovered {:.1} Mpps",
        t.baseline_mpps,
        t.recovered_mpps
    );
    assert!(
        t.wedged_frames_after_recovery > 100,
        "the recovered RPU must carry real traffic again, saw {} frames",
        t.wedged_frames_after_recovery
    );
}

#[test]
fn recovered_region_is_verified_running() {
    let mut sys = build_watchdog_forwarding_system(RPUS, 64).unwrap();
    sys.install_fault_plan(FaultPlan::new(7).at(HANG_AT, FaultKind::FirmwareHang { rpu: WEDGED }));
    let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(64, 2)), 205.0);
    let mut sup = Supervisor::new(&h.sys);
    run_supervised(&mut h, &mut sup, 95_000);
    assert_eq!(
        h.sys.enabled_mask(),
        0xFF,
        "all eight regions back in rotation"
    );
    assert_eq!(h.sys.rpus()[WEDGED].state(), RpuState::Running);
    assert!(!h.sys.rpus()[WEDGED].is_halted());
    assert!(
        !h.sys.rpus()[WEDGED].is_hung(),
        "the reload wiped the wedge"
    );
    assert!(!sup.recovering());
}

#[test]
fn recovery_trace_is_deterministic() {
    let a = run_scenario();
    let b = run_scenario();
    assert_eq!(
        a.recoveries, b.recoveries,
        "same plan + seed must reproduce the cycle-exact recovery trace"
    );
    assert_eq!(
        a.ledger, b.ledger,
        "ledger must be cycle-exact reproducible"
    );
    assert_eq!(a.in_flight, b.in_flight);
    assert!((a.baseline_mpps - b.baseline_mpps).abs() < f64::EPSILON);
    assert!((a.degraded_mpps - b.degraded_mpps).abs() < f64::EPSILON);
}

// ---------------------------------------------------------------------------
// Fleet-level failover: the same drill one level up. Four boxes sit behind a
// consistent-hashing front LB; a whole box crashes mid-run. The fleet
// supervisor must miss its health probes, mark the box unhealthy, pull its
// ring points (re-steering only that box's flows), purge what the dead shell
// was holding, run the whole-box PR reload, and re-admit it after probation —
// with the fleet-wide conservation ledger balanced throughout.

const BOXES: usize = 4;
const KILLED: usize = 2;
const FLEET_LOAD_GBPS: f64 = 60.0;

fn fleet_under_test() -> Harness<Fleet> {
    let fleet = Fleet::new(
        FleetConfig {
            boxes: BOXES,
            ..FleetConfig::default()
        },
        |_| build_watchdog_forwarding_system(4, 64).unwrap(),
    )
    .unwrap();
    Harness::fleet(
        fleet,
        Box::new(FlowTrafficGen::new(512, 256, 0.0, 11)),
        FLEET_LOAD_GBPS,
    )
}

fn fleet_supervisor(h: &Harness<Fleet>) -> FleetSupervisor {
    FleetSupervisor::new(&h.sys)
}

fn run_fleet(h: &mut Harness<Fleet>, sup: &mut FleetSupervisor, cycles: u64) {
    for _ in 0..cycles {
        sup.poll(&mut h.sys);
        h.tick();
    }
}

struct FleetTrace {
    baseline_gbps: f64,
    degraded_gbps: f64,
    recovered_gbps: f64,
    failovers: Vec<FailoverRecord>,
    log_text: String,
    flows_seen: u64,
    cross_survivor_resteers: u64,
    ledger: Ledger,
    in_flight: u64,
}

fn run_fleet_scenario() -> FleetTrace {
    let mut h = fleet_under_test();
    let mut sup = fleet_supervisor(&h);

    // Healthy baseline.
    run_fleet(&mut h, &mut sup, 20_000);
    h.begin_window();
    run_fleet(&mut h, &mut sup, 20_000);
    let baseline_gbps = h.measure().gbps;

    // Kill a whole box. Detection needs three probe misses (~2k cycles),
    // then drain runs to its 4k deadline (a crashed shell never quiesces).
    h.sys.schedule_fault(FaultEvent {
        at: h.sys.now(),
        kind: FaultKind::BoxCrash { device: KILLED },
    });
    run_fleet(&mut h, &mut sup, 4_000);
    h.begin_window();
    run_fleet(&mut h, &mut sup, 10_000);
    let degraded_gbps = h.measure().gbps;

    // Let the reload and probation complete.
    let mut budget = 40_000u64;
    while h.sys.failovers().is_empty() && budget > 0 {
        run_fleet(&mut h, &mut sup, 1_000);
        budget -= 1_000;
    }
    assert!(
        !h.sys.failovers().is_empty(),
        "failover never completed; ladder log:\n{}",
        h.sys.log_text()
    );

    // Re-admitted: the fleet must carry full load again.
    h.begin_window();
    run_fleet(&mut h, &mut sup, 20_000);
    let recovered_gbps = h.measure().gbps;

    h.sys.assert_conservation();
    let mut cross_survivor_resteers = 0;
    for prev in 0..BOXES {
        for new in 0..BOXES {
            if prev != KILLED && new != KILLED {
                cross_survivor_resteers += h.sys.resteered_between(prev, new);
            }
        }
    }
    FleetTrace {
        baseline_gbps,
        degraded_gbps,
        recovered_gbps,
        failovers: h.sys.failovers().to_vec(),
        log_text: h.sys.log_text(),
        flows_seen: h.sys.flows_seen(),
        cross_survivor_resteers,
        ledger: h.sys.ledger(),
        in_flight: h.sys.ledger_in_flight(),
    }
}

#[test]
fn box_crash_walks_the_fleet_ladder_and_readmits() {
    let t = run_fleet_scenario();

    assert_eq!(t.failovers.len(), 1, "log:\n{}", t.log_text);
    let rec = t.failovers[0];
    assert_eq!(rec.device, KILLED);
    assert!(!rec.graceful, "a crashed shell can never drain cleanly");
    assert!(
        rec.packets_purged > 0,
        "the dead box was holding frames at 60 Gbps"
    );
    assert!(
        rec.downtime >= 8_000,
        "downtime must cover the whole-box reload, got {}",
        rec.downtime
    );
    for step in [
        "marked-unhealthy",
        "drain",
        "purged",
        "reload",
        "probation",
        "readmitted",
    ] {
        assert!(
            t.log_text.contains(step),
            "ladder log is missing the {step} rung:\n{}",
            t.log_text
        );
    }
}

#[test]
fn fleet_throughput_survives_a_box_loss_and_returns() {
    let t = run_fleet_scenario();

    // The acceptance bar: with 1 of 4 boxes gone, the survivors must absorb
    // at least 3/4 of the baseline. (Re-steering is immediate once the ring
    // points are pulled, so in practice they absorb nearly all of it.)
    let degraded_ratio = t.degraded_gbps / t.baseline_gbps;
    assert!(
        degraded_ratio >= 0.75,
        "degraded throughput below 3/4 of baseline: {:.1} of {:.1} Gbps (ratio {:.3})",
        t.degraded_gbps,
        t.baseline_gbps,
        degraded_ratio
    );
    let recovered_ratio = t.recovered_gbps / t.baseline_gbps;
    assert!(
        recovered_ratio >= 0.95,
        "throughput must return after re-admission: {:.1} of {:.1} Gbps",
        t.recovered_gbps,
        t.baseline_gbps
    );
}

#[test]
fn only_the_dead_boxs_flows_are_disturbed() {
    let t = run_fleet_scenario();

    // Consistent hashing's whole point: flows between two surviving boxes
    // never move. Every re-steer must involve the killed box as source
    // (drain) or destination (re-admission homecoming).
    assert_eq!(
        t.cross_survivor_resteers, 0,
        "flows moved between surviving boxes"
    );
    let rec = t.failovers[0];
    assert!(
        rec.flows_resteered > 0,
        "the dead box owned flows; someone had to inherit them"
    );
    assert!(
        rec.flows_resteered <= t.flows_seen / 2,
        "one box of four should strand roughly a quarter of flows, not {} of {}",
        rec.flows_resteered,
        t.flows_seen
    );
}

#[test]
fn fleet_failover_is_deterministic() {
    let a = run_fleet_scenario();
    let b = run_fleet_scenario();
    assert_eq!(a.log_text, b.log_text, "ladder log must be cycle-exact");
    assert_eq!(a.failovers, b.failovers);
    assert_eq!(a.ledger, b.ledger);
    assert_eq!(a.in_flight, b.in_flight);
    assert!((a.baseline_gbps - b.baseline_gbps).abs() < f64::EPSILON);
    assert!((a.degraded_gbps - b.degraded_gbps).abs() < f64::EPSILON);
    assert!((a.recovered_gbps - b.recovered_gbps).abs() < f64::EPSILON);
}
