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
//!
//! The same drill one level up kills a whole box of a four-box rack, and a
//! planned chaos run at either scale replays bit-exactly from its event log —
//! a supervised one too, with no supervisor on the replay: the ladder keeps
//! its notes to itself, so the box shows only the ops it applied.

use rosebud::apps::forwarder::build_watchdog_forwarding_system;
use rosebud::core::ports::{pump, replay};
use rosebud::core::{
    Device, EventLog, FailoverRecord, FaultKind, FaultPlan, Fleet, FleetConfig, FleetSupervisor,
    Harness, HostOp, HostReply, Ledger, RecoveryEvent, Rosebud, RpuFaultKind, RpuState, Supervisor,
    SupervisorStep, TraceConfig,
};
use rosebud::net::{FixedSizeGen, FlowTrafficGen, GenPort, Packet};

const RPUS: usize = 8;
const WEDGED: usize = 3;
const HANG_AT: u64 = 50_000;

/// RPU 3 wedged at `HANG_AT`.
fn hang_plan() -> FaultPlan {
    FaultPlan::new().at(HANG_AT, FaultKind::FirmwareHang { rpu: WEDGED })
}

/// Eight watchdog forwarders at 64-byte saturation under `hang_plan`.
fn wedged_at_hang_at() -> Harness {
    let sys = build_watchdog_forwarding_system(RPUS, 64).unwrap();
    Harness::new(sys, Box::new(FixedSizeGen::new(64, 2)), 205.0).faults(hang_plan())
}

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
    let mut h = wedged_at_hang_at();
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
        recoveries: sup
            .recoveries()
            .iter()
            .map(|ev| ev.timed(&hang_plan(), None))
            .collect(),
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
    let mut h = wedged_at_hang_at();
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

#[test]
fn a_supervised_spinning_forwarder_raises_no_false_alarm() {
    // The plain forwarder at 1 Gbps spins on an empty queue almost all the
    // time, and a spinning core is parked rather than ticked. The ladder's
    // stall sensor asks whether `sw_cycles` moved since the last poll while
    // a slot is bound to the lane; a parked core must answer with the
    // cycles it has been spinning, or a lane whose next frame is still
    // serializing on its link reads as stalled. The run must record no
    // recovery and equal its oracle, counter samples included. (The
    // watchdog forwarder never parks — petting is a store — so it cannot
    // stand in here.)
    let run = |oracle: bool| {
        let mut sys = rosebud::apps::forwarder::build_forwarding_system(RPUS).unwrap();
        sys.enable_tracing(TraceConfig {
            counter_interval: 4096,
            pc_profile: false,
            max_events: 1 << 20,
        });
        let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(1500, 2)), 1.0);
        let mut sup = Supervisor::new(&h.sys);
        for _ in 0..200_000 {
            if oracle {
                h.sys.wake_all();
            }
            h.tick();
            sup.poll(&mut h.sys);
        }
        let tracer = h.sys.take_tracer().expect("tracing enabled");
        (
            sup.recoveries().to_vec(),
            tracer.compact_text(),
            h.sys.diagnostics().render(),
        )
    };
    let shipped = run(false);
    assert_eq!(shipped.0, [], "a healthy forwarder was recovered");
    let oracle = run(true);
    assert!(shipped.1 == oracle.1, "trace differs from the oracle's");
    assert_eq!(shipped.2, oracle.2, "diagnostics");
}

// ---------------------------------------------------------------------------
// Fleet-level failover: the same drill one level up. Four boxes sit behind a
// consistent-hashing front LB; a whole box crashes mid-run. The fleet
// supervisor must miss its health probes, mark the box unhealthy, pull its
// ring points (re-steering only that box's flows), purge what the dead shell
// was holding, run the whole-box PR reload, and re-admit it after probation —
// with the fleet-wide conservation ledger balanced throughout.

/// What the host sees of RPU `r`, all frozen while its core is stopped:
/// `(firmware cycles, instructions retired, frames sent, descriptors
/// popped)`. Frames sent come off the host's status table; a descriptor
/// popped is one received that no longer waits in the receive queue.
fn stopped_view(sys: &Rosebud, r: usize) -> (u64, u64, u64, u64) {
    let diag = sys.diagnostics();
    let table = diag.render();
    let row = table
        .lines()
        .find_map(|l| l.strip_prefix(&format!("RPU {r}: rx ")))
        .expect("status row");
    let mut words = row.split_whitespace();
    let rx: u64 = words.next().unwrap().parse().unwrap();
    let tx: u64 = words.nth(1).unwrap().parse().unwrap();
    let inner = format!("{:?}", sys.rpus()[r].inner());
    let queued: u64 = inner
        .split("rx_queue: ")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .unwrap()
        .parse()
        .unwrap();
    let perf = diag.perf[r];
    (perf.sw_cycles, perf.instret, tx, rx - queued)
}

/// A crashed core stops: from `FirmwareCrash` on, RPU 1 retires nothing,
/// sends nothing and pops nothing — RV32 firmware (the forwarder) and
/// native firmware beside a busy accelerator (the Pigasus IDS) alike. The LB
/// keeps handing it frames until something disables it, and every frame the
/// region holds stays in the ledger's `in_flight` until a purge destroys it.
#[test]
fn a_crashed_core_retires_sends_and_pops_nothing() {
    use rosebud::apps::forwarder::build_forwarding_system;
    use rosebud::apps::pigasus::{build_pigasus_system_with, ReorderMode};
    use rosebud::apps::rules::synthetic_rules;
    const CRASH_AT: u64 = 10_000;
    let boxes = [
        ("rv32 forwarder", build_forwarding_system(4).unwrap()),
        (
            "native pigasus",
            build_pigasus_system_with(ReorderMode::Hardware, synthetic_rules(64, 1), 4, 16)
                .unwrap(),
        ),
    ];
    for (name, sys) in boxes {
        let plan = FaultPlan::new().at(CRASH_AT, FaultKind::FirmwareCrash { rpu: 1 });
        let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(256, 2)), 20.0).faults(plan);
        h.run(CRASH_AT + 1);
        assert!(
            h.sys.rpus()[1].is_halted(),
            "{name}: the crash did not land"
        );
        let at_crash = stopped_view(&h.sys, 1);
        assert!(
            at_crash.2 > 0,
            "{name}: RPU 1 forwarded nothing before the crash"
        );
        for _ in 0..20 {
            h.run(1_000);
            assert_eq!(
                stopped_view(&h.sys, 1),
                at_crash,
                "{name}: cycle {}",
                h.sys.now()
            );
        }
        let held = h.sys.ledger_in_flight();
        let before = h.sys.ledger().purged;
        let Ok(HostReply::Purged(purged)) = h.sys.apply(HostOp::ForceReload { rpu: 1 }) else {
            panic!("{name}: the purge was refused");
        };
        assert!(purged > 0, "{name}: RPU 1 held no frames at the purge");
        assert_eq!(h.sys.ledger().purged, before + purged, "{name}");
        assert_eq!(h.sys.ledger_in_flight(), held - purged, "{name}");
        h.sys.assert_conservation();
    }
}

const BOXES: usize = 4;
const KILLED: usize = 2;
const FLEET_LOAD_GBPS: f64 = 60.0;

fn fleet_under_test() -> Harness<Fleet> {
    let fleet = Fleet::new(FleetConfig { boxes: BOXES }, |_| {
        build_watchdog_forwarding_system(4, 64).unwrap()
    })
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
    let crash = FaultKind::BoxCrash { device: KILLED };
    h.sys.apply(HostOp::Fault(crash)).unwrap();
    run_fleet(&mut h, &mut sup, 4_000);
    h.begin_window();
    run_fleet(&mut h, &mut sup, 10_000);
    let degraded_gbps = h.measure().gbps;

    // Let the reload and probation complete.
    let mut budget = 40_000u64;
    while sup.failovers().is_empty() && budget > 0 {
        run_fleet(&mut h, &mut sup, 1_000);
        budget -= 1_000;
    }
    assert!(
        !sup.failovers().is_empty(),
        "failover never completed; ladder log:\n{}",
        sup.log_text()
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
        failovers: sup.failovers().to_vec(),
        log_text: sup.log_text(),
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

// ---------------------------------------------------------------------------
// A chaos run is an event log. Everything a plan does to a box or a rack
// goes through `Device::apply`, so the ops it applied and the frames the
// device accepted are the whole run: written as text, read back and replayed
// on a fresh device — no plan, no supervisor — they reproduce every box's
// trace, the ledger and the diagnostics bit for bit.

/// A device that writes down what crosses its boundary: each accepted frame
/// and each applied op, at the cycle it crossed.
struct Recorder<D> {
    dev: D,
    log: EventLog,
}

impl<D: Device> Device for Recorder<D> {
    fn now(&self) -> u64 {
        self.dev.now()
    }

    fn ns_per_cycle(&self) -> f64 {
        self.dev.ns_per_cycle()
    }

    fn inject(&mut self, pkt: Packet) -> Result<(), Packet> {
        let (now, copy) = (self.dev.now(), pkt.clone());
        self.dev.inject(pkt)?;
        self.log.push(now, copy);
        Ok(())
    }

    fn apply(&mut self, op: HostOp) -> Result<HostReply, String> {
        let now = self.dev.now();
        let reply = self.dev.apply(op.clone())?;
        self.log.ops.push((now, op));
        Ok(reply)
    }

    fn tick(&mut self) {
        self.dev.tick();
        self.log.cycles = self.dev.now();
    }

    fn drain(&mut self, sink: &mut dyn FnMut(usize, Packet)) {
        self.dev.drain(sink);
    }
}

/// Runs `plan` against `dev` under `source`'s paced traffic for `cycles`,
/// in the order a `Harness` does — the plan's due ops, the frames, the
/// tick — and returns the device with the log of the run, round-tripped
/// through its text form.
fn record<D: Device>(dev: D, mut source: GenPort, plan: &FaultPlan, cycles: u64) -> (D, EventLog) {
    let mut rec = Recorder {
        dev,
        log: EventLog::new(),
    };
    let mut ops = plan.ops().iter().peekable();
    while rec.now() < cycles {
        let now = rec.now();
        while let Some((_, op)) = ops.next_if(|(at, _)| *at <= now) {
            rec.apply(op.clone())
                .expect("the plan names what the device has");
        }
        pump(&mut rec, &mut source);
        rec.tick();
        rec.drain(&mut |_, _| {});
    }
    let text = rec.log.to_text();
    assert!(
        text.starts_with("rosebud-events v2 "),
        "the faults are in it"
    );
    (rec.dev, EventLog::parse_text(&text).unwrap())
}

fn trace_cfg() -> TraceConfig {
    TraceConfig {
        counter_interval: 2048,
        pc_profile: false,
        max_events: 1 << 21,
    }
}

#[test]
fn a_planned_chaos_run_on_a_box_replays_from_its_log() {
    let factory = || {
        let mut sys = build_watchdog_forwarding_system(RPUS, 64).unwrap();
        sys.enable_tracing(trace_cfg());
        sys
    };
    let plan = FaultPlan::random(0xC0FFEE, 20_000, RPUS, 2, 10)
        .at(5_000, FaultKind::CorruptIngress { rpu: 1, count: 20 });
    let sys = factory();
    let source = GenPort::per_port(Box::new(FixedSizeGen::new(64, 2)), 100.0, 4.0, 2);
    let (live, log) = record(sys, source, &plan, 30_000);
    assert_eq!(log.ops, plan.ops(), "every op stamped inside the run");
    let observe = |sys: &Rosebud| {
        let trace = sys.tracer().unwrap().compact_text();
        (trace, sys.ledger(), sys.diagnostics().render())
    };
    assert!(live.ledger().corrupted > 0, "the corruption landed");

    let mut fresh = factory();
    replay(&log, &mut fresh);
    assert_eq!(observe(&fresh), observe(&live));
}

#[test]
fn a_four_box_chaos_drill_replays_from_its_log() {
    let factory = || {
        let cfg = FleetConfig { boxes: BOXES };
        let fleet = Fleet::new(cfg, |_| build_watchdog_forwarding_system(4, 64).unwrap());
        let mut fleet = fleet.unwrap();
        fleet.enable_tracing(trace_cfg());
        fleet
    };
    let one_box = |device, kind: FaultKind| HostOp::Box {
        device,
        op: Box::new(kind.into()),
    };
    let plan = FaultPlan::random_fleet(7, 20_000, BOXES, 6)
        .at(4_000, one_box(0, FaultKind::FirmwareHang { rpu: 2 }))
        .at(
            6_000,
            one_box(1, FaultKind::CorruptIngress { rpu: 0, count: 30 }),
        )
        .at(
            14_000,
            one_box(
                1,
                FaultKind::RxFifoOverflow {
                    port: 0,
                    cycles: 3_000,
                },
            ),
        );
    let fleet = factory();
    let gen = Box::new(FlowTrafficGen::new(512, 256, 0.0, 11));
    let source = GenPort::aggregate(gen, FLEET_LOAD_GBPS, fleet.ns_per_cycle());
    let (live, log) = record(fleet, source, &plan, 25_000);
    let text = log.to_text();
    assert!(
        text.contains(" op box.fault.firmware_hang 0 2\n"),
        "{text:.300}"
    );
    assert!(text.contains(" op fault.box_"));
    let observe = |fleet: &Fleet| {
        let traces: Vec<String> = (0..BOXES)
            .map(|b| fleet.sys(b).tracer().unwrap().compact_text())
            .chain(fleet.archived_traces().iter().cloned())
            .collect();
        (traces, fleet.ledger(), fleet.diagnostics().render())
    };
    let l = live.ledger();
    assert!(
        l.corrupted > 0 && l.dropped > 0,
        "the box faults landed: {l:?}"
    );

    let mut fresh = factory();
    replay(&log, &mut fresh);
    assert_eq!(observe(&fresh), observe(&live));
}

/// `examples/chaos`'s plan: a forced recovery (the hang), a graceful one
/// (the crash), a PCIe outage in between, and faults the ladder ignores.
fn chaos_plan() -> FaultPlan {
    FaultPlan::new()
        .at(40_000, FaultKind::CorruptIngress { rpu: 1, count: 20 })
        .at(50_000, FaultKind::FirmwareHang { rpu: 3 })
        .at(
            55_000,
            FaultKind::RxFifoOverflow {
                port: 0,
                cycles: 2_000,
            },
        )
        .at(60_000, FaultKind::HostDmaOutage { cycles: 8_000 })
        .at(140_000, FaultKind::FirmwareCrash { rpu: 6 })
}

/// The host ops behind one noted ladder step.
fn ladder_ops(rpu: usize, step: SupervisorStep) -> Vec<HostOp> {
    match step {
        SupervisorStep::Detected(_) => vec![HostOp::Disable { rpu }, HostOp::Poke { rpu }],
        SupervisorStep::DrainStarted => vec![HostOp::Reload { rpu, gated: true }],
        SupervisorStep::ForcedEvict { .. } => vec![HostOp::ForceReload { rpu }],
        SupervisorStep::Reenabled | SupervisorStep::FalseAlarm => vec![HostOp::Enable { rpu }],
        SupervisorStep::Reloading | SupervisorStep::Verifying => vec![],
    }
}

#[test]
fn a_supervised_box_replays_without_its_supervisor() {
    // The supervisor is a host program: all it does to the box is apply ops.
    // Its log, turned back into those ops ahead of the plan's own at each
    // cycle (it polls after a tick, the harness applies before the next),
    // reproduces the supervised box on a fresh one with no ladder at all.
    let run = |plan: FaultPlan, supervised: bool| {
        let mut sys = build_watchdog_forwarding_system(RPUS, 64).unwrap();
        sys.enable_tracing(trace_cfg());
        let gen = Box::new(FixedSizeGen::new(64, 2));
        let mut h = Harness::new(sys, gen, 205.0).faults(plan);
        let mut sup = Supervisor::new(&h.sys);
        for _ in 0..180_000 {
            h.tick();
            if supervised {
                sup.poll(&mut h.sys);
            }
        }
        let trace = h.sys.tracer().unwrap().compact_text();
        let seen = (trace, h.sys.ledger(), h.sys.diagnostics().render());
        (seen, sup)
    };
    let (supervised, sup) = run(chaos_plan(), true);
    // The recovery report is the host's, timed against its own plan.
    assert_eq!(
        sup.render(&chaos_plan()),
        "recovery: RPU 3 hung — detected @50177 cycle(s) (177 after fault), down 30208 cycles, \
         16 purged, forced eviction, 4 host retries\n\
         recovery: RPU 6 halted — detected @140289 cycle(s) (289 after fault), down 30208 cycles, \
         16 purged, forced eviction\n"
    );
    let ladder = sup
        .steps()
        .iter()
        .flat_map(|&(at, rpu, step)| ladder_ops(rpu, step).into_iter().map(move |op| (at, op)));
    let plan = chaos_plan();
    let replay_plan = ladder
        .chain(plan.ops().iter().cloned())
        .fold(FaultPlan::new(), |p, (at, op)| p.at(at, op));
    let (replayed, _) = run(replay_plan, false);
    assert!(
        supervised.0 == replayed.0,
        "trace differs from the replay's"
    );
    assert_eq!(supervised.1, replayed.1, "ledger");
    assert_eq!(supervised.2, replayed.2, "diagnostics");
}
