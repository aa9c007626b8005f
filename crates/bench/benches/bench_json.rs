//! Machine-readable benchmark summary: emits `BENCH_rosebud.json` with the
//! reproduction's headline numbers — forwarding throughput (64 B and 1500 B),
//! round-trip latency p50/p99, and the self-healing recovery metrics — so CI
//! can archive one comparable artifact per run.
//!
//! Run with: `cargo bench --bench bench_json`
//! Output path: `$ROSEBUD_BENCH_OUT`, else `<workspace root>/BENCH_rosebud.json`.

use rosebud_apps::forwarder::{build_forwarding_system, build_watchdog_forwarding_system};
use rosebud_bench::sim_speed::{build, point, Scenario};
use rosebud_bench::{bench_output_path, measure};
use rosebud_core::{
    Device, FaultKind, FaultPlan, Fleet, FleetConfig, FleetSupervisor, Harness, HostOp, Supervisor,
};
use rosebud_kernel::json::Json;
use rosebud_kernel::RateWindow;
use rosebud_net::{FixedSizeGen, FlowTrafficGen};

/// One throughput point: saturating offered load, like the Fig. 7 sweep.
fn throughput(size: usize, o: &mut Json) {
    let sys = build_forwarding_system(16).expect("valid config");
    // Tracing stays off: this is the overhead-free measurement path.
    let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(size, 2)), 205.0);
    h.run(20_000);

    // The DUT-side view: a RateWindow over the MAC counters, the consumer
    // the host's §4.3 polling loop would run.
    let totals = |sys: &rosebud_core::Rosebud| {
        let mut sum = sys.port_counters(0);
        let c1 = sys.port_counters(1);
        sum.rx_bytes += c1.rx_bytes;
        sum.rx_frames += c1.rx_frames;
        sum.tx_bytes += c1.tx_bytes;
        sum.tx_frames += c1.tx_frames;
        sum
    };
    let mut window = RateWindow::new(h.sys.now(), totals(&h.sys));
    h.begin_window();
    h.run(30_000);
    let m = h.measure();
    let rate = window.sample(h.sys.now(), totals(&h.sys));
    o.key("frame_bytes").value(size);
    o.key("gbps").value(m.gbps);
    o.key("mpps").value(m.mpps);
    // The cross-check from the DUT's own counters: received bits per
    // cycle, summed over both ports.
    o.key("counter_rx_bits_per_cycle")
        .value(rate.rx_bits_per_cycle());
}

fn latency(o: &mut Json) {
    // Light load so queueing does not dominate: the paper's RTT experiment
    // (§6.2) measures the pipeline, not a saturated FIFO.
    let sys = build_forwarding_system(16).expect("valid config");
    let (_, mut h) = measure(
        sys,
        Box::new(FixedSizeGen::new(512, 2)),
        20.0,
        20_000,
        30_000,
    );
    o.key("p50_ns").value(h.latency().percentile(50.0));
    o.key("p99_ns").value(h.latency().percentile(99.0));
}

fn recovery(o: &mut Json) {
    // The §3.4 scenario the recovery bench uses: hang RPU 3 under live
    // traffic and let the supervisor walk its ladder.
    let sys = build_watchdog_forwarding_system(8, 64).expect("valid config");
    let hang = FaultPlan::new().at(50_000, FaultKind::FirmwareHang { rpu: 3 });
    let gen = Box::new(FixedSizeGen::new(64, 2));
    let mut h = Harness::new(sys, gen, 205.0).faults(hang.clone());
    let mut sup = Supervisor::new(&h.sys);
    for _ in 0..120_000 {
        h.tick();
        sup.poll(&mut h.sys);
    }
    let ev = sup.recoveries()[0].timed(&hang, None);
    o.key("detection_latency_cycles")
        .value(ev.detection_latency.unwrap_or_default());
    o.key("downtime_cycles").value(ev.downtime);
    o.key("packets_purged").value(ev.packets_purged);
}

fn fleet(o: &mut Json) {
    // The rack-scale failover drill: 4 boxes behind the consistent-hashing
    // front LB, one killed cold mid-run, measured after re-admission.
    const BOXES: usize = 4;
    let fleet = Fleet::new(FleetConfig { boxes: BOXES }, |_| {
        build_watchdog_forwarding_system(4, 64).expect("valid config")
    })
    .expect("valid fleet config");
    let mut h = Harness::fleet(
        fleet,
        Box::new(FlowTrafficGen::new(512, 256, 0.0, 11)),
        60.0,
    );
    let mut sup = FleetSupervisor::new(&h.sys);
    let run = |h: &mut Harness<Fleet>, sup: &mut FleetSupervisor, cycles: u64| {
        for _ in 0..cycles {
            sup.poll(&mut h.sys);
            h.tick();
        }
    };
    run(&mut h, &mut sup, 20_000);
    let crash = FaultKind::BoxCrash { device: BOXES / 2 };
    h.sys
        .apply(HostOp::Fault(crash))
        .expect("a box the rack has");
    let mut budget = 80_000u64;
    while sup.failovers().is_empty() && budget > 0 {
        run(&mut h, &mut sup, 1_000);
        budget -= 1_000;
    }
    h.begin_window();
    run(&mut h, &mut sup, 30_000);
    let m = h.measure();
    let rec = sup.failovers().first().copied().expect("one failover");
    o.key("boxes").value(BOXES);
    o.key("aggregate_gbps").value(m.gbps);
    o.key("per_box_p99_ns").array(|a| {
        for b in 0..BOXES {
            a.value(h.box_latency(b).percentile(99.0));
        }
    });
    o.key("failover_downtime_cycles").value(rec.downtime);
    o.key("packets_purged").value(rec.packets_purged);
    o.key("flows_disturbed").value(rec.flows_resteered);
    o.key("flows_seen").value(h.sys.flows_seen());
}

/// One sim-speed point at 16 RPUs, decode cache on.
fn sim_speed(scenario: Scenario, o: &mut Json) {
    let p = point(&mut build(scenario, 16), 10_000, 150_000, 5);
    o.key("scenario").value(scenario.name());
    o.key("rpus").value(16u8);
    o.key("ns_per_cycle").value(p.ns_per_cycle);
    o.key("quiet_share").value(p.stats.quiet_share());
    o.key("parked_share").value(p.stats.parked_share());
    o.key("asleep_share").value(p.stats.asleep_share());
    o.key("stepped_instr_share")
        .value(p.stats.stepped_instr_share());
    o.key("iss_share").value(p.profile.iss_share());
}

fn main() {
    let mut json = Json::default();
    json.object(|o| {
        o.key("benchmark").value("rosebud");
        o.key("throughput").rows(|r| {
            for size in [64, 1500] {
                r.object(|o| throughput(size, o));
            }
        });
        o.key("latency").object(latency);
        o.key("recovery").object(recovery);
        o.key("fleet").object(fleet);
        o.key("sim_speed").rows(|r| {
            for scenario in Scenario::ALL {
                r.object(|o| sim_speed(scenario, o));
            }
        });
    });
    let json = format!("{json}\n");

    let path = bench_output_path("BENCH_rosebud.json");
    std::fs::write(&path, &json).expect("write benchmark summary");
    println!("wrote {}", path.display());
    print!("{json}");
}
