//! Machine-readable benchmark summary: emits `BENCH_rosebud.json` with the
//! reproduction's headline numbers — forwarding throughput (64 B and 1500 B),
//! round-trip latency p50/p99, and the self-healing recovery metrics — so CI
//! can archive one comparable artifact per run.
//!
//! Run with: `cargo bench --bench bench_json`
//! Output path: `$ROSEBUD_BENCH_OUT`, else `<workspace root>/BENCH_rosebud.json`.

use rosebud_apps::forwarder::{build_forwarding_system, build_watchdog_forwarding_system};
use rosebud_bench::sim_speed::{build, ns_per_cycle, Scenario};
use rosebud_bench::{bench_output_path, json_f64, measure};
use rosebud_core::{
    Device, FaultKind, FaultPlan, Fleet, FleetConfig, FleetSupervisor, Harness, HostOp, Supervisor,
};
use rosebud_kernel::RateWindow;
use rosebud_net::{FixedSizeGen, FlowTrafficGen};

/// One throughput point: saturating offered load, like the Fig. 7 sweep.
struct Throughput {
    size: usize,
    gbps: f64,
    mpps: f64,
    /// Cross-check from the DUT's own §4.3 counters via a `RateWindow`,
    /// in received bits per cycle summed over both ports.
    counter_rx_bits_per_cycle: f64,
}

fn throughput_point(size: usize) -> Throughput {
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
    Throughput {
        size,
        gbps: m.gbps,
        mpps: m.mpps,
        counter_rx_bits_per_cycle: rate.rx_bits_per_cycle(),
    }
}

struct Latency {
    p50_ns: f64,
    p99_ns: f64,
}

fn latency_point() -> Latency {
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
    Latency {
        p50_ns: h.latency().percentile(50.0),
        p99_ns: h.latency().percentile(99.0),
    }
}

struct Recovery {
    detection_latency_cycles: u64,
    downtime_cycles: u64,
    packets_purged: u64,
}

fn recovery_point() -> Recovery {
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
    Recovery {
        detection_latency_cycles: ev.detection_latency.unwrap_or_default(),
        downtime_cycles: ev.downtime,
        packets_purged: ev.packets_purged,
    }
}

struct FleetBench {
    boxes: usize,
    aggregate_gbps: f64,
    per_box_p99_ns: Vec<f64>,
    failover_downtime_cycles: u64,
    packets_purged: u64,
    flows_disturbed: u64,
    flows_seen: u64,
}

fn fleet_point() -> FleetBench {
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
    FleetBench {
        boxes: BOXES,
        aggregate_gbps: m.gbps,
        per_box_p99_ns: (0..BOXES)
            .map(|b| h.box_latency(b).percentile(99.0))
            .collect(),
        failover_downtime_cycles: rec.downtime,
        packets_purged: rec.packets_purged,
        flows_disturbed: rec.flows_resteered,
        flows_seen: h.sys.flows_seen(),
    }
}

/// Sim-speed points at 16 RPUs, decode cache on: `(scenario, ns/cycle)`.
fn sim_speed_points() -> Vec<(&'static str, f64)> {
    Scenario::ALL
        .into_iter()
        .map(|scenario| {
            let ns = ns_per_cycle(&mut build(scenario, 16), 10_000, 150_000, 5);
            (scenario.name(), ns)
        })
        .collect()
}

fn main() {
    let throughput: Vec<Throughput> = [64, 1500].into_iter().map(throughput_point).collect();
    let latency = latency_point();
    let recovery = recovery_point();
    let fleet = fleet_point();
    let sim_speed = sim_speed_points();

    let mut json = String::from("{\n  \"benchmark\": \"rosebud\",\n  \"throughput\": [\n");
    for (i, t) in throughput.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"frame_bytes\": {}, \"gbps\": {}, \"mpps\": {}, \
             \"counter_rx_bits_per_cycle\": {}}}{}\n",
            t.size,
            json_f64(t.gbps),
            json_f64(t.mpps),
            json_f64(t.counter_rx_bits_per_cycle),
            if i + 1 < throughput.len() { "," } else { "" },
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"latency\": {{\"p50_ns\": {}, \"p99_ns\": {}}},\n",
        json_f64(latency.p50_ns),
        json_f64(latency.p99_ns),
    ));
    json.push_str(&format!(
        "  \"recovery\": {{\"detection_latency_cycles\": {}, \"downtime_cycles\": {}, \
         \"packets_purged\": {}}},\n",
        recovery.detection_latency_cycles, recovery.downtime_cycles, recovery.packets_purged,
    ));
    let p99s: Vec<String> = fleet.per_box_p99_ns.iter().map(|v| json_f64(*v)).collect();
    json.push_str(&format!(
        "  \"fleet\": {{\"boxes\": {}, \"aggregate_gbps\": {}, \"per_box_p99_ns\": [{}], \
         \"failover_downtime_cycles\": {}, \"packets_purged\": {}, \"flows_disturbed\": {}, \
         \"flows_seen\": {}}},\n",
        fleet.boxes,
        json_f64(fleet.aggregate_gbps),
        p99s.join(", "),
        fleet.failover_downtime_cycles,
        fleet.packets_purged,
        fleet.flows_disturbed,
        fleet.flows_seen,
    ));
    json.push_str("  \"sim_speed\": [\n");
    for (i, (scenario, ns)) in sim_speed.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"rpus\": 16, \"ns_per_cycle\": {}}}{}\n",
            scenario,
            json_f64(*ns),
            if i + 1 < sim_speed.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");

    let path = bench_output_path("BENCH_rosebud.json");
    std::fs::write(&path, &json).expect("write benchmark summary");
    println!("wrote {}", path.display());
    print!("{json}");
}
