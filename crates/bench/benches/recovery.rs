//! §3.4/A.8: self-healing recovery under live traffic — detection latency,
//! downtime, throughput during the degraded window, and the cost of the
//! supervisor's polling itself.
//!
//! The headline numbers: a wedged region is detected within one watchdog
//! interval plus one poll period, the LB carries (n-1)/n of the load while
//! the 756 ms-modelled PR reload runs, and the recovered region rejoins
//! with zero unaccounted packets.

use rosebud_apps::forwarder::build_watchdog_forwarding_system;
use rosebud_bench::{heading, versus};
use rosebud_core::{FaultKind, FaultPlan, Harness, PrTimingModel, Supervisor};
use rosebud_net::FixedSizeGen;

const RPUS: usize = 8;
const HANG_AT: u64 = 50_000;

fn run_supervised(h: &mut Harness, sup: &mut Supervisor, cycles: u64) {
    for _ in 0..cycles {
        h.tick();
        sup.poll(&mut h.sys);
    }
}

fn recovery_latency_and_degradation() {
    heading("§3.4: hang detection latency + graceful degradation (8 RPUs, 64 B)");
    let sys = build_watchdog_forwarding_system(RPUS, 64).expect("valid config");
    let hang = FaultPlan::new().at(HANG_AT, FaultKind::FirmwareHang { rpu: 3 });
    let gen = Box::new(FixedSizeGen::new(64, 2));
    let mut h = Harness::new(sys, gen, 205.0).faults(hang.clone());
    let mut sup = Supervisor::new(&h.sys);

    run_supervised(&mut h, &mut sup, 20_000);
    h.begin_window();
    run_supervised(&mut h, &mut sup, 25_000);
    let baseline = h.measure().mpps;

    run_supervised(&mut h, &mut sup, 12_000);
    h.begin_window();
    run_supervised(&mut h, &mut sup, 20_000);
    let degraded = h.measure().mpps;

    run_supervised(&mut h, &mut sup, 10_000);
    h.begin_window();
    run_supervised(&mut h, &mut sup, 20_000);
    let recovered = h.measure().mpps;

    let ev = sup.recoveries()[0].timed(&hang, None);
    println!("baseline           : {baseline:>7.1} Mpps");
    println!(
        "degraded (reload)  : {:>7.1} Mpps ({} of baseline)",
        degraded,
        versus(degraded / baseline, 7.0 / 8.0)
    );
    println!("reintegrated       : {recovered:>7.1} Mpps");
    println!(
        "detection latency  : {:>7} cycles (watchdog interval 64 + poll 512)",
        ev.detection_latency.unwrap_or_default()
    );
    println!(
        "downtime           : {:>7} cycles ({} purged, forced: {})",
        ev.downtime, ev.packets_purged, ev.forced
    );
    let model = PrTimingModel;
    println!(
        "wall-clock reload  : {:>7.0} ms on hardware (§4.1 model; sim uses a \
         shortened PR window)",
        model.mean_reload_seconds(320) * 1e3
    );
}

fn supervisor_overhead() {
    heading("supervisor polling overhead on a healthy system");
    let mut rates = Vec::new();
    for supervised in [false, true] {
        let sys = build_watchdog_forwarding_system(RPUS, 64).expect("valid config");
        let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(64, 2)), 205.0);
        let mut sup = Supervisor::new(&h.sys);
        h.run(20_000);
        h.begin_window();
        if supervised {
            run_supervised(&mut h, &mut sup, 40_000);
        } else {
            h.run(40_000);
        }
        rates.push(h.measure().mpps);
    }
    println!("unsupervised       : {:>7.1} Mpps", rates[0]);
    println!(
        "supervised         : {:>7.1} Mpps (host-side polling is off the data path)",
        rates[1]
    );
}

fn main() {
    recovery_latency_and_degradation();
    supervisor_overhead();
}
