//! §4.1: partial-reconfiguration timing — "We measured the time to pause,
//! load the new bit file, and boot a new RPU, and it takes 756 milliseconds
//! on average (across 320 loads)" — plus a live no-pause reconfiguration
//! under traffic: packets keep flowing through the other RPUs and none are
//! lost.

use rosebud_apps::forwarder::build_forwarding_system;
use rosebud_bench::{heading, versus};
use rosebud_core::{Harness, HostOp, PrTimingModel};
use rosebud_net::FixedSizeGen;

fn reload_time_model() {
    heading("§4.1: PR reload time (analytic MCAP model, 320 loads)");
    let model = PrTimingModel;
    let samples: Vec<f64> = (0..320).map(|i| model.reload_seconds(i) * 1e3).collect();
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    println!("mean reload: {} ms", versus(mean, 756.0));
    println!("range      : {min:.0}–{max:.0} ms across 320 loads");
}

fn live_reconfiguration_under_traffic() {
    heading("§4.2/A.8: no-pause reconfiguration under 100 Gbps of traffic");
    let sys = build_forwarding_system(16).expect("valid config");
    let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(512, 2)), 100.0);
    h.run(50_000);
    h.begin_window();
    // Reconfigure RPU 5 while traffic flows (uses the shortened simulated
    // PR duration so the run completes; the wall-clock time is the model
    // above).
    h.sys
        .apply(HostOp::Reload {
            rpu: 5,
            gated: false,
        })
        .expect("RPU 5 exists");
    let mut done_at = None;
    for cycle in 0..200_000u64 {
        h.tick();
        if done_at.is_none() && !h.sys.reconfigure_pending(5) {
            done_at = Some(cycle);
        }
    }
    let m = h.measure();
    println!(
        "throughput during PR : {:>6.1} Gbps ({} packets, {} injected)",
        m.gbps, m.packets, m.injected
    );
    println!(
        "drops during PR      : {:>6} (framework drops only; LB drained RPU 5 first)",
        h.sys.drop_count()
    );
    println!(
        "PR completed after   : {:>6} cycles of simulated drain+write+boot",
        done_at
            .map(|c| c.to_string())
            .unwrap_or_else(|| "not finished".into())
    );
    println!(
        "RPU 5 re-enabled     : {}",
        h.sys.enabled_mask() & (1 << 5) != 0
    );
}

fn main() {
    reload_time_model();
    live_reconfiguration_under_traffic();
}
