//! The two host-speed measurements the repo benchmark (`benchmark/`) does
//! not take: the Snort CPU baseline's data path — the per-packet
//! multi-pattern scan behind the "packet-rate-bound" software IDS of
//! §7.1.3, serial and on 4 threads — and what an installed `Tracer` costs a
//! tick. (MPSE scan, ISS step and system tick are per-layer metrics there.)

use std::hint::black_box;
use std::time::Instant;

use rosebud_apps::forwarder::build_forwarding_system;
use rosebud_apps::rules::{attack_trace, compile, synthetic_rules};
use rosebud_apps::snort::CpuMatcher;
use rosebud_bench::heading;
use rosebud_core::{Harness, TraceConfig};
use rosebud_net::FixedSizeGen;

/// Calls per second of `f`, after one warm-up call.
fn rate<T>(rounds: u32, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let start = Instant::now();
    for _ in 0..rounds {
        black_box(f());
    }
    f64::from(rounds) / start.elapsed().as_secs_f64()
}

/// Host nanoseconds per simulated cycle of a saturated 16-RPU forwarder.
fn tick_ns(trace: Option<TraceConfig>) -> f64 {
    let mut sys = build_forwarding_system(16).expect("valid config");
    if let Some(cfg) = trace {
        sys.enable_tracing(cfg);
    }
    let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(256, 2)), 200.0);
    h.run(20_000); // steady state
    1e9 / (rate(200, || h.run(1_000)) * 1_000.0)
}

fn main() {
    heading("CPU IDS baseline: 256 rules, 800-packet attack trace");
    let rules = synthetic_rules(256, 5);
    let matcher = CpuMatcher::new(compile(rules.clone()));
    let trace = attack_trace(&rules, 800);
    let mpps = |scans_per_sec: f64| scans_per_sec * trace.len() as f64 / 1e6;
    let serial = mpps(rate(200, || matcher.scan_trace(&trace)));
    let parallel = mpps(rate(200, || matcher.scan_trace_parallel(&trace, 4)));
    println!("{:>10} | {serial:>8.3} Mpps", "serial");
    println!("{:>10} | {parallel:>8.3} Mpps", "4 threads");

    heading("Tracing overhead: 16-RPU forwarder, 256 B at 200 Gbps");
    let off = tick_ns(None);
    // Bounded event memory; overflow drops are counted, not silent.
    let on = tick_ns(Some(TraceConfig {
        max_events: 1 << 16,
        ..TraceConfig::default()
    }));
    println!("{:>10} | {off:>8.1} ns/cycle", "disabled");
    println!(
        "{:>10} | {on:>8.1} ns/cycle ({:+.1}%)",
        "enabled",
        (on / off - 1.0) * 100.0
    );
}
