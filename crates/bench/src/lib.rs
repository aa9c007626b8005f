//! Shared helpers for the per-figure benchmark harnesses.
//!
//! Every table and figure in the paper's evaluation has a bench target in
//! `benches/` that regenerates it against the simulator and prints the
//! measured series next to the paper's reference values. Run them all with
//! `cargo bench`, or one with e.g. `cargo bench --bench fig7_forwarding`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use rosebud_core::{Harness, Measurement, Rosebud};
use rosebud_net::TrafficGen;

/// Packet sizes of the forwarding sweep (§6.1): powers of two 64–8192 plus
/// the 65-byte worst case and the 1500/9000 MTU points.
pub const FORWARDING_SIZES: &[usize] = &[64, 65, 128, 256, 512, 1024, 1500, 2048, 4096, 8192, 9000];

/// Packet sizes of the IPS comparison (Fig. 8).
pub const IPS_SIZES: &[usize] = &[64, 128, 256, 512, 800, 1024, 1500, 2048];

/// Runs a warm-up then a measurement window and returns the window results.
pub fn measure(
    sys: Rosebud,
    gen: Box<dyn TrafficGen>,
    offered_gbps: f64,
    warmup_cycles: u64,
    window_cycles: u64,
) -> (Measurement, Harness) {
    let mut h = Harness::new(sys, gen, offered_gbps);
    h.run(warmup_cycles);
    h.begin_window();
    h.run(window_cycles);
    (h.measure(), h)
}

/// Prints a section header in the style the harnesses share.
pub fn heading(title: &str) {
    println!();
    println!("== {title} ==");
    println!("{}", "-".repeat(title.len() + 6));
}

/// Resolves the destination for machine-readable benchmark artifacts:
/// `$ROSEBUD_BENCH_OUT` when set, otherwise `default_name` in the workspace
/// root (two levels above this crate's manifest).
pub fn bench_output_path(default_name: &str) -> std::path::PathBuf {
    match std::env::var_os("ROSEBUD_BENCH_OUT") {
        Some(path) => std::path::PathBuf::from(path),
        None => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(default_name),
    }
}

/// Formats a measured-vs-paper pair with a deviation marker.
pub fn versus(measured: f64, paper: f64) -> String {
    if paper == 0.0 {
        return format!("{measured:8.1}        (paper: n/a)");
    }
    let dev = (measured - paper) / paper * 100.0;
    format!("{measured:8.1} vs {paper:8.1}  ({dev:+5.1}%)")
}

/// Scenario builders and measurement loop for the sim-speed table
/// (`benches/sim_speed.rs` and the `sim_speed` section of
/// `BENCH_rosebud.json`).
pub mod sim_speed {
    use std::sync::OnceLock;
    use std::time::Instant;

    use rosebud_accel::Rule;
    use rosebud_apps::firewall::{build_firewall_system, synthetic_blacklist};
    use rosebud_apps::forwarder::{duty_cycle_forwarder_asm, forwarder_image};
    use rosebud_apps::pigasus::{build_pigasus_system_with, ReorderMode};
    use rosebud_apps::rules::synthetic_rules;
    use rosebud_core::{
        Harness, Rosebud, RosebudConfig, RoundRobinLb, RpuProgram, SimStats, StageProfile,
    };
    use rosebud_net::{AttackMixGen, FixedSizeGen, FlowTrafficGen, TrafficGen};
    use rosebud_riscv::assemble;

    /// The six workload shapes the table reports. They span the tick's
    /// envelope: busy-poll firmware at saturation steps every core through
    /// every frame and parks it in its poll loop in between, and without
    /// traffic spins parked from the first empty poll on; duty-cycled
    /// firmware parks in `wfi` between timer alarms (the representative
    /// middlebox idle pattern); a fully parked fleet is the elision
    /// ceiling; the loaded firewall parks its poll loops beside an IP
    /// matcher, which is skipped while idle; and the IDS box's native lanes
    /// sleep through their charged stalls and their matchers' scans.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub enum Scenario {
        /// §6.1 busy-poll forwarder at saturating offered load.
        BusyPollLoaded,
        /// The same busy-poll forwarder with no traffic at all.
        BusyPollIdle,
        /// Duty-cycled (`wfi` + timer alarm) forwarder at light load.
        DutyCycleLight,
        /// Every core halted in `wfi` with interrupts masked; no traffic.
        ParkedIdle,
        /// The §7.2 firewall (Appendix C loop + `FirewallMatcher` on every
        /// lane) at saturating offered load.
        FirewallLoaded,
        /// The §7.1 Pigasus IDS (native firmware, hardware reordering,
        /// `PigasusMatcher` on every lane) under an 800-byte attack mix at
        /// 20 Gbps.
        IdsLight,
    }

    impl Scenario {
        /// Every scenario, in table order.
        pub const ALL: [Scenario; 6] = [
            Scenario::BusyPollLoaded,
            Scenario::BusyPollIdle,
            Scenario::DutyCycleLight,
            Scenario::ParkedIdle,
            Scenario::FirewallLoaded,
            Scenario::IdsLight,
        ];

        /// Stable identifier for tables and JSON.
        pub fn name(self) -> &'static str {
            match self {
                Scenario::BusyPollLoaded => "busy-poll-loaded",
                Scenario::BusyPollIdle => "busy-poll-idle",
                Scenario::DutyCycleLight => "duty-cycle-light",
                Scenario::ParkedIdle => "parked-idle",
                Scenario::FirewallLoaded => "firewall-loaded",
                Scenario::IdsLight => "ids-light",
            }
        }

        fn offered_gbps(self) -> f64 {
            match self {
                Scenario::BusyPollLoaded | Scenario::FirewallLoaded => 205.0,
                Scenario::IdsLight => 20.0,
                Scenario::DutyCycleLight => 5.0,
                Scenario::BusyPollIdle | Scenario::ParkedIdle => 0.0,
            }
        }

        /// 256-byte frames, or for the IDS box the §7.1 attack mix: 800-byte
        /// frames over 8192 flows, 1 % carrying a rule's pattern.
        fn traffic(self) -> Box<dyn TrafficGen> {
            match self {
                Scenario::IdsLight => {
                    let payloads = ids_rules().into_iter().map(|r| r.pattern).collect();
                    let base = FlowTrafficGen::new(8192, 800, 0.003, 1);
                    Box::new(AttackMixGen::new(base, 0.01, payloads, 1))
                }
                _ => Box::new(FixedSizeGen::new(256, 2)),
            }
        }
    }

    /// Builds the scenario's system.
    pub fn build(scenario: Scenario, rpus: usize) -> Harness {
        let sys: Rosebud = match scenario {
            Scenario::BusyPollLoaded | Scenario::BusyPollIdle => {
                let image = forwarder_image();
                Rosebud::builder(RosebudConfig::with_rpus(rpus))
                    .load_balancer(Box::new(RoundRobinLb::new()))
                    .firmware(move |_| RpuProgram::Riscv(image.clone()))
                    .build()
                    .expect("valid config")
            }
            Scenario::DutyCycleLight => {
                let image = assemble(&duty_cycle_forwarder_asm(2000))
                    .expect("duty-cycled forwarder assembles");
                Rosebud::builder(RosebudConfig::with_rpus(rpus))
                    .load_balancer(Box::new(RoundRobinLb::new()))
                    .firmware(move |_| RpuProgram::Riscv(image.clone()))
                    .build()
                    .expect("valid config")
            }
            Scenario::ParkedIdle => {
                let image = assemble("csrw mie, zero\nwfi\nebreak").expect("parks");
                Rosebud::builder(RosebudConfig::with_rpus(rpus))
                    .firmware(move |_| RpuProgram::Riscv(image.clone()))
                    .build()
                    .expect("valid config")
            }
            Scenario::FirewallLoaded => {
                // The paper's emerging-threats feed has 1050 entries.
                build_firewall_system(rpus, &synthetic_blacklist(1050, 1)).expect("valid config")
            }
            Scenario::IdsLight => {
                build_pigasus_system_with(ReorderMode::Hardware, ids_rules(), rpus, 16)
                    .expect("valid config")
            }
        };
        Harness::new(sys, scenario.traffic(), scenario.offered_gbps())
    }

    /// The IDS box's 128 rules.
    fn ids_rules() -> Vec<Rule> {
        synthetic_rules(128, 1)
    }

    /// Wall-clock nanoseconds per simulated cycle, min-of-`reps` after a
    /// warm-up — the min discards scheduler noise, which matters on the
    /// small shared runners CI uses.
    pub fn ns_per_cycle(h: &mut Harness, warmup: u64, cycles: u64, reps: usize) -> f64 {
        h.run(warmup);
        let mut best = f64::MAX;
        for _ in 0..reps {
            let t = Instant::now();
            h.run(cycles);
            best = best.min(t.elapsed().as_secs_f64());
        }
        best * 1e9 / cycles as f64
    }

    /// One sim-speed point: the speed, and where the box's time went.
    #[derive(Debug, Clone, Copy)]
    pub struct Point {
        /// Wall-clock ns per simulated cycle ([`ns_per_cycle`]).
        pub ns_per_cycle: f64,
        /// The box's own counters over the timed run, warm-up included.
        pub stats: SimStats,
        /// A profiled run of `cycles` after the timed ones.
        pub profile: StageProfile,
    }

    /// [`ns_per_cycle`], then the box's counters, then `cycles` more under
    /// the stage profile (which slows the tick it times, so it runs apart).
    pub fn point(h: &mut Harness, warmup: u64, cycles: u64, reps: usize) -> Point {
        let ns_per_cycle = ns_per_cycle(h, warmup, cycles, reps);
        let stats = h.sys.sim_stats();
        h.sys.profile_stages(Some(wall_ns));
        h.run(cycles);
        let profile = h.sys.sim_stats().profile.expect("profile on");
        h.sys.profile_stages(None);
        Point {
            ns_per_cycle,
            stats,
            profile,
        }
    }

    /// The stage profile's clock: wall nanoseconds since first use.
    pub fn wall_ns() -> u64 {
        static START: OnceLock<Instant> = OnceLock::new();
        START.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versus_formats_deviation() {
        let s = versus(110.0, 100.0);
        assert!(s.contains("+10.0%"), "{s}");
    }
}
