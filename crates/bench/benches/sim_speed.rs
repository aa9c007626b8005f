//! Sim speed: wall-clock ns per simulated cycle, swept over RPU counts and
//! the five workload shapes of [`rosebud_bench::sim_speed::Scenario`], with
//! where the box's time went: the share of cycles taken quiet, of
//! lane-cycles parked in a poll loop, of instructions stepped rather than
//! credited, and the ISS's share of a tick from the stage profile (whose
//! per-stage ns are printed under each 16-RPU row).
//!
//! Run with: `cargo bench --bench sim_speed`

use rosebud_bench::heading;
use rosebud_bench::sim_speed::{build, point, Scenario};
use rosebud_core::STAGE_NAMES;

fn main() {
    heading("sim speed (ns per simulated cycle)");
    println!(
        "{:<18} {:>5} {:>8} {:>8} {:>8} {:>9} {:>6} {:>10}",
        "scenario", "rpus", "ns/cyc", "quiet%", "parked%", "stepped%", "iss%", "ns/instr"
    );
    for scenario in Scenario::ALL {
        for rpus in [1usize, 4, 8, 16] {
            let p = point(&mut build(scenario, rpus), 10_000, 150_000, 5);
            println!(
                "{:<18} {:>5} {:>8.0} {:>8.2} {:>8.2} {:>9.2} {:>6.1} {:>10.1}",
                scenario.name(),
                rpus,
                p.ns_per_cycle,
                100.0 * p.stats.quiet_share(),
                100.0 * p.stats.parked_share(),
                100.0 * p.stats.stepped_instr_share(),
                100.0 * p.profile.iss_share(),
                p.profile.ns_per_stepped_instr(),
            );
            if rpus == 16 {
                let stages: Vec<String> = STAGE_NAMES
                    .iter()
                    .enumerate()
                    .map(|(i, name)| format!("{name} {:.0}", p.profile.ns_per_cycle(i)))
                    .collect();
                println!("{:>24} ns per full tick: {}", "", stages.join(", "));
            }
        }
    }
}
