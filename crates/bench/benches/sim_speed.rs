//! Sim speed: wall-clock ns per simulated cycle, swept over RPU counts and
//! the four workload shapes of [`rosebud_bench::sim_speed::Scenario`].
//!
//! Run with: `cargo bench --bench sim_speed`

use rosebud_bench::heading;
use rosebud_bench::sim_speed::{build, ns_per_cycle, Scenario};

fn main() {
    heading("sim speed (ns per simulated cycle)");
    println!("{:<18} {:>5} {:>12}", "scenario", "rpus", "ns/cyc");
    for scenario in Scenario::ALL {
        for rpus in [1usize, 4, 8, 16] {
            let ns = ns_per_cycle(&mut build(scenario, rpus), 10_000, 150_000, 5);
            println!("{:<18} {:>5} {:>12.0}", scenario.name(), rpus, ns);
        }
    }
}
