//! Property test for the analyzer's WCET model: for generated straight-line
//! and single-loop programs with calls, the static bound must dominate the
//! cycles an actual ISS run takes — across random instruction mixes,
//! operand values, and loop trip counts.

#[path = "../crates/riscv/tests/gen/mod.rs"]
mod gen;

use proptest::prelude::*;
use rosebud::riscv::{assemble, Analyzer, Cpu, MachineSpec, RamBus, StepResult};

const RAM_BYTES: u32 = 65536;

fn analyzer() -> Analyzer {
    Analyzer::new(MachineSpec::bare(4096, RAM_BYTES))
}

/// Runs `src` on the ISS until `ebreak`, returning measured cycles.
fn simulate(src: &str) -> u64 {
    let image = assemble(src).expect("generated program must assemble");
    let mut bus = RamBus::new(RAM_BYTES as usize);
    bus.load_image(0, image.words());
    let mut cpu = Cpu::new(0);
    let mut steps = 0u64;
    loop {
        match cpu.step(&mut bus) {
            StepResult::Break => return cpu.cycles(),
            StepResult::Fault(f) => panic!("generated program faulted: {f:?}\n{src}"),
            _ => {}
        }
        steps += 1;
        assert!(
            steps < 1_000_000,
            "generated program did not terminate:\n{src}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Straight-line programs, calls included: the acyclic path bound is
    /// the whole story.
    #[test]
    fn straight_line_bound_dominates_simulation(code in gen::code(1..24, 0..1)) {
        let src = code.0;
        let report = analyzer().check(&assemble(&src).unwrap());
        prop_assert!(!report.has_errors(), "{}\n{src}", report.render("generated"));
        let bound = report.wcet[0].acyclic_cycles;
        let measured = simulate(&src);
        prop_assert!(
            bound >= measured,
            "static bound {bound} < simulated {measured} cycles:\n{src}"
        );
    }

    /// Single counted loops: acyclic path + (iters − 1) × per-iteration
    /// bound must cover the run. The `-1` is because the bound's acyclic
    /// part already walks the loop body once.
    #[test]
    fn counted_loop_bound_dominates_simulation(code in gen::code(1..10, 1..200)) {
        let (src, iters) = code;
        let report = analyzer().check(&assemble(&src).unwrap());
        prop_assert!(!report.has_errors(), "{}\n{src}", report.render("generated"));
        let w = &report.wcet[0];
        prop_assert_eq!(w.loops.len(), 1, "{}", src);
        let bound = w.acyclic_cycles + u64::from(iters - 1) * w.loops[0].cycles_per_iter;
        let measured = simulate(&src);
        prop_assert!(
            bound >= measured,
            "static bound {bound} < simulated {measured} cycles ({iters} iters):\n{src}"
        );
    }
}
