//! Property test for the taint analysis: generated DMA firmware whose
//! packet-derived length passes through a random (taint-preserving) op chain
//! is denied, and the same program with a mask or bounds-guard sanitizer
//! inserted passes clean — across random chains, masks, and guard limits.

#[path = "../crates/riscv/tests/gen/mod.rs"]
mod gen;

use gen::{Contract, Sanitizer};
use proptest::prelude::*;
use rosebud::core::{machine_spec, RosebudConfig};
use rosebud::riscv::{assemble, Analyzer, Check, LintReport, Severity};

fn check(src: &str) -> LintReport {
    let analyzer = Analyzer::new(machine_spec(&RosebudConfig::with_rpus(1)));
    analyzer.check(&assemble(src).expect("generated program must assemble"))
}

fn taint_errors(report: &LintReport) -> usize {
    report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error && d.check == Check::Taint)
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mask-sanitized programs pass; their unsanitized twins are denied.
    #[test]
    fn mask_sanitized_passes_and_unsanitized_twin_fails(
        program in gen::dma(0..6, Sanitizer::Mask),
    ) {
        let src = program.asm(Contract::Keep);
        let sanitized = check(&src);
        prop_assert!(
            !sanitized.has_errors(),
            "mask-sanitized program must pass:\n{}{src}",
            sanitized.render("sanitized")
        );
        let src = program.asm(Contract::Break);
        let twin = check(&src);
        prop_assert!(
            taint_errors(&twin) > 0,
            "unsanitized twin must be denied:\n{}{src}",
            twin.render("twin")
        );
    }

    /// Bounds-guard sanitization (`bgeu` against a clean limit) also clears
    /// the taint on the guarded edge.
    #[test]
    fn guard_sanitized_passes_and_unsanitized_twin_fails(
        program in gen::dma(0..6, Sanitizer::Guard),
    ) {
        let src = program.asm(Contract::Keep);
        let guarded = check(&src);
        prop_assert!(
            taint_errors(&guarded) == 0,
            "guard-sanitized program must have no taint errors:\n{}{src}",
            guarded.render("guarded")
        );
        let src = program.asm(Contract::Break);
        let twin = check(&src);
        prop_assert!(
            taint_errors(&twin) > 0,
            "unsanitized twin must be denied:\n{}{src}",
            twin.render("twin")
        );
    }
}
