//! `rosebud-verify`: static firmware analysis over assembled images.
//!
//! The paper's pitch is that middlebox development gets pleasant when
//! firmware bugs are caught *before* they hit hardware; until now the only
//! way to learn that an image touches a bogus MMIO address, never pets the
//! watchdog, or blows its cycle budget was to simulate it and watch the
//! supervisor evict it. This module closes that gap: it reconstructs a
//! control-flow graph from an assembled [`Image`] (reusing the
//! [`DecodeCache`] predecoder), runs an abstract interpretation over
//! registers, and reports structured diagnostics plus a per-entry-point
//! worst-case execution time bound derived from the same [`CostModel`] the
//! simulator charges.
//!
//! The checks:
//!
//! 1. **MMIO validity** — every load/store whose abstract address resolves
//!    into the device window must hit a register the machine map defines,
//!    with the read/write direction checked.
//! 2. **Watchdog liveness** — every cycle in the CFG's loop nest must
//!    contain a watchdog-pet store or a `wfi`, else the firmware is a
//!    supervisor-eviction hazard under a watchdog policy.
//! 3. **Uninitialized registers and stack bounds** — reads of registers no
//!    path has written, and `sp`-relative accesses outside the configured
//!    stack region.
//! 4. **Illegal/unreachable code** — reachable words that do not decode
//!    (or fall off the image), and decodable but dead blocks.
//! 5. **Per-path WCET** — a cycle bound per entry point: the longest
//!    acyclic path plus a worst-case bound per loop iteration.
//!
//! Known-imprecise cases are documented on [`Analyzer::check`].
//!
//! The analyzer is a pipeline of passes, one per file, each a function over
//! the typed result of the ones before it: [`cfg::build`] →
//! [`absint::solve`] → [`absint::report`] → [`watchdog::check`] →
//! [`wcet::bound`]. The abstract state the middle two run on is the product
//! of four domains (`interval`, `init`, `taint`, `protocol`), each private
//! to its file. DESIGN.md, "Static firmware analysis", has the tables.
//!
//! # Examples
//!
//! ```
//! use rosebud_riscv::{assemble, Analyzer, MachineSpec};
//!
//! let image = assemble("
//!         li a0, 5
//!     loop:
//!         addi a0, a0, -1
//!         bnez a0, loop
//!         ebreak
//! ").unwrap();
//! let report = Analyzer::new(MachineSpec::bare(4096, 65536)).check(&image);
//! assert!(!report.has_errors());
//! assert_eq!(report.wcet.len(), 1);
//! ```

mod absint;
mod cfg;
#[cfg(test)]
mod fixtures;
mod init;
mod interval;
mod protocol;
mod report;
mod spec;
mod state;
mod taint;
mod watchdog;
mod wcet;

use std::collections::BTreeMap;

use crate::asm::Image;
use crate::icache::DecodeCache;

pub use report::{Check, Diagnostic, EntryWcet, LintReport, LoopBound, Severity};
pub use spec::{MachineSpec, MmioReg, ProtocolSpec, Region};

/// The static firmware analyzer. Construct with a [`MachineSpec`], then
/// [`Analyzer::check`] any number of images.
#[derive(Debug, Clone)]
pub struct Analyzer {
    spec: MachineSpec,
}

impl Analyzer {
    /// Creates an analyzer for the given machine.
    pub fn new(spec: MachineSpec) -> Self {
        Analyzer { spec }
    }

    /// Runs every check over `image` and returns the report.
    ///
    /// Known-imprecise cases (documented deliberately — the analyzer is a
    /// linter, not a verifier):
    ///
    /// * Indirect jumps (`jalr`, `mret`) are not followed; they end their
    ///   block with a `flow` warning, so code only reachable through them
    ///   may additionally be reported as dead.
    /// * Memory checks fire only when the address is a compile-time
    ///   constant after abstract interpretation; accesses through
    ///   data-dependent pointers (e.g. descriptor-carried slot addresses)
    ///   are charged worst-case wait-states but not range-checked.
    /// * `.word`/`.byte` data inside the text section is indistinguishable
    ///   from code: unreachable data that happens to decode is reported as
    ///   dead code.
    /// * WCET assumes no interrupt service (asynchronous traps are charged
    ///   to the handler's own entry, not the interrupted path) and charges
    ///   every unknown-address access worst-case wait-states.
    pub fn check(&self, image: &Image) -> LintReport {
        let spec = &self.spec;
        // Predecode the whole image once; the same predecoder warms the
        // simulator's decode cache, so "decodes here" and "decodes there"
        // cannot drift apart.
        let mut dc = DecodeCache::new(spec.imem_bytes as usize);
        dc.predecode(image.base(), image.words());

        // Entry points: the boot PC, plus any trap vector installed via a
        // constant `csrw mtvec`. Trap vectors are discovered by the
        // abstract interpretation, so the front of the pipeline reruns
        // until the entry set is stable (bounded: each round can only add
        // vectors).
        let mut entries: BTreeMap<u32, bool> = BTreeMap::new(); // pc -> is_trap
        entries.insert(image.base(), false);
        loop {
            let (cfg, mut diagnostics) = cfg::build(image, &dc, &spec.cost, &entries);
            let states = absint::solve(spec, &cfg);
            let (found, facts) = absint::report(spec, &cfg, &states);
            let known = entries.len();
            for &v in &facts.trap_vectors {
                if dc.covers(v) {
                    entries.entry(v).or_insert(true);
                }
            }
            if entries.len() > known {
                continue;
            }
            diagnostics.extend(found);
            diagnostics.extend(watchdog::check(spec, &cfg, &facts));
            let (wcet, found) = wcet::bound(spec, &cfg, &facts);
            diagnostics.extend(found);
            diagnostics.sort_by_key(|d| (d.pc, d.path.len(), d.message.clone()));
            return LintReport { diagnostics, wcet };
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::analyze::fixtures::*;

    #[test]
    fn clean_program_has_no_findings() {
        let r = check(
            MachineSpec::bare(4096, 65536),
            "
                li a0, 3
                li a1, 4
                add a2, a0, a1
                ebreak
            ",
        );
        assert!(r.diagnostics.is_empty(), "{:#?}", r.diagnostics);
        assert_eq!(r.wcet.len(), 1);
        // li+li+add+ebreak = 1+1+1+1 under the default cost model.
        assert_eq!(r.wcet[0].acyclic_cycles, 4);
    }

    #[test]
    fn diagnostics_carry_a_path_witness() {
        let r = check(
            devices(),
            "
                li t0, 0x02000000
                li a0, 1
                beqz a0, other
                sw zero, 0x00(t0)   # read-only register
                ebreak
            other:
                ebreak
            ",
        );
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.check == Check::Mmio)
            .expect("mmio error");
        assert!(!d.path.is_empty());
        assert_eq!(d.path[0], 0, "witness starts at the entry block");
    }

    #[test]
    fn trap_vector_becomes_an_entry_point() {
        let r = check(
            MachineSpec::bare(4096, 65536),
            "
                la t0, handler
                csrw mtvec, t0
            idle:
                j idle
            handler:
                mret
            ",
        );
        // The handler is not dead, and it gets its own WCET entry.
        assert!(
            !has(&r, Check::Dead, Severity::Warning),
            "{:#?}",
            r.diagnostics
        );
        assert_eq!(r.wcet.len(), 2);
    }
}
