//! Pass 4: watchdog liveness over the loop nest. Every cycle of the CFG
//! must contain a block that pets the watchdog or sleeps.

use std::collections::BTreeSet;

use super::absint::Facts;
use super::cfg::{find_cycle, sccs, Cfg};
use super::report::{Check, Diagnostic, Severity};
use super::spec::MachineSpec;

pub(super) fn check(spec: &MachineSpec, cfg: &Cfg, facts: &Facts) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if spec.watchdog_pet_offset.is_none() {
        return diags;
    }
    for scc in sccs(&cfg.blocks) {
        let cyclic = scc.len() > 1 || cfg.blocks[&scc[0]].succs.iter().any(|&(s, _)| s == scc[0]);
        if !cyclic {
            continue;
        }
        // Remove every block that pets or sleeps; if a cycle
        // survives, that cycle can starve the watchdog forever.
        let residual: BTreeSet<u32> = scc.iter().copied().filter(|&b| !facts.pets(b)).collect();
        if let Some(cycle) = find_cycle(&cfg.blocks, &residual) {
            let at = cycle[0];
            diags.push(Diagnostic {
                severity: Severity::Warning,
                check: Check::Watchdog,
                pc: at,
                message: format!(
                    "loop at 0x{at:08x}{} can spin forever without petting \
                     the watchdog or sleeping (wfi); a supervisor watchdog \
                     policy would evict this firmware",
                    cfg.label_suffix(at)
                ),
                path: cycle,
            });
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use crate::analyze::fixtures::*;

    #[test]
    fn watchdog_starving_loop_is_flagged() {
        let r = check(
            devices(),
            "
                li t0, 0x02000000
            poll:
                lw a0, 0x00(t0)
                beqz a0, poll
                ebreak
            ",
        );
        assert!(has(&r, Check::Watchdog, Severity::Warning));
        // Petting inside the loop clears it.
        let r = check(
            devices(),
            "
                li t0, 0x02000000
                li t1, 1000
            poll:
                sw t1, 0x40(t0)
                lw a0, 0x00(t0)
                beqz a0, poll
                ebreak
            ",
        );
        assert!(!has(&r, Check::Watchdog, Severity::Warning));
        // Sleeping (wfi) also counts as liveness.
        let r = check(
            devices(),
            "
            park:
                wfi
                j park
            ",
        );
        assert!(!has(&r, Check::Watchdog, Severity::Warning));
    }

    #[test]
    fn watchdog_flags_inner_loop_that_never_pets() {
        // The outer loop pets, but the inner drain loop can spin forever.
        let r = check(
            devices(),
            "
                li t0, 0x02000000
                li t1, 1000
            outer:
                sw t1, 0x40(t0)
            inner:
                lw a0, 0x00(t0)
                bnez a0, inner
                j outer
            ",
        );
        assert!(has(&r, Check::Watchdog, Severity::Warning));
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.check == Check::Watchdog)
            .unwrap();
        assert_eq!(d.pc, 16, "should point at the inner loop header");
    }
}
