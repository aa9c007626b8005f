//! The taint domain: which registers and which data-memory words may hold
//! unsanitized packet bytes.

use std::collections::BTreeSet;

use crate::isa::{AluOp, Reg};

use super::interval::Interval;

/// Cap on the tracked set of tainted data-memory words; stores past the cap
/// are simply not recorded (a sound under-approximation for a *linter*:
/// fewer taint findings, never a spurious one).
const MEM_TAINT_CAP: usize = 64;

#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(super) struct Taint {
    /// Bit `r` set = register `r` holds unsanitized packet bytes.
    regs: u32,
    /// Word addresses in data memory holding tainted packet bytes
    /// (constant-address stores only; see [`MEM_TAINT_CAP`]).
    mem: BTreeSet<u32>,
}

impl Taint {
    pub(super) fn reg(&self, r: Reg) -> bool {
        self.regs & (1u32 << r.0) != 0
    }

    pub(super) fn set_reg(&mut self, r: Reg, tainted: bool) {
        if r.0 != 0 {
            if tainted {
                self.regs |= 1u32 << r.0;
            } else {
                self.regs &= !(1u32 << r.0);
            }
        }
    }

    /// Whether a load from constant data-memory address `addr` reads
    /// tainted bytes.
    pub(super) fn mem(&self, addr: u32) -> bool {
        self.mem.contains(&(addr & !3))
    }

    /// A store of `bytes` bytes to constant data-memory address `addr`.
    pub(super) fn store_mem(&mut self, addr: u32, bytes: u32, value_tainted: bool) {
        let word = addr & !3;
        if value_tainted {
            if self.mem.len() < MEM_TAINT_CAP || self.mem.contains(&word) {
                self.mem.insert(word);
            }
        } else if bytes == 4 {
            // A full-word clean store is a strong update; partial stores
            // leave the rest of the word tainted.
            self.mem.remove(&word);
        }
    }

    /// Joins `other` in; `true` if anything moved.
    pub(super) fn join_from(&mut self, other: &Taint) -> bool {
        let regs = self.regs | other.regs;
        let mut changed = regs != self.regs;
        self.regs = regs;
        for &a in &other.mem {
            changed |= self.mem.insert(a);
        }
        changed
    }
}

/// Taint transfer for an ALU op: AND with a clean bounded mask sanitizes,
/// comparison results are bounded booleans, everything else unions.
pub(super) fn alu_taint(op: AluOp, a: Interval, ta: bool, b: Interval, tb: bool) -> bool {
    match op {
        AluOp::Slt | AluOp::Sltu => false,
        AluOp::And => {
            let a_masks = !ta && a.bounded();
            let b_masks = !tb && b.bounded();
            if a_masks || b_masks {
                false
            } else {
                ta || tb
            }
        }
        _ => ta || tb,
    }
}

#[cfg(test)]
mod tests {
    use crate::analyze::fixtures::*;

    #[test]
    fn tainted_dma_len_is_error() {
        let r = check(
            proto_devices(),
            "
                li t0, 0x02000000
                li t1, 0x01000000
                lw a0, 0(t1)           # packet bytes
                sw a0, 0x4c(t0)        # straight into DMA_LEN
                ebreak
            ",
        );
        assert!(
            has(&r, Check::Taint, Severity::Error),
            "{:#?}",
            r.diagnostics
        );
    }

    #[test]
    fn masked_dma_len_is_clean() {
        let r = check(
            proto_devices(),
            "
                li t0, 0x02000000
                li t1, 0x01000000
                lw a0, 0(t1)
                andi a0, a0, 0x3ff     # mask sanitizes the length
                sw a0, 0x4c(t0)
                ebreak
            ",
        );
        assert!(
            !has(&r, Check::Taint, Severity::Error),
            "{:#?}",
            r.diagnostics
        );
    }

    #[test]
    fn bounds_guard_sanitizes_dma_len() {
        let r = check(
            proto_devices(),
            "
                li t0, 0x02000000
                li t1, 0x01000000
                lw a0, 0(t1)
                li t2, 1024
                bltu a0, t2, ok        # guard proves a0 < 1024 on this edge
                ebreak
            ok:
                sw a0, 0x4c(t0)
                ebreak
            ",
        );
        assert!(
            !has(&r, Check::Taint, Severity::Error),
            "{:#?}",
            r.diagnostics
        );
    }

    #[test]
    fn unguarded_twin_is_flagged() {
        // Same program as above minus the guard: the taint must survive.
        let r = check(
            proto_devices(),
            "
                li t0, 0x02000000
                li t1, 0x01000000
                lw a0, 0(t1)
                sw a0, 0x4c(t0)
                ebreak
            ",
        );
        assert!(
            has(&r, Check::Taint, Severity::Error),
            "{:#?}",
            r.diagnostics
        );
    }

    #[test]
    fn tainted_indirect_jump_is_error() {
        let r = check(
            proto_devices(),
            "
                li t1, 0x01000000
                lw a0, 0(t1)
                jr a0                  # packet bytes pick the target
            ",
        );
        assert!(
            has(&r, Check::Taint, Severity::Error),
            "{:#?}",
            r.diagnostics
        );
    }

    #[test]
    fn tainted_loop_bound_warns() {
        let r = check(
            proto_devices(),
            "
                li t1, 0x01000000
                lw a0, 0(t1)           # packet-controlled counter
                li a1, 0
            loop:
                addi a1, a1, 1
                sw zero, 0x40(t1)      # (pmem store: keeps watchdog quiet? no)
                bltu a1, a0, loop
                ebreak
            ",
        );
        assert!(
            has(&r, Check::Taint, Severity::Warning),
            "{:#?}",
            r.diagnostics
        );
    }

    #[test]
    fn taint_flows_through_memory() {
        let r = check(
            proto_devices(),
            "
                li t0, 0x02000000
                li t1, 0x01000000
                li t2, 0x00800000
                lw a0, 0(t1)           # packet bytes
                sw a0, 0(t2)           # spill to dmem
                lw a1, 0(t2)           # reload: still tainted
                sw a1, 0x4c(t0)
                ebreak
            ",
        );
        assert!(
            has(&r, Check::Taint, Severity::Error),
            "{:#?}",
            r.diagnostics
        );
    }

    #[test]
    fn clean_store_clears_memory_taint() {
        let r = check(
            proto_devices(),
            "
                li t0, 0x02000000
                li t1, 0x01000000
                li t2, 0x00800000
                lw a0, 0(t1)
                sw a0, 0(t2)           # taint the slot
                sw zero, 0(t2)         # strong update with a clean word
                lw a1, 0(t2)
                sw a1, 0x4c(t0)
                ebreak
            ",
        );
        assert!(
            !has(&r, Check::Taint, Severity::Error),
            "{:#?}",
            r.diagnostics
        );
    }
}
