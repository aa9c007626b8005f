//! The value domain: one unsigned interval per register, its ALU transfer
//! function, and the narrowing a branch comparison buys on each edge.

use crate::cpu::alu;
use crate::isa::{AluOp, BranchOp, Reg};

use super::taint::Taint;

/// Abstract register value: an unsigned interval `[lo, hi]` (inclusive).
/// Constants are singleton intervals; `TOP` is `[0, u32::MAX]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Interval {
    lo: u32,
    hi: u32,
}

impl Interval {
    pub(super) const TOP: Interval = Interval {
        lo: 0,
        hi: u32::MAX,
    };

    pub(super) fn constant(c: u32) -> Self {
        Interval { lo: c, hi: c }
    }

    pub(super) fn as_const(self) -> Option<u32> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Whether the interval is bounded away from the full u32 range — the
    /// property a sanitizing mask or guard must establish.
    pub(super) fn bounded(self) -> bool {
        self.hi < u32::MAX
    }

    /// The address range `self + imm` as `(lowest, highest)`, or `None` when
    /// the offset wraps one endpoint past the other.
    pub(super) fn displaced(self, imm: i32) -> Option<(u32, u32)> {
        let lo = self.lo.wrapping_add(imm as u32);
        let hi = self.hi.wrapping_add(imm as u32);
        (lo <= hi).then_some((lo, hi))
    }

    fn join(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Standard interval widening: any bound still moving after the join
    /// threshold jumps straight to the lattice extreme, guaranteeing the
    /// fixpoint terminates.
    fn widen_to(self, next: Interval) -> Interval {
        Interval {
            lo: if next.lo < self.lo { 0 } else { next.lo },
            hi: if next.hi > self.hi { u32::MAX } else { next.hi },
        }
    }
}

/// The interval of every register. `x0` is pinned to the constant 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct RegIntervals([Interval; 32]);

impl RegIntervals {
    /// Nothing known about any register but `x0`.
    pub(super) fn unknown() -> Self {
        let mut regs = [Interval::TOP; 32];
        regs[0] = Interval::constant(0);
        RegIntervals(regs)
    }

    pub(super) fn get(&self, r: Reg) -> Interval {
        self.0[r.0 as usize]
    }

    pub(super) fn set(&mut self, r: Reg, v: Interval) {
        if r.0 != 0 {
            self.0[r.0 as usize] = v;
        }
    }

    /// Joins `other` in (widening when asked); `true` if anything moved.
    pub(super) fn join_from(&mut self, other: &RegIntervals, widen: bool) -> bool {
        let mut changed = false;
        for (mine, &theirs) in self.0.iter_mut().zip(&other.0) {
            let j = mine.join(theirs);
            let v = if widen { mine.widen_to(j) } else { j };
            if v != *mine {
                *mine = v;
                changed = true;
            }
        }
        changed
    }
}

/// Smallest all-ones mask covering `m` (e.g. `0x1234` -> `0x1fff`).
fn ones_cover(m: u32) -> u32 {
    if m == 0 {
        0
    } else {
        u32::MAX >> m.leading_zeros()
    }
}

/// Interval transfer function for the ALU. Constant-constant operands fold
/// exactly through the simulator's own [`alu`], so the abstract and
/// concrete semantics cannot drift for singletons.
pub(super) fn alu_interval(op: AluOp, a: Interval, b: Interval) -> Interval {
    if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
        return Interval::constant(alu(op, x, y));
    }
    match op {
        AluOp::Add => {
            let lo = u64::from(a.lo) + u64::from(b.lo);
            let hi = u64::from(a.hi) + u64::from(b.hi);
            if hi <= u64::from(u32::MAX) {
                Interval {
                    lo: lo as u32,
                    hi: hi as u32,
                }
            } else {
                Interval::TOP
            }
        }
        AluOp::Sub => {
            if a.lo >= b.hi {
                Interval {
                    lo: a.lo - b.hi,
                    hi: a.hi - b.lo,
                }
            } else {
                Interval::TOP
            }
        }
        AluOp::And => Interval {
            lo: 0,
            hi: a.hi.min(b.hi),
        },
        AluOp::Or => Interval {
            lo: a.lo.max(b.lo),
            hi: ones_cover(a.hi | b.hi),
        },
        AluOp::Xor => Interval {
            lo: 0,
            hi: ones_cover(a.hi | b.hi),
        },
        AluOp::Sll => match b.as_const() {
            Some(s) => {
                let s = s & 31;
                let hi = u64::from(a.hi) << s;
                if hi <= u64::from(u32::MAX) {
                    Interval {
                        lo: a.lo << s,
                        hi: hi as u32,
                    }
                } else {
                    Interval::TOP
                }
            }
            None => Interval::TOP,
        },
        AluOp::Srl => match b.as_const() {
            Some(s) => {
                let s = s & 31;
                Interval {
                    lo: a.lo >> s,
                    hi: a.hi >> s,
                }
            }
            None => Interval { lo: 0, hi: a.hi },
        },
        AluOp::Sra => {
            // Non-negative values shift like SRL; a possibly-negative value
            // smears sign bits and goes to TOP.
            if a.hi < 0x8000_0000 {
                match b.as_const() {
                    Some(s) => {
                        let s = s & 31;
                        Interval {
                            lo: a.lo >> s,
                            hi: a.hi >> s,
                        }
                    }
                    None => Interval { lo: 0, hi: a.hi },
                }
            } else {
                Interval::TOP
            }
        }
        AluOp::Slt | AluOp::Sltu => Interval { lo: 0, hi: 1 },
    }
}

/// Refines the register values along one branch edge: unsigned comparisons
/// narrow the operand intervals, and a comparison against a clean bounded
/// value sanitizes the compared register in `taint` (`bltu`/`bgeu` guard
/// idiom). Value-only: which registers are initialized is untouched.
pub(super) fn refine_branch(
    vals: &mut RegIntervals,
    taint: &mut Taint,
    op: BranchOp,
    rs1: Reg,
    rs2: Reg,
    taken: bool,
) {
    let i1 = vals.get(rs1);
    let i2 = vals.get(rs2);
    let t1 = taint.reg(rs1);
    let t2 = taint.reg(rs2);
    match (op, taken) {
        (BranchOp::Eq, true) | (BranchOp::Ne, false) => {
            // rs1 == rs2: both collapse to the meet.
            let lo = i1.lo.max(i2.lo);
            let hi = i1.hi.min(i2.hi);
            if lo <= hi {
                vals.set(rs1, Interval { lo, hi });
                vals.set(rs2, Interval { lo, hi });
            }
            // Equal to a clean value => the value is not attacker-chosen.
            if !t1 {
                taint.set_reg(rs2, false);
            }
            if !t2 {
                taint.set_reg(rs1, false);
            }
        }
        (BranchOp::Ltu, true) | (BranchOp::Geu, false) => {
            // rs1 < rs2 (unsigned).
            if i2.hi > 0 {
                let hi = i1.hi.min(i2.hi - 1);
                vals.set(
                    rs1,
                    Interval {
                        lo: i1.lo.min(hi),
                        hi,
                    },
                );
                if !t2 && i2.bounded() {
                    taint.set_reg(rs1, false);
                }
            }
            if i1.lo < u32::MAX {
                let lo = i2.lo.max(i1.lo + 1);
                vals.set(
                    rs2,
                    Interval {
                        lo,
                        hi: i2.hi.max(lo),
                    },
                );
            }
        }
        (BranchOp::Ltu, false) | (BranchOp::Geu, true) => {
            // rs1 >= rs2 (unsigned).
            let lo = i1.lo.max(i2.lo);
            vals.set(
                rs1,
                Interval {
                    lo,
                    hi: i1.hi.max(lo),
                },
            );
            let hi = i2.hi.min(i1.hi);
            vals.set(
                rs2,
                Interval {
                    lo: i2.lo.min(hi),
                    hi,
                },
            );
        }
        // Signed comparisons carry no unsigned-interval refinement.
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::fixtures::*;
    use proptest::prelude::*;

    /// Equality guards refine to constants: `beq` against a constant makes
    /// the value exact on the taken edge.
    #[test]
    fn equality_guard_refines_to_constant() {
        let r = check(
            devices(),
            "
                li t0, 0x02000000
                lw a0, 0x00(t0)        # unknown value
                li t1, 0x02000040
                beq a0, t1, hit
                ebreak
            hit:
                sw zero, 0(a0)         # a0 == 0x02000040 == TIMER_CMP here
                ebreak
            ",
        );
        // The store hits TIMER_CMP (writable), so there must be no MMIO
        // error on the refined path.
        assert!(
            !has(&r, Check::Mmio, Severity::Error),
            "{:#?}",
            r.diagnostics
        );
    }

    fn interval() -> impl Strategy<Value = Interval> {
        (any::<u32>(), any::<u32>()).prop_map(|(a, b)| Interval {
            lo: a.min(b),
            hi: a.max(b),
        })
    }

    /// `a ⊑ b` in the interval lattice: `b` contains `a`.
    fn leq(a: Interval, b: Interval) -> bool {
        b.lo <= a.lo && a.hi <= b.hi
    }

    proptest! {
        #[test]
        fn join_is_an_idempotent_monotone_upper_bound(
            a in interval(), b in interval(), c in interval()
        ) {
            prop_assert_eq!(a.join(a), a);
            prop_assert_eq!(a.join(b), b.join(a));
            prop_assert!(leq(a, a.join(b)) && leq(b, a.join(b)));
            if leq(a, b) {
                prop_assert!(leq(a.join(c), b.join(c)));
            }
            // Growing an operand never shrinks the join.
            prop_assert!(leq(a.join(c), a.join(b).join(c)));
        }

        #[test]
        fn widening_covers_the_join_and_is_idempotent_and_monotone(
            a in interval(), b in interval(), c in interval()
        ) {
            let j = a.join(b);
            let w = a.widen_to(j);
            prop_assert!(leq(j, w), "widening lost part of the join");
            // A second visit with the same input moves nothing.
            prop_assert_eq!(w.widen_to(w.join(b)), w);
            prop_assert_eq!(a.widen_to(a), a);
            // A larger next state widens to a larger result.
            let j2 = j.join(c);
            prop_assert!(leq(w, a.widen_to(j2)));
        }

        /// A bound that moves goes to the extreme at once, so a chain of
        /// widenings from any start settles after two steps per bound.
        #[test]
        fn widening_chains_are_short(a in interval(), steps in proptest::collection::vec(interval(), 1..8)) {
            let mut cur = a;
            let mut moves = 0;
            for s in steps {
                let next = cur.widen_to(cur.join(s));
                if next != cur {
                    moves += 1;
                }
                cur = next;
            }
            prop_assert!(moves <= 2, "{moves} moves");
        }
    }
}
