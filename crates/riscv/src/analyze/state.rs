//! The abstract machine state: the product of the four domains. Each
//! component keeps its representation and its join in its own file; this
//! file only pairs them up.

use crate::isa::Reg;

use super::init::RegInit;
use super::interval::{Interval, RegIntervals};
use super::protocol::Typestate;
use super::taint::Taint;

#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct AbsState {
    pub(super) vals: RegIntervals,
    pub(super) init: RegInit,
    pub(super) taint: Taint,
    pub(super) proto: Typestate,
}

impl AbsState {
    /// Boot entry: only `x0` is defined; every automaton is at rest.
    pub(super) fn boot() -> Self {
        AbsState {
            vals: RegIntervals::unknown(),
            init: RegInit::boot(),
            taint: Taint::default(),
            proto: Typestate::boot(),
        }
    }

    /// Trap entry: the interrupted context's registers are all live, and
    /// the interrupt may fire at any point of the protocol.
    pub(super) fn trap() -> Self {
        AbsState {
            vals: RegIntervals::unknown(),
            init: RegInit::trap(),
            taint: Taint::default(),
            proto: Typestate::trap(),
        }
    }

    /// Joins `other` in component-wise, widening the intervals when asked;
    /// `true` if anything moved.
    pub(super) fn join_from(&mut self, other: &AbsState, widen: bool) -> bool {
        let vals = self.vals.join_from(&other.vals, widen);
        let init = self.init.join_from(&other.init);
        let taint = self.taint.join_from(&other.taint);
        let proto = self.proto.join_from(&other.proto);
        vals | init | taint | proto
    }

    pub(super) fn get(&self, r: Reg) -> Interval {
        self.vals.get(r)
    }

    /// Writes `r`: a new value, and the register is initialized from here on.
    pub(super) fn set(&mut self, r: Reg, v: Interval) {
        if r.0 != 0 {
            self.vals.set(r, v);
            self.init.mark_written(r);
        }
    }
}
