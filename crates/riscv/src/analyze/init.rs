//! The initialization domain: whether each register has been written on
//! no, some, or all paths reaching a point.

use crate::isa::Reg;

/// Written on no / some / all paths. Also the answer protocol checks give
/// for "was this DMA parameter programmed".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Init {
    No,
    Maybe,
    Yes,
}

impl Init {
    pub(super) fn join(self, other: Init) -> Init {
        match (self, other) {
            (Init::Yes, Init::Yes) => Init::Yes,
            (Init::No, Init::No) => Init::No,
            _ => Init::Maybe,
        }
    }
}

/// The [`Init`] state of every register. `x0` is always written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct RegInit([Init; 32]);

impl RegInit {
    /// Boot entry: only `x0` is defined.
    pub(super) fn boot() -> Self {
        let mut regs = [Init::No; 32];
        regs[0] = Init::Yes;
        RegInit(regs)
    }

    /// Trap entry: the interrupted context's registers are all live.
    pub(super) fn trap() -> Self {
        RegInit([Init::Yes; 32])
    }

    pub(super) fn get(&self, r: Reg) -> Init {
        self.0[r.0 as usize]
    }

    pub(super) fn mark_written(&mut self, r: Reg) {
        self.0[r.0 as usize] = Init::Yes;
    }

    /// Joins `other` in; `true` if anything moved.
    pub(super) fn join_from(&mut self, other: &RegInit) -> bool {
        let mut changed = false;
        for (mine, &theirs) in self.0.iter_mut().zip(&other.0) {
            let t = mine.join(theirs);
            if t != *mine {
                *mine = t;
                changed = true;
            }
        }
        changed
    }
}
