//! The simulation clock.

/// A cycle index. The whole Rosebud design runs in a single 250 MHz domain
/// (paper §5: "We are able to meet timing at 250 MHz for all designs"), so a
/// single monotone counter suffices.
pub type Cycle = u64;

/// A monotone cycle counter, starting at cycle zero.
///
/// # Examples
///
/// ```
/// use rosebud_kernel::Clock;
/// let mut clock = Clock::default();
/// clock.tick();
/// clock.advance(249_999);
/// assert_eq!(clock.cycle(), 250_000); // 1 ms at 250 MHz
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Clock {
    cycle: Cycle,
}

impl Clock {
    /// The current cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Advances the clock by one cycle.
    pub fn tick(&mut self) {
        self.cycle += 1;
    }

    /// Advances the clock by `cycles`.
    pub fn advance(&mut self, cycles: Cycle) {
        self.cycle += cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        let mut clock = Clock::default();
        clock.tick();
        clock.advance(3);
        assert_eq!(clock.cycle(), 4);
    }
}
