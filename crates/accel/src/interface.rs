//! The accelerator interface: MMIO registers plus a per-cycle tick.

/// FPGA resources a component occupies, for regenerating the paper's
/// utilization tables (Tables 1–4). Units match Vivado's report: LUTs,
/// flip-flop registers, BRAM36 blocks, URAM blocks, DSP slices.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceUsage {
    /// Look-up tables.
    pub luts: u32,
    /// Flip-flop registers.
    pub regs: u32,
    /// 36 Kb block RAMs.
    pub bram: u32,
    /// 288 Kb UltraRAMs.
    pub uram: u32,
    /// DSP48 slices.
    pub dsp: u32,
}

impl ResourceUsage {
    /// Component-wise sum.
    pub fn plus(self, other: ResourceUsage) -> ResourceUsage {
        ResourceUsage {
            luts: self.luts + other.luts,
            regs: self.regs + other.regs,
            bram: self.bram + other.bram,
            uram: self.uram + other.uram,
            dsp: self.dsp + other.dsp,
        }
    }

    /// Component-wise scaling by an integer count.
    pub fn times(self, n: u32) -> ResourceUsage {
        ResourceUsage {
            luts: self.luts * n,
            regs: self.regs * n,
            bram: self.bram * n,
            uram: self.uram * n,
            dsp: self.dsp * n,
        }
    }
}

/// Result of an MMIO register read: the value plus wait-states charged to
/// the core (non-blocking reads return 0 wait; blocking reads on a busy
/// accelerator stall, paper A.2: "we provide examples for both blocking or
/// non-blocking read and writes").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegRead {
    /// The register value.
    pub value: u32,
    /// Extra cycles the core stalls for this access.
    pub wait_cycles: u32,
}

impl RegRead {
    /// A read with no wait-states.
    pub fn fast(value: u32) -> Self {
        Self {
            value,
            wait_cycles: 0,
        }
    }
}

/// A hardware accelerator hosted inside an RPU.
///
/// The RISC-V core talks to accelerators through memory-mapped registers
/// (paper §3.3: "the memory interface between the core and the
/// accelerators"); the accelerator additionally gets one exclusive port to
/// the RPU's shared packet memory, modelled by the `pmem` slice passed to
/// [`tick`](Accelerator::tick).
///
/// Accelerators are `Send` so a system hosting them can be handed to
/// another thread whole. They are never shared — exactly one thread ticks a
/// system — so `Sync` is not required.
///
/// An RPU whose core sleeps (in `wfi`, or parked in a proven poll loop)
/// stops ticking an accelerator that says, through
/// [`horizon`](Accelerator::horizon), that its coming ticks change nothing
/// [`skip`](Accelerator::skip) cannot reproduce, and brings it forward with
/// one `skip` when the lane wakes. Override both methods or neither: the
/// defaults (horizon 0, a `skip` that does nothing) tick the accelerator
/// every cycle, which is always correct.
pub trait Accelerator: Send {
    /// A short name for debug output and resource tables.
    fn name(&self) -> &str;

    /// Reads the register at byte `offset` within the accelerator's MMIO
    /// window (the paper maps these at `IO_EXT_BASE`).
    fn read_reg(&mut self, offset: u32) -> RegRead;

    /// Writes the register at byte `offset`.
    fn write_reg(&mut self, offset: u32, value: u32);

    /// Advances one clock cycle. `pmem` is the RPU's shared packet memory,
    /// read through the accelerator's dedicated URAM port (§4.1).
    fn tick(&mut self, pmem: &[u8]);

    /// `true` while the accelerator is processing (used by the eviction
    /// drain before partial reconfiguration, Appendix A.8).
    fn is_busy(&self) -> bool;

    /// Loads `data` into accelerator-local table memory at `offset` — the
    /// runtime-writable lookup tables Rosebud added to Pigasus (§7.1.2).
    fn load_table(&mut self, offset: u32, data: &[u8]);

    /// Resets all state (RPU reboot after partial reconfiguration).
    fn reset(&mut self);

    /// FPGA resources this accelerator would occupy.
    fn resources(&self) -> ResourceUsage;

    /// How many coming ticks change nothing but what [`skip`] reproduces,
    /// given that no register access, table load or reset comes first:
    /// `u64::MAX` for an accelerator that idles until the core asks it
    /// something. The default, 0, means "tick me every cycle".
    ///
    /// [`skip`]: Accelerator::skip
    fn horizon(&self) -> u64 {
        0
    }

    /// Stands in for `k` ticks, `k` at most [`horizon`], in closed form:
    /// afterwards every register read (value and wait-states), later tick,
    /// [`is_busy`] and [`horizon`] answer as after `k` calls to [`tick`].
    /// With the default horizon of 0 there is nothing to stand in for.
    ///
    /// [`horizon`]: Accelerator::horizon
    /// [`is_busy`]: Accelerator::is_busy
    /// [`tick`]: Accelerator::tick
    fn skip(&mut self, k: u64) {
        let _ = k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_arithmetic() {
        let a = ResourceUsage {
            luts: 10,
            regs: 20,
            bram: 1,
            uram: 2,
            dsp: 0,
        };
        let b = a.times(3).plus(a);
        assert_eq!(b.luts, 40);
        assert_eq!(b.uram, 8);
    }
}
