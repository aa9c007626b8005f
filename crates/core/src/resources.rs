//! The FPGA resource model regenerating the paper's utilization tables.
//!
//! Synthesis cannot run in this reproduction, so per-component resource
//! costs are parametric formulas calibrated against the paper's published
//! Vivado reports (Tables 1–4 for the XCVU9P). The *structure* — what scales
//! with RPU count, what is fixed, how much PR head-room each layout leaves —
//! is the reproducible content; the constants are anchored to the paper.

use rosebud_accel::ResourceUsage;

/// Total resources of the XCVU9P device (the last row of Tables 1 and 2).
pub const VU9P: ResourceUsage = ResourceUsage {
    luts: 1_182_240,
    regs: 2_364_480,
    bram: 2_160,
    uram: 960,
    dsp: 6_840,
};

/// Resource model of the Rosebud framework's static components for a layout
/// with `num_rpus` RPUs.
///
/// # Examples
///
/// ```
/// use rosebud_core::resources::FrameworkResources;
/// let r = FrameworkResources::new(16);
/// // Table 1: switching for 16 RPUs is 86234 LUTs (7.3 % of the VU9P).
/// assert!((r.switching().luts as i64 - 86234).abs() < 100);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FrameworkResources {
    num_rpus: u32,
}

impl FrameworkResources {
    /// Creates the model for `num_rpus` RPUs.
    pub fn new(num_rpus: usize) -> Self {
        Self {
            num_rpus: num_rpus as u32,
        }
    }

    /// The framework logic inside a single RPU (RISC-V core, memory
    /// subsystem, accelerator manager) — the "Single RPU" rows of
    /// Tables 1–2. Slightly cheaper at higher RPU counts because narrower
    /// per-RPU switch ports need less width conversion.
    pub fn rpu_base(&self) -> ResourceUsage {
        let n = self.num_rpus;
        ResourceUsage {
            luts: 4740u32.saturating_sub(n * 25 / 2),
            regs: 3824u32.saturating_sub(n * 9 / 4),
            bram: 24,
            uram: 32,
            dsp: 0,
        }
    }

    /// The per-RPU framework broken into the sub-components of Tables 3–4.
    /// Returns `(riscv_core, mem_subsystem, accel_manager)`.
    pub fn rpu_base_breakdown(&self) -> (ResourceUsage, ResourceUsage, ResourceUsage) {
        let total = self.rpu_base();
        let riscv = ResourceUsage {
            luts: 2012,
            regs: 1050,
            bram: 0,
            uram: 0,
            dsp: 0,
        };
        let accel_mgr = ResourceUsage {
            luts: 660,
            regs: 2330,
            bram: 0,
            uram: 0,
            dsp: 0,
        };
        let mem = ResourceUsage {
            luts: total.luts - riscv.luts - accel_mgr.luts,
            regs: total.regs.saturating_sub(riscv.regs + accel_mgr.regs),
            bram: 16,
            uram: 32,
            dsp: 0,
        };
        (riscv, mem, accel_mgr)
    }

    /// Total capacity of one RPU's partially reconfigurable block — the
    /// "Single RPU" plus "Remaining (PR)" rows. The floorplan trades RPU
    /// count against per-RPU area: 16 blocks of ~27.8 k LUTs, or 8 of
    /// ~64.2 k (the Pigasus engine needed the 8-RPU layout, §7.1.2).
    pub fn pr_block_capacity(&self) -> ResourceUsage {
        match self.num_rpus {
            16 => ResourceUsage {
                luts: 27_839,
                regs: 55_920,
                bram: 36,
                uram: 32,
                dsp: 168,
            },
            8 => ResourceUsage {
                luts: 64_161,
                regs: 128_880,
                bram: 114,
                uram: 64,
                dsp: 384,
            },
            n => {
                // General layouts divide roughly 40 % of the device among
                // the PR blocks.
                ResourceUsage {
                    luts: (VU9P.luts * 2 / 5) / n,
                    regs: (VU9P.regs * 2 / 5) / n,
                    bram: (VU9P.bram * 2 / 5) / n,
                    uram: (VU9P.uram / 2) / n,
                    dsp: (VU9P.dsp * 2 / 5) / n,
                }
            }
        }
    }

    /// Total capacity of the LB's PR block ("LB" + "Remaining" rows).
    pub fn lb_block_capacity(&self) -> ResourceUsage {
        match self.num_rpus {
            16 => ResourceUsage {
                luts: 78_384,
                regs: 158_400,
                bram: 144,
                uram: 48,
                dsp: 576,
            },
            _ => ResourceUsage {
                luts: 114_016,
                regs: 230_400,
                bram: 180,
                uram: 96,
                dsp: 648,
            },
        }
    }

    /// One RPU interconnect module.
    pub fn interconnect(&self) -> ResourceUsage {
        let n = self.num_rpus;
        ResourceUsage {
            luts: 3135u32.saturating_sub(n * 21),
            regs: 3147u32.saturating_sub(n * 12),
            bram: 0,
            uram: 0,
            dsp: 0,
        }
    }

    /// The 100 Gbps CMAC glue (both ports).
    pub fn cmac(&self) -> ResourceUsage {
        ResourceUsage {
            luts: 6_397,
            regs: 14_850,
            bram: 0,
            uram: 18,
            dsp: 0,
        }
    }

    /// PCIe + Corundum host interface.
    pub fn pcie(&self) -> ResourceUsage {
        ResourceUsage {
            luts: 41_510,
            regs: 63_738,
            bram: 110,
            uram: 32,
            dsp: 0,
        }
    }

    /// The two-stage packet distribution switches — the component that
    /// scales fastest with RPU count (compare Tables 1 and 2).
    pub fn switching(&self) -> ResourceUsage {
        let n = self.num_rpus;
        ResourceUsage {
            luts: 10_570 + n * 4_729,
            regs: 14_126 + n * 6_846,
            bram: 24 + n * 3 / 2,
            uram: 4 * n,
            dsp: 0,
        }
    }

    /// The complete static design given the LB policy's cost: the bottom
    /// rows of Tables 1–2.
    pub fn complete(&self, lb: ResourceUsage) -> ResourceUsage {
        self.rpu_base()
            .plus(self.interconnect())
            .times(self.num_rpus)
            .plus(lb)
            .plus(self.cmac())
            .plus(self.pcie())
            .plus(self.switching())
    }
}

/// Percentage of the VU9P a usage consumes, per resource class, formatted
/// like the paper's tables.
pub(crate) fn percent_of_device(usage: ResourceUsage) -> [f64; 5] {
    [
        usage.luts as f64 * 100.0 / VU9P.luts as f64,
        usage.regs as f64 * 100.0 / VU9P.regs as f64,
        usage.bram as f64 * 100.0 / VU9P.bram as f64,
        usage.uram as f64 * 100.0 / VU9P.uram as f64,
        usage.dsp as f64 * 100.0 / VU9P.dsp as f64,
    ]
}

/// Renders a table row the way the paper prints them:
/// `name | LUTs (x%) | Registers (x%) | BRAM (x%) | URAM (x%) | DSP (x%)`.
pub fn format_row(name: &str, usage: ResourceUsage) -> String {
    let pct = percent_of_device(usage);
    format!(
        "{name:<22} | {:>7} ({:>4.1}%) | {:>7} ({:>4.1}%) | {:>4} ({:>4.1}%) | {:>4} ({:>4.1}%) | {:>4} ({:>4.1}%)",
        usage.luts, pct[0], usage.regs, pct[1], usage.bram, pct[2], usage.uram, pct[3],
        usage.dsp, pct[4]
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(actual: u32, expected: u32, tol: u32) -> bool {
        actual.abs_diff(expected) <= tol
    }

    #[test]
    fn table1_16_rpus() {
        let r = FrameworkResources::new(16);
        let rpu = r.rpu_base();
        assert!(close(rpu.luts, 4541, 60), "RPU LUTs {}", rpu.luts);
        assert!(close(rpu.regs, 3788, 20), "RPU regs {}", rpu.regs);
        let ic = r.interconnect();
        assert!(close(ic.luts, 2793, 20), "interconnect LUTs {}", ic.luts);
        let sw = r.switching();
        assert!(close(sw.luts, 86234, 50), "switching LUTs {}", sw.luts);
        assert!(close(sw.regs, 123654, 100));
        assert_eq!(sw.bram, 48);
        assert_eq!(sw.uram, 64);
        let lb = crate::lb::RoundRobinLb::new();
        use crate::lb::LoadBalancer;
        let complete = r.complete(lb.resources(16));
        assert!(
            close(complete.luts, 259713, 700),
            "complete LUTs {}",
            complete.luts
        );
        assert!(
            close(complete.regs, 332636, 800),
            "complete regs {}",
            complete.regs
        );
        assert!(
            close(complete.bram, 542, 8),
            "complete BRAM {}",
            complete.bram
        );
        assert!(
            close(complete.uram, 626, 8),
            "complete URAM {}",
            complete.uram
        );
    }

    #[test]
    fn table2_8_rpus() {
        let r = FrameworkResources::new(8);
        let rpu = r.rpu_base();
        assert!(close(rpu.luts, 4640, 20), "RPU LUTs {}", rpu.luts);
        let sw = r.switching();
        assert!(close(sw.luts, 48402, 50), "switching LUTs {}", sw.luts);
        assert_eq!(sw.uram, 32);
        use crate::lb::LoadBalancer;
        let complete = r.complete(crate::lb::RoundRobinLb::new().resources(8));
        assert!(
            close(complete.luts, 164699, 700),
            "complete LUTs {}",
            complete.luts
        );
        assert!(close(complete.bram, 338, 8));
        assert!(close(complete.uram, 338, 8));
    }

    #[test]
    fn pr_block_fits_pigasus_in_8_rpu_layout_only() {
        // §7.1.2: the Pigasus engine (Table 3 total: 42364 LUTs) does not
        // fit a 16-RPU block but fits an 8-RPU block.
        let pigasus_total_luts = 42_364u32;
        assert!(FrameworkResources::new(16).pr_block_capacity().luts < pigasus_total_luts);
        assert!(FrameworkResources::new(8).pr_block_capacity().luts > pigasus_total_luts);
    }

    #[test]
    fn utilization_under_device_limits() {
        use crate::lb::LoadBalancer;
        for n in [8usize, 16] {
            let r = FrameworkResources::new(n);
            let c = r.complete(crate::lb::RoundRobinLb::new().resources(n));
            let pct = percent_of_device(c);
            for (i, p) in pct.iter().enumerate() {
                assert!(*p < 100.0, "resource {i} over budget for {n} RPUs: {p}%");
            }
        }
    }

    #[test]
    fn format_row_is_stable() {
        let row = format_row("Switching", FrameworkResources::new(16).switching());
        assert!(row.contains("Switching"));
        assert!(row.contains('%'));
    }
}
