//! The blacklist firewall IP matcher (paper §7.2).
//!
//! "This accelerator first checks for the first 9 bits of the IP prefix, if
//! they match, then it checks for the remaining 15 bits in the next cycle,
//! and if there was a match it raises a flag in a register. This lookup can
//! be performed in only two clock cycles."
//!
//! The paper generates the accelerator's Verilog from the emerging-threats
//! blacklist with a Python script; [`FirewallMatcher::from_prefixes`] is the
//! equivalent generator here, building the two-stage structure from a prefix
//! list at construction time.

use std::collections::HashSet;

use crate::interface::{Accelerator, RegRead, ResourceUsage};

/// `ACC_SRC_IP` (write): loads the IP to check and starts the 2-cycle
/// lookup. The register takes the word exactly as firmware loads it from the
/// packet with `lw` — i.e. the big-endian wire field in little-endian word
/// order — matching how the paper's generated Verilog consumes the raw C
/// load (Appendix C: `ACC_SRC_IP = src_ip;`).
pub const FW_SRC_IP_REG: u32 = 0x00;
/// `ACC_FW_MATCH` (read): 1 when the last checked IP is blacklisted.
pub const FW_MATCH_REG: u32 = 0x04;

/// Number of bits resolved by the matcher (9 in the first cycle + 15 in the
/// second): the accelerator matches /24 prefixes.
pub(crate) const FW_PREFIX_BITS: u32 = 24;

/// The two-stage blacklist matcher.
///
/// # Examples
///
/// ```
/// use rosebud_accel::{Accelerator, FirewallMatcher, FW_SRC_IP_REG, FW_MATCH_REG};
///
/// let mut fw = FirewallMatcher::from_prefixes(&[[203, 0, 113, 0]]);
/// fw.write_reg(FW_SRC_IP_REG, u32::from_le_bytes([203, 0, 113, 77]));
/// fw.tick(&[]);
/// fw.tick(&[]); // the lookup takes two cycles
/// assert_eq!(fw.read_reg(FW_MATCH_REG).value, 1);
/// ```
#[derive(Debug, Clone)]
pub struct FirewallMatcher {
    /// Stage 1: which 9-bit prefixes appear in the blacklist.
    stage1: Box<[bool; 512]>,
    /// Stage 2: the full 24-bit prefixes.
    stage2: HashSet<u32>,
    rule_count: u32,
    /// In-flight lookup: (ip, completes_at_tick).
    pending: Option<(u32, u64)>,
    /// Result of the last completed lookup.
    flag: bool,
    now: u64,
}

impl FirewallMatcher {
    /// Builds the matcher from a list of IPv4 addresses/prefixes; only the
    /// top 24 bits of each entry participate in matching.
    pub fn from_prefixes(prefixes: &[[u8; 4]]) -> Self {
        let mut stage1 = Box::new([false; 512]);
        let mut stage2 = HashSet::with_capacity(prefixes.len());
        for p in prefixes {
            let ip = u32::from_be_bytes(*p);
            let prefix24 = ip >> (32 - FW_PREFIX_BITS);
            stage1[(prefix24 >> 15) as usize] = true;
            stage2.insert(prefix24);
        }
        Self {
            stage1,
            stage2,
            rule_count: prefixes.len() as u32,
            pending: None,
            flag: false,
            now: 0,
        }
    }

    /// Functional check, bypassing the cycle model (ground truth for tests
    /// and for drop-count verification).
    pub fn is_blacklisted(&self, ip: u32) -> bool {
        let prefix24 = ip >> (32 - FW_PREFIX_BITS);
        self.stage1[(prefix24 >> 15) as usize] && self.stage2.contains(&prefix24)
    }
}

impl Accelerator for FirewallMatcher {
    fn name(&self) -> &str {
        "firewall-ip-matcher"
    }

    fn read_reg(&mut self, offset: u32) -> RegRead {
        match offset {
            FW_MATCH_REG => {
                // Reading before the two cycles elapse stalls the core for
                // the remainder (the blocking-read variant of A.2).
                let wait = match self.pending {
                    Some((ip, done_at)) => {
                        let wait = done_at.saturating_sub(self.now) as u32;
                        self.flag = self.is_blacklisted(ip);
                        self.pending = None;
                        wait
                    }
                    None => 0,
                };
                RegRead {
                    value: u32::from(self.flag),
                    wait_cycles: wait,
                }
            }
            _ => RegRead::fast(0),
        }
    }

    fn write_reg(&mut self, offset: u32, value: u32) {
        if offset == FW_SRC_IP_REG {
            // Resolve any lookup the firmware abandoned without reading.
            if let Some((ip, _)) = self.pending.take() {
                self.flag = self.is_blacklisted(ip);
            }
            // The raw `lw` word has the wire bytes reversed; normalize to a
            // host-order (big-endian-value) address.
            self.pending = Some((value.swap_bytes(), self.now + 2));
        }
    }

    fn tick(&mut self, _pmem: &[u8]) {
        self.now += 1;
        if let Some((ip, done_at)) = self.pending {
            if self.now >= done_at {
                self.flag = self.is_blacklisted(ip);
                self.pending = None;
            }
        }
    }

    fn is_busy(&self) -> bool {
        self.pending.is_some()
    }

    /// Idle, a tick only counts the cycle: nothing changes until the core
    /// starts a lookup. A pending lookup is ticked through.
    fn horizon(&self) -> u64 {
        if self.pending.is_some() {
            0
        } else {
            u64::MAX
        }
    }

    fn skip(&mut self, k: u64) {
        self.now += k;
    }

    fn load_table(&mut self, _offset: u32, _data: &[u8]) {
        // The generated matcher's tables are baked into LUT logic; updating
        // the blacklist rebuilds the RPU via partial reconfiguration.
    }

    fn reset(&mut self) {
        self.pending = None;
        self.flag = false;
    }

    fn resources(&self) -> ResourceUsage {
        // Calibrated to Table 4: 835 LUTs / 197 FFs for the 1050-rule
        // emerging-threats list; LUT cost scales with rule count.
        ResourceUsage {
            luts: 50 + (self.rule_count * 3) / 4,
            regs: 160 + self.rule_count / 32,
            bram: 0,
            uram: 0,
            dsp: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(fw: &mut FirewallMatcher, ip: [u8; 4]) -> (u32, u32) {
        fw.write_reg(FW_SRC_IP_REG, u32::from_le_bytes(ip));
        fw.tick(&[]);
        fw.tick(&[]);
        let r = fw.read_reg(FW_MATCH_REG);
        (r.value, r.wait_cycles)
    }

    #[test]
    fn matches_exact_prefix() {
        let mut fw = FirewallMatcher::from_prefixes(&[[192, 0, 2, 0], [198, 51, 100, 0]]);
        assert_eq!(check(&mut fw, [192, 0, 2, 55]).0, 1);
        assert_eq!(check(&mut fw, [198, 51, 100, 1]).0, 1);
        assert_eq!(check(&mut fw, [192, 0, 3, 55]).0, 0);
        assert_eq!(check(&mut fw, [10, 0, 2, 55]).0, 0);
    }

    #[test]
    fn early_read_charges_wait_cycles() {
        let mut fw = FirewallMatcher::from_prefixes(&[[1, 2, 3, 0]]);
        fw.write_reg(FW_SRC_IP_REG, u32::from_le_bytes([1, 2, 3, 4]));
        // No ticks yet: the 2-cycle lookup stalls the reader.
        let r = fw.read_reg(FW_MATCH_REG);
        assert_eq!(r.wait_cycles, 2);
        assert_eq!(r.value, 1);
    }

    #[test]
    fn completed_read_is_free() {
        let mut fw = FirewallMatcher::from_prefixes(&[[1, 2, 3, 0]]);
        let (_, wait) = check(&mut fw, [9, 9, 9, 9]);
        assert_eq!(wait, 0);
    }

    #[test]
    fn back_to_back_lookups() {
        let mut fw = FirewallMatcher::from_prefixes(&[[5, 5, 5, 0]]);
        assert_eq!(check(&mut fw, [5, 5, 5, 1]).0, 1);
        assert_eq!(check(&mut fw, [5, 5, 6, 1]).0, 0);
        assert_eq!(check(&mut fw, [5, 5, 5, 200]).0, 1);
    }

    #[test]
    fn stage1_prunes_whole_9bit_groups() {
        let fw = FirewallMatcher::from_prefixes(&[[203, 0, 113, 0]]);
        // 10.x.y.z has top 9 bits 0000_1010_0 — absent from stage 1.
        assert!(!fw.is_blacklisted(u32::from_be_bytes([10, 0, 113, 5])));
        assert!(fw.is_blacklisted(u32::from_be_bytes([203, 0, 113, 5])));
    }

    #[test]
    fn resources_match_table4_scale() {
        let prefixes: Vec<[u8; 4]> = (0..1050u32)
            .map(|i| [(i >> 8) as u8, i as u8, 7, 0])
            .collect();
        let fw = FirewallMatcher::from_prefixes(&prefixes);
        let r = fw.resources();
        assert!((r.luts as i64 - 835).abs() < 60, "luts {}", r.luts);
        assert!((r.regs as i64 - 197).abs() < 40, "regs {}", r.regs);
        assert_eq!(r.bram + r.uram + r.dsp, 0);
    }
}
