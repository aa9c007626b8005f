//! Hardware accelerator models for the Rosebud reproduction.
//!
//! Accelerators are the custom hardware an RPU hosts next to its RISC-V core
//! (paper §3.1). This crate provides the models the case studies use:
//!
//! * [`PigasusMatcher`] — the ported Pigasus multi-pattern string + port
//!   matching engine (§7.1): a real Aho–Corasick automaton wrapped in a
//!   hardware model that streams payload bytes from packet memory at a
//!   configurable rate (16 engines × 1 B/cycle in the paper's port) and
//!   exposes the exact MMIO register map of Appendix B,
//! * [`FirewallMatcher`] — the blacklist IP matcher of §7.2: a two-stage
//!   (9-bit, then 15-bit) prefix lookup that resolves in two cycles, built
//!   from a rule list the way the paper's Python script generates Verilog,
//! * [`AhoCorasick`] — the underlying automaton, usable standalone (it also
//!   powers the Snort CPU baseline in `rosebud-apps`),
//! * [`Accelerator`] — the trait every accelerator implements: an MMIO
//!   register file plus a per-cycle `tick`, mirroring the RPU's
//!   memory-mapped accelerator interface (§3.3).
//!
//! # Examples
//!
//! ```
//! use rosebud_accel::{AhoCorasick, Pattern};
//!
//! let ac = AhoCorasick::build(&[
//!     Pattern::new(1, b"attack"),
//!     Pattern::new(2, b"tac"),
//! ]);
//! let hits = ac.find_all(b"an attack payload");
//! assert_eq!(hits.len(), 2); // "tac" inside "attack", then "attack"
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod aho;
mod codegen;
mod interface;
mod ipmatch;
mod mpse;

pub use aho::{AhoCorasick, Match, Pattern};
pub use codegen::generate_firewall_verilog;
pub use interface::{Accelerator, RegRead, ResourceUsage};
pub use ipmatch::{FirewallMatcher, FW_MATCH_REG, FW_SRC_IP_REG};
pub use mpse::{
    PigasusMatcher, Rule, RuleSet, PIG_CTRL_REG, PIG_DMA_ADDR_REG, PIG_DMA_LEN_REG,
    PIG_DMA_STAT_REG, PIG_MATCH_REG, PIG_PORTS_RAW_REG, PIG_PORTS_REG, PIG_RULE_ID_REG,
    PIG_SLOT_REG, PIG_STATE_H_REG, PIG_STATE_L_REG,
};
