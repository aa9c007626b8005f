//! The Rosebud case studies (paper §6–§7) plus the Snort CPU baseline.
//!
//! * [`forwarder`] — the `basic_fw` firmware of the framework evaluation
//!   (§6.1): the 16-cycle descriptor-flip loop, in our RV32 assembly, plus
//!   the two-step loopback forwarder of §6.3.
//! * [`firewall`] — the blacklist firewall of §7.2: assembled firmware
//!   driving the 2-cycle IP-prefix accelerator, blacklist parsing, and the
//!   1050-attack-packet trace generator.
//! * [`pigasus`] — the Pigasus IDS port of §7.1: native firmware for the
//!   hardware-reorder and software-reorder configurations, the per-RPU flow
//!   table, and attack-trace generation from a rule set.
//! * [`snort`] — the CPU baseline of Fig. 8: a calibrated multicore model of
//!   Snort+Hyperscan, plus a real single-threaded multi-pattern matcher for
//!   grounding the per-byte costs.
//! * [`rules`] — a Snort-lite rule parser and synthetic rule-set generator.
//! * [`messaging`] — broadcast-messaging firmware for the §6.3 latency
//!   experiments.
//! * [`host_dma`] — a forwarder that mirrors packet headers into host DRAM
//!   through the DMA manager (§4.2), written to pass the protocol/taint
//!   analyzer under `LoadPolicy::Deny`.
//! * [`pigasus_asm`] — the HW-reorder IPS firmware in actual RV32 assembly
//!   (Appendix B hand-lowered), running on the instruction-set simulator.
//! * [`pktgen`] — the tester FPGA: `basic_pkt_gen` firmware plus the
//!   [`BackToBack`](pktgen::BackToBack) two-FPGA testbed of §6.
//!
//! # Examples
//!
//! ```
//! use rosebud_apps::firewall;
//!
//! // Build the firewall system of §7.2 (4 RPUs for a quick check).
//! let blacklist = firewall::synthetic_blacklist(64, 7);
//! let sys = firewall::build_firewall_system(4, &blacklist).unwrap();
//! assert_eq!(sys.config().num_rpus, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod firewall;
pub mod forwarder;
pub mod host_dma;
pub mod messaging;
pub mod pigasus;
pub mod pigasus_asm;
pub mod pktgen;
pub mod rules;
pub mod snort;

/// Every shipped RV32 firmware as assembly source, by stable name: the set
/// the `lint` example checks by default and the firmware lint golden
/// snapshots.
pub fn shipped_firmware() -> Vec<(&'static str, String)> {
    vec![
        ("forwarder", forwarder::FORWARDER_ASM.to_string()),
        (
            "forwarder-single-port",
            forwarder::FORWARDER_SINGLE_PORT_ASM.to_string(),
        ),
        (
            "watchdog-forwarder",
            forwarder::watchdog_forwarder_asm(4096),
        ),
        (
            "duty-cycle-forwarder",
            forwarder::duty_cycle_forwarder_asm(2048),
        ),
        (
            "host-dma-forwarder",
            host_dma::host_dma_forwarder_asm(65536),
        ),
        ("firewall", firewall::FIREWALL_ASM.to_string()),
        ("pigasus", pigasus_asm::PIGASUS_HW_ASM.to_string()),
    ]
}
