//! The Rosebud framework (paper §3–§4), as a cycle-level simulation.
//!
//! This crate is the reproduction's primary contribution: the RPU
//! abstraction and all the supporting hardware the paper builds around it —
//! the customizable load balancer, the two-stage packet distribution
//! subsystem, the inter-RPU loopback and broadcast messaging, the host
//! control/debug interface, partial reconfiguration, and the FPGA resource
//! model behind Tables 1–4.
//!
//! Single-RPU simulation (§3.3, Appendix A.4) has no driver of its own: it
//! is a one-RPU box ([`RosebudConfig::with_rpus`]`(1)`), read off its trace:
//! [`Tracer::residencies`] gives each packet's cycles from delivery to its
//! last send, and [`Rpu::pc_profile`] the firmware's per-PC cycles.
//!
//! # Examples
//!
//! A four-RPU system running an assembled RV32 forwarder:
//!
//! ```
//! use rosebud_core::{Harness, Rosebud, RosebudConfig, RoundRobinLb, RpuProgram};
//! use rosebud_net::FixedSizeGen;
//! use rosebud_riscv::assemble;
//!
//! let forwarder = assemble("
//!     .equ IO, 0x02000000
//!         li t0, IO
//!         li t2, 0x01000000
//!     poll:
//!         lw a0, 0x00(t0)
//!         beqz a0, poll
//!         lw a1, 0x04(t0)
//!         lw a2, 0x08(t0)
//!         sw zero, 0x0c(t0)
//!         xor a1, a1, t2
//!         sw a1, 0x10(t0)
//!         sw a2, 0x14(t0)
//!         j poll
//! ").unwrap();
//!
//! let sys = Rosebud::builder(RosebudConfig::with_rpus(4))
//!     .load_balancer(Box::new(RoundRobinLb::new()))
//!     .firmware(move |_| RpuProgram::Riscv(forwarder.clone()))
//!     .build()
//!     .unwrap();
//!
//! let mut harness = Harness::new(sys, Box::new(FixedSizeGen::new(256, 2)), 20.0);
//! harness.run(20_000);
//! assert!(harness.received() > 0, "packets must flow end to end");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod config;
mod diag;
mod dist;
mod fabric;
mod fault;
mod fleet;
mod harness;
mod host;
mod lanes;
mod lb;
mod mac;
pub mod ports;
mod pr;
pub mod resources;
mod rpu;
mod sim;
mod supervisor;
mod system;
mod trace;
mod types;
mod verify;

pub use config::RosebudConfig;
pub use diag::{BoxHealth, Diagnostics, FleetDiagnostics, RpuFaultKind};
pub use fault::{FaultKind, FaultPlan, Ledger};
pub use fleet::{Fleet, FleetConfig};
pub use harness::{Harness, Measurement};
pub use host::{lb_regs, HostOp, HostReply, MemRegion, PrTimingModel};
pub use lb::{HashLb, LeastLoadedLb, LoadBalancer, RoundRobinLb, SlotTracker};
pub use ports::{pump, Device, EventLog, PortEvent};
pub use rpu::{Firmware, PerfCounters, Rpu, RpuInner, RpuIo, RpuState};
pub use sim::{SimStats, StageProfile, STAGE_NAMES};
pub use supervisor::{
    FailoverRecord, FleetLogEntry, FleetStep, FleetSupervisor, RecoveryEvent, Supervisor,
    SupervisorStep,
};
pub use system::{Rosebud, RosebudBuilder, RpuProgram};
pub use trace::{TraceConfig, TraceEvent, Tracer};
pub use types::{irq, memmap, port, Desc, SELF_TAG};
pub use verify::{machine_spec, LintRecord, LoadPolicy};
