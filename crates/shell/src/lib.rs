//! The async I/O shell around the deterministic Rosebud simulation core.
//!
//! The core (`rosebud-core`) is a pure, cycle-deterministic function of its
//! injected traffic; this crate is everything impure around it, split along
//! that line on purpose:
//!
//! * [`ShellBackend`] — transports carrying raw frames to and from real
//!   endpoints: an in-process ring ([`RingBackend`], the CI workhorse) and
//!   Unix-domain datagrams ([`UdsBackend`]).
//! * [`Shell`] — the event loop: drain the backend, stamp each accepted
//!   frame with its injection cycle into an event log, tick the core, push
//!   deliveries back out. The log replays bit-exactly on a fresh system
//!   (`rosebud_core::ports::replay`), so any live run is also a
//!   reproducible testcase.
//! * [`ControlServer`] — a minimal HTTP-over-Unix-socket control plane:
//!   stats, ledger, counters, event-log export, Perfetto trace export, RPU
//!   enable/disable, gated partial reconfiguration, and hot firmware loads.
//!
//! This crate is deliberately *outside* the determinism lint wall that
//! covers the core crates: sockets and wall-clock timeouts live here so they
//! can never leak into the simulation.
//!
//! # Examples
//!
//! A live two-port forwarder over an in-process ring:
//!
//! ```
//! use rosebud_core::{Rosebud, RosebudConfig, RpuProgram};
//! use rosebud_shell::{RingBackend, Shell};
//!
//! let image = rosebud_riscv::assemble("
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
//! let sys = Rosebud::builder(RosebudConfig::with_rpus(2))
//!     .firmware(move |_| RpuProgram::Riscv(image.clone()))
//!     .build()
//!     .unwrap();
//!
//! let (backend, peer) = RingBackend::pair();
//! let mut shell = Shell::new(sys, backend);
//! peer.send(0, vec![0u8; 64]);
//! shell.pump(5_000);
//! assert_eq!(peer.recv().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod backend;
mod control;
mod shell;

pub use backend::{RingBackend, RingPeer, ShellBackend, UdsBackend};
pub use control::ControlServer;
pub use shell::Shell;
