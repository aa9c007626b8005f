//! The shell proper: a live event loop around the deterministic core.
//!
//! Real frames arrive whenever the backend produces them; the shell stamps
//! each one with the cycle at which its injection is *accepted* and records
//! it in an [`EventLog`], and does the same with every host operation it
//! applies — [`Shell::apply`] is the only way to change the core under it.
//! Because the core is a pure function of its accepted injections and its
//! applied host operations, that log plus the firmware factory reproduces
//! the entire live run bit-exactly through [`rosebud_core::ports::replay`]
//! — including the trace, the conservation ledger, and the diagnostics.

use std::collections::VecDeque;

use rosebud_core::ports::{Device, EventLog};
use rosebud_core::{HostOp, HostReply, Rosebud};
use rosebud_net::Packet;

use crate::backend::ShellBackend;

/// A live middlebox: frames in from a [`ShellBackend`], through the
/// cycle-accurate [`Rosebud`] core, and back out — with every arrival
/// recorded for bit-exact replay.
///
/// # Examples
///
/// ```
/// use rosebud_core::{Rosebud, RosebudConfig, RpuProgram};
/// use rosebud_shell::{RingBackend, Shell};
///
/// let image = rosebud_riscv::assemble("
///     .equ IO, 0x02000000
///         li t0, IO
///         li t2, 0x01000000
///     poll:
///         lw a0, 0x00(t0)
///         beqz a0, poll
///         lw a1, 0x04(t0)
///         lw a2, 0x08(t0)
///         sw zero, 0x0c(t0)
///         xor a1, a1, t2
///         sw a1, 0x10(t0)
///         sw a2, 0x14(t0)
///         j poll
/// ").unwrap();
/// let sys = Rosebud::builder(RosebudConfig::with_rpus(2))
///     .firmware(move |_| RpuProgram::Riscv(image.clone()))
///     .build()
///     .unwrap();
///
/// let (backend, peer) = RingBackend::pair();
/// let mut shell = Shell::new(sys, backend);
/// peer.send(0, vec![0u8; 64]);
/// shell.pump(5_000);
/// assert_eq!(shell.forwarded(), 1);
/// assert_eq!(peer.recv().len(), 1);
/// assert_eq!(shell.log().events.len(), 1);
/// ```
pub struct Shell<B: ShellBackend> {
    sys: Rosebud,
    backend: B,
    log: EventLog,
    /// Frames received from the backend but not yet accepted by a MAC.
    pending: VecDeque<Packet>,
    next_id: u64,
    forwarded: u64,
    rejected: u64,
}

impl<B: ShellBackend> Shell<B> {
    /// Wraps `sys` in a live shell over `backend`.
    pub fn new(sys: Rosebud, backend: B) -> Self {
        Self {
            sys,
            backend,
            log: EventLog::new(),
            pending: VecDeque::new(),
            next_id: 0,
            forwarded: 0,
            rejected: 0,
        }
    }

    /// One shell iteration: drain the backend, inject what the MACs will
    /// take (recording each accepted frame at the current cycle), tick the
    /// core once, and push deliveries back out. Returns how many frames
    /// were injected this cycle.
    pub fn step(&mut self) -> u64 {
        let now = self.sys.now();

        for (port, bytes) in self.backend.recv_frames() {
            if (port as usize) >= self.sys.config().num_ports {
                self.rejected += 1;
                continue;
            }
            let pkt = Packet::new(self.next_id, bytes, port, now);
            self.next_id += 1;
            self.pending.push_back(pkt);
        }

        // Not `ports::pump`: each accepted frame is also cloned into the
        // event log, which a pacing loop has no business knowing about.
        let mut accepted = 0;
        while let Some(pkt) = self.pending.pop_front() {
            let copy = pkt.clone();
            match self.sys.inject(pkt) {
                Ok(()) => {
                    // Only *accepted* injections are logged: replaying them
                    // at the same cycles is guaranteed to succeed, because
                    // the core's state is a pure function of this log.
                    self.log.push(now, copy);
                    accepted += 1;
                }
                Err(p) => {
                    // MAC busy: real-wire backpressure. The frame waits in
                    // the shell's queue, not silently dropped.
                    self.pending.push_front(p);
                    break;
                }
            }
        }

        self.sys.tick();
        self.log.cycles = self.sys.now();

        // The host lane (the PCIe virtual interface) has no host process
        // behind a live shell: its deliveries are dropped here.
        let ports = self.sys.config().num_ports;
        self.sys.drain(&mut |lane, pkt| {
            if lane < ports {
                self.backend.send_frame(pkt.port, pkt.bytes());
                self.forwarded += 1;
            }
        });

        accepted
    }

    /// Runs `cycles` shell iterations.
    pub fn pump(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// The core under the shell.
    pub fn sys(&self) -> &Rosebud {
        &self.sys
    }

    /// Does `op` to the core and, once it has taken effect, records it at
    /// the current cycle — ahead of this cycle's arrivals, which is the
    /// order [`replay`](rosebud_core::ports::replay) acts in. The only way
    /// to change a live core, so the log misses nothing.
    ///
    /// # Errors
    ///
    /// Passes on the core's refusal; a refused op changed nothing and is
    /// not recorded.
    pub fn apply(&mut self, op: HostOp) -> Result<HostReply, String> {
        let reply = self.sys.apply(op.clone())?;
        self.log.ops.push((self.sys.now(), op));
        Ok(reply)
    }

    /// The backend.
    pub(crate) fn backend(&self) -> &B {
        &self.backend
    }

    /// The cycle-stamped record of every accepted arrival and every applied
    /// host operation so far.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Frames delivered back to the backend so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Frames refused at the shell edge (unknown port index).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Frames received from the backend but not yet accepted by a MAC.
    pub fn backlog(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::RingBackend;
    use rosebud_core::{RosebudConfig, RpuProgram};
    use rosebud_riscv::assemble;

    fn forwarder_sys(rpus: usize) -> Rosebud {
        let image = assemble(
            "
            .equ IO, 0x02000000
                li t0, IO
                li t2, 0x01000000
            poll:
                lw a0, 0x00(t0)
                beqz a0, poll
                lw a1, 0x04(t0)
                lw a2, 0x08(t0)
                sw zero, 0x0c(t0)
                xor a1, a1, t2
                sw a1, 0x10(t0)
                sw a2, 0x14(t0)
                j poll
            ",
        )
        .unwrap();
        Rosebud::builder(RosebudConfig::with_rpus(rpus))
            .firmware(move |_| RpuProgram::Riscv(image.clone()))
            .build()
            .unwrap()
    }

    #[test]
    fn live_frames_flow_and_are_logged() {
        let (backend, peer) = RingBackend::pair();
        let mut shell = Shell::new(forwarder_sys(2), backend);
        peer.send(0, vec![0xAB; 64]);
        peer.send(1, vec![0xCD; 128]);
        shell.pump(5_000);
        assert_eq!(shell.forwarded(), 2);
        assert_eq!(shell.log().events.len(), 2);
        assert_eq!(shell.backlog(), 0);
        let out = peer.recv();
        assert_eq!(out.len(), 2);
        // The forwarder flips output port parity (port ^ 1).
        let mut ports: Vec<u8> = out.iter().map(|(p, _)| *p).collect();
        ports.sort_unstable();
        assert_eq!(ports, vec![0, 1]);
        shell.sys().assert_conservation();
    }

    #[test]
    fn unknown_port_is_rejected_not_injected() {
        let (backend, peer) = RingBackend::pair();
        let mut shell = Shell::new(forwarder_sys(2), backend);
        let ports = shell.sys().config().num_ports as u8;
        peer.send(ports, vec![0u8; 64]); // one past the last valid port
        shell.pump(100);
        assert_eq!(shell.rejected(), 1);
        assert_eq!(shell.log().events.len(), 0);
    }

    #[test]
    fn ring_run_replays_bit_exactly() {
        let (backend, peer) = RingBackend::pair();
        let mut shell = Shell::new(forwarder_sys(2), backend);
        for i in 0..20u8 {
            peer.send(i % 2, vec![i; 64 + i as usize]);
            shell.pump(37); // stagger arrivals across cycles
        }
        shell.pump(5_000);
        let live_ledger = shell.sys().ledger();
        let live_diag = shell.sys().diagnostics().render();
        let log = shell.log().clone();
        assert_eq!(log.events.len(), 20);

        let mut oracle = forwarder_sys(2);
        let delivered = rosebud_core::ports::replay(&log, &mut oracle);
        assert_eq!(delivered.len(), 20);
        assert_eq!(oracle.ledger(), live_ledger);
        assert_eq!(oracle.diagnostics().render(), live_diag);
    }
}
