//! The protocol domain: the RX-descriptor, TX-descriptor and DMA-engine
//! typestate automata derived from a [`ProtocolSpec`](super::ProtocolSpec),
//! their transitions on device loads and stores, and the lifecycle findings
//! those transitions raise. Stores to the DMA registers are also the taint
//! sinks.

use super::absint::{emit, Collector};
use super::init::Init;
use super::report::{Check, Severity};
use super::spec::MachineSpec;

// RX descriptor automaton states (powerset bitmask: the abstract state
// tracks every protocol state some path may be in).
const RX_UNPOLLED: u8 = 1; // no descriptor pending or held
const RX_POLLED: u8 = 2; // RECV_READY observed, fields not yet read
const RX_HELD: u8 = 4; // descriptor fields read, slot not released

// TX descriptor automaton states.
const TX_EMPTY: u8 = 1;
const TX_STAGED: u8 = 2;

// DMA engine automaton states.
const DMA_IDLE: u8 = 1;
const DMA_BUSY: u8 = 2;

/// Where the three automata may be, as powerset bitmasks joined by OR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct Typestate {
    rx: u8,
    tx: u8,
    dma: u8,
    /// Whether DMA_HOST_ADDR / DMA_LOCAL_ADDR / DMA_LEN have been
    /// programmed (the engine latches them across kicks).
    dma_params: [Init; 3],
}

impl Typestate {
    /// Boot entry: every automaton is at rest.
    pub(super) fn boot() -> Self {
        Typestate {
            rx: RX_UNPOLLED,
            tx: TX_EMPTY,
            dma: DMA_IDLE,
            dma_params: [Init::No; 3],
        }
    }

    /// Trap entry: the interrupt may fire at any point of the protocol —
    /// every automaton state is possible.
    pub(super) fn trap() -> Self {
        Typestate {
            rx: RX_UNPOLLED | RX_POLLED | RX_HELD,
            tx: TX_EMPTY | TX_STAGED,
            dma: DMA_IDLE | DMA_BUSY,
            dma_params: [Init::Maybe; 3],
        }
    }

    /// Joins `other` in; `true` if anything moved.
    pub(super) fn join_from(&mut self, other: &Typestate) -> bool {
        let joined = Typestate {
            rx: self.rx | other.rx,
            tx: self.tx | other.tx,
            dma: self.dma | other.dma,
            dma_params: [0, 1, 2].map(|i| self.dma_params[i].join(other.dma_params[i])),
        };
        let changed = joined != *self;
        *self = joined;
        changed
    }

    /// RX/DMA automaton transitions for a load of IO word offset `woff`.
    /// Returns whether the loaded value is a taint source.
    pub(super) fn load(
        &mut self,
        spec: &MachineSpec,
        pc: u32,
        woff: u32,
        out: &mut Option<&mut Collector>,
    ) -> bool {
        let Some(p) = &spec.protocol else {
            return false;
        };
        if woff == p.recv_ready {
            // Poll: an unpolled or already-polled slot becomes polled; a
            // held descriptor stays held.
            let held = self.rx & RX_HELD;
            let polled = if self.rx & (RX_UNPOLLED | RX_POLLED) != 0 {
                RX_POLLED
            } else {
                0
            };
            self.rx = held | polled;
            false
        } else if p.recv_desc.contains(&woff) {
            if self.rx & (RX_POLLED | RX_HELD) == 0 {
                emit(
                    out,
                    Severity::Error,
                    Check::Protocol,
                    pc,
                    format!(
                        "reads {} with no receive descriptor held on any path \
                         (use-after-release, or a missing RECV_READY poll)",
                        spec.io_name(woff)
                    ),
                );
            } else if self.rx & RX_UNPOLLED != 0 {
                emit(
                    out,
                    Severity::Warning,
                    Check::Protocol,
                    pc,
                    format!(
                        "on some paths, reads {} after the descriptor slot was \
                         released (use-after-release)",
                        spec.io_name(woff)
                    ),
                );
            }
            self.rx = RX_HELD;
            true
        } else if woff == p.dma_status {
            // Reading the status register is the completion poll.
            self.dma = DMA_IDLE;
            false
        } else {
            false
        }
    }

    /// TX/DMA automaton transitions (and DMA taint-sink checks) for a store
    /// to IO word offset `woff`.
    pub(super) fn store(
        &mut self,
        spec: &MachineSpec,
        pc: u32,
        woff: u32,
        value_tainted: bool,
        out: &mut Option<&mut Collector>,
    ) {
        let Some(p) = &spec.protocol else {
            return;
        };
        let dma_params = [p.dma_host_addr, p.dma_local_addr, p.dma_len];
        if woff == p.recv_release {
            if self.rx & (RX_POLLED | RX_HELD) == 0 {
                emit(
                    out,
                    Severity::Error,
                    Check::Protocol,
                    pc,
                    format!(
                        "stores to {} with no receive descriptor held on any path \
                         (double release frees a slot the scheduler already owns)",
                        spec.io_name(woff)
                    ),
                );
            } else if self.rx & RX_UNPOLLED != 0 {
                emit(
                    out,
                    Severity::Warning,
                    Check::Protocol,
                    pc,
                    format!(
                        "on some paths, stores to {} with no receive descriptor held \
                         (double release)",
                        spec.io_name(woff)
                    ),
                );
            }
            self.rx = RX_UNPOLLED;
        } else if woff == p.send_stage {
            if self.tx & TX_STAGED != 0 {
                emit(
                    out,
                    Severity::Warning,
                    Check::Protocol,
                    pc,
                    format!(
                        "stores to {} over a send descriptor that was staged but never \
                         committed; the earlier descriptor is silently dropped",
                        spec.io_name(woff)
                    ),
                );
            }
            self.tx = TX_STAGED;
        } else if woff == p.send_commit {
            if self.tx & TX_STAGED == 0 {
                emit(
                    out,
                    Severity::Error,
                    Check::Protocol,
                    pc,
                    format!(
                        "stores to {} with no send descriptor staged on any path \
                         (double commit emits a stale or garbage descriptor)",
                        spec.io_name(woff)
                    ),
                );
            } else if self.tx & TX_EMPTY != 0 {
                emit(
                    out,
                    Severity::Warning,
                    Check::Protocol,
                    pc,
                    format!(
                        "on some paths, stores to {} with no send descriptor staged \
                         (double commit)",
                        spec.io_name(woff)
                    ),
                );
            }
            self.tx = TX_EMPTY;
        } else if let Some(i) = dma_params.iter().position(|&o| o == woff) {
            if value_tainted {
                emit(
                    out,
                    Severity::Error,
                    Check::Taint,
                    pc,
                    format!(
                        "stores unsanitized packet bytes to {} (attacker-controlled \
                         DMA {}; mask or bounds-check the value first)",
                        spec.io_name(woff),
                        ["host address", "local address", "transfer length"][i]
                    ),
                );
            }
            if let Some((severity, on_some_paths)) = self.dma_in_flight() {
                emit(
                    out,
                    severity,
                    Check::Protocol,
                    pc,
                    format!(
                        "{on_some_paths}reprograms {} while a DMA transfer is still in \
                         flight (buffer reuse before completion; poll DMA_STATUS first)",
                        spec.io_name(woff)
                    ),
                );
            }
            self.dma_params[i] = Init::Yes;
        } else if woff == p.dma_ctrl {
            if value_tainted {
                emit(
                    out,
                    Severity::Error,
                    Check::Taint,
                    pc,
                    format!(
                        "stores unsanitized packet bytes to {} (attacker-controlled \
                         DMA command)",
                        spec.io_name(woff)
                    ),
                );
            }
            for (i, &off) in dma_params.iter().enumerate() {
                match self.dma_params[i] {
                    Init::Yes => {}
                    Init::No => emit(
                        out,
                        Severity::Error,
                        Check::Protocol,
                        pc,
                        format!(
                            "starts a DMA transfer but {} was never programmed on any \
                             path (the engine would use a stale or zero parameter)",
                            spec.io_name(off)
                        ),
                    ),
                    Init::Maybe => emit(
                        out,
                        Severity::Warning,
                        Check::Protocol,
                        pc,
                        format!(
                            "on some paths, starts a DMA transfer without programming {}",
                            spec.io_name(off)
                        ),
                    ),
                }
            }
            if let Some((severity, on_some_paths)) = self.dma_in_flight() {
                emit(
                    out,
                    severity,
                    Check::Protocol,
                    pc,
                    format!(
                        "{on_some_paths}starts a DMA transfer while the previous one was \
                         never polled to completion (missing DMA_STATUS completion poll)"
                    ),
                );
            }
            self.dma = DMA_BUSY;
        }
    }

    /// If a transfer may still be in flight: an error when it is on every
    /// path, a warning (and its message prefix) when only on some.
    fn dma_in_flight(&self) -> Option<(Severity, &'static str)> {
        if self.dma & DMA_BUSY == 0 {
            None
        } else if self.dma == DMA_BUSY {
            Some((Severity::Error, ""))
        } else {
            Some((Severity::Warning, "on some paths, "))
        }
    }

    /// Exit-without-release: a path that halts at `pc` while it may still
    /// hold a descriptor slot (or an in-flight DMA) leaks that resource.
    pub(super) fn halt(&self, pc: u32, out: &mut Option<&mut Collector>) {
        if self.rx & RX_HELD != 0 {
            emit(
                out,
                Severity::Warning,
                Check::Protocol,
                pc,
                "halts while a receive descriptor slot may still be held (never released; \
                 the scheduler cannot reuse the slot)"
                    .to_string(),
            );
        }
        if self.dma & DMA_BUSY != 0 {
            emit(
                out,
                Severity::Warning,
                Check::Protocol,
                pc,
                "halts while a DMA transfer may still be in flight (completion was never \
                 polled)"
                    .to_string(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::fixtures::*;
    use proptest::prelude::*;

    fn typestate() -> impl Strategy<Value = Typestate> {
        let init = || prop_oneof![Just(Init::No), Just(Init::Maybe), Just(Init::Yes)];
        (0u8..8, 0u8..4, 0u8..4, init(), init(), init()).prop_map(|(rx, tx, dma, h, l, n)| {
            Typestate {
                rx,
                tx,
                dma,
                dma_params: [h, l, n],
            }
        })
    }

    fn join(a: &Typestate, b: &Typestate) -> Typestate {
        let mut j = a.clone();
        j.join_from(b);
        j
    }

    /// `a ⊑ b`: joining `a` into `b` moves nothing.
    fn leq(a: &Typestate, b: &Typestate) -> bool {
        !b.clone().join_from(a)
    }

    proptest! {
        #[test]
        fn join_is_an_idempotent_monotone_upper_bound(
            a in typestate(), b in typestate(), c in typestate()
        ) {
            prop_assert!(!a.clone().join_from(&a), "a ⊔ a moved");
            let ab = join(&a, &b);
            prop_assert_eq!(&ab, &join(&b, &a));
            prop_assert!(leq(&a, &ab) && leq(&b, &ab));
            // `join_from` reports a move exactly when there was one.
            prop_assert_eq!(a.clone().join_from(&b), ab != a);
            // a ⊑ a ⊔ b, so joining `c` into both keeps the order.
            prop_assert!(leq(&join(&a, &c), &join(&ab, &c)));
            prop_assert_eq!(join(&ab, &c), join(&a, &join(&b, &c)));
        }
    }

    /// The legal poll → read desc → stage → commit → release cycle is clean.
    #[test]
    fn protocol_legal_cycle_is_clean() {
        let r = check(
            proto_devices(),
            "
                li t0, 0x02000000
            poll:
                lw a0, 0x00(t0)
                sw zero, 0x40(t0)      # pet the watchdog
                beqz a0, poll
                lw a1, 0x04(t0)        # take the descriptor
                lw a2, 0x08(t0)
                sw a1, 0x10(t0)        # stage
                sw a2, 0x14(t0)        # commit
                sw zero, 0x0c(t0)      # release
                j poll
            ",
        );
        assert!(!r.has_errors(), "{:#?}", r.diagnostics);
    }

    #[test]
    fn protocol_use_after_release_is_error() {
        let r = check(
            proto_devices(),
            "
                li t0, 0x02000000
                lw a0, 0x00(t0)
                lw a1, 0x04(t0)
                sw zero, 0x0c(t0)      # release
                lw a2, 0x08(t0)        # ...then read the released slot
                ebreak
            ",
        );
        assert!(
            has(&r, Check::Protocol, Severity::Error),
            "{:#?}",
            r.diagnostics
        );
    }

    #[test]
    fn protocol_desc_read_without_poll_is_error() {
        let r = check(
            proto_devices(),
            "
                li t0, 0x02000000
                lw a1, 0x04(t0)        # no RECV_READY poll first
                ebreak
            ",
        );
        assert!(
            has(&r, Check::Protocol, Severity::Error),
            "{:#?}",
            r.diagnostics
        );
    }

    #[test]
    fn protocol_double_commit_is_error() {
        let r = check(
            proto_devices(),
            "
                li t0, 0x02000000
                lw a0, 0x00(t0)
                lw a1, 0x04(t0)
                sw a1, 0x10(t0)        # stage
                sw a1, 0x14(t0)        # commit
                sw a1, 0x14(t0)        # commit again: nothing staged
                sw zero, 0x0c(t0)
                ebreak
            ",
        );
        assert!(
            has(&r, Check::Protocol, Severity::Error),
            "{:#?}",
            r.diagnostics
        );
    }

    #[test]
    fn protocol_double_release_is_error() {
        let r = check(
            proto_devices(),
            "
                li t0, 0x02000000
                lw a0, 0x00(t0)
                sw zero, 0x0c(t0)
                sw zero, 0x0c(t0)      # slot already back with the scheduler
                ebreak
            ",
        );
        assert!(
            has(&r, Check::Protocol, Severity::Error),
            "{:#?}",
            r.diagnostics
        );
    }

    #[test]
    fn protocol_missed_completion_poll_is_error() {
        let r = check(
            proto_devices(),
            "
                li t0, 0x02000000
                li a0, 0x100
                sw a0, 0x44(t0)        # host addr
                sw a0, 0x48(t0)        # local addr
                sw a0, 0x4c(t0)        # len
                sw a0, 0x50(t0)        # kick
                sw a0, 0x50(t0)        # kick again without polling DMA_STATUS
                ebreak
            ",
        );
        let msgs: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.check == Check::Protocol && d.severity == Severity::Error)
            .collect();
        assert!(
            msgs.iter().any(|d| d.message.contains("completion poll")),
            "{:#?}",
            r.diagnostics
        );
    }

    #[test]
    fn protocol_completion_poll_resets_dma_state() {
        let r = check(
            proto_devices(),
            "
                li t0, 0x02000000
                li a0, 0x100
                sw a0, 0x44(t0)
                sw a0, 0x48(t0)
                sw a0, 0x4c(t0)
                sw a0, 0x50(t0)        # kick
            wait:
                lw a1, 0x54(t0)        # completion poll
                sw zero, 0x40(t0)      # pet
                beqz a1, wait
                sw a0, 0x50(t0)        # second transfer is now legal
                lw a1, 0x54(t0)
                ebreak
            ",
        );
        assert!(!r.has_errors(), "{:#?}", r.diagnostics);
    }

    #[test]
    fn protocol_dma_kick_without_params_is_error() {
        let r = check(
            proto_devices(),
            "
                li t0, 0x02000000
                li a0, 1
                sw a0, 0x50(t0)        # kick with nothing programmed
                ebreak
            ",
        );
        assert!(
            has(&r, Check::Protocol, Severity::Error),
            "{:#?}",
            r.diagnostics
        );
    }

    #[test]
    fn protocol_param_store_during_flight_is_error() {
        let r = check(
            proto_devices(),
            "
                li t0, 0x02000000
                li a0, 0x100
                sw a0, 0x44(t0)
                sw a0, 0x48(t0)
                sw a0, 0x4c(t0)
                sw a0, 0x50(t0)        # kick
                sw a0, 0x48(t0)        # reprogram mid-flight (buffer reuse)
                ebreak
            ",
        );
        let msgs: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.check == Check::Protocol && d.severity == Severity::Error)
            .collect();
        assert!(
            msgs.iter().any(|d| d.message.contains("in flight")),
            "{:#?}",
            r.diagnostics
        );
    }

    #[test]
    fn protocol_halt_with_held_descriptor_warns() {
        let r = check(
            proto_devices(),
            "
                li t0, 0x02000000
                lw a0, 0x00(t0)
                lw a1, 0x04(t0)        # take the slot...
                ebreak                 # ...and never release it
            ",
        );
        assert!(
            has(&r, Check::Protocol, Severity::Warning),
            "{:#?}",
            r.diagnostics
        );
    }
}
