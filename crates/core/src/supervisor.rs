//! The self-healing host supervisor (§3.4, Appendix A.8).
//!
//! The paper's operational argument is that a Rosebud deployment survives
//! firmware failure without operator intervention: the host "can see if any
//! of the cores are hung" from the counter block, evicts the offender, and
//! partial reconfiguration "loads a new bit file" while the load balancer
//! carries traffic on the remaining regions. [`Supervisor`] is that agent.
//!
//! It polls [`crate::Rosebud::diagnostics`]-grade state over the host
//! interface and walks a recovery ladder per RPU:
//!
//! 1. **poke** — a poke interrupt plus immediate LB disable; a transiently
//!    stuck core gets one poll interval to prove it is alive.
//! 2. **evict + bounded drain** — graceful reconfiguration; a region that
//!    does not drain within the timeout will never drain.
//! 3. **forced eviction + PR reload** — destroy the wedged region's
//!    in-flight work (accounted as purged) and write the bitstream.
//! 4. **firmware reboot** — the factory program boots into the fresh
//!    region.
//! 5. **LB re-enable** — only after the supervisor has *verified* the
//!    reboot: the region reports `Running`, is not halted, and has retired
//!    cycles. A supervisor must never hand traffic to a region it has not
//!    confirmed alive.
//!
//! Host-link outages (transient PCIe/DMA failure) make every rung retry
//! with exponential backoff rather than act on stale state.
//!
//! Detection is deliberately limited to what a real host can see: the halt
//! flag, the watchdog-expiry counter, free-slot levels, and per-RPU
//! counters. The injected-fault oracle ([`crate::Rpu::is_hung`]) is never
//! consulted.

use rosebud_kernel::Cycle;

use crate::diag::RpuFaultKind;
use crate::host::{HostOp, HostReply};
use crate::rpu::RpuState;
use crate::system::Rosebud;
use crate::trace::SupervisorStep;

/// Cycles between polls of the host-visible state.
const POLL_INTERVAL: Cycle = 512;
/// Consecutive polls with zero forward progress and work outstanding before
/// an RPU is declared hung (watchdog expiry declares it immediately).
const STALL_POLLS: u32 = 3;
/// Grace period after a poke before the ladder escalates to eviction; a
/// transiently stuck core that shows life inside the grace is a false
/// alarm. One poll interval.
const POKE_GRACE: Cycle = 512;
/// Drop-rate trigger: an RPU whose drops exceed this share of its received
/// frames (with a small absolute floor) is recycled.
const DROP_FRACTION: f64 = 0.5;
/// Base backoff after a failed host-link access; doubles per retry.
const BACKOFF: Cycle = 512;
/// Ceiling on the exponential host-link backoff.
const BACKOFF_CAP: Cycle = 32_768;

/// The one thing about the recovery ladder a caller varies.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// How long a graceful drain may take before forced eviction.
    pub drain_timeout: Cycle,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            drain_timeout: 20_000,
        }
    }
}

/// One completed recovery, as recorded in the host log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// The recovered RPU.
    pub rpu: usize,
    /// What the detector concluded.
    pub kind: RpuFaultKind,
    /// Cycle at which the supervisor detected the fault.
    pub detected_at: Cycle,
    /// Cycle of the injected fault, when injection bookkeeping knows it.
    pub fault_at: Option<Cycle>,
    /// `detected_at - fault_at`, when known.
    pub detection_latency: Option<Cycle>,
    /// Cycle at which traffic was re-enabled to the region.
    pub reenabled_at: Cycle,
    /// `reenabled_at - detected_at`: how long the region was out of rotation.
    pub downtime: Cycle,
    /// Slot-bound packets destroyed by forced eviction (0 for graceful).
    pub packets_purged: u64,
    /// Whether the graceful drain timed out and eviction was forced.
    pub forced: bool,
    /// Host-link retries spent during this recovery.
    pub retries: u32,
}

/// Does `op` to `sys`: what the ladder asks of an RPU it watches is never
/// refused.
fn host(sys: &mut Rosebud, op: HostOp) -> HostReply {
    sys.apply(op)
        .expect("the supervisor addresses RPUs the box has")
}

/// Rung 3: forced eviction; returns the slot-bound packets destroyed.
fn force_reload(sys: &mut Rosebud, rpu: usize) -> u64 {
    let HostReply::Purged(purged) = host(sys, HostOp::ForceReload { rpu }) else {
        unreachable!("a forced reload answers with its purge count");
    };
    purged
}

/// Where one RPU sits on the recovery ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rung {
    /// No fault suspected.
    Healthy,
    /// Poked and disabled; escalates to eviction at `until` unless the
    /// region shows signs of life first.
    Poked {
        /// Cycle at which the grace period expires.
        until: Cycle,
    },
    /// Graceful eviction in progress; escalates at `deadline`.
    Draining {
        /// Cycle at which the drain is declared stuck.
        deadline: Cycle,
    },
    /// PR bitstream writing / firmware booting.
    Reloading,
    /// Booted; verifying forward progress before re-enable.
    Rebooting {
        /// `sw_cycles` reading right after boot.
        sw0: u64,
    },
}

/// Per-RPU detector baselines and ladder state.
#[derive(Debug, Clone, Copy)]
struct Watch {
    rung: Rung,
    last_sw_cycles: u64,
    last_rx_frames: u64,
    last_drops: u64,
    last_watchdog_fires: u64,
    stalled_polls: u32,
    // Bookkeeping for the in-progress recovery.
    kind: RpuFaultKind,
    detected_at: Cycle,
    fault_at: Option<Cycle>,
    purged: u64,
    forced: bool,
    retries: u32,
}

impl Watch {
    fn new() -> Self {
        Self {
            rung: Rung::Healthy,
            last_sw_cycles: 0,
            last_rx_frames: 0,
            last_drops: 0,
            last_watchdog_fires: 0,
            stalled_polls: 0,
            kind: RpuFaultKind::Hung,
            detected_at: 0,
            fault_at: None,
            purged: 0,
            forced: false,
            retries: 0,
        }
    }
}

/// The polling host agent. Drive it with [`Supervisor::poll`] every cycle
/// (it rate-limits itself to its configured interval).
#[derive(Debug)]
pub struct Supervisor {
    cfg: SupervisorConfig,
    watch: Vec<Watch>,
    next_poll: Cycle,
    link_retries: u64,
}

impl Supervisor {
    /// A supervisor for `sys`, with default tuning.
    pub fn new(sys: &Rosebud) -> Self {
        Self::with_config(sys, SupervisorConfig::default())
    }

    /// A supervisor with explicit tuning.
    pub fn with_config(sys: &Rosebud, cfg: SupervisorConfig) -> Self {
        Self {
            cfg,
            watch: vec![Watch::new(); sys.rpus().len()],
            next_poll: 0,
            link_retries: 0,
        }
    }

    /// Total host-link accesses that had to be retried because PCIe was
    /// down.
    pub fn link_retries(&self) -> u64 {
        self.link_retries
    }

    /// `true` while any RPU is mid-recovery.
    pub fn recovering(&self) -> bool {
        self.watch.iter().any(|w| w.rung != Rung::Healthy)
    }

    /// One supervisor step. Cheap when it is not yet time to poll.
    pub fn poll(&mut self, sys: &mut Rosebud) {
        let now = sys.now();
        if now < self.next_poll {
            return;
        }
        if !sys.host_link_up() {
            // Transient PCIe outage: no register op can be trusted. Retry
            // with exponential backoff instead of acting on stale state.
            self.link_retries += 1;
            for w in &mut self.watch {
                if w.rung != Rung::Healthy {
                    w.retries += 1;
                }
            }
            let attempts = self.watch.iter().map(|w| w.retries).max().unwrap_or(0);
            let backoff = BACKOFF.checked_shl(attempts).unwrap_or(Cycle::MAX);
            self.next_poll = now + backoff.min(BACKOFF_CAP);
            return;
        }
        self.next_poll = now + POLL_INTERVAL;
        for r in 0..self.watch.len() {
            self.poll_rpu(sys, r, now);
        }
    }

    fn poll_rpu(&mut self, sys: &mut Rosebud, r: usize, now: Cycle) {
        match self.watch[r].rung {
            Rung::Healthy => self.detect(sys, r, now),
            Rung::Poked { until } => {
                // Did the poke shake it loose? Progress plus a live state
                // means a false alarm (or a transient): put it back.
                let rpu = &sys.rpus()[r];
                let alive = rpu.state() == RpuState::Running
                    && !rpu.is_halted()
                    && rpu.sw_cycles() > self.watch[r].last_sw_cycles
                    && rpu.watchdog_fires() == self.watch[r].last_watchdog_fires;
                if alive && self.watch[r].kind != RpuFaultKind::Dropping {
                    sys.trace_supervisor(r, SupervisorStep::FalseAlarm);
                    host(sys, HostOp::Enable { rpu: r });
                    self.finish(sys, r, now, /* rebooted */ false);
                } else if now >= until {
                    // Rung 2: the grace expired — graceful eviction with a
                    // bounded drain.
                    sys.trace_supervisor(r, SupervisorStep::DrainStarted);
                    host(
                        sys,
                        HostOp::Reload {
                            rpu: r,
                            gated: true,
                        },
                    );
                    self.watch[r].rung = Rung::Draining {
                        deadline: now + self.cfg.drain_timeout,
                    };
                }
            }
            Rung::Draining { deadline } => {
                if matches!(sys.rpus()[r].state(), RpuState::Reconfiguring { .. }) {
                    // Drain completed; the PR write is underway.
                    sys.trace_supervisor(r, SupervisorStep::Reloading);
                    self.watch[r].rung = Rung::Reloading;
                } else if now >= deadline {
                    // Rung 3: the region will never drain — destroy its
                    // in-flight work and force the reload.
                    self.watch[r].purged = force_reload(sys, r);
                    self.watch[r].forced = true;
                    self.watch[r].rung = Rung::Reloading;
                    sys.trace_supervisor(
                        r,
                        SupervisorStep::ForcedEvict {
                            purged: self.watch[r].purged,
                        },
                    );
                    sys.trace_supervisor(r, SupervisorStep::Reloading);
                }
            }
            Rung::Reloading => {
                if !sys.reconfigure_pending(r) {
                    // Rung 4 happened inside `finish_reconfigure`: the
                    // factory firmware booted. Verify before re-enabling.
                    sys.trace_supervisor(r, SupervisorStep::Verifying);
                    self.watch[r].rung = Rung::Rebooting {
                        sw0: sys.rpus()[r].sw_cycles(),
                    };
                }
            }
            Rung::Rebooting { sw0 } => {
                let rpu = &sys.rpus()[r];
                let verified =
                    rpu.state() == RpuState::Running && !rpu.is_halted() && rpu.sw_cycles() > sw0;
                if verified {
                    // Rung 5: the region demonstrably rebooted — only now
                    // does it get traffic again.
                    sys.trace_supervisor(r, SupervisorStep::Reenabled);
                    host(sys, HostOp::Enable { rpu: r });
                    self.finish(sys, r, now, /* rebooted */ true);
                } else if rpu.is_halted() {
                    // The fresh firmware died on boot: reload again.
                    let purged = force_reload(sys, r);
                    self.watch[r].purged += purged;
                    self.watch[r].forced = true;
                    self.watch[r].rung = Rung::Reloading;
                    sys.trace_supervisor(r, SupervisorStep::ForcedEvict { purged });
                    sys.trace_supervisor(r, SupervisorStep::Reloading);
                }
            }
        }
    }

    /// Fault detection from host-visible signals only.
    fn detect(&mut self, sys: &mut Rosebud, r: usize, now: Cycle) {
        let rpu = &sys.rpus()[r];
        let counters = rpu.inner().counters();
        let sw = rpu.sw_cycles();
        let wd = rpu.watchdog_fires();
        let busy_slots = sys.tracker().free_count(r) < sys.config().slots_per_rpu;

        let halted = rpu.is_halted() || rpu.state() == RpuState::Stopped;
        let watchdog_fired = wd > self.watch[r].last_watchdog_fires;
        let stalled = sw == self.watch[r].last_sw_cycles && busy_slots;
        let rx_delta = counters.rx_frames - self.watch[r].last_rx_frames;
        let drop_delta = counters.drops - self.watch[r].last_drops;
        let dropping =
            drop_delta > 8 && (drop_delta as f64) > DROP_FRACTION * (rx_delta.max(1) as f64);

        let w = &mut self.watch[r];
        w.last_sw_cycles = sw;
        w.last_rx_frames = counters.rx_frames;
        w.last_drops = counters.drops;
        w.last_watchdog_fires = wd;

        let kind = if halted {
            Some(RpuFaultKind::Halted)
        } else if watchdog_fired {
            Some(RpuFaultKind::Hung)
        } else if stalled {
            w.stalled_polls += 1;
            if w.stalled_polls >= STALL_POLLS {
                Some(RpuFaultKind::Hung)
            } else {
                None
            }
        } else if dropping {
            Some(RpuFaultKind::Dropping)
        } else {
            w.stalled_polls = 0;
            None
        };

        if let Some(kind) = kind {
            w.kind = kind;
            w.detected_at = now;
            w.fault_at = sys.last_fault_at(r);
            w.purged = 0;
            w.forced = false;
            w.retries = 0;
            w.stalled_polls = 0;
            // Rung 1: stop routing traffic to it *now* (graceful
            // degradation across the remaining RPUs) and poke it.
            sys.trace_supervisor(r, SupervisorStep::Detected(kind));
            host(sys, HostOp::Disable { rpu: r });
            host(sys, HostOp::Poke { rpu: r });
            w.rung = Rung::Poked {
                until: now + POKE_GRACE,
            };
        }
    }

    /// Closes out a recovery: writes the record to the host log and resets
    /// the detector baselines against the (possibly brand-new) region.
    fn finish(&mut self, sys: &mut Rosebud, r: usize, now: Cycle, rebooted: bool) {
        let w = &mut self.watch[r];
        let event = RecoveryEvent {
            rpu: r,
            kind: w.kind,
            detected_at: w.detected_at,
            fault_at: w.fault_at,
            detection_latency: w.fault_at.map(|f| w.detected_at.saturating_sub(f)),
            reenabled_at: now,
            downtime: now.saturating_sub(w.detected_at),
            packets_purged: w.purged,
            forced: w.forced,
            retries: w.retries,
        };
        let _ = rebooted;
        w.rung = Rung::Healthy;
        w.stalled_polls = 0;
        let rpu = &sys.rpus()[r];
        w.last_sw_cycles = rpu.sw_cycles();
        w.last_watchdog_fires = rpu.watchdog_fires();
        let counters = rpu.inner().counters();
        w.last_rx_frames = counters.rx_frames;
        w.last_drops = counters.drops;
        sys.log_recovery(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::RpuProgram;
    use crate::{Desc, FaultKind, FaultPlan, Firmware, Harness, RosebudConfig, RpuIo};
    use rosebud_net::FixedSizeGen;

    struct PacedForwarder;
    impl Firmware for PacedForwarder {
        fn tick(&mut self, io: &mut RpuIo<'_>) {
            if let Some(desc) = io.rx_pop() {
                io.charge(15);
                io.send(Desc {
                    port: desc.port ^ 1,
                    ..desc
                });
            }
        }
    }

    fn harness(rpus: usize) -> Harness {
        let sys = crate::Rosebud::builder(RosebudConfig::with_rpus(rpus))
            .firmware(|_| RpuProgram::Native(Box::new(PacedForwarder)))
            .build()
            .unwrap();
        Harness::new(sys, Box::new(FixedSizeGen::new(256, 2)), 20.0)
    }

    #[test]
    fn crash_is_detected_and_region_recycled() {
        let mut h = harness(4);
        h.sys
            .install_fault_plan(FaultPlan::new(3).at(10_000, FaultKind::FirmwareCrash { rpu: 2 }));
        let mut sup = Supervisor::new(&h.sys);
        for _ in 0..200_000 {
            h.tick();
            sup.poll(&mut h.sys);
            if !h.sys.recovery_log().is_empty() && !sup.recovering() {
                break;
            }
        }
        let log = h.sys.recovery_log();
        assert_eq!(log.len(), 1, "exactly one recovery: {log:?}");
        let ev = log[0];
        assert_eq!(ev.rpu, 2);
        assert_eq!(ev.kind, RpuFaultKind::Halted);
        assert!(ev.detection_latency.unwrap() <= 1024, "{ev:?}");
        assert!(ev.downtime >= h.sys.config().pr_cycles, "{ev:?}");
        assert_eq!(h.sys.enabled_mask(), 0b1111);
        assert!(h.sys.rpus()[2].state() == crate::RpuState::Running);
        h.sys.assert_conservation();
    }

    #[test]
    fn false_alarm_does_not_reload() {
        // No faults: the supervisor must stay quiet over a long busy run.
        let mut h = harness(4);
        let mut sup = Supervisor::new(&h.sys);
        for _ in 0..60_000 {
            h.tick();
            sup.poll(&mut h.sys);
        }
        assert!(h.sys.recovery_log().is_empty());
        assert_eq!(h.sys.enabled_mask(), 0b1111);
    }

    #[test]
    fn host_outage_delays_but_does_not_prevent_recovery() {
        let mut h = harness(4);
        h.sys.install_fault_plan(
            FaultPlan::new(5)
                .at(9_000, FaultKind::HostDmaOutage { cycles: 30_000 })
                .at(10_000, FaultKind::FirmwareCrash { rpu: 1 }),
        );
        let mut sup = Supervisor::new(&h.sys);
        for _ in 0..300_000 {
            h.tick();
            sup.poll(&mut h.sys);
            if !h.sys.recovery_log().is_empty() && !sup.recovering() {
                break;
            }
        }
        assert!(sup.link_retries() > 0, "outage must force retries");
        let log = h.sys.recovery_log();
        assert_eq!(log.len(), 1, "{log:?}");
        assert!(
            log[0].detected_at >= 39_000,
            "detection had to wait for link-up: {:?}",
            log[0]
        );
        assert_eq!(h.sys.enabled_mask(), 0b1111);
    }
}
