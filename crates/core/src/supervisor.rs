//! The self-healing host supervisor (§3.4, Appendix A.8), at both scales.
//!
//! The paper's operational argument is that a Rosebud deployment survives
//! firmware failure without operator intervention: the host "can see if any
//! of the cores are hung" from the counter block, evicts the offender, and
//! partial reconfiguration "loads a new bit file" while the load balancer
//! carries traffic on the remaining regions. A rack survives a dead box the
//! same way one level up. Both are one recovery ladder ([`Rung`]), written
//! once ([`Ladder`]) over what each [`Scale`] senses and does — DESIGN.md
//! tabulates the two. [`Supervisor`] walks a box's RPUs; [`FleetSupervisor`]
//! walks a rack's boxes and one [`Supervisor`] per box underneath.
//!
//! A supervisor never hands traffic to a unit it has not seen come back.
//! Detection is limited to what a real host can see: the halt flag, the
//! watchdog-expiry counter, free-slot levels, per-RPU counters, and probe
//! round trips. The injected-fault oracle ([`crate::Rpu::is_hung`]) is
//! never consulted.
//!
//! A supervisor is the paper's host program and keeps its own notes: its
//! steps and its records. The device writes none down, so a supervised box
//! equals an unsupervised replay of the ops the ladder applied. Nor can it
//! know when a fault landed: [`RecoveryEvent::timed`] reads that off the plan.

use std::fmt;

use rosebud_kernel::Cycle;

use crate::diag::RpuFaultKind;
use crate::fault::{FaultKind, FaultPlan};
use crate::fleet::Fleet;
use crate::host::{HostOp, HostReply};
use crate::rpu::{Rpu, RpuState};
use crate::system::Rosebud;

/// Misses in a row that declare a unit faulty (stalled polls of a busy RPU,
/// timed-out probes of a box) or fail a box on probation.
const STRIKES: u32 = 3;
/// How long a drain may run before the deadline action, at both scales.
const DRAIN_TIMEOUT: Cycle = 4_000;

/// Cycles between polls of a box's host-visible state.
const POLL_INTERVAL: Cycle = 512;
/// Drop-rate trigger: an RPU whose drops exceed this share of its received
/// frames (with a small absolute floor) is recycled.
const DROP_FRACTION: f64 = 0.5;
/// Base backoff after a failed host-link access; doubles per retry.
const BACKOFF: Cycle = 512;
/// Ceiling on the exponential host-link backoff.
const BACKOFF_CAP: Cycle = 32_768;

/// Cycles between health probes of a healthy box.
const PROBE_INTERVAL: Cycle = 1_024;
/// A probe RTT above this is a miss.
const PROBE_TIMEOUT: Cycle = 256;
/// Base re-probe backoff after a miss; doubles per miss in a row.
const PROBE_BACKOFF: Cycle = 256;
/// Ceiling on the probe backoff.
const PROBE_BACKOFF_CAP: Cycle = 8_192;
/// Cycles a whole-box PR reload keeps the box dark (the full-bitstream
/// cost; per-RPU PR inside a box is two orders cheaper, §5.4).
const BOX_RELOAD_CYCLES: Cycle = 8_000;

/// `base` doubled `doublings` times, capped at `cap`.
fn backoff(base: Cycle, cap: Cycle, doublings: u32) -> Cycle {
    base.checked_shl(doublings).unwrap_or(Cycle::MAX).min(cap)
}

/// Where one unit sits on the ladder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Rung {
    /// No fault suspected.
    #[default]
    Healthy,
    /// Out of rotation; drains at `until` unless it shows life first.
    Isolated { until: Cycle },
    /// Draining; the deadline action fires at `deadline`.
    Draining { deadline: Cycle },
    /// Bitstream written and booting since `since`.
    Reloading { since: Cycle },
    /// Booted; readmitted after enough clean reads.
    Verifying,
}

/// What the ladder asks a unit's sensor, by rung.
enum Ask {
    /// Healthy: is anything wrong?
    Health,
    /// Isolated: did it show life?
    Grace,
    /// Verifying: did it come back?
    Boot,
}

/// One read of a unit's sensor.
enum Reading<K> {
    /// Looks fine.
    Ok,
    /// Looks wrong; the third in a row means `K`.
    Miss(K),
    /// Is broken: means `K` at once.
    Fault(K),
    /// Says nothing yet.
    Quiet,
}

/// One unit's position on the ladder, and the recovery in progress.
#[derive(Debug, Clone, Copy, Default)]
struct Watch {
    rung: Rung,
    /// Misses in a row.
    strikes: u32,
    /// Clean reads in a row while verifying.
    streak: u32,
    detected_at: Cycle,
    drained_at: Cycle,
    /// What the reloads destroyed.
    purged: u64,
    /// Whether the drain ran into its deadline.
    forced: bool,
    /// Reloads so far: none means a false alarm, two a failed boot.
    reloads: u32,
    /// Host-link retries this recovery waited out (RPU scale: PCIe down).
    retries: u32,
}

/// The unit a scale's action is taken on, the cycle it is taken at, and the
/// ladder's log the action notes its steps in.
struct At<'a, T> {
    unit: usize,
    now: Cycle,
    log: &'a mut Vec<(Cycle, usize, T)>,
}

impl<'a, T> At<'a, T> {
    fn new(unit: usize, now: Cycle, log: &'a mut Vec<(Cycle, usize, T)>) -> Self {
        Self { unit, now, log }
    }

    fn note(&mut self, step: T) {
        self.log.push((self.now, self.unit, step));
    }
}

/// What one scale of the ladder senses and does, each action noting its own
/// steps; [`Ladder`] decides when.
trait Scale {
    /// What the units live in.
    type Sys;
    /// What detection concludes.
    type Kind;
    /// One step, as the ladder's log notes it.
    type Step;
    /// What a completed recovery leaves behind.
    type Record;
    /// Grace an isolated unit gets to show life before the drain.
    const GRACE: Option<Cycle>;
    /// Clean reads a verifying unit needs for readmission.
    const PROBATION: u32;

    fn read(&mut self, sys: &Self::Sys, u: usize, ask: Ask) -> Reading<Self::Kind>;
    /// The `strikes`-th miss in a row.
    fn missed(&mut self, _at: At<'_, Self::Step>, _strikes: u32) {}
    /// Declares the unit faulty and takes it out of rotation.
    fn isolate(&mut self, sys: &mut Self::Sys, at: At<'_, Self::Step>, kind: Self::Kind);
    fn drain(&mut self, sys: &mut Self::Sys, at: At<'_, Self::Step>);
    fn drained(&self, sys: &Self::Sys, u: usize) -> bool;
    /// Purges what is left (all of it when `forced`) and starts the reload;
    /// returns what it purged.
    fn reload(&mut self, sys: &mut Self::Sys, at: At<'_, Self::Step>, forced: bool) -> u64;
    /// Whether the unit reloading `since` has booted.
    fn booted(&mut self, sys: &mut Self::Sys, at: At<'_, Self::Step>, since: Cycle) -> bool;
    /// Returns the unit to rotation; the recovery's record.
    fn readmit(&mut self, sys: &mut Self::Sys, at: At<'_, Self::Step>, w: &Watch) -> Self::Record;
}

/// The rung machine over the units of one scale, and its notes: every step
/// taken, `(cycle, unit, step)`, and every completed recovery.
#[derive(Debug)]
struct Ladder<S: Scale> {
    scale: S,
    watch: Vec<Watch>,
    steps: Vec<(Cycle, usize, S::Step)>,
    records: Vec<S::Record>,
}

impl<S: Scale> Ladder<S> {
    fn new(scale: S, units: usize) -> Self {
        Self {
            scale,
            watch: vec![Watch::default(); units],
            steps: Vec::new(),
            records: Vec::new(),
        }
    }

    fn recovering(&self) -> bool {
        self.watch.iter().any(|w| w.rung != Rung::Healthy)
    }

    /// Moves unit `u` up at most one rung.
    fn step(&mut self, sys: &mut S::Sys, u: usize, now: Cycle) {
        match self.watch[u].rung {
            Rung::Healthy => match self.scale.read(sys, u, Ask::Health) {
                Reading::Ok => self.watch[u].strikes = 0,
                Reading::Miss(kind) => {
                    if self.strike(u, now) {
                        self.declare(sys, u, kind, now);
                    }
                }
                Reading::Fault(kind) => self.declare(sys, u, kind, now),
                Reading::Quiet => {}
            },
            Rung::Isolated { until } => {
                if matches!(self.scale.read(sys, u, Ask::Grace), Reading::Ok) {
                    self.readmit(sys, u, now);
                } else if now >= until {
                    self.drain(sys, u, now);
                }
            }
            Rung::Draining { deadline } => {
                let clean = self.scale.drained(sys, u);
                if clean || now >= deadline {
                    self.watch[u].drained_at = now;
                    self.watch[u].forced = !clean;
                    self.reload(sys, u, now, !clean);
                }
            }
            Rung::Reloading { since } => {
                let at = At::new(u, now, &mut self.steps);
                if self.scale.booted(sys, at, since) {
                    self.watch[u].rung = Rung::Verifying;
                    self.watch[u].streak = 0;
                }
            }
            Rung::Verifying => match self.scale.read(sys, u, Ask::Boot) {
                Reading::Ok => {
                    self.watch[u].streak += 1;
                    if self.watch[u].streak >= S::PROBATION {
                        self.readmit(sys, u, now);
                    }
                }
                Reading::Miss(_) => {
                    self.watch[u].streak = 0;
                    if self.strike(u, now) {
                        self.reload(sys, u, now, true);
                    }
                }
                Reading::Fault(_) => self.reload(sys, u, now, true),
                Reading::Quiet => {}
            },
        }
    }

    /// Counts a miss: `true` on the third in a row.
    fn strike(&mut self, u: usize, now: Cycle) -> bool {
        self.watch[u].strikes += 1;
        let strikes = self.watch[u].strikes;
        let at = At::new(u, now, &mut self.steps);
        self.scale.missed(at, strikes);
        strikes >= STRIKES
    }

    fn declare(&mut self, sys: &mut S::Sys, u: usize, kind: S::Kind, now: Cycle) {
        self.watch[u] = Watch {
            detected_at: now,
            ..Watch::default()
        };
        let at = At::new(u, now, &mut self.steps);
        self.scale.isolate(sys, at, kind);
        match S::GRACE {
            Some(grace) => self.watch[u].rung = Rung::Isolated { until: now + grace },
            None => self.drain(sys, u, now),
        }
    }

    fn drain(&mut self, sys: &mut S::Sys, u: usize, now: Cycle) {
        self.scale.drain(sys, At::new(u, now, &mut self.steps));
        self.watch[u].rung = Rung::Draining {
            deadline: now + DRAIN_TIMEOUT,
        };
    }

    fn reload(&mut self, sys: &mut S::Sys, u: usize, now: Cycle, forced: bool) {
        let at = At::new(u, now, &mut self.steps);
        let purged = self.scale.reload(sys, at, forced);
        let w = &mut self.watch[u];
        w.purged += purged;
        w.reloads += 1;
        w.strikes = 0;
        w.rung = Rung::Reloading { since: now };
    }

    /// The one place a recovery ends.
    fn readmit(&mut self, sys: &mut S::Sys, u: usize, now: Cycle) {
        let done = self.watch[u];
        let at = At::new(u, now, &mut self.steps);
        let record = self.scale.readmit(sys, at, &done);
        self.records.push(record);
        self.watch[u].rung = Rung::Healthy;
        self.watch[u].strikes = 0;
    }
}

/// One rung of the RPU ladder, as [`Supervisor::steps`] notes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorStep {
    /// The detector concluded the RPU is faulty; it has been LB-disabled and
    /// poked (rung 1).
    Detected(RpuFaultKind),
    /// The poke proved the region alive: false alarm, traffic restored.
    FalseAlarm,
    /// Graceful eviction started — bounded drain before reconfiguration
    /// (rung 2).
    DrainStarted,
    /// The drain timed out: in-flight work destroyed, reload forced (rung 3).
    ForcedEvict {
        /// Slot-bound packets destroyed by the eviction.
        purged: u64,
    },
    /// The PR bitstream write / firmware reboot is underway (rung 4).
    Reloading,
    /// Fresh firmware booted; the supervisor is verifying forward progress.
    Verifying,
    /// Verification passed: the LB enable bit is back (rung 5).
    Reenabled,
}

impl fmt::Display for SupervisorStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SupervisorStep::Detected(kind) => write!(f, "detected kind={kind}"),
            SupervisorStep::FalseAlarm => f.write_str("false-alarm"),
            SupervisorStep::DrainStarted => f.write_str("drain"),
            SupervisorStep::ForcedEvict { purged } => write!(f, "forced-evict purged={purged}"),
            SupervisorStep::Reloading => f.write_str("reload"),
            SupervisorStep::Verifying => f.write_str("verify"),
            SupervisorStep::Reenabled => f.write_str("reenabled"),
        }
    }
}

/// One completed RPU recovery, as [`Supervisor::recoveries`] notes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// The recovered RPU.
    pub rpu: usize,
    /// What the detector concluded.
    pub kind: RpuFaultKind,
    /// Cycle at which the supervisor detected the fault.
    pub detected_at: Cycle,
    /// Cycle of the injected fault, once [`timed`](Self::timed) against the
    /// plan that injected it; the supervisor leaves it `None`.
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
    pub(crate) retries: u32,
}

impl RecoveryEvent {
    /// This record with `fault_at` and `detection_latency` read off `plan`:
    /// the last [`FirmwareHang`](FaultKind::FirmwareHang) or
    /// [`FirmwareCrash`](FaultKind::FirmwareCrash) op on its RPU stamped at
    /// or before detection. In a fleet's plan, `device` names the box whose
    /// [`HostOp::Box`] ops count; `None` reads a box's own plan.
    pub fn timed(self, plan: &FaultPlan, device: Option<usize>) -> Self {
        let hits = |op: &HostOp| {
            use FaultKind::{FirmwareCrash, FirmwareHang};
            matches!(*op, HostOp::Fault(FirmwareHang { rpu } | FirmwareCrash { rpu }) if rpu == self.rpu)
        };
        let fault_at = plan.ops().iter().rev().find_map(|(at, op)| {
            let hit = match (device, op) {
                (None, op) => hits(op),
                (Some(d), HostOp::Box { device, op }) => *device == d && hits(op),
                _ => false,
            };
            (hit && *at <= self.detected_at).then_some(*at)
        });
        Self {
            fault_at,
            detection_latency: fault_at.map(|f| self.detected_at.saturating_sub(f)),
            ..self
        }
    }
}

/// Does `op` to `sys`: what the ladder asks of an RPU it watches is never
/// refused.
fn host(sys: &mut Rosebud, op: HostOp) -> HostReply {
    sys.apply(op)
        .expect("the supervisor addresses RPUs the box has")
}

/// One RPU's detector baselines, and the kind its record needs beyond the
/// [`Watch`].
#[derive(Debug, Clone, Copy)]
struct Baseline {
    sw_cycles: u64,
    rx_frames: u64,
    drops: u64,
    watchdog_fires: u64,
    kind: RpuFaultKind,
}

impl Baseline {
    fn rebase(&mut self, rpu: &Rpu) {
        let counters = rpu.inner().counters();
        self.sw_cycles = rpu.sw_cycles();
        self.watchdog_fires = rpu.watchdog_fires();
        self.rx_frames = counters.rx_frames;
        self.drops = counters.drops;
    }
}

/// A box's RPUs, as the host sees them over PCIe.
#[derive(Debug)]
struct Rpus(Vec<Baseline>);

impl Scale for Rpus {
    type Sys = Rosebud;
    type Kind = RpuFaultKind;
    type Step = SupervisorStep;
    type Record = RecoveryEvent;
    /// A poked core that shows life within one poll interval was a false
    /// alarm.
    const GRACE: Option<Cycle> = Some(POLL_INTERVAL);
    const PROBATION: u32 = 1;

    fn read(&mut self, sys: &Rosebud, r: usize, ask: Ask) -> Reading<RpuFaultKind> {
        let rpu = &sys.rpus()[r];
        let b = &mut self.0[r];
        let running = rpu.state() == RpuState::Running && !rpu.is_halted();
        match ask {
            Ask::Health => {
                let counters = rpu.inner().counters();
                let busy_slots = sys.tracker().free_count(r) < sys.config().slots_per_rpu;
                let halted = rpu.is_halted() || rpu.state() == RpuState::Stopped;
                let watchdog_fired = rpu.watchdog_fires() > b.watchdog_fires;
                let stalled = rpu.sw_cycles() == b.sw_cycles && busy_slots;
                let rx_delta = counters.rx_frames - b.rx_frames;
                let drop_delta = counters.drops - b.drops;
                let dropping = drop_delta > 8
                    && (drop_delta as f64) > DROP_FRACTION * (rx_delta.max(1) as f64);
                b.rebase(rpu);
                if halted {
                    Reading::Fault(RpuFaultKind::Halted)
                } else if watchdog_fired {
                    Reading::Fault(RpuFaultKind::Hung)
                } else if stalled {
                    Reading::Miss(RpuFaultKind::Hung)
                } else if dropping {
                    Reading::Fault(RpuFaultKind::Dropping)
                } else {
                    Reading::Ok
                }
            }
            Ask::Grace => {
                // Did the poke shake it loose? Progress plus a live state
                // means a false alarm (or a transient).
                let alive = running
                    && rpu.sw_cycles() > b.sw_cycles
                    && rpu.watchdog_fires() == b.watchdog_fires;
                if alive && b.kind != RpuFaultKind::Dropping {
                    Reading::Ok
                } else {
                    Reading::Quiet
                }
            }
            Ask::Boot => {
                if running && rpu.sw_cycles() > b.sw_cycles {
                    Reading::Ok
                } else if rpu.is_halted() {
                    // The fresh firmware died on boot.
                    Reading::Fault(RpuFaultKind::Halted)
                } else {
                    Reading::Quiet
                }
            }
        }
    }

    fn isolate(&mut self, sys: &mut Rosebud, mut at: At<'_, SupervisorStep>, kind: RpuFaultKind) {
        let r = at.unit;
        self.0[r].kind = kind;
        // Stop routing traffic to it now (graceful degradation across the
        // remaining RPUs) and poke it.
        at.note(SupervisorStep::Detected(kind));
        host(sys, HostOp::Disable { rpu: r });
        host(sys, HostOp::Poke { rpu: r });
    }

    fn drain(&mut self, sys: &mut Rosebud, mut at: At<'_, SupervisorStep>) {
        let rpu = at.unit;
        at.note(SupervisorStep::DrainStarted);
        host(sys, HostOp::Reload { rpu, gated: true });
    }

    fn drained(&self, sys: &Rosebud, r: usize) -> bool {
        // The gated reload starts the PR write once the region is empty.
        matches!(sys.rpus()[r].state(), RpuState::Reconfiguring { .. })
    }

    fn reload(&mut self, sys: &mut Rosebud, mut at: At<'_, SupervisorStep>, forced: bool) -> u64 {
        let mut purged = 0;
        if forced {
            // The region will never drain, or its fresh firmware died:
            // destroy its in-flight work and force the reload.
            let HostReply::Purged(n) = host(sys, HostOp::ForceReload { rpu: at.unit }) else {
                unreachable!("a forced reload answers with its purge count");
            };
            purged = n;
            at.note(SupervisorStep::ForcedEvict { purged });
        }
        at.note(SupervisorStep::Reloading);
        purged
    }

    fn booted(&mut self, sys: &mut Rosebud, mut at: At<'_, SupervisorStep>, _since: Cycle) -> bool {
        let r = at.unit;
        // The factory firmware boots inside `finish_reconfigure`.
        if sys.reconfigure_pending(r) {
            return false;
        }
        at.note(SupervisorStep::Verifying);
        // Verification asks for progress past this baseline.
        self.0[r].sw_cycles = sys.rpus()[r].sw_cycles();
        true
    }

    fn readmit(
        &mut self,
        sys: &mut Rosebud,
        mut at: At<'_, SupervisorStep>,
        w: &Watch,
    ) -> RecoveryEvent {
        let (r, now) = (at.unit, at.now);
        at.note(match w.reloads {
            0 => SupervisorStep::FalseAlarm,
            _ => SupervisorStep::Reenabled,
        });
        host(sys, HostOp::Enable { rpu: r });
        let b = &mut self.0[r];
        b.rebase(&sys.rpus()[r]);
        RecoveryEvent {
            rpu: r,
            kind: b.kind,
            detected_at: w.detected_at,
            fault_at: None,
            detection_latency: None,
            reenabled_at: now,
            downtime: now.saturating_sub(w.detected_at),
            packets_purged: w.purged,
            // The reload after a failed boot is forced too.
            forced: w.forced || w.reloads > 1,
            retries: w.retries,
        }
    }
}

/// The polling host agent for one box's RPUs. Drive it with
/// [`Supervisor::poll`] after every tick; it paces itself.
#[derive(Debug)]
pub struct Supervisor {
    ladder: Ladder<Rpus>,
    next_poll: Cycle,
    link_retries: u64,
}

impl Supervisor {
    /// A supervisor for `sys`.
    pub fn new(sys: &Rosebud) -> Self {
        let fresh = Baseline {
            sw_cycles: 0,
            rx_frames: 0,
            drops: 0,
            watchdog_fires: 0,
            kind: RpuFaultKind::Hung,
        };
        let n = sys.rpus().len();
        Self {
            ladder: Ladder::new(Rpus(vec![fresh; n]), n),
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
        self.ladder.recovering()
    }

    /// Every step taken, `(cycle, rpu, step)`, oldest first.
    pub fn steps(&self) -> &[(Cycle, usize, SupervisorStep)] {
        &self.ladder.steps
    }

    /// Completed recoveries, oldest first, untimed (see
    /// [`RecoveryEvent::timed`]).
    pub fn recoveries(&self) -> &[RecoveryEvent] {
        &self.ladder.records
    }

    /// One `recovery:` line per completed recovery, each timed against
    /// `plan` — the host's recovery report beside the box's
    /// [`Diagnostics`](crate::Diagnostics).
    pub fn render(&self, plan: &FaultPlan) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for ev in self.recoveries().iter().map(|ev| ev.timed(plan, None)) {
            let (rpu, kind, at) = (ev.rpu, ev.kind, ev.detected_at);
            let latency = ev.detection_latency.map(|l| format!(" ({l} after fault)"));
            let forced = if ev.forced { ", forced eviction" } else { "" };
            let retries = (ev.retries > 0).then(|| format!(", {} host retries", ev.retries));
            let _ = writeln!(
                out,
                "recovery: RPU {rpu} {kind} — detected @{at} cycle(s){}, down {} cycles, \
                 {} purged{forced}{}",
                latency.unwrap_or_default(),
                ev.downtime,
                ev.packets_purged,
                retries.unwrap_or_default(),
            );
        }
        out
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
            for w in &mut self.ladder.watch {
                if w.rung != Rung::Healthy {
                    w.retries += 1;
                }
            }
            let attempts = self.ladder.watch.iter().map(|w| w.retries).max();
            self.next_poll = now + backoff(BACKOFF, BACKOFF_CAP, attempts.unwrap_or(0));
            return;
        }
        self.next_poll = now + POLL_INTERVAL;
        for r in 0..self.ladder.watch.len() {
            self.ladder.step(sys, r, now);
        }
    }
}

/// One rung of the rack ladder, as [`FleetSupervisor::steps`] notes it. The
/// per-box rungs mirror [`SupervisorStep`] one level up: probes stand in for
/// the watchdog, the consistent-hash ring for the LB enable mask, and a
/// whole-box PR reload for the region bitstream write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetStep {
    /// A health probe timed out (or the box could not answer).
    ProbeMissed {
        /// Consecutive misses so far.
        streak: u32,
    },
    /// Enough consecutive misses: the box is marked unhealthy and its ring
    /// points leave rotation — new flows re-steer, in-flight completes.
    MarkedUnhealthy,
    /// The bounded drain of in-flight packets toward the box began.
    DrainStarted,
    /// The drain finished on its own: every in-flight frame delivered.
    DrainedClean,
    /// The drain deadline expired: front-link and in-box frames destroyed,
    /// accounted as purged in the fleet ledger.
    Purged {
        /// Frames destroyed fleet-wide for this box.
        packets: u64,
    },
    /// The whole-box PR reload/reboot is underway.
    Reloading,
    /// The rebuilt box is on probation, answering probes but carrying no
    /// traffic yet.
    Probation,
    /// Enough consecutive healthy probes: the box's ring points are back.
    Readmitted,
}

impl fmt::Display for FleetStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetStep::ProbeMissed { streak } => write!(f, "probe-missed streak={streak}"),
            FleetStep::MarkedUnhealthy => f.write_str("marked-unhealthy"),
            FleetStep::DrainStarted => f.write_str("drain"),
            FleetStep::DrainedClean => f.write_str("drained-clean"),
            FleetStep::Purged { packets } => write!(f, "purged packets={packets}"),
            FleetStep::Reloading => f.write_str("reload"),
            FleetStep::Probation => f.write_str("probation"),
            FleetStep::Readmitted => f.write_str("readmitted"),
        }
    }
}

/// One entry of the rack ladder's log: `(cycle, box, step)`.
pub type FleetLogEntry = (Cycle, usize, FleetStep);

/// A completed box failover, from detection to re-admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverRecord {
    /// The box that failed over.
    pub device: usize,
    /// Cycle the box was marked unhealthy (probe-miss threshold reached).
    pub detected_at: Cycle,
    /// Cycle the drain completed (clean or by deadline purge).
    pub drained_at: Cycle,
    /// Whether the drain completed without purging anything.
    pub graceful: bool,
    /// Frames destroyed by the deadline purge (front link plus in-box).
    pub packets_purged: u64,
    /// Cycle the box re-entered rotation after probation.
    pub readmitted_at: Cycle,
    /// `readmitted_at - detected_at`.
    pub downtime: Cycle,
    /// Flows whose steering changed while the box was out of rotation.
    pub flows_resteered: u64,
}

/// A rack's boxes, as the front LB's health probes see them.
struct Boxes {
    /// Each box's RPU ladder, polled while the box is manageable.
    rpus: Vec<Supervisor>,
    /// Each box is not probed before this cycle.
    next_probe: Vec<Cycle>,
    /// [`Fleet::flows_resteered`] when each box was pulled.
    resteered_at: Vec<u64>,
}

impl Scale for Boxes {
    type Sys = Fleet;
    type Kind = ();
    type Step = FleetStep;
    type Record = FailoverRecord;
    const GRACE: Option<Cycle> = None;
    /// Healthy probes in a row a reloaded box passes before re-admission.
    const PROBATION: u32 = 3;

    fn read(&mut self, fleet: &Fleet, b: usize, _ask: Ask) -> Reading<()> {
        if fleet.now() < self.next_probe[b] {
            return Reading::Quiet;
        }
        if fleet.probe_rtt(b).is_some_and(|rtt| rtt <= PROBE_TIMEOUT) {
            self.next_probe[b] = fleet.now() + PROBE_INTERVAL;
            Reading::Ok
        } else {
            Reading::Miss(())
        }
    }

    fn missed(&mut self, mut at: At<'_, FleetStep>, strikes: u32) {
        at.note(FleetStep::ProbeMissed { streak: strikes });
        let wait = backoff(PROBE_BACKOFF, PROBE_BACKOFF_CAP, strikes - 1);
        self.next_probe[at.unit] = at.now + wait;
    }

    fn isolate(&mut self, fleet: &mut Fleet, mut at: At<'_, FleetStep>, _kind: ()) {
        at.note(FleetStep::MarkedUnhealthy);
        self.resteered_at[at.unit] = fleet.flows_resteered();
        fleet.ring_remove(at.unit);
    }

    fn drain(&mut self, _fleet: &mut Fleet, mut at: At<'_, FleetStep>) {
        at.note(FleetStep::DrainStarted);
    }

    fn drained(&self, fleet: &Fleet, b: usize) -> bool {
        fleet.box_quiesced(b)
    }

    fn reload(&mut self, fleet: &mut Fleet, mut at: At<'_, FleetStep>, forced: bool) -> u64 {
        let b = at.unit;
        if !forced {
            at.note(FleetStep::DrainedClean);
        }
        let purged = fleet.begin_reload(b);
        if purged > 0 {
            at.note(FleetStep::Purged { packets: purged });
        }
        at.note(FleetStep::Reloading);
        // The rebuilt box gets a fresh RPU ladder: the old one's watch state
        // describes hardware that no longer exists.
        self.rpus[b] = Supervisor::new(fleet.sys(b));
        purged
    }

    fn booted(&mut self, fleet: &mut Fleet, mut at: At<'_, FleetStep>, since: Cycle) -> bool {
        if at.now < since + BOX_RELOAD_CYCLES {
            return false;
        }
        fleet.finish_reload(at.unit);
        at.note(FleetStep::Probation);
        self.next_probe[at.unit] = at.now + PROBE_INTERVAL;
        true
    }

    fn readmit(
        &mut self,
        fleet: &mut Fleet,
        mut at: At<'_, FleetStep>,
        w: &Watch,
    ) -> FailoverRecord {
        let (b, now) = (at.unit, at.now);
        fleet.ring_restore(b);
        at.note(FleetStep::Readmitted);
        FailoverRecord {
            device: b,
            detected_at: w.detected_at,
            drained_at: w.drained_at,
            graceful: !w.forced,
            packets_purged: w.purged,
            readmitted_at: now,
            downtime: now.saturating_sub(w.detected_at),
            flows_resteered: fleet.flows_resteered().saturating_sub(self.resteered_at[b]),
        }
    }
}

/// The rack-scale ladder: health probes with deterministic timeout and
/// backoff → mark-unhealthy → drain (ring removal re-steers only the failed
/// box's flows; in-flight frames complete against the ledger) → whole-box
/// PR reload → probation → re-admission.
///
/// It also drives one [`Supervisor`] per manageable box, so the intra-box
/// ladder keeps running underneath.
pub struct FleetSupervisor {
    ladder: Ladder<Boxes>,
}

impl FleetSupervisor {
    /// A supervisor over `fleet`.
    pub fn new(fleet: &Fleet) -> Self {
        let n = fleet.num_boxes();
        let boxes = Boxes {
            rpus: (0..n).map(|b| Supervisor::new(fleet.sys(b))).collect(),
            next_probe: vec![PROBE_INTERVAL; n],
            resteered_at: vec![0; n],
        };
        Self {
            ladder: Ladder::new(boxes, n),
        }
    }

    /// Whether any box is on a ladder rung other than healthy.
    pub fn recovering(&self) -> bool {
        self.ladder.recovering()
    }

    /// Every step taken, oldest first.
    pub fn steps(&self) -> &[FleetLogEntry] {
        &self.ladder.steps
    }

    /// Completed failovers, in completion order.
    pub fn failovers(&self) -> &[FailoverRecord] {
        &self.ladder.records
    }

    /// The RPU ladder of box `device`'s current incarnation: a reload
    /// starts a fresh one.
    pub fn rpus(&self, device: usize) -> &Supervisor {
        &self.ladder.scale.rpus[device]
    }

    /// The steps rendered one per line.
    pub fn log_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (at, device, step) in self.steps() {
            let _ = writeln!(out, "[{at:>8}] box {device}: {step}");
        }
        out
    }

    /// One supervisory step: polls the RPU ladders of manageable boxes, then
    /// advances each box's rung. Call once per cycle, before the fleet's
    /// [`tick`](crate::Device::tick).
    pub fn poll(&mut self, fleet: &mut Fleet) {
        let now = fleet.now();
        for (b, rpus) in self.ladder.scale.rpus.iter_mut().enumerate() {
            if let Some(sys) = fleet.manageable_box(b) {
                rpus.poll(sys);
            }
        }
        for b in 0..fleet.num_boxes() {
            self.ladder.step(fleet, b, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::RpuProgram;
    use crate::{Desc, Firmware, Harness, RosebudConfig, RpuIo};
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
        let plan = FaultPlan::new().at(10_000, FaultKind::FirmwareCrash { rpu: 2 });
        let mut h = harness(4).faults(plan.clone());
        let mut sup = Supervisor::new(&h.sys);
        for _ in 0..200_000 {
            h.tick();
            sup.poll(&mut h.sys);
            if !sup.recoveries().is_empty() && !sup.recovering() {
                break;
            }
        }
        let log = sup.recoveries();
        assert_eq!(log.len(), 1, "exactly one recovery: {log:?}");
        let ev = log[0].timed(&plan, None);
        assert_eq!(ev.rpu, 2);
        assert_eq!(ev.kind, RpuFaultKind::Halted);
        assert_eq!(ev.fault_at, Some(10_000));
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
        assert!(sup.recoveries().is_empty());
        assert!(sup.steps().is_empty());
        assert_eq!(h.sys.enabled_mask(), 0b1111);
    }

    #[test]
    fn host_outage_delays_but_does_not_prevent_recovery() {
        let mut h = harness(4).faults(
            FaultPlan::new()
                .at(9_000, FaultKind::HostDmaOutage { cycles: 30_000 })
                .at(10_000, FaultKind::FirmwareCrash { rpu: 1 }),
        );
        let mut sup = Supervisor::new(&h.sys);
        for _ in 0..300_000 {
            h.tick();
            sup.poll(&mut h.sys);
            if !sup.recoveries().is_empty() && !sup.recovering() {
                break;
            }
        }
        assert!(sup.link_retries() > 0, "outage must force retries");
        let log = sup.recoveries();
        assert_eq!(log.len(), 1, "{log:?}");
        assert!(
            log[0].detected_at >= 39_000,
            "detection had to wait for link-up: {:?}",
            log[0]
        );
        assert_eq!(h.sys.enabled_mask(), 0b1111);
    }

    /// The plan's last firmware fault on the record's RPU at or before
    /// detection, in a box's plan and in a fleet's.
    #[test]
    fn a_record_is_timed_by_the_last_firmware_fault_before_detection() {
        let ev = RecoveryEvent {
            rpu: 1,
            kind: RpuFaultKind::Hung,
            detected_at: 500,
            fault_at: None,
            detection_latency: None,
            reenabled_at: 900,
            downtime: 400,
            packets_purged: 0,
            forced: false,
            retries: 0,
        };
        let in_box = |rpu, device| HostOp::Box {
            device,
            op: Box::new(FaultKind::FirmwareCrash { rpu }.into()),
        };
        let plan = FaultPlan::new()
            .at(100, FaultKind::FirmwareHang { rpu: 1 })
            .at(200, FaultKind::FirmwareCrash { rpu: 1 })
            .at(300, FaultKind::FirmwareHang { rpu: 0 })
            .at(300, FaultKind::CorruptIngress { rpu: 1, count: 2 })
            .at(400, in_box(1, 2))
            .at(450, in_box(1, 3))
            .at(600, FaultKind::FirmwareHang { rpu: 1 });
        let timed = ev.timed(&plan, None);
        assert_eq!(
            (timed.fault_at, timed.detection_latency),
            (Some(200), Some(300))
        );
        assert_eq!(ev.timed(&plan, Some(2)).fault_at, Some(400));
        assert_eq!(ev.timed(&plan, Some(4)).fault_at, None);
        assert_eq!(ev.timed(&FaultPlan::new(), None), ev);
    }
}
