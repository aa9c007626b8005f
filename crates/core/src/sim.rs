//! What the simulator did to run a box, as opposed to what the box did
//! (DESIGN.md, "The simulator's own counters").
//!
//! Three layers of elision decide where host time goes: whole quiet ticks,
//! lanes asleep (in `wfi`, or native firmware waiting or in a charged
//! stall), and cores parked in a proven poll loop. The counters here say
//! what each layer did, and the optional stage profile says what the ticks
//! that did run cost. None of it describes the device: an elided run and
//! its `wake_all` oracle differ here by design, so these numbers stay out
//! of [`Diagnostics`](crate::Diagnostics), the trace and the ledger, which
//! the differentials compare.
//!
//! Every counter is kept on a branch the simulator already takes; the
//! instruction counts are derived from `minstret` and the closed-form
//! credits of parked cores, not counted per step.

use std::fmt;
use std::ops::AddAssign;

use rosebud_kernel::Cycle;

/// A host clock the stage profile reads: nanoseconds from any fixed origin.
/// The caller hands it in, so the simulation core never reads wall time.
pub(crate) type StageClock = fn() -> u64;

/// The spans the stage profile times: the thirteen stages of
/// [`Rosebud::tick`](crate::Rosebud::tick), then its tail (trace scans,
/// standing checks, the quiet-horizon update).
pub const STAGE_NAMES: [&str; 14] = [
    "faults", "mac_rx", "lb_admit", "ingress", "deliver", "cores", "collect", "route", "mac_tx",
    "loopback", "host", "bcast", "pr", "tail",
];

/// The stage that steps the cores.
const CORES: usize = 5;

/// Host time per tick stage over the full ticks run since the profile was
/// turned on ([`Rosebud::profile_stages`](crate::Rosebud::profile_stages)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageProfile {
    /// Full ticks profiled (quiet ticks run no stage).
    pub(crate) ticks: u64,
    /// Nanoseconds spent in each span of [`STAGE_NAMES`], the clock's own
    /// cost taken out.
    pub(crate) ns: [u64; STAGE_NAMES.len()],
    /// RV32 instructions the cores stepped in those ticks.
    pub(crate) stepped_instrs: u64,
    /// Core loads and stores that reached the interconnect's I/O window in
    /// those ticks.
    pub(crate) io_accesses: u64,
}

impl StageProfile {
    /// Nanoseconds per full tick spent in span `stage` of [`STAGE_NAMES`].
    pub fn ns_per_cycle(&self, stage: usize) -> f64 {
        ratio(self.ns[stage], self.ticks)
    }

    /// Nanoseconds per full tick, all spans.
    pub(crate) fn tick_ns_per_cycle(&self) -> f64 {
        ratio(self.ns.iter().sum(), self.ticks)
    }

    /// In-box nanoseconds per stepped instruction: the core stage's time
    /// over the instructions it stepped (its stall ticks and sweeps
    /// included).
    pub fn ns_per_stepped_instr(&self) -> f64 {
        ratio(self.ns[CORES], self.stepped_instrs)
    }

    /// The ISS's share of tick time: ns per stepped instruction × stepped
    /// instructions ÷ tick ns.
    pub fn iss_share(&self) -> f64 {
        ratio(self.ns[CORES], self.ns.iter().sum())
    }
}

impl AddAssign for StageProfile {
    fn add_assign(&mut self, other: Self) {
        self.ticks += other.ticks;
        for (a, b) in self.ns.iter_mut().zip(other.ns) {
            *a += b;
        }
        self.stepped_instrs += other.stepped_instrs;
        self.io_accesses += other.io_accesses;
    }
}

/// What the simulator did to run a box ([`Rosebud::sim_stats`]). A
/// lane-cycle is one lane for one cycle; each is stepped, parked in a poll
/// loop, or asleep otherwise.
///
/// [`Rosebud::sim_stats`]: crate::Rosebud::sim_stats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Cycles simulated.
    pub(crate) cycles: Cycle,
    /// Ticks taken quiet: one compare, no stage.
    pub(crate) quiet_ticks: u64,
    /// Cycles jumped in closed form by [`Device::skip_quiet`](crate::Device::skip_quiet)
    /// (and [`Rosebud::run`](crate::Rosebud::run)).
    pub(crate) jumped_cycles: u64,
    /// Lanes × cycles.
    pub(crate) lane_cycles: u64,
    /// Lane-cycles whose core the core stage ticked.
    pub(crate) stepped_lane_cycles: u64,
    /// Lane-cycles a core spent parked in a proven poll loop.
    pub(crate) parked_lane_cycles: u64,
    /// RV32 instructions the simulator stepped.
    pub(crate) stepped_instrs: u64,
    /// RV32 instructions credited in closed form to parked cores.
    pub(crate) credited_instrs: u64,
    /// Spin probes opened on a poll miss.
    pub(crate) probes_started: u64,
    /// Probes that ended without a park: their loop is no fixed point, or
    /// the accelerator beside it was busy when it closed.
    pub(crate) probes_refused: u64,
    /// Parks ended by something from outside reaching the lane.
    pub(crate) probes_settled: u64,
    /// Core loads and stores that reached the interconnect's I/O window.
    pub(crate) io_accesses: u64,
    /// Frames the receive MACs took from a driver.
    pub(crate) injects: u64,
    /// Frames the receive MACs handed back to a driver.
    pub(crate) refused_injects: u64,
    /// The stage profile, while one is on.
    pub profile: Option<StageProfile>,
}

impl SimStats {
    /// Ticks that ran every stage.
    pub(crate) fn full_ticks(&self) -> u64 {
        self.cycles - self.quiet_ticks - self.jumped_cycles
    }

    /// Lane-cycles asleep other than in a poll loop: in `wfi`, native
    /// firmware waiting for a frame or a match or in a charged stall tail,
    /// halted, hung or mid-reconfiguration, or in a quiet tick.
    pub(crate) fn asleep_lane_cycles(&self) -> u64 {
        self.lane_cycles - self.stepped_lane_cycles - self.parked_lane_cycles
    }

    /// The share of lane-cycles asleep other than in a poll loop.
    pub fn asleep_share(&self) -> f64 {
        ratio(self.asleep_lane_cycles(), self.lane_cycles)
    }

    /// The share of cycles that ran no stage: quiet ticks and jumps.
    pub fn quiet_share(&self) -> f64 {
        ratio(self.quiet_ticks + self.jumped_cycles, self.cycles)
    }

    /// The share of lane-cycles parked in a poll loop.
    pub fn parked_share(&self) -> f64 {
        ratio(self.parked_lane_cycles, self.lane_cycles)
    }

    /// Offers a driver made that the receive MACs refused, per frame they
    /// took: what backpressure cost the host.
    pub fn refused_per_inject(&self) -> f64 {
        ratio(self.refused_injects, self.injects)
    }

    /// The share of retired RV32 instructions the simulator stepped rather
    /// than credited.
    pub fn stepped_instr_share(&self) -> f64 {
        ratio(
            self.stepped_instrs,
            self.stepped_instrs + self.credited_instrs,
        )
    }
}

impl AddAssign for SimStats {
    fn add_assign(&mut self, other: Self) {
        self.cycles += other.cycles;
        self.quiet_ticks += other.quiet_ticks;
        self.jumped_cycles += other.jumped_cycles;
        self.lane_cycles += other.lane_cycles;
        self.stepped_lane_cycles += other.stepped_lane_cycles;
        self.parked_lane_cycles += other.parked_lane_cycles;
        self.stepped_instrs += other.stepped_instrs;
        self.credited_instrs += other.credited_instrs;
        self.probes_started += other.probes_started;
        self.probes_refused += other.probes_refused;
        self.probes_settled += other.probes_settled;
        self.io_accesses += other.io_accesses;
        self.injects += other.injects;
        self.refused_injects += other.refused_injects;
        self.profile = match (self.profile, other.profile) {
            (Some(mut a), Some(b)) => {
                a += b;
                Some(a)
            }
            (a, b) => a.or(b),
        };
    }
}

/// One line, `key=value` pairs (the control plane's `sim` line).
impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sim full_ticks={} quiet_ticks={} jumped={} stepped_lane_cycles={} \
             parked_lane_cycles={} asleep_lane_cycles={} stepped_instrs={} credited_instrs={} \
             probes={}/{}/{}",
            self.full_ticks(),
            self.quiet_ticks,
            self.jumped_cycles,
            self.stepped_lane_cycles,
            self.parked_lane_cycles,
            self.asleep_lane_cycles(),
            self.stepped_instrs,
            self.credited_instrs,
            self.probes_started,
            self.probes_refused,
            self.probes_settled,
        )?;
        if let Some(p) = &self.profile {
            write!(
                f,
                " tick_ns={:.1} ns_per_instr={:.2} iss_share={:.3}",
                p.tick_ns_per_cycle(),
                p.ns_per_stepped_instr(),
                p.iss_share(),
            )?;
        }
        Ok(())
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The box's own shortcut counters and, when on, its stage profiler.
#[derive(Default)]
pub(crate) struct SimCounts {
    pub(crate) quiet_ticks: u64,
    pub(crate) jumped_cycles: u64,
    pub(crate) refused_injects: u64,
    /// Boxed: cold, and only a profiled run has one.
    pub(crate) profiler: Option<Box<Profiler>>,
}

/// Times the stages of the full ticks it is handed to.
pub(crate) struct Profiler {
    clock: StageClock,
    /// One clock read's own cost, measured when the profile started.
    read_ns: u64,
    last: u64,
    ticks: u64,
    ns: [u64; STAGE_NAMES.len()],
    /// `(stepped instructions, I/O accesses)` when the profile started.
    base: (u64, u64),
}

impl Profiler {
    pub(crate) fn new(clock: StageClock, base: (u64, u64)) -> Self {
        const READS: u64 = 1000;
        let start = clock();
        for _ in 0..READS {
            std::hint::black_box(clock());
        }
        Self {
            clock,
            read_ns: clock().saturating_sub(start) / (READS + 1),
            last: 0,
            ticks: 0,
            ns: [0; STAGE_NAMES.len()],
            base,
        }
    }

    /// The profile so far, given the box's `(stepped instructions, I/O
    /// accesses)` now.
    pub(crate) fn profile(&self, (stepped, io): (u64, u64)) -> StageProfile {
        let clock_cost = self.ticks * self.read_ns;
        StageProfile {
            ticks: self.ticks,
            ns: self.ns.map(|ns| ns.saturating_sub(clock_cost)),
            stepped_instrs: stepped - self.base.0,
            io_accesses: io - self.base.1,
        }
    }
}

/// What [`Rosebud::tick`](crate::Rosebud::tick) calls between its stages:
/// nothing at all, or the profiler's clock.
pub(crate) trait Laps {
    /// The tick begins.
    fn start(&mut self);
    /// Span `stage` of [`STAGE_NAMES`] has just finished.
    fn lap(&mut self, stage: usize);
}

/// The unprofiled tick: every lap compiles to nothing.
pub(crate) struct Unprofiled;

impl Laps for Unprofiled {
    #[inline(always)]
    fn start(&mut self) {}

    #[inline(always)]
    fn lap(&mut self, _stage: usize) {}
}

impl Laps for Profiler {
    #[inline]
    fn start(&mut self) {
        self.ticks += 1;
        self.last = (self.clock)();
    }

    #[inline]
    fn lap(&mut self, stage: usize) {
        let now = (self.clock)();
        self.ns[stage] += now.saturating_sub(self.last);
        self.last = now;
    }
}
