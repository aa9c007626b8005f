//! The partial-reconfiguration controller (§4.1, A.8): what the box boots
//! with, the jobs that swap an RPU's region at run time, and the static lint
//! every RISC-V image passes on its way in.

use rosebud_accel::Accelerator;
use rosebud_kernel::Cycle;
use rosebud_riscv::Image;

use crate::config::RosebudConfig;
use crate::dist::Distributor;
use crate::lanes::Lanes;
use crate::rpu::Rpu;
use crate::system::{AccelFactory, FirmwareFactory, Rosebud, RpuProgram};
use crate::verify::{machine_spec, LintRecord, LoadPolicy};

struct PrJob {
    rpu: usize,
    phase: PrPhase,
    program: Option<RpuProgram>,
    accel: Option<Box<dyn Accelerator>>,
    /// Whether the LB enable bit comes back automatically when the new
    /// program boots. Supervised recoveries pass `false`: the supervisor
    /// re-enables only after verifying the region actually rebooted.
    reenable: bool,
}

enum PrPhase {
    Draining,
    Writing { until: Cycle },
}

pub(crate) struct Reconfig {
    jobs: Vec<PrJob>,
    firmware_factory: FirmwareFactory,
    accel_factory: Option<AccelFactory>,
    /// Static-lint policy applied to every RISC-V firmware load.
    load_policy: LoadPolicy,
    /// Every lint report produced by the load path, oldest first.
    lint_log: Vec<LintRecord>,
}

impl Reconfig {
    pub fn new(
        firmware_factory: FirmwareFactory,
        accel_factory: Option<AccelFactory>,
        load_policy: LoadPolicy,
    ) -> Self {
        Self {
            jobs: Vec::new(),
            firmware_factory,
            accel_factory,
            load_policy,
            lint_log: Vec::new(),
        }
    }

    /// Loads the factories' accelerator and firmware into every RPU and
    /// boots them.
    ///
    /// # Errors
    ///
    /// Returns a description when an image does not fit instruction memory
    /// or [`LoadPolicy::Deny`] rejects it.
    pub fn boot(&mut self, cfg: &RosebudConfig, lanes: &mut Lanes) -> Result<(), String> {
        for i in 0..cfg.num_rpus {
            let rpu = lanes.rpu_mut(i);
            if let Some(accel) = &self.accel_factory {
                rpu.set_accelerator(accel(i));
            }
            let program = (self.firmware_factory)(i);
            self.install(cfg, rpu, 0, program)?;
        }
        Ok(())
    }

    /// Decides whether `image` may be loaded into RPU `rpu`: the box must
    /// have that RPU, the image must fit instruction memory, and — per the
    /// load policy — it must pass the analyzer, whose report is appended to
    /// the lint log. The one vetting routine behind boot, host loads and PR
    /// reloads; an `Err` says why and nothing has been touched.
    fn vet(
        &mut self,
        cfg: &RosebudConfig,
        rpu: usize,
        cycle: Cycle,
        image: &Image,
    ) -> Result<(), String> {
        if rpu >= cfg.num_rpus {
            return Err(format!("no RPU {rpu}: the box has {}", cfg.num_rpus));
        }
        let end = u64::from(image.base()) + u64::from(image.size_bytes());
        if end > u64::from(cfg.imem_bytes) {
            return Err(format!(
                "firmware for RPU {rpu} does not fit: image ends at byte {end}, \
                 instruction memory holds {}",
                cfg.imem_bytes
            ));
        }
        if self.load_policy == LoadPolicy::Off {
            return Ok(());
        }
        let report = rosebud_riscv::Analyzer::new(machine_spec(cfg)).check(image);
        let errors = report.error_count();
        let denied = self.load_policy == LoadPolicy::Deny && errors > 0;
        self.lint_log.push(LintRecord {
            rpu,
            cycle,
            denied,
            report,
        });
        if denied {
            return Err(format!(
                "firmware for RPU {rpu} rejected by LoadPolicy::Deny: {errors} lint error(s)"
            ));
        }
        Ok(())
    }

    /// Vets `program` and boots `rpu` on it; on `Err` the image was refused
    /// and the RPU is left as it was.
    fn install(
        &mut self,
        cfg: &RosebudConfig,
        rpu: &mut Rpu,
        cycle: Cycle,
        program: RpuProgram,
    ) -> Result<(), String> {
        match program {
            RpuProgram::Riscv(image) => {
                self.vet(cfg, rpu.id(), cycle, &image)?;
                rpu.load_riscv(&image);
            }
            RpuProgram::Native(fw) => rpu.load_native(fw),
        }
        Ok(())
    }

    /// Stage 12: moves every partial-reconfiguration job along.
    #[inline(always)]
    pub fn tick(
        &mut self,
        now: Cycle,
        cfg: &RosebudConfig,
        lanes: &mut Lanes,
        dist: &mut Distributor,
    ) {
        let mut i = 0;
        while i < self.jobs.len() {
            match self.jobs[i].phase {
                PrPhase::Draining => {
                    let r = self.jobs[i].rpu;
                    let in_flight = !lanes.links_empty(r) || !dist.slots().all_free(r);
                    if lanes.rpus()[r].is_drained() && !in_flight {
                        let until = now + cfg.pr_cycles;
                        lanes.rpu_mut(r).begin_reconfigure(until);
                        self.jobs[i].phase = PrPhase::Writing { until };
                    }
                    i += 1;
                }
                PrPhase::Writing { until } if now >= until => {
                    let job = self.jobs.swap_remove(i);
                    self.finish(job, now, cfg, lanes, dist);
                }
                PrPhase::Writing { .. } => {
                    i += 1;
                }
            }
        }
    }

    /// The first cycle from `next` on at which stage 12 could move a job
    /// along: `next` while one waits on a drain, else the earliest end of
    /// a bitstream write.
    pub fn horizon(&self, next: Cycle) -> Cycle {
        let due = |job: &PrJob| match job.phase {
            PrPhase::Draining => next,
            PrPhase::Writing { until } => until.max(next),
        };
        self.jobs.iter().map(due).min().unwrap_or(Cycle::MAX)
    }

    /// The bitstream write is over: installs the job's accelerator and
    /// program (or the factories') and hands the region back.
    fn finish(
        &mut self,
        job: PrJob,
        now: Cycle,
        cfg: &RosebudConfig,
        lanes: &mut Lanes,
        dist: &mut Distributor,
    ) {
        let r = job.rpu;
        let rpu = lanes.rpu_mut(r);
        if let Some(accel) = job.accel {
            rpu.set_accelerator(accel);
        } else if let Some(factory) = &self.accel_factory {
            rpu.set_accelerator(factory(r));
        }
        let program = job.program.unwrap_or_else(|| (self.firmware_factory)(r));
        let booted = self.install(cfg, rpu, now, program).is_ok();
        dist.slots_mut().flush(r);
        // Denied: the bitstream write completed, but the host never
        // finishes the boot. The region stays inert in `Reconfiguring` and
        // its LB enable bit stays clear, so the supervisor sees a region
        // that never came back instead of reinstalling a known-bad image.
        if booted && job.reenable {
            dist.enable_rpu(r);
        }
    }
}

impl Rosebud {
    /// The static-lint policy applied to firmware loads.
    pub fn load_policy(&self) -> LoadPolicy {
        self.pr.load_policy
    }

    /// Every lint report the load path has produced, oldest first.
    pub fn lint_log(&self) -> &[LintRecord] {
        &self.pr.lint_log
    }

    /// Takes `rpu` out of the LB's rotation, puts its region into `phase` —
    /// draining, or straight into the bitstream write — and queues the job.
    fn queue_pr(
        &mut self,
        rpu: usize,
        phase: PrPhase,
        program: Option<RpuProgram>,
        accel: Option<Box<dyn Accelerator>>,
        reenable: bool,
    ) {
        self.dist.disable_rpu(rpu);
        let region = self.lanes.rpu_mut(rpu);
        match phase {
            PrPhase::Draining => region.start_drain(),
            PrPhase::Writing { until } => region.begin_reconfigure(until),
        }
        self.pr.jobs.push(PrJob {
            rpu,
            phase,
            program,
            accel,
            reenable,
        });
    }

    /// Begins a runtime reconfiguration of `rpu` onto a *new bitstream* —
    /// a program and/or accelerator the factories do not produce (§4.1,
    /// A.8): the LB stops sending to it, in-flight packets drain, the PR
    /// bitstream writes for `pr_cycles`, then `program` (or the factory's)
    /// boots and the LB resumes. Simulation-only, and not a
    /// [`HostOp`](crate::HostOp): a boxed program is not a value a log can
    /// hold. A reload of what the factories produce is
    /// [`HostOp::Reload`](crate::HostOp::Reload).
    ///
    /// # Panics
    ///
    /// Panics if the box has no RPU `rpu`.
    pub fn reconfigure_rpu(
        &mut self,
        rpu: usize,
        program: Option<RpuProgram>,
        accel: Option<Box<dyn Accelerator>>,
    ) {
        assert!(rpu < self.cfg.num_rpus, "no such RPU");
        self.queue_pr(rpu, PrPhase::Draining, program, accel, true);
    }

    /// [`HostOp::Reload`](crate::HostOp::Reload): drain, then rewrite the
    /// region with what the factories produce; `gated` leaves the enable
    /// bit clear afterwards.
    pub(crate) fn reload_rpu(&mut self, rpu: usize, gated: bool) {
        self.queue_pr(rpu, PrPhase::Draining, None, None, !gated);
    }

    /// [`HostOp::ForceReload`](crate::HostOp::ForceReload): destroys
    /// everything bound for `rpu`, starts the bitstream write at once, and
    /// returns the number of slot-bound packets destroyed.
    pub(crate) fn force_reload_rpu(&mut self, rpu: usize) -> u64 {
        // Supersede any graceful job that was waiting on a drain that will
        // never finish.
        self.pr.jobs.retain(|j| j.rpu != rpu);
        let purged = self.dist.purge_for(rpu);
        self.fx.ledger.purged += purged;
        self.lanes.flush_links(rpu);
        self.lanes.rpu_mut(rpu).purge();
        let until = self.now() + self.cfg.pr_cycles;
        self.queue_pr(rpu, PrPhase::Writing { until }, None, None, false);
        purged
    }

    /// `true` while a reconfiguration of `rpu` is in progress.
    pub fn reconfigure_pending(&self, rpu: usize) -> bool {
        self.pr.jobs.iter().any(|j| j.rpu == rpu)
    }

    /// [`HostOp::LoadFirmware`](crate::HostOp::LoadFirmware): vets `image`
    /// and boots `rpu` on it; on `Err` nothing has been touched.
    pub(crate) fn load_firmware(&mut self, rpu: usize, image: &Image) -> Result<(), String> {
        self.pr.vet(&self.cfg, rpu, self.clock.cycle(), image)?;
        self.lanes.rpu_mut(rpu).load_riscv(image);
        Ok(())
    }
}
