//! Host-side control of a running Rosebud system: the Rust rendering of the
//! paper's host C library + Corundum driver (§3.2, §3.4, Appendix A.6–A.8).
//!
//! Everything the host can *do* to a built box is a [`HostOp`] value, and
//! [`Rosebud::apply`] is the one door it goes through — a
//! [`Fleet`](crate::Fleet)'s `Device::apply` hands it each box's ops — so a
//! live session or a chaos run can record every op beside every frame and
//! replay both ([`EventLog`](crate::EventLog)). The paper's calls map to
//! arms as follows:
//!
//! | Paper (host library / driver)                       | Arm                                   |
//! |-----------------------------------------------------|---------------------------------------|
//! | A.6 load instruction memory from the ELF, boot      | [`LoadFirmware`](HostOp::LoadFirmware) |
//! | A.6 load data / packet / accelerator memory, tables | [`WriteMem`](HostOp::WriteMem)        |
//! | A.6 prepare host DRAM for RPU-initiated DMA (§4.2)  | [`WriteHostDram`](HostOp::WriteHostDram) |
//! | A.6 receive mask: which cores get incoming traffic  | [`Enable`](HostOp::Enable) / [`Disable`](HostOp::Disable) |
//! | §4.2 the LB's 30-bit host register channel          | [`LbWrite`](HostOp::LbWrite)          |
//! | A.7 write the 64-bit debug channel                  | [`WriteDebug`](HostOp::WriteDebug)    |
//! | §3.4 poke interrupt ("stop processing packets")     | [`Poke`](HostOp::Poke)                |
//! | A.8 evict interrupt ahead of a reconfiguration      | [`Evict`](HostOp::Evict)              |
//! | A.8 drain, trigger PR, reboot                       | [`Reload`](HostOp::Reload)            |
//! | A.8 failure path: destroy the region's work, PR     | [`ForceReload`](HostOp::ForceReload)  |
//! | §3.2 the Corundum virtual Ethernet interface, TX    | [`HostFrame`](HostOp::HostFrame)      |
//! | (simulation only) land a fault now                  | [`Fault`](HostOp::Fault)              |
//! | (a rack) one box's op, through the front switch     | [`Box`](HostOp::Box), a fleet's only  |
//!
//! What the host *reads* — `lb_host_read`, `read_rpu_mem`, `rpu_status`,
//! `take_debug`, `take_host_packets`, `diagnostics` — stays a method: a read
//! changes nothing a replay has to reproduce. The PCIe bridge all of it
//! crosses is `HostBridge`; partial reconfiguration is in `pr.rs`.

use rosebud_kernel::{Cycle, DelayLine, Fifo};
use rosebud_net::Packet;
use rosebud_riscv::{AccessSize, Image};

use crate::config::RosebudConfig;
use crate::fault::{FaultKind, FaultState};
use crate::lanes::Lanes;
use crate::system::{Fx, Rosebud};
use crate::types::{irq, memmap, HostDmaReq};

/// Memory regions addressable from the host within one RPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemRegion {
    /// Instruction memory.
    Imem,
    /// Data memory (includes the DMA'd header slots).
    Dmem,
    /// Shared packet memory.
    Pmem,
    /// Accelerator-local memory — the third memory of §4.1, "loaded by the
    /// packet distribution subsystem for lookup tables or similar"; writes
    /// reach the accelerator through its table-load port, which hardware
    /// only connects "during boot or readback — where the accelerators are
    /// not active".
    AccelMem,
}

/// Well-known LB host-channel addresses (the 30-bit space of §4.2). The
/// first few words are framework-defined; everything else is forwarded to
/// the user's LB implementation.
pub mod lb_regs {
    /// (r/w) Enable mask, low 32 RPUs: "select which cores are used for
    /// incoming traffic and which cores are disabled".
    pub const ENABLE_LO: u32 = 0x0;
    /// (r/w) Enable mask, high 32 RPUs.
    pub const ENABLE_HI: u32 = 0x1;
    /// (w) Flush all slots of the RPU given by the written value (§4.2:
    /// "prepare the LB for load of a new RPU by flushing the slots").
    pub const FLUSH_RPU: u32 = 0x2;
    /// (r) Base of the per-RPU free-slot counters: `SLOTS_BASE + r` reads
    /// RPU `r`'s available slots ("helpful to detect freezes and
    /// starvation").
    pub const SLOTS_BASE: u32 = 0x100;
}

/// The host/PCIe bridge (Fig. 2): the virtual Ethernet interface in both
/// directions, and the host-DRAM access manager that serves RPU DMA requests
/// (§4.2).
pub(crate) struct HostBridge {
    /// RPU → host frames crossing PCIe.
    rx_delay: DelayLine<Packet>,
    /// Frames delivered to the host, until it takes them.
    rx: Vec<Packet>,
    /// Host → LB frames from the virtual Ethernet interface.
    tx: Fifo<Packet>,
    /// Host DRAM reachable from the RPUs through the DMA manager.
    dram: Vec<u8>,
    /// RPU DMA requests crossing PCIe.
    dma_delay: DelayLine<(usize, HostDmaReq)>,
}

impl HostBridge {
    pub fn new(cfg: &RosebudConfig) -> Self {
        Self {
            rx_delay: DelayLine::new(cfg.pcie_rtt_cycles / 2),
            rx: Vec::new(),
            tx: Fifo::new(256),
            dram: vec![0; 4 * 1024 * 1024],
            dma_delay: DelayLine::new(cfg.pcie_rtt_cycles / 2),
        }
    }

    /// Stage 10: host PCIe delivery, and the host-DRAM access manager: RPU
    /// DMA requests traverse PCIe, touch host DRAM, and complete with the
    /// DMA interrupt (§4.2). An injected PCIe outage stalls the whole stage:
    /// nothing is lost, everything waits for link-up.
    #[inline(always)]
    pub fn tick(&mut self, now: Cycle, lanes: &mut Lanes, fx: &mut Fx) {
        if !fx.host_link_up(now) {
            return;
        }
        while let Some(pkt) = self.rx_delay.pop_ready(now) {
            self.rx.push(pkt);
            fx.ledger.delivered += 1;
        }
        lanes.pick_up_dma(now, &mut self.dma_delay, fx);
        while let Some((r, req)) = self.dma_delay.pop_ready(now) {
            let rpu = lanes.rpu_mut(r);
            let inner = rpu.inner_mut();
            let at = (req.host_addr as usize).min(self.dram.len());
            if req.to_host {
                let bytes = inner.pmem_dma_src(req.local_addr, req.len);
                let end = (at + bytes.len()).min(self.dram.len());
                self.dram[at..end].copy_from_slice(&bytes[..end - at]);
            } else {
                let end = (at + req.len as usize).min(self.dram.len());
                inner.pmem_copy_in(req.local_addr, &self.dram[at..end]);
            }
            inner.dma_complete();
            rpu.raise_irq(irq::DMA);
            if let Some(t) = fx.tracer.as_mut() {
                t.dma_completed(now, r);
            }
        }
    }

    /// The first cycle from `next` on at which stage 2 could admit a host
    /// frame or stage 10 could complete a PCIe crossing. An outage only
    /// delays what this names, so it is left out.
    pub fn horizon(&self, next: Cycle) -> Cycle {
        if !self.tx.is_empty() {
            return next;
        }
        let heads = [self.rx_delay.head_at(), self.dma_delay.head_at()];
        heads
            .into_iter()
            .flatten()
            .min()
            .map_or(Cycle::MAX, |at| at.max(next))
    }

    /// The head of the virtual interface's transmit queue, as the LB sees
    /// it.
    pub fn tx_head(&self) -> Option<&Packet> {
        self.tx.front()
    }

    /// Takes the head of the transmit queue.
    pub fn tx_pop(&mut self) -> Option<Packet> {
        self.tx.pop()
    }

    /// Starts a frame an RPU addressed to the host across PCIe.
    pub fn send(&mut self, pkt: Packet, now: Cycle) {
        self.rx_delay.push(pkt, now);
    }

    /// Hands every delivered frame to `sink` as `(lane, frame)`, emptying
    /// the buffer in place.
    pub fn drain(&mut self, lane: usize, sink: &mut dyn FnMut(usize, Packet)) {
        for pkt in self.rx.drain(..) {
            sink(lane, pkt);
        }
    }

    /// Frames the virtual interface holds, both directions.
    pub fn in_flight(&self) -> usize {
        self.tx.len() + self.rx_delay.len()
    }
}

/// One thing the host can do to a running box: plain data, so a live
/// session can log it beside the frames and a replay can apply it again at
/// the same cycle. [`Rosebud::apply`] is the only way in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostOp {
    /// Writes a word to the LB's host register channel (§4.2; see
    /// [`lb_regs`]).
    LbWrite {
        /// Address in the 30-bit channel.
        addr: u32,
        /// The word written.
        value: u32,
    },
    /// Sets `rpu`'s LB enable bit.
    Enable {
        /// The RPU that gets traffic again.
        rpu: usize,
    },
    /// Clears `rpu`'s LB enable bit: new traffic immediately reroutes to
    /// the remaining RPUs (graceful degradation).
    Disable {
        /// The RPU taken out of rotation.
        rpu: usize,
    },
    /// Sends a poke interrupt "to tell it to stop processing packets" so
    /// the host can inspect state (§3.4).
    Poke {
        /// The RPU interrupted.
        rpu: usize,
    },
    /// Sends the eviction interrupt ahead of a reconfiguration (A.8).
    Evict {
        /// The RPU interrupted.
        rpu: usize,
    },
    /// Writes the host→RPU half of the 64-bit debug channel (A.7).
    WriteDebug {
        /// The RPU whose channel is written.
        rpu: usize,
        /// The value its firmware reads.
        value: u64,
    },
    /// Writes bytes into an RPU memory region before boot (loading lookup
    /// tables, Appendix A.6) or during debugging. A byte whose address
    /// decodes to nothing is dropped by the bus.
    WriteMem {
        /// The RPU whose memory is written.
        rpu: usize,
        /// Which of its memories.
        region: MemRegion,
        /// Byte offset into the region.
        offset: usize,
        /// What is written there.
        bytes: Vec<u8>,
    },
    /// Writes host DRAM as the RPUs' DMA manager sees it (§4.2): host-side
    /// table preparation before DMA reads.
    WriteHostDram {
        /// Byte offset into host DRAM.
        offset: usize,
        /// What is written there.
        bytes: Vec<u8>,
    },
    /// Queues a frame on the host's virtual Ethernet interface; refused
    /// while its transmit queue is full.
    HostFrame(Packet),
    /// Begins a runtime reconfiguration of `rpu` with the factory program
    /// (§4.1, A.8): the LB stops sending to it, in-flight packets drain, the
    /// PR bitstream writes for `pr_cycles`, the program boots. Traffic to
    /// other RPUs continues throughout.
    Reload {
        /// The RPU reconfigured.
        rpu: usize,
        /// `false`: the LB resumes when the region boots. `true`: the
        /// enable bit stays clear until an [`Enable`](HostOp::Enable) — the
        /// supervisor's graceful-eviction rung, which must never hand
        /// traffic to a region it has not confirmed alive.
        gated: bool,
    },
    /// Forced eviction (A.8 failure path): a wedged region holds packets
    /// that will never drain, so the host destroys them — every bound slot,
    /// every queued descriptor, everything on the ingress pipeline headed
    /// there — accounts them as purged in the conservation ledger, and
    /// starts the PR bitstream write immediately. Answers
    /// [`HostReply::Purged`]; the enable bit stays clear until an
    /// [`Enable`](HostOp::Enable).
    ForceReload {
        /// The RPU whose region is destroyed and rewritten.
        rpu: usize,
    },
    /// Loads assembled firmware into `rpu` and boots it — the plain
    /// (non-PR) load path of A.6. Refused — every RPU untouched — when the
    /// image does not fit instruction memory, and under
    /// [`LoadPolicy::Deny`](crate::LoadPolicy::Deny) when its lint report
    /// contains errors.
    LoadFirmware {
        /// The RPU rebooted.
        rpu: usize,
        /// The assembled image: base, words, and the symbol table lint
        /// labels come from — never the source text.
        image: Image,
    },
    /// Lands a fault on the next tick (simulation only; a [`FaultPlan`] is
    /// these ops stamped with cycles). A box refuses the device-scale kinds
    /// and a [`Fleet`] the others, unless they come wrapped in
    /// [`Box`](HostOp::Box).
    ///
    /// [`FaultPlan`]: crate::FaultPlan
    /// [`Fleet`]: crate::Fleet
    Fault(FaultKind),
    /// One box's op, addressed to a [`Fleet`](crate::Fleet): forwarded to
    /// box `device`'s [`Rosebud::apply`]. A box refuses it.
    Box {
        /// The fleet device the op is for.
        device: usize,
        /// What is done to it; never another `Box`.
        op: Box<HostOp>,
    },
}

impl From<FaultKind> for HostOp {
    fn from(kind: FaultKind) -> Self {
        HostOp::Fault(kind)
    }
}

/// What [`Rosebud::apply`] answers on success.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostReply {
    /// The op took effect; there is nothing to report.
    Done,
    /// A forced eviction destroyed this many slot-bound packets.
    Purged(u64),
}

impl HostOp {
    /// The RPU this op addresses, when it addresses one.
    fn rpu(&self) -> Option<usize> {
        use FaultKind::{CorruptIngress, FirmwareCrash, FirmwareHang};
        match *self {
            HostOp::Enable { rpu }
            | HostOp::Disable { rpu }
            | HostOp::Poke { rpu }
            | HostOp::Evict { rpu }
            | HostOp::WriteDebug { rpu, .. }
            | HostOp::WriteMem { rpu, .. }
            | HostOp::Reload { rpu, .. }
            | HostOp::ForceReload { rpu }
            | HostOp::LoadFirmware { rpu, .. }
            | HostOp::Fault(
                FirmwareHang { rpu } | FirmwareCrash { rpu } | CorruptIngress { rpu, .. },
            ) => Some(rpu),
            HostOp::LbWrite { .. }
            | HostOp::WriteHostDram { .. }
            | HostOp::HostFrame(_)
            | HostOp::Fault(_)
            | HostOp::Box { .. } => None,
        }
    }
}

/// One direction of the op codec. `ports.rs` has both — a writer that
/// appends fields to a log line, a reader that takes them off one — and
/// [`HostOp::fields`] walks an op's fields through either in wire order, so
/// each op's layout is written down once.
pub(crate) trait Fields {
    /// The next integer field.
    fn int(&mut self, v: &mut u64) -> Result<(), String>;
    /// The byte payload: at most one per op, after its integers.
    fn bytes(&mut self, v: &mut Vec<u8>) -> Result<(), String>;
}

/// An integer field of any width: widened on the way out, range-checked on
/// the way in.
fn num<T>(c: &mut dyn Fields, v: &mut T) -> Result<(), String>
where
    T: Copy + TryFrom<u64>,
    u64: TryFrom<T>,
{
    let mut wide = u64::try_from(*v).map_err(|_| "field wider than 64 bits")?;
    c.int(&mut wide)?;
    *v = T::try_from(wide).map_err(|_| format!("{wide} is out of range"))?;
    Ok(())
}

/// A field with a few named values, carried as its index in `values`.
fn one_of<T: Copy + PartialEq>(c: &mut dyn Fields, v: &mut T, values: &[T]) -> Result<(), String> {
    let mut index = values.iter().position(|x| x == v).unwrap_or(values.len());
    num(c, &mut index)?;
    *v = *values
        .get(index)
        .ok_or_else(|| format!("{index} names none of {} values", values.len()))?;
    Ok(())
}

const REGIONS: [MemRegion; 4] = [
    MemRegion::Imem,
    MemRegion::Dmem,
    MemRegion::Pmem,
    MemRegion::AccelMem,
];

/// An image's words, then each symbol as (value, name length, name) — all
/// little-endian.
fn image_blob(image: &Image) -> Vec<u8> {
    let mut blob = image.bytes();
    for (name, value) in image.symbols() {
        blob.extend_from_slice(&value.to_le_bytes());
        blob.extend_from_slice(&(name.len() as u32).to_le_bytes());
        blob.extend_from_slice(name.as_bytes());
    }
    blob
}

fn image_from_blob(base: u32, nwords: usize, blob: &[u8]) -> Result<Image, String> {
    let bad = || "malformed image payload".to_string();
    let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    // Checked against the payload before anything is allocated for it.
    let code = nwords.checked_mul(4).filter(|len| *len <= blob.len());
    let (code, mut rest) = blob.split_at(code.ok_or_else(bad)?);
    let words = code.chunks_exact(4).map(word).collect();
    let mut symbols = Vec::new();
    while !rest.is_empty() {
        let (head, tail) = rest.split_at_checked(8).ok_or_else(bad)?;
        let (name, tail) = tail
            .split_at_checked(word(&head[4..]) as usize)
            .ok_or_else(bad)?;
        let name = std::str::from_utf8(name).map_err(|_| bad())?;
        symbols.push((name.to_string(), word(head)));
        rest = tail;
    }
    Ok(Image::from_parts(base, words, symbols))
}

/// Makes an op of one shape, every field zero, for a reader to fill in.
type Blank = fn() -> HostOp;

/// Every op's wire name beside its blank. A fault is one row per kind.
const OPS: &[(&str, Blank)] = &[
    ("lb_write", || HostOp::LbWrite { addr: 0, value: 0 }),
    ("enable", || HostOp::Enable { rpu: 0 }),
    ("disable", || HostOp::Disable { rpu: 0 }),
    ("poke", || HostOp::Poke { rpu: 0 }),
    ("evict", || HostOp::Evict { rpu: 0 }),
    ("write_debug", || HostOp::WriteDebug { rpu: 0, value: 0 }),
    ("write_mem", || HostOp::WriteMem {
        rpu: 0,
        region: MemRegion::Imem,
        offset: 0,
        bytes: Vec::new(),
    }),
    ("write_host_dram", || HostOp::WriteHostDram {
        offset: 0,
        bytes: Vec::new(),
    }),
    ("host_frame", || {
        HostOp::HostFrame(Packet::new(0, Vec::new(), 0, 0))
    }),
    ("reload", || HostOp::Reload {
        rpu: 0,
        gated: false,
    }),
    ("force_reload", || HostOp::ForceReload { rpu: 0 }),
    ("load_firmware", || HostOp::LoadFirmware {
        rpu: 0,
        image: Image::from_parts(0, Vec::new(), []),
    }),
    ("fault.firmware_hang", || {
        HostOp::Fault(FaultKind::FirmwareHang { rpu: 0 })
    }),
    ("fault.firmware_crash", || {
        HostOp::Fault(FaultKind::FirmwareCrash { rpu: 0 })
    }),
    ("fault.corrupt_ingress", || {
        HostOp::Fault(FaultKind::CorruptIngress { rpu: 0, count: 0 })
    }),
    ("fault.rx_fifo_overflow", || {
        HostOp::Fault(FaultKind::RxFifoOverflow { port: 0, cycles: 0 })
    }),
    ("fault.host_dma_outage", || {
        HostOp::Fault(FaultKind::HostDmaOutage { cycles: 0 })
    }),
    ("fault.box_crash", || {
        HostOp::Fault(FaultKind::BoxCrash { device: 0 })
    }),
    ("fault.box_host_outage", || {
        HostOp::Fault(FaultKind::BoxHostOutage {
            device: 0,
            cycles: 0,
        })
    }),
    ("fault.front_link_flap", || {
        HostOp::Fault(FaultKind::FrontLinkFlap {
            device: 0,
            cycles: 0,
        })
    }),
    ("fault.box_brownout", || {
        HostOp::Fault(FaultKind::BoxBrownout {
            device: 0,
            cycles: 0,
            factor: 0,
        })
    }),
];

/// What a [`HostOp::Box`]'s name is its op's behind. It has no row: one
/// level of it is read, never a second.
const BOX: &str = "box.";

impl HostOp {
    /// The op's name in the event log.
    pub(crate) fn name(&self) -> String {
        use std::mem::discriminant;
        if let HostOp::Box { op, .. } = self {
            return format!("{BOX}{}", op.name());
        }
        let same_arm = |blank: HostOp| match (&blank, self) {
            (HostOp::Fault(a), HostOp::Fault(b)) => discriminant(a) == discriminant(b),
            _ => discriminant(&blank) == discriminant(self),
        };
        let row = OPS.iter().find(|(_, blank)| same_arm(blank()));
        row.expect("every arm has a row in OPS").0.to_string()
    }

    /// An op of the shape `name` names, every field zero.
    pub(crate) fn blank(name: &str) -> Option<HostOp> {
        let (row, boxed) = match name.strip_prefix(BOX) {
            Some(inner) => (inner, true),
            None => (name, false),
        };
        let op = OPS.iter().find(|(n, _)| *n == row)?.1();
        Some(if boxed {
            HostOp::Box {
                device: 0,
                op: Box::new(op),
            }
        } else {
            op
        })
    }

    /// Passes every field through `c` in wire order: integers, then the
    /// payload if the op has one. A writer reads them; a reader overwrites
    /// a [`blank`](Self::blank)'s.
    pub(crate) fn fields(&mut self, c: &mut dyn Fields) -> Result<(), String> {
        use FaultKind as F;
        match self {
            HostOp::LbWrite { addr, value } => {
                num(c, addr)?;
                num(c, value)
            }
            HostOp::Enable { rpu }
            | HostOp::Disable { rpu }
            | HostOp::Poke { rpu }
            | HostOp::Evict { rpu }
            | HostOp::ForceReload { rpu }
            | HostOp::Fault(F::FirmwareHang { rpu } | F::FirmwareCrash { rpu }) => num(c, rpu),
            HostOp::WriteDebug { rpu, value } => {
                num(c, rpu)?;
                num(c, value)
            }
            HostOp::WriteMem {
                rpu,
                region,
                offset,
                bytes,
            } => {
                num(c, rpu)?;
                one_of(c, region, &REGIONS)?;
                num(c, offset)?;
                c.bytes(bytes)
            }
            HostOp::WriteHostDram { offset, bytes } => {
                num(c, offset)?;
                c.bytes(bytes)
            }
            HostOp::HostFrame(pkt) => {
                num(c, &mut pkt.id)?;
                num(c, &mut pkt.port)?;
                num(c, &mut pkt.ts_gen)?;
                c.bytes(&mut pkt.data)
            }
            HostOp::Reload { rpu, gated } => {
                num(c, rpu)?;
                one_of(c, gated, &[false, true])
            }
            HostOp::LoadFirmware { rpu, image } => {
                // The image has no fields to lend out, so it crosses as
                // parts and is rebuilt from them — in a writer, into what it
                // already was.
                let (mut base, mut nwords) = (image.base(), image.words().len());
                let mut blob = image_blob(image);
                num(c, rpu)?;
                num(c, &mut base)?;
                num(c, &mut nwords)?;
                c.bytes(&mut blob)?;
                *image = image_from_blob(base, nwords, &blob)?;
                Ok(())
            }
            HostOp::Fault(F::CorruptIngress { rpu, count }) => {
                num(c, rpu)?;
                num(c, count)
            }
            HostOp::Fault(F::RxFifoOverflow { port, cycles }) => {
                num(c, port)?;
                num(c, cycles)
            }
            HostOp::Fault(F::HostDmaOutage { cycles }) => num(c, cycles),
            HostOp::Fault(F::BoxCrash { device }) => num(c, device),
            HostOp::Fault(
                F::BoxHostOutage { device, cycles } | F::FrontLinkFlap { device, cycles },
            ) => {
                num(c, device)?;
                num(c, cycles)
            }
            HostOp::Fault(F::BoxBrownout {
                device,
                cycles,
                factor,
            }) => {
                num(c, device)?;
                num(c, cycles)?;
                num(c, factor)
            }
            HostOp::Box { device, op } => {
                num(c, device)?;
                op.fields(c)
            }
        }
    }
}

impl Rosebud {
    /// Does `op` to the box — the one way the host changes a built system,
    /// so whoever holds the box behind a recorder
    /// (`rosebud_shell::Shell::apply`) sees every change.
    ///
    /// # Errors
    ///
    /// Says why the op was refused: it names an RPU or a port the box does
    /// not have, it is a fleet's (a device-scale fault, a [`HostOp::Box`]),
    /// a write reaches past the memory it targets, the virtual interface's
    /// queue is full, or the load path rejected the image. A refused op has
    /// changed nothing.
    pub fn apply(&mut self, op: HostOp) -> Result<HostReply, String> {
        if let Some(rpu) = op.rpu().filter(|&rpu| rpu >= self.cfg.num_rpus) {
            return Err(format!("no RPU {rpu}: the box has {}", self.cfg.num_rpus));
        }
        // An op may change what any unit has due: the next tick is a full
        // one, which works the horizon out again.
        self.quiet_until = 0;
        let ports = self.mac.num_ports();
        match op {
            HostOp::LbWrite { addr, value } => self.dist.host_write(addr, value),
            HostOp::Enable { rpu } => self.dist.enable_rpu(rpu),
            HostOp::Disable { rpu } => self.dist.disable_rpu(rpu),
            HostOp::Poke { rpu } => self.lanes.rpu_mut(rpu).raise_irq(irq::POKE),
            HostOp::Evict { rpu } => self.lanes.rpu_mut(rpu).raise_irq(irq::EVICT),
            HostOp::WriteDebug { rpu, value } => {
                self.lanes.rpu_mut(rpu).inner_mut().set_debug_in(value)
            }
            HostOp::WriteMem {
                rpu,
                region,
                offset,
                bytes,
            } => self.write_rpu_mem(rpu, region, offset, &bytes)?,
            HostOp::WriteHostDram { offset, bytes } => offset
                .checked_add(bytes.len())
                .and_then(|end| self.host.dram.get_mut(offset..end))
                .ok_or_else(|| format!("{} bytes at {offset} reach past host DRAM", bytes.len()))?
                .copy_from_slice(&bytes),
            HostOp::HostFrame(pkt) => {
                let refused = |_| "the virtual interface's transmit queue is full".to_string();
                self.host.tx.push(pkt).map_err(refused)?;
                self.fx.ledger.injected += 1;
            }
            HostOp::Reload { rpu, gated } => self.reload_rpu(rpu, gated),
            HostOp::ForceReload { rpu } => {
                return Ok(HostReply::Purged(self.force_reload_rpu(rpu)))
            }
            HostOp::LoadFirmware { rpu, image } => self.load_firmware(rpu, &image)?,
            HostOp::Fault(FaultKind::RxFifoOverflow { port, .. }) if port >= ports => {
                return Err(format!("no port {port}: the box has {ports}"));
            }
            HostOp::Fault(kind) if kind.device().is_some() => {
                return Err(format!(
                    "{kind:?} is a fleet's fault: a box names no device"
                ));
            }
            HostOp::Fault(kind) => {
                let rpus = self.cfg.num_rpus;
                let fault = self
                    .fx
                    .fault
                    .get_or_insert_with(|| Box::new(FaultState::new(rpus, ports)));
                fault.inbox.push(kind);
            }
            HostOp::Box { .. } => {
                return Err("a box is not a fleet: `box.` ops are a fleet's".into())
            }
        }
        Ok(HostReply::Done)
    }

    fn write_rpu_mem(
        &mut self,
        rpu: usize,
        region: MemRegion,
        offset: usize,
        bytes: &[u8],
    ) -> Result<(), String> {
        // Firmware loads go through `load_riscv`; raw imem pokes are
        // modelled as a partial image overwrite via the bus.
        let base = match region {
            MemRegion::Imem => memmap::IMEM_BASE,
            MemRegion::Dmem => memmap::DMEM_BASE,
            MemRegion::Pmem => memmap::PMEM_BASE,
            MemRegion::AccelMem => 0,
        };
        // Offsets travel as bus addresses: the whole write has to fit them.
        let start = u64::from(base).saturating_add(offset as u64);
        if start.saturating_add(bytes.len() as u64) > 1 << 32 {
            return Err(format!(
                "{} bytes at {offset} leave the 32-bit bus",
                bytes.len()
            ));
        }
        let start = start as u32;
        let rpu = self.lanes.rpu_mut(rpu);
        if region == MemRegion::AccelMem {
            if let Some(accel) = rpu.accelerator_mut() {
                accel.load_table(start, bytes);
            }
            return Ok(());
        }
        for (addr, b) in (start..).zip(bytes) {
            // A byte that decodes to nothing is dropped by the bus.
            let _ = rpu
                .inner_mut()
                .host_store(addr, u32::from(*b), AccessSize::Byte);
        }
        Ok(())
    }

    /// Drains frames delivered to the host over PCIe.
    pub fn take_host_packets(&mut self) -> Vec<Packet> {
        std::mem::take(&mut self.host.rx)
    }

    /// Host DRAM as the RPUs' DMA manager sees it (§4.2).
    pub fn host_dram(&self) -> &[u8] {
        &self.host.dram
    }

    /// Reads `len` bytes from an RPU memory region — the host debug path
    /// that can "dump the entire RPU shared memory" (§3.4).
    pub fn read_rpu_mem(
        &self,
        rpu: usize,
        region: MemRegion,
        offset: usize,
        len: usize,
    ) -> Vec<u8> {
        let inner = self.rpus()[rpu].inner();
        let mem: &[u8] = match region {
            MemRegion::Imem => return self.read_imem(rpu, offset, len),
            MemRegion::Dmem => inner.dmem(),
            MemRegion::Pmem => inner.pmem(),
            MemRegion::AccelMem => return Vec::new(), // write/readback only via DMA
        };
        mem[offset.min(mem.len())..(offset + len).min(mem.len())].to_vec()
    }

    fn read_imem(&self, rpu: usize, offset: usize, len: usize) -> Vec<u8> {
        // imem is private to the inner; expose through the boot image plus
        // live reads would require a second port — the host reads back what
        // it loaded (A.6 loads "directly from the ELF output file").
        match &self.rpus()[rpu].boot_image {
            Some(image) => {
                let bytes = image.bytes();
                bytes[offset.min(bytes.len())..(offset + len).min(bytes.len())].to_vec()
            }
            None => Vec::new(),
        }
    }

    /// Reads RPU `rpu`'s host-visible status register.
    pub fn rpu_status(&self, rpu: usize) -> u32 {
        self.rpus()[rpu].inner().status()
    }

    /// Takes the most recent 64-bit debug-channel value from `rpu`, if the
    /// firmware wrote one since the last read (A.7).
    pub fn take_debug(&mut self, rpu: usize) -> Option<u64> {
        self.lanes.rpu_mut(rpu).inner_mut().take_debug_out()
    }
}

/// The analytic partial-reconfiguration timing model (§4.1): "We measured
/// the time to pause, load the new bit file, and boot a new RPU, and it
/// takes 756 milliseconds on average (across 320 loads)."
///
/// The dominant term is writing the PR bitstream through Xilinx's MCAP,
/// which streams configuration frames at roughly 3 MB/s effective on this
/// board generation; pausing/draining and booting add milliseconds. A VU9P
/// PR region covering ~1/16 of the device is ~2.2 MB of frames; 3 MB/s MCAP
/// + ~20 ms overhead lands at the measured mean.
#[derive(Debug, Clone, Copy)]
pub struct PrTimingModel;

impl PrTimingModel {
    /// PR bitstream size for one RPU region, in bytes.
    pub const BITSTREAM_BYTES: f64 = 2.21e6;
    /// Effective MCAP write bandwidth, bytes/second.
    pub const MCAP_BYTES_PER_SEC: f64 = 3.0e6;
    /// Pause + drain + boot overhead, seconds.
    pub const FIXED_OVERHEAD_S: f64 = 0.020;
    /// Run-to-run jitter fraction (uniform ±).
    pub const JITTER: f64 = 0.04;

    /// One reload's duration in seconds, with deterministic per-sample
    /// jitter from `sample` (the load index).
    pub fn reload_seconds(&self, sample: u64) -> f64 {
        let base = Self::BITSTREAM_BYTES / Self::MCAP_BYTES_PER_SEC + Self::FIXED_OVERHEAD_S;
        let mut rng = rosebud_kernel::SimRng::seed_from(0x9E37 ^ sample);
        base * (1.0 + Self::JITTER * (2.0 * rng.unit() - 1.0))
    }

    /// Mean reload time over `n` samples, in seconds.
    pub fn mean_reload_seconds(&self, n: u64) -> f64 {
        (0..n).map(|i| self.reload_seconds(i)).sum::<f64>() / n as f64
    }
}

/// Converts a reload duration to cycles at `clock_hz` (for callers that want
/// to simulate the full wall-clock reconfiguration).
pub fn pr_reload_model(model: &PrTimingModel, clock_hz: u64, sample: u64) -> Cycle {
    (model.reload_seconds(sample) * clock_hz as f64) as Cycle
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A row whose blank is another row's arm would be written under that
    /// row's name and read back as the wrong op.
    #[test]
    fn every_op_row_names_the_arm_it_blanks() {
        for (name, blank) in OPS {
            assert_eq!(blank().name(), *name);
            assert_eq!(HostOp::blank(name), Some(blank()));
            let boxed = HostOp::Box {
                device: 0,
                op: Box::new(blank()),
            };
            assert_eq!(boxed.name(), format!("box.{name}"));
            assert_eq!(HostOp::blank(&boxed.name()), Some(boxed));
        }
        assert_eq!(HostOp::blank("frob"), None);
        assert_eq!(HostOp::blank("box.box.poke"), None, "one level of `box.`");
    }

    #[test]
    fn pr_model_means_756ms_over_320_loads() {
        let model = PrTimingModel;
        let mean = model.mean_reload_seconds(320);
        assert!(
            (mean - 0.756).abs() < 0.015,
            "mean reload {mean} s, paper: 0.756 s"
        );
    }

    #[test]
    fn pr_model_jitter_is_bounded() {
        let model = PrTimingModel;
        let base = PrTimingModel::BITSTREAM_BYTES / PrTimingModel::MCAP_BYTES_PER_SEC
            + PrTimingModel::FIXED_OVERHEAD_S;
        for i in 0..100 {
            let s = model.reload_seconds(i);
            assert!((s - base).abs() <= base * PrTimingModel::JITTER * 1.001);
        }
    }
}
