//! Host-side control of a running Rosebud system: the Rust rendering of the
//! paper's host C library + Corundum driver (§3.2, §3.4, Appendix A.6–A.8).
//!
//! Everything here operates on a [`Rosebud`] the way the real host reaches
//! the FPGA over PCIe: load memories, read counters, poke/evict RPUs, drive
//! the LB's 30-bit register channel, dump memory. The PCIe bridge those
//! calls cross is `HostBridge`; partial reconfiguration is in `pr.rs`.

use rosebud_kernel::{Cycle, DelayLine, Fifo};
use rosebud_net::Packet;
use rosebud_riscv::AccessSize;

use crate::config::RosebudConfig;
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
    #[inline]
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

impl Rosebud {
    /// Drains frames delivered to the host over PCIe.
    pub fn take_host_packets(&mut self) -> Vec<Packet> {
        std::mem::take(&mut self.host.rx)
    }

    /// Queues a frame from the host's virtual Ethernet interface.
    pub fn inject_from_host(&mut self, pkt: Packet) -> Result<(), Packet> {
        self.host.tx.push(pkt)?;
        self.fx.ledger.injected += 1;
        Ok(())
    }

    /// Host DRAM as the RPUs' DMA manager sees it (§4.2).
    pub fn host_dram(&self) -> &[u8] {
        &self.host.dram
    }

    /// Mutable host DRAM (host-side table preparation before DMA reads).
    pub fn host_dram_mut(&mut self) -> &mut [u8] {
        &mut self.host.dram
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

    /// Writes bytes into an RPU memory region before boot (loading lookup
    /// tables, Appendix A.6) or during debugging.
    pub fn write_rpu_mem(&mut self, rpu: usize, region: MemRegion, offset: usize, bytes: &[u8]) {
        let rpu = self.rpu_mut(rpu);
        // Firmware loads go through `load_riscv`; raw imem pokes are
        // modelled as a partial image overwrite via the bus.
        let base = match region {
            MemRegion::Imem => memmap::IMEM_BASE,
            MemRegion::Dmem => memmap::DMEM_BASE,
            MemRegion::Pmem => memmap::PMEM_BASE,
            MemRegion::AccelMem => {
                if let Some(accel) = rpu.accelerator_mut() {
                    accel.load_table(offset as u32, bytes);
                }
                return;
            }
        };
        for (i, b) in bytes.iter().enumerate() {
            // A byte that decodes to nothing is dropped by the bus.
            let _ = rpu.inner_mut().host_store(
                base + (offset + i) as u32,
                u32::from(*b),
                AccessSize::Byte,
            );
        }
    }

    /// Sends a poke interrupt "to tell it to stop processing packets" so the
    /// host can inspect state (§3.4).
    pub fn poke(&mut self, rpu: usize) {
        self.rpu_mut(rpu).raise_irq(irq::POKE);
    }

    /// Sends the eviction interrupt ahead of a reconfiguration (A.8).
    pub fn evict(&mut self, rpu: usize) {
        self.rpu_mut(rpu).raise_irq(irq::EVICT);
    }

    /// Reads RPU `rpu`'s host-visible status register.
    pub fn rpu_status(&self, rpu: usize) -> u32 {
        self.rpus()[rpu].inner().status()
    }

    /// Takes the most recent 64-bit debug-channel value from `rpu`, if the
    /// firmware wrote one since the last read (A.7).
    pub fn take_debug(&mut self, rpu: usize) -> Option<u64> {
        self.rpu_mut(rpu).inner_mut().take_debug_out()
    }

    /// Writes the host→RPU half of the 64-bit debug channel.
    pub fn write_debug(&mut self, rpu: usize, value: u64) {
        self.rpu_mut(rpu).inner_mut().set_debug_in(value);
    }
}

/// The analytic partial-reconfiguration timing model (§4.1): "We measured
/// the time to pause, load the new bit file, and boot a new RPU, and it
/// takes 756 milliseconds on average (across 320 loads)."
///
/// The dominant term is writing the PR bitstream through Xilinx's MCAP,
/// which streams configuration frames at roughly 3 MB/s effective on this
/// board generation; pausing/draining and booting add milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct PrTimingModel {
    /// PR bitstream size for one RPU region, in bytes.
    pub bitstream_bytes: f64,
    /// Effective MCAP write bandwidth, bytes/second.
    pub mcap_bytes_per_sec: f64,
    /// Pause + drain + boot overhead, seconds.
    pub fixed_overhead_s: f64,
    /// Run-to-run jitter fraction (uniform ±).
    pub jitter: f64,
}

impl Default for PrTimingModel {
    fn default() -> Self {
        // A VU9P PR region covering ~1/16 of the device is ~2.2 MB of
        // frames; 3 MB/s MCAP + ~20 ms overhead lands at the measured mean.
        Self {
            bitstream_bytes: 2.21e6,
            mcap_bytes_per_sec: 3.0e6,
            fixed_overhead_s: 0.020,
            jitter: 0.04,
        }
    }
}

impl PrTimingModel {
    /// One reload's duration in seconds, with deterministic per-sample
    /// jitter from `sample` (the load index).
    pub fn reload_seconds(&self, sample: u64) -> f64 {
        let base = self.bitstream_bytes / self.mcap_bytes_per_sec + self.fixed_overhead_s;
        let mut rng = rosebud_kernel::SimRng::seed_from(0x9E37 ^ sample);
        base * (1.0 + self.jitter * (2.0 * rng.unit() - 1.0))
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

    #[test]
    fn pr_model_means_756ms_over_320_loads() {
        let model = PrTimingModel::default();
        let mean = model.mean_reload_seconds(320);
        assert!(
            (mean - 0.756).abs() < 0.015,
            "mean reload {mean} s, paper: 0.756 s"
        );
    }

    #[test]
    fn pr_model_jitter_is_bounded() {
        let model = PrTimingModel::default();
        let base = model.bitstream_bytes / model.mcap_bytes_per_sec + model.fixed_overhead_s;
        for i in 0..100 {
            let s = model.reload_seconds(i);
            assert!((s - base).abs() <= base * model.jitter * 1.001);
        }
    }
}
