//! RV32IM instruction-set simulator for the Rosebud reproduction.
//!
//! Each RPU in the Rosebud framework contains a VexRiscv core — "a small open
//! source 32-bit RISC-V core with a 5-stage pipeline that is optimized for
//! FPGAs" (paper §5). This crate provides the software model of that core:
//!
//! * [`decode`]/[`encode`] — the full RV32IM instruction set,
//! * [`Cpu`] — the execution engine with a VexRiscv-like cycle [`CostModel`]
//!   (pipeline refills on jumps, multi-cycle multiply/divide, wait-states
//!   charged by the memory system through the [`Bus`] trait),
//! * [`assemble`] — a two-pass assembler for writing firmware, and
//! * [`disassemble`] — the inverse, used by host-side debug dumps.
//!
//! The instruction set is written down once, in a crate-private table that
//! gives each operation its mnemonic, function bits and (loads and stores)
//! access width. [`decode`], [`encode`], the assembler, the disassembler and
//! the [`Analyzer`] all read it; [`encode`] is the one place an immediate's
//! range is checked. [`Cpu`] executes decoded [`Instr`]s and never reads it.
//!
//! # Examples
//!
//! ```
//! use rosebud_riscv::{assemble, Cpu, RamBus, StepResult, Reg};
//!
//! let image = assemble("
//!         li a0, 0        # sum
//!         li a1, 10       # counter
//!     loop:
//!         add a0, a0, a1
//!         addi a1, a1, -1
//!         bnez a1, loop
//!         ebreak
//! ").unwrap();
//!
//! let mut bus = RamBus::new(4096);
//! bus.load_image(0, image.words());
//! let mut cpu = Cpu::new(0);
//! while !matches!(cpu.step(&mut bus), StepResult::Break) {}
//! assert_eq!(cpu.reg(Reg::parse("a0").unwrap()), 55);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod analyze;
mod asm;
mod cpu;
mod disasm;
mod icache;
mod isa;

pub use analyze::{
    Analyzer, Check, Diagnostic, EntryWcet, LintReport, LoopBound, MachineSpec, MmioReg,
    ProtocolSpec, Region, Severity,
};
pub use asm::{assemble, AsmError, Image};
pub use cpu::{
    csr, AccessSize, Bus, BusFault, BusValue, CostModel, Cpu, CpuFault, Fetched, RamBus, StepResult,
};
pub use disasm::{disassemble, disassemble_image};
pub use icache::{DecodeCache, DecodeCacheStats};
pub use isa::{
    decode, encode, AluOp, BranchOp, CsrOp, CsrSrc, DecodeError, EncodeError, Instr, LoadOp, MulOp,
    Reg, StoreOp,
};
