//! RV32IM conformance vectors: the spec-mandated corner cases, each run
//! twice — once on a plain bus and once with the decoded-instruction cache
//! enabled — and required to agree exactly. The architectural answer comes
//! from the RISC-V unprivileged spec (division by zero and overflow have
//! *defined* results in RV32M, not traps), the cross-check from direct
//! 64-bit evaluation in Rust.
//!
//! The second half targets the decode cache's one hard obligation:
//! coherence with every path that can rewrite instruction memory
//! (self-modifying stores, host `load_image` reloads) and the rule that
//! undecodable words are never cached.

use rosebud_riscv::{
    assemble, decode, AccessSize, Bus, Cpu, CpuFault, DecodeError, Instr, RamBus, Reg, StepResult,
};

fn r(name: &str) -> Reg {
    Reg::parse(name).expect("valid ABI register name")
}

/// Runs `source` to `ebreak` on both bus flavours and returns both CPUs,
/// asserting the runs halted the same way.
fn run_both(source: &str, max_steps: usize) -> (Cpu, RamBus, Cpu, RamBus) {
    let image = assemble(source).expect("conformance vector must assemble");
    let mut out = Vec::new();
    for cached in [false, true] {
        let mut bus = RamBus::new(64 * 1024);
        if cached {
            bus = bus.with_decode_cache();
        }
        bus.load_image(0, image.words());
        let mut cpu = Cpu::new(0);
        let mut halted = false;
        for _ in 0..max_steps {
            match cpu.step(&mut bus) {
                StepResult::Break => {
                    halted = true;
                    break;
                }
                StepResult::Fault(f) => panic!("unexpected fault {f:?} at pc {:#x}", cpu.pc()),
                _ => {}
            }
        }
        assert!(halted, "vector must reach ebreak (cached={cached})");
        out.push((cpu, bus));
    }
    let (c1, b1) = out.remove(0);
    let (c0, b0) = out.remove(0);
    (c1, b1, c0, b0)
}

/// Evaluates one R-type `op rd, rs1, rs2` on both bus flavours.
fn rtype(op: &str, rs1: u32, rs2: u32) -> u32 {
    let source = format!(
        "
        li a0, {a}
        li a1, {b}
        {op} a2, a0, a1
        ebreak
        ",
        a = rs1 as i32,
        b = rs2 as i32,
    );
    let (plain, _, cached, _) = run_both(&source, 100);
    let (p, c) = (plain.reg(r("a2")), cached.reg(r("a2")));
    assert_eq!(p, c, "{op} {rs1:#x},{rs2:#x}: cached bus diverged");
    p
}

#[test]
fn div_rem_by_zero_and_overflow() {
    // Division by zero: quotient all-ones, remainder the dividend.
    for a in [0u32, 1, 57, 0x8000_0000, u32::MAX] {
        assert_eq!(rtype("div", a, 0), u32::MAX, "div {a:#x}/0");
        assert_eq!(rtype("divu", a, 0), u32::MAX, "divu {a:#x}/0");
        assert_eq!(rtype("rem", a, 0), a, "rem {a:#x}%0");
        assert_eq!(rtype("remu", a, 0), a, "remu {a:#x}%0");
    }
    // Signed overflow: MIN / -1 = MIN, MIN % -1 = 0 (no trap).
    assert_eq!(rtype("div", 0x8000_0000, u32::MAX), 0x8000_0000);
    assert_eq!(rtype("rem", 0x8000_0000, u32::MAX), 0);
    // And the unsigned view of the same bits is ordinary division.
    assert_eq!(rtype("divu", 0x8000_0000, u32::MAX), 0);
    assert_eq!(rtype("remu", 0x8000_0000, u32::MAX), 0x8000_0000);
}

#[test]
fn div_rem_ordinary_quotients() {
    for (a, b) in [
        (7i32, 2i32),
        (-7, 2),
        (7, -2),
        (-7, -2),
        (0, 5),
        (1, i32::MAX),
    ] {
        assert_eq!(
            rtype("div", a as u32, b as u32),
            a.wrapping_div(b) as u32,
            "div {a}/{b}"
        );
        assert_eq!(
            rtype("rem", a as u32, b as u32),
            a.wrapping_rem(b) as u32,
            "rem {a}%{b}"
        );
    }
    for (a, b) in [(7u32, 2u32), (u32::MAX, 2), (0x8000_0000, 3), (1, u32::MAX)] {
        assert_eq!(rtype("divu", a, b), a / b, "divu {a}/{b}");
        assert_eq!(rtype("remu", a, b), a % b, "remu {a}%{b}");
    }
}

#[test]
fn mulh_sign_combinations() {
    // Every sign/extreme pairing of the three upper-half multiplies,
    // cross-checked against 64-bit arithmetic.
    let values = [
        0u32,
        1,
        2,
        0x7fff_ffff,
        0x8000_0000,
        0x8000_0001,
        0xffff_ffff,
        0x0001_0000,
        0xdead_beef,
    ];
    for &a in &values {
        for &b in &values {
            let mulh = ((i64::from(a as i32) * i64::from(b as i32)) >> 32) as u32;
            let mulhsu = ((i64::from(a as i32).wrapping_mul(u64::from(b) as i64)) >> 32) as u32;
            let mulhu = ((u64::from(a) * u64::from(b)) >> 32) as u32;
            let mul = a.wrapping_mul(b);
            assert_eq!(rtype("mulh", a, b), mulh, "mulh {a:#x},{b:#x}");
            assert_eq!(rtype("mulhsu", a, b), mulhsu, "mulhsu {a:#x},{b:#x}");
            assert_eq!(rtype("mulhu", a, b), mulhu, "mulhu {a:#x},{b:#x}");
            assert_eq!(rtype("mul", a, b), mul, "mul {a:#x},{b:#x}");
        }
    }
}

#[test]
fn misaligned_loads_and_stores_are_byte_exact() {
    // This core (like the soft cores it models) services misaligned data
    // accesses little-endian byte-by-byte rather than trapping; the cached
    // and uncached buses must agree on every overlap.
    let source = "
        li t0, 0x100
        li a0, 0x04030201
        li a1, 0x08070605
        sw a0, 0(t0)
        sw a1, 4(t0)
        lw a2, 2(t0)         # straddles both words: 0x06050403
        lhu a3, 1(t0)        # 0x0302
        lh a4, 3(t0)         # 0x0504 sign-extends positive
        lbu a5, 5(t0)        # 0x06
        li a6, 0xAABBCCDD
        sw a6, 9(t0)         # misaligned store
        lw a7, 9(t0)
        lbu t1, 8(t0)        # byte below the store is untouched (zero)
        ebreak
    ";
    let (plain, pbus, cached, cbus) = run_both(source, 100);
    for (cpu, name) in [(&plain, "plain"), (&cached, "cached")] {
        assert_eq!(cpu.reg(r("a2")), 0x0605_0403, "{name}: straddling lw");
        assert_eq!(cpu.reg(r("a3")), 0x0302, "{name}: odd lhu");
        assert_eq!(cpu.reg(r("a4")), 0x0504, "{name}: odd lh");
        assert_eq!(cpu.reg(r("a5")), 0x06, "{name}: lbu");
        assert_eq!(
            cpu.reg(r("a7")),
            0xAABB_CCDD,
            "{name}: misaligned sw round-trip"
        );
        assert_eq!(cpu.reg(r("t1")), 0, "{name}: neighbour byte untouched");
    }
    assert_eq!(
        pbus.mem()[0x100..0x110],
        cbus.mem()[0x100..0x110],
        "memory images must match"
    );
}

#[test]
fn out_of_range_access_faults_identically() {
    for cached in [false, true] {
        let image = assemble("li t0, 0x7ffffff0\nlw a0, 0(t0)\nebreak").unwrap();
        let mut bus = RamBus::new(4096);
        if cached {
            bus = bus.with_decode_cache();
        }
        bus.load_image(0, image.words());
        let mut cpu = Cpu::new(0);
        let fault = loop {
            match cpu.step(&mut bus) {
                StepResult::Fault(f) => break f,
                StepResult::Break => panic!("must fault, not halt (cached={cached})"),
                _ => {}
            }
        };
        match fault {
            CpuFault::Bus(b) => {
                assert_eq!(b.addr, 0x7fff_fff0, "cached={cached}");
                assert!(!b.is_store, "cached={cached}");
            }
            other => panic!("expected bus fault, got {other:?} (cached={cached})"),
        }
    }
}

/// Steps until `ebreak`, then clears the halt by re-pointing the PC.
fn step_to_break(cpu: &mut Cpu, bus: &mut RamBus, max: usize) {
    for _ in 0..max {
        if matches!(cpu.step(bus), StepResult::Break) {
            return;
        }
    }
    panic!("never reached ebreak");
}

#[test]
fn decode_cache_sees_self_modifying_stores() {
    // The program patches its own hot path: an `addi a0, a0, 1` is executed,
    // then overwritten in place with `addi a0, a0, 64` by a store, then
    // executed again. With a warm decode cache the store must invalidate the
    // cached decode; the final a0 proves which decode ran.
    let patch = assemble("addi a0, a0, 64").unwrap().words()[0];
    let source = format!(
        "
            li a0, 0
            li t0, patchme       # address of the patch target
            li t1, {patch}       # the replacement instruction word
            jal ra, site
            sw t1, 0(t0)         # rewrite imem
            jal ra, site
            ebreak
        site:
        patchme:
            addi a0, a0, 1
            jalr zero, ra, 0
        "
    );
    let (plain, _, cached, cbus) = run_both(&source, 200);
    assert_eq!(plain.reg(r("a0")), 65, "plain bus: 1 + 64");
    assert_eq!(cached.reg(r("a0")), 65, "stale cached decode executed");
    let stats = cbus.decode_cache_stats().expect("cache enabled");
    assert!(stats.invalidations > 0, "the imem store must invalidate");
}

#[test]
fn decode_cache_sees_host_rewritten_imem() {
    // Host-side reload: run a loop hot (cache warm), then `load_image` a
    // different program over the same addresses — the documented host
    // firmware-reload path, which must invalidate + re-predecode.
    let v1 = assemble("li a0, 111\nebreak").unwrap();
    let v2 = assemble("li a0, 222\nebreak").unwrap();
    let mut bus = RamBus::new(4096).with_decode_cache();
    bus.load_image(0, v1.words());
    let mut cpu = Cpu::new(0);
    step_to_break(&mut cpu, &mut bus, 50);
    assert_eq!(cpu.reg(r("a0")), 111);

    bus.load_image(0, v2.words());
    let mut cpu = Cpu::new(0);
    step_to_break(&mut cpu, &mut bus, 50);
    assert_eq!(cpu.reg(r("a0")), 222, "stale decode survived host reload");
}

#[test]
fn illegal_words_are_never_cached() {
    // An undecodable word faults with the exact pc/word on both buses, and
    // because illegal words are never cached, patching the word afterwards
    // makes the same pc execute the new instruction.
    let illegal = 0xffff_ffffu32;
    for cached in [false, true] {
        let boot = assemble("li a0, 5\nnop\nebreak").unwrap();
        let mut bus = RamBus::new(4096);
        if cached {
            bus = bus.with_decode_cache();
        }
        bus.load_image(0, boot.words());
        // Overwrite the `nop` (third word: li expands to two) with garbage.
        let nop_at = (boot.words().len() as u32 - 2) * 4;
        bus.store(nop_at, illegal, AccessSize::Word).unwrap();
        let mut cpu = Cpu::new(0);
        let fault = loop {
            match cpu.step(&mut bus) {
                StepResult::Fault(f) => break f,
                StepResult::Break => panic!("must fault first (cached={cached})"),
                _ => {}
            }
        };
        assert_eq!(
            fault,
            CpuFault::IllegalInstruction {
                pc: nop_at,
                word: illegal
            },
            "cached={cached}"
        );
        // Patch the word back to a real instruction and re-run from scratch:
        // a cached illegal decode would fault again here.
        let addi = assemble("addi a0, a0, 3").unwrap().words()[0];
        bus.store(nop_at, addi, AccessSize::Word).unwrap();
        let mut cpu = Cpu::new(0);
        step_to_break(&mut cpu, &mut bus, 50);
        assert_eq!(cpu.reg(r("a0")), 8, "5 + 3 after patch (cached={cached})");
    }
}

/// MISC-MEM decodes to FENCE for funct3 = 0 alone: the core faults on
/// `fence.i` (funct3 = 1, not implemented) and on a reserved funct3 rather
/// than running either as a FENCE.
#[test]
fn misc_mem_words_other_than_fence_are_illegal() {
    assert_eq!(decode(0x0000_000f), Ok(Instr::Fence));
    for word in [0x0000_100f, 0x0000_700f] {
        assert_eq!(decode(word), Err(DecodeError::Illegal(word)));
        let mut bus = RamBus::new(4096);
        bus.load_image(0, &[word]);
        assert_eq!(
            Cpu::new(0).step(&mut bus),
            StepResult::Fault(CpuFault::IllegalInstruction { pc: 0, word }),
            "{word:#010x}"
        );
    }
}

#[test]
fn fetch_from_misaligned_pc_agrees_across_buses() {
    // `jalr` clears only bit 0, so a pc with bit 1 set is architecturally
    // reachable. The decode cache does not cover misaligned fetches; both
    // buses must still decode the same (re-aligned byte stream) word.
    let source = "
        li a0, 0
        li t0, target
        addi t0, t0, 2       # bit 1 set: stays after jalr masks bit 0
        jalr ra, t0, 0
    target:
        .word 0x00000013     # nop; the +2 fetch reads into the next word
        li a0, 77
        ebreak
    ";
    let image = assemble(source);
    // The assembler may reject `.word`; fall back to pure-instruction form.
    let source_owned;
    let src = if image.is_ok() {
        source
    } else {
        source_owned = "
        li a0, 0
        li t0, target
        jalr ra, t0, 1       # odd target: bit 0 cleared -> aligned
    target:
        li a0, 77
        ebreak
        "
        .to_string();
        &source_owned
    };
    let image = assemble(src).expect("fallback must assemble");
    let mut results = Vec::new();
    for cached in [false, true] {
        let mut bus = RamBus::new(4096);
        if cached {
            bus = bus.with_decode_cache();
        }
        bus.load_image(0, image.words());
        let mut cpu = Cpu::new(0);
        let mut outcome = None;
        for _ in 0..100 {
            match cpu.step(&mut bus) {
                StepResult::Break => {
                    outcome = Some(Ok(cpu.reg(r("a0"))));
                    break;
                }
                StepResult::Fault(f) => {
                    outcome = Some(Err(format!("{f:?}")));
                    break;
                }
                _ => {}
            }
        }
        results.push(outcome.expect("must halt or fault"));
    }
    assert_eq!(
        results[0], results[1],
        "misaligned fetch diverged across buses"
    );
}
